"""Event-time tumbling windows."""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_WINDOW_LENGTH = 60.0


@dataclass(frozen=True, order=True)
class WindowAssignment:
    window_start: float
    window_length: float = DEFAULT_WINDOW_LENGTH

    @property
    def window_end(self) -> float:
        return self.window_start + self.window_length


def window_start(event_time: float, length: float = DEFAULT_WINDOW_LENGTH) -> float:
    """Start of the tumbling window that holds ``event_time``.

    The window's index is ``event_time // length`` and its start is that
    index times ``length``, so a timestamp on a boundary belongs to the
    window it opens and every event maps to exactly one window. The runner
    keys its window buffers by the same index, so both always agree.
    """
    if length <= 0:
        raise ValueError(f"window length must be positive, got {length}")
    return float((event_time // length) * length)


def assign_window(event_time: float, length: float = DEFAULT_WINDOW_LENGTH) -> WindowAssignment:
    """Map an event time onto its tumbling window (see ``window_start``)."""
    return WindowAssignment(window_start(event_time, length), float(length))
