"""Event-time tumbling windows."""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_WINDOW_LENGTH = 60.0


@dataclass(frozen=True, order=True)
class WindowAssignment:
    window_start: float
    window_length: float = DEFAULT_WINDOW_LENGTH

    @property
    def window_end(self) -> float:
        return self.window_start + self.window_length

    def contains(self, event_time: float) -> bool:
        return self.window_start <= event_time < self.window_end


def window_start(event_time: float, length: float = DEFAULT_WINDOW_LENGTH) -> float:
    """Start of the tumbling window that holds ``event_time``.

    window_start = floor(event_time / length) * length, so a timestamp on a
    boundary belongs to the window it opens. Windows of a fixed length
    partition the time axis: every event maps to exactly one window.
    """
    if length <= 0:
        raise ValueError(f"window length must be positive, got {length}")
    # floor division on floats keeps sub-second event times exact enough for
    # second-resolution streams; use integer math when both are integral to
    # dodge float rounding at large epochs.
    if float(event_time).is_integer() and float(length).is_integer():
        return float((int(event_time) // int(length)) * int(length))
    return math.floor(event_time / length) * length


def assign_window(event_time: float, length: float = DEFAULT_WINDOW_LENGTH) -> WindowAssignment:
    """Map an event time onto its tumbling window (see ``window_start``)."""
    return WindowAssignment(window_start(event_time, length), float(length))
