from .log import DurableLog, LogAppendError
from .records import StreamRecord
from .store import SharedStore
from .windows import WindowAssignment, assign_window

__all__ = [
    "DurableLog",
    "LogAppendError",
    "SharedStore",
    "StreamRecord",
    "WindowAssignment",
    "assign_window",
]
