from .log import DurableLog, LogAppendError
from .records import StreamRecord
from .windows import WindowAssignment, assign_window

__all__ = [
    "DurableLog",
    "LogAppendError",
    "StreamRecord",
    "WindowAssignment",
    "assign_window",
]
