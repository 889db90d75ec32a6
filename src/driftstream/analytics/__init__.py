from .correlation import (
    CorrelationResult,
    TimeSeries,
    correlate_regions,
    daily_series,
    lagged_correlation,
)
from .tables import DIMENSIONS, TableCounts, emit_report

__all__ = [
    "CorrelationResult",
    "DIMENSIONS",
    "TableCounts",
    "TimeSeries",
    "correlate_regions",
    "daily_series",
    "emit_report",
    "lagged_correlation",
]
