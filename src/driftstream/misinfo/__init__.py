from .keywords import (
    DEFAULT_MISINFO_SEEDS,
    MisinfoKeywordSet,
    extract_misinfo_terms,
    refresh_misinfo_keywords,
)
from .piggyback import detect_piggyback
from .tagging import (
    AuthoritativeSourceList,
    WindowTagReport,
    tag_misinformation_window,
    window_report,
)

__all__ = [
    "AuthoritativeSourceList",
    "DEFAULT_MISINFO_SEEDS",
    "MisinfoKeywordSet",
    "WindowTagReport",
    "detect_piggyback",
    "extract_misinfo_terms",
    "refresh_misinfo_keywords",
    "tag_misinformation_window",
    "window_report",
]
