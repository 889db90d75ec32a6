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
    tag_authoritative,
    tag_misinformation_window,
)

__all__ = [
    "AuthoritativeSourceList",
    "DEFAULT_MISINFO_SEEDS",
    "MisinfoKeywordSet",
    "WindowTagReport",
    "detect_piggyback",
    "extract_misinfo_terms",
    "refresh_misinfo_keywords",
    "tag_authoritative",
    "tag_misinformation_window",
]
