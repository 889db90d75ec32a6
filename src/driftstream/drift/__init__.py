from .adapter import DriftAdapter, PromotionEvent
from .cooccurrence import CooccurrenceStats, observe_post, score_candidate
from .promotion import PromotionPolicy, promote_keywords

__all__ = [
    "CooccurrenceStats",
    "DriftAdapter",
    "PromotionEvent",
    "PromotionPolicy",
    "observe_post",
    "promote_keywords",
    "score_candidate",
]
