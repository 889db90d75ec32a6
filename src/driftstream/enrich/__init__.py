from .clean import clean_post
from .locations import (
    CaseReport,
    Gazetteer,
    case_regions,
    extract_locations,
    load_case_reports,
    normalize_location,
)
from .model import TOPIC_GROUPS, EnrichedPost
from .sentiment import (
    DEFAULT_SENTIMENT_LEXICON,
    compile_sentiment_lexicon,
    load_sentiment_lexicon,
    score_sentiment,
)
from .topics import (
    DEFAULT_GROUP_LEXICONS,
    assign_topic_groups,
    compile_group_lexicons,
    load_group_lexicons,
)

__all__ = [
    "CaseReport",
    "DEFAULT_GROUP_LEXICONS",
    "DEFAULT_SENTIMENT_LEXICON",
    "EnrichedPost",
    "Gazetteer",
    "TOPIC_GROUPS",
    "assign_topic_groups",
    "case_regions",
    "clean_post",
    "compile_group_lexicons",
    "compile_sentiment_lexicon",
    "extract_locations",
    "load_case_reports",
    "load_group_lexicons",
    "load_sentiment_lexicon",
    "normalize_location",
    "score_sentiment",
]
