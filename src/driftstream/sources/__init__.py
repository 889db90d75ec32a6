from .archive import posts_from_archive
from .posts import Post, Rejection, parse_post
from .synthetic import (
    DriftTermSchedule,
    GeneratedCorpus,
    SyntheticConfig,
    SyntheticConfigError,
    generate_synthetic,
    load_ground_truth,
)

__all__ = [
    "DriftTermSchedule",
    "GeneratedCorpus",
    "Post",
    "Rejection",
    "SyntheticConfig",
    "SyntheticConfigError",
    "generate_synthetic",
    "load_ground_truth",
    "parse_post",
    "posts_from_archive",
]
