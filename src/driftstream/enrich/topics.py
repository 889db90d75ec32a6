"""Topic-group tagging for the three tracked outcome groups.

A post belongs to every group with a lexicon term in its text, lowercased;
groups are not mutually exclusive, so a post about a hospitalization after
a positive test belongs to both. ``Lexicons.topic_groups`` reads them off
``clean_post``'s one scan.
"""

# The groups' terms every run uses: hand-picked, not ground truth.
DEFAULT_GROUP_LEXICONS: dict[str, tuple[str, ...]] = {
    "deaths_hospitalizations": ("death", "died", "hospitaliz", "icu", "ventilator"),
    "positive_tests": ("positive", "tested positive", "diagnosed"),
    "symptomatic": ("fever", "cough", "loss of taste", "symptoms"),
}
