"""Topic-group tagging for the three tracked outcome groups."""

from __future__ import annotations

from ..keywords import NO_TAGS, CompiledLexicon

# The groups' terms every run uses: hand-picked, not ground truth.
DEFAULT_GROUP_LEXICONS: dict[str, tuple[str, ...]] = {
    "deaths_hospitalizations": ("death", "died", "hospitaliz", "icu", "ventilator"),
    "positive_tests": ("positive", "tested positive", "diagnosed"),
    "symptomatic": ("fever", "cough", "loss of taste", "symptoms"),
}


def compile_group_lexicons(group_lexicons: dict[str, tuple[str, ...]]) -> CompiledLexicon:
    """One flat tuple of ``(term, group)`` pairs, for ``assign_topic_groups``."""
    return CompiledLexicon(
        (term, group) for group, terms in group_lexicons.items() for term in terms
    )


def assign_topic_groups(lowered: str, lexicon: CompiledLexicon) -> set[str] | frozenset[str]:
    """Groups whose lexicon has at least one hit in ``lowered``, the post
    text already lowercased; ``NO_TAGS`` when none has.

    Groups are not mutually exclusive; a post about a hospitalization after
    a positive test belongs to both. Lexicon terms are lowercase, as in
    ``DEFAULT_GROUP_LEXICONS``.
    """
    if lexicon.any_term.search(lowered) is None:
        return NO_TAGS
    return {group for term, group in lexicon.pairs if term in lowered}

