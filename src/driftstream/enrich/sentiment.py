"""Lexicon-based sentiment scoring.

A deliberately simple stand-in for a trained sentiment model: sum the
weights of every lexicon term occurrence in the text and clamp the sum to
[-1, 1]. Deterministic and fully testable against a recount.
"""

from __future__ import annotations

from ..keywords import CompiledLexicon

DEFAULT_SENTIMENT_LEXICON = {
    "good": 0.5,
    "great": 0.8,
    "hope": 0.4,
    "recovered": 0.6,
    "safe": 0.3,
    "love": 0.6,
    "bad": -0.5,
    "terrible": -0.8,
    "scared": -0.6,
    "死": -0.6,
    "died": -0.7,
    "fear": -0.5,
    "worse": -0.6,
    "crisis": -0.4,
}


def compile_sentiment_lexicon(weights: dict[str, float]) -> CompiledLexicon:
    """``(term, weight)`` pairs in lexicon order, for ``score_sentiment``."""
    return CompiledLexicon(weights.items())


def score_sentiment(lowered: str, lexicon: CompiledLexicon) -> float:
    """Clamped sum of matched term weights; 0.0 when nothing matches.

    Lexicon terms are lowercase, as in ``DEFAULT_SENTIMENT_LEXICON``;
    matching is against ``lowered``, the post text already lowercased, so
    it stays case-insensitive. Each term counts its non-overlapping
    occurrences.
    """
    if lexicon.any_term.search(lowered) is None:
        return 0.0
    total = 0.0
    for term, weight in lexicon.pairs:
        occurrences = lowered.count(term)
        if occurrences:
            total += occurrences * weight
    return max(-1.0, min(1.0, total))

