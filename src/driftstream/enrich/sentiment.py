"""Lexicon-based sentiment scoring.

A deliberately simple stand-in for a trained sentiment model: sum the
weights of every lexicon term occurrence in the text and clamp the sum to
[-1, 1], adding the terms in lexicon order. Deterministic and fully
testable against a recount. Terms are lowercase, matched against the post
text lowercased; each counts its non-overlapping occurrences.
``Lexicons.sentiment`` scores a post off ``clean_post``'s one scan.
"""

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
