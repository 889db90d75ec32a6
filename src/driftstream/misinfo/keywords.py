"""Misinformation keyword set and its external source feeds.

The set starts from a couple of notorious seed terms and grows by reading
source files: plain term lists, or sectioned documents whose headlines are
distilled into phrases. A run reads its sources once, before its first
post, so every post is tagged against the same set. Removal is a
config-level tombstone, never a delete.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from ..keywords import DEFAULT_STOPWORDS, NO_TAGS, normalize_term

if TYPE_CHECKING:  # pipeline.config imports this module
    from ..pipeline.config import MisinfoSource

DEFAULT_MISINFO_SEEDS = ("bioweapon", "plandemic")

# Filler that carries no keyword value in a headline about a rumor.
GENERIC_HEADLINE_WORDS = frozenset(
    "conspiracy conspiracies theory theories hoax hoaxes rumor rumors rumour "
    "rumours claim claims claimed says said misinformation disinformation "
    "fake news debunked false".split()
)

_PUNCT = re.compile(r"[^\w\s-]")


class MisinfoKeywordSet:
    """Normalized misinformation terms; ``active`` leaves out the tombstoned."""

    def __init__(self, seeds: Iterable[str] = DEFAULT_MISINFO_SEEDS, tombstones: Iterable[str] = ()):
        self.terms: set[str] = set()
        self.tombstones = frozenset(map(normalize_term, tombstones))
        self._active: Optional[tuple[str, ...]] = ()  # sorted; None once an add outdates it
        # (source path, term index or None for the whole source) -> why it was skipped
        self.skipped: dict[tuple[str, Optional[int]], str] = {}
        for term in seeds:
            self.add(term)

    def add(self, term: str) -> bool:
        """Add ``term``; returns True if it was not held yet."""
        term = normalize_term(term)
        if term in self.terms:
            return False
        self.terms.add(term)
        if term not in self.tombstones:
            self._active = None
        return True

    @property
    def active(self) -> tuple[str, ...]:
        """The terms not tombstoned, sorted once after any run of adds."""
        if self._active is None:
            self._active = tuple(sorted(self.terms - self.tombstones))
        return self._active

    def match(self, lowered: str) -> set[str] | frozenset[str]:
        """Active terms found in ``lowered``, a post text already lowercased;
        ``NO_TAGS`` when none is."""
        return {t for t in self.active if t in lowered} or NO_TAGS

    def __contains__(self, term: str) -> bool:
        return term.strip().lower() in self.terms

    def __len__(self) -> int:
        return len(self.terms)


def _split_sections(document: str) -> dict[str, list[str]]:
    """Markdown-style sections: ``# Heading`` lines open a section, the
    non-empty lines below it are its headlines."""
    sections: dict[str, list[str]] = {}
    current: Optional[str] = None
    for raw_line in document.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            current = line.lstrip("#").strip().lower()
            sections.setdefault(current, [])
        elif current is not None:
            sections[current].append(line)
    return sections


def _headline_phrase(headline: str, drop_words: frozenset[str]) -> str:
    cleaned = _PUNCT.sub(" ", headline.lower())
    kept = [
        token
        for token in cleaned.split()
        if len(token) >= 3 and token not in DEFAULT_STOPWORDS and token not in drop_words
    ]
    return " ".join(kept)


def extract_misinfo_terms(document: str, sections: tuple[str, ...] = ("conspiracy",)) -> list[str]:
    """One normalized phrase per headline in the configured sections.

    Stopwords and generic rumor-vocabulary are stripped, so a headline like
    "Plandemic conspiracy" yields just "plandemic".
    """
    parsed = _split_sections(document)
    drop = GENERIC_HEADLINE_WORDS | frozenset(s.lower() for s in sections)
    terms: list[str] = []
    seen = set()
    for section in sections:
        for headline in parsed.get(section.lower(), []):
            phrase = _headline_phrase(headline, drop)
            if phrase and phrase not in seen:
                seen.add(phrase)
                terms.append(phrase)
    return terms


def refresh_misinfo_keywords(sources: Iterable[MisinfoSource], keyword_set: MisinfoKeywordSet) -> list[str]:
    """Read every source into ``keyword_set``; returns the newly added terms (sorted).

    A source that cannot be read or parsed, and a term that is blank or not a
    string, is skipped and recorded in ``keyword_set.skipped``; the existing
    set is always retained. A run calls this once, before its first post.
    """
    added: list[str] = []
    for source in sources:
        path = source.path
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            keyword_set.skipped[(path, None)] = f"unreadable ({exc.strerror})"
            continue
        except UnicodeDecodeError:
            keyword_set.skipped[(path, None)] = "not UTF-8"
            continue
        if source.kind == "terms_file":
            try:
                terms = json.loads(text).get("terms", [])
            except (json.JSONDecodeError, AttributeError):
                terms = None
            if not isinstance(terms, list):
                keyword_set.skipped[(path, None)] = 'not a JSON object with a "terms" list'
                continue
        else:  # "headlines"
            terms = extract_misinfo_terms(text, source.sections)
        for index, term in enumerate(terms):
            if not isinstance(term, str):
                keyword_set.skipped[(path, index)] = f"not a string: {json.dumps(term)}"
            elif not term.strip():
                keyword_set.skipped[(path, index)] = "blank term"
            elif keyword_set.add(term):
                added.append(normalize_term(term))
    return sorted(added)
