"""Domain lexicon: performance indicators, directionality words, sentiment words.

The lexicon maps normalized words or multiword phrases onto one of six
categories.  Two categories describe performance indicators (lagging and
leading), two describe directionality of movement (up and down), and two hold
finance-specific sentiment words.  A separate reversal list marks indicators
for which downward movement is a good outcome (costs, expenses, losses).
"""
from __future__ import annotations

import os
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import textfile
from .record import Record

__all__ = [
    "LexCategory",
    "Lexicon",
    "LexiconError",
    "INDICATOR_CATEGORIES",
    "DIRECTION_CATEGORIES",
    "SENTIMENT_CATEGORIES",
    "normalize_phrase",
    "load_lexicon",
    "load_default_lexicon",
]

LEXICON_DIR_ENV = "FINSENT_LEXICON_DIR"


class LexCategory(str, Enum):
    """The six lexicon categories."""

    LAGIND = "LagInd"
    LEADIND = "LeadInd"
    UP = "UP"
    DOWN = "DOWN"
    POS = "POS"
    NEG = "NEG"


INDICATOR_CATEGORIES = frozenset({LexCategory.LAGIND, LexCategory.LEADIND})
DIRECTION_CATEGORIES = frozenset({LexCategory.UP, LexCategory.DOWN})
SENTIMENT_CATEGORIES = frozenset({LexCategory.POS, LexCategory.NEG})

class LexiconError(ValueError):
    """Raised for malformed lexicon files or invariant violations."""


def normalize_phrase(phrase: Union[str, Sequence[str]]) -> str:
    """Lowercase and collapse internal whitespace; token sequences are joined."""
    if not isinstance(phrase, str):
        phrase = " ".join(phrase)
    return " ".join(phrase.split()).lower()


class Lexicon(Record):
    """Immutable category lexicon with case-insensitive exact-phrase lookup.

    ``_trie`` is a dict of dicts, one edge per word; a phrase's last node holds
    ``(category, phrase)`` under the key ``None``.  It holds only the keys ``k``
    with ``k and normalize_phrase(k) == k``, the ones ``lookup`` can hit.
    """

    _fields = ("entries", "reversal_terms")
    __slots__ = (*_fields, "_trie")

    def __init__(self, entries: Mapping[str, LexCategory], reversal_terms: frozenset = frozenset()) -> None:
        trie: dict = {}
        for phrase, category in entries.items():
            if phrase and normalize_phrase(phrase) == phrase:
                node = trie
                for word in phrase.split(" "):
                    node = node.setdefault(word, {})
                node[None] = (category, phrase)
        self._set(entries=entries, reversal_terms=reversal_terms, _trie=trie)

    def lookup(self, phrase: Union[str, Sequence[str]]) -> Optional[LexCategory]:
        """Exact-phrase lookup of a token sequence (or string); None if absent."""
        return self.entries.get(normalize_phrase(phrase))

    def is_reversal(self, phrase: Union[str, Sequence[str]]) -> bool:
        """True iff the normalized phrase is on the directionality-reversal list."""
        return normalize_phrase(phrase) in self.reversal_terms

    def phrases(self, category: LexCategory) -> list:
        return sorted(p for p, c in self.entries.items() if c is category)


def _iter_data_lines(path: Path) -> Iterable[tuple]:
    """Numbered non-blank lines of a UTF-8 file, comments cut."""
    for lineno, raw in textfile.lines(textfile.read(path, error=LexiconError)):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def load_lexicon(path: Union[str, Path], reversals_path: Union[str, Path, None] = None) -> Lexicon:
    """Load a ``phrase,CATEGORY`` lexicon file plus an optional reversal list.

    An empty ``reversals_path`` is no reversal list.  Raises LexiconError on
    malformed lines, unknown categories, phrases listed under two categories,
    or reversal terms that are not indicator entries.
    """
    path = Path(path)
    entries: dict = {}
    for lineno, line in _iter_data_lines(path):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise LexiconError(f"{path}:{lineno}: expected 'phrase,CATEGORY', got {line!r}")
        phrase = normalize_phrase(parts[0])
        try:
            category = LexCategory(parts[1])
        except ValueError:
            raise LexiconError(f"{path}:{lineno}: unknown category {parts[1]!r}") from None
        if entries.setdefault(phrase, category) is not category:
            raise LexiconError(f"{path}:{lineno}: {phrase!r} listed under both "
                               f"{entries[phrase].value} and {category.value}")

    reversal_terms: set = set()
    if reversals_path:
        rpath = Path(reversals_path)
        for lineno, line in _iter_data_lines(rpath):
            phrase = normalize_phrase(line)
            if entries.get(phrase) not in INDICATOR_CATEGORIES:
                raise LexiconError(f"{rpath}:{lineno}: reversal term {phrase!r} is not a "
                                   "lagging/leading indicator entry")
            reversal_terms.add(phrase)

    return Lexicon(entries=entries, reversal_terms=frozenset(reversal_terms))


def default_lexicon_paths() -> tuple:
    """Resolve the lexicon/reversal file paths, honoring FINSENT_LEXICON_DIR."""
    root = os.environ.get(LEXICON_DIR_ENV)
    if root:
        return Path(root) / "lexicon.txt", Path(root) / "reversals.txt"
    data = resources.files("finsent.data")
    return Path(str(data / "lexicon.txt")), Path(str(data / "reversals.txt"))


def load_default_lexicon() -> Lexicon:
    """Load the bundled (or FINSENT_LEXICON_DIR-overridden) lexicon."""
    lex_path, rev_path = default_lexicon_paths()
    return load_lexicon(lex_path, rev_path if Path(rev_path).exists() else None)
