"""Domain lexicon: performance indicators, directionality words, sentiment words.

The lexicon maps normalized words or multiword phrases onto one of six
categories.  Two categories describe performance indicators (lagging and
leading), two describe directionality of movement (up and down), and two hold
finance-specific sentiment words.  A separate reversal list marks indicators
for which downward movement is a good outcome (costs, expenses, losses).
"""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import textfile

__all__ = [
    "LexCategory",
    "Lexicon",
    "LexiconError",
    "INDICATOR_CATEGORIES",
    "DIRECTION_CATEGORIES",
    "SENTIMENT_CATEGORIES",
    "REFERENCE_CATEGORY_COUNTS",
    "normalize_phrase",
    "load_lexicon",
    "save_lexicon",
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

# Category sizes of the original dictionary this lexicon reconstructs.  The
# original word lists were never published, so these counts are reported as
# metadata next to the bundled lexicon's own counts; they are not a target.
REFERENCE_CATEGORY_COUNTS: Mapping[LexCategory, int] = {
    LexCategory.LAGIND: 67,
    LexCategory.LEADIND: 70,
    LexCategory.DOWN: 53,
    LexCategory.UP: 51,
    LexCategory.NEG: 2337,
    LexCategory.POS: 353,
}


class LexiconError(ValueError):
    """Raised for malformed lexicon files or invariant violations."""


def normalize_phrase(phrase: Union[str, Sequence[str]]) -> str:
    """Lowercase and collapse internal whitespace; token sequences are joined."""
    if not isinstance(phrase, str):
        phrase = " ".join(phrase)
    return " ".join(phrase.split()).lower()


@dataclass(frozen=True, eq=True)
class Lexicon:
    """Immutable category lexicon with case-insensitive exact-phrase lookup."""

    entries: Mapping[str, LexCategory]
    reversal_terms: frozenset = frozenset()

    def __post_init__(self) -> None:
        reach: dict = {}  # first word -> word count of the longest entry it starts
        for phrase in self.entries:
            words = phrase.split()
            if words:
                reach[words[0]] = max(reach.get(words[0], 0), len(words))
        object.__setattr__(self, "_reach", reach)

    def reach(self, word: str) -> int:
        """Word count of the longest entry whose first word is ``word`` (0 if none)."""
        return self._reach.get(word, 0)  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, phrase: Union[str, Sequence[str]]) -> Optional[LexCategory]:
        """Exact-phrase lookup of a token sequence (or string); None if absent."""
        return self.entries.get(normalize_phrase(phrase))

    def is_reversal(self, phrase: Union[str, Sequence[str]]) -> bool:
        """True iff the normalized phrase is on the directionality-reversal list."""
        return normalize_phrase(phrase) in self.reversal_terms

    def category_counts(self) -> dict:
        counts = Counter(self.entries.values())
        return {cat: counts.get(cat, 0) for cat in LexCategory}

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

    Raises LexiconError on malformed lines, unknown categories, phrases listed
    under two categories, or reversal terms that are not indicator entries.
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
        previous = entries.get(phrase)
        if previous is not None and previous is not category:
            raise LexiconError(
                f"{path}:{lineno}: {phrase!r} listed under both "
                f"{previous.value} and {category.value}"
            )
        entries[phrase] = category

    reversal_terms: set = set()
    if reversals_path is not None:
        rpath = Path(reversals_path)
        for lineno, line in _iter_data_lines(rpath):
            phrase = normalize_phrase(line)
            category = entries.get(phrase)
            if category not in INDICATOR_CATEGORIES:
                raise LexiconError(
                    f"{rpath}:{lineno}: reversal term {phrase!r} is not a "
                    "lagging/leading indicator entry"
                )
            reversal_terms.add(phrase)

    return Lexicon(entries=entries, reversal_terms=frozenset(reversal_terms))


def save_lexicon(
    lex: Lexicon,
    path: Union[str, Path],
    reversals_path: Union[str, Path, None] = None,
) -> None:
    """Write a lexicon back out in the load_lexicon file format."""
    lines = [f"{phrase},{category.value}" for phrase, category in sorted(lex.entries.items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if reversals_path is not None:
        Path(reversals_path).write_text(
            "\n".join(sorted(lex.reversal_terms)) + ("\n" if lex.reversal_terms else ""),
            encoding="utf-8",
        )


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
