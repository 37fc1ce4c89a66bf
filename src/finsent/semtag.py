"""Semantic tagging: chunked sentences plus lexicon into the 10-tag vocabulary.

Tags are the six lexicon categories plus four interaction tags pairing an
indicator with a direction (``LagInd::UP`` and friends).  A sentence's tag set
is built in four passes:

1. indicator/modifier pairs from the pairing grammar become interaction tags
   (each chunk participates in at most one interaction);
2. if no interaction was found and the sentence contains a comparison marker,
   numeric directionality is derived from the numeric grammar's pair-pattern
   nodes, each read in one walk for its indicator and its numbers;
3. remaining indicator/direction words anywhere in the sentence contribute
   bare tags (spans consumed by an interaction are suppressed);
4. POS/NEG sentiment words are collected token-wise, independent of chunking.

The lexicon is read once per sentence into one list of hits: at each token
whose word starts an entry, the n-grams of up to that word's longest entry
are looked up (see ``_lexicon_hits``).  Passes 1 and 2 take
the longest hit inside a chunk's tokens; passes 3 and 4 scan the list left to
right, longest match first, without overlaps.

Optional reversal post-processing flips the direction of interaction tags
whose indicator is on the reversal list (costs, expenses, ...).
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .chunker import (
    Chunk,
    INDICATOR_LABELS,
    PairExtraction,
    bundled_grammar,
    chunk,
    extract_pairs,
    pair_nodes,
)
from .lexicon import (
    DIRECTION_CATEGORIES,
    INDICATOR_CATEGORIES,
    SENTIMENT_CATEGORIES,
    LexCategory,
    Lexicon,
    normalize_phrase,
)
from .pos_text import PosSentence

__all__ = [
    "SemTag",
    "TaggedSentence",
    "Mode",
    "COMPARISON_MARKERS",
    "tag_sentence",
    "filter_mode",
    "flip_direction",
    "canonical_order",
    "interaction_tag",
    "is_interaction",
]


class SemTag(str, Enum):
    """The ten semantic tags."""

    LAGIND = "LagInd"
    LEADIND = "LeadInd"
    UP = "UP"
    DOWN = "DOWN"
    POS = "POS"
    NEG = "NEG"
    LAGIND_UP = "LagInd::UP"
    LAGIND_DOWN = "LagInd::DOWN"
    LEADIND_UP = "LeadInd::UP"
    LEADIND_DOWN = "LeadInd::DOWN"


_TAG_ORDER = {tag: i for i, tag in enumerate(SemTag)}

_INTERACTION = {
    (LexCategory.LAGIND, LexCategory.UP): SemTag.LAGIND_UP,
    (LexCategory.LAGIND, LexCategory.DOWN): SemTag.LAGIND_DOWN,
    (LexCategory.LEADIND, LexCategory.UP): SemTag.LEADIND_UP,
    (LexCategory.LEADIND, LexCategory.DOWN): SemTag.LEADIND_DOWN,
}

_FLIP = {
    SemTag.LAGIND_UP: SemTag.LAGIND_DOWN,
    SemTag.LAGIND_DOWN: SemTag.LAGIND_UP,
    SemTag.LEADIND_UP: SemTag.LEADIND_DOWN,
    SemTag.LEADIND_DOWN: SemTag.LEADIND_UP,
}

_BARE = {category: SemTag(category.value) for category in LexCategory}


def interaction_tag(indicator: LexCategory, direction: LexCategory) -> SemTag:
    return _INTERACTION[(indicator, direction)]


def is_interaction(tag: SemTag) -> bool:
    return tag in _FLIP


def flip_direction(tag: SemTag) -> SemTag:
    """UP <-> DOWN on interaction tags; other tags pass through unchanged."""
    return _FLIP.get(tag, tag)


def canonical_order(tags: Iterable[SemTag]) -> List[SemTag]:
    """Tags sorted in declaration order (bare tags first, then interactions)."""
    return sorted(tags, key=_TAG_ORDER.__getitem__)


@dataclass(frozen=True)
class TaggedSentence:
    """The semantic tag set extracted from one sentence."""

    tags: frozenset
    source: PosSentence


class Mode(str, Enum):
    """Which tag families the classifier sees."""

    LAG_ONLY = "lag"
    LAG_LEAD = "lag-lead"
    ALL = "all"


_MODE_KEEP = {
    Mode.LAG_ONLY: frozenset(
        {SemTag.LAGIND, SemTag.LAGIND_UP, SemTag.LAGIND_DOWN, SemTag.UP, SemTag.DOWN}
    ),
    Mode.LAG_LEAD: frozenset(
        {
            SemTag.LAGIND, SemTag.LAGIND_UP, SemTag.LAGIND_DOWN,
            SemTag.LEADIND, SemTag.LEADIND_UP, SemTag.LEADIND_DOWN,
            SemTag.UP, SemTag.DOWN,
        }
    ),
    Mode.ALL: frozenset(SemTag),
}


def filter_mode(tagged: TaggedSentence, mode: Mode) -> TaggedSentence:
    """Restrict a tag set to the families the given mode keeps."""
    keep = _MODE_KEEP[Mode(mode)]
    return TaggedSentence(frozenset(t for t in tagged.tags if t in keep), tagged.source)


COMPARISON_MARKERS = ("down from", "up from", "compared to", "versus")

_NUMBER_RE = re.compile(r"[+-]?\d+(?:[.,]\d+)*")
# A comma before exactly three digits groups thousands; any other comma is a
# decimal point ("12,500" is 12500, "8,3" is 8.3).
_THOUSANDS_COMMA_RE = re.compile(r",(?=\d{3}(?!\d))")


@dataclass(frozen=True)
class _Hit:
    """A lexicon match inside the sentence: category, phrase, tokens [start, end)."""

    category: LexCategory
    phrase: str
    start: int
    end: int


def _lexicon_hits(lex: Lexicon, surfaces: Sequence[str]) -> Tuple[_Hit, ...]:
    """Every lexicon phrase in the sentence, by start, longest first.

    Each surface is normalized once.  When each normalizes to exactly one
    word, an n-gram's normalized words are its surfaces' words, so it can be
    an entry only if its first word starts one and it is no longer than the
    longest entry that word starts (``lex.reach``); only those lengths are
    looked up.  A sentence with a surface of zero or several words looks up
    every n-gram of up to ``lex.max_phrase_len`` tokens instead.
    """
    words = [normalize_phrase(surface) for surface in surfaces]
    n = len(surfaces)
    if all(word and " " not in word for word in words):
        reach = [lex.reach(word) for word in words]
    else:
        reach = [lex.max_phrase_len] * n
    hits = []
    for start in range(n):
        for end in range(min(n, start + reach[start]), start, -1):
            phrase = surfaces[start:end]
            category = lex.lookup(phrase)
            if category is not None:
                hits.append(_Hit(category, " ".join(phrase).lower(), start, end))
    return tuple(hits)


def _scan(hits: Sequence[_Hit], categories) -> Iterator[_Hit]:
    """Longest-match, non-overlapping, left-to-right hits in the given categories."""
    free = 0
    for hit in hits:
        if hit.start >= free and hit.category in categories:
            free = hit.end
            yield hit


def _find_in_span(hits: Sequence[_Hit], start: int, end: int, categories) -> Optional[_Hit]:
    """Longest (then leftmost) hit inside tokens [start, end) in the given categories."""
    inside = [h for h in hits if start <= h.start and h.end <= end and h.category in categories]
    return min(inside, key=lambda h: (h.start - h.end, h.start), default=None)


def _marker_in(surfaces: Sequence[str]) -> Optional[str]:
    joined = " " + " ".join(s.lower() for s in surfaces) + " "
    for marker in COMPARISON_MARKERS:
        if f" {marker} " in joined:
            return marker
    return None


def _parse_value(surface: str) -> Optional[float]:
    m = _NUMBER_RE.match(surface)
    if not m:
        return None
    try:
        return float(_THOUSANDS_COMMA_RE.sub("", m.group(0)).replace(",", "."))
    except ValueError:  # more than one decimal point, e.g. "1.2.3"
        return None


def _numeric_hit(
    tree: Chunk, find: Callable[[int, int, frozenset], Optional[_Hit]], marker: Optional[str]
) -> Optional[Tuple[SemTag, _Hit]]:
    """Interaction tag of the first pair-pattern node with an indicator and two numbers.

    ``tree`` comes from the numeric grammar.  In each node, the first
    indicator chunk with a lexicon hit is the indicator; the first CD value is
    the current figure and the second the reference: higher means UP, lower
    DOWN, equal values produce nothing.  "down from"/"up from" markers state
    the direction outright.
    """
    for node in pair_nodes(tree):
        indicator = None
        values: List[float] = []
        for sub in node.subchunks():
            if sub.label in INDICATOR_LABELS:
                if indicator is None:
                    indicator = find(sub.start, sub.end, INDICATOR_CATEGORIES)
            elif sub.label == "CD":
                value = _parse_value(sub.surfaces()[0])
                if value is not None:
                    values.append(value)
        if indicator is None or len(values) < 2:
            continue
        current, reference = values[0], values[1]
        if marker == "down from":
            direction = LexCategory.DOWN
        elif marker == "up from":
            direction = LexCategory.UP
        elif current > reference:
            direction = LexCategory.UP
        elif current < reference:
            direction = LexCategory.DOWN
        else:
            continue
        return interaction_tag(indicator.category, direction), indicator
    return None


def _span_hits(find, chunks: Sequence[Chunk], categories) -> List[tuple]:
    """``((label, start, end), hit)`` of each chunk with a hit in the categories, in order."""
    found = []
    for sub in chunks:
        start, end = sub.start, sub.end
        hit = find(start, end, categories)
        if hit is not None:
            found.append(((sub.label, start, end), hit))
    return found


def _pair_hits(
    extraction: PairExtraction, find: Callable[[int, int, frozenset], Optional[_Hit]]
) -> List[Tuple[_Hit, _Hit]]:
    """(indicator hit, direction hit) of every pair that becomes an interaction.

    Pairs are taken greedily by node, indicator, then modifier, skipping any
    whose chunks an earlier interaction used.  A chunk without a hit pairs
    with nothing, so only chunks with one are kept.  Chunks are keyed by
    (label, start, end), which is cheaper to hash than the chunk itself.
    """
    found: List[Tuple[_Hit, _Hit]] = []
    used_spans: Set[tuple] = set()
    for indicators, modifiers in extraction.nodes:
        ind_hits = _span_hits(find, indicators, INDICATOR_CATEGORIES)
        mod_hits = _span_hits(find, modifiers, DIRECTION_CATEGORIES) if ind_hits else ()
        for ind_key, ind_hit in ind_hits:
            if ind_key in used_spans:
                continue
            for mod_key, mod_hit in mod_hits:
                if mod_key not in used_spans:
                    found.append((ind_hit, mod_hit))
                    used_spans.add(ind_key)
                    used_spans.add(mod_key)
                    break
    return found


def tag_sentence(sentence: PosSentence, lex: Lexicon, *, reversal: bool = False) -> TaggedSentence:
    """Extract the semantic tag set of one sentence (see module docstring)."""
    surfaces = sentence.surfaces
    hits = _lexicon_hits(lex, surfaces)
    # a sentence's spans recur across its indicator/modifier pairs and the numeric path
    find = functools.lru_cache(maxsize=None)(functools.partial(_find_in_span, hits))

    tree = chunk(bundled_grammar("indicator_direction"), sentence)
    extraction = extract_pairs(tree)

    interactions: List[Tuple[SemTag, _Hit]] = []
    consumed: Set[int] = set()
    for ind_hit, mod_hit in _pair_hits(extraction, find):
        interactions.append((interaction_tag(ind_hit.category, mod_hit.category), ind_hit))
        consumed.update(range(ind_hit.start, ind_hit.end), range(mod_hit.start, mod_hit.end))

    if not interactions and (marker := _marker_in(surfaces)):
        found = _numeric_hit(chunk(bundled_grammar("numeric_direction"), sentence), find, marker)
        if found is not None:
            tag, ind_hit = found
            interactions.append((tag, ind_hit))
            consumed.update(range(ind_hit.start, ind_hit.end))

    tags: Set[SemTag] = set()
    for hit in _scan(hits, INDICATOR_CATEGORIES | DIRECTION_CATEGORIES):
        if consumed.isdisjoint(range(hit.start, hit.end)):
            tags.add(_BARE[hit.category])
    for hit in _scan(hits, SENTIMENT_CATEGORIES):
        tags.add(_BARE[hit.category])

    for tag, ind_hit in interactions:
        if reversal and lex.is_reversal(ind_hit.phrase):
            tag = flip_direction(tag)
        tags.add(tag)

    return TaggedSentence(frozenset(tags), sentence)
