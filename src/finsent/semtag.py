"""Semantic tagging: chunked sentences plus lexicon into the 10-tag vocabulary.

Tags are the six lexicon categories plus four interaction tags pairing an
indicator with a direction (``LagInd::UP`` and friends).  A sentence's tag set
is built in four passes:

1. if the sentence's hits hold an indicator and a direction word,
   indicator/modifier pairs from the pairing grammar become interaction tags.
   That grammar's NPJJ nodes are disjoint and no span-table entry repeats, so
   each node's k-th indicator chunk with a hit pairs with its k-th modifier
   chunk with one, a zip (each chunk joins at most one interaction);
2. if no interaction was found, the hits hold an indicator and the sentence
   contains a comparison marker, numeric directionality is derived from the
   numeric grammar's pair-pattern nodes, each node's chunks read once for its
   indicator and its numbers;
3. remaining indicator/direction words anywhere in the sentence contribute
   bare tags (spans consumed by an interaction are suppressed);
4. POS/NEG sentiment words are collected token-wise, independent of chunking.

Every token's surface is one word, lowercased once per sentence.  The lexicon
is read once per sentence into one list of hits by walking its word trie from
each token whose word starts an entry, with no n-gram lookup (see
``_lexicon_hits``).
Chunking yields a span table, each chunk's ``(label, start, end)`` in
pre-order, and builds no tree.  Both grammars' tables are read through
``pair_nodes``, one scan per table.  Passes 1 and 2 take the longest hit
inside a chunk's tokens (the hits that start in it, found by bisection);
passes 3 and 4 scan the list left to right, longest match first, without
overlaps.

This module gives the grammars' labels their meaning: NPJJ nodes hold pairs,
NP/NPP chunks are indicators, JJ/RB/VB chunks modifiers and CD chunks numbers.

Optional reversal post-processing flips the direction of interaction tags
whose indicator is on the reversal list (costs, expenses, ...).
"""
from __future__ import annotations

import functools
import re
from bisect import bisect_left
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

# ``chunk`` is the name the benchmark's tracer wraps; tagging reads only the span table
from .chunker import bundled_grammar, chunk_spans as chunk
from .lexicon import (
    DIRECTION_CATEGORIES,
    INDICATOR_CATEGORIES,
    SENTIMENT_CATEGORIES,
    LexCategory,
    Lexicon,
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
    "INDICATOR_LABELS",
    "MODIFIER_LABELS",
    "PairExtraction",
    "pair_nodes",
    "extract_pairs",
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


def flip_direction(tag: SemTag) -> SemTag:
    """UP <-> DOWN on interaction tags; other tags pass through unchanged."""
    return _FLIP.get(tag, tag)


def canonical_order(tags: Iterable[str]) -> List[str]:
    """Tags or their strings in declaration order (bare tags first, then interactions)."""
    return sorted(tags, key=_TAG_ORDER.__getitem__)


class TaggedSentence(NamedTuple):
    """The semantic tag set extracted from one sentence."""

    tags: frozenset


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
    return TaggedSentence(frozenset(t for t in tagged.tags if t in keep))


COMPARISON_MARKERS = ("down from", "up from", "compared to", "versus")

_NUMBER_RE = re.compile(r"[+-]?\d+(?:[.,]\d+)*")
# A comma before exactly three digits groups thousands; any other comma is a
# decimal point ("12,500" is 12500, "8,3" is 8.3).
_THOUSANDS_COMMA_RE = re.compile(r",(?=\d{3}(?!\d))")


class _Hit(NamedTuple):
    """A lexicon match inside the sentence: category, phrase, tokens [start, end)."""

    category: LexCategory
    phrase: str
    start: int
    end: int


def _lexicon_hits(lex: Lexicon, words: Sequence[str]) -> Tuple[_Hit, ...]:
    """Every lexicon phrase in the sentence of these lowercased surfaces, by start, longest first.

    Each surface is one word (``PosSentence`` holds no other), so an n-gram's
    normalized words are its ``words`` (lowercasing word by word is the same:
    a space ends the context of final sigma, the one contextual mapping).  It
    is an entry exactly when it spells a path of ``lex``'s word trie that ends
    on a phrase; only the starts whose word is in the trie's root are walked.
    """
    trie, n = lex._trie, len(words)
    hits: List[_Hit] = []
    for start in [start for start, word in enumerate(words) if word in trie]:
        mark, node, end = len(hits), trie[words[start]], start + 1
        while node is not None:
            if None in node:  # a longer phrase goes before the shorter ones of its start
                hits.insert(mark, _Hit(*node[None], start, end))
            node = node.get(words[end]) if end < n else None
            end += 1
    return tuple(hits)


def _scan(hits: Sequence[_Hit], categories) -> Iterator[_Hit]:
    """Longest-match, non-overlapping, left-to-right hits in the given categories."""
    free = 0
    for hit in hits:
        if hit.start >= free and hit.category in categories:
            free = hit.end
            yield hit


_HIT_START = attrgetter("start")


def _find_in_span(hits: Sequence[_Hit], start: int, end: int, categories) -> Optional[_Hit]:
    """Longest (then leftmost) hit inside tokens [start, end) in the given categories.

    ``hits`` is ordered by start, so the hits that start in the span are one
    slice of it, found by bisection.
    """
    lo = bisect_left(hits, start, key=_HIT_START)
    best = None
    for hit in hits[lo : bisect_left(hits, end, lo, key=_HIT_START)]:
        if hit.end <= end and hit.category in categories and (
            best is None or hit.end - hit.start > best.end - best.start
        ):
            best = hit
    return best


def _marker_in(words: Sequence[str]) -> Optional[str]:
    joined = " " + " ".join(words) + " "
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


PAIR_NODE_LABEL = "NPJJ"
INDICATOR_LABELS = frozenset({"NP", "NPP"})
MODIFIER_LABELS = frozenset({"JJ", "RB", "VB"})
NUMBER_LABEL = "CD"


class PairExtraction(NamedTuple):
    """Each pair-pattern node's (indicator chunks, modifier chunks), in pre-order."""

    nodes: tuple

    @property
    def pairs(self) -> tuple:
        """Candidate (indicator, modifier) chunk pairs: by node, indicator, then modifier."""
        return tuple(
            (ind, mod) for indicators, modifiers in self.nodes for ind in indicators for mod in modifiers
        )


def pair_nodes(table: Sequence[tuple]) -> List[Sequence[tuple]]:
    """The span-table entries inside each pair-pattern (NPJJ) entry, nodes and entries in pre-order.

    Spans are laminar and the table is in pre-order, so a node's descendants
    are the entries right after it that start before it ends.
    """
    nodes = []
    for k, (label, _, end) in enumerate(table):
        if label == PAIR_NODE_LABEL:
            j = k + 1
            while j < len(table) and table[j][1] < end:
                j += 1
            nodes.append(table[k + 1 : j])
    return nodes


def extract_pairs(table: Sequence[tuple]) -> PairExtraction:
    """Collect the indicator and modifier chunks of every pair-pattern node.

    For each node labelled NPJJ, every (NP-or-NPP, JJ/RB/VB) combination is a
    candidate pair, ordered by indicator position then modifier position.
    """
    nodes: List[tuple] = []
    for chunks in pair_nodes(table):
        indicators = tuple(span for span in chunks if span[0] in INDICATOR_LABELS)
        modifiers = tuple(span for span in chunks if span[0] in MODIFIER_LABELS)
        nodes.append((indicators, modifiers))
    return PairExtraction(tuple(nodes))


def _numeric_hit(
    table: Sequence[tuple], surfaces: Sequence[str], find: Callable[[int, int, frozenset], Optional[_Hit]],
    marker: Optional[str],
) -> Optional[Tuple[SemTag, _Hit]]:
    """Interaction tag of the first pair-pattern node with an indicator and two numbers.

    ``table`` is the numeric grammar's span table of the sentence with these
    ``surfaces``.  In each node, the first indicator chunk with a lexicon hit
    is the indicator; the first CD value is the current figure and the second
    the reference: higher means UP, lower DOWN, equal values produce nothing.  "down from"/"up from" markers state
    the direction outright.
    """
    for chunks in pair_nodes(table):
        indicator = None
        values: List[float] = []
        for label, start, end in chunks:
            if label in INDICATOR_LABELS:
                if indicator is None:
                    indicator = find(start, end, INDICATOR_CATEGORIES)
            elif label == NUMBER_LABEL:
                value = _parse_value(surfaces[start])
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


def _pair_hits(
    extraction: PairExtraction, find: Callable[[int, int, frozenset], Optional[_Hit]]
) -> List[Tuple[_Hit, _Hit]]:
    """(indicator hit, direction hit) of every pair that becomes an interaction.

    The pair grammar's nodes are disjoint (its one NPJJ rule's matches never
    overlap or hold an NPJJ chunk), so pairs taken greedily by node, indicator,
    then modifier, each chunk in at most one, pair each node's k-th indicator
    chunk with a hit with its k-th modifier chunk with one: a zip.
    """
    found: List[Tuple[_Hit, _Hit]] = []
    for indicators, modifiers in extraction.nodes:
        ind_hits = [hit for _, start, end in indicators
                    if (hit := find(start, end, INDICATOR_CATEGORIES)) is not None]
        if ind_hits:
            mod_hits = [hit for _, start, end in modifiers
                        if (hit := find(start, end, DIRECTION_CATEGORIES)) is not None]
            found += zip(ind_hits, mod_hits)
    return found


def tag_sentence(sentence: PosSentence, lex: Lexicon, *, reversal: bool = False) -> TaggedSentence:
    """Extract the semantic tag set of one sentence (see module docstring)."""
    surfaces = sentence.surfaces
    words = [surface.lower() for surface in surfaces]
    hits = _lexicon_hits(lex, words)
    find = functools.partial(_find_in_span, hits)
    categories = {hit.category for hit in hits}  # a pair takes both kinds from these hits, a number its indicator
    indicated = not categories.isdisjoint(INDICATOR_CATEGORIES)

    interactions: List[Tuple[SemTag, _Hit]] = []
    consumed: Set[int] = set()
    if indicated and not categories.isdisjoint(DIRECTION_CATEGORIES):
        extraction = extract_pairs(chunk(bundled_grammar("indicator_direction"), sentence))
        for ind_hit, mod_hit in _pair_hits(extraction, find):
            interactions.append((interaction_tag(ind_hit.category, mod_hit.category), ind_hit))
            consumed.update(range(ind_hit.start, ind_hit.end), range(mod_hit.start, mod_hit.end))

    if indicated and not interactions and (marker := _marker_in(words)):
        table = chunk(bundled_grammar("numeric_direction"), sentence)
        found = _numeric_hit(table, surfaces, find, marker)
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

    return TaggedSentence(frozenset(tags))
