"""Reference implementations the production code is checked against.

Frequent itemsets and class rules, independent of finsent.arm: supports are
found by checking every subset of the item universe against every
transaction, with no level-wise pruning.  Float formulas mirror the
production definitions (percent = 100*count/n, confidence = 100*sup/sup) so
results compare exactly.

Lexicon scans, independent of semtag's hit list: every candidate n-gram is
looked up in the lexicon where the scan reaches it.  A hit is the tuple
(category, lowercased phrase, start, end) of the tokens [start, end).

Indicator/modifier pairing, independent of semtag's per-node loop: every
candidate pair is visited in order and resolved on its own.

Numeric directionality, independent of semtag's one walk per pair-pattern
node: each node is walked once for its first indicator with a hit, then again
for its CD values.

Rule scoring, independent of the rule base's antecedent index: every rule is
tested against the tag set, in rule-base order.
"""
from __future__ import annotations

from itertools import chain, combinations
from typing import Dict, FrozenSet, Iterator, Optional, Sequence, Set, Tuple

from finsent.arm import RuleBase
from finsent.chunker import INDICATOR_LABELS, pair_nodes
from finsent.classify import ClassScore, MatchPolicy
from finsent.lexicon import INDICATOR_CATEGORIES, LexCategory
from finsent.semtag import _parse_value, interaction_tag


def brute_force_frequent(
    baskets: Sequence[FrozenSet[str]], minsup: float
) -> Dict[FrozenSet[str], float]:
    """Support of every non-empty itemset with support >= minsup percent."""
    universe = sorted(set(chain.from_iterable(baskets)))
    n = len(baskets)
    out: Dict[FrozenSet[str], float] = {}
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            itemset = frozenset(combo)
            count = sum(1 for basket in baskets if itemset <= basket)
            support = 100.0 * count / n
            if support >= minsup:
                out[itemset] = support
    return out


def brute_force_rules(
    baskets: Sequence[FrozenSet[str]],
    minsup: float,
    minconf: float,
    classes: Set[str],
) -> Set[Tuple[FrozenSet[str], str, float, float]]:
    """Every rule (antecedent, class, support, confidence) meeting thresholds."""
    frequent = brute_force_frequent(baskets, minsup)
    rules = set()
    for itemset, support in frequent.items():
        class_items = itemset & classes
        if len(class_items) != 1 or len(itemset) < 2:
            continue
        consequent = next(iter(class_items))
        antecedent = itemset - class_items
        confidence = 100.0 * support / frequent[antecedent]
        if confidence >= minconf:
            rules.add((antecedent, consequent, support, confidence))
    return rules


def lookup_scan(lex, surfaces: Sequence[str], categories) -> Iterator[tuple]:
    """Longest-match, non-overlapping, left-to-right lexicon scan."""
    i, n = 0, len(surfaces)
    max_len = lex.max_phrase_len
    while i < n:
        for length in range(min(max_len, n - i), 0, -1):
            phrase = surfaces[i : i + length]
            category = lex.lookup(phrase)
            if category is not None and category in categories:
                yield (category, " ".join(phrase).lower(), i, i + length)
                i += length
                break
        else:
            i += 1


def lookup_find_in_span(lex, surfaces: Sequence[str], start: int, end: int, categories) -> Optional[tuple]:
    """Longest (then leftmost) sub-phrase of tokens [start, end) in the given categories."""
    length = end - start
    for n in range(min(length, lex.max_phrase_len), 0, -1):
        for off in range(0, length - n + 1):
            first = start + off
            phrase = surfaces[first : first + n]
            category = lex.lookup(phrase)
            if category is not None and category in categories:
                return (category, " ".join(phrase).lower(), first, first + n)
    return None


def lookup_hits(lex, surfaces: Sequence[str]) -> list:
    """Every n-gram of up to the longest phrase's length that is an entry, by start, longest first."""
    n = len(surfaces)
    hits = []
    for start in range(n):
        for end in range(min(n, start + lex.max_phrase_len), start, -1):
            category = lex.lookup(surfaces[start:end])
            if category is not None:
                hits.append((category, " ".join(surfaces[start:end]).lower(), start, end))
    return hits


def flat_pair_hits(pairs, find, indicator_categories, direction_categories) -> list:
    """(indicator hit, direction hit) of each (indicator, modifier) span pair that
    becomes an interaction: taken greedily in order, each span in at most one."""
    used_spans = set()
    found = []
    for ind_span, mod_span in pairs:
        if ind_span in used_spans or mod_span in used_spans:
            continue
        ind_hit = find(ind_span.start, ind_span.end, indicator_categories)
        if ind_hit is None:
            continue
        mod_hit = find(mod_span.start, mod_span.end, direction_categories)
        if mod_hit is None:
            continue
        found.append((ind_hit, mod_hit))
        used_spans.add(ind_span)
        used_spans.add(mod_span)
    return found


def two_walk_numeric_hit(tree, find, marker):
    """(interaction tag, indicator hit) of the first pair-pattern node with an
    indicator hit and two CD values that differ or a "down from"/"up from"
    marker; None if no node has them."""
    for node in pair_nodes(tree):
        indicator = None
        for sub in node.subchunks():
            if sub.label in INDICATOR_LABELS:
                indicator = find(sub.start, sub.end, INDICATOR_CATEGORIES)
                if indicator is not None:
                    break
        if indicator is None:
            continue
        values = []
        for sub in node.subchunks():
            if sub.label == "CD":
                value = _parse_value(sub.surfaces()[0])
                if value is not None:
                    values.append(value)
        if len(values) < 2:
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


def scan_score_tags(
    tags: FrozenSet[str],
    rb: RuleBase,
    match_policy: MatchPolicy = MatchPolicy.EXACT,
) -> ClassScore:
    """Accumulate rule confidences per class for one tag set, testing every rule."""
    tags = frozenset(tags)
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for rule in rb.rules:
        if match_policy is MatchPolicy.SUBSET:
            matched = rule.antecedent <= tags
        else:
            # the whole tag set, or a one-tag antecedent that is one of the tags
            matched = rule.antecedent == tags or (len(rule.antecedent) == 1 and rule.antecedent <= tags)
        if matched:
            sums[rule.consequent] = sums.get(rule.consequent, 0.0) + rule.confidence
            counts[rule.consequent] = counts.get(rule.consequent, 0) + 1
    return ClassScore(sums, counts)
