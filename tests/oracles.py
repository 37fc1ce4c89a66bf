"""Reference implementations the production code is checked against.

Frequent itemsets and class rules, independent of finsent.arm: supports are
found by checking every subset of the item universe against every
transaction, with no level-wise pruning.  Float formulas mirror the
production definitions (percent = 100*count/n, confidence = 100*sup/sup) so
results compare exactly.

Lexicon scans, independent of semtag's hit list: every candidate n-gram of
up to the longest entry's word count is looked up in the lexicon where the
scan reaches it.  A hit is the tuple (category, lowercased phrase, start, end)
of the tokens [start, end).

Pair-pattern nodes, independent of semtag's scan of the span table:
recursive generators find a tree's NPJJ nodes, then walk each node again for
its chunks.  ``span`` maps a chunk to its span-table entry for comparison.

Indicator/modifier pairing, independent of semtag's per-node loop: every
candidate pair is visited in order and resolved on its own.

Numeric directionality, independent of semtag's one walk per pair-pattern
node: each node is walked once for its first indicator with a hit, then again
for its CD values.

Number parsing, independent of semtag's regexes: the digit runs a surface
starts with are read one character at a time, and each comma is judged by
the length of the run after it.

End-to-end semantic tagging, independent of semtag and the chunker: the
reference chunker's trees (as Chunks over the sentence's own tokens), the
lookup scans, the generator pair walk with flat pairing and the two-walk
numeric path, assembled by the four passes of the semtag module docstring.

Rule scoring, independent of the rule base's antecedent index: every rule is
tested against the tag set, in rule-base order.

Tokenization, independent of pos_text's string strips: a unit's openers and
closers are peeled off one character at a time.

POS tagging, independent of pos_tags' one loop: each token is tagged by its
own call, one rule test after another, with the number test a function of its
own.

Training and prediction per arrangement, independent of classify's stage
table: one hand-written branch per arrangement, each naming its stages and
their classes itself.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
import warnings
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import reference_chunker as ref

from finsent.arm import DEFAULT_MINCONF, DEFAULT_MINSUP, MiningError, RuleBase, Transaction, mine_rules
from finsent.chunker import Chunk, bundled_grammar_source
from finsent.classify import (
    CLASSES,
    NEGATIVE,
    NEUTRAL,
    POLARIZED,
    POSITIVE,
    Arrangement,
    ClassifierModel,
    ClassScore,
    MatchPolicy,
    Scoring,
    score_tags,
)
from finsent.lexicon import DIRECTION_CATEGORIES, INDICATOR_CATEGORIES, SENTIMENT_CATEGORIES, LexCategory
from finsent.pos_text import _CLOSED_VOCAB, _CLOSERS, _OPENERS, _PUNCT_TAGS
from finsent.semtag import (
    COMPARISON_MARKERS, INDICATOR_LABELS, MODIFIER_LABELS, PAIR_NODE_LABEL, SemTag, _Hit, _parse_value,
    flip_direction, interaction_tag,
)


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


def _longest_entry(lex) -> int:
    """Word count of the lexicon's longest entry: no longer n-gram can be one."""
    return max((len(phrase.split()) for phrase in lex.entries), default=1)


def lookup_scan(lex, surfaces: Sequence[str], categories) -> Iterator[tuple]:
    """Longest-match, non-overlapping, left-to-right lexicon scan."""
    i, n = 0, len(surfaces)
    max_len = _longest_entry(lex)
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
    for n in range(min(length, _longest_entry(lex)), 0, -1):
        for off in range(0, length - n + 1):
            first = start + off
            phrase = surfaces[first : first + n]
            category = lex.lookup(phrase)
            if category is not None and category in categories:
                return (category, " ".join(phrase).lower(), first, first + n)
    return None


def lookup_hits(lex, surfaces: Sequence[str]) -> list:
    """Every n-gram of up to the longest phrase's length that is an entry, by start, longest first."""
    n, max_len = len(surfaces), _longest_entry(lex)
    hits = []
    for start in range(n):
        for end in range(min(n, start + max_len), start, -1):
            category = lex.lookup(surfaces[start:end])
            if category is not None:
                hits.append((category, " ".join(surfaces[start:end]).lower(), start, end))
    return hits


def flat_pair_hits(pairs, find, indicator_categories, direction_categories) -> list:
    """(indicator hit, direction hit) of each (indicator, modifier) pair of
    ``(label, start, end)`` spans that becomes an interaction: taken greedily in
    order, each span in at most one."""
    used_spans = set()
    found = []
    for ind_span, mod_span in pairs:
        if ind_span in used_spans or mod_span in used_spans:
            continue
        _, start, end = ind_span
        ind_hit = find(start, end, indicator_categories)
        if ind_hit is None:
            continue
        _, start, end = mod_span
        mod_hit = find(start, end, direction_categories)
        if mod_hit is None:
            continue
        found.append((ind_hit, mod_hit))
        used_spans.add(ind_span)
        used_spans.add(mod_span)
    return found


def span(node: Chunk) -> tuple:
    """A chunk's span-table entry."""
    return node.label, node.start, node.end


def subchunks(node) -> Iterator[Chunk]:
    """All descendant chunks of a node, pre-order."""
    for child in node.children:
        if isinstance(child, Chunk):
            yield child
            yield from subchunks(child)


def _npjj_nodes(tree) -> list:
    """The tree's pair-pattern nodes, the root included, in pre-order."""
    return [node for node in (tree, *subchunks(tree)) if node.label == PAIR_NODE_LABEL]


def _first_surface(node) -> str:
    while isinstance(node, Chunk):
        node = node.children[0]
    return node.surface


def generator_pair_nodes(tree) -> list:
    """The chunks inside each pair-pattern node, nodes and chunks in pre-order."""
    return [list(subchunks(node)) for node in _npjj_nodes(tree)]


def generator_pairs(tree) -> tuple:
    """Candidate (indicator, modifier) chunk pairs: by node, indicator, then modifier."""
    return tuple(
        (ind, mod)
        for node in _npjj_nodes(tree)
        for ind in subchunks(node) if ind.label in INDICATOR_LABELS
        for mod in subchunks(node) if mod.label in MODIFIER_LABELS
    )


def two_walk_numeric_hit(tree, find, marker):
    """(interaction tag, indicator hit) of the first pair-pattern node with an
    indicator hit and two CD values that differ or a "down from"/"up from"
    marker; None if no node has them."""
    for node in _npjj_nodes(tree):
        indicator = None
        for sub in subchunks(node):
            if sub.label in INDICATOR_LABELS:
                indicator = find(sub.start, sub.end, INDICATOR_CATEGORIES)
                if indicator is not None:
                    break
        if indicator is None:
            continue
        values = []
        for sub in subchunks(node):
            if sub.label == "CD":
                value = _parse_value(_first_surface(sub))
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


@lru_cache(maxsize=None)
def _reference_rules(grammar_name: str) -> list:
    return ref.parse_grammar(bundled_grammar_source(grammar_name))


def reference_tree(grammar, sentence) -> Chunk:
    """The reference chunker's tree of a sentence, as Chunks over its own tokens;
    ``grammar`` is a bundled grammar's name or a sequence of rules, read as their source."""
    if isinstance(grammar, str):
        rules = _reference_rules(grammar)
    else:
        rules = ref.parse_grammar("\n".join(f"{rule.label}: {{{rule.pattern}}}" for rule in grammar))
    tokens = sentence.tokens
    tree = ref.chunk_sentence(rules, [(t.surface, t.pos) for t in tokens])
    at = 0

    def convert(node):
        nonlocal at
        if node[0] == "leaf":
            at += 1
            return tokens[at - 1]
        start = at
        children = tuple(convert(child) for child in node[2])
        return Chunk(node[1], children, start, at)

    return convert(tree)


def _first_marker(surfaces: Sequence[str]) -> Optional[str]:
    """The first comparison marker, in COMPARISON_MARKERS order, whose words are consecutive tokens."""
    words = [s.lower() for s in surfaces]
    for marker in COMPARISON_MARKERS:
        parts = marker.split()
        if any(words[i : i + len(parts)] == parts for i in range(len(words))):
            return marker
    return None


def reference_tag(sentence, lex, reversal: bool = False) -> FrozenSet[SemTag]:
    """The semantic tag set of one sentence."""
    surfaces = [t.surface for t in sentence.tokens]

    @lru_cache(maxsize=None)  # the pairing asks for each chunk's hit once per pair it is in
    def find(start, end, categories):
        hit = lookup_find_in_span(lex, surfaces, start, end, categories)
        return None if hit is None else _Hit(*hit)

    pairs = [(span(ind), span(mod)) for ind, mod in generator_pairs(reference_tree("indicator_direction", sentence))]
    interactions = []
    consumed: Set[int] = set()
    for ind_hit, mod_hit in flat_pair_hits(pairs, find, INDICATOR_CATEGORIES, DIRECTION_CATEGORIES):
        interactions.append((interaction_tag(ind_hit.category, mod_hit.category), ind_hit))
        consumed.update(range(ind_hit.start, ind_hit.end), range(mod_hit.start, mod_hit.end))
    marker = _first_marker(surfaces)
    if not interactions and marker is not None:
        found = two_walk_numeric_hit(reference_tree("numeric_direction", sentence), find, marker)
        if found is not None:
            interactions.append(found)
            consumed.update(range(found[1].start, found[1].end))

    tags = set()
    for category, _, start, end in lookup_scan(lex, surfaces, INDICATOR_CATEGORIES | DIRECTION_CATEGORIES):
        if consumed.isdisjoint(range(start, end)):
            tags.add(SemTag(category.value))
    for category, _, _, _ in lookup_scan(lex, surfaces, SENTIMENT_CATEGORIES):
        tags.add(SemTag(category.value))
    for tag, ind_hit in interactions:
        tags.add(flip_direction(tag) if reversal and lex.is_reversal(ind_hit.phrase) else tag)
    return frozenset(tags)


def walk_parse_value(surface: str) -> Optional[float]:
    """The number a surface starts with: an optional sign, then digit runs joined
    by single '.' or ',' separators.  A comma before a run of exactly three
    digits groups thousands; any other comma, like every '.', is a decimal
    point.  None without a leading number, or with two decimal points."""
    sign = surface[:1] if surface[:1] in ("+", "-") else ""
    i = len(sign)
    runs: List[str] = []
    separators: List[str] = []
    while True:
        start = i
        while i < len(surface) and surface[i].isdecimal():
            i += 1
        if i == start:  # a separator not followed by a digit ends the number before it
            if separators:
                separators.pop()
            break
        runs.append(surface[start:i])
        if i < len(surface) and surface[i] in ".,":
            separators.append(surface[i])
            i += 1
        else:
            break
    if not runs:
        return None
    number = sign + runs[0]
    decimal_points = 0
    for separator, run in zip(separators, runs[1:]):
        if not (separator == "," and len(run) == 3):
            number += "."
            decimal_points += 1
        number += run
    return float(number) if decimal_points <= 1 else None


def loop_split_unit(unit: str) -> List[str]:
    """Openers, the word (possessive 's split off) and closers of one unit."""
    lead: List[str] = []
    while len(unit) > 1 and unit[0] in _OPENERS:
        lead.append(unit[0])
        unit = unit[1:]
    trail: List[str] = []
    while len(unit) > 1 and unit[-1] in _CLOSERS:
        trail.append(unit[-1])
        unit = unit[:-1]
    core = [unit]
    if len(unit) > 2 and unit[-2:].lower() in ("'s", "’s"):
        core = [unit[:-2], unit[-2:]]
    return lead + core + list(reversed(trail))


def _is_number(tok: str) -> bool:
    if tok[0].isdigit():
        return True
    return len(tok) > 1 and tok[0] in "+-" and tok[1].isdigit()


def _tag_one(tok: str, i: int, tags: List[str]) -> str:
    if tok in _PUNCT_TAGS:
        return _PUNCT_TAGS[tok]
    if tok in ("'s", "’s"):
        return "POS"
    if _is_number(tok):
        return "CD"
    lower = tok.lower()
    if lower in _CLOSED_VOCAB:
        return _CLOSED_VOCAB[lower]
    if i > 0 and tok[0].isupper():
        return "NNP"
    if tags and tags[-1] in ("TO", "MD") and tok.isalpha():
        return "VB"
    if lower.endswith("ly"):
        return "RB"
    if lower.endswith("ing") and len(lower) > 4:
        return "VBG"
    if lower.endswith("ed") and len(lower) > 3:
        return "VBD"
    if lower.endswith("s") and not lower.endswith(("ss", "us", "is")) and len(lower) > 2:
        return "NNS"
    return "NN"


def rule_chain_pos_tags(tokens: Sequence[str]) -> List[str]:
    """POS tags of the tokens, each from the first rule of the chain that applies to it."""
    tags: List[str] = []
    for i, tok in enumerate(tokens):
        tags.append(_tag_one(tok, i, tags))
    return tags


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


_TIE_RANK = {cls: i for i, cls in enumerate((NEUTRAL, NEGATIVE, POSITIVE, POLARIZED))}


def _pick(score: ClassScore, scoring: Scoring) -> Optional[str]:
    if not score.sums:
        return None

    def value(cls: str) -> float:
        if scoring is Scoring.SUM:
            return score.sums[cls]
        return score.sums[cls] / score.counts[cls]

    def key(cls: str) -> tuple:
        return (-value(cls), _TIE_RANK.get(cls, len(_TIE_RANK)), cls)

    return min(score.sums, key=key)


def branch_predict_flat(
    tags: FrozenSet[str],
    rb: RuleBase,
    default: str = NEUTRAL,
    match_policy: MatchPolicy = MatchPolicy.EXACT,
    scoring: Scoring = Scoring.AVERAGE,
) -> str:
    """Predict a class for one tag set against one rule base."""
    winner = _pick(score_tags(tags, rb, match_policy), Scoring(scoring))
    return winner if winner is not None else default


_PAIRS = ((POSITIVE, NEUTRAL), (POSITIVE, NEGATIVE), (NEUTRAL, NEGATIVE))


def _pair_stage(a: str, b: str) -> str:
    return "-".join(sorted((a, b)))


def _warn_missing_classes(transactions: Sequence[Transaction], expected: Iterable[str]) -> None:
    present = {t.label for t in transactions}
    for cls in expected:
        if cls not in present:
            warnings.warn(
                f"class {cls!r} absent from training data; it cannot be predicted",
                stacklevel=3,
            )


def _mine_or_empty(
    transactions: Sequence[Transaction], minsup: float, minconf: float, classes
) -> RuleBase:
    if not transactions:
        return RuleBase((), minsup=minsup, minconf=minconf)
    return mine_rules(transactions, minsup, minconf, classes=classes)


def branch_train(
    transactions: Sequence[Transaction],
    arrangement: Arrangement = Arrangement.HSC,
    minsup: float = DEFAULT_MINSUP,
    minconf: float = DEFAULT_MINCONF,
    match_policy: MatchPolicy = MatchPolicy.EXACT,
    scoring: Scoring = Scoring.AVERAGE,
    stage2_default: str = NEGATIVE,
) -> ClassifierModel:
    """Mine the stage rule bases for the chosen arrangement."""
    if not transactions:
        raise MiningError("cannot train on an empty transaction list")
    arrangement = Arrangement(arrangement)
    _warn_missing_classes(transactions, CLASSES)
    stages: Dict[str, RuleBase] = {}

    if arrangement is Arrangement.HSC:
        gate_transactions = [
            Transaction(t.items, NEUTRAL if t.label == NEUTRAL else POLARIZED)
            for t in transactions
        ]
        stages["gate"] = _mine_or_empty(gate_transactions, minsup, minconf, classes={POLARIZED, NEUTRAL})
        polarized = [t for t in transactions if t.label in (POSITIVE, NEGATIVE)]
        stages["polarity"] = _mine_or_empty(polarized, minsup, minconf, classes={POSITIVE, NEGATIVE})
    elif arrangement is Arrangement.MULTICLASS:
        stages["multiclass"] = _mine_or_empty(transactions, minsup, minconf, classes=set(CLASSES))
    else:
        for a, b in _PAIRS:
            subset = [t for t in transactions if t.label in (a, b)]
            stages[_pair_stage(a, b)] = _mine_or_empty(subset, minsup, minconf, classes={a, b})

    return ClassifierModel(
        arrangement=arrangement,
        stages=stages,
        stage2_default=stage2_default,
        match_policy=MatchPolicy(match_policy),
        scoring=Scoring(scoring),
    )


def branch_predict(model: ClassifierModel, tags: FrozenSet[str]) -> str:
    """Predict positive / neutral / negative for one tag set."""
    tags = frozenset(tags)
    kwargs = dict(match_policy=model.match_policy, scoring=model.scoring)

    if model.arrangement is Arrangement.HSC:
        gate = branch_predict_flat(tags, model.stages["gate"], default=NEUTRAL, **kwargs)
        if gate != POLARIZED:
            return gate
        return branch_predict_flat(
            tags, model.stages["polarity"], default=model.stage2_default, **kwargs
        )

    if model.arrangement is Arrangement.MULTICLASS:
        return branch_predict_flat(tags, model.stages["multiclass"], default=NEUTRAL, **kwargs)

    votes: Dict[str, int] = {}
    for a, b in _PAIRS:
        default = NEUTRAL if NEUTRAL in (a, b) else NEGATIVE
        vote = branch_predict_flat(tags, model.stages[_pair_stage(a, b)], default=default, **kwargs)
        votes[vote] = votes.get(vote, 0) + 1
    return min(votes, key=lambda cls: (-votes[cls], _TIE_RANK.get(cls, len(_TIE_RANK))))
