"""Apriori frequent-itemset mining and class association rule generation.

Transactions are tag sets with a class label; the label joins the itemset as
a distinguished item during mining.  Itemsets are generated level-wise as in
Apriori and counted on vertical tidsets as in Eclat: one int per item whose
bit i marks row i, so a count is the popcount of an AND.  The ints are built
from one flag byte per (item, row), filled in a single pass over the rows and
converted with one base-2 parse per item.  Rules have the form
``antecedent -> c`` where the consequent is a single class item, qualified by
support (joint frequency over all transactions, in percent) and confidence.
A RuleBase is totally ordered: confidence desc, support desc, antecedent
length desc, then antecedent and consequent ascending as determinism
tie-breaks.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, groupby
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import textfile

__all__ = [
    "MiningError",
    "RuleBaseFormatError",
    "Transaction",
    "Rule",
    "RuleBase",
    "mine_frequent",
    "mine_rules",
    "serialize_rulebase",
    "parse_rulebase",
    "dump_transactions",
]

DEFAULT_MINSUP = 0.5
DEFAULT_MINCONF = 60.0

_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# 100 * sup / sup can round one ulp above 100 (11 of 12 rows: 100.00000000000001)
_MAX_CONFIDENCE = math.nextafter(100.0, math.inf)


class MiningError(ValueError):
    """Raised for invalid mining inputs (empty data, bad thresholds)."""


class RuleBaseFormatError(ValueError):
    """Raised when a serialized rulebase cannot be parsed."""


@dataclass(frozen=True)
class Transaction:
    """One training example: a tag itemset plus its class label."""

    items: frozenset
    label: str

    @property
    def basket(self) -> frozenset:
        return self.items | {self.label}


@dataclass(frozen=True)
class Rule:
    """Class association rule ``antecedent -> consequent`` with percent stats."""

    antecedent: frozenset
    consequent: str
    support: float
    confidence: float

    def sort_key(self) -> tuple:
        return (
            -self.confidence,
            -self.support,
            -len(self.antecedent),
            tuple(sorted(self.antecedent)),
            self.consequent,
        )


@dataclass(frozen=True)
class RuleBase:
    """An ordered rule list with the thresholds it was mined under."""

    rules: tuple
    minsup: float = DEFAULT_MINSUP
    minconf: float = DEFAULT_MINCONF

    def __len__(self) -> int:
        return len(self.rules)

    @cached_property
    def index(self) -> Dict[FrozenSet[str], Tuple[int, ...]]:
        """Each antecedent's rule positions, ascending; built on first use."""
        positions: Dict[FrozenSet[str], List[int]] = defaultdict(list)
        for position, rule in enumerate(self.rules):
            positions[rule.antecedent].append(position)
        return {antecedent: tuple(found) for antecedent, found in positions.items()}


def _check_percent(value: float, name: str) -> None:
    if not (0.0 < value <= 100.0):
        raise MiningError(f"{name} must be in (0, 100], got {value}")


def mine_frequent(
    transactions: Sequence[Transaction], minsup: float
) -> Dict[FrozenSet[str], float]:
    """All itemsets over tags plus class items with support >= minsup percent.

    Level-wise Apriori counted on vertical tidsets, as in Eclat: an item's
    tidset is one int with bit i set when row i's basket holds the item, and
    an itemset's count is the popcount of its tidset.  One pass over the rows
    sets byte ``row`` of each of its items' ``bytearray(n)`` flags to 1; each
    item's flags, mapped to the digits "0"/"1", are then parsed as one base-2
    int, so no n-bit int is rebuilt per row.  Each level maps sorted item
    tuples, in sorted order, to their tidsets.  Two (k-1)-tuples that share
    their first k-2 items join into a size-k candidate whose tidset is the
    AND of the two joined tidsets.  Apriori's (k-1)-subset prune is left out:
    support is monotone, so a candidate with an infrequent subset fails the
    support test itself, and the AND and popcount cost less than the check.
    """
    if not transactions:
        raise MiningError("cannot mine an empty transaction list")
    _check_percent(minsup, "minsup")
    n = len(transactions)
    flags: Dict[str, bytearray] = defaultdict(lambda: bytearray(n))
    for row, transaction in enumerate(transactions):
        for item in transaction.items:
            flags[item][row] = 1
        flags[transaction.label][row] = 1
    # int() reads the most significant digit first, so row 0's flag goes last
    tidsets = {item: int(bits[::-1].translate(_BINARY_DIGITS), 2) for item, bits in flags.items()}

    frequent: Dict[FrozenSet[str], float] = {}
    level: Dict[Tuple[str, ...], int] = {}
    for item in sorted(tidsets):
        support = 100.0 * tidsets[item].bit_count() / n
        if support >= minsup:
            frequent[frozenset((item,))] = support
            level[(item,)] = tidsets[item]
    while level:
        next_level: Dict[Tuple[str, ...], int] = {}
        for _, joinable in groupby(level.items(), key=lambda entry: entry[0][:-1]):
            for (a, tids_a), (b, tids_b) in combinations(joinable, 2):
                candidate = a + b[-1:]
                tids = tids_a & tids_b
                support = 100.0 * tids.bit_count() / n
                if support >= minsup:
                    frequent[frozenset(candidate)] = support
                    next_level[candidate] = tids
        level = next_level
    return frequent


def mine_rules(
    transactions: Sequence[Transaction],
    minsup: float = DEFAULT_MINSUP,
    minconf: float = DEFAULT_MINCONF,
    classes: Optional[Iterable[str]] = None,
) -> RuleBase:
    """Rules ``X -> c`` from the frequent itemsets holding exactly one class item.

    ``classes`` defaults to the transactions' labels.  Confidence is
    support(X u {c}) / support(X); antecedents are non-empty.
    """
    frequent = mine_frequent(transactions, minsup)
    _check_percent(minconf, "minconf")
    class_set = frozenset({t.label for t in transactions} if classes is None else classes)
    rules: List[Rule] = []
    for itemset, sup in frequent.items():
        class_items = itemset & class_set
        if len(class_items) != 1 or len(itemset) < 2:
            continue
        consequent = next(iter(class_items))
        antecedent = itemset - class_items
        confidence = 100.0 * sup / frequent[antecedent]
        if confidence >= minconf:
            rules.append(Rule(antecedent, consequent, sup, confidence))
    rules.sort(key=Rule.sort_key)
    return RuleBase(tuple(rules), minsup=minsup, minconf=minconf)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _unwritable(text: str, forbidden: Sequence[str] = ()) -> bool:
    """True if ``text`` would not read back unchanged as one field of a rules-file line."""
    return text != text.strip() or "".join(text.splitlines()) != text or any(s in text for s in forbidden)


def serialize_rulebase(rb: RuleBase) -> str:
    """Text form: '# minsup=' and '# minconf=' headers, then 'a,b -> c<TAB>sup<TAB>conf' lines.

    Raises RuleBaseFormatError for a rule base parse_rulebase could not read
    back: an empty antecedent; a tag or class that is empty, has surrounding
    whitespace, or holds a line break or a separator; a tag that starts with
    '#'; a threshold, support or confidence outside the range parse_rulebase
    accepts.
    """
    if not (0.0 < rb.minsup <= 100.0 and 0.0 < rb.minconf <= 100.0):
        raise RuleBaseFormatError(f"minsup {rb.minsup!r} or minconf {rb.minconf!r} is not in (0, 100]")
    lines = [f"# minsup={rb.minsup!r}", f"# minconf={rb.minconf!r}"]
    for rule in rb.rules:
        if not rule.antecedent:
            raise RuleBaseFormatError(f"rule -> {rule.consequent!r} has an empty antecedent")
        if not (0.0 < rule.support <= 100.0 and 0.0 < rule.confidence <= _MAX_CONFIDENCE):
            raise RuleBaseFormatError(f"{rule!r}: support or confidence is not in (0, 100]")
        for tag in rule.antecedent:
            # a tag ending in " ->" would end the antecedent early
            if not tag or tag.startswith("#") or " -> " in tag + " " or _unwritable(tag, (",", "\t")):
                raise RuleBaseFormatError(f"antecedent tag {tag!r} cannot be written to a rules file")
        if not rule.consequent or _unwritable(rule.consequent, ("\t",)):
            raise RuleBaseFormatError(f"consequent {rule.consequent!r} cannot be written to a rules file")
        antecedent = ",".join(sorted(rule.antecedent))
        lines.append(f"{antecedent} -> {rule.consequent}\t{rule.support!r}\t{rule.confidence!r}")
    return "\n".join(lines) + "\n"


def _percent_field(text: str, name: str, upper: float = 100.0) -> float:
    value = float(text)
    if not 0.0 < value <= upper:
        raise ValueError(f"{name} {value!r} is not in (0, 100]")
    return value


def parse_rulebase(text: str) -> RuleBase:
    """Inverse of serialize_rulebase; raises RuleBaseFormatError with line numbers.

    The minsup/minconf headers and each rule's support and confidence must be
    numbers in (0, 100]; a confidence may read one ulp above 100, as
    ``mine_rules`` can compute it.  Any other line starting with '#',
    such as an older file's ``# stage=gate``, is a comment.
    """
    thresholds = {"minsup": DEFAULT_MINSUP, "minconf": DEFAULT_MINCONF}
    rules: List[Rule] = []
    for lineno, raw in textfile.lines(text):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                key, eq, value = (part.strip() for part in line[1:].partition("="))
                if eq and key in thresholds:
                    thresholds[key] = _percent_field(value, key)
                continue
            head, sup_s, conf_s = line.split("\t")
            antecedent_s, _, consequent = head.partition(" -> ")
            if not _ or not consequent or not antecedent_s:
                raise ValueError("missing ' -> '")
            antecedent = frozenset(p.strip() for p in antecedent_s.split(",") if p.strip())
            if not antecedent:
                raise ValueError("empty antecedent")
            support = _percent_field(sup_s, "support")
            confidence = _percent_field(conf_s, "confidence", _MAX_CONFIDENCE)
            rules.append(Rule(antecedent, consequent.strip(), support, confidence))
        except ValueError as exc:
            raise RuleBaseFormatError(f"line {lineno}: cannot parse {raw!r}: {exc}") from None
    rules.sort(key=Rule.sort_key)
    return RuleBase(tuple(rules), **thresholds)


def dump_transactions(transactions: Sequence[Transaction]) -> str:
    """Debug dump, one 'item, item, label' line per transaction."""
    lines = [", ".join([*sorted(t.items), t.label]) for t in transactions]
    return "\n".join(lines) + "\n"

