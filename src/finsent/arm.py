"""Apriori frequent-itemset mining and class association rule generation.

Transactions are tag sets with a class label; the label joins the itemset as
a distinguished item during mining.  Itemsets are generated level-wise as in
Apriori and counted on vertical tidsets as in Eclat: one int per item whose
bit i marks row i, so a count is the popcount of an AND; the join keeps only
tidsets.  Cross-validation joins each population once, splits its itemsets
into antecedent and class once, and reads each fold's frequent itemsets
through a mask of its training rows (``mine_fold_rules``).  A rule ``X -> c``
has a single class item c as consequent and carries support (joint frequency
over all transactions, in percent) and confidence.  A RuleBase is totally
ordered: confidence desc, support desc, antecedent length desc, then
antecedent and consequent ascending as determinism tie-breaks.
"""
from __future__ import annotations

import math
from collections import defaultdict
from functools import cached_property
from itertools import accumulate, combinations, groupby
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import textfile
from .record import Record

__all__ = [
    "MiningError",
    "RuleBaseFormatError",
    "Transaction",
    "Rule",
    "RuleBase",
    "mine_frequent",
    "mine_rules",
    "mine_fold_rules",
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


class Transaction(NamedTuple):
    """One training example: a tag itemset plus its class label."""

    items: frozenset
    label: str

    @property
    def basket(self) -> frozenset:
        return self.items | {self.label}


class Rule(NamedTuple):
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


class RuleBase(Record):
    """An ordered rule list with the thresholds it was mined under."""

    _fields = ("rules", "minsup", "minconf")
    __slots__ = (*_fields, "__dict__")  # the dict holds only the cached index

    def __init__(self, rules: tuple, minsup: float = DEFAULT_MINSUP, minconf: float = DEFAULT_MINCONF) -> None:
        self._set(rules=rules, minsup=minsup, minconf=minconf)

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


def _join(transactions: Sequence[Transaction], n: float, minsup: float) -> Dict[Tuple[str, ...], int]:
    """The tidset of every itemset over the rows' baskets with support >= minsup
    percent of ``n`` rows, keyed by its sorted items.

    Level-wise Apriori counted on vertical tidsets, as in Eclat: bit i of an
    item's tidset int is set when row i's basket holds it, so a count is a
    popcount.  One pass over the rows sets row i's byte in the flags of each
    item it holds; each item's flags are then parsed as one base-2 int.  Two sorted
    (k-1)-tuples of a level that share their first k-2 items join into a
    size-k candidate whose tidset is the AND of theirs.  Apriori's subset
    prune is left out: a candidate with an infrequent subset fails the
    support test itself, and the AND and popcount cost less than the check.
    """
    n_rows = len(transactions)
    flags: Dict[str, bytearray] = defaultdict(lambda: bytearray(n_rows))
    for row, transaction in enumerate(transactions):
        for item in transaction.items:
            flags[item][row] = 1
        flags[transaction.label][row] = 1
    # int() reads the most significant digit first, so row 0's flag goes last
    tidsets = {item: int(bits[::-1].translate(_BINARY_DIGITS), 2) for item, bits in flags.items()}

    lattice: Dict[Tuple[str, ...], int] = {}
    level = {(item,): tidsets[item] for item in sorted(tidsets)
             if 100.0 * tidsets[item].bit_count() / n >= minsup}
    while level:
        lattice.update(level)
        next_level: Dict[Tuple[str, ...], int] = {}
        for _, joinable in groupby(level.items(), key=lambda entry: entry[0][:-1]):
            for (a, tids_a), (b, tids_b) in combinations(joinable, 2):
                tids = tids_a & tids_b
                if 100.0 * tids.bit_count() / n >= minsup:
                    next_level[a + b[-1:]] = tids
        level = next_level
    return lattice


def mine_frequent(transactions: Sequence[Transaction], minsup: float) -> Dict[FrozenSet[str], float]:
    """All itemsets over tags plus class items with support >= minsup percent."""
    if not transactions:
        raise MiningError("cannot mine an empty transaction list")
    _check_percent(minsup, "minsup")
    n = len(transactions)
    return {frozenset(items): 100.0 * tids.bit_count() / n for items, tids in _join(transactions, n, minsup).items()}


def _split(itemsets: Iterable[FrozenSet[str]], classes: FrozenSet[str]) -> List[Tuple[frozenset, frozenset, str]]:
    """``(itemset, antecedent, class)`` for each itemset that holds exactly one class item and some tag."""
    return [(itemset, itemset - class_items, next(iter(class_items))) for itemset in itemsets
            if len(class_items := itemset & classes) == 1 and len(itemset) > 1]


def _rules(entries: Sequence[tuple], supports: Dict[FrozenSet[str], float], minsup: float, minconf: float) -> RuleBase:
    """The rule base of the ``_split`` entries whose itemset has a support in ``supports``."""
    _check_percent(minconf, "minconf")
    rules: List[Rule] = []
    for itemset, antecedent, consequent in entries:
        if itemset in supports and (confidence := 100.0 * supports[itemset] / supports[antecedent]) >= minconf:
            rules.append(Rule(antecedent, consequent, supports[itemset], confidence))
    rules.sort(key=Rule.sort_key)
    return RuleBase(tuple(rules), minsup=minsup, minconf=minconf)


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
    classes = frozenset({t.label for t in transactions} if classes is None else classes)
    return _rules(_split(frequent, classes), frequent, minsup, minconf)


def mine_fold_rules(held_out: Sequence[Sequence[Transaction]], minsup: float, minconf: float,
                    classes: Iterable[str]) -> List[RuleBase]:
    """For each held-out row list, the rule base ``mine_rules`` gives on every other list's rows.

    All rows are joined once, at the fewest rows a fold trains on, n_min: an itemset frequent
    among n_f >= n_min rows is so among n_min at its whole count, and the lattice is split into
    ``_rules`` entries once.  A fold, whose mask leaves out its own rows' bits, keeps the itemsets
    of ``100.0 * (tids & mask).bit_count() / n_f >= minsup``, the float ``mine_frequent`` gives on
    its rows; with no rows, no rule.
    """
    _check_percent(minsup, "minsup")
    rows = [t for part in held_out for t in part]
    sizes = [len(rows) - len(part) for part in held_out]
    masks = [(1 << len(rows)) - 1 ^ (1 << end) - (1 << end - len(part))
             for part, end in zip(held_out, accumulate(map(len, held_out)))]
    # with no row under any mask, the join over infinitely many rows finds nothing frequent
    lattice = {frozenset(items): tids for items, tids in
               _join(rows, min(filter(None, sizes), default=math.inf), minsup).items()}
    entries = _split(lattice, frozenset(classes))
    return [_rules(entries, {itemset: support for itemset, tids in lattice.items()
                             if n and (support := 100.0 * (tids & mask).bit_count() / n) >= minsup},
                   minsup, minconf) for mask, n in zip(masks, sizes)]


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

