import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_frequent, brute_force_rules
from sample_data import KNOWN_RULES, KNOWN_RULES_TEXT, SAMPLE_TRANSACTIONS
from finsent.arm import (
    MiningError,
    Rule,
    RuleBase,
    RuleBaseFormatError,
    Transaction,
    dump_transactions,
    mine_frequent,
    mine_rules,
    parse_rulebase,
    parse_transactions,
    serialize_rulebase,
)

CLASSES = {"positive", "neutral", "negative"}


def rule_tuples(rb):
    return {(r.antecedent, r.consequent, r.support, r.confidence) for r in rb.rules}


# ---------------------------------------------------------------------------
# frequent itemsets
# ---------------------------------------------------------------------------


def test_sample_database_supports():
    frequent = mine_frequent(SAMPLE_TRANSACTIONS, minsup=16.0)
    assert frequent[frozenset({"LagInd"})] == pytest.approx(33.33, abs=0.01)
    assert frequent[frozenset({"POS"})] == pytest.approx(33.33, abs=0.01)
    assert frequent[frozenset({"UP", "POS"})] == pytest.approx(16.67, abs=0.01)
    assert frequent[frozenset({"LagInd::DOWN"})] == pytest.approx(16.67, abs=0.01)


def test_minsup_hundred_keeps_universal_itemsets_only():
    t = Transaction
    transactions = [
        t(frozenset({"A", "B"}), "neutral"),
        t(frozenset({"A"}), "neutral"),
    ]
    frequent = mine_frequent(transactions, minsup=100.0)
    assert set(frequent) == {
        frozenset({"A"}),
        frozenset({"neutral"}),
        frozenset({"A", "neutral"}),
    }


def test_empty_transactions_is_error():
    with pytest.raises(MiningError, match="empty"):
        mine_frequent([], minsup=10.0)


def test_bad_minsup_is_error():
    with pytest.raises(MiningError):
        mine_frequent(SAMPLE_TRANSACTIONS, minsup=0.0)
    with pytest.raises(MiningError):
        mine_frequent(SAMPLE_TRANSACTIONS, minsup=101.0)


def test_downward_closure_on_sample():
    frequent = mine_frequent(SAMPLE_TRANSACTIONS, minsup=16.0)
    for itemset, sup in frequent.items():
        for item in itemset:
            subset = itemset - {item}
            if subset:
                assert subset in frequent
                assert frequent[subset] >= sup


# ---------------------------------------------------------------------------
# rule generation
# ---------------------------------------------------------------------------


def test_sample_database_contains_the_seven_known_rules():
    rb = mine_rules(SAMPLE_TRANSACTIONS, minsup=16.0, minconf=60.0)
    mined = {(r.antecedent, r.consequent): r for r in rb.rules}
    for antecedent, consequent, support, confidence in KNOWN_RULES:
        rule = mined[(antecedent, consequent)]
        assert rule.support == pytest.approx(support, abs=0.01)
        assert rule.confidence == pytest.approx(confidence, abs=0.01)


def test_sample_database_matches_bruteforce_exactly():
    rb = mine_rules(SAMPLE_TRANSACTIONS, minsup=16.0, minconf=60.0)
    baskets = [t.basket for t in SAMPLE_TRANSACTIONS]
    assert rule_tuples(rb) == brute_force_rules(baskets, 16.0, 60.0, CLASSES)


def test_full_confidence_boundary():
    rb = mine_rules(SAMPLE_TRANSACTIONS, minsup=16.0, minconf=100.0)
    assert rb.rules
    assert all(r.confidence == 100.0 for r in rb.rules)


def test_rule_support_never_exceeds_confidence():
    rb = mine_rules(SAMPLE_TRANSACTIONS, minsup=16.0, minconf=60.0)
    for rule in rb.rules:
        assert rule.support <= rule.confidence + 1e-9


def test_class_only_itemsets_make_no_rule():
    t = Transaction(frozenset(), "neutral")
    rb = mine_rules([t, t], minsup=50.0, minconf=50.0)
    assert len(rb) == 0


def test_ordering_is_total_and_deterministic():
    rb = mine_rules(SAMPLE_TRANSACTIONS, minsup=16.0, minconf=60.0)
    keys = [r.sort_key() for r in rb.rules]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    # same-antecedent ties across classes are split by the consequent
    pair = [
        Transaction(frozenset({"X"}), "positive"),
        Transaction(frozenset({"X"}), "negative"),
    ]
    tied = mine_rules(pair, minsup=10.0, minconf=50.0)
    assert [r.consequent for r in tied.rules] == ["negative", "positive"]


def test_ordering_follows_precedence():
    rb = mine_rules(SAMPLE_TRANSACTIONS, minsup=16.0, minconf=60.0)
    stats = [(r.confidence, r.support, len(r.antecedent)) for r in rb.rules]
    for earlier, later in zip(stats, stats[1:]):
        assert earlier >= later  # confidence, then support, then antecedent length


# ---------------------------------------------------------------------------
# brute-force equivalence on random instances
# ---------------------------------------------------------------------------

_ITEMS = ["t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"]


def random_instance(rng):
    n = rng.randint(1, 12)
    item_pool = _ITEMS[: rng.randint(2, 8)]
    classes = ["positive", "neutral", "negative"][: rng.randint(2, 3)]
    transactions = [
        Transaction(
            frozenset(rng.sample(item_pool, rng.randint(0, min(4, len(item_pool))))),
            rng.choice(classes),
        )
        for _ in range(n)
    ]
    minsup = rng.choice([5.0, 10.0, 20.0, 34.0, 50.0])
    minconf = rng.choice([50.0, 60.0, 75.0, 90.0, 100.0])
    return transactions, minsup, minconf, set(classes)


def test_matches_bruteforce_on_random_instances():
    rng = random.Random(20240917)
    for _ in range(60):
        transactions, minsup, minconf, classes = random_instance(rng)
        baskets = [t.basket for t in transactions]
        assert dict(mine_frequent(transactions, minsup)) == brute_force_frequent(baskets, minsup)
        rb = mine_rules(transactions, minsup, minconf, classes=classes)
        assert rule_tuples(rb) == brute_force_rules(baskets, minsup, minconf, classes)


_WIDE_TAGS = [f"k{i}" for i in range(10)]
# labels sort before, between and after the tags
_WIDE_LABELS = ["a", "k4_", "z"]


@st.composite
def wide_instances(draw):
    """Up to 120 rows drawn from a few baskets (so duplicates), empty tag sets
    allowed, and a minsup of exactly 100*c/n for some count c."""
    items = _WIDE_TAGS[: draw(st.integers(1, len(_WIDE_TAGS)))]
    labels = draw(st.lists(st.sampled_from(_WIDE_LABELS), min_size=1, max_size=3, unique=True))
    pool = draw(st.lists(st.builds(Transaction, st.frozensets(st.sampled_from(items)), st.sampled_from(labels)),
                         min_size=1, max_size=12))
    n = draw(st.integers(1, 120))
    transactions = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return transactions, 100.0 * draw(st.integers(1, n)) / n


@given(wide_instances())
@settings(max_examples=60, deadline=None)
def test_matches_bruteforce_on_wide_instances(instance):
    transactions, minsup = instance
    assert mine_frequent(transactions, minsup) == brute_force_frequent([t.basket for t in transactions], minsup)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17])
def test_tidsets_across_byte_boundaries(n):
    # "first" and "last" occur in one row each, at either end of the flag array
    rng = random.Random(n)
    transactions = [
        Transaction(frozenset(rng.sample(["a", "b", "c"], rng.randint(0, 3))
                              + ["first"] * (row == 0) + ["last"] * (row == n - 1)),
                    rng.choice(["neutral", "positive"]))
        for row in range(n)
    ]
    minsup = 100.0 / n
    frequent = mine_frequent(transactions, minsup)
    assert frequent == brute_force_frequent([t.basket for t in transactions], minsup)
    assert frequent[frozenset({"first"})] == frequent[frozenset({"last"})] == minsup


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_raising_minconf_never_adds_rules(seed):
    rng = random.Random(seed)
    transactions, minsup, _, classes = random_instance(rng)
    counts = [
        len(mine_rules(transactions, minsup, minconf, classes=classes))
        for minconf in (50.0, 60.0, 75.0, 90.0, 100.0)
    ]
    assert counts == sorted(counts, reverse=True)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialize_round_trip():
    rb = mine_rules(SAMPLE_TRANSACTIONS, minsup=16.0, minconf=60.0,
                    metadata=(("mode", "all"), ("stage", "multiclass")))
    again = parse_rulebase(serialize_rulebase(rb))
    assert again == rb


@pytest.mark.parametrize("antecedent, consequent, metadata", [
    ({"a,b"}, "positive", ()),
    ({"a -> b"}, "positive", ()),
    ({"a ->"}, "positive", ()),
    ({"a\tb"}, "positive", ()),
    ({"a\nb"}, "positive", ()),
    ({" a"}, "positive", ()),
    ({""}, "positive", ()),
    ({"#a"}, "positive", ()),
    (set(), "positive", ()),
    ({"a"}, "", ()),
    ({"a"}, "pos\titive", ()),
    ({"a"}, "positive\n", ()),
    ({"a"}, " positive", ()),
    ({"a"}, "positive", (("k=ey", "v"),)),
    ({"a"}, "positive", (("minsup", "1"),)),
    ({"a"}, "positive", (("key", "v\nw"),)),
])
def test_serialize_rejects_what_parse_cannot_read(antecedent, consequent, metadata):
    rb = RuleBase((Rule(frozenset(antecedent), consequent, 10.0, 80.0),), metadata=metadata)
    with pytest.raises(RuleBaseFormatError):
        serialize_rulebase(rb)


# arbitrary strings, and strings built from the pieces the rules-file format gives meaning to
FIELD = st.one_of(
    st.text(max_size=6),
    st.lists(st.sampled_from(["a", "b", " ", ",", "#", "->", "=", "\t", "\n", "\r", "\x1c", "minsup"]),
             max_size=4).map("".join),
)


@settings(max_examples=500, deadline=None)
@given(
    antecedent=st.frozensets(FIELD | st.just("LagInd"), max_size=3),
    consequent=FIELD | st.just("positive"),
    metadata=st.lists(st.tuples(FIELD | st.just("stage"), FIELD | st.just("gate")), max_size=1),
)
def test_serialize_raises_or_round_trips(antecedent, consequent, metadata):
    rb = RuleBase((Rule(antecedent, consequent, 12.5, 75.0),), metadata=tuple(metadata))
    try:
        text = serialize_rulebase(rb)
    except RuleBaseFormatError:
        return
    assert parse_rulebase(text) == rb


def test_empty_rulebase_serializes_to_header_only():
    rb = RuleBase((), minsup=0.5, minconf=60.0)
    text = serialize_rulebase(rb)
    assert all(line.startswith("#") for line in text.strip().splitlines())
    assert parse_rulebase(text) == rb


def test_parse_single_rule_line():
    rb = parse_rulebase("LagInd -> neutral\t33.33\t100.0\n")
    (rule,) = rb.rules
    assert rule == Rule(frozenset({"LagInd"}), "neutral", 33.33, 100.0)


def test_parse_known_rules_text():
    rb = parse_rulebase(KNOWN_RULES_TEXT)
    assert len(rb) == 7
    assert rb.rules[0].antecedent == frozenset({"LagInd"})


@pytest.mark.parametrize("text, line", [
    pytest.param("LagInd -> neutral\t33.33\t100.0\nbroken\n", 2, id="broken-rule"),
    pytest.param("# minsup=abc\n", 1, id="minsup-not-a-number"),
    pytest.param("# minconf=\n", 1, id="minconf-empty"),
    pytest.param("# stage=gate\n# minsup=500\n", 2, id="minsup-above-100"),
    pytest.param("# minconf=0\n", 1, id="minconf-zero"),
    pytest.param("LagInd -> neutral\tnan\t100.0\n", 1, id="support-nan"),
    pytest.param("LagInd -> neutral\t0\t50\n", 1, id="support-zero"),
    pytest.param("LagInd -> neutral\t33.33\t100.1\n", 1, id="confidence-above-100"),
    pytest.param("LagInd -> neutral\t33.33\t-inf\n", 1, id="confidence-negative-infinity"),
])
def test_parse_error_reports_line_number(text, line):
    with pytest.raises(RuleBaseFormatError, match=f"line {line}:"):
        parse_rulebase(text)


@pytest.mark.parametrize("separator", ["\u2028", "\x85", "\x0c"])
def test_a_line_separator_does_not_end_a_comment(separator):
    # a text-mode open() reads one line here, so what follows the separator is still comment
    rb = parse_rulebase(f"# minsup=0.5\n# note: dropped{separator}LagInd -> positive\t50.0\t90.0\n"
                        "LagInd::UP -> positive\t10.0\t80.0\n")
    assert [rule.antecedent for rule in rb.rules] == [frozenset({"LagInd::UP"})]
    with pytest.raises(RuleBaseFormatError, match="line 2:"):
        parse_rulebase(f"# note{separator}more\nbroken\n")
    text = f"# header{separator}LagInd, positive\nUP, negative\n"
    assert parse_transactions(text) == [Transaction(frozenset({"UP"}), "negative")]


def test_confidence_rounded_above_100_round_trips():
    # every row with A is positive, and 100 * (100 * 11 / 12) / (100 * 11 / 12) rounds up
    transactions = [Transaction(frozenset({"A"}), "positive")] * 11 + [Transaction(frozenset(), "negative")]
    rb = mine_rules(transactions, minsup=1.0, minconf=50.0)
    assert [rule.confidence for rule in rb] == [100.00000000000001]
    assert parse_rulebase(serialize_rulebase(rb)) == rb


@pytest.mark.parametrize("minsup, support, confidence", [
    (0.0, 10.0, 80.0), (float("nan"), 10.0, 80.0), (0.5, 0.0, 80.0), (0.5, 10.0, 100.1),
])
def test_serialize_rejects_percent_out_of_range(minsup, support, confidence):
    rb = RuleBase((Rule(frozenset({"a"}), "positive", support, confidence),), minsup=minsup)
    with pytest.raises(RuleBaseFormatError):
        serialize_rulebase(rb)


def test_transactions_dump_round_trip():
    text = dump_transactions(SAMPLE_TRANSACTIONS)
    assert "LagInd::UP, positive" in text.splitlines()[0]
    again = parse_transactions(text)
    assert again == SAMPLE_TRANSACTIONS
