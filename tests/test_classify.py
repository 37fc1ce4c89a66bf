import json
import random
import re
import struct
import warnings
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import branch_predict, branch_train, brute_force_rules, scan_score_tags
from sample_data import KNOWN_RULES_TEXT, SAMPLE_TRANSACTIONS
from finsent import classify
from finsent.arm import MiningError, Rule, RuleBase, Transaction, parse_rulebase, serialize_rulebase
from finsent.classify import (
    CLASSES,
    Arrangement,
    MatchPolicy,
    ModelFormatError,
    NEGATIVE,
    NEUTRAL,
    POLARIZED,
    POSITIVE,
    Scoring,
    load_model,
    predict,
    predict_flat,
    save_model,
    score_tags,
    train,
    train_folds,
)


@pytest.fixture(scope="module")
def known_rulebase():
    return parse_rulebase(KNOWN_RULES_TEXT)


# ---------------------------------------------------------------------------
# flat prediction
# ---------------------------------------------------------------------------


def test_single_interaction_tag_is_positive(known_rulebase):
    assert predict_flat(frozenset({"LagInd::UP"}), known_rulebase) == POSITIVE


def test_empty_tag_set_gets_default(known_rulebase):
    assert predict_flat(frozenset(), known_rulebase) == NEUTRAL
    assert predict_flat(frozenset(), known_rulebase, default="negative") == "negative"


def test_two_single_tag_matches(known_rulebase):
    assert predict_flat(frozenset({"LagInd", "POS"}), known_rulebase) == NEUTRAL


def test_full_set_and_single_matches(known_rulebase):
    assert predict_flat(frozenset({"UP", "POS"}), known_rulebase) == NEUTRAL


def test_score_accounting(known_rulebase):
    score = score_tags(frozenset({"UP", "POS"}), known_rulebase)
    # full-set rule UP,POS plus the two single-tag rules, all neutral
    assert score.counts == {NEUTRAL: 3}
    assert score.sums == {NEUTRAL: pytest.approx(300.0)}


def test_unmatched_multi_item_antecedent_is_ignored(known_rulebase):
    # {UP, POS, NEG}: the UP,POS rule requires full-set equality, so only the
    # single-tag UP and POS rules fire
    score = score_tags(frozenset({"UP", "POS", "NEG"}), known_rulebase)
    assert score.counts == {NEUTRAL: 2}


def test_subset_match_policy(known_rulebase):
    score = score_tags(
        frozenset({"UP", "POS", "NEG"}), known_rulebase, match_policy=MatchPolicy.SUBSET
    )
    assert score.counts == {NEUTRAL: 3}


def test_average_vs_sum_scoring():
    rules = (
        Rule(frozenset({"A"}), "positive", 10.0, 90.0),
        Rule(frozenset({"B"}), "neutral", 10.0, 80.0),
        Rule(frozenset({"C"}), "neutral", 10.0, 80.0),
    )
    rb = RuleBase(rules, minsup=1.0, minconf=50.0)
    tags = frozenset({"A", "B", "C"})
    # average: positive 90 beats neutral 80; sum: neutral 160 beats positive 90
    assert predict_flat(tags, rb, scoring=Scoring.AVERAGE) == POSITIVE
    assert predict_flat(tags, rb, scoring=Scoring.SUM) == NEUTRAL


def test_ties_resolve_neutral_then_negative():
    rules = (
        Rule(frozenset({"A"}), "positive", 10.0, 80.0),
        Rule(frozenset({"B"}), "neutral", 10.0, 80.0),
        Rule(frozenset({"C"}), "negative", 10.0, 80.0),
    )
    rb = RuleBase(rules, minsup=1.0, minconf=50.0)
    assert predict_flat(frozenset({"A", "B", "C"}), rb) == NEUTRAL
    assert predict_flat(frozenset({"A", "C"}), rb) == NEGATIVE


@given(st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_argmax_invariance_under_confidence_scaling(factor):
    rb = parse_rulebase(KNOWN_RULES_TEXT)
    scaled = RuleBase(
        tuple(
            Rule(r.antecedent, r.consequent, r.support, r.confidence * factor)
            for r in rb.rules
        ),
        minsup=rb.minsup,
        minconf=rb.minconf,
    )
    for tags in [frozenset(), frozenset({"LagInd::UP"}), frozenset({"UP", "POS"}),
                 frozenset({"LagInd", "POS"}), frozenset({"LeadInd::UP", "NEG"})]:
        assert predict_flat(tags, rb) == predict_flat(tags, scaled)


_SCORE_TAGS = ["A", "B", "C", "D"]
_SCORE_CLASSES = [POSITIVE, NEUTRAL, NEGATIVE, POLARIZED]


@st.composite
def scored_rule_bases(draw):
    """Rules over four tags in drawn (not sorted) order: antecedents from a
    small pool, so duplicates and one-tag antecedents are common, and
    confidences whose sums depend on the order they are added in."""
    pool = draw(st.lists(st.frozensets(st.sampled_from(_SCORE_TAGS), min_size=1), min_size=1, max_size=6))
    rules = draw(st.lists(st.builds(
        Rule, st.sampled_from(pool), st.sampled_from(_SCORE_CLASSES),
        st.floats(0.1, 100.0), st.floats(0.1, 100.0),
    ), max_size=30))
    return RuleBase(tuple(rules), minsup=1.0, minconf=50.0)


def _sum_bits(score):
    return [(cls, struct.pack("<d", total)) for cls, total in score.sums.items()]


@given(scored_rule_bases(), st.frozensets(st.sampled_from(_SCORE_TAGS)))
@settings(max_examples=150, deadline=None)
def test_indexed_scoring_matches_scan_oracle(rb, drawn_tags):
    # besides the drawn tag set: the empty set, every one-tag set, and every
    # antecedent of the rule base as the whole tag set
    tag_sets = {drawn_tags, frozenset()} | {frozenset((t,)) for t in _SCORE_TAGS} | set(rb.index)
    for tags in tag_sets:
        for policy in MatchPolicy:
            got, want = score_tags(tags, rb, policy), scan_score_tags(tags, rb, policy)
            assert got.counts == want.counts
            assert _sum_bits(got) == _sum_bits(want)
            for scoring in Scoring:
                winner = predict_flat(tags, rb, match_policy=policy, scoring=scoring)
                with patch.object(classify, "score_tags", scan_score_tags):
                    assert winner == predict_flat(tags, rb, match_policy=policy, scoring=scoring)


def test_rule_base_index_is_built_once(known_rulebase):
    rb = parse_rulebase(KNOWN_RULES_TEXT)
    assert "index" not in vars(rb)
    score_tags(frozenset({"UP", "POS"}), rb)
    index = vars(rb)["index"]
    for tags in (frozenset(), frozenset({"UP"}), frozenset({"UP", "POS", "NEG"})):
        score_tags(tags, rb)
        assert vars(rb)["index"] is index
    assert sorted(p for positions in index.values() for p in positions) == list(range(len(rb)))
    # the cached index is no field: equality and hashing ignore it
    assert rb == known_rulebase and hash(rb) == hash(known_rulebase)


# ---------------------------------------------------------------------------
# training arrangements
# ---------------------------------------------------------------------------


def test_hierarchical_stage_composition():
    model = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    gate = model.stages["gate"]
    polarity = model.stages["polarity"]
    assert {r.consequent for r in gate.rules} <= {POLARIZED, NEUTRAL}
    assert {r.consequent for r in polarity.rules} <= {POSITIVE, NEGATIVE}
    # stage two is mined on the three polarized rows only
    assert any(r.antecedent == frozenset({"LagInd::DOWN"}) and r.consequent == NEGATIVE
               and r.support == pytest.approx(100 / 3)
               for r in polarity.rules)


def test_hierarchical_predictions():
    model = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    assert predict(model, frozenset({"LagInd::DOWN"})) == NEGATIVE
    assert predict(model, frozenset({"LagInd::UP"})) == POSITIVE
    assert predict(model, frozenset({"LagInd"})) == NEUTRAL
    assert predict(model, frozenset()) == NEUTRAL


def test_multiclass_predictions():
    model = train(SAMPLE_TRANSACTIONS, Arrangement.MULTICLASS, minsup=0.5, minconf=60.0)
    assert predict(model, frozenset({"UP", "POS"})) == NEUTRAL
    assert predict(model, frozenset({"LeadInd::UP"})) == POSITIVE
    assert predict(model, frozenset()) == NEUTRAL


def test_one_vs_one_predictions():
    model = train(SAMPLE_TRANSACTIONS, Arrangement.ONE_VS_ONE, minsup=0.5, minconf=60.0)
    assert len(model.stages) == 3
    assert predict(model, frozenset({"LagInd::DOWN"})) == NEGATIVE
    assert predict(model, frozenset({"LagInd::UP"})) == POSITIVE
    assert predict(model, frozenset()) == NEUTRAL


def test_single_class_input_warns_and_defaults_neutral():
    neutral_only = [t for t in SAMPLE_TRANSACTIONS if t.label == NEUTRAL]
    with pytest.warns(UserWarning, match="absent"):
        model = train(neutral_only, Arrangement.HSC, minsup=0.5, minconf=60.0)
    assert len(model.stages["polarity"]) == 0
    assert predict(model, frozenset({"LagInd::DOWN"})) == NEUTRAL
    assert predict(model, frozenset()) == NEUTRAL


def test_stage_two_default_is_configurable():
    neutral_and_positive = [t for t in SAMPLE_TRANSACTIONS if t.label != NEGATIVE]
    with pytest.warns(UserWarning):
        model = train(neutral_and_positive, Arrangement.HSC, stage2_default=POSITIVE,
                      minsup=0.5, minconf=60.0)
    assert model.stage2_default == POSITIVE


def test_empty_training_set_is_error():
    with pytest.raises(MiningError):
        train([], Arrangement.HSC)


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_label_outside_classes_is_error(arrangement):
    # a capitalised label is not a class: HSC would otherwise gate it as
    # polarized and predict `negative` for LagInd::UP
    transactions = [*SAMPLE_TRANSACTIONS, Transaction(frozenset({"LagInd::UP"}), "Positive")]
    with pytest.raises(MiningError, match="'Positive'"):
        train(transactions, arrangement, minsup=0.5, minconf=60.0)


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_train_reads_each_label_once(arrangement, monkeypatch):
    reads = []

    class CountingTransaction(Transaction):
        @property
        def label(self):
            reads.append(id(self))
            return self[1]

    rows = [CountingTransaction(t.items, t.label) for t in SAMPLE_TRANSACTIONS]
    # an empty rule base for every stage: only train's own reads are counted
    monkeypatch.setattr(classify, "mine_rules", lambda *args, **kwargs: RuleBase(()))
    train(rows, arrangement, minsup=0.5, minconf=60.0)
    assert [reads.count(id(t)) for t in rows] == [1] * len(rows)


_TRAIN_TAGS = ["A", "B", "C", "D", "E"]


@st.composite
def labelled_transactions(draw):
    """Transactions over five tags with every class of CLASSES or, in about
    half the draws, of only one or two of them, so that a stage has no rows."""
    classes = CLASSES if draw(st.booleans()) else draw(
        st.lists(st.sampled_from(CLASSES), min_size=1, max_size=2, unique=True))
    items = st.frozensets(st.sampled_from(_TRAIN_TAGS), max_size=3)
    rows = [Transaction(draw(items), cls) for cls in classes]
    rows += draw(st.lists(st.builds(Transaction, items, st.sampled_from(classes)), max_size=22))
    return draw(st.permutations(rows))


def _train_recording_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fn(*args)
    return model, [str(w.message) for w in caught]


@given(labelled_transactions(), st.lists(st.frozensets(st.sampled_from(_TRAIN_TAGS)), max_size=6),
       st.sampled_from([0.5, 10.0, 30.0]), st.sampled_from([30.0, 60.0, 90.0]),
       st.sampled_from(list(MatchPolicy)), st.sampled_from(list(Scoring)), st.sampled_from(CLASSES))
@settings(max_examples=150, deadline=None)
def test_stage_table_matches_branch_oracle(transactions, tag_sets, minsup, minconf, policy, scoring,
                                           stage2_default):
    for arrangement in Arrangement:
        args = (transactions, arrangement, minsup, minconf, policy, scoring, stage2_default)
        got, got_warnings = _train_recording_warnings(train, *args)
        want, want_warnings = _train_recording_warnings(branch_train, *args)
        assert got_warnings == want_warnings
        assert list(got.stages) == list(want.stages)
        assert [serialize_rulebase(rb) for rb in got.stages.values()] == \
            [serialize_rulebase(rb) for rb in want.stages.values()]
        # besides the drawn tag sets: the empty set, every one-tag set and
        # every training item set, so that tied class scores come up
        for tags in {frozenset(), *tag_sets, *(frozenset((t,)) for t in _TRAIN_TAGS),
                     *(t.items for t in transactions)}:
            assert predict(got, tags) == branch_predict(want, tags)


# tags that are class names too, so that a tag and a stage's class item share a key
_FOLD_TAGS = ["A", "B", "C", NEUTRAL, POLARIZED]


@st.composite
def fold_split(draw):
    """Transactions and a fold assignment with k from 2 to 10: about half the
    draws lack a class, some fold may hold out a whole class or every row,
    and now and then a row has a label outside CLASSES."""
    classes = CLASSES if draw(st.booleans()) else draw(
        st.lists(st.sampled_from(CLASSES), min_size=1, max_size=2, unique=True))
    labels = st.sampled_from(classes) if draw(st.integers(0, 9)) else st.sampled_from([*classes, "other"])
    rows = draw(st.lists(st.builds(Transaction, st.frozensets(st.sampled_from(_FOLD_TAGS), max_size=3), labels),
                         min_size=1, max_size=30))
    k = draw(st.integers(2, 10))
    return rows, draw(st.lists(st.integers(0, k - 1), min_size=len(rows), max_size=len(rows))), k


def _recording_warnings(fn):
    """``fn()``'s result, or the MiningError it raised, and the warnings before it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn()
        except MiningError as exc:
            result = exc
    return result, [str(w.message) for w in caught]


@given(fold_split(), st.sampled_from(list(Arrangement)), st.sampled_from([0.5, 5.0, 12.5, 30.0, 50.0]),
       st.sampled_from([20.0, 50.0, 60.0, 80.0, 100.0]))
@settings(max_examples=150, deadline=None)
def test_each_fold_model_equals_train_on_the_other_folds(split, arrangement, minsup, minconf):
    rows, assignment, k = split
    training = [[t for t, f in zip(rows, assignment) if f != fold] for fold in range(k)]
    held_out = [[t for t, f in zip(rows, assignment) if f == fold] for fold in range(k)]
    got, got_warnings = _recording_warnings(lambda: train_folds(held_out, arrangement, minsup, minconf))
    want, want_warnings = [], []
    for fold_rows in training:  # train fold after fold, up to the first fold it refuses
        model, caught = _recording_warnings(lambda: train(fold_rows, arrangement, minsup, minconf))
        want_warnings += caught
        if isinstance(model, MiningError):
            want = model
            break
        want.append(model)
    assert got_warnings == want_warnings
    if isinstance(want, MiningError):
        assert isinstance(got, MiningError) and str(got) == str(want)
        return
    assert len(got) == k
    for fold_rows, got_model, want_model in zip(training, got, want):
        assert list(got_model.stages) == list(want_model.stages)
        assert [serialize_rulebase(rb) for rb in got_model.stages.values()] == \
            [serialize_rulebase(rb) for rb in want_model.stages.values()]
        assert got_model._replace(stages=None) == want_model._replace(stages=None)
        if arrangement is Arrangement.HSC:
            stage_baskets = {
                "gate": ([t.items | {NEUTRAL if t.label == NEUTRAL else POLARIZED} for t in fold_rows],
                         {NEUTRAL, POLARIZED}),
                "polarity": ([t.basket for t in fold_rows if t.label != NEUTRAL], {POSITIVE, NEGATIVE}),
            }
            for stage, (baskets, classes) in stage_baskets.items():
                rules = {(r.antecedent, r.consequent, r.support, r.confidence) for r in got_model.stages[stage].rules}
                assert rules == brute_force_rules(baskets, minsup, minconf, classes)


def test_hierarchy_consistency_random_tag_sets():
    model = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    pool = ["LagInd", "LeadInd", "UP", "DOWN", "POS", "NEG", "LagInd::UP",
            "LagInd::DOWN", "LeadInd::UP", "LeadInd::DOWN"]
    rng = random.Random(11)
    for _ in range(300):
        tags = frozenset(rng.sample(pool, rng.randint(0, 4)))
        gate = predict_flat(tags, model.stages["gate"], default=NEUTRAL)
        final = predict(model, tags)
        if gate == NEUTRAL:
            assert final == NEUTRAL
        else:
            assert final in (POSITIVE, NEGATIVE)


def test_determinism():
    model = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    tags = frozenset({"LagInd::UP", "NEG"})
    assert predict(model, tags) == predict(model, tags)


def test_unmatched_tags_get_default_in_every_arrangement():
    # "DOWN" never occurs in the sample transactions, so no antecedent holds it
    unmatched = frozenset({"DOWN"})
    for arrangement in Arrangement:
        model = train(SAMPLE_TRANSACTIONS, arrangement, minsup=0.5, minconf=60.0)
        assert predict(model, unmatched) == NEUTRAL
        assert predict(model, frozenset()) == NEUTRAL


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    model = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    save_model(model, tmp_path / "model", tagging={"mode": "all", "reversal": False})
    loaded, manifest = load_model(tmp_path / "model")
    assert loaded == model
    assert manifest["tagging"]["mode"] == "all"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=40, deadline=None)
@given(tagging=st.dictionaries(
    st.sampled_from(["mode", "lexicon", "reversals", "reversal", "pretagged", "encoding"]) | st.text(),
    _JSON_VALUES, max_size=4))
def test_every_saved_tagging_loads_as_saved(tmp_path_factory, tagging):
    # the tagging record is its reader's (`finsent predict`): any JSON object saved loads again, unchanged,
    # whatever its entries `finsent train` would write hold
    model = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    directory = save_model(model, tmp_path_factory.mktemp("model"), tagging=tagging)
    loaded, manifest = load_model(directory)
    assert loaded == model
    assert manifest["tagging"] == tagging


@pytest.mark.parametrize("tagging", [[], "", 0, "all", [("mode", "all")]],
                         ids=["empty_list", "empty_str", "zero", "str", "pairs"])
def test_save_rejects_a_tagging_that_is_not_a_dict(tmp_path, tagging):
    old = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    save_model(old, tmp_path / "model")
    saved = {p.name: p.read_bytes() for p in (tmp_path / "model").iterdir()}
    new = train(SAMPLE_TRANSACTIONS, Arrangement.MULTICLASS, minsup=0.5, minconf=60.0)
    for directory in (tmp_path / "model", tmp_path / "fresh"):
        with pytest.raises(TypeError, match=re.escape(f"tagging {tagging!r} is not a dict")):
            save_model(new, directory, tagging=tagging)
    assert {p.name: p.read_bytes() for p in (tmp_path / "model").iterdir()} == saved
    assert [p.name for p in tmp_path.iterdir()] == ["model"]


def test_save_replaces_an_existing_model(tmp_path):
    ovo = train(SAMPLE_TRANSACTIONS, Arrangement.ONE_VS_ONE, minsup=0.5, minconf=60.0)
    hsc = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    save_model(ovo, tmp_path / "model")
    save_model(hsc, tmp_path / "model")
    assert load_model(tmp_path / "model")[0] == hsc
    # the old model's stage files went with it, and no staging directory is left
    assert sorted(p.name for p in (tmp_path / "model").iterdir()) == ["gate.rules", "manifest.json", "polarity.rules"]
    assert [p.name for p in tmp_path.iterdir()] == ["model"]


def test_failed_save_keeps_the_previous_model(tmp_path, monkeypatch):
    old = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    save_model(old, tmp_path / "model")
    calls = []

    def fail_on_second_stage(rb):
        calls.append(rb)
        if len(calls) == 2:
            raise OSError("disk full")
        return serialize_rulebase(rb)

    monkeypatch.setattr(classify, "serialize_rulebase", fail_on_second_stage)
    new = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=20.0, minconf=60.0)
    with pytest.raises(OSError, match="disk full"):
        save_model(new, tmp_path / "model")
    assert len(calls) == 2
    assert load_model(tmp_path / "model")[0] == old
    assert [p.name for p in tmp_path.iterdir()] == ["model"]


def test_save_refuses_to_replace_what_is_not_a_model(tmp_path):
    model = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    (tmp_path / "notes.txt").write_text("keep me")
    with pytest.raises(FileExistsError, match="not a model directory"):
        save_model(model, tmp_path)
    with pytest.raises(FileExistsError, match="not a model directory"):
        save_model(model, tmp_path / "notes.txt")
    assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]
    assert (tmp_path / "notes.txt").read_text() == "keep me"


def test_load_missing_manifest(tmp_path):
    with pytest.raises(ModelFormatError, match="manifest"):
        load_model(tmp_path)


def test_load_rejects_unknown_format(tmp_path):
    (tmp_path / "manifest.json").write_text('{"format": "other/9"}')
    with pytest.raises(ModelFormatError, match="format"):
        load_model(tmp_path)


@pytest.mark.parametrize("edit, key", [
    (lambda m: m.update(default_class="mixed"), "default_class 'mixed' is not 'neutral'"),
    (lambda m: m.update(stage2_default="positve"), "stage2_default"),
    (lambda m: m.update(tagging="all"), "tagging 'all'"),
    (lambda m: m.update(arrangement="ovo"),
     "keys neutral-positive, negative-positive, negative-neutral of arrangement 'ovo'"),
    (lambda m: m["stages"].pop("polarity"), "keys gate, polarity of arrangement 'hsc'"),
    (lambda m: m.update(stages=list(m["stages"])), r"stages \['gate', 'polarity'\] is not an object"),
    # the thresholds live in the stage files' headers: a string edit is a line put first in gate.rules
    ("# minsup=null\n", r"malformed model: gate\.rules: line 1: .*could not convert string to float: 'null'"),
    ("# minconf=high\n", r"malformed model: gate\.rules: line 1: .*could not convert string to float: 'high'"),
    ('# minsup="0.5"\n', r"malformed model: gate\.rules: line 1: .*could not convert string to float: '\"0\.5\"'"),
    ("# minsup=True\n", r"malformed model: gate\.rules: line 1: .*could not convert string to float: 'True'"),
    ("# minsup=-3\n", r"malformed model: gate\.rules: line 1: .*minsup -3\.0 is not in \(0, 100\]"),
    ("# minconf=nan\n", r"malformed model: gate\.rules: line 1: .*minconf nan is not in \(0, 100\]"),
    (lambda m: m["stages"].update(gate="../../c.txt"), r"stages.gate '\.\./\.\./c\.txt' is not a plain file name"),
    (lambda m: m["stages"].update(polarity="/etc/passwd"), "stages.polarity '/etc/passwd' is not a plain file name"),
    (lambda m: m["stages"].update(gate=".."), r"stages.gate '\.\.' is not a plain file name"),
    (lambda m: m["stages"].update(gate=5), "stages.gate 5 is not a plain file name"),
], ids=["default_class", "stage2_default", "tagging",
        "arrangement_stages", "stage_missing", "stages_list", "minsup_null", "minconf_str",
        "minsup_numeric_str", "minsup_bool",
        "minsup_negative", "minconf_nan", "stage_parent_dir", "stage_absolute", "stage_dotdot", "stage_int"])
def test_load_rejects_out_of_range_manifest_values(tmp_path, edit, key):
    model = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    save_model(model, tmp_path, tagging={"mode": "all", "reversal": False})
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if isinstance(edit, str):
        gate = tmp_path / "gate.rules"
        gate.write_text(edit + gate.read_text())
    else:
        edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match=key):
        load_model(tmp_path)


def test_load_reads_stage_files_under_any_plain_name(tmp_path):
    model = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    save_model(model, tmp_path, tagging={"mode": "all", "reversal": False})
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    (tmp_path / "gate.rules").rename(tmp_path / "stage one..rules")
    manifest["stages"]["gate"] = "stage one..rules"
    manifest_path.write_text(json.dumps(manifest))
    assert load_model(tmp_path)[0] == model


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_load_rejects_a_rule_class_outside_its_stage(tmp_path, arrangement):
    model = train(SAMPLE_TRANSACTIONS, arrangement, minsup=0.5, minconf=60.0)
    save_model(model, tmp_path)
    stage = next(iter(model.stages))
    path = tmp_path / f"{stage}.rules"
    path.write_text(path.read_text().replace(f"-> {model.stages[stage].rules[0].consequent}", "-> foo", 1))
    with pytest.raises(ModelFormatError, match=f"{stage}.rules: rule class 'foo' is not one of"):
        load_model(tmp_path)


@pytest.mark.parametrize("stage", ["gate", "polarity"])
def test_load_names_the_stage_file_of_a_rule_parse_error(tmp_path, stage):
    model = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    save_model(model, tmp_path)
    path = tmp_path / f"{stage}.rules"
    lines = path.read_text().count("\n")
    path.write_text(f"{path.read_text()}broken\n")
    with pytest.raises(ModelFormatError, match=rf"malformed model: {stage}\.rules: line {lines + 1}: cannot parse 'broken'"):
        load_model(tmp_path)


@pytest.mark.parametrize("separator", ["\u2028", "\x85", "\x0c"])
def test_load_takes_no_rule_from_a_stage_file_comment(tmp_path, separator):
    model = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    save_model(model, tmp_path)
    path = tmp_path / "gate.rules"
    path.write_text(f"# note{separator}Invented -> polarized\t50.0\t90.0\n{path.read_text()}", encoding="utf-8")
    assert load_model(tmp_path)[0] == model


def test_load_rejects_a_manifest_integer_past_the_digit_limit(tmp_path):
    # json.loads raises a plain ValueError for an integer of more than 4,300 digits
    model = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    save_model(model, tmp_path)
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(manifest_path.read_text().replace("{", '{"size": ' + "9" * 5000 + ",", 1))
    with pytest.raises(ModelFormatError, match=r"manifest\.json: invalid JSON: .*4300 digits"):
        load_model(tmp_path)


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_saved_manifest_holds_only_what_load_reads(tmp_path, monkeypatch, arrangement):
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

    save_model(train(SAMPLE_TRANSACTIONS, arrangement, minsup=16.0, minconf=60.0), tmp_path)
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: Recording(loads(text)))
    _, manifest = load_model(tmp_path)
    assert set(manifest) == {"format", "arrangement", "stage2_default", "match_policy", "scoring", "stages", "tagging"}
    # load reads each of them, and looks for an older manifest's default_class to refuse one other than neutral
    assert read == set(manifest) | {"default_class"}


def test_load_rejects_manifest_that_is_not_an_object(tmp_path):
    (tmp_path / "manifest.json").write_text('["finsent-model/1"]')
    with pytest.raises(ModelFormatError, match="JSON object"):
        load_model(tmp_path)
