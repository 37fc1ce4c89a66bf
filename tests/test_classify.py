import json
import random
import struct
import warnings
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import branch_predict, branch_train, scan_score_tags
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
    (lambda m: m["tagging"].update(mode="bogus"), "tagging.mode"),
    (lambda m: m.update(default_class="mixed"), "default_class"),
    (lambda m: m.update(stage2_default="positve"), "stage2_default"),
    (lambda m: m.update(tagging="all"), "tagging 'all'"),
    (lambda m: m.update(arrangement="ovo"),
     "keys neutral-positive, negative-positive, negative-neutral of arrangement 'ovo'"),
    (lambda m: m["stages"].pop("polarity"), "keys gate, polarity of arrangement 'hsc'"),
    (lambda m: m.update(stages=list(m["stages"])), r"stages \['gate', 'polarity'\] is not an object"),
    (lambda m: m.update(minsup=None), "malformed model: minsup None is not a number"),
    (lambda m: m.update(minconf="high"), "malformed model: minconf 'high' is not a number"),
    (lambda m: m.update(minsup=-3), r"malformed model: minsup must be in \(0, 100\], got -3.0"),
    (lambda m: m.update(minconf=float("nan")), r"minconf must be in \(0, 100\], got nan"),
    (lambda m: m["stages"].update(gate="../../c.txt"), r"stages.gate '\.\./\.\./c\.txt' is not a plain file name"),
    (lambda m: m["stages"].update(polarity="/etc/passwd"), "stages.polarity '/etc/passwd' is not a plain file name"),
    (lambda m: m["stages"].update(gate=".."), r"stages.gate '\.\.' is not a plain file name"),
    (lambda m: m["stages"].update(gate=5), "stages.gate 5 is not a plain file name"),
    (lambda m: m["tagging"].update(lexicon=5), "tagging.lexicon 5 is not a str"),
    (lambda m: m["tagging"].update(reversal="no"), "tagging.reversal 'no' is not a bool"),
], ids=["mode", "default_class", "stage2_default", "tagging",
        "arrangement_stages", "stage_missing", "stages_list", "minsup_null", "minconf_str",
        "minsup_negative", "minconf_nan", "stage_parent_dir", "stage_absolute", "stage_dotdot", "stage_int",
        "lexicon_int", "reversal_str"])
def test_load_rejects_out_of_range_manifest_values(tmp_path, edit, key):
    model = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    save_model(model, tmp_path, tagging={"mode": "all", "reversal": False})
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
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


@pytest.mark.parametrize("separator", ["\u2028", "\x85", "\x0c"])
def test_load_takes_no_rule_from_a_stage_file_comment(tmp_path, separator):
    model = train(SAMPLE_TRANSACTIONS, Arrangement.HSC, minsup=0.5, minconf=60.0)
    save_model(model, tmp_path)
    path = tmp_path / "gate.rules"
    path.write_text(f"# note{separator}Invented -> polarized\t50.0\t90.0\n{path.read_text()}", encoding="utf-8")
    assert load_model(tmp_path)[0] == model


def test_load_rejects_manifest_that_is_not_an_object(tmp_path):
    (tmp_path / "manifest.json").write_text('["finsent-model/1"]')
    with pytest.raises(ModelFormatError, match="JSON object"):
        load_model(tmp_path)
