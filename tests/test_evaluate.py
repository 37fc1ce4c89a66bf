import hashlib
import json
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsent import arm, classify, evaluate
from finsent.arm import Transaction, dump_transactions
from finsent.classify import Arrangement
from finsent.evaluate import (
    Corpus,
    CorpusError,
    FoldError,
    FoldPlan,
    PipelineConfig,
    cross_validate,
    load_phrasebank,
    majority_trainer,
    make_folds,
    perfect_trainer,
    report_to_csv,
    report_to_json,
    report_to_text,
    score_predictions,
    sweep_confidence,
    sweep_to_csv,
    tag_corpus,
    tag_text,
)
from finsent.lexicon import Lexicon
from finsent.semtag import Mode

LABELS = ("positive", "neutral", "negative")


def small_corpus(n_pos=6, n_neu=10, n_neg=4):
    texts, labels = [], []
    for i in range(n_pos):
        texts.append(f"Turnover rose to EUR {20 + i} mn from EUR {10 + i} mn .")
        labels.append("positive")
    for i in range(n_neu):
        texts.append(f"The company is based in Helsinki {2000 + i} .")
        labels.append("neutral")
    for i in range(n_neg):
        texts.append(f"Turnover fell to EUR {10 + i} mn from EUR {20 + i} mn .")
        labels.append("negative")
    return Corpus(tuple(texts), tuple(labels), name="small")


# ---------------------------------------------------------------------------
# corpus loading
# ---------------------------------------------------------------------------


def test_load_phrasebank(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(
        "Turnover rose sharply .@positive\n"
        "Details were not given .@neutral\n"
        "Profit warning issued .@negative\n",
        encoding="utf-8",
    )
    corpus = load_phrasebank(path)
    assert len(corpus) == 3
    assert corpus.labels == ("positive", "neutral", "negative")
    assert corpus.name == "corpus"


def test_unknown_label_reports_line(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("Hello world@maybe\n")
    with pytest.raises(CorpusError, match=":1.*maybe"):
        load_phrasebank(path)


def test_missing_delimiter(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("no delimiter here\n")
    with pytest.raises(CorpusError, match="delimiter"):
        load_phrasebank(path)


def test_at_sign_in_sentence_is_fine(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("Contact us @ headquarters@neutral\n")
    corpus = load_phrasebank(path)
    assert corpus.texts == ("Contact us @ headquarters",)


def test_legacy_encoding_replacement(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes("Caf\xe9 results improved .@positive\n".encode("latin-1"))
    corpus = load_phrasebank(path)  # utf-8 with replacement
    assert len(corpus) == 1


def test_load_phrasebank_drops_a_leading_byte_order_mark(tmp_path, lexicon):
    # kept, the mark joins the first word and hides "operating profit" from the lexicon
    path = tmp_path / "c.txt"
    path.write_bytes("\ufeffOperating profit rose strongly .@positive\n".encode("utf-8"))
    corpus = load_phrasebank(path)
    assert corpus.texts == ("Operating profit rose strongly .",)
    assert [tx.items for tx in tag_corpus(corpus, lexicon, PipelineConfig())] == [{"LagInd::UP"}]


@pytest.mark.parametrize("data, encoding", [
    ("Sales rose\u0085 strongly", "utf-8"),
    ("Sales rose\u2028 strongly", "utf-8"),
    ("Sales rose\x0c strongly", "utf-8"),
    (b"Sales rose\x85 strongly".decode("latin-1"), "latin-1"),
])
def test_only_line_ends_split_corpus_lines(tmp_path, data, encoding):
    # str.splitlines would also break at these characters
    path = tmp_path / "c.txt"
    path.write_bytes(f"{data}@positive\r\nProfit fell@negative\rno delimiter\n".encode(encoding))
    with pytest.raises(CorpusError, match=r"c\.txt:3: missing '@' delimiter"):
        load_phrasebank(path, encoding=encoding)
    path.write_bytes(f"{data}@positive\r\nProfit fell@negative\rDetails@neutral\n".encode(encoding))
    corpus = load_phrasebank(path, encoding=encoding)
    assert corpus.texts == (data, "Profit fell", "Details")
    assert corpus.labels == ("positive", "negative", "neutral")


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------


def test_fold_balance_and_partition():
    corpus = small_corpus(60, 25, 15)
    plan = make_folds(corpus, 10, seed=3)
    for fold in range(10):
        counts = Counter(corpus.labels[i] for i in plan.groups.get(fold, ()))
        assert counts["positive"] == 6
        assert counts["neutral"] in (2, 3)
        assert counts["negative"] in (1, 2)
    assert sorted(sum((plan.groups.get(f, ()) for f in range(10)), ())) == list(range(100))


def test_fold_determinism():
    corpus = small_corpus()
    assert make_folds(corpus, 4, seed=9) == make_folds(corpus, 4, seed=9)
    assert make_folds(corpus, 4, seed=9) != make_folds(corpus, 4, seed=10)


def test_k_below_two_is_error():
    with pytest.raises(FoldError):
        make_folds(small_corpus(), 1)


def test_an_empty_corpus_has_no_folds():
    with pytest.raises(FoldError, match="corpus 'empty' has no sentences to fold"):
        make_folds(Corpus((), (), name="empty"), 2)


@pytest.mark.parametrize("run", [
    lambda corpus: cross_validate(corpus, PipelineConfig(folds=2), transactions=[], trainer=majority_trainer),
    lambda corpus: sweep_confidence(corpus, PipelineConfig(folds=2), [60.0], lexicon=Lexicon({})),
], ids=["cross_validate", "sweep_confidence"])
def test_evaluating_an_empty_corpus_is_error(run):
    with pytest.raises(FoldError, match="corpus 'empty' has no sentences to fold"):
        run(Corpus((), (), name="empty"))


def test_class_too_small_is_error():
    with pytest.raises(FoldError, match="negative"):
        make_folds(small_corpus(n_neg=2), 4)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_fold_balance_invariant_random_corpora(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 10)
    labels = []
    for label in LABELS:
        labels += [label] * rng.randint(k, 6 * k)
    rng.shuffle(labels)
    corpus = Corpus(tuple("x" for _ in labels), tuple(labels))
    plan = make_folds(corpus, k, seed=seed)
    for label in LABELS:
        total = sum(1 for l in labels if l == label)
        share = total / k
        for fold in range(k):
            got = sum(1 for i in plan.groups.get(fold, ()) if labels[i] == label)
            assert abs(got - share) <= 1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def pairs_for_confusion(matrix):
    pairs = []
    for gi, gold in enumerate(LABELS):
        for pi, pred in enumerate(LABELS):
            pairs += [(gold, pred)] * matrix[gi][pi]
    return pairs


def test_hand_computed_confusion_metrics():
    # rows gold positive/neutral/negative
    report = score_predictions(pairs_for_confusion([[5, 1, 0], [2, 10, 1], [0, 1, 4]]))
    assert report.per_class["positive"].precision == pytest.approx(5 / 7)
    assert report.per_class["positive"].recall == pytest.approx(5 / 6)
    assert report.overall_accuracy == pytest.approx(19 / 24)
    p, r = report.per_class["positive"].precision, report.per_class["positive"].recall
    assert report.per_class["positive"].f_measure == pytest.approx(2 * p * r / (p + r))
    assert report.per_class["positive"].accuracy == pytest.approx((5 + 16) / 24)


def test_f_measure_zero_when_no_predictions():
    report = score_predictions([("positive", "neutral"), ("neutral", "neutral")])
    assert report.per_class["negative"].f_measure == 0.0
    assert report.per_class["negative"].precision == 0.0


@pytest.mark.parametrize("pairs, message", [
    ([("positive", "bogus")], "pair 1: predicted label 'bogus'"),
    ([("positive", "positive"), ("bogus", "neutral")], "pair 2: gold label 'bogus'"),
    ([("neutral", "neutral")] * 3 + [("Positive", "Negative")], "pair 4: gold label 'Positive'"),
])
def test_a_label_outside_the_classes_is_a_located_error(pairs, message):
    with pytest.raises(CorpusError, match=f"^{message} is not one of positive, neutral, negative$"):
        score_predictions(pairs)


@pytest.mark.parametrize("trainer", [majority_trainer, perfect_trainer], ids=["majority", "perfect"])
def test_cross_validating_a_label_outside_the_classes_is_a_located_error(trainer):
    corpus = Corpus(tuple(f"s{i}" for i in range(12)), ("positive", "neutral", "negative", "bogus") * 3)
    transactions = [Transaction(frozenset({"t"}), label) for label in corpus.labels]
    with pytest.raises(CorpusError, match=r"^pair \d+: (gold|predicted) label 'bogus' is not one of"):
        cross_validate(corpus, PipelineConfig(folds=2), transactions=transactions, trainer=trainer)


def test_recall_prevalence_identity():
    report = score_predictions(pairs_for_confusion([[5, 1, 0], [2, 10, 1], [0, 1, 4]]))
    total = sum(sum(row.values()) for row in report.confusion.values())
    acc = 0.0
    for cls in LABELS:
        prevalence = sum(report.confusion[cls].values()) / total
        acc += prevalence * report.per_class[cls].recall
    assert acc == pytest.approx(report.overall_accuracy)


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------


def test_perfect_stub_scores_ones(lexicon):
    corpus = small_corpus()
    config = PipelineConfig(folds=2, seed=1)
    report = cross_validate(corpus, config, lexicon=lexicon, trainer=perfect_trainer)
    assert report.overall_accuracy == 1.0
    for cls in LABELS:
        m = report.per_class[cls]
        assert (m.precision, m.recall, m.f_measure, m.accuracy) == (1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("folds, rows", [(6, 8), (9, 8), (8, 6)])
def test_fold_plan_or_transactions_not_covering_the_corpus_is_error(folds, rows):
    corpus = Corpus(tuple(f"s{i}" for i in range(8)), ("positive", "neutral", "negative", "neutral") * 2)
    plan = FoldPlan(k=2, assignment=tuple(i % 2 for i in range(folds)))
    transactions = [Transaction(frozenset({f"t{i % 3}"}), corpus.labels[i]) for i in range(rows)]
    with pytest.raises(FoldError, match="expected one of each per sentence"):
        cross_validate(corpus, PipelineConfig(folds=2), folds=plan, transactions=transactions,
                       trainer=majority_trainer)


@given(st.integers(2, 6).flatmap(lambda k: st.tuples(st.just(k), st.lists(st.integers(-1, k), max_size=40))))
@settings(max_examples=200, deadline=None)
def test_fold_groups_equal_the_per_fold_scan(k_assignment):
    # one pass over the assignment groups the rows by fold, once per plan; rows
    # of a fold outside 0..k-1 are grouped too, as a scan for that fold finds them
    k, assignment = k_assignment
    plan = FoldPlan(k=k, assignment=tuple(assignment))
    for fold in range(-1, k + 1):
        rows = [i for i, f in enumerate(assignment) if f == fold]
        assert plan.groups.get(fold, ()) == tuple(rows)
    assert sorted(i for rows in plan.groups.values() for i in rows) == list(range(len(assignment)))
    assert plan.groups is plan.groups


@pytest.mark.parametrize("bad", [7, 2, -1])
def test_fold_plan_naming_no_fold_is_error(bad):
    # a sentence outside every fold would be trained on in each fold and never scored
    corpus = Corpus(tuple(f"s{i}" for i in range(12)), ("positive", "neutral", "negative") * 4)
    plan = FoldPlan(k=2, assignment=(0, 1) * 5 + (bad, bad))
    transactions = [Transaction(frozenset({f"t{i % 3}"}), label) for i, label in enumerate(corpus.labels)]
    with pytest.raises(FoldError, match=f"sentence 10 is assigned fold {bad}; folds run from 0 to 1"):
        cross_validate(corpus, PipelineConfig(folds=2), folds=plan, transactions=transactions,
                       trainer=majority_trainer)


@pytest.mark.parametrize("held_out", [0, 1])
@pytest.mark.parametrize("trainer", [majority_trainer, perfect_trainer, None], ids=["majority", "perfect", "pipeline"])
def test_fold_plan_leaving_a_fold_no_training_rows_is_error(trainer, held_out):
    # a fold that holds every sentence trains on nothing; every trainer fails alike, on that fold
    corpus = Corpus(tuple(f"s{i}" for i in range(12)), ("positive", "neutral", "negative") * 4)
    plan = FoldPlan(k=2, assignment=(held_out,) * 12)
    transactions = [Transaction(frozenset({f"t{i % 3}"}), label) for i, label in enumerate(corpus.labels)]
    with pytest.raises(FoldError, match=f"fold {held_out} leaves no training rows"):
        cross_validate(corpus, PipelineConfig(folds=2), folds=plan, transactions=transactions, trainer=trainer)


def test_sweep_over_a_fold_plan_leaving_a_fold_no_training_rows_is_error(lexicon):
    corpus = small_corpus()
    with pytest.raises(FoldError, match="fold 0 leaves no training rows"):
        sweep_confidence(corpus, PipelineConfig(folds=2), [60.0], folds=FoldPlan(2, (0,) * len(corpus)),
                         lexicon=lexicon)


def test_majority_stub_matches_majority_share(lexicon):
    corpus = small_corpus(6, 10, 4)
    config = PipelineConfig(folds=2, seed=1)
    report = cross_validate(corpus, config, lexicon=lexicon, trainer=majority_trainer)
    assert report.overall_accuracy == pytest.approx(0.5)


def test_pipeline_learns_small_corpus(lexicon):
    corpus = small_corpus(8, 10, 8)
    config = PipelineConfig(folds=2, seed=5, arrangement=Arrangement.HSC)
    report = cross_validate(corpus, config, lexicon=lexicon)
    assert report.overall_accuracy == 1.0
    assert report.rule_count > 0


def test_fold_reassembly(lexicon):
    corpus = small_corpus()
    config = PipelineConfig(folds=4, seed=2)
    report = cross_validate(corpus, config, lexicon=lexicon, trainer=perfect_trainer)
    assert sum(f.size for f in report.folds) == len(corpus)


def test_seed_reproducibility(lexicon):
    corpus = small_corpus(8, 10, 8)
    config = PipelineConfig(folds=4, seed=13)
    a = cross_validate(corpus, config, lexicon=lexicon)
    b = cross_validate(corpus, config, lexicon=lexicon)
    assert report_to_json(a) == report_to_json(b)


def _guard_cross_validate(lexicon):
    rng = random.Random(11)
    tags = ["LagInd::UP", "LagInd::DOWN", "POS", "NEG", "LeadInd::UP"]
    transactions = [
        Transaction(frozenset(rng.sample(tags, rng.randint(0, 3))), LABELS[i % 3]) for i in range(60)
    ]
    corpus = Corpus(tuple(dump_transactions(transactions).splitlines()), tuple(t.label for t in transactions))
    cross_validate(corpus, PipelineConfig(folds=10, seed=3), transactions=transactions)


def _guard_sweep_confidence(lexicon):
    points = sweep_confidence(small_corpus(12, 14, 10), PipelineConfig(folds=10, seed=3),
                              [60.0, 70.0, 80.0, 90.0], lexicon=lexicon)
    assert len(points) == 4


@pytest.mark.parametrize("run", [_guard_cross_validate, _guard_sweep_confidence],
                         ids=["cross_validate", "sweep_confidence"])
def test_span_contract_guard(monkeypatch, lexicon, run):
    """A 10-fold HSC cross-validation, or a 4-point sweep, trains its folds in one call, and joins each
    of its two stages' lattices and splits it into rule entries once."""
    counts = Counter()
    # the benchmark's tracer wraps the first three attributes; the fold path calls none of them
    for owner, attr in ((evaluate, "train"), (classify, "mine_rules"), (arm, "mine_frequent"),
                        (evaluate, "train_folds"), (classify, "mine_fold_rules"), (arm, "_join"), (arm, "_split")):
        original = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda *a, _f=original, _n=attr, **kw: counts.update([_n]) or _f(*a, **kw))
    run(lexicon)
    assert counts == {"train_folds": 1, "mine_fold_rules": 2, "_join": 2, "_split": 2}


def test_mode_filter_reaches_transactions(lexicon):
    corpus = Corpus(
        ("We are pleased with the results .", "The lawsuit was a concern ."),
        ("positive", "negative"),
    )
    all_mode = tag_corpus(corpus, lexicon, PipelineConfig(mode=Mode.ALL))
    lag_mode = tag_corpus(corpus, lexicon, PipelineConfig(mode=Mode.LAG_ONLY))
    assert any(t.items for t in all_mode)
    assert all(not t.items for t in lag_mode)


def test_empty_lexicon_is_not_replaced_by_default():
    corpus = Corpus(("Sales rose strongly",), ("positive",))
    empty = Lexicon(entries={})
    assert [t.items for t in tag_corpus(corpus, empty)] == [frozenset()]
    assert tag_text("Sales rose strongly", empty) == frozenset()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_shapes_and_monotone_rules(lexicon):
    corpus = small_corpus(8, 10, 8)
    config = PipelineConfig(folds=2, seed=4)
    points = sweep_confidence(corpus, config, [60.0, 80.0, 100.0], lexicon=lexicon)
    assert [p.minconf for p in points] == [60.0, 80.0, 100.0]
    counts = [p.report.rule_count for p in points]
    assert counts == sorted(counts, reverse=True)
    csv_text = sweep_to_csv(points)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "minconf,class,precision,recall"
    assert len(lines) == 1 + 3 * 3


def test_sweep_empty_grid(lexicon, monkeypatch):
    calls = Counter()
    tag = evaluate.tag_corpus
    monkeypatch.setattr(evaluate, "tag_corpus", lambda *args: calls.update(["tag_corpus"]) or tag(*args))
    corpus = small_corpus(4, 6, 4)
    assert sweep_confidence(corpus, PipelineConfig(folds=2), [], lexicon=lexicon) == []
    assert calls == {}  # an empty grid needs no tags
    with pytest.raises(FoldError, match="needs >= 5"):  # the fold count is still checked
        sweep_confidence(corpus, PipelineConfig(folds=5), [], lexicon=lexicon)
    sweep_confidence(corpus, PipelineConfig(folds=2), [60.0, 90.0], lexicon=lexicon)
    assert calls == {"tag_corpus": 1}


def test_sweep_single_point_equals_cross_validate(lexicon):
    corpus = small_corpus(8, 10, 8)
    config = PipelineConfig(folds=2, seed=6, minconf=60.0)
    (point,) = sweep_confidence(corpus, config, [60.0], lexicon=lexicon)
    direct = cross_validate(corpus, config, lexicon=lexicon)
    assert report_to_json(point.report) == report_to_json(direct)


def test_sweep_over_tagged_transactions_equals_the_sweep_from_text(lexicon, monkeypatch):
    corpus = small_corpus(8, 10, 8)
    config = PipelineConfig(folds=3, seed=6)
    grid = [60.0, 75.0, 90.0]
    from_text = sweep_confidence(corpus, config, grid, lexicon=lexicon)
    transactions = tag_corpus(corpus, lexicon, config)
    monkeypatch.setattr(evaluate, "tag_corpus", None)  # given transactions, the sweep tags nothing
    tagged = sweep_confidence(corpus, config, grid, transactions=transactions)
    assert [report_to_json(p.report) for p in tagged] == [report_to_json(p.report) for p in from_text]
    assert sweep_to_csv(tagged) == sweep_to_csv(from_text)
    with pytest.raises(FoldError, match="one of each per sentence"):
        sweep_confidence(corpus, config, grid, transactions=transactions[1:])


def _random_corpus(rng, k, benchmark_corpus):
    """At least k sentences per class; most keep their own class's text, some take any, so rule confidences vary."""
    by_class = {cls: [t for t, l in zip(benchmark_corpus.texts, benchmark_corpus.labels) if l == cls] for cls in LABELS}
    rows = [(rng.choice(by_class[cls] if rng.random() < 0.7 else benchmark_corpus.texts), cls)
            for cls in LABELS for _ in range(rng.randint(k, 3 * k + 4))]
    rng.shuffle(rows)
    return Corpus(tuple(t for t, _ in rows), tuple(l for _, l in rows), name="random")


@given(
    seed=st.integers(0, 2**32),
    grid=st.lists(st.sampled_from([30.0, 50.0, 60.0, 62.5, 70.0, 75.0, 80.0, 90.0, 100.0]), min_size=1, max_size=5),
    arrangement=st.sampled_from(list(Arrangement)),
    match_policy=st.sampled_from(list(classify.MatchPolicy)),
    scoring=st.sampled_from(list(classify.Scoring)),
    minsup=st.sampled_from([0.5, 5.0, 20.0]),
)
@settings(max_examples=40, deadline=None)
def test_each_sweep_point_is_a_separate_cross_validation(benchmark_corpus, lexicon, seed, grid, arrangement,
                                                         match_policy, scoring, minsup):
    # a sweep trains each fold once, at the lowest grid value, and filters its rules per point
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    corpus = _random_corpus(rng, k, benchmark_corpus)
    config = PipelineConfig(arrangement=arrangement, match_policy=match_policy, scoring=scoring,
                            minsup=minsup, folds=k, seed=seed % 100)
    points = sweep_confidence(corpus, config, grid, lexicon=lexicon)
    assert [p.minconf for p in points] == grid
    for point in points:
        direct = cross_validate(corpus, replace(config, minconf=point.minconf), lexicon=lexicon)
        assert report_to_json(point.report) == report_to_json(direct)


def test_fold_predictor_labels_each_distinct_tag_set_once(monkeypatch):
    rng = random.Random(4)
    tags = ["LagInd::UP", "LagInd::DOWN", "POS", "NEG"]
    tag_sets = [frozenset(rng.sample(tags, rng.randint(0, 2))) for _ in range(6)]
    rows = [Transaction(rng.choice(tag_sets), LABELS[i % 3]) for i in range(40)]
    config = PipelineConfig(minsup=2.0, minconf=40.0)
    model = evaluate.train_model(rows, config)
    predict_fn, rule_count = evaluate._fold_predictor(model)
    assert rule_count == model.rule_count() > 0
    calls = Counter()
    monkeypatch.setattr(evaluate, "predict", lambda m, items: calls.update([items]) or classify.predict(m, items))
    assert [predict_fn(t) for t in rows] == [classify.predict(model, t.items) for t in rows]
    assert calls == Counter({t.items: 1 for t in rows})


# SHA-256 of each stub trainer's report_to_json: the fold loop's order and bookkeeping must not move a byte
@pytest.mark.parametrize("trainer, digest", [
    (perfect_trainer, "280b5112b1150a4863896352238e3193d2e449b510bd675f68d459220e693e76"),
    (majority_trainer, "8e2a98a87991a351c35516ff68741f0560d355a0bb2abb8b30204b8d7fff5693"),
])
def test_stub_trainer_reports_are_unchanged(lexicon, trainer, digest):
    corpus = small_corpus(7, 11, 5)
    report = cross_validate(corpus, PipelineConfig(folds=3, seed=8), lexicon=lexicon, trainer=trainer)
    assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == digest


def test_sweep_rejects_bad_grid(lexicon):
    with pytest.raises(FoldError):
        sweep_confidence(small_corpus(), PipelineConfig(folds=2), [0.0], lexicon=lexicon)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def test_report_formats(lexicon):
    corpus = small_corpus()
    config = PipelineConfig(folds=2, seed=1)
    report = cross_validate(corpus, config, lexicon=lexicon, trainer=perfect_trainer)
    payload = json.loads(report_to_json(report))
    assert payload["overall_accuracy"] == 1.0
    assert set(payload["per_class"]) == set(LABELS)
    assert payload["config"]["seed"] == 1
    csv_text = report_to_csv(report)
    assert csv_text.splitlines()[0] == "class,precision,recall,f_measure,accuracy"
    text = report_to_text(report)
    assert "overall accuracy" in text
