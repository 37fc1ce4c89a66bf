import json
import random
from collections import Counter

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


def test_load_phrasebank_distribution(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a@positive\nb@neutral\nc@neutral\nd@negative\n")
    corpus = load_phrasebank(path)
    dist = corpus.distribution()
    assert dist["neutral"] == pytest.approx(50.0)


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


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------


def test_fold_balance_and_partition():
    corpus = small_corpus(60, 25, 15)
    plan = make_folds(corpus, 10, seed=3)
    for fold in range(10):
        counts = Counter(corpus.labels[i] for i in plan.fold_indices(fold))
        assert counts["positive"] == 6
        assert counts["neutral"] in (2, 3)
        assert counts["negative"] in (1, 2)
    assert sorted(sum((plan.fold_indices(f) for f in range(10)), [])) == list(range(100))


def test_fold_determinism():
    corpus = small_corpus()
    assert make_folds(corpus, 4, seed=9) == make_folds(corpus, 4, seed=9)
    assert make_folds(corpus, 4, seed=9) != make_folds(corpus, 4, seed=10)


def test_k_below_two_is_error():
    with pytest.raises(FoldError):
        make_folds(small_corpus(), 1)


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
            got = sum(1 for i in plan.fold_indices(fold) if labels[i] == label)
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


def test_span_contract_guard(monkeypatch):
    """A 10-fold HSC CV trains once per fold and mines each of its two stages once per fold."""
    rng = random.Random(11)
    tags = ["LagInd::UP", "LagInd::DOWN", "POS", "NEG", "LeadInd::UP"]
    transactions = [
        Transaction(frozenset(rng.sample(tags, rng.randint(0, 3))), LABELS[i % 3]) for i in range(60)
    ]
    corpus = Corpus(tuple(dump_transactions(transactions).splitlines()), tuple(t.label for t in transactions))
    counts = Counter()

    def count(owner, attr):
        original = getattr(owner, attr)

        def counting(*args, **kwargs):
            counts[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)

    # the benchmark's tracer wraps the same attributes
    count(evaluate, "train")
    count(classify, "mine_rules")
    count(arm, "mine_frequent")
    cross_validate(corpus, PipelineConfig(folds=10, seed=3), transactions=transactions)
    assert counts == {"train": 10, "mine_rules": 20, "mine_frequent": 20}


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


def test_sweep_empty_grid(lexicon):
    corpus = small_corpus(4, 6, 4)
    assert sweep_confidence(corpus, PipelineConfig(folds=2), [], lexicon=lexicon) == []


def test_sweep_single_point_equals_cross_validate(lexicon):
    corpus = small_corpus(8, 10, 8)
    config = PipelineConfig(folds=2, seed=6, minconf=60.0)
    (point,) = sweep_confidence(corpus, config, [60.0], lexicon=lexicon)
    direct = cross_validate(corpus, config, lexicon=lexicon)
    assert report_to_json(point.report) == report_to_json(direct)


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
