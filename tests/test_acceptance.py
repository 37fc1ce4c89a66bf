"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with the measured numbers (visible with ``pytest -rA`` or ``-s``).

Scale criteria run on the bundled synthetic corpus, which reproduces the
public benchmark's size and class distribution exactly (2259 sentences;
13.4 / 61.4 / 25.2); the real corpus file is not redistributable but loads
through the same ``sentence@label`` reader.
"""
import json
import random
import time
from pathlib import Path

import pytest

import reference_chunker as ref
from oracles import brute_force_rules
from sample_data import KNOWN_RULES, KNOWN_RULES_TEXT, SAMPLE_TRANSACTIONS
from finsent.arm import Transaction, mine_rules, parse_rulebase
from finsent.chunker import bundled_grammar, bundled_grammar_source, chunk, to_bracket
from finsent.classify import predict_flat
from finsent.evaluate import (
    PipelineConfig,
    cross_validate,
    majority_trainer,
    make_folds,
    score_predictions,
    sweep_confidence,
)
from finsent.lexicon import LexCategory, Lexicon
from finsent.pos_text import ingest_pretagged, tag_raw
from finsent.semtag import Mode, SemTag, filter_mode, flip_direction, tag_sentence

GOLDENS = json.loads((Path(__file__).parent / "data" / "chunk_goldens.json").read_text())
CLASSES = {"positive", "neutral", "negative"}


def test_criterion_1_rule_mining_oracle():
    """Mining the six-transaction sample database reproduces the seven
    illustrative rules with exact statistics, and the complete output equals
    exhaustive enumeration."""
    start = time.monotonic()
    rb = mine_rules(SAMPLE_TRANSACTIONS, minsup=16.0, minconf=60.0)
    elapsed = time.monotonic() - start

    mined = {(r.antecedent, r.consequent): r for r in rb.rules}
    for antecedent, consequent, support, confidence in KNOWN_RULES:
        rule = mined[(antecedent, consequent)]
        assert abs(rule.support - support) <= 0.01, rule
        assert abs(rule.confidence - confidence) <= 0.01, rule

    baskets = [t.basket for t in SAMPLE_TRANSACTIONS]
    got = {(r.antecedent, r.consequent, r.support, r.confidence) for r in rb.rules}
    assert got == brute_force_rules(baskets, 16.0, 60.0, CLASSES)

    keys = [r.sort_key() for r in rb.rules]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert elapsed < 0.25
    print(f"[criterion 1] PASS rule-mining oracle: 7 reference rules exact, "
          f"{len(rb)} rules total == brute force, {elapsed * 1000:.1f} ms")


def test_criterion_2_prediction_oracle():
    """Algorithm oracle against the seven-rule base: the worked example and
    the hand-traced cases."""
    rb = parse_rulebase(KNOWN_RULES_TEXT)
    start = time.monotonic()
    assert predict_flat(frozenset({"LagInd::UP"}), rb) == "positive"
    assert predict_flat(frozenset(), rb) == "neutral"
    assert predict_flat(frozenset({"LagInd", "POS"}), rb) == "neutral"
    assert predict_flat(frozenset({"UP", "POS"}), rb) == "neutral"
    elapsed = time.monotonic() - start
    assert elapsed < 0.25
    print(f"[criterion 2] PASS prediction oracle: 4/4 cases, {elapsed * 1000:.2f} ms")


def test_criterion_3_numeric_and_reversal_oracle(lexicon):
    """Numeric-comparison tagging and directionality reversal, with both a
    minimal lexicon and the bundled one."""
    mini = Lexicon(entries={"operating profit": LexCategory.LAGIND})
    text = "Operating profit margin was 8.3 %, compared to 11.8 % a year earlier"
    assert tag_sentence(tag_raw(text), mini).tags == {SemTag.LAGIND_DOWN}
    assert tag_sentence(tag_raw(text), lexicon).tags == {SemTag.LAGIND_DOWN}

    flip_text = "Unit costs for flight operations fell by 6.4 percent"
    assert tag_sentence(tag_raw(flip_text), lexicon, reversal=False).tags == {SemTag.LAGIND_DOWN}
    assert tag_sentence(tag_raw(flip_text), lexicon, reversal=True).tags == {SemTag.LAGIND_UP}
    print("[criterion 3] PASS numeric comparison -> LagInd::DOWN; "
          "reversal flips LagInd::DOWN -> LagInd::UP")


def test_criterion_4_bruteforce_miner_equivalence():
    """200 random instances (<=12 transactions over <=8 items): level-wise
    mining plus rule generation equals exhaustive enumeration, in under 10 s."""
    rng = random.Random(987654321)
    items = ["t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"]
    start = time.monotonic()
    for _ in range(200):
        pool = items[: rng.randint(2, 8)]
        classes = ["positive", "neutral", "negative"][: rng.randint(2, 3)]
        transactions = [
            Transaction(
                frozenset(rng.sample(pool, rng.randint(0, min(4, len(pool))))),
                rng.choice(classes),
            )
            for _ in range(rng.randint(1, 12))
        ]
        minsup = rng.choice([5.0, 10.0, 20.0, 34.0, 50.0])
        minconf = rng.choice([50.0, 60.0, 75.0, 90.0, 100.0])
        rb = mine_rules(transactions, minsup, minconf, classes=set(classes))
        got = {(r.antecedent, r.consequent, r.support, r.confidence) for r in rb.rules}
        want = brute_force_rules([t.basket for t in transactions], minsup, minconf, set(classes))
        assert got == want
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"[criterion 4] PASS miner == brute force on 200 random instances in {elapsed:.1f} s")


def test_criterion_5_grammar_golden_suite():
    """Both bundled grammars compile; the frozen golden corpus matches the
    production chunker and the independent reference implementation."""
    assert bundled_grammar("indicator_direction")[-1].label == "NPJJ"
    assert "CD" in tuple(rule.label for rule in bundled_grammar("numeric_direction"))
    assert len(GOLDENS) >= 30
    for golden in GOLDENS:
        sentence = ingest_pretagged(golden["pretagged"])
        assert to_bracket(chunk(bundled_grammar(golden["grammar"]), sentence)) == golden["tree"]
        rules = ref.parse_grammar(bundled_grammar_source(golden["grammar"]))
        tagged = [tuple(u.rsplit("_", 1)) for u in golden["pretagged"].split()]
        assert ref.to_bracket(ref.chunk_sentence(rules, tagged)) == golden["tree"]
    print(f"[criterion 5] PASS {len(GOLDENS)} golden chunk trees match production "
          "and reference chunkers")


def test_criterion_6_evaluation_identities(benchmark_corpus, lexicon):
    """Metric hand-example, fold balance over 100 random corpora, and the
    majority baseline's accuracy on the benchmark-shaped corpus."""
    report = score_predictions(
        [("positive", "positive")] * 5 + [("positive", "neutral")] * 1
        + [("neutral", "positive")] * 2 + [("neutral", "neutral")] * 10
        + [("neutral", "negative")] * 1
        + [("negative", "neutral")] * 1 + [("negative", "negative")] * 4
    )
    assert report.per_class["positive"].precision == pytest.approx(5 / 7)
    assert report.per_class["positive"].recall == pytest.approx(5 / 6)
    assert report.overall_accuracy == pytest.approx(19 / 24)

    rng = random.Random(24601)
    for _ in range(100):
        k = rng.randint(2, 10)
        labels = []
        for label in CLASSES:
            labels += [label] * rng.randint(k, 5 * k)
        rng.shuffle(labels)
        from finsent.evaluate import Corpus

        corpus = Corpus(tuple("x" for _ in labels), tuple(labels))
        plan = make_folds(corpus, k, seed=rng.randint(0, 10**6))
        for label in CLASSES:
            total = labels.count(label)
            for fold in range(k):
                got = sum(1 for i in plan.groups.get(fold, ()) if labels[i] == label)
                assert abs(got - total / k) <= 1

    config = PipelineConfig(folds=10, seed=7)
    folds = make_folds(benchmark_corpus, 10, 7)
    majority = cross_validate(
        benchmark_corpus, config, folds=folds, lexicon=lexicon, trainer=majority_trainer
    )
    assert abs(majority.overall_accuracy - 0.614) <= 0.005
    print(f"[criterion 6] PASS metric identities; fold balance x100; "
          f"majority baseline accuracy {majority.overall_accuracy:.4f} (0.614 +- 0.005)")


def test_criterion_7_end_to_end_pipeline(benchmark_corpus, lexicon):
    """Full hierarchical pipeline under stratified 10-fold CV: finishes in
    under five minutes, beats the majority baseline, and shows the
    confidence-sweep trade-off (rule count never increases; the positive-class
    precision curve is reported and non-decreasing in at least 3 of 4 steps).

    The published per-class figures for the real corpus are not gated here:
    they depend on unpublished word lists, and this run uses the reconstructed
    lexicon on the benchmark-shaped synthetic corpus.
    """
    config = PipelineConfig(folds=10, seed=7)
    folds = make_folds(benchmark_corpus, 10, 7)
    start = time.monotonic()
    report = cross_validate(benchmark_corpus, config, folds=folds, lexicon=lexicon)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    assert report.overall_accuracy > 0.614

    grid = [60.0, 70.0, 80.0, 90.0]
    points = sweep_confidence(benchmark_corpus, config, grid, folds=folds, lexicon=lexicon)
    rule_counts = [p.report.rule_count for p in points]
    assert rule_counts == sorted(rule_counts, reverse=True)  # hard invariant
    precisions = [p.report.per_class["positive"].precision for p in points]
    non_decreasing_steps = sum(1 for a, b in zip(precisions, precisions[1:]) if b >= a)
    curve = ", ".join(
        f"minconf={p.minconf:g}: rules={c} P(pos)={q:.4f}"
        for p, c, q in zip(points, rule_counts, precisions)
    )
    print(f"[criterion 7] observed precision curve: {curve}")
    assert non_decreasing_steps >= 3
    print(f"[criterion 7] PASS end-to-end CV in {elapsed:.1f} s, accuracy "
          f"{report.overall_accuracy:.4f} > 0.614; rule counts non-increasing "
          f"{rule_counts}; precision non-decreasing in "
          f"{non_decreasing_steps}/{len(precisions) - 1} steps")


def test_criterion_8_mode_monotonicity_and_involution(benchmark_corpus, lexicon):
    """Mode filtering is monotone on every corpus sentence; flipping
    directions twice is the identity on 1000 random tag sets."""
    for text in benchmark_corpus.texts:
        tagged = tag_sentence(tag_raw(text), lexicon)
        lag = filter_mode(tagged, Mode.LAG_ONLY).tags
        lag_lead = filter_mode(tagged, Mode.LAG_LEAD).tags
        everything = filter_mode(tagged, Mode.ALL).tags
        assert lag <= lag_lead <= everything == tagged.tags

    rng = random.Random(5150)
    pool = list(SemTag)
    for _ in range(1000):
        tags = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
        assert {flip_direction(flip_direction(t)) for t in tags} == set(tags)
    print(f"[criterion 8] PASS mode monotone on {len(benchmark_corpus)} sentences; "
          "reversal involution on 1000 random tag sets")
