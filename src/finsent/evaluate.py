"""Corpus ingestion, stratified cross-validation, and metric reporting.

Corpora use the sentence-polarity line format ``sentence@label`` (labels
positive / neutral / negative).  Evaluation is stratified k-fold: every fold's
per-class count is within one example of the proportional share, assignment is
deterministic given the seed, and the union of held-out folds is the corpus.
Reports carry per-class precision / recall / F-measure / one-vs-rest accuracy,
the overall accuracy, the confusion matrix, and a per-fold breakdown.
"""
from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, asdict, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from . import textfile
from .arm import Transaction
from .classify import (
    CLASSES,
    Arrangement,
    ClassifierModel,
    MatchPolicy,
    NEGATIVE,
    Scoring,
    predict,
    train,
)
from .lexicon import Lexicon, load_default_lexicon
from .pos_text import PosTextError, ingest_pretagged, tag_raw
from .semtag import Mode, filter_mode, tag_sentence

__all__ = [
    "CorpusError",
    "FoldError",
    "Corpus",
    "FoldPlan",
    "ClassMetrics",
    "FoldResult",
    "EvalReport",
    "PipelineConfig",
    "load_phrasebank",
    "make_folds",
    "tag_text",
    "tag_corpus",
    "train_model",
    "cross_validate",
    "sweep_confidence",
    "score_predictions",
    "majority_trainer",
    "perfect_trainer",
    "pipeline_trainer",
    "report_to_json",
    "report_to_csv",
    "report_to_text",
    "sweep_to_csv",
]


class CorpusError(ValueError):
    """Raised for malformed corpus files."""


class FoldError(ValueError):
    """Raised for invalid fold requests (k too small, class too small) and for
    a fold plan or transaction list without one entry per corpus sentence."""


@dataclass(frozen=True)
class Corpus:
    """Sentences with gold labels; sentences may be raw text or pre-tagged."""

    texts: tuple
    labels: tuple
    name: str = "corpus"
    pretagged: bool = False

    def __len__(self) -> int:
        return len(self.texts)

    def distribution(self) -> Dict[str, float]:
        counts = Counter(self.labels)
        return {cls: 100.0 * counts.get(cls, 0) / len(self.labels) for cls in CLASSES}


def load_phrasebank(
    path: Union[str, Path],
    encoding: str = "utf-8",
    name: Optional[str] = None,
    pretagged: bool = False,
) -> Corpus:
    """Load a ``sentence@label`` corpus file.

    Decoding errors fall back to replacement characters: the public corpus
    circulates in legacy encodings.  A pre-tagged sentence that
    ``ingest_pretagged`` rejects is a CorpusError naming its line.
    """
    path = Path(path)
    texts: List[str] = []
    labels: List[str] = []
    for lineno, line in textfile.lines(textfile.read(path, encoding)):
        line = line.strip()
        if not line:
            continue
        if "@" not in line:
            raise CorpusError(f"{path}:{lineno}: missing '@' delimiter")
        text, _, label = line.rpartition("@")
        text, label = text.strip(), label.strip().lower()
        if label not in CLASSES:
            raise CorpusError(f"{path}:{lineno}: unknown label {label!r}")
        if not text:
            raise CorpusError(f"{path}:{lineno}: empty sentence")
        if pretagged:
            try:
                ingest_pretagged(text)
            except PosTextError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
        texts.append(text)
        labels.append(label)
    if not texts:
        raise CorpusError(f"{path}: no examples")
    return Corpus(tuple(texts), tuple(labels), name=name or path.stem, pretagged=pretagged)


@dataclass(frozen=True)
class FoldPlan:
    """Example index -> fold index assignment for k folds."""

    k: int
    assignment: tuple
    seed: int

    def fold_indices(self, fold: int) -> List[int]:
        return [i for i, f in enumerate(self.assignment) if f == fold]


def make_folds(corpus: Corpus, k: int, seed: int = 0) -> FoldPlan:
    """Stratified assignment: per-class counts per fold within +-1 of n_c/k."""
    if k < 2:
        raise FoldError(f"fold count must be >= 2, got {k}")
    by_class: Dict[str, List[int]] = {}
    for i, label in enumerate(corpus.labels):
        by_class.setdefault(label, []).append(i)
    for cls, indices in by_class.items():
        if len(indices) < k:
            raise FoldError(f"class {cls!r} has {len(indices)} examples; needs >= {k}")
    rng = random.Random(seed)
    assignment = [0] * len(corpus.labels)
    for cls in sorted(by_class):
        indices = by_class[cls][:]
        rng.shuffle(indices)
        offset = rng.randrange(k)
        for j, idx in enumerate(indices):
            assignment[idx] = (j + offset) % k
    return FoldPlan(k=k, assignment=tuple(assignment), seed=seed)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f_measure: float
    accuracy: float  # one-vs-rest binary accuracy


@dataclass(frozen=True)
class FoldResult:
    fold: int
    accuracy: float
    size: int
    rule_count: int


@dataclass(frozen=True)
class EvalReport:
    per_class: Mapping[str, ClassMetrics]
    overall_accuracy: float
    confusion: Mapping[str, Mapping[str, int]]  # confusion[gold][predicted]
    folds: tuple
    config: Mapping[str, object]
    rule_count: int  # summed over fold models


def _confusion(pairs: Iterable[Tuple[str, str]]) -> Dict[str, Dict[str, int]]:
    matrix = {gold: {pred: 0 for pred in CLASSES} for gold in CLASSES}
    for gold, pred in pairs:
        matrix[gold][pred] += 1
    return matrix


def _metrics(confusion: Mapping[str, Mapping[str, int]]) -> Tuple[Dict[str, ClassMetrics], float]:
    total = sum(sum(row.values()) for row in confusion.values())
    per_class: Dict[str, ClassMetrics] = {}
    correct = sum(confusion[cls][cls] for cls in CLASSES)
    for cls in CLASSES:
        tp = confusion[cls][cls]
        fn = sum(confusion[cls][other] for other in CLASSES) - tp
        fp = sum(confusion[other][cls] for other in CLASSES) - tp
        tn = total - tp - fn - fp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f_measure = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        accuracy = (tp + tn) / total if total else 0.0
        per_class[cls] = ClassMetrics(precision, recall, f_measure, accuracy)
    overall = correct / total if total else 0.0
    return per_class, overall


def score_predictions(pairs: Sequence[Tuple[str, str]], config: Optional[dict] = None) -> EvalReport:
    """Build an EvalReport from (gold, predicted) pairs, e.g. external model output."""
    confusion = _confusion(pairs)
    per_class, overall = _metrics(confusion)
    return EvalReport(
        per_class=per_class,
        overall_accuracy=overall,
        confusion=confusion,
        folds=(),
        config=dict(config or {}),
        rule_count=0,
    )


# ---------------------------------------------------------------------------
# pipeline configuration and trainers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that determines a run, for provenance in reports."""

    mode: Mode = Mode.ALL
    reversal: bool = False
    arrangement: Arrangement = Arrangement.HSC
    minsup: float = 0.5
    minconf: float = 60.0
    match_policy: MatchPolicy = MatchPolicy.EXACT
    scoring: Scoring = Scoring.AVERAGE
    stage2_default: str = NEGATIVE
    folds: int = 10
    seed: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {k: getattr(v, "value", v) for k, v in asdict(self).items()}


def tag_text(
    text: str,
    lexicon: Lexicon,
    mode: Mode = Mode.ALL,
    reversal: bool = False,
    pretagged: bool = False,
) -> frozenset:
    """The semantic tag set of one raw (or ``surface_TAG``) sentence, restricted to ``mode``."""
    sentence = ingest_pretagged(text) if pretagged else tag_raw(text)
    return filter_mode(tag_sentence(sentence, lexicon, reversal=reversal), mode).tags


def tag_corpus(
    corpus: Corpus,
    lexicon: Optional[Lexicon] = None,
    config: Optional[PipelineConfig] = None,
) -> List[Transaction]:
    """Tag every corpus sentence once; returns index-aligned transactions."""
    if lexicon is None:  # an empty Lexicon is falsy, and still the one to tag with
        lexicon = load_default_lexicon()
    config = config or PipelineConfig()
    transactions: List[Transaction] = []
    for text, label in zip(corpus.texts, corpus.labels):
        tags = tag_text(text, lexicon, config.mode, config.reversal, corpus.pretagged)
        transactions.append(Transaction(frozenset(t.value for t in tags), label))
    return transactions


# A trainer maps training transactions to (predict_fn, rule_count).
Trainer = Callable[[Sequence[Transaction]], Tuple[Callable[[Transaction], str], int]]


def train_model(transactions: Sequence[Transaction], config: PipelineConfig) -> ClassifierModel:
    """Train the associative classifier a config describes."""
    return train(
        transactions,
        arrangement=config.arrangement,
        minsup=config.minsup,
        minconf=config.minconf,
        match_policy=config.match_policy,
        scoring=config.scoring,
        stage2_default=config.stage2_default,
    )


def pipeline_trainer(config: PipelineConfig) -> Trainer:
    """The real associative-classifier trainer for a config."""

    def fit(transactions: Sequence[Transaction]):
        model = train_model(transactions, config)
        return (lambda t: predict(model, t.items)), model.rule_count()

    return fit


def majority_trainer(transactions: Sequence[Transaction]):
    """Baseline: always predict the most frequent training label."""
    counts = Counter(t.label for t in transactions)
    order = {cls: i for i, cls in enumerate(CLASSES)}
    majority = min(counts, key=lambda cls: (-counts[cls], order.get(cls, 99)))
    return (lambda t: majority), 0


def perfect_trainer(transactions: Sequence[Transaction]):
    """Upper-bound stub: echoes the gold label."""
    return (lambda t: t.label), 0


def cross_validate(
    corpus: Corpus,
    config: PipelineConfig,
    folds: Optional[FoldPlan] = None,
    lexicon: Optional[Lexicon] = None,
    trainer: Optional[Trainer] = None,
    transactions: Optional[Sequence[Transaction]] = None,
) -> EvalReport:
    """Train on k-1 folds, predict the held-out fold, aggregate the confusion.

    Raises FoldError when ``folds`` or ``transactions`` does not have one
    entry per corpus sentence, or ``folds`` assigns a sentence to no fold
    in ``0..k-1``.
    """
    folds = folds or make_folds(corpus, config.folds, config.seed)
    if transactions is None:
        transactions = tag_corpus(corpus, lexicon, config)
    if not len(folds.assignment) == len(transactions) == len(corpus):
        raise FoldError(f"{len(folds.assignment)} fold assignments and {len(transactions)} transactions "
                        f"for {len(corpus)} sentences; expected one of each per sentence")
    for i, fold in enumerate(folds.assignment):
        if not 0 <= fold < folds.k:
            raise FoldError(f"sentence {i} is assigned fold {fold}; folds run from 0 to {folds.k - 1}")
    trainer = trainer or pipeline_trainer(config)

    pairs: List[Tuple[str, str]] = []
    fold_results: List[FoldResult] = []
    total_rules = 0
    for fold in range(folds.k):
        held_out = folds.fold_indices(fold)
        train_set = [transactions[i] for i, f in enumerate(folds.assignment) if f != fold]
        predict_fn, rule_count = trainer(train_set)
        total_rules += rule_count
        fold_pairs = [(corpus.labels[i], predict_fn(transactions[i])) for i in held_out]
        pairs.extend(fold_pairs)
        hits = sum(1 for gold, pred in fold_pairs if gold == pred)
        fold_results.append(
            FoldResult(fold, hits / len(fold_pairs) if fold_pairs else 0.0, len(fold_pairs), rule_count)
        )

    report = score_predictions(pairs, {**config.as_dict(), "corpus": corpus.name, "examples": len(corpus)})
    return replace(report, folds=tuple(fold_results), rule_count=total_rules)


@dataclass(frozen=True)
class SweepPoint:
    minconf: float
    report: EvalReport


def sweep_confidence(
    corpus: Corpus,
    config: PipelineConfig,
    grid: Sequence[float],
    folds: Optional[FoldPlan] = None,
    lexicon: Optional[Lexicon] = None,
) -> List[SweepPoint]:
    """One cross-validated report per minimum-confidence grid value.

    Tagging and fold assignment are shared across the grid, so points differ
    only in the mined rules.
    """
    for value in grid:
        if not (0.0 < value <= 100.0):
            raise FoldError(f"minconf grid values must be in (0, 100], got {value}")
    folds = folds or make_folds(corpus, config.folds, config.seed)
    transactions = tag_corpus(corpus, lexicon, config)
    points: List[SweepPoint] = []
    for minconf in grid:
        point_config = replace(config, minconf=minconf)
        report = cross_validate(
            corpus, point_config, folds=folds, transactions=transactions
        )
        points.append(SweepPoint(minconf, report))
    return points


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def report_to_json(report: EvalReport) -> str:
    payload = {
        "config": dict(report.config),
        "overall_accuracy": report.overall_accuracy,
        "rule_count": report.rule_count,
        "per_class": {
            cls: asdict(metrics) for cls, metrics in report.per_class.items()
        },
        "confusion": {gold: dict(row) for gold, row in report.confusion.items()},
        "folds": [asdict(f) for f in report.folds],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: EvalReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["class", "precision", "recall", "f_measure", "accuracy"])
    for cls in CLASSES:
        m = report.per_class[cls]
        writer.writerow([cls, f"{m.precision:.4f}", f"{m.recall:.4f}", f"{m.f_measure:.4f}", f"{m.accuracy:.4f}"])
    writer.writerow(["overall", "", "", "", f"{report.overall_accuracy:.4f}"])
    return buf.getvalue()


def report_to_text(report: EvalReport) -> str:
    lines = [f"corpus: {report.config.get('corpus', '?')}  examples: {report.config.get('examples', '?')}"]
    lines.append(f"config: {dict(report.config)}")
    lines.append(f"{'class':<10}{'P':>8}{'R':>8}{'F':>8}{'A':>8}")
    for cls in CLASSES:
        m = report.per_class[cls]
        lines.append(
            f"{cls:<10}{m.precision:>8.3f}{m.recall:>8.3f}{m.f_measure:>8.3f}{m.accuracy:>8.3f}"
        )
    lines.append(f"overall accuracy: {report.overall_accuracy:.4f}")
    lines.append(f"rules mined (all folds): {report.rule_count}")
    lines.append("confusion (rows gold, cols predicted):")
    header = "".join(f"{cls:>10}" for cls in CLASSES)
    lines.append(f"{'':<10}{header}")
    for gold in CLASSES:
        row = "".join(f"{report.confusion[gold][pred]:>10}" for pred in CLASSES)
        lines.append(f"{gold:<10}{row}")
    return "\n".join(lines) + "\n"


def sweep_to_csv(points: Sequence[SweepPoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["minconf", "class", "precision", "recall"])
    for point in points:
        for cls in CLASSES:
            m = point.report.per_class[cls]
            writer.writerow([point.minconf, cls, f"{m.precision:.4f}", f"{m.recall:.4f}"])
    return buf.getvalue()
