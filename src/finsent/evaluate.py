"""Corpus ingestion, stratified cross-validation, and metric reporting.

Corpora use the sentence-polarity line format ``sentence@label`` (labels
positive / neutral / negative).  Evaluation is stratified k-fold: every fold's
per-class count is within one example of the proportional share, assignment is
deterministic given the seed, and the union of held-out folds is the corpus.
Reports carry per-class precision / recall / F-measure / one-vs-rest accuracy,
the overall accuracy, the confusion matrix, and a per-fold breakdown.
Cross-validation is the one-point case of the minconf sweep: one fold loop
joins each stage's lattice of tidsets and splits it into rules once, reads
each fold's rules through a mask of its training rows, and filters them per
grid value.  A fold model labels each distinct tag set once.
"""
from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, asdict, replace
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from . import textfile
from .arm import DEFAULT_MINCONF, DEFAULT_MINSUP, RuleBase, Transaction
from .classify import (
    CLASSES,
    Arrangement,
    ClassifierModel,
    MatchPolicy,
    NEGATIVE,
    Scoring,
    predict,
    train,
    train_folds,
)
from .lexicon import Lexicon, load_default_lexicon
from .pos_text import PosSentence, PosTextError, ingest_pretagged, tag_raw
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
    "report_to_json",
    "report_to_csv",
    "report_to_text",
    "sweep_to_csv",
]


class CorpusError(ValueError):
    """Raised for malformed corpus files."""


class FoldError(ValueError):
    """Raised for invalid fold requests (k too small, an empty corpus, class too small), a fold
    plan or transaction list without one entry per corpus sentence, or a fold left no training rows."""


@dataclass(frozen=True)
class Corpus:
    """Sentences with gold labels; a sentence is a raw line or a parsed ``PosSentence``."""

    texts: tuple
    labels: tuple
    name: str = "corpus"

    def __len__(self) -> int:
        return len(self.texts)


def load_phrasebank(
    path: Union[str, Path],
    encoding: str = "utf-8",
    name: Optional[str] = None,
    pretagged: bool = False,
) -> Corpus:
    """Load a ``sentence@label`` corpus file.

    Decoding errors fall back to replacement characters: the public corpus
    circulates in legacy encodings.  With ``pretagged``, each sentence is parsed here,
    once, into a ``PosSentence``; one ``ingest_pretagged`` rejects is a CorpusError naming its line.
    """
    path = Path(path)
    texts: List[Union[str, PosSentence]] = []
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
                text = ingest_pretagged(text)
            except PosTextError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
        texts.append(text)
        labels.append(label)
    if not texts:
        raise CorpusError(f"{path}: no examples")
    return Corpus(tuple(texts), tuple(labels), name=name or path.stem)


@dataclass(frozen=True)
class FoldPlan:
    """Example index -> fold index assignment for k folds."""

    k: int
    assignment: tuple

    @cached_property
    def groups(self) -> Dict[int, Tuple[int, ...]]:
        """Each assigned fold's row indices, in order: one pass over the assignment, made once."""
        groups: Dict[int, List[int]] = {}
        for i, fold in enumerate(self.assignment):
            groups.setdefault(fold, []).append(i)
        return {fold: tuple(rows) for fold, rows in groups.items()}


def make_folds(corpus: Corpus, k: int, seed: int = 0) -> FoldPlan:
    """Stratified assignment: per-class counts per fold within +-1 of n_c/k."""
    if k < 2:
        raise FoldError(f"fold count must be >= 2, got {k}")
    if not corpus.labels:
        raise FoldError(f"corpus {corpus.name!r} has no sentences to fold")
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
    return FoldPlan(k=k, assignment=tuple(assignment))


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
        try:
            matrix[gold][pred] += 1
        except KeyError:  # a label outside CLASSES; every pair before this one is counted
            side, label = ("predicted", pred) if gold in matrix else ("gold", gold)
            raise CorpusError(f"pair {sum(sum(row.values()) for row in matrix.values()) + 1}: {side} label "
                              f"{label!r} is not one of {', '.join(CLASSES)}") from None
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


def score_predictions(pairs: Sequence[Tuple[str, str]], config: Optional[dict] = None,
                      folds: Sequence[FoldResult] = ()) -> EvalReport:
    """An EvalReport from (gold, predicted) pairs, e.g. external model output, and their folds, if any."""
    confusion = _confusion(pairs)
    per_class, overall = _metrics(confusion)
    return EvalReport(
        per_class=per_class,
        overall_accuracy=overall,
        confusion=confusion,
        folds=tuple(folds),
        config=dict(config or {}),
        rule_count=sum(f.rule_count for f in folds),
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
    minsup: float = DEFAULT_MINSUP
    minconf: float = DEFAULT_MINCONF
    match_policy: MatchPolicy = MatchPolicy.EXACT
    scoring: Scoring = Scoring.AVERAGE
    stage2_default: str = NEGATIVE
    folds: int = 10
    seed: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {k: getattr(v, "value", v) for k, v in asdict(self).items()}


def tag_text(
    text: Union[str, PosSentence],
    lexicon: Lexicon,
    mode: Mode = Mode.ALL,
    reversal: bool = False,
) -> frozenset:
    """The semantic tag strings of one raw line or parsed sentence, restricted to ``mode``."""
    sentence = text if isinstance(text, PosSentence) else tag_raw(text)
    tagged = filter_mode(tag_sentence(sentence, lexicon, reversal=reversal), mode)
    return frozenset(tag.value for tag in tagged.tags)


def tag_corpus(
    corpus: Corpus,
    lexicon: Optional[Lexicon] = None,
    config: Optional[PipelineConfig] = None,
) -> List[Transaction]:
    """Tag every corpus sentence, raw or parsed, once; returns index-aligned transactions."""
    if lexicon is None:
        lexicon = load_default_lexicon()
    config = config or PipelineConfig()
    return [Transaction(tag_text(text, lexicon, config.mode, config.reversal), label)
            for text, label in zip(corpus.texts, corpus.labels)]


# A trainer maps training transactions to (predict_fn, rule_count).
Trainer = Callable[[Sequence[Transaction]], Tuple[Callable[[Transaction], str], int]]


def _training_options(config: PipelineConfig) -> Dict[str, object]:
    return dict(arrangement=config.arrangement, minsup=config.minsup, minconf=config.minconf,
                match_policy=config.match_policy, scoring=config.scoring, stage2_default=config.stage2_default)


def train_model(transactions: Sequence[Transaction], config: PipelineConfig) -> ClassifierModel:
    """Train the associative classifier a config describes."""
    return train(transactions, **_training_options(config))


def _fold_predictor(model: ClassifierModel) -> Tuple[Callable[[Transaction], str], int]:
    """A trainer's result for ``model``: a predict function that labels each distinct tag set once."""
    label = cache(lambda tags: predict(model, tags))
    return (lambda t: label(t.items)), model.rule_count()


def majority_trainer(transactions: Sequence[Transaction]):
    """Baseline: always predict the most frequent training label."""
    counts = Counter(t.label for t in transactions)
    order = {cls: i for i, cls in enumerate(CLASSES)}
    majority = min(counts, key=lambda cls: (-counts[cls], order.get(cls, 99)))
    return (lambda t: majority), 0


def perfect_trainer(transactions: Sequence[Transaction]):
    """Upper-bound stub: echoes the gold label."""
    return (lambda t: t.label), 0


def _held_out(corpus: Corpus, folds: FoldPlan, transactions: Sequence[Transaction]) -> List[list]:
    """Each fold's rows, in corpus order.

    Raises FoldError unless ``folds`` and ``transactions`` have one entry per
    corpus sentence, ``folds`` puts every sentence in a fold ``0..k-1``, and
    no fold holds every sentence.
    """
    if not len(folds.assignment) == len(transactions) == len(corpus):
        raise FoldError(f"{len(folds.assignment)} fold assignments and {len(transactions)} transactions "
                        f"for {len(corpus)} sentences; expected one of each per sentence")
    for i, fold in enumerate(folds.assignment):
        if not 0 <= fold < folds.k:
            raise FoldError(f"sentence {i} is assigned fold {fold}; folds run from 0 to {folds.k - 1}")
    held_out = [[transactions[i] for i in folds.groups.get(fold, ())] for fold in range(folds.k)]
    for fold, rows in enumerate(held_out):
        if len(rows) == len(corpus):
            raise FoldError(f"fold {fold} leaves no training rows: every sentence is in it")
    return held_out


def _score_folds(corpus: Corpus, config: PipelineConfig, folds: FoldPlan, transactions: Sequence[Transaction],
                 fold_models: Sequence[Tuple[Callable[[Transaction], str], int]]) -> EvalReport:
    """Predict each held-out fold with its ``(predict_fn, rule_count)`` and aggregate the confusion."""
    pairs: List[Tuple[str, str]] = []
    fold_results: List[FoldResult] = []
    for fold, (predict_fn, rule_count) in enumerate(fold_models):
        fold_pairs = [(corpus.labels[i], predict_fn(transactions[i])) for i in folds.groups.get(fold, ())]
        pairs.extend(fold_pairs)
        accuracy = sum(gold == pred for gold, pred in fold_pairs) / len(fold_pairs) if fold_pairs else 0.0
        fold_results.append(FoldResult(fold, accuracy, len(fold_pairs), rule_count))
    return score_predictions(pairs, {**config.as_dict(), "corpus": corpus.name, "examples": len(corpus)},
                             fold_results)


def _at_minconf(model: ClassifierModel, minconf: float) -> ClassifierModel:
    """``model`` as training at ``minconf``, no lower than its own, would mine it:
    each stage keeps its rules of at least that confidence, in the same order."""
    return model._replace(stages={
        stage: RuleBase(tuple(r for r in rb.rules if r.confidence >= minconf), rb.minsup, minconf)
        for stage, rb in model.stages.items()
    })


def _fold_reports(corpus: Corpus, config: PipelineConfig, grid: Sequence[float], folds: Optional[FoldPlan],
                  lexicon: Optional[Lexicon], trainer: Optional[Trainer],
                  transactions: Optional[Sequence[Transaction]]) -> List[EvalReport]:
    """``cross_validate``'s report at each minconf of ``grid``, as ``sweep_confidence`` describes."""
    folds = folds or make_folds(corpus, config.folds, config.seed)
    if not grid:
        return []
    if transactions is None:
        transactions = tag_corpus(corpus, lexicon, config)
    held_out = _held_out(corpus, folds, transactions)
    if trainer is not None:
        models = [trainer([t for t, f in zip(transactions, folds.assignment) if f != fold]) for fold in range(folds.k)]
        return [_score_folds(corpus, config, folds, transactions, models)]
    models = train_folds(held_out, **_training_options(replace(config, minconf=min(grid))))
    return [_score_folds(corpus, replace(config, minconf=minconf), folds, transactions,
                         [_fold_predictor(_at_minconf(model, minconf)) for model in models]) for minconf in grid]


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
    entry per corpus sentence, ``folds`` assigns a sentence to no fold in
    ``0..k-1``, or one fold holds every sentence and so has no training rows.
    """
    return _fold_reports(corpus, config, [config.minconf], folds, lexicon, trainer, transactions)[0]


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
    transactions: Optional[Sequence[Transaction]] = None,
) -> List[SweepPoint]:
    """One cross-validated report per minimum-confidence grid value.

    ``cross_validate`` is its one-point case: both run one fold loop, which
    tags the corpus once, unless ``transactions`` is given, and at the lowest
    grid value joins each stage's lattice, of tidsets only, and splits its
    itemsets into antecedent and class once, reading each fold through a
    mask.  A rule base mined at a higher minconf is the lower one's rules of
    at least that confidence, in the same order (as in CBA), so each point
    filters the fold models.  An empty grid tags nothing and returns ``[]``.
    """
    for value in grid:
        if not (0.0 < value <= 100.0):
            raise FoldError(f"minconf grid values must be in (0, 100], got {value}")
    return list(map(SweepPoint, grid, _fold_reports(corpus, config, grid, folds, lexicon, None, transactions)))


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def report_to_json(report: EvalReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"


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
