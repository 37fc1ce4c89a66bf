"""Polarity prediction from ordered rule bases.

``predict_flat`` scores a tag set against the rules that match it: a rule
whose antecedent equals the complete tag set matches, and so does a rule
whose single-item antecedent is one of the tags.  Each rule base indexes its
rules by antecedent once, so a prediction looks up the tag set and each of
its tags instead of testing every rule.  Matched rules contribute their
confidence to their class; the class with the highest average confidence
wins, with ties resolved neutral, then negative, then positive.  With no
match the default class is returned.

Three arrangements are supported: a hierarchical classifier (stage one
separates neutral from polarized, stage two positive from negative), a flat
three-class rule base, and one-against-one pairwise voting.  A stage with no
matching rule answers its class that comes first in the tie order: the gate
neutral, the polarity stage negative.
"""
from __future__ import annotations

import json
import os
import shutil
import warnings
from enum import Enum
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from . import textfile
from .arm import (
    DEFAULT_MINCONF,
    DEFAULT_MINSUP,
    MiningError,
    RuleBase,
    RuleBaseFormatError,
    Transaction,
    mine_fold_rules,
    mine_rules,
    parse_rulebase,
    serialize_rulebase,
)

__all__ = [
    "POSITIVE",
    "NEUTRAL",
    "NEGATIVE",
    "POLARIZED",
    "CLASSES",
    "Arrangement",
    "MatchPolicy",
    "Scoring",
    "ClassScore",
    "ClassifierModel",
    "ModelFormatError",
    "score_tags",
    "predict_flat",
    "train",
    "train_folds",
    "predict",
    "save_model",
    "load_model",
]

POSITIVE = "positive"
NEUTRAL = "neutral"
NEGATIVE = "negative"
POLARIZED = "polarized"
CLASSES = (POSITIVE, NEUTRAL, NEGATIVE)

# Deterministic tie resolution between equal class scores.
TIE_ORDER = (NEUTRAL, NEGATIVE, POSITIVE, POLARIZED)
_TIE_RANK = {cls: i for i, cls in enumerate(TIE_ORDER)}


class ModelFormatError(ValueError):
    """Raised when a persisted model directory cannot be loaded."""


class Arrangement(str, Enum):
    HSC = "hsc"
    MULTICLASS = "multiclass"
    ONE_VS_ONE = "ovo"


class MatchPolicy(str, Enum):
    """How rule antecedents are matched against a tag set."""

    EXACT = "exact"  # full-set equality, else single-tag antecedents per tag
    SUBSET = "subset"  # antecedent is a subset of the tag set


class Scoring(str, Enum):
    AVERAGE = "average"  # confidence sum / match count
    SUM = "sum"


class ClassScore(NamedTuple):
    """Accumulated confidence per class: (sum, match count) pairs."""

    sums: Mapping[str, float]
    counts: Mapping[str, int]


def score_tags(
    tags: FrozenSet[str],
    rb: RuleBase,
    match_policy: MatchPolicy = MatchPolicy.EXACT,
) -> ClassScore:
    """Accumulate rule confidences per class for one tag set.

    Under the exact policy a rule matches when its antecedent is the whole
    tag set or one tag of it, so the matches are read from ``rb.index``; the
    subset policy scans every rule.  Matches are added in rule-base order
    either way, so every float sum keeps its bits.
    """
    tags = frozenset(tags)
    if match_policy is MatchPolicy.SUBSET:
        matched = [rule for rule in rb.rules if rule.antecedent <= tags]
    else:
        index = rb.index
        positions = list(index.get(tags, ()))
        if len(tags) > 1:
            for tag in tags:
                positions += index.get(frozenset((tag,)), ())
        positions.sort()
        matched = [rb.rules[position] for position in positions]
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for rule in matched:
        sums[rule.consequent] = sums.get(rule.consequent, 0.0) + rule.confidence
        counts[rule.consequent] = counts.get(rule.consequent, 0) + 1
    return ClassScore(sums, counts)


def predict_flat(
    tags: FrozenSet[str],
    rb: RuleBase,
    default: str = NEUTRAL,
    match_policy: MatchPolicy = MatchPolicy.EXACT,
    scoring: Scoring = Scoring.AVERAGE,
) -> str:
    """Predict a class for one tag set against one rule base."""
    score = score_tags(tags, rb, match_policy)
    if not score.sums:
        return default
    if Scoring(scoring) is Scoring.SUM:
        value = score.sums
    else:
        value = {cls: total / score.counts[cls] for cls, total in score.sums.items()}
    return min(value, key=lambda cls: (-value[cls], _TIE_RANK.get(cls, len(_TIE_RANK)), cls))


# ---------------------------------------------------------------------------
# classifier arrangements
# ---------------------------------------------------------------------------

# the stage rule bases each arrangement trains and predicts with, in order,
# and the classes each stage separates; the gate's polarized class stands for
# every class but neutral
_STAGES: Dict[Arrangement, Dict[str, Tuple[str, ...]]] = {
    Arrangement.HSC: {"gate": (NEUTRAL, POLARIZED), "polarity": (NEGATIVE, POSITIVE)},
    Arrangement.MULTICLASS: {"multiclass": CLASSES},
    Arrangement.ONE_VS_ONE: {
        "-".join(sorted(pair)): pair
        for pair in ((POSITIVE, NEUTRAL), (POSITIVE, NEGATIVE), (NEUTRAL, NEGATIVE))
    },
}
# each stage's answer when no rule matches: its class that comes first in tie order
_DEFAULTS: Dict[Arrangement, Dict[str, str]] = {
    arrangement: {stage: min(classes, key=_TIE_RANK.get) for stage, classes in stages.items()}
    for arrangement, stages in _STAGES.items()
}


class ClassifierModel(NamedTuple):
    """Stage rule bases plus the prediction policy knobs."""

    arrangement: Arrangement
    stages: Mapping[str, RuleBase]
    match_policy: MatchPolicy = MatchPolicy.EXACT
    scoring: Scoring = Scoring.AVERAGE

    def rule_count(self) -> int:
        return sum(len(rb) for rb in self.stages.values())


def _stages(transactions: Iterable[Transaction], arrangement: Arrangement) -> Tuple[Dict[str, int], Dict[str, list]]:
    """Each label's row count (each class of CLASSES first) and each stage's rows: one pass splits the
    rows by label, and a stage takes its classes' rows in turn, the gate's polarized class every class's
    but neutral's."""
    groups: Dict[str, list] = {cls: [] for cls in CLASSES}
    for t in transactions:
        groups.setdefault(t.label, []).append(t)
    counts = {label: len(rows) for label, rows in groups.items()}
    if arrangement is Arrangement.HSC:
        groups[POLARIZED] = [Transaction(t.items, POLARIZED) for t in groups[POSITIVE] + groups[NEGATIVE]]
    return counts, {stage: [t for cls in classes for t in groups[cls]]
                    for stage, classes in _STAGES[arrangement].items()}


def _check_labels(counts: Mapping[str, int]) -> None:
    """Raise MiningError for no rows or a label outside CLASSES; warn for each class with no rows."""
    if not any(counts.values()):
        raise MiningError("cannot train on an empty transaction list")
    unknown = ", ".join(repr(label) for label in sorted(counts.keys() - CLASSES) if counts[label])
    if unknown:
        raise MiningError(f"training labels must be one of {', '.join(CLASSES)}; got {unknown}")
    for cls in CLASSES:
        if not counts[cls]:
            warnings.warn(f"class {cls!r} absent from training data; no rule predicts it", stacklevel=3)


def train(
    transactions: Sequence[Transaction],
    arrangement: Arrangement = Arrangement.HSC,
    minsup: float = DEFAULT_MINSUP,
    minconf: float = DEFAULT_MINCONF,
    match_policy: MatchPolicy = MatchPolicy.EXACT,
    scoring: Scoring = Scoring.AVERAGE,
) -> ClassifierModel:
    """Mine the stage rule bases for the chosen arrangement.

    Each stage is mined from its rows (see ``_stages``).  Raises MiningError
    for an empty transaction list or a label outside CLASSES; warns for each
    class the rows lack.
    """
    arrangement = Arrangement(arrangement)
    counts, stage_rows = _stages(transactions, arrangement)
    _check_labels(counts)
    stages = {stage: mine_rules(rows, minsup, minconf, classes=_STAGES[arrangement][stage]) if rows
              else RuleBase((), minsup=minsup, minconf=minconf) for stage, rows in stage_rows.items()}
    return ClassifierModel(arrangement, stages, MatchPolicy(match_policy), Scoring(scoring))


def train_folds(
    held_out: Sequence[Sequence[Transaction]],
    arrangement: Arrangement = Arrangement.HSC,
    minsup: float = DEFAULT_MINSUP,
    minconf: float = DEFAULT_MINCONF,
    match_policy: MatchPolicy = MatchPolicy.EXACT,
    scoring: Scoring = Scoring.AVERAGE,
) -> List[ClassifierModel]:
    """For each fold's held-out rows, the model ``train`` gives on every other fold's rows, with its
    errors and warnings: ``mine_fold_rules`` mines each stage once for every fold."""
    arrangement = Arrangement(arrangement)
    folds = [_stages(rows, arrangement) for rows in held_out]
    labels = {label for counts, _ in folds for label in counts}
    for counts, _ in folds:
        _check_labels({label: sum(c.get(label, 0) for c, _ in folds) - counts.get(label, 0) for label in labels})
    bases = {stage: mine_fold_rules([stage_rows[stage] for _, stage_rows in folds], minsup, minconf, classes)
             for stage, classes in _STAGES[arrangement].items()}
    return [ClassifierModel(arrangement, {stage: rbs[fold] for stage, rbs in bases.items()},
                            MatchPolicy(match_policy), Scoring(scoring)) for fold in range(len(folds))]


def predict(model: ClassifierModel, tags: FrozenSet[str]) -> str:
    """Predict positive / neutral / negative for one tag set: the stages answer in table order, one with
    no matching rule its class first in tie order.  HSC returns its first answer that is not polarized;
    the other arrangements vote (multiclass has one stage), ties broken by tie order."""
    tags = frozenset(tags)
    policy, scoring = model.match_policy, model.scoring
    cascade = model.arrangement is Arrangement.HSC
    votes: Dict[str, int] = {}
    for stage, default in _DEFAULTS[model.arrangement].items():
        vote = predict_flat(tags, model.stages[stage], default, policy, scoring)
        if cascade and vote != POLARIZED:
            return vote
        votes[vote] = votes.get(vote, 0) + 1
    return min(votes, key=lambda cls: (-votes[cls], _TIE_RANK.get(cls, len(_TIE_RANK))))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_MANIFEST = "manifest.json"


def _write_model(model: ClassifierModel, directory: Path, tagging: Optional[dict]) -> None:
    stage_files = {}
    for stage, rb in model.stages.items():
        filename = f"{stage}.rules"
        (directory / filename).write_text(serialize_rulebase(rb), encoding="utf-8")
        stage_files[stage] = filename
    manifest = {
        "format": "finsent-model/1",
        "arrangement": model.arrangement.value,
        "stage2_default": NEGATIVE,
        "match_policy": model.match_policy.value,
        "scoring": model.scoring.value,
        "stages": stage_files,
        "tagging": tagging or {},
    }
    (directory / _MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _sibling(path: Path) -> Path:
    """A fresh hidden name beside ``path``."""
    return path.parent / f".{path.name}.{os.urandom(8).hex()}"


def save_model(model: ClassifierModel, directory: Union[str, Path], tagging: Optional[dict] = None) -> Path:
    """Write a model directory: manifest.json plus one rules file per stage.

    The files are written to a new directory beside ``directory``, which is
    then renamed into place, so a failed save leaves no partial model and an
    existing model at ``directory`` intact.  An existing ``directory`` is
    replaced as a whole; it must be empty or hold a ``manifest.json``, else
    FileExistsError is raised and nothing is written.  So is TypeError for a
    ``tagging`` that is not a dict; load_model returns ``tagging`` unread.
    """
    if not isinstance(tagging, (dict, type(None))):
        raise TypeError(f"tagging {tagging!r} is not a dict")
    directory = Path(directory)
    target = Path(os.path.abspath(directory))
    if target.exists() and not (
        target.is_dir() and ((target / _MANIFEST).is_file() or not any(target.iterdir()))
    ):
        raise FileExistsError(f"{directory}: exists and is not a model directory; not replacing it")
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = _sibling(target)
    staging.mkdir()
    try:
        _write_model(model, staging, tagging)
        if target.exists():
            # rename(2) replaces only an empty directory: move the old model aside first
            retired = _sibling(target)
            target.rename(retired)
            try:
                staging.rename(target)
            except OSError:
                retired.rename(target)
                raise
            shutil.rmtree(retired)
        else:
            staging.rename(target)
    finally:
        if staging.exists():
            shutil.rmtree(staging)
    return directory


def load_model(directory: Union[str, Path]) -> Tuple[ClassifierModel, dict]:
    """Load a model directory; returns (model, manifest).

    Raises ModelFormatError for a missing or malformed manifest, including a
    ``stage2_default`` other than negative, an older manifest's ``default_class``
    other than neutral, a ``tagging`` section that is not an object (its
    entries are returned unread), a ``stages`` section that is not an object
    whose keys are exactly the arrangement's stage names, a stage file that is
    not a plain file name inside ``directory`` or that parse_rulebase rejects,
    a rule whose class is not one of its stage's classes, and a value of the
    wrong JSON type.  The message names the offending key, or the stage file
    and the class or line.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise ModelFormatError(f"{directory}: no {_MANIFEST}")
    text = textfile.read(manifest_path, error=ModelFormatError)
    try:
        manifest = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise ModelFormatError(f"{manifest_path}: invalid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ModelFormatError(f"{manifest_path}: expected a JSON object")
    if manifest.get("format") != "finsent-model/1":
        raise ModelFormatError(f"{manifest_path}: unsupported format {manifest.get('format')!r}")
    try:
        # the polarity stage's default is fixed; older manifests also hold minsup and minconf,
        # left unread since each stage file's headers hold them, and a default_class always neutral
        if manifest["stage2_default"] != NEGATIVE:
            raise ValueError(f"stage2_default {manifest['stage2_default']!r} is not {NEGATIVE!r}")
        if manifest.get("default_class", NEUTRAL) != NEUTRAL:
            raise ValueError(f"default_class {manifest['default_class']!r} is not {NEUTRAL!r}")
        if not isinstance(manifest.get("tagging", {}), dict):
            raise ValueError(f"tagging {manifest['tagging']!r} is not an object")
        arrangement = Arrangement(manifest["arrangement"])
        files = manifest["stages"]
        if not isinstance(files, dict) or sorted(files) != sorted(_STAGES[arrangement]):
            raise ValueError(
                f"stages {files!r} is not an object with the keys "
                f"{', '.join(_STAGES[arrangement])} of arrangement {arrangement.value!r}"
            )
        stages = {}
        for stage, filename in files.items():
            if not isinstance(filename, str) or filename in ("", "..") or Path(filename).name != filename:
                raise ValueError(f"stages.{stage} {filename!r} is not a plain file name")
            try:
                stages[stage] = parse_rulebase(textfile.read(directory / filename, error=ValueError))
            except RuleBaseFormatError as exc:
                raise ValueError(f"{filename}: {exc}") from None
            classes = _STAGES[arrangement][stage]
            for rule in stages[stage].rules:
                if rule.consequent not in classes:
                    raise ValueError(f"{filename}: rule class {rule.consequent!r} is not one of "
                                     f"{', '.join(classes)} of stage {stage!r}")
        model = ClassifierModel(
            arrangement=arrangement,
            stages=stages,
            match_policy=MatchPolicy(manifest["match_policy"]),
            scoring=Scoring(manifest["scoring"]),
        )
    except (KeyError, ValueError, OSError, TypeError) as exc:
        raise ModelFormatError(f"{directory}: malformed model: {exc}") from None
    return model, manifest
