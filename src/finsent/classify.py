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
three-class rule base, and one-against-one pairwise voting.
"""
from __future__ import annotations

import json
import os
import shutil
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple, Union

from . import textfile
from .arm import (
    DEFAULT_MINCONF,
    DEFAULT_MINSUP,
    MiningError,
    RuleBase,
    Transaction,
    _check_percent,
    mine_rules,
    parse_rulebase,
    serialize_rulebase,
)
from .semtag import Mode

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


@dataclass(frozen=True)
class ClassScore:
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

STAGE_GATE = "gate"
STAGE_POLARITY = "polarity"
STAGE_MULTICLASS = "multiclass"

# the stage rule bases each arrangement trains and predicts with, in order,
# and the classes each stage separates; the gate's polarized class stands for
# every class but neutral
_STAGES: Dict[Arrangement, Dict[str, Tuple[str, ...]]] = {
    Arrangement.HSC: {STAGE_GATE: (NEUTRAL, POLARIZED), STAGE_POLARITY: (NEGATIVE, POSITIVE)},
    Arrangement.MULTICLASS: {STAGE_MULTICLASS: CLASSES},
    Arrangement.ONE_VS_ONE: {
        "-".join(sorted(pair)): pair
        for pair in ((POSITIVE, NEUTRAL), (POSITIVE, NEGATIVE), (NEUTRAL, NEGATIVE))
    },
}


@dataclass(frozen=True)
class ClassifierModel:
    """Stage rule bases plus the prediction policy knobs."""

    arrangement: Arrangement
    stages: Mapping[str, RuleBase]
    minsup: float = DEFAULT_MINSUP
    minconf: float = DEFAULT_MINCONF
    default_class: str = NEUTRAL
    stage2_default: str = NEGATIVE
    match_policy: MatchPolicy = MatchPolicy.EXACT
    scoring: Scoring = Scoring.AVERAGE

    def rule_count(self) -> int:
        return sum(len(rb) for rb in self.stages.values())


def train(
    transactions: Sequence[Transaction],
    arrangement: Arrangement = Arrangement.HSC,
    minsup: float = DEFAULT_MINSUP,
    minconf: float = DEFAULT_MINCONF,
    match_policy: MatchPolicy = MatchPolicy.EXACT,
    scoring: Scoring = Scoring.AVERAGE,
    stage2_default: str = NEGATIVE,
) -> ClassifierModel:
    """Mine the stage rule bases for the chosen arrangement.

    Raises MiningError for an empty transaction list or a label outside
    CLASSES; warns for each class the transactions lack.
    """
    if not transactions:
        raise MiningError("cannot train on an empty transaction list")
    arrangement = Arrangement(arrangement)
    present = {t.label for t in transactions}
    if not present <= set(CLASSES):
        unknown = ", ".join(repr(label) for label in sorted(present.difference(CLASSES)))
        raise MiningError(f"training labels must be one of {', '.join(CLASSES)}; got {unknown}")
    for cls in CLASSES:
        if cls not in present:
            warnings.warn(f"class {cls!r} absent from training data; it cannot be predicted", stacklevel=2)
    stages: Dict[str, RuleBase] = {}
    for stage, classes in _STAGES[arrangement].items():
        if POLARIZED in classes:
            rows = [Transaction(t.items, NEUTRAL if t.label == NEUTRAL else POLARIZED) for t in transactions]
        else:
            rows = [t for t in transactions if t.label in classes]
        metadata = (("stage", stage),)
        stages[stage] = (
            mine_rules(rows, minsup, minconf, classes=classes, metadata=metadata) if rows
            else RuleBase((), minsup=minsup, minconf=minconf, metadata=metadata)
        )

    return ClassifierModel(
        arrangement=arrangement,
        stages=stages,
        minsup=minsup,
        minconf=minconf,
        stage2_default=stage2_default,
        match_policy=MatchPolicy(match_policy),
        scoring=Scoring(scoring),
    )


def predict(model: ClassifierModel, tags: FrozenSet[str]) -> str:
    """Predict positive / neutral / negative for one tag set."""
    tags = frozenset(tags)
    policy, scoring = model.match_policy, model.scoring

    if model.arrangement is Arrangement.HSC:
        gate = predict_flat(tags, model.stages[STAGE_GATE], model.default_class, policy, scoring)
        if gate != POLARIZED:
            return gate
        return predict_flat(tags, model.stages[STAGE_POLARITY], model.stage2_default, policy, scoring)

    if model.arrangement is Arrangement.MULTICLASS:
        return predict_flat(tags, model.stages[STAGE_MULTICLASS], model.default_class, policy, scoring)

    votes: Dict[str, int] = {}
    for stage, pair in _STAGES[Arrangement.ONE_VS_ONE].items():
        vote = predict_flat(tags, model.stages[stage], min(pair, key=_TIE_RANK.get), policy, scoring)
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
        "minsup": model.minsup,
        "minconf": model.minconf,
        "default_class": model.default_class,
        "stage2_default": model.stage2_default,
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
    FileExistsError is raised and nothing is written.
    """
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


def _manifest_percent(manifest: dict, key: str) -> float:
    try:
        percent = float(manifest[key])
    except (TypeError, ValueError):
        raise ValueError(f"{key} {manifest[key]!r} is not a number") from None
    _check_percent(percent, key)
    return percent


def load_model(directory: Union[str, Path]) -> Tuple[ClassifierModel, dict]:
    """Load a model directory; returns (model, manifest).

    Raises ModelFormatError for a missing or malformed manifest, including a
    default class outside CLASSES, a ``tagging`` section that is not an
    object or whose ``mode`` is not a Mode, a ``stages`` section that is not
    an object whose keys are exactly the arrangement's stage names, a stage
    file that is not a plain file name inside ``directory``, a rule whose
    class is not one of its stage's classes, and a value of the wrong JSON
    type (``"minsup": null``, a ``tagging.reversal`` that is not a bool) or a
    threshold outside (0, 100].  The message names the offending key, or the
    stage file and the class.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise ModelFormatError(f"{directory}: no {_MANIFEST}")
    try:
        manifest = json.loads(textfile.read(manifest_path, error=ModelFormatError))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{manifest_path}: invalid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ModelFormatError(f"{manifest_path}: expected a JSON object")
    if manifest.get("format") != "finsent-model/1":
        raise ModelFormatError(f"{manifest_path}: unsupported format {manifest.get('format')!r}")
    try:
        for key in ("default_class", "stage2_default"):
            if manifest[key] not in CLASSES:
                raise ValueError(f"{key} {manifest[key]!r} is not one of {', '.join(CLASSES)}")
        tagging = manifest.get("tagging", {})
        if not isinstance(tagging, dict):
            raise ValueError(f"tagging {tagging!r} is not an object")
        mode = tagging.get("mode", Mode.ALL.value)
        if mode not in {m.value for m in Mode}:
            raise ValueError(f"tagging.mode {mode!r} is not one of {', '.join(m.value for m in Mode)}")
        # the entries `finsent predict` reads
        for key, kind in (("lexicon", str), ("reversals", str), ("reversal", bool), ("pretagged", bool)):
            if not isinstance(tagging.get(key, kind()), kind):
                raise ValueError(f"tagging.{key} {tagging[key]!r} is not a {kind.__name__}")
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
            stages[stage] = parse_rulebase(textfile.read(directory / filename, error=ValueError))
            classes = _STAGES[arrangement][stage]
            for rule in stages[stage].rules:
                if rule.consequent not in classes:
                    raise ValueError(f"{filename}: rule class {rule.consequent!r} is not one of "
                                     f"{', '.join(classes)} of stage {stage!r}")
        model = ClassifierModel(
            arrangement=arrangement,
            stages=stages,
            minsup=_manifest_percent(manifest, "minsup"),
            minconf=_manifest_percent(manifest, "minconf"),
            default_class=manifest["default_class"],
            stage2_default=manifest["stage2_default"],
            match_policy=MatchPolicy(manifest["match_policy"]),
            scoring=Scoring(manifest["scoring"]),
        )
    except (KeyError, ValueError, OSError, TypeError) as exc:
        raise ModelFormatError(f"{directory}: malformed model: {exc}") from None
    return model, manifest
