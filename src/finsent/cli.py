"""Command-line front end: tag, train, predict, evaluate, sweep.

Exit codes: 0 success, 2 configuration error (bad flags, missing lexicon or
model), 3 data error (malformed corpus or rule files, degenerate training
data).  Every run is deterministic given its flags; reports embed the full
configuration so results can be replayed.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import textfile
from .arm import MiningError, RuleBaseFormatError
from .chunker import GrammarError
from .classify import (
    CLASSES,
    Arrangement,
    MatchPolicy,
    ModelFormatError,
    Scoring,
    load_model,
    predict,
    save_model,
)
from .evaluate import (
    CorpusError,
    FoldError,
    PipelineConfig,
    cross_validate,
    load_phrasebank,
    majority_trainer,
    perfect_trainer,
    report_to_csv,
    report_to_json,
    report_to_text,
    score_predictions,
    sweep_confidence,
    sweep_to_csv,
    tag_corpus,
    tag_text,
    train_model,
)
from .lexicon import LexiconError, Lexicon, default_lexicon_paths, load_default_lexicon, load_lexicon
from .pos_text import PosTextError
from .semtag import Mode, canonical_order

CONFIG_ERRORS = (LexiconError, GrammarError, ModelFormatError, FileNotFoundError, FileExistsError,
                 IsADirectoryError, NotADirectoryError, PermissionError)
DATA_ERRORS = (CorpusError, FoldError, MiningError, RuleBaseFormatError, PosTextError)


def _percent(value: str) -> float:
    number = float(value)
    if not (0.0 < number <= 100.0):
        raise argparse.ArgumentTypeError(f"must be in (0, 100], got {value}")
    return number


def _percent_grid(value: str) -> tuple:
    """Comma-separated percents, each in (0, 100]; empty items are skipped."""
    grid = tuple(_percent(item) for item in value.split(",") if item.strip())
    if not grid:
        raise argparse.ArgumentTypeError(f"needs at least one value, got {value!r}")
    return grid


def _fold_count(value: str) -> int:
    number = int(value)
    if number < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {value}")
    return number


def _encoding(value: str) -> str:
    """A text codec name Python knows, kept as given."""
    if not textfile.is_text_encoding(value):
        raise argparse.ArgumentTypeError(f"unknown encoding {value!r}: not a text codec Python knows")
    return value


def _load_lexicon(lexicon_path: Optional[str], reversals_path: Optional[str]) -> Lexicon:
    """The given lexicon, else the bundled (or $FINSENT_LEXICON_DIR) one.

    A given ``reversals_path`` replaces the default reversal file and must
    exist; an empty one is not given, as in a model's tagging record.
    """
    if lexicon_path or reversals_path:
        return load_lexicon(lexicon_path or default_lexicon_paths()[0], reversals_path)
    return load_default_lexicon()


def _read_lines(source: Optional[str], encoding: str) -> List[Tuple[int, str]]:
    """The non-blank lines of a file (or stdin), each with its line number."""
    text = textfile.read(None if source == "-" else source, encoding)
    return [(lineno, line) for lineno, line in textfile.lines(text) if line.strip()]


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        mode=Mode(args.mode),
        reversal=args.reversal,
        arrangement=Arrangement(args.classifier) if args.classifier in
        tuple(a.value for a in Arrangement) else Arrangement.HSC,
        minsup=args.minsup,
        minconf=args.minconf,
        match_policy=MatchPolicy(args.match_policy),
        scoring=Scoring(args.scoring),
        **{key: value for key, value in vars(args).items() if key in ("folds", "seed")},
    )


def _split_labeled(line: str) -> tuple:
    """The sentence, and the tail after its last ``@`` if that names a class (else None)."""
    text, at, label = line.rpartition("@")
    if at and label.strip().lower() in CLASSES:
        return text.strip(), label.strip()
    return line.strip(), None


def _tag_input(args: argparse.Namespace, lexicon: Lexicon, mode: Mode, reversal: bool) -> List[tuple]:
    """``(tag set, label or None)`` for each non-blank line of ``args.input``.

    A line that cannot be tagged is a data error located at ``file:line``.
    """
    where = "<stdin>" if args.input in (None, "-") else args.input
    tagged = []
    for lineno, line in _read_lines(args.input, args.encoding):
        text, label = _split_labeled(line)
        try:
            tagged.append((tag_text(text, lexicon, mode, reversal, args.pretagged), label))
        except PosTextError as exc:
            raise PosTextError(f"{where}:{lineno}: {exc}") from None
    return tagged


def cmd_tag(args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(args.lexicon, args.reversals)
    out_lines = []
    for tagged, label in _tag_input(args, lexicon, Mode(args.mode), args.reversal):
        tags = " ".join(canonical_order(tagged))
        out_lines.append(f"{tags}\t{label}" if label is not None else tags)
    _write_out("".join(f"{l}\n" for l in out_lines), args.out)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(args.lexicon, args.reversals)
    corpus = load_phrasebank(args.corpus, encoding=args.encoding, pretagged=args.pretagged)
    config = _config_from_args(args)
    model = train_model(tag_corpus(corpus, lexicon, config), config)
    tagging = {key: getattr(args, key) or default for key, default in _TAGGING_DEFAULTS.items()}
    for key in ("lexicon", "reversals"):  # absolute, so that `finsent predict` finds them from any directory
        tagging[key] = tagging[key] and str(Path(tagging[key]).resolve())
    save_model(model, args.model_dir, tagging=tagging)
    for stage, rb in model.stages.items():
        print(f"{stage}: {len(rb)} rules")
    print(f"model written to {args.model_dir}")
    return 0


def _model_tagging(model_dir: str, manifest: dict) -> dict:
    """A model's tagging record, absent entries filled in; a bad mode, type or codec is a ModelFormatError."""
    tagging = {**_TAGGING_DEFAULTS, **manifest.get("tagging", {})}
    try:
        if tagging["mode"] not in set(modes := [m.value for m in Mode]):
            raise ValueError(f"tagging.mode {tagging['mode']!r} is not one of {', '.join(modes)}")
        for key, default in _TAGGING_DEFAULTS.items():
            if not isinstance(tagging[key], type(default)):
                raise ValueError(f"tagging.{key} {tagging[key]!r} is not a {type(default).__name__}")
        if not textfile.is_text_encoding(tagging["encoding"]):
            raise ValueError(f"tagging.encoding {tagging['encoding']!r} is not a text codec Python knows")
    except (ValueError, TypeError) as exc:  # TypeError: an unhashable mode
        raise ModelFormatError(f"{Path(model_dir)}: malformed model: {exc}") from None
    return tagging


def cmd_predict(args: argparse.Namespace) -> int:
    model, manifest = load_model(args.model_dir)
    tagging = _model_tagging(args.model_dir, manifest)
    # --lexicon, else the model's lexicon, else the default; --reversals, else the model's unless --lexicon
    lexicon = _load_lexicon(args.lexicon or tagging["lexicon"],
                            args.reversals or (None if args.lexicon else tagging["reversals"] or None))
    args.encoding = args.encoding or tagging["encoding"]
    args.pretagged = args.pretagged or tagging["pretagged"]
    tagged = _tag_input(args, lexicon, Mode(tagging["mode"]), tagging["reversal"])
    _write_out("".join(f"{i}\t{predict(model, tags)}\n" for i, (tags, _) in enumerate(tagged, start=1)), args.out)
    return 0


# the baseline classifiers `finsent evaluate --classifier` offers
_STUBS = {"majority": majority_trainer, "perfect": perfect_trainer}
# each --format choice's renderer
_RENDERERS = {"json": report_to_json, "csv": report_to_csv, "text": report_to_text}


def _emit_report(report, args: argparse.Namespace) -> None:
    _write_out(_RENDERERS[args.format](report), args.out)


def cmd_evaluate(args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(args.lexicon, args.reversals)
    corpus = load_phrasebank(args.corpus, encoding=args.encoding, pretagged=args.pretagged)
    config = _config_from_args(args)
    report = cross_validate(corpus, config, lexicon=lexicon, trainer=_STUBS.get(args.classifier))
    config_out = {**report.config, "classifier": args.classifier}
    if args.classifier in _STUBS:
        # a stub trains no arrangement; PipelineConfig only holds a placeholder
        del config_out["arrangement"]
    _emit_report(dataclasses.replace(report, config=config_out), args)
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    corpus = load_phrasebank(args.corpus, encoding=args.encoding)
    ids = {str(i) for i in range(1, len(corpus) + 1)}
    predicted: Dict[str, str] = {}
    line_of: Dict[str, int] = {}
    for lineno, line in _read_lines(args.predictions, args.encoding):
        where = f"{args.predictions}:{lineno}"
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusError(f"{where}: expected 'id<TAB>class'")
        sentence_id, label = parts[0].strip(), parts[1].strip()
        if sentence_id not in ids:
            raise CorpusError(f"{where}: id {sentence_id!r} is not a sentence number 1..{len(corpus)}")
        if sentence_id in predicted:
            raise CorpusError(f"{where}: duplicate id {sentence_id} (first on line {line_of[sentence_id]})")
        if label not in CLASSES:
            raise CorpusError(f"{where}: unknown class {label!r}")
        predicted[sentence_id], line_of[sentence_id] = label, lineno
    pairs = []
    for i, gold in enumerate(corpus.labels, start=1):
        label = predicted.get(str(i))
        if label is None:
            raise CorpusError(f"{args.predictions}: no prediction for sentence {i}")
        pairs.append((gold, label))
    report = score_predictions(pairs, config={"corpus": corpus.name, "examples": len(corpus)})
    _emit_report(report, args)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(args.lexicon, args.reversals)
    corpus = load_phrasebank(args.corpus, encoding=args.encoding, pretagged=args.pretagged)
    config = _config_from_args(args)
    points = sweep_confidence(corpus, config, args.grid, lexicon=lexicon)
    _write_out(sweep_to_csv(points), args.out)
    for point in points:
        print(
            f"minconf={point.minconf:g}: rules={point.report.rule_count} "
            f"accuracy={point.report.overall_accuracy:.4f}",
            file=sys.stderr,
        )
    return 0


# every flag and argument a subcommand takes: its type, default and help, declared once;
# a flag that sets a PipelineConfig field takes its default from there
_DEFAULT = PipelineConfig()
_ARGUMENTS: Dict[str, dict] = {
    "--lexicon": dict(help="lexicon file (default: bundled or $FINSENT_LEXICON_DIR; "
                           "predict: overrides the model's)"),
    "--reversals": dict(help="reversal-term file (predict: overrides the model's)"),
    "--encoding": dict(type=_encoding, default="utf-8",
                       help="input encoding (default utf-8; predict: default the model's)"),
    "--mode": dict(choices=[m.value for m in Mode], default=_DEFAULT.mode.value,
                   help="tag families to keep (lag, lag-lead, all)"),
    "--reversal": dict(action="store_true", help="flip direction for reversal indicators"),
    "--pretagged": dict(action="store_true",
                        help="input sentences are pre-tagged surface_TAG sequences"),
    "--out": dict(help="output file (default stdout)"),
    "--classifier": dict(choices=[a.value for a in Arrangement], default=_DEFAULT.arrangement.value,
                         help="classifier arrangement"),
    "--minsup": dict(type=_percent, default=_DEFAULT.minsup, help="minimum support percent"),
    "--minconf": dict(type=_percent, default=_DEFAULT.minconf, help="minimum confidence percent"),
    "--match-policy": dict(choices=[m.value for m in MatchPolicy], default=_DEFAULT.match_policy.value,
                           help="how rule antecedents match a tag set"),
    "--scoring": dict(choices=[s.value for s in Scoring], default=_DEFAULT.scoring.value,
                      help="how matched rules' confidences combine per class"),
    "--corpus": dict(required=True, help="sentence@label corpus file"),
    "--model-dir": dict(required=True, help="model directory"),
    "--folds": dict(type=_fold_count, default=_DEFAULT.folds, help="cross-validation folds"),
    "--seed": dict(type=int, default=_DEFAULT.seed, help="fold-assignment seed"),
    "--format": dict(choices=list(_RENDERERS), default="text", help="report format"),
    "--grid": dict(type=_percent_grid, default="60,70,80,90", help="comma-separated minconf values"),
    "input": dict(nargs="?", help="input file ('-' or omitted: stdin)"),
    "predictions": dict(help="file of 'id<TAB>class' lines, one per corpus row"),
}
_TAGGING = ("--lexicon", "--reversals", "--encoding", "--mode", "--reversal", "--pretagged", "--out")
_TRAINING = (*_TAGGING, "--classifier", "--minsup", "--minconf", "--match-policy", "--scoring", "--corpus")
# a model's tagging record, which `finsent train` writes and `finsent predict` reads: each entry's default
_TAGGING_DEFAULTS = dict(mode="all", lexicon="", reversals="", reversal=False, pretagged=False, encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsent",
        description="Financial sentence polarity from performance-indicator tags.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary, arguments in (
        ("tag", cmd_tag, "emit tag sets for input sentences", (*_TAGGING, "input")),
        ("train", cmd_train, "train a model from a labelled corpus", (*_TRAINING, "--model-dir")),
        ("predict", cmd_predict, "predict polarity with a saved model",
         ("--model-dir", "--lexicon", "--reversals", "--encoding", "--pretagged", "--out", "input")),
        ("evaluate", cmd_evaluate, "stratified k-fold cross-validation",
         (*_TRAINING, "--folds", "--seed", "--format")),
        ("sweep", cmd_sweep, "cross-validate across a minconf grid",
         (*_TRAINING, "--folds", "--seed", "--grid")),
        ("score", cmd_score, "score an external predictions file against a gold corpus",
         ("--corpus", "--encoding", "--format", "--out", "predictions")),
    ):
        p = sub.add_parser(name, help=summary)
        for argument in arguments:
            settings = _ARGUMENTS[argument]
            if name == "evaluate" and argument == "--classifier":  # evaluate also offers the baselines
                settings = {**settings, "choices": [*settings["choices"], *_STUBS]}
            if name == "predict" and argument == "--encoding":  # None: the model's, see cmd_predict
                settings = {**settings, "default": None}
            p.add_argument(argument, **settings)
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    shown: set = set()

    def show_once(message, *_) -> None:
        if str(message) not in shown:
            shown.add(str(message))
            print(f"finsent: warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show_once
        try:
            return args.func(args)
        except CONFIG_ERRORS as exc:
            print(f"finsent: configuration error: {exc}", file=sys.stderr)
            return 2
        except DATA_ERRORS as exc:
            print(f"finsent: data error: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
