"""Command-line front end: tag, train, predict, evaluate, sweep.

Exit codes: 0 success, 2 configuration error (bad flags, missing lexicon or
model), 3 data error (malformed corpus or rule files, degenerate training
data).  Every run is deterministic given its flags; reports embed the full
configuration so results can be replayed.
"""
from __future__ import annotations

import argparse
import codecs
import dataclasses
import json
import sys
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
    pipeline_trainer,
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
    """A codec name Python knows, kept as given."""
    try:
        codecs.lookup(value)
    except LookupError:
        raise argparse.ArgumentTypeError(f"unknown encoding {value!r}") from None
    return value


def _load_lexicon(lexicon_path: Optional[str], reversals_path: Optional[str]) -> Lexicon:
    """The given lexicon, else the bundled (or $FINSENT_LEXICON_DIR) one.

    A given ``reversals_path`` replaces the default reversal file and must exist.
    """
    if lexicon_path:
        return load_lexicon(lexicon_path, reversals_path)
    if reversals_path:
        return load_lexicon(default_lexicon_paths()[0], reversals_path)
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
        folds=getattr(args, "folds", 10),
        seed=getattr(args, "seed", 0),
    )


def _split_labeled(line: str) -> tuple:
    """The sentence, and the tail after its last ``@`` if that names a class (else None)."""
    text, at, label = line.rpartition("@")
    if at and label.strip().lower() in CLASSES:
        return text.strip(), label.strip()
    return line.strip(), None


def _tag_input(args: argparse.Namespace, lexicon: Lexicon, mode: Mode, reversal: bool,
               pretagged: bool) -> List[tuple]:
    """``(tag set, label or None)`` for each non-blank line of ``args.input``.

    A line that cannot be tagged is a data error located at ``file:line``.
    """
    where = "<stdin>" if args.input in (None, "-") else args.input
    tagged = []
    for lineno, line in _read_lines(args.input, args.encoding):
        text, label = _split_labeled(line)
        try:
            tagged.append((tag_text(text, lexicon, mode, reversal, pretagged), label))
        except PosTextError as exc:
            raise PosTextError(f"{where}:{lineno}: {exc}") from None
    return tagged


def cmd_tag(args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(args.lexicon, args.reversals)
    out_lines = []
    for tagged, label in _tag_input(args, lexicon, Mode(args.mode), args.reversal, args.pretagged):
        tags = " ".join(t.value for t in canonical_order(tagged))
        out_lines.append(f"{tags}\t{label}" if label is not None else tags)
    _write_out("".join(f"{l}\n" for l in out_lines), args.out)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(args.lexicon, args.reversals)
    corpus = load_phrasebank(args.corpus, encoding=args.encoding, pretagged=args.pretagged)
    config = _config_from_args(args)
    model = train_model(tag_corpus(corpus, lexicon, config), config)
    # absolute paths, so that `finsent predict` finds them from any directory
    tagging = {
        "mode": args.mode,
        "reversal": args.reversal,
        "pretagged": args.pretagged,
        "lexicon": str(Path(args.lexicon).resolve()) if args.lexicon else "",
        "reversals": str(Path(args.reversals).resolve()) if args.reversals else "",
        "encoding": args.encoding,
    }
    save_model(model, args.model_dir, tagging=tagging)
    for stage, rb in model.stages.items():
        print(f"{stage}: {len(rb)} rules")
    print(f"model written to {args.model_dir}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model, manifest = load_model(args.model_dir)
    tagging = manifest.get("tagging", {})
    # --lexicon, else the model's lexicon, else the default; --reversals, else
    # the model's reversal file unless --lexicon is given
    lexicon_path = args.lexicon or tagging.get("lexicon")
    reversals_path = args.reversals or (None if args.lexicon else tagging.get("reversals") or None)
    lexicon = _load_lexicon(lexicon_path, reversals_path)
    mode = Mode(tagging.get("mode", "all"))
    reversal = bool(tagging.get("reversal", False))
    pretagged = args.pretagged or bool(tagging.get("pretagged", False))
    out_lines = []
    for i, (tags, _) in enumerate(_tag_input(args, lexicon, mode, reversal, pretagged), start=1):
        label = predict(model, frozenset(t.value for t in tags))
        out_lines.append(f"{i}\t{label}")
    _write_out("".join(f"{l}\n" for l in out_lines), args.out)
    return 0


# the baseline classifiers `finsent evaluate --classifier` offers
_STUBS = {"majority": majority_trainer, "perfect": perfect_trainer}


def _trainer_for(args: argparse.Namespace, config: PipelineConfig):
    return _STUBS.get(args.classifier) or pipeline_trainer(config)


def _emit_report(report, args: argparse.Namespace) -> None:
    if args.format == "json":
        _write_out(report_to_json(report), args.out)
    elif args.format == "csv":
        _write_out(report_to_csv(report), args.out)
    else:
        _write_out(report_to_text(report), args.out)


def cmd_evaluate(args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(args.lexicon, args.reversals)
    corpus = load_phrasebank(args.corpus, encoding=args.encoding, pretagged=args.pretagged)
    config = _config_from_args(args)
    report = cross_validate(corpus, config, lexicon=lexicon, trainer=_trainer_for(args, config))
    config_out = {**report.config, "classifier": args.classifier}
    if args.classifier in _STUBS:
        # a stub trains no arrangement; PipelineConfig only holds a placeholder
        del config_out["arrangement"]
    report = dataclasses.replace(report, config=config_out)
    _emit_report(report, args)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsent",
        description="Financial sentence polarity from performance-indicator tags.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, classifier: bool = True, stubs: bool = False):
        p.add_argument("--lexicon", help="lexicon file (default: bundled or $FINSENT_LEXICON_DIR)")
        p.add_argument("--reversals", help="reversal-term file")
        p.add_argument("--encoding", type=_encoding, default="utf-8", help="input encoding (default utf-8)")
        p.add_argument("--mode", choices=[m.value for m in Mode], default="all",
                       help="tag families to keep (lag, lag-lead, all)")
        p.add_argument("--reversal", action="store_true", help="flip direction for reversal indicators")
        p.add_argument("--pretagged", action="store_true",
                       help="input sentences are pre-tagged surface_TAG sequences")
        p.add_argument("--out", help="output file (default stdout)")
        if classifier:
            choices = [a.value for a in Arrangement] + (list(_STUBS) if stubs else [])
            p.add_argument("--classifier", choices=choices, default="hsc")
            p.add_argument("--minsup", type=_percent, default=0.5, help="minimum support percent")
            p.add_argument("--minconf", type=_percent, default=60.0, help="minimum confidence percent")
            p.add_argument("--match-policy", dest="match_policy",
                           choices=[m.value for m in MatchPolicy], default="exact")
            p.add_argument("--scoring", choices=[s.value for s in Scoring], default="average")

    p_tag = sub.add_parser("tag", help="emit tag sets for input sentences")
    add_common(p_tag, classifier=False)
    p_tag.add_argument("input", nargs="?", help="input file ('-' or omitted: stdin)")
    p_tag.set_defaults(func=cmd_tag)

    p_train = sub.add_parser("train", help="train a model from a labelled corpus")
    add_common(p_train)
    p_train.add_argument("--corpus", required=True, help="sentence@label corpus file")
    p_train.add_argument("--model-dir", dest="model_dir", required=True)
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", help="predict polarity with a saved model")
    p_predict.add_argument("--model-dir", dest="model_dir", required=True)
    p_predict.add_argument("--lexicon")
    p_predict.add_argument("--reversals")
    p_predict.add_argument("--encoding", type=_encoding, default="utf-8")
    p_predict.add_argument("--pretagged", action="store_true")
    p_predict.add_argument("--out")
    p_predict.add_argument("input", nargs="?")
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="stratified k-fold cross-validation")
    add_common(p_eval, stubs=True)
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--folds", type=_fold_count, default=10)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="cross-validate across a minconf grid")
    add_common(p_sweep)
    p_sweep.add_argument("--corpus", required=True)
    p_sweep.add_argument("--folds", type=_fold_count, default=10)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--grid", type=_percent_grid, default="60,70,80,90",
                         help="comma-separated minconf values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_score = sub.add_parser(
        "score", help="score an external predictions file against a gold corpus"
    )
    p_score.add_argument("--corpus", required=True, help="sentence@label corpus file")
    p_score.add_argument("--encoding", type=_encoding, default="utf-8")
    p_score.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_score.add_argument("--out")
    p_score.add_argument("predictions", help="file of 'id<TAB>class' lines, one per corpus row")
    p_score.set_defaults(func=cmd_score)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
