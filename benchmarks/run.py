"""The finsent benchmark: one workload, one seed, one process, one thread.

    python3 benchmarks/run.py --workload {phrasebank,longtail} \\
        --seed N --seconds S --trace {0,1}

The harness generates the workload's inputs from the seed, sets the program
up, checks its outputs against the oracles in ``tests/``, then repeats
rounds of five phases for about S seconds.  One caller drives a closed loop:
each call starts when the previous one returns.

* ``tag``   -- ``tag_corpus`` over the workload's sentences (raw text to tag sets).
* ``label`` -- the ``finsent predict`` path, one call per sentence: text,
  tags, label.
* ``cv``    -- one 10-fold stratified HSC ``cross_validate``; from raw text on
  phrasebank, from its generated transactions on longtail.
* ``sweep`` -- ``sweep_confidence`` over minconf 60,70,80,90 (on longtail the
  same four cross-validations over its transactions, as ``sweep_confidence``
  only starts from text).
* ``train`` -- ``train`` for all three arrangements on every transaction,
  after each of the other four phases.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, with every
time scaled to a fixed speed of a reference loop timed between the phases
(see ``Run.end_to_end``; the unscaled values follow as a comment).  ``--trace 1``
alternates untraced and traced rounds and prints the per-layer metrics; the
traced rounds wrap each layer's public functions (see ``spans.py``), and the
overhead is traced minus untraced round time.  Human-readable lines come
first; the last line is one JSON object.  The exit code is 1 when an output
check fails, 2 when the finsent sources are not under ``src/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

GRID = (60.0, 70.0, 80.0, 90.0)
MIN_ROUNDS = 3
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
CHUNK_SAMPLE = 40
PROBE_LENGTHS = {"le_32": (8, 16, 24, 32), "33_128": (48, 72, 96, 128), "gt_128": (160, 192, 224, 240)}
PHASES = ("tag", "label", "cv", "sweep", "train")
# One round.  Training takes 40-250 ms, so it runs after every other phase:
# its samples then span the round rather than one moment of it.
ROUND = ("tag", "train", "label", "train", "cv", "train", "sweep", "train")


def import_program() -> None:
    """Put the checkout's ``src`` and ``tests`` on the path and import finsent from there."""
    if not (SRC / "finsent" / "__init__.py").is_file():
        print(f"benchmark: no finsent sources under {SRC}; run it from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.append(str(ROOT / "tests"))
    import finsent

    if Path(finsent.__file__).resolve().parent != SRC / "finsent":
        print(f"benchmark: imported finsent from {finsent.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


class Bench:
    """A workload's program state and the five timed phases over it."""

    def __init__(self, workload) -> None:
        from finsent import classify, evaluate
        from finsent.arm import dump_transactions
        from finsent.lexicon import load_default_lexicon

        self.workload = workload
        self.lexicon = load_default_lexicon()
        self.config = evaluate.PipelineConfig(seed=workload.seed)
        self.text_corpus = evaluate.Corpus(workload.texts, workload.labels, name=workload.name)
        self.tagged = evaluate.tag_corpus(self.text_corpus, self.lexicon, self.config)
        if workload.transactions is None:
            self.transactions = self.tagged
            self.cv_corpus = self.text_corpus
        else:
            self.transactions = list(workload.transactions)
            lines = dump_transactions(self.transactions).splitlines()
            labels = tuple(t.label for t in self.transactions)
            self.cv_corpus = evaluate.Corpus(tuple(lines), labels, name=workload.name)
        self.folds = evaluate.make_folds(self.cv_corpus, self.config.folds, self.config.seed)
        self.model = classify.train(self.transactions)
        self.tagged_digest = _digest_transactions(self.tagged)

    @property
    def from_text(self) -> bool:
        return self.workload.transactions is None

    def tag(self) -> Tuple[List[float], str]:
        from finsent import evaluate

        start = time.perf_counter()
        transactions = evaluate.tag_corpus(self.text_corpus, self.lexicon, self.config)
        return [time.perf_counter() - start], _digest_transactions(transactions)

    def label(self) -> Tuple[List[float], str]:
        """Text to label for every sentence, one call each, as ``finsent
        predict`` does it; a call that raises yields an ``error`` label."""
        from finsent import classify, pos_text, semtag

        model, lexicon, config = self.model, self.lexicon, self.config
        latencies: List[float] = []
        labels = []
        for text in self.workload.texts:
            start = time.perf_counter()
            try:
                sentence = pos_text.tag_raw(text)
                tagged = semtag.filter_mode(semtag.tag_sentence(sentence, lexicon, reversal=config.reversal),
                                            config.mode)
                label = classify.predict(model, frozenset(t.value for t in tagged.tags))
            except Exception as exc:  # counted as a failed operation
                label = f"error: {exc!r}"
            latencies.append(time.perf_counter() - start)
            labels.append(label)
        self.last_labels = labels
        return latencies, checks.sha256("\n".join(labels) + "\n")

    def cv(self) -> Tuple[List[float], str]:
        from finsent import evaluate

        start = time.perf_counter()
        report = evaluate.cross_validate(
            self.cv_corpus, self.config, folds=self.folds, lexicon=self.lexicon,
            transactions=None if self.from_text else self.transactions,
        )
        elapsed = time.perf_counter() - start
        return [elapsed], checks.sha256(evaluate.report_to_json(report))

    def sweep(self) -> Tuple[List[float], str]:
        from finsent import evaluate

        start = time.perf_counter()
        if self.from_text:
            reports = [p.report for p in evaluate.sweep_confidence(
                self.text_corpus, self.config, GRID, folds=self.folds, lexicon=self.lexicon)]
        else:
            reports = [
                evaluate.cross_validate(self.cv_corpus, replace(self.config, minconf=minconf),
                                        folds=self.folds, transactions=self.transactions)
                for minconf in GRID
            ]
        elapsed = time.perf_counter() - start
        return [elapsed], checks.sha256("".join(evaluate.report_to_json(r) for r in reports))

    def train(self) -> Tuple[List[float], str]:
        """All three arrangements."""
        from finsent import classify
        from finsent.arm import serialize_rulebase

        start = time.perf_counter()
        models = [classify.train(self.transactions, arrangement=a) for a in classify.Arrangement]
        elapsed = time.perf_counter() - start
        return [elapsed], checks.sha256("".join(serialize_rulebase(rb) for m in models for rb in m.stages.values()))


def _digest_transactions(transactions) -> str:
    from finsent.arm import dump_transactions

    return checks.sha256(dump_transactions(transactions))


# Every end-to-end time is scaled to a host on which ``reference_seconds()``
# takes this long, about its mean on the 2-vCPU host the benchmark was
# defined on; see ``Run.end_to_end``.
REFERENCE_SECONDS = 0.010
REFERENCE_WORDS = tuple(
    "Operating profit rose to EUR 13.1 mn from EUR 8.7 mn in the corresponding period in 2007 , "
    "while net sales fell 5 % compared to the third quarter of the previous year .".split()
)


def reference_seconds(rounds: int = 500) -> float:
    """Seconds a fixed stdlib-only loop takes now: the host's current speed.

    The loop shares no code with finsent, and the garbage collector is off
    while it runs, so neither a change to the program nor the size of its
    heap moves it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        counts: Dict[str, int] = {}
        for i in range(rounds):
            for word in REFERENCE_WORDS:
                key = word.lower().strip(".,")
                counts[key] = counts.get(key, 0) + len(key) * i
            pairs = [(a, b) for a, b in zip(REFERENCE_WORDS, REFERENCE_WORDS[1:]) if a[:1] != b[:1]]
            counts["#pairs"] = counts.get("#pairs", 0) + len(pairs)
        sorted(counts.items())
        return time.perf_counter() - start
    finally:
        gc.enable()


def cold_setup(model_dir: Path) -> float:
    """Set-up seconds of a fresh interpreter (see ``coldstart.py``)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "coldstart.py"), str(SRC), str(model_dir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def in_process_setup(runs: int = 5) -> Dict[str, float]:
    """Median lexicon load and grammar compile times, measured in this process."""
    from finsent.chunker import bundled_grammar_source, compile_grammar
    from finsent.lexicon import load_default_lexicon

    sources = [bundled_grammar_source(n) for n in ("indicator_direction", "numeric_direction")]
    load, compile_ = [], []
    for _ in range(runs):
        start = time.perf_counter()
        load_default_lexicon()
        load.append(time.perf_counter() - start)
        start = time.perf_counter()
        for source in sources:
            compile_grammar(source)
        compile_.append(time.perf_counter() - start)
    return {"lexicon.load_s": statistics.median(load), "chunker.compile_s": statistics.median(compile_)}


def length_probe(bench: Bench, seed: int) -> Dict[str, float]:
    """Median ms per ``tag_sentence`` call at three sentence-length ranges.

    A fixed probe, so every workload reports the same length curve, even
    those whose own sentences are all short.
    """
    import random

    from finsent.pos_text import tag_raw
    from finsent.semtag import tag_sentence
    from workloads import SentenceBuilder

    rng = random.Random(seed)
    builder = SentenceBuilder(bench.lexicon)
    out = {}
    for bucket, lengths in PROBE_LENGTHS.items():
        sentences = [tag_raw(builder.sentence(rng, n, "neutral")) for n in lengths]
        per_sentence = []
        for sentence in sentences:
            times = []
            for _ in range(3):
                start = time.perf_counter()
                tag_sentence(sentence, bench.lexicon)
                times.append(time.perf_counter() - start)
            per_sentence.append(statistics.median(times))
        out[f"semtag.ms_len_{bucket}"] = 1e3 * statistics.fmean(per_sentence)
    return out


def tail_percentile(calls: int) -> float:
    """Highest percentile with at least 10 of ``calls`` samples beyond it."""
    return next(p for p in TAIL_PERCENTILES if calls * (100.0 - p) / 100.0 >= 10) if calls >= 20 else 50.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Run:
    """Rounds of the five phases, their checks and their metrics."""

    def __init__(self, bench: Bench, expected: Optional[Dict[str, str]]) -> None:
        self.bench = bench
        self.expected = dict(expected or {})
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.timings: Dict[str, List[List[float]]] = {p: [] for p in PHASES}  # per round, per call
        self.walls = {False: [], True: []}
        self.reference: List[float] = []  # reference_seconds() before every phase and set-up
        self.recorders = []
        self.attempted += 1
        self.check("tag", bench.tagged_digest)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, phase: str, digest: str) -> None:
        want = self.expected.setdefault(phase, digest)
        if digest != want:
            self.fail(f"{phase}: output digest {digest[:12]} differs from {want[:12]}")

    def round(self, traced: bool) -> None:
        gc.collect()
        tracer = None
        if traced:
            from spans import Recorder, Tracer

            recorder = Recorder()
            tracer = Tracer(recorder)
            tracer.install()
        for phase in PHASES:
            self.timings[phase].append([])
        start = time.perf_counter()
        try:
            for phase in ROUND:
                self.reference.append(reference_seconds())
                try:
                    samples, digest = getattr(self.bench, phase)()
                except Exception as exc:  # counted as a failed operation
                    self.attempted += 1
                    self.fail(f"{phase} raised {exc!r}")
                    continue
                self.attempted += len(samples)
                self.check(phase, digest)
                self.timings[phase][-1].extend(samples)
                if phase == "label":
                    for label in self.bench.last_labels:
                        if label.startswith("error"):
                            self.fail(f"label {label}")
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
                self.recorders.append(recorder)
        self.walls[traced].append(wall)

    def loop(self, seconds: float, trace: bool, between: Callable[[], None]) -> None:
        """Rounds until the next would end after ``seconds``; ``between`` runs after each."""
        begin = time.perf_counter()
        rounds = 0
        while True:
            self.round(traced=trace and rounds % 2 == 1)
            between()
            rounds += 1
            elapsed = time.perf_counter() - begin
            if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
                break

    def end_to_end(self, setup: Sequence[float], tail_p: float, scaled: bool = True) -> Dict[str, Tuple[float, str]]:
        """Times are means over the run's calls.  The label metrics come from
        each sentence's mean time: their median and tail percentile over the
        sentences, and sentences per second of their sum.  ``setup_s`` is the
        median of one cold set-up after each round.

        With ``scaled``, every time is multiplied by ``REFERENCE_SECONDS``
        over the run's mean ``reference_seconds()``.  On a shared host the
        speed of identical pure-Python code drifts by a third over minutes
        (6 s medians of one loop from 7.2 to 11.2 ms on 2 vCPUs; in one
        ten-minute stretch the fastest CV of a 55 s run went from 0.60 to
        0.95 s), so unscaled times measure the neighbours as much as the
        program.  Scaling by a loop timed between the phases of the same run
        cut the seed-to-seed spread (interquartile range over median) of the
        times, over ten 55 s runs per workload, from 0.10-0.17 to 0.07-0.14
        on longtail and from 0.07-0.11 to 0.02-0.08 on phrasebank; in a
        noisier hour, over five runs each, from 0.13-0.23 to 0.07-0.10 and
        from 0.14-0.18 to 0.03-0.06.  What remains on longtail is mostly the
        input: its CV time follows the number of itemsets Apriori finds for
        the seed (correlation 0.85 over ten seeds).
        """
        def calls(phase: str) -> List[float]:
            return [t for samples in self.timings[phase] for t in samples]

        scale = REFERENCE_SECONDS / statistics.fmean(self.reference) if scaled else 1.0
        mean = statistics.fmean
        per_sentence = [scale * mean(times) for times in zip(*(r for r in self.timings["label"] if r))]
        return {
            "setup_s": (scale * statistics.median(setup), "s"),
            "tag_sents_per_s": (len(self.bench.workload.texts) / (scale * mean(calls("tag"))), "1/s"),
            "label_sents_per_s": (len(per_sentence) / sum(per_sentence), "1/s"),
            "label_p50_ms": (1e3 * percentile(per_sentence, 50.0), "ms"),
            "label_tail_ms": (1e3 * percentile(per_sentence, tail_p), "ms"),
            "cv_s": (scale * mean(calls("cv")), "s"),
            "sweep_s": (scale * mean(calls("sweep")), "s"),
            "train_s": (scale * mean(calls("train")), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }


def per_layer(run: Run, setup_parts: Dict[str, float], probe: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    from spans import layer_metrics

    rounds = [layer_metrics(rec) for rec in run.recorders]
    values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    values.update(setup_parts)
    values.update(probe)
    untraced, traced = statistics.median(run.walls[False]), statistics.median(run.walls[True])
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return {name: (value, layer_unit(name)) for name, value in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "ms" if ".ms_" in name else "count"


def provenance(args, trace: bool) -> Dict[str, object]:
    import finsent

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "finsent_version": finsent.__version__,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    import_program()
    from finsent.classify import save_model

    workload = workloads.make(args.workload, args.seed, small=args.small)
    bench = Bench(workload)
    expected = None if args.small else checks.recorded(args.workload, args.seed)
    run = Run(bench, expected)

    oracle_failures = checks.chunk_tree_failures(workload.texts, args.seed, CHUNK_SAMPLE)
    oracle_failures += checks.fold_rule_failures(bench.transactions, bench.folds.assignment, bench.config)
    run.attempted += 2
    for message in oracle_failures:
        run.fail(message)

    OUT.mkdir(exist_ok=True)
    model_dir = OUT / f"model-{args.workload}-{args.seed}-{os.getpid()}"
    setup: List[float] = []

    def cold_start() -> None:
        # One cold set-up after each untraced-run round, so that their median
        # spans the whole run rather than one moment of it.
        if not trace:
            run.reference.append(reference_seconds())
            setup.append(cold_setup(model_dir))

    try:
        save_model(bench.model, model_dir)
        run.loop(args.seconds, trace, cold_start)
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)
    per_pass = len(workload.texts)
    tail_p = tail_percentile(per_pass)
    counts = workloads.describe(workload, bench.transactions)
    if trace:
        metrics = per_layer(run, in_process_setup(), length_probe(bench, args.seed))
    else:
        metrics = run.end_to_end(setup, tail_p)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "provenance": provenance(args, trace),
        "inputs": counts,
        "label_tail": {"percentile": tail_p, "calls_per_pass": per_pass,
                       "beyond_per_pass": per_pass - math.ceil(tail_p / 100.0 * per_pass)},
        "failed_ratio": run.failed / run.attempted,
        "phase_seconds": {p: [sum(r) for r in rounds] if p == "label" else rounds
                          for p, rounds in run.timings.items()},
        "setup_seconds": setup,
        "reference_seconds": run.reference,
        "unscaled_metrics": {} if trace else {name: value for name, (value, _) in
                                              run.end_to_end(setup, tail_p, scaled=False).items()},
        "round_seconds": {"untraced": run.walls[False], "traced": run.walls[True]},
        "digests": {k: v for k, v in run.expected.items()},
        "failures": run.failures,
        "result": result,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if trace:
        from spans import write_spans

        write_spans(run.recorders, OUT / f"{stem}.spans.tsv")
        details["spans_file"] = str(Path(".bench_out") / f"{stem}.spans.tsv")
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")

    for key, value in details["provenance"].items():
        print(f"# {key}: {value}")
    for key, value in counts.items():
        print(f"# input {key}: {value}")
    print(f"# rounds: {len(run.walls[False])} untraced, {len(run.walls[True])} traced")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    tail = details["label_tail"]
    if not trace:
        print(f"# label_tail_ms is p{tail['percentile']:g} over the {per_pass} sentences ({tail['beyond_per_pass']} "
              f"beyond it) of each one's mean time in {len(run.timings['label'])} rounds")
        print(f"# times scaled by {REFERENCE_SECONDS:g} s / {statistics.fmean(run.reference):.6g} s, the mean of "
              f"{len(run.reference)} reference loops; unscaled: "
              + " ".join(f"{k}={v:.6g}" for k, v in details["unscaled_metrics"].items()))
    print(f"# failed_ratio: {details['failed_ratio']:.6g} ({run.failed} of {run.attempted})")
    for phase, digest in details["digests"].items():
        print(f"# sha256 {phase}: {digest}")
    for message in run.failures:
        print(f"# FAILED: {message}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
