"""Span recorder for the traced benchmark run.

Tracing wraps the public functions each finsent module calls on the next
layer -- at the module attribute the caller looks up, so nothing under
``src/`` changes -- and only while a traced round runs.  Every wrapped call
becomes a span (name, start, end, parent) kept in memory; ``write_spans``
writes them out when the run ends.  A span's self time is its duration minus
the time its child spans cover.

``Lexicon.lookup`` runs hundreds of thousands of times per round on long
sentences, so it gets no span of its own: each lookup adds its count, its
hit and its duration to the enclosing span, which keeps the self times
exact without holding a million spans in memory.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

from finsent import arm, chunker, classify, evaluate, lexicon, pos_text, semtag

INTERACTIONS = frozenset(
    {semtag.SemTag.LAGIND_UP, semtag.SemTag.LAGIND_DOWN, semtag.SemTag.LEADIND_UP, semtag.SemTag.LEADIND_DOWN}
)


class _Frame:
    __slots__ = ("id", "name", "start", "covered", "numeric", "defaulted")

    def __init__(self, span_id: int, name: str, start: float) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.covered = 0.0
        self.numeric = False
        self.defaulted = False


class Recorder:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []  # (id, parent id or 0, name, start, end)
        self.stack: List[_Frame] = []
        self.opened = 0
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct: Dict[str, set] = defaultdict(set)

    def run(self, name: str, fn: Callable, args: tuple, kwargs: dict, after: Optional[Callable]):
        self.opened += 1
        frame = _Frame(self.opened, name, 0.0)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(frame)
        frame.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - frame.start
            self.calls[name] += 1
            self.busy[name] += duration
            self.self_time[name] += duration - frame.covered
            if parent is not None:
                parent.covered += duration
            self.spans.append((frame.id, parent.id if parent else 0, name, frame.start, end))
        if after is not None:
            start = time.perf_counter()
            after(self, frame, args, kwargs, result)
            self.leaf(time.perf_counter() - start)
        return result

    def leaf(self, duration: float) -> None:
        """Exclude time spent outside any span from the enclosing span's self time."""
        if self.stack:
            self.stack[-1].covered += duration


def _after_tag_raw(rec, frame, args, kwargs, result):
    rec.counts["pos_text.tokens"] += len(result.tokens)


def _after_chunk(rec, frame, args, kwargs, result):
    if frame.name == "chunker.pair":
        rec.distinct["pos_seqs"].add(args[1].pos_tags)
    elif rec.stack:
        rec.stack[-1].numeric = True


def _after_tag_sentence(rec, frame, args, kwargs, result):
    tags = result.tags
    rec.distinct["tagsets"].add(tags)
    if not tags:
        rec.counts["semtag.empty_tagsets"] += 1
    if frame.numeric and tags & INTERACTIONS:
        rec.counts["semtag.numeric_path"] += 1


def _after_mine_rules(rec, frame, args, kwargs, result):
    transactions = args[0]
    rec.counts["arm.baskets"] += len(transactions)
    rec.counts["arm.distinct_baskets"] += len({t.basket for t in transactions})
    rec.counts["arm.rules"] += len(result)


def _after_predict(rec, frame, args, kwargs, result):
    rec.distinct["predict_tagsets"].add(frozenset(args[1]))
    if frame.defaulted:
        rec.counts["classify.default_fired"] += 1


class Tracer:
    """Installs the wrappers around one traced round and removes them after."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[tuple] = []

    def _span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        rec = self.recorder

        def wrapper(*args, **kwargs):
            return rec.run(name, fn, args, kwargs, after)

        return wrapper

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        rec = self.recorder
        pair_grammar = chunker.bundled_grammar("indicator_direction")

        tag_raw = self._span("pos_text.tag_raw", pos_text.tag_raw, _after_tag_raw)
        self._patch(pos_text, "tag_raw", tag_raw)
        self._patch(evaluate, "tag_raw", tag_raw)

        original_chunk = semtag.chunk

        def chunk(grammar, sentence):
            name = "chunker.pair" if grammar is pair_grammar else "chunker.numeric"
            return rec.run(name, original_chunk, (grammar, sentence), {}, _after_chunk)

        self._patch(semtag, "chunk", chunk)

        original_lookup = lexicon.Lexicon.lookup

        def lookup(lex, phrase):
            start = time.perf_counter()
            result = original_lookup(lex, phrase)
            duration = time.perf_counter() - start
            rec.counts["lexicon.lookups"] += 1
            rec.counts["lexicon.hits"] += result is not None
            rec.busy["lexicon.lookup"] += duration
            rec.leaf(duration)
            return result

        self._patch(lexicon.Lexicon, "lookup", lookup)

        original_extract = semtag.extract_pairs

        def extract_pairs(tree):
            result = original_extract(tree)
            rec.counts["semtag.pairs"] += len(result.pairs)
            return result

        self._patch(semtag, "extract_pairs", extract_pairs)

        tag_sentence = self._span("semtag.tag_sentence", semtag.tag_sentence, _after_tag_sentence)
        self._patch(semtag, "tag_sentence", tag_sentence)
        self._patch(evaluate, "tag_sentence", tag_sentence)

        original_frequent = arm.mine_frequent

        def mine_frequent(transactions, minsup):
            result = original_frequent(transactions, minsup)
            rec.counts["arm.frequent_itemsets"] += len(result)
            return result

        self._patch(arm, "mine_frequent", mine_frequent)
        self._patch(classify, "mine_rules", self._span("arm.mine_rules", classify.mine_rules, _after_mine_rules))

        train = self._span("classify.train", classify.train)
        self._patch(classify, "train", train)
        self._patch(evaluate, "train", train)

        original_score = classify.score_tags

        def score_tags(*args, **kwargs):
            result = original_score(*args, **kwargs)
            if not result.sums and rec.stack:
                rec.stack[-1].defaulted = True
            return result

        self._patch(classify, "score_tags", score_tags)
        predict = self._span("classify.predict", classify.predict, _after_predict)
        self._patch(classify, "predict", predict)
        self._patch(evaluate, "predict", predict)

        self._patch(evaluate, "tag_corpus", self._span("evaluate.tag_corpus", evaluate.tag_corpus))
        self._patch(evaluate, "cross_validate", self._span("evaluate.cross_validate", evaluate.cross_validate))
        self._patch(evaluate, "sweep_confidence", self._span("evaluate.sweep_confidence", evaluate.sweep_confidence))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Per-layer metrics of everything one recorder saw."""
    calls, busy, self_time, counts = rec.calls, rec.busy, rec.self_time, rec.counts
    return {
        "pos_text.calls": calls["pos_text.tag_raw"],
        "pos_text.tokens": counts["pos_text.tokens"],
        "pos_text.busy_s": busy["pos_text.tag_raw"],
        "chunker.pair.calls": calls["chunker.pair"],
        "chunker.pair.busy_s": busy["chunker.pair"],
        "chunker.numeric.calls": calls["chunker.numeric"],
        "chunker.numeric.busy_s": busy["chunker.numeric"],
        "chunker.distinct_pos_seqs": len(rec.distinct["pos_seqs"]),
        "lexicon.lookups": counts["lexicon.lookups"],
        "lexicon.hits": counts["lexicon.hits"],
        "lexicon.busy_s": busy["lexicon.lookup"],
        "semtag.calls": calls["semtag.tag_sentence"],
        "semtag.self_s": self_time["semtag.tag_sentence"],
        "semtag.pairs": counts["semtag.pairs"],
        "semtag.numeric_path": counts["semtag.numeric_path"],
        "semtag.empty_tagsets": counts["semtag.empty_tagsets"],
        "semtag.distinct_tagsets": len(rec.distinct["tagsets"]),
        "arm.mine_calls": calls["arm.mine_rules"],
        "arm.busy_s": busy["arm.mine_rules"],
        "arm.baskets": counts["arm.baskets"],
        "arm.distinct_baskets": counts["arm.distinct_baskets"],
        "arm.frequent_itemsets": counts["arm.frequent_itemsets"],
        "arm.rules": counts["arm.rules"],
        "classify.train_self_s": self_time["classify.train"],
        "classify.predict_calls": calls["classify.predict"],
        "classify.predict_busy_s": busy["classify.predict"],
        "classify.distinct_predict_tagsets": len(rec.distinct["predict_tagsets"]),
        "classify.default_fired": counts["classify.default_fired"],
        "evaluate.tag_corpus_calls": calls["evaluate.tag_corpus"],
        "evaluate.tag_corpus_s": busy["evaluate.tag_corpus"],
        "evaluate.fold_loop_self_s": self_time["evaluate.cross_validate"],
        "trace.spans": len(rec.spans),
    }


def write_spans(recorders: List[Recorder], path) -> None:
    """One tab-separated line per span: round, id, parent id, name, start_s, end_s."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round\tid\tparent\tname\tstart_s\tend_s\n")
        for round_no, rec in enumerate(recorders):
            for span_id, parent, name, start, end in rec.spans:
                fh.write(f"{round_no}\t{span_id}\t{parent}\t{name}\t{start!r}\t{end!r}\n")
