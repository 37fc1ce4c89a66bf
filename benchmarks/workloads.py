"""Seeded inputs for the three benchmark workloads.

Every workload is a pure function of its seed: the same seed gives the same
sentences, labels and transactions, byte for byte.  The program under test
only ever sees these generated inputs.  Each generator's docstring says why
the workload exists; BENCHMARK.json repeats it in one line.

Run ``python3 benchmarks/workloads.py --workload NAME --seed N`` to print a
workload's distinct-input counts, which tell a cache win from an artefact of
the inputs.
"""
from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("phrasebank", "longtail")

CLASS_SHARES = (("positive", 0.134), ("neutral", 0.614), ("negative", 0.252))

# Generated transactions: a transaction's label is the sign of its tags'
# weighted sum plus Gaussian noise, so rules are learnable but not exact.
TAG_WEIGHTS = {
    "LagInd": 0.0, "LeadInd": 0.0, "UP": 0.5, "DOWN": -0.5, "POS": 1.0, "NEG": -1.0,
    "LagInd::UP": 2.0, "LagInd::DOWN": -2.0, "LeadInd::UP": 1.0, "LeadInd::DOWN": -1.0,
}
# Per-tag inclusion probability; tuned for a few hundred distinct tag sets
# among TRANSACTIONS transactions.
TAG_PROBS = {
    "LagInd": 0.39, "LeadInd": 0.26, "UP": 0.16, "DOWN": 0.13, "POS": 0.20,
    "NEG": 0.23, "LagInd::UP": 0.18, "LagInd::DOWN": 0.16, "LeadInd::UP": 0.10,
    "LeadInd::DOWN": 0.09,
}

LONGTAIL_SIZE = 640
LONGTAIL_MIN_LEN, LONGTAIL_MAX_LEN = 5, 240
TRANSACTIONS = 1600

FILLER = [
    ["the", "company", "said"], ["in", "the", "third", "quarter"], ["of", "the", "group"],
    ["in", "Finland"], ["during", "the", "period"], ["according", "to", "the", "report"],
    ["and"], [","], ["the", "board", "of", "directors"], ["for", "the", "full", "year"],
    ["in", "2009"], ["as", "well", "as"], ["the", "chief", "executive", "noted"],
    ["on", "the", "Helsinki", "stock", "exchange"], ["at", "the", "Espoo", "site"],
    ["while"], ["which", "was", "announced", "in", "March"], ["of", "the", "division"],
]
MARKERS = [["compared", "to"], ["up", "from"], ["down", "from"], ["versus"]]


@dataclass(frozen=True)
class Workload:
    """One workload's generated inputs.

    ``texts``/``labels`` feed the tag and label phases (and, when
    ``transactions`` is None, every other phase too).  ``transactions``,
    when set, is what training, cross-validation and the sweep start from.
    """

    name: str
    seed: int
    texts: Tuple[str, ...]
    labels: Tuple[str, ...]
    transactions: Optional[tuple] = None


def class_counts(n: int) -> Dict[str, int]:
    """Exact per-class counts for n examples at the benchmark's class shares."""
    counts = {cls: int(round(n * share)) for cls, share in CLASS_SHARES}
    counts["neutral"] += n - sum(counts.values())
    return counts


def _phrases(lexicon, category: str) -> List[List[str]]:
    from finsent.lexicon import LexCategory

    return [p.split() for p in lexicon.phrases(LexCategory(category))]


class SentenceBuilder:
    """Builds sentences of a given token length from lexicon phrases and filler.

    The label biases which pieces are drawn: positive sentences lean on UP
    directions and POS words, negative ones on DOWN and NEG; neutral ones
    carry no direction words.  Every token is whitespace-separated, so the tokenizer keeps the
    length exactly.
    """

    FILLER_WEIGHT = 4

    def __init__(self, lexicon) -> None:
        self.cats = {c: _phrases(lexicon, c) for c in ("LagInd", "LeadInd", "UP", "DOWN", "POS", "NEG")}

    def _value(self, rng: random.Random) -> List[str]:
        return ["EUR", f"{rng.uniform(1.0, 99.0):.1f}", "mn"]

    def _piece(self, rng: random.Random, label: str) -> List[str]:
        up_share = {"positive": 0.95, "negative": 0.05}.get(label, 0.5)
        polarized = label != "neutral"
        direction = "UP" if rng.random() < up_share else "DOWN"
        sentiment = "POS" if rng.random() < up_share else "NEG"
        indicator = rng.choice(self.cats["LagInd" if rng.random() < 0.6 else "LeadInd"])
        kind = rng.choices(
            ("pair", "indicator", "direction", "sentiment", "compare", "filler"),
            weights=(3 if polarized else 0, 1, 1 if polarized else 0, 2 if polarized else 1, 1, self.FILLER_WEIGHT),
        )[0]
        if kind == "pair":
            return indicator + rng.choice(self.cats[direction])
        if kind == "indicator":
            return indicator
        if kind == "direction":
            return rng.choice(self.cats[direction])
        if kind == "sentiment":
            return rng.choice(self.cats[sentiment])
        if kind == "compare":
            return indicator + ["was"] + self._value(rng) + [","] + rng.choice(MARKERS) + self._value(rng)
        return rng.choice(FILLER)

    def sentence(self, rng: random.Random, length: int, label: str) -> str:
        tokens: List[str] = []
        while len(tokens) < length - 1:
            tokens.extend(self._piece(rng, label))
        tokens = tokens[: length - 1] + ["."]
        tokens[0] = tokens[0][:1].upper() + tokens[0][1:]
        return " ".join(tokens)


def _labelled_lengths(rng: random.Random, lengths: Sequence[int]) -> List[Tuple[int, str]]:
    """Pair a fixed length schedule with exact class counts, in seeded order."""
    labels = [cls for cls, count in class_counts(len(lengths)).items() for _ in range(count)]
    rng.shuffle(labels)
    pairs = list(zip(lengths, labels))
    rng.shuffle(pairs)
    return pairs


def _log_lengths(n: int, lo: int, hi: int) -> List[int]:
    """n lengths spread geometrically from lo to hi; fixed for every seed."""
    return [round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)]


def phrasebank(seed: int, size: Optional[int] = None) -> Workload:
    """The paper's evaluation as users run it (``evaluate``, then ``sweep``).

    A stand-in for the Financial PhraseBank (Malo et al. 2014) built from
    the templates in ``tests/synth_corpus.py``: 2259 sentences of at most 15
    tokens, 13.4/61.4/25.2 positive / neutral / negative.  About 55 distinct
    POS sequences and 14 distinct tag sets, so the chunker is the hot path
    and any cache keyed on a POS sequence or a tag set looks its best here.
    """
    if str(ROOT / "tests") not in sys.path:
        sys.path.append(str(ROOT / "tests"))
    from synth_corpus import synthetic_benchmark

    texts, labels = synthetic_benchmark(seed)
    if size is not None:
        texts, labels = _stratified_prefix(texts, labels, size)
    return Workload("phrasebank", seed, tuple(texts), tuple(labels))


def _stratified_prefix(texts, labels, size: int):
    """The first examples of each class in corpus order, at the class shares."""
    want = class_counts(size)
    keep = []
    for i, label in enumerate(labels):
        if want[label] > 0:
            want[label] -= 1
            keep.append(i)
    return [texts[i] for i in keep], [labels[i] for i in keep]


def longtail(seed: int, size: int = LONGTAIL_SIZE, transactions: int = TRANSACTIONS) -> Workload:
    """The inputs no cache helps: long, varied sentences and many tag sets.

    Tag and label phases: 640 sentences whose lengths spread geometrically
    from 5 to 240 tokens (the same schedule for every seed), mixing lexicon
    phrases, closed-vocabulary filler and comparison markers.  Nearly every
    POS sequence is distinct (635 of 640 for seed 1; only the shortest
    repeat), so caches gain nothing, and lexicon lookups and the quadratic
    pair loop inside long NPJJ nodes weigh more than the chunker.  With 160
    sentences the content of the few near the median and the tail moved
    the work behind label_p50_ms by about 11% from seed to seed; with 640,
    by about 2%.

    Training, cross-validation and the sweep: generated transactions over
    the ten semantic tags, a few hundred of them distinct, with no text
    layer, so Apriori candidate counting and the rule scan in ``predict`` do
    almost all that work.  (The long sentences' own tag sets are no use
    here: they carry nearly all ten tags, Apriori enumerates almost every
    subset of them, and 10-fold cross-validation of 160 of them takes 14 s.)

    This is where a gain on ``phrasebank`` shows what it costs elsewhere.
    """
    from finsent.lexicon import load_default_lexicon

    rng = random.Random(seed)
    builder = SentenceBuilder(load_default_lexicon())
    rows = [
        (builder.sentence(rng, length, label), label)
        for length, label in _labelled_lengths(rng, _log_lengths(size, LONGTAIL_MIN_LEN, LONGTAIL_MAX_LEN))
    ]
    texts, labels = zip(*rows)
    return Workload("longtail", seed, texts, labels, tuple(_transaction(rng) for _ in range(transactions)))


def _transaction(rng: random.Random):
    from finsent.arm import Transaction

    items = frozenset(tag for tag, p in TAG_PROBS.items() if rng.random() < p)
    score = sum(TAG_WEIGHTS[tag] for tag in items) + rng.gauss(0.0, 1.0)
    label = "positive" if score > 1.5 else "negative" if score < -1.2 else "neutral"
    return Transaction(items, label)


def make(name: str, seed: int, small: bool = False) -> Workload:
    """Build a workload; ``small`` gives the tiny inputs of the smoke test."""
    if name == "phrasebank":
        return phrasebank(seed, size=120 if small else None)
    if name == "longtail":
        return longtail(seed, size=80, transactions=600) if small else longtail(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def length_bucket(n: int) -> str:
    return "<=32" if n <= 32 else "33-128" if n <= 128 else ">128"


def describe(workload: Workload, transactions: Sequence) -> Dict[str, object]:
    """Distinct-input counts: POS sequences, tag sets, baskets, length histogram.

    ``transactions`` are the tag sets the workload's training phases see.
    """
    from finsent.pos_text import tag_raw

    pos_seqs = [tag_raw(text).pos_tags for text in workload.texts]
    lengths = Counter(length_bucket(len(seq)) for seq in pos_seqs)
    return {
        "sentences": len(workload.texts),
        "tokens": sum(len(seq) for seq in pos_seqs),
        "distinct_pos_seqs": len(set(pos_seqs)),
        "length_histogram": {b: lengths.get(b, 0) for b in ("<=32", "33-128", ">128")},
        "transactions": len(transactions),
        "distinct_tagsets": len({t.items for t in transactions}),
        "distinct_baskets": len({t.basket for t in transactions}),
        "labels": dict(sorted(Counter(t.label for t in transactions).items())),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Print a workload's distinct-input counts.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from finsent.evaluate import Corpus, tag_corpus

    workload = make(args.workload, args.seed)
    transactions = workload.transactions or tag_corpus(Corpus(workload.texts, workload.labels))
    for key, value in describe(workload, transactions).items():
        print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
