"""Output checks for the benchmark: oracles from ``tests/`` and output digests.

* Chunk trees of a seeded sample of sentences must equal those of the
  independent reference chunker (``tests/reference_chunker.py``).
* The rules mined for one cross-validation fold must equal exhaustive
  enumeration (``tests/oracles.brute_force_rules``), stage by stage.
* The SHA-256 of the tagged transactions, of the cross-validation report
  (``report_to_json``) and of the label stream must match ``digests.json``
  for the seeds recorded there, so a change to output bytes is caught.  ``python3 benchmarks/checks.py
  --record SEED...`` rewrites those entries after a deliberate change.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def chunk_tree_failures(texts: Sequence[str], seed: int, sample: int) -> List[str]:
    """Compare finsent's chunk trees with the reference chunker's on a sample."""
    import reference_chunker as ref
    from finsent.chunker import bundled_grammar, bundled_grammar_source, chunk, to_bracket
    from finsent.pos_text import tag_raw

    names = ("indicator_direction", "numeric_direction")
    ref_rules = {name: ref.parse_grammar(bundled_grammar_source(name)) for name in names}
    failures = []
    for text in random.Random(seed).sample(list(texts), min(sample, len(texts))):
        sentence = tag_raw(text)
        pairs = [(t.surface, t.pos) for t in sentence.tokens]
        for name in names:
            want = ref.to_bracket(ref.chunk_sentence(ref_rules[name], pairs))
            got = to_bracket(chunk(bundled_grammar(name), sentence))
            if got != want:
                failures.append(f"chunk tree ({name}) differs from reference for {text!r}")
    return failures


def fold_rule_failures(transactions: Sequence, fold_assignment: Sequence[int], config) -> List[str]:
    """Mine fold 0's training set and compare each HSC stage with brute force."""
    from oracles import brute_force_rules
    from finsent.arm import Transaction
    from finsent.classify import NEUTRAL, POLARIZED, train

    train_set = [t for t, fold in zip(transactions, fold_assignment) if fold != 0]
    model = train(train_set, minsup=config.minsup, minconf=config.minconf)
    stages = {
        "gate": ([Transaction(t.items, NEUTRAL if t.label == NEUTRAL else POLARIZED) for t in train_set],
                 {NEUTRAL, POLARIZED}),
        "polarity": ([t for t in train_set if t.label != NEUTRAL], {"positive", "negative"}),
    }
    failures = []
    for stage, (stage_transactions, classes) in stages.items():
        want = brute_force_rules([t.basket for t in stage_transactions], config.minsup, config.minconf, classes)
        got = {(r.antecedent, r.consequent, r.support, r.confidence) for r in model.stages[stage].rules}
        if got != want:
            failures.append(f"fold 0 {stage} rules differ from brute force: "
                            f"{len(got - want)} extra, {len(want - got)} missing")
    return failures


def recorded(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """The digests recorded for a workload and seed, if any."""
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Record output digests for seeds of every workload.")
    parser.add_argument("--record", type=int, nargs="+", required=True, metavar="SEED")
    args = parser.parse_args(argv)
    import run

    run.import_program()
    import workloads

    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    for name in workloads.WORKLOADS:
        for seed in args.record:
            bench = run.Bench(workloads.make(name, seed))
            _, label = bench.label()
            _, cv = bench.cv()
            table.setdefault(name, {})[str(seed)] = {"tag": bench.tagged_digest, "cv": cv, "label": label}
            print(f"{name} seed {seed}: tag {bench.tagged_digest[:12]} cv {cv[:12]} label {label[:12]}")
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
