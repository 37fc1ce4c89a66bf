"""Smoke test: the harness runs end to end on tiny inputs of every workload.

No timing bound; it only keeps the harness from rotting.  Run it with
``python3 -m pytest benchmarks``.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _digests(stdout: str) -> dict:
    return dict(re.findall(r"^# sha256 (\w+): (\w+)$", stdout, re.MULTILINE))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_harness_runs_untraced_and_traced(workload):
    outputs = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(workload, trace)
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[section]}
        outputs[trace] = _digests(done.stdout)
    assert set(outputs[0]) == {"tag", "label", "cv", "sweep", "train"}
    assert outputs[0] == outputs[1], "tracing changed the program's output"


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("phrasebank", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
