"""The bytes ``finsent`` writes, pinned: each command's output on a fixed corpus of
283 synthetic sentences (every eighth of the benchmark stand-in) hashes to the
SHA-256 recorded here.  ``test_cli_rerun_is_byte_identical`` compares two runs
of the same code; this test compares the code with what it wrote before.  A
change that is meant to move a byte re-records the digest it moves and says why."""
import hashlib
from collections import Counter

from synth_corpus import synthetic_benchmark, write_phrasebank
from finsent.cli import main

GOLDEN = {
    "corpus": "44a9e4abb76d21caa411deba7c798b82e4efc98fe9a1544b9c544fd8355391ef",
    "evaluate hsc json": "e77219d02fc5474af1c95c8a67ce92d59f1e11330dd212b3cf1bfbc565641557",
    "evaluate hsc csv": "ac14e56f0fecb6f6d48bf8957eb16f80e7d449ee4d2a41564ad2d12de077a15c",
    "evaluate hsc text": "e6bae07263ad8725f9c1f6e11d7c2c3f73cce25117dde07b313c640e1ab7f4cc",
    "evaluate majority json": "35f70eb3d3ef9f349a4e4ffcb783e47c8917f30b9be9fd40b84925864bb51d30",
    "evaluate majority csv": "10d6861f115b0444725c1f60f8b9b6e4b64fd16c0bd0d361a8bf6391c5928aac",
    "evaluate majority text": "11f15779ae1d83331bef4312ff73f5937905a17c2ab5ec3023ecc4370d128ab6",
    "sweep": "78c53bef8101ec153cd6bc1bff9751c103d36af0544682ce57591dc5680f8e7b",
    "tag": "73fd75e5ef07f20605c49c52d766b0f1eaf5bf23ab609218584bb76fdf63cf1b",
    "train": "88a10912bbc2f2b6411912485365aff8b5ef5d45377345b6dc5e3aac50bda46f",
    "model/gate.rules": "63678c09c9bfb7a7b23557de40b65e04e3c7bcae4af83d8a4f03fb8a5c8f3aba",
    "model/manifest.json": "fc3cf961792dbf0a146f44168170b52d6764c03b2524e3be37008064dd29bde4",
    "model/polarity.rules": "0cba5f985ee434a70a9b6ad939ad11c1bd9260496ec593569073c101897e6b9f",
    "predict": "094b9540f09f14668b9f4a23e3847c7545056f18d6593bedcd301e3e872e0e78",
    "score": "5f1cdccf51fc99171e303857036a66cc84a880e92e55a7399f27651ac95774b4",
}


def _sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode("utf-8")).hexdigest()


def test_cli_output_bytes_match_the_recorded_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FINSENT_LEXICON_DIR", raising=False)
    monkeypatch.chdir(tmp_path)  # relative paths: no output names the temporary directory
    texts, labels = synthetic_benchmark()
    write_phrasebank("corpus.txt", texts[::8], labels[::8])
    assert min(Counter(labels[::8]).values()) >= 10

    def run(*argv: str) -> str:
        assert main(list(argv)) == 0, argv
        captured = capsys.readouterr()
        return captured.out + captured.err

    digests = {"corpus": _sha256((tmp_path / "corpus.txt").read_bytes())}
    for classifier in ("hsc", "majority"):
        for fmt in ("json", "csv", "text"):
            digests[f"evaluate {classifier} {fmt}"] = _sha256(run(
                "evaluate", "--corpus", "corpus.txt", "--classifier", classifier, "--format", fmt))
    digests["sweep"] = _sha256(run("sweep", "--corpus", "corpus.txt", "--grid", "60,80"))
    digests["tag"] = _sha256(run("tag", "--reversal", "corpus.txt"))
    digests["train"] = _sha256(run("train", "--corpus", "corpus.txt", "--model-dir", "model"))
    for path in sorted((tmp_path / "model").iterdir()):
        digests[f"model/{path.name}"] = _sha256(path.read_bytes())
    predictions = run("predict", "--model-dir", "model", "corpus.txt")
    (tmp_path / "predictions.txt").write_text(predictions, encoding="utf-8")
    digests["predict"] = _sha256(predictions)
    digests["score"] = _sha256(run("score", "--corpus", "corpus.txt", "predictions.txt"))
    assert digests == GOLDEN
