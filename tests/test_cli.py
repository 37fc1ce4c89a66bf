import contextlib
import io
import json
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sample_data import KNOWN_RULES, format_pretagged
from finsent.arm import parse_rulebase
from finsent.classify import CLASSES, Arrangement, load_model, train
from finsent.cli import _ARGUMENTS, _config_from_args, build_parser, main
from finsent.evaluate import Corpus, PipelineConfig, load_phrasebank, tag_corpus
from finsent.lexicon import default_lexicon_paths
from finsent.pos_text import ingest_pretagged, tag_raw
from finsent.semtag import Mode, SemTag, canonical_order


def write_corpus(tmp_path, rows, name="corpus.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{text}@{label}\n" for text, label in rows), encoding="utf-8")
    return path

# Sentences that tag exactly to the six-transaction sample database.
SAMPLE_SENTENCES = [
    ("Turnover rose to EUR 21mn from EUR 17mn", "positive"),
    ("The good news is an increase was recorded", "neutral"),
    ("Unit costs for flight operations fell by 6.4 percent", "negative"),
    ("The board proposed a dividend of EUR 0.12 per share", "neutral"),
    ("The company won new contracts in Finland", "positive"),
    ("Sales were strong but the lawsuit remained a concern", "neutral"),
]


def test_tag_command(tmp_path, capsys):
    source = tmp_path / "in.txt"
    source.write_text(
        "Olvi expects market share to increase in the first quarter of 2010@positive\n"
    )
    assert main(["tag", str(source)]) == 0
    out = capsys.readouterr().out
    assert out == "LagInd::UP\tpositive\n"


def test_tag_unlabeled_and_empty_input(tmp_path, capsys):
    source = tmp_path / "in.txt"
    source.write_text("Turnover fell by 5 %\n")
    assert main(["tag", str(source)]) == 0
    assert capsys.readouterr().out == "LagInd::DOWN\n"
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["tag", str(empty)]) == 0
    assert capsys.readouterr().out == ""


def test_tag_takes_only_a_class_name_after_the_last_at_as_label(tmp_path, capsys):
    # an address in an unlabelled sentence is text, and the tail after it is tagged too
    source = tmp_path / "in.txt"
    source.write_text("Operating profit fell , said ir@company ; net sales rose strongly\n"
                      "Operating profit fell@ Negative \n")
    assert main(["tag", str(source)]) == 0
    assert capsys.readouterr().out == "LagInd::UP LagInd::DOWN\nLagInd::DOWN\tNegative\n"


def test_tag_missing_lexicon_is_config_error(tmp_path, capsys):
    source = tmp_path / "in.txt"
    source.write_text("anything\n")
    rc = main(["tag", "--lexicon", str(tmp_path / "nope.txt"), str(source)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tag", "{afile}/in.txt"],
    ["tag", "--lexicon", "{afile}/lex.txt", "{source}"],
    ["tag", "{source}", "--out", "{afile}/out.txt"],
], ids=["input", "lexicon", "out"])
def test_tag_path_under_a_regular_file_is_config_error(tmp_path, capsys, argv):
    source = tmp_path / "in.txt"
    source.write_text("anything\n")
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main([arg.format(afile=afile, source=source) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("finsent: configuration error: ") and f"{afile}/" in err


@pytest.mark.parametrize("name", ["lexicon.txt", "reversals.txt", "model/manifest.json", "model/gate.rules"])
def test_undecodable_configuration_file_is_a_located_config_error(tmp_path, capsys, name):
    lexicon, reversals = tmp_path / "lexicon.txt", tmp_path / "reversals.txt"
    lexicon.write_text("turnover,LagInd\nrose,UP\nfell,DOWN\nunit costs,LagInd\n")
    reversals.write_text("unit costs\n")
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(tmp_path / "model"), "--minsup", "16",
                 "--lexicon", str(lexicon), "--reversals", str(reversals)]) == 0
    path = tmp_path / name
    data = path.read_bytes()
    path.write_bytes(data + b"\xff\n")
    capsys.readouterr()
    assert main(["predict", "--model-dir", str(tmp_path / "model"), str(corpus)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("finsent: configuration error: ") and err.count("\n") == 1
    line = data.count(b"\n") + 1
    assert f"{path}:{line}: not valid utf-8" in err


def test_tag_missing_reversals_is_config_error(tmp_path, capsys):
    bundled, _ = default_lexicon_paths()
    source = tmp_path / "in.txt"
    source.write_text("Unit costs fell by 6.4 percent\n")
    missing = str(tmp_path / "nope.txt")
    for lexicon_flags in ([], ["--lexicon", str(bundled)]):
        rc = main(["tag", "--reversal", *lexicon_flags, "--reversals", missing, str(source)])
        assert rc == 2
        assert "nope.txt" in capsys.readouterr().err


def test_tag_empty_reversals_is_no_reversal_list(tmp_path, capsys):
    # an empty --reversals is not given: with or without --lexicon, the output is the one without the flag
    bundled, _ = default_lexicon_paths()
    source = tmp_path / "in.txt"
    source.write_text("Unit costs fell by 6.4 percent\n")
    for lexicon_flags in ([], ["--lexicon", str(bundled)]):
        assert main(["tag", "--reversal", *lexicon_flags, str(source)]) == 0
        want = capsys.readouterr()
        assert main(["tag", "--reversal", *lexicon_flags, "--reversals", "", str(source)]) == 0
        assert capsys.readouterr() == want


def test_tag_pretagged_malformed_is_data_error(tmp_path, capsys):
    source = tmp_path / "in.txt"
    source.write_text("hello world\n")
    rc = main(["tag", "--pretagged", str(source)])
    assert rc == 3
    assert f"{source}:1: token 1 'hello': missing '_' separator" in capsys.readouterr().err


def stdin_of(data: bytes):
    return io.TextIOWrapper(io.BytesIO(data))


def test_tag_empty_sentence_names_stdin_line(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", stdin_of(b"Turnover fell by 5 %\n\n@neutral\n"))
    assert main(["tag"]) == 3
    assert capsys.readouterr().err == "finsent: data error: <stdin>:3: empty sentence\n"


def test_tag_stdin_honours_encoding(tmp_path, monkeypatch, capsys):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("turnover,LagInd\ndéclin,DOWN\n", encoding="utf-8")
    data = "Turnover déclin .@negative\n".encode("latin-1")
    source = tmp_path / "in.txt"
    source.write_bytes(data)
    flags = ["tag", "--encoding", "latin-1", "--lexicon", str(lexicon)]
    assert main([*flags, str(source)]) == 0
    from_path = capsys.readouterr().out
    assert from_path == "LagInd DOWN\tnegative\n"
    monkeypatch.setattr("sys.stdin", stdin_of(data))
    assert main(flags) == 0
    assert capsys.readouterr().out == from_path


def test_tag_drops_a_leading_byte_order_mark(tmp_path, monkeypatch, capsys):
    # kept, the mark joins the first word and hides "operating profit" from the lexicon
    data = "\ufeffOperating profit rose strongly .\n".encode("utf-8")
    source = tmp_path / "in.txt"
    source.write_bytes(data)
    assert main(["tag", str(source)]) == 0
    assert capsys.readouterr().out == "LagInd::UP\n"
    monkeypatch.setattr("sys.stdin", stdin_of(data))
    assert main(["tag"]) == 0
    assert capsys.readouterr().out == "LagInd::UP\n"


@pytest.mark.parametrize("command", [
    ["train", "--model-dir", "{tmp}/m"], ["evaluate"], ["sweep"],
])
def test_malformed_pretagged_corpus_line_is_located(tmp_path, capsys, command):
    corpus = write_corpus(tmp_path, [("Turnover_NN rose_VBD", "positive"), ("bad token", "neutral")])
    argv = [arg.format(tmp=tmp_path) for arg in command]
    assert main([*argv, "--corpus", str(corpus), "--pretagged"]) == 3
    assert capsys.readouterr().err == (
        f"finsent: data error: {corpus}:2: token 1 'bad': missing '_' separator\n"
    )


def test_predict_bad_line_is_located_data_error(tmp_path, capsys):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model_dir = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(model_dir),
                 "--classifier", "hsc", "--minsup", "16", "--minconf", "60"]) == 0
    capsys.readouterr()
    queries = tmp_path / "queries.txt"
    queries.write_text("Turnover_NN rose_VBD\nSales rose\n")
    assert main(["predict", "--model-dir", str(model_dir), "--pretagged", str(queries)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"finsent: data error: {queries}:2: token 1 'Sales': missing '_' separator\n"


def test_train_writes_sample_rules(tmp_path, capsys):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model_dir = tmp_path / "model"
    rc = main([
        "train", "--corpus", str(corpus), "--model-dir", str(model_dir),
        "--classifier", "multiclass", "--minsup", "16", "--minconf", "60",
    ])
    assert rc == 0
    assert "multiclass:" in capsys.readouterr().out
    rb = parse_rulebase((model_dir / "multiclass.rules").read_text())
    mined = {(r.antecedent, r.consequent): r for r in rb.rules}
    for antecedent, consequent, support, confidence in KNOWN_RULES:
        rule = mined[(antecedent, consequent)]
        assert rule.support == pytest.approx(support, abs=0.01)
        assert rule.confidence == pytest.approx(confidence, abs=0.01)


def test_train_then_predict(tmp_path, capsys):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model_dir = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(model_dir),
                 "--classifier", "hsc", "--minsup", "16", "--minconf", "60"]) == 0
    capsys.readouterr()
    queries = tmp_path / "queries.txt"
    queries.write_text(
        "Olvi expects market share to increase in the first quarter of 2010\n"
        "Nothing relevant here\n"
        "The board proposed a dividend of EUR 0.12 per share\n"
    )
    assert main(["predict", "--model-dir", str(model_dir), str(queries)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["1\tpositive", "2\tneutral", "3\tneutral"]


def test_predict_reads_a_tail_that_is_no_class_name_as_sentence(tmp_path, capsys):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model_dir = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(model_dir),
                 "--classifier", "hsc", "--minsup", "16", "--minconf", "60"]) == 0
    capsys.readouterr()
    queries = tmp_path / "queries.txt"
    # the part before the '@' alone tags LagInd::UP, which this model calls positive
    queries.write_text("Turnover rose , said ir@company ; unit costs fell\n")
    assert main(["predict", "--model-dir", str(model_dir), str(queries)]) == 0
    assert capsys.readouterr().out == "1\tnegative\n"


@pytest.mark.parametrize("inside", ["\u0085", "\u2028", "\x0c"])
def test_tag_and_predict_answer_each_input_line_once(tmp_path, capsys, inside):
    # str.splitlines would break the first line in two
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model_dir = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(model_dir),
                 "--classifier", "hsc", "--minsup", "16", "--minconf", "60"]) == 0
    capsys.readouterr()
    queries = tmp_path / "queries.txt"
    queries.write_bytes(f"Turnover fell{inside} by 5 %\r\nNothing relevant here\n".encode("utf-8"))
    assert main(["tag", str(queries)]) == 0
    assert capsys.readouterr().out == "LagInd::DOWN\n\n"
    assert main(["predict", "--model-dir", str(model_dir), str(queries)]) == 0
    assert [line.split("\t")[0] for line in capsys.readouterr().out.split("\n")] == ["1", "2", ""]


def test_predict_bad_model_dir_is_config_error(tmp_path, capsys):
    queries = tmp_path / "q.txt"
    queries.write_text("hello\n")
    assert main(["predict", "--model-dir", str(tmp_path / "missing"), str(queries)]) == 2


def test_evaluate_perfect_stub_all_ones(tmp_path, capsys):
    rows = [(f"Sentence number {i} .", label) for label in ("positive", "neutral", "negative") for i in range(4)]
    corpus = write_corpus(tmp_path, rows)
    rc = main(["evaluate", "--corpus", str(corpus), "--classifier", "perfect",
               "--folds", "2", "--seed", "1", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall_accuracy"] == 1.0
    for cls in ("positive", "neutral", "negative"):
        assert payload["per_class"][cls]["f_measure"] == 1.0


def test_evaluate_majority_stub(tmp_path, capsys):
    rows = [("Some text .", "neutral")] * 12 + [("Other text .", "positive")] * 4 \
        + [("More text .", "negative")] * 4
    corpus = write_corpus(tmp_path, rows)
    rc = main(["evaluate", "--corpus", str(corpus), "--classifier", "majority",
               "--folds", "2", "--seed", "1", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall_accuracy"] == pytest.approx(0.6)


def test_evaluate_degenerate_corpus_is_data_error(tmp_path, capsys):
    # a class smaller than the fold count cannot be stratified
    rows = [("one sentence .", "neutral")] * 5 + [("good news .", "positive")]
    corpus = write_corpus(tmp_path, rows)
    rc = main(["evaluate", "--corpus", str(corpus), "--folds", "2"])
    assert rc == 3
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["evaluate", "--corpus", str(empty), "--folds", "2"]) == 3


def test_sweep_csv_shape(tmp_path, capsys):
    rows = []
    for i in range(8):
        rows.append((f"Turnover rose to EUR {20 + i} mn from EUR {10 + i} mn .", "positive"))
        rows.append((f"The company is based in Helsinki {i} .", "neutral"))
        rows.append((f"Turnover fell to EUR {10 + i} mn from EUR {20 + i} mn .", "negative"))
    corpus = write_corpus(tmp_path, rows)
    out_file = tmp_path / "sweep.csv"
    rc = main(["sweep", "--corpus", str(corpus), "--folds", "2", "--seed", "3",
               "--grid", "60,70,80,90", "--out", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "minconf,class,precision,recall"
    assert len(lines) == 1 + 4 * 3


@pytest.mark.parametrize("flags", [[], ["--classifier", "ovo", "--match-policy", "subset", "--mode", "lag",
                                         "--reversal"]], ids=["default", "ovo-subset-lag-reversal"])
def test_sweep_equals_separate_evaluate_runs(tmp_path, benchmark_corpus, flags):
    # sweep trains each fold once; its rows and stderr are rebuilt here from one evaluate run per grid value
    corpus = write_corpus(tmp_path, list(zip(benchmark_corpus.texts, benchmark_corpus.labels))[:300])
    common = ["--corpus", str(corpus), "--folds", "3", "--seed", "4", *flags]
    rc, csv_out, err = _run_main(["sweep", *common, "--grid", "90,60,70"])
    assert rc == 0
    rows, warned, points = ["minconf,class,precision,recall"], [], []
    for minconf in (90.0, 60.0, 70.0):
        rc, out, evaluate_err = _run_main(["evaluate", *common, "--minconf", str(minconf), "--format", "json"])
        assert rc == 0
        report = json.loads(out)
        rows += [f"{minconf},{cls},{report['per_class'][cls]['precision']:.4f},"
                 f"{report['per_class'][cls]['recall']:.4f}" for cls in CLASSES]
        warned += [line for line in evaluate_err.splitlines() if line not in warned]
        points.append(f"minconf={minconf:g}: rules={report['rule_count']} accuracy={report['overall_accuracy']:.4f}")
    assert csv_out.splitlines() == rows
    assert err.splitlines() == warned + points


def _raw_and_pretagged(tmp_path, benchmark_corpus):
    """A 300-line prefix of the synthetic corpus, and its surface_TAG rendering under the same file stem."""
    rows = list(zip(benchmark_corpus.texts, benchmark_corpus.labels))[:300]
    (tmp_path / "tagged").mkdir()
    return (write_corpus(tmp_path, rows),
            write_corpus(tmp_path / "tagged", [(format_pretagged(tag_raw(text)), label) for text, label in rows]))


@pytest.mark.parametrize("flags", [[], ["--mode", "lag", "--reversal"]], ids=["default", "lag-reversal"])
def test_evaluating_a_pretagged_rendering_prints_the_raw_report(tmp_path, benchmark_corpus, flags):
    raw, tagged = _raw_and_pretagged(tmp_path, benchmark_corpus)
    rc, expected, err = _run_main(["evaluate", "--corpus", str(raw), "--format", "json", *flags])
    assert rc == 0, err
    assert _run_main(["evaluate", "--corpus", str(tagged), "--format", "json", "--pretagged", *flags]) == (
        0, expected, err)


def test_a_model_trained_on_a_pretagged_rendering_predicts_the_raw_labels(tmp_path, benchmark_corpus):
    raw, tagged = _raw_and_pretagged(tmp_path, benchmark_corpus)
    labels = []
    for corpus, flags in ((raw, []), (tagged, ["--pretagged"])):
        model_dir = str(corpus.parent / "model")
        assert _run_main(["train", "--corpus", str(corpus), "--model-dir", model_dir, *flags])[0] == 0
        rc, out, err = _run_main(["predict", "--model-dir", model_dir, str(corpus)])  # the model records --pretagged
        assert rc == 0, err
        labels.append(out)
    assert labels[0] == labels[1]
    assert len(labels[0].splitlines()) == 300
    assert len({line.split("\t")[1] for line in labels[0].splitlines()}) > 1


def test_reports_embed_config_for_replay(tmp_path, capsys):
    corpus = write_corpus(tmp_path, [(f"Sentence {i} .", l) for l in ("positive", "neutral", "negative") for i in range(3)])
    rc = main(["evaluate", "--corpus", str(corpus), "--classifier", "perfect",
               "--folds", "3", "--seed", "42", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["seed"] == 42
    assert payload["config"]["folds"] == 3
    assert payload["config"]["classifier"] == "perfect"
    assert "arrangement" not in payload["config"]


@pytest.mark.parametrize("classifier, arrangement", [
    ("majority", None), ("perfect", None), ("hsc", "hsc"), ("multiclass", "multiclass"), ("ovo", "ovo"),
])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_only_rule_classifiers_report_an_arrangement(tmp_path, capsys, classifier, arrangement, fmt):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES * 2)
    assert main(["evaluate", "--corpus", str(corpus), "--classifier", classifier,
                 "--folds", "2", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)["config"].get("arrangement") == arrangement
    else:
        assert ("'arrangement'" in out) == (arrangement is not None)


def test_bad_percent_flag_is_usage_error(tmp_path, capsys):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", str(corpus), "--model-dir", str(tmp_path / "m"),
              "--minsup", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--corpus", str(corpus), "--folds", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["tag", "{corpus}"], ["tag"], ["train", "--corpus", "{corpus}", "--model-dir", "{tmp}/m"],
    ["predict", "--model-dir", "{tmp}/m", "{corpus}"], ["evaluate", "--corpus", "{corpus}"],
    ["sweep", "--corpus", "{corpus}"], ["score", "--corpus", "{corpus}", "{corpus}"],
], ids=["tag", "tag-stdin", "train", "predict", "evaluate", "sweep", "score"])
def test_unknown_encoding_is_usage_error(tmp_path, capsys, monkeypatch, command):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    monkeypatch.setattr("sys.stdin", stdin_of(b"Turnover rose .\n"))
    argv = [arg.format(corpus=corpus, tmp=tmp_path) for arg in command]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--encoding", "bogus", *argv[1:]])
    assert exc.value.code == 2
    assert "--encoding: unknown encoding 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("encoding", ["base64", "hex", "rot13", "zlib", "undefined"])
def test_non_text_codec_is_usage_error(tmp_path, capsys, encoding):
    # Python knows these codecs, but they decode no bytes to text
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    with pytest.raises(SystemExit) as exc:
        main(["tag", "--encoding", encoding, str(corpus)])
    assert exc.value.code == 2
    assert f"--encoding: unknown encoding {encoding!r}: not a text codec" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["60,abc", "0", "70,nan", ","])
def test_bad_sweep_grid_is_usage_error(tmp_path, capsys, grid):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    out_file = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--corpus", str(corpus), "--folds", "2", "--grid", grid, "--out", str(out_file)])
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err
    assert not out_file.exists()


def test_score_external_predictions(tmp_path, capsys):
    corpus = write_corpus(tmp_path, [("a .", "positive"), ("b .", "neutral"), ("c .", "negative")])
    predictions = tmp_path / "preds.tsv"
    predictions.write_text("1\tpositive\n2\tneutral\n3\tneutral\n")
    rc = main(["score", "--corpus", str(corpus), "--format", "json", str(predictions)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall_accuracy"] == pytest.approx(2 / 3)
    assert payload["confusion"]["negative"]["neutral"] == 1


def test_score_missing_prediction_is_data_error(tmp_path, capsys):
    corpus = write_corpus(tmp_path, [("a .", "positive"), ("b .", "neutral")])
    predictions = tmp_path / "preds.tsv"
    predictions.write_text("1\tpositive\n")
    assert main(["score", "--corpus", str(corpus), str(predictions)]) == 3


@pytest.mark.parametrize("lines, message", [
    ("1\tpositive\n2\tneutral\n1\tnegative\n", "preds.tsv:3: duplicate id 1 (first on line 1)"),
    ("1\tpositive\n\n3\tneutral\n2\tneutral\n", "preds.tsv:3: id '3' is not a sentence number 1..2"),
    ("0\tpositive\n1\tneutral\n2\tneutral\n", "preds.tsv:1: id '0' is not a sentence number 1..2"),
    ("01\tpositive\n2\tneutral\n", "preds.tsv:1: id '01' is not a sentence number 1..2"),
    ("1\tpositive\n2\tgood\n", "preds.tsv:2: unknown class 'good'"),
])
def test_score_bad_ids_are_located_data_errors(tmp_path, capsys, lines, message):
    corpus = write_corpus(tmp_path, [("a .", "positive"), ("b .", "neutral")])
    predictions = tmp_path / "preds.tsv"
    predictions.write_text(lines)
    assert main(["score", "--corpus", str(corpus), str(predictions)]) == 3
    assert message in capsys.readouterr().err


def test_evaluate_report_names_the_classifier(tmp_path, capsys):
    corpus = write_corpus(tmp_path, [(f"Sentence {i} .", l) for l in ("positive", "neutral", "negative") for i in range(3)])
    rc = main(["evaluate", "--corpus", str(corpus), "--classifier", "majority",
               "--folds", "3", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["classifier"] == "majority"


def test_cli_rerun_is_byte_identical(tmp_path, capsys):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES * 3)
    args = ["evaluate", "--corpus", str(corpus), "--folds", "3", "--seed", "7",
            "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def custom_lexicon(tmp_path):
    """The bundled lexicon plus 'widgets' as a lagging indicator."""
    bundled, _ = default_lexicon_paths()
    path = tmp_path / "custom.txt"
    path.write_text(bundled.read_text(encoding="utf-8") + "widgets,LagInd\n", encoding="utf-8")
    return path, bundled


def test_predict_uses_manifest_lexicon_unless_flag_given(tmp_path, capsys):
    custom, bundled = custom_lexicon(tmp_path)
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model_dir = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(model_dir),
                 "--lexicon", str(custom), "--minsup", "16", "--minconf", "60"]) == 0
    queries = tmp_path / "queries.txt"
    queries.write_text("Widgets rose .\n")
    capsys.readouterr()
    # the manifest's lexicon tags 'Widgets rose' as LagInd::UP
    assert main(["predict", "--model-dir", str(model_dir), str(queries)]) == 0
    assert capsys.readouterr().out == "1\tpositive\n"
    # --lexicon wins over the manifest: the bundled lexicon only sees UP
    assert main(["predict", "--model-dir", str(model_dir), "--lexicon", str(bundled),
                 str(queries)]) == 0
    assert capsys.readouterr().out == "1\tneutral\n"


def test_predict_without_manifest_lexicon_uses_bundled(tmp_path, capsys):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model_dir = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(model_dir),
                 "--minsup", "16", "--minconf", "60"]) == 0
    manifest = json.loads((model_dir / "manifest.json").read_text())
    assert manifest["tagging"]["lexicon"] == ""
    queries = tmp_path / "queries.txt"
    queries.write_text("Widgets rose .\nTurnover rose to EUR 21mn from EUR 17mn\n")
    capsys.readouterr()
    assert main(["predict", "--model-dir", str(model_dir), str(queries)]) == 0
    assert capsys.readouterr().out == "1\tneutral\n2\tpositive\n"


def test_predict_uses_manifest_reversals_with_default_lexicon(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model_dir = tmp_path / "model"
    # without reversal terms, "Unit costs ... fell" trains as LagInd::DOWN -> negative
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(model_dir), "--reversal",
                 "--reversals", str(empty), "--minsup", "16", "--minconf", "60"]) == 0
    queries = tmp_path / "queries.txt"
    queries.write_text("Unit costs fell by 6.4 percent\n")
    capsys.readouterr()
    assert main(["predict", "--model-dir", str(model_dir), str(queries)]) == 0
    assert capsys.readouterr().out == "1\tnegative\n"


def test_predict_reversals_flag_wins_over_manifest(tmp_path, capsys):
    custom, _ = custom_lexicon(tmp_path)
    reversals, empty = tmp_path / "reversals.txt", tmp_path / "empty.txt"
    reversals.write_text("widgets\n")
    empty.write_text("")
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model_dir = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(model_dir), "--reversal",
                 "--lexicon", str(custom), "--reversals", str(reversals),
                 "--minsup", "16", "--minconf", "60"]) == 0
    queries = tmp_path / "queries.txt"
    queries.write_text("Widgets rose .\n")
    capsys.readouterr()
    # the manifest's reversal file flips 'Widgets rose' to LagInd::DOWN
    assert main(["predict", "--model-dir", str(model_dir), str(queries)]) == 0
    assert capsys.readouterr().out == "1\tnegative\n"
    # --reversals alone replaces it; the manifest's lexicon still applies
    assert main(["predict", "--model-dir", str(model_dir), "--reversals", str(empty),
                 str(queries)]) == 0
    assert capsys.readouterr().out == "1\tpositive\n"


def test_predict_missing_manifest_lexicon_is_config_error(tmp_path, capsys):
    custom, bundled = custom_lexicon(tmp_path)
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model_dir = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(model_dir),
                 "--lexicon", str(custom)]) == 0
    custom.unlink()
    queries = tmp_path / "queries.txt"
    queries.write_text("Widgets rose .\n")
    assert main(["predict", "--model-dir", str(model_dir), str(queries)]) == 2
    assert main(["predict", "--model-dir", str(model_dir), "--lexicon", str(bundled),
                 str(queries)]) == 0


def test_manifest_paths_are_absolute_so_predict_runs_from_anywhere(tmp_path, capsys, monkeypatch):
    train_dir, elsewhere = tmp_path / "train", tmp_path / "elsewhere"
    train_dir.mkdir()
    elsewhere.mkdir()
    custom, _ = custom_lexicon(train_dir)
    (train_dir / "reversals.txt").write_text("widgets\n")
    write_corpus(train_dir, SAMPLE_SENTENCES)
    monkeypatch.chdir(train_dir)
    assert main(["train", "--corpus", "corpus.txt", "--model-dir", "model",
                 "--lexicon", "custom.txt", "--reversals", "reversals.txt",
                 "--minsup", "16", "--minconf", "60"]) == 0
    tagging = json.loads((train_dir / "model" / "manifest.json").read_text())["tagging"]
    assert tagging["lexicon"] == str(custom.resolve())
    assert tagging["reversals"] == str((train_dir / "reversals.txt").resolve())

    monkeypatch.chdir(elsewhere)
    (elsewhere / "queries.txt").write_text("Widgets rose .\n")
    capsys.readouterr()
    assert main(["predict", "--model-dir", str(train_dir / "model"), "queries.txt"]) == 0
    assert capsys.readouterr().out == "1\tpositive\n"


def test_predict_with_a_foreign_rule_class_is_config_error(tmp_path, capsys):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model_dir = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(model_dir)]) == 0
    gate = model_dir / "gate.rules"
    gate.write_text(gate.read_text().replace("-> polarized", "-> foo"))
    queries = tmp_path / "queries.txt"
    queries.write_text("Turnover rose to EUR 21mn from EUR 17mn\n")
    capsys.readouterr()
    assert main(["predict", "--model-dir", str(model_dir), str(queries)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gate.rules: rule class 'foo'" in captured.err


@pytest.mark.parametrize("command", [["train", "--model-dir", "model"], ["evaluate", "--folds", "2"]])
def test_a_training_warning_is_one_finsent_line(tmp_path, monkeypatch, command):
    # no neutral sentence: every fold warns, and the run prints the warning once
    rows = [row for row in SAMPLE_SENTENCES if row[1] != "neutral"] + [("Operating profit fell", "negative")]
    corpus = write_corpus(tmp_path, rows)
    monkeypatch.chdir(tmp_path)
    rc, _, err = _run_main([*command, "--corpus", str(corpus)])
    assert rc == 0
    assert err == "finsent: warning: class 'neutral' absent from training data; no rule predicts it\n"


def write_older_model(directory, model, minsup, minconf):
    """``model`` as finsent once saved it: the manifest also holds the thresholds
    and default_class, and each stage file a ``# stage=`` header."""
    directory.mkdir()
    for stage, rb in model.stages.items():
        rules = "".join(f"{','.join(sorted(r.antecedent))} -> {r.consequent}\t{r.support!r}\t{r.confidence!r}\n"
                        for r in rb.rules)
        (directory / f"{stage}.rules").write_text(f"# minsup={minsup!r}\n# minconf={minconf!r}\n# stage={stage}\n{rules}")
    manifest = {
        "arrangement": model.arrangement.value,
        "default_class": "neutral",
        "format": "finsent-model/1",
        "match_policy": "exact",
        "minconf": minconf,
        "minsup": minsup,
        "scoring": "average",
        "stage2_default": "negative",
        "stages": {stage: f"{stage}.rules" for stage in sorted(model.stages)},
        "tagging": {"encoding": "utf-8", "lexicon": "", "mode": "all", "pretagged": False,
                    "reversal": False, "reversals": ""},
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_a_model_in_the_older_format_loads_and_predicts_the_same(tmp_path, capsys, arrangement):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model = train(tag_corpus(load_phrasebank(corpus)), arrangement, minsup=16.0, minconf=60.0)
    write_older_model(tmp_path / "older", model, 16.0, 60.0)
    assert load_model(tmp_path / "older")[0] == model
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(tmp_path / "model"),
                 "--classifier", arrangement.value, "--minsup", "16"]) == 0
    queries = tmp_path / "queries.txt"
    queries.write_text("".join(f"{text}\n" for text, _ in SAMPLE_SENTENCES) + "Operating profit fell\nWidgets rose .\n")
    capsys.readouterr()
    assert main(["predict", "--model-dir", str(tmp_path / "model"), str(queries)]) == 0
    labels = capsys.readouterr().out
    assert main(["predict", "--model-dir", str(tmp_path / "older"), str(queries)]) == 0
    assert capsys.readouterr().out == labels
    assert len({line.split("\t")[1] for line in labels.splitlines()}) > 1


def test_predict_with_a_manifest_integer_past_the_digit_limit_is_config_error(tmp_path, capsys):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model_dir = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(model_dir)]) == 0
    manifest_path = model_dir / "manifest.json"
    manifest_path.write_text(manifest_path.read_text().replace("{", '{"size": ' + "9" * 5000 + ",", 1))
    capsys.readouterr()
    assert main(["predict", "--model-dir", str(model_dir), str(corpus)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"finsent: configuration error: {manifest_path}: invalid JSON: ")
    assert captured.err.count("\n") == 1


def test_predict_bad_manifest_mode_is_config_error(tmp_path, capsys):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model_dir = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(model_dir)]) == 0
    manifest_path = model_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["tagging"]["mode"] = "bogus"
    manifest_path.write_text(json.dumps(manifest))
    queries = tmp_path / "queries.txt"
    queries.write_text("Widgets rose .\n")
    capsys.readouterr()
    assert main(["predict", "--model-dir", str(model_dir), str(queries)]) == 2
    assert "tagging.mode 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("entry, value, message", [
    ("mode", "bogus", "tagging.mode 'bogus' is not one of lag, lag-lead, all"),
    ("mode", ["all"], "unhashable type: 'list'"),
    ("lexicon", 5, "tagging.lexicon 5 is not a str"),
    ("reversal", "no", "tagging.reversal 'no' is not a bool"),
    # codecs Python knows that decode no bytes to text
    ("encoding", "base64", "tagging.encoding 'base64' is not a text codec Python knows"),
    ("encoding", "undefined", "tagging.encoding 'undefined' is not a text codec Python knows"),
], ids=["mode", "mode_list", "lexicon_int", "reversal_str", "encoding_base64", "encoding_undefined"])
def test_predict_bad_manifest_tagging_entry_is_config_error(tmp_path, capsys, entry, value, message):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model_dir = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(model_dir)]) == 0
    manifest_path = model_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["tagging"][entry] = value
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["predict", "--model-dir", str(model_dir), str(corpus)]) == 2
    assert capsys.readouterr() == ("", f"finsent: configuration error: {model_dir}: malformed model: {message}\n")


def test_predict_decodes_with_the_model_encoding(tmp_path, capsys):
    bundled, _ = default_lexicon_paths()
    lexicon = tmp_path / "custom.txt"
    lexicon.write_text(bundled.read_text(encoding="utf-8") + "bénéfice,LagInd\n", encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes("".join(f"{t}@{label}\n" for t, label in SAMPLE_SENTENCES).encode("latin-1"))
    model_dir = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(model_dir), "--encoding", "latin-1",
                 "--lexicon", str(lexicon), "--minsup", "16", "--minconf", "60"]) == 0
    assert json.loads((model_dir / "manifest.json").read_text())["tagging"]["encoding"] == "latin-1"
    queries = tmp_path / "queries.txt"
    queries.write_bytes("Bénéfice rose .\n".encode("latin-1"))
    capsys.readouterr()
    # read as latin-1, 'Bénéfice rose' is LagInd::UP; --encoding wins over the manifest
    assert main(["predict", "--model-dir", str(model_dir), str(queries)]) == 0
    assert capsys.readouterr().out == "1\tpositive\n"
    assert main(["predict", "--model-dir", str(model_dir), "--encoding", "utf-8", str(queries)]) == 0
    assert capsys.readouterr().out == "1\tneutral\n"


@pytest.mark.parametrize("encoding", ["no-such-codec", 5, None, "base64", "undefined"])
def test_predict_bad_manifest_encoding_is_config_error(tmp_path, capsys, encoding):
    corpus = write_corpus(tmp_path, SAMPLE_SENTENCES)
    model_dir = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus), "--model-dir", str(model_dir)]) == 0
    manifest_path = model_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["tagging"]["encoding"] = encoding
    manifest_path.write_text(json.dumps(manifest))
    queries = tmp_path / "queries.txt"
    queries.write_text("Widgets rose .\n")
    capsys.readouterr()
    assert main(["predict", "--model-dir", str(model_dir), str(queries)]) == 2
    assert f"tagging.encoding {encoding!r}" in capsys.readouterr().err


TAG_SENTENCES = [
    "Turnover rose to EUR 21mn from EUR 17mn",
    "Operating costs fell by 5 % .",
    "Operating profit was EUR 8.3 mn , compared to EUR 11 mn .",
    "The company won new contracts in Finland",
    "Sales were strong but the lawsuit remained a concern",
    "Nothing relevant here",
]


@pytest.mark.parametrize("flags", [[], ["--mode", "lag"], ["--mode", "lag-lead", "--reversal"],
                                   ["--reversal"], ["--pretagged"], ["--pretagged", "--mode", "lag"]])
def test_tag_lines_equal_tag_corpus(tmp_path, capsys, lexicon, flags):
    pretagged = "--pretagged" in flags
    texts = [format_pretagged(tag_raw(t)) if pretagged else t for t in TAG_SENTENCES]
    source = tmp_path / "in.txt"
    source.write_text("".join(f"{t}@neutral\n" for t in texts))
    assert main(["tag", *flags, str(source)]) == 0
    lines = capsys.readouterr().out.splitlines()

    mode = flags[flags.index("--mode") + 1] if "--mode" in flags else "all"
    config = PipelineConfig(mode=Mode(mode), reversal="--reversal" in flags)
    corpus = Corpus(tuple(map(ingest_pretagged, texts) if pretagged else texts), ("neutral",) * len(texts))
    expected = [
        " ".join(t.value for t in canonical_order(SemTag(v) for v in tx.items)) + "\tneutral"
        for tx in tag_corpus(corpus, lexicon, config)
    ]
    assert lines == expected
    assert any(line != "\tneutral" for line in lines)


# Pieces of CLI input files: words, pre-tagged units (well formed and not),
# '@' tails (class names and not), and the characters line reading treats
# specially: line ends, U+0085, U+2028, form feeds and blanks.
_CLI_PIECES = st.one_of(
    st.sampled_from([
        "Operating", "profit", "rose", "fell", "strongly", "Turnover", "EUR", "21mn", "8.3", "%", ".", ",",
        "@positive", "@ Neutral", "@negative ", "@company", "ir@x", "@", "é",
        "profit_NN", "rose_VBD", "21mn_CD", "bad_XYZ", "_NN", "a_b_NN", "noseparator",
        " ", "  ", "\xa0", "\t", "\n", "\n", "\r\n", "\r", "\u0085", "\u2028", "\x0c", "\ufeff",
    ]),
    st.text(max_size=4),
)
_cli_inputs = st.tuples(st.booleans(), st.lists(_CLI_PIECES, max_size=24)).map(
    lambda drawn: ("\ufeff" if drawn[0] else "") + "".join(drawn[1])
)


@pytest.fixture(scope="module")
def sample_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_property")
    corpus = write_corpus(root, SAMPLE_SENTENCES)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--corpus", str(corpus), "--model-dir", str(root / "model"),
                     "--classifier", "hsc", "--minsup", "16", "--minconf", "60"]) == 0
    return root


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@given(_cli_inputs)
@settings(max_examples=60, deadline=None)
def test_cli_batch_input_gives_aligned_output_or_a_located_error(sample_model, text):
    source = sample_model / "input.txt"
    source.write_bytes(text.encode("utf-8", "surrogatepass"))
    model_dir = str(sample_model / "model")
    for flags in (["tag"], ["tag", "--pretagged"], ["tag", "--encoding", "latin-1"],
                  ["predict", "--model-dir", model_dir]):
        # the lines a text-mode open() reads, a UTF-8 byte-order mark dropped
        encoding = "latin-1" if "latin-1" in flags else "utf-8-sig"
        with open(source, encoding=encoding, errors="replace") as f:
            lines = f.readlines()
        rc, out, err = _run_main([*flags, str(source)])
        assert rc in (0, 3), (flags, err)
        if rc == 3:
            m = re.fullmatch(rf"finsent: data error: {re.escape(str(source))}:(\d+): [^\n]*\n", err)
            assert m, (flags, err)
            assert lines[int(m.group(1)) - 1].strip(), (flags, err)
        else:
            assert err == ""
            assert out.count("\n") == sum(1 for line in lines if line.strip()) == len(out.splitlines())
            if flags[0] == "predict":
                assert all(line.startswith(f"{i}\t") for i, line in enumerate(out.splitlines(), start=1))


# Files are drawn from good units (whole lines), bad units, and the pieces
# that may come between them: line ends, characters str.splitlines breaks at,
# a byte-order mark and invalid UTF-8.
_ODD_BYTES = [b"\n", b"\r\n", b"\r", b" ", b"#", "\u0085".encode(), "\u2028".encode(), b"\x0c",
              b"\xff", b"\xc3", "\ufeff".encode()]
_CORPUS = ([f"{text}@{label}\n".encode() for text, label in SAMPLE_SENTENCES] + [b"Operating profit fell@ Negative\n"],
           [b"Sales rose@company\n", b"no delimiter\n", b"@positive\n"])
_LEXICON = ([b"turnover,LagInd\n", b"rose,UP\n", b"fell,DOWN\n", b"contracts,LeadInd\n", b"lawsuit,NEG\n",
             b"# comment, UP\n"],
            [b"rose,DOWN\n", b"word,SIDEWAYS\n", b"broken line\n"])
_PREDICTIONS = ([f"{i}\t{label}\n".encode() for i, label in enumerate(["positive", "neutral", "negative"] * 2, 1)],
                [b"7\tneutral\n", b"1\tbogus\n", b"x\tneutral\n", b"4 negative\n"])


def _file_of(units):
    good, bad = units
    pieces = st.lists(st.sampled_from(good * 4 + bad + _ODD_BYTES), max_size=10)
    return st.tuples(st.booleans(), pieces).map(lambda d: (b"\xef\xbb\xbf" if d[0] else b"") + b"".join(d[1]))


@given(_file_of(_CORPUS), _file_of(_LEXICON), _file_of(_PREDICTIONS))
@settings(max_examples=30, deadline=None)
def test_cli_corpus_commands_exit_cleanly_or_name_a_line(sample_model, corpus, lexicon, predictions):
    files = {name: sample_model / f"prop_{name}.txt" for name in ("corpus", "lexicon", "predictions")}
    for path, data in zip(files.values(), (corpus, lexicon, predictions)):
        path.write_bytes(data)
    common = ["--corpus", str(files["corpus"]), "--lexicon", str(files["lexicon"])]
    for argv in (["train", *common, "--model-dir", str(sample_model / "prop_model")],
                 ["evaluate", *common, "--folds", "2"],
                 ["sweep", *common, "--folds", "2", "--grid", "60,90"],
                 ["score", "--corpus", str(files["corpus"]), str(files["predictions"])]):
        rc, _, err = _run_main(argv)
        assert rc in (0, 2, 3), (argv, err)
        # warnings (a class absent from a training fold) come first, each once
        warned = re.match(r"(finsent: warning: [^\n]*\n)*", err).group()
        assert len(set(warned.splitlines())) == warned.count("\n"), (argv, err)
        rest = err[len(warned):]
        if rc:
            assert re.fullmatch(r"finsent: (configuration|data) error: [^\n]*\n", rest), (argv, err)
        elif argv[0] != "sweep":  # sweep reports each grid point on stderr
            assert rest == "", (argv, err)
        for path in files.values():
            with open(path, encoding="utf-8", errors="replace") as f:
                lines = f.readlines()
            for lineno in re.findall(rf"{re.escape(str(path))}:(\d+):", err):
                assert lines[int(lineno) - 1].strip(), (argv, err)


def test_every_pipeline_setting_has_an_evaluate_flag():
    # a PipelineConfig field a caller can set that no `finsent evaluate` flag changes is a library-only setting
    parser, default, changed = build_parser(), PipelineConfig(), set()
    for flag, spec in _ARGUMENTS.items():
        if not flag.startswith("--"):
            continue
        values = [[]] if spec.get("action") == "store_true" else [[v] for v in spec.get("choices", ["3"])]
        for value in values:
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    args = parser.parse_args(["evaluate", "--corpus", "c.txt", flag, *value])
            except SystemExit:  # a flag evaluate does not take, or a value its type rejects
                continue
            config = _config_from_args(args)
            changed |= {f.name for f in fields(config) if getattr(config, f.name) != getattr(default, f.name)}
    assert changed == {f.name for f in fields(PipelineConfig) if f.init}
