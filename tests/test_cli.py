"""End-to-end CLI tests: the full command chain on a synthetic world,
artifact formats, rerun determinism, and exit-code contracts.

main() is called in-process with explicit argv so exit codes and stderr
text are asserted directly.
"""

import base64
import json
import os
import shlex
import struct
import shutil
import socket
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import genki
from genki import cli, generation, lm_core
from genki.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from genki.corpus import (
    AnswerKind, build_stats, ingest_passages, ingest_qa_pairs, iter_qa_pairs, write_jsonl,
)
from genki.ensemble import StubJudge
from genki.generation import PipelineConfig, PipelineModels, run_pipeline, run_record
from genki.lm_core import load_checkpoint
from genki.retriever import HashEmbedder, load_index, retrieve_texts, top_k
from genki.reward import FormatSpec, load_reward_checkpoint
from genki.synth import write_world


def read_lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A fully-populated working directory: corpus, config, index, models, runs."""
    root = tmp_path_factory.mktemp("cliworld")
    write_world(root, 12, 8)
    config = {
        "k": 2,
        "max_output_tokens": 12,
        "embedder": {"dim": 1024, "seed": 0},
        "train": {"steps": 60, "learning_rate": 0.5, "reward_steps": 100},
    }
    (root / "config.json").write_text(json.dumps(config))
    paths = {
        "root": root,
        "config": str(root / "config.json"),
        "corpus": str(root / "corpus.jsonl"),
        "qa": str(root / "qa.jsonl"),
        "index": str(root / "index.bin"),
        "models": str(root / "models"),
        "answers": str(root / "run1"),
    }
    assert main(["index", "--config", paths["config"], "--corpus", paths["corpus"],
                 "--out", paths["index"]]) == EXIT_OK
    assert main(["train", "--config", paths["config"], "--corpus", paths["corpus"],
                 "--qa", paths["qa"], "--index", paths["index"],
                 "--out", paths["models"]]) == EXIT_OK
    assert main(["answer", "--config", paths["config"], "--corpus", paths["corpus"],
                 "--qa", paths["qa"], "--index", paths["index"],
                 "--models", paths["models"], "--out", paths["answers"]]) == EXIT_OK
    return paths


class TestSynth:
    def test_writes_the_fixture_world(self, tmp_path, capsys):
        out = tmp_path / "world"
        assert main(["synth", "--out", str(out), "--passages", "50", "--questions", "20"]) == EXIT_OK
        assert capsys.readouterr().out == f"wrote corpus.jsonl and qa.jsonl to {out}\n"
        write_world(tmp_path / "expected", 50, 20)
        for name in ("corpus.jsonl", "qa.jsonl"):
            assert (out / name).read_bytes() == (tmp_path / "expected" / name).read_bytes()

    def test_default_sizes(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        assert len(read_lines(tmp_path / "corpus.jsonl")) == 200
        assert len(read_lines(tmp_path / "qa.jsonl")) == 100

    @pytest.mark.parametrize("sizes", [
        ["--passages", "5", "--questions", "10"], ["--questions", "0"], ["--passages", "-1"],
    ])
    def test_rejected_sizes_are_config_errors(self, tmp_path, capsys, sizes):
        out = tmp_path / "world"
        assert main(["synth", "--out", str(out), *sizes]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --passages ") and err.count("\n") == 1
        assert not out.exists()


class TestIngest:
    def test_stats_written(self, workdir, tmp_path, capsys):
        out = tmp_path / "stats"
        code = main(["ingest", "--corpus", workdir["corpus"], "--qa", workdir["qa"],
                     "--out", str(out)])
        assert code == EXIT_OK
        stats = json.loads((out / "stats.json").read_text())
        assert stats["passages"] == 12
        assert stats["qa_pairs"] == 8
        assert stats["sentences"] == 12  # one sentence per synthetic passage
        assert "ingested 12 passages" in capsys.readouterr().out

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["ingest", "--corpus", missing]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err
        assert missing in err
        assert "produce it with" in err

    def test_corpus_unset_is_config_error(self, capsys):
        assert main(["ingest"]) == EXIT_CONFIG
        assert "--corpus" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["ingest", "qa", "eval", "analyze"])
    def test_invalid_utf8_is_data_error(self, workdir, tmp_path, capsys, command):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'\n{"id": "p1", "text": "caf\xff ok"}\n')  # blank line 1
        argv = {
            "ingest": ["ingest", "--corpus", str(bad)],
            "qa": ["ingest", "--corpus", workdir["corpus"], "--qa", str(bad)],
            "eval": ["eval", "--qa", workdir["qa"], "--answers", str(bad)],
            "analyze": ["analyze", "--qa", workdir["qa"], "--corpus", workdir["corpus"],
                        "--runs", str(bad), "--out", str(tmp_path / "o")],
        }[command]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {bad}: line 2: invalid UTF-8\n"


ANSWER_HINT = "genki answer --corpus <corpus> --qa <qa> --index <index> --models <dir> --out <dir>"
# Each command's required flags, and what the error message calls each one.
REQUIRED = {
    "ingest": {"corpus": "a passage file"},
    "index": {"corpus": "a passage file", "out": "an index output path"},
    "retrieve": {"index": "an index file", "qa": "a QA file"},
    "train": {"corpus": "a passage file", "qa": "a QA file", "index": "an index file",
              "out": "a model output directory"},
    "answer": {"corpus": "a passage file", "qa": "a QA file", "index": "an index file",
               "models": "a trained model directory", "out": "an output directory"},
    "eval": {"qa": "a QA file", "answers": "an answers file"},
    "analyze": {"corpus": "a passage file", "qa": "a QA file", "runs": "a runs file",
                "out": "an output directory"},
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in REQUIRED.items() for flag in flags
])
def test_required_input_unset_or_missing(workdir, tmp_path, capsys, command, flag):
    valid = {
        "corpus": workdir["corpus"], "qa": workdir["qa"], "index": workdir["index"],
        "models": workdir["models"], "answers": workdir["answers"] + "/runs.jsonl",
        "runs": workdir["answers"] + "/runs.jsonl", "out": str(tmp_path / "out"),
    }

    def argv(value):
        paths = {**valid, flag: value}
        return [command, *(arg for name in REQUIRED[command] if paths[name]
                           for arg in (f"--{name}", paths[name]))]

    assert main(argv(None)) == EXIT_CONFIG
    where = "" if flag in ("answers", "runs") else " or set it in the config file"
    assert capsys.readouterr().err == (
        f"config error: {REQUIRED[command][flag]} required: pass --{flag}{where}\n"
    )
    if flag == "out":
        return
    missing = str(tmp_path / "missing")
    hint, path = {
        "corpus": ("your corpus exporter (JSONL of id/text)", missing),
        "qa": ("your QA exporter (JSONL of id/question/answers/format)", missing),
        "index": (f"genki index --corpus <corpus.jsonl> --out {missing}", missing),
        "models": (f"genki train --corpus <corpus> --qa <qa> --index <index> --out {missing}",
                   f"{missing}/l1.json"),
        "answers": (ANSWER_HINT, missing),
        "runs": (ANSWER_HINT, missing),
    }[flag]
    assert main(argv(missing)) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: missing {path}; produce it with: {hint}\n"


class TestRetrieve:
    def test_matches_embedder_oracle(self, workdir, tmp_path):
        out = tmp_path / "retrieved.jsonl"
        assert main(["retrieve", "--config", workdir["config"], "--index", workdir["index"],
                     "--qa", workdir["qa"], "--out", str(out)]) == EXIT_OK
        index = load_index(workdir["index"])
        embedder = HashEmbedder(index.dim, 0)
        questions = [json.loads(line) for line in read_lines(workdir["qa"])]
        for line, qa in zip(out.read_text().splitlines(), questions):
            record = json.loads(line)
            assert record["qid"] == qa["id"]
            expected = top_k(index, embedder.embed_question(qa["question"]), 2)
            assert [r["passage_id"] for r in record["retrieved"]] == [
                e.passage_id for e in expected
            ]
            assert [r["rank"] for r in record["retrieved"]] == [1, 2]

    def test_out_into_a_missing_directory(self, workdir, tmp_path, capsys):
        out = tmp_path / "new" / "dir" / "r.jsonl"
        assert main(["retrieve", "--config", workdir["config"], "--index", workdir["index"],
                     "--qa", workdir["qa"], "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert len(read_lines(out)) == 8
        assert sorted(p.name for p in out.parent.iterdir()) == ["r.jsonl"]

    def test_stdout_when_no_out(self, workdir, capsys):
        assert main(["retrieve", "--config", workdir["config"], "--index", workdir["index"],
                     "--qa", workdir["qa"]]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        assert json.loads(lines[0])["qid"] == "q000"

    def test_flag_overrides_config_k(self, workdir, tmp_path):
        out = tmp_path / "retrieved.jsonl"
        assert main(["retrieve", "--config", workdir["config"], "--index", workdir["index"],
                     "--qa", workdir["qa"], "--k", "3", "--out", str(out)]) == EXIT_OK
        record = json.loads(out.read_text().splitlines()[0])
        assert len(record["retrieved"]) == 3

    def test_missing_index_names_producer(self, workdir, tmp_path, capsys):
        missing = str(tmp_path / "no-index.bin")
        assert main(["retrieve", "--index", missing, "--qa", workdir["qa"]]) == EXIT_DATA
        err = capsys.readouterr().err
        assert missing in err
        assert "genki index" in err

    def test_corrupt_header_is_data_error(self, workdir, tmp_path, capsys):
        # 30 bytes whose header claims 2**50 vectors of dim 4.
        index = tmp_path / "index.bin"
        index.write_bytes(b"GKIX1" + struct.pack("<IQ", 4, 2**50) + bytes(13))
        assert main(["retrieve", "--index", str(index), "--qa", workdir["qa"]]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error:" in err
        assert str(index) in err

    def test_header_dim_past_the_cap_is_data_error(self, workdir, tmp_path, capsys):
        # A dim no embedder accepts, in a file too short for even one row.
        index = tmp_path / "index.bin"
        index.write_bytes(b"GKIX1" + struct.pack("<IQ", 2**32 - 1, 1) + bytes(13))
        assert main(["retrieve", "--index", str(index), "--qa", workdir["qa"]]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {index}: dim must be between 1 and 65536, got 4294967295\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_vector_is_data_error(
            self, workdir, tmp_path, capsys, index_file_bytes, value):
        good = load_index(workdir["index"])
        matrix = good.matrix.copy()
        matrix[good.count // 2, 7] = value
        index = tmp_path / "index.bin"
        index.write_bytes(index_file_bytes(matrix, good.ids))
        assert main(["retrieve", "--index", str(index), "--qa", workdir["qa"]]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "finite" in err
        assert "Traceback" not in err


class TestTrain:
    def test_index_from_another_corpus_is_data_error(self, workdir, tmp_path, capsys):
        # The same passages under other ids: every retrieved id is unknown.
        other = tmp_path / "other.jsonl"
        with open(workdir["corpus"], encoding="utf-8") as src, \
                open(other, "w", encoding="utf-8") as dst:
            for line in src:
                record = json.loads(line)
                record["id"] = "x" + record["id"]
                dst.write(json.dumps(record) + "\n")
        index = tmp_path / "other.bin"
        assert main(["index", "--config", workdir["config"], "--corpus", str(other),
                     "--out", str(index)]) == EXIT_OK
        models = tmp_path / "models"
        assert main(["train", "--config", workdir["config"], "--corpus", workdir["corpus"],
                     "--qa", workdir["qa"], "--index", str(index),
                     "--out", str(models)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "'xp000'" in err
        assert "rebuild it with: genki index" in err
        assert "Traceback" not in err
        assert not models.exists()

    def test_each_question_embedded_once(self, workdir, tmp_path, monkeypatch):
        counts = Counter()

        class CountingEmbedder(cli.HashEmbedder):
            def embed_questions(self, texts):
                counts.update(texts)
                return super().embed_questions(texts)

        monkeypatch.setattr(cli, "HashEmbedder", CountingEmbedder)
        assert main(["train", "--config", workdir["config"], "--corpus", workdir["corpus"],
                     "--qa", workdir["qa"], "--index", workdir["index"],
                     "--out", str(tmp_path / "models")]) == EXIT_OK
        questions = [json.loads(line)["question"]
                     for line in read_lines(workdir["qa"])]
        assert counts == Counter(questions)
        for name in ("l1.json", "l2.json", "l3.json", "reward.json"):
            reference = (workdir["root"] / "models" / name).read_bytes()
            assert (tmp_path / "models" / name).read_bytes() == reference

    def test_training_drafts_decoded_once(self, workdir, tmp_path, monkeypatch):
        batches = []
        generate_batch = lm_core.ToyLm.generate_batch

        def recording(model, prompts, max_tokens):
            batches.append([seq.text for seq in prompts])
            return generate_batch(model, prompts, max_tokens)

        monkeypatch.setattr(lm_core.ToyLm, "generate_batch", recording)
        assert main(["train", "--config", workdir["config"], "--corpus", workdir["corpus"],
                     "--qa", workdir["qa"], "--index", workdir["index"],
                     "--out", str(tmp_path / "models")]) == EXIT_OK
        assert len(batches) == 1 and len(batches[0]) == 8
        for name in ("l1.json", "l2.json", "l3.json", "reward.json"):
            reference = (workdir["root"] / "models" / name).read_bytes()
            assert (tmp_path / "models" / name).read_bytes() == reference

    def test_one_word_and_punctuation_passages_train_and_answer(self, workdir, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        with open(corpus, "w", encoding="utf-8") as fh:
            fh.write(Path(workdir["corpus"]).read_text(encoding="utf-8"))
            fh.write(json.dumps({"id": "solo", "text": "zebra"}) + "\n")
            fh.write(json.dumps({"id": "punct", "text": "!!!"}) + "\n")
        index, models = str(tmp_path / "index.bin"), str(tmp_path / "models")
        common = ["--config", workdir["config"], "--corpus", str(corpus), "--qa", workdir["qa"]]
        assert main(["ingest", *common]) == EXIT_OK
        assert main(["index", "--config", workdir["config"], "--corpus", str(corpus),
                     "--out", index]) == EXIT_OK
        assert main(["train", *common, "--index", index, "--out", models]) == EXIT_OK
        assert main(["answer", *common, "--index", index, "--models", models,
                     "--out", str(tmp_path / "run")]) == EXIT_OK
        assert capsys.readouterr().err == ""
        runs = (tmp_path / "run" / "runs.jsonl").read_text().splitlines()
        assert len(runs) == 8


class TestAtomicOutputs:
    def test_failed_jsonl_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [{"qid": "q0"}])
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_jsonl(path, [{"qid": "q1"}, {"qid": object()}])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["runs.jsonl"]

    def test_failed_json_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "fit.json"
        cli._write_json(path, {"fit": None})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            cli._write_json(path, {"fit": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["fit.json"]


@pytest.mark.parametrize("command", ["ingest", "train", "analyze", "eval"])
def test_gold_answer_without_word_token_is_data_error(workdir, tmp_path, capsys, command):
    qa = tmp_path / "qa.jsonl"
    lines = read_lines(workdir["qa"])
    lines[2] = json.dumps({**json.loads(lines[2]), "answers": ["!!!"]})
    qa.write_text("\n".join(lines) + "\n")
    inputs = ["--corpus", workdir["corpus"], "--qa", str(qa)]
    runs = workdir["answers"] + "/runs.jsonl"
    argv = {
        "ingest": ["ingest", *inputs],
        "train": ["train", "--config", workdir["config"], *inputs, "--index", workdir["index"],
                  "--out", str(tmp_path / "models")],
        "analyze": ["analyze", *inputs, "--runs", runs, "--out", str(tmp_path / "analysis")],
        "eval": ["eval", "--qa", str(qa), "--answers", runs],
    }[command]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {qa}: line 3: qa pair 'q002': gold answer '!!!' has no word token\n"
    )


DEEP = "[" * 100_000
LONG_INT = "1" + "0" * 5000  # past the interpreter's 4,300-digit limit on int("...")


def corpus_plus(workdir, line):
    return Path(workdir["corpus"]).read_text(encoding="utf-8") + line + "\n"


def qa_with_first_id(workdir, qid):
    lines = read_lines(workdir["qa"])
    lines[0] = json.dumps({**json.loads(lines[0]), "id": qid})
    return "\n".join(lines) + "\n"


# Inputs that ended in a traceback, or in exit 0 or 4 (an infinite lambda1):
# what the file holds, the command line that reads it as {bad}, and the
# error after the file name.
MALFORMED = {
    "config-invalid-utf8": (b'{"k": "\xff"}', "index --config {bad} --corpus {corpus} --out {out}",
                            "config error", "invalid UTF-8"),
    "config-deep": (DEEP, "index --config {bad} --corpus {corpus} --out {out}",
                    "config error", "JSON nested too deeply"),
    "config-long-int": ('{"k": %s}' % LONG_INT, "index --config {bad} --corpus {corpus} --out {out}",
                        "config error", "invalid JSON (Exceeds the limit (4300 digits)"),
    "config-huge-number": ('{"lambda1": 1%s}' % ("0" * 400), "ingest --config {bad} --corpus {corpus}",
                           "config error", "field 'lambda1' must be a finite number"),
    "config-1e400": ('{"lambda1": 1e400}', "ingest --config {bad} --corpus {corpus}",
                     "config error", "field 'lambda1' must be a finite number"),
    "corpus-deep": (lambda w: corpus_plus(w, DEEP), "ingest --corpus {bad}",
                    "data error", "line 13: JSON nested too deeply"),
    "answers-deep": (DEEP, "eval --qa {qa} --answers {bad}", "data error", "line 1: JSON nested too deeply"),
    "runs-long-int": ('{"qid": "q000", "n": %s}' % LONG_INT,
                      "analyze --corpus {corpus} --qa {qa} --runs {bad} --out {out}",
                      "data error", "line 1: invalid JSON (Exceeds the limit (4300 digits)"),
    "passage-id-surrogate": (lambda w: corpus_plus(w, '{"id": "p\\ud800", "text": "a b."}'),
                             "index --config {config} --corpus {bad} --out {out}",
                             "data error", "line 13: a \\u escape names a lone surrogate"),
    "qa-id-surrogate": (lambda w: qa_with_first_id(w, "q\udc00"),
                        "eval --qa {bad} --answers {runs} --out {out}",
                        "data error", "line 1: a \\u escape names a lone surrogate"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_error_line(workdir, tmp_path, capsys, case):
    content, command, kind, problem = MALFORMED[case]
    content = content(workdir) if callable(content) else content
    bad = tmp_path / "bad.json"
    if isinstance(content, str):
        content = content.encode("utf-8")
    bad.write_bytes(content)
    argv = command.format(bad=bad, out=tmp_path / "out", runs=workdir["answers"] + "/runs.jsonl",
                          **{k: workdir[k] for k in ("config", "corpus", "qa")}).split()
    assert main(argv) == (EXIT_CONFIG if kind == "config error" else EXIT_DATA)
    err = capsys.readouterr().err
    assert err.startswith(f"{kind}: {bad}: {problem}") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


# Values that replace a field; the integers are small, so a retyped k,
# embedder.dim or max_output_tokens stays within the fixture's sizes.
WRONG_VALUES = (
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=6)
    | st.lists(st.integers(-2, 3) | st.text(max_size=3), max_size=3)
    | st.dictionaries(st.text(max_size=3), st.integers(-2, 3), max_size=2)
)


@st.composite
def damaged(draw, text):
    """*text*, a JSON document or JSONL records, with one kind of damage."""
    how = draw(st.sampled_from(["truncate", "flip", "nest", "surrogate", "retype"]))
    data = text.encode("utf-8")
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if how == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    lines = text.splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[at])
    target = record
    key = draw(st.sampled_from(sorted(target)))
    while isinstance(target[key], dict) and target[key] and draw(st.booleans()):
        target = target[key]
        key = draw(st.sampled_from(sorted(target)))
    if how == "surrogate":
        if isinstance(target[key], str):
            target[key] += "\ud800"
        else:
            target[key + "\udc00"] = target.pop(key)
        lines[at] = json.dumps(record)  # writes each surrogate as a \u escape
    elif how == "nest":
        depth = draw(st.sampled_from([2, 500, 100_000]))
        target[key] = "NEST"
        lines[at] = json.dumps(record).replace('"NEST"', "[" * depth + "]" * depth)
    else:
        target[key] = draw(WRONG_VALUES)
        lines[at] = json.dumps(record)
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_input_exits_0_2_or_3_with_one_error_line(workdir, tmp_path, capsys, data):
    runs = workdir["answers"] + "/runs.jsonl"
    bad, out = tmp_path / "bad.json", str(tmp_path / "out")
    # The file damaged, and the command that reads the damaged copy.
    source, argv = data.draw(st.sampled_from([
        (workdir["corpus"], ["ingest", "--corpus", bad]),
        (workdir["qa"], ["ingest", "--corpus", workdir["corpus"], "--qa", bad]),
        (runs, ["eval", "--qa", workdir["qa"], "--answers", bad]),
        (runs, ["analyze", "--corpus", workdir["corpus"], "--qa", workdir["qa"], "--runs", bad,
                "--out", out]),
        (workdir["config"], ["index", "--config", bad, "--corpus", workdir["corpus"],
                             "--out", out + "/index.bin"]),
    ]))
    bad.write_bytes(data.draw(damaged(Path(source).read_text(encoding="utf-8"))))
    capsys.readouterr()
    code = main([str(arg) for arg in argv])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)
    if code != EXIT_OK:
        assert err.count("\n") == 1 and err.startswith(("config error: ", "data error: ")), err


@pytest.mark.parametrize("command", ["retrieve", "eval", "answer", "synth"])
def test_unwritable_out_is_data_error(workdir, tmp_path, capsys, command):
    directory, file = tmp_path / "dir", tmp_path / "file"
    directory.mkdir()
    file.write_text("")
    out = {"retrieve": directory, "eval": directory, "answer": file / "sub",
           "synth": file / "sub"}[command]
    argv = {
        "synth": ["synth"],
        "retrieve": ["retrieve", "--config", workdir["config"], "--index", workdir["index"],
                     "--qa", workdir["qa"]],
        "eval": ["eval", "--qa", workdir["qa"], "--answers", workdir["answers"] + "/runs.jsonl"],
        "answer": ["answer", "--config", workdir["config"], "--corpus", workdir["corpus"],
                   "--qa", workdir["qa"], "--index", workdir["index"],
                   "--models", workdir["models"]],
    }[command]
    assert main([*argv, "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert list(directory.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "answer"])
@pytest.mark.parametrize("template", [
    "draft : {nonexistent}", "draft : {}", "draft : {draft.x}", "draft : {draft!z}",
    "draft : {draft:d}",
])
def test_bad_template_is_config_error(workdir, tmp_path, capsys, command, template):
    config = tmp_path / "config.json"
    settings = json.loads(Path(workdir["config"]).read_text(encoding="utf-8"))
    config.write_text(json.dumps({**settings, "templates": {"III": template}}))
    inputs = ["--config", str(config), "--corpus", workdir["corpus"], "--qa", workdir["qa"],
              "--index", workdir["index"]]
    argv = {
        "train": ["train", *inputs, "--out", str(tmp_path / "models")],
        "answer": ["answer", *inputs, "--models", workdir["models"], "--out", str(tmp_path / "run")],
    }[command]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: prompt template III {template!r} cannot be rendered: ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_corpus_without_a_retrieved_passage_is_data_error(workdir, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    lines = read_lines(workdir["corpus"])
    corpus.write_text("".join(line + "\n" for line in lines if json.loads(line)["id"] != "p000"))
    out = tmp_path / "run"
    assert main(["answer", "--config", workdir["config"], "--corpus", str(corpus),
                 "--qa", workdir["qa"], "--index", workdir["index"],
                 "--models", workdir["models"], "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {workdir['index']} does not match {corpus}: index returned unknown "
        f"passage ids: ['p000']; rebuild it with: genki index --corpus {corpus} "
        f"--out {workdir['index']}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "answer"])
def test_unknown_template_name_is_config_error(workdir, tmp_path, capsys, command):
    # names are case-sensitive: "iii" is not template III
    config = tmp_path / "config.json"
    settings = json.loads(Path(workdir["config"]).read_text(encoding="utf-8"))
    config.write_text(json.dumps({**settings, "templates": {"iii": "zebra crossing {draft}"}}))
    inputs = ["--config", str(config), "--corpus", workdir["corpus"], "--qa", workdir["qa"],
              "--index", workdir["index"]]
    argv = {
        "train": ["train", *inputs, "--out", str(tmp_path / "models")],
        "answer": ["answer", *inputs, "--models", workdir["models"], "--out", str(tmp_path / "run")],
    }[command]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: unknown prompt templates: ['iii'] (known: ['I', 'II', 'III', 'IV'])\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("seed", [2**63, -2**63 - 1])
@pytest.mark.parametrize("command", ["index", "retrieve", "train", "answer"])
def test_embedder_seed_outside_64_bits_is_config_error(workdir, tmp_path, capsys, command, seed):
    config = tmp_path / "config.json"
    settings = json.loads(Path(workdir["config"]).read_text(encoding="utf-8"))
    config.write_text(json.dumps({**settings, "embedder": {"dim": 1024, "seed": seed}}))
    common = ["--config", str(config), "--out", str(tmp_path / "out")]
    argv = {
        "index": ["index", *common, "--corpus", workdir["corpus"]],
        "retrieve": ["retrieve", *common, "--index", workdir["index"], "--qa", workdir["qa"]],
        "train": ["train", *common, "--corpus", workdir["corpus"], "--qa", workdir["qa"],
                  "--index", workdir["index"]],
        "answer": ["answer", *common, "--corpus", workdir["corpus"], "--qa", workdir["qa"],
                   "--index", workdir["index"], "--models", workdir["models"]],
    }[command]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: embedder.seed must be a signed 64-bit integer, got {seed}\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def subprocess_env(**extra):
    """os.environ with this checkout's src first on PYTHONPATH."""
    src = str(Path(genki.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths), **extra}


def test_train_loads_neither_numpy_random_nor_openssl(workdir, tmp_path):
    # the reward model starts at zero weights, so nothing draws a random number
    code = ("import sys, genki.cli; code = genki.cli.main(sys.argv[1:]); "
            "print(code, sorted({'numpy.random', '_hashlib'} & set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-c", code, "train", "--config", workdir["config"],
         "--corpus", workdir["corpus"], "--qa", workdir["qa"], "--index", workdir["index"],
         "--out", str(tmp_path / "models")],
        env=subprocess_env(), capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("command", ["train", "eval"])
def test_empty_qa_file_is_data_error(workdir, tmp_path, capsys, command):
    qa = tmp_path / "qa.jsonl"
    qa.write_text("")
    argv = {
        "train": ["train", "--config", workdir["config"], "--corpus", workdir["corpus"],
                  "--index", workdir["index"], "--out", str(tmp_path / "models")],
        "eval": ["eval", "--answers", workdir["answers"] + "/runs.jsonl",
                 "--out", str(tmp_path / "eval")],
    }[command]
    assert main([*argv, "--qa", str(qa)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {qa}: no qa pairs") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [qa]


@pytest.mark.parametrize("command", ["retrieve", "answer"])
def test_empty_qa_file_answers_zero_questions(workdir, tmp_path, capsys, command):
    qa = tmp_path / "qa.jsonl"
    qa.write_text("")
    argv = {
        "retrieve": ["retrieve", "--config", workdir["config"], "--index", workdir["index"],
                     "--out", str(tmp_path / "retrieved.jsonl")],
        "answer": ["answer", "--config", workdir["config"], "--corpus", workdir["corpus"],
                   "--index", workdir["index"], "--models", workdir["models"],
                   "--out", str(tmp_path / "run")],
    }[command]
    assert main([*argv, "--qa", str(qa)]) == EXIT_OK
    assert " 0 questions" in capsys.readouterr().out


def test_only_synth_loads_genki_synth(workdir, tmp_path):
    # numpy.ma costs a command about 1.25 MB; np.unique's hash path (np.unique
    # of integers without return_inverse, np.union1d) imports it
    code = ("import json, sys, genki.cli; "
            "codes = [genki.cli.main(json.loads(argv)) for argv in sys.argv[1:]]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('genki')), "
            "'numpy.ma' in sys.modules]))")
    index = ["index", "--config", workdir["config"], "--corpus", workdir["corpus"],
             "--out", str(tmp_path / "index.bin")]
    train = ["train", "--config", workdir["config"], "--corpus", workdir["corpus"],
             "--qa", workdir["qa"], "--index", workdir["index"], "--out", str(tmp_path / "models")]
    answer = ["answer", "--config", workdir["config"], "--corpus", workdir["corpus"],
              "--qa", workdir["qa"], "--index", workdir["index"], "--models", workdir["models"],
              "--out", str(tmp_path / "run")]
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(index), json.dumps(train), json.dumps(answer)],
        env=subprocess_env(), capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == [[EXIT_OK, EXIT_OK, EXIT_OK], [
        "genki", "genki.cli", "genki.clients", "genki.consistency", "genki.corpus",
        "genki.ensemble", "genki.generation", "genki.lm_core", "genki.metrics",
        "genki.retriever", "genki.reward", "genki.textstats",
    ], False]


# Subprocess source: executed() lists which lazily registered genki modules
# have run their code, read without loading any of them.  Each name in
# DEFINES is one its module defines.
EXECUTED = """
import sys
DEFINES = {"clients": "RemoteJudge", "consistency": "consistency", "ensemble": "select",
           "generation": "run_pipeline", "lm_core": "ToyLm", "metrics": "evaluate_answers",
           "reward": "ToyRewardModel", "synth": "write_world", "textstats": "nisf"}

def executed():
    found = []
    for name, defined in DEFINES.items():
        module = sys.modules.get("genki." + name)
        if module is not None and defined in object.__getattribute__(module, "__dict__"):
            found.append(name)
    return found
"""


def test_index_retrieve_and_ingest_execute_only_corpus_and_retriever(workdir, tmp_path):
    # perfbench's tracer looks up every module it wraps in sys.modules right
    # after importing genki.cli, and reads genki.textstats.OOV_WORDS
    code = EXECUTED + (
        "import json, genki.cli\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from tracer import TARGETS\n"
        "report = {'missing': sorted({m for m, _ in TARGETS} - set(sys.modules))}\n"
        "for argv in map(json.loads, sys.argv[2:]):\n"
        "    report[argv[0]] = [genki.cli.main(argv), executed()]\n"
        "report['oov'] = genki.textstats.OOV_WORDS.count\n"
        "print(json.dumps(report))\n"
    )
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    index = ["index", "--config", workdir["config"], "--corpus", workdir["corpus"],
             "--out", str(tmp_path / "index.bin")]
    ingest = ["ingest", "--corpus", workdir["corpus"], "--qa", workdir["qa"]]
    done = subprocess.run(
        [sys.executable, "-c", code, str(perfbench), json.dumps(index),
         json.dumps(retrieve_argv(workdir, workdir["qa"], tmp_path / "retrieved.jsonl")),
         json.dumps(ingest)],
        env=subprocess_env(), capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "missing": [], "index": [EXIT_OK, []], "retrieve": [EXIT_OK, []],
        "ingest": [EXIT_OK, []], "oov": 0,
    }


def test_selection_threads_start_after_their_modules_ran(workdir, tmp_path):
    # Before Python 3.12 a lazy module loads without a lock, so no selection
    # thread may be the first to touch one.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    url = f"http://127.0.0.1:{probe.getsockname()[1]}"
    probe.close()  # nothing listens there now, so each connection is refused
    config = json.loads(Path(workdir["config"]).read_text())
    config["remote"] = {"judge_url": url, "scorer_url": url}
    (tmp_path / "config.json").write_text(json.dumps(config))
    code = EXECUTED + (
        "import json, threading, genki.cli\n"
        "from genki import generation\n"
        "original, seen = generation.run_pipeline, []\n"
        "def checked(*args, **kwargs):\n"
        "    seen.append([threading.current_thread() is threading.main_thread(),\n"
        "                 kwargs['jobs'], executed()])\n"
        "    return original(*args, **kwargs)\n"
        "generation.run_pipeline = checked\n"
        "print(json.dumps([genki.cli.main(sys.argv[1:]), seen]))\n"
    )
    argv = answer_argv({**workdir, "config": str(tmp_path / "config.json")}, workdir["qa"],
                       tmp_path / "run")
    done = subprocess.run(
        [sys.executable, "-c", code, *argv, "--backend", "remote", "--jobs", "2"],
        env=subprocess_env(), capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == [EXIT_OK, [[True, 2, [
        "clients", "consistency", "ensemble", "generation", "lm_core", "metrics", "reward",
        "textstats",
    ]]]]


@pytest.mark.parametrize("module, reader, command", [
    ("corpus", "ingest_passages", "index"),
    ("retriever", "load_index", "retrieve"),
])
def test_inputs_are_read_through_the_reader_on_its_module(
    workdir, tmp_path, monkeypatch, module, reader, command
):
    # a tracer wraps a reader where it is defined, after genki.cli is imported
    owner = getattr(genki, module)
    calls, original = [], getattr(owner, reader)
    monkeypatch.setattr(owner, reader, lambda path: calls.append(path) or original(path))
    argv = {
        "index": ["index", "--config", workdir["config"], "--corpus", workdir["corpus"],
                  "--out", str(tmp_path / "index.bin")],
        "retrieve": retrieve_argv(workdir, workdir["qa"], tmp_path / "retrieved.jsonl"),
    }[command]
    assert main(argv) == EXIT_OK
    assert calls == [workdir["corpus" if command == "index" else "index"]]


def test_readme_quick_start_runs_as_written(tmp_path):
    # The ```sh block under "## Quick start", as CI runs it through the
    # installed script, with genki defined as this checkout's genki.cli.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "quickstart.sh"
    script.write_text(f'genki() {{ {shlex.quote(sys.executable)} -m genki.cli "$@"; }}\n{block}')
    done = subprocess.run(
        ["bash", "-euo", "pipefail", str(script)], cwd=tmp_path,
        env=subprocess_env(), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "(0 failures)" in done.stdout
    work = tmp_path / "work"
    assert len(read_lines(work / "eval")) == len(read_lines(work / "qa.jsonl")) + 2
    json.loads((work / "analysis" / "fit.json").read_text(encoding="utf-8"))


def test_oov_warnings_do_not_depend_on_the_hash_seed(tmp_path):
    # the quick-start world; its answers score words missing from the corpus
    write_world(tmp_path, 50, 20)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "k": 2, "max_output_tokens": 12, "embedder": {"dim": 1024, "seed": 0},
        "train": {"steps": 60, "learning_rate": 0.5, "reward_steps": 100},
    }))
    inputs = ["--config", str(config), "--corpus", str(tmp_path / "corpus.jsonl"),
              "--qa", str(tmp_path / "qa.jsonl"), "--index", str(tmp_path / "index.bin")]
    assert main(["index", *inputs[:4], "--out", str(tmp_path / "index.bin")]) == EXIT_OK
    assert main(["train", *inputs, "--out", str(tmp_path / "models")]) == EXIT_OK

    def answer_stderr(hash_seed):
        done = subprocess.run(
            [sys.executable, "-m", "genki.cli", "answer", *inputs,
             "--models", str(tmp_path / "models"), "--out", str(tmp_path / f"run{hash_seed}")],
            env=subprocess_env(PYTHONHASHSEED=str(hash_seed)), capture_output=True, text=True,
            check=True,
        )
        return done.stderr

    first = answer_stderr(1)
    assert first.count("not in corpus statistics") > 1
    assert answer_stderr(2) == first


class TestAnswer:
    def test_runs_complete_and_exact(self, workdir):
        runs = [json.loads(line) for line in read_lines(workdir["answers"] + "/runs.jsonl")]
        qa = [json.loads(line) for line in read_lines(workdir["qa"])]
        assert len(runs) == 8
        for run, pair in zip(runs, qa):
            assert run["qid"] == pair["id"]
            assert run["error"] is None
            assert run["final_answer"] == pair["answers"][0]
            assert run["bundle"]["route"] in ("RewardPick", "ExternalPick")

    def test_rerun_byte_identical(self, workdir, tmp_path):
        out2, out3 = tmp_path / "run2", tmp_path / "run3"
        base = ["answer", "--config", workdir["config"], "--corpus", workdir["corpus"],
                "--qa", workdir["qa"], "--index", workdir["index"],
                "--models", workdir["models"]]
        assert main(base + ["--out", str(out2)]) == EXIT_OK
        assert main(base + ["--out", str(out3), "--jobs", "3"]) == EXIT_OK
        first = (workdir["root"] / "run1")
        for name in ("runs.jsonl", "audit.jsonl"):
            reference = (first / name).read_bytes()
            assert (out2 / name).read_bytes() == reference
            assert (out3 / name).read_bytes() == reference

    def test_audit_rows_project_runs(self, workdir):
        # one audit row per question that reached selection, in input order
        runs = [json.loads(line) for line in read_lines(workdir["answers"] + "/runs.jsonl")]
        rows = [json.loads(line) for line in read_lines(workdir["answers"] + "/audit.jsonl")]
        expected = [
            {"qid": run["qid"], **run["bundle"], "winner_provenance": run["winner_provenance"]}
            for run in runs if run["bundle"] is not None
        ]
        assert rows == expected and rows
        assert rows[0]["route"] in ("RewardPick", "ExternalPick")

    def test_failed_audit_write_keeps_previous_files(self, workdir, tmp_path, monkeypatch):
        out = tmp_path / "run"
        shutil.copytree(workdir["answers"], out)
        (out / "audit.jsonl").write_text("previous audit\n")
        (out / "runs.jsonl").write_text("previous runs\n")
        record = generation.run_record

        def unwritable_third_bundle(run):
            fields = record(run)
            if run.qid == "q002":
                fields["bundle"] = {**fields["bundle"], "cs1": object()}
            return fields

        monkeypatch.setattr(generation, "run_record", unwritable_third_bundle)
        with pytest.raises(TypeError):
            main(["answer", "--config", workdir["config"], "--corpus", workdir["corpus"],
                  "--qa", workdir["qa"], "--index", workdir["index"],
                  "--models", workdir["models"], "--out", str(out)])
        assert (out / "audit.jsonl").read_text() == "previous audit\n"
        assert (out / "runs.jsonl").read_text() == "previous runs\n"
        assert sorted(p.name for p in out.iterdir()) == ["audit.jsonl", "runs.jsonl"]

    def test_missing_models_names_producer(self, workdir, tmp_path, capsys):
        empty = tmp_path / "no-models"
        empty.mkdir()
        assert main(["answer", "--config", workdir["config"], "--corpus", workdir["corpus"],
                     "--qa", workdir["qa"], "--index", workdir["index"],
                     "--models", str(empty), "--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "l1.json" in err
        assert "genki train" in err

    @pytest.mark.parametrize("content", ['{"vocab": 5, "logits": [], "seed": 0, "step": 0}',
                                         '{"schema_version": 2, "vocab": ["<unk>", "</s>"], '
                                         '"logits": "AAAA", "seed": 0, "step": 0}',
                                         "[]"])
    def test_corrupt_checkpoint_is_data_error(self, workdir, tmp_path, capsys, content):
        models = tmp_path / "models"
        shutil.copytree(workdir["models"], models)
        (models / "l2.json").write_text(content)
        assert main(["answer", "--config", workdir["config"], "--corpus", workdir["corpus"],
                     "--qa", workdir["qa"], "--index", workdir["index"],
                     "--models", str(models), "--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error:" in err
        assert "l2.json" in err

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_checkpoint_schema_asks_for_retraining(self, workdir, tmp_path, capsys, version):
        models = tmp_path / "models"
        shutil.copytree(workdir["models"], models)
        words = json.loads((models / "l2.json").read_text())["vocab"]
        size = len(words)
        if version == 1:  # a dense table as nested lists, no schema_version
            payload = {"vocab": words, "logits": [[0.0] * size] * size, "seed": 0, "step": 60}
        else:  # a dense table as base64 float64
            table = base64.b64encode(bytes(8 * size * size)).decode("ascii")
            payload = {"schema_version": 2, "vocab": words, "logits": table, "seed": 0, "step": 60}
        (models / "l2.json").write_text(json.dumps(payload))
        assert main(["answer", "--config", workdir["config"], "--corpus", workdir["corpus"],
                     "--qa", workdir["qa"], "--index", workdir["index"],
                     "--models", str(models), "--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert f"l2.json: unsupported checkpoint schema {version}; retrain with: genki train" in err
        assert f"--out {models}" in err
        assert "Traceback" not in err

    def test_builtin_models_select_without_threads(self, workdir, tmp_path, monkeypatch):
        pools = []

        class RecordingPool(generation.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(generation, "ThreadPoolExecutor", RecordingPool)
        base = ["answer", "--config", workdir["config"], "--corpus", workdir["corpus"],
                "--qa", workdir["qa"], "--index", workdir["index"],
                "--models", workdir["models"], "--backend", "toy"]
        for jobs in ("1", "2"):
            assert main(base + ["--jobs", jobs, "--out", str(tmp_path / jobs)]) == EXIT_OK
        assert pools == []
        for name in ("runs.jsonl", "audit.jsonl"):
            assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()

    @pytest.mark.parametrize("backend, jobs", [("toy", 1), ("remote", 2)])
    def test_jobs_reach_the_pipeline_only_with_a_remote_backend(
        self, workdir, tmp_path, monkeypatch, backend, jobs
    ):
        seen = []
        monkeypatch.setattr(
            generation, "run_pipeline", lambda *args, **kwargs: seen.append(kwargs["jobs"]) or []
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"remote": {"judge_url": "http://127.0.0.1:9"}}))
        assert main(["answer", "--config", str(config), "--corpus", workdir["corpus"],
                     "--qa", workdir["qa"], "--index", workdir["index"],
                     "--models", workdir["models"], "--backend", backend, "--jobs", "2",
                     "--out", str(tmp_path / "run")]) == EXIT_OK
        assert seen == [jobs]

    def test_unreachable_remote_fails_each_question_not_the_command(
        self, workdir, tmp_path, capsys
    ):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{probe.getsockname()[1]}"
        probe.close()  # nothing listens there now, so each connection is refused
        config = json.loads(Path(workdir["config"]).read_text())
        config["remote"] = {"judge_url": url, "scorer_url": url}
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main(["answer", "--config", str(tmp_path / "config.json"),
                     "--corpus", workdir["corpus"], "--qa", workdir["qa"],
                     "--index", workdir["index"], "--models", workdir["models"],
                     "--backend", "remote", "--out", str(out)]) == EXIT_OK
        assert "(8 failures)" in capsys.readouterr().out
        runs = [json.loads(line) for line in read_lines(out / "runs.jsonl")]
        assert len(runs) == 8
        assert all(run["error"].startswith("TransportError: ") for run in runs)

    def test_corrupt_reward_checkpoint_is_data_error(self, workdir, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(workdir["models"], models)
        (models / "reward.json").write_text("[1, 2, 3]")
        assert main(["answer", "--config", workdir["config"], "--corpus", workdir["corpus"],
                     "--qa", workdir["qa"], "--index", workdir["index"],
                     "--models", str(models), "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert "data error:" in capsys.readouterr().err

    def test_remote_backend_needs_judge_url(self, workdir, tmp_path, capsys):
        assert main(["answer", "--config", workdir["config"], "--corpus", workdir["corpus"],
                     "--qa", workdir["qa"], "--index", workdir["index"],
                     "--models", workdir["models"], "--out", str(tmp_path / "o"),
                     "--backend", "remote"]) == EXIT_CONFIG
        assert "judge_url" in capsys.readouterr().err


def write_questions(workdir, path, count):
    """*count* QA records that cycle through the workdir's questions, each under its own id."""
    records = [json.loads(line) for line in read_lines(workdir["qa"])]
    write_jsonl(path, [{**records[i % len(records)], "id": f"s{i:05d}"} for i in range(count)])
    return path


# Line 5 of a 6-question file, the second block when blocks hold 3
# questions, damaged one way, and the message that line gets.
SECOND_BLOCK_DAMAGE = {
    "malformed": ("not json", "line 5: invalid JSON (Expecting value)"),
    "repeated": ('{"id": "s00001", "question": "who", "answers": ["a"], "format": "entity"}',
                 "line 5: duplicate qa pair id 's00001'"),
}


def write_damaged_questions(workdir, path, damage):
    """write_questions of 6 records, line 5 replaced as SECOND_BLOCK_DAMAGE[damage] says."""
    lines = read_lines(write_questions(workdir, path, 6))
    lines[4] = SECOND_BLOCK_DAMAGE[damage][0]
    path.write_text("".join(line + "\n" for line in lines))
    return path


def answer_argv(workdir, qa, out, corpus=None):
    return ["answer", "--config", workdir["config"], "--corpus", str(corpus or workdir["corpus"]),
            "--qa", str(qa), "--index", workdir["index"], "--models", workdir["models"],
            "--out", str(out)]


def retrieve_argv(workdir, qa, out=None):
    return ["retrieve", "--config", workdir["config"], "--index", workdir["index"],
            "--qa", str(qa), *(["--out", str(out)] if out else [])]


# Bytes of tracemalloc peak a four-block answer run may hold above a one-block
# run plus its extra seen ids: the interpreter's free lists keep some freed
# tuples and dicts of earlier blocks.  With 128-question blocks the excess is
# about 13 KB when blocks are read and written one at a time, about 108 KB
# when every QaPair of the file is kept, and about 600 KB when every run is
# kept to the end.
STREAM_SLACK = 64 * 1024


class TestStreamedAnswer:
    """genki answer writes each block's rows before it answers the next block."""

    def test_blocks_write_what_one_pipeline_call_over_all_questions_writes(
        self, workdir, tmp_path, monkeypatch
    ):
        qa = write_questions(workdir, tmp_path / "qa.jsonl", 10)
        passages = ingest_passages(workdir["corpus"])
        models = Path(workdir["models"])
        runs = run_pipeline(
            ingest_qa_pairs(qa),
            PipelineModels(*(load_checkpoint(models / f"l{i}.json") for i in (1, 2, 3)),
                           load_reward_checkpoint(models / "reward.json"), StubJudge()),
            load_index(workdir["index"]), HashEmbedder(1024, 0), {p.id: p for p in passages},
            build_stats(passages),
            PipelineConfig(k=2, format=FormatSpec(AnswerKind.ENTITY, 8, ""), max_output_tokens=12),
        )
        records = [run_record(run) for run in runs]
        write_jsonl(tmp_path / "runs.jsonl", records)
        write_jsonl(tmp_path / "audit.jsonl", [
            {"qid": rec["qid"], **rec["bundle"], "winner_provenance": rec["winner_provenance"]}
            for rec in records if rec["bundle"] is not None
        ])
        assert len(runs) == 10 and all(run.bundle for run in runs)

        sizes, pipeline = [], generation.run_pipeline
        monkeypatch.setattr(generation, "run_pipeline",
                            lambda block, *args, **kwargs: sizes.append(len(block))
                            or pipeline(block, *args, **kwargs))
        monkeypatch.setattr(genki.corpus, "ANSWER_BLOCK", 3)
        assert main(answer_argv(workdir, qa, tmp_path / "run")) == EXIT_OK
        assert sizes == [3, 3, 3, 1]
        for name in ("runs.jsonl", "audit.jsonl"):
            assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_mismatch_in_the_second_block_leaves_no_output(
        self, workdir, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(genki.corpus, "ANSWER_BLOCK", 3)
        qa = write_questions(workdir, tmp_path / "qa.jsonl", 6)
        questions = [pair.question for pair in ingest_qa_pairs(qa)]
        retrievals = retrieve_texts(load_index(workdir["index"]), HashEmbedder(1024, 0),
                                    questions, 2)
        first = {r.passage_id for results in retrievals[:3] for r in results}
        missing = next(r.passage_id for results in retrievals[3:] for r in results
                       if r.passage_id not in first)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(line + "\n" for line in read_lines(workdir["corpus"])
                                  if json.loads(line)["id"] != missing))
        written, write_rows = [], cli.write_rows

        def recording_write_rows(fh, records):
            records = list(records)
            written.append([record["qid"] for record in records])
            write_rows(fh, records)

        monkeypatch.setattr(cli, "write_rows", recording_write_rows)
        out = tmp_path / "new" / "run"
        assert main(answer_argv(workdir, qa, out, corpus)) == EXIT_DATA
        assert f"index returned unknown passage ids: [{missing!r}]" in capsys.readouterr().err
        # the first block's rows were written, then every trace of them went
        assert written[0] == ["s00000", "s00001", "s00002"]
        assert sorted(tmp_path.iterdir()) == [corpus, qa]

    @pytest.mark.parametrize("damage", sorted(SECOND_BLOCK_DAMAGE))
    def test_bad_line_in_the_second_block_leaves_no_output(
        self, workdir, tmp_path, monkeypatch, capsys, damage
    ):
        monkeypatch.setattr(genki.corpus, "ANSWER_BLOCK", 3)
        qa = write_damaged_questions(workdir, tmp_path / "qa.jsonl", damage)
        sizes, pipeline = [], generation.run_pipeline
        monkeypatch.setattr(generation, "run_pipeline",
                            lambda block, *args, **kwargs: sizes.append(len(block))
                            or pipeline(block, *args, **kwargs))
        assert main(answer_argv(workdir, qa, tmp_path / "new" / "run")) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {qa}: {SECOND_BLOCK_DAMAGE[damage][1]}\n"
        assert sizes == [3]  # the first block was answered before line 5 was read
        assert sorted(tmp_path.iterdir()) == [qa]

    def test_empty_qa_file_writes_both_files_empty(self, workdir, tmp_path, capsys):
        qa = tmp_path / "qa.jsonl"
        qa.write_text("")
        assert main(answer_argv(workdir, qa, tmp_path / "run")) == EXIT_OK
        assert capsys.readouterr().out == f"answered 0 questions (0 failures) -> {tmp_path / 'run'}\n"
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["audit.jsonl", "runs.jsonl"]
        assert all((tmp_path / "run" / name).read_bytes() == b""
                   for name in ("audit.jsonl", "runs.jsonl"))

    def test_peak_memory_does_not_grow_with_the_number_of_blocks(
        self, workdir, tmp_path, monkeypatch
    ):
        block = 128
        monkeypatch.setattr(genki.corpus, "ANSWER_BLOCK", block)
        one = write_questions(workdir, tmp_path / "one.jsonl", block)
        four = write_questions(workdir, tmp_path / "four.jsonl", 4 * block)
        assert main(answer_argv(workdir, one, tmp_path / "warm")) == EXIT_OK  # first-call caches
        tracemalloc.start()
        try:
            peaks = []
            for qa in (one, four):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                assert main(answer_argv(workdir, qa, tmp_path / qa.stem)) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            # the four-block run holds 3 * block more seen ids than the one-block
            # run, and no more QaPairs
            start = tracemalloc.get_traced_memory()[0]
            held = [{pair.id for pair in iter_qa_pairs(one)}]
            middle = tracemalloc.get_traced_memory()[0]
            held.append({pair.id for pair in iter_qa_pairs(four)})
            extra = (tracemalloc.get_traced_memory()[0] - middle) - (middle - start)
        finally:
            tracemalloc.stop()
        assert peaks[1] <= peaks[0] + extra + STREAM_SLACK


class TestStreamedRetrieve:
    """genki retrieve writes each block's rows before it reads the next block."""

    def test_blocks_write_what_one_retrieve_call_over_all_questions_writes(
        self, workdir, tmp_path, monkeypatch, capsys
    ):
        qa = write_questions(workdir, tmp_path / "qa.jsonl", 10)
        pairs = ingest_qa_pairs(qa)
        retrievals = retrieve_texts(load_index(workdir["index"]), HashEmbedder(1024, 0),
                                    [pair.question for pair in pairs], 2)
        write_jsonl(tmp_path / "expected.jsonl", [
            {"qid": pair.id, "retrieved": [
                {"passage_id": r.passage_id, "score": r.score, "rank": r.rank} for r in results
            ]}
            for pair, results in zip(pairs, retrievals)
        ])

        sizes, retrieve = [], cli.retrieve_texts
        monkeypatch.setattr(cli, "retrieve_texts",
                            lambda index, embedder, questions, k: sizes.append(len(questions))
                            or retrieve(index, embedder, questions, k))
        monkeypatch.setattr(genki.corpus, "ANSWER_BLOCK", 3)
        out = tmp_path / "retrieved.jsonl"
        assert main(retrieve_argv(workdir, qa, out)) == EXIT_OK
        assert capsys.readouterr().out == f"retrieved top-2 for 10 questions -> {out}\n"
        assert sizes == [3, 3, 3, 1]
        assert out.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
        assert main(retrieve_argv(workdir, qa)) == EXIT_OK  # the same rows on stdout
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("damage", sorted(SECOND_BLOCK_DAMAGE))
    def test_bad_line_in_the_second_block_leaves_no_output(
        self, workdir, tmp_path, monkeypatch, capsys, damage
    ):
        monkeypatch.setattr(genki.corpus, "ANSWER_BLOCK", 3)
        qa = write_damaged_questions(workdir, tmp_path / "qa.jsonl", damage)
        assert main(retrieve_argv(workdir, qa, tmp_path / "new" / "retrieved.jsonl")) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err == f"data error: {qa}: {SECOND_BLOCK_DAMAGE[damage][1]}\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [qa]

    def test_without_out_earlier_blocks_are_printed_before_a_bad_line(
        self, workdir, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(genki.corpus, "ANSWER_BLOCK", 3)
        qa = write_damaged_questions(workdir, tmp_path / "qa.jsonl", "malformed")
        assert main(retrieve_argv(workdir, qa)) == EXIT_DATA
        captured = capsys.readouterr()
        assert [json.loads(line)["qid"] for line in captured.out.splitlines()] == [
            "s00000", "s00001", "s00002"
        ]
        assert captured.err == f"data error: {qa}: {SECOND_BLOCK_DAMAGE['malformed'][1]}\n"


class TestEval:
    def test_pipeline_answers_exact(self, workdir, tmp_path, capsys):
        report_path = tmp_path / "report.tsv"
        assert main(["eval", "--qa", workdir["qa"],
                     "--answers", workdir["answers"] + "/runs.jsonl",
                     "--out", str(report_path)]) == EXIT_OK
        assert "em 1.0000" in capsys.readouterr().out
        lines = report_path.read_text().splitlines()
        assert lines[0].startswith("qid\tem")
        assert lines[-1].startswith("mean\t1.000000")

    def test_simple_answer_format(self, workdir, tmp_path, capsys):
        qa = [json.loads(line) for line in read_lines(workdir["qa"])]
        answers = tmp_path / "golds.jsonl"
        with open(answers, "w", encoding="utf-8") as fh:
            for pair in qa:
                fh.write(json.dumps({"id": pair["id"], "answer": pair["answers"][0]}))
                fh.write("\n")
        assert main(["eval", "--qa", workdir["qa"], "--answers", str(answers)]) == EXIT_OK
        assert "em 1.0000" in capsys.readouterr().out

    def test_missing_answer_lists_ids(self, workdir, tmp_path, capsys):
        qa = [json.loads(line) for line in read_lines(workdir["qa"])]
        answers = tmp_path / "partial.jsonl"
        with open(answers, "w", encoding="utf-8") as fh:
            for pair in qa[:-2]:
                fh.write(json.dumps({"id": pair["id"], "answer": pair["answers"][0]}))
                fh.write("\n")
        assert main(["eval", "--qa", workdir["qa"], "--answers", str(answers)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "no answer for 2 question(s)" in err
        assert qa[-1]["id"] in err

    def test_missing_id_with_line_break_is_one_line(self, tmp_path, capsys):
        qa = tmp_path / "qa.jsonl"
        qa.write_text(json.dumps({"id": "q\n1", "question": "who", "answers": ["cat"],
                                  "format": "entity"}) + "\n")
        answers = tmp_path / "answers.jsonl"
        answers.write_text(json.dumps({"id": "q1", "answer": "cat"}) + "\n")
        assert main(["eval", "--qa", str(qa), "--answers", str(answers)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {answers}: no answer for 1 question(s): 'q\\n1'\n"
        )

    def test_repeated_answer_id_is_data_error(self, workdir, tmp_path, capsys):
        runs = Path(workdir["answers"]) / "runs.jsonl"
        answers = tmp_path / "runs.jsonl"
        answers.write_text(runs.read_text() + json.dumps({"id": "q000", "answer": "wrong"}) + "\n")
        line = len(read_lines(runs)) + 1
        assert main(["eval", "--qa", workdir["qa"], "--answers", str(answers)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {answers}: line {line}: duplicate answer id 'q000'\n"
        )

    def test_malformed_answers_line_numbered(self, workdir, tmp_path, capsys):
        answers = tmp_path / "bad.jsonl"
        answers.write_text('{"id": "q000", "answer": "x"}\nnot json\n')
        assert main(["eval", "--qa", workdir["qa"], "--answers", str(answers)]) == EXIT_DATA
        assert "line 2" in capsys.readouterr().err


class TestAnalyze:
    def test_outputs(self, workdir, tmp_path, capsys):
        out = tmp_path / "analysis"
        assert main(["analyze", "--qa", workdir["qa"], "--corpus", workdir["corpus"],
                     "--runs", workdir["answers"] + "/runs.jsonl",
                     "--out", str(out)]) == EXIT_OK
        csv_lines = (out / "analysis.csv").read_text().splitlines()
        assert csv_lines[0] == "quality,mean_recall,count"
        # every synthetic question retrieves its own passage: gold covers 2 of
        # the passage's 5 word tokens, so all points share quality 0.4
        assert len(csv_lines) == 2
        mid, mean_recall, count = csv_lines[1].split(",")
        assert mid == "0.450000"
        assert mean_recall == "1.000000"
        assert count == "8"
        fit = json.loads((out / "fit.json").read_text())
        # identical x everywhere: the two-segment fit is degenerate by design
        assert fit["fit"] is None
        assert "coincide" in fit["reason"]
        assert "8 runs" in capsys.readouterr().out

    def test_fit_written_for_two_quality_levels(self, workdir, tmp_path):
        # half the runs retrieved nothing (quality 0), half their own passage (0.4)
        runs = tmp_path / "runs.jsonl"
        with open(runs, "w", encoding="utf-8") as fh:
            for i, line in enumerate(read_lines(workdir["answers"] + "/runs.jsonl")):
                record = json.loads(line)
                if i < 4:
                    record.update(retrieved_ids=[], final_answer="wrong" if i % 2 else "")
                fh.write(json.dumps(record) + "\n")
        out = tmp_path / "analysis"
        assert main(["analyze", "--qa", workdir["qa"], "--corpus", workdir["corpus"],
                     "--runs", str(runs), "--out", str(out)]) == EXIT_OK
        fit = json.loads((out / "fit.json").read_text())
        assert fit["breakpoint"] == 0.2
        assert fit["segment2"] == {"slope": 0.0, "intercept": 1.0, "r2": 1.0}
        assert set(fit) == {"segment1", "segment2", "breakpoint", "single"}
        assert set(fit["segment1"]) == set(fit["single"]) == {"slope", "intercept", "r2"}

    def test_fewer_than_six_runs_give_the_reason(self, workdir, tmp_path, capsys):
        runs = tmp_path / "runs.jsonl"
        lines = read_lines(workdir["answers"] + "/runs.jsonl")[:5]
        runs.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "analysis"
        assert main(["analyze", "--qa", workdir["qa"], "--corpus", workdir["corpus"],
                     "--runs", str(runs), "--out", str(out)]) == EXIT_OK
        fit = json.loads((out / "fit.json").read_text())
        assert fit == {"fit": None, "reason": "need at least 6 points, got 5"}
        assert (out / "analysis.csv").read_text() == "quality,mean_recall,count\n0.450000,1.000000,5\n"
        assert "5 runs" in capsys.readouterr().out

    def test_no_usable_runs_leaves_no_output(self, workdir, tmp_path, capsys):
        runs = tmp_path / "runs.jsonl"
        runs.write_text(json.dumps({"qid": "q000", "final_answer": "", "error": "E: x"}) + "\n")
        out = tmp_path / "analysis"
        assert main(["analyze", "--qa", workdir["qa"], "--corpus", workdir["corpus"],
                     "--runs", str(runs), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {runs}: no usable runs (all missing, errored, or unmatched)\n"
        )
        assert not out.exists()

    def test_missing_runs_names_producer(self, workdir, tmp_path, capsys):
        assert main(["analyze", "--qa", workdir["qa"], "--corpus", workdir["corpus"],
                     "--runs", str(tmp_path / "none.jsonl"),
                     "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert "genki answer" in capsys.readouterr().err

    def test_non_object_runs_line_is_data_error(self, workdir, tmp_path, capsys):
        runs = tmp_path / "runs.jsonl"
        runs.write_text("[1, 2]\n")
        assert main(["analyze", "--qa", workdir["qa"], "--corpus", workdir["corpus"],
                     "--runs", str(runs), "--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {runs}: line 1: expected a JSON object\n"

    @pytest.mark.parametrize("field, value, kind", [
        ("qid", ["x"], "must be a string"),
        ("final_answer", 5, "must be a string"),
        ("error", {"a": 1}, "must be a string or null"),
        ("retrieved_ids", "p000", "must be a list of strings"),
        ("retrieved_ids", ["p000", 3], "must be a list of strings"),
    ])
    def test_wrong_field_type_is_data_error(self, workdir, tmp_path, capsys, field, value, kind):
        record = {"qid": "q000", "final_answer": "a", "error": None, "retrieved_ids": []}
        runs = tmp_path / "runs.jsonl"
        runs.write_text(json.dumps(record) + "\n" + json.dumps({**record, field: value}) + "\n")
        assert main(["analyze", "--qa", workdir["qa"], "--corpus", workdir["corpus"],
                     "--runs", str(runs), "--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {runs}: line 2: field {field!r} {kind}\n"


class TestConfigHandling:
    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["ingest", "--config", str(bad), "--corpus", "x"]) == EXIT_CONFIG
        assert "invalid JSON" in capsys.readouterr().err

    def test_non_object_config(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert main(["ingest", "--config", str(bad), "--corpus", "x"]) == EXIT_CONFIG
        assert "JSON object" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "unknown.json"
        bad.write_text('{"banana": 1}')
        assert main(["ingest", "--config", str(bad), "--corpus", "x"]) == EXIT_CONFIG
        assert "unknown config field 'banana'" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "nested.json"
        bad.write_text('{"embedder": {"dims": 64}}')
        assert main(["ingest", "--config", str(bad), "--corpus", "x"]) == EXIT_CONFIG
        assert "embedder.dims" in capsys.readouterr().err

    def test_bad_backend_rejected(self, tmp_path, capsys):
        bad = tmp_path / "backend.json"
        bad.write_text('{"backend": "mainframe"}')
        assert main(["ingest", "--config", str(bad), "--corpus", "x"]) == EXIT_CONFIG
        assert "mainframe" in capsys.readouterr().err

    def test_bad_jobs_rejected(self, workdir, capsys):
        assert main(["answer", "--corpus", workdir["corpus"], "--qa", workdir["qa"],
                     "--index", workdir["index"], "--models", workdir["models"],
                     "--jobs", "0"]) == EXIT_CONFIG
        assert "jobs" in capsys.readouterr().err

    def test_lambda_ordering_enforced(self, workdir, tmp_path, capsys):
        assert main(["train", "--config", workdir["config"], "--corpus", workdir["corpus"],
                     "--qa", workdir["qa"], "--index", workdir["index"],
                     "--out", str(tmp_path / "m"),
                     "--lambda1", "0.5", "--lambda2", "0.5"]) == EXIT_CONFIG
        assert "lambda" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_flag_is_config_error(self, workdir, tmp_path, capsys, value):
        assert main(["train", "--config", workdir["config"], "--corpus", workdir["corpus"],
                     "--qa", workdir["qa"], "--index", workdir["index"],
                     "--out", str(tmp_path / "m"), "--lambda1", value]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: command line: field '--lambda1' must be a finite number\n"
        )
        assert not (tmp_path / "m").exists()

    def test_bad_k_rejected(self, workdir, tmp_path, capsys):
        assert main(["train", "--config", workdir["config"], "--corpus", workdir["corpus"],
                     "--qa", workdir["qa"], "--index", workdir["index"],
                     "--out", str(tmp_path / "m"), "--k", "0"]) == EXIT_CONFIG
        assert "k must be" in capsys.readouterr().err

    def test_toml_config(self, workdir, tmp_path, capsys):
        toml_cfg = tmp_path / "config.toml"
        toml_cfg.write_text('k = 3\n\n[embedder]\ndim = 1024\n')
        out = tmp_path / "retrieved.jsonl"
        code = main(["retrieve", "--config", str(toml_cfg), "--index", workdir["index"],
                     "--qa", workdir["qa"], "--out", str(out)])
        try:
            import tomllib  # noqa: F401
            have_toml = True
        except ImportError:
            try:
                import tomli  # noqa: F401
                have_toml = True
            except ImportError:
                have_toml = False
        if have_toml:
            assert code == EXIT_OK
            record = json.loads(out.read_text().splitlines()[0])
            assert len(record["retrieved"]) == 3
        else:
            assert code == EXIT_CONFIG
            assert "TOML" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, message", [
        ("retrieve", {"k": "3"}, "{config}: field 'k' must be an integer"),
        ("train", {"k": "3"}, "{config}: field 'k' must be an integer"),
        ("eval", {"jobs": "2"}, "{config}: field 'jobs' must be an integer"),
        ("train", {"train": {"steps": "10"}}, "{config}: field 'train.steps' must be an integer"),
        ("index", {"embedder": {"dim": "big"}}, "{config}: field 'embedder.dim' must be an integer"),
        ("train", {"templates": {"I": 5}}, "{config}: field 'templates' must be a table of strings"),
        ("ingest", {"corpus": 5}, "{config}: field 'corpus' must be a string"),
        ("train", {"lambda1": True}, "{config}: field 'lambda1' must be a finite number"),
        ("answer", {"remote": {"retries": 1.5}}, "{config}: field 'remote.retries' must be an integer"),
        ("train", {"lambda1": float("inf")}, "{config}: field 'lambda1' must be a finite number"),
        ("train", {"lambda2": float("nan")}, "{config}: field 'lambda2' must be a finite number"),
        ("train", {"lambda1": 10**400}, "{config}: field 'lambda1' must be a finite number"),
        ("train", {"train": {"learning_rate": float("-inf")}},
         "{config}: field 'train.learning_rate' must be a finite number"),
        ("train", {"train": {"learning_rate": -0.5}}, "train_learning_rate must be > 0"),
        ("train", {"train": {"learning_rate": 0}}, "train_learning_rate must be > 0"),
        ("train", {"train": {"reward_learning_rate": -1}}, "train_reward_learning_rate must be > 0"),
        ("train", {"train": {"reward_learning_rate": 0.0}}, "train_reward_learning_rate must be > 0"),
        ("retrieve", {"k": 0}, "k must be >= 1"),
        ("index", {"embedder": {"dim": 0}}, "embedder_dim must be >= 1"),
        ("answer", {"remote": {"judge_url": "http://127.0.0.1:9", "retries": -1}},
         "remote: retries must be >= 0"),
        ("answer", {"remote": {"judge_url": "file:///etc/hostname"}},
         "remote: base_url must be an http or https URL"),
        ("answer", {"remote": {"judge_url": "http://127.0.0.1:9", "scorer_url": "file:///x"}},
         "remote: base_url must be an http or https URL"),
        ("answer", {"remote": {"judge_url": "http://"}}, "remote: base_url must name a host"),
        ("train", {"train": {"steps": -1}}, "train_steps must be >= 1"),
        ("train", {"train": {"steps": 0}}, "train_steps must be >= 1"),
        ("train", {"train": {"reward_steps": -1}}, "train_reward_steps must be >= 0"),
    ])
    def test_bad_value_is_config_error(self, workdir, tmp_path, capsys, command, config, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**json.loads(Path(workdir["config"]).read_text(encoding="utf-8")), **config}))
        paths = {
            "ingest": [],
            "index": ["--corpus", workdir["corpus"], "--out", str(tmp_path / "i.bin")],
            "retrieve": ["--index", workdir["index"], "--qa", workdir["qa"]],
            "train": ["--corpus", workdir["corpus"], "--qa", workdir["qa"],
                      "--index", workdir["index"], "--out", str(tmp_path / "m")],
            "answer": ["--corpus", workdir["corpus"], "--qa", workdir["qa"],
                       "--index", workdir["index"], "--models", workdir["models"],
                       "--backend", "remote", "--out", str(tmp_path / "a")],
            "eval": ["--qa", workdir["qa"], "--answers", workdir["answers"] + "/runs.jsonl"],
        }
        assert main([command, "--config", str(path), *paths[command]]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: " + message.format(config=path))

    def test_embedder_dim_past_the_cap_is_config_error(self, workdir, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"embedder": {"dim": 2**40}}))
        out = tmp_path / "i.bin"
        assert main(["index", "--config", str(path), "--corpus", workdir["corpus"],
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: embedder.dim must be between 1 and 65536, got 1099511627776\n"
        assert not out.exists()

    def test_int_accepted_as_number(self, tmp_path):
        path = tmp_path / "int.json"
        path.write_text('{"lambda1": 2, "train": {"reward_learning_rate": 1}}')
        cfg = cli.load_cli_config(cli.build_parser().parse_args(["ingest", "--config", str(path)]))
        assert cfg.lambda1 == 2.0 and isinstance(cfg.lambda1, float)
        assert cfg.train_reward_learning_rate == 1.0

    def test_documented_schema_accepted(self, tmp_path):
        # the README "Configuration" example; every section key sets <section>_<key>
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("## Configuration", 1)[1].split("```json\n", 1)[1]
        documented = json.loads(example.split("```", 1)[0])
        assert documented["format"] and documented["remote"]
        path = tmp_path / "documented.json"
        path.write_text(json.dumps(documented))
        cfg = cli.load_cli_config(cli.build_parser().parse_args(["ingest", "--config", str(path)]))
        for key, value in documented.items():
            if isinstance(value, dict):
                for sub_key, sub_value in value.items():
                    assert getattr(cfg, f"{key}_{sub_key}") == sub_value
            else:
                assert getattr(cfg, key) == value

    def test_flat_section_spelling_rejected(self, tmp_path, capsys):
        bad = tmp_path / "flat.json"
        bad.write_text('{"format_kind": "entity"}')
        assert main(["ingest", "--config", str(bad), "--corpus", "x"]) == EXIT_CONFIG
        assert "unknown config field 'format_kind'" in capsys.readouterr().err

    def test_config_file_sets_paths(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "paths.json"
        cfg.write_text(json.dumps({"corpus": workdir["corpus"], "qa": workdir["qa"]}))
        assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
        assert "ingested 12 passages" in capsys.readouterr().out


class TestParser:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["ingest", "--bogus"])
        assert info.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_help_lists_all_commands(self):
        from genki.cli import build_parser
        text = build_parser().format_help()
        for command in ("synth", "ingest", "index", "retrieve", "train", "answer", "eval",
                        "analyze"):
            assert command in text
