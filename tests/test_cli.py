"""End-to-end CLI tests: the full command chain on a synthetic world,
artifact formats, rerun determinism, and exit-code contracts.

main() is called in-process with explicit argv so exit codes and stderr
text are asserted directly.
"""

import base64
import json
import os
import struct
import shutil
import socket
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import genki
from genki import cli, generation, lm_core
from genki.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from genki.corpus import write_jsonl
from genki.retriever import HashEmbedder, load_index, top_k
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


@pytest.mark.parametrize("command", ["retrieve", "eval", "answer"])
def test_unwritable_out_is_data_error(workdir, tmp_path, capsys, command):
    directory, file = tmp_path / "dir", tmp_path / "file"
    directory.mkdir()
    file.write_text("")
    out = {"retrieve": directory, "eval": directory, "answer": file / "sub"}[command]
    argv = {
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
        record = cli.run_record

        def unwritable_third_bundle(run):
            fields = record(run)
            if run.qid == "q002":
                fields["bundle"] = {**fields["bundle"], "cs1": object()}
            return fields

        monkeypatch.setattr(cli, "run_record", unwritable_third_bundle)
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
            cli, "run_pipeline", lambda *args, **kwargs: seen.append(kwargs["jobs"]) or []
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
        ("retrieve", {"k": "3"}, "config field 'k' must be"),
        ("train", {"k": "3"}, "config field 'k' must be"),
        ("eval", {"jobs": "2"}, "config field 'jobs' must be"),
        ("train", {"train": {"steps": "10"}}, "config field train.steps must be"),
        ("index", {"embedder": {"dim": "big"}}, "config field embedder.dim must be"),
        ("train", {"templates": {"I": 5}}, "config field 'templates' must be"),
        ("ingest", {"corpus": 5}, "config field 'corpus' must be"),
        ("train", {"lambda1": True}, "config field 'lambda1' must be"),
        ("answer", {"remote": {"retries": 1.5}}, "config field remote.retries must be"),
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
        assert capsys.readouterr().err.startswith(f"config error: {message}")

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
        for command in ("ingest", "index", "retrieve", "train", "answer", "eval", "analyze"):
            assert command in text
