"""Answer quality on the synth worlds, through the genki command.

Each test runs index, train and answer in-process on a genki.synth world and
reads runs.jsonl: in-sample and held-out exact match under the README's
quick-start config, failures under the built-in defaults (no config file),
and exact match over output lengths.
"""

import json

import pytest

from genki.cli import EXIT_OK, main
from genki.metrics import exact_match
from genki.synth import write_world

QUICK_START = {
    "k": 2,
    "max_output_tokens": 12,
    "embedder": {"dim": 1024, "seed": 0},
    "train": {"steps": 60, "learning_rate": 0.5, "reward_steps": 100},
}


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def build(root, passages, questions, config=None):
    """Write a synth world under *root* and index it; the flags every later command shares."""
    write_world(root, passages, questions)
    config_flags = []
    if config is not None:
        (root / "config.json").write_text(json.dumps(config))
        config_flags = ["--config", str(root / "config.json")]
    corpus, index = str(root / "corpus.jsonl"), str(root / "index.bin")
    assert main(["index", *config_flags, "--corpus", corpus, "--out", index]) == EXIT_OK
    return [*config_flags, "--corpus", corpus, "--index", index]


def train_and_answer(flags, train_qa, answer_qa, out):
    """Train on *train_qa*, answer *answer_qa*; each question's run and gold answers."""
    assert main(["train", *flags, "--qa", str(train_qa), "--out", str(out / "models")]) == EXIT_OK
    assert main(["answer", *flags, "--qa", str(answer_qa), "--models", str(out / "models"),
                 "--out", str(out / "run")]) == EXIT_OK
    golds = {qa["id"]: qa["answers"] for qa in read_jsonl(answer_qa)}
    return [(run, golds[run["qid"]]) for run in read_jsonl(out / "run" / "runs.jsonl")]


def exact(answered):
    return sum(exact_match(golds, run["final_answer"]) for run, golds in answered if not run["error"])


@pytest.fixture(scope="module")
def world_300(tmp_path_factory):
    root = tmp_path_factory.mktemp("world300")
    flags = build(root, 300, 150, QUICK_START)
    lines = (root / "qa.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    (root / "train.jsonl").write_text("".join(lines[:100]), encoding="utf-8")
    (root / "test.jsonl").write_text("".join(lines[100:]), encoding="utf-8")
    return root, flags


def test_in_sample_300(world_300):
    root, flags = world_300
    answered = train_and_answer(flags, root / "qa.jsonl", root / "qa.jsonl", root / "in")
    assert len(answered) == 150
    assert exact(answered) >= 148
    assert json.loads((root / "in" / "models" / "span.json").read_text()) == {
        "length": 2, "start": 0,
    }


def test_held_out_300(world_300):
    # train on q000-q099, answer q100-q149 with the same corpus and index
    root, flags = world_300
    answered = train_and_answer(flags, root / "train.jsonl", root / "test.jsonl", root / "held")
    assert [run["qid"] for run, _ in answered] == [f"q{i}" for i in range(100, 150)]
    assert exact(answered) == 50
    assert len({run["final_answer"] for run, _ in answered}) > 1


def test_built_in_defaults_300(tmp_path, capsys):
    flags = build(tmp_path, 300, 150)
    answered = train_and_answer(flags, tmp_path / "qa.jsonl", tmp_path / "qa.jsonl", tmp_path)
    assert "answered 150 questions (0 failures)" in capsys.readouterr().out
    assert [run["error"] for run, _ in answered] == [None] * 150
    assert exact(answered) == 150


@pytest.mark.parametrize("max_output_tokens", range(8, 17))
def test_exact_match_does_not_follow_output_length_120(tmp_path, max_output_tokens):
    # the synth passages cycle every 4 words, so each draft ends somewhere else
    flags = build(tmp_path, 120, 60, {**QUICK_START, "max_output_tokens": max_output_tokens})
    answered = train_and_answer(flags, tmp_path / "qa.jsonl", tmp_path / "qa.jsonl", tmp_path)
    assert [run["error"] for run, _ in answered] == [None] * 60
    assert exact(answered) == 60
