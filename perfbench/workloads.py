"""Seeded inputs for the benchmark workloads.

Worlds come from genki.synth.  The seed shuffles the line order of every
file and draws the question phrasings, so one seed always yields the same
files while every seed yields the same amount of work.  The program only
ever sees the files written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from genki.corpus import QaPair, tokenize
from genki.synth import synthetic_world

# The README quick-start config, shared by every workload.
BASE_CONFIG = {
    "k": 2,
    "max_output_tokens": 12,
    "embedder": {"dim": 1024, "seed": 0},
    "train": {"steps": 60, "learning_rate": 0.5, "reward_steps": 100},
}
REMOTE_SETTINGS = {"timeout_ms": 5000, "retries": 2, "max_in_flight": 2}


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload's inputs."""

    passages: int
    questions: int
    stream: int  # phrased questions for the answer commands; 0 = none


# Train, answer and answer_remote share one world so the answer workloads
# use the train workload's models.  Every measured command takes about
# 2-3.5 s on a 2-core x86-64 VM, so a 16 s run takes the median of four or
# more: with one to three longer commands per run, the medians spread by a
# quarter from run to run.  120/60 also keeps three trainings per answer
# run inside the run-time budget (300/150 takes about 20 s per training).
# The retrieve workload queries 30 synth questions, 75-100 ms each against
# 20,000 passages.
SPECS = {
    "train": Spec(120, 60, 0),
    "answer": Spec(120, 60, 2000),
    "retrieve": Spec(20000, 30, 0),
    "answer_remote": Spec(120, 60, 300),
}


def template_words() -> list[str]:
    """The words of the synth question template, without its topic token."""
    qa = synthetic_world(1, 1)[1][0]
    topic = tokenize(qa.question)[-1]
    return list(dict.fromkeys(w for w in tokenize(qa.question) if w != topic))


def phrase(rng: random.Random, words: list[str], topic: str) -> str:
    """A question made of template words with the topic token last.

    The bigram models continue from the last prompt token, so ending on the
    topic keeps the question answerable whatever the other words are.
    """
    return " ".join([rng.choice(words) for _ in range(rng.randint(2, 7))] + [topic])


def _qa_record(qa: QaPair, question: str | None = None, qid: str | None = None) -> dict:
    return {
        "id": qid or qa.id,
        "question": question or qa.question,
        "answers": list(qa.answers),
        "format": qa.format.value,
    }


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


@dataclass(frozen=True)
class Inputs:
    """What write_inputs() produced, for the checks that follow."""

    gold_passage: dict[str, str]  # synth question id -> the passage holding its answer
    distinct_share: float  # distinct question texts / stream length (1.0 when no stream)


def write_inputs(name: str, seed: int, out: Path, remote_url: str = "") -> Inputs:
    """Write corpus.jsonl, qa.jsonl, stream.jsonl (if any) and config.json."""
    spec = SPECS[name]
    rng = random.Random(f"{name}:{seed}")
    passages, qa_pairs = synthetic_world(spec.passages, spec.questions)
    out.mkdir(parents=True, exist_ok=True)

    corpus = [{"id": p.id, "text": p.text, "source": p.source} for p in passages]
    rng.shuffle(corpus)
    _write_jsonl(out / "corpus.jsonl", corpus)
    train_qa = [_qa_record(qa) for qa in qa_pairs]
    rng.shuffle(train_qa)
    _write_jsonl(out / "qa.jsonl", train_qa)

    # synth gives question i its own passage i.
    gold = {qa.id: p.id for qa, p in zip(qa_pairs, passages)}
    distinct = 1.0
    if spec.stream:
        words = template_words()
        stream = []
        for i in range(spec.stream):
            qa = qa_pairs[rng.randrange(spec.questions)]
            topic = tokenize(qa.question)[-1]
            qid = f"s{i:05d}"
            stream.append(_qa_record(qa, phrase(rng, words, topic), qid))
        _write_jsonl(out / "stream.jsonl", stream)
        distinct = len({r["question"] for r in stream}) / len(stream)

    config = json.loads(json.dumps(BASE_CONFIG))
    if remote_url:
        config["remote"] = {"scorer_url": remote_url, "judge_url": remote_url, **REMOTE_SETTINGS}
    (out / "config.json").write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    return Inputs(gold, distinct)
