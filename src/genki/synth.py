"""Synthetic QA world for end-to-end fixtures and demos.

Every question owns one passage whose token stream is a closed cycle
(topic -> first value -> second value -> stop marker -> topic), so a
trained bigram model walks the cycle instead of wandering once it leaves
the answer span.  The remaining passages are same-shaped fillers over
disjoint tokens.  Gold answers are the two value tokens and occur verbatim
in exactly one passage, and questions mention their topic token twice.
Hashed words still collide: at dim 1024, seed 0, the 300/150 world's gold
passage ranks first for 141 of 150 questions.  Eight misses are exact ties
with a lower-id topic passage whose topic word shares its bucket and sign
(topic019, 064, 068 and 120 share one); in the ninth a filler scores higher.
"""

from __future__ import annotations

from pathlib import Path

from .corpus import AnswerKind, Passage, QaPair, write_jsonl

SOURCE = "synthetic"


def synthetic_world(
    n_passages: int = 200, n_questions: int = 100
) -> tuple[list[Passage], list[QaPair]]:
    """Deterministic passages and QA pairs; needs n_passages >= n_questions."""
    if n_questions < 1:
        raise ValueError("need at least one question")
    if n_passages < n_questions:
        raise ValueError("need at least one passage per question")
    passages = []
    qa_pairs = []
    for i in range(n_questions):
        n = f"{i:03d}"
        topic = "topic" + n
        passages.append(Passage(f"p{n}", f"{topic} alpha{n} beta{n} stop{n} {topic} .", SOURCE))
        qa_pairs.append(QaPair(
            f"q{n}", f"what goes with {topic} tell the values of {topic}", (f"alpha{n} beta{n}",),
            AnswerKind.ENTITY,
        ))
    for j in range(n_questions, n_passages):
        n = f"{j:03d}"
        filler = "filler" + n
        passages.append(Passage(f"p{n}", f"{filler} gamma{n} delta{n} end{n} {filler} .", SOURCE))
    return passages, qa_pairs


def write_world(out_dir: str | Path, n_passages: int = 200, n_questions: int = 100) -> None:
    """Materialize the world as corpus.jsonl and qa.jsonl under *out_dir*."""
    out = Path(out_dir)
    passages, qa_pairs = synthetic_world(n_passages, n_questions)
    write_jsonl(out / "corpus.jsonl", (
        {"id": p.id, "text": p.text, "source": p.source} for p in passages
    ))
    write_jsonl(out / "qa.jsonl", (
        {"id": qa.id, "question": qa.question, "answers": list(qa.answers),
         "format": qa.format.value}
        for qa in qa_pairs
    ))
