"""Synthetic QA world for end-to-end fixtures and demos.

Every question owns one passage whose token stream is a closed cycle
(topic -> first value -> second value -> stop marker -> topic), so a
trained bigram model walks the cycle instead of wandering once it leaves
the answer span.  The remaining passages are same-shaped fillers over
disjoint tokens.  Gold answers are the two value tokens and occur verbatim
in exactly one passage, questions mention their topic token twice so
bag-of-words retrieval has a clear margin, and topic passages sort before
fillers by id so exact score ties resolve to the right passage.
"""

from __future__ import annotations

from pathlib import Path

from .corpus import AnswerKind, Passage, QaPair, write_jsonl


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
        topic, alpha, beta, stop = (
            f"topic{i:03d}", f"alpha{i:03d}", f"beta{i:03d}", f"stop{i:03d}",
        )
        passages.append(
            Passage(
                id=f"p{i:03d}",
                text=f"{topic} {alpha} {beta} {stop} {topic} .",
                source="synthetic",
            )
        )
        qa_pairs.append(
            QaPair(
                id=f"q{i:03d}",
                question=f"what goes with {topic} tell the values of {topic}",
                answers=(f"{alpha} {beta}",),
                format=AnswerKind.ENTITY,
            )
        )
    for j in range(n_questions, n_passages):
        filler, gamma, delta, end = (
            f"filler{j:03d}", f"gamma{j:03d}", f"delta{j:03d}", f"end{j:03d}",
        )
        passages.append(
            Passage(
                id=f"p{j:03d}",
                text=f"{filler} {gamma} {delta} {end} {filler} .",
                source="synthetic",
            )
        )
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
