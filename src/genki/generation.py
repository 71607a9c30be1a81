"""End-to-end answer pipeline: two knowledge paths, format stage, selection.

Three model roles cooperate per question.  The full-knowledge model answers
from a prompt alone (it saw every passage during training), the
retrieved-knowledge model answers from a prompt carrying the top-k
passages, and the postprocessor rewrites each draft into the requested
format.  The ensemble module then picks one of the two postprocessed
candidates.  run_pipeline and train_pipeline_models retrieve each question
once, in blocks (retriever.retrieve_texts), and pass every stage its
question's results.

Training the roles is three invocations of lm_core.train over different
material: all passages, the retrieved subsets, and format-transcription
pairs built by pairing each retrieved-knowledge draft with its gold answer
(the draft rambles, the gold target teaches the format stage both the
wording and where to stop).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import CorpusStats, Passage, QaPair, TokenSeq, Vocabulary, atomic_write
from .ensemble import (
    AnswerCandidate,
    ExternalJudge,
    Provenance,
    ScoreBundle,
    bundle_record,
    select,
)
from .lm_core import LmScorer, LossWeights, ToyLm, TrainExample, train
from .metrics import normalize_answer
from .retriever import (
    DenseIndex,
    Embedder,
    RetrievalResult,
    retrieve_texts,
    top_k,  # noqa: F401  (perfbench/selftest.py checks the tracer wraps it here)
)
from .reward import FormatSpec, PreferencePair, RewardModel

DEFAULT_MAX_OUTPUT_TOKENS = 50

DEFAULT_TEMPLATES = {
    "I": "answer from memory . question : {question}",
    "II": "context : {passages} question : {question}",
    "III": "rewrite the draft as a {format} answer . draft : {draft}",
    "IV": "question : {question} answer one : {answer_1} answer two : {answer_2} pick the better {format} answer",
}


class PipelineError(RuntimeError):
    """A stage of the answer pipeline failed for one question."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the pipeline needs besides models and data."""

    k: int
    weights: LossWeights = field(default_factory=LossWeights)
    format: FormatSpec = None  # type: ignore[assignment]
    prompt_templates: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_TEMPLATES))
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if self.format is None:
            raise ValueError("a FormatSpec is required")
        missing = {"I", "II", "III", "IV"} - set(self.prompt_templates)
        if missing:
            raise ValueError(f"prompt templates missing: {sorted(missing)}")
        object.__setattr__(self, "prompt_templates", dict(self.prompt_templates))


def _render(templates: Mapping[str, str], name: str, **slots: str) -> str:
    try:
        return templates[name].format(**slots)
    except (KeyError, IndexError) as exc:
        raise ValueError(f"prompt template {name} references an unknown slot: {exc}") from exc


def _passages_for(ids: Sequence[str], passages: Mapping[str, Passage]) -> list[Passage]:
    """The passages with *ids*; ids missing from *passages* raise PipelineError."""
    missing = [pid for pid in ids if pid not in passages]
    if missing:
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise PipelineError(f"index returned unknown passage ids: {missing[:10]}{more}")
    return [passages[pid] for pid in ids]


def render_retrieved_prompt(
    question: str,
    results: Sequence[RetrievalResult],
    passages: Mapping[str, Passage],
    cfg: PipelineConfig,
) -> str:
    """Template II: the question with the text of its retrieved passages."""
    ids = [r.passage_id for r in results]
    joined = " ".join(p.text for p in _passages_for(ids, passages))
    return _render(cfg.prompt_templates, "II", passages=joined, question=question)


@dataclass(frozen=True)
class PipelineRun:
    """Everything one question produced, including the routing audit."""

    qid: str
    question: str
    retrieved_ids: tuple[str, ...] = ()
    raw_full: str = ""
    raw_retrieved: str = ""
    post_full: str = ""
    post_retrieved: str = ""
    bundle: ScoreBundle | None = None
    final_answer: str = ""
    winner_provenance: str | None = None
    error: str | None = None


@dataclass
class PipelineModels:
    """The frozen models a pipeline run scores and generates with."""

    full: LmScorer
    retrieved: LmScorer
    postp: LmScorer
    reward: RewardModel
    judge: ExternalJudge
    consistency_scorer: LmScorer | None = None  # defaults to the full-knowledge model

    @property
    def scorer(self) -> LmScorer:
        return self.consistency_scorer if self.consistency_scorer is not None else self.full


def answer_paths(
    q: QaPair,
    results: Sequence[RetrievalResult],
    full_model: LmScorer,
    retr_model: LmScorer,
    passages: Mapping[str, Passage],
    cfg: PipelineConfig,
) -> tuple[AnswerCandidate, AnswerCandidate, tuple[str, ...]]:
    """Generate the two raw answer drafts for one question.

    *results* are the question's top-k retrievals.  Returns (full-knowledge
    candidate, retrieved-knowledge candidate, retrieved passage ids).  A
    failure on either path raises PipelineError naming the path.
    """
    retrieved_ids = tuple(r.passage_id for r in results)
    prompt_retr = render_retrieved_prompt(q.question, results, passages, cfg)

    prompt_full = _render(cfg.prompt_templates, "I", question=q.question)
    try:
        cand_full = AnswerCandidate(
            _draft(full_model, prompt_full, cfg), Provenance.FULL_KNOWLEDGE
        )
    except Exception as exc:
        raise PipelineError(f"full-knowledge path failed: {exc}") from exc

    try:
        cand_retr = AnswerCandidate(
            _draft(retr_model, prompt_retr, cfg), Provenance.RETRIEVED_KNOWLEDGE
        )
    except Exception as exc:
        raise PipelineError(f"retrieved-knowledge path failed: {exc}") from exc
    return cand_full, cand_retr, retrieved_ids


def postprocess(
    cand: AnswerCandidate,
    postp_model: LmScorer,
    format: FormatSpec,
    cfg: PipelineConfig,
) -> AnswerCandidate:
    """Rewrite a raw draft into the requested format.

    Output length is capped at format.max_tokens.  An empty rewrite is an
    error rather than a silent empty answer.
    """
    if cand.postprocessed:
        raise ValueError("candidate is already postprocessed")
    prompt = _render(
        cfg.prompt_templates, "III", format=format.wording, draft=cand.text
    )
    try:
        out = postp_model.generate(postp_model.encode(prompt), format.max_tokens)
    except Exception as exc:
        raise PipelineError(f"postprocess failed for {cand.provenance.value}: {exc}") from exc
    if not out.text.strip():
        raise PipelineError(f"postprocess produced empty output for {cand.provenance.value}")
    return AnswerCandidate(out.text, cand.provenance, postprocessed=True)


def _run_one(
    qa: QaPair,
    results: Sequence[RetrievalResult],
    models: PipelineModels,
    passages: Mapping[str, Passage],
    stats: CorpusStats,
    cfg: PipelineConfig,
) -> PipelineRun:
    retrieved_ids: tuple[str, ...] = ()
    raw_full = raw_retrieved = post_full_text = post_retr_text = ""
    try:
        cand_full, cand_retr, retrieved_ids = answer_paths(
            qa, results, models.full, models.retrieved, passages, cfg
        )
        raw_full, raw_retrieved = cand_full.text, cand_retr.text
        post_full = postprocess(cand_full, models.postp, cfg.format, cfg)
        post_full_text = post_full.text
        post_retr = postprocess(cand_retr, models.postp, cfg.format, cfg)
        post_retr_text = post_retr.text
        winner, bundle = select(
            qa.question, post_full, post_retr, models.scorer, stats,
            models.reward, models.judge, cfg.format,
        )
        return PipelineRun(
            qid=qa.id,
            question=qa.question,
            retrieved_ids=retrieved_ids,
            raw_full=raw_full,
            raw_retrieved=raw_retrieved,
            post_full=post_full_text,
            post_retrieved=post_retr_text,
            bundle=bundle,
            final_answer=winner.text,
            winner_provenance=winner.provenance.value,
        )
    except Exception as exc:  # per-question isolation: record and move on
        return PipelineRun(
            qid=qa.id,
            question=qa.question,
            retrieved_ids=retrieved_ids,
            raw_full=raw_full,
            raw_retrieved=raw_retrieved,
            post_full=post_full_text,
            post_retrieved=post_retr_text,
            error=f"{type(exc).__name__}: {exc}",
        )


def run_pipeline(
    questions: Sequence[QaPair],
    models: PipelineModels,
    index: DenseIndex,
    embedder: Embedder,
    passages: Mapping[str, Passage],
    stats: CorpusStats,
    cfg: PipelineConfig,
    audit_path: str | Path | None = None,
    jobs: int = 1,
) -> list[PipelineRun]:
    """Answer every question; failures are recorded per question, not raised.

    Every question is retrieved first, one block at a time (retrieve_texts);
    a retrieval failure, such as an embedder whose dimension differs from
    the index's, raises.  Questions are then independent, so jobs > 1 fans
    them out over threads; results and audit rows keep the input order
    either way.  audit.jsonl is written atomically.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    retrievals = retrieve_texts(index, embedder, [qa.question for qa in questions], cfg.k)

    def run_one(qa: QaPair, results: Sequence[RetrievalResult]) -> PipelineRun:
        return _run_one(qa, results, models, passages, stats, cfg)

    if jobs == 1:
        runs = list(map(run_one, questions, retrievals))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(run_one, questions, retrievals))
    if audit_path is not None:
        with atomic_write(audit_path, "w", encoding="utf-8") as fh:
            for run in runs:
                if run.bundle is None:
                    continue
                row = {
                    "qid": run.qid,
                    **bundle_record(run.bundle),
                    "winner_provenance": run.winner_provenance,
                }
                fh.write(json.dumps(row, sort_keys=True))
                fh.write("\n")
    return runs


def run_record(run: PipelineRun) -> dict:
    """One JSONL-ready dict for a pipeline run."""
    bundle = None if run.bundle is None else bundle_record(run.bundle)
    return {
        "qid": run.qid,
        "question": run.question,
        "retrieved_ids": list(run.retrieved_ids),
        "raw_full": run.raw_full,
        "raw_retrieved": run.raw_retrieved,
        "post_full": run.post_full,
        "post_retrieved": run.post_retrieved,
        "bundle": bundle,
        "final_answer": run.final_answer,
        "winner_provenance": run.winner_provenance,
        "error": run.error,
    }


@dataclass(frozen=True)
class TrainedModels:
    """The three trained model roles and the training questions' retrievals.

    retrievals[i] is the top-k of the i-th training question, so the drafts
    for the reward model reuse it instead of retrieving again.
    """

    full: ToyLm
    retrieved: ToyLm
    postp: ToyLm
    retrievals: tuple[list[RetrievalResult], ...]


def build_vocabulary(
    passages: Sequence[Passage], qa_pairs: Sequence[QaPair], cfg: PipelineConfig
) -> Vocabulary:
    """One vocabulary covering passages, questions, answers, and prompt text."""
    texts = [p.text for p in passages]
    for qa in qa_pairs:
        texts.append(qa.question)
        texts.extend(qa.answers)
    texts.extend(cfg.prompt_templates.values())
    texts.append(cfg.format.wording)
    return Vocabulary.from_texts(texts)


def _with_eos(seq: TokenSeq, vocab: Vocabulary) -> TokenSeq:
    return TokenSeq(seq.tokens + (vocab.eos_id,), seq.text)


def retrieved_passages(
    retrievals: Sequence[Sequence[RetrievalResult]],
    passages: Mapping[str, Passage],
) -> list[Passage]:
    """Union of every question's top-k passages, first-seen order, no repeats.

    Ids missing from *passages* raise PipelineError naming all of them.
    """
    ids = dict.fromkeys(r.passage_id for results in retrievals for r in results)
    return _passages_for(list(ids), passages)


def train_pipeline_models(
    passages: Sequence[Passage],
    train_qa: Sequence[QaPair],
    index: DenseIndex,
    embedder: Embedder,
    vocab: Vocabulary,
    cfg: PipelineConfig,
    steps: int = 50,
    learning_rate: float = 0.5,
) -> TrainedModels:
    """Train the three model roles from scratch.

    Each training question is retrieved once; the results are returned
    with the models.  The full-knowledge role sees every passage, the
    retrieved-knowledge role only the union of top-k retrievals, and the
    format role trains purely on instruction pairs mapping each
    retrieved-knowledge draft to its gold answer with an end token
    appended, which is what teaches it to stop.  Passages of fewer than 2
    tokens have no transition, so both domain losses leave them out.
    Retrieved ids missing from *passages* raise PipelineError before any
    training.
    """
    if not train_qa:
        raise ValueError("training needs at least one qa pair")
    passage_map = {p.id: p for p in passages}
    retrievals = tuple(
        retrieve_texts(index, embedder, [qa.question for qa in train_qa], cfg.k)
    )
    retr_union = retrieved_passages(retrievals, passage_map)

    def domain_seqs(subset: Sequence[Passage]) -> list[TokenSeq]:
        seqs = (vocab.encode(p.text) for p in subset)
        return [seq for seq in seqs if len(seq.tokens) >= 2]

    def examples(prompts: Sequence[str]) -> list[TrainExample]:
        return [
            TrainExample(vocab.encode(prompt), vocab.encode(qa.answers[0]))
            for prompt, qa in zip(prompts, train_qa)
        ]

    def fresh() -> ToyLm:
        return ToyLm(vocab, seed=cfg.seed, learning_rate=learning_rate)

    prompts_full = [_render(cfg.prompt_templates, "I", question=qa.question) for qa in train_qa]
    full = train(fresh(), domain_seqs(passages), examples(prompts_full), cfg.weights, steps)

    prompts_retr = [
        render_retrieved_prompt(qa.question, results, passage_map, cfg)
        for qa, results in zip(train_qa, retrievals)
    ]
    retrieved = train(fresh(), domain_seqs(retr_union), examples(prompts_retr), cfg.weights, steps)

    format_batch = []
    for qa, prompt_retr in zip(train_qa, prompts_retr):
        draft = _draft(retrieved, prompt_retr, cfg)
        prompt = _render(
            cfg.prompt_templates, "III", format=cfg.format.wording, draft=draft
        )
        target = _with_eos(vocab.encode(qa.answers[0]), vocab)
        format_batch.append(TrainExample(vocab.encode(prompt), target))
    postp = train(fresh(), [], format_batch, cfg.weights, steps)
    return TrainedModels(full=full, retrieved=retrieved, postp=postp, retrievals=retrievals)


def _draft(model: LmScorer, prompt: str, cfg: PipelineConfig) -> str:
    return model.generate(model.encode(prompt), cfg.max_output_tokens).text


def drafts_for_questions(
    questions: Sequence[QaPair],
    retrievals: Sequence[Sequence[RetrievalResult]],
    model: LmScorer,
    passages: Mapping[str, Passage],
    cfg: PipelineConfig,
) -> dict[str, str]:
    """Retrieved-knowledge drafts keyed by question id.

    retrievals[i] is the top-k of questions[i], for example
    TrainedModels.retrievals for the training questions.
    """
    return {
        qa.id: _draft(model, render_retrieved_prompt(qa.question, results, passages, cfg), cfg)
        for qa, results in zip(questions, retrievals, strict=True)
    }


def preference_pairs_from_drafts(
    questions: Sequence[QaPair], drafts: Mapping[str, str], format: FormatSpec
) -> list[PreferencePair]:
    """Preference pairs with gold answers positive and non-matching drafts negative.

    Questions whose draft already matches the gold (or is empty) contribute
    nothing; there is no preference signal to extract from them.
    """
    pairs = []
    for qa in questions:
        draft = drafts.get(qa.id, "")
        if not draft.strip():
            continue
        gold = qa.answers[0]
        if normalize_answer(gold) == normalize_answer(draft):
            continue
        pairs.append(
            PreferencePair(positive=gold, negative=draft, format=format, question=qa.question)
        )
    return pairs
