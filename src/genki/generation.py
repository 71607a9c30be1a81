"""End-to-end answer pipeline: two knowledge paths, format step, selection.

Two model roles draft an answer per question.  The full-knowledge model
answers from a prompt alone (it saw every passage during training), and
the retrieved-knowledge model from a prompt carrying the top-k passages.
The format step (postprocess) cuts each draft to the trained answer span,
an extractive step in the spirit of DrQA's span reader, and the ensemble
module picks one of the two cut candidates.  run_pipeline and
train_pipeline_models retrieve each question once, in blocks
(retriever.retrieve_texts), and render and encode every prompt with one
block function, draft_prompts (templates I and II).

run_pipeline answers a block of corpus.ANSWER_BLOCK (256) questions one
stage at a time: retrieval, then both drafts (answer_paths_block), then
the format step, then selection.  genki answer reads its QA file a block
at a time (corpus.answer_blocks over corpus.iter_qa_pairs), calls it once
per block and writes that block's runs.jsonl and audit.jsonl rows before
it reads the next, so its memory does not grow with the number of
questions.  Both go to temporary files that replace them only after the
last block, so a failed run writes neither (earlier files stay as they
were) and leaves no temporary file or new directory.

Prompts are encoded from their parts: each template's fixed text, each
retrieved passage and each question is encoded once per block and
vocabulary, and a prompt's ids are theirs concatenated; no rendered
prompt is tokenized again.  Each model decodes all of its prompts with one
generate_batch, which decodes each distinct last token once, so a draft
shared by many questions is computed once; each distinct question and
candidate is split, weighted and encoded once for consistency
(consistency.prepare_texts).  answer_paths is the one-question case of the
block stage.  Drafts run in the calling thread; jobs > 1 fans out only
selection.  A question that fails a stage records its error and the fields
filled before it, exactly as if it ran alone.  Drafting never fails a
question: every draft, an empty one too, becomes a candidate.  The format
step's cut is the one failure before selection: a draft too short to reach
the span, an empty one included, fails its question with "postprocess
produced empty output".  A retrieved id missing from the corpus fails the
whole run.

Training encodes each prompt and gold answer once and trains the two
roles over different material: all passages, and the retrieved subsets.
The answer span is read off the training questions' retrieved-knowledge
drafts: where most of them hold their gold answer (answer_span).
"""

from __future__ import annotations

import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from typing import Callable, Mapping, Sequence

from .consistency import prepare_texts
from .corpus import CorpusStats, Passage, QaPair, TokenSeq, Vocabulary, answer_blocks, tokenize
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

# The two prompt templates the models are trained and answer on: I holds the
# question alone, II the retrieved passages and then the question.
TEMPLATE_I = "answer from memory . question : {question}"
TEMPLATE_II = "context : {passages} question : {question}"
# The fixed text around each template's slots, which draft_prompts encodes
# once per call: template I holds {question}, template II {passages} and
# then {question}.
_TEMPLATE_I_TEXT, _TEMPLATE_II_TEXT = (re.split(r"\{\w+\}", template)
                                       for template in (TEMPLATE_I, TEMPLATE_II))


class PipelineError(RuntimeError):
    """A stage of the answer pipeline failed for one question, or retrieval named unknown passages."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the pipeline needs besides models and data."""

    k: int
    format: FormatSpec
    weights: LossWeights = field(default_factory=LossWeights)
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")


def _passages_for(ids: Sequence[str], passages: Mapping[str, Passage]) -> list[Passage]:
    """The passages with *ids*; ids missing from *passages* raise PipelineError."""
    missing = [pid for pid in ids if pid not in passages]
    if missing:
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise PipelineError(f"index returned unknown passage ids: {missing[:10]}{more}")
    return [passages[pid] for pid in ids]


def draft_prompts(
    questions: Sequence[QaPair],
    retrievals: Sequence[Sequence[RetrievalResult]],
    passages: Mapping[str, Passage],
    full_vocab: Vocabulary,
    retr_vocab: Vocabulary,
) -> tuple[list[TokenSeq], list[TokenSeq]]:
    """Each question's full-knowledge (template I) and retrieved-knowledge (template II) prompt.

    retrievals[i] is the top-k of questions[i]; template II carries the text
    of those passages.  Template I prompts are encoded with *full_vocab* and
    template II prompts with *retr_vocab*, from their parts: each
    template's fixed text, each retrieved passage and each question is
    encoded once per call and vocabulary, and a prompt's ids are theirs
    concatenated.  Its text is the rendered prompt, and its ids equal
    encoding that text: tokens never span whitespace, and a space separates
    every slot from its neighbours, which also ends the one context that
    lowercasing reads (Final_Sigma).  The first question with a retrieved id
    missing from *passages* raises PipelineError naming its missing ids.
    """
    full_ids = cache(lambda text: full_vocab.ids(tokenize(text)))  # this call's texts only
    retr_ids = full_ids if retr_vocab is full_vocab else cache(
        lambda text: retr_vocab.ids(tokenize(text))
    )
    i_head, i_tail = map(full_ids, _TEMPLATE_I_TEXT)
    ii_head, ii_mid, ii_tail = map(retr_ids, _TEMPLATE_II_TEXT)
    full, retrieved = [], []
    for qa, results in zip(questions, retrievals, strict=True):
        texts = [p.text for p in _passages_for([r.passage_id for r in results], passages)]
        full.append(TokenSeq(
            (*i_head, *full_ids(qa.question), *i_tail), TEMPLATE_I.format(question=qa.question)
        ))
        retrieved.append(TokenSeq(
            (*ii_head, *chain.from_iterable(map(retr_ids, texts)), *ii_mid,
             *retr_ids(qa.question), *ii_tail),
            TEMPLATE_II.format(passages=" ".join(texts), question=qa.question),
        ))
    return full, retrieved


@dataclass(frozen=True)
class AnswerSpan:
    """The format step's trained parameters: a draft's words from *start*, at most *length*."""

    start: int  # >= 0
    length: int  # >= 1


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

    full: ToyLm
    retrieved: ToyLm
    span: AnswerSpan
    reward: RewardModel
    judge: ExternalJudge
    consistency_scorer: LmScorer | None = None  # defaults to the full-knowledge model

    @property
    def scorer(self) -> LmScorer:
        return self.consistency_scorer if self.consistency_scorer is not None else self.full


Paths = tuple[AnswerCandidate, AnswerCandidate, tuple[str, ...]]


def answer_paths_block(
    questions: Sequence[QaPair],
    retrievals: Sequence[Sequence[RetrievalResult]],
    full_model: ToyLm,
    retr_model: ToyLm,
    passages: Mapping[str, Passage],
    cfg: PipelineConfig,
) -> list[Paths]:
    """answer_paths for a block of questions, one batched decode per model.

    retrievals[i] is the top-k of questions[i].  Each entry is that
    question's (full-knowledge candidate, retrieved-knowledge candidate,
    retrieved ids).  A retrieved id missing from *passages* raises for the
    whole block.
    """
    prompts_full, prompts_retr = draft_prompts(
        questions, retrievals, passages, full_model.vocab, retr_model.vocab
    )
    drafts_full = full_model.generate_batch(prompts_full, cfg.max_output_tokens)
    drafts_retr = retr_model.generate_batch(prompts_retr, cfg.max_output_tokens)
    return [
        (AnswerCandidate(full.text, Provenance.FULL_KNOWLEDGE),
         AnswerCandidate(retr.text, Provenance.RETRIEVED_KNOWLEDGE),
         tuple(r.passage_id for r in results))
        for results, full, retr in zip(retrievals, drafts_full, drafts_retr)
    ]


def answer_paths(
    q: QaPair,
    results: Sequence[RetrievalResult],
    full_model: ToyLm,
    retr_model: ToyLm,
    passages: Mapping[str, Passage],
    cfg: PipelineConfig,
) -> Paths:
    """Generate the two raw answer drafts for one question.

    *results* are the question's top-k retrievals.  Returns (full-knowledge
    candidate, retrieved-knowledge candidate, retrieved passage ids).  A
    draft may be empty; postprocess fails it.  The one-question case of
    answer_paths_block.
    """
    return answer_paths_block([q], [results], full_model, retr_model, passages, cfg)[0]


def postprocess(cand: AnswerCandidate, span: AnswerSpan, cfg: PipelineConfig) -> AnswerCandidate:
    """Cut a raw draft to *span*: its words from span.start, at most span.length of them.

    Output length is also capped at cfg.format.max_tokens.  A draft too
    short to reach the span, an empty one included, gives an empty cut,
    which is an error rather than a silent empty answer.
    """
    if cand.postprocessed:
        raise ValueError("candidate is already postprocessed")
    words = cand.text.split()[span.start:][:min(span.length, cfg.format.max_tokens)]
    if not words:
        raise PipelineError(f"postprocess produced empty output for {cand.provenance.value}")
    return AnswerCandidate(" ".join(words), cand.provenance, postprocessed=True)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_block(
    block: Sequence[QaPair],
    models: PipelineModels,
    index: DenseIndex,
    embedder: Embedder,
    passages: Mapping[str, Passage],
    stats: CorpusStats,
    cfg: PipelineConfig,
    map_fn: Callable,
) -> list[PipelineRun]:
    """One block, stage by stage: retrieve, draft, cut, then select per question.

    Every question records its id, question, retrieved ids and both drafts,
    then its cuts up to the first that fails, as postprocess would return
    them one at a time: none when the full-knowledge cut fails, and the
    full-knowledge cut when only the retrieved-knowledge one fails.  One map
    over the block then selects for each question that has both cuts.
    """
    retrievals = retrieve_texts(index, embedder, [qa.question for qa in block], cfg.k)
    paths = answer_paths_block(block, retrievals, models.full, models.retrieved, passages, cfg)
    items: list[tuple[dict, tuple[AnswerCandidate, ...]]] = []  # fields, cuts to select from
    for qa, (full, retr, ids) in zip(block, paths):
        fields = {"qid": qa.id, "question": qa.question, "retrieved_ids": ids,
                  "raw_full": full.text, "raw_retrieved": retr.text}
        cuts = ()
        try:
            post_full = postprocess(full, models.span, cfg)
            fields["post_full"] = post_full.text
            post_retr = postprocess(retr, models.span, cfg)
            fields["post_retrieved"] = post_retr.text
            cuts = (post_full, post_retr)
        except PipelineError as exc:
            fields["error"] = _error(exc)
        items.append((fields, cuts))

    texts = (text for fields, cuts in items if cuts
             for text in (fields["question"], *(cand.text for cand in cuts)))
    prepared = prepare_texts(texts, models.scorer, stats)

    def choose(item: tuple[dict, tuple[AnswerCandidate, ...]]) -> PipelineRun:
        fields, cuts = item
        if cuts:
            try:
                winner, bundle = select(
                    fields["question"], *cuts, models.scorer, stats,
                    models.reward, models.judge, cfg.format, prepared,
                )
            except Exception as exc:  # per-question isolation: record and move on
                fields["error"] = _error(exc)
            else:
                fields.update(bundle=bundle, final_answer=winner.text,
                              winner_provenance=winner.provenance.value)
        return PipelineRun(**fields)

    return list(map_fn(choose, items))


def run_pipeline(
    questions: Sequence[QaPair],
    models: PipelineModels,
    index: DenseIndex,
    embedder: Embedder,
    passages: Mapping[str, Passage],
    stats: CorpusStats,
    cfg: PipelineConfig,
    jobs: int = 1,
) -> list[PipelineRun]:
    """Answer every question; failures are recorded per question, not raised.

    Questions go through in blocks of corpus.ANSWER_BLOCK, each stage over the
    whole block: retrieval (retrieve_texts), both drafts, the format step,
    then selection.  A retrieval failure, such as an embedder whose
    dimension differs from the index's, raises, and so does a retrieved id
    missing from *passages* (PipelineError).  Only selection can wait on
    remote services, so jobs > 1 fans out that stage over threads; the
    built-in models have nothing to wait on, so callers pass jobs=1 for
    them.  Results keep the input order either way.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    runs: list[PipelineRun] = []
    with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        map_fn = pool.map if pool is not None else map
        for block in answer_blocks(questions):
            runs += _run_block(block, models, index, embedder, passages, stats, cfg, map_fn)
    return runs


def run_record(run: PipelineRun) -> dict:
    """One JSONL-ready dict for a pipeline run: its fields, the bundle through bundle_record."""
    bundle = None if run.bundle is None else bundle_record(run.bundle)
    return {**vars(run), "retrieved_ids": list(run.retrieved_ids), "bundle": bundle}


@dataclass(frozen=True)
class TrainedModels:
    """The two trained model roles, the answer span and the training questions' drafts.

    drafts maps each training question's id to its retrieved-knowledge
    draft, the text the answer span was read from; the reward model's
    preference pairs reuse it instead of decoding again.
    """

    full: ToyLm
    retrieved: ToyLm
    span: AnswerSpan
    drafts: Mapping[str, str]


def build_vocabulary(passages: Sequence[Passage], qa_pairs: Sequence[QaPair]) -> Vocabulary:
    """One vocabulary covering passages, questions, answers, and prompt text."""
    texts = [p.text for p in passages]
    for qa in qa_pairs:
        texts.append(qa.question)
        texts.extend(qa.answers)
    texts += (TEMPLATE_I, TEMPLATE_II)
    return Vocabulary.from_texts(texts)


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
    steps: int,
    learning_rate: float,
) -> TrainedModels:
    """Train the two model roles from scratch and read the answer span off their drafts.

    Each training question is retrieved once, each prompt is rendered and
    encoded from its parts once (draft_prompts) and each gold answer is
    encoded once; the retrieved-knowledge drafts are
    decoded from the encoded template-II prompts and returned with the
    models.  The full-knowledge role sees every passage and the
    retrieved-knowledge role only the union of top-k retrievals; both learn
    the gold answers of the training questions.  Passages of fewer than 2
    tokens have no transition, so both domain losses leave them out.
    Retrieved ids missing from *passages* raise PipelineError before any
    training.
    """
    if not train_qa:
        raise ValueError("training needs at least one qa pair")
    passage_map = {p.id: p for p in passages}
    retrievals = retrieve_texts(index, embedder, [qa.question for qa in train_qa], cfg.k)
    retr_union = retrieved_passages(retrievals, passage_map)
    prompts_full, prompts_retr = draft_prompts(train_qa, retrievals, passage_map, vocab, vocab)
    answers = [vocab.encode(qa.answers[0]) for qa in train_qa]

    def fit(domain: Sequence[Passage], prompts: Sequence[TokenSeq]) -> ToyLm:
        seqs = [seq for seq in (vocab.encode(p.text) for p in domain) if len(seq.tokens) >= 2]
        batch = [TrainExample(prompt, answer) for prompt, answer in zip(prompts, answers)]
        return train(ToyLm(vocab), seqs, batch, cfg.weights, steps, learning_rate)

    full = fit(passages, prompts_full)
    retrieved = fit(retr_union, prompts_retr)
    drafts = drafts_for_questions(train_qa, prompts_retr, retrieved, cfg)
    return TrainedModels(full, retrieved, answer_span(train_qa, drafts, cfg.format.max_tokens),
                         drafts)


def answer_span(
    questions: Sequence[QaPair], drafts: Mapping[str, str], max_tokens: int
) -> AnswerSpan:
    """The (start, length) at which the most drafts hold their gold answer.

    Each question's gold is its first answer's words, cut to *max_tokens*;
    where its draft (drafts[qa.id]) holds them, the first such start and the
    gold's length count once.  Ties go to the earliest start, then the
    shortest length.  When no draft holds its gold, the span starts at 0
    and has the most common gold length (the shortest on ties).
    """
    golds = [tokenize(qa.answers[0])[:max_tokens] for qa in questions]
    found: Counter[tuple[int, int]] = Counter()
    for qa, gold in zip(questions, golds):
        words = drafts[qa.id].split()
        start = next((i for i in range(len(words)) if words[i:i + len(gold)] == gold), None)
        if start is not None:
            found[start, len(gold)] += 1
    found = found or Counter((0, len(gold)) for gold in golds)
    return AnswerSpan(*min(found, key=lambda span: (-found[span], span)))


def drafts_for_questions(
    questions: Sequence[QaPair], prompts: Sequence[TokenSeq], model: ToyLm, cfg: PipelineConfig
) -> dict[str, str]:
    """Retrieved-knowledge drafts keyed by question id, decoded as one batch.

    prompts[i] is the encoded template-II prompt of questions[i] (see
    draft_prompts).
    """
    drafts = model.generate_batch(prompts, cfg.max_output_tokens)
    return {qa.id: draft.text for qa, draft in zip(questions, drafts, strict=True)}


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
