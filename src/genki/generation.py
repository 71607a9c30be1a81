"""End-to-end answer pipeline: two knowledge paths, format stage, selection.

Three model roles cooperate per question.  The full-knowledge model answers
from a prompt alone (it saw every passage during training), the
retrieved-knowledge model answers from a prompt carrying the top-k
passages, and the postprocessor rewrites each draft into the requested
format.  The ensemble module then picks one of the two postprocessed
candidates.  run_pipeline and train_pipeline_models retrieve each question
once, in blocks (retriever.retrieve_texts), and render every prompt with the
same two block renderers: draft_prompts (templates I and II) and
rewrite_prompts (template III).

run_pipeline answers a block of corpus.ANSWER_BLOCK (256) questions one
stage at a time: retrieval, then both drafts (answer_paths_block), then the
rewrites (postprocess_block), then selection.  genki answer reads its QA
file a block at a time (corpus.answer_blocks over corpus.iter_qa_pairs),
calls it once per block and writes that block's runs.jsonl and audit.jsonl
rows before it reads the next, so its memory does not grow with the number
of questions.  Both go to temporary files that replace them only after the
last block, so a failed run writes neither (earlier files stay as they
were) and leaves no temporary file or new directory.

Each distinct prompt of a block is encoded once and each model decodes all
of its prompts with one generate_batch, so a draft or rewrite shared by
many questions is computed once; each distinct question and candidate is
split, weighted and encoded once for consistency
(consistency.prepare_texts).  answer_paths and postprocess are the
one-question cases of the block stages.  Drafts and rewrites run in the
calling thread; jobs > 1 fans out only selection.  A question that fails a
stage records its error and the fields filled before it, exactly as if it
ran alone.  The drafts and rewrites fail a question only for its own
outputs (a prompt with no token, an empty draft, an empty rewrite);
templates are checked when the PipelineConfig is built, and a retrieved id
missing from the corpus fails the whole run.

Training encodes each prompt and gold answer once and trains the three
roles over different material: all passages, the retrieved subsets, and
format-transcription pairs built by pairing each retrieved-knowledge draft
with its gold answer (the draft rambles, the gold target teaches the format
stage both the wording and where to stop).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .consistency import prepare_texts
from .corpus import CorpusStats, Passage, QaPair, TokenSeq, Vocabulary, answer_blocks
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

# The slots each template is rendered with.
TEMPLATE_SLOTS = {
    "I": ("question",),
    "II": ("passages", "question"),
    "III": ("format", "draft"),
    "IV": ("question", "answer_1", "answer_2", "format"),
}


class PipelineError(RuntimeError):
    """A stage of the answer pipeline failed for one question, or retrieval named unknown passages."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the pipeline needs besides models and data."""

    k: int
    weights: LossWeights = field(default_factory=LossWeights)
    format: FormatSpec = None  # type: ignore[assignment]
    prompt_templates: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_TEMPLATES))
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if self.format is None:
            raise ValueError("a FormatSpec is required")
        missing = set(TEMPLATE_SLOTS) - set(self.prompt_templates)
        if missing:
            raise ValueError(f"prompt templates missing: {sorted(missing)}")
        unknown = set(self.prompt_templates) - set(TEMPLATE_SLOTS)
        if unknown:
            raise ValueError(
                f"unknown prompt templates: {sorted(unknown)} (known: {sorted(TEMPLATE_SLOTS)})"
            )
        object.__setattr__(self, "prompt_templates", dict(self.prompt_templates))
        # Every slot value is a non-empty string, so a template that renders
        # one-character values renders every value.
        for name, slots in TEMPLATE_SLOTS.items():
            template = self.prompt_templates[name]
            try:
                template.format(**dict.fromkeys(slots, "x"))
            except (KeyError, IndexError, AttributeError, ValueError) as exc:
                raise ValueError(
                    f"prompt template {name} {template!r} cannot be rendered: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc


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
    cfg: PipelineConfig,
) -> tuple[list[str], list[str]]:
    """Each question's full-knowledge (template I) and retrieved-knowledge (template II) prompt.

    retrievals[i] is the top-k of questions[i]; template II carries the text
    of those passages.  The first question with a retrieved id missing from
    *passages* raises PipelineError naming its missing ids.
    """
    full, retrieved = [], []
    for qa, results in zip(questions, retrievals, strict=True):
        context = _passages_for([r.passage_id for r in results], passages)
        full.append(cfg.prompt_templates["I"].format(question=qa.question))
        retrieved.append(cfg.prompt_templates["II"].format(
            passages=" ".join(p.text for p in context), question=qa.question
        ))
    return full, retrieved


def rewrite_prompts(drafts: Sequence[str], cfg: PipelineConfig) -> list[str]:
    """The format stage's prompt (template III) for each draft text."""
    return [cfg.prompt_templates["III"].format(format=cfg.format.wording, draft=d) for d in drafts]


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
    postp: ToyLm
    reward: RewardModel
    judge: ExternalJudge
    consistency_scorer: LmScorer | None = None  # defaults to the full-knowledge model

    @property
    def scorer(self) -> LmScorer:
        return self.consistency_scorer if self.consistency_scorer is not None else self.full


def _greedy_texts(
    model: ToyLm, prompts: Sequence[str], max_tokens: int
) -> dict[str, str | Exception]:
    """Greedy output text of each distinct prompt, encoded once, decoded in one generate_batch.

    A prompt with no token maps to the error it raises, so it fails only the
    questions that use it.
    """
    encoded = {prompt: model.encode(prompt) for prompt in dict.fromkeys(prompts)}
    decodable = {prompt: seq for prompt, seq in encoded.items() if seq.tokens}
    outputs = model.generate_batch(list(decodable.values()), max_tokens)
    texts: dict[str, str | Exception] = dict.fromkeys(
        encoded, ValueError("generation needs a non-empty prompt")
    )
    texts.update(zip(decodable, (out.text for out in outputs)))
    return texts


def _ok(output: object) -> object:
    """*output*, or raise it if it is a stage's per-question error."""
    if isinstance(output, Exception):
        raise output
    return output


def _draft_candidate(output: str | Exception, provenance: Provenance, path: str) -> AnswerCandidate:
    try:
        return AnswerCandidate(_ok(output), provenance)
    except ValueError as exc:
        raise PipelineError(f"{path} path failed: {exc}") from exc


Paths = tuple[AnswerCandidate, AnswerCandidate, tuple[str, ...]]


def answer_paths_block(
    questions: Sequence[QaPair],
    retrievals: Sequence[Sequence[RetrievalResult]],
    full_model: ToyLm,
    retr_model: ToyLm,
    passages: Mapping[str, Passage],
    cfg: PipelineConfig,
) -> list[Paths | PipelineError]:
    """answer_paths for a block of questions, one batched decode per model.

    retrievals[i] is the top-k of questions[i].  Each entry is that
    question's (full-knowledge candidate, retrieved-knowledge candidate,
    retrieved ids), or the PipelineError answer_paths would raise for it.
    A retrieved id missing from *passages* raises for the whole block.
    """
    prompts_full, prompts_retr = draft_prompts(questions, retrievals, passages, cfg)
    full_texts = _greedy_texts(full_model, prompts_full, cfg.max_output_tokens)
    retr_texts = _greedy_texts(retr_model, prompts_retr, cfg.max_output_tokens)
    paths: list[Paths | PipelineError] = []
    for results, full, retr in zip(retrievals, prompts_full, prompts_retr):
        try:
            paths.append((
                _draft_candidate(full_texts[full], Provenance.FULL_KNOWLEDGE, "full-knowledge"),
                _draft_candidate(
                    retr_texts[retr], Provenance.RETRIEVED_KNOWLEDGE, "retrieved-knowledge"
                ),
                tuple(r.passage_id for r in results),
            ))
        except PipelineError as exc:
            paths.append(exc)
    return paths


def postprocess_block(
    cands: Sequence[AnswerCandidate], postp_model: ToyLm, cfg: PipelineConfig
) -> list[AnswerCandidate | PipelineError]:
    """postprocess for a block of drafts: each distinct draft is rewritten once.

    Each entry is the rewritten candidate, or the PipelineError postprocess
    would raise for it.  An already postprocessed candidate raises for the
    whole block.
    """
    if any(cand.postprocessed for cand in cands):
        raise ValueError("candidate is already postprocessed")
    prompts = rewrite_prompts([cand.text for cand in cands], cfg)
    texts = _greedy_texts(postp_model, prompts, cfg.format.max_tokens)
    rewrites: list[AnswerCandidate | PipelineError] = []
    for cand, prompt in zip(cands, prompts):
        out, name = texts[prompt], cand.provenance.value
        if isinstance(out, Exception):
            rewrites.append(PipelineError(f"postprocess failed for {name}: {out}"))
        elif not out.strip():
            rewrites.append(PipelineError(f"postprocess produced empty output for {name}"))
        else:
            rewrites.append(AnswerCandidate(out, cand.provenance, postprocessed=True))
    return rewrites


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
    failure on either path raises PipelineError naming the path.  The
    one-question case of answer_paths_block.
    """
    return _ok(answer_paths_block([q], [results], full_model, retr_model, passages, cfg)[0])


def postprocess(cand: AnswerCandidate, postp_model: ToyLm, cfg: PipelineConfig) -> AnswerCandidate:
    """Rewrite a raw draft into the requested format.

    Output length is capped at cfg.format.max_tokens.  An empty rewrite is an
    error rather than a silent empty answer.  The one-draft case of
    postprocess_block.
    """
    return _ok(postprocess_block([cand], postp_model, cfg)[0])


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
    """One block, stage by stage: retrieve, draft, rewrite, then select per question.

    Each question records its fields up to its first failure, as answer_paths,
    postprocess and select would return them one at a time: only its id and
    question when a draft fails, the drafts and retrieved ids too when the
    full-knowledge rewrite fails, and the full-knowledge rewrite as well
    when only the retrieved-knowledge one fails.  One map over the block
    then selects for each question that has both rewrites.
    """
    retrievals = retrieve_texts(index, embedder, [qa.question for qa in block], cfg.k)
    paths = answer_paths_block(block, retrievals, models.full, models.retrieved, passages, cfg)
    # Equal drafts get equal rewrites, so each question looks its two up.
    drafts = list(dict.fromkeys(
        cand for path in paths if not isinstance(path, Exception) for cand in path[:2]
    ))
    rewritten = dict(zip(drafts, postprocess_block(drafts, models.postp, cfg)))
    items: list[tuple[dict, tuple[AnswerCandidate, ...]]] = []  # fields, rewrites to select from
    for qa, path in zip(block, paths):
        fields, rewrites = {"qid": qa.id, "question": qa.question}, ()
        try:
            full, retr, fields["retrieved_ids"] = _ok(path)
            fields.update(raw_full=full.text, raw_retrieved=retr.text)
            post_full, post_retr = rewritten[full], rewritten[retr]
            fields["post_full"] = _ok(post_full).text
            fields["post_retrieved"] = _ok(post_retr).text
            rewrites = (post_full, post_retr)
        except PipelineError as exc:
            fields["error"] = _error(exc)
        items.append((fields, rewrites))

    texts = (text for fields, rewrites in items if rewrites
             for text in (fields["question"], *(cand.text for cand in rewrites)))
    prepared = prepare_texts(texts, models.scorer, stats)

    def choose(item: tuple[dict, tuple[AnswerCandidate, ...]]) -> PipelineRun:
        fields, rewrites = item
        if rewrites:
            try:
                winner, bundle = select(
                    fields["question"], *rewrites, models.scorer, stats,
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
    whole block: retrieval (retrieve_texts), both drafts, the rewrites,
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
    """The three trained model roles and the training questions' drafts.

    drafts maps each training question's id to its retrieved-knowledge
    draft, the text the format role learned to rewrite; the reward model's
    preference pairs reuse it instead of decoding again.
    """

    full: ToyLm
    retrieved: ToyLm
    postp: ToyLm
    drafts: Mapping[str, str]


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
    """Train the three model roles from scratch.

    Each training question is retrieved once, and each prompt and gold
    answer is rendered and encoded once; the retrieved-knowledge drafts are
    decoded from the encoded template-II prompts and returned with the
    models.  The full-knowledge role sees every passage, the
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
    retrievals = retrieve_texts(index, embedder, [qa.question for qa in train_qa], cfg.k)
    retr_union = retrieved_passages(retrievals, passage_map)
    prompts_full, prompts_retr = (
        [vocab.encode(prompt) for prompt in prompts]
        for prompts in draft_prompts(train_qa, retrievals, passage_map, cfg)
    )
    answers = [vocab.encode(qa.answers[0]) for qa in train_qa]

    def fit(domain: Sequence[Passage], prompts: Sequence[TokenSeq],
            targets: Sequence[TokenSeq]) -> ToyLm:
        seqs = [seq for seq in (vocab.encode(p.text) for p in domain) if len(seq.tokens) >= 2]
        batch = [TrainExample(prompt, target) for prompt, target in zip(prompts, targets)]
        return train(ToyLm(vocab), seqs, batch, cfg.weights, steps, learning_rate)

    full = fit(passages, prompts_full, answers)
    retrieved = fit(retr_union, prompts_retr, answers)
    drafts = drafts_for_questions(train_qa, prompts_retr, retrieved, cfg)
    prompts_post = rewrite_prompts([drafts[qa.id] for qa in train_qa], cfg)
    postp = fit(
        [], [vocab.encode(prompt) for prompt in prompts_post],
        [TokenSeq(answer.tokens + (vocab.eos_id,), answer.text) for answer in answers],
    )
    return TrainedModels(full, retrieved, postp, drafts)


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
