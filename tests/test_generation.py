"""Tests for the end-to-end answer pipeline.

A small synthetic world is trained once per module; individual tests probe
draft generation, the format step, selection routing, per-question fault
isolation, and training effects (draft recall, format-step exactness).
"""

import functools
import json
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import genki.corpus
from genki.corpus import (
    AnswerKind, Passage, QaPair, TokenSeq, Vocabulary, build_stats, split_sentences, tokenize,
)
from genki.ensemble import (
    AnswerCandidate, Choice, Provenance, Route, ScoreBundle, StubJudge, _guarded_reward_mean,
    judgment_score, resolve_winner,
)
from genki import generation
from genki.generation import (
    TEMPLATE_I,
    TEMPLATE_II,
    AnswerSpan,
    PipelineConfig,
    PipelineError,
    PipelineModels,
    answer_paths,
    answer_span,
    build_vocabulary,
    draft_prompts,
    drafts_for_questions,
    postprocess,
    preference_pairs_from_drafts,
    retrieved_passages,
    run_pipeline,
    run_record,
    train_pipeline_models,
)
from genki.lm_core import ToyLm
from genki.metrics import exact_match, text_recall
from genki.retriever import DenseIndex, HashEmbedder, RetrievalResult, retrieve_texts, top_k
from genki.reward import FormatSpec, PreferencePair, ToyRewardModel, train_reward
from genki.synth import synthetic_world
from genki.textstats import TextStatsError, nisf


FORMAT = FormatSpec(kind=AnswerKind.ENTITY, max_tokens=8)


def make_config(**overrides):
    defaults = dict(k=2, format=FORMAT, max_output_tokens=12)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def world():
    passages, qa_pairs = synthetic_world(12, 8)
    cfg = make_config()
    vocab = build_vocabulary(passages, qa_pairs)
    embedder = HashEmbedder(dim=1024, seed=0)
    index = DenseIndex.build(passages, embedder)
    trained = train_pipeline_models(
        passages, qa_pairs, index, embedder, vocab, cfg, steps=60, learning_rate=0.5
    )
    pairs = preference_pairs_from_drafts(qa_pairs, trained.drafts, FORMAT)
    reward = train_reward(ToyRewardModel(), pairs, 100, 0.05) if pairs else ToyRewardModel()
    models = PipelineModels(
        full=trained.full,
        retrieved=trained.retrieved,
        span=trained.span,
        reward=reward,
        judge=StubJudge(),
    )
    return {
        "passages": passages,
        "passage_map": {p.id: p for p in passages},
        "qa": qa_pairs,
        "cfg": cfg,
        "vocab": vocab,
        "embedder": embedder,
        "index": index,
        "trained": trained,
        "models": models,
        "stats": build_stats(passages),
    }


def retrieve(world, qa, k=2):
    """The top-k of one question, the reference the pipeline's blocks must equal."""
    return top_k(world["index"], world["embedder"].embed_question(qa.question), k)


def rendered_prompts(world, qa, results):
    """*qa*'s template I and II prompts rendered whole, the texts draft_prompts must encode."""
    texts = " ".join(world["passage_map"][r.passage_id].text for r in results)
    return (TEMPLATE_I.format(question=qa.question),
            TEMPLATE_II.format(passages=texts, question=qa.question))


def retrieved_drafts(world, model):
    """*model*'s retrieved-knowledge drafts of the world's questions, keyed by id.

    Each prompt is rendered and encoded whole, the reference for prompts
    encoded from their parts.
    """
    prompts = [world["vocab"].encode(rendered_prompts(world, qa, retrieve(world, qa))[1])
               for qa in world["qa"]]
    return drafts_for_questions(world["qa"], prompts, model, world["cfg"])


# -- the one-question flow run_pipeline replaced, kept as its oracle ---------
#
# Each question on its own: encode its prompts, decode them token by token
# from the argmax of the logit table, cut both drafts to the span, then score both
# candidates (sentences split, weighted and encoded per call) and route.


@functools.lru_cache(maxsize=8)
def argmax_successors(model):
    """Each row's argmax, the lowest id on ties, over the row written out in full."""
    successors, start = [], 0
    for row, length in enumerate(model.lengths.tolist()):
        logits = [float(model.default[row])] * model.vocab.size
        for col, value in zip(model.cols[start:start + length], model.vals[start:start + length]):
            logits[col] = float(value)
        successors.append(logits.index(max(logits)))
        start += length
    return successors


def reference_generate(model, prompt, max_tokens):
    if not prompt.tokens:
        raise ValueError("generation needs a non-empty prompt")
    successor = argmax_successors(model)
    out, prev = [], prompt.tokens[-1]
    for _ in range(max_tokens):
        nxt = successor[prev]
        if nxt == model.vocab.eos_id:
            break
        out.append(nxt)
        prev = nxt
    return TokenSeq(tuple(out), model.vocab.decode(out))


def reference_weighted_term(text, conditioning, scorer, stats):
    sentences = [s for s in split_sentences(text) if tokenize(s)]
    if not sentences:
        raise TextStatsError(f"no scoreable sentences in {text!r}")
    context = scorer.encode(conditioning)
    total = 0.0
    for weight in nisf(sentences, stats):
        total += weight.nisf * scorer.logprob_cond(context, scorer.encode(weight.sentence))
    return total


def reference_consistency(q, a, scorer, stats):
    return reference_weighted_term(a, q, scorer, stats) + reference_weighted_term(q, a, scorer, stats)


def reference_select(q, cand1, cand2, models, stats, format):
    len1, len2 = len(tokenize(cand1.text)), len(tokenize(cand2.text))
    if len1 < 1 or len2 < 1:
        raise ValueError("candidates must contain at least one word token")
    cs1 = reference_consistency(q, cand1.text, models.scorer, stats)
    cs2 = reference_consistency(q, cand2.text, models.scorer, stats)
    rm1 = models.reward.score(cand1.text, format, q)
    rm2 = models.reward.score(cand2.text, format, q)
    s_c = judgment_score(cs1, cs2, rm1, rm2, len1, len2)
    route = Route.REWARD_PICK if s_c < 0 else Route.EXTERNAL_PICK
    bundle = ScoreBundle(cs1, cs2, rm1, rm2, len1, len2, s_c, route, _guarded_reward_mean(rm1, rm2)[1])
    return resolve_winner(q, cand1, cand2, bundle, models.judge, format), bundle


def reference_run_one(qa, results, models, passages, stats, cfg):
    """The per-question flow: answer_paths, postprocess twice, select."""
    fields = dict(qid=qa.id, question=qa.question)
    try:
        prompt_full, prompt_retr = rendered_prompts({"passage_map": passages}, qa, results)
        drafts = [
            AnswerCandidate(
                reference_generate(model, model.encode(prompt), cfg.max_output_tokens).text,
                provenance,
            )
            for model, prompt, provenance in (
                (models.full, prompt_full, Provenance.FULL_KNOWLEDGE),
                (models.retrieved, prompt_retr, Provenance.RETRIEVED_KNOWLEDGE),
            )
        ]
        fields.update(
            retrieved_ids=tuple(r.passage_id for r in results),
            raw_full=drafts[0].text, raw_retrieved=drafts[1].text,
        )
        cuts = []
        for cand, key in zip(drafts, ("post_full", "post_retrieved")):
            end = models.span.start + min(models.span.length, cfg.format.max_tokens)
            text = " ".join(cand.text.split()[models.span.start:end])
            if not text:
                raise PipelineError(f"postprocess produced empty output for {cand.provenance.value}")
            cuts.append(AnswerCandidate(text, cand.provenance, postprocessed=True))
            fields[key] = text
        winner, bundle = reference_select(qa.question, *cuts, models, stats, cfg.format)
        return generation.PipelineRun(
            **fields, bundle=bundle, final_answer=winner.text,
            winner_provenance=winner.provenance.value,
        )
    except Exception as exc:
        return generation.PipelineRun(**fields, error=f"{type(exc).__name__}: {exc}")


def silent_model(vocab, dense_model):
    """A model whose every row ends at once: it drafts nothing for any prompt."""
    table = np.zeros((vocab.size, vocab.size))
    table[:, vocab.eos_id] = 1.0
    return dense_model(vocab, table)


class TestPipelineConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            make_config(k=0)
        with pytest.raises(ValueError, match="max_output_tokens"):
            make_config(max_output_tokens=0)


class TestBuildVocabulary:
    def test_covers_all_material(self, world):
        vocab = world["vocab"]
        for word in ("topic003", "alpha003", "beta003", "question", "memory", "context"):
            assert vocab.id(word) != 0, word
        # the format's wording is in no prompt, so it is no vocabulary word
        assert vocab.id("entity") == 0

    def test_deterministic(self, world):
        again = build_vocabulary(world["passages"], world["qa"])
        assert again.words() == world["vocab"].words()

    @pytest.mark.parametrize("template", [TEMPLATE_I, TEMPLATE_II], ids=["I", "II"])
    def test_template_words_without_material(self, template):
        # the templates' words are known even with no passage or question
        vocab = build_vocabulary([], [])
        words = tokenize(template.format(question="", passages=""))
        assert words and all(vocab.id(word) != 0 for word in words)


class TestTemplates:
    @pytest.mark.parametrize("question", ["???", "...", "!?", "- -", "«»"])
    @pytest.mark.parametrize("name", ["I", "II"])
    def test_wordless_question_prompt_holds_the_template_words(self, world, question, name):
        # so every prompt has a token, and no question fails for an empty prompt
        qa = QaPair("blank", question, ("alpha",), AnswerKind.ENTITY)
        vocab = world["vocab"]
        full, retrieved = draft_prompts([qa], [[]], {}, vocab, vocab)
        prompt = {"I": full, "II": retrieved}[name][0]
        template = {"I": TEMPLATE_I, "II": TEMPLATE_II}[name]
        assert prompt.tokens
        assert prompt.tokens == vocab.encode(template.format(question="", passages="")).tokens

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_passages_in_rank_order_before_the_question(self, world, k):
        qa = world["qa"][5]
        results = retrieve(world, qa, k)
        vocab = world["vocab"]
        full, retrieved = draft_prompts([qa], [results], world["passage_map"], vocab, vocab)
        texts = " ".join(world["passage_map"][r.passage_id].text for r in results)
        expected = [f"answer from memory . question : {qa.question}",
                    f"context : {texts} question : {qa.question}"]
        assert [full[0].text, retrieved[0].text] == expected
        assert [full[0].tokens, retrieved[0].tokens] == [vocab.encode(e).tokens for e in expected]

    def test_each_template_encoded_with_its_own_vocabulary(self, world):
        qa, results = world["qa"][5], retrieve(world, world["qa"][5])
        vocab, tiny = world["vocab"], Vocabulary.from_words(["question", "context"])
        full, retrieved = draft_prompts([qa], [results], world["passage_map"], tiny, vocab)
        prompt_full, prompt_retr = rendered_prompts(world, qa, results)
        assert full[0].tokens == tiny.encode(prompt_full).tokens
        assert retrieved[0].tokens == vocab.encode(prompt_retr).tokens


def _prompt_text():
    """Questions and passages: ASCII, Greek (Σ next to letters), CJK, punctuation, outer spaces."""
    pieces = st.sampled_from(["Σ", "ΑΣ", "σς", "東京", "㐀", "鿿", "topic001", "Alpha", "!!!",
                              ".", ":", "'", " ", "  ", "\t", "\n", "\u00a0", "ǅ", "\u212a"])
    return st.lists(st.one_of(pieces, st.text(max_size=6)), max_size=8).map("".join)


class TestPromptsFromParts:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(question=_prompt_text(), texts=st.lists(_prompt_text(), min_size=0, max_size=3))
    def test_equal_encoding_the_rendered_prompt(self, question, texts):
        # a text with no visible character is no valid passage or question
        texts = [text if text.strip() else f"{text}!{text}" for text in texts]
        question = question if question.strip() else f"{question}?{question}"
        passages = {f"p{i}": Passage(f"p{i}", text) for i, text in enumerate(texts)}
        results = [RetrievalResult(pid, 1.0, rank) for rank, pid in enumerate(passages, 1)]
        qa = QaPair("q", question, ("alpha",), AnswerKind.ENTITY)
        vocab = Vocabulary.from_texts([question, *texts, TEMPLATE_I, TEMPLATE_II, "σ ς"])
        for retr_vocab in (vocab, Vocabulary(vocab.words())):  # one vocabulary, or one each
            full, retrieved = draft_prompts([qa, qa], [results, results], passages, vocab,
                                            retr_vocab)
            for prompts in (full, retrieved):
                assert prompts[0] == prompts[1]
            # the reference: render the prompt, then encode the whole text
            rendered = rendered_prompts({"passage_map": passages}, qa, results)
            assert [full[0].text, retrieved[0].text] == list(rendered)
            assert [full[0].tokens, retrieved[0].tokens] == [vocab.encode(t).tokens
                                                             for t in rendered]


class TestDrafts:
    def test_each_model_decodes_its_block_in_one_batch(self, world, monkeypatch):
        batches = []
        decode = ToyLm.generate_batch

        def recording_decode(self, prompts, max_tokens):
            batches.append([prompt.text for prompt in prompts])
            return decode(self, prompts, max_tokens)

        monkeypatch.setattr(ToyLm, "generate_batch", recording_decode)
        questions = [*world["qa"][:3], world["qa"][1]]
        retrievals = [retrieve(world, qa) for qa in questions]
        models = world["models"]
        generation.answer_paths_block(questions, retrievals, models.full, models.retrieved,
                                      world["passage_map"], world["cfg"])
        rendered = [rendered_prompts(world, qa, r) for qa, r in zip(questions, retrievals)]
        assert batches == [[full for full, _ in rendered], [retr for _, retr in rendered]]

    def test_drafts_match_one_prompt_at_a_time(self, world):
        retrievals = [retrieve(world, qa) for qa in world["qa"]]
        models = world["models"]
        paths = generation.answer_paths_block(world["qa"], retrievals, models.full,
                                              models.retrieved, world["passage_map"], world["cfg"])
        for qa, results, (full, retr, _) in zip(world["qa"], retrievals, paths):
            prompt_full, prompt_retr = rendered_prompts(world, qa, results)
            assert full.text == models.full.generate(models.full.encode(prompt_full), 12).text
            assert retr.text == models.retrieved.generate(
                models.retrieved.encode(prompt_retr), 12
            ).text


class TestRetrievedPassages:
    def test_union_first_seen_no_repeats(self, world):
        retrievals = retrieve_texts(
            world["index"], world["embedder"], [qa.question for qa in world["qa"]], 2
        )
        union = retrieved_passages(retrievals, world["passage_map"])
        ids = [p.id for p in union]
        assert len(ids) == len(set(ids))
        # every question's own passage is in the union
        for i in range(len(world["qa"])):
            assert f"p{i:03d}" in ids


class TestAnswerPaths:
    def test_retrieval_targets_topic_passage(self, world):
        qa = world["qa"][3]
        _, _, retrieved = answer_paths(
            qa, retrieve(world, qa), world["trained"].full, world["trained"].retrieved,
            world["passage_map"], world["cfg"],
        )
        assert retrieved[0] == "p003"

    def test_retrieved_draft_contains_answer_tokens(self, world):
        qa = world["qa"][0]
        _, cand_retr, _ = answer_paths(
            qa, retrieve(world, qa), world["trained"].full, world["trained"].retrieved,
            world["passage_map"], world["cfg"],
        )
        assert cand_retr.provenance is Provenance.RETRIEVED_KNOWLEDGE
        assert not cand_retr.postprocessed
        assert text_recall([qa.answers[0]], cand_retr.text) == 1.0

    def test_k_larger_than_corpus(self, world):
        cfg = make_config(k=100)
        _, _, retrieved = answer_paths(
            world["qa"][0], retrieve(world, world["qa"][0], cfg.k), world["trained"].full,
            world["trained"].retrieved, world["passage_map"], cfg,
        )
        assert len(retrieved) == len(world["passages"])

    def test_deterministic(self, world):
        args = (
            world["qa"][1], retrieve(world, world["qa"][1]), world["trained"].full,
            world["trained"].retrieved, world["passage_map"], world["cfg"],
        )
        a1, b1, r1 = answer_paths(*args)
        a2, b2, r2 = answer_paths(*args)
        assert (a1.text, b1.text, r1) == (a2.text, b2.text, r2)

    def test_empty_draft_is_a_candidate(self, world, dense_model):
        # drafting returns an empty draft; only the format step fails it
        qa = world["qa"][0]
        results = retrieve(world, qa)
        full, retr, retrieved = answer_paths(
            qa, results, silent_model(world["vocab"], dense_model), world["trained"].retrieved,
            world["passage_map"], world["cfg"],
        )
        assert full == AnswerCandidate("", Provenance.FULL_KNOWLEDGE)
        assert retr.text and retrieved == tuple(r.passage_id for r in results)

    def test_unknown_passage_id_raises(self, world):
        partial = dict(world["passage_map"])
        del partial["p000"]
        with pytest.raises(PipelineError, match="unknown passage ids"):
            answer_paths(
                world["qa"][0], retrieve(world, world["qa"][0]), world["trained"].full,
                world["trained"].retrieved, partial, world["cfg"],
            )


class TestPostprocess:
    def test_cuts_the_span(self, world):
        qa = world["qa"][0]
        _, cand_retr, _ = answer_paths(
            qa, retrieve(world, qa), world["trained"].full, world["trained"].retrieved,
            world["passage_map"], world["cfg"],
        )
        out = postprocess(cand_retr, AnswerSpan(1, 3), world["cfg"])
        assert out.postprocessed
        assert out.provenance is cand_retr.provenance
        assert out.text == " ".join(cand_retr.text.split()[1:4])

    def test_output_respects_token_cap(self):
        cand = AnswerCandidate(" ".join(f"w{i}" for i in range(20)), Provenance.FULL_KNOWLEDGE)
        out = postprocess(cand, AnswerSpan(2, 15), make_config())
        assert out.text == " ".join(f"w{i}" for i in range(2, 2 + FORMAT.max_tokens))

    def test_short_draft_keeps_what_the_span_reaches(self):
        cand = AnswerCandidate("alpha  beta\tgamma", Provenance.RETRIEVED_KNOWLEDGE)
        assert postprocess(cand, AnswerSpan(1, 5), make_config()).text == "beta gamma"

    def test_already_postprocessed_rejected(self, world):
        done = AnswerCandidate("alpha000 beta000", Provenance.FULL_KNOWLEDGE, postprocessed=True)
        with pytest.raises(ValueError, match="already"):
            postprocess(done, world["trained"].span, world["cfg"])

    @pytest.mark.parametrize("draft", ["some draft", "", " \t"])
    @pytest.mark.parametrize("provenance", list(Provenance))
    def test_empty_output_is_error(self, provenance, draft):
        # a draft too short to reach the span, an empty one included
        cand = AnswerCandidate(draft, provenance)
        with pytest.raises(PipelineError) as info:
            postprocess(cand, AnswerSpan(2 if draft else 0, 1), make_config())
        assert str(info.value) == f"postprocess produced empty output for {provenance.value}"


def qa(qid, answer):
    return QaPair(qid, f"what is {qid}", (answer,), AnswerKind.ENTITY)


class TestAnswerSpan:
    def test_most_common_place_of_the_gold(self):
        questions = [qa("a", "x y"), qa("b", "x y"), qa("c", "p q"), qa("d", "z")]
        drafts = {"a": "x y x y", "b": "w x y", "c": "r p q", "d": "w z"}
        assert answer_span(questions, drafts, 8) == AnswerSpan(1, 2)

    def test_first_occurrence_counts_once(self):
        questions = [qa("a", "x y"), qa("b", "x y"), qa("c", "z")]
        drafts = {"a": "x y w x y", "b": "w w x y", "c": "z"}
        # a counts at 0 only; the tie of (0, 2), (2, 2) and (0, 1) goes to
        # the earliest start, then the shortest length
        assert answer_span(questions, drafts, 8) == AnswerSpan(0, 1)

    def test_gold_is_cut_and_tokenized(self):
        questions = [qa("a", "X, y z"), qa("b", "x y w")]
        drafts = {"a": "v x y q", "b": "v x y r"}
        assert answer_span(questions, drafts, 2) == AnswerSpan(1, 2)
        assert answer_span(questions, drafts, 3) == AnswerSpan(0, 3)  # no draft holds its gold

    def test_no_draft_holds_its_gold(self):
        questions = [qa("a", "x y z"), qa("b", "p q"), qa("c", "r s t"), qa("d", "u v")]
        drafts = dict.fromkeys("abcd", "<unk> <unk>")
        # lengths 3 and 2 are equally common: the shortest wins
        assert answer_span(questions, drafts, 8) == AnswerSpan(0, 2)
        assert answer_span(questions[:1], {"a": ""}, 8) == AnswerSpan(0, 3)

    def test_trained_span_of_the_world(self, world):
        # every retrieved-knowledge draft of the synth world starts with its gold
        assert world["trained"].span == AnswerSpan(0, 2)


class TestTrainingEffects:
    def test_trained_drafts_beat_untrained(self, world):
        untrained = ToyLm(world["vocab"])
        trained_drafts = retrieved_drafts(world, world["trained"].retrieved)
        assert trained_drafts == world["trained"].drafts  # what training decoded
        untrained_drafts = retrieved_drafts(world, untrained)

        def mean_recall(drafts):
            return sum(
                text_recall([qa.answers[0]], drafts[qa.id]) for qa in world["qa"]
            ) / len(world["qa"])

        assert mean_recall(trained_drafts) >= mean_recall(untrained_drafts) + 0.2

    def test_format_stage_reaches_exact_match(self, world):
        # raw drafts ramble past the answer; the format stage stops at it
        runs = run_pipeline(
            world["qa"], world["models"], world["index"], world["embedder"],
            world["passage_map"], world["stats"], world["cfg"],
        )
        em_raw = sum(
            exact_match([qa.answers[0]], run.raw_retrieved)
            for qa, run in zip(world["qa"], runs)
        ) / len(runs)
        em_post = sum(
            exact_match([qa.answers[0]], run.final_answer)
            for qa, run in zip(world["qa"], runs)
        ) / len(runs)
        assert em_post > em_raw
        assert em_post == 1.0

    def test_empty_train_qa_rejected(self, world):
        with pytest.raises(ValueError, match="at least one"):
            train_pipeline_models(
                world["passages"], [], world["index"], world["embedder"],
                world["vocab"], world["cfg"], steps=50, learning_rate=0.5,
            )


class TestRunPipeline:
    def test_all_runs_complete(self, world):
        runs = run_pipeline(
            world["qa"], world["models"], world["index"], world["embedder"],
            world["passage_map"], world["stats"], world["cfg"],
        )
        assert len(runs) == len(world["qa"])
        for run in runs:
            assert run.error is None
            assert run.final_answer.strip()
            assert run.bundle is not None
            assert run.winner_provenance in ("FullKnowledge", "RetrievedKnowledge")

    def test_empty_question_list(self, world):
        assert run_pipeline(
            [], world["models"], world["index"], world["embedder"],
            world["passage_map"], world["stats"], world["cfg"],
        ) == []

    def test_jobs_do_not_change_results(self, world):
        args = (
            world["qa"], world["models"], world["index"], world["embedder"],
            world["passage_map"], world["stats"], world["cfg"],
        )
        assert run_pipeline(*args, jobs=1) == run_pipeline(*args, jobs=3)

    def test_threads_for_jobs_above_one(self, world, monkeypatch):
        pools = []

        class RecordingPool(generation.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(generation, "ThreadPoolExecutor", RecordingPool)
        args = (
            world["qa"], world["models"], world["index"], world["embedder"],
            world["passage_map"], world["stats"], world["cfg"],
        )
        assert run_pipeline(*args, jobs=2) == run_pipeline(*args, jobs=1)
        assert pools == [2]

    def test_unknown_passage_id_fails_the_run(self, world):
        partial = dict(world["passage_map"])
        del partial["p000"]
        with pytest.raises(PipelineError, match="unknown passage ids: \\['p000'\\]"):
            run_pipeline(
                world["qa"], world["models"], world["index"], world["embedder"], partial,
                world["stats"], world["cfg"],
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_blocked_retrieval_equals_per_question_top_k(self, world, jobs):
        # 65 phrased questions: one block of 64 queries at dim 1024, plus one.
        rng = random.Random(65)
        words = ["what", "goes", "with", "tell", "the", "values", "of"]
        stream = []
        for i in range(65):
            qa = world["qa"][rng.randrange(len(world["qa"]))]
            topic = qa.question.split()[-1]
            question = " ".join(rng.choice(words) for _ in range(rng.randint(2, 7)))
            stream.append(QaPair(f"s{i:03d}", f"{question} {topic}", qa.answers, qa.format))
        reference = [
            reference_run_one(
                qa, retrieve(world, qa), world["models"], world["passage_map"],
                world["stats"], world["cfg"],
            )
            for qa in stream
        ]
        runs = run_pipeline(
            stream, world["models"], world["index"], world["embedder"],
            world["passage_map"], world["stats"], world["cfg"], jobs=jobs,
        )
        assert runs == reference
        assert all(run.error is None for run in runs)

    def test_bad_jobs_rejected(self, world):
        with pytest.raises(ValueError):
            run_pipeline(
                [], world["models"], world["index"], world["embedder"],
                world["passage_map"], world["stats"], world["cfg"], jobs=0,
            )

    def test_judge_failure_isolated_per_question(self, world):
        poison = world["qa"][2].question

        class FlakyJudge:
            def choose(self, question, a1, a2, format):
                if question == poison:
                    raise RuntimeError("judge offline")
                return Choice.FIRST

        models = PipelineModels(
            full=world["models"].full,
            retrieved=world["models"].retrieved,
            span=world["models"].span,
            reward=world["models"].reward,
            judge=FlakyJudge(),
        )
        runs = run_pipeline(
            world["qa"], models, world["index"], world["embedder"],
            world["passage_map"], world["stats"], world["cfg"],
        )
        failed = [run for run in runs if run.error is not None]
        # routing may send some questions to the reward model instead of the
        # judge; the poisoned question must be the only failure if it failed
        for run in failed:
            assert run.qid == world["qa"][2].id
            assert "judge offline" in run.error
        ok = [run for run in runs if run.error is None]
        assert len(ok) >= len(world["qa"]) - 1
        for run in ok:
            assert run.final_answer.strip()

    def test_run_record_round_trips_json(self, world):
        runs = run_pipeline(
            world["qa"][:2], world["models"], world["index"], world["embedder"],
            world["passage_map"], world["stats"], world["cfg"],
        )
        for run in runs:
            record = run_record(run)
            again = json.loads(json.dumps(record, sort_keys=True))
            assert again == record
            assert again["qid"] == run.qid
            assert again["bundle"]["route"] in ("RewardPick", "ExternalPick")
            assert again["error"] is None


@pytest.fixture(scope="module")
def default_world():
    """The 300/150 synth world under the CLI's built-in defaults.

    Every full-knowledge draft starts with its gold answer, and the trained
    span cuts it there.
    """
    passages, qa_pairs = synthetic_world(300, 150)
    cfg = PipelineConfig(k=2, format=FORMAT)
    embedder = HashEmbedder(dim=256, seed=0)
    index = DenseIndex.build(passages, embedder)
    vocab = build_vocabulary(passages, qa_pairs)
    trained = train_pipeline_models(
        passages, qa_pairs, index, embedder, vocab, cfg, steps=50, learning_rate=0.5
    )
    passage_map = {p.id: p for p in passages}
    pairs = preference_pairs_from_drafts(qa_pairs, trained.drafts, FORMAT)
    reward = train_reward(ToyRewardModel(), pairs, 100, 0.05)
    models = PipelineModels(trained.full, trained.retrieved, trained.span, reward, StubJudge())
    args = (qa_pairs, models, index, embedder, passage_map, build_stats(passages), cfg)
    return {"args": args, "reference": reference_runs(*args)}


def reference_runs(questions, models, index, embedder, passages, stats, cfg):
    return [
        reference_run_one(
            qa, top_k(index, embedder.embed_question(qa.question), cfg.k), models, passages,
            stats, cfg,
        )
        for qa in questions
    ]


def assert_equals_reference(args, reference, jobs):
    runs = run_pipeline(*args, jobs=jobs)
    assert [run_record(run) for run in runs] == [run_record(run) for run in reference]


class ParityReward:
    """+1 for an answer of even length, -1 for odd.

    Two candidates of different parity have a zero mean reward, so the
    judgment score is negative and the reward model picks.
    """

    def score(self, answer, format, question=""):
        return 1.0 if len(answer) % 2 == 0 else -1.0


class TestBlockOracle:
    """run_pipeline's block stages reproduce the one-question flow byte for byte."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_built_in_defaults(self, default_world, monkeypatch, jobs, offset):
        questions = default_world["args"][0]
        monkeypatch.setattr(genki.corpus, "ANSWER_BLOCK", len(questions) + offset)
        assert_equals_reference(default_world["args"], default_world["reference"], jobs)
        assert all(run.error is None for run in default_world["reference"])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_cuts_keep_partial_fields(self, default_world, jobs):
        # a span that starts past the output length cuts every draft to nothing
        questions, models, *rest = default_world["args"]
        past = replace(models, span=AnswerSpan(rest[-1].max_output_tokens, 2))
        args = (questions, past, *rest)
        reference = reference_runs(*args)
        assert_equals_reference(args, reference, jobs)
        assert len(reference) == 150
        for run in reference:
            assert run.error == "PipelineError: postprocess produced empty output for FullKnowledge"
            assert run.raw_full and run.retrieved_ids
            assert run.post_full == run.post_retrieved == "" and run.bundle is None

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("noisy, seed, start, shows", [
        ("full", 3, 0, "RewardPick"),
        ("full", 1, 1, "PipelineError: postprocess produced empty output for FullKnowledge"),
        ("full", 10, 0, "PipelineError: postprocess produced empty output for FullKnowledge"),
        ("retrieved", 1, 1,
         "PipelineError: postprocess produced empty output for RetrievedKnowledge"),
        ("retrieved", 10, 0,
         "PipelineError: postprocess produced empty output for RetrievedKnowledge"),
    ])
    def test_distinct_candidates(
        self, world, monkeypatch, jobs, noisy, seed, start, shows, dense_model
    ):
        # an untrained model on one path drafts noise, so the two candidates
        # differ and some drafts come out empty or too short to reach the span
        monkeypatch.setattr(genki.corpus, "ANSWER_BLOCK", 3)
        roles = {"full": world["models"].full, "retrieved": world["models"].retrieved}
        size = world["vocab"].size
        noise = np.random.default_rng(seed).normal(0.0, 1.0, (size, size))
        roles[noisy] = dense_model(world["vocab"], noise)
        models = PipelineModels(
            **roles, span=AnswerSpan(start, 2), reward=ParityReward(), judge=StubJudge()
        )
        args = (
            world["qa"], models, world["index"], world["embedder"], world["passage_map"],
            world["stats"], world["cfg"],
        )
        reference = reference_runs(*args)
        assert_equals_reference(args, reference, jobs)
        assert any(run.post_full != run.post_retrieved for run in reference if run.bundle)
        seen = {run.error for run in reference} | {
            run.bundle.route.value for run in reference if run.bundle
        }
        assert shows in seen

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("empty", ["full", "retrieved"])
    def test_empty_draft_fails_at_the_cut(self, world, monkeypatch, dense_model, empty, jobs):
        # the run still records the retrieved ids and both drafts, and the
        # format step's cut is what fails it
        monkeypatch.setattr(genki.corpus, "ANSWER_BLOCK", 3)
        models = replace(world["models"], **{empty: silent_model(world["vocab"], dense_model)})
        args = (
            world["qa"], models, world["index"], world["embedder"], world["passage_map"],
            world["stats"], world["cfg"],
        )
        reference = reference_runs(*args)
        assert_equals_reference(args, reference, jobs)
        provenance = {"full": "FullKnowledge", "retrieved": "RetrievedKnowledge"}[empty]
        for qa, run in zip(world["qa"], reference):
            assert run.retrieved_ids == tuple(r.passage_id for r in retrieve(world, qa))
            drafts = {"full": run.raw_full, "retrieved": run.raw_retrieved}
            assert drafts.pop(empty) == "" and all(drafts.values())
            assert run.error == f"PipelineError: postprocess produced empty output for {provenance}"
            assert bool(run.post_full) == (empty == "retrieved")
            assert run.post_retrieved == "" and run.bundle is None and run.final_answer == ""

    def test_question_without_a_word_is_drafted_from_the_template(self, world, monkeypatch):
        # "???" has no word token, but both prompts still hold the template's
        # words, so it is drafted and cut like any other question; only
        # selection, which scores the drafts given the question, fails it
        calls = Counter()
        decode = ToyLm.generate_batch

        def counting_decode(model, prompts, max_tokens):
            calls[id(model)] += 1
            return decode(model, prompts, max_tokens)

        monkeypatch.setattr(ToyLm, "generate_batch", counting_decode)
        monkeypatch.setattr(genki.corpus, "ANSWER_BLOCK", 4)  # 9 questions: 3 blocks
        qa = world["qa"]
        stream = [*qa[:3], QaPair("blank", "???", qa[0].answers, qa[0].format), *qa[3:]]
        args = (
            stream, world["models"], world["index"], world["embedder"], world["passage_map"],
            world["stats"], world["cfg"],
        )
        reference = reference_runs(*args)
        assert_equals_reference(args, reference, 1)
        blank = reference[3]
        assert blank.raw_full and blank.raw_retrieved and blank.post_full and blank.post_retrieved
        assert blank.error == "ValueError: bigram scoring needs a non-empty context"
        assert sum(run.bundle is not None for run in reference) == len(qa)
        # each role decodes each block once, the wordless question's block too
        roles = (world["models"].full, world["models"].retrieved)
        assert calls == Counter({id(model): 3 for model in roles})


class CountingEmbedder:
    """An embedder that counts how often each question is embedded."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.questions = Counter()

    def embed_questions(self, texts):
        self.questions.update(texts)
        return self.inner.embed_questions(texts)

    def embed_passages(self, texts):
        return self.inner.embed_passages(texts)


class TestRetrieveOnce:
    def test_training_and_drafts_embed_each_question_once(self, world):
        embedder = CountingEmbedder(world["embedder"])
        trained = train_pipeline_models(
            world["passages"], world["qa"], world["index"], embedder,
            world["vocab"], world["cfg"], steps=5, learning_rate=0.5,
        )
        assert embedder.questions == Counter(qa.question for qa in world["qa"])
        # the drafts come from each question's own top-k
        assert trained.drafts == retrieved_drafts(world, trained.retrieved)

    def test_each_retrieved_prompt_rendered_once_and_encoded_from_its_parts(
        self, world, monkeypatch
    ):
        renders, encodes, tokenized = Counter(), Counter(), Counter()

        class CountingTemplate(str):
            def format(self, *args, **kwargs):
                text = super().format(*args, **kwargs)
                renders[text] += 1
                return text

        encode = Vocabulary.encode

        def counting_encode(vocab, text):
            encodes[text] += 1
            return encode(vocab, text)

        def counting_tokenize(text):
            tokenized[text] += 1
            return tokenize(text)

        monkeypatch.setattr(generation, "TEMPLATE_II", CountingTemplate(TEMPLATE_II))
        monkeypatch.setattr(Vocabulary, "encode", counting_encode)
        monkeypatch.setattr(generation, "tokenize", counting_tokenize)
        train_pipeline_models(
            world["passages"], world["qa"], world["index"], world["embedder"],
            world["vocab"], world["cfg"], steps=1, learning_rate=0.5,
        )
        assert sum(renders.values()) == len(world["qa"])
        assert not any(encodes[prompt] for prompt in renders)  # no prompt is tokenized whole
        union = {r.passage_id for qa in world["qa"] for r in retrieve(world, qa)}
        parts = [qa.question for qa in world["qa"]] + [world["passage_map"][pid].text
                                                       for pid in union]
        assert all(tokenized[text] == 1 for text in parts)

    def test_unknown_ids_raise_before_training(self, world, monkeypatch):
        partial = [p for p in world["passages"] if p.id != "p003"]
        trained = []
        monkeypatch.setattr(generation, "train", lambda *a, **kw: trained.append(1))
        with pytest.raises(PipelineError, match="unknown passage ids: \\['p003'\\]"):
            train_pipeline_models(
                partial, world["qa"], world["index"], world["embedder"],
                world["vocab"], world["cfg"], steps=50, learning_rate=0.5,
            )
        assert trained == []
        with pytest.raises(PipelineError, match="unknown passage ids"):
            retrieved_passages([retrieve(world, world["qa"][3])], {})
        with pytest.raises(PipelineError, match="unknown passage ids"):
            draft_prompts(world["qa"][3:4], [retrieve(world, world["qa"][3])], {},
                          world["vocab"], world["vocab"])


class TestShortPassages:
    def test_left_out_of_domain_loss(self, world, dense_logits):
        # fewer than 2 tokens: no transition, so training is as without them
        short = [Passage("solo", "zebra"), Passage("punct", "!!!")]
        passages = world["passages"] + short
        vocab = build_vocabulary(passages, world["qa"])
        index = DenseIndex.build(passages, world["embedder"])
        with_short = train_pipeline_models(
            passages, world["qa"], index, world["embedder"], vocab, world["cfg"],
            steps=20, learning_rate=0.5,
        )
        without = train_pipeline_models(
            world["passages"], world["qa"], world["index"], world["embedder"], vocab,
            world["cfg"], steps=20, learning_rate=0.5,
        )
        assert dense_logits(with_short.full).tobytes() == dense_logits(without.full).tobytes()


class TestPreferencePairs:
    def test_pairs_built_from_mismatched_drafts(self, world):
        drafts = {qa.id: "wrong answer entirely" for qa in world["qa"]}
        pairs = preference_pairs_from_drafts(world["qa"], drafts, FORMAT)
        assert len(pairs) == len(world["qa"])
        assert pairs[0].positive == world["qa"][0].answers[0]
        assert pairs[0].negative == "wrong answer entirely"
        assert pairs[0].question == world["qa"][0].question

    def test_matching_and_empty_drafts_skipped(self, world):
        qa0, qa1, qa2 = world["qa"][:3]
        drafts = {
            qa0.id: qa0.answers[0],         # already right: no signal
            qa1.id: "   ",                  # empty: nothing to compare
            qa2.id: "some wrong draft",
        }
        pairs = preference_pairs_from_drafts([qa0, qa1, qa2], drafts, FORMAT)
        assert len(pairs) == 1
        assert pairs[0].negative == "some wrong draft"

    def test_normalized_match_skipped(self, world):
        qa0 = world["qa"][0]
        drafts = {qa0.id: qa0.answers[0].upper() + "."}
        assert preference_pairs_from_drafts([qa0], drafts, FORMAT) == []

    def test_cjk_draft_decoded_with_spaces_skipped(self):
        # a decoded draft joins CJK tokens with spaces; it still equals its gold
        qa = QaPair("c", "首都 是 哪里", ("東京",), AnswerKind.ENTITY)
        assert preference_pairs_from_drafts([qa], {"c": "東 京"}, FORMAT) == []


class TestIdenticalCandidates:
    def test_identical_candidates_route_external(self, world):
        # identical texts: consistency gap 0, reward gap 0, s_c = exp(0) = 1
        from genki.ensemble import select

        cand = AnswerCandidate("alpha000 beta000", Provenance.FULL_KNOWLEDGE, postprocessed=True)
        twin = AnswerCandidate("alpha000 beta000", Provenance.RETRIEVED_KNOWLEDGE, postprocessed=True)
        winner, bundle = select(
            world["qa"][0].question, cand, twin, world["models"].scorer,
            world["stats"], world["models"].reward, world["models"].judge, FORMAT,
        )
        assert bundle.s_c == pytest.approx(1.0)
        assert bundle.route.value == "ExternalPick"
        assert winner.text == cand.text

    def test_identical_candidates_scored_once(self, world):
        from genki.consistency import consistency
        from genki.ensemble import select

        calls = Counter()
        inner = world["models"]

        class CountingScorer:
            def encode(self, text):
                return inner.scorer.encode(text)

            def logprob_cond(self, context, target):
                calls["logprob_cond"] += 1
                return inner.scorer.logprob_cond(context, target)

        class CountingReward:
            def score(self, answer, format, question=""):
                calls["reward"] += 1
                return inner.reward.score(answer, format, question)

        q = world["qa"][0].question
        cand = AnswerCandidate("alpha000 beta000", Provenance.FULL_KNOWLEDGE, postprocessed=True)
        twin = AnswerCandidate("alpha000 beta000", Provenance.RETRIEVED_KNOWLEDGE, postprocessed=True)
        _, bundle = select(
            q, cand, twin, CountingScorer(), world["stats"], CountingReward(), inner.judge, FORMAT
        )
        assert calls["reward"] == 1
        once = calls["logprob_cond"]
        consistency(q, cand.text, CountingScorer(), world["stats"])
        assert calls["logprob_cond"] == 2 * once
        assert (bundle.cs1, bundle.rm1, bundle.len1) == (bundle.cs2, bundle.rm2, bundle.len2)
