"""Tests for the end-to-end answer pipeline.

A small synthetic world is trained once per module; individual tests probe
draft generation, the format stage, selection routing, per-question fault
isolation, and training effects (draft recall, format-stage exactness).
"""

import functools
import json
import random
from collections import Counter

import numpy as np
import pytest

from genki.corpus import (
    AnswerKind, Passage, QaPair, TokenSeq, build_stats, split_sentences, tokenize,
)
from genki.ensemble import (
    AnswerCandidate, Choice, Provenance, Route, ScoreBundle, StubJudge, _guarded_reward_mean,
    bundle_record, judgment_score, resolve_winner,
)
from genki import generation
from genki.generation import (
    DEFAULT_TEMPLATES,
    PipelineConfig,
    PipelineError,
    PipelineModels,
    answer_paths,
    build_vocabulary,
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
from genki.retriever import DenseIndex, HashEmbedder, retrieve_texts, top_k
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
    vocab = build_vocabulary(passages, qa_pairs, cfg)
    embedder = HashEmbedder(dim=1024, seed=0)
    index = DenseIndex.build(passages, embedder)
    trained = train_pipeline_models(
        passages, qa_pairs, index, embedder, vocab, cfg, steps=60, learning_rate=0.5
    )
    pairs = preference_pairs_from_drafts(qa_pairs, trained.drafts, FORMAT)
    reward = train_reward(ToyRewardModel(), pairs, 100) if pairs else ToyRewardModel()
    models = PipelineModels(
        full=trained.full,
        retrieved=trained.retrieved,
        postp=trained.postp,
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


# -- the one-question flow run_pipeline replaced, kept as its oracle ---------
#
# Each question on its own: encode its prompts, decode them token by token
# from the argmax of the logit table, rewrite both drafts, then score both
# candidates (sentences split, weighted and encoded per call) and route.


@functools.lru_cache(maxsize=8)
def argmax_successors(model):
    return model.logits.argmax(axis=1).tolist()


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
        prompt_retr = generation.render_retrieved_prompt(qa.question, results, passages, cfg)
        prompt_full = cfg.prompt_templates["I"].format(question=qa.question)
        drafts = []
        for model, prompt, provenance, path in (
            (models.full, prompt_full, Provenance.FULL_KNOWLEDGE, "full-knowledge"),
            (models.retrieved, prompt_retr, Provenance.RETRIEVED_KNOWLEDGE, "retrieved-knowledge"),
        ):
            try:
                text = reference_generate(model, model.encode(prompt), cfg.max_output_tokens).text
                drafts.append(AnswerCandidate(text, provenance))
            except Exception as exc:
                raise PipelineError(f"{path} path failed: {exc}") from exc
        fields.update(
            retrieved_ids=tuple(r.passage_id for r in results),
            raw_full=drafts[0].text, raw_retrieved=drafts[1].text,
        )
        rewrites = []
        for cand, key in zip(drafts, ("post_full", "post_retrieved")):
            prompt = cfg.prompt_templates["III"].format(format=cfg.format.wording, draft=cand.text)
            out = reference_generate(models.postp, models.postp.encode(prompt), cfg.format.max_tokens)
            if not out.text.strip():
                raise PipelineError(f"postprocess produced empty output for {cand.provenance.value}")
            rewrites.append(AnswerCandidate(out.text, cand.provenance, postprocessed=True))
            fields[key] = out.text
        winner, bundle = reference_select(qa.question, *rewrites, models, stats, cfg.format)
        return generation.PipelineRun(
            **fields, bundle=bundle, final_answer=winner.text,
            winner_provenance=winner.provenance.value,
        )
    except Exception as exc:
        return generation.PipelineRun(**fields, error=f"{type(exc).__name__}: {exc}")


def reference_audit(runs):
    """audit.jsonl bytes as the one-question flow's run_pipeline wrote them."""
    rows = [
        {"qid": run.qid, **bundle_record(run.bundle), "winner_provenance": run.winner_provenance}
        for run in runs if run.bundle is not None
    ]
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode("utf-8")


class TestPipelineConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            make_config(k=0)
        with pytest.raises(ValueError, match="max_output_tokens"):
            make_config(max_output_tokens=0)
        with pytest.raises(ValueError, match="FormatSpec"):
            PipelineConfig(k=1, format=None)

    def test_missing_template_rejected(self):
        templates = {k: v for k, v in DEFAULT_TEMPLATES.items() if k != "III"}
        with pytest.raises(ValueError, match="III"):
            make_config(prompt_templates=templates)

    def test_templates_copied(self):
        templates = dict(DEFAULT_TEMPLATES)
        cfg = make_config(prompt_templates=templates)
        templates["I"] = "mutated"
        assert cfg.prompt_templates["I"] == DEFAULT_TEMPLATES["I"]


class TestBuildVocabulary:
    def test_covers_all_material(self, world):
        vocab = world["vocab"]
        for word in ("topic003", "alpha003", "beta003", "question", "rewrite", "entity"):
            assert vocab.id(word) != 0, word

    def test_deterministic(self, world):
        again = build_vocabulary(world["passages"], world["qa"], world["cfg"])
        assert again.words() == world["vocab"].words()


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

    def test_unknown_passage_id_raises(self, world):
        partial = dict(world["passage_map"])
        del partial["p000"]
        with pytest.raises(PipelineError, match="unknown passage ids"):
            answer_paths(
                world["qa"][0], retrieve(world, world["qa"][0]), world["trained"].full,
                world["trained"].retrieved, partial, world["cfg"],
            )


class TestPostprocess:
    def test_output_respects_token_cap(self, world):
        qa = world["qa"][0]
        _, cand_retr, _ = answer_paths(
            qa, retrieve(world, qa), world["trained"].full, world["trained"].retrieved,
            world["passage_map"], world["cfg"],
        )
        out = postprocess(cand_retr, world["trained"].postp, FORMAT, world["cfg"])
        assert out.postprocessed
        assert out.provenance is cand_retr.provenance
        assert len(out.text.split()) <= FORMAT.max_tokens

    def test_already_postprocessed_rejected(self, world):
        done = AnswerCandidate("alpha000 beta000", Provenance.FULL_KNOWLEDGE, postprocessed=True)
        with pytest.raises(ValueError, match="already"):
            postprocess(done, world["trained"].postp, FORMAT, world["cfg"])

    def test_empty_output_is_error(self, world):
        class SilentModel:
            def encode(self, text):
                return world["vocab"].encode(text)

            def generate_batch(self, prompts, max_tokens):
                return [TokenSeq((), "") for _ in prompts]

        cand = AnswerCandidate("some draft", Provenance.FULL_KNOWLEDGE)
        with pytest.raises(PipelineError, match="empty"):
            postprocess(cand, SilentModel(), FORMAT, world["cfg"])

    @pytest.mark.parametrize("name, template", [
        ("I", "question : {nonexistent}"), ("II", "context : {}"), ("III", "{draft.x}"),
        ("IV", "{question!z}"), ("III", "{draft:d}"), ("I", "{question[1]}"), ("II", "unclosed {"),
    ])
    def test_bad_template_slot_raises(self, name, template):
        # every template fails when the config is built, not per question
        with pytest.raises(ValueError, match=f"prompt template {name} .* cannot be rendered"):
            make_config(prompt_templates={**DEFAULT_TEMPLATES, name: template})

    def test_template_of_real_slots_accepted(self):
        templates = {"I": "{question!r:>2}", "II": "{passages[0]} {question}", "III": "{draft}",
                     "IV": "{answer_1} {answer_2}"}
        assert make_config(prompt_templates=templates).prompt_templates == templates


class TestTrainingEffects:
    def test_trained_drafts_beat_untrained(self, world):
        untrained = ToyLm(world["vocab"])
        trained_drafts = drafts_for_questions(
            world["qa"], world["trained"].retrievals, world["trained"].retrieved,
            world["passage_map"], world["cfg"],
        )
        assert trained_drafts == world["trained"].drafts  # what training decoded
        untrained_drafts = drafts_for_questions(
            world["qa"], world["trained"].retrievals, untrained,
            world["passage_map"], world["cfg"],
        )

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
                world["vocab"], world["cfg"],
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

    def test_failed_audit_write_keeps_previous_file(self, world, tmp_path, monkeypatch):
        audit = tmp_path / "audit.jsonl"
        args = (
            world["qa"], world["models"], world["index"], world["embedder"],
            world["passage_map"], world["stats"], world["cfg"],
        )
        run_pipeline(*args, audit_path=audit)
        before = audit.read_bytes()
        calls = []

        def failing_record(bundle):
            calls.append(bundle)
            if len(calls) > 2:
                raise OSError("disk full")
            return {}

        monkeypatch.setattr(generation, "bundle_record", failing_record)
        with pytest.raises(OSError, match="disk full"):
            run_pipeline(*args, audit_path=audit)
        assert audit.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["audit.jsonl"]

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
            postp=world["models"].postp,
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

    def test_audit_file_one_line_per_scored_run(self, world, tmp_path):
        audit = tmp_path / "audit.jsonl"
        runs = run_pipeline(
            world["qa"], world["models"], world["index"], world["embedder"],
            world["passage_map"], world["stats"], world["cfg"], audit_path=audit,
        )
        lines = audit.read_text().splitlines()
        scored = [run for run in runs if run.bundle is not None]
        assert len(lines) == len(scored)
        first = json.loads(lines[0])
        assert first["qid"] == runs[0].qid
        assert first["route"] in ("RewardPick", "ExternalPick")
        assert first["winner_provenance"] == runs[0].winner_provenance

    def test_audit_rows_project_runs(self, world, tmp_path):
        audit = tmp_path / "audit.jsonl"
        runs = run_pipeline(
            world["qa"], world["models"], world["index"], world["embedder"],
            world["passage_map"], world["stats"], world["cfg"], audit_path=audit,
        )
        rows = [json.loads(line) for line in audit.read_text().splitlines()]
        expected = [
            {"qid": run.qid, **run_record(run)["bundle"],
             "winner_provenance": run.winner_provenance}
            for run in runs if run.bundle is not None
        ]
        assert rows == expected and rows

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

    All 150 of its questions fail: the format model rewrites their
    full-knowledge draft to nothing.  Each draft ends on its beta token,
    whose format-model row ties ``</s>`` with the alpha token; the tie goes
    to the lower id, ``</s>``.
    """
    passages, qa_pairs = synthetic_world(300, 150)
    cfg = PipelineConfig(k=2, format=FORMAT)
    embedder = HashEmbedder(dim=256, seed=0)
    index = DenseIndex.build(passages, embedder)
    vocab = build_vocabulary(passages, qa_pairs, cfg)
    trained = train_pipeline_models(
        passages, qa_pairs, index, embedder, vocab, cfg, steps=50, learning_rate=0.5
    )
    passage_map = {p.id: p for p in passages}
    drafts = drafts_for_questions(qa_pairs, trained.retrievals, trained.retrieved, passage_map, cfg)
    pairs = preference_pairs_from_drafts(qa_pairs, drafts, FORMAT)
    reward = train_reward(ToyRewardModel(learning_rate=0.05), pairs, 100)
    models = PipelineModels(trained.full, trained.retrieved, trained.postp, reward, StubJudge())
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


def assert_equals_reference(args, reference, tmp_path, jobs):
    audit = tmp_path / "audit.jsonl"
    runs = run_pipeline(*args, audit_path=audit, jobs=jobs)
    assert [run_record(run) for run in runs] == [run_record(run) for run in reference]
    assert audit.read_bytes() == reference_audit(reference)


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
    def test_failed_rewrites_keep_partial_fields(
        self, default_world, tmp_path, monkeypatch, jobs, offset
    ):
        questions = default_world["args"][0]
        monkeypatch.setattr(generation, "ANSWER_BLOCK", len(questions) + offset)
        assert_equals_reference(default_world["args"], default_world["reference"], tmp_path, jobs)
        failed = [run for run in default_world["reference"] if run.error]
        assert len(failed) == 150
        for run in failed:
            assert run.error == "PipelineError: postprocess produced empty output for FullKnowledge"
            assert run.raw_full and run.retrieved_ids
            assert run.post_full == run.post_retrieved == "" and run.bundle is None

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("noisy, seed, shows", [
        ("full", 3, "RewardPick"),
        ("full", 1, "PipelineError: postprocess produced empty output for FullKnowledge"),
        ("full", 2, "PipelineError: full-knowledge path failed: candidate text must be non-empty"),
        ("retrieved", 1, "PipelineError: postprocess produced empty output for RetrievedKnowledge"),
        ("retrieved", 2,
         "PipelineError: retrieved-knowledge path failed: candidate text must be non-empty"),
    ])
    def test_distinct_candidates(self, world, tmp_path, monkeypatch, jobs, noisy, seed, shows):
        # an untrained model on one path drafts noise, so the two candidates
        # differ and some drafts or rewrites come out empty
        monkeypatch.setattr(generation, "ANSWER_BLOCK", 3)
        roles = {"full": world["models"].full, "retrieved": world["models"].retrieved}
        size = world["vocab"].size
        noise = np.random.default_rng(seed).normal(0.0, 1.0, (size, size))
        roles[noisy] = ToyLm(world["vocab"], logits=noise)
        models = PipelineModels(
            **roles, postp=world["models"].postp, reward=ParityReward(), judge=StubJudge()
        )
        args = (
            world["qa"], models, world["index"], world["embedder"], world["passage_map"],
            world["stats"], world["cfg"],
        )
        reference = reference_runs(*args)
        assert_equals_reference(args, reference, tmp_path, jobs)
        assert any(run.post_full != run.post_retrieved for run in reference if run.bundle)
        seen = {run.error for run in reference} | {
            run.bundle.route.value for run in reference if run.bundle
        }
        assert shows in seen

    def test_rejected_prompt_fails_only_its_question(self, world, tmp_path, monkeypatch):
        # "???" has no word tokens, so with template I = "{question}" its
        # full-knowledge prompt is empty and the model rejects it
        calls = Counter()
        decode = ToyLm.generate_batch

        def counting_decode(model, prompts, max_tokens):
            calls[id(model)] += 1
            return decode(model, prompts, max_tokens)

        monkeypatch.setattr(ToyLm, "generate_batch", counting_decode)
        monkeypatch.setattr(generation, "ANSWER_BLOCK", 4)  # 9 questions: 3 blocks
        cfg = make_config(prompt_templates={**DEFAULT_TEMPLATES, "I": "{question}"})
        qa = world["qa"]
        stream = [*qa[:3], QaPair("blank", "???", qa[0].answers, qa[0].format), *qa[3:]]
        args = (
            stream, world["models"], world["index"], world["embedder"], world["passage_map"],
            world["stats"], cfg,
        )
        reference = reference_runs(*args)
        assert_equals_reference(args, reference, tmp_path, 1)
        assert reference[3].error == (
            "PipelineError: full-knowledge path failed: generation needs a non-empty prompt"
        )
        assert sum(run.bundle is not None for run in reference) >= len(qa) - 1
        # each role decodes each block once, the rejected prompt's block too
        roles = (world["models"].full, world["models"].retrieved, world["models"].postp)
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
            world["vocab"], world["cfg"], steps=5,
        )
        drafts = drafts_for_questions(
            world["qa"], trained.retrievals, trained.retrieved, world["passage_map"],
            world["cfg"],
        )
        assert embedder.questions == Counter(qa.question for qa in world["qa"])
        assert set(drafts) == {qa.id for qa in world["qa"]}
        assert list(trained.retrievals) == [retrieve(world, qa) for qa in world["qa"]]

    def test_unknown_ids_raise_before_training(self, world, monkeypatch):
        partial = [p for p in world["passages"] if p.id != "p003"]
        trained = []
        monkeypatch.setattr(generation, "train", lambda *a, **kw: trained.append(1))
        with pytest.raises(PipelineError, match="unknown passage ids: \\['p003'\\]"):
            train_pipeline_models(
                partial, world["qa"], world["index"], world["embedder"],
                world["vocab"], world["cfg"],
            )
        assert trained == []
        with pytest.raises(PipelineError, match="unknown passage ids"):
            retrieved_passages([retrieve(world, world["qa"][3])], {})
        with pytest.raises(PipelineError, match="unknown passage ids"):
            drafts_for_questions(
                world["qa"][3:4], [retrieve(world, world["qa"][3])], world["trained"].retrieved,
                {}, world["cfg"],
            )


class TestShortPassages:
    def test_left_out_of_domain_loss(self, world):
        # fewer than 2 tokens: no transition, so training is as without them
        short = [Passage("solo", "zebra"), Passage("punct", "!!!")]
        passages = world["passages"] + short
        vocab = build_vocabulary(passages, world["qa"], world["cfg"])
        index = DenseIndex.build(passages, world["embedder"])
        with_short = train_pipeline_models(
            passages, world["qa"], index, world["embedder"], vocab, world["cfg"], steps=20
        )
        without = train_pipeline_models(
            world["passages"], world["qa"], world["index"], world["embedder"], vocab,
            world["cfg"], steps=20,
        )
        assert with_short.full.logits.tobytes() == without.full.logits.tobytes()


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
