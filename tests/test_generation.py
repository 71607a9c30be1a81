"""Tests for the end-to-end answer pipeline.

A small synthetic world is trained once per module; individual tests probe
draft generation, the format stage, selection routing, per-question fault
isolation, and training effects (draft recall, format-stage exactness).
"""

import json
import random
from collections import Counter

import pytest

from genki.corpus import AnswerKind, Passage, QaPair, build_stats
from genki.ensemble import Choice, Provenance, AnswerCandidate, StubJudge
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
    drafts = drafts_for_questions(
        qa_pairs, trained.retrievals, trained.retrieved, {p.id: p for p in passages}, cfg
    )
    pairs = preference_pairs_from_drafts(qa_pairs, drafts, FORMAT)
    reward = train_reward(ToyRewardModel(seed=0), pairs, 100) if pairs else ToyRewardModel(seed=0)
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

            def generate(self, prompt, max_tokens):
                from genki.corpus import TokenSeq
                return TokenSeq((), "")

        cand = AnswerCandidate("some draft", Provenance.FULL_KNOWLEDGE)
        with pytest.raises(PipelineError, match="empty"):
            postprocess(cand, SilentModel(), FORMAT, world["cfg"])

    def test_bad_template_slot_raises(self, world):
        templates = dict(DEFAULT_TEMPLATES)
        templates["III"] = "draft : {nonexistent}"
        cfg = make_config(prompt_templates=templates)
        cand = AnswerCandidate("some draft", Provenance.FULL_KNOWLEDGE)
        with pytest.raises(ValueError, match="unknown slot"):
            postprocess(cand, world["trained"].postp, FORMAT, cfg)


class TestTrainingEffects:
    def test_trained_drafts_beat_untrained(self, world):
        untrained = ToyLm(world["vocab"], seed=0)
        trained_drafts = drafts_for_questions(
            world["qa"], world["trained"].retrievals, world["trained"].retrieved,
            world["passage_map"], world["cfg"],
        )
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
            generation._run_one(
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


class CountingEmbedder:
    """An embedder that counts how often each question is embedded."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.questions = Counter()

    def embed_question(self, text):
        self.questions[text] += 1
        return self.inner.embed_question(text)

    def embed_passage(self, text):
        return self.inner.embed_passage(text)


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
