import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from genki import reward
from genki.corpus import AnswerKind, tokenize
from genki.reward import (
    FEATURE_NAMES,
    FormatSpec,
    PreferencePair,
    ToyRewardModel,
    extract_features,
    load_reward_checkpoint,
    pairwise_loss,
    pairwise_loss_grad,
    save_reward_checkpoint,
    train_reward,
)

ENTITY = FormatSpec(AnswerKind.ENTITY, max_tokens=8, description="a short entity name")


class FixedScorer:
    """Reward stub returning a canned score per answer string."""

    def __init__(self, table):
        self.table = table

    def score(self, answer, format, question=""):
        return self.table[answer]


def pair(pos="yes", neg="no"):
    return PreferencePair(pos, neg, ENTITY)


class TestExtractFeatures:
    def test_hand_fixture_row(self):
        feats = extract_features(
            "the entity name", ENTITY, question="which entity name is right"
        )
        # 3 tokens; "entity" and "name" overlap the format description;
        # 2 of the 3 distinct tokens appear in the question
        assert feats.tolist() == [3.0, 2.0, pytest.approx(2 / 3)]

    def test_no_question_gives_zero_fraction(self):
        feats = extract_features("the entity", ENTITY)
        assert feats[2] == 0.0

    def test_empty_answer(self):
        feats = extract_features("", ENTITY, question="anything")
        assert feats.tolist() == [0.0, 0.0, 0.0]

    def test_description_tokenized_once_per_format(self, monkeypatch):
        calls = Counter()

        def counting(text):
            calls[text] += 1
            return tokenize(text)

        monkeypatch.setattr(reward, "tokenize", counting)
        fmt = FormatSpec(AnswerKind.SPAN, max_tokens=8, description="A short Entity name, please")
        rows = [("the entity name", "which entity"), ("short names", ""), ("", "x"),
                ("please please a", "a short question")] * 3
        for answer, question in rows:
            toks = tokenize(answer)
            distinct = set(toks)
            # The per-call feature expression the format cache replaced.
            old = np.array([
                float(len(toks)),
                float(len(distinct & set(tokenize(fmt.description)))),
                len(distinct & set(tokenize(question))) / len(distinct)
                if distinct and question else 0.0,
            ])
            assert extract_features(answer, fmt, question).tobytes() == old.tobytes()
        assert calls[fmt.description] == 1
        assert calls["the entity name"] == 3


class TestPairwiseLoss:
    def test_equal_scores_cost_ln2(self):
        model = FixedScorer({"yes": 1.0, "no": 1.0})
        assert pairwise_loss(model, pair()) == pytest.approx(math.log(2), abs=1e-12)

    def test_margin_one(self):
        model = FixedScorer({"yes": 1.0, "no": 0.0})
        expected = -math.log(1 / (1 + math.exp(-1)))
        assert pairwise_loss(model, pair()) == pytest.approx(expected, abs=1e-12)
        assert pairwise_loss(model, pair()) == pytest.approx(0.31326, abs=1e-5)

    def test_monotone_decreasing_in_margin(self):
        losses = [
            pairwise_loss(FixedScorer({"yes": m, "no": 0.0}), pair()) for m in (0.0, 1.0, 5.0)
        ]
        assert losses[0] > losses[1] > losses[2]

    def test_convexity_bound(self):
        rng = random.Random(3)
        for _ in range(30):
            a, b = rng.uniform(-4, 4), rng.uniform(-4, 4)
            model = FixedScorer({"yes": a, "no": b})
            fwd = pairwise_loss(model, pair())
            rev = pairwise_loss(model, pair("no", "yes"))
            assert fwd + rev >= 2 * math.log(2) - 1e-12
        equal = FixedScorer({"yes": 1.0, "no": 1.0})
        total = pairwise_loss(equal, pair()) + pairwise_loss(equal, pair("no", "yes"))
        assert total == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_identical_answers_rejected(self):
        with pytest.raises(ValueError):
            PreferencePair("same", "same", ENTITY)


class TestPairwiseGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        for _ in range(10):
            weights = rng.normal(size=3)
            model = ToyRewardModel(weights)
            p = PreferencePair(
                "short entity", "a very long winded answer here", ENTITY, question="what entity"
            )
            analytic = pairwise_loss_grad(model, p)
            for i in range(3):
                bumped = weights.copy()
                bumped[i] += h
                up = pairwise_loss(ToyRewardModel(bumped), p)
                bumped[i] -= 2 * h
                down = pairwise_loss(ToyRewardModel(bumped), p)
                fd = (up - down) / (2 * h)
                denom = max(abs(analytic[i]), 1e-8)
                assert abs(fd - analytic[i]) / denom < 1e-4


class TestToyRewardModel:
    def test_zero_weights_score_zero(self):
        model = ToyRewardModel(weights=[0.0, 0.0, 0.0])
        assert model.score("anything at all", ENTITY) == 0.0

    def test_length_weight_prefers_longer(self):
        model = ToyRewardModel(weights=[1.0, 0.0, 0.0])
        assert model.score("one two three", ENTITY) > model.score("one", ENTITY)

    def test_question_scores_question_fraction(self):
        model = ToyRewardModel(weights=[0.0, 0.0, 1.0])
        assert model.score("sky blue", ENTITY, question="is the sky blue") == pytest.approx(1.0)
        assert model.score("sky blue", ENTITY) == 0.0  # no question, no overlap

    def test_bad_weight_shape_rejected(self):
        with pytest.raises(ValueError):
            ToyRewardModel(weights=[1.0, 2.0])


class TestTrainReward:
    def build_pairs(self, rng, n):
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        pairs = []
        for _ in range(n):
            short = " ".join(rng.sample(words, 2))
            long = " ".join(rng.choices(words, k=8))
            if short == long:
                continue
            pairs.append(PreferencePair(short, long, ENTITY))
        return pairs

    def test_learns_short_preference(self):
        rng = random.Random(5)
        train_pairs = self.build_pairs(rng, 20)
        held_out = self.build_pairs(rng, 20)
        model = train_reward(ToyRewardModel(), train_pairs, steps=200, learning_rate=0.05)
        wins = sum(
            1
            for p in held_out
            if model.score(p.positive, p.format) > model.score(p.negative, p.format)
        )
        assert wins / len(held_out) >= 0.8

    def test_training_reduces_mean_loss(self):
        rng = random.Random(6)
        pairs = self.build_pairs(rng, 20)
        before = ToyRewardModel()
        after = train_reward(before, pairs, steps=100, learning_rate=0.05)
        mean_before = sum(pairwise_loss(before, p) for p in pairs) / len(pairs)
        mean_after = sum(pairwise_loss(after, p) for p in pairs) / len(pairs)
        assert mean_after < mean_before

    def test_zero_steps_copies_unchanged(self):
        model = ToyRewardModel(weights=[0.5, -0.25, 1.0])
        copy = train_reward(model, [pair()], steps=0, learning_rate=0.05)
        assert copy is not model
        assert np.array_equal(copy.weights, model.weights)

    def test_deterministic(self):
        pairs = [pair(), PreferencePair("a b", "c d e f", ENTITY)]
        a = train_reward(ToyRewardModel(), pairs, steps=50, learning_rate=0.05)
        b = train_reward(ToyRewardModel(), pairs, steps=50, learning_rate=0.05)
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            train_reward(ToyRewardModel(), [], steps=1, learning_rate=0.05)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_step_feature_loop(self, seed):
        """Features computed once give the weights of recomputing them every step."""
        rng = random.Random(seed)
        words = ["alpha", "beta", "gamma", "a", "short", "entity", "name", "which"]
        formats = [ENTITY, FormatSpec(AnswerKind.SENTENCE, max_tokens=20)]
        pairs = []
        while len(pairs) < 30:
            pos, neg = (" ".join(rng.choices(words, k=rng.randint(0, 9))) for _ in range(2))
            question = " ".join(rng.choices(words, k=rng.randint(0, 5)))
            if pos != neg:
                pairs.append(PreferencePair(pos, neg, rng.choice(formats), question))
        start = ToyRewardModel(weights=np.random.default_rng(seed).normal(0.0, 0.01, 3))
        rate = rng.choice([0.05, 0.3, 1.0])
        trained = train_reward(start, pairs, steps=60, learning_rate=rate)
        reference = reference_train_reward(start, pairs, 60, rate)
        assert trained.weights.tobytes() == reference.tobytes()


def reference_train_reward(model, pairs, steps, rate):
    """The loop train_reward replaces: every step re-extracts every pair's features."""
    weights = model.weights.copy()
    for _ in range(steps):
        grad = np.zeros_like(weights)
        for pair in pairs:
            delta = extract_features(pair.positive, pair.format, pair.question) - extract_features(
                pair.negative, pair.format, pair.question
            )
            margin = float(weights @ delta)
            grad += -np.exp(-np.logaddexp(0.0, margin)) * delta
        grad /= len(pairs)
        weights = weights - rate * grad
    return weights


class TestRewardCheckpoint:
    def test_round_trip(self, tmp_path):
        model = ToyRewardModel(weights=[0.25, -1.5, 3.0])
        path = tmp_path / "reward.json"
        save_reward_checkpoint(model, path)
        loaded = load_reward_checkpoint(path)
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert json.loads(path.read_text()) == {
            "schema_version": 1, "features": list(FEATURE_NAMES), "weights": [0.25, -1.5, 3.0],
        }

    def test_seed_of_earlier_files_ignored(self, tmp_path):
        # files written while the weights started random carry the seed that drew them
        path = tmp_path / "reward.json"
        path.write_text(json.dumps({"schema_version": 1, "features": list(FEATURE_NAMES),
                                    "weights": [0.25, -1.5, 3.0], "seed": 7}))
        assert load_reward_checkpoint(path).weights.tolist() == [0.25, -1.5, 3.0]

    def test_new_model_starts_at_zero(self):
        assert ToyRewardModel().weights.tolist() == [0.0, 0.0, 0.0]

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "reward.json"
        path.write_text('{"schema_version": 99, "features": [], "weights": [0, 0, 0]}')
        with pytest.raises(ValueError, match="schema"):
            load_reward_checkpoint(path)

    def test_feature_names_checked(self, tmp_path):
        path = tmp_path / "reward.json"
        path.write_text(
            '{"schema_version": 1, "features": ["other"], "weights": [0.0, 0.0, 0.0]}'
        )
        with pytest.raises(ValueError, match="feature"):
            load_reward_checkpoint(path)
