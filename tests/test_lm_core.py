import base64
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from genki import generation, lm_core
from genki.corpus import AnswerKind, TokenSeq, Vocabulary
from genki.generation import PipelineConfig, build_vocabulary, train_pipeline_models
from genki.lm_core import (
    CheckpointSchemaError,
    LossWeights,
    ToyLm,
    TrainExample,
    load_checkpoint,
    loss_combined,
    loss_f,
    loss_r,
    save_checkpoint,
    train,
)
from genki.retriever import DenseIndex, HashEmbedder
from genki.reward import FormatSpec
from genki.synth import synthetic_world

V4 = Vocabulary(["<unk>", "</s>", "a", "b"])
V6 = Vocabulary(["<unk>", "</s>", "a", "b", "c", "d"])


def uniform_model(vocab):
    return ToyLm(vocab)


def certain_model(vocab, transitions):
    """Logits so large on the given (prev, nxt) pairs that P rounds to one."""
    pairs = sorted((vocab.id(prev), vocab.id(nxt)) for prev, nxt in transitions)
    lengths = np.bincount([prev for prev, _ in pairs], minlength=vocab.size)
    return ToyLm.from_rows(
        vocab, np.zeros(vocab.size), lengths, [nxt for _, nxt in pairs], [1e9] * len(pairs)
    )


def seq(vocab, text):
    return vocab.encode(text)


def pack(values, dtype):
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


class TestLossWeights:
    def test_defaults_valid(self):
        w = LossWeights()
        assert w.lambda1 > w.lambda2 > 0

    @pytest.mark.parametrize("l1,l2", [(1.0, 1.0), (0.5, 1.0), (1.0, 0.0), (-1.0, -2.0)])
    def test_invalid_rejected(self, l1, l2):
        with pytest.raises(ValueError):
            LossWeights(l1, l2)


class TestLossF:
    def test_uniform_three_token_answer(self):
        model = uniform_model(V4)
        batch = [TrainExample(seq(V4, "a"), seq(V4, "a b a"))]
        assert loss_f(model, batch) == pytest.approx(3 * math.log(4), abs=1e-9)

    def test_certain_model_zero_loss(self):
        model = certain_model(V4, [("a", "b"), ("b", "a")])
        batch = [TrainExample(seq(V4, "a"), seq(V4, "b a b"))]
        assert loss_f(model, batch) == pytest.approx(0.0, abs=1e-9)

    def test_additivity(self, dense_model):
        rng = np.random.default_rng(0)
        model = dense_model(V4, rng.normal(size=(4, 4)))
        ex = TrainExample(seq(V4, "b"), seq(V4, "a a"))
        assert loss_f(model, [ex, ex]) == pytest.approx(2 * loss_f(model, [ex]), abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            loss_f(uniform_model(V4), [])

    def test_empty_answer_rejected_at_construction(self):
        with pytest.raises(ValueError):
            TrainExample(seq(V4, "a"), TokenSeq((), ""))


class TestLossR:
    def test_uniform_five_token_passage(self):
        model = uniform_model(V4)
        passage = seq(V4, "a b a b a")
        assert len(passage) == 5
        assert loss_r(model, [passage]) == pytest.approx(4 * math.log(4), abs=1e-9)

    def test_matching_cycle_model_zero(self):
        model = certain_model(V4, [("a", "b"), ("b", "a")])
        assert loss_r(model, [seq(V4, "a b a b")]) == pytest.approx(0.0, abs=1e-9)

    def test_permutation_invariant(self, dense_model):
        rng = np.random.default_rng(1)
        model = dense_model(V6, rng.normal(size=(6, 6)))
        passages = [seq(V6, "a b c"), seq(V6, "c d"), seq(V6, "b b a")]
        shuffled = passages[::-1]
        assert loss_r(model, passages) == pytest.approx(loss_r(model, shuffled), abs=1e-12)

    def test_single_token_passage_rejected(self):
        with pytest.raises(ValueError):
            loss_r(uniform_model(V4), [seq(V4, "a")])

    def test_no_passages_is_zero(self):
        assert loss_r(uniform_model(V4), []) == 0.0


class TestLossCombined:
    def test_is_weighted_sum(self, dense_model):
        rng = np.random.default_rng(2)
        model = dense_model(V6, rng.normal(size=(6, 6)))
        passages = [seq(V6, "a b c d")]
        batch = [TrainExample(seq(V6, "c"), seq(V6, "d a"))]
        w = LossWeights(1.0, 0.5)
        expected = 1.0 * loss_r(model, passages) + 0.5 * loss_f(model, batch)
        assert loss_combined(model, passages, batch, w) == pytest.approx(expected, abs=1e-12)

    def test_scaling_both_weights_scales_loss(self, dense_model):
        rng = np.random.default_rng(3)
        model = dense_model(V6, rng.normal(size=(6, 6)))
        passages = [seq(V6, "a c b")]
        batch = [TrainExample(seq(V6, "b"), seq(V6, "c"))]
        base = loss_combined(model, passages, batch, LossWeights(1.0, 0.5))
        tripled = loss_combined(model, passages, batch, LossWeights(3.0, 1.5))
        assert tripled == pytest.approx(3 * base, rel=1e-12)


class TestChainOracle:
    """Losses agree with an explicit probability-chain computed from scratch."""

    @staticmethod
    def row_probs(logits, i):
        row = logits[i]
        m = max(float(v) for v in row)
        exps = [math.exp(float(v) - m) for v in row]
        s = sum(exps)
        return [e / s for e in exps]

    def chain_nll(self, logits, token_ids):
        total = 0.0
        for prev, nxt in zip(token_ids, token_ids[1:]):
            total -= math.log(self.row_probs(logits, prev)[nxt])
        return total

    def test_losses_match_oracle(self, dense_model, dense_logits):
        rng = np.random.default_rng(4)
        pyrng = random.Random(4)
        words = ["a", "b", "c", "d", "e", "f"]
        vocab = Vocabulary(["<unk>", "</s>"] + words)
        for _ in range(25):
            model = dense_model(vocab, rng.normal(size=(vocab.size, vocab.size)))
            passages = []
            for _ in range(pyrng.randint(0, 3)):
                length = pyrng.randint(2, 8)
                passages.append(seq(vocab, " ".join(pyrng.choice(words) for _ in range(length))))
            batch = []
            for _ in range(pyrng.randint(1, 3)):
                x = seq(vocab, " ".join(pyrng.choice(words) for _ in range(pyrng.randint(1, 4))))
                a = seq(vocab, " ".join(pyrng.choice(words) for _ in range(pyrng.randint(1, 6))))
                batch.append(TrainExample(x, a))

            oracle_r = sum(self.chain_nll(dense_logits(model), p.tokens) for p in passages)
            oracle_f = sum(
                self.chain_nll(dense_logits(model), (ex.x.tokens[-1],) + ex.answer.tokens)
                for ex in batch
            )
            w = LossWeights(1.0, 0.5)
            assert loss_r(model, passages) == pytest.approx(oracle_r, abs=1e-9)
            assert loss_f(model, batch) == pytest.approx(oracle_f, abs=1e-9)
            assert loss_combined(model, passages, batch, w) == pytest.approx(
                oracle_r + 0.5 * oracle_f, abs=1e-9
            )


class TestMaskedCondLogprob:
    """A masked slot is scored as the conditional continuation logprob_cond."""

    def test_uniform_two_token_target(self):
        model = uniform_model(V4)
        got = model.logprob_cond(seq(V4, "a"), seq(V4, "b a"))
        assert got == pytest.approx(2 * math.log(1 / 4), abs=1e-9)

    def test_certain_scorer_zero(self):
        model = certain_model(V4, [("a", "b")])
        assert model.logprob_cond(seq(V4, "a"), seq(V4, "b")) == pytest.approx(0.0)

    def test_longer_target_never_higher(self, dense_model):
        rng = np.random.default_rng(5)
        model = dense_model(V6, rng.normal(size=(6, 6)))
        context = seq(V6, "a")
        full = seq(V6, "b c d a c")
        prev = 0.0
        for cut in range(1, len(full.tokens) + 1):
            part = TokenSeq(full.tokens[:cut], "")
            lp = model.logprob_cond(context, part)
            assert lp <= prev + 1e-12
            prev = lp

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            uniform_model(V4).logprob_cond(seq(V4, "a"), TokenSeq((), ""))


class TestGradient:
    def test_matches_central_finite_differences(self, dense_model, loss_combined_grad):
        rng = np.random.default_rng(6)
        table = rng.normal(size=(6, 6))
        model = dense_model(V6, table)
        passages = [seq(V6, "a b c d a"), seq(V6, "d c")]
        batch = [
            TrainExample(seq(V6, "a b"), seq(V6, "c d")),
            TrainExample(seq(V6, "d"), seq(V6, "a")),
        ]
        w = LossWeights(1.0, 0.5)
        analytic = loss_combined_grad(model, passages, batch, w)
        h = 1e-5
        worst = 0.0
        for i in range(6):
            for j in range(6):
                bumped = table.copy()
                bumped[i, j] += h
                up = loss_combined(dense_model(V6, bumped), passages, batch, w)
                bumped[i, j] -= 2 * h
                down = loss_combined(dense_model(V6, bumped), passages, batch, w)
                fd = (up - down) / (2 * h)
                denom = max(abs(analytic[i, j]), 1e-8)
                worst = max(worst, abs(fd - analytic[i, j]) / denom)
        assert worst < 1e-4

    def test_zero_rows_have_zero_gradient(self, loss_combined_grad):
        model = uniform_model(V6)
        passages = [seq(V6, "a b")]
        batch = [TrainExample(seq(V6, "a"), seq(V6, "b"))]
        grad = loss_combined_grad(model, passages, batch, LossWeights())
        # rows never used as a predecessor stay untouched
        for unused in ("c", "d"):
            assert not grad[V6.id(unused)].any()


class TestTrain:
    def fixture(self):
        rng = random.Random(12)
        words = ["a", "b", "c", "d"]
        vocab = V6
        passages = []
        for _ in range(20):
            length = rng.randint(3, 7)
            passages.append(seq(vocab, " ".join(rng.choice(words) for _ in range(length))))
        batch = [TrainExample(seq(vocab, "a b"), seq(vocab, "c d"))]
        return vocab, passages, batch

    def test_domain_loss_drops(self):
        vocab, passages, batch = self.fixture()
        model = ToyLm(vocab)
        trained = train(model, passages, batch, LossWeights(), steps=50, learning_rate=0.1)
        assert loss_r(trained, passages) < loss_r(model, passages)
        assert trained.step == 50
        assert model.step == 0  # input model untouched

    def test_loss_non_increasing_at_small_rate(self):
        vocab, passages, batch = self.fixture()
        w = LossWeights()
        model = ToyLm(vocab)
        losses = [loss_combined(model, passages, batch, w)]
        current = model
        for _ in range(30):
            current = train(current, passages, batch, w, steps=1, learning_rate=0.02)
            losses.append(loss_combined(current, passages, batch, w))
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_steps_zero_rejected(self):
        vocab, passages, batch = self.fixture()
        with pytest.raises(ValueError):
            train(ToyLm(vocab), passages, batch, LossWeights(), steps=0, learning_rate=0.1)

    def test_empty_batch_rejected(self):
        vocab, passages, _ = self.fixture()
        with pytest.raises(ValueError):
            train(ToyLm(vocab), passages, [], LossWeights(), steps=1, learning_rate=0.1)

    def test_training_deterministic_bit_exact(self, dense_logits):
        vocab, passages, batch = self.fixture()
        a = train(ToyLm(vocab), passages, batch, LossWeights(), 25, 0.1)
        b = train(ToyLm(vocab), passages, batch, LossWeights(), 25, 0.1)
        assert dense_logits(a).tobytes() == dense_logits(b).tobytes()

    def test_divergence_raises(self):
        vocab, passages, batch = self.fixture()
        model = ToyLm(vocab)
        with pytest.raises(ValueError, match="diverged"):
            train(model, passages, batch, LossWeights(), steps=5, learning_rate=1e308)


def dense_reference_train(table, passages, batch, w, steps, rate):
    """Every row, every step: the dense V x V descent loop the fast path must match."""
    counts = np.zeros(table.shape)
    for p in passages:
        for prev, nxt in zip(p.tokens, p.tokens[1:]):
            counts[prev, nxt] += w.lambda1
    for ex in batch:
        prev = ex.x.tokens[-1]
        for tok in ex.answer.tokens:
            counts[prev, tok] += w.lambda2
            prev = tok
    row_totals = counts.sum(axis=1)
    logits = table.copy()
    for _ in range(steps):
        shifted = logits - logits.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        softmax = expd / expd.sum(axis=1, keepdims=True)
        logits = logits - rate * (softmax * row_totals[:, None] - counts)
    return logits


def oracle_log_softmax(row):
    m = float(row.max())
    return row - (m + np.log(np.exp(row - m).sum()))


# Sparse training sums each row's normaliser as (V - k) * e^d plus its k
# entries, the dense loop over all V columns; only rounding differs.
TRAIN_TOL = 1e-12


def assert_sparse_matches_dense(trained, table, reference):
    """Entries and defaults within TRAIN_TOL of the dense loop, greedy successors equal.

    The dense loop keeps a row's unobserved columns equal bit for bit,
    which is what lets one default logit stand for them.
    """
    free = np.ones(reference.shape, bool)
    free[np.repeat(np.arange(len(reference)), trained.lengths), trained.cols] = False
    for row, cols in zip(reference, free):
        assert len(set(row[cols].tolist())) <= 1
    assert np.abs(table - reference).max() <= TRAIN_TOL
    assert trained._greedy_next.tolist() == reference.argmax(axis=1).tolist()


class TestBitExactOracles:
    """The sparse paths reproduce the dense arithmetic bit for bit on a dense
    table (every row full), and within TRAIN_TOL from uniform init."""

    VOCAB = Vocabulary(["<unk>", "</s>"] + [f"w{i}" for i in range(14)])

    def world(self):
        rng = random.Random(21)
        used = [f"w{i}" for i in range(8)]  # w8..w13 never precede a token
        passages = [
            seq(self.VOCAB, " ".join(rng.choice(used) for _ in range(rng.randint(2, 9))))
            for _ in range(15)
        ]
        batch = [
            TrainExample(seq(self.VOCAB, "w1 w2"), seq(self.VOCAB, "w3 w4")),
            TrainExample(seq(self.VOCAB, "w9"), seq(self.VOCAB, "w5")),
        ]
        return passages, batch

    @pytest.mark.parametrize("seed,rate", [(0, 0.1), (5, 0.5), (9, 2.0)])
    def test_train_matches_dense_loop_with_idle_rows(self, seed, rate, dense_model, dense_logits):
        passages, batch = self.world()
        w = LossWeights(1.0, 0.5)
        size = self.VOCAB.size
        table = np.random.default_rng(seed).normal(0.0, 0.3, (size, size))
        trained = train(dense_model(self.VOCAB, table), passages, batch, w, 40, rate)
        reference = dense_reference_train(table, passages, batch, w, 40, rate)
        assert dense_logits(trained).tobytes() == reference.tobytes()
        idle = self.VOCAB.id("w12")
        assert dense_logits(trained)[idle].tobytes() == table[idle].tobytes()

    def test_train_matches_dense_loop_from_uniform_init(self, dense_logits):
        passages, batch = self.world()
        w = LossWeights(2.0, 0.25)
        model = ToyLm(self.VOCAB)
        trained = train(model, passages, batch, w, 60, 0.5)
        reference = dense_reference_train(dense_logits(model), passages, batch, w, 60, 0.5)
        assert_sparse_matches_dense(trained, dense_logits(trained), reference)

    def test_repeated_training_continues_the_dense_loop(self, dense_model, dense_logits):
        passages, batch = self.world()
        w = LossWeights()
        size = self.VOCAB.size
        table = np.random.default_rng(2).normal(0.0, 0.01, (size, size))
        once = train(dense_model(self.VOCAB, table), passages, batch, w, 7, 0.3)
        twice = train(once, passages, batch, w, 5, 0.3)
        assert twice.step == 12
        reference = dense_reference_train(table, passages, batch, w, 12, 0.3)
        assert dense_logits(twice).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("size", [6, 37, 507])
    def test_token_logprob_matches_row_log_softmax(self, size, dense_model):
        vocab = Vocabulary(["<unk>", "</s>"] + [f"w{i}" for i in range(size - 2)])
        rng = np.random.default_rng(size)
        logits = rng.normal(0.0, 3.0, (size, size))
        model = dense_model(vocab, logits)
        rows = range(size) if size < 100 else rng.integers(0, size, 25)
        for prev in rows:
            expected = oracle_log_softmax(logits[prev])
            cols = range(size) if size < 100 else rng.integers(0, size, 40)
            for nxt in cols:
                assert model.token_logprob(int(prev), int(nxt)) == float(expected[nxt])

    def test_logprob_cond_is_the_left_to_right_token_logprob_sum(self):
        # the loop logprob_cond inlines, kept as its reference; w8..w13 rows
        # hold no entry, so their default column is read too
        passages, batch = self.world()
        model = train(ToyLm(self.VOCAB), passages, batch, LossWeights(), 20, 0.5)
        rng = random.Random(4)
        for _ in range(300):
            context = TokenSeq(tuple(rng.randrange(self.VOCAB.size)
                                     for _ in range(rng.randint(1, 4))), "")
            target = TokenSeq(tuple(rng.randrange(self.VOCAB.size)
                                    for _ in range(rng.randint(1, 12))), "")
            expected, prev = 0.0, context.tokens[-1]
            for tok in target.tokens:
                expected += model.token_logprob(prev, tok)
                prev = tok
            assert model.logprob_cond(context, target).hex() == expected.hex()

    def test_generate_follows_row_argmax(self, dense_model):
        vocab = Vocabulary(["<unk>", "</s>"] + [f"w{i}" for i in range(10)])
        rng = np.random.default_rng(8)
        logits = rng.integers(0, 3, (12, 12)).astype(float)  # many ties
        model = dense_model(vocab, logits)
        for start in range(12):
            expected, prev = [], start
            for _ in range(9):
                prev = int(np.argmax(logits[prev]))
                if prev == vocab.eos_id:
                    break
                expected.append(prev)
            assert list(model.generate(TokenSeq((start,), ""), 9).tokens) == expected

    def test_table_is_a_read_only_copy(self, dense_model):
        logits = np.zeros((V4.size, V4.size))
        model = dense_model(V4, logits)
        logits[2, 3] = 50.0  # the caller's array is not the model's rows
        assert model.token_logprob(2, 3) == pytest.approx(-math.log(4), abs=1e-12)
        for rows in (model.default, model.lengths, model.cols, model.vals):
            with pytest.raises(ValueError):
                rows[0] = 1


class TestSparseRows:
    """Sparse training from uniform init against the dense loop, the tie
    rule, and a vocabulary far too large for a dense table."""

    def test_train_benchmark_world_roles(self, monkeypatch, dense_logits):
        # the 120/60 world and settings of the train benchmark
        passages, qa_pairs = synthetic_world(120, 60)
        cfg = PipelineConfig(k=2, format=FormatSpec(AnswerKind.ENTITY, 8), max_output_tokens=12)
        vocab = build_vocabulary(passages, qa_pairs)
        embedder = HashEmbedder(dim=1024, seed=0)
        index = DenseIndex.build(passages, embedder)
        calls = []

        def recording_train(model, passages, batch, w, steps, learning_rate):
            trained = train(model, passages, batch, w, steps, learning_rate)
            calls.append((model, passages, batch, w, steps, learning_rate, trained))
            return trained

        monkeypatch.setattr(generation, "train", recording_train)
        train_pipeline_models(passages, qa_pairs, index, embedder, vocab, cfg, 60, 0.5)
        assert len(calls) == 2
        for model, passages, batch, w, steps, rate, trained in calls:
            assert (steps, rate) == (60, 0.5)
            assert trained.lengths.sum() < vocab.size  # a few hundred of 495 x 495 cells
            reference = dense_reference_train(dense_logits(model), passages, batch, w, steps, rate)
            assert_sparse_matches_dense(trained, dense_logits(trained), reference)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_worlds(self, seed, dense_logits):
        rng = random.Random(seed)
        words = [f"w{i}" for i in range(rng.randint(3, 30))]
        vocab = Vocabulary(["<unk>", "</s>"] + words)

        def text(low, high):
            return " ".join(rng.choice(words) for _ in range(rng.randint(low, high)))

        passages = [seq(vocab, text(2, 9)) for _ in range(rng.randint(0, 12))]
        batch = [TrainExample(seq(vocab, text(1, 4)), seq(vocab, text(1, 5)))
                 for _ in range(rng.randint(1, 6))]
        lam1 = rng.uniform(0.6, 2.0)
        w = LossWeights(lam1, rng.uniform(0.1, lam1 * 0.9))
        rate = rng.choice([0.05, 0.2, 0.5])
        steps = rng.randint(1, 60)
        trained = train(ToyLm(vocab), passages, batch, w, steps, rate)
        reference = dense_reference_train(
            dense_logits(ToyLm(vocab)), passages, batch, w, steps, rate
        )
        assert_sparse_matches_dense(trained, dense_logits(trained), reference)
        # a second run trains on the union of the entries and new transitions
        more = [TrainExample(seq(vocab, text(1, 3)), seq(vocab, text(1, 4)))]
        again = train(trained, passages[:2], more, w, 5, rate)
        reference = dense_reference_train(dense_logits(trained), passages[:2], more, w, 5, rate)
        assert_sparse_matches_dense(again, dense_logits(again), reference)

    def test_full_rows_ignore_their_default(self, dense_model, dense_logits):
        # a dense table stores every cell; its rows' default logit (0) is
        # far above every logit and must not enter the normaliser
        logits = np.full((V4.size, V4.size), -1000.0)
        logits[2, 3] = -999.0
        model = dense_model(V4, logits)
        assert model.token_logprob(0, 1) == pytest.approx(-math.log(4), abs=1e-12)
        assert model._greedy_next.tolist() == [0, 0, 3, 0]
        passages, batch = [seq(V4, "a b a")], [TrainExample(seq(V4, "b"), seq(V4, "a"))]
        trained = train(model, passages, batch, LossWeights(), 10, 0.5)
        reference = dense_reference_train(logits, passages, batch, LossWeights(), 10, 0.5)
        assert dense_logits(trained).tobytes() == reference.tobytes()

    def test_row_without_entries_goes_to_unk(self):
        model = ToyLm(V6)
        assert model._greedy_next.tolist() == [0] * V6.size
        assert model.generate(seq(V6, "a"), 3).tokens == (0, 0, 0)

    @pytest.mark.parametrize(
        "default,cols,vals,successor",
        [
            (1.0, [0, 1, 3], [0.5, 0.5, 0.5], 2),  # default beats every entry
            (1.0, [2, 3], [0.5, 0.9], 0),
            (0.5, [0, 1, 3], [0.1, 0.1, 0.5], 2),  # default ties the best entry
            (0.5, [0, 1, 2], [0.5, 0.1, 0.1], 0),
            (0.5, [1, 4], [0.9, 0.9], 1),  # the best entries tie each other
            (-1.0, [0, 1, 2, 3, 4], [0.0, 0.0, 0.0, 0.0, 0.0], 0),
        ],
    )
    def test_tie_rule(self, default, cols, vals, successor, dense_logits):
        size = V6.size
        lengths = np.zeros(size, int)
        lengths[2] = len(cols)
        model = ToyLm.from_rows(V6, np.full(size, default), lengths, cols, vals)
        assert model._greedy_next[2] == successor
        assert model._greedy_next.tolist() == dense_logits(model).argmax(axis=1).tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_rows_decode_and_score_like_dense(self, seed, dense_logits):
        rng = np.random.default_rng(seed)
        size = V6.size
        present = rng.random((size, size)) < 0.5
        lengths = present.sum(axis=1)
        cols = np.nonzero(present)[1]
        values = rng.integers(-2, 3, len(cols)).astype(float)  # many ties
        model = ToyLm.from_rows(V6, rng.integers(-2, 3, size).astype(float), lengths, cols, values)
        table = dense_logits(model)
        assert model._greedy_next.tolist() == table.argmax(axis=1).tolist()
        for prev in range(size):
            expected = oracle_log_softmax(table[prev])
            for nxt in range(size):
                assert model.token_logprob(prev, nxt) == pytest.approx(expected[nxt], abs=1e-12)

    def test_fifty_thousand_word_vocabulary(self):
        rng = random.Random(50)
        vocab = Vocabulary(["<unk>", "</s>"] + [f"w{i:05d}" for i in range(49_998)])
        words = vocab.words()[2:]
        passages = [seq(vocab, " ".join(rng.choices(words, k=12))) for _ in range(1_000)]
        batch = [TrainExample(seq(vocab, " ".join(rng.choices(words, k=3))),
                              seq(vocab, " ".join(rng.choices(words, k=2)))) for _ in range(200)]
        tracemalloc.start()
        try:
            trained = train(ToyLm(vocab), passages, batch, LossWeights(), 60, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 12 MB measured; one dense 50,000 x 50,000 float64 table is 20 GB
        assert peak < 32 * 2**20
        transitions = {pair for p in passages for pair in zip(p.tokens, p.tokens[1:])}
        for ex in batch:
            chain = ex.x.tokens[-1:] + ex.answer.tokens
            transitions.update(zip(chain, chain[1:]))
        assert trained.lengths.sum() == len(transitions)
        assert loss_r(trained, passages[:5]) < loss_r(ToyLm(vocab), passages[:5])


class TestGenerate:
    def test_follows_argmax_path(self):
        model = certain_model(V4, [("a", "b"), ("b", "a")])
        out = model.generate(seq(V4, "a"), 4)
        assert out.text == "b a b a"

    def test_stops_before_eos(self, dense_model):
        logits = np.zeros((V4.size, V4.size))
        logits[V4.id("a"), V4.id("b")] = 5.0
        logits[V4.id("b"), V4.eos_id] = 5.0
        model = dense_model(V4, logits)
        out = model.generate(seq(V4, "a"), 10)
        assert out.text == "b"

    def test_tie_resolves_to_lowest_id(self):
        model = uniform_model(V4)
        out = model.generate(seq(V4, "a"), 3)
        assert list(out.tokens) == [0, 0, 0]

    def test_zero_budget(self):
        model = uniform_model(V4)
        assert model.generate(seq(V4, "a"), 0).tokens == ()

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            uniform_model(V4).generate(TokenSeq((), ""), 3)


def reference_greedy(table, vocab, prompt, max_tokens):
    """The per-token loop generate_batch replaces: argmax of the row, until </s>."""
    out, prev = [], prompt.tokens[-1]
    for _ in range(max_tokens):
        prev = int(np.argmax(table[prev]))
        if prev == vocab.eos_id:
            break
        out.append(prev)
    return TokenSeq(tuple(out), vocab.decode(out))


class TestGenerateBatch:
    """The block decoder equals one-prompt generate and the per-token loop."""

    VOCAB = Vocabulary(["<unk>", "</s>"] + [f"w{i}" for i in range(10)])

    def check(self, model, table, prompts, max_tokens):
        batch = model.generate_batch(prompts, max_tokens)
        assert batch == [model.generate(p, max_tokens) for p in prompts]
        assert batch == [reference_greedy(table, model.vocab, p, max_tokens) for p in prompts]
        assert all(type(t) is int for out in batch for t in out.tokens)
        return batch

    def test_argmax_ties(self, dense_model):
        rng = np.random.default_rng(8)
        table = rng.integers(0, 3, (12, 12)).astype(float)
        prompts = [TokenSeq((start,), "") for start in range(12)] * 2
        self.check(dense_model(self.VOCAB, table), table, prompts, 9)
        uniform = uniform_model(V4), np.zeros((V4.size, V4.size))
        assert self.check(*uniform, [seq(V4, "a"), seq(V4, "b")], 3)[0].tokens == (0, 0, 0)

    def test_eos_at_step_zero(self, dense_model):
        logits = np.zeros((V4.size, V4.size))
        logits[V4.id("a"), V4.eos_id] = 5.0  # a -> </s> at once
        logits[V4.id("b"), V4.id("a")] = 5.0  # b -> a -> </s>
        model = dense_model(V4, logits)
        out = self.check(model, logits, [seq(V4, "a"), seq(V4, "b"), seq(V4, "b a")], 5)
        assert [o.text for o in out] == ["", "a", ""]

    def test_zero_max_tokens(self, dense_logits):
        model = certain_model(V4, [("a", "b"), ("b", "a")])
        out = self.check(model, dense_logits(model), [seq(V4, "a"), seq(V4, "b a b")], 0)
        assert out == [TokenSeq((), ""), TokenSeq((), "")]

    def test_prompts_of_different_lengths(self, dense_model):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(12, 12))
        model = dense_model(self.VOCAB, table)
        words = self.VOCAB.words()[2:]
        prompts = [
            self.VOCAB.encode(" ".join(rng.choice(words, size=n))) for n in (1, 7, 2, 30, 1, 4)
        ]
        for max_tokens in (1, 5, 40):
            self.check(model, table, prompts, max_tokens)

    def test_empty_batch(self):
        assert uniform_model(V4).generate_batch([], 4) == []

    def test_bad_input_rejected(self):
        model = uniform_model(V4)
        with pytest.raises(ValueError, match="non-empty prompt"):
            model.generate_batch([seq(V4, "a"), TokenSeq((), "")], 3)
        with pytest.raises(ValueError, match="max_tokens"):
            model.generate_batch([seq(V4, "a")], -1)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path, dense_model, dense_logits):
        rng = np.random.default_rng(9)
        model = dense_model(V6, rng.normal(size=(6, 6)))
        model.step = 17
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert dense_logits(loaded).tobytes() == dense_logits(model).tobytes()
        assert loaded.vocab.words() == V6.words()
        assert loaded.step == 17
        context, target = seq(V6, "a b"), seq(V6, "c d")
        assert loaded.logprob_cond(context, target) == model.logprob_cond(context, target)

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{nope")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"vocab": ["<unk>", "</s>"]}')
        with pytest.raises(ValueError, match="missing"):
            load_checkpoint(path)

    def payload(self):
        rows = (
            np.array([0.0, -0.5, 0.25, 1.0, -2.0, 0.0]),  # default logit per row
            np.array([0, 0, 2, 1, 3, 0]),  # entries per row
            np.array([1, 4, 0, 2, 3, 5]),  # their columns
            np.random.default_rng(13).normal(size=6),  # their logits
        )
        return rows, {
            "schema_version": 3,
            "vocab": V6.words(),
            "step": 40,
            "default": pack(rows[0], "<f8"),
            "lengths": pack(rows[1], "<i4"),
            "cols": pack(rows[2], "<i4"),
            "vals": pack(rows[3], "<f8"),
        }

    def test_written_format_is_version_3(self, tmp_path, dense_logits):
        rows, expected = self.payload()
        model = ToyLm.from_rows(V6, *rows)
        model.step = 40
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        assert json.loads(path.read_text()) == expected
        loaded = load_checkpoint(path)
        assert dense_logits(loaded).tobytes() == dense_logits(model).tobytes()
        assert loaded.lengths.tolist() == rows[1].tolist()

    def test_seed_of_earlier_schema_3_files_ignored(self, tmp_path):
        # schema-3 files written before the seed field was dropped still load
        rows, payload = self.payload()
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**payload, "seed": 2}))
        model = load_checkpoint(path)
        assert model.lengths.tolist() == rows[1].tolist()
        save_checkpoint(model, path)
        assert json.loads(path.read_text()) == payload

    def test_older_schemas_rejected(self, tmp_path):
        logits = np.random.default_rng(13).normal(size=(V6.size, V6.size))
        v1 = {"vocab": V6.words(), "logits": [[float(v) for v in row] for row in logits],
              "seed": 2, "step": 40}
        v2 = {"schema_version": 2, "vocab": V6.words(), "logits": pack(logits, "<f8"),
              "seed": 2, "step": 40}
        for version, payload in ((1, v1), (2, v2)):
            path = tmp_path / f"v{version}.json"
            path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
            with pytest.raises(CheckpointSchemaError, match=f"unsupported checkpoint schema {version}"):
                load_checkpoint(path)

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("vocab", 5, "vocab"),
            ("vocab", ["<unk>", "</s>", 3], "vocab"),
            ("vals", "not base64!", "base64"),
            ("default", base64.b64encode(b"\0" * 35).decode(), "bytes"),
            ("cols", [1, 4, 0, 2, 3, 5], "field 'cols' must be a string"),
            ("vals", pack(np.full(6, np.inf), "<f8"), "finite"),
            ("default", pack([0, 0, 0, np.nan, 0, 0], "<f8"), "finite"),
            ("default", pack(np.zeros(5), "<f8"), "6 values"),
            ("lengths", pack([0, 0, 2, 1, 2, 0], "<i4"), "sum"),
            ("lengths", pack([0, 0, 2, 1, 4, -1], "<i4"), ">= 0"),
            ("vals", pack(np.zeros(5), "<f8"), "one length"),
            ("cols", pack([1, 4, 0, 2, 3, 6], "<i4"), "lie in"),
            ("cols", pack([1, 4, 0, 2, 5, 3], "<i4"), "increasing"),
            ("cols", pack([4, 1, 0, 2, 3, 5], "<i4"), "increasing"),
            ("cols", pack([1, 4, 0, 2, 3, 3], "<i4"), "increasing"),
            ("step", True, "step"),
            ("step", None, "step"),
            ("schema_version", 2, "schema 2"),
            ("schema_version", "3", "schema '3'"),
        ],
    )
    def test_bad_field_rejected(self, tmp_path, field, value, match):
        _, payload = self.payload()
        payload[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("logits", [[[1, 2], [3]], [[None] * 6] * 6, [["a"] * 6] * 6, 7])
    def test_bad_version_1_table_rejected(self, tmp_path, logits):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"vocab": V6.words(), "logits": logits, "seed": 0, "step": 0}))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_version_1_non_finite_rejected(self, tmp_path):
        logits = [[0.0] * 6 for _ in range(6)]
        logits[3][1] = float("nan")
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"vocab": V6.words(), "logits": logits, "seed": 0, "step": 0}))
        with pytest.raises(CheckpointSchemaError, match="schema 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null", "1e999"])
    def test_non_object_rejected(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="object"):
            load_checkpoint(path)


class TestToyLmValidation:
    def test_wrong_logit_shape_rejected(self):
        with pytest.raises(ValueError, match="4 values"):
            ToyLm.from_rows(V4, np.zeros(3), np.zeros(4), [], [])
        with pytest.raises(ValueError, match="4 values"):
            ToyLm.from_rows(V4, np.zeros(4), np.zeros((4, 1)), [], [])

    def test_nonfinite_logits_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ToyLm.from_rows(V4, np.zeros(4), [0, 0, 1, 0], [3], [np.nan])
        with pytest.raises(ValueError, match="finite"):
            ToyLm.from_rows(V4, [0.0, np.inf, 0.0, 0.0], np.zeros(4), [], [])

    def test_rows_softmax_to_one(self, dense_model):
        rng = np.random.default_rng(10)
        model = dense_model(V6, rng.normal(size=(6, 6)))
        for i in range(V6.size):
            probs = [math.exp(model.token_logprob(i, j)) for j in range(V6.size)]
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_empty_context_rejected(self):
        with pytest.raises(ValueError):
            uniform_model(V4).logprob_cond(TokenSeq((), ""), seq(V4, "a"))


@pytest.mark.parametrize("values", [
    np.array([], dtype=np.int64),
    np.array([7]),
    np.array([3, 1, 3, 2, 1, 9, 0, 9]),
    np.random.default_rng(0).integers(0, 50, 1000),
])
def test_distinct_equals_np_unique(values):
    # lm_core._distinct stands in for np.unique, whose hash path imports numpy.ma
    distinct = lm_core._distinct(values)
    assert distinct.dtype == np.unique(values).dtype
    assert np.array_equal(distinct, np.unique(values))
