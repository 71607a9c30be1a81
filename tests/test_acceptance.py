"""Shipped-guarantee acceptance suite.

One test per guarantee.  Each prints a [PASS]/[FAIL] verdict with its wall
time straight to the real stdout, bypassing pytest capture, so a plain
pytest run leaves a scannable checklist.  Tolerances and wall-time limits
are part of the guarantee and asserted, not just reported.

Oracles here are deliberately written from scratch (pure-python softmax
chains, remove-list n-gram clipping, recursive LCS, full-sort retrieval)
so they share no code with the implementations they check.
"""

import functools
import json
import math
import random
import time

import numpy as np
import pytest

from genki.cli import EXIT_OK, main
from genki.corpus import (
    AnswerKind,
    Passage,
    Vocabulary,
    build_stats,
    split_sentences,
    tokenize,
)
from genki.consistency import consistency
from genki.ensemble import (
    AnswerCandidate,
    Choice,
    JudgeError,
    Provenance,
    Route,
    ScoreBundle,
    StubJudge,
    judgment_score,
    resolve_winner,
)
from genki.generation import (
    PipelineConfig,
    PipelineModels,
    build_vocabulary,
    draft_prompts,
    drafts_for_questions,
    preference_pairs_from_drafts,
    run_pipeline,
    train_pipeline_models,
)
from genki.lm_core import (
    LossWeights,
    ToyLm,
    TrainExample,
    loss_combined,
    loss_f,
    loss_r,
)
from genki.metrics import (
    bleu,
    exact_match,
    retrieval_quality,
    rouge_l,
    text_recall,
    two_segment_fit,
)
from genki.retriever import DenseIndex, top_k
from genki.reward import (
    FormatSpec,
    PreferencePair,
    ToyRewardModel,
    pairwise_loss,
    pairwise_loss_grad,
)
from genki.synth import synthetic_world, write_world
from genki.textstats import isf, iwf, nisf


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _verdict_channel(request):
    """Remember pytest's capture manager so verdicts can bypass capture."""
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _emit(line):
    manager = _CAPTURE_MANAGER
    if manager is not None:
        manager.suspend_global_capture()
    try:
        print(line, flush=True)
    finally:
        if manager is not None:
            manager.resume_global_capture()


def criterion(label, limit_s=None):
    """Print one [PASS]/[FAIL] line per wrapped test on the real stdout."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                _emit(f"[FAIL] {label}")
                raise
            elapsed = time.perf_counter() - start
            if limit_s is not None and elapsed >= limit_s:
                _emit(f"[FAIL] {label} (took {elapsed:.2f}s, limit {limit_s:g}s)")
                raise AssertionError(f"{label}: {elapsed:.2f}s exceeded the {limit_s:g}s limit")
            _emit(f"[PASS] {label} ({elapsed:.2f}s)")

        return wrapper

    return decorate


# ---------------------------------------------------------------- oracles


def oracle_row_logprob(row, token):
    values = [float(v) for v in row]
    m = max(values)
    lse = m + math.log(sum(math.exp(v - m) for v in values))
    return values[token] - lse


def oracle_chain_logprob(logits, context_tokens, target_tokens):
    prev = context_tokens[-1]
    total = 0.0
    for token in target_tokens:
        total += oracle_row_logprob(logits[prev], token)
        prev = token
    return total


def oracle_iwf(word, stats):
    return math.log(1 + stats.sentence_count) / stats.word_freq[word]


def oracle_isf(sentence, stats):
    return max(oracle_iwf(w, stats) for w in set(tokenize(sentence)))


def oracle_nisf(sentences, stats):
    scores = [oracle_isf(s, stats) for s in sentences]
    total = sum(scores)
    return [s / total for s in scores]


def oracle_consistency(question, answer, model, logits, stats):
    def term(text, conditioning):
        sentences = [s for s in split_sentences(text) if tokenize(s)]
        weights = oracle_nisf(sentences, stats)
        context = model.encode(conditioning)
        out = 0.0
        for sentence, weight in zip(sentences, weights):
            target = model.encode(sentence)
            out += weight * oracle_chain_logprob(logits, context.tokens, target.tokens)
        return out

    return term(answer, question) + term(question, answer)


def oracle_judgment(cs1, cs2, rm1, rm2, len1, len2):
    mean = (rm1 + rm2) / 2.0
    if mean == 0.0:
        mean = 1e-9
    elif mean < 0.0:
        mean = -mean
    mean_len = (len1 + len2) / 2.0
    return math.exp(abs(cs1 - cs2)) - abs(rm1 - rm2) / (mean * mean_len)


def oracle_features(answer, format_spec, question):
    tokens = tokenize(answer)
    distinct = set(tokens)
    format_words = set(tokenize(format_spec.description))
    question_words = set(tokenize(question))
    if distinct and question:
        fraction = len(distinct & question_words) / len(distinct)
    else:
        fraction = 0.0
    return [float(len(tokens)), float(len(distinct & format_words)), fraction]


def oracle_pairwise_loss(weights, pair):
    pos = sum(w * f for w, f in zip(weights, oracle_features(pair.positive, pair.format, pair.question)))
    neg = sum(w * f for w, f in zip(weights, oracle_features(pair.negative, pair.format, pair.question)))
    return math.log(1.0 + math.exp(-(pos - neg)))


def oracle_loss_f(logits, batch):
    return sum(
        -oracle_chain_logprob(logits, ex.x.tokens, ex.answer.tokens) for ex in batch
    )


def oracle_loss_r(logits, passages):
    total = 0.0
    for seq in passages:
        for prev, nxt in zip(seq.tokens, seq.tokens[1:]):
            total -= oracle_row_logprob(logits[prev], nxt)
    return total


def oracle_bleu(ref, hyp, n):
    ref_toks, hyp_toks = ref.split(), hyp.split()
    if not hyp_toks:
        return 0.0
    precisions = []
    for order in range(1, n + 1):
        hyp_grams = [tuple(hyp_toks[i:i + order]) for i in range(len(hyp_toks) - order + 1)]
        ref_grams = [tuple(ref_toks[i:i + order]) for i in range(len(ref_toks) - order + 1)]
        if not hyp_grams:
            return 0.0
        clipped = 0
        remaining = list(ref_grams)
        for gram in hyp_grams:
            if gram in remaining:
                remaining.remove(gram)
                clipped += 1
        if clipped == 0:
            return 0.0
        precisions.append(clipped / len(hyp_grams))
    geo = 1.0
    for p in precisions:
        geo *= p ** (1.0 / n)
    if len(hyp_toks) > len(ref_toks):
        bp = 1.0
    else:
        bp = math.exp(1.0 - len(ref_toks) / len(hyp_toks))
    return bp * geo


def oracle_rouge_l(ref, hyp):
    a, b = ref.split(), hyp.split()

    def lcs(i, j, memo={}):
        key = (id(a), id(b), i, j)
        if key in memo:
            return memo[key]
        if i == len(a) or j == len(b):
            value = 0
        elif a[i] == b[j]:
            value = 1 + lcs(i + 1, j + 1)
        else:
            value = max(lcs(i + 1, j), lcs(i, j + 1))
        memo[key] = value
        return value

    length = lcs(0, 0)
    if length == 0 or not a or not b:
        return 0.0
    recall = length / len(a)
    precision = length / len(b)
    return 2 * precision * recall / (precision + recall)


WORD_POOL = [
    "river", "stone", "cloud", "ember", "wing", "salt",
    "iron", "moss", "dawn", "pine", "glass", "thorn",
]


def small_corpus(seed=5, n_passages=30):
    rng = random.Random(seed)
    passages = []
    for i in range(n_passages):
        n_sentences = rng.randint(1, 3)
        sentences = [
            " ".join(rng.choices(WORD_POOL, k=rng.randint(2, 6))) for _ in range(n_sentences)
        ]
        passages.append(Passage(id=f"p{i:02d}", text=" . ".join(sentences) + " ."))
    return passages, build_stats(passages)


# ---------------------------------------------------------------- criteria


@criterion("1/9 worked-example fidelity (recall 2/3, retrieval quality 3/8)", limit_s=1.0)
def test_worked_example_fidelity():
    assert text_recall(["large language model"], "language model") == 2 / 3
    passages = ["Large language models have gained widespread language applications."]
    assert retrieval_quality("Large Language Model", passages) == 0.375


@criterion("2/9 formula oracles (informativeness, consistency, judgment, losses)", limit_s=10.0)
def test_formula_oracles(dense_model):
    rng = random.Random(17)
    passages, stats = small_corpus()

    # informativeness of words, sentences, and normalized sentence groups
    words = sorted(stats.word_freq)
    assert len(words) >= 10
    iwf_cases = [rng.choice(words) for _ in range(25)]
    for word in iwf_cases:
        assert abs(iwf(word, stats) - oracle_iwf(word, stats)) < 1e-9

    sentence_cases = [
        " ".join(rng.choices(words, k=rng.randint(1, 6))) for _ in range(25)
    ]
    for sentence in sentence_cases:
        assert abs(isf(sentence, stats) - oracle_isf(sentence, stats)) < 1e-9

    for _ in range(20):
        group = [" ".join(rng.choices(words, k=rng.randint(1, 5)))
                 for _ in range(rng.randint(2, 4))]
        produced = [w.nisf for w in nisf(group, stats)]
        expected = oracle_nisf(group, stats)
        assert len(produced) == len(expected)
        for got, want in zip(produced, expected):
            assert abs(got - want) < 1e-9
        assert abs(sum(produced) - 1.0) < 1e-9

    # consistency between random multi-sentence question/answer pairs
    vocab = Vocabulary.from_texts([p.text for p in passages])
    np_rng = np.random.default_rng(3)
    table = np_rng.normal(0.0, 0.5, (vocab.size, vocab.size))
    model = dense_model(vocab, table)

    def random_text():
        n_sentences = rng.randint(1, 3)
        return " . ".join(
            " ".join(rng.choices(words, k=rng.randint(2, 5))) for _ in range(n_sentences)
        )

    for _ in range(20):
        q, a = random_text(), random_text()
        got = consistency(q, a, model, stats).value
        want = oracle_consistency(q, a, model, table, stats)
        assert abs(got - want) < 1e-9, (q, a)

    # judgment score, including the zero-mean and negative-mean guards
    sc_cases = [
        (rng.uniform(-5, 0), rng.uniform(-5, 0), rng.uniform(-3, 5),
         rng.uniform(-3, 5), rng.randint(1, 10), rng.randint(1, 10))
        for _ in range(20)
    ]
    sc_cases += [(-1.0, -1.0, 2.0, -2.0, 1, 1), (-1.0, -2.0, -1.0, -5.0, 2, 4)]
    for case in sc_cases:
        assert abs(judgment_score(*case) - oracle_judgment(*case)) < 1e-9, case

    # pairwise reward loss on random feature weights and texts
    fmt = FormatSpec(AnswerKind.ENTITY, max_tokens=8, description="short entity name")
    for _ in range(20):
        weights = [rng.uniform(-1, 1) for _ in range(3)]
        model_rm = ToyRewardModel(weights=weights)
        pair = PreferencePair(
            positive=" ".join(rng.choices(words, k=rng.randint(1, 5))) + " yes",
            negative=" ".join(rng.choices(words, k=rng.randint(1, 5))) + " no",
            format=fmt,
            question=" ".join(rng.choices(words, k=rng.randint(2, 6))),
        )
        assert abs(pairwise_loss(model_rm, pair) - oracle_pairwise_loss(weights, pair)) < 1e-9

    # instruction, domain, and combined training losses
    def random_seq(min_len=2):
        return vocab.encode(" ".join(rng.choices(words, k=rng.randint(min_len, 6))))

    for _ in range(20):
        table = np_rng.normal(0.0, 0.4, (vocab.size, vocab.size))
        lm = dense_model(vocab, table)
        batch = [TrainExample(random_seq(), random_seq(1)) for _ in range(rng.randint(1, 3))]
        seqs = [random_seq() for _ in range(rng.randint(1, 3))]
        lam1 = rng.uniform(0.6, 2.0)
        lam2 = rng.uniform(0.1, lam1 * 0.9)
        w = LossWeights(lam1, lam2)
        f_got, f_want = loss_f(lm, batch), oracle_loss_f(table, batch)
        r_got, r_want = loss_r(lm, seqs), oracle_loss_r(table, seqs)
        assert abs(f_got - f_want) < 1e-9
        assert abs(r_got - r_want) < 1e-9
        assert abs(loss_combined(lm, seqs, batch, w) - (lam1 * r_want + lam2 * f_want)) < 1e-9


@criterion("3/9 gradient checks vs central finite differences", limit_s=30.0)
def test_gradient_checks(dense_model, dense_logits, loss_combined_grad):
    h = 1e-5
    vocab = Vocabulary(["<unk>", "</s>", "a", "b", "c", "d"])
    rng = np.random.default_rng(11)
    model = dense_model(vocab, rng.normal(0.0, 0.3, (6, 6)))
    passages = [vocab.encode("a b c a d"), vocab.encode("b d c"), vocab.encode("c a a b")]
    batch = [
        TrainExample(vocab.encode("a b"), vocab.encode("c d")),
        TrainExample(vocab.encode("d c b"), vocab.encode("a")),
    ]
    w = LossWeights(1.0, 0.5)

    analytic = loss_combined_grad(model, passages, batch, w)
    fd = np.zeros_like(analytic)
    for i in range(6):
        for j in range(6):
            plus = dense_logits(model)
            plus[i, j] += h
            minus = dense_logits(model)
            minus[i, j] -= h
            up = loss_combined(dense_model(vocab, plus), passages, batch, w)
            down = loss_combined(dense_model(vocab, minus), passages, batch, w)
            fd[i, j] = (up - down) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    max_rel = float((np.abs(analytic - fd) / denom).max())
    assert max_rel < 1e-4, f"combined-loss gradient relative error {max_rel}"

    fmt = FormatSpec(AnswerKind.ENTITY, max_tokens=8, description="one entity")
    pairs = [
        PreferencePair("iron gate", "a very long rambling reply", fmt, question="which gate"),
        PreferencePair("salt", "stone salt stone", fmt, question="what mineral"),
        PreferencePair("entity one", "entity one two three", fmt),
    ]
    rm = ToyRewardModel(weights=[0.3, -0.7, 1.1])
    for pair in pairs:
        analytic_w = pairwise_loss_grad(rm, pair)
        fd_w = np.zeros(3)
        for i in range(3):
            up_w = rm.weights.copy()
            up_w[i] += h
            down_w = rm.weights.copy()
            down_w[i] -= h
            fd_w[i] = (
                pairwise_loss(ToyRewardModel(weights=up_w), pair)
                - pairwise_loss(ToyRewardModel(weights=down_w), pair)
            ) / (2 * h)
        denom_w = np.maximum(np.maximum(np.abs(analytic_w), np.abs(fd_w)), 1e-8)
        max_rel_w = float((np.abs(analytic_w - fd_w) / denom_w).max())
        assert max_rel_w < 1e-4, f"reward gradient relative error {max_rel_w}"


@criterion("4/9 retrieval top-k matches full-scan oracle", limit_s=30.0)
def test_retrieval_exactness():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(1, 1001))
        dim = 64
        matrix = rng.normal(size=(n, dim))
        if n >= 2 and trial % 3 == 0:
            # force exact score ties through duplicated vectors
            source = int(rng.integers(0, n))
            copies = int(rng.integers(1, min(4, n)))
            for offset in range(copies):
                matrix[(source + offset + 1) % n] = matrix[source]
        ids = [f"p{i:04d}" for i in range(n)]
        rng.shuffle(ids)  # id order must not equal row order
        index = DenseIndex(matrix, ids)
        query = rng.normal(size=dim)
        k = int(rng.integers(1, n + 6))

        got = top_k(index, query, k)
        stored = index.matrix  # rebuilt from the sparse rows on each read
        scores = [float(np.dot(stored[i].astype(np.float64), query)) for i in range(n)]
        order = sorted(range(n), key=lambda i: (-scores[i], ids[i]))[:k]
        assert [r.passage_id for r in got] == [ids[i] for i in order], trial
        for result, i in zip(got, order):
            assert result.score == pytest.approx(scores[i], rel=1e-9, abs=1e-12)


@criterion("5/9 routing of 12 hand-built score bundles")
def test_routing_cases():
    fmt = FormatSpec(AnswerKind.ENTITY, max_tokens=8)
    fk = AnswerCandidate("alpha beta", Provenance.FULL_KNOWLEDGE, postprocessed=True)
    rk = AnswerCandidate("gamma delta", Provenance.RETRIEVED_KNOWLEDGE, postprocessed=True)

    class FixedJudge:
        def __init__(self, choice):
            self.choice = choice

        def choose(self, question, a1, a2, format):
            return self.choice

    class FailingJudge:
        def choose(self, question, a1, a2, format):
            raise RuntimeError("judge offline")

    def bundle_from_scores(cs1, cs2, rm1, rm2, len1, len2):
        s_c = judgment_score(cs1, cs2, rm1, rm2, len1, len2)
        mean = (rm1 + rm2) / 2.0
        guard = "zero_mean" if mean == 0.0 else ("negative_mean" if mean < 0.0 else None)
        route = Route.REWARD_PICK if s_c < 0 else Route.EXTERNAL_PICK
        return ScoreBundle(cs1=cs1, cs2=cs2, rm1=rm1, rm2=rm2, len1=len1,
                           len2=len2, s_c=s_c, route=route, reward_guard=guard)

    def tie_bundle(rm=2.0):
        return ScoreBundle(cs1=-1.0, cs2=-1.0, rm1=rm, rm2=rm, len1=1, len2=1,
                           s_c=-0.5, route=Route.REWARD_PICK, reward_guard=None)

    judge_first, judge_second = FixedJudge(Choice.FIRST), FixedJudge(Choice.SECOND)
    passed = 0

    # 1: negative score, first reward strictly higher -> first candidate
    b = bundle_from_scores(-1.0, -1.0, 9.0, 1.0, 1, 1)
    assert b.s_c < 0 and b.route is Route.REWARD_PICK
    assert resolve_winner("q", fk, rk, b, judge_second, fmt) is fk
    passed += 1

    # 2: negative score, second reward strictly higher -> second candidate
    b = bundle_from_scores(-1.0, -1.0, 1.0, 9.0, 1, 1)
    assert b.route is Route.REWARD_PICK
    assert resolve_winner("q", fk, rk, b, judge_first, fmt) is rk
    passed += 1

    # 3: reward tie, first is the full-knowledge candidate -> first
    assert resolve_winner("q", fk, rk, tie_bundle(), judge_second, fmt) is fk
    passed += 1

    # 4: reward tie, second is the full-knowledge candidate -> second
    assert resolve_winner("q", rk, fk, tie_bundle(), judge_first, fmt) is fk
    passed += 1

    # 5: reward tie, neither is full-knowledge -> first wins
    rk2 = AnswerCandidate("epsilon", Provenance.RETRIEVED_KNOWLEDGE, postprocessed=True)
    assert resolve_winner("q", rk, rk2, tie_bundle(), judge_second, fmt) is rk
    passed += 1

    # 6: score exactly zero is external, never reward; judge picks first
    b = bundle_from_scores(-2.0, -2.0, 3.0, 1.0, 1, 1)
    assert b.s_c == 0.0 and b.route is Route.EXTERNAL_PICK
    assert resolve_winner("q", fk, rk, b, judge_first, fmt) is fk
    with pytest.raises(ValueError):
        ScoreBundle(cs1=-2.0, cs2=-2.0, rm1=3.0, rm2=1.0, len1=1, len2=1,
                    s_c=0.0, route=Route.REWARD_PICK, reward_guard=None)
    passed += 1

    # 7: score exactly zero, judge picks second
    b = bundle_from_scores(-2.0, -2.0, 3.0, 1.0, 1, 1)
    assert resolve_winner("q", fk, rk, b, judge_second, fmt) is rk
    passed += 1

    # 8: positive score (consistency gap dominates), judge picks first
    b = bundle_from_scores(-1.0, -3.0, 1.0, 1.0, 2, 2)
    assert b.s_c == pytest.approx(math.exp(2.0)) and b.route is Route.EXTERNAL_PICK
    assert resolve_winner("q", fk, rk, b, judge_first, fmt) is fk
    passed += 1

    # 9: positive score, judge picks second
    b = bundle_from_scores(-1.0, -3.0, 1.0, 1.0, 2, 2)
    assert resolve_winner("q", fk, rk, b, judge_second, fmt) is rk
    passed += 1

    # 10: zero reward mean guard: epsilon denominator drives the score
    # deeply negative and the reward model picks the higher reward
    b = bundle_from_scores(-1.0, -1.0, 2.0, -2.0, 1, 1)
    assert b.reward_guard == "zero_mean"
    assert b.s_c < -1e6 and b.route is Route.REWARD_PICK
    assert resolve_winner("q", fk, rk, b, judge_second, fmt) is fk
    passed += 1

    # 11: negative reward mean guard: absolute mean keeps the score finite
    # and routing still follows its sign
    b = bundle_from_scores(-1.0, -1.0, -1.0, -5.0, 1, 1)
    assert b.reward_guard == "negative_mean"
    assert b.s_c == pytest.approx(1.0 - 4.0 / 3.0)
    assert b.route is Route.REWARD_PICK
    assert resolve_winner("q", fk, rk, b, judge_first, fmt) is fk  # -1 > -5
    passed += 1

    # 12: external route with a failing judge raises and carries the bundle
    b = bundle_from_scores(-1.0, -1.0, 1.0, 1.0, 2, 2)
    assert b.route is Route.EXTERNAL_PICK
    with pytest.raises(JudgeError) as info:
        resolve_winner("q", fk, rk, b, FailingJudge(), fmt)
    assert info.value.bundle is b
    passed += 1

    assert passed == 12


@criterion("6/9 training direction on a 200-passage synthetic corpus", limit_s=300.0)
def test_training_direction():
    passages, qa_pairs = synthetic_world(200, 100)
    fmt = FormatSpec(AnswerKind.ENTITY, max_tokens=8)
    cfg = PipelineConfig(k=2, format=fmt, max_output_tokens=12)
    vocab = build_vocabulary(passages, qa_pairs)
    from genki.retriever import HashEmbedder, retrieve_texts

    embedder = HashEmbedder(dim=1024, seed=0)
    index = DenseIndex.build(passages, embedder)
    passage_map = {p.id: p for p in passages}
    trained = train_pipeline_models(
        passages, qa_pairs, index, embedder, vocab, cfg, steps=60, learning_rate=0.5
    )

    def mean_recall(drafts):
        return sum(
            text_recall(list(qa.answers), drafts[qa.id]) for qa in qa_pairs
        ) / len(qa_pairs)

    retrievals = retrieve_texts(index, embedder, [qa.question for qa in qa_pairs], cfg.k)
    prompts = draft_prompts(qa_pairs, retrievals, passage_map, vocab, vocab)[1]
    trained_drafts = drafts_for_questions(qa_pairs, prompts, trained.retrieved, cfg)
    untrained_drafts = drafts_for_questions(qa_pairs, prompts, ToyLm(vocab), cfg)
    recall_trained = mean_recall(trained_drafts)
    recall_untrained = mean_recall(untrained_drafts)
    assert recall_trained - recall_untrained >= 0.20, (recall_trained, recall_untrained)

    drafts = drafts_for_questions(qa_pairs, prompts, trained.retrieved, cfg)
    pairs = preference_pairs_from_drafts(qa_pairs, drafts, fmt)
    reward = train_reward_or_fresh(pairs)
    models = PipelineModels(
        full=trained.full, retrieved=trained.retrieved, span=trained.span,
        reward=reward, judge=StubJudge(),
    )
    stats = build_stats(passages)
    runs = run_pipeline(qa_pairs, models, index, embedder, passage_map, stats, cfg)
    assert all(run.error is None for run in runs)

    def mean_metric(metric, texts):
        return sum(
            metric(list(qa.answers), text) for qa, text in zip(qa_pairs, texts)
        ) / len(qa_pairs)

    raw = [run.raw_retrieved for run in runs]
    post = [run.post_retrieved for run in runs]
    em_raw, em_post = mean_metric(exact_match, raw), mean_metric(exact_match, post)
    recall_raw, recall_post = mean_metric(text_recall, raw), mean_metric(text_recall, post)
    assert em_post > em_raw, (em_raw, em_post)
    assert abs(recall_post - recall_raw) <= 0.05, (recall_raw, recall_post)


def train_reward_or_fresh(pairs):
    from genki.reward import train_reward

    model = ToyRewardModel()
    return train_reward(model, pairs, 100, 0.05) if pairs else model


@criterion("7/9 two-regime trend fit recovery", limit_s=10.0)
def test_two_regime_fit():
    rng = np.random.RandomState(42)
    xs = np.linspace(0.0, 10.0, 50)
    knee, slope1, slope2 = 5.0, 1.0, 0.1
    ys = np.where(xs <= knee, slope1 * xs, slope1 * knee + slope2 * (xs - knee))
    ys = ys + rng.normal(0.0, 0.01, xs.shape)
    fit = two_segment_fit(list(zip(map(float, xs), map(float, ys))))
    assert abs(fit.segment1.slope - slope1) / slope1 < 0.10
    assert abs(fit.segment2.slope - slope2) / slope2 < 0.10
    assert fit.segment1.r2 > 0.985
    assert fit.segment2.r2 > 0.985


@criterion("8/9 end-to-end determinism (byte-identical reruns)")
def test_determinism(tmp_path):
    artifacts = ("index.bin", "models/l1.json", "models/l2.json", "models/span.json",
                 "models/reward.json", "out/runs.jsonl", "out/audit.jsonl")
    trees = []
    for name in ("a", "b"):
        root = tmp_path / name
        write_world(root, 12, 8)
        config = {
            "k": 2,
            "max_output_tokens": 12,
            "embedder": {"dim": 1024, "seed": 0},
            "train": {"steps": 60, "learning_rate": 0.5, "reward_steps": 100},
        }
        (root / "config.json").write_text(json.dumps(config))
        cfg_flags = ["--config", str(root / "config.json"),
                     "--corpus", str(root / "corpus.jsonl")]
        qa_flags = ["--qa", str(root / "qa.jsonl"), "--index", str(root / "index.bin")]
        assert main(["index"] + cfg_flags + ["--out", str(root / "index.bin")]) == EXIT_OK
        assert main(["train"] + cfg_flags + qa_flags + ["--out", str(root / "models")]) == EXIT_OK
        assert main(["answer"] + cfg_flags + qa_flags + ["--models", str(root / "models"),
                     "--out", str(root / "out")]) == EXIT_OK
        trees.append(root)
    for artifact in artifacts:
        first = (trees[0] / artifact).read_bytes()
        second = (trees[1] / artifact).read_bytes()
        assert first == second, f"{artifact} differs between identical runs"


@criterion("9/9 BLEU/ROUGE against brute-force references")
def test_metric_cross_check():
    rng = random.Random(99)
    words = ["alpha", "beta", "gamma", "delta", "epsilon"]
    for _ in range(100):
        ref = " ".join(rng.choices(words, k=rng.randint(1, 8)))
        hyp = " ".join(rng.choices(words, k=rng.randint(1, 8)))
        for n in range(1, 5):
            got = bleu([ref], hyp, n)
            want = oracle_bleu(ref, hyp, n)
            assert abs(got - want) < 1e-9, (ref, hyp, n)
        assert abs(rouge_l([ref], hyp) - oracle_rouge_l(ref, hyp)) < 1e-9, (ref, hyp)
