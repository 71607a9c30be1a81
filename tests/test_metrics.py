"""Tests for answer metrics, retrieval quality, and trend fits.

Hand-worked values first, then seeded loops against independent brute-force
oracles (n-gram BLEU from scratch, recursive LCS).
"""

import math
import random
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from genki import corpus, metrics
from genki.corpus import AnswerKind, QaPair, tokenize
from genki.metrics import (
    METRICS,
    bleu,
    evaluate_answers,
    exact_match,
    normalize_answer,
    quality_recall_points,
    report_tsv,
    retrieval_quality,
    rouge_l,
    text_f1,
    text_recall,
    two_segment_fit,
)


def qa(qid, question, answers):
    return QaPair(id=qid, question=question, answers=tuple(answers),
                  format=AnswerKind.ENTITY)


class TestNormalizeAnswer:
    def test_lowercase_and_articles(self):
        assert normalize_answer("The Cat") == "cat"
        assert normalize_answer("An   apple a day") == "apple day"

    def test_terminal_punctuation_dropped(self):
        assert normalize_answer("Paris.") == "paris"
        assert normalize_answer("Paris?!  ") == "paris"
        assert normalize_answer("東京。") == "東京"

    def test_inner_punctuation_kept(self):
        assert normalize_answer("3.14 meters") == "3.14 meters"

    def test_whitespace_collapsed(self):
        assert normalize_answer("  a\t b\n c ") == "b c"


class TestExactMatch:
    def test_match_after_normalization(self):
        assert exact_match(["a cat"], "Cat!") == 1.0
        assert exact_match(["ABC"], "abc ") == 1.0

    def test_mismatch(self):
        assert exact_match(["dog"], "cat") == 0.0

    def test_any_gold_suffices(self):
        assert exact_match(["dog", "the cat"], "cat") == 1.0

    def test_cjk_answer_decoded_with_spaces_matches(self):
        # decode and the format step join CJK tokens with spaces
        assert exact_match(["東京"], "東 京") == 1.0
        assert exact_match(["东京大学"], " 东  京 大\t学。") == 1.0
        assert exact_match(["東京"], "東 都") == 0.0

    def test_space_kept_between_cjk_and_other_words(self):
        assert normalize_answer("在 東 京 3 号 tower") == "在東京 3 号 tower"
        assert exact_match(["東京 tower"], "東 京 tower") == 1.0
        assert exact_match(["東京 tower"], "東京tower") == 0.0

    def test_ascii_text_skips_the_unicode_patterns(self, monkeypatch):
        # they are compiled on first use, so ASCII-only runs never compile them
        def refuse(pattern, *args):
            raise AssertionError(f"compiled {pattern!r}")

        # only the modules' own name for re: pytest itself calls re.sub
        refusing_re = SimpleNamespace(findall=refuse, sub=refuse)
        monkeypatch.setattr(corpus, "re", refusing_re)
        monkeypatch.setattr(metrics, "re", refusing_re)
        assert normalize_answer("The  Cat sat.") == "cat sat"
        assert tokenize("The Cat_1, sat.") == ["the", "cat_1", "sat"]

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            exact_match([], "cat")


class TestTextRecall:
    def test_partial_overlap_two_thirds(self):
        # gold has three tokens, hypothesis covers two of them
        assert text_recall(["large language model"], "language model") == pytest.approx(2 / 3)

    def test_identity_is_one(self):
        assert text_recall(["large language model"], "large language model") == 1.0

    def test_disjoint_is_zero(self):
        assert text_recall(["alpha beta"], "gamma delta") == 0.0

    def test_empty_hypothesis_is_zero(self):
        assert text_recall(["alpha"], "") == 0.0
        assert text_recall(["alpha"], "...") == 0.0

    def test_multiset_counting(self):
        # gold needs "b" twice; hypothesis has it once
        assert text_recall(["b b a"], "a b") == pytest.approx(2 / 3)
        assert text_recall(["b b a"], "a b b") == 1.0

    def test_best_over_golds(self):
        assert text_recall(["x y z", "a b"], "a b") == 1.0

    def test_case_and_punctuation_folded(self):
        assert text_recall(["Large Model"], "large, MODEL") == 1.0

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            text_recall([], "x")


class TestTextF1:
    def test_hand_value(self):
        # overlap 2, precision 2/3, recall 2/3 -> F1 = 2/3
        assert text_f1(["a b c"], "b c d") == pytest.approx(2 / 3)

    def test_identity(self):
        assert text_f1(["a b c"], "a b c") == 1.0

    def test_disjoint(self):
        assert text_f1(["a b"], "c d") == 0.0

    def test_asymmetric_lengths(self):
        # overlap 1, precision 1, recall 1/3 -> 0.5
        assert text_f1(["a b c"], "a") == pytest.approx(0.5)

    def test_matches_formula_on_random_cases(self):
        rng = random.Random(11)
        words = ["a", "b", "c", "d", "e"]
        for _ in range(50):
            gold = " ".join(rng.choices(words, k=rng.randint(1, 6)))
            hyp = " ".join(rng.choices(words, k=rng.randint(1, 6)))
            from collections import Counter
            g, h = Counter(gold.split()), Counter(hyp.split())
            overlap = sum((g & h).values())
            if overlap == 0:
                expected = 0.0
            else:
                p = overlap / sum(h.values())
                r = overlap / sum(g.values())
                expected = 2 * p * r / (p + r)
            assert text_f1([gold], hyp) == pytest.approx(expected, abs=1e-12)


def bleu_oracle(ref, hyp, n):
    """From-scratch BLEU-n: geometric mean of clipped precisions, brevity penalty."""
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
    geo = math.prod(p ** (1.0 / n) for p in precisions)
    bp = 1.0 if len(hyp_toks) > len(ref_toks) else math.exp(1.0 - len(ref_toks) / len(hyp_toks))
    return bp * geo


class TestBleu:
    def test_short_hypothesis_brevity_penalty(self):
        # perfect unigram precision, c=2, r=3 -> exp(1 - 3/2)
        assert bleu(["the cat sat"], "the cat", 1) == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert bleu(["the cat sat"], "the cat", 2) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_order_above_hypothesis_length_is_zero(self):
        assert bleu(["the cat sat"], "the cat", 3) == 0.0

    def test_identity_is_one(self):
        for n in range(1, 5):
            assert bleu(["a b c d"], "a b c d", n) == pytest.approx(1.0, abs=1e-12)

    def test_zero_ngram_precision_zeroes_score(self):
        # shared unigrams but no shared bigram
        assert bleu(["a x b"], "a b", 1) > 0.0
        assert bleu(["a x b"], "a b", 2) == 0.0

    def test_clipping(self):
        # "the the the" against a ref with a single "the": clipped to 1/3
        assert bleu(["the cat"], "the the the", 1) == pytest.approx(1 / 3, abs=1e-12)

    def test_best_over_references(self):
        assert bleu(["x y", "a b"], "a b", 2) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_order_rejected(self):
        for n in (0, 5):
            with pytest.raises(ValueError):
                bleu(["a"], "a", n)

    def test_empty_refs_rejected(self):
        with pytest.raises(ValueError):
            bleu([], "a", 1)

    def test_matches_oracle_on_random_strings(self):
        rng = random.Random(23)
        words = ["a", "b", "c", "d"]
        for _ in range(60):
            ref = " ".join(rng.choices(words, k=rng.randint(1, 8)))
            hyp = " ".join(rng.choices(words, k=rng.randint(1, 8)))
            for n in range(1, 5):
                assert bleu([ref], hyp, n) == pytest.approx(
                    bleu_oracle(ref, hyp, n), abs=1e-9
                ), (ref, hyp, n)


def lcs_oracle(a, b):
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


class TestRougeL:
    def test_hand_value(self):
        # LCS("a b c d", "a c d") = 3; R = 3/4, P = 1 -> F = 6/7
        assert rouge_l(["a b c d"], "a c d") == pytest.approx(6 / 7, abs=1e-12)

    def test_identity(self):
        assert rouge_l(["a b c"], "a b c") == 1.0

    def test_disjoint(self):
        assert rouge_l(["a b"], "c d") == 0.0

    def test_order_sensitivity(self):
        # same bag of words, reversed order: LCS = 1
        value = rouge_l(["a b c"], "c b a")
        assert value == pytest.approx(2 * (1 / 3) * (1 / 3) / (2 / 3), abs=1e-12)

    def test_empty_hypothesis(self):
        assert rouge_l(["a b"], "") == 0.0

    def test_best_over_references(self):
        assert rouge_l(["z z z", "a b"], "a b") == 1.0

    def test_matches_oracle_on_random_strings(self):
        rng = random.Random(37)
        words = ["a", "b", "c"]
        for _ in range(60):
            ref = " ".join(rng.choices(words, k=rng.randint(1, 7)))
            hyp = " ".join(rng.choices(words, k=rng.randint(1, 7)))
            lcs = lcs_oracle(tuple(ref.split()), tuple(hyp.split()))
            if lcs == 0:
                expected = 0.0
            else:
                r = lcs / len(ref.split())
                p = lcs / len(hyp.split())
                expected = 2 * p * r / (p + r)
            assert rouge_l([ref], hyp) == pytest.approx(expected, abs=1e-9), (ref, hyp)


class TestBestOverGolds:
    @pytest.mark.parametrize("name", ["recall", "f1", "bleu1", "bleu2", "rouge_l"])
    def test_gold_without_word_token_is_skipped(self, name):
        score = METRICS[name]
        assert score(["!!!", "the cat"], "the cat") == 1.0
        assert score(["!!!"], "the cat") == 0.0
        with pytest.raises(ValueError, match="non-empty"):
            score([], "the cat")


class TestRetrievalQuality:
    def test_plural_folding_hand_value(self):
        passages = ["Large language models have gained widespread language applications."]
        assert retrieval_quality("Large Language Model", passages) == 0.375

    def test_first_bearing_passage_wins(self):
        passages = ["nothing here", "the model answered", "model model model"]
        # second passage: 1 matched of 3 tokens
        assert retrieval_quality("model", passages) == pytest.approx(1 / 3)

    def test_absent_everywhere_is_zero(self):
        assert retrieval_quality("model", ["cats and dogs"]) == 0.0
        assert retrieval_quality("model", []) == 0.0

    def test_exact_passage_is_one(self):
        assert retrieval_quality("large model", ["large model"]) == 1.0

    def test_repeats_do_not_double_count(self):
        # gold "model" once; passage has it twice among 4 tokens
        assert retrieval_quality("model", ["model model alpha beta"]) == pytest.approx(1 / 4)

    def test_short_words_not_folded(self):
        # "gas" must not fold to "ga"
        assert retrieval_quality("gas", ["ga here"]) == 0.0

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            retrieval_quality("...", ["a"])


class TestTwoSegmentFit:
    def test_exact_single_line(self):
        points = [(x, 2.0 * x + 1.0) for x in np.linspace(0.0, 1.0, 12)]
        fit = two_segment_fit(points)
        assert fit.segment1.slope == pytest.approx(2.0, abs=1e-9)
        assert fit.segment2.slope == pytest.approx(2.0, abs=1e-9)
        assert fit.segment1.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.segment2.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.single.r2 == pytest.approx(1.0, abs=1e-12)

    def test_two_regime_recovery_noiseless(self):
        xs = np.linspace(0.0, 1.0, 20)
        points = [
            (float(x), float(x) if x <= 0.5 else 0.5 + 0.1 * (float(x) - 0.5))
            for x in xs
        ]
        fit = two_segment_fit(points)
        assert fit.segment1.slope == pytest.approx(1.0, rel=1e-6)
        assert fit.segment2.slope == pytest.approx(0.1, rel=1e-6)
        # grid step ~0.0526; the knee sits at 0.5
        assert abs(fit.breakpoint - 0.5) < 0.06
        # the kinked data beats one straight line
        assert fit.single.r2 < fit.segment1.r2 + fit.segment2.r2 - fit.single.r2

    def test_two_regime_recovery_with_noise(self):
        # the x span must be wide enough that the slope-0.1 segment's signal
        # variance dominates the noise, else its R^2 cannot clear 0.985
        rng = np.random.RandomState(7)
        xs = np.linspace(0.0, 10.0, 40)
        ys = np.where(xs <= 5.0, xs, 5.0 + 0.1 * (xs - 5.0)) + rng.normal(0.0, 0.01, xs.shape)
        fit = two_segment_fit(list(zip(map(float, xs), map(float, ys))))
        assert abs(fit.segment1.slope - 1.0) / 1.0 < 0.10
        assert abs(fit.segment2.slope - 0.1) / 0.1 < 0.10
        assert fit.segment1.r2 > 0.985
        assert fit.segment2.r2 > 0.985
        grid_step = 10.0 / 39.0
        assert abs(fit.breakpoint - 5.0) <= grid_step

    def test_constant_y_r2_convention(self):
        points = [(float(x), 3.0) for x in range(8)]
        fit = two_segment_fit(points)
        assert fit.segment1.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.segment1.r2 == 1.0
        assert fit.segment2.r2 == 1.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 6"):
            two_segment_fit([(0.0, 0.0)] * 5)

    def test_coincident_x_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            two_segment_fit([(1.0, float(i)) for i in range(6)])

    def test_input_order_irrelevant(self):
        points = [(float(x), float(x) ** 2) for x in range(10)]
        rng = random.Random(3)
        shuffled = points[:]
        rng.shuffle(shuffled)
        a, b = two_segment_fit(points), two_segment_fit(shuffled)
        assert a.breakpoint == b.breakpoint
        assert a.segment1.slope == b.segment1.slope
        assert a.segment2.slope == b.segment2.slope


class TestEvaluateAnswers:
    def items(self):
        return [
            (qa("q1", "who", ["the cat"]), "cat"),
            (qa("q2", "what", ["large language model"]), "language model"),
            (qa("q3", "where", ["paris"]), "rome"),
        ]

    def test_aggregates_are_means(self):
        rows, means = evaluate_answers(self.items())
        assert means["em"] == pytest.approx((1.0 + 0.0 + 0.0) / 3)
        # recall keeps articles: "the cat" vs "cat" covers 1 of 2 tokens
        assert means["recall"] == pytest.approx((0.5 + 2 / 3 + 0.0) / 3)
        assert len(rows) == 3
        assert [qid for qid, _ in rows] == ["q1", "q2", "q3"]

    def test_every_column_by_hand(self):
        rows, means = evaluate_answers(self.items())
        e1, e05 = math.exp(-1.0), math.exp(-0.5)
        # q1 "cat" vs "the cat": p 1, r 1/2; one hypothesis token, brevity e^(1-2/1)
        # q2 "language model" vs "large language model": p 1, r 2/3, brevity e^(1-3/2)
        expected = {
            "q1": dict(em=1.0, recall=0.5, f1=2 / 3, bleu1=e1, bleu2=0.0, bleu3=0.0, bleu4=0.0,
                       rouge_l=2 / 3),
            "q2": dict(em=0.0, recall=2 / 3, f1=0.8, bleu1=e05, bleu2=e05, bleu3=0.0, bleu4=0.0,
                       rouge_l=0.8),
            "q3": dict(em=0.0, recall=0.0, f1=0.0, bleu1=0.0, bleu2=0.0, bleu3=0.0, bleu4=0.0,
                       rouge_l=0.0),
        }
        assert [qid for qid, _ in rows] == list(expected)
        for qid, scores in rows:
            assert list(scores) == list(METRICS)
            assert scores == pytest.approx(expected[qid]), qid
        assert list(means) == list(METRICS)
        assert means == pytest.approx(dict(
            em=1 / 3, recall=(0.5 + 2 / 3) / 3, f1=(2 / 3 + 0.8) / 3, bleu1=(e1 + e05) / 3,
            bleu2=e05 / 3, bleu3=0.0, bleu4=0.0, rouge_l=(2 / 3 + 0.8) / 3,
        ))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_answers([])


class TestReportTsv:
    def test_layout(self):
        rows, means = evaluate_answers([(qa("q1", "who", ["cat"]), "cat")])
        text = report_tsv(rows, means)
        lines = text.splitlines()
        assert lines[0].split("\t")[:3] == ["qid", "em", "recall"]
        assert lines[1].startswith("q1\t1.000000\t1.000000")
        assert lines[-1].startswith("mean\t1.000000")
        assert text.endswith("\n")

    def test_header_follows_metrics(self):
        rows, means = evaluate_answers([(qa("q1", "who", ["cat"]), "dog")])
        lines = report_tsv(rows, means).splitlines()
        assert lines[0] == "qid\tem\trecall\tf1\tbleu1\tbleu2\tbleu3\tbleu4\trouge_l"
        assert lines[1:] == ["q1" + "\t0.000000" * 8, "mean" + "\t0.000000" * 8]


class TestQualityRecallPoints:
    def test_bucketing(self):
        pairs = [(0.05, 0.2), (0.07, 0.4), (0.95, 1.0)]
        points = quality_recall_points(pairs)
        assert len(points) == 2
        assert points[0][0] == pytest.approx(0.05)
        assert points[0][1] == pytest.approx(0.3)
        assert points[0][2] == 2
        assert points[1][0] == pytest.approx(0.95)
        assert points[1][1] == pytest.approx(1.0)
        assert points[1][2] == 1

    def test_clipping_and_top_edge(self):
        points = quality_recall_points([(1.0, 0.5), (1.7, 0.7), (-0.2, 0.1)])
        assert points[0][0] == pytest.approx(0.05)
        assert points[0][1] == pytest.approx(0.1)
        assert points[0][2] == 1
        assert points[-1][0] == pytest.approx(0.95)
        assert points[-1][1] == pytest.approx(0.6)
        assert points[-1][2] == 2
