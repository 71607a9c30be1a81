import random
import sys

import numpy as np
import pytest

import genki.consistency as consistency_module
from genki.consistency import ConsistencyScore, consistency, prepare_text, prepare_texts
from genki.corpus import Passage, Vocabulary, build_stats, tokenize
from genki.lm_core import ToyLm
from genki.textstats import TextStatsError


class TableScorer:
    """LmScorer stub with canned logprobs per (context text, target text)."""

    def __init__(self, vocab, table, default=-1.0):
        self.vocab = vocab
        self.table = table
        self.default = default

    def encode(self, text):
        return self.vocab.encode(text)

    def logprob_cond(self, context, target):
        return self.table.get((context.text, target.text), self.default)

    def generate(self, prompt, max_tokens):
        raise NotImplementedError


def world():
    passages = [
        Passage("p0", "the sky is blue."),
        Passage("p1", "grass looks green."),
        Passage("p2", "water runs downhill. rivers carry water."),
    ]
    stats = build_stats(passages)
    vocab = Vocabulary.from_texts([p.text for p in passages] + ["what color", "blue"])
    return stats, vocab


class TestConsistency:
    def test_certain_scorer_scores_zero(self):
        stats, vocab = world()
        scorer = TableScorer(vocab, {}, default=0.0)
        score = consistency("what color is the sky", "blue", scorer, stats)
        assert score.value == pytest.approx(0.0, abs=1e-12)

    def test_single_sentence_hand_sum(self):
        stats, vocab = world()
        table = {
            ("what color", "blue"): -1.0,   # forward: answer given question
            ("blue", "what color"): -2.0,   # backward: question given answer
        }
        scorer = TableScorer(vocab, table, default=-99.0)
        score = consistency("what color", "blue", scorer, stats)
        assert score.forward_term == pytest.approx(-1.0, abs=1e-12)
        assert score.backward_term == pytest.approx(-2.0, abs=1e-12)
        assert score.value == pytest.approx(-3.0, abs=1e-12)

    def test_value_is_sum_of_terms(self):
        stats, vocab = world()
        scorer = TableScorer(vocab, {}, default=-0.7)
        score = consistency("water runs downhill", "rivers carry water", scorer, stats)
        assert score.value == pytest.approx(score.forward_term + score.backward_term)

    def test_duplicated_answer_sentence_keeps_forward_term(self):
        stats, vocab = world()
        scorer = TableScorer(vocab, {}, default=-1.5)
        single = consistency("what color", "blue.", scorer, stats)
        doubled = consistency("what color", "blue. blue.", scorer, stats)
        # each copy gets weight 0.5 and the same logprob, so the term is unchanged
        assert doubled.forward_term == pytest.approx(single.forward_term, abs=1e-12)

    def test_swap_symmetry(self):
        stats, vocab = world()
        table = {
            ("grass looks green", "the sky is blue."): -3.0,
            ("the sky is blue", "grass looks green."): -5.0,
        }
        scorer = TableScorer(vocab, table, default=-1.0)
        base = consistency("grass looks green.", "the sky is blue.", scorer, stats)
        flipped = consistency("the sky is blue.", "grass looks green.", scorer, stats)
        assert flipped.forward_term == pytest.approx(base.backward_term, abs=1e-12)
        assert flipped.backward_term == pytest.approx(base.forward_term, abs=1e-12)

    def test_nonpositive_under_toy_lm(self, dense_model):
        stats, vocab = world()
        rng = np.random.default_rng(0)
        pyrng = random.Random(0)
        words = ["sky", "blue", "grass", "green", "water", "rivers"]
        for _ in range(15):
            model = dense_model(vocab, rng.normal(size=(vocab.size, vocab.size)))
            q = " ".join(pyrng.choice(words) for _ in range(pyrng.randint(1, 4)))
            a = " ".join(pyrng.choice(words) for _ in range(pyrng.randint(1, 4)))
            score = consistency(q, a, model, stats)
            assert score.value <= 1e-12
            assert score.forward_term <= 1e-12
            assert score.backward_term <= 1e-12

    def test_higher_answer_probability_never_lowers_score(self):
        stats, vocab = world()
        low = TableScorer(vocab, {("what color", "blue"): -4.0}, default=-1.0)
        high = TableScorer(vocab, {("what color", "blue"): -0.5}, default=-1.0)
        s_low = consistency("what color", "blue", low, stats)
        s_high = consistency("what color", "blue", high, stats)
        assert s_high.value > s_low.value

    def test_multi_sentence_weighting_against_hand_oracle(self):
        stats, vocab = world()
        # answer sentences: "water runs downhill." (common words) and
        # "rivers carry water." (contains rarer words)
        a = "water runs downhill. rivers carry water."
        table = {
            ("what color", "water runs downhill."): -1.0,
            ("what color", "rivers carry water."): -2.0,
        }
        scorer = TableScorer(vocab, table, default=-50.0)
        from genki.textstats import nisf

        weights = nisf(["water runs downhill.", "rivers carry water."], stats)
        expected_forward = weights[0].nisf * -1.0 + weights[1].nisf * -2.0
        score = consistency("what color", a, scorer, stats)
        assert score.forward_term == pytest.approx(expected_forward, abs=1e-12)

    def test_blank_inputs_rejected(self):
        stats, vocab = world()
        scorer = TableScorer(vocab, {})
        with pytest.raises(ValueError):
            consistency("", "answer", scorer, stats)
        with pytest.raises(ValueError):
            consistency("question", "   ", scorer, stats)

    def test_punctuation_only_answer_rejected(self):
        stats, vocab = world()
        scorer = TableScorer(vocab, {})
        with pytest.raises(TextStatsError):
            consistency("what color", "?!", scorer, stats)

    def test_punctuation_fragment_dropped_not_scored(self):
        stats, vocab = world()
        # trailing "..." splits into a wordless fragment which must be ignored
        scorer = TableScorer(vocab, {("what color", "blue."): -1.0}, default=-77.0)
        score = consistency("what color", "blue. ...", scorer, stats)
        assert score.forward_term == pytest.approx(-1.0, abs=1e-12)

    def test_score_is_dataclass_with_terms(self):
        score = ConsistencyScore(-3.0, -1.0, -2.0)
        assert score.value == score.forward_term + score.backward_term


class TestPreparedTexts:
    TEXTS = ["what color", "blue. ...", "water runs downhill. rivers carry water.", "?!"]

    def test_prepared_scores_equal_one_pair_form(self, monkeypatch, dense_model):
        stats, vocab = world()
        rng = np.random.default_rng(4)
        model = dense_model(vocab, rng.normal(size=(vocab.size, vocab.size)))
        prepared = prepare_texts(self.TEXTS + self.TEXTS, model, stats)
        assert list(prepared) == self.TEXTS
        assert prepared["?!"].sentences == ()
        expected = {
            (q, a): consistency(q, a, model, stats) for q in self.TEXTS[:3] for a in self.TEXTS[:3]
        }

        def unprepared(text, scorer, stats):
            raise AssertionError(f"{text!r} prepared again")

        monkeypatch.setattr(consistency_module, "prepare_text", unprepared)
        for (q, a), score in expected.items():
            # bit-identical, so == on floats
            assert consistency(q, a, model, stats, prepared) == score
        with pytest.raises(TextStatsError, match="no scoreable sentences"):
            consistency("what color", "?!", model, stats, prepared)

    def test_single_sentence_text_encoded_once(self):
        stats, vocab = world()
        encoded = []

        class CountingScorer(TableScorer):
            def encode(self, text):
                encoded.append(text)
                return super().encode(text)

        prepare_texts(["what color", "blue. blue."], CountingScorer(vocab, {}), stats)
        assert encoded == ["what color", "blue. blue.", "blue.", "blue."]

    def test_each_sentence_tokenized_once(self, monkeypatch):
        stats, vocab = world()
        model = ToyLm(vocab)
        # each sentence once for its filter and weight, then the scorer's
        # encode of the whole text and of each scored sentence of a longer text
        expected = {
            "what color": ["what color", "what color"],
            "water runs downhill. rivers carry water.": [
                "water runs downhill.", "rivers carry water.",
                "water runs downhill. rivers carry water.",
                "water runs downhill.", "rivers carry water.",
            ],
            "blue. ...": ["blue.", "...", "blue. ...", "blue."],  # "..." has no words
        }
        reference = {text: prepare_text(text, model, stats) for text in expected}
        tokenized = []

        def counting_tokenize(text):
            tokenized.append(text)
            return tokenize(text)

        for module in ("genki.corpus", "genki.consistency", "genki.textstats"):
            monkeypatch.setattr(sys.modules[module], "tokenize", counting_tokenize)
        for text, calls in expected.items():
            tokenized.clear()
            assert prepare_text(text, model, stats) == reference[text]
            assert tokenized == calls
