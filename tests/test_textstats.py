import logging
import math
import random

import pytest

from genki.corpus import Passage, build_stats
from genki.textstats import OOV_WORDS, TextStatsError, isf, iwf, nisf


class TestIwf:
    def test_hand_value_count_10(self):
        # ln(11)/2 with ten sentences and frequency 2
        passages = [Passage(f"p{i}", "w x." if i < 2 else "y x.") for i in range(10)]
        stats = build_stats(passages)
        assert stats.sentence_count == 10 and stats.word_freq["w"] == 2
        assert iwf("w", stats) == pytest.approx(math.log(11) / 2, abs=1e-12)

    def test_hand_value_count_1(self):
        stats = build_stats([Passage("p0", "solo.")])
        assert iwf("solo", stats) == pytest.approx(math.log(2), abs=1e-12)

    def test_strictly_decreasing_in_frequency(self):
        values = []
        for freq in (1, 2, 3, 5, 8):
            passages = [Passage("p0", " ".join(["w"] * freq) + ". other thing.")]
            stats = build_stats(passages)
            values.append(iwf("w", stats))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_oov_counts_and_warns_once(self, caplog):
        stats = build_stats([Passage("p0", "known.")])
        OOV_WORDS.reset()
        with caplog.at_level(logging.WARNING, logger="genki.textstats"):
            first = iwf("mystery", stats)
            second = iwf("mystery", stats)
        assert first == second == pytest.approx(math.log(2))
        assert OOV_WORDS.count == 2
        warnings = [r for r in caplog.records if "mystery" in r.getMessage()]
        assert len(warnings) == 1
        OOV_WORDS.reset()


class TestIsf:
    def test_one_lock_per_call_and_warnings_in_first_seen_order(self, caplog, monkeypatch):
        stats = build_stats([Passage("p0", "known.")])
        OOV_WORDS.reset()
        acquired = []

        class CountingLock:
            def __enter__(self):
                acquired.append(1)

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(OOV_WORDS, "_lock", CountingLock())
        with caplog.at_level(logging.WARNING, logger="genki.textstats"):
            assert isf("zeta known alpha zeta beta", stats) == pytest.approx(math.log(2))
            isf("beta gamma", stats)
            isf("known", stats)
        assert len(acquired) == 2
        # Each distinct word of a call counts once, a word seen before too.
        assert OOV_WORDS.count == 5
        warned = [r.args[0] for r in caplog.records if r.name == "genki.textstats"]
        assert warned == ["zeta", "alpha", "beta", "gamma"]
        OOV_WORDS.reset()

    def test_rarest_word_dominates(self):
        # nine sentences of common words plus one with a unique word
        passages = [Passage(f"p{i}", "common words here.") for i in range(9)]
        passages.append(Passage("p9", "common rareword here."))
        stats = build_stats(passages)
        assert stats.sentence_count == 10
        assert isf("common rareword", stats) == pytest.approx(math.log(11), abs=1e-12)

    def test_single_word_sentence_equals_iwf(self):
        stats = build_stats([Passage("p0", "alpha beta. beta.")])
        assert isf("alpha", stats) == iwf("alpha", stats)

    def test_adding_frequent_word_never_decreases(self):
        stats = build_stats([Passage("p0", "rare. common common common common.")])
        assert isf("rare common", stats) >= isf("rare", stats)

    def test_no_word_tokens_rejected(self):
        stats = build_stats([Passage("p0", "word.")])
        with pytest.raises(TextStatsError):
            isf("...", stats)


class TestNisf:
    def test_single_sentence_weight_one(self):
        stats = build_stats([Passage("p0", "only sentence here.")])
        (weight,) = nisf(["only sentence here."], stats)
        assert weight.nisf == pytest.approx(1.0, abs=1e-12)

    def test_one_three_ratio(self):
        # f_a = 3 and f_b = 1 make isf("a")/isf("b") exactly 1/3
        stats = build_stats([Passage("p0", "a a a b.")])
        weights = nisf(["a", "b"], stats)
        assert weights[0].nisf == pytest.approx(0.25, abs=1e-12)
        assert weights[1].nisf == pytest.approx(0.75, abs=1e-12)

    def test_weights_sum_to_one(self):
        rng = random.Random(11)
        vocab = [f"w{i}" for i in range(20)]
        text = " ".join(rng.choice(vocab) for _ in range(200))
        passages = [Passage("p0", text + ".")]
        stats = build_stats(passages)
        for _ in range(25):
            n = rng.randint(1, 6)
            sentences = [
                " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 5))) for _ in range(n)
            ]
            weights = nisf(sentences, stats)
            assert sum(w.nisf for w in weights) == pytest.approx(1.0, abs=1e-9)
            assert all(w.isf > 0 for w in weights)

    def test_permutation_permutes_weights(self):
        stats = build_stats([Passage("p0", "x x y z z z.")])
        sentences = ["x", "y", "z"]
        forward = nisf(sentences, stats)
        backward = nisf(sentences[::-1], stats)
        assert [w.nisf for w in backward] == [w.nisf for w in forward][::-1]

    def test_empty_list_rejected(self):
        stats = build_stats([Passage("p0", "word.")])
        with pytest.raises(TextStatsError):
            nisf([], stats)
