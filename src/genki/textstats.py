"""Frequency-based informativeness scores for words and sentences.

A word is informative when it is rare in the corpus: its score is
log(1 + corpus sentence count) / corpus frequency, using the natural log.
A sentence inherits the score of its most informative word, and sentence
scores are normalized to sum to one across a text so they can be used as
weights.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass
from typing import Sequence

from .corpus import CorpusStats, tokenize

logger = logging.getLogger(__name__)


class TextStatsError(ValueError):
    """Raised for inputs that carry no scoreable words."""


class OovCounter:
    """Thread-safe tally of words scored without a corpus frequency."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0
        self._seen: set[str] = set()

    def increment(self, word: str) -> bool:
        """Count one fallback; True when *word* is new since the last reset."""
        with self._lock:
            self._count += 1
            if word in self._seen:
                return False
            self._seen.add(word)
            return True

    @property
    def count(self) -> int:
        return self._count

    def reset(self) -> None:
        with self._lock:
            self._count = 0
            self._seen.clear()


# Out-of-vocabulary words are treated as rarest possible (frequency 1) and
# tallied here so callers can audit how often that fallback fires.
OOV_WORDS = OovCounter()


@dataclass(frozen=True)
class SentenceWeight:
    """A sentence with its informativeness score and normalized weight."""

    sentence: str
    isf: float
    nisf: float


def iwf(word: str, stats: CorpusStats) -> float:
    """Informativeness of a single word.

    Words missing from the corpus get the rarest-possible frequency of 1;
    each such fallback increments OOV_WORDS.  The warning fires once per
    distinct word so scoring loops do not flood the log.
    """
    freq = stats.word_freq.get(word)
    if freq is None:
        if OOV_WORDS.increment(word):
            logger.warning("word %r not in corpus statistics; treating frequency as 1", word)
        freq = 1
    return math.log(1 + stats.sentence_count) / freq


def isf(sentence: str, stats: CorpusStats, words: Sequence[str] | None = None) -> float:
    """Informativeness of a sentence: the maximum iwf over its distinct words.

    *words* are the sentence's tokens when the caller already has them.
    Raises TextStatsError when the sentence has no word tokens at all.
    """
    # first-seen order, so the OOV warnings come out in the same order every run
    words = dict.fromkeys(tokenize(sentence) if words is None else words)
    if not words:
        raise TextStatsError(f"sentence has no word tokens: {sentence!r}")
    return max(iwf(word, stats) for word in words)


def nisf(
    sentences: Sequence[str],
    stats: CorpusStats,
    words: Sequence[Sequence[str]] | None = None,
) -> list[SentenceWeight]:
    """Normalize sentence informativeness within a group of sentences.

    The returned weights sum to 1 (each is isf / sum of isf values), so they
    can weight per-sentence scores of the enclosing text.  *words*, when
    given, holds the tokens of each sentence, so none is tokenized again.
    """
    if not sentences:
        raise TextStatsError("need at least one sentence to normalize")
    if words is None:
        words = [None] * len(sentences)
    scores = [isf(sentence, stats, toks) for sentence, toks in zip(sentences, words, strict=True)]
    total = sum(scores)
    # isf is strictly positive (log(1 + total) > 0 and freq >= 1), so the
    # normalizer cannot be zero for a non-empty group.
    return [
        SentenceWeight(sentence=s, isf=score, nisf=score / total)
        for s, score in zip(sentences, scores)
    ]
