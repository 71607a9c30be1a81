"""Question-answer consistency: informativeness-weighted mutual log-probability.

The score adds a forward term (how well the answer's sentences continue the
question) and a backward term (how well the question's sentences continue
the answer).  Each sentence's log-probability is weighted by its normalized
informativeness, so rare-word sentences dominate and boilerplate barely
counts.  Always <= 0 for a proper probability scorer; closer to 0 means
more consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import CorpusStats, split_sentences, tokenize
from .lm_core import LmScorer
from .textstats import TextStatsError, nisf


@dataclass(frozen=True)
class ConsistencyScore:
    """Total consistency value and its two directional terms."""

    value: float
    forward_term: float
    backward_term: float


def _weighted_term(text: str, conditioning: str, scorer: LmScorer, stats: CorpusStats) -> float:
    """NISF-weighted logprob of *text*'s sentences as continuations of *conditioning*."""
    # Punctuation-only fragments carry no words to weight or score; drop them.
    sentences = [s for s in split_sentences(text) if tokenize(s)]
    if not sentences:
        raise TextStatsError(f"no scoreable sentences in {text!r}")
    context = scorer.encode(conditioning)
    total = 0.0
    for weight in nisf(sentences, stats):
        target = scorer.encode(weight.sentence)
        total += weight.nisf * scorer.logprob_cond(context, target)
    return total


def consistency(q: str, a: str, scorer: LmScorer, stats: CorpusStats) -> ConsistencyScore:
    """Consistency of answer *a* with question *q* under *scorer*.

    The forward term scores a's sentences given q; the backward term scores
    q's sentences given a.  NISF weights are normalized within a's sentences
    and within q's sentences separately.  Scorer failures propagate.
    """
    if not q.strip():
        raise ValueError("question must be non-empty")
    if not a.strip():
        raise ValueError("answer must be non-empty")
    forward = _weighted_term(a, q, scorer, stats)
    backward = _weighted_term(q, a, scorer, stats)
    return ConsistencyScore(value=forward + backward, forward_term=forward, backward_term=backward)
