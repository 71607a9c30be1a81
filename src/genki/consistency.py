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
from typing import Iterable, Mapping

from .corpus import CorpusStats, TokenSeq, split_sentences, tokenize
from .lm_core import LmScorer
from .textstats import TextStatsError, nisf


@dataclass(frozen=True)
class ConsistencyScore:
    """Total consistency value and its two directional terms."""

    value: float
    forward_term: float
    backward_term: float


@dataclass(frozen=True)
class PreparedText:
    """A text encoded for both roles it plays in a consistency score.

    *tokens* is the whole text as a conditioning context; *sentences* are
    its scoreable sentences as (NISF weight, tokens) targets, empty when it
    has none.
    """

    text: str
    tokens: TokenSeq
    sentences: tuple[tuple[float, TokenSeq], ...]


def prepare_text(text: str, scorer: LmScorer, stats: CorpusStats) -> PreparedText:
    """Split, weight and encode *text* once, for any number of scores.

    Each sentence is tokenized once: its words both filter it and weight it.
    """
    # Punctuation-only fragments carry no words to weight or score; drop them.
    pieces = [(s, words) for s in split_sentences(text) for words in [tokenize(s)] if words]
    tokens = scorer.encode(text)
    weights = nisf([s for s, _ in pieces], stats, [w for _, w in pieces]) if pieces else ()
    weighted = tuple(
        (w.nisf, tokens if w.sentence == text else scorer.encode(w.sentence)) for w in weights
    )
    return PreparedText(text, tokens, weighted)


def prepare_texts(
    texts: Iterable[str], scorer: LmScorer, stats: CorpusStats
) -> dict[str, PreparedText]:
    """prepare_text of each distinct text, keyed by the text."""
    return {text: prepare_text(text, scorer, stats) for text in dict.fromkeys(texts)}


def _weighted_term(text: PreparedText, conditioning: PreparedText, scorer: LmScorer) -> float:
    """NISF-weighted logprob of *text*'s sentences as continuations of *conditioning*."""
    if not text.sentences:
        raise TextStatsError(f"no scoreable sentences in {text.text!r}")
    total = 0.0
    for weight, target in text.sentences:
        total += weight * scorer.logprob_cond(conditioning.tokens, target)
    return total


def consistency(
    q: str,
    a: str,
    scorer: LmScorer,
    stats: CorpusStats,
    prepared: Mapping[str, PreparedText] | None = None,
) -> ConsistencyScore:
    """Consistency of answer *a* with question *q* under *scorer*.

    The forward term scores a's sentences given q; the backward term scores
    q's sentences given a.  NISF weights are normalized within a's sentences
    and within q's sentences separately.  *prepared* may hold q and a from
    prepare_texts with the same scorer and stats; a text it lacks is
    prepared here.  Scorer failures propagate.
    """
    if not q.strip():
        raise ValueError("question must be non-empty")
    if not a.strip():
        raise ValueError("answer must be non-empty")
    texts = prepared or {}
    q_text = texts.get(q) or prepare_text(q, scorer, stats)
    a_text = texts.get(a) or prepare_text(a, scorer, stats)
    forward = _weighted_term(a_text, q_text, scorer)
    backward = _weighted_term(q_text, a_text, scorer)
    return ConsistencyScore(value=forward + backward, forward_term=forward, backward_term=backward)
