"""Two-candidate answer selection: judgment score, routing, external judge.

Both answer paths produce a candidate; the judgment score decides who picks
the winner.  A large reward gap relative to the consistency gap drives the
score negative and the reward model decides; otherwise an external judge
does, except that two candidates with the same text leave it nothing to
choose and it is not asked.  Every selection emits a ScoreBundle so routing
decisions can be audited after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Protocol

from .consistency import PreparedText, consistency
from .corpus import CorpusStats, tokenize
from .lm_core import LmScorer
from .reward import FormatSpec, RewardModel

REWARD_MEAN_EPSILON = 1e-9


class Provenance(Enum):
    """Which answer path produced a candidate."""

    FULL_KNOWLEDGE = "FullKnowledge"
    RETRIEVED_KNOWLEDGE = "RetrievedKnowledge"


class Route(Enum):
    """Who picked the winner."""

    REWARD_PICK = "RewardPick"
    EXTERNAL_PICK = "ExternalPick"


class Choice(Enum):
    FIRST = "First"
    SECOND = "Second"


@dataclass(frozen=True)
class AnswerCandidate:
    """One answer text with the path that produced it."""

    text: str
    provenance: Provenance
    postprocessed: bool = False


@dataclass(frozen=True)
class ScoreBundle:
    """Everything that went into one routing decision.

    reward_guard records when the reward-mean denominator needed the
    zero-mean epsilon or the negative-mean absolute value.
    """

    cs1: float
    cs2: float
    rm1: float
    rm2: float
    len1: int
    len2: int
    s_c: float
    route: Route
    reward_guard: str | None = None

    def __post_init__(self) -> None:
        if self.len1 < 1 or self.len2 < 1:
            raise ValueError("candidate token lengths must be >= 1")
        if (self.route is Route.REWARD_PICK) != (self.s_c < 0):
            raise ValueError(f"route {self.route} inconsistent with s_c={self.s_c}")


class ExternalJudge(Protocol):
    """Total, deterministic-for-fixed-state choice between two answers."""

    def choose(self, question: str, a1: str, a2: str, format: FormatSpec) -> Choice: ...


class JudgeError(RuntimeError):
    """External judge failure; carries the score bundle computed so far."""

    def __init__(self, message: str, bundle: ScoreBundle):
        super().__init__(message)
        self.bundle = bundle


def _guarded_reward_mean(rm1: float, rm2: float) -> tuple[float, str | None]:
    """Arithmetic reward mean made safe as a denominator.

    A zero mean becomes a small positive epsilon and a negative mean is
    replaced by its absolute value; either adjustment is reported so it can
    land in the audit bundle.
    """
    mean = (rm1 + rm2) / 2.0
    if mean == 0.0:
        return REWARD_MEAN_EPSILON, "zero_mean"
    if mean < 0.0:
        return -mean, "negative_mean"
    return mean, None


def judgment_score(
    cs1: float, cs2: float, rm1: float, rm2: float, len1: int, len2: int
) -> float:
    """exp(|cs1-cs2|) - |rm1-rm2| / (mean reward * mean length).

    Negative values mean the reward gap dominates and the reward model
    should pick; zero or positive routes to the external judge.
    """
    if len1 < 1 or len2 < 1:
        raise ValueError("candidate token lengths must be >= 1")
    mean_rm, _ = _guarded_reward_mean(rm1, rm2)
    mean_len = (len1 + len2) / 2.0
    try:
        growth = math.exp(abs(cs1 - cs2))
    except OverflowError:
        growth = math.inf
    return growth - abs(rm1 - rm2) / (mean_rm * mean_len)


class StubJudge:
    """Offline judge: picks the answer sharing more word tokens with the question."""

    def choose(self, question: str, a1: str, a2: str, format: FormatSpec) -> Choice:
        question_words = set(tokenize(question))
        overlap1 = len(set(tokenize(a1)) & question_words)
        overlap2 = len(set(tokenize(a2)) & question_words)
        return Choice.SECOND if overlap2 > overlap1 else Choice.FIRST


def _tie_winner(cand1: AnswerCandidate, cand2: AnswerCandidate) -> AnswerCandidate:
    """The full-knowledge candidate, then the first."""
    if (
        cand2.provenance is Provenance.FULL_KNOWLEDGE
        and cand1.provenance is not Provenance.FULL_KNOWLEDGE
    ):
        return cand2
    return cand1


def resolve_winner(
    q: str,
    cand1: AnswerCandidate,
    cand2: AnswerCandidate,
    bundle: ScoreBundle,
    judge: ExternalJudge,
    format: FormatSpec,
) -> AnswerCandidate:
    """Apply the routing decision a ScoreBundle encodes.

    RewardPick: higher reward wins.  ExternalPick: the judge chooses, unless
    both candidates have the same text, when its choice could not change the
    answer and it is not asked.  An exact reward tie and an unasked judge
    both fall to _tie_winner().  Judge failures raise JudgeError carrying the
    bundle.
    """
    if bundle.route is Route.REWARD_PICK:
        if bundle.rm1 > bundle.rm2:
            return cand1
        if bundle.rm2 > bundle.rm1:
            return cand2
        return _tie_winner(cand1, cand2)
    if cand1.text == cand2.text:
        return _tie_winner(cand1, cand2)
    try:
        choice = judge.choose(q, cand1.text, cand2.text, format)
    except Exception as exc:
        raise JudgeError(f"external judge failed: {exc}", bundle) from exc
    if choice not in (Choice.FIRST, Choice.SECOND):
        raise JudgeError(f"external judge returned invalid choice {choice!r}", bundle)
    return cand1 if choice is Choice.FIRST else cand2


def select(
    q: str,
    cand1: AnswerCandidate,
    cand2: AnswerCandidate,
    scorer: LmScorer,
    stats: CorpusStats,
    rm: RewardModel,
    judge: ExternalJudge,
    format: FormatSpec,
    prepared: Mapping[str, PreparedText] | None = None,
) -> tuple[AnswerCandidate, ScoreBundle]:
    """Pick the final answer between two postprocessed candidates.

    Scores both (consistency, reward, length), builds the ScoreBundle, and
    lets resolve_winner() apply it: s_c < 0 means the reward model picks,
    otherwise the external judge does.  The scorers are pure, so two
    candidates with the same text are scored once, and the judge is not
    asked to choose between them (the full-knowledge one wins).  *prepared*
    is passed on to consistency().
    """
    if not cand1.postprocessed or not cand2.postprocessed:
        raise ValueError("both candidates must be postprocessed before selection")
    same = cand1.text == cand2.text
    len1 = len(tokenize(cand1.text))
    len2 = len1 if same else len(tokenize(cand2.text))
    if len1 < 1 or len2 < 1:
        raise ValueError("candidates must contain at least one word token")
    cs1 = consistency(q, cand1.text, scorer, stats, prepared).value
    cs2 = cs1 if same else consistency(q, cand2.text, scorer, stats, prepared).value
    rm1 = rm.score(cand1.text, format, q)
    rm2 = rm1 if same else rm.score(cand2.text, format, q)
    s_c = judgment_score(cs1, cs2, rm1, rm2, len1, len2)
    _, guard = _guarded_reward_mean(rm1, rm2)
    route = Route.REWARD_PICK if s_c < 0 else Route.EXTERNAL_PICK
    bundle = ScoreBundle(
        cs1=cs1, cs2=cs2, rm1=rm1, rm2=rm2, len1=len1, len2=len2,
        s_c=s_c, route=route, reward_guard=guard,
    )
    return resolve_winner(q, cand1, cand2, bundle, judge, format), bundle


def bundle_record(bundle: ScoreBundle) -> dict:
    """The one JSON-ready form of a ScoreBundle, in runs.jsonl and audit.jsonl: its fields."""
    return {**vars(bundle), "route": bundle.route.value}
