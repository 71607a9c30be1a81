"""Reward scoring of (answer, format) pairs and pairwise preference training.

The training loss for a preference pair is -log sigmoid(score(A+) -
score(A-)): zero-margin pairs cost ln 2 and the loss falls monotonically as
the positive answer pulls ahead.  The toy model is a linear scorer over
three hand features; anything fancier (embedding-backed scorers) plugs in
through the same score(answer, format, question) interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .corpus import NUMBER, AnswerKind, check, parse_json_object, tokenize, write_checkpoint_json

FEATURE_NAMES = ("answer_length", "format_overlap", "question_fraction")
CHECKPOINT_SCHEMA_VERSION = 1


class RewardModel(Protocol):
    """Scores how well an answer to *question* satisfies a format request."""

    def score(self, answer: str, format: "FormatSpec", question: str = "") -> float: ...


@dataclass(frozen=True)
class FormatSpec:
    """A requested answer shape: kind, length cap, and the wording judges see."""

    kind: AnswerKind
    max_tokens: int
    description: str = ""

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")

    @cached_property
    def description_words(self) -> frozenset[str]:
        """The distinct tokens of the description, tokenized once."""
        return frozenset(tokenize(self.description))

    @property
    def wording(self) -> str:
        """The format as judges name it: the description, else the kind."""
        return self.description or self.kind.value


@dataclass(frozen=True)
class PreferencePair:
    """A preferred answer and a rejected one for the same format request.

    The question is optional context; the question-fraction feature reads it
    when present.
    """

    positive: str
    negative: str
    format: FormatSpec
    question: str = ""

    def __post_init__(self) -> None:
        if self.positive == self.negative:
            raise ValueError("preference pair needs two distinct answers")


def extract_features(answer: str, format: FormatSpec, question: str = "") -> np.ndarray:
    """The three hand features the toy model scores with.

    answer_length: answer token count.  format_overlap: distinct answer
    tokens also present in the format description.  question_fraction:
    fraction of distinct answer tokens that appear in the question (0 with
    no question).
    """
    toks = tokenize(answer)
    distinct = set(toks)
    question_words = set(tokenize(question))
    fraction = len(distinct & question_words) / len(distinct) if distinct and question else 0.0
    return np.array([float(len(toks)), float(len(distinct & format.description_words)), fraction])


class ToyRewardModel:
    """Linear reward over extract_features(); weights train on preference pairs.

    A new model starts at zero weights.
    """

    def __init__(self, weights: np.ndarray | Sequence[float] | None = None):
        if weights is None:
            weights = np.zeros(len(FEATURE_NAMES))
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(FEATURE_NAMES),):
            raise ValueError(f"weights must have shape ({len(FEATURE_NAMES)},)")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        self.weights = weights

    def score(self, answer: str, format: FormatSpec, question: str = "") -> float:
        return float(self.weights @ extract_features(answer, format, question))


def pairwise_loss(model: RewardModel, pair: PreferencePair) -> float:
    """-log sigmoid(score(positive) - score(negative)); ln 2 at zero margin."""
    pos = model.score(pair.positive, pair.format, pair.question)
    neg = model.score(pair.negative, pair.format, pair.question)
    return float(np.logaddexp(0.0, -(pos - neg)))


def _feature_delta(pair: PreferencePair) -> np.ndarray:
    """Features of the positive answer minus those of the negative one."""
    return extract_features(pair.positive, pair.format, pair.question) - extract_features(
        pair.negative, pair.format, pair.question
    )


def _delta_grad(weights: np.ndarray, delta: np.ndarray) -> np.ndarray:
    margin = float(weights @ delta)
    # d/dm of -log sigmoid(m) is -sigmoid(-m); exp(-softplus(m)) is a
    # stable sigmoid(-m)
    return -np.exp(-np.logaddexp(0.0, margin)) * delta


def pairwise_loss_grad(model: ToyRewardModel, pair: PreferencePair) -> np.ndarray:
    """Exact gradient of pairwise_loss with respect to the toy weights."""
    return _delta_grad(model.weights, _feature_delta(pair))


def train_reward(
    model: ToyRewardModel, pairs: Sequence[PreferencePair], steps: int, learning_rate: float
) -> ToyRewardModel:
    """Full-batch gradient descent on the mean pairwise loss.

    Returns a new model; steps=0 returns an identical copy.  Deterministic
    for a fixed starting model.  Each pair's feature difference is computed
    once; every step adds the per-pair gradients in pair order.
    """
    if not pairs:
        raise ValueError("train_reward needs a non-empty pair list")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    trained = ToyRewardModel(model.weights.copy())
    deltas = [_feature_delta(pair) for pair in pairs]
    for step in range(steps):
        grad = np.zeros_like(trained.weights)
        for delta in deltas:
            grad += _delta_grad(trained.weights, delta)
        grad /= len(pairs)
        if not np.all(np.isfinite(grad)):
            raise ValueError(f"reward training diverged (non-finite gradient) at step {step}")
        trained.weights = trained.weights - learning_rate * grad
    return trained


def save_reward_checkpoint(model: ToyRewardModel, path: str | Path) -> None:
    """Write the weights plus the feature schema they were trained against, atomically."""
    payload = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "features": list(FEATURE_NAMES),
        "weights": [float(v) for v in model.weights],
    }
    write_checkpoint_json(path, payload)


def load_reward_checkpoint(path: str | Path) -> ToyRewardModel:
    """Rebuild a ToyRewardModel; any malformed content raises ValueError.

    Keys it does not read, such as the ``seed`` of files written when the
    weights started random, are ignored.
    """
    payload = parse_json_object(Path(path).read_bytes(), path)
    if payload.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema version {payload.get('schema_version')!r}")
    if payload.get("features") != list(FEATURE_NAMES):
        raise ValueError(f"{path}: feature schema mismatch: {payload.get('features')!r}")
    weights = payload.get("weights")
    if not isinstance(weights, list) or len(weights) != len(FEATURE_NAMES):
        raise ValueError(f"{path}: field 'weights' must be a list of {len(FEATURE_NAMES)} numbers")
    return ToyRewardModel([check(w, NUMBER, f"weights[{i}]", path) for i, w in enumerate(weights)])
