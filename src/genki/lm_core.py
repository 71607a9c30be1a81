"""Language-model scoring interface, a trainable bigram model, and its losses.

Two objectives drive knowledge integration, both written as NLL to minimize:

    loss_f  instruction loss: NLL of each gold answer continuing its prompt
    loss_r  domain loss: NLL of each passage token given the tokens before it

and the combined objective lambda1 * loss_r + lambda2 * loss_f with
lambda1 > lambda2 > 0, so raw domain text carries more weight than the
instruction pairs.  ToyLm is the smallest autoregressive model that
exercises every term exactly: a V x V table of bigram logits trained by
plain gradient descent, deterministic under a seed.  Checkpoints are JSON
with the table packed as base64 float64 (schema version 2); the older
nested-list form is still read.
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .corpus import (
    TokenSeq,
    Vocabulary,
    checkpoint_int,
    read_checkpoint_json,
    write_checkpoint_json,
)

CHECKPOINT_SCHEMA_VERSION = 2


class LmScorer(Protocol):
    """Behavioral interface for anything that can score and extend token text."""

    def encode(self, text: str) -> TokenSeq: ...

    def logprob_cond(self, context: TokenSeq, target: TokenSeq) -> float: ...

    def generate(self, prompt: TokenSeq, max_tokens: int) -> TokenSeq: ...

    def generate_batch(self, prompts: Sequence[TokenSeq], max_tokens: int) -> list[TokenSeq]: ...


@dataclass(frozen=True)
class LossWeights:
    """Mixing weights for the combined objective; lambda1 > lambda2 > 0."""

    lambda1: float = 1.0
    lambda2: float = 0.5

    def __post_init__(self) -> None:
        if not (self.lambda1 > self.lambda2 > 0):
            raise ValueError(
                f"need lambda1 > lambda2 > 0, got {self.lambda1}, {self.lambda2}"
            )


@dataclass(frozen=True)
class TrainExample:
    """An instruction-plus-question input and the answer it should produce."""

    x: TokenSeq
    answer: TokenSeq

    def __post_init__(self) -> None:
        if not self.answer.tokens:
            raise ValueError("train example answer must be non-empty")


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def _logsumexp_rows(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1)
    return m + np.log(np.exp(logits - m[:, None]).sum(axis=1))


class ToyLm:
    """Trainable bigram model: logits[i, j] scores token j following token i.

    Greedy decoding, seeded initialization, no hidden state; small enough
    that every loss and gradient can be checked by hand.  The table is a
    read-only copy, so the per-row log-normalisers and greedy successors
    cached at construction always match it.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        seed: int = 0,
        learning_rate: float = 0.1,
        init_scale: float = 0.01,
        logits: np.ndarray | None = None,
    ):
        self.vocab = vocab
        self.seed = seed
        self.learning_rate = learning_rate
        self.step = 0
        if logits is None:
            rng = np.random.default_rng(seed)
            # init_scale=0 gives the uniform model (all logits equal)
            logits = rng.normal(0.0, init_scale, (vocab.size, vocab.size))
        logits = np.array(logits, dtype=np.float64)
        if logits.shape != (vocab.size, vocab.size):
            raise ValueError(f"logits must be {vocab.size}x{vocab.size}, got {logits.shape}")
        if not np.all(np.isfinite(logits)):
            raise ValueError("logits must be finite")
        logits.setflags(write=False)
        self._logits = logits
        self._log_norm = _logsumexp_rows(logits)
        self._greedy_next = logits.argmax(axis=1)

    @property
    def logits(self) -> np.ndarray:
        return self._logits

    @property
    def vocab_size(self) -> int:
        return self.vocab.size

    def encode(self, text: str) -> TokenSeq:
        return self.vocab.encode(text)

    def token_logprob(self, prev_id: int, next_id: int) -> float:
        """log P(next token | previous token) under the table."""
        return float(self._logits[prev_id, next_id] - self._log_norm[prev_id])

    def logprob_cond(self, context: TokenSeq, target: TokenSeq) -> float:
        """Total log-probability of *target* continuing *context*; always <= 0."""
        if not context.tokens:
            raise ValueError("bigram scoring needs a non-empty context")
        if not target.tokens:
            raise ValueError("target must be non-empty")
        total = 0.0
        prev = context.tokens[-1]
        for tok in target.tokens:
            total += self.token_logprob(prev, tok)
            prev = tok
        return total

    def generate(self, prompt: TokenSeq, max_tokens: int) -> TokenSeq:
        """Greedy continuation of *prompt*: the one-prompt case of generate_batch."""
        return self.generate_batch([prompt], max_tokens)[0]

    def generate_batch(self, prompts: Sequence[TokenSeq], max_tokens: int) -> list[TokenSeq]:
        """Greedy continuation of each prompt, stopping at ``</s>`` or the cap.

        A bigram continuation depends only on the prompt's last token, so
        each distinct last token is decoded once: max_tokens gathers over
        the argmax-successor table, with a mask of the rows that have not
        yet reached ``</s>``.  Argmax ties resolve to the lowest token id.
        The end token is not included in the output.
        """
        if any(not prompt.tokens for prompt in prompts):
            raise ValueError("generation needs a non-empty prompt")
        if max_tokens < 0:
            raise ValueError("max_tokens must be >= 0")
        last = np.array([prompt.tokens[-1] for prompt in prompts], dtype=np.intp)
        starts, row_of = np.unique(last, return_inverse=True)
        steps = np.empty((max_tokens, len(starts)), dtype=np.intp)
        lengths = np.zeros(len(starts), dtype=np.intp)
        alive = np.ones(len(starts), dtype=bool)
        prev = starts
        for step in range(max_tokens):
            prev = self._greedy_next[prev]
            alive &= prev != self.vocab.eos_id
            if not alive.any():
                break
            steps[step] = prev
            lengths += alive
        outputs = []
        for column, length in zip(steps.T.tolist(), lengths.tolist()):
            tokens = column[:length]
            outputs.append(TokenSeq(tuple(tokens), self.vocab.decode(tokens)))
        return [outputs[row] for row in row_of.tolist()]


def loss_f(model: ToyLm, batch: Sequence[TrainExample]) -> float:
    """Instruction loss: summed NLL of each answer continuing its input."""
    if not batch:
        raise ValueError("loss_f needs a non-empty batch")
    total = 0.0
    for ex in batch:
        total -= model.logprob_cond(ex.x, ex.answer)
    return total


def loss_r(model: ToyLm, passages: Sequence[TokenSeq]) -> float:
    """Domain loss: summed NLL of each passage token given its predecessor.

    Every passage needs at least 2 tokens (one transition).  An empty
    passage list contributes nothing and scores 0.
    """
    total = 0.0
    for seq in passages:
        if len(seq.tokens) < 2:
            raise ValueError(f"passage too short to score transitions: {seq.text!r}")
        for prev, nxt in zip(seq.tokens, seq.tokens[1:]):
            total -= model.token_logprob(prev, nxt)
    return total


def loss_combined(
    model: ToyLm,
    passages: Sequence[TokenSeq],
    batch: Sequence[TrainExample],
    w: LossWeights,
) -> float:
    """The training objective: w.lambda1 * loss_r + w.lambda2 * loss_f."""
    return w.lambda1 * loss_r(model, passages) + w.lambda2 * loss_f(model, batch)


def _weighted_counts(
    model: ToyLm,
    passages: Sequence[TokenSeq],
    batch: Sequence[TrainExample],
    w: LossWeights,
) -> np.ndarray:
    """Transition counts weighted by the loss each transition belongs to.

    The combined loss depends on the parameters only through these counts:
    loss = sum_i n_i * logsumexp(theta_i) - sum_ij counts_ij * theta_ij.
    """
    counts = np.zeros((model.vocab_size, model.vocab_size))
    for seq in passages:
        if len(seq.tokens) < 2:
            raise ValueError(f"passage too short to score transitions: {seq.text!r}")
        for prev, nxt in zip(seq.tokens, seq.tokens[1:]):
            counts[prev, nxt] += w.lambda1
    for ex in batch:
        if not ex.x.tokens:
            raise ValueError("bigram scoring needs a non-empty context")
        prev = ex.x.tokens[-1]
        for tok in ex.answer.tokens:
            counts[prev, tok] += w.lambda2
            prev = tok
    return counts


def loss_combined_grad(
    model: ToyLm,
    passages: Sequence[TokenSeq],
    batch: Sequence[TrainExample],
    w: LossWeights,
) -> np.ndarray:
    """Exact gradient of loss_combined with respect to the logit table."""
    counts = _weighted_counts(model, passages, batch, w)
    row_totals = counts.sum(axis=1)
    return _softmax_rows(model.logits) * row_totals[:, None] - counts


def train(
    model: ToyLm,
    passages: Sequence[TokenSeq],
    batch: Sequence[TrainExample],
    w: LossWeights,
    steps: int,
) -> ToyLm:
    """Full-batch gradient descent on the combined loss.

    Returns a new model; the input model is left untouched.  Uses the
    model's learning_rate.  Raises if the loss goes non-finite.  Only rows
    with transitions are updated: every other row has a zero gradient and
    keeps its logits bit for bit.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not batch:
        raise ValueError("training needs a non-empty instruction batch")
    counts = _weighted_counts(model, passages, batch, w)
    row_totals = counts.sum(axis=1)
    active = np.flatnonzero(row_totals > 0)
    counts, row_totals = counts[active], row_totals[active]
    theta = model.logits[active]
    # overflow shows up as a non-finite loss, which we check for explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            # one max/exp/sum per step serves both the loss and the softmax
            m = theta.max(axis=1, keepdims=True)
            expd = np.exp(theta - m)
            z = expd.sum(axis=1, keepdims=True)
            loss = float(row_totals @ (m[:, 0] + np.log(z[:, 0])) - (counts * theta).sum())
            if not np.isfinite(loss):
                raise ValueError(
                    f"training diverged (non-finite loss) at step {step}; lower the learning rate"
                )
            grad = expd / z * row_totals[:, None] - counts
            theta = theta - model.learning_rate * grad
    logits = model.logits.copy()
    logits[active] = theta
    trained = ToyLm(model.vocab, model.seed, model.learning_rate, logits=logits)
    trained.step = model.step + steps
    return trained


def save_checkpoint(model: ToyLm, path: str | Path) -> None:
    """Write the model as JSON {schema_version, vocab, logits, seed, step}, atomically.

    ``logits`` is base64 of the little-endian float64 table in row-major
    order, so the round trip is exact.
    """
    table = np.ascontiguousarray(model.logits, dtype="<f8")
    payload = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "vocab": model.vocab.words(),
        "logits": base64.b64encode(table.tobytes()).decode("ascii"),
        "seed": model.seed,
        "step": model.step,
    }
    write_checkpoint_json(path, payload)


def _checkpoint_logits(payload: dict, size: int) -> np.ndarray:
    raw = payload["logits"]
    if "schema_version" not in payload:
        # version 1: the table as nested JSON lists
        try:
            return np.array(raw, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError("checkpoint logits are not a numeric table") from exc
    if payload["schema_version"] != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {payload['schema_version']!r}")
    if not isinstance(raw, str):
        raise ValueError("checkpoint logits must be a base64 string")
    try:
        data = base64.b64decode(raw, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"checkpoint logits are not valid base64 ({exc})") from exc
    if len(data) != 8 * size * size:
        raise ValueError(
            f"checkpoint logits hold {len(data)} bytes, need {8 * size * size} "
            f"for a {size}x{size} table"
        )
    return np.frombuffer(data, dtype="<f8").reshape(size, size)


def load_checkpoint(path: str | Path) -> ToyLm:
    """Rebuild a ToyLm from save_checkpoint() output; exact float round-trip.

    Also reads version-1 checkpoints (nested lists, no schema_version).
    Any malformed content raises ValueError.
    """
    payload = read_checkpoint_json(path)
    missing = {"vocab", "logits", "seed", "step"} - set(payload)
    if missing:
        raise ValueError(f"{path}: checkpoint missing fields: {sorted(missing)}")
    words = payload["vocab"]
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise ValueError(f"{path}: checkpoint vocab must be a list of strings")
    seed = checkpoint_int(payload, "seed", path)
    step = checkpoint_int(payload, "step", path)
    try:
        vocab = Vocabulary(words)
        model = ToyLm(vocab, seed=seed, logits=_checkpoint_logits(payload, vocab.size))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    model.step = step
    return model
