"""Language-model scoring interface, a trainable bigram model, and its losses.

Two objectives drive knowledge integration, both written as NLL to minimize:

    loss_f  instruction loss: NLL of each gold answer continuing its prompt
    loss_r  domain loss: NLL of each passage token given the tokens before it

and the combined objective lambda1 * loss_r + lambda2 * loss_f with
lambda1 > lambda2 > 0, so raw domain text carries more weight than the
instruction pairs.  ToyLm is the smallest autoregressive model that
exercises every term exactly: bigram logits trained by plain gradient
descent, deterministic for its inputs.

The model is stored in sparse rows.  Row i holds one default logit d_i and
its k_i observed columns with their own logits; every other column of the
row has logit d_i.  That is exact, not an approximation: a new model is
uniform (every d_i = 0, no entries), and under the combined loss every
unobserved column of a row gets the same gradient softmax_ij * n_i, so
those columns stay equal to each other for ever.  Training, scoring and
decoding therefore cost O(V + observed transitions), never V x V.
Checkpoints are JSON (schema version 3) with the rows packed as base64
little-endian arrays; older schemas are rejected with CheckpointSchemaError.
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .corpus import (
    INTEGER,
    STRING,
    STRINGS,
    TokenSeq,
    Vocabulary,
    check,
    parse_json_object,
    write_checkpoint_json,
)

CHECKPOINT_SCHEMA_VERSION = 3


class CheckpointSchemaError(ValueError):
    """A checkpoint in a schema this version no longer reads; retraining rewrites it."""


class LmScorer(Protocol):
    """Behavioral interface for anything that can score token text."""

    def encode(self, text: str) -> TokenSeq: ...

    def logprob_cond(self, context: TokenSeq, target: TokenSeq) -> float: ...


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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values), by sorting: np.unique's hash path imports numpy.ma (about 1.25 MB)."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class _Segments:
    """Consecutive non-empty segments of a flat array, one per model row."""

    def __init__(self, lengths: np.ndarray):
        self.lengths = lengths
        self.starts = np.cumsum(lengths) - lengths
        self.of = np.repeat(np.arange(len(lengths)), lengths)  # segment of each element
        # np.add.reduceat adds in another order than np.sum, so segments of
        # one length are summed as the rows of one 2-d block: a full row
        # then sums exactly as the same row of a dense table would
        self._blocks = [
            (which, self.starts[which, None] + np.arange(length))
            for length in _distinct(lengths).tolist()
            for which in [np.flatnonzero(lengths == length)]
        ]

    def sums(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros(len(self.lengths))
        for which, index in self._blocks:
            out[which] = values[index].sum(axis=1)
        return out

    def softmax_terms(self, vals: np.ndarray, default: np.ndarray, free: np.ndarray) -> tuple:
        """Per segment: max logit m, e^(vals - m), e^(default - m), normaliser z.

        z adds the segment's e^(vals - m) and free * e^(default - m), free
        being the count of columns at the default logit.  A full row
        (free == 0) has no default column; its unused term is clamped so it
        cannot overflow.
        """
        m = np.maximum.reduceat(vals, self.starts)
        m = np.where(free > 0, np.maximum(m, default), m)
        e = np.exp(vals - m[self.of])
        e_default = np.exp(np.minimum(default - m, 0.0))
        return m, e, e_default, self.sums(e) + free * e_default


class ToyLm:
    """Trainable bigram model in sparse rows: P(next token | previous token).

    Row i keeps a default logit ``default[i]`` and ``lengths[i]`` observed
    entries, the slice of ``cols`` (strictly increasing column ids) and
    ``vals`` (their logits) that starts at the sum of the lengths before it.
    ``ToyLm(vocab)`` is the uniform model; ``ToyLm.from_rows`` builds every
    other.  The arrays are read-only copies, so the per-row log-normalisers
    and greedy successors cached at construction always match them.  Greedy
    decoding, no hidden state; small enough that every loss and gradient
    can be checked by hand.
    """

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self.step = 0
        self._set_rows(np.zeros(vocab.size), np.zeros(vocab.size, np.intp), (), ())

    @classmethod
    def from_rows(
        cls,
        vocab: Vocabulary,
        default: np.ndarray,
        lengths: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ) -> ToyLm:
        """A model from its sparse rows; ValueError unless they are well formed."""
        model = cls(vocab)
        model._set_rows(default, lengths, cols, vals)
        return model

    def _set_rows(self, default, lengths, cols, vals) -> None:
        size = self.vocab.size
        default = np.array(default, dtype=np.float64)
        lengths = np.array(lengths, dtype=np.intp)
        cols = np.array(cols, dtype=np.intp)
        vals = np.array(vals, dtype=np.float64)
        if default.shape != (size,) or lengths.shape != (size,):
            raise ValueError(f"default logits and row lengths must each hold {size} values")
        if cols.ndim != 1 or vals.shape != cols.shape:
            raise ValueError("columns and values must be 1-d arrays of one length")
        if lengths.min(initial=0) < 0 or int(lengths.sum()) != len(cols):
            raise ValueError(f"row lengths must be >= 0 and sum to the {len(cols)} entries")
        if len(cols) and (cols.min() < 0 or cols.max() >= size):
            raise ValueError(f"columns must lie in [0, {size})")
        row_of = np.repeat(np.arange(size), lengths)
        same_row = row_of[1:] == row_of[:-1]
        if not np.all(np.diff(cols)[same_row] > 0):
            raise ValueError("columns must be strictly increasing within each row")
        if not (np.all(np.isfinite(default)) and np.all(np.isfinite(vals))):
            raise ValueError("logits must be finite")

        # Rows without entries are uniform and emit id 0, where every column
        # ties; rows with entries are segments of cols and vals.
        rows = np.flatnonzero(lengths)
        seg = _Segments(lengths[rows])
        free = size - seg.lengths  # columns at the default logit
        d = default[rows]
        m, _, _, z = seg.softmax_terms(vals, d, free)
        log_norm = default + np.log(size)
        log_norm[rows] = m + np.log(z)

        # Greedy successor, ties to the lowest id, the default columns included.
        top = np.maximum.reduceat(vals, seg.starts)
        best_seen = np.minimum.reduceat(np.where(vals == top[seg.of], cols, size), seg.starts)
        # cols strictly increase, so the entries at their own offset in the
        # row form a prefix, whose length is the lowest unobserved column
        at_offset = cols == np.arange(len(cols)) - seg.starts[seg.of]
        lowest_free = np.add.reduceat(at_offset.astype(np.intp), seg.starts)
        greedy = np.zeros(size, np.intp)
        greedy[rows] = np.where(
            (free == 0) | (top > d),
            best_seen,
            np.where(top < d, lowest_free, np.minimum(best_seen, lowest_free)),
        )

        self.default = _read_only(default)
        self.lengths = _read_only(lengths)
        self.cols = _read_only(cols)
        self.vals = _read_only(vals)
        self._row_of = row_of
        self._log_norm = log_norm
        self._greedy_next = greedy

    @cached_property
    def _logprob_lookup(self) -> tuple[dict[int, float], list[float]]:
        # log-probability of each entry keyed by prev * V + next, and of each
        # row's default columns
        keys = (self._row_of * self.vocab.size + self.cols).tolist()
        entries = dict(zip(keys, (self.vals - self._log_norm[self._row_of]).tolist()))
        return entries, (self.default - self._log_norm).tolist()

    def encode(self, text: str) -> TokenSeq:
        return self.vocab.encode(text)

    def token_logprob(self, prev_id: int, next_id: int) -> float:
        """log P(next token | previous token)."""
        entries, defaults = self._logprob_lookup
        return entries.get(prev_id * self.vocab.size + next_id, defaults[prev_id])

    def logprob_cond(self, context: TokenSeq, target: TokenSeq) -> float:
        """Total log-probability of *target* continuing *context*; always <= 0."""
        if not context.tokens:
            raise ValueError("bigram scoring needs a non-empty context")
        if not target.tokens:
            raise ValueError("target must be non-empty")
        # token_logprob inlined: the same entries, added in the same order
        entries, defaults = self._logprob_lookup
        size = self.vocab.size
        total = 0.0
        prev = context.tokens[-1]
        for tok in target.tokens:
            total += entries.get(prev * size + tok, defaults[prev])
            prev = tok
        return total

    def generate(self, prompt: TokenSeq, max_tokens: int) -> TokenSeq:
        """Greedy continuation of *prompt*: the one-prompt case of generate_batch."""
        return self.generate_batch([prompt], max_tokens)[0]

    def generate_batch(self, prompts: Sequence[TokenSeq], max_tokens: int) -> list[TokenSeq]:
        """Greedy continuation of each prompt, stopping at ``</s>`` or the cap.

        A bigram continuation depends only on the prompt's last token, so
        each distinct last token is decoded once: max_tokens gathers over
        the greedy-successor array, with a mask of the rows that have not
        yet reached ``</s>``.  Argmax ties resolve to the lowest token id,
        the default columns included: a row with no entries emits ``<unk>``
        (id 0), and a row whose default beats every entry emits its lowest
        unobserved id, exactly as the dense table would.  The end token is
        not included in the output.
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
) -> tuple[np.ndarray, np.ndarray]:
    """Observed transitions, weighted by the loss each one belongs to.

    Returns (codes, counts) in COO form: the sorted distinct codes
    prev * V + next and each one's summed weight.  The combined loss
    depends on the parameters only through these counts:
    loss = sum_i n_i * logsumexp(theta_i) - sum_ij counts_ij * theta_ij.
    """
    size = model.vocab.size
    codes: list[int] = []
    for seq in passages:
        toks = seq.tokens
        if len(toks) < 2:
            raise ValueError(f"passage too short to score transitions: {seq.text!r}")
        codes += [prev * size + nxt for prev, nxt in zip(toks, toks[1:])]
    domain = len(codes)
    for ex in batch:
        if not ex.x.tokens:
            raise ValueError("bigram scoring needs a non-empty context")
        chain = (ex.x.tokens[-1],) + ex.answer.tokens
        codes += [prev * size + nxt for prev, nxt in zip(chain, chain[1:])]
    weights = np.full(len(codes), w.lambda2)
    weights[:domain] = w.lambda1
    distinct, which = np.unique(np.array(codes, dtype=np.int64), return_inverse=True)
    # bincount adds each code's weights in input order
    return distinct, np.bincount(which, weights=weights, minlength=len(distinct))


def train(
    model: ToyLm,
    passages: Sequence[TokenSeq],
    batch: Sequence[TrainExample],
    w: LossWeights,
    steps: int,
    learning_rate: float,
) -> ToyLm:
    """Full-batch gradient descent on the combined loss.

    Returns a new model; the input model is left untouched.  Raises if the
    loss goes non-finite.  A row descends over the union of its entries and
    its transitions (a new entry starts at the row's default logit) plus
    its default logit, which stands for the V - k unobserved columns.  A
    row without transitions has a zero gradient and keeps its logits bit
    for bit.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not batch:
        raise ValueError("training needs a non-empty instruction batch")
    size = model.vocab.size
    codes, counts = _weighted_counts(model, passages, batch, w)
    own = model._row_of * size + model.cols
    entries = _distinct(np.concatenate((own, codes)))
    entry_row = entries // size
    theta = model.default[entry_row]
    theta[np.searchsorted(entries, own)] = model.vals
    c = np.zeros(len(entries))
    c[np.searchsorted(entries, codes)] = counts

    lengths = np.bincount(entry_row, minlength=size)
    rows = np.flatnonzero(lengths)
    seg = _Segments(lengths[rows])
    n = seg.sums(c)
    free = (size - seg.lengths).astype(np.float64)
    d = model.default[rows]
    # overflow shows up as a non-finite loss, which we check for explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            # one max/exp/sum per step serves both the loss and the softmax
            m, e, e_default, z = seg.softmax_terms(theta, d, free)
            loss = float(n @ (m + np.log(z)) - c @ theta)
            if not np.isfinite(loss):
                raise ValueError(
                    f"training diverged (non-finite loss) at step {step}; lower the learning rate"
                )
            theta = theta - learning_rate * (e / z[seg.of] * n[seg.of] - c)
            d = d - learning_rate * (e_default / z * n)

    default = model.default.copy()
    default[rows] = d
    trained = ToyLm.from_rows(model.vocab, default, lengths, entries % size, theta)
    trained.step = model.step + steps
    return trained


# The row arrays of a checkpoint, in ToyLm.from_rows order, with their dtypes.
_ROWS = {"default": "<f8", "lengths": "<i4", "cols": "<i4", "vals": "<f8"}


def _pack(array: np.ndarray, dtype: str) -> str:
    return base64.b64encode(np.ascontiguousarray(array, dtype=dtype).tobytes()).decode("ascii")


def save_checkpoint(model: ToyLm, path: str | Path) -> None:
    """Write the model as schema-3 JSON, atomically.

    Fields: ``schema_version``, ``vocab``, ``step``, and the rows
    as base64 of little-endian arrays: ``default`` (float64, one per row),
    ``lengths`` (int32, entries per row), ``cols`` (int32) and ``vals``
    (float64), so the round trip is exact.
    """
    payload = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "vocab": model.vocab.words(),
        "step": model.step,
        **{key: _pack(getattr(model, key), dtype) for key, dtype in _ROWS.items()},
    }
    write_checkpoint_json(path, payload)


def _unpack(key: str, raw: str, dtype: str) -> np.ndarray:
    try:
        data = base64.b64decode(raw, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"checkpoint field {key!r} is not valid base64 ({exc})") from exc
    width = np.dtype(dtype).itemsize
    if len(data) % width:
        raise ValueError(f"checkpoint field {key!r} holds {len(data)} bytes, not {width}-byte values")
    return np.frombuffer(data, dtype=dtype)


def load_checkpoint(path: str | Path) -> ToyLm:
    """Rebuild a ToyLm from save_checkpoint() output; exact float round-trip.

    A checkpoint of another schema (1 and 2 stored a dense table) raises
    CheckpointSchemaError.  Any other malformed content raises ValueError:
    a field missing or of the wrong kind, row lengths that do not sum to
    the entry count, columns out of range or not strictly increasing within
    a row, or a non-finite logit.
    """
    payload = parse_json_object(Path(path).read_bytes(), path)
    version = payload.get("schema_version", 1)
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointSchemaError(f"{path}: unsupported checkpoint schema {version!r}")
    words = check(payload.get("vocab"), STRINGS, "vocab", path)
    step = check(payload.get("step"), INTEGER, "step", path)
    packed = {key: check(payload.get(key), STRING, key, path) for key in _ROWS}
    try:
        model = ToyLm.from_rows(
            Vocabulary(words), *(_unpack(key, packed[key], dtype) for key, dtype in _ROWS.items())
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    model.step = step
    return model
