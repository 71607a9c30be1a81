"""Fixtures shared by more than one test module."""

import struct

import numpy as np
import pytest

from genki.lm_core import ToyLm
from genki.retriever import MAGIC


def _index_file_bytes(matrix, ids):
    raws = [pid.encode("utf-8") for pid in ids]
    return (
        MAGIC + struct.pack("<IQ", matrix.shape[1], matrix.shape[0])
        + np.asarray(matrix, dtype="<f4").tobytes()
        + b"".join(struct.pack("<I", len(raw)) + raw for raw in raws)
    )


@pytest.fixture
def index_file_bytes():
    """The index file layout of (matrix, ids), built without DenseIndex or save_index."""
    return _index_file_bytes


def _dense_model(vocab, table):
    # every row stores all V columns, so its default logit (0) stands for none
    table = np.asarray(table, dtype=np.float64)
    size = vocab.size
    if table.shape != (size, size):
        raise ValueError(f"table must be {size}x{size}, got {table.shape}")
    return ToyLm.from_rows(
        vocab, np.zeros(size), np.full(size, size), np.tile(np.arange(size), size), table.ravel()
    )


def _dense_logits(model):
    size = model.vocab.size
    table = np.repeat(model.default[:, None], size, axis=1)
    table[np.repeat(np.arange(size), model.lengths), model.cols] = model.vals
    return table


def _loss_combined_grad(model, passages, batch, w):
    size = model.vocab.size
    counts = np.zeros((size, size))
    for seq in passages:
        for prev, nxt in zip(seq.tokens, seq.tokens[1:]):
            counts[prev, nxt] += w.lambda1
    for ex in batch:
        chain = ex.x.tokens[-1:] + ex.answer.tokens
        for prev, nxt in zip(chain, chain[1:]):
            counts[prev, nxt] += w.lambda2
    logits = _dense_logits(model)
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    softmax = shifted / shifted.sum(axis=1, keepdims=True)
    return softmax * counts.sum(axis=1, keepdims=True) - counts


@pytest.fixture
def dense_model():
    """dense_model(vocab, table): the ToyLm whose rows store every cell of a V x V table."""
    return _dense_model


@pytest.fixture
def dense_logits():
    """dense_logits(model): the model's V x V logit table, a new writable array."""
    return _dense_logits


@pytest.fixture
def loss_combined_grad():
    """loss_combined_grad(model, passages, batch, w): the gradient of loss_combined
    over the dense logit table, from transition counts made here, not by lm_core."""
    return _loss_combined_grad
