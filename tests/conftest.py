"""Fixtures shared by more than one test module."""

import struct

import numpy as np
import pytest

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
