"""Dense retrieval: embeddings, inner-product scoring, top-k, and index files.

Texts are embedded a block at a time (HashEmbedder.embed_many) into one
preallocated float32 matrix, so DenseIndex.build holds the index once.
Retrieval is exact: top_k_batch() returns what a float64 scan of every row
would, ordered by score descending, then passage id ascending, with float64
scores.  Its docstring states the method (a float32 screen, then float64
rescores), the rounding bound and the proof.  retrieve_texts embeds and
retrieves many questions one block at a time, so memory stays bounded
however many there are.

The index file layout is fixed little-endian binary:

    magic b"GKIX1" | u32 dim | u64 count | count*dim float32 vectors (row
    major) | per id: u32 byte length + UTF-8 bytes

load_index(save_index(x)) reproduces x bit for bit; save_index replaces the
file atomically, and load_index reads the vectors straight into one array
and raises IndexFormatError on any file that does not follow the layout.
"""

from __future__ import annotations

import logging
import os
import struct
# hashlib.blake2b is this same object (OpenSSL's BLAKE2 takes no key), but
# importing hashlib also maps OpenSSL's libcrypto into every command.
from _blake2 import blake2b
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .corpus import Passage, atomic_write, tokenize

logger = logging.getLogger(__name__)

MAGIC = b"GKIX1"
HEADER_BYTES = len(MAGIC) + 4 + 8
# Float32 screen scores held at once by top_k_batch (16 MB).
SCREEN_BLOCK = 1 << 22
# Query floats converted at once by top_k_batch and retrieve_texts (64
# queries at dim 1024).
QUERY_BLOCK = 1 << 16
# Float64 products held at once by the rescore in top_k_batch (512 KB).
RESCORE_BLOCK = 1 << 16


class IndexFormatError(ValueError):
    """Raised when an index file does not follow the expected layout."""


class Embedder(Protocol):
    """Maps blocks of questions and passages into a shared vector space.

    Each method returns one float32 row per text, shape (len(texts), dim).
    """

    dim: int

    def embed_questions(self, texts: Sequence[str]) -> np.ndarray: ...

    def embed_passages(self, texts: Sequence[str]) -> np.ndarray: ...


class HashEmbedder:
    """Deterministic bag-of-words embedder using a seeded feature hash.

    Each word is hashed (blake2b keyed by the seed) to a bucket and a sign;
    the vector of signed counts is L2 normalized.  No training, no state,
    stable across processes and platforms.
    """

    def __init__(self, dim: int = 256, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if not -2**63 <= seed < 2**63:
            raise ValueError(f"seed must be a signed 64-bit integer, got {seed}")
        self.dim = dim
        self.seed = seed
        self._key = struct.pack("<q", seed)
        self.empty_count = 0  # texts that produced a zero vector

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """One float32 row per text, equal bit for bit to a per-word float32 sum.

        Each distinct word is hashed once; its little-endian u64 digest v
        gives bucket (v >> 1) % dim and sign +1 if v & 1 else -1.  Signs are
        added into one matrix in word order, and each row is divided by the
        square root of its float32 sum of squares: exact below 2**24 (and at
        least 2**24 otherwise, as every partial sum is), np.linalg.norm above.
        """
        codes: dict[str, int] = {}
        words = [[codes.setdefault(w, len(codes)) for w in tokenize(text)] for text in texts]
        digests = b"".join([
            blake2b(word.encode("utf-8"), key=self._key, digest_size=8).digest()
            for word in codes
        ])
        values = np.frombuffer(digests, dtype="<u8")[[code for row in words for code in row]]
        rows = np.repeat(np.arange(len(texts)), [len(row) for row in words])
        del codes, words  # only the matrix grows with the block from here on
        matrix = np.zeros((len(texts), self.dim), dtype=np.float32)
        signs = np.where(values & 1, np.float32(1), np.float32(-1))
        np.add.at(matrix, (rows, (values >> 1) % self.dim), signs)
        squares = np.einsum("ij,ij->i", matrix, matrix)
        norms = np.sqrt(squares)
        for row in np.flatnonzero(squares >= 2**24):
            norms[row] = np.linalg.norm(matrix[row])
        for row in np.flatnonzero(norms == 0):
            self.empty_count += 1
            logger.warning("text embeds to the zero vector: %r", texts[row])
        matrix /= np.where(norms == 0, np.float32(1), norms)[:, None]
        return matrix

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    # Questions and passages share one text encoder here; the split exists
    # so dual-encoder embedders fit the same protocol.
    embed_questions = embed_passages = embed_many

    def embed_question(self, text: str) -> np.ndarray:
        return self.embed(text)

    def embed_passage(self, text: str) -> np.ndarray:
        return self.embed(text)


@dataclass(frozen=True)
class RetrievalResult:
    """One retrieved passage with its score and 1-based rank."""

    passage_id: str
    score: float
    rank: int


class DenseIndex:
    """Passage vectors (float32, row major) plus aligned passage ids.

    The index holds a read-only view of *matrix*; the caller must not
    change the array or ``ids`` afterwards.  Construction reads the vectors
    once: it sums every row's squares in float64, which rejects non-finite
    vectors and gives max_row_norm.
    """

    def __init__(self, matrix: np.ndarray, ids: Sequence[str]):
        matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        if matrix.shape[0] != len(ids):
            raise ValueError(f"{matrix.shape[0]} vectors but {len(ids)} ids")
        if matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise ValueError("index must hold at least one vector with dim >= 1")
        # A float64 sum of float32 squares is non-finite only for a NaN or inf row.
        squares = np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64)
        if not np.isfinite(squares).all():
            raise ValueError("index vectors must be finite")
        if len(set(ids)) != len(ids):
            raise ValueError("passage ids must be unique")
        self.matrix = matrix.view()
        self.matrix.flags.writeable = False
        self.ids = list(ids)
        self.max_row_norm = float(np.sqrt(squares.max()))

    @classmethod
    def build(cls, passages: Sequence[Passage], embedder: Embedder) -> "DenseIndex":
        """Embed every passage, one row each in passage order."""
        if not passages:
            raise ValueError("cannot build an index over zero passages")
        return cls(embedder.embed_passages([p.text for p in passages]), [p.id for p in passages])

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def count(self) -> int:
        return int(self.matrix.shape[0])


def top_k(index: DenseIndex, question_vec: np.ndarray, k: int) -> list[RetrievalResult]:
    """The k highest-scoring passages for one query; see top_k_batch."""
    return top_k_batch(index, [question_vec], k)[0]


def top_k_batch(
    index: DenseIndex, questions: Sequence[np.ndarray] | np.ndarray, k: int
) -> list[list[RetrievalResult]]:
    """The k highest-scoring passages by inner product, for each query.

    Each list is ordered by descending float64 score; exact score ties
    break by ascending passage id.  Asking for more passages than the index
    holds returns them all; zero queries give [].  Queries must be finite
    vectors of the index's dimension (ValueError otherwise).

    Method.  Each query q is scaled by a power of two s, so that
    max|s·q| < 2**100 and every score is below sqrt(dim)·2**64; the scaled
    queries are rounded to float32 and scored against all rows in one
    float32 product over the block's used columns, those where some query
    of the block is nonzero, gathered in row chunks of at most SCREEN_BLOCK
    floats, so the matrix is never copied.  Per query, the rows whose
    float32 score a_i is at least θ - 2·B, where θ is the k-th largest a_i,
    are the candidates.  A candidate that shares a nonzero column with its
    query is rescored in float64 with the unscaled query (c_i); the others
    take c_i = 0 for now.  The candidates are sorted by (-c_i, id), and
    each query keeps its first k.  Kept candidates that were not rescored
    are rescored then, with the same per-row expression.  Queries go
    through in blocks of at most QUERY_BLOCK floats and SCREEN_BLOCK screen
    scores; each block is selected, rescored and sorted with array
    operations, and the rescore holds at most RESCORE_BLOCK float64
    products at once.

    Bound.  With q' = s·q, n = dim, u = 2**-24, M = max_row_norm and
    t_i = row_i·q' the exact score, in units of q':

        B = (n+2)·2**-23·‖q'‖·M + n·(M+1)·2**-149 + n·s·2**-1074
          ≥ |a_i - t_i| + |s·c_i - t_i|.

    Scaling by s is exact, barring float64 underflow far below B.  Rounding
    q' to x = float32(q') moves the score by at most u·M·‖q'‖ plus
    2**-150·sqrt(n)·M from gradual underflow; nothing overflows, by the
    choice of s.  The screen leaves out only columns where x is zero; their
    products x_j·row_ij are exact zeros (rows are finite), and adding them
    last would not change the value of a float32 sum, so a_i is one
    summation order of the full length-n product.  A float32 dot product
    of length n, in any summation order and with or without fused
    multiply-add, is off by at most γ_n·M·‖x‖ + n·2**-150, where
    γ_n = n·u/(1-n·u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., §3.1) and each product may underflow by
    2**-150.  The float64 rescore is off by at most γ64_n·M·‖q'‖ +
    n·s·2**-1074 once scaled, with γ64_n the same for u = 2**-53.  For
    n ≤ 2**22, n·u ≤ 1/4, so γ_n ≤ (4/3)·n·u and the relative terms total
    at most u + (4/3)·n·u·(1+u) + γ64_n, which leaves room inside
    (n+2)·2**-23 = 2·(n+2)·u for the float64 rounding of M, ‖q'‖ (summed
    over the used columns, as the others add nothing) and B; the absolute
    terms total at most n·(M+1)·2**-149 and n·s·2**-1074.

    Exactness.  Let J be k rows with a_j ≥ θ.  For a row i that is not a
    candidate and any j in J:

        s·c_j ≥ a_j - B ≥ θ - B > a_i + B ≥ s·c_i,

    so k rows have a strictly higher float64 score than row i, and i is
    not in the float64 top k whatever its id.  The candidates therefore
    hold the float64 top k, including every row tied with the k-th float64
    score.  This assumes the float64 scores do not overflow
    (‖q‖·M < 2**1000).

    Skipped rescores.  If row i shares no nonzero column with q, every
    float64 product q_j·row_ij is a signed zero, so c_i is ±0 in any
    summation order.  The sort compares -c_i with <, under which +0 and -0
    are equal, so sorting such a candidate as 0.0 gives the same order as
    its rescore would, and rescoring only the kept ones returns their
    exact bits, sign of zero included.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    step = max(1, min(SCREEN_BLOCK // index.count, QUERY_BLOCK // index.dim))
    results: list[list[RetrievalResult]] = []
    for start in range(0, len(questions), step):
        results.extend(_top_k_block(index, questions[start:start + step], k))
    return results


def _top_k_block(
    index: DenseIndex, questions: Sequence[np.ndarray] | np.ndarray, k: int
) -> list[list[RetrievalResult]]:
    """top_k_batch for one block of queries, with array operations only."""
    queries = np.asarray(questions, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise ValueError(f"dimension mismatch: queries {queries.shape} vs index dim {index.dim}")
    count, dim = index.count, index.dim
    # The block's nonzero query columns (NaN and inf among them); every
    # product over the other columns is an exact zero.
    used = np.flatnonzero((queries != 0).any(axis=0))
    active = queries[:, used]
    # Rows per gather of the used columns: at most SCREEN_BLOCK floats.
    step = max(1, SCREEN_BLOCK // max(1, len(used)))
    if not np.isfinite(active).all():
        raise ValueError("query vectors must be finite")
    if k < count:
        norm = index.max_row_norm
        _, row_exp = np.frexp(norm)
        _, query_exp = np.frexp(np.abs(active).max(axis=1, initial=0.0))
        shift = 64 - max(int(row_exp), -36) - query_exp
        scaled = np.ldexp(active, shift[:, None])
        bounds = (
            (dim + 2) * 2.0**-23 * np.linalg.norm(scaled, axis=1) * norm
            + dim * (norm + 1.0) * 2.0**-149
            + np.ldexp(float(dim), shift - 1074)
        )
        screen = _screen(index.matrix, scaled.astype(np.float32), used, step)
        kth = np.partition(screen, count - k, axis=1)[:, count - k]
        cutoff = kth - 2.0 * bounds
        # (query, row) candidate pairs, query-major; float32 scores compare
        # against the float64 cutoffs exactly.
        query_of, rows = np.nonzero(screen >= cutoff[:, None])
        del screen
    else:
        query_of = np.repeat(np.arange(len(queries)), count)
        rows = np.tile(np.arange(count), len(queries))
    ids = index.ids
    distinct, which = np.unique(rows, return_inverse=True)
    # Candidates sharing no nonzero column with their query sort as 0.0 and
    # are rescored only if kept (top_k_batch, "Skipped rescores").
    shared = _shares_column(index.matrix, distinct, active, used, step)[which, query_of]
    scores = np.zeros(len(rows))
    live = np.flatnonzero(shared)
    scores[live] = _rescore(index.matrix, queries, query_of[live], rows[live])
    # Ties break by id: rank only the ids of the block's distinct candidates.
    names = [ids[row] for row in distinct.tolist()]
    id_rank = np.empty(len(names), dtype=np.intp)
    id_rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    order = np.lexsort((id_rank[which], -scores, query_of))
    query_of, rows, scores, shared = query_of[order], rows[order], scores[order], shared[order]
    # Each query has at least min(k, count) candidates; keep its first ones.
    rank = np.arange(len(rows)) - np.searchsorted(query_of, query_of) + 1
    keep = rank <= k
    late = np.flatnonzero(keep & ~shared)
    scores[late] = _rescore(index.matrix, queries, query_of[late], rows[late])
    flat = [
        RetrievalResult(passage_id=ids[row], score=score, rank=r)
        for row, score, r in zip(
            rows[keep].tolist(), scores[keep].tolist(), rank[keep].tolist()
        )
    ]
    width = min(k, count)
    return [flat[i:i + width] for i in range(0, len(flat), width)]


def _screen(matrix: np.ndarray, x: np.ndarray, used: np.ndarray, step: int) -> np.ndarray:
    """Float32 scores of every row against x, which holds the columns *used*.

    The used columns are gathered *step* rows at a time, so the matrix is
    never copied.
    """
    screen = np.empty((len(x), matrix.shape[0]), dtype=np.float32)
    for lo in range(0, matrix.shape[0], step):
        screen[:, lo:lo + step] = x @ matrix[lo:lo + step, used].T
    return screen


def _shares_column(
    matrix: np.ndarray, rows: np.ndarray, active: np.ndarray, used: np.ndarray, step: int
) -> np.ndarray:
    """(len(rows), len(active)) booleans: does the row have a nonzero entry in
    a column where the query does?  *active* holds the queries' columns
    *used*, gathered *step* rows at a time; the counts of shared columns are
    small integers, exact in a float32 product.
    """
    touched = (active != 0).astype(np.float32).T
    shared = np.empty((len(rows), len(active)), dtype=bool)
    for lo in range(0, len(rows), step):
        nonzero = matrix[rows[lo:lo + step, None], used] != 0
        shared[lo:lo + step] = nonzero.astype(np.float32) @ touched > 0
    return shared


def _rescore(
    matrix: np.ndarray, queries: np.ndarray, query_of: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Float64 score of each (query, row) pair, at most RESCORE_BLOCK products at once.

    Row-wise products summed per row: a pair's score does not depend on
    which other pairs are rescored or on the chunking.
    """
    scores = np.empty(len(rows))
    chunk = max(1, RESCORE_BLOCK // matrix.shape[1])
    for lo in range(0, len(rows), chunk):
        part = slice(lo, lo + chunk)
        product = queries[query_of[part]]
        np.multiply(matrix[rows[part]], product, out=product)
        scores[part] = product.sum(axis=1)
    return scores


def retrieve_texts(
    index: DenseIndex, embedder: Embedder, texts: Sequence[str], k: int
) -> list[list[RetrievalResult]]:
    """top_k_batch for each text as a question, embedding one block at a time.

    At most QUERY_BLOCK query floats are held at once, however many texts
    there are; only the results are kept for all of them.
    """
    step = max(1, QUERY_BLOCK // index.dim)
    results: list[list[RetrievalResult]] = []
    for start in range(0, len(texts), step):
        results.extend(top_k_batch(index, embedder.embed_questions(texts[start:start + step]), k))
    return results


def save_index(index: DenseIndex, path: str | Path) -> None:
    """Write *index* to *path* in the binary layout documented above, atomically."""
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", index.dim))
        fh.write(struct.pack("<Q", index.count))
        fh.write(np.ascontiguousarray(index.matrix, dtype="<f4"))
        raws = [pid.encode("utf-8") for pid in index.ids]
        fh.write(b"".join(struct.pack("<I", len(raw)) + raw for raw in raws))


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise IndexFormatError(f"truncated index file while reading {what}")
    return data


def load_index(path: str | Path) -> DenseIndex:
    """Read an index file written by save_index().

    Raises IndexFormatError on any file that does not follow the layout: a
    wrong magic, a header that claims more bytes than the file holds, a
    truncation, trailing bytes, ids that are not UTF-8 or not unique, or
    non-finite vectors.  The header is checked against the file size before
    anything is allocated.  A missing file raises the usual
    FileNotFoundError.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise IndexFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        (dim,) = struct.unpack("<I", _read_exact(fh, 4, "dim"))
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, "count"))
        if dim < 1 or count < 1:
            raise IndexFormatError(f"{path}: degenerate shape {count}x{dim}")
        # Each row takes dim*4 vector bytes and at least a 4-byte id length.
        if count * (dim * 4 + 4) > size - HEADER_BYTES:
            raise IndexFormatError(
                f"{path}: header claims {count}x{dim} vectors, more than its {size} bytes hold"
            )
        # Read straight into the matrix: no intermediate bytes object.
        matrix = np.empty((count, dim), dtype="<f4")
        if fh.readinto(matrix.data.cast("B")) != matrix.nbytes:
            raise IndexFormatError("truncated index file while reading vectors")
        # The id block is read once and parsed from memory.
        block = fh.read()
    ids = []
    pos, end = 0, len(block)
    for i in range(count):
        if end - pos < 4:
            raise IndexFormatError(f"truncated index file while reading id {i} length")
        (length,) = struct.unpack_from("<I", block, pos)
        pos += 4
        if length > end - pos - 4 * (count - 1 - i):
            raise IndexFormatError(f"{path}: id {i} claims {length} bytes past the end")
        try:
            ids.append(block[pos:pos + length].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"{path}: id {i} is not UTF-8 ({exc})") from exc
        pos += length
    if pos != end:
        raise IndexFormatError(f"{path}: trailing bytes after {count} ids")
    try:
        return DenseIndex(matrix, ids)
    except ValueError as exc:
        raise IndexFormatError(f"{path}: {exc}") from exc
