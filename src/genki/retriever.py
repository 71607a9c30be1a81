"""Dense retrieval: embeddings, inner-product scoring, top-k, and index files.

Texts are embedded a block at a time (HashEmbedder.embed_many).  A DenseIndex
keeps its vectors as compressed sparse rows: a feature-hashed bag of words
has at most one nonzero per distinct word, so a row holds a few dozen of its
dim entries.  DenseIndex(matrix, ids), DenseIndex.build and load_index all
store the rows a block of ROW_BLOCK floats at a time, so no command holds a
count x dim array.  Retrieval is exact: top_k_batch() returns what a float64
scan of every row would, ordered by score descending, then passage id
ascending, with float64 scores.  Its docstring states the method (a float32
screen, then float64 rescores), the rounding bound and the proof.
retrieve_texts embeds and retrieves many questions one block at a time, so
memory stays bounded however many there are.

The index file layout is fixed little-endian binary:

    magic b"GKIX1" | u32 dim | u64 count | count*dim float32 vectors (row
    major) | per id: u32 byte length + UTF-8 bytes

load_index(save_index(x)) reproduces x bit for bit; save_index replaces the
file atomically, one block of dense rows at a time, and load_index reads the
vectors a block at a time into one reused buffer and raises
IndexFormatError on any file that does not follow the layout.
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
from typing import BinaryIO, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .corpus import Passage, atomic_write, tokenize

logger = logging.getLogger(__name__)

MAGIC = b"GKIX1"
HEADER_BYTES = len(MAGIC) + 4 + 8
# Float32 screen scores held at once by top_k_batch (16 MB).
SCREEN_BLOCK = 1 << 22
# Query floats converted at once by top_k_batch and retrieve_texts (64
# queries at dim 1024).  It is also the largest dim, so that a block holds
# at least one query.
QUERY_BLOCK = 1 << 16
# Float64 products held at once by the rescore in top_k_batch (512 KB).
RESCORE_BLOCK = 1 << 16
# Dense float32 index entries held at once while an index is stored, loaded
# or saved (1 MB).
ROW_BLOCK = 1 << 18


class IndexFormatError(ValueError):
    """Raised when an index file does not follow the expected layout."""


def _check_dim(dim: int) -> None:
    """ValueError unless 1 <= dim <= QUERY_BLOCK, the dims embedders and indexes accept."""
    if not 1 <= dim <= QUERY_BLOCK:
        raise ValueError(f"dim must be between 1 and {QUERY_BLOCK}, got {dim}")


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
        _check_dim(dim)
        if not -2**63 <= seed < 2**63:
            raise ValueError(f"seed must be a signed 64-bit integer, got {seed}")
        self.dim = dim
        self.seed = seed
        self._key = struct.pack("<q", seed)
        self.empty_count = 0  # texts that produced a zero vector

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """One float32 row per text, equal bit for bit to a per-word float32 sum.

        Each distinct word is hashed once; its little-endian u64 digest v
        gives bucket (v >> 1) % dim and sign +1 if v & 1 else -1.  Each
        cell's signs are counted exactly (np.bincount, float64) and rounded
        to float32 once, which equals adding them in word order in float32
        while every running sum stays below 2**24.  Above that they differ:
        the exact count is rounded once, whereas a float32 running sum stops
        growing at 2**24 (2**24 + 1 rounds back to 2**24), as np.add.at did.
        Each row is divided by the square root of its float32 sum of
        squares: exact below 2**24 (and at least 2**24 otherwise, as every
        partial sum is), np.linalg.norm above.
        """
        codes: dict[str, int] = {}
        words = [[codes.setdefault(w, len(codes)) for w in tokenize(text)] for text in texts]
        digests = b"".join([
            blake2b(word.encode("utf-8"), key=self._key, digest_size=8).digest()
            for word in codes
        ])
        values = np.frombuffer(digests, dtype="<u8")[[code for row in words for code in row]]
        cells = np.repeat(np.arange(len(texts)) * self.dim, [len(row) for row in words])
        del codes, words  # only the matrix grows with the block from here on
        cells += ((values >> 1) % self.dim).astype(np.intp)
        signs = np.where(values & 1, 1.0, -1.0)
        counts = np.bincount(cells, signs, minlength=len(texts) * self.dim).astype(np.float32)
        matrix = counts.reshape(len(texts), self.dim)
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
    """Passage vectors as compressed sparse rows, plus aligned passage ids.

    Row i's entries sit in columns[offsets[i]:offsets[i + 1]] (int32,
    ascending) with float32 values: every entry whose bits are not +0.0,
    -0.0 included, so the dense rows come back bit for bit.  The caller
    must not change ``ids`` afterwards.  The rows are stored a block of
    ROW_BLOCK floats at a time; each block's squares are summed per row in
    float64, which rejects non-finite vectors and gives max_row_norm.
    """

    def __init__(self, matrix: np.ndarray, ids: Sequence[str]):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        count, dim = matrix.shape
        step = _block_rows(dim)
        self._store((matrix[lo:lo + step] for lo in range(0, count, step)), count, dim, ids)

    @classmethod
    def build(cls, passages: Sequence[Passage], embedder: Embedder) -> "DenseIndex":
        """Embed every passage, one row each in passage order, a block at a time."""
        if not passages:
            raise ValueError("cannot build an index over zero passages")
        texts = [p.text for p in passages]
        step = _block_rows(embedder.dim)
        blocks = (embedder.embed_passages(texts[lo:lo + step]) for lo in range(0, len(texts), step))
        return cls._from_blocks(blocks, len(texts), embedder.dim, [p.id for p in passages])

    @classmethod
    def _from_blocks(
        cls, blocks: Iterable[np.ndarray], count: int, dim: int, ids: Sequence[str]
    ) -> "DenseIndex":
        index = cls.__new__(cls)
        index._store(blocks, count, dim, ids)
        return index

    def _store(
        self, blocks: Iterable[np.ndarray], count: int, dim: int, ids: Sequence[str]
    ) -> None:
        """Keep *blocks*, float32 rows that make up count x dim vectors, as sparse rows.

        Each block is read before the next one is asked for, so a reader may
        reuse one buffer for all of them.
        """
        if count != len(ids):
            raise ValueError(f"{count} vectors but {len(ids)} ids")
        if count == 0 or dim == 0:
            raise ValueError("index must hold at least one vector with dim >= 1")
        _check_dim(dim)
        lengths, columns, values = [], [], []
        top = 0.0
        for block in blocks:
            block = np.ascontiguousarray(block, dtype=np.float32)
            if block.shape[1:] != (dim,):
                raise ValueError(f"vectors of shape {block.shape[1:]}, expected ({dim},)")
            # A float64 sum of float32 squares is non-finite only for a NaN or inf row.
            squares = np.einsum("ij,ij->i", block, block, dtype=np.float64)
            if not np.isfinite(squares).all():
                raise ValueError("index vectors must be finite")
            top = max(top, squares.max())
            cells = np.flatnonzero(block.view(np.uint32) != 0)  # by bits: keeps -0.0
            lengths.append(np.bincount(cells // dim, minlength=len(block)))
            columns.append((cells % dim).astype(np.int32))
            values.append(block.ravel()[cells])
            del block  # free it before the next block is made
        rows = sum(map(len, lengths))
        if rows != count:
            raise ValueError(f"{rows} vectors but {len(ids)} ids")
        if len(set(ids)) != len(ids):
            raise ValueError("passage ids must be unique")
        self.ids = list(ids)
        self.count, self.dim = count, dim
        self.max_row_norm = float(np.sqrt(top))
        self._offsets = np.concatenate([[0], np.cumsum(np.concatenate(lengths))])
        self._columns = np.concatenate(columns)
        self._values = np.concatenate(values)

    @property
    def matrix(self) -> np.ndarray:
        """The dense count x dim float32 vectors, rebuilt bit for bit and read-only.

        For tests and inspection: no command reads it.
        """
        matrix = _rows(self, slice(None))
        matrix.flags.writeable = False
        return matrix


def _block_rows(dim: int) -> int:
    """Rows per block of at most ROW_BLOCK dense floats (at least one)."""
    return max(1, ROW_BLOCK // max(1, dim))


def _rows(
    index: DenseIndex, rows: slice | np.ndarray, used: np.ndarray | None = None
) -> np.ndarray:
    """The index's rows *rows* (a slice, or an array of row numbers) at its
    ascending columns *used* (all of them if None), as one dense C-order
    float32 block, bit for bit that part of index.matrix.
    """
    offsets = index._offsets
    if isinstance(rows, slice):
        span = range(index.count)[rows]
        lengths = np.diff(offsets[span.start:span.stop + 1])
        entries = slice(offsets[span.start], offsets[span.stop])
    else:
        starts = offsets[rows]
        lengths = offsets[rows + 1] - starts
        # Row r's entries follow one another from starts[r].
        entries = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        entries += np.arange(len(entries))
    width = index.dim if used is None else len(used)
    flat = np.repeat(np.arange(len(lengths)) * width, lengths)
    if used is None:
        flat += index._columns[entries]
    else:
        place = np.full(index.dim, -1, dtype=np.int32)
        place[used] = np.arange(width)
        place = place[index._columns[entries]]
        flat += place
        # Entries outside *used* land in one spare float past the block.
        flat[place < 0] = len(lengths) * width
        del place
    block = np.zeros(len(lengths) * width + 1, dtype=np.float32)
    block[flat] = index._values[entries]
    return block[:-1].reshape(len(lengths), width)


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
    of the block is nonzero.  The used columns are scattered from the sparse rows into a
    dense float32 chunk of at most SCREEN_BLOCK floats at a time, so the
    chunk holds exactly those entries of the dense rows, zeros included.
    Per query, the rows whose float32 score a_i is at least θ - 2·B, where θ
    is the k-th largest a_i, are the candidates.  A candidate that shares a
    nonzero column with its query is rescored in float64 with the unscaled
    query (c_i); the others take c_i = 0 for now.  The candidates are sorted
    by (-c_i, id), and each query keeps its first k.  Kept candidates that
    were not rescored are rescored then, with the same per-row expression.
    Queries go through in blocks of at most QUERY_BLOCK floats and
    SCREEN_BLOCK screen scores; each block is selected, rescored and sorted
    with array operations, and the rescore holds at most RESCORE_BLOCK
    float64 products at once.

    Bound.  With q' = s·q, n = dim, u = 2**-24, M = max_row_norm and
    t_i = row_i·q' the exact score, in units of q':

        B = (n+2)·2**-23·‖q'‖·M + n·(M+1)·2**-149 + n·s·2**-1074
          ≥ |a_i - t_i| + |s·c_i - t_i|.

    Scaling by s is exact, barring float64 underflow far below B.  Rounding
    q' to x = float32(q') moves the score by at most u·M·‖q'‖ plus
    2**-150·sqrt(n)·M from gradual underflow; nothing overflows, by the
    choice of s.  The screen leaves out only columns where x is zero; their
    products x_j·row_ij are exact zeros (rows are finite), whether or not
    the sparse rows store row_ij, and adding them last would not change the
    value of a float32 sum, so a_i is one summation order of the full
    length-n product.  A float32 dot product of length n, in any summation
    order and with or without fused multiply-add, is off by at most
    γ_n·M·‖x‖ + n·2**-150, where γ_n = n·u/(1-n·u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., §3.1) and each product may
    underflow by 2**-150.  The float64 rescore is off by at most
    γ64_n·M·‖q'‖ + n·s·2**-1074 once scaled, with γ64_n the same for
    u = 2**-53.  For n ≤ 2**22, n·u ≤ 1/4, so γ_n ≤ (4/3)·n·u and the relative
    terms total at most u + (4/3)·n·u·(1+u) + γ64_n, which leaves room
    inside (n+2)·2**-23 = 2·(n+2)·u for the float64 rounding of M, ‖q'‖
    (summed over the used columns, as the others add nothing) and B; the
    absolute terms total at most n·(M+1)·2**-149 and n·s·2**-1074.

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
    # Rows per dense chunk of the used columns: at most SCREEN_BLOCK floats.
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
        screen = _screen(index, scaled.astype(np.float32), used, step)
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
    shared = _shares_column(index, distinct, active, used, step)[which, query_of]
    scores = np.zeros(len(rows))
    live = np.flatnonzero(shared)
    scores[live] = _rescore(index, queries, query_of[live], rows[live])
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
    scores[late] = _rescore(index, queries, query_of[late], rows[late])
    flat = [
        RetrievalResult(passage_id=ids[row], score=score, rank=r)
        for row, score, r in zip(
            rows[keep].tolist(), scores[keep].tolist(), rank[keep].tolist()
        )
    ]
    width = min(k, count)
    return [flat[i:i + width] for i in range(0, len(flat), width)]


def _screen(index: DenseIndex, x: np.ndarray, used: np.ndarray, step: int) -> np.ndarray:
    """Float32 scores of every row against x, which holds the columns *used*.

    The used columns are made dense *step* rows at a time.
    """
    screen = np.empty((len(x), index.count), dtype=np.float32)
    for lo in range(0, index.count, step):
        screen[:, lo:lo + step] = x @ _rows(index, slice(lo, lo + step), used).T
    return screen


def _shares_column(
    index: DenseIndex, rows: np.ndarray, active: np.ndarray, used: np.ndarray, step: int
) -> np.ndarray:
    """(len(rows), len(active)) booleans: does the row have a nonzero entry in
    a column where the query does?  *active* holds the queries' columns
    *used*, made dense *step* rows at a time as in the screen; the counts of
    shared columns are small integers, exact in a float32 product.
    """
    touched = (active != 0).astype(np.float32).T
    shared = np.empty((len(rows), len(active)), dtype=bool)
    for lo in range(0, len(rows), step):
        nonzero = _rows(index, rows[lo:lo + step], used) != 0
        shared[lo:lo + step] = nonzero.astype(np.float32) @ touched > 0
    return shared


def _rescore(
    index: DenseIndex, queries: np.ndarray, query_of: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Float64 score of each (query, row) pair, at most RESCORE_BLOCK products at once.

    Each row is made dense again, then the row-wise products are summed per
    row: a pair's score does not depend on which other pairs are rescored
    or on the chunking.
    """
    scores = np.empty(len(rows))
    chunk = max(1, RESCORE_BLOCK // index.dim)
    for lo in range(0, len(rows), chunk):
        part = slice(lo, lo + chunk)
        product = queries[query_of[part]]
        np.multiply(_rows(index, rows[part]), product, out=product)
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
    """Write *index* to *path* in the binary layout documented above, atomically.

    The dense vectors are written a block of ROW_BLOCK floats at a time.
    """
    step = _block_rows(index.dim)
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", index.dim))
        fh.write(struct.pack("<Q", index.count))
        for lo in range(0, index.count, step):
            fh.write(np.ascontiguousarray(_rows(index, slice(lo, lo + step)), dtype="<f4"))
        raws = [pid.encode("utf-8") for pid in index.ids]
        fh.write(b"".join(struct.pack("<I", len(raw)) + raw for raw in raws))


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise IndexFormatError(f"truncated index file while reading {what}")
    return data


def _read_blocks(fh: BinaryIO, count: int, dim: int) -> Iterator[np.ndarray]:
    """The count x dim vectors at fh's position, a block of rows at a time.

    Every block is read into the same buffer, so each one is valid only
    until the next is asked for.
    """
    step = _block_rows(dim)
    buffer = np.empty((min(step, count), dim), dtype="<f4")
    for lo in range(0, count, step):
        block = buffer[:count - lo]
        if fh.readinto(block.data.cast("B")) != block.nbytes:
            raise IndexFormatError("truncated index file while reading vectors")
        yield block


def _parse_ids(block: bytes, count: int, path: str | Path) -> list[str]:
    """The *count* length-prefixed UTF-8 ids that make up all of *block*."""
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
    return ids


def load_index(path: str | Path) -> DenseIndex:
    """Read an index file written by save_index().

    Raises IndexFormatError on any file that does not follow the layout: a
    wrong magic, a dim above QUERY_BLOCK, a header that claims more bytes
    than the file holds, a truncation, trailing bytes, ids that are not
    UTF-8 or not unique, or non-finite vectors.  The header is checked
    before anything is allocated.  The ids, which follow the vectors, are
    read first; the vectors then go into the index a block at a time.  A
    missing file raises the usual FileNotFoundError.
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
        try:
            _check_dim(dim)
        except ValueError as exc:
            raise IndexFormatError(f"{path}: {exc}") from exc
        # Each row takes dim*4 vector bytes and at least a 4-byte id length.
        if count * (dim * 4 + 4) > size - HEADER_BYTES:
            raise IndexFormatError(
                f"{path}: header claims {count}x{dim} vectors, more than its {size} bytes hold"
            )
        fh.seek(HEADER_BYTES + count * dim * 4)
        ids = _parse_ids(fh.read(), count, path)
        fh.seek(HEADER_BYTES)
        try:
            return DenseIndex._from_blocks(_read_blocks(fh, count, dim), count, dim, ids)
        except ValueError as exc:
            raise IndexFormatError(f"{path}: {exc}") from exc
