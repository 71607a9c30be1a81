"""Dense retrieval: embeddings, inner-product scoring, top-k, and index files.

HashEmbedder.embed_passages embeds a block of texts straight into sparse
rows, the form a DenseIndex keeps: a feature-hashed bag of words has at
most one nonzero per distinct word, so a row holds a few dozen of its dim
entries.  DenseIndex.build stores those rows as they come, and
DenseIndex(matrix, ids) and load_index find the stored entries of dense
vectors a block of ROW_BLOCK floats at a time, so no command holds a count
x dim array.  top_k_batch() ranks every row by score descending, then
passage id ascending.  A score is the float64 sum of the row's stored
entries times the query's, added in ascending column order from +0.0; only
columns where a query is nonzero are read, which its docstring shows is
exact.  retrieve_texts embeds and retrieves many questions one block at a
time, so memory stays bounded however many there are.

The index file layout is fixed little-endian binary:

    magic b"GKIX1" | u32 dim | u64 count | count*dim float32 vectors (row
    major) | per id: u32 byte length + UTF-8 bytes

load_index(save_index(x)) reproduces x bit for bit; save_index replaces the
file atomically, one block of dense rows at a time, and load_index reads the
vectors a block at a time into one reused buffer and raises
IndexFormatError on any file that does not follow the layout.
"""

from __future__ import annotations

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

MAGIC = b"GKIX1"
HEADER_BYTES = len(MAGIC) + 4 + 8
# Float64 scores and products held at once by top_k_batch (4 MB).
SCORE_BLOCK = 1 << 19
# Query floats converted at once by top_k_batch and retrieve_texts (64
# queries at dim 1024).  It is also the largest dim, so that a block holds
# at least one query.
QUERY_BLOCK = 1 << 16
# Dense float32 index entries held at once while an index is stored from
# dense rows, loaded or saved (1 MB).
ROW_BLOCK = 1 << 18
# Passages embedded at once by DenseIndex.build: a block's memory follows
# its words, not dim.
PASSAGE_BLOCK = 1024


class IndexFormatError(ValueError):
    """Raised when an index file does not follow the expected layout."""


def _check_dim(dim: int) -> None:
    """ValueError unless 1 <= dim <= QUERY_BLOCK, the dims embedders and indexes accept."""
    if not 1 <= dim <= QUERY_BLOCK:
        raise ValueError(f"dim must be between 1 and {QUERY_BLOCK}, got {dim}")


# A block of vectors as sparse rows: row lengths, then int32 columns
# (ascending within a row) and float32 values, in row order, of every entry
# whose bits are not +0.0.
SparseRows = tuple[np.ndarray, np.ndarray, np.ndarray]


class Embedder(Protocol):
    """Maps blocks of questions and passages into a shared vector space.

    embed_questions returns one float32 row per text, shape (len(texts),
    dim); embed_passages returns the same vectors as SparseRows.
    """

    dim: int

    def embed_questions(self, texts: Sequence[str]) -> np.ndarray: ...

    def embed_passages(self, texts: Sequence[str]) -> SparseRows: ...


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

    def embed_passages(self, texts: Sequence[str]) -> SparseRows:
        """Each text's vector as SparseRows, bit for bit a per-word float32 sum.

        Each distinct word is hashed once, from a copy of one keyed state; its
        little-endian u64 digest v gives bucket (v >> 1) % dim and sign +1 if
        v & 1 else -1.  Each hit cell's signs are counted exactly (np.bincount,
        float64) and rounded to float32 once, which equals adding them in
        word order in float32 while every running sum stays below 2**24.
        Above that they differ: the exact count is rounded once, whereas a
        float32 running sum stops growing at 2**24 (2**24 + 1 rounds back to
        2**24), as np.add.at did.  Cells whose signs cancel are dropped.  Each
        count is divided by the square root of its row's exact float64 sum
        of squares, which every float32 order of adding reproduces below
        2**24; at or above it, by np.linalg.norm of the dense float32 row.
        """
        codes: dict[str, int] = {}
        words = [[codes.setdefault(w, len(codes)) for w in tokenize(text)] for text in texts]
        keyed = blake2b(key=self._key, digest_size=8)  # the key block, absorbed once
        digests = []
        for word in codes:
            state = keyed.copy()
            state.update(word.encode("utf-8"))
            digests.append(state.digest())
        values = np.frombuffer(b"".join(digests), "<u8")[[code for row in words for code in row]]
        cells = np.repeat(np.arange(len(texts)) * self.dim, [len(row) for row in words])
        del codes, words, digests  # only the rows grow with the block from here on
        cells += ((values >> 1) % self.dim).astype(np.intp)
        # Count only the cells some word hits: memory per word, not per cell.
        hit, which = np.unique(cells, return_inverse=True)
        counts = np.bincount(which, np.where(values & 1, 1.0, -1.0)).astype(np.float32)
        kept = counts != 0
        rows, columns = np.divmod(hit[kept], self.dim)
        counts = counts[kept]
        squares = np.bincount(rows, np.square(counts, dtype=np.float64), minlength=len(texts))
        norms = np.sqrt(squares.astype(np.float32))
        for row in np.flatnonzero(squares >= 2**24):
            dense, mine = np.zeros(self.dim, dtype=np.float32), rows == row
            dense[columns[mine]] = counts[mine]
            norms[row] = np.linalg.norm(dense)
        lengths = np.bincount(rows, minlength=len(texts))
        for row in np.flatnonzero(lengths == 0):
            # Imported at its one use, so that commands start without
            # logging (and the traceback and string modules it imports).
            import logging

            self.empty_count += 1
            logging.getLogger(__name__).warning("text embeds to the zero vector: %r", texts[row])
        return lengths, columns.astype(np.int32), counts / norms[rows]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """embed_passages' rows as one dense float32 row per text."""
        lengths, columns, values = self.embed_passages(texts)
        matrix = np.zeros((len(texts), self.dim), dtype=np.float32)
        matrix[np.repeat(np.arange(len(texts)), lengths), columns] = values
        return matrix

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    # Questions and passages share one text encoder here; the split exists
    # so dual-encoder embedders fit the same protocol.
    embed_questions = embed_many

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
    must not change ``ids`` afterwards.  The stored values are checked: a
    NaN or inf entry has nonzero bits, so non-finite vectors are rejected.
    """

    def __init__(self, matrix: np.ndarray, ids: Sequence[str]):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        count, dim = matrix.shape
        step = _block_rows(dim)
        blocks = (matrix[lo:lo + step] for lo in range(0, count, step))
        self._store(_sparse_rows(blocks, dim), count, dim, ids)

    @classmethod
    def build(cls, passages: Sequence[Passage], embedder: Embedder) -> "DenseIndex":
        """Embed every passage, one row each in passage order, PASSAGE_BLOCK at a time."""
        if not passages:
            raise ValueError("cannot build an index over zero passages")
        texts = [p.text for p in passages]
        blocks = (embedder.embed_passages(texts[lo:lo + PASSAGE_BLOCK])
                  for lo in range(0, len(texts), PASSAGE_BLOCK))
        return cls._from_rows(blocks, len(texts), embedder.dim, [p.id for p in passages])

    @classmethod
    def _from_rows(
        cls, blocks: Iterable[SparseRows], count: int, dim: int, ids: Sequence[str]
    ) -> "DenseIndex":
        index = cls.__new__(cls)
        index._store(blocks, count, dim, ids)
        return index

    def _store(
        self, blocks: Iterable[SparseRows], count: int, dim: int, ids: Sequence[str]
    ) -> None:
        """Keep *blocks*, the SparseRows of count x dim vectors."""
        if count != len(ids):
            raise ValueError(f"{count} vectors but {len(ids)} ids")
        if count == 0 or dim == 0:
            raise ValueError("index must hold at least one vector with dim >= 1")
        _check_dim(dim)
        lengths, columns, values = (np.concatenate(part) for part in zip(*blocks))
        if not np.isfinite(values).all():
            raise ValueError("index vectors must be finite")
        if len(lengths) != count:
            raise ValueError(f"{len(lengths)} vectors but {len(ids)} ids")
        if len(set(ids)) != len(ids):
            raise ValueError("passage ids must be unique")
        self.ids = list(ids)
        self.count, self.dim = count, dim
        self._offsets = np.concatenate([[0], np.cumsum(lengths)])
        self._columns, self._values = columns, values

    @property
    def matrix(self) -> np.ndarray:
        """The dense count x dim float32 vectors, rebuilt bit for bit and read-only.

        For tests and inspection: no command reads it.
        """
        cells, entries = _cells(self, 0, self.count)
        matrix = np.zeros(self.count * self.dim, dtype=np.float32)
        matrix[cells] = self._values[entries]
        matrix = matrix.reshape(self.count, self.dim)
        matrix.flags.writeable = False
        return matrix


def _sparse_rows(blocks: Iterable[np.ndarray], dim: int) -> Iterator[SparseRows]:
    """The SparseRows of each block of dense float32 rows.

    Each block is read before the next one is asked for, so a reader may
    reuse one buffer for all of them.
    """
    for block in blocks:
        block = np.ascontiguousarray(block, dtype=np.float32)
        if block.shape[1:] != (dim,):
            raise ValueError(f"vectors of shape {block.shape[1:]}, expected ({dim},)")
        cells = np.flatnonzero(block.view(np.uint32) != 0)  # by bits: keeps -0.0
        rows, columns = np.divmod(cells, dim)
        lengths, values = np.bincount(rows, minlength=len(block)), block.ravel()[cells]
        del block  # free it before the next block is made
        yield lengths, columns.astype(np.int32), values


def _block_rows(dim: int) -> int:
    """Rows per block of at most ROW_BLOCK dense floats (at least one)."""
    return max(1, ROW_BLOCK // max(1, dim))


def _cells(index: DenseIndex, lo: int, hi: int) -> tuple[np.ndarray, slice]:
    """The stored entries of rows lo to hi: their cells in those rows laid out
    densely, row major, and their slice of the index's columns and values."""
    entries = slice(index._offsets[lo], index._offsets[hi])
    cells = np.repeat(np.arange(hi - lo) * index.dim, np.diff(index._offsets[lo:hi + 1]))
    cells += index._columns[entries]
    return cells, entries


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
    vectors of the index's dimension, and no score may overflow float64
    (ValueError otherwise).

    Score.  A row's score is the float64 sum of its stored entries times
    the query's entries, added in ascending column order from +0.0.  Only
    columns where some query of the block is nonzero are read.  Skipping
    the others is exact: their products are signed zeros (rows are finite),
    which leave a sum that starts at +0.0, and so is never -0.0, unchanged.
    Scores thus ignore the blocking and chunking; every zero score is +0.0.

    Method.  A block of queries holds at most QUERY_BLOCK floats and, past
    one query, SCORE_BLOCK float64 scores and products (one per row and
    stored entry); np.bincount sums the products into (query, row) cells in
    order from +0.0 (_scores).  A query's k-th score is selected as the
    negated (k-1)-th smallest of its negated scores, partitioned in place:
    a hashed query scores +0.0 against most rows, and np.partition selects
    near the top of such a tie block about ten times slower than near the
    bottom.  Negation is exact, so the threshold is the k-th score itself.
    The rows scoring at least it are sorted by (query, -score, id); each
    query keeps its first k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    per_query = index.count + len(index._values)
    step = max(1, min(SCORE_BLOCK // per_query, QUERY_BLOCK // index.dim))
    return [results for start in range(0, len(questions), step)
            for results in _top_k_block(index, questions[start:start + step], k)]


def _top_k_block(
    index: DenseIndex, questions: Sequence[np.ndarray] | np.ndarray, k: int
) -> list[list[RetrievalResult]]:
    """top_k_batch for one block of queries, with array operations only."""
    queries = np.asarray(questions)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise ValueError(f"dimension mismatch: queries {queries.shape} vs index dim {index.dim}")
    # The block's nonzero query columns (NaN and inf among them), the only
    # ones made float64: every product over the others is a signed zero.
    used = np.flatnonzero((queries != 0).any(axis=0))
    active = queries[:, used].astype(np.float64)
    if not np.isfinite(active).all():
        raise ValueError("query vectors must be finite")
    scores = _scores(index, active, used)
    if not np.isfinite(scores).all():
        raise ValueError("query vectors too large: a score overflows float64")
    count = index.count
    width = min(k, count)
    # Each query's k-th score, from the low end of its negated scores (see
    # Method above); the one negated copy is partitioned in place.
    negated = np.negative(scores)
    negated.partition(width - 1, axis=1)
    kth = -negated[:, width - 1]
    del negated
    # (query, row) candidate pairs, query-major: every row scoring at least
    # the query's k-th score (all rows when k >= count).
    query_of, rows = np.nonzero(scores >= kth[:, None])
    scores = scores[query_of, rows]
    ids = index.ids
    # Ties break by id: rank only the ids of the block's distinct candidates.
    distinct, which = np.unique(rows, return_inverse=True)
    names = [ids[row] for row in distinct.tolist()]
    id_rank = np.empty(len(names), dtype=np.intp)
    id_rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    order = np.lexsort((id_rank[which], -scores, query_of))
    query_of, rows, scores = query_of[order], rows[order], scores[order]
    # Each query has at least min(k, count) candidates; keep its first ones.
    rank = np.arange(len(rows)) - np.searchsorted(query_of, query_of) + 1
    keep = rank <= k
    flat = [
        RetrievalResult(passage_id=ids[row], score=score, rank=r)
        for row, score, r in zip(
            rows[keep].tolist(), scores[keep].tolist(), rank[keep].tolist()
        )
    ]
    return [flat[i:i + width] for i in range(0, len(flat), width)]


def _scores(index: DenseIndex, active: np.ndarray, used: np.ndarray) -> np.ndarray:
    """(len(active), count) float64 scores of the queries *active*, which
    hold the columns *used*, in row chunks of at most SCORE_BLOCK products."""
    offsets, count = index._offsets, index.count
    place = np.full(index.dim, -1, dtype=np.int32)  # column -> place in *active*
    place[used] = np.arange(len(used))
    span = max(1, SCORE_BLOCK // len(active))
    scores = np.empty((len(active), count))
    lo = 0
    while lo < count:
        hi = max(lo + 1, int(np.searchsorted(offsets, offsets[lo] + span, "right")) - 1)
        where = place[index._columns[offsets[lo]:offsets[hi]]]
        hit = np.flatnonzero(where >= 0)
        products = active[:, where[hit]]
        products *= index._values[offsets[lo] + hit]
        # Each read entry's (query, row) cell; bincount adds in entry order.
        rows = np.searchsorted(offsets[lo:hi + 1], offsets[lo] + hit, "right") - 1
        cells = np.arange(len(active))[:, None] * (hi - lo) + rows
        sums = np.bincount(cells.ravel(), products.ravel(), minlength=len(active) * (hi - lo))
        scores[:, lo:hi] = sums.reshape(len(active), hi - lo)
        lo = hi
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

    The dense vectors are written a block of ROW_BLOCK floats at a time: each
    block's entries are scattered into one reused zeroed buffer, which is
    written and then zeroed again where they went.
    """
    count, dim = index.count, index.dim
    step = _block_rows(dim)
    buffer = np.zeros(min(step, count) * dim, dtype="<f4")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", dim))
        fh.write(struct.pack("<Q", count))
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            cells, entries = _cells(index, lo, hi)
            buffer[cells] = index._values[entries]
            fh.write(buffer[:(hi - lo) * dim])
            buffer[cells] = 0
        raws = [pid.encode("utf-8") for pid in index.ids]
        fh.write(b"".join(struct.pack("<I", len(raw)) + raw for raw in raws))


def _read_exact(fh: BinaryIO, n: int, what: str, path: str | Path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise IndexFormatError(f"{path}: truncated index file while reading {what}")
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
    """The *count* length-prefixed UTF-8 ids that make up all of *block*.

    *block* holds at least the 4 * count bytes of the length prefixes (the
    header check in load_index); *spare* counts the bytes no id has claimed.
    """
    unpack = struct.Struct("<I").unpack_from
    ids = []
    pos, spare = 0, len(block) - 4 * count
    for i in range(count):
        (length,) = unpack(block, pos)
        pos += 4
        spare -= length
        if spare < 0:
            raise IndexFormatError(f"{path}: id {i} claims {length} bytes past the end")
        try:
            ids.append(block[pos:pos + length].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"{path}: id {i} is not UTF-8 ({exc})") from exc
        pos += length
    if spare:
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
        (dim,) = struct.unpack("<I", _read_exact(fh, 4, "dim", path))
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, "count", path))
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
        ids_at = HEADER_BYTES + count * dim * 4
        fh.seek(ids_at)
        ids = _parse_ids(_read_exact(fh, size - ids_at, "ids", path), count, path)
        fh.seek(HEADER_BYTES)
        try:
            blocks = _sparse_rows(_read_blocks(fh, count, dim), dim)
            return DenseIndex._from_rows(blocks, count, dim, ids)
        except ValueError as exc:
            raise IndexFormatError(f"{path}: {exc}") from exc
