"""Dense retrieval: embeddings, inner-product scoring, top-k, and index files.

HashEmbedder.embed_passages embeds texts straight into sparse rows (a
hashed bag of words has one entry per distinct word), which a DenseIndex
keeps column-major, as an inverted file.  top_k_batch ranks every row by
exact score descending, then passage id ascending, reading only the
postings of each query's nonzero columns: its cost and memory follow the
query's words, not the corpus.  retrieve_texts embeds and retrieves many
questions a block at a time.

The index file layout is fixed little-endian binary:

    magic b"GKIX1" | u32 dim | u64 count | count*dim float32 vectors (row
    major) | per id: u32 byte length + UTF-8 bytes

load_index(save_index(x)) reproduces x bit for bit.  Both go a block of
dense rows at a time; save_index replaces the file atomically and
load_index raises IndexFormatError on any file that does not follow the
layout.  A DenseIndex keeps the ids as that layout's bytes.
"""

from __future__ import annotations

import os
import struct
# hashlib.blake2b is this same object (OpenSSL's BLAKE2 takes no key), but
# importing hashlib also maps OpenSSL's libcrypto into every command.
from _blake2 import blake2b
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .corpus import Passage, atomic_write, tokenize

MAGIC = b"GKIX1"
HEADER_BYTES = len(MAGIC) + 4 + 8
# Float64 products and (query, row) cells a top_k_batch block holds at once.
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
# Stored entries placed into the postings at once (about 150 KB).
PLACE_BLOCK = 1 << 12


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
    """Maps blocks of questions (one float32 row per text) and passages
    (SparseRows) into a shared vector space."""

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
        v & 1 else -1.  Each hit cell's signs are counted exactly (float64)
        and rounded to float32 once: a word-order float32 sum while below
        2**24, where a float32 running sum stops growing (as np.add.at did).
        Cells whose signs cancel are dropped.  Each count is divided by the
        square root of its row's exact sum of squares, as every float32 order
        of adding gives below 2**24; at or above, by np.linalg.norm.
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
    """Passage vectors as postings (an inverted file), plus aligned passage ids.

    Column c's entries are rows[starts[c]:starts[c + 1]] (int32, ascending)
    with their float32 values: every entry whose bits are not +0.0, -0.0
    included, so the dense rows come back bit for bit; non-finite vectors
    are rejected.  The ids are the index file's id section (one bytes
    object) plus an int64 array of where each id starts in it (_walk_ids);
    only the ids a query ranks or returns are decoded.
    """

    def __init__(self, matrix: np.ndarray, ids: Sequence[str]):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        count, dim = matrix.shape
        step = _block_rows(dim)
        blocks = (matrix[lo:lo + step] for lo in range(0, count, step))
        self._store(_sparse_rows(blocks, dim), count, dim, *_id_section(ids, count))

    @classmethod
    def build(cls, passages: Sequence[Passage], embedder: Embedder) -> "DenseIndex":
        """Embed every passage, one row each in passage order, PASSAGE_BLOCK at a time."""
        if not passages:
            raise ValueError("cannot build an index over zero passages")
        texts = [p.text for p in passages]
        blocks = (embedder.embed_passages(texts[lo:lo + PASSAGE_BLOCK])
                  for lo in range(0, len(texts), PASSAGE_BLOCK))
        section, id_at = _id_section([p.id for p in passages], len(texts))
        return cls.__new__(cls)._store(blocks, len(texts), embedder.dim, section, id_at)

    def _store(
        self, blocks: Iterable[SparseRows], count: int, dim: int, section: bytes,
        id_at: np.ndarray,
    ) -> "DenseIndex":
        """Keep *blocks*, the SparseRows of count x dim vectors, as postings,
        and the ids *section* with their offsets *id_at* (_walk_ids).

        The blocks go as they come into byte buffers that grow in place, so
        large ones live outside the heap and go back to the system once
        placed; values, then rows, are placed PLACE_BLOCK entries at a time.
        """
        if count == 0 or dim == 0:
            raise ValueError("index must hold at least one vector with dim >= 1")
        _check_dim(dim)
        self._starts = np.zeros(dim + 1, dtype=np.int64)
        dtypes = (np.int32, np.int32, np.float32)  # a row holds at most dim <= 2**16 entries
        buffers = [bytearray() for _ in dtypes]
        for block in blocks:
            if not np.isfinite(block[2]).all():
                raise ValueError("index vectors must be finite")
            for i, dtype in enumerate(dtypes):
                buffers[i] += np.ascontiguousarray(block[i], dtype=dtype).data.cast("B")
            self._starts[1:] += np.bincount(block[1], minlength=dim)  # column c's length, at c + 1
        lengths, columns, values = (np.frombuffer(b, t) for b, t in zip(buffers, dtypes))
        if len(lengths) != count:
            raise ValueError(f"{len(lengths)} vectors but {count} ids")
        self._id_bytes, self._id_at, self.count, self.dim = section, id_at, count, dim
        np.cumsum(self._starts, out=self._starts)
        step = max(1, PLACE_BLOCK // max(1, int(lengths.max())))  # rows per run
        ends = np.cumsum([0] + [int(lengths[lo:lo + step].sum()) for lo in range(0, count, step)])
        runs = list(zip(range(0, count, step), map(slice, ends[:-1], ends[1:])))  # (row, entries)
        self._values, free = np.empty(ends[-1], dtype=np.float32), self._starts[:-1].copy()
        for _, entries in runs:
            self._values[_places(columns[entries], free)] = values[entries]
        del values, buffers[2]
        self._rows, free = np.empty(ends[-1], dtype=np.int32), self._starts[:-1].copy()
        for lo, entries in runs:
            rows = np.arange(lo, min(lo + step, count), dtype=np.int32)
            self._rows[_places(columns[entries], free)] = np.repeat(rows, lengths[lo:lo + step])
        return self

    @property
    def ids(self) -> list[str]:
        """Every passage id in row order, decoded afresh (for tests and inspection)."""
        return self._names(np.arange(self.count))

    def _names(self, rows: np.ndarray) -> list[str]:
        """The ids of *rows*, decoded from the id section."""
        section, at = self._id_bytes, self._id_at
        return [section[lo:hi].decode("utf-8")
                for lo, hi in zip((at[rows] + 4).tolist(), at[rows + 1].tolist())]

    @cached_property
    def _id_order(self) -> np.ndarray:
        """Every row in ascending id order, sorted once a query needs it, from
        the raw UTF-8 bytes: they order as their code points do, as str does."""
        section, at = self._id_bytes, self._id_at.tolist()
        return np.array(sorted(range(self.count), key=lambda i: section[at[i] + 4:at[i + 1]]))

    @property
    def matrix(self) -> np.ndarray:
        """The dense count x dim float32 vectors, rebuilt bit for bit and
        read-only (for tests and inspection)."""
        matrix = np.zeros((self.count, self.dim), dtype=np.float32)
        matrix[self._rows, np.repeat(np.arange(self.dim), np.diff(self._starts))] = self._values
        matrix.flags.writeable = False
        return matrix


def _places(columns: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Where entries with *columns*, in row order, go in the postings: at *free*,
    their column's next free place, plus their distance from the column's first
    entry in stable sorted order.  *free* moves past them."""
    ordered, order = _stable_sort(columns)
    places = np.empty(len(columns), dtype=np.int64)
    places[order] = free[ordered] + np.arange(len(ordered)) - np.searchsorted(ordered, ordered)
    free += np.bincount(columns, minlength=len(free))
    return places


def _stable_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """*keys* (0 <= key < 2**31) sorted, and their stable sorting order, from one
    np.sort of key * len(keys) + position: several times faster than a stable argsort."""
    ranked = np.multiply(keys, len(keys), dtype=np.int64) + np.arange(len(keys))
    ranked.sort()
    return np.divmod(ranked, len(keys))


def _sparse_rows(blocks: Iterable[np.ndarray], dim: int) -> Iterator[SparseRows]:
    """The SparseRows of each block of dense float32 rows, each block read
    before the next is asked for, so a reader may reuse one buffer."""
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
    the postings of the query's nonzero columns are read.  Skipping the
    others is exact: their products are signed zeros (rows are finite),
    which leave a sum that starts at +0.0, and so is never -0.0, unchanged.
    So a row no posting touches scores +0.0, and every zero score is +0.0.

    Method.  A block of queries holds at most QUERY_BLOCK floats and, past
    one query, SCORE_BLOCK products and cells (a query may read every
    stored entry and touch every row).  Its postings are read a run of
    whole columns at a time; one np.bincount per run adds each (query, row)
    cell's products, after its sum from earlier runs, in column order.  Per
    query, cells scoring at least its k-th nonzero score are candidates; if
    fewer than k score above +0.0, its +0.0 rows follow in id order
    (_id_order).  Candidates sort by (query, -score, id); each keeps k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    step = max(1, min(SCORE_BLOCK // (index.count + len(index._values)), QUERY_BLOCK // index.dim))
    return [results for start in range(0, len(questions), step)
            for results in _top_k_block(index, questions[start:start + step], k)]


def _top_k_block(
    index: DenseIndex, questions: Sequence[np.ndarray] | np.ndarray, k: int
) -> list[list[RetrievalResult]]:
    """top_k_batch for one block of queries, with array operations only."""
    queries = np.asarray(questions)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise ValueError(f"dimension mismatch: queries {queries.shape} vs index dim {index.dim}")
    # Each query's nonzero columns (NaN and inf too): the postings to read.
    query_of, columns = np.divmod(np.flatnonzero(queries != 0), index.dim)
    weights = queries[query_of, columns].astype(np.float64)
    if not np.isfinite(weights).all():
        raise ValueError("query vectors must be finite")
    count, starts = index.count, index._starts
    lengths = starts[columns + 1] - starts[columns]
    ends = np.cumsum(lengths)
    # The postings, a run of whole columns at a time (see Method).  A stable
    # sort of their (query, row) cells puts each cell's carried sum first,
    # then its products in column order, which np.bincount adds from +0.0.
    cells, sums, lo = np.zeros(0, dtype=np.int64), np.zeros(0), 0
    while lo < len(columns):
        begin = ends[lo] - lengths[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, begin + SCORE_BLOCK - len(cells), "right")))
        run, carried = slice(lo, hi), len(cells)
        at = np.repeat(starts[columns[run]] - ends[run] + lengths[run], lengths[run])
        at += np.arange(begin, ends[hi - 1])
        cells = np.concatenate([cells, np.repeat(query_of[run] * count, lengths[run])])
        sums = np.concatenate([sums, np.repeat(weights[run], lengths[run])])
        cells[carried:] += index._rows[at]
        sums[carried:] *= index._values[at]
        del at
        cells, order = _stable_sort(cells)
        sums = sums[order]
        del order
        first = cells != np.append(-1, cells[:-1])  # each cell's first entry
        sums, cells, lo = np.bincount(np.cumsum(first) - 1, sums), cells[first], hi
    if not np.isfinite(sums).all():
        raise ValueError("query vectors too large: a score overflows float64")
    cells, sums = cells[sums != 0], sums[sums != 0]
    query_of = cells // count
    scored = np.bincount(query_of, minlength=len(queries))
    positive = np.bincount(query_of[sums > 0], minlength=len(queries))
    # Each query's k-th score (-inf if it has fewer cells): a row of negated
    # scores per query, padded with +inf, partitioned at min(k, count) - 1.
    width = min(k, count)
    table = np.full((len(queries), max(width, scored.max(initial=0))), -np.inf)
    table[query_of, np.arange(len(cells)) - (np.cumsum(scored) - scored)[query_of]] = sums
    np.negative(table, out=table).partition(width - 1, axis=1)
    keep = sums >= (-table[:, width - 1])[query_of]
    query_of, rows, sums = [query_of[keep]], [cells[keep] % count], [sums[keep]]
    # Fewer than k positive scores: a query's rows scoring +0.0 come next,
    # in id order; its first (needed + nonzero) rows by id hold them.
    needed = np.minimum(np.maximum(k - positive, 0), count - scored)
    if needed.any():
        ids = index._id_order[:int(np.max(needed + scored, where=needed > 0, initial=0))]
        keys, known = np.arange(len(queries))[:, None] * count + ids, np.append(cells, -1)
        free = known[np.searchsorted(cells, keys)] != keys  # no nonzero score
        first = free & (np.cumsum(free, axis=1) <= needed[:, None])
        zero_of, at = np.divmod(np.flatnonzero(first), len(ids))
        query_of, rows, sums = query_of + [zero_of], rows + [ids[at]], sums + [np.zeros(len(at))]
    query_of, rows, sums = (np.concatenate(part) for part in (query_of, rows, sums))
    # Ties break by id: only the ids of the block's distinct candidates are ranked.
    distinct, which = np.unique(rows, return_inverse=True)
    names = index._names(distinct)
    id_rank = np.argsort(sorted(range(len(names)), key=names.__getitem__))
    order = np.lexsort((id_rank[which], -sums, query_of))
    query_of, which, sums = query_of[order], which[order], sums[order]
    # Each query has at least min(k, count) candidates; keep its first ones.
    rank = np.arange(len(which)) - np.searchsorted(query_of, query_of) + 1
    keep = rank <= k
    flat = [RetrievalResult(passage_id=names[name], score=score, rank=r) for name, score, r
            in zip(which[keep].tolist(), sums[keep].tolist(), rank[keep].tolist())]
    return [flat[i:i + width] for i in range(0, len(flat), width)]


def retrieve_texts(
    index: DenseIndex, embedder: Embedder, texts: Sequence[str], k: int
) -> list[list[RetrievalResult]]:
    """top_k_batch for each text as a question, embedding a block of at
    most QUERY_BLOCK query floats at a time."""
    step = max(1, QUERY_BLOCK // index.dim)
    results: list[list[RetrievalResult]] = []
    for start in range(0, len(texts), step):
        results.extend(top_k_batch(index, embedder.embed_questions(texts[start:start + step]), k))
    return results


def save_index(index: DenseIndex, path: str | Path) -> None:
    """Write *index* to *path* in the binary layout documented above, atomically.

    Each block of ROW_BLOCK dense floats is scattered into one reused zeroed
    buffer, written, and zeroed again where the entries went."""
    count, dim = index.count, index.dim
    step = _block_rows(dim)
    buffer = np.zeros(min(step, count) * dim, dtype="<f4")
    # Each entry's place in the dense rows, in row order: the places are
    # distinct, so any sort of them is stable.
    cells = np.multiply(index._rows, dim, dtype=np.int64)
    cells += np.repeat(np.arange(dim), np.diff(index._starts))
    entries = np.argsort(cells)
    cells.sort()
    ends = np.searchsorted(cells, np.arange(step, count + step, step, dtype=np.int64) * dim)
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", dim))
        fh.write(struct.pack("<Q", count))
        for lo, start, end in zip(range(0, count, step), [0, *ends.tolist()], ends.tolist()):
            hi = min(lo + step, count)
            block = cells[start:end] - lo * dim
            buffer[block] = index._values[entries[start:end]]
            fh.write(buffer[:(hi - lo) * dim])
            buffer[block] = 0
        fh.write(index._id_bytes)


def _read_exact(fh: BinaryIO, n: int, what: str, path: str | Path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise IndexFormatError(f"{path}: truncated index file while reading {what}")
    return data


def _read_blocks(fh: BinaryIO, count: int, dim: int) -> Iterator[np.ndarray]:
    """The count x dim vectors at fh's position, a block of rows at a time,
    each read into the same buffer: valid only until the next is asked for."""
    step = _block_rows(dim)
    buffer = np.empty((min(step, count), dim), dtype="<f4")
    for lo in range(0, count, step):
        block = buffer[:count - lo]
        if fh.readinto(block.data.cast("B")) != block.nbytes:
            raise IndexFormatError("truncated index file while reading vectors")
        yield block


def _id_section(ids: Sequence[str], count: int) -> tuple[bytes, np.ndarray]:
    """*ids* in the index file's id layout, with their offsets (_walk_ids)."""
    if len(ids) != count:
        raise ValueError(f"{count} vectors but {len(ids)} ids")
    section = b"".join(struct.pack("<I", len(raw)) + raw
                       for raw in (pid.encode("utf-8") for pid in ids))
    return section, _walk_ids(section, count)


# Hashes each id's length and bytes for _walk_ids, which compares ids only
# where these hashes are equal.
_id_hash = hash


def _walk_ids(section: bytes, count: int) -> np.ndarray:
    """The count + 1 offsets of the *count* ids that make up all of *section*.

    Id i is the u32 length at offsets[i] and the UTF-8 bytes after it, up
    to offsets[i + 1]; *section* holds at least the 4 * count length bytes
    (load_index checks).  ValueError names the first id that claims bytes
    past the end, then trailing bytes, the first id that is not UTF-8 and
    the first that repeats an earlier one.  Only ids whose _id_hash values
    are equal are compared, so no str, list or set of all ids is made.
    """
    unpack = struct.Struct("<I").unpack_from
    id_hash = _id_hash
    # Memoryviews, not array.arrays, whose module is one more shared
    # library mapped into every command.
    offsets = memoryview(bytearray(8 * (count + 1))).cast("q")
    hashes = memoryview(bytearray(8 * count)).cast("q")
    pos, spare = 0, len(section) - 4 * count
    for i in range(count):
        (length,) = unpack(section, pos)
        spare -= length
        if spare < 0:
            raise ValueError(f"id {i} claims {length} bytes past the end")
        end = pos + 4 + length
        hashes[i] = id_hash(section[pos:end])
        offsets[i + 1] = pos = end
    if spare:
        raise ValueError(f"trailing bytes after {count} ids")
    if not section.isascii():
        for i in range(count):
            try:
                section[offsets[i] + 4:offsets[i + 1]].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"id {i} is not UTF-8 ({exc})") from exc
    hashed = np.frombuffer(hashes, dtype=np.int64)
    ordered = np.sort(hashed)
    shared = ordered[1:][ordered[1:] == ordered[:-1]]
    if len(shared):
        seen: set[bytes] = set()
        for i in np.flatnonzero(np.isin(hashed, shared)).tolist():
            raw = section[offsets[i]:offsets[i + 1]]
            if raw in seen:
                raise ValueError(f"passage ids must be unique: {raw[4:].decode()!r} repeats")
            seen.add(raw)
    return np.frombuffer(offsets, dtype=np.int64)


def load_index(path: str | Path) -> DenseIndex:
    """Read an index file written by save_index(): the header, checked before
    anything is allocated, then the ids, then the vectors a block at a time.

    Raises IndexFormatError on a wrong magic, a dim above QUERY_BLOCK, a
    header that claims more bytes than the file holds, a truncation,
    trailing bytes, ids that are not UTF-8 or not unique, or non-finite
    vectors; a missing file raises the usual FileNotFoundError.
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
        section = _read_exact(fh, size - ids_at, "ids", path)
        try:
            id_at = _walk_ids(section, count)
            fh.seek(HEADER_BYTES)
            blocks = _sparse_rows(_read_blocks(fh, count, dim), dim)
            return DenseIndex.__new__(DenseIndex)._store(blocks, count, dim, section, id_at)
        except ValueError as exc:
            raise IndexFormatError(f"{path}: {exc}") from exc
