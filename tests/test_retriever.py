import _blake2
import gc
import hashlib
import logging
import random
import struct
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from genki import retriever
from genki.cli import EXIT_DATA, main
from genki.corpus import Passage, tokenize
from genki.retriever import (
    DenseIndex,
    HashEmbedder,
    IndexFormatError,
    load_index,
    retrieve_texts,
    save_index,
    top_k,
    top_k_batch,
)
from genki.synth import synthetic_world


def index_from_rows(rows, ids):
    return DenseIndex(np.asarray(rows, dtype=np.float32), list(ids))


class TestTopK:
    def test_hand_scores(self):
        index = index_from_rows([[0.9], [0.1], [0.5]], ["p0", "p1", "p2"])
        results = top_k(index, np.array([1.0]), 2)
        assert [r.passage_id for r in results] == ["p0", "p2"]
        assert [r.rank for r in results] == [1, 2]

    def test_k_beyond_count_returns_all(self):
        index = index_from_rows([[0.2], [0.8]], ["a", "b"])
        results = top_k(index, np.array([1.0]), 10)
        assert [r.passage_id for r in results] == ["b", "a"]

    def test_tie_broken_by_id(self):
        index = index_from_rows([[1.0], [1.0]], ["z", "a"])
        results = top_k(index, np.array([1.0]), 2)
        assert [r.passage_id for r in results] == ["a", "z"]

    def test_k_zero_rejected(self):
        index = index_from_rows([[1.0]], ["a"])
        with pytest.raises(ValueError):
            top_k(index, np.array([1.0]), 0)

    def test_dim_mismatch_rejected(self):
        index = index_from_rows([[1.0, 0.0]], ["a"])
        with pytest.raises(ValueError):
            top_k(index, np.array([1.0]), 1)

    def test_matches_full_scan_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            count = int(rng.integers(1, 40))
            dim = int(rng.integers(1, 16))
            matrix = rng.normal(size=(count, dim)).astype(np.float32)
            if count >= 4:
                matrix[1] = matrix[0]  # force at least one exact tie
            ids = [f"p{i:03d}" for i in range(count)]
            index = DenseIndex(matrix, ids)
            query = rng.normal(size=dim)
            k = int(rng.integers(1, count + 3))
            scores = [float(np.dot(matrix[i].astype(np.float64), query)) for i in range(count)]
            oracle = sorted(zip(scores, ids), key=lambda t: (-t[0], t[1]))[: min(k, count)]
            got = top_k(index, query, k)
            assert [r.passage_id for r in got] == [pid for _, pid in oracle]
            # scores agree to rounding; bit-equality is not promised across kernels
            for result, (score, _) in zip(got, oracle):
                assert result.score == pytest.approx(score, rel=1e-9, abs=1e-12)

    def test_insertion_order_invariance(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(12, 4)).astype(np.float32)
        matrix[3] = matrix[7]
        ids = [f"p{i}" for i in range(12)]
        query = rng.normal(size=4)
        base = [(r.passage_id, r.score) for r in top_k(DenseIndex(matrix, ids), query, 12)]
        order = list(range(12))
        random.Random(9).shuffle(order)
        shuffled = DenseIndex(matrix[order], [ids[i] for i in order])
        redo = [(r.passage_id, r.score) for r in top_k(shuffled, query, 12)]
        assert redo == base


def full_scan(matrix, ids, query, k):
    """Ids and scores of a float64 scan of every row, ties by id."""
    scores = [float(np.dot(row.astype(np.float64), query)) for row in matrix]
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
    return [ids[i] for i in order], [scores[i] for i in order]


def assert_exact(matrix, ids, query, k):
    got = top_k(DenseIndex(matrix, ids), query, k)
    want_ids, want_scores = full_scan(matrix, ids, query, k)
    assert [r.passage_id for r in got] == want_ids
    assert [r.rank for r in got] == list(range(1, len(want_ids) + 1))
    assert [r.score for r in got] == pytest.approx(want_scores, rel=1e-9, abs=0.0)


class TestScreenExactness:
    """Inputs on which float32 scores would misorder rows: top_k must still
    match the float64 full scan exactly."""

    def test_rows_one_ulp_apart(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            dim = int(rng.choice([3, 64, 300]))
            base = rng.normal(size=dim).astype(np.float32)
            rows = [base.copy() for _ in range(40)]
            for row in rows[1:]:
                j = int(rng.integers(dim))
                row[j] = np.nextafter(row[j], np.float32(rng.choice([-np.inf, np.inf])))
            ids = [f"p{i:02d}" for i in range(40)]
            rng.shuffle(ids)
            assert_exact(np.stack(rows), ids, rng.normal(size=dim), int(rng.integers(1, 12)))

    def test_float32_order_differs_from_float64_order(self):
        rng = np.random.default_rng(32)
        misordered = 0
        for trial in range(20):
            dim, count, k = 256, 60, 5
            base = rng.normal(size=dim)
            base /= np.linalg.norm(base)
            # Perturbations far below float32 rounding of a 256-term sum.
            matrix = (base + rng.normal(scale=1e-8, size=(count, dim))).astype(np.float32)
            ids = [f"p{i:02d}" for i in range(count)]
            query = rng.normal(size=dim)
            f32 = matrix @ query.astype(np.float32)
            f32_ids = [ids[i] for i in sorted(range(count), key=lambda i: (-f32[i], ids[i]))[:k]]
            misordered += f32_ids != full_scan(matrix, ids, query, k)[0]
            assert_exact(matrix, ids, query, k)
        assert misordered > 0, "no trial separated the float32 and float64 orders"

    def test_duplicates_tied_at_kth_score(self):
        rng = np.random.default_rng(33)
        for trial in range(20):
            count, dim = 50, 16
            matrix = rng.normal(size=(count, dim)).astype(np.float32)
            query = rng.normal(size=dim)
            best = int(np.argmax(matrix.astype(np.float64) @ query))
            copies = rng.choice(count, size=8, replace=False)
            matrix[copies] = matrix[best]
            ids = [f"p{i:02d}" for i in range(count)]
            rng.shuffle(ids)
            tied = {ids[i] for i in copies} | {ids[best]}
            k = int(rng.integers(1, len(tied)))
            got = top_k(DenseIndex(matrix, ids), query, k)
            assert [r.passage_id for r in got] == sorted(tied)[:k]
            assert len({r.score for r in got}) == 1
            assert_exact(matrix, ids, query, k)

    def test_zero_rows_and_zero_query(self):
        rng = np.random.default_rng(34)
        matrix = rng.normal(size=(30, 8)).astype(np.float32)
        matrix[::3] = 0.0
        # -0.0 rows, and rows of -0.0 and one nonzero entry: the sparse rows
        # must keep every -0.0, or these rows' zero scores change sign.
        matrix[1::6] = -0.0
        matrix[2::6] = -0.0
        matrix[2::6, 5] = 1.0
        ids = [f"p{i:02d}" for i in range(30)]
        rng.shuffle(ids)
        sparse = np.zeros(8)
        sparse[[0, 4]] = [1.5, -2.0]
        sparse[2] = -0.0
        stored = DenseIndex(matrix, ids).matrix
        assert np.array_equal(stored.view(np.uint32), matrix.view(np.uint32))
        for query in (np.zeros(8), rng.normal(size=8), -np.abs(rng.normal(size=8)),
                      np.abs(rng.normal(size=8)), sparse):
            for k in (1, 5, 15, 30):
                assert_exact(matrix, ids, query, k)
                # Zero rows score a sum of signed zeros, which starts at
                # +0.0 and so stays +0.0, bit for bit.
                got = top_k(DenseIndex(matrix, ids), query, k)
                assert bits(got) == exact_scan(matrix, ids, query, k)
                assert not any(np.signbit(r.score) for r in got if r.score == 0.0)
        got = top_k(DenseIndex(matrix, ids), np.zeros(8), 30)
        assert [r.passage_id for r in got] == sorted(ids)
        assert all(r.score == 0.0 for r in got)
        zeros = DenseIndex(np.zeros((4, 3), dtype=np.float32), ["d", "c", "b", "a"])
        assert [r.passage_id for r in top_k(zeros, np.ones(3), 2)] == ["a", "b"]

    def test_mixed_row_norms(self):
        rng = np.random.default_rng(35)
        for trial in range(20):
            count, dim = 80, 32
            matrix = rng.normal(size=(count, dim)) * 10.0 ** rng.uniform(-3, 3, size=(count, 1))
            matrix = matrix.astype(np.float32)
            ids = [f"p{i:02d}" for i in range(count)]
            assert_exact(matrix, ids, rng.normal(size=dim), int(rng.integers(1, 20)))

    @pytest.mark.parametrize("dim", [1, 2, 2048])
    def test_extreme_dims(self, dim):
        rng = np.random.default_rng(36 + dim)
        for trial in range(5):
            count = int(rng.integers(1, 200))
            matrix = rng.normal(size=(count, dim)).astype(np.float32)
            if count > 4:
                matrix[count // 2] = matrix[0]
            ids = [f"p{i:03d}" for i in range(count)]
            rng.shuffle(ids)
            assert_exact(matrix, ids, rng.normal(size=dim), int(rng.integers(1, 8)))

    @pytest.mark.parametrize("magnitude", [1e-300, 1e-40, 1e40, 1e300])
    def test_extreme_query_magnitudes(self, magnitude):
        rng = np.random.default_rng(37)
        matrix = rng.normal(size=(50, 16)).astype(np.float32)
        ids = [f"p{i:02d}" for i in range(50)]
        assert_exact(matrix, ids, rng.normal(size=16) * magnitude, 7)

    def test_batch_equals_per_query(self):
        rng = np.random.default_rng(38)
        matrix = rng.normal(size=(300, 24)).astype(np.float32)
        matrix[10] = matrix[20]
        index = DenseIndex(matrix, [f"p{i:03d}" for i in range(300)])
        queries = rng.normal(size=(25, 24))
        queries[3] = 0.0
        for k in (1, 4, 300, 400):
            assert top_k_batch(index, queries, k) == [top_k(index, q, k) for q in queries]


class TestTopKBatchContract:
    def test_zero_queries(self):
        index = index_from_rows([[1.0, 0.0]], ["a"])
        assert top_k_batch(index, [], 3) == []
        assert top_k_batch(index, np.zeros((0, 2)), 3) == []

    def test_k_beyond_count_returns_all(self):
        index = index_from_rows([[0.2], [0.8], [0.5]], ["a", "b", "c"])
        got = top_k_batch(index, [[1.0], [-1.0]], 10)
        assert [[r.passage_id for r in results] for results in got] == [
            ["b", "c", "a"],
            ["a", "c", "b"],
        ]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        index = index_from_rows([[1.0, 0.0], [0.0, 1.0]], ["a", "b"])
        with pytest.raises(ValueError, match="finite"):
            top_k(index, np.array([1.0, bad]), 1)
        with pytest.raises(ValueError, match="finite"):
            top_k_batch(index, [[1.0, 0.0], [bad, 0.0]], 1)

    def test_overflowing_score_rejected(self):
        # inf + -inf would make a NaN score, which no candidate cutoff admits.
        index = index_from_rows([[3e38, 3e38], [3e38, -3e38], [1.0, 0.0]], ["a", "b", "c"])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows float64"):
            top_k_batch(index, [[1e300, 1e300], [1.0, 1.0]], 2)

    def test_shape_rejected(self):
        index = index_from_rows([[1.0, 0.0]], ["a"])
        with pytest.raises(ValueError):
            top_k(index, np.ones((1, 2)), 1)
        with pytest.raises(ValueError):
            top_k_batch(index, np.ones(2), 1)
        with pytest.raises(ValueError):
            top_k_batch(index, np.ones((2, 3)), 1)


def bits(results):
    """(id, score bits, rank) of each result: equal only if bit-identical."""
    return [(r.passage_id, struct.pack("<d", r.score), r.rank) for r in results]


def exact_scan(matrix, ids, query, k):
    """top_k's score by its definition: per row, the float64 products of its
    stored entries (nonzero bits) and the query, added in column order from
    +0.0."""
    query = np.asarray(query, dtype=np.float64)
    scores = []
    for row in np.asarray(matrix, dtype=np.float32):
        stored = np.flatnonzero(row.view(np.uint32))
        score = 0.0
        for value, weight in zip(row[stored].tolist(), query[stored].tolist()):
            score += value * weight
        scores.append(score)
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
    return [
        (ids[i], struct.pack("<d", float(scores[i])), rank)
        for rank, i in enumerate(order, start=1)
    ]


def assert_blocked_exact(matrix, ids, queries, k):
    """top_k_batch over all queries equals per-query top_k and the exact scan."""
    index = DenseIndex(matrix, ids)
    got = top_k_batch(index, queries, k)
    assert len(got) == len(queries)
    for results, query in zip(got, queries):
        assert bits(results) == bits(top_k(index, query, k))
        assert bits(results) == exact_scan(matrix, ids, query, k)


class BincountSpy:
    """numpy for genki.retriever, recording how many products each weighted
    np.bincount call sums."""

    def __init__(self):
        self.summed = []

    def __getattr__(self, name):
        return getattr(np, name)

    def bincount(self, x, weights=None, minlength=0):
        if weights is not None:
            self.summed.append(len(weights))
        return np.bincount(x, weights, minlength=minlength)


def tied_world(rng, count=120, dim=1024, copies=12):
    """Rows where *copies* duplicates of row 0 tie, ids shuffled."""
    matrix = rng.normal(size=(count, dim)).astype(np.float32)
    matrix[1:copies] = matrix[0]
    ids = [f"p{i:03d}" for i in range(count)]
    rng.shuffle(ids)
    return matrix, ids


class TestBlockedSelection:
    """top_k_batch scores, selects and sorts a block of queries at once;
    every block boundary must give what one query at a time gives."""

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_query_counts_around_one_block(self, extra):
        rng = np.random.default_rng(60 + extra)
        dim = 1024
        block = retriever.QUERY_BLOCK // dim
        matrix, ids = tied_world(rng, dim=dim)
        queries = rng.normal(size=(block + extra, dim))
        queries[::5] = matrix[0]  # these tie with every copy of row 0
        for k in (1, 3, 12):
            assert_blocked_exact(matrix, ids, queries, k)

    def test_block_mixes_one_and_many_candidates(self):
        rng = np.random.default_rng(63)
        matrix, ids = tied_world(rng, count=80, dim=64, copies=20)
        queries = rng.normal(size=(30, 64))
        queries[1::2] = matrix[0] * rng.uniform(0.5, 2.0, size=(15, 1))
        k = 2
        index = DenseIndex(matrix, ids)
        scan = [exact_scan(matrix, ids, q, len(ids)) for q in queries]
        # Odd queries tie 20 rows at the top score, even ones do not tie.
        tied = [sum(row[1] == ranked[0][1] for row in ranked) for ranked in scan]
        assert tied[1::2] == [20] * 15
        assert set(tied[0::2]) == {1}
        assert_blocked_exact(matrix, ids, queries, k)
        assert [len(r) for r in top_k_batch(index, queries, k)] == [k] * 30

    @pytest.mark.parametrize("k", [5, 9])
    def test_k_at_least_count_with_several_queries(self, k):
        rng = np.random.default_rng(64)
        matrix = rng.normal(size=(5, 8)).astype(np.float32)
        matrix[3] = matrix[1]
        ids = ["e", "c", "a", "d", "b"]
        queries = rng.normal(size=(4, 8))
        queries[2] = 0.0
        assert_blocked_exact(matrix, ids, queries, k)
        got = top_k_batch(DenseIndex(matrix, ids), queries, k)
        assert all(sorted(r.passage_id for r in results) == sorted(ids) for results in got)

    @pytest.mark.parametrize("run", [1, 3, 7])
    def test_postings_past_the_score_block_split_one_query(self, monkeypatch, run):
        rng = np.random.default_rng(65)
        count, dim = 60, 32
        matrix, ids = tied_world(rng, count=count, dim=dim, copies=16)
        queries = rng.normal(size=(6, dim))
        queries[[1, 4]] = matrix[0]  # 16 tied rows each
        index = DenseIndex(matrix, ids)
        want = [bits(r) for r in top_k_batch(index, queries, 4)]
        monkeypatch.setattr(retriever, "SCORE_BLOCK", run * count)
        spy = BincountSpy()
        monkeypatch.setattr(retriever, "np", spy)
        got = [bits(r) for r in top_k_batch(index, queries, 4)]
        monkeypatch.undo()
        # A block holds one query, whose 32 columns of 60 postings each are
        # read a run of whole columns at a time: the run's products and the
        # 60 cells carried from earlier runs fit SCORE_BLOCK, or the run is
        # one column.
        summed, carried, left = [], 0, dim
        while left:
            columns = min(left, max(1, (run * count - carried) // count))
            summed.append(carried + columns * count)
            carried, left = count, left - columns
        assert spy.summed == summed * len(queries)
        assert got == want
        for results, query in zip(got, queries):
            assert results == exact_scan(matrix, ids, query, 4)


def sparse_rows(rng, count, dim, pool, hit):
    """*count* rows of 1-16 signed small-integer entries, scaled to unit norm.

    A row is zero, on columns outside *pool*, on *pool* only or anywhere,
    each with probability 1/4; *hit* rows copy an earlier row, to tie."""
    other = np.setdiff1d(np.arange(dim), pool)
    matrix = np.zeros((count, dim), dtype=np.float32)
    for row in range(count):
        kind = int(rng.integers(4))
        columns = (None, other, pool, np.arange(dim))[kind]
        if columns is None or len(columns) == 0:
            continue
        picked = rng.choice(columns, size=min(len(columns), int(rng.integers(1, 17))),
                            replace=False)
        values = rng.choice([-2.0, -1.0, 1.0, 2.0], size=len(picked))
        matrix[row, picked] = values / np.linalg.norm(values)
    for row in rng.choice(count, size=min(count, hit), replace=False):
        matrix[row] = matrix[int(rng.integers(count))]
    return matrix


def sparse_queries(rng, count, dim, pool):
    """Queries with 1-16 nonzero columns drawn from *pool*, mixed signs."""
    queries = np.zeros((count, dim))
    for query in queries:
        support = rng.choice(pool, size=min(len(pool), int(rng.integers(1, 17))), replace=False)
        query[support] = rng.choice([-1.0, 1.0], size=len(support)) * rng.uniform(
            0.1, 2.0, size=len(support))
    return queries


class TestSparseQueries:
    """top_k_batch reads only the stored entries in the queries' nonzero
    columns, in chunks of rows; results must still equal the exact scan bit
    for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(64, 1024),
        count=st.integers(1, 40),
        queries=st.integers(1, 7),
        per_block=st.integers(1, 3),
        score_block=st.integers(1, 1 << 12),
        extra_k=st.integers(0, 41),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_exact_scan(self, dim, count, queries, per_block, score_block, extra_k, seed):
        rng = np.random.default_rng(seed)
        pool = rng.choice(dim, size=32, replace=False)
        matrix = sparse_rows(rng, count, dim, pool, hit=count // 4)
        block = sparse_queries(rng, queries, dim, pool)
        ids = [f"p{i:02d}" for i in range(count)]
        rng.shuffle(ids)
        k = 1 + extra_k % (count + 2)
        # At most per_block queries per block, so the queries straddle block
        # boundaries; a small score_block also gives blocks of one query and
        # splits the rows into chunks.
        with mock.patch.object(retriever, "QUERY_BLOCK", per_block * dim), \
                mock.patch.object(retriever, "SCORE_BLOCK", score_block):
            assert_blocked_exact(matrix, ids, block, k)

    def test_reads_only_the_postings_of_each_querys_columns(self, monkeypatch):
        # Shaped like the answer workload: sparse rows, queries with 4
        # nonzero columns, k = 2, and many rows on columns no query uses.
        rng = np.random.default_rng(70)
        count, dim, k = 120, 1024, 2
        pool = rng.choice(dim, size=40, replace=False)
        matrix = sparse_rows(rng, count, dim, pool, hit=10)
        queries = np.zeros((64, dim))
        for query in queries:
            support = rng.choice(pool, size=4, replace=False)
            query[support] = rng.choice([-1.0, 1.0], size=4) / 2.0
        queries[5] = 0.0
        ids = [f"p{i:03d}" for i in range(count)]
        rng.shuffle(ids)
        index = DenseIndex(matrix, ids)
        stored = matrix.view(np.uint32) != 0
        used = (queries != 0).any(axis=0)
        # All 64 queries fit one block, which reads each query's postings:
        # the stored entries in its own nonzero columns, not in every column
        # some query of the block uses.
        assert (retriever.QUERY_BLOCK // dim) >= len(queries)
        read = sum(int(stored[:, query != 0].sum()) for query in queries)
        assert 0 < read < len(queries) * stored[:, used].sum()
        spy = BincountSpy()
        monkeypatch.setattr(retriever, "np", spy)
        got = top_k_batch(index, queries, k)
        monkeypatch.undo()
        assert spy.summed == [read]
        for results, query in zip(got, queries):
            assert bits(results) == exact_scan(matrix, ids, query, k)

    def test_block_missing_one_column_does_not_copy_the_matrix(self, monkeypatch):
        rng = np.random.default_rng(71)
        count, dim = 8192, 256
        matrix = rng.normal(size=(count, dim)).astype(np.float32)
        index = DenseIndex(matrix, [f"p{i:04d}" for i in range(count)])
        query = rng.normal(size=dim)
        query[17] = 0.0
        want = exact_scan(matrix, index.ids, query, 3)
        monkeypatch.setattr(retriever, "SCORE_BLOCK", 1 << 14)
        tracemalloc.start()
        try:
            got = top_k_batch(index, [query], 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bits(got[0]) == want
        # A gathered copy of 255 columns would take 8.4 MB; a chunk of 2**14
        # entries with its float64 products and cells takes under 1 MB.
        assert peak < matrix.nbytes / 8


class TestCandidateIdTieBreak:
    """Ties break by ranking only the ids of a block's distinct candidates,
    which must give the order of every id in Python's string order."""

    IDS = ["Zeta", "alpha", "Alpha", "a", "a\x00", "ab", "éclair", "Éclair", "b", "A0"]

    def test_ids_sort_differently_from_rows(self):
        rng = np.random.default_rng(31)
        count, dim = 400, 96
        matrix = rng.normal(size=(count, dim)).astype(np.float32)
        names = self.IDS + [f"q{i:03d}" for i in range(count - len(self.IDS))]
        ids = names[::-1]
        # Three tied groups spread over the rows; within each group the row
        # order and the id order disagree.  Rows 390-399 hold IDS reversed,
        # so the first group ties "a" with "a\x00", which numpy's string
        # order would treat as equal.
        groups = [[396, 12, 395, 250, 391], [392, 60, 394, 3, 399], [393, 397, 398, 1, 390]]
        for group in groups:
            matrix[group] = matrix[group[0]]
        queries = [matrix[group[0]].astype(np.float64) for group in groups]
        queries.append(rng.normal(size=dim))
        for k in (1, 3, 6):
            for results, query in zip(top_k_batch(DenseIndex(matrix, ids), queries, k), queries):
                assert bits(results) == exact_scan(matrix, ids, query, k)
        first = top_k_batch(DenseIndex(matrix, ids), queries[:3], 6)
        for results, group in zip(first, groups):
            got = [r.passage_id for r in results[:len(group)]]
            assert got == sorted(ids[row] for row in group)
            assert got != [ids[row] for row in sorted(group)]


class TestTiedZeroScores:
    """Most rows score exactly +0.0 against every query, three score above
    it and three below: as k runs from 1 to count, the k-th score falls
    among the positive rows, inside the zero block (ties by id) and among
    the negative rows."""

    ZERO = struct.pack("<d", 0.0)

    def world(self):
        rng = np.random.default_rng(71)
        count, dim = 80, 32
        matrix = np.zeros((count, dim), dtype=np.float32)
        # Only rows 0-5 meet the queries' columns 0-3 with a nonzero entry;
        # column 0 outweighs the rest, so rows 0-2 score above +0.0 and rows
        # 3-5 below.  Row 2 ties row 1.
        matrix[:6, 0] = [4.0, 3.0, 3.0, -4.0, -3.0, -2.0]
        matrix[:6, 1:4] = rng.choice([-1.0, 0.0, 1.0], size=(6, 3))
        matrix[2] = matrix[1]
        # Row 6 stores a -0.0 in column 0, row 7 nothing; the other rows
        # hold entries outside columns 0-3 only.
        matrix[6, 0] = -0.0
        for row in range(8, count):
            columns = rng.choice(np.arange(4, dim), size=int(rng.integers(1, 6)), replace=False)
            matrix[row, columns] = rng.choice([-2.0, -1.0, 1.0, 2.0], size=len(columns))
        ids = [f"p{i:02d}" for i in range(count)]
        rng.shuffle(ids)
        queries = np.zeros((7, dim))
        queries[:, 0] = rng.uniform(1.0, 2.0, size=7)
        queries[:, 1:4] = rng.uniform(-0.2, 0.2, size=(7, 3))
        return matrix, ids, queries

    @pytest.mark.parametrize("per_block", [1, 2, 5])
    def test_every_k_matches_exact_scan(self, monkeypatch, per_block):
        matrix, ids, queries = self.world()
        count = len(ids)
        scans = [exact_scan(matrix, ids, query, count) for query in queries]
        for scan in scans:
            scores = [score for _, score, _ in scan]
            # 74 of 80 scores are +0.0, so the k-th is in the zero block for k = 4..77.
            assert scores[3:77] == [self.ZERO] * 74
            assert all(struct.unpack("<d", score)[0] < 0 for score in scores[77:])
        index = DenseIndex(matrix, ids)
        monkeypatch.setattr(retriever, "SCORE_BLOCK", per_block * (count + len(index._values)))
        blocks, original = [], retriever._top_k_block
        monkeypatch.setattr(retriever, "_top_k_block",
                            lambda *args: blocks.append(len(args[1])) or original(*args))
        for k in range(1, count + 1):
            got = top_k_batch(index, queries, k)
            assert [bits(results) for results in got] == [scan[:k] for scan in scans], k
        sizes = [min(per_block, len(queries) - lo) for lo in range(0, len(queries), per_block)]
        assert blocks == sizes * count


def dense_scan(matrix, ids, query, k):
    """A float64 full scan of every dense entry, each row's products added
    in column order from +0.0, ordered by (-score, id): (id, score bits,
    rank) of the first k."""
    query = np.asarray(query, dtype=np.float64).tolist()
    scores = []
    for row in np.asarray(matrix, dtype=np.float32).tolist():
        score = 0.0
        for value, weight in zip(row, query):
            score += value * weight
        scores.append(score)
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
    return [(ids[i], struct.pack("<d", scores[i]), rank) for rank, i in enumerate(order, start=1)]


# Mostly zeros, both signs of zero, and float32 values down to a subnormal.
oracle_entries = st.one_of(
    st.sampled_from([0.0, 0.0, 0.0, -0.0]),
    st.sampled_from([1.0, -1.0, 0.5, -2.5, 1e-40]),
    st.floats(-4.0, 4.0, width=32),
)


@st.composite
def oracle_worlds(draw):
    """A sparse float32 index with tied (duplicate) and empty rows and
    shuffled ids, some not ASCII; queries, the first all zero; and k from 1
    to count + 1."""
    count, dim = draw(st.integers(1, 24)), draw(st.integers(1, 10))
    rows = st.lists(oracle_entries, min_size=dim, max_size=dim)
    matrix = np.array(draw(st.lists(rows, min_size=count, max_size=count)), dtype=np.float32)
    for _ in range(draw(st.integers(0, count // 2))):
        matrix[draw(st.integers(0, count - 1))] = matrix[draw(st.integers(0, count - 1))]
    matrix[draw(st.integers(0, count - 1))] = 0.0
    ids = draw(st.lists(st.text("aAzé文\x00Z0", max_size=3), min_size=count, max_size=count,
                        unique=True))
    weights = st.sampled_from([0.0, 0.0, -0.0, 1.0, -1.0, 0.25, -3.0, 7.5])
    queries = np.array(draw(st.lists(st.lists(weights, min_size=dim, max_size=dim),
                                     min_size=1, max_size=6)))
    queries[0] = 0.0
    return matrix, ids, queries, draw(st.integers(1, count + 1))


class TestPostingsOracle:
    """top_k_batch against a float64 dense full scan, bit for bit, whatever
    the block bound."""

    @settings(max_examples=150, deadline=None)
    @given(world=oracle_worlds())
    def test_equals_dense_full_scan(self, world):
        matrix, ids, queries, k = world
        index = DenseIndex(matrix, ids)
        want = [dense_scan(matrix, ids, query, k) for query in queries]
        assert [bits(results) for results in top_k_batch(index, queries, k)] == want
        # One query per block; then also each query's postings one column
        # at a time.
        for score_block in (index.count + len(index._values), 1):
            with mock.patch.object(retriever, "SCORE_BLOCK", score_block):
                assert [bits(results) for results in top_k_batch(index, queries, k)] == want


class TestIdOrder:
    """The rows in id order are sorted from the raw id bytes; they must
    follow Python's str order, which NULs and UTF-8 test."""

    @settings(max_examples=100, deadline=None)
    @given(ids=st.lists(st.text("a\x00é文Z", max_size=4), min_size=1, max_size=30, unique=True))
    def test_rows_in_str_order(self, ids):
        index = index_from_rows([[1.0]] * len(ids), ids)
        assert [ids[row] for row in index._id_order] == sorted(ids)

    def test_zero_block_fills_in_str_order(self):
        ids = ["a\x00", "文档", "a", "", "é", "ab", "Z", "a\x00b"]
        index = index_from_rows([[0.0, 1.0]] * len(ids), ids)
        for k in range(1, len(ids) + 1):
            got = top_k(index, np.array([1.0, 0.0]), k)
            assert [r.passage_id for r in got] == sorted(ids)[:k]


class TestQueryBlockMemory:
    def test_one_block_holds_far_less_than_a_score_per_row(self, monkeypatch):
        passages, qa_pairs = synthetic_world(50000, 64)
        embedder = HashEmbedder(dim=1024, seed=0)
        index = DenseIndex.build(passages, embedder)
        queries = embedder.embed_questions([qa.question for qa in qa_pairs])
        want = [bits(results) for results in top_k_batch(index, queries, 2)]
        # All 64 queries in one block, the most QUERY_BLOCK allows at dim 1024.
        monkeypatch.setattr(retriever, "SCORE_BLOCK",
                            len(queries) * (index.count + len(index._values)))
        blocks, original = [], retriever._top_k_block
        monkeypatch.setattr(retriever, "_top_k_block",
                            lambda *args: blocks.append(len(args[1])) or original(*args))
        tracemalloc.start()
        try:
            got = top_k_batch(index, queries, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert blocks == [64]
        assert [bits(results) for results in got] == want
        # A float64 score per query and row would take 25.6 MB; the block's
        # 98,000 postings and their cells take under 5 MB.
        assert peak < len(queries) * index.count * 8 / 4


class TestRetrieveTexts:
    def test_equals_per_question_top_k(self):
        embedder = HashEmbedder(dim=1024, seed=0)
        passages = [Passage(f"p{i:03d}", f"topic{i % 7} alpha{i} shared words") for i in range(90)]
        index = DenseIndex.build(passages, embedder)
        block = retriever.QUERY_BLOCK // index.dim
        texts = [f"what about topic{i % 9} shared" for i in range(block + 1)]
        got = retrieve_texts(index, embedder, texts, 3)
        want = [top_k(index, embedder.embed_question(t), 3) for t in texts]
        assert [bits(r) for r in got] == [bits(r) for r in want]
        assert retrieve_texts(index, embedder, [], 3) == []

    def test_embeds_one_block_at_a_time(self, monkeypatch):
        embedder = HashEmbedder(dim=1024, seed=0)
        index = DenseIndex.build([Passage("a", "x y"), Passage("b", "y z")], embedder)
        sizes = []
        real = retriever.top_k_batch

        def spy(index, questions, k):
            sizes.append(len(questions))
            return real(index, questions, k)

        monkeypatch.setattr(retriever, "top_k_batch", spy)
        retrieve_texts(index, embedder, ["x"] * 150, 1)
        block = retriever.QUERY_BLOCK // 1024
        assert sizes == [block, block, 150 - 2 * block]


class TestDenseIndexValidation:
    def test_row_id_mismatch(self):
        with pytest.raises(ValueError):
            DenseIndex(np.zeros((2, 3), dtype=np.float32), ["only"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DenseIndex(np.zeros((0, 3), dtype=np.float32), [])

    def test_nonfinite_rejected(self):
        matrix = np.array([[np.inf, 0.0]], dtype=np.float32)
        with pytest.raises(ValueError):
            DenseIndex(matrix, ["a"])

    @pytest.mark.parametrize("row_block", [retriever.ROW_BLOCK, 10], ids=["one", "blocks"])
    @pytest.mark.parametrize("row", [0, 3, 6])
    @pytest.mark.parametrize(
        "values", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
        ids=["nan", "+inf", "-inf", "+inf-inf"],
    )
    def test_nonfinite_rows_rejected_in_memory_and_on_load(
            self, tmp_path, index_file_bytes, monkeypatch, row, values, row_block):
        # With 10-float blocks the 7 rows of dim 5 come in blocks of 2 rows,
        # so row 6 is alone in the last, partial block.
        monkeypatch.setattr(retriever, "ROW_BLOCK", row_block)
        matrix = np.random.default_rng(row).normal(size=(7, 5)).astype(np.float32)
        matrix[row, 1:1 + len(values)] = values
        ids = [f"p{i}" for i in range(7)]
        with pytest.raises(ValueError, match="index vectors must be finite"):
            DenseIndex(matrix, ids)
        path = tmp_path / "x.idx"
        path.write_bytes(index_file_bytes(matrix, ids))
        with pytest.raises(IndexFormatError, match="index vectors must be finite"):
            load_index(path)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_largest_float32_rows_accepted(self, sign):
        big = np.float32(3.4e38)
        matrix = np.full((3, 2048), sign * big, dtype=np.float32)
        matrix[1, ::2] = -matrix[1, ::2]
        index = DenseIndex(matrix, ["a", "b", "c"])
        assert index.matrix.tobytes() == matrix.tobytes()
        query = np.random.default_rng(5).normal(size=2048)
        assert bits(top_k(index, query, 2)) == exact_scan(matrix, index.ids, query, 2)

    def test_subnormal_rows_accepted(self):
        tiny = np.float32(1e-45)  # the smallest float32 subnormal
        assert 0 < tiny < np.finfo(np.float32).tiny
        matrix = np.full((4, 64), tiny, dtype=np.float32)
        matrix[2] = np.finfo(np.float32).tiny / 3
        index = DenseIndex(matrix, ["a", "b", "c", "d"])
        assert index.matrix.tobytes() == matrix.tobytes()
        query = np.ones(64)
        assert bits(top_k(index, query, 3)) == exact_scan(matrix, index.ids, query, 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_any_input_stored_bit_for_bit(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        count, dim = int(rng.integers(1, 300)), int(rng.integers(1, 700))
        matrix = rng.normal(size=(count, dim)) * 10.0 ** rng.integers(-30, 30, size=(count, 1))
        # Entries that convert to +0.0, -0.0 and the smallest subnormal.
        cells = rng.random(size=matrix.shape)
        matrix[cells < 0.3] = 1e-46
        matrix[cells < 0.2] = -1e-46
        matrix[cells < 0.1] = 1.4e-45
        # float64 input in column-major order is converted a block at a time.
        matrix = np.asfortranarray(matrix)
        want = matrix.astype(np.float32)
        ids = [str(i) for i in range(count)]
        whole = DenseIndex(matrix, ids)
        monkeypatch.setattr(retriever, "ROW_BLOCK", 3 * dim)
        blocked = DenseIndex(matrix, ids)
        for index in (whole, blocked):
            assert index.matrix.tobytes() == want.tobytes()
            # Every entry but +0.0 is stored, -0.0 included.
            assert len(index._values) == np.count_nonzero(want.view(np.uint32))
        query = rng.normal(size=dim)
        assert bits(top_k(blocked, query, 5)) == exact_scan(want, ids, query, 5)

    def test_dim_is_capped_at_query_block(self, tmp_path, index_file_bytes):
        top = retriever.QUERY_BLOCK
        assert HashEmbedder(dim=top).embed_question("x").shape == (top,)
        assert DenseIndex(np.ones((1, top), dtype=np.float32), ["a"]).dim == top
        message = f"dim must be between 1 and {top}, got {top + 1}"
        with pytest.raises(ValueError, match=message):
            HashEmbedder(dim=top + 1)
        with pytest.raises(ValueError, match=message):
            DenseIndex(np.ones((1, top + 1), dtype=np.float32), ["a"])
        # A well-formed file whose header dim is past the cap.
        path = tmp_path / "x.idx"
        path.write_bytes(index_file_bytes(np.ones((1, top + 1), dtype=np.float32), ["a"]))
        with pytest.raises(IndexFormatError, match=message):
            load_index(path)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            DenseIndex(np.zeros((2, 2), dtype=np.float32), ["a", "a"])

    def test_build_from_passages(self):
        embedder = HashEmbedder(dim=32, seed=0)
        passages = [Passage("p1", "alpha beta."), Passage("p2", "gamma delta.")]
        index = DenseIndex.build(passages, embedder)
        assert index.count == 2
        assert index.dim == 32

    @pytest.mark.parametrize("dim", [1024, 16384])
    def test_build_and_load_peak_near_the_sparse_size(self, tmp_path, dim):
        # The dense rows would take 8 MB at dim 1024, the postings about
        # 0.1 MB.  build holds no dense row: past the postings it holds
        # one block's per-word arrays, under 96 bytes for each of the 6
        # words of each of PASSAGE_BLOCK passages, whatever the dim.  One
        # load_index block has ROW_BLOCK cells: its float32 buffer and a
        # nonzero mask (5 bytes a cell); ids and per-block arrays take the
        # last 256 KB.
        passages = [Passage(f"p{i:04d}", f"topic{i % 97} item{i} shares a few words")
                    for i in range(2000)]
        embedder = HashEmbedder(dim=dim, seed=0)
        path = tmp_path / "x.idx"

        def traced(step):
            tracemalloc.start()
            try:
                return step(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        index, build_peak = traced(lambda: DenseIndex.build(passages, embedder))
        # 4-byte row and 4-byte value per entry, 8-byte column starts.
        sparse = 8 * (len(index._values) + dim + 1)
        assert sparse < 2000 * dim * 4 / 50
        assert build_peak < sparse + 96 * 6 * retriever.PASSAGE_BLOCK
        if dim == 1024:
            save_index(index, path)
            _, load_peak = traced(lambda: load_index(path))
            cells, slack = retriever.ROW_BLOCK, 1 << 18
            assert load_peak < sparse + 5 * cells + slack


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(3, 4)).astype(np.float32)
        matrix[1, 2] = matrix[2] = -0.0
        index = DenseIndex(matrix, ["a", "b", "c"])
        path = tmp_path / "x.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.ids == index.ids
        assert loaded.matrix.tobytes() == index.matrix.tobytes() == matrix.tobytes()
        # float64 input in column-major order is converted to the same rows.
        wide = DenseIndex(np.asfortranarray(matrix.astype(np.float64)), ["a", "b", "c"])
        assert wide.matrix.tobytes() == matrix.tobytes()

    def test_save_load_save_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(8)
        index = DenseIndex(rng.normal(size=(5, 3)).astype(np.float32), list("abcde"))
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        save_index(index, p1)
        save_index(load_index(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupted_magic(self, tmp_path):
        index = DenseIndex(np.ones((1, 2), dtype=np.float32), ["a"])
        path = tmp_path / "x.idx"
        save_index(index, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_truncated_file(self, tmp_path):
        index = DenseIndex(np.ones((2, 2), dtype=np.float32), ["a", "b"])
        path = tmp_path / "x.idx"
        save_index(index, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 3])
        with pytest.raises(IndexFormatError):
            load_index(path)

    @pytest.mark.parametrize("full_reads", [0, 2])
    def test_short_vector_read_is_truncation(self, tmp_path, monkeypatch, full_reads):
        # A file that shrinks after its size is checked reads short: in the
        # first block, or with 8-float blocks (2 rows), in the third.
        index = DenseIndex(np.ones((7, 4), dtype=np.float32), list("abcdefg"))
        path = tmp_path / "x.idx"
        save_index(index, path)
        monkeypatch.setattr(retriever, "ROW_BLOCK", 8)

        class ShortReads:
            def __init__(self, fh):
                self.fh = fh
                self.reads = 0

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def readinto(self, buffer):
                self.reads += 1
                if self.reads <= full_reads:
                    return self.fh.readinto(buffer)
                return self.fh.readinto(memoryview(buffer)[:-1])

        monkeypatch.setattr(retriever, "open", lambda *a: ShortReads(open(*a)), raising=False)
        with pytest.raises(IndexFormatError, match="truncated"):
            load_index(path)

    def test_trailing_bytes(self, tmp_path):
        index = DenseIndex(np.ones((1, 2), dtype=np.float32), ["a"])
        path = tmp_path / "x.idx"
        save_index(index, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_layout_written_byte_for_byte(self, tmp_path, index_file_bytes):
        rng = np.random.default_rng(12)
        matrix = rng.normal(size=(40, 7)).astype(np.float32)
        ids = [f"p{i}" + "é" * (i % 3) for i in range(40)]
        path = tmp_path / "x.idx"
        save_index(DenseIndex(matrix, ids), path)
        assert path.read_bytes() == index_file_bytes(matrix, ids)

    def test_unicode_ids(self, tmp_path):
        index = DenseIndex(np.ones((1, 2), dtype=np.float32), ["文档一"])
        path = tmp_path / "x.idx"
        save_index(index, path)
        assert load_index(path).ids == ["文档一"]


def write_index(path, index_file_bytes, ids, dim=3):
    """A hand-made index file of len(ids) rows at *dim*, with *ids* as given."""
    matrix = np.arange(len(ids) * dim, dtype=np.float32).reshape(len(ids), dim) + 1
    path.write_bytes(index_file_bytes(matrix, ids))
    return path


class TestIdSection:
    """Ids are held as the file's id section plus offsets, never as str."""

    @pytest.mark.parametrize("ids", [
        [f"p{i}" for i in range(40)],
        ["文档", "文档一", "é", "p1"],
        ["a", "b", "c", "d"],
        [c * 1000 for c in "wxyz"],
    ], ids=["ascii", "non-ascii", "1-byte", "1000-byte"])
    def test_build_save_load_round_trip(self, tmp_path, ids):
        passages = [Passage(pid, f"alpha beta word{i}") for i, pid in enumerate(ids)]
        embedder = HashEmbedder(dim=64, seed=0)
        index = DenseIndex.build(passages, embedder)
        first, again = tmp_path / "a.idx", tmp_path / "b.idx"
        save_index(index, first)
        loaded = load_index(first)
        assert index.ids == loaded.ids == ids
        save_index(loaded, again)
        assert first.read_bytes() == again.read_bytes()
        query = embedder.embed_question("alpha word1")
        assert bits(top_k(loaded, query, 3)) == bits(top_k(index, query, 3))
        assert top_k(loaded, query, 1)[0].passage_id == ids[1]

    def test_ids_is_a_fresh_list(self):
        index = index_from_rows([[1.0], [2.0]], ["a", "b"])
        index.ids.append("c")
        index.ids[0] = "z"
        assert index.ids == ["a", "b"]

    def test_index_holds_no_str_per_passage(self, tmp_path, index_file_bytes):
        index = load_index(write_index(tmp_path / "x.idx", index_file_bytes, ["a", "b", "c"]))
        for value in vars(index).values():
            assert isinstance(value, (int, bytes, np.ndarray)), type(value)
            assert not isinstance(value, np.ndarray) or value.dtype != object

    def test_load_allocates_no_object_per_id(self, tmp_path):
        count = 5000
        index = DenseIndex(np.eye(count, 8, dtype=np.float32), [f"p{i}" for i in range(count)])
        path = tmp_path / "x.idx"
        save_index(index, path)
        del index
        gc.collect()
        before = sys.getallocatedblocks()
        loaded = load_index(path)
        gc.collect()
        assert sys.getallocatedblocks() - before < 500
        assert loaded.count == count

    def test_repeated_id_is_a_data_error_that_names_it(self, tmp_path, capsys, index_file_bytes):
        index = write_index(tmp_path / "index.bin", index_file_bytes, ["p1", "p7", "p2", "p7"])
        qa = tmp_path / "qa.jsonl"
        qa.write_text('{"id": "q1", "question": "what is alpha", "answers": ["a"],'
                      ' "format": "entity"}\n', encoding="utf-8")
        assert main(["retrieve", "--index", str(index), "--qa", str(qa)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {index}: passage ids must be unique: 'p7' repeats\n"
        )

    def test_first_repeat_in_row_order_is_named(self):
        with pytest.raises(ValueError, match="^passage ids must be unique: 'b' repeats$"):
            index_from_rows([[1.0]] * 5, ["c", "b", "a", "b", "c"])

    @pytest.mark.parametrize("hashes", ["real", "all equal"])
    def test_hash_collisions_compare_ids_exactly(
            self, tmp_path, monkeypatch, index_file_bytes, hashes):
        if hashes == "all equal":
            monkeypatch.setattr(retriever, "_id_hash", lambda raw: 0)
        distinct = ["a", "b", "ab", "ba", "", "文档", "x" * 300]
        path = write_index(tmp_path / "x.idx", index_file_bytes, distinct)
        assert load_index(path).ids == distinct
        assert index_from_rows([[1.0]] * len(distinct), distinct).ids == distinct
        repeated = distinct + ["ba"]
        message = "passage ids must be unique: 'ba' repeats"
        with pytest.raises(ValueError, match=message):
            index_from_rows([[1.0]] * len(repeated), repeated)
        path = write_index(tmp_path / "y.idx", index_file_bytes, repeated)
        with pytest.raises(IndexFormatError, match=message):
            load_index(path)

    def test_format_errors_keep_their_messages(self, tmp_path, index_file_bytes):
        path = tmp_path / "x.idx"
        good = index_file_bytes(np.ones((2, 2), dtype=np.float32), ["a", "bc"])
        ids_at = retriever.HEADER_BYTES + 2 * 2 * 4
        cases = {
            # id 1's bytes "bc" become "\xffc"
            "not UTF-8": (
                good[:-2] + b"\xffc",
                "id 1 is not UTF-8 ('utf-8' codec can't decode byte 0xff in position 0:"
                " invalid start byte)"),
            # id 0 claims 9 bytes where 6 follow its length
            "past the end": (
                good[:ids_at] + struct.pack("<I", 9) + good[ids_at + 4:],
                "id 0 claims 9 bytes past the end"),
            "trailing": (good + b"z", "trailing bytes after 2 ids"),
        }
        for data, message in cases.values():
            path.write_bytes(data)
            with pytest.raises(IndexFormatError) as raised:
                load_index(path)
            assert str(raised.value) == f"{path}: {message}"


retriever_logger = logging.getLogger("genki.retriever")
reference_logger = logging.getLogger("reference_embedder")


class ReferenceEmbedder:
    """HashEmbedder as it was before embed_many: one text, then one word, at a time.

    _bucket and embed are kept verbatim as the oracle for embed_many.
    """

    def __init__(self, dim: int = 256, seed: int = 0):
        self.dim = dim
        self.seed = seed
        self._key = struct.pack("<q", seed)
        self.empty_count = 0

    def _bucket(self, word: str) -> tuple[int, float]:
        digest = hashlib.blake2b(word.encode("utf-8"), key=self._key, digest_size=8).digest()
        value = int.from_bytes(digest, "little")
        sign = 1.0 if value & 1 else -1.0
        return (value >> 1) % self.dim, sign

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float32)
        words = tokenize(text)
        for word in words:
            bucket, sign = self._bucket(word)
            vec[bucket] += sign
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            self.empty_count += 1
            reference_logger.warning("text embeds to the zero vector: %r", text)
            return vec
        return vec / np.float32(norm)


class Messages(logging.Handler):
    def __init__(self, logger):
        super().__init__()
        self.logger = logger
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())

    def __enter__(self):
        self.logger.addHandler(self)
        return self

    def __exit__(self, *exc):
        self.logger.removeHandler(self)


# Zero rows, CJK, mixed case, and one word 5,000 times: a squared norm of
# 25,000,000, past 2**24, where float32 sums stop being exact.  With many
# other words beside it, the sum depends on the summation order, so only
# np.linalg.norm reproduces the reference.
SPECIAL_TEXTS = ["", "?!... --", "知识 整合 知识", "Mixed CASE mixed case MiXeD",
                 "again " * 5000, "a b " * 2100 + "c",
                 "again " * 5000 + " ".join(f"w{i}" for i in range(2000))]
texts_strategy = st.one_of(
    st.sampled_from(SPECIAL_TEXTS),
    st.text(alphabet="abcXYZ019 .,!?-知识整合テスト", max_size=40),
    st.lists(st.sampled_from(["alpha", "Beta", "GAMMA", "7", "知", "識"]), max_size=30)
    .map(" ".join),
)


def assert_matches_reference(texts, dim, seed):
    embedder, reference = HashEmbedder(dim=dim, seed=seed), ReferenceEmbedder(dim=dim, seed=seed)
    with Messages(retriever_logger) as got_log, Messages(reference_logger) as want_log:
        got = embedder.embed_many(texts)
        want = np.stack([reference.embed(text) for text in texts])
    assert got.dtype == np.float32 and got.shape == (len(texts), dim)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    assert embedder.empty_count == reference.empty_count
    assert got_log.messages == want_log.messages


class TestEmbedManyOracle:
    def test_blake2_is_hashlibs(self):
        # embed_many hashes with _blake2 so that OpenSSL stays unloaded; a
        # Python whose hashlib served another BLAKE2 could change index bytes
        assert _blake2.blake2b is hashlib.blake2b

    @settings(max_examples=60, deadline=None)
    @given(text=texts_strategy, dim=st.sampled_from([1, 3, 64, 1024]),
           seed=st.integers(-2**63, 2**63 - 1))
    def test_block_of_one_matches_reference(self, text, dim, seed):
        assert_matches_reference([text], dim, seed)

    @settings(max_examples=15, deadline=None)
    @given(texts=st.lists(texts_strategy, min_size=65, max_size=90),
           dim=st.sampled_from([2, 256, 1024]), seed=st.integers(-2**63, 2**63 - 1))
    def test_block_of_many_matches_reference(self, texts, dim, seed):
        assert_matches_reference(texts, dim, seed)

    @pytest.mark.parametrize("dim", [1, 16, 1024])
    def test_every_special_text_in_one_block(self, dim):
        assert_matches_reference(SPECIAL_TEXTS * 12, dim, 0)

    def test_one_row_calls_and_empty_block(self):
        embedder = HashEmbedder(dim=64, seed=3)
        block = embedder.embed_many(["x y", "y z", ""])
        for row, text in zip(block, ["x y", "y z", ""]):
            for one in (embedder.embed(text), embedder.embed_question(text),
                        embedder.embed_passage(text)):
                assert np.array_equal(one.view(np.uint32), row.view(np.uint32))
        assert np.array_equal(embedder.embed_questions(["x y"]), block[:1])
        lengths, columns, values = embedder.embed_passages(["y z"])
        stored = np.flatnonzero(block[1])
        assert lengths.tolist() == [len(stored)] and columns.tolist() == stored.tolist()
        assert columns.dtype == np.int32
        assert np.array_equal(values.view(np.uint32), block[1, stored].view(np.uint32))
        assert embedder.embed_many([]).shape == (0, 64)


def assert_build_matches_dense(texts, dim, seed, path, index_file_bytes):
    """DenseIndex.build stores, saves and warns as the dense path of embed_many."""
    passages = [Passage(f"p{i}", text if text.strip() else "-") for i, text in enumerate(texts)]
    ids = [p.id for p in passages]
    built_by, dense_by = HashEmbedder(dim=dim, seed=seed), HashEmbedder(dim=dim, seed=seed)
    with Messages(retriever_logger) as built_log:
        built = DenseIndex.build(passages, built_by)
    with Messages(retriever_logger) as dense_log:
        matrix = dense_by.embed_many([p.text for p in passages])
        dense = DenseIndex(matrix, ids)
    assert built_log.messages == dense_log.messages
    assert built_by.empty_count == dense_by.empty_count
    for name in ("_starts", "_rows", "_values"):
        got, want = getattr(built, name), getattr(dense, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    save_index(built, path)
    assert path.read_bytes() == index_file_bytes(matrix, ids)


class TestBuildFromRows:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(texts=st.lists(texts_strategy, min_size=1, max_size=12),
           dim=st.sampled_from([1, 3, 64, 1024]), block=st.integers(1, 5),
           seed=st.integers(-2**63, 2**63 - 1))
    def test_any_block_size_matches_dense_path(
            self, tmp_path, index_file_bytes, texts, dim, block, seed):
        with mock.patch.object(retriever, "PASSAGE_BLOCK", block):
            assert_build_matches_dense(texts, dim, seed, tmp_path / "x.idx", index_file_bytes)

    @pytest.mark.parametrize("dim", [1, 3, 64, 1024])
    @pytest.mark.parametrize("extra", [-1, 0, 1, retriever.PASSAGE_BLOCK + 1])
    def test_counts_around_the_block_size_match_dense_path(
            self, tmp_path, index_file_bytes, dim, extra):
        # The special texts end the first block, or straddle its end.
        texts = [f"topic{i % 97} item{i} shares"
                 for i in range(retriever.PASSAGE_BLOCK + extra - len(SPECIAL_TEXTS))]
        at = min(retriever.PASSAGE_BLOCK - 3, len(texts))
        texts[at:at] = SPECIAL_TEXTS
        assert_build_matches_dense(texts, dim, 0, tmp_path / "x.idx", index_file_bytes)


class TestHashEmbedder:
    def test_deterministic(self):
        embedder = HashEmbedder(dim=64, seed=1)
        a = embedder.embed_passage("abc def")
        b = embedder.embed_passage("abc def")
        assert np.array_equal(a, b)

    def test_question_passage_agree_on_same_text(self):
        embedder = HashEmbedder(dim=64, seed=1)
        assert np.array_equal(embedder.embed_question("x y"), embedder.embed_passage("x y"))

    def test_unit_norm(self):
        embedder = HashEmbedder(dim=128, seed=0)
        vec = embedder.embed_passage("some words to hash")
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-6)

    def test_empty_text_zero_vector_flagged(self, caplog):
        embedder = HashEmbedder(dim=16, seed=0)
        with caplog.at_level(logging.WARNING, logger="genki.retriever"):
            vec = embedder.embed_question("")
        assert not vec.any()
        assert embedder.empty_count == 1

    def test_shared_tokens_score_higher(self):
        embedder = HashEmbedder(dim=512, seed=0)
        query = embedder.embed_question("solar panel efficiency")
        close = embedder.embed_passage("solar panel output")
        far = embedder.embed_passage("medieval castle moat")
        assert query @ close > query @ far

    def test_seed_is_a_signed_64_bit_integer(self):
        for seed in (-2**63, 2**63 - 1):
            assert HashEmbedder(dim=8, seed=seed).embed_question("x").any()
        for seed in (-2**63 - 1, 2**63):
            with pytest.raises(ValueError, match=f"seed must be a signed 64-bit integer, got {seed}"):
                HashEmbedder(dim=8, seed=seed)

    def test_seed_changes_embedding(self):
        a = HashEmbedder(dim=64, seed=0).embed_passage("word")
        b = HashEmbedder(dim=64, seed=1).embed_passage("word")
        assert not np.array_equal(a, b)
