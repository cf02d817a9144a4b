"""LSH baseline: sizing, recall, probe accounting, batched hashing."""

import numpy as np
import pytest

from repro.baselines import lsh as lsh_module
from repro.baselines.lsh import (
    LSHParams,
    LSHScheme,
    level_sizing,
    lsh_rho,
    sampled_bits_hash,
)
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points
from repro.service import BatchQueryEngine


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(3)
    return PackedPoints(random_points(rng, 150, 256), 256)


def _scheme(db, mode="nonadaptive", **kw):
    return LSHScheme(db, LSHParams(gamma=4.0, **kw), mode=mode, seed=5)


class TestSizing:
    def test_rho_below_one(self):
        assert 0 < lsh_rho(256, 8.0, 4.0) < 1

    def test_rho_decreases_with_gamma(self):
        assert lsh_rho(256, 8.0, 4.0) < lsh_rho(256, 8.0, 2.0)

    def test_level_sizing_positive(self):
        K, L, rho = level_sizing(1000, 256, 8.0, LSHParams(gamma=4.0))
        assert K >= 1 and L >= 1 and 0 < rho <= 1

    def test_overrides(self):
        params = LSHParams(gamma=4.0, tables_override=3, bits_override=7)
        K, L, _ = level_sizing(1000, 256, 8.0, params)
        assert (K, L) == (7, 3)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            LSHParams(gamma=1.0)


class TestNonAdaptive:
    def test_single_round(self, db):
        scheme = _scheme(db)
        rng = np.random.default_rng(0)
        q = flip_random_bits(rng, db.row(0), 4, db.d)
        res = scheme.query(q)
        assert res.rounds <= 1

    def test_probe_count_matches_declared(self, db):
        scheme = _scheme(db)
        rng = np.random.default_rng(1)
        q = flip_random_bits(rng, db.row(3), 4, db.d)
        res = scheme.query(q)
        assert res.probes == scheme.probes_per_query()

    def test_recall_on_planted(self, db):
        scheme = _scheme(db, table_boost=2.0)
        rng = np.random.default_rng(2)
        ok = 0
        for _ in range(15):
            q = flip_random_bits(rng, db.row(int(rng.integers(0, len(db)))), 3, db.d)
            res = scheme.query(q)
            ratio = res.ratio(db, q)
            if ratio is not None and ratio <= 4.0:
                ok += 1
        assert ok >= 11  # ≥ ~3/4 recall on easy planted queries

    def test_exact_member_found(self, db):
        scheme = _scheme(db)
        res = scheme.query(db.row(11))
        assert res.answered
        assert res.distance_to(db.row(11)) == 0


class TestAdaptive:
    def test_fewer_probes_than_nonadaptive(self, db):
        rng = np.random.default_rng(4)
        q = flip_random_bits(rng, db.row(7), 3, db.d)
        res_a = _scheme(db, mode="adaptive").query(q)
        res_n = _scheme(db, mode="nonadaptive").query(q)
        assert res_a.probes <= res_n.probes

    def test_multiple_rounds(self, db):
        rng = np.random.default_rng(5)
        q = flip_random_bits(rng, db.row(7), 3, db.d)
        res = _scheme(db, mode="adaptive").query(q)
        assert res.rounds >= 1

    def test_rejects_bad_mode(self, db):
        with pytest.raises(ValueError):
            LSHScheme(db, LSHParams(), mode="bogus")


class TestSizeReport:
    def test_cells_superlinear(self, db):
        scheme = _scheme(db)
        assert scheme.size_report().table_cells > len(db)

    def test_notes_include_rho(self, db):
        assert "ρ" in _scheme(db).size_report().notes or "rho" in _scheme(db).size_report().notes.lower()


# -- batched, fixed-width hashing ----------------------------------------------


def _reference_hash(words, positions):
    """Literal bit-by-bit key: ``Σ_j bit(x, p_j) << j``."""
    keys = []
    for row in words:
        key = 0
        for j, p in enumerate(int(p) for p in positions):
            key += ((int(row[p // 64]) >> (p % 64)) & 1) << j
        keys.append(key)
    return keys


def _folded_hash(words, positions):
    """The earlier key computation (object-array fold over 64-bit chunks),
    kept here only to pin the new keys to the old ones."""
    word_idx = (positions // 64).astype(np.int64)
    bit_idx = (positions % 64).astype(np.uint64)
    bits = (words[:, word_idx] >> bit_idx[None, :]) & np.uint64(1)
    keys = np.zeros(bits.shape[0], dtype=object)
    for start in range(0, bits.shape[1], 64):
        chunk = bits[:, start : start + 64]
        weights = np.uint64(1) << np.arange(chunk.shape[1], dtype=np.uint64)
        folded = (chunk * weights[None, :]).sum(axis=1, dtype=np.uint64)
        keys = keys + (np.array([int(v) for v in folded], dtype=object) << start)
    return keys


class TestSampledBitsHash:
    D = 2048

    @pytest.mark.parametrize("K", [1, 63, 64, 65, 127, 1024])
    @pytest.mark.parametrize("B", [0, 1, 64])
    def test_matches_bit_by_bit_reference(self, K, B):
        rng = np.random.default_rng(K * 1000 + B)
        distinct = random_points(rng, max(1, B // 2), self.D)
        words = distinct[rng.integers(0, len(distinct), size=B)]  # rows repeat
        positions = rng.choice(self.D, size=K, replace=False)
        keys = sampled_bits_hash(words, positions)
        assert all(type(k) is int for k in keys)
        assert keys == _reference_hash(words, positions)
        assert list(keys) == list(_folded_hash(words, positions))

    def test_bucket_directory_unchanged(self, db):
        """Keys and per-bucket entry order equal those the old fold built,
        so snapshots and seeds stay compatible."""
        scheme = _scheme(db)
        for (level, t), positions in scheme._positions.items():
            expected = {}
            for idx, key in enumerate(_folded_hash(db.words, positions)):
                expected.setdefault(int(key), []).append(idx)
            cells = scheme._tables[(level, t)]._cells
            assert list(cells) == list(expected)
            for key, members in expected.items():
                kept = members[: scheme.params.bucket_capacity]
                assert [idx for idx, _ in cells[key].entries] == kept
                assert cells[key].overflowed == (len(members) > len(kept))


class TestBatchPriming:
    """One ``sampled_bits_hash`` call per (table, batch), never per query."""

    @staticmethod
    def _count_hashes(monkeypatch):
        calls = []
        real = lsh_module.sampled_bits_hash

        def counting(words, positions):
            calls.append((words.shape[0], positions))
            return real(words, positions)

        monkeypatch.setattr(lsh_module, "sampled_bits_hash", counting)
        return calls

    @staticmethod
    def _queries(db, seed, count=24):
        rng = np.random.default_rng(seed)
        return np.vstack([
            flip_random_bits(rng, db.row(int(rng.integers(0, len(db)))), 6, db.d)
            for _ in range(count)
        ])

    def test_nonadaptive_batch_hashes_each_table_once(self, db, monkeypatch):
        scheme = _scheme(db)
        queries = self._queries(db, 10)
        calls = self._count_hashes(monkeypatch)
        BatchQueryEngine(scheme).run(queries)
        assert len(calls) == scheme.probes_per_query()  # one per table
        assert all(rows == len(queries) for rows, _ in calls)

    def test_sequential_query_hashes_per_table(self, db, monkeypatch):
        scheme = _scheme(db)
        calls = self._count_hashes(monkeypatch)
        scheme.query(self._queries(db, 11, count=1)[0])
        assert len(calls) == scheme.probes_per_query()
        assert all(rows == 1 for rows, _ in calls)
        assert scheme._keys._cache == {}  # sequential queries cache nothing

    @staticmethod
    def _tables_hashed(scheme, calls):
        """The (level, table) of each recorded call, in call order."""
        by_id = {id(p): key for key, p in scheme._positions.items()}
        return [by_id[id(p)] for _, p in calls]

    def test_adaptive_batch_hashes_only_visited_levels(self, db, monkeypatch):
        queries = self._queries(db, 12)
        sequential, batched = _scheme(db, mode="adaptive"), _scheme(db, mode="adaptive")
        calls = self._count_hashes(monkeypatch)
        for q in queries:
            sequential.query(q)
        visited = set(self._tables_hashed(sequential, calls))
        assert len(visited) < len(sequential._positions)  # some levels never searched

        del calls[:]
        BatchQueryEngine(batched).run(queries)
        hashed = self._tables_hashed(batched, calls)
        assert sorted(hashed) == sorted(visited)  # each visited table once

    @pytest.mark.parametrize("mode", ["nonadaptive", "adaptive"])
    def test_batch_then_sequential_then_batch_match_oracle(self, db, mode):
        oracle = _scheme(db, mode=mode)
        first, second = self._queries(db, 13), self._queries(db, 14)
        scheme = _scheme(db, mode=mode)
        engine = BatchQueryEngine(scheme)
        got = list(engine.run(first))
        got += [scheme.query(q) for q in second[:5]]
        got += list(engine.run(second))
        expected = [oracle.query(q) for q in [*first, *second[:5], *second]]
        for s, b in zip(expected, got, strict=True):
            assert (s.answer_index, s.probes, s.rounds, s.probes_per_round) == (
                b.answer_index, b.probes, b.rounds, b.probes_per_round)
        # The key cache holds exactly one batch: the last one.
        cache = scheme._keys._cache
        rows = {q.tobytes() for q in second}
        assert {row for _, row in cache} == rows
        assert len(cache) == len({tag for tag, _ in cache}) * len(rows)
