"""Data-dependent LSH baseline."""

import numpy as np
import pytest

from repro.baselines.data_dependent_lsh import (
    DataDependentLSHParams,
    DataDependentLSHScheme,
)
from repro.baselines import lsh
from repro.baselines.lsh import LSHParams, LSHScheme
from repro.service import BatchQueryEngine
from repro.workloads.spec import WorkloadSpec, make_workload


@pytest.fixture(scope="module")
def clustered():
    return make_workload(
        "clustered", WorkloadSpec(n=240, d=512, num_queries=14, seed=6),
        clusters=6, cluster_radius=12,
    )


def _scheme(db, parts=6, seed=1):
    return DataDependentLSHScheme(
        db, DataDependentLSHParams(gamma=4.0, parts=parts), seed=seed
    )


class TestConstruction:
    def test_parts_cover_database(self, clustered):
        scheme = _scheme(clustered.database)
        covered = np.concatenate([p.indices for p in scheme.parts])
        assert set(covered.tolist()) >= set(range(len(clustered.database)))

    def test_rejects_more_parts_than_points(self, clustered):
        with pytest.raises(ValueError):
            _scheme(clustered.database, parts=10_000)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DataDependentLSHParams(parts=1)
        with pytest.raises(ValueError):
            DataDependentLSHParams(gamma=0.5)
        with pytest.raises(ValueError):
            DataDependentLSHParams(dispatch_rows=4)


class TestQueries:
    def test_exactly_two_rounds(self, clustered):
        scheme = _scheme(clustered.database)
        for qi in range(5):
            res = scheme.query(clustered.queries[qi])
            assert res.rounds == 2
            assert res.probes_per_round[0] == 1  # the dispatch probe

    def test_probe_count_matches_declared(self, clustered):
        scheme = _scheme(clustered.database)
        q = clustered.queries[0]
        res = scheme.query(q)
        assert res.probes == scheme.probes_per_query(q)

    def test_dispatch_deterministic(self, clustered):
        scheme = _scheme(clustered.database)
        q = clustered.queries[1]
        assert scheme.query(q).meta["part"] == scheme.query(q).meta["part"]

    def test_recall_floor_on_clustered(self, clustered):
        scheme = _scheme(clustered.database)
        db = clustered.database
        ok = 0
        for qi in range(clustered.num_queries):
            res = scheme.query(clustered.queries[qi])
            ratio = res.ratio(db, clustered.queries[qi])
            ok += ratio is not None and ratio <= 4.0
        assert ok / clustered.num_queries >= 0.7

    def test_fewer_probes_than_global_lsh(self, clustered):
        """The data-dependent advantage: per-part n_p^ρ < global n^ρ."""
        db = clustered.database
        dd = _scheme(db)
        glob = LSHScheme(db, LSHParams(gamma=4.0), seed=1)
        q = clustered.queries[0]
        assert dd.query(q).probes < glob.query(q).probes


class TestSizing:
    def test_size_report(self, clustered):
        scheme = _scheme(clustered.database)
        report = scheme.size_report()
        names = dict(report.table_names)
        assert names["dispatch"] > 0
        assert names["parts"] > 0
        assert "data-dependent" in report.notes or "pivot" in report.notes

    def test_k_is_two(self, clustered):
        assert _scheme(clustered.database).k == 2


class TestBatchHashing:
    def test_batch_hashes_each_probed_table_once(self, clustered, monkeypatch):
        """A batch hashes every table of every dispatched-to part in one
        call for the whole batch, and answers like the sequential loop."""
        db, queries = clustered.database, clustered.queries
        oracle, scheme = _scheme(db), _scheme(db)
        calls = []
        real = lsh.sampled_bits_hash

        def counting(words, positions):
            calls.append(words.shape[0])
            return real(words, positions)

        monkeypatch.setattr(lsh, "sampled_bits_hash", counting)
        batch = BatchQueryEngine(scheme).run(queries)
        parts = {r.meta["part"] for r in batch}
        assert len(calls) == sum(len(scheme.parts[p].tables) for p in parts)
        assert all(rows == len(queries) for rows in calls)
        for q, b in zip(queries, batch, strict=True):
            s = oracle.query(q)
            assert (s.answer_index, s.probes, s.probes_per_round) == (
                b.answer_index, b.probes, b.probes_per_round)
