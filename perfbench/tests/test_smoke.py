"""Smoke and self-tests of the benchmark at tiny sizes (about a minute).

Run from the root of the checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import common, run, workloads
from perfbench.workloads import CONFIGS, END_TO_END, PER_LAYER
from repro.core.index import ANNIndex
from repro.hamming.packing import pack_bits
from repro.service.sharded import ShardedANNIndex

TINY = {
    "offline-batch": dataclasses.replace(
        CONFIGS["offline-batch"], n=512, d=256, batch=32, setups=2, check_every=1,
        cost_queries=64,
    ),
    "offline-lsh": dataclasses.replace(
        CONFIGS["offline-lsh"], n=256, d=256, batch=16, setups=2, check_every=1,
        cost_queries=64,
    ),
    "routed-rw": dataclasses.replace(
        CONFIGS["routed-rw"], n=512, d=256, batch=16, setups=1, hot=8,
        write_period_s=0.05, band=2, cost_queries=64,
    ),
}

#: Per-layer metrics that must be non-zero where the layer does the work,
#: and zero where the workload bypasses it.
WORKS = {
    "offline-batch": {"engine.run_ms", "sketch.prime_ms", "cellprobe.prefetch_ms",
                      "cellprobe.cells_per_probe", "hamming.kernel_ms",
                      "hamming.kernel_mbytes", "core.plan_ms", "core.prepare_s"},
    "offline-lsh": {"engine.run_ms", "baselines.hash_ms", "baselines.hash_calls",
                    "baselines.build_s", "core.plan_ms"},
    "routed-rw": {"engine.run_ms", "core.merge_ms", "client.encode_ms",
                  "client.decode_ms", "wire.request_kib_per_query",
                  "wire.response_kib_per_query", "server.decode_ms",
                  "server.encode_ms", "server.mean_batch", "router.self_ms",
                  "router.fanout_wait_ms", "wal.append_ms", "wal.fsyncs_per_write",
                  "write_p50_ms", "write_tail_ms", "persistence.save_s",
                  "server.ready_s", "core.prepare_s"},
}
IDLE = {
    "offline-batch": {"baselines.hash_calls", "core.merge_ms", "client.encode_ms",
                      "wire.request_kib_per_query", "wal.append_ms", "write_p50_ms"},
    "offline-lsh": {"cellprobe.prefetch_ms", "core.merge_ms", "client.encode_ms",
                    "wal.append_ms"},
    "routed-rw": {"baselines.hash_calls", "baselines.build_s"},
}


def _lines(name, trace):
    result = workloads.run(name, seed=3, seconds=1.0, trace=trace, config=TINY[name])
    args = SimpleNamespace(workload=name, seed=3, seconds=1.0, trace=int(trace))
    return result, run.report(args, result)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_end_to_end_metrics_printed_and_correct(name):
    result, lines = _lines(name, trace=False)
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    for metric, unit in END_TO_END.items():
        assert f"{metric} = " in "\n".join(lines)
        assert final["metrics"][metric]["unit"] == unit
        assert final["metrics"][metric]["value"] > 0, metric
    assert final["metrics"]["ok_share"]["value"] == 1.0
    for metric, unit in workloads.RAW.items():
        assert f"{metric} = " in "\n".join(lines)
    provenance = json.loads(lines[-2].removeprefix("provenance "))
    for key in ("commit", "python", "numpy", "nproc", "kernel", "host_steal_share",
                "host_slowness", "raw"):
        assert key in provenance
    assert provenance["raw"]["qps"] == pytest.approx(
        final["metrics"]["norm.qps"]["value"] / provenance["host_slowness"]
    )
    if name == "routed-rw":
        assert set(provenance["kernel"]) == {"benchmark", "router", "shard0", "shard1"}
        assert provenance["wal_flush_policy"] and provenance["wal_filesystem"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_attributes_layers(name):
    result, lines = _lines(name, trace=True)
    final = json.loads(lines[-1])
    assert final["correct"]
    assert {m: v["unit"] for m, v in final["metrics"].items()} == PER_LAYER
    values = {m: v["value"] for m, v in final["metrics"].items()}
    assert all(values[m] > 0 for m in WORKS[name]), {m: values[m] for m in WORKS[name]}
    assert all(values[m] == 0 for m in IDLE[name]), {m: values[m] for m in IDLE[name]}
    if name != "routed-rw":
        assert result.details["layer_sum_share"] == pytest.approx(1.0, abs=0.1)


def test_offline_oracle_counts_a_corrupted_answer():
    cfg = TINY["offline-batch"]
    db = common.random_database(np.random.default_rng(0), cfg.n, cfg.d)
    spec = workloads._spec(cfg, 0)
    rng = np.random.default_rng(1)
    packed = pack_bits(planted_bits_rows(rng, db, 8), cfg.d)
    answers = [(r.answer_index, list(r.probes_per_round))
               for r in ANNIndex.from_spec(db, spec).query_batch(packed)]
    oracle = ANNIndex.from_spec(db, spec)
    assert workloads._check_offline(oracle, [(packed, answers)], workloads.Result()) == 0
    answers[3] = ((answers[3][0] or 0) + 1, answers[3][1])
    assert workloads._check_offline(oracle, [(packed, answers)], workloads.Result()) == 1


def test_routed_oracle_counts_a_corrupted_answer():
    """Reads are checked at every write prefix their times allow; a wrong
    answer, or an answer only right at a prefix the times rule out, fails."""
    cfg = TINY["routed-rw"]
    db = common.random_database(np.random.default_rng(0), cfg.n, cfg.d)
    spec = workloads._spec(cfg, 0)
    rng = np.random.default_rng(1)
    near = pack_bits(planted_bits_rows(rng, db, 1), cfg.d)
    queries = np.repeat(near, 4, axis=0)
    served = ShardedANNIndex.build(db, spec, shards=cfg.shards)

    def read(at):
        return workloads.ReadRecord(at, at + 1, queries, [
            (r.answer_index, r.probes, r.rounds, list(r.probes_per_round),
             r.meta.get("distance"))
            for r in served.query_batch(queries)
        ])

    before = read(0.0)
    ids = served.insert(near)  # an exact copy: every later query answers it
    write = workloads.WriteRecord(10.0, 11.0, 10.0, "insert", near[0], ids)
    after = read(20.0)
    overlapping = read(10.5)  # overlaps the write: either prefix is right

    def failures(reads):
        oracle = ShardedANNIndex.build(db, spec, shards=cfg.shards)
        return workloads._check_routed(oracle, reads, [write], workloads.Result())

    assert failures([before, after, overlapping]) == 0
    stale = dataclasses.replace(after, answers=before.answers)  # misses the write
    assert failures([stale]) == len(queries)
    wrong = dataclasses.replace(after, answers=list(after.answers))
    wrong.answers[0] = (wrong.answers[0][0] + 1,) + wrong.answers[0][1:]
    assert failures([wrong]) == 1


def planted_bits_rows(rng, db, count):
    return common.planted_bits(rng, db, rng.integers(0, len(db), count))


def test_benchmark_json_matches_the_code():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])


def test_normalized_times_follow_the_reference():
    """A call that took twice as long on a host running at half speed
    normalizes to the same time."""
    phase = workloads.Phase()
    phase.record_time(0.1, 1.0)
    phase.record_time(0.2, 2.0)
    assert phase.normalized == pytest.approx([0.1, 0.1])
    assert phase.slowness == pytest.approx(1.5)
    for kind in common.REFERENCES:
        host = common.HostSpeed(kind)
        assert host.around() > 0 and host.total_ms > 0


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    q, value = common.tail(values)
    assert q == 90.0 and sum(v > value for v in values) == 10
    assert common.tail([5.0] * 12) == (50.0, 5.0)
