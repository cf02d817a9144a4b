"""The three workloads: set-up, measured phase, oracle check, metrics.

* ``offline-batch`` — ``algorithm1`` through ``ANNIndex.query_batch``
  in the benchmark process: the batched engine alone.
* ``offline-lsh`` — the ``lsh`` baseline through the same call: bucket
  hashing (``sampled_bits_hash``) dominates.
* ``routed-rw`` — a sharded ``algorithm2`` index served by
  ``ClusterHarness`` (one replica per shard, a WAL-backed router): one
  closed-loop reader plus an open-loop writer, so the wire codec, the
  router, the WAL and the memtable merge all run.

Every workload derives all its inputs from the seed; the program only
ever sees the generated database, queries and points.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import common, spans
from perfbench.common import median, planted_bits, tail
from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.hamming.kernels import active_kernel
from repro.hamming.packing import pack_bits
from repro.service.client import ServiceClient
from repro.service.harness import ClusterHarness
from repro.service.sharded import ShardedANNIndex

#: End-to-end metrics (``--trace 0``) and their units.  The ``norm.``
#: timings are normalized to nominal host speed (``common.HostSpeed``);
#: they carry the bounds.
END_TO_END = {
    "setup_s": "s",
    "norm.qps": "1/s",
    "norm.latency_p50_ms": "ms",
    "norm.latency_tail_ms": "ms",
    "norm.cpu_ms_per_query": "ms",
    "ok_share": "share",
    "rss_peak_mib": "MiB",
    "probes_per_query": "probes",
    "rounds_per_query": "rounds",
}

#: The same timings as measured, printed with the end-to-end metrics and
#: carried in the provenance line; too noisy on a shared host to bound.
RAW = {
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_query": "ms",
}

#: Per-layer metrics (``--trace 1``) and their units.  Times are self
#: times (span minus its children) per answered query, except
#: ``engine.run_ms``, which is the whole ``ANNIndex.query_batch`` span.
PER_LAYER = {
    "engine.run_ms": "ms/query",
    "sketch.prime_ms": "ms/query",
    "cellprobe.prefetch_ms": "ms/query",
    "cellprobe.cells_per_probe": "cells/probe",
    "hamming.kernel_ms": "ms/query",
    "hamming.kernel_mbytes": "MB/query",
    "core.plan_ms": "ms/query",
    "core.merge_ms": "ms/query",
    "baselines.hash_ms": "ms/query",
    "baselines.hash_calls": "calls/query",
    "client.encode_ms": "ms/query",
    "client.decode_ms": "ms/query",
    "wire.request_kib_per_query": "KiB/query",
    "wire.response_kib_per_query": "KiB/query",
    "server.decode_ms": "ms/query",
    "server.encode_ms": "ms/query",
    "server.queue_wait_ms": "ms",
    "server.mean_batch": "queries",
    "router.self_ms": "ms/query",
    "router.fanout_wait_ms": "ms",
    "wal.append_ms": "ms/write",
    "wal.fsyncs_per_write": "fsyncs/write",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
    "core.prepare_s": "s",
    "baselines.build_s": "s",
    "persistence.save_s": "s",
    "server.ready_s": "s",
    "loadgen.write_lag_p99_ms": "ms",
    "host.steal_share": "share",
    "trace.overhead_share": "share",
}

#: Span names whose self times make up ``engine.run_ms``.
ENGINE_LAYERS = {
    "core.plan_ms": "engine.run",
    "sketch.prime_ms": "sketch.prime",
    "cellprobe.prefetch_ms": "cellprobe.prefetch",
    "hamming.kernel_ms": "hamming.kernel",
    "core.merge_ms": "core.merge",
    "baselines.hash_ms": "baselines.hash",
}

FLUSH_POLICY = "fsync on every append (WriteAheadLog.append), one entry per write"


@dataclass(frozen=True)
class Config:
    """Sizes of one workload.  ``check_every``: the oracle checks each
    batch with probability ``1 / check_every`` (seeded)."""

    scheme: str
    params: Dict[str, object]
    n: int
    d: int
    batch: int
    setups: int
    check_every: int
    #: probes/rounds are averaged over the first ``cost_queries`` queries,
    #: and peak memory is read once they are answered: the program's memo
    #: caches grow with every fresh query, so a peak read at the end of
    #: the run would grow with throughput.
    cost_queries: int = 2048
    shards: int = 2
    hot: int = 64
    hot_share: float = 0.8
    write_period_s: float = 0.25
    band: int = 4
    #: the ``common.REFERENCES`` kind that loads the host as this
    #: workload does: LSH hashing and the routed JSON codec are
    #: interpreter-bound, the batched engine streams large arrays
    reference: str = "interpreter"


CONFIGS = {
    "offline-batch": Config(
        scheme="algorithm1", params={"gamma": 4.0, "rounds": 3, "c1": 8.0},
        n=8192, d=1024, batch=256, setups=3, check_every=8, reference="memory",
    ),
    "offline-lsh": Config(
        scheme="lsh", params={}, n=2048, d=1024, batch=64, setups=3, check_every=4,
    ),
    "routed-rw": Config(
        scheme="algorithm2", params={}, n=4096, d=1024, batch=64, setups=3,
        check_every=1,
    ),
}


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)


@dataclass
class Phase:
    """What one measured phase saw."""

    seconds: float = 0.0
    queries: int = 0
    errors: int = 0
    latencies: List[float] = field(default_factory=list)
    #: the host's slowness around each call (``common.HostSpeed``)
    slowdowns: List[float] = field(default_factory=list)
    cost: List[Tuple[int, int]] = field(default_factory=list)  # (probes, rounds)
    cpu_s: float = 0.0
    steal: Tuple[int, int] = (0, 0)
    cells: int = 0
    stat_probes: int = 0
    rss_mib: float = 0.0

    @property
    def qps(self) -> float:
        return self.queries / self.seconds

    @property
    def normalized(self) -> List[float]:
        """Latencies at nominal host speed."""
        return [t / s for t, s in zip(self.latencies, self.slowdowns)]

    @property
    def slowness(self) -> float:
        """How much slower than nominal the host ran, weighted by time."""
        return sum(self.latencies) / sum(self.normalized)

    def record_time(self, latency: float, slowness: float) -> None:
        self.latencies.append(latency)
        self.slowdowns.append(slowness)

    def record_cost(self, results, limit: int) -> None:
        for r in results:
            if len(self.cost) < limit:
                self.cost.append((r.probes, r.rounds))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _spec(cfg: Config, seed: int) -> IndexSpec:
    return IndexSpec(scheme=cfg.scheme, params=dict(cfg.params), seed=seed)


def _ms_per_query(table: Dict[str, dict], span: str, queries: int,
                  key: str = "self_ns") -> float:
    entry = table.get(span)
    return entry[key] / 1e6 / queries if entry and queries else 0.0


def _fill_engine_layers(metrics: Dict[str, float], table: Dict[str, dict],
                        counts: Dict[str, float], queries: int) -> None:
    metrics["engine.run_ms"] = _ms_per_query(table, "engine.run", queries, "total_ns")
    for metric, span in ENGINE_LAYERS.items():
        metrics[metric] = _ms_per_query(table, span, queries)
    metrics["hamming.kernel_mbytes"] = counts.get("hamming.kernel_bytes", 0) / 1e6 / queries
    metrics["baselines.hash_calls"] = counts.get("baselines.hash_calls", 0) / queries


def _sample_rss(phases: List[Phase], pids: List[int], cfg: Config, final: bool) -> None:
    """Read peak memory into ``phases[0]`` once ``cost_queries`` queries
    are answered (or at the end of a run too short to get there)."""
    if not phases[0].rss_mib and (
        final or sum(p.queries for p in phases) >= cfg.cost_queries
    ):
        phases[0].rss_mib = common.peak_rss_mib(pids)


def _end_to_end(result: Result, phase: Phase, setups: List[float]) -> None:
    latency_ms = [t * 1000 for t in phase.latencies]
    normalized_ms = [t * 1000 for t in phase.normalized]
    q, tail_ms = tail(latency_ms)
    cpu_ms = phase.cpu_s * 1000 / phase.queries
    slowness = phase.slowness
    probes = [c[0] for c in phase.cost]
    rounds = [c[1] for c in phase.cost]
    result.details["raw"] = {
        "qps": phase.qps,
        "latency_p50_ms": common.percentile(latency_ms, 50),
        "latency_tail_ms": tail_ms,
        "cpu_ms_per_query": cpu_ms,
    }
    result.metrics.update({
        "setup_s": median(setups),
        "norm.qps": phase.qps * slowness,
        "norm.latency_p50_ms": common.percentile(normalized_ms, 50),
        "norm.latency_tail_ms": tail(normalized_ms)[1],
        "norm.cpu_ms_per_query": cpu_ms / slowness,
        "ok_share": 1.0 - result.failed / result.attempted,
        "rss_peak_mib": phase.rss_mib,
        "probes_per_query": sum(probes) / len(probes),
        "rounds_per_query": sum(rounds) / len(rounds),
    })
    result.details.update({
        "setup_runs_s": setups,
        "latency_tail_percentile": q,
        "latency_samples": len(phase.latencies),
        "cost_queries": len(probes),
        "host_steal_share": common.steal_share(*phase.steal),
        "host_slowness": slowness,
    })


# -- offline workloads -----------------------------------------------------------
def _offline(name: str, cfg: Config, seed: int, seconds: float, trace: bool) -> Result:
    db = common.random_database(_rng(seed, 0), cfg.n, cfg.d)
    spec = _spec(cfg, seed)
    warm_rng = _rng(seed, 1)
    warm = pack_bits(planted_bits(warm_rng, db, warm_rng.integers(0, cfg.n, cfg.batch)), cfg.d)
    query_rng, sample_rng = _rng(seed, 2), _rng(seed, 3)
    buf = spans.SpanBuffer() if trace else None
    if trace:
        trace_dir = _trace_dir(name, seed)
        spans.install_inprocess(buf)
    result = Result()
    kept: List[tuple] = []
    try:
        setups = []
        for _ in range(1 if trace else cfg.setups):
            index = None  # the previous set-up's index is garbage now
            start = time.perf_counter()
            index = ANNIndex.from_spec(db, spec)
            index.prepare()
            index.query_batch(warm)
            setups.append(time.perf_counter() - start)

        def batches():
            while True:
                rows = query_rng.integers(0, cfg.n, cfg.batch)
                yield pack_bits(planted_bits(query_rng, db, rows), cfg.d)

        if trace:
            setup_table = spans.self_times(buf.spans)
            mark = len(buf.spans)
        phases = _offline_phases(index, batches(), seconds, cfg, sample_rng, kept, buf)
    finally:
        if trace:
            buf.uninstall()

    result.attempted = sum(p.queries + p.errors for p in phases)
    result.failed = sum(p.errors for p in phases)
    result.failed += _check_offline(ANNIndex.from_spec(db, spec), kept, result)
    result.details["kernel"] = {"benchmark": active_kernel()}
    if not trace:
        _end_to_end(result, phases[0], setups)
        return result
    untraced, traced = phases
    table = spans.self_times(buf.spans, since=mark)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    _fill_engine_layers(metrics, table, buf.counts, traced.queries)
    metrics["cellprobe.cells_per_probe"] = (
        traced.cells / traced.stat_probes if traced.stat_probes else 0.0
    )
    setup_total = {k: v["total_ns"] / 1e9 for k, v in setup_table.items()}
    metrics["core.prepare_s"] = setup_total.get("setup.prepare", 0.0)
    if name == "offline-lsh":
        metrics["baselines.build_s"] = setup_total.get("setup.build", 0.0)
    metrics["host.steal_share"] = common.steal_share(*traced.steal)
    metrics["trace.overhead_share"] = 1.0 - traced.qps / untraced.qps
    result.metrics = metrics
    result.details["layer_sum_share"] = _layer_sum_share(table)
    buf.dump(trace_dir / "benchmark.json")
    return result


def _offline_phases(index, batches, seconds: float, cfg: Config,
                    sample_rng: np.random.Generator, kept: List[tuple],
                    buf: Optional[spans.SpanBuffer]) -> List[Phase]:
    """The measured phase: back-to-back ``query_batch`` calls.

    Without ``buf`` returns one phase.  With it, batches alternate
    between recording off and on, so both halves see equally warm
    caches; returns ``[untraced, traced]``.  Each phase is timed by the
    time spent inside its calls (the loop is closed and single
    threaded).  The host's speed is sampled between calls
    (``common.HostSpeed``), and the samples' CPU time is left out of
    the phase's.
    """
    pid = os.getpid()
    phases = [Phase(), Phase()] if buf is not None else [Phase()]
    cpu0, ticks0 = common.cpu_seconds([pid]), common.host_ticks()
    host = common.HostSpeed(cfg.reference)
    start = time.perf_counter()
    deadline = start + seconds
    calls = 0
    while calls < len(phases) or time.perf_counter() < deadline:
        phase = phases[calls % len(phases)]
        if buf is not None:
            buf.enabled = phase is phases[1]
        calls += 1
        packed = next(batches)
        t0 = time.perf_counter()
        try:
            results = index.query_batch(packed)
        except Exception:  # counted as failed operations; the run goes on
            phase.errors += len(packed)
            continue
        phase.record_time(time.perf_counter() - t0, host.around())
        phase.queries += len(results)
        stats = index.last_batch_stats
        phase.cells += stats.prefetched_cells
        phase.stat_probes += stats.total_probes
        phase.record_cost(results, cfg.cost_queries)
        _sample_rss(phases, [pid], cfg, final=False)
        if sample_rng.random() * cfg.check_every < 1:
            kept.append((packed, [(r.answer_index, list(r.probes_per_round))
                                  for r in results]))
    if buf is not None:
        buf.enabled = False
    cpu = common.cpu_seconds([pid]) - cpu0 - host.total_ms / 1000
    _sample_rss(phases, [pid], cfg, final=True)
    ticks = (ticks0, common.host_ticks())
    for phase in phases:
        phase.seconds = sum(phase.latencies)
        phase.cpu_s, phase.steal = cpu, ticks
    return phases


def _check_offline(oracle, kept: List[tuple], result: Result) -> int:
    """Mismatches of kept answers against a fresh sequential index."""
    checked = mismatched = 0
    for packed, answers in kept:
        for row, (answer, per_round) in zip(packed, answers):
            expected = oracle.query_packed(row)
            checked += 1
            if (expected.answer_index, list(expected.probes_per_round)) != (answer, per_round):
                mismatched += 1
    result.details["oracle_checked"] = checked
    return mismatched


# -- routed workload ---------------------------------------------------------------
@dataclass
class WriteRecord:
    sent: float
    acked: float
    due: float
    op: str
    arg: object  # packed row (insert) or global id (delete)
    outcome: object  # ids list / deleted count, or None on error


@dataclass
class ReadRecord:
    sent: float
    received: float
    packed: np.ndarray
    answers: list


class Writer(threading.Thread):
    """Open loop: one write every ``period`` seconds, timed from when it
    was due.  Inserts a point planted near a hot row until ``band + 1``
    of its own inserts are live, then alternates deleting its oldest
    live insert with inserting a new point."""

    def __init__(self, client, db, hot, cfg: Config, rng, start_at: float,
                 deadline: float):
        super().__init__(name="perfbench-writer", daemon=True)
        self.client, self.db, self.hot, self.cfg, self.rng = client, db, hot, cfg, rng
        self.start_at, self.deadline = start_at, deadline
        self.live: List[int] = []  # ids of this writer's live inserts, oldest first
        self.records: List[WriteRecord] = []

    def run(self) -> None:
        i = 0
        while True:
            i += 1
            due = self.start_at + i * self.cfg.write_period_s
            if due >= self.deadline:
                return
            time.sleep(max(0.0, due - time.perf_counter()))
            if len(self.live) <= self.cfg.band:
                row = self.hot[self.rng.integers(0, len(self.hot), 1)]
                bits = planted_bits(self.rng, self.db, row)
                op, arg = "insert", pack_bits(bits, self.db.d)[0]
            else:
                op, arg, bits = "delete", self.live[0], None
            sent = time.perf_counter()
            try:
                if op == "insert":
                    outcome = self.client.insert(bits)
                    self.live.extend(outcome)
                else:
                    outcome = self.client.delete([arg])
                    self.live.pop(0)
            except Exception:  # counted as a failed write
                outcome = None
            self.records.append(
                WriteRecord(sent, time.perf_counter(), due, op, arg, outcome)
            )


def _routed(name: str, cfg: Config, seed: int, seconds: float, trace: bool,
            workdir: Path) -> Result:
    db = common.random_database(_rng(seed, 0), cfg.n, cfg.d)
    spec = _spec(cfg, seed)
    hot = _rng(seed, 4).choice(cfg.n, cfg.hot, replace=False)
    warm_rng = _rng(seed, 1)
    warm_bits = planted_bits(warm_rng, db, warm_rng.integers(0, cfg.n, cfg.batch))
    read_rng, write_rng = _rng(seed, 2), _rng(seed, 5)
    buf = spans.SpanBuffer() if trace else None
    trace_dir = _trace_dir(name, seed) if trace else None
    if trace:
        spans.install_inprocess(buf)
    result = Result()
    reads: List[ReadRecord] = []
    writes: List[WriteRecord] = []
    setups, ready = [], []
    cluster = client = None
    try:
        for s in range(1 if trace else cfg.setups):
            if cluster is not None:
                client.close()
                _shutdown(cluster)
            start = time.perf_counter()
            snapshot = ShardedANNIndex.build(db, spec, shards=cfg.shards).save(
                workdir / f"snapshot{s}"
            )
            cluster = ClusterHarness(
                snapshot, replicas=1, workdir=workdir / f"cluster{s}",
                log_dir=workdir / f"wal{s}",
            )
            spawn = time.perf_counter()
            _start(cluster, trace_dir)
            ready.append(time.perf_counter() - spawn)
            client = cluster.connect()
            client.query_batch(warm_bits)
            setups.append(time.perf_counter() - start)
        pids = [os.getpid(), cluster.router.proc.pid] + [
            p.proc.pid for group in cluster.shard_servers for p in group
        ]
        setup_table = spans.self_times(buf.spans) if trace else {}

        mark = len(buf.spans) if trace else 0
        phases, phase_writes, stats = _routed_phases(
            cluster, client, db, hot, cfg, seconds, pids, read_rng, write_rng,
            reads, writes, buf,
        )
        kernels = {"benchmark": active_kernel(), "router": stats["router"]["kernel"]}
        kernels.update({f"shard{i}": s["kernel"] for i, s in enumerate(stats["shards"])})
        client.close()
        client = None
        _shutdown(cluster)
        cluster = None
    finally:
        if client is not None:
            client.close()
        if cluster is not None:
            _shutdown(cluster)
        if trace:
            buf.uninstall()

    result.attempted = sum(p.queries + p.errors for p in phases) + len(writes)
    result.failed = sum(p.errors for p in phases)
    result.failed += _check_routed(ShardedANNIndex.build(db, spec, shards=cfg.shards),
                                   reads, writes, result)
    result.details.update({
        "kernel": kernels,
        "wal_filesystem": common.filesystem_of(workdir),
        "wal_flush_policy": FLUSH_POLICY,
        "writes": len(writes),
    })
    if not trace:
        _end_to_end(result, phases[0], setups)
        result.details.update(_write_latencies(phase_writes[0], "detail."))
        return result

    untraced, traced = phases
    server_files = _load_server_spans(trace_dir, pids[1:])
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    q = traced.queries
    shard_tables = [spans.self_times(f["spans"]) for f in server_files[1:]]
    router_table = spans.self_times(server_files[0]["spans"])
    engine_table = _sum_tables(shard_tables)
    engine_counts: Dict[str, float] = {}
    for f in server_files[1:]:
        for k, v in f["counts"].items():
            engine_counts[k] = engine_counts.get(k, 0) + v
    _fill_engine_layers(metrics, engine_table, engine_counts, q)
    client_table = spans.self_times(buf.spans, since=mark)
    all_servers = _sum_tables([router_table] + shard_tables)
    metrics.update({
        "client.encode_ms": _ms_per_query(client_table, "client.encode", q),
        "client.decode_ms": _ms_per_query(client_table, "client.decode", q),
        "wire.request_kib_per_query": buf.counts.get("client.encode.bytes", 0) / 1024 / q,
        "wire.response_kib_per_query": buf.counts.get("client.decode.bytes", 0) / 1024 / q,
        "server.decode_ms": _ms_per_query(all_servers, "server.decode", q),
        "server.encode_ms": _ms_per_query(all_servers, "server.encode", q),
        "router.self_ms": _ms_per_query(router_table, "router.query_batch", q),
        "cellprobe.cells_per_probe": stats["cells_per_probe"],
        "server.mean_batch": stats["mean_batch"],
        "router.fanout_wait_ms": stats["fanout_p50_ms"],
        "server.queue_wait_ms": _queue_wait(shard_tables),
        "core.prepare_s": setup_table.get("setup.prepare", {}).get("total_ns", 0) / 1e9,
        "persistence.save_s": setup_table.get("setup.save", {}).get("total_ns", 0) / 1e9,
        "server.ready_s": ready[0],
        "host.steal_share": common.steal_share(*traced.steal),
        "trace.overhead_share": 1.0 - traced.qps / untraced.qps,
    })
    appends = router_table.get("wal.append")
    if appends:  # one append per write: each write here touches one shard
        metrics["wal.append_ms"] = appends["total_ns"] / 1e6 / appends["calls"]
        metrics["wal.fsyncs_per_write"] = (
            server_files[0]["counts"].get("wal.fsyncs", 0) / appends["calls"]
        )
    metrics.update(_write_latencies(phase_writes[0], ""))
    result.metrics = metrics
    buf.dump(trace_dir / "benchmark.json")
    return result


def _routed_phases(cluster, client, db, hot, cfg: Config, seconds: float, pids,
                   rng, write_rng, reads: List[ReadRecord], writes: List[WriteRecord],
                   buf: Optional[spans.SpanBuffer]):
    """The measured phase: the reader runs here, the writer in a thread.

    Without ``buf`` returns ``([phase], [writes], stats)``.  With it,
    recording is switched off and on in alternating windows of a tenth
    of the run (SIGUSR2/SIGUSR1 to the servers), and reads and writes
    are split by the window they started in: ``([untraced, traced],
    [untraced writes, traced writes], stats)``.  Each phase is timed by
    the time its requests took (the reader is a closed loop), and the
    reader normalizes each request as the offline loop does.
    """
    phases = [Phase(), Phase()] if buf is not None else [Phase()]
    window = seconds / 10

    def mode(t: float) -> int:
        return int((t - start) / window) % 2 if buf is not None else 0

    before = _server_stats(cluster)
    writer_client = cluster.connect()
    cpu0, ticks0 = common.cpu_seconds(pids), common.host_ticks()
    host = common.HostSpeed(cfg.reference)
    start = time.perf_counter()
    writer = Writer(writer_client, db, hot, cfg, write_rng, start, start + seconds)
    writer.start()
    recording = False
    calls = 0
    try:
        while calls < len(phases) or time.perf_counter() < start + seconds:
            calls += 1
            is_hot = rng.random(cfg.batch) < cfg.hot_share
            rows = np.where(is_hot, hot[rng.integers(0, len(hot), cfg.batch)],
                            rng.integers(0, cfg.n, cfg.batch))
            bits = planted_bits(rng, db, rows)
            sent = time.perf_counter()
            phase = phases[mode(sent)]
            if buf is not None and recording != (phase is phases[-1]):
                recording = buf.enabled = not recording
                for pid in pids[1:]:
                    os.kill(pid, signal.SIGUSR1 if recording else signal.SIGUSR2)
            try:
                results = client.query_batch(bits)
            except Exception:  # counted as failed operations; the run goes on
                phase.errors += len(bits)
                continue
            received = time.perf_counter()
            phase.record_time(received - sent, host.around())
            phase.queries += len(results)
            phase.record_cost(results, cfg.cost_queries)
            _sample_rss(phases, pids, cfg, final=False)
            reads.append(ReadRecord(sent, received, pack_bits(bits, db.d), [
                (r.answer_index, r.probes, r.rounds, list(r.probes_per_round), r.distance)
                for r in results
            ]))
    finally:
        writer.join()
        writer_client.close()
    writes.extend(writer.records)
    if recording:
        buf.enabled = False
        for pid in pids[1:]:
            os.kill(pid, signal.SIGUSR2)
    cpu = common.cpu_seconds(pids) - cpu0 - host.total_ms / 1000
    _sample_rss(phases, pids, cfg, final=True)
    ticks = (ticks0, common.host_ticks())
    for phase in phases:
        phase.seconds = sum(phase.latencies)
        phase.cpu_s, phase.steal = cpu, ticks
    split = [[w for w in writer.records if mode(w.sent) == m] for m in range(len(phases))]
    for phase, records in zip(phases, split):
        phase.errors += sum(1 for w in records if w.outcome is None)
    return phases, split, _stats_delta(before, _server_stats(cluster))


def _server_stats(cluster) -> dict:
    with cluster.connect() as client:
        router = client.stats()
    shards = []
    for group in cluster.shard_servers:
        for proc in group:
            with ServiceClient(proc.host, proc.port, timeout=30) as client:
                shards.append(client.stats())
    return {"router": router, "shards": shards}


def _stats_delta(before: dict, after: dict) -> dict:
    """Counters over the phase, from the ``stats`` verb of every server."""
    def delta(key):
        return sum(a[key] - b[key] for a, b in zip(after["shards"], before["shards"]))

    probes, batches = delta("total_probes"), delta("batches")
    replicas = [r for s in after["router"]["shards"] for r in s["replicas"]]
    return {
        "router": after["router"],
        "shards": after["shards"],
        "cells_per_probe": delta("prefetched_cells") / probes if probes else 0.0,
        "mean_batch": delta("requests") / batches if batches else 0.0,
        "fanout_p50_ms": median(r["p50_ms"] for r in replicas),
    }


def _queue_wait(shard_tables: List[dict]) -> float:
    """Mean time a query waits in a shard server before its batch runs:
    the mean ``AsyncANNService.query`` span (arrival to result) minus the
    mean ``ANNIndex.query_batch`` span, averaged over the shards."""
    waits = []
    for table in shard_tables:
        query, run = table.get("server.query"), table.get("engine.run")
        if query and run:
            waits.append((query["total_ns"] / query["calls"]
                          - run["total_ns"] / run["calls"]) / 1e6)
    return sum(waits) / len(waits) if waits else 0.0


def _write_latencies(records: List[WriteRecord], prefix: str) -> Dict[str, float]:
    done = [w for w in records if w.outcome is not None]
    if not done:
        return {}
    latency = [(w.acked - w.due) * 1000 for w in done]
    _, tail_ms = tail(latency)
    return {
        f"{prefix}write_p50_ms": common.percentile(latency, 50),
        f"{prefix}write_tail_ms": tail_ms,
        f"{prefix}loadgen.write_lag_p99_ms": common.percentile(
            [(w.sent - w.due) * 1000 for w in records], 99
        ),
    }


def _check_routed(oracle, reads: List[ReadRecord], writes: List[WriteRecord],
                  result: Result) -> int:
    """Replay acknowledged writes in order into an in-process sharded
    index.  A read passes when it equals the oracle at one of the write
    prefixes its send and receive times allow: every write acknowledged
    before it was sent is in, no write sent after it came back is."""
    failed = 0
    applied = [w for w in writes if w.outcome is not None]
    bounds = []
    for read in reads:
        lo = sum(1 for w in applied if w.acked < read.sent)
        hi = sum(1 for w in applied if w.sent < read.received)
        bounds.append((lo, hi))
    best = [len(read.answers) for read in reads]  # fewest mismatches so far
    prefixes = 0
    for k in range(len(applied) + 1):
        for i, (lo, hi) in enumerate(bounds):
            if lo <= k <= hi and best[i]:
                prefixes += 1
                expected = oracle.query_batch(reads[i].packed)
                best[i] = min(best[i], sum(
                    1 for got, exp in zip(reads[i].answers, expected)
                    if got != (exp.answer_index, exp.probes, exp.rounds,
                               list(exp.probes_per_round), exp.meta.get("distance"))
                ))
        if k < len(applied):
            w = applied[k]
            if w.op == "insert":
                ok = oracle.insert(w.arg[None, :]) == w.outcome
            else:
                ok = oracle.delete([w.arg]) == w.outcome
            failed += not ok
    result.details["oracle_checked"] = sum(len(r.answers) for r in reads) + len(applied)
    result.details["oracle_prefixes"] = prefixes
    return failed + sum(best)


# -- cluster and trace plumbing -----------------------------------------------------
def _start(cluster, trace_dir: Optional[Path]) -> None:
    """Start the cluster; with ``trace_dir``, through the launcher hook."""
    if trace_dir is None:
        cluster.start()
        return
    saved = {k: os.environ.get(k) for k in ("PYTHONPATH", "PERFBENCH_TRACE_DIR")}
    launch = str(Path(__file__).resolve().parent / "launch")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (launch, saved["PYTHONPATH"]) if p
    )
    os.environ["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    try:
        cluster.start()
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _shutdown(cluster) -> None:
    """Stop through the protocol (so exit handlers run), then make sure."""
    if cluster.router is not None and cluster.router.alive:
        cluster.shutdown_via_client()
    procs = [cluster.router] + [p for g in cluster.shard_servers for p in g]
    for proc in procs:
        if proc is not None and proc.proc is not None:
            try:
                proc.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:  # stop() below escalates
                pass
    cluster.stop()


def _load_server_spans(trace_dir: Path, pids: List[int]) -> List[dict]:
    return [json.loads((trace_dir / f"{pid}.json").read_text()) for pid in pids]


def _sum_tables(tables: List[dict]) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for table in tables:
        for name, entry in table.items():
            acc = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for key in acc:
                acc[key] += entry[key]
    return out


def _layer_sum_share(table: Dict[str, dict]) -> float:
    """Sum of the engine layers' self times over ``engine.run``'s total."""
    run = table.get("engine.run")
    if not run or not run["total_ns"]:
        return 0.0
    layers = sum(table.get(s, {}).get("self_ns", 0) for s in ENGINE_LAYERS.values())
    return layers / run["total_ns"]


def _trace_dir(name: str, seed: int) -> Path:
    path = common.ROOT / ".perfbench" / "trace" / f"{name}-seed{seed}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run(name: str, seed: int, seconds: float, trace: bool,
        config: Optional[Config] = None) -> Result:
    """Run one workload; ``config`` overrides its sizes (tests use tiny ones)."""
    cfg = config or CONFIGS[name]
    if name != "routed-rw":
        result = _offline(name, cfg, seed, seconds, trace)
        result.details["host_reference"] = cfg.reference
        return result
    workdir = common.ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # The routed stack runs on one CPU: the servers inherit this process's
    # affinity.  On a shared 2-vCPU host, four processes spread over both
    # vCPUs made throughput follow how much of the second vCPU the
    # hypervisor stole (280-550 queries/s from one minute to the next);
    # on one CPU they repeat within a few percent.  The single-threaded
    # offline workloads stay unpinned, free to move off a stolen vCPU.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        result = _routed(name, cfg, seed, seconds, trace, workdir)
        result.details["cpu_affinity"] = [min(allowed)]
        result.details["host_reference"] = cfg.reference
        return result
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(workdir, ignore_errors=True)
