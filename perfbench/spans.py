"""Spans recorded from outside the program, around calls into ``repro``.

The benchmark never edits ``repro``: it replaces public functions and
methods with thin wrappers that open a span, call the original and close
the span.  A span is ``[name, start_ns, end_ns, parent, request]``; the
parent is tracked in a :class:`contextvars.ContextVar`, so nesting is
right both across threads (the routed workload's reader and writer) and
across asyncio tasks (the router's fan-out).  Spans with no parent start
a new request id; their descendants share it.

Spans stay in memory (:class:`SpanBuffer`) and are written out once, at
the end (:meth:`SpanBuffer.dump`).  :func:`self_times` turns a span list
into per-name totals and self times: a span's self time is its duration
minus the part of it that its children cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
import time
import types
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

__all__ = [
    "SpanBuffer",
    "TimedJson",
    "install_inprocess",
    "install_server",
    "self_times",
]


class SpanBuffer:
    """In-memory span list plus named counters, with an on/off switch."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._requests = itertools.count()
        self._lock = threading.Lock()
        self._undo: List[tuple] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str):
        parent = self._current.get()
        with self._lock:
            request = next(self._requests) if parent is None else self.spans[parent][4]
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), 0, parent, request])
        return idx, self._current.set(idx)

    def close(self, handle) -> None:
        idx, token = handle
        self.spans[idx][2] = time.perf_counter_ns()
        self._current.reset(token)

    def recording(self) -> bool:
        """Whether a call starting now is recorded: recording is on, or
        the call runs inside a recorded span (so a switch in the middle
        of a span never leaves it with only some of its children)."""
        return self.enabled or self._current.get() is not None

    def count(self, name: str, amount: float = 1) -> None:
        if self.recording():
            with self._lock:
                self.counts[name] += amount

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             on_call: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper (undone by
        :meth:`uninstall`).  ``on_call(args, kwargs, result)`` may add
        counts; it runs only for recorded calls."""
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else getattr(owner, attr)
        buf = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                if not buf.recording():
                    return await fn(*args, **kwargs)
                handle = buf.open(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    buf.close(handle)
                if on_call is not None:
                    on_call(args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not buf.recording():
                    return fn(*args, **kwargs)
                handle = buf.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    buf.close(handle)
                if on_call is not None:
                    on_call(args, kwargs, result)
                return result

        # An instance attribute shadowing a class method is removed on
        # uninstall; a module or class attribute is put back.
        shadow = not isinstance(owner, (type, types.ModuleType)) and attr not in vars(owner)
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._undo.append((owner, attr, raw, shadow))

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` (undone by :meth:`uninstall`)."""
        self._undo.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, raw, shadow in reversed(self._undo):
            if shadow:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._undo.clear()

    def current_name(self) -> Optional[str]:
        idx = self._current.get()
        return None if idx is None else self.spans[idx][0]

    # -- output ------------------------------------------------------------
    def dump(self, path) -> None:
        """Write the spans (an unclosed one has end 0) and the counters
        as one JSON object."""
        Path(path).write_text(
            json.dumps({"pid": os.getpid(), "spans": self.spans,
                        "counts": dict(self.counts)})
        )


class TimedJson:
    """Stand-in for the ``json`` module inside one ``repro`` module:
    ``dumps``/``loads`` become spans and count the bytes they produce or
    read; everything else is the real module.  With ``under`` set, bytes
    are counted only for calls made inside a span of that name."""

    def __init__(self, buf: SpanBuffer, encode: str, decode: str,
                 under: Optional[str] = None):
        self._buf, self._encode, self._decode = buf, encode, decode
        self._under = under

    def _count(self, name: str, size: int) -> None:
        if self._under is None or self._buf.current_name() == self._under:
            self._buf.count(name + ".bytes", size)

    def __getattr__(self, attr):
        return getattr(json, attr)

    def dumps(self, obj, **kwargs):
        if not self._buf.recording():
            return json.dumps(obj, **kwargs)
        handle = self._buf.open(self._encode)
        try:
            text = json.dumps(obj, **kwargs)
        finally:
            self._buf.close(handle)
        self._count(self._encode, len(text) + 1)  # + the newline
        return text

    def loads(self, raw, **kwargs):
        if not self._buf.recording():
            return json.loads(raw, **kwargs)
        handle = self._buf.open(self._decode)
        try:
            return json.loads(raw, **kwargs)
        finally:
            self._buf.close(handle)
            self._count(self._decode, len(raw))


def _kernel_bytes(buf: SpanBuffer, kind: str):
    """Counts the XOR operand bytes a distance-kernel call computes."""
    def on_call(args, kwargs, result):
        a, b = args[0], args[1]
        rows_a = 1 if kind == "many" else a.shape[0]
        buf.count("hamming.kernel_bytes", rows_a * b.shape[0] * b.shape[1] * 8)
    return on_call


def _install_engine(buf: SpanBuffer) -> None:
    """Spans on the query path shared by the benchmark process (offline
    workloads) and the shard servers (routed workload)."""
    from repro.baselines import lsh
    from repro.cellprobe.plan import BatchAddressPrimer
    from repro.cellprobe.scheme import CellProbingScheme
    from repro.cellprobe.table import LazyTable
    from repro.core import algorithm1, algorithm2, boosting, index
    from repro.hamming import kernels

    buf.wrap(index.ANNIndex, "query_batch", "engine.run")
    buf.wrap(index, "merge_mutation_candidates", "core.merge")
    for cls in (CellProbingScheme, algorithm1.SimpleKRoundScheme,
                algorithm2.LargeKScheme, boosting.BoostedScheme):
        if "batch_prepare" in vars(cls):
            buf.wrap(cls, "batch_prepare", "sketch.prime")
    # Batch sketching is lazy: batch_prepare only hands the batch to the
    # primer, which sketches a level for the whole batch on first use.
    buf.wrap(BatchAddressPrimer, "prime", "sketch.prime")
    buf.wrap(LazyTable, "prefetch", "cellprobe.prefetch")
    for name in kernels.available_kernels():  # whichever one is active
        backend = kernels.get_kernel(name)
        buf.wrap(backend, "cross_distances", "hamming.kernel",
                 _kernel_bytes(buf, "cross"))
        buf.wrap(backend, "hamming_distance_many", "hamming.kernel",
                 _kernel_bytes(buf, "many"))
    buf.wrap(lsh, "sampled_bits_hash", "baselines.hash",
             lambda args, kwargs, result: buf.count("baselines.hash_calls"))


def install_inprocess(buf: SpanBuffer) -> None:
    """Spans in the benchmark process: engine layers, set-up calls and
    the client side of the wire."""
    from repro.core.index import ANNIndex
    from repro.service import client
    from repro.service.sharded import ShardedANNIndex

    _install_engine(buf)
    buf.wrap(ANNIndex, "from_spec", "setup.build")
    buf.wrap(ANNIndex, "prepare", "setup.prepare")
    buf.wrap(ShardedANNIndex, "build", "setup.sharded_build")
    buf.wrap(ShardedANNIndex, "save", "setup.save")
    buf.wrap(client.ServiceClient, "query_batch", "client.call")
    buf.wrap(client, "_coerce_bit_rows", "client.encode")
    buf.wrap(client.RemoteResult, "from_response", "client.decode")
    buf.replace(client, "json",
                TimedJson(buf, "client.encode", "client.decode", under="client.call"))


def install_server(buf: SpanBuffer) -> None:
    """Spans in a shard server or the router (see ``launch/``)."""
    from repro.service import cluster, replica, server, wal

    _install_engine(buf)
    buf.wrap(server.AsyncANNService, "query", "server.query")
    buf.wrap(server, "_packed_query", "server.decode")
    buf.wrap(server, "_result_response", "server.encode")
    for module in (server, cluster, replica):
        buf.replace(module, "json", TimedJson(buf, "server.encode", "server.decode"))
    buf.wrap(cluster.ShardRouter, "query_batch", "router.query_batch")
    buf.wrap(replica.AsyncReplicaClient, "request", "router.replica_call")
    buf.wrap(wal.WriteAheadLog, "append", "wal.append")
    buf.wrap(os, "fsync", "wal.fsync",
             lambda args, kwargs, result: buf.count("wal.fsyncs"))


def self_times(spans: List[list], since: int = 0) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_ns`` and ``self_ns`` over the
    spans recorded from index ``since`` on.

    Children may overlap (an asyncio fan-out), so a span's covered part
    is the union of its children's intervals, clipped to the span.
    """
    children = defaultdict(list)
    for idx in range(since, len(spans)):
        span = spans[idx]
        if span[3] is not None and span[2]:
            children[span[3]].append(idx)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ns": 0, "self_ns": 0}
    )
    for idx in range(since, len(spans)):
        name, start, end = spans[idx][:3]
        if not end:
            continue
        intervals = sorted(
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children.get(idx, ())
        )
        covered, reach = 0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = out[name]
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - covered
    return dict(out)
