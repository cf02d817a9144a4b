"""Synchronous client for the NDJSON serving protocol.

:class:`ServiceClient` speaks the wire protocol of
:func:`repro.service.server.serve` (one JSON object per line, matched by
``id``; shapes documented in ``docs/SERVING.md``) over a blocking
socket.  It exists for tests, examples, and shell scripting — the CI
serve smoke test is exactly::

    with ServiceClient(port=port) as client:
        result = client.query(bits)
        client.stats()
        client.shutdown()

It talks to a single ``repro serve`` process, a ``repro shard-serve``
replica, or a ``repro route`` router interchangeably — the router speaks
the same protocol (``docs/DISTRIBUTED.md``).  Query rows always go out
in the packed form of :mod:`repro.service.wire` (base64 of the packed
words); inserts send 0/1 lists.

Responses may arrive out of order when requests are pipelined (the
server handles each line as its own task); the client parks non-matching
responses and replays them when their request asks.

Every socket operation is bounded: the constructor's ``timeout`` covers
connect **and** reads, and each verb takes an optional per-request
``timeout`` override.  A server that dies (or is suspended) between
request and response surfaces as a typed :class:`ServiceTimeoutError`
instead of a hung client — the regression tests kill a server mid-request
to pin this down.  A timed-out request is *abandoned*: its id is
remembered (in a bounded set — a server that never answers must not leak
one id per timeout forever), its late response (if one ever comes) is
discarded instead of parked, and the connection stays usable — reads are
buffered by the client itself, so they resume on the exact byte the
timeout interrupted.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.hamming.packing import pack_bits
from repro.service.wire import encode_packed

__all__ = [
    "RemoteResult",
    "ServiceClient",
    "ServiceError",
    "ServiceTimeoutError",
]


class ServiceError(RuntimeError):
    """The server reported an error, or the connection broke."""


class ServiceTimeoutError(ServiceError):
    """The server did not answer (or accept a connection) in time.

    Raised instead of blocking forever when a server is killed or
    suspended between request and response.  Subclasses
    :class:`ServiceError`, so existing ``except ServiceError`` handlers
    keep working.
    """


@dataclass(frozen=True)
class RemoteResult:
    """A ``query`` response: the answer plus its probe/round ledger.

    The accounting fields mirror :class:`~repro.core.result.QueryResult`
    one-to-one, so a remote answer can be compared field-by-field with a
    local ``index.query`` call (the protocol tests do exactly that).
    ``distance`` is the true Hamming distance from the query to the
    answered point, computed server-side — routers merge shard answers
    by it (None when unanswered, or from pre-distance servers).
    """

    answer_index: Optional[int]
    probes: int
    rounds: int
    probes_per_round: List[int]
    scheme: str
    distance: Optional[int] = None
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def answered(self) -> bool:
        return self.answer_index is not None

    @classmethod
    def from_response(cls, response: Dict[str, object]) -> "RemoteResult":
        distance = response.get("distance")
        return cls(
            answer_index=response.get("answer_index"),
            probes=int(response["probes"]),
            rounds=int(response["rounds"]),
            probes_per_round=[int(p) for p in response["probes_per_round"]],
            scheme=str(response.get("scheme", "")),
            distance=None if distance is None else int(distance),
            meta=dict(response.get("meta", {})),
        )


def _bit_array(points) -> np.ndarray:
    """Bit rows as a validated ``(m, d)`` 0/1 array; packed uint64 input
    and non-integer or non-0/1 values are refused."""
    arr = np.asarray(points)
    if arr.dtype == np.uint64:
        raise ValueError(
            "the wire protocol carries bit vectors, not packed words; "
            "unpack with repro.hamming.packing.unpack_bits first"
        )
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"bit rows need shape (m, d) with m, d >= 1, got {arr.shape}")
    if arr.dtype.kind not in "biu":
        raise ValueError(f"bits must be integers 0/1, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() > 1:
        raise ValueError("bits must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def _coerce_bit_rows(points) -> Dict[str, object]:
    """Query rows in the packed wire form (:mod:`repro.service.wire`)."""
    arr = _bit_array(points)
    d = arr.shape[1]
    return encode_packed(pack_bits(arr, d), d)


class ServiceClient:
    """Blocking TCP client for one serving endpoint.

    Usable as a context manager; every method raises
    :class:`ServiceError` when the server answers ``ok: false`` or the
    connection drops, and :class:`ServiceTimeoutError` when it stops
    answering.  ``timeout`` bounds connect and every read; per-verb
    ``timeout`` arguments override it for one request.
    """

    #: Cap on remembered abandoned request ids.  A server that never
    #: answers (died, wedged) would otherwise grow the set by one id per
    #: timeout forever on a long-lived client.  Ids evicted here can no
    #: longer be recognized if their response *does* eventually arrive —
    #: that response is parked instead, and the stale-parked sweep in
    #: :meth:`_request` reclaims it on the next call.
    ABANDONED_LIMIT = 1024

    def __init__(self, host: str = "127.0.0.1", port: int = 7878, timeout: float = 30.0):
        self._timeout = timeout
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except socket.timeout as exc:
            raise ServiceTimeoutError(
                f"connect to {host}:{port} timed out after {timeout}s"
            ) from exc
        self._sock.settimeout(timeout)
        self._wfile = self._sock.makefile("wb")
        # Reads go through an explicit buffer instead of makefile("rb"):
        # a timeout mid-line leaves the partial bytes in _rbuf and the
        # next read resumes exactly where the stream left off, where a
        # socket file object poisons itself after any timeout ("cannot
        # read from timed out object") and would force a reconnect.
        self._rbuf = bytearray()
        self._next_id = 0
        self._parked: Dict[object, dict] = {}
        # Request ids whose caller gave up (ServiceTimeoutError): when
        # their late response eventually arrives it is dropped, not
        # parked — parking it would grow _parked without bound under
        # repeated timeouts, since nothing ever asks for those ids.
        self._abandoned: set = set()

    # -- plumbing ----------------------------------------------------------
    def _readline(self) -> bytes:
        """One complete response line (timeout-safe buffered reads)."""
        while True:
            newline = self._rbuf.find(b"\n")
            if newline >= 0:
                line = bytes(self._rbuf[: newline + 1])
                del self._rbuf[: newline + 1]
                return line
            chunk = self._sock.recv(65536)
            if not chunk:
                return b""  # EOF; a partial buffered line is torn anyway
            self._rbuf += chunk

    def _request(self, op: str, timeout: Optional[float] = None, **payload) -> dict:
        request_id = self._next_id
        self._next_id += 1
        # Ids are handed out once, in order, so a parked response for any
        # older id can never be claimed again — reclaim them now.  (Late
        # responses for ids evicted from _abandoned land in _parked; this
        # sweep is what keeps that bounded too.)
        stale = [
            rid for rid in self._parked
            if not isinstance(rid, int) or rid < request_id
        ]
        for rid in stale:
            del self._parked[rid]
        line = json.dumps({"op": op, "id": request_id, **payload})
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            self._wfile.write(line.encode() + b"\n")
            self._wfile.flush()
            while True:
                if request_id in self._parked:
                    response = self._parked.pop(request_id)
                else:
                    raw = self._readline()
                    if not raw:
                        raise ServiceError("server closed the connection")
                    response = json.loads(raw)
                    if response.get("id") != request_id:
                        rid = response.get("id")
                        if rid in self._abandoned:
                            self._abandoned.discard(rid)
                        else:
                            self._parked[rid] = response
                        continue
                if not response.get("ok"):
                    raise ServiceError(response.get("error", "unknown server error"))
                return response
        except socket.timeout as exc:
            # The connection stays usable (see _readline); the eventual
            # reply is matched against _abandoned and dropped.  The set
            # is capped: the oldest ids go first — they are the least
            # likely to ever be answered.
            self._abandoned.add(request_id)
            while len(self._abandoned) > self.ABANDONED_LIMIT:
                self._abandoned.discard(min(self._abandoned))
            raise ServiceTimeoutError(
                f"server did not answer {op!r} within "
                f"{timeout if timeout is not None else self._timeout}s"
            ) from exc
        finally:
            if timeout is not None:
                self._sock.settimeout(self._timeout)

    # -- verbs -------------------------------------------------------------
    def query(self, bits, timeout: Optional[float] = None) -> RemoteResult:
        """Answer one query given as a length-``d`` 0/1 bit vector."""
        if np.ndim(bits) != 1:
            raise ValueError(f"'query' takes one bit vector, got shape {np.shape(bits)}")
        rows = _coerce_bit_rows(bits)
        return RemoteResult.from_response(self._request("query", timeout=timeout, **rows))

    def query_batch(self, queries, timeout: Optional[float] = None) -> List[RemoteResult]:
        """Answer a batch of bit-vector queries in one request.

        The server micro-batches the whole list together; results come
        back in input order, each bitwise-identical to a lone ``query``.
        """
        rows = _coerce_bit_rows(queries)
        response = self._request("query_batch", timeout=timeout, **rows)
        return [RemoteResult.from_response(r) for r in response["results"]]

    def insert(self, points, timeout: Optional[float] = None) -> List[int]:
        """Insert points (a list/array of length-``d`` 0/1 bit rows).

        Returns the assigned global ids, in input order.  The server
        applies the insert as a barrier: queries already submitted
        complete against the old state, later ones see the new points.
        """
        response = self._request(
            "insert", timeout=timeout, points=_bit_array(points).tolist()
        )
        return [int(i) for i in response["ids"]]

    def delete(self, ids, timeout: Optional[float] = None) -> int:
        """Delete rows by global id; returns the deleted count.

        Same barrier semantics as :meth:`insert`; an invalid id raises
        :class:`ServiceError` and leaves the served index unchanged.
        Ids are validated client-side (flat, integer, no duplicates)
        before anything goes on the wire — floats are never truncated.
        """
        from repro.core.mutable import coerce_delete_ids

        response = self._request(
            "delete", timeout=timeout, ids=[int(i) for i in coerce_delete_ids(ids)]
        )
        return int(response["deleted"])

    def snapshot(self, path=None, timeout: Optional[float] = None) -> dict:
        """Snapshot the served index.

        Against a single server, the save runs as a write barrier and
        records the last applied write-log sequence number in the
        manifest (``write_seq``), so a replica restarted from it
        replays only the log tail; ``path=None`` saves back to the
        directory the server loaded (``--index``).  Returns
        ``{"path": ..., "write_seq": ...}``.

        Against a router, ``path`` must stay ``None``: every live
        replica snapshots to its own snapshot directory and the durable
        write-ahead log is truncated up to the replicas' persisted
        coverage (``docs/DISTRIBUTED.md``).  Returns the router's
        checkpoint report (per-replica saves, per-shard truncation
        counts).
        """
        payload = {} if path is None else {"path": str(path)}
        response = self._request("snapshot", timeout=timeout, **payload)
        return {k: v for k, v in response.items() if k not in ("ok", "id")}

    def stats(self, timeout: Optional[float] = None) -> dict:
        """The server's metrics snapshot (service or router counters)."""
        return self._request("stats", timeout=timeout)["stats"]

    def info(self, timeout: Optional[float] = None) -> dict:
        """What is being served: index description + batching policy."""
        response = self._request("info", timeout=timeout)
        info = {"index": response["index"], "policy": response.get("policy")}
        for key in ("replication", "cluster", "row_forms"):
            if key in response:
                info[key] = response[key]
        return info

    def ping(self, timeout: Optional[float] = None) -> bool:
        return bool(self._request("ping", timeout=timeout).get("ok"))

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Ask the server to stop (acknowledged before it goes down)."""
        self._request("shutdown", timeout=timeout)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        try:
            self._wfile.close()
        except OSError:
            pass
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
