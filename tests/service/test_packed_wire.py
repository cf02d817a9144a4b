"""The packed row form of the read verbs, against a server and a router.

``query``/``query_batch`` accept their rows as ``{"packed": <base64 of
little-endian uint64 words>, "d": <bits per row>}`` besides the JSON 0/1
lists (``repro.service.wire``, ``docs/SERVING.md``).  Three properties:

* **layout** — the packed string is exactly the words of
  :mod:`repro.hamming.packing`, row by row;
* **oracle** — both forms answer bitwise-identically to
  ``ANNIndex.query`` (one shard server) and to
  ``ShardedANNIndex.query_batch`` (a 2-shard router), for d = 100 (padding
  bits in the last word) and d = 1024;
* **refusals** — every malformed packed batch, and every list row with a
  non-integer bit, gets a per-request error and the server keeps
  serving; a batch the router refuses reaches no shard.

Servers and the router run in-process, one event loop per thread.
"""

from __future__ import annotations

import asyncio
import base64
import json
import queue
import threading

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.hamming.packing import pack_bits, packed_words, unpack_bits
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import random_points
from repro.service import RemoteResult, ServiceClient, ServiceError
from repro.service.client import _coerce_bit_rows
from repro.service.cluster import serve_router
from repro.service.server import _query_distance, serve
from repro.service.sharded import ShardedANNIndex
from repro.service.wire import ROW_FORMS

N = 64
SPEC = IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=41)
FIELDS = ("answer_index", "probes", "rounds", "probes_per_round", "distance")


def _run_in_thread(start) -> tuple:
    """Run ``start(ready_cb)`` (a coroutine factory) on its own event
    loop; returns the bound ``(host, port)`` and the thread."""
    ready: "queue.Queue" = queue.Queue()
    thread = threading.Thread(
        target=lambda: asyncio.run(start(lambda host, port: ready.put((host, port)))),
        daemon=True,
    )
    thread.start()
    return ready.get(timeout=30), thread


class Stack:
    """One single-index server plus a 2-shard router over two shard
    servers, all serving fresh builds of the same database, and the
    in-process oracles (separate builds, never touched by a server)."""

    def __init__(self, d: int):
        self.d = d
        gen = np.random.default_rng(d)
        db = PackedPoints(random_points(gen, N, d), d)
        self.oracle = ANNIndex.from_spec(db, SPEC)
        self.sharded_oracle = ShardedANNIndex.build(db, SPEC, shards=2)
        served = ANNIndex.from_spec(db, SPEC)
        served_shards = ShardedANNIndex.build(db, SPEC, shards=2).shards
        self.threads = []
        self.server = self._spawn(lambda cb: serve(served, port=0, ready_cb=cb))
        self.shards = [
            self._spawn(
                lambda cb, shard=shard, si=si: serve(shard, port=0, shard_id=si, ready_cb=cb)
            )
            for si, shard in enumerate(served_shards)
        ]
        shard_map = [[address] for address in self.shards]
        # No health sweeps during the tests: the router's per-replica
        # request counters then move only with forwarded requests.
        self.router = self._spawn(
            lambda cb: serve_router(shard_map, port=0, health_interval=3600.0, ready_cb=cb)
        )
        # Planted queries: database rows with a few bits flipped, plus
        # uniform ones.
        rows = unpack_bits(db.words[gen.integers(0, N, 6)], d)
        rows[:, gen.integers(0, d, 3)] ^= 1
        uniform = unpack_bits(random_points(gen, 4, d), d)
        self.bits = np.concatenate([rows, uniform]).astype(np.uint8)

    def _spawn(self, start) -> tuple:
        address, thread = _run_in_thread(start)
        self.threads.append(thread)
        return address

    def client(self, address) -> ServiceClient:
        return ServiceClient(*address, timeout=30.0)

    def shard_requests(self) -> list:
        """Per shard: queries the shard served, and requests the router
        sent it."""
        served = []
        for address in self.shards:
            with self.client(address) as client:
                served.append(client.stats()["requests"])
        with self.client(self.router) as client:
            shards = client.stats()["shards"]
        sent = [shard["replicas"][0]["requests"] for shard in shards]
        return served + sent

    def stop(self) -> None:
        for address in [self.router, self.server, *self.shards]:
            try:
                with self.client(address) as client:
                    client.shutdown()
            except (ServiceError, OSError):
                pass
        for thread in self.threads:
            thread.join(timeout=10)


@pytest.fixture(scope="module")
def stacks():
    started = {}

    def get(d: int) -> Stack:
        if d not in started:
            started[d] = Stack(d)
        return started[d]

    yield get
    for stack in started.values():
        stack.stop()


def _expected_single(stack: Stack) -> list:
    out = []
    for bits in stack.bits:
        row = pack_bits(bits, stack.d)
        result = stack.oracle.query(row)
        out.append(_fields(result, _query_distance(row, result)))
    return out


def _expected_sharded(stack: Stack) -> list:
    rows = pack_bits(stack.bits, stack.d)
    results = stack.sharded_oracle.query_batch(rows)
    return [
        _fields(result, _query_distance(row, result))
        for row, result in zip(rows, results)
    ]


def _fields(result, distance) -> tuple:
    return (
        result.answer_index,
        result.probes,
        result.rounds,
        list(result.probes_per_round),
        distance,
    )


def _remote(remote: RemoteResult) -> tuple:
    return tuple(getattr(remote, name) for name in FIELDS)


def _answers(client: ServiceClient, bits: np.ndarray, form: str) -> tuple:
    """``(batch answers, one-at-a-time answers)`` in the given form."""
    if form == "packed":
        batch = client.query_batch(bits)
        singles = [client.query(row) for row in bits]
    else:
        response = client._request("query_batch", queries=bits.tolist())
        batch = [RemoteResult.from_response(r) for r in response["results"]]
        singles = [
            RemoteResult.from_response(client._request("query", bits=row.tolist()))
            for row in bits
        ]
    return [_remote(r) for r in batch], [_remote(r) for r in singles]


# -- layout ---------------------------------------------------------------------
def test_packed_string_is_the_little_endian_words_row_by_row():
    d = 100
    bits = np.zeros((2, d), dtype=np.uint8)
    bits[0, 0] = bits[0, 70] = bits[1, 63] = bits[1, 99] = 1
    fields = _coerce_bit_rows(bits)
    assert fields["d"] == d
    raw = base64.b64decode(fields["packed"])
    assert len(raw) == 2 * 8 * packed_words(d)
    words = np.frombuffer(raw, dtype="<u8").reshape(2, 2)
    # bit j of a row is bit j % 64 of word j // 64
    assert words.tolist() == [[1, 1 << 6], [1 << 63, 1 << 35]]
    assert np.array_equal(words, pack_bits(bits, d))


@pytest.mark.parametrize(
    "points, match",
    [
        (np.zeros((1, 4), dtype=np.uint64), "bit vectors"),
        ([[0.0, 1.0, 1.0]], "integers"),
        ([[0, 2, 1]], "0 or 1"),
        (np.zeros((0, 8), dtype=np.uint8), "shape"),
    ],
)
def test_client_refuses_non_bit_rows(points, match):
    with pytest.raises(ValueError, match=match):
        _coerce_bit_rows(points)


# -- oracle ---------------------------------------------------------------------
@pytest.mark.parametrize("d", [100, 1024])
@pytest.mark.parametrize("form", ["packed", "lists"])
def test_shard_server_answers_match_ann_index(stacks, d, form):
    stack = stacks(d)
    expected = _expected_single(stack)
    with stack.client(stack.server) as client:
        batch, singles = _answers(client, stack.bits, form)
    assert batch == expected
    assert singles == expected


@pytest.mark.parametrize("d", [100, 1024])
@pytest.mark.parametrize("form", ["packed", "lists"])
def test_router_answers_match_sharded_index(stacks, d, form):
    stack = stacks(d)
    expected = _expected_sharded(stack)
    with stack.client(stack.router) as client:
        batch, singles = _answers(client, stack.bits, form)
    assert batch == expected
    assert singles == expected


@pytest.mark.parametrize("target", ["server", "router"])
def test_info_lists_the_row_forms(stacks, target):
    stack = stacks(100)
    with stack.client(getattr(stack, target)) as client:
        assert client.info()["row_forms"] == ROW_FORMS


# -- refusals -------------------------------------------------------------------
def _packed_text(words: np.ndarray) -> str:
    return base64.b64encode(words.astype("<u8").tobytes()).decode("ascii")


def _bad_requests(d: int = 100) -> list:
    """Refused requests for d = 100 (two words a row, 28 padding bits),
    each with a substring of its error."""
    words = pack_bits(np.random.default_rng(5).integers(0, 2, (2, d)), d)
    good = _packed_text(words)
    padded = words.copy()
    padded[1, -1] |= np.uint64(1) << np.uint64(d % 64)  # first padding bit
    truncated = base64.b64encode(words.astype("<u8").tobytes()[:-4]).decode()
    row = [0] * d
    cases = [
        ("bad-base64", {"op": "query_batch", "packed": "%%not base64%%", "d": d}, "base64"),
        ("base64-padding", {"op": "query_batch", "packed": good[:-1], "d": d}, "base64"),
        ("truncated-last-word", {"op": "query_batch", "packed": truncated, "d": d}, "multiple"),
        ("padding-bits", {"op": "query_batch", "packed": _packed_text(padded), "d": d}, "padding"),
        ("d-mismatch", {"op": "query_batch", "packed": good, "d": d + 28}, "dimension"),
        ("d-not-int", {"op": "query_batch", "packed": good, "d": str(d)}, "integer 'd'"),
        ("d-missing", {"op": "query_batch", "packed": good}, "integer 'd'"),
        ("empty-string", {"op": "query_batch", "packed": "", "d": d}, "empty"),
        ("not-a-string", {"op": "query_batch", "packed": [1, 2], "d": d}, "base64 string"),
        (
            "packed-and-queries",
            {"op": "query_batch", "packed": good, "d": d, "queries": [row]},
            "both",
        ),
        ("packed-and-bits", {"op": "query", "packed": good, "d": d, "bits": row}, "both"),
        ("two-rows-to-query", {"op": "query", "packed": good, "d": d}, "one row"),
        ("float-bit", {"op": "query_batch", "queries": [[1.7] + row[1:]]}, "float"),
        ("string-bit", {"op": "query", "bits": ["1"] + row[1:]}, "str"),
        ("bool-bit", {"op": "query_batch", "queries": [[True] + row[1:]]}, "bool"),
        ("insert-float-bit", {"op": "insert", "points": [[0.6] + row[1:]]}, "float"),
    ]
    return [pytest.param(request, match, id=name) for name, request, match in cases]


@pytest.mark.parametrize("request_fields, match", _bad_requests())
@pytest.mark.parametrize("target", ["server", "router"])
def test_bad_rows_are_refused_per_request(stacks, target, request_fields, match):
    stack = stacks(100)
    fields = dict(request_fields)
    op = fields.pop("op")
    before = stack.shard_requests()
    with stack.client(getattr(stack, target)) as client:
        with pytest.raises(ServiceError, match=match):
            client._request(op, **fields)
        # the same connection keeps serving
        assert client.query(stack.bits[0]).probes > 0
    if target == "router":
        # The refused request reached no shard: each shard served only
        # the good query above, and the router sent it only that one.
        after = stack.shard_requests()
        assert [a - b for a, b in zip(after, before)] == [1, 1, 1, 1]


def test_raw_packed_frame_round_trips(stacks):
    """A hand-built packed frame, as a non-Python client would send it."""
    stack = stacks(100)
    words = pack_bits(stack.bits, stack.d)
    frame = {"op": "query_batch", "id": 1, "packed": _packed_text(words), "d": stack.d}
    with stack.client(stack.router) as client:
        client._wfile.write(json.dumps(frame).encode() + b"\n")
        client._wfile.flush()
        response = json.loads(client._readline())
    assert response["ok"] is True and response["id"] == 1
    got = [_remote(RemoteResult.from_response(r)) for r in response["results"]]
    assert got == _expected_sharded(stack)
