"""Bit-sampling locality-sensitive hashing for Hamming space
(Indyk–Motwani), with cell-probe accounting.

The paper's introduction contrasts its polynomial-size tables against LSH's
``O~(d n^ρ)`` probes on ``O~(n^{1+ρ})`` cells.  This module implements the
classic construction so experiment E6 can measure that contrast:

* For a radius ``r``, the bit-sampling family ``h(x) = x_j`` has
  ``p₁ = 1 − r/d`` (collision probability within distance ``r``) and
  ``p₂ = 1 − γr/d`` (beyond ``γr``), giving ``ρ = ln(1/p₁)/ln(1/p₂)``.
* One radius level uses ``L ≈ n^ρ`` hash tables of ``K ≈ log_{1/p₂} n``
  sampled bits each; a query probes its bucket in every table.
* Nearest-neighbor search runs the near-neighbor structure at the
  geometric radii ``αⁱ``; **non-adaptive** mode probes all levels' buckets
  in a single round, **adaptive** mode binary-searches the levels
  (``O(log levels)`` rounds, one level's buckets per round).

Bucket cells store up to ``bucket_capacity`` points (a standard
multi-point word; the word-size note in the size report records the
capacity).  Overflowing buckets drop the excess — the standard LSH failure
mode; larger ``L`` compensates, and the measured recall is what E6 reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cellprobe.accounting import ProbeAccountant
from repro.cellprobe.plan import BatchAddressPrimer, PlanDraft, QueryPlan, run_query_plan
from repro.cellprobe.scheme import CellProbingScheme, SchemeSizeReport
from repro.cellprobe.session import ProbeRequest
from repro.cellprobe.table import DictTable
from repro.core.result import QueryResult
from repro.hamming.distance import hamming_distance
from repro.hamming.points import PackedPoints
from repro.utils.intmath import ceil_log
from repro.utils.rng import RngTree

__all__ = ["LSHParams", "LSHScheme", "sampled_bits_hash"]


def sampled_bits_hash(words: np.ndarray, positions: np.ndarray) -> List[int]:
    """Hash keys for a packed ``(B, W)`` batch under bit sampling.

    Row ``q``'s key is the Python int ``Σ_j bit(words[q], positions[j]) << j``.
    One gather (``np.take``) pulls the sampled bits of every row out of the
    unpacked batch, ``np.packbits`` (little bit order) packs them into
    ``⌈K/8⌉`` fixed-width bytes per row, and one ``int.from_bytes`` per row
    reads the key back.  Shared by the classic and data-dependent LSH
    baselines, whose bucket directories are keyed by these ints.
    """
    # Little-endian words: byte b of the row holds bits 8b..8b+7.
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(raw, axis=1, bitorder="little")
    packed = np.packbits(bits.take(positions, axis=1), axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[q * width : (q + 1) * width], "little")
        for q in range(packed.shape[0])
    ]


class _BucketKeys:
    """Per-query bucket keys of one scheme, batched table by table.

    In batch mode (:meth:`enter`) the first key asked for under a tag (one
    hash table) is computed for *every* batch row in a single
    :func:`sampled_bits_hash` call through :class:`BatchAddressPrimer`, so
    a batch costs one hash call per table it touches and tables no query
    probes are never hashed.  Outside batch mode each key is hashed on its
    own and nothing is cached.  :meth:`reset` drops the cache, so it never
    outlives a batch.
    """

    def __init__(self) -> None:
        self._primer = BatchAddressPrimer()
        self._cache: Dict[tuple, int] = {}

    def reset(self) -> None:
        self._cache.clear()
        self._primer.reset()

    def enter(self, batch: np.ndarray) -> None:
        self._primer.enter(batch)

    def key(self, tag: tuple, positions: np.ndarray, x: np.ndarray, row: bytes) -> int:
        """Bucket key of query ``x`` (raw bytes ``row``) in table ``tag``."""
        key = self._cache.get((tag, row))
        if key is None and self._primer.prime(
            tag,
            lambda points: sampled_bits_hash(points, positions),
            self._cache,
            lambda point_bytes: (tag, point_bytes),
        ):
            key = self._cache.get((tag, row))
        if key is None:  # sequential query, or a point outside the batch
            key = sampled_bits_hash(x[None, :], positions)[0]
        return key


@dataclass(frozen=True)
class LSHParams:
    """Sizing knobs for the LSH baseline.

    ``tables_override``/``bits_override`` pin L and K directly (used by the
    ablation bench); otherwise the classic formulas apply with the safety
    multiplier ``table_boost`` on L.
    """

    gamma: float = 4.0
    bucket_capacity: int = 16
    table_boost: float = 1.0
    tables_override: Optional[int] = None
    bits_override: Optional[int] = None

    def __post_init__(self) -> None:
        if self.gamma <= 1:
            raise ValueError(f"gamma must be > 1, got {self.gamma}")
        if self.bucket_capacity < 1:
            raise ValueError("bucket_capacity must be >= 1")


def lsh_rho(d: int, r: float, gamma: float) -> float:
    """The LSH exponent ``ρ = ln(1/p₁)/ln(1/p₂)`` for bit sampling.

    Capped at 1: an exponent above 1 would mean more tables than points,
    at which point a linear scan dominates and the construction is moot
    (this happens only in the degenerate ``γr ≥ d`` regime handled by
    :func:`level_sizing`).
    """
    p1 = max(1e-9, 1.0 - r / d)
    p2 = max(1e-9, 1.0 - min(d - 1, gamma * r) / d)
    if p2 >= 1.0 or p1 >= 1.0:
        return 1.0
    return min(1.0, math.log(1.0 / p1) / math.log(1.0 / p2))


def level_sizing(n: int, d: int, r: float, params: LSHParams) -> Tuple[int, int, float]:
    """``(K, L, ρ)`` for one radius level.

    The degenerate regime ``γr ≥ d`` (the top geometric levels) is
    trivially satisfiable — *every* database point is a ``γr``-near
    neighbor — so a single 1-bit table suffices there.
    """
    if params.gamma * r >= d:
        return 1, 1, 1.0
    rho = lsh_rho(d, r, params.gamma)
    if params.bits_override is not None:
        K = params.bits_override
    else:
        p2 = max(1e-9, 1.0 - min(d - 1, params.gamma * r) / d)
        K = max(1, math.ceil(math.log(n) / math.log(1.0 / p2)))
    if params.tables_override is not None:
        L = params.tables_override
    else:
        L = min(max(1, n), max(1, math.ceil(params.table_boost * (n**rho))))
    return K, L, rho


class _BucketWord:
    """Contents of one bucket cell: up to ``capacity`` (index, packed) pairs."""

    __slots__ = ("entries", "overflowed")

    def __init__(self) -> None:
        self.entries: List[Tuple[int, np.ndarray]] = []
        self.overflowed = False


class LSHScheme(CellProbingScheme):
    """LSH for γ-approximate NN search over geometric radii.

    Parameters
    ----------
    database : the packed database
    params : :class:`LSHParams`
    mode : "nonadaptive" (all levels in one round) or "adaptive"
        (binary search over levels, one level per round)
    seed : randomness for the sampled bit positions
    """

    scheme_name = "lsh"

    def __init__(
        self,
        database: PackedPoints,
        params: LSHParams = LSHParams(),
        mode: str = "nonadaptive",
        seed=None,
    ):
        if mode not in ("nonadaptive", "adaptive"):
            raise ValueError(f"unknown mode {mode!r}")
        if len(database) < 2:
            raise ValueError("database must have >= 2 points")
        self.database = database
        self.params = params
        self.mode = mode
        self.alpha = math.sqrt(min(4.0, params.gamma))
        self.levels = ceil_log(float(database.d), self.alpha)
        self._rng_tree = RngTree(seed)
        n, d = len(database), database.d
        self._level_meta: Dict[int, Tuple[int, int, float]] = {}
        # Per (level, table) sampled bit positions and bucket directory.
        self._positions: Dict[Tuple[int, int], np.ndarray] = {}
        self._tables: Dict[Tuple[int, int], DictTable] = {}
        self._total_cells = 0
        self._keys = _BucketKeys()
        for i in range(self.levels + 1):
            r = self.alpha**i
            K, L, rho = level_sizing(n, d, r, params)
            self._level_meta[i] = (K, L, rho)
            for t in range(L):
                self._build_table(i, t, K)

    # -- construction ------------------------------------------------------
    def _build_table(self, level: int, t: int, K: int) -> None:
        rng = self._rng_tree.generator("positions", level, t)
        d = self.database.d
        positions = rng.choice(d, size=min(K, d), replace=False)
        self._positions[(level, t)] = positions
        keys = sampled_bits_hash(self.database.words, positions)
        buckets: Dict[int, _BucketWord] = {}
        for idx, key in enumerate(keys):
            bucket = buckets.setdefault(key, _BucketWord())
            if len(bucket.entries) < self.params.bucket_capacity:
                bucket.entries.append((idx, self.database.row(idx)))
            else:
                bucket.overflowed = True
        table = DictTable(
            name=f"lsh-L{level}-T{t}",
            logical_cells=len(self.database),  # hashed directory of ~n cells
            word_size_bits=self.params.bucket_capacity * (1 + d),
            cells={k: v for k, v in buckets.items()},
            default=_BucketWord(),
        )
        self._tables[(level, t)] = table
        self._total_cells += table.logical_cells

    # -- persistence ---------------------------------------------------------
    def export_arrays(self) -> Dict[str, np.ndarray]:
        """The sampled bit positions of every (level, table) hash — the
        scheme's complete random state (buckets are derived from them)."""
        return {
            f"positions/{level}/{t}": positions
            for (level, t), positions in self._positions.items()
        }

    def restore_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Verify the eagerly rebuilt hashes against the snapshot.

        Construction already rebuilt positions and buckets from the
        recorded seed; a mismatch means the payload belongs to different
        randomness (corrupt snapshot, wrong manifest), which must fail
        loudly rather than silently answer from other tables.
        """
        for key, positions in arrays.items():
            scope, _, rest = key.partition("/")
            level, _, t = rest.partition("/")
            if scope != "positions":
                raise ValueError(f"unknown array key {key!r} for {self.scheme_name}")
            ours = self._positions.get((int(level), int(t)))
            if ours is None or not np.array_equal(ours, positions):
                raise ValueError(
                    f"snapshot hash positions for (level={level}, table={t}) "
                    "disagree with the scheme rebuilt from the manifest seed"
                )

    # -- querying ------------------------------------------------------------
    def _level_requests(self, level: int, x: np.ndarray) -> List[ProbeRequest]:
        """One bucket probe per table of ``level``.  In batch mode each
        table is hashed for the whole batch on first use (see
        :class:`_BucketKeys`)."""
        _, L, _ = self._level_meta[level]
        point = np.asarray(x, dtype=np.uint64)
        row = point.tobytes()
        return [
            ProbeRequest(
                self._tables[(level, t)],
                self._keys.key((level, t), self._positions[(level, t)], point, row),
            )
            for t in range(L)
        ]

    def _scan_contents(
        self, x: np.ndarray, contents: List[object], radius: float
    ) -> Tuple[Optional[int], Optional[int]]:
        """Best candidate within ``γ·radius`` among bucket contents."""
        best_idx, best_dist = None, None
        limit = self.params.gamma * radius
        for bucket in contents:
            assert isinstance(bucket, _BucketWord)
            for idx, packed in bucket.entries:
                dist = hamming_distance(x, packed)
                if dist <= limit and (best_dist is None or dist < best_dist):
                    best_idx, best_dist = idx, dist
        return best_idx, best_dist

    def make_accountant(self) -> ProbeAccountant:
        if self.mode == "nonadaptive":
            return ProbeAccountant(max_rounds=1)
        return ProbeAccountant()

    def begin_query(self) -> None:
        self._keys.reset()

    def batch_prepare(self, batch: np.ndarray) -> None:
        """Enter batch mode: each hash table is hashed for the whole batch
        in one call, the first time any query probes it (so adaptive mode
        hashes only the levels its binary search visits)."""
        self._keys.enter(batch)

    def query(self, x: np.ndarray) -> QueryResult:
        return run_query_plan(self, x)

    def query_plan(self, x: np.ndarray) -> QueryPlan:
        if self.mode == "nonadaptive":
            return self._plan_nonadaptive(x)
        return self._plan_adaptive(x)

    def _plan_nonadaptive(self, x: np.ndarray) -> QueryPlan:
        """All levels' buckets in one parallel round (k = 1)."""
        requests: List[ProbeRequest] = []
        spans: List[Tuple[int, int, int]] = []  # (level, start, stop)
        for i in range(self.levels + 1):
            reqs = self._level_requests(i, x)
            spans.append((i, len(requests), len(requests) + len(reqs)))
            requests.extend(reqs)
        contents = yield requests
        for i, start, stop in spans:  # smallest succeeding radius wins
            idx, dist = self._scan_contents(x, contents[start:stop], self.alpha**i)
            if idx is not None:
                return PlanDraft(idx, self.database.row(idx).copy(),
                                 {"level": i, "distance": dist})
        return PlanDraft(None, None, {"failed": "no-candidate"})

    def _plan_adaptive(self, x: np.ndarray) -> QueryPlan:
        """Binary search over radius levels; one level's buckets per round."""
        lo, hi = 0, self.levels
        best: Optional[Tuple[int, int, int]] = None  # (level, idx, dist)
        while lo <= hi:
            mid = (lo + hi) // 2
            contents = yield self._level_requests(mid, x)
            idx, dist = self._scan_contents(x, contents, self.alpha**mid)
            if idx is not None:
                best = (mid, idx, dist)
                hi = mid - 1
            else:
                lo = mid + 1
        if best is None:
            return PlanDraft(None, None, {"failed": "no-candidate"})
        level, idx, dist = best
        return PlanDraft(idx, self.database.row(idx).copy(),
                         {"level": level, "distance": dist})

    # -- sizing ----------------------------------------------------------------
    def probes_per_query(self) -> int:
        """Non-adaptive probe count: ``Σ_i L_i`` (exact, data-independent)."""
        return sum(self._level_meta[i][1] for i in range(self.levels + 1))

    def size_report(self) -> SchemeSizeReport:
        names = [
            (f"level{i}", self._level_meta[i][1] * len(self.database))
            for i in range(self.levels + 1)
        ]
        return SchemeSizeReport(
            table_cells=self._total_cells,
            word_bits=self.params.bucket_capacity * (1 + self.database.d),
            table_names=names,
            notes=(
                f"bit-sampling LSH; per-level (K, L, ρ): "
                f"{[self._level_meta[i] for i in range(min(3, self.levels + 1))]}..."
                f"; bucket capacity {self.params.bucket_capacity}"
            ),
        )
