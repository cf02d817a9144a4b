"""Data-dependent LSH: the two-round, slightly adaptive baseline.

The paper's introduction contrasts three adaptivity regimes: classic LSH
(non-adaptive, one round), **data-dependent LSH** [Andoni et al. 2014/2015]
— "a little more adaptive: the algorithm retrieves a data-dependent hash
function before making the second round of cell-probes, while the
cell-probes in the second round are independent of each other" — and the
fully adaptive Chakrabarti–Regev scheme.

This module implements a faithful *miniature* of that middle regime:

* **Preprocessing** partitions the database around pivot points (the
  data-dependent decomposition; real data-dependent LSH uses a more
  sophisticated dense-cluster peeling, but the probe structure — which is
  what the paper compares — is the same) and builds an independent
  bit-sampling LSH structure per part, sized to the part's cardinality.
* **Round 1** probes a single *dispatch* cell, addressed by a coarse
  sketch of the query; the cell stores the identity of the part whose
  pivot is closest in sketch space — information that depends on the
  database, i.e. the "data-dependent hash function".
* **Round 2** probes only the chosen part's buckets, non-adaptively.

Because each part holds ``n_p ≪ n`` points, its table count ``n_p^ρ``
is smaller than the global ``n^ρ`` — the data-dependent probe saving the
paper alludes to, measured in experiment E14 on clustered workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines import lsh
from repro.baselines.lsh import LSHParams, _BucketKeys, _BucketWord, level_sizing
from repro.cellprobe.accounting import ProbeAccountant
from repro.cellprobe.plan import PlanDraft, QueryPlan, run_query_plan
from repro.cellprobe.scheme import CellProbingScheme, SchemeSizeReport
from repro.cellprobe.session import ProbeRequest
from repro.cellprobe.table import DictTable, LazyTable
from repro.cellprobe.words import IntWord
from repro.core.result import QueryResult
from repro.hamming.distance import hamming_distance, hamming_distance_many
from repro.hamming.points import PackedPoints
from repro.sketch.parity import ParitySketch
from repro.utils.intmath import ceil_log
from repro.utils.rng import RngTree

__all__ = ["DataDependentLSHParams", "DataDependentLSHScheme"]


@dataclass(frozen=True)
class DataDependentLSHParams:
    """Sizing knobs for the data-dependent baseline."""

    gamma: float = 4.0
    parts: int = 8
    dispatch_rows: int = 64
    bucket_capacity: int = 16
    table_boost: float = 1.0

    def __post_init__(self) -> None:
        if self.gamma <= 1:
            raise ValueError(f"gamma must be > 1, got {self.gamma}")
        if self.parts < 2:
            raise ValueError(f"need >= 2 parts, got {self.parts}")
        if self.dispatch_rows < 8:
            raise ValueError("dispatch sketch needs >= 8 rows")


class _PartLSH:
    """Bit-sampling LSH over one part of the database (global indices)."""

    def __init__(
        self,
        part_id: int,
        database: PackedPoints,
        indices: np.ndarray,
        params: DataDependentLSHParams,
        alpha: float,
        levels: int,
        rng_tree: RngTree,
    ):
        self.part_id = part_id
        self.indices = indices
        self.levels = levels
        n_p = max(2, len(indices))
        d = database.d
        lsh_params = LSHParams(
            gamma=params.gamma,
            bucket_capacity=params.bucket_capacity,
            table_boost=params.table_boost,
        )
        self.level_meta: Dict[int, Tuple[int, int, float]] = {}
        self.positions: Dict[Tuple[int, int], np.ndarray] = {}
        self.tables: Dict[Tuple[int, int], DictTable] = {}
        self.total_cells = 0
        for i in range(levels + 1):
            K, L, rho = level_sizing(n_p, d, alpha**i, lsh_params)
            self.level_meta[i] = (K, L, rho)
            for t in range(L):
                rng = rng_tree.generator("positions", part_id, i, t)
                positions = rng.choice(d, size=min(K, d), replace=False)
                self.positions[(i, t)] = positions
                buckets: Dict[int, _BucketWord] = {}
                keys = lsh.sampled_bits_hash(database.words[indices], positions)
                for local, key in enumerate(keys):
                    bucket = buckets.setdefault(key, _BucketWord())
                    global_idx = int(indices[local])
                    if len(bucket.entries) < params.bucket_capacity:
                        bucket.entries.append((global_idx, database.row(global_idx)))
                    else:
                        bucket.overflowed = True
                table = DictTable(
                    name=f"ddlsh-P{part_id}-L{i}-T{t}",
                    logical_cells=n_p,
                    word_size_bits=params.bucket_capacity * (1 + d),
                    cells=buckets,
                    default=_BucketWord(),
                )
                self.tables[(i, t)] = table
                self.total_cells += n_p

    def requests(self, x: np.ndarray, keys: _BucketKeys) -> List[ProbeRequest]:
        """All of this part's bucket probes for one query (one round);
        ``keys`` hashes each table for the whole batch in batch mode."""
        point = np.asarray(x, dtype=np.uint64)
        row = point.tobytes()
        out: List[ProbeRequest] = []
        for i in range(self.levels + 1):
            _, L, _ = self.level_meta[i]
            for t in range(L):
                key = keys.key((self.part_id, i, t), self.positions[(i, t)], point, row)
                out.append(ProbeRequest(self.tables[(i, t)], key))
        return out


class DataDependentLSHScheme(CellProbingScheme):
    """Two-round data-dependent LSH baseline.

    Parameters
    ----------
    database : the packed database
    params : :class:`DataDependentLSHParams`
    seed : randomness for pivots, dispatch sketch and bucket hashes
    """

    scheme_name = "data-dependent-lsh"
    k = 2

    def __init__(
        self,
        database: PackedPoints,
        params: DataDependentLSHParams = DataDependentLSHParams(),
        seed=None,
    ):
        if len(database) < params.parts:
            raise ValueError(
                f"database of {len(database)} points cannot fill {params.parts} parts"
            )
        self.database = database
        self.params = params
        self.alpha = math.sqrt(min(4.0, params.gamma))
        self.levels = ceil_log(float(database.d), self.alpha)
        tree = RngTree(seed)

        # -- data-dependent decomposition: pivots + nearest-pivot parts ----
        rng = tree.generator("pivots")
        n, d = len(database), database.d
        pivot_ids = rng.choice(n, size=params.parts, replace=False)
        self.pivots = database.take(pivot_ids)
        assignment = np.empty(n, dtype=np.int64)
        for i in range(n):
            assignment[i] = int(
                hamming_distance_many(database.row(i), self.pivots.words).argmin()
            )
        self.parts: List[_PartLSH] = []
        for p in range(params.parts):
            indices = np.nonzero(assignment == p)[0]
            if indices.size == 0:
                indices = np.array([int(pivot_ids[p])], dtype=np.int64)
            self.parts.append(
                _PartLSH(p, database, indices, params, self.alpha, self.levels,
                         tree.child("part", p))
            )

        # -- dispatch structure: coarse sketch → nearest pivot id ----------
        # Mask density 2/d keeps the per-bit collision rate unsaturated
        # out to distances ~d/2, so sketch-space argmin over pivots tracks
        # true-space argmin (pivot separations are Θ(d)).
        self._dispatch_sketch = ParitySketch(
            rows=params.dispatch_rows, d=d, p=min(0.5, 2.0 / d),
            rng=tree.generator("dispatch"),
        )
        self._pivot_sketches = self._dispatch_sketch.apply_many(self.pivots.words)
        self.dispatch_table = LazyTable(
            name="ddlsh-dispatch",
            logical_cells=1 << params.dispatch_rows,
            word_size_bits=1 + max(1, params.parts.bit_length()),
            content_fn=self._dispatch_content,
        )
        self._keys = _BucketKeys()

    def _dispatch_content(self, address: tuple) -> IntWord:
        """The data-dependent hash: part of the sketch-nearest pivot."""
        addr = np.asarray(address, dtype=np.uint64)
        dists = hamming_distance_many(addr, self._pivot_sketches)
        return IntWord(int(dists.argmin()), self.params.parts)

    # -- persistence ---------------------------------------------------------
    def export_arrays(self) -> Dict[str, np.ndarray]:
        """Pivots, dispatch-sketch mask, and every part's sampled hash
        positions — the scheme's complete random state."""
        out: Dict[str, np.ndarray] = {
            "pivots": self.pivots.words,
            "dispatch_mask": self._dispatch_sketch.mask,
        }
        for part in self.parts:
            for (i, t), positions in part.positions.items():
                out[f"part{part.part_id}/positions/{i}/{t}"] = positions
        return out

    def restore_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Verify the eagerly rebuilt decomposition against the snapshot
        (construction from the manifest seed already reproduced it)."""
        for key, arr in arrays.items():
            if key == "pivots":
                ours = self.pivots.words
            elif key == "dispatch_mask":
                ours = self._dispatch_sketch.mask
            elif key.startswith("part"):
                scope, _, rest = key.partition("/")
                kind, _, level_table = rest.partition("/")
                i, _, t = level_table.partition("/")
                if kind != "positions":
                    raise ValueError(f"unknown array key {key!r} for {self.scheme_name}")
                part_id = int(scope[len("part"):])
                if not (0 <= part_id < len(self.parts)):
                    raise ValueError(
                        f"payload names part {part_id} but the scheme has "
                        f"{len(self.parts)} parts"
                    )
                ours = self.parts[part_id].positions.get((int(i), int(t)))
            else:
                raise ValueError(f"unknown array key {key!r} for {self.scheme_name}")
            if ours is None or not np.array_equal(ours, arr):
                raise ValueError(
                    f"snapshot array {key!r} disagrees with the scheme "
                    "rebuilt from the manifest seed"
                )

    # -- querying ------------------------------------------------------------
    def make_accountant(self) -> ProbeAccountant:
        return ProbeAccountant(max_rounds=2)

    def begin_query(self) -> None:
        self._keys.reset()

    def batch_prepare(self, batch: np.ndarray) -> None:
        """Enter batch mode: each part's hash tables are hashed for the
        whole batch in one call per table, the first time any query
        dispatched to that part probes them."""
        self._keys.enter(batch)

    def query(self, x: np.ndarray) -> QueryResult:
        return run_query_plan(self, x)

    def query_plan(self, x: np.ndarray) -> QueryPlan:
        """Round 1 retrieves the data-dependent hash (the part id); round 2
        probes the chosen part's buckets non-adaptively."""
        address = tuple(int(v) for v in self._dispatch_sketch.apply(x))
        contents = yield [ProbeRequest(self.dispatch_table, address)]
        dispatch = contents[0]
        assert isinstance(dispatch, IntWord)
        part = self.parts[dispatch.value]
        contents = yield part.requests(x, self._keys)
        best_idx: Optional[int] = None
        best_dist: Optional[int] = None
        for bucket in contents:
            assert isinstance(bucket, _BucketWord)
            for idx, packed in bucket.entries:
                dist = hamming_distance(x, packed)
                if best_dist is None or dist < best_dist:
                    best_idx, best_dist = idx, dist
        meta = {"part": dispatch.value, "part_size": len(part.indices)}
        if best_idx is None:
            return PlanDraft(None, None, {**meta, "failed": "no-candidate"})
        return PlanDraft(
            best_idx, self.database.row(best_idx).copy(),
            {**meta, "distance": best_dist},
        )

    def probes_per_query(self, x: np.ndarray) -> int:
        """Exact probe count for a query: 1 dispatch + the part's buckets."""
        address = tuple(int(v) for v in self._dispatch_sketch.apply(x))
        part = self.parts[self.dispatch_table.read(address).value]
        return 1 + len(part.requests(x, self._keys))

    def size_report(self) -> SchemeSizeReport:
        part_cells = sum(p.total_cells for p in self.parts)
        return SchemeSizeReport(
            table_cells=self.dispatch_table.logical_cells + part_cells,
            word_bits=self.params.bucket_capacity * (1 + self.database.d),
            table_names=[("dispatch", self.dispatch_table.logical_cells),
                         ("parts", part_cells)],
            notes=(
                f"{self.params.parts} pivot parts; per-part LSH sized to n_p; "
                "2 rounds (data-dependent hash retrieved in round 1)"
            ),
        )
