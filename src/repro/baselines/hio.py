"""HIO baseline: the d-dimensional Hierarchical Interval Optimization (Section 3.3).

HIO (Wang et al., SIGMOD 2019) builds a 1-D interval hierarchy per
attribute (branching factor ``b``, ``h + 1`` levels) and combines them into
a d-dimensional hierarchy with ``(h + 1)^d`` d-dim levels.  Users are
randomly divided into one group per d-dim level; each group reports, via
OLH, which d-dim interval of its level contains its record.  A range query
is answered by expanding it to all ``d`` attributes (unrestricted
attributes get the full-domain root interval), decomposing each attribute's
interval into the least set of hierarchy nodes, and summing the noisy
frequencies of every combination of per-attribute nodes.

Because the number of groups explodes with ``d`` and ``c``, each group is
tiny and the noise is enormous — HIO is the paper's example of failing the
curse-of-dimensionality and large-domain challenges.

Implementation note: a d-dim level can contain up to ``c^d`` intervals,
which cannot be materialised.  Levels whose interval count is below
``materialize_limit`` run the real OLH aggregation over the level's group;
larger levels are evaluated lazily — the frequency of a requested d-dim
interval is its true frequency within the group plus Gaussian noise with
the OLH estimation variance for that group size (the standard large-domain
simulation of a frequency oracle).  This keeps the mechanism's error
behaviour while keeping memory bounded; the substitution is recorded in
DESIGN.md.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from ..core.base import RangeQueryMechanism
from ..datasets import Dataset
from ..frequency_oracles import OptimizedLocalHash, olh_variance
from ..queries import RangeQuery
from .hierarchy import HierarchyNode, IntervalHierarchy


class HIO(RangeQueryMechanism):
    """Hierarchical Interval Optimization baseline.

    Parameters
    ----------
    epsilon:
        Per-user privacy budget.
    branching:
        Branching factor of every 1-D hierarchy (the paper uses 4).
    materialize_limit:
        Maximum number of intervals in a d-dim level for which the full
        OLH aggregation is materialised; larger levels fall back to the
        lazy noisy-lookup path.
    oracle_mode:
        OLH execution mode for materialised levels.
    seed:
        Randomness seed.
    """

    name = "HIO"

    #: Answering draws lazy noise and memoizes it (``_lazy_cache``), so
    #: concurrent answering must be serialized by the caller.
    answering_is_pure = False

    def __init__(self, epsilon: float, branching: int = 4,
                 materialize_limit: int = 1 << 16,
                 oracle_mode: str = "fast", seed: int | None = None):
        super().__init__(epsilon, seed)
        self.branching = int(branching)
        self.materialize_limit = int(materialize_limit)
        self.oracle_mode = oracle_mode
        self.hierarchy: IntervalHierarchy | None = None
        self._dataset: Dataset | None = None
        self._group_order: np.ndarray | None = None
        self._group_offsets: np.ndarray | None = None
        self._level_index: dict[tuple[int, ...], int] = {}
        self._materialized: dict[tuple[int, ...], np.ndarray] = {}
        self._lazy_cache: dict[tuple, float] = {}

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _fit(self, dataset: Dataset) -> None:
        self._dataset = dataset
        d = dataset.n_attributes
        self.hierarchy = IntervalHierarchy(dataset.domain_size, self.branching)
        levels_per_dim = self.hierarchy.n_levels
        all_levels = list(product(range(levels_per_dim), repeat=d))
        self._level_index = {level: i for i, level in enumerate(all_levels)}

        # Balanced random partition into one group per d-dim level, stored
        # as a permutation plus offsets so that millions of groups stay cheap.
        n_groups = len(all_levels)
        self._group_order = self.rng.permutation(dataset.n_users)
        base, extra = divmod(dataset.n_users, n_groups)
        sizes = np.full(n_groups, base, dtype=np.int64)
        sizes[:extra] += 1
        self._group_offsets = np.concatenate(([0], np.cumsum(sizes)))

        self._materialized = {}
        self._lazy_cache = {}

    # ------------------------------------------------------------------
    # Fitted-state serialization (snapshots; see docs/serving.md)
    #
    # HIO answers lazily: levels are materialised (drawing OLH
    # randomness) and over-limit intervals draw simulation noise on
    # first touch.  A bitwise-faithful snapshot therefore carries the
    # group assignment, every cache filled so far and — because future
    # lookups re-read the raw records — the dataset itself; the RNG
    # state travels in the base-class envelope.
    # ------------------------------------------------------------------
    def _snapshot_config(self) -> dict:
        return {"branching": self.branching,
                "materialize_limit": self.materialize_limit,
                "oracle_mode": self.oracle_mode}

    def _state_payload(self) -> dict:
        assert self._dataset is not None
        assert self._group_order is not None and self._group_offsets is not None
        return {
            "dataset": self._dataset.to_dict(),
            "group_order": self._group_order.tolist(),
            "group_offsets": self._group_offsets.tolist(),
            "materialized": {
                ",".join(str(part) for part in level): estimates.tolist()
                for level, estimates in self._materialized.items()},
            "lazy_cache": [[list(level), list(indices), value]
                           for (level, indices), value
                           in self._lazy_cache.items()],
        }

    def _restore_state_payload(self, payload: dict) -> None:
        self._dataset = Dataset.from_dict(payload["dataset"])
        self.hierarchy = IntervalHierarchy(self._dataset.domain_size,
                                           self.branching)
        all_levels = list(product(range(self.hierarchy.n_levels),
                                  repeat=self._n_attributes))
        self._level_index = {level: i for i, level in enumerate(all_levels)}
        self._group_order = np.asarray(payload["group_order"], dtype=np.int64)
        self._group_offsets = np.asarray(payload["group_offsets"],
                                         dtype=np.int64)
        self._materialized = {
            tuple(int(part) for part in key.split(",")):
                np.asarray(estimates, dtype=float)
            for key, estimates in payload["materialized"].items()}
        self._lazy_cache = {
            (tuple(int(part) for part in level),
             tuple(int(part) for part in indices)): float(value)
            for level, indices, value in payload["lazy_cache"]}

    # ------------------------------------------------------------------
    # Group and level helpers
    # ------------------------------------------------------------------
    def _group_members(self, level: tuple[int, ...]) -> np.ndarray:
        index = self._level_index[level]
        start, end = self._group_offsets[index], self._group_offsets[index + 1]
        return self._group_order[start:end]

    def _level_size(self, level: tuple[int, ...]) -> int:
        assert self.hierarchy is not None
        size = 1
        for one_dim_level in level:
            size *= self.hierarchy.nodes_at_level(one_dim_level)
        return size

    def _interval_indices(self, level: tuple[int, ...],
                          values: np.ndarray) -> np.ndarray:
        """Flattened d-dim interval index of each record at a d-dim level."""
        assert self.hierarchy is not None
        flat = np.zeros(values.shape[0], dtype=np.int64)
        for axis, one_dim_level in enumerate(level):
            width = self.hierarchy.node_width(one_dim_level)
            flat = flat * self.hierarchy.nodes_at_level(one_dim_level) + (
                values[:, axis] // width)
        return flat

    def _materialize_level(self, level: tuple[int, ...]) -> np.ndarray:
        assert self._dataset is not None
        members = self._group_members(level)
        size = self._level_size(level)
        if members.size == 0:
            return np.zeros(size)
        oracle = OptimizedLocalHash(self.epsilon, max(size, 2), rng=self.rng,
                                    mode=self.oracle_mode)
        indices = self._interval_indices(level, self._dataset.values[members])
        return oracle.estimate_frequencies(indices)[:size]

    def _lazy_frequency(self, level: tuple[int, ...],
                        nodes: tuple[HierarchyNode, ...]) -> float:
        """Noisy frequency of one d-dim interval without materialising the level."""
        assert self._dataset is not None
        members = self._group_members(level)
        n_group = max(int(members.size), 1)
        if members.size == 0:
            true_frequency = 0.0
        else:
            mask = np.ones(members.size, dtype=bool)
            for axis, node in enumerate(nodes):
                column = self._dataset.values[members, axis]
                mask &= (column >= node.low) & (column <= node.high)
            true_frequency = float(mask.mean())
        noise_std = float(np.sqrt(olh_variance(self.epsilon, n_group)))
        return true_frequency + float(self.rng.normal(0.0, noise_std))

    def _interval_frequency(self, nodes: tuple[HierarchyNode, ...]) -> float:
        assert self.hierarchy is not None
        level = tuple(node.level for node in nodes)
        if self._level_size(level) <= self.materialize_limit:
            if level not in self._materialized:
                self._materialized[level] = self._materialize_level(level)
            flat = 0
            for node in nodes:
                flat = flat * self.hierarchy.nodes_at_level(node.level) + node.index
            return float(self._materialized[level][flat])
        key = (level, tuple(node.index for node in nodes))
        if key not in self._lazy_cache:
            self._lazy_cache[key] = self._lazy_frequency(level, nodes)
        return self._lazy_cache[key]

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def _decompositions(self, query: RangeQuery) -> list[list[HierarchyNode]]:
        """Least hierarchy nodes per attribute (full domain if unrestricted)."""
        assert self.hierarchy is not None and self._n_attributes is not None
        decompositions: list[list[HierarchyNode]] = []
        for attribute in range(self._n_attributes):
            if attribute in query.attributes:
                low, high = query.interval(attribute)
            else:
                low, high = 0, self.hierarchy.domain_size - 1
            decompositions.append(self.hierarchy.decompose(low, high))
        return decompositions

    def _answer(self, query: RangeQuery) -> float:
        return self._answer_vectorized(self._decompositions(query))

    #: Combination-count ceiling for the fully-vectorised enumeration;
    #: above it the bucketed per-combination loop is used instead of
    #: materialising gigabyte-scale index meshes.
    VECTORIZE_COMBINATION_LIMIT = 1 << 20

    def _answer_vectorized(self, decompositions: list[list[HierarchyNode]]) -> float:
        """Enumerate and sum all node combinations without a Python loop.

        The cartesian product of the per-attribute decompositions is
        built as index meshes, each combination's d-dim level is packed
        into one integer code, and every distinct level is answered with
        a single fancy-indexed gather over its materialised estimates.
        Levels are materialised in the product's first-touch order, so
        the RNG stream — and therefore every answer — matches the plain
        per-combination loop (kept in ``tests/oracles/``) from a fresh
        fitted state.  Combinations involving over-limit (lazy) levels
        keep the bucketed loop, which interleaves lazy noise draws at
        the reference loop's iteration points.
        """
        assert self.hierarchy is not None
        level_arrays = [np.array([node.level for node in nodes], dtype=np.int64)
                        for nodes in decompositions]
        index_arrays = [np.array([node.index for node in nodes], dtype=np.int64)
                        for nodes in decompositions]
        n_combinations = 1
        for nodes in decompositions:
            n_combinations *= len(nodes)
        if n_combinations > self.VECTORIZE_COMBINATION_LIMIT:
            return self._answer_bucketed(decompositions)
        nodes_at = np.array([self.hierarchy.nodes_at_level(level)
                             for level in range(self.hierarchy.n_levels)],
                            dtype=np.int64)
        levels = np.stack([mesh.ravel() for mesh
                           in np.meshgrid(*level_arrays, indexing="ij")], axis=1)
        indices = np.stack([mesh.ravel() for mesh
                            in np.meshgrid(*index_arrays, indexing="ij")], axis=1)
        counts = nodes_at[levels]
        if np.any(counts.prod(axis=1) > self.materialize_limit):
            return self._answer_bucketed(decompositions)
        codes = np.zeros(levels.shape[0], dtype=np.int64)
        flat = np.zeros(levels.shape[0], dtype=np.int64)
        n_levels = self.hierarchy.n_levels
        for axis in range(levels.shape[1]):
            codes = codes * n_levels + levels[:, axis]
            flat = flat * counts[:, axis] + indices[:, axis]
        _, first_positions, inverse = np.unique(codes, return_index=True,
                                                return_inverse=True)
        answer = 0.0
        for group in np.argsort(first_positions, kind="stable"):
            level = tuple(int(l) for l in levels[first_positions[group]])
            if level not in self._materialized:
                self._materialized[level] = self._materialize_level(level)
            answer += float(
                self._materialized[level][flat[inverse == group]].sum())
        return answer

    def _answer_bucketed(self, decompositions: list[list[HierarchyNode]]) -> float:
        """Sum node combinations with one vectorised gather per d-dim level.

        Combinations living in a materialised level are collected into
        per-level index buckets and summed with a single fancy-indexed
        lookup; combinations of over-limit levels keep the lazy noisy
        path.  Both first-time level materialisations and lazy draws
        happen at the same iteration points as the reference
        per-combination loop, so the RNG stream — and therefore every
        answer — matches it from a fresh fitted state, not just after
        the caches are warm.
        """
        assert self.hierarchy is not None
        answer = 0.0
        buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for combination in product(*decompositions):
            level = tuple(node.level for node in combination)
            if self._level_size(level) <= self.materialize_limit:
                if level not in self._materialized:
                    self._materialized[level] = self._materialize_level(level)
                buckets.setdefault(level, []).append(
                    tuple(node.index for node in combination))
            else:
                answer += self._interval_frequency(tuple(combination))
        for level, index_tuples in buckets.items():
            indices = np.asarray(index_tuples, dtype=np.int64)
            flat = np.zeros(indices.shape[0], dtype=np.int64)
            for axis, one_dim_level in enumerate(level):
                flat = (flat * self.hierarchy.nodes_at_level(one_dim_level)
                        + indices[:, axis])
            answer += float(self._materialized[level][flat].sum())
        return answer
