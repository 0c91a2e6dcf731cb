"""LHIO baseline: Low-dimensional HIO (Section 3.4).

LHIO improves HIO by only building *pairwise* (2-D) hierarchies, in the
spirit of CALM: users are split into ``C(d,2)`` groups, one per attribute
pair, and each pair's group is further split into ``(h + 1)^2`` subgroups,
one per 2-dim level of the pair's 2-D hierarchy.  Every subgroup reports
its 2-dim interval via OLH.  Two post-processing steps then improve the
noisy hierarchy:

* Norm-Sub on every level (non-negativity), and
* Hay et al. constrained inference adapted to two dimensions (applied
  along the first attribute and then along the second), which removes the
  inconsistency between different levels of the same hierarchy — the step
  the paper identifies as the key improvement of LHIO over HIO.

A 2-D range query is answered by decomposing both intervals into the least
hierarchy nodes and summing the corresponding 2-dim interval frequencies;
a λ-D query (λ > 2) combines the associated 2-D answers with the same
Weighted Update estimation used by the grid approaches.

Implementation note: 2-dim levels larger than ``materialize_limit`` cells
(only reached for very large domains) are evaluated lazily like in HIO and
constrained inference is skipped for such hierarchies; at the paper's
default domain size every level is materialised and the protocol is exact.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from ..core.base import RangeQueryMechanism
from ..core.query_estimation import (PairwiseBatchAnswering,
                                     estimate_lambda_query)
from ..datasets import Dataset
from ..frequency_oracles import OptimizedLocalHash, olh_variance
from ..postprocess import constrained_inference_2d, norm_sub
from ..protocol import partition_users
from ..queries import Predicate, RangeQuery
from .hierarchy import HierarchyNode, IntervalHierarchy


class _PairHierarchy:
    """Noisy 2-D hierarchy of one attribute pair (internal to LHIO)."""

    def __init__(self, pair: tuple[int, int], hierarchy: IntervalHierarchy):
        self.pair = pair
        self.hierarchy = hierarchy
        self.levels: dict[tuple[int, int], np.ndarray] = {}
        self.lazy_groups: dict[tuple[int, int], np.ndarray] = {}
        self.lazy_cache: dict[tuple, float] = {}

    def frequency(self, node_row: HierarchyNode, node_col: HierarchyNode,
                  dataset: Dataset, epsilon: float,
                  rng: np.random.Generator) -> float:
        level = (node_row.level, node_col.level)
        if level in self.levels:
            return float(self.levels[level][node_row.index, node_col.index])
        key = (level, node_row.index, node_col.index)
        if key not in self.lazy_cache:
            members = self.lazy_groups.get(level, np.array([], dtype=int))
            n_group = max(int(members.size), 1)
            if members.size == 0:
                true_frequency = 0.0
            else:
                rows = dataset.values[members, self.pair[0]]
                cols = dataset.values[members, self.pair[1]]
                mask = ((rows >= node_row.low) & (rows <= node_row.high)
                        & (cols >= node_col.low) & (cols <= node_col.high))
                true_frequency = float(mask.mean())
            noise_std = float(np.sqrt(olh_variance(epsilon, n_group)))
            self.lazy_cache[key] = true_frequency + float(rng.normal(0.0, noise_std))
        return self.lazy_cache[key]


class LHIO(PairwiseBatchAnswering, RangeQueryMechanism):
    """Low-dimensional HIO baseline.

    Parameters
    ----------
    epsilon:
        Per-user privacy budget.
    branching:
        Branching factor of the 1-D hierarchies (the paper uses 4).
    materialize_limit:
        Maximum 2-dim level size (cells) that is materialised with OLH.
    consistency:
        Whether to run Norm-Sub + constrained inference (the improvement
        over HIO); disable for ablation.
    oracle_mode:
        OLH execution mode for materialised levels.
    estimation_method:
        Combiner for λ > 2 queries (``"weighted_update"`` or ``"max_entropy"``).
    seed:
        Randomness seed.
    """

    name = "LHIO"

    #: Over-limit levels answer through a lazy noise cache fed by RNG
    #: draws, so concurrent answering must be serialized by the caller.
    answering_is_pure = False

    def __init__(self, epsilon: float, branching: int = 4,
                 materialize_limit: int = 1 << 16, consistency: bool = True,
                 oracle_mode: str = "fast",
                 estimation_method: str = "weighted_update",
                 seed: int | None = None):
        super().__init__(epsilon, seed)
        self.branching = int(branching)
        self.materialize_limit = int(materialize_limit)
        self.consistency = bool(consistency)
        self.oracle_mode = oracle_mode
        self.estimation_method = estimation_method
        self.hierarchy: IntervalHierarchy | None = None
        self._dataset: Dataset | None = None
        self._pairs: dict[tuple[int, int], _PairHierarchy] = {}

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _fit(self, dataset: Dataset) -> None:
        self._dataset = dataset
        d = dataset.n_attributes
        if d < 2:
            raise ValueError("LHIO requires at least 2 attributes")
        self.hierarchy = IntervalHierarchy(dataset.domain_size, self.branching)
        pairs = list(combinations(range(d), 2))
        pair_groups = partition_users(dataset.n_users, len(pairs), self.rng)
        levels_per_dim = self.hierarchy.n_levels
        level_list = list(product(range(levels_per_dim), repeat=2))

        self._pairs = {}
        for pair, group in zip(pairs, pair_groups):
            pair_hierarchy = _PairHierarchy(pair, self.hierarchy)
            subgroups = partition_users(max(group.size, 1), len(level_list), self.rng)
            for level, subgroup in zip(level_list, subgroups):
                members = group[subgroup] if group.size else np.array([], dtype=int)
                rows_n = self.hierarchy.nodes_at_level(level[0])
                cols_n = self.hierarchy.nodes_at_level(level[1])
                if rows_n * cols_n <= self.materialize_limit:
                    pair_hierarchy.levels[level] = self._collect_level(
                        dataset, pair, level, members, rows_n, cols_n)
                else:
                    pair_hierarchy.lazy_groups[level] = members
            if self.consistency and not pair_hierarchy.lazy_groups:
                self._postprocess_pair(pair_hierarchy)
            self._pairs[pair] = pair_hierarchy

    def _collect_level(self, dataset: Dataset, pair: tuple[int, int],
                       level: tuple[int, int], members: np.ndarray,
                       rows_n: int, cols_n: int) -> np.ndarray:
        assert self.hierarchy is not None
        if members.size == 0:
            return np.zeros((rows_n, cols_n))
        row_width = self.hierarchy.node_width(level[0])
        col_width = self.hierarchy.node_width(level[1])
        rows = dataset.values[members, pair[0]] // row_width
        cols = dataset.values[members, pair[1]] // col_width
        flat = rows * cols_n + cols
        oracle = OptimizedLocalHash(self.epsilon, max(rows_n * cols_n, 2),
                                    rng=self.rng, mode=self.oracle_mode)
        estimates = oracle.estimate_frequencies(flat)[:rows_n * cols_n]
        return estimates.reshape(rows_n, cols_n)

    def _postprocess_pair(self, pair_hierarchy: _PairHierarchy) -> None:
        assert self.hierarchy is not None
        for level, values in pair_hierarchy.levels.items():
            pair_hierarchy.levels[level] = norm_sub(values)
        heights = (self.hierarchy.height, self.hierarchy.height)
        pair_hierarchy.levels = constrained_inference_2d(
            pair_hierarchy.levels, self.hierarchy.branching, heights)

    # ------------------------------------------------------------------
    # Fitted-state serialization (snapshots; see docs/serving.md)
    #
    # At the paper's scale every 2-dim level is materialised and the
    # payload is the per-pair level arrays alone.  Hierarchies with
    # over-limit (lazy) levels additionally need the group membership,
    # the lazy-noise cache and the dataset (lazy lookups re-read raw
    # records); the RNG state travels in the base-class envelope so
    # restored lazy draws continue the exact same stream.
    # ------------------------------------------------------------------
    def _snapshot_config(self) -> dict:
        return {"branching": self.branching,
                "materialize_limit": self.materialize_limit,
                "consistency": self.consistency,
                "oracle_mode": self.oracle_mode,
                "estimation_method": self.estimation_method}

    def _state_payload(self) -> dict:
        has_lazy = any(pair_hierarchy.lazy_groups
                       for pair_hierarchy in self._pairs.values())
        dataset = None
        if has_lazy:
            assert self._dataset is not None
            dataset = self._dataset.to_dict()
        return {
            "dataset": dataset,
            "pairs": {
                f"{a},{b}": {
                    "levels": {f"{l0},{l1}": values.tolist()
                               for (l0, l1), values
                               in pair_hierarchy.levels.items()},
                    "lazy_groups": {f"{l0},{l1}": members.tolist()
                                    for (l0, l1), members
                                    in pair_hierarchy.lazy_groups.items()},
                    "lazy_cache": [[list(level), row, col, value]
                                   for (level, row, col), value
                                   in pair_hierarchy.lazy_cache.items()],
                }
                for (a, b), pair_hierarchy in self._pairs.items()},
        }

    def _restore_state_payload(self, payload: dict) -> None:
        self.hierarchy = IntervalHierarchy(self._domain_size, self.branching)
        data = payload.get("dataset")
        self._dataset = Dataset.from_dict(data) if data is not None else None
        self._pairs = {}
        for key, entry in payload["pairs"].items():
            a, b = (int(part) for part in key.split(","))
            pair_hierarchy = _PairHierarchy((a, b), self.hierarchy)
            pair_hierarchy.levels = {
                tuple(int(part) for part in level_key.split(",")):
                    np.asarray(values, dtype=float)
                for level_key, values in entry["levels"].items()}
            pair_hierarchy.lazy_groups = {
                tuple(int(part) for part in level_key.split(",")):
                    np.asarray(members, dtype=np.int64)
                for level_key, members in entry["lazy_groups"].items()}
            pair_hierarchy.lazy_cache = {
                (tuple(int(part) for part in level), int(row), int(col)):
                    float(value)
                for level, row, col, value in entry["lazy_cache"]}
            self._pairs[(a, b)] = pair_hierarchy

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def _pair_hierarchy(self, attr_a: int, attr_b: int) -> tuple[_PairHierarchy, bool]:
        if (attr_a, attr_b) in self._pairs:
            return self._pairs[(attr_a, attr_b)], False
        if (attr_b, attr_a) in self._pairs:
            return self._pairs[(attr_b, attr_a)], True
        raise KeyError(f"no hierarchy for attribute pair ({attr_a}, {attr_b})")

    def _answer_pair(self, query: RangeQuery) -> float:
        # The dataset is only dereferenced on lazy-level cache misses, so
        # a restored snapshot with every level materialised answers with
        # self._dataset == None.
        assert self.hierarchy is not None
        attr_a, attr_b = query.attributes
        pair_hierarchy, flipped = self._pair_hierarchy(attr_a, attr_b)
        interval_a = query.interval(attr_a)
        interval_b = query.interval(attr_b)
        if flipped:
            interval_a, interval_b = interval_b, interval_a
        nodes_rows = self.hierarchy.decompose(*interval_a)
        nodes_cols = self.hierarchy.decompose(*interval_b)
        if not pair_hierarchy.lazy_groups:
            # Every level materialised (the paper-scale default): sum each
            # level's node combinations with one fancy-indexed gather.
            answer = 0.0
            rows_by_level: dict[int, list[int]] = {}
            cols_by_level: dict[int, list[int]] = {}
            for node in nodes_rows:
                rows_by_level.setdefault(node.level, []).append(node.index)
            for node in nodes_cols:
                cols_by_level.setdefault(node.level, []).append(node.index)
            for row_level, row_indices in rows_by_level.items():
                for col_level, col_indices in cols_by_level.items():
                    values = pair_hierarchy.levels[(row_level, col_level)]
                    answer += float(
                        values[np.ix_(row_indices, col_indices)].sum())
            return answer
        answer = 0.0
        for node_row in nodes_rows:
            for node_col in nodes_cols:
                answer += pair_hierarchy.frequency(node_row, node_col,
                                                   self._dataset, self.epsilon,
                                                   self.rng)
        return answer

    def _answer_single(self, query: RangeQuery) -> float:
        attribute = query.attributes[0]
        low, high = query.interval(attribute)
        other = 0 if attribute != 0 else 1
        padded = RangeQuery((Predicate(attribute, low, high),
                             Predicate(other, 0, self._domain_size - 1)))
        return self._answer_pair(padded)

    def _answer(self, query: RangeQuery) -> float:
        if query.dimension == 1:
            return self._answer_single(query)
        if query.dimension == 2:
            return self._answer_pair(query)
        return estimate_lambda_query(query, self._answer_pair,
                                     method=self.estimation_method)

    # ------------------------------------------------------------------
    # Fused hooks (see PairwiseBatchAnswering): each pair group — λ = 1
    # queries padded to pairs, λ = 2 queries, the C(λ,2) sub-queries of
    # λ > 2 queries — is answered with one gather per 2-dim level.
    # ------------------------------------------------------------------
    def _has_lazy_levels(self) -> bool:
        return any(pair_hierarchy.lazy_groups
                   for pair_hierarchy in self._pairs.values())

    def _answer_workload(self, queries: list[RangeQuery]) -> np.ndarray:
        if self._has_lazy_levels():
            # Lazy levels draw noise on first touch; answering strictly in
            # workload order keeps the RNG stream identical to answering
            # query by query (grouping would reorder the draws).
            return np.array([float(self._answer(query)) for query in queries])
        return super()._answer_workload(queries)

    def _answer_compiled(self, compiled) -> np.ndarray:
        if self._has_lazy_levels():
            return self._answer_workload(compiled.flat_ranges)
        return super()._answer_compiled(compiled)

    def _fused_pair_ranges(self, key, row_lows, row_highs, col_lows,
                           col_highs) -> np.ndarray:
        """Sum every range's node combinations with one gather per level.

        Each range decomposes into (row node, column node) combinations
        exactly like :meth:`_answer_pair`; combinations of all ranges
        are grouped by 2-dim level, each level is answered with a single
        fancy-indexed lookup into its materialised estimates, and the
        values are scatter-added back onto the ranges via ``bincount``.
        """
        assert self.hierarchy is not None
        pair_hierarchy = self._pairs.get(key)
        if pair_hierarchy is None:
            pair_hierarchy = self._pairs[(key[1], key[0])]
            row_lows, row_highs, col_lows, col_highs = \
                col_lows, col_highs, row_lows, row_highs
        n_levels = self.hierarchy.n_levels
        node_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

        def nodes_of(low: int, high: int) -> tuple[np.ndarray, np.ndarray]:
            arrays = node_cache.get((low, high))
            if arrays is None:
                nodes = self.hierarchy.decompose(low, high)
                arrays = (np.array([node.level for node in nodes], dtype=np.int64),
                          np.array([node.index for node in nodes], dtype=np.int64))
                node_cache[(low, high)] = arrays
            return arrays

        code_parts, row_parts, col_parts, entry_parts = [], [], [], []
        for position, (row_low, row_high, col_low, col_high) in enumerate(zip(
                row_lows.tolist(), row_highs.tolist(), col_lows.tolist(),
                col_highs.tolist())):
            row_levels, row_indices = nodes_of(row_low, row_high)
            col_levels, col_indices = nodes_of(col_low, col_high)
            n_rows, n_cols = row_levels.size, col_levels.size
            code_parts.append(np.repeat(row_levels, n_cols) * n_levels
                              + np.tile(col_levels, n_rows))
            row_parts.append(np.repeat(row_indices, n_cols))
            col_parts.append(np.tile(col_indices, n_rows))
            entry_parts.append(np.full(n_rows * n_cols, position, dtype=np.int64))
        codes = np.concatenate(code_parts)
        rows = np.concatenate(row_parts)
        cols = np.concatenate(col_parts)
        entry_ids = np.concatenate(entry_parts)

        n_entries = len(entry_parts)
        answers = np.zeros(n_entries)
        unique_codes, inverse = np.unique(codes, return_inverse=True)
        for group, code in enumerate(unique_codes.tolist()):
            mask = inverse == group
            values = pair_hierarchy.levels[divmod(code, n_levels)]
            answers += np.bincount(entry_ids[mask],
                                   weights=values[rows[mask], cols[mask]],
                                   minlength=n_entries)
        return answers

    def _fused_attribute_ranges(self, attribute, lows, highs) -> np.ndarray:
        """1-D group: pad every range to the full domain of a partner."""
        other = 0 if attribute != 0 else 1
        return self._fused_pair_ranges(
            (attribute, other), lows, highs, np.zeros_like(lows),
            np.full_like(lows, self._domain_size - 1))
