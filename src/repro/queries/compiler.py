"""Plan compiler: fused NumPy execution layout for range workloads.

Pair-decomposable mechanisms (TDG, HDG, their ablations, CALM, LHIO)
answer every multi-primitive workload through one layout.
:func:`group_primitives` walks a flat :class:`~repro.queries.RangeQuery`
list *once* and freezes it into :class:`ExecutionGroups`: one
:class:`SingleGroup` per queried attribute (positions + endpoint
arrays), one :class:`PairGroup` per attribute pair, and for λ > 2
primitives the flattened C(λ,2) sub-pair layout plus the per-λ
Weighted-Update constraint structure (:class:`MultiDimGroup`).  The
mechanism then answers the whole workload with one vectorised gather
per group and one batched Algorithm-2 iteration per distinct λ — no
per-primitive Python.

A pure range list is grouped directly.  A typed workload first goes
through :class:`~repro.queries.QueryPlanner` (validation and lowering),
and :class:`CompiledPlan` adds the **reassembly arrays**: scalar results
(range, point, count) become one fancy-indexed gather with a
precomputed scale vector (count queries fold their population in);
marginal/top-k tables keep their precomputed slices and shapes.

Compiled plans are cached across requests by :class:`PlanCache`, a
thread-safe bounded LRU keyed by a stable (schema, workload) hash
(:func:`plan_cache_key`), with hit/miss/eviction counters the serving
tier surfaces in its health document.  Range lists skip both the
planner and the cache.

Groups keep their primitives in list order and every gather answers a
range from its own grid corners, so a primitive's answer does not
depend on how the workload was grouped.  ``tests/test_plan_compiler.py``
pins the compiled answers against the per-query scalar path and the
reference assembler in ``tests/oracles/`` for all five query kinds
across all nine mechanisms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..lru import CountedLRU
from ..postprocess.norm_sub import norm_sub
from .ir import (DistributionResult, MarginalQuery, PointQuery,
                 PredicateCountQuery, Query, QueryResult, ScalarResult,
                 TopKQuery, TopKResult)
from .planner import QueryPlan, top_k_cells
from .range_query import RangeQuery

__all__ = ["CompiledPlan", "ExecutionGroups", "MultiDimGroup", "PairGroup",
           "PlanCache", "SingleGroup", "group_primitives", "plan_cache_key",
           "workload_fingerprint"]


# ----------------------------------------------------------------------
# Execution groups
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SingleGroup:
    """All 1-D primitives of one attribute, as endpoint arrays.

    ``positions`` indexes into the flat primitive-answer vector (or the
    sub-answer vector when the group feeds a λ > 2 decomposition).
    """

    attribute: int
    positions: np.ndarray
    lows: np.ndarray
    highs: np.ndarray


@dataclass(frozen=True)
class PairGroup:
    """All 2-D primitives of one (sorted) attribute pair.

    Primitives keep plan order within the group; the mechanism resolves
    grid orientation once per group instead of once per primitive.
    """

    key: tuple[int, int]
    positions: np.ndarray
    row_lows: np.ndarray
    row_highs: np.ndarray
    col_lows: np.ndarray
    col_highs: np.ndarray


@dataclass(frozen=True)
class MultiDimGroup:
    """All λ-D primitives (λ > 2) of one dimension.

    ``sub_index_matrix`` has one row per primitive holding the indices
    of its C(λ,2) sub-answers (in
    :meth:`~repro.queries.RangeQuery.pairwise_subqueries` order) inside
    the flat sub-answer vector; ``index_sets`` is Algorithm 2's
    constraint structure for this λ, precompiled once.  ``queries``
    holds the primitives themselves, for combiners that run per query
    (max entropy).
    """

    dimension: int
    positions: np.ndarray
    sub_index_matrix: np.ndarray
    index_sets: list[np.ndarray] = field(repr=False)
    queries: list[RangeQuery] = field(repr=False)


# ----------------------------------------------------------------------
# Reassembly layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ScalarLayout:
    """Vectorised reassembly of every scalar-valued query in the plan."""

    result_positions: list[int]
    queries: list[Query]
    primitive_indices: np.ndarray
    scales: np.ndarray
    populations: list[int | None]


@dataclass(frozen=True)
class _TableLayout:
    """One marginal/top-k query's slice of the primitive answers."""

    result_position: int
    query: Query
    start: int
    stop: int
    shape: tuple[int, ...]
    top_k: int | None


@dataclass(frozen=True)
class ExecutionGroups:
    """A flat primitive list partitioned for fused execution.

    Built by :func:`group_primitives`, from a compiled plan's lowered
    primitives or straight from a range list; pair-decomposable
    mechanisms answer every group with one vectorised call
    (``PairwiseBatchAnswering._answer_groups``).
    """

    n_primitives: int
    single_groups: list[SingleGroup]
    pair_groups: list[PairGroup]
    multi_pair_groups: list[PairGroup]
    multi_dim_groups: list[MultiDimGroup]
    n_sub_entries: int


def group_primitives(ranges: list[RangeQuery]) -> ExecutionGroups:
    """Partition range primitives by dimension and attribute signature.

    Groups keep their primitives in list order; a λ > 2 primitive
    contributes its C(λ,2) sub-pairs (lexicographic by position, the
    :meth:`~repro.queries.RangeQuery.pairwise_subqueries` order) to the
    flat sub-answer layout.
    """
    singles: dict[int, list[tuple[int, int, int]]] = {}
    pairs: dict[tuple[int, int], list[tuple[int, int, int, int, int]]] = {}
    multi_pairs: dict[tuple[int, int],
                      list[tuple[int, int, int, int, int]]] = {}
    multis_by_dim: dict[int, tuple[list[int], list[list[int]],
                                   list[RangeQuery]]] = {}
    n_sub = 0
    for index, primitive in enumerate(ranges):
        predicates = primitive.predicates
        if len(predicates) == 1:
            predicate = predicates[0]
            singles.setdefault(predicate.attribute, []).append(
                (index, predicate.low, predicate.high))
        elif len(predicates) == 2:
            first, second = predicates
            pairs.setdefault((first.attribute, second.attribute), []).append(
                (index, first.low, first.high, second.low, second.high))
        else:
            sub_indices = []
            for i in range(len(predicates)):
                for j in range(i + 1, len(predicates)):
                    multi_pairs.setdefault(
                        (predicates[i].attribute,
                         predicates[j].attribute), []).append(
                        (n_sub, predicates[i].low, predicates[i].high,
                         predicates[j].low, predicates[j].high))
                    sub_indices.append(n_sub)
                    n_sub += 1
            positions, rows, queries = multis_by_dim.setdefault(
                len(predicates), ([], [], []))
            positions.append(index)
            rows.append(sub_indices)
            queries.append(primitive)

    from ..core.query_estimation import lambda_constraint_index_sets

    def pair_group(key, rows) -> PairGroup:
        data = np.asarray(rows, dtype=np.int64)
        return PairGroup(key, data[:, 0], data[:, 1], data[:, 2],
                         data[:, 3], data[:, 4])

    return ExecutionGroups(
        n_primitives=len(ranges),
        single_groups=[
            SingleGroup(attribute, *np.asarray(rows, dtype=np.int64).T)
            for attribute, rows in singles.items()],
        pair_groups=[pair_group(key, rows) for key, rows in pairs.items()],
        multi_pair_groups=[pair_group(key, rows)
                           for key, rows in multi_pairs.items()],
        multi_dim_groups=[
            MultiDimGroup(dimension, np.asarray(positions, dtype=np.int64),
                          np.asarray(rows, dtype=np.int64),
                          lambda_constraint_index_sets(dimension), queries)
            for dimension, (positions, rows, queries)
            in multis_by_dim.items()],
        n_sub_entries=n_sub)


class CompiledPlan:
    """A :class:`~repro.queries.QueryPlan` frozen into fused index arrays.

    Build with :meth:`from_plan`; mechanisms execute :attr:`groups`
    through their vectorised primitives and hand the flat answer vector
    to :meth:`assemble`.  Mechanisms without fused hooks answer
    :attr:`flat_ranges` — the plan's primitive list, materialised once
    instead of per call.
    """

    def __init__(self, flat_ranges: list[RangeQuery], n_queries: int,
                 groups: ExecutionGroups, scalars: _ScalarLayout,
                 tables: list[_TableLayout]):
        self.flat_ranges = flat_ranges
        self.n_primitives = len(flat_ranges)
        self.n_queries = n_queries
        self.groups = groups
        self._scalars = scalars
        self._tables = tables

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_plan(cls, plan: QueryPlan, domain_size: int,
                  population: int | None = None) -> "CompiledPlan":
        """Compile a validated plan into its fused execution layout.

        ``domain_size`` shapes marginal/top-k tables (a λ-attribute
        marginal's primitives reshape to ``(c,) * λ``); ``population``
        is the fallback scale for count queries that carry none of
        their own — the same value the planner resolved at lowering
        time.
        """
        domain_size = int(domain_size)
        flat_ranges: list[RangeQuery] = []
        scalar_positions: list[int] = []
        scalar_queries: list[Query] = []
        scalar_primitives: list[int] = []
        scalar_scales: list[float] = []
        scalar_populations: list[int | None] = []
        tables: list[_TableLayout] = []

        for result_position, entry in enumerate(plan.lowered):
            query = entry.query
            start = len(flat_ranges)
            flat_ranges.extend(entry.ranges)
            stop = len(flat_ranges)

            if isinstance(query, (RangeQuery, PointQuery)):
                scalar_positions.append(result_position)
                scalar_queries.append(query)
                scalar_primitives.append(start)
                scalar_scales.append(1.0)
                scalar_populations.append(None)
            elif isinstance(query, PredicateCountQuery):
                scale = (query.population if query.population is not None
                         else population)
                assert scale is not None, \
                    "planner resolved the population at lowering time"
                scalar_positions.append(result_position)
                scalar_queries.append(query)
                scalar_primitives.append(start)
                scalar_scales.append(float(scale))
                scalar_populations.append(int(scale))
            elif isinstance(query, MarginalQuery):
                tables.append(_TableLayout(result_position, query, start, stop,
                                           (domain_size,) * query.dimension,
                                           None))
            elif isinstance(query, TopKQuery):
                dimension = query.marginal().dimension
                tables.append(_TableLayout(result_position, query, start, stop,
                                           (domain_size,) * dimension,
                                           int(query.k)))
            else:  # pragma: no cover - planner rejects unknown kinds first
                raise TypeError(f"cannot compile {type(query).__name__}")

        return cls(
            flat_ranges=flat_ranges,
            n_queries=len(plan.lowered),
            groups=group_primitives(flat_ranges),
            scalars=_ScalarLayout(scalar_positions, scalar_queries,
                                  np.asarray(scalar_primitives,
                                             dtype=np.int64),
                                  np.asarray(scalar_scales, dtype=float),
                                  scalar_populations),
            tables=tables)

    # ------------------------------------------------------------------
    # Reassembly
    # ------------------------------------------------------------------
    def assemble(self, answers: np.ndarray) -> list[QueryResult]:
        """Typed results from the flat primitive answers, in one gather.

        Scalar queries (range, point, count) are gathered and scaled as
        one vectorised pass; marginal tables reshape precomputed
        slices; top-k queries run Norm-Sub + arg-top-k per query (that
        is the query's actual post-processing, not interpretation
        overhead).
        """
        answers = np.asarray(answers, dtype=float)
        if answers.shape != (self.n_primitives,):
            raise ValueError(
                f"plan expects {self.n_primitives} primitive answers, got "
                f"shape {answers.shape}")
        results: list[QueryResult | None] = [None] * self.n_queries
        scalars = self._scalars
        if scalars.queries:
            values = answers[scalars.primitive_indices] * scalars.scales
            for position, query, value, scale in zip(
                    scalars.result_positions, scalars.queries, values,
                    scalars.populations):
                results[position] = ScalarResult(query, float(value),
                                                 population=scale)
        for table in self._tables:
            block = answers[table.start:table.stop].reshape(table.shape)
            if table.top_k is None:
                results[table.result_position] = DistributionResult(
                    table.query, block)
            else:
                estimate = norm_sub(block)
                cells, values = top_k_cells(estimate, table.top_k)
                results[table.result_position] = TopKResult(
                    table.query, cells, values)
        return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Cache keying
# ----------------------------------------------------------------------
def workload_fingerprint(queries) -> str:
    """A stable content hash of a typed workload.

    Queries are frozen dataclasses with deterministic ``repr``, so the
    SHA-256 over their reprs is stable across processes and restarts —
    unlike ``hash()``, which is salted per interpreter for strings and
    varies for tuples of them.
    """
    digest = hashlib.sha256()
    for query in queries:
        digest.update(repr(query).encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


def plan_cache_key(schema: tuple, queries) -> tuple:
    """LRU key for a compiled plan: fitted schema + workload hash.

    ``schema`` is the answering mechanism's ``(n_attributes,
    domain_size, population)`` triple — refits and population changes
    (which alter count-query scaling) therefore miss instead of serving
    a stale plan.
    """
    return (*schema, workload_fingerprint(queries))


class PlanCache(CountedLRU):
    """Thread-safe bounded LRU of compiled plans with usage counters.

    Compilation runs outside the cache lock, so concurrent misses may
    compile the same plan twice — the second ``put`` wins, both plans
    answer identically, and ``hits + misses`` always equals the number
    of lookups.
    """

    def __init__(self, capacity: int = 8):
        super().__init__(capacity)

    # ``perfbench/traced_serve.py`` counts plan-cache hits by wrapping
    # ``PlanCache.__dict__["get"]``, so the lookup is bound here too.
    get = CountedLRU.get
