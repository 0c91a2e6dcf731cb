"""Workload planner: validates typed IR queries and lowers them to ranges.

The :class:`QueryPlanner` is the layer between the logical query
surface (:mod:`repro.queries.ir`) and the mechanisms' physical
primitives (batched range answering over 1-D/2-D grid estimates).  A
mixed workload is *planned* once — every query is validated against the
fitted schema, checked against the answering mechanism's declared
capabilities, and lowered into :class:`~repro.queries.RangeQuery`
primitives:

========  =====================================  ========================
Kind      Lowering                               Reassembly
========  =====================================  ========================
range     itself (one primitive)                 identity
point     one degenerate width-1 range           identity
count     one range                              ``× population``
marginal  one width-1 range per cell             reshape to the λ-D table
topk      the full marginal's cell ranges        Norm-Sub, then arg-top-k
========  =====================================  ========================

Because every lowering lands on range primitives, all nine mechanisms
answer every query type through one answering stack — a 2-D
marginal's ``c²`` cells become one grouped, vectorised corner-lookup
batch.  The planner only validates and lowers:
:mod:`repro.queries.compiler` turns a :class:`QueryPlan` into fused
execution groups plus the vectorised reassembly
(:class:`~repro.queries.compiler.CompiledPlan`) and caches the result
across requests (:class:`~repro.queries.compiler.PlanCache`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ir import (QUERY_KINDS, MarginalQuery, PointQuery, PredicateCountQuery,
                 Query, TopKQuery, query_kind)
from .range_query import RangeQuery

#: Capability set granting every query kind (the library-wide default:
#: all nine mechanisms answer ranges, so the planner can lower anything).
ALL_QUERY_KINDS = frozenset(QUERY_KINDS)


def top_k_cells(values: np.ndarray, k: int) -> tuple[tuple[tuple[int, ...], ...],
                                                     np.ndarray]:
    """Deterministic top-k selection over a marginal table.

    Returns the ``k`` largest cells (as value tuples) and their
    frequencies, sorted by descending frequency with ties broken by
    row-major cell order — stable, so snapshot-restored estimators
    reproduce the selection bit-for-bit.
    """
    flat = values.ravel()
    k = min(int(k), flat.size)
    order = np.argsort(-flat, kind="stable")[:k]
    cells = tuple(tuple(int(part) for part in np.unravel_index(index,
                                                               values.shape))
                  for index in order)
    return cells, flat[order].astype(float)


@dataclass
class LoweredQuery:
    """One planned query and the range primitives it lowers to."""

    query: Query
    ranges: list[RangeQuery]


@dataclass
class QueryPlan:
    """A validated, lowered workload.

    Every query keeps its primitives in workload order;
    :class:`~repro.queries.compiler.CompiledPlan` turns the plan into
    fused execution groups and the vectorised reassembly layout.
    """

    lowered: list[LoweredQuery]

    @property
    def queries(self) -> list[Query]:
        """The original workload, in order."""
        return [entry.query for entry in self.lowered]

    @property
    def ranges(self) -> list[RangeQuery]:
        """Every primitive range of the plan, in lowering order."""
        return [primitive for entry in self.lowered
                for primitive in entry.ranges]

    @property
    def n_primitives(self) -> int:
        """Total number of range primitives the plan executes."""
        return sum(len(entry.ranges) for entry in self.lowered)


class QueryPlanner:
    """Validates and lowers typed workloads for one fitted schema.

    Parameters
    ----------
    domain_size:
        Per-attribute domain size ``c`` of the fitted data.
    n_attributes:
        Attribute count ``d`` of the fitted data.
    population:
        Collected population, used to scale
        :class:`~repro.queries.PredicateCountQuery` answers whose
        ``population`` field is unset.  None is allowed as long as every
        count query carries its own population.
    """

    def __init__(self, domain_size: int, n_attributes: int,
                 population: int | None = None):
        if domain_size < 2:
            raise ValueError("domain_size must be >= 2")
        if n_attributes < 1:
            raise ValueError("n_attributes must be >= 1")
        self.domain_size = int(domain_size)
        self.n_attributes = int(n_attributes)
        self.population = population if population is None else int(population)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, query: Query, position: int | None = None) -> None:
        """Check one query against the fitted schema; raise ValueError.

        ``position`` (the query's index in its workload) is woven into
        the message so mixed-workload errors name the offending query.
        """
        where = f"query {position} ({query_kind(query)})" if position is not None \
            else f"{query_kind(query)} query"
        if isinstance(query, (RangeQuery, PredicateCountQuery)):
            intervals = [(p.attribute, p.low, p.high) for p in query.predicates]
        elif isinstance(query, PointQuery):
            intervals = [(a, v, v) for a, v in query.assignment]
        elif isinstance(query, (MarginalQuery, TopKQuery)):
            intervals = [(a, 0, 0) for a in query.attributes]
        else:
            raise TypeError(f"cannot plan {type(query).__name__}; known "
                            f"kinds: {', '.join(QUERY_KINDS)}")
        for attribute, low, high in intervals:
            if attribute >= self.n_attributes:
                raise ValueError(
                    f"{where} references attribute {attribute} but the fitted "
                    f"dataset only has {self.n_attributes} attributes")
            if high >= self.domain_size:
                raise ValueError(
                    f"{where} interval [{low}, {high}] exceeds the fitted "
                    f"domain size {self.domain_size}")

    def resolve_population(self, query: PredicateCountQuery,
                           position: int | None = None) -> int:
        """The scale a count query's fractional answer is multiplied by."""
        if query.population is not None:
            return query.population
        if self.population is not None:
            return self.population
        where = f"count query {position}" if position is not None \
            else "count query"
        raise ValueError(
            f"{where} has no population: the answering mechanism reports no "
            "collected population (restored from a pre-population snapshot?) "
            "and the query does not carry its own — set "
            "PredicateCountQuery.population explicitly")

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def lower(self, query: Query,
              position: int | None = None) -> LoweredQuery:
        """Lower one validated query to its range primitives.

        A count query's population is resolved here, so a workload the
        mechanism cannot scale fails at planning time.
        """
        if isinstance(query, RangeQuery):
            return LoweredQuery(query, [query])
        if isinstance(query, PointQuery):
            return LoweredQuery(query, [query.as_range()])
        if isinstance(query, PredicateCountQuery):
            self.resolve_population(query, position)
            return LoweredQuery(query, [query.as_range()])
        if isinstance(query, MarginalQuery):
            return LoweredQuery(query, query.to_ranges(self.domain_size))
        if isinstance(query, TopKQuery):
            return LoweredQuery(
                query, query.marginal().to_ranges(self.domain_size))
        raise TypeError(f"cannot plan {type(query).__name__}; known kinds: "
                        f"{', '.join(QUERY_KINDS)}")

    def plan(self, queries,
             capabilities: frozenset[str] = ALL_QUERY_KINDS) -> QueryPlan:
        """Validate and lower a whole workload into one :class:`QueryPlan`.

        ``capabilities`` is the answering mechanism's declared set of
        supported query kinds; queries outside it are rejected with an
        error naming the query's position and kind.
        """
        lowered = []
        for position, query in enumerate(queries):
            kind = query_kind(query)
            if kind not in capabilities:
                raise ValueError(
                    f"query {position} is a {kind} query, which this "
                    f"mechanism does not support (capabilities: "
                    f"{', '.join(sorted(capabilities))})")
            self.validate(query, position)
            lowered.append(self.lower(query, position))
        return QueryPlan(lowered)
