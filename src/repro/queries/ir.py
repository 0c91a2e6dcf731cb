"""Typed query IR: the query classes the planner compiles to range primitives.

The mechanisms' physical primitives are 1-D/2-D grid estimates and the
prefix-sum engine's batched range lookups, but those primitives answer far
more than axis-aligned range queries.  This module defines the *logical*
query surface as a small typed intermediate representation:

:class:`~repro.queries.RangeQuery`
    The paper's λ-D range query (fraction of users inside a box).
:class:`MarginalQuery`
    The full joint distribution of a set of attributes — every cell of
    the λ-D marginal table (the object CALM-style mechanisms release).
:class:`PointQuery`
    The frequency of one exact cell (``a1 = v1 ∧ a2 = v2 ∧ ...``), a
    degenerate range of width 1 per attribute.
:class:`PredicateCountQuery`
    A range predicate whose answer is reported as an absolute *count*
    of users instead of a fraction (``count = fraction × population``).
:class:`TopKQuery`
    The ``k`` most frequent cells of a group-by marginal, computed from
    the estimated marginal after a Norm-Sub cleanup.

Every query type lowers onto :class:`~repro.queries.RangeQuery`
primitives through :class:`~repro.queries.QueryPlanner`; the typed
result classes (:class:`ScalarResult`, :class:`DistributionResult`,
:class:`TopKResult`) carry the reassembled answers plus their wire
(JSON) form for the serving layer.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .range_query import Predicate, RangeQuery

#: Canonical short names of every query kind the planner understands.
QUERY_KINDS = ("range", "marginal", "point", "count", "topk")


def validate_query_kinds(query_kinds) -> tuple[str, ...]:
    """Check a query-kind tuple, naming any offending entry by position.

    Shared by every kind-list entry point (workload generation,
    ``ExperimentConfig.validate``) so the error text stays identical;
    returns the tuple normalised.
    """
    kinds = tuple(query_kinds)
    if not kinds:
        raise ValueError("query_kinds must name at least one kind")
    for position, kind in enumerate(kinds):
        if kind not in QUERY_KINDS:
            raise ValueError(
                f"unknown query kind {kind!r} at position {position} of "
                f"query_kinds; known kinds: {', '.join(QUERY_KINDS)}")
    return kinds


class Query(abc.ABC):
    """Marker base of the typed query IR.

    :class:`~repro.queries.RangeQuery` predates the IR and is registered
    as a virtual subclass, so ``isinstance(query, Query)`` accepts every
    plannable query type.
    """


def _check_attributes(attributes: tuple[int, ...], owner: str) -> None:
    """Shared attribute-tuple validation for the IR constructors."""
    if not attributes:
        raise ValueError(f"{owner} needs at least one attribute")
    if any(attribute < 0 for attribute in attributes):
        raise ValueError(f"{owner} attribute indices must be non-negative")
    if len(set(attributes)) != len(attributes):
        raise ValueError(
            f"{owner} may list each attribute at most once, got {attributes}")


@dataclass(frozen=True)
class MarginalQuery(Query):
    """The full joint distribution of a set of attributes.

    The answer is the λ-D table of cell frequencies (``c`` entries per
    listed attribute), i.e. the object a marginal-release mechanism
    publishes.  Lowers to one degenerate (width-1) range query per cell
    in row-major order over the sorted attribute tuple.
    """

    attributes: tuple[int, ...]

    def __post_init__(self) -> None:
        attributes = tuple(int(a) for a in self.attributes)
        _check_attributes(attributes, "a marginal query")
        object.__setattr__(self, "attributes", tuple(sorted(attributes)))

    @property
    def dimension(self) -> int:
        """Number of attributes in the group-by (λ)."""
        return len(self.attributes)

    def n_cells(self, domain_size: int) -> int:
        """Number of cells in the marginal table (``c^λ``)."""
        return domain_size ** self.dimension

    def cells(self, domain_size: int):
        """Iterate the cell value tuples in row-major order."""
        return product(range(domain_size), repeat=self.dimension)

    def to_ranges(self, domain_size: int) -> list[RangeQuery]:
        """One degenerate range query per cell, in :meth:`cells` order."""
        return [RangeQuery(tuple(Predicate(attribute, value, value)
                                 for attribute, value
                                 in zip(self.attributes, cell)))
                for cell in self.cells(domain_size)]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(f"a{a + 1}" for a in self.attributes)
        return f"marginal({names})"


@dataclass(frozen=True)
class PointQuery(Query):
    """The frequency of one exact cell: ``a1 = v1 ∧ a2 = v2 ∧ ...``.

    Equivalent to a range query whose every interval has width 1; the
    planner lowers it to exactly that degenerate range.
    """

    assignment: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        assignment = tuple((int(a), int(v)) for a, v in self.assignment)
        _check_attributes(tuple(a for a, _ in assignment), "a point query")
        if any(value < 0 for _, value in assignment):
            raise ValueError("point query values must be non-negative")
        object.__setattr__(self, "assignment", tuple(sorted(assignment)))

    @classmethod
    def from_dict(cls, values: dict[int, int]) -> "PointQuery":
        """Build a point query from ``{attribute: value}``."""
        return cls(tuple(values.items()))

    @property
    def attributes(self) -> tuple[int, ...]:
        """Sorted tuple of the restricted attribute indices."""
        return tuple(a for a, _ in self.assignment)

    @property
    def dimension(self) -> int:
        """Number of pinned attributes (λ)."""
        return len(self.assignment)

    def as_range(self) -> RangeQuery:
        """The equivalent degenerate (width-1 everywhere) range query."""
        return RangeQuery(tuple(Predicate(attribute, value, value)
                                for attribute, value in self.assignment))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"a{a + 1}={v}" for a, v in self.assignment]
        return " ∧ ".join(parts)


@dataclass(frozen=True)
class PredicateCountQuery(Query):
    """A conjunctive range predicate answered as an absolute user *count*.

    ``population`` scales the underlying fractional range answer into a
    count; when None, the planner uses the answering mechanism's
    collected population (and ground truth uses the dataset's size).
    """

    predicates: tuple[Predicate, ...]
    population: int | None = None

    def __post_init__(self) -> None:
        # Reuse RangeQuery's canonicalisation + validation of predicates.
        canonical = RangeQuery(tuple(self.predicates))
        object.__setattr__(self, "predicates", canonical.predicates)
        if self.population is not None:
            population = int(self.population)
            if population < 1:
                raise ValueError(
                    f"population must be >= 1 when set, got {population}")
            object.__setattr__(self, "population", population)

    @classmethod
    def from_dict(cls, intervals: dict[int, tuple[int, int]],
                  population: int | None = None) -> "PredicateCountQuery":
        """Build from ``{attribute: (low, high)}`` plus an optional scale."""
        return cls(tuple(Predicate(a, lo, hi)
                         for a, (lo, hi) in intervals.items()),
                   population=population)

    @property
    def attributes(self) -> tuple[int, ...]:
        """Sorted tuple of restricted attribute indices."""
        return tuple(p.attribute for p in self.predicates)

    @property
    def dimension(self) -> int:
        """Number of restricted attributes (λ)."""
        return len(self.predicates)

    def as_range(self) -> RangeQuery:
        """The underlying fractional range query."""
        return RangeQuery(self.predicates)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"count({self.as_range()})"


@dataclass(frozen=True)
class TopKQuery(Query):
    """The ``k`` most frequent cells of a group-by marginal.

    Lowered as the full :class:`MarginalQuery` over ``attributes``; the
    planner's combiner runs Norm-Sub over the estimated table (negative
    noisy cells would scramble the ranking) and keeps the ``k`` largest
    cells, breaking ties deterministically by row-major cell order.
    """

    attributes: tuple[int, ...]
    k: int = 1

    def __post_init__(self) -> None:
        attributes = tuple(int(a) for a in self.attributes)
        _check_attributes(attributes, "a top-k query")
        object.__setattr__(self, "attributes", tuple(sorted(attributes)))
        k = int(self.k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        object.__setattr__(self, "k", k)

    @property
    def dimension(self) -> int:
        """Number of group-by attributes (λ)."""
        return len(self.attributes)

    def marginal(self) -> MarginalQuery:
        """The marginal query this top-k is computed from."""
        return MarginalQuery(self.attributes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(f"a{a + 1}" for a in self.attributes)
        return f"top{self.k}({names})"


Query.register(RangeQuery)


def query_kind(query) -> str:
    """The canonical kind name of one IR query (see :data:`QUERY_KINDS`)."""
    if isinstance(query, RangeQuery):
        return "range"
    if isinstance(query, MarginalQuery):
        return "marginal"
    if isinstance(query, PointQuery):
        return "point"
    if isinstance(query, PredicateCountQuery):
        return "count"
    if isinstance(query, TopKQuery):
        return "topk"
    raise TypeError(f"not an IR query: {type(query).__name__} "
                    f"(known kinds: {', '.join(QUERY_KINDS)})")


# ----------------------------------------------------------------------
# Typed results
# ----------------------------------------------------------------------
class QueryResult(abc.ABC):
    """Base of the typed answers :meth:`~repro.queries.CompiledPlan.assemble` produces."""

    query: Query

    @property
    def kind(self) -> str:
        """Kind name of the originating query."""
        return query_kind(self.query)

    @abc.abstractmethod
    def to_wire(self) -> dict:
        """JSON-serialisable form served by ``POST /query``."""


@dataclass
class ScalarResult(QueryResult):
    """A single-number answer (range fraction, point frequency or count).

    ``population`` is set for count queries: it records the scale the
    fractional estimate was multiplied by, so error metrics can
    renormalise counts back onto the frequency scale.
    """

    query: Query
    value: float
    population: int | None = None

    def to_wire(self) -> dict:
        """``{"type", "value"}`` plus ``population`` for counts."""
        document = {"type": self.kind, "value": float(self.value)}
        if self.population is not None:
            document["population"] = int(self.population)
        return document


@dataclass
class DistributionResult(QueryResult):
    """A full marginal table: one frequency per cell of the group-by."""

    query: MarginalQuery
    values: np.ndarray

    def to_wire(self) -> dict:
        """``{"type", "attributes", "values"}`` with the nested table."""
        return {"type": self.kind,
                "attributes": list(self.query.attributes),
                "values": self.values.tolist()}


@dataclass
class TopKResult(QueryResult):
    """The selected top-k cells with their (Norm-Sub cleaned) frequencies.

    ``distribution`` carries the full underlying table when the producer
    has it (ground truth always does); mechanism-side results leave it
    None so the response stays k-sized.
    """

    query: TopKQuery
    cells: tuple[tuple[int, ...], ...]
    values: np.ndarray
    distribution: np.ndarray | None = field(default=None, repr=False)

    def to_wire(self) -> dict:
        """``{"type", "attributes", "k", "items"}``; items are k-sized."""
        return {"type": self.kind,
                "attributes": list(self.query.attributes),
                "k": int(self.query.k),
                "items": [{"cell": list(cell), "value": float(value)}
                          for cell, value in zip(self.cells, self.values)]}
