"""Common interface for every multi-dimensional range-query mechanism.

TDG, HDG and all baselines (Uni, MSW, CALM, HIO, LHIO) implement
:class:`RangeQueryMechanism`: ``fit`` runs the one-shot LDP collection
protocol over a dataset, ``answer`` / ``answer_workload`` then answer
arbitrarily many queries from the collected (already private)
summaries without touching raw data again.

``answer_workload`` is the single answering stack for the whole typed
query IR (:mod:`repro.queries`): a workload may mix
:class:`~repro.queries.RangeQuery` with marginal, point,
predicate-count and top-k queries.  Non-range kinds are compiled by a
:class:`~repro.queries.QueryPlanner` onto the mechanism's range
primitives — subject to the mechanism's declared
:attr:`~RangeQueryMechanism.query_capabilities` — answered through the
same batch engine, and reassembled into typed
:class:`~repro.queries.QueryResult` objects.  Pure range workloads keep
the flat ``numpy`` answer vector they always had.

Mechanisms whose collection step is aggregation-based (TDG, HDG) also
support an incremental, shard-mergeable protocol:

* :meth:`RangeQueryMechanism.partial_fit` ingests one batch of user
  reports, maintaining additive per-grid support counts;
* :meth:`RangeQueryMechanism.merge` combines the accumulated state of
  independent shards (exactly — support counts simply add);
* :meth:`RangeQueryMechanism.finalize` runs the one-shot pipeline's
  Phase-2 consistency/estimation machinery on the merged counts.

``fit(data)`` is a thin wrapper equivalent to
``partial_fit(data); finalize()``.  Mechanisms that only implement the
one-shot protocol raise :class:`NotImplementedError` from the sharded
entry points and report ``supports_sharding == False``.

Fitted mechanisms additionally serialize to portable snapshot
documents: :meth:`RangeQueryMechanism.save_state` captures everything
Phase 3 reads — grids, response matrices, the RNG state of mechanisms
whose answering path still draws noise — and
:meth:`RangeQueryMechanism.load_state` restores it into a fresh
instance whose ``answer``/``answer_workload`` output is bitwise
identical to the live estimator's.  :mod:`repro.serving` builds the
versioned on-disk snapshot store and the query service on top of these
hooks.
"""

from __future__ import annotations

import abc

import numpy as np

from ..datasets import Dataset
from ..queries import (ALL_QUERY_KINDS, CompiledPlan, PlanCache, Query,
                       QueryPlanner, QueryResult, RangeQuery, plan_cache_key)

#: Format tag written into serialized fitted-mechanism states.
MECHANISM_STATE_FORMAT = "repro.mechanism-state"
MECHANISM_STATE_VERSION = 1


def check_state_document(state: dict, expected_format: str,
                         max_version: int) -> None:
    """Validate a serialized state's format tag and schema version.

    Shared by every deserialization entry point (mechanism states,
    service snapshots) so foreign documents and future schema versions
    fail with the same clear errors everywhere.
    """
    if state.get("format") != expected_format:
        raise ValueError(f"not a {expected_format} document "
                         f"(format={state.get('format')!r})")
    if int(state.get("version", 0)) > max_version:
        raise ValueError(
            f"state version {state['version']} is newer than supported "
            f"version {max_version}")


class RangeQueryMechanism(abc.ABC):
    """Base class for ε-LDP multi-dimensional range-query mechanisms.

    Parameters
    ----------
    epsilon:
        Per-user privacy budget.  Every user sends exactly one report
        produced by an ε-LDP frequency oracle, so the whole mechanism
        satisfies ε-LDP.
    seed:
        Optional seed for all randomness (user grouping, perturbation).
    """

    #: Short name used in experiment tables (overridden by subclasses).
    name: str = "mechanism"

    #: Query kinds this mechanism can answer (see
    #: :data:`repro.queries.QUERY_KINDS`).  Every kind lowers onto range
    #: primitives, so the default grants all of them; a subclass that
    #: cannot serve some kind narrows the set and the planner rejects
    #: such queries with a clear per-query error.
    query_capabilities: frozenset[str] = ALL_QUERY_KINDS

    #: Whether answering a fitted instance is free of side effects.
    #: Pure mechanisms may answer concurrently from many threads with
    #: no lock (the serving tier's epoch read path relies on this);
    #: mechanisms that draw noise lazily or memoize per-query state
    #: during answering (HIO, LHIO) override this to False and the
    #: epoch serializes their answering with a per-epoch lock.
    answering_is_pure: bool = True

    def __init__(self, epsilon: float, seed: int | None = None):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)
        self.rng = np.random.default_rng(seed)
        self._fitted = False
        self._n_attributes: int | None = None
        self._domain_size: int | None = None
        self._n_reports: int | None = None
        #: Bounded LRU of :class:`~repro.queries.CompiledPlan` keyed by a
        #: stable (schema, workload) hash; planning a marginal allocates
        #: c^λ range primitives and compiling freezes the fused gather
        #: layout, so a service answering the same typed workload
        #: repeatedly pays both once, not per request.
        self._typed_plan_cache = PlanCache(self._PLAN_CACHE_ENTRIES)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def fit(self, dataset: Dataset) -> "RangeQueryMechanism":
        """Run the LDP collection protocol over ``dataset`` and return self."""
        self._n_attributes = dataset.n_attributes
        self._domain_size = dataset.domain_size
        self._n_reports = dataset.n_users
        self._fit(dataset)
        self._fitted = True
        return self

    @abc.abstractmethod
    def _fit(self, dataset: Dataset) -> None:
        """Mechanism-specific collection logic."""

    # ------------------------------------------------------------------
    # Sharded collection (incremental aggregation pipeline)
    # ------------------------------------------------------------------
    def partial_fit(self, dataset: Dataset,
                    total_users: int | None = None) -> "RangeQueryMechanism":
        """Ingest one batch (shard) of user reports without finalising.

        Parameters
        ----------
        dataset:
            The batch of user records to collect under ε-LDP.
        total_users:
            Expected total population across *all* shards.  Used on the
            first batch to derive guideline granularities; shards merged
            later must agree on the granularity, so pass the same value to
            every shard (or fix the granularity explicitly).  Defaults to
            the first batch's size.
        """
        if self._fitted:
            raise RuntimeError(
                f"{type(self).__name__} is already finalised; create a fresh "
                "instance to collect new shards")
        if self._n_attributes is None:
            self._n_attributes = dataset.n_attributes
            self._domain_size = dataset.domain_size
        elif (dataset.n_attributes != self._n_attributes
              or dataset.domain_size != self._domain_size):
            raise ValueError(
                f"batch shape (d={dataset.n_attributes}, c={dataset.domain_size}) "
                f"does not match earlier batches (d={self._n_attributes}, "
                f"c={self._domain_size})")
        self._partial_fit(dataset, total_users)
        self._n_reports = (self._n_reports or 0) + dataset.n_users
        return self

    def merge(self, other: "RangeQueryMechanism") -> "RangeQueryMechanism":
        """Fold another shard's accumulated state into this one (exactly).

        Both sides must be un-finalised instances of the same mechanism
        with the same privacy budget, collected over the same schema.
        Support counts are summed, so the merged state is identical to
        having collected both shards' batches into a single instance.
        """
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}")
        if self._fitted or other._fitted:
            raise RuntimeError("merge must happen before finalize()")
        if other.epsilon != self.epsilon:
            raise ValueError(
                f"cannot merge shards with different privacy budgets "
                f"({self.epsilon} vs {other.epsilon})")
        if other._n_attributes is None:
            return self  # the other shard never collected anything
        if self._n_attributes is None:
            self._n_attributes = other._n_attributes
            self._domain_size = other._domain_size
        elif (other._n_attributes != self._n_attributes
              or other._domain_size != self._domain_size):
            raise ValueError(
                f"cannot merge shards over different schemas "
                f"(d={self._n_attributes}, c={self._domain_size}) vs "
                f"(d={other._n_attributes}, c={other._domain_size})")
        self._merge(other)
        if other._n_reports:
            self._n_reports = (self._n_reports or 0) + other._n_reports
        return self

    def finalize(self) -> "RangeQueryMechanism":
        """Run post-processing/estimation on the merged state; enable answering."""
        if self._fitted:
            raise RuntimeError(f"{type(self).__name__} is already finalised")
        if self._n_attributes is None:
            raise RuntimeError(
                "no batches ingested; call partial_fit at least once before "
                "finalize")
        self._finalize()
        self._fitted = True
        return self

    def _partial_fit(self, dataset: Dataset, total_users: int | None) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded aggregation")

    def _merge(self, other: "RangeQueryMechanism") -> None:
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded aggregation")

    def _finalize(self) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded aggregation")

    @property
    def supports_sharding(self) -> bool:
        """Whether partial_fit/merge/finalize are implemented."""
        return type(self)._partial_fit is not RangeQueryMechanism._partial_fit

    # ------------------------------------------------------------------
    # Shared-memory accumulator views (distributed ingest tier)
    # ------------------------------------------------------------------
    def prepare_aggregation(self, n_attributes: int, domain_size: int,
                            total_users: int | None = None
                            ) -> "RangeQueryMechanism":
        """Pin the aggregation layout without ingesting any data.

        Fixes the schema and the guideline granularities exactly as the
        first ``partial_fit`` batch would, so the accumulator slot layout
        (:meth:`accumulator_slots`) is known up front.  The distributed
        ingest tier (:mod:`repro.ingest`) calls this on a template
        instance to size shared-memory blocks before any worker starts.

        ``total_users`` feeds the granularity guideline; it is required
        when the mechanism has no explicit granularity configured,
        because there is no first batch to fall back on.
        """
        if not self.supports_sharding:
            raise NotImplementedError(
                f"{type(self).__name__} does not support sharded aggregation")
        if self._fitted:
            raise RuntimeError(
                f"{type(self).__name__} is already finalised; create a fresh "
                "instance to collect new shards")
        n_attributes, domain_size = int(n_attributes), int(domain_size)
        if self._n_attributes is None:
            self._n_attributes = n_attributes
            self._domain_size = domain_size
        elif (n_attributes != self._n_attributes
              or domain_size != self._domain_size):
            raise ValueError(
                f"schema (d={n_attributes}, c={domain_size}) does not match "
                f"earlier batches (d={self._n_attributes}, "
                f"c={self._domain_size})")
        self._ensure_layout(total_users)
        return self

    def _ensure_layout(self, planning_users: int | None) -> None:
        """Create grids/accumulator slots once the schema is known."""
        raise NotImplementedError(
            f"{type(self).__name__} does not expose an accumulator layout")

    def accumulator_slots(self) -> list[tuple[str, int]]:
        """Ordered ``(slot key, vector length)`` layout of the additive state.

        Requires a prepared layout (:meth:`prepare_aggregation` or at
        least one ingested batch).  The order is deterministic, so every
        process sizing buffers from the same configuration agrees on it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose an accumulator layout")

    def _accumulator_ref(self, slot: str) -> tuple[dict, object]:
        """``(container, key)`` locating one slot's accumulator."""
        raise NotImplementedError(
            f"{type(self).__name__} does not expose an accumulator layout")

    def bind_accumulator_views(self, views: dict) -> None:
        """Re-home every accumulator slot onto caller-provided buffers.

        ``views`` maps each slot key from :meth:`accumulator_slots` to a
        float64 vector of the slot's length — typically views over a
        ``multiprocessing.shared_memory`` block, so that ``partial_fit``
        updates become visible to a merge coordinator in another process
        without any serialization.  Existing counts are copied into the
        buffers first; empty slots become zero-count accumulators (adding
        zero supports is exact, so merge results are unchanged).
        """
        from ..frequency_oracles import SupportAccumulator
        for slot, length in self.accumulator_slots():
            view = np.asarray(views[slot])
            if view.shape != (length,) or view.dtype != np.float64:
                raise ValueError(
                    f"slot {slot!r} needs a float64 view of length {length}, "
                    f"got {view.dtype} with shape {view.shape}")
            container, key = self._accumulator_ref(slot)
            current = container[key]
            if current is None:
                view[:] = 0.0
                container[key] = SupportAccumulator(view, 0)
            else:
                np.copyto(view, current.supports)
                container[key] = SupportAccumulator(view, current.n_reports)

    def accumulator_counts(self) -> dict[str, int]:
        """Per-slot report counts (the header ingest workers publish)."""
        counts: dict[str, int] = {}
        for slot, _ in self.accumulator_slots():
            container, key = self._accumulator_ref(slot)
            accumulator = container[key]
            counts[slot] = 0 if accumulator is None else accumulator.n_reports
        return counts

    @property
    def supports_accumulator_views(self) -> bool:
        """Whether the shared-memory accumulator-view API is implemented."""
        return (type(self).accumulator_slots
                is not RangeQueryMechanism.accumulator_slots)

    # ------------------------------------------------------------------
    # Fitted-state serialization (snapshots)
    # ------------------------------------------------------------------
    def save_state(self) -> dict:
        """JSON-serialisable snapshot of the *fitted* estimator.

        The document captures everything the answering path reads —
        grid frequencies, response matrices, materialised hierarchy
        levels, lazy-noise caches — plus the mechanism's RNG state, so
        that a restored instance's ``answer_workload`` output is
        bitwise identical to this instance's from the snapshot point
        on.  Restore with :meth:`load_state` (same class, fresh
        instance) or :func:`repro.serving.restore_mechanism` (builds
        the instance from the document's ``config``).
        """
        self._require_fitted()
        return {
            "format": MECHANISM_STATE_FORMAT,
            "version": MECHANISM_STATE_VERSION,
            "mechanism": self.name,
            "epsilon": self.epsilon,
            "n_attributes": self._n_attributes,
            "domain_size": self._domain_size,
            "n_reports": self._n_reports,
            "config": self._snapshot_config(),
            "rng_state": self.rng.bit_generator.state,
            "payload": self._state_payload(),
        }

    def load_state(self, state: dict) -> "RangeQueryMechanism":
        """Restore a fitted state produced by :meth:`save_state`.

        The receiving instance must be fresh (never fitted) and of the
        same mechanism class and privacy budget the state was saved
        from; construction parameters that shape answering (estimation
        method, iteration caps, ...) travel in ``state["config"]`` and
        are applied by :func:`repro.serving.restore_mechanism`.
        """
        if self._fitted:
            raise RuntimeError("state can only be loaded into a fresh "
                               f"{type(self).__name__} instance")
        check_state_document(state, MECHANISM_STATE_FORMAT,
                             MECHANISM_STATE_VERSION)
        if state["mechanism"] != self.name:
            raise ValueError(f"state belongs to {state['mechanism']!r}, "
                             f"not {self.name!r}")
        if float(state["epsilon"]) != self.epsilon:
            raise ValueError("state was collected under a different epsilon")
        self._n_attributes = int(state["n_attributes"])
        self._domain_size = int(state["domain_size"])
        # Absent in pre-IR snapshots; count queries then need an explicit
        # per-query population (the planner raises a clear error).
        reports = state.get("n_reports")
        self._n_reports = int(reports) if reports is not None else None
        self.rng.bit_generator.state = state["rng_state"]
        self._restore_state_payload(state["payload"])
        self._fitted = True
        return self

    def _snapshot_config(self) -> dict:
        """Constructor keyword arguments needed to rebuild this instance."""
        return {}

    def _state_payload(self) -> dict:
        """Mechanism-specific fitted state (hook for :meth:`save_state`)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state snapshots")

    def _restore_state_payload(self, payload: dict) -> None:
        """Rebuild the fitted state from :meth:`_state_payload` output."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state snapshots")

    @property
    def supports_snapshot(self) -> bool:
        """Whether save_state/load_state are implemented."""
        return (type(self)._state_payload
                is not RangeQueryMechanism._state_payload)

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    @property
    def population(self) -> int | None:
        """Number of user reports collected (None before any collection).

        Scales :class:`~repro.queries.PredicateCountQuery` answers that
        carry no explicit population of their own.
        """
        return self._n_reports

    def query_planner(self) -> QueryPlanner:
        """A planner bound to this mechanism's fitted schema."""
        self._require_fitted()
        assert self._n_attributes is not None and self._domain_size is not None
        return QueryPlanner(self._domain_size, self._n_attributes,
                            population=self._n_reports)

    def answer(self, query) -> float | QueryResult:
        """Estimated answer of one query.

        A :class:`~repro.queries.RangeQuery` returns its float estimate
        (fraction in [0, 1] ideally) as it always has; any other IR kind
        is planned like a one-query workload and returns its typed
        :class:`~repro.queries.QueryResult`.
        """
        self._require_fitted()
        if isinstance(query, RangeQuery):
            self._validate_query(query)
            return float(self._answer(query))
        return self.answer_typed([query])[0]

    @abc.abstractmethod
    def _answer(self, query: RangeQuery) -> float:
        """Mechanism-specific answering logic."""

    def answer_workload(self, queries: list) -> np.ndarray | list[QueryResult]:
        """Estimated answers for a (possibly mixed-kind) workload.

        Pure range workloads are validated up front and handed to the
        mechanism's batch engine (``_answer_workload``) — for
        pair-decomposable mechanisms the fused execution groups of
        :func:`~repro.queries.compiler.group_primitives`, with no
        planning and no plan cache; the return value is the flat float
        vector it always was.  A workload containing any other IR kind
        goes through :meth:`answer_typed` and returns one typed
        :class:`~repro.queries.QueryResult` per query instead.
        """
        self._require_fitted()
        queries = list(queries)
        if not queries:
            return np.empty(0)
        if any(not isinstance(query, RangeQuery) for query in queries):
            return self.answer_typed(queries)
        for query in queries:
            self._validate_query(query)
        return self._answer_workload(queries)

    def answer_typed(self, queries: list) -> list[QueryResult]:
        """Answer a typed IR workload: compile, batch-answer, reassemble.

        The planner lowers every query onto range primitives (checking
        it against :attr:`query_capabilities` and the fitted schema),
        the compiler freezes the lowered plan into fused gather arrays,
        the primitives run through :meth:`_answer_compiled` — the fused
        execution groups on pair-decomposable mechanisms, the
        mechanism's own batch engine otherwise — and the compiled plan
        gathers the flat answers back into typed results in one
        vectorised pass, so marginal cells, point estimates, count
        scaling and top-k selection all ride the one answering stack.
        """
        self._require_fitted()
        compiled = self._plan_for(queries)
        # The planner validated every query against the fitted schema, and
        # lowering only emits primitives inside the validated bounds — no
        # per-primitive re-validation needed.
        answers = (self._answer_compiled(compiled) if compiled.n_primitives
                   else np.empty(0))
        return compiled.assemble(answers)

    #: Number of compiled plans kept per mechanism instance.
    _PLAN_CACHE_ENTRIES = 8

    def _plan_for(self, queries: list) -> CompiledPlan:
        """The workload's compiled plan, memoized per fitted schema.

        Keyed by :func:`~repro.queries.plan_cache_key` — a stable
        content hash of the workload plus the fitted ``(d, c,
        population)`` schema, so refits and population changes (which
        alter count scaling) miss instead of serving a stale plan.
        """
        key = plan_cache_key(
            (self._n_attributes, self._domain_size, self._n_reports), queries)
        compiled = self._typed_plan_cache.get(key)
        if compiled is None:
            plan = self.query_planner().plan(
                queries, capabilities=self.query_capabilities)
            assert self._domain_size is not None
            compiled = CompiledPlan.from_plan(plan, self._domain_size,
                                              population=self._n_reports)
            self._typed_plan_cache.put(key, compiled)
        return compiled

    def plan_cache_stats(self) -> dict:
        """Hit/miss/eviction counters of the compiled-plan cache."""
        return self._typed_plan_cache.stats()

    def set_plan_cache_capacity(self, capacity: int) -> None:
        """Rebound the compiled-plan LRU (``--plan-cache-entries``).

        A no-op when the cache already has that capacity; otherwise the
        cache is replaced (entries and counters reset), so shrinking
        actually releases the evicted plans.
        """
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        if int(capacity) != self._typed_plan_cache.capacity:
            self._typed_plan_cache = PlanCache(int(capacity))

    def _answer_compiled(self, compiled: CompiledPlan) -> np.ndarray:
        """Answer a compiled plan's primitives as one flat vector.

        The default runs the plan's primitive list (materialised once at
        compile time) through :meth:`_answer_workload`;
        :class:`~repro.core.query_estimation.PairwiseBatchAnswering`
        overrides this with the fused grouped execution.
        """
        return self._answer_workload(compiled.flat_ranges)

    def _answer_workload(self, queries: list[RangeQuery]) -> np.ndarray:
        """Batch answering hook; defaults to the per-query loop."""
        return np.array([float(self._answer(query)) for query in queries])

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """Whether collection finished (``fit`` ran or ``finalize`` was called)."""
        return self._fitted

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(
                f"{type(self).__name__} must be fitted before answering queries")

    def _validate_query(self, query: RangeQuery) -> None:
        assert self._n_attributes is not None and self._domain_size is not None
        for predicate in query.predicates:
            if predicate.attribute >= self._n_attributes:
                raise ValueError(
                    f"query restricts attribute {predicate.attribute} but the "
                    f"fitted dataset only has {self._n_attributes} attributes")
            if predicate.high >= self._domain_size:
                raise ValueError(
                    f"query interval [{predicate.low}, {predicate.high}] exceeds "
                    f"the fitted domain size {self._domain_size}")
