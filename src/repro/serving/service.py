"""Long-lived query service over the LDP mechanisms.

A :class:`QueryService` keeps a fitted estimator hot for answering
workloads while (optionally) ingesting new privatized reports through
the shard ``partial_fit`` path.  It runs in one of two modes:

* **streaming** — constructed from a shardable mechanism name or an
  un-fitted shardable instance.  ``ingest`` feeds batches into an open
  *collector*; a *re-finalize* (triggered automatically every
  ``refinalize_every`` reports, or on demand with ``refinalize``)
  clones the collector's accumulator state, runs the paper's Phase-2
  machinery on the clone and atomically swaps it in as the serving
  estimator.  Answers therefore stay fresh without ever refitting from
  scratch, and collection never pauses for finalization.
* **refit streaming** (``ingest_mode="refit"``) — constructed from
  *any* snapshotable mechanism name, shardable or not (LHIO, HIO,
  CALM, MSW, Uni included).  ``ingest`` buffers the raw batches; a
  re-finalize runs the full ``fit()`` on a fresh same-seeded instance
  over everything buffered so far and swaps it in.  Refitting from
  scratch is deterministic in (seed, rows), which is what lets the
  multi-tenant write-ahead-log recovery replay a crashed refit
  tenant bitwise (``tests/test_crash_recovery.py``).
* **static** — constructed from an already-fitted mechanism (any of
  the nine, shardable or not).  Queries and snapshots work; ``ingest``
  raises :class:`ServiceError`.

The whole service serializes to one JSON document
(:meth:`QueryService.state_dict`): the estimator's fitted state via
``save_state`` plus the collector's pending accumulators via
``shard_state``, so a restart restores both the answers *and* the
not-yet-finalized reports.  :class:`~repro.serving.SnapshotStore`
versions those documents on disk.

Concurrency: ingest, re-finalize and snapshot capture are serialized
by the service's locks, but the *read path is lock-free* — every
finalize/restore publishes an immutable :class:`~repro.serving.epoch.
EstimatorEpoch` with a single atomic reference assignment, and
``query``/``query_typed``/``query_wire``/``query_wire_batch`` load
that reference once and answer against it with no lock at all (see
:mod:`repro.serving.epoch` and docs/serving.md for the read-
consistency contract).  The answering hot path routes through the
mechanisms' compiled-plan cache (:mod:`repro.queries.compiler`) plus
a per-service answer cache keyed by ``(epoch_id, workload)``, so
repeated workloads skip planning — and on a cache hit, answering —
entirely; :meth:`QueryService.query_wire_batch` answers a whole batch
of workloads against one consistent epoch for the batched ``/query``
wire form.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core import RangeQueryMechanism
from ..core.base import check_state_document
from ..datasets import Dataset
from ..pipeline.aggregator import SHARDABLE_MECHANISMS
from ..queries import (MarginalQuery, PointQuery, Predicate,
                       PredicateCountQuery, Query, QueryResult, RangeQuery,
                       TopKQuery, query_kind)
from .epoch import (DEFAULT_ANSWER_CACHE_ENTRIES, AnswerCache,
                    EstimatorEpoch)
from .snapshot import (SNAPSHOT_MECHANISMS, SnapshotInfo, SnapshotStore,
                       restore_mechanism)

#: Format tag written into serialized service states.
SERVICE_SNAPSHOT_FORMAT = "repro.service-snapshot"
SERVICE_SNAPSHOT_VERSION = 1

#: The option of the removed multi-process ingest tier.  Configs and
#: snapshots that still set it are refused, never silently ignored.
RETIRED_INGEST_OPTION = "ingest_workers"


class ServiceError(RuntimeError):
    """An operation the service cannot perform in its current state."""


# ----------------------------------------------------------------------
# Wire format: typed queries and results as plain JSON values
# ----------------------------------------------------------------------
def wire_int(value) -> int:
    """An integer field of a wire payload.

    ``int()`` would truncate ``1.7`` to 1 and read ``true`` as 1; this
    accepts only integers and integral finite floats, and raises
    ``ValueError`` (a 400 on the HTTP wire) for anything else.
    """
    if type(value) is int:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def integer_rows(rows) -> np.ndarray:
    """A batch of report rows as an ``int64`` array.

    Rejects, with ``ValueError`` (a 400 on the HTTP wire), batches
    holding non-integral or non-finite numbers, booleans, strings or
    ragged rows — values ``int64`` conversion alone would truncate or
    coerce.  Integer rows take NumPy's type discovery straight to an
    integer array, with no further pass; only a float batch pays a
    check that every value is integral and in range.  A boolean mixed
    into otherwise integer rows is promoted to 0/1 by that discovery
    and is not caught: finding it would need a per-value pass costing
    as much as the JSON decode.
    """
    try:
        batch = np.asarray(rows)
    except ValueError as error:
        raise ValueError(f"report rows must be a rectangular batch: "
                         f"{error}") from None
    if batch.dtype.kind in "iu":
        return batch.astype(np.int64, copy=False)
    if (batch.dtype.kind == "f" and np.all(np.abs(batch) < 2.0 ** 63)
            and np.array_equal(np.trunc(batch), batch)):
        return batch.astype(np.int64)
    raise ValueError(f"report rows must hold integers; got a batch of "
                     f"{batch.dtype} values")


def predicate_from_wire(obj) -> Predicate:
    """One predicate from ``[attribute, low, high]`` or the dict form."""
    if isinstance(obj, dict):
        return Predicate(wire_int(obj["attribute"]), wire_int(obj["low"]),
                         wire_int(obj["high"]))
    attribute, low, high = obj
    return Predicate(wire_int(attribute), wire_int(low), wire_int(high))


def _predicates_from_wire(obj) -> tuple[Predicate, ...]:
    return tuple(predicate_from_wire(item) for item in obj["predicates"])


def _assignment_from_wire(obj) -> tuple[tuple[int, int], ...]:
    """A point query's cell from ``[[attr, value], ...]`` or a dict."""
    assignment = obj["assignment"]
    if isinstance(assignment, dict):
        # JSON object keys are always strings.
        return tuple((int(attribute), wire_int(value))
                     for attribute, value in assignment.items())
    return tuple((wire_int(attribute), wire_int(value))
                 for attribute, value in assignment)


def query_from_wire(obj) -> Query:
    """One typed query from its JSON wire form.

    The dict form carries an optional ``"type"`` discriminator —
    ``range`` (default, for backward compatibility), ``marginal``,
    ``point``, ``count`` or ``topk``:

    * ``{"type": "range", "predicates": [[a, lo, hi], ...]}``
    * ``{"type": "marginal", "attributes": [a, ...]}``
    * ``{"type": "point", "assignment": [[a, v], ...]}``
    * ``{"type": "count", "predicates": [...], "population"?: n}``
    * ``{"type": "topk", "attributes": [a, ...], "k": k}``

    A bare predicate list (the pre-IR wire form) still parses as a
    range query.
    """
    if not isinstance(obj, dict):
        return RangeQuery(tuple(predicate_from_wire(item) for item in obj))
    kind = obj.get("type", "range")
    if kind == "range":
        return RangeQuery(_predicates_from_wire(obj))
    if kind == "marginal":
        return MarginalQuery(tuple(wire_int(a) for a in obj["attributes"]))
    if kind == "point":
        return PointQuery(_assignment_from_wire(obj))
    if kind == "count":
        population = obj.get("population")
        return PredicateCountQuery(
            _predicates_from_wire(obj),
            population=(wire_int(population) if population is not None
                        else None))
    if kind == "topk":
        return TopKQuery(tuple(wire_int(a) for a in obj["attributes"]),
                         k=wire_int(obj.get("k", 1)))
    raise ValueError(f"unknown query type {kind!r}; known: "
                     "range, marginal, point, count, topk")


def queries_from_wire(objs) -> list[Query]:
    """A workload from a JSON list of wire-format queries."""
    return [query_from_wire(obj) for obj in objs]


def query_to_wire(query: Query) -> dict:
    """The wire form of a typed query (inverse of :func:`query_from_wire`)."""
    if isinstance(query, RangeQuery):
        return {"predicates": [[p.attribute, p.low, p.high]
                               for p in query.predicates]}
    if isinstance(query, MarginalQuery):
        return {"type": "marginal", "attributes": list(query.attributes)}
    if isinstance(query, PointQuery):
        return {"type": "point",
                "assignment": [[attribute, value]
                               for attribute, value in query.assignment]}
    if isinstance(query, PredicateCountQuery):
        document = {"type": "count",
                    "predicates": [[p.attribute, p.low, p.high]
                                   for p in query.predicates]}
        if query.population is not None:
            document["population"] = int(query.population)
        return document
    if isinstance(query, TopKQuery):
        return {"type": "topk", "attributes": list(query.attributes),
                "k": int(query.k)}
    raise TypeError(f"cannot serialize {type(query).__name__} "
                    f"({query_kind(query)})")


class QueryService:
    """Ingest-and-answer front-end over one mechanism.

    Parameters
    ----------
    mechanism:
        A shardable mechanism name (``"TDG"``, ``"HDG"``, ``"ITDG"``,
        ``"IHDG"``) or un-fitted shardable instance for streaming mode;
        or any *fitted* mechanism instance for static serving.
    epsilon:
        Per-user privacy budget (ignored when an instance is passed).
    seed:
        Seed for the collector's randomness (name-based construction).
    refinalize_every:
        Automatically re-finalize after this many ingested reports
        accumulate since the last finalize.  ``None`` (default) means
        re-finalization only happens on demand via :meth:`refinalize`.
    total_users:
        Expected total population, forwarded to ``partial_fit`` so the
        guideline granularities are pinned up front.  Defaults to the
        first batch's size (fine for one service; see docs/serving.md).
    domain_size:
        Default attribute domain size ``c`` assumed for raw-row ingest
        batches; per-call and :class:`~repro.datasets.Dataset` values
        override it.
    ingest_mode:
        ``"stream"`` (default) ingests through the shard
        ``partial_fit`` path and requires a shardable mechanism;
        ``"refit"`` buffers the raw batches and re-finalizes by
        fitting a fresh same-seeded instance from scratch, which works
        for every snapshotable mechanism.  Ignored when a fitted
        instance is passed (static serving).
    plan_cache_entries:
        Capacity of the estimator's compiled-plan LRU (``None`` keeps
        the mechanism default); applied to every published estimator.
    answer_cache_entries:
        Capacity of the per-service answer cache (``0`` disables it;
        ``None`` keeps the default of
        :data:`~repro.serving.epoch.DEFAULT_ANSWER_CACHE_ENTRIES`).
    mechanism_kwargs:
        Extra keyword arguments for name-based mechanism construction.
    """

    #: Legal ``ingest_mode`` values.
    INGEST_MODES = ("stream", "refit")

    def __init__(self, mechanism: str | RangeQueryMechanism = "HDG",
                 epsilon: float = 1.0, *, seed: int | None = None,
                 refinalize_every: int | None = None,
                 total_users: int | None = None,
                 domain_size: int | None = None,
                 ingest_mode: str = "stream",
                 plan_cache_entries: int | None = None,
                 answer_cache_entries: int | None = None,
                 **mechanism_kwargs):
        if refinalize_every is not None and refinalize_every < 1:
            raise ValueError("refinalize_every must be >= 1 when set")
        if ingest_mode not in self.INGEST_MODES:
            raise ValueError(f"unknown ingest_mode {ingest_mode!r}; "
                             f"known: {list(self.INGEST_MODES)}")
        if plan_cache_entries is not None and plan_cache_entries < 1:
            raise ValueError("plan_cache_entries must be >= 1 when set")
        if answer_cache_entries is not None and answer_cache_entries < 0:
            raise ValueError("answer_cache_entries must be >= 0 when set "
                             "(0 disables answer caching)")
        self._lock = threading.RLock()
        #: Serializes whole re-finalize operations (capture → Phase 2 →
        #: swap) without holding the state lock through the heavy part.
        self._refinalize_lock = threading.Lock()
        self._estimator: RangeQueryMechanism | None = None
        #: The published read view; queries load this reference once
        #: and answer against it lock-free.  Only :meth:`_publish`
        #: (always called under ``_lock``) replaces it.
        self._epoch: EstimatorEpoch | None = None
        self._epoch_counter = 0
        self.plan_cache_entries = (int(plan_cache_entries)
                                   if plan_cache_entries is not None else None)
        self.answer_cache_entries = (
            int(answer_cache_entries) if answer_cache_entries is not None
            else DEFAULT_ANSWER_CACHE_ENTRIES)
        self._answer_cache = AnswerCache(self.answer_cache_entries)
        self._collector: RangeQueryMechanism | None = None
        #: Refit-mode state: buffered raw batches + rebuild recipe.
        self._refit: dict | None = None
        self._pending_rows: list[np.ndarray] = []
        self._pending_schema: tuple[int, int] | None = None
        self.refinalize_every = refinalize_every
        self.total_users = total_users
        self.domain_size = domain_size
        self.reports_ingested = 0
        self.reports_since_finalize = 0
        self.finalize_count = 0

        if isinstance(mechanism, RangeQueryMechanism):
            if mechanism.is_fitted:
                self._publish(mechanism)
            else:
                if not mechanism.supports_sharding:
                    raise ValueError(
                        f"{type(mechanism).__name__} does not support "
                        "incremental ingest; pass a fitted instance for "
                        "static serving, or construct by name with "
                        "ingest_mode='refit'")
                self._collector = mechanism
        elif ingest_mode == "refit":
            try:
                factory = SNAPSHOT_MECHANISMS[mechanism]
            except KeyError:
                raise ValueError(
                    f"unknown mechanism {mechanism!r}; "
                    f"known: {sorted(SNAPSHOT_MECHANISMS)}") from None
            self._refit = {"name": mechanism, "factory": factory,
                           "epsilon": float(epsilon), "seed": seed,
                           "kwargs": dict(mechanism_kwargs)}
        else:
            try:
                factory = SHARDABLE_MECHANISMS[mechanism]
            except KeyError:
                raise ValueError(
                    f"unknown or non-shardable mechanism {mechanism!r}; "
                    f"known: {sorted(SHARDABLE_MECHANISMS)} "
                    "(any snapshotable mechanism works with "
                    "ingest_mode='refit')") from None
            self._collector = factory(epsilon, seed=seed, **mechanism_kwargs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mechanism_name(self) -> str:
        """Paper name of the served mechanism (e.g. ``"HDG"``)."""
        if self._refit is not None:
            return self._refit["name"]
        return (self._collector or self._estimator).name

    @property
    def epsilon(self) -> float:
        """Per-user privacy budget of the served mechanism."""
        if self._refit is not None:
            return self._refit["epsilon"]
        return (self._collector or self._estimator).epsilon

    @property
    def ingest_mode(self) -> str | None:
        """``"stream"``, ``"refit"``, or None for static services."""
        if self._refit is not None:
            return "refit"
        return "stream" if self._collector is not None else None

    @property
    def is_streaming(self) -> bool:
        """Whether the service accepts ``ingest``."""
        return self._collector is not None or self._refit is not None

    @property
    def is_ready(self) -> bool:
        """Whether a finalized estimator is available for queries."""
        return self._epoch is not None

    @property
    def epoch_id(self) -> int:
        """Id of the published epoch (0 until the first finalize/restore)."""
        epoch = self._epoch
        return epoch.epoch_id if epoch is not None else 0

    def read_epoch(self) -> EstimatorEpoch:
        """The current published read view (lock-free snapshot).

        Callers answering several workloads against the *same* epoch
        hold the returned object and use its answering methods; the
        service may publish newer epochs meanwhile without affecting
        it.  Raises :class:`ServiceError` before the first finalize.
        """
        epoch = self._epoch
        if epoch is None:
            raise ServiceError(
                "service is not ready: ingest reports and re-finalize "
                "(or restore a snapshot) before querying")
        return epoch

    def _publish(self, estimator: RangeQueryMechanism, *,
                 epoch_id: int | None = None) -> None:
        """Build and publish a fresh epoch around ``estimator``.

        The epoch (id, estimator, cache references) is constructed
        completely before the single ``self._epoch`` assignment — the
        linearization point readers observe.  Callers hold ``_lock``
        (or are single-threaded constructors/restores), so epoch ids
        are assigned in publication order.
        """
        if self.plan_cache_entries is not None:
            estimator.set_plan_cache_capacity(self.plan_cache_entries)
        if epoch_id is None:
            epoch_id = self._epoch_counter + 1
        self._epoch_counter = int(epoch_id)
        epoch = EstimatorEpoch(self._epoch_counter, estimator,
                               answer_cache=self._answer_cache)
        self._estimator = estimator
        self._epoch = epoch

    def answer_cache_stats(self) -> dict:
        """Hit/miss/eviction counters of the answer cache."""
        return self._answer_cache.stats()

    def clear_answer_cache(self) -> None:
        """Drop cached answers (benchmarks measure the uncached path)."""
        self._answer_cache.clear()

    def status(self) -> dict:
        """Service health document (what ``GET /healthz`` returns)."""
        with self._lock:
            reference = self._collector or self._estimator
            if reference is not None:
                n_attributes = reference._n_attributes
                domain_size = reference._domain_size
            elif self._pending_schema is not None:
                n_attributes, domain_size = self._pending_schema
            else:
                n_attributes, domain_size = None, self.domain_size
            return {
                "mechanism": self.mechanism_name,
                "epsilon": self.epsilon,
                "mode": "streaming" if self.is_streaming else "static",
                "ingest_mode": self.ingest_mode,
                "ready": self.is_ready,
                "reports_ingested": self.reports_ingested,
                "reports_since_finalize": self.reports_since_finalize,
                "finalize_count": self.finalize_count,
                "refinalize_every": self.refinalize_every,
                "n_attributes": n_attributes,
                "domain_size": domain_size,
                "epoch": self.epoch_id,
                "plan_cache": (self._estimator.plan_cache_stats()
                               if self._estimator is not None else None),
                "answer_cache": self._answer_cache.stats(),
            }

    # ------------------------------------------------------------------
    # Ingest + re-finalize
    # ------------------------------------------------------------------
    def ingest(self, rows, domain_size: int | None = None) -> dict:
        """Feed one batch of user reports into the open collector.

        ``rows`` is a :class:`~repro.datasets.Dataset` or a raw
        ``(n, d)`` integer array/list (then the domain size comes from
        the call, the service default, or earlier batches).  Returns an
        ingest receipt including whether the batch tripped the
        automatic re-finalize policy.
        """
        with self._lock:
            if not self.is_streaming:
                raise ServiceError(
                    "service is static (built from a fitted mechanism); "
                    "ingest needs streaming mode")
            batch = self._as_dataset(rows, domain_size)
            if self._refit is not None:
                schema = (batch.n_attributes, batch.domain_size)
                if self._pending_schema is None:
                    self._pending_schema = schema
                elif schema != self._pending_schema:
                    raise ServiceError(
                        f"batch shape (d={schema[0]}, c={schema[1]}) does "
                        f"not match earlier batches (d="
                        f"{self._pending_schema[0]}, "
                        f"c={self._pending_schema[1]})")
                self._pending_rows.append(np.asarray(batch.values,
                                                     dtype=np.int64))
            else:
                self._collector.partial_fit(batch,
                                            total_users=self.total_users)
            self.reports_ingested += batch.n_users
            self.reports_since_finalize += batch.n_users
            refinalized = (self.refinalize_every is not None
                           and self.reports_since_finalize
                           >= self.refinalize_every)
        if refinalized:
            self._refinalize()
        with self._lock:
            return {
                "ingested": batch.n_users,
                "total_reports": self.reports_ingested,
                "reports_since_finalize": self.reports_since_finalize,
                "refinalized": refinalized,
                "ready": self.is_ready,
            }

    def _as_dataset(self, rows, domain_size: int | None) -> Dataset:
        if isinstance(rows, Dataset):
            return rows
        domain_size = domain_size or self.domain_size
        if domain_size is None:
            if self._collector is not None:
                domain_size = self._collector._domain_size
            elif self._pending_schema is not None:
                domain_size = self._pending_schema[1]
            if domain_size is None:
                raise ServiceError(
                    "domain_size is required for the first raw-row batch "
                    "(pass it per call or at service construction)")
        return Dataset(integer_rows(rows), wire_int(domain_size))

    def refinalize(self) -> dict:
        """Run Phase 2 on the collector's current state; swap the estimator.

        The collector itself stays open — its accumulator state is
        cloned through ``shard_state``/``load_shard_state``, the clone
        is finalized, and the serving estimator is replaced atomically.
        """
        with self._lock:
            if not self.is_streaming:
                raise ServiceError("service is static; nothing to re-finalize")
            if self.reports_ingested == 0:
                raise ServiceError("no reports ingested yet")
        self._refinalize()
        return self.status()

    def _refinalize(self) -> None:
        """Capture → finalize a clone → swap.

        Only the accumulator capture and the estimator swap hold the
        state lock; the Phase-2 pass (or, in refit mode, the full
        ``fit``) itself runs without it, so concurrent queries keep
        answering from the previous estimator instead of stalling.
        Whole re-finalizes are serialized by their own lock so swaps
        land in capture order.
        """
        with self._refinalize_lock:
            if self._refit is not None:
                self._refinalize_refit()
                return
            with self._lock:
                collector = self._collector
                factory = type(collector)
                epsilon = collector.epsilon
                config = collector._snapshot_config()
                state = collector.shard_state()
                self.reports_since_finalize = 0
            clone = factory(epsilon, **config)
            clone.load_shard_state(state)
            clone.finalize()
            with self._lock:
                self._publish(clone)
                self.finalize_count += 1

    def _refinalize_refit(self) -> None:
        """Refit mode: full ``fit()`` on a fresh same-seeded instance.

        Deterministic in (seed, buffered rows): refitting after a
        restart-plus-replay lands on a bitwise-identical estimator —
        including its post-fit RNG stream, so even noise-drawing
        answering paths (HIO/LHIO) match an uninterrupted run.
        """
        with self._lock:
            rows = np.concatenate(self._pending_rows, axis=0)
            domain_size = self._pending_schema[1]
            recipe = self._refit
            self.reports_since_finalize = 0
        clone = recipe["factory"](recipe["epsilon"], seed=recipe["seed"],
                                  **recipe["kwargs"])
        clone.fit(Dataset(rows, domain_size))
        with self._lock:
            self._publish(clone)
            self.finalize_count += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, queries: list) -> np.ndarray | list[QueryResult]:
        """Answer a (possibly mixed-kind) workload with the current epoch.

        Pure range workloads return the flat float vector; workloads
        containing other IR kinds return typed results (see
        :meth:`repro.core.RangeQueryMechanism.answer_workload`).
        Lock-free: the published epoch reference is loaded once and the
        whole workload answers against that one finalized estimator.
        """
        return self.read_epoch().answer_workload(queries)

    def query_typed(self, queries: list) -> list[QueryResult]:
        """Answer any workload as typed results, range-only ones included."""
        return self.read_epoch().answer_typed(queries)

    def query_wire(self, objs) -> dict:
        """Answer a JSON-wire workload (what ``POST /query`` serves).

        The response document always carries ``results`` (one typed
        document per query, see :meth:`repro.queries.QueryResult.to_wire`)
        and ``count``; when every result is scalar (range, point, count)
        it additionally carries the flat ``answers`` float list the
        pre-IR API served.
        """
        return self.read_epoch().wire_document(queries_from_wire(objs))

    def query_wire_batch(self, workloads) -> dict:
        """Answer a batch of JSON-wire workloads in one call.

        ``workloads`` is a list of wire workloads (each a list of wire
        queries, exactly what :meth:`query_wire` accepts).  Every
        workload is parsed *before* any answering happens — a malformed
        entry fails the whole batch without partial effects — and all
        workloads are then answered against a single epoch reference
        loaded once, so a batch observes one consistent finalized
        estimator even while re-finalize swaps are landing (and no
        lock is held while it answers).  Returns ``{"count":
        total_queries, "workloads": [per-workload documents]}`` where
        each per-workload document has the :meth:`query_wire` shape.
        """
        if not isinstance(workloads, (list, tuple)):
            raise ValueError("workloads must be a JSON list of query lists")
        parsed = [queries_from_wire(objs) for objs in workloads]
        epoch = self.read_epoch()
        documents = [epoch.wire_document(queries) for queries in parsed]
        return {"count": sum(document["count"] for document in documents),
                "workloads": documents}

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """One JSON document holding estimator + pending collector state."""
        with self._lock:
            collector_state = None
            collector_config = None
            collector_rng = None
            if self._collector is not None:
                collector_config = self._collector._snapshot_config()
                # The RNG state makes a restored service's *future*
                # ingest draws continue the exact same stream.
                collector_rng = self._collector.rng.bit_generator.state
                if self.reports_ingested > 0:
                    collector_state = self._collector.shard_state()
            document = {
                "format": SERVICE_SNAPSHOT_FORMAT,
                "version": SERVICE_SNAPSHOT_VERSION,
                "mechanism": self.mechanism_name,
                "epsilon": self.epsilon,
                "ingest_mode": self.ingest_mode,
                "refinalize_every": self.refinalize_every,
                "total_users": self.total_users,
                "domain_size": self.domain_size,
                "reports_ingested": self.reports_ingested,
                "reports_since_finalize": self.reports_since_finalize,
                "finalize_count": self.finalize_count,
                "epoch_id": self.epoch_id,
                "plan_cache_entries": self.plan_cache_entries,
                "answer_cache_entries": self.answer_cache_entries,
                "collector_config": collector_config,
                "collector_rng": collector_rng,
                "collector": collector_state,
                "estimator": (self._estimator.save_state()
                              if self._estimator is not None else None),
            }
            if self._refit is not None:
                document["refit"] = {
                    "seed": self._refit["seed"],
                    "kwargs": self._refit["kwargs"],
                    "pending_rows": [batch.tolist()
                                     for batch in self._pending_rows],
                    "pending_schema": (list(self._pending_schema)
                                       if self._pending_schema is not None
                                       else None),
                }
            return document

    @classmethod
    def from_state_dict(cls, state: dict,
                        seed: int | None = None) -> "QueryService":
        """Rebuild a service from :meth:`state_dict` output."""
        check_state_document(state, SERVICE_SNAPSHOT_FORMAT,
                             SERVICE_SNAPSHOT_VERSION)
        if state.get("distributed") is not None:
            raise ValueError(
                f"snapshot was written with the retired option "
                f"{RETIRED_INGEST_OPTION!r} (the multi-process ingest "
                "tier); it cannot be restored")
        estimator = (restore_mechanism(state["estimator"])
                     if state.get("estimator") is not None else None)
        # Absent in pre-epoch snapshots (both then fall back to their
        # defaults, exactly what those services ran with).
        cache_config = {
            "plan_cache_entries": state.get("plan_cache_entries"),
            "answer_cache_entries": state.get("answer_cache_entries"),
        }
        if state.get("refit") is not None:
            refit = state["refit"]
            service = cls(state["mechanism"], float(state["epsilon"]),
                          seed=refit.get("seed"), ingest_mode="refit",
                          refinalize_every=state.get("refinalize_every"),
                          total_users=state.get("total_users"),
                          domain_size=state.get("domain_size"),
                          **cache_config,
                          **dict(refit.get("kwargs") or {}))
            service._pending_rows = [np.asarray(batch, dtype=np.int64)
                                     for batch in refit["pending_rows"]]
            schema = refit.get("pending_schema")
            service._pending_schema = tuple(schema) if schema else None
        elif state.get("collector_config") is not None:
            factory = SHARDABLE_MECHANISMS[state["mechanism"]]
            collector = factory(float(state["epsilon"]), seed=seed,
                                **state["collector_config"])
            if state.get("collector") is not None:
                collector.load_shard_state(state["collector"])
            if state.get("collector_rng") is not None:
                collector.rng.bit_generator.state = state["collector_rng"]
            service = cls(collector,
                          refinalize_every=state.get("refinalize_every"),
                          total_users=state.get("total_users"),
                          domain_size=state.get("domain_size"),
                          **cache_config)
        else:
            if estimator is None:
                raise ValueError("snapshot holds neither an estimator nor "
                                 "a collector")
            service = cls(estimator,
                          domain_size=state.get("domain_size"),
                          **cache_config)
        service.reports_ingested = int(state.get("reports_ingested", 0))
        service.reports_since_finalize = int(
            state.get("reports_since_finalize", 0))
        service.finalize_count = int(state.get("finalize_count", 0))
        # Publish the restored estimator as the epoch the snapshot
        # recorded (pre-epoch snapshots fall back to the next local id).
        stored_epoch = state.get("epoch_id")
        if estimator is not None:
            service._publish(estimator,
                             epoch_id=(int(stored_epoch)
                                       if stored_epoch else None))
        elif stored_epoch:
            service._epoch_counter = int(stored_epoch)
        return service

    def save_snapshot(self,
                      store: SnapshotStore | str) -> SnapshotInfo:
        """Write the current :meth:`state_dict` as the store's next version."""
        if not isinstance(store, SnapshotStore):
            store = SnapshotStore(store)
        return store.save(self.state_dict())

    @classmethod
    def from_snapshot(cls, store: SnapshotStore | str,
                      version: int | None = None,
                      seed: int | None = None) -> "QueryService":
        """Restore a service from a stored snapshot (latest by default)."""
        if not isinstance(store, SnapshotStore):
            store = SnapshotStore(store)
        return cls.from_state_dict(store.load(version), seed=seed)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the service's resources: a no-op.

        The service holds no processes, files or sockets, so there is
        nothing to release; it keeps answering and ingesting after a
        call.  The method stays so callers may treat every service as
        closable.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "streaming" if self.is_streaming else "static"
        return (f"QueryService({self.mechanism_name}, "
                f"epsilon={self.epsilon}, {mode}, "
                f"reports={self.reports_ingested}, "
                f"{'ready' if self.is_ready else 'not ready'})")
