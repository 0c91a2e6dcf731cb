"""Declarative experiment configuration.

An :class:`ExperimentConfig` captures everything one evaluation point in
the paper needs — dataset, population, domain, privacy budget, query
workload shape and the list of competing mechanisms — so that every figure
can be expressed as a sweep of one field of a base configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..queries import validate_query_kinds

#: Mechanism line-up of the main-body figures, in the paper's plot order.
DEFAULT_METHODS = ("Uni", "MSW", "CALM", "HIO", "LHIO", "TDG", "HDG")

#: Line-up used by figures where HIO is omitted for being off the chart.
METHODS_WITHOUT_HIO = ("Uni", "MSW", "CALM", "LHIO", "TDG", "HDG")


@dataclass(frozen=True)
class ExperimentConfig:
    """One evaluation point: dataset + workload + mechanisms.

    The default values mirror the paper's defaults (Section 5.1):
    ε = 1.0, ω = 0.5, d = 6, c = 64, n = 10^6, |Q| = 200 — except that the
    population and workload sizes default lower so the whole suite runs on
    a laptop; benchmarks scale them explicitly.
    """

    dataset: str = "normal"
    n_users: int = 100_000
    n_attributes: int = 6
    domain_size: int = 64
    epsilon: float = 1.0
    query_dimension: int = 2
    volume: float = 0.5
    n_queries: int = 200
    n_repeats: int = 1
    methods: tuple[str, ...] = DEFAULT_METHODS
    seed: int = 0
    dataset_kwargs: dict[str, Any] = field(default_factory=dict)
    mechanism_kwargs: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Number of user shards collected in parallel per mechanism (1 = the
    #: classic single-shot fit).  Mechanisms without sharding support fall
    #: back to fit() regardless.
    n_shards: int = 1
    #: Concurrency cap for the shard executor; None = one worker per shard.
    shard_workers: int | None = None
    #: Worker processes used by the experiment executor to evaluate the
    #: (sweep value, repetition, mechanism) cell grid.  1 (the default)
    #: runs every cell in-process; any value reproduces the sequential
    #: results bit-for-bit because each cell derives its randomness from
    #: the configuration seed alone.
    n_jobs: int = 1
    #: Query kinds the generated workload cycles through (round-robin).
    #: The default is the paper's pure range workload; any other tuple
    #: produces a mixed typed-IR workload (see
    #: :meth:`repro.queries.WorkloadGenerator.mixed_workload`) scored
    #: per kind by the runner.
    query_kinds: tuple[str, ...] = ("range",)
    #: ``k`` of any generated top-k queries.
    top_k: int = 5

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def validate(self) -> None:
        """Raise ValueError when the configuration is internally inconsistent."""
        if self.n_users < 1:
            raise ValueError("n_users must be positive")
        if self.n_attributes < 2:
            raise ValueError("n_attributes must be at least 2")
        if not (self.domain_size & (self.domain_size - 1)) == 0 or self.domain_size < 2:
            raise ValueError("domain_size must be a power of two >= 2")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 1 <= self.query_dimension <= self.n_attributes:
            raise ValueError("query_dimension must be in [1, n_attributes]")
        if not 0.0 < self.volume <= 1.0:
            raise ValueError("volume must be in (0, 1]")
        if self.n_queries < 1 or self.n_repeats < 1:
            raise ValueError("n_queries and n_repeats must be positive")
        if not self.methods:
            raise ValueError("at least one mechanism must be listed")
        if self.n_shards < 1:
            raise ValueError("n_shards must be positive")
        if self.shard_workers is not None and self.shard_workers < 1:
            raise ValueError("shard_workers must be positive when set")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be positive")
        validate_query_kinds(self.query_kinds)
        if self.top_k < 1:
            raise ValueError("top_k must be positive")

    @property
    def is_mixed_workload(self) -> bool:
        """Whether the workload mixes typed IR kinds beyond plain ranges."""
        return tuple(self.query_kinds) != ("range",)
