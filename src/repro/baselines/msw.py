"""MSW: Multiplied Square Wave baseline (Section 3.5).

MSW divides users into ``d`` groups, one per attribute; each group
estimates its attribute's 1-D distribution with the Square Wave mechanism
(EM reconstruction).  A λ-D range query is then answered by the product of
the per-attribute 1-D range answers, implicitly assuming the attributes
are independent.  MSW therefore handles large domains and avoids the curse
of dimensionality but completely loses attribute correlations — which is
exactly the failure mode the paper's experiments expose on correlated
datasets.
"""

from __future__ import annotations

import numpy as np

from ..core.base import RangeQueryMechanism
from ..datasets import Dataset
from ..frequency_oracles import SquareWave
from ..protocol import partition_users
from ..queries import RangeQuery


class MSW(RangeQueryMechanism):
    """Multiplied Square Wave baseline.

    Parameters
    ----------
    epsilon:
        Per-user privacy budget (spent entirely on one SW report).
    em_iterations:
        Iteration cap of the EM reconstruction inside SW.
    smoothing:
        Whether SW applies the smoothing (EMS) variant.
    seed:
        Randomness seed.
    """

    name = "MSW"

    def __init__(self, epsilon: float, em_iterations: int = 200,
                 smoothing: bool = False, seed: int | None = None):
        super().__init__(epsilon, seed)
        self.em_iterations = int(em_iterations)
        self.smoothing = bool(smoothing)
        self.distributions: dict[int, np.ndarray] = {}
        self._prefixes: dict[int, np.ndarray] = {}

    def _fit(self, dataset: Dataset) -> None:
        d = dataset.n_attributes
        groups = partition_users(dataset.n_users, d, self.rng)
        self.distributions = {}
        for attribute, group in zip(range(d), groups):
            if group.size == 0:
                self.distributions[attribute] = np.full(
                    dataset.domain_size, 1.0 / dataset.domain_size)
                continue
            oracle = SquareWave(self.epsilon, dataset.domain_size, rng=self.rng,
                                em_iterations=self.em_iterations,
                                smoothing=self.smoothing)
            estimate = oracle.estimate_frequencies(dataset.column(attribute)[group])
            self.distributions[attribute] = estimate
        # Prefix sums turn each per-attribute interval mass into one
        # subtraction, for both single answers and batched workloads.
        self._prefixes = {
            attribute: np.concatenate(([0.0], np.cumsum(distribution)))
            for attribute, distribution in self.distributions.items()}

    # ------------------------------------------------------------------
    # Fitted-state serialization (snapshots; see docs/serving.md)
    # ------------------------------------------------------------------
    def _snapshot_config(self) -> dict:
        return {"em_iterations": self.em_iterations,
                "smoothing": self.smoothing}

    def _state_payload(self) -> dict:
        return {"distributions": {str(attribute): distribution.tolist()
                                  for attribute, distribution
                                  in self.distributions.items()}}

    def _restore_state_payload(self, payload: dict) -> None:
        self.distributions = {
            int(attribute): np.asarray(distribution, dtype=float)
            for attribute, distribution in payload["distributions"].items()}
        self._prefixes = {
            attribute: np.concatenate(([0.0], np.cumsum(distribution)))
            for attribute, distribution in self.distributions.items()}

    def _interval_mass(self, attribute: int, low: int, high: int) -> float:
        prefix = self._prefixes[attribute]
        return float(prefix[high + 1] - prefix[low])

    def _answer(self, query: RangeQuery) -> float:
        answer = 1.0
        for predicate in query.predicates:
            answer *= self._interval_mass(predicate.attribute, predicate.low,
                                          predicate.high)
        return answer

    def _answer_workload(self, queries: list[RangeQuery]) -> np.ndarray:
        """Product of per-predicate prefix differences, one vectorised pass."""
        masses = np.array([self._interval_mass(predicate.attribute,
                                               predicate.low, predicate.high)
                           for query in queries
                           for predicate in query.predicates])
        counts = np.array([query.dimension for query in queries])
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        return np.multiply.reduceat(masses, offsets)
