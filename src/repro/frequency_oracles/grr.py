"""Generalized Randomized Response (GRR) frequency oracle.

GRR (Section 2.2 of the paper, Equation (1)) reports the true value with
probability ``p = e^eps / (e^eps + c - 1)`` and a uniformly random *other*
value otherwise.  Its estimation variance grows linearly in the domain size
``c`` (Equation (2)), so it is preferable to OLH only for small domains
(``c - 2 < 3 e^eps``).
"""

from __future__ import annotations

import numpy as np

from .base import FrequencyOracle, SupportAccumulator, grr_variance


class GeneralizedRandomizedResponse(FrequencyOracle):
    """ε-LDP frequency oracle based on generalized randomized response."""

    def __init__(self, epsilon: float, domain_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__(epsilon, domain_size, rng)
        e_eps = self.e_eps
        self.p = e_eps / (e_eps + domain_size - 1)
        self.q = 1.0 / (e_eps + domain_size - 1)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def perturb(self, values: np.ndarray) -> np.ndarray:
        """Perturb each true value independently (one report per user).

        One vectorised pass over the whole user batch; the per-user
        reference loop in ``tests/oracles/`` consumes the identical draws.
        """
        values = self._validate_values(values)
        n = values.size
        keep = self.rng.random(n) < self.p
        # Draw a replacement from the c-1 values different from the truth by
        # sampling an offset in [1, c) and adding it modulo c.
        offsets = self.rng.integers(1, self.domain_size, size=n)
        randomized = (values + offsets) % self.domain_size
        return np.where(keep, values, randomized)

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def aggregate(self, reports: np.ndarray) -> np.ndarray:
        """Turn raw perturbed reports into unbiased frequency estimates."""
        return self.estimate_from_accumulator(self.count_supports(reports))

    def count_supports(self, reports: np.ndarray) -> SupportAccumulator:
        """Count perturbed reports per candidate value."""
        reports = np.asarray(reports, dtype=np.int64)
        counts = np.bincount(reports, minlength=self.domain_size).astype(float)
        return SupportAccumulator(counts, reports.size)

    def accumulate(self, values: np.ndarray) -> SupportAccumulator:
        return self.count_supports(self.perturb(values))

    def estimate_from_accumulator(self,
                                  accumulator: SupportAccumulator) -> np.ndarray:
        if accumulator.supports.shape != (self.domain_size,):
            raise ValueError(
                f"accumulator covers {accumulator.supports.shape[0]} candidates, "
                f"expected {self.domain_size}")
        if accumulator.n_reports < 1:
            raise ValueError("cannot estimate frequencies from zero reports")
        n = accumulator.n_reports
        return (accumulator.supports / n - self.q) / (self.p - self.q)

    def estimate_frequencies(self, values: np.ndarray) -> np.ndarray:
        return self.estimate_from_accumulator(self.accumulate(values))

    def variance(self, n: int, true_frequency: float = 0.0) -> float:
        return grr_variance(self.epsilon, self.domain_size, n)
