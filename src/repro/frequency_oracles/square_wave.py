"""Square Wave (SW) mechanism for ordinal/numerical distribution estimation.

SW (Li et al., SIGMOD 2020; Section 3.5 of the paper) exploits the ordinal
nature of the domain: a value is reported as a point close to the truth
with high probability ``p`` (within distance ``delta``) and as any other
point in the padded output domain ``[-delta, 1 + delta]`` with low
probability ``p'``.  The aggregator reconstructs the input distribution
with Expectation Maximization, optionally followed by a smoothing step.

This module provides the discretised version used by the MSW baseline: the
input domain ``[c]`` is normalised to ``[0, 1]``, the padded output domain
is discretised into ``output_bins`` buckets, and EM runs on the resulting
``output_bins x c`` transition matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .base import FrequencyOracle, SupportAccumulator


def squarewave_parameters(epsilon: float) -> tuple[float, float, float]:
    """Return ``(delta, p, p_prime)`` for the SW mechanism.

    ``delta`` is the closeness threshold from the paper:
    ``delta = (eps * e^eps - e^eps + 1) / (2 e^eps (e^eps - 1 - eps))``.
    ``p`` applies inside the window ``|v - y| <= delta`` and ``p'`` outside.
    """
    e_eps = math.exp(epsilon)
    delta = (epsilon * e_eps - e_eps + 1.0) / (2.0 * e_eps * (e_eps - 1.0 - epsilon))
    p = e_eps / (2.0 * delta * e_eps + 1.0)
    p_prime = 1.0 / (2.0 * delta * e_eps + 1.0)
    return delta, p, p_prime


class SquareWave(FrequencyOracle):
    """Discretised Square Wave mechanism with EM reconstruction.

    Parameters
    ----------
    epsilon:
        Per-report privacy budget.
    domain_size:
        Ordinal domain size ``c``; true values are integers in ``[0, c)``
        and are mapped to bin centres in ``[0, 1]``.
    output_bins:
        Number of buckets used to discretise the padded report domain.
        Defaults to ``domain_size`` (plus padding), which matches the
        reference implementation's granularity.
    em_iterations:
        Maximum number of EM iterations.
    em_tolerance:
        EM stops once the L1 change of the estimate drops below this.
    smoothing:
        If True, apply a binomial smoothing between EM iterations (the
        "EMS" variant).  Smoothing trades sharpness for stability on very
        small populations; the default (False) is plain EM, which is what
        the range-query experiments want.
    """

    def __init__(self, epsilon: float, domain_size: int,
                 rng: np.random.Generator | None = None,
                 output_bins: int | None = None,
                 em_iterations: int = 200, em_tolerance: float = 1e-6,
                 smoothing: bool = False):
        super().__init__(epsilon, domain_size, rng)
        self.delta, self.p, self.p_prime = squarewave_parameters(epsilon)
        self.output_bins = int(output_bins) if output_bins else int(domain_size)
        self.em_iterations = int(em_iterations)
        self.em_tolerance = float(em_tolerance)
        self.smoothing = bool(smoothing)
        self._transition = self._build_transition_matrix()

    # ------------------------------------------------------------------
    # Mechanism definition
    # ------------------------------------------------------------------
    def _input_positions(self) -> np.ndarray:
        """Map each discrete value to the centre of its bin in [0, 1]."""
        return (np.arange(self.domain_size) + 0.5) / self.domain_size

    def _output_edges(self) -> np.ndarray:
        """Bucket edges of the padded output domain [-delta, 1 + delta]."""
        return np.linspace(-self.delta, 1.0 + self.delta, self.output_bins + 1)

    def _build_transition_matrix(self) -> np.ndarray:
        """Matrix ``T[j, v] = Pr[report lands in output bucket j | value v]``.

        Probability mass is ``p`` per unit length within ``delta`` of the
        true position and ``p'`` per unit length elsewhere; integrating the
        density over each output bucket yields the discrete transition
        probabilities.  All ``output_bins x c`` bucket/window overlaps are
        computed in one broadcast, element-for-element identical to the
        per-column reference loop in ``tests/oracles/``.
        """
        positions = self._input_positions()[None, :]
        edges = self._output_edges()
        lows, highs = edges[:-1, None], edges[1:, None]
        # Length of each bucket that falls inside each value's
        # high-probability window, and the remaining length outside it.
        inside = np.clip(np.minimum(highs, positions + self.delta)
                         - np.maximum(lows, positions - self.delta), 0.0, None)
        outside = (highs - lows) - inside
        matrix = inside * self.p + outside * self.p_prime
        # Normalise columns: tiny numerical drift aside, each column already
        # integrates to 1 because p and p' were chosen that way.
        matrix /= matrix.sum(axis=0, keepdims=True)
        return matrix

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def perturb(self, values: np.ndarray) -> np.ndarray:
        """Report a perturbed position in ``[-delta, 1 + delta]`` per user."""
        values = self._validate_values(values)
        positions = self._input_positions()[values]
        n = values.size
        window_mass = 2.0 * self.delta * self.p
        in_window = self.rng.random(n) < window_mass
        # Inside the window: uniform within [v - delta, v + delta].
        within = positions + self.rng.uniform(-self.delta, self.delta, size=n)
        # Outside: uniform over the complement of the window in the padded
        # domain, realised by rejection-free stitching of the two segments.
        domain_lo, domain_hi = -self.delta, 1.0 + self.delta
        left_len = np.clip(positions - self.delta - domain_lo, 0.0, None)
        right_len = np.clip(domain_hi - (positions + self.delta), 0.0, None)
        u = self.rng.random(n) * (left_len + right_len)
        outside = np.where(u < left_len,
                           domain_lo + u,
                           positions + self.delta + (u - left_len))
        return np.where(in_window, within, outside)

    def _bucketise(self, reports: np.ndarray) -> np.ndarray:
        edges = self._output_edges()
        idx = np.searchsorted(edges, reports, side="right") - 1
        return np.clip(idx, 0, self.output_bins - 1)

    # ------------------------------------------------------------------
    # Server side: Expectation Maximization
    # ------------------------------------------------------------------
    def reconstruct(self, report_counts: np.ndarray) -> np.ndarray:
        """Run EM on bucketised report counts to estimate the distribution."""
        counts = np.asarray(report_counts, dtype=float)
        if counts.shape != (self.output_bins,):
            raise ValueError(
                f"expected {self.output_bins} report-bucket counts, got shape "
                f"{counts.shape}"
            )
        total = counts.sum()
        if total <= 0:
            raise ValueError("cannot reconstruct a distribution from zero reports")
        observed = counts / total
        estimate = np.full(self.domain_size, 1.0 / self.domain_size)
        transition = self._transition
        for _ in range(self.em_iterations):
            # E-step: probability of each output bucket under the estimate.
            predicted = transition @ estimate
            predicted = np.clip(predicted, 1e-12, None)
            # M-step: reweight the estimate by the responsibility of each
            # input value for the observed buckets.
            responsibility = transition * estimate[None, :] / predicted[:, None]
            new_estimate = responsibility.T @ observed
            new_estimate = np.clip(new_estimate, 0.0, None)
            s = new_estimate.sum()
            if s > 0:
                new_estimate /= s
            if self.smoothing and self.domain_size >= 3:
                smoothed = new_estimate.copy()
                smoothed[1:-1] = (new_estimate[:-2]
                                  + 2.0 * new_estimate[1:-1]
                                  + new_estimate[2:]) / 4.0
                smoothed[0] = (2.0 * new_estimate[0] + new_estimate[1]) / 3.0
                smoothed[-1] = (2.0 * new_estimate[-1] + new_estimate[-2]) / 3.0
                new_estimate = smoothed / smoothed.sum()
            change = np.abs(new_estimate - estimate).sum()
            estimate = new_estimate
            if change < self.em_tolerance:
                break
        return estimate

    # ------------------------------------------------------------------
    # FrequencyOracle API
    # ------------------------------------------------------------------
    def accumulate(self, values: np.ndarray) -> SupportAccumulator:
        """Bucketised report counts — additive across batches; EM runs once
        on the merged counts at estimation time."""
        reports = self.perturb(values)
        buckets = self._bucketise(reports)
        counts = np.bincount(buckets, minlength=self.output_bins).astype(float)
        return SupportAccumulator(counts, values.size)

    def estimate_from_accumulator(self,
                                  accumulator: SupportAccumulator) -> np.ndarray:
        return self.reconstruct(accumulator.supports)

    def estimate_frequencies(self, values: np.ndarray) -> np.ndarray:
        return self.estimate_from_accumulator(self.accumulate(values))

    def variance(self, n: int, true_frequency: float = 0.0) -> float:
        """Approximate per-value variance; SW has no closed form, so we use
        the randomized-response-style bound over the effective window."""
        e_eps = self.e_eps
        return 4.0 * e_eps / ((e_eps - 1.0) ** 2 * n)
