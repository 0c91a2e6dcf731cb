"""Per-user and per-view collection loops, kept as references.

The original implementations the vectorised collection paths replaced:
GRR and Square Wave perturbation one user at a time, the Square Wave
transition matrix one column at a time, and Phase-2 consistency one
grid view at a time.  ``tests/test_vectorized_paths.py`` pins the
production paths against them.
"""

from __future__ import annotations

import numpy as np


def grr_perturb_loop(oracle, values: np.ndarray) -> np.ndarray:
    """Per-user GRR reports from the same draws ``perturb`` consumes."""
    values = oracle._validate_values(values)
    n = values.size
    keep_draws = oracle.rng.random(n)
    offsets = oracle.rng.integers(1, oracle.domain_size, size=n)
    reports = np.empty(n, dtype=np.int64)
    for i in range(n):
        if keep_draws[i] < oracle.p:
            reports[i] = values[i]
        else:
            reports[i] = (values[i] + offsets[i]) % oracle.domain_size
    return reports


def sw_perturb_loop(oracle, values: np.ndarray) -> np.ndarray:
    """Per-user Square Wave reports from the same draws ``perturb`` consumes.

    Draws the same three uniform batches from the same stream, then
    evaluates the piecewise report position one user at a time with
    scalar arithmetic.
    """
    values = oracle._validate_values(values)
    positions = oracle._input_positions()[values]
    n = values.size
    delta = oracle.delta
    window_mass = 2.0 * delta * oracle.p
    window_draws = oracle.rng.random(n)
    within_offsets = oracle.rng.uniform(-delta, delta, size=n)
    outside_draws = oracle.rng.random(n)
    domain_lo, domain_hi = -delta, 1.0 + delta
    reports = np.empty(n)
    for i in range(n):
        position = positions[i]
        left_len = max(position - delta - domain_lo, 0.0)
        right_len = max(domain_hi - (position + delta), 0.0)
        u = outside_draws[i] * (left_len + right_len)
        if u < left_len:
            outside = domain_lo + u
        else:
            outside = position + delta + (u - left_len)
        if window_draws[i] < window_mass:
            reports[i] = position + within_offsets[i]
        else:
            reports[i] = outside
    return reports


def sw_transition_matrix_loop(oracle) -> np.ndarray:
    """Square Wave transition matrix built one input column at a time."""
    positions = oracle._input_positions()
    edges = oracle._output_edges()
    lows, highs = edges[:-1], edges[1:]
    matrix = np.empty((oracle.output_bins, oracle.domain_size))
    for col, v in enumerate(positions):
        win_lo, win_hi = v - oracle.delta, v + oracle.delta
        inside = np.clip(np.minimum(highs, win_hi) - np.maximum(lows, win_lo),
                         0.0, None)
        outside = (highs - lows) - inside
        matrix[:, col] = inside * oracle.p + outside * oracle.p_prime
    matrix /= matrix.sum(axis=0, keepdims=True)
    return matrix


def enforce_attribute_consistency_loop(views, n_buckets: int) -> np.ndarray:
    """Phase-2 consistency with one reduction and adjustment per view."""
    if not views:
        raise ValueError("need at least one grid view")
    totals = np.stack([view.bucket_totals(n_buckets) for view in views])
    weights = np.array([1.0 / view.cells_contributing() for view in views])
    weights = weights / weights.sum()
    consensus = weights @ totals
    for view, current in zip(views, totals):
        view.apply_adjustment(consensus - current)
    return consensus
