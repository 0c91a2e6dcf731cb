"""The NumPy Weighted Update batch kernel, kept as the bitwise reference.

This is the row-major implementation :func:`repro.estimation.
weighted_update_batch` used before its cell-major and one-row kernels
replaced it, moved here verbatim.  ``tests/test_weighted_update_kernels.py``
asserts the production kernels reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np


def weighted_update_batch(size: int, index_sets: list[np.ndarray],
                          targets: np.ndarray, threshold: float = 1e-7,
                          max_iterations: int = 100) -> np.ndarray:
    """Run many independent weighted-update problems in one NumPy iteration.

    All problems share the same constraint *structure* (the index sets)
    but have their own targets — exactly the situation when a workload
    contains many λ-D queries of the same dimension: the orthant index
    sets depend only on λ while the 2-D sub-answers differ per query.

    Parameters
    ----------
    size:
        Length of each estimate vector (``2^λ`` for Algorithm 2).
    index_sets:
        One index array per constraint, in sweep order.
    targets:
        Array of shape ``(n_problems, n_constraints)``; row ``b`` holds
        problem ``b``'s constraint targets.
    threshold, max_iterations:
        Same convergence controls as :func:`weighted_update`.  Each row
        converges independently — once a row's per-sweep change drops
        below the threshold it stops updating, so every row follows the
        exact same trajectory the sequential engine would produce.

    Returns
    -------
    numpy.ndarray
        Estimates of shape ``(n_problems, size)``.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2:
        raise ValueError("targets must have shape (n_problems, n_constraints)")
    if targets.shape[1] != len(index_sets):
        raise ValueError(
            f"got {targets.shape[1]} targets per problem for "
            f"{len(index_sets)} constraints")
    n_problems = targets.shape[0]
    if n_problems == 1:
        # Single-problem workloads (one λ-D query) dominate the serving
        # tier's single-query path; the 2-D machinery below spends most
        # of its time on tiny-array overhead (`ones_like`, masked
        # divides, active-row bookkeeping).  The 1-D sweep runs the
        # same multiplications in the same order, and a (1, k) gather
        # is contiguous so its axis-1 sum is the same pairwise
        # reduction as the 1-D `.sum()` — this branch is bitwise
        # identical to what the generic path produces for one row
        # (pinned by tests/test_epoch_serving.py).  Only n >= 2 rows
        # gather F-ordered and reduce with a strided loop, so batches
        # of different heights were never mutually bitwise anyway.
        return _weighted_update_single(size, index_sets, targets[0],
                                       threshold, max_iterations)[None]
    estimate = np.full((n_problems, size), 1.0 / size)
    if n_problems == 0:
        return estimate
    index_sets = [np.asarray(idx, dtype=np.int64) for idx in index_sets]

    active = np.arange(n_problems)
    for _ in range(max_iterations):
        sub = estimate[active]
        before = sub.copy()
        for position, idx in enumerate(index_sets):
            current = sub[:, idx].sum(axis=1)
            nonzero = current != 0.0
            ratios = np.divide(targets[active, position], current,
                               out=np.ones_like(current), where=nonzero)
            sub[:, idx] *= ratios[:, None]
        changes = np.abs(sub - before).sum(axis=1)
        estimate[active] = sub
        active = active[changes >= threshold]
        if active.size == 0:
            break
    return estimate


def _weighted_update_single(size: int, index_sets: list[np.ndarray],
                            targets: np.ndarray, threshold: float,
                            max_iterations: int) -> np.ndarray:
    """One problem's sweeps as flat 1-D operations (no row dimension)."""
    estimate = np.full(size, 1.0 / size)
    for _ in range(max_iterations):
        before = estimate.copy()
        for position, idx in enumerate(index_sets):
            current = estimate[idx].sum()
            if current != 0.0:
                estimate[idx] *= targets[position] / current
        if np.abs(estimate - before).sum() < threshold:
            break
    return estimate
