"""Weighted Update (multiplicative weights) estimation engine.

Algorithms 1 and 2 of the paper are both instances of the same iterative
scheme (Arora et al.'s multiplicative weights / Hardt et al.'s MWEM-style
update): maintain a non-negative estimate vector, and for every observed
constraint "the sum of entries in index-set Φ should equal f", rescale the
entries in Φ so their sum matches f.  Iterate over all constraints until
the total change per sweep drops below a threshold (the paper uses any
threshold below ``1/n``).

This module implements the engine once so the response-matrix builder
(Algorithm 1), the λ-D query estimator (Algorithm 2) and the tests can all
share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


#: Constraints over a contiguous run of at least this many cells are
#: summed and rescaled as one 2-D block by the multi-row kernel; below
#: it, NumPy's per-call overhead makes row-by-row operations cheaper.
_BLOCK_CELLS = 8


@dataclass(frozen=True)
class Constraint:
    """One observation: the entries at ``indices`` should sum to ``target``."""

    indices: np.ndarray
    target: float

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.int64)
        if indices.ndim != 1 or indices.size == 0:
            raise ValueError("constraint indices must be a non-empty 1-D array")
        object.__setattr__(self, "indices", indices)


@dataclass
class WeightedUpdateResult:
    """Outcome of a weighted-update run."""

    estimate: np.ndarray
    iterations: int
    converged: bool
    change_history: list[float] = field(default_factory=list)


def weighted_update(size: int, constraints: list[Constraint],
                    threshold: float = 1e-7, max_iterations: int = 100,
                    initial: np.ndarray | None = None,
                    track_history: bool = False) -> WeightedUpdateResult:
    """Run the weighted-update iteration.

    Parameters
    ----------
    size:
        Length of the estimate vector.
    constraints:
        Observations to satisfy.  Targets should be non-negative; the
        caller is expected to have applied Norm-Sub beforehand (the paper
        notes that negative inputs can destabilise the iteration — this is
        exactly the ITDG/IHDG ablation).
    threshold:
        Convergence threshold on the summed absolute change of the
        estimate across one full sweep over the constraints.  The paper
        recommends any value below ``1/n``.
    max_iterations:
        Upper bound on the number of sweeps.
    initial:
        Optional starting point; defaults to the uniform vector summing
        to 1 (Algorithm 1 line 1 / Algorithm 2 line 1).
    track_history:
        If True, record the per-sweep change (used by the convergence-rate
        experiment, Figures 17-18).

    Returns
    -------
    WeightedUpdateResult
        The estimate, the number of sweeps performed, whether the
        threshold was reached, and optionally the change history.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if not constraints:
        raise ValueError("at least one constraint is required")
    if initial is None:
        estimate = np.full(size, 1.0 / size)
    else:
        estimate = np.asarray(initial, dtype=float).copy()
        if estimate.shape != (size,):
            raise ValueError(f"initial must have shape ({size},)")

    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        before = estimate.copy()
        for constraint in constraints:
            idx = constraint.indices
            current = estimate[idx].sum()
            if current != 0.0:
                estimate[idx] *= constraint.target / current
        change = float(np.abs(estimate - before).sum())
        if track_history:
            history.append(change)
        if change < threshold:
            converged = True
            break
    return WeightedUpdateResult(estimate=estimate, iterations=iterations,
                                converged=converged, change_history=history)


def weighted_update_batch(size: int, index_sets: list[np.ndarray],
                          targets: np.ndarray, threshold: float = 1e-7,
                          max_iterations: int = 100) -> np.ndarray:
    """Run many independent weighted-update problems in one iteration.

    All problems share the same constraint *structure* (the index sets)
    but have their own targets — exactly the situation when a workload
    contains many λ-D queries of the same dimension: the orthant index
    sets depend only on λ while the 2-D sub-answers differ per query.

    Parameters
    ----------
    size:
        Length of each estimate vector (``2^λ`` for Algorithm 2).
    index_sets:
        One index array per constraint, in sweep order; each holds
        distinct cells in ``[0, size)``.
    targets:
        Array of shape ``(n_problems, n_constraints)``; row ``b`` holds
        problem ``b``'s constraint targets.
    threshold, max_iterations:
        Same convergence controls as :func:`weighted_update`.  A row
        stops updating once its per-sweep change drops below the
        threshold.

    Returns
    -------
    numpy.ndarray
        Estimates of shape ``(n_problems, size)``.

    Notes
    -----
    Every multiplication and division is the sequential engine's, and a
    constraint whose sum is zero leaves its cells untouched.  Only the
    order of additions inside a sum varies, and it is fixed so results
    are reproducible bit for bit:

    * While two or more rows are active, :func:`_sweep_rows` adds a
      constraint's cells left to right and a row's per-sweep change in
      NumPy's pairwise order (:func:`_pairwise_sum`).
    * A single row — a one-problem call, or the last active row of a
      batch — runs :func:`_sweep_row`, which adds constraint sums in
      the pairwise order too.  The two orders differ only in sums of
      eight or more cells, but that is enough for a row's last ulp to
      depend on whether it outlives its batch-mates.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2:
        raise ValueError("targets must have shape (n_problems, n_constraints)")
    if targets.shape[1] != len(index_sets):
        raise ValueError(
            f"got {targets.shape[1]} targets per problem for "
            f"{len(index_sets)} constraints")
    cells = [np.asarray(idx, dtype=np.int64).tolist() for idx in index_sets]
    for idx in cells:
        if (not idx or len(set(idx)) != len(idx) or min(idx) < 0
                or max(idx) >= size):
            raise ValueError(f"constraint indices must be distinct cells "
                             f"in [0, {size}); got {idx}")
    if targets.shape[0] == 1:
        return np.array([_sweep_row([1.0 / size] * size, cells,
                                    targets[0].tolist(), threshold,
                                    max_iterations, batch_rule=False)])
    return _sweep_rows(size, cells, targets, threshold, max_iterations)


def _sweep_rows(size: int, cells: list[list[int]], targets: np.ndarray,
                threshold: float, max_iterations: int) -> np.ndarray:
    """The multi-row kernel over a cell-major ``(size, problems)`` estimate.

    Each cell is one contiguous row holding every active problem's
    value, so a constraint sum is a chain of row adds and a rescale an
    in-place multiply of the same rows.  A constraint over a contiguous
    run of at least ``_BLOCK_CELLS`` cells is summed with
    ``np.add.reduce`` over axis 0 — the same left-to-right row adds in
    one call — and rescaled as one 2-D block.  Problems that converge
    are written out, and the rest compacted, only on sweeps where some
    problem converges; the last active problem finishes in
    :func:`_sweep_row`.
    """
    n_problems = targets.shape[0]
    result = np.full((n_problems, size), 1.0 / size)
    if n_problems == 0:
        return result
    estimate = np.full((size, n_problems), 1.0 / size)
    goals = np.ascontiguousarray(targets.T)
    runs = [(idx[0], idx[-1] + 1) if len(idx) >= _BLOCK_CELLS
            and idx == list(range(idx[0], idx[-1] + 1)) else None
            for idx in cells]
    problems = np.arange(n_problems)
    parts = _constraint_parts(estimate, cells, runs)
    for sweep in range(max_iterations):
        active = problems.size
        if active == 1:
            result[problems[0]] = _sweep_row(
                estimate[:, 0].tolist(), cells, goals[:, 0].tolist(),
                threshold, max_iterations - sweep, batch_rule=True)
            return result
        before = estimate.copy()
        for (block, rows), goal in zip(parts, goals):
            if block is not None:
                current = np.add.reduce(block, axis=0)
            elif len(rows) == 1:
                current = rows[0].copy()
            else:
                current = rows[0] + rows[1]
                for row in rows[2:]:
                    current += row
            if np.count_nonzero(current) == active:
                ratios = goal / current
            else:
                ratios = np.divide(goal, current, out=np.ones_like(current),
                                   where=current != 0.0)
            if block is None:
                for row in rows:
                    row *= ratios
            else:
                block *= ratios
        np.subtract(estimate, before, out=before)
        np.abs(before, out=before)
        moving = _pairwise_sum(before) >= threshold
        if np.count_nonzero(moving) < active:
            done = ~moving
            result[problems[done]] = estimate[:, done].T
            problems = problems[moving]
            if problems.size == 0:
                return result
            # Boolean column selection returns an F-ordered array: copy
            # back to cell-major so every cell stays one contiguous row.
            estimate = np.ascontiguousarray(estimate[:, moving])
            goals = np.ascontiguousarray(goals[:, moving])
            parts = _constraint_parts(estimate, cells, runs)
    result[problems] = estimate.T
    return result


def _constraint_parts(estimate: np.ndarray, cells: list[list[int]],
                      runs: list[tuple[int, int] | None]) -> list[tuple]:
    """Per constraint, ``(block, None)`` for a run or ``(None, rows)``."""
    rows = list(estimate)
    return [(estimate[run[0]:run[1]], None) if run
            else (None, [rows[cell] for cell in idx])
            for run, idx in zip(runs, cells)]


def _sweep_row(estimate: list[float], cells: list[list[int]],
               targets: list[float], threshold: float, sweeps: int,
               batch_rule: bool) -> list[float]:
    """The one-row kernel: up to ``sweeps`` sweeps in plain Python floats.

    Constraint sums and the per-sweep change both add in NumPy's order
    for a contiguous vector (:func:`_pairwise_sum`).  A one-problem
    call stops once ``change < threshold``, as the sequential engine
    does; the last row of a batch (``batch_rule``) keeps the batch's
    rule of sweeping only while ``change >= threshold``, so a NaN
    change stops it too.
    """
    for _ in range(sweeps):
        before = estimate.copy()
        for idx, target in zip(cells, targets):
            current = _pairwise_sum([estimate[cell] for cell in idx])
            if current != 0.0:
                ratio = target / current
                for cell in idx:
                    estimate[cell] *= ratio
        change = _pairwise_sum([abs(after - prior) for after, prior
                                in zip(estimate, before)])
        if change < threshold or (batch_rule and change != change):
            break
    return estimate


def _pairwise_sum(values):
    """Sum ``values`` in the order NumPy sums a contiguous float64 vector.

    ``values`` is a list of floats, or a 2-D array whose rows are added
    elementwise (giving every column's sum at once).  Below 8 items the
    sum is sequential; from 8 to 128 items, eight interleaved lanes
    accumulate every eighth item, fold as a balanced tree and take the
    remainder sequentially; above 128 the range is halved at a multiple
    of 8.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total = total + value
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    end = n - n % 8
    if isinstance(values, np.ndarray):
        lanes = values[:8]
        for start in range(8, end, 8):
            lanes = lanes + values[start:start + 8]
        pairs = lanes[0::2] + lanes[1::2]
        quads = pairs[0::2] + pairs[1::2]
        total = quads[0] + quads[1]
    else:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        for start in range(8, end, 8):
            a0, a1, a2, a3, a4, a5, a6, a7 = values[start:start + 8]
            r0 = r0 + a0
            r1 = r1 + a1
            r2 = r2 + a2
            r3 = r3 + a3
            r4 = r4 + a4
            r5 = r5 + a5
            r6 = r6 + a6
            r7 = r7 + a7
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for value in values[end:]:
        total = total + value
    return total
