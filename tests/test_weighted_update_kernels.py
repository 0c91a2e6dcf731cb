"""Differential tests pinning the Weighted Update kernels to their oracle.

``weighted_update_batch`` runs Algorithm 2 on two kernels: a multi-row
sweep over a cell-major estimate while two or more problems are active,
and a one-row sweep in plain Python floats for one-problem calls and for
the last active row of a batch.  Both must reproduce the retired NumPy
kernel (``tests/oracles/weighted_update_numpy.py``) bit for bit, so
every comparison here is on the ``uint64`` view of the results — no
tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles import weighted_update_numpy as oracle

from repro.core.query_estimation import lambda_constraint_index_sets
from repro.estimation import (Constraint, weighted_update,
                              weighted_update_batch)
from repro.estimation.weighted_update import _pairwise_sum, _sweep_row

BATCH_SIZES = (1, 2, 3, 7, 50, 200)
MAX_ITERATIONS = (0, 1, 3, 100)


def assert_bitwise_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def lambda_targets(dimension: int, n_problems: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Algorithm 2 targets from noisy pair masses of random orthant
    distributions, so problems converge on different sweeps (and some
    not at all within 100)."""
    index_sets = lambda_constraint_index_sets(dimension)
    truth = rng.dirichlet(np.full(1 << dimension, 0.5), size=n_problems)
    targets = np.ones((n_problems, len(index_sets)))
    for position, idx in enumerate(index_sets[:-1]):
        noise = rng.normal(0.0, 0.02, n_problems)
        targets[:, position] = np.maximum(
            0.0, truth[:, idx].sum(axis=1) + noise)
    return targets


def with_zero_targets(targets: np.ndarray, zero: float,
                      rng: np.random.Generator) -> np.ndarray:
    """A copy with about a fifth of the pair targets set to ``zero``."""
    targets = targets.copy()
    pairs = targets[:, :-1]
    pairs[rng.random(pairs.shape) < 0.2] = zero
    return targets


@pytest.mark.parametrize("dimension", [3, 4, 5, 6])
@pytest.mark.parametrize("variant", ["noisy", "zero", "negative-zero",
                                     "negative-threshold"])
def test_kernels_match_oracle_bitwise(dimension, variant):
    rng = np.random.default_rng(100 * dimension + len(variant))
    size = 1 << dimension
    index_sets = lambda_constraint_index_sets(dimension)
    threshold = -1.0 if variant == "negative-threshold" else 1e-7
    for n_problems in BATCH_SIZES:
        targets = lambda_targets(dimension, n_problems, rng)
        if variant == "zero":
            targets = with_zero_targets(targets, 0.0, rng)
        elif variant == "negative-zero":
            targets = with_zero_targets(targets, -0.0, rng)
        for max_iterations in MAX_ITERATIONS:
            expected = oracle.weighted_update_batch(
                size, index_sets, targets, threshold, max_iterations)
            actual = weighted_update_batch(size, index_sets, targets,
                                           threshold, max_iterations)
            assert_bitwise_equal(actual, expected)


def test_negative_zero_targets_stay_negative_zero():
    """``np.maximum(0.0, -0.0)`` is ``-0.0``: clipped targets can carry
    the sign, and scaling by them must too."""
    assert np.signbit(np.maximum(0.0, -0.0))
    index_sets = lambda_constraint_index_sets(3)
    targets = np.ones((2, len(index_sets)))
    targets[:, :-1] = 0.25
    targets[0, 0] = -0.0
    actual = weighted_update_batch(8, index_sets, targets, max_iterations=1)
    expected = oracle.weighted_update_batch(8, index_sets, targets,
                                            max_iterations=1)
    assert np.signbit(expected[0, index_sets[0]]).all()
    assert_bitwise_equal(actual, expected)


def test_rows_converge_on_different_sweeps():
    """The matrix above exercises compaction: its problems stop on many
    distinct sweeps, and some run to the cap."""
    dimension = 4
    index_sets = lambda_constraint_index_sets(dimension)
    targets = lambda_targets(dimension, 50, np.random.default_rng(7))
    sweeps_taken = {
        weighted_update(16, [Constraint(idx, target) for idx, target
                             in zip(index_sets, row)]).iterations
        for row in targets}
    assert len(sweeps_taken) >= 5
    assert max(sweeps_taken) == 100
    assert_bitwise_equal(
        weighted_update_batch(16, index_sets, targets),
        oracle.weighted_update_batch(16, index_sets, targets))


def test_random_index_sets_match_oracle_bitwise():
    """Index sets without orthant structure, including runs long enough
    for the block path and sets that cross the 8-cell pairwise cut."""
    rng = np.random.default_rng(11)
    size = 64
    index_sets = [np.sort(rng.choice(size, size=rng.integers(1, 20),
                                     replace=False)) for _ in range(12)]
    index_sets += [np.arange(5, 17), np.arange(size)]
    for n_problems in BATCH_SIZES:
        targets = rng.random((n_problems, len(index_sets)))
        for max_iterations in MAX_ITERATIONS:
            assert_bitwise_equal(
                weighted_update_batch(size, index_sets, targets,
                                      max_iterations=max_iterations),
                oracle.weighted_update_batch(size, index_sets, targets,
                                             max_iterations=max_iterations))


def test_last_active_row_hands_over_to_one_row_kernel():
    """When all but one problem has converged, the survivor continues
    exactly as the one-row kernel would from its state at that sweep —
    so its last ulp depends on whether it had batch-mates."""
    dimension = 5
    size = 1 << dimension
    index_sets = lambda_constraint_index_sets(dimension)
    cells = [idx.tolist() for idx in index_sets]
    slow = lambda_targets(dimension, 1, np.random.default_rng(3))[0]
    # Targets the uniform start already satisfies exactly: this problem
    # stops after its first sweep, leaving ``slow`` alone from sweep 2.
    settled = np.array([len(idx) / size for idx in index_sets])
    batch = np.vstack([slow, settled])

    after_first = weighted_update_batch(size, index_sets, batch,
                                        max_iterations=1)[0]
    handed_over = _sweep_row(after_first.tolist(), cells, slow.tolist(),
                             1e-7, 99, batch_rule=True)
    together = weighted_update_batch(size, index_sets, batch)
    assert_bitwise_equal(together[0], np.array(handed_over))
    assert_bitwise_equal(together[1], np.full(size, 1.0 / size))
    assert_bitwise_equal(together,
                         oracle.weighted_update_batch(size, index_sets,
                                                      batch))
    alone = weighted_update_batch(size, index_sets, slow[None])[0]
    assert not np.array_equal(alone.view(np.uint64),
                              together[0].view(np.uint64))


def test_last_row_keeps_the_batch_stopping_rule():
    """A batch row sweeps only while ``change >= threshold``, so a NaN
    change stops it; a one-problem call stops only once ``change <
    threshold`` and sweeps on.  The handed-over last row keeps the
    batch's rule.  Here a subnormal target overflows a ratio on sweep
    2, after the batch-mate (already satisfied by the uniform start)
    has stopped, and two further constraints are still moving."""
    index_sets = [np.array([1]), np.array([1]), np.array([0, 2]),
                  np.array([2, 3])]
    overflowing = [0.5, 1e-310, 0.9, 0.1]
    settled = [0.25, 0.25, 0.5, 0.5]
    batch = np.array([overflowing, settled])
    with np.errstate(over="ignore", invalid="ignore"):
        expected = oracle.weighted_update_batch(4, index_sets, batch)
        alone = oracle.weighted_update_batch(4, index_sets, batch[:1])
        actual = weighted_update_batch(4, index_sets, batch)
        actual_alone = weighted_update_batch(4, index_sets, batch[:1])
    assert np.isnan(expected[0, 1])
    assert not np.array_equal(expected[0].view(np.uint64),
                              alone[0].view(np.uint64))
    assert_bitwise_equal(actual, expected)
    assert_bitwise_equal(actual_alone, alone)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 64, 127, 128,
                               129, 200, 256, 300])
def test_pairwise_sum_follows_numpy_order(n):
    rng = np.random.default_rng(n)
    values = rng.random((n, 5)) * 10.0 ** rng.integers(-8, 8, size=(n, 5))
    expected = np.ascontiguousarray(values.T).sum(axis=1)
    assert_bitwise_equal(np.asarray(_pairwise_sum(values)), expected)
    for column in range(5):
        assert _pairwise_sum(values[:, column].tolist()) == expected[column]


def test_empty_batch_and_invalid_index_sets():
    index_sets = lambda_constraint_index_sets(3)
    empty = weighted_update_batch(8, index_sets,
                                  np.ones((0, len(index_sets))))
    assert empty.shape == (0, 8)
    for bad in ([], [1, 1], [-1, 2], [3, 8]):
        with pytest.raises(ValueError, match="distinct cells"):
            weighted_update_batch(8, [np.array(bad, dtype=np.int64)],
                                  np.ones((2, 1)))
