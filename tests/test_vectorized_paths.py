"""Property tests: vectorised collection/answering paths == legacy loops.

Every vectorised path introduced for the fit-throughput work keeps its
original loop implementation as an equivalence reference in
``tests/oracles/``; these tests pin the two to each other — bit-for-bit
where the paths consume the same RNG draws, to 1e-9 where only the
floating-point summation order differs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import HIO, LHIO
from repro.core import HDG
from repro.core import phase2 as phase2_module
from repro.datasets import make_dataset
from repro.frequency_oracles import GeneralizedRandomizedResponse, SquareWave
from repro.postprocess import GridView, enforce_attribute_consistency
from repro.queries import WorkloadGenerator

from oracles.answering_loops import mechanism_answer_loop
from oracles.collection_loops import (enforce_attribute_consistency_loop,
                                      grr_perturb_loop, sw_perturb_loop,
                                      sw_transition_matrix_loop)


def mixed_workload(n_attributes, domain_size, n_queries=30, seed=11):
    generator = WorkloadGenerator(n_attributes, domain_size,
                                  rng=np.random.default_rng(seed))
    queries = []
    for dimension in (1, 2, 3):
        if dimension <= n_attributes:
            queries.extend(generator.random_workload(n_queries // 3,
                                                     dimension, 0.5))
    return queries


# ----------------------------------------------------------------------
# Square Wave
# ----------------------------------------------------------------------
@pytest.mark.parametrize("epsilon,domain_size", [(0.5, 16), (1.0, 64),
                                                 (2.0, 37)])
def test_sw_transition_matrix_vectorized_equals_loop(epsilon, domain_size):
    oracle = SquareWave(epsilon, domain_size)
    vectorized = oracle._build_transition_matrix()
    loop = sw_transition_matrix_loop(oracle)
    np.testing.assert_array_equal(vectorized, loop)
    np.testing.assert_allclose(vectorized.sum(axis=0), 1.0, atol=1e-9)


def test_sw_perturb_vectorized_equals_loop_bitwise():
    values = np.random.default_rng(0).integers(0, 32, size=2_000)
    vectorized = SquareWave(1.0, 32, rng=np.random.default_rng(42))
    loop = SquareWave(1.0, 32, rng=np.random.default_rng(42))
    np.testing.assert_array_equal(vectorized.perturb(values),
                                  sw_perturb_loop(loop, values))


# ----------------------------------------------------------------------
# GRR
# ----------------------------------------------------------------------
def test_grr_perturb_vectorized_equals_loop_bitwise():
    values = np.random.default_rng(1).integers(0, 16, size=2_000)
    vectorized = GeneralizedRandomizedResponse(1.0, 16,
                                               rng=np.random.default_rng(9))
    loop = GeneralizedRandomizedResponse(1.0, 16,
                                         rng=np.random.default_rng(9))
    np.testing.assert_array_equal(vectorized.perturb(values),
                                  grr_perturb_loop(loop, values))


# ----------------------------------------------------------------------
# HIO: vectorised combination gathers
# ----------------------------------------------------------------------
def test_hio_vectorized_answers_equal_legacy_loop():
    dataset = make_dataset("normal", 3_000, 3, 16,
                           rng=np.random.default_rng(5))
    queries = mixed_workload(3, 16)
    legacy = HIO(1.0, seed=7).fit(dataset)
    engine = HIO(1.0, seed=7).fit(dataset)
    np.testing.assert_allclose(engine.answer_workload(queries),
                               mechanism_answer_loop(legacy, queries),
                               atol=1e-9)


def test_hio_vectorized_with_lazy_levels_falls_back_consistently():
    dataset = make_dataset("normal", 2_000, 3, 16,
                           rng=np.random.default_rng(6))
    queries = mixed_workload(3, 16, n_queries=18, seed=13)
    legacy = HIO(1.0, seed=3, materialize_limit=16).fit(dataset)
    engine = HIO(1.0, seed=3, materialize_limit=16).fit(dataset)
    np.testing.assert_allclose(engine.answer_workload(queries),
                               mechanism_answer_loop(legacy, queries),
                               atol=1e-9)


# ----------------------------------------------------------------------
# LHIO: grouped cross-query gathers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("materialize_limit", [1 << 16, 4])
def test_lhio_batched_answers_equal_legacy_loop(materialize_limit):
    dataset = make_dataset("normal", 3_000, 4, 16,
                           rng=np.random.default_rng(8))
    queries = mixed_workload(4, 16)
    legacy = LHIO(1.0, seed=21, materialize_limit=materialize_limit).fit(dataset)
    engine = LHIO(1.0, seed=21, materialize_limit=materialize_limit).fit(dataset)
    np.testing.assert_allclose(engine.answer_workload(queries),
                               mechanism_answer_loop(legacy, queries),
                               atol=1e-9)


def test_lhio_four_dimensional_queries_through_batched_gathers():
    dataset = make_dataset("normal", 3_000, 5, 16,
                           rng=np.random.default_rng(14))
    generator = WorkloadGenerator(5, 16, rng=np.random.default_rng(15))
    queries = generator.random_workload(10, 4, 0.5)
    legacy = LHIO(1.0, seed=2).fit(dataset)
    engine = LHIO(1.0, seed=2).fit(dataset)
    np.testing.assert_allclose(engine.answer_workload(queries),
                               mechanism_answer_loop(legacy, queries),
                               atol=1e-9)


# ----------------------------------------------------------------------
# Phase 2: stacked consistency views
# ----------------------------------------------------------------------
def build_views(arrays):
    views = []
    for array, axis, cells_per_bucket in arrays:
        views.append(GridView(frequencies=array, axis=axis,
                              cells_per_bucket=cells_per_bucket))
    return views


def test_consistency_stacked_equals_loop_on_mixed_views():
    rng = np.random.default_rng(3)
    n_buckets = 4
    one_d = rng.normal(size=8)
    two_d_a = rng.normal(size=(4, 4))
    two_d_b = rng.normal(size=(4, 4))
    loop_arrays = [one_d.copy(), two_d_a.copy(), two_d_b.copy()]
    stacked_arrays = [one_d.copy(), two_d_a.copy(), two_d_b.copy()]
    specs = [(0, 2), (0, 1), (1, 1)]
    loop_views = build_views([(array, axis, cells)
                              for array, (axis, cells)
                              in zip(loop_arrays, specs)])
    stacked_views = build_views([(array, axis, cells)
                                 for array, (axis, cells)
                                 in zip(stacked_arrays, specs)])
    consensus_loop = enforce_attribute_consistency_loop(loop_views, n_buckets)
    consensus_stacked = enforce_attribute_consistency(stacked_views, n_buckets)
    np.testing.assert_allclose(consensus_stacked, consensus_loop, atol=1e-9)
    for loop_array, stacked_array in zip(loop_arrays, stacked_arrays):
        np.testing.assert_allclose(stacked_array, loop_array, atol=1e-9)


def test_consistency_stacked_agrees_after_adjustment():
    rng = np.random.default_rng(4)
    views = build_views([(rng.normal(size=(4, 4)), 0, 1),
                         (rng.normal(size=(4, 4)), 1, 1),
                         (rng.normal(size=12).reshape(12), 0, 3)])
    consensus = enforce_attribute_consistency(views, 4)
    for view in views:
        np.testing.assert_allclose(view.bucket_totals(4), consensus,
                                   atol=1e-9)


def test_hdg_phase2_stacked_equals_loop_end_to_end(monkeypatch):
    dataset = make_dataset("normal", 5_000, 3, 16,
                           rng=np.random.default_rng(10))
    stacked = HDG(1.0, seed=17).fit(dataset)

    monkeypatch.setattr(phase2_module, "enforce_attribute_consistency",
                        enforce_attribute_consistency_loop)
    loop = HDG(1.0, seed=17).fit(dataset)

    for attribute in stacked.grids_1d:
        np.testing.assert_allclose(stacked.grids_1d[attribute].frequencies,
                                   loop.grids_1d[attribute].frequencies,
                                   atol=1e-9)
    for pair in stacked.grids_2d:
        np.testing.assert_allclose(stacked.grids_2d[pair].frequencies,
                                   loop.grids_2d[pair].frequencies,
                                   atol=1e-9)
    queries = mixed_workload(3, 16, n_queries=15, seed=19)
    np.testing.assert_allclose(stacked.answer_workload(queries),
                               loop.answer_workload(queries), atol=1e-9)
