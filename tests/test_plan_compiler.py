"""Differential harness pinning the fused execution groups.

Every multi-primitive workload of a pair-decomposable mechanism runs
through :class:`~repro.queries.compiler.ExecutionGroups`.  The harness
pins those answers, for every mechanism and every query kind, against
the strictest reference there is: each primitive answered alone by the
mechanism's scalar ``_answer`` and reassembled by the per-query closure
assembler kept in ``tests/oracles/plan_assembly.py``.  The comparison
is **bitwise**: grid corner lookups answer each range from its own four
corners and scalar reassembly multiplies each primitive by its own
scale, so grouping cannot move a bit.

Two places carry ``rtol=1e-9`` (see :func:`assert_results_bitwise_equal`):

* batched λ > 2 rows.  ``weighted_update_batch`` adds a constraint's
  cells left to right while two or more rows are active and pairwise
  once one row is left, so a row's last ulp depends on whether it
  outlives its batch-mates;
* LHIO, whose scalar ``_answer_pair`` sums level blocks with
  ``ndarray.sum`` while the fused kernel scatter-adds with ``bincount``
  (measured drift 2.2e-16).

Exact composition pins cover what the tolerance forgives: fused λ > 2
answers equal ``weighted_update_batch`` run on scalar pair answers
bitwise, and max entropy equals the per-query combiner bitwise.

Also covers the :class:`~repro.queries.PlanCache` LRU/counter contract
and multi-threaded answering through a tiny cache under eviction
pressure (no cross-request result bleed).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import build_mechanism, make_dataset
from repro.core import estimate_lambda_query, lambda_constraint_index_sets
from repro.estimation import weighted_update_batch
from repro.queries import (CompiledPlan, PlanCache, WorkloadGenerator,
                           plan_cache_key)
from repro.queries.ir import (DistributionResult, ScalarResult, TopKResult,
                              query_kind)

from oracles.answering_loops import mechanism_answer_loop
from oracles.plan_assembly import assemble

ALL_MECHANISMS = ("Uni", "MSW", "CALM", "HIO", "LHIO",
                  "TDG", "HDG", "ITDG", "IHDG")
N_USERS = 2_000
N_ATTRIBUTES = 3
DOMAIN_SIZE = 16
EPSILON = 1.0
SEED = 11


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(SEED)
    return make_dataset("normal", N_USERS, N_ATTRIBUTES, DOMAIN_SIZE, rng=rng)


def fitted(name: str, dataset, **kwargs):
    return build_mechanism(name, EPSILON, seed=SEED, **kwargs).fit(dataset)


def seeded_mixed_workload(n_queries: int, dimension: int, seed: int,
                          table_dimension: int | None = None) -> list:
    generator = WorkloadGenerator(N_ATTRIBUTES, DOMAIN_SIZE,
                                  rng=np.random.default_rng(seed))
    return generator.mixed_workload(n_queries, dimension, 0.5,
                                    table_dimension=table_dimension)


def assert_results_bitwise_equal(fused, reference, rtol: float = 0.0,
                                 atol: float = 0.0):
    """Typed results from the fused path == the reference path, bitwise.

    The default is exact (no tolerance).  Callers pass ``rtol=1e-9``
    only for the two carve-outs named in the module docstring — a
    bound a million times looser than the one-ulp effects it forgives
    — and ``atol=1e-9`` when the reference is a per-cell loop that sums
    in a different order.
    """
    assert len(fused) == len(reference)

    def values_equal(left_values, right_values) -> bool:
        if rtol == 0.0 and atol == 0.0:
            return np.array_equal(left_values, right_values)
        return np.allclose(left_values, right_values, rtol=rtol, atol=atol)

    for left, right in zip(fused, reference):
        assert type(left) is type(right)
        assert left.query == right.query
        if isinstance(left, ScalarResult):
            assert values_equal(left.value, right.value)
            assert left.population == right.population
        elif isinstance(left, DistributionResult):
            assert left.values.shape == right.values.shape
            assert values_equal(left.values, right.values)
        elif isinstance(left, TopKResult):
            assert left.cells == right.cells
            assert values_equal(left.values, right.values)
        else:  # pragma: no cover - new result kinds must be added here
            raise AssertionError(f"unhandled result type {type(left)!r}")


def scalar_reference(mechanism, queries, answer_ranges=None):
    """Each primitive answered alone, reassembled by the closure oracle.

    ``answer_ranges`` replaces the per-primitive scalar ``_answer``
    (e.g. with the per-cell reference loops).
    """
    plan = mechanism.query_planner().plan(queries)
    if answer_ranges is None:
        answers = [mechanism._answer(primitive) for primitive in plan.ranges]
    else:
        answers = answer_ranges(mechanism, plan.ranges)
    return assemble(plan, answers, mechanism._domain_size,
                    population=mechanism.population)


# ----------------------------------------------------------------------
# Differential: fused == per-query scalar reference, all nine mechanisms
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_MECHANISMS)
def test_fused_matches_planner_paths_all_mechanisms(name, dataset):
    mechanism = fitted(name, dataset)
    queries = seeded_mixed_workload(30, 2, seed=101)
    assert sorted({query_kind(query) for query in queries}) == [
        "count", "marginal", "point", "range", "topk"]

    fused = mechanism.answer_typed(queries)
    assert_results_bitwise_equal(fused, scalar_reference(mechanism, queries),
                                 rtol=1e-9 if name == "LHIO" else 0.0)
    # Answering again from the warm plan cache changes nothing.
    assert_results_bitwise_equal(fused, mechanism.answer_typed(queries))


@pytest.mark.parametrize("name", ["TDG", "HDG", "ITDG", "IHDG"])
def test_fused_matches_planner_paths_lambda3(name, dataset):
    # λ=3 ranges exercise the multi-dimensional weighted-update groups
    # (sub-answer gather matrix + one batched estimation call).  The
    # scalar reference re-batches the λ=3 rows one at a time, so this
    # comparison carries the λ > 2 tolerance; the exact composition is
    # pinned by test_fused_lambda_rows_compose_scalar_pair_answers.
    mechanism = fitted(name, dataset)
    queries = seeded_mixed_workload(18, 3, seed=202)
    assert_results_bitwise_equal(mechanism.answer_typed(queries),
                                 scalar_reference(mechanism, queries),
                                 rtol=1e-9)


def test_fused_matches_planner_paths_max_entropy(dataset):
    # Max entropy runs per row of each λ > 2 group on the gathered
    # sub-answers — the same computation as the scalar path, bitwise.
    mechanism = fitted("TDG", dataset, estimation_method="max_entropy",
                       estimation_iterations=50)
    queries = seeded_mixed_workload(12, 3, seed=303)
    assert_results_bitwise_equal(mechanism.answer_typed(queries),
                                 scalar_reference(mechanism, queries))


@pytest.mark.parametrize("name", ["TDG", "HDG"])
def test_fused_matches_reference_loops(name, dataset):
    # The per-cell reference loops sum in cell order, the prefix-sum
    # kernels by corner differences: equal to 1e-9, not bitwise.  Top-k
    # is left out: cells inside one grid cell tie exactly under the
    # uniformity rule, so an ulp reorders the selection.
    mechanism = fitted(name, dataset)
    queries = [query for query in seeded_mixed_workload(12, 2, seed=404)
               if query_kind(query) != "topk"]
    assert_results_bitwise_equal(
        mechanism.answer_typed(queries),
        scalar_reference(mechanism, queries,
                         answer_ranges=mechanism_answer_loop),
        atol=1e-9)


def test_randomized_workloads_sweep(dataset):
    # Seeded randomized sweep: many small workloads with varying shape,
    # one fused-vs-scalar check per draw.
    mechanism = fitted("HDG", dataset)
    for draw, seed in enumerate(range(500, 508)):
        dimension = 2 + (draw % 2)
        queries = seeded_mixed_workload(6 + draw, dimension, seed=seed)
        assert_results_bitwise_equal(
            mechanism.answer_typed(queries),
            scalar_reference(mechanism, queries),
            rtol=1e-9 if dimension > 2 else 0.0)


# ----------------------------------------------------------------------
# Range lists: the same groups, no planner, exact composition pins
# ----------------------------------------------------------------------
WIDE_ATTRIBUTES = 5


@pytest.fixture(scope="module")
def wide_dataset():
    rng = np.random.default_rng(SEED + 1)
    return make_dataset("normal", N_USERS, WIDE_ATTRIBUTES, DOMAIN_SIZE,
                        rng=rng)


def range_workload(dimensions, per_dimension: int, seed: int) -> list:
    generator = WorkloadGenerator(WIDE_ATTRIBUTES, DOMAIN_SIZE,
                                  rng=np.random.default_rng(seed))
    queries = []
    for dimension in dimensions:
        queries.extend(generator.random_workload(per_dimension, dimension,
                                                 0.5))
    order = np.random.default_rng(seed + 1).permutation(len(queries))
    return [queries[index] for index in order]


TDG_FAMILY = ("TDG", "HDG", "ITDG", "IHDG", "CALM")


@pytest.mark.parametrize("name", TDG_FAMILY)
def test_single_query_workload_equals_scalar_answer(name, wide_dataset):
    # A one-query workload runs the same kernels as answer(q): the
    # one-row Weighted Update kernel for λ > 2, bitwise.
    mechanism = fitted(name, wide_dataset)
    for query in range_workload((1, 2, 3, 4, 5), 8, seed=1100):
        assert np.array_equal(mechanism.answer_workload([query]),
                              [mechanism.answer(query)])


@pytest.mark.parametrize("name", TDG_FAMILY)
def test_fused_lambda_rows_compose_scalar_pair_answers(name, wide_dataset):
    # Fused λ > 2 answers == weighted_update_batch over targets built from
    # the scalar _answer_pair of every sub-query, one batch per λ in
    # workload order — bitwise.
    mechanism = fitted(name, wide_dataset)
    queries = range_workload((1, 2, 3, 4), 15, seed=1200)
    fused = mechanism.answer_workload(queries)
    for dimension in (3, 4):
        positions = [position for position, query in enumerate(queries)
                     if query.dimension == dimension]
        index_sets = lambda_constraint_index_sets(dimension)
        targets = np.ones((len(positions), len(index_sets)))
        for row, position in enumerate(positions):
            targets[row, :-1] = np.maximum(0.0, [
                mechanism._answer_pair(sub)
                for sub in queries[position].pairwise_subqueries()])
        expected = weighted_update_batch(
            1 << dimension, index_sets, targets,
            max_iterations=mechanism.estimation_iterations)
        assert np.array_equal(fused[positions], expected[:, -1])


@pytest.mark.parametrize("name", ["TDG", "HDG", "LHIO"])
def test_fused_max_entropy_equals_per_query_estimate(name, wide_dataset):
    mechanism = fitted(name, wide_dataset, estimation_method="max_entropy")
    queries = range_workload((3, 4), 4, seed=1300)
    expected = [estimate_lambda_query(
        query, mechanism._answer_pair, method="max_entropy",
        max_iterations=mechanism.estimation_iterations) for query in queries]
    fused = mechanism.answer_workload(queries)
    if name == "LHIO":
        np.testing.assert_allclose(fused, expected, rtol=1e-9, atol=0.0)
    else:
        assert np.array_equal(fused, expected)


def test_lhio_lazy_levels_draw_in_workload_order(wide_dataset):
    # Over-limit levels draw noise on first touch: the batch path must
    # answer in workload order, leaving the same answers and the same
    # generator state as answering query by query.
    queries = range_workload((1, 2, 3), 6, seed=1400)
    batch = fitted("LHIO", wide_dataset, materialize_limit=16)
    one_by_one = fitted("LHIO", wide_dataset, materialize_limit=16)
    typed = fitted("LHIO", wide_dataset, materialize_limit=16)
    answers = batch.answer_workload(queries)
    assert np.array_equal(answers,
                          [one_by_one.answer(query) for query in queries])
    assert np.array_equal([result.value
                           for result in typed.answer_typed(queries)],
                          answers)
    state = one_by_one.rng.bit_generator.state
    assert batch.rng.bit_generator.state == state
    assert typed.rng.bit_generator.state == state


def test_range_lists_skip_the_plan_cache(wide_dataset):
    mechanism = fitted("HDG", wide_dataset)
    before = mechanism.plan_cache_stats()
    mechanism.answer_workload(range_workload((1, 2, 3), 5, seed=1500))
    assert mechanism.plan_cache_stats() == before


# ----------------------------------------------------------------------
# CompiledPlan structure
# ----------------------------------------------------------------------
def test_compiled_plan_counts_and_shape_check(dataset):
    mechanism = fitted("TDG", dataset)
    queries = seeded_mixed_workload(20, 2, seed=606)
    plan = mechanism.query_planner().plan(queries)
    compiled = CompiledPlan.from_plan(plan, DOMAIN_SIZE,
                                      population=N_USERS)
    assert compiled.n_queries == len(queries)
    assert compiled.n_primitives == plan.n_primitives
    assert compiled.groups.n_primitives == plan.n_primitives
    assert len(compiled.flat_ranges) == plan.n_primitives
    with pytest.raises(ValueError, match="primitive answers"):
        compiled.assemble(np.zeros(compiled.n_primitives + 1))


# ----------------------------------------------------------------------
# PlanCache: keying, LRU order, counters
# ----------------------------------------------------------------------
def test_plan_cache_key_is_stable_and_order_sensitive():
    schema = (3, 16, 1000)
    first = seeded_mixed_workload(10, 2, seed=707)
    again = seeded_mixed_workload(10, 2, seed=707)
    other = seeded_mixed_workload(10, 2, seed=708)
    assert plan_cache_key(schema, first) == plan_cache_key(schema, again)
    assert hash(plan_cache_key(schema, first)) == \
        hash(plan_cache_key(schema, again))
    assert plan_cache_key(schema, first) != plan_cache_key(schema, other)
    assert (plan_cache_key(schema, list(reversed(first)))
            != plan_cache_key(schema, first))


def test_plan_cache_key_includes_schema():
    queries = seeded_mixed_workload(5, 2, seed=808)
    key = plan_cache_key((3, 16, 1000), queries)
    assert key == plan_cache_key((3, 16, 1000), queries)
    assert key != plan_cache_key((3, 32, 1000), queries)
    assert key != plan_cache_key((4, 16, 1000), queries)
    assert key != plan_cache_key((3, 16, 2000), queries)


def test_unhashable_workload_bypasses_plan_cache(dataset):
    # The cache key is the query tuple itself; an unhashable entry skips
    # the cache and reaches the planner, which names what it rejects.
    mechanism = fitted("HDG", dataset)
    before = mechanism.plan_cache_stats()
    with pytest.raises(TypeError, match="not an IR query: list"):
        mechanism.answer_typed([[0, 1]])
    assert mechanism.plan_cache_stats() == before


def test_plan_cache_lru_eviction_and_counters():
    cache = PlanCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # hit; "a" becomes most recent
    cache.put("c", 3)                   # evicts "b" (least recent)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    stats = cache.stats()
    assert stats["size"] == 2
    assert stats["capacity"] == 2
    assert stats["hits"] == 3
    assert stats["misses"] == 1
    assert stats["evictions"] == 1
    cache.clear()
    assert len(cache) == 0
    # Counters survive clear(): they describe the cache's lifetime.
    assert cache.stats()["evictions"] == 1


def test_mechanism_cache_hits_across_requests(dataset):
    mechanism = fitted("TDG", dataset)
    queries = seeded_mixed_workload(10, 2, seed=909)
    before = mechanism.plan_cache_stats()
    mechanism.answer_typed(queries)
    mechanism.answer_typed(queries)
    mechanism.answer_typed(list(queries))   # same queries, fresh list
    after = mechanism.plan_cache_stats()
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == 2


# ----------------------------------------------------------------------
# Concurrency: overlapping workloads, tiny cache, no result bleed
# ----------------------------------------------------------------------
def hammer(mechanism, workloads, expected, n_threads=8, rounds=6):
    """Each thread answers its own workload repeatedly; every result
    must equal that workload's single-threaded reference."""
    failures: list[str] = []
    barrier = threading.Barrier(n_threads)

    def worker(index: int) -> None:
        workload = workloads[index % len(workloads)]
        reference = expected[index % len(workloads)]
        barrier.wait()
        for _ in range(rounds):
            try:
                assert_results_bitwise_equal(
                    mechanism.answer_typed(workload), reference)
            except AssertionError as error:
                failures.append(f"thread {index}: {error}")
                return

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures[0]


def test_concurrent_answering_no_result_bleed(dataset):
    mechanism = fitted("HDG", dataset)
    workloads = [seeded_mixed_workload(8, 2, seed=1000 + index)
                 for index in range(4)]
    expected = [mechanism.answer_typed(workload) for workload in workloads]
    hammer(mechanism, workloads, expected)
    stats = mechanism.plan_cache_stats()
    # Every lookup is accounted exactly once, hit or miss.
    assert stats["hits"] + stats["misses"] == 4 + 8 * 6


def test_concurrent_answering_under_tiny_cache_eviction(dataset):
    # More distinct workloads than cache slots: constant eviction churn
    # must never mix one workload's compiled plan into another's answer.
    mechanism = fitted("TDG", dataset)
    mechanism._typed_plan_cache = PlanCache(capacity=2)
    workloads = [seeded_mixed_workload(6, 2, seed=2000 + index)
                 for index in range(6)]
    expected = [mechanism.answer_typed(workload) for workload in workloads]
    hammer(mechanism, workloads, expected, n_threads=6, rounds=4)
    stats = mechanism.plan_cache_stats()
    assert stats["size"] <= 2
    assert stats["evictions"] > 0
    assert stats["hits"] + stats["misses"] == 6 + 6 * 4
