"""Differential tests for the workload-level stacked grid lookup.

Grid mechanisms answer every 1-D and 2-D primitive of a workload — on
any attribute or attribute pair — with one call into their
:class:`~repro.core.grid.GridStack`.  These tests pin that single call,
**bitwise** (compared as ``uint64`` views), against the per-grid
``Grid1D.answer_ranges`` / ``Grid2D.answer_ranges`` of each pair, for
TDG, ITDG, HDG, IHDG and CALM, and against the independent per-grid
arithmetic in ``tests/oracles/prefix_lookups.py``.  Every attribute pair
is queried in both attribute orders, and the intervals include ones
narrower than one cell (an empty fully-covered block) and the full
domain.
"""

from itertools import permutations

import numpy as np
import pytest

from repro import build_mechanism, make_dataset
from repro.core import SummedAreaTable
from repro.queries import RangeQuery

from oracles.prefix_lookups import (grid1d_answers, grid2d_response_answers,
                                    grid2d_uniform_answers)

N_ATTRIBUTES = 4
DOMAIN_SIZE = 32
#: Granularities with cells wider than one value (CALM's are single values).
GRID_MECHANISMS = {"TDG": {"granularity": 4}, "ITDG": {"granularity": 4},
                   "HDG": {"granularities": (8, 4)},
                   "IHDG": {"granularities": (8, 4)}, "CALM": {}}


@pytest.fixture(scope="module")
def dataset():
    return make_dataset("normal", 6_000, N_ATTRIBUTES, DOMAIN_SIZE,
                        rng=np.random.default_rng(21))


def fitted(name, dataset):
    return build_mechanism(name, 1.0, seed=3,
                           **GRID_MECHANISMS[name]).fit(dataset)


def intervals(rng, n_random=40):
    """Random intervals plus sub-cell, single-value and full-domain ones."""
    lows = rng.integers(0, DOMAIN_SIZE, n_random)
    highs = np.minimum(DOMAIN_SIZE - 1,
                       lows + rng.integers(0, DOMAIN_SIZE, n_random))
    special = np.array([(0, DOMAIN_SIZE - 1), (5, 6), (9, 9), (0, 0),
                        (DOMAIN_SIZE - 1, DOMAIN_SIZE - 1), (1, 2),
                        (17, 18), (0, DOMAIN_SIZE - 2), (1, DOMAIN_SIZE - 1)])
    return (np.concatenate((lows, special[:, 0])),
            np.concatenate((highs, special[:, 1])))


def assert_bitwise(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def pair_reference(mechanism, first, second, row_lows, row_highs, col_lows,
                   col_highs):
    """One pair's ranges answered by ``Grid2D.answer_ranges`` and by the
    oracle arithmetic, in query order."""
    grids = mechanism.grids_2d if hasattr(mechanism, "grids_2d") \
        else mechanism.grids
    key = (first, second)
    if key not in grids:
        key = (second, first)
        row_lows, row_highs, col_lows, col_highs = \
            col_lows, col_highs, row_lows, row_highs
    grid, bounds = grids[key], (row_lows, row_highs, col_lows, col_highs)
    matrix = getattr(mechanism, "response_matrices", {}).get(key)
    if matrix is None:
        return (grid.answer_ranges(*bounds),
                grid2d_uniform_answers(grid.frequencies, grid.cell_width,
                                       *bounds))
    return (grid.answer_ranges(*bounds,
                               response_index=SummedAreaTable(matrix)),
            grid2d_response_answers(grid.frequencies, matrix,
                                    grid.cell_width, *bounds))


@pytest.mark.parametrize("name", GRID_MECHANISMS)
def test_stacked_2d_lookup_matches_per_pair_grids(name, dataset):
    mechanism = fitted(name, dataset)
    rng = np.random.default_rng(5)
    columns = [[] for _ in range(6)]
    expected = []  # (per-grid, oracle) answer pairs
    for first, second in permutations(range(N_ATTRIBUTES), 2):
        row_lows, row_highs = intervals(rng)
        col_lows, col_highs = intervals(rng)
        order = rng.permutation(row_lows.size)
        col_lows, col_highs = col_lows[order], col_highs[order]
        firsts = np.full(row_lows.size, first, dtype=np.int64)
        seconds = np.full(row_lows.size, second, dtype=np.int64)
        for column, values in zip(columns, (firsts, seconds, row_lows,
                                            row_highs, col_lows, col_highs)):
            column.append(values)
        expected.append(pair_reference(mechanism, first, second, row_lows,
                                       row_highs, col_lows, col_highs))
    # One call over every pair in both orders, interleaved.
    shuffle = rng.permutation(sum(part.size for part in columns[0]))
    stacked = mechanism._answer_ranges_2d(
        *(np.concatenate(column)[shuffle] for column in columns))
    for reference in zip(*expected):
        assert_bitwise(stacked, np.concatenate(reference)[shuffle])


@pytest.mark.parametrize("name", GRID_MECHANISMS)
def test_stacked_1d_lookup_matches_per_grid_answers(name, dataset):
    mechanism = fitted(name, dataset)
    rng = np.random.default_rng(6)
    attributes, lows, highs, expected = [], [], [], []
    for attribute in range(N_ATTRIBUTES):
        attribute_lows, attribute_highs = intervals(rng)
        attributes.append(np.full(attribute_lows.size, attribute,
                                  dtype=np.int64))
        lows.append(attribute_lows)
        highs.append(attribute_highs)
        if hasattr(mechanism, "grids_1d"):
            grid = mechanism.grids_1d[attribute]
            expected.append((grid.answer_ranges(attribute_lows,
                                                attribute_highs),
                             grid1d_answers(grid.frequencies, grid.cell_width,
                                            attribute_lows, attribute_highs)))
        else:  # TDG family: marginalise a pair grid holding the attribute
            other = 0 if attribute != 0 else 1
            expected.append(pair_reference(
                mechanism, attribute, other, attribute_lows, attribute_highs,
                np.zeros_like(attribute_lows),
                np.full_like(attribute_lows, DOMAIN_SIZE - 1)))
    shuffle = rng.permutation(sum(part.size for part in attributes))
    stacked = mechanism._answer_ranges_1d(
        *(np.concatenate(column)[shuffle]
          for column in (attributes, lows, highs)))
    for reference in zip(*expected):
        assert_bitwise(stacked, np.concatenate(reference)[shuffle])


@pytest.mark.parametrize("name", GRID_MECHANISMS)
def test_per_grid_indexes_are_views_into_the_stack(name, dataset):
    mechanism = fitted(name, dataset)
    stack = mechanism._grid_stack()
    grids = mechanism.grids_2d if hasattr(mechanism, "grids_2d") \
        else mechanism.grids
    for grid in grids.values():
        index = grid.build_index()
        for table, stacked in ((index.cells._table,
                                stack._index_2d.cells._table),
                               (index._row_cum, stack._index_2d._row_cum),
                               (index._freq_padded,
                                stack._index_2d._freq_padded)):
            assert np.shares_memory(table, stacked)
    for grid in getattr(mechanism, "grids_1d", {}).values():
        assert np.shares_memory(grid.build_index()._cell_prefix,
                                stack._index_1d._cell_prefix)
    for index in stack.response_indexes.values():
        assert np.shares_memory(index._table, stack._responses._table)
    # Answering does not rebuild an up-to-date stack.
    mechanism.answer_workload([RangeQuery.from_dict({0: (1, 9), 1: (2, 13)}),
                               RangeQuery.from_dict({2: (0, 30)})])
    assert mechanism._grid_stack() is stack
