"""Per-cell and per-combination answering loops, kept as references.

These are the original Phase-3 implementations the vectorised engine
replaced, moved here as functions of the fitted object: the grid cell
loops (uniformity and response-matrix rules), HIO's and LHIO's plain
walks over every node combination and MSW's slice-sum product.
``tests/test_query_engine.py`` and ``tests/test_vectorized_paths.py``
pin the production paths against them.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def grid1d_answer_range_loop(grid, low: int, high: int) -> float:
    """1-D range answer by walking the overlapped cells."""
    if not 0 <= low <= high < grid.domain_size:
        raise ValueError(f"invalid interval [{low}, {high}]")
    frequencies = grid.frequencies
    answer = 0.0
    first_cell = low // grid.cell_width
    last_cell = high // grid.cell_width
    for cell in range(first_cell, last_cell + 1):
        cell_low, cell_high = grid.cell_bounds(cell)
        overlap = min(high, cell_high) - max(low, cell_low) + 1
        answer += frequencies[cell] * overlap / grid.cell_width
    return float(answer)


def grid2d_answer_range_loop(grid, interval_row: tuple[int, int],
                             interval_col: tuple[int, int],
                             response_matrix: np.ndarray | None = None) -> float:
    """2-D range answer by walking the overlapped cells.

    Partially covered cells take a uniform share of their frequency
    (``response_matrix=None``, the TDG rule) or the response-matrix mass
    of the covered values (the HDG rule).
    """
    row_low, row_high = interval_row
    col_low, col_high = interval_col
    for low, high in ((row_low, row_high), (col_low, col_high)):
        if not 0 <= low <= high < grid.domain_size:
            raise ValueError(f"invalid interval [{low}, {high}]")
    grid._check_response_shape(response_matrix, None)

    frequencies = grid.frequencies
    width = grid.cell_width
    answer = 0.0
    cell_area = width * width
    for row in range(row_low // width, row_high // width + 1):
        for col in range(col_low // width, col_high // width + 1):
            c_row_low, c_row_high, c_col_low, c_col_high = grid.cell_bounds(row, col)
            overlap_rows = min(row_high, c_row_high) - max(row_low, c_row_low) + 1
            overlap_cols = min(col_high, c_col_high) - max(col_low, c_col_low) + 1
            if overlap_rows == width and overlap_cols == width:
                answer += frequencies[row, col]
            elif response_matrix is None:
                answer += frequencies[row, col] * overlap_rows * overlap_cols \
                    / cell_area
            else:
                r_lo = max(row_low, c_row_low)
                r_hi = min(row_high, c_row_high)
                k_lo = max(col_low, c_col_low)
                k_hi = min(col_high, c_col_high)
                answer += float(
                    response_matrix[r_lo:r_hi + 1, k_lo:k_hi + 1].sum())
    return float(answer)


def hio_answer_loop(mechanism, query) -> float:
    """HIO answer summing every d-dim node combination one at a time."""
    answer = 0.0
    for combination in product(*mechanism._decompositions(query)):
        answer += mechanism._interval_frequency(tuple(combination))
    return answer


def msw_answer_loop(mechanism, query) -> float:
    """MSW answer as the product of per-attribute distribution slice sums."""
    answer = 1.0
    for predicate in query.predicates:
        distribution = mechanism.distributions[predicate.attribute]
        answer *= float(distribution[predicate.low:predicate.high + 1].sum())
    return answer


def lhio_answer_pair_loop(mechanism, query) -> float:
    """LHIO 2-D answer summing every (row node, column node) frequency."""
    attr_a, attr_b = query.attributes
    pair_hierarchy, flipped = mechanism._pair_hierarchy(attr_a, attr_b)
    interval_row, interval_col = query.interval(attr_a), query.interval(attr_b)
    if flipped:
        interval_row, interval_col = interval_col, interval_row
    answer = 0.0
    for node_row in mechanism.hierarchy.decompose(*interval_row):
        for node_col in mechanism.hierarchy.decompose(*interval_col):
            answer += pair_hierarchy.frequency(node_row, node_col,
                                               mechanism._dataset,
                                               mechanism.epsilon, mechanism.rng)
    return answer


def mechanism_answer_loop(mechanism, queries) -> np.ndarray:
    """Per-query answers with every lookup on the reference loops.

    TDG-family grids, HDG's 1-D grids, 2-D grids and response matrices,
    and LHIO's hierarchy nodes are read through the loops above; 1-D
    queries on TDG and LHIO are padded to a pair with a full-domain
    partner, and λ > 2 queries combine the looped 2-D answers with the
    per-query :func:`~repro.core.estimate_lambda_query`.  HIO and MSW
    use their own reference loops, Uni its scalar ``_answer``.
    """
    from repro.baselines import HIO, LHIO, MSW
    from repro.core import HDG, TDG, estimate_lambda_query
    from repro.queries import Predicate, RangeQuery

    if isinstance(mechanism, HIO):
        return np.array([hio_answer_loop(mechanism, query)
                         for query in queries])
    if isinstance(mechanism, MSW):
        return np.array([msw_answer_loop(mechanism, query)
                         for query in queries])

    def padded(query):
        attribute = query.attributes[0]
        other = 0 if attribute != 0 else 1
        return RangeQuery((query.predicates[0],
                           Predicate(other, 0, mechanism._domain_size - 1)))

    if isinstance(mechanism, TDG):
        def answer_pair(query):
            grid, interval_a, interval_b = mechanism._pair_intervals(query)
            return grid2d_answer_range_loop(grid, interval_a, interval_b)

        def answer_single(query):
            return answer_pair(padded(query))
    elif isinstance(mechanism, HDG):
        def answer_pair(query):
            key, interval_a, interval_b = mechanism._pair_intervals(query)
            return grid2d_answer_range_loop(
                mechanism.grids_2d[key], interval_a, interval_b,
                mechanism.response_matrices.get(key))

        def answer_single(query):
            attribute = query.attributes[0]
            return grid1d_answer_range_loop(mechanism.grids_1d[attribute],
                                            *query.interval(attribute))
    elif isinstance(mechanism, LHIO):
        def answer_pair(query):
            return lhio_answer_pair_loop(mechanism, query)

        def answer_single(query):
            return answer_pair(padded(query))
    else:
        return np.array([float(mechanism._answer(query)) for query in queries])

    answers = []
    for query in queries:
        if query.dimension == 1:
            answers.append(answer_single(query))
        elif query.dimension == 2:
            answers.append(answer_pair(query))
        else:
            answers.append(estimate_lambda_query(
                query, answer_pair, method=mechanism.estimation_method,
                max_iterations=mechanism.estimation_iterations))
    return np.array(answers, dtype=float)
