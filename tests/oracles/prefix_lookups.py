"""Per-grid prefix-sum lookups, written out as bitwise references.

Independent copies of the per-grid answering arithmetic — the 1-D value
prefix, the bilinear 2-D uniformity rule and the response-matrix (HDG)
rule — each over one grid's own freshly built tables, in the exact
elementwise order the engine must keep.  The stacked workload lookup of
:class:`~repro.core.grid.GridStack` is compared against them as
``uint64`` views, so a reordered addition anywhere in the engine shows
up as a mismatch rather than passing under a tolerance.
"""

from __future__ import annotations

import numpy as np


def _summed_area_table(matrix: np.ndarray) -> np.ndarray:
    table = np.zeros((matrix.shape[0] + 1, matrix.shape[1] + 1))
    np.cumsum(matrix, axis=0, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    return table


def _rect_sum(table, row_low, row_high, col_low, col_high) -> np.ndarray:
    empty = (row_low > row_high) | (col_low > col_high)
    row_low, row_high, col_low, col_high = (
        np.where(empty, 0, bound)
        for bound in (row_low, row_high, col_low, col_high))
    total = (table[row_high + 1, col_high + 1] - table[row_low, col_high + 1]
             - table[row_high + 1, col_low] + table[row_low, col_low])
    return np.where(empty, 0.0, total)


def grid1d_answers(frequencies, cell_width, lows, highs) -> np.ndarray:
    """Uniformity-rule 1-D answers: ``V(high + 1) - V(low)``."""
    prefix = np.zeros(frequencies.size + 1)
    np.cumsum(frequencies, out=prefix[1:])
    padded = np.concatenate((frequencies, [0.0]))

    def value_prefix(positions):
        cell, frac = np.divmod(positions, cell_width)
        return prefix[cell] + frac * padded[cell] / cell_width

    return value_prefix(highs + 1) - value_prefix(lows)


def grid2d_uniform_answers(frequencies, cell_width, row_lows, row_highs,
                           col_lows, col_highs) -> np.ndarray:
    """Uniformity-rule 2-D answers: four corners of the bilinear prefix."""
    g_rows, g_cols = frequencies.shape
    w = cell_width
    cell_sat = _summed_area_table(frequencies)
    row_cum = np.zeros((g_rows + 1, g_cols + 1))
    np.cumsum(frequencies, axis=1, out=row_cum[:g_rows, 1:])
    col_cum = np.zeros((g_rows + 1, g_cols + 1))
    np.cumsum(frequencies, axis=0, out=col_cum[1:, :g_cols])
    padded = np.zeros((g_rows + 1, g_cols + 1))
    padded[:g_rows, :g_cols] = frequencies

    def value_prefix(x, y):
        i, fx = np.divmod(x, w)
        j, fy = np.divmod(y, w)
        return (cell_sat[i, j] + fx * row_cum[i, j] / w
                + fy * col_cum[i, j] / w + fx * fy * padded[i, j] / (w * w))

    rh, ch = row_highs + 1, col_highs + 1
    return (value_prefix(rh, ch) - value_prefix(row_lows, ch)
            - value_prefix(rh, col_lows) + value_prefix(row_lows, col_lows))


def grid2d_response_answers(frequencies, matrix, cell_width, row_lows,
                            row_highs, col_lows, col_highs) -> np.ndarray:
    """HDG-rule 2-D answers: full cells from the grid, partial cells
    from the response matrix."""
    w = cell_width
    first_row, last_row = -(-row_lows // w), (row_highs + 1) // w - 1
    first_col, last_col = -(-col_lows // w), (col_highs + 1) // w - 1
    matrix_sat = _summed_area_table(matrix)
    grid_part = _rect_sum(_summed_area_table(frequencies), first_row,
                          last_row, first_col, last_col)
    matrix_all = _rect_sum(matrix_sat, row_lows, row_highs, col_lows,
                           col_highs)
    matrix_full = _rect_sum(matrix_sat, first_row * w, (last_row + 1) * w - 1,
                            first_col * w, (last_col + 1) * w - 1)
    return grid_part + matrix_all - matrix_full
