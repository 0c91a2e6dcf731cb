"""Prefix-sum indexes for O(1) range answering (the batch query engine).

Phase 3 originally answered every range query by looping over grid cells
in Python.  This module precomputes summed-area tables (2-D prefix sums)
so that a range answer becomes a constant number of corner lookups:

* :class:`PrefixIndex1D` — answers 1-D range queries over a
  :class:`~repro.core.grid.Grid1D` frequency vector under the uniformity
  assumption.  The value-level prefix ``V(x)`` (mass strictly below value
  ``x``) is ``P[x // w] + (x mod w) * f[x // w] / w`` where ``P`` is the
  cell prefix sum, so an answer is ``V(high + 1) - V(low)``.
* :class:`PrefixIndex2D` — the 2-D analogue for
  :class:`~repro.core.grid.Grid2D` under the uniformity assumption (the
  TDG rule).  The bilinear value prefix ``D(x, y)`` decomposes into a
  cell summed-area term, two partial-band terms and a corner term, each a
  single table lookup.
* :class:`SummedAreaTable` — a plain 2-D prefix sum over an arbitrary
  value-level matrix; used for the HDG response matrices, where partially
  covered cells contribute exact response-matrix mass
  (:func:`response_rule_answers`).

Each index covers one grid or a *stack* of equally shaped grids: the
tables of all grids live in one flat array, every answering method
takes an optional per-range grid number (``rows``/``slots``), and
:meth:`~PrefixIndex1D.slot` hands out one grid's index as a view into
the stack.  All three evaluate vectorised over arrays of interval
endpoints, which is what makes workload batching (thousands of queries
per call) cheap.  The answers are algebraically identical to the
per-cell loops kept in ``tests/oracles/``; the test suite asserts
agreement to 1e-9 on randomised inputs.
"""

from __future__ import annotations

import copy

import numpy as np


def prefix_sum_1d(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: ``P[i] = sum(values[:i])``, length ``n + 1``."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("prefix_sum_1d expects a 1-D array")
    out = np.zeros(values.size + 1)
    np.cumsum(values, out=out[1:])
    return out


def summed_area_table(matrix) -> np.ndarray:
    """Exclusive 2-D prefix sums: ``T[i, j] = matrix[:i, :j].sum()``.

    The returned table has one extra leading row and column of zeros so
    that rectangle sums need no boundary special-casing.  A sequence (or
    3-D array) of equally shaped matrices gets one table each, stacked
    without first copying the matrices into one array.
    """
    stacked = np.ndim(matrix[0]) == 2
    matrices = matrix if stacked else [matrix]
    shape = np.shape(matrices[0])
    if len(shape) != 2:
        raise ValueError("summed_area_table expects a 2-D array or a stack")
    table = np.zeros((len(matrices), shape[0] + 1, shape[1] + 1))
    for out, single in zip(table, matrices):
        np.cumsum(np.asarray(single, dtype=float), axis=0, out=out[1:, 1:])
    np.cumsum(table[:, 1:, 1:], axis=-1, out=table[:, 1:, 1:])
    return table if stacked else table[0]


class _Stacked:
    """Base of the stackable indexes: every array attribute is a flat
    table holding ``_size`` entries per grid (and every stacked attribute
    one entry per grid), so :meth:`slot` can cut one grid out of each."""

    _size: int

    def slot(self, slot: int):
        """One grid's index as a view into this stack's tables."""
        view = copy.copy(self)
        for name, table in vars(self).items():
            if isinstance(table, np.ndarray):
                setattr(view, name, table[slot * self._size:
                                          (slot + 1) * self._size])
            elif isinstance(table, _Stacked):
                setattr(view, name, table.slot(slot))
        return view


class SummedAreaTable(_Stacked):
    """O(1) inclusive rectangle sums over a fixed value-level matrix
    (or a stack of them, see :func:`summed_area_table`)."""

    def __init__(self, matrix):
        table = summed_area_table(matrix)
        self.shape = table.shape[-2] - 1, table.shape[-1] - 1
        self._stride = self.shape[1] + 1
        self._size = (self.shape[0] + 1) * self._stride
        self._table = table.reshape(-1)

    def rect_sum(self, row_low, row_high, col_low, col_high) -> np.ndarray:
        """Sum over the inclusive rectangle(s) ``[row_low..row_high] x [col_low..col_high]``.

        All bounds broadcast; rectangles with ``low > high`` in either
        axis contribute 0.
        """
        rl = np.asarray(row_low, dtype=np.int64)
        rh = np.asarray(row_high, dtype=np.int64)
        cl = np.asarray(col_low, dtype=np.int64)
        ch = np.asarray(col_high, dtype=np.int64)
        empty = (rl > rh) | (cl > ch)
        rl, rh, cl, ch = (np.where(empty, 0, a) for a in (rl, rh, cl, ch))
        return np.where(empty, 0.0,
                        self.corner_sums(0, rl, rh + 1, cl, ch + 1))

    def corner_sums(self, slots, row_low, row_end, col_low,
                    col_end) -> np.ndarray:
        """Four-corner sums over half-open rectangles, bounds in range."""
        low = slots * self._size + row_low * self._stride
        high = slots * self._size + row_end * self._stride
        table = self._table
        return (table[high + col_end] - table[low + col_end]
                - table[high + col_low] + table[low + col_low])


class PrefixIndex1D(_Stacked):
    """Uniformity-rule 1-D range answering in O(1) per query.

    Parameters
    ----------
    frequencies:
        Cell frequency vector of length ``g``, or an ``(n, g)`` stack of
        them (answering then takes each range's row).
    cell_width:
        Number of domain values per cell ``w`` (domain size is ``g * w``).
    """

    def __init__(self, frequencies: np.ndarray, cell_width: int):
        frequencies = np.asarray(frequencies, dtype=float)
        self.cell_width = int(cell_width)
        self.domain_size = frequencies.shape[-1] * self.cell_width
        rows = frequencies.reshape(-1, frequencies.shape[-1])
        self._size = rows.shape[1] + 1
        tables = np.zeros((2, rows.shape[0], self._size))
        np.cumsum(rows, axis=1, out=tables[0, :, 1:])
        # One trailing zero cell so position c (one past the domain) indexes
        # safely with a zero fractional part.
        tables[1, :, :-1] = rows
        self._cell_prefix, self._freq_padded = tables.reshape(2, -1)

    def value_prefix(self, positions, rows=0) -> np.ndarray:
        """Mass strictly below each position (positions in ``[0, c]``)."""
        cell, frac = np.divmod(np.asarray(positions, dtype=np.int64),
                               self.cell_width)
        at = rows * self._size + cell
        return (self._cell_prefix[at]
                + frac * self._freq_padded[at] / self.cell_width)

    def answer(self, lows, highs, rows=0) -> np.ndarray:
        """Vectorised inclusive range answers ``[low, high]``."""
        return (self.value_prefix(np.asarray(highs, dtype=np.int64) + 1, rows)
                - self.value_prefix(lows, rows))


class PrefixIndex2D(_Stacked):
    """Uniformity-rule 2-D range answering in O(1) per query.

    Precomputes the cell summed-area table (:attr:`cells`) plus the
    row/column partial cumulative sums needed by the bilinear value
    prefix

    ``D(x, y) = S[i, j] + fx/w * R[i, j] + fy/w * C[i, j] + fx*fy/w^2 * f[i, j]``

    with ``i = x // w``, ``fx = x mod w`` (and likewise ``j``/``fy``), so a
    range answer is the usual four-corner difference of ``D``.  A
    ``(n, g, g)`` stack of frequencies gets one set of tables per grid.
    """

    def __init__(self, frequencies: np.ndarray, cell_width: int):
        frequencies = np.asarray(frequencies, dtype=float)
        if frequencies.ndim not in (2, 3):
            raise ValueError("PrefixIndex2D expects a 2-D frequency array "
                             "or a stack of them")
        grids = frequencies.reshape(-1, *frequencies.shape[-2:])
        n_grids, g_rows, g_cols = grids.shape
        self.cell_width = int(cell_width)
        self.cells = SummedAreaTable(grids)
        self._stride = g_cols + 1
        self._size = (g_rows + 1) * self._stride
        # Partial sums along each axis, zero-padded so cell index g is valid.
        tables = np.zeros((3, n_grids, g_rows + 1, g_cols + 1))
        np.cumsum(grids, axis=2, out=tables[0, :, :g_rows, 1:])
        np.cumsum(grids, axis=1, out=tables[1, :, 1:, :g_cols])
        tables[2, :, :g_rows, :g_cols] = grids
        self._row_cum, self._col_cum, self._freq_padded = \
            tables.reshape(3, -1)

    def value_prefix(self, xs, ys, slots=0) -> np.ndarray:
        """Bilinear mass strictly below ``(x, y)`` (positions in ``[0, c]``)."""
        x = np.asarray(xs, dtype=np.int64)
        y = np.asarray(ys, dtype=np.int64)
        w = self.cell_width
        i, fx = np.divmod(x, w)
        j, fy = np.divmod(y, w)
        at = slots * self._size + i * self._stride + j
        return (self.cells._table[at]
                + fx * self._row_cum[at] / w
                + fy * self._col_cum[at] / w
                + fx * fy * self._freq_padded[at] / (w * w))

    def answer_uniform(self, row_lows, row_highs, col_lows, col_highs,
                       slots=0) -> np.ndarray:
        """Vectorised 2-D range answers under the uniformity assumption."""
        rl = np.asarray(row_lows, dtype=np.int64)
        rh = np.asarray(row_highs, dtype=np.int64) + 1
        cl = np.asarray(col_lows, dtype=np.int64)
        ch = np.asarray(col_highs, dtype=np.int64) + 1
        return (self.value_prefix(rh, ch, slots)
                - self.value_prefix(rl, ch, slots)
                - self.value_prefix(rh, cl, slots)
                + self.value_prefix(rl, cl, slots))


def response_rule_answers(index: PrefixIndex2D, response: SummedAreaTable,
                          row_lows, row_highs, col_lows, col_highs,
                          slots=0) -> np.ndarray:
    """HDG-rule 2-D answers (Section 4.1 Phase 3) of valid intervals.

    Fully covered cells contribute their grid frequency (the cell
    summed-area table); partially covered cells the response-matrix mass
    of the query rectangle minus that of the fully covered block.
    """
    row_lows, row_highs, col_lows, col_highs = (
        np.asarray(bound, dtype=np.int64)
        for bound in (row_lows, row_highs, col_lows, col_highs))
    w = index.cell_width
    first_row, last_row = full_cell_range(row_lows, row_highs, w)
    first_col, last_col = full_cell_range(col_lows, col_highs, w)
    grid_part = index.cells.corner_sums(slots, first_row, last_row + 1,
                                        first_col, last_col + 1)
    matrix_all = response.corner_sums(slots, row_lows, row_highs + 1,
                                      col_lows, col_highs + 1)
    matrix_full = response.corner_sums(slots, first_row * w,
                                       (last_row + 1) * w, first_col * w,
                                       (last_col + 1) * w)
    # An empty fully covered block is read in bounds, then zeroed.
    empty = (first_row > last_row) | (first_col > last_col)
    if empty.any():
        grid_part = np.where(empty, 0.0, grid_part)
        matrix_full = np.where(empty, 0.0, matrix_full)
    return grid_part + matrix_all - matrix_full


def full_cell_range(lows: np.ndarray, highs: np.ndarray,
                    cell_width: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-coordinate range ``[first, last]`` of fully covered cells.

    ``first > last`` when the interval covers no cell entirely.
    """
    lows = np.asarray(lows, dtype=np.int64)
    highs = np.asarray(highs, dtype=np.int64)
    first = -(-lows // cell_width)            # ceil division
    last = (highs + 1) // cell_width - 1
    return first, last
