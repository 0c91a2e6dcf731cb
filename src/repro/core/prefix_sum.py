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
  covered cells contribute exact response-matrix mass.

All three evaluate vectorised over arrays of interval endpoints, which is
what makes workload batching (thousands of queries per call) cheap.  The
answers are algebraically identical to the per-cell loops kept in
``tests/oracles/``; the test suite asserts agreement to 1e-9 on
randomised inputs.
"""

from __future__ import annotations

import numpy as np


def prefix_sum_1d(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: ``P[i] = sum(values[:i])``, length ``n + 1``."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("prefix_sum_1d expects a 1-D array")
    out = np.zeros(values.size + 1)
    np.cumsum(values, out=out[1:])
    return out


def summed_area_table(matrix: np.ndarray) -> np.ndarray:
    """Exclusive 2-D prefix sums: ``T[i, j] = matrix[:i, :j].sum()``.

    The returned table has one extra leading row and column of zeros so
    that rectangle sums need no boundary special-casing.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("summed_area_table expects a 2-D array")
    table = np.zeros((matrix.shape[0] + 1, matrix.shape[1] + 1))
    np.cumsum(matrix, axis=0, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    return table


def _rect_sum(table: np.ndarray, row_low, row_high, col_low,
              col_high) -> np.ndarray:
    """Inclusive four-corner rectangle sums over an exclusive prefix table.

    All four bounds broadcast; rectangles with ``low > high`` in either
    axis contribute 0.
    """
    rl = np.asarray(row_low, dtype=np.int64)
    rh = np.asarray(row_high, dtype=np.int64)
    cl = np.asarray(col_low, dtype=np.int64)
    ch = np.asarray(col_high, dtype=np.int64)
    empty = (rl > rh) | (cl > ch)
    rl, rh, cl, ch = (np.where(empty, 0, a) for a in (rl, rh, cl, ch))
    total = (table[rh + 1, ch + 1] - table[rl, ch + 1]
             - table[rh + 1, cl] + table[rl, cl])
    return np.where(empty, 0.0, total)


class SummedAreaTable:
    """O(1) inclusive rectangle sums over a fixed value-level matrix."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        self.shape = matrix.shape
        self._table = summed_area_table(matrix)

    def rect_sum(self, row_low, row_high, col_low, col_high) -> np.ndarray:
        """Sum over the inclusive rectangle(s) ``[row_low..row_high] x [col_low..col_high]``."""
        return _rect_sum(self._table, row_low, row_high, col_low, col_high)


class PrefixIndex1D:
    """Uniformity-rule 1-D range answering in O(1) per query.

    Parameters
    ----------
    frequencies:
        Cell frequency vector of length ``g``.
    cell_width:
        Number of domain values per cell ``w`` (domain size is ``g * w``).
    """

    def __init__(self, frequencies: np.ndarray, cell_width: int):
        frequencies = np.asarray(frequencies, dtype=float)
        self.cell_width = int(cell_width)
        self.domain_size = frequencies.size * self.cell_width
        self._cell_prefix = prefix_sum_1d(frequencies)
        # One trailing zero cell so position c (one past the domain) indexes
        # safely with a zero fractional part.
        self._freq_padded = np.concatenate((frequencies, [0.0]))

    def value_prefix(self, positions) -> np.ndarray:
        """Mass strictly below each position (positions in ``[0, c]``)."""
        x = np.asarray(positions, dtype=np.int64)
        cell, frac = np.divmod(x, self.cell_width)
        return (self._cell_prefix[cell]
                + frac * self._freq_padded[cell] / self.cell_width)

    def answer(self, lows, highs) -> np.ndarray:
        """Vectorised inclusive range answers ``[low, high]``."""
        return (self.value_prefix(np.asarray(highs, dtype=np.int64) + 1)
                - self.value_prefix(lows))


class PrefixIndex2D:
    """Uniformity-rule 2-D range answering in O(1) per query.

    Precomputes the cell summed-area table plus the row/column partial
    cumulative sums needed by the bilinear value prefix

    ``D(x, y) = S[i, j] + fx/w * R[i, j] + fy/w * C[i, j] + fx*fy/w^2 * f[i, j]``

    with ``i = x // w``, ``fx = x mod w`` (and likewise ``j``/``fy``), so a
    range answer is the usual four-corner difference of ``D``.
    """

    def __init__(self, frequencies: np.ndarray, cell_width: int):
        frequencies = np.asarray(frequencies, dtype=float)
        if frequencies.ndim != 2:
            raise ValueError("PrefixIndex2D expects a 2-D frequency array")
        g_rows, g_cols = frequencies.shape
        self.cell_width = int(cell_width)
        self._cell_sat = summed_area_table(frequencies)
        # Partial sums along each axis, zero-padded so cell index g is valid.
        self._row_cum = np.zeros((g_rows + 1, g_cols + 1))
        np.cumsum(frequencies, axis=1, out=self._row_cum[:g_rows, 1:])
        self._col_cum = np.zeros((g_rows + 1, g_cols + 1))
        np.cumsum(frequencies, axis=0, out=self._col_cum[1:, :g_cols])
        self._freq_padded = np.zeros((g_rows + 1, g_cols + 1))
        self._freq_padded[:g_rows, :g_cols] = frequencies

    def value_prefix(self, xs, ys) -> np.ndarray:
        """Bilinear mass strictly below ``(x, y)`` (positions in ``[0, c]``)."""
        x = np.asarray(xs, dtype=np.int64)
        y = np.asarray(ys, dtype=np.int64)
        w = self.cell_width
        i, fx = np.divmod(x, w)
        j, fy = np.divmod(y, w)
        return (self._cell_sat[i, j]
                + fx * self._row_cum[i, j] / w
                + fy * self._col_cum[i, j] / w
                + fx * fy * self._freq_padded[i, j] / (w * w))

    def answer_uniform(self, row_lows, row_highs, col_lows, col_highs) -> np.ndarray:
        """Vectorised 2-D range answers under the uniformity assumption."""
        rl = np.asarray(row_lows, dtype=np.int64)
        rh = np.asarray(row_highs, dtype=np.int64) + 1
        cl = np.asarray(col_lows, dtype=np.int64)
        ch = np.asarray(col_highs, dtype=np.int64) + 1
        return (self.value_prefix(rh, ch) - self.value_prefix(rl, ch)
                - self.value_prefix(rh, cl) + self.value_prefix(rl, cl))

    def cell_block_sum(self, row_low, row_high, col_low, col_high) -> np.ndarray:
        """Inclusive *cell-coordinate* block sums (empty blocks yield 0)."""
        return _rect_sum(self._cell_sat, row_low, row_high, col_low, col_high)


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
