"""Cross-grid consistency enforcement (Phase 2, Section 4.2).

Each attribute ``a`` appears in several grids — its own 1-D grid (HDG
only) and the ``d - 1`` 2-D grids of pairs containing it.  Because every
grid is estimated from an independent user group, the marginal frequencies
of ``a`` implied by different grids disagree.  The consistency step
computes, for each coarse bucket ``j`` of ``a`` (the 2-D granularity
``g2`` defines the buckets), the variance-optimal weighted average of the
per-grid bucket totals and then shifts each grid's cells so its bucket
total matches the average.

The weights follow the analysis in the paper / CALM: a grid in which the
bucket total is the sum of ``|S_i|`` cells contributes weight proportional
to ``1 / |S_i|``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GridView:
    """A view of one grid's cells as seen from a single attribute.

    Parameters
    ----------
    frequencies:
        The grid's cell-frequency array (1-D of length ``g1`` for a 1-D
        grid, 2-D of shape ``(g2, g2)`` for a 2-D grid).  Updated in place
        by :func:`enforce_attribute_consistency`.
    axis:
        Which axis of ``frequencies`` corresponds to the attribute being
        reconciled (ignored for 1-D grids).
    cells_per_bucket:
        How many of the attribute's own cells fall inside one consistency
        bucket.  With a common bucket count of ``g2``, a 2-D grid has 1
        cell per bucket along the attribute axis and a 1-D grid has
        ``g1 / g2`` cells per bucket.
    """

    frequencies: np.ndarray
    axis: int
    cells_per_bucket: int

    def bucket_totals(self, n_buckets: int) -> np.ndarray:
        """Sum of frequencies per consistency bucket along the attribute axis."""
        return _grouped_cells(self, n_buckets).sum(axis=(1, 2))

    def cells_contributing(self) -> int:
        """Number of cells whose frequencies sum into one bucket total (|S_i|)."""
        other = self.frequencies.size // self.frequencies.shape[self.axis]
        return self.cells_per_bucket * other

    def apply_adjustment(self, bucket_deltas: np.ndarray) -> None:
        """Distribute each bucket's total adjustment equally over its cells."""
        grouped = _grouped_cells(self, bucket_deltas.shape[0])
        per_cell = bucket_deltas / (self.cells_per_bucket * grouped.shape[2])
        grouped += per_cell[:, None, None]
        # ``grouped`` shares memory with the grid, so += updates it.


def _grouped_cells(view: GridView, n_buckets: int) -> np.ndarray:
    """The view's cells as a writable ``(buckets, cells_per_bucket, other)``
    tensor sharing memory with the grid's frequency array."""
    moved = np.moveaxis(view.frequencies, view.axis, 0)
    attr_cells = moved.shape[0]
    if attr_cells != n_buckets * view.cells_per_bucket:
        raise ValueError(
            f"grid has {attr_cells} cells along the attribute axis, which is "
            f"not {n_buckets} buckets x {view.cells_per_bucket} cells")
    return moved.reshape(n_buckets, view.cells_per_bucket, -1)


def enforce_attribute_consistency(views: list[GridView], n_buckets: int) -> np.ndarray:
    """Make all grids agree on one attribute's bucket totals.

    Views with identical grouped shapes — the ``d - 1`` 2-D grids of an
    attribute all view as ``(g2, 1, g2)`` — are stacked into one tensor,
    so one consistency round costs a handful of whole-stack reductions
    instead of one reduction and one adjustment pass per view (the
    original per-view path is the reference in ``tests/oracles/``).

    Returns the consensus bucket totals (mainly for testing/inspection);
    the grids referenced by ``views`` are modified in place.
    """
    if not views:
        raise ValueError("need at least one grid view")
    grouped = [_grouped_cells(view, n_buckets) for view in views]
    totals = np.empty((len(views), n_buckets))
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for position, cells in enumerate(grouped):
        by_shape.setdefault(cells.shape, []).append(position)
    for members in by_shape.values():
        if len(members) == 1:
            totals[members[0]] = grouped[members[0]].sum(axis=(1, 2))
        else:
            stacked = np.stack([grouped[position] for position in members])
            totals[members] = stacked.sum(axis=(2, 3))
    weights = np.array([1.0 / view.cells_contributing() for view in views])
    weights = weights / weights.sum()
    consensus = weights @ totals
    # Distribute each view's bucket deltas equally over its cells; the
    # grouped tensors share memory with the grids, so += updates them.
    for view, cells, current in zip(views, grouped, totals):
        per_cell = (consensus - current) / (view.cells_per_bucket
                                            * cells.shape[2])
        cells += per_cell[:, None, None]
    return consensus
