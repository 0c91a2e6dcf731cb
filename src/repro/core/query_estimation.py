"""Estimation of a λ-D range-query answer from its 2-D sub-answers.

Algorithm 2 of the paper: a λ-D query ``q`` (λ > 2) is split into its
``C(λ,2)`` associated 2-D queries; their (already estimated) answers are
then combined into an estimate of ``q``'s answer.  The combination works
over the ``2^λ`` "orthant" queries ``Q(q)`` obtained by either keeping or
complementing each attribute's interval: every 2-D answer is the sum of
the ``2^(λ-2)`` orthants in which both of its attributes keep their
interval, which gives one Weighted Update constraint per pair.  The final
answer is the orthant in which every attribute keeps its interval.

The alternative combiner from Appendix A.8 (Maximum Entropy, solved by
iterative proportional fitting) is exposed through ``method="max_entropy"``
for the ablation benchmark.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..estimation import (Constraint, max_entropy_estimate, weighted_update,
                          weighted_update_batch)
from ..queries import RangeQuery
from ..queries.compiler import group_primitives
from .grid import GridStack

#: Signature of the callable that answers an associated 2-D sub-query.
PairAnswerFn = Callable[[RangeQuery], float]


def orthant_index(keep_mask: tuple[bool, ...]) -> int:
    """Index of an orthant in the 2^λ vector (bit i set = attribute i kept)."""
    index = 0
    for bit, keep in enumerate(keep_mask):
        if keep:
            index |= 1 << bit
    return index


def pair_constraint_indices(dimension: int, pos_a: int, pos_b: int) -> np.ndarray:
    """Orthant indices contributing to the 2-D answer of attributes at
    positions ``pos_a`` and ``pos_b`` (both intervals kept, others free)."""
    indices = []
    for mask in range(1 << dimension):
        if (mask >> pos_a) & 1 and (mask >> pos_b) & 1:
            indices.append(mask)
    return np.asarray(indices, dtype=np.int64)


def build_constraints(query: RangeQuery,
                      pair_answers: dict[tuple[int, int], float]) -> list[Constraint]:
    """Turn the 2-D sub-answers into Weighted Update constraints.

    ``pair_answers`` maps attribute-index pairs (as they appear in the
    query, sorted) to the estimated 2-D answers.  Targets are clipped at 0
    — negative 2-D answers would break the multiplicative update, and the
    mechanisms run Norm-Sub before reaching this point anyway.
    """
    attributes = query.attributes
    position = {attribute: pos for pos, attribute in enumerate(attributes)}
    constraints = []
    for (attr_a, attr_b), answer in pair_answers.items():
        indices = pair_constraint_indices(query.dimension,
                                          position[attr_a], position[attr_b])
        constraints.append(Constraint(indices=indices,
                                      target=max(0.0, float(answer))))
    return constraints


def estimate_lambda_query(query: RangeQuery, answer_pair: PairAnswerFn,
                          method: str = "weighted_update",
                          threshold: float = 1e-7,
                          max_iterations: int = 100,
                          track_history: bool = False):
    """Estimate a λ-D query's answer from a 2-D answering primitive.

    Parameters
    ----------
    query:
        The λ-D range query (λ >= 2).  For λ == 2 the 2-D primitive is
        called directly.
    answer_pair:
        Callable that returns the mechanism's estimate for any 2-D
        sub-query of ``query``.
    method:
        ``"weighted_update"`` (Algorithm 2, default) or ``"max_entropy"``
        (Appendix A.8).
    threshold, max_iterations:
        Convergence controls for the Weighted Update iteration.
    track_history:
        If True, also return the per-sweep change history (Figure 18).

    Returns
    -------
    float or (float, list[float])
        The estimated answer, plus the change history when requested.
    """
    if query.dimension < 2:
        raise ValueError("estimate_lambda_query requires a query with λ >= 2")
    if query.dimension == 2:
        answer = float(answer_pair(query))
        return (answer, []) if track_history else answer

    pair_answers: dict[tuple[int, int], float] = {}
    for sub_query in query.pairwise_subqueries():
        pair = sub_query.attributes
        pair_answers[pair] = float(answer_pair(sub_query))

    constraints = build_constraints(query, pair_answers)
    size = 1 << query.dimension
    target_index = size - 1  # every attribute keeps its interval
    # The orthants of Q(q) partition the population, so their answers sum to
    # 1; adding this normalisation constraint keeps the multiplicative update
    # on the probability simplex (matching the Maximum-Entropy formulation's
    # implicit normalisation).
    constraints.append(Constraint(indices=np.arange(size), target=1.0))

    if method == "weighted_update":
        result = weighted_update(size, constraints, threshold=threshold,
                                 max_iterations=max_iterations,
                                 track_history=track_history)
        answer = float(result.estimate[target_index])
        history = result.change_history
    elif method == "max_entropy":
        estimate = max_entropy_estimate(size, constraints,
                                        max_iterations=max_iterations * 5)
        answer = float(estimate[target_index])
        history = []
    else:
        raise ValueError(
            f"method must be 'weighted_update' or 'max_entropy', got {method!r}")

    return (answer, history) if track_history else answer


class PairwiseBatchAnswering:
    """Mixin: fused workload answering for pair-decomposable mechanisms.

    Mechanisms that answer 1-D/2-D queries directly and λ > 2 queries by
    combining 2-D sub-answers (TDG, HDG, LHIO) mix this in.  Every
    multi-primitive workload — a range list, or a typed workload's
    compiled plan — is laid out as
    :class:`~repro.queries.compiler.ExecutionGroups` and answered by
    :meth:`_answer_groups`: one call of :meth:`_answer_ranges_1d` for
    every 1-D range, one of :meth:`_answer_ranges_2d` for every 2-D
    range and λ > 2 sub-pair, then one batched Algorithm-2 iteration
    per distinct λ.  Grid mechanisms answer both hooks from their
    :class:`~repro.core.grid.GridStack` (:meth:`_stacked_grids` names
    the grids); the scalar ``_answer`` runs the same hooks on one query
    and combines λ > 2 sub-answers per query with
    :func:`estimate_lambda_query`.
    """

    #: Combiner for λ > 2 queries; set by the mechanism constructor.
    estimation_method: str = "weighted_update"
    #: Iteration cap for Algorithm 2; set by the mechanism constructor.
    estimation_iterations: int = 100
    #: Stacked tables of the fitted grids; built by finalize.
    _stack: GridStack | None = None

    def _stacked_grids(self) -> tuple[dict, dict, dict | None]:
        """The (1-D grids, 2-D grids, response matrices) to stack."""
        raise NotImplementedError

    def _grid_stack(self) -> GridStack:
        """The grid stack, rebuilt if a grid or matrix changed since."""
        grids, stack = self._stacked_grids(), self._stack
        if stack is None or not stack.matches(*grids):
            stack = self._stack = GridStack(self._n_attributes, *grids)
        return stack

    def _answer_ranges_1d(self, attributes: np.ndarray, lows: np.ndarray,
                          highs: np.ndarray) -> np.ndarray:
        """Vectorised answers for 1-D ranges on any attributes.

        By default each range is padded to a pair with a full-domain
        partner (attribute 0, or 1 for attribute 0), marginalising that
        pair's 2-D answer.
        """
        return self._answer_ranges_2d(
            attributes, (attributes == 0).astype(np.int64), lows, highs,
            np.zeros_like(lows), np.full_like(lows, self._domain_size - 1))

    def _answer_ranges_2d(self, firsts: np.ndarray, seconds: np.ndarray,
                          row_lows: np.ndarray, row_highs: np.ndarray,
                          col_lows: np.ndarray,
                          col_highs: np.ndarray) -> np.ndarray:
        """Vectorised answers for 2-D ranges on any attribute pairs."""
        return self._grid_stack().answer_2d(firsts, seconds, row_lows,
                                            row_highs, col_lows, col_highs)

    def _answer_single(self, query: RangeQuery) -> float:
        """One 1-D query through the workload lookup."""
        predicate, = query.predicates
        return float(self._answer_ranges_1d(*np.array(
            [[predicate.attribute], [predicate.low], [predicate.high]]))[0])

    def _answer_pair(self, query: RangeQuery) -> float:
        """One 2-D query through the workload lookup."""
        first, second = query.predicates
        return float(self._answer_ranges_2d(*np.array(
            [[first.attribute], [second.attribute], [first.low],
             [first.high], [second.low], [second.high]]))[0])

    def _answer(self, query: RangeQuery) -> float:
        if query.dimension == 1:
            return self._answer_single(query)
        if query.dimension == 2:
            return self._answer_pair(query)
        return estimate_lambda_query(query, self._answer_pair,
                                     method=self.estimation_method,
                                     max_iterations=self.estimation_iterations)

    def _answer_workload(self, queries: list[RangeQuery]) -> np.ndarray:
        return self._answer_groups(group_primitives(queries))

    def _answer_compiled(self, compiled) -> np.ndarray:
        return self._answer_groups(compiled.groups)

    def _answer_groups(self, groups) -> np.ndarray:
        """Answer laid-out primitives as one flat vector in list order.

        λ > 2 rows get the clipped pair answers plus the simplex
        normalisation to 1 as Weighted Update targets — the constraints
        :func:`estimate_lambda_query` builds, in the same order.  Max
        entropy runs :func:`estimate_lambda_query` per row on the
        gathered sub-answers.
        """
        values = np.empty(groups.n_primitives + groups.n_sub_entries)
        *ranges, destinations = groups.ranges_1d
        if destinations.size:
            values[destinations] = self._answer_ranges_1d(*ranges)
        *ranges, destinations = groups.ranges_2d
        if destinations.size:
            values[destinations] = self._answer_ranges_2d(*ranges)
        answers = values[:groups.n_primitives]
        for group in groups.multi_dim_groups:
            if self.estimation_method != "weighted_update":
                for position, query, sub_indices in zip(
                        group.positions, group.queries,
                        group.sub_index_matrix):
                    lookup = dict(zip((sub.attributes for sub
                                       in query.pairwise_subqueries()),
                                      values[sub_indices]))
                    answers[position] = estimate_lambda_query(
                        query, lambda sub: lookup[sub.attributes],
                        method=self.estimation_method,
                        max_iterations=self.estimation_iterations)
                continue
            targets = np.ones((group.positions.size, len(group.index_sets)))
            targets[:, :-1] = np.maximum(0.0, values[group.sub_index_matrix])
            estimates = weighted_update_batch(
                1 << group.dimension, group.index_sets, targets,
                max_iterations=self.estimation_iterations)
            answers[group.positions] = estimates[:, (1 << group.dimension) - 1]
        return answers


def lambda_constraint_index_sets(dimension: int) -> list[np.ndarray]:
    """Algorithm 2's constraint index sets for a λ-D query.

    One set per attribute pair in the order
    :meth:`~repro.queries.RangeQuery.pairwise_subqueries` produces them
    (lexicographic by position), followed by the simplex normalisation
    over all ``2^λ`` orthants — the exact sweep order of
    :func:`estimate_lambda_query`.
    """
    sets = [pair_constraint_indices(dimension, pos_a, pos_b)
            for pos_a in range(dimension)
            for pos_b in range(pos_a + 1, dimension)]
    sets.append(np.arange(1 << dimension, dtype=np.int64))
    return sets
