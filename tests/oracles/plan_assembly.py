"""The per-query closure assembler, kept as the reference for reassembly.

Before the compiler, every lowered query carried a combiner closure and
the plan sliced the flat primitive answers into one typed result per
query.  :func:`assemble` reproduces that path query by query, so
``tests/test_plan_compiler.py`` and ``tests/test_query_ir.py`` can pin
:meth:`repro.queries.CompiledPlan.assemble` against it.
"""

from __future__ import annotations

import numpy as np

from repro.postprocess import norm_sub
from repro.queries import (DistributionResult, MarginalQuery, PointQuery,
                           PredicateCountQuery, RangeQuery, ScalarResult,
                           TopKQuery, TopKResult, top_k_cells)


def combine(query, answers: np.ndarray, domain_size: int,
            population: int | None = None):
    """One query's typed result from its slice of primitive answers."""
    if isinstance(query, (RangeQuery, PointQuery)):
        return ScalarResult(query, float(answers[0]))
    if isinstance(query, PredicateCountQuery):
        scale = query.population if query.population is not None \
            else population
        return ScalarResult(query, float(answers[0]) * scale,
                            population=scale)
    if isinstance(query, MarginalQuery):
        shape = (domain_size,) * query.dimension
        return DistributionResult(
            query, np.asarray(answers, dtype=float).reshape(shape))
    if isinstance(query, TopKQuery):
        shape = (domain_size,) * query.marginal().dimension
        table = norm_sub(np.asarray(answers, dtype=float).reshape(shape))
        cells, values = top_k_cells(table, query.k)
        return TopKResult(query, cells, values)
    raise TypeError(f"cannot assemble {type(query).__name__}")


def assemble(plan, answers: np.ndarray, domain_size: int,
             population: int | None = None) -> list:
    """Slice flat primitive answers into typed per-query results."""
    answers = np.asarray(answers, dtype=float)
    if answers.shape != (plan.n_primitives,):
        raise ValueError(
            f"plan expects {plan.n_primitives} primitive answers, got "
            f"shape {answers.shape}")
    results = []
    start = 0
    for entry in plan.lowered:
        stop = start + len(entry.ranges)
        results.append(combine(entry.query, answers[start:stop], domain_size,
                               population))
        start = stop
    return results
