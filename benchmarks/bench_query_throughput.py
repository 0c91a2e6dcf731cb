"""Queries/sec of a per-query ``answer()`` loop vs the batch query engine.

Fits each mechanism once, generates a mixed-λ workload (λ = 1, 2, 3, 4 in
equal parts, shuffled) and times two answering paths over the identical
fitted state:

* **per-query** — ``mechanism.answer(query)`` once per query: one scalar
  grid lookup per range and one Weighted Update per λ-D query.
* **batch**  — ``answer_workload``: for pair-decomposable mechanisms the
  fused execution groups (prefix-sum/summed-area corner lookups grouped
  per grid plus one batched Weighted Update per distinct λ).

The two paths must agree to 1e-9 on every query (the script fails
otherwise), so this doubles as an end-to-end equivalence check.

Run directly::

    PYTHONPATH=src python benchmarks/bench_query_throughput.py
    PYTHONPATH=src python benchmarks/bench_query_throughput.py --smoke

``--smoke`` shrinks the population and workload so CI can exercise the
fast path on every PR in a few seconds (no speedup assertion — shared
runners are too noisy for that; the full run asserts ≥ 10x on TDG/HDG).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _scale import report  # noqa: E402

from repro.baselines import CALM, LHIO, MSW, Uniform  # noqa: E402
from repro.core import HDG, TDG  # noqa: E402
from repro.datasets import make_dataset  # noqa: E402
from repro.queries import WorkloadGenerator  # noqa: E402

#: Mechanisms measured, in report order.  HIO is excluded: its answering
#: cost is dominated by the lazy noisy-node path, which the engine keeps.
MECHANISMS = ("Uni", "MSW", "CALM", "LHIO", "TDG", "HDG")

FACTORIES = {
    "Uni": lambda epsilon, seed: Uniform(epsilon, seed=seed),
    "MSW": lambda epsilon, seed: MSW(epsilon, seed=seed),
    "CALM": lambda epsilon, seed: CALM(epsilon, seed=seed),
    "LHIO": lambda epsilon, seed: LHIO(epsilon, seed=seed),
    "TDG": lambda epsilon, seed: TDG(epsilon, seed=seed),
    "HDG": lambda epsilon, seed: HDG(epsilon, seed=seed),
}


def mixed_workload(n_queries: int, n_attributes: int, domain_size: int,
                   seed: int):
    """Shuffled workload with λ = 1..4 in equal parts (the paper's range)."""
    generator = WorkloadGenerator(n_attributes, domain_size,
                                  rng=np.random.default_rng(seed))
    dimensions = [d for d in (1, 2, 3, 4) if d <= n_attributes]
    queries = []
    per_dimension = n_queries // len(dimensions)
    for dimension in dimensions:
        queries.extend(generator.random_workload(per_dimension, dimension, 0.5))
    while len(queries) < n_queries:
        queries.append(generator.random_query(dimensions[-1], 0.5))
    order = np.random.default_rng(seed + 1).permutation(len(queries))
    return [queries[index] for index in order]


def time_workload(answer, queries,
                  min_seconds: float = 0.2) -> tuple[np.ndarray, float]:
    """Answers plus best-of-repeats seconds for one answering path."""
    answers = answer(queries)  # warm any lazy indexes
    best = float("inf")
    elapsed_total = 0.0
    while elapsed_total < min_seconds:
        start = time.perf_counter()
        answers = answer(queries)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        elapsed_total += elapsed
    return answers, best


def run(n_users: int, n_queries: int, epsilon: float, n_attributes: int,
        domain_size: int, seed: int, smoke: bool) -> str:
    rng = np.random.default_rng(seed)
    dataset = make_dataset("normal", n_users, n_attributes, domain_size,
                           rng=rng)
    queries = mixed_workload(n_queries, n_attributes, domain_size, seed + 7)

    lines = [f"query throughput: n={n_users} d={n_attributes} c={domain_size} "
             f"eps={epsilon} |Q|={len(queries)} (mixed lambda 1-4)",
             f"{'mechanism':>10}  {'per-query q/s':>13}  {'batch q/s':>12}  "
             f"{'speedup':>8}"]
    failures = []
    for name in MECHANISMS:
        mechanism = FACTORIES[name](epsilon, seed).fit(dataset)
        single_answers, single_seconds = time_workload(
            lambda batch: np.array([mechanism.answer(query)
                                    for query in batch]), queries)
        batch_answers, batch_seconds = time_workload(
            mechanism.answer_workload, queries)
        worst = float(np.abs(single_answers - batch_answers).max())
        if worst > 1e-9:
            failures.append(
                f"{name}: per-query/batch answers differ by {worst:.3e}")
        single_qps = len(queries) / single_seconds
        batch_qps = len(queries) / batch_seconds
        speedup = single_seconds / batch_seconds
        lines.append(f"{name:>10}  {single_qps:>13.0f}  {batch_qps:>12.0f}  "
                     f"{speedup:>7.1f}x")
        if not smoke and name in ("TDG", "HDG") and speedup < 10.0:
            failures.append(
                f"{name}: batch engine only {speedup:.1f}x over the "
                "per-query loop (expected >= 10x)")
    text = "\n".join(lines)
    if failures:
        raise SystemExit(text + "\n\nFAILURES:\n" + "\n".join(failures))
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI: exercises both "
                             "paths and checks agreement, skips the "
                             "speedup assertion")
    parser.add_argument("--n-users", type=int, default=None)
    parser.add_argument("--n-queries", type=int, default=None)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--n-attributes", type=int, default=6)
    parser.add_argument("--domain-size", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    n_users = args.n_users or (5_000 if args.smoke else 200_000)
    n_queries = args.n_queries or (200 if args.smoke else 2_000)
    text = run(n_users, n_queries, args.epsilon, args.n_attributes,
               args.domain_size, args.seed, smoke=args.smoke)
    report("query_throughput", text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
