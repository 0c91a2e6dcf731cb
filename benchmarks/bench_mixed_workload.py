"""Throughput of mixed typed workloads through the planner stack.

The typed query IR compiles marginal/point/count/top-k queries onto the
prefix-sum batch engine's range primitives.  This benchmark measures
what that compiler layer costs and delivers, per mechanism (TDG, HDG):

* **mixed (typed)** — queries/sec of a workload cycling all five kinds
  through ``answer_workload`` (compile → fused batch answer →
  vectorised reassembly), exactly as the serving path runs it.  One
  warm-up call outside the timer populates the compiled-plan cache, so
  the timed rounds measure steady-state serving; the one-time
  plan-compilation cost is reported separately as ``compile_seconds``;
* **range list** — the same primitive ranges (lowered once, outside
  the timer) answered as a flat range workload.  A range list skips the
  planner and the plan cache, so it is grouped into execution groups
  on every call; the reported overhead is the typed surface's extra
  work (plan-cache lookup plus typed reassembly) net of the grouping
  the cached plan saves, and may be negative;
* **primitives/query** — how many range primitives one typed query
  expands to on average (marginals dominate: ``c²`` cells each).

Run directly::

    PYTHONPATH=src python benchmarks/bench_mixed_workload.py
    PYTHONPATH=src python benchmarks/bench_mixed_workload.py --smoke

``--smoke`` shrinks the load so CI exercises the whole path in seconds.
``--max-overhead-fraction X`` turns the run into a regression gate: it
exits non-zero if any mechanism's plan-and-reassemble overhead exceeds
``X`` (CI runs ``--smoke --max-overhead-fraction 0.5``).  Every run
appends a ``mixed_workload`` record to the ``BENCH_fit.json``
trajectory artifact at the repository root.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _scale import append_trajectory, report  # noqa: E402

from repro import HDG, TDG, make_dataset  # noqa: E402
from repro.queries import WorkloadGenerator, query_kind  # noqa: E402


def run(n_users: int, n_attributes: int, domain_size: int, n_queries: int,
        rounds: int, epsilon: float, seed: int,
        smoke: bool) -> tuple[str, dict]:
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    rng = np.random.default_rng(seed)
    dataset = make_dataset("normal", n_users, n_attributes, domain_size,
                           rng=rng)
    generator = WorkloadGenerator(n_attributes, domain_size,
                                  rng=np.random.default_rng(seed + 1))
    mixed = generator.mixed_workload(n_queries, 2, 0.5)
    kinds = sorted({query_kind(query) for query in mixed})

    lines = [f"mixed-workload throughput: eps={epsilon} n={n_users} "
             f"d={n_attributes} c={domain_size} |Q|={n_queries} "
             f"kinds={','.join(kinds)} ({'smoke' if smoke else 'full'})"]
    entry: dict = {
        "mode": "smoke" if smoke else "full",
        "n_queries": n_queries,
        "rounds": rounds,
        "domain_size": domain_size,
    }
    worst_overhead = 0.0
    for factory in (TDG, HDG):
        mechanism = factory(epsilon, seed=seed).fit(dataset)
        plan = mechanism.query_planner().plan(mixed)
        primitives = plan.n_primitives

        # Warm-up: compile the plan (and populate the LRU) outside the
        # timer, so the rounds below measure the steady-state serving
        # rate and the one-time compilation cost is reported on its own.
        start = time.perf_counter()
        results = mechanism.answer_workload(mixed)
        compile_seconds = time.perf_counter() - start
        assert mechanism.plan_cache_stats()["size"] == 1

        start = time.perf_counter()
        for _ in range(rounds):
            results = mechanism.answer_workload(mixed)
        typed_seconds = time.perf_counter() - start
        assert len(results) == n_queries

        flat_ranges = plan.ranges
        start = time.perf_counter()
        for _ in range(rounds):
            flat = mechanism.answer_workload(flat_ranges)
        flat_seconds = time.perf_counter() - start
        assert np.isfinite(flat).all()

        typed_rate = rounds * n_queries / typed_seconds
        primitive_rate = rounds * primitives / flat_seconds
        overhead = (typed_seconds - flat_seconds) / max(flat_seconds, 1e-12)
        worst_overhead = max(worst_overhead, overhead)
        lines += [
            f"  {mechanism.name:>4}: {primitives} primitives for "
            f"{n_queries} typed queries "
            f"({primitives / n_queries:.1f} primitives/query, "
            f"compile {compile_seconds * 1e3:.1f}ms once)",
            f"        typed workload    : {typed_seconds:6.2f}s "
            f"-> {typed_rate:10.1f} queries/sec",
            f"        range list        : {flat_seconds:6.2f}s "
            f"-> {primitive_rate:10.1f} primitives/sec "
            f"(plan+reassemble overhead {overhead * 100:+.1f}%)",
        ]
        entry[mechanism.name] = {
            "primitives": primitives,
            "compile_seconds": round(compile_seconds, 4),
            "typed_queries_per_sec": round(typed_rate, 1),
            "primitive_ranges_per_sec": round(primitive_rate, 1),
            "plan_and_reassemble_overhead_fraction": round(overhead, 4),
        }
    entry["worst_overhead_fraction"] = round(worst_overhead, 4)
    return "\n".join(lines), entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: small population and workload")
    parser.add_argument("--max-overhead-fraction", type=float, default=None,
                        help="fail (exit 1) if any mechanism's plan-and-"
                             "reassemble overhead fraction exceeds this")
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.smoke:
        settings = dict(n_users=4_000, n_attributes=3, domain_size=16,
                        n_queries=50, rounds=2)
    else:
        settings = dict(n_users=100_000, n_attributes=4, domain_size=32,
                        n_queries=400, rounds=5)
    text, entry = run(epsilon=args.epsilon, seed=args.seed, smoke=args.smoke,
                      **settings)
    report("mixed_workload", text)
    append_trajectory("mixed_workload", entry)
    if (args.max_overhead_fraction is not None
            and entry["worst_overhead_fraction"] > args.max_overhead_fraction):
        print(f"FAIL: plan-and-reassemble overhead "
              f"{entry['worst_overhead_fraction']:+.4f} exceeds the "
              f"--max-overhead-fraction gate {args.max_overhead_fraction}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
