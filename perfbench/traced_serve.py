"""Run ``repro serve`` with spans recorded around each layer's entry points.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_serve.py SPANS_FILE serve [serve options...]

The launcher imports the program, replaces the public entry points
listed in ``TRACED`` with timing wrappers, then runs the ordinary CLI.
Nothing under ``src/`` changes: the wrappers are installed on the
classes and in every ``repro`` module namespace that holds the
function.  Each span is ``(name, start_ns, end_ns, id, parent_id, request_id,
size, cpu_ns)``: wall-clock ends on the monotonic clock the benchmark
also reads, and the thread CPU time spent inside.  Spans on one thread
nest, so a span's parent is the innermost span open on its thread when
it started, and every span of one HTTP request carries the handler
span's id as ``request_id``.
Spans stay in memory and are written to SPANS_FILE as JSON when the
server exits (SIGINT or SIGTERM).
"""

from __future__ import annotations

import functools
import itertools
import json
import signal
import sys
import threading
import time

#: (span name, module, attribute path, size of the work from the call's
#: arguments or None).  ``Class.method`` paths wrap the class attribute.
TRACED = [
    ("http", "repro.serving.http", "ServingRequestHandler.do_POST", None),
    ("http", "repro.serving.http", "ServingRequestHandler.do_GET", None),
    ("service.decode", "repro.serving.service", "queries_from_wire", None),
    ("service.ingest", "repro.serving.service", "QueryService.ingest", None),
    ("epoch.wire_document", "repro.serving.epoch",
     "EstimatorEpoch.wire_document", None),
    ("queries.plan", "repro.queries.planner", "QueryPlanner.plan", None),
    ("queries.compile", "repro.queries.compiler", "CompiledPlan.from_plan",
     None),
    ("queries.assemble", "repro.queries.compiler", "CompiledPlan.assemble",
     None),
    ("estimation.wu", "repro.estimation.weighted_update",
     "weighted_update_batch", lambda args, kwargs: len(
         args[2] if len(args) > 2 else kwargs["targets"])),
    ("core.grid", "repro.core.grid", "Grid1D.answer_ranges",
     lambda args, kwargs: len(args[1])),
    ("core.grid", "repro.core.grid", "Grid2D.answer_ranges",
     lambda args, kwargs: len(args[1])),
    ("core.partial_fit", "repro.core.base",
     "RangeQueryMechanism.partial_fit", None),
    ("core.finalize", "repro.core.base", "RangeQueryMechanism.finalize",
     None),
    ("fo.accumulate", "repro.frequency_oracles.olh",
     "OptimizedLocalHash.accumulate", None),
    ("postprocess", "repro.postprocess.norm_sub", "norm_sub", None),
    ("postprocess", "repro.postprocess.consistency",
     "enforce_attribute_consistency", None),
    ("core.response_matrix", "repro.core.response_matrix",
     "build_response_matrix", None),
    ("tenants.ingest", "repro.serving.tenants", "TenantManager.ingest", None),
    ("storage.wal_append", "repro.storage.sqlite",
     "SQLiteBackend.append_ingest", lambda args, kwargs: len(args[2])),
]

#: Count-only probes: ``PlanCache.get`` returns None on a miss.
PLAN_CACHE = ("repro.queries.compiler", "PlanCache.get")


class SpanRecorder:
    """Thread-aware span collection; ``list.append`` needs no lock."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function, size=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, cpu_clock = time.perf_counter_ns, time.thread_time_ns

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent, request = stack[-1] if stack else (0, span_id)
            stack.append((span_id, request))
            start = clock()
            cpu = cpu_clock()
            try:
                return function(*args, **kwargs)
            finally:
                cpu = cpu_clock() - cpu
                end = clock()
                stack.pop()
                spans.append((name, start, end, span_id, parent, request,
                              size(args, kwargs) if size else 0, cpu))
        return traced

    def count_plan_cache(self, function):
        spans, clock = self.spans, time.perf_counter_ns

        @functools.wraps(function)
        def counted(*args, **kwargs):
            result = function(*args, **kwargs)
            now = clock()
            name = "queries.plan_cache_miss" if result is None \
                else "queries.plan_cache_hit"
            spans.append((name, now, now, 0, 0, 0, 0, 0))
            return result
        return counted

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def _replace(module_name: str, path: str, make) -> None:
    """Swap ``module.path`` for ``make(original)`` wherever it is bound."""
    module = sys.modules[module_name]
    if "." in path:
        class_name, attribute = path.split(".")
        owner = getattr(module, class_name)
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attribute, make(raw))
        return
    original = getattr(module, path)
    wrapped = make(original)
    for name, loaded in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and \
                getattr(loaded, path, None) is original:
            setattr(loaded, path, wrapped)


def install(recorder: SpanRecorder) -> None:
    import repro.cli  # noqa: F401 - loads every serving module
    import repro.storage.sqlite  # noqa: F401
    for name, module, path, size in TRACED:
        _replace(module, path,
                 lambda original, n=name, s=size: recorder.wrap(n, original,
                                                                s))
    _replace(*PLAN_CACHE, recorder.count_plan_cache)


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    signal.signal(signal.SIGTERM, _interrupt)
    from repro.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
