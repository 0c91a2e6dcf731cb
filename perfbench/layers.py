"""Per-layer metrics from the spans of a traced server.

Every layer time is busy time: the thread CPU time inside the span.
Wall-clock time inside a span also counts the stretches its thread
waits for the interpreter lock while another request runs, which
belongs to no layer; the two ``*_wait_*`` metrics report that waiting
(wall minus CPU) where it matters.  Self time is a span's time minus
the time its child spans cover.  Children run synchronously on their
parent's thread, so they never overlap each other and the covered time
is the sum of theirs.  Query-path metrics count spans that ended inside the
timed window; collection metrics (partial_fit, accumulate, finalize,
post-processing) also count the set-up, so on the query workloads they
describe the bootstrap that ``setup_s`` times.
"""

from __future__ import annotations

import json

import numpy as np

#: (metric, unit, layer, what it should move).  Printed in this order.
PER_LAYER = [
    ("http.requests", "count", "serving.http",
     "query_p50_ms/queries_per_s on query-zipf; little on query-batch"),
    ("http.shed", "count", "serving.http", "fail_frac when non-zero"),
    ("http.self_us_p50", "us", "serving.http",
     "query_p50_ms/queries_per_s on query-zipf; little on query-batch"),
    ("http.wait_us_p50", "us", "serving.http",
     "query_p50_ms on query-zipf (two connections share one lock)"),
    ("service.decode_us_p50", "us", "serving.service",
     "query_p50_ms on query-zipf"),
    ("service.ingest_self_ms_p50", "ms", "serving.service",
     "ingest_p50_ms on ingest-mixed"),
    ("epoch.answer_cache_hit_ratio", "ratio", "serving.epoch",
     "queries_per_s on query-zipf; zero on query-batch by construction"),
    ("epoch.answer_us_p50", "us", "serving.epoch",
     "queries_per_s on query-zipf"),
    ("epoch.published", "count", "serving.epoch",
     "cache misses on ingest-mixed (one per publish)"),
    ("queries.plan_ms", "ms", "queries", "table_p50_ms on ingest-mixed; "
     "about 5% of query-batch"),
    ("queries.plan_calls", "count", "queries", "table_p50_ms on "
     "ingest-mixed"),
    ("queries.compile_ms", "ms", "queries", "table_p50_ms on ingest-mixed"),
    ("queries.assemble_us_p50", "us", "queries",
     "queries_per_s on query-batch"),
    ("queries.plan_cache_hit_ratio", "ratio", "queries",
     "table_p50_ms on ingest-mixed"),
    ("estimation.wu_calls", "count", "estimation",
     "queries_per_s on query-batch; query_p90_ms on query-zipf"),
    ("estimation.wu_rows_per_call", "rows", "estimation",
     "raised by coalescing single queries"),
    ("estimation.wu_ms", "ms", "estimation",
     "queries_per_s on query-batch; query_p90_ms on query-zipf"),
    ("core.primitives", "count", "core", "queries_per_s on query-batch"),
    ("core.grid_ms", "ms", "core",
     "queries_per_s on query-batch; table_p50_ms on ingest-mixed"),
    ("core.partial_fit_ms_p50", "ms", "core",
     "ingest_p50_ms on ingest-mixed; setup_s on query-*"),
    ("fo.accumulate_ms", "ms", "frequency_oracles",
     "ingest_p50_ms on ingest-mixed; setup_s on query-*"),
    ("core.finalize_ms_p50", "ms", "core",
     "ingest_p90_ms on ingest-mixed; setup_s on query-*"),
    ("core.finalize_ms_max", "ms", "core",
     "ingest_p90_ms on ingest-mixed; setup_s on query-*"),
    ("postprocess.ms", "ms", "postprocess",
     "ingest_p90_ms on ingest-mixed; setup_s"),
    ("core.response_matrix_ms", "ms", "core",
     "ingest_p90_ms on ingest-mixed; setup_s"),
    ("tenants.ingest_self_ms_p50", "ms", "serving.tenants",
     "ingest_p50_ms on ingest-mixed only"),
    ("storage.wal_append_ms_p50", "ms", "storage",
     "ingest_p50_ms on ingest-mixed only"),
    ("storage.wal_wait_ms_p50", "ms", "storage",
     "ingest_p50_ms on ingest-mixed only"),
    ("storage.wal_rows", "count", "storage",
     "ingest_p50_ms on ingest-mixed only"),
    ("resilience.retries", "count", "resilience",
     "ingest_p90_ms on ingest-mixed when non-zero"),
]

COLLECTION = {"core.partial_fit", "fo.accumulate", "core.finalize",
              "postprocess", "core.response_matrix"}


def load_spans(path) -> list[tuple]:
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)]


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(spans: list[tuple], setup: tuple, windows: list,
                  health: list) -> dict:
    """Every ``PER_LAYER`` metric from one traced server's spans.

    ``setup`` (launch to first answer) and each of ``windows`` (the
    timed segments) are ``(start_ns, end_ns)`` on the monotonic clock the
    spans use; ``health`` holds the ``/healthz`` documents taken before
    and after each segment.
    """
    child_cpu: dict[int, int] = {}
    by_id = {}
    for span in spans:
        span_id, parent = span[3], span[4]
        if span_id:
            by_id[span_id] = span
            child_cpu[parent] = child_cpu.get(parent, 0) + span[7]

    def select(name: str) -> list[tuple]:
        ranges = [setup, *windows] if name in COLLECTION else windows
        return [span for span in spans if span[0] == name and any(
            first <= span[2] <= last for first, last in ranges)]

    def durations(name: str, scale: float) -> list[float]:
        return [span[7] / scale for span in select(name)]

    def self_times(name: str, scale: float) -> list[float]:
        return [(span[7] - child_cpu.get(span[3], 0)) / scale
                for span in select(name)]

    def waits(name: str, scale: float) -> list[float]:
        return [(span[2] - span[1] - span[7]) / scale
                for span in select(name)]

    def under_finalize(span: tuple) -> bool:
        parent = by_id.get(span[4])
        while parent is not None:
            if parent[0] == "core.finalize":
                return True
            parent = by_id.get(parent[4])
        return False

    def delta(*path: str) -> float:
        """How much a ``/healthz`` counter grew inside the segments."""
        total = 0
        for before, after in health:
            for key in path:
                before, after = before.get(key, {}), after.get(key, {})
            total += (after or 0) - (before or 0)
        return total

    hits = delta("answer_cache", "hits")
    lookups = hits + delta("answer_cache", "misses")
    plan_hits = len(select("queries.plan_cache_hit"))
    plan_lookups = plan_hits + len(select("queries.plan_cache_miss"))
    wu = select("estimation.wu")
    grid = select("core.grid")
    finalize = durations("core.finalize", 1e6)
    return {
        "http.requests": len(select("http")),
        "http.shed": delta("load", "shed_connections"),
        "http.self_us_p50": _p50(self_times("http", 1e3)),
        "http.wait_us_p50": _p50(waits("http", 1e3)),
        "service.decode_us_p50": _p50(durations("service.decode", 1e3)),
        "service.ingest_self_ms_p50": _p50(self_times("service.ingest", 1e6)),
        "epoch.answer_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "epoch.answer_us_p50": _p50(self_times("epoch.wire_document", 1e3)),
        "epoch.published": delta("epoch"),
        "queries.plan_ms": sum(durations("queries.plan", 1e6)),
        "queries.plan_calls": len(select("queries.plan")),
        "queries.compile_ms": sum(durations("queries.compile", 1e6)),
        "queries.assemble_us_p50": _p50(durations("queries.assemble", 1e3)),
        "queries.plan_cache_hit_ratio": (plan_hits / plan_lookups
                                         if plan_lookups else 0.0),
        "estimation.wu_calls": len(wu),
        "estimation.wu_rows_per_call": (sum(span[6] for span in wu) / len(wu)
                                        if wu else 0.0),
        "estimation.wu_ms": sum(durations("estimation.wu", 1e6)),
        "core.primitives": sum(span[6] for span in grid),
        "core.grid_ms": sum(durations("core.grid", 1e6)),
        "core.partial_fit_ms_p50": _p50(durations("core.partial_fit", 1e6)),
        "fo.accumulate_ms": sum(durations("fo.accumulate", 1e6)),
        "core.finalize_ms_p50": _p50(finalize),
        "core.finalize_ms_max": max(finalize, default=0.0),
        "postprocess.ms": sum(span[7] / 1e6 for span in select("postprocess")
                              if under_finalize(span)),
        "core.response_matrix_ms": sum(durations("core.response_matrix",
                                                 1e6)),
        "tenants.ingest_self_ms_p50": _p50(self_times("tenants.ingest", 1e6)),
        "storage.wal_append_ms_p50": _p50(durations("storage.wal_append",
                                                    1e6)),
        "storage.wal_wait_ms_p50": _p50(waits("storage.wal_append", 1e6)),
        "storage.wal_rows": sum(span[6]
                                for span in select("storage.wal_append")),
        "resilience.retries": delta("resilience", "retry_policy",
                                    "retries_performed"),
    }
