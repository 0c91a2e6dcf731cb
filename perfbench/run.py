"""Serving benchmark for the LDP range-query service.

Run from the repository root::

    python3 perfbench/run.py --workload query-zipf --seed 1 --seconds 15 --trace 0

One run launches ``repro serve`` (HDG, ε = 1, d = 6, c = 64, the
``normal`` dataset) in its own process, drives it over HTTP from this
single generator process with at most two connections, checks every
response, answers a seeded accuracy probe both on the server and on an
in-process ``QueryService`` fed the same reports in the same order, and
prints every metric by name and unit.  The last output line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the same workload runs once untraced and once under
``traced_serve.py``, and the metrics are the per-layer split plus the
tracing overhead.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import drive
import layers
import workloads as wl
from hostspeed import HostSpeed
from serverproc import ServerProcess, child_setup

WORKLOADS = ("query-zipf", "query-batch", "ingest-mixed")
SETUPS = 3  # set-up repeats per untraced run; setup_s is their median
SETUP_IDLE_S = 0.1  # idle time before and after each set-up
BOOTSTRAP_USERS = 1_000_000
INGEST_SEED = 1  # population seed of ingested reports (bootstrap: 0)
REFINALIZE_EVERY = 12_500  # ingest-mixed publishes every 1.25 s
SEGMENTS = 10  # query workloads: window segments, quiet blocks between
MIXED_SEGMENTS = 5  # ingest-mixed: open-loop window segments
QUIET_INGEST = 50  # ingest batches per quiet block
OPEN_LOOP_GRACE = 60.0  # s past the schedule before unsent ops fail
BACKLOG_MS = 20.0  # lateness growth that flags a backlog
#: HDG at ε = 1 over the benchmark's populations errs by about 0.03;
#: a probe error above this means wrong answers, not noise.
MAE_LIMIT = 0.1

END_TO_END = [
    ("setup_s", "s"), ("queries_per_s", "1/s"), ("query_p50_ms", "ms"),
    ("table_p50_ms", "ms"), ("ingest_p50_ms", "ms"), ("ok_frac", "ratio"),
    ("answer_mae", "fraction"), ("server_rss_mb", "MB"),
]
#: End-to-end metrics that are timings, reported at the reference host
#: speed (hostspeed.py); their raw values are printed beside them.
TIMED = ["setup_s", "queries_per_s", "query_p50_ms", "table_p50_ms",
         "ingest_p50_ms"]
#: Printed with the end-to-end metrics but not reported to the gate: on a
#: shared host, stalls of the whole machine set these tails (see README).
TAILS = [("query_p90_ms", "ms"), ("table_p90_ms", "ms"),
         ("ingest_p90_ms", "ms")]
#: End-to-end metrics compared between the untraced and traced runs.
OVERHEAD = ["setup_s", "queries_per_s", "query_p50_ms", "query_p90_ms",
            "table_p50_ms", "ingest_p50_ms"]
REQUEST_KINDS = ("single", "batch", "table", "ingest")
#: Generator and overhead metrics of the traced run, after layers.PER_LAYER.
TRACE_EXTRA = ([(f"gen.{what}.{kind}", "count") for kind in REQUEST_KINDS
                for what in ("sent", "failed")]
               + [("gen.late_ms_max.ingest", "ms"),
                  ("gen.late_ms_max.read", "ms"), ("gen.backlog", "flag")]
               + [(f"trace.overhead_pct.{name}", "%") for name in OVERHEAD])


class BenchmarkError(RuntimeError):
    """The run cannot produce a valid result."""


def _percentile(values, q: float) -> float:
    if not values:
        raise BenchmarkError(f"no samples for a p{q:g}")
    return float(np.percentile(values, q))


def _interrupt(signum, frame):
    raise KeyboardInterrupt


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def population(n_rows: int, seed: int):
    """``n_rows`` reports of the ``normal`` population.

    Reports do not depend on the workload seed, just as the bootstrap
    dataset of ``repro serve`` (``--seed`` default 0, which ``seed=0``
    reproduces) does not; the workload seed varies the traffic.
    """
    from repro.datasets import make_dataset
    return make_dataset("normal", n_rows, wl.N_ATTRIBUTES, wl.DOMAIN_SIZE,
                        rng=np.random.default_rng(seed))


class Inputs:
    """Every input of one workload run, derived from the seed."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seconds = seconds
        self.mixed = workload == "ingest-mixed"
        rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.pool = wl.Pool(rng)
        self.probe = wl.probe_queries(rng)
        self.probe_request = wl.query_request(self.probe)
        self.first_query = self.pool.requests[0]
        self.tables = wl.table_queries(rng, 3)
        if self.mixed:
            n_batches = int(wl.INGEST_RATE * seconds)
            split = wl.WARMUP_BATCHES * wl.WARMUP_ROWS
            rows = population(split + n_batches * wl.INGEST_ROWS,
                              INGEST_SEED).values.astype(np.int64)
            self.warmup = np.split(rows[:split], wl.WARMUP_BATCHES)
            self.batches = np.split(rows[split:], n_batches)
            # Every TABLE_EVERY-th read is a table, the six in turn; the
            # rest are Zipf draws from the pool.
            n_reads = int(wl.READ_RATE * seconds)
            self.read_index = self.pool.draws(n_reads)
            self.read_is_table = np.arange(n_reads) % wl.TABLE_EVERY == 0
            self.read_index[self.read_is_table] = (
                np.arange(self.read_is_table.sum()) % len(self.tables))
        else:
            self.warmup = []
            n_batches = (SEGMENTS + 1) * QUIET_INGEST
            self.batches = np.split(
                population(n_batches * wl.INGEST_ROWS,
                           INGEST_SEED).values.astype(np.int64), n_batches)
        self.warmup_requests = [wl.ingest_request(b) for b in self.warmup]
        self.ingest_requests = [wl.ingest_request(b) for b in self.batches]
        self.table_requests = [wl.query_request([t]) for t in self.tables]
        if workload == "query-zipf":
            # Far more draws than two connections can send in the run.
            self.draws = [self.pool.draws(5_000 * seconds) for _ in range(2)]
        elif workload == "query-batch":
            # 40 batches per second of run, more than a 2-CPU host
            # answers.  A faster server cycles through them again; a batch
            # then repeats only after hundreds of others, long after it
            # left the answer cache (256 entries) and plan cache (8).
            self.fresh = wl.fresh_batches(rng, 40 * seconds)

    def shape(self) -> dict:
        shape = {"mechanism": "HDG", "epsilon": 1.0,
                 "n_attributes": wl.N_ATTRIBUTES,
                 "domain_size": wl.DOMAIN_SIZE, "dataset": "normal",
                 "lambda": "1..4", "omega": 0.5, "pool": wl.POOL_SIZE,
                 "zipf_s": wl.ZIPF_S, "probe_queries": len(self.probe)}
        if self.mixed:
            shape.update(loop="open", connections=2, backend="sqlite",
                         warmup_reports=len(self.warmup) * wl.WARMUP_ROWS,
                         ingest_rows_per_batch=wl.INGEST_ROWS,
                         ingest_reports_per_s=wl.INGEST_RATE * wl.INGEST_ROWS,
                         reads_per_s=wl.READ_RATE,
                         table_every=wl.TABLE_EVERY,
                         read_phase=wl.READ_PHASE,
                         refinalize_every=REFINALIZE_EVERY)
        else:
            shape.update(loop="closed", bootstrap_reports=BOOTSTRAP_USERS,
                         window_segments=SEGMENTS,
                         quiet_blocks=SEGMENTS + 1,
                         quiet_ingest_per_block=QUIET_INGEST,
                         quiet_marginals_per_block=QUIET_INGEST // 5)
            if self.workload == "query-zipf":
                shape.update(connections=2)
            else:
                shape.update(connections=1,
                             queries_per_request=wl.BATCH_QUERIES)
        return shape

    def sources(self) -> list:
        """Fresh per-connection request iterators for one measurement;
        the window segments of a query workload continue them."""
        single = drive.check_scalars(1)
        if self.workload == "query-zipf":
            return [(("single", int(i), self.pool.requests[i], single)
                     for i in draws) for draws in self.draws]
        batch = drive.check_scalars(wl.BATCH_QUERIES)
        return [(("batch", i, request, batch)
                 for i, request in itertools.cycle(enumerate(self.fresh)))]

    def window_streams(self, port: int, stop_at: float, sources: list,
                       segment: int) -> list:
        if not self.mixed:
            return [drive.Stream(port, source, stop_at=stop_at)
                    for source in sources]
        single = drive.check_scalars(1)
        ingest = drive.check_ingest(wl.INGEST_ROWS)
        batches = np.array_split(np.arange(len(self.ingest_requests)),
                                 MIXED_SEGMENTS)[segment].tolist()
        positions = np.array_split(np.arange(len(self.read_index)),
                                   MIXED_SEGMENTS)[segment].tolist()
        reads = (("table", int(self.read_index[p]),
                  self.table_requests[self.read_index[p]], drive.check_table)
                 if self.read_is_table[p] else
                 ("single", int(self.read_index[p]),
                  self.pool.requests[self.read_index[p]], single)
                 for p in positions)
        return [
            drive.Stream(port, (("ingest", i, self.ingest_requests[i],
                                 ingest) for i in batches),
                         rate=wl.INGEST_RATE, stop_at=stop_at),
            drive.Stream(port, reads, rate=wl.READ_RATE,
                         phase=wl.READ_PHASE, stop_at=stop_at)]

    def quiet_block(self, port: int, block: int) -> drive.Stream:
        """Query workloads: ``QUIET_INGEST`` ingest batches with a cached
        marginal read after every fifth, on one connection.  The first
        read of each marginal (``warm``) plans it and is not timed."""
        ingest = drive.check_ingest(wl.INGEST_ROWS)
        marginals = [i for i, table in enumerate(self.tables)
                     if table["type"] == "marginal"]
        items = [("warm", i, self.table_requests[i], drive.check_table)
                 for i in marginals]
        for n in range(QUIET_INGEST):
            index = block * QUIET_INGEST + n
            items.append(("ingest", index, self.ingest_requests[index],
                          ingest))
            if n % 5 == 4:
                i = marginals[(n // 5) % len(marginals)]
                items.append(("table", i, self.table_requests[i],
                              drive.check_table))
        return drive.Stream(port, items)


# ----------------------------------------------------------------------
# One measured server
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    setups: list = field(default_factory=list)  # (launched, set up) times
    launched_ns: int = 0
    set_up_at: float = 0.0
    windows: list = field(default_factory=list)  # (start, end) per segment
    ops: list = field(default_factory=list)  # in the order sent
    window_ops: list = field(default_factory=list)
    open_streams: dict = field(default_factory=dict)  # label -> [ops]
    health: list = field(default_factory=list)  # /healthz around segments
    probe_answers: list = field(default_factory=list)
    rss_mb: float = 0.0
    spans_path: Path | None = None
    speed: HostSpeed | None = None  # the server's CPU
    generator_speed: HostSpeed | None = None


class Bench:
    def __init__(self, root: Path, inputs: Inputs, work: Path,
                 server_cpu: int, generator_cpu: int):
        self.root = root
        self.inputs = inputs
        self.work = work
        self.server_cpu = server_cpu
        self.generator_cpu = generator_cpu
        self.servers: list[ServerProcess] = []
        self.probes: list[HostSpeed] = []
        self._bootstrap = None

    @property
    def bootstrap(self):
        """The query workloads' bootstrap dataset, built once."""
        if self._bootstrap is None:
            self._bootstrap = population(BOOTSTRAP_USERS, 0)
        return self._bootstrap

    def _server(self, index: int, traced: bool, spans: Path) -> ServerProcess:
        common = ["--mechanism", "HDG", "--epsilon", "1",
                  "--domain-size", str(wl.DOMAIN_SIZE), "--port", "0"]
        if self.inputs.mixed:
            argv = ["serve", *common, "--backend", "sqlite",
                    "--store", str(self.work / f"store-{index}.db"),
                    "--refinalize-every", str(REFINALIZE_EVERY),
                    "--total-users", str(BOOTSTRAP_USERS)]
        else:
            argv = ["serve", *common, "--bootstrap-dataset", "normal",
                    "--n-users", str(BOOTSTRAP_USERS),
                    "--n-attributes", str(wl.N_ATTRIBUTES)]
        launcher = None
        if traced:
            launcher = [str(Path(__file__).with_name("traced_serve.py")),
                        str(spans)]
        server = ServerProcess(self.root, argv,
                               self.work / f"server-{index}.log",
                               self.server_cpu, launcher)
        self.servers.append(server)
        return server

    def _set_up(self, server: ServerProcess) -> tuple[float, float]:
        server.launch()
        connection = drive.Connection(server.port)
        try:
            for request in self.inputs.warmup_requests:
                drive.check_ingest(wl.WARMUP_ROWS)(connection.json(request))
            drive.check_scalars(1)(connection.json(self.inputs.first_query))
            return server.started_at, time.perf_counter()
        finally:
            connection.close()

    def stop(self, server: ServerProcess) -> None:
        code = server.stop()
        if code != 0:
            raise BenchmarkError(f"server exited with {code}:\n"
                                 f"{server.log_tail()}")

    def measure(self, setups: int, traced: bool) -> Measurement:
        """Set up ``setups`` times, then drive the last server."""
        label = "traced" if traced else "plain"
        # A probe on the generator's CPU as well: it also keeps that CPU
        # from halting while the generator waits for a response, so waking
        # the generator does not wait for the hypervisor to resume the CPU.
        cpus = {self.server_cpu, self.generator_cpu}
        probes = {cpu: HostSpeed(cpu, self.work / f"speed-{label}-{cpu}.log",
                                 lambda cpu=cpu: child_setup(cpu))
                  for cpu in cpus}
        result = Measurement(speed=probes[self.server_cpu],
                             generator_speed=probes[self.generator_cpu])
        for probe in probes.values():
            self.probes.append(probe)
            probe.start()
        spans = self.work / f"spans-{label}.json"
        for index in range(setups):
            # The server keeps its CPU busy while it sets up, so the probe
            # measures that CPU idle just before and just after.
            time.sleep(SETUP_IDLE_S)
            server = self._server(len(self.servers), traced, spans)
            result.launched_ns = time.perf_counter_ns()
            result.setups.append(self._set_up(server))
            time.sleep(SETUP_IDLE_S)
            if index < setups - 1:
                self.stop(server)
        result.set_up_at = time.perf_counter()
        port = server.port
        if self.inputs.mixed:
            segments = MIXED_SEGMENTS
            limit = self.inputs.seconds / segments + OPEN_LOOP_GRACE
        else:
            segments, limit = SEGMENTS, self.inputs.seconds / SEGMENTS
        sources = None if self.inputs.mixed else self.inputs.sources()
        control = drive.Connection(port)
        try:
            for segment in range(segments):
                if not self.inputs.mixed:
                    self._run(result, self.inputs.quiet_block(port, segment))
                before = control.json(drive.HEALTHZ)
                control.close()  # an idle keep-alive pins a server worker
                start = time.perf_counter() + 0.05
                streams = self.inputs.window_streams(port, start + limit,
                                                     sources, segment)
                drive.run_streams(streams, start)
                result.windows.append((start, time.perf_counter()))
                for stream in streams:
                    stream.verify()
                    # One connection carries the ingest stream, so its ops
                    # keep the order the server applied the batches in.
                    result.window_ops.extend(stream.ops)
                    result.ops.extend(stream.ops)
                    if stream.rate is not None and stream.ops:
                        label = ("ingest" if stream.ops[0].kind == "ingest"
                                 else "read")
                        result.open_streams.setdefault(label, []).append(
                            stream.ops)
                result.health.append((before, control.json(drive.HEALTHZ)))
                control.close()
            if not self.inputs.mixed:
                self._run(result, self.inputs.quiet_block(port, segments))
            for probe in {result.speed, result.generator_speed}:
                probe.stop()
                probe.load()
            control.json(drive.REFINALIZE)
            probe = control.json(self.inputs.probe_request)
            drive.check_scalars(len(self.inputs.probe))(probe)
            result.probe_answers = probe["answers"]
            result.rss_mb = server.peak_rss_mb()
        finally:
            control.close()
        self.stop(server)
        result.spans_path = spans if traced else None
        return result

    @staticmethod
    def _run(result: Measurement, stream: drive.Stream) -> None:
        stream.run(time.perf_counter())
        stream.verify()
        result.ops.extend(stream.ops)

    def close(self) -> None:
        for probe in self.probes:
            probe.stop()
        for server in self.servers:
            server.stop()

    # ------------------------------------------------------------------
    # Correctness: the in-process oracle and exact answers
    # ------------------------------------------------------------------
    def ingested(self, result: Measurement) -> list[np.ndarray]:
        """Batches the server acknowledged, in the order it applied them."""
        return [self.inputs.batches[op.index] for op in result.ops
                if op.kind == "ingest" and op.ok]

    def oracle_answers(self, batches: list[np.ndarray]) -> list[float]:
        """The probe answered by an in-process service fed the same
        reports in the same order as the server."""
        from repro.serving import QueryService

        if self.inputs.mixed:
            service = QueryService("HDG", 1.0, seed=0,
                                   refinalize_every=REFINALIZE_EVERY,
                                   total_users=BOOTSTRAP_USERS,
                                   domain_size=wl.DOMAIN_SIZE)
            batches = self.inputs.warmup + batches
        else:
            # What `repro serve --bootstrap-dataset normal` builds.
            service = QueryService("HDG", 1.0, seed=0,
                                   domain_size=wl.DOMAIN_SIZE)
            service.ingest(self.bootstrap)
            service.refinalize()
        try:
            for rows in batches:
                service.ingest(rows)
            service.refinalize()
            return service.query_wire(self.inputs.probe)["answers"]
        finally:
            service.close()

    def answer_mae(self, result: Measurement,
                   batches: list[np.ndarray]) -> float:
        parts = list(self.inputs.warmup) + batches
        if not self.inputs.mixed:
            parts.insert(0, self.bootstrap.values)
        exact = wl.exact_answers(np.concatenate(parts), self.inputs.probe)
        return float(np.mean(np.abs(np.asarray(result.probe_answers)
                                    - exact)))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _latencies_ms(ops, kind: str, factor) -> list[float]:
    return [(op.done - op.due) * 1e3 / factor(op.due) for op in ops
            if op.kind == kind and op.ok]


def counts(result: Measurement) -> tuple[int, int]:
    """(attempted, failed) operations, the accuracy probe included."""
    return len(result.ops) + 1, sum(not op.ok for op in result.ops)


def end_to_end(result: Measurement, inputs: Inputs, mae: float,
               raw: bool = False) -> dict:
    """The end-to-end metrics; timings at the reference host speed, or
    as measured with ``raw``."""
    workload = inputs.workload
    factor = (lambda moment: 1.0) if raw else result.speed.at
    window_ops = result.window_ops
    answered = sum(op.queries for op in window_ops if op.ok
                   and op.kind != "ingest")
    if workload == "ingest-mixed":
        # Open loop: the read rate achieved against the rate offered,
        # which the host's speed does not scale.
        elapsed = sum(end - start for start, end in result.windows)
    else:
        # The time the server worked, burst by burst, at each burst's
        # host speed.
        elapsed = sum(
            (last - first) / factor((first + last) / 2)
            for start, end in result.windows
            for first, last in drive.bursts(
                [op for op in window_ops if start <= op.sent <= end],
                start))
    attempted, failed = counts(result)
    table = _latencies_ms(result.ops, "table", factor)
    ingest = _latencies_ms(result.ops, "ingest", factor)
    if workload == "query-batch":
        query = _latencies_ms(window_ops, "batch", factor)
        query_p50 = _percentile(query, 50)
    else:
        # Single queries: the median of each λ, averaged over λ = 1..4.
        # λ ≤ 2 queries take about 1 ms and λ ≥ 3 ones 2-4 ms, so the
        # median of the whole mix falls in the gap between the two and
        # jumps with the share of each that a run happens to draw.
        query = _latencies_ms(window_ops, "single", factor)
        dimension = inputs.pool.dimensions
        query_p50 = float(np.mean([_percentile(_latencies_ms(
            [op for op in window_ops if op.kind == "single"
             and dimension[op.index] == lam], "single", factor), 50)
            for lam in range(1, 5)]))
    setup = [2 * (end - start) / (factor(start) + factor(end))
             for start, end in result.setups]
    return {
        "setup_s": float(np.median(setup)),
        "queries_per_s": answered / elapsed,
        "query_p50_ms": query_p50,
        "query_p90_ms": _percentile(query, 90),
        "table_p50_ms": _percentile(table, 50),
        "table_p90_ms": _percentile(table, 90),
        "ingest_p50_ms": _percentile(ingest, 50),
        "ingest_p90_ms": _percentile(ingest, 90),
        "ok_frac": 1.0 - failed / attempted,
        "answer_mae": mae,
        "server_rss_mb": result.rss_mb,
    }


def generator_metrics(result: Measurement) -> tuple[dict, list[str]]:
    """Open-loop lateness per stream and sent/failed counts per kind."""
    metrics, warnings = {}, []
    for kind in REQUEST_KINDS:
        ops = [op for op in result.ops if op.kind == kind]
        metrics[f"gen.sent.{kind}"] = len(ops)
        metrics[f"gen.failed.{kind}"] = sum(not op.ok for op in ops)
    metrics["gen.late_ms_max.ingest"] = metrics["gen.late_ms_max.read"] = 0.0
    backlog = 0
    for label, segments in result.open_streams.items():
        growths = []
        for ops in segments:
            late = [(op.sent - op.due) * 1e3 for op in ops]
            metrics[f"gen.late_ms_max.{label}"] = max(
                metrics[f"gen.late_ms_max.{label}"], *late)
            quarter = max(len(late) // 4, 1)
            growths.append(np.median(late[-quarter:])
                           - np.median(late[:quarter]))
        # The schedule restarts in each segment; a backlog grows in each.
        growth = float(np.median(growths))
        if growth > BACKLOG_MS:
            backlog = 1
            warnings.append(f"open-loop {label} stream fell behind: "
                            f"lateness grew {growth:.1f} ms over a segment "
                            "(backlog; its latencies are not valid)")
    metrics["gen.backlog"] = backlog
    return metrics, warnings


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def stamp(root: Path, workload: str, seed: int, seconds: int,
          inputs: Inputs) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {"git_sha": sha or "not a git checkout",
            "cpus": len(os.sched_getaffinity(0)),
            "server_cpu": min(os.sched_getaffinity(0)),
            "generator_cpu": max(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "workload": workload, "seed": seed, "seconds": seconds,
            "shape": inputs.shape()}


def print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    for row in rows:
        name, value, unit, *rest = row
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<30} {text:>14} {unit:<8} {' '.join(rest)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"no program to benchmark: {root}/src/repro is missing "
              "(run from the repository root)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    signal.signal(signal.SIGTERM, _interrupt)

    work = root / ".perfbench_tmp" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    bench = None
    try:
        inputs = Inputs(args.workload, args.seed, args.seconds)
        # A collection in this process would pause the generator threads
        # mid-request and read as server latency.  What the run allocates
        # from here on (ops, parsed responses) holds no reference cycles,
        # so reference counting frees it without the collector.
        gc.collect()
        gc.freeze()
        gc.disable()
        print(json.dumps(stamp(root, args.workload, args.seed, args.seconds,
                               inputs)))
        # The server (and the host-speed probe beside it) on the first
        # usable CPU, this generator on the last.
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})
        bench = Bench(root, inputs, work, cpus[0], cpus[-1])
        runs = [(False, 1 if args.trace else SETUPS)]
        if args.trace:
            runs.append((True, 1))
        measured = {}
        mismatches = []
        accurate = True
        for traced, setups in runs:
            result = bench.measure(setups, traced)
            batches = bench.ingested(result)
            if bench.oracle_answers(batches) != result.probe_answers:
                mismatches.append("traced" if traced else "untraced")
            metrics = end_to_end(result, inputs,
                                 bench.answer_mae(result, batches))
            accurate = accurate and metrics["answer_mae"] < MAE_LIMIT
            measured[traced] = (result, metrics)
        plain, plain_metrics = measured[False]
        raw = end_to_end(plain, inputs, plain_metrics["answer_mae"],
                         raw=True)
        generator, warnings = generator_metrics(plain)
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        attempted, failed = counts(plain)
        factors = plain.speed.factors
        host = (f"host factor median {np.median(factors):.3f}, "
                f"{np.min(factors):.3f}..{np.max(factors):.3f}; generator "
                f"CPU {plain.generator_speed.median():.3f}")
        print_table(f"{args.workload}: end to end (fail_frac "
                    f"{failed / attempted:.4g}, {attempted} operations; "
                    f"timings at the reference speed; {host})",
                    [(name, plain_metrics[name], unit,
                      *([f"(as measured {raw[name]:.6g})"]
                        if name in TIMED else []))
                     for name, unit in END_TO_END]
                    + [(name, plain_metrics[name], unit,
                        f"(as measured {raw[name]:.6g}; not gated)")
                       for name, unit in TAILS])
        print_table(f"{args.workload}: generator",
                    [(name, generator[name], unit)
                     for name, unit in TRACE_EXTRA if name in generator])
        if not accurate:
            print(f"answer_mae is {plain_metrics['answer_mae']:.4g}, above "
                  f"{MAE_LIMIT}: the answers are wrong", file=sys.stderr)
        for op in plain.ops:
            if not op.ok:
                print(f"failed {op.kind} #{op.index}: {op.error}",
                      file=sys.stderr)
                break
        if mismatches:
            print(f"accuracy probe differs bitwise between the server "
                  f"({', '.join(mismatches)} run) and the in-process "
                  "QueryService fed the same reports", file=sys.stderr)
            return 1
        if args.trace:
            traced, traced_metrics = measured[True]
            per_layer = layers.layer_metrics(
                layers.load_spans(traced.spans_path),
                (traced.launched_ns, int(traced.set_up_at * 1e9)),
                [(int(start * 1e9), int(end * 1e9))
                 for start, end in traced.windows], traced.health)
            # Layer times, like the end-to-end ones, at the reference speed.
            host = traced.speed.median()
            for name, unit, *_ in layers.PER_LAYER:
                if unit in ("ms", "us"):
                    per_layer[name] /= host
            per_layer.update(generator_metrics(traced)[0])
            for name in OVERHEAD:
                per_layer[f"trace.overhead_pct.{name}"] = 100.0 * (
                    traced_metrics[name] / plain_metrics[name] - 1.0)
            print_table(f"{args.workload}: per layer (traced run)",
                        [(name, per_layer[name], unit, layer, "->", moves)
                         for name, unit, layer, moves in layers.PER_LAYER])
            print_table(f"{args.workload}: generator and tracing overhead",
                        [(name, per_layer[name], unit)
                         for name, unit in TRACE_EXTRA])
            metrics = {name: {"value": per_layer[name], "unit": unit}
                       for name, unit, *_ in layers.PER_LAYER + TRACE_EXTRA}
            traced_attempted, traced_failed = counts(traced)
            attempted += traced_attempted
            failed += traced_failed
        else:
            metrics = {name: {"value": plain_metrics[name], "unit": unit}
                       for name, unit in END_TO_END}
        print(json.dumps({"correct": failed == 0 and accurate,
                          "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    except (BenchmarkError, RuntimeError, OSError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        # A second Ctrl-C or SIGTERM (a shell or supervisor signals the
        # whole process group) must not cut the clean-up short.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
