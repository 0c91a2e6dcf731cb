"""Command-line interface for running reproduction experiments.

Seven subcommands mirror how the library is typically used:

``run``
    Evaluate a set of mechanisms once on one configuration and print the
    per-mechanism MAE.
``sweep``
    Vary one configuration field over several values (the shape of every
    figure in the paper) and print the MAE series as a table.
``table2``
    Print the recommended (g1, g2) granularities for a grid of
    (d, lg n, ε) settings — the paper's Table 2.
``shard-demo``
    Demonstrate the shard-mergeable pipeline: collect the same dataset
    single-shot and as K parallel shards, compare MAE and wall time, and
    optionally save the per-shard aggregator states as JSON.
``merge``
    Merge serialized shard states (written by ``shard-demo --save-state``
    or :meth:`repro.pipeline.ShardAggregator.save`) into one aggregator
    and print or save the combined state.
``ingest-demo``
    Drive the multi-process ingest tier (:mod:`repro.ingest`) once:
    route a synthetic dataset to N collector workers over shared-memory
    accumulators, print per-worker back-pressure metrics, merge and
    answer a sample query.
``serve``
    Run the long-lived JSON-over-HTTP query service
    (:mod:`repro.serving`): ingest privatized reports incrementally,
    re-finalize on a policy, answer workloads, write snapshots.  With
    ``--backend`` the service runs multi-tenant over a durable storage
    backend (JSON directory or SQLite database) with write-ahead-log
    crash recovery.
``snapshot``
    Manage the versioned on-disk snapshot store: ``create`` one from a
    freshly collected dataset, ``list`` stored versions (size,
    creation time and tenant, from listing metadata), ``inspect`` one
    document.
``tenants``
    Administer the tenants of a storage backend offline: ``list``,
    ``create``, ``inspect``, ``delete``.

Examples
--------
python -m repro.cli run --dataset normal --n-users 100000 --epsilon 1.0
python -m repro.cli sweep --parameter epsilon --values 0.2 0.5 1.0 2.0
python -m repro.cli sweep --parameter epsilon --values 0.2 0.5 1.0 2.0 \\
    --jobs 4 --cache-dir /tmp/repro-cache
python -m repro.cli table2 --d 6 --lg-n 6.0
python -m repro.cli shard-demo --shards 4 --save-state /tmp/shards
python -m repro.cli merge /tmp/shards/shard*.json --output /tmp/merged.json
python -m repro.cli serve --mechanism HDG --refinalize-every 5000 \\
    --snapshot-dir /tmp/snapshots --port 8125
python -m repro.cli serve --backend sqlite --store /tmp/repro.db
python -m repro.cli snapshot list --dir /tmp/snapshots
python -m repro.cli tenants create --backend sqlite --store /tmp/repro.db \\
    --name acme --mechanism LHIO --ingest-mode refit
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from ._version import package_version
from .datasets import make_dataset
from .experiments import (ExperimentConfig, ResultCache, run_experiment,
                          sweep_parameter)
from .experiments.figures import table_2_granularities
from .metrics import mean_absolute_error
from .pipeline import (ParallelFitReport, ShardAggregator, merge_aggregators,
                       parallel_fit, shard_seed, write_state)
from .ingest import IngestTier
from .queries import RangeQuery, WorkloadGenerator, answer_workload
from .resilience import RetryPolicy
from .serving import (QueryService, SnapshotStore, TenantManager,
                      build_server, serve)
from .serving.tenants import service_from_config
from .storage import BACKENDS, StorageError, open_backend


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="normal",
                        help="dataset name (ipums, bfive, loan, acs, normal, laplace)")
    parser.add_argument("--n-users", type=int, default=100_000)
    parser.add_argument("--n-attributes", type=int, default=6)
    parser.add_argument("--domain-size", type=int, default=64)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--query-dimension", type=int, default=2)
    parser.add_argument("--volume", type=float, default=0.5)
    parser.add_argument("--n-queries", type=int, default=100)
    parser.add_argument("--query-kinds", nargs="+", default=["range"],
                        metavar="KIND",
                        help="query kinds the workload cycles through "
                             "(range, marginal, point, count, topk); more "
                             "than one produces a mixed typed workload "
                             "scored per kind")
    parser.add_argument("--top-k", type=int, default=5,
                        help="k of generated top-k group-by queries")
    parser.add_argument("--n-repeats", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--methods", nargs="+",
                        default=["Uni", "MSW", "CALM", "LHIO", "TDG", "HDG"],
                        help="mechanisms to evaluate (paper names; HDG(g1,g2) supported)")
    parser.add_argument("--shards", type=int, default=1,
                        help="collect shardable mechanisms over this many "
                             "parallel user shards (1 = single-shot)")
    parser.add_argument("--shard-workers", type=int, default=None,
                        help="concurrency cap for the shard executor")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the experiment executor; "
                             "the (sweep value, repetition, mechanism) cells "
                             "run in parallel and reproduce the sequential "
                             "results bit-for-bit")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the on-disk cell cache; "
                             "completed cells are skipped on re-runs")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir: neither read nor write "
                             "cached cells")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=args.dataset, n_users=args.n_users,
        n_attributes=args.n_attributes, domain_size=args.domain_size,
        epsilon=args.epsilon, query_dimension=args.query_dimension,
        volume=args.volume, n_queries=args.n_queries,
        n_repeats=args.n_repeats, methods=tuple(args.methods), seed=args.seed,
        n_shards=args.shards, shard_workers=args.shard_workers,
        n_jobs=args.jobs, query_kinds=tuple(args.query_kinds),
        top_k=args.top_k)


def _cache_from_args(args: argparse.Namespace) -> ResultCache | None:
    if args.cache_dir is None or args.no_cache:
        return None
    return ResultCache(args.cache_dir)


def _command_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    cache = _cache_from_args(args)
    result = run_experiment(config, cache=cache)
    print(f"dataset={config.dataset} n={config.n_users} d={config.n_attributes} "
          f"c={config.domain_size} eps={config.epsilon} "
          f"lambda={config.query_dimension} omega={config.volume} "
          f"kinds={','.join(config.query_kinds)}")
    for method in config.methods:
        method_result = result.methods[method]
        print(f"  {method:>10}: MAE = {method_result.mae}")
        if method_result.per_kind_mae:
            breakdown = "  ".join(
                f"{kind}={summary.mean:.5f}"
                for kind, summary in sorted(method_result.per_kind_mae.items()))
            print(f"  {'':>10}  per-kind: {breakdown}")
    if cache is not None:
        print(f"cache: {cache.stats()}")
    return 0


def _parse_sweep_values(parameter: str, raw_values: list[str]) -> list:
    integer_fields = {"n_users", "n_attributes", "domain_size",
                      "query_dimension", "n_queries", "n_repeats"}
    if parameter in integer_fields:
        return [int(value) for value in raw_values]
    if parameter == "dataset":
        return list(raw_values)
    return [float(value) for value in raw_values]


def _command_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    values = _parse_sweep_values(args.parameter, args.values)
    cache = _cache_from_args(args)
    sweep = sweep_parameter(config, args.parameter, values, cache=cache)
    print(sweep.format_table())
    if cache is not None:
        print(f"cache: {cache.stats()}")
    return 0


def _command_table2(args: argparse.Namespace) -> int:
    epsilons = args.epsilons or [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
    settings = [(args.d, args.lg_n)]
    table = table_2_granularities(epsilons=epsilons, settings=settings,
                                  domain_size=args.domain_size)
    print(f"d={args.d}, lg(n)={args.lg_n}, c={args.domain_size}")
    for epsilon in epsilons:
        g1, g2 = table[(args.d, args.lg_n, epsilon)]
        print(f"  eps={epsilon:<4}: g1={g1:>3}  g2={g2:>3}")
    return 0


def _command_shard_demo(args: argparse.Namespace) -> int:
    from .pipeline.aggregator import SHARDABLE_MECHANISMS

    rng = np.random.default_rng(args.seed)
    dataset = make_dataset(args.dataset, args.n_users, args.n_attributes,
                           args.domain_size, rng=rng)
    generator = WorkloadGenerator(args.n_attributes, args.domain_size,
                                  rng=np.random.default_rng(args.seed + 1))
    queries = generator.random_workload(args.n_queries, args.query_dimension,
                                        args.volume)
    truths = answer_workload(dataset, queries)
    factory_cls = SHARDABLE_MECHANISMS[args.mechanism]

    start = time.perf_counter()
    single = factory_cls(args.epsilon, seed=args.seed).fit(dataset)
    single_seconds = time.perf_counter() - start
    single_mae = mean_absolute_error(single.answer_workload(queries), truths)

    report = ParallelFitReport(n_shards=0, max_workers=0)
    start = time.perf_counter()
    sharded = parallel_fit(
        lambda i: factory_cls(args.epsilon, seed=shard_seed(args.seed, i)),
        dataset, n_shards=args.shards, max_workers=args.shard_workers,
        report=report)
    sharded_seconds = time.perf_counter() - start
    sharded_mae = mean_absolute_error(sharded.answer_workload(queries), truths)

    print(f"shard demo: {args.mechanism} on {args.dataset} "
          f"(n={args.n_users}, d={args.n_attributes}, c={args.domain_size}, "
          f"eps={args.epsilon})")
    print(f"  single-shot fit : MAE = {single_mae:.5f}  ({single_seconds:.2f}s)")
    print(f"  {args.shards} shards merged: MAE = {sharded_mae:.5f}  "
          f"({sharded_seconds:.2f}s, {report.n_workers_used} workers, "
          f"shard sizes {report.shard_sizes})")

    if args.save_state:
        # The report carries the exact pre-merge states parallel_fit
        # collected — no second collection pass.
        directory = Path(args.save_state)
        directory.mkdir(parents=True, exist_ok=True)
        for index, state in enumerate(report.shard_states):
            path = write_state(state, directory / f"shard{index}.json")
            print(f"  wrote {path}")
    return 0


def _command_merge(args: argparse.Namespace) -> int:
    aggregators = []
    for path in args.states:
        aggregator = ShardAggregator.load(path)
        mechanism = aggregator.mechanism
        print(f"{path}: {mechanism.name} eps={mechanism.epsilon} "
              f"d={mechanism._n_attributes} c={mechanism._domain_size} "
              f"reports={aggregator.n_reports}")
        aggregators.append(aggregator)
    merged = merge_aggregators(aggregators)
    print(f"merged: {merged.n_reports} reports over {len(args.states)} shards")
    if args.output:
        path = merged.save(args.output)
        print(f"wrote {path}")
    if args.finalize:
        mechanism = merged.finalize()
        print(f"finalized {mechanism.name}: ready to answer range queries "
              f"(g1={getattr(mechanism, 'chosen_g1', None)}, "
              f"g2={mechanism.chosen_g2})")
    return 0


def _command_ingest_demo(args: argparse.Namespace) -> int:
    """``repro ingest-demo``: drive the multi-process ingest tier once."""
    rng = np.random.default_rng(args.seed)
    dataset = make_dataset(args.dataset, args.n_users, args.n_attributes,
                           args.domain_size, rng=rng)
    rows = dataset.values
    mode = None if args.ingest_mode == "auto" else args.ingest_mode
    print(f"ingest-demo: {args.mechanism} eps={args.epsilon} "
          f"d={args.n_attributes} c={args.domain_size} "
          f"n={args.n_users} workers={args.workers}")
    tier = IngestTier(args.mechanism, args.epsilon, n_workers=args.workers,
                      n_attributes=args.n_attributes,
                      domain_size=args.domain_size, seed=args.seed,
                      ingest_mode=mode, planning_users=args.n_users,
                      total_users=args.n_users)
    try:
        started = time.perf_counter()
        for start in range(0, len(rows), args.batch_size):
            tier.submit(rows[start:start + args.batch_size])
        tier.flush()
        ingest_seconds = time.perf_counter() - started
        metrics = tier.metrics()
        rate = len(rows) / ingest_seconds if ingest_seconds > 0 else 0.0
        print(f"  mode={metrics['ingest_mode']}  "
              f"ingested {metrics['reports_total']} reports in "
              f"{ingest_seconds:.2f}s ({rate:,.0f} reports/s)")
        for worker in metrics["workers"]:
            print(f"  worker {worker['index']}: "
                  f"{worker['reports_done']} reports over "
                  f"{worker['batches_done']} batches "
                  f"(queue depth {worker['queue_depth']}, "
                  f"dropped {worker['dropped_rows']})")
        estimator = tier.coordinator.merge()
        merge = tier.metrics()["merge"]
        print(f"  merged + finalized in {merge['last_merge_seconds']:.2f}s "
              f"(merge lag now {merge['merge_lag_reports']} reports)")
        half = args.domain_size // 2
        query = RangeQuery.from_dict({0: (0, half - 1),
                                      1: (half, args.domain_size - 1)})
        truth = answer_workload(dataset, [query])[0]
        estimate = estimator.answer(query)
        print(f"  sample 2-D query: estimate={estimate:.5f} "
              f"truth={truth:.5f} |error|={abs(estimate - truth):.5f}")
    finally:
        tier.close()
    return 0


def _build_streaming_service(args: argparse.Namespace) -> QueryService:
    service = QueryService(args.mechanism, args.epsilon, seed=args.seed,
                           refinalize_every=args.refinalize_every,
                           total_users=args.total_users,
                           domain_size=args.domain_size,
                           ingest_mode=getattr(args, "ingest_mode", "stream"),
                           ingest_workers=getattr(args, "ingest_workers",
                                                  None),
                           plan_cache_entries=getattr(
                               args, "plan_cache_entries", None),
                           answer_cache_entries=getattr(
                               args, "answer_cache_entries", None))
    if args.bootstrap_dataset:
        rng = np.random.default_rng(args.seed)
        dataset = make_dataset(args.bootstrap_dataset, args.n_users,
                               args.n_attributes, args.domain_size, rng=rng)
        service.ingest(dataset)
        service.refinalize()
    return service


def _default_tenant_config(args: argparse.Namespace) -> dict:
    """The default tenant's config from the serving CLI arguments."""
    return {
        "mechanism": args.mechanism,
        "epsilon": args.epsilon,
        "seed": args.seed,
        "refinalize_every": args.refinalize_every,
        "total_users": args.total_users,
        "domain_size": args.domain_size,
        "ingest_mode": getattr(args, "ingest_mode", "stream"),
        "ingest_workers": getattr(args, "ingest_workers", None),
        "plan_cache_entries": getattr(args, "plan_cache_entries", None),
        "answer_cache_entries": getattr(args, "answer_cache_entries", None),
        "keep_last": args.keep_last,
    }


def _command_serve_multi_tenant(args: argparse.Namespace) -> int:
    """``repro serve --backend ...``: multi-tenant over a storage backend."""
    if not args.store:
        print("--backend requires --store (the store directory for json, "
              "the database file for sqlite)", file=sys.stderr)
        return 2
    if args.restore:
        print("--restore is implicit with --backend: tenants recover "
              "automatically from snapshots plus the ingest log",
              file=sys.stderr)
        return 2
    try:
        backend = open_backend(args.backend, args.store,
                               busy_timeout_ms=args.busy_timeout)
    except ValueError as error:
        print(f"cannot open backend: {error}", file=sys.stderr)
        return 2
    retry_policy = RetryPolicy(attempts=args.retry_attempts,
                               base_delay=args.retry_base_delay,
                               max_delay=args.retry_max_delay)
    try:
        manager = TenantManager(backend,
                                default_config=_default_tenant_config(args),
                                retry_policy=retry_policy,
                                breaker_threshold=args.breaker_threshold,
                                breaker_reset=args.breaker_reset,
                                op_deadline=args.op_deadline)
    except (ValueError, StorageError) as error:
        backend.close()
        print(f"cannot start tenants: {error}", file=sys.stderr)
        return 2
    quarantined = manager.quarantined_tenants()
    for name, info in quarantined.items():
        print(f"warning: tenant {name!r} quarantined: {info['error']}",
              file=sys.stderr)
    server = build_server(host=args.host, port=args.port,
                          verbose=args.verbose, workers=args.workers,
                          tenant_manager=manager,
                          queue_depth=args.queue_depth)
    host, port = server.server_address[:2]
    storage = manager.storage_status()
    print(f"serving {storage['tenants']} tenant(s) from "
          f"{storage['backend']}:{storage['location']} "
          f"(pending ingest log: {storage['pending_ingest_log']}) "
          f"on http://{host}:{port} with {args.workers} workers", flush=True)
    print("endpoints: GET /healthz  GET /readyz  POST /ingest  POST /query  "
          "POST /refinalize  POST|GET /snapshot  GET|POST /tenants  "
          "GET|DELETE /tenants/<name>", flush=True)
    try:
        serve(server, max_requests=args.max_requests)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
        backend.close()
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    if args.backend:
        return _command_serve_multi_tenant(args)
    if args.busy_timeout is not None:
        print("--busy-timeout requires --backend sqlite", file=sys.stderr)
        return 2
    store = None
    if args.snapshot_dir:
        store = SnapshotStore(args.snapshot_dir, keep_last=args.keep_last)
    if args.restore:
        if store is None:
            print("--restore requires --snapshot-dir", file=sys.stderr)
            return 2
        try:
            service = QueryService.from_snapshot(
                store, version=args.snapshot_version, seed=args.seed)
        except FileNotFoundError as error:
            print(f"cannot restore: {error}", file=sys.stderr)
            return 2
    else:
        try:
            service = _build_streaming_service(args)
        except ValueError as error:
            print(f"cannot build service: {error}", file=sys.stderr)
            return 2

    server = build_server(service, host=args.host, port=args.port,
                          snapshot_store=store, verbose=args.verbose,
                          workers=args.workers,
                          queue_depth=args.queue_depth)
    host, port = server.server_address[:2]
    status = service.status()
    print(f"serving {status['mechanism']} (eps={status['epsilon']}, "
          f"mode={status['mode']}, ready={status['ready']}) "
          f"on http://{host}:{port} with {args.workers} workers", flush=True)
    print("endpoints: GET /healthz  GET /readyz  POST /ingest  POST /query  "
          "POST /refinalize  POST|GET /snapshot", flush=True)
    try:
        serve(server, max_requests=args.max_requests)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
    return 0


def _command_snapshot(args: argparse.Namespace) -> int:
    if args.action == "list":
        return _command_snapshot_list(args)
    if args.action == "create":
        # Write through the directory backend so the snapshot gets its
        # sidecar listing metadata (size, creation time, mechanism).
        backend = open_backend("json", args.dir)
        service = _build_streaming_service(args)
        record = backend.save_snapshot("default", service.state_dict())
        if args.keep_last is not None:
            backend.prune_snapshots("default", args.keep_last)
        status = service.status()
        print(f"wrote snapshot version {record.version} "
              f"({status['mechanism']}, eps={status['epsilon']}, "
              f"{status['reports_ingested']} reports) -> "
              f"{Path(args.dir) / SnapshotStore.FILE_TEMPLATE.format(version=record.version)}")
        return 0
    store = SnapshotStore(args.dir, keep_last=getattr(args, "keep_last", None))
    # inspect
    try:
        state = store.load(args.version)
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    estimator = state.get("estimator")
    collector = state.get("collector")
    print(f"format={state.get('format')} version={state.get('version')}")
    print(f"mechanism={state.get('mechanism')} "
          f"epsilon={state.get('epsilon')}")
    print(f"reports_ingested={state.get('reports_ingested')} "
          f"reports_since_finalize={state.get('reports_since_finalize')} "
          f"finalize_count={state.get('finalize_count')}")
    print(f"refinalize_every={state.get('refinalize_every')} "
          f"total_users={state.get('total_users')}")
    print(f"estimator={'present' if estimator else 'none'} "
          f"collector={'present' if collector else 'none'}")
    if estimator:
        print(f"  estimator: d={estimator['n_attributes']} "
              f"c={estimator['domain_size']} "
              f"config={estimator.get('config')}")
    return 0


def _open_backend_from_args(args: argparse.Namespace):
    """The storage backend the ``--backend``/``--store``/``--dir``
    arguments select (JSON directory backend when only a directory is
    given)."""
    if getattr(args, "store", None):
        return open_backend(args.backend or "json", args.store)
    if getattr(args, "dir", None):
        return open_backend("json", args.dir)
    raise ValueError("pass --dir (JSON store directory) or "
                     "--backend/--store (storage backend)")


def _command_snapshot_list(args: argparse.Namespace) -> int:
    """``repro snapshot list``: versions from listing metadata.

    Size, creation time and tenant come from the backend's metadata
    (sidecar records or the SQLite listing table), never by reading or
    stat-ing the snapshot blobs themselves.
    """
    try:
        backend = _open_backend_from_args(args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    with backend:
        records = backend.list_snapshots()
        if not records:
            print(f"{backend.location()}: no snapshots")
            return 0
        latest = {}
        for record in records:
            latest[record.tenant] = record.version
        for record in records:
            marker = ("  <- latest"
                      if record.version == latest[record.tenant] else "")
            print(f"  {record.tenant:>10}  v{record.version:>4}  "
                  f"{record.size_bytes:>10} bytes  {record.created_at}  "
                  f"{record.mechanism or '?'}"
                  f"{marker}")
    return 0


def _command_tenants(args: argparse.Namespace) -> int:
    """``repro tenants``: offline tenant administration on a backend."""
    try:
        backend = _open_backend_from_args(args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    with backend:
        try:
            if args.action == "list":
                records = backend.list_tenants()
                if not records:
                    print(f"{backend.location()}: no tenants")
                    return 0
                for record in records:
                    config = record.config
                    snapshots = backend.list_snapshots(record.name)
                    print(f"  {record.name:>10}  "
                          f"{config.get('mechanism', '?'):>5}  "
                          f"eps={config.get('epsilon', '?')}  "
                          f"snapshots={len(snapshots)}  "
                          f"pending_log={backend.ingest_log_depth(record.name)}  "
                          f"created={record.created_at}")
                return 0
            if args.action == "create":
                config = _default_tenant_config(args)
                if args.quota is not None:
                    config["quota"] = args.quota
                service_from_config(config)  # validate before persisting
                record = backend.create_tenant(args.name, config)
                print(f"created tenant {record.name!r} "
                      f"({config['mechanism']}, eps={config['epsilon']}) "
                      f"in {backend.location()}")
                return 0
            if args.action == "inspect":
                record = backend.get_tenant(args.name)
                print(f"tenant {record.name!r} created {record.created_at}")
                print(f"  config: {record.config}")
                print(f"  pending ingest log: "
                      f"{backend.ingest_log_depth(record.name)}")
                snapshots = backend.list_snapshots(record.name)
                for snapshot in snapshots:
                    print(f"  snapshot v{snapshot.version}: "
                          f"{snapshot.size_bytes} bytes, "
                          f"{snapshot.created_at}, "
                          f"wal_seq={snapshot.wal_seq}")
                if snapshots:
                    document, _ = backend.load_snapshot(record.name)
                    status = QueryService.from_state_dict(document).status()
                    plan = status.get("plan_cache") or {}
                    answer = status.get("answer_cache") or {}
                    print(f"  epoch: {status.get('epoch', 0)} "
                          f"(from snapshot v{snapshots[-1].version})")
                    print(f"  plan cache: size={plan.get('size')} "
                          f"capacity={plan.get('capacity')}")
                    print(f"  answer cache: capacity={answer.get('capacity')}")
                else:
                    config = record.config
                    print(f"  plan cache: capacity="
                          f"{config.get('plan_cache_entries') or 'default'}")
                    print(f"  answer cache: capacity="
                          f"{config.get('answer_cache_entries') or 'default'}")
                return 0
            # delete
            backend.delete_tenant(args.name)
            print(f"deleted tenant {args.name!r} and its stored state")
            return 0
        except (StorageError, ValueError) as error:
            print(str(error), file=sys.stderr)
            return 2


def _add_serving_mechanism_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mechanism", default="HDG",
                        choices=["TDG", "HDG", "ITDG", "IHDG", "CALM", "HIO",
                                 "LHIO", "MSW", "Uni"],
                        help="mechanism to collect and serve (the default "
                             "stream ingest mode needs a shardable one: "
                             "TDG, HDG, ITDG, IHDG; any mechanism works "
                             "with --ingest-mode refit)")
    parser.add_argument("--ingest-mode", default="stream",
                        choices=["stream", "refit"],
                        help="stream feeds batches through the shard "
                             "partial_fit path; refit buffers raw rows and "
                             "re-finalizes by fitting a fresh same-seeded "
                             "instance from scratch (works for every "
                             "mechanism, deterministic for crash recovery)")
    parser.add_argument("--ingest-workers", type=int, default=None,
                        metavar="N",
                        help="run ingest through N collector worker "
                             "processes over shared-memory accumulators "
                             "(default: in-process ingest; see "
                             "docs/ingest.md)")
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--plan-cache-entries", type=int, default=None,
                        metavar="N",
                        help="compiled-plan LRU capacity per service "
                             "(default: the estimator's built-in 8; raise "
                             "for workloads cycling through many distinct "
                             "query shapes)")
    parser.add_argument("--answer-cache-entries", type=int, default=None,
                        metavar="N",
                        help="answered-workload LRU capacity per service "
                             "(default 256; 0 disables answer caching)")
    parser.add_argument("--refinalize-every", type=int, default=None,
                        metavar="N",
                        help="re-run Phase 2 automatically after N newly "
                             "ingested reports (default: on demand only)")
    parser.add_argument("--total-users", type=int, default=None,
                        help="expected total population; pins the guideline "
                             "granularities up front")
    parser.add_argument("--domain-size", type=int, default=64,
                        help="attribute domain size c of ingested rows")
    parser.add_argument("--bootstrap-dataset", default=None, metavar="NAME",
                        help="warm-start: collect this generated dataset and "
                             "finalize before serving")
    parser.add_argument("--n-users", type=int, default=100_000,
                        help="bootstrap dataset population")
    parser.add_argument("--n-attributes", type=int, default=6,
                        help="bootstrap dataset attribute count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Answering Multi-Dimensional Range "
                    "Queries under Local Differential Privacy' (VLDB 2020)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {package_version()}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="evaluate mechanisms once")
    _add_config_arguments(run_parser)
    run_parser.set_defaults(handler=_command_run)

    sweep_parser = subparsers.add_parser("sweep", help="sweep one parameter")
    _add_config_arguments(sweep_parser)
    sweep_parser.add_argument("--parameter", default="epsilon",
                              help="configuration field to vary")
    sweep_parser.add_argument("--values", nargs="+", required=True,
                              help="values to evaluate")
    sweep_parser.set_defaults(handler=_command_sweep)

    table_parser = subparsers.add_parser("table2",
                                         help="print recommended granularities")
    table_parser.add_argument("--d", type=int, default=6)
    table_parser.add_argument("--lg-n", type=float, default=6.0)
    table_parser.add_argument("--domain-size", type=int, default=64)
    table_parser.add_argument("--epsilons", type=float, nargs="+")
    table_parser.set_defaults(handler=_command_table2)

    demo_parser = subparsers.add_parser(
        "shard-demo",
        help="compare single-shot vs sharded-merged collection")
    _add_config_arguments(demo_parser)
    demo_parser.add_argument("--mechanism", default="HDG",
                             choices=["TDG", "HDG", "ITDG", "IHDG"],
                             help="shardable mechanism to demonstrate")
    demo_parser.add_argument("--save-state", metavar="DIR",
                             help="also write each shard's aggregator state "
                                  "as JSON into this directory")
    demo_parser.set_defaults(handler=_command_shard_demo)
    demo_parser.set_defaults(shards=4)

    merge_parser = subparsers.add_parser(
        "merge", help="merge serialized shard aggregator states")
    merge_parser.add_argument("states", nargs="+",
                              help="shard state JSON files to merge")
    merge_parser.add_argument("--output", help="write the merged state here")
    merge_parser.add_argument("--finalize", action="store_true",
                              help="run Phase 2 on the merged state")
    merge_parser.set_defaults(handler=_command_merge)

    ingest_parser = subparsers.add_parser(
        "ingest-demo",
        help="drive the multi-process shared-memory ingest tier once")
    ingest_parser.add_argument("--mechanism", default="HDG",
                               choices=["TDG", "HDG", "ITDG", "IHDG", "CALM",
                                        "HIO", "LHIO", "MSW", "Uni"],
                               help="mechanism to collect (stream mode needs "
                                    "a shardable one; others run refit)")
    ingest_parser.add_argument("--ingest-mode", default="auto",
                               choices=["auto", "stream", "refit"],
                               help="auto picks stream for shardable "
                                    "mechanisms, refit otherwise")
    ingest_parser.add_argument("--workers", type=int, default=4,
                               help="collector worker processes")
    ingest_parser.add_argument("--dataset", default="normal",
                               help="synthetic dataset name to ingest")
    ingest_parser.add_argument("--n-users", type=int, default=100_000)
    ingest_parser.add_argument("--n-attributes", type=int, default=4)
    ingest_parser.add_argument("--domain-size", type=int, default=16)
    ingest_parser.add_argument("--epsilon", type=float, default=1.0)
    ingest_parser.add_argument("--seed", type=int, default=0)
    ingest_parser.add_argument("--batch-size", type=int, default=10_000,
                               help="reports per submitted batch")
    ingest_parser.set_defaults(handler=_command_ingest_demo)

    serve_parser = subparsers.add_parser(
        "serve", help="run the JSON-over-HTTP query service")
    _add_serving_mechanism_arguments(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8125,
                              help="TCP port (0 binds any free port)")
    serve_parser.add_argument("--snapshot-dir", default=None, metavar="DIR",
                              help="enable the /snapshot endpoints against "
                                   "this store")
    serve_parser.add_argument("--keep-last", type=int, default=None,
                              metavar="K",
                              help="retain only the newest K snapshot "
                                   "versions")
    serve_parser.add_argument("--restore", action="store_true",
                              help="restore service state from the snapshot "
                                   "store instead of starting fresh")
    serve_parser.add_argument("--snapshot-version", type=int, default=None,
                              help="with --restore: load this version "
                                   "instead of the latest")
    serve_parser.add_argument("--max-requests", type=int, default=None,
                              metavar="N",
                              help="exit after serving N connections (smoke "
                                   "tests; default: run until interrupted)")
    serve_parser.add_argument("--workers", type=int, default=8,
                              metavar="N",
                              help="request worker pool size (each worker "
                                   "owns one keep-alive connection at a "
                                   "time)")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="log one line per handled request")
    serve_parser.add_argument("--backend", default=None,
                              choices=sorted(BACKENDS),
                              help="run multi-tenant over this storage "
                                   "backend (tenants, write-ahead ingest "
                                   "log, automatic crash recovery); "
                                   "requires --store")
    serve_parser.add_argument("--store", default=None, metavar="LOCATION",
                              help="storage backend location: the store "
                                   "directory for json, the database file "
                                   "for sqlite")
    serve_parser.add_argument("--queue-depth", type=int, default=16,
                              metavar="N",
                              help="admission queue: connections beyond the "
                                   "worker count that may wait for a worker "
                                   "before the listener sheds with 503")
    serve_parser.add_argument("--retry-attempts", type=int, default=3,
                              metavar="N",
                              help="attempts per storage operation on the "
                                   "ingest/snapshot path (1 = fail fast)")
    serve_parser.add_argument("--retry-base-delay", type=float, default=0.05,
                              metavar="SECONDS",
                              help="first retry backoff delay (doubles per "
                                   "retry, with seeded jitter)")
    serve_parser.add_argument("--retry-max-delay", type=float, default=2.0,
                              metavar="SECONDS",
                              help="backoff delay ceiling")
    serve_parser.add_argument("--op-deadline", type=float, default=None,
                              metavar="SECONDS",
                              help="wall-clock budget for one storage "
                                   "operation including its retries "
                                   "(default: unbounded)")
    serve_parser.add_argument("--breaker-threshold", type=int, default=3,
                              metavar="N",
                              help="consecutive write-ahead-log failures "
                                   "that trip a tenant's circuit breaker")
    serve_parser.add_argument("--breaker-reset", type=float, default=30.0,
                              metavar="SECONDS",
                              help="open-breaker duration before one "
                                   "recovery probe is allowed")
    serve_parser.add_argument("--busy-timeout", type=int, default=None,
                              metavar="MS",
                              help="sqlite backend only: milliseconds a "
                                   "locked database is waited on before "
                                   "failing (see docs/storage.md)")
    serve_parser.set_defaults(handler=_command_serve)

    snapshot_parser = subparsers.add_parser(
        "snapshot", help="manage the versioned snapshot store")
    snapshot_actions = snapshot_parser.add_subparsers(dest="action",
                                                      required=True)
    create_parser = snapshot_actions.add_parser(
        "create", help="collect a dataset and write a snapshot version")
    create_parser.add_argument("--dir", required=True,
                               help="snapshot store directory")
    create_parser.add_argument("--keep-last", type=int, default=None,
                               metavar="K")
    _add_serving_mechanism_arguments(create_parser)
    create_parser.set_defaults(handler=_command_snapshot,
                               bootstrap_dataset="normal")
    list_parser = snapshot_actions.add_parser(
        "list", help="list stored snapshot versions (size, creation time "
                     "and tenant, from listing metadata)")
    list_parser.add_argument("--dir", default=None,
                             help="JSON snapshot store directory")
    list_parser.add_argument("--backend", default=None,
                             choices=sorted(BACKENDS),
                             help="list a storage backend instead of a "
                                  "plain directory (with --store)")
    list_parser.add_argument("--store", default=None, metavar="LOCATION",
                             help="storage backend location")
    list_parser.set_defaults(handler=_command_snapshot)
    inspect_parser = snapshot_actions.add_parser(
        "inspect", help="print one snapshot document's summary")
    inspect_parser.add_argument("--dir", required=True)
    inspect_parser.add_argument("--version", type=int, default=None,
                                help="version to inspect (default: latest)")
    inspect_parser.set_defaults(handler=_command_snapshot)

    tenants_parser = subparsers.add_parser(
        "tenants", help="administer the tenants of a storage backend")
    tenant_actions = tenants_parser.add_subparsers(dest="action",
                                                   required=True)

    def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--backend", default="json",
                            choices=sorted(BACKENDS),
                            help="storage backend kind (default: json)")
        parser.add_argument("--store", required=True, metavar="LOCATION",
                            help="storage backend location: the store "
                                 "directory for json, the database file "
                                 "for sqlite")

    tenants_list = tenant_actions.add_parser(
        "list", help="list the backend's tenants")
    _add_backend_arguments(tenants_list)
    tenants_list.set_defaults(handler=_command_tenants)
    tenants_create = tenant_actions.add_parser(
        "create", help="create a tenant with a service configuration")
    _add_backend_arguments(tenants_create)
    tenants_create.add_argument("--name", required=True,
                                help="tenant name (path- and URL-safe)")
    tenants_create.add_argument("--quota", type=int, default=None,
                                help="max total reports the tenant may "
                                     "ingest (default: unlimited)")
    tenants_create.add_argument("--keep-last", type=int, default=None,
                                metavar="K",
                                help="snapshot retention for the tenant")
    _add_serving_mechanism_arguments(tenants_create)
    tenants_create.set_defaults(handler=_command_tenants)
    tenants_inspect = tenant_actions.add_parser(
        "inspect", help="print one tenant's config, snapshots and log depth")
    _add_backend_arguments(tenants_inspect)
    tenants_inspect.add_argument("--name", required=True)
    tenants_inspect.set_defaults(handler=_command_tenants)
    tenants_delete = tenant_actions.add_parser(
        "delete", help="drop a tenant and all its stored state")
    _add_backend_arguments(tenants_delete)
    tenants_delete.add_argument("--name", required=True)
    tenants_delete.set_defaults(handler=_command_tenants)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point used by ``python -m repro.cli`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
