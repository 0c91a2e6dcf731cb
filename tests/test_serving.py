"""Tests for the online serving subsystem (repro.serving).

The load-bearing property is the snapshot round trip: for *every*
mechanism, ``save_state`` → JSON → ``restore_mechanism`` →
``answer_workload`` must be **bitwise identical** to the live
estimator's answers from the snapshot point on — including HIO/LHIO,
whose answering path still draws noise (their RNG stream travels in
the snapshot).  On top of that, the suite covers the versioned
snapshot store, the ingest → re-finalize → answer service loop, the
JSON-over-HTTP API and the ``serve``/``snapshot`` CLI verbs.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import (CALM, HDG, HIO, IHDG, ITDG, LHIO, MSW, TDG, Uniform,
                   WorkloadGenerator, make_dataset)
from repro.cli import main
from repro.datasets import Dataset
from repro.serving import (SNAPSHOT_MECHANISMS, QueryService, ServiceError,
                           SnapshotStore, build_server, queries_from_wire,
                           query_from_wire, query_to_wire, restore_mechanism)


@pytest.fixture(scope="module")
def serving_dataset() -> Dataset:
    return make_dataset("normal", 2_000, 3, 16,
                        rng=np.random.default_rng(42))


@pytest.fixture(scope="module")
def mixed_workload() -> list:
    generator = WorkloadGenerator(3, 16, rng=np.random.default_rng(5))
    return (generator.random_workload(6, 1, 0.5)
            + generator.random_workload(8, 2, 0.5)
            + generator.random_workload(4, 3, 0.5))


# ----------------------------------------------------------------------
# Snapshot round trip: the bitwise property, for every mechanism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SNAPSHOT_MECHANISMS))
def test_snapshot_round_trip_is_bitwise_identical(name, serving_dataset,
                                                  mixed_workload):
    mechanism = SNAPSHOT_MECHANISMS[name](1.0, seed=7).fit(serving_dataset)
    # Serialize through an actual JSON string: proves the document is
    # plain JSON and that float round-tripping is exact.
    state = json.loads(json.dumps(mechanism.save_state()))
    restored = restore_mechanism(state)
    live_answers = mechanism.answer_workload(mixed_workload)
    restored_answers = restored.answer_workload(mixed_workload)
    assert np.array_equal(live_answers, restored_answers)


@pytest.mark.parametrize("name", ["HIO", "LHIO"])
def test_snapshot_round_trip_stays_bitwise_on_repeat_answering(
        name, serving_dataset, mixed_workload):
    """Noise-drawing mechanisms keep matching across *multiple* workloads."""
    mechanism = SNAPSHOT_MECHANISMS[name](1.0, seed=3).fit(serving_dataset)
    restored = restore_mechanism(
        json.loads(json.dumps(mechanism.save_state())))
    for _ in range(2):
        assert np.array_equal(mechanism.answer_workload(mixed_workload),
                              restored.answer_workload(mixed_workload))


def test_every_mechanism_reports_snapshot_support():
    for name, factory in SNAPSHOT_MECHANISMS.items():
        assert factory(1.0).supports_snapshot, name


def test_save_state_requires_fitted():
    with pytest.raises(RuntimeError, match="fitted"):
        TDG(1.0).save_state()


def test_load_state_rejects_fitted_instance(serving_dataset):
    state = TDG(1.0, seed=0).fit(serving_dataset).save_state()
    fitted = TDG(1.0, seed=1).fit(serving_dataset)
    with pytest.raises(RuntimeError, match="fresh"):
        fitted.load_state(state)


def test_load_state_rejects_wrong_mechanism_and_epsilon(serving_dataset):
    state = TDG(1.0, seed=0).fit(serving_dataset).save_state()
    with pytest.raises(ValueError, match="belongs to"):
        HDG(1.0).load_state(state)
    with pytest.raises(ValueError, match="different epsilon"):
        TDG(2.0).load_state(state)


def test_load_state_rejects_foreign_and_future_documents():
    with pytest.raises(ValueError, match="format"):
        TDG(1.0).load_state({"format": "something-else"})
    with pytest.raises(ValueError, match="newer"):
        TDG(1.0).load_state({"format": "repro.mechanism-state",
                             "version": 99, "mechanism": "TDG",
                             "epsilon": 1.0})
    with pytest.raises(ValueError, match="unknown mechanism"):
        restore_mechanism({"format": "repro.mechanism-state",
                           "version": 1, "mechanism": "nope",
                           "epsilon": 1.0})


def test_restored_frequency_views_stay_read_only(serving_dataset):
    """The grids' read-only frequency contract survives a round trip."""
    mechanism = HDG(1.0, seed=0).fit(serving_dataset)
    restored = restore_mechanism(mechanism.save_state())
    grid_1d = next(iter(restored.grids_1d.values()))
    grid_2d = next(iter(restored.grids_2d.values()))
    for view in (grid_1d.frequencies, grid_2d.frequencies):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[..., 0] = 1.0


def test_restored_mechanism_config_shapes_answering(serving_dataset,
                                                    mixed_workload):
    """Answering-path settings (estimation method) travel in the state."""
    mechanism = TDG(1.0, seed=0, estimation_method="max_entropy",
                    estimation_iterations=17).fit(serving_dataset)
    restored = restore_mechanism(mechanism.save_state())
    assert restored.estimation_method == "max_entropy"
    assert restored.estimation_iterations == 17
    assert np.array_equal(mechanism.answer_workload(mixed_workload),
                          restored.answer_workload(mixed_workload))


# ----------------------------------------------------------------------
# SnapshotStore: versions, retention, errors
# ----------------------------------------------------------------------
def test_snapshot_store_versions_increment(tmp_path):
    store = SnapshotStore(tmp_path / "snaps")
    assert store.versions() == [] and store.latest_version() is None
    first = store.save({"payload": 1})
    second = store.save({"payload": 2})
    assert (first.version, second.version) == (1, 2)
    assert store.versions() == [1, 2]
    assert store.load() == {"payload": 2}
    assert store.load(1) == {"payload": 1}


def test_snapshot_store_retention(tmp_path):
    store = SnapshotStore(tmp_path, keep_last=2)
    for index in range(4):
        store.save({"payload": index})
    assert store.versions() == [3, 4]
    assert store.load() == {"payload": 3}


def test_snapshot_store_concurrent_saves_get_distinct_versions(tmp_path):
    """Racing writers never collide on a version or corrupt a document."""
    store = SnapshotStore(tmp_path)
    results: list = []
    barrier = threading.Barrier(8)

    def save(index: int) -> None:
        barrier.wait()
        results.append((index, store.save({"writer": index}).version))

    threads = [threading.Thread(target=save, args=(index,))
               for index in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(version for _, version in results) == list(range(1, 9))
    for index, version in results:
        assert store.load(version) == {"writer": index}


def test_snapshot_store_error_cases(tmp_path):
    store = SnapshotStore(tmp_path)
    with pytest.raises(FileNotFoundError, match="empty"):
        store.load()
    store.save({})
    with pytest.raises(FileNotFoundError, match="version 9"):
        store.load(9)
    with pytest.raises(ValueError, match="keep_last"):
        SnapshotStore(tmp_path, keep_last=0)


# ----------------------------------------------------------------------
# QueryService: ingest, re-finalize policy, snapshots
# ----------------------------------------------------------------------
def test_service_matches_direct_incremental_fit(serving_dataset,
                                                mixed_workload):
    """Service answers == partial_fit/finalize on a same-seeded mechanism."""
    half = serving_dataset.n_users // 2
    batches = [serving_dataset.values[:half], serving_dataset.values[half:]]

    service = QueryService("TDG", 1.0, seed=11, domain_size=16,
                           total_users=serving_dataset.n_users)
    for batch in batches:
        service.ingest(batch)
    service.refinalize()

    direct = TDG(1.0, seed=11)
    for batch in batches:
        direct.partial_fit(Dataset(batch, 16),
                           total_users=serving_dataset.n_users)
    direct.finalize()

    assert np.array_equal(service.query(mixed_workload),
                          direct.answer_workload(mixed_workload))


def test_refinalize_every_policy(serving_dataset):
    service = QueryService("TDG", 1.0, seed=0, domain_size=16,
                           refinalize_every=1_000)
    receipt = service.ingest(serving_dataset.values[:600])
    assert not receipt["refinalized"] and not receipt["ready"]
    receipt = service.ingest(serving_dataset.values[600:1_200])
    assert receipt["refinalized"] and receipt["ready"]
    assert service.finalize_count == 1
    assert service.reports_since_finalize == 0
    # Collection continues after the swap; manual refinalize still works.
    service.ingest(serving_dataset.values[1_200:1_400])
    status = service.refinalize()
    assert status["finalize_count"] == 2
    assert status["reports_ingested"] == 1_400


def test_service_error_cases(serving_dataset, mixed_workload):
    streaming = QueryService("HDG", 1.0, domain_size=16)
    with pytest.raises(ServiceError, match="not ready"):
        streaming.query(mixed_workload)
    with pytest.raises(ServiceError, match="no reports"):
        streaming.refinalize()

    static = QueryService(Uniform(1.0).fit(serving_dataset))
    with pytest.raises(ServiceError, match="static"):
        static.ingest(serving_dataset.values[:10])
    with pytest.raises(ServiceError, match="static"):
        static.refinalize()

    with pytest.raises(ValueError, match="non-shardable"):
        QueryService("MSW", 1.0)
    with pytest.raises(ValueError, match="incremental ingest"):
        QueryService(MSW(1.0))
    with pytest.raises(ValueError, match="refinalize_every"):
        QueryService("TDG", 1.0, refinalize_every=0)

    no_domain = QueryService("TDG", 1.0)
    with pytest.raises(ServiceError, match="domain_size"):
        no_domain.ingest([[1, 2, 3]])


def test_static_service_serves_any_fitted_mechanism(serving_dataset,
                                                    mixed_workload):
    mechanism = MSW(1.0, seed=0).fit(serving_dataset)
    service = QueryService(mechanism)
    assert service.status()["mode"] == "static"
    assert np.array_equal(service.query(mixed_workload),
                          mechanism.answer_workload(mixed_workload))


def test_service_snapshot_restores_answers_and_pending_reports(
        tmp_path, serving_dataset, mixed_workload):
    service = QueryService("HDG", 1.0, seed=2, domain_size=16,
                           total_users=serving_dataset.n_users)
    service.ingest(serving_dataset.values[:1_200])
    service.refinalize()
    service.ingest(serving_dataset.values[1_200:1_800])  # pending reports

    info = service.save_snapshot(tmp_path / "svc")
    restored = QueryService.from_snapshot(tmp_path / "svc")
    assert info.version == 1
    assert restored.reports_ingested == 1_800
    assert restored.reports_since_finalize == 600
    assert np.array_equal(service.query(mixed_workload),
                          restored.query(mixed_workload))

    # The pending accumulators and the collector RNG stream travel in
    # the snapshot, so identical post-restore ingests stay bitwise
    # identical to the original service's.
    tail = serving_dataset.values[1_800:]
    service.ingest(tail)
    restored.ingest(tail)
    service.refinalize()
    restored.refinalize()
    assert np.array_equal(service.query(mixed_workload),
                          restored.query(mixed_workload))


def test_service_snapshot_of_static_service(tmp_path, serving_dataset,
                                            mixed_workload):
    service = QueryService(LHIO(1.0, seed=4).fit(serving_dataset))
    service.save_snapshot(tmp_path)
    restored = QueryService.from_snapshot(SnapshotStore(tmp_path))
    assert restored.status()["mode"] == "static"
    assert np.array_equal(service.query(mixed_workload),
                          restored.query(mixed_workload))


def test_service_rejects_foreign_snapshot_documents():
    with pytest.raises(ValueError, match="format"):
        QueryService.from_state_dict({"format": "other"})
    with pytest.raises(ValueError, match="neither"):
        QueryService.from_state_dict({"format": "repro.service-snapshot",
                                      "version": 1, "mechanism": "TDG",
                                      "epsilon": 1.0, "estimator": None,
                                      "collector_config": None})


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
def test_query_wire_forms_are_equivalent():
    as_dict = query_from_wire({"predicates": [
        {"attribute": 1, "low": 2, "high": 5}, [0, 0, 3]]})
    as_list = query_from_wire([[1, 2, 5], [0, 0, 3]])
    assert as_dict == as_list
    assert query_from_wire(query_to_wire(as_dict)) == as_dict
    assert len(queries_from_wire([[[0, 1, 2]], [[1, 0, 0]]])) == 2


# ----------------------------------------------------------------------
# HTTP API
# ----------------------------------------------------------------------
@pytest.fixture()
def http_service(serving_dataset, tmp_path):
    service = QueryService("TDG", 1.0, seed=9, domain_size=16)
    service.ingest(serving_dataset.values[:1_000])
    service.refinalize()
    store = SnapshotStore(tmp_path / "http-snaps")
    server = build_server(service, port=0, snapshot_store=store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield service, server.server_address[1]
    server.shutdown()
    server.server_close()


def _http(port: int, path: str, payload: dict | None = None) -> dict:
    url = f"http://127.0.0.1:{port}{path}"
    data = None if payload is None else json.dumps(payload).encode()
    with urllib.request.urlopen(urllib.request.Request(url, data=data),
                                timeout=10) as response:
        return json.loads(response.read())


def _http_error(port: int, path: str, payload: dict | None = None) -> tuple:
    try:
        _http(port, path, payload)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())
    raise AssertionError("expected an HTTP error")


def test_http_healthz_ingest_query_snapshot(http_service, mixed_workload):
    service, port = http_service
    health = _http(port, "/healthz")
    assert health["status"] == "ok" and health["ready"]

    receipt = _http(port, "/ingest",
                    {"rows": [[1, 2, 3], [4, 5, 6]], "domain_size": 16})
    assert receipt["ingested"] == 2

    wire = [query_to_wire(query) for query in mixed_workload]
    answers = _http(port, "/query", {"queries": wire})["answers"]
    assert np.array_equal(np.asarray(answers), service.query(mixed_workload))

    written = _http(port, "/snapshot", {})
    assert written["version"] == 1
    listing = _http(port, "/snapshot")
    assert listing["versions"] == [1] and listing["latest"] == 1

    refinalized = _http(port, "/refinalize", {})
    assert refinalized["reports_since_finalize"] == 0


def test_http_error_statuses(http_service):
    _, port = http_service
    assert _http_error(port, "/nope", {})[0] == 404
    code, body = _http_error(port, "/query", {"wrong": []})
    assert code == 400 and "bad request" in body["error"]
    code, body = _http_error(port, "/query",
                             {"queries": [[[9, 0, 1]]]})  # bad attribute
    assert code == 400


def test_http_non_integer_numbers_are_400(http_service):
    """Regression: the wire used to truncate ``1.5`` to 1 on ``/ingest``
    and answer the predicate ``[0, 1.7, 5.2]`` as ``[0, 1, 5]``."""
    service, port = http_service
    before = service.reports_ingested
    code, body = _http_error(port, "/ingest", {"rows": [[1.5, 2, 3]]})
    assert code == 400 and body["code"] == "bad-request"
    assert service.reports_ingested == before
    for predicate in ([0, 1.7, 5.2], [0, True, 5], [0, 1, float("inf")],
                      {"attribute": 0, "low": 1, "high": "5"}):
        code, body = _http_error(port, "/query",
                                 {"queries": [[predicate]]})
        assert code == 400 and body["code"] == "bad-request"
    code, body = _http_error(port, "/query", {"queries": [
        {"type": "topk", "attributes": [0, 1], "k": 2.5}]})
    assert code == 400 and body["code"] == "bad-request"
    # Integral floats are integers written differently, not truncated.
    assert (_http(port, "/query", {"queries": [[[0, 1.0, 5.0]]]})
            == _http(port, "/query", {"queries": [[[0, 1, 5]]]}))


def test_http_batched_workloads_match_single_requests(http_service,
                                                      mixed_workload):
    service, port = http_service
    generator = WorkloadGenerator(3, 16, rng=np.random.default_rng(77))
    first = [query_to_wire(query) for query in mixed_workload]
    second = [query_to_wire(query)
              for query in generator.mixed_workload(7, 2, 0.5)]

    batched = _http(port, "/query", {"workloads": [first, second]})
    singles = [_http(port, "/query", {"queries": wire})
               for wire in (first, second)]
    assert batched["count"] == len(first) + len(second)
    assert batched["workloads"] == singles


def test_http_batched_workloads_reject_bad_shapes(http_service):
    _, port = http_service
    code, body = _http_error(port, "/query",
                             {"workloads": [[[0, 0, 1]]],
                              "queries": [[[0, 0, 1]]]})
    assert code == 400 and "not both" in body["error"]
    assert body["code"] == "bad-request"
    code, body = _http_error(port, "/query", {"workloads": "nope"})
    assert code == 400 and "list of query lists" in body["error"]
    code, body = _http_error(port, "/query", {})
    assert code == 400 and "'queries'" in body["error"]


def test_http_malformed_json_is_400_not_500(http_service):
    """Regression: a non-JSON body used to escape as a 500/traceback."""
    _, port = http_service
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/query", data=b"{not json",
        headers={"Content-Type": "application/json"})
    try:
        urllib.request.urlopen(request, timeout=10)
    except urllib.error.HTTPError as error:
        body = json.loads(error.read())
        assert error.code == 400
        assert "invalid JSON body" in body["error"]
        assert body["code"] == "bad-request"
    else:
        raise AssertionError("expected HTTP 400")
    # A JSON body that is not an object gets the same treatment.
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/query", data=b"[1, 2]",
        headers={"Content-Type": "application/json"})
    try:
        urllib.request.urlopen(request, timeout=10)
    except urllib.error.HTTPError as error:
        body = json.loads(error.read())
        assert error.code == 400 and body["code"] == "bad-request"
        assert "must be a JSON object" in body["error"]
    else:
        raise AssertionError("expected HTTP 400")


@pytest.mark.parametrize("length", [b"-1", b"abc"])
def test_http_bad_content_length_is_400_and_closes(serving_dataset, length):
    """Regression: ``Content-Length: -1`` made the handler read to EOF,
    so the client got no response and the worker was held until the
    socket timeout."""
    import socket
    import time

    service = QueryService("TDG", 1.0, seed=9, domain_size=16)
    service.ingest(serving_dataset.values[:200])
    service.refinalize()
    server = build_server(service, port=0, workers=1, handler_timeout=3)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        client = socket.create_connection(("127.0.0.1", port), timeout=10)
        start = time.perf_counter()
        client.sendall(b"POST /query HTTP/1.1\r\nHost: x\r\n"
                       b"Content-Length: " + length + b"\r\n\r\n")
        response = b""
        while chunk := client.recv(65536):  # the server closes the socket
            response += chunk
        elapsed = time.perf_counter() - start
        client.close()
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0].split()[1] == b"400"
        assert b"Connection: close" in head
        document = json.loads(body)
        assert document["code"] == "bad-request"
        assert "Content-Length" in document["error"]
        # Answered at once, well inside the 3 s handler timeout.
        assert elapsed < 1.0
        # The only worker is free again.
        assert _http(port, "/healthz")["status"] == "ok"
    finally:
        server.shutdown()
        server.server_close()


def test_http_unknown_query_type_is_400_with_structured_body(http_service):
    """Regression: an unknown query "type" must be a structured 400."""
    _, port = http_service
    code, body = _http_error(
        port, "/query", {"queries": [{"type": "frobnicate"}]})
    assert code == 400
    assert "unknown query type" in body["error"]
    assert body["code"] == "bad-request"


def test_http_error_bodies_carry_machine_codes(http_service):
    _, port = http_service
    code, body = _http_error(port, "/nope", {})
    assert code == 404 and body["code"] == "not-found"
    code, body = _http_error(port, "/query",
                             {"queries": [{"type": "frobnicate"}]})
    assert code == 400 and body["code"] == "bad-request"


def test_http_healthz_reports_plan_cache(http_service, mixed_workload):
    service, port = http_service
    _http(port, "/query",
          {"queries": [query_to_wire(query) for query in mixed_workload]})
    cache = _http(port, "/healthz")["plan_cache"]
    assert cache["capacity"] >= 1
    assert cache["hits"] + cache["misses"] >= 1


def test_http_keep_alive_serves_many_requests_per_connection(http_service,
                                                             mixed_workload):
    import http.client

    service, port = http_service
    wire = [query_to_wire(query) for query in mixed_workload]
    expected = service.query_wire(wire)
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        for _ in range(3):
            connection.request("POST", "/query",
                               body=json.dumps({"queries": wire}),
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == json.loads(
                json.dumps(expected))
    finally:
        connection.close()


def test_http_concurrent_queries_no_cross_request_bleed(http_service):
    service, port = http_service
    generator = WorkloadGenerator(3, 16, rng=np.random.default_rng(123))
    workloads = [[query_to_wire(query)
                  for query in generator.mixed_workload(5, 2, 0.5)]
                 for _ in range(4)]
    expected = [service.query_wire(wire) for wire in workloads]
    failures: list[str] = []
    barrier = threading.Barrier(8)

    def worker(index: int) -> None:
        wire = workloads[index % len(workloads)]
        reference = expected[index % len(workloads)]
        barrier.wait()
        for _ in range(4):
            answered = _http(port, "/query", {"queries": wire})
            if answered != json.loads(json.dumps(reference)):
                failures.append(f"thread {index} got a foreign answer")
                return

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures[0]


def test_build_server_workers_argument(serving_dataset):
    service = QueryService("TDG", 1.0, seed=9, domain_size=16)
    with pytest.raises(ValueError, match="workers"):
        build_server(service, port=0, workers=0)
    server = build_server(service, port=0, workers=2)
    try:
        assert server.workers == 2
    finally:
        server.server_close()


def test_handler_crash_releases_worker_and_logs_peer(serving_dataset, caplog):
    import logging
    import socket

    service = QueryService("TDG", 1.0, seed=9, domain_size=16)
    service.ingest(serving_dataset.values[:200])
    service.refinalize()
    server = build_server(service, port=0, workers=1)
    handler_cls = server.RequestHandlerClass
    original_do_get = handler_cls.do_GET

    def crashing_do_get(self):
        if self.path == "/boom":
            raise RuntimeError("injected handler crash")
        original_do_get(self)

    handler_cls.do_GET = crashing_do_get
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        with caplog.at_level(logging.WARNING, logger="repro.serving"):
            crasher = socket.create_connection(("127.0.0.1", port),
                                               timeout=10)
            crasher.sendall(b"GET /boom HTTP/1.1\r\nHost: x\r\n\r\n")
            # The socket is shut down cleanly (EOF), not left hanging.
            assert crasher.recv(4096) == b""
            crasher.close()
        assert any("aborted" in record.message
                   and "injected handler crash" in record.getMessage()
                   for record in caplog.records)
        # The single pool worker survived the crash and keeps serving.
        for _ in range(3):
            assert _http(port, "/healthz")["status"] == "ok"
        # The crashed connection released its admission slot (the last
        # healthz keep-alive may still be draining, hence <= 1).
        assert server.load_status()["in_flight"] <= 1
    finally:
        server.shutdown()
        server.server_close()


def test_idle_keep_alive_connection_releases_worker(serving_dataset):
    import socket

    service = QueryService("TDG", 1.0, seed=9, domain_size=16)
    service.ingest(serving_dataset.values[:200])
    service.refinalize()
    server = build_server(service, port=0, workers=1, handler_timeout=0.3)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        # A stalled keep-alive client holds the only worker...
        staller = socket.create_connection(("127.0.0.1", port), timeout=10)
        staller.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        response = staller.recv(65536)
        assert b"200" in response.split(b"\r\n", 1)[0]
        # ...then idles.  The idle timeout must release the worker so
        # this concurrent request is answered, not starved forever.
        assert _http(port, "/healthz")["status"] == "ok"
        staller.close()
    finally:
        server.shutdown()
        server.server_close()


def test_http_not_ready_is_conflict(tmp_path):
    service = QueryService("TDG", 1.0, domain_size=16)
    server = build_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        code, body = _http_error(port, "/query", {"queries": [[[0, 0, 1]]]})
        assert code == 409 and "not ready" in body["error"]
        assert body["code"] == "conflict"
        assert _http_error(port, "/snapshot", {})[0] == 409  # no store
    finally:
        server.shutdown()
        server.server_close()


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
def test_cli_snapshot_create_list_inspect(tmp_path, capsys):
    directory = str(tmp_path / "store")
    assert main(["snapshot", "create", "--dir", directory,
                 "--mechanism", "TDG", "--n-users", "2000",
                 "--n-attributes", "3", "--domain-size", "16"]) == 0
    assert "wrote snapshot version 1" in capsys.readouterr().out
    assert main(["snapshot", "list", "--dir", directory]) == 0
    assert "<- latest" in capsys.readouterr().out
    assert main(["snapshot", "inspect", "--dir", directory]) == 0
    output = capsys.readouterr().out
    assert "mechanism=TDG" in output and "estimator=present" in output


def test_cli_snapshot_list_empty_store(tmp_path, capsys):
    assert main(["snapshot", "list", "--dir", str(tmp_path)]) == 0
    assert "no snapshots" in capsys.readouterr().out


def test_cli_serve_restore_smoke(tmp_path, capsys):
    """serve binds, restores the stored service and exits (0 requests)."""
    directory = str(tmp_path / "store")
    main(["snapshot", "create", "--dir", directory, "--mechanism", "TDG",
          "--n-users", "2000", "--n-attributes", "3",
          "--domain-size", "16"])
    capsys.readouterr()
    assert main(["serve", "--restore", "--snapshot-dir", directory,
                 "--port", "0", "--max-requests", "0"]) == 0
    output = capsys.readouterr().out
    assert "serving TDG" in output and "ready=True" in output


def test_cli_serve_requires_store_for_restore(capsys):
    assert main(["serve", "--restore", "--port", "0",
                 "--max-requests", "0"]) == 2
    assert "--restore requires" in capsys.readouterr().err


def test_cli_clean_errors_on_missing_snapshots(tmp_path, capsys):
    """Empty stores and missing versions exit 2 with a message, no traceback."""
    directory = str(tmp_path / "empty")
    assert main(["serve", "--restore", "--snapshot-dir", directory,
                 "--port", "0", "--max-requests", "0"]) == 2
    assert "cannot restore" in capsys.readouterr().err
    assert main(["snapshot", "inspect", "--dir", directory]) == 2
    assert "empty" in capsys.readouterr().err
