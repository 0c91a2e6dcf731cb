"""Stdlib HTTP front-end for :class:`~repro.serving.QueryService`.

The API is a small JSON-over-HTTP surface on a worker-pool server — no
third-party dependencies.  Connections are accepted on the listener
thread and handed to a bounded :class:`~concurrent.futures.
ThreadPoolExecutor`, each worker serving its connection's requests
(HTTP/1.1 keep-alive) with the service's internal lock serializing
state changes:

=======  =================  ================================================
Method   Path               Meaning
=======  =================  ================================================
GET      ``/healthz``       Liveness: status document + package version (and,
                            in multi-tenant mode, the ``storage``,
                            ``resilience`` and ``load`` sections)
GET      ``/readyz``        Readiness: 200 only when every tenant is
                            serving (no open breakers, nothing quarantined)
POST     ``/ingest``        ``{"rows": [[...], ...], "domain_size"?: c}``
POST     ``/query``         ``{"queries": [...]}`` — one typed wire
                            workload — or ``{"workloads": [[...], ...]}`` —
                            a batch answered under one lock acquisition (see
                            :meth:`~repro.serving.QueryService.query_wire_batch`)
POST     ``/refinalize``    Force a re-finalize of the pending reports
POST     ``/snapshot``      Write a snapshot version (requires a store)
GET      ``/snapshot``      List stored snapshot versions
GET      ``/tenants``       List hosted tenants (multi-tenant mode)
POST     ``/tenants``       Create a tenant: ``{"name": n, "config": {...}}``
GET      ``/tenants/<n>``   Inspect one tenant (config, status, snapshots)
DELETE   ``/tenants/<n>``   Delete a tenant and all its stored state
=======  =================  ================================================

When the server is built with a :class:`~repro.serving.tenants.
TenantManager`, the four serving routes take an optional tenant name —
``"tenant"`` in the POST body or ``?tenant=<name>`` on the URL — and
route to that tenant's service; requests without one fall back to the
``default`` tenant, so the single-tenant wire format keeps working
unchanged.  Ingest then flows through the manager's write-ahead log
(the receipt gains ``wal_seq``), and ``/snapshot`` persists through the
storage backend instead of a bare directory store.

Errors return a structured body ``{"error": msg, "code": code}``:
400 ``bad-request`` for malformed payloads (including bodies that are
not valid JSON and unknown query ``"type"`` values), 404 ``not-found``
for unknown paths, 404 ``unknown-tenant`` for routes naming a tenant
that does not exist, 409 ``conflict`` for operations the service cannot
perform in its current state (not ready, static mode, no snapshot
store, duplicate tenant), 429 ``quota-exceeded`` when an ingest batch
would push a tenant past its configured quota, 503 ``degraded`` (with a
``Retry-After`` header) when a tenant's write-ahead log is unavailable
or the tenant is quarantined, 503 ``overloaded`` (also ``Retry-After``)
when the bounded admission queue is full, and 500 ``internal`` for
unexpected failures — never a raw traceback on the wire.

Build a bound server with :func:`build_server` (``port=0`` picks a free
port — the tests and the in-process quickstart rely on that) and run it
with :func:`serve` or the server's own ``serve_forever``.  The CLI verb
``repro serve`` wraps exactly this module; docs/serving.md shows the
curl transcript.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlsplit

from .._version import package_version
from ..resilience import DegradedServiceError
from ..storage.base import (DEFAULT_TENANT, TenantExistsError,
                            UnknownTenantError)
from .service import QueryService, ServiceError
from .snapshot import SnapshotStore
from .tenants import QuotaExceededError, TenantManager

__all__ = ["ServingHTTPServer", "ServingRequestHandler", "build_server",
           "serve"]

logger = logging.getLogger("repro.serving")

#: Default size of the request worker pool.
DEFAULT_WORKERS = 8

#: Default admission queue: connections accepted beyond the worker
#: count that wait for a free worker instead of being shed.
DEFAULT_QUEUE_DEPTH = 16

#: Pre-rendered load-shedding response, written on the listener thread
#: (no worker, no handler) so an overloaded server still answers fast.
_SHED_BODY = json.dumps({
    "error": "server overloaded: admission queue full; retry later",
    "code": "overloaded",
}).encode("utf-8")
_SHED_RESPONSE = (b"HTTP/1.1 503 Service Unavailable\r\n"
                  b"Content-Type: application/json\r\n"
                  b"Retry-After: 1\r\n"
                  b"Connection: close\r\n"
                  b"Content-Length: " + str(len(_SHED_BODY)).encode()
                  + b"\r\n\r\n" + _SHED_BODY)


class ServingHTTPServer(HTTPServer):
    """HTTP server dispatching connections onto a bounded worker pool.

    ``ThreadingHTTPServer`` spawns an unbounded thread per connection
    and (with daemon threads) may exit mid-response; with non-daemon
    threads every connection still pays thread start-up on the accept
    path.  This server keeps a fixed pool of warm workers instead: the
    listener thread only accepts and enqueues, a worker owns the
    connection for its whole keep-alive lifetime, and
    ``server_close()`` drains the pool so every started response is
    written before shutdown completes.

    Admission is bounded: at most ``workers + queue_depth`` connections
    are in flight (being served or waiting for a worker).  Beyond that
    the listener thread itself writes a pre-rendered 503 ``overloaded``
    response (with ``Retry-After``) and closes the connection — load
    shedding never waits on a worker, so a saturated pool cannot grow
    an unbounded backlog of accepted-but-unserved sockets.
    """

    def __init__(self, server_address, RequestHandlerClass,
                 workers: int = DEFAULT_WORKERS,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.workers = workers
        self.queue_depth = queue_depth
        self._admission_lock = threading.Lock()
        self._in_flight = 0
        self._shed_connections = 0
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serving-worker")
        super().__init__(server_address, RequestHandlerClass)

    @property
    def capacity(self) -> int:
        """Maximum connections in flight before shedding starts."""
        return self.workers + self.queue_depth

    def process_request(self, request, client_address) -> None:
        with self._admission_lock:
            admitted = self._in_flight < self.capacity
            if admitted:
                self._in_flight += 1
            else:
                self._shed_connections += 1
        if not admitted:
            self._shed(request, client_address)
            return
        self._pool.submit(self._process_in_worker, request, client_address)

    def _shed(self, request, client_address) -> None:
        """Refuse one connection on the listener thread (static 503)."""
        logger.warning("shedding connection from %s:%s: at capacity "
                       "(%d in flight)", *client_address[:2], self.capacity)
        try:
            request.sendall(_SHED_RESPONSE)
        except OSError:
            pass  # client already gone; nothing to tell it
        finally:
            self.shutdown_request(request)

    def _process_in_worker(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception as error:
            # A handler crash must cost exactly one connection: log it
            # (with the peer, so floods are attributable) and fall
            # through to the socket shutdown — never kill the worker
            # or leave the client hanging on a half-open socket.
            logger.warning("connection from %s:%s aborted: %s: %s",
                           *client_address[:2],
                           type(error).__name__, error)
        finally:
            self.shutdown_request(request)
            with self._admission_lock:
                self._in_flight -= 1

    def load_status(self) -> dict:
        """The ``/healthz`` load section: pool and admission counters."""
        with self._admission_lock:
            return {
                "workers": self.workers,
                "queue_depth": self.queue_depth,
                "capacity": self.capacity,
                "in_flight": self._in_flight,
                "shed_connections": self._shed_connections,
            }

    def server_close(self) -> None:
        super().server_close()
        self._pool.shutdown(wait=True)


class ServingRequestHandler(BaseHTTPRequestHandler):
    """Routes the JSON API onto one :class:`QueryService`.

    Subclasses produced by :func:`build_server` bind the ``service``,
    ``snapshot_store``, ``tenant_manager`` and ``verbose`` class
    attributes.  With a ``tenant_manager``, serving routes resolve a
    tenant per request; without one, the server runs in the original
    single-service mode.
    """

    service: QueryService | None = None
    snapshot_store: SnapshotStore | None = None
    tenant_manager: TenantManager | None = None
    verbose: bool = False

    server_version = "repro-serving/1.0"
    #: HTTP/1.1 keeps connections alive across requests, so a client
    #: posting a stream of workloads pays the TCP/accept cost once.
    protocol_version = "HTTP/1.1"
    #: Socket timeout: an idle keep-alive connection releases its pool
    #: worker after this many seconds instead of pinning it forever.
    timeout = 5.0
    #: TCP_NODELAY: a response is written as two small sends (headers,
    #: body); with Nagle on, the second waits for the client's delayed
    #: ACK — a ~40 ms stall per keep-alive request.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, document: dict,
                   headers: dict | None = None) -> None:
        body = json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        """Structured error body: ``error`` stays a plain string (the
        stable field clients match on), ``code`` is the machine tag."""
        self._send_json(status, {"error": message, "code": code})

    def _send_degraded(self, error: DegradedServiceError) -> None:
        """503 ``degraded`` with a ``Retry-After`` header.

        The body carries the tenant and the retry hint too, so clients
        that cannot read headers (or log aggregators) still see them.
        """
        retry_after = max(1, math.ceil(error.retry_after))
        body = json.dumps({"error": str(error), "code": "degraded",
                           "tenant": error.tenant,
                           "retry_after": retry_after}).encode("utf-8")
        self.send_response(503)
        self.send_header("Content-Type", "application/json")
        self.send_header("Retry-After", str(retry_after))
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        """The request body as a JSON object.

        Always consumes the full ``Content-Length`` before raising, so
        a malformed body never desynchronizes a keep-alive connection.
        A length that is not a non-negative integer leaves the body's
        end unknown: it is rejected without reading (``rfile.read(-1)``
        would block until the peer closes) and the connection closes.
        """
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            self.close_connection = True
            raise ValueError(f"Content-Length must be a non-negative "
                             f"integer, got {header!r}")
        length = int(header)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            document = json.loads(raw)
        except ValueError as error:
            raise ValueError(f"invalid JSON body ({error})") from error
        if not isinstance(document, dict):
            raise ValueError("invalid JSON body (request body must be a "
                             "JSON object)")
        return document

    # ------------------------------------------------------------------
    # Tenant resolution
    # ------------------------------------------------------------------
    def _split_path(self) -> tuple[str, dict]:
        """``self.path`` as (path, single-valued query params)."""
        parsed = urlsplit(self.path)
        params = {key: values[-1]
                  for key, values in parse_qs(parsed.query).items()}
        return parsed.path, params

    def _tenant_of(self, payload: dict, params: dict) -> str:
        """The tenant a serving request routes to (default fallback)."""
        return str(payload.get("tenant") or params.get("tenant")
                   or DEFAULT_TENANT)

    def _service_for(self, tenant: str) -> QueryService:
        """The :class:`QueryService` answering for ``tenant``."""
        if self.tenant_manager is not None:
            return self.tenant_manager.service(tenant)
        return self.service

    def _healthz_document(self, params: dict) -> dict:
        """``GET /healthz``: liveness — always 200 while the process
        answers; degradation is reported inline, not via the status."""
        document = {"status": "ok", "version": package_version()}
        document["load"] = self.server.load_status()
        if self.tenant_manager is None:
            return {**document, **self.service.status()}
        storage = self.tenant_manager.storage_status()
        tenant = self._tenant_of({}, params)
        if self.tenant_manager.has_tenant(tenant):
            document.update(self.tenant_manager.service(tenant).status())
            document["tenant"] = tenant
        document["storage"] = storage
        document["resilience"] = self.tenant_manager.resilience_status()
        return document

    def _readyz(self) -> None:
        """``GET /readyz``: readiness — 503 while any tenant is
        degraded or quarantined (or, single-service, not ready)."""
        if self.tenant_manager is None:
            ready = bool(self.service.is_ready)
            document = {"ready": ready}
        else:
            ready, document = self.tenant_manager.readiness()
        self._send_json(200 if ready else 503, document)

    def _snapshot_listing(self, tenant: str) -> dict:
        """``GET /snapshot``: versions from the store or metadata tables."""
        if self.tenant_manager is not None:
            records = self.tenant_manager.backend.list_snapshots(tenant)
            return {
                "tenant": tenant,
                "location": self.tenant_manager.backend.location(),
                "versions": [record.version for record in records],
                "latest": records[-1].version if records else None,
                "snapshots": [record.to_document() for record in records],
            }
        if self.snapshot_store is None:
            raise ServiceError("no snapshot store configured "
                               "(start with --snapshot-dir)")
        return {
            "directory": str(self.snapshot_store.directory),
            "versions": self.snapshot_store.versions(),
            "latest": self.snapshot_store.latest_version(),
        }

    def _save_snapshot(self, tenant: str) -> dict:
        """``POST /snapshot``: persist through the manager or the store."""
        if self.tenant_manager is not None:
            record = self.tenant_manager.save_snapshot(tenant)
            return {"tenant": tenant, "version": record.version,
                    "wal_seq": record.wal_seq,
                    "size_bytes": record.size_bytes}
        if self.snapshot_store is None:
            raise ServiceError("no snapshot store configured "
                               "(start with --snapshot-dir)")
        info = self.service.save_snapshot(self.snapshot_store)
        return {"version": info.version, "path": str(info.path)}

    def _require_manager(self) -> TenantManager:
        if self.tenant_manager is None:
            raise ServiceError("multi-tenant administration needs a storage "
                               "backend (start with --backend/--store)")
        return self.tenant_manager

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Read-only routes: ``/healthz``, snapshot and tenant listings."""
        path, params = self._split_path()
        try:
            if path == "/healthz":
                self._send_json(200, self._healthz_document(params))
            elif path == "/readyz":
                self._readyz()
            elif path == "/snapshot":
                tenant = self._tenant_of({}, params)
                self._send_json(200, self._snapshot_listing(tenant))
            elif path == "/tenants":
                manager = self._require_manager()
                self._send_json(200, {"tenants": manager.list_tenants(),
                                      "count": len(manager.tenant_names())})
            elif path.startswith("/tenants/"):
                manager = self._require_manager()
                name = path.removeprefix("/tenants/")
                self._send_json(200, manager.describe_tenant(name))
            else:
                self._send_error_json(404, "not-found",
                                      f"unknown path {path}")
        except DegradedServiceError as error:
            self._send_degraded(error)
        except UnknownTenantError as error:
            self._send_error_json(404, "unknown-tenant", str(error))
        except ServiceError as error:
            self._send_error_json(409, "conflict", str(error))
        except Exception as error:  # pragma: no cover - defensive
            self._send_error_json(500, "internal",
                                  f"internal error: "
                                  f"{type(error).__name__}: {error}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """State-changing routes: ingest, query, refinalize, snapshot,
        tenant creation."""
        # Read (and fully consume) the body before routing: a parse
        # failure must still leave the connection aligned on the next
        # request boundary, and must answer 400, not tear down the
        # connection with a traceback.
        try:
            payload = self._read_json()
        except ValueError as error:
            self._send_json(400, {"error": f"bad request: {error}",
                                  "code": "bad-request"},
                            headers=({"Connection": "close"}
                                     if self.close_connection else None))
            return
        path, params = self._split_path()
        try:
            if path == "/ingest":
                tenant = self._tenant_of(payload, params)
                if self.tenant_manager is not None:
                    receipt = self.tenant_manager.ingest(
                        tenant, payload["rows"], payload.get("domain_size"))
                else:
                    receipt = self.service.ingest(payload["rows"],
                                                  payload.get("domain_size"))
                self._send_json(200, receipt)
            elif path == "/query":
                service = self._service_for(self._tenant_of(payload, params))
                self._send_json(200, self._answer_query(service, payload))
            elif path == "/refinalize":
                tenant = self._tenant_of(payload, params)
                if self.tenant_manager is not None:
                    status = self.tenant_manager.refinalize(tenant)
                else:
                    status = self.service.refinalize()
                # The epoch the re-finalize published: clients use the
                # header to confirm subsequent reads observe it.
                self._send_json(200, status,
                                headers={"Refinalize-Epoch":
                                         status.get("epoch", 0)})
            elif path == "/snapshot":
                tenant = self._tenant_of(payload, params)
                self._send_json(200, self._save_snapshot(tenant))
            elif path == "/tenants":
                manager = self._require_manager()
                record = manager.create_tenant(
                    str(payload["name"]), dict(payload.get("config") or {}))
                self._send_json(201, {"name": record.name,
                                      "created_at": record.created_at,
                                      "config": record.config})
            else:
                self._send_error_json(404, "not-found",
                                      f"unknown path {path}")
        except QuotaExceededError as error:
            self._send_error_json(429, "quota-exceeded", str(error))
        except DegradedServiceError as error:
            self._send_degraded(error)
        except UnknownTenantError as error:
            self._send_error_json(404, "unknown-tenant", str(error))
        except TenantExistsError as error:
            self._send_error_json(409, "conflict", str(error))
        except ServiceError as error:
            self._send_error_json(409, "conflict", str(error))
        except (KeyError, ValueError, TypeError) as error:
            self._send_error_json(400, "bad-request",
                                  f"bad request: {error}")
        except Exception as error:
            self._send_error_json(500, "internal",
                                  f"internal error: "
                                  f"{type(error).__name__}: {error}")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        """``DELETE /tenants/<name>``: drop a tenant and its state."""
        path, _ = self._split_path()
        try:
            if path.startswith("/tenants/"):
                manager = self._require_manager()
                name = path.removeprefix("/tenants/")
                manager.delete_tenant(name)
                self._send_json(200, {"deleted": name})
            else:
                self._send_error_json(404, "not-found",
                                      f"unknown path {path}")
        except DegradedServiceError as error:
            self._send_degraded(error)
        except UnknownTenantError as error:
            self._send_error_json(404, "unknown-tenant", str(error))
        except ServiceError as error:
            self._send_error_json(409, "conflict", str(error))
        except Exception as error:  # pragma: no cover - defensive
            self._send_error_json(500, "internal",
                                  f"internal error: "
                                  f"{type(error).__name__}: {error}")

    def _answer_query(self, service: QueryService, payload: dict) -> dict:
        """Dispatch ``/query``: one workload or a batch of workloads."""
        if "workloads" in payload:
            if "queries" in payload:
                raise ValueError(
                    "pass either 'queries' or 'workloads', not both")
            return service.query_wire_batch(payload["workloads"])
        if "queries" not in payload:
            raise ValueError("payload needs 'queries' (one workload) or "
                             "'workloads' (a batch of workloads)")
        return service.query_wire(payload["queries"])


def build_server(service: QueryService | None = None,
                 host: str = "127.0.0.1",
                 port: int = 0, snapshot_store: SnapshotStore | None = None,
                 verbose: bool = False,
                 workers: int = DEFAULT_WORKERS,
                 tenant_manager: TenantManager | None = None,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 handler_timeout: float | None = None,
                 ) -> ServingHTTPServer:
    """A bound (not yet running) worker-pool HTTP server.

    Pass ``service`` for the original single-service mode, or
    ``tenant_manager`` for multi-tenant serving over a storage backend
    (requests without a tenant route to the ``default`` tenant).
    ``port=0`` binds any free port; read the result from
    ``server.server_address``.  ``workers`` sizes the request pool —
    each worker owns one keep-alive connection at a time —
    ``queue_depth`` bounds how many more connections may wait for a
    worker before the listener sheds with 503, and ``handler_timeout``
    overrides the idle keep-alive socket timeout (seconds).
    """
    if (service is None) == (tenant_manager is None):
        raise ValueError("pass exactly one of service or tenant_manager")
    attributes = {"service": service, "snapshot_store": snapshot_store,
                  "tenant_manager": tenant_manager, "verbose": verbose}
    if handler_timeout is not None:
        if handler_timeout <= 0:
            raise ValueError("handler_timeout must be > 0")
        attributes["timeout"] = float(handler_timeout)
    handler = type("BoundServingRequestHandler", (ServingRequestHandler,),
                   attributes)
    return ServingHTTPServer((host, port), handler, workers=workers,
                             queue_depth=queue_depth)


def serve(server: ServingHTTPServer,
          max_requests: int | None = None) -> None:
    """Run the accept loop: forever, or for ``max_requests`` connections.

    The bounded form exists for smoke tests and scripted ops checks
    (``repro serve --max-requests N``); callers still own
    ``server.server_close()``, which drains the worker pool so every
    accepted connection finishes its responses.
    """
    if max_requests is None:
        server.serve_forever()
    else:
        for _ in range(max_requests):
            server.handle_request()
