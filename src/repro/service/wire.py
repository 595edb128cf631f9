"""The wire layer under ``repro serve``: one HTTP server base and one
request intake, shared by every role (``docs/api.md``, "The wire
layer", is the reference).

A daemon — the standalone/worker node (:mod:`repro.service.daemon`) or
the cluster coordinator (:mod:`repro.cluster.coordinator`) — is an
:class:`HttpDaemon` plus a **route table**: ``(method, path)`` →
:class:`Route`, whose callable takes a :class:`Request` and returns one
shape, ``(status, body, outcome, request_key)``.  ``body`` is a JSON
document (a ``dict``, encoded here) or ready ``bytes`` sent verbatim
under the route's content type; ``outcome`` and ``request_key`` go to
the request log.  A key ending in ``/`` (``"/store/"``) matches every
path below it.

Everything else about HTTP happens here, once: a declared body within
:data:`MAX_BODY_BYTES` is read before routing (``POST`` JSON-decoded,
``PUT`` raw) and bad bodies / unknown paths answer the ``kind: "body"``
400 / ``kind: "routing"`` 404 documents; an answer sent while declared
body bytes are still unread carries ``Connection: close``, so a
keep-alive client's next request is never parsed out of the leftovers;
``Retry-After: 1`` rides on 429; and every request logs one JSON line.
Connections are kept alive: an answer leaves without waiting on Nagle's
algorithm (``TCP_NODELAY``), a connection idle for :data:`IDLE_TIMEOUT`
seconds is closed, and :meth:`HttpDaemon.close` shuts every live
connection, so a closed daemon answers nothing more.
:func:`intake` is the request-side counterpart: the validate → 400/key
prologue of both ``handle_evaluate`` implementations, so one daemon
parses and keys a request exactly once.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, NamedTuple, Optional, Set, Tuple, Union

from ..api import (API_SCHEMA_VERSION, EvaluateRequest,
                   RequestValidationError)
from .admission import DEFAULT_TENANT
from .config import ServiceConfig

MAX_BODY_BYTES = 1 << 20  # a request describes one cell; 1 MiB is ample

#: Seconds a kept-alive connection may sit between requests (or stall
#: mid-request) before the server closes it and frees its thread.
IDLE_TIMEOUT = 30.0

JSON = "application/json"

#: What every route (and ``handle_evaluate``) answers.
Reply = Tuple[int, Union[bytes, Dict[str, object]], str, Optional[str]]


class Request(NamedTuple):
    """What a route sees of one HTTP request."""

    path: str             # query string stripped
    body: object          # the decoded JSON body (POST), else None
    raw: Optional[bytes]  # the body bytes as read (POST/PUT), else None
    tenant: str           # X-Repro-Tenant (absent/blank = "default")


class Route(NamedTuple):
    call: Callable[[Request], Reply]
    #: Content type of a ``bytes`` body (documents are always JSON).
    content_type: str = JSON


def answers(document: Callable[[], Union[bytes, Dict[str, object]]],
            outcome: str, content_type: str = JSON) -> Route:
    """A route that always answers 200 with ``document()``."""
    return Route(lambda request: (200, document(), outcome, None),
                 content_type)


def not_found(path: str) -> Reply:
    return (404, {"error": "no such endpoint: %s" % path,
                  "kind": "routing"}, "not-found", None)


def intake(body: object, incr: Callable[[str], None]
           ) -> Tuple[Optional[EvaluateRequest], Optional[str],
                      Optional[Reply]]:
    """Count, validate and key one decoded ``/v1/evaluate`` body:
    ``(request, request_key, None)``, or ``(None, None, reply)`` with
    the 400 validation answer."""
    incr("requests_total")
    try:
        request = EvaluateRequest.from_dict(body)
    except RequestValidationError as error:
        incr("validation_errors")
        return None, None, (400, {"error": str(error),
                                  "kind": "validation"}, "invalid", None)
    return request, request.request_key(), None


class HttpDaemon:
    """One :class:`~http.server.ThreadingHTTPServer` (a thread per
    connection; evaluation concurrency is the service's business, not
    the socket layer's), its lifecycle and the structured JSON log.
    Subclasses supply ``service``, the route table and their
    ``server_name``."""

    #: ``Server:`` header product and HTTP thread name.
    server_name = "repro-serve"

    def __init__(self, config: ServiceConfig, service,
                 routes: Dict[Tuple[str, str], Route]):
        self.config = config
        self.service = service
        self.routes = routes
        handler = type("Handler", (_Handler,), {
            "daemon": self,
            "server_version": "%s/%s" % (self.server_name,
                                         API_SCHEMA_VERSION)})
        self.server = ThreadingHTTPServer((config.host, config.port),
                                          handler)
        self.server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        # Whether a serve_forever loop may be running on another thread:
        # server.shutdown() waits for one, so a daemon that never
        # served must not call it.
        self._serving = False
        self._closed = False
        #: Accepted connections whose handler thread is still running.
        self._live: Set[socket.socket] = set()
        self._lock = threading.Lock()

    # -- addresses ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``--port 0``)."""
        return self.server.server_address[1]

    @property
    def address(self) -> str:
        return "http://%s:%d" % (self.server.server_address[0],
                                 self.port)

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Serve on a background thread (tests, embedding)."""
        self._serving = True
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True,
            name=self.server_name + "-http")
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI)."""
        self.log_event({"event": "serving", "role": self.config.role,
                        "address": self.address, "port": self.port,
                        "queue_limit": self.config.queue_limit,
                        "schema": API_SCHEMA_VERSION})
        self._serving = True
        try:
            self.server.serve_forever()
        finally:
            self._serving = False   # the loop has ended on this thread
            self.close()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # Handler threads are daemonic and outlive server_close():
            # shut their sockets so none answers another request.
            for connection in self._live:
                _hang_up(connection)
        if self._serving:
            self.server.shutdown()
        self.server.server_close()
        self.service.close()
        if self._thread is not None:
            self._thread.join(2.0)
        self.log_event({"event": "stopped", "role": self.config.role})

    def _adopt(self, connection: socket.socket) -> None:
        with self._lock:
            if not self._closed:
                self._live.add(connection)
                return
        _hang_up(connection)

    def _release(self, connection: socket.socket) -> None:
        # Under the lock, so close() never shuts a socket whose file
        # descriptor the server has already closed and reused.
        with self._lock:
            self._live.discard(connection)

    # -- logging -----------------------------------------------------------

    def request_gauges(self) -> Dict[str, object]:
        """Role-specific fields appended to every request-log line."""
        return {}

    def log_event(self, fields: Dict[str, object]) -> None:
        if self.config.quiet:
            return
        stream = self.config.log_stream or sys.stderr
        record = {"ts": round(time.time(), 3)}
        record.update(fields)
        try:
            stream.write(json.dumps(record, sort_keys=True) + "\n")
            stream.flush()
        except Exception:
            pass  # logging must never take the daemon down


def _hang_up(connection: socket.socket) -> None:
    try:
        connection.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # the client is already gone


class _Handler(BaseHTTPRequestHandler):
    """Framing, routing and the response/log epilogue for every role;
    :class:`HttpDaemon` binds ``daemon`` and ``server_version``."""

    protocol_version = "HTTP/1.1"
    # Headers and body are two writes; with Nagle on, the body waits
    # for the client's delayed ACK of the headers (~40 ms per request
    # on a kept-alive connection).
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT
    daemon: HttpDaemon

    def setup(self):
        super().setup()
        self.daemon._adopt(self.connection)

    def finish(self):
        self.daemon._release(self.connection)
        super().finish()

    def log_message(self, format, *args):  # noqa: A002
        pass  # replaced by the structured JSON log line

    def _read_body(self) -> Tuple[Optional[bytes], Optional[str], bool]:
        """``(raw, problem, unread)``: the declared body, or why there
        is none and whether its bytes are still on the connection."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return None, "invalid Content-Length", True
        if length <= 0:
            return None, "missing request body", length < 0
        if length > MAX_BODY_BYTES:
            return None, "request body too large", True
        return self.rfile.read(length), None, False

    def _dispatch(self) -> None:
        started = time.perf_counter()
        path = self.path.split("?", 1)[0]
        raw, problem, unread = self._read_body()
        document = None
        if self.command == "GET":
            raw = problem = None  # a GET's body, if any, is only drained
        elif self.command == "POST" and problem is None:
            try:
                document = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                problem = "invalid JSON body: %s" % (error,)
        routes = self.daemon.routes
        route = (routes.get((self.command, path))
                 or routes.get((self.command,
                                path[:path.find("/", 1) + 1])))
        if route is None:
            reply = not_found(path)
        elif problem is not None:
            reply = (400, {"error": problem, "kind": "body"},
                     "invalid", None)
        else:
            tenant = (self.headers.get("X-Repro-Tenant")
                      or DEFAULT_TENANT).strip() or DEFAULT_TENANT
            reply = route.call(Request(path, document, raw, tenant))
        self._respond(reply, route.content_type if route else JSON,
                      unread, started)

    do_GET = do_POST = do_PUT = _dispatch

    def _respond(self, reply: Reply, content_type: str, unread: bool,
                 started: float) -> None:
        status, body, outcome, request_key = reply
        if not isinstance(body, bytes):
            body, content_type = json.dumps(body).encode("utf-8"), JSON
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if status == 429:
            self.send_header("Retry-After", "1")
        if unread:
            # Also makes the server drop the connection after this
            # answer instead of parsing the leftover body bytes.
            self.send_header("Connection", "close")
        try:
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            outcome += "+client-gone"
        record = {"event": "request", "method": self.command,
                  "path": self.path, "status": status,
                  "seconds": round(time.perf_counter() - started, 4),
                  "outcome": outcome, "request_key": request_key}
        record.update(self.daemon.request_gauges())
        self.daemon.log_event(record)
