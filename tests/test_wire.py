"""The HTTP surface ``repro.service.wire`` owns, checked once against
both daemon kinds: body framing and its 400 documents, the routing 404,
``Retry-After``, exact ``Content-Length``, the ``Server:`` strings, the
request-log schema, the connection-close rule after an unread body,
kept-alive answers without the Nagle stall, a closed daemon answering
nothing, and "one daemon parses a request once"."""

from __future__ import annotations

import http.client
import io
import json
import time

import pytest

from repro.api import (API_SCHEMA_VERSION, EvaluateRequest,
                       EvaluateResult, ServiceClient, configure_cache)
from repro.cluster import CoordinatorDaemon
from repro.service import ServiceConfig, ServiceDaemon
from repro.service.wire import MAX_BODY_BYTES

CELL = dict(program={"kind": "registry", "value": "ks"},
            technique="gremio", n_threads=2, scale="train")

#: Request-log fields of every role, and what a node adds.
LOG_FIELDS = {"ts", "event", "method", "path", "status", "seconds",
              "outcome", "request_key"}
NODE_GAUGES = {"queue_depth", "in_flight"}

KINDS = {"node": ("repro-serve/", NODE_GAUGES),
         "coordinator": ("repro-coordinator/", set())}


def _fake_evaluate(request):
    return EvaluateResult(request=request, metrics={"speedup": 1.0})


@pytest.fixture(params=sorted(KINDS))
def daemon(request, tmp_path):
    previous = configure_cache(str(tmp_path / "artifacts"))
    common = dict(host="127.0.0.1", port=0, queue_limit=4,
                  log_stream=io.StringIO())
    if request.param == "node":
        instance = ServiceDaemon(ServiceConfig(
            workers=0, evaluate_fn=_fake_evaluate, **common))
    else:
        instance = CoordinatorDaemon(
            ServiceConfig(role="coordinator", **common),
            store_directory=str(tmp_path / "coord-store"))
    instance.kind = request.param
    instance.start()
    try:
        yield instance
    finally:
        instance.close()
        configure_cache(previous.directory, previous.enabled)


def _exchange(connection, method, path, body=None, headers=None):
    """One request on ``connection``: ``(status, headers, raw body)``."""
    connection.request(method, path, body=body, headers=headers or {})
    reply = connection.getresponse()
    return reply.status, reply.headers, reply.read()


def _connect(daemon):
    return http.client.HTTPConnection("127.0.0.1", daemon.port,
                                      timeout=30)


def _request_log(daemon, count):
    """The ``count`` most recent request-log records (the line lands
    just after the response body is flushed, so poll briefly)."""
    deadline = time.time() + 5.0
    while True:
        records = [json.loads(line) for line
                   in daemon.config.log_stream.getvalue().splitlines()]
        records = [r for r in records if r.get("event") == "request"]
        if len(records) >= count or time.time() > deadline:
            return records[-count:]
        time.sleep(0.02)


class TestHttpSurface:
    @pytest.mark.parametrize("body,headers,error,closes", [
        (None, {}, "missing request body", False),
        (b"{}", {"Content-Length": str(MAX_BODY_BYTES + 1)},
         "request body too large", True),
        (b"{}", {"Content-Length": "two"}, "invalid Content-Length",
         True),
        (b"{not json", {}, "invalid JSON body", False),
        (b"\xff\xfe", {}, "invalid JSON body", False),
    ])
    def test_body_errors_answer_the_400_document(self, daemon, body,
                                                 headers, error, closes):
        connection = _connect(daemon)
        try:
            # skip_host/auto headers off: http.client would otherwise
            # overwrite the ill-declared Content-Length under test.
            connection.putrequest("POST", "/v1/evaluate")
            declared = dict(headers)
            if body is not None:
                declared.setdefault("Content-Length", str(len(body)))
            for name, value in declared.items():
                connection.putheader(name, value)
            connection.endheaders(body)
            reply = connection.getresponse()
            document = json.loads(reply.read())
        finally:
            connection.close()
        assert reply.status == 400
        assert document["kind"] == "body"
        assert document["error"].startswith(error)
        assert sorted(document) == ["error", "kind"]
        assert reply.headers["Content-Type"] == "application/json"
        assert (reply.headers.get("Connection") == "close") is closes

    @pytest.mark.parametrize("method", ["GET", "POST", "PUT"])
    def test_unknown_path_is_the_routing_404(self, daemon, method):
        body = b'{"a": 1}' if method != "GET" else None
        connection = _connect(daemon)
        try:
            status, headers, raw = _exchange(connection, method,
                                             "/nope?x=1", body)
        finally:
            connection.close()
        assert status == 404
        assert json.loads(raw) == {"error": "no such endpoint: /nope",
                                   "kind": "routing"}
        assert int(headers["Content-Length"]) == len(raw)
        record, = _request_log(daemon, 1)
        assert (record["outcome"], record["path"]) == ("not-found",
                                                       "/nope?x=1")

    def test_retry_after_on_429(self, daemon, monkeypatch):
        shed = {"error": "queue full", "kind": "shed"}
        monkeypatch.setattr(
            daemon.service, "handle_evaluate",
            lambda *args, **kwargs: (429, shed, "shed", "some-key"))
        connection = _connect(daemon)
        try:
            status, headers, raw = _exchange(
                connection, "POST", "/v1/evaluate", json.dumps(CELL))
            assert (status, json.loads(raw)) == (429, shed)
            assert headers["Retry-After"] == "1"
            status, headers, _ = _exchange(connection, "GET", "/healthz")
            assert status == 200 and "Retry-After" not in headers
        finally:
            connection.close()
        record = _request_log(daemon, 2)[0]
        assert record["request_key"] == "some-key"

    def test_headers_and_exact_content_length(self, daemon):
        product, _ = KINDS[daemon.kind]
        connection = _connect(daemon)
        try:
            for path in ("/healthz", "/metrics", "/v1/schema"):
                status, headers, raw = _exchange(connection, "GET", path)
                assert status == 200
                assert int(headers["Content-Length"]) == len(raw)
                assert headers["Content-Type"] == "application/json"
                assert headers["Server"].startswith(
                    product + API_SCHEMA_VERSION)
                assert "Connection" not in headers  # kept alive
                assert isinstance(json.loads(raw), dict)
        finally:
            connection.close()

    def test_request_log_schema(self, daemon):
        _, gauges = KINDS[daemon.kind]
        connection = _connect(daemon)
        try:
            _exchange(connection, "GET", "/healthz")
            status, _, _ = _exchange(connection, "POST", "/v1/evaluate",
                                     json.dumps(CELL),
                                     {"X-Repro-Tenant": " alice "})
        finally:
            connection.close()
        health, evaluate = _request_log(daemon, 2)
        for record in (health, evaluate):
            assert set(record) == LOG_FIELDS | gauges
            assert record["event"] == "request"
            assert record["seconds"] >= 0.0
        assert (health["method"], health["path"], health["status"],
                health["outcome"], health["request_key"]) == (
            "GET", "/healthz", 200, "health", None)
        # The logged key is the one handle_evaluate computed.
        assert evaluate["request_key"] \
            == EvaluateRequest.from_dict(CELL).request_key()
        assert evaluate["status"] == status
        assert evaluate["outcome"] == ("ok" if daemon.kind == "node"
                                       else "no-nodes")

    def test_a_request_is_parsed_once_per_daemon(self, daemon,
                                                 monkeypatch):
        parses = []
        real = EvaluateRequest.from_dict.__func__
        monkeypatch.setattr(
            EvaluateRequest, "from_dict",
            classmethod(lambda cls, body: parses.append(1)
                        or real(cls, body)))
        connection = _connect(daemon)
        try:
            _exchange(connection, "POST", "/v1/evaluate",
                      json.dumps(CELL))
        finally:
            connection.close()
        assert len(parses) == 1

    def test_kept_alive_requests_do_not_stall(self, daemon):
        """Headers and body leave without waiting on Nagle's algorithm:
        with it, each answer on a kept-alive connection waits ~40 ms
        for the client's delayed ACK (50 requests took over 2 s)."""
        connection = _connect(daemon)
        try:
            started = time.perf_counter()
            for _ in range(50):
                _exchange(connection, "POST", "/v1/evaluate",
                          json.dumps(CELL))
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 1.0, "50 kept-alive requests took %.2f s" % elapsed

    def test_closed_daemon_answers_no_kept_alive_connection(self,
                                                            daemon):
        connection = _connect(daemon)
        try:
            assert _exchange(connection, "GET", "/healthz")[0] == 200
            daemon.close()
            # The connection's handler thread outlives the server; it
            # must not answer.
            with pytest.raises((OSError, http.client.HTTPException)):
                _exchange(connection, "GET", "/healthz")
        finally:
            connection.close()
        with pytest.raises(OSError):
            ServiceClient(daemon.address, timeout=5.0).health()


class TestKeepAliveAfterErrors:
    """An error answer never leaves body bytes behind for the server to
    parse as the next request (the stock ``text/html`` 400)."""

    def _healthy(self, connection):
        status, headers, raw = _exchange(connection, "GET", "/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert "status" in json.loads(raw)

    @pytest.mark.parametrize("method,path", [
        ("POST", "/nope"), ("PUT", "/nope"), ("PUT", "/store/a/b/c"),
        ("POST", "/cluster/nope")])
    def test_routing_404_with_a_body_keeps_the_connection(
            self, daemon, method, path):
        connection = _connect(daemon)
        try:
            status, headers, raw = _exchange(connection, method, path,
                                             b'{"a": 1}')
            assert status == 404
            assert json.loads(raw)["kind"] == "routing"
            # The body was within the cap, so it was read: same socket.
            assert "Connection" not in headers
            sock = connection.sock
            self._healthy(connection)
            assert connection.sock is sock
        finally:
            connection.close()

    def test_unread_body_closes_instead_of_desyncing(self, daemon):
        connection = _connect(daemon)
        try:
            connection.putrequest("POST", "/v1/evaluate")
            connection.putheader("Content-Length",
                                 str(MAX_BODY_BYTES + 1))
            connection.endheaders(b'{"a": 1}')
            reply = connection.getresponse()
            document = json.loads(reply.read())
            assert (reply.status, document["kind"]) == (400, "body")
            assert reply.headers["Connection"] == "close"
            # http.client reconnects after a ``Connection: close``
            # answer; the follow-up is a clean exchange either way.
            self._healthy(connection)
        finally:
            connection.close()
