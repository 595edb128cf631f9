"""The client transport, ``repro.api.http_request``: kept-alive
connections in a per-peer idle pool, one silent retry when a reused
connection turns out dead, and no retry or pooling for anything else
(timeouts, fresh-connection failures, ``Connection: close`` answers,
forked children); a peer found gone leaves no idle connection behind."""

from __future__ import annotations

import http.client
import io
import json
import os
import socket
import sys
import threading
import time

import pytest

import repro.pipeline.store as store
import repro.service.wire as wire
from repro.api import ServiceClient, http_request
from repro.service import ServiceConfig
from repro.service.wire import MAX_BODY_BYTES, HttpDaemon, Route


class _NoService:
    def close(self):
        pass


def _daemon(routes, port=0):
    return HttpDaemon(ServiceConfig(host="127.0.0.1", port=port,
                                    quiet=True, log_stream=io.StringIO()),
                      _NoService(), routes).start()


def _echo(request):
    """Answers the path it was asked for, so a reply names its request."""
    time.sleep(float(request.path.rsplit("/", 1)[1]))
    return 200, {"path": request.path}, "ok", None


ROUTES = {("GET", "/echo/"): Route(_echo),
          ("POST", "/v1/evaluate"): Route(
              lambda request: (200, {"echo": request.body}, "ok", None))}


@pytest.fixture
def server():
    daemon = _daemon(ROUTES)
    try:
        yield daemon
    finally:
        daemon.close()


@pytest.fixture
def wire_log(monkeypatch):
    """Counts dials and sent requests on every ``http.client``
    connection in this process."""
    log = {"dials": 0, "sends": 0}
    connect, request = (http.client.HTTPConnection.connect,
                        http.client.HTTPConnection.request)

    def counted_connect(self):
        log["dials"] += 1
        return connect(self)

    def counted_request(self, *args, **kwargs):
        log["sends"] += 1
        return request(self, *args, **kwargs)

    monkeypatch.setattr(http.client.HTTPConnection, "connect",
                        counted_connect)
    monkeypatch.setattr(http.client.HTTPConnection, "request",
                        counted_request)
    return log


def _get(daemon, path, timeout=10.0):
    status, raw = http_request("GET", daemon.address + path,
                               timeout=timeout)
    return status, json.loads(raw)


def _idle(daemon):
    return store._idle.get(("http", "127.0.0.1", daemon.port), [])


def _in_flight_together(daemon, count):
    """``count`` requests in flight at once (each answer waits 0.5 s),
    so each one dials its own connection."""
    barrier = threading.Barrier(count)
    statuses = []

    def one():
        barrier.wait(10.0)
        statuses.append(_get(daemon, "/echo/0.5")[0])

    threads = [threading.Thread(target=one) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10.0)
        assert not thread.is_alive()
    assert statuses == [200] * count


def _closed_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestConnectionReuse:
    def test_one_client_reuses_one_socket(self, server, wire_log):
        client = ServiceClient(server.address)
        for n in range(20):
            assert client.evaluate_raw({"n": n}) \
                == (200, {"echo": {"n": n}})
        assert wire_log == {"dials": 1, "sends": 20}
        assert len(_idle(server)) == 1

    def test_restarted_daemon_costs_one_silent_retry(self, server,
                                                     wire_log):
        assert _get(server, "/echo/0")[0] == 200
        port = server.port
        server.close()
        restarted = _daemon(ROUTES, port)
        try:
            assert _get(restarted, "/echo/0") \
                == (200, {"path": "/echo/0"})
        finally:
            restarted.close()
        assert wire_log == {"dials": 2, "sends": 3}

    def test_server_idle_timeout_costs_one_silent_retry(
            self, monkeypatch, wire_log):
        monkeypatch.setattr(wire._Handler, "timeout", 0.2)
        daemon = _daemon(ROUTES)
        try:
            assert _get(daemon, "/echo/0")[0] == 200
            time.sleep(1.0)  # the server hangs up the idle connection
            assert _get(daemon, "/echo/0") == (200, {"path": "/echo/0"})
        finally:
            daemon.close()
        assert wire_log == {"dials": 2, "sends": 3}

    def test_refused_fresh_connection_raises(self, wire_log):
        with pytest.raises(OSError):
            http_request("GET", "http://127.0.0.1:%d/" % _closed_port())
        assert wire_log == {"dials": 1, "sends": 1}

    def test_peer_gone_closes_its_idle_connections(self, server):
        _in_flight_together(server, 3)
        pooled = list(_idle(server))
        assert len(pooled) == 3
        server.close()
        with pytest.raises(ConnectionRefusedError):
            _get(server, "/echo/0")
        assert _idle(server) == []
        assert all(connection.sock is None for connection in pooled)

    def test_failure_on_a_fresh_connection_is_not_retried(self,
                                                          wire_log):
        """A peer that accepts and hangs up fails the first exchange
        on its fresh connection: that raises instead of retrying."""
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(4)

            def hang_up():
                peer, _ = listener.accept()
                peer.recv(65536)
                peer.close()

            thread = threading.Thread(target=hang_up)
            thread.start()
            with pytest.raises(ConnectionResetError):
                http_request("GET", "http://127.0.0.1:%d/"
                             % listener.getsockname()[1])
            thread.join(10.0)
            assert not thread.is_alive()
        assert wire_log == {"dials": 1, "sends": 1}

    def test_timed_out_exchange_is_closed_not_pooled(self, server,
                                                     wire_log):
        with pytest.raises(TimeoutError):
            _get(server, "/echo/0.5", timeout=0.1)
        assert _idle(server) == []
        # The late answer to /echo/0.5 never reaches this request.
        assert _get(server, "/echo/0") == (200, {"path": "/echo/0"})
        assert wire_log == {"dials": 2, "sends": 2}
        time.sleep(0.5)
        assert _get(server, "/echo/0") == (200, {"path": "/echo/0"})
        assert wire_log == {"dials": 2, "sends": 3}

    def test_connection_close_answer_is_not_pooled(self, server,
                                                   wire_log):
        # A declared body over the cap is left unread, so the server
        # answers 400 with ``Connection: close``.
        status, raw = http_request(
            "POST", server.address + "/v1/evaluate", b"{}",
            {"Content-Length": str(MAX_BODY_BYTES + 1)})
        assert (status, json.loads(raw)["kind"]) == (400, "body")
        assert _idle(server) == []
        assert _get(server, "/echo/0")[0] == 200
        assert wire_log == {"dials": 2, "sends": 2}

    def test_idle_pool_stays_within_its_bound(self, monkeypatch, server,
                                              wire_log):
        monkeypatch.setattr(store, "MAX_IDLE_PER_PEER", 2)
        _in_flight_together(server, 5)
        assert wire_log["dials"] == 5
        assert len(_idle(server)) == 2


    def test_threads_share_the_pool_without_crossed_answers(
            self, server, wire_log):
        """More threads than cores on one pool, switching often: every
        answer is its own request's, and no two threads ever held one
        connection (at most one dial per thread)."""
        threads_n, requests_n = 8, 30
        mismatches = []

        def client(index):
            for n in range(requests_n):
                body = {"thread": index, "n": n}
                status, raw = http_request(
                    "POST", server.address + "/v1/evaluate",
                    json.dumps(body).encode())
                if (status, json.loads(raw)) != (200, {"echo": body}):
                    mismatches.append((index, n, status, raw))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(index,))
                       for index in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == []
        assert wire_log["sends"] == threads_n * requests_n
        assert wire_log["dials"] <= threads_n
        assert len(_idle(server)) == wire_log["dials"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_never_dials_through_parent_sockets(server):
    assert _get(server, "/echo/0")[0] == 200
    pooled, = _idle(server)
    parent_port = pooled.sock.getsockname()[1]
    read_end, write_end = os.pipe()
    child = os.fork()
    if child == 0:  # pragma: no cover - runs in the child
        try:
            inherited = sum(len(idle) for idle in store._idle.values())
            status, _ = _get(server, "/echo/0")
            used, = _idle(server)
            report = [inherited, status, used.sock.getsockname()[1]]
            os.write(write_end, json.dumps(report).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        inherited, status, child_port = json.loads(pipe.read())
    os.waitpid(child, 0)
    assert (inherited, status) == (0, 200)
    assert child_port != parent_port
    # The child's exit left the parent's pooled connection working.
    assert _get(server, "/echo/0")[0] == 200
    assert _idle(server) == [pooled]
    assert pooled.sock.getsockname()[1] == parent_port
