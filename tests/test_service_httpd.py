"""The HTTP surface, in-process: routes, refusals, the shutdown event.

A real ``ServiceServer`` on an ephemeral loopback port over a real
queue -- but inside this process, so these tests cover the handler and
server code directly (the subprocess daemon tests exercise the same
routes end-to-end but outside the coverage tracer's reach).
"""

import http.client
import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.service import JobQueue, ResultLedger
from repro.service import httpd
from repro.service.httpd import MAX_BODY_BYTES, ServiceServer, _query_param


@pytest.fixture
def server(tmp_path):
    ledger = ResultLedger(tmp_path / "ledger.sqlite")
    queue = JobQueue(ledger, tmp_path, job_workers=1)
    queue.start()
    srv = ServiceServer(("127.0.0.1", 0), queue)
    srv.serve_in_thread()
    yield srv
    srv.shutdown()
    queue.drain(grace=30.0)


def request(server, path, payload=None, raw=None, timeout=10):
    url = f"http://127.0.0.1:{server.server_port}{path}"
    if payload is None and raw is None:
        req = urllib.request.Request(url)
    else:
        data = raw if raw is not None else json.dumps(payload).encode()
        req = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"}
        )
    with urllib.request.urlopen(req, timeout=timeout) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def error_of(server, path, payload=None, raw=None):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        request(server, path, payload=payload, raw=raw)
    body = json.loads(excinfo.value.read().decode("utf-8"))
    return excinfo.value.code, body


class TestRoutes:
    def test_health_reports_pid_port_and_queue(self, server):
        import os

        status, health = request(server, "/health")
        assert status == 200
        assert health["ok"] is True
        assert health["pid"] == os.getpid()
        assert health["port"] == server.server_port
        assert health["queue"]["draining"] is False

    def test_submit_poll_and_list(self, server):
        status, accepted = request(
            server, "/jobs", {"kind": "absint", "spec": "rounds:2"}
        )
        assert status == 202 and accepted["state"] == "queued"
        key = accepted["job_key"]

        import time

        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            _, job = request(server, f"/jobs/{key}")
            if job["state"] not in ("queued", "running"):
                break
            time.sleep(0.02)
        assert job["state"] == "certified"
        (result,) = job["results"]
        assert result["kind"] == "absint"

        _, listing = request(server, "/jobs?state=certified")
        assert key in {j["job_key"] for j in listing["jobs"]}
        _, empty = request(server, "/jobs?state=error")
        assert empty["jobs"] == []

    def test_unknown_routes_are_404(self, server):
        assert error_of(server, "/nope")[0] == 404
        assert error_of(server, "/nope", payload={})[0] == 404
        code, body = error_of(server, "/jobs/no-such-key")
        assert code == 404
        assert "no job" in body["error"]

    def test_shutdown_route_sets_the_event(self, server):
        assert not server.shutdown_requested.is_set()
        status, body = request(server, "/shutdown", {})
        assert status == 202
        assert body["state"] == "draining"
        # The handler responds first, then signals; wait the race out.
        assert server.shutdown_requested.wait(timeout=10)


class TestRefusals:
    def test_bad_submission_is_a_400_with_the_reason(self, server):
        code, body = error_of(
            server, "/jobs", {"kind": "bake", "spec": "rounds:2"}
        )
        assert code == 400
        assert "unknown job kind" in body["error"]

    def test_non_json_body_is_a_400(self, server):
        code, body = error_of(server, "/jobs", raw=b"not json{")
        assert code == 400
        assert "not JSON" in body["error"]

    def test_bad_state_filter_is_a_400(self, server):
        code, body = error_of(server, "/jobs?state=bogus")
        assert code == 400
        assert "unknown job state" in body["error"]

    def test_oversized_body_is_refused(self, server):
        code, body = error_of(
            server, "/jobs", raw=b" " * (MAX_BODY_BYTES + 1)
        )
        assert code == 400
        assert "body over" in body["error"]

    def test_client_recovers_after_oversized_refusal(self, server):
        # One kept-alive HTTP/1.1 client: the refusal must arrive as a
        # 400 that closes the connection, and the client's next request
        # must be answered normally, not parsed out of the leftover body.
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_port, timeout=10
        )
        try:
            conn.request(
                "POST", "/jobs", body=b" " * (MAX_BODY_BYTES + 1),
                headers={"Content-Type": "application/json"},
            )
            refused = conn.getresponse()
            assert refused.status == 400
            assert refused.getheader("Connection") == "close"
            assert "body over" in json.loads(refused.read())["error"]
            conn.request("GET", "/health")
            health = conn.getresponse()
            assert health.status == 200
            assert json.loads(health.read())["ok"] is True
        finally:
            conn.close()

    def test_stalled_oversized_body_is_refused_in_bounded_time(
        self, server, monkeypatch
    ):
        # The drain is bounded in time too: a client that declares a huge
        # body and stops sending still gets its 400 and a closed socket.
        monkeypatch.setattr(httpd, "DRAIN_TIMEOUT_S", 0.2)
        head = (
            f"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n{{"
        ).encode()
        with socket.create_connection(
            ("127.0.0.1", server.server_port), timeout=10
        ) as sock:
            sock.sendall(head)
            reply = sock.makefile("rb").read()
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.split()[1] == b"400"
        assert b"body over" in rest


def test_query_param_parsing():
    assert _query_param("state=error&x=1", "state") == "error"
    assert _query_param("state=", "state") is None
    assert _query_param("", "state") is None
