"""Tests for the HTTP scorer/judge clients against a local mock server.

The mock runs http.server in a daemon thread, records every request
(path, payload, auth header), and serves queued per-path responses so
individual tests can script failures, garbage, and retries.
"""

import dataclasses
import json
import logging
import os
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import genki
from genki.clients import (
    AUTH_ENV_VAR,
    EndpointConfig,
    HttpStatusError,
    ProtocolError,
    RemoteJudge,
    RemoteScorer,
    TransportError,
)
from genki.corpus import AnswerKind, TokenSeq, build_stats
from genki.ensemble import Choice, StubJudge
from genki.generation import (
    PipelineConfig,
    PipelineModels,
    build_vocabulary,
    run_pipeline,
    train_pipeline_models,
)
from genki.retriever import DenseIndex, HashEmbedder
from genki.reward import FormatSpec, ToyRewardModel
from genki.synth import synthetic_world

FORMAT = FormatSpec(kind=AnswerKind.ENTITY, max_tokens=8, description="a short entity")


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        srv = self.server
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length)) if length else {}
        with srv.lock:
            srv.requests.append(
                {"path": self.path, "payload": payload,
                 "auth": self.headers.get("Authorization")}
            )
            srv.inflight += 1
            srv.max_inflight = max(srv.max_inflight, srv.inflight)
            queue = srv.queues.get(self.path)
            scripted = queue.pop(0) if queue else None
        try:
            if srv.delay:
                time.sleep(srv.delay)
            if scripted is not None:
                status, body = scripted
            else:
                status, body = 200, json.dumps(srv.defaults[self.path]).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        finally:
            with srv.lock:
                srv.inflight -= 1

    def log_message(self, *args):
        pass  # keep test output clean


@pytest.fixture
def server():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    srv.queues = {}
    srv.requests = []
    srv.lock = threading.Lock()
    srv.inflight = 0
    srv.max_inflight = 0
    srv.delay = 0.0
    srv.defaults = {
        "/score": {"logprob": -1.5},
        "/judge": {"choice": 1},
    }
    # small poll interval so fixture teardown does not stall each test
    thread = threading.Thread(target=lambda: srv.serve_forever(poll_interval=0.01), daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def base_url(srv):
    return f"http://127.0.0.1:{srv.server_address[1]}"


def enqueue(srv, path, status, obj):
    body = obj if isinstance(obj, bytes) else json.dumps(obj).encode()
    srv.queues.setdefault(path, []).append((status, body))


def scorer(srv, **kwargs):
    return RemoteScorer(EndpointConfig(base_url=base_url(srv), **kwargs))


def judge(srv, **kwargs):
    return RemoteJudge(EndpointConfig(base_url=base_url(srv), **kwargs))


class TestEndpointConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EndpointConfig(base_url="")
        with pytest.raises(ValueError):
            EndpointConfig(base_url="http://x", timeout_ms=0)
        with pytest.raises(ValueError):
            EndpointConfig(base_url="http://x", retries=-1)
        with pytest.raises(ValueError):
            EndpointConfig(base_url="http://x", max_in_flight=0)

    @pytest.mark.parametrize("url", ["file:///etc/hostname", "ftp://host/", "localhost:8080"])
    def test_non_http_scheme_rejected(self, url):
        with pytest.raises(ValueError, match="http or https"):
            EndpointConfig(base_url=url)

    @pytest.mark.parametrize("url", ["http://", "https://:8080", "http://user@:80/api"])
    def test_url_without_host_rejected(self, url):
        with pytest.raises(ValueError, match="must name a host"):
            EndpointConfig(base_url=url)

    @pytest.mark.parametrize("url", ["http://127.0.0.1:9", "HTTPS://example.org/api"])
    def test_http_schemes_accepted(self, url):
        assert EndpointConfig(base_url=url).base_url == url


class TestRemoteScorer:
    def test_score_passthrough(self, server):
        s = scorer(server)
        value = s.logprob_cond(s.encode("the cat"), s.encode("sat"))
        assert value == -1.5
        assert server.requests[0]["path"] == "/score"
        assert server.requests[0]["payload"] == {"context": "the cat", "target": "sat"}

    def test_trailing_slash_base_url(self, server):
        s = RemoteScorer(EndpointConfig(base_url=base_url(server) + "/"))
        assert s.logprob_cond(s.encode("a"), s.encode("b")) == -1.5
        assert server.requests[0]["path"] == "/score"

    def test_positive_logprob_rejected(self, server):
        enqueue(server, "/score", 200, {"logprob": 0.5})
        s = scorer(server)
        with pytest.raises(ProtocolError, match="positive"):
            s.logprob_cond(s.encode("a"), s.encode("b"))

    def test_zero_logprob_allowed(self, server):
        enqueue(server, "/score", 200, {"logprob": 0.0})
        s = scorer(server)
        assert s.logprob_cond(s.encode("a"), s.encode("b")) == 0.0

    @pytest.mark.parametrize(
        "raw", [b"NaN", b"-Infinity", b"Infinity", b"-1e999", b"-1" + b"0" * 400],
        ids=["nan", "-inf", "inf", "-1e999", "long-int"],
    )
    def test_non_finite_logprob_rejected(self, server, raw):
        # Python's json reads NaN and Infinity, and a long integer overflows a float
        enqueue(server, "/score", 200, b'{"logprob": ' + raw + b"}")
        s = scorer(server)
        with pytest.raises(ProtocolError, match="field 'logprob' must be a finite number"):
            s.logprob_cond(s.encode("a"), s.encode("b"))

    def test_non_numeric_logprob_rejected(self, server):
        for bad in ({"logprob": "x"}, {"logprob": True}, {"logprob": None}, {}):
            enqueue(server, "/score", 200, bad)
        s = scorer(server)
        for _ in range(4):
            with pytest.raises(ProtocolError, match="logprob"):
                s.logprob_cond(s.encode("a"), s.encode("b"))

    def test_non_json_response_rejected(self, server):
        enqueue(server, "/score", 200, b"<html>oops</html>")
        s = scorer(server)
        with pytest.raises(ProtocolError, match="invalid JSON"):
            s.logprob_cond(s.encode("a"), s.encode("b"))

    def test_non_object_response_rejected(self, server):
        enqueue(server, "/score", 200, [1, 2, 3])
        s = scorer(server)
        with pytest.raises(ProtocolError, match="JSON object"):
            s.logprob_cond(s.encode("a"), s.encode("b"))

    def test_encode_is_the_text_alone(self, server):
        # the server only ever sees the text, so encode makes up no token ids
        s = scorer(server)
        assert s.encode("Large, Model!") == TokenSeq((), "Large, Model!")


class TestRemoteJudge:
    def test_choice_mapping(self, server):
        enqueue(server, "/judge", 200, {"choice": 1})
        enqueue(server, "/judge", 200, {"choice": 2})
        j = judge(server)
        assert j.choose("q", "a1", "a2", FORMAT) is Choice.FIRST
        assert j.choose("q", "a1", "a2", FORMAT) is Choice.SECOND

    def test_payload_carries_format_description(self, server):
        j = judge(server)
        j.choose("which one", "first", "second", FORMAT)
        assert server.requests[0]["payload"] == {
            "question": "which one",
            "answer_1": "first",
            "answer_2": "second",
            "format": "a short entity",
        }

    def test_format_without_description_sends_kind(self, server):
        j = judge(server)
        j.choose("q", "a", "b", FormatSpec(kind=AnswerKind.SENTENCE, max_tokens=8))
        assert server.requests[0]["payload"]["format"] == "sentence"

    def test_invalid_choice_rejected(self, server):
        for bad in ({"choice": 3}, {"choice": "1"}, {"choice": True}, {}):
            enqueue(server, "/judge", 200, bad)
        j = judge(server)
        for _ in range(4):
            with pytest.raises(ProtocolError, match="choice"):
                j.choose("q", "a", "b", FORMAT)

    def test_rationale_logged_at_debug(self, server, caplog):
        enqueue(server, "/judge", 200, {"choice": 2, "rationale": "second is terser"})
        j = judge(server)
        with caplog.at_level(logging.DEBUG, logger="genki.clients"):
            assert j.choose("q", "a", "b", FORMAT) is Choice.SECOND
        assert any("second is terser" in r.message for r in caplog.records)


class TestRetriesAndErrors:
    def test_server_errors_retried_then_succeed(self, server, caplog):
        enqueue(server, "/score", 500, {"error": "boom"})
        enqueue(server, "/score", 503, {"error": "busy"})
        s = scorer(server, retries=2)
        with caplog.at_level(logging.INFO, logger="genki.clients"):
            assert s.logprob_cond(s.encode("a"), s.encode("b")) == -1.5
        assert len(server.requests) == 3
        retry_logs = [r for r in caplog.records if "retrying" in r.message]
        assert len(retry_logs) == 2

    def test_server_errors_exhaust_to_status_error(self, server):
        for _ in range(3):
            enqueue(server, "/score", 500, {"error": "boom"})
        s = scorer(server, retries=2)
        with pytest.raises(HttpStatusError) as info:
            s.logprob_cond(s.encode("a"), s.encode("b"))
        assert info.value.status == 500
        assert len(server.requests) == 3

    def test_client_error_not_retried(self, server):
        enqueue(server, "/judge", 404, {"error": "no such route"})
        j = judge(server, retries=3)
        with pytest.raises(HttpStatusError) as info:
            j.choose("q", "a", "b", FORMAT)
        assert info.value.status == 404
        assert len(server.requests) == 1

    def test_connection_refused_is_transport_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        s = RemoteScorer(EndpointConfig(base_url=f"http://127.0.0.1:{port}", retries=0))
        with pytest.raises(TransportError, match="no response after 1 attempt"):
            s.logprob_cond(s.encode("a"), s.encode("b"))

    def test_connection_refused_retries_counted(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        s = RemoteScorer(EndpointConfig(base_url=f"http://127.0.0.1:{port}", retries=2))
        with pytest.raises(TransportError, match="no response after 3 attempt"):
            s.logprob_cond(s.encode("a"), s.encode("b"))


@pytest.fixture
def raw_server():
    """A socket server that reads each request, then answers with scripted bytes.

    Yields (base_url, replies, connections): set replies[0] to the bytes each
    connection gets; connections counts the requests served.
    """
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    listener.settimeout(0.05)
    replies, connections, stop = [b""], [], threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                continue
            with conn:
                conn.settimeout(2.0)
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(4096)
                head, _, body = data.partition(b"\r\n\r\n")
                length = next((int(line.split(b":")[1]) for line in head.split(b"\r\n")
                               if line.lower().startswith(b"content-length:")), 0)
                while len(body) < length:
                    body += conn.recv(4096)
                connections.append(head.split(b"\r\n")[0])
                conn.sendall(replies[0])

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{listener.getsockname()[1]}", replies, connections
    stop.set()
    thread.join()
    listener.close()


class TestMalformedResponses:
    @pytest.mark.parametrize("reply", [
        b"garbage\r\n",  # http.client.BadStatusLine
        b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"choice\"",  # IncompleteRead
    ], ids=["bad_status_line", "truncated_body"])
    def test_retried_then_transport_error(self, raw_server, reply):
        url, replies, connections = raw_server
        replies[0] = reply
        j = RemoteJudge(EndpointConfig(base_url=url, retries=2))
        with pytest.raises(TransportError, match="no response after 3 attempt") as raised:
            j.choose("q", "a", "b", FORMAT)
        assert connections == [b"POST /judge HTTP/1.1"] * 3
        # one line, so the CLI's "model error:" message stays one line
        assert not {"\r", "\n"} & set(str(raised.value))


class TestAuth:
    def test_bearer_token_sent_when_set(self, server, monkeypatch):
        monkeypatch.setenv(AUTH_ENV_VAR, "sekrit-token")
        s = scorer(server)
        s.logprob_cond(s.encode("a"), s.encode("b"))
        assert server.requests[0]["auth"] == "Bearer sekrit-token"

    def test_no_header_without_token(self, server, monkeypatch):
        monkeypatch.delenv(AUTH_ENV_VAR, raising=False)
        s = scorer(server)
        s.logprob_cond(s.encode("a"), s.encode("b"))
        assert server.requests[0]["auth"] is None

    def test_token_read_at_request_time(self, server, monkeypatch):
        monkeypatch.delenv(AUTH_ENV_VAR, raising=False)
        s = scorer(server)
        s.logprob_cond(s.encode("a"), s.encode("b"))
        monkeypatch.setenv(AUTH_ENV_VAR, "late-token")
        s.logprob_cond(s.encode("a"), s.encode("b"))
        assert server.requests[0]["auth"] is None
        assert server.requests[1]["auth"] == "Bearer late-token"


class TestConcurrencyBound:
    def test_max_in_flight_respected(self, server):
        server.delay = 0.05
        s = scorer(server, max_in_flight=2)

        def call():
            s.logprob_cond(s.encode("a"), s.encode("b"))

        threads = [threading.Thread(target=call) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(server.requests) == 8
        assert server.max_inflight <= 2


def test_cli_starts_without_the_http_stack():
    # urllib.request (with http.client, email and ssl) loads at the first
    # request, so commands without a remote backend never pay for it; nor
    # do they load hashlib, whose _hashlib maps OpenSSL's libcrypto.
    src = str(Path(genki.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys, genki.cli; print(sorted({'urllib.request', 'http.client', 'ssl', "
            "'hashlib', '_hashlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_pipeline_never_asks_a_remote_judge_about_identical_drafts(server):
    # on this world both postprocessed drafts are the same text for every
    # question, so the judge has nothing to choose
    passages, qa_pairs = synthetic_world(12, 8)
    cfg = PipelineConfig(k=2, format=FORMAT, max_output_tokens=12)
    embedder = HashEmbedder(dim=256, seed=0)
    index = DenseIndex.build(passages, embedder)
    trained = train_pipeline_models(
        passages, qa_pairs, index, embedder, build_vocabulary(passages, qa_pairs, cfg), cfg,
        steps=60, learning_rate=0.5,
    )
    models = PipelineModels(
        full=trained.full, retrieved=trained.retrieved, postp=trained.postp,
        reward=ToyRewardModel(), judge=StubJudge(),
    )
    args = (qa_pairs, models, index, embedder, {p.id: p for p in passages},
            build_stats(passages), cfg)
    expected = run_pipeline(*args)
    assert all(r.error is None and r.post_full == r.post_retrieved for r in expected)
    args = (qa_pairs, dataclasses.replace(models, judge=judge(server)), *args[2:])
    assert run_pipeline(*args, jobs=2) == expected
    assert not [r for r in server.requests if r["path"] == "/judge"]
