"""Stub /score and /judge server for the answer_remote workload.

    python3 perfbench/stub_server.py --seed N

Binds 127.0.0.1 on a free port and prints "PORT <n>" when ready.  Each
request waits a fixed service delay; replies are deterministic functions
of the request body.  A seeded 2% of request bodies get one 503 the first
time they arrive, so the client's retry path runs.  Every reply carries
its service time in the X-Service-Ns header.  GET /stats returns the
counters; POST /reset clears them and the fault memory, so each command
sees the same faults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_WORD = re.compile(r"\w+")
DELAY_S = 0.001
FAULT_RATE = 0.02


def _unit(*parts: str) -> float:
    """A uniform value in [0, 1) determined by *parts*."""
    digest = hashlib.blake2b("\x1f".join(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0**64


def score_reply(payload: dict) -> dict:
    """Log-probability that falls with the target's length, jittered by content."""
    words = len(_WORD.findall(str(payload["target"]).lower()))
    jitter = _unit("score", str(payload["context"]), str(payload["target"]))
    return {"logprob": -(1.0 + jitter) * max(words, 1)}


def judge_reply(payload: dict) -> dict:
    """Pick the answer sharing more words with the question; ties go to the first."""
    question = set(_WORD.findall(str(payload["question"]).lower()))
    overlap1 = len(set(_WORD.findall(str(payload["answer_1"]).lower())) & question)
    overlap2 = len(set(_WORD.findall(str(payload["answer_2"]).lower())) & question)
    return {"choice": 2 if overlap2 > overlap1 else 1}


class StubState:
    def __init__(self, seed: int):
        self.seed = seed
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.faults = 0
        self.busy_ns = 0
        self.faulted: set[str] = set()

    def should_fault(self, key: str) -> bool:
        if _unit(str(self.seed), key) >= FAULT_RATE:
            return False
        with self.lock:
            if key in self.faulted:
                return False
            self.faulted.add(key)
            return True


def make_handler(state: StubState):
    handlers = {"/score": score_reply, "/judge": judge_reply}

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, format, *args):  # keep stderr quiet
            pass

        def _send(self, status: int, body: dict, started: int | None = None) -> None:
            raw = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(raw)))
            if started is not None:
                service_ns = time.perf_counter_ns() - started
                self.send_header("X-Service-Ns", str(service_ns))
                with state.lock:
                    state.busy_ns += service_ns
            self.end_headers()
            self.wfile.write(raw)

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            with state.lock:
                stats = {"requests": state.requests, "faults": state.faults,
                         "busy_s": state.busy_ns / 1e9}
            self._send(200, stats)

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                with state.lock:
                    state.reset()
                self._send(200, {"ok": True})
                return
            handler = handlers.get(self.path)
            if handler is None:
                self._send(404, {"error": "not found"})
                return
            started = time.perf_counter_ns()
            with state.lock:
                state.requests += 1
            time.sleep(DELAY_S)
            if state.should_fault(self.path + "\x1f" + body.decode("utf-8")):
                with state.lock:
                    state.faults += 1
                self._send(503, {"error": "injected fault"}, started)
                return
            try:
                reply = handler(json.loads(body))
            except (ValueError, KeyError, TypeError) as exc:
                self._send(400, {"error": str(exc)}, started)
                return
            self._send(200, reply, started)

    return Handler


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    state = StubState(args.seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
