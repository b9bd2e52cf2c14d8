"""Loopback stand-in for the inference service, run in its own process.

    python3 perfbench/stub.py --seed N --instances N_EVAL --records N_REC

prints the port it listens on (127.0.0.1, chosen by the OS) and serves until
its stdin closes. Replies derive from the seed and the request alone: the
stub regenerates the same instances and records as the benchmark, answers a
generation request from the instance named by ``image_ref`` (the
step-by-step prompt selects the ``cot`` trace), a rewrite prompt with the
record's rewritten CoT, and a scoring prompt with a "Scoring:" line for the
CoT it carries. ``GET /stats`` returns request, connection, byte and
handling-time counts; ``POST /reset`` clears them.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from generate import make_instances, make_records

_MARKER = re.compile(r"\(ref ([RW])(\d{5})\)")


class Replies:
    """Deterministic reply for each request body the workload sends."""

    def __init__(self, seed: int, n_instances: int, n_records: int):
        self.traces = {inst["image_ref"]: inst for inst in make_instances(seed, n_instances, "serve")}
        self.records = {r["record"]["id"][4:]: r for r in make_records(seed, n_records)}

    def reply(self, request: dict) -> dict:
        prompt = request["prompt"]
        if "image_ref" in request:
            inst = self.traces[request["image_ref"]]
            trace = inst["cot" if "step by step" in prompt else "direct"]
            return {
                "text": trace["text"],
                "logprobs": trace["token_logprobs"],
                "embeddings": {"prompt": trace["img_rep"], "completion": trace["txt_rep"]},
            }
        which, num = _MARKER.search(prompt).groups()
        rec = self.records[num]
        if "Evaluation Form" not in prompt:
            return {"text": rec["rewrite_reply"]}
        score = rec["scores"][which]
        return {"text": f"Scoring: {score / 100:.2f}\nExplanation: the reasoning is relevant and complete."}


class _Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        self.requests = 0
        self.connections = 0
        self.request_bytes = 0
        self.reply_bytes = 0
        self.handling_ms = []

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "request_bytes": self.request_bytes,
                "reply_bytes": self.reply_bytes,
                "handling_ms": list(self.handling_ms),
            }


def make_server(replies: Replies) -> ThreadingHTTPServer:
    stats = _Stats()

    class Handler(BaseHTTPRequestHandler):
        # Keep-alive is allowed, so a client that reuses connections can
        # show it in the connection count.
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            with stats.lock:
                stats.connections += 1

        def log_message(self, *args):
            pass

        def _send(self, body: bytes):
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            with stats.lock:
                stats.connections -= 1
            self._send(json.dumps(stats.snapshot()).encode("utf-8"))

        def do_POST(self):
            start = time.perf_counter()
            raw = self.rfile.read(int(self.headers["Content-Length"]))
            if self.path == "/reset":
                with stats.lock:
                    stats.reset()
                self._send(b"{}")
                return
            body = json.dumps(replies.reply(json.loads(raw))).encode("utf-8")
            self._send(body)
            elapsed = (time.perf_counter() - start) * 1e3
            with stats.lock:
                stats.requests += 1
                stats.request_bytes += len(raw)
                stats.reply_bytes += len(body)
                stats.handling_ms.append(elapsed)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


class StubProcess:
    """Client-side handle: starts the stub and stops it again."""

    def __init__(self, seed: int, n_instances: int, n_records: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed),
             "--instances", str(n_instances), "--records", str(n_records)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError(f"stub server failed to start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line)}"

    def _call(self, path: str, data=None) -> dict:
        with urllib.request.urlopen(self.url + path, data=data, timeout=30) as resp:
            return json.loads(resp.read())

    def stats(self) -> dict:
        return self._call("/stats")

    def reset(self) -> None:
        self._call("/reset", data=b"{}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--instances", type=int, required=True)
    parser.add_argument("--records", type=int, required=True)
    args = parser.parse_args()
    server = make_server(Replies(args.seed, args.instances, args.records))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()  # parent closed the pipe (or exited): shut down
    server.shutdown()
    server.server_close()


if __name__ == "__main__":
    main()
