"""Loopback chat-completions stub for the remote_fanout workload.

Run as its own process so that the stub's work does not share an
interpreter lock with the cogsim code being measured:

    python3 bench/stub_server.py

It binds an ephemeral port on 127.0.0.1, prints the port on one line, and
serves until its standard input closes. Every request waits LATENCY_S
seconds; request number n (counting from 1) is answered 503 when n is a
multiple of FAIL_EVERY, every other request 200 with the fixed CONTENT.
Answers never depend on the request, so events stay byte-identical between
runs whatever order concurrent requests arrive in.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

LATENCY_S = 0.02
FAIL_EVERY = 40
CONTENT = '{"consumption_propensity": 0.3, "work_propensity": 0.7}'


def start():
    """Start the stub in a child process; return (process, endpoint URL)."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve())],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    port = proc.stdout.readline().strip()
    if not port.isdigit():
        stop(proc)
        raise RuntimeError("stub server did not start")
    return proc, f"http://127.0.0.1:{port}/v1/chat/completions"


def stop(proc: subprocess.Popen) -> None:
    """Close the stub's standard input and wait for it to exit."""
    proc.stdin.close()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def make_handler():
    body = json.dumps({"choices": [{"message": {"role": "assistant", "content": CONTENT}}]}).encode()
    counter = itertools.count(1)
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        # keep-alive, so the client's connection reuse is exercised
        protocol_version = "HTTP/1.1"
        # with Nagle on, each keep-alive answer stalls on the client's delayed ACK
        disable_nagle_algorithm = True

        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            with lock:
                n = next(counter)
            time.sleep(LATENCY_S)
            if n % FAIL_EVERY == 0:
                self.send_response(503)
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler())
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
