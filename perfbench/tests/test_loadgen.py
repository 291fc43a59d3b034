"""The open-loop generator charges a server stall to the requests behind it."""

import http.server
import threading
import time

import loadgen

STALL_S = 0.4
GAP_S = 0.05


class _StallOnce(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    served = 0
    lock = threading.Lock()

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with self.lock:
            type(self).served += 1
            stall = type(self).served == 2
        if stall:
            time.sleep(STALL_S)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_stall_is_charged_to_queued_requests():
    _StallOnce.served = 0
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StallOnce)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        due = [i * GAP_S for i in range(8)]
        records = loadgen.run("127.0.0.1", server.server_address[1], due,
                              [b"{}"] * len(due), connections=1)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert all(r.status == 200 and r.error is None for r in records)
    stalled = records[1]
    assert stalled.latency_s >= STALL_S
    # Requests 2.. were due during the stall: each waited for it, so its
    # latency from the due time includes the rest of the stall while its
    # own service time (send to reply) stays short.
    for rec in records[2:5]:
        remaining = stalled.done - rec.due
        assert rec.lag_s >= remaining - 0.05
        assert rec.latency_s >= remaining
        assert rec.done - rec.sent < STALL_S / 2


def test_transport_errors_and_non_2xx_are_recorded():
    records = loadgen.run("127.0.0.1", 9, [0.0], [b"{}"], connections=1,
                          timeout_s=1.0)
    assert records[0].error is not None and records[0].status == 0


def test_closed_loop_sends_on_reply_until_the_window_ends():
    _StallOnce.served = 0
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StallOnce)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        start = time.perf_counter()
        records = loadgen.run("127.0.0.1", server.server_address[1], None,
                              [b"{}"] * 1000, connections=1, start=start,
                              until=start + STALL_S + 0.2)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert 2 < len(records) < 1000
    assert all(r.lag_s < 0.01 for r in records)
    assert records[1].latency_s >= STALL_S
    assert max(r.sent for r in records) < start + STALL_S + 0.2
