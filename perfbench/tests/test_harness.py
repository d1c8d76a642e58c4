"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import http.server
import threading
import time

import pytest

import harness
import traffic
from harness import Outcome, goodput, percentile
from run import check_outcome
from tracing import Tracer


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile([float(x) for x in range(19)], 50) is None
    assert percentile([float(x) for x in range(20)], 50) == pytest.approx(9.5)
    assert percentile([float(x) for x in range(999)], 99) is None
    assert percentile([float(x) for x in range(1000)], 99) == pytest.approx(989.01)
    assert percentile([], 50) is None


def test_highest_percentile_falls_back_to_what_the_samples_allow():
    values = [float(x) for x in range(200)]
    q, _ = harness.highest_percentile(values)
    assert q == 95.0
    assert harness.highest_percentile(values[:10]) is None


class _StallingHandler(http.server.BaseHTTPRequestHandler):
    """Answers every POST; the first one after a 0.3 s stall."""

    stalled = threading.Event()

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self.rfile.read(int(self.headers["Content-Length"]))
        if not self.stalled.is_set():
            self.stalled.set()
            time.sleep(0.3)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args: object) -> None:
        pass


def test_open_loop_latency_counts_from_the_due_time(monkeypatch):
    monkeypatch.setattr(traffic, "CONNECTIONS", 1)
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        item = traffic.Planned("analytic", "evaluate", "{}")
        schedule = [(0.0, item), (0.05, item), (0.10, item)]
        outcomes = traffic.run_open_loop(server.server_address[1], schedule)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert len(outcomes) == 3
    # One connection: the requests due during the stall wait for it, and
    # that wait is part of their latency.
    late = outcomes[2]
    assert late.late_s > 0.15
    assert late.latency_s >= late.late_s
    assert late.latency_s == pytest.approx(late.done - late.due)
    assert late.done - late.sent < late.latency_s


def _outcome(latency: float, ok: bool = True) -> Outcome:
    return Outcome(0, "analytic", due=0.0, sent=0.0, done=latency, ok=ok, status=200)


def test_goodput_counts_failures_and_late_answers_as_misses():
    outcomes = [_outcome(0.01), _outcome(0.02), _outcome(0.5), _outcome(0.01, ok=False)]
    assert goodput(outcomes, limit_s=0.1, duration_s=2.0) == pytest.approx(1.0)


def test_a_refused_request_is_a_failed_one():
    item = traffic.Planned("analytic", "evaluate", '{"method":"zb"}')
    refused = Outcome(0, "analytic", 0.0, 0.0, 0.01, status=429,
                      body=b'{"code":"quota-exceeded"}')
    assert check_outcome(refused, item, [200, "", "{}", True])
    answered = Outcome(0, "analytic", 0.0, 0.0, 0.01, status=200, body=b"{}")
    assert check_outcome(answered, item, [200, "", "{}", True]) == ""
    timed_out = Outcome(0, "analytic", 0.0, 0.0, 30.0, error="TimeoutError: timed out")
    assert check_outcome(timed_out, item, [200, "", "{}", True])


def test_invalid_requests_must_get_their_typed_4xx():
    item = traffic.Planned("invalid", "evaluate", "{}", expect_code="unknown-method")
    answer = Outcome(0, "invalid", 0.0, 0.0, 0.01, status=400, body=b"e")
    assert check_outcome(answer, item, [400, "unknown-method", "e", True]) == ""
    assert check_outcome(answer, item, [400, "bad-request", "e", False])
    server_error = Outcome(0, "invalid", 0.0, 0.0, 0.01, status=500, body=b"e")
    assert check_outcome(server_error, item, [400, "unknown-method", "e", True])


def test_every_failure_is_one_of_the_attempts():
    result = harness.Result()
    result.check([])
    result.check(["cell a differs", "cell b differs", "cell c differs"])
    assert (result.attempted, result.failed) == (2, 1)
    assert len(result.failures) == 3
    assert not result.correct


def test_work_counters_are_compared_only_within_one_code_version(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    monkeypatch.setattr(harness, "code_version", lambda: "old")
    assert harness.check_counters("w", 1, {"misses": 5}) == []
    assert harness.check_counters("w", 1, {"misses": 5}) == []
    assert harness.check_counters("w", 1, {"misses": 6}) == ["misses: 5 then 6"]
    # Other code may legitimately do other work.
    monkeypatch.setattr(harness, "code_version", lambda: "new")
    assert harness.check_counters("w", 1, {"misses": 6}) == []
    assert harness.check_counters("w", 2, {"misses": 7}) == []


def test_self_times_add_up_to_the_wall_time():
    tracer = Tracer()

    def inner() -> None:
        time.sleep(0.02)

    wrapped_inner = tracer.wrap("inner", inner)

    def outer() -> None:
        time.sleep(0.01)
        wrapped_inner()

    wrapped_outer = tracer.wrap("outer", outer)
    start = time.perf_counter()
    wrapped_outer()
    wall = time.perf_counter() - start
    table = tracer.table()
    assert table["calls"] == {"outer": 1, "inner": 1}
    assert table["self_s"]["inner"] >= 0.02
    assert 0.01 <= table["self_s"]["outer"] < 0.02
    assert sum(table["self_s"].values()) == pytest.approx(wall, abs=1e-3)
    spans = tracer.dump_spans()
    assert spans[1][0] == "inner" and spans[1][3] == 0


def test_traffic_is_a_function_of_the_seed():
    first = traffic.Traffic(7).open_loop(5.0)
    again = traffic.Traffic(7).open_loop(5.0)
    other = traffic.Traffic(8).open_loop(5.0)
    assert first == again
    assert first != other
    classes = [item.cls for _, item in traffic.Traffic(7).open_loop(20.0)]
    assert len(classes) == 600
    assert (classes.count("plan"), classes.count("invalid")) == (30, 30)


def test_the_mix_is_the_same_for_every_seed():
    def analytic_mix(seed: int) -> list[str]:
        return sorted(item.body + item.kind for _, item in traffic.Traffic(seed).open_loop(20.0)
                      if item.cls != "invalid")

    assert analytic_mix(1) == analytic_mix(2)
