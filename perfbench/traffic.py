"""The ``serve-mixed`` traffic and the load generator that sends it.

Traffic is a pure function of the seed: an open-loop arrival schedule
(Poisson arrivals at one fixed rate) of 90% analytic requests with
Zipf-skewed shapes, 5% small plan sweeps and 5% well-formed invalid
requests, followed by a closed-loop stream of analytic requests for
the saturation phase.

The load generator is one process with at most ``CONNECTIONS``
requests in flight.  The service answers each request on its own
connection, so every request opens one.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator

from harness import Outcome

#: Concurrent requests in flight: one per core of the reference machine.
CONNECTIONS = 2
#: Open-loop arrival rate: about 40% of the ~70 req/s the two
#: connections sustain on this mix on the reference machine (see
#: BASELINE.md), which leaves room for the machine's slow phases
#: before a backlog moves the median.
RATE_PER_S = 30.0
#: Latency limit of a good answer in the saturation phase.
GOODPUT_LIMIT_S = 0.100
#: Client-side deadline of one request; a later answer is a failure.
REQUEST_TIMEOUT_S = 30.0

ANALYTIC_KINDS = ("evaluate", "verify", "capacity", "simulate")
#: Small sweeps; each runs cold once before timing starts, so the
#: timed phases read them from the sweep cache.
PLAN_SWEEPS = (
    ("7b", 32, "zb"),
    ("7b", 32, "zbv"),
    ("13b", 32, "dapple"),
    ("13b", 32, "vpp"),
    ("13b", 32, "zb"),
    ("13b", 32, "mepipe"),
)
#: Zipf exponent of the analytic key popularity.
ZIPF_S = 1.0
#: Shares of plan and invalid requests; the rest is analytic.
PLAN_SHARE = 0.05
INVALID_SHARE = 0.05
#: Analytic requests per cycle of the closed-loop stream.
CLOSED_BATCH = 2000
#: Fixed shuffle that assigns popularity ranks to the analytic keys.
POPULARITY_SEED = 20250330


def shapes() -> list[tuple[str, dict[str, int]]]:
    """Valid (method, shape) pairs: 270 shapes, 234 of them built by
    the greedy generator, far more than the 128 schedules its cache
    holds.  (The handlers generate under the default cost, so a request's
    ``tw`` does not make a new schedule; only the shape does.)"""
    out: list[tuple[str, dict[str, int]]] = []
    for p in (2, 3, 4):
        for n in (p, 2 * p, 3 * p):
            base = {"stages": p, "microbatches": n}
            out.append(("dapple", dict(base)))
            out.append(("zb", dict(base)))
            out.append(("zbv", {**base, "virtual": 2}))
            out.append(("vpp", {**base, "virtual": 2}))
            for s in (2, 4):
                out.append(("terapipe", {**base, "slices": s}))
            for s in (2, 3, 4):
                for v in (1, 2):
                    out.append(("svpp", {**base, "slices": s, "virtual": v}))
                    for g in (1, 2, 3):
                        out.append(("mepipe", {**base, "slices": s, "virtual": v,
                                               "wgrad_gemms": g}))
    return out


def analytic_keys() -> list[dict[str, Any]]:
    return [
        {"kind": kind, "method": method, "shape": shape}
        for method, shape in shapes()
        for kind in ANALYTIC_KINDS
    ]


def plan_bodies() -> list[str]:
    return [
        _body({"model": model, "global_batch_size": gbs, "methods": [method]})
        for model, gbs, method in PLAN_SWEEPS
    ]


@dataclass(frozen=True)
class Planned:
    """One request of the traffic: class, endpoint kind, JSON body."""

    cls: str  # "analytic" | "plan" | "invalid"
    kind: str
    body: str
    #: Expected error code for an invalid request.
    expect_code: str = ""

    @property
    def path(self) -> str:
        return f"/v1/{self.kind}"


def _body(data: dict[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def apportion(weights: list[float], total: int) -> list[int]:
    """Split ``total`` into whole counts proportional to ``weights``
    (largest remainder first, ties to the lower index)."""
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(len(weights)), key=lambda i: (counts[i] - exact[i], i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


class Traffic:
    """Seeded request generator.

    The mix is part of the workload, not of the seed: every seed sends
    the same requests in the same numbers (analytic keys in proportion
    to their Zipf weight over one fixed popularity ranking), so runs
    differ in order and arrival times, not in what the traffic is.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        keys = analytic_keys()
        random.Random(POPULARITY_SEED).shuffle(keys)
        self.keys = keys
        self.weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keys))]

    def analytic(self, total: int) -> list[Planned]:
        out: list[Planned] = []
        for key, count in zip(self.keys, apportion(self.weights, total)):
            data = dict(key)
            kind = data.pop("kind")
            out += [Planned("analytic", kind, _body(data))] * count
        return out

    def invalid(self, which: int) -> Planned:
        method, shape = self.rng.choice(shapes())
        kind = self.rng.choice(ANALYTIC_KINDS)
        if which % 3 == 0:
            data = {"method": method, "shape": shape, "priority": 1}
            return Planned("invalid", kind, _body(data), "bad-request")
        if which % 3 == 1:
            data = {"method": method, "shape": {**shape, "stages": 0}}
            return Planned("invalid", kind, _body(data), "invalid-shape")
        data = {"method": f"{method}-x", "shape": shape}
        return Planned("invalid", kind, _body(data), "unknown-method")

    def open_loop(self, duration_s: float, rate: float = RATE_PER_S) -> list[tuple[float, Planned]]:
        """``(due offset, request)`` pairs: a Poisson process at ``rate``
        conditioned on its expected count, i.e. sorted uniform times."""
        total = round(rate * duration_s)
        plans = round(PLAN_SHARE * total)
        invalid = round(INVALID_SHARE * total)
        bodies = plan_bodies()
        items = self.analytic(total - plans - invalid)
        items += [Planned("plan", "plan", bodies[i % len(bodies)]) for i in range(plans)]
        items += [self.invalid(i) for i in range(invalid)]
        self.rng.shuffle(items)
        times = sorted(self.rng.uniform(0.0, duration_s) for _ in items)
        return list(zip(times, items))

    def closed_loop(self) -> Iterator[Planned]:
        """Analytic requests in the same proportions, shuffled, repeated."""
        items = self.analytic(CLOSED_BATCH)
        self.rng.shuffle(items)
        return itertools.cycle(items)


def call(port: int, item: Planned) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", item.path, body=item.body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def send(port: int, index: int, item: Planned, due: float) -> Outcome:
    sent = time.perf_counter()
    try:
        status, body = call(port, item)
        error = ""
    except OSError as exc:
        status, body, error = 0, b"", f"{type(exc).__name__}: {exc}"
    done = time.perf_counter()
    return Outcome(index, item.cls, due, sent, done, ok=not error,
                   status=status, body=body, error=error)


def run_open_loop(port: int, schedule: list[tuple[float, Planned]]) -> list[Outcome]:
    """Send each request at its due time, or as soon as a connection
    frees up after it; latency counts from the due time."""
    outcomes: list[Outcome | None] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    start = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            offset, item = schedule[index]
            due = start + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            outcomes[index] = send(port, index, item, due)

    _run_workers(worker)
    return [o for o in outcomes if o is not None]


def run_closed_loop(port: int, stream: Iterator[Planned], duration_s: float) -> tuple[list[Outcome], list[Planned], float]:
    """Each connection sends its next request when the previous answer
    arrives, until ``duration_s`` has passed.  Returns the outcomes,
    the requests in index order and the measured duration."""
    outcomes: list[Outcome] = []
    items: list[Planned] = []
    lock = threading.Lock()
    start = time.perf_counter()
    end = start + duration_s

    def worker() -> None:
        while True:
            with lock:
                if time.perf_counter() >= end:
                    return
                index = len(items)
                item = next(stream)
                items.append(item)
            outcome = send(port, index, item, time.perf_counter())
            with lock:
                outcomes.append(outcome)

    _run_workers(worker)
    elapsed = time.perf_counter() - start
    outcomes.sort(key=lambda o: o.index)
    return outcomes, items, elapsed


def _run_workers(target: Any) -> None:
    threads = [threading.Thread(target=target, daemon=True) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
