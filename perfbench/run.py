"""Benchmark of the MEPipe reproduction: planner sweeps, service, executors.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan-fig10 --seed 1 --seconds 34 --trace 0

``--workload all`` runs every workload in turn.  Each run prints its
figures, then one JSON line with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is 0 only when
every output checked out.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
import uuid
from pathlib import Path
from typing import Any

import harness
import traffic
import workloads
from harness import OUT, BenchError, Child, Result, median, percentile, run_child
from tracing import PLANNER_LAYERS

WORKLOADS = ("plan-fig10", "plan-baselines", "serve-mixed", "train-e0")

#: Set-up launches per run; the median is reported.
SETUPS = 5

END_TO_END = {
    "setup_s": "s",
    "work_s": "s",
    "latency_ms": "ms",
    "peak_rss_mib": "MiB",
    "ok_share": "ratio",
}

PER_LAYER: dict[str, str] = {}
for _layer in PLANNER_LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.calls"] = "count"
PER_LAYER.update({
    "planner.other_s": "s",
    "gencache.hits": "count",
    "gencache.misses": "count",
    "structure.hits": "count",
    "structure.misses": "count",
    "grid.batch_size": "count",
    "grid.topology_class_hits": "count",
    "configs.evaluated_analytic": "count",
    "configs.evaluated_sim": "count",
    "configs.skipped": "count",
    "sweepcache.hits": "count",
    "sweepcache.misses": "count",
    "handler.analytic_p50_ms": "ms",
    "handler.plan_p50_ms": "ms",
    "service.overhead_p50_ms": "ms",
    "jobstore.jobs_retained": "count",
    "jobstore.dedup_hits": "count",
    "jobstore.executed": "count",
    "loadgen.late_p95_ms": "ms",
    "stage.busy_s": "s",
    "stage.wait_s": "s",
    "stage.overlap_w_s": "s",
    "runtime.spawn_s": "s",
    "runtime.bubble_ratio": "ratio",
    "runtime.channel_buffer_bytes": "bytes",
    "trace.overhead_share": "ratio",
})


def fresh_dir(kind: str) -> str:
    path = OUT / kind / uuid.uuid4().hex[:12]
    path.mkdir(parents=True)
    return str(path)


def finish_counters(result: Result, workload: str, seed: int, counters: dict[str, int]) -> None:
    diffs = harness.check_counters(workload, seed, counters)
    result.check([f"work counter changed between runs of seed {seed}: {diff}"
                  for diff in diffs])


# ----------------------------------------------------------------------
# planner workloads
# ----------------------------------------------------------------------
def plan_pass(workload: str, seed: int, seconds: float, trace_out: str | None) -> dict[str, Any]:
    """Fresh-process repetitions of the request sequence until
    ``seconds`` are used (one when traced)."""
    setups, reps = [], []
    start = time.perf_counter()
    while True:
        args = ["plan", "--workload", workload, "--seed", str(seed),
                "--cache-dir", fresh_dir("work")]
        if trace_out:
            args += ["--trace-out", trace_out]
        setup, rep = run_child(args)
        setups.append(setup)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if trace_out or elapsed + elapsed / len(reps) > seconds:
            break
    setups += harness.setup_only(max(0, SETUPS - len(setups)))
    return {"setups": setups, "reps": reps}


def check_plan(result: Result, workload: str, seed: int, run: dict[str, Any]) -> None:
    golden = workloads.load_golden()
    for rep in run["reps"]:
        # One check per request: its cells against the golden values.
        for cells in rep["cells"]:
            result.check(workloads.check_plan_cells(cells, golden))
        if workload == "plan-fig10":
            merged = {key: cell for cells in rep["cells"] for key, cell in cells.items()}
            result.check(workloads.check_fig10_shape(merged))
        finish_counters(result, workload, seed, rep["counters"])


def plan_workload(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    plain = plan_pass(workload, seed, seconds, None)
    check_plan(result, workload, seed, plain)
    sweeps = [rep["sweep_s"] for rep in plain["reps"]]
    requests = len(plain["reps"][0]["latencies_s"])
    result.notes += [
        f"sweep_s = {median(sweeps):.3f} s (median of {len(sweeps)} fresh-process sweeps)",
        "request latencies (s): " + " ".join(f"{x:.3f}" for x in plain["reps"][0]["latencies_s"]),
    ]
    if not trace:
        # The requests differ in size, so their mean latency is the
        # per-request figure: the sweep time over the request count.
        put_end_to_end(result, plain["setups"], median(sweeps),
                       1000 * median(sweeps) / requests,
                       max(rep["rss_mib"] for rep in plain["reps"]))
        return result

    trace_out = str(OUT / f"trace-{workload}-seed{seed}.json")
    traced = plan_pass(workload, seed, seconds, trace_out)
    check_plan(result, workload, seed, traced)
    rep = traced["reps"][0]
    layers = rep["layers"]
    counters = rep["counters"]
    values: dict[str, float] = {}
    for name in PLANNER_LAYERS:
        values[f"{name}.self_s"] = layers[name]["self_s"]
        values[f"{name}.calls"] = layers[name]["calls"]
    wrapped = sum(layers[name]["self_s"] for name in PLANNER_LAYERS)
    values["planner.other_s"] = rep["sweep_s"] - wrapped
    for name in ("gencache.hits", "gencache.misses", "structure.hits",
                 "structure.misses", "grid.batch_size", "grid.topology_class_hits",
                 "configs.evaluated_analytic", "configs.evaluated_sim",
                 "configs.skipped", "sweepcache.hits", "sweepcache.misses"):
        values[name] = counters[name]
    values["trace.overhead_share"] = rep["sweep_s"] / median(sweeps) - 1.0
    result.notes.append(
        f"traced sweep_s = {rep['sweep_s']:.3f} s = wrapped self time "
        f"{wrapped:.3f} s + planner.other_s {values['planner.other_s']:.3f} s"
    )
    put_per_layer(result, values)
    return result


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
LISTENING = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")


class Server:
    """One ``repro serve`` process, plain or with the layer wrappers."""

    def __init__(self, trace_out: str | None = None) -> None:
        cache_dir = fresh_dir("work")
        self.log = Path(fresh_dir("work")) / "server.log"
        if trace_out:
            argv = [sys.executable, str(harness.HERE / "child.py"), "serve",
                    "--cache-dir", cache_dir, "--trace-out", trace_out]
        else:
            argv = [sys.executable, "-m", "repro", "serve",
                    "--host", "127.0.0.1", "--port", "0"]
        env = harness.child_env()
        env["REPRO_CACHE_DIR"] = cache_dir
        start = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(argv, cwd=harness.ROOT, env=env,
                                         stdout=log, stderr=subprocess.STDOUT)
        self.port = self._wait_port()
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.healthz()
                break
            except OSError:
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    self.stop()
                    raise BenchError("server never answered /v1/healthz") from None
                time.sleep(0.005)
        self.setup_s = time.perf_counter() - start

    def _wait_port(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and self.proc.poll() is None:
            match = LISTENING.search(self.log.read_text())
            if match:
                return int(match.group(1))
            time.sleep(0.005)
        self.stop()
        raise BenchError(f"server did not start: {self.log.read_text()[-2000:]}")

    def healthz(self) -> dict[str, Any]:
        url = f"http://127.0.0.1:{self.port}/v1/healthz"
        with urllib.request.urlopen(url, timeout=5.0) as response:
            data: dict[str, Any] = json.loads(response.read())
        return data

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


def serve_pass(seed: int, seconds: float, trace_out: str | None) -> dict[str, Any]:
    gen = traffic.Traffic(seed)
    open_s = 0.8 * seconds
    schedule = gen.open_loop(open_s)
    setups = []
    for _ in range(SETUPS - 1):
        spare = Server()
        setups.append(spare.setup_s)
        spare.stop()
    server = Server(trace_out)
    setups.append(server.setup_s)
    try:
        # Each plan sweep runs cold once, one at a time, before timing
        # starts; in the timed phases plans come from the sweep cache.
        warm = [traffic.Planned("plan", "plan", body) for body in traffic.plan_bodies()]
        warmed = [traffic.send(server.port, i, item, time.perf_counter())
                  for i, item in enumerate(warm)]
        opened = traffic.run_open_loop(server.port, schedule)
        # Read before the saturation phase, whose request count grows
        # with the server's speed: the open loop's traffic is fixed.
        rss = server.peak_rss_mib()
        open_stats = server.healthz()["stats"]
        closed, closed_items, closed_s = traffic.run_closed_loop(
            server.port, gen.closed_loop(), seconds - open_s)
        stats = server.healthz()["stats"]
    finally:
        code = server.stop()
    if code != 0:
        raise BenchError(f"server exited {code}: {server.log.read_text()[-2000:]}")
    return {
        "setups": setups, "warm": warmed, "warm_items": warm, "open": opened, "open_items": [item for _, item in schedule],
        "closed": closed, "closed_items": closed_items, "closed_s": closed_s,
        "stats": stats, "open_stats": open_stats, "rss_mib": rss,
    }


def reference_answers(items: list[traffic.Planned]) -> dict[tuple[str, str], list[Any]]:
    """In-process answers of every distinct request."""
    distinct = sorted({(item.kind, item.body) for item in items})
    path = Path(fresh_dir("work")) / "requests.json"
    path.write_text(json.dumps(distinct))
    _, out = run_child(["reference", "--requests", str(path),
                        "--cache-dir", fresh_dir("work")])
    return {key: answer for key, answer in zip(distinct, out["answers"])}


def check_outcome(outcome: harness.Outcome, item: traffic.Planned,
                  answer: list[Any]) -> str:
    """Why an answer is wrong, or ``""`` when it is right."""
    if outcome.error:
        return f"{item.kind} {item.body}: {outcome.error}"
    status, code, body, _ = answer
    if item.cls == "invalid":
        if code != item.expect_code or not 400 <= status < 500:
            return f"{item.kind} {item.body}: in process gives {status} {code!r}, expected {item.expect_code!r}"
    if outcome.status != status:
        return f"{item.kind} {item.body}: status {outcome.status}, expected {status}"
    if item.cls == "plan":
        # The sweep- and generation-cache counters in a plan response
        # describe the cache state, which differs between the shared
        # server and a fresh process; the plans themselves must agree.
        got = json.loads(outcome.body)["methods"]
        if got != json.loads(body)["methods"]:
            return f"plan {item.body}: methods differ from in-process execute"
    elif outcome.body != body.encode():
        return f"{item.kind} {item.body}: response differs from in-process execute"
    return ""


def check_serve(result: Result, seed: int, run: dict[str, Any],
                answers: dict[tuple[str, str], list[Any]]) -> None:
    for outcomes, items in ((run["warm"], run["warm_items"]),
                            (run["open"], run["open_items"]),
                            (run["closed"], run["closed_items"])):
        for outcome in outcomes:
            item = items[outcome.index]
            why = check_outcome(outcome, item, answers[(item.kind, item.body)])
            if why:
                outcome.ok = False
            result.check([why] if why else [])
    # Every request that parses reaches the job store once, as a new
    # job or attached to an identical one in flight; how the two split
    # depends on timing, their sum does not.
    stats = run["open_stats"]
    submitted = stats["executed"] + stats["dedup_hits"]
    expected = sum(1 for item in run["warm_items"] + run["open_items"]
                   if answers[(item.kind, item.body)][3])
    result.check([] if submitted == expected else [
        f"job store took {submitted} requests by the end of the open loop, "
        f"{expected} were sent that parse"])
    finish_counters(result, "serve-mixed", seed, {"jobstore.submitted": submitted})


def serve_summary(run: dict[str, Any]) -> dict[str, Any]:
    by_cls: dict[str, list[float]] = {"analytic": [], "plan": [], "invalid": []}
    for o in run["open"]:
        by_cls[o.cls].append(o.latency_s * 1000.0)
    good = harness.goodput(run["closed"], traffic.GOODPUT_LIMIT_S, run["closed_s"])
    return {"latency_ms": by_cls, "goodput_rps": good,
            "late_ms": [o.late_s * 1000.0 for o in run["open"]]}


def describe_percentiles(name: str, values: list[float], wanted: tuple[float, ...]) -> str:
    """The wanted percentiles (``n/a`` without ten samples beyond), and
    the highest one the samples do allow."""
    parts = []
    for q in wanted:
        v = percentile(values, q)
        parts.append(f"p{q:g} {'n/a' if v is None else f'{v:.2f} ms'}")
    highest = harness.highest_percentile(values)
    if highest is not None and highest[0] not in wanted:
        parts.append(f"highest reportable p{highest[0]:g} {highest[1]:.2f} ms")
    return f"{name}: " + ", ".join(parts) + f" (n={len(values)})"


def serve_workload(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    plain = serve_pass(seed, seconds, None)
    traced = None
    trace_out = str(OUT / f"trace-serve-mixed-seed{seed}.json")
    if trace:
        traced = serve_pass(seed, seconds, trace_out)
    items = plain["warm_items"] + plain["open_items"] + plain["closed_items"]
    if traced is not None:
        items += traced["open_items"] + traced["closed_items"]
    answers = reference_answers(items)
    check_serve(result, seed, plain, answers)
    if traced is not None:
        check_serve(result, seed, traced, answers)
    summary = serve_summary(plain)
    analytic = summary["latency_ms"]["analytic"]
    result.notes += [
        describe_percentiles("analytic latency from due time", analytic, (50, 99)),
        describe_percentiles("plan latency from due time", summary["latency_ms"]["plan"], (50, 90)),
        f"analytic goodput within {traffic.GOODPUT_LIMIT_S * 1000:g} ms: "
        f"{summary['goodput_rps']:.1f} req/s over {plain['closed_s']:.2f} s closed loop "
        f"({len(plain['closed'])} requests on {traffic.CONNECTIONS} connections)",
        describe_percentiles("load generator lateness", summary["late_ms"], (50, 99)),
        f"job store: {plain['stats']}",
    ]
    p50 = percentile(analytic, 50)
    if p50 is None:
        raise BenchError(f"only {len(analytic)} analytic samples")
    if not trace:
        put_end_to_end(result, plain["setups"], 100.0 / max(summary["goodput_rps"], 1e-9),
                       p50, plain["rss_mib"])
        return result

    assert traced is not None
    with open(trace_out) as fh:
        spans = json.load(fh)
    values: dict[str, float] = {}
    for name in PLANNER_LAYERS:
        values[f"{name}.self_s"] = spans["self_s"].get(name, 0.0)
        values[f"{name}.calls"] = spans["calls"].get(name, 0)
    for name, value in spans["counters"].items():
        values[name] = value
    result.notes.append(
        f"generation cache: {values['gencache.misses']} misses, "
        f"{spans['gencache_size']} schedules held at shutdown (bound 128)")
    handler = spans["durations"]
    handler_analytic = [1000 * d for k in traffic.ANALYTIC_KINDS for d in handler.get(k, [])]
    handler_plan = [1000 * d for d in handler.get("plan", [])]
    traced_summary = serve_summary(traced)
    sent_to_done = [1000 * (o.done - o.sent) for o in traced["open"] if o.cls == "analytic"]
    values["handler.analytic_p50_ms"] = percentile(handler_analytic, 50) or 0.0
    values["handler.plan_p50_ms"] = percentile(handler_plan, 50) or 0.0
    values["service.overhead_p50_ms"] = (
        (percentile(sent_to_done, 50) or 0.0) - values["handler.analytic_p50_ms"])
    plan_caches = [json.loads(o.body)["cache"] for o in traced["open"]
                   if o.cls == "plan" and o.status == 200]
    values["sweepcache.hits"] = max((c["hits"] for c in plan_caches), default=0)
    values["sweepcache.misses"] = max((c["misses"] for c in plan_caches), default=0)
    values["jobstore.jobs_retained"] = traced["stats"]["jobs"]
    values["jobstore.dedup_hits"] = traced["stats"]["dedup_hits"]
    values["jobstore.executed"] = traced["stats"]["executed"]
    # p95: p99 needs 1000 sends, more than a default-length open loop
    # makes.
    values["loadgen.late_p95_ms"] = percentile(summary["late_ms"], 95) or 0.0
    traced_p50 = percentile(traced_summary["latency_ms"]["analytic"], 50) or p50
    values["trace.overhead_share"] = traced_p50 / p50 - 1.0
    put_per_layer(result, values)
    return result


# ----------------------------------------------------------------------
# train-e0
# ----------------------------------------------------------------------
def train_pass(seed: int, seconds: float, trace_out: str | None) -> dict[str, Any]:
    args = ["train", "--seed", str(seed), "--seconds", str(seconds)]
    if trace_out:
        args += ["--trace-out", trace_out]
    child = Child(args)
    setups = [child.wait_ready()]
    run = child.finish()
    for _ in range(SETUPS - 1):
        setups.append(run_child(["setup", "--workload", "train-e0", "--seed", str(seed)])[0])
    run["setups"] = setups
    return run


TRAIN_COUNTERS = ("ops_executed", "wgrad_tasks", "messages", "comm_bytes",
                  "channel_buffer_bytes")


def check_train(result: Result, seed: int, run: dict[str, Any]) -> None:
    golden = workloads.load_golden()["e0_loss"][str(workloads.e0_seed(seed))]
    counters: dict[str, int] = {}
    for record in run["warmup"] + run["runs"]:
        # One check per iteration: its loss and its work counters.
        problems = []
        if record["loss"] != golden:
            problems.append(f"{record['executor']} loss {record['loss']} != golden {golden}")
        for name in TRAIN_COUNTERS:
            key = f"{record['executor']}.{name}"
            if counters.setdefault(key, record[name]) != record[name]:
                problems.append(f"{key} varies between runs: {counters[key]} vs {record[name]}")
        result.check(problems)
    finish_counters(result, "train-e0", seed, counters)


def train_workload(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    plain = train_pass(seed, seconds, None)
    check_train(result, seed, plain)
    serial = [r["wall_s"] for r in plain["runs"] if r["executor"] == "serial"]
    parallel = [r["wall_s"] for r in plain["runs"] if r["executor"] == "parallel"]
    result.notes += [
        "untimed first iterations: " + ", ".join(
            f"{r['executor']} {r['wall_s']:.3f} s" for r in plain["warmup"]),
        f"serial_iter_s = {median(serial):.4f} s (median of {len(serial)}: "
        + " ".join(f"{x:.3f}" for x in serial) + ")",
        f"parallel_iter_s = {median(parallel):.4f} s (median of {len(parallel)}, spawn included: "
        + " ".join(f"{x:.3f}" for x in parallel) + ")",
    ]
    if not trace:
        put_end_to_end(result, plain["setups"], median(parallel), 1000 * median(serial),
                       plain["rss_mib"])
        return result

    trace_out = str(OUT / f"trace-train-e0-seed{seed}.json")
    traced = train_pass(seed, seconds, trace_out)
    check_train(result, seed, traced)
    par = [r for r in traced["runs"] if r["executor"] == "parallel"]
    values: dict[str, float] = {
        "stage.busy_s": median([r["busy_s"] for r in par]),
        "stage.wait_s": median([r["wait_s"] for r in par]),
        "stage.overlap_w_s": median([r["overlap_w_s"] for r in par]),
        "runtime.spawn_s": median([r["wall_s"] - r["inner_s"] for r in par]),
        "runtime.bubble_ratio": median([r["bubble_ratio"] for r in par]),
        "runtime.channel_buffer_bytes": par[0]["channel_buffer_bytes"],
        "trace.overhead_share": median([r["wall_s"] for r in par]) / median(parallel) - 1.0,
    }
    put_per_layer(result, values)
    return result


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def put_end_to_end(result: Result, setups: list[float], work_s: float,
                   latency_ms: float, rss_mib: float) -> None:
    result.notes.append("setup_s samples: " + " ".join(f"{s:.3f}" for s in setups))
    share = (result.attempted - result.failed) / max(result.attempted, 1)
    values = {"setup_s": median(setups), "work_s": work_s, "latency_ms": latency_ms,
              "peak_rss_mib": rss_mib, "ok_share": share}
    for name, unit in END_TO_END.items():
        result.put(name, values[name], unit)


def put_per_layer(result: Result, values: dict[str, float]) -> None:
    """Every per-layer metric; layers a workload does not reach read 0."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise BenchError(f"unlisted per-layer metrics {sorted(unknown)}")
    for name, unit in PER_LAYER.items():
        result.put(name, values.get(name, 0.0), unit)


RUNNERS = {
    "plan-fig10": lambda seed, seconds, trace: plan_workload("plan-fig10", seed, seconds, trace),
    "plan-baselines": lambda seed, seconds, trace: plan_workload("plan-baselines", seed, seconds, trace),
    "serve-mixed": serve_workload,
    "train-e0": train_workload,
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        harness.require_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    shutil.rmtree(OUT / "work", ignore_errors=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for name in names:
        try:
            result = RUNNERS[name](args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for note in result.notes:
            print(f"  {note}")
        for failure in result.failures[:20]:
            print(f"  FAILED: {failure}")
        for metric, (value, unit) in result.metrics.items():
            print(f"  {metric} = {value:.6g} {unit}")
        print(result.to_json(), flush=True)
        all_correct = all_correct and result.correct
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
