"""Child processes that run the program for the benchmark.

Usage: ``python perfbench/child.py <mode> [options]`` with ``src`` on
``PYTHONPATH``.  Modes:

``setup [--workload train-e0 --seed N]``
    Import the program (and, for ``train-e0``, build model, schedule
    and tokens), report ready and exit.
``plan --workload W --seed N --cache-dir D [--trace-out F]``
    Run a planner workload's ``PlanRequest`` sequence through
    ``repro.api.execute``.
``train --seed N --seconds S [--trace-out F]``
    Alternate E0 iterations on the serial and the parallel executor.
``serve --cache-dir D --trace-out F``
    ``repro serve`` on a free port with the layer wrappers installed;
    the spans are written to ``F`` when the server stops.
``reference --requests F``
    Answer each request of ``F`` in process, as the service would.

Each mode except ``serve`` prints ``{"ready": true}`` once it can issue
its first operation, then one JSON result line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from typing import Any

import workloads
from tracing import PLANNER_LAYERS, PLANNER_SITES, Tracer


def emit(payload: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def ready() -> None:
    emit({"ready": True})


def rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def write_trace(path: str | None, tracer: Tracer | None, extra: dict[str, Any]) -> None:
    if path is None or tracer is None:
        return
    with open(path, "w") as fh:
        json.dump({**tracer.table(), **extra, "spans": tracer.dump_spans()}, fh)


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------
def program_counters() -> dict[str, int]:
    """Process-wide work counters the program exports."""
    from repro.planner import grid_stats
    from repro.schedules import gencache

    gen = gencache.stats()
    structure = gencache.structure_stats()
    grid = grid_stats()
    return {
        "gencache.hits": gen["hits"],
        "gencache.misses": gen["misses"],
        "structure.hits": structure["hits"],
        "structure.misses": structure["misses"],
        "grid.batch_size": grid["batch_size"],
        "grid.topology_class_hits": grid["topology_class_hits"],
    }


def plan(args: argparse.Namespace) -> None:
    os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    from repro import api

    tracer: Tracer | None = None
    tiers: dict[str, int] = {"analytic": 0, "sim": 0}
    if args.trace_out:
        tracer = Tracer()
        tracer.install(PLANNER_SITES)
        import repro.planner

        search_method = repro.planner.search_method

        def capture(*a: Any, **k: Any) -> Any:
            result = search_method(*a, **k)
            for r in result.evaluated:
                tiers[r.tier] = tiers.get(r.tier, 0) + 1
            return result

        repro.planner.search_method = capture
    payloads = workloads.plan_requests(args.workload, args.seed)
    requests = [api.request_from_dict(p) for p in payloads]
    ready()

    latencies = []
    responses = []
    start = time.perf_counter()
    for request in requests:
        t0 = time.perf_counter()
        responses.append(api.execute(request))
        latencies.append(time.perf_counter() - t0)
    sweep_s = time.perf_counter() - start

    cells: list[dict[str, Any]] = []
    counters = program_counters()
    counters.update({"sweepcache.hits": 0, "sweepcache.misses": 0,
                     "configs.evaluated": 0, "configs.skipped": 0})
    for payload, response in zip(payloads, responses):
        data = response.to_dict()
        cells.append(workloads.plan_summary(payload, data))
        counters["sweepcache.hits"] += data["cache"]["hits"]
        counters["sweepcache.misses"] += data["cache"]["misses"]
        for entry in data["methods"]:
            counters["configs.evaluated"] += entry["evaluated"]
            counters["configs.skipped"] += len(entry["skipped"])
    if tracer is not None:
        counters["configs.evaluated_analytic"] = tiers.get("analytic", 0)
        counters["configs.evaluated_sim"] = tiers.get("sim", 0)
    write_trace(args.trace_out, tracer, {"sweep_s": sweep_s})
    emit({
        "sweep_s": sweep_s,
        "latencies_s": latencies,
        "cells": cells,
        "counters": counters,
        "rss_mib": rss_mib(),
        "layers": None if tracer is None else {
            name: {"self_s": tracer.self_s.get(name, 0.0),
                   "calls": tracer.calls.get(name, 0)}
            for name in PLANNER_LAYERS
        },
    })


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
def _train_inputs(seed: int) -> tuple[Any, Any, Any, Any, Any]:
    """Spec, schedule, tokens, targets and a freshly built model of the
    E0 iteration; the inputs of ``seed`` are those of ``e0_seed(seed)``."""
    from repro.data import token_batches
    from repro.model import tiny_spec
    from repro.nn import build_model
    from repro.schedules import build_problem, build_schedule

    seed = workloads.e0_seed(seed)

    spec = tiny_spec(**workloads.TRAIN_SPEC)
    shape = workloads.TRAIN_SHAPE
    problem = build_problem("mepipe", shape["stages"], shape["microbatches"],
                            num_slices=shape["slices"],
                            wgrad_gemms=shape["wgrad_gemms"])
    schedule = build_schedule("mepipe", problem)
    tokens, targets = token_batches(spec.vocab_size, shape["microbatches"],
                                    workloads.TRAIN_BATCH, spec.seq_length,
                                    seed=seed)
    return spec, schedule, tokens, targets, build_model(spec, seed=seed)


def _run_record(result: Any, wall: float) -> dict[str, Any]:
    stats = result.stage_stats
    return {
        "executor": result.executor,
        "wall_s": wall,
        "inner_s": result.wall_seconds,
        "loss": result.loss.hex(),
        "busy_s": sum(s.busy_seconds for s in stats),
        "wait_s": sum(s.wait_seconds for s in stats),
        "overlap_w_s": sum(s.overlap_w_seconds for s in stats),
        "bubble_ratio": result.bubble_ratio,
        "channel_buffer_bytes": sum(s.channel_buffer_bytes for s in stats),
        "ops_executed": result.ops_executed,
        "wgrad_tasks": sum(s.wgrad_tasks_run for s in stats),
        "messages": sum(result.comms.messages.values()),
        "comm_bytes": result.comms.bytes_total,
    }


def train(args: argparse.Namespace) -> None:
    from repro.nn import build_model
    from repro.pipeline import ParallelPipelineRuntime, PipelineRuntime

    tracer: Tracer | None = None
    if args.trace_out:
        tracer = Tracer()
        PipelineRuntime.run = tracer.wrap("runtime.serial", PipelineRuntime.run)  # type: ignore[method-assign]
        ParallelPipelineRuntime.run = tracer.wrap(  # type: ignore[method-assign]
            "runtime.parallel", ParallelPipelineRuntime.run)
    spec, schedule, tokens, targets, model = _train_inputs(args.seed)
    # The first iteration takes the model built during set-up; no other
    # reference may keep it alive after that iteration.
    models = [model]
    del model
    ready()

    def timed(runtime: Any) -> dict[str, Any]:
        # Free the previous iteration's model first, so the peak RSS
        # does not depend on when the garbage collector runs.
        gc.collect()
        model = models.pop() if models else build_model(spec, seed=workloads.e0_seed(args.seed))
        executor = runtime(model, tokens, targets)
        t0 = time.perf_counter()
        result = executor.run(schedule)
        return _run_record(result, time.perf_counter() - t0)

    # One untimed iteration per executor first: the first iteration of a
    # process pays one-off costs (BLAS thread pools, page faults).
    warmup = [timed(PipelineRuntime), timed(ParallelPipelineRuntime)]
    runs = []
    start = time.perf_counter()
    # Two serial iterations per parallel one: a serial one takes about
    # a fifth of the time, and its samples are the noisier.
    cycle = (PipelineRuntime, PipelineRuntime, ParallelPipelineRuntime)
    while time.perf_counter() - start < args.seconds or len(runs) < 6:
        runs += [timed(runtime) for runtime in cycle]
    write_trace(args.trace_out, tracer, {})
    emit({
        "warmup": warmup,
        "runs": runs,
        "rss_mib": max(rss_mib(), rss_mib(resource.RUSAGE_CHILDREN)),
    })


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
def serve(args: argparse.Namespace) -> int:
    os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    tracer = Tracer()
    tracer.install(PLANNER_SITES)
    import repro.service.jobs as jobs
    from repro.cli import main

    jobs.execute = tracer.wrap("api", jobs.execute, tag=lambda request: request.KIND)
    code = main(["serve", "--host", "127.0.0.1", "--port", "0"])
    from repro.schedules import gencache

    write_trace(args.trace_out, tracer, {"counters": program_counters(),
                                         "gencache_size": gencache.stats()["size"]})
    return code


def reference(args: argparse.Namespace) -> None:
    """Answer every request as the service would: status, error code,
    the response bytes or error payload, and whether the request parsed
    (only a request that parses reaches the service's job store)."""
    os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    from repro.api import RequestError, execute
    from repro.api.types import REQUESTS
    from repro.service.http import error_status

    with open(args.requests) as fh:
        items = json.load(fh)
    ready()
    answers = []
    for kind, body in items:
        data = json.loads(body)
        data.setdefault("kind", kind)
        try:
            request = REQUESTS[kind].from_dict(data)
        except RequestError as exc:
            error = exc.to_error()
            answers.append([exc.http_status, error.code, _compact(error.to_dict()), False])
            continue
        try:
            response = execute(request)
        except RequestError as exc:
            error = exc.to_error()
            answers.append([error_status(error), error.code, _compact(error.to_dict()), True])
            continue
        answers.append([200, "", response.to_json(), True])
    emit({"answers": answers})


def _compact(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def setup(args: argparse.Namespace) -> None:
    if args.workload == "train-e0":
        _train_inputs(args.seed)
    else:
        import repro.api  # noqa: F401
    ready()
    emit({})


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=["setup", "plan", "train", "serve", "reference"])
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--cache-dir", default="")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--requests", default="")
    args = parser.parse_args(argv)
    if args.mode == "serve":
        return serve(args)
    {"setup": setup, "plan": plan, "train": train, "reference": reference}[args.mode](args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
