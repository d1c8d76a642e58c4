"""Measure the three costs BASELINE.md cites, outside the benchmark runs.

Run from the repository root::

    python3 perfbench/observations.py [evaluator|service|blas ...]

(all three without arguments).

1. ``plan-baselines`` requests with ``evaluator="grid"`` (the default)
   against ``"tiered"``: fresh process per sweep, alternating, ten
   pairs; the median, quartiles and the per-pair ratio.
2. A warm ``evaluate`` request to ``repro serve`` (one connection,
   closed loop) against the same request through in-process
   ``repro.api.execute``.
3. The ``train-e0`` parallel iteration with the default environment
   against BLAS pinned to one thread per process.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import harness
import run as bench
import traffic
import workloads

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _quartiles(values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"median {med:.3f}, quartiles {q1:.3f}-{q3:.3f} (spread {(q3 - q1) / med:.3f})"


def evaluator_gap(pairs: int = 10) -> None:
    import subprocess

    payloads = workloads.plan_requests("plan-baselines", 0)
    times: dict[str, list[float]] = {"grid": [], "tiered": []}
    for _ in range(pairs):
        for evaluator in ("grid", "tiered"):
            requests = [{**p, "evaluator": evaluator} for p in payloads]
            code = (
                "import json, sys, time\n"
                "from repro import api\n"
                "reqs = [api.request_from_dict(r) for r in json.loads(sys.argv[1])]\n"
                "t = time.perf_counter()\n"
                "for r in reqs: api.execute(r)\n"
                "print(time.perf_counter() - t)\n"
            )
            env = harness.child_env()
            env["REPRO_CACHE_DIR"] = bench.fresh_dir("work")
            out = subprocess.run(
                [sys.executable, "-c", code, json.dumps(requests)],
                cwd=harness.ROOT, env=env, capture_output=True, text=True, check=True,
            )
            times[evaluator].append(float(out.stdout.strip()))
    for evaluator, values in times.items():
        print(f"plan-baselines sweep, evaluator={evaluator}: {_quartiles(values)} s; "
              + ", ".join(f"{v:.2f}" for v in values))
    # Alternating pairs share the machine's slow and fast phases, so
    # the ratio within a pair is steadier than either time.
    ratios = [g / t for g, t in zip(times["grid"], times["tiered"])]
    print(f"grid / tiered within a pair: {_quartiles(ratios)}")


def warm_evaluate(samples: int = 200) -> None:
    item = traffic.Planned("analytic", "evaluate",
                           json.dumps({"method": "mepipe", "shape": {
                               "stages": 4, "microbatches": 8, "slices": 4,
                               "virtual": 2, "wgrad_gemms": 2}}))
    server = bench.Server()
    try:
        traffic.call(server.port, item)
        latencies = []
        for _ in range(samples):
            t = time.perf_counter()
            status, _ = traffic.call(server.port, item)
            latencies.append(1000 * (time.perf_counter() - t))
            assert status == 200
    finally:
        server.stop()
    sys.path.insert(0, str(harness.SRC))
    from repro import api

    request = api.request_from_dict({**json.loads(item.body), "kind": "evaluate"})
    api.execute(request)
    inproc = []
    for _ in range(samples):
        t = time.perf_counter()
        api.execute(request)
        inproc.append(1000 * (time.perf_counter() - t))
    print(f"warm evaluate via repro serve: p50 {statistics.median(latencies):.2f} ms; "
          f"in-process repro.api.execute: p50 {statistics.median(inproc):.2f} ms "
          f"(n={samples} each)")


def blas_pinning(seconds: float = 12.0) -> None:
    for pinned in (False, True):
        saved = {k: os.environ.get(k) for k in BLAS_VARS}
        if pinned:
            os.environ.update({k: "1" for k in BLAS_VARS})
        try:
            _, out = harness.run_child(["train", "--seed", "0", "--seconds", str(seconds)])
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        par = [r["wall_s"] for r in out["runs"] if r["executor"] == "parallel"]
        ser = [r["wall_s"] for r in out["runs"] if r["executor"] == "serial"]
        label = "BLAS pinned to 1 thread" if pinned else "default environment"
        print(f"train-e0, {label}: parallel_iter_s median {statistics.median(par):.3f} s "
              f"(range {min(par):.3f}-{max(par):.3f}, n={len(par)}), "
              f"serial_iter_s median {statistics.median(ser):.3f} s")


OBSERVATIONS = {"evaluator": evaluator_gap, "service": warm_evaluate, "blas": blas_pinning}


def main(argv: list[str]) -> int:
    harness.require_program()
    harness.OUT.mkdir(exist_ok=True)
    for name in argv or list(OBSERVATIONS):
        OBSERVATIONS[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
