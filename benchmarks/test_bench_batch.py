"""Bench: batched sweep planning vs the per-cell planner it replaced.

Two claims, two grains:

* **Stacked pass** — ``evaluate_schedule_batch`` over one topology
  class (the largest 13B MEPipe cell, K=8 cost variants) must beat the
  equivalent ``evaluate_schedule`` loop, with bit-identical floats.
  The stacked recurrence amortizes the per-level Python dispatch over
  all members, so the win grows with K but is modest at this scale —
  the floor is deliberately conservative (the measured ratio on a
  quiet machine is ~1.25x at K=8).
* **End-to-end sweep** — the full Figure 10 sweep under the new
  defaults (topology-class batching and structure sharing, dense
  structure verification, dirty-channel FIFO checking, persistent
  pool) must beat the same sweep with every one of those reverted to
  its per-cell predecessor.  Each leg runs in its own interpreter so
  both are true cold starts.

Both grains time min-of-reps: evaluation is deterministic, so the
minimum is the least noisy estimator on a shared machine.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.evaluate import evaluate_schedule, evaluate_schedule_batch
from repro.schedules.base import PipelineProblem
from repro.schedules.svpp import mepipe_schedule
from repro.sim.cost import UniformCost

REPS = 7
#: Stacked-pass floor at K=8 on the 18k-op cell; measured ~1.25x.
MIN_BATCH_SPEEDUP = 1.1
#: End-to-end sweep floor vs the per-cell planner; measured ~1.5x.
MIN_SWEEP_SPEEDUP = 1.4

#: The largest 13B MEPipe cell of the Figure 10 grid (~18k ops).
PROBLEM = PipelineProblem(
    num_stages=8, num_microbatches=32, num_slices=8, virtual_size=1,
    split_backward=True, wgrad_gemms=2,
)
K = 8


def _class_members():
    """One topology class: one structure, K distinct cost tables."""
    base = UniformCost(PROBLEM, tf=1.0, tb=2.0, tw=1.0)
    schedule = mepipe_schedule(PROBLEM, cost=base)
    costs = [
        UniformCost(PROBLEM, tf=1.0 + 0.05 * i, tb=2.0 + 0.1 * i, tw=1.0)
        for i in range(K)
    ]
    return [schedule] * K, costs


def interleaved_min_of(fn_a, fn_b, reps=REPS):
    """Min-of-reps for two callables, alternating them each round.

    Alternation means background load on a shared machine degrades both
    measurements alike instead of landing on whichever path happened to
    be timed second, which is what keeps the asserted *ratio* stable
    under noise.
    """
    best_a = best_b = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def test_bench_batch_stacked_pass_speedup(benchmark):
    schedules, costs = _class_members()
    overheads = [0.0] * K

    def batched():
        return evaluate_schedule_batch(schedules, costs, overheads)

    def scalar_loop():
        return [
            evaluate_schedule(s, c) for s, c in zip(schedules, costs)
        ]

    # Warm the shared structure (plan, gather tables, verification
    # verdict) both paths tap, and check the bit-identity claim the
    # speedup rides on — the full field-by-field gate lives in
    # tests/test_evaluate_batch.py.
    for got, want in zip(batched(), scalar_loop()):
        assert got.makespan == want.makespan
        assert np.array_equal(got.times.start, want.times.start)
        assert np.array_equal(got.times.end, want.times.end)

    # Up to three measurement attempts: a burst of unrelated machine
    # load can still skew one round of mins, and the claim under test
    # is the path ratio, not the machine's quietness.
    for _ in range(3):
        loop_s, batch_s = interleaved_min_of(scalar_loop, batched)
        if loop_s >= MIN_BATCH_SPEEDUP * batch_s:
            break
    # Record the batched path under the regression gate.
    benchmark.pedantic(batched, rounds=REPS, iterations=1, warmup_rounds=1)
    assert loop_s >= MIN_BATCH_SPEEDUP * batch_s, (
        f"K={K} stacked pass {batch_s * 1e3:.1f} ms vs scalar loop "
        f"{loop_s * 1e3:.1f} ms is below the {MIN_BATCH_SPEEDUP:.1f}x floor"
    )


#: Each fig10 leg runs in its own interpreter so neither pollutes (or
#: borrows) this process's schedule memo, generation cache, structure
#: store, or planner pool — both legs are true cold starts, and the
#: rest of the benchmark suite keeps its warm state.
_FIG10_LEG = """\
import time
{prelude}
from repro.experiments import fig10
t0 = time.perf_counter()
report = fig10.run()
assert report.rows
print("SECONDS", time.perf_counter() - t0)
"""

#: Revert every batched-sweep mechanism to its per-cell predecessor:
#: cell-at-a-time evaluation (every task its own dispatch class, so
#: each takes the scalar evaluator), a fresh worker pool per sweep, no
#: structure store, cold prelude per call, Kahn re-run per graph, full
#: op-tuple materialization before cost probing, and the per-edge
#: Python channel walk.  This is the planner as it stood before the
#: batched-sweep work, expressed as monkeypatches so both legs ship
#: identical generation/simulation code.
_PER_CELL_PRELUDE = """\
import repro.planner.parallel as parallel_mod
parallel_mod._dispatch_key = lambda index, task: index
from repro.planner import pool
_run_map = pool.run_map
def _per_sweep_run_map(fn, items, jobs):
    try:
        return _run_map(fn, items, jobs)
    finally:
        pool.shutdown()
pool.run_map = _per_sweep_run_map
import repro.planner.evaluate as ev
ev._prelude = ev._prelude.__wrapped__
from repro.schedules import gencache
gencache.get_structure = lambda key: None
gencache.put_structure = lambda key, value: None
import repro.schedules.verify.deps as deps
import repro.schedules.graph as graph_mod
deps._dense_structure_clean = lambda schedule: None
deps.toposort_plan = graph_mod.build_topo_plan
import repro.analysis.evaluate.dense as dense_mod
_cost_arrays = dense_mod.op_cost_arrays
def _per_cell_cost_arrays(graph, cost):
    graph.ops  # the per-cell planner materialized the op tuple up front
    return _cost_arrays(graph, cost)
dense_mod.op_cost_arrays = _per_cell_cost_arrays
import repro.schedules.verify.channels as channels_mod
def _per_cell_channels_from_graph(graph):
    ops, stage, pos, kind = graph.ops, graph.stage, graph.pos, graph.kind
    pred_indptr, pred = graph.pred_indptr, graph.pred
    pred_cross = graph.pred_cross
    channels = {}
    for i in range(graph.num_ops):
        for e in range(pred_indptr[i], pred_indptr[i + 1]):
            if not pred_cross[e]:
                continue
            j = pred[e]
            key = (stage[j], stage[i], channels_mod._KIND_OF_CODE[kind[j]])
            channels.setdefault(key, []).append(
                channels_mod._Message(ops[j], ops[i], pos[j], pos[i]))
    return channels
channels_mod._channels_from_graph = _per_cell_channels_from_graph
"""


def _fig10_seconds(prelude: str) -> float:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _FIG10_LEG.format(prelude=prelude)],
        env=env, capture_output=True, text=True, check=True,
    )
    for line in proc.stdout.splitlines():
        if line.startswith("SECONDS "):
            return float(line.split()[1])
    raise AssertionError(f"no timing line in fig10 leg output: {proc.stdout}")


def test_bench_fig10_batched_sweep_speedup(benchmark):
    """The full Figure 10 sweep under the batched-sweep defaults must
    beat the same sweep with every mechanism reverted to its per-cell
    predecessor (both legs cold, each in its own interpreter)."""
    fast_box = {}

    def fast_leg():
        fast_box["s"] = _fig10_seconds("")

    # The recorded gate number includes interpreter startup; the
    # asserted ratio uses the in-leg measurement, which does not.
    benchmark.pedantic(fast_leg, rounds=1, iterations=1, warmup_rounds=0)
    fast_s = fast_box["s"]
    cell_s = _fig10_seconds(_PER_CELL_PRELUDE)
    if cell_s < MIN_SWEEP_SPEEDUP * fast_s:
        # One retry of each leg: a ~20 s leg is a wide window for a
        # burst of unrelated load to land in, and the mins are what
        # the ratio claim is about.
        fast_s = min(fast_s, _fig10_seconds(""))
        cell_s = min(cell_s, _fig10_seconds(_PER_CELL_PRELUDE))

    print(f"\nfig10 sweep: per-cell {cell_s:.2f}s, batched {fast_s:.2f}s, "
          f"speedup {cell_s / fast_s:.2f}x")
    assert cell_s >= MIN_SWEEP_SPEEDUP * fast_s, (
        f"fig10 end-to-end: per-cell {cell_s:.2f}s vs batched {fast_s:.2f}s "
        f"is below the {MIN_SWEEP_SPEEDUP:.2f}x floor"
    )
