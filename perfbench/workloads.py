"""Inputs of the planner and executor workloads, and their output checks.

Pure data and checks on JSON-shaped results: nothing here imports the
program, so the parent process and the children share one definition.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any

GOLDEN = Path(__file__).resolve().parent / "golden.json"

MODELS = ("7b", "13b", "34b")
METHODS = ("dapple", "vpp", "zb", "zbv", "mepipe")
BASELINES = ("dapple", "vpp", "zb", "zbv")
BASELINE_GBS = (32, 64, 128, 256)


def plan_requests(workload: str, seed: int) -> list[dict[str, Any]]:
    """``PlanRequest`` payloads of a planner workload, in send order.

    Every field not given keeps the request's default: grid evaluator,
    one job, sweep cache on.
    """
    if workload == "plan-fig10":
        return [
            {"kind": "plan", "model": m, "global_batch_size": 128,
             "methods": list(METHODS)}
            for m in MODELS
        ]
    if workload == "plan-baselines":
        requests = [
            {"kind": "plan", "model": m, "global_batch_size": g,
             "methods": list(BASELINES)}
            for m in MODELS
            for g in BASELINE_GBS
        ]
        random.Random(seed).shuffle(requests)
        return requests
    raise ValueError(f"not a planner workload: {workload!r}")


def cell_key(model: str, gbs: int, method: str) -> str:
    return f"{model}/{gbs}/{method}"


def plan_summary(request: dict[str, Any], response: dict[str, Any]) -> dict[str, Any]:
    """Best config and iteration time per method of one plan response."""
    out: dict[str, Any] = {}
    for entry in response["methods"]:
        best = entry["best"]
        out[cell_key(request["model"], request["global_batch_size"], entry["method"])] = (
            None if best is None
            else {"config": best["config"], "iteration_time_s": best["iteration_time_s"]}
        )
    return out


def load_golden() -> dict[str, Any]:
    data: dict[str, Any] = json.loads(GOLDEN.read_text())
    return data


def check_plan_cells(cells: dict[str, Any], golden: dict[str, Any]) -> list[str]:
    """Cells whose best config or iteration time differ from the golden."""
    bad = []
    for key, got in sorted(cells.items()):
        if key not in golden["plans"]:
            bad.append(f"{key}: no golden value")
        elif got != golden["plans"][key]:
            bad.append(f"{key}: got {got}, golden {golden['plans'][key]}")
    return bad


def check_fig10_shape(cells: dict[str, Any]) -> list[str]:
    """The paper-shape invariants of Figure 10 / Table 8 at GBS 128."""
    bad = []

    def best(model: str, method: str) -> dict[str, Any] | None:
        cell: dict[str, Any] | None = cells[cell_key(model, 128, method)]
        return cell

    # 34B: only DAPPLE with recomputation and MEPipe fit (Section 7.4).
    for method in ("vpp", "zb", "zbv"):
        if best("34b", method) is not None:
            bad.append(f"34b {method} should be OOM")
    dapple, mepipe = best("34b", "dapple"), best("34b", "mepipe")
    if dapple is None or not dapple["config"]["recompute"] or dapple["config"]["pp"] != 16:
        bad.append(f"34b dapple should be PP=16 with recomputation, got {dapple}")
    if mepipe is None or (
        mepipe["config"]["pp"], mepipe["config"]["spp"], mepipe["config"]["vp"],
        mepipe["config"]["recompute"],
    ) != (16, 16, 1, False):
        bad.append(f"34b mepipe should be the (16, 16, 1, no) variant, got {mepipe}")
    # MEPipe wins at every model size.
    for model in MODELS:
        me = best(model, "mepipe")
        for method in BASELINES:
            other = best(model, method)
            if other is not None and (
                me is None or me["iteration_time_s"] >= other["iteration_time_s"]
            ):
                bad.append(f"{model}: mepipe does not beat {method}")
    return bad


#: The E0 iteration: MEPipe split-backward on a tiny Llama, p=2 stages
#: (one per core), s=4 slices, 2 deferred W GEMMs per (slice, chunk).
TRAIN_SPEC = {
    "hidden_size": 128, "num_layers": 6, "num_heads": 4,
    "ffn_hidden_size": 512, "vocab_size": 512, "seq_length": 64,
}
TRAIN_SHAPE = {"stages": 2, "microbatches": 4, "slices": 4, "wgrad_gemms": 2}
TRAIN_BATCH = 2
#: Seeds with a recorded golden E0 loss; a run's seed picks one of them.
E0_SEEDS = 128


def e0_seed(seed: int) -> int:
    """The seed of the E0 tokens and model init for a run seed."""
    return seed % E0_SEEDS
