"""Record the golden outputs the benchmark checks against.

Run from the repository root, on the commit whose outputs are the
reference::

    PYTHONPATH=src python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``: the best config and iteration time of
every (model, GBS, method) cell the planner workloads request, and the
E0 loss of the serial executor for every E0 seed (``workloads.e0_seed``).
"""

from __future__ import annotations

import json
import sys

import workloads

def main() -> int:
    from repro import api
    from repro.pipeline import PipelineRuntime

    from child import _train_inputs

    plans: dict[str, object] = {}
    for workload in ("plan-fig10", "plan-baselines"):
        for payload in workloads.plan_requests(workload, 0):
            response = api.execute(api.request_from_dict(payload)).to_dict()
            plans.update(workloads.plan_summary(payload, response))
    losses = {}
    for seed in range(workloads.E0_SEEDS):
        _, schedule, tokens, targets, model = _train_inputs(seed)
        losses[str(seed)] = PipelineRuntime(model, tokens, targets).run(schedule).loss.hex()
    workloads.GOLDEN.write_text(
        json.dumps({"plans": plans, "e0_loss": losses}, sort_keys=True, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
