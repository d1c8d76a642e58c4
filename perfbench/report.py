"""Render traced runs' per-layer metrics as one markdown table.

Usage, from the repository root::

    python3 perfbench/run.py --workload plan-fig10 --seed 1 --trace 1 > fig10.txt
    ...
    python3 perfbench/report.py fig10.txt baselines.txt serve.txt train.txt

Each file is the standard output of one run; its ``== <workload>``
header names the column and its last line gives the values.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> tuple[str, dict[str, dict[str, float | str]]]:
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    name = next(line[3:].split(" ")[0] for line in lines if line.startswith("== "))
    metrics: dict[str, dict[str, float | str]] = json.loads(lines[-1])["metrics"]
    return name, metrics


def main(paths: list[str]) -> int:
    runs = [load(path) for path in paths]
    names = list(runs[0][1])
    print("| metric | unit | " + " | ".join(name for name, _ in runs) + " |")
    print("|---|---|" + "---:|" * len(runs))
    for metric in names:
        unit = runs[0][1][metric]["unit"]
        cells = []
        for _, metrics in runs:
            value = float(metrics[metric]["value"])
            cells.append("0" if value == 0 else f"{value:.4g}")
        print(f"| `{metric}` | {unit} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
