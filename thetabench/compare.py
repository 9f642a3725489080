#!/usr/bin/env python3
"""Compare two sets of benchmark runs, such as a parent commit and a change.

    python3 thetabench/compare.py BASE.jsonl HEAD.jsonl

Each file holds run records as ``run.py`` appends them to
``.thetabench/results.jsonl``.  For every workload and metric measured on
both sides, prints each side's median over runs with its quartiles, the
change of the median as a share of the base median, and the metric's bound
from BENCHMARK.json; ``WORSE`` marks a change beyond the bound.  Refuses,
with exit status 1, to compare runs made with different rank kernels: the
compiled and the pure kernel differ by about 1.5x end to end.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _by_metric(records: list[dict]) -> dict[tuple, list[float]]:
    out: dict[tuple, list[float]] = {}
    for rec in records:
        for name, s in rec["metrics"].items():
            out.setdefault((rec["size"], rec["workload"], name), []).append(s["median"])
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, head = _load(argv[0]), _load(argv[1])
    kernels = {rec["env"]["kernel"] for rec in base + head}
    if len(kernels) != 1:
        print(f"error: refusing to compare runs made with different kernels "
              f"{sorted(kernels)}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    b, h = _by_metric(base), _by_metric(head)
    for key in sorted(b.keys() & h.keys()):
        size, workload, name = key
        bq1, bmed, bq3 = _quartiles(b[key])
        hq1, hmed, hq3 = _quartiles(h[key])
        change = (hmed - bmed) / bmed if bmed else 0.0
        bound = metrics.get(name, {}).get("bound")
        worse = change if metrics.get(name, {}).get("better") == "lower" else -change
        flag = "WORSE" if bound is not None and worse > bound else ""
        print(f"{size:4} {workload:9} {name:34} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}] "
              f"n={len(b[key])}  head {hmed:.6g} [{hq1:.6g}, {hq3:.6g}] n={len(h[key])}  "
              f"{change:+.1%}" + (f" (bound {bound:.0%}) {flag}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
