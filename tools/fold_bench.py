#!/usr/bin/env python3
"""Fold parent and change benchmark runs into one BENCH_<PR>.json.

Usage, from the root of a checkout:

    python3 tools/fold_bench.py PARENT/.perfbench CHANGE/.perfbench BENCH_<PR>.json

Each directory holds the ``result-<workload>-seed<N>-trace0.json`` files that
``perfbench/run.py --trace 0`` wrote for one side.  A seed run on both sides
is a pair, and only pairs count.  For every workload and every end-to-end
metric that ``BENCHMARK.json`` lists, the output gives each side's median,
quartiles and values, the paired seeds and the pairs the change won (ties
count for neither side), plus ``fail_ratio`` per side.  It also records
each side's environment line (cores, BLAS, python, numpy, ``src/``
non-blank lines) as the runs saved it.  Standard library only.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")


def read_side(directory) -> dict:
    """{workload: {seed: result dict}} of one side's trace-0 result files."""
    runs: dict = {}
    for path in sorted(Path(directory).iterdir()):
        match = RESULT.fullmatch(path.name)
        if match:
            result = json.loads(path.read_text(encoding="utf-8"))
            runs.setdefault(match["workload"], {})[int(match["seed"])] = result
    if not runs:
        raise SystemExit(f"E_BENCH: no result-*-trace0.json files in {directory}")
    return runs


def summary(values) -> dict:
    ordered = sorted(values)
    q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive") if len(ordered) > 1 else ordered * 3
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3}


def _envs(runs) -> list:
    distinct = []
    for by_seed in runs.values():
        for result in by_seed.values():
            if result["env"] not in distinct:
                distinct.append(result["env"])
    return distinct


def fold(parent_dir, change_dir, spec: dict) -> dict:
    parent, change = read_side(parent_dir), read_side(change_dir)
    workloads = {}
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        sides = {"parent": [parent[workload][s] for s in seeds], "change": [change[workload][s] for s in seeds]}
        entry = {
            "seeds": seeds,
            "fail_ratio": {
                side: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                for side, runs in sides.items()
            },
            "metrics": {},
        }
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [r["measured"][name]["value"] for r in runs] for side, runs in sides.items()}
            won = sum(
                (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
            )
            parent_median = statistics.median(values["parent"])
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": dict(summary(values["parent"]), values=values["parent"]),
                "change": dict(summary(values["change"]), values=values["change"]),
                "pairs": len(seeds),
                "change_won": won,
                "median_ratio": statistics.median(values["change"]) / parent_median if parent_median else None,
            }
        workloads[workload] = entry
    return {
        "command": " ".join(spec["command"]),
        "run_seconds": spec["run_seconds"],
        "env": {"parent": _envs(parent), "change": _envs(change)},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    folded = fold(argv[0], argv[1], spec)
    Path(argv[2]).write_text(json.dumps(folded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
