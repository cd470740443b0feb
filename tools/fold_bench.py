#!/usr/bin/env python3
"""Fold parent and change benchmark runs into one BENCH_<PR>.json.

Usage, from the root of a checkout:

    python3 tools/fold_bench.py PARENT/.perfbench CHANGE/.perfbench BENCH_<PR>.json

Each directory holds the ``result-<workload>-seed<N>-trace0.json`` files that
``perfbench/run.py --trace 0`` wrote for one side.  A seed run on both sides
is a pair, and only pairs count.  For every workload and every end-to-end
metric that ``BENCHMARK.json`` lists, the output gives each side's median,
quartiles and values, the paired seeds, the pairs the change won (ties
count for neither side) and a ``verdict`` (see ``verdict``), plus
``fail_ratio`` per side.  The step time
``step_ms_p50`` is folded the same way under ``reported``, without a bound,
and ``records_equal_pairs`` counts, per ``records`` digest (checkpoint, loss,
report), the pairs whose two runs hold the same value of it.  Where both sides also
hold a ``--trace 1`` result of a workload at one seed, ``traced`` gives
every per-layer metric both measured, side by side.  It also records each
side's environment line (cores, BLAS, python, numpy, ``src/`` non-blank
lines) as the runs saved it.  Standard library only.

Standard output gets the change in ``src/`` non-blank lines, a ``WARNING``
line if the sides' environment lines differ in anything else, one line per
workload and end-to-end metric (both medians, the pairs the change won and the
verdict) and a ``WARNING`` line for each ``records`` digest that was not equal
in every pair.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")
# folded like the end-to-end metrics where every paired run measured them, but
# BENCHMARK.json sets them no bound: {name: (unit, better)}
REPORTED = {"step_ms_p50": ("ms", "lower")}


def read_side(directory, trace: int = 0) -> dict:
    """{workload: {seed: result dict}} of one side's trace-0 (or trace-1) result files."""
    runs: dict = {}
    for path in sorted(Path(directory).iterdir()):
        match = RESULT.fullmatch(path.name)
        if match and int(match["trace"]) == trace:
            result = json.loads(path.read_text(encoding="utf-8"))
            runs.setdefault(match["workload"], {})[int(match["seed"])] = result
    if not runs and trace == 0:
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


def _values(sides, name) -> dict:
    """{side: [value of metric ``name`` in each paired run]}"""
    return {side: [r["measured"][name]["value"] for r in runs] for side, runs in sides.items()}


def _paired(values, lower: bool) -> dict:
    """Both sides' summaries of one metric over the paired seeds."""
    won = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    parent_median = statistics.median(values["parent"])
    return {
        "parent": dict(summary(values["parent"]), values=values["parent"]),
        "change": dict(summary(values["change"]), values=values["change"]),
        "pairs": len(values["parent"]),
        "change_won": won,
        "median_ratio": statistics.median(values["change"]) / parent_median if parent_median else None,
    }


def verdict(paired: dict, bound: float, lower: bool) -> str:
    """``gain``, ``regression``, ``unresolved`` or ``within_bound`` for one
    metric's ``_paired`` summary, ``bound`` being the share of the parent's
    median by which the metric may worsen.

    A gain needs at least ten pairs, nine tenths of them won, and a median
    gap wider than the parent's quartile spread.  A metric whose parent
    quartile spread is wider than the bound is unresolved, unless every
    change run reads better than every parent run.
    """
    parent, change = paired["parent"], paired["change"]
    sign = 1 if lower else -1
    gap = sign * (parent["median"] - change["median"])  # > 0: the change is better
    spread = parent["q3"] - parent["q1"]
    scale = abs(parent["median"])
    if paired["pairs"] >= 10 and paired["change_won"] >= 0.9 * paired["pairs"] and gap > spread:
        return "gain"
    if -gap > bound * scale:
        return "regression"
    best_parent = min(parent["values"]) if lower else max(parent["values"])
    all_better = all(sign * (best_parent - v) > 0 for v in change["values"])
    if spread > bound * scale and not all_better:
        return "unresolved"
    return "within_bound"


def _equal_pairs(sides) -> dict:
    """{digest name: pairs whose two runs hold the same value of that ``records`` digest}"""
    names = sorted({name for runs in sides.values() for r in runs for name in r.get("records", {})})
    pairs = [(p.get("records", {}), c.get("records", {})) for p, c in zip(sides["parent"], sides["change"])]
    return {name: sum(name in p and p[name] == c.get(name) for p, c in pairs) for name in names}


def fold(parent_dir, change_dir, spec: dict) -> dict:
    parent, change = read_side(parent_dir), read_side(change_dir)
    traced = {"parent": read_side(parent_dir, 1), "change": read_side(change_dir, 1)}
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
            "records_equal_pairs": _equal_pairs(sides),
            "metrics": {},
            "reported": {},
            "traced": {},
        }
        for metric in spec["end_to_end"]:
            lower = metric["better"] == "lower"
            paired = _paired(_values(sides, metric["name"]), lower)
            entry["metrics"][metric["name"]] = dict(
                paired,
                unit=metric["unit"],
                better=metric["better"],
                bound=metric["bound"],
                verdict=verdict(paired, metric["bound"], lower),
            )
        for name, (unit, better) in REPORTED.items():
            if all(name in r["measured"] for runs in sides.values() for r in runs):
                entry["reported"][name] = dict(_paired(_values(sides, name), better == "lower"), unit=unit, better=better)
        for seed in sorted(set(traced["parent"].get(workload, {})) & set(traced["change"].get(workload, {}))):
            p, c = (traced[side][workload][seed]["measured"] for side in ("parent", "change"))
            entry["traced"][seed] = {
                name: {"unit": p[name]["unit"], "parent": p[name]["value"], "change": c[name]["value"]}
                for name in sorted(set(p) & set(c))
            }
        workloads[workload] = entry
    return {
        "command": " ".join(spec["command"]),
        "run_seconds": spec["run_seconds"],
        "env": {"parent": _envs(parent), "change": _envs(change)},
        "workloads": workloads,
    }


def _env_values(envs) -> dict:
    """{key: the distinct values one side's environment lines hold for it, joined by '/'}"""
    return {key: "/".join(sorted({str(e.get(key, "-")) for e in envs})) for key in {k for e in envs for k in e}}


def env_lines(env: dict) -> list:
    """The change in ``src/`` non-blank lines, and a warning if the sides'
    environment lines differ in anything else (cores, BLAS, its threads, numpy ...)."""
    parent, change = (_env_values(env[side]) for side in ("parent", "change"))
    lines = []
    p, c = parent.get("src_nonblank_lines", ""), change.get("src_nonblank_lines", "")
    if p.isdigit() and c.isdigit():
        lines.append(f"src/ non-blank lines: parent {p} -> change {c} ({int(c) - int(p):+d})")
    differing = [
        f"{key} (parent {parent.get(key, '-')}, change {change.get(key, '-')})"
        for key in sorted((parent.keys() | change.keys()) - {"src_nonblank_lines"})
        if parent.get(key) != change.get(key)
    ]
    if differing:
        lines.append("WARNING: the environments differ in " + "; ".join(differing))
    return lines


def summary_lines(folded: dict) -> list:
    """The sides' ``env_lines``, the verdict line of each workload and
    end-to-end metric, and a warning for each digest that differed in some pair."""
    lines = env_lines(folded["env"])
    for workload, entry in folded["workloads"].items():
        for name, m in entry["metrics"].items():
            lines.append(
                f"{workload} {name}: parent {m['parent']['median']:.4g} -> change"
                f" {m['change']['median']:.4g} {m['unit']}, change won {m['change_won']}/{m['pairs']},"
                f" {m['verdict']}"
            )
        pairs = len(entry["seeds"])
        for digest, equal in entry["records_equal_pairs"].items():
            if equal != pairs:
                lines.append(f"WARNING: {workload} {digest} equal in {equal} of {pairs} pairs")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    folded = fold(argv[0], argv[1], spec)
    Path(argv[2]).write_text(json.dumps(folded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("\n".join(summary_lines(folded)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
