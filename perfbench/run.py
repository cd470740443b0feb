#!/usr/bin/env python3
"""clipforge benchmark: pretraining, frozen-tower adaptation and retrieval eval.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pretrain_full --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Workloads (see BENCHMARK.json for the sizes and why each was chosen):

* ``pretrain_full``: stage-1 ``run_training`` of preset l-b, regime full,
  optimizer lion, batch 64, all languages, fresh init; one epoch per call.
* ``adapt_frozen_lion8``: stage-2 ``run_training`` of l-b, regime
  text-encoder, optimizer lion8, 7 non-English languages, ``init_from`` the
  stage-1 fixture checkpoint; three epochs per call.
* ``retrieval_eval``: ``load_checkpoint`` of the fixture, then ``evaluate``
  over split all (every record of the corpus), every language, both
  directions, batch 256.

Each workload runs in a child process of its own, so ``peak_rss_mb``
(``resource.getrusage``) is that workload's alone, with BLAS pinned to one
thread (see ``BLAS_THREADS``).  The child builds its
inputs from ``--seed`` (``setup_s`` is the median of several set-ups), then
repeats the workload's timed call until ``--seconds`` have passed.  A
training workload makes at least two calls, which must agree bit for bit in
final checkpoint sha256 and per-step loss digest; ``retrieval_eval`` makes at
least one, whose ranks are checked against a numpy oracle, and records its
report digest.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a warm-up
call, one untraced and one traced call (``--seconds`` is not used) and prints
the per-layer metrics, writing the spans to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.  A *step* is a training
step, or one language in one direction of ``evaluate``; the step metrics use
the same definition for both.  Every metric is printed with its unit, and
all of them, with the environment, go to
``.perfbench/result-<workload>-seed<seed>-trace<0|1>.json``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics BENCHMARK.json lists, which are those defined on
every workload.  The exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("pretrain_full", "adapt_frozen_lion8", "retrieval_eval")
CHILD_TIMEOUT_S = 170
# Training calls repeat to check determinism.  One evaluation call (20-30 s
# on 2 cores) already outlasts the usual --seconds; a second would nearly
# double the run for no new check, since the oracle covers its ranks.
MIN_CALLS = {"pretrain_full": 2, "adapt_frozen_lion8": 2, "retrieval_eval": 1}
ACCOUNTED_MIN_PCT = 95.0  # pretrain_full: span self times must cover this share of step wall time
TAIL_BEYOND = 10
# One BLAS thread: on 2 cores with OpenBLAS, two threads made an l-b training
# epoch no faster (5.4-6.0 s against 5.3-5.5 s) and evaluate() slower
# (8.2-8.9 s against 7.7-8.1 s), for twice the CPU time, and they left the
# timings exposed to whatever else runs on the second core.
BLAS_THREADS = 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="measure at least this long (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="few images, preset b-b, one epoch (smoke test)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# ---------------------------------------------------------------------------
# parent: one child process per workload
# ---------------------------------------------------------------------------


def _child_command(args, workload):
    command = [sys.executable, str(HERE / "run.py"), "--child", "--workload", workload]
    command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return command + (["--tiny"] if args.tiny else [])


def _run_child(command, env, capture: bool):
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"E_BENCH: {command[4]} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None, 124
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return out, proc.returncode


def parent_main(args) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the finally blocks
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    if args.workload != "all":
        _, code = _run_child(_child_command(args, args.workload), env, capture=False)
        return code
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out, code = _run_child(_child_command(args, workload), env, capture=True)
        lines = (out or "").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if code not in (0, 1) or not lines:
            return code or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


# ---------------------------------------------------------------------------
# child: one workload
# ---------------------------------------------------------------------------


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    return (ordered[(n - 1) // 2] + ordered[n // 2]) / 2.0


def tail(values):
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile, n)."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / n, n


def environment(src: Path) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        1 for path in sorted(src.rglob("*.py")) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_nonblank_lines": src_lines,
    }


def end_to_end(workload, setup_times, units, failed, attempted):
    import resource

    steps = [ms for unit in units for ms in unit.steps_ms]
    tail_ms, tail_pct, n_steps = tail(steps)
    run_s = median([u.seconds for u in units])
    rate = median([u.items / u.seconds for u in units])
    m = {
        "setup_s": (median(setup_times), "s"),
        "run_s": (run_s, "s"),
        "step_ms_p50": (median(steps), "ms"),
        "step_ms_tail": (tail_ms, "ms"),
        "step_ms_tail_pct": (tail_pct, "%"),
        "step_count": (n_steps, "count"),
        "throughput_per_s": (rate, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_ratio": (failed / attempted if attempted else 1.0, "ratio"),
        "calls": (len(units), "count"),
    }
    if workload == "retrieval_eval":
        m["eval_queries_per_s"] = (rate, "1/s")
    else:
        m["train_samples_per_s"] = (rate, "1/s")
        m["val_loss_final"] = (units[-1].val_loss, "nats")
    return m


def _print_metrics(title, metrics):
    print(f"{title}:")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<34} {value:>16.6g} {unit}")


def _write_spans(path: Path, inst, step_of):
    from instrument import END, NAME, PARENT, START

    origin = min(span[START] for span in inst.spans)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, span in enumerate(inst.spans):
            record = {
                "id": sid,
                "name": span[NAME],
                "start": span[START] - origin,
                "end": span[END] - origin,
                "parent": span[PARENT] if span[PARENT] >= 0 else None,
                "step": step_of[sid] if step_of[sid] >= 0 else None,
            }
            fh.write(json.dumps(record) + "\n")


def _select(spec_metrics, measured):
    """The metrics BENCHMARK.json lists, in its units; a mismatch is an error."""
    selected = {}
    for entry in spec_metrics:
        name = entry["name"]
        if name not in measured:
            raise RuntimeError(f"BENCHMARK.json lists {name!r} but the benchmark did not measure it")
        value, unit = measured[name]
        if unit != entry["unit"]:
            raise RuntimeError(f"metric {name!r}: unit {unit!r} differs from BENCHMARK.json {entry['unit']!r}")
        selected[name] = {"value": value, "unit": unit}
    return selected


def child_main(args) -> int:
    import shutil
    import time
    import traceback

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from clipforge import tensor
    except ImportError as exc:
        raise SystemExit(f"E_BENCH: cannot import clipforge from {src}: {exc}") from None

    if Path(tensor.__file__).resolve().parent != (src / "clipforge").resolve():
        raise SystemExit(f"E_BENCH: clipforge imported from {tensor.__file__}, not from {src}")

    import instrument
    import workloads as W

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    size = W.TINY if args.tiny else W.FULL
    env = environment(src)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    checks = W.Checks()
    errors = 0
    units = []
    try:
        setup_times, inputs = [], None
        for i in range(size.setups):
            start = time.perf_counter()
            made = W.make_inputs(work / f"setup{i}", args.seed, size)
            setup_times.append(time.perf_counter() - start)
            if inputs is None:
                inputs = made
            else:
                checks.check(made.manifest_sha256 == inputs.manifest_sha256, "set-up is not deterministic")
                shutil.rmtree(work / f"setup{i}")
        print(
            f"inputs seed={args.seed} images={size.images} kept={inputs.kept} languages={len(inputs.languages)}"
            f" preset={size.preset} batch={size.batch} setups={size.setups}",
            flush=True,
        )

        # warm-up, untraced, traced: the first call in a process runs slower, so
        # the overhead compares two warm calls
        plan = [False, False, True] if args.trace else None
        start = time.perf_counter()
        while True:
            tracing = plan[len(units)] if plan else False
            try:
                units.append(W.run_unit(args.workload, inputs, work, tracing, checks))
            except Exception:  # a failed call is counted, reported, and ends the run
                traceback.print_exc()
                errors += 1
                break
            done = time.perf_counter() - start
            if plan and len(units) == len(plan):
                break
            if not plan and len(units) >= MIN_CALLS[args.workload] and done >= args.seconds:
                break

        for unit in units[1:]:
            for key, value in unit.records.items():
                checks.check(value == units[0].records[key], f"{key} differs between calls at one seed")
        for key, value in (units[0].records.items() if units else ()):
            print(f"record {key}={value}")
        print("call seconds " + " ".join(f"{u.seconds:.3f}{'(traced)' if u.inst.tracing else ''}" for u in units))

        measured = {}
        if args.trace and len(units) == len(plan):
            plain, traced = units[-2:]
            measured, step_of = instrument.layer_metrics(traced.inst, tensor)
            measured["trace.overhead_s"] = (traced.seconds - plain.seconds, "s")
            measured["trace.overhead_pct"] = (100.0 * (traced.seconds / plain.seconds - 1.0), "%")
            if args.workload == "pretrain_full":
                accounted = measured["trace.step_accounted_pct"][0]
                checks.check(
                    accounted >= ACCOUNTED_MIN_PCT,
                    f"span self times cover {accounted:.1f}% of step wall time, below {ACCOUNTED_MIN_PCT}%",
                )
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            _write_spans(spans_path, traced.inst, step_of)
            print(f"spans written to {spans_path.relative_to(ROOT)} ({len(traced.inst.spans)} spans)")
        attempted = checks.attempted + len(units) + errors
        failed = len(checks.failures) + errors
        if units and not args.trace:
            measured = end_to_end(args.workload, setup_times, units, failed, attempted)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in checks.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    _print_metrics(f"{args.workload} {'per-layer' if args.trace else 'end-to-end'} metrics", measured)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": _select(wanted, measured) if failed == 0 else {},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            dict(
                result,
                env=env,
                records=units[0].records if units else {},
                failures=checks.failures,
                measured={k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
            ),
            indent=1,
        )
    )
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return child_main(args) if args.child else parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
