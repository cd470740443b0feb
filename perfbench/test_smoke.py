"""Smoke test of the benchmark at a tiny size (few images, preset b-b, one epoch).

Run from the root of a checkout:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

E2E_COMMON = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "step_ms_tail_pct": "%",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}
E2E_TRAIN = {"train_samples_per_s": "1/s", "val_loss_final": "nats"}
E2E_EVAL = {"eval_queries_per_s": "1/s"}
OPS = (
    "add", "clamp_max", "embedding", "exp", "gelu", "l2_normalize", "layer_norm", "masked_mean", "matmul",
    "mean", "mul", "narrow_rows", "reshape", "scale", "softmax", "softmax_cross_entropy", "sum", "swap_axes",
)
PER_LAYER = {
    **{f"tensor.{kind}.{op}": unit for op in OPS for kind, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("calls", "count"))},
    "tensor.backward_ms": "ms/step",
    "tensor.nodes": "count/step",
    "tensor.grad_bytes": "B/step",
    "tensor.matmul_gflop": "GFLOP",
    "model.encode_image_ms": "ms",
    "model.encode_image_calls": "count",
    "model.encode_image_rows": "count",
    "model.encode_text_ms": "ms",
    "model.encode_text_calls": "count",
    "model.encode_text_rows": "count",
    "model.image_nodes": "count/forward",
    "model.text_nodes": "count/forward",
    "model.checkpoint_write_ms": "ms",
    "model.checkpoint_write_bytes": "B",
    "model.checkpoint_read_ms": "ms",
    "contrastive.loss_ms": "ms",
    "optim.step_ms": "ms",
    "optim.quantize_ms": "ms",
    "optim.state_bytes": "B",
    "optim.params_updated": "count/step",
    "data.pixels_ms": "ms",
    "data.pixel_reads": "count",
    "data.tokenize_ms": "ms",
    "data.tokenize_calls": "count",
    "data.sample_epoch_ms": "ms",
    "evaluation.embed_ms": "ms",
    "evaluation.rank_ms": "ms",
    "evaluation.queries": "count",
    "evaluation.candidates": "count",
    "training.step_self_ms": "ms",
    "training.val_loss_ms": "ms",
    "training.checkpoint_ms": "ms",
    "training.steps": "count",
    "trace.overhead_s": "s",
}


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    command = [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "0.1"]
    command += ["--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def printed_metrics(stdout):
    """name -> unit from the metric table lines ("  <name> <value> <unit>")."""
    table = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            table[parts[0]] = parts[2]
    return table


def check_result_line(stdout, section):
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    check_result_line(proc.stdout, "end_to_end")
    expected = dict(E2E_COMMON, **(E2E_EVAL if workload == "retrieval_eval" else E2E_TRAIN))
    table = printed_metrics(proc.stdout)
    assert {name: table.get(name) for name in expected} == expected
    assert any(line.startswith("env nproc=") and "blas_threads=" in line for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_writes_resolvable_spans(workload):
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    check_result_line(proc.stdout, "per_layer")
    table = printed_metrics(proc.stdout)
    assert {name: table.get(name) for name in PER_LAYER} == PER_LAYER

    spans_path = ROOT / ".perfbench" / f"spans-{workload}-seed3.jsonl"
    spans = [json.loads(line) for line in spans_path.read_text(encoding="utf-8").splitlines()]
    ids = {span["id"] for span in spans}
    assert len(ids) == len(spans)
    assert all(span["parent"] is None or span["parent"] in ids for span in spans)
    by_id = {span["id"]: span for span in spans}
    step_name = "evaluation.query_batch" if workload == "retrieval_eval" else "training.step"
    steps = [span for span in spans if span["name"] == step_name]
    assert steps and all(span["step"] is not None for span in steps)
    for span in spans:
        parent = by_id.get(span["parent"])
        assert parent is None or parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        if span["step"] is not None and span["name"] != step_name:
            assert by_id[span["parent"]]["step"] == span["step"]


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, it exits nonzero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
