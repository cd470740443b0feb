import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fold_bench.py"
spec = importlib.util.spec_from_file_location("fold_bench", TOOL)
fold_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fold_bench)

ENV = {"nproc": 2, "blas": "openblas 0.3.31", "src_nonblank_lines": 100}


def write_result(directory, seed, throughput, rss, failed=0, src_lines=100, digest="d0", steps=True, **env):
    directory.mkdir(parents=True, exist_ok=True)
    measured = {
        "setup_s": {"value": 1.0, "unit": "s"},
        "run_s": {"value": 100.0 / throughput, "unit": "s"},
        "throughput_per_s": {"value": throughput, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    if steps:
        measured["step_ms_p50"] = {"value": 6400.0 / throughput, "unit": "ms"}
    result = {
        "correct": failed == 0,
        "attempted": 4,
        "failed": failed,
        "metrics": measured if failed == 0 else {},
        "env": dict(ENV, src_nonblank_lines=src_lines, **env),
        "records": {"loss_digest": digest},
        "measured": measured,
    }
    (directory / f"result-adapt_frozen_lion8-seed{seed}-trace0.json").write_text(json.dumps(result))


def test_fold_two_sides_of_hand_made_runs(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    for seed, (p_rate, c_rate) in enumerate([(100, 150), (120, 110), (90, 160), (110, 110)], start=1):
        write_result(parent, seed, p_rate, 100.0)
        write_result(change, seed, c_rate, 103.0, src_lines=105, digest="d1" if seed == 2 else "d0")
    write_result(parent, 9, 500, 100.0)  # unpaired: no change run at seed 9
    for side, calls in ((parent, 90), (change, 66)):  # one traced run per side at seed 3
        traced = {"measured": {"tensor.calls.add": {"value": calls, "unit": "count"}}}
        if side is change:
            traced["measured"]["tensor.calls.linear"] = {"value": 10, "unit": "count"}
        (side / "result-adapt_frozen_lion8-seed3-trace1.json").write_text(json.dumps(traced))
    out = tmp_path / "BENCH_0.json"
    assert fold_bench.main([str(parent), str(change), str(out)]) == 0
    bench = json.loads(out.read_text())

    assert bench["env"]["parent"][0]["src_nonblank_lines"] == 100
    assert bench["env"]["change"][0]["src_nonblank_lines"] == 105
    workload = bench["workloads"]["adapt_frozen_lion8"]
    assert workload["seeds"] == [1, 2, 3, 4]
    assert workload["fail_ratio"] == {"parent": 0.0, "change": 0.0}
    rate = workload["metrics"]["throughput_per_s"]
    assert rate["parent"]["values"] == [100, 120, 90, 110]
    assert rate["parent"]["median"] == 105
    assert (rate["parent"]["q1"], rate["parent"]["q3"]) == (97.5, 112.5)
    assert rate["change"]["median"] == 130
    assert rate["pairs"] == 4 and rate["change_won"] == 2  # seed 4 is a tie
    assert rate["median_ratio"] == pytest.approx(130 / 105)
    rss = workload["metrics"]["peak_rss_mb"]
    assert rss["better"] == "lower" and rss["bound"] == 0.1 and rss["change_won"] == 0
    assert set(workload["metrics"]) == {"setup_s", "run_s", "throughput_per_s", "peak_rss_mb"}
    # the step time is reported without a bound; one pair's digests differ
    step = workload["reported"]["step_ms_p50"]
    assert step["parent"]["values"] == [64.0, 6400 / 120, 6400 / 90, 6400 / 110]
    assert step["better"] == "lower" and "bound" not in step and step["change_won"] == 2
    assert workload["records_equal_pairs"] == {"loss_digest": 3}
    # per-layer metrics of the traced runs, where both sides measured them
    assert workload["traced"] == {"3": {"tensor.calls.add": {"unit": "count", "parent": 90, "change": 66}}}


def test_fold_counts_failed_runs_and_refuses_an_empty_side(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    write_result(parent, 1, 100, 100.0)
    write_result(change, 1, 100, 100.0, failed=1, steps=False)
    bench = fold_bench.fold(parent, change, json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text()))
    workload = bench["workloads"]["adapt_frozen_lion8"]
    assert workload["fail_ratio"] == {"parent": 0.0, "change": 0.25}
    assert workload["reported"] == {}  # one side measured no step time
    (tmp_path / "empty").mkdir()
    with pytest.raises(SystemExit):
        fold_bench.read_side(tmp_path / "empty")


def test_equal_pairs_are_counted_per_digest(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    for seed in (1, 2):
        write_result(parent, seed, 100, 100.0)
        write_result(change, seed, 100, 100.0)
    for side, checkpoint in ((parent, "c0"), (change, "c1")):  # the checkpoints differ, the losses agree
        for path in side.iterdir():
            result = json.loads(path.read_text())
            result["records"]["checkpoint_sha256"] = checkpoint
            path.write_text(json.dumps(result))
    bench = fold_bench.fold(parent, change, json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text()))
    assert bench["workloads"]["adapt_frozen_lion8"]["records_equal_pairs"] == {
        "checkpoint_sha256": 0,
        "loss_digest": 2,
    }


PARENT_RATES = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # quartile spread 4.5


@pytest.mark.parametrize(
    "parent_rates, change_rates, expected",
    [
        (PARENT_RATES, [r + 10 for r in PARENT_RATES], "gain"),
        # won 8 of 10: a wide gap alone is no gain
        (PARENT_RATES, [r + 10 for r in PARENT_RATES[:8]] + PARENT_RATES[8:], "within_bound"),
        # won 10 of 10, but the gap of 3 is inside the parent's spread of 4.5
        (PARENT_RATES, [r + 3 for r in PARENT_RATES], "within_bound"),
        (PARENT_RATES, [0.7 * r for r in PARENT_RATES], "regression"),
        # the parent spreads wider than the 0.25 bound: no verdict either way
        ([50, 60, 70, 80, 100, 110, 130, 140, 150, 160], [95] * 10, "unresolved"),
        # ... unless every change run beats every parent run (the gap of 2 is no gain)
        ([50, 50, 50, 100, 100, 100, 100, 100, 100, 101], [102] * 10, "within_bound"),
        (PARENT_RATES, PARENT_RATES, "within_bound"),
    ],
    ids=["gain", "8-of-10", "gap-inside-spread", "regression", "unresolved", "every-run-better", "ties"],
)
def test_each_metric_gets_a_verdict(tmp_path, parent_rates, change_rates, expected):
    parent, change = tmp_path / "p", tmp_path / "c"
    for seed, (p_rate, c_rate) in enumerate(zip(parent_rates, change_rates), start=1):
        write_result(parent, seed, p_rate, 100.0)
        write_result(change, seed, c_rate, 100.0)
    bench = fold_bench.fold(parent, change, json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text()))
    metrics = bench["workloads"]["adapt_frozen_lion8"]["metrics"]
    assert metrics["throughput_per_s"]["verdict"] == expected
    assert metrics["peak_rss_mb"]["verdict"] == "within_bound"  # equal on every run


def test_main_prints_each_verdict_and_warns_of_unequal_digests(tmp_path, capsys):
    parent, change = tmp_path / "p", tmp_path / "c"
    # the parent's rates spread wider than the 0.25 bound; the change's peak RSS is 15% worse
    for seed, (p_rate, c_rate) in enumerate([(40, 150), (100, 90), (160, 160), (100, 110)], start=1):
        write_result(parent, seed, p_rate, 100.0)
        write_result(change, seed, c_rate, 115.0, digest="d1" if seed == 2 else "d0")
    out = tmp_path / "BENCH_0.json"
    assert fold_bench.main([str(parent), str(change), str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "src/ non-blank lines: parent 100 -> change 100 (+0)",
        "adapt_frozen_lion8 setup_s: parent 1 -> change 1 s, change won 0/4, within_bound",
        "adapt_frozen_lion8 run_s: parent 1 -> change 0.7879 s, change won 2/4, unresolved",
        "adapt_frozen_lion8 throughput_per_s: parent 100 -> change 130 1/s, change won 2/4, unresolved",
        "adapt_frozen_lion8 peak_rss_mb: parent 100 -> change 115 MB, change won 0/4, regression",
        "adapt_frozen_lion8 peak_rss_mb modes: 100-100 MB (parent 4, change 0), 115-115 MB (parent 0, change 4)",
        "WARNING: adapt_frozen_lion8 loss_digest equal in 3 of 4 pairs",
    ]
    # the printed summary leaves the JSON file as it was
    spec = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    assert out.read_text() == json.dumps(fold_bench.fold(parent, change, spec), indent=1, sort_keys=True) + "\n"


# the peak RSS of adapt_frozen_lion8 in BENCH_30.json, seeds 30001-30010: two modes on both sides
RSS_PARENT = [65.9453125, 70.07421875, 70.3203125, 69.9609375, 65.98046875, 65.91015625, 70.0390625, 65.93359375,
              65.98828125, 66.109375]
RSS_CHANGE = [65.8203125, 69.91015625, 70.07421875, 69.94140625, 65.9375, 66.03515625, 70.0390625, 69.97265625,
              69.9765625, 70.0546875]


def test_peak_rss_modes_are_recorded_and_printed(tmp_path, capsys):
    parent, change = tmp_path / "p", tmp_path / "c"
    for seed, (p_rss, c_rss) in enumerate(zip(RSS_PARENT, RSS_CHANGE), start=30001):
        write_result(parent, seed, 100, p_rss)
        write_result(change, seed, 100, c_rss)
    out = tmp_path / "BENCH_0.json"
    assert fold_bench.main([str(parent), str(change), str(out)]) == 0
    rss = json.loads(out.read_text())["workloads"]["adapt_frozen_lion8"]["metrics"]["peak_rss_mb"]
    assert rss["modes"] == [
        {"low": 65.8203125, "high": 66.109375, "parent": 6, "change": 3},
        {"low": 69.91015625, "high": 70.3203125, "parent": 4, "change": 7},
    ]
    assert rss["verdict"] == "within_bound"  # the modes change no verdict
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == (
        "adapt_frozen_lion8 peak_rss_mb modes: 65.82-66.11 MB (parent 6, change 3), 69.91-70.32 MB (parent 4, change 7)"
    )
    assert fold_bench.modes({"parent": [1.0, 2.0, 3.6], "change": [2.5]}) == [
        {"low": 1.0, "high": 2.5, "parent": 2, "change": 1},  # no neighbours more than 1 MB apart
        {"low": 3.6, "high": 3.6, "parent": 1, "change": 0},
    ]


@pytest.mark.parametrize("src_lines, expected", [(105, "(+5)"), (97, "(-3)")])
def test_summary_prints_the_change_in_src_lines(tmp_path, capsys, src_lines, expected):
    parent, change = tmp_path / "p", tmp_path / "c"
    write_result(parent, 1, 100, 100.0)
    write_result(change, 1, 100, 100.0, src_lines=src_lines)
    assert fold_bench.main([str(parent), str(change), str(tmp_path / "BENCH_0.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"src/ non-blank lines: parent 100 -> change {src_lines} {expected}"
    assert not any(line.startswith("WARNING") for line in lines)  # src/ lines may differ


@pytest.mark.parametrize(
    "parent_env, change_env, expected",
    [
        ({}, {"nproc": 4}, "WARNING: the environments differ in nproc (parent 2, change 4)"),
        (
            {"blas_threads": 1, "numpy": "2.4.6"},
            {"blas_threads": 2, "numpy": "2.4.6"},
            "WARNING: the environments differ in blas_threads (parent 1, change 2)",
        ),
        ({}, {"blas": "mkl"}, "WARNING: the environments differ in blas (parent openblas 0.3.31, change mkl)"),
        ({"numpy": "2.4.6"}, {}, "WARNING: the environments differ in numpy (parent 2.4.6, change -)"),
    ],
    ids=["nproc", "blas-threads", "blas", "numpy-missing"],
)
def test_summary_warns_when_the_environments_differ(tmp_path, capsys, parent_env, change_env, expected):
    parent, change = tmp_path / "p", tmp_path / "c"
    write_result(parent, 1, 100, 100.0, **parent_env)
    write_result(change, 1, 100, 100.0, src_lines=90, **change_env)
    assert fold_bench.main([str(parent), str(change), str(tmp_path / "BENCH_0.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["src/ non-blank lines: parent 100 -> change 90 (-10)", expected]
