import hashlib
import json
import re
import shutil
from pathlib import Path

import pytest

from clipforge import cli, errors
from clipforge.data import (
    MANIFEST_NAME,
    PIXEL_FILE,
    SPLIT_NAME,
    Vocabulary,
    load_dataset,
    load_split,
    save_split,
)
from clipforge.evaluation import METRIC_NAMES, read_report_jsonl


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds"
    code = cli.main(
        ["datagen", "--output", str(out), "--images", "80", "--languages", "2",
         "--seed", "5", "--image-size", "16"]
    )
    assert code == 0
    return out


def train_args(dataset_dir, out, *extra):
    return [
        "train", "--dataset", str(dataset_dir), "--output", str(out),
        "--preset", "b-b", "--batch-size", "16", "--epochs", "2",
        "--warmup-steps", "3", "--lr", "1e-3", *extra,
    ]


@pytest.fixture(scope="module")
def run_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    assert cli.main(train_args(dataset_dir, out)) == 0
    assert cli.main(
        ["eval", "--checkpoint", str(out / "best.nclp"), "--dataset", str(dataset_dir),
         "--output", str(out)]
    ) == 0
    return out


# ---------------------------------------------------------------------------
# datagen
# ---------------------------------------------------------------------------

def test_datagen_reports_filter_counts(tmp_path, capsys):
    code, out, _ = run(
        capsys, "datagen", "--output", str(tmp_path / "d"), "--images", "50",
        "--languages", "1", "--seed", "0", "--image-size", "16",
    )
    assert code == 0
    assert "kept" in out and "dropped" in out and "4.5" in out
    assert (tmp_path / "d" / "manifest.tsv").exists()
    assert (tmp_path / "d" / "splits.tsv").exists()
    assert (tmp_path / "d" / "datagen.effective").exists()


def test_datagen_deterministic_across_directories(tmp_path, capsys):
    args = ["--images", "40", "--languages", "2", "--seed", "9", "--image-size", "16"]
    assert run(capsys, "datagen", "--output", str(tmp_path / "a"), *args)[0] == 0
    assert run(capsys, "datagen", "--output", str(tmp_path / "b"), *args)[0] == 0
    digest = lambda p: hashlib.sha256((p / "manifest.tsv").read_bytes()).hexdigest()
    assert digest(tmp_path / "a") == digest(tmp_path / "b")
    assert (tmp_path / "a" / "splits.tsv").read_bytes() == (tmp_path / "b" / "splits.tsv").read_bytes()


def test_datagen_refuses_existing_output(tmp_path, capsys):
    target = str(tmp_path / "d")
    args = ["--images", "10", "--languages", "1", "--image-size", "16"]
    assert run(capsys, "datagen", "--output", target, *args)[0] == 0
    code, _, err = run(capsys, "datagen", "--output", target, *args)
    assert code == 1
    assert err.startswith("E_CONFIG: ")
    assert run(capsys, "datagen", "--output", target, *args, "--force")[0] == 0


@pytest.mark.parametrize("bad", [("--languages", "0"), ("--val-fraction", "1.5")], ids=["languages", "val-fraction"])
def test_a_refused_datagen_force_keeps_the_old_dataset(dataset_dir, tmp_path, capsys, bad):
    data = shutil.copytree(dataset_dir, tmp_path / "ds")
    before = tree_digest(data)
    code, _, err = run(capsys, "datagen", "--output", str(data), "--images", "10", *bad, "--force")
    assert code == 1 and err.startswith("E_CONFIG: ") and len(err.splitlines()) == 1
    assert tree_digest(data) == before


def test_datagen_to_an_output_under_a_regular_file_is_refused_in_one_line(tmp_path, capsys):
    (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
    out = (tmp_path / "file" / "ds").resolve()
    code, _, err = run(capsys, "datagen", "--output", str(out), "--images", "10", "--languages", "1")
    assert code == 1 and err == f"E_CONFIG: {out}: Not a directory\n"


def test_datagen_val_fraction_rounding(tmp_path, capsys):
    code, out, _ = run(
        capsys, "datagen", "--output", str(tmp_path / "d"), "--images", "300",
        "--languages", "1", "--seed", "2", "--image-size", "16", "--val-fraction", "0.15",
    )
    assert code == 0
    train_ids, val_ids = load_split(tmp_path / "d")
    kept = len(train_ids) + len(val_ids)
    assert len(val_ids) == int(round(0.15 * kept))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_logs_and_writes_config(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, *train_args(dataset_dir, out))
    assert code == 0
    assert "epoch 2/2" in stdout and "best val loss" in stdout
    effective = (out / "config.effective").read_text(encoding="utf-8")
    assert "lr=0.001" in effective
    assert "preset=b-b" in effective


def test_train_precedence_file_env_flag(dataset_dir, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(
        f"dataset_dir={dataset_dir}\npreset=b-b\nbatch_size=16\nepochs=1\n"
        "warmup_steps=2\nlr=0.001\n",
        encoding="utf-8",
    )
    code, _, _ = run(
        capsys, "train", "--config", str(cfg), "--output", str(tmp_path / "file")
    )
    assert code == 0
    assert "lr=0.001" in (tmp_path / "file" / "config.effective").read_text()

    monkeypatch.setenv("CLIPFORGE_LR", "0.002")
    code, _, _ = run(capsys, "train", "--config", str(cfg), "--output", str(tmp_path / "env"))
    assert code == 0
    assert "lr=0.002" in (tmp_path / "env" / "config.effective").read_text()

    code, _, _ = run(
        capsys, "train", "--config", str(cfg), "--output", str(tmp_path / "flag"),
        "--lr", "0.003",
    )
    assert code == 0
    assert "lr=0.003" in (tmp_path / "flag" / "config.effective").read_text()


def test_train_bad_flag_value(dataset_dir, tmp_path, capsys):
    code, _, err = run(
        capsys, *train_args(dataset_dir, tmp_path / "x"), "--batch-size", "many"
    )
    assert code == 1 and err.startswith("E_CONFIG: ")


def test_train_missing_dataset(tmp_path, capsys):
    code, _, err = run(
        capsys, "train", "--dataset", str(tmp_path / "absent"), "--output", str(tmp_path / "o")
    )
    assert code == 1 and err.startswith("E_DATASET_FORMAT: ")


def test_train_force_restarts(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert run(capsys, *train_args(dataset_dir, out))[0] == 0
    code, _, err = run(capsys, *train_args(dataset_dir, out), "--lr", "2e-3")
    assert code == 1 and err.startswith("E_CONFIG: ")
    assert run(capsys, *train_args(dataset_dir, out), "--lr", "2e-3", "--force")[0] == 0


@pytest.mark.parametrize("inside", ["dataset", "init-from"])
def test_train_force_refuses_to_delete_its_own_inputs(dataset_dir, tmp_path, capsys, inside):
    out = tmp_path / "run"
    if inside == "dataset":
        data = shutil.copytree(dataset_dir, out / "ds")
        argv = train_args(data, out, "--force")
    else:
        assert run(capsys, *train_args(dataset_dir, out, "--epochs", "1"))[0] == 0
        data = out / "best.nclp"
        argv = train_args(dataset_dir, out, "--init-from", str(data), "--force")
    before = tree_digest(out)
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("E_CONFIG: ") and len(err.splitlines()) == 1
    assert str(data) in err and "--force" in err
    assert tree_digest(out) == before


def test_a_refused_train_force_keeps_the_old_run(dataset_dir, run_dir, tmp_path, capsys):
    copy = shutil.copytree(run_dir, tmp_path / "run")
    before = tree_digest(copy)
    code, _, err = run(capsys, *train_args(dataset_dir, copy, "--languages", "typo_Latn", "--force"))
    assert code == 1 and err.startswith("E_CONFIG: ") and len(err.splitlines()) == 1
    assert "typo_Latn" in err
    assert tree_digest(copy) == before


def test_commands_do_not_mutate_dataset(dataset_dir, run_dir):
    # run_dir already trained + evaluated against dataset_dir
    before = tree_digest(dataset_dir)
    assert cli.main(
        ["eval", "--checkpoint", str(run_dir / "last.nclp"), "--dataset", str(dataset_dir),
         "--output", str(run_dir)]
    ) == 0
    assert tree_digest(dataset_dir) == before


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_outputs(run_dir, capsys):
    lines = (run_dir / "report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "language," + ",".join(METRIC_NAMES)
    assert lines[-1].startswith("average,")
    report = read_report_jsonl(run_dir / "report.jsonl")
    assert set(report.rows) == {"eng_Latn", "aab_Ciph"}
    assert report.metadata["dataset_id"]
    assert report.metadata["run_id"]


def test_eval_registers_report_in_run_record(run_dir):
    lines = [json.loads(l) for l in (run_dir / "run_record.jsonl").read_text().splitlines()]
    assert any(l.get("record") == "report" for l in lines)


def test_eval_has_no_k_option(run_dir, dataset_dir, tmp_path, capsys):
    # the metric columns fix the cutoffs at 1, 5 and 10
    code, _, err = run(
        capsys, "eval", "--checkpoint", str(run_dir / "best.nclp"), "--dataset",
        str(dataset_dir), "--output", str(tmp_path / "e"), "--k", "1,5,10",
    )
    assert code == 1 and err.startswith("E_CONFIG: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "e").exists()


def test_eval_vocab_mismatch(run_dir, tmp_path, capsys):
    other = tmp_path / "other"
    assert run(capsys, "datagen", "--output", str(other), "--images", "40",
               "--languages", "3", "--seed", "5", "--image-size", "16")[0] == 0
    code, _, err = run(
        capsys, "eval", "--checkpoint", str(run_dir / "best.nclp"),
        "--dataset", str(other), "--output", str(tmp_path / "o"),
    )
    assert code == 1 and err.startswith("E_EVAL: ")
    assert "vocabulary" in err


def renamed_word_copy(dataset_dir, out, word, new):
    """Copy of a dataset with every caption ``word`` renamed: a vocabulary of
    the same size whose token ids differ."""
    shutil.copytree(dataset_dir, out)
    manifest = out / MANIFEST_NAME
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(re.sub(rf"\b{word}\b", new, text), encoding="utf-8")
    before, after = (Vocabulary.for_dataset(load_dataset(d)) for d in (dataset_dir, out))
    assert before.size == after.size and before.ordered_tokens() != after.ordered_tokens()
    return out


def test_same_size_vocabulary_with_other_tokens_refused(run_dir, dataset_dir, tmp_path, capsys):
    other = renamed_word_copy(dataset_dir, tmp_path / "renamed", "blue", "azure")
    code, _, err = run(
        capsys, "eval", "--checkpoint", str(run_dir / "best.nclp"),
        "--dataset", str(other), "--output", str(tmp_path / "o"),
    )
    assert code == 1 and err.startswith("E_EVAL: ") and "vocabulary" in err
    code, _, err = run(
        capsys, *train_args(other, tmp_path / "s2", "--init-from", str(run_dir / "last.nclp"))
    )
    assert code == 1 and err.startswith("E_CONFIG: ") and "vocabulary" in err
    assert len(err.splitlines()) == 1


def test_languages_comma_means_every_language_in_train_and_eval(run_dir, dataset_dir, tmp_path, capsys):
    assert run(capsys, *train_args(dataset_dir, tmp_path / "run", "--languages", ","))[0] == 0
    assert (tmp_path / "run" / "last.nclp").read_bytes() == (run_dir / "last.nclp").read_bytes()
    for name, extra in (("all", ()), ("comma", ("--languages", ","))):
        argv = ["eval", "--checkpoint", str(run_dir / "best.nclp"), "--dataset", str(dataset_dir),
                "--output", str(tmp_path / name), *extra]
        assert run(capsys, *argv)[0] == 0
    report = tmp_path / "comma" / "report.jsonl"
    assert list(read_report_jsonl(report).rows) == ["eng_Latn", "aab_Ciph"]
    assert report.read_bytes() == (tmp_path / "all" / "report.jsonl").read_bytes()


@pytest.mark.parametrize("case, code", [
    ("missing dataset", "E_DATASET_FORMAT"), ("unknown language", "E_CONFIG"), ("foreign vocabulary", "E_CONFIG"),
])
def test_a_refused_train_leaves_no_output_directory(run_dir, dataset_dir, tmp_path, capsys, case, code):
    out = tmp_path / "run"
    if case == "missing dataset":
        argv = train_args(tmp_path / "absent", out)
    elif case == "unknown language":
        argv = train_args(dataset_dir, out, "--languages", "eng_Latn,typo_Latn")
    else:
        other = renamed_word_copy(dataset_dir, tmp_path / "renamed", "blue", "azure")
        argv = train_args(other, out, "--init-from", str(run_dir / "last.nclp"))
    status, _, err = run(capsys, *argv)
    assert status == 1 and err.startswith(f"{code}: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_eval_split_all_covers_every_record(run_dir, dataset_dir, tmp_path, capsys):
    code, out, _ = run(
        capsys, "eval", "--checkpoint", str(run_dir / "best.nclp"),
        "--dataset", str(dataset_dir), "--output", str(tmp_path / "a"), "--split", "all",
    )
    records = load_dataset(dataset_dir).records
    assert code == 0 and len(records) > len(load_split(dataset_dir)[1])
    assert f"evaluated {len(records)} images" in out
    assert read_report_jsonl(tmp_path / "a" / "report.jsonl").metadata["split"] == "all"


def test_eval_baseline_recompute_prints(run_dir, dataset_dir, tmp_path, capsys):
    code, out, _ = run(
        capsys, "eval", "--checkpoint", str(run_dir / "best.nclp"),
        "--dataset", str(dataset_dir), "--output", str(tmp_path / "e"),
        "--baseline", "crossmodal3600:nllb-clip-large",
    )
    assert code == 0
    assert "mean r_at_1 = 42.96" in out
    assert "counterpart for: aab_Ciph" in out


def test_eval_baseline_compares_english_per_language(run_dir, dataset_dir, tmp_path, capsys):
    # datagen names English by its FLORES-200 code, the table by its ISO code
    code, out, _ = run(
        capsys, "eval", "--checkpoint", str(run_dir / "best.nclp"),
        "--dataset", str(dataset_dir), "--output", str(tmp_path / "e"),
        "--baseline", "xtd10:nllb-clip-base",
    )
    assert code == 0
    assert "counterpart for: aab_Ciph" in out
    rows = (tmp_path / "e" / "deltas_xtd10_nllb-clip-base.csv").read_text(encoding="utf-8").splitlines()
    assert [r.split(",")[0] for r in rows] == ["language", "eng_Latn", "average"]
    report = read_report_jsonl(tmp_path / "e" / "report.jsonl")
    assert float(rows[1].split(",")[1]) == pytest.approx(report.rows["eng_Latn"].r_at_1 - 47.2)


def test_eval_baseline_leaves_the_report_as_it_is(run_dir, dataset_dir, tmp_path, capsys):
    # the table decides only the deltas file, not the rows or their identity
    base = ["eval", "--checkpoint", str(run_dir / "best.nclp"), "--dataset", str(dataset_dir)]
    assert run(capsys, *base, "--output", str(tmp_path / "plain"))[0] == 0
    assert run(capsys, *base, "--output", str(tmp_path / "cmp"),
               "--baseline", "xtd10:nllb-clip-base")[0] == 0
    for name in ("report.jsonl", "report.csv"):
        assert (tmp_path / "cmp" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    effective = (tmp_path / "cmp" / "eval.effective").read_text(encoding="utf-8")
    assert "baseline=xtd10:nllb-clip-base\n" in effective


def test_eval_baseline_errors(run_dir, dataset_dir, tmp_path, capsys):
    # refused before the eval runs: no output directory, report, or record line
    trained = shutil.copytree(run_dir, tmp_path / "run")
    before = tree_digest(trained)
    base = ["eval", "--checkpoint", str(run_dir / "best.nclp"), "--dataset", str(dataset_dir)]
    for spec, kind in (("justonepart", "E_CONFIG"), ("nope:x", "E_COMPARISON")):
        for out in (tmp_path / "e", trained):
            code, stdout, err = run(capsys, *base, "--output", str(out), "--baseline", spec)
            assert code == 1 and err.startswith(f"{kind}: ") and len(err.splitlines()) == 1
            assert "evaluated" not in stdout
    assert not (tmp_path / "e").exists()
    assert tree_digest(trained) == before


def test_eval_refuses_a_language_the_dataset_lacks(run_dir, dataset_dir, tmp_path, capsys):
    out = tmp_path / "e"
    code, stdout, err = run(
        capsys, "eval", "--checkpoint", str(run_dir / "best.nclp"), "--dataset",
        str(dataset_dir), "--output", str(out), "--languages", "eng_Latn,typo_Latn",
    )
    assert code == 1 and err.startswith("E_EVAL: ") and len(err.splitlines()) == 1
    assert "typo_Latn" in err and "average" not in stdout
    assert not (out / "report.csv").exists()


def test_eval_refuses_a_repeated_language(run_dir, dataset_dir, tmp_path, capsys):
    out = tmp_path / "e"
    code, _, err = run(
        capsys, "eval", "--checkpoint", str(run_dir / "best.nclp"), "--dataset",
        str(dataset_dir), "--output", str(out), "--languages", "eng_Latn,eng_Latn",
    )
    assert code == 1 and err.startswith("E_EVAL: ") and len(err.splitlines()) == 1
    assert "more than once: ['eng_Latn']" in err
    assert not out.exists()


def test_eval_caption_mode_flag_is_refused(run_dir, dataset_dir, tmp_path, capsys):
    code, _, err = run(
        capsys, "eval", "--checkpoint", str(run_dir / "best.nclp"), "--dataset",
        str(dataset_dir), "--output", str(tmp_path / "e"), "--caption-mode", "first_caption",
    )
    assert code == 1 and err.startswith("E_CONFIG: ") and len(err.splitlines()) == 1
    assert "--caption-mode" in err


def test_eval_of_records_of_another_image_size_is_refused(run_dir, dataset_dir, tmp_path, capsys):
    data = shutil.copytree(dataset_dir, tmp_path / "ds")
    (data / PIXEL_FILE).write_bytes(bytes(len(load_dataset(data)) * 8 * 8 * 3))  # every image 8x8
    out = tmp_path / "e"
    status, _, err = run(
        capsys, "eval", "--checkpoint", str(run_dir / "best.nclp"), "--dataset", str(data),
        "--output", str(out), "--split", "val",
    )
    assert status == 1 and len(err.splitlines()) == 1
    assert err.strip() == "E_DIMENSION: encode_image: expected 16x16 images, got 8x8"
    assert not out.exists()  # eval refused before writing any output


def test_eval_identity_covers_the_split_file(run_dir, dataset_dir, tmp_path, capsys):
    # one manifest, two split files: the val records differ, so do the identities
    other = shutil.copytree(dataset_dir, tmp_path / "resplit")
    train_ids, val_ids = load_split(other)
    save_split(other, train_ids + val_ids[:3], val_ids[3:])
    runs = []
    for data in (dataset_dir, other):
        out = shutil.copytree(run_dir, tmp_path / f"run-{data.name}")
        assert run(capsys, "eval", "--checkpoint", str(out / "best.nclp"), "--dataset",
                   str(data), "--output", str(out), "--split", "val")[0] == 0
        runs.append(read_report_jsonl(out / "report.jsonl").metadata)
    assert runs[0]["dataset_id"] == runs[1]["dataset_id"]
    assert runs[0]["split_digest"] != runs[1]["split_digest"]
    assert runs[0]["config_hash"] != runs[1]["config_hash"]
    argv = ["report", "--runs", str(tmp_path / f"run-{dataset_dir.name}"),
            str(tmp_path / "run-resplit"), "--output", str(tmp_path / "r")]
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("E_CONFIG: ") and "--allow-mixed" in err
    assert run(capsys, *argv, "--allow-mixed")[0] == 0
    # split "all" reads no split file
    out = tmp_path / "all"
    assert run(capsys, "eval", "--checkpoint", str(run_dir / "best.nclp"), "--dataset",
               str(other), "--output", str(out), "--split", "all")[0] == 0
    assert "split_digest" not in read_report_jsonl(out / "report.jsonl").metadata


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def second_run_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run2"
    assert cli.main(train_args(dataset_dir, out, "--regime", "text-encoder")) == 0
    assert cli.main(
        ["eval", "--checkpoint", str(out / "best.nclp"), "--dataset", str(dataset_dir),
         "--output", str(out)]
    ) == 0
    return out


def test_report_requires_two_runs(run_dir, tmp_path, capsys):
    code, _, err = run(
        capsys, "report", "--runs", str(run_dir), "--output", str(tmp_path / "r")
    )
    assert code == 1 and err.startswith("E_CONFIG: ")


def test_report_table_matches_reports_exactly(run_dir, second_run_dir, tmp_path, capsys):
    out = tmp_path / "r"
    code, stdout, _ = run(
        capsys, "report", "--runs", str(run_dir), str(second_run_dir), "--output", str(out)
    )
    assert code == 0
    lines = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[:5] == ["run_id", "regime", "optimizer", "preset", "direction"]
    regimes = {line.split(",")[1] for line in lines[1:]}
    assert regimes == {"full", "text-encoder"}
    for line, run_path in zip(lines[1:], (run_dir, second_run_dir)):
        cells = line.split(",")
        report = read_report_jsonl(run_path / "report.jsonl")
        for name, cell in zip(METRIC_NAMES, cells[5:]):
            assert float(cell) == getattr(report.average, name)


def test_report_rejects_mixed_datasets(run_dir, second_run_dir, tmp_path, capsys):
    other_ds = tmp_path / "ds2"
    assert run(capsys, "datagen", "--output", str(other_ds), "--images", "80",
               "--languages", "2", "--seed", "6", "--image-size", "16")[0] == 0
    third = tmp_path / "run3"
    assert cli.main(train_args(other_ds, third)) == 0
    assert cli.main(
        ["eval", "--checkpoint", str(third / "best.nclp"), "--dataset", str(other_ds),
         "--output", str(third)]
    ) == 0
    code, _, err = run(
        capsys, "report", "--runs", str(run_dir), str(third), "--output", str(tmp_path / "r")
    )
    assert code == 1 and err.startswith("E_CONFIG: ")
    assert run(
        capsys, "report", "--runs", str(run_dir), str(third), "--output",
        str(tmp_path / "r"), "--allow-mixed",
    )[0] == 0


@pytest.mark.parametrize("splits", [("val", "train"), ("all", "val")], ids=["val-train", "all-val"])
def test_report_refuses_other_splits_of_one_dataset(run_dir, dataset_dir, tmp_path, capsys, splits):
    runs = []
    for split_name in splits:
        out = shutil.copytree(run_dir, tmp_path / f"run-{split_name}")
        assert run(capsys, "eval", "--checkpoint", str(out / "best.nclp"), "--dataset",
                   str(dataset_dir), "--output", str(out), "--split", split_name)[0] == 0
        runs.append(str(out))
    argv = ["report", "--runs", *runs, "--output", str(tmp_path / "r")]
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("E_CONFIG: ") and len(err.splitlines()) == 1
    assert "--allow-mixed" in err and not (tmp_path / "r").exists()
    assert run(capsys, *argv, "--allow-mixed")[0] == 0


def test_report_reads_a_moved_run_directory(dataset_dir, run_dir, second_run_dir, tmp_path, capsys):
    original, moved = tmp_path / "run", tmp_path / "moved"
    shutil.copytree(run_dir, original)
    assert run(
        capsys, "eval", "--checkpoint", str(original / "best.nclp"), "--dataset",
        str(dataset_dir), "--output", str(original), "--split", "all",
    )[0] == 0
    shutil.copytree(original, moved)
    shutil.rmtree(original)
    code, _, err = run(
        capsys, "report", "--runs", str(moved), str(second_run_dir), "--output", str(tmp_path / "r"),
        "--allow-mixed",  # split all against split val
    )
    assert code == 0, err
    row = (tmp_path / "r" / "comparison.csv").read_text(encoding="utf-8").splitlines()[1]
    report = read_report_jsonl(moved / "report.jsonl")
    assert report.metadata["split"] == "all"
    assert [float(c) for c in row.split(",")[5:]] == [
        getattr(report.average, name) for name in METRIC_NAMES
    ]


def test_report_compares_a_run_line_that_still_names_a_caption_mode(
    run_dir, second_run_dir, tmp_path, capsys
):
    old = shutil.copytree(run_dir, tmp_path / "old")
    path = old / "report.jsonl"
    head, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    run_line = json.loads(head)
    assert "caption_mode" not in run_line  # eval writes none
    run_line["caption_mode"] = "first_caption"  # as older versions wrote it
    path.write_text(json.dumps(run_line, sort_keys=True) + "\n" + "".join(rest), encoding="utf-8")
    report = read_report_jsonl(path)
    assert report == read_report_jsonl(run_dir / "report.jsonl")
    code, _, err = run(
        capsys, "report", "--runs", str(old), str(second_run_dir), "--output", str(tmp_path / "r")
    )
    assert code == 0, err
    rows = (tmp_path / "r" / "comparison.csv").read_text(encoding="utf-8").splitlines()[1:]
    for row, expected in zip(rows, (report, read_report_jsonl(second_run_dir / "report.jsonl"))):
        assert [float(c) for c in row.split(",")[5:]] == [
            getattr(expected.average, name) for name in METRIC_NAMES
        ]


def test_report_needs_eval_first(dataset_dir, run_dir, tmp_path, capsys):
    bare = tmp_path / "bare"
    assert cli.main(train_args(dataset_dir, bare, "--epochs", "1")) == 0
    code, _, err = run(
        capsys, "report", "--runs", str(run_dir), str(bare), "--output", str(tmp_path / "r")
    )
    assert code == 1 and "eval" in err


def test_corrupt_entry_name_in_a_checkpoint_is_refused(run_dir, dataset_dir, tmp_path, capsys):
    # the checkpoint crc covers payloads only, not entry names
    data = bytearray((run_dir / "best.nclp").read_bytes())
    data[data.index(b"image/block0")] = 0xFF
    bad = tmp_path / "best.nclp"
    bad.write_bytes(bytes(data))
    code, _, err = run(
        capsys, "eval", "--checkpoint", str(bad), "--dataset", str(dataset_dir),
        "--output", str(tmp_path / "e"),
    )
    assert code == 1 and err.startswith("E_CHECKPOINT_INTEGRITY: ")
    assert len(err.splitlines()) == 1


def _refused_in_one_line(capsys, argv, code, path):
    status, _, err = run(capsys, *argv)
    assert status == 1 and err.startswith(f"{code}: ") and len(err.splitlines()) == 1
    assert str(path) in err


def test_eval_of_a_missing_checkpoint_is_refused(dataset_dir, tmp_path, capsys):
    missing = tmp_path / "gone.nclp"
    argv = ["eval", "--checkpoint", str(missing), "--dataset", str(dataset_dir),
            "--output", str(tmp_path / "e")]
    _refused_in_one_line(capsys, argv, "E_CHECKPOINT_INTEGRITY", missing)


def test_eval_to_an_output_under_a_regular_file_is_refused_in_one_line(run_dir, dataset_dir, tmp_path, capsys):
    (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
    out = (tmp_path / "file" / "e").resolve()
    argv = ["eval", "--checkpoint", str(run_dir / "best.nclp"), "--dataset", str(dataset_dir),
            "--output", str(out)]
    _refused_in_one_line(capsys, argv, "E_CONFIG", out)


def test_train_from_a_missing_init_checkpoint_is_refused(dataset_dir, tmp_path, capsys):
    missing = tmp_path / "gone.nclp"
    argv = train_args(dataset_dir, tmp_path / "run", "--init-from", str(missing))
    _refused_in_one_line(capsys, argv, "E_CONFIG", missing)


def test_train_on_a_corpus_missing_a_pixel_file_is_refused(dataset_dir, tmp_path, capsys):
    data = tmp_path / "ds"
    shutil.copytree(dataset_dir, data)
    pixel = data / PIXEL_FILE
    pixel.unlink()
    _refused_in_one_line(capsys, train_args(data, tmp_path / "run"), "E_DATASET_FORMAT", pixel)
    assert not (tmp_path / "run").exists()


def _train_and_eval(run_dir, data, tmp_path):
    return (
        train_args(data, tmp_path / "run"),
        ["eval", "--checkpoint", str(run_dir / "best.nclp"), "--dataset", str(data),
         "--output", str(tmp_path / "e"), "--split", "all"],
    )


def test_a_pixel_file_one_byte_off_is_refused_by_train_and_eval_before_writing(
    run_dir, dataset_dir, tmp_path, capsys
):
    data = shutil.copytree(dataset_dir, tmp_path / "ds")
    pixels = data / PIXEL_FILE
    whole = pixels.read_bytes()
    for damaged in (whole[:-1], whole + b"\0"):  # one byte short, one byte long
        pixels.write_bytes(damaged)
        before = tree_digest(data)
        for argv in _train_and_eval(run_dir, data, tmp_path):
            status, _, err = run(capsys, *argv)
            assert status == 1 and err.startswith("E_DATASET_FORMAT: ") and len(err.splitlines()) == 1
            assert f"pixel file {pixels}: {len(damaged)} bytes do not split into" in err
        assert tree_digest(data) == before
        assert not (tmp_path / "run").exists() and not (tmp_path / "e").exists()


def test_a_dataset_of_the_old_layout_is_refused_by_train_and_eval_in_one_line(
    run_dir, dataset_dir, tmp_path, capsys
):
    # the old layout: a pixels column naming pixels/<id>.rgb, one file per image
    data = shutil.copytree(dataset_dir, tmp_path / "ds")
    records = load_dataset(data).records
    (data / "pixels").mkdir()
    for record in records:
        (data / "pixels" / f"{record.id}.rgb").write_bytes(record.get_pixels().tobytes())
    (data / PIXEL_FILE).unlink()
    rows = [line.split("\t") for line in (data / MANIFEST_NAME).read_text(encoding="utf-8").splitlines()]
    cells = ["pixels"] + [f"pixels/{r.id}.rgb" for r in records]
    (data / MANIFEST_NAME).write_text(
        "".join("\t".join([*row[:2], cell, *row[2:]]) + "\n" for row, cell in zip(rows, cells)), encoding="utf-8"
    )
    before = tree_digest(data)
    for argv in _train_and_eval(run_dir, data, tmp_path):
        status, _, err = run(capsys, *argv)
        assert err == (f"E_DATASET_FORMAT: {data / MANIFEST_NAME}: a dataset of the old layout, one pixel"
                       " file per image under pixels/; run clipforge datagen again\n")
        assert status == 1
    assert tree_digest(data) == before
    assert not (tmp_path / "run").exists() and not (tmp_path / "e").exists()


def test_a_split_naming_an_unknown_record_is_refused_by_eval_and_train(run_dir, dataset_dir, tmp_path, capsys):
    data = shutil.copytree(dataset_dir, tmp_path / "ds")
    with open(data / SPLIT_NAME, "a", encoding="utf-8") as fh:
        fh.write("ghost01\tval\n")
    out = tmp_path / "e"
    for argv in (
        ["eval", "--checkpoint", str(run_dir / "best.nclp"), "--dataset", str(data),
         "--output", str(out), "--split", "val"],
        train_args(data, tmp_path / "run"),
    ):
        status, _, err = run(capsys, *argv)
        assert status == 1 and err.startswith("E_DATASET_FORMAT: ") and len(err.splitlines()) == 1
        assert "1 unknown record ids (first: ghost01)" in err
    assert not out.exists()  # eval refused before writing any output


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", ["{not json", "[1]"], ids=["bad-json", "not-an-object"])
@pytest.mark.parametrize("command", ["train", "eval", "report"])
def test_unparsable_middle_record_line_is_refused(dataset_dir, run_dir, tmp_path, capsys, command, bad):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    path = copy / "run_record.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(lines[0] + bad + "\n" + "".join(lines[1:]), encoding="utf-8")
    argv = {
        "train": train_args(dataset_dir, copy),
        "eval": ["eval", "--checkpoint", str(copy / "best.nclp"), "--dataset",
                 str(dataset_dir), "--output", str(copy)],
        "report": ["report", "--runs", str(run_dir), str(copy), "--output", str(tmp_path / "r")],
    }[command]
    before = tree_digest(copy)
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("E_CONFIG: ") and len(err.splitlines()) == 1
    assert f"{path}:2:" in err and "--force" in err
    assert tree_digest(copy) == before


def test_report_reads_the_report_eval_registered_over_a_torn_record_tail(
    dataset_dir, run_dir, tmp_path, capsys
):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    path = copy / "run_record.jsonl"
    path.write_bytes(path.read_bytes()[:-20])  # tears the last report line
    assert run(
        capsys, "eval", "--checkpoint", str(copy / "best.nclp"), "--dataset",
        str(dataset_dir), "--output", str(copy), "--split", "all",
    )[0] == 0
    entries = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert entries[-1] == {"record": "report", "path": "report.jsonl"}
    code, _, err = run(
        capsys, "report", "--runs", str(copy), str(run_dir), "--output", str(tmp_path / "r"),
        "--allow-mixed",  # split all against split val
    )
    assert code == 0, err
    row = (tmp_path / "r" / "comparison.csv").read_text(encoding="utf-8").splitlines()[1]
    report = read_report_jsonl(copy / "report.jsonl")
    assert report.metadata["split"] == "all"
    assert [float(c) for c in row.split(",")[5:]] == [
        getattr(report.average, name) for name in METRIC_NAMES
    ]


# ---------------------------------------------------------------------------
# damaged text files
# ---------------------------------------------------------------------------

def _bad_byte(path):
    """Start the file's middle line with a byte that is not UTF-8; its line number."""
    lines = path.read_bytes().splitlines(keepends=True)
    middle = len(lines) // 2
    lines[middle] = b"\xff" + lines[middle]
    path.write_bytes(b"".join(lines))
    return middle + 1


def _edit_json_line(path, index, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[index] = edit(json.loads(lines[index]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _array_line(path):
    """Replace the report's first language line with JSON that is not an object; its line number."""
    _edit_json_line(path, 1, lambda entry: "[1]")
    return 2


DAMAGES = {
    "bad-byte": _bad_byte,
    "array-line": _array_line,
    "report-without-path": lambda path: _edit_json_line(
        path, -1, lambda entry: json.dumps({"record": "report"})
    ),
    "run-config-not-object": lambda path: _edit_json_line(
        path, 0, lambda entry: json.dumps({**entry, "config": "full"})
    ),
    "metric-not-number": lambda path: _edit_json_line(
        path, -1, lambda entry: json.dumps({**entry, "r_at_1": "x"})
    ),
}
CODES = {
    "manifest": "E_DATASET_FORMAT", "splits": "E_DATASET_FORMAT", "config": "E_CONFIG",
    "record": "E_CONFIG", "report": "E_EVAL",
}


@pytest.mark.parametrize("name, command, damage", [
    ("manifest", "train", "bad-byte"),
    ("manifest", "eval", "bad-byte"),
    ("splits", "train", "bad-byte"),
    ("splits", "eval", "bad-byte"),
    ("config", "train", "bad-byte"),
    ("record", "train", "bad-byte"),
    ("record", "eval", "bad-byte"),
    ("record", "report", "bad-byte"),
    ("report", "report", "bad-byte"),
    ("report", "report", "array-line"),
    ("record", "report", "report-without-path"),
    ("record", "report", "run-config-not-object"),
    ("report", "report", "metric-not-number"),
])
def test_a_damaged_text_file_is_refused_in_one_line(
    dataset_dir, run_dir, tmp_path, capsys, name, command, damage
):
    data = shutil.copytree(dataset_dir, tmp_path / "ds")
    copy = shutil.copytree(run_dir, tmp_path / "run")
    config = tmp_path / "run.cfg"
    config.write_text("epochs=2\n# any comment\nlr=1e-3\n", encoding="utf-8")
    path = {
        "manifest": data / MANIFEST_NAME, "splits": data / SPLIT_NAME, "config": config,
        "record": copy / "run_record.jsonl", "report": copy / "report.jsonl",
    }[name]
    line = DAMAGES[damage](path)
    argv = {
        "train": train_args(data, copy, "--config", str(config)),
        "eval": ["eval", "--checkpoint", str(copy / "best.nclp"), "--dataset", str(data),
                 "--output", str(copy)],
        "report": ["report", "--runs", str(run_dir), str(copy), "--output", str(tmp_path / "r")],
    }[command]
    before = tree_digest(data), tree_digest(copy), config.read_bytes()
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith(f"{CODES[name]}: ") and len(err.splitlines()) == 1
    assert (f"{path}:{line}:" if line else str(path)) in err
    assert (tree_digest(data), tree_digest(copy), config.read_bytes()) == before
    assert not (tmp_path / "r").exists()  # no comparison.csv


# ---------------------------------------------------------------------------
# shared error surface
# ---------------------------------------------------------------------------

def test_readme_names_exactly_the_error_codes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\bE_[A-Z_]+\b", readme))
    codes = {
        cls.code for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.ClipforgeError)
        and cls is not errors.ClipforgeError
    }
    assert named == codes


def test_unknown_command_is_machine_parsable(capsys):
    code, _, err = run(capsys, "explode")
    assert code == 1
    assert err.splitlines()[0].startswith("E_CONFIG: ")


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, "eval")
    assert code == 1 and err.startswith("E_CONFIG: ")
