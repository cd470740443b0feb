"""Command line entry points: datagen, train, eval, report.

Configuration precedence for train: built-in defaults, then the --config
key=value file, then CLIPFORGE_* environment variables, then explicit flags.
The effective configuration is always written into the output directory, and
every error path exits nonzero with a single machine-parsable E_* prefix line
on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import shutil
import sys
from pathlib import Path

from . import evaluation as E
from . import model as M
from .data import (
    SPLIT_NAME,
    Dataset,
    Vocabulary,
    aesthetic_filter,
    file_sha256,
    generate_synthetic_corpus,
    load_dataset,
    manifest_digest,
    save_dataset,
    save_split,
    split,
    split_records,
)
from .errors import ClipforgeError, ConfigError
from .training import (
    RECORD_FILE,
    RunConfig,
    coerce_field,
    key_value_lines,
    read_config_file,
    read_record,
    run_training,
    write_record,
)

ENV_PREFIX = "CLIPFORGE_"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the package error path."""

    def error(self, message):
        raise ConfigError(message)


def _fresh_output_dir(out: Path, force: bool, command: str) -> None:
    if out.exists() and any(out.iterdir()):
        if not force:
            raise ConfigError(
                f"{command}: output dir {out} already exists; pass --force to overwrite"
            )
        shutil.rmtree(out)
    out.mkdir(parents=True, exist_ok=True)


# ---------------------------------------------------------------------------
# datagen
# ---------------------------------------------------------------------------

def cmd_datagen(args) -> int:
    out = Path(args.output).resolve()
    dataset = generate_synthetic_corpus(
        args.images, args.languages, image_size=args.image_size, seed=args.seed
    )
    kept = aesthetic_filter(dataset.records, threshold=args.threshold)
    train_records, val_records = split(kept, args.val_fraction, seed=args.seed)
    _fresh_output_dir(out, args.force, "datagen")  # only now: a refused request keeps the old dataset
    save_dataset(dataset, out)
    save_split(out, [r.id for r in train_records], [r.id for r in val_records])
    names = ("images", "languages", "seed", "image_size", "val_fraction", "threshold")
    M.write_lines(out / "datagen.effective", key_value_lines({n: getattr(args, n) for n in names}))
    dropped = len(dataset.records) - len(kept)
    print(f"generated {len(dataset.records)} images in {len(dataset.languages)} languages")
    print(f"kept {len(kept)}, dropped {dropped} at aesthetic threshold {args.threshold}")
    print(f"split: {len(train_records)} train / {len(val_records)} validation")
    print(f"dataset written to {out}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _merged_run_config(args) -> RunConfig:
    values = {}
    if args.config:
        values.update(read_config_file(args.config))
    for field in dataclasses.fields(RunConfig):  # a flag overrides the environment
        env_name = ENV_PREFIX + field.name.upper()
        if env_name in os.environ:
            values[field.name] = coerce_field(field.name, os.environ[env_name])
        flag = getattr(args, field.name, None)
        if flag is not None:
            values[field.name] = coerce_field(field.name, flag)
    return RunConfig(**values)


def cmd_train(args) -> int:
    config = _merged_run_config(args)
    result = run_training(config, log=print, force=args.force)
    print(
        f"run {result.run_id} finished after {result.total_steps} steps;"
        f" best val loss {result.best_val_loss:.4f}"
    )
    print(f"checkpoints: {result.last_checkpoint} (last), {result.best_checkpoint} (best)")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _select_records(dataset, dataset_dir, which: str):
    if which == "all":
        return dataset.records
    wanted = {r.id for r in split_records(dataset, dataset_dir)[which == "val"]}
    return [r for r in dataset.records if r.id in wanted]  # in manifest order


def cmd_eval(args) -> int:
    model = M.load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.dataset)
    vocab = Vocabulary.for_dataset(dataset)
    records = _select_records(dataset, args.dataset, args.split)
    subset = Dataset(records=records, languages=list(dataset.languages))
    languages = coerce_field("languages", args.languages) or None  # as train parses it

    out = Path(args.output).resolve()
    record = read_record(out)  # refused here, before any output is written
    table = _baseline_table(args.baseline) if args.baseline else None  # refused here too
    effective = {
        "checkpoint": str(Path(args.checkpoint).resolve()),
        "dataset": str(Path(args.dataset).resolve()),
        "split": args.split,
        "direction": args.direction,
        "languages": ",".join(languages or []),
    }
    dataset_id = manifest_digest(args.dataset)
    split_digest = {}  # a split file decides which records a split holds; "all" reads none
    if args.split != "all":
        split_digest["split_digest"] = file_sha256(Path(args.dataset) / SPLIT_NAME)
    # hash content digests instead of paths so identical runs in different
    # directories produce byte-identical reports; only settings that decide the
    # rows count, so --baseline (it writes only the deltas file) is left out
    identity = dict(
        effective,
        checkpoint=file_sha256(args.checkpoint)[:12],
        dataset=dataset_id,
        **split_digest,
    )
    text = M.lines_text(key_value_lines(identity))
    config_hash = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    metadata = {
        "config_hash": config_hash,
        "seed": str(model.metadata.get("seeds", "")),
        "dataset_id": dataset_id,
        "run_id": str(model.metadata.get("run_id", "")),
        "split": args.split,
        **split_digest,
    }
    report = E.evaluate(
        model,
        subset,
        vocab,
        direction=args.direction,
        languages=languages,
        metadata=metadata,
    )
    out.mkdir(parents=True, exist_ok=True)  # only now: a refused eval leaves no directory
    E.write_report_csv(report, out / "report.csv")
    E.write_report_jsonl(report, out / "report.jsonl")
    M.write_lines(out / "eval.effective", key_value_lines({**effective, "baseline": args.baseline}))
    if record:  # a training output dir: register the report, relative so the dir can move
        write_record(out, record + [{"record": "report", "path": "report.jsonl"}])

    print(f"evaluated {len(records)} images, direction {report.direction}")
    header = ["language"] + list(E.METRIC_NAMES)
    print("  ".join(f"{cell:>9}" for cell in header))
    for language, row in list(report.rows.items()) + [("average", report.average)]:
        cells = [f"{getattr(row, name):9.2f}" for name in E.METRIC_NAMES]
        print("  ".join([f"{language:>9}"] + cells))
    print(f"report written to {out / 'report.csv'}")

    if table:
        _baseline_section(report, table, out)
    return 0


def _baseline_table(spec_text: str) -> E.BaselineTable:
    source, sep, model_name = spec_text.partition(":")
    if not sep or not source or not model_name:
        raise ConfigError(
            f"--baseline wants <source>:<model>, got {spec_text!r};"
            f" available: {E.list_baseline_tables()}"
        )
    return E.load_baseline_table(source, model_name)


def _baseline_section(report, table: E.BaselineTable, out: Path) -> None:
    for metric, value in sorted(table.recompute_average().items()):
        stored = table.average.get(metric)
        note = f" (published average {stored})" if stored is not None else ""
        print(f"baseline {table.source}:{table.model} mean {metric} = {value:.2f}{note}")
    for metric, gap in sorted(table.average_discrepancies().items()):
        print(f"warning: published {metric} average differs from recomputed mean by {gap:.3f}")
    keys = E.baseline_keys(report.rows, table)
    unmatched = [lang for lang in report.rows if lang not in keys]
    if unmatched:
        print(f"no published {table.source}:{table.model} counterpart for: {', '.join(unmatched)}")
    if not keys:
        print("no shared languages with the baseline; skipping per-language deltas")
        return
    cmp = E.compare_to_baseline(report, table)
    path = out / f"deltas_{table.source}_{table.model}.csv"
    rows = [(language, cmp.deltas[language]) for language in cmp.languages]
    E.write_metric_csv(path, rows + [(E.AVERAGE_ROW, cmp.average_delta)], repr)
    print(f"deltas against {table.source}:{table.model} written to {path}")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _load_run(run_dir: Path):
    record = read_record(run_dir)
    path = run_dir / RECORD_FILE
    runs = [entry for entry in record if entry.get("record") == "run"]
    reports = [entry.get("path") for entry in record if entry.get("record") == "report"]
    if not runs:
        raise ConfigError(f"{path} has no run entry; is it a training output dir?")
    if not isinstance(runs[0].get("config", {}), dict):
        raise ConfigError(f"{path}: the run entry's config is not an object")
    if not all(isinstance(report, str) for report in reports):
        raise ConfigError(f"{path}: a report entry has no path string")
    if not reports:
        raise ConfigError(
            f"run {runs[0].get('run_id')} in {run_dir} has no evaluation report;"
            " run the eval command with this directory as --output first"
        )
    # relative to run_dir; an absolute path of an older record joins to itself
    return runs[0], E.read_report_jsonl(run_dir / reports[-1])


def cmd_report(args) -> int:
    run_dirs = [Path(p).resolve() for p in args.runs]
    if len(run_dirs) < 2:
        raise ConfigError(f"need at least 2 runs to compare, got {len(run_dirs)}")
    loaded = [_load_run(run_dir) for run_dir in run_dirs]
    # an eval of split "all" reads no split file, so it carries no split digest
    record_sets = {
        tuple(r.metadata.get(key, "") for key in ("dataset_id", "split", "split_digest"))
        for _, r in loaded
    }
    if len(record_sets) > 1 and not args.allow_mixed:
        raise ConfigError(
            f"runs were evaluated on {len(record_sets)} different record sets (dataset, split"
            " and split file); pass --allow-mixed to compare anyway"
        )
    out = Path(args.output).resolve()
    out.mkdir(parents=True, exist_ok=True)
    columns = ["run_id", "regime", "optimizer", "preset", "direction", *E.METRIC_NAMES]
    rows = [columns] + [
        [str(run_line.get("run_id", ""))]
        + [str(run_line.get("config", {}).get(key, "")) for key in columns[1:4]]
        + [report.direction, *report.average.as_dict().values()]
        for run_line, report in loaded
    ]
    # str of a float is its repr: the CSV holds each metric in full
    M.write_lines(out / "comparison.csv", [",".join(map(str, row)) for row in rows])
    M.write_lines(
        out / "report.effective",
        key_value_lines({"runs": ";".join(str(d) for d in run_dirs), "allow_mixed": args.allow_mixed}),
    )
    for row in rows:
        print("  ".join(f"{c:>12}" if isinstance(c, str) else f"{c:>12.2f}" for c in row))
    print(f"comparison written to {out / 'comparison.csv'}")
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clipforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("datagen", help="generate a synthetic captioned-image corpus")
    p.add_argument("--output", required=True, help="dataset directory to create")
    p.add_argument("--images", type=int, default=2000)
    p.add_argument("--languages", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--image-size", type=int, default=32)
    p.add_argument("--val-fraction", type=float, default=0.15)
    p.add_argument("--threshold", type=float, default=4.5)
    p.add_argument("--force", action="store_true", help="replace an existing output dir")
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("train", help="train a dual encoder on a generated dataset")
    p.add_argument("--config", help="key=value config file (flags and env override it)")
    p.add_argument("--force", action="store_true", help="discard any previous run in the output dir")
    flags = {
        "dataset_dir": ("--dataset", "dataset directory from datagen"),
        "output_dir": ("--output", "run output directory"),
        "preset": ("--preset", "tower preset pair, e.g. l-b"),
        "regime": ("--regime", "freeze regime: full, text-encoder, or projection"),
        "optimizer": ("--optimizer", "lion, lion8, or adamw"),
        "lr": ("--lr", "peak learning rate"),
        "weight_decay": ("--weight-decay", "decoupled weight decay"),
        "batch_size": ("--batch-size", "contrastive batch size (>= 2)"),
        "epochs": ("--epochs", "training epochs"),
        "warmup_steps": ("--warmup-steps", "linear warmup steps"),
        "data_seed": ("--data-seed", "batch order seed"),
        "init_seed": ("--init-seed", "weight init seed"),
        "sampler_seed": ("--sampler-seed", "caption language sampler seed"),
        "languages": ("--languages", "comma-separated training language subset"),
        "init_from": ("--init-from", "checkpoint to initialize weights from"),
    }
    for dest, (flag, help_text) in flags.items():
        p.add_argument(flag, dest=dest, default=None, help=help_text)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on retrieval metrics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--split", choices=("train", "val", "all"), default="val")
    p.add_argument("--direction", choices=E.DIRECTIONS, default=E.TEXT_TO_IMAGE)
    p.add_argument("--languages", default="", help="comma-separated language subset")
    p.add_argument("--baseline", default="", help="published table to compare: <source>:<model>")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="tabulate evaluation results across runs")
    p.add_argument("--runs", nargs="+", required=True, help="two or more run directories")
    p.add_argument("--output", required=True)
    p.add_argument("--allow-mixed", action="store_true", help="permit different eval datasets")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ClipforgeError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # e.g. an --output under a regular file
        print(f"{ConfigError.code}: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
