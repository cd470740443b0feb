"""Training orchestration: run configuration, the epoch loop, and run records.

A run is fully described by a RunConfig: preset pair, freeze regime,
optimizer, schedule knobs, and three independent seeds (data order, weight
init, language sampler).  Identical configs produce bit-identical checkpoints,
so any run can be reproduced or resumed from its output directory alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as M
from . import optim
from . import tensor as T
from .contrastive import clip_loss, similarity
from .data import (
    SPLIT_NAME,
    Vocabulary,
    file_sha256,
    load_dataset,
    manifest_digest,
    pixel_batch,
    sample_epoch,
    select_languages,
    split_records,
    tokenize_batch,
)
from .errors import CheckpointFormatError, CheckpointIntegrityError, ConfigError, TrainingError

OPTIMIZERS = ("lion", "lion8", "adamw")
REGIMES = tuple(r.value for r in M.FreezeRegime)

MAX_TEXT_LEN = 16

LAST_CHECKPOINT = "last.nclp"
BEST_CHECKPOINT = "best.nclp"
RECORD_FILE = "run_record.jsonl"
EFFECTIVE_CONFIG = "config.effective"
FEATURE_DIR = "image_features"  # in the dataset directory: derived files, safe to delete


# a field type: (its name in a refusal, whether a value has it, the parser of its text)
_STR = ("a str", lambda value: isinstance(value, str), str)
_INT = ("an int", lambda value: isinstance(value, int) and not isinstance(value, bool), int)
_NUMBER = ("a number", lambda value: isinstance(value, (int, float)) and not isinstance(value, bool), float)
_STRS = ("a tuple of str", lambda value: isinstance(value, tuple) and all(isinstance(p, str) for p in value),
         lambda text: tuple(part for part in text.split(",") if part))

# field -> (its type, and for an int field its least value and why)
_FIELD_TYPES = {
    **dict.fromkeys(("dataset_dir", "output_dir", "preset", "regime", "optimizer", "init_from"), (_STR,)),
    **dict.fromkeys(("lr", "weight_decay"), (_NUMBER,)),
    "batch_size": (_INT, 2, " (the loss needs in-batch negatives)"),
    "epochs": (_INT, 1, ""),
    **dict.fromkeys(("warmup_steps", "data_seed", "init_seed", "sampler_seed"), (_INT, 0, "")),
    "languages": (_STRS,),
}


@dataclass(frozen=True)
class RunConfig:
    dataset_dir: str = ""
    output_dir: str = ""
    preset: str = "l-b"
    regime: str = "full"
    optimizer: str = "lion"
    lr: float = 3e-4
    weight_decay: float = 0.0
    batch_size: int = 64
    epochs: int = 10
    warmup_steps: int = 20
    data_seed: int = 0
    init_seed: int = 0
    sampler_seed: int = 4
    languages: tuple = ()
    init_from: str = ""

    def __post_init__(self):
        for name, ((kind, has_type, _), *least) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not has_type(value) or (least and value < least[0]):
                bound = f" >= {least[0]}{least[1]}" if least else ""
                raise ConfigError(f"{name} must be {kind}{bound}, got {value!r}")
        M.preset_pair(self.preset)
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}; expected one of {REGIMES}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(
                f"unknown optimizer {self.optimizer!r}; expected one of {OPTIMIZERS}"
            )
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.weight_decay < np.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")

    def resolved(self) -> "RunConfig":
        """Absolute-path copy; all paths are fixed before the run starts."""
        return dataclasses.replace(
            self,
            dataset_dir=str(Path(self.dataset_dir).resolve()),
            output_dir=str(Path(self.output_dir).resolve()),
            init_from=str(Path(self.init_from).resolve()) if self.init_from else "",
        )


def coerce_field(name: str, text: str):
    """Parse one key=value assignment into a RunConfig field value."""
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {name!r}; known keys: {sorted(_FIELD_TYPES)}")
    (_, _, parser), *_ = _FIELD_TYPES[name]
    try:
        return parser(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {text!r} ({exc})") from exc


def read_config_file(path) -> dict:
    """Line-oriented key=value file; blank lines and # comments are skipped."""
    values = {}
    for number, line in enumerate(M.read_lines(path, ConfigError), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{number}: expected key=value, got {line!r}")
        values[key.strip()] = coerce_field(key.strip(), value.strip())
    return values


def key_value_lines(values: dict) -> list:
    """``key=value`` lines sorted by key, as ``read_config_file`` reads them."""
    return [f"{key}={values[key]}" for key in sorted(values)]


def config_lines(config: RunConfig, skip=()) -> list:
    values = {
        field.name: getattr(config, field.name)
        for field in dataclasses.fields(config)
        if field.name not in skip
    }
    if "languages" in values:
        values["languages"] = ",".join(values["languages"])
    return key_value_lines(values)


def config_to_text(config: RunConfig, skip=()) -> str:
    """The text of ``config.effective``; ``run_id_of`` hashes it without the paths."""
    return M.lines_text(config_lines(config, skip))


def run_id_of(config: RunConfig) -> str:
    """Content-addressed run identity, the one identity of a run.

    Paths are replaced by digests of what they point at (the manifest, the
    split file and the ``init_from`` checkpoint), so the same training run
    gets the same id no matter where its inputs and outputs live on disk.
    """
    text = config_to_text(config, skip=("dataset_dir", "output_dir", "init_from"))
    text += f"dataset_digest={manifest_digest(config.dataset_dir)}\n"
    text += f"split_digest={file_sha256(Path(config.dataset_dir) / SPLIT_NAME)}\n"
    if config.init_from:
        try:
            digest = file_sha256(config.init_from)
        except OSError as exc:
            raise ConfigError(f"cannot read init_from {config.init_from}: {exc.strerror}") from exc
        text += f"init_from_digest={digest}\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

def _iter_batches(items, batch_size: int, rng=None):
    order = rng.permutation(len(items)) if rng is not None else np.arange(len(items))
    for start in range(0, len(items), batch_size):
        chunk = order[start : start + batch_size]
        if chunk.size >= 2:  # a single leftover row has no in-batch negatives
            yield [items[i] for i in chunk]


def batch_loss(
    model: M.DualEncoderModel, records, choices: dict, vocab: Vocabulary, image_cache=None
):
    """Symmetric contrastive loss of one batch under a language plan.

    ``image_cache`` (record id -> pooled image-feature row, as
    ``frozen_image_features`` returns it) stands in for a frozen image tower
    and must hold every record of the batch.
    """
    if image_cache is None:
        image_emb = M.encode_image(model, pixel_batch(records))
    else:
        pooled = T.Tensor(np.stack([image_cache[r.id] for r in records]))
        image_emb = M.project_image(model, pooled)
    tokens, lengths = tokenize_batch(
        [r.captions[choices[r.id]] for r in records], vocab, model.config.max_text_len
    )
    text_emb = M.encode_text(model, tokens, lengths)
    return clip_loss(similarity(image_emb, text_emb, model.logit_scale))


def dataset_loss(model, records, choices, vocab, batch_size: int, image_cache=None) -> float:
    model = M.frozen(model)  # no validation batch keeps a graph
    total, count = 0.0, 0
    for batch in _iter_batches(records, batch_size):
        loss = float(batch_loss(model, batch, choices, vocab, image_cache=image_cache).data)
        total += loss * len(batch)
        count += len(batch)
    if count == 0:
        raise TrainingError("fewer than 2 records; cannot compute a contrastive loss")
    return total / count


# ---------------------------------------------------------------------------
# frozen image features, stored in the dataset directory
# ---------------------------------------------------------------------------

def image_tower_key(model: M.DualEncoderModel) -> str:
    """sha256 of all a pooled image row depends on besides its pixels: the
    image tower's config and parameters, and the numpy and BLAS builds."""
    config = dataclasses.asdict(model.config)
    tower = {k: v for k, v in config.items() if k.startswith("image_") or k == "patch_size"}
    try:
        build = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 reports no builds; the canary row still guards
        build = {}
    blas = build.get("Build Dependencies", {}).get("blas", {})
    builds = [np.__version__, blas.get("name"), blas.get("version")]
    h = hashlib.sha256(json.dumps([tower, builds], sort_keys=True).encode("utf-8"))
    for name in sorted(n for n in model.params if n.startswith("image/")):
        data = np.ascontiguousarray(model.params[name].data, dtype="<f4")
        h.update(f"{name}:{data.shape}".encode("utf-8"))
        h.update(data)
    return h.hexdigest()


def _read_feature_store(path: Path, key: str, width: int) -> dict:
    """{pixel sha256: pooled row} of a store file; {} when there is none or it
    belongs to another tower.  A torn or unreadable file is refused."""
    if not path.is_file():
        return {}
    try:
        header, arrays = M.read_tensor_file(path)
    except (CheckpointFormatError, CheckpointIntegrityError) as exc:
        raise CheckpointIntegrityError(
            f"image feature store {path}: {exc}; the file is derived from the dataset"
            " and may be deleted"
        ) from None
    rows, features = header.get("rows", ()), arrays.get("features")
    if header.get("key") != key or features is None or features.shape != (len(rows), width):
        return {}
    return dict(zip(rows, features))


def frozen_image_features(model: M.DualEncoderModel, records, dataset_dir, say) -> dict:
    """{record id: pooled image row} of ``records`` for a model whose image
    tower does not train.

    Rows come from ``<dataset_dir>/image_features/<key[:16]>.nclp`` (see
    ``image_tower_key``), which holds one row per distinct pixel array.  The
    images it lacks go through the tower in one call, and the rows of
    ``records`` alone are written back.  Each pooled row depends only on its
    own image, so a stored row is bitwise the one the tower would give; one
    row is recomputed before the file is used, which catches a file another
    BLAS build wrote.  A failed write is only reported, through ``say``.
    """
    # row i of the [n, S, S, 3] batch is record i's pixel bytes, as save_dataset wrote them
    digests = [
        hashlib.sha256(image).hexdigest() for image in pixel_batch(records).transpose(0, 2, 3, 1)
    ]
    key = image_tower_key(model)
    path = Path(dataset_dir) / FEATURE_DIR / f"{key[:16]}.nclp"
    stored = _read_feature_store(path, key, model.config.image_dim)
    canary = next((i for i, d in enumerate(digests) if d in stored), None)
    if canary is not None:
        row = M.image_features(model, pixel_batch([records[canary]])).data[0]
        if row.tobytes() != stored[digests[canary]].tobytes():
            say(f"{path}: a stored row differs from the recomputed one; recomputing all rows")
            stored = {}
    missing = {d: r for d, r in zip(digests, records) if d not in stored}
    if missing:
        pooled = M.image_features(model, pixel_batch(list(missing.values()))).data
        stored.update(zip(missing, pooled))
        rows = sorted(set(digests))  # a rewritten image's old row is dropped
        tmp = Path(f"{path}.{os.getpid()}.tmp")  # concurrent runs never share a temporary file
        try:
            path.parent.mkdir(exist_ok=True)
            M.write_tensor_file(
                path, {"key": key, "rows": rows}, {"features": np.stack([stored[d] for d in rows])},
                tmp=tmp,
            )
        except BaseException as exc:  # only a SIGKILL leaves the temporary file behind
            with contextlib.suppress(OSError):
                tmp.unlink()
            if not isinstance(exc, OSError):
                raise
            say(f"image features not stored at {path}: {exc}")
    return {r.id: stored[d] for r, d in zip(records, digests)}


# ---------------------------------------------------------------------------
# run state on disk
# ---------------------------------------------------------------------------

def read_record(out) -> list:
    """Entries of the run record in ``out``, [] without one.  Every write replaces
    the whole file, so only a killed append of an older version can tear the last
    line: it is dropped.  Any other unparsable line is refused."""
    path = Path(out) / RECORD_FILE
    if not path.exists():
        return []
    return M.read_json_lines(
        path, lambda message: ConfigError(f"{message}; use --force to start over")
    )


def write_record(out, entries) -> None:
    """Replace the run record in ``out`` with ``entries``, one JSON line each."""
    M.write_json_lines(Path(out) / RECORD_FILE, entries)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    last_lr: float
    seconds: float


@dataclass
class RunResult:
    run_id: str
    stats: list
    best_val_loss: float
    total_steps: int
    last_checkpoint: str
    best_checkpoint: str
    model: M.DualEncoderModel


def run_training(config: RunConfig, log=None, force: bool = False) -> RunResult:
    """Execute (or resume) one training run and return its summary.

    The output directory accumulates: a line-delimited run record, the latest
    checkpoint with its optimizer state in the same file, and the best
    checkpoint by validation loss.  The effective config is written on every
    call and never read back: the run id alone decides what may resume here.
    With ``force`` (``train --force``) nothing in the output directory is read,
    and what it holds is deleted only once every check of the request has passed.
    """
    if not config.dataset_dir or not config.output_dir:
        raise ConfigError("training needs both dataset_dir and output_dir")
    config = config.resolved()
    say = log if log is not None else (lambda _: None)
    out = Path(config.output_dir)  # created only before its first write: a refused run writes nothing
    for field, flag in (("dataset_dir", "--dataset"), ("init_from", "--init-from")):
        path = getattr(config, field)
        if force and path and Path(path).is_relative_to(out):
            raise ConfigError(f"train --force would delete {flag} {path}: it lies in the output dir {out}")

    dataset = load_dataset(config.dataset_dir)
    train_records, val_records = split_records(dataset, config.dataset_dir)
    if len(train_records) < 2 or len(val_records) < 2:
        raise TrainingError(
            f"need at least 2 train and 2 validation records, got"
            f" {len(train_records)}/{len(val_records)}"
        )

    languages = select_languages(dataset.languages, config.languages or None, ConfigError)
    vocab = Vocabulary.for_dataset(dataset)
    tokens = vocab.ordered_tokens()
    image_size = train_records[0].get_pixels().shape[0]
    model_config = M.ModelConfig.from_presets(
        config.preset, vocab.size, MAX_TEXT_LEN, image_size=image_size
    )

    run_id = run_id_of(config)
    record = [] if force else read_record(out)
    last_path, best_path = out / LAST_CHECKPOINT, out / BEST_CHECKPOINT
    saved = M.read_checkpoint(last_path) if last_path.exists() and not force else None
    # every run id the directory holds must be this run's: one check, before any write
    held = [(out / RECORD_FILE, e["run_id"]) for e in record if "run_id" in e]
    held += [(last_path, saved[0].metadata.get("run_id"))] if saved else []
    for path, held_id in held:
        if held_id != run_id:
            raise ConfigError(
                f"{path} holds run {held_id}, not {run_id} (the config, dataset, split or"
                " init checkpoint changed); use --force to start over"
            )

    state, next_epoch, best_val = optim.OptimizerState(), 0, float("inf")
    if saved:
        model, saved_optimizer, state = saved
        if state is None:
            raise CheckpointFormatError(
                f"cannot resume: {LAST_CHECKPOINT} holds no optimizer state (an older"
                " run directory layout); use --force to start over"
            )
        if saved_optimizer != config.optimizer:
            raise ConfigError(
                f"cannot resume: saved optimizer {saved_optimizer!r}"
                f" does not match configured {config.optimizer!r}"
            )
        next_epoch = int(model.metadata["next_epoch"])
        best_val = float(model.metadata["best_val"])
        say(f"resuming run {run_id} at epoch {next_epoch}")
    elif config.init_from:
        model = M.load_checkpoint(config.init_from)
    else:
        model = M.DualEncoderModel(model_config, init_seed=config.init_seed)
    source = last_path if saved else config.init_from
    if source:  # a fresh model fits by construction
        if model.config != model_config:
            raise ConfigError(
                f"{source} holds a model config that does not match the run config"
                " (different preset, vocabulary or image size)"
            )
        M.check_vocabulary(model, vocab, ConfigError)
    # a kill after an epoch's record line but before its checkpoint left lines to write again
    record = [e for e in record if e.get("epoch", -1) < next_epoch]
    if not any(e.get("record") == "run" for e in record):
        record.insert(0, {"record": "run", "run_id": run_id, "config": dataclasses.asdict(config)})
    epochs = [e["epoch"] for e in record if e.get("record") == "epoch"]
    if epochs != list(range(next_epoch)):
        raise ConfigError(f"{out / RECORD_FILE} holds epochs {epochs}, but {LAST_CHECKPOINT}"
                          f" resumes at epoch {next_epoch}; use --force to start over")
    M.apply_freeze(model, M.FreezeRegime(config.regime))
    # a frozen image tower maps each record to the same pooled row all run long
    image_cache = None
    if not M.trains(model, "image"):
        image_cache = frozen_image_features(
            model, train_records + val_records, config.dataset_dir, say
        )
    if force and out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True, exist_ok=True)
    M.write_lines(out / EFFECTIVE_CONFIG, config_lines(config))
    write_record(out, record)

    trainable = {name: p for name, p in model.params.items() if p.requires_grad}
    # looked up per run, so a wrapper set on the module attribute (perfbench's) sees every step
    step_fn = getattr(optim, f"{config.optimizer}_step")

    total_steps = config.epochs * sum(1 for _ in _iter_batches(train_records, config.batch_size))
    seeds = f"{config.data_seed}/{config.init_seed}/{config.sampler_seed}"

    stats = []
    val_choices = sample_epoch(val_records, 0, config.sampler_seed, languages)
    for epoch in range(next_epoch, config.epochs):
        start = time.perf_counter()
        choices = sample_epoch(train_records, epoch, config.sampler_seed, languages)
        rng = np.random.default_rng([config.data_seed, epoch])
        epoch_total, epoch_count, last_lr = 0.0, 0, 0.0
        for batch in _iter_batches(train_records, config.batch_size, rng):
            loss = batch_loss(model, batch, choices, vocab, image_cache=image_cache)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss {value} at epoch {epoch} step {state.step_count}"
                )
            loss.backward()
            last_lr = optim.lr_schedule(state.step_count, total_steps, config.lr, config.warmup_steps)
            step_fn(trainable, {name: p.grad for name, p in trainable.items()}, state, last_lr,
                    config.weight_decay)
            model.zero_grad()  # no step's gradients live through the next forward
            epoch_total += value * len(batch)
            epoch_count += len(batch)

        val_loss = dataset_loss(
            model, val_records, val_choices, vocab, config.batch_size, image_cache=image_cache
        )
        entry = EpochStats(
            epoch=epoch,
            train_loss=epoch_total / epoch_count,
            val_loss=val_loss,
            last_lr=last_lr,
            seconds=time.perf_counter() - start,
        )
        stats.append(entry)
        # record first: a kill before the checkpoint redoes the epoch, and the restart drops this line
        record.append({"record": "epoch", "run_id": run_id, **dataclasses.asdict(entry)})
        write_record(out, record)

        meta = {"run_id": run_id, "val_loss": val_loss, "seeds": seeds, "vocabulary": tokens}
        if val_loss < best_val:
            best_val = val_loss
            M.save_checkpoint(model, best_path, {**meta, "epoch": epoch})
        M.save_checkpoint(
            model,
            last_path,
            {**meta, "next_epoch": epoch + 1, "best_val": best_val},
            optimizer=(config.optimizer, state),
        )
        say(
            f"epoch {epoch + 1}/{config.epochs}: train {entry.train_loss:.4f}"
            f" val {entry.val_loss:.4f} lr {entry.last_lr:.2e} ({entry.seconds:.1f}s)"
        )

    return RunResult(
        run_id=run_id,
        stats=stats,
        best_val_loss=best_val,
        total_steps=state.step_count,
        last_checkpoint=str(last_path),
        best_checkpoint=str(best_path),
        model=model,
    )
