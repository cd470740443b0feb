"""Inputs, timed calls and output checks of the three benchmark workloads.

Every workload is a closed loop with one caller: a training step or an
evaluation query batch starts only when the previous one has finished.  The
program sees only what ``make_inputs`` writes to disk (the corpus and the
stage-1 fixture checkpoint) plus a run configuration, and is driven through
the public functions the CLI calls: ``training.run_training``,
``model.load_checkpoint`` and ``evaluation.evaluate``.
"""

from __future__ import annotations

import hashlib
import shutil
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import clipforge
from clipforge import data, evaluation, model, training

from instrument import Instrumentation

perf = time.perf_counter


@dataclass(frozen=True)
class Size:
    """Input sizes.  FULL is the default datagen corpus and model."""

    images: int = 2000
    languages: int = 8
    image_size: int = 32
    threshold: float = 4.5
    val_fraction: float = 0.15
    preset: str = "l-b"
    batch: int = 64
    pretrain_epochs: int = 1
    adapt_epochs: int = 3
    eval_batch: int = 256
    setups: int = 3


FULL = Size()
TINY = Size(images=60, languages=3, preset="b-b", batch=8, adapt_epochs=1, setups=2)


@dataclass
class Inputs:
    seed: int
    size: Size
    corpus: Path
    fixture: Path
    languages: list
    fixture_arrays: dict
    kept: int
    manifest_sha256: str


def make_inputs(work: Path, seed: int, size: Size) -> Inputs:
    """Generate, save and load the corpus; write the stage-1 fixture checkpoint.

    The fixture is the seeded initialisation of the preset's model.  Training
    and evaluation cost does not depend on the weights' values, so a trained
    stage-1 model would not change what is measured.
    """
    corpus = work / "corpus"
    corpus_set = data.generate_synthetic_corpus(size.images, size.languages, image_size=size.image_size, seed=seed)
    kept = data.aesthetic_filter(corpus_set.records, threshold=size.threshold)
    train_records, val_records = data.split(kept, size.val_fraction, seed=seed)
    data.save_dataset(corpus_set, corpus)
    data.save_split(corpus, [r.id for r in train_records], [r.id for r in val_records])

    loaded = data.load_dataset(corpus)
    data.load_split(corpus)
    vocab = data.Vocabulary.for_dataset(loaded)
    config = model.ModelConfig.from_presets(size.preset, vocab.size, training.MAX_TEXT_LEN, image_size=size.image_size)
    fixture_model = model.DualEncoderModel(config, init_seed=seed + 1)
    fixture = work / "stage1.nclp"
    model.save_checkpoint(fixture_model, fixture, {"stage": 1, "init_seed": seed + 1})
    return Inputs(
        seed=seed,
        size=size,
        corpus=corpus,
        fixture=fixture,
        languages=list(loaded.languages),
        fixture_arrays={name: p.data.copy() for name, p in fixture_model.params.items()},
        kept=len(kept),
        manifest_sha256=data.manifest_digest(corpus),
    )


@dataclass
class Unit:
    """Outcome of one timed call."""

    seconds: float
    steps_ms: list
    items: int
    records: dict = field(default_factory=dict)  # values compared across calls
    val_loss: float | None = None
    losses: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    inst: Instrumentation | None = None


class Checks:
    """Output checks; every failure is counted and reported."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def loss_digest(losses) -> str:
    return hashlib.sha256(b"".join(struct.pack("<d", v) for v in losses)).hexdigest()


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def bit_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainSpec:
    regime: str
    optimizer: str
    epochs_field: str
    stage2: bool  # adaptation: init_from the stage-1 fixture, non-English languages only


def _train_unit(spec: TrainSpec, inputs: Inputs, out: Path, tracing: bool) -> Unit:
    size = inputs.size
    non_english = tuple(lang for lang in inputs.languages if lang != data.BASE_LANGUAGE)
    config = training.RunConfig(
        dataset_dir=str(inputs.corpus),
        output_dir=str(out),
        preset=size.preset,
        regime=spec.regime,
        optimizer=spec.optimizer,
        batch_size=size.batch,
        epochs=getattr(size, spec.epochs_field),
        data_seed=inputs.seed,
        init_seed=inputs.seed,
        sampler_seed=inputs.seed,
        languages=non_english if spec.stage2 else (),
        init_from=str(inputs.fixture) if spec.stage2 else "",
    )
    inst = Instrumentation(clipforge, "train", tracing)
    with inst:
        root = inst.open("bench.unit") if tracing else None
        start = perf()
        result = training.run_training(config)
        seconds = perf() - start
        if tracing:
            inst.close(root)
    last = Path(result.last_checkpoint)
    return Unit(
        seconds=seconds,
        steps_ms=inst.step_durations_ms(),
        items=inst.samples,
        records={"checkpoint_sha256": file_sha256(last), "loss_digest": loss_digest(inst.step_losses)},
        val_loss=result.stats[-1].val_loss,
        losses=inst.step_losses,
        inst=inst,
    )


def _check_training(spec: TrainSpec, inputs: Inputs, unit: Unit, out: Path, checks: Checks) -> None:
    checks.check(len(unit.losses) > 0, "no training step ran")
    checks.check(all(np.isfinite(v) for v in unit.losses), "a training loss is not finite")
    checks.check(unit.val_loss is not None and np.isfinite(unit.val_loss), "final validation loss is not finite")
    if spec.regime == "text-encoder":
        _, arrays = model.read_tensor_file(out / training.LAST_CHECKPOINT)
        frozen = [name for name in inputs.fixture_arrays if name.startswith("image/")]
        changed = [name for name in frozen if not bit_equal(arrays[name], inputs.fixture_arrays[name])]
        checks.check(bool(frozen) and not changed, f"frozen image parameters changed: {changed[:3]}")


# ---------------------------------------------------------------------------
# retrieval evaluation
# ---------------------------------------------------------------------------


def oracle_ranks(queries, candidates, relevance) -> np.ndarray:
    """Rank of the best relevant candidate: strictly higher scores, plus equal
    scores at a lower index, plus one."""
    scores = queries @ candidates.T
    ranks = np.empty(len(relevance), dtype=np.int64)
    index = np.arange(scores.shape[1])
    for i, relevant in enumerate(relevance):
        row = scores[i]
        ranks[i] = min(
            int(np.count_nonzero(row > row[j]) + np.count_nonzero((row == row[j]) & (index < j)) + 1)
            for j in relevant
        )
    return ranks


def checked_language(inputs: Inputs) -> int:
    return inputs.seed % len(inputs.languages)


def _eval_unit(inputs: Inputs, tracing: bool) -> Unit:
    n_lang = len(inputs.languages)
    lang = checked_language(inputs)
    keep = [d * n_lang + lang for d in range(len(evaluation.DIRECTIONS))]
    inst = Instrumentation(clipforge, "eval", tracing, keep_tasks=keep)
    with inst:
        root = inst.open("bench.unit") if tracing else None
        start = perf()
        checkpoint = model.load_checkpoint(inputs.fixture)
        dataset = data.load_dataset(inputs.corpus)  # split "all", as ``clipforge eval --split all``
        vocab = data.Vocabulary.for_dataset(dataset)
        reports = [
            evaluation.evaluate(checkpoint, dataset, vocab, direction=d, batch_size=inputs.size.eval_batch)
            for d in evaluation.DIRECTIONS
        ]
        seconds = perf() - start
        if tracing:
            inst.close(root)
    rows = {
        f"{r.direction}/{language}": row.as_dict() for r in reports for language, row in r.rows.items()
    }
    digest = hashlib.sha256(repr(sorted(rows.items())).encode()).hexdigest()
    return Unit(
        seconds=seconds,
        steps_ms=inst.step_durations_ms(),
        items=inst.queries,
        records={"report_digest": digest},
        reports=reports,
        inst=inst,
    )


def _check_eval(inputs: Inputs, unit: Unit, checks: Checks) -> None:
    inst = unit.inst
    n_lang = len(inputs.languages)
    lang = checked_language(inputs)
    language = inputs.languages[lang]
    expected_calls = n_lang * len(evaluation.DIRECTIONS)
    checks.check(inst.rank_calls == expected_calls, f"rank_items ran {inst.rank_calls} times, expected {expected_calls}")
    for d, report in enumerate(unit.reports):
        task = inst.tasks.get(d * n_lang + lang)
        if not checks.check(task is not None, f"no ranking captured for {language} {report.direction}"):
            continue
        ranks = oracle_ranks(task.queries, task.candidates, task.relevance)
        checks.check(
            np.array_equal(ranks, inst.ranks[d * n_lang + lang]),
            f"{report.direction} {language}: ranks differ from the numpy oracle",
        )
        row = report.rows[language]
        expected = {
            "r_at_1": 100.0 * np.count_nonzero(ranks <= 1) / ranks.size,
            "r_at_5": 100.0 * np.count_nonzero(ranks <= 5) / ranks.size,
            "r_at_10": 100.0 * np.count_nonzero(ranks <= 10) / ranks.size,
            "mrr_at_10": 100.0 * sum(1.0 / r for r in ranks if r <= 10) / ranks.size,
        }
        off = {k: (getattr(row, k), v) for k, v in expected.items() if abs(getattr(row, k) - v) > 1e-9}
        checks.check(not off, f"{report.direction} {language}: report row disagrees with oracle ranks {off}")


# ---------------------------------------------------------------------------
# workload table
# ---------------------------------------------------------------------------


PRETRAIN = TrainSpec("full", "lion", "pretrain_epochs", stage2=False)
ADAPT = TrainSpec("text-encoder", "lion8", "adapt_epochs", stage2=True)


def run_unit(workload: str, inputs: Inputs, scratch: Path, tracing: bool, checks: Checks) -> Unit:
    """One timed call of ``workload`` followed by its output checks."""
    if workload == "retrieval_eval":
        unit = _eval_unit(inputs, tracing)
        _check_eval(inputs, unit, checks)
        return unit
    spec = {"pretrain_full": PRETRAIN, "adapt_frozen_lion8": ADAPT}[workload]
    out = scratch / "run"
    shutil.rmtree(out, ignore_errors=True)
    try:
        unit = _train_unit(spec, inputs, out, tracing)
        _check_training(spec, inputs, unit, out, checks)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return unit

