import dataclasses
import hashlib
import json
import multiprocessing
import re
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from clipforge import model as M
from clipforge import tensor as T
from clipforge import training
from clipforge.data import (
    MANIFEST_NAME,
    PIXEL_FILE,
    PIXEL_HEADER,
    SPLIT_NAME,
    Vocabulary,
    aesthetic_filter,
    generate_synthetic_corpus,
    load_dataset,
    load_split,
    pixel_batch,
    sample_epoch,
    save_dataset,
    save_split,
    split,
)
from clipforge import optim
from clipforge.errors import (
    CheckpointFormatError,
    CheckpointIntegrityError,
    ConfigError,
    DatasetFormatError,
    TrainingError,
)
from clipforge.training import (
    RunConfig,
    coerce_field,
    config_to_text,
    read_config_file,
    run_id_of,
    run_training,
)


def make_dataset(path, images=60, languages=2, seed=3, image_size=16):
    ds = generate_synthetic_corpus(images, languages, image_size=image_size, seed=seed)
    kept = aesthetic_filter(ds.records)
    train_records, val_records = split(kept, 0.2, seed=seed)
    save_dataset(ds, path)
    save_split(path, [r.id for r in train_records], [r.id for r in val_records])
    return path


def resplit(path, val_fraction, seed=3):
    """Write another split of the corpus at ``path``; its manifest stays as it is."""
    kept = aesthetic_filter(load_dataset(path).records)
    train_records, val_records = split(kept, val_fraction, seed=seed)
    save_split(path, [r.id for r in train_records], [r.id for r in val_records])
    return path


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    return make_dataset(tmp_path_factory.mktemp("data") / "ds")


def tiny_config(dataset_dir, output_dir, **overrides):
    base = dict(
        dataset_dir=str(dataset_dir),
        output_dir=str(output_dir),
        preset="b-b",
        batch_size=16,
        epochs=2,
        warmup_steps=3,
        lr=1e-3,
    )
    base.update(overrides)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_config_validation():
    good = dict(dataset_dir="d", output_dir="o")
    RunConfig(**good, batch_size=2)
    with pytest.raises(ConfigError):
        RunConfig(**good, preset="x-b")
    with pytest.raises(ConfigError):
        RunConfig(**good, regime="frozen")
    with pytest.raises(ConfigError):
        RunConfig(**good, optimizer="sgd")
    with pytest.raises(ConfigError):
        RunConfig(**good, lr=0.0)
    with pytest.raises(ConfigError):
        RunConfig(**good, weight_decay=-0.1)
    for field, value in (("lr", "inf"), ("lr", "nan"), ("weight_decay", "inf"), ("weight_decay", "nan")):
        with pytest.raises(ConfigError, match=field):
            RunConfig(**good, **{field: float(value)})
    with pytest.raises(ConfigError):
        RunConfig(**good, batch_size=1)
    with pytest.raises(ConfigError):
        RunConfig(**good, epochs=0)
    with pytest.raises(ConfigError):
        RunConfig(**good, warmup_steps=-1)
    with pytest.raises(ConfigError):
        RunConfig(**good, sampler_seed=-2)


@pytest.mark.parametrize(
    "field, value",
    [("batch_size", 4.0), ("epochs", 1.5), ("warmup_steps", 3.0), ("data_seed", True), ("init_seed", 0.0),
     ("sampler_seed", False)],
)
def test_integer_fields_refuse_floats_and_bools_before_any_write(dataset_dir, tmp_path, field, value):
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match=rf"^{field} must be an int >= \d.*, got {value!r}$"):
        run_training(tiny_config(dataset_dir, out, **{field: value}))
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, kind",
    [("lr", True, "a number"), ("weight_decay", False, "a number"), ("lr", "0.1", "a number"),
     ("preset", 5, "a str"), ("languages", "eng_Latn", "a tuple of str"), ("languages", ("eng_Latn", 1), "a tuple of str")],
)
def test_every_field_refuses_a_value_of_another_type(field, value, kind):
    assert set(training._FIELD_TYPES) == {f.name for f in dataclasses.fields(RunConfig)}
    with pytest.raises(ConfigError, match=rf"^{field} must be {kind}, got {re.escape(repr(value))}$"):
        RunConfig(dataset_dir="d", output_dir="o", **{field: value})


def test_single_letter_preset_accepted():
    RunConfig(dataset_dir="d", output_dir="o", preset="h")


def test_coerce_field():
    assert coerce_field("lr", "0.01") == 0.01
    assert coerce_field("batch_size", "8") == 8
    assert coerce_field("languages", "a,b") == ("a", "b")
    assert coerce_field("languages", "") == ()
    assert coerce_field("preset", "l-b") == "l-b"
    with pytest.raises(ConfigError):
        coerce_field("nope", "1")
    with pytest.raises(ConfigError):
        coerce_field("epochs", "three")


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\nlr=0.002\nbatch_size = 4\nlanguages=x,y\n", encoding="utf-8")
    values = read_config_file(cfg)
    assert values == {"lr": 0.002, "batch_size": 4, "languages": ("x", "y")}
    cfg.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_config_file(cfg)
    with pytest.raises(ConfigError):
        read_config_file(tmp_path / "absent.cfg")


def test_config_text_roundtrip_and_skip(tmp_path):
    config = RunConfig(dataset_dir="d", output_dir="o", languages=("a", "b"))
    text = config_to_text(config)
    assert text == (
        "batch_size=64\n"
        "data_seed=0\n"
        "dataset_dir=d\n"
        "epochs=10\n"
        "init_from=\n"
        "init_seed=0\n"
        "languages=a,b\n"
        "lr=0.0003\n"
        "optimizer=lion\n"
        "output_dir=o\n"
        "preset=l-b\n"
        "regime=full\n"
        "sampler_seed=4\n"
        "warmup_steps=20\n"
        "weight_decay=0.0\n"
    )
    written = tmp_path / "run.cfg"
    written.write_text(text, encoding="utf-8")
    assert RunConfig(**read_config_file(written)) == config
    trimmed = config_to_text(config, skip=("dataset_dir", "output_dir"))
    assert "dataset_dir" not in trimmed


def test_run_id_ignores_paths(dataset_dir, tmp_path):
    a = tiny_config(dataset_dir, tmp_path / "a")
    b = tiny_config(dataset_dir, tmp_path / "b")
    assert run_id_of(a) == run_id_of(b)
    c = tiny_config(dataset_dir, tmp_path / "a", lr=2e-3)
    assert run_id_of(c) != run_id_of(a)


def test_run_id_covers_the_split(dataset_dir, tmp_path):
    other = resplit(shutil.copytree(dataset_dir, tmp_path / "other"), 0.5)
    assert (other / MANIFEST_NAME).read_bytes() == (dataset_dir / MANIFEST_NAME).read_bytes()
    assert (other / SPLIT_NAME).read_bytes() != (dataset_dir / SPLIT_NAME).read_bytes()
    assert run_id_of(tiny_config(other, tmp_path / "a")) != run_id_of(tiny_config(dataset_dir, tmp_path / "a"))


def test_scheduled_lr_never_zero():
    base, warmup, total = 3e-4, 10, 50
    values = [optim.lr_schedule(s, total, base, warmup) for s in range(total)]
    assert all(v > 0 for v in values)
    assert values[warmup - 1] == pytest.approx(base)
    assert values[0] == pytest.approx(base / warmup)
    assert min(values) == values[-1]


def test_batch_iterator_drops_single_leftover():
    batches = list(training._iter_batches(list(range(9)), 4))
    assert [len(b) for b in batches] == [4, 4]  # trailing singleton dropped
    batches = list(training._iter_batches(list(range(10)), 4))
    assert [len(b) for b in batches] == [4, 4, 2]
    rng = np.random.default_rng(0)
    shuffled = list(training._iter_batches(list(range(8)), 4, rng))
    assert sorted(x for b in shuffled for x in b) == list(range(8))


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------

def test_run_produces_artifacts(dataset_dir, tmp_path):
    out = tmp_path / "run"
    result = run_training(tiny_config(dataset_dir, out))
    assert len(result.stats) == 2
    assert all(np.isfinite(s.train_loss) and np.isfinite(s.val_loss) for s in result.stats)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [training.EFFECTIVE_CONFIG, training.RECORD_FILE, training.LAST_CHECKPOINT, training.BEST_CHECKPOINT]
    )
    lines = [json.loads(l) for l in (out / training.RECORD_FILE).read_text().splitlines()]
    assert lines[0]["record"] == "run"
    assert [l["epoch"] for l in lines[1:]] == [0, 1]
    assert result.best_val_loss == min(s.val_loss for s in result.stats)


def test_no_gradient_outlives_the_run(dataset_dir, tmp_path):
    # each step's gradients are dropped after its optimizer step, the last step's too
    result = run_training(tiny_config(dataset_dir, tmp_path / "run", epochs=1))
    assert result.total_steps > 0
    assert [name for name, p in result.model.params.items() if p.grad is not None] == []


def test_training_graph_holds_no_mlp_hidden_arrays():
    # an l-b batch-64 step's graph: 31.6 MiB while each MLP kept its hidden
    # array (1024 x 512 float32 per image layer, 448 x 256 per text layer)
    corpus = generate_synthetic_corpus(64, 8, seed=3)
    vocab = Vocabulary.for_dataset(corpus)
    model = M.DualEncoderModel(M.ModelConfig.from_presets("l-b", vocab_size=vocab.size, max_text_len=16), init_seed=3)
    choices = sample_epoch(corpus.records, 0, 3, corpus.languages)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = training.batch_loss(model, corpus.records, choices, vocab)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    assert live < 26 * 2**20, f"the training graph holds {live / 2**20:.1f} MiB"


def test_two_runs_bitwise_identical(dataset_dir, tmp_path):
    a = run_training(tiny_config(dataset_dir, tmp_path / "a"))
    b = run_training(tiny_config(dataset_dir, tmp_path / "b"))
    assert Path(a.last_checkpoint).read_bytes() == Path(b.last_checkpoint).read_bytes()
    assert Path(a.best_checkpoint).read_bytes() == Path(b.best_checkpoint).read_bytes()


@pytest.mark.parametrize("regime", ["full", "text-encoder"])
def test_interrupted_run_resumes_bitwise(dataset_dir, tmp_path, regime):
    # a resumed frozen-tower run reads its image features from the dataset's store
    straight = run_training(tiny_config(dataset_dir, tmp_path / "s", epochs=3, regime=regime))

    calls = []
    def dying_log(message):
        calls.append(message)
        if len(calls) == 2:
            raise KeyboardInterrupt

    config = tiny_config(dataset_dir, tmp_path / "i", epochs=3, regime=regime)
    with pytest.raises(KeyboardInterrupt):
        run_training(config, log=dying_log)
    resumed = run_training(config)
    assert Path(resumed.last_checkpoint).read_bytes() == Path(straight.last_checkpoint).read_bytes()
    # run record keeps a single run entry across the restart
    lines = [json.loads(l) for l in (tmp_path / "i" / training.RECORD_FILE).read_text().splitlines()]
    assert sum(1 for l in lines if l["record"] == "run") == 1


def test_restart_after_kill_in_first_epoch_keeps_one_run_line(dataset_dir, tmp_path, monkeypatch):
    batch_loss = training.batch_loss
    calls = []

    def dying_batch_loss(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return batch_loss(*args, **kwargs)

    config = tiny_config(dataset_dir, tmp_path / "k")
    monkeypatch.setattr(training, "batch_loss", dying_batch_loss)
    with pytest.raises(KeyboardInterrupt):
        run_training(config)
    monkeypatch.setattr(training, "batch_loss", batch_loss)
    run_training(config)
    lines = [json.loads(l) for l in (tmp_path / "k" / training.RECORD_FILE).read_text().splitlines()]
    assert [l["record"] for l in lines] == ["run", "epoch", "epoch"]


@pytest.mark.parametrize("written", [False, True], ids=["before-record", "after-record"])
@pytest.mark.parametrize("epoch", [0, 1])
def test_kill_around_epoch_record_keeps_each_epoch_once(dataset_dir, tmp_path, monkeypatch, epoch, written):
    write_record = training.write_record

    def dying_write(out, entries):
        # the kill lands just before or just after the record write that adds this epoch's line
        if entries[-1].get("epoch") == epoch:
            if written:
                write_record(out, entries)
            raise KeyboardInterrupt
        write_record(out, entries)

    config = tiny_config(dataset_dir, tmp_path / "k", epochs=3)
    monkeypatch.setattr(training, "write_record", dying_write)
    with pytest.raises(KeyboardInterrupt):
        run_training(config)
    monkeypatch.setattr(training, "write_record", write_record)
    run_training(config)
    lines = [json.loads(l) for l in (tmp_path / "k" / training.RECORD_FILE).read_text().splitlines()]
    assert [l["record"] for l in lines] == ["run", "epoch", "epoch", "epoch"]
    assert [l["epoch"] for l in lines[1:]] == [0, 1, 2]
    assert not (tmp_path / "k" / (training.RECORD_FILE + ".tmp")).exists()


# every write of an uninterrupted 3-epoch run, in order (best.nclp improves each epoch);
# a record write is named by the kind of line it adds, a feature store write by its directory
WRITES = [training.EFFECTIVE_CONFIG, "run"] + [
    "epoch", training.BEST_CHECKPOINT, training.LAST_CHECKPOINT
] * 3
# a run whose image tower is frozen first fills the dataset's feature store
FROZEN_WRITES = [training.FEATURE_DIR] + WRITES
KILL_POINTS = [pytest.param("full", i, id=f"{i}-{n}") for i, n in enumerate(WRITES)] + [
    pytest.param("text-encoder", i, id=f"text-encoder-{i}-{n}") for i, n in enumerate(FROZEN_WRITES)
]


def _target(path) -> str:
    """The name WRITES gives the file a write goes to."""
    path = Path(path)
    return training.FEATURE_DIR if path.parent.name == training.FEATURE_DIR else path.name


def _route_writes(monkeypatch, on_write):
    """Send each file replacement through on_write(name, write)."""
    replace = M.replace_file

    def routed(path, chunks, tmp=None):
        name = _target(path)
        if name == training.RECORD_FILE:
            chunks = list(chunks)
            name = json.loads(b"".join(chunks).splitlines()[-1])["record"]
        on_write(name, lambda: replace(path, chunks, tmp))

    monkeypatch.setattr(M, "replace_file", routed)


def _straight_run(dataset_dir, out, regime):
    """Output dir of an uninterrupted 3-epoch run, and the names of its writes."""
    names = []
    with pytest.MonkeyPatch.context() as mp:
        _route_writes(mp, lambda name, write: (names.append(name), write()))
        run_training(tiny_config(dataset_dir, out, epochs=3, regime=regime))
    return out, names


@pytest.fixture(scope="module")
def three_epoch_run(dataset_dir, tmp_path_factory):
    return _straight_run(dataset_dir, tmp_path_factory.mktemp("straight"), "full")


@pytest.fixture(scope="module")
def frozen_three_epoch_run(tmp_path_factory):
    data = make_dataset(tmp_path_factory.mktemp("data") / "ds")  # no feature store yet
    return _straight_run(data, tmp_path_factory.mktemp("straight"), "text-encoder")


def _file_of(write: str) -> str:
    return training.RECORD_FILE if write in ("run", "epoch") else write


@pytest.mark.parametrize("when", ["before", "after", "mid"])
@pytest.mark.parametrize("regime, point", KILL_POINTS)
def test_kill_at_every_write_resumes_bitwise(dataset_dir, tmp_path, monkeypatch, request, regime, point, when):
    frozen = regime != "full"
    straight, names = request.getfixturevalue("frozen_three_epoch_run" if frozen else "three_epoch_run")
    writes = FROZEN_WRITES if frozen else WRITES
    assert names == writes  # so the cases cover every write the run makes
    seen = []

    def dying_write(name, write):
        seen.append(name)
        if len(seen) == point + 1:
            if when == "after":
                write()
            raise KeyboardInterrupt
        write()

    data = make_dataset(tmp_path / "ds") if frozen else dataset_dir
    out = tmp_path / "k"
    config = tiny_config(data, out, epochs=3, regime=regime)
    store_tmp = f"{training.FEATURE_DIR}/*.tmp"
    if when == "mid":
        # the kill leaves a prefix of this write's bytes in a temporary file
        name = _file_of(writes[point])
        nth = [_file_of(w) for w in writes[: point + 1]].count(name)
        monkeypatch.setattr(M, "open", _dying_open(name, nth), raising=False)
    else:
        _route_writes(monkeypatch, dying_write)
    with pytest.raises(KeyboardInterrupt):
        run_training(config)
    if when == "mid":
        # a run-directory write leaves its prefix behind; a store write removes its own
        torn = [*out.glob("*.tmp"), *data.glob(store_tmp)]
        store = writes[point] == training.FEATURE_DIR
        assert torn == ([] if store else [out / f"{_file_of(writes[point])}.tmp"])
    monkeypatch.undo()
    run_training(config)
    for name in (training.LAST_CHECKPOINT, training.BEST_CHECKPOINT):
        assert (out / name).read_bytes() == (straight / name).read_bytes()
    lines = [json.loads(l) for l in (out / training.RECORD_FILE).read_text().splitlines()]
    assert [l.get("epoch", l["record"]) for l in lines] == ["run", 0, 1, 2]
    assert not list(out.glob("*.tmp")) and not list(data.glob(store_tmp))
    if frozen:
        assert len(list(data.glob(f"{training.FEATURE_DIR}/*.nclp"))) == 1


def test_empty_record_file_restarts_with_a_run_line(dataset_dir, tmp_path):
    out = tmp_path / "k"
    out.mkdir()
    (out / training.RECORD_FILE).write_bytes(b"")
    run_training(tiny_config(dataset_dir, out))
    lines = [json.loads(l) for l in (out / training.RECORD_FILE).read_text().splitlines()]
    assert [l["record"] for l in lines] == ["run", "epoch", "epoch"]


def test_torn_record_tail_of_an_older_append_resumes_bitwise(dataset_dir, tmp_path, three_epoch_run):
    # an older version appended each line in place: a kill inside epoch 1's append tore it
    straight, _ = three_epoch_run
    out = tmp_path / "k"
    config = tiny_config(dataset_dir, out, epochs=3)
    with pytest.raises(KeyboardInterrupt):
        run_training(config, log=_interrupt)  # the first log line follows epoch 0's last.nclp
    line = json.dumps({"record": "epoch", "epoch": 1, "run_id": run_id_of(config.resolved())})
    with open(out / training.RECORD_FILE, "a", encoding="utf-8") as fh:
        fh.write(line[: len(line) // 2])
    run_training(config)
    for name in (training.LAST_CHECKPOINT, training.BEST_CHECKPOINT):
        assert (out / name).read_bytes() == (straight / name).read_bytes()
    lines = [json.loads(l) for l in (out / training.RECORD_FILE).read_text().splitlines()]
    assert [l.get("epoch", l["record"]) for l in lines] == ["run", 0, 1, 2]


def test_finished_run_with_a_torn_record_is_refused(dataset_dir, tmp_path):
    # dropping the torn epoch 1 line would lose it: last.nclp already resumes at epoch 2
    out = tmp_path / "k"
    config = tiny_config(dataset_dir, out)
    run_training(config)
    path = out / training.RECORD_FILE
    path.write_bytes(path.read_bytes()[:-20])
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with pytest.raises(ConfigError) as exc:
        run_training(config)
    assert exc.value.code == "E_CONFIG"
    assert "--force" in str(exc.value) and "\n" not in str(exc.value)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("optstate", [False, True], ids=["alone", "with-optstate"])
def test_two_file_run_directory_refused(dataset_dir, tmp_path, optstate):
    # the older layout: a model-only last.nclp, its optimizer state in last.optstate
    out = tmp_path / "old"
    config = tiny_config(dataset_dir, out, epochs=1)
    run_training(config)
    model, name, state = M.read_checkpoint(out / training.LAST_CHECKPOINT)
    M.save_checkpoint(model, out / training.LAST_CHECKPOINT)
    if optstate:
        meta, arrays = optim.state_to_arrays(state)
        M.write_tensor_file(out / "last.optstate", {"optimizer": name, "state": meta}, arrays)
    before = (out / training.LAST_CHECKPOINT).read_bytes()
    with pytest.raises(CheckpointFormatError) as exc:
        run_training(config)
    assert exc.value.code == "E_CHECKPOINT_FORMAT"
    assert "--force" in str(exc.value) and "\n" not in str(exc.value)
    assert (out / training.LAST_CHECKPOINT).read_bytes() == before


class _HalfWrite:
    """A file handle that writes half of its first write's bytes, then dies."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise KeyboardInterrupt


def _dying_open(name, nth):
    """open() that kills the nth write of a file whose WRITES name starts with name halfway through."""
    writes = []

    def dying_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "w" in mode and _target(path).startswith(name):
            writes.append(path)
            if len(writes) == nth:
                return _HalfWrite(fh)
        return fh

    return dying_open


def test_kill_while_writing_last_checkpoint_keeps_the_previous_one(dataset_dir, tmp_path, monkeypatch):
    straight = run_training(tiny_config(dataset_dir, tmp_path / "s", epochs=3))
    config = tiny_config(dataset_dir, tmp_path / "k", epochs=3)
    # the kill lands halfway through epoch 1's last.nclp bytes
    monkeypatch.setattr(M, "open", _dying_open(training.LAST_CHECKPOINT, 2), raising=False)
    with pytest.raises(KeyboardInterrupt):
        run_training(config)
    monkeypatch.undo()
    resumed = run_training(config)
    assert Path(resumed.last_checkpoint).read_bytes() == Path(straight.last_checkpoint).read_bytes()
    assert not list((tmp_path / "k").glob("*.tmp"))


def test_kill_while_writing_effective_config_restarts_cleanly(dataset_dir, tmp_path, monkeypatch):
    straight = run_training(tiny_config(dataset_dir, tmp_path / "s", epochs=1))
    config = tiny_config(dataset_dir, tmp_path / "k", epochs=1)
    monkeypatch.setattr(M, "open", _dying_open(training.EFFECTIVE_CONFIG, 1), raising=False)
    with pytest.raises(KeyboardInterrupt):
        run_training(config)
    monkeypatch.undo()
    assert not (tmp_path / "k" / training.EFFECTIVE_CONFIG).exists()
    restarted = run_training(config)
    assert Path(restarted.last_checkpoint).read_bytes() == Path(straight.last_checkpoint).read_bytes()
    assert (tmp_path / "k" / training.EFFECTIVE_CONFIG).read_text() == config_to_text(config)
    assert not list((tmp_path / "k").glob("*.tmp"))


def test_config_mismatch_refused(dataset_dir, tmp_path):
    out = tmp_path / "run"
    run_training(tiny_config(dataset_dir, out, epochs=1))
    with pytest.raises(ConfigError):
        run_training(tiny_config(dataset_dir, out, epochs=1, lr=9e-4))


def _interrupt(*_args, **_kwargs):
    raise KeyboardInterrupt


@pytest.mark.parametrize("kill", ["after-first-checkpoint", "before-any-checkpoint"])
def test_resume_refuses_a_run_of_another_dataset(tmp_path, monkeypatch, kill):
    # the corpus is regenerated at the same path: config.effective still matches
    data, out = make_dataset(tmp_path / "ds"), tmp_path / "run"
    config = tiny_config(data, out)
    log = None
    if kill == "after-first-checkpoint":
        log = _interrupt  # the first log line follows epoch 0's last.nclp
    else:
        monkeypatch.setattr(training, "batch_loss", _interrupt)  # the run line is written
    with pytest.raises(KeyboardInterrupt):
        run_training(config, log=log)
    monkeypatch.undo()
    assert (out / training.LAST_CHECKPOINT).exists() == (kill == "after-first-checkpoint")
    shutil.rmtree(data)
    make_dataset(data, seed=4)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    with pytest.raises(ConfigError) as exc:
        run_training(config)
    assert exc.value.code == "E_CONFIG"
    assert "--force" in str(exc.value) and "\n" not in str(exc.value)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("kill", ["after-first-checkpoint", "before-any-checkpoint"])
def test_resume_refuses_a_changed_split(tmp_path, monkeypatch, kill):
    # the same corpus split again at the same path: only splits.tsv changes
    data, out = make_dataset(tmp_path / "ds"), tmp_path / "run"
    config = tiny_config(data, out)
    log = None
    if kill == "after-first-checkpoint":
        log = _interrupt  # the first log line follows epoch 0's last.nclp
    else:
        monkeypatch.setattr(training, "batch_loss", _interrupt)  # the run line is written
    with pytest.raises(KeyboardInterrupt):
        run_training(config, log=log)
    monkeypatch.undo()
    assert (out / training.LAST_CHECKPOINT).exists() == (kill == "after-first-checkpoint")
    manifest = (data / MANIFEST_NAME).read_bytes()
    resplit(data, 0.5)
    assert (data / MANIFEST_NAME).read_bytes() == manifest
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    with pytest.raises(ConfigError) as exc:
        run_training(config)
    assert exc.value.code == "E_CONFIG"
    assert "--force" in str(exc.value) and "\n" not in str(exc.value)
    assert run_id_of(config.resolved()) in str(exc.value)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("moved", ["output", "dataset"])
def test_a_moved_directory_resumes_bitwise(dataset_dir, tmp_path, three_epoch_run, moved):
    straight, _ = three_epoch_run
    data, out = shutil.copytree(dataset_dir, tmp_path / "ds"), tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):  # stopped after epoch 0's checkpoints
        run_training(tiny_config(data, out, epochs=3), log=_interrupt)
    if moved == "output":
        out = shutil.move(out, tmp_path / "moved")
    else:
        data = shutil.move(data, tmp_path / "moved")
    config = tiny_config(data, out, epochs=3)
    run_training(config)
    for name in (training.LAST_CHECKPOINT, training.BEST_CHECKPOINT):
        assert (Path(out) / name).read_bytes() == (straight / name).read_bytes()
    effective = (Path(out) / training.EFFECTIVE_CONFIG).read_text(encoding="utf-8")
    assert effective == config_to_text(config.resolved())
    assert f"={tmp_path / 'moved'}\n" in effective


def test_resume_refuses_a_last_checkpoint_of_another_run(dataset_dir, tmp_path):
    outs = [tmp_path / "one", tmp_path / "two"]
    for seed, out in enumerate(outs, start=1):
        with pytest.raises(KeyboardInterrupt):  # stopped after epoch 0's checkpoints
            run_training(tiny_config(dataset_dir, out, init_seed=seed), log=_interrupt)
    shutil.copyfile(outs[0] / training.LAST_CHECKPOINT, outs[1] / training.LAST_CHECKPOINT)
    before = {path.name: path.read_bytes() for path in outs[1].iterdir()}
    with pytest.raises(ConfigError) as exc:
        run_training(tiny_config(dataset_dir, outs[1], init_seed=2))
    assert run_id_of(tiny_config(dataset_dir, outs[0], init_seed=1)) in str(exc.value)
    assert "--force" in str(exc.value) and "\n" not in str(exc.value)
    assert {path.name: path.read_bytes() for path in outs[1].iterdir()} == before


def test_freeze_regimes_pin_parameters(dataset_dir, tmp_path):
    for regime, prefixes in (("text-encoder", ("image/",)), ("projection", ("image/", "text/"))):
        config = tiny_config(dataset_dir, tmp_path / regime, epochs=1, regime=regime)
        result = run_training(config)
        fresh = M.DualEncoderModel(result.model.config, init_seed=config.init_seed)
        for name, p in result.model.params.items():
            started_frozen = name.startswith(prefixes)
            same = np.array_equal(p.data, fresh.params[name].data)
            assert same == started_frozen, (regime, name)


def test_projection_regime_still_learns_scale(dataset_dir, tmp_path):
    result = run_training(tiny_config(dataset_dir, tmp_path / "p", epochs=1, regime="projection"))
    assert float(result.model.params["logit_scale"].data) != pytest.approx(
        float(np.log(1 / 0.07)), abs=1e-9
    )


def test_language_subset_and_unknown_language(dataset_dir, tmp_path):
    result = run_training(
        tiny_config(dataset_dir, tmp_path / "one", epochs=1, languages=("eng_Latn",))
    )
    assert len(result.stats) == 1
    with pytest.raises(ConfigError):
        run_training(tiny_config(dataset_dir, tmp_path / "bad", languages=("zz_Ciph",)))


def test_a_repeated_language_is_refused_before_anything_is_written(dataset_dir, tmp_path):
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match=r"more than once: \['eng_Latn'\]"):
        run_training(tiny_config(dataset_dir, out, languages=("eng_Latn", "aab_Ciph", "eng_Latn")))
    assert not out.exists()


def test_init_from_a_checkpoint_without_stored_tokens_is_checked_by_size_only(dataset_dir, tmp_path):
    stage1 = run_training(tiny_config(dataset_dir, tmp_path / "s1", epochs=1))
    bare = tmp_path / "bare.nclp"  # an older file: no "vocabulary" in its metadata
    M.save_checkpoint(M.load_checkpoint(stage1.last_checkpoint), bare, {"stage": 1})
    run_training(tiny_config(dataset_dir, tmp_path / "s2", epochs=1, init_from=str(bare)))
    smaller = M.DualEncoderModel(dataclasses.replace(stage1.model.config, vocab_size=6))
    M.save_checkpoint(smaller, bare, {"stage": 1})
    with pytest.raises(ConfigError, match=re.escape(f"{bare} holds a model config that does not match")):
        run_training(tiny_config(dataset_dir, tmp_path / "s3", epochs=1, init_from=str(bare)))
    assert not (tmp_path / "s3").exists()


def test_init_from_checkpoint(dataset_dir, tmp_path):
    stage1 = run_training(
        tiny_config(dataset_dir, tmp_path / "s1", epochs=1, languages=("eng_Latn",))
    )
    stage2 = run_training(
        tiny_config(
            dataset_dir,
            tmp_path / "s2",
            epochs=1,
            regime="text-encoder",
            init_from=stage1.best_checkpoint,
        )
    )
    # image tower inherited from stage 1 and untouched by the frozen stage 2
    s1 = M.load_checkpoint(stage1.best_checkpoint)
    for name, p in stage2.model.params.items():
        if name.startswith("image/"):
            assert np.array_equal(p.data, s1.params[name].data)


def test_init_from_last_checkpoint_starts_a_fresh_optimizer_state(dataset_dir, tmp_path):
    stage1 = run_training(tiny_config(dataset_dir, tmp_path / "s1", epochs=1))
    model_only = tmp_path / "model-only.nclp"
    M.save_checkpoint(M.load_checkpoint(stage1.last_checkpoint), model_only)
    runs = [
        run_training(tiny_config(dataset_dir, tmp_path / f"s2-{i}", epochs=1, init_from=str(source)))
        for i, source in enumerate((stage1.last_checkpoint, model_only))
    ]
    (header, carried), (_, fresh) = (M.read_tensor_file(r.last_checkpoint) for r in runs)
    assert carried.keys() == fresh.keys()
    assert all(np.array_equal(carried[name], fresh[name]) for name in carried)
    assert header["optimizer"]["step_count"] == runs[0].total_steps


def test_init_from_mismatched_config(dataset_dir, tmp_path):
    stage1 = run_training(tiny_config(dataset_dir, tmp_path / "m1", epochs=1))
    with pytest.raises(ConfigError):
        run_training(
            tiny_config(
                dataset_dir, tmp_path / "m2", preset="l-b", init_from=stage1.best_checkpoint
            )
        )


def frozen_batch(dataset_dir, size, regime):
    """A b-b model frozen for ``regime``, plus one batch of records and its plan."""
    dataset = load_dataset(dataset_dir)
    vocab = Vocabulary.for_dataset(dataset)
    records = dataset.records[:size]
    choices = sample_epoch(records, 0, 4, dataset.languages)
    cfg = M.ModelConfig.from_presets("b-b", vocab.size, training.MAX_TEXT_LEN, image_size=16)
    model = M.DualEncoderModel(cfg, init_seed=0)
    M.apply_freeze(model, M.FreezeRegime(regime))
    return model, records, choices, vocab


@pytest.mark.parametrize(
    "regime, frozen",
    [("text-encoder", ("image/",)), ("projection", ("image/", "text/"))],
    ids=["text-encoder", "projection"],
)
def test_frozen_parameters_get_no_gradient(dataset_dir, tmp_path, regime, frozen):
    model, records, choices, vocab = frozen_batch(dataset_dir, 8, regime)
    cache = training.frozen_image_features(model, records, tmp_path, print)
    for image_cache in (None, cache):
        model.zero_grad()
        training.batch_loss(model, records, choices, vocab, image_cache=image_cache).backward()
        for name, p in model.params.items():
            assert (p.grad is None) == name.startswith(frozen), (image_cache, name)


def test_image_cache_gives_the_same_loss_and_gradients(dataset_dir, tmp_path):
    model, records, choices, vocab = frozen_batch(dataset_dir, 12, "text-encoder")
    computed = training.frozen_image_features(model, records, tmp_path, print)
    stored = training.frozen_image_features(model, records, tmp_path, print)
    outcomes = []
    for image_cache in (None, computed, stored):
        model.zero_grad()
        loss = training.batch_loss(model, records, choices, vocab, image_cache=image_cache)
        loss.backward()
        grads = {n: p.grad.tobytes() for n, p in model.params.items() if p.grad is not None}
        outcomes.append((loss.data.tobytes(), grads))
    assert set(computed) == set(stored) == {r.id for r in records}
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_validation_loss_builds_no_graph(dataset_dir, monkeypatch):
    model, records, choices, vocab = frozen_batch(dataset_dir, 20, "full")
    expected = sum(  # the loss through the trainable parameters themselves
        float(training.batch_loss(model, batch, choices, vocab).data) * len(batch)
        for batch in training._iter_batches(records, 8)
    ) / len(records)
    losses, clip_loss = [], training.clip_loss

    def recording_clip_loss(logits):
        losses.append(clip_loss(logits))
        return losses[-1]

    monkeypatch.setattr(training, "clip_loss", recording_clip_loss)
    assert training.dataset_loss(model, records, choices, vocab, 8) == expected
    assert len(losses) == 3
    assert all(loss._backward is None and loss._parents == () for loss in losses)
    assert all(p.requires_grad for p in model.params.values())


def test_validation_loss_of_a_trainable_model_equals_its_frozen_view(dataset_dir):
    model, records, choices, vocab = frozen_batch(dataset_dir, 60, "text-encoder")
    flags = {name: p.requires_grad for name, p in model.params.items()}

    def traced(call):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            return call(), tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    expected, frozen_peak = traced(lambda: training.dataset_loss(M.frozen(model), records, choices, vocab, 60))
    loss, peak = traced(lambda: training.dataset_loss(model, records, choices, vocab, 60))
    assert loss == expected
    assert {name: p.requires_grad for name, p in model.params.items()} == flags
    assert all(p.grad is None for p in model.params.values())
    assert peak < 1.1 * frozen_peak + 2**16, (peak, frozen_peak)


# ---------------------------------------------------------------------------
# image feature store
# ---------------------------------------------------------------------------

def _stored(data):
    return sorted(Path(data).glob(f"{training.FEATURE_DIR}/*.nclp"))


def _frozen_run(data, out, log=None, **overrides):
    """last.nclp bytes of a 2-epoch text-encoder run."""
    config = tiny_config(data, out, regime="text-encoder", **overrides)
    return Path(run_training(config, log=log).last_checkpoint).read_bytes()


def _counted_image_features(monkeypatch):
    """Image counts of every ``model.image_features`` call from here on."""
    calls, image_features = [], M.image_features

    def counting(model, images):
        calls.append(len(images))
        return image_features(model, images)

    monkeypatch.setattr(M, "image_features", counting)
    return calls


def _stage1(data, path, seed):
    vocab = Vocabulary.for_dataset(load_dataset(data))
    cfg = M.ModelConfig.from_presets("b-b", vocab.size, training.MAX_TEXT_LEN, image_size=16)
    M.save_checkpoint(M.DualEncoderModel(cfg, init_seed=seed), path)
    return str(path)


def test_a_run_of_another_image_tower_replaces_a_store_file_of_another_key(tmp_path, monkeypatch):
    data, plain = make_dataset(tmp_path / "ds"), make_dataset(tmp_path / "plain")
    one, two = (_stage1(data, tmp_path / f"stage1-{seed}.nclp", seed) for seed in (1, 2))
    _frozen_run(data, tmp_path / "one", init_from=one)
    [first] = _stored(data)
    key = training.image_tower_key(M.load_checkpoint(two))
    other = first.with_name(f"{key[:16]}.nclp")
    shutil.copyfile(first, other)  # another tower's rows, at tower two's name
    expected = _frozen_run(plain, tmp_path / "plain-two", init_from=two)
    calls = _counted_image_features(monkeypatch)
    assert _frozen_run(data, tmp_path / "two", init_from=two) == expected
    header, _ = M.read_tensor_file(other)
    assert header["key"] == key and calls == [len(header["rows"])]  # one call, no stored row used
    assert other.read_bytes() == _stored(plain)[0].read_bytes()
    assert _stored(data) == sorted([first, other])


def _pixel_file_digests(data) -> set:
    """sha256 of the pixel file bytes of every train and validation record."""
    ids = {rid for part in load_split(data) for rid in part}
    return {hashlib.sha256(r.get_pixels()).hexdigest() for r in load_dataset(data).records if r.id in ids}


def test_a_rewritten_pixel_file_recomputes_that_image_only(tmp_path, monkeypatch):
    data = make_dataset(tmp_path / "ds")
    _frozen_run(data, tmp_path / "a")
    [path] = _stored(data)
    train_ids, _ = load_split(data)
    by_id = {r.id: r for r in load_dataset(data).records}
    first, second, third = (by_id[rid] for rid in train_ids[:3])
    with open(data / PIXEL_FILE, "r+b") as fh:  # rewrite two records' slots in place
        nbytes = first.get_pixels().nbytes
        fh.seek(PIXEL_HEADER.size + first.slot * nbytes)
        fh.write(255 - first.get_pixels())  # an image of its own
        fh.seek(PIXEL_HEADER.size + second.slot * nbytes)
        fh.write(third.get_pixels())  # a copy shares its original's row
    plain = shutil.copytree(data, tmp_path / "plain", ignore=shutil.ignore_patterns(training.FEATURE_DIR))
    expected = _frozen_run(plain, tmp_path / "p")
    calls = _counted_image_features(monkeypatch)
    assert _frozen_run(data, tmp_path / "b") == expected
    assert calls == [1, 1]  # the check row, then the rewritten image
    # the old row of the rewritten file is dropped: one row per distinct image of the run
    assert len(M.read_tensor_file(path)[0]["rows"]) == len(_pixel_file_digests(data))


def test_store_rows_are_keyed_by_the_sha256_of_the_pixel_file_bytes(tmp_path):
    # so a store written before records stopped keeping their pixels is still read
    data = make_dataset(tmp_path / "ds")
    _frozen_run(data, tmp_path / "a")
    [path] = _stored(data)
    assert M.read_tensor_file(path)[0]["rows"] == sorted(_pixel_file_digests(data))


def test_a_full_run_keeps_no_record_pixels(dataset_dir, tmp_path, monkeypatch):
    loaded, load = [], training.load_dataset
    monkeypatch.setattr(training, "load_dataset", lambda path: loaded.append(load(path)) or loaded[-1])
    run_training(tiny_config(dataset_dir, tmp_path / "run", regime="full"))
    [dataset] = loaded
    assert all(r.pixel_file is not None and r.pixels is None for r in dataset.records)


def test_the_store_fill_and_pixel_batch_keep_no_record_pixels(tmp_path):
    data = make_dataset(tmp_path / "ds")
    model, records, _, _ = frozen_batch(data, 60, "text-encoder")
    rows = training.frozen_image_features(model, records, data, print)
    assert len(rows) == len(records) and all(r.pixels is None for r in records)
    assert pixel_batch(records).shape == (len(records), 3, 16, 16)
    assert all(r.pixels is None for r in records)


def test_a_truncated_store_file_is_refused_in_one_line(tmp_path):
    data = make_dataset(tmp_path / "ds")
    expected = _frozen_run(data, tmp_path / "a")
    [path] = _stored(data)
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(CheckpointIntegrityError) as exc:
        _frozen_run(data, tmp_path / "b")
    message = str(exc.value)
    assert exc.value.code == "E_CHECKPOINT_INTEGRITY" and "\n" not in message
    assert str(path) in message and "derived" in message and "may be deleted" in message
    assert not (tmp_path / "b" / training.RECORD_FILE).exists()  # refused before any run write
    path.unlink()
    assert _frozen_run(data, tmp_path / "b") == expected


def test_a_failed_store_write_does_not_stop_the_run(tmp_path, monkeypatch):
    expected = _frozen_run(make_dataset(tmp_path / "plain"), tmp_path / "p")
    data = make_dataset(tmp_path / "ds")
    replace = M.replace_file

    def full_disk_store(path, chunks, tmp=None):
        if Path(path).parent.name == training.FEATURE_DIR:
            Path(tmp).write_bytes(next(iter(chunks)))  # the disk fills after the first chunk
            raise OSError(28, "No space left on device", str(tmp))
        replace(path, chunks, tmp)

    monkeypatch.setattr(M, "replace_file", full_disk_store)
    messages = []
    assert _frozen_run(data, tmp_path / "a", log=messages.append) == expected
    assert not list((data / training.FEATURE_DIR).iterdir())  # no file, no temporary file
    assert [m for m in messages if "image features not stored" in m and "No space" in m]


def test_a_store_file_whose_check_row_differs_is_not_used(tmp_path):
    data = make_dataset(tmp_path / "ds")
    expected = _frozen_run(data, tmp_path / "a")
    [path] = _stored(data)
    good = path.read_bytes()
    header, arrays = M.read_tensor_file(path)
    # one unit in the last place, as a file another BLAS build wrote might differ
    M.write_tensor_file(path, header, {"features": np.nextafter(arrays["features"], np.float32(np.inf))})
    messages = []
    assert _frozen_run(data, tmp_path / "b", log=messages.append) == expected
    assert path.read_bytes() == good  # replaced by the recomputed rows
    assert [m for m in messages if str(path) in m and "differs" in m]


def _store_writer(dataset_dir, worker, workers, rounds):
    """One of several processes that each add an image to one store, ``rounds`` times."""
    dataset = load_dataset(dataset_dir)
    vocab = Vocabulary.for_dataset(dataset)
    cfg = M.ModelConfig.from_presets("b-b", vocab.size, training.MAX_TEXT_LEN, image_size=16)
    model = M.DualEncoderModel(cfg, init_seed=0)
    M.apply_freeze(model, M.FreezeRegime.TEXT_ENCODER)
    def fail(message):  # a failed write or a mismatched row: nothing is logged in this test
        raise SystemExit(f"worker {worker}: {message}")

    for i in range(rounds):
        pair = [dataset.records[0], dataset.records[1 + (i * workers + worker) % (len(dataset) - 1)]]
        rows = training.frozen_image_features(model, pair, dataset_dir, fail)
        expected = M.image_features(model, pixel_batch(pair)).data
        if np.stack([rows[r.id] for r in pair]).tobytes() != expected.tobytes():
            fail("a row read back differs")


def test_concurrent_writers_never_tear_the_store(tmp_path):
    data = make_dataset(tmp_path / "ds")
    context = multiprocessing.get_context("spawn")
    workers = [context.Process(target=_store_writer, args=(str(data), w, 3, 20)) for w in range(3)]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert [(w.is_alive(), w.exitcode) for w in workers] == [(False, 0)] * 3
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.kill()
                worker.join()
    [path] = _stored(data)
    M.read_tensor_file(path)  # whole
    assert not list(data.glob(f"{training.FEATURE_DIR}/*.tmp"))


def test_a_full_run_never_touches_the_store(tmp_path, monkeypatch):
    data = make_dataset(tmp_path / "ds")
    monkeypatch.setattr(training, "image_tower_key", None)  # any hashing would raise
    run_training(tiny_config(data, tmp_path / "a", epochs=1))
    assert not (data / training.FEATURE_DIR).exists()


def test_non_finite_loss_aborts(dataset_dir, tmp_path, monkeypatch):
    def poisoned(model, records, choices, vocab, **_):
        return T.Tensor(np.float32(np.nan))

    monkeypatch.setattr(training, "batch_loss", poisoned)
    with pytest.raises(TrainingError) as exc:
        run_training(tiny_config(dataset_dir, tmp_path / "nan"))
    assert "epoch 0" in str(exc.value) and "step 0" in str(exc.value)


def test_missing_paths_and_split(tmp_path):
    with pytest.raises(ConfigError):
        run_training(RunConfig(dataset_dir="", output_dir=str(tmp_path)))
    ds = generate_synthetic_corpus(10, 1, image_size=16, seed=0)
    save_dataset(ds, tmp_path / "nosplit")
    with pytest.raises(DatasetFormatError):
        run_training(tiny_config(tmp_path / "nosplit", tmp_path / "out"))


def test_adamw_and_lion8_run(dataset_dir, tmp_path):
    for optimizer in ("adamw", "lion8"):
        result = run_training(
            tiny_config(dataset_dir, tmp_path / optimizer, epochs=1, optimizer=optimizer)
        )
        assert np.isfinite(result.stats[0].val_loss)


def test_run_training_steps_through_the_module_attribute(dataset_dir, tmp_path, monkeypatch):
    # perfbench wraps optim.lion_step and reads params (args[0]) and the state (args[2])
    calls, lion_step = [], optim.lion_step

    def wrapped(*args, **kwargs):
        calls.append(args)
        return lion_step(*args, **kwargs)

    monkeypatch.setattr(optim, "lion_step", wrapped)
    result = run_training(tiny_config(dataset_dir, tmp_path / "w", epochs=1))
    assert len(calls) == result.total_steps > 0
    for args in calls:
        assert set(args[0]) == set(result.model.params)
        assert all(isinstance(p, T.Tensor) for p in args[0].values())
        assert isinstance(args[2], optim.OptimizerState)


def test_resume_optimizer_mismatch(dataset_dir, tmp_path):
    out = tmp_path / "run"
    run_training(tiny_config(dataset_dir, out, epochs=1))
    # same effective config except the optimizer: refuse before touching state
    with pytest.raises(ConfigError):
        run_training(tiny_config(dataset_dir, out, epochs=1, optimizer="adamw"))


def test_resume_refuses_a_checkpoint_of_another_optimizer(dataset_dir, tmp_path):
    out = tmp_path / "run"
    config = tiny_config(dataset_dir, out, epochs=1)
    run_training(config)
    header, arrays = M.read_tensor_file(out / training.LAST_CHECKPOINT)
    header["optimizer"]["name"] = "adamw"
    M.write_tensor_file(out / training.LAST_CHECKPOINT, header, arrays)
    with pytest.raises(ConfigError, match="saved optimizer 'adamw'"):
        run_training(config)
