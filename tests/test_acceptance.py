"""End-to-end acceptance checks for the whole pipeline.

Every test covers one headline guarantee and prints a single PASS/FAIL line.
The heavier checks share a toy corpus and trained runs built once per session;
all seeds and hyperparameters are pinned, so results are bit-reproducible.
"""

import hashlib
import inspect
import math
import time
from pathlib import Path

import numpy as np
import pytest

import clipforge.tensor as T
from clipforge import cli, data, evaluation, optim, training
from clipforge import model as M
from clipforge.contrastive import clip_loss, similarity
from clipforge.data import Vocabulary, tokenize
from clipforge.errors import DatasetFormatError
from fdcheck import max_rel_error, numeric_grads

# pinned choices for the bundled experiments
LOSS_SANITY_INIT_SEED = 6
RACE_LR = 1e-4  # shared learning rate at which the optimizer race is run
RACE_EPOCHS = 5
STAGE2_EPOCHS = 12
STAGE2_SEEDS = (0, 1, 2)
PAIRED_STEPS = 200

_TIMINGS: dict = {}


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared toy artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def toy_dataset(tmp_path_factory):
    """The bundled toy corpus: datagen defaults (2,000 images, 8 languages)."""
    root = tmp_path_factory.mktemp("acceptance") / "dataset"
    t0 = time.monotonic()
    assert cli.main(["datagen", "--output", str(root)]) == 0
    _TIMINGS["datagen"] = time.monotonic() - t0
    return root


@pytest.fixture(scope="session")
def toy_run(toy_dataset, tmp_path_factory):
    """The bundled default training run (preset l-b, lion, lr 3e-4, 10 epochs)."""
    out = tmp_path_factory.mktemp("acceptance") / "default-run"
    cfg = training.RunConfig(dataset_dir=str(toy_dataset), output_dir=str(out))
    t0 = time.monotonic()
    result = training.run_training(cfg)
    _TIMINGS["train"] = time.monotonic() - t0
    return result


def _val_subset(dataset_dir):
    ds = data.load_dataset(dataset_dir)
    _, val_ids = data.load_split(dataset_dir)
    by_id = {r.id: r for r in ds.records}
    subset = data.Dataset(
        records=[by_id[i] for i in val_ids], languages=list(ds.languages)
    )
    return ds, subset


def _train_records(dataset_dir):
    ds = data.load_dataset(dataset_dir)
    train_ids, _ = data.load_split(dataset_dir)
    by_id = {r.id: r for r in ds.records}
    return ds, [by_id[i] for i in train_ids]


# ---------------------------------------------------------------------------
# gradient correctness: per-op and composed finite-difference checks
# ---------------------------------------------------------------------------

def _op_cases(rng):
    """One randomized instance per differentiable op: (name, leaves, forward).

    Leaves are float64 tensors created once; forward rebuilds the graph from
    them, so in-place perturbation of leaf data re-evaluates the op.
    """

    def leaf(*shape):
        return T.Tensor(
            rng.uniform(-1.0, 1.0, size=shape), requires_grad=True, dtype=np.float64
        )

    ids = rng.integers(0, 6, size=(2, 3))
    mask = np.zeros((2, 4), dtype=np.float64)
    for row in mask:
        row[rng.permutation(4)[: rng.integers(1, 5)]] = 1.0
    targets = rng.integers(0, 5, size=4)
    axis = [None, 0, 1][rng.integers(3)]
    clamped = leaf(3, 4)
    clamped.data[np.abs(clamped.data - 0.3) < 5e-3] += 0.02  # stay off the kink
    normed = leaf(3, 5)
    normed.data += np.sign(normed.data) * 0.2  # rows bounded away from zero

    cases = []

    def case(name, leaves, forward):
        cases.append((name, leaves, forward))

    a, b = leaf(3, 4), leaf(3, 4)
    case("add", [a, b], lambda a=a, b=b: T.add(a, b))
    a, b = leaf(3, 4), leaf(4)
    case("add broadcast", [a, b], lambda a=a, b=b: T.add(a, b))
    a, b = leaf(3, 4), leaf(3, 4)
    case("mul", [a, b], lambda a=a, b=b: T.mul(a, b))
    a = leaf(3, 4)
    case("scale", [a], lambda a=a: T.scale(a, 0.73))
    a, b = leaf(3, 4), leaf(4, 2)
    case("matmul", [a, b], lambda a=a, b=b: T.matmul(a, b))
    a, b = leaf(2, 3, 4), leaf(2, 4, 2)
    case("matmul batched", [a, b], lambda a=a, b=b: T.matmul(a, b))
    a = leaf(3, 4)
    case("reshape", [a], lambda a=a: T.reshape(a, (2, 6)))
    a = leaf(2, 3, 4)
    case("swap_axes", [a], lambda a=a: T.swap_axes(a, 1, 2))
    a = leaf(5, 3)
    case("narrow_rows", [a], lambda a=a: T.narrow_rows(a, 3))
    a = leaf(3, 4)
    case("gelu", [a], lambda a=a: T.gelu(a))
    a = leaf(3, 4)
    case("exp", [a], lambda a=a: T.exp(a))
    case("clamp_max", [clamped], lambda a=clamped: T.clamp_max(a, 0.3))
    a = leaf(3, 4)
    case("sum", [a], lambda a=a: T.sum_(a, axis=axis))
    a = leaf(3, 4)
    case("mean", [a], lambda a=a: T.mean_(a, axis=axis))
    table = leaf(6, 4)
    case("embedding", [table], lambda t=table: T.embedding(t, ids))
    x, g, bb = leaf(3, 5), leaf(5), leaf(5)
    case("layer_norm", [x, g, bb], lambda x=x, g=g, b=bb: T.layer_norm(x, g, b))
    a = leaf(3, 5)
    case("softmax", [a], lambda a=a: T.softmax(a))
    a = leaf(4, 5)
    case("softmax_cross_entropy", [a], lambda a=a: T.softmax_cross_entropy(a, targets))
    a = leaf(2, 4, 3)
    case("masked_mean", [a], lambda a=a: T.masked_mean(a, mask))
    case("l2_normalize", [normed], lambda a=normed: T.l2_normalize(a))
    x, w, bb, r = leaf(2, 3, 4), leaf(4, 5), leaf(5), leaf(2, 3, 5)
    case("linear bias residual", [x, w, bb, r], lambda x=x, w=w, b=bb, r=r: T.linear(x, w, b, r))
    x, w1, b1, w2, b2 = leaf(2, 3, 4), leaf(4, 6), leaf(6), leaf(6, 5), leaf(5)
    case("mlp", [x, w1, b1, w2, b2], lambda x=x, w1=w1, b1=b1, w2=w2, b2=b2: T.mlp(x, w1, b1, w2, b2))
    x, w1, b1, w2, b2, r = leaf(2, 3, 4), leaf(4, 6), leaf(6), leaf(6, 5), leaf(5), leaf(2, 3, 5)
    case(
        "mlp residual",
        [x, w1, b1, w2, b2, r],
        lambda x=x, w1=w1, b1=b1, w2=w2, b2=b2, r=r: T.mlp(x, w1, b1, w2, b2, r),
    )
    q, k, v = leaf(2, 4, 6), leaf(2, 4, 6), leaf(2, 4, 6)
    lengths = rng.integers(1, 5, size=2)
    key_mask = np.where(np.arange(4)[None, :] < lengths[:, None], 0.0, -1e9)[:, None, None, :]
    case("attention key mask", [q, k, v], lambda q=q, k=k, v=v: T.attention(q, k, v, 2, key_mask))
    return cases


def test_op_cases_cover_every_node_building_function():
    public = {
        name.rstrip("_")  # sum_ / mean_ have the cases "sum" / "mean"
        for name, fn in vars(T).items()
        if inspect.isfunction(fn) and fn.__module__ == T.__name__ and not name.startswith("_")
    } - {"backward", "topo_order"}
    covered = {name.split()[0] for name, _, _ in _op_cases(np.random.default_rng(0))}
    missing = sorted(public - covered)
    _verdict("gradient oracle covers every op", not missing, f"no case for {missing}" if missing else "")


def _micro_corpus(seed=0):
    return data.generate_synthetic_corpus(30, 2, 16, seed=seed)


def _micro_model(vocab_size, init_seed=0, dtype=np.float64):
    cfg = M.ModelConfig(
        image_size=8, patch_size=4, image_layers=2, image_heads=2, image_dim=8,
        text_layers=2, text_heads=2, text_dim=8, vocab_size=vocab_size,
        max_text_len=8, embed_dim=6,
    )
    model = M.DualEncoderModel(cfg, init_seed=init_seed)
    if dtype is not None:
        for name, p in model.params.items():
            model.params[name] = T.Tensor(p.data, requires_grad=True, dtype=dtype)
    return model


def test_gradient_correctness():
    start = time.monotonic()
    instances = 0
    worst_op = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for name, leaves, forward in _op_cases(rng):
            weight = T.Tensor(
                rng.normal(size=forward().data.shape), dtype=np.float64
            )

            def scalar(_arrays, forward=forward, weight=weight):
                return float(T.sum_(T.mul(forward(), weight)).data)

            loss = T.sum_(T.mul(forward(), weight))
            loss.backward()
            analytic = [l.grad for l in leaves]
            numeric = numeric_grads(scalar, [l.data for l in leaves], eps=1e-4)
            for a, n in zip(analytic, numeric):
                worst_op = max(worst_op, max_rel_error(a, n))
            instances += 1
    per_op_ok = worst_op < 1e-4

    # composed dual-encoder contrastive loss on a small two-layer model
    corpus = _micro_corpus()
    vocab = Vocabulary.for_dataset(corpus)
    worst_composed = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        model = _micro_model(vocab.size, init_seed=seed)
        records = [corpus.records[i] for i in rng.permutation(len(corpus.records))[:5]]
        langs = list(corpus.languages)
        pixels = np.stack(
            [r.get_pixels()[:8, :8] for r in records]
        ).transpose(0, 3, 1, 2)
        encoded = [
            tokenize(r.captions[langs[rng.integers(len(langs))]], vocab, 8)
            for r in records
        ]
        tokens = np.stack([ids for ids, _ in encoded])
        lengths = np.array([n for _, n in encoded])

        def forward():
            img = M.encode_image(model, pixels)
            txt = M.encode_text(model, tokens, lengths)
            return clip_loss(similarity(img, txt, model.logit_scale))

        loss = forward()
        loss.backward()

        # one directional derivative per parameter tensor: FD along a random
        # unit direction v must match <grad, v>; Richardson-extrapolated
        # central differences keep truncation error below tolerance even in
        # saturated high-curvature regions of the loss
        def central(p, v, h):
            orig = p.data.copy()
            p.data[...] = orig + h * v
            fp = float(forward().data)
            p.data[...] = orig - h * v
            fm = float(forward().data)
            p.data[...] = orig
            return (fp - fm) / (2 * h)

        analytic_dots, numeric_dots = [], []
        for name in sorted(model.params):
            p = model.params[name]
            assert p.grad is not None, f"no gradient reached {name}"
            v = rng.normal(size=p.data.shape)
            v /= np.linalg.norm(v.reshape(-1))
            d1 = central(p, v, 1e-4)
            d2 = central(p, v, 5e-5)
            analytic_dots.append(float(np.sum(p.grad * v)))
            numeric_dots.append((4.0 * d2 - d1) / 3.0)
        worst_composed = max(
            worst_composed,
            max_rel_error(np.array(analytic_dots), np.array(numeric_dots)),
        )
    composed_ok = worst_composed < 1e-3

    elapsed = time.monotonic() - start
    _verdict(
        "gradient correctness",
        per_op_ok and composed_ok and elapsed < 30.0,
        f"worst per-op {worst_op:.2e}, composed {worst_composed:.2e}, "
        f"{instances} op instances + 20 composed in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# loss sanity at random init and at saturation
# ---------------------------------------------------------------------------

def test_loss_sanity():
    corpus = data.generate_synthetic_corpus(200, 1, 32, seed=0)
    vocab = Vocabulary.for_dataset(corpus)
    records = sorted(corpus.records, key=lambda r: r.id)[:64]
    cfg = M.ModelConfig.from_presets("l-b", vocab.size, training.MAX_TEXT_LEN, 32)
    model = M.DualEncoderModel(cfg, init_seed=LOSS_SANITY_INIT_SEED)
    choices = {r.id: data.BASE_LANGUAGE for r in records}
    model_loss = float(training.batch_loss(model, records, choices, vocab).data)
    target = math.log(64)
    model_ok = abs(model_loss - target) <= 0.1 * target

    # random unit embeddings at small scale sit at chance level too
    rng = np.random.default_rng(0)
    img = rng.normal(size=(64, 16))
    txt = rng.normal(size=(64, 16))
    img /= np.linalg.norm(img, axis=1, keepdims=True)
    txt /= np.linalg.norm(txt, axis=1, keepdims=True)
    unit_loss = float(clip_loss(T.Tensor((img @ txt.T).astype(np.float32))).data)
    unit_ok = abs(unit_loss - target) <= 0.1 * target

    saturated = np.where(np.eye(64, dtype=bool), 25.0, 0.0).astype(np.float32)
    sat_loss = float(clip_loss(T.Tensor(saturated)).data)
    sat_ok = sat_loss < 1e-6

    _verdict(
        "loss sanity",
        model_ok and unit_ok and sat_ok,
        f"random-init model {model_loss:.4f} vs ln64 {target:.4f}, "
        f"unit embeddings {unit_loss:.4f}, saturated {sat_loss:.2e}",
    )


# ---------------------------------------------------------------------------
# published split arithmetic
# ---------------------------------------------------------------------------

def test_split_arithmetic():
    train, val = data.split(list(range(106246)), 0.15, seed=0)
    ok = len(val) == 15937 and len(train) == 90309
    _verdict("split arithmetic", ok, f"106,246 -> {len(train)}/{len(val)}")


# ---------------------------------------------------------------------------
# bundled baseline table averages
# ---------------------------------------------------------------------------

def test_baseline_table_averages():
    expected = {
        "nllb-clip-large": {"r_at_1": 42.96, "r_at_5": 69.65, "r_at_10": 78.87},
        "nllb-clip-base": {"r_at_1": 33.99, "r_at_5": 61.11, "r_at_10": 71.85},
    }
    worst = 0.0
    checks = []
    for model_name, metrics in expected.items():
        table = evaluation.load_baseline_table("crossmodal3600", model_name)
        recomputed = table.recompute_average()
        for metric, value in metrics.items():
            diff = abs(recomputed[metric] - value)
            worst = max(worst, diff)
            checks.append(diff <= 0.005)
    _verdict(
        "baseline table averages",
        all(checks),
        f"6 recomputed averages, worst deviation {worst:.4f} (tolerance 0.005)",
    )


# ---------------------------------------------------------------------------
# freeze regimes leave frozen towers bit-identical under real training steps
# ---------------------------------------------------------------------------

def _run_steps(model, records, languages, vocab, steps, batch_size=16):
    trainable = {name: p for name, p in model.params.items() if p.requires_grad}
    state = optim.OptimizerState()
    step = epoch = 0
    while step < steps:
        plan = data.sample_epoch(records, epoch, 4, languages=languages)
        rng = np.random.default_rng([0, epoch])
        for batch in training._iter_batches(records, batch_size, rng):
            if step >= steps:
                break
            loss = training.batch_loss(model, batch, plan, vocab)
            model.zero_grad()
            loss.backward()
            grads = {name: p.grad for name, p in trainable.items()}
            lr = optim.lr_schedule(step, steps, 3e-4, 20)
            optim.lion_step(trainable, grads, state, lr)
            step += 1
        epoch += 1


def test_freeze_invariants(toy_dataset):
    ds, train = _train_records(toy_dataset)
    train = train[:128]
    vocab = Vocabulary.for_dataset(ds)
    cfg = M.ModelConfig.from_presets("b-b", vocab.size, training.MAX_TEXT_LEN, 32)

    outcomes = {}
    for regime, frozen_prefixes in (
        ("text-encoder", ("image/",)),
        ("projection", ("image/", "text/")),
    ):
        model = M.DualEncoderModel(cfg, init_seed=0)
        before = {name: p.data.tobytes() for name, p in model.params.items()}
        M.apply_freeze(model, M.FreezeRegime(regime))
        _run_steps(model, train, ds.languages, vocab, PAIRED_STEPS)
        frozen_same = all(
            model.params[name].data.tobytes() == before[name]
            for name in model.params
            if name.startswith(frozen_prefixes)
        )
        moved = model.params["proj/visual"].data.tobytes() != before["proj/visual"]
        outcomes[regime] = frozen_same and moved
    _verdict(
        "freeze invariants",
        all(outcomes.values()),
        f"{PAIRED_STEPS} steps per regime; frozen towers bit-identical, projections moved",
    )


# ---------------------------------------------------------------------------
# ranking metrics against brute-force oracles
# ---------------------------------------------------------------------------

def _oracle_rank(row, relevant):
    best = min(relevant, key=lambda j: (-row[j], j))
    rank = 1
    for j in range(row.size):
        if j != best and (row[j] > row[best] or (row[j] == row[best] and j < best)):
            rank += 1
    return rank


def test_metric_oracles():
    rng = np.random.default_rng(7)
    exact = True
    worst_candidates = 0
    for i in range(1000):
        n_q = int(rng.integers(1, 7))
        n_c = int(rng.integers(1, 501))
        worst_candidates = max(worst_candidates, n_c)
        dim = int(rng.integers(2, 6))
        queries = rng.normal(size=(n_q, dim))
        candidates = rng.normal(size=(n_c, dim))
        if i % 2:  # quantized scores force ties
            queries = np.round(queries)
            candidates = np.round(candidates)
        relevance = tuple(
            tuple(sorted(rng.choice(n_c, size=int(rng.integers(1, min(4, n_c + 1))), replace=False)))
            for _ in range(n_q)
        )
        task = evaluation.RetrievalTask(
            direction=evaluation.TEXT_TO_IMAGE,
            queries=queries,
            relevance=relevance,
            candidates=candidates,
        )
        ranks = evaluation.rank_items(task)
        scores = queries @ candidates.T
        oracle = np.array([_oracle_rank(scores[q], relevance[q]) for q in range(n_q)])
        if not np.array_equal(ranks, oracle):
            exact = False
            break
        r = {k: evaluation.recall_at_k(ranks, k) for k in (1, 5, 10)}
        m = {k: evaluation.mrr_at_k(ranks, k) for k in (1, 5, 10)}
        for k in (1, 5, 10):
            expected_r = float(np.mean(oracle <= k))
            expected_m = float(np.mean(np.where(oracle <= k, 1.0 / oracle, 0.0)))
            if not (math.isclose(r[k], expected_r) and math.isclose(m[k], expected_m)):
                exact = False
        if not (r[1] <= r[5] <= r[10] and m[1] <= m[5] <= m[10]):
            exact = False
        if not all(m[k] <= r[k] for k in (1, 5, 10)):
            exact = False
        if not exact:
            break
    _verdict(
        "metric oracles",
        exact,
        f"1,000 random instances, up to {worst_candidates} candidates, exact match",
    )


# ---------------------------------------------------------------------------
# toy training effectiveness on the bundled default configuration
# ---------------------------------------------------------------------------

def test_toy_training_effectiveness(toy_dataset, toy_run):
    ds, val = _val_subset(toy_dataset)
    vocab = Vocabulary.for_dataset(ds)
    model = M.load_checkpoint(toy_run.best_checkpoint)
    t0 = time.monotonic()
    report = evaluation.evaluate(model, val, vocab)
    _TIMINGS["eval"] = time.monotonic() - t0

    n = len(val.records)
    chance = 100.0 / n
    r1 = {lang: row.r_at_1 for lang, row in report.rows.items()}
    r10 = {lang: row.r_at_10 for lang, row in report.rows.items()}
    r1_ok = all(v >= 10 * chance for v in r1.values())
    ratio = max(r10.values()) / min(r10.values())
    total = _TIMINGS["datagen"] + _TIMINGS["train"] + _TIMINGS["eval"]
    _verdict(
        "toy training effectiveness",
        r1_ok and ratio <= 1.5 and total < 600.0,
        f"text-to-image R@1 {min(r1.values()):.2f}..{max(r1.values()):.2f} "
        f"vs 10x chance {10 * chance:.2f}, R@10 spread {ratio:.3f}, "
        f"pipeline {total:.0f}s across {len(r1)} languages",
    )


# ---------------------------------------------------------------------------
# freeze-regime ordering in the bundled two-stage transfer protocol
# ---------------------------------------------------------------------------

def test_regime_ordering(toy_dataset, tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance") / "two-stage"
    ds, val = _val_subset(toy_dataset)
    vocab = Vocabulary.for_dataset(ds)
    new_languages = tuple(l for l in ds.languages if l != data.BASE_LANGUAGE)

    stage1 = training.run_training(
        training.RunConfig(
            dataset_dir=str(toy_dataset),
            output_dir=str(base / "stage1"),
            languages=(data.BASE_LANGUAGE,),
        )
    )

    means = {}
    for regime in ("text-encoder", "projection", "full"):
        scores = []
        for seed in STAGE2_SEEDS:
            result = training.run_training(
                training.RunConfig(
                    dataset_dir=str(toy_dataset),
                    output_dir=str(base / f"stage2-{regime}-{seed}"),
                    languages=new_languages,
                    regime=regime,
                    init_from=str(stage1.best_checkpoint),
                    data_seed=seed,
                    epochs=STAGE2_EPOCHS,
                )
            )
            report = evaluation.evaluate(
                M.load_checkpoint(result.best_checkpoint),
                val,
                vocab,
                languages=list(new_languages),
            )
            scores.append(
                float(np.mean([report.rows[l].r_at_10 for l in new_languages]))
            )
        means[regime] = float(np.mean(scores))

    _verdict(
        "regime ordering",
        means["text-encoder"] > means["projection"],
        "mean new-language R@10 over 3 seeds: "
        f"text-encoder {means['text-encoder']:.2f} > projection {means['projection']:.2f}; "
        f"full {means['full']:.2f} reported, not asserted",
    )


# ---------------------------------------------------------------------------
# sign-momentum optimizer properties
# ---------------------------------------------------------------------------

def _paired_run(step_fn, dataset_dir, preset="b-b"):
    ds, train = _train_records(dataset_dir)
    vocab = Vocabulary.for_dataset(ds)
    cfg = M.ModelConfig.from_presets(preset, vocab.size, training.MAX_TEXT_LEN, 32)
    model = M.DualEncoderModel(cfg, init_seed=0)
    state = optim.OptimizerState()
    step = epoch = 0
    last = None
    while step < PAIRED_STEPS:
        plan = data.sample_epoch(train, epoch, 4, languages=ds.languages)
        rng = np.random.default_rng([0, epoch])
        for batch in training._iter_batches(train, 64, rng):
            if step >= PAIRED_STEPS:
                break
            loss = training.batch_loss(model, batch, plan, vocab)
            model.zero_grad()
            loss.backward()
            grads = {name: p.grad for name, p in model.params.items()}
            lr = optim.lr_schedule(step, PAIRED_STEPS, 3e-4, 20)
            step_fn(model.params, grads, state, lr)
            last = float(loss.data)
            step += 1
        epoch += 1
    _, val_ids = data.load_split(dataset_dir)
    by_id = {r.id: r for r in ds.records}
    val = [by_id[i] for i in val_ids]
    plan0 = data.sample_epoch(val, 0, 4, languages=ds.languages)
    return last, training.dataset_loss(model, val, plan0, vocab, 64)


def test_optimizer_properties(toy_dataset, tmp_path_factory):
    # update magnitudes are exactly {0, lr} without weight decay
    rng = np.random.default_rng(3)
    lr = 2.0 ** -8
    params = {
        "w": T.Tensor((rng.integers(-64, 65, size=(7, 5)) * 2.0 ** -10).astype(np.float32)),
        "b": T.Tensor((rng.integers(-64, 65, size=9) * 2.0 ** -10).astype(np.float32)),
    }
    before = {k: p.data.copy() for k, p in params.items()}
    grads = {k: rng.normal(size=p.data.shape).astype(np.float32) for k, p in params.items()}
    grads["b"][0] = 0.0  # a zero gradient must produce a zero update
    optim.lion_step(params, grads, optim.OptimizerState(), lr)
    deltas = np.concatenate(
        [np.abs(params[k].data - before[k]).reshape(-1) for k in params]
    )
    dyadic_ok = set(np.unique(deltas)) <= {np.float32(0.0), np.float32(lr)} and (
        deltas == 0.0
    ).any()

    # convergence race at the bundled comparison configuration
    race_dir = tmp_path_factory.mktemp("acceptance") / "race"
    val_by_epoch = {}
    for name in ("adamw", "lion"):
        result = training.run_training(
            training.RunConfig(
                dataset_dir=str(toy_dataset),
                output_dir=str(race_dir / name),
                optimizer=name,
                lr=RACE_LR,
                epochs=RACE_EPOCHS,
            )
        )
        val_by_epoch[name] = [s.val_loss for s in result.stats]
    target = val_by_epoch["adamw"][4]
    reached = next(
        (i + 1 for i, v in enumerate(val_by_epoch["lion"]) if v <= target), None
    )
    race_ok = reached is not None and reached < 5

    # 8-bit state tracks full precision on a paired run
    lion_last, lion_val = _paired_run(optim.lion_step, toy_dataset)
    q_last, q_val = _paired_run(optim.lion8_step, toy_dataset)
    drift_last = abs(q_last - lion_last) / lion_last
    drift_val = abs(q_val - lion_val) / lion_val
    paired_ok = drift_last <= 0.05 and drift_val <= 0.05

    # quantization roundtrip error bound on every block
    roundtrip_ok = True
    rng = np.random.default_rng(11)
    for size in (1, 255, 256, 257, 4096, 5000):
        x = (rng.normal(size=size) * 10.0 ** rng.integers(-3, 4)).astype(np.float64)
        buf = optim.quantize_block(x)
        err = np.abs(optim.dequantize_block(buf) - x)
        for b, start in enumerate(range(0, size, buf.block_size)):
            block = x[start : start + buf.block_size]
            bound = np.abs(block).max() / 127.0
            if err[start : start + buf.block_size].max() > bound:
                roundtrip_ok = False

    _verdict(
        "optimizer properties",
        dyadic_ok and race_ok and paired_ok and roundtrip_ok,
        f"updates in {{0, lr}}; sign-momentum hits the adaptive baseline's epoch-5 "
        f"loss {target:.4f} at epoch {reached}; paired {PAIRED_STEPS}-step drift "
        f"{drift_last * 100:.2f}%/{drift_val * 100:.2f}%; roundtrip within absmax/127",
    )


# ---------------------------------------------------------------------------
# bit-exact reproducibility of checkpoints and reports
# ---------------------------------------------------------------------------

def test_reproducibility(toy_dataset, tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance") / "repro"
    results = []
    for name in ("a", "b"):
        results.append(
            training.run_training(
                training.RunConfig(
                    dataset_dir=str(toy_dataset),
                    output_dir=str(base / name),
                    preset="b-b",
                    batch_size=32,
                    epochs=2,
                    warmup_steps=5,
                )
            )
        )
    ckpt_ok = all(
        Path(getattr(results[0], attr)).read_bytes()
        == Path(getattr(results[1], attr)).read_bytes()
        for attr in ("best_checkpoint", "last_checkpoint")
    )

    ds, val = _val_subset(toy_dataset)
    vocab = Vocabulary.for_dataset(ds)
    digests = []
    for result, out in zip(results, ("a", "b")):
        model = M.load_checkpoint(result.best_checkpoint)
        report = evaluation.evaluate(
            model, val, vocab, metadata={"run_id": result.run_id}
        )
        csv_path = base / out / "report.csv"
        jsonl_path = base / out / "report.jsonl"
        evaluation.write_report_csv(report, csv_path)
        evaluation.write_report_jsonl(report, jsonl_path)
        digests.append(
            (
                hashlib.sha256(csv_path.read_bytes()).hexdigest(),
                hashlib.sha256(jsonl_path.read_bytes()).hexdigest(),
            )
        )
    report_ok = digests[0] == digests[1]

    # save/load roundtrip is bitwise lossless
    loaded = M.load_checkpoint(results[0].best_checkpoint)
    resaved = base / "resaved.nclp"
    M.save_checkpoint(loaded, resaved, metadata=loaded.metadata)
    roundtrip_ok = resaved.read_bytes() == Path(results[0].best_checkpoint).read_bytes()

    _verdict(
        "reproducibility",
        ckpt_ok and report_ok and roundtrip_ok,
        "paired runs bit-identical (checkpoints, CSV and JSONL reports); "
        "save/load roundtrip lossless",
    )


# ---------------------------------------------------------------------------
# data pipeline invariants
# ---------------------------------------------------------------------------

def test_data_pipeline_invariants(tmp_path):
    # loader rejects records that break equal language representation
    root = tmp_path / "broken"
    root.mkdir()
    (root / "manifest.tsv").write_text(
        "id\taesthetic_score\teng_Latn\taab_Ciph\n"
        "img0\t5.0\tred circle\t\n",
        encoding="utf-8",
    )
    try:
        data.load_dataset(root)
        loader_ok = False
    except DatasetFormatError as exc:
        loader_ok = "img0" in str(exc) and "aab_Ciph" in str(exc)

    # sampler language frequencies over 1,000 epochs stay within 4 sigma
    corpus = data.generate_synthetic_corpus(40, 8, 16, seed=0)
    records = corpus.records
    counts = {lang: 0 for lang in corpus.languages}
    epochs = 1000
    for epoch in range(epochs):
        plan = data.sample_epoch(records, epoch, 4, languages=corpus.languages)
        for lang in plan.values():
            counts[lang] += 1
    n = len(records) * epochs
    p = 1.0 / len(corpus.languages)
    mu, sigma = n * p, math.sqrt(n * p * (1 - p))
    worst_z = max(abs(c - mu) / sigma for c in counts.values())
    sampler_ok = worst_z <= 4.0

    # aesthetic filter is strict at the threshold
    class Scored:
        def __init__(self, score):
            self.aesthetic_score = score

    kept = data.aesthetic_filter([Scored(4.5), Scored(4.5 + 1e-9), Scored(4.499)])
    filter_ok = len(kept) == 1 and kept[0].aesthetic_score > 4.5

    _verdict(
        "data pipeline invariants",
        loader_ok and sampler_ok and filter_ok,
        f"loader names the offending record; sampler worst |z| {worst_z:.2f} "
        "over 1,000 epochs; threshold 4.5 excluded",
    )
