import dataclasses
import tracemalloc

import numpy as np
import pytest

import clipforge.model as M
import clipforge.tensor as T
from clipforge import optim
from clipforge.contrastive import clip_loss, similarity
from clipforge.errors import (
    CheckpointFormatError,
    CheckpointIntegrityError,
    ConfigError,
    DimensionError,
)
from clipforge.model import (
    PRESETS,
    DualEncoderModel,
    FreezeRegime,
    ModelConfig,
    apply_freeze,
    encode_image,
    encode_text,
    image_features,
    load_checkpoint,
    read_checkpoint,
    read_tensor_file,
    save_checkpoint,
    write_tensor_file,
)

RNG = np.random.default_rng(20240)


def micro_config(**overrides):
    base = dict(
        image_size=8,
        patch_size=4,
        image_layers=2,
        image_heads=2,
        image_dim=16,
        text_layers=2,
        text_heads=2,
        text_dim=16,
        vocab_size=12,
        max_text_len=5,
        embed_dim=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


def micro_batch(n=3, rng=RNG):
    images = rng.integers(0, 256, size=(n, 3, 8, 8), dtype=np.uint8)
    tokens = np.zeros((n, 5), dtype=np.int64)
    lengths = np.zeros(n, dtype=np.int64)
    for i in range(n):
        length = int(rng.integers(3, 6))
        tokens[i, 0] = 1
        tokens[i, 1 : length - 1] = rng.integers(4, 12, length - 2)
        tokens[i, length - 1] = 2
        lengths[i] = length
    return images, tokens, lengths


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_rejects_bad_patch_divisibility():
    with pytest.raises(ConfigError):
        micro_config(image_size=10)


def test_config_rejects_bad_head_divisibility():
    with pytest.raises(ConfigError):
        micro_config(image_dim=15)
    with pytest.raises(ConfigError):
        micro_config(text_dim=18, text_heads=4)


def test_config_rejects_nonpositive():
    with pytest.raises(ConfigError):
        micro_config(text_layers=0)


def test_preset_table():
    assert PRESETS["b"] == (2, 64, 4)
    assert PRESETS["l"] == (4, 128, 8)
    assert PRESETS["h"] == (6, 192, 12)
    cfg = ModelConfig.from_presets("l-b", vocab_size=50, max_text_len=12)
    assert (cfg.image_layers, cfg.image_dim, cfg.image_heads) == (4, 128, 8)
    assert (cfg.text_layers, cfg.text_dim, cfg.text_heads) == (2, 64, 4)
    assert cfg.embed_dim == 64
    both = ModelConfig.from_presets("h", vocab_size=50, max_text_len=12)
    assert both.image_dim == both.text_dim == 192


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        ModelConfig.from_presets("x", vocab_size=10, max_text_len=5)
    with pytest.raises(ConfigError):
        ModelConfig.from_presets("l-b-h", vocab_size=10, max_text_len=5)


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------

def test_encode_image_shape_and_unit_norm():
    model = DualEncoderModel(micro_config(), init_seed=1)
    images, _, _ = micro_batch(4)
    out = encode_image(model, images)
    assert out.shape == (4, 8)
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-5)


def test_encode_image_deterministic_rows():
    model = DualEncoderModel(micro_config(), init_seed=1)
    images, _, _ = micro_batch(1)
    batch = np.repeat(images, 2, axis=0)
    out = encode_image(model, batch).data
    assert np.array_equal(out[0], out[1])


def test_encode_image_wrong_size_rejected():
    model = DualEncoderModel(micro_config(), init_seed=1)
    for function in (encode_image, image_features):
        # the message names the function that was called
        with pytest.raises(DimensionError, match=f"^{function.__name__}: expected 8x8 images"):
            function(model, np.zeros((2, 3, 8, 10), dtype=np.uint8))
        with pytest.raises(DimensionError, match=rf"^{function.__name__}: expected \[batch, 3, H, W\]"):
            function(model, np.zeros((2, 1, 8, 8), dtype=np.uint8))


def test_encode_text_shape_unit_norm_and_duplicates():
    model = DualEncoderModel(micro_config(), init_seed=2)
    tokens = np.array([[1, 4, 5, 2, 0], [1, 4, 5, 2, 0], [1, 6, 7, 8, 2]])
    lengths = np.array([4, 4, 5])
    out = encode_text(model, tokens, lengths)
    assert out.shape == (3, 8)
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-5)
    assert np.array_equal(out.data[0], out.data[1])


def test_encode_text_padding_invariance():
    model = DualEncoderModel(micro_config(), init_seed=3)
    # trained-looking position embeddings make the check meaningful
    model.params["text/pos_embed"].data = (
        np.random.default_rng(9).normal(0, 0.5, (5, 16)).astype(np.float32)
    )
    short = encode_text(model, np.array([[1, 4, 5, 2]]), np.array([4]))
    padded = encode_text(model, np.array([[1, 4, 5, 2, 7]]), np.array([4]))
    np.testing.assert_allclose(short.data, padded.data, atol=1e-5)


def _text_model(seed):
    """A micro model for captions up to 9 tokens with trained-looking
    position embeddings, and a generator seeded like it."""
    cfg = micro_config(max_text_len=9)
    model = DualEncoderModel(cfg, init_seed=seed)
    rng = np.random.default_rng(seed)
    model.params["text/pos_embed"].data = rng.normal(0, 0.5, (9, cfg.text_dim)).astype(np.float32)
    return model, rng


def test_mixed_length_batch_matches_each_caption_alone():
    # rows shorter than the batch's longest caption go through the key mask
    model, rng = _text_model(6)
    lengths = np.array([3, 7, 5, 4, 7, 6])
    tokens = rng.integers(0, 12, (len(lengths), 9))
    batch = encode_text(model, tokens, lengths).data
    for row, length in enumerate(lengths):
        alone = encode_text(model, tokens[row : row + 1, :length], lengths[row : row + 1]).data
        np.testing.assert_allclose(batch[row], alone[0], atol=1e-5)


def test_padding_to_max_text_len_is_bitwise_inert():
    lengths = np.array([3, 6, 4])
    tokens = np.random.default_rng(12).integers(0, 12, (3, 9))
    weights = T.Tensor(np.random.default_rng(13).normal(size=(3, 8)).astype(np.float32))
    runs = []
    for width in (9, int(lengths.max())):
        model, _ = _text_model(7)
        out = encode_text(model, tokens[:, :width], lengths)
        T.backward(T.sum_(T.mul(out, weights)))
        runs.append((model, out.data))
    (full, full_out), (trimmed, trimmed_out) = runs
    assert np.array_equal(full_out, trimmed_out)
    for name in full.params:
        if name.startswith("text/") or name == "proj/text":
            assert np.array_equal(full.params[name].grad, trimmed.params[name].grad), name
    pos_grad = full.params["text/pos_embed"].grad
    assert not pos_grad[lengths.max() :].any()
    assert pos_grad[: lengths.max()].any()


@pytest.mark.parametrize("lengths", [[6, 6, 6], [4, 6, 6]], ids=["unpadded", "padded"])
def test_attention_bias_only_when_a_row_is_padded(lengths, monkeypatch):
    model, rng = _text_model(8)
    attention = T.attention
    masked = []

    def recording_attention(q, k, v, heads, bias=None):
        masked.append(bias is not None)
        return attention(q, k, v, heads, bias)

    monkeypatch.setattr(T, "attention", recording_attention)
    encode_text(model, rng.integers(0, 12, (3, 9)), np.array(lengths))
    padded = min(lengths) < max(lengths)
    assert masked == [padded] * model.config.text_layers


def test_encode_text_rejects_bad_inputs():
    model = DualEncoderModel(micro_config(), init_seed=1)
    with pytest.raises(IndexError):
        encode_text(model, np.array([[1, 12, 2]]), np.array([3]))
    with pytest.raises(DimensionError):
        encode_text(model, np.zeros((1, 6), dtype=np.int64), np.array([6]))
    with pytest.raises(DimensionError):
        encode_text(model, np.array([[1, 4, 2]]), np.array([0]))
    with pytest.raises(DimensionError):
        encode_text(model, np.array([[1, 4, 2]]), np.array([4]))


def test_embedding_gradients_only_on_used_rows():
    model = DualEncoderModel(micro_config(), init_seed=4)
    tokens = np.array([[1, 4, 5, 2, 0]])
    out = encode_text(model, tokens, np.array([4]))
    T.backward(T.sum_(out))
    grad = model.params["text/token_embed"].grad
    used = {0, 1, 2, 4, 5} - {0}  # column 4 is padding, id 0 never pooled or attended
    for row in range(12):
        magnitude = np.abs(grad[row]).sum()
        if row in used:
            assert magnitude > 0
        else:
            assert magnitude == 0


def test_batch_permutation_permutes_rows():
    model = DualEncoderModel(micro_config(), init_seed=5)
    images, tokens, lengths = micro_batch(5)
    perm = np.array([3, 0, 4, 2, 1])
    base_i = encode_image(model, images).data
    base_t = encode_text(model, tokens, lengths).data
    perm_i = encode_image(model, images[perm]).data
    perm_t = encode_text(model, tokens[perm], lengths[perm]).data
    np.testing.assert_allclose(perm_i, base_i[perm], atol=1e-6)
    np.testing.assert_allclose(perm_t, base_t[perm], atol=1e-6)


def test_pooled_image_features_do_not_depend_on_the_batch():
    # the frozen-tower feature cache in training relies on bitwise equality
    cfg = ModelConfig.from_presets("l-b", vocab_size=12, max_text_len=5)
    model = DualEncoderModel(cfg, init_seed=3)
    apply_freeze(model, FreezeRegime.TEXT_ENCODER)
    rng = np.random.default_rng(7)
    images = rng.integers(0, 256, size=(128, 3, 32, 32), dtype=np.uint8)

    def pooled(batch_size, order):
        rows = np.empty((len(order), cfg.image_dim), dtype=np.float32)
        for start in range(0, len(order), batch_size):
            chunk = order[start : start + batch_size]
            rows[chunk] = image_features(model, images[chunk]).data
        return rows

    natural = np.arange(len(images))
    reference = pooled(64, natural)
    assert np.array_equal(pooled(1, natural), reference)
    assert np.array_equal(pooled(7, natural), reference)
    assert np.array_equal(pooled(64, rng.permutation(len(images))), reference)
    # 32 images fill one block of the graph-free tower: sizes on both sides of it
    for batch_size in (31, 32, 33, 65):
        assert np.array_equal(pooled(batch_size, natural), reference), batch_size


def _frozen_text_tower():
    """An l-b model for captions up to 16 tokens in the projection regime (text
    tower frozen, ``proj/text`` trainable) with trained-looking text position
    embeddings, and a generator."""
    cfg = ModelConfig.from_presets("l-b", vocab_size=40, max_text_len=16)
    model = DualEncoderModel(cfg, init_seed=3)
    apply_freeze(model, FreezeRegime.PROJECTION_ONLY)
    rng = np.random.default_rng(11)
    model.params["text/pos_embed"].data = rng.normal(0, 0.5, (16, cfg.text_dim)).astype(np.float32)
    return model, rng


def test_text_rows_do_not_depend_on_the_batch():
    # Rows are bitwise equal at one padded width.  A batch is trimmed to its
    # longest caption, and at another width the attention runs over another
    # number of columns, so every call below also holds an anchor caption of
    # the full width; the shorter rows go through the key mask.
    model, rng = _frozen_text_tower()
    n = 256
    lengths = np.append(rng.integers(2, 16, n), 16)
    tokens = rng.integers(0, 40, (n + 1, 16))
    anchor = np.array([n])

    def rows(batch_size, order):
        out = np.empty((n, model.config.embed_dim), dtype=np.float32)
        for start in range(0, n, batch_size):
            chunk = np.concatenate((anchor, order[start : start + batch_size]))
            out[chunk[1:]] = encode_text(model, tokens[chunk], lengths[chunk]).data[1:]
        return out

    natural = np.arange(n)
    reference = encode_text(model, tokens, lengths).data[:n]
    for batch_size in (1, 7, 73, 74, 256):
        assert np.array_equal(rows(batch_size, natural), reference), batch_size
    assert np.array_equal(rows(73, rng.permutation(n)), reference)


def test_blocked_text_tower_gives_the_projection_the_same_gradient(monkeypatch):
    model, rng = _frozen_text_tower()
    lengths = rng.integers(2, 17, 100)
    tokens = rng.integers(0, 40, (100, 16))
    weights = T.Tensor(rng.normal(size=(100, model.config.embed_dim)).astype(np.float32))
    attention = T.attention
    calls = []

    def counting_attention(*args):
        calls.append(1)
        return attention(*args)

    monkeypatch.setattr(T, "attention", counting_attention)
    runs = []
    for row_block in (M.ROW_BLOCK, 100 * 16):  # 100 captions of width 16: 4 blocks, then 1
        monkeypatch.setattr(M, "ROW_BLOCK", row_block)
        calls.clear()
        model.zero_grad()
        out = encode_text(model, tokens, lengths)
        T.backward(T.sum_(T.mul(out, weights)))
        runs.append((len(calls), out.data, model.params["proj/text"].grad))
    (blocked_calls, blocked_out, blocked_grad), (whole_calls, whole_out, whole_grad) = runs
    layers = model.config.text_layers
    assert (blocked_calls, whole_calls) == (4 * layers, layers)
    assert np.array_equal(blocked_out, whole_out)
    assert np.array_equal(blocked_grad, whole_grad)


def _traced_peak(call) -> int:
    """Peak bytes that ``call()`` allocates beyond what is live before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_graph_free_forwards_hold_no_batch_wide_temporaries():
    # the towers run over blocks of ROW_BLOCK token rows, so the peak stays
    # below one batch-wide MLP hidden array (rows x 4 * width float32)
    cfg = ModelConfig.from_presets("l-b", vocab_size=40, max_text_len=16)
    model = DualEncoderModel(cfg, init_seed=3)
    for p in model.params.values():
        p.requires_grad = False
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, size=(256, 3, 32, 32), dtype=np.uint8)
    tokens = rng.integers(0, 40, (256, 16))
    lengths = rng.integers(2, 17, 256)
    image_peak = _traced_peak(lambda: encode_image(model, images))
    assert image_peak < 256 * cfg.num_patches * 4 * cfg.image_dim * 4
    text_peak = _traced_peak(lambda: encode_text(model, tokens, lengths))
    assert text_peak < 256 * 16 * 4 * cfg.text_dim * 4


# ---------------------------------------------------------------------------
# freeze regimes and parameter accounting
# ---------------------------------------------------------------------------

def test_freeze_full_trains_everything():
    model = DualEncoderModel(micro_config(), init_seed=1)
    apply_freeze(model, FreezeRegime.FULL)
    assert all(p.requires_grad for p in model.params.values())
    apply_freeze(model, FreezeRegime.PROJECTION_ONLY)
    apply_freeze(model, FreezeRegime.FULL)  # unfreezes again
    assert all(p.requires_grad for p in model.params.values())


def test_freeze_text_encoder_freezes_image_tower():
    model = DualEncoderModel(micro_config(), init_seed=1)
    apply_freeze(model, FreezeRegime.TEXT_ENCODER)
    for name, p in model.params.items():
        assert p.requires_grad == (not name.startswith("image/"))


@pytest.mark.parametrize(
    "regime, towers",
    [(FreezeRegime.FULL, (True, True)), (FreezeRegime.TEXT_ENCODER, (False, True)),
     (FreezeRegime.PROJECTION_ONLY, (False, False))],
    ids=["full", "text-encoder", "projection"],
)
def test_frozen_view_shares_arrays_and_trains_no_tower(regime, towers):
    model = DualEncoderModel(micro_config(), init_seed=1)
    apply_freeze(model, regime)
    flags = {name: p.requires_grad for name, p in model.params.items()}
    assert (M.trains(model, "image"), M.trains(model, "text")) == towers
    view = M.frozen(model)
    assert view.config == model.config and list(view.params) == list(model.params)
    assert all(view.params[n].data is p.data for n, p in model.params.items())
    assert not any(p.requires_grad for p in view.params.values())
    assert not M.trains(view, "image") and not M.trains(view, "text")
    assert {name: p.requires_grad for name, p in model.params.items()} == flags
    images = np.random.default_rng(2).integers(0, 256, size=(3, 3, 8, 8), dtype=np.uint8)
    out = encode_image(view, images)
    assert out._parents == () and out._backward is None
    assert np.array_equal(out.data, encode_image(model, images).data)


def test_freeze_projection_only_counts():
    cfg = micro_config()
    model = DualEncoderModel(cfg, init_seed=1)
    apply_freeze(model, FreezeRegime.PROJECTION_ONLY)
    trainable = {n for n, p in model.params.items() if p.requires_grad}
    assert trainable == {"proj/visual", "proj/text", "logit_scale"}
    n_trainable = sum(model.params[n].size for n in trainable)
    assert n_trainable == cfg.image_dim * cfg.embed_dim + cfg.text_dim * cfg.embed_dim + 1


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = DualEncoderModel(micro_config(), init_seed=6)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, metadata={"languages": ["eng_Latn"], "note": 1})
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.metadata == {"languages": ["eng_Latn"], "note": 1}
    assert set(loaded.params) == set(model.params)
    for name, p in model.params.items():
        q = loaded.params[name]
        assert q.data.dtype == np.float32
        assert np.array_equal(q.data, p.data)


def test_checkpoint_resave_byte_identical(tmp_path):
    model = DualEncoderModel(micro_config(), init_seed=7)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(model, first, metadata={"seed": 7})
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_loaded_checkpoint_records_no_graph(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(DualEncoderModel(micro_config(), init_seed=8), path)
    images, _, _ = micro_batch(2)
    out = encode_image(load_checkpoint(path), images)
    assert out.requires_grad is False
    assert out._backward is None


def test_checkpoint_wrong_magic(tmp_path):
    model = DualEncoderModel(micro_config(), init_seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_wrong_version(tmp_path):
    model = DualEncoderModel(micro_config(), init_seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    model = DualEncoderModel(micro_config(), init_seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 9])
    with pytest.raises(CheckpointIntegrityError):
        load_checkpoint(path)


def test_checkpoint_corrupted_payload(tmp_path):
    model = DualEncoderModel(micro_config(), init_seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0xFF  # inside the last payload, before the checksum
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointIntegrityError):
        load_checkpoint(path)


def test_checkpoint_trailing_garbage(tmp_path):
    model = DualEncoderModel(micro_config(), init_seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(CheckpointIntegrityError):
        load_checkpoint(path)


def _model_with_state(seed=2):
    """A micro model and the Lion state of one step over all its parameters."""
    model = DualEncoderModel(micro_config(), init_seed=seed)
    grads = {name: np.ones_like(p.data) for name, p in model.params.items()}
    state = optim.OptimizerState()
    optim.lion_step(model.params, grads, state, 1e-3)
    return model, state


def test_checkpoint_carries_optimizer_state(tmp_path):
    model, state = _model_with_state()
    path = tmp_path / "last.ckpt"
    save_checkpoint(model, path, metadata={"next_epoch": 1}, optimizer=("lion", state))
    loaded, name, restored = read_checkpoint(path)
    assert name == "lion" and restored.step_count == 1
    assert {k: v.tobytes() for k, v in restored.momentum.items()} == {
        k: v.tobytes() for k, v in state.momentum.items()
    }
    frozen = load_checkpoint(path)  # the model alone, as eval and init_from read it
    assert frozen.metadata == {"next_epoch": 1}
    assert all(not p.requires_grad for p in frozen.params.values())
    assert all(np.array_equal(frozen.params[n].data, p.data) for n, p in model.params.items())
    save_checkpoint(model, tmp_path / "model.ckpt")
    assert read_checkpoint(tmp_path / "model.ckpt")[1:] == (None, None)


@pytest.mark.parametrize("declared", [False, True], ids=["state-without-optimizer", "junk-beside-state"])
def test_checkpoint_tells_state_from_junk(tmp_path, declared):
    model, state = _model_with_state()
    path = tmp_path / "last.ckpt"
    save_checkpoint(model, path, optimizer=("lion", state))
    header, arrays = read_tensor_file(path)
    if declared:  # an optimizer block admits state arrays, nothing else
        arrays["junk/w"] = np.zeros(3, dtype=np.float32)
    else:
        del header["optimizer"]
    write_tensor_file(path, header, arrays)
    with pytest.raises(CheckpointFormatError, match="parameter table does not match config"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# composed gradient spot check
# ---------------------------------------------------------------------------

def _float64_model(seed):
    model = DualEncoderModel(micro_config(), init_seed=seed)
    for p in model.params.values():
        p.data = p.data.astype(np.float64)
    return model


def test_composed_loss_gradient_spot_check():
    model = _float64_model(8)
    images, tokens, lengths = micro_batch(3)

    def forward():
        return clip_loss(
            similarity(
                encode_image(model, images),
                encode_text(model, tokens, lengths),
                model.logit_scale,
            )
        )

    loss = forward()
    T.backward(loss)
    eps = 1e-5
    picks = [
        "image/block0/attn/q/w",
        "image/pos_embed",
        "text/token_embed",
        "text/block1/mlp/fc1/w",
        "proj/visual",
        "logit_scale",
    ]
    rng = np.random.default_rng(0)
    for name in picks:
        param = model.params[name]
        flat = param.data.reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = float(forward().data)
            flat[idx] = orig - eps
            down = float(forward().data)
            flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            analytic = param.grad.reshape(-1)[idx]
            assert abs(analytic - numeric) <= 1e-3 * max(abs(analytic), abs(numeric), 1e-4), (
                name,
                idx,
                analytic,
                numeric,
            )
