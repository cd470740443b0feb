import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clipforge.tensor as T
from clipforge.errors import CheckpointFormatError, ConfigError, TrainingError
from clipforge.optim import (
    ADAMW_BETAS,
    ADAMW_EPS,
    LION_BETAS,
    OptimizerState,
    QuantizedBuffer,
    adamw_step,
    dequantize_block,
    lion8_step,
    lion_step,
    lr_schedule,
    quantize_block,
    state_from_arrays,
    state_to_arrays,
)

RNG = np.random.default_rng(4242)


def make_params(values):
    return {name: T.Tensor(np.asarray(v, dtype=np.float32)) for name, v in values.items()}


# ---------------------------------------------------------------------------
# fixed hyperparameters (lr and weight_decay are checked by RunConfig)
# ---------------------------------------------------------------------------

def test_config_validation():
    assert LION_BETAS == (0.9, 0.99)
    assert ADAMW_BETAS == (0.9, 0.999)
    assert ADAMW_EPS == 1e-8
    # Python floats: an np.float64 factor would promote the float32 updates
    assert all(type(v) is float for v in (*LION_BETAS, *ADAMW_BETAS, ADAMW_EPS))
    for step in (lion_step, lion8_step, adamw_step):
        params = make_params({"w": RNG.normal(size=8)})
        step(params, {"w": RNG.normal(size=8).astype(np.float32)}, OptimizerState(), 1e-3, 0.01)
        assert params["w"].data.dtype == np.float32


# ---------------------------------------------------------------------------
# lion scalar references
# ---------------------------------------------------------------------------

def test_lion_fresh_momentum_positive_gradient():
    params = make_params({"w": [0.5]})
    state = OptimizerState()
    lr = 2.0**-8  # dyadic so the subtraction is exact
    lion_step(params, {"w": np.array([2.0], dtype=np.float32)}, state, lr)
    assert params["w"].data[0] == np.float32(0.5) - np.float32(lr)
    expected_m = np.float32((1.0 - LION_BETAS[1]) * 2.0)
    np.testing.assert_allclose(state.momentum["w"], [expected_m], rtol=1e-7)


def test_lion_zero_gradient_zero_momentum_is_noop():
    params = make_params({"w": [0.25, -0.75]})
    before = params["w"].data.copy()
    lion_step(params, {"w": np.zeros(2, dtype=np.float32)}, OptimizerState(), 0.1)
    assert np.array_equal(params["w"].data, before)


def test_lion_pure_decay():
    params = make_params({"w": [0.5]})
    lion_step(params, {"w": np.zeros(1, dtype=np.float32)}, OptimizerState(), 0.125, 0.5)
    # theta <- theta - lr*wd*theta
    expected = np.float32(0.5) - np.float32(0.125) * (np.float32(0.5) * np.float32(0.5))
    assert params["w"].data[0] == pytest.approx(float(expected), rel=1e-7)


def test_lion_update_magnitude_in_zero_or_lr():
    # dyadic grid keeps float32 arithmetic exact, so the check is bitwise
    lr = 2.0**-10
    grid = (RNG.integers(-64, 65, size=200) * lr).astype(np.float32)
    params = make_params({"w": grid})
    state = OptimizerState()
    for _ in range(5):
        g = RNG.normal(size=200).astype(np.float32)
        g[RNG.random(200) < 0.2] = 0.0
        before = params["w"].data.copy()
        lion_step(params, {"w": g}, state, lr)
        deltas = np.abs(params["w"].data - before)
        assert set(np.unique(deltas)) <= {np.float32(0.0), np.float32(lr)}


def test_frozen_parameters_untouched_bitwise():
    params = make_params({"a": RNG.normal(size=8), "b": RNG.normal(size=8)})
    frozen = params["b"].data.copy()
    for step in (lion_step, lion8_step, adamw_step):
        state = OptimizerState()
        for _ in range(20):
            grads = {n: RNG.normal(size=8).astype(np.float32) for n in params}
            step({"a": params["a"]}, grads, state, 0.01)
        assert np.array_equal(params["b"].data, frozen)
        assert "b" not in state.momentum and "b" not in state.second_moment


def test_nan_gradient_names_parameter():
    params = make_params({"good": [1.0], "bad/weight": [1.0]})
    grads = {"good": np.array([0.1], dtype=np.float32), "bad/weight": np.array([np.nan], dtype=np.float32)}
    for step in (lion_step, adamw_step):
        with pytest.raises(TrainingError) as exc:
            step(params, grads, OptimizerState(), 0.1)
        assert "bad/weight" in str(exc.value)


def test_missing_gradient_rejected():
    params = make_params({"w": [1.0]})
    with pytest.raises(TrainingError):
        lion_step(params, {}, OptimizerState(), 0.1)


def test_gradient_shape_mismatch_rejected():
    params = make_params({"w": [1.0, 2.0]})
    with pytest.raises(TrainingError):
        lion_step(params, {"w": np.zeros(3, dtype=np.float32)}, OptimizerState(), 0.1)


# ---------------------------------------------------------------------------
# adamw
# ---------------------------------------------------------------------------

def test_adamw_first_step_magnitude_is_lr():
    params = make_params({"w": [0.3]})
    lr = 1e-3
    adamw_step(params, {"w": np.ones(1, dtype=np.float32)}, OptimizerState(), lr)
    delta = 0.3 - float(params["w"].data[0])
    assert delta == pytest.approx(lr, rel=1e-4)  # float32 storage rounds the base value


def test_adamw_zero_gradients_keep_parameters():
    params = make_params({"w": [0.3, -1.5]})
    before = params["w"].data.copy()
    state = OptimizerState()
    for _ in range(10):
        adamw_step(params, {"w": np.zeros(2, dtype=np.float32)}, state, 0.05)
    assert np.array_equal(params["w"].data, before)


def test_adamw_pure_decay():
    # zero gradient: the moment term is 0, so the decoupled decay alone moves p
    params = make_params({"w": [0.5, -0.25]})
    adamw_step(params, {"w": np.zeros(2, dtype=np.float32)}, OptimizerState(), 0.125, 0.5)
    # theta <- theta - lr*wd*theta, exact on these dyadic values
    assert params["w"].data.tolist() == [0.5 - 0.125 * 0.5 * 0.5, -0.25 + 0.125 * 0.5 * 0.25]


def test_adamw_quadratic_bowl_converges():
    params = make_params({"w": [1.0]})
    state = OptimizerState()
    for _ in range(500):
        g = 2.0 * params["w"].data
        adamw_step(params, {"w": g.astype(np.float32)}, state, 0.05)
    assert abs(float(params["w"].data[0])) < 1e-2


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def test_quantize_all_zero_block():
    buf = quantize_block(np.zeros(300, dtype=np.float32), 256)
    assert np.array_equal(buf.codes, np.zeros(300, dtype=np.int8))
    assert np.array_equal(buf.absmax, np.zeros(2, dtype=np.float32))
    assert np.array_equal(dequantize_block(buf), np.zeros(300, dtype=np.float32))


def test_quantize_extremes_exact():
    buf = quantize_block(np.array([-1.0, 1.0], dtype=np.float32), 2)
    assert list(buf.codes) == [-127, 127]
    assert np.array_equal(dequantize_block(buf), np.array([-1.0, 1.0], dtype=np.float32))


def test_quantize_roundtrip_bound_exhaustive():
    x = RNG.uniform(-3.0, 3.0, size=1024).astype(np.float32)
    buf = quantize_block(x, 256)
    back = dequantize_block(buf)
    err = np.abs(back.astype(np.float64) - x.astype(np.float64))
    for b in range(4):
        sl = slice(b * 256, (b + 1) * 256)
        assert err[sl].max() <= float(buf.absmax[b]) / 127.0


def test_quantize_short_last_block_and_shape():
    x = RNG.normal(size=(10, 77)).astype(np.float32)  # 770 = 3 blocks of 256 + 2
    buf = quantize_block(x, 256)
    assert buf.absmax.shape == (4,)
    assert buf.codes.shape == (770,)
    back = dequantize_block(buf)
    assert back.shape == (10, 77)
    bound = np.repeat(buf.absmax.astype(np.float64) / 127.0, 256)[:770].reshape(10, 77)
    assert (np.abs(back.astype(np.float64) - x.astype(np.float64)) <= bound).all()


def test_quantize_rejects_bad_block_size():
    with pytest.raises(ConfigError):
        quantize_block(np.zeros(4), 0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=700),
    block=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    # scales stay well above the float32 subnormal range, where the bound
    # is not representable
    scale=st.floats(min_value=1e-20, max_value=1e6),
)
def test_quantize_roundtrip_property(n, block, seed, scale):
    x = (np.random.default_rng(seed).standard_normal(n) * scale).astype(np.float32)
    buf = quantize_block(x, block)
    assert buf.codes.min() >= -127 and buf.codes.max() <= 127
    back = dequantize_block(buf)
    assert back.shape == x.shape
    err = np.abs(back.astype(np.float64) - x.astype(np.float64))
    bound = np.repeat(buf.absmax.astype(np.float64) / 127.0, block)[:n]
    assert (err <= bound).all()


def _reference_quantize(x, block_size):
    """The padded-block codec the array-expression one must match bit for bit."""
    arr = np.asarray(x, dtype=np.float32)
    flat = arr.reshape(-1)
    n_blocks = max(1, -(-flat.size // block_size))
    padded = np.zeros(n_blocks * block_size, dtype=np.float32)
    padded[: flat.size] = flat
    blocks = padded.reshape(n_blocks, block_size)
    absmax = np.abs(blocks).max(axis=1).astype(np.float32)
    inv = np.zeros(n_blocks, dtype=np.float64)
    nonzero = absmax > 0
    inv[nonzero] = 127.0 / absmax[nonzero].astype(np.float64)
    codes = np.clip(np.rint(blocks.astype(np.float64) * inv[:, None]), -127, 127).astype(np.int8)
    return QuantizedBuffer(codes.reshape(-1)[: flat.size].copy(), absmax, block_size, arr.shape)


def _reference_dequantize(buf):
    n_blocks = buf.absmax.size
    padded = np.zeros(n_blocks * buf.block_size, dtype=np.float32)
    padded[: buf.codes.size] = buf.codes.astype(np.float32)
    blocks = padded.reshape(n_blocks, buf.block_size)
    values = blocks * buf.absmax[:, None] / np.float32(127.0)
    return values.reshape(-1)[: buf.codes.size].reshape(buf.shape)


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    shape=st.one_of(st.just(()), st.integers(min_value=0, max_value=700).map(lambda n: (n,))),
    block=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scale=st.floats(min_value=1e-20, max_value=1e6),
    zero_blocks=st.integers(min_value=0, max_value=3),
)
# inputs where a float32 reciprocal (seed 73) or a float32 product (seed 418) moves a code
@example(shape=(700,), block=7, seed=73, scale=1.0, zero_blocks=0)
@example(shape=(700,), block=256, seed=418, scale=1.0, zero_blocks=0)
def test_codec_matches_the_padded_reference_bitwise(shape, block, seed, scale, zero_blocks):
    x = (np.random.default_rng(seed).standard_normal(shape) * scale).astype(np.float32)
    x.reshape(-1)[: zero_blocks * block] = 0.0  # whole all-zero blocks, or all of x
    buf, ref = quantize_block(x, block), _reference_quantize(x, block)
    assert _same_array(buf.codes, ref.codes)
    assert _same_array(buf.absmax, ref.absmax)
    assert (buf.block_size, buf.shape) == (ref.block_size, ref.shape)
    assert _same_array(dequantize_block(buf), _reference_dequantize(ref))


# ---------------------------------------------------------------------------
# lion8
# ---------------------------------------------------------------------------

def test_lion8_first_step_matches_lion():
    values = RNG.normal(size=600).astype(np.float32)
    g = RNG.normal(size=600).astype(np.float32)
    full = make_params({"w": values.copy()})
    quant = make_params({"w": values.copy()})
    lion_step(full, {"w": g}, OptimizerState(), 3e-4)
    lion8_step(quant, {"w": g}, OptimizerState(), 3e-4)
    assert np.array_equal(full["w"].data, quant["w"].data)


def test_lion8_state_memory_accounting():
    params = make_params({"w": RNG.normal(size=1000).astype(np.float32)})
    state = OptimizerState()
    lion8_step(params, {"w": np.ones(1000, dtype=np.float32)}, state, 1e-3)
    buf = state.momentum["w"]
    assert isinstance(buf, QuantizedBuffer)
    # 1 byte per parameter plus 4 bytes per block (1000 -> 4 blocks)
    assert buf.nbytes == 1000 + 4 * 4
    assert state.memory_bytes() == 1016


def test_lion8_tracks_lion_over_many_steps():
    values = RNG.normal(size=512).astype(np.float32)
    full = make_params({"w": values.copy()})
    quant = make_params({"w": values.copy()})
    lr = 1e-3
    fs, qs = OptimizerState(), OptimizerState()
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = rng.normal(size=512).astype(np.float32)
        lion_step(full, {"w": g}, fs, lr)
        lion8_step(quant, {"w": g}, qs, lr)
    # 8-bit momentum error flips some near-zero signs; drift stays a few lr
    diff = np.abs(quant["w"].data - full["w"].data) / lr
    assert diff.mean() < 2.0
    assert diff.max() < 15.0


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_lr_schedule_endpoints():
    assert lr_schedule(0, 100, 3e-4, 10) == 0.0
    assert lr_schedule(10, 100, 3e-4, 10) == pytest.approx(3e-4)
    assert abs(lr_schedule(100, 100, 3e-4, 10)) < 1e-9


def test_lr_schedule_warmup_linear_and_cosine_midpoint():
    base = 1e-3
    for step in range(10):
        assert lr_schedule(step, 100, base, 10) == pytest.approx(base * step / 10)
    assert lr_schedule(55, 100, base, 10) == pytest.approx(base / 2)
    values = [lr_schedule(s, 100, base, 10) for s in range(10, 101)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_lr_schedule_no_warmup():
    assert lr_schedule(0, 50, 1e-3, 0) == pytest.approx(1e-3)


# ---------------------------------------------------------------------------
# state serialization
# ---------------------------------------------------------------------------

def _advance(step, params, state, cfg, rng, n=3):
    for _ in range(n):
        grads = {k: rng.normal(size=p.data.shape).astype(np.float32) for k, p in params.items()}
        step(params, grads, state, **cfg)


@pytest.mark.parametrize(
    "step,cfg",
    [
        (lion_step, {"lr": 1e-3}),
        (lion8_step, {"lr": 1e-3}),
        (adamw_step, {"lr": 1e-3, "weight_decay": 0.01}),
    ],
)
def test_state_roundtrip_preserves_trajectory(step, cfg):
    params = make_params({"w": RNG.normal(size=300), "b": RNG.normal(size=7)})
    state = OptimizerState()
    _advance(step, params, state, cfg, np.random.default_rng(11))
    meta, arrays = state_to_arrays(state)
    restored = state_from_arrays(meta, arrays, params)
    assert restored.step_count == state.step_count

    fork = make_params({k: p.data.copy() for k, p in params.items()})
    _advance(step, params, state, cfg, np.random.default_rng(99), n=2)
    _advance(step, fork, restored, cfg, np.random.default_rng(99), n=2)
    for name in params:
        assert np.array_equal(params[name].data, fork[name].data)


def _stored_state(step, cfg):
    params = make_params({"w": RNG.normal(size=300), "b": RNG.normal(size=7)})
    state = OptimizerState()
    _advance(step, params, state, cfg, np.random.default_rng(5))
    meta, arrays = state_to_arrays(state)
    return meta, arrays, params


@pytest.mark.parametrize(
    "step, cfg, edit",
    [
        (lion_step, {"lr": 1e-3}, lambda a: a.update({"m/gone": a.pop("m/w")})),
        (adamw_step, {"lr": 1e-3}, lambda a: a.update({"v/w": a["v/w"][:-1]})),
        (lion_step, {"lr": 1e-3}, lambda a: a.update({"m/b": a["m/b"].reshape(7, 1)})),
        (lion8_step, {"lr": 1e-3}, lambda a: a.pop("m_codes/w")),
        (lion8_step, {"lr": 1e-3}, lambda a: a.pop("m_absmax/b")),
        (lion8_step, {"lr": 1e-3}, lambda a: a.update({"m_codes/b": a["m_codes/b"][:3]})),
    ],
    ids=[
        "names-no-parameter",
        "second-moment-shape",
        "momentum-shape",
        "codes-missing",
        "absmax-missing",
        "codes-shape",
    ],
)
def test_stored_state_must_fit_the_parameters(step, cfg, edit):
    meta, arrays, params = _stored_state(step, cfg)
    edit(arrays)
    with pytest.raises(CheckpointFormatError) as exc:
        state_from_arrays(meta, arrays, params)
    assert "\n" not in str(exc.value)


def test_stored_quantized_state_must_name_a_parameter():
    meta, arrays, params = _stored_state(lion8_step, {"lr": 1e-3})
    del params["w"]  # a quantized name missing from the params used to raise a bare KeyError
    with pytest.raises(CheckpointFormatError):
        state_from_arrays(meta, arrays, params)


@pytest.mark.parametrize("block_size", [0, 200, 512])  # 200 tiles both parameters into as many blocks as 256
def test_stored_state_with_another_block_size_is_refused(block_size):
    meta, arrays, params = _stored_state(lion8_step, {"lr": 1e-3})
    with pytest.raises(CheckpointFormatError, match="block_size"):
        state_from_arrays({**meta, "block_size": block_size}, arrays, params)
