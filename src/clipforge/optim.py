"""Optimizers: Lion, Lion with 8-bit quantized momentum, and AdamW.

Every step is ``step(params, grads, state, lr, weight_decay=0.0)``: it
mutates parameters in place and shares one OptimizerState.  ``lr`` and
``weight_decay`` are plain numbers, checked once by the run configuration;
the betas and AdamW's eps are module constants.  A step updates exactly the
parameters it is passed, each of which needs a gradient; a caller freezes a
parameter by leaving it out, so it keeps its exact bit pattern and never
acquires a state buffer.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointFormatError, ConfigError, TrainingError

DEFAULT_BLOCK_SIZE = 256

# Python floats on purpose: an np.float64 factor would promote the float32
# updates to float64
LION_BETAS = (0.9, 0.99)
ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8


# ---------------------------------------------------------------------------
# blockwise 8-bit quantization
# ---------------------------------------------------------------------------

@dataclass
class QuantizedBuffer:
    """Signed 8-bit codes with one absmax scale per fixed-size block.

    Blocks tile the flattened buffer; the last block may be short.  The
    roundtrip error is at most absmax/127 per element of each block.
    """

    codes: np.ndarray  # int8, flat
    absmax: np.ndarray  # float32, one per block
    block_size: int
    shape: tuple

    @property
    def nbytes(self) -> int:
        return self.codes.nbytes + self.absmax.nbytes


def quantize_block(x, block_size: int = DEFAULT_BLOCK_SIZE) -> QuantizedBuffer:
    if block_size < 1:
        raise ConfigError(f"quantize: block_size must be >= 1, got {block_size}")
    flat = np.asarray(x, dtype=np.float32).reshape(-1)
    n = flat.size
    absmax = np.maximum.reduceat(np.abs(flat), np.arange(0, n, block_size)) if n else np.zeros(1, np.float32)
    # float64 keeps tiny absmax values from overflowing the reciprocal; cast first,
    # as NumPy 2 divides a float32 array by a Python float in float32
    inv = np.divide(127.0, absmax.astype(np.float64), out=np.zeros(absmax.size), where=absmax > 0)
    # no clip: |x| <= absmax in its block, so |x * fl(127/absmax)| < 127.5
    codes = np.rint(flat * np.repeat(inv, block_size)[:n]).astype(np.int8)
    return QuantizedBuffer(codes, absmax, block_size, np.shape(x))


def dequantize_block(buf: QuantizedBuffer) -> np.ndarray:
    scales = np.repeat(buf.absmax, buf.block_size)[: buf.codes.size]
    # multiply before dividing so codes at +-127 reproduce absmax exactly
    return (buf.codes.astype(np.float32) * scales / np.float32(127.0)).reshape(buf.shape)


# ---------------------------------------------------------------------------
# optimizer state
# ---------------------------------------------------------------------------

class OptimizerState:
    """Per-parameter buffers, created lazily on the first step."""

    def __init__(self):
        self.momentum: dict = {}
        self.second_moment: dict = {}
        self.step_count = 0

    def memory_bytes(self) -> int:
        return sum(buf.nbytes for buf in (*self.momentum.values(), *self.second_moment.values()))


def state_to_arrays(state: OptimizerState):
    """Flatten state into (metadata, name->array) for the checkpoint container.

    int8 codes ride along as float32 values, which is exact for integers of
    magnitude <= 127.
    """
    meta = {
        "step_count": state.step_count,
        "block_size": DEFAULT_BLOCK_SIZE,
        "quantized": sorted(
            name for name, buf in state.momentum.items() if isinstance(buf, QuantizedBuffer)
        ),
    }
    arrays = {}
    for name, buf in state.momentum.items():
        if isinstance(buf, QuantizedBuffer):
            arrays[f"m_codes/{name}"] = buf.codes.astype(np.float32)
            arrays[f"m_absmax/{name}"] = buf.absmax
        else:
            arrays[f"m/{name}"] = buf
    for name, buf in state.second_moment.items():
        arrays[f"v/{name}"] = buf
    return meta, arrays


def state_from_arrays(meta: dict, arrays: dict, params: dict) -> OptimizerState:
    """Inverse of state_to_arrays; refuses an array that does not fit its
    parameter in ``params``."""
    try:
        state = OptimizerState()
        state.step_count = int(meta["step_count"])
        quantized = set(meta["quantized"])
        if int(meta["block_size"]) != DEFAULT_BLOCK_SIZE:
            raise CheckpointFormatError(f"state block_size {meta['block_size']}, not {DEFAULT_BLOCK_SIZE}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"bad optimizer state block: {exc!r}") from exc
    for key, arr in arrays.items():
        kind, _, name = key.partition("/")
        if name not in params:
            raise CheckpointFormatError(f"optimizer state array {key} names no parameter")
        shape = params[name].data.shape
        size = math.prod(shape)
        fits = {"m": shape, "v": shape}
        if name in quantized:  # codes ride flat, one absmax per block
            fits = {"v": shape, "m_codes": (size,), "m_absmax": (max(1, -(-size // DEFAULT_BLOCK_SIZE)),)}
        if arr.shape != fits.get(kind):
            raise CheckpointFormatError(
                f"optimizer state array {key}: shape {arr.shape} does not fit parameter shape {shape}"
            )
        if kind in ("m", "v"):
            (state.momentum if kind == "m" else state.second_moment)[name] = arr
    for name in quantized:
        codes, absmax = arrays.get(f"m_codes/{name}"), arrays.get(f"m_absmax/{name}")
        if codes is None or absmax is None:
            raise CheckpointFormatError(f"optimizer state: {name} lacks its 8-bit codes or absmax")
        state.momentum[name] = QuantizedBuffer(
            codes.astype(np.int8), absmax, DEFAULT_BLOCK_SIZE, params[name].data.shape
        )
    return state


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

def _iter_trainable(params: dict, grads: dict):
    for name in sorted(params):
        p = params[name]
        if name not in grads or grads[name] is None:
            raise TrainingError(f"missing gradient for parameter {name}")
        g = np.asarray(grads[name], dtype=np.float32)
        if g.shape != p.data.shape:
            raise TrainingError(
                f"gradient shape {g.shape} does not match parameter {name} {p.data.shape}"
            )
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name}")
        yield name, p, g


def _lion_update(p, g, m, lr: float, weight_decay: float):
    beta1, beta2 = LION_BETAS
    interp = beta1 * m + (1.0 - beta1) * g
    update = np.sign(interp)
    if weight_decay:
        update = update + weight_decay * p.data
    p.data = p.data - lr * update
    return beta2 * m + (1.0 - beta2) * g


def lion_step(params: dict, grads: dict, state: OptimizerState, lr: float, weight_decay: float = 0.0):
    state.step_count += 1
    for name, p, g in _iter_trainable(params, grads):
        m = state.momentum.get(name)
        if m is None:
            m = np.zeros_like(p.data)
        state.momentum[name] = _lion_update(p, g, m, lr, weight_decay)


def lion8_step(params: dict, grads: dict, state: OptimizerState, lr: float, weight_decay: float = 0.0):
    """Lion with the momentum buffer held in blockwise 8-bit form."""
    state.step_count += 1
    for name, p, g in _iter_trainable(params, grads):
        buf = state.momentum.get(name)
        m = dequantize_block(buf) if buf is not None else np.zeros_like(p.data)
        state.momentum[name] = quantize_block(_lion_update(p, g, m, lr, weight_decay))


def adamw_step(params: dict, grads: dict, state: OptimizerState, lr: float, weight_decay: float = 0.0):
    state.step_count += 1
    t = state.step_count
    beta1, beta2 = ADAMW_BETAS
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for name, p, g in _iter_trainable(params, grads):
        m = state.momentum.get(name)
        v = state.second_moment.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        update = m_hat / (np.sqrt(v_hat) + ADAMW_EPS)
        if weight_decay:
            update = update + weight_decay * p.data
        p.data = p.data - lr * update
        state.momentum[name] = m
        state.second_moment[name] = v


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def lr_schedule(step: int, total_steps: int, base_lr: float, warmup_steps: int) -> float:
    """Linear warmup to base_lr, then cosine decay to zero at total_steps.

    ``step`` is 0-based and warmup counts from 1, so the first step's LR is
    base_lr / warmup_steps, never a zero-lr no-op.
    """
    if step + 1 < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = max(1, total_steps - warmup_steps)
    progress = min(1.0, max(0, step - warmup_steps) / span)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
