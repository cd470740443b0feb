"""Dual-encoder image-text model.

A patch-based transformer encodes images, a token-based transformer encodes
text, and two linear projections map both towers into one shared embedding
space where similarity is cosine.  A learnable scalar stores the log of the
similarity temperature.

Parameters live in a flat name -> Tensor dict.  Names are hierarchical
("image/block0/attn/q/w", "text/token_embed", "proj/visual", "logit_scale"),
which keeps freeze regimes, optimizers and checkpoints trivially aligned.
A parameter is trainable exactly when its ``requires_grad`` is set; frozen
parameters stay out of the autodiff graph.
"""

from __future__ import annotations

import enum
import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import optim
from . import tensor as T
from .errors import (
    CheckpointFormatError,
    CheckpointIntegrityError,
    ConfigError,
    DimensionError,
)

CHANNELS = 3
PATCH_SIZE = 8  # pixels per side of an image patch
EMBED_DIM = 64  # width of the shared embedding space
MLP_RATIO = 4
INIT_STD = 0.02
LOGIT_SCALE_INIT = math.log(1.0 / 0.07)  # ~2.659
# token rows per block of a tower pass: at 512 rows, an l tower's MLP hidden
# array (512 x 4 * 128 float32) is 1 MiB and stays in a core's 2 MiB L2, where
# a batch-wide one (8 MiB at 256 images) streams through memory and is paged
# in afresh by every op. A pass that records no graph runs its blocks one by
# one; a tower that trains runs them through tensor._in_halves and joins them
# with tensor.join_rows (the tensor module docstring says which thread runs
# which block)
ROW_BLOCK = 512

# preset name -> (layers, width, heads) per tower
PRESETS = {
    "b": (2, 64, 4),
    "l": (4, 128, 8),
    "h": (6, 192, 12),
}


def preset_pair(pair: str) -> tuple:
    """(image tower, text tower) presets of a pair like "l-b", or of a single
    letter applied to both towers."""
    parts = pair.split("-")
    if len(parts) == 1:
        parts = parts * 2
    if len(parts) != 2 or any(p not in PRESETS for p in parts):
        raise ConfigError(
            f"unknown preset pair {pair!r}; expected letters from {sorted(PRESETS)}"
            " joined by '-'"
        )
    return PRESETS[parts[0]], PRESETS[parts[1]]


@dataclass(frozen=True)
class ModelConfig:
    image_size: int
    patch_size: int
    image_layers: int
    image_heads: int
    image_dim: int
    text_layers: int
    text_heads: int
    text_dim: int
    vocab_size: int
    max_text_len: int
    embed_dim: int

    def __post_init__(self):
        for field, value in asdict(self).items():
            if not isinstance(value, int) or value <= 0:
                raise ConfigError(f"model config: {field} must be a positive int, got {value!r}")
        if self.image_size % self.patch_size:
            raise ConfigError(
                f"model config: image_size {self.image_size} not divisible by"
                f" patch_size {self.patch_size}"
            )
        if self.image_dim % self.image_heads:
            raise ConfigError(
                f"model config: image_dim {self.image_dim} not divisible by"
                f" image_heads {self.image_heads}"
            )
        if self.text_dim % self.text_heads:
            raise ConfigError(
                f"model config: text_dim {self.text_dim} not divisible by"
                f" text_heads {self.text_heads}"
            )

    @property
    def num_patches(self) -> int:
        side = self.image_size // self.patch_size
        return side * side

    @staticmethod
    def from_presets(pair: str, vocab_size: int, max_text_len: int, image_size: int = 32) -> "ModelConfig":
        """Build a config from a preset pair (see ``preset_pair``), with
        ``PATCH_SIZE`` and ``EMBED_DIM``."""
        (il, idim, ih), (tl, tdim, th) = preset_pair(pair)
        return ModelConfig(
            image_size=image_size,
            patch_size=PATCH_SIZE,
            image_layers=il,
            image_heads=ih,
            image_dim=idim,
            text_layers=tl,
            text_heads=th,
            text_dim=tdim,
            vocab_size=vocab_size,
            max_text_len=max_text_len,
            embed_dim=EMBED_DIM,
        )


class FreezeRegime(enum.Enum):
    FULL = "full"
    TEXT_ENCODER = "text-encoder"
    PROJECTION_ONLY = "projection"


# ---------------------------------------------------------------------------
# parameter layout
# ---------------------------------------------------------------------------

def _block_specs(prefix: str, dim: int):
    yield f"{prefix}/ln1/g", (dim,), "ones"
    yield f"{prefix}/ln1/b", (dim,), "zeros"
    for name in ("q", "k", "v", "out"):
        yield f"{prefix}/attn/{name}/w", (dim, dim), "normal"
        yield f"{prefix}/attn/{name}/b", (dim,), "zeros"
    yield f"{prefix}/ln2/g", (dim,), "ones"
    yield f"{prefix}/ln2/b", (dim,), "zeros"
    yield f"{prefix}/mlp/fc1/w", (dim, MLP_RATIO * dim), "normal"
    yield f"{prefix}/mlp/fc1/b", (MLP_RATIO * dim,), "zeros"
    yield f"{prefix}/mlp/fc2/w", (MLP_RATIO * dim, dim), "normal"
    yield f"{prefix}/mlp/fc2/b", (dim,), "zeros"


def _param_specs(config: ModelConfig):
    """Ordered (name, shape, init kind) triples for every parameter."""
    patch_in = config.patch_size * config.patch_size * CHANNELS
    yield "image/patch_embed/w", (patch_in, config.image_dim), "normal"
    yield "image/patch_embed/b", (config.image_dim,), "zeros"
    yield "image/pos_embed", (config.num_patches, config.image_dim), "zeros"
    for i in range(config.image_layers):
        yield from _block_specs(f"image/block{i}", config.image_dim)
    yield "image/final_ln/g", (config.image_dim,), "ones"
    yield "image/final_ln/b", (config.image_dim,), "zeros"

    yield "text/token_embed", (config.vocab_size, config.text_dim), "normal"
    yield "text/pos_embed", (config.max_text_len, config.text_dim), "zeros"
    for i in range(config.text_layers):
        yield from _block_specs(f"text/block{i}", config.text_dim)
    yield "text/final_ln/g", (config.text_dim,), "ones"
    yield "text/final_ln/b", (config.text_dim,), "zeros"

    yield "proj/visual", (config.image_dim, config.embed_dim), "normal"
    yield "proj/text", (config.text_dim, config.embed_dim), "normal"
    yield "logit_scale", (), "logit_scale"


def _init_params(config: ModelConfig, rng: np.random.Generator) -> dict:
    params = {}
    for name, shape, kind in _param_specs(config):
        if kind == "normal":
            data = rng.normal(0.0, INIT_STD, size=shape)
        elif kind == "zeros":
            data = np.zeros(shape)
        elif kind == "ones":
            data = np.ones(shape)
        else:
            data = np.asarray(LOGIT_SCALE_INIT)
        params[name] = T.Tensor(data.astype(np.float32), requires_grad=True)
    return params


class DualEncoderModel:
    def __init__(self, config: ModelConfig, init_seed: int = 0, params: dict | None = None):
        self.config = config
        if params is None:
            params = _init_params(config, np.random.default_rng(init_seed))
        self.params = params
        self.metadata: dict = {}

    @property
    def logit_scale(self) -> T.Tensor:
        return self.params["logit_scale"]

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def _attention(x, params, prefix: str, heads: int, bias, residual):
    q, k, v = (T.linear(x, params[f"{prefix}/{n}/w"], params[f"{prefix}/{n}/b"]) for n in "qkv")
    ctx = T.attention(q, k, v, heads, bias)
    return T.linear(ctx, params[f"{prefix}/out/w"], params[f"{prefix}/out/b"], residual)


def _mlp(x, params, prefix: str, residual):
    fc1, fc2 = f"{prefix}/fc1", f"{prefix}/fc2"
    return T.mlp(x, params[f"{fc1}/w"], params[f"{fc1}/b"], params[f"{fc2}/w"], params[f"{fc2}/b"], residual)


def _encoder(x, params, tower: str, layers: int, heads: int, attn_bias, pool_mask):
    # each sublayer's residual add happens inside its output linear
    for i in range(layers):
        blk = f"{tower}/block{i}"
        normed = T.layer_norm(x, params[f"{blk}/ln1/g"], params[f"{blk}/ln1/b"])
        x = _attention(normed, params, f"{blk}/attn", heads, attn_bias, x)
        normed = T.layer_norm(x, params[f"{blk}/ln2/g"], params[f"{blk}/ln2/b"])
        x = _mlp(normed, params, f"{blk}/mlp", x)
    x = T.layer_norm(x, params[f"{tower}/final_ln/g"], params[f"{tower}/final_ln/b"])
    return T.masked_mean(x, pool_mask)


def _patchify(images: np.ndarray, patch: int) -> np.ndarray:
    b, c, h, w = images.shape
    side = h // patch
    x = images.reshape(b, c, side, patch, side, patch)
    x = x.transpose(0, 2, 4, 3, 5, 1)  # rows of pixels, then channels, per patch
    return x.reshape(b, side * side, patch * patch * c)


def _pooled_in_blocks(model: DualEncoderModel, tower: str, items: int, rows_per_item: int, forward) -> T.Tensor:
    """``forward(a, b)``, the pooled rows of items a..b-1, for all ``items``.

    The tower runs over blocks of at most ``ROW_BLOCK`` token rows; each
    pooled row depends only on its own item, so their concatenation is
    bitwise the one-call result. A tower that does not train runs the blocks
    one by one on the calling thread and keeps only their rows; one that
    trains joins them with ``T.join_rows``, their forwards and backwards split
    by ``T._in_halves`` over one or two threads (see the tensor module
    docstring).
    """
    if items * rows_per_item <= ROW_BLOCK:
        return forward(0, items)
    step = max(1, ROW_BLOCK // rows_per_item)
    bounds = [(a, min(a + step, items)) for a in range(0, items, step)]
    if not trains(model, tower):
        rows = np.concatenate([forward(a, b).data for a, b in bounds])
        return T.Tensor(rows, dtype=rows.dtype)
    return T.join_rows(T._in_halves(lambda half: [forward(a, b) for a, b in half], bounds))


def _image_tower(model: DualEncoderModel, raw: np.ndarray) -> T.Tensor:
    cfg = model.config
    pixels = raw.astype(np.float32) / 127.5 - 1.0
    patches = _patchify(pixels, cfg.patch_size)
    p = model.params
    x = T.linear(T.Tensor(patches), p["image/patch_embed/w"], p["image/patch_embed/b"])
    x = T.add(x, p["image/pos_embed"])
    pool_mask = np.ones((raw.shape[0], cfg.num_patches), dtype=np.float32)
    return _encoder(x, p, "image", cfg.image_layers, cfg.image_heads, None, pool_mask)


def _pooled_images(model: DualEncoderModel, images, caller: str) -> T.Tensor:
    cfg = model.config
    raw = images.data if isinstance(images, T.Tensor) else np.asarray(images)
    if raw.ndim != 4 or raw.shape[1] != CHANNELS:
        raise DimensionError(
            f"{caller}: expected [batch, {CHANNELS}, H, W], got {raw.shape}"
        )
    if raw.shape[2] != cfg.image_size or raw.shape[3] != cfg.image_size:
        raise DimensionError(
            f"{caller}: expected {cfg.image_size}x{cfg.image_size} images,"
            f" got {raw.shape[2]}x{raw.shape[3]}"
        )
    return _pooled_in_blocks(
        model, "image", raw.shape[0], cfg.num_patches, lambda a, b: _image_tower(model, raw[a:b])
    )


def image_features(model: DualEncoderModel, images) -> T.Tensor:
    """Pooled image-tower features of RGB images (values in 0..255), before
    the projection.  Each row depends only on its own image, not on the rest
    of the batch."""
    return _pooled_images(model, images, "image_features")


def project_image(model: DualEncoderModel, pooled: T.Tensor) -> T.Tensor:
    """Map pooled image features to unit-norm rows of the shared space."""
    return T.l2_normalize(T.linear(pooled, model.params["proj/visual"]))


def encode_image(model: DualEncoderModel, images) -> T.Tensor:
    """Embed a batch of RGB images (values in 0..255) to unit-norm rows."""
    return project_image(model, _pooled_images(model, images, "encode_image"))


def _text_tower(model: DualEncoderModel, tokens: np.ndarray, lengths: np.ndarray) -> T.Tensor:
    cfg = model.config
    seq = tokens.shape[1]
    p = model.params
    x = T.embedding(p["text/token_embed"], tokens)
    x = T.add(x, T.narrow_rows(p["text/pos_embed"], seq))
    valid = np.arange(seq)[None, :] < lengths[:, None]
    bias = None
    if not valid.all():
        # additive key mask: padded keys get a large negative score pre-softmax
        bias = np.where(valid, 0.0, -1e9).astype(np.float32)[:, None, None, :]
    return _encoder(x, p, "text", cfg.text_layers, cfg.text_heads, bias, valid.astype(np.float32))


def encode_text(model: DualEncoderModel, tokens, lengths) -> T.Tensor:
    """Embed padded token id batches to unit-norm rows.

    tokens: int array [batch, seq]; lengths: valid token counts per row.
    Padding positions are excluded from both attention and pooling, so a
    sequence's embedding does not depend on how far it was padded.  The
    tower runs only up to the longest row of the whole batch, and masks keys
    only where some row of a block is shorter than that.
    """
    cfg = model.config
    tokens = np.asarray(tokens)
    lengths = np.asarray(lengths)
    if tokens.ndim != 2:
        raise DimensionError(f"encode_text: tokens must be 2-D, got {tokens.shape}")
    batch, seq = tokens.shape
    if seq > cfg.max_text_len:
        raise DimensionError(
            f"encode_text: sequence length {seq} exceeds max_text_len {cfg.max_text_len}"
        )
    if lengths.shape != (batch,):
        raise DimensionError(
            f"encode_text: lengths shape {lengths.shape} does not match batch {batch}"
        )
    if lengths.size and (lengths.min() < 1 or lengths.max() > seq):
        raise DimensionError(
            f"encode_text: lengths must lie in [1, {seq}], got"
            f" [{lengths.min()}, {lengths.max()}]"
        )
    # columns past the longest caption are padding in every row: drop them
    if lengths.size:
        seq = int(lengths.max())
        tokens = tokens[:, :seq]
    pooled = _pooled_in_blocks(
        model, "text", batch, seq, lambda a, b: _text_tower(model, tokens[a:b], lengths[a:b])
    )
    return T.l2_normalize(T.linear(pooled, model.params["proj/text"]))


# ---------------------------------------------------------------------------
# freeze regimes and accounting
# ---------------------------------------------------------------------------

_PROJECTION_NAMES = ("proj/visual", "proj/text", "logit_scale")


def apply_freeze(model: DualEncoderModel, regime: FreezeRegime) -> None:
    """Set every parameter's ``requires_grad`` for a training regime.

    Ops whose inputs are all frozen then record no backward rule, and frozen
    parameters get no gradient.  The logit scale and both projections stay trainable in every regime;
    text-encoder mode additionally trains the text tower, full mode trains
    everything.
    """
    for name in model.params:
        if regime is FreezeRegime.FULL:
            trainable = True
        elif regime is FreezeRegime.TEXT_ENCODER:
            trainable = not name.startswith("image/")
        elif regime is FreezeRegime.PROJECTION_ONLY:
            trainable = name in _PROJECTION_NAMES
        else:
            raise ConfigError(f"unknown freeze regime {regime!r}")
        model.params[name].requires_grad = trainable


def frozen(model: DualEncoderModel) -> DualEncoderModel:
    """The same parameter arrays with ``requires_grad`` off: its forwards record no graph."""
    params = {name: T.Tensor(p.data, dtype=p.dtype) for name, p in model.params.items()}
    return DualEncoderModel(model.config, params=params)


def trains(model: DualEncoderModel, tower: str) -> bool:
    """Whether any parameter of ``tower`` ("image" or "text") has ``requires_grad``."""
    return any(p.requires_grad for n, p in model.params.items() if n.startswith(f"{tower}/"))


# ---------------------------------------------------------------------------
# files: atomic replacement, text lines, the checkpoint container
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"NCLP"
CHECKPOINT_VERSION = 1
STATE_PREFIX = "optim/"  # no parameter name starts with it


def replace_file(path, chunks, tmp=None) -> None:
    """Write ``chunks`` (bytes-like pieces, in order) to ``tmp`` (by default
    ``<path>.tmp``), then rename it over ``path``.

    A process killed mid-write leaves the previous file whole.  There is no
    fsync: this guards against a killed process, not a lost machine.  Two
    processes that may write one path at once each pass a ``tmp`` of their own.
    """
    tmp = tmp or f"{path}.tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


def lines_text(lines) -> str:
    """``lines`` (strings without line breaks), each ended by "\\n"."""
    return "".join(f"{line}\n" for line in lines)


def write_lines(path, lines) -> None:
    """Replace the file at ``path`` with ``lines_text(lines)`` in UTF-8."""
    replace_file(path, [lines_text(lines).encode("utf-8")])


def read_lines(path, error) -> list:
    """Lines of a UTF-8 file, split only at "\\n", "\\r\\n" or "\\r" (a field may
    hold U+2028); an unreadable file or non-UTF-8 line is refused as ``error(message)``."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    lines = []
    for number, line in enumerate(raw.splitlines(), start=1):
        try:
            lines.append(line.decode("utf-8"))
        except UnicodeDecodeError:
            raise error(f"{path}:{number}: not UTF-8 text") from None
    return lines


def write_json_lines(path, entries) -> None:
    """One sorted-key JSON object per line, in ASCII: a torn line is never torn UTF-8."""
    write_lines(path, (json.dumps(entry, sort_keys=True) for entry in entries))


def read_json_lines(path, error) -> list:
    """The objects of a ``write_json_lines`` file.  An unparsable last line is
    torn and dropped; any other line that is not a JSON object is refused as
    ``error(message)`` naming the file and the line."""
    lines = read_lines(path, error)
    entries = []
    for number, line in enumerate(lines, start=1):
        try:  # {**...} refuses JSON that is not an object
            entries.append({**json.loads(line)})
        except (TypeError, ValueError):
            if number < len(lines):
                raise error(f"{path}:{number}: not a JSON object") from None
    return entries


def write_tensor_file(path, header: dict, arrays: dict, tmp=None) -> None:
    """Serialize named float32 arrays with a JSON header.

    Layout (little-endian): magic, version u32, header length u32 + canonical
    JSON, entry count u32, then per entry sorted by name: name length + utf-8
    name, ndim u32, dims u32 each, raw float32 payload.  A crc32 over all
    payload bytes closes the file.  ``tmp`` is passed to ``replace_file``.
    """
    replace_file(path, _tensor_file_chunks(header, arrays), tmp)


def _tensor_file_chunks(header: dict, arrays: dict):
    # payloads go out from the arrays' own buffers: no copy of the file is held
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    yield CHECKPOINT_MAGIC
    yield struct.pack("<II", CHECKPOINT_VERSION, len(head))
    yield head
    yield struct.pack("<I", len(arrays))
    crc = 0
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype="<f4", order="C")  # keeps 0-d shapes intact
        encoded = name.encode("utf-8")
        yield struct.pack("<I", len(encoded)) + encoded
        yield struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape)
        crc = zlib.crc32(arr, crc)
        yield arr
    yield struct.pack("<I", crc)


def read_tensor_file(path):
    """Inverse of write_tensor_file; returns (header dict, name->array).

    Each payload is read straight into the buffer its array wraps."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointIntegrityError(f"cannot read checkpoint {path}: {exc.strerror}") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n: int) -> bytearray:
            # checked before allocating: a corrupt length must not ask for gigabytes
            if fh.tell() + n > size:
                raise CheckpointIntegrityError(
                    f"truncated file: wanted {n} bytes at offset {fh.tell()},"
                    f" only {size - fh.tell()} left"
                )
            buf = bytearray(n)
            fh.readinto(buf)
            return buf

        def u32() -> int:
            return struct.unpack("<I", take(4))[0]

        magic = bytes(take(4))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        version = u32()
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(
                f"unsupported format version {version}, expected {CHECKPOINT_VERSION}"
            )
        try:
            header = json.loads(take(u32()).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointIntegrityError(f"unreadable header: {exc}") from exc
        arrays = {}
        crc = 0
        for _ in range(u32()):
            try:  # the crc covers payloads only
                name = take(u32()).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointIntegrityError(f"unreadable entry name: {exc}") from exc
            shape = tuple(u32() for _ in range(u32()))
            payload = take(int(np.prod(shape, dtype=np.int64)) * 4)
            crc = zlib.crc32(payload, crc)
            arrays[name] = np.frombuffer(payload, dtype="<f4").reshape(shape)
        stored = u32()
        if stored != crc:
            raise CheckpointIntegrityError(
                f"checksum mismatch: payload crc {crc:#010x} != stored {stored:#010x}"
            )
        if fh.tell() != size:
            raise CheckpointIntegrityError(f"{size - fh.tell()} unexpected trailing bytes")
    return header, arrays


def save_checkpoint(model: DualEncoderModel, path, metadata: dict | None = None, optimizer=None) -> None:
    """Write the model's parameters, and with ``optimizer``, a (name,
    OptimizerState) pair, its optimizer state too: one file, one rename."""
    header = {
        "config": asdict(model.config),
        "metadata": metadata if metadata is not None else model.metadata,
    }
    arrays = {n: p.data for n, p in model.params.items()}
    if optimizer is not None:
        name, state = optimizer
        meta, state_arrays = optim.state_to_arrays(state)
        header["optimizer"] = {"name": name, **meta}
        arrays.update((STATE_PREFIX + key, arr) for key, arr in state_arrays.items())
    write_tensor_file(path, header, arrays)


def read_checkpoint(path):
    """(model, optimizer name, OptimizerState) of a file written by
    ``save_checkpoint``; the last two are None in a file without optimizer state.

    The parameters come back frozen (``requires_grad`` False); ``apply_freeze`` trains them.
    """
    header, arrays = read_tensor_file(path)
    try:
        config = ModelConfig(**header["config"])
    except (KeyError, TypeError) as exc:
        raise CheckpointFormatError(f"bad config block: {exc}") from exc
    block = header.get("optimizer")
    # state arrays only count as such in a file that declares its optimizer
    state_keys = [k for k in arrays if k.startswith(STATE_PREFIX)] if block is not None else []
    state_arrays = {k[len(STATE_PREFIX) :]: arrays.pop(k) for k in state_keys}
    expected = {name: shape for name, shape, _ in _param_specs(config)}
    if set(arrays) != set(expected):
        missing = sorted(set(expected) - set(arrays))
        extra = sorted(set(arrays) - set(expected))
        raise CheckpointFormatError(
            f"parameter table does not match config (missing {missing}, extra {extra})"
        )
    for name, arr in arrays.items():
        if arr.shape != expected[name]:
            raise CheckpointFormatError(
                f"parameter {name}: shape {arr.shape} does not match config"
                f" {expected[name]}"
            )
    params = {name: T.Tensor(arrays[name]) for name in expected}
    model = DualEncoderModel(config, params=params)
    model.metadata = header.get("metadata", {})
    if block is None:
        return model, None, None
    state = optim.state_from_arrays(block, state_arrays, params)  # refuses a malformed block
    return model, block.get("name"), state


def load_checkpoint(path) -> DualEncoderModel:
    """The frozen model of ``read_checkpoint``; any optimizer state is dropped."""
    return read_checkpoint(path)[0]


def check_vocabulary(model: DualEncoderModel, vocab, error) -> None:
    """Refuse, with ``error``, a vocabulary (``data.Vocabulary``) whose token ids
    are not the model's: another size than its config's, or other tokens than
    those its checkpoint stored.  A checkpoint without stored tokens (an older
    file) is checked by size only."""
    stored = model.metadata.get("vocabulary")
    if vocab.size != model.config.vocab_size or stored not in (None, vocab.ordered_tokens()):
        raise error(
            f"vocabulary mismatch: this dataset's {vocab.size} tokens are not, token for token, the"
            f" {model.config.vocab_size} the model was trained with; use the dataset it was trained on"
        )
