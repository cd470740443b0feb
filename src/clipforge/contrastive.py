"""Temperature-scaled similarity and the symmetric image-text contrastive loss.

The pairing convention is diagonal: within a batch, caption i is the unique
positive for image i.  Duplicate captions in a batch are not deduplicated.
"""

import numpy as np

from . import tensor as T
from .errors import DimensionError

# hard ceiling on the temperature multiplier, applied after exponentiation
MAX_SCALE = 100.0


def _as_tensor(value) -> T.Tensor:
    if isinstance(value, T.Tensor):
        return value
    return T.Tensor(np.asarray(value, dtype=np.float32))


def similarity(image_emb: T.Tensor, text_emb: T.Tensor, logit_scale) -> T.Tensor:
    """Logits of scaled cosine similarities: image rows against text columns.

    The multiplier is exp(logit_scale) clamped to MAX_SCALE; the clamp keeps
    the temperature finite while staying differentiable below the ceiling.
    """
    if image_emb.ndim != 2 or text_emb.ndim != 2:
        raise DimensionError(
            f"similarity: expected 2-D embeddings, got {image_emb.shape} and {text_emb.shape}"
        )
    if image_emb.shape[0] != text_emb.shape[0]:
        raise DimensionError(
            f"similarity: row counts differ, {image_emb.shape[0]} images vs"
            f" {text_emb.shape[0]} texts"
        )
    if image_emb.shape[1] != text_emb.shape[1]:
        raise DimensionError(
            f"similarity: embedding widths differ, {image_emb.shape[1]} vs {text_emb.shape[1]}"
        )
    scale = T.clamp_max(T.exp(_as_tensor(logit_scale)), MAX_SCALE)
    raw = T.matmul(image_emb, T.swap_axes(text_emb, 0, 1))
    return T.mul(raw, scale)


def clip_loss(logits: T.Tensor) -> T.Tensor:
    """Symmetric InfoNCE loss over a square similarity matrix.

    Averages the image-to-text and text-to-image cross-entropies, each with
    the diagonal as targets.
    """
    if logits.ndim != 2 or logits.shape[0] != logits.shape[1]:
        raise DimensionError(f"clip_loss: logits must be square, got {logits.shape}")
    targets = np.arange(logits.shape[0])
    per_image = T.softmax_cross_entropy(logits, targets)
    per_text = T.softmax_cross_entropy(T.swap_axes(logits, 0, 1), targets)
    return T.scale(T.add(per_image, per_text), 0.5)
