import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clipforge.tensor as T
from clipforge.contrastive import MAX_SCALE, clip_loss, similarity
from clipforge.errors import DimensionError
from fdcheck import max_rel_error, numeric_grads

RNG = np.random.default_rng(777)


def _unit_rows(n, d, rng=RNG, dtype=np.float32):
    x = rng.normal(size=(n, d)).astype(dtype)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------

def test_identical_embeddings_unit_diagonal():
    e = T.Tensor(_unit_rows(5, 8))
    sim = similarity(e, e, T.Tensor(0.0))
    np.testing.assert_allclose(np.diag(sim.data), 1.0, atol=1e-5)


def test_orthogonal_rows_zero_off_diagonal():
    e = T.Tensor(np.eye(4, 6, dtype=np.float32))
    sim = similarity(e, e, T.Tensor(math.log(3.0)))
    off = sim.data[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off, 0.0, atol=1e-6)
    np.testing.assert_allclose(np.diag(sim.data), 3.0, rtol=1e-5)


def test_scale_bound_at_reference_temperature():
    img = T.Tensor(_unit_rows(16, 12))
    sim = similarity(img, T.Tensor(_unit_rows(16, 12)), T.Tensor(2.659))
    assert np.diag(similarity(img, img, T.Tensor(2.659)).data).max() <= 14.29  # the scale itself
    assert np.abs(sim.data).max() <= 14.29


def test_scale_clamped_at_ceiling():
    e = T.Tensor(_unit_rows(3, 4))
    sim = similarity(e, e, T.Tensor(math.log(1000.0)))
    np.testing.assert_allclose(np.diag(sim.data), MAX_SCALE, rtol=1e-6)
    assert np.abs(sim.data).max() <= MAX_SCALE + 1e-4


def test_similarity_row_count_mismatch():
    with pytest.raises(DimensionError) as exc:
        similarity(T.Tensor(_unit_rows(3, 4)), T.Tensor(_unit_rows(5, 4)), T.Tensor(0.0))
    assert "3" in str(exc.value) and "5" in str(exc.value)


def test_similarity_width_mismatch():
    with pytest.raises(DimensionError):
        similarity(T.Tensor(_unit_rows(3, 4)), T.Tensor(_unit_rows(3, 6)), T.Tensor(0.0))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    d=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    log_scale=st.floats(min_value=-2.0, max_value=6.0),
)
def test_logit_magnitude_bounded_by_scale(n, d, seed, log_scale):
    rng = np.random.default_rng(seed)
    img = T.Tensor(_unit_rows(n, d, rng))
    txt = T.Tensor(_unit_rows(n, d, rng))
    scale = min(math.exp(log_scale), MAX_SCALE)
    assert np.abs(similarity(img, txt, T.Tensor(log_scale)).data).max() <= scale + 1e-4
    # unit rows against themselves put the scale on the diagonal
    np.testing.assert_allclose(np.diag(similarity(img, img, T.Tensor(log_scale)).data), scale, rtol=1e-6)


# ---------------------------------------------------------------------------
# clip_loss
# ---------------------------------------------------------------------------

def test_uniform_logits_give_log_n():
    for n in (2, 4, 7):
        loss = clip_loss(T.Tensor(np.ones((n, n), dtype=np.float32)))
        assert float(loss.data) == pytest.approx(math.log(n), rel=1e-6)


def test_strong_diagonal_drives_loss_to_zero():
    logits = np.eye(6, dtype=np.float32) * 50.0
    assert float(clip_loss(T.Tensor(logits)).data) < 1e-6


def test_two_by_two_hand_value():
    loss = clip_loss(T.Tensor(np.array([[2.0, 0.0], [0.0, 2.0]], dtype=np.float32)))
    expected = math.log(1.0 + math.exp(-2.0))  # 0.126928...
    assert float(loss.data) == pytest.approx(expected, abs=1e-6)
    assert expected == pytest.approx(0.1269, abs=5e-5)


def test_non_square_logits_rejected():
    with pytest.raises(DimensionError):
        clip_loss(T.Tensor(np.zeros((3, 4), dtype=np.float32)))


def test_accepts_similarity_matrix():
    e = T.Tensor(_unit_rows(4, 8))
    loss = clip_loss(similarity(e, e, T.Tensor(2.0)))
    assert loss.shape == ()
    assert np.isfinite(loss.data)


def test_transpose_symmetry_exact():
    logits = RNG.normal(size=(6, 6)).astype(np.float32)
    a = float(clip_loss(T.Tensor(logits)).data)
    b = float(clip_loss(T.Tensor(logits.T.copy())).data)
    assert a == b


def test_random_unit_embeddings_near_log_batch():
    n = 64
    img = T.Tensor(_unit_rows(n, 32))
    txt = T.Tensor(_unit_rows(n, 32))
    loss = float(clip_loss(similarity(img, txt, T.Tensor(0.0))).data)
    assert abs(loss - math.log(n)) < 0.1 * math.log(n)


def test_joint_permutation_invariance():
    n = 8
    img = _unit_rows(n, 16)
    txt = _unit_rows(n, 16)
    base = float(clip_loss(similarity(T.Tensor(img), T.Tensor(txt), T.Tensor(1.5))).data)
    perm = RNG.permutation(n)
    permuted = float(
        clip_loss(similarity(T.Tensor(img[perm]), T.Tensor(txt[perm]), T.Tensor(1.5))).data
    )
    assert permuted == pytest.approx(base, rel=1e-6)


def test_loss_gradcheck_embeddings_and_scale():
    n, d = 5, 7
    img = _unit_rows(n, d, dtype=np.float64)
    txt = _unit_rows(n, d, dtype=np.float64)
    ls = np.asarray(1.2, dtype=np.float64)

    def run(arrays):
        tensors = [T.Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
        return tensors, clip_loss(similarity(tensors[0], tensors[1], tensors[2]))

    tensors, loss = run([img, txt, ls])
    T.backward(loss)
    numeric = numeric_grads(lambda arrs: float(run(arrs)[1].data), [img, txt, ls], eps=1e-5)
    for t, num in zip(tensors, numeric):
        assert max_rel_error(t.grad, num) < 1e-3


def test_gradients_flow_to_both_towers():
    img = T.Tensor(_unit_rows(4, 6), requires_grad=True)
    txt = T.Tensor(_unit_rows(4, 6), requires_grad=True)
    ls = T.Tensor(np.asarray(2.659, dtype=np.float32), requires_grad=True)
    T.backward(clip_loss(similarity(img, txt, ls)))
    assert img.grad is not None and np.abs(img.grad).sum() > 0
    assert txt.grad is not None and np.abs(txt.grad).sum() > 0
    assert ls.grad is not None


def test_clamped_scale_blocks_scale_gradient():
    # above the ceiling the clamp is flat, so logit_scale gets zero gradient
    img = T.Tensor(_unit_rows(4, 6), requires_grad=True)
    txt = T.Tensor(_unit_rows(4, 6), requires_grad=True)
    ls = T.Tensor(np.asarray(math.log(500.0), dtype=np.float32), requires_grad=True)
    T.backward(clip_loss(similarity(img, txt, ls)))
    assert ls.grad is not None
    assert float(np.abs(ls.grad)) == 0.0
