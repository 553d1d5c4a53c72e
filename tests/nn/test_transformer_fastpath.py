"""Contracts of the fused transformer ops: ``gelu``, ``softmax(scale=, pad=)``
and ``take``, and of the attention layers built on them.

Each fast op is pinned against an oracle kept here: ``gelu`` against
``gelu_reference`` within 1e-15, the others bitwise (forward and every
gradient) against the unfused chains they replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import (
    DisentangledSelfAttention,
    MultiHeadAttention,
    TemporalDecayAttention,
    Tensor,
)
from repro.nn.attention import (
    attention_mask_bias,
    merge_heads,
    relative_position_index,
    split_heads,
)
from repro.nn.tensor import NEG_INF, gelu_reference
from tests.nn.test_tensor import check_grad

GELU_ATOL = 1e-15


# -- oracles: the unfused ops as they were before fusion ---------------------


def masked_fill_unfused(t: Tensor, mask, value: float) -> Tensor:
    mask = np.asarray(mask, dtype=bool)

    def backward(grad):
        if t.requires_grad:
            t._accumulate(np.where(mask, 0.0, grad))

    return Tensor._make(np.where(mask, value, t.data), (t,), backward)


def softmax_unfused(t: Tensor, axis: int = -1) -> Tensor:
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad):
        if t.requires_grad:
            inner = (grad * out).sum(axis=axis, keepdims=True)
            t._accumulate(out * (grad - inner))

    return Tensor._make(out, (t,), backward)


def scores_softmax_unfused(scores: Tensor, scale: float, mask) -> Tensor:
    if scale != 1.0:
        scores = scores * scale
    if mask is not None:
        scores = masked_fill_unfused(scores, attention_mask_bias(mask), NEG_INF)
    return softmax_unfused(scores)


def mha_unfused(m: MultiHeadAttention, x: Tensor, mask) -> Tensor:
    q = split_heads(m.w_q(x), m.num_heads)
    k = split_heads(m.w_k(x), m.num_heads)
    v = split_heads(m.w_v(x), m.num_heads)
    weights = scores_softmax_unfused(q @ k.swapaxes(-1, -2), m._scale, mask)
    return m.w_o(merge_heads(m.dropout(weights) @ v))


def temporal_unfused(m: TemporalDecayAttention, x: Tensor, hours, mask) -> Tensor:
    inner = m.inner
    q = split_heads(inner.w_q(x), m.num_heads)
    k = split_heads(inner.w_k(x), m.num_heads)
    v = split_heads(inner.w_v(x), m.num_heads)
    scores = (q @ k.swapaxes(-1, -2)) * inner._scale
    delta = np.abs(hours[:, :, None] - hours[:, None, :])
    log_delta = Tensor(np.log1p(delta)[:, None, :, :])
    scores = scores - m.decay.reshape(1, m.num_heads, 1, 1) * log_delta
    weights = scores_softmax_unfused(scores, 1.0, mask)
    return inner.w_o(merge_heads(inner.dropout(weights) @ v))


def disentangled_unfused(m: DisentangledSelfAttention, x: Tensor, mask) -> Tensor:
    steps = x.shape[1]
    qc = split_heads(m.w_q(x), m.num_heads)
    kc = split_heads(m.w_k(x), m.num_heads)
    v = split_heads(m.w_v(x), m.num_heads)
    rel = Tensor.ensure(m.rel_embed)
    kr, qr = m.w_kr(rel), m.w_qr(rel)
    buckets = kr.shape[0]
    kr = kr.reshape(buckets, m.num_heads, m.head_dim).transpose(1, 0, 2)
    qr = qr.reshape(buckets, m.num_heads, m.head_dim).transpose(1, 0, 2)
    rows = np.arange(steps)[:, None]
    idx = relative_position_index(steps, m.max_relative_distance)
    c2c = qc @ kc.swapaxes(-1, -2)
    c2p = (qc @ kr.swapaxes(-1, -2))[:, :, rows, idx]
    p2c = (kc @ qr.swapaxes(-1, -2))[:, :, rows, idx].swapaxes(-1, -2)
    weights = scores_softmax_unfused(c2c + c2p + p2c, m._scale, mask)
    return m.w_o(merge_heads(m.dropout(weights) @ v))


def keep_mask(rng, batch: int, steps: int) -> np.ndarray:
    """Random lengths, including a row that keeps a single position."""
    lengths = rng.integers(1, steps + 1, size=batch)
    lengths[0] = 1
    lengths[-1] = steps
    return (np.arange(steps)[None, :] < lengths[:, None]).astype(np.int64)


# -- gelu --------------------------------------------------------------------


class TestGelu:
    def test_dense_grid_matches_reference(self):
        x = np.linspace(-20.0, 20.0, 400_001)
        fast = Tensor(x).gelu().data
        assert np.abs(fast - gelu_reference(x)).max() <= GELU_ATOL

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(
        np.float64, hnp.array_shapes(max_dims=3, max_side=8),
        elements=st.floats(-20, 20, allow_nan=False),
    ))
    def test_property_matches_reference(self, x):
        fast = Tensor(x).gelu().data
        assert fast.shape == x.shape
        assert np.abs(fast - gelu_reference(x)).max(initial=0.0) <= GELU_ATOL

    def test_backward_matches_reference_derivative(self):
        x = np.linspace(-8.0, 8.0, 2001)
        t = Tensor(x, requires_grad=True)
        t.gelu().sum().backward()
        eps = 1e-6
        numeric = (gelu_reference(x + eps) - gelu_reference(x - eps)) / (2 * eps)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-8)


# -- softmax(scale=, pad=) ----------------------------------------------------


def softmax_oracle(x, scale, pad, upstream):
    """numpy scale → fill → softmax, and its gradient back to ``x``."""
    z = x * scale
    if pad is not None:
        z = np.where(pad, NEG_INF, z)
    shifted = z - z.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=-1, keepdims=True)
    inner = (upstream * out).sum(axis=-1, keepdims=True)
    grad = out * (upstream - inner)
    if pad is not None:
        grad = np.where(pad, 0.0, grad)
    return out, grad * scale


class TestFusedSoftmax:
    @pytest.mark.parametrize("scale", [1.0, 0.125, 1.0 / np.sqrt(3.0 * 16)])
    @pytest.mark.parametrize("padded", [False, True])
    def test_bitwise_against_oracle(self, scale, padded):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3, 7, 7)) * 4
        upstream = rng.normal(size=x.shape)
        pad = None
        if padded:
            pad = attention_mask_bias(keep_mask(rng, 4, 7))
            assert pad[0].sum() == 6  # every position but one padded
            assert not pad[-1].any()  # nothing padded
        t = Tensor(x, requires_grad=True)
        out = t.softmax(axis=-1, scale=scale, pad=pad)
        out.backward(upstream)
        want_out, want_grad = softmax_oracle(x, scale, pad, upstream)
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(t.grad, want_grad)

    def test_padded_positions_get_zero_weight_and_grad(self):
        x = np.random.default_rng(4).normal(size=(2, 5))
        pad = np.array([[False, True, True, True, True],
                         [False, False, False, True, False]])
        t = Tensor(x, requires_grad=True)
        out = t.softmax(axis=-1, scale=0.5, pad=pad)
        out.backward(np.ones_like(x) + x)
        assert (out.data[pad] == 0.0).all()
        assert out.data[0, 0] == 1.0
        assert (t.grad[pad] == 0.0).all()

    def test_fully_padded_row_is_uniform(self):
        t = Tensor(np.arange(4.0)[None, :])
        out = t.softmax(pad=np.ones((1, 4), dtype=bool))
        np.testing.assert_array_equal(out.data, np.full((1, 4), 0.25))

    def test_grad_with_scale(self):
        a = np.random.default_rng(5).normal(size=(3, 5))
        check_grad(lambda x: (x.softmax(axis=-1, scale=0.3) ** 2).sum(), a, tol=1e-6)

    def test_grad_with_scale_and_pad(self):
        a = np.random.default_rng(6).normal(size=(3, 5))
        pad = np.zeros((3, 5), dtype=bool)
        pad[0, 1:] = True
        pad[1, 3] = True
        check_grad(
            lambda x: (x.softmax(axis=-1, scale=0.7, pad=pad) ** 2).sum(),
            a, tol=1e-6,
        )

    def test_input_is_not_modified(self):
        x = np.random.default_rng(7).normal(size=(2, 3))
        before = x.copy()
        Tensor(x).softmax(scale=2.0, pad=np.eye(2, 3, dtype=bool))
        np.testing.assert_array_equal(x, before)


# -- take ---------------------------------------------------------------------


class TestTake:
    def test_axis0_bitwise_against_fancy_indexing(self):
        rng = np.random.default_rng(8)
        table = rng.normal(size=(10, 4))
        ids = rng.integers(0, 10, size=(5, 6))  # duplicates
        upstream = rng.normal(size=(5, 6, 4))
        t = Tensor(table, requires_grad=True)
        out = t.take(ids)
        out.backward(upstream)
        np.testing.assert_array_equal(out.data, table[ids])
        want = np.zeros_like(table)
        np.add.at(want, ids, upstream)
        np.testing.assert_array_equal(t.grad, want)

    def test_last_axis_bitwise_against_fancy_indexing(self):
        rng = np.random.default_rng(9)
        steps, distance = 9, 3
        buckets = 2 * distance + 1
        scores = rng.normal(size=(2, 3, steps * buckets))
        flat = (np.arange(steps)[:, None] * buckets
                + relative_position_index(steps, distance))
        for idx in (flat, np.ascontiguousarray(flat.T)):
            upstream = rng.normal(size=(2, 3, steps, steps))
            t = Tensor(scores, requires_grad=True)
            out = t.take(idx, axis=-1)
            out.backward(upstream)
            np.testing.assert_array_equal(out.data, scores[..., idx])
            assert out.data.flags["C_CONTIGUOUS"]
            want = np.zeros_like(scores)
            np.add.at(want, (slice(None), slice(None), idx), upstream)
            np.testing.assert_array_equal(t.grad, want)

    def test_middle_axis(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 5, 2))
        idx = np.array([4, 0, 4])
        t = Tensor(x, requires_grad=True)
        out = t.take(idx, axis=1)
        out.backward(np.ones_like(out.data))
        np.testing.assert_array_equal(out.data, x[:, idx, :])
        assert (t.grad[:, 4] == 2.0).all() and (t.grad[:, 0] == 1.0).all()
        assert (t.grad[:, 1:4] == 0.0).all()


# -- attention layers against their unfused forward -----------------------------


def assert_same_forward_and_grads(module, fused, unfused, x, seed):
    upstream = np.random.default_rng(seed).normal(size=fused(x).shape)

    def run(forward):
        module.zero_grad()
        inp = Tensor(x.data.copy(), requires_grad=True)
        out = forward(inp)
        out.backward(upstream)
        grads = {name: p.grad.copy() for name, p in module.named_parameters()}
        return out.data, inp.grad, grads

    out_a, dx_a, grads_a = run(fused)
    out_b, dx_b, grads_b = run(unfused)
    np.testing.assert_array_equal(out_a, out_b)
    np.testing.assert_array_equal(dx_a, dx_b)
    assert grads_a.keys() == grads_b.keys()
    for name in grads_a:
        np.testing.assert_array_equal(grads_a[name], grads_b[name], err_msg=name)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("steps", [5, 23])
def test_disentangled_attention_bitwise(masked, steps):
    rng = np.random.default_rng(steps)
    m = DisentangledSelfAttention(16, 4, 6, np.random.default_rng(0))
    x = Tensor(rng.normal(size=(3, steps, 16)))
    mask = keep_mask(rng, 3, steps) if masked else None
    assert_same_forward_and_grads(
        m, lambda t: m(t, mask=mask), lambda t: disentangled_unfused(m, t, mask),
        x, steps,
    )


@pytest.mark.parametrize("masked", [False, True])
def test_multi_head_attention_bitwise(masked):
    rng = np.random.default_rng(12)
    m = MultiHeadAttention(16, 4, np.random.default_rng(1))
    x = Tensor(rng.normal(size=(3, 11, 16)))
    mask = keep_mask(rng, 3, 11) if masked else None
    assert_same_forward_and_grads(
        m, lambda t: m(t, mask=mask), lambda t: mha_unfused(m, t, mask), x, 12
    )


def test_temporal_decay_attention_bitwise():
    rng = np.random.default_rng(13)
    m = TemporalDecayAttention(16, 4, np.random.default_rng(2))
    x = Tensor(rng.normal(size=(3, 5, 16)))
    hours = np.cumsum(rng.exponential(10.0, size=(3, 5)), axis=1)
    mask = keep_mask(rng, 3, 5)
    assert_same_forward_and_grads(
        m, lambda t: m(t, hours, mask=mask),
        lambda t: temporal_unfused(m, t, hours, mask), x, 13,
    )
