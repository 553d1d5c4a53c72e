"""Attention mechanisms: standard multi-head and DeBERTa-style
disentangled attention with relative position encodings."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.errors import ShapeError
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


def split_heads(x: Tensor, num_heads: int) -> Tensor:
    """(B, T, D) → (B, h, T, D/h)."""
    batch, steps, dim = x.shape
    if dim % num_heads:
        raise ShapeError(f"model dim {dim} not divisible by {num_heads} heads")
    return x.reshape(batch, steps, num_heads, dim // num_heads).transpose(0, 2, 1, 3)


def merge_heads(x: Tensor) -> Tensor:
    """(B, h, T, dh) → (B, T, D)."""
    batch, heads, steps, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch, steps, heads * dh)


def attention_mask_bias(mask: np.ndarray) -> np.ndarray:
    """(B, T) keep-mask → (B, 1, 1, T) boolean *pad* mask for
    :meth:`Tensor.softmax`."""
    mask = np.asarray(mask)
    return (mask == 0)[:, None, None, :]


class MultiHeadAttention(Module):
    """Scaled dot-product attention with ``num_heads`` heads.

    Supports self-attention (`query is key is value`) and cross-attention
    (the temporal-fusion layers of the RoBERTa/BiLSTM baselines attend
    from text representations to temporal features).
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        if dim % num_heads:
            raise ShapeError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.w_q = Linear(dim, dim, rng)
        self.w_k = Linear(dim, dim, rng)
        self.w_v = Linear(dim, dim, rng)
        self.w_o = Linear(dim, dim, rng)
        self.dropout = Dropout(dropout, rng)
        self._scale = 1.0 / np.sqrt(dim // num_heads)

    def forward(
        self,
        query: Tensor,
        key: Tensor | None = None,
        value: Tensor | None = None,
        mask: np.ndarray | None = None,
    ) -> Tensor:
        key = query if key is None else key
        value = key if value is None else value
        q = split_heads(self.w_q(query), self.num_heads)
        k = split_heads(self.w_k(key), self.num_heads)
        v = split_heads(self.w_v(value), self.num_heads)
        scores = q @ k.swapaxes(-1, -2)
        pad = None if mask is None else attention_mask_bias(mask)
        weights = self.dropout(scores.softmax(axis=-1, scale=self._scale, pad=pad))
        context = weights @ v
        return self.w_o(merge_heads(context))


class TemporalDecayAttention(Module):
    """Multi-head attention whose scores decay with temporal distance.

    Used by the RoBERTa baseline: "the calculation of attention weights
    takes into account the decay effect of temporal distance". A learnable
    per-head rate λ subtracts ``λ · |Δt|`` (log-hours) from the logits.
    """

    def __init__(
        self, dim: int, num_heads: int, rng: np.random.Generator, dropout: float = 0.0
    ) -> None:
        super().__init__()
        self.inner = MultiHeadAttention(dim, num_heads, rng, dropout)
        self.decay = Parameter(np.full(num_heads, 0.1))
        self.num_heads = num_heads

    def forward(
        self,
        x: Tensor,
        timestamps_hours: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> Tensor:
        """``timestamps_hours``: (B, T) event times in hours."""
        inner = self.inner
        q = split_heads(inner.w_q(x), self.num_heads)
        k = split_heads(inner.w_k(x), self.num_heads)
        v = split_heads(inner.w_v(x), self.num_heads)
        scores = (q @ k.swapaxes(-1, -2)) * inner._scale
        delta = np.abs(
            timestamps_hours[:, :, None] - timestamps_hours[:, None, :]
        )  # (B, T, T)
        log_delta = Tensor(np.log1p(delta)[:, None, :, :])  # (B, 1, T, T)
        rates = self.decay.reshape(1, self.num_heads, 1, 1)
        scores = scores - rates * log_delta
        pad = None if mask is None else attention_mask_bias(mask)
        weights = inner.dropout(scores.softmax(axis=-1, pad=pad))
        return inner.w_o(merge_heads(weights @ v))


def relative_position_index(length: int, max_distance: int) -> np.ndarray:
    """(T, T) matrix of clipped relative-position bucket ids.

    ``index[i, j] = clip(j - i, ±max_distance) + max_distance`` ∈
    [0, 2·max_distance].
    """
    pos = np.arange(length)
    rel = pos[None, :] - pos[:, None]
    return np.clip(rel, -max_distance, max_distance) + max_distance


@lru_cache(maxsize=256)
def _gather_indices(length: int, max_distance: int) -> tuple[np.ndarray, np.ndarray]:
    """Memoised flat ``(c2p, p2c)`` gather indices for disentangled attention.

    Both are (T, T) indices into the last axis of a (B, h, T·K) score
    tensor, K = 2·max_distance + 1 buckets: ``c2p[i, j] = i·K + δ(i, j)``
    and ``p2c[i, j] = j·K + δ(j, i)``, i.e. ``c2p`` transposed and stored
    contiguously, so both gathers yield C-contiguous (B, h, T, T) scores.
    Serving runs the same sequence lengths over and over; the arrays are
    read-only because they are shared across calls.
    """
    buckets = 2 * max_distance + 1
    c2p = np.arange(length)[:, None] * buckets + relative_position_index(
        length, max_distance
    )
    p2c = np.ascontiguousarray(c2p.T)
    c2p.setflags(write=False)
    p2c.setflags(write=False)
    return c2p, p2c


class DisentangledSelfAttention(Module):
    """DeBERTa-style disentangled attention.

    The attention logit decomposes into content-to-content,
    content-to-position and position-to-content terms, with *relative*
    position embeddings shared across the layer:

    ``A[i,j] = Qc_i·Kc_j + Qc_i·Kr_{δ(i,j)} + Kc_j·Qr_{δ(j,i)}``

    scaled by ``1/sqrt(3·d_h)`` as in the paper (He et al., 2021).
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        max_relative_distance: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        if dim % num_heads:
            raise ShapeError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.max_relative_distance = max_relative_distance
        self.head_dim = dim // num_heads
        self.w_q = Linear(dim, dim, rng)
        self.w_k = Linear(dim, dim, rng)
        self.w_v = Linear(dim, dim, rng)
        self.w_o = Linear(dim, dim, rng)
        num_buckets = 2 * max_relative_distance + 1
        self.rel_embed = Parameter(
            rng.normal(0.0, 0.02, size=(num_buckets, dim))
        )
        self.w_qr = Linear(dim, dim, rng, bias=False)
        self.w_kr = Linear(dim, dim, rng, bias=False)
        self.dropout = Dropout(dropout, rng)
        self._scale = 1.0 / np.sqrt(3.0 * self.head_dim)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        batch, steps, _ = x.shape
        qc = split_heads(self.w_q(x), self.num_heads)  # (B,h,T,dh)
        kc = split_heads(self.w_k(x), self.num_heads)
        v = split_heads(self.w_v(x), self.num_heads)

        rel = Tensor.ensure(self.rel_embed)
        kr = self.w_kr(rel)  # (buckets, D)
        qr = self.w_qr(rel)
        buckets = kr.shape[0]
        kr = kr.reshape(buckets, self.num_heads, self.head_dim).transpose(1, 0, 2)
        qr = qr.reshape(buckets, self.num_heads, self.head_dim).transpose(1, 0, 2)

        c2p_idx, p2c_idx = _gather_indices(steps, self.max_relative_distance)
        flat = (batch, self.num_heads, steps * buckets)

        c2c = qc @ kc.swapaxes(-1, -2)  # (B,h,T,T)
        # content→position: Qc_i · Kr_{δ(i,j)}
        c2p = (qc @ kr.swapaxes(-1, -2)).reshape(flat).take(c2p_idx, axis=-1)
        # position→content: Kc_j · Qr_{δ(j,i)} with δ(j,i) = clip(i−j)+R,
        # gathered straight into [b,h,i,j] order.
        p2c = (kc @ qr.swapaxes(-1, -2)).reshape(flat).take(p2c_idx, axis=-1)

        pad = None if mask is None else attention_mask_bias(mask)
        weights = self.dropout(
            (c2c + c2p + p2c).softmax(axis=-1, scale=self._scale, pad=pad)
        )
        return self.w_o(merge_heads(weights @ v))
