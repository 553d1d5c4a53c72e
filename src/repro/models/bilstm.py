"""Time-aware BiLSTM baseline (paper §III-A2).

Per-post text representations (mask-aware mean of word embeddings) are
fused with dense temporal encodings *before* the recurrence through a
multi-head attention block — "this mechanism integrates temporal features
and text representation before BiLSTM" — then a bidirectional LSTM over
the post sequence produces the user state that the classifier reads.
"""

from __future__ import annotations

import numpy as np

from repro.core.rng import SeedSequenceRegistry
from repro.core.schema import NUM_CLASSES
from repro.models.neural_common import (
    EncodedWindows,
    NeuralRiskModel,
    TextPipeline,
    TrainerConfig,
    collate_post_grid,
    collate_time,
    train_classifier,
)
from repro.nn import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    LSTM,
    MultiHeadAttention,
    Tensor,
)
from repro.nn.module import Module
from repro.temporal.windows import PostWindow


def masked_mean_embed(
    embed: Embedding, ids: np.ndarray, token_mask: np.ndarray
) -> Tensor:
    """(B, W, L) ids → (B, W, D) mask-aware mean embeddings."""
    vectors = embed(ids)  # (B, W, L, D)
    weights = Tensor(token_mask[..., None])
    summed = (vectors * weights).sum(axis=2)
    counts = Tensor(np.maximum(token_mask.sum(axis=2, keepdims=True), 1.0))
    return summed / counts


class BiLSTMNetwork(Module):
    """Embedding → temporal fusion attention → BiLSTM → classifier."""

    def __init__(
        self,
        vocab_size: int,
        time_dim: int,
        rng: np.random.Generator,
        embed_dim: int = 64,
        hidden_dim: int = 64,
        num_heads: int = 4,
        dropout: float = 0.1,
        pad_id: int = 0,
    ) -> None:
        super().__init__()
        self.pad_id = pad_id
        self.embed = Embedding(vocab_size, embed_dim, rng, padding_idx=pad_id)
        self.time_proj = Linear(time_dim, embed_dim, rng)
        self.fuse_norm = LayerNorm(embed_dim)
        self.fusion_attn = MultiHeadAttention(embed_dim, num_heads, rng, dropout)
        self.attn_norm = LayerNorm(embed_dim)
        self.lstm = LSTM(embed_dim, hidden_dim, rng, bidirectional=True)
        self.dropout = Dropout(dropout, rng)
        self.classifier = Linear(2 * hidden_dim, NUM_CLASSES, rng)

    def forward(
        self,
        ids: np.ndarray,
        token_mask: np.ndarray,
        post_mask: np.ndarray,
        time_feats: np.ndarray,
    ) -> Tensor:
        text = masked_mean_embed(self.embed, ids, token_mask)  # (B, W, D)
        time = self.time_proj(Tensor(time_feats))
        fused = self.fuse_norm(text + time)
        attended = self.fusion_attn(fused, mask=post_mask)
        fused = self.attn_norm(fused + self.dropout(attended))
        _, final_state = self.lstm(fused, mask=post_mask)
        return self.classifier(self.dropout(final_state))


class TimeAwareBiLSTM(NeuralRiskModel):
    """The §III-A2 baseline wrapped in the common RiskModel interface."""

    name = "BiLSTM"

    def __init__(
        self,
        trainer: TrainerConfig | None = None,
        embed_dim: int = 64,
        hidden_dim: int = 64,
        max_vocab: int = 1200,
        max_posts: int = 5,
        max_tokens: int = 48,
        dropout: float = 0.3,
        pretrained_embeddings=None,
        seed: int = 0,
    ) -> None:
        """``pretrained_embeddings``: optional
        :class:`repro.text.embeddings.SkipGramEmbeddings` whose vocabulary
        and vectors seed the embedding table (dims must match
        ``embed_dim``), mirroring the pretrained-word-vector initialisation
        of the paper's RNN baselines."""
        super().__init__()
        self.trainer = trainer or TrainerConfig(
            epochs=30, lr=2e-3, patience=10, weight_decay=3e-3, seed=seed
        )
        self.pretrained_embeddings = pretrained_embeddings
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.max_posts = max_posts
        self.max_tokens = max_tokens
        self.dropout = dropout
        self.seed = seed
        self.pipeline = TextPipeline(
            max_vocab=max_vocab, max_tokens_per_post=max_tokens
        )
        self.network: BiLSTMNetwork | None = None

    def _forward(self, encoded: EncodedWindows, idx: np.ndarray) -> Tensor:
        ids, token_mask, post_mask = collate_post_grid(
            encoded, idx, self.pipeline.vocab.pad_id, self.max_posts, self.max_tokens
        )
        time_feats, _, _ = collate_time(encoded, idx, self.max_posts)
        return self.network(ids, token_mask, post_mask, time_feats)

    def _fit(self, train: list[PostWindow], validation: list[PostWindow]) -> None:
        if self.pretrained_embeddings is not None:
            self.pipeline.vocab = self.pretrained_embeddings.vocab
        else:
            self.pipeline.fit(train)
        rng = SeedSequenceRegistry(self.seed).get("bilstm-init")
        self.network = BiLSTMNetwork(
            vocab_size=len(self.pipeline.vocab),
            time_dim=self.pipeline.time_dim,
            rng=rng,
            embed_dim=self.embed_dim,
            hidden_dim=self.hidden_dim,
            pad_id=self.pipeline.vocab.pad_id,
            dropout=self.dropout,
        )
        if self.pretrained_embeddings is not None:
            vectors = self.pretrained_embeddings.vectors
            if vectors.shape != self.network.embed.weight.shape:
                raise ValueError(
                    "pretrained embedding shape "
                    f"{vectors.shape} != table {self.network.embed.weight.shape}"
                )
            self.network.embed.weight.data = vectors.copy()
            self.network.embed.weight.data[self.pipeline.vocab.pad_id] = 0.0
        encoded_train = self.pipeline.encode(train)
        encoded_val = self.pipeline.encode(validation) if validation else None
        self.history = train_classifier(
            self.network, self._forward, encoded_train, encoded_val, self.trainer
        )
