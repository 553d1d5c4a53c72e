"""Time-aware RoBERTa baseline (paper §III-A4).

A RoBERTa-style transformer encoder (absolute positions, post-LN, GELU),
domain-pretrained with masked language modelling, fine-tuned with a
temporal attention mechanism: multi-dimensional temporal features are
mapped into the text semantic space by a projection layer, attended with
a multi-head structure whose logits decay with temporal distance, and
fused with the pooled text representation through a residual + layer-norm
path.
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
    collate_flat_tokens,
    collate_time,
    train_classifier,
)
from repro.models.plm import MLMResult, PLMConfig, pretrain_mlm
from repro.nn import (
    Dropout,
    LayerNorm,
    Linear,
    TemporalDecayAttention,
    Tensor,
    TransformerEncoder,
    mean_pool,
)
from repro.nn.module import Module
from repro.temporal.windows import PostWindow


class RobertaRiskNetwork(Module):
    """Encoder + temporal projection + decay attention + fusion head."""

    def __init__(
        self,
        vocab_size: int,
        time_dim: int,
        config: PLMConfig,
        rng: np.random.Generator,
        pad_id: int = 0,
    ) -> None:
        super().__init__()
        self.config = config
        self.encoder = TransformerEncoder(
            vocab_size=vocab_size,
            dim=config.dim,
            num_layers=config.num_layers,
            num_heads=config.num_heads,
            max_len=config.max_len,
            rng=rng,
            ffn_hidden=config.ffn_hidden,
            dropout=config.dropout,
            pad_id=pad_id,
        )
        self.time_proj = Linear(time_dim, config.dim, rng)
        self.time_norm = LayerNorm(config.dim)
        self.temporal_attn = TemporalDecayAttention(
            config.dim, config.num_heads, rng, config.dropout
        )
        self.fuse_norm = LayerNorm(config.dim)
        self.dropout = Dropout(config.dropout, rng)
        self.classifier = Linear(config.dim, NUM_CLASSES, rng)

    def forward(
        self,
        flat_ids: np.ndarray,
        flat_mask: np.ndarray,
        time_feats: np.ndarray,
        post_mask: np.ndarray,
        hours: np.ndarray,
    ) -> Tensor:
        states = self.encoder(flat_ids, mask=flat_mask)
        h_text = mean_pool(states, flat_mask)  # (B, D)
        time_seq = self.time_norm(self.time_proj(Tensor(time_feats)))  # (B, W, D)
        attended = self.temporal_attn(time_seq, hours, mask=post_mask)
        h_time = mean_pool(attended, post_mask)
        fused = self.fuse_norm(h_text + h_time)  # residual keeps semantics
        return self.classifier(self.dropout(fused))


class RobertaRiskModel(NeuralRiskModel):
    """The §III-A4 baseline wrapped in the common RiskModel interface."""

    name = "RoBERTa"
    network_cls = RobertaRiskNetwork

    def __init__(
        self,
        config: PLMConfig | None = None,
        trainer: TrainerConfig | None = None,
        pretrain_texts: list[str] | None = None,
        pretrain_steps: int = 500,
        max_vocab: int = 3000,
        max_posts: int = 5,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.config = config or PLMConfig.base()
        self.trainer = trainer or TrainerConfig(
            epochs=18, lr=1.5e-3, class_weighted=True, label_smoothing=0.05,
            patience=8, seed=seed,
        )
        self.pretrain_texts = pretrain_texts
        self.pretrain_steps = pretrain_steps
        self.max_posts = max_posts
        self.seed = seed
        self.pipeline = TextPipeline(
            max_vocab=max_vocab, max_tokens_per_post=self.config.max_len // 2
        )
        self.network: Module | None = None
        self.mlm_result: MLMResult | None = None

    def _build_network(self, rng: np.random.Generator) -> Module:
        return self.network_cls(
            vocab_size=len(self.pipeline.vocab),
            time_dim=self.pipeline.time_dim,
            config=self.config,
            rng=rng,
            pad_id=self.pipeline.vocab.pad_id,
        )

    def _forward(self, encoded: EncodedWindows, idx: np.ndarray) -> Tensor:
        vocab = self.pipeline.vocab
        flat_ids, flat_mask = collate_flat_tokens(
            encoded, idx, vocab.eos_id, vocab.pad_id, self.config.max_len
        )
        time_feats, post_mask, hours = collate_time(encoded, idx, self.max_posts)
        return self.network(flat_ids, flat_mask, time_feats, post_mask, hours)

    def _fit(self, train: list[PostWindow], validation: list[PostWindow]) -> None:
        self.pipeline.fit(train, extra_texts=self.pretrain_texts)
        rng = SeedSequenceRegistry(self.seed).get(f"{self.name}-init")
        self.network = self._build_network(rng)
        if self.pretrain_steps > 0:
            corpus = self.pretrain_texts or [
                p.text for w in train for p in w.posts
            ]
            sequences = self.pipeline.encode_texts(corpus)
            self.mlm_result = pretrain_mlm(
                self.network.encoder,
                self.pipeline.vocab,
                sequences,
                steps=self.pretrain_steps,
                max_len=self.config.max_len,
                seed=self.seed,
            )
        encoded_train = self.pipeline.encode(train)
        encoded_val = self.pipeline.encode(validation) if validation else None
        self.history = train_classifier(
            self.network, self._forward, encoded_train, encoded_val, self.trainer
        )
