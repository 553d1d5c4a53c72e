"""Shared plumbing for the four neural baselines.

Covers text encoding (vocabulary + token ids per post), temporal feature
extraction per window, batch collation, and a generic training loop with
validation-based early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import perf
from repro.core.rng import SeedSequenceRegistry
from repro.eval.metrics import macro_f1
from repro.models.base import RiskModel
from repro.nn import (
    Adam,
    Tensor,
    WarmupLinearDecay,
    clip_grad_norm,
    cross_entropy,
    no_grad,
    pad_sequences,
)
from repro.nn.module import Module
from repro.temporal.encoding import TimeEncoder
from repro.temporal.windows import PostWindow
from repro.text.tokenizer import WordTokenizer
from repro.text.vocab import Vocabulary


@dataclass
class EncodedWindows:
    """Neural-ready representation of a window list."""

    post_token_ids: list[list[list[int]]]  # window → post → token ids
    time_features: list[np.ndarray]        # window → (num_posts, time_dim)
    hours: list[np.ndarray]                # window → post timestamps (hours)
    labels: np.ndarray                     # (num_windows,)

    def __len__(self) -> int:
        return len(self.post_token_ids)


class TextPipeline:
    """Vocabulary construction + per-post token encoding.

    Parameters
    ----------
    max_vocab:
        Vocabulary budget (including the 5 special tokens).
    max_tokens_per_post:
        Posts are truncated to their first ``max_tokens_per_post`` tokens.
    """

    def __init__(self, max_vocab: int = 3000, max_tokens_per_post: int = 48) -> None:
        self.max_vocab = max_vocab
        self.max_tokens_per_post = max_tokens_per_post
        self._tokenizer = WordTokenizer()
        self.vocab: Vocabulary | None = None
        self._time_encoder = TimeEncoder(include_tags=True)

    @property
    def time_dim(self) -> int:
        return self._time_encoder.dim

    def fit(
        self, windows: list[PostWindow], extra_texts: list[str] | None = None
    ) -> "TextPipeline":
        """Build the vocabulary from training windows (plus, optionally,
        an unannotated pretraining corpus so MLM covers its tokens)."""
        documents = [
            self._tokenizer(post.text)
            for window in windows
            for post in window.posts
        ]
        if extra_texts:
            documents.extend(self._tokenizer(text) for text in extra_texts)
        self.vocab = Vocabulary.build(documents, max_size=self.max_vocab, min_freq=2)
        return self

    def encode_texts(self, texts: list[str]) -> list[list[int]]:
        """Token-id sequences for raw texts (pretraining corpus)."""
        if self.vocab is None:
            raise RuntimeError("TextPipeline.encode_texts before fit")
        return [self.encode_post(text) for text in texts]

    def encode_post(self, text: str) -> list[int]:
        tokens = self._tokenizer(text)[: self.max_tokens_per_post]
        ids = self.vocab.encode(tokens)
        return ids or [self.vocab.unk_id]

    def encode(
        self, windows: list[PostWindow], token_cache=None
    ) -> EncodedWindows:
        """Encode ``windows``; ``token_cache`` (an LRU keyed on post text)
        memoises per-post token ids, so ``encode_post`` runs only on a
        miss."""
        if self.vocab is None:
            raise RuntimeError("TextPipeline.encode before fit")
        if token_cache is None:
            post_ids = [
                [self.encode_post(p.text) for p in w.posts] for w in windows
            ]
        else:
            post_ids = self._encode_cached(windows, token_cache)
        time_feats = [
            self._time_encoder.encode_window(list(w.posts)) for w in windows
        ]
        hours = [
            np.array([p.created_utc.timestamp() / 3600.0 for p in w.posts])
            for w in windows
        ]
        labels = np.array([int(w.label) for w in windows], dtype=np.int64)
        return EncodedWindows(post_ids, time_feats, hours, labels)

    def _encode_cached(
        self, windows: list[PostWindow], token_cache
    ) -> list[list[list[int]]]:
        post_ids = []
        hits = misses = 0
        for w in windows:
            row = []
            for post in w.posts:
                cached = token_cache.get(post.text)
                if cached is None:
                    ids = self.encode_post(post.text)
                    token_cache.put(post.text, tuple(ids))
                    misses += 1
                else:
                    ids = list(cached)
                    hits += 1
                row.append(ids)
            post_ids.append(row)
        perf.count("serve.tokenize.hits", hits)
        perf.count("serve.tokenize.misses", misses)
        return post_ids


# -- batch collation ----------------------------------------------------------


def collate_flat_tokens(
    encoded: EncodedWindows,
    idx: np.ndarray,
    eos_id: int,
    pad_id: int,
    max_len: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate each window's posts (oldest→newest, EOS separated) into
    one token sequence; keep the *last* ``max_len`` tokens."""
    seqs = []
    for i in idx:
        flat: list[int] = []
        for ids in encoded.post_token_ids[int(i)]:
            flat.extend(ids)
            flat.append(eos_id)
        seqs.append(flat)
    return pad_sequences(seqs, pad_value=pad_id, max_len=max_len)


def collate_post_grid(
    encoded: EncodedWindows,
    idx: np.ndarray,
    pad_id: int,
    max_posts: int,
    max_tokens: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, W, L) token grid + (B, W, L) token mask + (B, W) post mask."""
    batch = len(idx)
    ids = np.full((batch, max_posts, max_tokens), pad_id, dtype=np.int64)
    token_mask = np.zeros((batch, max_posts, max_tokens))
    post_mask = np.zeros((batch, max_posts))
    for row, i in enumerate(idx):
        posts = encoded.post_token_ids[int(i)][-max_posts:]
        for j, tokens in enumerate(posts):
            tokens = tokens[:max_tokens]
            ids[row, j, : len(tokens)] = tokens
            token_mask[row, j, : len(tokens)] = 1.0
            post_mask[row, j] = 1.0
    return ids, token_mask, post_mask


def collate_time(
    encoded: EncodedWindows, idx: np.ndarray, max_posts: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, W, Dt) time features + (B, W) mask + (B, W) hour stamps."""
    batch = len(idx)
    dim = encoded.time_features[0].shape[1]
    feats = np.zeros((batch, max_posts, dim))
    mask = np.zeros((batch, max_posts))
    hours = np.zeros((batch, max_posts))
    for row, i in enumerate(idx):
        f = encoded.time_features[int(i)][-max_posts:]
        h = encoded.hours[int(i)][-max_posts:]
        feats[row, : len(f)] = f
        mask[row, : len(f)] = 1.0
        hours[row, : len(h)] = h
        if len(h) < max_posts:
            hours[row, len(h):] = h[-1] if len(h) else 0.0
    return feats, mask, hours


# -- length-bucketed batching -------------------------------------------------


def flat_lengths(encoded: EncodedWindows) -> np.ndarray:
    """Flattened token count per window (posts + one EOS separator each)."""
    return np.array(
        [
            sum(len(ids) + 1 for ids in posts)
            for posts in encoded.post_token_ids
        ],
        dtype=np.int64,
    )


def bucketed_batches(
    lengths: np.ndarray, batch_size: int
) -> list[np.ndarray]:
    """Contiguous batches over a stable length-sorted order.

    Grouping similar lengths means each batch pads only to its own
    maximum instead of the global one, cutting the padded-token FLOPs of
    eval/predict. The sort is stable so the grouping (and therefore the
    output, after the order-restoring scatter in the predict helpers) is
    deterministic.
    """
    order = np.argsort(lengths, kind="stable")
    return [
        order[start : start + batch_size]
        for start in range(0, len(order), batch_size)
    ]


def pad_waste_ratio(
    lengths: np.ndarray,
    batch_size: int,
    max_len: int | None = None,
    bucket_by_length: bool = False,
) -> float:
    """Fraction of token slots that are padding under a batching policy.

    Mirrors :func:`pad_sequences` semantics: each batch is padded to its
    own longest member, lengths clipped at ``max_len``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if max_len is not None:
        lengths = np.minimum(lengths, max_len)
    if not len(lengths):
        return 0.0
    if bucket_by_length:
        batches_idx = bucketed_batches(lengths, batch_size)
    else:
        batches_idx = [
            np.arange(start, min(start + batch_size, len(lengths)))
            for start in range(0, len(lengths), batch_size)
        ]
    slots = 0
    real = 0
    for idx in batches_idx:
        chunk = lengths[idx]
        slots += int(chunk.max()) * len(chunk)
        real += int(chunk.sum())
    return 1.0 - real / max(slots, 1)


# -- training loop --------------------------------------------------------------


@dataclass
class TrainerConfig:
    """Hyper-parameters of the generic fine-tuning loop."""

    epochs: int = 8
    batch_size: int = 16
    lr: float = 2e-3
    weight_decay: float = 0.0
    clip_norm: float = 5.0
    warmup_fraction: float = 0.1
    class_weighted: bool = False
    label_smoothing: float = 0.0
    patience: int = 3
    seed: int = 0


@dataclass
class TrainingHistory:
    """Per-epoch loss/metric trace."""

    train_loss: list[float] = field(default_factory=list)
    val_macro_f1: list[float] = field(default_factory=list)
    best_epoch: int = 0


def train_classifier(
    module: Module,
    forward_fn,
    encoded_train: EncodedWindows,
    encoded_val: EncodedWindows | None,
    config: TrainerConfig,
    num_classes: int = 4,
) -> TrainingHistory:
    """Generic supervised training.

    ``forward_fn(encoded, idx) -> Tensor`` must return (B, C) logits for
    the requested sample indices; the loop owns batching, optimisation,
    early stopping and best-state restoration.
    """
    registry = SeedSequenceRegistry(config.seed)
    shuffle_rng = registry.get("shuffle")
    optimizer = Adam(
        module.parameters(), lr=config.lr, weight_decay=config.weight_decay,
        decoupled=config.weight_decay > 0,
    )
    n = len(encoded_train)
    steps_per_epoch = max(1, (n + config.batch_size - 1) // config.batch_size)
    total_steps = steps_per_epoch * config.epochs
    schedule = WarmupLinearDecay(
        optimizer,
        warmup_steps=max(1, int(config.warmup_fraction * total_steps)),
        total_steps=total_steps,
    )
    class_weights = None
    if config.class_weighted:
        counts = np.bincount(encoded_train.labels, minlength=num_classes)
        counts = np.maximum(counts, 1)
        class_weights = len(encoded_train.labels) / (num_classes * counts)
        class_weights = class_weights / class_weights.mean()

    history = TrainingHistory()
    best_state = None
    best_metric = -np.inf
    epochs_without_improvement = 0

    for epoch in range(config.epochs):
        module.train()
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        num_batches = 0
        with perf.span("nn.epoch"):
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                logits = forward_fn(encoded_train, idx)
                loss = cross_entropy(
                    logits,
                    encoded_train.labels[idx],
                    class_weights=class_weights,
                    label_smoothing=config.label_smoothing,
                )
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(module.parameters(), config.clip_norm)
                schedule.step()
                optimizer.step()
                epoch_loss += loss.item()
                num_batches += 1
            perf.count("nn.batches", num_batches)
        history.train_loss.append(epoch_loss / num_batches)

        if encoded_val is not None and len(encoded_val):
            preds = predict_classifier(
                module, forward_fn, encoded_val, config.batch_size
            )
            metric = macro_f1(encoded_val.labels, preds)
            history.val_macro_f1.append(metric)
            if metric > best_metric:
                best_metric = metric
                best_state = module.state_dict()
                history.best_epoch = epoch
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
                if epochs_without_improvement >= config.patience:
                    break
    if best_state is not None:
        module.load_state_dict(best_state)
    return history


def predict_logits(
    module: Module,
    forward_fn,
    encoded: EncodedWindows,
    batch_size: int = 32,
    bucket_by_length: bool = True,
) -> np.ndarray:
    """(N, C) eval-mode logits for every sample in ``encoded``.

    Runs under :func:`repro.nn.no_grad` (no autograd graph) and, by
    default, with length-bucketed batches: samples are grouped by
    flattened token length so short windows stop paying for the longest
    window's padding, then scattered back to the original order. Label
    predictions are bitwise identical either way; individual logit
    values may differ from the unbucketed path by float summation-order
    noise (≤ a few ulp) because padded widths change BLAS reduction
    trees.

    Leaves ``module`` in eval mode; :func:`train_classifier` switches it
    back at the start of every epoch. Switching back here would turn
    dropout on under a forward pass that another serving thread is
    running on the same module.
    """
    module.eval()
    n = len(encoded)
    with perf.span("nn.predict"):
        if bucket_by_length:
            batch_indices = bucketed_batches(flat_lengths(encoded), batch_size)
        else:
            batch_indices = [
                np.arange(start, min(start + batch_size, n))
                for start in range(0, n, batch_size)
            ]
        out: np.ndarray | None = None
        with no_grad():
            for idx in batch_indices:
                logits = forward_fn(encoded, idx).data
                if out is None:
                    out = np.empty((n, logits.shape[-1]), dtype=logits.dtype)
                out[idx] = logits
        perf.count("nn.predict.batches", len(batch_indices))
    if out is None:
        return np.zeros((0, 1))
    return out


def predict_classifier(
    module: Module,
    forward_fn,
    encoded: EncodedWindows,
    batch_size: int = 32,
    bucket_by_length: bool = True,
) -> np.ndarray:
    """Greedy label predictions for every sample in ``encoded``."""
    if not len(encoded):
        return np.zeros(0, dtype=np.int64)
    logits = predict_logits(
        module, forward_fn, encoded, batch_size, bucket_by_length
    )
    return logits.argmax(axis=-1)


def predict_proba_classifier(
    module: Module,
    forward_fn,
    encoded: EncodedWindows,
    batch_size: int = 32,
    bucket_by_length: bool = True,
) -> np.ndarray:
    """(N, C) class probabilities (softmax over eval-mode logits)."""
    if not len(encoded):
        return np.zeros((0, 1))
    logits = predict_logits(
        module, forward_fn, encoded, batch_size, bucket_by_length
    )
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class NeuralRiskModel(RiskModel):
    """Inference shared by the four neural baselines.

    Subclasses set ``self.pipeline`` (a fitted :class:`TextPipeline`)
    and ``self.network``, and implement ``_forward(encoded, idx)``;
    scoring is the pipeline's encoding fed through that forward pass.
    """

    pipeline: TextPipeline
    network: Module | None

    def encode(
        self, windows: list[PostWindow], token_cache=None
    ) -> EncodedWindows:
        return self.pipeline.encode(windows, token_cache)

    def _predict(self, encoded: EncodedWindows) -> np.ndarray:
        return predict_classifier(self.network, self._forward, encoded)

    def _predict_proba(self, encoded: EncodedWindows) -> np.ndarray:
        return predict_proba_classifier(self.network, self._forward, encoded)
