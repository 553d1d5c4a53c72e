"""Tests for shared neural plumbing (pipeline, collation, trainer)."""

import numpy as np
import pytest

from repro.models.neural_common import (
    TextPipeline,
    TrainerConfig,
    collate_flat_tokens,
    collate_post_grid,
    collate_time,
    predict_classifier,
    train_classifier,
)
from repro.nn import Linear, Tensor
from repro.nn.module import Module


@pytest.fixture(scope="module")
def pipeline_and_encoded(small_dataset):
    splits = small_dataset.splits()
    pipeline = TextPipeline(max_vocab=400, max_tokens_per_post=24)
    pipeline.fit(splits.train)
    encoded = pipeline.encode(splits.train[:30])
    return pipeline, encoded


class TestTextPipeline:
    def test_vocab_built(self, pipeline_and_encoded):
        pipeline, _ = pipeline_and_encoded
        assert len(pipeline.vocab) <= 400
        assert len(pipeline.vocab) > 50

    def test_token_cache_encodes_each_text_once(
        self, pipeline_and_encoded, small_dataset, monkeypatch
    ):
        from repro.core.lru import LRUCache

        pipeline, _ = pipeline_and_encoded
        windows = small_dataset.splits().train[:30]
        plain = pipeline.encode(windows)
        texts = {post.text for w in windows for post in w.posts}
        calls = []
        real_encode_post = TextPipeline.encode_post

        def counting(self, text):
            calls.append(text)
            return real_encode_post(self, text)

        monkeypatch.setattr(TextPipeline, "encode_post", counting)
        cache = LRUCache(4096)
        first = pipeline.encode(windows, cache)
        assert sorted(calls) == sorted(texts)  # one call per miss
        second = pipeline.encode(windows, cache)
        assert len(calls) == len(texts)  # all hits
        assert first.post_token_ids == plain.post_token_ids
        assert second.post_token_ids == plain.post_token_ids

    def test_encode_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TextPipeline().encode([])

    def test_encoded_structure(self, pipeline_and_encoded):
        _, encoded = pipeline_and_encoded
        assert len(encoded) == 30
        assert len(encoded.post_token_ids) == len(encoded.time_features)
        for posts, feats, hours in zip(
            encoded.post_token_ids, encoded.time_features, encoded.hours
        ):
            assert len(posts) == feats.shape[0] == len(hours)
            assert all(len(ids) >= 1 for ids in posts)

    def test_posts_truncated(self, pipeline_and_encoded):
        _, encoded = pipeline_and_encoded
        assert all(
            len(ids) <= 24
            for posts in encoded.post_token_ids
            for ids in posts
        )

    def test_extra_texts_extend_vocab(self, small_dataset):
        splits = small_dataset.splits()
        base = TextPipeline(max_vocab=5000).fit(splits.train[:20])
        extended = TextPipeline(max_vocab=5000).fit(
            splits.train[:20], extra_texts=["zweihander unique token"]
        )
        assert "zweihander" not in base.vocab
        # min_freq=2 requires the token twice
        extended2 = TextPipeline(max_vocab=5000).fit(
            splits.train[:20],
            extra_texts=["zweihander zweihander"],
        )
        assert "zweihander" in extended2.vocab


class TestCollation:
    def test_flat_tokens(self, pipeline_and_encoded):
        pipeline, encoded = pipeline_and_encoded
        ids, mask = collate_flat_tokens(
            encoded, np.arange(5), pipeline.vocab.eos_id,
            pipeline.vocab.pad_id, max_len=40,
        )
        assert ids.shape == mask.shape
        assert ids.shape[1] <= 40
        # EOS separators present in each row
        assert all((row == pipeline.vocab.eos_id).any() for row in ids)

    def test_post_grid(self, pipeline_and_encoded):
        pipeline, encoded = pipeline_and_encoded
        ids, token_mask, post_mask = collate_post_grid(
            encoded, np.arange(6), pipeline.vocab.pad_id, 5, 16
        )
        assert ids.shape == (6, 5, 16)
        assert token_mask.shape == ids.shape
        assert post_mask.shape == (6, 5)
        # mask consistency: padded tokens are pad_id
        assert (ids[token_mask == 0] == pipeline.vocab.pad_id).all()

    def test_collate_time(self, pipeline_and_encoded):
        _, encoded = pipeline_and_encoded
        feats, mask, hours = collate_time(encoded, np.arange(4), 5)
        assert feats.shape[:2] == (4, 5)
        assert mask.shape == (4, 5)
        assert hours.shape == (4, 5)
        assert np.isfinite(feats).all()


class _TinyClassifier(Module):
    """Mean time features → linear head (fast, deterministic)."""

    def __init__(self, time_dim):
        super().__init__()
        self.head = Linear(time_dim, 4, np.random.default_rng(0))

    def forward(self, feats):
        return self.head(Tensor(feats.mean(axis=1)))


class TestTrainer:
    def _forward(self, model):
        def forward_fn(encoded, idx):
            feats, _, _ = collate_time(encoded, idx, 5)
            return model(feats)

        return forward_fn

    def test_training_reduces_loss(self, pipeline_and_encoded):
        _, encoded = pipeline_and_encoded
        model = _TinyClassifier(encoded.time_features[0].shape[1])
        history = train_classifier(
            model, self._forward(model), encoded, None,
            TrainerConfig(epochs=8, lr=5e-2),
        )
        assert history.train_loss[-1] < history.train_loss[0]

    def test_early_stopping_restores_best(self, pipeline_and_encoded):
        _, encoded = pipeline_and_encoded
        model = _TinyClassifier(encoded.time_features[0].shape[1])
        history = train_classifier(
            model, self._forward(model), encoded, encoded,
            TrainerConfig(epochs=10, lr=5e-2, patience=2),
        )
        assert history.best_epoch <= len(history.val_macro_f1)

    def test_predict_classifier_shapes(self, pipeline_and_encoded):
        _, encoded = pipeline_and_encoded
        model = _TinyClassifier(encoded.time_features[0].shape[1])
        preds = predict_classifier(model, self._forward(model), encoded)
        assert preds.shape == (len(encoded),)

    def test_class_weighting_changes_training(self, pipeline_and_encoded):
        _, encoded = pipeline_and_encoded
        def run(flag):
            model = _TinyClassifier(encoded.time_features[0].shape[1])
            train_classifier(
                model, self._forward(model), encoded, None,
                TrainerConfig(epochs=3, lr=5e-2, class_weighted=flag),
            )
            return model.head.weight.data.copy()

        assert not np.allclose(run(True), run(False))
