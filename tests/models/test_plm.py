"""Tests for MLM pretraining plumbing."""

import numpy as np
import pytest

from repro.models.plm import PLMConfig, mask_tokens, pretrain_mlm
from repro.nn import IGNORE_INDEX, TransformerEncoder
from repro.text.vocab import Vocabulary


@pytest.fixture()
def vocab():
    return Vocabulary([f"w{i}" for i in range(50)])


class TestPLMConfig:
    def test_base_smaller_than_large(self):
        base, large = PLMConfig.base(), PLMConfig.large()
        assert base.dim < large.dim
        assert base.num_layers < large.num_layers


class TestMaskTokens:
    def test_targets_only_on_selected(self, vocab, rng):
        ids = np.full((4, 20), 7, dtype=np.int64)
        mask = np.ones((4, 20))
        inputs, targets = mask_tokens(ids, mask, vocab, rng)
        selected = targets != IGNORE_INDEX
        assert selected.any()
        assert (targets[selected] == 7).all()
        # Non-selected positions keep original inputs.
        assert (inputs[~selected] == 7).all()

    def test_padding_never_selected(self, vocab, rng):
        ids = np.full((2, 10), 7, dtype=np.int64)
        mask = np.zeros((2, 10))
        mask[:, :3] = 1.0
        _, targets = mask_tokens(ids, mask, vocab, rng)
        assert (targets[:, 3:] == IGNORE_INDEX).all()

    def test_masking_rate_near_15pct(self, vocab, rng):
        ids = np.full((50, 40), 7, dtype=np.int64)
        mask = np.ones((50, 40))
        _, targets = mask_tokens(ids, mask, vocab, rng)
        rate = (targets != IGNORE_INDEX).mean()
        assert 0.10 < rate < 0.20

    def test_mask_token_dominates_corruptions(self, vocab, rng):
        ids = np.full((50, 40), 7, dtype=np.int64)
        mask = np.ones((50, 40))
        inputs, targets = mask_tokens(ids, mask, vocab, rng)
        selected = targets != IGNORE_INDEX
        masked = (inputs == vocab.mask_id) & selected
        assert masked.sum() / selected.sum() > 0.6

    def test_at_least_one_target_guaranteed(self, vocab):
        strict_rng = np.random.default_rng(0)
        ids = np.full((1, 2), 7, dtype=np.int64)
        mask = np.ones((1, 2))
        for _ in range(20):
            _, targets = mask_tokens(
                ids, mask, vocab, strict_rng, mlm_probability=0.0001
            )
            assert (targets != IGNORE_INDEX).any()

    def test_all_padding_rejected(self, vocab, rng):
        with pytest.raises(ValueError):
            mask_tokens(np.zeros((1, 3), dtype=np.int64), np.zeros((1, 3)),
                        vocab, rng)


class TestPretrainMLM:
    def test_loss_decreases(self, vocab, rng):
        encoder = TransformerEncoder(
            len(vocab.tokens()), 32, 1, 2, 24, rng, dropout=0.0
        )
        data_rng = np.random.default_rng(1)
        # highly regular sequences are learnable quickly
        sequences = [[5 + (i % 10)] * 12 for i in range(60)]
        result = pretrain_mlm(
            encoder, vocab, sequences, steps=40, batch_size=8, lr=3e-3
        )
        assert len(result.losses) == 40
        assert result.losses[-1] < result.losses[0]

    def test_empty_corpus_rejected(self, vocab, rng):
        encoder = TransformerEncoder(len(vocab.tokens()), 16, 1, 2, 8, rng)
        with pytest.raises(ValueError):
            pretrain_mlm(encoder, vocab, [], steps=1)


@pytest.mark.parametrize("name", ["roberta", "deberta"])
def test_fast_gelu_keeps_test_split_predictions(
    name, small_splits, small_dataset, monkeypatch
):
    """Swapping the fast ``gelu`` for ``gelu_reference`` in a fitted PLM
    leaves every test-split label and probability (to 1e-12) unchanged."""
    from repro.models.deberta import DebertaRiskModel
    from repro.models.neural_common import TrainerConfig
    from repro.models.roberta import RobertaRiskModel
    from repro.nn import Tensor
    from repro.nn.tensor import gelu_reference

    cls = {"roberta": RobertaRiskModel, "deberta": DebertaRiskModel}[name]
    model = cls(
        config=PLMConfig(dim=16, num_layers=2, num_heads=2, ffn_hidden=32,
                         max_len=64),
        trainer=TrainerConfig(epochs=1, batch_size=8, patience=2, seed=0),
        pretrain_texts=small_dataset.pretrain_texts[:300],
        pretrain_steps=2,
        seed=0,
    )
    model.fit(small_splits.train, small_splits.validation)
    windows = small_splits.test
    fast = model.predict_proba(windows)
    monkeypatch.setattr(Tensor, "gelu", lambda self: Tensor(gelu_reference(self.data)))
    reference = model.predict_proba(windows)
    np.testing.assert_array_equal(fast.argmax(axis=1), reference.argmax(axis=1))
    assert np.abs(fast - reference).max() <= 1e-12
