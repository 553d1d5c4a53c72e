"""The pool's model handoff: one pickle per worker, bitwise.

``WorkerPool`` pickles the fitted model once and every worker unpickles
its own copy, so a pickle round-trip must predict *identically* —
bitwise, not approximately — for every registry model, including while
an ``InferenceEngine`` is open on the model in the parent.
"""

import pickle

import numpy as np
import pytest

from repro.boosting import GBMParams
from repro.core.errors import ModelError, NotFittedError
from repro.models import (
    TABLE3_ORDER,
    HiGRU,
    PLMConfig,
    RobertaRiskModel,
    TimeAwareBiLSTM,
    TrainerConfig,
    XGBoostBaseline,
    create_model,
)
from repro.models.deberta import DebertaRiskModel
from repro.serve import EngineConfig, InferenceEngine, WorkerPool
from repro.serve import pool as pool_module

TINY = TrainerConfig(epochs=2, batch_size=8, patience=5)


def _tiny_model(name):
    if name == "xgboost":
        return XGBoostBaseline(
            params=GBMParams(n_estimators=5, max_depth=3),
            max_tfidf_features=50,
        )
    if name == "bilstm":
        return TimeAwareBiLSTM(trainer=TINY, embed_dim=16, hidden_dim=16,
                               max_vocab=300)
    if name == "higru":
        return HiGRU(trainer=TINY, embed_dim=16, bottom_hidden=8,
                     top_hidden=16, max_vocab=300, max_tokens=16)
    if name in ("roberta", "deberta"):
        config = PLMConfig(dim=16, num_layers=1, num_heads=2, ffn_hidden=32,
                           max_len=32)
        cls = RobertaRiskModel if name == "roberta" else DebertaRiskModel
        return cls(config=config, trainer=TINY, pretrain_steps=3,
                   max_vocab=300)
    return create_model(name)


def _round_trip(model):
    return pickle.loads(pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL))


@pytest.fixture(scope="module")
def tiny_splits(small_dataset):
    splits = small_dataset.splits()
    return splits.train[:40], splits.validation[:10], splits.test[:10]


@pytest.fixture(scope="module")
def fitted(tiny_splits):
    """One fitted instance per registry model (plus logreg)."""
    train, val, _ = tiny_splits
    models = {}
    for name in [*TABLE3_ORDER, "logreg"]:
        model = _tiny_model(name)
        model.fit(train, val)
        models[name] = model
    return models


@pytest.mark.parametrize("name", [*TABLE3_ORDER, "logreg"])
class TestRoundTrip:
    def test_bitwise_identical_predictions(self, name, fitted, tiny_splits):
        _, _, test = tiny_splits
        model = fitted[name]
        clone = _round_trip(model)
        np.testing.assert_array_equal(
            clone.predict_proba(test), model.predict_proba(test)
        )
        np.testing.assert_array_equal(clone.predict(test), model.predict(test))

    def test_bitwise_identical_with_engine_open(
        self, name, fitted, tiny_splits
    ):
        _, _, test = tiny_splits
        model = fitted[name]
        with InferenceEngine(model, EngineConfig(max_batch_size=4)) as engine:
            single = engine.predict_many(test)  # fills the token cache
            clone = _round_trip(model)
            with InferenceEngine(clone, engine.config) as clone_engine:
                np.testing.assert_array_equal(
                    clone_engine.predict_many(test), single
                )
        np.testing.assert_array_equal(
            clone.predict_proba(test), model.predict_proba(test)
        )


class TestContract:
    """``WorkerPool`` rejects a bad model before it starts any process."""

    @pytest.fixture(autouse=True)
    def no_processes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("WorkerPool started processes for a bad model")

        monkeypatch.setattr(pool_module.multiprocessing, "get_context", refuse)

    def test_unfitted_model_rejected(self):
        with pytest.raises(NotFittedError):
            WorkerPool(_tiny_model("logreg"))

    def test_non_model_rejected(self):
        with pytest.raises(ModelError):
            WorkerPool({"weights": np.ones(3)})
