"""Common interface of the five baseline risk models."""

from __future__ import annotations

import abc

import numpy as np

from repro.core.errors import ModelError, NotFittedError
from repro.core.schema import NUM_CLASSES
from repro.temporal.windows import PostWindow


class RiskModel(abc.ABC):
    """A user-level risk classifier over :class:`PostWindow` samples.

    Every baseline implements ``fit`` on (train, validation) windows and
    ``predict`` returning integer risk levels, so the evaluation harness
    treats all five identically.
    """

    #: Display name used in result tables.
    name: str = "model"

    def __init__(self) -> None:
        self._fitted = False

    @abc.abstractmethod
    def _fit(
        self, train: list[PostWindow], validation: list[PostWindow]
    ) -> None:
        """Model-specific training."""

    @abc.abstractmethod
    def _predict(self, encoded) -> np.ndarray:
        """Model-specific inference on :meth:`encode` output (int labels)."""

    def _predict_proba(self, encoded) -> np.ndarray:
        """Model-specific probability scoring; override where supported."""
        raise ModelError(f"{self.name}: probabilities not supported")

    def encode(self, windows: list[PostWindow], token_cache=None):
        """Model input for ``windows``, what ``_predict*`` consume.

        Feature models featurise inside ``_predict``/``_predict_proba``,
        so their input is the window list itself. Neural models return
        their pipeline's token encoding; ``token_cache`` (a
        :class:`repro.core.lru.LRUCache`) memoises it per post text.
        Pass the result to ``predict``/``predict_proba`` as ``encoded``
        to keep tokenization a separate stage.
        """
        return windows

    def fit(
        self,
        train: list[PostWindow],
        validation: list[PostWindow] | None = None,
    ) -> "RiskModel":
        if not train:
            raise ModelError(f"{self.name}: empty training set")
        self._fit(train, validation or [])
        self._fitted = True
        return self

    def predict(
        self, windows: list[PostWindow], *, encoded=None
    ) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError(f"{self.name}: predict before fit")
        if not windows:
            return np.zeros(0, dtype=np.int64)
        if encoded is None:
            encoded = self.encode(windows)
        return np.asarray(self._predict(encoded), dtype=np.int64)

    def predict_proba(
        self, windows: list[PostWindow], *, encoded=None
    ) -> np.ndarray:
        """(N, C) class probabilities; the serving engine's scoring path.

        ``encoded`` is this model's :meth:`encode` output for
        ``windows``, when the caller has already computed it.
        """
        if not self._fitted:
            raise NotFittedError(f"{self.name}: predict_proba before fit")
        if not windows:
            return np.zeros((0, NUM_CLASSES))
        if encoded is None:
            encoded = self.encode(windows)
        return np.asarray(self._predict_proba(encoded), dtype=np.float64)


def window_labels(windows: list[PostWindow]) -> np.ndarray:
    """Integer label vector of a window list."""
    return np.array([int(w.label) for w in windows], dtype=np.int64)


def class_weight_vector(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Inverse-frequency class weights, normalised to mean 1."""
    counts = np.bincount(labels, minlength=num_classes).astype(np.float64)
    counts = np.maximum(counts, 1.0)
    weights = len(labels) / (num_classes * counts)
    return weights / weights.mean()
