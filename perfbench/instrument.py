"""Layer wrappers for the traced run.

Every span of the traced run comes from here: the wrappers are put
around public functions and methods of each layer of ``repro`` from the
outside, and taken off again afterwards. The program's own code is not
changed, so the traced run executes the same code as the untraced run,
plus the wrappers.

A module-level function is often imported by name into other modules
(``from repro.nn import ...``); :meth:`Instrumentation.wrap_function`
rebinds the function in every loaded ``repro`` module that holds it.
"""

from __future__ import annotations

import functools
import sys
import threading

import numpy as np

from spans import Tracer


def _tensor_array(value) -> np.ndarray:
    return getattr(value, "data", value)


class Instrumentation:
    """Installs span wrappers around the layers of ``repro``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        #: id(window) -> request id, for spans of engine batches.
        self.request_ids: dict[int, int] = {}
        #: (start, end, request ids, served) of every ``predict_proba``
        #: call; ``served`` marks calls made by an inference engine.
        self.batches: list[tuple[float, float, tuple, bool]] = []

    # -- mechanics ---------------------------------------------------------

    def _wrapper(self, fn, name, observe=None, rid_of=None):
        tracer = self.tracer
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = rid_of(args) if rid_of is not None else None
            frame = tracer.open(name_of(args), rid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if observe is not None:
                observe(args, result, frame)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, name, observe=None, rid_of=None) -> None:
        wrapped = self._wrapper(cls.__dict__[attr], name, observe, rid_of)
        self._patch(cls, attr, wrapped)

    def wrap_function(self, module, attr: str, name, observe=None) -> None:
        original = getattr(module, attr)
        wrapped = self._wrapper(original, name, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            if mod.__dict__.get(attr) is original:
                self._patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the layers --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer the benchmark reports on."""
        from repro.annotation import process as annotation
        from repro.boosting import gbm
        from repro.core import pipeline, privacy
        from repro.corpus import generator, reddit
        from repro.models import base, neural_common, plm
        from repro.nn import module, optim, tensor
        from repro.preprocess import dedup
        from repro.preprocess import pipeline as preprocess
        from repro.serve import engine
        from repro.temporal import encoding
        from repro.text import tfidf

        # corpus, preprocess, annotation, core
        self.wrap_function(pipeline, "build_dataset", "core.pipeline.build_dataset")
        self.wrap_method(generator.CorpusGenerator, "generate", "corpus.generate")
        self.wrap_function(reddit, "crawl", "corpus.crawl")
        self.wrap_method(reddit.RedditSimulator, "new", "corpus.api_call")
        self.wrap_method(preprocess.PreprocessPipeline, "run", "preprocess.run")
        self.wrap_function(dedup, "jaccard", "preprocess.dedup_pair")
        self.wrap_method(annotation.AnnotationCampaign, "run", "annotation.campaign")
        self.wrap_method(privacy.Anonymizer, "anonymise", "core.privacy.anonymise")
        self.wrap_function(privacy, "audit_anonymisation", "core.privacy.audit")

        # text, temporal
        self.wrap_method(neural_common.TextPipeline, "fit", "text.vocab_fit")
        self.wrap_method(tfidf.TfidfVectorizer, "fit", "text.vocab_fit")
        self.wrap_method(neural_common.TextPipeline, "encode", "text.encode")
        self.wrap_method(
            neural_common.TextPipeline, "encode_post", "text.encode_post"
        )
        self.wrap_method(
            encoding.TimeEncoder, "encode_window", "temporal.encode_window"
        )

        # models, boosting
        self.wrap_method(
            base.RiskModel, "fit", lambda args: f"models.{args[0].name.lower()}.fit"
        )
        self.wrap_method(
            base.RiskModel, "predict_proba", "models.predict_proba",
            observe=self._observe_batch,
        )
        self.wrap_function(
            neural_common, "collate_flat_tokens", "models.collate",
            observe=self._observe_padding,
        )
        self.wrap_function(neural_common, "collate_time", "models.collate")
        self.wrap_function(neural_common, "collate_post_grid", "models.collate")
        self.wrap_method(gbm.GradientBoostingClassifier, "fit", "boosting.fit")

        # nn
        self.wrap_function(plm, "pretrain_mlm", "nn.mlm_pretrain")
        self.wrap_function(neural_common, "train_classifier", "nn.finetune")
        self._wrap_module_call(module.Module)
        self.wrap_method(tensor.Tensor, "backward", "nn.backward")
        for cls in (optim.SGD, optim.Adam):
            self.wrap_method(cls, "step", "nn.optim_step", observe=self._observe_step)
        for op in ("gelu", "softmax"):
            self.wrap_method(tensor.Tensor, op, f"nn.Tensor.{op}")
        self.wrap_method(tensor.Tensor, "__add__", "nn.Tensor.__add__")
        self.wrap_method(tensor.Tensor, "__radd__", "nn.Tensor.__add__")
        self.wrap_method(
            tensor.Tensor, "__matmul__", "nn.Tensor.matmul",
            observe=self._observe_matmul,
        )

        # serve
        self.wrap_method(engine.InferenceEngine, "predict_many", "serve.predict_many")
        self.wrap_method(
            engine.InferenceEngine, "submit", "serve.submit",
            rid_of=lambda args: self.request_ids.get(id(args[1])),
        )

    def _wrap_module_call(self, module_cls) -> None:
        """One span per module call, named ``nn.<Class>``; the outermost
        call on a thread also opens ``nn.forward``."""
        tracer = self.tracer
        call = module_cls.__dict__["__call__"]

        @functools.wraps(call)
        def wrapper(self_, *args, **kwargs):
            outer = None
            if not tracer.inside("nn.forward"):
                outer = tracer.open("nn.forward")
            frame = tracer.open(f"nn.{type(self_).__name__}")
            try:
                return call(self_, *args, **kwargs)
            finally:
                tracer.close(frame)
                if outer is not None:
                    tracer.close(outer)

        self._patch(module_cls, "__call__", wrapper)

    # -- counters derived at layer boundaries -------------------------------

    def _observe_batch(self, args, result, frame) -> None:
        windows = args[1]
        rids = tuple(self.request_ids.get(id(w), -1) for w in windows)
        served = self.tracer.inside("serve.predict_many") or (
            threading.current_thread().name.startswith("serve-worker")
        )
        self.batches.append((frame.start, frame.end, rids, served))
        self.tracer.count("models.predict_proba.windows", len(windows))

    def _observe_padding(self, args, result, frame) -> None:
        mask = result[1]
        useful = float(np.sum(mask))
        self.tracer.count("models.token_slots", float(mask.size))
        self.tracer.count("models.useful_token_slots", useful)

    def _observe_step(self, args, result, frame) -> None:
        if self.tracer.inside("nn.mlm_pretrain"):
            self.tracer.count("nn.mlm_steps")
        elif self.tracer.inside("nn.finetune"):
            self.tracer.count("nn.finetune_steps")

    def _observe_matmul(self, args, result, frame) -> None:
        a = _tensor_array(args[0])
        b = _tensor_array(args[1])
        out = result.data
        inner = a.shape[-1]
        # Computed from operand shapes: one multiply and one add per
        # inner-product term; bytes are operands read plus output written.
        self.tracer.count("nn.Tensor.matmul.flops", 2.0 * out.size * inner)
        self.tracer.count(
            "nn.Tensor.matmul.bytes",
            float(np.asarray(a).nbytes + np.asarray(b).nbytes + out.nbytes),
        )
