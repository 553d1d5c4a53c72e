import numpy as np

from instrument import Instrumentation
from spans import Tracer


def small_forward():
    from repro.nn import Linear, Tensor, TransformerEncoder, no_grad

    rng = np.random.default_rng(0)
    encoder = TransformerEncoder(
        vocab_size=50, dim=8, num_layers=1, num_heads=2, max_len=12, rng=rng,
        ffn_hidden=16, dropout=0.0,
    )
    head = Linear(8, 3, rng)
    ids = rng.integers(1, 50, size=(2, 12))
    with no_grad():
        states = encoder(ids, mask=np.ones((2, 12)))
        return head(states + Tensor(np.ones(8))).data


def test_wrappers_change_no_result_and_come_off_again():
    from repro.models import neural_common, roberta
    from repro.nn import tensor

    add, collate = tensor.Tensor.__add__, roberta.collate_flat_tokens
    expected = small_forward()

    tracer = Tracer()
    instr = Instrumentation(tracer)
    instr.install()
    try:
        assert tensor.Tensor.__add__ is not add
        # Functions imported by name elsewhere are wrapped there too.
        assert roberta.collate_flat_tokens is neural_common.collate_flat_tokens
        assert roberta.collate_flat_tokens is not collate
        traced = small_forward()
    finally:
        instr.uninstall()

    assert np.array_equal(traced, expected)
    assert tensor.Tensor.__add__ is add
    assert roberta.collate_flat_tokens is collate
    assert tracer.calls("nn.TransformerEncoder") == 1
    assert tracer.calls("nn.forward") == 2  # encoder and head: two outer calls
    assert tracer.calls("nn.Tensor.__add__") >= 1
    assert tracer.counters["nn.Tensor.matmul.flops"] > 0
    # Every module span nests under an nn.forward span.
    names = {r[0]: r[2] for r in tracer.records}
    for span_id, parent, name, *_ in tracer.records:
        if name == "nn.TransformerEncoder":
            assert names[parent] == "nn.forward"
