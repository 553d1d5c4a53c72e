"""Gradient checks and semantics tests for the autograd Tensor."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.errors import GradientError, ShapeError
from repro.nn.tensor import Tensor


def numerical_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar-valued fn wrt array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        f_plus = fn()
        x[idx] = old - eps
        f_minus = fn()
        x[idx] = old
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def check_grad(build, data, tol=1e-7):
    """build(tensor) must return a scalar Tensor."""
    x = Tensor(data.copy(), requires_grad=True)
    out = build(x)
    out.backward()
    num = numerical_grad(lambda: float(build(Tensor(x.data)).data), x.data)
    assert np.abs(num - x.grad).max() < tol, (
        f"analytic={x.grad}, numeric={num}"
    )


RNG = np.random.default_rng(0)


class TestElementwiseGrads:
    def test_add_mul(self):
        data = RNG.normal(size=(3, 4))
        check_grad(lambda x: ((x + 2.0) * (x * 0.5) + x).sum(), data)

    def test_sub_div(self):
        data = RNG.normal(size=(3, 4)) + 5.0
        check_grad(lambda x: ((x - 1.0) / (x + 10.0)).sum(), data)

    def test_pow(self):
        data = np.abs(RNG.normal(size=(5,))) + 0.5
        check_grad(lambda x: (x**3).sum(), data)

    def test_exp_log_sqrt(self):
        data = np.abs(RNG.normal(size=(4,))) + 0.5
        check_grad(lambda x: (x.exp().log() + x.sqrt()).sum(), data)

    def test_tanh_sigmoid_relu(self):
        data = RNG.normal(size=(6,))
        check_grad(lambda x: (x.tanh() + x.sigmoid()).sum(), data)
        # relu grad away from the kink
        data = data + np.sign(data) * 0.1
        check_grad(lambda x: x.relu().sum(), data)

    def test_gelu(self):
        data = RNG.normal(size=(6,))
        check_grad(lambda x: x.gelu().sum(), data, tol=1e-6)

    def test_neg(self):
        check_grad(lambda x: (-x).sum(), RNG.normal(size=(3,)))


class TestBroadcastingGrads:
    def test_row_broadcast(self):
        a = RNG.normal(size=(4, 3))
        b = RNG.normal(size=(3,))
        x = Tensor(a, requires_grad=True)
        y = Tensor(b, requires_grad=True)
        (x * y).sum().backward()
        assert x.grad.shape == a.shape
        assert y.grad.shape == b.shape
        assert np.allclose(y.grad, a.sum(axis=0))

    def test_scalar_broadcast(self):
        x = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        (x + 3.0).sum().backward()
        assert np.allclose(x.grad, 1.0)

    def test_keepdim_broadcast(self):
        a = RNG.normal(size=(4, 3))
        check_grad(lambda x: (x - x.mean(axis=1, keepdims=True)).sum(), a)


class TestMatmulGrads:
    def test_2d(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        x = Tensor(a, requires_grad=True)
        y = Tensor(b, requires_grad=True)
        (x @ y).sum().backward()
        assert np.allclose(x.grad, np.ones((3, 2)) @ b.T)
        assert np.allclose(y.grad, a.T @ np.ones((3, 2)))

    def test_batched(self):
        a = RNG.normal(size=(2, 3, 4))
        check_grad(
            lambda x: (x @ Tensor(np.ones((2, 4, 5)))).sum(), a, tol=1e-6
        )

    def test_batched_rhs_grad(self):
        b = RNG.normal(size=(2, 4, 5))
        a = RNG.normal(size=(2, 3, 4))
        y = Tensor(b, requires_grad=True)
        (Tensor(a) @ y).sum().backward()
        expected = np.swapaxes(a, -1, -2) @ np.ones((2, 3, 5))
        assert np.allclose(y.grad, expected)

    def test_broadcast_lhs(self):
        a = RNG.normal(size=(3, 4))        # broadcast against batch
        b = RNG.normal(size=(2, 4, 5))
        x = Tensor(a, requires_grad=True)
        (x @ Tensor(b)).sum().backward()
        assert x.grad.shape == a.shape

    def test_batched_lhs_2d_rhs_grad(self):
        # (B, T, D) @ (D, K) — the tensordot fast path for the RHS grad
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(4, 5))
        y = Tensor(b, requires_grad=True)
        g = RNG.normal(size=(2, 3, 5))
        (Tensor(a) @ y).backward(g)
        expected = np.tensordot(a, g, axes=((0, 1), (0, 1)))
        assert np.allclose(y.grad, expected)
        check_grad(lambda w: (Tensor(a) @ w).sum(), b, tol=1e-6)


class TestReductionGrads:
    def test_sum_axis(self):
        check_grad(lambda x: x.sum(axis=0).sum(), RNG.normal(size=(3, 4)))

    def test_mean(self):
        data = RNG.normal(size=(4, 4))
        x = Tensor(data, requires_grad=True)
        x.mean().backward()
        assert np.allclose(x.grad, 1.0 / 16)

    def test_max(self):
        data = np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 0.0]])
        x = Tensor(data, requires_grad=True)
        x.max(axis=1).sum().backward()
        expected = np.array([[0, 1, 0], [1, 0, 0]], dtype=float)
        assert np.allclose(x.grad, expected)

    def test_max_tie_splitting(self):
        data = np.array([[2.0, 2.0]])
        x = Tensor(data, requires_grad=True)
        x.max(axis=1).sum().backward()
        assert np.allclose(x.grad, [[0.5, 0.5]])


class TestShapeOps:
    def test_reshape_grad(self):
        check_grad(lambda x: (x.reshape(6) * 2).sum(), RNG.normal(size=(2, 3)))

    def test_transpose_grad(self):
        a = RNG.normal(size=(2, 3, 4))
        check_grad(lambda x: (x.transpose(2, 0, 1) ** 2).sum(), a)

    def test_swapaxes(self):
        a = RNG.normal(size=(2, 3))
        x = Tensor(a, requires_grad=True)
        assert x.swapaxes(0, 1).shape == (3, 2)

    def test_getitem_slice_grad(self):
        a = RNG.normal(size=(4, 5))
        x = Tensor(a, requires_grad=True)
        x[1:3, ::2].sum().backward()
        assert x.grad.sum() == pytest.approx(2 * 3)

    def test_getitem_fancy_grad(self):
        a = RNG.normal(size=(4, 5))
        x = Tensor(a, requires_grad=True)
        x[np.array([0, 0, 2]), np.array([1, 1, 3])].sum().backward()
        assert x.grad[0, 1] == pytest.approx(2.0)  # repeated index accumulates
        assert x.grad[2, 3] == pytest.approx(1.0)

    def test_concat_grad(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(2, 2))
        x = Tensor(a, requires_grad=True)
        y = Tensor(b, requires_grad=True)
        Tensor.concat([x, y], axis=1).sum().backward()
        assert np.allclose(x.grad, 1.0)
        assert np.allclose(y.grad, 1.0)

    def test_stack_grad(self):
        tensors = [Tensor(RNG.normal(size=(3,)), requires_grad=True) for _ in range(4)]
        Tensor.stack(tensors, axis=0).sum().backward()
        for t in tensors:
            assert np.allclose(t.grad, 1.0)

    def test_unbind_matches_getitem(self):
        a = RNG.normal(size=(3, 4, 5))
        x = Tensor(a, requires_grad=True)
        y = Tensor(a.copy(), requires_grad=True)
        pieces = x.unbind(axis=1)
        assert len(pieces) == 4
        for t, piece in enumerate(pieces):
            assert np.array_equal(piece.data, a[:, t, :])
        Tensor.stack(pieces, axis=1).sum().backward()
        Tensor.stack([y[:, t, :] for t in range(4)], axis=1).sum().backward()
        assert np.allclose(x.grad, y.grad)

    def test_unbind_piece_reused_accumulates(self):
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        first = x.unbind(axis=0)[0]
        (first + first).sum().backward()
        assert np.allclose(x.grad[0], 2.0)
        assert np.allclose(x.grad[1], 0.0)

    def test_take_grad(self):
        table = Tensor(RNG.normal(size=(10, 4)), requires_grad=True)
        ids = np.array([[1, 1], [3, 9]])
        table.take(ids).sum().backward()
        assert table.grad[1].sum() == pytest.approx(8.0)  # used twice
        assert table.grad[0].sum() == 0.0


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(5, 7)))
        assert np.allclose(x.softmax(axis=-1).data.sum(axis=-1), 1.0)

    def test_log_softmax_grad(self):
        a = RNG.normal(size=(3, 5))
        check_grad(lambda x: (x.log_softmax(axis=-1) ** 2).sum(), a, tol=1e-6)

    def test_softmax_grad(self):
        a = RNG.normal(size=(3, 5))
        check_grad(lambda x: (x.softmax(axis=-1) ** 2).sum(), a, tol=1e-6)

    def test_softmax_stability(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        assert np.allclose(x.softmax(axis=-1).data, 0.5)


class TestGraphSemantics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(GradientError):
            (x * 2).backward()

    def test_backward_on_constant_rejected(self):
        x = Tensor(np.ones(3))
        with pytest.raises(GradientError):
            x.backward()

    def test_explicit_output_grad_shape_checked(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2).backward(np.ones(4))

    def test_grad_accumulates_over_backwards(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        assert np.allclose(x.grad, 4.0)

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x.sum()).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_grad(self):
        # y = x*x + x*x reuses x twice through shared subexpression
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x
        (y + y).sum().backward()
        assert np.allclose(x.grad, 12.0)

    def test_detach_breaks_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        d = x.detach()
        assert not d.requires_grad

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
            elements=st.floats(-3, 3),
        )
    )
    def test_sum_grad_is_ones_property(self, data):
        x = Tensor(data, requires_grad=True)
        x.sum().backward()
        assert np.allclose(x.grad, np.ones_like(data))


class TestPickling:
    def test_tensor_round_trips_as_leaf(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True, name="w")
        clone = pickle.loads(pickle.dumps(t))
        np.testing.assert_array_equal(clone.data, t.data)
        assert clone.requires_grad and clone.name == "w"
        assert clone.grad is None and clone._parents == ()

    def test_graph_state_is_dropped_not_pickled(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = (a * 2.0).sum()  # has _backward closure + parents
        clone = pickle.loads(pickle.dumps(b))
        assert clone._backward is None
        assert clone._parents == ()
