"""Gradient checks for every tensor primitive against central differences.

Each op's analytic gradient must match (f(x+h) - f(x-h)) / 2h at h=1e-5
within 1e-4 relative error. Losses are random projections of the op output
so every output element contributes to the check.
"""

import warnings

import numpy as np
import pytest
from scipy.special import expit

import geofuse.tensor as gt
from geofuse.errors import ShapeError, TapeError
from geofuse.optim import Adam

H = 1e-5
REL = 1e-4


def numeric_grad(f, x: np.ndarray, h: float = H) -> np.ndarray:
    """Central-difference gradient of scalar f() with respect to x, in place."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def assert_grads_match(build_loss, params: list[gt.Tensor]):
    """Run one taped backward and compare each param grad to finite differences."""
    with gt.Tape():
        loss = build_loss()
    gt.backward(loss)
    for p in params:
        assert p.grad is not None, "param received no gradient"
        num = numeric_grad(lambda: build_loss().item(), p.data)
        scale = max(1.0, float(np.max(np.abs(num))))
        err = float(np.max(np.abs(p.grad - num)))
        assert err <= REL * scale, f"grad mismatch: {err} > {REL * scale}"


def projected(out: gt.Tensor, rng) -> gt.Tensor:
    """Reduce an op output to a scalar via a fixed random projection."""
    w = rng.standard_normal(out.shape)
    return gt.reduce_sum(gt.multiply_elementwise(out, w))


def test_add_broadcast_grads():
    rng = np.random.default_rng(11)
    a = gt.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = gt.Tensor(rng.standard_normal((4,)), requires_grad=True)
    assert_grads_match(lambda: projected(gt.add(a, b), np.random.default_rng(12)), [a, b])


def test_sub_grads():
    rng = np.random.default_rng(13)
    a = gt.Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    b = gt.Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    assert_grads_match(
        lambda: projected(gt.sub(gt.sub(0.0, a), b), np.random.default_rng(14)), [a, b])


def test_multiply_elementwise_broadcast_grads():
    rng = np.random.default_rng(15)
    a = gt.Tensor(rng.standard_normal((3, 1, 4)), requires_grad=True)
    b = gt.Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    assert_grads_match(
        lambda: projected(gt.multiply_elementwise(a, b), np.random.default_rng(16)), [a, b])


def test_matmul_grads():
    rng = np.random.default_rng(17)
    a = gt.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = gt.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    assert_grads_match(lambda: projected(gt.matmul(a, b), np.random.default_rng(18)), [a, b])


def test_matmul_batched_grads():
    rng = np.random.default_rng(19)
    a = gt.Tensor(rng.standard_normal((2, 3, 4, 3)), requires_grad=True)
    b = gt.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    assert_grads_match(lambda: projected(gt.matmul(a, b), np.random.default_rng(20)), [a, b])


def test_sigmoid_extreme_inputs_stay_finite():
    x = np.array([-800.0, 0.0, 800.0])
    y = gt._sigmoid_inplace(x.copy())
    assert np.all(np.isfinite(y))
    assert y[0] == 0.0 and y[1] == 0.5 and y[2] == 1.0


def test_sigmoid_matches_expit_quietly_and_keeps_its_input():
    x = np.concatenate([[-800.0, 800.0], np.linspace(-40.0, 40.0, 8001)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        y = gt._sigmoid_inplace(x.copy())
    assert np.max(np.abs(y - expit(x))) <= 2.3e-16
    # The gated conv gates through it in place on its own buffer: saturated
    # gates stay finite and quiet, and no input array is written.
    rng = np.random.default_rng(23)
    arrays = [rng.standard_normal((2, 6, 3)), rng.standard_normal((2, 3, 4)),
              rng.standard_normal(2), np.array([-800.0, 800.0])]
    before = [a.copy() for a in arrays]
    params = [gt.Tensor(a, requires_grad=True) for a in arrays]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with gt.Tape():
            out = gt.gated_conv1d_time(*params)
            loss = projected(out, np.random.default_rng(24))
        gt.backward(loss)
    assert np.all(np.isfinite(out.data))
    assert all(np.all(np.isfinite(p.grad)) for p in params)
    assert all(np.array_equal(p.data, b) for p, b in zip(params, before))


def test_relu_grads_away_from_kink():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((4, 6))
    x[np.abs(x) < 0.05] = 0.1  # keep finite differences off the nondifferentiable point
    x = gt.Tensor(x, requires_grad=True)
    assert_grads_match(lambda: projected(gt.relu(x), np.random.default_rng(26)), [x])


def test_reshape_and_swap_axes_grads():
    rng = np.random.default_rng(27)
    x = gt.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)

    def loss():
        y = gt.reshape(gt.swap_axes(x, 0, 2), (4, 6))
        return projected(y, np.random.default_rng(28))

    assert_grads_match(loss, [x])


def test_reduce_sum_and_mean_grads():
    rng = np.random.default_rng(33)
    x = gt.Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)

    def loss():
        partial = gt.reduce_sum(x, axis=1)              # (3, 5)
        mean = gt.multiply_elementwise(gt.reduce_sum(x), 1.0 / x.size)
        centered = gt.sub(partial, mean)                # broadcast scalar
        return projected(centered, np.random.default_rng(34))

    assert_grads_match(loss, [x])


def test_reduce_sum_keepdims_grads():
    rng = np.random.default_rng(35)
    x = gt.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    assert_grads_match(
        lambda: projected(gt.reduce_sum(x, axis=(0, 2), keepdims=True),
                          np.random.default_rng(36)), [x])


def test_gated_conv1d_time_shapes_and_values():
    # Width-1 kernel degenerates to a per-step matmul.
    rng = np.random.default_rng(39)
    x = rng.standard_normal((5, 4, 2))
    k = rng.standard_normal((1, 2, 6))
    b_lin, b_gate = rng.standard_normal(3), rng.standard_normal(3)
    out = gt.gated_conv1d_time(x, k, b_lin, b_gate)
    assert out.shape == (5, 4, 3)
    full = x @ k[0]
    assert np.allclose(out.data, (full[..., :3] + b_lin) * expit(full[..., 3:] + b_gate))
    # Valid convolution shortens the time axis by f - 1.
    k3 = rng.standard_normal((3, 2, 6))
    assert gt.gated_conv1d_time(x, k3, b_lin, b_gate).shape == (5, 2, 3)


def test_gated_conv1d_time_grads():
    rng = np.random.default_rng(45)
    x = gt.Tensor(rng.standard_normal((2, 3, 7, 3)), requires_grad=True)  # (B, S, T, C)
    k = gt.Tensor(rng.standard_normal((3, 3, 4)), requires_grad=True)
    b_lin = gt.Tensor(rng.standard_normal(2), requires_grad=True)
    b_gate = gt.Tensor(rng.standard_normal(2), requires_grad=True)
    assert_grads_match(
        lambda: projected(gt.gated_conv1d_time(x, k, b_lin, b_gate),
                          np.random.default_rng(46)), [x, k, b_lin, b_gate])


def composed_gated_conv(x, k, b_lin, b_gate):
    """The gated conv composed in plain numpy: the reference the tape op must match.

    It is analytic in every input, so it also takes complex arguments.
    """
    f, c = k.shape[0], k.shape[2] // 2
    t_out = x.shape[-2] - f + 1
    full = sum(x[..., d:d + t_out, :] @ k[d] for d in range(f))
    return (full[..., :c] + b_lin) / (1.0 + np.exp(-(full[..., c:] + b_gate)))


def complex_step_grads(loss, arrays, h=1e-30):
    """Gradients of a real-analytic scalar ``loss(*arrays)`` by complex step.

    d loss / d a_i = Im loss(a + i h e_i) / h has no subtractive cancellation,
    so it is exact to rounding (Squire & Trapp 1998, SIAM Rev. 40:110).
    """
    grads = []
    for n, a in enumerate(arrays):
        z = a.astype(np.complex128)
        args = arrays[:n] + [z] + arrays[n + 1:]
        g, flat = np.empty(a.shape), z.reshape(-1)
        for i in range(flat.size):
            flat[i] = a.flat[i] + 1j * h
            g.flat[i] = loss(*args).imag / h
            flat[i] = a.flat[i]
        grads.append(g)
    return grads


def test_gated_conv1d_time_matches_composed_ops():
    rng = np.random.default_rng(47)
    shapes = [(4, 5, 12, 3), (9, 2)]
    for x_shape, f in zip(shapes, (3, 4)):
        c_in, c_out = x_shape[-1], 5
        arrays = [rng.standard_normal(x_shape), rng.standard_normal((f, c_in, 2 * c_out)),
                  rng.standard_normal(c_out), rng.standard_normal(c_out)]
        params = [gt.Tensor(a, requires_grad=True) for a in arrays]
        with gt.Tape() as tape:
            out = gt.gated_conv1d_time(*params)
            records = len(tape)
            loss = projected(out, np.random.default_rng(48))
        gt.backward(loss)
        assert records == 1
        w = np.random.default_rng(48).standard_normal(out.shape)
        want_out = composed_gated_conv(*arrays)
        want_grads = complex_step_grads(
            lambda *args: np.sum(composed_gated_conv(*args) * w), arrays)
        for got, want in zip([out.data] + [p.grad for p in params],
                             [want_out] + want_grads):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("mode,order", [
    ("chebyshev", 1), ("chebyshev", 2), ("chebyshev", 3), ("first_order", 1)])
def test_graph_conv_grads(mode, order):
    # M is not symmetric, so a VJP that forgets to transpose the basis fails.
    rng = np.random.default_rng(21)
    m = rng.standard_normal((4, 4)) * 0.5
    basis = [m] if mode == "first_order" else [np.eye(4), m, 2.0 * m @ m - np.eye(4)]
    basis = np.stack(basis[:order])
    x = gt.Tensor(rng.standard_normal((2, 4, 3, 3)), requires_grad=True)
    k = gt.Tensor(rng.standard_normal((order, 3, 2)), requires_grad=True)
    assert_grads_match(
        lambda: projected(gt.graph_conv(x, basis, k), np.random.default_rng(22)), [x, k])


def test_dropout_grads_with_fixed_seed():
    rng = np.random.default_rng(40)
    x = gt.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    # An integer seed rebuilds the same mask on every forward, so finite
    # differences see a fixed linear map.
    assert_grads_match(
        lambda: projected(gt.dropout(x, 0.4, training=True, rng=41),
                          np.random.default_rng(42)), [x])


def test_dropout_semantics():
    x = gt.Tensor(np.ones((1000,)))
    out = gt.dropout(x, 0.3, training=True, rng=7)
    kept = out.data != 0
    assert np.allclose(out.data[kept], 1.0 / 0.7)
    assert abs(kept.mean() - 0.7) < 0.05
    same = gt.dropout(x, 0.3, training=True, rng=7)
    assert np.array_equal(out.data, same.data)
    ident = gt.dropout(x, 0.3, training=False, rng=7)
    assert ident is x
    assert gt.dropout(x, 0.0, training=True, rng=7) is x
    with pytest.raises(ValueError):
        gt.dropout(x, 1.0, training=True, rng=7)


def test_composite_expression_grads():
    # A small gated block exercising fan-out and mixed ops on one tape.
    rng = np.random.default_rng(43)
    x = gt.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = gt.Tensor(rng.standard_normal((4, 4)), requires_grad=True)

    def loss():
        h = gt.matmul(x, w)
        gated = gt.multiply_elementwise(h, gt.relu(h))
        return gt.reduce_sum(gt.relu(gt.add(gated, 0.3)))

    assert_grads_match(loss, [x, w])


def test_fanout_accumulates():
    x = gt.Tensor([2.0, -1.0], requires_grad=True)
    with gt.Tape():
        loss = gt.reduce_sum(gt.add(x, x))
    gt.backward(loss)
    assert np.array_equal(x.grad, [2.0, 2.0])


def test_parameter_grads_own_their_memory():
    # reshape and swap_axes pass their output's gradient back as a view;
    # intermediates keep such views, a parameter must get its own array.
    rng = np.random.default_rng(0)
    a = gt.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = gt.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    ca, cb = rng.normal(size=12), rng.normal(size=(4, 3))
    opt = Adam([a, b], lr=0.1)
    with gt.Tape():
        loss = gt.add(
            gt.reduce_sum(gt.multiply_elementwise(gt.reshape(a, (12,)), ca)),
            gt.reduce_sum(gt.multiply_elementwise(gt.swap_axes(b, 0, 1), cb)))
    gt.backward(loss)
    opt.step()
    for p, expected in ((a, ca.reshape(3, 4)), (b, cb.T)):
        assert p.grad.base is None
        assert p.grad.flags.writeable
        assert np.array_equal(p.grad, expected)


def test_backward_requires_scalar():
    x = gt.Tensor([1.0, 2.0], requires_grad=True)
    with gt.Tape():
        y = gt.add(x, 1.0)
    with pytest.raises(TapeError):
        gt.backward(y)


def test_backward_requires_tape():
    x = gt.Tensor([1.0], requires_grad=True)
    y = gt.reduce_sum(x)  # no tape active: pure forward
    with pytest.raises(TapeError):
        gt.backward(y)


def test_tape_single_use():
    x = gt.Tensor([1.0], requires_grad=True)
    with gt.Tape():
        loss = gt.reduce_sum(gt.multiply_elementwise(x, x))
    gt.backward(loss)
    with pytest.raises(TapeError):
        gt.backward(loss)


def test_no_grad_outside_tape():
    x = gt.Tensor([1.0], requires_grad=True)
    y = gt.reduce_sum(gt.multiply_elementwise(x, x))
    assert y.requires_grad is False


def test_grad_accumulates_until_zeroed():
    x = gt.Tensor([1.0, 2.0], requires_grad=True)
    for _ in range(2):
        with gt.Tape():
            loss = gt.reduce_sum(gt.multiply_elementwise(x, x))
        gt.backward(loss)
    assert np.array_equal(x.grad, [4.0, 8.0])  # 2x summed over two backward passes
    x.zero_grad()
    assert x.grad is None


def test_shape_errors_name_the_op():
    a = gt.Tensor(np.zeros((2, 3)))
    b = gt.Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError, match="matmul"):
        gt.matmul(a, b)
    with pytest.raises(ShapeError, match="add"):
        gt.add(a, gt.Tensor(np.zeros((7, 7))))
    x, bias = gt.Tensor(np.zeros((2, 5, 3))), np.zeros(2)
    with pytest.raises(ShapeError, match="gated_conv1d_time.*odd"):
        gt.gated_conv1d_time(x, gt.Tensor(np.zeros((2, 3, 5))), bias, bias)
    with pytest.raises(ShapeError, match="gated_conv1d_time.*shorter"):
        gt.gated_conv1d_time(x, gt.Tensor(np.zeros((6, 3, 4))), bias, bias)
    with pytest.raises(ShapeError, match="gated_conv1d_time.*biases"):
        gt.gated_conv1d_time(x, gt.Tensor(np.zeros((2, 3, 4))), np.zeros(3), bias)
    g = gt.Tensor(np.zeros((2, 4, 5, 3)))
    with pytest.raises(ShapeError, match="graph_conv.*basis"):
        gt.graph_conv(g, np.zeros((2, 4, 4)), gt.Tensor(np.zeros((3, 3, 2))))
    with pytest.raises(ShapeError, match="graph_conv.*input"):
        gt.graph_conv(g, np.zeros((3, 4, 4)), gt.Tensor(np.zeros((3, 2, 2))))
