"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Ops record onto the innermost active ``Tape`` (a context manager). ``backward``
seeds a scalar loss with gradient 1.0 and walks the tape in reverse, summing
gradients where a value fans out into several consumers. It releases each
record as it walks past it, so an intermediate value and its gradient are
freed as soon as nothing later needs them and no step's graph outlives its
backward pass. A tape can be walked once; building the next step's graph
requires a fresh tape.

The ops are the ones the STGCN records: ``add``, ``sub``,
``multiply_elementwise``, ``matmul``, ``relu``, ``reshape``, ``swap_axes``,
``reduce_sum``, ``gated_conv1d_time``, ``graph_conv`` and ``dropout``. The
model's layer ops compute on plain arrays through ``gated_conv_halves``,
``graph_conv_values`` and ``relu_values``, which inference calls directly.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError, TapeError

_TAPE_STACK: list["Tape"] = []


def _active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """Numpy-backed value node. ``grad`` is populated by ``backward``."""

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class Tape:
    """Ordered record of ops. Reverse traversal yields vector-Jacobian steps."""

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._records)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make_output(data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap an op result, recording it if a tape is active and grads are needed."""
    tape = _active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=needs)
    if needs:
        out._tape = tape
        tape._records.append((out, inputs, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape`` undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _broadcast_op(name: str, ufunc, a, b, grads) -> Tensor:
    """``ufunc(a, b)`` with numpy broadcasting. ``grads(g, a, b)`` gives both
    input gradients at the output's shape; each is summed down to its input's."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = ufunc(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast")

    def backward_fn(g):
        ga, gb = grads(g, a.data, b.data)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _make_output(data, (a, b), backward_fn)


def add(a, b) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    return _broadcast_op("add", np.add, a, b, lambda g, x, y: (g, g))


def sub(a, b) -> Tensor:
    return _broadcast_op("sub", np.subtract, a, b, lambda g, x, y: (g, -g))


def multiply_elementwise(a, b) -> Tensor:
    """Hadamard product with broadcasting; used for gating and masking."""
    return _broadcast_op("multiply_elementwise", np.multiply, a, b,
                         lambda g, x, y: (g * y, g * x))


def matmul(a, b) -> Tensor:
    """Batched matrix product ``(..., n, k) @ (k, m)``.

    The right operand is restricted to 2-D because every learned weight in the
    model is a plain matrix applied over leading batch dims.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if b.ndim != 2:
        raise ShapeError(f"matmul: right operand must be 2-D, got {b.shape}")
    if a.ndim < 1 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    data = a.data @ b.data

    def backward_fn(g):
        ga = g @ b.data.T
        gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, b.shape[1])
        return ga, gb

    return _make_output(data, (a, b), backward_fn)


def _sigmoid_inplace(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) written over ``z``; exp's overflow gives the exact 0."""
    with np.errstate(over="ignore"):
        np.exp(np.negative(z, out=z), out=z)
        z += 1.0
        return np.reciprocal(z, out=z)


def relu_values(x: np.ndarray) -> np.ndarray:
    """``relu`` on a plain array."""
    return np.where(x > 0, x, 0.0)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    data = relu_values(x.data)
    return _make_output(data, (x,), lambda g: (g * (data > 0),))


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    old = x.shape

    def backward_fn(g):
        return (g.reshape(old),)

    return _make_output(data, (x,), backward_fn)


def swap_axes(x, axis_a: int, axis_b: int) -> Tensor:
    x = _as_tensor(x)
    if not (-x.ndim <= axis_a < x.ndim and -x.ndim <= axis_b < x.ndim):
        raise ShapeError(f"swap_axes: axes ({axis_a}, {axis_b}) out of range for {x.shape}")

    def backward_fn(g):
        return (np.swapaxes(g, axis_a, axis_b),)

    return _make_output(np.swapaxes(x.data, axis_a, axis_b), (x,), backward_fn)


def reduce_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)
    xshape = x.shape

    def backward_fn(g):
        if axis is None:
            return (np.broadcast_to(g, xshape).astype(np.float64, copy=True),)
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(a % len(xshape) for a in axes):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, xshape).astype(np.float64, copy=True),)

    return _make_output(data, (x,), backward_fn)


def _im2col(x: np.ndarray, f: int) -> np.ndarray:
    """(..., T, C) -> (N (T - f + 1), f C), N the product of the leading dims.

    Each row holds f consecutive time steps back to back, matching the row
    order of a (f, C, C_out) kernel reshaped to (f C, C_out). A C-contiguous
    input with T = f is one window per row, returned as a view.
    """
    *lead, t, c = x.shape
    if t == f and x.flags.c_contiguous:
        return x.reshape(-1, f * c)
    windows = as_strided(x, (*lead, t - f + 1, f, c), x.strides[:-1] + x.strides[-2:],
                         writeable=False)                 # (..., T-f+1, f, C)
    return windows.reshape(-1, f * c)


def _conv_forward(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    f, c_in, c_out = kernel.shape
    out = _im2col(x, f) @ kernel.reshape(f * c_in, c_out)
    return out.reshape(x.shape[:-2] + (x.shape[-2] - f + 1, c_out))


def _conv_backward(x: np.ndarray, kernel: np.ndarray, g: np.ndarray,
                   need_gx: bool) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of ``_conv_forward`` for input and kernel given output grad ``g``.

    With ``need_gx`` False the input gradient is skipped and returned as None.
    """
    f, c_in, c_out = kernel.shape
    t_out = g.shape[-2]
    g2 = g.reshape(-1, c_out)
    gk = (_im2col(x, f).T @ g2).reshape(kernel.shape)
    if not need_gx:
        return None, gk
    gcols = (g2 @ kernel.reshape(f * c_in, c_out).T).reshape(g.shape[:-1] + (f, c_in))
    gx = np.zeros_like(x)
    for d in range(f):
        gx[..., d:d + t_out, :] += gcols[..., d, :]
    return gx, gk


def gated_conv_halves(x, kernel, bias_lin, bias_gate) -> tuple[np.ndarray, np.ndarray]:
    """``gated_conv1d_time``'s linear half and sigmoid gate on plain arrays,
    unchecked; the op's output is their product."""
    c_out = kernel.shape[2] // 2
    full = _conv_forward(x, kernel)
    return full[..., :c_out] + bias_lin, _sigmoid_inplace(full[..., c_out:] + bias_gate)


def gated_conv1d_time(x, kernel, bias_lin, bias_gate) -> Tensor:
    """GLU-gated valid convolution along the time axis, recorded as one op.

    ``x``: (..., T, C_in), ``kernel``: (f, C_in, 2 C_out). With ``full = sum_d
    x[..., d:d+T-f+1, :] @ kernel[d]`` (one im2col matmul) the result is
    ``(full[..., :C_out] + bias_lin) * expit(full[..., C_out:] + bias_gate)``,
    shape (..., T-f+1, C_out); the gradients of all four inputs come from one
    hand-written vector-Jacobian product, which skips the input's when
    ``x`` does not require one (the data windows of the first layer).
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    bias_lin, bias_gate = _as_tensor(bias_lin), _as_tensor(bias_gate)
    if kernel.ndim != 3:
        raise ShapeError(
            f"gated_conv1d_time: kernel must be (f, C_in, 2 C_out), got {kernel.shape}")
    if x.ndim < 2 or x.shape[-1] != kernel.shape[1]:
        raise ShapeError(
            f"gated_conv1d_time: input {x.shape} does not match kernel {kernel.shape}")
    if x.shape[-2] < kernel.shape[0]:
        raise ShapeError(f"gated_conv1d_time: time axis {x.shape[-2]} shorter than "
                         f"kernel {kernel.shape[0]}")
    width = kernel.shape[2]
    if width % 2:
        raise ShapeError(
            f"gated_conv1d_time: kernel output width {width} is odd; "
            "need a linear half and a gate half")
    c_out = width // 2
    if bias_lin.shape != (c_out,) or bias_gate.shape != (c_out,):
        raise ShapeError(
            f"gated_conv1d_time: biases {bias_lin.shape} and {bias_gate.shape} "
            f"must both be ({c_out},)")
    lin, gate = gated_conv_halves(x.data, kernel.data, bias_lin.data, bias_gate.data)

    def backward_fn(g):
        g_lin = g * gate
        g_gate = g * lin * gate * (1.0 - gate)
        gx, gk = _conv_backward(x.data, kernel.data,
                                np.concatenate([g_lin, g_gate], axis=-1), x.requires_grad)
        return gx, gk, _unbroadcast(g_lin, (c_out,)), _unbroadcast(g_gate, (c_out,))

    return _make_output(lin * gate, (x, kernel, bias_lin, bias_gate), backward_fn)


def graph_conv_operands(basis: np.ndarray, kernel: np.ndarray) -> tuple[np.ndarray, ...]:
    """(R, S, S) ``basis`` and (R, C_in, C_out) ``kernel`` as (S, R S) and (C_in, R C_out)."""
    return tuple(a.transpose(1, 0, 2).reshape(a.shape[1], -1) for a in (basis, kernel))


def graph_conv_values(x: np.ndarray, basis_mat: np.ndarray,
                      kernel_mat: np.ndarray) -> np.ndarray:
    """``graph_conv`` on plain arrays and ``graph_conv_operands``, unchecked: (B, S, T,
    C_out). The node mixing is the GEMM ``np.tensordot`` runs, on its operands."""
    b, s, t, _ = x.shape
    r = basis_mat.shape[1] // s
    shape = (b, s, t, r, kernel_mat.shape[1] // r)
    xw = (x @ kernel_mat).reshape(shape).transpose(3, 1, 0, 2, 4).reshape(r * s, -1)
    return np.dot(basis_mat, xw).reshape(s, b, t, shape[-1]).swapaxes(0, 1)


def graph_conv(x, basis, kernel) -> Tensor:
    """Graph filter ``sum_r basis[r] x kernel[r]`` over the node axis, as one op.

    ``x``: (B, S, T, C_in), ``basis``: a constant (R, S, S) stack of node
    operators (no gradient flows into it), ``kernel``: (R, C_in, C_out) ->
    (B, S, T, C_out). The kernel is applied first, as one (C_in, R C_out)
    matmul, so no R filtered copies of ``x`` are held; one (S, R S) GEMM then
    mixes the nodes. The backward reverses both steps.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    basis = np.asarray(basis, dtype=np.float64)
    if kernel.ndim != 3:
        raise ShapeError(f"graph_conv: kernel must be (R, C_in, C_out), got {kernel.shape}")
    r, c_in, c_out = kernel.shape
    if x.ndim != 4 or x.shape[-1] != c_in:
        raise ShapeError(f"graph_conv: input {x.shape} does not match kernel {kernel.shape}")
    b, s, t, _ = x.shape
    if basis.shape != (r, s, s):
        raise ShapeError(
            f"graph_conv: basis {basis.shape} is not ({r}, {s}, {s}) for input "
            f"{x.shape} and kernel {kernel.shape}")

    basis_mat, w = graph_conv_operands(basis, kernel.data)

    def backward_fn(g):                                          # np.tensordot's GEMM
        gxw = np.dot(basis.transpose(0, 2, 1).reshape(r * s, s),
                     np.swapaxes(g, 0, 1).reshape(s, -1))
        gxw = gxw.reshape(r, s, b, t, c_out).transpose(2, 1, 3, 0, 4).reshape(-1, r * c_out)
        gk = x.data.reshape(-1, c_in).T @ gxw
        return ((gxw @ w.T).reshape(x.shape),
                gk.reshape(c_in, r, c_out).transpose(1, 0, 2))

    return _make_output(graph_conv_values(x.data, basis_mat, w), (x, kernel), backward_fn)


def dropout(x, rate: float, training: bool, rng) -> Tensor:
    """Inverted dropout. Identity when not training or rate is 0.

    ``rng`` is an integer seed or a ``numpy.random.Generator``; the mask is
    fully determined by it, so a seeded run is reproducible.
    """
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    mask = (gen.random(x.shape) >= rate) / (1.0 - rate)
    return multiply_elementwise(x, mask)


def backward(loss: Tensor) -> None:
    """Seed a scalar loss with gradient 1 and accumulate grads down the tape.

    The first gradient to reach an intermediate tensor is stored as is, even
    when it is a view of another tensor's gradient; only a leaf (a tensor no
    op produced, ``_tape is None``, such as a parameter) gets its own copy.
    This is safe because no ``backward_fn`` writes into its ``g`` and a
    second gradient is summed into a new array, never added in place.
    """
    if loss.size != 1:
        raise TapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise TapeError("backward: loss was not recorded on any tape")
    if tape._spent:
        raise TapeError("backward: tape already walked; build a new tape per step")
    tape._spent = True

    loss.grad = np.ones_like(loss.data)
    # Popping each record drops the tape's hold on its output, inputs and
    # closure; the output's own ``_tape`` link no longer forms a cycle.
    records, tape._records = tape._records, []
    while records:
        out, inputs, backward_fn = records.pop()
        g = out.grad
        if g is None:
            continue
        grads = backward_fn(g)
        for t, gt in zip(inputs, grads):
            if gt is None or not t.requires_grad:
                continue
            if t.grad is None:
                t.grad = gt.astype(np.float64) if t._tape is None else gt
            else:
                t.grad = t.grad + gt
