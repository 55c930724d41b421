"""The reverse-mode tape and Adam, shown on a small curve-fitting problem.

No frameworks here: Tensor records operations onto a tape, backward() walks
it in reverse, and Adam consumes the accumulated gradients. The same three
pieces train the full forecaster; this demo fits y = sin(x) with a tiny MLP
so every moving part is visible.
"""

import numpy as np

import geofuse.tensor as gt
from geofuse import Adam, Tape, Tensor, backward

print("=== gradients against finite differences ===")
rng = np.random.default_rng(3)
a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
with Tape():
    loss = gt.reduce_sum(gt.relu(gt.matmul(a, b)))
backward(loss)

h = 1e-6
i, j = 2, 1  # spot-check one element of a
orig = a.data[i, j]
a.data[i, j] = orig + h
up = float(np.sum(np.maximum(a.data @ b.data, 0.0)))
a.data[i, j] = orig - h
down = float(np.sum(np.maximum(a.data @ b.data, 0.0)))
a.data[i, j] = orig
numeric = (up - down) / (2 * h)
print(f"d loss / d a[{i},{j}]: tape {a.grad[i, j]:.8f}, "
      f"finite difference {numeric:.8f}")

print()
print("=== fitting sin(x) with a 1-16-1 network ===")
x = np.linspace(-np.pi, np.pi, 200)[:, None]
y = np.sin(x)

rng = np.random.default_rng(12)
w1 = Tensor(rng.normal(0, 0.5, size=(1, 16)), requires_grad=True)
b1 = Tensor(np.zeros(16), requires_grad=True)
w2 = Tensor(rng.normal(0, 0.5, size=(16, 1)), requires_grad=True)
b2 = Tensor(np.zeros(1), requires_grad=True)
params = [w1, b1, w2, b2]
opt = Adam(params, lr=0.02)

xt, yt = Tensor(x), Tensor(y)
for epoch in range(400):
    for p in params:
        p.grad = None
    with Tape():
        hidden = gt.relu(gt.add(gt.matmul(xt, w1), b1))
        pred = gt.add(gt.matmul(hidden, w2), b2)
        diff = gt.sub(pred, yt)
        loss = gt.multiply_elementwise(
            gt.reduce_sum(gt.multiply_elementwise(diff, diff)), 1.0 / len(x))
    backward(loss)
    opt.step()
    if epoch % 100 == 0 or epoch == 399:
        print(f"  epoch {epoch:3d}  mse {loss.item():.6f}")

final = gt.add(gt.matmul(gt.relu(gt.add(gt.matmul(xt, w1), b1)), w2), b2)
residual = np.abs(final.data - y)
print(f"max residual over the grid: {residual.max():.4f}")
print("backward() releases each tape record as it walks past it, so memory")
print("stays flat across epochs.")
