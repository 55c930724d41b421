"""Adam behavior: first-step size, bias correction, convergence, persistence."""

import numpy as np
import pytest

import geofuse.tensor as gt
from geofuse.checkpoint import load_checkpoint, save_checkpoint
from geofuse.errors import ConfigError, ValidationError
from geofuse.optim import Adam


def test_first_step_moves_by_lr_sign():
    # With fresh state, m_hat = g and sqrt(v_hat) = |g|, so the first update
    # is lr * sign(g) up to eps.
    p = gt.Tensor([1.0, -2.0, 0.5], requires_grad=True)
    p.grad = np.array([0.3, -40.0, 1e-3])
    opt = Adam([p], lr=0.01)
    opt.step()
    assert np.allclose(p.data, [1.0 - 0.01, -2.0 + 0.01, 0.5 - 0.01], atol=1e-6)


def test_zero_grad_step_keeps_param_and_advances_t():
    p = gt.Tensor([5.0], requires_grad=True)
    opt = Adam([p])
    opt.zero_grad()
    opt.step()  # grad is None: treated as zero
    assert p.data[0] == 5.0
    assert opt.t == 1


def test_scalar_quadratic_converges():
    # Minimize (w - 3)^2 from w=0 at lr=0.1. The trajectory is a fixed
    # recurrence; the endpoint below was computed independently of this module.
    p = gt.Tensor([0.0], requires_grad=True)
    opt = Adam([p], lr=0.1)
    for _ in range(100):
        p.grad = 2.0 * (p.data - 3.0)
        opt.step()
    assert abs(p.data[0] - 2.9806554375278123) < 1e-9
    assert abs(p.data[0] - 3.0) < 0.5


def test_adam_with_tape_fits_linear_map():
    rng = np.random.default_rng(50)
    x = rng.standard_normal((64, 3))
    w_true = np.array([[1.5], [-2.0], [0.25]])
    y = x @ w_true
    w = gt.Tensor(np.zeros((3, 1)), requires_grad=True)
    opt = Adam([w], lr=0.05)
    first = None
    for _ in range(400):
        with gt.Tape():
            pred = gt.matmul(gt.Tensor(x), w)
            diff = gt.sub(pred, gt.Tensor(y))
            loss = gt.multiply_elementwise(
                gt.reduce_sum(gt.multiply_elementwise(diff, diff)), 1.0 / diff.size)
        gt.backward(loss)
        opt.step()
        opt.zero_grad()
        if first is None:
            first = loss.item()
    assert loss.item() < 1e-4 * first
    assert np.allclose(w.data, w_true, atol=0.01)


def test_config_validation():
    p = gt.Tensor([0.0], requires_grad=True)
    with pytest.raises(ConfigError):
        Adam([p], lr=0.0)
    with pytest.raises(ConfigError):
        Adam([p], beta1=1.0)
    with pytest.raises(ConfigError):
        Adam([p], eps=0.0)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(51)
    params = {
        "layer.weight": gt.Tensor(rng.standard_normal((7, 5))),
        "layer.bias": rng.standard_normal(5) * 1e-300,  # subnormal-adjacent values
    }
    meta = {"history_steps": 12, "channels": [32, 8, 32], "target": "pm25"}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, meta)
    loaded, meta2 = load_checkpoint(path)
    assert meta2 == meta
    assert set(loaded) == set(params)
    assert loaded["layer.weight"].tobytes() == params["layer.weight"].data.tobytes()
    assert loaded["layer.bias"].tobytes() == params["layer.bias"].tobytes()


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "junk.ckpt"
    bad.write_bytes(b"not an archive")
    with pytest.raises(ValidationError):
        load_checkpoint(bad)
    with pytest.raises(ValidationError):
        save_checkpoint(tmp_path / "x.ckpt", {"__meta__": np.zeros(1)})
