"""Model shape algebra, gradient flow, training behavior, and rollout."""

import ctypes
import gc
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import geofuse.stgcn as stgcn
import geofuse.tensor as gt
from geofuse.config import PipelineConfig, config_text, parse_config_text
from geofuse.errors import ConfigError, ShapeError, TrainingError, ValidationError
from geofuse.fusion import pairwise_distances
from geofuse.graph import build_adjacency, renormalized_adjacency, scaled_laplacian
from geofuse.ingest import NormalizationParams, make_windows
from geofuse.optim import Adam
from geofuse.stgcn import (
    GraphConv,
    ModelConfig,
    StgcnModel,
    TrainConfig,
    TrainResult,
    l2_loss,
    load_model,
    predict,
    predict_batch,
    predict_series,
    save_model,
    train,
)
from geofuse.tensor import Tensor

ROOT = Path(__file__).resolve().parents[1]


def operators(n, seed=0):
    pts = np.random.default_rng(seed).uniform(0, 1, size=(n, 2))
    adj = build_adjacency(pairwise_distances(pts))
    return scaled_laplacian(adj), renormalized_adjacency(adj)


def tiny_config(**overrides):
    base = dict(n_nodes=3, in_channels=2, history_steps=6, channels=(3, 2, 3),
                time_kernel=2, graph_kernel=2, graph_mode="chebyshev", dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def test_forward_shape_algebra():
    # Four temporal layers of width 3 eat 12 -> 8 -> 4 -> 1 time steps.
    config = ModelConfig(n_nodes=5, in_channels=4, history_steps=12,
                         channels=(8, 4, 8), time_kernel=3, graph_kernel=3)
    assert config.head_time_steps == 4
    model = StgcnModel(config, seed=1)
    cheb, _ = operators(5)
    out = model.forward(np.zeros((7, 12, 5, 4)), cheb)
    assert out.shape == (7, 5, 1)


def test_too_short_history_rejected_at_config_time():
    with pytest.raises(ConfigError, match="time steps"):
        ModelConfig(n_nodes=3, in_channels=1, history_steps=8,
                    channels=(4, 2, 4), time_kernel=3).validate()
    # P = 9 leaves exactly one step: allowed.
    ModelConfig(n_nodes=3, in_channels=1, history_steps=9,
                channels=(4, 2, 4), time_kernel=3).validate()


def test_model_sizes_must_be_integers():
    for sizes in ({"history_steps": 6.0}, {"in_channels": 2.5}, {"channels": (3.0, 2, 3)}):
        with pytest.raises(ConfigError, match="integers"):
            tiny_config(**sizes).validate()
    tiny_config(n_nodes=np.int64(3), history_steps=np.int32(6)).validate()


def test_operator_and_shape_validation():
    model = StgcnModel(tiny_config(), seed=2)
    cheb3, ren3 = operators(3)
    cheb4, _ = operators(4)
    with pytest.raises(ValidationError, match="scaled_laplacian"):
        model.forward(np.zeros((1, 6, 3, 2)), ren3)
    with pytest.raises(ShapeError, match="nodes"):
        model.forward(np.zeros((1, 6, 3, 2)), cheb4)
    with pytest.raises(ShapeError, match="expected windows"):
        model.forward(np.zeros((1, 5, 3, 2)), cheb3)
    with pytest.raises(ShapeError, match="expected windows"):
        model.forward(np.zeros((1, 7, 3, 2)), cheb3)
    with pytest.raises(ShapeError, match="expected rows"):
        model.forward_rows(np.zeros((1, 5, 3, 2)), cheb3)
    with pytest.raises(ValidationError, match="rng"):
        model_d = StgcnModel(tiny_config(dropout=0.3), seed=2)
        model_d.forward(np.zeros((1, 6, 3, 2)), cheb3, training=True)


def test_first_order_mode():
    config = tiny_config(graph_mode="first_order", graph_kernel=1)
    model = StgcnModel(config, seed=3)
    _, ren = operators(3)
    out = model.forward(np.random.default_rng(4).normal(size=(2, 6, 3, 2)), ren)
    assert out.shape == (2, 3, 1)
    with pytest.raises(ConfigError, match="first_order"):
        tiny_config(graph_mode="first_order", graph_kernel=3).validate()


def test_chebyshev_layer_matches_dense_expansion():
    rng = np.random.default_rng(5)
    s, order, c_in, c_out = 5, 3, 3, 2
    cheb, _ = operators(s, seed=6)
    m = cheb.matrix
    layer = GraphConv(order, c_in, c_out, np.random.default_rng(7))
    x = rng.normal(size=(2, s, 4, c_in))

    polys = [np.eye(s), m]
    polys.append(2.0 * m @ polys[1] - polys[0])
    theta = layer.kernel.data
    expected = sum(
        np.einsum("ij,bjtc,ck->bitk", polys[r], x, theta[r]) for r in range(order))
    out = layer.forward(Tensor(x), GraphConv.basis(m, "chebyshev", order))
    assert np.allclose(out.data, expected, atol=1e-12)


def test_first_order_layer_matches_dense_form():
    rng = np.random.default_rng(8)
    s = 4
    _, ren = operators(s, seed=9)
    layer = GraphConv(1, 2, 3, np.random.default_rng(10))
    x = rng.normal(size=(1, s, 5, 2))
    expected = np.einsum("ij,bjtc,ck->bitk", ren.matrix, x, layer.kernel.data[0])
    basis = GraphConv.basis(ren.matrix, "first_order", 1)
    assert np.allclose(layer.forward(Tensor(x), basis).data, expected, atol=1e-12)


def test_l2_loss_values():
    pred = Tensor(np.array([[[1.0], [2.0]]]))       # (1, 2, 1)
    target = np.array([[[0.0], [1.0]]])
    assert l2_loss(pred, target).item() == 2.0      # two unit residuals, batch 1
    doubled = Tensor(np.array([[[2.0], [3.0]]]))
    assert l2_loss(doubled, target).item() == 8.0   # residuals x2 -> loss x4
    batch2 = Tensor(np.ones((2, 2, 1)))
    assert l2_loss(batch2, np.zeros((2, 2, 1))).item() == pytest.approx(2.0)
    with pytest.raises(ShapeError):
        l2_loss(pred, np.zeros((1, 3, 1)))


def test_full_model_gradients_match_finite_differences():
    # Central differences at h=1e-5 for every parameter of a tiny model.
    config = tiny_config()
    model = StgcnModel(config, seed=11)
    cheb, _ = operators(3, seed=12)
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, 6, 3, 2))
    y = rng.normal(size=(2, 3, 1))

    def loss_value() -> float:
        return l2_loss(model.forward(x, cheb), y).item()

    with gt.Tape():
        loss = l2_loss(model.forward(x, cheb), y)
    gt.backward(loss)

    h = 1e-5
    for name, p in model.parameters().items():
        assert p.grad is not None, f"{name} got no gradient"
        flat = p.data.ravel()
        gflat = p.grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value()
            flat[i] = orig - h
            down = loss_value()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            scale = max(1.0, abs(numeric))
            assert abs(gflat[i] - numeric) <= 1e-4 * scale, (
                f"{name}[{i}]: analytic {gflat[i]} vs numeric {numeric}")


def test_training_steps_leave_no_tensors_behind():
    # With the cyclic collector off, only reference counting frees a step's
    # graph; the live Tensor count must not grow from step to step.
    model = StgcnModel(tiny_config(), seed=15)
    cheb, _ = operators(3, seed=16)
    rng = np.random.default_rng(17)
    x = rng.normal(size=(4, 6, 3, 2))
    y = rng.normal(size=(4, 3, 1))
    opt = Adam(list(model.parameters().values()), lr=1e-3)

    def live_tensors() -> int:
        return sum(isinstance(o, Tensor) for o in gc.get_objects())

    gc.disable()
    try:
        counts = {}
        for step in range(1, 21):
            with gt.Tape():
                loss = l2_loss(model.forward(x, cheb), y)
            gt.backward(loss)
            opt.step()
            opt.zero_grad()
            counts[step] = live_tensors()
    finally:
        gc.enable()
    assert counts[20] == counts[2], counts


def test_graph_conv_records_one_tape_op_at_any_order():
    # The filter order changes only the constant basis, never the tape.
    cheb, ren = operators(3, seed=18)
    rng = np.random.default_rng(19)
    x = rng.normal(size=(2, 6, 3, 2))
    y = rng.normal(size=(2, 3, 1))
    records = {}
    for mode, order, op in (("chebyshev", 1, cheb), ("chebyshev", 2, cheb),
                            ("chebyshev", 3, cheb), ("first_order", 1, ren)):
        model = StgcnModel(tiny_config(graph_mode=mode, graph_kernel=order), seed=20)
        with gt.Tape() as tape:
            loss = l2_loss(model.forward(x, op), y)
        records[(mode, order)] = len(tape)
        gt.backward(loss)
        with gt.Tape() as tape:
            model.block1.graph.forward(Tensor(rng.normal(size=(2, 3, 5, 3))),
                                       GraphConv.basis(op.matrix, mode, order))
        assert len(tape) == 1, (mode, order)
    assert len(set(records.values())) == 1, records


def test_block_forward_matches_stacked_windows():
    # One forward over each block of rows gives the stacked windows' loss and
    # gradients: the fold only moves each window's column into the batch.
    model = StgcnModel(tiny_config(n_nodes=4), seed=30)
    cheb, _ = operators(4, seed=31)
    rng = np.random.default_rng(32)
    rows = rng.normal(size=(3, 8 + 6 - 1, 4, 2))        # 3 blocks of 8 windows
    windows = np.stack([block[j:j + 6] for block in rows for j in range(8)])
    y = rng.normal(size=(24, 4, 1))
    params = model.parameters()

    def loss_and_grads(forward, x):
        with gt.Tape():
            loss = l2_loss(forward(x, cheb), y)
        gt.backward(loss)
        grads = {name: p.grad for name, p in params.items()}
        for p in params.values():
            p.zero_grad()
        return loss.item(), grads

    block_loss, block_grads = loss_and_grads(model.forward_rows, rows)
    stacked_loss, stacked_grads = loss_and_grads(model.forward, windows)
    assert block_loss == pytest.approx(stacked_loss, rel=1e-12, abs=0)
    for name, g in stacked_grads.items():
        assert np.allclose(block_grads[name], g, rtol=1e-12,
                           atol=1e-12 * np.abs(g).max()), name


def _index_dataset(t_total, p=4):
    """Rows that hold their own index."""
    values = np.broadcast_to(np.arange(t_total, dtype=float)[:, None, None],
                             (t_total, 6, 2)).copy()
    return make_windows(values, [f"s{i}" for i in range(6)], ["a", "b"], p, 1, "a")


@pytest.mark.parametrize("batch_size", [1, 5, 16, 32, 40])
def test_minibatches_are_aligned_blocks_of_consecutive_windows(batch_size):
    length = min(16, batch_size)
    for t_total in (20, 170):                     # 10 and 100 training windows
        ds = _index_dataset(t_total)
        n = ds.n_train
        size = min(length, n)
        rng = np.random.default_rng(33)
        seen: set = set()
        for _ in range(20):
            starts = []
            for rows, y in stgcn._minibatches(ds.series("train"), ds.part("train")[1][:, 0],
                                              4, batch_size, rng):
                m, span = rows.shape[:2]
                assert span - 3 == size and m * size <= batch_size
                assert (np.diff(rows[:, :, 0, 0], axis=1) == 1).all()   # consecutive rows
                first = rows[:, :size, 0, 0].reshape(-1)                # each window's start
                assert np.array_equal(y[:, :, 0], np.repeat(first[:, None] + 4, 6, axis=1))
                starts += first.tolist()
            assert starts and len(set(starts)) == len(starts)           # each window once
            assert set(starts) <= set(range(n))
            # A split shorter than a block is one block; a longer one loses at
            # most L - 1 windows at each end.
            assert len(starts) >= n - 2 * (length - 1) * (n >= length)
            seen |= set(starts)
        if 1 < size < n:                           # the offset moves the blocks
            assert len(seen) > len(starts)


def test_training_on_runs_shorter_than_a_block_steps_and_learns(monkeypatch):
    # 14 training windows, less than a block: each epoch is one step, and
    # the loss falls.
    ds = _smooth_dataset(t_total=30)
    assert ds.n_train < 16, ds.n_train
    cheb, _ = operators(4, seed=15)
    model = StgcnModel(ModelConfig(n_nodes=4, in_channels=2, history_steps=6,
                                   channels=(6, 3, 6), time_kernel=2, graph_kernel=2,
                                   dropout=0.0), seed=16)
    steps = []
    step = Adam.step
    monkeypatch.setattr(Adam, "step", lambda opt: steps.append(1) or step(opt))
    result = train(model, ds, cheb, TrainConfig(lr=0.01, batch_size=32, epochs=20, seed=17))
    assert len(steps) == 20
    assert result.history[-1].train_loss < 0.5 * result.history[0].train_loss


def _smooth_dataset(seed=14, t_total=140, s=4, p=6, q=2):
    rng = np.random.default_rng(seed)
    t = np.arange(t_total)[:, None]
    phase = rng.uniform(0, 2 * np.pi, size=s)
    base = 0.5 + 0.3 * np.sin(2 * np.pi * t / 24.0 + phase)
    other = 0.5 + 0.3 * np.cos(2 * np.pi * t / 17.0 + phase)
    values = np.stack([base, other], axis=2)  # (T, S, 2)
    values += rng.normal(0, 0.01, values.shape)
    return make_windows(values, [f"s{i}" for i in range(s)], ["a", "b"], p, q, "a")


def test_training_reduces_loss_and_restores_best():
    ds = _smooth_dataset()
    cheb, _ = operators(4, seed=15)
    config = ModelConfig(n_nodes=4, in_channels=2, history_steps=6,
                         channels=(6, 3, 6), time_kernel=2, graph_kernel=2,
                         dropout=0.1)
    model = StgcnModel(config, seed=16)
    result = train(model, ds, cheb, TrainConfig(lr=0.01, batch_size=16,
                                                epochs=25, seed=17))
    assert len(result.history) == 25
    assert result.history[-1].train_loss < 0.5 * result.history[0].train_loss
    assert result.best_val_loss == min(h.val_loss for h in result.history)
    assert result.best_epoch == min(
        (h.epoch for h in result.history if h.val_loss == result.best_val_loss))
    # The restored parameters reproduce the best validation loss exactly.
    val_x, val_y = ds.part("val")
    pred = model.forward(val_x, cheb).data
    val_loss = float(((pred - val_y[:, 0]) ** 2).sum() / val_x.shape[0])
    assert val_loss == pytest.approx(result.best_val_loss, rel=1e-12)


def _train_small_run():
    ds = _smooth_dataset()
    cheb, _ = operators(4, seed=15)
    config = ModelConfig(n_nodes=4, in_channels=2, history_steps=6,
                         channels=(4, 2, 4), time_kernel=2, graph_kernel=2,
                         dropout=0.2)
    model = StgcnModel(config, seed=18)
    result = train(model, ds, cheb, TrainConfig(lr=0.01, batch_size=16,
                                                epochs=6, seed=19))
    return result, {k: v.data.copy() for k, v in model.parameters().items()}


def test_training_is_deterministic():
    res_a, params_a = _train_small_run()
    res_b, params_b = _train_small_run()
    assert [(h.train_loss, h.val_loss) for h in res_a.history] == \
           [(h.train_loss, h.val_loss) for h in res_b.history]
    for name in params_a:
        assert np.array_equal(params_a[name], params_b[name])


@pytest.mark.parametrize("loader", ["raises", "no_mallopt"])
def test_training_without_mallopt_is_unchanged(monkeypatch, loader):
    result_ref, params_ref = _train_small_run()
    calls = []

    def fake_cdll(name, *args, **kwargs):
        calls.append(name)
        if loader == "raises":
            raise OSError("no C library")
        return object()                       # a C library without mallopt

    monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
    result, params = _train_small_run()
    assert calls, "train did not look for mallopt"
    assert result.history == result_ref.history
    for name in params_ref:
        assert np.array_equal(params[name], params_ref[name])


def _faults_per_step_after_train() -> list[int]:
    """Minor page faults of each of 20 c07-shape block steps run after ``train``.

    Each step is the first minibatch ``train`` would draw at batch size 32:
    two blocks of 16 consecutive windows, one forward over each.
    """
    import resource                                       # Unix only
    s, k, p = 15, 3, 12
    rng = np.random.default_rng(21)
    ds = make_windows(rng.normal(size=(200, s, k)), [f"s{i}" for i in range(s)],
                      ["a", "b", "c"], p, 1, "a")
    cheb, _ = operators(s, seed=22)
    model = StgcnModel(ModelConfig(n_nodes=s, in_channels=k, history_steps=p,
                                   channels=(16, 8, 16), time_kernel=3,
                                   graph_kernel=3, dropout=0.0), seed=23)
    train(model, ds, cheb, TrainConfig(batch_size=32, epochs=1, seed=24))
    rows, y = next(stgcn._minibatches(ds.series("train"), ds.part("train")[1][:, 0], p,
                                      32, np.random.default_rng(25)))
    assert rows.shape == (2, 16 + p - 1, s, k), rows.shape
    opt = Adam(list(model.parameters().values()), lr=1e-3)
    faults = []
    for _ in range(20):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with gt.Tape():
            loss = l2_loss(model.forward_rows(rows, cheb), y)
        gt.backward(loss)
        opt.step()
        opt.zero_grad()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return faults


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="glibc's mallopt thresholds only")
def test_training_steps_do_not_fault_pages():
    # train() keeps freed pages in the process, so the next step reuses them
    # instead of faulting fresh ones in (about 680 per block step at this
    # shape with glibc's defaults). It runs in a fresh interpreter because glibc
    # raises its own thresholds after large frees: in a process that has
    # already trained and rolled out, the steps may not fault even without it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")) if p)
    code = "import test_stgcn; print(*test_stgcn._faults_per_step_after_train())"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    faults = [int(f) for f in result.stdout.split()]
    assert len(faults) == 20 and max(faults) < 100, faults


def test_train_config_errors():
    ds = _smooth_dataset()
    cheb, _ = operators(4, seed=15)
    config = tiny_config(n_nodes=4, in_channels=2)
    model = StgcnModel(config, seed=20)
    with pytest.raises(ConfigError, match="epochs"):
        train(model, ds, cheb, TrainConfig(epochs=0))
    tiny = _smooth_dataset(t_total=10)
    tiny.n_val = 0  # force an empty validation split
    with pytest.raises(ValidationError, match="validation split is empty"):
        train(model, tiny, cheb, TrainConfig(epochs=1))
    lo, hi = ds.bounds("val")
    ds.targets[lo:hi] = np.nan  # every validation loss is NaN: no best epoch
    with pytest.raises(TrainingError, match="finite validation loss"):
        train(model, ds, cheb, TrainConfig(epochs=2))


def _reference_rollout(model, windows, op, horizon, predicted_channel):
    """The rollout as a loop of full forwards on the shifted window."""
    block, out = windows.copy(), []
    for _ in range(horizon):
        pred = model.forward(block, op).data[:, :, 0]
        out.append(pred)
        nxt = block[:, -1].copy()
        nxt[:, :, predicted_channel] = pred
        block = np.concatenate([block[:, 1:], nxt[:, np.newaxis]], axis=1)
    return np.stack(out, axis=1)


# Streaming matmuls run over fewer rows than a full forward's, so BLAS may
# sum in another order; float64 rounding stays far inside this bound.
ROLLOUT_RTOL = 1e-12


def _assert_rollout_close(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= ROLLOUT_RTOL * np.abs(ref).max()


@pytest.mark.parametrize("time_kernel", [1, 2, 3])
@pytest.mark.parametrize("mode,order", [("chebyshev", 1), ("chebyshev", 2),
                                        ("chebyshev", 3), ("first_order", 1)])
def test_streaming_rollout_matches_full_forward_loop(mode, order, time_kernel):
    # history 9 leaves a head of width 9, 5 and 1 for kernels 1, 2 and 3.
    config = ModelConfig(n_nodes=4, in_channels=3, history_steps=9,
                         channels=(4, 3, 4), time_kernel=time_kernel,
                         graph_kernel=order, graph_mode=mode, dropout=0.3)
    model = StgcnModel(config, seed=40)
    cheb, ren = operators(4, seed=41)
    op = cheb if mode == "chebyshev" else ren
    rng = np.random.default_rng(42)
    for n in (1, 300):                       # 300 crosses the batch split of 256
        windows = rng.normal(size=(n, 9, 4, 3))
        ref = _reference_rollout(model, windows, op, 4, predicted_channel=1)
        for horizon in range(1, 5):
            got = predict_batch(model, windows, op, horizon, predicted_channel=1)
            # The first step is one full forward, bit for bit.
            assert np.array_equal(got[:, 0], ref[:, 0])
            _assert_rollout_close(got, ref[:, :horizon])


@pytest.mark.parametrize("time_kernel", [1, 2, 3])
@pytest.mark.parametrize("mode,order", [("chebyshev", 1), ("chebyshev", 3),
                                        ("first_order", 1)])
def test_series_rollout_matches_predict_batch(mode, order, time_kernel):
    config = ModelConfig(n_nodes=4, in_channels=3, history_steps=9,
                         channels=(4, 3, 4), time_kernel=time_kernel,
                         graph_kernel=order, graph_mode=mode, dropout=0.3)
    model = StgcnModel(config, seed=44)
    cheb, ren = operators(4, seed=45)
    op = cheb if mode == "chebyshev" else ren
    rng = np.random.default_rng(46)
    for t_rows in (9, 10, 308):              # 1, 2 and 300 windows
        rows = rng.normal(size=(t_rows, 4, 3))
        windows = np.stack([rows[j:j + 9] for j in range(t_rows - 8)])
        for horizon in range(1, 5):
            got = predict_series(model, rows, op, horizon, predicted_channel=2)
            _assert_rollout_close(got, predict_batch(model, windows, op, horizon, 2))


def test_series_rollout_over_a_split():
    values = np.random.default_rng(47).normal(size=(120, 4, 2))
    ds = make_windows(values, [f"s{i}" for i in range(4)], ["a", "b"], 6, 3, "a",
                      split=(0.3, 0.3, 0.4))
    model = StgcnModel(tiny_config(n_nodes=4, in_channels=2), seed=48)
    cheb, _ = operators(4, seed=49)
    for name in ("val", "test"):
        got = predict_series(model, ds.series(name), cheb, 3, 0)
        _assert_rollout_close(got, predict_batch(model, ds.part(name)[0], cheb, 3, 0))


def test_predict_batch_at_zero_windows_and_the_chunk_edges():
    # Zero windows are one empty forecast, still checked. Around the block
    # size C, both entries keep the bits of each other and, at the first step,
    # of one uncut rollout on the same rows: a window lost or repeated at a
    # block edge would shift every later entry.
    model = StgcnModel(tiny_config(), seed=52)
    cheb, _ = operators(3, seed=53)
    none = np.zeros((0, 6, 3, 2))
    assert predict_batch(model, none, cheb, 3, 1).shape == (0, 3, 3)
    with pytest.raises(ValidationError, match="horizon"):
        predict_batch(model, none, cheb, 0, 1)
    c = stgcn._PREDICT_BATCH
    rows = np.random.default_rng(54).normal(size=(2 * c + 6, 3, 2))
    for n in (c - 1, c, c + 1, 2 * c + 1):
        windows = np.stack([rows[j:j + 6] for j in range(n)])
        series = predict_series(model, rows[:n + 5], cheb, 3, 1)
        assert np.array_equal(predict_batch(model, windows, cheb, 3, 1), series)
        uncut = stgcn._rollout(model, rows[np.newaxis, :n + 5], cheb, 3, 1)
        assert np.array_equal(series[:, 0], uncut[:, 0])
        _assert_rollout_close(series, uncut)


def test_forecast_memory_does_not_grow_with_the_series():
    # Ten times the windows: the working set beside the output stays put,
    # because every rollout call sees at most _PREDICT_BATCH window positions.
    s, p = 13, 12
    model = StgcnModel(ModelConfig(n_nodes=s, in_channels=7, history_steps=p,
                                   channels=(16, 8, 16)), seed=55)
    cheb, _ = operators(s, seed=56)
    rng = np.random.default_rng(57)
    for entry in (predict_series, predict_batch):
        held = []
        for n in (400, 4000):
            rows = rng.normal(size=(n + p - 1, s, 7))
            windows = np.moveaxis(np.lib.stride_tricks.sliding_window_view(rows, p, axis=0),
                                  -1, 1)                 # a view: no (N, P, S, K) copy
            tracemalloc.start()
            try:
                out = entry(model, rows if entry is predict_series else windows, cheb, 3, 6)
                held.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
            finally:
                tracemalloc.stop()
            assert out.shape == (n, 3, s)
        assert max(held) <= 1.5 * min(held), (entry.__name__, held)


def test_predict_series_validation():
    model = StgcnModel(tiny_config(), seed=50)
    cheb, _ = operators(3, seed=51)
    for shape in ((), (6,), (5, 3, 2), (6, 4, 2), (6, 3, 1), (1, 6, 3, 2)):
        with pytest.raises(ShapeError, match="expected rows"):
            predict_series(model, np.zeros(shape), cheb, 1, 0)
    rows = np.zeros((8, 3, 2))
    rows[7, 1, 1] = np.nan
    with pytest.raises(ValidationError, match="missing"):
        predict_series(model, rows, cheb, 1, 0)
    with pytest.raises(ValidationError, match="horizon"):
        predict_series(model, rows[:7], cheb, 0, 0)
    assert predict_series(model, rows[:7], cheb, 2, 1).shape == (2, 2, 3)


def test_rollout_holds_exogenous_and_feeds_back():
    # Step 2 is the one-step model on the window shifted by one column whose
    # new column repeats the last exogenous value and carries step 1's
    # forecast in the predicted channel. Getting either part of that column
    # wrong moves the forecast far outside the bound.
    model = StgcnModel(tiny_config(), seed=43)
    cheb, _ = operators(3, seed=21)
    window = np.random.default_rng(22).normal(size=(6, 3, 2))
    out = predict(model, window, cheb, horizon=2, predicted_channel=0)

    def second_step(new_column):
        shifted = np.concatenate([window[1:], new_column[np.newaxis]])
        return model.forward(shifted[np.newaxis], cheb).data[0, :, 0]

    held = window[-1].copy()
    held[:, 0] = out[0]
    _assert_rollout_close(out[1], second_step(held))
    not_fed_back = window[-1]
    not_held = held.copy()
    not_held[:, 1] = 0.0
    for wrong in (not_fed_back, not_held):
        assert np.abs(out[1] - second_step(wrong)).max() > 1e-6


def test_predict_validation():
    model = StgcnModel(tiny_config(), seed=23)
    cheb, _ = operators(3, seed=24)
    window = np.zeros((6, 3, 2))
    with pytest.raises(ValidationError, match="horizon"):
        predict(model, window, cheb, horizon=0, predicted_channel=0)
    with pytest.raises(ValidationError, match="channel"):
        predict(model, window, cheb, horizon=1, predicted_channel=5)
    bad = window.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="missing"):
        predict(model, bad, cheb, horizon=1, predicted_channel=0)
    batch = predict_batch(model, np.zeros((3, 6, 3, 2)), cheb, 2, 0)
    assert batch.shape == (3, 2, 3)


def test_forecasts_record_nothing_on_an_active_tape():
    # A forecast made while a caller builds a training step must leave that
    # step's tape as it was: records there would keep the forecast's
    # activations alive until the tape is walked.
    model = StgcnModel(ModelConfig(n_nodes=5, in_channels=2, history_steps=12,
                                   channels=(4, 3, 4), dropout=0.3), seed=60)
    cheb, _ = operators(5, seed=61)
    rows = np.random.default_rng(62).normal(size=(15, 5, 2))
    windows = np.stack([rows[j:j + 12] for j in range(4)])
    with gt.Tape() as tape:
        predict(model, rows[:12], cheb, 3, 0)
        assert len(tape) == 0
        predict_batch(model, windows, cheb, 3, 1)
        assert len(tape) == 0
        predict_series(model, rows, cheb, 2, 0)
        assert len(tape) == 0


def _run_record(model_config):
    """``save_model``'s arguments after the model, for a run of ``model_config``."""
    targets = [f"t{k}" for k in range(model_config.in_channels)]
    norm = NormalizationParams(targets, np.linspace(-1.0, 0.0, len(targets)),
                               np.linspace(1.0, 2.5, len(targets)))
    return (PipelineConfig(predicted_target=targets[-1], model=model_config),
            [f"s{i}" for i in range(model_config.n_nodes)], norm, TrainResult([], 4, 0.25))


def test_model_checkpoint_roundtrip(tmp_path):
    model = StgcnModel(tiny_config(), seed=25)
    cheb, _ = operators(3, seed=26)
    x = np.random.default_rng(27).normal(size=(2, 6, 3, 2))
    before = model.forward(x, cheb).data
    path = tmp_path / "model.ckpt"
    config, station_ids, norm, result = _run_record(tiny_config())
    save_model(path, model, config, station_ids, norm, result)
    loaded, meta = load_model(path)
    assert meta["config"] == parse_config_text(config_text(config))
    assert meta["config"].model.channels == (3, 2, 3)
    assert (meta["station_ids"], meta["target_ids"]) == (station_ids, norm.target_ids)
    for key in ("mins", "maxs"):
        assert meta["normalization"][key].tobytes() == getattr(norm, key).tobytes()
    assert (meta["best_epoch"], meta["best_val_loss"]) == (4, 0.25)
    assert loaded.config == tiny_config()
    after = loaded.forward(x, cheb).data
    assert np.array_equal(before, after)
    for name, p in model.parameters().items():
        assert loaded.parameters()[name].data.tobytes() == p.data.tobytes()


CHECKPOINT_NAMES = [
    "block1.temporal_in.kernel", "block1.temporal_in.bias_lin",
    "block1.temporal_in.bias_gate", "block1.graph.kernel",
    "block1.temporal_out.kernel", "block1.temporal_out.bias_lin",
    "block1.temporal_out.bias_gate",
    "block2.temporal_in.kernel", "block2.temporal_in.bias_lin",
    "block2.temporal_in.bias_gate", "block2.graph.kernel",
    "block2.temporal_out.kernel", "block2.temporal_out.bias_lin",
    "block2.temporal_out.bias_gate",
    "head.temporal.kernel", "head.temporal.bias_lin", "head.temporal.bias_gate",
    "head.fc.weight", "head.fc.bias",
]


@pytest.mark.parametrize("mode, order", [("chebyshev", 2), ("first_order", 1)])
def test_parameters_are_the_checkpoint_names_in_order(tmp_path, mode, order):
    """``np.savez`` writes model.ckpt's entries in ``parameters()`` order."""
    model = StgcnModel(tiny_config(graph_mode=mode, graph_kernel=order), seed=29)
    params = model.parameters()
    assert list(params) == CHECKPOINT_NAMES
    layers = [model.block1.temporal_in, model.block1.graph, model.block1.temporal_out,
              model.block2.temporal_in, model.block2.graph, model.block2.temporal_out,
              model.head_temporal]
    tensors = [t for layer in layers
               for t in ([layer.kernel] if isinstance(layer, GraphConv)
                         else [layer.kernel, layer.bias_lin, layer.bias_gate])]
    assert all(a is b for a, b in zip(params.values(),
                                      tensors + [model.fc_weight, model.fc_bias], strict=True))
    path = tmp_path / "model.ckpt"
    save_model(path, model, *_run_record(tiny_config(graph_mode=mode, graph_kernel=order)))
    with np.load(path) as archive:
        assert archive.files == CHECKPOINT_NAMES + ["__meta__"]


def test_load_model_rejects_mismatched_blocks(tmp_path):
    from geofuse.checkpoint import load_checkpoint, save_checkpoint
    path = tmp_path / "broken.ckpt"
    save_model(path, StgcnModel(tiny_config(), seed=28), *_run_record(tiny_config()))
    params, meta = load_checkpoint(path)
    params.pop("head.fc.bias")
    save_checkpoint(path, params, meta)
    with pytest.raises(ValidationError, match="parameter names"):
        load_model(path)
