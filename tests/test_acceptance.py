"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test prints a short summary line (visible with -s or on failure); the
pytest -v report gives the per-criterion pass/fail verdict.
"""

import math
import time

import numpy as np
import pytest

import geofuse.tensor as gt
from geofuse.cli import main
from geofuse.errors import ConfigError
from geofuse.fusion import (
    RbfConfig,
    build_interpolant,
    evaluate_interpolant,
    fuse_panel,
    fuse_time_step,
    pairwise_distances,
)
from geofuse.graph import build_adjacency, normalized_laplacian, scaled_laplacian
from geofuse.ingest import apply_normalization, fit_normalization, make_windows
from geofuse.metrics import consistency_report, kde_l1_distance, mae, mape, r2, rmse
from geofuse.stgcn import (
    GraphConv,
    ModelConfig,
    StgcnModel,
    TrainConfig,
    l2_loss,
    predict_batch,
    train,
)
from geofuse.synth import SynthConfig, generate
from geofuse.tensor import Tensor


def test_c01_interpolant_reproduces_sources_exactly():
    """200 random source sets, no ridge: F(s_i) = B_i within 1e-8, under 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 21))
        while True:
            points = rng.uniform(0.0, 10.0, size=(n, 2))
            d = pairwise_distances(points)
            if d[np.triu_indices(n, 1)].min() > 0.1:
                break
        values = rng.normal(0.0, 5.0, size=n)
        # Random shape parameters from locally supported to fairly flat. The
        # flattest kernels (width comparable to the domain) are exponentially
        # ill-conditioned and float64 cannot reproduce sources to 1e-8 there;
        # exactness is a structural property, not a conditioning stress test.
        c = 10.0 ** rng.uniform(np.log10(0.05), np.log10(2.0))
        interp = build_interpolant(points, values, RbfConfig(shape_c=c, ridge=0.0))
        err = np.max(np.abs(evaluate_interpolant(interp, points) - values))
        worst = max(worst, float(err))
        assert err <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"exactness sweep took {elapsed:.2f}s"
    print(f"criterion 1: worst source error {worst:.2e} in {elapsed:.2f}s")


def test_c02_fusion_matrix_shapes():
    """13-station/3-source/7-target panel fuses to T x 13 x 7; S x 4 likewise."""
    scenario = generate(SynthConfig(seed=20))
    panel = scenario.panel
    assert len(panel.stations) == 13
    assert len({st.source_id for st in panel.stations}) == 3
    assert len(panel.target_ids) == 7
    step = fuse_time_step(panel.values[0], panel.stations, panel.target_ids)
    assert step.shape == (13, 7)
    assert np.isfinite(step).all()
    fused = fuse_panel(panel)
    assert fused.values.shape == (240, 13, 7)
    assert np.isfinite(fused.values).all()

    other = generate(SynthConfig(seed=21, stations_per_source=(4, 3, 2),
                                 targets_per_source=(1, 2, 1), hours=60))
    fused4 = fuse_panel(other.panel)
    assert fused4.values.shape == (60, 9, 4)
    print("criterion 2: per-step (13, 7), panels (240, 13, 7) and (60, 9, 4)")


def test_c03_adjacency_contract():
    """Symmetric, zero diagonal, w(sigma) = 1/e within 1e-12, all pairs wired."""
    rng = np.random.default_rng(31)
    coords = rng.uniform(0.0, 1.0, size=(10, 2))
    adj = build_adjacency(pairwise_distances(coords))
    w = adj.values
    assert np.array_equal(w, w.T)
    assert np.all(np.diag(w) == 0.0)
    n_edges = int(np.count_nonzero(np.triu(w, 1) > 0.0))
    assert n_edges == 10 * 9 // 2

    d = 0.37
    two = build_adjacency(np.array([[0.0, d], [d, 0.0]]), sigma=d)
    assert abs(two.values[0, 1] - math.exp(-1.0)) <= 1e-12
    print(f"criterion 3: {n_edges} edges, w(sigma) = {two.values[0, 1]:.17g}")


def test_c04_operator_spectra():
    """50 random graphs: Laplacian eigs in [0, 2], scaled radius at most 1."""
    rng = np.random.default_rng(41)
    lo, hi, radius_max = np.inf, -np.inf, 0.0
    for _ in range(50):
        s = int(rng.integers(2, 13))
        while True:
            d = pairwise_distances(rng.uniform(0, 1, size=(s, 2)))
            if d[np.triu_indices(s, 1)].min() > 0.05:
                break
        adj = build_adjacency(d)
        eigs = np.linalg.eigvalsh(normalized_laplacian(adj))
        lo, hi = min(lo, eigs.min()), max(hi, eigs.max())
        assert eigs.min() >= -1e-6 and eigs.max() <= 2.0 + 1e-6
        radius = float(np.abs(np.linalg.eigvalsh(scaled_laplacian(adj).matrix)).max())
        radius_max = max(radius_max, radius)
        assert radius <= 1.0 + 1e-6
    print(f"criterion 4: Laplacian eigs in [{lo:.2e}, {hi:.6f}], "
          f"max scaled radius {radius_max:.6f}")


def _fd_check(inputs, forward, h=1e-5, rtol=1e-4):
    """Compare tape gradients of sum(out * proj) against central differences."""
    with gt.Tape():
        out = forward()
        proj = np.random.default_rng(50).normal(size=out.shape)
        loss = gt.reduce_sum(gt.multiply_elementwise(out, Tensor(proj)))
    gt.backward(loss)

    def loss_value():
        return float(np.sum(forward().data * proj))

    for x in inputs:
        flat, gflat = x.data.ravel(), x.grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value()
            flat[i] = orig - h
            down = loss_value()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            assert abs(gflat[i] - numeric) <= rtol * max(1.0, abs(numeric)), (
                f"grad mismatch at {i}: {gflat[i]} vs {numeric}")


def test_c05_gradients_match_finite_differences():
    """Every primitive and a tiny 3-node model agree with central FD at 1e-4."""
    start = time.perf_counter()
    rng = np.random.default_rng(51)

    def t(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    a23, b3 = t(2, 3), t(3)
    c23, d13 = t(2, 3), t(1, 3)
    m2, m3 = t(2, 3), t(3, 2)
    mb = t(2, 2, 3)
    gm = rng.normal(size=(3, 3))
    cheb3 = np.stack([np.eye(3), gm, 2.0 * gm @ gm - np.eye(3)])
    gx, gk3, gk1 = t(2, 3, 2, 2), t(3, 2, 2), t(1, 2, 2)
    rl = Tensor(np.where(np.abs(z := rng.normal(size=(2, 3))) < 0.3,
                         z + 0.6, z), requires_grad=True)
    sw = t(2, 3, 2)
    rs = t(2, 3, 2)
    # The gated conv at an even and an odd kernel width, all four inputs.
    qx2, qk2, ql2, qg2 = t(2, 2, 4, 2), t(2, 2, 4), t(2), t(2)
    qx3, qk3, ql3, qg3 = t(2, 5, 2), t(3, 2, 6), t(3), t(3)
    dx = t(2, 4)

    cases = [
        ("add", [a23, b3], lambda: gt.add(a23, b3)),
        ("sub", [c23, d13], lambda: gt.sub(c23, d13)),
        ("multiply", [c23, d13], lambda: gt.multiply_elementwise(c23, d13)),
        ("matmul", [m2, m3], lambda: gt.matmul(m2, m3)),
        ("matmul_batched", [mb, m3], lambda: gt.matmul(mb, m3)),
        ("graph_conv_chebyshev", [gx, gk3], lambda: gt.graph_conv(gx, cheb3, gk3)),
        ("graph_conv_first_order", [gx, gk1],
         lambda: gt.graph_conv(gx, gm[np.newaxis], gk1)),
        ("relu", [rl], lambda: gt.relu(rl)),
        ("reshape", [a23], lambda: gt.reshape(a23, (3, 2))),
        ("swap_axes", [sw], lambda: gt.swap_axes(sw, 0, 2)),
        ("reduce_sum", [rs], lambda: gt.reduce_sum(rs, axis=1, keepdims=True)),
        ("gated_conv1d_time_f2", [qx2, qk2, ql2, qg2],
         lambda: gt.gated_conv1d_time(qx2, qk2, ql2, qg2)),
        ("gated_conv1d_time_f3", [qx3, qk3, ql3, qg3],
         lambda: gt.gated_conv1d_time(qx3, qk3, ql3, qg3)),
        ("dropout", [dx], lambda: gt.dropout(dx, 0.3, True,
                                             np.random.default_rng(55))),
    ]
    for name, inputs, forward in cases:
        for x in inputs:
            x.grad = None
        _fd_check(inputs, forward)

    # The assembled model, every parameter.
    config = ModelConfig(n_nodes=3, in_channels=2, history_steps=6,
                         channels=(3, 2, 3), time_kernel=2, graph_kernel=2,
                         dropout=0.0)
    model = StgcnModel(config, seed=52)
    op = scaled_laplacian(build_adjacency(
        pairwise_distances(np.random.default_rng(53).uniform(0, 1, (3, 2)))))
    x = np.random.default_rng(54).normal(size=(2, 6, 3, 2))
    y = np.random.default_rng(56).normal(size=(2, 3, 1))

    with gt.Tape():
        loss = l2_loss(model.forward(x, op), y)
    gt.backward(loss)
    h = 1e-5
    for name, p in model.parameters().items():
        flat, gflat = p.data.ravel(), p.grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = l2_loss(model.forward(x, op), y).item()
            flat[i] = orig - h
            down = l2_loss(model.forward(x, op), y).item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            assert abs(gflat[i] - numeric) <= 1e-4 * max(1.0, abs(numeric)), (
                f"{name}[{i}]: {gflat[i]} vs {numeric}")

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"
    print(f"criterion 5: {len(cases)} primitives + full model in {elapsed:.1f}s")


def test_c06_temporal_shape_algebra():
    """Width-3 kernels eat 12 -> 8 -> 4 -> 1 steps; shorter history is rejected."""
    config = ModelConfig(n_nodes=5, in_channels=4, history_steps=12,
                         channels=(8, 4, 8), time_kernel=3, graph_kernel=3,
                         dropout=0.0)
    model = StgcnModel(config, seed=60)
    op = scaled_laplacian(build_adjacency(
        pairwise_distances(np.random.default_rng(61).uniform(0, 1, (5, 2)))))
    x = Tensor(np.random.default_rng(62).normal(size=(2, 5, 12, 4)))  # (B,S,T,C)
    basis = GraphConv.basis(op.matrix, config.graph_mode, config.graph_kernel)
    after1 = model.block1.forward(x, basis)
    assert after1.shape[2] == 8
    after2 = model.block2.forward(after1, basis)
    assert after2.shape[2] == 4
    assert config.head_time_steps == 4
    out = model.forward(np.swapaxes(x.data, 1, 2), op)
    assert out.shape == (2, 5, 1)

    with pytest.raises(ConfigError):
        StgcnModel(ModelConfig(n_nodes=5, in_channels=4, history_steps=8,
                               channels=(8, 4, 8), time_kernel=3,
                               graph_kernel=3), seed=63)
    print("criterion 6: time lengths 12 -> 8 -> 4 -> 1; 8-step history rejected")


def _forecasting_setup(synth_config, p, q):
    scenario = generate(synth_config)
    fused = fuse_panel(scenario.panel)
    n_windows = fused.values.shape[0] - p - q + 1
    n_train = round(0.6 * n_windows)
    train_rows = min(fused.values.shape[0], n_train - 1 + p + q)
    norm = fit_normalization(fused.values, fused.target_ids, train_rows)
    normed = apply_normalization(fused.values, norm)
    coords = np.array([[st.x, st.y] for st in scenario.stations])
    op = scaled_laplacian(build_adjacency(pairwise_distances(coords)))
    k = fused.target_ids.index(synth_config.coupled_target)
    return fused, normed, op, k


def test_c07_learning_beats_persistence():
    """15 stations, 2000 hours, 3 channels: trained net beats hold-last by 20%."""
    start = time.perf_counter()
    synth_config = SynthConfig(seed=701, stations_per_source=(5, 5, 5),
                               targets_per_source=(1, 1, 1), hours=2000,
                               noise=0.01, gap_rate=0.0, coupling=0.8)
    p, q = 12, 3
    fused, normed, op, k = _forecasting_setup(synth_config, p, q)
    ds = make_windows(normed, fused.station_ids, fused.target_ids, p, q,
                      synth_config.coupled_target)

    model = StgcnModel(ModelConfig(n_nodes=15, in_channels=3, history_steps=p,
                                   channels=(16, 8, 16), time_kernel=3,
                                   graph_kernel=3, dropout=0.0), seed=702)
    result = train(model, ds, op, TrainConfig(lr=0.003, batch_size=32,
                                              epochs=100, seed=703))

    loss_ratio = result.history[49].train_loss / result.history[0].train_loss
    assert loss_ratio < 0.5, f"epoch-50/epoch-1 loss ratio {loss_ratio:.3f}"

    test_x, test_y = ds.part("test")
    truth = test_y[..., 0]                                   # (N, Q, S)
    pred = predict_batch(model, test_x, op, q, k)
    model_mae = float(np.mean(np.abs(pred - truth)))
    persist = np.broadcast_to(test_x[:, -1, :, k][:, None, :], truth.shape)
    persistence_mae = float(np.mean(np.abs(persist - truth)))
    assert model_mae <= 0.8 * persistence_mae, (
        f"model MAE {model_mae:.5f} vs persistence {persistence_mae:.5f}")

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"training run took {elapsed:.0f}s"
    print(f"criterion 7: MAE {model_mae:.5f} vs persistence {persistence_mae:.5f} "
          f"({(1 - model_mae / persistence_mae) * 100:+.1f}%), "
          f"loss ratio {loss_ratio:.4f}, {elapsed:.0f}s")


def test_c08_fused_channels_beat_single_channel():
    """Median test MAE over 3 seeds: all fused channels <= target channel alone."""
    synth_config = SynthConfig(seed=801, stations_per_source=(5, 5, 5),
                               targets_per_source=(1, 1, 1), hours=900,
                               noise=0.01, gap_rate=0.0, coupling=0.8,
                               ar_strength=0.3)
    p, q = 12, 3
    fused, normed, op, k = _forecasting_setup(synth_config, p, q)
    target = synth_config.coupled_target
    ds_full = make_windows(normed, fused.station_ids, fused.target_ids, p, q,
                           target)
    ds_single = make_windows(normed[:, :, [k]], fused.station_ids, [target],
                             p, q, target)

    def fit_and_score(ds, in_channels, k_pred, seed):
        model = StgcnModel(
            ModelConfig(n_nodes=15, in_channels=in_channels, history_steps=p,
                        channels=(16, 8, 16), time_kernel=3, graph_kernel=3,
                        dropout=0.0), seed=seed)
        train(model, ds, op, TrainConfig(lr=0.003, batch_size=32, epochs=60,
                                         seed=seed + 1000))
        test_x, test_y = ds.part("test")
        pred = predict_batch(model, test_x, op, q, k_pred)
        return float(np.mean(np.abs(pred - test_y[..., 0])))

    full = [fit_and_score(ds_full, 3, k, seed) for seed in (0, 1, 2)]
    single = [fit_and_score(ds_single, 1, 0, seed) for seed in (0, 1, 2)]
    med_full, med_single = float(np.median(full)), float(np.median(single))
    assert med_full <= med_single, (
        f"fused median {med_full:.5f} vs single-channel median {med_single:.5f}")
    print(f"criterion 8: fused {med_full:.5f} <= single {med_single:.5f} "
          f"(per-seed fused {np.round(full, 5)}, single {np.round(single, 5)})")


def test_c09_metrics_match_brute_force():
    """1000 random vectors: mae/rmse/mape at 1e-12 relative, r2 vs oracle."""
    rng = np.random.default_rng(91)
    rel = 1e-12

    def close(ours, ref):
        return abs(ours - ref) <= rel * max(1.0, abs(ref))

    checked_mape = 0
    for i in range(1000):
        n = int(rng.integers(1, 51))
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        t = rng.normal(0.0, scale, size=n)
        p = rng.normal(0.0, scale, size=n)
        if i % 5 == 0 and n >= 3:
            t[:2] = 0.0  # force mape exclusions

        abs_sum = sq_sum = 0.0
        for tv, pv in zip(t, p):
            abs_sum += abs(pv - tv)
            sq_sum += (pv - tv) ** 2
        assert close(mae(t, p), abs_sum / n)
        assert close(rmse(t, p), (sq_sum / n) ** 0.5)

        terms = [abs((pv - tv) / tv) for tv, pv in zip(t, p) if abs(tv) > 1e-8]
        if terms:
            result = mape(t, p)
            assert close(result.value, 100.0 * sum(terms) / len(terms))
            assert result.excluded == n - len(terms)
            checked_mape += 1

        t_mean = sum(t) / n
        ss_tot = sum((tv - t_mean) ** 2 for tv in t)
        if ss_tot > 0.0:
            ss_res = sum((tv - pv) ** 2 for tv, pv in zip(t, p))
            assert close(r2(t, p), 1.0 - ss_res / ss_tot)
    assert checked_mape > 900
    print(f"criterion 9: 1000 vectors matched at {rel:g} relative")


def test_c10_fusion_consistency_on_smooth_field():
    """Noiseless smooth field: variance ratio in [0.5, 1.5], KDE L1 under 0.3."""
    scenario = generate(SynthConfig(seed=4, stations_per_source=(9, 8, 8),
                                    placement="grid", noise=0.0, gap_rate=0.0,
                                    hours=240))
    fused = fuse_panel(scenario.panel)
    report = consistency_report(scenario.panel.values, fused.values,
                                fused.target_ids)
    ratios, l1s = [], []
    for tid, kd in report.items():
        ratio = kd.ratio
        l1 = kde_l1_distance(kd.grid, kd.raw_density, kd.fused_density)
        ratios.append(ratio)
        l1s.append(l1)
        assert 0.5 <= ratio <= 1.5, f"{tid}: variance ratio {ratio:.3f}"
        assert l1 < 0.3, f"{tid}: KDE L1 distance {l1:.3f}"
    print(f"criterion 10: ratios [{min(ratios):.3f}, {max(ratios):.3f}], "
          f"KDE L1 max {max(l1s):.3f} over {len(ratios)} targets")


def test_c11_pipeline_is_deterministic(tmp_path):
    """run-all twice with one seed: metrics.csv is byte-identical."""
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--stations", "3,3",
                 "--targets", "1,1", "--hours", "100", "--seed", "11",
                 "--noise", "0.01"]) == 0
    config = tmp_path / "run.cfg"
    config.write_text(
        "predicted_target = t02\nhistory_steps = 6\nhorizon_steps = 2\n"
        "channels = 6, 3, 6\ntime_kernel = 2\ngraph_kernel = 2\n"
        "dropout = 0.1\nlr = 0.01\nbatch_size = 8\nepochs = 3\nseed = 3\n")
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["run-all", "--stations", str(data / "stations.csv"),
                     "--observations", str(data / "observations.csv"),
                     "--config", str(config), "--out-dir", str(out)]) == 0
        outputs.append((out / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]
    print(f"criterion 11: metrics.csv identical across runs "
          f"({len(outputs[0])} bytes)")
