"""Error metrics, KDE diagnostics, and consistency reports."""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import trapezoid

from geofuse.errors import ValidationError
from geofuse.metrics import (
    KDE_BIN_FRACTION,
    KDE_GRID_SIZE,
    consistency_report,
    kde,
    kde_l1_distance,
    mae,
    mape,
    r2,
    rmse,
    silverman_bandwidth,
)

# Independently derived constants:
#   sqrt((9 + 16) / 2) for residuals [3, 4]
RMSE_34 = 3.5355339059327378
#   Gaussian kernel height at zero, 1/sqrt(2*pi)
GAUSS_PEAK = 0.3989422804014327


def brute_force_reference(truth, pred):
    n = len(truth)
    abs_sum = 0.0
    sq_sum = 0.0
    for t, p in zip(truth, pred):
        abs_sum += abs(p - t)
        sq_sum += (p - t) ** 2
    return abs_sum / n, (sq_sum / n) ** 0.5


def test_mae_rmse_against_loops():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        truth = rng.normal(size=n)
        pred = rng.normal(size=n)
        ref_mae, ref_rmse = brute_force_reference(truth, pred)
        assert mae(truth, pred) == pytest.approx(ref_mae, abs=1e-12)
        assert rmse(truth, pred) == pytest.approx(ref_rmse, abs=1e-12)


def test_rmse_three_four():
    assert rmse(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(
        RMSE_34, abs=1e-12)


def test_metrics_flatten_and_validate():
    truth = np.arange(6.0).reshape(2, 3)
    pred = truth + 1.0
    assert mae(truth, pred) == pytest.approx(1.0)
    with pytest.raises(ValidationError, match="equal-length"):
        mae(np.zeros(3), np.zeros(4))
    with pytest.raises(ValidationError, match="finite"):
        rmse(np.array([1.0, np.nan]), np.zeros(2))
    with pytest.raises(ValidationError, match="non-empty"):
        mae(np.array([]), np.array([]))


def test_mape_excludes_near_zero_truth():
    truth = np.array([0.0, 1.0, 2.0])
    pred = np.array([5.0, 1.5, 1.0])
    result = mape(truth, pred)
    assert result.excluded == 1
    assert result.value == pytest.approx(100.0 * (0.5 / 1.0 + 1.0 / 2.0) / 2.0)
    tight = mape(np.array([1e-9, 3.0]), np.array([0.0, 6.0]))
    assert tight.excluded == 1
    assert tight.value == pytest.approx(100.0)
    with pytest.raises(ValidationError, match="undefined"):
        mape(np.zeros(4), np.ones(4))


def test_r2_values():
    truth = np.array([1.0, 2.0, 3.0])
    # Residual sum 4 equals twice the centered sum 2 -> r2 = -1.
    assert r2(truth, np.array([1.0, 2.0, 5.0])) == pytest.approx(-1.0, abs=1e-15)
    assert r2(truth, truth) == pytest.approx(1.0)
    mean_pred = np.full(3, 2.0)
    assert r2(truth, mean_pred) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValidationError, match="constant"):
        r2(np.full(3, 7.0), truth)


def test_r2_against_direct_formula():
    rng = np.random.default_rng(1)
    for _ in range(20):
        truth = rng.normal(size=30)
        pred = truth + rng.normal(0, 0.5, size=30)
        ss_res = float(((pred - truth) ** 2).sum())
        ss_tot = float(((truth - truth.mean()) ** 2).sum())
        assert r2(truth, pred) == pytest.approx(1.0 - ss_res / ss_tot, abs=1e-12)


def test_silverman_bandwidth_formula():
    rng = np.random.default_rng(2)
    values = rng.normal(size=200)
    expected = 1.06 * np.std(values, ddof=1) * 200 ** (-0.2)
    assert silverman_bandwidth(values) == pytest.approx(expected, rel=1e-12)
    # Constant data collapses the rule to zero; kde then demands an explicit one.
    assert silverman_bandwidth(np.full(5, 3.0)) == 0.0
    with pytest.raises(ValidationError, match="2 values"):
        silverman_bandwidth(np.array([1.0]))


def test_kde_peak_and_mass():
    grid_in = np.linspace(-8.0, 8.0, 2001)
    grid, density = kde(np.zeros(4), grid_in, bandwidth=1.0)
    assert np.array_equal(grid, grid_in)
    assert density[1000] == pytest.approx(GAUSS_PEAK, abs=1e-12)
    assert trapezoid(density, grid) == pytest.approx(1.0, abs=1e-6)
    assert density[0] < 1e-8
    with pytest.raises(ValidationError, match="explicit bandwidth"):
        kde(np.zeros(4))


def test_kde_default_grid_covers_data():
    rng = np.random.default_rng(3)
    samples = rng.normal(size=300)
    grid, density = kde(samples)
    assert grid.shape == density.shape == (KDE_GRID_SIZE,)
    assert grid[0] < samples.min() and grid[-1] > samples.max()
    assert trapezoid(density, grid) == pytest.approx(1.0, abs=1e-3)


def test_kde_recovers_normal_density():
    rng = np.random.default_rng(4)
    samples = rng.normal(size=4000)
    grid = np.linspace(-4.0, 4.0, 801)
    _, density = kde(samples, grid)
    true_density = np.exp(-grid ** 2 / 2.0) / np.sqrt(2.0 * np.pi)
    assert np.max(np.abs(density - true_density)) < 0.05


def _exact_kde(v, grid, h):
    """The unbinned Gaussian sum over every sample, one grid point at a time."""
    sums = [np.exp(-0.5 * ((g - v) / h) ** 2).sum() for g in grid]
    return np.array(sums) / (v.size * h * np.sqrt(2.0 * np.pi))


def test_kde_blocked_sum_equals_dense_formula():
    # Binned: within 2e-4 of the exact curve's peak on five shapes, and within
    # the interpolation bound (delta/h)^2 / 8 of the kernel peak on any data.
    rng = np.random.default_rng(7)
    n = 20_000
    normal = rng.normal(size=n)
    outliers = rng.standard_t(2, size=n)
    outliers[:4] = [-90.0, -40.0, 60.0, 150.0]
    cases = {
        "normal": (normal, None),
        "bimodal": (np.concatenate([rng.normal(-3.0, 0.5, n // 2),
                                    rng.normal(2.0, 1.0, n // 2)]), None),
        "lognormal": (rng.lognormal(0.0, 1.0, size=n), None),
        "student-t(2)": (outliers, None),
        # Non-uniform, and the samples below -1 and above 2 lie outside it.
        "grid": (normal, np.sort(np.concatenate([np.linspace(-1.0, 0.5, 50),
                                                 rng.uniform(0.5, 2.0, 30)]))),
    }
    for name, (v, grid_in) in cases.items():
        h = silverman_bandwidth(v)
        grid, density = kde(v, grid_in)
        exact = _exact_kde(v, grid, h)
        err = np.max(np.abs(density - exact))
        assert err <= 2e-4 * exact.max(), (name, err / exact.max())
        assert err <= KDE_BIN_FRACTION ** -2 / 8 / (h * np.sqrt(2.0 * np.pi)), name
    # Three samples would need as many bin centres: the exact sum, bit for bit.
    v = rng.normal(size=3)
    grid = np.linspace(-4.0, 4.0, 256)
    z = (grid[:, None] - v[None, :]) / 0.3
    dense = np.exp(-0.5 * z * z).sum(axis=1) / (3 * 0.3 * np.sqrt(2.0 * np.pi))
    got_grid, density = kde(v, grid, 0.3)
    assert np.array_equal(got_grid, grid)
    assert np.array_equal(density, dense)


def test_kde_memory_is_linear_in_the_samples():
    v = np.random.default_rng(8).normal(size=1_000_000)
    tracemalloc.start()
    try:
        kde(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A (256, n) kernel block would be 256 times the samples' bytes.
    assert peak < 8 * v.nbytes, peak / v.nbytes


def test_kde_l1_distance_limits():
    rng = np.random.default_rng(5)
    a = rng.normal(size=500)
    b = a + 1000.0
    near = rng.normal(size=500)
    grid = np.linspace(-1010.0, 1010.0, 8001)
    _, da = kde(a, grid)
    _, db = kde(b, grid)
    _, dn = kde(near, grid)
    assert kde_l1_distance(grid, da, da) == 0.0
    assert kde_l1_distance(grid, da, db) == pytest.approx(2.0, abs=1e-3)
    assert 0.0 < kde_l1_distance(grid, da, dn) < 0.5


def _toy_panels(t=30, s=5, k=2, missing_rate=0.3, seed=6):
    """Dense fused values plus a raw view with NaN at unobserved cells."""
    rng = np.random.default_rng(seed)
    fused = rng.normal(size=(t, s, k)) + np.arange(k)[None, None, :]
    mask = rng.random((t, s, k)) >= missing_rate
    mask[:, 0, 0] = True
    mask[:, 1, 1] = True
    raw = np.where(mask, fused, np.nan)
    return raw, fused, [f"t{j}" for j in range(k)]


def test_variance_report_identity_when_nothing_missing():
    raw, fused, target_ids = _toy_panels(missing_rate=0.0)
    report = consistency_report(raw, fused, target_ids)
    for entry in report.values():
        assert entry.raw_variance == pytest.approx(entry.fused_variance)
        assert entry.ratio == pytest.approx(1.0)
        assert np.allclose(entry.raw_trajectory, entry.fused_trajectory)


def test_variance_report_matches_numpy():
    raw, fused, target_ids = _toy_panels()
    report = consistency_report(raw, fused, target_ids)
    assert set(report) == {"t0", "t1"}
    for j, tid in enumerate(target_ids):
        observed = ~np.isnan(raw[:, :, j])
        assert report[tid].raw_variance == pytest.approx(
            float(np.var(raw[:, :, j][observed])), rel=1e-12)
        assert report[tid].fused_variance == pytest.approx(
            float(np.var(fused[:, :, j])), rel=1e-12)
        assert report[tid].ratio == pytest.approx(
            report[tid].fused_variance / report[tid].raw_variance, rel=1e-12)
        traj = report[tid].fused_trajectory
        assert traj.shape == (30,)
        assert traj[0] == pytest.approx(float(np.var(fused[0, :, j])), rel=1e-12)


def test_variance_trajectory_nan_below_two_stations():
    raw, fused, target_ids = _toy_panels()
    raw[3, :, 0] = np.nan
    raw[3, 2, 0] = fused[3, 2, 0]  # a single observed station that hour
    report = consistency_report(raw, fused, target_ids)
    assert np.isnan(report["t0"].raw_trajectory[3])
    assert not np.isnan(report["t0"].fused_trajectory[3])
    with pytest.raises(ValidationError, match="shape|differ"):
        consistency_report(raw[:10], fused, target_ids)


def test_consistency_report_structure():
    raw, fused, target_ids = _toy_panels()
    report = consistency_report(raw, fused, target_ids)
    assert list(report) == ["t0", "t1"]
    assert set(report) == {"t0", "t1"}
    for j, tid in enumerate(target_ids):
        overlay = report[tid]
        assert overlay.grid.shape == overlay.raw_density.shape
        assert overlay.grid.shape == overlay.fused_density.shape
        # Both curves live on one grid wide enough for either distribution.
        assert overlay.grid[0] < min(np.nanmin(raw[:, :, j]), fused[:, :, j].min())
        assert kde_l1_distance(overlay.grid, overlay.raw_density,
                               overlay.fused_density) >= 0.0
        means = report[tid]
        assert means.raw_mean.shape == (30,)
        assert means.fused_mean.shape == (30,)
        assert np.allclose(means.fused_mean, fused[:, :, j].mean(axis=1))


def test_consistency_report_raw_mean_nan_when_unobserved():
    raw, fused, target_ids = _toy_panels()
    raw[7, :, 1] = np.nan
    report = consistency_report(raw, fused, target_ids)
    assert np.isnan(report["t1"].raw_mean[7])
    observed = ~np.isnan(raw[4, :, 1])
    if observed.any():
        assert report["t1"].raw_mean[4] == pytest.approx(
            float(np.mean(raw[4, observed, 1])))


def test_consistency_report_checks_every_target_before_any_bandwidth():
    raw, fused, target_ids = _toy_panels()
    raw[:, :, 0] = np.nan
    raw[4, 2, 0] = fused[4, 2, 0]  # t0: one reading, too few for a bandwidth
    raw[:, :, 1] = np.nan          # t1: none
    with pytest.raises(ValidationError, match="target 't1' has no raw observations"):
        consistency_report(raw, fused, target_ids)
    raw[4, 3, 1] = fused[4, 3, 1]
    with pytest.raises(ValidationError, match="needs >= 2 values"):
        consistency_report(raw, fused, target_ids)


def test_constant_curve_borrows_the_other_bandwidth():
    raw, fused, target_ids = _toy_panels()
    raw[:, :, 0] = np.where(np.isnan(raw[:, :, 0]), np.nan, 1.0)  # raw constant only
    raw[:, :, 1] = np.where(np.isnan(raw[:, :, 1]), np.nan, 0.0)  # both constant
    fused[:, :, 1] = 0.0
    report = consistency_report(raw, fused, target_ids)
    t0, t1 = report["t0"], report["t1"]
    assert t0.raw_variance == 0.0 and np.isnan(t0.ratio)
    h_fused = silverman_bandwidth(fused[:, :, 0])
    raw_vals = raw[:, :, 0][~np.isnan(raw[:, :, 0])]
    assert np.array_equal(t0.raw_density, kde(raw_vals, t0.grid, h_fused)[1])
    assert t1.grid[0] == -3.0 and t1.grid[-1] == 3.0  # both curves fall back to 1.0
    for density in (t1.raw_density, t1.fused_density):
        assert np.allclose(density, GAUSS_PEAK * np.exp(-0.5 * t1.grid ** 2),
                           rtol=1e-12, atol=0.0)
