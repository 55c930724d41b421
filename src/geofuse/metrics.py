"""Forecast accuracy metrics and raw-vs-fused consistency diagnostics.

Accuracy: MAE, RMSE, MAPE (percent, near-zero truth excluded and counted)
and the standard coefficient of determination. Consistency: per-target
variance comparisons, cross-station variance trajectories, and Gaussian
kernel density overlays with Silverman's bandwidth, binned linearly before
the kernel sum (Silverman 1982, Wand 1994).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MAPE_EPS = 1e-8
# Elements of the (grid rows, centres) kernel block kde evaluates at a time:
# about 512 KiB per temporary whatever the sample size, which fits in L2;
# 8 MiB blocks made the 60-station report about 1.6 times slower.
KDE_BLOCK_ELEMENTS = 1 << 16
# kde bins at spacing h / KDE_BIN_FRACTION; its error scales as that spacing squared.
KDE_BIN_FRACTION = 16
KDE_GRID_SIZE = 256


def _check_pair(truth, pred) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(truth, dtype=np.float64).ravel()
    p = np.asarray(pred, dtype=np.float64).ravel()
    if t.shape != p.shape or t.size == 0:
        raise ValidationError(
            f"truth and prediction must be equal-length and non-empty, "
            f"got {np.asarray(truth).shape} vs {np.asarray(pred).shape}")
    if not (np.isfinite(t).all() and np.isfinite(p).all()):
        raise ValidationError("metrics need finite inputs")
    return t, p


def mae(truth, pred) -> float:
    t, p = _check_pair(truth, pred)
    return float(np.mean(np.abs(p - t)))


def rmse(truth, pred) -> float:
    t, p = _check_pair(truth, pred)
    return float(np.sqrt(np.mean((p - t) ** 2)))


@dataclass
class MapeResult:
    value: float    # percent
    excluded: int   # entries skipped because |truth| <= eps


def mape(truth, pred, eps: float = MAPE_EPS) -> MapeResult:
    """Mean absolute percentage error, skipping near-zero truth entries."""
    t, p = _check_pair(truth, pred)
    if eps < 0:
        raise ValidationError(f"eps must be >= 0, got {eps}")
    keep = np.abs(t) > eps
    excluded = int(t.size - keep.sum())
    if not keep.any():
        raise ValidationError("every truth value is within eps of zero; MAPE undefined")
    value = float(np.mean(np.abs((p[keep] - t[keep]) / t[keep]))) * 100.0
    return MapeResult(value, excluded)


def r2(truth, pred) -> float:
    """1 - SS_res / SS_tot with SS_tot about the truth mean."""
    t, p = _check_pair(truth, pred)
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValidationError("truth is constant; r2 is undefined")
    ss_res = float(np.sum((t - p) ** 2))
    return 1.0 - ss_res / ss_tot


def silverman_bandwidth(values) -> float:
    """1.06 * sample std * n^(-1/5)."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < 2:
        raise ValidationError(f"bandwidth rule needs >= 2 values, got {v.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        std = float(np.std(v, ddof=1))
    if not np.isfinite(std):
        raise ValidationError("bandwidth rule needs finite values of finite spread")
    return 1.06 * std * v.size ** (-0.2)


def kde(values, grid=None, bandwidth: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density estimate.

    Returns (grid, density). With no explicit grid, one spanning the data
    plus three bandwidths on each side is built; an explicit grid may be
    non-uniform and need not cover the data. Constant data has zero
    Silverman bandwidth: pass an explicit one. The samples are binned
    linearly at spacing delta = h/16 and the kernel sum runs over the
    occupied centres, a block of grid rows at a time: O(n + grid * min(n,
    span / delta)) time, O(n + grid) memory. Against the exact sum the error
    is at most (delta/h)^2 / 8 of the kernel peak 1/(h sqrt(2 pi)) on any
    data, and within 2e-4 of the curve's peak on the continuous data tested
    (3.2e-4 on integer-valued data). Fewer samples than the centres they
    would need are summed exactly.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0 or not np.isfinite(v).all():
        raise ValidationError("kde needs non-empty finite values")
    h = silverman_bandwidth(v) if bandwidth is None else float(bandwidth)
    if not h > 0:
        raise ValidationError(
            "bandwidth must be positive; constant data needs an explicit bandwidth")
    # A kernel argument that overflows weighs exp(-inf) = 0, exactly; any
    # other overflow leaves a grid point or density that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        if grid is None:
            grid = np.linspace(v.min() - 3.0 * h, v.max() + 3.0 * h, KDE_GRID_SIZE)
        grid = np.asarray(grid, dtype=np.float64)
        centres, weights = _linear_bins(v, h / KDE_BIN_FRACTION)
        sums = np.empty(grid.shape)
        rows = max(1, KDE_BLOCK_ELEMENTS // centres.size)
        for lo in range(0, grid.size, rows):
            z = (grid[lo:lo + rows, None] - centres[None, :]) / h
            sums[lo:lo + rows] = (np.exp(-0.5 * z * z) * weights).sum(axis=1)
        density = sums / (v.size * h * np.sqrt(2.0 * np.pi))
    if not (np.isfinite(grid).all() and np.isfinite(density).all()):
        raise ValidationError(f"kde grid or density overflows float64 (bandwidth {h:g})")
    return grid, density


def _linear_bins(v: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Occupied centres at spacing delta with their mass, or v with unit mass."""
    origin = v.min()
    if not v.max() - origin < (v.size - 2) * delta:
        return v, np.ones(v.size)
    pos = (v - origin) / delta
    idx = pos.astype(np.intp)
    frac = pos - idx
    mass = np.bincount(idx, 1.0 - frac, idx.max() + 2) + np.bincount(idx + 1, frac)
    occupied = np.flatnonzero(mass)
    return origin + delta * occupied, mass[occupied]


def kde_l1_distance(grid, density_a, density_b) -> float:
    """Integral of |f - g| over a shared grid (trapezoid rule)."""
    return float(np.trapezoid(np.abs(np.asarray(density_a) - np.asarray(density_b)),
                              np.asarray(grid)))


@dataclass
class TargetConsistency:
    """One target's diagnostics: the columns of variance.csv, kde_<t>.csv and overlay_<t>.csv."""

    raw_variance: float
    fused_variance: float
    ratio: float                 # fused / raw, NaN when the raw variance is 0
    grid: np.ndarray             # shared by both KDE curves
    raw_density: np.ndarray
    fused_density: np.ndarray
    raw_mean: np.ndarray         # per-hour cross-station mean, NaN when none observed
    fused_mean: np.ndarray
    raw_trajectory: np.ndarray   # per-hour cross-station variance, NaN when < 2 raw
    fused_trajectory: np.ndarray


def _cross_station(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, S) -> (T,) mean and population variance over the observed stations,
    NaN with no sample and below 2 samples respectively."""
    counts = (~np.isnan(values)).sum(axis=1)
    safe = np.maximum(counts, 1)
    means = np.nansum(values, axis=1) / safe
    squares = np.nansum((values - means[:, None]) ** 2, axis=1)
    return (np.where(counts > 0, means, np.nan),
            np.where(counts >= 2, squares / safe, np.nan))


def consistency_report(raw: np.ndarray, fused: np.ndarray,
                       target_ids: list[str]) -> dict[str, TargetConsistency]:
    """Variance, KDE and mean-trajectory comparisons per target, in target order.

    Raw statistics use only observed cells; fused statistics use every cell.
    Interpolation should roughly preserve variance, so ratios far from 1
    flag an inconsistent fusion. KDE curves share one grid per target
    (spanning both distributions) so they can be differenced directly; each
    curve uses its own Silverman bandwidth.
    """
    if raw.shape != fused.shape:
        raise ValidationError(f"raw {raw.shape} and fused {fused.shape} differ")
    # Squared deviations are at most (2 |x|)^2: below this bound every
    # variance, trajectory and bandwidth of the N values is finite.
    bound = np.sqrt(np.finfo(np.float64).max / max(raw.size, 1)) / 2.0
    largest = max(np.abs(raw).max(initial=0.0, where=~np.isnan(raw)),
                  np.abs(fused).max(initial=0.0))
    if not largest <= bound:
        raise ValidationError(f"values must be finite and at most {bound:.3g} in magnitude, "
                              f"got {largest:.3g}")
    for k, tid in enumerate(target_ids):
        if np.isnan(raw[:, :, k]).all():
            raise ValidationError(f"target {tid!r} has no raw observations")
    report = {}
    for k, tid in enumerate(target_ids):
        raw_k, fused_k = raw[:, :, k], fused[:, :, k]
        raw_vals = raw_k[~np.isnan(raw_k)]
        fused_vals = fused_k.ravel()
        raw_var, fused_var = float(np.var(raw_vals)), float(np.var(fused_k))
        h_raw, h_fused = silverman_bandwidth(raw_vals), silverman_bandwidth(fused_vals)
        # A constant curve has no Silverman bandwidth: it borrows the other
        # curve's, or 1.0 (build_adjacency's degenerate sigma) if both are 0.
        h_raw, h_fused = h_raw or h_fused or 1.0, h_fused or h_raw or 1.0
        pad = 3.0 * max(h_raw, h_fused)
        grid = np.linspace(min(raw_vals.min(), fused_vals.min()) - pad,
                           max(raw_vals.max(), fused_vals.max()) + pad, KDE_GRID_SIZE)
        raw_mean, raw_traj = _cross_station(raw_k)
        report[tid] = TargetConsistency(
            raw_var, fused_var, fused_var / raw_var if raw_var > 0 else float("nan"),
            grid, kde(raw_vals, grid, h_raw)[1], kde(fused_vals, grid, h_fused)[1],
            raw_mean, fused_k.mean(axis=1), raw_traj, _cross_station(fused_k)[1])
    return report
