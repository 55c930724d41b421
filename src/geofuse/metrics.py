"""Forecast accuracy metrics and raw-vs-fused consistency diagnostics.

Accuracy: MAE, RMSE, MAPE (percent, near-zero truth excluded and counted)
and the standard coefficient of determination. Consistency: per-target
variance comparisons, cross-station variance trajectories, and Gaussian
kernel density overlays with Silverman's bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid

from .errors import ValidationError

MAPE_EPS = 1e-8
# Elements of the (grid rows, n) kernel block kde evaluates at a time: about
# 512 KiB per temporary whatever the sample size, which fits in L2; 8 MiB
# blocks made the 60-station report about 1.6 times slower.
KDE_BLOCK_ELEMENTS = 1 << 16


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
    if not np.isfinite(v).all():
        raise ValidationError("bandwidth rule needs finite values")
    return 1.06 * float(np.std(v, ddof=1)) * v.size ** (-0.2)


def kde(values, grid=None, bandwidth: float | None = None,
        grid_size: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density estimate.

    Returns (grid, density). With no explicit grid, one spanning the data
    plus three bandwidths on each side is built. Constant data has zero
    Silverman bandwidth: pass an explicit one. The kernel sum is evaluated a
    block of grid rows at a time, so memory stays O(n + grid) while each
    density equals the one-shot (grid, n) evaluation bit for bit.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0 or not np.isfinite(v).all():
        raise ValidationError("kde needs non-empty finite values")
    h = silverman_bandwidth(v) if bandwidth is None else float(bandwidth)
    if not h > 0:
        raise ValidationError(
            "bandwidth must be positive; constant data needs an explicit bandwidth")
    if grid is None:
        grid = np.linspace(v.min() - 3.0 * h, v.max() + 3.0 * h, grid_size)
    else:
        grid = np.asarray(grid, dtype=np.float64)
    sums = np.empty(grid.shape)
    rows = max(1, KDE_BLOCK_ELEMENTS // v.size)
    for lo in range(0, grid.size, rows):
        z = (grid[lo:lo + rows, None] - v[None, :]) / h
        sums[lo:lo + rows] = np.exp(-0.5 * z * z).sum(axis=1)
    return grid, sums / (v.size * h * np.sqrt(2.0 * np.pi))


def kde_l1_distance(grid, density_a, density_b) -> float:
    """Integral of |f - g| over a shared grid (trapezoid rule)."""
    return float(trapezoid(np.abs(np.asarray(density_a) - np.asarray(density_b)),
                           np.asarray(grid)))


@dataclass
class TargetVariance:
    raw_variance: float
    fused_variance: float
    ratio: float                 # fused / raw
    raw_trajectory: np.ndarray   # per-hour cross-station variance, NaN when < 2 raw
    fused_trajectory: np.ndarray


@dataclass
class KdeOverlay:
    grid: np.ndarray
    raw_density: np.ndarray
    fused_density: np.ndarray


@dataclass
class MeanOverlay:
    raw_mean: np.ndarray    # cross-station mean of observed values, NaN when none
    fused_mean: np.ndarray


@dataclass
class ConsistencyReport:
    target_ids: list[str]
    variance: dict[str, TargetVariance]
    kde: dict[str, KdeOverlay]
    overlay: dict[str, MeanOverlay]


def _cross_station_variance(values: np.ndarray) -> np.ndarray:
    """(T, S) -> (T,) population variance over stations, NaN below 2 samples."""
    counts = (~np.isnan(values)).sum(axis=1)
    safe = np.maximum(counts, 1)
    means = np.nansum(values, axis=1) / safe
    squares = np.nansum((values - means[:, None]) ** 2, axis=1)
    return np.where(counts >= 2, squares / safe, np.nan)


def variance_report(raw: np.ndarray, fused: np.ndarray,
                    target_ids: list[str]) -> dict[str, TargetVariance]:
    """Compare the spread of raw readings to the spread of the fused panel.

    Raw statistics use only observed cells; fused statistics use every cell.
    Interpolation should roughly preserve variance, so ratios far from 1
    flag an inconsistent fusion.
    """
    if raw.shape != fused.shape:
        raise ValidationError(f"raw {raw.shape} and fused {fused.shape} differ")
    report = {}
    for k, tid in enumerate(target_ids):
        raw_k, fused_k = raw[:, :, k], fused[:, :, k]
        observed = ~np.isnan(raw_k)
        if not observed.any():
            raise ValidationError(f"target {tid!r} has no raw observations")
        raw_var = float(np.var(raw_k[observed]))
        fused_var = float(np.var(fused_k))
        report[tid] = TargetVariance(
            raw_variance=raw_var,
            fused_variance=fused_var,
            ratio=fused_var / raw_var if raw_var > 0 else float("nan"),
            raw_trajectory=_cross_station_variance(raw_k),
            fused_trajectory=_cross_station_variance(fused_k),
        )
    return report


def consistency_report(raw: np.ndarray, fused: np.ndarray, target_ids: list[str],
                       grid_size: int = 256) -> ConsistencyReport:
    """Variance, KDE and mean-trajectory comparisons per target.

    KDE curves share one grid per target (spanning both distributions) so
    they can be differenced directly; each curve uses its own Silverman
    bandwidth.
    """
    variance = variance_report(raw, fused, target_ids)
    kdes: dict[str, KdeOverlay] = {}
    overlays: dict[str, MeanOverlay] = {}
    for k, tid in enumerate(target_ids):
        raw_k, fused_k = raw[:, :, k], fused[:, :, k]
        raw_vals = raw_k[~np.isnan(raw_k)]
        fused_vals = fused_k.ravel()
        h_raw = silverman_bandwidth(raw_vals)
        h_fused = silverman_bandwidth(fused_vals)
        pad = 3.0 * max(h_raw, h_fused)
        lo = min(raw_vals.min(), fused_vals.min()) - pad
        hi = max(raw_vals.max(), fused_vals.max()) + pad
        grid = np.linspace(lo, hi, grid_size)
        _, raw_density = kde(raw_vals, grid, h_raw)
        _, fused_density = kde(fused_vals, grid, h_fused)
        kdes[tid] = KdeOverlay(grid, raw_density, fused_density)
        counts = (~np.isnan(raw_k)).sum(axis=1)
        sums = np.nansum(raw_k, axis=1)
        raw_mean = np.divide(sums, counts, out=np.full(len(counts), np.nan),
                             where=counts > 0)
        overlays[tid] = MeanOverlay(raw_mean, fused_k.mean(axis=1))
    return ConsistencyReport(list(target_ids), variance, kdes, overlays)
