"""Gaussian radial basis interpolation and panel fusion.

Scattered station readings are fused into a dense (time, station, target)
matrix: cells a station measured keep their raw value, every other cell is
interpolated from the stations that did measure that target at that hour.

The interpolant through N sources solves A w = b where A[i, j] =
exp(-c * dist(i, j)^2) plus a diagonal ridge, and evaluates as F(q) = sum_j
w_j * exp(-c * dist(q, j)^2). The Gaussian kernel makes A symmetric positive
definite for distinct sources, so the solve is a Cholesky factorization with
iterative refinement. A panel is fused with one kernel per target and one
factorization and multi-right-hand-side solve per (target, availability
pattern), and every hour keeps the bits of a one-hour fusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np
from scipy.linalg import lapack

from .errors import FusionError, SingularSystemError, ValidationError
from .ingest import ObservationPanel, Station

EARTH_RADIUS_KM = 6371.0088
_METRICS = ("euclidean", "haversine_km")

# Residual contract for every weight solve: ||A w - b||_inf below this times
# (1 + ||b||_inf), else the system is reported as effectively singular.
RESIDUAL_RTOL = 1e-8

# Ridge when none is configured. A Gaussian Gram's diagonal is exp(0) = 1, so a
# constant is relative to it: 1e-10 is far below RESIDUAL_RTOL, yet lifts a
# nearly singular Gram's smallest eigenvalues well above rounding.
DEFAULT_RIDGE = 1e-10


@dataclass(frozen=True)
class RbfConfig:
    """Kernel shape, diagonal ridge and distance metric.

    ``shape_c`` None means per-target auto-scaling: c = 1 / (2 * d_med^2)
    with d_med the median pairwise distance between that target's native
    stations. ``ridge`` None means ``DEFAULT_RIDGE`` (1e-10 against the
    kernel's unit diagonal); pass 0.0 explicitly for exact interpolation.
    """

    shape_c: float | None = None
    ridge: float | None = None
    distance_metric: str = "euclidean"

    def validate(self) -> None:
        if self.shape_c is not None and not 0 < self.shape_c < np.inf:
            raise ValidationError(f"shape_c must be positive and finite, got {self.shape_c}")
        if self.ridge is not None and not 0 <= self.ridge < np.inf:
            raise ValidationError(f"ridge must be >= 0 and finite, got {self.ridge}")
        if self.distance_metric not in _METRICS:
            raise ValidationError(
                f"distance_metric must be one of {_METRICS}, got {self.distance_metric!r}")


def _check_points(points: np.ndarray, label: str) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError(f"{label} must be (n, 2), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValidationError(f"{label} contain non-finite coordinates")
    return pts


def cross_distances(a: np.ndarray, b: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """(len(a), len(b)) distance matrix under the chosen metric.

    ``euclidean`` treats coordinates as planar (x, y). ``haversine_km``
    treats them as (longitude, latitude) in degrees and returns great-circle
    kilometres.
    """
    a = _check_points(a, "points")
    b = _check_points(b, "points")
    if metric == "euclidean":
        diff = a[:, None, :] - b[None, :, :]
        return np.sqrt((diff ** 2).sum(axis=-1))
    if metric == "haversine_km":
        lon_a, lat_a = np.radians(a[:, 0])[:, None], np.radians(a[:, 1])[:, None]
        lon_b, lat_b = np.radians(b[:, 0])[None, :], np.radians(b[:, 1])[None, :]
        h = (np.sin((lat_b - lat_a) / 2) ** 2
             + np.cos(lat_a) * np.cos(lat_b) * np.sin((lon_b - lon_a) / 2) ** 2)
        return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    raise ValidationError(f"unknown distance metric {metric!r}")


def pairwise_distances(points: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Symmetric distance matrix with an exactly zero diagonal."""
    d = cross_distances(points, points, metric)
    np.fill_diagonal(d, 0.0)
    return d


def gaussian_rbf(dist, shape_c: float) -> np.ndarray:
    """exp(-c * d^2): 1 at zero distance, monotone decreasing."""
    if not shape_c > 0:
        raise ValidationError(f"shape_c must be positive, got {shape_c}")
    d = np.asarray(dist, dtype=np.float64)
    if (d < 0).any():
        raise ValidationError("distances must be non-negative")
    return np.exp(-shape_c * d * d)


def resolve_shape_c(dists: np.ndarray, config: RbfConfig) -> float:
    """Explicit shape_c, or 1 / (2 * median off-diagonal distance squared)."""
    if config.shape_c is not None:
        return config.shape_c
    n = dists.shape[0]
    if n < 2:
        return 1.0
    off = dists[~np.eye(n, dtype=bool)]
    d_med = float(np.median(off))
    if d_med <= 0.0:
        return 1.0  # coincident sources; the solve will report singularity
    return 1.0 / (2.0 * d_med * d_med)


def _add_ridge(gram: np.ndarray, config: RbfConfig) -> np.ndarray:
    """``gram`` with the configured ridge added to its diagonal, in place."""
    gram.flat[::len(gram) + 1] += DEFAULT_RIDGE if config.ridge is None else config.ridge
    return gram


def _factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of A, or SingularSystemError if A is not SPD.

    LAPACK is called directly here and in ``_solve_refined``: scipy's
    ``cho_factor``/``cho_solve`` checks cost several times the work.
    """
    factor, info = lapack.dpotrf(a, lower=1, clean=0)
    if info:
        raise SingularSystemError(
            "coefficient matrix is singular or not positive definite; "
            "duplicate source locations are the usual cause, and a positive "
            "ridge regularizes near-duplicates")
    return factor


def _matvecs(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``mat @ row`` per row, one BLAS matvec each; a GEMM's sums vary with the row count."""
    return np.matmul(mat, rows[:, :, np.newaxis])[:, :, 0]


def _solve_refined(factor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A w = b for each row b of the (m, n) ``b``, refining row by row."""
    scale = 1.0 + np.abs(b).max(axis=1, initial=0.0)
    bound = RESIDUAL_RTOL * scale
    # Refine toward the rounding floor, not just the contract bound: stopping
    # right at the relative bound leaves an absolute error of RESIDUAL_RTOL *
    # max|b|, visible when observations are large. A row stops refining at
    # the floor or when a step stops helping; the bound stays the pass/fail
    # line for declaring the system solvable.
    floor = 1e4 * np.finfo(np.float64).eps * scale
    best_w = lapack.dpotrs(factor, b.T, lower=1)[0].T
    best_res = b - _matvecs(a, best_w)
    best_r = np.abs(best_res).max(axis=1, initial=0.0)
    refining = ~(best_r <= floor)
    for _ in range(4):
        if not refining.any():
            break
        w = best_w + lapack.dpotrs(factor, best_res.T, lower=1)[0].T
        res = b - _matvecs(a, w)
        r = np.abs(res).max(axis=1, initial=0.0)
        improved = refining & ~(r >= best_r)
        np.copyto(best_w, w, where=improved[:, np.newaxis])
        np.copyto(best_res, res, where=improved[:, np.newaxis])
        np.copyto(best_r, r, where=improved)
        refining = improved & ~(best_r <= floor)
    if (best_r < bound).all():
        return best_w
    j = np.argmin(best_r < bound)
    raise SingularSystemError(
        f"weight solve residual {best_r[j]:.3e} exceeds {bound[j]:.3e}; the system "
        "is too ill-conditioned, increase the ridge")


@dataclass
class RbfInterpolant:
    """Fitted interpolant: source points, solved weights, resolved kernel."""

    points: np.ndarray
    weights: np.ndarray
    shape_c: float
    distance_metric: str


def build_interpolant(points: np.ndarray, values: np.ndarray,
                      config: RbfConfig | None = None) -> RbfInterpolant:
    """Fit weights so the interpolant passes through (points, values).

    With ridge 0 the fit is exact at the sources; a positive ridge trades a
    little exactness for conditioning.
    """
    config = config or RbfConfig()
    config.validate()
    points = _check_points(points, "source points")
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (points.shape[0],):
        raise ValidationError(
            f"values shape {values.shape} does not match {points.shape[0]} points")
    if points.shape[0] == 0:
        raise ValidationError("need at least one source point")
    if not np.isfinite(values).all():
        raise ValidationError("source values contain non-finite entries")
    dists = pairwise_distances(points, config.distance_metric)
    c = resolve_shape_c(dists, config)
    a = _add_ridge(gaussian_rbf(dists, c), config)
    weights = _solve_refined(_factor(a), a, values[np.newaxis])[0]
    return RbfInterpolant(points, weights, c, config.distance_metric)


def evaluate_interpolant(interp: RbfInterpolant, query_points: np.ndarray) -> np.ndarray:
    """F(q) = sum_j w_j * exp(-c * dist(q, s_j)^2) for each query point."""
    queries = _check_points(query_points, "query points")
    basis = gaussian_rbf(
        cross_distances(queries, interp.points, interp.distance_metric), interp.shape_c)
    return basis @ interp.weights


@dataclass
class FusionMatrix:
    """Dense fused panel plus provenance.

    ``values`` is (T, S, K) with no missing entries. ``raw_mask`` is True
    where the value is an untouched station reading, False where it was
    interpolated.
    """

    timestamps: list[datetime]
    station_ids: list[str]
    target_ids: list[str]
    values: np.ndarray
    raw_mask: np.ndarray

    def validate(self) -> None:
        t, s, k = self.values.shape
        if (t, s, k) != (len(self.timestamps), len(self.station_ids), len(self.target_ids)):
            raise ValidationError("fusion matrix axes do not match index lists")
        if self.raw_mask.shape != self.values.shape:
            raise ValidationError("provenance mask shape does not match values")
        if np.isnan(self.values).any():
            raise ValidationError("fusion matrix contains missing values")


def fuse_time_step(panel_slice: np.ndarray, stations: list[Station],
                   target_ids: list[str], config: RbfConfig | None = None,
                   timestamp=None) -> np.ndarray:
    """Fuse one (S, K) slice: keep available native readings, interpolate the rest.

    This is ``fuse_panel`` on a one-hour panel, so the kernel shape for
    target k comes from the geometry of all of k's native stations and does
    not drift when some of them drop out for an hour. Raises FusionError
    when no station has a reading of some target.
    """
    panel_slice = np.asarray(panel_slice, dtype=np.float64)
    n_stations, n_targets = len(stations), len(target_ids)
    if panel_slice.shape != (n_stations, n_targets):
        raise ValidationError(
            f"slice shape {panel_slice.shape} does not match ({n_stations}, {n_targets})")
    panel = ObservationPanel([timestamp], list(stations), list(target_ids),
                             panel_slice[np.newaxis])
    return fuse_panel(panel, config).values[0]


def fuse_panel(panel: ObservationPanel, config: RbfConfig | None = None) -> FusionMatrix:
    """Fuse every time step of a panel into a dense matrix with provenance.

    Hours are grouped by (target, availability pattern); each group gets one
    Cholesky factor, one query basis and one multi-right-hand-side solve, and
    each hour's values equal ``fuse_time_step`` on that hour, bit for bit.
    One pairwise distance matrix over all stations is computed per call, and
    one kernel per target that has a cell to fill, at the shape its native
    stations give; each pattern's Gram and query blocks are indexed out of
    that kernel. Raises FusionError for the earliest (hour, target) with no
    source.
    """
    config = config or RbfConfig()
    config.validate()
    panel.validate()
    coords = np.array([[st.x, st.y] for st in panel.stations], dtype=np.float64)
    dists = pairwise_distances(coords, config.distance_metric)
    native = panel.native_mask()
    raw_mask = native & ~np.isnan(panel.values)
    no_source = ~raw_mask.any(axis=1)
    if no_source.any():
        t, k = np.unravel_index(np.argmax(no_source), no_source.shape)
        when = "" if panel.timestamps[t] is None else f" at {panel.timestamps[t]}"
        raise FusionError(
            f"target {panel.target_ids[k]!r} has no available source station{when}")

    values = panel.values.copy()
    by_target = np.ascontiguousarray(raw_mask.transpose(2, 0, 1))
    needs_fill = ~by_target.all(axis=2)
    for k in range(len(panel.target_ids)):
        hours: dict[bytes, list[int]] = {}
        for t in np.flatnonzero(needs_fill[k]):
            hours.setdefault(by_target[k, t].tobytes(), []).append(t)
        if not hours:
            continue
        nat = np.flatnonzero(native[:, k])
        kernel = gaussian_rbf(dists, resolve_shape_c(dists[np.ix_(nat, nat)], config))
        for ts in hours.values():
            available = by_target[k, ts[0]]
            rows = np.array(ts)[:, np.newaxis]
            src, query = np.flatnonzero(available), np.flatnonzero(~available)
            a = _add_ridge(kernel[np.ix_(src, src)], config)
            w = _solve_refined(_factor(a), a, values[rows, src, k])
            values[rows, query, k] = _matvecs(kernel[np.ix_(query, src)], w)

    fused = FusionMatrix(
        timestamps=list(panel.timestamps),
        station_ids=[st.id for st in panel.stations],
        target_ids=list(panel.target_ids),
        values=values,
        raw_mask=raw_mask,
    )
    fused.validate()
    return fused
