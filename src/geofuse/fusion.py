"""Gaussian radial basis interpolation and panel fusion.

Scattered station readings are fused into a dense (time, station, target)
matrix: cells a station measured keep their raw value, every other cell is
interpolated from the stations that did measure that target at that hour.

The interpolant through N sources solves A w = b where A[i, j] =
exp(-c * dist(i, j)^2) plus a diagonal ridge, and evaluates as F(q) = sum_j
w_j * exp(-c * dist(q, j)^2). The Gaussian kernel makes A symmetric positive
definite for distinct sources, so the solve is a Cholesky factorization with
iterative refinement, applied through the factor's inverse. A panel is fused
with one kernel block, one factorization and one multi-right-hand-side solve
per (target, availability pattern), and every hour keeps the bits of a
one-hour fusion. The latest geometry (stations, targets, metric, shape_c)
keeps its distances, shapes and up to 1 MiB of pattern records (kernel block
and factor), so the online path, one ``fuse_time_step`` per hour over the
same stations, pays for a repeated pattern only its checked solve.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from datetime import datetime

import numpy as np

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

# Kernel-block bytes held per stacked factorization of equal-size Grams.
_STACK_BYTES = 1 << 17

# Bytes of pattern records a geometry's store keeps: some 80 at 60 stations.
_STORE_BYTES = 1 << 20


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
    treats them as (longitude, latitude) in degrees, longitude in
    [-180, 360) and latitude in [-90, 90], and returns great-circle
    kilometres.
    """
    a = _check_points(a, "points")
    b = _check_points(b, "points")
    if metric == "euclidean":
        diff = a[:, None, :] - b[None, :, :]
        return np.sqrt((diff ** 2).sum(axis=-1))
    if metric == "haversine_km":
        for lon, lat in (a.T, b.T):
            if not ((-180.0 <= lon) & (lon < 360.0)).all():
                raise ValidationError("haversine_km longitudes must lie in [-180, 360)")
            if not ((-90.0 <= lat) & (lat <= 90.0)).all():
                raise ValidationError("haversine_km latitudes must lie in [-90, 90]")
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
    m = n * (n - 1) // 2                  # np.median of an even count; it imports numpy.ma
    off = np.partition(dists[~np.eye(n, dtype=bool)], (m - 1, m))
    d_med = float((off[m - 1] + off[m]) / 2)
    if d_med <= 0.0:
        return 1.0  # coincident sources; the solve will report singularity
    return 1.0 / (2.0 * d_med * d_med)


def _add_ridge(gram: np.ndarray, config: RbfConfig) -> np.ndarray:
    """``gram`` with the configured ridge added to its diagonal, in place."""
    gram.flat[::len(gram) + 1] += DEFAULT_RIDGE if config.ridge is None else config.ridge
    return gram


def _factor(a: np.ndarray) -> np.ndarray:
    """L^-1 of each (..., n, n) A's lower Cholesky factor L, with the bits of a
    single call, or SingularSystemError if an A is not SPD. A^-1 = L^-T L^-1,
    so A^-1 b is two matvecs and diag(A^-1) the column sums of (L^-1)^2."""
    try:
        return np.linalg.inv(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        raise SingularSystemError(
            "coefficient matrix is singular or not positive definite; "
            "duplicate source locations are the usual cause, and a positive "
            "ridge regularizes near-duplicates") from None


def _matvecs(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``mat @ row`` per row, one BLAS matvec each; a GEMM's sums vary with the row count."""
    return np.matmul(mat, rows[:, :, np.newaxis])[:, :, 0]


def _solve(inv_factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b for each row b of (m, n) ``b``, given L^-1 from ``_factor``."""
    return _matvecs(inv_factor.T, _matvecs(inv_factor, b))


def _solve_refined(inv_factor: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A w = b for each row b of the (m, n) ``b``, refining row by row."""
    scale = 1.0 + np.abs(b).max(axis=1, initial=0.0)
    bound = RESIDUAL_RTOL * scale
    # Refine toward the rounding floor, not just the contract bound: stopping
    # right at the relative bound leaves an absolute error of RESIDUAL_RTOL *
    # max|b|, visible when observations are large. A row stops refining at
    # the floor or when a step stops helping; the bound stays the pass/fail
    # line for declaring the system solvable.
    floor = 1e4 * np.finfo(np.float64).eps * scale
    best_w = _solve(inv_factor, b)
    best_res = b - _matvecs(a, best_w)
    best_r = np.abs(best_res).max(axis=1, initial=0.0)
    refining = ~(best_r <= floor)
    for _ in range(4):
        if not refining.any():
            break
        w = best_w + _solve(inv_factor, best_res)
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


class _Store(OrderedDict):
    """Pattern records, least recently used first, at most ``_STORE_BYTES`` of
    arrays; its lock keeps concurrent fusions from breaking the order or count."""

    def __init__(self):
        super().__init__()
        self.nbytes, self.lock = 0, threading.Lock()

    def take(self, key: tuple) -> tuple[np.ndarray, ...] | None:
        with self.lock:
            if key in self:
                self.move_to_end(key)
            return self.get(key)

    def put(self, key: tuple, record: tuple[np.ndarray, ...]) -> None:
        """Keep ``record`` read-only and owning its arrays; drop the oldest beyond the bound."""
        record = tuple(a if a.flags.owndata else a.copy() for a in record)
        for a in record:
            a.setflags(write=False)
        with self.lock:
            if key not in self:                   # another thread may have put it
                self[key] = record
                self.nbytes += sum(a.nbytes for a in record)
            while self.nbytes > _STORE_BYTES:
                self.nbytes -= sum(a.nbytes for a in self.popitem(last=False)[1])


@functools.lru_cache(maxsize=1)
def _geometry(stations: tuple[Station, ...], target_ids: tuple[str, ...],
              distance_metric: str, shape_c: float | None):
    """The read-only (S, K) native mask and distances of ``stations``, one shape
    per target (``resolve_shape_c`` on its native stations' distances, or
    ``shape_c``) and a ``_Store``. Hashing the Stations costs a third of deriving
    these. Only the latest geometry is kept; a call that raises is not kept."""
    native = ObservationPanel([], list(stations), list(target_ids), None).native_mask()
    dists = pairwise_distances(np.array([[st.x, st.y] for st in stations]), distance_metric)
    for a in (native, dists):
        a.setflags(write=False)
    config = RbfConfig(shape_c=shape_c)
    shapes = tuple(resolve_shape_c(dists[np.ix_(m, m)], config) for m in native.T)
    return native, dists, shapes, _Store()


def _records(hours: dict[tuple, list[int]], by_target: np.ndarray, dists: np.ndarray,
             shapes: tuple[float, ...], store: _Store, config: RbfConfig):
    """Yield (key, record) per (target, pattern, ridge) key of ``hours``, from the
    store or new: (sources, queries, block, L^-1), the block's first n rows the
    n sources' ridged Gram, the rest the queries' kernel rows. New Grams are
    factored in stacks of one n, each with its own bits. A call whose new
    records would not all fit keeps none: it shares each factor among its hours."""
    misses: dict[int, list] = {}                 # source count -> [(key, pattern)]
    for key, ts in hours.items():
        record = store.take(key)
        if record is None:
            available = by_target[key[0], ts[0]]
            misses.setdefault(int(available.sum()), []).append((key, available))
        else:
            yield key, record
    s = len(dists)                               # a record has S + (S + n) n items
    keep = sum(len(same) * 8 * (s + (s + n) * n) for n, same in misses.items()) <= _STORE_BYTES
    for n, same in misses.items():
        step = max(1, _STACK_BYTES // (8 * n * s))
        for lo in range(0, len(same), step):
            batch = []
            for (k, *_), available in same[lo:lo + step]:
                order = np.argsort(~available, kind="stable")    # sources, then queries
                block = gaussian_rbf(dists.take(order, axis=0).take(order[:n], axis=1),
                                     shapes[k])
                batch.append((order[:n], order[n:], block))
            grams = np.stack([_add_ridge(block[:n], config) for *_, block in batch])
            for (key, _), record, inverse in zip(same[lo:lo + step], batch, _factor(grams)):
                if keep:
                    store.put(key, (*record, inverse))
                yield key, (*record, inverse)


def fuse_time_step(panel_slice: np.ndarray, stations: list[Station],
                   target_ids: list[str], config: RbfConfig | None = None,
                   timestamp=None) -> np.ndarray:
    """Fuse one (S, K) slice: keep available native readings, interpolate the rest.

    This is ``fuse_panel`` on a one-hour panel, so the kernel shape for
    target k comes from the geometry of all of k's native stations and does
    not drift when some of them drop out for an hour. Its distances and
    shapes are computed once per station set and config, and each pattern's
    factor once while the store keeps it. Raises FusionError when no station
    has a reading of some target.
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

    Hours are grouped by (target, availability pattern, ridge); each group gets
    one record from ``_records``, the geometry's store or one Gaussian block and
    one Cholesky factor, and one multi-right-hand-side solve. Each hour's values
    equal ``fuse_time_step`` on that hour, bit for bit, whatever the store held.
    Raises FusionError for the earliest (hour, target) with no source.
    """
    config = config or RbfConfig()
    config.validate()
    panel.validate()
    native, dists, shapes, store = _geometry(tuple(panel.stations), tuple(panel.target_ids),
                                             config.distance_metric, config.shape_c)
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
    hours: dict[tuple, list[int]] = {}           # (target, pattern, ridge) -> hours
    for k, t in zip(*np.nonzero(needs_fill)):
        hours.setdefault((int(k), by_target[k, t].tobytes(), config.ridge), []).append(t)
    records = _records(hours, by_target, dists, shapes, store, config)
    for key, (src, query, block, inverse) in records:
        rows, n = np.array(hours[key])[:, np.newaxis], len(src)
        w = _solve_refined(inverse, block[:n], values[rows, src, key[0]])
        values[rows, query, key[0]] = _matvecs(block[n:], w)

    fused = FusionMatrix(
        timestamps=list(panel.timestamps),
        station_ids=[st.id for st in panel.stations],
        target_ids=list(panel.target_ids),
        values=values,
        raw_mask=raw_mask,
    )
    fused.validate()
    return fused
