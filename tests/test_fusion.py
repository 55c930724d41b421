"""RBF interpolation against closed-form and brute-force oracles.

The 2x2 weight solution and midpoint value below were computed once by hand
(Cramer's rule / direct kernel evaluation) and are frozen as constants.
"""

import numpy as np
import pytest
from scipy.linalg import lapack

import geofuse.fusion as gf
from geofuse.errors import FusionError, SingularSystemError, ValidationError
from geofuse.fusion import (
    DEFAULT_RIDGE,
    RbfConfig,
    build_interpolant,
    cross_distances,
    evaluate_interpolant,
    fuse_panel,
    fuse_time_step,
    gaussian_rbf,
    pairwise_distances,
    resolve_shape_c,
)
from geofuse.ingest import ObservationPanel, Station
from geofuse.synth import SynthConfig, generate
from datetime import datetime, timedelta

E_INV = 0.36787944117144233      # exp(-1)
E_INV2 = 0.1353352832366127      # exp(-2)
# Solution of [[1, q], [q, 1]] w = [1, 0] with q = exp(-1):
W2_EXPECTED = (1.1565176427496657, -0.4254590641196608)
# Interpolant through ((0,0)->1, (1,0)->0) with c=1, evaluated at (0.5, 0):
MIDPOINT_VALUE = 0.5693489935081161


def make_station(sid, x, y, targets=("t1",), source="src"):
    return Station(sid, source, float(x), float(y), tuple(targets))


def hourly(n, start=datetime(2017, 1, 1)):
    return [start + timedelta(hours=i) for i in range(n)]


def test_gaussian_rbf_values():
    assert gaussian_rbf(0.0, shape_c=3.7) == 1.0
    assert gaussian_rbf(1.0, shape_c=1.0) == pytest.approx(E_INV, abs=1e-15)
    assert gaussian_rbf(1.0, shape_c=2.0) == pytest.approx(E_INV2, abs=1e-15)
    d = np.linspace(0, 5, 50)
    phi = gaussian_rbf(d, shape_c=0.8)
    assert np.all(np.diff(phi) < 0)
    with pytest.raises(ValidationError):
        gaussian_rbf(1.0, shape_c=0.0)
    with pytest.raises(ValidationError):
        gaussian_rbf(-0.5, shape_c=1.0)


def test_pairwise_distances_euclidean():
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    d = pairwise_distances(pts)
    assert d[0, 1] == 3.0 and d[1, 2] == 4.0 and d[0, 2] == 5.0
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    with pytest.raises(ValidationError):
        pairwise_distances(np.array([[np.inf, 0.0]]))


def test_haversine_quarter_circle():
    # (lon, lat): equator point to the north pole is a quarter great circle.
    d = cross_distances(np.array([[0.0, 0.0]]), np.array([[0.0, 90.0]]),
                        metric="haversine_km")
    assert d[0, 0] == pytest.approx(6371.0088 * np.pi / 2.0, rel=1e-12)
    # Symmetry under swapped endpoints.
    pts = np.array([[116.4, 39.9], [121.5, 31.2], [113.3, 23.1]])
    m = pairwise_distances(pts, metric="haversine_km")
    assert np.array_equal(m, m.T)


def test_two_point_weights_match_closed_form():
    config = RbfConfig(shape_c=1.0, ridge=0.0)
    interp = build_interpolant(
        np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 0.0]), config)
    assert interp.weights[0] == pytest.approx(W2_EXPECTED[0], abs=1e-12)
    assert interp.weights[1] == pytest.approx(W2_EXPECTED[1], abs=1e-12)
    value = evaluate_interpolant(interp, np.array([[0.5, 0.0]]))
    assert value[0] == pytest.approx(MIDPOINT_VALUE, abs=1e-12)


def test_exactness_at_sources():
    rng = np.random.default_rng(60)
    for _ in range(20):
        n = rng.integers(2, 15)
        pts = rng.uniform(0, 10, size=(n, 2))
        vals = rng.normal(0, 5, size=n)
        interp = build_interpolant(pts, vals, RbfConfig(ridge=0.0))
        back = evaluate_interpolant(interp, pts)
        assert np.max(np.abs(back - vals)) < 1e-8


def test_solve_weights_matches_generic_solver():
    # The weight solve lives inside build_interpolant, the one fit path.
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        pts = rng.uniform(0, 4, size=(n, 2))
        b = rng.normal(size=n)
        interp = build_interpolant(pts, b, RbfConfig(ridge=1e-8))
        a = gaussian_rbf(pairwise_distances(pts), interp.shape_c) + 1e-8 * np.eye(n)
        w = interp.weights
        assert np.allclose(w, np.linalg.solve(a, b), atol=1e-9)
        assert np.max(np.abs(a @ w - b)) < gf.RESIDUAL_RTOL * (1.0 + np.max(np.abs(b)))


def test_solve_weights_rejects_non_finite_inputs():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    for points, values in ((pts, np.array([np.nan, 1.0])), (pts, np.array([np.inf, 1.0])),
                           (np.array([[np.nan, 0.0], [1.0, 0.0]]), np.ones(2))):
        with pytest.raises(ValidationError, match="non-finite"):
            build_interpolant(points, values)


def test_duplicate_points_singular_and_ridge_rescue():
    pts = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularSystemError, match="ridge"):
        build_interpolant(pts, np.array([1.0, 2.0]), RbfConfig(shape_c=1.0, ridge=0.0))
    interp = build_interpolant(pts, np.array([1.0, 2.0]),
                               RbfConfig(shape_c=1.0, ridge=1e-6))
    assert np.isfinite(interp.weights).all()


def test_default_ridge_equals_explicit_constant():
    assert DEFAULT_RIDGE == 1e-10
    explicit = RbfConfig(ridge=1e-10)
    rng = np.random.default_rng(65)
    pts, vals = rng.uniform(0, 10, size=(12, 2)), rng.normal(0, 5, size=12)
    default_fit = build_interpolant(pts, vals)
    assert default_fit.weights.tobytes() == build_interpolant(pts, vals, explicit).weights.tobytes()
    assert default_fit.weights.tobytes() != build_interpolant(
        pts, vals, RbfConfig(ridge=0.0)).weights.tobytes()
    panel = _toy_panel(missing={(2, "a", "t1"), (4, "b", "t2")})
    assert fuse_panel(panel).values.tobytes() == fuse_panel(panel, explicit).values.tobytes()


def test_fuse_panel_evaluates_one_kernel_per_target(monkeypatch):
    # Two targets with gaps across several availability patterns: one kernel
    # each. A target with nothing to fill evaluates none.
    calls = []

    def counted(dist, shape_c):
        calls.append(np.shape(dist))
        return gaussian_rbf(dist, shape_c)

    monkeypatch.setattr(gf, "gaussian_rbf", counted)
    panel = _toy_panel(missing={(1, "a", "t1"), (2, "d", "t1"), (4, "b", "t2")})
    fuse_panel(panel)
    assert calls == [(4, 4), (4, 4)]
    calls.clear()
    fuse_time_step(panel.values[1], panel.stations, panel.target_ids)
    assert calls == [(4, 4)] * 2  # every hour has unmeasured cells of both targets
    calls.clear()
    stations = [make_station("a", 0.0, 0.0), make_station("b", 1.0, 0.0)]
    fuse_panel(ObservationPanel(hourly(3), stations, ["t1"], np.ones((3, 2, 1))))
    assert calls == []


def test_shape_c_auto_resolution():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    d = pairwise_distances(pts)
    # Off-diagonal distances are (1, 1, 1, 1, 2, 2): median 1 -> c = 0.5.
    assert resolve_shape_c(d, RbfConfig()) == pytest.approx(0.5)
    assert resolve_shape_c(d, RbfConfig(shape_c=9.0)) == 9.0
    assert resolve_shape_c(np.zeros((1, 1)), RbfConfig()) == 1.0


def test_config_validation():
    with pytest.raises(ValidationError):
        RbfConfig(shape_c=-1.0).validate()
    with pytest.raises(ValidationError):
        RbfConfig(ridge=-1e-3).validate()
    with pytest.raises(ValidationError):
        RbfConfig(distance_metric="chebyshev").validate()


def test_fuse_time_step_midpoint():
    stations = [
        make_station("a", 0.0, 0.0, targets=("t1",)),
        make_station("b", 1.0, 0.0, targets=("t1",)),
        make_station("c", 0.5, 0.0, targets=("t2",)),
    ]
    targets = ["t1", "t2"]
    panel_slice = np.array([
        [1.0, np.nan],
        [0.0, np.nan],
        [np.nan, 7.0],
    ])
    fused = fuse_time_step(panel_slice, stations, targets,
                           RbfConfig(shape_c=1.0, ridge=0.0))
    assert fused[0, 0] == 1.0 and fused[1, 0] == 0.0  # raw cells untouched
    assert fused[2, 1] == 7.0
    assert fused[2, 0] == pytest.approx(MIDPOINT_VALUE, abs=1e-12)
    assert not np.isnan(fused).any()


def test_fuse_time_step_no_source_errors():
    stations = [make_station("a", 0.0, 0.0, targets=("t1",)),
                make_station("b", 1.0, 0.0, targets=("t2",))]
    panel_slice = np.array([[np.nan, np.nan], [np.nan, 1.0]])
    with pytest.raises(FusionError, match="t1"):
        fuse_time_step(panel_slice, stations, ["t1", "t2"], RbfConfig(shape_c=1.0))
    with pytest.raises(ValidationError, match="infinite"):
        fuse_time_step(np.array([[np.inf, np.nan], [np.nan, 1.0]]), stations,
                       ["t1", "t2"], RbfConfig(shape_c=1.0))


def _toy_panel(t_total=6, missing=()):
    stations = [
        make_station("a", 0.0, 0.0, targets=("t1",)),
        make_station("b", 1.0, 0.0, targets=("t1", "t2")),
        make_station("c", 0.3, 0.8, targets=("t2",)),
        make_station("d", 0.9, 0.4, targets=("t1",)),
    ]
    targets = ["t1", "t2"]
    rng = np.random.default_rng(62)
    values = np.full((t_total, len(stations), len(targets)), np.nan)
    native = {("a", "t1"), ("b", "t1"), ("b", "t2"), ("c", "t2"), ("d", "t1")}
    ids = [st.id for st in stations]
    for t in range(t_total):
        for s, sid in enumerate(ids):
            for k, tid in enumerate(targets):
                if (sid, tid) in native and (t, sid, tid) not in missing:
                    values[t, s, k] = rng.normal()
    panel = ObservationPanel(hourly(t_total), stations, targets, values)
    panel.validate()
    return panel


def test_fuse_panel_dense_with_provenance():
    panel = _toy_panel(missing={(2, "a", "t1"), (4, "b", "t2")})
    fused = fuse_panel(panel, RbfConfig(ridge=0.0))
    assert fused.values.shape == panel.values.shape
    assert not np.isnan(fused.values).any()
    observed = ~np.isnan(panel.values)
    # Observed cells pass through bit-exact and are flagged raw.
    assert np.array_equal(fused.values[observed], panel.values[observed])
    assert np.array_equal(fused.raw_mask, observed)
    # The native-but-missing cell was interpolated, not copied.
    assert fused.raw_mask[2, 0, 0] == False  # noqa: E712


def test_fuse_panel_matches_per_step_route():
    # The cached panel path and the uncached single-step path must agree.
    panel = _toy_panel(missing={(1, "d", "t1")})
    config = RbfConfig(ridge=0.0)
    fused = fuse_panel(panel, config)
    for t in range(panel.values.shape[0]):
        step = fuse_time_step(panel.values[t], panel.stations, panel.target_ids, config)
        assert np.array_equal(fused.values[t], step)


def test_fuse_panel_rows_equal_one_hour_fusion_at_sixty_stations():
    # Hours that share an availability pattern are solved together; each
    # hour's bits must not depend on how many hours share its solve. A GEMM
    # over the stacked hours sums in another order and fails this.
    scenario = generate(SynthConfig(seed=6, hours=48, gap_rate=0.02,
                                    stations_per_source=(20, 20, 20),
                                    targets_per_source=(2, 3, 2)))
    panel = scenario.panel
    for metric in ("euclidean", "haversine_km"):
        config = RbfConfig(distance_metric=metric)
        fused = fuse_panel(panel, config)
        for t in range(panel.values.shape[0]):
            step = fuse_time_step(panel.values[t], panel.stations, panel.target_ids,
                                  config)
            assert np.array_equal(fused.values[t], step), (metric, t)


def test_refinement_rows_equal_one_row_solves(monkeypatch):
    # Near-coincident sources make A ill-conditioned enough that rows need
    # different numbers of refinement steps; a zero row needs none.
    rng = np.random.default_rng(64)
    pts = np.vstack([rng.uniform(0, 1, size=(10, 2)), [[0.5, 0.5], [0.5, 0.5 + 1e-3]]])
    d = pairwise_distances(pts)
    a = gaussian_rbf(d, resolve_shape_c(d, RbfConfig()))
    factor = gf._factor(a)
    b = rng.normal(size=(7, len(pts))) * np.logspace(-3, 5, 7)[:, None]
    b[3] = 0.0

    dpotrs, solves = lapack.dpotrs, []

    def counted(*args, **kwargs):
        solves.append(args)
        return dpotrs(*args, **kwargs)

    monkeypatch.setattr(lapack, "dpotrs", counted)
    singles, steps = [], []
    for row in b:
        solves.clear()
        singles.append(gf._solve_refined(factor, a, row[np.newaxis])[0])
        steps.append(len(solves) - 1)
    assert len(set(steps)) >= 2, steps
    batch = gf._solve_refined(factor, a, b)
    for j, single in enumerate(singles):
        assert np.array_equal(batch[j], single), j
    assert np.array_equal(build_interpolant(pts, b[0], RbfConfig(ridge=0.0)).weights, singles[0])


def test_fuse_panel_near_duplicate_sources_without_ridge():
    stations = [make_station("a", 0.0, 0.0), make_station("b", 1.0, 0.0),
                make_station("c", 1.0, 1e-9), make_station("d", 0.0, 1.0)]
    values = np.arange(12, dtype=np.float64).reshape(4, 3, 1) / 7.0
    values = np.concatenate([values, np.full((4, 1, 1), np.nan)], axis=1)
    panel = ObservationPanel(hourly(4), stations, ["t1"], values)
    with pytest.raises(SingularSystemError, match="ridge"):
        fuse_panel(panel, RbfConfig(ridge=0.0))


def test_fuse_panel_deterministic():
    panel = _toy_panel(missing={(3, "c", "t2")})
    a = fuse_panel(panel, RbfConfig())
    b = fuse_panel(panel, RbfConfig())
    assert a.values.tobytes() == b.values.tobytes()


def test_fusion_matrix_shape_rule():
    # S stations x K targets in, T x S x K out, regardless of who measures what.
    panel = _toy_panel(t_total=9)
    fused = fuse_panel(panel)
    assert fused.values.shape == (9, 4, 2)
    assert [st.id for st in panel.stations] == fused.station_ids
