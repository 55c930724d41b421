"""Graph construction and spectral operators against dense eigensolver oracles."""

import warnings

import numpy as np
import pytest

from geofuse.errors import GraphError, ValidationError
from geofuse.fusion import pairwise_distances
from geofuse.synth import SynthConfig, generate
from geofuse.graph import (
    GraphOperator,
    build_adjacency,
    normalized_laplacian,
    renormalized_adjacency,
    scaled_laplacian,
    spectral_radius_bound,
)

E_INV = 0.36787944117144233


def random_geometry(rng, n):
    pts = rng.uniform(0, 10, size=(n, 2))
    return pairwise_distances(pts)


def test_weight_at_sigma_distance():
    # Two stations exactly sigma apart get weight exp(-1).
    d = np.array([[0.0, 2.5], [2.5, 0.0]])
    adj = build_adjacency(d, sigma=2.5)
    assert adj.values[0, 1] == pytest.approx(E_INV, abs=1e-15)
    assert adj.values[0, 0] == 0.0 and adj.values[1, 1] == 0.0


def test_default_sigma_is_offdiagonal_std():
    rng = np.random.default_rng(70)
    d = random_geometry(rng, 9)
    adj = build_adjacency(d)
    off = d[~np.eye(9, dtype=bool)]
    assert adj.sigma == pytest.approx(float(np.std(off)), rel=1e-12)
    expected = np.exp(-(d ** 2) / adj.sigma ** 2)
    np.fill_diagonal(expected, 0.0)
    assert np.allclose(adj.values, expected, atol=1e-15)


def test_adjacency_symmetric_zero_diagonal():
    rng = np.random.default_rng(71)
    for n in (2, 5, 11):
        adj = build_adjacency(random_geometry(rng, n))
        assert np.array_equal(adj.values, adj.values.T)
        assert np.all(np.diag(adj.values) == 0.0)
        off = adj.values[~np.eye(n, dtype=bool)]
        assert np.all(off > 0.0) and np.all(off <= 1.0)


def test_degenerate_geometries_fall_back():
    # All coincident stations: zero distances, uniform unit weights.
    adj = build_adjacency(np.zeros((3, 3)))
    off = adj.values[~np.eye(3, dtype=bool)]
    assert np.all(off == 1.0)
    # A single station is a zero graph with a usable sigma.
    single = build_adjacency(np.zeros((1, 1)))
    assert single.values.shape == (1, 1) and single.values[0, 0] == 0.0


def test_adjacency_validation():
    with pytest.raises(ValidationError):
        build_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValidationError):
        build_adjacency(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValidationError):
        build_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]), sigma=0.0)
    # A symmetric non-finite pair is neither a usable weight nor an asymmetry.
    for bad in (np.inf, np.nan):
        for operator in (normalized_laplacian, renormalized_adjacency, scaled_laplacian):
            with pytest.raises(ValidationError, match="weights must be finite"):
                operator(np.array([[0.0, bad], [bad, 0.0]]))
    # Two or more stations with no edge: weights that underflow, or all zeros.
    with pytest.raises(GraphError, match="no edge"):
        build_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]), sigma=1e-300)
    for operator in (normalized_laplacian, renormalized_adjacency, scaled_laplacian):
        with pytest.raises(GraphError, match="no edge"):
            operator(np.zeros((3, 3)))
    # Stations about 1e155 or more apart: d^2 / sigma^2 is inf / inf.
    far = np.array([[0.0, 1e200, 2e200], [1e200, 0.0, 3e200], [2e200, 3e200, 0.0]])
    for dists in (far[:2, :2], far):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError, match=r"distances up to [0-9e+.]+ with sigma"):
                build_adjacency(dists)


def test_two_node_laplacian_closed_form():
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    lap = normalized_laplacian(adj)
    assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
    assert np.allclose(np.linalg.eigvalsh(lap), [0.0, 2.0], atol=1e-12)


def test_laplacian_spectrum_bounds():
    rng = np.random.default_rng(72)
    for _ in range(15):
        n = int(rng.integers(2, 12))
        lap = normalized_laplacian(build_adjacency(random_geometry(rng, n)))
        eig = np.linalg.eigvalsh(lap)
        assert eig.min() >= -1e-10
        assert eig.max() <= 2.0 + 1e-10
        # A connected graph has eigenvalue 0 with the sqrt-degree eigenvector.
        assert abs(eig.min()) < 1e-10


def test_two_node_renormalized_adjacency():
    op = renormalized_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert op.kind == "renormalized_adjacency"
    assert np.allclose(op.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_renormalized_adjacency_spectrum_in_unit_interval():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        op = renormalized_adjacency(build_adjacency(random_geometry(rng, n)))
        eig = np.linalg.eigvalsh(op.matrix)
        assert eig.max() <= 1.0 + 1e-10
        assert eig.min() >= -1.0 - 1e-10


def test_scaled_laplacian_spectrum():
    rng = np.random.default_rng(75)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        op = scaled_laplacian(build_adjacency(random_geometry(rng, n)))
        assert op.kind == "scaled_laplacian"
        eig = np.linalg.eigvalsh(op.matrix)
        assert eig.min() >= -1.0 - 1e-9
        assert eig.max() <= 1.0 + 1e-9
        assert spectral_radius_bound(op) <= 1.0 + 1e-9
        # The Laplacian's top eigenvector maps to scaled eigenvalue exactly 1.
        assert eig.max() == pytest.approx(1.0, abs=1e-7)


def test_scaled_laplacian_on_sixty_station_geometry():
    # A geometry on which an iterative lambda_max estimate failed to converge.
    scenario = generate(SynthConfig(seed=106, stations_per_source=(20, 20, 20)))
    coords = np.array([[st.x, st.y] for st in scenario.stations])
    op = scaled_laplacian(build_adjacency(pairwise_distances(coords)))
    eig = np.linalg.eigvalsh(op.matrix)
    assert eig.min() >= -1.0 - 1e-9
    assert eig.max() == pytest.approx(1.0, abs=1e-12)


def test_single_node_graph_operators():
    adj = build_adjacency(np.zeros((1, 1)))
    lap = normalized_laplacian(adj)
    assert lap.shape == (1, 1)
    op = scaled_laplacian(adj)
    assert op.matrix.shape == (1, 1)
    assert abs(op.matrix[0, 0]) <= 1.0 + 1e-12
    ren = renormalized_adjacency(adj)
    assert ren.matrix[0, 0] == pytest.approx(1.0)


def test_operator_kind_tags_are_stable():
    op = GraphOperator("scaled_laplacian", np.eye(2))
    assert op.kind == "scaled_laplacian"
