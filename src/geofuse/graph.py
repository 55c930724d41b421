"""Station graph construction and the spectral operators the model consumes.

Stations form a fully connected weighted graph: w(i, j) = exp(-d(i,j)^2 /
sigma^2) with sigma the standard deviation of the off-diagonal pairwise
distances, so the weight scale adapts to the network's geographic spread.
From the adjacency come the symmetric normalized Laplacian, the renormalized
adjacency (self-loops added before degree normalization) and the scaled
Laplacian 2 L / lambda_max - I whose spectrum lands in [-1, 1] for the
Chebyshev recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphError, ValidationError


@dataclass
class WeightedAdjacency:
    values: np.ndarray
    sigma: float

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]


@dataclass
class GraphOperator:
    """A matrix the graph convolution multiplies by, tagged with its kind."""

    kind: str  # "renormalized_adjacency" or "scaled_laplacian"
    matrix: np.ndarray


def _check_square(m: np.ndarray, label: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{label} must be square, got {m.shape}")
    return m


def build_adjacency(dists: np.ndarray, sigma: float | None = None) -> WeightedAdjacency:
    """Gaussian-of-distance weights with a zero diagonal.

    ``sigma`` defaults to the standard deviation of the off-diagonal
    distances. Degenerate geometries (all stations coincident, or a single
    station) fall back first to the mean off-diagonal distance and then to
    1.0, which yields a uniform graph rather than a crash. A graph of two or
    more stations whose weights all underflow to 0 raises ``GraphError``, as
    do distances and a sigma whose squares overflow.
    """
    d = _check_square(dists, "distance matrix")
    if not np.isfinite(d).all() or (d < 0).any():
        raise ValidationError("distances must be finite and non-negative")
    if not np.allclose(d, d.T):
        raise ValidationError("distance matrix must be symmetric")
    n = d.shape[0]
    off = d[~np.eye(n, dtype=bool)]
    # A tiny sigma underflows sigma^2 to 0 and every weight with it; the
    # edge check in _adjacency_matrix reports that instead of numpy warnings.
    # Distances and a sigma past about 1e154 overflow their squares into
    # inf / inf = NaN, reported below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if sigma is None:
            sigma = float(np.std(off)) if off.size else 0.0
            if sigma <= 0.0:
                sigma = float(np.mean(off)) if off.size else 0.0
            if sigma <= 0.0:
                sigma = 1.0
        elif not sigma > 0:
            raise ValidationError(f"sigma must be positive, got {sigma}")
        values = np.exp(-(d * d) / (sigma * sigma))
    np.fill_diagonal(values, 0.0)
    if np.isnan(values).any():
        raise GraphError(f"distances up to {d.max():.6g} with sigma {sigma:.6g} "
                         "over- or underflow float64 when squared")
    values = (values + values.T) / 2.0  # exact symmetry against rounding
    return WeightedAdjacency(_adjacency_matrix(values), float(sigma))


def _adjacency_matrix(adj) -> np.ndarray:
    m = adj.values if isinstance(adj, WeightedAdjacency) else adj
    m = _check_square(m, "adjacency")
    if not np.isfinite(m).all():
        raise ValidationError("adjacency weights must be finite")
    if (m < 0).any():
        raise ValidationError("adjacency weights must be non-negative")
    if not np.allclose(m, m.T):
        raise ValidationError("adjacency must be symmetric")
    if np.any(np.diag(m) != 0.0):
        raise ValidationError("adjacency diagonal must be zero (no self-loops)")
    if m.shape[0] > 1 and not m.any():
        raise GraphError("adjacency has no edge: every weight between two stations is 0")
    return m


def normalized_laplacian(adj) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2}, with isolated nodes contributing identity rows."""
    a = _adjacency_matrix(adj)
    deg = a.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    lap = -a * inv_sqrt[:, None] * inv_sqrt[None, :]
    np.fill_diagonal(lap, 1.0)  # the adjacency diagonal is zero, so I - 0 = 1
    lap = (lap + lap.T) / 2.0
    return lap


def renormalized_adjacency(adj) -> GraphOperator:
    """D~^{-1/2} (A + I) D~^{-1/2} where D~ includes the added self-loops."""
    a = _adjacency_matrix(adj)
    a_tilde = a + np.eye(a.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))  # degrees >= 1, never zero
    m = a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]
    return GraphOperator("renormalized_adjacency", (m + m.T) / 2.0)


def scaled_laplacian(adj) -> GraphOperator:
    """2 L / lambda_max - I, spectrum in [-1, 1].

    lambda_max is the top eigenvalue from the dense symmetric eigensolver.
    L has a unit diagonal, so its trace is n and lambda_max >= 1: the
    division is always defined.
    """
    lap = normalized_laplacian(adj)
    if lap.shape[0] == 0:
        raise ValidationError("graph has no nodes")
    lam = float(np.linalg.eigvalsh(lap)[-1])
    m = 2.0 * lap / lam - np.eye(lap.shape[0])
    return GraphOperator("scaled_laplacian", (m + m.T) / 2.0)


def spectral_radius_bound(op: GraphOperator) -> float:
    """Largest |eigenvalue| of a symmetric operator (diagnostic helper)."""
    if not np.allclose(op.matrix, op.matrix.T):
        raise GraphError("operator matrix must be symmetric")
    return float(np.max(np.abs(np.linalg.eigvalsh(op.matrix))))
