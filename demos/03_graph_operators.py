"""Station graph construction and the spectral operators built on it.

Builds the distance-weighted adjacency for a station layout, then the two
operators the forecaster consumes: the renormalized adjacency (first-order
convolutions) and the scaled Laplacian (Chebyshev polynomial filters).
"""

import numpy as np

from geofuse import (
    build_adjacency,
    normalized_laplacian,
    pairwise_distances,
    renormalized_adjacency,
    scaled_laplacian,
)

rng = np.random.default_rng(11)
coords = rng.uniform(0.0, 1.0, size=(8, 2))
dists = pairwise_distances(coords)

print("=== weighted adjacency ===")
adj = build_adjacency(dists)
print(f"8 stations, sigma = {adj.sigma:.4f} (std of pairwise distances)")
print(f"weights w = exp(-(d/sigma)^2): symmetric {np.array_equal(adj.values, adj.values.T)}, "
      f"zero diagonal {bool((np.diag(adj.values) == 0).all())}")
off = adj.values[np.triu_indices(8, 1)]
print(f"edge weights span [{off.min():.4f}, {off.max():.4f}]; "
      f"nearest pair strongest, farthest weakest")

print()
print("=== normalized Laplacian ===")
lap = normalized_laplacian(adj)
eigs = np.linalg.eigvalsh(lap)
with np.printoptions(precision=4, suppress=True):
    print(f"eigenvalues: {eigs}")
print("The spectrum lives in [0, 2]; the zero eigenvalue reflects the")
print("connected graph's constant mode.")

print()
print("=== scaled Laplacian for Chebyshev filters ===")
scaled = scaled_laplacian(adj)
s_eigs = np.linalg.eigvalsh(scaled.matrix)
print(f"lambda_max from the dense eigensolver: {eigs[-1]:.6f}")
print(f"rescaled spectrum: [{s_eigs.min():.6f}, {s_eigs.max():.6f}] "
      f"(inside [-1, 1], where Chebyshev polynomials are bounded)")

print()
print("=== renormalized adjacency for first-order convolutions ===")
ren = renormalized_adjacency(adj)
r_eigs = np.linalg.eigvalsh(ren.matrix)
print(f"D~^-1/2 (A + I) D~^-1/2 spectrum: [{r_eigs.min():.4f}, {r_eigs.max():.4f}]")
print("Adding self-loops before normalizing keeps repeated application from")
print("exploding or oscillating, so deep stacks stay stable.")
