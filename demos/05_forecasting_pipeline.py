"""End-to-end forecast: synthesize, fuse, window, train, roll out, diagnose.

A compact version of the full pipeline. Everything is seeded, so the numbers
below reproduce exactly. Runtime is roughly fifteen seconds.
"""

import numpy as np

from geofuse import (
    ModelConfig,
    StgcnModel,
    SynthConfig,
    TrainConfig,
    apply_normalization,
    build_adjacency,
    consistency_report,
    fit_normalization,
    fuse_panel,
    generate,
    kde_l1_distance,
    mae,
    make_windows,
    pairwise_distances,
    predict_batch,
    scaled_laplacian,
    train,
)

P, Q = 8, 2  # history window, forecast horizon

print("=== data: synthesize and fuse ===")
scenario = generate(SynthConfig(seed=91, stations_per_source=(4, 4),
                                targets_per_source=(1, 1), hours=600,
                                noise=0.02, gap_rate=0.02, coupling=0.7))
fused = fuse_panel(scenario.panel)
T, S, K = fused.values.shape
target = scenario.panel.target_ids[-1]
k = fused.target_ids.index(target)
print(f"fused panel {T} hours x {S} stations x {K} targets; forecasting '{target}'")

print()
print("=== windows and normalization ===")
n_windows = T - P - Q + 1
train_rows = min(T, round(0.6 * n_windows) - 1 + P + Q)
norm = fit_normalization(fused.values, fused.target_ids, train_rows)
normed = apply_normalization(fused.values, norm)
ds = make_windows(normed, fused.station_ids, fused.target_ids, P, Q, target)
for part in ("train", "val", "test"):
    x, _ = ds.part(part)
    print(f"  {part:5s}: {x.shape[0]:4d} windows of shape {x.shape[1:]}")

print()
print("=== train ===")
coords = np.array([[st.x, st.y] for st in scenario.stations])
op = scaled_laplacian(build_adjacency(pairwise_distances(coords)))
model = StgcnModel(ModelConfig(n_nodes=S, in_channels=K, history_steps=P,
                               channels=(12, 6, 12), time_kernel=2,
                               graph_kernel=2, dropout=0.0), seed=92)
result = train(model, ds, op, TrainConfig(lr=0.005, batch_size=32,
                                          epochs=60, seed=93))
first, last = result.history[0], result.history[-1]
print(f"epoch  1: train loss {first.train_loss:.4f}, val loss {first.val_loss:.4f}")
print(f"epoch {len(result.history):2d}: train loss {last.train_loss:.4f}, "
      f"val loss {last.val_loss:.4f}")
print(f"kept the epoch-{result.best_epoch} weights (lowest validation loss)")

print()
print("=== rollout vs persistence ===")
test_x, test_y = ds.part("test")
pred = predict_batch(model, test_x, op, Q, k)
truth = test_y[..., 0]
persist = np.broadcast_to(test_x[:, -1, :, k][:, None, :], truth.shape)
m = mae(truth.ravel(), pred.ravel())
p = mae(truth.ravel(), persist.ravel())
print(f"{Q}-step rollout MAE: model {m:.4f}, hold-last-value {p:.4f} "
      f"({(1 - m / p) * 100:+.1f}%)")
print("Smooth fields make persistence a strong baseline; the margin grows")
print("with more hours and epochs than this quick demo spends.")

print()
print("=== does fusion distort the data? ===")


def show(panel, fused_values, target_ids):
    rep = consistency_report(panel, fused_values, target_ids)
    for tid_, tc in rep.items():
        l1 = kde_l1_distance(tc.grid, tc.raw_density, tc.fused_density)
        print(f"  {tid_}: fused/raw variance ratio {tc.ratio:.3f}, "
              f"KDE L1 distance {l1:.3f}")


show(scenario.panel.values, fused.values, fused.target_ids)
print("A ratio near 1 and a small L1 distance mean the fused panel keeps the")
print("distribution of the raw observations. The inflated second target flags")
print("a coverage hole: its four stations leave part of the domain where the")
print("interpolant decays toward zero and overshoots the local level.")

print()
print("Re-run the diagnostic with six stations per source on a spread-out")
print("grid layout:")
dense = generate(SynthConfig(seed=91, stations_per_source=(6, 6),
                             targets_per_source=(1, 1), hours=600,
                             noise=0.02, gap_rate=0.02, coupling=0.7,
                             placement="grid"))
dense_fused = fuse_panel(dense.panel)
show(dense.panel.values, dense_fused.values, dense_fused.target_ids)
print("Coverage, not cleverness, is what makes interpolation faithful.")
