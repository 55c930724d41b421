"""One repetition of a benchmark workload, run in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --workdir DIR --out RESULT.json [--check]

``run.py`` starts this with ``src`` on ``PYTHONPATH`` and BLAS pinned to one
thread. The worker generates the workload's inputs from the seed (timed as
set-up), runs the workload once (timed as wall time), with ``--check`` checks
the outputs, and writes one JSON result. MODE is ``plain`` (no tracing), ``spans`` (traced) or
``memory`` (traced, with tracemalloc peaks).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

import geofuse.cli
import geofuse.fusion
import geofuse.graph
import geofuse.ingest
import geofuse.stgcn
from geofuse.errors import GeofuseError
from geofuse.io import read_adjacency_csv, read_fused_csv
from geofuse.synth import SynthConfig, generate, write_scenario_csvs

from tracer import MODEL_LAYERS, Tracer, pct

# Sizes. The 13-station panel is the paper's. Panels past 60 stations hit
# the known limits listed in README.md.
PANEL_13 = dict(stations_per_source=(5, 4, 4), targets_per_source=(2, 3, 2))
PANEL_60 = dict(stations_per_source=(20, 20, 20), targets_per_source=(2, 3, 2))
RUN_ALL_HOURS = 2000
RUN_ALL_EPOCHS = 1
FUSE_REPORT_HOURS = 300
HISTORY = 12              # the model's history_steps: the hourly warm window
HOURLY_HOURS = 250        # online hours per repetition
HORIZON = 3
PREDICTED = "t07"         # the coupled target of the (2, 3, 2) panel
SETUP_REPEATS = 3

# Hourly outputs must match the batch path to this relative tolerance, so a
# later multi-right-hand-side solve is not rejected for last-bit changes.
MATCH_RTOL = 1e-9

LAYERS = ("cli", "ingest", "fusion", "graph", "io", "checkpoint", "tensor",
          "stgcn", "optim", "metrics")


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _checkpoint_digest(path: Path) -> str:
    """Digest of a checkpoint's arrays; the npz container stamps write times."""
    h = hashlib.sha256()
    with np.load(path, allow_pickle=False) as archive:
        for name in sorted(archive.files):
            h.update(name.encode())
            h.update(archive[name].tobytes())
    return h.hexdigest()


def _csv_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def fusion_counts(values: np.ndarray, native: np.ndarray) -> dict[str, int]:
    """What per-hour fusion has to do on a (T, S, K) panel.

    A solve is one (hour, target) with at least one cell to fill; a pattern
    is a distinct (target, availability) pair, which is what a per-pattern
    factorization cache keys on.
    """
    available = native[None] & ~np.isnan(values)            # (T, S, K)
    fill = ~available
    needs = fill.any(axis=1)                                 # (T, K)
    patterns = set()
    for t, k in zip(*np.nonzero(needs)):
        patterns.add((int(k), available[t, :, k].tobytes()))
    return {"fusion.solves": int(needs.sum()), "fusion.patterns": len(patterns),
            "fusion.cells_interpolated": int(fill.sum())}


def _interp_mae(fused: np.ndarray, filled: np.ndarray, truth: np.ndarray) -> float:
    """MAE of interpolated cells against the noiseless synthetic field."""
    return float(np.abs(fused[filled] - truth[filled]).mean())


# ------------------------------------------------------------------ workloads
#
# Each workload has set-up (timed as setup_s), run (timed as wall_s; returns
# one exit code per operation, nonzero for a failed one), check (the output
# checks, made on the first repetition of a run), digest (compared across all
# repetitions of a run) and accuracy (the per-layer accuracy figures). A
# repetition with a failed operation is counted, not checked.

class RunAll13:
    """``geofuse run-all`` on the 13-station panel: the paper's pipeline."""

    def setup(self, seed: int, work: Path) -> None:
        self.work, self.seed = work, seed
        self.scenario = generate(SynthConfig(seed=seed, hours=RUN_ALL_HOURS,
                                             gap_rate=0.0, **PANEL_13))
        write_scenario_csvs(self.scenario, work / "stations.csv",
                            work / "observations.csv")
        (work / "pipeline.cfg").write_text(
            f"predicted_target = {PREDICTED}\nepochs = {RUN_ALL_EPOCHS}\nseed = {seed}\n")
        self.hours = RUN_ALL_HOURS

    def run(self) -> list[int]:
        w = self.work
        return [geofuse.cli.main([
            "run-all", "--stations", str(w / "stations.csv"),
            "--observations", str(w / "observations.csv"),
            "--config", str(w / "pipeline.cfg"), "--out-dir", str(w / "out")])]

    def test_mae(self) -> float:
        """The pooled row of metrics.csv."""
        pooled = (self.work / "out" / "metrics.csv").read_text().splitlines()[-1]
        return float(pooled.split(",")[1])

    def check(self) -> list[str]:
        """The trained model must at least halve the error of its initial weights.

        Beating persistence takes about 100 epochs on this field (acceptance
        test c07); a broken gradient or optimiser leaves the error near the
        untrained level.
        """
        gi, stgcn = geofuse.ingest, geofuse.stgcn
        out = self.work / "out"
        fused = read_fused_csv(out / "fused.csv")
        trained, meta = stgcn.load_model(out / "model.ckpt")
        norm = gi.NormalizationParams(fused.target_ids,
                                      np.asarray(meta["normalization"]["mins"]),
                                      np.asarray(meta["normalization"]["maxs"]))
        _, adjacency = read_adjacency_csv(out / "adjacency.csv")
        op = geofuse.graph.scaled_laplacian(adjacency)
        ds = gi.make_windows(gi.apply_normalization(fused.values, norm),
                             fused.station_ids, fused.target_ids, HISTORY, HORIZON,
                             PREDICTED)
        test_x, test_y = ds.part("test")
        k = fused.target_ids.index(PREDICTED)
        untrained = stgcn.StgcnModel(trained.config, seed=self.seed)
        pred = stgcn.predict_batch(untrained, test_x, op, HORIZON, k)
        truth = gi.invert_normalization(test_y[..., 0], norm, PREDICTED)
        baseline = float(np.abs(gi.invert_normalization(pred, norm, PREDICTED)
                                - truth).mean())
        mae = self.test_mae()
        if not mae < 0.5 * baseline:
            return [f"test MAE {mae:.6g} not below half the untrained model's "
                    f"MAE {baseline:.6g}"]
        return []

    def digest(self) -> str:
        out = self.work / "out"
        files = sorted(p for p in out.iterdir() if p.suffix == ".csv")
        return _digest(files) + _checkpoint_digest(out / "model.ckpt")

    def accuracy(self, tracer: Tracer) -> dict[str, float]:
        (_, fused), = tracer.calls("fusion.fuse_panel")
        return {"stgcn.test_mae": self.test_mae(),
                "fusion.interp_mae": _interp_mae(fused.values, ~fused.raw_mask,
                                                 self.scenario.truth)}


class FuseReport60:
    """``geofuse fuse``, ``graph`` and ``report`` on the gappy 60-station panel."""

    def setup(self, seed: int, work: Path) -> None:
        self.work = work
        self.scenario = generate(SynthConfig(seed=seed, hours=FUSE_REPORT_HOURS,
                                             gap_rate=0.02, **PANEL_60))
        write_scenario_csvs(self.scenario, work / "stations.csv",
                            work / "observations.csv")
        self.hours = FUSE_REPORT_HOURS

    def run(self) -> list[int]:
        w = self.work
        st, obs = str(w / "stations.csv"), str(w / "observations.csv")
        return [
            geofuse.cli.main(["fuse", "--stations", st, "--observations", obs,
                              "--out", str(w / "fused.csv")]),
            geofuse.cli.main(["graph", "--stations", st, "--out", str(w / "adjacency.csv")]),
            geofuse.cli.main(["report", "--stations", st, "--observations", obs,
                              "--fused", str(w / "fused.csv"),
                              "--out-dir", str(w / "report")]),
        ]

    def check(self) -> list[str]:
        errors = []
        cells: dict[tuple[str, str, str], str] = {}
        with open(self.work / "fused.csv") as fh:
            next(fh)
            for line in fh:
                ts, sid, tid, value, _ = line.rstrip("\n").split(",")
                if value == "":
                    errors.append(f"empty fused cell {ts},{sid},{tid}")
                    break
                cells[ts, sid, tid] = value
        expected = self.scenario.panel.values.size
        if len(cells) != expected:
            errors.append(f"fused.csv has {len(cells)} cells, expected {expected}")
        with open(self.work / "observations.csv") as fh:
            next(fh)
            for line in fh:
                ts, sid, tid, value = line.rstrip("\n").split(",")
                if value and float(cells.get((ts, sid, tid), "nan")) != float(value):
                    errors.append(f"observation {ts},{sid},{tid}={value} changed "
                                  f"to {cells.get((ts, sid, tid))}")
                    break
        with open(self.work / "report" / "variance.csv") as fh:
            next(fh)
            for line in fh:
                ratio = float(line.rstrip("\n").split(",")[3])
                if not np.isfinite(ratio):
                    errors.append(f"non-finite variance ratio: {line.strip()}")
        return errors

    def digest(self) -> str:
        files = [self.work / "fused.csv", self.work / "adjacency.csv"]
        return _digest(files + sorted((self.work / "report").iterdir()))

    def accuracy(self, tracer: Tracer) -> dict[str, float]:
        (_, fused), = tracer.calls("fusion.fuse_panel")
        return {"stgcn.test_mae": 0.0,
                "fusion.interp_mae": _interp_mae(fused.values, ~fused.raw_mask,
                                                 self.scenario.truth)}


class Hourly60:
    """Online use: per hour, fuse the raw slice and forecast 3 hours ahead."""

    def setup(self, seed: int, work: Path) -> None:
        gi = geofuse.ingest
        self.work = work
        self.scenario = generate(SynthConfig(seed=seed, hours=HISTORY + HOURLY_HOURS,
                                             gap_rate=0.02, **PANEL_60))
        write_scenario_csvs(self.scenario, work / "stations.csv",
                            work / "observations.csv")
        self.stations = gi.load_stations(work / "stations.csv")
        self.raw = gi.load_observations(work / "observations.csv", self.stations)
        coords = np.array([[s.x, s.y] for s in self.stations])
        adjacency = geofuse.graph.build_adjacency(geofuse.fusion.pairwise_distances(coords))
        try:
            self.op = geofuse.graph.scaled_laplacian(adjacency)
        except GeofuseError:
            # lambda_max's power iteration does not converge on about 1 in 30
            # of these geometries; every forecast of such a seed then fails
            # and is counted as a failed hour.
            self.op = None
        targets = self.raw.target_ids
        self.model = geofuse.stgcn.StgcnModel(geofuse.stgcn.ModelConfig(
            n_nodes=len(self.stations), in_channels=len(targets),
            history_steps=HISTORY), seed=seed)
        self.k = targets.index(PREDICTED)
        self.norm = gi.fit_normalization(self.raw.values, targets, HISTORY)
        warm = np.stack([
            geofuse.fusion.fuse_time_step(self.raw.values[t], self.stations, targets)
            for t in range(HISTORY)])
        self.window = gi.apply_normalization(warm, self.norm)
        self.hours = HOURLY_HOURS
        self.samples: list[float] = []

    def run(self) -> list[int]:
        fuse, gi, stgcn = geofuse.fusion, geofuse.ingest, geofuse.stgcn
        values, targets = self.raw.values, self.raw.target_ids
        window = self.window
        self.fused_rows, self.forecasts = {}, {}
        codes = []
        for t in range(HISTORY, HISTORY + HOURLY_HOURS):
            start = time.perf_counter()
            try:
                fused = fuse.fuse_time_step(values[t], self.stations, targets,
                                            timestamp=self.raw.timestamps[t])
                self.fused_rows[t] = fused
                row = gi.apply_normalization(fused, self.norm)
                window = np.concatenate([window[1:], row[np.newaxis]])
                if self.op is None:
                    codes.append(1)
                    continue
                pred = stgcn.predict(self.model, window, self.op, HORIZON, self.k)
                forecast = gi.invert_normalization(pred, self.norm, PREDICTED)
            except GeofuseError:
                codes.append(1)
                continue
            self.samples.append((time.perf_counter() - start) * 1e3)
            self.forecasts[t] = forecast
            codes.append(0)
        return codes

    def _stacked(self):
        """Hours with a forecast, with their fused rows and forecasts."""
        hours = sorted(self.forecasts)
        return (hours, np.stack([self.fused_rows[t] for t in hours]),
                np.stack([self.forecasts[t] for t in hours]))

    def check(self) -> list[str]:
        gi = geofuse.ingest
        errors = []
        raw = self.raw
        n = HISTORY + HOURLY_HOURS
        panel = gi.ObservationPanel(raw.timestamps[:n], raw.stations, raw.target_ids,
                                    raw.values[:n])
        batch = geofuse.fusion.fuse_panel(panel).values
        hours, fused, forecasts = self._stacked()
        if not np.allclose(fused, batch[hours], rtol=MATCH_RTOL, atol=0.0):
            errors.append("fuse_time_step rows differ from fuse_panel rows")
        normed = gi.apply_normalization(batch, self.norm)
        windows = np.stack([normed[t - HISTORY + 1:t + 1] for t in hours])
        pred = geofuse.stgcn.predict_batch(self.model, windows, self.op, HORIZON, self.k)
        ref = gi.invert_normalization(pred, self.norm, PREDICTED)
        if not np.all(np.isfinite(forecasts)):
            errors.append("non-finite forecast")
        elif not np.allclose(forecasts, ref, rtol=MATCH_RTOL, atol=0.0):
            errors.append("hourly forecasts differ from predict_batch on the same windows")
        return errors

    def digest(self) -> str:
        _, fused, forecasts = self._stacked()
        return hashlib.sha256(fused.tobytes() + forecasts.tobytes()).hexdigest()

    def accuracy(self, tracer: Tracer) -> dict[str, float]:
        hours = sorted(self.fused_rows)
        fused = np.stack([self.fused_rows[t] for t in hours])
        return {"stgcn.test_mae": 0.0,
                "fusion.interp_mae": _interp_mae(fused, np.isnan(self.raw.values[hours]),
                                                 self.scenario.truth[hours])}


WORKLOADS = {"run-all-13": RunAll13, "fuse-report-60": FuseReport60,
             "hourly-60": Hourly60}


# ------------------------------------------------------------------ tracing

def layer_metrics(tracer: Tracer, workload, wall_s: float) -> dict[str, float]:
    ms = lambda xs: [x * 1e3 for x in xs]
    total = lambda name: sum(tracer.durations(name))
    out: dict[str, float] = {}

    train_s = total("stgcn.train")
    samples = sum(args[1].n_train * args[3].epochs
                  for args, _ in tracer.calls("stgcn.train"))
    out["stgcn.train_s"] = train_s
    out["stgcn.train_samples_per_s"] = samples / train_s if train_s else 0.0
    out["stgcn.step_fwd_ms.p50"] = pct(ms(tracer.durations("tensor.Tape")), 50)
    out["tensor.backward_ms.p50"] = pct(ms(tracer.durations("tensor.backward")), 50)
    out["optim.adam_step_ms.p50"] = pct(ms(tracer.durations("optim.Adam.step")), 50)
    out["tensor.tape_records_per_step"] = pct(tracer.tape_records, 50)
    for path in MODEL_LAYERS + ("head",):
        out[f"stgcn.{path}.fwd_ms"] = pct(
            ms(tracer.train_step_spans(f"stgcn.{path}.forward")), 50)
    out["tensor.gc_collections"] = tracer.gc_collections
    out["tensor.gc_pause_ms"] = tracer.gc_pause_s * 1e3
    out["stgcn.predict_batch_s"] = sum(
        s[2] - s[1] for s in tracer.spans
        if s[0] == "stgcn.predict_batch"
        and (s[3] < 0 or tracer.spans[s[3]][0] != "stgcn.predict"))
    predict = ms(tracer.durations("stgcn.predict"))
    out["stgcn.predict_ms.p50"] = pct(predict, 50)
    out["stgcn.predict_ms.p99"] = pct(predict, 99)

    out["fusion.fuse_panel_s"] = total("fusion.fuse_panel")
    step = ms(tracer.durations("fusion.fuse_time_step"))
    out["fusion.fuse_time_step_ms.p50"] = pct(step, 50)
    out["fusion.fuse_time_step_ms.p99"] = pct(step, 99)
    if isinstance(workload, Hourly60):
        raw = workload.raw
        fused_inputs = [(raw.values[HISTORY:HISTORY + HOURLY_HOURS], raw.native_mask())]
    else:
        fused_inputs = [(args[0].values, args[0].native_mask())
                        for args, _ in tracer.calls("fusion.fuse_panel")]
    counts = {"fusion.solves": 0, "fusion.patterns": 0, "fusion.cells_interpolated": 0}
    for values, native in fused_inputs:
        for key, value in fusion_counts(values, native).items():
            counts[key] += value
    out.update(counts)
    solves, patterns = counts["fusion.solves"], counts["fusion.patterns"]
    out["fusion.cache_hit_ratio"] = (solves - patterns) / solves if solves else 0.0

    out["io.read_fused_csv_s"] = total("io.read_fused_csv")
    out["io.write_fused_csv_s"] = total("io.write_fused_csv")
    fused_csv = [p for p in (workload.work / "fused.csv",
                             workload.work / "out" / "fused.csv") if p.exists()]
    out["io.fused_csv_mib"] = fused_csv[0].stat().st_size / 2**20 if fused_csv else 0.0
    out["io.write_report_csvs_s"] = total("io.write_report_csvs")
    out["checkpoint.save_model_ms"] = total("stgcn.save_model") * 1e3
    out["metrics.consistency_report_s"] = total("metrics.consistency_report")

    loads = len(tracer.durations("ingest.load_observations"))
    out["ingest.load_observations_s"] = total("ingest.load_observations")
    out["ingest.rows"] = (loads * _csv_rows(workload.work / "observations.csv")
                          if loads else 0)
    out["ingest.clean_panel_ms"] = total("ingest.clean_panel") * 1e3
    out["ingest.cells_gap_filled"] = sum(
        int(np.isnan(args[0].values).sum() - np.isnan(result.values).sum())
        for args, result in tracer.calls("ingest.clean_panel") if result is not None)
    out["ingest.make_windows_ms"] = total("ingest.make_windows") * 1e3
    out["graph.build_adjacency_ms"] = total("graph.build_adjacency") * 1e3
    out["graph.scaled_laplacian_ms"] = total("graph.scaled_laplacian") * 1e3

    self_times = tracer.self_times()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    out["trace.stage_coverage"] = tracer.stage_seconds() / wall_s
    return out


def memory_metrics(tracer: Tracer) -> dict[str, float]:
    return {
        "stgcn.train_peak_mib": tracer.peaks.get("stgcn.train", 0.0),
        "fusion.fuse_panel_peak_mib": tracer.peaks.get("fusion.fuse_panel", 0.0),
        "metrics.consistency_report_peak_mib":
            tracer.peaks.get("metrics.consistency_report", 0.0),
    }


# ------------------------------------------------------------------ main

def _versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "memory"), default="plain")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--check", action="store_true",
                        help="run the output checks, not only the digest")
    args = parser.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.mode != "plain":
        # Installed before set-up so the model built there gets layer spans;
        # set-up spans are dropped below.
        tracer = Tracer(memory=args.mode == "memory")
        tracer.install()

    # Set-up is short, so it is timed several times and the median kept; the
    # last set-up's state is the one the workload runs on.
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = WORKLOADS[args.workload]()
        start = time.perf_counter()
        workload.setup(args.seed, args.workdir)
        setups.append(time.perf_counter() - start)
    setup_s = statistics.median(setups)

    if tracer is not None:
        tracer.spans.clear()
        tracer.tape_records.clear()
        tracer.gc_collections, tracer.gc_pause_s = 0, 0.0
    if args.mode == "memory":
        tracemalloc.start()
    start, cpu_start = time.perf_counter(), time.process_time()
    codes = workload.run()
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    if args.mode == "memory":
        tracemalloc.stop()
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = sum(1 for c in codes if c != 0)
    errors = workload.check() if args.check and not failed else []
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(codes),
        "failed": failed,
        "errors": errors,
        "digest": workload.digest() if not failed else None,
        # Latency per panel hour: one sample per online hour, or the
        # repetition's wall time spread over its panel hours.
        "hour_ms": getattr(workload, "samples", None) or [wall_s * 1e3 / workload.hours],
        "versions": _versions(),
    }
    if args.mode == "spans":
        result["layers"] = layer_metrics(tracer, workload, wall_s)
        result["layers"].update(
            workload.accuracy(tracer) if not failed
            else {"stgcn.test_mae": 0.0, "fusion.interp_mae": 0.0})
    elif args.mode == "memory":
        result["layers"] = memory_metrics(tracer)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
