"""Command line pipeline driver.

Subcommands cover each stage (synth, fuse, graph, train, predict, evaluate,
report) plus run-all, which chains them over one output directory. Every
stage writes plain CSV artifacts, and the next stage reads them back, so any
step can be rerun or inspected in isolation.

Exit codes: 0 success, 1 an output could not be written, 2 configuration,
3 ingest, 4 fusion, 5 graph, 6 training, 7 evaluation.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .config import PipelineConfig, load_config
from .errors import (
    ConfigError,
    FusionError,
    GeofuseError,
    GraphError,
    ParseError,
    TrainingError,
    ValidationError,
)
from .fusion import FusionMatrix, RbfConfig, fuse_panel, pairwise_distances
from .graph import build_adjacency, renormalized_adjacency, scaled_laplacian
from .ingest import (
    HOUR,
    NormalizationParams,
    ObservationPanel,
    apply_normalization,
    clean_panel,
    fit_normalization,
    invert_normalization,
    load_observations,
    load_stations,
    make_windows,
)
from .io import (
    read_adjacency_csv,
    read_fused_csv,
    write_adjacency_csv,
    write_forecast_csv,
    write_fused_csv,
    write_history_csv,
    write_metrics_csv,
    write_report_csvs,
)
from .metrics import consistency_report, mae, mape, r2, rmse
from .stgcn import (
    ModelConfig,
    StgcnModel,
    TrainConfig,
    load_model,
    operator_kind,
    predict_batch,
    save_model,
    train,
)
from .synth import SynthConfig, generate, write_scenario_csvs

EXIT_OK = 0
EXIT_OUTPUT = 1
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_FUSION = 4
EXIT_GRAPH = 5
EXIT_TRAINING = 6
EXIT_EVALUATION = 7


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


_EXIT_BY_ERROR = ((ConfigError, EXIT_CONFIG), (ParseError, EXIT_INGEST),
                  (FusionError, EXIT_FUSION), (GraphError, EXIT_GRAPH),
                  (TrainingError, EXIT_TRAINING))


def _code_for(exc: GeofuseError, default: int) -> int:
    return next((code for kind, code in _EXIT_BY_ERROR if isinstance(exc, kind)), default)


@contextmanager
def _phase(default_code: int):
    """Map any pipeline error inside the block onto an exit code."""
    try:
        yield
    except GeofuseError as exc:
        raise _Failure(_code_for(exc, default_code), str(exc)) from exc


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _ensure_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------- stages

def _load_pipeline_config(args) -> PipelineConfig:
    with _phase(EXIT_CONFIG):
        config = load_config(args.config) if args.config else PipelineConfig()
        config.validate()
    return config


def _rbf_config(config: PipelineConfig) -> RbfConfig:
    return RbfConfig(shape_c=config.shape_c, ridge=config.ridge,
                     distance_metric=config.distance_metric)


def _ingest(stations_path, observations_path, max_gap_hours: int):
    with _phase(EXIT_INGEST):
        stations = load_stations(stations_path)
        raw = load_observations(observations_path, stations)
        cleaned = clean_panel(raw, max_gap_hours)
    return stations, raw, cleaned


def _fuse(panel: ObservationPanel, rbf: RbfConfig) -> FusionMatrix:
    with _phase(EXIT_FUSION):
        return fuse_panel(panel, rbf)


def _adjacency_from_stations(stations, sigma, metric: str):
    with _phase(EXIT_GRAPH):
        coords = np.array([[st.x, st.y] for st in stations])
        dists = pairwise_distances(coords, metric)
        return build_adjacency(dists, sigma)


def _operator(matrix: np.ndarray, graph_mode: str):
    with _phase(EXIT_GRAPH):
        if operator_kind(graph_mode) == "scaled_laplacian":
            return scaled_laplacian(matrix)
        return renormalized_adjacency(matrix)


def _prepare_dataset(fused: FusionMatrix, config: PipelineConfig):
    """Normalize on the training time range and window the fused panel."""
    p, q = config.history_steps, config.horizon_steps
    n_windows = fused.values.shape[0] - p - q + 1
    if n_windows < 1:
        raise TrainingError(
            f"fused panel has {fused.values.shape[0]} rows; too short for "
            f"history {p} + horizon {q}")
    n_train = round(config.split[0] * n_windows)
    if n_train < 1:
        raise TrainingError("training split is empty")
    train_rows = min(fused.values.shape[0], n_train - 1 + p + q)
    norm = fit_normalization(fused.values, fused.target_ids, train_rows)
    normed = apply_normalization(fused.values, norm)
    dataset = make_windows(normed, fused.station_ids, fused.target_ids,
                           p, q, config.predicted_target, config.split)
    return dataset, norm


def _fit(fused: FusionMatrix, op, config: PipelineConfig):
    with _phase(EXIT_TRAINING):
        if not config.predicted_target:
            raise ConfigError("config must set predicted_target")
        dataset, norm = _prepare_dataset(fused, config)
        model_config = ModelConfig(
            n_nodes=len(fused.station_ids),
            in_channels=len(fused.target_ids),
            history_steps=config.history_steps,
            channels=config.channels,
            time_kernel=config.time_kernel,
            graph_kernel=config.graph_kernel,
            graph_mode=config.graph_mode,
            dropout=config.dropout,
        )
        model = StgcnModel(model_config, seed=config.seed)
        result = train(model, dataset, op, TrainConfig(
            lr=config.lr, batch_size=config.batch_size,
            epochs=config.epochs, seed=config.seed))
    return model, result, dataset, norm


def _train_meta(fused: FusionMatrix, config: PipelineConfig,
                norm: NormalizationParams, result) -> dict:
    return {
        "predicted_target": config.predicted_target,
        "target_ids": fused.target_ids,
        "station_ids": fused.station_ids,
        "horizon_steps": config.horizon_steps,
        "split": list(config.split),
        "normalization": {"mins": norm.mins.tolist(), "maxs": norm.maxs.tolist()},
        "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
    }


def _restore_context(fused: FusionMatrix, meta: dict):
    """Pull windowing and scaling context back out of a checkpoint."""
    try:
        norm = NormalizationParams(
            list(meta["target_ids"]),
            np.asarray(meta["normalization"]["mins"], dtype=np.float64),
            np.asarray(meta["normalization"]["maxs"], dtype=np.float64))
        predicted = meta["predicted_target"]
        horizon = int(meta["horizon_steps"])
        split = tuple(meta["split"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"checkpoint metadata incomplete: {exc}")
    if list(meta["target_ids"]) != fused.target_ids:
        raise ValidationError("checkpoint targets do not match the fused panel")
    if list(meta["station_ids"]) != fused.station_ids:
        raise ValidationError("checkpoint stations do not match the fused panel")
    return norm, predicted, horizon, split


def _metric_rows(truth: np.ndarray, pred: np.ndarray) -> list[dict]:
    """Per-horizon and pooled accuracy for (N, Q, S) truth/prediction pairs."""
    rows = []
    horizons = list(range(1, truth.shape[1] + 1))
    for h in horizons:
        mp = mape(truth[:, h - 1], pred[:, h - 1])
        rows.append({
            "horizon": h,
            "mae": mae(truth[:, h - 1], pred[:, h - 1]),
            "rmse": rmse(truth[:, h - 1], pred[:, h - 1]),
            "mape": mp.value,
            "mape_excluded": mp.excluded,
            "r2": r2(truth[:, h - 1], pred[:, h - 1]),
        })
    mp = mape(truth, pred)
    rows.append({
        "horizon": "all",
        "mae": mae(truth, pred),
        "rmse": rmse(truth, pred),
        "mape": mp.value,
        "mape_excluded": mp.excluded,
        "r2": r2(truth, pred),
    })
    return rows


def _evaluate(model: StgcnModel, fused: FusionMatrix, op, norm, predicted: str,
              horizon: int, split) -> list[dict]:
    with _phase(EXIT_EVALUATION):
        normed = apply_normalization(fused.values, norm)
        dataset = make_windows(normed, fused.station_ids, fused.target_ids,
                               model.config.history_steps, horizon, predicted, split)
        test_x, test_y = dataset.part("test")
        if test_x.shape[0] == 0:
            raise ValidationError("test split is empty; nothing to evaluate")
        k_pred = fused.target_ids.index(predicted)
        pred_norm = predict_batch(model, test_x, op, horizon, k_pred)
        pred = invert_normalization(pred_norm, norm, predicted)
        truth = invert_normalization(test_y[..., 0], norm, predicted)
        return _metric_rows(truth, pred)


# ---------------------------------------------------------------- commands

def cmd_synth(args) -> int:
    with _phase(EXIT_CONFIG):
        config = SynthConfig(
            seed=args.seed, stations_per_source=args.stations,
            targets_per_source=args.targets, hours=args.hours,
            noise=args.noise, gap_rate=args.gap_rate,
            max_gap_len=args.max_gap_len, coupling=args.coupling)
        result = generate(config)
    out = _ensure_dir(args.out_dir)
    write_scenario_csvs(result, out / "stations.csv", out / "observations.csv")
    print(f"synth: {len(result.stations)} stations, "
          f"{len(result.panel.target_ids)} targets, {args.hours} hours "
          f"-> {out / 'stations.csv'}, {out / 'observations.csv'}")
    print(f"synth: coupled target is {config.coupled_target}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    config = _load_pipeline_config(args)
    if args.shape_c is not None:
        config.shape_c = args.shape_c
    if args.ridge is not None:
        config.ridge = args.ridge
    _, _, cleaned = _ingest(args.stations, args.observations, config.max_gap_hours)
    fused = _fuse(cleaned, _rbf_config(config))
    write_fused_csv(fused, args.out)
    n_fused = int((~fused.raw_mask).sum())
    print(f"fuse: {fused.values.shape[0]} hours x {fused.values.shape[1]} stations "
          f"x {fused.values.shape[2]} targets -> {args.out} "
          f"({n_fused} interpolated cells)")
    return EXIT_OK


def cmd_graph(args) -> int:
    config = _load_pipeline_config(args)
    if args.sigma is not None:
        config.sigma = args.sigma
    with _phase(EXIT_INGEST):
        stations = load_stations(args.stations)
    adjacency = _adjacency_from_stations(stations, config.sigma,
                                         config.distance_metric)
    write_adjacency_csv(adjacency.values, [st.id for st in stations], args.out)
    print(f"graph: {adjacency.n_nodes} stations, sigma={adjacency.sigma:.6g} "
          f"-> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_pipeline_config(args)
    with _phase(EXIT_INGEST):
        fused = read_fused_csv(args.fused)
        station_ids, adj_matrix = read_adjacency_csv(args.adjacency)
        if station_ids != fused.station_ids:
            raise ValidationError("adjacency stations do not match the fused panel")
    op = _operator(adj_matrix, config.graph_mode)
    model, result, _, norm = _fit(fused, op, config)
    out = _ensure_dir(args.out_dir)
    save_model(out / "model.ckpt", model, _train_meta(fused, config, norm, result))
    write_history_csv(result.history, out / "history.csv")
    last = result.history[-1]
    print(f"train: {len(result.history)} epochs, best epoch {result.best_epoch} "
          f"(val_loss {result.best_val_loss:.6g}), last val_mae {last.val_mae:.6g} "
          f"-> {out / 'model.ckpt'}")
    return EXIT_OK


def _load_model_context(args):
    with _phase(EXIT_INGEST):
        fused = read_fused_csv(args.fused)
        station_ids, adj_matrix = read_adjacency_csv(args.adjacency)
        if station_ids != fused.station_ids:
            raise ValidationError("adjacency stations do not match the fused panel")
        model, meta = load_model(args.model)
        norm, predicted, horizon, split = _restore_context(fused, meta)
    op = _operator(adj_matrix, model.config.graph_mode)
    return fused, model, op, norm, predicted, horizon, split


def cmd_predict(args) -> int:
    fused, model, op, norm, predicted, horizon, _ = _load_model_context(args)
    if args.horizon is not None:
        horizon = args.horizon
    with _phase(EXIT_EVALUATION):
        if horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {horizon}")
        p = model.config.history_steps
        if fused.values.shape[0] < p:
            raise ValidationError(
                f"fused panel has {fused.values.shape[0]} rows, model needs {p}")
        normed = apply_normalization(fused.values, norm)
        window = normed[-p:]
        k_pred = fused.target_ids.index(predicted)
        pred_norm = predict_batch(model, window[np.newaxis], op, horizon, k_pred)[0]
        values = invert_normalization(pred_norm, norm, predicted)
        start = fused.timestamps[-1]
        stamps = [start + (h + 1) * HOUR for h in range(horizon)]
    write_forecast_csv(args.out, stamps, fused.station_ids, predicted, values)
    print(f"predict: {horizon} steps x {len(fused.station_ids)} stations "
          f"for {predicted} from {start.isoformat(timespec='minutes')} -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    fused, model, op, norm, predicted, horizon, split = _load_model_context(args)
    rows = _evaluate(model, fused, op, norm, predicted, horizon, split)
    out = _ensure_dir(args.out_dir)
    write_metrics_csv(rows, out / "metrics.csv")
    for row in rows:
        print(f"evaluate: horizon={row['horizon']} mae={row['mae']:.6g} "
              f"rmse={row['rmse']:.6g} mape={row['mape']:.6g}% "
              f"(excl {row['mape_excluded']}) r2={row['r2']:.6g}")
    print(f"evaluate: wrote {out / 'metrics.csv'}")
    return EXIT_OK


def cmd_report(args) -> int:
    with _phase(EXIT_INGEST):
        stations = load_stations(args.stations)
        raw = load_observations(args.observations, stations)
        fused = read_fused_csv(args.fused)
        if fused.station_ids != [st.id for st in stations]:
            raise ValidationError("fused stations do not match the station table")
        if fused.values.shape != raw.values.shape:
            raise ValidationError(
                f"fused grid {fused.values.shape} does not match "
                f"observations {raw.values.shape}")
    with _phase(EXIT_EVALUATION):
        report = consistency_report(raw.values, fused.values, fused.target_ids)
        out = _ensure_dir(args.out_dir)
        names = write_report_csvs(report, out, fused.timestamps)
    for tid in report.target_ids:
        tv = report.variance[tid]
        print(f"report: {tid} raw_var={tv.raw_variance:.6g} "
              f"fused_var={tv.fused_variance:.6g} ratio={tv.ratio:.4g}")
    print(f"report: wrote {', '.join(names)} in {out}")
    return EXIT_OK


def cmd_run_all(args) -> int:
    config = _load_pipeline_config(args)
    out = _ensure_dir(args.out_dir)
    stations, raw, cleaned = _ingest(args.stations, args.observations,
                                     config.max_gap_hours)
    fused = _fuse(cleaned, _rbf_config(config))
    write_fused_csv(fused, out / "fused.csv")
    adjacency = _adjacency_from_stations(stations, config.sigma,
                                         config.distance_metric)
    write_adjacency_csv(adjacency.values, fused.station_ids, out / "adjacency.csv")
    op = _operator(adjacency.values, config.graph_mode)
    model, result, _, norm = _fit(fused, op, config)
    save_model(out / "model.ckpt", model, _train_meta(fused, config, norm, result))
    write_history_csv(result.history, out / "history.csv")
    rows = _evaluate(model, fused, op, norm, config.predicted_target,
                     config.horizon_steps, config.split)
    write_metrics_csv(rows, out / "metrics.csv")
    with _phase(EXIT_EVALUATION):
        report = consistency_report(raw.values, fused.values, fused.target_ids)
        write_report_csvs(report, out, fused.timestamps)
    print(f"run-all: best epoch {result.best_epoch} "
          f"(val_loss {result.best_val_loss:.6g})")
    for row in rows:
        print(f"run-all: horizon={row['horizon']} mae={row['mae']:.6g} "
              f"rmse={row['rmse']:.6g} r2={row['r2']:.6g}")
    print(f"run-all: artifacts in {out}")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geofuse",
        description="Fuse scattered station data and forecast on the station graph.")
    parser.add_argument("--version", action="version", version=f"geofuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stations", type=_int_tuple, default=(5, 4, 4),
                   help="stations per source, e.g. 5,4,4")
    p.add_argument("--targets", type=_int_tuple, default=(2, 3, 2),
                   help="targets per source, e.g. 2,3,2")
    p.add_argument("--hours", type=int, default=240)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--gap-rate", type=float, default=0.0)
    p.add_argument("--max-gap-len", type=int, default=6)
    p.add_argument("--coupling", type=float, default=0.65)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fuse", help="interpolate a dense panel from raw observations")
    p.add_argument("--stations", required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--shape-c", type=float)
    p.add_argument("--ridge", type=float)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("graph", help="build the weighted station adjacency")
    p.add_argument("--stations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--sigma", type=float)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("train", help="train the forecaster on a fused panel")
    p.add_argument("--fused", required=True)
    p.add_argument("--adjacency", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="forecast beyond the end of a fused panel")
    p.add_argument("--fused", required=True)
    p.add_argument("--adjacency", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--horizon", type=int)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score the model on the held-out test windows")
    p.add_argument("--fused", required=True)
    p.add_argument("--adjacency", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="raw vs fused consistency diagnostics")
    p.add_argument("--stations", required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--fused", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("run-all", help="full pipeline into one output directory")
    p.add_argument("--stations", required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_run_all)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    The codes are listed in the module docstring; 1 means an output could not
    be written, and the message names the path.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as failure:
        print(f"geofuse {args.command}: {failure}", file=sys.stderr)
        return failure.code
    except GeofuseError as exc:
        # Escaped every phase wrapper, so it came from writing an output.
        print(f"geofuse {args.command}: {exc}", file=sys.stderr)
        return _code_for(exc, EXIT_OUTPUT)
    except OSError as exc:
        print(f"geofuse {args.command}: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
