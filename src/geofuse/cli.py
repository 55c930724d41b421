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
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import PipelineConfig, load_config, parse_config_text
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
from .graph import build_adjacency
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
    StgcnModel,
    graph_operator,
    load_model,
    predict,
    predict_series,
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


_EXIT_BY_ERROR = ((ConfigError, EXIT_CONFIG), (ParseError, EXIT_INGEST),
                  (FusionError, EXIT_FUSION), (GraphError, EXIT_GRAPH),
                  (TrainingError, EXIT_TRAINING))


def _code_for(exc: GeofuseError, default: int) -> int:
    return next((code for kind, code in _EXIT_BY_ERROR if isinstance(exc, kind)), default)


@contextmanager
def _phase(default_code: int):
    """Tag a pipeline, floating-point or memory error with its exit code; innermost wins."""
    try:
        yield
    except (GeofuseError, FloatingPointError, MemoryError) as exc:
        if not hasattr(exc, "exit_code"):
            exc.exit_code = _code_for(exc, default_code)
        raise


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
    """The ``--config`` file, or the defaults when none is given."""
    with _phase(EXIT_CONFIG):
        config = load_config(args.config) if args.config else parse_config_text("")
        if args.command in ("train", "run-all") and not config.predicted_target:
            raise ConfigError("config must set predicted_target")
    return config


def _check_predicted_target(config: PipelineConfig, target_ids: list[str]) -> None:
    with _phase(EXIT_CONFIG):
        if config.predicted_target not in target_ids:
            raise ConfigError(
                f"predicted_target {config.predicted_target!r} is not a target of "
                f"the panel ({', '.join(target_ids)})")


def _ingest(stations_path, observations_path, max_gap_hours: int):
    with _phase(EXIT_INGEST):
        stations = load_stations(stations_path)
        raw = load_observations(observations_path, stations, max_gap_hours)
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
        return graph_operator(matrix, graph_mode)


def _prepare_dataset(fused: FusionMatrix, config: PipelineConfig):
    """Normalize on the training windows' rows, as ``make_windows`` will split them,
    and window the fused panel; an empty training or validation split exits 6."""
    p, q = config.model.history_steps, config.horizon_steps
    with _phase(EXIT_TRAINING):
        n_train = round(config.split[0] * (fused.values.shape[0] - p - q + 1))
        train_rows = min(fused.values.shape[0], n_train - 1 + p + q)
        norm = fit_normalization(fused.values, fused.target_ids, train_rows)
        dataset = _windows(fused, norm, config)
        dataset.part("train"), dataset.part("val")
        return dataset, norm


def _windows(fused: FusionMatrix, norm: NormalizationParams, config: PipelineConfig):
    """The normalized fused panel cut into the config's (history, horizon) windows."""
    return make_windows(apply_normalization(fused.values, norm), fused.station_ids,
                        fused.target_ids, config.model.history_steps,
                        config.horizon_steps, config.predicted_target, config.split)


def _fit(fused: FusionMatrix, dataset, op, config: PipelineConfig):
    with _phase(EXIT_TRAINING):
        model = StgcnModel(replace(config.model, n_nodes=len(fused.station_ids),
                                   in_channels=len(fused.target_ids)), seed=config.train.seed)
        result = train(model, dataset, op, config.train)
    return model, result


def _metric_row(horizon, truth: np.ndarray, pred: np.ndarray) -> dict:
    mp = mape(truth, pred)
    return {"horizon": horizon, "mae": mae(truth, pred), "rmse": rmse(truth, pred),
            "mape": mp.value, "mape_excluded": mp.excluded, "r2": r2(truth, pred)}


def _metric_rows(truth: np.ndarray, pred: np.ndarray) -> list[dict]:
    """Per-horizon and pooled accuracy for (N, Q, S) truth/prediction pairs."""
    return ([_metric_row(h + 1, truth[:, h], pred[:, h]) for h in range(truth.shape[1])]
            + [_metric_row("all", truth, pred)])


def _evaluate(model: StgcnModel, dataset, op, norm: NormalizationParams) -> list[dict]:
    """Accuracy of the model's rollout on the dataset's test windows."""
    with _phase(EXIT_EVALUATION), np.errstate(over="raise", invalid="raise"):
        _, test_y = dataset.part("test")
        predicted = dataset.predicted_target
        k = dataset.target_ids.index(predicted)
        pred_norm = predict_series(model, dataset.series("test"), op,
                                   dataset.horizon_steps, k)
        pred = invert_normalization(pred_norm, norm, predicted)
        truth = invert_normalization(test_y[..., 0], norm, predicted)
        return _metric_rows(truth, pred)


# ---------------------------------------------------------------- commands

def cmd_synth(args) -> int:
    with _phase(EXIT_CONFIG):
        config = SynthConfig(**{f.name: getattr(args, f.name) for f in fields(SynthConfig)
                                if hasattr(args, f.name)})
        result = generate(config)
    out = _ensure_dir(args.out_dir)
    write_scenario_csvs(result, out / "stations.csv", out / "observations.csv")
    print(f"synth: {len(result.stations)} stations, "
          f"{len(result.panel.target_ids)} targets, {config.hours} hours "
          f"-> {out / 'stations.csv'}, {out / 'observations.csv'}")
    print(f"synth: coupled target is {config.coupled_target}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    config = _load_pipeline_config(args)
    _, _, cleaned = _ingest(args.stations, args.observations, config.max_gap_hours)
    fused = _fuse(cleaned, config.rbf)
    write_fused_csv(fused, args.out)
    n_fused = int((~fused.raw_mask).sum())
    print(f"fuse: {fused.values.shape[0]} hours x {fused.values.shape[1]} stations "
          f"x {fused.values.shape[2]} targets -> {args.out} "
          f"({n_fused} interpolated cells)")
    return EXIT_OK


def cmd_graph(args) -> int:
    config = _load_pipeline_config(args)
    with _phase(EXIT_INGEST):
        stations = load_stations(args.stations)
    adjacency = _adjacency_from_stations(stations, config.sigma,
                                         config.rbf.distance_metric)
    write_adjacency_csv(adjacency.values, [st.id for st in stations], args.out)
    print(f"graph: {adjacency.n_nodes} stations, sigma={adjacency.sigma:.6g} "
          f"-> {args.out}")
    return EXIT_OK


def _read_fused_and_adjacency(args):
    """The fused panel and its adjacency matrix; their station ids must match."""
    fused = read_fused_csv(args.fused)
    station_ids, adj_matrix = read_adjacency_csv(args.adjacency)
    if station_ids != fused.station_ids:
        raise ValidationError("adjacency stations do not match the fused panel")
    return fused, adj_matrix


def cmd_train(args) -> int:
    config = _load_pipeline_config(args)
    with _phase(EXIT_INGEST):
        fused, adj_matrix = _read_fused_and_adjacency(args)
    _check_predicted_target(config, fused.target_ids)
    op = _operator(adj_matrix, config.model.graph_mode)
    dataset, norm = _prepare_dataset(fused, config)
    model, result = _fit(fused, dataset, op, config)
    out = _ensure_dir(args.out_dir)
    save_model(out / "model.ckpt", model, config, fused.station_ids, norm, result)
    write_history_csv(result.history, out / "history.csv")
    last = result.history[-1]
    print(f"train: {len(result.history)} epochs, best epoch {result.best_epoch} "
          f"(val_loss {result.best_val_loss:.6g}), last val_mae {last.val_mae:.6g} "
          f"-> {out / 'model.ckpt'}")
    return EXIT_OK


def _load_model_context(args):
    """Bad inputs, checkpoint metadata or ids exit 3; a non-checkpoint or unfit weights exit 7."""
    with _phase(EXIT_INGEST):
        fused, adj_matrix = _read_fused_and_adjacency(args)
    with _phase(EXIT_EVALUATION):
        model, meta = load_model(args.model)
    with _phase(EXIT_INGEST):
        if meta["target_ids"] != fused.target_ids:
            raise ValidationError("checkpoint targets do not match the fused panel")
        if meta["station_ids"] != fused.station_ids:
            raise ValidationError("checkpoint stations do not match the fused panel")
    op = _operator(adj_matrix, model.config.graph_mode)
    norm = NormalizationParams(fused.target_ids, **meta["normalization"])
    return fused, model, op, norm, meta["config"]


def cmd_predict(args) -> int:
    fused, model, op, norm, config = _load_model_context(args)
    predicted = config.predicted_target
    horizon = config.horizon_steps if args.horizon is None else args.horizon
    with _phase(EXIT_EVALUATION), np.errstate(over="raise", invalid="raise"):
        n_hours = fused.values.shape[0]
        if not 1 <= horizon <= n_hours:
            raise ValidationError(
                f"horizon must be between 1 and the fused panel's {n_hours} hours, "
                f"got {horizon}")
        p = model.config.history_steps
        if n_hours < p:
            raise ValidationError(f"fused panel has {n_hours} rows, model needs {p}")
        window = apply_normalization(fused.values[-p:], norm)
        pred_norm = predict(model, window, op, horizon, fused.target_ids.index(predicted))
        values = invert_normalization(pred_norm, norm, predicted)
        start = fused.timestamps[-1]
        stamps = [start + (h + 1) * HOUR for h in range(horizon)]
    write_forecast_csv(args.out, stamps, fused.station_ids, predicted, values)
    print(f"predict: {horizon} steps x {len(fused.station_ids)} stations "
          f"for {predicted} from {start.isoformat(timespec='minutes')} -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    fused, model, op, norm, config = _load_model_context(args)
    with _phase(EXIT_EVALUATION):
        dataset = _windows(fused, norm, config)
    rows = _evaluate(model, dataset, op, norm)
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
        fused = read_fused_csv(args.fused)
        # An empty run longer than the fused grid can never match it: refuse
        # it before the observation grid is allocated.
        raw = load_observations(args.observations, stations, len(fused.timestamps))
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
    for tid, tc in report.items():
        print(f"report: {tid} raw_var={tc.raw_variance:.6g} "
              f"fused_var={tc.fused_variance:.6g} ratio={tc.ratio:.4g}")
    print(f"report: wrote {', '.join(names)} in {out}")
    return EXIT_OK


def cmd_run_all(args) -> int:
    config = _load_pipeline_config(args)
    stations, raw, cleaned = _ingest(args.stations, args.observations,
                                     config.max_gap_hours)
    _check_predicted_target(config, cleaned.target_ids)
    fused = _fuse(cleaned, config.rbf)
    adjacency = _adjacency_from_stations(stations, config.sigma,
                                         config.rbf.distance_metric)
    op = _operator(adjacency.values, config.model.graph_mode)
    dataset, norm = _prepare_dataset(fused, config)
    with _phase(EXIT_EVALUATION):
        dataset.part("test")
    out = _ensure_dir(args.out_dir)
    write_fused_csv(fused, out / "fused.csv")
    write_adjacency_csv(adjacency.values, fused.station_ids, out / "adjacency.csv")
    model, result = _fit(fused, dataset, op, config)
    save_model(out / "model.ckpt", model, config, fused.station_ids, norm, result)
    write_history_csv(result.history, out / "history.csv")
    rows = _evaluate(model, dataset, op, norm)
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

    # Flags not given stay unset, so the defaults are SynthConfig's.
    p = sub.add_parser("synth", help="generate a synthetic scenario",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--stations", dest="stations_per_source", type=_int_tuple,
                   help="stations per source, e.g. 5,4,4")
    p.add_argument("--targets", dest="targets_per_source", type=_int_tuple,
                   help="targets per source, e.g. 2,3,2")
    p.add_argument("--hours", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--gap-rate", type=float)
    p.add_argument("--max-gap-len", type=int)
    p.add_argument("--coupling", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fuse", help="interpolate a dense panel from raw observations")
    p.add_argument("--stations", required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("graph", help="build the weighted station adjacency")
    p.add_argument("--stations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
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
    except (GeofuseError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"geofuse {args.command}: {exc}", file=sys.stderr)
        # An error that escaped every phase came from writing an output.
        return getattr(exc, "exit_code", _code_for(exc, EXIT_OUTPUT))


if __name__ == "__main__":
    sys.exit(main())
