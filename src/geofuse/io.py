"""Readers and writers for the pipeline's CSV artifacts.

fused.csv is the observations' long format plus a provenance tag, so it is
read and written by ``ingest.LongFormat`` under the same row and grid rules.
Values that feed later stages (fused panel, adjacency) are written with 17
significant digits so a float64 survives the round trip exactly; report
files use a shorter human-oriented format. All writers emit rows in a fixed
order, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .fusion import FusionMatrix
from .ingest import OBSERVATIONS_HEADER, LongFormat
from .metrics import ConsistencyReport
from .stgcn import EpochStats

FULL = "{:.17g}"
SHORT = "{:.10g}"
FUSED_HEADER = ("timestamp", "station_id", "target_id", "value", "provenance")
# Provenance tags in code order: a row's code is its raw_mask bit.
FUSED = LongFormat(FUSED_HEADER, "%.17g", ("fused", "raw"))
FORECAST = LongFormat(OBSERVATIONS_HEADER, "%.10g", ())


def _fmt(value: float, spec: str = FULL) -> str:
    return spec.format(float(value))


def write_fused_csv(fused: FusionMatrix, path) -> None:
    """Long format: timestamp,station_id,target_id,value,provenance."""
    fused.validate()
    cells = [(sid, tid) for sid in fused.station_ids for tid in fused.target_ids]
    n_hours = len(fused.timestamps)
    FUSED.write(path, fused.timestamps, cells, fused.values.reshape(n_hours, -1),
                fused.raw_mask.reshape(n_hours, -1))


def read_fused_csv(path) -> FusionMatrix:
    """Rebuild a FusionMatrix by the observation rules of ``LongFormat.read``.

    The file names its own stations and targets, and must give a value for
    each of them at every hour from its first to its last.
    """
    timestamps, station_ids, target_ids, values, codes = FUSED.read(path, None)
    return FusionMatrix(timestamps, station_ids, target_ids, values, codes.astype(bool))


def write_adjacency_csv(matrix: np.ndarray, station_ids: list[str], path) -> None:
    """Dense S x S matrix with station ids as both header row and column."""
    if matrix.shape != (len(station_ids), len(station_ids)):
        raise ValidationError(
            f"adjacency {matrix.shape} does not match {len(station_ids)} stations")
    with open(path, "w", newline="") as fh:
        fh.write("station_id," + ",".join(station_ids) + "\n")
        for i, sid in enumerate(station_ids):
            fh.write(sid + "," + ",".join(_fmt(v) for v in matrix[i]) + "\n")


def read_adjacency_csv(path) -> tuple[list[str], np.ndarray]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}")
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}")
    if not reader or reader[0][:1] != ["station_id"]:
        raise ParseError(f"{path}: expected station_id header", line=1)
    ids = reader[0][1:]
    n = len(ids)
    if len(reader) - 1 != n:
        raise ParseError(f"{path}: expected {n} rows, got {len(reader) - 1}")
    matrix = np.empty((n, n))
    for i, row in enumerate(reader[1:], start=2):
        if len(row) != n + 1:
            raise ParseError(f"expected {n + 1} fields, got {len(row)}", line=i)
        if row[0] != ids[i - 2]:
            raise ParseError(
                f"row label {row[0]!r} does not match header order", line=i)
        try:
            matrix[i - 2] = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ParseError(f"bad weight: {exc}", line=i)
    return ids, matrix


def write_history_csv(history: list[EpochStats], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("epoch,train_loss,val_loss,val_mae,val_rmse\n")
        for row in history:
            fh.write(f"{row.epoch},{_fmt(row.train_loss, SHORT)},"
                     f"{_fmt(row.val_loss, SHORT)},{_fmt(row.val_mae, SHORT)},"
                     f"{_fmt(row.val_rmse, SHORT)}\n")


def write_metrics_csv(rows: list[dict], path) -> None:
    """Evaluation table: one row per horizon step plus an aggregate row."""
    columns = ["horizon", "mae", "rmse", "mape", "mape_excluded", "r2"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = [str(row["horizon"])]
            for col in columns[1:]:
                v = row[col]
                cells.append(str(v) if isinstance(v, int) else _fmt(v, SHORT))
            fh.write(",".join(cells) + "\n")


def write_forecast_csv(path, timestamps: list[datetime], station_ids: list[str],
                       target_id: str, values: np.ndarray) -> None:
    """(horizon, S) forecast values for one target."""
    if values.shape != (len(timestamps), len(station_ids)):
        raise ValidationError(
            f"forecast shape {values.shape} does not match "
            f"({len(timestamps)}, {len(station_ids)})")
    FORECAST.write(path, timestamps, [(sid, target_id) for sid in station_ids], values, None)


def write_report_csvs(report: ConsistencyReport, out_dir,
                      timestamps: list[datetime]) -> list[str]:
    """variance.csv plus kde_<target>.csv / overlay_<target>.csv per target.

    Returns the file names written (relative to out_dir).
    """
    out = Path(out_dir)
    names = ["variance.csv"]
    with open(out / "variance.csv", "w", newline="") as fh:
        fh.write("target_id,raw_variance,fused_variance,ratio\n")
        for tid in report.target_ids:
            tv = report.variance[tid]
            fh.write(f"{tid},{_fmt(tv.raw_variance, SHORT)},"
                     f"{_fmt(tv.fused_variance, SHORT)},{_fmt(tv.ratio, SHORT)}\n")
    for tid in report.target_ids:
        kd = report.kde[tid]
        name = f"kde_{tid}.csv"
        with open(out / name, "w", newline="") as fh:
            fh.write("grid,raw_density,fused_density\n")
            for g, a, b in zip(kd.grid, kd.raw_density, kd.fused_density):
                fh.write(f"{_fmt(g, SHORT)},{_fmt(a, SHORT)},{_fmt(b, SHORT)}\n")
        names.append(name)
        ov = report.overlay[tid]
        tv = report.variance[tid]
        name = f"overlay_{tid}.csv"
        with open(out / name, "w", newline="") as fh:
            fh.write("timestamp,raw_mean,fused_mean,raw_variance,fused_variance\n")
            for t, ts in enumerate(timestamps):
                fh.write(f"{ts.isoformat(timespec='minutes')},"
                         f"{_fmt(ov.raw_mean[t], SHORT)},{_fmt(ov.fused_mean[t], SHORT)},"
                         f"{_fmt(tv.raw_trajectory[t], SHORT)},"
                         f"{_fmt(tv.fused_trajectory[t], SHORT)}\n")
        names.append(name)
    return names
