"""Readers and writers for the pipeline's CSV artifacts.

fused.csv is the observations' long format plus a provenance tag, so it is
read and written by ``ingest.LongFormat`` under the same row and grid rules.
Every other table is written by ``ingest.write_table``, and
``ingest.csv_rows`` turns a CSV read error into a ParseError for every
reader. Values that feed later stages (fused panel, adjacency) are written
with ``ingest.FULL``, 17 significant digits, so a float64 survives the round
trip exactly; reports and forecasts use the shorter ``ingest.SHORT``. All
writers emit rows in a fixed order, so identical inputs give byte-identical
files.
"""

from __future__ import annotations

from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .fusion import FusionMatrix
from .ingest import FULL, OBSERVATIONS_HEADER, SHORT, LongFormat, csv_rows, write_table
from .metrics import TargetConsistency
from .stgcn import EpochStats

FUSED_HEADER = ("timestamp", "station_id", "target_id", "value", "provenance")
# Provenance tags in code order: a row's code is its raw_mask bit.
FUSED = LongFormat(FUSED_HEADER, FULL, ("fused", "raw"))
FORECAST = LongFormat(OBSERVATIONS_HEADER, SHORT, ())


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
    write_table(path, ["station_id", *station_ids],
                [[sid, *row] for sid, row in zip(station_ids, matrix.tolist())], FULL)


def read_adjacency_csv(path) -> tuple[list[str], np.ndarray]:
    """The S x S matrix under a station_id header; blank rows are skipped."""
    lines = csv_rows(path)
    _, header = next(lines, (1, []))
    if header[:1] != ["station_id"]:
        raise ParseError(f"{path}: expected station_id header", line=1)
    ids = header[1:]
    n = len(ids)
    rows = [(line, fields) for line, fields in lines if fields]
    if len(rows) != n:
        raise ParseError(f"{path}: expected {n} rows, got {len(rows)}")
    matrix = np.empty((n, n))
    for i, (line, row) in enumerate(rows):
        if len(row) != n + 1:
            raise ParseError(f"expected {n + 1} fields, got {len(row)}", line=line)
        if row[0] != ids[i]:
            raise ParseError(
                f"row label {row[0]!r} does not match header order", line=line)
        try:
            matrix[i] = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ParseError(f"bad weight: {exc}", line=line)
    return ids, matrix


def write_history_csv(history: list[EpochStats], path) -> None:
    write_table(path, ("epoch", "train_loss", "val_loss", "val_mae", "val_rmse"),
                [(row.epoch, row.train_loss, row.val_loss, row.val_mae, row.val_rmse)
                 for row in history], SHORT)


def write_metrics_csv(rows: list[dict], path) -> None:
    """Evaluation table: one row per horizon step plus an aggregate row."""
    columns = ("horizon", "mae", "rmse", "mape", "mape_excluded", "r2")
    write_table(path, columns, [[row[col] for col in columns] for row in rows], SHORT)


def write_forecast_csv(path, timestamps: list[datetime], station_ids: list[str],
                       target_id: str, values: np.ndarray) -> None:
    """(horizon, S) forecast values for one target."""
    if values.shape != (len(timestamps), len(station_ids)):
        raise ValidationError(
            f"forecast shape {values.shape} does not match "
            f"({len(timestamps)}, {len(station_ids)})")
    FORECAST.write(path, timestamps, [(sid, target_id) for sid in station_ids], values, None)


def write_report_csvs(report: dict[str, TargetConsistency], out_dir,
                      timestamps: list[datetime]) -> list[str]:
    """variance.csv plus kde_<target>.csv / overlay_<target>.csv per target.

    Returns the file names written (relative to out_dir).
    """
    out = Path(out_dir)
    stamps = [ts.isoformat(timespec="minutes") for ts in timestamps]
    names, variance = ["variance.csv"], []
    for tid, tc in report.items():
        variance.append((tid, tc.raw_variance, tc.fused_variance, tc.ratio))
        write_table(out / f"kde_{tid}.csv", ("grid", "raw_density", "fused_density"),
                    zip(tc.grid.tolist(), tc.raw_density.tolist(),
                        tc.fused_density.tolist()), SHORT)
        write_table(out / f"overlay_{tid}.csv",
                    ("timestamp", "raw_mean", "fused_mean", "raw_variance", "fused_variance"),
                    zip(stamps, tc.raw_mean.tolist(), tc.fused_mean.tolist(),
                        tc.raw_trajectory.tolist(), tc.fused_trajectory.tolist()), SHORT)
        names += [f"kde_{tid}.csv", f"overlay_{tid}.csv"]
    write_table(out / "variance.csv", ("target_id", "raw_variance", "fused_variance", "ratio"),
                variance, SHORT)
    return names
