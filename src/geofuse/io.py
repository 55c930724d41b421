"""Readers and writers for the pipeline's CSV artifacts.

Values that feed later stages (fused panel, adjacency) are written with 17
significant digits so a float64 survives the round trip exactly; report
files use a shorter human-oriented format. All writers emit rows in a fixed
order, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
from array import array
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .fusion import FusionMatrix
from .ingest import last_occurrences, read_csv_rows
from .metrics import ConsistencyReport
from .stgcn import EpochStats

FULL = "{:.17g}"
SHORT = "{:.10g}"
FUSED_HEADER = ("timestamp", "station_id", "target_id", "value", "provenance")


def _fmt(value: float, spec: str = FULL) -> str:
    return spec.format(float(value))


def write_fused_csv(fused: FusionMatrix, path) -> None:
    """Long format: timestamp,station_id,target_id,value,provenance.

    Written one hour at a time from plain Python lists; ``"%.17g" %`` gives
    the same text as ``FULL`` for every float.
    """
    fused.validate()
    keys = [f",{sid},{tid}," for sid in fused.station_ids for tid in fused.target_ids]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(FUSED_HEADER) + "\n")
        for t, ts in enumerate(fused.timestamps):
            stamp = ts.isoformat(timespec="minutes")
            values = fused.values[t].ravel().tolist()
            raw = fused.raw_mask[t].ravel().tolist()
            fh.write("".join([stamp + key + "%.17g" % v + (",raw\n" if r else ",fused\n")
                              for key, v, r in zip(keys, values, raw)]))


def read_fused_csv(path) -> FusionMatrix:
    """Rebuild a FusionMatrix; the file must be dense over its own index sets.

    Each row is checked as it is read, so an error names the first faulty
    line. When a cell appears twice the later row wins.
    """
    # Index of each distinct timestamp text, station and target, in order
    # of first appearance; a timestamp is parsed once per distinct text.
    t_index: dict[str, int] = {}
    s_index: dict[str, int] = {}
    k_index: dict[str, int] = {}
    timestamps: list[datetime] = []
    t_col, s_col, k_col = array("q"), array("q"), array("q")
    vals, raw = array("d"), array("b")
    for lineno, row in read_csv_rows(path, FUSED_HEADER):
        if not row:
            continue
        if len(row) != 5:
            raise ParseError(f"expected 5 fields, got {len(row)}", line=lineno)
        stamp, sid, tid, text, tag = row
        t = t_index.get(stamp)
        if t is None:
            try:
                timestamps.append(datetime.fromisoformat(stamp))
            except ValueError:
                raise ParseError(f"bad timestamp {stamp!r}", line=lineno)
            t = t_index[stamp] = len(t_index)
        if tag not in ("raw", "fused"):
            raise ParseError(f"bad provenance {tag!r}", line=lineno)
        try:
            value = float(text)
        except ValueError:
            raise ParseError(f"bad value {text!r}", line=lineno)
        t_col.append(t)
        s_col.append(s_index.setdefault(sid, len(s_index)))
        k_col.append(k_index.setdefault(tid, len(k_index)))
        vals.append(value)
        raw.append(tag == "raw")
    if not vals:
        raise ValidationError(f"{path} has no data rows")

    shape = (len(timestamps), len(s_index), len(k_index))
    flat = np.ravel_multi_index((t_col, s_col, k_col), shape)
    last = last_occurrences(flat)
    values = np.full(shape, np.nan)
    mask = np.zeros(shape, dtype=bool)
    values.reshape(-1)[flat[last]] = np.array(vals)[last]
    mask.reshape(-1)[flat[last]] = np.array(raw, dtype=bool)[last]

    order = np.argsort(np.array([ts.isoformat() for ts in timestamps]))
    timestamps = [timestamps[i] for i in order]
    fused = FusionMatrix(timestamps, list(s_index), list(k_index),
                         values[order], mask[order])
    fused.validate()
    return fused


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
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,station_id,target_id,value\n")
        for h, ts in enumerate(timestamps):
            stamp = ts.isoformat(timespec="minutes")
            for s, sid in enumerate(station_ids):
                fh.write(f"{stamp},{sid},{target_id},{_fmt(values[h, s], SHORT)}\n")


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
