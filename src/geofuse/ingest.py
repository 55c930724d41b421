"""Station metadata and observation panels.

Input is two CSV files: a station table (id, source, coordinates, native
targets) and a long-format observation table keyed by timestamp, station and
target. Observations land in a dense (time, station, target) panel on an
hourly grid; NaN marks missing. Cleaning fills short interior gaps by linear
interpolation, normalization is min-max fitted on the training rows only,
and windowing cuts stride-1 history/horizon pairs with a chronological split.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .errors import ConfigError, ParseError, ValidationError

STATIONS_HEADER = ("station_id", "source_id", "x", "y", "targets")
OBSERVATIONS_HEADER = ("timestamp", "station_id", "target_id", "value")
HOUR = timedelta(hours=1)


@dataclass(frozen=True)
class Station:
    id: str
    source_id: str
    x: float
    y: float
    targets: tuple[str, ...]

    def validate(self) -> None:
        if not self.id:
            raise ValidationError("station id must be non-empty")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError(f"station {self.id}: coordinates must be finite")
        if not self.targets:
            raise ValidationError(f"station {self.id}: needs at least one native target")
        if len(set(self.targets)) != len(self.targets):
            raise ValidationError(f"station {self.id}: duplicate native target")


@dataclass
class ObservationPanel:
    """Dense hourly panel. ``values[t, s, k]`` is NaN where nothing was observed."""

    timestamps: list[datetime]
    stations: list[Station]
    target_ids: list[str]
    values: np.ndarray

    def validate(self) -> None:
        t, s, k = self.values.shape
        if t != len(self.timestamps) or s != len(self.stations) or k != len(self.target_ids):
            raise ValidationError("panel axes do not match index lists")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if b - a != HOUR:
                raise ValidationError(f"panel grid breaks at {a} -> {b}, expected 1h steps")
        if np.isinf(self.values).any():
            raise ValidationError("panel values contain infinite entries")

    def native_mask(self) -> np.ndarray:
        """(S, K) bool: station s natively measures target k of ``target_ids``."""
        mask = np.zeros((len(self.stations), len(self.target_ids)), dtype=bool)
        index = {t: i for i, t in enumerate(self.target_ids)}
        for s, st in enumerate(self.stations):
            for t in st.targets:
                if t in index:
                    mask[s, index[t]] = True
        return mask


def target_order(stations: list[Station]) -> list[str]:
    """Union of native targets in first-appearance order."""
    order: list[str] = []
    for st in stations:
        for t in st.targets:
            if t not in order:
                order.append(t)
    return order


def read_csv_rows(path, expected_header: tuple[str, ...]):
    """Yield ``(line, fields)`` per row after a checked header, one at a time.

    The file must be UTF-8; bytes that do not decode are a ParseError.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path} is empty", line=1)
            if tuple(header) != expected_header:
                raise ParseError(
                    f"expected header {','.join(expected_header)}, got {','.join(header)}",
                    line=1)
            yield from enumerate(reader, start=2)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}")


def load_stations(path) -> list[Station]:
    stations: list[Station] = []
    seen: set[str] = set()
    for line, fields in read_csv_rows(path, STATIONS_HEADER):
        if not fields:
            continue
        if len(fields) != 5:
            raise ParseError(f"expected 5 fields, got {len(fields)}", line=line)
        sid, source_id, xs, ys, target_field = fields
        try:
            x, y = float(xs), float(ys)
        except ValueError:
            raise ParseError(f"bad coordinate pair ({xs!r}, {ys!r})", line=line)
        station = Station(sid, source_id, x, y,
                          tuple(t for t in target_field.split("|") if t))
        station.validate()
        if sid in seen:
            raise ValidationError(f"duplicate station_id {sid!r}")
        seen.add(sid)
        stations.append(station)
    if not stations:
        raise ValidationError("station table has no rows")
    return stations


def _parse_timestamp(text: str, line: int) -> datetime:
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(f"bad timestamp {text!r}", line=line)
    if ts.tzinfo is not None:
        raise ValidationError(f"line {line}: timestamp {text!r} must be naive (no offset)")
    if ts.minute or ts.second or ts.microsecond:
        raise ValidationError(f"line {line}: timestamp {text!r} is not on the hour")
    return ts


def last_occurrences(keys: np.ndarray) -> np.ndarray:
    """Index of the last occurrence of each distinct key, in key order.

    Numpy does not promise which of several writes to one index a
    fancy-index assignment keeps, so a reader whose later row wins scatters
    only these rows.
    """
    _, from_end = np.unique(keys[::-1], return_index=True)
    return keys.size - 1 - from_end


def load_observations(path, stations: list[Station]) -> ObservationPanel:
    """Read long-format observations into a dense hourly panel.

    The time axis spans every hour from the earliest to the latest timestamp
    seen, so gaps become NaN rows rather than silently shrinking the grid.
    An empty value field is the only missing-value marker: ``nan``, ``inf``
    and literals that overflow a float are rejected with a ParseError. When
    a cell appears twice the later row wins.
    """
    targets = target_order(stations)
    k_index = {t: i for i, t in enumerate(targets)}
    per_hour = len(stations) * len(targets)
    # station id -> {native target -> offset of its cell within one hour}
    cells = {st.id: {t: s * len(targets) + k_index[t] for t in st.targets}
             for s, st in enumerate(stations)}
    # Each row leaves a flat cell key (hours since datetime.min * per_hour +
    # offset) and a value; a timestamp is parsed once per distinct text.
    hours: dict[str, int] = {}
    keys = array("q")
    vals = array("d")
    for line, fields in read_csv_rows(path, OBSERVATIONS_HEADER):
        if not fields:
            continue
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", line=line)
        raw_ts, sid, tid, raw_val = fields
        hour = hours.get(raw_ts)
        if hour is None:
            hour = hours[raw_ts] = (_parse_timestamp(raw_ts, line) - datetime.min) // HOUR
        native = cells.get(sid)
        if native is None:
            raise ValidationError(f"line {line}: unknown station_id {sid!r}")
        offset = native.get(tid)
        if offset is None:
            raise ValidationError(
                f"line {line}: station {sid!r} does not measure target {tid!r}")
        if raw_val == "":
            value = math.nan
        else:
            try:
                value = float(raw_val)
            except ValueError:
                raise ParseError(f"bad value {raw_val!r}", line=line)
            if not math.isfinite(value):
                raise ParseError(f"non-finite value {raw_val!r}", line=line)
        keys.append(hour * per_hour + offset)
        vals.append(value)

    if not keys:
        raise ValidationError(f"{path} contains no observations")

    h0 = min(hours.values())
    n_steps = max(hours.values()) - h0 + 1
    values = np.full((n_steps, len(stations), len(targets)), np.nan)
    flat = np.array(keys) - h0 * per_hour
    last = last_occurrences(flat)
    values.reshape(-1)[flat[last]] = np.array(vals)[last]

    t0 = datetime.min + h0 * HOUR
    panel = ObservationPanel(
        timestamps=[t0 + i * HOUR for i in range(n_steps)],
        stations=list(stations),
        target_ids=targets,
        values=values,
    )
    panel.validate()
    return panel


def _fill_short_gaps(col: np.ndarray, max_gap: int) -> None:
    """Linearly fill interior NaN runs of length <= max_gap, in place."""
    missing = np.isnan(col)
    if not missing.any() or missing.all():
        return
    n = len(col)
    i = 0
    while i < n:
        if not missing[i]:
            i += 1
            continue
        j = i
        while j < n and missing[j]:
            j += 1
        # Runs touching either boundary have only one anchor: leave them.
        if i > 0 and j < n and (j - i) <= max_gap:
            col[i:j] = np.interp(np.arange(i, j), [i - 1, j], [col[i - 1], col[j]])
        i = j


def clean_panel(panel: ObservationPanel, max_gap_hours: int = 3) -> ObservationPanel:
    """Fill short interior gaps per (station, target) series.

    Gaps longer than ``max_gap_hours`` and gaps at either end of the series
    stay missing; downstream windowing drops them. Idempotent.
    """
    if max_gap_hours < 0:
        raise ConfigError(f"max_gap_hours must be >= 0, got {max_gap_hours}")
    values = panel.values.copy()
    _, n_stations, n_targets = values.shape
    for s in range(n_stations):
        for k in range(n_targets):
            _fill_short_gaps(values[:, s, k], max_gap_hours)
    return ObservationPanel(panel.timestamps, panel.stations, panel.target_ids, values)


@dataclass
class NormalizationParams:
    """Per-target min-max bounds fitted on training rows."""

    target_ids: list[str]
    mins: np.ndarray
    maxs: np.ndarray

    def scale(self, k: int) -> float:
        return float(self.maxs[k] - self.mins[k])


def fit_normalization(values: np.ndarray, target_ids: list[str],
                      train_rows: int) -> NormalizationParams:
    """Fit per-target min/max on rows [0, train_rows), ignoring NaN."""
    if not 1 <= train_rows <= values.shape[0]:
        raise ValidationError(
            f"train_rows must be in [1, {values.shape[0]}], got {train_rows}")
    head = values[:train_rows]
    mins = np.empty(len(target_ids))
    maxs = np.empty(len(target_ids))
    for k, tid in enumerate(target_ids):
        col = head[:, :, k]
        if np.isnan(col).all():
            raise ValidationError(f"target {tid!r} has no data in the training rows")
        mins[k] = np.nanmin(col)
        maxs[k] = np.nanmax(col)
    return NormalizationParams(list(target_ids), mins, maxs)


def apply_normalization(values: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """Map each target channel to (v - min) / (max - min); NaN passes through.

    A degenerate channel (max == min) maps to 0 everywhere.
    """
    if values.shape[-1] != len(params.target_ids):
        raise ValidationError("normalization params do not match the target axis")
    out = np.empty_like(values)
    for k in range(values.shape[-1]):
        span = params.scale(k)
        if span == 0.0:
            out[..., k] = np.where(np.isnan(values[..., k]), np.nan, 0.0)
        else:
            out[..., k] = (values[..., k] - params.mins[k]) / span
    return out


def invert_normalization(values: np.ndarray, params: NormalizationParams,
                         target_id: str) -> np.ndarray:
    """Undo min-max scaling for one target. Degenerate channels map to min."""
    if target_id not in params.target_ids:
        raise ValidationError(f"unknown target {target_id!r} in normalization params")
    k = params.target_ids.index(target_id)
    return np.asarray(values) * params.scale(k) + params.mins[k]


@dataclass
class WindowedDataset:
    """Stride-1 supervised windows with a chronological train/val/test split."""

    inputs: np.ndarray       # (N, P, S, K)
    targets: np.ndarray      # (N, Q, S, 1), the predicted target only
    starts: np.ndarray       # (N,) row index of each window's first input step
    history_steps: int
    horizon_steps: int
    predicted_target: str
    station_ids: list[str]
    target_ids: list[str]
    n_train: int
    n_val: int

    @property
    def n_total(self) -> int:
        return self.inputs.shape[0]

    def part(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.bounds(name)
        return self.inputs[lo:hi], self.targets[lo:hi]

    def bounds(self, name: str) -> tuple[int, int]:
        if name == "train":
            return 0, self.n_train
        if name == "val":
            return self.n_train, self.n_train + self.n_val
        if name == "test":
            return self.n_train + self.n_val, self.n_total
        raise ValueError(f"unknown split {name!r}")


def check_split(split: tuple[float, float, float]) -> None:
    """Reject a split that is not three non-negative fractions summing to 1."""
    if len(split) != 3 or not (all(f >= 0 for f in split) and abs(sum(split) - 1) <= 1e-9):
        raise ConfigError(f"split must be three non-negative fractions summing to 1, got {split}")


def make_windows(values: np.ndarray, station_ids: list[str], target_ids: list[str],
                 history_steps: int, horizon_steps: int, predicted_target: str,
                 split: tuple[float, float, float] = (0.6, 0.2, 0.2)) -> WindowedDataset:
    """Cut (history, horizon) windows at stride 1 and split chronologically.

    A window starting at row i uses rows [i, i+P) as input and the predicted
    target at rows [i+P, i+P+Q) as supervision. Windows touching any missing
    cell are dropped. With T rows there are T - P - Q + 1 candidate windows.
    """
    p, q = history_steps, horizon_steps
    if p < 1 or q < 1:
        raise ValidationError(f"history and horizon must be >= 1, got ({p}, {q})")
    if predicted_target not in target_ids:
        raise ValidationError(f"predicted target {predicted_target!r} not in panel targets")
    check_split(split)
    t_total = values.shape[0]
    if t_total < p + q:
        raise ValidationError(
            f"need at least history+horizon={p + q} rows, panel has {t_total}")

    n = t_total - p - q + 1
    windows = np.lib.stride_tricks.sliding_window_view(values, p, axis=0)
    inputs = np.moveaxis(windows, -1, 1)[:n]                      # (N, P, S, K)
    k_pred = target_ids.index(predicted_target)
    series = values[:, :, k_pred]
    horizon = np.lib.stride_tricks.sliding_window_view(series, q, axis=0)
    targets = np.moveaxis(horizon, -1, 1)[p:p + n][..., np.newaxis]  # (N, Q, S, 1)
    starts = np.arange(n)

    keep = ~(np.isnan(inputs).any(axis=(1, 2, 3)) | np.isnan(targets).any(axis=(1, 2, 3)))
    if not keep.all():
        inputs, targets, starts = inputs[keep], targets[keep], starts[keep]
    n_kept = inputs.shape[0]
    if n_kept == 0:
        raise ValidationError("every candidate window touches a missing cell")

    n_train = round(split[0] * n_kept)
    n_val = round((split[0] + split[1]) * n_kept) - n_train
    return WindowedDataset(
        inputs=np.ascontiguousarray(inputs),
        targets=np.ascontiguousarray(targets),
        starts=starts,
        history_steps=p,
        horizon_steps=q,
        predicted_target=predicted_target,
        station_ids=list(station_ids),
        target_ids=list(target_ids),
        n_train=n_train,
        n_val=n_val,
    )
