"""Station metadata, the long-format CSV codec, and observation panels.

Input is two CSV files: a station table (id, source, coordinates, native
targets) and a long-format observation table keyed by timestamp, station and
target. ``LongFormat`` reads and writes that format for observations.csv and
fused.csv alike: one row rule, one hourly grid, one writer. ``write_table``
writes every other CSV table of the pipeline, and every CSV reader reads
through ``csv_rows``, which maps read errors to ParseError. Observations land
in a dense (time, station, target) panel on the hourly grid; NaN marks
missing. Cleaning fills short interior gaps by linear interpolation,
normalization is min-max fitted on the training rows only, and windowing
cuts stride-1 history/horizon pairs from a complete (fused) panel with a
chronological split.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ParseError, ValidationError

STATIONS_HEADER = ("station_id", "source_id", "x", "y", "targets")
FULL = "%.17g"   # float64 round trip: values later stages read back
SHORT = "%.10g"  # reports and forecasts
OBSERVATIONS_HEADER = ("timestamp", "station_id", "target_id", "value")
HOUR = timedelta(hours=1)
DEFAULT_SPLIT = (0.6, 0.2, 0.2)  # train, validation and test fractions
# What no station or target id may hold: the CSV writers do not quote.
UNQUOTABLE = re.compile(r'[,"\r\n]')


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


def csv_rows(path):
    """Yield ``(line, fields)`` for every row of a CSV file, the header first.

    The file must be UTF-8. A file that cannot be read, bytes that do not
    decode and a malformed row (say, a stray quote that swallows the rest of
    the file) are each a ParseError.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            yield from enumerate(reader, start=1)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}")
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}", line=reader.line_num)


def read_csv_rows(path, expected_header: tuple[str, ...]):
    """``csv_rows`` after a checked header.

    The caller checks each row's field count where it unpacks the row, with
    ``_width_error``, and skips blank rows.
    """
    rows = csv_rows(path)
    _, header = next(rows, (1, None))
    if header is None:
        raise ParseError(f"{path} is empty", line=1)
    if tuple(header) != expected_header:
        raise ParseError(
            f"expected header {','.join(expected_header)}, got {','.join(header)}", line=1)
    return rows


def write_table(path, header, rows, spec: str) -> None:
    """Write ``header`` and then one line per row, fields joined by commas.

    A float field is written with the %-format ``spec`` and any other field
    with ``str``; nothing is quoted.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([spec % v if isinstance(v, float) else str(v)
                               for v in row]) + "\n")


def _width_error(fields: list[str], header: tuple[str, ...], line: int) -> ParseError:
    return ParseError(f"expected {len(header)} fields, got {len(fields)}", line=line)


def load_stations(path) -> list[Station]:
    stations: list[Station] = []
    seen: set[str] = set()
    for line, fields in read_csv_rows(path, STATIONS_HEADER):
        try:
            sid, source_id, xs, ys, target_field = fields
        except ValueError:
            if fields:
                raise _width_error(fields, STATIONS_HEADER, line)
            continue
        try:
            x, y = float(xs), float(ys)
        except ValueError:
            raise ParseError(f"bad coordinate pair ({xs!r}, {ys!r})", line=line)
        if UNQUOTABLE.search(sid + target_field):
            raise ValidationError(
                f"station {sid!r}: ids must not hold a comma, a double quote or a line break")
        station = Station(sid, source_id, x, y,
                          tuple(t for t in target_field.split("|") if t))
        station.validate()
        if sid in seen:
            raise ValidationError(f"duplicate station_id {sid!r}")
        seen.add(sid)
        stations.append(station)
    if not stations:
        raise ValidationError("station table has no rows")
    # The auto RBF shape divides by twice a squared distance, so that must be
    # finite for every pair. Plain floats: a numpy check raised run-all's peak RSS.
    xs, ys = [st.x for st in stations], [st.y for st in stations]
    dx, dy = max(xs) - min(xs), max(ys) - min(ys)
    if not math.isfinite(2.0 * (dx * dx + dy * dy)):
        far = max(stations, key=lambda st: max(abs(st.x), abs(st.y)))
        raise ValidationError(f"station {far.id}: coordinates too far from the other "
                              "stations for float64 distances")
    return stations


def write_stations(path, stations: list[Station]) -> None:
    """The station table ``load_stations`` reads, coordinates to 6 decimals."""
    rows = [(st.id, st.source_id, st.x, st.y, "|".join(st.targets)) for st in stations]
    write_table(path, STATIONS_HEADER, rows, "%.6f")


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
    only these rows: a stable sort's last of each run (np.unique imports numpy.ma).
    """
    order = np.argsort(keys, kind="stable")
    last = np.ones(keys.size, dtype=bool)
    last[:-1] = keys[order[1:]] != keys[order[:-1]]
    return order[last]


def _stamp(ts: datetime) -> str:
    return ts.isoformat(timespec="minutes")


@dataclass(frozen=True)
class LongFormat:
    """A long-format CSV: one row per (hour, station, target) cell.

    The fields are timestamp, station_id, target_id and value, then a tag
    when ``tags`` lists the texts it may take. ``spec`` writes the values.
    """

    header: tuple[str, ...]
    spec: str
    tags: tuple[str, ...]

    def read(self, path, cells, max_gap_hours: int | None = None):
        """``(timestamps, station_ids, target_ids, values, codes)`` of a file.

        ``values`` is (T, S, K) with NaN where no row gave a value, and
        ``codes`` the (T, S, K) int8 index of each cell's tag. ``cells``
        lists the allowed (station_id, target_id) pairs; ``None`` takes the
        file's own pairs, and then every hour and cell must have a value.
        Stations and targets keep their order of first appearance.

        Row rule: a timestamp is parsed once per distinct text and must be
        naive and on the hour; a value must be finite, and the empty field
        is the only missing-value marker. Grid rule: the time axis is every
        hour from the first to the last, with no run of more than
        ``max_gap_hours`` (0 when ``cells`` is None) hours without a row,
        checked before the grid is allocated; the later of two rows for one
        cell wins. An error names its line, or the first missing hour or cell.
        """
        dense = cells is None
        column = {pair: j for j, pair in enumerate(cells or ())}
        tag_code = {tag: i for i, tag in enumerate(self.tags)}
        hours: dict[str, int] = {}
        hour_col, cell_col, vals, codes = array("q"), array("q"), array("d"), array("b")
        isfinite, nan = math.isfinite, math.nan
        for line, fields in read_csv_rows(path, self.header):
            try:
                if tag_code:
                    stamp, sid, tid, text, tag = fields
                else:
                    stamp, sid, tid, text = fields
            except ValueError:
                if fields:
                    raise _width_error(fields, self.header, line)
                continue
            hour = hours.get(stamp)
            if hour is None:
                hour = hours[stamp] = (_parse_timestamp(stamp, line) - datetime.min) // HOUR
            j = column.get((sid, tid))
            if j is None:
                if dense:
                    j = column[sid, tid] = len(column)
                elif any(sid == known for known, _ in column):
                    raise ValidationError(
                        f"line {line}: station {sid!r} does not measure target {tid!r}")
                else:
                    raise ValidationError(f"line {line}: unknown station_id {sid!r}")
            if text:
                try:
                    value = float(text)
                except ValueError:
                    raise ParseError(f"bad value {text!r}", line=line)
                if not isfinite(value):
                    raise ParseError(f"non-finite value {text!r}", line=line)
            else:
                value = nan
            if tag_code:
                code = tag_code.get(tag)
                if code is None:
                    raise ParseError(f"bad {self.header[4]} {tag!r}", line=line)
                codes.append(code)
            hour_col.append(hour)
            cell_col.append(j)
            vals.append(value)
        if not vals:
            raise ValidationError(f"{path} contains no observations (no data rows)")

        # Two texts can name one hour; the repeat's difference is -1, no gap.
        seen = np.sort(np.fromiter(hours.values(), dtype=np.int64))
        h0, n_hours = int(seen[0]), int(seen[-1] - seen[0]) + 1
        limit = 0 if dense else max_gap_hours
        empty = np.diff(seen) - 1
        if limit is not None and (empty > limit).any():
            i = int(np.argmax(empty > limit))
            gap = datetime.min + (int(seen[i]) + 1) * HOUR
            raise ValidationError(f"{path} has no rows for hour {_stamp(gap)}, the first "
                                  f"of {empty[i]} empty hours (at most {limit} allowed)")
        s_index = {sid: i for i, sid in enumerate(dict.fromkeys(sid for sid, _ in column))}
        k_index = {tid: i for i, tid in enumerate(dict.fromkeys(tid for _, tid in column))}
        offset = np.array([s_index[sid] * len(k_index) + k_index[tid] for sid, tid in column])
        shape = (n_hours, len(s_index), len(k_index))
        flat = ((np.frombuffer(hour_col, dtype=np.int64) - h0) * (shape[1] * shape[2])
                + offset[np.frombuffer(cell_col, dtype=np.int64)])
        last = last_occurrences(flat)
        values = np.full(shape, np.nan)
        values.reshape(-1)[flat[last]] = np.frombuffer(vals)[last]
        grid_codes = np.zeros(shape, dtype=np.int8)
        if tag_code:
            grid_codes.reshape(-1)[flat[last]] = np.frombuffer(codes, dtype=np.int8)[last]
        timestamps = [datetime.min + (h0 + i) * HOUR for i in range(n_hours)]
        if dense and np.isnan(values).any():
            t, s, k = np.unravel_index(np.argmax(np.isnan(values)), shape)
            raise ValidationError(f"{path} has no value for {_stamp(timestamps[t])},"
                                  f"{list(s_index)[s]},{list(k_index)[k]}")
        return timestamps, list(s_index), list(k_index), values, grid_codes

    def write(self, path, timestamps: list[datetime], cells, values: np.ndarray,
              codes) -> None:
        """Write (T, n) ``values`` an hour at a time, column j as the pair ``cells[j]``.

        NaN is written as the empty field, and ``codes[t, j]`` picks a row's
        tag. Rows follow the hours, then the columns.
        """
        keys = [f",{sid},{tid}," for sid, tid in cells]
        ends = [f",{tag}\n" for tag in self.tags] or ["\n"]
        if codes is None:
            codes = np.zeros(values.shape, dtype=np.int8)
        spec = self.spec
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.header) + "\n")
            for t, ts in enumerate(timestamps):
                stamp = _stamp(ts)
                fh.write("".join([f"{stamp}{key}{spec % v if v == v else ''}{ends[c]}"
                                  for key, v, c in zip(keys, values[t].tolist(),
                                                       codes[t].tolist())]))


OBSERVATIONS = LongFormat(OBSERVATIONS_HEADER, "%.6f", ())


def load_observations(path, stations: list[Station],
                      max_gap_hours: int | None = None) -> ObservationPanel:
    """Read long-format observations into a dense hourly panel.

    Only the stations' native cells may appear, by the rules of
    ``LongFormat.read``; hours without rows become NaN rows rather than
    silently shrinking the grid. A longer run than ``max_gap_hours``, which
    ``clean_panel`` could not fill, is a ValidationError when it is given.
    """
    timestamps, _, target_ids, values, _ = OBSERVATIONS.read(
        path, [(st.id, t) for st in stations for t in st.targets], max_gap_hours)
    panel = ObservationPanel(timestamps, list(stations), target_ids, values)
    panel.validate()
    return panel


def clean_panel(panel: ObservationPanel, max_gap_hours: int) -> ObservationPanel:
    """Fill short interior gaps per (station, target) series.

    A missing hour t between readings at hours p and n of its series is
    filled when the gap, n - p - 1 hours, is at most ``max_gap_hours``, with
    np.interp's arithmetic (v_n - v_p) / (n - p) * (t - p) + v_p. Gaps longer
    than that and gaps at either end of the series stay missing; fusion
    fills them. Idempotent.
    """
    if max_gap_hours < 0:
        raise ConfigError(f"max_gap_hours must be >= 0, got {max_gap_hours}")
    values = panel.values.copy()
    missing = np.isnan(values)
    n_hours = values.shape[0]
    hour = np.arange(n_hours).reshape(-1, 1, 1)
    before = np.maximum.accumulate(np.where(missing, -1, hour), axis=0)
    after = np.minimum.accumulate(np.where(missing, n_hours, hour)[::-1], axis=0)[::-1]
    t, s, k = np.nonzero(missing & (before >= 0) & (after < n_hours)
                         & (after - before <= max_gap_hours + 1))
    p, n = before[t, s, k], after[t, s, k]
    lo = values[p, s, k]
    values[t, s, k] = (values[n, s, k] - lo) / (n - p) * (t - p) + lo
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
    # One contiguous row per target: reducing it is several times faster than
    # reducing over the leading axes of (T, S, K), where K is the inner axis.
    cols = np.moveaxis(values[:train_rows], -1, 0).copy().reshape(values.shape[-1], -1)
    empty = np.isnan(cols).all(axis=1)
    if empty.any():
        raise ValidationError(
            f"target {target_ids[empty.argmax()]!r} has no data in the training rows")
    return NormalizationParams(list(target_ids), np.nanmin(cols, axis=1),
                               np.nanmax(cols, axis=1))


def apply_normalization(values: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """Map each target channel to (v - min) / (max - min); NaN passes through.

    A degenerate channel (max == min) maps to 0 everywhere.
    """
    if values.shape[-1] != len(params.target_ids):
        raise ValidationError("normalization params do not match the target axis")
    span = params.maxs - params.mins
    out = np.divide(values - params.mins, span, out=np.zeros_like(values),
                    where=span != 0.0)
    out[np.isnan(values)] = np.nan
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
    """Stride-1 supervised windows with a chronological train/val/test split.

    Window i starts at row i, and ``inputs`` is a read-only view of ``rows``.
    """

    rows: np.ndarray         # (T, S, K), read-only: the rows the windows were cut from
    inputs: np.ndarray       # (N, P, S, K)
    targets: np.ndarray      # (N, Q, S, 1), the predicted target only
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

    def series(self, name: str) -> np.ndarray:
        """The split's rows: windows lo, ..., hi - 1 cover rows [lo, hi + P - 1),
        whose stride-1 windows are ``part``'s, in its order."""
        lo, hi = self.bounds(name)
        return self.rows[lo:hi + self.history_steps - 1]

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
                 split: tuple[float, float, float] = DEFAULT_SPLIT) -> WindowedDataset:
    """Cut (history, horizon) windows at stride 1 and split chronologically.

    A window starting at row i uses rows [i, i+P) as input and the predicted
    target at rows [i+P, i+P+Q) as supervision; with T rows there are
    T - P - Q + 1 windows. ``values`` must be complete, as a fused panel is:
    a missing cell is a ValidationError. The dataset keeps a read-only copy
    of ``values`` as ``rows``, and its inputs are a view of them.
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

    rows = np.array(values, dtype=np.float64)
    rows.flags.writeable = False
    missing = np.isnan(rows).any(axis=(1, 2))
    if missing.any():
        raise ValidationError(f"row {missing.argmax()} has a missing cell; "
                              "windows are cut from a complete panel")
    n = t_total - p - q + 1
    inputs = np.moveaxis(sliding_window_view(rows, p, axis=0), -1, 1)[:n]   # (N, P, S, K)
    horizon = sliding_window_view(rows[:, :, target_ids.index(predicted_target)], q, axis=0)
    targets = np.moveaxis(horizon, -1, 1)[p:p + n][..., np.newaxis]  # (N, Q, S, 1)

    n_train = round(split[0] * n)
    n_val = round((split[0] + split[1]) * n) - n_train
    return WindowedDataset(
        rows=rows,
        inputs=inputs,
        targets=np.array(targets),
        history_steps=p,
        horizon_steps=q,
        predicted_target=predicted_target,
        station_ids=list(station_ids),
        target_ids=list(target_ids),
        n_train=n_train,
        n_val=n_val,
    )
