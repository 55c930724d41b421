"""CSV artifact writers and readers, including exact float round trips."""

import tracemalloc
from datetime import datetime, timedelta

import numpy as np
import pytest

from geofuse.errors import ParseError, ValidationError
from geofuse.fusion import FusionMatrix
from geofuse.io import (
    read_adjacency_csv,
    read_fused_csv,
    write_adjacency_csv,
    write_fused_csv,
    write_forecast_csv,
    write_history_csv,
    write_metrics_csv,
    write_report_csvs,
)
from geofuse.metrics import KDE_GRID_SIZE, consistency_report
from geofuse.stgcn import EpochStats

HOUR = timedelta(hours=1)


def _toy_fused(t=5, s=3, k=2, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(t, s, k)) * np.pi  # awkward digits on purpose
    mask = rng.random((t, s, k)) > 0.4
    start = datetime(2017, 3, 1)
    return FusionMatrix(
        [start + i * HOUR for i in range(t)],
        [f"s{i}" for i in range(s)],
        [f"t{j}" for j in range(k)],
        values,
        mask,
    )


def test_fused_round_trip_is_bit_exact(tmp_path):
    fused = _toy_fused()
    path = tmp_path / "fused.csv"
    write_fused_csv(fused, path)
    back = read_fused_csv(path)
    assert back.values.tobytes() == fused.values.tobytes()
    assert np.array_equal(back.raw_mask, fused.raw_mask)
    assert back.station_ids == fused.station_ids
    assert back.target_ids == fused.target_ids
    assert back.timestamps == fused.timestamps


def test_fused_writer_is_deterministic(tmp_path):
    fused = _toy_fused(seed=1)
    write_fused_csv(fused, tmp_path / "a.csv")
    write_fused_csv(fused, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_fused_writer_matches_per_cell_format(tmp_path):
    values = np.array([[[-0.0, 3.0], [1e-300, 1e300], [0.1, -2.5e-7]],
                       [[np.pi, -1.0], [2.0 ** -1074, 1 / 3], [123456789.125, -0.1]]])
    mask = np.array([[[True, False], [False, True], [True, True]],
                     [[False, False], [True, False], [False, True]]])
    fused = FusionMatrix([datetime(2017, 3, 1) + i * HOUR for i in range(2)],
                         ["s0", "s1", "s2"], ["t0", "t1"], values, mask)
    lines = ["timestamp,station_id,target_id,value,provenance\n"]
    for t, ts in enumerate(fused.timestamps):
        for s, sid in enumerate(fused.station_ids):
            for k, tid in enumerate(fused.target_ids):
                tag = "raw" if mask[t, s, k] else "fused"
                lines.append(f"{ts:%Y-%m-%dT%H:%M},{sid},{tid},{values[t, s, k]:.17g},{tag}\n")
    path = tmp_path / "fused.csv"
    write_fused_csv(fused, path)
    assert path.read_bytes() == "".join(lines).encode()
    assert b",-0,raw\n" in path.read_bytes()


def test_fused_reader_errors(tmp_path):
    path = tmp_path / "fused.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(ParseError, match="header"):
        read_fused_csv(path)
    path.write_text("timestamp,station_id,target_id,value,provenance\n")
    with pytest.raises(ValidationError, match="no data"):
        read_fused_csv(path)
    path.write_text("timestamp,station_id,target_id,value,provenance\n"
                    "2017-03-01T00:00,s0,t0,1.5,guessed\n")
    with pytest.raises(ParseError, match="line 2.*provenance"):
        read_fused_csv(path)
    path.write_text("timestamp,station_id,target_id,value,provenance\n"
                    "2017-03-01T00:00,s0,t0,abc,raw\n")
    with pytest.raises(ParseError, match="line 2.*value"):
        read_fused_csv(path)
    path.write_bytes(b"timestamp,station_id,target_id,value,provenance\n"
                     b"2017-03-01T00:00,s\xff,t0,1.5,raw\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        read_fused_csv(path)


def test_fused_reader_reports_first_faulty_line(tmp_path):
    path = tmp_path / "fused.csv"
    path.write_text("timestamp,station_id,target_id,value,provenance\n"
                    "2017-03-01T00:00,s0,t0,abc,raw\n"
                    "2017-03-01T00:00,s1,t0,1.5,raw\n"
                    "2017-03-01T00:00,s2,t0,1.5\n")
    with pytest.raises(ParseError, match="line 2: bad value"):
        read_fused_csv(path)


def _fused_lines(tmp_path, t=4):
    """A valid fused.csv of ``t`` hours (3 stations x 2 targets), as its lines."""
    path = tmp_path / "fused.csv"
    write_fused_csv(_toy_fused(t=t), path)
    return path, path.read_text().splitlines(keepends=True)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
def test_fused_reader_rejects_non_finite_values(tmp_path, value):
    path, lines = _fused_lines(tmp_path)
    fields = lines[3].split(",")
    fields[3] = value
    lines[3] = ",".join(fields)
    path.write_text("".join(lines))
    with pytest.raises(ParseError, match=f"line 4: non-finite value '{value}'"):
        read_fused_csv(path)


def test_fused_reader_rejects_offset_timestamps(tmp_path):
    path, lines = _fused_lines(tmp_path)
    path.write_text(lines[0] + "".join(line.replace(",", "+05:00,", 1) for line in lines[1:]))
    with pytest.raises(ValidationError, match="line 2: .* must be naive"):
        read_fused_csv(path)


def test_fused_reader_rejects_off_hour_timestamps(tmp_path):
    # Every row of the first hour moves to half past: the hours stay distinct.
    path, lines = _fused_lines(tmp_path)
    path.write_text("".join(line.replace("T00:00,", "T00:30,") for line in lines))
    with pytest.raises(ValidationError, match="line 2: .* not on the hour"):
        read_fused_csv(path)


def test_fused_reader_names_the_first_missing_hour_and_cell(tmp_path):
    path, lines = _fused_lines(tmp_path)
    per_hour = 6
    path.write_text("".join(lines[:1 + per_hour] + lines[1 + 2 * per_hour:]))
    with pytest.raises(ValidationError, match="no rows for hour 2017-03-01T01:00"):
        read_fused_csv(path)
    path.write_text("".join(lines[:1 + per_hour + 3] + lines[1 + per_hour + 4:]))
    with pytest.raises(ValidationError, match="no value for 2017-03-01T01:00,s1,t1"):
        read_fused_csv(path)


def test_fused_reader_memory_is_a_small_multiple_of_the_panel(tmp_path):
    # 300 hours x 60 stations x 7 targets: 126,000 rows. A reader that keeps
    # a Python object per row until the file ends peaks near 65 times the
    # panel's bytes; a streaming one near 10 times.
    fused = _toy_fused(t=300, s=60, k=7, seed=4)
    path = tmp_path / "fused.csv"
    write_fused_csv(fused, path)
    tracemalloc.start()
    try:
        back = read_fused_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.values.tobytes() == fused.values.tobytes()
    assert peak < 30 * fused.values.nbytes


def test_fused_reader_sorts_by_time(tmp_path):
    fused = _toy_fused(t=3)
    path = tmp_path / "fused.csv"
    write_fused_csv(fused, path)
    lines = path.read_text().splitlines()
    header, body = lines[0], lines[1:]
    # Shuffle whole-hour blocks so later hours come first.
    per_hour = len(fused.station_ids) * len(fused.target_ids)
    blocks = [body[i:i + per_hour] for i in range(0, len(body), per_hour)]
    path.write_text("\n".join([header] + sum(reversed(blocks), [])) + "\n")
    back = read_fused_csv(path)
    assert back.timestamps == fused.timestamps
    assert np.array_equal(back.values, fused.values)


def test_adjacency_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    raw = rng.random((4, 4))
    matrix = (raw + raw.T) / 2.0
    np.fill_diagonal(matrix, 0.0)
    ids = ["a", "b", "c", "d"]
    path = tmp_path / "adjacency.csv"
    write_adjacency_csv(matrix, ids, path)
    back_ids, back = read_adjacency_csv(path)
    assert back_ids == ids
    assert back.tobytes() == matrix.tobytes()
    with pytest.raises(ValidationError, match="match"):
        write_adjacency_csv(matrix, ids[:3], path)


def test_adjacency_reader_skips_blank_rows(tmp_path):
    path = tmp_path / "adj.csv"
    path.write_text("station_id,a,b\n\na,0,0.5\n\nb,0.5,0\n\n")
    ids, matrix = read_adjacency_csv(path)
    assert ids == ["a", "b"] and matrix.tolist() == [[0.0, 0.5], [0.5, 0.0]]
    path.write_text("station_id,a,b\n\na,0,0.5\nb,0.5,x\n")
    with pytest.raises(ParseError, match="weight") as info:
        read_adjacency_csv(path)
    assert info.value.line == 4                # the file's line, blanks counted


def test_adjacency_reader_errors(tmp_path):
    path = tmp_path / "adj.csv"
    path.write_text("nope,a\n")
    with pytest.raises(ParseError, match="station_id"):
        read_adjacency_csv(path)
    path.write_text("station_id,a,b\na,0,1\n")
    with pytest.raises(ParseError, match="expected 2 rows"):
        read_adjacency_csv(path)
    path.write_text("station_id,a,b\na,0,1\nc,1,0\n")
    with pytest.raises(ParseError, match="label"):
        read_adjacency_csv(path)
    path.write_text("station_id,a,b\na,0,x\nb,1,0\n")
    with pytest.raises(ParseError, match="weight"):
        read_adjacency_csv(path)
    path.write_bytes(b"station_id,a,b\na,0,1\nb,1,0\xff\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        read_adjacency_csv(path)
    path.write_text('station_id,a,b\na,0,"1\n' + "b,1,0\n" * 30000)
    with pytest.raises(ParseError, match="field larger than field limit"):
        read_adjacency_csv(path)


def test_history_and_metrics_formats(tmp_path):
    history = [EpochStats(1, 0.5, 0.6, 0.3, 0.4), EpochStats(2, 0.25, 0.5, 0.2, 0.3)]
    hist_path = tmp_path / "history.csv"
    write_history_csv(history, hist_path)
    lines = hist_path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_mae,val_rmse"
    assert lines[1].startswith("1,0.5,0.6")
    assert len(lines) == 3

    rows = [
        {"horizon": 1, "mae": 0.1, "rmse": 0.2, "mape": 3.0,
         "mape_excluded": 0, "r2": 0.9},
        {"horizon": "all", "mae": 0.15, "rmse": 0.25, "mape": 4.0,
         "mape_excluded": 2, "r2": 0.85},
    ]
    met_path = tmp_path / "metrics.csv"
    write_metrics_csv(rows, met_path)
    lines = met_path.read_text().splitlines()
    assert lines[0] == "horizon,mae,rmse,mape,mape_excluded,r2"
    assert lines[1].split(",")[0] == "1"
    assert lines[2].split(",")[0] == "all"
    assert lines[2].split(",")[4] == "2"


def test_forecast_writer(tmp_path):
    start = datetime(2017, 3, 2)
    stamps = [start + (h + 1) * HOUR for h in range(2)]
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "forecast.csv"
    write_forecast_csv(path, stamps, ["s0", "s1"], "t1", values)
    lines = path.read_text().splitlines()
    assert lines[0] == "timestamp,station_id,target_id,value"
    assert lines[1] == "2017-03-02T01:00,s0,t1,1"
    assert len(lines) == 5
    with pytest.raises(ValidationError, match="shape"):
        write_forecast_csv(path, stamps, ["s0"], "t1", values)


def test_report_csvs(tmp_path):
    rng = np.random.default_rng(3)
    fused_vals = rng.normal(size=(10, 4, 2))
    mask = rng.random((10, 4, 2)) > 0.3
    raw = np.where(mask, fused_vals, np.nan)
    report = consistency_report(raw, fused_vals, ["t1", "t2"])
    stamps = [datetime(2017, 3, 1) + i * HOUR for i in range(10)]
    names = write_report_csvs(report, tmp_path, stamps)
    assert names == ["variance.csv", "kde_t1.csv", "overlay_t1.csv",
                     "kde_t2.csv", "overlay_t2.csv"]
    for name in names:
        assert (tmp_path / name).exists()
    variance_lines = (tmp_path / "variance.csv").read_text().splitlines()
    assert variance_lines[0] == "target_id,raw_variance,fused_variance,ratio"
    assert len(variance_lines) == 3
    kde_lines = (tmp_path / "kde_t1.csv").read_text().splitlines()
    assert kde_lines[0] == "grid,raw_density,fused_density"
    assert len(kde_lines) == KDE_GRID_SIZE + 1
    overlay_lines = (tmp_path / "overlay_t1.csv").read_text().splitlines()
    assert overlay_lines[0] == \
        "timestamp,raw_mean,fused_mean,raw_variance,fused_variance"
    assert len(overlay_lines) == 11
