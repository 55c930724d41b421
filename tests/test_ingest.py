"""CSV loading, gap cleaning, normalization and windowing."""

import tracemalloc
from datetime import datetime

import numpy as np
import pytest

from geofuse.errors import ConfigError, ParseError, ValidationError
from geofuse.io import FUSED
from geofuse.ingest import (
    ObservationPanel,
    Station,
    apply_normalization,
    clean_panel,
    fit_normalization,
    invert_normalization,
    load_observations,
    load_stations,
    make_windows,
)
from geofuse.synth import SynthConfig, generate, write_scenario_csvs

STATIONS_CSV = """\
station_id,source_id,x,y,targets
s1,net_a,0.0,0.0,pm25|pm10
s2,net_a,1.0,0.0,pm25
s3,net_b,0.5,1.0,o3
"""

OBS_CSV = """\
timestamp,station_id,target_id,value
2017-01-01T00:00,s1,pm25,10.0
2017-01-01T00:00,s1,pm10,20.0
2017-01-01T00:00,s2,pm25,12.0
2017-01-01T00:00,s3,o3,30.0
2017-01-01T02:00,s1,pm25,11.0
2017-01-01T02:00,s3,o3,
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def load_both(tmp_path, stations_text=STATIONS_CSV, obs_text=OBS_CSV):
    stations = load_stations(write(tmp_path, "stations.csv", stations_text))
    panel = load_observations(write(tmp_path, "observations.csv", obs_text), stations)
    return stations, panel


def test_load_stations(tmp_path):
    stations, panel = load_both(tmp_path)
    assert [st.id for st in stations] == ["s1", "s2", "s3"]
    assert stations[0].targets == ("pm25", "pm10")
    assert stations[2].source_id == "net_b"
    # The panel's targets: native targets in first-appearance order.
    assert panel.target_ids == ["pm25", "pm10", "o3"]


def test_load_stations_errors(tmp_path):
    with pytest.raises(ParseError, match="header"):
        load_stations(write(tmp_path, "a.csv", "id,x,y\n"))
    with pytest.raises(ParseError, match="line 2"):
        load_stations(write(
            tmp_path, "b.csv",
            "station_id,source_id,x,y,targets\ns1,net,abc,0.0,pm25\n"))
    with pytest.raises(ValidationError, match="duplicate station_id"):
        load_stations(write(
            tmp_path, "c.csv",
            "station_id,source_id,x,y,targets\ns1,n,0,0,pm25\ns1,n,1,1,pm25\n"))
    with pytest.raises(ValidationError, match="native target"):
        load_stations(write(
            tmp_path, "d.csv",
            "station_id,source_id,x,y,targets\ns1,n,0,0,\n"))
    (tmp_path / "e.csv").write_bytes(
        b"station_id,source_id,x,y,targets\ns\xff,n,0,0,pm25\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_stations(tmp_path / "e.csv")


def test_load_observations_builds_hourly_grid(tmp_path):
    _, panel = load_both(tmp_path)
    # Rows at hours 0 and 2: hour 1 exists as an all-NaN grid row.
    assert len(panel.timestamps) == 3
    assert panel.timestamps[1] == datetime(2017, 1, 1, 1)
    assert panel.values.shape == (3, 3, 3)
    k = panel.target_ids.index("pm25")
    assert panel.values[0, 0, k] == 10.0
    assert panel.values[2, 0, k] == 11.0
    assert np.isnan(panel.values[1]).all()
    # The empty value field at (2, s3, o3) stays missing.
    assert np.isnan(panel.values[2, 2, panel.target_ids.index("o3")])
    # Foreign cells are never populated.
    assert np.isnan(panel.values[0, 1, panel.target_ids.index("o3")])
    mask = panel.native_mask()
    assert mask[0, 0] and mask[0, 1] and not mask[0, 2]


def test_load_observations_errors(tmp_path):
    stations = load_stations(write(tmp_path, "stations.csv", STATIONS_CSV))
    header = "timestamp,station_id,target_id,value\n"

    def attempt(row):
        return load_observations(write(tmp_path, "obs.csv", header + row), stations)

    with pytest.raises(ValidationError, match="unknown station_id"):
        attempt("2017-01-01T00:00,sX,pm25,1.0\n")
    with pytest.raises(ValidationError, match="does not measure"):
        attempt("2017-01-01T00:00,s2,o3,1.0\n")
    with pytest.raises(ValidationError, match="not on the hour"):
        attempt("2017-01-01T00:30,s1,pm25,1.0\n")
    with pytest.raises(ParseError, match="bad timestamp"):
        attempt("yesterday,s1,pm25,1.0\n")
    with pytest.raises(ParseError, match="bad value"):
        attempt("2017-01-01T00:00,s1,pm25,ten\n")
    for value in ("inf", "nan", "1e999"):
        with pytest.raises(ParseError, match="line 2: non-finite value"):
            attempt(f"2017-01-01T00:00,s1,pm25,{value}\n")
    with pytest.raises(ValidationError, match="no observations"):
        attempt("")


def test_field_count_is_checked_per_row_and_blank_rows_are_skipped(tmp_path):
    stations = load_stations(write(tmp_path, "stations.csv",
                                   STATIONS_CSV.replace("\ns2", "\n\ns2")))
    assert [st.id for st in stations] == ["s1", "s2", "s3"]
    with pytest.raises(ParseError, match="line 3: expected 5 fields, got 4"):
        load_stations(write(tmp_path, "bad.csv",
                            "station_id,source_id,x,y,targets\ns1,n,0,0,pm25\ns2,n,1,1\n"))
    header = "timestamp,station_id,target_id,value\n"
    ok = "2017-01-01T00:00,s1,pm25,1.0\n"
    panel = load_observations(write(tmp_path, "obs.csv", header + "\n" + ok + "\n"), stations)
    assert panel.values[0, 0, panel.target_ids.index("pm25")] == 1.0
    for row, got in (("2017-01-01T00:00,s1,pm25\n", 3), (ok.rstrip("\n") + ",raw\n", 5)):
        with pytest.raises(ParseError, match=f"line 3: expected 4 fields, got {got}"):
            load_observations(write(tmp_path, "obs.csv", header + ok + row), stations)
    with pytest.raises(ParseError, match="line 2: expected 5 fields, got 4"):
        FUSED.read(write(tmp_path, "fused.csv", ",".join(FUSED.header) + "\n" + ok), None)


def test_stray_quote_is_a_parse_error(tmp_path):
    # An unclosed quote runs the field to the end of the file; past csv's
    # field size limit that is a csv.Error, which must not escape.
    stations = load_stations(write(tmp_path, "stations.csv", STATIONS_CSV))
    rows = "".join(f"2017-01-01T00:00,s1,pm25,{i}.5\n" for i in range(8000))
    path = write(tmp_path, "obs.csv", "timestamp,station_id,target_id,value\n"
                 '2017-01-01T00:00,"s1,pm25,1.0\n' + rows)
    with pytest.raises(ParseError, match="field larger than field limit"):
        load_observations(path, stations)


def test_load_observations_memory_is_a_small_multiple_of_the_panel(tmp_path):
    # 60 stations, 300 hours, 2% gaps: about 42,000 rows. A reader that keeps
    # a Python tuple per row until the file ends peaks near 23 times the
    # panel's bytes; a streaming one near 4 times.
    scenario = generate(SynthConfig(seed=2, hours=300, gap_rate=0.02,
                                    stations_per_source=(20, 20, 20),
                                    targets_per_source=(2, 3, 2)))
    write_scenario_csvs(scenario, tmp_path / "stations.csv", tmp_path / "obs.csv")
    stations = load_stations(tmp_path / "stations.csv")
    tracemalloc.start()
    try:
        panel = load_observations(tmp_path / "obs.csv", stations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The CSV holds 7 significant digits.
    np.testing.assert_allclose(panel.values, scenario.panel.values, rtol=1e-6)
    assert peak < 12 * panel.values.nbytes


def test_duplicate_cell_last_wins(tmp_path):
    stations = load_stations(write(tmp_path, "stations.csv", STATIONS_CSV))
    text = ("timestamp,station_id,target_id,value\n"
            "2017-01-01T00:00,s1,pm25,1.0\n"
            "2017-01-01T00:00,s1,pm25,2.0\n")
    panel = load_observations(write(tmp_path, "obs.csv", text), stations)
    assert panel.values[0, 0, 0] == 2.0


def _series_panel(series):
    station = Station("s1", "n", 0.0, 0.0, ("t",))
    values = np.asarray(series, dtype=float)[:, None, None]
    from datetime import timedelta
    ts = [datetime(2017, 1, 1) + timedelta(hours=i) for i in range(len(series))]
    return ObservationPanel(ts, [station], ["t"], values)


def _fill_short_gaps_reference(col, max_gap):
    """The per-series loop: one np.interp per interior NaN run of length <= max_gap."""
    missing = np.isnan(col)
    n, i = len(col), 0
    while i < n:
        if not missing[i]:
            i += 1
            continue
        j = i
        while j < n and missing[j]:
            j += 1
        if i > 0 and j < n and (j - i) <= max_gap:
            col[i:j] = np.interp(np.arange(i, j), [i - 1, j], [col[i - 1], col[j]])
        i = j


def test_clean_panel_equals_the_per_series_loop_bit_for_bit():
    rng = np.random.default_rng(77)
    for _ in range(90):
        shape = (int(rng.integers(1, 80)), int(rng.integers(1, 6)), int(rng.integers(1, 4)))
        values = rng.normal(0.0, 10.0 ** rng.uniform(-3, 6), size=shape)
        values[rng.random(shape) < rng.uniform(0.0, 0.7)] = np.nan
        max_gap = int(rng.integers(0, 6))
        want = values.copy()
        for s in range(shape[1]):
            for k in range(shape[2]):
                _fill_short_gaps_reference(want[:, s, k], max_gap)
        panel = ObservationPanel([None] * shape[0], [], [], values)
        got = clean_panel(panel, max_gap_hours=max_gap).values
        assert got.tobytes() == want.tobytes()


def test_clean_panel_fills_short_interior_gaps():
    panel = _series_panel([1.0, np.nan, np.nan, np.nan, 5.0, np.nan])
    cleaned = clean_panel(panel, max_gap_hours=3)
    assert np.allclose(cleaned.values[:5, 0, 0], [1.0, 2.0, 3.0, 4.0, 5.0])
    # Trailing gap has one anchor only: stays missing.
    assert np.isnan(cleaned.values[5, 0, 0])
    # Source panel is untouched.
    assert np.isnan(panel.values[1, 0, 0])


def test_clean_panel_respects_max_gap():
    series = [1.0, np.nan, np.nan, np.nan, np.nan, 6.0]
    cleaned = clean_panel(_series_panel(series), max_gap_hours=3)
    assert np.isnan(cleaned.values[1:5, 0, 0]).all()
    wider = clean_panel(_series_panel(series), max_gap_hours=4)
    assert np.allclose(wider.values[:, 0, 0], [1, 2, 3, 4, 5, 6])


def test_clean_panel_idempotent():
    panel = _series_panel([np.nan, 1.0, np.nan, 3.0, np.nan, np.nan, np.nan, np.nan, 9.0])
    once = clean_panel(panel, max_gap_hours=2)
    twice = clean_panel(once, max_gap_hours=2)
    assert np.array_equal(once.values, twice.values, equal_nan=True)
    with pytest.raises(ConfigError):
        clean_panel(panel, max_gap_hours=-1)


def test_normalization_fit_uses_training_rows_only():
    values = np.zeros((10, 1, 2))
    values[:, 0, 0] = np.arange(10, dtype=float)          # max 9 overall
    values[:, 0, 1] = 5.0                                  # degenerate channel
    values[9, 0, 1] = 100.0                                # outside the fit range
    params = fit_normalization(values, ["a", "b"], train_rows=6)
    assert params.mins[0] == 0.0 and params.maxs[0] == 5.0
    assert params.mins[1] == 5.0 and params.maxs[1] == 5.0

    normed = apply_normalization(values, params)
    assert normed[0, 0, 0] == 0.0 and normed[5, 0, 0] == 1.0
    assert normed[9, 0, 0] > 1.0                           # later rows may exceed [0, 1]
    assert np.all(normed[:, 0, 1] == 0.0)                  # degenerate maps to zero

    restored = invert_normalization(normed[:, 0, 0], params, "a")
    assert np.allclose(restored, values[:, 0, 0])
    assert invert_normalization(np.array([0.0]), params, "b")[0] == 5.0


def test_normalization_nan_passthrough_and_errors():
    values = np.array([[[1.0, np.nan]], [[3.0, np.nan]]])
    with pytest.raises(ValidationError, match="'b'"):
        fit_normalization(values, ["a", "b"], train_rows=2)
    values[0, 0, 1] = 0.5
    params = fit_normalization(values, ["a", "b"], train_rows=2)
    normed = apply_normalization(values, params)
    assert np.isnan(normed[1, 0, 1])
    with pytest.raises(ValidationError):
        fit_normalization(values, ["a", "b"], train_rows=0)
    with pytest.raises(ValidationError):
        invert_normalization(np.zeros(2), params, "missing")


def test_make_windows_counts_and_content():
    t_total, s, k = 10, 2, 2
    values = np.arange(t_total * s * k, dtype=float).reshape(t_total, s, k)
    ds = make_windows(values, ["s1", "s2"], ["a", "b"], 3, 2, "b")
    assert ds.n_total == t_total - 3 - 2 + 1
    assert ds.inputs.shape == (6, 3, 2, 2)
    assert ds.targets.shape == (6, 2, 2, 1)
    for i in range(ds.n_total):
        assert np.array_equal(ds.inputs[i], values[i:i + 3])
        assert np.array_equal(ds.targets[i][..., 0], values[i + 3:i + 5, :, 1])
    assert np.array_equal(ds.starts, np.arange(6))


def test_make_windows_full_scale_count():
    # A year of hourly rows with history 12 and horizon 3.
    values = np.zeros((8784, 1, 1))
    ds = make_windows(values, ["s"], ["t"], 12, 3, "t", split=(0.6, 0.2, 0.2))
    assert ds.n_total == 8770
    lo, hi = ds.bounds("train")
    assert (hi - lo) == round(0.6 * 8770)


def test_make_windows_split_sizes():
    values = np.zeros((14, 1, 1))  # N = 14 - 3 - 2 + 1 = 10
    ds = make_windows(values, ["s"], ["t"], 3, 2, "t", split=(0.6, 0.2, 0.2))
    assert ds.n_train == 6 and ds.n_val == 2
    a, b = ds.part("test")
    assert a.shape[0] == 2 and b.shape[0] == 2
    assert ds.bounds("val") == (6, 8)


def test_make_windows_drops_windows_touching_nan():
    values = np.random.default_rng(80).normal(size=(12, 2, 1))
    values[5, 0, 0] = np.nan
    ds = make_windows(values, ["s1", "s2"], ["t"], 3, 1, "t")
    # Windows with rows [i, i+3] covering row 5 (input or target) are gone.
    assert ds.n_total == 12 - 3 - 1 + 1 - 4
    assert 5 not in [s + off for s in ds.starts for off in range(4)]


def test_make_windows_errors():
    values = np.zeros((4, 1, 1))
    with pytest.raises(ValidationError, match="history"):
        make_windows(values, ["s"], ["t"], 0, 1, "t")
    with pytest.raises(ValidationError, match="rows"):
        make_windows(values, ["s"], ["t"], 3, 2, "t")
    with pytest.raises(ValidationError, match="predicted target"):
        make_windows(np.zeros((9, 1, 1)), ["s"], ["t"], 3, 2, "x")
    with pytest.raises(ConfigError, match="split"):
        make_windows(np.zeros((9, 1, 1)), ["s"], ["t"], 3, 2, "t", split=(0.5, 0.2, 0.2))
    with pytest.raises(ValidationError, match="missing"):
        make_windows(np.full((9, 1, 1), np.nan), ["s"], ["t"], 3, 2, "t")
