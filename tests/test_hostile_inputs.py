"""Hostile CSV inputs through the command line end in a documented exit code.

One field or row of a tiny scenario's observations.csv, fused.csv or
adjacency.csv is changed; fuse, report, predict and evaluate then run
through ``main`` against a model trained once for the module. ``main`` must
return 0-7 and never raise. A fused.csv that breaks the observation rules
exits 3, and a non-finite adjacency weight exits 5. A station graph with no
edge exits 5 without a warning, and so does an observation too large for a
float64 variance in ``report`` (exit 7); a station too far from the others
for float64 distances exits 3 without one. An observation too large for
min-max scaling to keep the other readings exits 6 from run-all and train.
A model larger than physical memory exits 2 from the config and 3 from a
checkpoint, before any weight is drawn. A checkpoint whose metadata is
missing or bad (its config text, ids, scaling or predicted target, an id
list, config or scaling of the wrong JSON type, a scaling span that
overflows or is inverted, or a non-integer model size) exits 3 with one line
naming the key and no warning, one with a parameter that is not a finite
real number exits 7, and any value in one key of its config text, any JSON
value in one key of its other metadata, and one parameter block replaced,
reshaped, retyped, dropped or added each end in 0, 3 or 7; and
observations with a century between two rows exit 3 before the hourly
grid is allocated. A station id that the unquoted artifacts cannot carry
exits 3 quietly, whether stations.csv holds it (fuse, graph) or fused.csv
and adjacency.csv do (train, predict, evaluate), and a target that reads
one constant value everywhere is reported, not refused.
"""

import contextlib
import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import geofuse.stgcn
from geofuse.checkpoint import load_checkpoint, save_checkpoint
from geofuse.cli import main
from geofuse.config import _PARSERS
from geofuse.errors import ValidationError
from geofuse.metrics import kde

CONFIG = """\
predicted_target = t02
history_steps = 6
horizon_steps = 2
channels = 4, 2, 4
time_kernel = 2
batch_size = 8
epochs = 1
seed = 1
"""

# Tokens that no fused.csv field may hold. Random text below has no decimal
# digits, so it cannot be a timestamp, a station or a target of the scenario,
# and no comma, quote or line break, which the listed tokens cover.
BAD_TOKENS = ["", "inf", "-inf", "nan", "1e999", "abc", ",", '"', "\n",
              "2017-01-01T00:30", "2017-01-01T00:00+05:00", "2017-01-03T00:00",
              "s\udcff"]  # a lone surrogate, written as a byte that is not UTF-8
TOKENS = (st.sampled_from(BAD_TOKENS)
          | st.floats().map(repr)
          | st.text(st.characters(exclude_categories=("Nd", "Cs"),
                                  exclude_characters=',"\r\n'), max_size=6))


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _with_line(text: str, key: str, value: str) -> str:
    """Config text with the value of its ``key`` line replaced."""
    lines = text.splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.partition("=")[0].strip() == key)
    lines[at] = f"{key} = {value}\n"
    return "".join(lines)


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    assert _quiet_main(["synth", "--out-dir", str(root), "--stations", "3,3",
                        "--targets", "1,1", "--hours", "40", "--seed", "3"]) == 0
    (root / "run.cfg").write_text(CONFIG)
    (root / "out").mkdir()
    (root / "mutated").mkdir()
    paths = {name: root / name for name in ("stations.csv", "observations.csv",
                                            "fused.csv", "adjacency.csv")}
    assert _quiet_main(["fuse", "--stations", str(paths["stations.csv"]),
                        "--observations", str(paths["observations.csv"]),
                        "--out", str(paths["fused.csv"])]) == 0
    assert _quiet_main(["graph", "--stations", str(paths["stations.csv"]),
                        "--out", str(paths["adjacency.csv"])]) == 0
    assert _quiet_main(["train", "--fused", str(paths["fused.csv"]),
                        "--adjacency", str(paths["adjacency.csv"]),
                        "--config", str(root / "run.cfg"),
                        "--out-dir", str(root / "model")]) == 0
    return root, paths


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _fused_field_is_valid(col: int, old: str, token: str) -> bool:
    if token == old:
        return True
    if col == 3:
        value = _number(token)
        return value is not None and math.isfinite(value)
    return col == 4 and token in ("raw", "fused")


FILES = ("observations.csv", "fused.csv", "adjacency.csv")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(FILES), kind=st.sampled_from(["field", "delete", "duplicate"]),
       row=st.integers(0, 10**4), col=st.integers(0, 10), token=TOKENS)
@example(name="fused.csv", kind="field", row=7, col=3, token="inf")
@example(name="fused.csv", kind="field", row=7, col=0, token="2017-01-01T00:00+05:00")
@example(name="fused.csv", kind="field", row=1, col=0, token="2017-01-01T00:30")
@example(name="adjacency.csv", kind="field", row=2, col=1, token="inf")
def test_hostile_csv_ends_in_a_documented_exit_code(scenario, name, kind, row, col, token):
    """``row`` and ``col`` pick a line and a field modulo their counts."""
    root, paths = scenario
    lines = paths[name].read_text().splitlines(keepends=True)
    row %= len(lines)
    if kind == "field":
        fields = lines[row].rstrip("\n").split(",")
        col %= len(fields)
        old, fields[col] = fields[col], token
        lines[row] = ",".join(fields) + "\n"
    elif kind == "delete":
        del lines[row]
    else:
        lines.insert(row, lines[row])
    mutated = root / "mutated" / name
    mutated.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
    inputs = {key: str(mutated if key == name else path) for key, path in paths.items()}
    out = root / "out"

    codes = {
        "fuse": _quiet_main(["fuse", "--stations", inputs["stations.csv"],
                             "--observations", inputs["observations.csv"],
                             "--out", str(out / "fused.csv")]),
        "report": _quiet_main(["report", "--stations", inputs["stations.csv"],
                               "--observations", inputs["observations.csv"],
                               "--fused", inputs["fused.csv"], "--out-dir", str(out)]),
        "predict": _quiet_main(["predict", "--fused", inputs["fused.csv"],
                                "--adjacency", inputs["adjacency.csv"],
                                "--model", str(root / "model" / "model.ckpt"),
                                "--out", str(out / "forecast.csv")]),
        "evaluate": _quiet_main(["evaluate", "--fused", inputs["fused.csv"],
                                 "--adjacency", inputs["adjacency.csv"],
                                 "--model", str(root / "model" / "model.ckpt"),
                                 "--out-dir", str(out)]),
    }
    assert all(code in range(8) for code in codes.values()), codes

    number = _number(token) if kind == "field" and row > 0 and col > 0 else None
    if name == "fused.csv":
        bad = (kind == "delete" or (kind == "duplicate" and row == 0)
               or (kind == "field" and (row == 0 or not _fused_field_is_valid(col, old, token))))
        if bad:
            assert (codes["report"], codes["predict"], codes["evaluate"]) == (3, 3, 3), codes
    elif name == "adjacency.csv" and number is not None and not math.isfinite(number):
        assert (codes["predict"], codes["evaluate"]) == (5, 5), codes
    elif name == "observations.csv" and col == 3 and row > 0 and number is not None \
            and not math.isfinite(number):
        assert (codes["fuse"], codes["report"]) == (3, 3), codes


def test_edgeless_graph_exits_5_quietly(scenario, tmp_path):
    """A sigma whose weights all underflow, or an all-zero adjacency.csv, is no graph."""
    root, paths = scenario
    config = tmp_path / "tiny_sigma.cfg"
    config.write_text(CONFIG + "sigma = 1e-300\n")
    rows = [line.split(",") for line in paths["adjacency.csv"].read_text().splitlines()]
    zero = tmp_path / "zero_adjacency.csv"
    zero.write_text("".join(",".join(row[:1] + ["0"] * (len(row) - 1) if i else row) + "\n"
                            for i, row in enumerate(rows)))
    out = tmp_path / "out"
    runs = {
        "graph": ["--stations", str(paths["stations.csv"]), "--config", str(config),
                  "--out", str(tmp_path / "adjacency.csv")],
        "run-all": ["--stations", str(paths["stations.csv"]),
                    "--observations", str(paths["observations.csv"]),
                    "--config", str(config), "--out-dir", str(out)],
        "train": ["--fused", str(paths["fused.csv"]), "--adjacency", str(zero),
                  "--config", str(root / "run.cfg"), "--out-dir", str(out)],
    }
    for command, args in runs.items():
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command] + args)
        assert code == 5, (command, err.getvalue())
        assert [str(w.message) for w in caught] == [], command
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"geofuse {command}: "), lines
        assert "no edge" in lines[0], lines
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "tiny_sigma.cfg", "zero_adjacency.csv"], command


@pytest.mark.parametrize("x", ["1e155", "1e300", "-1e308"])
def test_station_too_far_for_float64_distances_exits_3_quietly(scenario, tmp_path, x):
    """A finite coordinate whose squared distances overflow is refused at ingest."""
    root, paths = scenario
    lines = paths["stations.csv"].read_text().splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[2] = x
    stations = tmp_path / "stations.csv"
    stations.write_text("".join(lines[:2] + [",".join(fields)] + lines[3:]))
    common = ["--stations", str(stations), "--observations", str(paths["observations.csv"])]
    runs = {
        "fuse": common + ["--out", str(tmp_path / "fused.csv")],
        "graph": ["--stations", str(stations), "--out", str(tmp_path / "adjacency.csv")],
        "report": common + ["--fused", str(paths["fused.csv"]),
                            "--out-dir", str(tmp_path / "report")],
        "run-all": common + ["--config", str(root / "run.cfg"),
                             "--out-dir", str(tmp_path / "out")],
    }
    for command, args in runs.items():
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command] + args)
        assert code == 3, (command, err.getvalue())
        assert [str(w.message) for w in caught] == [], command
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            f"geofuse {command}: station {fields[0]}: "), lines
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stations.csv"], command


@pytest.mark.parametrize("sid", ["s,01", '"s01', "s\n01"])
def test_unquotable_station_id_exits_3_quietly(scenario, tmp_path, sid):
    """An id a quoted stations.csv field holds but an unquoted artifact cannot."""
    _, paths = scenario
    with open(paths["stations.csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][0] = sid
    stations = tmp_path / "stations.csv"
    with open(stations, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    runs = {
        "fuse": ["--stations", str(stations), "--observations", str(paths["observations.csv"]),
                 "--out", str(tmp_path / "fused.csv")],
        "graph": ["--stations", str(stations), "--out", str(tmp_path / "adjacency.csv")],
    }
    for command, args in runs.items():
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command] + args)
        assert code == 3, (command, err.getvalue())
        assert [str(w.message) for w in caught] == [], command
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            f"geofuse {command}: station {sid!r}: "), lines
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stations.csv"], command


@pytest.mark.parametrize("sid", ["s,01", '"s01', "s\n01"])
def test_unquotable_fused_station_id_exits_3_quietly(scenario, tmp_path, sid):
    """The same ids, quoted into fused.csv and adjacency.csv instead of stations.csv."""
    root, paths = scenario
    old = paths["fused.csv"].read_text().splitlines()[1].split(",")[1]
    inputs = {}
    for name in ("fused.csv", "adjacency.csv"):
        with open(paths[name], newline="") as fh:
            rows = [[sid if field == old else field for field in row] for row in csv.reader(fh)]
        inputs[name] = tmp_path / name
        with open(inputs[name], "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    common = ["--fused", str(inputs["fused.csv"]), "--adjacency", str(inputs["adjacency.csv"])]
    model = ["--model", str(root / "model" / "model.ckpt")]
    runs = {
        "train": common + ["--config", str(root / "run.cfg"), "--out-dir", str(tmp_path / "m")],
        "predict": common + model + ["--out", str(tmp_path / "forecast.csv")],
        "evaluate": common + model + ["--out-dir", str(tmp_path / "eval")],
    }
    for command, args in runs.items():
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command] + args)
        assert code == 3, (command, err.getvalue())
        assert [str(w.message) for w in caught] == [], command
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"geofuse {command}: line ") \
            and repr(sid) in lines[0], lines
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adjacency.csv", "fused.csv"]


@pytest.mark.parametrize("value", ["0.000000", "1.0"])
def test_constant_target_is_reported(scenario, tmp_path, value):
    """A target with one value everywhere has no Silverman bandwidth; report and
    run-all still finish, with a NaN variance ratio."""
    root, paths = scenario
    lines = paths["observations.csv"].read_text().splitlines(keepends=True)
    rows = [line.split(",") for line in lines]
    flat = tmp_path / "observations.csv"
    flat.write_text("".join(
        ",".join(row[:3] + [value + "\n"]) if row[2] == "t01" and row[3].strip() else line
        for row, line in zip(rows, lines)))
    common = ["--stations", str(paths["stations.csv"]), "--observations", str(flat)]
    runs = {
        "run-all": common + ["--config", str(root / "run.cfg"),
                             "--out-dir", str(tmp_path / "out")],
        "report": common + ["--fused", str(tmp_path / "out" / "fused.csv"),
                            "--out-dir", str(tmp_path / "report")],
    }
    for command, args in runs.items():
        err = io.StringIO()
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([command] + args)
        assert code == 0, (command, err.getvalue())
        assert err.getvalue() == "", command
    for out in ("out", "report"):
        variance = (tmp_path / out / "variance.csv").read_text().splitlines()
        assert variance[1].startswith("t01,0,") and variance[1].endswith(",nan"), variance


def test_observation_that_min_max_scaling_erases_exits_6_quietly(scenario, tmp_path):
    """One finite 1e300 reading of the predicted target stretches its scale
    until every other reading rounds away: run-all and train refuse the
    target, naming its span, before any output is written."""
    root, paths = scenario
    lines = paths["observations.csv"].read_text().splitlines(keepends=True)
    fields = lines[4].rstrip("\n").split(",")
    assert fields[2] == "t02"
    fields[3] = "1e300"
    lines[4] = ",".join(fields) + "\n"
    huge = tmp_path / "observations.csv"
    huge.write_text("".join(lines))
    fused = tmp_path / "fused.csv"
    assert _quiet_main(["fuse", "--stations", str(paths["stations.csv"]),
                        "--observations", str(huge), "--out", str(fused)]) == 0
    runs = {
        "run-all": ["--stations", str(paths["stations.csv"]), "--observations", str(huge)],
        "train": ["--fused", str(fused), "--adjacency", str(paths["adjacency.csv"])],
    }
    for command, args in runs.items():
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command] + args + ["--config", str(root / "run.cfg"),
                                            "--out-dir", str(tmp_path / "out")])
        assert code == 6, (command, err.getvalue())
        assert [str(w.message) for w in caught] == [], command
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert "'t02'" in err.getvalue() and "e+300" in err.getvalue(), err.getvalue()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fused.csv",
                                                              "observations.csv"]


def test_huge_observation_fails_the_report_quietly(scenario, tmp_path):
    """One finite 1e200 reading: the variances would overflow, so report exits 7."""
    _, paths = scenario
    lines = paths["observations.csv"].read_text().splitlines(keepends=True)
    fields = lines[5].rstrip("\n").split(",")
    fields[3] = "1e200"
    lines[5] = ",".join(fields) + "\n"
    huge = tmp_path / "observations.csv"
    huge.write_text("".join(lines))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["report", "--stations", str(paths["stations.csv"]),
                     "--observations", str(huge), "--fused", str(paths["fused.csv"]),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 7, err.getvalue()
    assert [str(w.message) for w in caught] == []
    assert "1e+200" in err.getvalue()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["observations.csv"]


def test_oversized_model_is_refused_before_any_weight_is_drawn(scenario, tmp_path,
                                                               monkeypatch):
    """A config or a checkpoint whose model outgrows physical memory exits 2 or 3.

    The requests are petabytes and hundreds of terabytes; drawing any weight
    fails the test, so nothing is ever allocated for them.
    """
    root, paths = scenario

    def no_weights(*args):
        raise AssertionError("a weight was drawn for an oversized model")

    monkeypatch.setattr(geofuse.stgcn, "_glorot", no_weights)
    oversized = {"channels": "4, 2, 10000000", "history_steps": str(10**12)}
    blocks, meta = load_checkpoint(root / "model" / "model.ckpt")
    out = tmp_path / "out"
    for key, big_value in oversized.items():
        config = tmp_path / "oversized.cfg"
        config.write_text(_with_line(CONFIG, key, big_value))
        forged = tmp_path / "forged.ckpt"
        save_checkpoint(forged, blocks, {**meta, "config": _with_line(meta["config"], key,
                                                                      big_value)})
        model_args = ["--fused", str(paths["fused.csv"]), "--adjacency",
                      str(paths["adjacency.csv"]), "--model", str(forged)]
        runs = {
            ("run-all", 2): ["--stations", str(paths["stations.csv"]),
                             "--observations", str(paths["observations.csv"]),
                             "--config", str(config), "--out-dir", str(out)],
            ("train", 2): ["--fused", str(paths["fused.csv"]),
                           "--adjacency", str(paths["adjacency.csv"]),
                           "--config", str(config), "--out-dir", str(out)],
            ("predict", 3): model_args + ["--out", str(out / "forecast.csv")],
            ("evaluate", 3): model_args + ["--out-dir", str(out)],
        }
        for (command, want), args in runs.items():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command] + args)
            lines = err.getvalue().splitlines()
            assert code == want, (key, command, lines)
            assert len(lines) == 1 and "physical memory" in lines[0], (key, command, lines)
            assert not out.exists(), (key, command)


def _one_nan(block):
    block = block.copy()
    block.flat[3] = np.nan
    return block


def test_unusable_checkpoint_is_refused(scenario, tmp_path):
    """A float where a model size belongs exits 3, and a parameter block with a
    NaN, text or complex numbers exits 7, from predict and evaluate, with one
    stderr line and nothing written."""
    root, paths = scenario
    saved = root / "model" / "model.ckpt"
    blocks, meta = load_checkpoint(saved)
    forged = tmp_path / "forged.ckpt"

    def with_config(key, value):
        save_checkpoint(forged, blocks, {**meta, "config": _with_line(meta["config"], key,
                                                                      value)})

    def with_block(forge):
        # Written past save_checkpoint, which would cast the block to float64.
        with np.load(saved) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays["block2.graph.kernel"] = forge(arrays["block2.graph.kernel"])
        with open(forged, "wb") as f:
            np.savez(f, **arrays)

    forgeries = {
        "history_steps": (3, lambda: with_config("history_steps", "6.0")),
        "channels": (3, lambda: with_config("channels", "4.0, 2, 4")),
        "nan block": (7, lambda: with_block(_one_nan)),
        "text block": (7, lambda: with_block(lambda block: np.full(block.shape, "x"))),
        "complex block": (7, lambda: with_block(lambda block: block + 1j)),
    }
    out = tmp_path / "out"
    model_args = ["--fused", str(paths["fused.csv"]), "--adjacency",
                  str(paths["adjacency.csv"]), "--model", str(forged)]
    for name, (want, forge) in forgeries.items():
        forge()
        for command, args in (("predict", ["--out", str(out / "forecast.csv")]),
                              ("evaluate", ["--out-dir", str(out)])):
            err = io.StringIO()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main([command] + model_args + args)
            lines = err.getvalue().splitlines()
            assert code == want, (name, command, lines)
            assert len(lines) == 1 and "Traceback" not in lines[0], (name, command, lines)
            assert not out.exists(), (name, command)


def _without(key):
    return lambda meta: {name: value for name, value in meta.items() if name != key}


def _config_line(key, value):
    return lambda meta: {**meta, "config": _with_line(meta["config"], key, value)}


def _normalization(**bounds):
    return lambda meta: {**meta, "normalization": {**meta["normalization"], **bounds}}


def _text_mins(meta):
    bounds = meta["normalization"]
    return {**meta, "normalization": {**bounds, "mins": [str(v) for v in bounds["mins"]]}}


def _swapped_bounds(meta):
    bounds = meta["normalization"]
    return {**meta, "normalization": {"mins": bounds["maxs"], "maxs": bounds["mins"]}}


# Each forgery and a word of the one stderr line it must give.
MALFORMED_METADATA = {
    "no_station_ids": (_without("station_ids"), "station_ids"),
    "int_station_ids": (lambda meta: {**meta, "station_ids": 5}, "station_ids"),
    "text_target_ids": (lambda meta: {**meta, "target_ids": "t01"}, "target_ids"),
    "text_horizon_steps": (_config_line("horizon_steps", "abc"), "horizon_steps"),
    "int_predicted_target": (_config_line("predicted_target", "5"), "predicted_target"),
    "short_mins": (_normalization(mins=[0.0]), "normalization"),
    "nan_mins": (_normalization(mins=[math.nan, math.nan]), "normalization"),
    "overflowing_span": (_normalization(mins=[-1e308] * 2, maxs=[1e308] * 2), "normalization"),
    "inverted_bounds": (_swapped_bounds, "normalization"),
    "text_mins": (_text_mins, "normalization"),
    "bool_maxs": (_normalization(mins=[0.0, 0.0], maxs=[True, True]), "normalization"),
    "text_split": (_config_line("split", "abc"), "split"),
    "one_split": (_config_line("split", "1"), "split"),
    "no_config": (_without("config"), "config"),
    "int_config": (lambda meta: {**meta, "config": 5}, "config"),
}


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("forge, word", MALFORMED_METADATA.values(), ids=MALFORMED_METADATA)
def test_malformed_checkpoint_metadata_exits_3_quietly(scenario, tmp_path, forge, word,
                                                       command):
    root, paths = scenario
    blocks, meta = load_checkpoint(root / "model" / "model.ckpt")
    forged = tmp_path / "forged.ckpt"
    save_checkpoint(forged, blocks, forge(meta))
    out = tmp_path / "out"
    args = {"predict": ["--out", str(out / "forecast.csv")], "evaluate": ["--out-dir", str(out)]}
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--fused", str(paths["fused.csv"]), "--adjacency",
                         str(paths["adjacency.csv"]), "--model", str(forged)] + args[command])
    lines = err.getvalue().splitlines()
    assert code == 3, lines
    assert len(lines) == 1, lines
    message = lines[0].replace(str(forged), "")
    assert "checkpoint" in message and word in message, lines
    assert not out.exists()


def _model_commands_end_quietly(paths, model, out):
    """predict and evaluate on ``model`` end in 0, 3 or 7, with at most one
    stderr line and no traceback; any warning fails."""
    for command, args in (("predict", ["--out", str(out / "forecast.csv")]),
                          ("evaluate", ["--out-dir", str(out)])):
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--fused", str(paths["fused.csv"]), "--adjacency",
                             str(paths["adjacency.csv"]), "--model", str(model)] + args)
        lines = err.getvalue().splitlines()
        assert code in (0, 3, 7), (command, lines)
        assert len(lines) <= 1 and not any("Traceback" in line for line in lines), lines


EDGE_NUMBERS = ["0", "-1", "1", "2", "0.0", "-0.0", "0.9999999999999999", "5e-324", "1e308",
                str(2**63), str(10**12), str(10**400)]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(list(_PARSERS)),
       value=st.sampled_from(BAD_TOKENS + EDGE_NUMBERS) | st.floats().map(repr))
@example(key="history_steps", value=str(10**400))
@example(key="graph_mode", value="first_order")
def test_fuzzed_checkpoint_config_ends_in_a_documented_exit_code(scenario, key, value):
    """One key of a saved checkpoint's config text gets a hostile value or a
    number at the edge of its range: predict and evaluate end in 0, 3 or 7,
    with at most one stderr line and no warning."""
    root, paths = scenario
    blocks, meta = load_checkpoint(root / "model" / "model.ckpt")
    forged = root / "mutated" / "model.ckpt"
    save_checkpoint(forged, blocks, {**meta, "config": _with_line(meta["config"], key, value)})
    _model_commands_end_quietly(paths, forged, root / "out")


# Any JSON value: scalars of each JSON type, and short lists and objects of them.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["t01", "s01", "3.1"]) | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["mins", "maxs"]), inner, max_size=2)),
    max_leaves=4)

# (key, edit, index, value): the key of a checkpoint's metadata, or of its
# normalization for mins and maxs, is set to the value, deleted, has its entry
# at the index (modulo its length) set to the value, or gets a sibling key.
META_FORGES = st.tuples(
    st.sampled_from(["station_ids", "target_ids", "normalization", "mins", "maxs",
                     "best_epoch", "best_val_loss"]),
    st.sampled_from(["set", "delete", "entry", "extra"]), st.integers(0, 9), JSON_VALUES)

# Each way to forge one parameter block, given a number.
BLOCK_FORGERIES = {
    "fill": lambda block, x: np.full(block.shape, x),
    "first": lambda block, x: np.concatenate([[x], block.ravel()[1:]]).reshape(block.shape),
    "flatten": lambda block, x: block.ravel(),
    "double": lambda block, x: np.concatenate([block, block]),
    "0-d": lambda block, x: np.asarray(x),
    "int": lambda block, x: block.astype(np.int64),
    "bool": lambda block, x: block > 0,
    "complex": lambda block, x: block + 1j,
    "text": lambda block, x: block.astype(str),
}

# (index, edit, number): the parameter block at the index (modulo their count)
# is forged, dropped, or joined by a copy under a new name.
BLOCK_FORGES = st.tuples(st.integers(0, 99),
                         st.sampled_from(list(BLOCK_FORGERIES) + ["drop", "add"]), st.floats())


def _forge_metadata(meta, key, edit, index, value):
    owner = meta["normalization"] if key in ("mins", "maxs") else meta
    if edit == "set":
        owner[key] = value
    elif edit == "delete":
        del owner[key]
    elif edit == "extra":
        owner[key + "_extra"] = value
    elif isinstance(owner[key], list):
        owner[key][index % len(owner[key])] = value
    elif isinstance(owner[key], dict):
        owner[key][sorted(owner[key])[index % 2]] = value
    else:
        owner[key] = value


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(forge=META_FORGES | BLOCK_FORGES)
@example(forge=(0, "fill", 1e210))
@example(forge=("normalization", "entry", 0, ["3.1", "3.1"]))
def test_fuzzed_checkpoint_ends_in_a_documented_exit_code(scenario, forge):
    """One metadata key of a saved checkpoint gets any JSON value, is deleted or
    gets a sibling, or one parameter block is replaced, reshaped, retyped,
    dropped or added: predict and evaluate end in 0, 3 or 7, with at most one
    stderr line and no warning."""
    root, paths = scenario
    saved, forged = root / "model" / "model.ckpt", root / "mutated" / "model.ckpt"
    if isinstance(forge[0], str):
        blocks, meta = load_checkpoint(saved)
        _forge_metadata(meta, *forge)
        save_checkpoint(forged, blocks, meta)
    else:
        index, edit, x = forge
        # Written past save_checkpoint, which would cast every block to float64.
        with np.load(saved) as archive:
            arrays = {key: archive[key] for key in archive.files}
        name = sorted(key for key in arrays if key != "__meta__")[index % (len(arrays) - 1)]
        if edit == "drop":
            del arrays[name]
        elif edit == "add":
            arrays[name + "_extra"] = arrays[name]
        else:
            with np.errstate(all="ignore"):
                arrays[name] = BLOCK_FORGERIES[edit](arrays[name], x)
        with open(forged, "wb") as fh:
            np.savez(fh, **arrays)
    _model_commands_end_quietly(paths, forged, root / "out")


def test_century_gap_is_refused_before_the_grid_is_allocated(scenario, tmp_path):
    """Two rows a century apart: fuse, run-all and report exit 3 naming the first
    empty hour.

    The gap is longer than max_gap_hours, so no hour of it could be fused, and
    longer than the fused grid, so report could never match it; a century of
    hourly cells is never allocated for it.
    """
    root, paths = scenario
    lines = paths["observations.csv"].read_text().splitlines(keepends=True)
    assert lines[-1].startswith("2017-01-02T15:00,")
    century = tmp_path / "observations.csv"
    century.write_text("".join(lines[:-1]) + "2117" + lines[-1][4:])
    runs = {
        "fuse": ["--stations", str(paths["stations.csv"]), "--observations", str(century),
                 "--out", str(tmp_path / "fused.csv")],
        "run-all": ["--stations", str(paths["stations.csv"]), "--observations", str(century),
                    "--config", str(root / "run.cfg"), "--out-dir", str(tmp_path / "out")],
        "report": ["--stations", str(paths["stations.csv"]), "--observations", str(century),
                   "--fused", str(paths["fused.csv"]), "--out-dir", str(tmp_path / "report")],
    }
    for command, args in runs.items():
        err = io.StringIO()
        tracemalloc.start()
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([command] + args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = err.getvalue().splitlines()
        assert code == 3, (command, lines)
        assert len(lines) == 1 and "no rows for hour 2017-01-02T16:00" in lines[0], lines
        assert [str(w.message) for w in caught] == [], command
        assert peak < 16 * 2**20, (command, peak)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["observations.csv"], command


@pytest.mark.parametrize("values, bandwidth", [([0.0, 1e300], 1e-300),
                                               ([-1e307, 1e307], None)])
def test_kde_extreme_values_stay_finite_or_raise_quietly(values, bandwidth):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid, density = kde(np.array(values), bandwidth=bandwidth)
        except ValidationError:
            return
    assert np.isfinite(grid).all() and np.isfinite(density).all()
