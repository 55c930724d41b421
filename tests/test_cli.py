"""End-to-end command line runs on small synthetic scenarios."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geofuse.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = """\
predicted_target = t02
history_steps = 6
horizon_steps = 2
split = 0.6, 0.2, 0.2
channels = 6, 3, 6
time_kernel = 2
graph_kernel = 2
dropout = 0.1
lr = 0.01
batch_size = 8
epochs = 2
seed = 1
"""


def _build(root, stations: str, targets: str) -> dict:
    """synth -> fuse -> graph -> train under ``root``; the paths it wrote."""
    data = root / "data"
    assert main(["synth", "--out-dir", str(data), "--stations", stations,
                 "--targets", targets, "--hours", "80", "--seed", "5",
                 "--gap-rate", "0.05"]) == 0
    config = root / "run.cfg"
    config.write_text(CONFIG)
    fused = root / "fused.csv"
    assert main(["fuse", "--stations", str(data / "stations.csv"),
                 "--observations", str(data / "observations.csv"),
                 "--out", str(fused), "--config", str(config)]) == 0
    adjacency = root / "adjacency.csv"
    assert main(["graph", "--stations", str(data / "stations.csv"),
                 "--out", str(adjacency)]) == 0
    model_dir = root / "model"
    assert main(["train", "--fused", str(fused), "--adjacency", str(adjacency),
                 "--config", str(config), "--out-dir", str(model_dir)]) == 0
    return {
        "root": root,
        "stations": data / "stations.csv",
        "observations": data / "observations.csv",
        "config": config,
        "fused": fused,
        "adjacency": adjacency,
        "model": model_dir / "model.ckpt",
        "history": model_dir / "history.csv",
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> fuse -> graph -> train chain shared by the read-only tests."""
    return _build(tmp_path_factory.mktemp("pipeline"), "3,3", "1,1")


def _first_hours(pipeline, path, hours: int):
    """The pipeline's fused.csv cut to its first ``hours`` hours, at ``path``."""
    lines = pipeline["fused"].read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:1 + hours * 6 * 2]))
    return path


def test_pipeline_artifacts_exist(pipeline):
    for key in ("stations", "observations", "fused", "adjacency",
                "model", "history"):
        assert pipeline[key].exists(), key
    history = pipeline["history"].read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_loss,val_mae,val_rmse"
    assert len(history) == 3  # two epochs
    fused_lines = pipeline["fused"].read_text().splitlines()
    assert len(fused_lines) == 1 + 80 * 6 * 2
    assert {line.rsplit(",", 1)[1] for line in fused_lines[1:]} == {"raw", "fused"}


def test_evaluate_writes_metric_rows(pipeline, tmp_path):
    assert main(["evaluate", "--fused", str(pipeline["fused"]),
                 "--adjacency", str(pipeline["adjacency"]),
                 "--model", str(pipeline["model"]),
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "horizon,mae,rmse,mape,mape_excluded,r2"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "all"]
    for line in lines[1:]:
        assert np.isfinite(float(line.split(",")[1]))  # mae parses


def test_predict_extends_the_panel(pipeline, tmp_path):
    out = tmp_path / "forecast.csv"
    assert main(["predict", "--fused", str(pipeline["fused"]),
                 "--adjacency", str(pipeline["adjacency"]),
                 "--model", str(pipeline["model"]),
                 "--out", str(out), "--horizon", "3"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "timestamp,station_id,target_id,value"
    assert len(lines) == 1 + 3 * 6
    # The panel covers hours 0..79 of 2017-01-01; forecasts start at hour 80.
    assert lines[1].startswith("2017-01-04T08:00,s01,t02,")


def test_report_diagnostics(pipeline, tmp_path):
    assert main(["report", "--stations", str(pipeline["stations"]),
                 "--observations", str(pipeline["observations"]),
                 "--fused", str(pipeline["fused"]),
                 "--out-dir", str(tmp_path)]) == 0
    for name in ("variance.csv", "kde_t01.csv", "overlay_t01.csv",
                 "kde_t02.csv", "overlay_t02.csv"):
        assert (tmp_path / name).exists(), name
    variance = (tmp_path / "variance.csv").read_text().splitlines()
    assert len(variance) == 3
    for line in variance[1:]:
        ratio = float(line.split(",")[3])
        assert 0.1 < ratio < 10.0


def test_run_all_is_deterministic(pipeline, tmp_path):
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["run-all", "--stations", str(pipeline["stations"]),
                     "--observations", str(pipeline["observations"]),
                     "--config", str(pipeline["config"]),
                     "--out-dir", str(out)]) == 0
        runs.append(out)
    for artifact in ("fused.csv", "adjacency.csv", "history.csv",
                     "metrics.csv", "variance.csv", "model.ckpt"):
        a = (runs[0] / artifact).read_bytes()
        b = (runs[1] / artifact).read_bytes()
        assert a == b, f"{artifact} differs between identical runs"
    # The segmented run above produced the same fused panel and model too.
    assert (runs[0] / "fused.csv").read_bytes() == pipeline["fused"].read_bytes()
    assert (runs[0] / "history.csv").read_bytes() == pipeline["history"].read_bytes()


def test_config_errors_exit_2(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 1\n")
    code = main(["fuse", "--stations", str(pipeline["stations"]),
                 "--observations", str(pipeline["observations"]),
                 "--out", str(tmp_path / "x.csv"), "--config", str(bad)])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err

    missing_target = tmp_path / "no_target.cfg"
    missing_target.write_text("history_steps = 6\nhorizon_steps = 2\n"
                              "channels = 6,3,6\ntime_kernel = 2\n"
                              "graph_kernel = 2\nepochs = 1\n")
    code = main(["train", "--fused", str(pipeline["fused"]),
                 "--adjacency", str(pipeline["adjacency"]),
                 "--config", str(missing_target), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "predicted_target" in capsys.readouterr().err

    bad_mode = tmp_path / "bad_mode.cfg"
    bad_mode.write_text("predicted_target = t02\ngraph_mode = spline\n")
    code = main(["train", "--fused", str(pipeline["fused"]),
                 "--adjacency", str(pipeline["adjacency"]),
                 "--config", str(bad_mode), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "graph_mode" in capsys.readouterr().err

    unknown_target = tmp_path / "unknown_target.cfg"
    unknown_target.write_text(CONFIG + "predicted_target = t99\n")
    code = main(["train", "--fused", str(pipeline["fused"]),
                 "--adjacency", str(pipeline["adjacency"]),
                 "--config", str(unknown_target), "--out-dir", str(tmp_path / "model")])
    assert code == 2
    assert "t99" in capsys.readouterr().err
    assert not (tmp_path / "model").exists()

    not_utf8 = tmp_path / "not_utf8.cfg"
    not_utf8.write_bytes(b"predicted_target = t02\n# caf\xff\n")
    code = main(["run-all", "--stations", str(pipeline["stations"]),
                 "--observations", str(pipeline["observations"]),
                 "--config", str(not_utf8), "--out-dir", str(tmp_path / "run")])
    assert code == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "shape_c = -1", "shape_c = inf", "ridge = -1", "ridge = nan",
    "distance_metric = manhattan", "dropout = 1.5", "lr = 0", "lr = nan",
    "batch_size = 0", "epochs = 0", "graph_kernel = 0", "time_kernel = 9",
    "seed = -1", "split = 0.5, 0.5, nan", "predicted_target = t99",
    pytest.param(f"history_steps = {10**400}", id="history_steps = 10**400"),
])
def test_bad_config_value_exits_2_before_any_stage(pipeline, tmp_path, setting):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG + setting + "\n")
    out = tmp_path / "run"
    code = main(["run-all", "--stations", str(pipeline["stations"]),
                 "--observations", str(pipeline["observations"]),
                 "--config", str(bad), "--out-dir", str(out)])
    assert code == 2
    assert not out.exists()


def test_bad_flag_values_exit_2(pipeline, tmp_path):
    fused = tmp_path / "fused.csv"
    for value in ("-1", "nan"):
        code = main(["fuse", "--stations", str(pipeline["stations"]),
                     "--observations", str(pipeline["observations"]),
                     "--out", str(fused), "--shape-c", value])
        assert code == 2
    manhattan = tmp_path / "manhattan.cfg"
    manhattan.write_text("distance_metric = manhattan\n")
    code = main(["graph", "--stations", str(pipeline["stations"]),
                 "--out", str(tmp_path / "adj.csv"), "--config", str(manhattan)])
    assert code == 2
    for flags in (["--seed", "-1"], ["--noise", "nan"]):
        code = main(["synth", "--out-dir", str(tmp_path / "synth"), *flags])
        assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manhattan.cfg"]


def test_ingest_errors_exit_3(pipeline, tmp_path, capsys):
    code = main(["fuse", "--stations", str(tmp_path / "nowhere.csv"),
                 "--observations", str(pipeline["observations"]),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3

    stations = tmp_path / "stations.csv"
    stations.write_text("station_id,source_id,x,y,targets\n"
                        "a,src1,0.1,0.2,t1\n")
    obs = tmp_path / "observations.csv"
    obs.write_text("timestamp,station_id,target_id,value\n"
                   "2020-01-01T00:00,ghost,t1,1.0\n")
    code = main(["fuse", "--stations", str(stations),
                 "--observations", str(obs), "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "ghost" in capsys.readouterr().err

    for value in ("inf", "nan"):
        obs.write_text("timestamp,station_id,target_id,value\n"
                       f"2020-01-01T00:00,a,t1,{value}\n")
        code = main(["fuse", "--stations", str(stations),
                     "--observations", str(obs), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "line 2: non-finite value" in capsys.readouterr().err

    # A byte that is not UTF-8 in any CSV input is a parse error, not a crash.
    obs.write_bytes(b"timestamp,station_id,target_id,value\n"
                    b"2020-01-01T00:00,a,t1,1.0\xff\n")
    code = main(["fuse", "--stations", str(stations),
                 "--observations", str(obs), "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "not UTF-8" in capsys.readouterr().err
    stations.write_bytes(b"station_id,source_id,x,y,targets\na\xff,src1,0.1,0.2,t1\n")
    code = main(["graph", "--stations", str(stations), "--out", str(tmp_path / "adj.csv")])
    assert code == 3
    assert "not UTF-8" in capsys.readouterr().err
    fused = tmp_path / "fused.csv"
    fused.write_bytes(pipeline["fused"].read_bytes() + b"\xff\n")
    code = main(["report", "--stations", str(pipeline["stations"]),
                 "--observations", str(pipeline["observations"]),
                 "--fused", str(fused), "--out-dir", str(tmp_path / "report")])
    assert code == 3
    assert "not UTF-8" in capsys.readouterr().err

    # Artifacts of another station or target set do not match the pipeline's.
    other_stations = _build(tmp_path / "stations", "2,2", "1,1")
    other_targets = _build(tmp_path / "targets", "3,3", "1,2")
    panel = ["--fused", str(pipeline["fused"]), "--adjacency", str(pipeline["adjacency"])]
    for other, message in ((other_stations, "checkpoint stations do not match"),
                           (other_targets, "checkpoint targets do not match")):
        code = main(["evaluate", *panel, "--model", str(other["model"]),
                     "--out-dir", str(tmp_path / "eval")])
        assert code == 3
        assert message in capsys.readouterr().err

    code = main(["train", "--fused", str(pipeline["fused"]),
                 "--adjacency", str(other_stations["adjacency"]),
                 "--config", str(pipeline["config"]), "--out-dir", str(tmp_path / "model")])
    assert code == 3
    assert "adjacency stations do not match" in capsys.readouterr().err

    report = ["report", "--stations", str(pipeline["stations"]),
              "--observations", str(pipeline["observations"]),
              "--out-dir", str(tmp_path / "report")]
    code = main([*report, "--fused", str(other_stations["fused"])])
    assert code == 3
    assert "fused stations do not match" in capsys.readouterr().err
    code = main([*report, "--fused", str(_first_hours(pipeline, tmp_path / "4h.csv", 4))])
    assert code == 3
    assert "does not match observations" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists() and not (tmp_path / "model").exists()
    assert not (tmp_path / "report").exists()


def test_fusion_errors_exit_4(tmp_path, capsys):
    stations = tmp_path / "stations.csv"
    stations.write_text("station_id,source_id,x,y,targets\n"
                        "a,src1,0.0,0.0,t1\n"
                        "b,src2,1.0,1.0,t2\n")
    obs_lines = ["timestamp,station_id,target_id,value"]
    for h in range(6):
        obs_lines.append(f"2020-01-01T{h:02d}:00,a,t1,{1.0 + h}")
        if h > 0:  # station b never reports the first hour
            obs_lines.append(f"2020-01-01T{h:02d}:00,b,t2,{2.0 + h}")
    obs = tmp_path / "observations.csv"
    obs.write_text("\n".join(obs_lines) + "\n")
    code = main(["fuse", "--stations", str(stations), "--observations", str(obs),
                 "--out", str(tmp_path / "fused.csv")])
    assert code == 4
    err = capsys.readouterr().err
    assert "t2" in err and "no available source" in err


def test_unwritable_output_exits_1(pipeline, tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.csv"
    code = main(["fuse", "--stations", str(pipeline["stations"]),
                 "--observations", str(pipeline["observations"]), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert str(out) in err
    assert "Traceback" not in err


def test_graph_errors_exit_5(pipeline, tmp_path, capsys):
    code = main(["graph", "--stations", str(pipeline["stations"]),
                 "--out", str(tmp_path / "adj.csv"), "--sigma", "0.0"])
    assert code == 5
    # An infinite weight between the first two stations, in both directions.
    rows = [line.split(",") for line in pipeline["adjacency"].read_text().splitlines()]
    rows[1][2] = rows[2][1] = "inf"
    adjacency = tmp_path / "adj_inf.csv"
    adjacency.write_text("".join(",".join(row) + "\n" for row in rows))
    code = main(["predict", "--fused", str(pipeline["fused"]),
                 "--adjacency", str(adjacency), "--model", str(pipeline["model"]),
                 "--out", str(tmp_path / "f.csv")])
    assert code == 5
    assert "adjacency weights must be finite" in capsys.readouterr().err


def test_training_errors_exit_6(pipeline, tmp_path, capsys):
    cramped = tmp_path / "cramped.cfg"
    cramped.write_text(CONFIG.replace("history_steps = 6", "history_steps = 60")
                             .replace("horizon_steps = 2", "horizon_steps = 30"))
    code = main(["train", "--fused", str(pipeline["fused"]),
                 "--adjacency", str(pipeline["adjacency"]),
                 "--config", str(cramped), "--out-dir", str(tmp_path)])
    assert code == 6
    assert "too short" in capsys.readouterr().err

    no_train = tmp_path / "no_train.cfg"
    no_train.write_text(CONFIG + "split = 0, 0.5, 0.5\n")
    code = main(["run-all", "--stations", str(pipeline["stations"]),
                 "--observations", str(pipeline["observations"]),
                 "--config", str(no_train), "--out-dir", str(tmp_path / "run")])
    assert code == 6
    assert "training split is empty" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()  # checked before anything is written


def test_evaluation_errors_exit_7(pipeline, tmp_path, capsys):
    # A nine-hour panel yields two windows: train and val eat both, test empty.
    data = tmp_path / "short"
    assert main(["synth", "--out-dir", str(data), "--stations", "3,3",
                 "--targets", "1,1", "--hours", "9", "--seed", "5",
                 "--gap-rate", "0.0"]) == 0
    fused = tmp_path / "short_fused.csv"
    assert main(["fuse", "--stations", str(data / "stations.csv"),
                 "--observations", str(data / "observations.csv"),
                 "--out", str(fused)]) == 0
    code = main(["evaluate", "--fused", str(fused),
                 "--adjacency", str(pipeline["adjacency"]),
                 "--model", str(pipeline["model"]),
                 "--out-dir", str(tmp_path)])
    assert code == 7
    assert "test split is empty" in capsys.readouterr().err

    code = main(["predict", "--fused", str(pipeline["fused"]),
                 "--adjacency", str(pipeline["adjacency"]),
                 "--model", str(pipeline["model"]),
                 "--out", str(tmp_path / "f.csv"), "--horizon", "0"])
    assert code == 7
    # A horizon past the panel's 80 hours is refused before any rollout.
    code = main(["predict", "--fused", str(pipeline["fused"]),
                 "--adjacency", str(pipeline["adjacency"]),
                 "--model", str(pipeline["model"]),
                 "--out", str(tmp_path / "f.csv"), "--horizon", "100000000"])
    assert code == 7
    assert "got 100000000" in capsys.readouterr().err
    # Four hours fit the checkpoint's two-step horizon, not its six-step history.
    code = main(["predict", "--fused", str(_first_hours(pipeline, tmp_path / "4h.csv", 4)),
                 "--adjacency", str(pipeline["adjacency"]),
                 "--model", str(pipeline["model"]),
                 "--out", str(tmp_path / "f.csv")])
    assert code == 7
    assert "fused panel has 4 rows, model needs 6" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_first_order_mode_runs_end_to_end(pipeline, tmp_path):
    config = tmp_path / "first_order.cfg"
    config.write_text(CONFIG + "graph_mode = first_order\ngraph_kernel = 1\n")
    run = tmp_path / "run"
    assert main(["run-all", "--stations", str(pipeline["stations"]),
                 "--observations", str(pipeline["observations"]),
                 "--config", str(config), "--out-dir", str(run)]) == 0
    artifacts = ["--fused", str(run / "fused.csv"), "--adjacency", str(run / "adjacency.csv"),
                 "--model", str(run / "model.ckpt")]
    assert main(["evaluate", *artifacts, "--out-dir", str(tmp_path / "eval")]) == 0
    assert main(["predict", *artifacts, "--out", str(tmp_path / "forecast.csv")]) == 0
    assert ((tmp_path / "eval" / "metrics.csv").read_bytes()
            == (run / "metrics.csv").read_bytes())
    assert len((tmp_path / "forecast.csv").read_text().splitlines()) == 1 + 2 * 6


def test_ingest_fusion_and_report_load_no_numpy_ma(tmp_path):
    # np.unique and np.median import numpy.ma on first use, which costs each
    # command about 10 ms and 1.2 MiB of resident memory.
    assert main(["synth", "--out-dir", str(tmp_path), "--stations", "4,3,3",
                 "--targets", "2,1,1", "--hours", "30", "--gap-rate", "0.05"]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import sys\n"
            "from geofuse.fusion import fuse_panel\n"
            "from geofuse.ingest import load_observations, load_stations\n"
            "from geofuse.metrics import consistency_report\n"
            f"stations = load_stations({str(tmp_path / 'stations.csv')!r})\n"
            f"raw = load_observations({str(tmp_path / 'observations.csv')!r}, stations)\n"
            "fused = fuse_panel(raw)\n"
            "consistency_report(raw.values, fused.values, raw.target_ids)\n"
            "print('numpy.ma' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


def test_importing_the_cli_loads_no_scipy():
    # numpy is the only runtime dependency; importing scipy.linalg alone
    # would add about 27 MiB to every command's resident memory.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import sys, geofuse.cli; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
