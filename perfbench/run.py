"""Benchmark launcher for geofuse.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each measured repetition runs in a fresh
``worker.py`` process with BLAS pinned to one thread. The number of
repetitions follows from ``--seconds`` and the workload's nominal repetition
time alone, never from the clock, so one seed always makes the same
operations and the same seed's ``attempted`` and ``failed`` agree from run to
run. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from traced repetitions. Run metadata and a
readable summary go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
# Wall time of one untraced repetition (process start, three set-ups, one
# pass) on a 2-core 2.1 GHz Xeon; it turns --seconds into a fixed count.
NOMINAL_REP_S = {"run-all-13": 8.0, "fuse-report-60": 3.8, "hourly-60": 5.0}
WORKLOADS = tuple(NOMINAL_REP_S)
MIN_REPS = 3
WORKER_TIMEOUT_S = 150
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class WorkerFailed(Exception):
    pass


def run_worker(root: Path, work: Path, workload: str, seed: int, mode: str,
               rep: int) -> dict:
    """One repetition in a fresh process; the first one also runs the checks."""
    rep_dir = work / f"rep{rep}"
    out = work / f"rep{rep}.json"
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--workdir", str(rep_dir),
           "--out", str(out)] + (["--check"] if rep == 0 else [])
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} repetition {rep} exceeded {WORKER_TIMEOUT_S}s")
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    if proc.returncode != 0 or not out.exists():
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise WorkerFailed(f"{mode} repetition {rep} exited {proc.returncode}:\n{tail}")
    return json.loads(out.read_text())


def repetitions(workload: str, seconds: float, trace: int) -> int:
    """Untraced repetitions (traced: untraced-traced pairs) in one run."""
    if trace:
        return max(1, round(seconds / (2 * NOMINAL_REP_S[workload])))
    return max(MIN_REPS, round(seconds / NOMINAL_REP_S[workload]))


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in (root / "src" / "geofuse").glob("*.py"))


def end_to_end(plain: list[dict]) -> dict[str, float]:
    hour_ms = [x for r in plain for x in r["hour_ms"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        "hour_ms.mean": statistics.median(statistics.fmean(r["hour_ms"]) for r in plain),
        "hour_ms.p90": float(np.percentile(hour_ms, 90)),
    }


def per_layer(plain: list[dict], spans: list[dict], memory: dict) -> dict[str, float]:
    out = {name: statistics.median(r["layers"][name] for r in spans)
           for name in spans[0]["layers"]}
    out.update(memory["layers"])
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in spans)
                               - statistics.median(r["wall_s"] for r in plain))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="geofuse benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "geofuse" / "__init__.py").is_file():
        print(f"perfbench: no geofuse sources under {root / 'src'}; run from the "
              "root of a geofuse checkout", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
        "blas_threads": 1, "src_geofuse_lines": src_lines(root),
    }
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    results: dict[str, list[dict]] = {"plain": [], "spans": [], "memory": []}
    cycle = ("plain", "spans") if args.trace else ("plain",)
    try:
        rep = 0
        for _ in range(repetitions(args.workload, args.seconds, args.trace)):
            for mode in cycle:
                results[mode].append(run_worker(root, work, args.workload,
                                                args.seed, mode, rep))
                rep += 1
        if args.trace:
            results["memory"].append(run_worker(root, work, args.workload,
                                                args.seed, "memory", rep))
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    every = [r for rs in results.values() for r in rs]
    meta.update(every[0]["versions"])
    meta["repetitions"] = {mode: len(rs) for mode, rs in results.items() if rs}
    print("perfbench meta " + json.dumps(meta), file=sys.stderr)

    errors = [e for r in every for e in r["errors"]]
    digests = {r["digest"] for r in every if r["digest"]}
    if len(digests) > 1:
        errors.append(f"outputs differ across {len(every)} repetitions of one seed")
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    for e in errors:
        print(f"perfbench check failed: {e}", file=sys.stderr)
    for mode, rs in results.items():
        if rs:
            walls = ", ".join(f"{r['wall_s']:.3f}/{r['cpu_s']:.3f}" for r in rs)
            print(f"perfbench {mode} wall_s per repetition: {walls}", file=sys.stderr)

    if args.trace:
        values = per_layer(results["plain"], results["spans"], results["memory"][0])
        units = metric_units("per_layer")
    else:
        values = end_to_end(results["plain"])
        units = metric_units("end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"perfbench {args.workload} {name} = {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    # A failed operation is counted in ``failed``; ``correct`` says whether
    # the outputs that were produced passed their checks.
    print(json.dumps({"correct": not errors,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
