"""Benchmark of the ``invclt`` CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload mc_simulate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # the three workloads in turn

Workloads (see ``workloads.py``): ``mc_simulate`` (``simulate --n
10,20,48,64 --threads 1``), ``mc_lattice`` (``lowerbound --n 64,100,196
--draws 200000 --threads min(2, nproc)``) and ``exact_verify`` (``verify``).
The seed is passed to the CLI as ``--seed``.  Each CLI call runs in-process in
a child process (``worker.py``) that imports ``invclt`` from ``src``.

``--trace 0`` measures with tracing off and reports, as medians:

* ``wall_s``       seconds per CLI call, median over the calls made in
                   ``--seconds`` (at least one);
* ``setup_s``      interpreter start, ``invclt`` import and argument set-up,
                   up to the first CLI call, median of ``SETUP_SAMPLES``
                   process starts;
* ``peak_rss_mb``  peak resident memory of the measuring process.

It also prints ``draws_per_s`` (MC workloads) and ``fail_frac`` on a summary
line.  They are not in the JSON metrics: ``draws_per_s`` is the fixed draw
count over ``wall_s`` and is zero on ``exact_verify``, and ``fail_frac`` is
zero on a correct run; both are carried by ``wall_s`` and by the
``attempted``/``failed`` fields.

``--trace 1`` makes one untraced call and one traced call (each in its own
process) and reports the per-layer metrics of ``tracing.py`` plus
``trace.overhead_s``, the traced minus the untraced call time.

Every call's output is checked (``workloads.py``), and every run compares the
output of repeated calls at the same seed; each failed check counts in
``failed``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import metric_units
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170.0
# OpenBLAS threads spin while idle: on a small shared machine they add noise
# and contend with the workload's own threads, so the BLAS runs on one.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run (missing source, a crashed process)."""


def child(workload: str, seed: int, mode: str, seconds: float = 0.0) -> tuple[float, dict]:
    """Start a worker, wait for it, return (start time, its report)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(BLAS_ENV)
    argv = [sys.executable, str(WORKER), workload, str(seed), mode, repr(seconds)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode}: no result in {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return start, json.loads(lines[-1])
    except ValueError:
        pass
    raise BenchError(f"{workload} {mode}: worker exited with {proc.returncode}, no report")


def tally(reports: list[dict]) -> dict:
    """Output and repeat checks over the reports' calls."""
    results = [c for r in reports for call in r["calls"] for c in call["checks"]]
    results += [c for r in reports for c in r["repeat"]]
    failures = [name for name, ok in results if not ok]
    return {"attempted": len(results), "failed": len(failures), "failures": failures}


def measure_untraced(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    ready = []
    for _ in range(SETUP_SAMPLES - 1):
        start, rep = child(name, seed, "setup")
        ready.append(rep["ready"] - start)
    start, rep = child(name, seed, "run", seconds)
    ready.append(rep["ready"] - start)
    walls = [c["wall"] for c in rep["calls"]]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(ready), "s"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
    }
    extra = {
        "calls": len(walls),
        "wall_s_all": walls,
        "draws_per_s": rep["draws"] / wall if rep["draws"] else None,
        "manifest": rep["manifest"],
        **tally([rep]),
    }
    return metrics, extra


def measure_traced(name: str, seed: int) -> tuple[dict, dict]:
    _, plain = child(name, seed, "once")
    _, traced = child(name, seed, "traced")
    same = plain["calls"][0]["digest"] == traced["calls"][0]["digest"]
    traced["repeat"].append(("repeat.traced_digest", same))
    units = metric_units()
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["calls"][0]["wall"] - plain["calls"][0]["wall"]
    metrics = {k: (values[k], units[k]) for k in units}
    extra = {
        "manifest": traced["manifest"],
        "missing_layers": traced["missing"],
        "uncounted": traced["uncounted"],
        "spans": traced["spans"],
        **tally([plain, traced]),
    }
    return metrics, extra


def summary_lines(name: str, metrics: dict, extra: dict) -> list[str]:
    """Every metric by name with its unit; per-layer seconds largest first."""
    plain = [(k, v, u) for k, (v, u) in metrics.items() if not k.endswith(".s")]
    if extra.get("draws_per_s") is not None:
        plain.append(("draws_per_s", extra["draws_per_s"], "1/s"))
    checks = f"ratio ({extra['failed']}/{extra['attempted']} checks)"
    plain.append(("fail_frac", extra["fail_frac"], checks))
    lines = [f"{name}: " + " | ".join(f"{k} {v:.6g} {u}" for k, v, u in plain)]
    layers = sorted(((v, k) for k, (v, u) in metrics.items() if k.endswith(".s")), reverse=True)
    lines += [f"{name}: {k} {v:.6g} s" for v, k in layers if v > 0]
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        metrics, extra = measure_traced(name, seed)
    else:
        metrics, extra = measure_untraced(name, seed, seconds)
    extra["fail_frac"] = extra["failed"] / extra["attempted"]
    print("manifest " + json.dumps({"workload": name, "seed": seed, **extra}, sort_keys=True))
    print("\n".join(summary_lines(name, metrics, extra)))
    return {
        "correct": extra["failed"] == 0,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "invclt" / "cli.py").is_file():
        print(f"error: no invclt source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
