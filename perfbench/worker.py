"""One benchmark process: set up, call the ``invclt`` CLI in-process, report.

``run.py`` starts this script with ``src`` on ``PYTHONPATH``:

    python3 perfbench/worker.py <workload> <seed> <mode> [seconds]

Call ``i`` of a run uses the CLI seed ``cli_seed(seed, i)``, so a run measures
several inputs of the same size.  Modes:

* ``setup``  import ``invclt`` and build the CLI arguments, then stop;
* ``run``    call the CLI until ``seconds`` have passed (at least once); the
  call expected to be the last repeats the first call's input, and if none
  did, the first call is repeated untimed (``Workload.rerun``); the outputs
  of a repeat must equal the first;
* ``once``   one call, no repeat (the untraced side of a traced run);
* ``traced`` one call with the span wrappers installed, which are removed
  after it; the spans go to ``.perfbench/spans-<workload>-<seed>.json``.

The last stdout line is a JSON report.  ``ready`` is the ``perf_counter``
reading just before the first CLI call: it shares ``CLOCK_MONOTONIC`` with the
parent, which subtracts its own reading taken before the process started.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from invclt import cli

from workloads import WORKLOADS, cli_seed, flag, nproc

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench"


def call_cli(argv: list[str]) -> tuple[int, float, str]:
    """(exit code, seconds, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed call; the run reports it
        traceback.print_exc()
        rc = -1
    return rc, time.perf_counter() - start, buf.getvalue()


def outcome(workload, rc: int, stdout: str) -> list[tuple[str, bool]]:
    """Output checks of one call; a nonzero exit fails the call."""
    if rc != 0:
        return [("exit_code", False)]
    try:
        return [("exit_code", True)] + workload.check(stdout)
    except (ValueError, KeyError, TypeError):
        traceback.print_exc()
        return [("exit_code", True), ("parse_output", False)]


def manifest(argv: list[str], seeds: list[int]) -> dict:
    import importlib.metadata
    import platform

    import numpy
    import scipy

    from invclt import _kernels, rng

    try:
        numba = importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        numba = "n/a"
    return {
        "backend": _kernels.backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba,
        "nproc": nproc(),
        "threads": int(flag(argv, "--threads", "1")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "n": flag(argv, "--n", "per check"),
        "draws": int(flag(argv, "--draws", "0")),
        "cli_seeds": seeds,
        "chunk": rng.DEFAULT_CHUNK,
        "argv": argv,
    }


def measure(name: str, seed: int, mode: str, seconds: float = 0.0, **argv_kw) -> dict:
    """Run one workload in this process and return the report."""
    workload = WORKLOADS[name]
    argvs = [workload.argv(cli_seed(seed, 0), **argv_kw)]
    report: dict = {"ready": time.perf_counter()}
    if mode == "setup":
        return report

    calls, outputs = [], []
    inst = tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        inst = tracing.install(tracer)
    try:
        start = time.perf_counter()
        while True:
            rc, wall, stdout = call_cli(argvs[-1])
            outputs.append((rc, stdout))
            calls.append({
                "wall": wall,
                "digest": hashlib.sha256(stdout.encode()).hexdigest(),
                "checks": outcome(workload, rc, stdout),
            })
            elapsed = time.perf_counter() - start
            if mode != "run" or rc != 0 or elapsed >= seconds:
                break
            # a call expected to end past ``seconds`` repeats the first input
            last = elapsed + wall >= seconds
            argvs.append(argvs[0] if last else workload.argv(cli_seed(seed, len(argvs)), **argv_kw))
    finally:
        if inst is not None:
            inst.uninstall()

    repeat = [
        ("repeat.same_seed", call["digest"] == calls[0]["digest"])
        for argv, call in zip(argvs[1:], calls[1:])
        if argv is argvs[0]
    ]
    if mode == "run" and not repeat and outputs[0][0] == 0:
        # no timed call repeated the first input: repeat it untimed
        reruns = [call_cli(a) for a in workload.rerun(argvs[0])]
        same = all(r[0] == 0 for r in reruns) and workload.same(
            outputs[0][1], [r[2] for r in reruns]
        )
        repeat.append(("repeat.same_seed", same))
    report.update(
        calls=calls,
        repeat=repeat,
        draws=workload.draws(argvs[0]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        manifest=manifest(argvs[0], [int(flag(a, "--seed")) for a in argvs]),
    )
    if tracer is not None:
        report["layers"] = tracing.report(tracer)
        report["missing"] = inst.missing
        report["uncounted"] = sorted(tracer.uncounted)
        SPANS_DIR.mkdir(exist_ok=True)
        path = SPANS_DIR / f"spans-{name}-{seed}.json"
        path.write_text(json.dumps(tracer.spans))
        report["spans"] = {"count": len(tracer.spans), "file": str(path.relative_to(ROOT))}
    return report


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    seconds = float(argv[3]) if len(argv) > 3 else 0.0
    print(json.dumps(measure(name, seed, mode, seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
