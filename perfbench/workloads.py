"""The benchmark's workloads: CLI arguments, output checks and active layers.

Each workload is one ``invclt`` CLI command, built from the benchmark seed and
run in-process.  The output checks read only the command's stdout.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

from tracing import CHECK_FAMILIES

SIM_NS = "10,20,48,64"  # n = 48 builds the largest n^4 table, n = 64 rejects
SIM_DRAWS = 100_000
LAT_NS = "64,100,196"
LAT_DRAWS = 200_000


def cli_seed(seed: int, call: int) -> int:
    """CLI ``--seed`` of call ``call`` in a run with benchmark seed ``seed``.

    Each call of a run draws new inputs: ``simulate`` spends a seed-dependent
    share of its time in rejection sampling, and a run that averages several
    inputs spreads less from seed to seed than one input repeated.
    """
    return seed * 1000 + call


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def lattice_threads() -> int:
    return min(2, nproc())


def flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    """Value of CLI option ``name`` in ``argv``."""
    return argv[argv.index(name) + 1] if name in argv else default


def simulate_argv(seed: int, draws: int = SIM_DRAWS) -> list[str]:
    return ["simulate", "--n", SIM_NS, "--threads", "1", "--draws", str(draws), "--seed", str(seed)]


def lattice_argv(seed: int, draws: int = LAT_DRAWS, threads: int | None = None) -> list[str]:
    threads = lattice_threads() if threads is None else threads
    return ["lowerbound", "--n", LAT_NS, "--threads", str(threads), "--draws", str(draws),
            "--seed", str(seed)]


def verify_argv(seed: int) -> list[str]:
    return ["verify", "--seed", str(seed)]


def check_simulate(stdout: str) -> list[tuple[str, bool]]:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    out = [("simulate.rows", [r["n"] for r in rows] == SIM_NS.split(","))]
    for r in rows:
        n = r["n"]
        out.append((f"simulate.n{n}.ks_mc<=bound_linf", float(r["ks_mc"]) <= float(r["bound_linf"])))
        out.append((f"simulate.n{n}.l1_mc<=bound_l1", float(r["l1_mc"]) <= float(r["bound_l1"])))
        out.append((f"simulate.n{n}.gap_mc<=gap_bound", float(r["gap_mc"]) <= float(r["gap_bound"])))
    return out


def check_lattice(stdout: str) -> list[tuple[str, bool]]:
    exps = json.loads(stdout)["experiments"]
    out = [("lowerbound.experiments", [str(e["n"]) for e in exps] == LAT_NS.split(","))]
    for e in exps:
        out.append((f"lowerbound.n{e['n']}.pass", e["pass"] is True))
        out.append((f"lowerbound.n{e['n']}.lattice_ok", e["lattice_ok"] is True))
    return out


def check_verify(stdout: str) -> list[tuple[str, bool]]:
    obj = json.loads(stdout)
    out = [("verify.pass", obj["pass"] is True)]
    for rec in obj["checks"]:
        out.append((f"verify.{rec['check']}.n{rec['n']}", rec["pass"] is True))
    return out


def _mc_draws(argv: list[str], coupled: int) -> int:
    """MC draws one call completes: draws per n, times ``coupled``."""
    return int(flag(argv, "--draws")) * len(flag(argv, "--n").split(",")) * coupled


def _same_stdout(first: str, stdouts: list[str]) -> bool:
    return stdouts == [first]


def verify_rerun(argv: list[str]) -> list[list[str]]:
    """Every check family but ``bound_chain``, one call each.

    Rerunning ``bound_chain`` would double the run: it is most of ``verify``.
    """
    from invclt.checks import CHECKS

    return [argv + ["--only", family] for family in CHECKS if family != "bound_chain"]


def verify_same(first: str, stdouts: list[str]) -> bool:
    want = [r for r in json.loads(first)["checks"] if r["check"] != "bound_chain"]
    got = [r for text in stdouts for r in json.loads(text)["checks"]]
    return json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@dataclass(frozen=True)
class Workload:
    """One CLI command; ``rerun``/``same`` repeat it at the same seed."""

    name: str
    argv: Callable[..., list[str]]
    check: Callable[[str], list[tuple[str, bool]]]
    draws: Callable[[list[str]], int]
    active: frozenset[str]  # layers that must record a span on this workload
    idle: frozenset[str] = frozenset()  # layer prefixes that must record none
    rerun: Callable[[list[str]], list[list[str]]] = lambda argv: [argv]
    same: Callable[[str, list[str]], bool] = _same_stdout


COMMON_MC = {
    "kernels.match_pairs", "kernels.y_batch", "involutions.draw_choices",
    "distances.ecdf", "distances.kolmogorov_distance", "arrays.moments", "rng.run_chunked",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_simulate",
            simulate_argv,
            check_simulate,
            # each n draws m values of W and m coupled (W, W*) pairs
            lambda argv: _mc_draws(argv, 2),
            frozenset(COMMON_MC | {
                "kernels.case_terms", "coupling.square_bias_table", "coupling.quad_sample",
                "coupling.estimate_gap", "distances.l1_distance", "bounds.theorem_bounds",
                "arrays.standardize",
            }),
        ),
        Workload(
            "mc_lattice",
            lattice_argv,
            check_lattice,
            lambda argv: _mc_draws(argv, 1),
            frozenset(COMMON_MC | {"bounds.lower_bound_experiment"}),
            idle=frozenset({"coupling.", "distances.l1_distance"}),
        ),
        Workload(
            "exact_verify",
            verify_argv,
            check_verify,
            lambda argv: 0,
            frozenset({
                "kernels.exact_gap", "involutions.enumerate", "involutions.exact_w_distribution",
                "coupling.square_bias_table", "coupling.exhaustive_sweep",
                "distances.kolmogorov_distance", "distances.l1_distance",
                "bounds.theorem_bounds", "bounds.truncate", "bounds.exact_collision_probability",
                "arrays.standardize", "arrays.moments",
            } | {f"checks.{family}" for family in CHECK_FAMILIES}),
            rerun=verify_rerun,
            same=verify_same,
        ),
    )
}
