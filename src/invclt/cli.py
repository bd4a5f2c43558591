"""Command-line entry point.

Subcommands:

* ``analyze``    moments, bounds and normal distances for one input array
* ``verify``     run the exact-oracle check suite
* ``simulate``   Monte Carlo distances and coupling gaps vs. bounds per n
* ``lowerbound`` the lattice-array rate experiment

Exit codes: 0 success, 1 verification failure, 2 input/IO error,
3 degenerate input, 4 internal error (a broken invariant such as a
rewiring case that matched no table row; a bug, not bad input).  All
randomized output is fully determined by (seed, draws, n, flags); thread
count never changes results.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import bounds as boundsmod
from . import checks as checksmod
from . import coupling
from . import distances as distmod
from . import involutions as invmod
from . import rng as rngmod
from .arrays import load_matrix, moments, standardize, validate_and_symmetrize
from .errors import DegenerateArray, InputError, NoCaseMatched

SCHEMA_VERSION = 1
EXACT_MODE_CAP = 12  # |Pi_12| = 10,395: exact law wherever cheap

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4


def _parse_p_list(text: str) -> list[float]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(math.inf if tok.lower() in ("inf", "infinity") else float(tok))
        except ValueError as exc:
            raise InputError(f"bad p value {tok!r}") from exc
    if not out:
        raise InputError("empty --p list")
    for p in out:
        if p < 1:
            raise InputError(f"p={p} < 1")
    return out


def _parse_n_list(text: str) -> list[int]:
    try:
        out = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad n list {text!r}") from exc
    if not out:
        raise InputError("empty --n list")
    for n in out:
        if n < 4:
            raise InputError(f"n={n} < 4")
    return out


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _write_cdf(path: str, F: distmod.StepCDF) -> None:
    rows = distmod.cdf_rows(F)
    with open(path, "w") as fh:
        fh.write("t,F,Phi\n")
        for t, f, phi in rows:
            fh.write(f"{t!r},{f!r},{phi!r}\n")


def run_analyze(args) -> int:
    raw = load_matrix(args.input)
    E = validate_and_symmetrize(raw, symmetrize=args.symmetrize)
    summary = moments(E)
    D = standardize(E, summary)  # raises DegenerateArray when sigma^2 = 0
    p_list = _parse_p_list(args.p)
    exact = E.n <= min(args.cap, invmod.ENUM_CAP)
    if exact:
        dist = invmod.exact_w_distribution(D)
        F = distmod.step_cdf_from_distribution(dist)
        report = distmod.distance_report(F, p_list)
    else:
        w = invmod.sample_y_values(
            D.entries, args.draws, master_seed=args.seed, threads=args.threads
        )
        F = distmod.ecdf(w)
        report = distmod.distance_report(F, p_list, m_samples=args.draws)
    rep = boundsmod.theorem_bounds(D, p_list)
    rep_json = rep.to_json()
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "n": E.n,
            "mu": summary.mu,
            "sigma2": summary.sigma2,
            "beta": summary.beta,
            "mode": "exact" if exact else "mc",
            "distances": report.to_json(),
            "bounds": rep_json.pop("bound"),
            "bound_report": rep_json,
        }
    )
    if args.emit_cdf:
        _write_cdf(args.emit_cdf, F)
    return EXIT_OK


def run_verify(args) -> int:
    records = checksmod.run_checks(args.seed, only=args.only)
    ok = all(r["pass"] for r in records)
    _emit({"schema": SCHEMA_VERSION, "pass": ok, "checks": records})
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _simulate_row(n: int, args) -> tuple[dict, list]:
    gen = rngmod.derive_stream(args.seed, rngmod.PURPOSE_ARRAY, n)
    D = checksmod.random_centered(n, gen)
    w = invmod.sample_y_values(
        D.entries, args.draws, master_seed=args.seed, stream=n, threads=args.threads
    )
    F = distmod.ecdf(w)
    gap_mean, gap_se = coupling.estimate_gap(
        D, args.draws, master_seed=args.seed, stream=n, threads=args.threads
    )
    rep = boundsmod.theorem_bounds(D)
    row = {
        "n": n,
        "beta": D.beta,
        "ks_mc": distmod.kolmogorov_distance(F),
        "l1_mc": distmod.l1_distance(F),
        "gap_mc": gap_mean,
        "gap_se": gap_se,
        "bound_linf": rep.bound[math.inf],
        "bound_l1": rep.bound[1.0],
        "gap_bound": rep.gap_bound,
    }
    draws = []
    if args.dump_draws:
        agen = rngmod.derive_stream(args.seed, rngmod.PURPOSE_AUDIT, n)
        draws = coupling.draw_json_rows(coupling.zero_bias_draws(D, args.dump_draws, agen))
    return row, draws


_SIM_COLS = (
    "n",
    "beta",
    "ks_mc",
    "l1_mc",
    "gap_mc",
    "bound_linf",
    "bound_l1",
    "gap_bound",
)


def run_simulate(args) -> int:
    if args.dump_draws < 0:
        raise InputError("--dump-draws must be >= 0")
    if args.dump_draws and not args.json:
        raise InputError("--dump-draws needs --json: the draws go into the JSON report")
    ns = _parse_n_list(args.n)
    rows = []
    draws: dict[int, list] = {}
    for n in ns:
        row, dr = _simulate_row(n, args)
        rows.append(row)
        if dr:
            draws[n] = dr
    csv_lines = [",".join(_SIM_COLS)]
    csv_lines += [",".join(repr(row[c]) if c != "n" else str(row[c]) for c in _SIM_COLS) for row in rows]
    csv_text = "\n".join(csv_lines) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(csv_text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(csv_text)
    if args.json:
        obj = {"schema": SCHEMA_VERSION, "rows": rows}
        if draws:
            obj["draws"] = {str(n): d for n, d in draws.items()}
        try:
            Path(args.json).write_text(json.dumps(obj, sort_keys=True))
        except OSError as exc:
            raise InputError(f"cannot write {args.json}: {exc}") from exc
    return EXIT_OK


def run_lowerbound(args) -> int:
    ns = _parse_n_list(args.n)
    reports = []
    csv_lines = ["n,sigma,ks,floor,beta_over_n"]
    for n in ns:
        rep, w = boundsmod.lower_bound_experiment(
            n, args.draws, master_seed=args.seed, threads=args.threads
        )
        reports.append(rep.to_json())
        csv_lines.append(",".join(repr(x) if not isinstance(x, int) else str(x) for x in rep.csv_row()))
        if args.emit_cdf:
            path = args.emit_cdf if len(ns) == 1 else f"{args.emit_cdf}.n{n}"
            _write_cdf(path, distmod.ecdf(w))
    _emit({"schema": SCHEMA_VERSION, "experiments": reports})
    if args.out:
        try:
            Path(args.out).write_text("\n".join(csv_lines) + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="invclt",
        description="Normal-approximation diagnostics for sums over random "
        "fixed-point-free involutions.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def seed(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=lambda s: int(s, 0), default=rngmod.DEFAULT_SEED)

    def common(p: argparse.ArgumentParser) -> None:
        seed(p)
        p.add_argument("--draws", type=int, default=100_000, help="Monte Carlo draws")
        p.add_argument("--threads", type=int, default=1)

    pa = sub.add_parser("analyze", help="moments, bounds and distances for one array")
    common(pa)
    pa.add_argument("--input", required=True)
    pa.add_argument("--symmetrize", action="store_true")
    pa.add_argument("--p", default="1,2,inf")
    pa.add_argument(
        "--cap",
        type=int,
        default=EXACT_MODE_CAP,
        help=f"exact-mode threshold (at most {invmod.ENUM_CAP})",
    )
    pa.add_argument("--emit-cdf", default=None)
    pa.set_defaults(fn=run_analyze)

    pv = sub.add_parser("verify", help="run the exact-oracle check suite")
    seed(pv)
    pv.add_argument("--only", default=None, help="run a single check family")
    pv.set_defaults(fn=run_verify)

    ps = sub.add_parser("simulate", help="MC distances and gaps vs bounds per n")
    common(ps)
    ps.add_argument("--n", default="10,20,50", help="comma-separated dimensions")
    ps.add_argument("--out", default=None, help="write CSV here instead of stdout")
    ps.add_argument("--json", default=None, help="also write a JSON report")
    ps.add_argument("--dump-draws", type=int, default=0, metavar="K")
    ps.set_defaults(fn=run_simulate)

    pl = sub.add_parser("lowerbound", help="lattice lower-bound rate experiment")
    common(pl)
    pl.add_argument("--n", default="64,100,196")
    pl.add_argument("--out", default=None, help="CSV output path")
    pl.add_argument("--emit-cdf", default=None)
    pl.set_defaults(fn=run_lowerbound)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "draws", 1) < 1:
            raise InputError("--draws must be >= 1")
        if getattr(args, "threads", 1) < 1:
            raise InputError("--threads must be >= 1")
        return args.fn(args)
    except DegenerateArray as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NoCaseMatched as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
