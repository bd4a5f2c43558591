"""Named exact-oracle checks behind ``invclt verify``.

Every check generates its own arrays from the master seed, computes an
independent quantity (enumeration, combinatorial count or closed form) and
reports ``{check, n, max_abs_error, pass}``.  Integer-count checks report
the worst count deviation, so any nonzero value is a failure.

``run_checks`` runs the families in registry order on the calling thread,
except ``bound_chain`` (its exact gap at n = 12 is about half of a run): it
starts on a second thread before the first family and is joined after the
last one, so every other family runs beside it.  Its records are placed at
its own position in the registry, and of the families that raise, the
registry-first one's error is raised.  So the records, their order and the
first error raised are those of the sequential run.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from . import _kernels
from . import bounds as boundsmod
from . import coupling
from . import distances as distmod
from . import involutions as invmod
from . import rng as rngmod
from .arrays import (
    CenteredArray,
    center_hat,
    moments,
    sigma2_from_hat,
    standardize,
    validate_and_symmetrize,
)
from .errors import InputError


def random_centered(
    n: int, gen: np.random.Generator, heavy: bool = False
) -> CenteredArray:
    """Random standardized array; ``heavy`` mixes in large symmetric spikes."""
    raw = gen.standard_normal((n, n))
    if heavy:
        raw *= 1.0 + 4.0 * (gen.random((n, n)) < 3.0 / n)
    E = validate_and_symmetrize(raw, symmetrize=True)
    del raw  # not held while standardize allocates
    return standardize(E)


def _record(check: str, n: int, err: float, ok: bool, **extra) -> dict:
    rec = {"check": check, "n": n, "max_abs_error": float(err), "pass": bool(ok)}
    rec.update(extra)
    return rec


# --- array_core oracles ----------------------------------------------------


def check_hat_marginals(seed: int) -> list[dict]:
    out = []
    for n in (6, 12, 30):
        gen = rngmod.derive_stream(seed, rngmod.PURPOSE_CHECKS, 1, n)
        E = validate_and_symmetrize(gen.standard_normal((n, n)), symmetrize=True)
        hat = center_hat(E)
        err = max(
            float(np.abs(hat.sum(axis=0)).max()),
            float(np.abs(hat.sum(axis=1)).max()),
            abs(float(hat.sum())),
        )
        tol = 1e-9 * n * max(float(np.abs(hat).max()), 1e-300)
        out.append(_record("hat_marginals", n, err, err <= tol))
    return out


def check_sigma_consistency(seed: int) -> list[dict]:
    out = []
    for n in (6, 12, 30):
        gen = rngmod.derive_stream(seed, rngmod.PURPOSE_CHECKS, 2, n)
        E = validate_and_symmetrize(gen.standard_normal((n, n)), symmetrize=True)
        s_direct = moments(E).sigma2
        s_hat = sigma2_from_hat(center_hat(E))
        err = abs(s_direct - s_hat) / s_hat
        out.append(_record("sigma_consistency", n, err, err <= 1e-10))
    return out


def check_brute_force_moments(seed: int) -> list[dict]:
    out = []
    for n in (6, 8):
        gen = rngmod.derive_stream(seed, rngmod.PURPOSE_CHECKS, 3, n)
        E = validate_and_symmetrize(gen.standard_normal((n, n)), symmetrize=True)
        summary = moments(E)
        # Y summed over each image row, independently of the pair sums of y_batch
        ys = E.entries[np.arange(n), invmod.involution_matrix(n)].sum(axis=1)
        mu = math.fsum(ys) / len(ys)
        var = math.fsum((ys - mu) ** 2) / len(ys)
        err = max(abs(mu - summary.mu) / max(1, abs(mu)), abs(var - summary.sigma2) / var)
        out.append(_record("brute_force_moments", n, err, err <= 1e-9))
    return out


# --- coupling oracles ------------------------------------------------------


def check_lemma_3_3(seed: int) -> list[dict]:
    out = []
    for n in (6, 8, 10, 12):
        worst = 0.0
        for rep in range(5):
            gen = rngmod.derive_stream(seed, rngmod.PURPOSE_CHECKS, 4, n, rep)
            D = random_centered(n, gen)
            worst = max(worst, abs(coupling.square_bias_table(D).raw_total - 1.0))
        out.append(_record("lemma_3_3_normalization", n, worst, worst <= 1e-10))
    return out


def check_stein_linearity(seed: int) -> list[dict]:
    out = []
    for n in (6, 8, 10):
        gen = rngmod.derive_stream(seed, rngmod.PURPOSE_CHECKS, 5, n)
        D = random_centered(n, gen)
        lin_err, _, _, formula_err = coupling.stein_sweep(D)
        ok = lin_err <= 1e-12 and formula_err <= 1e-12
        out.append(_record("stein_linearity", n, lin_err, ok, formula_error=formula_err))
    return out


def check_stein_second_moment(seed: int) -> list[dict]:
    out = []
    for n in (6, 8, 10):
        gen = rngmod.derive_stream(seed, rngmod.PURPOSE_CHECKS, 6, n)
        D = random_centered(n, gen)
        _, m2, _, _ = coupling.stein_sweep(D)
        err = abs(m2 - 8.0 / n)
        out.append(_record("stein_second_moment", n, err, err <= 1e-12))
    return out


# The exhaustive sweeps of one run_checks call, keyed by (seed, n): five
# families read the same n = 6 and n = 8 sweeps.  None outside run_checks,
# so a family called on its own computes its sweeps.
_shared_sweeps: dict[tuple[int, int], coupling.SweepReport] | None = None


def _sweep(seed: int, n: int) -> coupling.SweepReport:
    cache = {} if _shared_sweeps is None else _shared_sweeps
    if (seed, n) not in cache:
        gen = rngmod.derive_stream(seed, rngmod.PURPOSE_CHECKS, 7, n)
        cache[seed, n] = coupling.exhaustive_sweep(random_centered(n, gen))
    return cache[seed, n]


def check_case_exhaustiveness(seed: int) -> list[dict]:
    out = []
    for n in (6, 8):
        rep = _sweep(seed, n)
        err = rep.multi_match + rep.case_r_mismatch + rep.closure_failures
        out.append(
            _record(
                "case_exhaustiveness",
                n,
                err,
                err == 0,
                case_counts=rep.case_counts,
            )
        )
    return out


def check_impossible_cases(seed: int) -> list[dict]:
    out = []
    for n in (6, 8):
        rep = _sweep(seed, n)
        out.append(_record("impossible_cases_21_12", n, rep.impossible_r, rep.impossible_r == 0))
    return out


def check_pi_dagger_uniformity(seed: int) -> list[dict]:
    out = []
    for n in (6, 8):
        rep = _sweep(seed, n)
        out.append(
            _record(
                "completion_uniformity",
                n,
                rep.uniformity_max_dev,
                rep.uniformity_max_dev == 0,
                expected_count=rep.expected_completion_count,
            )
        )
    return out


def check_p2_joint_law(seed: int) -> list[dict]:
    rep = _sweep(seed, 8)
    return [_record("p2_joint_law", 8, rep.p2_max_dev, rep.p2_max_dev == 0)]


def check_p3_structural(seed: int) -> list[dict]:
    rep = _sweep(seed, 8)
    return [_record("p3_structural_zeros", 8, rep.p3_max_dev, rep.p3_max_dev == 0)]


def check_zero_bias_moments(seed: int) -> list[dict]:
    out = []
    for n in (6, 8):
        gen = rngmod.derive_stream(seed, rngmod.PURPOSE_CHECKS, 8, n)
        D = random_centered(n, gen)
        rows = coupling.exact_zero_bias_moments(D)
        err = max(abs(lhs - rhs) for _, lhs, rhs in rows)
        out.append(_record("zero_bias_moments", n, err, err <= 1e-8))
    return out


def check_zero_bias_cdf(seed: int) -> list[dict]:
    out = []
    for n in (6, 8):
        gen = rngmod.derive_stream(seed, rngmod.PURPOSE_CHECKS, 14, n)
        D = random_centered(n, gen)
        _, f_con, f_def = coupling.exact_wstar_cdf(D)
        err = float(np.abs(f_con - f_def).max())
        out.append(_record("zero_bias_cdf", n, err, err <= 1e-10))
    return out


def check_exchangeability(seed: int) -> list[dict]:
    out = []
    for n in (6, 8):
        gen = rngmod.derive_stream(seed, rngmod.PURPOSE_CHECKS, 9, n)
        D = random_centered(n, gen)
        _, _, dev, _ = coupling.stein_sweep(D)
        out.append(_record("exchangeability", n, dev, dev == 0))
    return out


def check_zero_bias_draw_invariants(seed: int) -> list[dict]:
    out = []
    for n in (8, 10):
        gen = rngmod.derive_stream(seed, rngmod.PURPOSE_CHECKS, 10, n)
        D = random_centered(n, gen)
        d = D.entries
        z = coupling.zero_bias_draws(D, 400, gen)
        delta = _kernels.quad_pairs(d, z["quad"])[1]
        # each W against Y summed afresh over its involution's pairs
        errors = [
            z[w] - _kernels.y_batch(d, _kernels.pairing_order(z[pi]))
            for w, pi in (("w", "pi"), ("w_dagger", "pi_dagger"), ("w_ddagger", "pi_ddagger"))
        ]
        errors.append((z["w_dagger"] - z["w_ddagger"]) - delta)
        worst = float(np.abs(errors).max())
        cases = dict(enumerate(np.bincount(z["case_id"], minlength=11)[1:].tolist(), start=1))
        out.append(
            _record("zero_bias_draw_invariants", n, worst, worst <= 1e-12, case_counts=cases)
        )
    return out


def check_bound_chain(seed: int) -> list[dict]:
    out = []
    for n in (10, 12):
        gen = rngmod.derive_stream(seed, rngmod.PURPOSE_CHECKS, 11, n)
        D = random_centered(n, gen)
        dist = distmod.distance_report(invmod.exact_w_distribution(D), (1.0, 2.0, math.inf))
        l1, linf, upper = dist["l1"], dist["linf"], dist["lp_upper"]
        gap = coupling.exact_gap(D)
        rep = boundsmod.theorem_bounds(D)
        violation = max(
            l1 - 2.0 * gap,
            2.0 * gap - 2.0 * rep["gap_bound"],
            *(upper[p] - rep["bound"][p] for p in upper),
            0.0,
        )
        out.append(
            _record(
                "bound_chain",
                n,
                violation,
                violation <= 0.0,
                l1=l1,
                linf=linf,
                exact_gap=gap,
                gap_bound=rep["gap_bound"],
            )
        )
    return out


def check_truncation(seed: int) -> list[dict]:
    out = []
    for n, heavy in ((16, True), (100, True), (1000, False)):
        gen = rngmod.derive_stream(seed, rngmod.PURPOSE_CHECKS, 12, n)
        D = random_centered(n, gen, heavy=heavy)
        res = boundsmod.truncate(D)
        ok = all(res.deterministic.values()) and all(
            v for v in res.conditional.values() if v is not None
        )
        out.append(_record("truncation_inequalities", n, 0.0 if ok else 1.0, ok))
    for n in (10, 12):
        gen = rngmod.derive_stream(seed, rngmod.PURPOSE_CHECKS, 13, n)
        D = random_centered(n, gen, heavy=True)
        res = boundsmod.truncate(D)
        p_exact = boundsmod.exact_collision_probability(D)
        err = max(p_exact - res.collision_prob_bound, 0.0)
        out.append(
            _record(
                "truncation_collision",
                n,
                err,
                err <= 0.0,
                collision=p_exact,
                bound=res.collision_prob_bound,
                gamma_size=int(res.gamma.shape[0]),
            )
        )
    return out


CHECKS: dict[str, Callable[[int], list[dict]]] = {
    "hat_marginals": check_hat_marginals,
    "sigma_consistency": check_sigma_consistency,
    "brute_force_moments": check_brute_force_moments,
    "lemma_3_3_normalization": check_lemma_3_3,
    "stein_linearity": check_stein_linearity,
    "stein_second_moment": check_stein_second_moment,
    "case_exhaustiveness": check_case_exhaustiveness,
    "impossible_cases_21_12": check_impossible_cases,
    "completion_uniformity": check_pi_dagger_uniformity,
    "p2_joint_law": check_p2_joint_law,
    "p3_structural_zeros": check_p3_structural,
    "zero_bias_moments": check_zero_bias_moments,
    "zero_bias_cdf": check_zero_bias_cdf,
    "exchangeability": check_exchangeability,
    "zero_bias_draw_invariants": check_zero_bias_draw_invariants,
    "bound_chain": check_bound_chain,
    "truncation_inequalities": check_truncation,
}


# the family that run_checks starts on a second thread, beside the others
_SIDE_FAMILY = "bound_chain"


def run_checks(seed: int, only: str | None = None) -> list[dict]:
    global _shared_sweeps
    names = list(CHECKS) if only is None else [only]
    if only is not None and only not in CHECKS:
        raise InputError(f"unknown check {only!r}; known: {', '.join(CHECKS)}")
    results: dict[str, list[dict]] = {}
    _shared_sweeps = {}
    try:
        # leaving the block waits for the side family, also on an error
        with ThreadPoolExecutor(max_workers=1) as pool:
            side = pool.submit(CHECKS[_SIDE_FAMILY], seed) if _SIDE_FAMILY in names else None
            for name in names:
                if name == _SIDE_FAMILY:
                    continue
                try:
                    results[name] = CHECKS[name](seed)
                except Exception:
                    # the side family's error comes first if it is earlier in the registry
                    if side is not None and names.index(_SIDE_FAMILY) < names.index(name):
                        side.result()
                    raise
            # joined after the last family, so no family waits on it
            if side is not None:
                results[_SIDE_FAMILY] = side.result()
    finally:
        _shared_sweeps = None
    return [rec for name in names for rec in results[name]]
