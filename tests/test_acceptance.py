"""Acceptance gate: each test implements one criterion at its stated
tolerance and prints one pass/fail line (visible with ``pytest -s``)."""

import math
import time

import numpy as np
import scipy.stats as st

from invclt.arrays import moments
from invclt.bounds import (
    exact_collision_probability,
    gap_bound,
    kp,
    lower_bound_array,
    lower_bound_experiment,
    truncate,
)
from invclt.coupling import (
    exact_gap,
    exact_zero_bias_moments,
    exhaustive_sweep,
    square_bias_table,
    stein_sweep,
)
from invclt.distances import kolmogorov_distance, l1_distance, lp_upper
from invclt.involutions import exact_w_distribution, ranks

from conftest import rand_centered
from oracles import sample_involutions

SEED = 0xC0FFEE


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_zero_bias_identity():
    t0 = time.monotonic()
    worst = 0.0
    for n in (6, 8):
        for rep in range(3):
            D = rand_centered(n, seed=9100 + 10 * n + rep)
            for k, lhs, rhs in exact_zero_bias_moments(D):
                worst = max(worst, abs(lhs - rhs))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    report(
        1,
        "zero-bias identity (exact, n=6,8, k=1..5)",
        ok,
        f"max |E[W^(k+1)] - k E[(W*)^(k-1))]| = {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_stein_pair_laws():
    worst_lin = worst_m2 = worst_formula = 0.0
    worst_exch = 0
    for n in (6, 8, 10):
        D = rand_centered(n, seed=9200 + n)
        lin_err, m2, exch_dev, formula_err = stein_sweep(D)
        worst_lin = max(worst_lin, lin_err)
        worst_m2 = max(worst_m2, abs(m2 - 8.0 / n))
        worst_exch = max(worst_exch, exch_dev)
        worst_formula = max(worst_formula, formula_err)
    ok = worst_lin <= 1e-12 and worst_m2 <= 1e-12 and worst_exch == 0 and worst_formula <= 1e-12
    report(
        2,
        "Stein-pair laws (per-pi linearity, second moment, exchangeability, W - W' formula)",
        ok,
        f"max linearity err = {worst_lin:.3e}, max |E(W-W')^2 - 8/n| = {worst_m2:.3e}, "
        f"exchangeability dev = {worst_exch}, formula err = {worst_formula:.3e}",
    )


def test_criterion_3_normalization():
    worst = 0.0
    for n in (6, 8, 10, 12):
        for rep in range(5):
            D = rand_centered(n, seed=9300 + 10 * n + rep)
            worst = max(worst, abs(square_bias_table(D).raw_total - 1.0))
    ok = worst <= 1e-10
    report(3, "square-bias normalization (c_n sum = 1)", ok, f"max |sum - 1| = {worst:.3e}")


def test_criterion_4_conditional_uniformity():
    rep = exhaustive_sweep(rand_centered(8, seed=9400))
    ok = (
        rep.uniformity_max_dev == 0
        and rep.expected_completion_count == 35
        and rep.p2_max_dev == 0
    )
    report(
        4,
        "rewired-involution uniformity at n=8 (35 of 105 per completion; image law exact)",
        ok,
        f"uniformity dev = {rep.uniformity_max_dev}, p2 dev = {rep.p2_max_dev}",
    )


def test_criterion_5_case_table_soundness():
    rep = exhaustive_sweep(rand_centered(8, seed=9500))
    ok = rep.multi_match == 0 and rep.impossible_r == 0 and rep.closure_failures == 0
    report(
        5,
        "case-table soundness (exhaustive n=8 sweep)",
        ok,
        f"multi-match = {rep.multi_match}, impossible (R1,R2) = {rep.impossible_r}, "
        f"closure failures = {rep.closure_failures}, cases = {rep.case_counts}",
    )


def test_criterion_6_bound_chain():
    t0 = time.monotonic()
    worst = -math.inf
    details = []
    for n in (10, 12):
        D = rand_centered(n, seed=9600 + n)
        F = exact_w_distribution(D)
        l1 = l1_distance(F)
        linf = kolmogorov_distance(F)
        gap = exact_gap(D)
        gb = gap_bound(n, D.beta)
        violations = [
            l1 - 2.0 * gap,
            2.0 * gap - 2.0 * gb,
            l1 - kp(1.0) * D.beta / n,
            lp_upper(linf, l1, 2.0) - kp(2.0) * D.beta / n,
            linf - kp(math.inf) * D.beta / n,
        ]
        worst = max(worst, *violations)
        details.append(f"n={n}: l1={l1:.4f} <= 2gap={2*gap:.4f} <= 2bound={2*gb:.4f}")
    elapsed = time.monotonic() - t0
    ok = worst <= 0.0 and elapsed < 120.0
    report(6, "bound chain (exact, n=10,12)", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_7_truncation_diagnostics():
    checked = 0
    failures = []
    plan = [(16, 40, True), (100, 40, True), (1000, 20, False)]
    for n, reps, heavy in plan:
        for rep in range(reps):
            D = rand_centered(n, seed=9700 + n + rep, heavy=heavy)
            res = truncate(D)
            if not all(res.deterministic.values()):
                failures.append((n, rep, res.deterministic))
            if res.conditional["sigma2_bound"] is not None and not all(res.conditional.values()):
                failures.append((n, rep, res.conditional))
            checked += 1
    assert checked == 100
    collision_ok = True
    for n in (10, 12):
        for rep in range(2):
            D = rand_centered(n, seed=9800 + n + rep, heavy=True)
            res = truncate(D)
            if exact_collision_probability(D) > res.collision_prob_bound + 1e-12:
                collision_ok = False
    ok = not failures and collision_ok
    report(
        7,
        "truncation diagnostics (100 arrays; exact collision bound)",
        ok,
        f"arrays checked = {checked}, failures = {failures or 'none'}, "
        f"collision bound ok = {collision_ok}",
    )


def test_criterion_8_lattice_rate_experiment():
    t0 = time.monotonic()
    details = []
    ok = True
    for n in (64, 100, 196):
        rep, _ = lower_bound_experiment(n, 200_000, master_seed=SEED, threads=2)
        ok = ok and rep["lattice_ok"] and rep["ks"] >= rep["floor"] - rep["dkw_slack"]
        details.append(
            f"n={n}: ks={rep['ks']:.4f} >= floor-slack={rep['floor'] - rep['dkw_slack']:.4f}"
        )
    # quadrupling n halves beta/n (the n^{-1/2} rate); 196/4 is odd, so the
    # ratio is checked on the even pairs 64->256 and 100->400
    for n in (64, 100):
        r = (moments(lower_bound_array(n)).beta / n) / (
            moments(lower_bound_array(4 * n)).beta / (4 * n)
        )
        ok = ok and abs(r - 2.0) <= 0.4
        details.append(f"beta-rate ratio {n}->{4*n}: {r:.3f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    report(8, "lattice lower-bound rate experiment", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_9_sampler_uniformity():
    # false-failure probability 1e-3 (the 0.999 chi-square quantile); the
    # thread comparison is deterministic
    m = 1_000_000
    draws = sample_involutions(8, m, master_seed=SEED, threads=2)
    counts = np.bincount(ranks(draws), minlength=105)
    expected = m / 105.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    quantile = float(st.chi2.ppf(0.999, 104))
    identical = np.array_equal(
        sample_involutions(8, 50_000, master_seed=SEED, threads=1),
        sample_involutions(8, 50_000, master_seed=SEED, threads=4),
    )
    ok = chi2 < quantile and identical
    report(
        9,
        "sampler uniformity (1e6 draws, 105 cells) and thread independence",
        ok,
        f"chi2 = {chi2:.2f} < {quantile:.2f}, thread-identical = {identical}",
    )
