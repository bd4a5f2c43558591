"""Each ``verify`` family can fail: inject one fault, expect ``pass: false``.

A check that cannot fail passes on broken code as well as on working code.
Each test here patches one input of a family so that its inequality is
violated, runs the family at the default seed, and asserts that exactly
the records at the expected ``n`` fail, and that the family's other records
are untouched.
"""

import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from invclt import _kernels, arrays, bounds, checks, coupling, involutions, rng as rngmod
from invclt.arrays import CenteredArray
from invclt.distances import StepCDF
from invclt.errors import NoCaseMatched

# the families that no test below injects a fault into yet
NOT_YET_INJECTED: set[str] = set()


def run_family(name: str) -> list[dict]:
    return checks.CHECKS[name](rngmod.DEFAULT_SEED)


STEIN_FAMILIES = ("stein_linearity", "stein_second_moment", "exchangeability")


def passes(records: list[dict]) -> list[tuple[int, bool]]:
    return [(r["n"], r["pass"]) for r in records]


def stein_families_alone_and_shared(monkeypatch) -> tuple[dict, dict]:
    """``{family: passes}`` of the three Stein families, each run on its
    own and all three in one ``run_checks`` call on their shared sweeps."""
    alone = {name: passes(run_family(name)) for name in STEIN_FAMILIES}
    monkeypatch.setattr(checks, "CHECKS", {k: checks.CHECKS[k] for k in STEIN_FAMILIES})
    records = checks.run_checks(rngmod.DEFAULT_SEED)
    shared = {name: passes([r for r in records if r["check"] == name]) for name in STEIN_FAMILIES}
    return alone, shared


def test_not_yet_injected_is_exactly_the_untested_families():
    # a family that loses its test, or gains one while still listed, fails here
    injected = set(re.findall(r'run_family\("(\w+)"\)', Path(__file__).read_text()))
    assert injected <= set(checks.CHECKS)
    assert set(checks.CHECKS) - injected == NOT_YET_INJECTED


def test_hat_marginals_fail_without_the_grand_sum_term(monkeypatch):
    # centering that forgets + e_{++}/((n-1)(n-2)) at n = 12 leaves every row
    # sum off by e_{++}/(n-2)
    center_hat = checks.center_hat

    def without_grand_term(E):
        hat = center_hat(E)
        if E.n == 12:
            hat -= float(E.entries.sum()) / ((E.n - 1) * (E.n - 2))
            np.fill_diagonal(hat, 0.0)
        return hat

    monkeypatch.setattr(checks, "center_hat", without_grand_term)
    records = run_family("hat_marginals")
    assert [(r["n"], r["pass"]) for r in records] == [(6, True), (12, False), (30, True)]


def test_sigma_consistency_fails_without_the_grand_sum_term(monkeypatch):
    # the direct variance formula without its e_{++}^2/(n-1) term at n = 30;
    # the centered-array formula it is compared with is untouched
    formula = arrays._sigma2_formula

    def without_grand_term(e, n):
        if n != 30:
            return formula(e, n)
        tot = float(e.sum())
        return formula(e, n) - 2.0 / ((n - 1) * (n - 3)) * tot * tot / (n - 1)

    monkeypatch.setattr(arrays, "_sigma2_formula", without_grand_term)
    records = run_family("sigma_consistency")
    assert [(r["n"], r["pass"]) for r in records] == [(6, True), (12, True), (30, False)]


def test_brute_force_moments_fail_on_a_mean_over_n(monkeypatch):
    # mu = e_{++}/n in place of e_{++}/(n-1) at n = 6: the enumerated mean of
    # Y over all 15 matchings disagrees
    moments = checks.moments

    def mean_over_n(E):
        summary = moments(E)
        if E.n == 6:
            summary.mu = float(E.entries.sum()) / E.n
        return summary

    monkeypatch.setattr(checks, "moments", mean_over_n)
    records = run_family("brute_force_moments")
    assert [(r["n"], r["pass"]) for r in records] == [(6, False), (8, True)]


def test_bound_chain_fails_without_a_coupling_gap(monkeypatch):
    # a zero gap breaks only the L1 link l1 <= 2 E|W - W*|: every other term
    # of the violation stays below zero, so the record fails through it alone
    monkeypatch.setattr(coupling, "exact_gap", lambda D: 0.0)
    records = run_family("bound_chain")
    assert [(r["n"], r["pass"]) for r in records] == [(10, False), (12, False)]
    assert all(r["max_abs_error"] == r["l1"] > 0.0 for r in records)


def test_truncation_collision_fails_above_its_bound(monkeypatch):
    # an exact collision probability just above the truncation's bound; the
    # family's truncation_inequalities records do not read it and still pass
    monkeypatch.setattr(
        bounds,
        "exact_collision_probability",
        lambda D: bounds.truncate(D).collision_prob_bound + 1e-9,
    )
    records = run_family("truncation_inequalities")
    collision = [r for r in records if r["check"] == "truncation_collision"]
    assert [(r["n"], r["pass"]) for r in collision] == [(10, False), (12, False)]
    assert all(r["max_abs_error"] > 0.0 for r in collision)
    assert all(r["pass"] for r in records if r["check"] == "truncation_inequalities")


def test_impossible_cases_fail_on_a_non_involution(monkeypatch):
    # at the quadruple (0,1,2,3) the row [2,3,1,0,5,4] has (R1,R2) = (2,1),
    # which no involution can give; the n = 8 sweep is untouched
    involution_matrix = coupling.involution_matrix

    def with_extra_row(n):
        invs = involution_matrix(n)
        return np.vstack((invs, [2, 3, 1, 0, 5, 4])) if n == 6 else invs

    monkeypatch.setattr(coupling, "involution_matrix", with_extra_row)
    records = run_family("impossible_cases_21_12")
    assert [(r["n"], r["pass"]) for r in records] == [(6, False), (8, True)]


def test_case_exhaustiveness_fails_on_a_wrong_case_signature(monkeypatch):
    # case 7 holds both cycles (I,K) and (J,L), so its (R1, R2) is (2, 0);
    # a table that expects (0, 2) there disagrees at every case-7 pair of
    # both sweeps, while each pair still matches exactly one row
    monkeypatch.setitem(coupling.CASE_R, 7, (0, 2))
    records = run_family("case_exhaustiveness")
    assert [(r["n"], r["pass"]) for r in records] == [(6, False), (8, False)]
    assert all(r["max_abs_error"] == r["case_counts"][7] > 0 for r in records)


def biased_at_8(monkeypatch):
    """The n = 8 sweeps run over a base law with one matching counted twice
    (row 1 := row 0) and another never; n = 6 keeps the uniform law."""
    involution_matrix = coupling.involution_matrix
    biased = involution_matrix(8).copy()
    biased[1] = biased[0]
    monkeypatch.setattr(
        coupling, "involution_matrix", lambda n: biased if n == 8 else involution_matrix(n)
    )


def test_completion_uniformity_fails_on_a_biased_base_law(monkeypatch):
    biased_at_8(monkeypatch)
    records = run_family("completion_uniformity")
    assert [(r["n"], r["pass"]) for r in records] == [(6, True), (8, False)]


def test_p2_joint_law_fails_on_a_biased_base_law(monkeypatch):
    biased_at_8(monkeypatch)
    records = run_family("p2_joint_law")
    assert [(r["n"], r["pass"]) for r in records] == [(8, False)]


def test_p3_structural_zeros_fail_on_a_biased_base_law(monkeypatch):
    biased_at_8(monkeypatch)
    records = run_family("p3_structural_zeros")
    assert [(r["n"], r["pass"]) for r in records] == [(8, False)]


def test_exchangeability_fails_on_a_biased_base_law(monkeypatch):
    # one matching counted twice, another never: the (W, W') law is no
    # longer symmetric at either n
    involution_matrix = coupling.involution_matrix

    def biased(n):
        invs = involution_matrix(n).copy()
        invs[1] = invs[0]
        return invs

    monkeypatch.setattr(coupling, "involution_matrix", biased)
    records = run_family("exchangeability")
    assert [(r["n"], r["pass"]) for r in records] == [(6, False), (8, False)]


def test_truncation_inequalities_fail_on_too_many_large_entries(monkeypatch):
    # four entries of size 1 with beta = 1/4: truncation zeroes all four, so
    # |Gamma| = 4 > 8 beta = 2 and only gamma_bound fails; every other
    # record of the family keeps its own array
    random_centered = checks.random_centered
    entries = np.zeros((16, 16))
    entries[0, 1] = entries[1, 0] = 1.0
    entries[2, 3] = entries[3, 2] = -1.0

    def planted(n, gen, heavy=False):
        if n == 16:
            return CenteredArray(n=16, entries=entries, beta=0.25)
        return random_centered(n, gen, heavy=heavy)

    monkeypatch.setattr(checks, "random_centered", planted)
    held = bounds.truncate(planted(16, None)).deterministic
    assert [claim for claim, ok in held.items() if not ok] == ["gamma_bound"]
    records = run_family("truncation_inequalities")
    failed = [(r["check"], r["n"]) for r in records if not r["pass"]]
    assert failed == [("truncation_inequalities", 16)]


def test_lemma_3_3_normalization_fails_on_a_scaled_constant(monkeypatch):
    # c_n one part in a thousand too large at n = 10: the square-bias
    # weights then sum to 1.001
    cn = coupling.cn
    monkeypatch.setattr(coupling, "cn", lambda n: cn(n) * 1.001 if n == 10 else cn(n))
    records = run_family("lemma_3_3_normalization")
    assert [(r["n"], r["pass"]) for r in records] == [(6, True), (8, True), (10, False), (12, True)]


def test_stein_second_moment_fails_on_an_unstandardized_array(monkeypatch):
    # D scaled by 1.01 at n = 8 has variance 1.0201, so E(W - W')^2 misses
    # 8/n; the identity E(W - W' | pi) = (4/n) W is linear in D and holds
    random_centered = checks.random_centered

    def scaled(n, gen, heavy=False):
        D = random_centered(n, gen, heavy=heavy)
        return CenteredArray(n=n, entries=1.01 * D.entries, beta=D.beta) if n == 8 else D

    monkeypatch.setattr(checks, "random_centered", scaled)
    alone, shared = stein_families_alone_and_shared(monkeypatch)
    assert alone["stein_second_moment"] == [(6, True), (8, False), (10, True)]
    assert all(ok for _, ok in alone["stein_linearity"] + alone["exchangeability"])
    # the fault in the one array the three families share fails only its identity
    assert shared == alone


def test_stein_linearity_fails_on_an_uncentered_array(monkeypatch):
    # 0.1 added off the diagonal at n = 8 shifts W by a constant but leaves
    # W - W' alone (the constant cancels in its four terms), so
    # E(W - W' | pi) = (4/n) W breaks while the second moment is untouched
    random_centered = checks.random_centered

    def shifted(n, gen, heavy=False):
        D = random_centered(n, gen, heavy=heavy)
        if n != 8:
            return D
        return CenteredArray(n=n, entries=D.entries + 0.1 * (1.0 - np.eye(n)), beta=D.beta)

    monkeypatch.setattr(checks, "random_centered", shifted)
    alone, shared = stein_families_alone_and_shared(monkeypatch)
    assert alone["stein_linearity"] == [(6, True), (8, False), (10, True)]
    assert all(ok for _, ok in alone["stein_second_moment"] + alone["exchangeability"])
    assert shared == alone


def test_zero_bias_cdf_fails_on_a_stretched_law_of_w(monkeypatch):
    # the atoms of W moved 1% outward at n = 8: the CDF of W* read off the
    # definition no longer matches the one built by the construction
    exact_w_distribution = coupling.exact_w_distribution

    def stretched(D):
        F = exact_w_distribution(D)
        return StepCDF(xs=1.01 * F.xs, cum=F.cum) if D.n == 8 else F

    monkeypatch.setattr(coupling, "exact_w_distribution", stretched)
    records = run_family("zero_bias_cdf")
    assert [(r["n"], r["pass"]) for r in records] == [(6, True), (8, False)]


def halve_delta(monkeypatch):
    """delta = 2(d_ik + d_jl - d_ij - d_kl) read at half its size from the
    one kernel that computes it; its sign, and so the square-bias support,
    is unchanged."""
    quad_pairs = _kernels.quad_pairs

    def halved(d, quads):
        pairs, delta, base = quad_pairs(d, quads)
        return pairs, 0.5 * delta, base

    monkeypatch.setattr(_kernels, "quad_pairs", halved)


def test_zero_bias_draw_invariants_fail_on_a_halved_delta(monkeypatch):
    # the draws' W_dag - W_ddag no longer equals delta at either n
    halve_delta(monkeypatch)
    records = run_family("zero_bias_draw_invariants")
    assert [(r["n"], r["pass"]) for r in records] == [(8, False), (10, False)]


def test_stein_families_fail_on_a_halved_delta(monkeypatch):
    # the Stein sweep reads W - W' off the same kernel: its mean is then
    # (2/n) W and its second moment 2/n, so both identities break at every n
    halve_delta(monkeypatch)
    for family in (run_family("stein_linearity"), run_family("stein_second_moment")):
        assert [(r["n"], r["pass"]) for r in family] == [(6, False), (8, False), (10, False)]


def test_swap_oracles_fail_on_a_crossed_swap(monkeypatch):
    # swap(pi, a, pi(b)) plants (a, pi(b)) and (b, pi(a)) in place of (a, b)
    # and (pi(a), pi(b)); every row is still an involution (with two fixed
    # points where pi(a) = b), so only the oracles that apply the swap map
    # can tell
    swap = coupling.swap

    def crossed(images, a, b):
        return swap(images, a, images[np.arange(images.shape[0]), b])

    monkeypatch.setattr(coupling, "swap", crossed)
    families = (
        "stein_linearity",
        "exchangeability",
        "zero_bias_cdf",
        "zero_bias_moments",
        "case_exhaustiveness",
        "completion_uniformity",
    )
    for name in families:
        records = run_family(name)
        assert records and not any(r["pass"] for r in records), name
    with pytest.raises(NoCaseMatched):
        run_family("zero_bias_draw_invariants")


@pytest.mark.parametrize("fault", ["shifted", "unranked"])
def test_rank_oracles_fail_on_a_wrong_rank(monkeypatch, fault):
    # the first rank each sweep reads is the next matching's (a valid row,
    # the wrong one) or -1 (no involution, and never to be read as an index)
    ranks, seen = coupling.ranks, set()

    def wrong(images):
        out, n = ranks(images), images.shape[-1]
        if n not in seen:
            seen.add(n)
            total = coupling.double_factorial(n - 1)
            out.flat[0] = (out.flat[0] + 1) % total if fault == "shifted" else -1
        return out

    monkeypatch.setattr(coupling, "ranks", wrong)
    for name in ("stein_linearity", "exchangeability", "completion_uniformity"):
        seen.clear()
        records = run_family(name)
        assert records and not any(r["pass"] for r in records), name


def test_zero_bias_moments_fail_on_a_biased_law_of_w(monkeypatch):
    # the n = 8 law of W counts one matching twice (row 1 := row 0) and
    # another never; the W* side, built from planted completions, keeps the
    # uniform law, so E[W^{k+1}] = k E[(W*)^{k-1}] breaks at n = 8 only
    enumerate_involutions = involutions.enumerate_involutions

    def biased(n):
        blocks = enumerate_involutions(n)
        if n != 8:
            return blocks
        first = next(blocks).copy()
        first[1] = first[0]
        return itertools.chain([first], blocks)

    monkeypatch.setattr(involutions, "enumerate_involutions", biased)
    records = run_family("zero_bias_moments")
    assert [(r["n"], r["pass"]) for r in records] == [(6, True), (8, False)]
