import math
from dataclasses import replace

import numpy as np
import pytest

from invclt.arrays import CenteredArray, moments, standardize
from invclt.bounds import (
    K_L1,
    K_LINF,
    dkw_slack,
    exact_collision_probability,
    gap_bound,
    kp,
    l1_refined_coefficient,
    lower_bound_array,
    lower_bound_experiment,
    theorem_bounds,
    truncate,
)
from invclt.errors import InputError
from invclt.involutions import involution_matrix

from conftest import rand_centered, y_value


class TestKp:
    def test_endpoints(self):
        assert kp(1.0) == 379.0
        assert kp(math.inf) == 61_702_446.0

    def test_p2(self):
        assert kp(2.0) == pytest.approx(math.sqrt(379.0 * 61_702_446.0), rel=1e-12)

    def test_log_linear_grid(self):
        for p in (1.0, 1.5, 2.0, 4.0, 10.0):
            expected = math.exp(
                (1.0 / p) * math.log(K_L1) + (1.0 - 1.0 / p) * math.log(K_LINF)
            )
            assert kp(p) == pytest.approx(expected, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(InputError, match=r"p=0.99 outside \[1, inf\]"):
            kp(0.99)


class TestTheoremBounds:
    def test_validity_flags(self):
        assert not theorem_bounds(rand_centered(8, seed=60)).valid
        rep10 = theorem_bounds(rand_centered(10, seed=61))
        assert rep10.valid and rep10.valid_strict

    def test_refined_coefficient_at_9(self):
        coeff = l1_refined_coefficient(9)
        assert coeff == pytest.approx(224 + 1344 / 9 + 384 / 81, rel=1e-15)
        assert coeff <= 379.0

    def test_linear_in_beta(self):
        D = rand_centered(10, seed=62)
        doubled = replace(D, beta=2.0 * D.beta)
        r1, r2 = theorem_bounds(D), theorem_bounds(doubled)
        for p in r1.bound:
            assert r2.bound[p] == pytest.approx(2.0 * r1.bound[p], rel=1e-15)
        assert r2.gap_bound == pytest.approx(2.0 * r1.gap_bound, rel=1e-15)
        assert r2.l1_refined == pytest.approx(2.0 * r1.l1_refined, rel=1e-15)

    def test_json(self):
        obj = theorem_bounds(rand_centered(10, seed=63)).to_json()
        assert obj["kp"]["inf"] == 61_702_446.0 and "valid_strict" in obj


class TestTruncate:
    def test_noop_when_small_entries(self):
        D = rand_centered(100, seed=64)
        assert np.abs(D.entries).max() <= 0.5  # gaussian entries at this n
        res = truncate(D)
        assert np.array_equal(res.d_prime, D.entries)
        assert res.gamma.shape[0] == 0
        assert res.collision_prob_bound == pytest.approx(16.0 * D.beta / 100.0)
        assert all(res.deterministic.values())

    def test_single_large_pair_zeroed(self):
        d = rand_centered(10, seed=65).entries.copy()
        d = np.clip(d, -0.45, 0.45)  # exactly one pair above the threshold
        d[0, 1] = d[1, 0] = 0.6
        D = CenteredArray(n=10, entries=d, beta=float((np.abs(d) ** 3).sum()))
        res = truncate(D)
        pairs = {tuple(p) for p in res.gamma.tolist()}
        assert pairs == {(0, 1), (1, 0)}
        assert res.d_prime[0, 1] == 0.0 and res.d_prime[1, 0] == 0.0
        assert res.gamma.shape[0] == 2

    @pytest.mark.parametrize("n", [16, 100])
    def test_deterministic_inequalities_heavy(self, n):
        for seed in range(5):
            D = rand_centered(n, seed=700 + seed, heavy=True)
            res = truncate(D)
            assert all(res.deterministic.values()), res.deterministic
            # spelled out: the set bounds from the cube sums
            row_cubes = (np.abs(D.entries) ** 3).sum(axis=1)
            row_counts = np.bincount(res.gamma[:, 0], minlength=n)
            assert np.all(row_counts <= 8.0 * row_cubes + 1e-12)
            assert res.gamma.shape[0] <= 8.0 * D.beta + 1e-12

    def test_regime_empty_at_1000(self):
        # Holder gives beta/n >= ((n-1)(n-3)/(2(n-2)))^{3/2} / n^2, which at
        # n = 1000 is ~0.0111465 > 1/90: no array at n = 1000 is inside the
        # conditional regime, so `applicable` must be False there
        min_rate = (999.0 * 997.0 / (2.0 * 998.0)) ** 1.5 / 1000.0**2
        assert min_rate > 1.0 / 90.0
        D = rand_centered(1000, seed=66)
        assert D.beta / 1000.0 >= min_rate - 1e-12
        assert not truncate(D).applicable

    def test_conditional_applicable_lattice_1010(self):
        # the lattice array at n = 1010 is inside the regime (beta/n ~ 0.01110)
        D = standardize(lower_bound_array(1010))
        assert D.beta / 1010.0 <= 1.0 / 90.0
        res = truncate(D)
        assert res.applicable
        assert res.conditional["sigma2_bound"] and res.conditional["beta_bound"]
        assert res.gamma.shape[0] == 0  # all |d| ~ 1/sigma, far below 1/2

    def test_conditional_applicable_with_truncated_pair(self):
        # spiked lattice at n = 2048: one symmetric pair lands above 1/2 and
        # is truncated while beta/n stays inside the regime
        n = 2048
        base = lower_bound_array(n)
        sigma = math.sqrt(moments(base).sigma2)
        e = base.entries.copy()
        e[0, 2] = e[2, 0] = 0.6 * sigma
        from invclt.arrays import SymmetricArray

        D = standardize(SymmetricArray(n=n, entries=e))
        assert D.beta / n <= 1.0 / 90.0
        res = truncate(D)
        assert res.applicable
        assert res.gamma.shape[0] == 2
        assert res.conditional["sigma2_bound"] and res.conditional["beta_bound"]

    def test_conditional_not_applicable_small_n(self):
        D = rand_centered(16, seed=67)
        res = truncate(D)
        assert not res.applicable
        assert res.conditional["sigma2_bound"] is None

    @pytest.mark.parametrize("n", [10, 12])
    def test_exact_collision_probability(self, n):
        D = rand_centered(n, seed=800 + n, heavy=True)
        res = truncate(D)
        p = exact_collision_probability(D)
        assert p <= res.collision_prob_bound + 1e-12

    def test_collision_identity(self):
        # Y changes under truncation only for involutions that hit Gamma
        D = rand_centered(8, seed=68, heavy=True)
        res = truncate(D)
        hit = np.abs(D.entries) > 0.5
        assert hit.any()
        Dp = res.d_prime
        invs = involution_matrix(8)
        changed = y_value(Dp, invs) != y_value(D.entries, invs)
        assert np.all(hit[np.arange(8), invs[changed]].any(axis=1))


class TestLowerBoundArray:
    def test_n4_exact(self):
        rows = lower_bound_array(4).entries.tolist()
        assert rows == [
            [0.0, 0.0, 1.0, -1.0],
            [0.0, 0.0, -1.0, 1.0],
            [1.0, -1.0, 0.0, 0.0],
            [-1.0, 1.0, 0.0, 0.0],
        ]

    def test_row_sums_zero_up_to_200(self):
        for n in range(4, 201, 2):
            E = lower_bound_array(n)
            assert np.abs(E.entries.sum(axis=1)).max() == 0.0

    def test_entries_ternary_and_symmetric(self):
        E = lower_bound_array(30)
        assert set(np.unique(E.entries)) <= {-1.0, 0.0, 1.0}
        assert np.array_equal(E.entries, E.entries.T)

    def test_odd_rejected(self):
        with pytest.raises(InputError, match="n=7 must be even and >= 4"):
            lower_bound_array(7)


class TestLowerBoundExperiment:
    def test_small_run(self):
        rep, w = lower_bound_experiment(64, 20_000, master_seed=2025)
        assert rep.lattice_ok
        assert rep.sigma == pytest.approx(
            math.sqrt(moments(lower_bound_array(64)).sigma2), rel=1e-12
        )
        assert rep.floor == pytest.approx(
            0.45 * math.exp(-0.5 / rep.sigma**2) / (math.sqrt(2 * math.pi) * rep.sigma),
            rel=1e-12,
        )
        assert w.shape == (20_000,)
        assert rep.passed
        assert rep.ks >= rep.floor - rep.dkw_slack

    def test_lattice_values_even_integers(self):
        _, w = lower_bound_experiment(32, 5_000, master_seed=7)
        sigma = math.sqrt(moments(lower_bound_array(32)).sigma2)
        ys = w * sigma  # mu = 0 for this family
        assert np.allclose(ys, np.rint(ys), atol=1e-9)
        assert np.all(np.rint(ys).astype(int) % 2 == 0)

    def test_dkw_slack_value(self):
        assert dkw_slack(200_000) == pytest.approx(
            math.sqrt(math.log(2000.0) / 400_000.0), rel=1e-12
        )


def test_gap_bound_formula():
    assert gap_bound(10, 2.0) == pytest.approx(
        2.0 * (112.0 / 10 + 672.0 / 100 + 192.0 / 1000), rel=1e-15
    )


def test_beta_rate_halves_when_n_quadruples():
    for n in (64, 100):
        b1 = moments(lower_bound_array(n)).beta / n
        b2 = moments(lower_bound_array(4 * n)).beta / (4 * n)
        assert b1 / b2 == pytest.approx(2.0, abs=0.4)
