import math

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

from invclt import rng as rngmod
from invclt.coupling import exact_gap
from invclt.distances import (
    StepCDF,
    cdf_rows,
    distance_report,
    ecdf,
    kolmogorov_distance,
    l1_distance,
    lp_upper,
    step_cdf_from_distribution,
)
from invclt.errors import InputError
from invclt.involutions import exact_w_distribution

from conftest import rand_centered
from oracles import lp_norm_quadrature

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def phi(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


class TestNormalCdf:
    """The normal CDF every distance evaluates, ``scipy.special.ndtr``."""

    def test_zero(self):
        assert ndtr(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
    def test_symmetry(self, x):
        assert ndtr(-x) + ndtr(x) == pytest.approx(1.0, abs=1e-15)

    def test_value_at_one(self):
        assert abs(float(ndtr(1.0)) - 0.841344746068543) < 1e-12

    def test_against_mpmath_grid(self):
        for x in np.linspace(-6.0, 6.0, 41):
            ref = float(mpmath.ncdf(mpmath.mpf(float(x))))
            assert abs(float(ndtr(float(x))) - ref) < 1e-12


class TestEcdf:
    def test_single_point(self):
        F = ecdf([0.0])
        assert F.xs.tolist() == [0.0] and F.cum.tolist() == [1.0]

    def test_duplicates(self):
        F = ecdf([1.0, 1.0, 2.0])
        assert F.xs.tolist() == [1.0, 2.0]
        assert F.cum.tolist() == [2.0 / 3.0, 1.0]

    def test_permutation_invariant(self):
        a = ecdf([3.0, 1.0, 2.0, 1.0])
        b = ecdf([1.0, 1.0, 2.0, 3.0])
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.cum, b.cum)

    def test_empty(self):
        with pytest.raises(InputError, match="empty sample"):
            ecdf([])

    def test_step_semantics(self):
        # right-continuous: F(t) = cum[i] for xs[i] <= t < xs[i+1], 0 below xs[0]
        F = ecdf([0.0, 1.0])
        at = np.concatenate(([0.0], F.cum))[np.searchsorted(F.xs, [-0.5, 0.0, 0.5, 1.0], "right")]
        assert at.tolist() == [0.0, 0.5, 0.5, 1.0]


class TestStepCDFValidation:
    def test_requires_increasing(self):
        with pytest.raises(InputError):
            StepCDF(xs=np.array([0.0, 0.0]), cum=np.array([0.5, 1.0]))

    def test_requires_final_one(self):
        with pytest.raises(InputError):
            StepCDF(xs=np.array([0.0]), cum=np.array([0.9]))


class TestKolmogorov:
    def test_point_mass(self):
        assert kolmogorov_distance(ecdf([0.0])) == 0.5

    def test_appendix_exact_law(self, appendix4_std):
        F = step_cdf_from_distribution(exact_w_distribution(appendix4_std))
        expected = abs(1.0 / 3.0 - float(ndtr(-math.sqrt(1.5))))
        assert kolmogorov_distance(F) == pytest.approx(expected, abs=1e-12)

    def test_large_normal_sample_is_close(self):
        gen = rngmod.derive_stream(2024, 9)
        ks = kolmogorov_distance(ecdf(gen.standard_normal(1_000_000)))
        assert ks < 0.002  # DKW at very generous slack

    def test_merge_invariance(self):
        # duplicated sample points change nothing: both routes merge to the
        # same step function
        a = ecdf([1.0, 1.0, 2.0, 3.0])
        b = StepCDF(xs=np.array([1.0, 2.0, 3.0]), cum=np.array([0.5, 0.75, 1.0]))
        assert kolmogorov_distance(a) == kolmogorov_distance(b)
        assert l1_distance(a) == pytest.approx(l1_distance(b), abs=1e-14)


class TestL1:
    def test_point_mass_is_mean_abs_normal(self):
        assert l1_distance(ecdf([0.0])) == pytest.approx(2.0 * PHI0, abs=1e-9)

    def test_two_atoms_closed_form(self):
        # piecewise closed form: tails are each phi(1) - Phi(-1) and the
        # middle piece is Phi(1) - Phi(-1) + 2 phi(1) - 2 phi(0), so the
        # total is 4 Phi(1) + 4 phi(1) - 2 phi(0) - 3
        F = StepCDF(xs=np.array([-1.0, 1.0]), cum=np.array([0.5, 1.0]))
        expected = 4.0 * float(ndtr(1.0)) + 4.0 * phi(1.0) - 2.0 * phi(0.0) - 3.0
        got = l1_distance(F)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(lp_norm_quadrature(F, 1.0), abs=1e-9)

    def test_symmetric_law_is_twice_half_integral(self, appendix4_std):
        F = step_cdf_from_distribution(exact_w_distribution(appendix4_std))
        full = l1_distance(F)
        # the positive half, integrated independently: level 2/3 on [0, x),
        # level 1 beyond x, with Phi crossing 2/3 inside the first piece
        x = mpmath.mpf(float(F.xs[2]))
        cross = mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(1) / 3)
        level = mpmath.mpf(2) / 3
        half = mpmath.quad(lambda t: abs(level - mpmath.ncdf(t)), [0, cross, x])
        half += mpmath.quad(lambda t: 1 - mpmath.ncdf(t), [x, mpmath.inf])
        assert full == pytest.approx(2.0 * float(half), abs=1e-12)

    def test_quadrature_cross_check_random_law(self):
        F = step_cdf_from_distribution(exact_w_distribution(rand_centered(8, seed=51)))
        assert l1_distance(F) == pytest.approx(lp_norm_quadrature(F, 1.0), abs=1e-6)

    def test_l1_bounded_by_twice_exact_gap(self):
        # zero-bias contract: ||F_W - Phi||_1 <= 2 E|W - W*|
        for n, seed in ((8, 52), (10, 53)):
            D = rand_centered(n, seed=seed)
            F = step_cdf_from_distribution(exact_w_distribution(D))
            assert l1_distance(F) <= 2.0 * exact_gap(D) + 1e-12


class TestLevelCrossing:
    @pytest.mark.parametrize("c", [0.1, 1.0 / 3.0, 0.5, 0.9, 0.999])
    def test_one_crossing_piece_against_mpmath(self, c):
        # one middle piece [-6, 6] at level c, crossed by Phi at ndtri(c)
        F = StepCDF(xs=np.array([-6.0, 6.0]), cum=np.array([c, 1.0]))
        level = mpmath.mpf(c)
        cross = mpmath.sqrt(2) * mpmath.erfinv(2 * level - 1)
        ref = mpmath.quad(mpmath.ncdf, [-mpmath.inf, -6])
        ref += mpmath.quad(lambda t: abs(level - mpmath.ncdf(t)), [-6, cross, 6])
        ref += mpmath.quad(lambda t: 1 - mpmath.ncdf(t), [6, mpmath.inf])
        assert l1_distance(F) == pytest.approx(float(ref), abs=1e-12)

    def test_crossing_outside_piece(self):
        # levels below Phi(a) and above Phi(b): no crossing inside either piece
        F = StepCDF(xs=np.array([-1.0, 0.0, 1.0]), cum=np.array([0.01, 0.99, 1.0]))
        quad = lp_norm_quadrature(F, 1.0)
        assert l1_distance(F) == pytest.approx(quad, abs=1e-9)


class TestLpUpper:
    def test_p1(self):
        assert lp_upper(0.2, 0.05, 1.0) == 0.05

    def test_pinf(self):
        assert lp_upper(0.2, 0.05, math.inf) == 0.2

    def test_p2(self):
        assert lp_upper(0.2, 0.05, 2.0) == pytest.approx(0.1, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(InputError, match=r"p=0.5 outside \[1, inf\]"):
            lp_upper(0.2, 0.05, 0.5)

    def test_monotone_in_p_toward_linf(self):
        # geometric interpolation runs from l1 at p=1 to linf at p=inf, so it
        # is nondecreasing in p when l1 <= linf and nonincreasing otherwise
        ps = [1.0, 1.5, 2.0, 4.0, 10.0, math.inf]
        up = [lp_upper(0.3, 0.1, p) for p in ps]
        assert all(a <= b + 1e-15 for a, b in zip(up, up[1:]))
        down = [lp_upper(0.2, 0.5, p) for p in ps]
        assert all(a >= b - 1e-15 for a, b in zip(down, down[1:]))
        # monotone nondecreasing in each argument
        assert lp_upper(0.31, 0.1, 2.0) >= up[2]
        assert lp_upper(0.3, 0.11, 2.0) >= up[2]


def test_distance_report_and_rows(appendix4_std):
    F = step_cdf_from_distribution(exact_w_distribution(appendix4_std))
    rep = distance_report(F, [1.0, 2.0, math.inf])
    assert rep.lp[1.0] == rep.l1 and rep.lp[math.inf] == rep.linf
    obj = rep.to_json()
    assert obj["mode"] == "exact" and obj["m_samples"] is None and "inf" in obj["lp_upper"]
    # the mode follows from the sample count alone
    mc = distance_report(F, [1.0], m_samples=7).to_json()
    assert mc["mode"] == "mc" and mc["m_samples"] == 7
    rows = cdf_rows(F)
    assert len(rows) == 3
    t, f, p = rows[1]
    assert t == 0.0 and f == pytest.approx(2.0 / 3.0) and p == 0.5
