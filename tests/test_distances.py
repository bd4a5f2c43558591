import math
import tracemalloc

import mpmath
import numpy as np
import pytest

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
    normal_cdf,
)
from invclt.errors import InputError
from invclt.involutions import exact_w_distribution

from conftest import rand_centered
from oracles import l1_distance_clip, lp_norm_quadrature

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def phi(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def ncdf(t) -> float:
    """Phi(t) from mpmath at 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.ncdf(mpmath.mpf(float(t))))


class TestNormalCdf:
    """The package's Phi (``normal_cdf``)."""

    def test_zero(self):
        assert normal_cdf(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
    def test_symmetry(self, x):
        assert abs(normal_cdf(-x) + normal_cdf(x) - 1.0) <= 1.2e-16

    def test_value_at_one(self):
        assert abs(normal_cdf(1.0) - ncdf(1.0)) <= 1.2e-16

    def test_against_mpmath_grid(self):
        # the centre, the upper tail to 1 - 1.1e-19 and the lower tail down
        # to 2.9e-316, below the smallest normal double
        xs = np.linspace(-38.0, 9.0, 4701)
        ref = np.array([ncdf(x) for x in xs])
        assert np.abs(normal_cdf(xs) - ref).max() <= 2.3e-16

    def test_lower_tail_relative(self):
        # exp(-x^2/2) turns the rounding of -x/sqrt(2) into a relative error
        # that grows like x^2 eps (at most 3.4e-16 x^2 on this grid); this
        # checks the tail far below the grid's absolute bound
        xs = np.linspace(-37.0, -1.0, 3601)
        ref = np.array([ncdf(x) for x in xs])
        assert np.all(np.abs(normal_cdf(xs) - ref) <= 1e-15 * xs**2 * ref)

    def test_shapes(self):
        assert normal_cdf(np.zeros((2, 3))).shape == (2, 3)
        assert normal_cdf(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]
        # l1_distance evaluates Phi on the crossed pieces, which may be none
        empty = normal_cdf(np.array([]))
        assert empty.shape == (0,) and empty.dtype == np.float64

    def test_peak_memory(self):
        # Phi runs on every jump of a 100k-atom step CDF: the scaled input
        # and the output are the only arrays it may hold (a map over
        # tolist() reads 6x, the cephes port read 4.5x)
        x = rngmod.derive_stream(2024, 13).standard_normal(100_000)
        tracemalloc.start()
        try:
            normal_cdf(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes


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
        F = exact_w_distribution(appendix4_std)
        expected = abs(1.0 / 3.0 - ncdf(-math.sqrt(1.5)))
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


class TestAtoms:
    def test_near_ties_form_one_atom(self):
        # values 5e-13 apart are one atom at their count-weighted mean; a
        # lone value keeps its bits ((0.1 * 3) / 3 is not 0.1)
        F = ecdf([0.1, 0.1, 0.1, 1.0, 1.0 + 5e-13, 1.0 + 5e-13, 2.0])
        assert len(F.xs) == 3
        assert F.xs[0] == 0.1 and F.xs[2] == 2.0
        assert F.xs[1] == pytest.approx(1.0 + 1e-12 / 3, rel=1e-15)
        np.testing.assert_array_equal(F.cum, np.array([3, 6, 7]) / 7)


class TestL1:
    def test_point_mass_is_mean_abs_normal(self):
        assert l1_distance(ecdf([0.0])) == pytest.approx(2.0 * PHI0, abs=1e-9)

    def test_two_atoms_closed_form(self):
        # piecewise closed form: tails are each phi(1) - Phi(-1) and the
        # middle piece is Phi(1) - Phi(-1) + 2 phi(1) - 2 phi(0), so the
        # total is 4 Phi(1) + 4 phi(1) - 2 phi(0) - 3
        F = StepCDF(xs=np.array([-1.0, 1.0]), cum=np.array([0.5, 1.0]))
        expected = 4.0 * ncdf(1.0) + 4.0 * phi(1.0) - 2.0 * phi(0.0) - 3.0
        got = l1_distance(F)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(lp_norm_quadrature(F, 1.0), abs=1e-9)

    def test_symmetric_law_is_twice_half_integral(self, appendix4_std):
        F = exact_w_distribution(appendix4_std)
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
        F = exact_w_distribution(rand_centered(8, seed=51))
        assert l1_distance(F) == pytest.approx(lp_norm_quadrature(F, 1.0), abs=1e-6)

    def test_l1_bounded_by_twice_exact_gap(self):
        # zero-bias contract: ||F_W - Phi||_1 <= 2 E|W - W*|
        for n, seed in ((8, 52), (10, 53)):
            D = rand_centered(n, seed=seed)
            F = exact_w_distribution(D)
            assert l1_distance(F) <= 2.0 * exact_gap(D) + 1e-12


class TestLevelCrossing:
    @pytest.mark.parametrize("c", [0.1, 1.0 / 3.0, 0.5, 0.9, 0.999])
    def test_one_crossing_piece_against_mpmath(self, c):
        # one middle piece [-6, 6] at level c, crossed by Phi at Phi^{-1}(c)
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


class TestCrossingOnly:
    """``l1_distance`` calls the quantile only on the pieces that Phi crosses;
    clipping it into every piece (``l1_distance_clip``) gives the same L1."""

    def test_large_ecdf(self):
        F = ecdf(rngmod.derive_stream(2024, 11).standard_normal(100_000))
        # a few hundred of the 99,999 pieces cross: both paths run
        assert np.any((F.Phi[:-1] < F.cum[:-1]) & (F.cum[:-1] < F.Phi[1:]))
        ref = l1_distance_clip(F)
        assert abs(l1_distance(F) - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_exact_laws(self, n):
        F = exact_w_distribution(rand_centered(n, seed=60 + n))
        ref = l1_distance_clip(F)
        assert abs(l1_distance(F) - ref) <= 1e-15 * ref


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
    F = exact_w_distribution(appendix4_std)
    rep = distance_report(F, [1.0, 2.0, math.inf])
    assert rep["lp_upper"]["1.0"] == rep["l1"] and rep["lp_upper"]["inf"] == rep["linf"]
    assert rep["mode"] == "exact" and rep["m_samples"] is None and "inf" in rep["lp_upper"]
    # the mode follows from the sample count alone
    mc = distance_report(F, [1.0], m_samples=7)
    assert mc["mode"] == "mc" and mc["m_samples"] == 7
    rows = cdf_rows(F)
    assert len(rows) == 3
    t, f, p = rows[1]
    assert t == 0.0 and f == pytest.approx(2.0 / 3.0) and p == 0.5
