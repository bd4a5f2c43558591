import json
import math
import tracemalloc

import numpy as np
import pytest

from invclt import rng as rngmod
from invclt.arrays import (
    CenteredArray,
    SymmetricArray,
    center_hat,
    check_centered,
    load_matrix,
    moments,
    sigma2_from_hat,
    standardize,
    validate_and_symmetrize,
)
from invclt.bounds import truncate
from invclt.checks import random_centered
from invclt.errors import DegenerateArray, InputError
from invclt.involutions import involution_matrix

from conftest import rand_raw, rand_symmetric, y_value
from oracles import (
    center_hat_chained,
    check_centered_chained,
    moments_chained,
    save_matrix_json,
    truncate_chained,
    validate_and_symmetrize_chained,
)


def constant_offdiag(n, c):
    arr = np.full((n, n), float(c))
    np.fill_diagonal(arr, 0.0)
    return arr


class TestValidateAndSymmetrize:
    def test_zero_matrix_identity(self):
        out = validate_and_symmetrize(np.zeros((4, 4)))
        assert out.n == 4
        assert np.array_equal(out.entries, np.zeros((4, 4)))

    def test_odd_dimension(self):
        with pytest.raises(InputError, match="n=5 is odd"):
            validate_and_symmetrize(np.zeros((5, 5)))

    def test_too_small(self):
        with pytest.raises(InputError, match="n=2 < 4"):
            validate_and_symmetrize(np.zeros((2, 2)))

    def test_averaging_rule(self):
        arr = np.zeros((4, 4))
        arr[0, 1] = 1.0
        arr[1, 0] = 1.0 + 1e-12
        out = validate_and_symmetrize(arr, symmetrize=True)
        assert out.entries[0, 1] == out.entries[1, 0] == (1.0 + (1.0 + 1e-12)) / 2.0

    def test_asymmetry_rejected_without_flag(self):
        arr = np.zeros((4, 4))
        arr[0, 1] = 1.0
        arr[1, 0] = 1.01
        with pytest.raises(InputError, match=r"max \|e_ij - e_ji\| = .* exceeds"):
            validate_and_symmetrize(arr)

    def test_sub_tolerance_asymmetry_canonicalized(self):
        arr = constant_offdiag(4, 1.0)
        arr[1, 0] = 1.0 + 1e-13
        out = validate_and_symmetrize(arr)
        assert np.array_equal(out.entries, out.entries.T)

    def test_dirty_diagonal_rejected(self):
        arr = constant_offdiag(4, 1.0)
        arr[2, 2] = 1e-3
        with pytest.raises(InputError, match=r"max \|e_ii\| = .* exceeds"):
            validate_and_symmetrize(arr)

    def test_nonfinite(self):
        arr = np.zeros((4, 4))
        arr[0, 1] = np.nan
        with pytest.raises(InputError, match="non-finite entries"):
            validate_and_symmetrize(arr)

    def test_not_square(self):
        with pytest.raises(InputError):
            validate_and_symmetrize(np.zeros((4, 6)))


class TestCenterHat:
    def test_zero_marginal_input_unchanged(self, appendix4):
        # the lattice array has exactly zero row sums, so centering is a no-op
        hat = center_hat(appendix4)
        assert np.array_equal(hat, appendix4.entries)

    def test_constant_array_centers_to_zero(self):
        E = validate_and_symmetrize(constant_offdiag(8, 3.25))
        hat = center_hat(E)
        assert np.abs(hat).max() < 1e-13

    @pytest.mark.parametrize("n", [6, 10, 16, 30])
    def test_marginal_sums_vanish(self, n):
        E = rand_symmetric(n, seed=n)
        hat = center_hat(E)
        tol = 1e-9 * n * np.abs(hat).max()
        assert np.abs(hat.sum(axis=0)).max() <= tol
        assert np.abs(hat.sum(axis=1)).max() <= tol
        assert abs(hat.sum()) <= tol
        assert np.all(np.diag(hat) == 0.0)

    def test_exactly_symmetric(self):
        E = rand_symmetric(12, seed=3)
        hat = center_hat(E)
        assert np.array_equal(hat, hat.T)


class TestMoments:
    def test_appendix_exact(self, appendix4):
        s = moments(appendix4)
        assert s.mu == 0.0
        assert s.sigma2 == pytest.approx(32.0 / 3.0, rel=1e-14)
        # enumeration oracle: the three involutions give Y in {0, 4, -4}
        ys = sorted(y_value(appendix4.entries, involution_matrix(4)))
        assert ys == [-4.0, 0.0, 4.0]
        assert s.sigma2 == pytest.approx(np.var(ys), rel=1e-14)

    def test_zero_array_degenerate(self):
        s = moments(validate_and_symmetrize(np.zeros((4, 4))))
        assert s.mu == 0.0 and s.sigma2 == 0.0 and s.beta is None

    def test_constant_offdiag_degenerate(self):
        s = moments(validate_and_symmetrize(constant_offdiag(8, 2.5)))
        assert s.sigma2 == 0.0 and s.beta is None

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_brute_force_mean_variance(self, n):
        E = rand_symmetric(n, seed=100 + n)
        s = moments(E)
        ys = y_value(E.entries, involution_matrix(n))
        mu = math.fsum(ys) / len(ys)
        var = math.fsum((ys - mu) ** 2) / len(ys)
        assert abs(s.mu - mu) <= 1e-9 * max(1.0, abs(mu))
        assert abs(s.sigma2 - var) <= 1e-9 * var

    @pytest.mark.parametrize("n", [6, 12, 30])
    def test_sigma2_consistent_with_centered_formula(self, n):
        E = rand_symmetric(n, seed=200 + n)
        direct = moments(E).sigma2
        via_hat = sigma2_from_hat(center_hat(E))
        assert abs(direct - via_hat) <= 1e-10 * via_hat


class TestStandardize:
    def test_appendix(self, appendix4, appendix4_std):
        D = appendix4_std
        np.testing.assert_allclose(
            D.entries, appendix4.entries / math.sqrt(32.0 / 3.0), rtol=1e-15
        )
        assert D.beta == pytest.approx(8.0 / (32.0 / 3.0) ** 1.5, rel=1e-14)
        # re-derive the variance of Y_D: must be 1
        ys = y_value(D.entries, involution_matrix(4))
        assert np.var(ys) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        D = standardize(rand_symmetric(8, seed=5))
        again = standardize(SymmetricArray(n=8, entries=D.entries))
        np.testing.assert_allclose(again.entries, D.entries, rtol=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateArray):
            standardize(validate_and_symmetrize(constant_offdiag(6, 1.0)))

    def test_scale_and_shift_invariance(self):
        E = rand_symmetric(10, seed=6)
        D = standardize(E)
        scaled = standardize(SymmetricArray(n=10, entries=3.7 * E.entries))
        shift = constant_offdiag(10, 0.9)
        shifted = standardize(SymmetricArray(n=10, entries=E.entries + shift))
        scale = np.abs(D.entries).max()
        assert np.abs(scaled.entries - D.entries).max() <= 1e-10 * scale
        assert np.abs(shifted.entries - D.entries).max() <= 1e-10 * scale

    def test_beta_matches_between_raw_and_standardized(self):
        E = rand_symmetric(10, seed=7)
        assert moments(E).beta == pytest.approx(standardize(E).beta, rel=1e-10)

    def test_beta_scale_invariant(self):
        E = rand_symmetric(8, seed=8)
        b1 = standardize(E).beta
        b2 = standardize(SymmetricArray(n=8, entries=2.0 * E.entries)).beta
        assert abs(b1 - b2) <= 1e-12 * b1


class TestBetaValue:
    def test_matches_stored(self):
        D = standardize(rand_symmetric(8, seed=9))
        assert D.beta == float((np.abs(D.entries) ** 3).sum())

    def test_sign_pattern(self):
        # +1 on the pairs of one matching and -1 on another: every row sum
        # vanishes, so centering keeps the array, and its m = 12 entries of
        # magnitude 1 standardize to magnitude 1/s, giving beta = m / s^3
        n = 6
        e = np.zeros((n, n))
        for t in range(0, n, 2):
            e[t, t + 1] = e[t + 1, t] = 1.0
            e[t + 1, (t + 2) % n] = e[(t + 2) % n, t + 1] = -1.0
        s = math.sqrt(2.0 * (n - 2) / ((n - 1) * (n - 3)) * 12)
        D = standardize(SymmetricArray(n=n, entries=e))
        assert D.beta == pytest.approx(12.0 / s**3, rel=1e-14)


class TestIO:
    def test_csv_roundtrip(self, tmp_path, appendix4):
        path = tmp_path / "m.csv"
        path.write_text(
            "\n".join(",".join(str(x) for x in row) for row in appendix4.entries)
        )
        assert np.array_equal(load_matrix(path), appendix4.entries)

    def test_json_roundtrip(self, tmp_path, appendix4):
        path = tmp_path / "m.json"
        save_matrix_json(appendix4.entries, path)
        assert np.array_equal(load_matrix(path), appendix4.entries)

    def test_ragged_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(InputError):
            load_matrix(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,x\n3,4\n")
        with pytest.raises(InputError):
            load_matrix(path)

    def test_json_n_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "entries": [[0.0, 1.0], [1.0, 0.0]]}))
        with pytest.raises(InputError):
            load_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_matrix(tmp_path / "nope.csv")


def test_check_centered_rejects_unstandardized_entries():
    bad = np.ones((6, 6))
    with pytest.raises(InputError):
        check_centered(CenteredArray(n=6, entries=bad, beta=36.0))


def test_centered_wrapper_accepts_real_standardized():
    D = standardize(rand_symmetric(8, seed=11))
    stats = check_centered(CenteredArray(n=8, entries=D.entries, beta=D.beta))
    assert stats["sigma2"] == pytest.approx(1.0, abs=1e-12)
    assert stats["row_err"] <= 1e-12


# ---------------------------------------------------------------------------
# the in-place pipeline against its chained-expression form
# ---------------------------------------------------------------------------


def bits(x: np.ndarray) -> tuple:
    return x.dtype, x.shape, x.tobytes()


def message(fn, *args) -> str:
    with pytest.raises(InputError) as exc:
        fn(*args)
    return str(exc.value)


def assert_truncate_is_chained(D: CenteredArray):
    res = truncate(D)
    gamma, deterministic, conditional = truncate_chained(D)
    assert bits(res.gamma) == bits(gamma)
    assert (res.deterministic, res.conditional) == (deterministic, conditional)
    return res


@pytest.mark.parametrize("heavy", [False, True], ids=["normal", "heavy"])
@pytest.mark.parametrize("n", [4, 6, 30, 200])
class TestInPlaceIsBitIdentical:
    def test_validate_and_symmetrize(self, n, heavy):
        raw = rand_raw(n, 5, heavy)
        before = raw.copy()
        got = validate_and_symmetrize(raw, symmetrize=True).entries
        assert bits(got) == bits(validate_and_symmetrize_chained(raw, True))
        # asymmetry and diagonal below SYMMETRY_TOL, canonicalized without the flag
        near = got + 1e-13 * raw
        assert bits(validate_and_symmetrize(near).entries) == bits(
            validate_and_symmetrize_chained(near)
        )
        assert bits(raw) == bits(before)

    def test_center_hat_and_moments(self, n, heavy):
        E = validate_and_symmetrize(rand_raw(n, 5, heavy), symmetrize=True)
        before = E.entries.copy()
        assert bits(center_hat(E)) == bits(center_hat_chained(E.entries))
        s = moments(E)
        mu, sigma2, beta, d = moments_chained(E.entries)
        assert (s.mu, s.sigma2, s.beta) == (mu, sigma2, beta)
        assert bits(s.d) == bits(d)
        assert bits(E.entries) == bits(before)

    def test_check_centered_and_truncate(self, n, heavy):
        D = standardize(validate_and_symmetrize(rand_raw(n, 5, heavy), symmetrize=True))
        assert check_centered(D) == check_centered_chained(D)
        assert_truncate_is_chained(D)


def test_truncate_is_bit_identical_where_the_conditional_claims_apply():
    # random signs at n = 1100 give beta/n = 0.0107 <= 1/90, so sigma2_bound
    # and beta_bound are read off the truncated array's moments (a normal
    # array needs n of about 2500 for that)
    signs = np.triu(np.sign(rand_raw(1100, 5)), 1)
    D = standardize(validate_and_symmetrize(signs + signs.T))
    assert None not in assert_truncate_is_chained(D).conditional.values()


def guard_inputs() -> dict[str, np.ndarray]:
    e = validate_and_symmetrize(rand_raw(6, 5), symmetrize=True).entries
    nonfinite = e.copy()
    nonfinite[1, 2] = np.inf
    asym = e.copy()
    asym[1, 2] += 1e-3
    diag = e.copy()
    diag[3, 3] = -1e-3
    return {
        "nan": np.full((4, 4), np.nan),
        "inf": nonfinite,
        "asymmetric": asym,
        "dirty_diagonal": diag,
        "odd": np.zeros((5, 5)),
        "small": np.zeros((2, 2)),
        "not_square": np.zeros((4, 6)),
    }


@pytest.mark.parametrize("case", list(guard_inputs()))
def test_validate_guards_raise_as_the_chained_form(case):
    raw = guard_inputs()[case]
    assert message(validate_and_symmetrize, raw) == message(
        validate_and_symmetrize_chained, raw
    )


def test_check_centered_guards_raise_as_the_chained_form():
    D = standardize(rand_symmetric(8, seed=12))
    asym = D.entries.copy()
    asym[0, 1] = np.nextafter(asym[0, 1], 1.0)
    diag = D.entries.copy()
    diag[2, 2] = 1e-300
    bad = [
        CenteredArray(n=6, entries=D.entries, beta=D.beta),
        CenteredArray(n=8, entries=asym, beta=D.beta),
        CenteredArray(n=8, entries=diag, beta=D.beta),
        CenteredArray(n=8, entries=D.entries + 1.0 - np.eye(8), beta=D.beta),
        CenteredArray(n=8, entries=2.0 * D.entries, beta=D.beta),
    ]
    messages = [message(check_centered, B) for B in bad]
    assert messages == [message(check_centered_chained, B) for B in bad]
    assert len(set(messages)) == len(bad)


# ---------------------------------------------------------------------------
# allocation budget of the in-place pipeline
# ---------------------------------------------------------------------------

BUDGET_N = 400


def peak_arrays(fn, *args) -> float:
    """tracemalloc peak of one call, in units of one ``n x n`` float64 array;
    what is alive before the call does not count."""
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (BUDGET_N * BUDGET_N * 8)


def test_allocation_budget():
    # the returned d plus the |d| buffer cubed for beta; the random array,
    # its symmetrized copy and d with one temporary; d_prime written into the
    # |d| buffer (its moments are taken only where the conditional claims
    # apply, n >= 1000); the triu buffer, mirrored in place, with triu's own mask.
    # numpy reports every data buffer to tracemalloc, so the peaks repeat
    # exactly from run to run
    gen = rngmod.derive_stream(5, 0xA11, BUDGET_N)
    E = validate_and_symmetrize(gen.standard_normal((BUDGET_N, BUDGET_N)), symmetrize=True)
    # a symmetric input with +-0.0 entries off the diagonal: the mirrored
    # triangle reads -0.0 as 0.0, as the triangle plus its transpose does
    signed = E.entries.copy()
    signed[0, 1] = signed[1, 0] = -0.0
    signed[2, 5] = signed[5, 2] = 0.0
    assert bits(validate_and_symmetrize(signed).entries) == bits(
        validate_and_symmetrize_chained(signed)
    )
    assert peak_arrays(validate_and_symmetrize, signed) <= 1.15
    D = standardize(E)
    assert peak_arrays(moments, E) <= 2.05
    assert peak_arrays(random_centered, BUDGET_N, gen) <= 3.05
    assert peak_arrays(truncate, D) <= 1.3
