import math

import numpy as np
import pytest
import scipy.stats as st

from invclt import _kernels, rng as rngmod
from invclt.errors import InputError
from invclt.involutions import (
    choice_highs,
    double_factorial,
    draw_choices,
    enumerate_involutions,
    exact_w_distribution,
    involution_matrix,
    sample_y_values,
)

from conftest import (
    assert_involution,
    canonical_positions,
    from_cycles,
    rand_centered,
    rand_symmetric,
    rank_of,
    y_value,
)
from oracles import sample_involutions


def enumerated(n):
    """All pairing orders of ``enumerate_involutions(n)``, blocks concatenated."""
    return np.concatenate(list(enumerate_involutions(n)))


class TestEnumeration:
    def test_n2(self):
        assert enumerated(2).tolist() == [[0, 1]]
        assert _kernels.images_of(enumerated(2)).tolist() == [[1, 0]]

    def test_n4_canonical_order(self):
        out = (_kernels.images_of(enumerated(4)) + 1).tolist()
        assert out == [[2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]]

    def test_n8_count(self):
        assert sum(len(block) for block in enumerate_involutions(8)) == 105

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_double_factorial_counts(self, n):
        assert sum(len(block) for block in enumerate_involutions(n)) == double_factorial(n - 1)

    def test_all_valid(self):
        for n in (4, 6, 8):
            for images in _kernels.images_of(enumerated(n)):
                assert_involution(images)

    def test_cap(self):
        # checked at the call, before any block is asked for
        with pytest.raises(InputError, match="n=18 exceeds enumeration cap"):
            enumerate_involutions(18)

    def test_odd(self):
        with pytest.raises(InputError, match="need even n >= 2"):
            enumerate_involutions(5)

    def test_matrix_matches_enumeration(self):
        for n in range(2, 12, 2):
            assert np.array_equal(enumerated(n), _kernels.pairing_order(involution_matrix(n)))

    def test_rank_agrees_with_canonical_position(self):
        for pos, images in enumerate(_kernels.images_of(enumerated(6))):
            assert rank_of(images) == pos

    def test_matrix_row_r_has_rank_r(self):
        mat = involution_matrix(10)
        assert mat.shape == (945, 10)
        assert [rank_of(row) for row in mat] == list(range(945))

    def test_matrix_cap_fires_before_decoding(self, monkeypatch):
        decoded = []
        monkeypatch.setattr(_kernels, "match_pairs", lambda choices, n: decoded.append(n))
        with pytest.raises(InputError, match="n=14 exceeds involution matrix cap"):
            involution_matrix(14)
        assert decoded == []

    def test_n16_is_decoded_in_blocks(self, monkeypatch):
        from invclt.arrays import standardize
        from invclt.bounds import lower_bound_array

        decoded = []
        decode = _kernels.match_pairs

        def recording(choices, n):
            decoded.append(len(choices))
            return decode(choices, n)

        monkeypatch.setattr(_kernels, "match_pairs", recording)
        total = double_factorial(15)
        # the call decodes nothing; each block is decoded when it is asked for
        blocks = enumerate_involutions(16)
        assert decoded == []
        first = next(blocks)
        assert decoded == [len(first)] and 0 < len(first) < total
        assert first.shape[1] == 16 and first.dtype == np.uint8
        decoded.clear()
        # the +-1 lattice array has few atoms, so the pass is mostly decoding
        dist = exact_w_distribution(standardize(lower_bound_array(16)))
        assert dist.total == sum(decoded) == total
        assert max(decoded) <= total // 30


class TestDrawChoices:
    @pytest.mark.parametrize("n", [4, 24, 196, 258, 1000])
    def test_digits_in_range(self, n):
        choices = draw_choices(n, 2_000, rngmod.derive_stream(16, n))
        assert choices.shape == (2_000, n // 2)
        assert choices.dtype == np.min_scalar_type(n - 1)
        assert np.all(choices < choice_highs(n))

    def test_one_draw_is_the_rank_up_to_n20(self):
        # 19!! < 2**32, so the whole sequence is one group and its draw the rank
        choices = draw_choices(20, 500, rngmod.derive_stream(17, 1))
        ranks = rngmod.derive_stream(17, 1).integers(0, double_factorial(19), 500, dtype=np.uint32)
        highs = choice_highs(20).tolist()
        radices = [math.prod(highs[t + 1 :]) for t in range(10)]
        assert np.array_equal(choices.astype(np.int64) @ radices, ranks)

    # At n = 24 digits 0-7 share one draw (23*21*...*9 < 2**32) and 8-11 another.
    # Each test fails with probability 1e-4 on a correct sampler.
    @pytest.mark.parametrize("pair", [(6, 7), (7, 8)], ids=["in_group", "across_groups"])
    def test_n24_joint_chi_square(self, pair):
        m = 200_000
        s, t = pair
        highs = choice_highs(24)
        choices = draw_choices(24, m, rngmod.derive_stream(18, s)).astype(np.int64)
        cells = int(highs[s] * highs[t])
        counts = np.bincount(choices[:, s] * highs[t] + choices[:, t], minlength=cells)
        expected = m / cells
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < st.chi2.ppf(1.0 - 1e-4, cells - 1)


class TestSampling:
    def test_determinism(self):
        a = sample_involutions(8, 50, master_seed=42)
        b = sample_involutions(8, 50, master_seed=42)
        assert np.array_equal(a, b)
        for images in a:
            assert_involution(images)

    def test_n4_frequencies(self):
        # 0.005 is 5.8 standard deviations of each frequency: the binomial tails
        # give a false-failure probability of 6.3e-9 per cell, 1.9e-8 over three
        m = 300_000
        ranks = canonical_positions(sample_involutions(4, m, master_seed=123))
        counts = np.bincount(ranks, minlength=3)
        freqs = counts / m
        assert np.all(np.abs(freqs - 1.0 / 3.0) < 0.005)

    def test_n6_chi_square(self):
        # false-failure probability 1e-3 (the 0.999 chi-square quantile)
        m = 1_000_000
        ranks = canonical_positions(sample_involutions(6, m, master_seed=321))
        counts = np.bincount(ranks, minlength=15)
        expected = m / 15.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < st.chi2.ppf(0.999, 14)

    def test_thread_count_invariance(self):
        a = sample_involutions(10, 30_000, master_seed=7, threads=1)
        b = sample_involutions(10, 30_000, master_seed=7, threads=3)
        assert np.array_equal(a, b)

    # the lattice path of `lowerbound`: one index dtype each side of n = 256
    @pytest.mark.parametrize("n", [196, 258])
    def test_y_values_thread_invariance(self, n):
        entries = rand_symmetric(n, seed=n).entries
        m = 2 * rngmod.DEFAULT_CHUNK + 3_616  # three chunks
        a = sample_y_values(entries, m, master_seed=3, threads=1)
        b = sample_y_values(entries, m, master_seed=3, threads=2)
        assert a.shape == (m,) and np.array_equal(a, b)

    # sample_y_values sums Y off the decoded pairing orders, sample_involutions
    # scatters the same chunk streams into images; here Y is summed over the
    # images, entry by entry.  The lattice array's Y is a sum of integers, so
    # the two agree bit for bit; on a real-valued array they agree to the
    # rounding of a sum, relative to the sum of the absolute terms.
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [64, 196])
    def test_y_values_are_y_of_sampled_images(self, n, threads):
        from invclt.bounds import lower_bound_array

        m = rngmod.DEFAULT_CHUNK + 1_808  # two chunks
        kw = dict(master_seed=11, stream=5, threads=threads)
        images = sample_involutions(n, m, **kw)
        points = np.arange(n)
        lattice = lower_bound_array(n).entries
        want = lattice[points, images].sum(axis=1)
        assert np.array_equal(sample_y_values(lattice, m, **kw), want)
        entries = rand_centered(n, seed=n).entries
        terms = entries[points, images]
        got = sample_y_values(entries, m, **kw)
        assert np.all(np.abs(got - terms.sum(axis=1)) <= 1e-13 * np.abs(terms).sum(axis=1))

    def test_sampled_always_valid(self):
        for img in sample_involutions(12, 500, master_seed=5):
            assert_involution(img)


class TestYValue:
    # Y through y_batch on the pairing order against the image-row sum
    @staticmethod
    def y(entries, images):
        return float(_kernels.y_batch(entries, _kernels.pairing_order(images[None, :]))[0])

    def test_zero_array(self):
        assert self.y(np.zeros((4, 4)), from_cycles(4, [(1, 2), (3, 4)])) == 0.0

    def test_appendix_values(self, appendix4):
        assert self.y(appendix4.entries, from_cycles(4, [(1, 3), (2, 4)])) == 4.0
        assert self.y(appendix4.entries, from_cycles(4, [(1, 2), (3, 4)])) == 0.0

    def test_double_counted_cycles(self):
        E = rand_symmetric(6, seed=12)
        pi = from_cycles(6, [(1, 4), (2, 6), (3, 5)])
        expected = 2 * (E.entries[0, 3] + E.entries[1, 5] + E.entries[2, 4])
        assert self.y(E.entries, pi) == pytest.approx(expected, rel=1e-15)
        assert y_value(E.entries, pi) == pytest.approx(expected, rel=1e-15)


class TestExactDistribution:
    def test_appendix_atoms(self, appendix4_std):
        dist = exact_w_distribution(appendix4_std)
        root = np.sqrt(1.5)
        np.testing.assert_allclose(dist.values, [-root, 0.0, root], atol=1e-12)
        assert dist.counts.tolist() == [1, 1, 1]
        assert dist.total == 3

    def test_probs_sum_to_one(self):
        dist = exact_w_distribution(rand_centered(8, seed=13))
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert int(dist.counts.sum()) == dist.total == 105

    def test_support_bounded_by_involution_count(self):
        dist = exact_w_distribution(rand_centered(6, seed=14))
        assert len(dist.values) <= 15
        assert np.all(np.diff(dist.values) > 0)

    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_mean_zero_variance_one(self, n):
        dist = exact_w_distribution(rand_centered(n, seed=500 + n))
        mean = dist.probs @ dist.values
        assert abs(mean) < 1e-10
        assert abs(dist.probs @ (dist.values - mean) ** 2 - 1.0) < 1e-8

    def test_atom_merging(self):
        vals = np.array([0.0, 1.0, 1.0 + 5e-13, 2.0])
        from invclt.involutions import ATOM_MERGE_TOL, _merge_atoms

        dist = _merge_atoms(vals)
        assert len(dist.values) == 3
        assert dist.counts.tolist() == [1, 2, 1]

        def merge_loop(values, tol):
            # the sequential merge: join each distinct value within tol of the last
            vals, counts = np.unique(values, return_counts=True)
            out_v, out_c = [vals[0] * counts[0]], [int(counts[0])]
            for v, c, last in zip(vals[1:], counts[1:], vals[:-1]):
                if v - last <= tol:
                    out_v[-1] += v * c
                    out_c[-1] += int(c)
                else:
                    out_v.append(v * c)
                    out_c.append(int(c))
            return np.array(out_v) / out_c, out_c

        tol = ATOM_MERGE_TOL
        gen = rngmod.derive_stream(15, 1)
        # chains spaced tol/2 merge into one atom end to end
        chain = 1.0 + 0.5 * tol * np.arange(6)
        vals = np.concatenate([chain, chain + 1.0, [3.0, 3.0 + 2 * tol], chain[:3] - 2.0])
        vals = np.repeat(vals, gen.integers(1, 4, size=vals.size))
        dist = _merge_atoms(gen.permutation(vals))
        ref_v, ref_c = merge_loop(vals, tol)
        assert len(ref_c) == 5
        assert dist.counts.tolist() == ref_c
        assert dist.total == vals.size
        np.testing.assert_allclose(dist.values, ref_v, rtol=1e-15)

    def test_cap(self):
        with pytest.raises(InputError, match="n=18 exceeds enumeration cap"):
            exact_w_distribution(rand_centered(18, seed=1))


class TestInvolutionType:
    def test_roundtrip(self):
        # a matching is an image row or a pairing order: its two-cycles, in order
        images = from_cycles(4, [(1, 2), (3, 4)])
        assert (images + 1).tolist() == [2, 1, 4, 3]
        order = _kernels.pairing_order(images[None, :])
        assert order.tolist() == [[0, 1, 2, 3]]
        assert np.array_equal(_kernels.images_of(order)[0], images)
