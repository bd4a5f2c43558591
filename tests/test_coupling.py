import itertools
import json
import math

import numpy as np
import pytest
import scipy.stats as st

from invclt import _kernels, coupling, rng as rngmod
from invclt.arrays import CenteredArray
from invclt.bounds import gap_bound
from invclt.coupling import (
    cn,
    estimate_gap,
    exact_gap,
    exact_wstar_cdf,
    exact_zero_bias_moments,
    exhaustive_sweep,
    planted_completions,
    rewire,
    sample_quadruples_rejection,
    square_bias_table,
    stein_sweep,
    zero_bias_draws,
    zero_bias_gap_samples,
)
from invclt.errors import InputError, NoCaseMatched
from invclt.involutions import double_factorial, involution_matrix

from conftest import (
    alpha_compose,
    assert_involution,
    classify,
    from_cycles,
    pi_dagger,
    rand_centered,
    y_value,
)
from oracles import (
    _case_terms_loop,
    _decode_distinct_sort,
    _exact_gap_loop,
    _square_bias_proposals_per_key,
    sample_involutions,
    table_sample_per_key,
)


def _no_table(D):
    raise AssertionError(f"an n^4 table was built at n={D.n}")


# ``alpha_compose`` (the swap map on one image row, in conftest) is the
# oracle for the swap that stein_sweep applies to digit codes and
# zero_bias_draws to pi_dag; these tests check the oracle itself.
class TestAlphaCompose:
    def test_documented_example(self):
        pi = from_cycles(4, [(1, 2), (3, 4)])
        out = alpha_compose(pi, 0, 2)  # 1-based (1, 3)
        assert (out + 1).tolist() == [3, 4, 1, 2]  # (13)(24)

    def test_existing_cycle_is_noop(self):
        pi = from_cycles(4, [(1, 2), (3, 4)])
        assert np.array_equal(alpha_compose(pi, 0, 1), pi)

    def test_plants_cycles_and_preserves_rest(self):
        n = 10
        i, j = 2, 7
        for pi in sample_involutions(n, 50, master_seed=1, stream=10):
            out = alpha_compose(pi, i, j)
            assert_involution(out)
            assert out[i] == j
            pi_i, pi_j = pi[i], pi[j]
            assert out[pi_i] == pi_j
            untouched = [x for x in range(n) if x not in (i, j, pi_i, pi_j)]
            assert np.array_equal(out[untouched], pi[untouched])


class TestSteinPair:
    def test_difference_formula_definitional(self):
        # the sweep reads W' off the composed code; the object route rebuilds
        # every composed involution and sums it directly
        D = rand_centered(6, seed=21)
        d = D.entries
        for pi in involution_matrix(6):
            for i in range(6):
                for j in range(6):
                    if i == j:
                        continue
                    pi_i, pi_j = pi[i], pi[j]
                    formula = 2.0 * (d[i, pi_i] + d[j, pi_j] - (d[i, j] + d[pi_i, pi_j]))
                    prime = alpha_compose(pi, i, j)
                    assert abs(y_value(d, pi) - y_value(d, prime) - formula) <= 1e-12
        for n, seed in ((6, 21), (8, 22)):
            assert stein_sweep(rand_centered(n, seed=seed))[3] <= 1e-12

    @pytest.mark.parametrize("n", [6, 8])
    def test_linearity_and_second_moment(self, n):
        D = rand_centered(n, seed=23 + n)
        lin_err, m2, _, _ = stein_sweep(D)
        assert lin_err <= 1e-12
        assert abs(m2 - 8.0 / n) <= 1e-12

    def test_exchangeability_exact_counts(self):
        D = rand_centered(6, seed=25)
        assert stein_sweep(D)[2] == 0


class TestSquareBiasTable:
    def test_c6(self):
        assert cn(6) == pytest.approx(1.0 / 150.0, rel=1e-15)

    def test_repeated_index_weight_zero(self):
        D = rand_centered(6, seed=26)
        weight = square_bias_table(D).weights.reshape((6,) * 4)
        assert weight[0, 0, 1, 2] == 0.0
        assert weight[3, 1, 3, 2] == 0.0

    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_normalization(self, n):
        for rep in range(3):
            D = rand_centered(n, seed=1000 + 10 * n + rep)
            assert abs(square_bias_table(D).raw_total - 1.0) <= 1e-10

    def test_swap_symmetries_exact(self):
        D = rand_centered(8, seed=27)
        weight = square_bias_table(D).weights.reshape((8,) * 4)
        quads = [(0, 1, 2, 3), (4, 2, 7, 5), (1, 6, 0, 3)]
        for i, j, k, l in quads:
            w = weight[i, j, k, l]
            assert weight[i, k, j, l] == w
            assert weight[j, i, l, k] == w

    @pytest.mark.parametrize("n", [6, 8])
    def test_weights_match_loop_build(self, n):
        # same grouping as the table: (d_ik + d_jl) - (d_ij + d_kl), then
        # (c_n * B) * B, so the in-place build must agree bit for bit
        for heavy in (False, True):
            D = rand_centered(n, seed=1100 + n, heavy=heavy)
            d = D.entries
            want = np.zeros(n**4)
            for i, j, k, l in itertools.permutations(range(n), 4):
                b = (d[i, k] + d[j, l]) - (d[i, j] + d[k, l])
                want[((i * n + j) * n + k) * n + l] = cn(n) * b * b
            assert np.array_equal(square_bias_table(D).weights, want)

    def test_support_probs_sum_to_one(self):
        D = rand_centered(8, seed=28)
        _, probs = square_bias_table(D).support()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestQuadrupleSampling:
    def test_deterministic(self):
        D = rand_centered(8, seed=29)
        table = square_bias_table(D)
        g1 = rngmod.derive_stream(3, 3)
        g2 = rngmod.derive_stream(3, 3)
        assert np.array_equal(table.sample(g1.random(50)), table.sample(g2.random(50)))
        assert np.array_equal(
            sample_quadruples_rejection(D, 50, g1), sample_quadruples_rejection(D, 50, g2)
        )

    def test_table_sample_is_per_key_inversion(self):
        # the sorted search must give, row for row, what an unsorted
        # searchsorted gives: shuffled keys, repeated keys, the ends of [0, 1)
        # and keys on the cumulative steps themselves
        D = rand_centered(8, seed=34)
        table = square_bias_table(D)
        gen = rngmod.derive_stream(14, 8)
        keys = gen.random(5000)
        us = np.concatenate(
            [
                keys,
                keys[:100],
                np.repeat(keys[100:110], 7),
                [0.0, 0.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 0.0)],
                table._cum[:: table._cum.size // 97] / table._cum[-1],
            ]
        )
        gen.shuffle(us)
        got = table.sample(us)
        assert np.array_equal(got, table_sample_per_key(table, us))
        perm = gen.permutation(us.size)
        assert np.array_equal(table.sample(us[perm]), got[perm])

    def test_decode_distinct_exhaustive_n8(self):
        # every ordered i != j, r3 < n - 2 and r4 < n - 3: the network agrees
        # with the full sort, and the 56 * 6 * 5 inputs map one to one onto
        # the 8 * 7 * 6 * 5 ordered distinct quadruples
        n = 8
        rows = np.array(
            [(i, j, r3, r4) for i, j in itertools.permutations(range(n), 2)
             for r3 in range(n - 2) for r4 in range(n - 3)]
        )
        got = coupling._decode_distinct(*rows.T)
        assert np.array_equal(got, _decode_distinct_sort(*rows.T))
        assert sorted(map(tuple, got.tolist())) == list(itertools.permutations(range(n), 4))

    def test_decode_distinct_random_n64(self):
        n = 64
        gen = rngmod.derive_stream(15, n)
        i = gen.integers(0, n, size=100_000)
        j = (i + gen.integers(1, n, size=i.size)) % n
        r3, r4 = gen.integers(0, [n - 2, n - 3], size=(i.size, 2)).T
        got = coupling._decode_distinct(i, j, r3, r4)
        assert np.array_equal(got, _decode_distinct_sort(i, j, r3, r4))
        assert got.min() >= 0 and got.max() < n
        s = np.sort(got, axis=1)
        assert np.all(s[:, 1:] != s[:, :-1])

    @pytest.mark.parametrize("n", [10, 64])
    def test_proposals_match_per_key_reference(self, n):
        # same quadruples and accept flags as the per-key reference, and the
        # same stream use: both generators go on with the same draws
        D = rand_centered(n, seed=1400 + n)
        g1, g2 = rngmod.derive_stream(16, n), rngmod.derive_stream(16, n)
        quads, accepted = coupling._square_bias_proposals(D.entries, 20_000, g1)
        want_quads, want_accepted = _square_bias_proposals_per_key(D.entries, 20_000, g2)
        assert np.array_equal(quads, want_quads)
        assert np.array_equal(accepted, want_accepted)
        assert np.array_equal(g1.random(8), g2.random(8))

    def test_table_frequencies_n6(self):
        D = rand_centered(6, seed=30)
        table = square_bias_table(D)
        quads, probs = table.support()
        m = 1_000_000
        gen = rngmod.derive_stream(4, 4)
        draws = table.sample(gen.random(m))
        codes = ((draws[:, 0] * 6 + draws[:, 1]) * 6 + draws[:, 2]) * 6 + draws[:, 3]
        ref = ((quads[:, 0] * 6 + quads[:, 1]) * 6 + quads[:, 2]) * 6 + quads[:, 3]
        counts = np.bincount(np.searchsorted(ref, codes), minlength=len(ref))
        # false-failure probability at most 2.4e-2, the union bound over the
        # 360 support bins of the exact binomial tails beyond 4 sigma + 1:
        # 6.3e-5 per bin where the normal tail holds, up to 2.7e-4 for the
        # bins with m*p < 1
        sigma = np.sqrt(m * probs * (1 - probs))
        assert np.all(np.abs(counts - m * probs) <= 4.0 * sigma + 1.0)

    def test_rejection_matches_table_n40(self):
        # the table is exact ground truth; bin the rejection draws and
        # compare with a one-sample chi-square at the 0.999 level
        D = rand_centered(40, seed=31)
        table = square_bias_table(D)
        quads, probs = table.support()
        bins = 128
        ref_codes = (
            ((quads[:, 0] * 40 + quads[:, 1]) * 40 + quads[:, 2]) * 40 + quads[:, 3]
        ) % bins
        bin_probs = np.bincount(ref_codes, weights=probs, minlength=bins)
        m = 200_000
        gen = rngmod.derive_stream(5, 5)
        draws = sample_quadruples_rejection(D, m, gen)
        codes = (
            ((draws[:, 0] * 40 + draws[:, 1]) * 40 + draws[:, 2]) * 40 + draws[:, 3]
        ) % bins
        counts = np.bincount(codes, minlength=bins)
        expected = m * bin_probs
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < st.chi2.ppf(0.999, bins - 1)

    @pytest.mark.parametrize("n", [8, 10])
    def test_rejection_matches_table_exact_bins(self, n):
        # one bin per support quadruple, those expected below 5 pooled into
        # one; a one-sample chi-square at the 0.999 quantile fails a correct
        # sampler with probability 1e-3
        D = rand_centered(n, seed=1200 + n)
        quads, probs = square_bias_table(D).support()
        m = 300_000
        draws = sample_quadruples_rejection(D, m, rngmod.derive_stream(12, n))
        codes = ((draws[:, 0] * n + draws[:, 1]) * n + draws[:, 2]) * n + draws[:, 3]
        ref = ((quads[:, 0] * n + quads[:, 1]) * n + quads[:, 2]) * n + quads[:, 3]
        pos = np.minimum(np.searchsorted(ref, codes), ref.size - 1)
        assert np.array_equal(ref[pos], codes)  # every draw is in the support
        counts = np.bincount(pos, minlength=ref.size)
        expected = m * probs
        small = expected < 5.0
        counts = np.append(counts[~small], counts[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < st.chi2.ppf(0.999, counts.size - 1)

    @pytest.mark.parametrize("n", [10, 64])
    @pytest.mark.parametrize("heavy", [False, True])
    def test_acceptance_rate_is_closed_form(self, n, heavy):
        # Lemma 3.3: every proposal is accepted with probability exactly
        # (n-1)/(4(n-3)); the accepted count lies outside the central 0.999
        # binomial interval with probability at most 1e-3
        D = rand_centered(n, seed=1300 + n, heavy=heavy)
        m = 200_000
        _, accepted = coupling._square_bias_proposals(
            D.entries, m, rngmod.derive_stream(13, n, heavy)
        )
        rate = (n - 1) / (4 * (n - 3))
        lo, hi = st.binom.ppf(5e-4, m, rate), st.binom.isf(5e-4, m, rate)
        assert lo <= np.count_nonzero(accepted) <= hi

    def test_unstandardized_array_rejected(self):
        # all zero: no pair carries proposal weight; scaled by 2: the
        # square-bias weights no longer form a normalized law
        gen = rngmod.derive_stream(7, 7)
        for d in (np.zeros((8, 8)), 2.0 * rand_centered(8, seed=33).entries):
            D = CenteredArray(n=8, entries=d, beta=float((np.abs(d) ** 3).sum()))
            with pytest.raises(InputError):
                sample_quadruples_rejection(D, 10, gen)
            with pytest.raises(InputError):
                square_bias_table(D)

    def test_rejection_only_support(self):
        D = rand_centered(10, seed=32)
        gen = rngmod.derive_stream(6, 6)
        draws = sample_quadruples_rejection(D, 500, gen)
        assert np.all(
            np.array([len({*q}) for q in draws.tolist()]) == 4
        )


# ``classify`` and ``pi_dagger`` (conftest) read one row off the batch calls
# ``coupling._cases`` and ``coupling.rewire``.
class TestClassifyAndDagger:
    def test_case7(self):
        pi = from_cycles(6, [(1, 2), (3, 4), (5, 6)])
        r1, r2, case = classify(pi, (0, 2, 1, 3))  # pi(1)=2, pi(3)=4 in 1-based
        assert (r1, r2, case) == (2, 0, 7)
        dag, ok = pi_dagger(pi, (0, 2, 1, 3))
        assert ok
        assert np.array_equal(dag, pi)

    def test_case1_documented_example(self):
        pi = from_cycles(6, [(1, 2), (3, 4), (5, 6)])
        quad = (0, 2, 1, 4)  # 1-based (1, 3, 2, 5)
        r1, r2, case = classify(pi, quad)
        assert (r1, r2, case) == (1, 0, 1)
        dag, ok = pi_dagger(pi, quad)
        assert ok
        assert (dag + 1).tolist() == [2, 1, 5, 6, 3, 4]  # cycles (12)(35)(46)

    def test_case10_all_distinct(self):
        pi = from_cycles(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
        quad = (0, 2, 4, 6)  # images 2,4,6,8 all off the quad
        r1, r2, case = classify(pi, quad)
        assert (r1, r2, case) == (0, 0, 10)
        dag, ok = pi_dagger(pi, quad)
        assert ok and dag[0] == 4 and dag[2] == 6

    def test_repeated_quad_rejected(self):
        # here (R1, R2) = (2, 1) under case 1: the consistency check of the
        # case table fires
        pi = from_cycles(6, [(1, 2), (3, 4), (5, 6)])
        with pytest.raises(NoCaseMatched):
            classify(pi, (0, 0, 1, 2))

    def test_random_closure(self, gen):
        n = 12
        images = sample_involutions(n, 200, master_seed=12)
        quads = np.array([gen.choice(n, size=4, replace=False) for _ in range(200)])
        dag, _, ok = rewire(images, quads)
        assert ok.all()
        for row, (i, j, k, l) in zip(dag, quads):
            assert_involution(row)
            assert row[i] == k and row[j] == l
        _, _, case = coupling._cases(quads.T, images[np.arange(200)[:, None], quads].T)
        assert np.all((1 <= case) & (case <= 10))

    def test_case_terms_kernel_agrees_with_object_route(self, gen):
        # T and T_dag summed over the touched set of the rewired rows against
        # the ten-row loop reference, and the pairing-rule integrand with it
        n = 10
        D = rand_centered(n, seed=33)
        d = D.entries
        z = zero_bias_draws(D, 300, gen)
        images, quads = z["pi"], z["quad"]
        case_k, t_k, tdag_k, delta_k = _case_terms_loop(d, images, quads)
        a_f, delta_f = _kernels.case_terms(d, images, quads)
        np.testing.assert_allclose(a_f, t_k - tdag_k + delta_k, rtol=0.0, atol=1e-13)
        assert np.array_equal(delta_f, delta_k)
        dag, touched, ok = rewire(images, quads)
        assert ok.all()
        idx = np.arange(n)
        t = np.where(touched, d[idx, images], 0.0).sum(axis=1)
        tdag = np.where(touched, d[idx, dag], 0.0).sum(axis=1)
        np.testing.assert_allclose(t, t_k, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(tdag, tdag_k, rtol=0.0, atol=1e-12)
        assert np.array_equal(z["case_id"], case_k)
        assert np.array_equal(z["t_dagger"], tdag)

    def test_closure_mask_catches_a_wrong_pairing(self, monkeypatch):
        # always pairing {ik|jl} breaks the rows where pi holds (I,L) or
        # (J,K): the mask must flag them in the sweep and in rewire
        monkeypatch.setattr(
            _kernels, "pairing_rule", lambda holds, opts: np.where(holds((0, 2)), opts[2], opts[2])
        )
        assert exhaustive_sweep(rand_centered(6, seed=37)).closure_failures > 0
        pi = from_cycles(6, [(1, 4), (2, 5), (3, 6)])
        quad = (0, 1, 2, 3)  # pi holds (I, L): case 3
        assert classify(pi, quad)[2] == 3
        assert not pi_dagger(pi, quad)[1]


class TestZeroBiasDraw:
    def test_draw_invariants(self, gen):
        n, m = 10, 300
        D = rand_centered(n, seed=34)
        d = D.entries
        z = zero_bias_draws(D, m, gen)
        pi, dag, ddag, u = z["pi"], z["pi_dagger"], z["pi_ddagger"], z["u"]
        assert np.array_equal(z["w_star"], u * z["w_dagger"] + (1.0 - u) * z["w_ddagger"])
        assert np.array_equal(z["w"], z["s"] + z["t"])
        assert np.array_equal(z["w_dagger"], z["s"] + z["t_dagger"])
        assert np.array_equal(z["w_ddagger"], z["s"] + z["t_ddagger"])
        assert np.abs(z["w"] - y_value(d, pi)).max() <= 1e-12
        assert np.abs(z["w_dagger"] - y_value(d, dag)).max() <= 1e-12
        assert np.abs(z["w_ddagger"] - y_value(d, ddag)).max() <= 1e-12
        i, j, k, l = z["quad"].T
        delta = 2.0 * (d[i, k] + d[j, l] - (d[i, j] + d[k, l]))
        assert np.all(delta != 0.0)
        assert np.abs((z["w_dagger"] - z["w_ddagger"]) - delta).max() <= 1e-12
        gap = z["t"] - (u * z["t_dagger"] + (1.0 - u) * z["t_ddagger"])
        assert np.abs((z["w"] - z["w_star"]) - gap).max() <= 1e-12
        r = np.arange(m)
        assert np.array_equal(dag[r, i], k) and np.array_equal(dag[r, j], l)
        assert np.array_equal(ddag[r, i], j) and np.array_equal(ddag[r, k], l)
        for row in r:
            quad = tuple(z["quad"][row].tolist())
            r12 = (int(z["r1"][row]), int(z["r2"][row]))
            assert (*r12, int(z["case_id"][row])) == classify(pi[row], quad)
            assert r12 not in ((2, 1), (1, 2))
            ref, ok = pi_dagger(pi[row], quad)
            assert ok and np.array_equal(ref, dag[row])
            assert np.array_equal(ddag[row], alpha_compose(dag[row], quad[0], quad[1]))
            touched = z["index_set"][row]
            assert set(np.flatnonzero(touched).tolist()) == {*quad, *pi[row, list(quad)].tolist()}
            # pi, dagger and ddagger agree off the touched set
            assert np.array_equal(pi[row, ~touched], dag[row, ~touched])
            assert np.array_equal(pi[row, ~touched], ddag[row, ~touched])

    @pytest.mark.parametrize("n", [8, 50])
    def test_gap_matches_case_terms_integrand(self, n, gen):
        # the audit columns' |W - W*|, summed over image rows, against the
        # MC gap's pairing-rule integrand |a - U delta| on the same rows
        D = rand_centered(n, seed=38)
        z = zero_bias_draws(D, 500, gen)
        a, delta = _kernels.case_terms(D.entries, z["pi"], z["quad"])
        gaps = np.abs(a - z["u"] * delta)
        scale = max(np.abs(col).max() for col in (a, delta, z["w"], z["w_dagger"], z["w_ddagger"]))
        assert np.abs(np.abs(z["w"] - z["w_star"]) - gaps).max() <= 1e-12 * scale

    def test_minimum_dimension(self, gen):
        D = rand_centered(6, seed=35)
        z = zero_bias_draws(D, 1, gen)
        assert z["pi"].shape == z["index_set"].shape == (1, 6)
        assert z["quad"].shape == (1, 4)
        assert z["case_id"].shape == (1,) and z["case_id"][0] in range(1, 11)
        with pytest.raises(InputError):
            zero_bias_draws(rand_centered(4, seed=35), 1, gen)
        with pytest.raises(InputError):
            zero_bias_draws(D, 0, gen)

    def test_json_dump(self, gen):
        D = rand_centered(8, seed=36)
        z = zero_bias_draws(D, 2, gen)
        rows = coupling.draw_json_rows(z)
        assert len(rows) == 2
        for r, obj in enumerate(rows):
            assert set(obj) == set(z) == {
                "pi",
                "quad",
                "case_id",
                "r1",
                "r2",
                "pi_dagger",
                "pi_ddagger",
                "u",
                "w",
                "w_dagger",
                "w_ddagger",
                "w_star",
                "s",
                "t",
                "t_dagger",
                "t_ddagger",
                "index_set",
            }
            assert sorted(obj["pi"]) == list(range(1, 9))
            for key in ("pi", "quad", "pi_dagger", "pi_ddagger"):
                assert obj[key] == (z[key][r] + 1).tolist()
            assert obj["index_set"] == (np.flatnonzero(z["index_set"][r]) + 1).tolist()
            # plain Python numbers only: float for the float columns, int for the rest
            for key, value in obj.items():
                want = float if z[key].dtype.kind == "f" else int
                if isinstance(value, list):
                    assert all(type(x) is want for x in value)
                else:
                    assert type(value) is want and value == z[key][r]
        json.dumps(rows)


class TestZeroBiasLaw:
    def test_construction_cdf_matches_definition(self):
        # the mixture-of-segments law produced by the construction must agree
        # with the CDF derived purely from E[W 1(W > t)] / Var(W)
        for n, seed in ((6, 54), (8, 55)):
            D = rand_centered(n, seed=seed)
            grid, f_con, f_def = exact_wstar_cdf(D)
            assert np.abs(f_con - f_def).max() < 1e-10
            assert f_con[0] == 0.0 and abs(f_con[-1] - 1.0) < 1e-12

    def test_sampled_wstar_matches_exact_law(self, gen):
        # False-failure probability at most 1e-3 + 3 (34/35)^20000 < 1.01e-3:
        # the DKW bound at confidence 0.999 for the KS step, and a union bound
        # over the cases for the second, whose exact probabilities at n = 8
        # are 4/35 (cases 1-6), 1/35 (7-9) and 8/35 (10).
        D = rand_centered(8, seed=56)
        grid, _, f_def = exact_wstar_cdf(D)
        m = 20_000
        draws = zero_bias_draws(D, m, gen)
        samples = draws["w_star"]
        cases = np.bincount(draws["case_id"], minlength=11)
        ecdf_vals = np.searchsorted(np.sort(samples), grid, side="right") / m
        ks = np.abs(ecdf_vals - f_def).max()
        slack = math.sqrt(math.log(2.0 / 0.001) / (2.0 * m))
        assert ks <= slack + 0.002
        # every rewiring case occurs at n = 8
        assert np.all(cases[1:] > 0)


class TestExactOracles:
    def test_marginal_uniformity_n6(self):
        rep = exhaustive_sweep(rand_centered(6, seed=37))
        assert rep.uniformity_max_dev == 0 and rep.closure_failures == 0
        assert rep.expected_completion_count == 15

    def test_marginal_uniformity_n8(self):
        rep = exhaustive_sweep(rand_centered(8, seed=38))
        assert rep.uniformity_max_dev == 0 and rep.closure_failures == 0
        assert rep.expected_completion_count == 35
        assert rep.p2_max_dev == 0

    @pytest.mark.parametrize("n", [6, 8])
    def test_image_laws_exact(self, n):
        # every (quad, pi(I), pi(J)) and (quad, pi(I), pi(J), pi(L)) count
        # matches its exact law, and no key of the three-image law is missing
        rep = exhaustive_sweep(rand_centered(n, seed=48 + n))
        assert rep.p2_max_dev == 0 and rep.p3_max_dev == 0

    def test_sweep_detects_a_biased_base_law(self, monkeypatch):
        # one matching counted twice, another never: each image law and the
        # completion counts must move off their exact values
        every = involution_matrix(8)
        biased = every.copy()
        biased[1] = every[0]
        monkeypatch.setattr(
            coupling, "involution_matrix", lambda n: biased if n == 8 else involution_matrix(n)
        )
        rep = exhaustive_sweep(rand_centered(8, seed=51))
        assert rep.uniformity_max_dev > 0
        assert rep.p2_max_dev > 0 and rep.p3_max_dev > 0

    @pytest.mark.parametrize("n", [6, 8])
    def test_planted_completions_per_support_quadruple(self, n):
        D = rand_centered(n, seed=44)
        quads, _ = square_bias_table(D).support()
        blocks = planted_completions(quads, n)
        assert blocks.shape == (quads.shape[0], double_factorial(n - 5), n)
        every = involution_matrix(n)
        for (i, j, k, l), block in zip(quads.tolist(), blocks):
            held = every[(every[:, i] == k) & (every[:, j] == l)]
            assert np.unique(block, axis=0).shape[0] == double_factorial(n - 5)
            assert np.array_equal(np.unique(block, axis=0), np.unique(held, axis=0))

    def test_sweep_caps(self):
        with pytest.raises(InputError, match="n=10 exceeds sweep cap"):
            exhaustive_sweep(rand_centered(10, seed=39))

    def test_zero_bias_moments_identities(self):
        D = rand_centered(8, seed=40)
        rows = exact_zero_bias_moments(D, k_max=4)
        k1 = rows[0]
        assert k1[0] == 1 and abs(k1[1] - 1.0) <= 1e-10 and abs(k1[2] - 1.0) <= 1e-10
        assert abs(rows[1][1] - rows[1][2]) < 1e-9  # E[W^3] = 2 E[W*]
        assert abs(rows[3][1] - rows[3][2]) < 1e-8  # E[W^5] = 4 E[(W*)^3]

    def test_exact_gap_matches_loop_reference(self):
        D = rand_centered(8, seed=41)
        g = exact_gap(D)
        quads, probs = square_bias_table(D).support()
        g_loop = _exact_gap_loop(D.entries, involution_matrix(8), quads, probs)
        assert abs(g - g_loop) <= 1e-12


class TestEstimateGap:
    def test_matches_exact_within_4_stderr(self):
        # false-failure probability 6.3e-5 (two-sided normal tail beyond 4),
        # asymptotically in the draws: the mean of 100,000 draws is normal by
        # the CLT, and se is estimated from the same draws
        D = rand_centered(8, seed=42)
        exact = exact_gap(D)
        mean, se = estimate_gap(D, 100_000, master_seed=4242)
        assert abs(mean - exact) <= 4.0 * se

    def test_deterministic(self):
        D = rand_centered(10, seed=43)
        a = estimate_gap(D, 20_000, master_seed=77)
        b = estimate_gap(D, 20_000, master_seed=77)
        assert a == b

    def test_single_draw_rejected(self):
        D = rand_centered(10, seed=43)
        with pytest.raises(InputError):
            estimate_gap(D, 1)

    def test_thread_invariance(self):
        D = rand_centered(10, seed=44)
        a = zero_bias_gap_samples(D, 30_000, master_seed=88, threads=1)
        b = zero_bias_gap_samples(D, 30_000, master_seed=88, threads=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [10, 20, 50])
    def test_below_gap_bound(self, n):
        # the mean coupling gap honors the explicit rate bound; the true mean
        # lies below it, so the false-failure probability is at most 3.2e-5 per
        # n (one-sided normal tail beyond 4, asymptotically in the draws), and
        # at most 9.5e-5 over the three n (union bound)
        D = rand_centered(n, seed=45 + n)
        mean, se = estimate_gap(D, 30_000, master_seed=99 + n)
        assert mean - 4.0 * se <= gap_bound(n, D.beta)

    @pytest.mark.parametrize("n", [10, 50])  # table path, rejection path
    def test_samples_match_loop_replay(self, n, monkeypatch):
        # the same stream, with the integrand from the ten-row loop
        D = rand_centered(n, seed=48)
        fast = zero_bias_gap_samples(D, 3_000, master_seed=112)

        def loop_terms(d, images, quads):
            _, t, tdag, delta = _case_terms_loop(d, images, quads)
            return t - tdag + delta, delta

        monkeypatch.setattr(_kernels, "case_terms", loop_terms)
        slow = zero_bias_gap_samples(D, 3_000, master_seed=112)
        # rounding scales with the terms, not with a gap near 0
        assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()

    def test_thread_invariance_above_cap(self):
        # rejection path, three chunks of rngmod.DEFAULT_CHUNK
        D = rand_centered(50, seed=49)
        m = 2 * rngmod.DEFAULT_CHUNK + 100
        a = zero_bias_gap_samples(D, m, master_seed=89, threads=1)
        b = zero_bias_gap_samples(D, m, master_seed=89, threads=2)
        assert np.array_equal(a, b)

    def test_rejection_path_used_above_cap(self, monkeypatch):
        monkeypatch.setattr(coupling, "square_bias_table", _no_table)
        D = rand_centered(50, seed=46)
        gaps = zero_bias_gap_samples(D, 2_000, master_seed=111)
        assert gaps.shape == (2_000,)
        assert np.all(gaps >= 0.0)

    def test_single_draw_rejection_and_full_object_above_cap(self, gen, monkeypatch):
        monkeypatch.setattr(coupling, "square_bias_table", _no_table)
        D = rand_centered(50, seed=47)
        z = zero_bias_draws(D, 1, gen)
        (quad,) = z["quad"].tolist()
        assert len(set(quad)) == 4
        assert z["case_id"][0] in range(1, 11)
        assert z["pi_dagger"][0, quad[0]] == quad[2]
