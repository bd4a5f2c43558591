import math
import tracemalloc

import numpy as np
import pytest

from invclt import _kernels, rng as rngmod
from invclt.errors import InputError
from invclt.involutions import choice_highs, draw_choices, involution_matrix

from conftest import assert_involution, rand_centered, rank_of, y_value
from oracles import (
    _case_terms_loop,
    _exact_gap_loop,
    _seg_abs_integral_loop,
    seg_abs_integral,
    y_batch_loop,
)


def test_backend_reported():
    assert _kernels.backend() == "numpy"


# Each kernel is checked against a second, independent implementation:
# match_pairs (through images_of) against the canonical rank of its rows
# (``rank_of``), y_batch against ``y_value``, and case_terms and exact_gap
# against their plain-Python loop references (``oracles._*_loop``).


def random_matchings(n: int, m: int, seed: int) -> np.ndarray:
    """``m`` image rows built from random permutations, pairs in shuffled order."""
    gen = rngmod.derive_stream(seed, n)
    pairs = np.array([gen.permutation(n) for _ in range(m)]).reshape(m, n // 2, 2)
    images = np.empty((m, n), dtype=np.int64)
    rows = np.arange(m)[:, None]
    images[rows, pairs[:, :, 0]] = pairs[:, :, 1]
    images[rows, pairs[:, :, 1]] = pairs[:, :, 0]
    return images


class TestMatchPairs:
    # 256 is the largest n whose indices fit in uint8, 258 the smallest past it
    @pytest.mark.parametrize("n", [2, 4, 8, 14, 196, 256, 258])
    def test_rows_decode_to_their_ranks(self, n):
        # rank_of walks each row with a Python list; the choices' mixed-radix
        # value is the rank the pairing must reproduce.  From n = 36 on the rank
        # overflows int64, so it is built in Python ints here too.
        gen = rngmod.derive_stream(9, n)
        choices = draw_choices(n, 500 if n <= 14 else 50, gen)
        images = _kernels.images_of(_kernels.match_pairs(choices, n))
        highs = choice_highs(n).tolist()
        want = []
        for digits in choices.tolist():
            rank = 0
            for high, c in zip(highs, digits):
                rank = rank * high + c
            want.append(rank)
        assert [rank_of(row) for row in images] == want
        for row in images[:50]:
            assert_involution(row)

    @pytest.mark.parametrize("n", [2, 4, 14, 196, 256, 258])
    def test_pairing_order_round_trip(self, n):
        order = _kernels.match_pairs(draw_choices(n, 300, rngmod.derive_stream(13, n)), n)
        back = _kernels.pairing_order(_kernels.images_of(order))
        assert back.dtype == order.dtype == np.min_scalar_type(n - 1)
        assert np.array_equal(back, order)
        # image rows whose pairs were never in pairing order
        images = random_matchings(n, 300, seed=14)
        assert np.array_equal(_kernels.images_of(_kernels.pairing_order(images)), images)

    @pytest.mark.parametrize("n", [2, 8, 196, 258])
    def test_both_caller_layouts_agree(self, n):
        # draw_choices hands over the transposed view of narrow unsigned digits,
        # the enumeration (_rank_blocks) C-ordered int64 digits; n = 2 has no tail
        narrow = draw_choices(n, 300, rngmod.derive_stream(12, n))
        assert narrow.dtype == np.min_scalar_type(n - 1) and narrow.T.flags.c_contiguous
        wide = np.ascontiguousarray(narrow, dtype=np.int64)
        order = _kernels.match_pairs(narrow, n)
        assert np.array_equal(order, _kernels.match_pairs(wide, n))
        if n == 2:
            assert (order == [0, 1]).all()

    @pytest.mark.parametrize("m", [0, 3])
    def test_output_shape_and_dtype(self, m):
        choices = np.zeros((m, 5), dtype=np.int64)
        order = _kernels.match_pairs(choices, 10)
        assert order.dtype == np.uint8 and order.shape == (m, 10)
        images = _kernels.images_of(order)
        assert images.dtype == np.int64 and images.shape == (m, 10)

    def test_choice_ranges(self):
        assert choice_highs(8).tolist() == [7, 5, 3, 1]

    def test_smallest_first_semantics(self):
        # choice 0 at every step pairs consecutive indices
        choices = np.zeros((1, 3), dtype=np.int64)
        order = _kernels.match_pairs(choices, 6)
        assert order[0].tolist() == [0, 1, 2, 3, 4, 5]
        assert _kernels.images_of(order)[0].tolist() == [1, 0, 3, 2, 5, 4]
        # choice n-2t-2 pairs the smallest with the largest remaining
        choices = np.array([[4, 2, 0]], dtype=np.int64)
        order = _kernels.match_pairs(choices, 6)
        assert order[0].tolist() == [0, 5, 1, 4, 2, 3]
        assert _kernels.images_of(order)[0].tolist() == [5, 4, 3, 2, 1, 0]


class TestPartners:
    # 256 is the largest n whose points fit in uint8, so n = 258 reads a uint16 order
    @pytest.mark.parametrize("n", [2, 4, 10, 64, 196, 258])
    def test_matches_image_matrix(self, n):
        gen = rngmod.derive_stream(19, n)
        order = _kernels.match_pairs(draw_choices(n, 300, gen), n)
        points = gen.integers(0, n, size=(300, 4))
        got = _kernels.partners(order, points)
        assert got.dtype == np.int64 and got.shape == (300, 4)
        assert np.array_equal(got, _kernels.images_of(order)[np.arange(300)[:, None], points])


class TestYBatch:
    def test_rows_match_y_value(self):
        D = rand_centered(10, seed=70)
        imgs = involution_matrix(10)[:500]
        got = _kernels.y_batch(D.entries, _kernels.pairing_order(imgs))
        want = y_value(D.entries, imgs)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)

    # the sampling path hands y_batch the decoded order itself, uint8 then uint16
    @pytest.mark.parametrize("n", [196, 258])
    def test_decoded_orders_match_y_value(self, n):
        D = rand_centered(n, seed=n)
        order = _kernels.match_pairs(draw_choices(n, 40, rngmod.derive_stream(15, n)), n)
        got = _kernels.y_batch(D.entries, order)
        images = _kernels.images_of(order)
        want = y_value(D.entries, images)
        scale = np.abs(D.entries[np.arange(n), images]).sum(axis=1)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    # draw counts against the column block of y_batch at each n: one draw,
    # less than a block, a last block of one column and one of 17, and a
    # whole enumerate_involutions block (the largest call the package makes)
    @pytest.mark.parametrize("n", [6, 64, 196, 258])
    @pytest.mark.parametrize("kind", ["one", "part", "tail_1", "tail_17", "enum_block"])
    def test_sums_pairs_in_order_bit_for_bit(self, n, kind):
        block = _kernels._Y_BLOCK_INDICES // (n // 2)
        m = {"one": 1, "part": block // 3, "tail_1": 2 * block + 1,
             "tail_17": block + 17, "enum_block": 65536}[kind]
        if n == 258 and kind == "enum_block":
            m = 3 * block + 5  # keeps the uint16 decode of the draws small
        D = rand_centered(n, seed=n + 1)
        order = _kernels.match_pairs(draw_choices(n, m, rngmod.derive_stream(16, n, m)), n)
        want = y_batch_loop(D.entries, order)
        for layout in (order, np.ascontiguousarray(order)):
            got = _kernels.y_batch(D.entries, layout)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_scratch_is_one_column_block(self):
        # n = 196, one 8,192-draw chunk: the (98, 8192) int64 index of a
        # single gather took 6.25 MiB; the 3 MiB block buffer and the result
        # peak at 3.13 MiB.  numpy reports every data buffer to tracemalloc
        n = 196
        D = rand_centered(n, seed=17)
        order = _kernels.match_pairs(draw_choices(n, 8192, rngmod.derive_stream(17, n)), n)
        tracemalloc.start()
        try:
            _kernels.y_batch(D.entries, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2**20


class TestCaseTerms:
    def test_kernel_matches_loop_reference(self):
        D = rand_centered(12, seed=71)
        gen = rngmod.derive_stream(10, 1)
        imgs = _kernels.images_of(_kernels.match_pairs(draw_choices(12, 400, gen), 12))
        quads = np.array(
            [sorted(gen.choice(12, size=4, replace=False).tolist()) for _ in range(400)]
        )
        gen2 = rngmod.derive_stream(10, 2)
        perm = np.array([gen2.permutation(4) for _ in range(400)])
        quads = np.take_along_axis(quads, perm, axis=1)
        at_quads = imgs[np.arange(400)[:, None], quads]
        c1, t1, td1, de1 = _case_terms_loop(D.entries, at_quads, quads)
        a2, de2 = _kernels.case_terms(D.entries, at_quads, quads)
        np.testing.assert_allclose(a2, t1 - td1 + de1, rtol=0.0, atol=1e-13)
        assert np.array_equal(de1, de2)
        assert set(np.unique(c1)) <= set(range(1, 11))


class TestSegIntegral:
    def test_against_numerical_integration(self):
        gen = rngmod.derive_stream(11, 1)
        u = np.linspace(0.0, 1.0, 200_001)
        du = u[1] - u[0]
        for _ in range(25):
            a = float(gen.normal())
            c = float(gen.normal())
            if c == 0.0:
                continue
            exact = float(seg_abs_integral(np.array([a]), np.array([c]))[0])
            g = np.abs(a - u * c)
            grid = du * (0.5 * (g[0] + g[-1]) + g[1:-1].sum())
            assert abs(exact - grid) < 1e-8

    def test_same_sign_closed_form(self):
        # endpoints with one sign: the integral is |a - c/2|
        val = float(seg_abs_integral(np.array([3.0]), np.array([1.0]))[0])
        assert val == pytest.approx(2.5, rel=1e-15)

    def test_clip_form_matches_two_branch_loop(self):
        # the clip form |c|*(phi(t) - t + 1/2) at t = a/c on each side of, at
        # and just off the kinks t = 0 and t = 1, far out, and at random
        ratios = [0.0, 1.0, 1e-12, -1e-12, 1 - 1e-12, 1 + 1e-12, 0.5, -0.3, 2.0, 1e12, -1e12]
        scales = [1.0, -1.0, 3.7, -1e-9, 1e9]
        gen = rngmod.derive_stream(16, 1)
        a = np.concatenate([[t * c for t in ratios for c in scales], gen.normal(size=200_000)])
        c = np.concatenate([[c for _ in ratios for c in scales], gen.normal(size=200_000)])
        got = seg_abs_integral(a, c)
        loop = _seg_abs_integral_loop
        want = np.array([loop(x, y) for x, y in zip(a.tolist(), c.tolist())])
        assert np.all(np.abs(got - want) <= 1e-15 * want)


class TestExactGap:
    def test_kernel_matches_loop_reference(self):
        # every involution, as the kernel requires; the loop reference is
        # plain Python, so n = 8 keeps a fifth of the support, which folds to
        # several blocks of rows and a shorter last one
        from invclt.coupling import square_bias_table

        D6, D8 = rand_centered(6, seed=71), rand_centered(8, seed=72)
        q6, p6 = square_bias_table(D6).support()
        q8, p8 = square_bias_table(D8).support()
        q8, p8 = q8[::5], p8[::5]
        folded = len(_kernels.fold_orders(q8, p8, 8)[0])
        assert folded > 2 * _kernels._GAP_ROWS and folded % _kernels._GAP_ROWS != 0
        for D, quads, probs in ((D6, q6, p6), (D8, q8, p8)):
            invs = involution_matrix(D.n)
            a = _exact_gap_loop(D.entries, invs, quads, probs)
            b = _kernels.exact_gap(D.entries, invs, quads, probs)
            assert abs(a - b) < 1e-12

    def test_kernel_needs_every_involution(self):
        # the sum runs over the restrictions of Pi_n, so any other rows would
        # give a wrong mean: a subset, a row twice in place of another (the
        # right size), or a row that is not a fixed-point-free involution
        from invclt.coupling import square_bias_table

        D = rand_centered(8, seed=72)
        quads, probs = square_bias_table(D).support()
        invs = involution_matrix(8)
        twice = invs.copy()
        twice[1] = twice[0]
        fixed = invs.copy()
        fixed[3, [0, 1]] = fixed[3, [1, 0]]  # pi(0), pi(1) swapped: no longer an involution
        for bad in (invs[::5], invs[1:], np.concatenate([invs, invs[:1]]), twice, fixed):
            with pytest.raises(InputError, match="all 105 involutions"):
                _kernels.exact_gap(D.entries, bad, quads, probs)
        # the rows may come in any order
        ok = _kernels.exact_gap(D.entries, invs[::-1], quads, probs)
        assert abs(ok - _kernels.exact_gap(D.entries, invs, quads, probs)) < 1e-12

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_image_restrictions_follow_the_four_image_rule(self, n):
        # pi on the points 0..3: 3 perfect matchings of them, 6(n-4)(n-5)
        # restrictions with one internal pair and (n-4)(n-5)(n-6)(n-7) with
        # none, each shared by (n-5)!!, (n-7)!! and (n-9)!! involutions
        invs = involution_matrix(n)
        images, counts = _kernels.image_restrictions(invs)
        want, want_counts = np.unique(invs[:, :4], axis=0, return_counts=True)
        assert np.array_equal(images, want) and np.array_equal(counts, want_counts)
        internal = (images < 4).sum(axis=1)  # points whose partner is among 0..3

        def double_factorial(k):
            return math.prod(range(k, 0, -2))

        rule = {
            4: (3, double_factorial(n - 5)),
            2: (6 * (n - 4) * (n - 5), double_factorial(n - 7)),
            0: ((n - 4) * (n - 5) * (n - 6) * (n - 7), double_factorial(n - 9)),
        }
        assert set(internal) == set(rule)
        for inner, (size, each) in rule.items():
            assert (internal == inner).sum() == size
            assert set(counts[internal == inner]) == {each}
        assert len(images) == {8: 99, 10: 543, 12: 2019}[n]
        assert counts.sum() == len(invs)

    @pytest.mark.parametrize("n", [6, 8])
    def test_pairing_closed_form_matches_table(self, n):
        # case_terms against the ten-row table of the loop reference, on
        # every (involution, support quadruple), then restricted_a against
        # case_terms; the support rows come in all orders
        from invclt.coupling import square_bias_table

        D = rand_centered(n, seed=74 + n)
        quads, _ = square_bias_table(D).support()
        invs = involution_matrix(n)
        images = np.repeat(invs, len(quads), axis=0)
        all_quads = np.tile(quads, (len(invs), 1))
        at_quads = images[np.arange(len(images))[:, None], all_quads]
        _, t, tdag, delta_t = _case_terms_loop(D.entries, at_quads, all_quads)
        want = t - tdag + delta_t
        a, delta = _kernels.case_terms(D.entries, at_quads, all_quads)
        np.testing.assert_allclose(a, want, rtol=0.0, atol=1e-13)
        assert np.array_equal(delta, delta_t)
        # restricted_a, each restriction repeated by its count, gives every
        # row the values case_terms gives it over Pi_n, bit for bit
        _, delta_q, base = _kernels.quad_pairs(D.entries, quads)
        assert np.array_equal(np.tile(delta_q, len(invs)), delta_t)
        restrictions, counts = _kernels.image_restrictions(invs)
        blocks = _kernels.restricted_a(D.entries, quads, base, restrictions)
        a_r = np.hstack([block for _, block in blocks])
        assert a_r.shape == (len(restrictions), len(quads))
        a_pi = a.reshape(len(invs), len(quads))
        a_r = np.repeat(a_r, counts, axis=0)
        assert np.array_equal(np.sort(a_r, axis=0), np.sort(a_pi, axis=0))

    def test_pi_holds_at_most_one_pairing(self):
        # the premise of pairing_rule, which restricted_a applies once per
        # restriction, checked over every involution and every ordered
        # quadruple of distinct points at n = 8: two pairs of
        # different pairings share a point, so pi holds a pair of at most
        # one of {il|jk}, {ij|kl}, {ik|jl}, and the rule picks that pairing
        # whatever the order, or the row's own {ik|jl} when none is held
        import itertools

        n = 8
        invs = involution_matrix(n)
        quads = np.array(list(itertools.permutations(range(n), 4)))
        assert (len(invs), len(quads)) == (105, 1680)
        images = np.repeat(invs, len(quads), axis=0)
        q = np.tile(quads, (len(invs), 1))
        p = np.take_along_axis(images, q, axis=1)  # pi(I), pi(J), pi(K), pi(L)

        def holds(xy):
            return p[:, xy[0]] == q[:, xy[1]]

        ik, jl, ij, kl, il, jk = _kernels._PAIRS
        held = np.stack([holds(x) | holds(y) for x, y in ((il, jk), (ij, kl), (ik, jl))])
        assert held.sum(axis=0).max() == 1
        assert held.any(axis=0).any() and not held.any(axis=0).all()
        want = np.where(held.any(axis=0), held.argmax(axis=0), 2)
        assert np.array_equal(_kernels.pairing_rule(holds, [0, 1, 2]), want)


class TestFoldOrders:
    @pytest.mark.parametrize("n", [6, 8])
    def test_orders_share_the_integrand(self, n):
        # the premise of the fold: each order it merges gives the same delta,
        # base and a, bit for bit, on every (involution, support quadruple)
        from invclt.coupling import square_bias_table

        D = rand_centered(n, seed=80 + n)
        quads, _ = square_bias_table(D).support()
        invs = involution_matrix(n)

        def terms(rows):
            _, delta, base = _kernels.quad_pairs(D.entries, rows)
            stack = np.tile(rows, (len(invs), 1))
            a, _ = _kernels.case_terms(D.entries, invs[:, rows].reshape(-1, 4), stack)
            return delta, base, a

        delta, base, a = terms(quads)
        assert len(_kernels._ORDERS) == 4
        for order in _kernels._ORDERS[1:]:
            delta_o, base_o, a_o = terms(quads[:, order])
            assert np.array_equal(delta_o, delta)
            assert np.array_equal(base_o, base)
            assert np.array_equal(a_o, a)

    @pytest.mark.parametrize("n", [8, 10])
    def test_full_support_folds_to_a_quarter(self, n):
        from invclt.coupling import square_bias_table

        quads, probs = square_bias_table(rand_centered(n, seed=90 + n)).support()
        rows, weights = _kernels.fold_orders(quads, probs, n)
        assert 4 * len(rows) == len(quads)
        assert np.array_equal(rows[:, 0], rows.min(axis=1))
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert abs(weights.sum() - probs.sum()) < 1e-15

    def test_open_subset_with_repeats_matches_loop(self):
        # a shuffled subset that is not closed under the four orders, plus
        # one row repeated as is and one in another order of its orbit
        from invclt.coupling import square_bias_table

        D = rand_centered(8, seed=96)
        quads, probs = square_bias_table(D).support()
        gen = rngmod.derive_stream(12, 1)
        keep = gen.permutation(len(quads))[:300]
        quads, probs = quads[keep], probs[keep]
        quads = np.concatenate([quads, quads[[0]], quads[[1]][:, [2, 3, 0, 1]]])
        probs = np.concatenate([probs, probs[[0, 1]]])
        rows, _ = _kernels.fold_orders(quads, probs, 8)
        assert len(rows) < len(quads) and 4 * len(rows) != len(quads)
        invs = involution_matrix(8)
        a = _exact_gap_loop(D.entries, invs, quads, probs)
        b = _kernels.exact_gap(D.entries, invs, quads, probs)
        assert abs(a - b) < 1e-12

    def test_matches_unfolded_sum_at_n10(self):
        # case_terms on every (involution, support quadruple), a block of
        # involutions at a time, through the segment integral
        from invclt.coupling import square_bias_table

        D = rand_centered(10, seed=97)
        quads, probs = square_bias_table(D).support()
        invs = involution_matrix(10)
        stack = np.tile(quads, (63, 1))
        per_pi = []
        for s in range(0, len(invs), 63):
            images = invs[s : s + 63, quads].reshape(-1, 4)
            a, delta = _kernels.case_terms(D.entries, images, stack)
            per_pi.append(seg_abs_integral(a, delta).reshape(63, -1) @ probs)
        want = float(np.concatenate(per_pi).sum() / len(invs))
        got = _kernels.exact_gap(D.entries, invs, quads, probs)
        assert abs(got - want) <= 1e-13 * want

    def test_full_support_evaluates_a_quarter_of_the_columns(self, monkeypatch):
        # dropping the fold would quadruple the work without changing the
        # value; each folded row is evaluated at the 99 distinct restrictions
        # of Pi_8 to four points, not at its 105 involutions
        from invclt.coupling import exact_gap, square_bias_table

        D = rand_centered(8, seed=98)
        shapes = []
        restricted_a = _kernels.restricted_a

        def counted(d, quads, base, images):
            for rows, a in restricted_a(d, quads, base, images):
                shapes.append(a.shape)
                yield rows, a

        monkeypatch.setattr(_kernels, "restricted_a", counted)
        exact_gap(D)
        rows = len(square_bias_table(D).support()[0]) // 4
        assert {r for r, _ in shapes} == {99}
        assert sum(c for _, c in shapes) == rows == 420

    def test_sets_short_of_rows_match_loop(self):
        # one folded row dropped from each 4-set: restricted_a relabels and
        # sums each row on its own, so a list with five rows per set, not
        # closed under relabelling the 4-set, still matches the loop
        from invclt.coupling import square_bias_table

        D = rand_centered(8, seed=99)
        quads, probs = _kernels.fold_orders(*square_bias_table(D).support(), 8)
        _, lead, per_set = np.unique(
            np.sort(quads, axis=1), axis=0, return_index=True, return_counts=True
        )
        assert len(lead) == math.comb(8, 4) and set(per_set) == {6}
        keep = np.setdiff1d(np.arange(len(quads)), lead)
        quads, probs = quads[keep], probs[keep]
        per_set = np.unique(np.sort(quads, axis=1), axis=0, return_counts=True)[1]
        assert len(per_set) == math.comb(8, 4) and set(per_set) == {5}
        invs = involution_matrix(8)
        a = _exact_gap_loop(D.entries, invs, quads, probs)
        b = _kernels.exact_gap(D.entries, invs, quads, probs)
        assert abs(a - b) < 1e-12
