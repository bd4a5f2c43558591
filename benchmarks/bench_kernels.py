"""Benchmark the numba kernels against the pure-numpy fallback.

Run from the repo root:

    python3 benchmarks/bench_kernels.py           # full sizes
    python3 benchmarks/bench_kernels.py --quick   # smaller sizes

The dispatch backend follows INVCLT_NO_NUMBA; this script times both
implementations explicitly, so it reports a comparison regardless of the
flag (numba rows are skipped when numba is unavailable).

Before timing a kernel it asserts that the numpy kernel agrees with the loop
kernel (``_kernels._*_nb``): integer outputs exactly, float outputs to 1e-12
of the largest reference value.  The loop kernels are numba-compiled when
numba is present; otherwise they run as plain Python on a cut-down input.
"""

import argparse
import time

import numpy as np

from invclt import _kernels, rng as rngmod
from invclt.arrays import standardize, validate_and_symmetrize
from invclt.coupling import square_bias_table
from invclt.involutions import draw_choices, involution_matrix


def timeit(fn, *args, repeat=5):
    fn(*args)  # warm-up (and JIT compile for the numba path)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def assert_agree(name, got, ref, tol=1e-12):
    got = got if isinstance(got, tuple) else (got,)
    ref = ref if isinstance(ref, tuple) else (ref,)
    for g, r in zip(got, ref, strict=True):
        g, r = np.asarray(g), np.asarray(r)
        if np.issubdtype(r.dtype, np.integer):
            np.testing.assert_array_equal(g, r, err_msg=name)
        else:
            np.testing.assert_allclose(g, r, rtol=0.0, atol=tol * np.abs(r).max(), err_msg=name)


def bench(name, numba_fn, numpy_fn, loop_fn, args, small_args):
    # uncompiled, the loop kernel would take minutes on the full input
    check = args if _kernels._HAVE_NUMBA else small_args
    assert_agree(name, numpy_fn(*check), loop_fn(*check))
    t_np = timeit(numpy_fn, *args)
    if _kernels._HAVE_NUMBA:
        t_nb = timeit(numba_fn, *args)
        print(f"{name:<28} numba {t_nb*1e3:9.2f} ms   numpy {t_np*1e3:9.2f} ms   "
              f"speedup {t_np/t_nb:6.1f}x")
    else:
        print(f"{name:<28} numba       n/a      numpy {t_np*1e3:9.2f} ms")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    m = 20_000 if args.quick else 200_000
    n = 64 if args.quick else 128
    gen = rngmod.derive_stream(1, 1)
    choices = draw_choices(n, m, gen)
    print(f"match_pairs: {m} draws at n={n}")
    bench("match_pairs", _kernels.match_pairs, _kernels.match_pairs_fallback,
          _kernels._match_pairs_nb, (choices, n), (choices[:200], n))

    D = standardize(validate_and_symmetrize(gen.standard_normal((n, n)), symmetrize=True))
    images = _kernels.match_pairs_fallback(choices, n)
    bench("y_batch", _kernels.y_batch, _kernels.y_batch_fallback, _kernels._y_batch_nb,
          (D.entries, images), (D.entries, images[:2000]))

    quads = np.stack(
        [gen.permutation(n)[:4] for _ in range(m)], axis=0
    ).astype(np.int64)
    bench("case_terms", _kernels.case_terms, _kernels.case_terms_fallback,
          _kernels._case_terms_nb, (D.entries, images, quads),
          (D.entries, images[:2000], quads[:2000]))

    ng = 8 if args.quick else 10
    gen2 = rngmod.derive_stream(2, 2)
    Dg = standardize(
        validate_and_symmetrize(gen2.standard_normal((ng, ng)), symmetrize=True)
    )
    qs, probs = square_bias_table(Dg).support()
    invs = involution_matrix(ng)
    print(f"exact_gap: {invs.shape[0]} involutions x {qs.shape[0]} quadruples (n={ng})")
    bench("exact_gap", _kernels.exact_gap, _kernels.exact_gap_fallback,
          _kernels._exact_gap_nb, (Dg.entries, invs, qs, probs),
          (Dg.entries, invs[::5], qs, probs))


if __name__ == "__main__":
    main()
