"""Finite laws as step CDFs, and their distances from the standard normal.

``StepCDF`` is the one finite-law type and ``ecdf`` its one constructor.
Monte Carlo samples of W and the exact law, which passes the value of W at
every involution once (``exact_w_distribution``), both go through it, so
they share one atom rule (``ATOM_MERGE_TOL``).

Phi is evaluated here in numpy (``normal_cdf``, the cephes ``ndtr``
rational forms), once per step CDF: ``StepCDF.Phi`` holds it at every
jump, and the Kolmogorov distance, the L1 distance and ``cdf_rows`` all
read that array.  The Kolmogorov distance is evaluated exactly at the jump
points (both one-sided gaps).  The L1 distance is integrated piece by piece
in closed form: on each constant piece ``[a, b]`` at level ``c`` the
crossing of Phi with the level is ``a`` where ``Phi(a) >= c``, ``b`` where
``Phi(b) <= c``, and ``Phi^{-1}(c)`` on the few pieces between, taken from
the standard library (``statistics.NormalDist().inv_cdf``, Wichura's
AS241) one piece at a time.  The antiderivative
``int Phi = t Phi(t) + phi(t)`` handles every segment including the
unbounded tails, so no quadrature or truncation enters.
Intermediate L^p values are reported through the interpolation bound
``||f||_p^p <= ||f||_inf^{p-1} ||f||_1``.  The Simpson quadrature that
cross-checks ``l1_distance`` lives with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

# sorted distinct values within this step of each other are one atom: the
# rounding noise of sums of the same terms in different orders
ATOM_MERGE_TOL = 1e-12

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)

# cephes ndtr.c: with z = |x|/sqrt(2), erf(z) = z T(z^2)/U(z^2) for z < 1,
# erfc(z) = exp(-z^2) P(z)/Q(z) for 1 <= z < 8 and exp(-z^2) R(z)/S(z) above.
# Horner order, highest power first; the leading 1 of Q, S and U is written out.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)


def _horner(x, coefs):
    """sum_k coefs[k] x^(K-k) for an array x, in cephes ``polevl`` order."""
    y = x * coefs[0]
    y += coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


def normal_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT2PI


def normal_cdf(x) -> np.ndarray:
    """Phi(x), the standard normal CDF, elementwise (cephes ``ndtr``).

    With ``s = x/sqrt(2)``: ``(1 + erf(s))/2`` for ``|s| < 1``, else
    ``erfc(|s|)/2``, or one minus it for ``s > 0``, so the lower tail keeps
    its relative accuracy.  The absolute error is at most two ulps of the
    value.  Each branch runs on its own entries, updated in place: the
    temporaries cost more than the arithmetic.
    """
    x = np.asarray(x, dtype=np.float64)
    out = x.reshape(-1) * _SQRT1_2
    inner = np.abs(out) < 1.0
    si = out[inner]
    zz = np.square(si)
    y = _horner(zz, _ERF_T)
    y *= si
    y /= _horner(zz, _ERF_U)
    y *= 0.5
    y += 0.5
    outer = ~inner
    so = out[outer]
    out[inner] = y
    z = np.abs(so)
    # exp(-z^2) is 0 from z = 27.3 on; the cap keeps R and S finite
    np.minimum(z, 40.0, out=z)
    num = _horner(z, _ERFC_P)
    den = _horner(z, _ERFC_Q)
    far = z >= 8.0
    num[far] = _horner(z[far], _ERFC_R)
    den[far] = _horner(z[far], _ERFC_S)
    np.square(z, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z *= num
    z /= den
    z *= 0.5
    np.subtract(1.0, z, out=z, where=so > 0.0)
    out[outer] = z
    return out.reshape(x.shape)


@dataclass(eq=False)
class StepCDF:
    """Right-continuous step function: F(t) = cum[i] for xs[i] <= t < xs[i+1].

    ``Phi`` is the normal CDF at every jump, evaluated once here for all the
    distances.
    """

    xs: np.ndarray
    cum: np.ndarray
    Phi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.xs.size == 0:
            raise InputError("step CDF needs at least one jump")
        if np.any(np.diff(self.xs) <= 0):
            raise InputError("jump points must be strictly increasing")
        if np.any(np.diff(self.cum) < 0) or self.cum[-1] != 1.0:
            raise InputError("cumulative values must be nondecreasing and end at 1")
        self.Phi = normal_cdf(self.xs)


def ecdf(samples) -> StepCDF:
    """The finite law of ``samples``, each of weight 1/m: the one constructor
    of a ``StepCDF`` from values, sampled or enumerated.

    A run of sorted distinct values, each within ``ATOM_MERGE_TOL`` of the
    previous one, is one atom at the count-weighted mean of the run; an atom
    of a single distinct value keeps that value.  Jump heights are integer
    multiples of 1/m.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise InputError("empty sample")
    vals, counts = np.unique(arr, return_counts=True)
    near = np.diff(vals) <= ATOM_MERGE_TOL
    if near.any():
        starts = np.flatnonzero(np.concatenate(([True], ~near)))
        runs = np.add.reduceat(counts, starts)
        means = np.add.reduceat(vals * counts, starts) / runs
        vals = np.where(np.diff(starts, append=vals.size) > 1, means, vals[starts])
        counts = runs
    cum = np.cumsum(counts) / arr.size
    cum[-1] = 1.0
    return StepCDF(xs=vals, cum=cum)


def kolmogorov_distance(F: StepCDF) -> float:
    """sup_t |F(t) - Phi(t)|, exact: both gaps at every jump point."""
    upper = np.abs(F.cum - F.Phi)
    lower = np.abs(F.Phi - np.concatenate(([0.0], F.cum[:-1])))
    return float(max(upper.max(), lower.max()))


def _int_phi(t, Phi_t):
    """Antiderivative of Phi vanishing at -inf: t Phi(t) + phi(t)."""
    return t * Phi_t + normal_pdf(t)


def l1_distance(F: StepCDF) -> float:
    """int |F(t) - Phi(t)| dt, exact per piece including both tails.

    On a piece [a, b] with level c, Phi crosses c at a if Phi(a) >= c, at b
    if Phi(b) <= c, and else at ``Phi^{-1}(c)``, clipped into [a, b]; that
    point splits the piece into a part below c and a part above it (either
    part may be empty), each integrated through ``_int_phi``.  Only the
    pieces that Phi crosses, at most a few hundred of the 100k of an MC
    sample, call the scalar ``inv_cdf``; the others read the antiderivative
    at their ends.
    Every term integrates |F - Phi| >= 0, so numpy's pairwise sum is within
    about log2(pieces) * eps of the total, relative.  The measured resolution
    is coarser, about 1e-12 relative (one-ulp moves of 100k samples moved the
    value by up to 9e-13), so no bound across versions can be tighter.
    """
    from statistics import NormalDist  # not at module load: it costs each CLI start ~5 ms
    xs, Phi = F.xs, F.Phi
    big = _int_phi(xs, Phi)
    a, b, c = xs[:-1], xs[1:], F.cum[:-1]
    big_a, big_b = big[:-1], big[1:]
    at_a = Phi[:-1] >= c
    t = np.where(at_a, a, b)
    big_t = np.where(at_a, big_a, big_b)
    cross = ~at_a & (c < Phi[1:])
    tc = np.clip(list(map(NormalDist().inv_cdf, c[cross].tolist())), a[cross], b[cross])
    t[cross] = tc
    big_t[cross] = _int_phi(tc, normal_cdf(tc))
    middle = (c * (t - a) - (big_t - big_a)) + ((big_b - big_t) - c * (b - t))
    # below the first jump F = 0; above the last, int (1 - Phi) = phi - x (1 - Phi)
    upper_tail = normal_pdf(xs[-1]) - xs[-1] * (1.0 - Phi[-1])
    return float(big[0] + middle.sum() + upper_tail)


def lp_upper(linf: float, l1: float, p) -> float:
    """Interpolation bound (linf^{p-1} l1)^{1/p}; exact at p = 1 and p = inf."""
    if not (0.0 <= linf <= 1.0) or l1 < 0.0:
        raise InputError("need linf in [0,1] and l1 >= 0")
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise InputError(f"p={p} outside [1, inf]")
    if p == 1.0:
        return l1
    if math.isinf(p):
        return linf
    return (linf ** (p - 1.0) * l1) ** (1.0 / p)


def p_key(p) -> str:
    """The JSON key of exponent ``p``: ``"inf"`` or ``repr(float(p))``."""
    p = float(p)
    return "inf" if math.isinf(p) else repr(p)


def distance_report(F: StepCDF, p_list, m_samples: int | None = None) -> dict:
    """The distances of F from the normal as ``analyze`` prints them.

    ``lp_upper`` is keyed by ``p_key(p)``; ``m_samples`` is None for the
    exact law, and the mode follows from it.
    """
    linf = kolmogorov_distance(F)
    l1 = l1_distance(F)
    return {
        "linf": linf,
        "l1": l1,
        "lp_upper": {p_key(p): lp_upper(linf, l1, p) for p in p_list},
        "mode": "exact" if m_samples is None else "mc",
        "m_samples": m_samples,
    }


def cdf_rows(F: StepCDF) -> list[tuple[float, float, float]]:
    """(t, F(t), Phi(t)) at every jump, for external plotting."""
    return list(zip(F.xs.tolist(), F.cum.tolist(), F.Phi.tolist()))
