"""Score-array ingestion, validation, centering and standardization.

The central objects are a symmetric zero-diagonal score array ``E``, its
marginal-centered version ``ê`` (all row, column and grand sums vanish), and
the standardized array ``D = ê / sigma`` whose statistic
``W = sum_i d_{i,pi(i)}`` has mean 0 and variance 1 under a uniform
fixed-point-free involution ``pi``.

Closed forms used throughout (``e_{i+}``/``e_{+j}``/``e_{++}`` are row /
column / grand sums):

* mean      ``mu = e_{++} / (n-1)``
* variance  ``sigma^2 = 2/((n-1)(n-3)) * ((n-2)*sum e^2
  + e_{++}^2/(n-1) - 2*sum_i e_{i+}^2)``
* centering ``ê_ij = e_ij - e_{i+}/(n-2) - e_{+j}/(n-2)
  + e_{++}/((n-1)(n-2))`` off the diagonal, 0 on it
* variance via the centered array: ``sigma^2 = 2(n-2)/((n-1)(n-3)) * sum ê^2``
* third-moment rate quantity ``beta = sum_{i != j} |ê_ij / sigma|^3``

Every ``n x n`` stage writes into a buffer it owns (``out=``, in-place
operators).  The operations and their order are those of the plain
expressions, so the values are the same bit for bit.  The peak allocation
of each stage, in units of one ``n x n`` float64 array, is:

* ``validate_and_symmetrize``: 1 with ``symmetrize`` (``np.add`` then
  ``/=``), 1 without (the asymmetry buffer, freed before ``triu``; the
  triangle is mirrored in place);
* ``center_hat``: 1, the result;
* ``moments``: 2, the returned ``d`` and the ``|d|`` buffer that is cubed
  in place for ``beta`` (``_sigma2_formula``'s ``e*e`` is freed before);
* ``check_centered``: 1, the ``d*d`` of ``sigma2_from_hat``.

``max|x|`` is read as ``max(x.max(), -x.min())``, which allocates nothing.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegenerateArray, InputError

# sigma^2 at or below DEGENERACY_CUTOFF * max|e|^2 counts as zero: the exact
# theory assumes strict positivity, floating point needs a cutoff.
DEGENERACY_CUTOFF = 1e-14

SYMMETRY_TOL = 1e-9  # relative, against max|e|
ROW_SUM_TOL = 1e-9  # times n * max|entry|
VARIANCE_TOL = 1e-8  # |sigma_D^2 - 1| bound for standardized arrays


@dataclass(eq=False)
class SymmetricArray:
    """Exactly symmetric array with an exactly zero diagonal, n even >= 4."""

    n: int
    entries: np.ndarray


@dataclass(eq=False)
class CenteredArray:
    """Standardized array D with Var(W) = 1 and its beta = sum |d|^3."""

    n: int
    entries: np.ndarray
    beta: float


@dataclass
class MomentSummary:
    mu: float
    sigma2: float
    beta: float | None  # undefined (None) when sigma2 is treated as zero
    # the standardized entries d = ê / sigma behind beta, kept for
    # ``standardize`` (None with beta)
    d: np.ndarray | None = field(default=None, repr=False, compare=False)


def _as_matrix(raw) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"matrix entries are not numeric: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _max_abs(x: np.ndarray) -> float:
    """``float(np.abs(x).max())`` without the ``abs`` copy; the outer ``abs``
    only turns a ``-0.0`` maximum into ``0.0``."""
    return abs(float(max(x.max(), -x.min())))


def validate_and_symmetrize(raw, symmetrize: bool = False) -> SymmetricArray:
    """Validate a raw square matrix and return the exactly-symmetric array.

    With ``symmetrize`` the off-diagonal is replaced by ``(e_ij + e_ji)/2``
    and the diagonal by zero.  Without it, asymmetry and diagonal magnitude
    beyond ``SYMMETRY_TOL`` (relative to max|e|) raise; sub-tolerance noise is
    canonicalized by mirroring the upper triangle.
    """
    arr = _as_matrix(raw)
    if not np.isfinite(arr).all():
        raise InputError("matrix contains non-finite entries")
    n = arr.shape[0]
    if n % 2:
        raise InputError(f"n={n} is odd; no fixed-point-free involution exists")
    if n < 4:
        raise InputError(f"n={n} < 4")
    scale = _max_abs(arr)
    if symmetrize:
        out = np.add(arr, arr.T)
        out /= 2.0
    else:
        bound = SYMMETRY_TOL * max(scale, 1e-300)
        asym = _max_abs(np.subtract(arr, arr.T))
        if asym > bound:
            raise InputError(f"max |e_ij - e_ji| = {asym:.3e} exceeds {bound:.3e}")
        diag = float(np.abs(np.diag(arr)).max())
        if diag > bound:
            raise InputError(f"max |e_ii| = {diag:.3e} exceeds {bound:.3e}")
        # mirror the upper triangle in place; += 0.0 turns -0.0 into 0.0,
        # as the sum of the triangle and its transpose does
        out = np.triu(arr, 1)
        for i in range(1, n):
            out[i, :i] = out[:i, i]
        out += 0.0
    np.fill_diagonal(out, 0.0)
    return SymmetricArray(n=n, entries=out)


def center_hat(E: SymmetricArray) -> np.ndarray:
    """Marginal centering ê: every marginal sum vanishes, the diagonal is
    exactly zero, and W - E[W] is unchanged."""
    n = E.n
    e = E.entries
    row = e.sum(axis=1)
    tot = row.sum()
    # e - (row_i + row_j)/(n-2) + tot/((n-1)(n-2)), in one buffer; grouping
    # the two marginal terms keeps the result bitwise symmetric
    hat = np.add(row[:, None], row[None, :])
    hat /= n - 2
    np.subtract(e, hat, out=hat)
    hat += tot / ((n - 1) * (n - 2))
    np.fill_diagonal(hat, 0.0)
    return hat


def _sigma2_formula(e: np.ndarray, n: int) -> float:
    row = e.sum(axis=1)
    tot = row.sum()
    sq = float((e * e).sum())
    return (2.0 / ((n - 1) * (n - 3))) * (
        (n - 2) * sq + tot * tot / (n - 1) - 2.0 * float((row * row).sum())
    )


def sigma2_from_hat(hat: np.ndarray) -> float:
    """Variance via the centered array: 2(n-2)/((n-1)(n-3)) * sum ê^2."""
    n = hat.shape[0]
    return 2.0 * (n - 2) / ((n - 1) * (n - 3)) * float((hat * hat).sum())


def moments(E: SymmetricArray) -> MomentSummary:
    n = E.n
    if n < 4:
        raise InputError(f"n={n} < 4")
    e = E.entries
    mu = float(e.sum()) / (n - 1)
    sigma2 = _sigma2_formula(e, n)
    scale = _max_abs(e)
    if sigma2 <= DEGENERACY_CUTOFF * scale * scale:
        return MomentSummary(mu=mu, sigma2=0.0, beta=None)
    d = center_hat(E)
    d /= np.sqrt(sigma2)
    cubes = np.abs(d)
    beta = float(np.power(cubes, 3, out=cubes).sum())
    return MomentSummary(mu=mu, sigma2=sigma2, beta=beta, d=d)


def standardize(E: SymmetricArray, summary: MomentSummary | None = None) -> CenteredArray:
    """Return D = ê / sigma; raises DegenerateArray when sigma^2 is zero.

    ``summary`` is ``moments(E)``, passed by a caller that holds it already.
    """
    if summary is None:
        summary = moments(E)
    if summary.beta is None:
        raise DegenerateArray("sigma^2 = 0: every centered entry vanishes")
    out = CenteredArray(n=E.n, entries=summary.d, beta=summary.beta)
    check_centered(out)
    return out


def check_centered(D: CenteredArray) -> dict:
    """Verify the standardized-array contract; raises on violation.

    Checks exact symmetry and zero diagonal, row sums below
    ``ROW_SUM_TOL * n * max|d|``, and ``|sigma^2 - 1| <= VARIANCE_TOL`` with
    sigma^2 from the centered-array variance formula; returns the row-sum
    error and sigma^2.
    """
    d = D.entries
    n = D.n
    if d.shape != (n, n):
        raise InputError("entries shape does not match n")
    if not np.array_equal(d, d.T):
        raise InputError("standardized array lost exact symmetry")
    if np.any(np.diag(d) != 0.0):
        raise InputError("standardized array has nonzero diagonal")
    scale = _max_abs(d)
    row_err = float(np.abs(d.sum(axis=1)).max())
    if row_err > ROW_SUM_TOL * n * max(scale, 1e-300):
        raise InputError(f"row sums fail to vanish: {row_err:.3e}")
    sigma2 = sigma2_from_hat(d)
    if abs(sigma2 - 1.0) > VARIANCE_TOL:
        raise InputError(f"variance of standardized array is {sigma2!r}, not 1")
    return {"row_err": row_err, "sigma2": sigma2}


# ---------------------------------------------------------------------------
# I/O: CSV (n rows of n comma-separated floats) and JSON {"n":…, "entries":…}
# ---------------------------------------------------------------------------


def _parse_csv_text(text: str) -> np.ndarray:
    rows = []
    for rec in csv.reader(io.StringIO(text)):
        if not rec or (len(rec) == 1 and not rec[0].strip()):
            continue
        try:
            rows.append([float(x) for x in rec])
        except ValueError as exc:
            raise InputError(f"bad CSV value: {exc}") from exc
    if not rows:
        raise InputError("empty CSV matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputError("ragged CSV matrix")
    return np.asarray(rows, dtype=np.float64)


def load_matrix(path: str | Path) -> np.ndarray:
    """Read a raw matrix from a ``.json`` or CSV file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if path.suffix.lower() == ".json":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad JSON in {path}: {exc}") from exc
        if not isinstance(obj, dict) or "entries" not in obj:
            raise InputError('JSON matrix must be {"n": int, "entries": [[...]]}')
        arr = _as_matrix(obj["entries"])
        # numpy reads true as 1.0 and "2" as 2.0; only a JSON number is an entry
        bad = [v for row in obj["entries"] for v in row if type(v) not in (int, float)]
        if bad:
            raise InputError(f"JSON matrix entries must be numbers, got {bad[0]!r}")
        if "n" in obj:
            n = obj["n"]
            if not isinstance(n, int) or isinstance(n, bool):
                raise InputError(f"JSON field n must be an integer, got {n!r}")
            if n != arr.shape[0]:
                raise InputError("JSON field n disagrees with entries shape")
        return arr
    return _as_matrix(_parse_csv_text(text))
