"""Matrices of polynomials in one complex variable.

These represent the frequency-side families of convolution operators on the
cusp's zero Fourier mode: a differential operator whose action is a
polynomial in y*d/dy with constant matrix coefficients becomes a matrix
polynomial once y*d/dy is replaced by the spectral parameter.  Determinants
use fraction-free Bareiss elimination; roots come from companion-matrix
eigenvalues with a Newton polish.
"""

from dataclasses import dataclass, field
from itertools import combinations

import math

import numpy as np

from .errors import DegenerateOperatorError, InvalidInputError

_TRIM_RTOL = 1e-12
_CLUSTER_RADIUS = 1e-4
_ORDER_TOL = 1e-7

# ---------------------------------------------------------------------------
# scalar polynomial helpers (ascending coefficient arrays)
# ---------------------------------------------------------------------------


def ptrim(c, rtol=_TRIM_RTOL):
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        return np.zeros(1, dtype=complex)
    keep = np.nonzero(np.abs(c) > rtol * scale)[0]
    if keep.size == 0:
        return np.zeros(1, dtype=complex)
    return c[: keep[-1] + 1]


def padd(a, b):
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=complex)
    out[: len(a)] += a
    out[: len(b)] += b
    return out


def pmul(a, b):
    return np.convolve(a, b)


def pdivexact(a, b):
    """Divide polynomial a by b, assuming the division is exact.

    Used inside Bareiss elimination where divisibility is guaranteed
    algebraically; the remainder is checked against roundoff noise.
    """
    a = ptrim(a)
    b = ptrim(b)
    if len(b) == 1:
        if b[0] == 0:
            raise ZeroDivisionError("polynomial division by zero")
        return a / b[0]
    q, r = np.polydiv(a[::-1], b[::-1])
    scale = max(np.max(np.abs(a)), 1.0)
    if np.max(np.abs(r)) > 1e-9 * scale:
        raise ArithmeticError("inexact polynomial division in Bareiss step")
    return np.atleast_1d(q[::-1]).astype(complex)


def peval(c, lam):
    """Horner evaluation, vectorized over lam."""
    lam = np.asarray(lam)
    out = np.zeros_like(lam, dtype=complex)
    for ck in c[::-1]:
        out = out * lam + ck
    return out


def pderiv(c, k=1):
    c = np.asarray(c, dtype=complex)
    for _ in range(k):
        if len(c) == 1:
            return np.zeros(1, dtype=complex)
        c = c[1:] * np.arange(1, len(c))
    return c


def proots(c):
    c = ptrim(c)
    if len(c) == 1:
        return np.array([], dtype=complex)
    return np.roots(c[::-1])


def vanishing_order(c, lam0, tol=_ORDER_TOL):
    """Order of lam0 as a root of the polynomial c (0 if not a root)."""
    c = ptrim(c)
    scale = max(np.max(np.abs(c)) * max(1.0, abs(lam0)) ** (len(c) - 1), 1e-300)
    for k in range(len(c)):
        val = abs(peval(pderiv(c, k), lam0)) / math.factorial(k) if k else abs(
            peval(c, lam0)
        )
        if val > tol * scale:
            return k
    return len(c)


def _newton_polish(c, lam0, mult):
    """Polish a root of multiplicity ``mult`` by Newton on the deflated
    derivative (which has a simple root there)."""
    p = pderiv(c, mult - 1)
    dp = pderiv(p, 1)
    lam = lam0
    for _ in range(60):
        f = peval(p, lam)
        df = peval(dp, lam)
        if df == 0:
            break
        step = f / df
        lam = lam - step
        if abs(step) < 1e-15 * max(1.0, abs(lam)):
            break
    return lam


def cluster_roots(raw, radius=_CLUSTER_RADIUS):
    """Group nearly-coincident roots; returns list of (center, multiplicity)."""
    raw = sorted(raw, key=lambda z: (z.real, z.imag))
    groups = []
    for z in raw:
        placed = False
        for g in groups:
            if abs(z - g[0] / g[1]) < radius * max(1.0, abs(z)) * 10:
                g[0] += z
                g[1] += 1
                placed = True
                break
        if not placed:
            groups.append([z, 1])
    return [(g[0] / g[1], g[1]) for g in groups]


def polished_roots(c):
    """All roots of c with multiplicities, polished to ~1e-14."""
    c = ptrim(c)
    out = []
    for center, mult in cluster_roots(proots(c)):
        lam = _newton_polish(c, center, mult)
        if abs(lam.imag) < 1e-11 * max(1.0, abs(lam.real)):
            lam = complex(lam.real, 0.0)
        out.append((lam, mult))
    return out


# ---------------------------------------------------------------------------
# matrix polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndicialFamily:
    """A matrix whose entries are polynomials in the spectral parameter.

    ``coeffs[k]`` is the matrix coefficient of lambda^k.  ``gram_in`` and
    ``gram_out`` carry the (diagonal) component inner products of the input
    and output bundles, needed so that the matrix adjoint represents the
    true L2 adjoint even when the component basis is not orthonormal.
    """

    coeffs: np.ndarray
    gram_in: np.ndarray = None
    gram_out: np.ndarray = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 3:
            raise InvalidInputError("coeffs must have shape (deg+1, n, m)")
        object.__setattr__(self, "coeffs", c)
        gi = self.gram_in if self.gram_in is not None else np.ones(c.shape[2])
        go = self.gram_out if self.gram_out is not None else np.ones(c.shape[1])
        object.__setattr__(self, "gram_in", np.asarray(gi, dtype=float))
        object.__setattr__(self, "gram_out", np.asarray(go, dtype=float))

    @property
    def shape(self):
        return self.coeffs.shape[1:]

    @property
    def degree(self):
        return self.coeffs.shape[0] - 1

    @property
    def is_square(self):
        return self.coeffs.shape[1] == self.coeffs.shape[2]

    def __call__(self, lam):
        """Evaluate at lam (scalar or array); returns (..., n, m)."""
        lam = np.asarray(lam, dtype=complex)
        out = np.zeros(lam.shape + self.shape, dtype=complex)
        for ck in self.coeffs[::-1]:
            out = out * lam[..., None, None] + ck
        return out

    def entry(self, i, j):
        return ptrim(self.coeffs[:, i, j])

    @staticmethod
    def identity(n):
        return IndicialFamily(np.eye(n)[None, :, :])

    @staticmethod
    def from_entries(entries, **kw):
        """Build from a nested list of ascending coefficient sequences."""
        n = len(entries)
        m = len(entries[0])
        deg = max(len(np.atleast_1d(entries[i][j])) for i in range(n) for j in range(m))
        c = np.zeros((deg, n, m), dtype=complex)
        for i in range(n):
            for j in range(m):
                e = np.atleast_1d(np.asarray(entries[i][j], dtype=complex))
                c[: len(e), i, j] = e
        return IndicialFamily(c, **kw)

    def compose(self, other):
        """Matrix product of families: (self @ other)(lam) = self(lam) other(lam)."""
        if self.shape[1] != other.shape[0]:
            raise InvalidInputError(
                f"rank mismatch in composition: {self.shape} @ {other.shape}"
            )
        da, db = self.degree, other.degree
        out = np.zeros((da + db + 1, self.shape[0], other.shape[1]), dtype=complex)
        for i in range(da + 1):
            for j in range(db + 1):
                out[i + j] += self.coeffs[i] @ other.coeffs[j]
        return IndicialFamily(out, gram_in=other.gram_in, gram_out=self.gram_out)

    def __add__(self, other):
        if self.shape != other.shape:
            raise InvalidInputError("shape mismatch in family sum")
        n = max(self.coeffs.shape[0], other.coeffs.shape[0])
        c = np.zeros((n,) + self.shape, dtype=complex)
        c[: self.coeffs.shape[0]] += self.coeffs
        c[: other.coeffs.shape[0]] += other.coeffs
        return IndicialFamily(c, gram_in=self.gram_in, gram_out=self.gram_out)

    # -- determinant machinery ------------------------------------------------

    def _entry_table(self):
        n, m = self.shape
        return [[self.entry(i, j) for j in range(m)] for i in range(n)]

    def determinant(self):
        """Determinant polynomial via fraction-free Bareiss elimination."""
        if not self.is_square:
            raise InvalidInputError("determinant requires a square family")
        n = self.shape[0]
        a = self._entry_table()
        sign = 1.0
        prev = np.ones(1, dtype=complex)
        for k in range(n - 1):
            if np.max(np.abs(a[k][k])) == 0.0:
                pivot = next(
                    (r for r in range(k + 1, n) if np.max(np.abs(a[r][k])) > 0), None
                )
                if pivot is None:
                    return np.zeros(1, dtype=complex)
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = padd(pmul(a[k][k], a[i][j]), -pmul(a[i][k], a[k][j]))
                    a[i][j] = pdivexact(num, prev)
                a[i][k] = np.zeros(1, dtype=complex)
            prev = ptrim(a[k][k])
        return ptrim(sign * a[n - 1][n - 1])

    def maximal_minors(self):
        """Determinants of all maximal square submatrices (tall case: row
        subsets of size ncols)."""
        n, m = self.shape
        if n < m:
            raise InvalidInputError("maximal minors implemented for tall families")
        out = []
        for rows in combinations(range(n), m):
            sub = IndicialFamily(self.coeffs[:, rows, :])
            out.append(sub.determinant())
        return out

    def adjugate(self):
        """Adjugate family (cofactor transpose), via minors."""
        if not self.is_square:
            raise InvalidInputError("adjugate requires a square family")
        n = self.shape[0]
        adj = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                rows = [r for r in range(n) if r != i]
                cols = [c for c in range(n) if c != j]
                sub = IndicialFamily(self.coeffs[:, rows, :][:, :, cols])
                minor = sub.determinant() if n > 1 else np.ones(1, dtype=complex)
                adj[j][i] = ((-1) ** (i + j)) * minor
        return IndicialFamily.from_entries(adj)


@dataclass(frozen=True)
class IndicialRoot:
    """A point where the family fails to be (left-)invertible."""

    lam: complex
    multiplicity: int
    residue_rank: int = None
    pole_order: int = None


def _family_newton_polish(fam, lam0, mult):
    """Refine a determinant root directly on the evaluated family.

    Newton's update for det(fam(lam)) uses the logarithmic derivative
    tr(fam(lam)^{-1} fam'(lam)), which stays well-conditioned near the root
    and is independent of the elimination-produced determinant
    coefficients (whose roundoff limits the companion roots to ~1e-12).
    """
    dcoeffs = fam.coeffs[1:] * np.arange(1, fam.coeffs.shape[0])[:, None, None]
    lam = lam0
    for _ in range(80):
        a = fam(lam)
        da = np.zeros_like(a)
        for k in range(dcoeffs.shape[0] - 1, -1, -1):
            da = da * lam + dcoeffs[k]
        try:
            trace = np.trace(np.linalg.solve(a, da))
        except np.linalg.LinAlgError:
            break
        if trace == 0:
            break
        step = mult / trace
        lam = lam - step
        if abs(step) < 1e-15 * max(1.0, abs(lam)):
            break
    if abs(lam - lam0) > 1e-6 * max(1.0, abs(lam0)):
        return lam0  # diverged; keep the companion estimate
    if abs(lam.imag) < 1e-11 * max(1.0, abs(lam.real)):
        lam = complex(lam.real, 0.0)
    return lam


def indicial_roots(fam, window=None):
    """All roots of the family with real part in ``window``.

    Square families: zeros of the Bareiss determinant, refined by Newton on
    the evaluated family.  Tall families (overdetermined operators): points
    where every maximal minor vanishes, with multiplicity the minimum
    vanishing order across minors.
    """
    if fam.is_square:
        det = fam.determinant()
        if len(det) == 1 and det[0] == 0:
            raise DegenerateOperatorError("determinant vanishes identically")
        roots = [
            IndicialRoot(_family_newton_polish(fam, lam, m), m)
            for lam, m in polished_roots(det)
        ]
    else:
        minors = [m for m in fam.maximal_minors()]
        nonzero = [m for m in minors if not (len(m) == 1 and m[0] == 0)]
        if not nonzero:
            raise DegenerateOperatorError("all maximal minors vanish identically")
        candidates = {}
        for m in nonzero:
            for lam, _ in polished_roots(m):
                key = (round(lam.real, 9), round(lam.imag, 9))
                candidates.setdefault(key, lam)
        roots = []
        for lam in candidates.values():
            mult = min(vanishing_order(m, lam) for m in nonzero)
            if mult >= 1:
                roots.append(IndicialRoot(lam, mult))
    if window is not None:
        lo, hi = window
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InvalidInputError("root search window must be finite")
        roots = [r for r in roots if lo <= r.lam.real <= hi]
    return sorted(roots, key=lambda r: (r.lam.real, r.lam.imag))


def adjoint_family(fam, d):
    """Family of the formal L2 adjoint on the cusp: conjugate-transpose
    composed with the substitution lam -> d - conj(lam), including the
    component Gram factors of non-orthonormal bases."""
    deg = fam.degree
    n, m = fam.shape
    binoms = np.zeros((deg + 1, deg + 1))
    for j in range(deg + 1):
        for k in range(j + 1):
            binoms[j, k] = math.comb(j, k) * (d ** (j - k)) * ((-1.0) ** k)
    out = np.zeros((deg + 1, m, n), dtype=complex)
    gi = np.diag(1.0 / fam.gram_in)
    go = np.diag(fam.gram_out)
    for k in range(deg + 1):
        acc = np.zeros((m, n), dtype=complex)
        for j in range(k, deg + 1):
            acc += binoms[j, k] * np.conj(fam.coeffs[j]).T
        out[k] = gi @ acc @ go
    return IndicialFamily(out, gram_in=fam.gram_out, gram_out=fam.gram_in)
