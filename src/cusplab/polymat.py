"""Matrices of polynomials in one complex variable.

These represent the frequency-side families of convolution operators on the
cusp's zero Fourier mode: a differential operator whose action is a
polynomial in y*d/dy with constant matrix coefficients becomes a matrix
polynomial once y*d/dy is replaced by the spectral parameter.

The zeros of a square family's determinant are the finite eigenvalues of
its block-companion pencil (Gohberg, Lancaster and Rodman, Matrix
Polynomials, 1982), found by shift and invert with numpy alone: at a point
sigma where the family is regular, each eigenvalue mu of (sigma b - a)^-1 b
gives the zero sigma - 1/mu, and mu = 0, split off with its Jordan chains
before the eigenvalue solve, is a zero at infinity.  Eigenvalues closer
than 1e-2 relative are linked into groups, and each group is counted by
the argument principle: the moments s_p = (1/2 pi i) \\oint (lam - c)^p
tr(P^-1 P')(lam) dlam, p = 0..k, on a circle around the group's centre c
are the power sums of the zeros inside (Delves and Lyness, Math. Comp. 21,
1967).  s_0 counts them and c + s_1/s_0 is their mean; when the count
equals the group's size k and every central power sum of order 2..k
vanishes, the group is one zero of order k (Newton's identities).
Otherwise the contour misses part of the group or holds distinct zeros,
and the group is linked again more tightly.  The trapezoidal circle is the
one ``residues`` uses for its Laurent data, and each root carries the
radius of its circle there.
"""

from dataclasses import dataclass
from functools import cached_property

import math

import numpy as np

from .errors import DegenerateOperatorError, InvalidInputError, NumericFailureError

# trapezoidal nodes on every contour, and the largest contour radius
_NODES = 64
_RADIUS = 1e-2
# eigenvalues this close, relative to max(1, |lam|), form one group
_LINK = 1e-2
# singular values of the shift-inverted pencil m = (sigma b - a)^-1 b at or
# below _PENCIL_RTOL ||m|| are eigenvalues at infinity; a family singular to
# _PENCIL_RTOL at both _GENERIC points is singular everywhere
_PENCIL_RTOL = 1e-12
_GENERIC = np.exp(1j * np.array([1.0, 2.0]))
# largest distance of a zero count from an integer, and of a group's
# central power sums from zero (see _one_zero)
_COUNT_TOL = 1e-6
_SPREAD_TOL = 1e-6
# sigma_min / sigma_max at or below which a family drops rank
_ROOT_SV_RTOL = 1e-6


def _contour_nodes(center, rad):
    """Trapezoidal nodes on the circle |lam - center| = rad: (angles, points)."""
    phi = 2.0 * np.pi * np.arange(_NODES) / _NODES
    return phi, center + rad * np.exp(1j * phi)


def _contour_moments(values, rad, phi, kmax):
    """Trapezoidal (1/2 pi i) \\oint (lam - center)^(k-1) g(lam) dlam for
    k = 1..kmax from samples g at _contour_nodes (sample axis first)."""
    n = phi.size
    return {
        k: np.tensordot(np.exp(1j * k * phi) * (rad**k) / n, values, axes=(0, 0))
        for k in range(1, kmax + 1)
    }


def _sv_ratio(a):
    """sigma_min / sigma_max of the matrix a (sigma_min if a vanishes)."""
    sv = np.linalg.svd(a, compute_uv=False)
    return sv[-1] / (sv[0] if sv[0] > 0 else 1.0)


def _link(z, tol):
    """Single-linkage groups of the points z (index arrays): chains of steps
    |z_i - z_j| <= tol max(1, |z_i|, |z_j|)."""
    size = np.maximum(1.0, np.maximum.outer(np.abs(z), np.abs(z)))
    reach = np.abs(z[:, None] - z) <= tol * size
    # squaring the boolean relation until it settles closes it transitively
    while not np.array_equal(reach @ reach, reach):
        reach = reach @ reach
    return [np.nonzero(row)[0] for row in np.unique(reach, axis=0)]


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

    def __post_init__(self):
        # a read-only copy: the roots are cached on the family
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 3:
            raise InvalidInputError("coeffs must have shape (deg+1, n, m)")
        c.flags.writeable = False
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

    # -- determinant zeros ----------------------------------------------------

    def _eigenvalues(self):
        """Finite eigenvalues of the block-companion pencil (a, b), whose
        determinant det(lam b - a) is det(self(lam)), by shift and invert
        at the first _GENERIC point where the family is regular (see the
        module docstring).  Splitting off the kernel of m by an orthonormal
        change of basis leaves m block upper triangular with a zero first
        block column, so the other eigenvalues are the remaining block's."""
        sigma = next((lam for lam in _GENERIC if _sv_ratio(self(lam)) > _PENCIL_RTOL), None)
        if sigma is None:
            raise DegenerateOperatorError("determinant vanishes identically")
        deg, n = self.degree, self.shape[0]
        size = n * max(deg, 1)
        a = np.eye(size, k=n, dtype=complex)
        b = np.eye(size, dtype=complex)
        a[-n:] = -np.hstack(list(self.coeffs[:-1])) if deg else -self.coeffs[0]
        b[-n:, -n:] = self.coeffs[-1] if deg else 0.0
        m = np.linalg.solve(sigma * b - a, b)
        tol = _PENCIL_RTOL * np.linalg.norm(m)
        # deflate the kernel of m, then the kernel of m on its complement,
        # until none is left: one pass per link of a Jordan chain at infinity
        while m.size:
            _, sv, vh = np.linalg.svd(m)
            rank = int(np.sum(sv > tol))
            if rank == sv.size:
                break
            m = vh[:rank] @ m @ vh[:rank].conj().T
        return sigma - 1.0 / np.linalg.eigvals(m)

    def _zero_moments(self, center, rad, kmax):
        """Power sums t_p, p = 0..kmax-1, of the zeros inside the circle of
        radius rad around center, taken about center in units of rad:
        (1/2 pi i) \\oint ((lam - center)/rad)^p tr(self^-1 self') dlam."""
        phi, lam = _contour_nodes(center, rad)
        deriv = IndicialFamily(self.coeffs[1:] * np.arange(1, self.degree + 1)[:, None, None])
        trace = np.trace(np.linalg.solve(self(lam), deriv(lam)), axis1=-2, axis2=-1)
        s = _contour_moments(trace, rad, phi, kmax)
        return np.array([s[p + 1] / rad**p for p in range(kmax)])

    def determinant(self):
        """Zeros of det(self(lam)) with their orders, [(lam, order), ...]
        sorted by (real, imaginary) part: the factored determinant
        polynomial without its constant factor."""
        if not self.is_square:
            raise InvalidInputError("determinant requires a square family")
        eig = self._eigenvalues()
        real = not np.any(self.coeffs.imag)
        zeros = []
        work = [(group, _LINK) for group in _link(eig, _LINK)]
        while work:
            group, tol = work.pop()
            center = np.mean(eig[group])
            rest = np.delete(eig, group)
            rad = min(_RADIUS, np.min(np.abs(rest - center), initial=np.inf) / 3.0)
            t = self._zero_moments(center, rad, group.size + 1)
            count = round(t[0].real)
            diagnostics = {
                "eigenvalues": [complex(z) for z in eig[group]],
                "count": complex(t[0]),
                "radius": rad,
            }
            if abs(t[0] - count) > _COUNT_TOL:
                raise NumericFailureError("non-integer zero count on a contour", diagnostics)
            if count != group.size or not _one_zero(t):
                # the contour misses part of the group, or holds distinct
                # zeros: link the group tighter
                if tol < np.finfo(float).eps:
                    raise NumericFailureError("cannot resolve the zeros of a group", diagnostics)
                work += [(group[sub], tol / 10.0) for sub in _link(eig[group], tol / 10.0)]
                continue
            lam = complex(center + rad * t[1] / t[0])
            # a real family's zeros pair with their conjugates: one zero
            # whose contour holds its conjugate is real
            if real and abs(lam.conjugate() - center) < rad:
                lam = complex(lam.real, 0.0)
            zeros.append((lam, count))
        return sorted(zeros, key=lambda z: (z[0].real, z[0].imag))

    @cached_property
    def _roots(self):
        """Every root of the family, found once (see ``indicial_roots``)."""
        n, m = self.shape
        if n < m:
            raise InvalidInputError("roots are defined for square and tall families")
        square = self.is_square
        zeros = (self if square else transpose_family(self).compose(self)).determinant()
        roots = []
        for i, (lam, k) in enumerate(zeros):
            gap = min((abs(z - lam) for j, (z, _) in enumerate(zeros) if j != i), default=np.inf)
            if not square:
                if _sv_ratio(self(lam)) > _ROOT_SV_RTOL:
                    continue
                if k % 2:
                    raise NumericFailureError(
                        "odd zero order of det(A^T A) at a rank drop of A",
                        {"lambda": lam, "order": k},
                    )
                k //= 2
            roots.append(IndicialRoot(lam, k, min(_RADIUS, gap / 3.0)))
        return tuple(roots)


def _one_zero(t):
    """Whether the power sums t_0..t_k of k zeros (see _zero_moments) have
    vanishing central power sums of order 2..k (see the module docstring)."""
    mean = t[1] / t[0]
    return all(
        abs(sum(math.comb(p, j) * t[j] * (-mean) ** (p - j) for j in range(p + 1)))
        <= _SPREAD_TOL * t[0].real
        for p in range(2, t.size)
    )


def transpose_family(fam):
    """Plain (non-conjugated) transpose, analytic in the parameter."""
    return IndicialFamily(np.swapaxes(fam.coeffs, 1, 2))


@dataclass(frozen=True)
class IndicialRoot:
    """A point where the family fails to be (left-)invertible, and the
    radius of its residue contour: the largest up to 1e-2 that keeps the
    denominator's other zeros three radii away."""

    lam: complex
    multiplicity: int
    radius: float


def indicial_roots(fam, window=None):
    """All roots of the family with real part in ``window``.

    Square families: the zeros of the determinant with their orders.  Tall
    families (overdetermined operators): the zeros of det(A^T A) (plain
    transpose) at which A itself drops rank, with half their order; the
    other zeros of det(A^T A) come from cancellation among the squared
    maximal minors (Cauchy-Binet), not from A.  Either determinant is the
    denominator whose zeros carry all poles of the (left-)inverse, and each
    root's contour radius keeps every other zero of it three radii away.
    The family finds its roots once; each call filters them.
    """
    if window is None:
        return list(fam._roots)
    lo, hi = window
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InvalidInputError("root search window must be finite")
    return [r for r in fam._roots if lo <= r.lam.real <= hi]


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
