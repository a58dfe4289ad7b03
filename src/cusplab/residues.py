"""Residues of inverse indicial families and Fredholm index bookkeeping.

The inverse of a matrix polynomial is meromorphic, with its poles at the
zeros of the denominator: det A, or det(A^T A) for overdetermined (tall)
families, whose analytic left inverse (A^T A)^{-1} A^T is built with the
plain transpose so that meromorphy in the spectral parameter is preserved.
``indicial_roots`` takes those zeros with their orders once, and each root
carries its contour radius: the largest up to 1e-2 that keeps the other
zeros three radii away.  A root's order m as a zero of the denominator is
its multiplicity, or twice it for tall families.

Every residue quantity at a root comes from one trapezoidal contour
centred at the root, the quadrature that also counts the zeros.  The order
m bounds the pole order, so the contour returns A_{-1}..A_{-(m+1)}, and
A_{-(m+1)}, zero in exact arithmetic, measures the quadrature's own
roundoff.  That roundoff in A_{-k} scales like radius^k, so each A_{-k} is
compared in units of radius^(k-1) with one floor: 1e3 times the scaled
norm of A_{-(m+1)}, and at least 1e-14 of the largest scaled norm, plus
what an error of 10 eps max(1, |lam|) in the root's own position leaks
from A_{-1} into A_{-2}.  The pole order p is the largest k whose
scaled A_{-k} lies strictly above the floor: the order of a pole of the
inverse is its largest partial multiplicity, the index of the last nonzero
principal-part coefficient (Gohberg, Lancaster and Rodman, Matrix
Polynomials, 1982).  Ranks count singular values strictly above the same
floor: those of A_{-1}, and those of the block-Hankel matrix of the
principal part with block (k, i) divided by radius^(k+i).  That one SVD
gives the projector rank, and its kept left singular vectors give the
graded basis of the projector's range: the kernel elements at the root.

A move between two weight lines crosses the roots whose real part lies
strictly between them (``crossed_roots``); the index jump, the
cross-root correction and their reports all read that one list.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericFailureError
from .polymat import IndicialFamily, _contour_moments, _contour_nodes, indicial_roots

# the roundoff floor: multiples of the scaled norm of A_{-(m+1)} and of the
# largest scaled coefficient (see the module docstring)
_ROUNDOFF_FACTOR = 1e3
_FLOOR_RTOL = 1e-14
# a root's position is trusted to _LOCATION_RTOL max(1, |lam|)
_LOCATION_RTOL = 10.0 * np.finfo(float).eps
# a root this close to a point is that point itself
_SAME_ZERO = 1e-6
# index_jump refuses weight endpoints this close to a root line
_ROOT_GUARD = 1e-9


def meromorphic_inverse(fam):
    """Callable lam -> pointwise inverse (square) or analytic left inverse
    (tall)."""
    if fam.is_square:
        return lambda lam: np.linalg.inv(fam(lam))

    def left_inv(lam):
        a = fam(np.asarray(lam, dtype=complex))
        at = np.swapaxes(a, -1, -2)
        return np.linalg.solve(at @ a, at)

    return left_inv


def laurent_coefficients(fam, lam0, kmax, radius):
    """Principal-part Laurent coefficients {k: A_-k for k = 1..kmax} of the
    (left-)inverse of the family at lam0, by contour quadrature on the
    circle of the given radius."""
    phi, lam = _contour_nodes(lam0, radius)
    return _contour_moments(meromorphic_inverse(fam)(lam), radius, phi, kmax)


def _principal_part(fam, root):
    """(p, {k: A_-k for k = 1..m+1}, floor) from one contour of the root's
    radius centred at the root, where m is the root's vanishing order as a
    zero of the denominator, p the pole order and floor the roundoff floor
    in units of radius^(k-1) (see the module docstring)."""
    m = root.multiplicity * (1 if fam.is_square else 2)
    rad = root.radius
    laurent = laurent_coefficients(fam, root.lam, m + 1, rad)
    scaled = [np.linalg.norm(laurent[k], 2) / rad ** (k - 1) for k in range(1, m + 2)]
    # a centre delta off the pole moves scaled A_-1 into A_-2 times delta/rad
    location = _LOCATION_RTOL * max(1.0, abs(root.lam)) / rad * scaled[0]
    floor = max(_ROUNDOFF_FACTOR * scaled[m], _FLOOR_RTOL * max(scaled)) + location
    p = max((k for k in range(1, m + 1) if scaled[k - 1] > floor), default=0)
    if not p:
        # a zero of the denominator is always a pole of the (left-)inverse
        raise NumericFailureError(
            "no principal-part coefficient above the contour's roundoff floor",
            {"lambda": root.lam, "vanishing_order": m, "radius": rad, "floor": floor},
        )
    return p, laurent, floor


def _rank(a, floor):
    """Numerical rank of the matrix a: its singular values above floor."""
    return int(np.sum(np.linalg.svd(a, compute_uv=False) > floor))


def _root_at(fam, lam0):
    """The family's root within _SAME_ZERO of lam0, or None."""
    return next((r for r in indicial_roots(fam) if abs(r.lam - lam0) <= _SAME_ZERO), None)


def residue_rank(fam, lam0):
    """(rank of the residue matrix, pole order) at an indicial root."""
    root = _root_at(fam, lam0)
    if root is None:
        raise InvalidInputError(f"{lam0} is not an indicial root")
    p, laurent, floor = _principal_part(fam, root)
    return _rank(laurent[1], floor), p


def _hankel_block(p, laurent, rad):
    """Block-Hankel matrix H[k, i] = A_{-(k+i+1)} / rad^(k+i) (k+i < pole
    order p).

    Writing the residue convolution kernel as
    e^{lam0 (r-r')} sum_j A_{-j} (r-r')^{j-1}/(j-1)! and separating powers of
    r against moments of the input, the operator's range is exactly the set
    of profiles e^{lam0 r} sum_k c_k r^k whose coefficients c_k are
    rad^k / k! times the row blocks k of a vector in the column space of H;
    its dimension is the operator rank.
    """
    m, n = laurent[1].shape
    h = np.zeros((p * m, p * n), dtype=complex)
    for k in range(p):
        for i in range(p - k):
            h[k * m : (k + 1) * m, i * n : (i + 1) * n] = laurent[k + i + 1] / rad ** (k + i)
    return h


def _range_basis(p, laurent, floor, rad):
    """(q, tol): orthonormal basis q of the column space of the Hankel
    matrix, its left singular vectors whose singular values lie above the
    floor, and tol = floor / the smallest of those, the accuracy to which
    the floor lets the SVD fix that space (Wedin's bound)."""
    u, s, _ = np.linalg.svd(_hankel_block(p, laurent, rad))
    dim = int(np.sum(s > floor))
    return u[:, :dim], floor / s[dim - 1]


@dataclass(frozen=True)
class AsymptoticElement:
    """Profile e^{lam r} (r^k v + sum over tail of r^j v_j), with tail a
    tuple of (j, v_j) pairs, j < k: the building block of residue ranges."""

    lam: complex
    k: int
    coefficient_vector: np.ndarray
    tail: tuple = ()

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        vec = np.asarray(self.coefficient_vector, dtype=complex)
        out = (r**self.k * np.exp(self.lam * r))[:, None] * vec[None, :]
        for k2, v2 in self.tail:
            out += (r**k2 * np.exp(self.lam * r))[:, None] * np.asarray(v2)[None, :]
        return out


def kernel_elements(fam, lam):
    """Basis of the asymptotic kernel at the indicial root lam: the range of
    the residue projector as AsymptoticElements at lam, which the operator
    annihilates; [] when lam is not a root.

    The basis is graded by top power and has one element per unit of
    projector rank: from the top power down, the Hankel basis's block-k rows
    split the remaining directions into those with top power k (singular
    values above the basis's accuracy) and the rest; power 0 takes all that
    remain.  So simple poles and diagonal families give pure-power elements,
    and a tail keeps only the lower powers above 1e-10 of the top vector.

    Each element is scaled so that the largest-modulus component of its
    top-power vector (the first, on ties) is real and positive, which fixes
    the phase the SVD leaves free; zero parts are +0.  A group of two or more
    elements with one top power still spans its space in a basis chosen by
    the SVD.
    """
    lam0 = complex(lam)
    root = _root_at(fam, lam0)
    if root is None:
        return []
    p, laurent, floor = _principal_part(fam, root)
    q, tol = _range_basis(p, laurent, floor, root.radius)
    m = laurent[1].shape[0]
    scale = np.repeat([root.radius**j / math.factorial(j) for j in range(p)], m)
    elements = []
    for k in range(p - 1, -1, -1):
        top = q
        if k:
            _, s, vh = np.linalg.svd(q[k * m : (k + 1) * m])
            n_top = int(np.sum(s > tol))
            top, q = q @ vh[:n_top].conj().T, q @ vh[n_top:].conj().T
        for col in (top * scale[:, None]).T:
            parts = col.reshape(p, m)
            j = np.argmax(np.abs(parts[k]))
            parts = parts * (abs(parts[k, j]) / parts[k, j]) + 0.0  # no -0 parts
            parts[k, j] = parts[k, j].real  # real up to the product's roundoff
            norm = np.linalg.norm(parts[k])
            tail = tuple(
                (j, parts[j] / norm) for j in range(k) if np.linalg.norm(parts[j]) > 1e-10 * norm
            )
            elements.append(AsymptoticElement(lam0, k, parts[k] / norm, tail))
    return elements


def crossed_roots(fam, rho_from, rho_to):
    """(sign, roots): the sign of the move from the weight line rho_from to
    rho_to as an int, 1 up (or staying) and -1 down, and the family's roots
    whose real part lies strictly between the two lines, in root order."""
    lo, hi = sorted((rho_from, rho_to))
    sign = 1 if rho_to >= rho_from else -1
    return sign, [r for r in indicial_roots(fam) if lo < r.lam.real < hi]


def index_jump(fam, rho_from, rho_to):
    """Change of Fredholm index between two weight lines.

    Weights are in the y^rho convention on the zero mode (the same axis on
    which the singular weight set lives); the measure shift between that
    convention and the flat-line L2 picture is already folded in, so the
    endpoints compare directly with the real parts of the roots.  Equals the
    signed sum of residue-projector ranks over roots whose real part lies
    strictly between the two lines.
    """
    if not isinstance(fam, IndicialFamily):
        raise InvalidInputError("index_jump expects an IndicialFamily")
    if not (math.isfinite(rho_from) and math.isfinite(rho_to)):
        raise InvalidInputError("weight endpoints must be finite")
    for r in indicial_roots(fam):
        if abs(r.lam.real - rho_from) < _ROOT_GUARD or abs(r.lam.real - rho_to) < _ROOT_GUARD:
            raise InvalidInputError(
                f"weight endpoint sits on the root line Re = {r.lam.real:.12g}"
            )
    sign, crossed = crossed_roots(fam, rho_from, rho_to)
    return sign * sum(_range_basis(*_principal_part(fam, r), r.radius)[0].shape[1] for r in crossed)


def root_report(fam, window):
    """Roots with real part in the closed window (lo, hi), which must be
    finite, annotated with residue data, plus the singular weight set,
    ready for JSON serialization."""
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInputError("root search window must be finite")
    roots = [r for r in indicial_roots(fam) if lo <= r.lam.real <= hi]
    entries = []
    for r in roots:
        p, laurent, floor = _principal_part(fam, r)
        entries.append(
            {
                "lambda": [r.lam.real, r.lam.imag],
                "multiplicity": r.multiplicity,
                "residue_rank": _rank(laurent[1], floor),
                "pole_order": p,
                "projector_rank": _range_basis(p, laurent, floor, r.radius)[0].shape[1],
            }
        )
    sset = sorted({round(r.lam.real, 12) for r in roots})
    return {"roots": entries, "singular_weights": [float(x) for x in sset]}
