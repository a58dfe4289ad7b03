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
principal part with block (k, i) divided by radius^(k+i).
"""

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
    order p); rad = 1 gives the unscaled matrix.

    Writing the residue convolution kernel as
    e^{lam0 (r-r')} sum_j A_{-j} (r-r')^{j-1}/(j-1)! and separating powers of
    r against moments of the input, the operator's range is exactly the set
    of coefficient tuples (c_0, ..., c_{p-1}) in the column space of H; its
    dimension is the operator rank.
    """
    m, n = laurent[1].shape
    h = np.zeros((p * m, p * n), dtype=complex)
    for k in range(p):
        for i in range(p - k):
            h[k * m : (k + 1) * m, i * n : (i + 1) * n] = laurent[k + i + 1] / rad ** (k + i)
    return h


def residue_range_profiles(fam, lam0):
    """Basis of the range of the residue projector as exponential-polynomial
    profiles.

    Each basis element is a tuple (k, vector, tail): the corresponding
    kernel-type profile is e^{lam0 r} (r^k vector + lower-order tail), where
    tail lists (k', vector') pairs with k' < k.  The basis is graded by top
    power, so simple poles and diagonal families give pure-power profiles.
    """
    root = _root_at(fam, lam0)
    if root is None:
        return []
    p, laurent, floor = _principal_part(fam, root)
    dim = _projector_rank(p, laurent, floor, root.radius)
    m = laurent[1].shape[0]
    # orthonormal basis of the coefficient-tuple space: the leading left
    # singular vectors of the unscaled Hankel matrix, whose row blocks are
    # the coefficients c_k themselves
    q = np.linalg.svd(_hankel_block(p, laurent, 1.0))[0][:, :dim]
    profiles = []
    prev = np.zeros((q.shape[0], 0), dtype=complex)
    for k in range(p):
        # subspace of tuples with top power <= k: components above k vanish
        top = q[(k + 1) * m :, :]
        if top.shape[0] == 0:
            kern = np.eye(dim, dtype=complex)
        else:
            _, s2, vh = np.linalg.svd(top, full_matrices=True)
            nkeep = int(np.sum(s2 > 1e-10)) if s2.size else 0
            kern = vh.conj().T[:, nkeep:]
        w_k = q @ kern
        # directions new at grade k (orthogonal complement of the previous grade)
        if prev.shape[1]:
            w_k = w_k - prev @ (prev.conj().T @ w_k)
        qn, rn = np.linalg.qr(w_k)
        keep = np.abs(np.diag(rn)) > 1e-10 if rn.size else []
        new = qn[:, : len(keep)][:, keep] if w_k.shape[1] else w_k
        for idx in range(new.shape[1]):
            col = new[:, idx]
            parts = [col[j * m : (j + 1) * m] for j in range(p)]
            scale = np.linalg.norm(parts[k])
            if scale < 1e-12:
                continue
            tail = [
                (j, parts[j] / scale)
                for j in range(k)
                if np.linalg.norm(parts[j]) > 1e-10 * scale
            ]
            profiles.append((k, parts[k] / scale, tail))
        prev = np.hstack([prev, new]) if new.shape[1] else prev
    return profiles


def _projector_rank(p, laurent, floor, rad):
    """Rank of the residue projector as a convolution operator (counts the
    polynomial-in-r profiles as independent directions)."""
    return _rank(_hankel_block(p, laurent, rad), floor)


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
    lo, hi = sorted((rho_from, rho_to))
    sign = 1 if rho_to >= rho_from else -1
    span = max(abs(hi), abs(lo), 1.0) + 1.0
    roots = indicial_roots(fam, window=(-span - 1, span + 1))
    for r in roots:
        if abs(r.lam.real - rho_from) < _ROOT_GUARD or abs(r.lam.real - rho_to) < _ROOT_GUARD:
            raise InvalidInputError(
                f"weight endpoint sits on the root line Re = {r.lam.real:.12g}"
            )
    total = 0
    for r in roots:
        if lo < r.lam.real < hi:
            total += _projector_rank(*_principal_part(fam, r), r.radius)
    return sign * total


def root_report(fam, window):
    """Roots in the window annotated with residue data, plus the singular
    weight set, ready for JSON serialization."""
    roots = indicial_roots(fam, window=window)
    entries = []
    for r in roots:
        p, laurent, floor = _principal_part(fam, r)
        entries.append(
            {
                "lambda": [r.lam.real, r.lam.imag],
                "multiplicity": r.multiplicity,
                "residue_rank": _rank(laurent[1], floor),
                "pole_order": p,
                "projector_rank": _projector_rank(p, laurent, floor, r.radius),
            }
        )
    sset = sorted({round(r.lam.real, 12) for r in roots})
    return {"roots": entries, "singular_weights": [float(x) for x in sset]}
