"""Residues of inverse indicial families and Fredholm index bookkeeping.

The inverse of a matrix polynomial is meromorphic; at each root the residue
(and deeper Laurent coefficients) are recovered by trapezoidal contour
quadrature on a small circle, which is exact up to aliasing at the level of
machine precision.  Overdetermined (tall) families use the analytic left
inverse (A^T A)^{-1} A^T built with the plain transpose, so meromorphy in
the spectral parameter is preserved.
"""

import numpy as np

from .errors import InvalidInputError
from .polymat import (
    IndicialFamily,
    indicial_roots,
    polished_roots,
    vanishing_order,
)

_RANK_RTOL = 1e-8
_DEFAULT_RADIUS = 1e-2
_DEFAULT_NODES = 64


def transpose_family(fam):
    """Plain (non-conjugated) transpose, analytic in the parameter."""
    return IndicialFamily(np.swapaxes(fam.coeffs, 1, 2))


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


def _denominator(fam):
    """Determinant polynomial whose zeros carry all poles of the
    meromorphic (left-)inverse."""
    if fam.is_square:
        return fam.determinant()
    famN = transpose_family(fam).compose(fam)
    return famN.determinant()


def _contour_radius(fam, lam0, radius):
    if radius is not None:
        return radius
    poles = [lam for lam, _ in polished_roots(_denominator(fam))]
    others = [abs(lam - lam0) for lam in poles if abs(lam - lam0) > 1e-6]
    gap = min(others) if others else 1.0
    return min(_DEFAULT_RADIUS, gap / 3.0)


def _contour(fam, lam0, radius):
    """Quadrature circle around lam0: (radius, angles, points), with
    _DEFAULT_NODES equispaced nodes; a radius of None picks the largest one
    up to _DEFAULT_RADIUS that keeps the other poles well outside."""
    rad = _contour_radius(fam, lam0, radius)
    phi = 2.0 * np.pi * np.arange(_DEFAULT_NODES) / _DEFAULT_NODES
    return rad, phi, lam0 + rad * np.exp(1j * phi)


def _contour_moments(values, rad, phi, kmax):
    """Trapezoidal (1/2 pi i) \\oint (lam - lam0)^(k-1) g(lam) dlam for
    k = 1..kmax from samples g on the circle (sample axis first)."""
    n = phi.size
    return {
        k: np.tensordot(np.exp(1j * k * phi) * (rad**k) / n, values, axes=(0, 0))
        for k in range(1, kmax + 1)
    }


def laurent_coefficients(fam, lam0, kmax, radius=None):
    """Principal-part Laurent coefficients A_{-1}..A_{-kmax} of the
    (left-)inverse of the family at lam0, by contour quadrature.

    Returns (coefficients, floor): the floor is the roundoff level of the
    quadrature (coefficients below it are numerically zero)."""
    rad, phi, lam = _contour(fam, lam0, radius)
    minv = meromorphic_inverse(fam)(lam)  # (nodes, m, n)
    floor = 1e-9 * rad * np.max(np.linalg.norm(minv, axis=(-2, -1)))
    return _contour_moments(minv, rad, phi, kmax), floor


def pole_order(fam, lam0):
    """Order of lam0 as a pole of the inverse family, from the vanishing
    orders of the determinant and of the adjugate (symbolic route)."""
    m_det = vanishing_order(_denominator(fam), lam0)
    if m_det == 0:
        return 0
    if fam.is_square:
        num = fam.adjugate()
    else:
        famN = transpose_family(fam).compose(fam)
        num = famN.adjugate().compose(transpose_family(fam))
    m_num = min(
        vanishing_order(num.entry(i, j), lam0)
        if np.max(np.abs(num.entry(i, j))) > 0
        else m_det
        for i in range(num.shape[0])
        for j in range(num.shape[1])
    )
    return m_det - m_num


def _check_is_root(fam, lam0):
    a = fam(lam0)
    sv = np.linalg.svd(a, compute_uv=False)
    scale = sv[0] if sv[0] > 0 else 1.0
    if sv[-1] > 1e-6 * scale:
        raise InvalidInputError(
            f"{lam0} is not an indicial root (sigma_min/sigma_max = {sv[-1] / scale:.2e})"
        )


def residue_rank(fam, lam0):
    """(rank of the residue matrix, pole order) at an indicial root."""
    _check_is_root(fam, lam0)
    p = pole_order(fam, lam0)
    laurent, floor = laurent_coefficients(fam, lam0, 1)
    sv = np.linalg.svd(laurent[1], compute_uv=False)
    cutoff = max(_RANK_RTOL * sv[0], floor)
    rank = int(np.sum(sv > cutoff))
    return rank, p


def _hankel_block(fam, lam0):
    """Block-Hankel matrix H[k, i] = A_{-(k+i+1)} (k+i < pole order).

    Writing the residue convolution kernel as
    e^{lam0 (r-r')} sum_j A_{-j} (r-r')^{j-1}/(j-1)! and separating powers of
    r against moments of the input, the operator's range is exactly the set
    of coefficient tuples (c_0, ..., c_{p-1}) in the column space of H; its
    dimension is the operator rank.
    """
    p = pole_order(fam, lam0)
    if p == 0:
        return 0, None, None, 0.0
    laurent, floor = laurent_coefficients(fam, lam0, p)
    m, n = laurent[1].shape
    h = np.zeros((p * m, p * n), dtype=complex)
    for k in range(p):
        for i in range(p - k):
            h[k * m : (k + 1) * m, i * n : (i + 1) * n] = laurent[k + i + 1]
    return p, h, (m, n), floor


def residue_range_profiles(fam, lam0):
    """Basis of the range of the residue projector as exponential-polynomial
    profiles.

    Each basis element is a tuple (k, vector, tail): the corresponding
    kernel-type profile is e^{lam0 r} (r^k vector + lower-order tail), where
    tail lists (k', vector') pairs with k' < k.  The basis is graded by top
    power, so simple poles and diagonal families give pure-power profiles.
    """
    p, h, shape, floor = _hankel_block(fam, lam0)
    if p == 0:
        return []
    m = shape[0]
    u, sv, _ = np.linalg.svd(h)
    if sv.size == 0 or sv[0] <= floor:
        return []
    dim = int(np.sum(sv > max(_RANK_RTOL * sv[0], floor)))
    q = u[:, :dim]  # orthonormal basis of the coefficient-tuple space
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


def projector_rank(fam, lam0):
    """Rank of the residue projector as a convolution operator (counts the
    polynomial-in-r profiles as independent directions)."""
    p, h, _, floor = _hankel_block(fam, lam0)
    if p == 0:
        return 0
    sv = np.linalg.svd(h, compute_uv=False)
    if sv.size == 0 or sv[0] <= floor:
        return 0
    return int(np.sum(sv > max(_RANK_RTOL * sv[0], floor)))


def index_jump(fam, rho_from, rho_to, root_guard=1e-9):
    """Change of Fredholm index between two weight lines.

    Weights are in the y^rho convention on the zero mode (the same axis on
    which the singular weight set lives); the measure shift between that
    convention and the flat-line L2 picture is already folded in, so the
    endpoints compare directly with the real parts of the roots.  Equals the
    signed sum of residue-projector ranks over roots whose real part lies
    strictly between the two lines.
    """
    if isinstance(fam, tuple) or not isinstance(fam, IndicialFamily):
        raise InvalidInputError("index_jump expects an IndicialFamily")
    lo, hi = sorted((rho_from, rho_to))
    sign = 1 if rho_to >= rho_from else -1
    span = max(abs(hi), abs(lo), 1.0) + 1.0
    roots = indicial_roots(fam, window=(-span - 1, span + 1))
    for r in roots:
        if abs(r.lam.real - rho_from) < root_guard or abs(r.lam.real - rho_to) < root_guard:
            raise InvalidInputError(
                f"weight endpoint sits on the root line Re = {r.lam.real:.12g}"
            )
    total = 0
    for r in roots:
        if lo < r.lam.real < hi:
            total += projector_rank(fam, r.lam)
    return sign * total


def root_report(fam, window):
    """Roots in the window annotated with residue data, plus the singular
    weight set, ready for JSON serialization."""
    roots = indicial_roots(fam, window=window)
    entries = []
    for r in roots:
        rank, p = residue_rank(fam, r.lam)
        entries.append(
            {
                "lambda": [r.lam.real, r.lam.imag],
                "multiplicity": r.multiplicity,
                "residue_rank": rank,
                "pole_order": p,
                "projector_rank": projector_rank(fam, r.lam),
            }
        )
    sset = sorted({round(r.lam.real, 12) for r in roots})
    return {"roots": entries, "singular_weights": [float(x) for x in sset]}
