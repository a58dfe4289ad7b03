"""Indicial analysis of the unit-tangent-bundle gradient over the cusp.

Over a cusp the gradient's model operator acts on functions on the fiber
sphere (a circle for surfaces): the spectral-parameter family sends f to
the triple (vertical gradient of f, lam * f on the invariant horizontal
direction, rotation derivatives of f on the slice directions).  The scalar
weight lam on the horizontal direction is what the canonical left inverse
divides by, so 0 is the only parameter where left invertibility fails, for
every slice dimension.

The circle case is realized numerically on a fiber-angle grid; higher
slice dimensions are handled block-by-block on homogeneous polynomial
spaces, where the derivative part is assembled exactly from monomial
sphere integrals.
"""

import math
from itertools import combinations_with_replacement

import numpy as np

from .errors import InvalidInputError

# ---------------------------------------------------------------------------
# circle fiber (surface case)
# ---------------------------------------------------------------------------


def circle_grid():
    """The 256 fiber angles 2 pi k / 256 on which the circle case is sampled."""
    return 2.0 * np.pi * np.arange(256) / 256


def _spectral_dphi(vals):
    n = vals.shape[-1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.fft.ifft(np.fft.fft(vals, axis=-1) * (1j * k), axis=-1)


def default_fiber_tests(phi):
    """Circle-spectral test functions: constant, low harmonics, one random
    (seed 0) band-limited combination."""
    rng = np.random.default_rng(0)
    funcs = [np.ones_like(phi), np.cos(phi), np.sin(2 * phi)]
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    funcs.append(sum(c * np.exp(1j * k * phi) for k, c in zip(range(-2, 3), coeffs)))
    return funcs


def gradient_family_apply(lam, f_vals, phi):
    """Apply the gradient's spectral family to fiber samples.

    Components returned in the orthonormal directions (vertical, invariant
    horizontal, slice): (d/dphi f, lam f + euler defect, d/dphi f).  The
    Euler-derivative term vanishes identically on zero-homogeneous data; it
    is evaluated numerically through the embedding chain rule so the
    cancellation is part of the computation, not an assumption.
    """
    df = _spectral_dphi(f_vals)
    # chain rule through the 0-homogeneous extension: the radial derivative
    # combines +-sin/cos factors that cancel pointwise
    euler = np.cos(phi) * (-np.sin(phi) * df) + np.sin(phi) * (np.cos(phi) * df)
    return np.stack([df, lam * f_vals + euler, df])


def left_inverse_apply(lam, triple):
    """Canonical left inverse: project on the invariant horizontal
    direction and divide by the spectral parameter."""
    if lam == 0:
        raise InvalidInputError("0 is the indicial root; no left inverse there")
    return triple[1] / lam


def sphere_fibered_inverse_check(lam, perturbation=0.0):
    """Residual of (left inverse) o (family) = identity on circle-spectral
    test functions, sampled at 256 fiber angles.

    ``perturbation`` adds a fixed-size deterministic disturbance to the
    family output before inverting, probing the conditioning of the left
    inverse: the response grows like 1/|lam| toward the indicial root.
    Returns the max sup-residual across the test set.
    """
    phi = circle_grid()
    worst = 0.0
    noise = perturbation * np.cos(3.0 * phi + 0.7)
    for f in default_fiber_tests(phi):
        triple = gradient_family_apply(lam, f, phi)
        triple = triple + noise[None, :]
        back = left_inverse_apply(lam, triple)
        worst = max(worst, float(np.max(np.abs(back - f))))
    return worst


def inverse_conditioning_exponent():
    """Fitted slope of log residual against log |lam| under the fixed
    perturbation 1e-12, over lam = 1e-1 .. 1e-5; the canonical left inverse
    carries a 1/lam factor, so the slope is -1."""
    lams = 10.0 ** np.arange(-1.0, -6.0, -1.0)
    res = [sphere_fibered_inverse_check(lam, perturbation=1e-12) for lam in lams]
    slope = np.polyfit(np.log10(np.abs(lams)), np.log10(res), 1)[0]
    return float(slope), list(zip([float(x) for x in lams], res))


# ---------------------------------------------------------------------------
# indicial roots for general slice dimension via homogeneous blocks
# ---------------------------------------------------------------------------


def _monomials(nvars, degree):
    """Exponents of the degree-``degree`` monomials in nvars variables, one
    row each, in the order of combinations_with_replacement."""
    combos = list(combinations_with_replacement(range(nvars), degree))
    combos = np.array(combos, dtype=int).reshape(len(combos), degree)
    return np.sum(combos[:, :, None] == np.arange(nvars), axis=1)


def _sphere_integrals(alpha):
    """Integrals of the monomials v^alpha over the unit sphere, alpha an
    integer array holding the exponents on its last axis: 2 prod_v
    gamma((alpha_v + 1)/2) / gamma((|alpha| + nvars)/2), zero unless every
    exponent is even."""
    nvars = alpha.shape[-1]
    total = alpha.sum(axis=-1)
    # gamma((k + 1) / 2) for every k the formula reads
    gam = np.array([math.gamma((k + 1) / 2.0) for k in range(total.max() + nvars)])
    num = np.full(total.shape, 2.0)
    for v in range(nvars):
        num = num * gam[alpha[..., v]]
    return np.where(np.any(alpha % 2, axis=-1), 0.0, num / gam[total + nvars - 1])


def gradient_indicial_roots(d):
    """Indicial roots of the tangent-bundle gradient for slice dimension d.

    Fiber functions are decomposed over homogeneous polynomial blocks of
    degree 0..6 in the d+1 direction variables.  On each block the
    derivative part of the family (spherical gradient plus slice rotations)
    is assembled exactly; its kernel consists of the constants, and the
    family restricted there reduces to the linear polynomial lam, whose root
    is 0.  Blocks with a trivial kernel contribute no roots for any
    parameter value.

    Returns (roots, certificate): the certificate holds the per-block
    smallest derivative eigenvalue (strictly positive off the constants).
    """
    if d < 1:
        raise InvalidInputError("slice dimension must be >= 1")
    nvars = d + 1
    eye = np.eye(nvars, dtype=int)
    roots = set()
    certificate = []
    for degree in range(7):
        monos = _monomials(nvars, degree)
        n = len(monos)
        # one integral table: the Gram pairs m_i + m_j, then for each
        # variable v the pairs lowered by 2 e_v, which pair the v-th partial
        # derivatives (clipped where m_i[v] m_j[v] = 0 drops the term)
        pairs = monos[:, None, :] + monos[None, :, :]
        lowered = np.maximum(pairs[None] - 2 * eye[:, None, None, :], 0)
        ints = _sphere_integrals(np.concatenate([pairs[None], lowered]))
        gram = ints[0]
        # Gram of the spherical gradient: the ambient-gradient pairing minus
        # the radial part degree^2 <P, Q>
        ambient = sum(np.outer(monos[:, v], monos[:, v]) * ints[1 + v] for v in range(nvars))
        a = ambient - degree**2 * gram
        # the slice rotation v_0 d/dv_ell - v_ell d/dv_0 sends column j's
        # monomial m to m[ell] (m + e_0 - e_ell) - m[0] (m - e_0 + e_ell)
        index = np.zeros((degree + 1,) * nvars, dtype=int)
        index[tuple(monos.T)] = np.arange(n)
        for ell in range(1, nvars):
            rot = np.zeros((n, n))
            for var, step, sign in ((ell, eye[0] - eye[ell], 1), (0, eye[ell] - eye[0], -1)):
                has = np.nonzero(monos[:, var])[0]
                rot[index[tuple((monos[has] + step).T)], has] = sign * monos[has, var]
            a += rot.T @ gram @ rot
        # compare the quadratic forms in a Gram-orthonormal basis; the
        # monomials of one degree stay independent on the sphere (a
        # homogeneous polynomial vanishing there vanishes everywhere), so
        # the keep threshold only guards against roundoff
        gvals, gvecs = np.linalg.eigh(gram)
        keep = gvals > 1e-10 * max(gvals.max(), 1.0)
        basis = gvecs[:, keep] / np.sqrt(gvals[keep])
        a_red = basis.T @ ((a + a.T) / 2.0) @ basis
        eigvals = np.linalg.eigvalsh(a_red)
        scale = max(np.max(np.abs(eigvals)), 1.0)
        kernel_dim = int(np.sum(np.abs(eigvals) < 1e-8 * scale))
        if kernel_dim > 0:
            # on the kernel block the family is lam * (injection), whose
            # only zero is lam = 0
            roots.add(0.0)
        positive = eigvals[np.abs(eigvals) >= 1e-8 * scale]
        certificate.append(
            {
                "degree": degree,
                "dim": int(basis.shape[1]),
                "kernel_dim": kernel_dim,
                "min_positive_eig": float(np.min(positive)) if positive.size else None,
            }
        )
    return sorted(roots), certificate
