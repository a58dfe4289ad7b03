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

import functools
import math
from itertools import combinations_with_replacement

import numpy as np

from .errors import InvalidInputError

# ---------------------------------------------------------------------------
# circle fiber (surface case)
# ---------------------------------------------------------------------------


def circle_grid(n=256):
    return 2.0 * np.pi * np.arange(n) / n


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
    rand = sum(
        c * np.exp(1j * k * phi) for k, c in zip(range(-2, 3), coeffs)
    )
    funcs.append(rand)
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
    if lam == 0:
        raise InvalidInputError("0 is the indicial root; no left inverse there")
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
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        alpha = [0] * nvars
        for i in combo:
            alpha[i] += 1
        out.append(tuple(alpha))
    return out


def _sphere_integral(alpha):
    """Integral of the monomial v^alpha over the unit sphere in len(alpha)
    variables (zero unless all exponents are even)."""
    if any(a % 2 for a in alpha):
        return 0.0
    num = 2.0
    for a in alpha:
        num *= math.gamma((a + 1) / 2.0)
    return num / math.gamma((sum(alpha) + len(alpha)) / 2.0)


def _add_alpha(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _poly_gram(monos, integral):
    n = len(monos)
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = integral(_add_alpha(monos[i], monos[j]))
    return g


def _derivative_coeffs(alpha, var):
    if alpha[var] == 0:
        return None, 0.0
    out = list(alpha)
    out[var] -= 1
    return tuple(out), float(alpha[var])


def _rotation_matrix(monos, var_a, var_b):
    """Matrix of v_a d/dv_b - v_b d/dv_a on the monomial basis."""
    index = {m: i for i, m in enumerate(monos)}
    n = len(monos)
    mat = np.zeros((n, n))
    ea = tuple(1 if i == var_a else 0 for i in range(len(monos[0])))
    eb = tuple(1 if i == var_b else 0 for i in range(len(monos[0])))
    for j, m in enumerate(monos):
        da, ca = _derivative_coeffs(m, var_b)
        if da is not None:
            mat[index[_add_alpha(da, ea)], j] += ca
        db, cb = _derivative_coeffs(m, var_a)
        if db is not None:
            mat[index[_add_alpha(db, eb)], j] -= cb
    return mat


def _ambient_gram(monos, integral):
    """Pairing of the ambient gradients of the monomials over the sphere."""
    nvars = len(monos[0])
    n = len(monos)
    amb = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            acc = 0.0
            for var in range(nvars):
                di, ci = _derivative_coeffs(monos[i], var)
                dj, cj = _derivative_coeffs(monos[j], var)
                if di is not None and dj is not None:
                    acc += ci * cj * integral(_add_alpha(di, dj))
            amb[i, j] = amb[j, i] = acc
    return amb


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
    roots = set()
    certificate = []
    # the Gram entries of all degrees draw on few distinct exponents
    integral = functools.cache(_sphere_integral)
    for degree in range(7):
        monos = _monomials(nvars, degree)
        gram = _poly_gram(monos, integral)
        # Gram of the spherical gradient: the ambient-gradient pairing minus
        # the radial part degree^2 <P, Q>
        a = _ambient_gram(monos, integral) - degree**2 * gram
        for ell in range(1, nvars):
            rot = _rotation_matrix(monos, 0, ell)
            a += rot.T @ gram @ rot
        # monomials restricted to the sphere are dependent for degree >= 2
        # (radius relations): reduce to an orthonormal basis of the actual
        # function space before comparing the quadratic forms
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
