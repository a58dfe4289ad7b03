"""Admissible differential operators on the cusp's zero Fourier mode.

An operator acting on sections trivialized by the invariant frame
{dy/y, dtheta_i/y} restricts, on the zero mode, to a polynomial in
y*d/dy = d/dr with constant matrix coefficients.  ``OperatorSpec`` stores
that presentation; ``indicial_family`` substitutes the spectral parameter
for d/dr.

Component conventions for the surface-family operators (slice dimension d):

* 1-forms: components (a, b_1..b_d) on the orthonormal coframe, Gram = 1.
* symmetric 2-tensors: components (s, t_1..t_d, x_1..x_d) where s, t_i sit
  on the squares of the coframe and x_i is the coefficient on
  e^0 (x) e^i + e^i (x) e^0, so |x-basis|^2 = 2 and the Gram weight is 2.

With these conventions the symmetrized derivative of a 1-form, the
divergence (= minus the adjoint of the derivative) and their composition
reproduce the closed-form one-parameter actions

    D:      a -> (lam * a  on s,  -a on each t_i),   b_i -> (lam+1)/2 on x_i
    D^*:    s -> (lam-d) a,  t_i -> +a,              x_i -> (lam-d-1) b_i
    D^*D:   diag(lam^2 - lam*d - d,  (lam+1)(lam-(d+1))/2 * Id_d)
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .polymat import IndicialFamily


@dataclass(frozen=True)
class OperatorSpec:
    """Zero-mode presentation of an admissible operator.

    ``terms`` maps powers of d/dr to constant matrices; all matrices must be
    n_out x n_in.  Optional Gram weights describe the component inner
    products of the output/input bundles (see module docstring).
    """

    terms: tuple
    gram_in: np.ndarray = None
    gram_out: np.ndarray = None

    def __post_init__(self):
        if not self.terms:
            raise InvalidInputError("operator needs at least one term")
        mats = [np.asarray(m, dtype=float) for _, m in self.terms]
        shape = mats[0].shape
        if any(m.shape != shape for m in mats):
            raise InvalidInputError("all term matrices must share one shape")
        object.__setattr__(
            self, "terms", tuple((int(k), np.asarray(m, dtype=float)) for k, m in self.terms)
        )

    @property
    def shape(self):
        return self.terms[0][1].shape

    @property
    def order(self):
        return max(k for k, _ in self.terms)


def indicial_family(spec):
    """Polynomial matrix of the operator: substitute the spectral parameter
    for each power of d/dr."""
    n_out, n_in = spec.shape
    deg = spec.order
    coeffs = np.zeros((deg + 1, n_out, n_in), dtype=complex)
    for k, mat in spec.terms:
        coeffs[k] += mat
    return IndicialFamily(coeffs, gram_in=spec.gram_in, gram_out=spec.gram_out)


# ---------------------------------------------------------------------------
# built-in operators (surface-family, slice dimension d)
# ---------------------------------------------------------------------------


def _gram_sym2(d):
    g = np.ones(1 + 2 * d)
    g[1 + d :] = 2.0
    return g


def sym_derivative_spec(d):
    """Symmetrized covariant derivative on 1-forms, zero-mode presentation."""
    n_in = d + 1
    n_out = 1 + 2 * d
    c0 = np.zeros((n_out, n_in))
    c1 = np.zeros((n_out, n_in))
    c1[0, 0] = 1.0  # s picks d/dr of a
    for i in range(d):
        c0[1 + i, 0] = -1.0  # t_i picks -a
        c0[1 + d + i, 1 + i] = 0.5  # x_i picks (d/dr + 1)/2 of b_i
        c1[1 + d + i, 1 + i] = 0.5
    return OperatorSpec(
        terms=((0, c0), (1, c1)),
        gram_in=np.ones(n_in),
        gram_out=_gram_sym2(d),
    )


def divergence_spec(d):
    """Divergence on symmetric 2-tensors (trace of the covariant
    derivative); equals minus the adjoint of the symmetrized derivative."""
    n_in = 1 + 2 * d
    n_out = d + 1
    c0 = np.zeros((n_out, n_in))
    c1 = np.zeros((n_out, n_in))
    c1[0, 0] = 1.0
    c0[0, 0] = -d
    for i in range(d):
        c0[0, 1 + i] = 1.0
        c0[1 + i, 1 + d + i] = -(d + 1)
        c1[1 + i, 1 + d + i] = 1.0
    return OperatorSpec(
        terms=((0, c0), (1, c1)),
        gram_in=_gram_sym2(d),
        gram_out=np.ones(n_out),
    )


def sym_laplacian_spec(d):
    """Composition divergence o derivative on 1-forms."""
    n = d + 1
    c0 = np.zeros((n, n))
    c1 = np.zeros((n, n))
    c2 = np.zeros((n, n))
    c0[0, 0] = -d
    c1[0, 0] = -d
    c2[0, 0] = 1.0
    for i in range(1, n):
        # (lam+1)(lam-(d+1))/2 = (lam^2 - d*lam - (d+1))/2
        c0[i, i] = -(d + 1) / 2.0
        c1[i, i] = -d / 2.0
        c2[i, i] = 0.5
    return OperatorSpec(
        terms=((0, c0), (1, c1), (2, c2)),
        gram_in=np.ones(n),
        gram_out=np.ones(n),
    )


def laplacian_invertibility_window(d):
    """The weight interval around the self-adjoint line on which the
    symmetric Laplacian on 1-forms is invertible."""
    half = np.sqrt(d + d * d / 4.0)
    return (d / 2.0 - half, d / 2.0 + half)


_BUILTINS = {
    "sym-derivative": sym_derivative_spec,
    "divergence": divergence_spec,
    "sym-laplacian": sym_laplacian_spec,
    # the identity on d + 1 components: a family with no roots
    "identity": lambda d: OperatorSpec(terms=((0, np.eye(d + 1)),)),
}


def builtin_spec(name, d):
    try:
        return _BUILTINS[name](d)
    except KeyError:
        raise InvalidInputError(f"unknown operator name: {name!r}") from None


def spec_from_terms(rows, n_out, n_in):
    """Build a spec from flat config rows ``power a11 a12 ... a_nm``."""
    terms = {}
    for row in rows:
        vals = [float(x) for x in row]
        k = int(vals[0])
        if k < 0 or vals[0] != k:
            raise InvalidInputError("term power must be a nonnegative integer")
        mat = np.asarray(vals[1:], dtype=float)
        if mat.size != n_out * n_in:
            raise InvalidInputError(
                f"term row has {mat.size} entries, expected {n_out * n_in}"
            )
        terms[k] = terms.get(k, 0) + mat.reshape(n_out, n_in)
    return OperatorSpec(terms=tuple(sorted(terms.items())))
