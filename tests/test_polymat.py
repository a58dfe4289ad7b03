import numpy as np
import pytest

from cusplab.errors import DegenerateOperatorError, InvalidInputError
from cusplab.operators import (
    divergence_spec,
    identity_spec,
    indicial_family,
    sym_derivative_spec,
    sym_laplacian_spec,
)
from cusplab.polymat import (
    IndicialFamily,
    adjoint_family,
    indicial_roots,
    polished_roots,
)
from cusplab.residues import root_report

RNG = np.random.default_rng(20240811)


def laplacian_root_set(d):
    half = np.sqrt(d + d * d / 4.0)
    return sorted([-1.0, float(d + 1), d / 2.0 - half, d / 2.0 + half])


# ---------------------------------------------------------------------------
# determinant against a pointwise numeric oracle
# ---------------------------------------------------------------------------


def test_bareiss_determinant_matches_numeric_det():
    # random degree-2 square family; oracle: numpy det at sample points
    coeffs = RNG.normal(size=(3, 4, 4))
    fam = IndicialFamily(coeffs)
    det = fam.determinant()
    lams = RNG.normal(size=7) + 1j * RNG.normal(size=7)
    from cusplab.polymat import peval

    for lam in lams:
        direct = np.linalg.det(fam(lam))
        via_poly = peval(det, lam)
        assert abs(direct - via_poly) <= 1e-9 * max(1.0, abs(direct))


def test_identically_singular_family_raises():
    fam = IndicialFamily.from_entries([[[1.0], [1.0]], [[1.0], [1.0]]])
    with pytest.raises(DegenerateOperatorError):
        indicial_roots(fam)


# ---------------------------------------------------------------------------
# roots of the built-in operators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_laplacian_roots(d):
    fam = indicial_family(sym_laplacian_spec(d))
    roots = indicial_roots(fam)
    got = sorted(r.lam.real for r in roots)
    assert all(abs(r.lam.imag) < 1e-12 for r in roots)
    expected = laplacian_root_set(d)
    assert len(got) == len(expected)
    assert np.allclose(got, expected, atol=1e-10)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_derivative_sole_root_minus_one_with_multiplicity_d(d):
    fam = indicial_family(sym_derivative_spec(d))
    roots = indicial_roots(fam, window=(-50.0, 50.0))
    assert len(roots) == 1
    assert abs(roots[0].lam - (-1.0)) < 1e-10
    assert roots[0].multiplicity == d


def test_singular_weight_set_sorted():
    fam = indicial_family(sym_laplacian_spec(1))
    s = root_report(fam, (-50.0, 50.0))["singular_weights"]
    assert s == sorted(s)
    assert np.allclose(s, laplacian_root_set(1), atol=1e-10)


# ---------------------------------------------------------------------------
# homomorphism law
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_divergence_compose_derivative_is_laplacian(d):
    famD = indicial_family(sym_derivative_spec(d))
    famDiv = indicial_family(divergence_spec(d))
    famL = indicial_family(sym_laplacian_spec(d))
    comp = famDiv.compose(famD)
    lams = RNG.normal(size=100) * 5 + 1j * RNG.normal(size=100) * 5
    a = comp(lams)
    b = famL(lams)
    denom = np.linalg.norm(b, axis=(-2, -1))
    assert np.all(np.linalg.norm(a - b, axis=(-2, -1)) <= 1e-12 * denom)


def test_compose_with_identity_is_identity_map():
    fam = indicial_family(sym_laplacian_spec(2))
    ident = IndicialFamily.identity(3)
    comp = ident.compose(fam)
    assert np.allclose(comp.coeffs, fam.coeffs)


def test_compose_matches_symbolic_spec_composition():
    # oracle: compose the operator specs symbolically (constant coefficients
    # commute with d/dr, so term powers add) and take the family of that
    for _ in range(20):
        n = int(RNG.integers(1, 4))
        a0, a1 = RNG.normal(size=(2, n, n))
        b0, b1 = RNG.normal(size=(2, n, n))
        from cusplab.operators import OperatorSpec

        p = OperatorSpec(terms=((0, a0), (1, a1)))
        q = OperatorSpec(terms=((0, b0), (1, b1)))
        sym = OperatorSpec(
            terms=(
                (0, a0 @ b0),
                (1, a0 @ b1 + a1 @ b0),
                (2, a1 @ b1),
            )
        )
        comp = indicial_family(p).compose(indicial_family(q))
        direct = indicial_family(sym)
        assert np.allclose(comp.coeffs, direct.coeffs, atol=1e-12)


def test_compose_rank_mismatch_raises():
    famD = indicial_family(sym_derivative_spec(1))
    with pytest.raises(InvalidInputError):
        famD.compose(famD)


# ---------------------------------------------------------------------------
# adjoint law
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_laplacian_family_is_self_adjoint(d):
    fam = indicial_family(sym_laplacian_spec(d))
    adj = adjoint_family(fam, d)
    assert np.allclose(adj.coeffs, fam.coeffs, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_divergence_is_minus_adjoint_of_derivative(d):
    famD = indicial_family(sym_derivative_spec(d))
    famDiv = indicial_family(divergence_spec(d))
    adj = adjoint_family(famD, d)
    assert np.allclose(adj.coeffs, -famDiv.coeffs, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_adjoint_root_multiset_is_reflected(d):
    fam = indicial_family(sym_laplacian_spec(d))
    adj = adjoint_family(fam, d)
    orig = sorted((r.lam.real, r.multiplicity) for r in indicial_roots(fam))
    refl = sorted((d - r.lam.real, r.multiplicity) for r in indicial_roots(adj))
    for (a, ma), (b, mb) in zip(orig, refl):
        assert abs(a - b) < 1e-9
        assert ma == mb


def test_adjoint_of_derivative_root_is_d_plus_one():
    for d in (1, 2, 3):
        famD = indicial_family(sym_derivative_spec(d))
        # adjoint of a tall family is wide; root detection applies to its
        # transpose (the adjoint operator is itself overdetermined-dual)
        adj = adjoint_family(famD, d)
        from cusplab.residues import transpose_family

        roots = indicial_roots(transpose_family(adj), window=(-50, 50))
        assert len(roots) == 1
        assert abs(roots[0].lam - (d + 1.0)) < 1e-9


def test_adjoint_identity_is_identity():
    fam = IndicialFamily.identity(3)
    adj = adjoint_family(fam, 1)
    assert np.allclose(adj.coeffs, fam.coeffs)


def test_root_polish_handles_high_multiplicity():
    # (lam+1)^3 as a scalar family; companion roots alone scatter ~1e-5
    c = np.array([1.0, 3.0, 3.0, 1.0], dtype=complex)
    roots = polished_roots(c)
    assert len(roots) == 1
    lam, mult = roots[0]
    assert mult == 3
    assert abs(lam + 1.0) < 1e-10
