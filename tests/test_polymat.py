import numpy as np
import pytest

from cusplab.errors import DegenerateOperatorError, InvalidInputError, NumericFailureError
from cusplab.operators import (
    divergence_spec,
    identity_spec,
    indicial_family,
    sym_derivative_spec,
    sym_laplacian_spec,
)
from cusplab.polymat import (
    _GENERIC,
    IndicialFamily,
    adjoint_family,
    indicial_roots,
    transpose_family,
)
from cusplab.residues import root_report

RNG = np.random.default_rng(20240811)


def laplacian_root_set(d):
    half = np.sqrt(d + d * d / 4.0)
    return sorted([-1.0, float(d + 1), d / 2.0 - half, d / 2.0 + half])


def rng3_quadratic():
    # the second default_rng(3) 3x3 quadratic: fraction-free elimination of
    # its determinant polynomial loses exactness in floating point
    rng = np.random.default_rng(3)
    rng.normal(size=(3, 3, 3))
    return IndicialFamily(rng.normal(size=(3, 3, 3)))


def jordan_family(k, c):
    # lam - c on the diagonal, ones on the superdiagonal
    return IndicialFamily(np.stack([-c * np.eye(k) + np.eye(k, k=1), np.eye(k)]))


def sv_ratio(a):
    sv = np.linalg.svd(a, compute_uv=False)
    return sv[-1] / sv[0]


# ---------------------------------------------------------------------------
# determinant zeros against a pointwise numeric oracle
# ---------------------------------------------------------------------------


def test_determinant_zeros_factor_numeric_det():
    # oracle: numpy det at sample points divided by prod (lam - lam_i)^m_i
    # is the determinant's constant factor, the same at every point
    for fam in (IndicialFamily(RNG.normal(size=(3, 4, 4))), rng3_quadratic()):
        zeros = fam.determinant()
        assert sum(m for _, m in zeros) == fam.degree * fam.shape[0]
        lams = RNG.normal(size=7) + 1j * RNG.normal(size=7)
        consts = [
            np.linalg.det(fam(lam)) / np.prod([(lam - z) ** m for z, m in zeros])
            for lam in lams
        ]
        assert np.allclose(consts, consts[0], rtol=1e-9, atol=0.0)


def test_generic_quadratic_roots_are_rank_drops():
    fam = rng3_quadratic()
    roots = indicial_roots(fam)
    assert len(roots) == 6
    assert max(sv_ratio(fam(r.lam)) for r in roots) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_jordan_block_is_one_root_of_full_multiplicity(k):
    roots = indicial_roots(jordan_family(k, 0.2))
    assert len(roots) == 1
    assert roots[0].multiplicity == k
    assert abs(roots[0].lam - 0.2) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_scalar_power_is_one_root_of_its_order(k):
    # (lam - 1/2)^k from its expanded coefficients: the companion
    # eigenvalues scatter up to ~1e-3, the contour gathers them
    fam = IndicialFamily(np.polynomial.polynomial.polypow([-0.5, 1.0], k).reshape(-1, 1, 1))
    ((lam, order),) = fam.determinant()
    assert order == k
    assert abs(lam - 0.5) < 1e-9


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_zero_of_a_real_scalar_power_is_real(k):
    # a real family's zeros pair with their conjugates, so the contour that
    # holds the one zero of (lam - 1/2)^k and its conjugate holds a real
    # zero; at k = 5 the contour mean reads Im -4.9e-11
    fam = IndicialFamily(np.polynomial.polynomial.polypow([-0.5, 1.0], k).reshape(-1, 1, 1))
    ((lam, _),) = fam.determinant()
    assert lam.imag == 0.0


def test_complex_family_keeps_the_imaginary_part_of_its_zero():
    fam = IndicialFamily(np.array([-(0.5 + 1e-13j), 1.0]).reshape(2, 1, 1))
    ((lam, order),) = fam.determinant()
    assert order == 1
    assert abs(lam - (0.5 + 1e-13j)) < 1e-15


def test_root_at_the_first_shift_falls_back_to_the_second():
    # the family is singular at _GENERIC[0], so the pencil is inverted at
    # _GENERIC[1]
    sigma = _GENERIC[0]
    fam = IndicialFamily(np.stack([np.diag([-sigma, -0.3]), np.eye(2)]))
    assert sv_ratio(fam(sigma)) == 0.0
    zeros = fam.determinant()
    assert [k for _, k in zeros] == [1, 1]
    assert np.allclose([z for z, _ in zeros], [0.3, sigma], rtol=0.0, atol=1e-14)


def test_singular_leading_coefficient_keeps_the_finite_roots():
    # [[lam^2 - 3 lam + 2, lam], [0, lam - 4]]: leading coefficient
    # diag(1, 0), determinant (lam - 1)(lam - 2)(lam - 4)
    c = np.zeros((3, 2, 2))
    c[0] = [[2.0, 0.0], [0.0, -4.0]]
    c[1] = [[-3.0, 1.0], [0.0, 1.0]]
    c[2] = [[1.0, 0.0], [0.0, 0.0]]
    zeros = IndicialFamily(c).determinant()
    assert [k for _, k in zeros] == [1, 1, 1]
    assert np.allclose([z for z, _ in zeros], [1.0, 2.0, 4.0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("deg", [1, 2, 3, 4])
def test_jordan_chain_at_infinity_leaves_the_finite_roots(deg):
    # [[1, lam^deg], [0, 1]] diag(lam - 0.3, lam + 0.7): the unimodular
    # factor keeps the determinant and puts a chain of infinite eigenvalues
    # into the linearization, which must not surface as finite ones
    unimodular = np.zeros((deg + 1, 2, 2))
    unimodular[0] = np.eye(2)
    unimodular[deg, 0, 1] = 1.0
    fam = IndicialFamily(unimodular).compose(
        IndicialFamily(np.stack([np.diag([-0.3, 0.7]), np.eye(2)]))
    )
    zeros = fam.determinant()
    assert [k for _, k in zeros] == [1, 1]
    assert np.allclose([z for z, _ in zeros], [-0.7, 0.3], rtol=0.0, atol=1e-12)


def test_close_simple_roots_are_split():
    # 4.8e-3 apart: one contour of radius 1e-2 holds both
    fam = IndicialFamily(np.stack([np.diag([-0.5, -0.5048]), np.eye(2)]))
    roots = indicial_roots(fam)
    assert [r.multiplicity for r in roots] == [1, 1]
    assert abs(roots[0].lam - 0.5) < 1e-12
    assert abs(roots[1].lam - 0.5048) < 1e-12


def test_separated_roots_beyond_the_link_radius_stay_apart():
    # 0.03 apart link (reach 1e-2 * 5.03) but one 1e-2 contour misses both
    fam = IndicialFamily(np.stack([np.diag([-5.0, -5.03]), np.eye(2)]))
    roots = indicial_roots(fam)
    assert [r.multiplicity for r in roots] == [1, 1]
    assert abs(roots[0].lam - 5.0) < 1e-12
    assert abs(roots[1].lam - 5.03) < 1e-12


@pytest.mark.parametrize(
    "fam, zeros",
    [
        # (lam - a)^2 -+ delta^2: a +- delta and a +- i delta, no spread
        (
            IndicialFamily(
                np.stack(
                    [np.diag([0.25 - 9e-6, 0.25 + 9e-6]), -np.eye(2), np.eye(2)]
                )
            ),
            [0.5 - 3e-3, 0.5 - 3e-3j, 0.5 + 3e-3j, 0.5 + 3e-3],
        ),
        # lam^3 - eps^3: the cube roots of eps^3, no spread
        (
            IndicialFamily(np.array([-(5e-3**3), 0.0, 0.0, 1.0]).reshape(4, 1, 1)),
            sorted(
                5e-3 * np.exp(2j * np.pi * np.arange(3) / 3), key=lambda z: (z.real, z.imag)
            ),
        ),
    ],
    ids=["square-diamond", "cube-roots"],
)
def test_symmetric_close_roots_are_split(fam, zeros):
    # central power sums beyond the second tell these from one multiple zero
    roots = indicial_roots(fam)
    assert [r.multiplicity for r in roots] == [1] * len(zeros)
    assert np.allclose([r.lam for r in roots], zeros, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "moments, message",
    [((2.5, 0.0, 0.0), "non-integer"), ((2.0, 0.0, 0.0), "cannot resolve")],
    ids=["non-integer", "size-mismatch"],
)
def test_bad_zero_count_is_numeric_failure(monkeypatch, moments, message):
    # a scalar (lam - 0.3): one eigenvalue, whose contour is made to count
    # a fraction, or two zeros
    fam = IndicialFamily(np.array([-0.3, 1.0]).reshape(2, 1, 1))
    monkeypatch.setattr(
        IndicialFamily, "_zero_moments", lambda self, c, rad, kmax: np.array(moments)
    )
    with pytest.raises(NumericFailureError, match=message) as info:
        fam.determinant()
    assert info.value.diagnostics["eigenvalues"] == [pytest.approx(0.3)]
    assert info.value.diagnostics["count"] == moments[0]


def rank2_family(seed, deg):
    # U(lam) V(lam) with U 3x2 and V 2x3 of degree deg: rank 2 everywhere
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(deg + 1, 3, 2))
    v = rng.normal(size=(deg + 1, 2, 3))
    c = np.zeros((2 * deg + 1, 3, 3))
    for i in range(deg + 1):
        for j in range(deg + 1):
            c[i + j] += u[i] @ v[j]
    return IndicialFamily(c)


def test_identically_singular_family_raises():
    singular = [
        IndicialFamily(np.ones((1, 2, 2))),
        IndicialFamily(np.stack([-np.ones((2, 2)), np.ones((2, 2))])),
        IndicialFamily(np.stack([np.ones((2, 2)), 2 * np.ones((2, 2)), np.ones((2, 2))])),
        rank2_family(22, 2),
    ]
    for fam in singular:
        with pytest.raises(DegenerateOperatorError):
            indicial_roots(fam)


def test_wide_family_is_invalid_input():
    fam = IndicialFamily(RNG.normal(size=(2, 2, 3)))
    with pytest.raises(InvalidInputError):
        indicial_roots(fam)


def test_odd_order_at_tall_rank_drop_is_numeric_failure(monkeypatch):
    # a rank drop of A is a zero of det(A^T A) of even order
    fam = indicial_family(sym_derivative_spec(1))
    monkeypatch.setattr(IndicialFamily, "determinant", lambda self: [(-1.0 + 0j, 3)])
    with pytest.raises(NumericFailureError) as info:
        indicial_roots(fam)
    assert info.value.diagnostics["order"] == 3


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
    ident = IndicialFamily(np.eye(3)[None])
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
        roots = indicial_roots(transpose_family(adj), window=(-50, 50))
        assert len(roots) == 1
        assert abs(roots[0].lam - (d + 1.0)) < 1e-9


def test_adjoint_identity_is_identity():
    fam = IndicialFamily(np.eye(3)[None])
    adj = adjoint_family(fam, 1)
    assert np.allclose(adj.coeffs, fam.coeffs)


def test_root_polish_handles_high_multiplicity():
    # (lam+1)^3 as a scalar family; companion roots alone scatter ~1e-5
    roots = indicial_roots(IndicialFamily(np.array([1.0, 3.0, 3.0, 1.0]).reshape(4, 1, 1)))
    assert len(roots) == 1
    assert roots[0].multiplicity == 3
    assert abs(roots[0].lam + 1.0) < 1e-10
