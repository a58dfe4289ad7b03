import numpy as np
import pytest

from cusplab.circlefiber import (
    circle_grid,
    default_fiber_tests,
    gradient_family_apply,
    gradient_indicial_roots,
    inverse_conditioning_exponent,
    left_inverse_apply,
    sphere_fibered_inverse_check,
)
from cusplab.errors import InvalidInputError


def test_constant_function_inverts_exactly():
    res = sphere_fibered_inverse_check(2.0)
    assert res <= 1e-12


def test_cos_fiber_angle_complex_parameter():
    # direct check on a single harmonic at lam = 1 + i
    phi = circle_grid()
    f = np.cos(phi).astype(complex)
    triple = gradient_family_apply(1.0 + 1.0j, f, phi)
    back = left_inverse_apply(1.0 + 1.0j, triple)
    assert np.max(np.abs(back - f)) <= 1e-10


def test_vertical_and_slice_components_are_fiber_derivative():
    # oracle: analytic derivative of the test harmonics
    phi = circle_grid()
    f = np.sin(3 * phi)
    triple = gradient_family_apply(0.7, f, phi)
    want = 3 * np.cos(3 * phi)
    assert np.max(np.abs(triple[0] - want)) <= 1e-10
    assert np.max(np.abs(triple[2] - want)) <= 1e-10


def test_random_parameters_above_half_invert():
    rng = np.random.default_rng(123)
    for _ in range(20):
        lam = rng.uniform(0.5, 5.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        res = sphere_fibered_inverse_check(lam)
        assert res <= 1e-10


def test_left_inverse_rejected_at_root():
    with pytest.raises(InvalidInputError):
        sphere_fibered_inverse_check(0.0)


def test_conditioning_blowup_rate_is_inverse_lambda():
    slope, points = inverse_conditioning_exponent()
    assert len(points) >= 4
    assert abs(slope + 1.0) <= 0.05


def test_perturbation_scales_linearly():
    a = sphere_fibered_inverse_check(0.01, perturbation=1e-12)
    b = sphere_fibered_inverse_check(0.01, perturbation=1e-10)
    assert abs(b / a - 100.0) <= 1.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gradient_root_is_exactly_zero(d):
    roots, cert = gradient_indicial_roots(d)
    assert roots == [0.0]
    # every block beyond the constants is certified coercive
    for row in cert:
        if row["degree"] == 0:
            assert row["kernel_dim"] == 1
        assert row["min_positive_eig"] is None or row["min_positive_eig"] > 0.1


# per block degree 0..6: (dim, kernel_dim, min_positive_eig)
_CERTIFICATES = {
    1: [
        (1, 1, None), (2, 0, 1.9999999999999996), (3, 1, 7.999999999999996),
        (4, 0, 2.0000000000000004), (5, 1, 7.999999999999995),
        (6, 0, 1.9999999999999956), (7, 1, 7.999999999999991),
    ],
    2: [
        (1, 1, None), (3, 0, 3.0000000000000004), (6, 1, 7.999999999999993),
        (10, 0, 2.9999999999999956), (15, 1, 7.999999999999989),
        (21, 0, 3.0000000000000036), (28, 1, 8.000000000000009),
    ],
    3: [
        (1, 1, None), (4, 0, 3.9999999999999982), (10, 1, 9.999999999999984),
        (20, 0, 4.0), (35, 1, 9.999999999999982),
        (56, 0, 3.9999999999999716), (84, 1, 10.000000000000004),
    ],
}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gradient_certificate_rows_are_pinned(d):
    _, cert = gradient_indicial_roots(d)
    assert [row["degree"] for row in cert] == list(range(7))
    for row, (dim, kernel_dim, eig) in zip(cert, _CERTIFICATES[d]):
        assert (row["dim"], row["kernel_dim"]) == (dim, kernel_dim)
        if eig is None:
            assert row["min_positive_eig"] is None
        else:
            assert abs(row["min_positive_eig"] - eig) <= 1e-12


def test_circle_blocks_match_fourier_eigenvalues():
    # d=1 oracle: on the n-th circle harmonic the derivative part has
    # squared norm 2 n^2 (vertical + slice rotation each contribute n^2)
    _, cert = gradient_indicial_roots(1)
    by_degree = {row["degree"]: row for row in cert}
    # degree-l monomial space on the circle contains harmonics n = l, l-2, ...
    # so the smallest positive derivative eigenvalue at degree l is 2*1^2 for
    # odd l and 2*2^2 for even l >= 2
    for degree, row in by_degree.items():
        if degree == 0:
            continue
        want = 2.0 if degree % 2 else 8.0
        assert abs(row["min_positive_eig"] - want) <= 1e-8


def test_fiber_test_family_is_bandlimited():
    phi = circle_grid()
    for f in default_fiber_tests(phi):
        spec = np.fft.fft(np.asarray(f, complex))
        hi = np.abs(spec[10 : 256 - 9])
        assert np.max(hi) <= 1e-10 * max(np.max(np.abs(spec)), 1e-300)
