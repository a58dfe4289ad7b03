import math

import numpy as np
import pytest

from cusplab.polymat import IndicialFamily


def scalar_family(*coeffs):
    """The 1 x 1 family with coefficients coeffs[k] of lam^k."""
    return IndicialFamily(np.array(coeffs, dtype=complex).reshape(-1, 1, 1))


def jordan_family(k, c):
    """The k x k Jordan block lam - c: lam - c on the diagonal, ones on the
    superdiagonal."""
    return IndicialFamily(np.stack([-c * np.eye(k) + np.eye(k, k=1), np.eye(k)]))


@pytest.fixture
def determinant_calls(monkeypatch):
    """List that collects the family of every IndicialFamily.determinant
    call made while the test runs."""
    calls = []
    original = IndicialFamily.determinant

    def determinant(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(IndicialFamily, "determinant", determinant)
    return calls


@pytest.fixture
def annihilation_residual():
    """Callable (fam, lam0, k, vector, tail=()) -> exact relative residual of
    the profile u = e^{lam0 r} (r^k vector + sum over tail of r^j v_j).

    Writing u = e^{lam0 r} sum_j c_j r^j, Taylor's formula gives
    P(d/dr) u = e^{lam0 r} sum_i P^(i)(lam0)/i! (d/dr)^i sum_j c_j r^j, so the
    coefficient of r^n in e^{-lam0 r} P(d/dr) u is
    sum_i P^(i)(lam0)/i! (n+i)!/n! c_{n+i}.  Returns the largest of those
    coefficients' moduli over max_j |c_j|.
    """

    def residual(fam, lam0, k, vector, tail=()):
        c = np.zeros((k + 1, fam.shape[1]), dtype=complex)
        c[k] = vector
        for j, v in tail:
            c[j] += v
        deg = fam.degree
        taylor = [
            sum(math.comb(d, i) * lam0 ** (d - i) * fam.coeffs[d] for d in range(i, deg + 1))
            for i in range(deg + 1)
        ]
        coeffs = [
            sum(math.perm(n + i, i) * taylor[i] @ c[n + i] for i in range(min(deg, k - n) + 1))
            for n in range(k + 1)
        ]
        return np.max(np.abs(coeffs)) / np.max(np.abs(c))

    return residual
