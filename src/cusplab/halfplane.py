"""Upper half-plane hyperbolic geometry: Moebius maps and geodesics."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

_IDENTITY_TOL = 1e-9
_DET_TOL = 1e-12


@dataclass(frozen=True)
class MobiusMap:
    """A unit-determinant 2x2 real matrix acting on the upper half-plane."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=float)
        if m.shape != (2, 2):
            raise InvalidInputError("Moebius map needs a 2x2 matrix")

        def _det(mm):
            # extended precision avoids the ad - bc cancellation for
            # large-entry words, keeping the unit-determinant check tight
            e = mm.astype(np.longdouble)
            return e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]

        det = _det(m)
        if det <= 0:
            raise InvalidInputError("matrix must have positive determinant")
        m = (m.astype(np.longdouble) / np.sqrt(det)).astype(float)
        # double rounding of large entries floors the achievable determinant
        # accuracy at ~eps * |entries|^2, so the unit tolerance is scale-aware
        tol = max(_DET_TOL, 16 * np.finfo(float).eps * float(np.max(np.abs(m))) ** 2)
        if abs(_det(m) - 1.0) > tol:
            raise InvalidInputError(
                f"determinant {float(_det(m))} not 1 after renormalization"
            )
        object.__setattr__(self, "mat", m)

    @classmethod
    def identity(cls):
        return cls(np.eye(2))

    def apply(self, z):
        a, b = self.mat[0]
        c, d = self.mat[1]
        z = np.asarray(z, dtype=complex)
        return (a * z + b) / (c * z + d)

    __call__ = apply

    def derivative(self, z):
        c, d = self.mat[1]
        z = np.asarray(z, dtype=complex)
        return 1.0 / (c * z + d) ** 2

    def inverse(self):
        a, b = self.mat[0]
        c, d = self.mat[1]
        return MobiusMap(np.array([[d, -b], [-c, a]]))

    def __matmul__(self, other):
        return MobiusMap(self.mat @ other.mat)

    @property
    def trace(self):
        return float(self.mat[0, 0] + self.mat[1, 1])

    def is_identity(self):
        """Whether every entry lies within _IDENTITY_TOL of the identity's,
        or of its negative's (the same map)."""
        eye = np.eye(2)
        dev = min(np.max(np.abs(self.mat - eye)), np.max(np.abs(self.mat + eye)))
        return bool(dev <= _IDENTITY_TOL)

    def classify(self):
        """'identity', 'parabolic' (|tr| = 2 within roundoff), 'hyperbolic'
        (|tr| > 2) or 'elliptic' (|tr| < 2).

        The trace of a product of matrices is exact only to about
        eps ||M||_F^2, so |tr| - 2 is read against max(1e-12,
        16 eps ||M||_F^2), the determinant check's pattern: the punctured
        torus's 80 parabolic words up to length 8 read at most
        3.3 eps ||M||_F^2, its commutator from generators typed to 14
        significant digits 2.4e-13, and diag(1 + 5e-6, 1 / (1 + 5e-6)), with
        |tr| - 2 = 2.5e-11, is hyperbolic.  A trace between that tolerance
        and 1e-11 of +-2 is ambiguous and raises InvalidInputError: typed to
        13 digits, that commutator reads 2.4e-12 in some rotations."""
        if self.is_identity():
            return "identity"
        t = abs(self.trace)
        tol = max(_DET_TOL, 16 * np.finfo(float).eps * float(np.sum(self.mat * self.mat)))
        if abs(t - 2.0) <= tol:
            return "parabolic"
        if abs(t - 2.0) <= 1e-11:
            raise InvalidInputError(
                f"ambiguous trace: |tr| - 2 = {t - 2.0:.2g}, above the roundoff tolerance "
                f"{tol:.2g} but within 1e-11 (matrices given to fewer than 14 digits?)"
            )
        return "hyperbolic" if t > 2.0 else "elliptic"

    def translation_length(self):
        t = abs(self.trace)
        if t <= 2.0:
            raise InvalidInputError("translation length needs a hyperbolic map")
        return 2.0 * np.arccosh(t / 2.0)

    def fixed_points(self):
        """Real axis fixed points of a hyperbolic map, (repelling, attracting)."""
        if self.classify() != "hyperbolic":
            raise InvalidInputError("fixed points on the boundary need a hyperbolic map")
        a, b = self.mat[0]
        c, d = self.mat[1]
        if abs(c) < 1e-14:
            raise InvalidInputError(
                "hyperbolic map fixing infinity has no boundary pair in this chart"
            )
        disc = np.sqrt(self.trace**2 - 4.0)
        p1 = (a - d + disc) / (2 * c)
        p2 = (a - d - disc) / (2 * c)
        # attracting fixed point has |derivative| < 1
        if abs(self.derivative(p1)) < 1.0:
            return p2, p1
        return p1, p2


def hyperbolic_distance(z, w):
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    q = 1.0 + np.abs(z - w) ** 2 / (2.0 * z.imag * w.imag)
    return np.arccosh(q)


@dataclass(frozen=True)
class BoundaryGeodesic:
    """Unit-speed geodesic running from boundary point ``u`` to ``v``.

    Realized as the image of the imaginary axis under the positive-
    determinant map w -> (v w + k u)/(w + k) with k = sign(v - u); the
    parameter is hyperbolic arc length with 0 at the image of i.
    """

    u: float
    v: float

    @property
    def _k(self):
        return 1.0 if self.v > self.u else -1.0

    def point(self, t):
        w = 1j * np.exp(np.asarray(t, dtype=float))
        k = self._k
        return (self.v * w + k * self.u) / (w + k)

    def tangent(self, t):
        w = 1j * np.exp(np.asarray(t, dtype=float))
        k = self._k
        return k * (self.v - self.u) / (w + k) ** 2 * w

    def point_and_tangent(self, t):
        return self.point(t), self.tangent(t)
