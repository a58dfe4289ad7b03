"""Closed-form test fields on the cusp chart.

These carry exact partial derivatives, so symmetric derivatives evaluate
without grid discretization error: the route used by the quadrature-only
X-ray experiments and as the reference for grid convergence studies.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .modezero import bump as _bump
from .tensorfield import SymTensorField


def _bump_prime(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    x = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - x * x)) * (-2.0 * x / (1.0 - x * x) ** 2)
    return out


def _wrap(dt):
    return (np.asarray(dt, dtype=float) + 0.5) % 1.0 - 0.5


@dataclass(frozen=True)
class Scalar2D:
    """A chart scalar with closed-form value and first partials."""

    val: callable
    d_r: callable
    d_t: callable

    def __call__(self, r, t):
        return self.val(r, t)

    @staticmethod
    def bump(r0, t0, r_width, t_width):
        """Compactly supported product bump centered at (r0, theta0);
        support is the coordinate box of the given half-widths (theta
        periodic)."""
        if not (0 < t_width < 0.5):
            raise InvalidInputError("theta half-width must lie in (0, 1/2)")

        def val(r, t):
            return _bump((r - r0) / r_width) * _bump(_wrap(t - t0) / t_width)

        def d_r(r, t):
            return (
                _bump_prime((r - r0) / r_width)
                / r_width
                * _bump(_wrap(t - t0) / t_width)
            )

        def d_t(r, t):
            return (
                _bump((r - r0) / r_width)
                * _bump_prime(_wrap(t - t0) / t_width)
                / t_width
            )

        return Scalar2D(val, d_r, d_t)

    @staticmethod
    def trig(freq_r, freq_t, phase=0.0):
        """cos(freq_r * r + 2 pi freq_t * theta + phase); freq_t integer."""
        w = 2.0 * np.pi * freq_t

        def val(r, t):
            return np.cos(freq_r * r + w * t + phase)

        def d_r(r, t):
            return -freq_r * np.sin(freq_r * r + w * t + phase)

        def d_t(r, t):
            return -w * np.sin(freq_r * r + w * t + phase)

        return Scalar2D(val, d_r, d_t)

    def __mul__(self, other):
        if isinstance(other, Scalar2D):
            return Scalar2D(
                lambda r, t: self.val(r, t) * other.val(r, t),
                lambda r, t: self.d_r(r, t) * other.val(r, t)
                + self.val(r, t) * other.d_r(r, t),
                lambda r, t: self.d_t(r, t) * other.val(r, t)
                + self.val(r, t) * other.d_t(r, t),
            )
        c = float(other)
        return Scalar2D(
            lambda r, t: c * self.val(r, t),
            lambda r, t: c * self.d_r(r, t),
            lambda r, t: c * self.d_t(r, t),
        )

    __rmul__ = __mul__

    def __add__(self, other):
        return Scalar2D(
            lambda r, t: self.val(r, t) + other.val(r, t),
            lambda r, t: self.d_r(r, t) + other.d_r(r, t),
            lambda r, t: self.d_t(r, t) + other.d_t(r, t),
        )


def random_trig(rng, kmax_r=3.0, kmax_t=3):
    """Random low-frequency trigonometric polynomial (band-limited)."""
    terms = []
    for _ in range(4):
        fr = rng.uniform(-kmax_r, kmax_r)
        ft = rng.integers(-kmax_t, kmax_t + 1)
        amp = rng.normal() / 2.0
        terms.append(amp * Scalar2D.trig(fr, int(ft), rng.uniform(0, 2 * np.pi)))
    out = terms[0]
    for s in terms[1:]:
        out = out + s
    return out


@dataclass(frozen=True)
class AnalyticOneForm:
    """1-form with closed-form orthonormal-frame components."""

    a: Scalar2D
    b: Scalar2D

    def components(self, r, t):
        return np.stack([self.a(r, t), self.b(r, t)])

    def pullback(self, r, t, p_hat, q_hat):
        comps = self.components(r, t)
        return comps[0] * p_hat + comps[1] * q_hat

    def sym_derivative(self):
        """Exact symmetric derivative via the frame formulas."""
        a, b = self.a, self.b

        def s_val(r, t):
            return a.d_r(r, t)

        def t_val(r, t):
            return np.exp(r) * b.d_t(r, t) - a(r, t)

        def x_val(r, t):
            return 0.5 * (b.d_r(r, t) + np.exp(r) * a.d_t(r, t) + b(r, t))

        return AnalyticSymTensor(s_val, t_val, x_val)

    def sample(self, grid):
        return SymTensorField.sample(grid, 1, self.a, self.b)


@dataclass(frozen=True)
class AnalyticSymTensor:
    """Symmetric 2-tensor with closed-form components (s, t, x)."""

    s: callable
    t: callable
    x: callable

    def components(self, r, t):
        return np.stack([self.s(r, t), self.t(r, t), self.x(r, t)])

    def pullback(self, r, t, p_hat, q_hat):
        return (
            self.s(r, t) * p_hat**2
            + self.t(r, t) * q_hat**2
            + 2.0 * self.x(r, t) * p_hat * q_hat
        )

    def sample(self, grid):
        return SymTensorField.sample(grid, 2, self.s, self.t, self.x)


def random_bump_one_form(seed, center, r_width=0.45, t_width=0.12, kmax_t=3):
    """Band-limited compactly supported random 1-form for the X-ray
    experiments; the support box is centered at (r0, theta0)."""
    rng = np.random.default_rng(seed)
    r0, t0 = center
    env = Scalar2D.bump(r0, t0, r_width, t_width)
    return AnalyticOneForm(
        a=env * random_trig(rng, kmax_t=kmax_t),
        b=env * random_trig(rng, kmax_t=kmax_t),
    )
