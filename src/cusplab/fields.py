"""Closed-form test fields on the cusp chart.

Each scalar carries its value and its 1-jet (the value with its first
partials), so symmetric derivatives evaluate without grid discretization
error: the route used by the quadrature-only X-ray experiments and as the
reference for grid convergence studies.  A jet evaluates each factor once;
values alone take no derivative work.  Products and bumps skip their
zero set (see ``_on_support``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .modezero import bump as _bump
from .tensorfield import SymTensorField, _contract, _frame_sym_derivative


def _bump_prime(t, b):
    """Derivative of the bump at t, given its values b = _bump(t)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    x = t[inside]
    out[inside] = b[inside] * (-2.0 * x / (1.0 - x * x) ** 2)
    return out


def _wrap(dt):
    return (np.asarray(dt, dtype=float) + 0.5) % 1.0 - 0.5


def _on_support(lead, rest, r, t):
    """The arrays ``rest(r, t, *lead(r, t))`` on the common shape of r, t and
    lead's arrays: lead sees r and t as given (on broadcastable axes a factor
    of r alone runs once per row), rest only the points where some array of
    lead is nonzero, and the result is 0 elsewhere.

    Precondition: each output of ``rest`` is a sum of products of lead's
    arrays with factors that are finite at every point (bumps, trigs and
    constants are), so it is 0 wherever lead's arrays all are.  The result
    then equals the plain formula value for value, and off lead's support it
    costs lead alone.
    """
    r, t = np.asarray(r, dtype=float), np.asarray(t, dtype=float)
    parts = lead(r, t)
    shape = np.broadcast_shapes(r.shape, t.shape, *(np.shape(x) for x in parts))
    r, t, *parts = (np.broadcast_to(x, shape) for x in (r, t, *parts))
    on = parts[0] != 0
    for x in parts[1:]:
        on |= x != 0
    outs = []
    for y in rest(r[on], t[on], *(x[on] for x in parts)):
        full = np.zeros(shape, dtype=np.result_type(y))
        full[on] = y
        outs.append(full)
    return outs


@dataclass(frozen=True)
class Scalar2D:
    """A chart scalar with its closed-form value and 1-jet: ``jet(r, t)``
    returns (f, d_r f, d_theta f), evaluating each factor once."""

    val: callable
    jet: callable

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
            return _on_support(
                lambda r, t: (_bump((r - r0) / r_width),),
                lambda r, t, bx: (bx * _bump(_wrap(t - t0) / t_width),),
                r,
                t,
            )[0]

        def jet(r, t):
            x = (r - r0) / r_width
            y = _wrap(t - t0) / t_width
            bx, by = _bump(x), _bump(y)
            return bx * by, _bump_prime(x, bx) / r_width * by, bx * _bump_prime(y, by) / t_width

        return Scalar2D(val, jet)

    @staticmethod
    def trig(freq_r, freq_t, phase):
        """cos(freq_r * r + 2 pi freq_t * theta + phase); freq_t integer."""
        w = 2.0 * np.pi * freq_t

        def val(r, t):
            return np.cos(freq_r * r + w * t + phase)

        def jet(r, t):
            arg = freq_r * r + w * t + phase
            sin = np.sin(arg)
            return np.cos(arg), -freq_r * sin, -w * sin

        return Scalar2D(val, jet)

    def __mul__(self, other):
        """Product with another scalar or a constant; the right scalar is
        evaluated only where the left one's value (or 1-jet) is nonzero."""
        if isinstance(other, Scalar2D):

            def val(r, t):
                return _on_support(
                    lambda r, t: (self.val(r, t),),
                    lambda r, t, f: (f * other.val(r, t),),
                    r,
                    t,
                )[0]

            def rest(r, t, f, f_r, f_t):
                g, g_r, g_t = other.jet(r, t)
                return f * g, f_r * g + f * g_r, f_t * g + f * g_t

            return Scalar2D(val, lambda r, t: tuple(_on_support(self.jet, rest, r, t)))
        c = float(other)

        def scaled_jet(r, t):
            f, f_r, f_t = self.jet(r, t)
            return c * f, c * f_r, c * f_t

        return Scalar2D(lambda r, t: c * self.val(r, t), scaled_jet)

    __rmul__ = __mul__

    def __add__(self, other):
        def jet(r, t):
            f, f_r, f_t = self.jet(r, t)
            g, g_r, g_t = other.jet(r, t)
            return f + g, f_r + g_r, f_t + g_t

        return Scalar2D(lambda r, t: self.val(r, t) + other.val(r, t), jet)


def _random_trig(rng):
    """Random low-frequency trigonometric polynomial (band-limited): four
    terms with radial frequency in [-3, 3] and theta frequency in -3..3."""
    terms = []
    for _ in range(4):
        fr = rng.uniform(-3.0, 3.0)
        ft = rng.integers(-3, 4)
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

    def pullback(self, r, t, p_hat, q_hat):
        return _contract((self.a(r, t), self.b(r, t)), p_hat, q_hat)

    def sym_derivative(self):
        """Exact symmetric derivative via the frame formulas."""
        return AnalyticSymTensor(self)

    def sample(self, grid):
        return SymTensorField.sample(grid, 1, self.a, self.b)


@dataclass(frozen=True)
class AnalyticSymTensor:
    """Symmetric derivative of a closed-form 1-form, whose components
    (s, t, x) come from one jet of each of the form's components."""

    form: AnalyticOneForm

    def pullback(self, r, t, p_hat, q_hat):
        jets = self.form.a.jet(r, t), self.form.b.jet(r, t)
        d_r, d_t = (lambda i: jets[i][1]), (lambda i: jets[i][2])
        comps = _frame_sym_derivative(jets[0][0], jets[1][0], d_r, d_t, np.exp(r))
        return _contract(comps, p_hat, q_hat)


def random_bump_one_form(seed, center, r_width, t_width):
    """Band-limited compactly supported random 1-form for the X-ray
    experiments; the support box is centered at (r0, theta0)."""
    rng = np.random.default_rng(seed)
    r0, t0 = center
    env = Scalar2D.bump(r0, t0, r_width, t_width)
    return AnalyticOneForm(
        a=env * _random_trig(rng),
        b=env * _random_trig(rng),
    )
