"""Convolution operators on the weighted line via Fourier transform.

On the zero Fourier mode of a cusp, an admissible operator acts as a
convolution in r = log y.  Conjugating by the weight e^{rho r} and taking
the discrete Fourier transform turns application and inversion into
pointwise matrix algebra on the frequency grid; contour shifts between
weight lines produce exponential-polynomial corrections carried by the
residues of the inverse family.
"""

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, InvalidWeightError, ResolutionError
from .polymat import _contour_moments, _contour_nodes, indicial_roots
from .residues import AsymptoticElement, _principal_part, crossed_roots, meromorphic_inverse

_ALIAS_TOL = 1e-10
_NEAR_ROOT_GUARD = 1e-3
# smooth cutoff window: 1 on |r| <= 0.8 r_half, 0 beyond 0.9 r_half
_WINDOW_FLAT = 0.8
_WINDOW_ZERO = 0.9
# tail fits keep to the window's flat region and to nodes whose norm lies
# in this band relative to the peak
_TAIL_BAND = (1e-11, 1e-2)


# ---------------------------------------------------------------------------
# fields on the r-line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeZeroField:
    """Vector-valued samples on a uniform periodic r-grid.

    ``samples[k, i]`` holds component i of the *weighted representative*
    e^{-weight r} u(r) at the k-th node, which stays bounded when u grows
    like e^{weight r}.  A non-finite sample raises InvalidInputError.
    """

    r0: float
    dr: float
    samples: np.ndarray
    weight: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim == 1:
            s = s[:, None]
        if s.shape[0] < 64:
            raise InvalidInputError("mode-zero grid needs at least 64 samples")
        bad = int(np.count_nonzero(~np.isfinite(s)))
        if bad:
            msg = f"mode-zero field at weight {self.weight}: {bad} non-finite samples"
            raise InvalidInputError(msg, diagnostics={"non_finite": bad})
        object.__setattr__(self, "samples", s)

    @property
    def grid(self):
        return self.r0 + self.dr * np.arange(self.samples.shape[0])

    @property
    def ncomp(self):
        return self.samples.shape[1]

    def values(self):
        """Unweighted samples of the actual function u(r)."""
        return _times_exp(self.samples, self.grid, self.weight)

    def with_weight(self, rho):
        """Re-express the same function relative to another weight."""
        samples = _times_exp(self.samples, self.grid, self.weight - rho)
        return replace(self, samples=samples, weight=rho)

    def __sub__(self, other):
        o = other.with_weight(self.weight)
        return replace(self, samples=self.samples - o.samples)

    def frequencies(self):
        """Angular frequencies of the samples' discrete Fourier transform."""
        return _angular_frequencies(self.samples.shape[0], self.dr)

    def check_aliasing(self, tol, what):
        """Raise ResolutionError when more than the fraction ``tol`` of the
        spectral energy lies within n/10 bins of the Nyquist frequency;
        otherwise return the spectrum checked (the samples' FFT along r)."""
        spec = np.fft.fft(self.samples, axis=0)
        n = spec.shape[0]
        band = max(n // 10, 1)
        tail = np.sum(np.abs(spec[n // 2 - band : n // 2 + band]) ** 2)
        total = np.sum(np.abs(spec) ** 2)
        if total > 0 and tail > tol * total:
            raise ResolutionError(
                f"{what}: spectral tail fraction {tail / total:.2e} exceeds {tol}",
                diagnostics={"tail_fraction": float(tail / total)},
            )
        return spec


def _times_exp(samples, r, k):
    """samples * e^{k r} row by row, at the nonzero samples only: a zero stays
    zero where e^{k r} overflows, an overflowing nonzero sample turns infinite
    (ModeZeroField rejects it), and no floating-point warning is raised."""
    out = samples.copy()
    nz = np.nonzero(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        out[nz] = samples[nz] * np.exp(k * r[nz[0]])
    return out


def line_grid(r_half, n):
    """Symmetric periodic grid on [-r_half, r_half); includes r = 0."""
    dr = 2.0 * r_half / n
    return -r_half, dr


def smooth_step(t):
    """C-infinity step: 0 for t<=0, 1 for t>=1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fa = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        fb = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return fa / (fa + fb)


def window_profile(grid):
    """Smooth bump on the grid: 1 on |r| <= 0.8 r_half, 0 beyond
    0.9 r_half, with r_half the grid's largest |r|."""
    r_half = max(abs(grid[0]), abs(grid[-1]))
    a, b = _WINDOW_FLAT * r_half, _WINDOW_ZERO * r_half
    return smooth_step((b - np.abs(grid)) / (b - a))


def make_field(fun, r_half, n):
    """Sample a callable (vectorized over r, values of shape (n,) or
    (n, ncomp)) into a weight-0 ModeZeroField."""
    r0, dr = line_grid(r_half, n)
    return ModeZeroField(r0, dr, fun(r0 + dr * np.arange(n)))


def bump(t):
    """Standard compactly supported C-infinity bump on |t| < 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    x = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - x * x))
    return out


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def apply_indicial(fam, fld):
    """Apply the convolution operator along the weight line of the field.

    Shift by the weight, transform, multiply by the family evaluated on
    Re(lambda) = weight, transform back.
    """
    if fam.shape[1] != fld.ncomp:
        raise InvalidInputError("family/field component mismatch")
    what = fld.check_aliasing(_ALIAS_TOL, "apply_indicial input")
    lam = fld.weight + 1j * fld.frequencies()
    mats = fam(lam)
    out_hat = np.einsum("kij,kj->ki", mats, what)
    out = np.fft.ifft(out_hat, axis=0)
    return ModeZeroField(fld.r0, fld.dr, out, weight=fld.weight)


def _angular_frequencies(n, dr):
    return 2.0 * np.pi * np.fft.fftfreq(n, d=dr)


class _LineConditioning(Mapping):
    """The info of ``invert_on_line``, a read-only mapping: "condition_max"
    and "condition_median" of the 2-norm condition numbers of the family on
    the weight line, and "root_line_distance".

    The condition numbers are computed on the first read of either one;
    until then the mapping holds the family and the line's weight and grid
    (not its nodes, which an unread mapping would keep alive), and it drops
    them once the numbers are in.
    """

    def __init__(self, fam, rho, n, dr, root_line_distance):
        self._pending = (fam, rho, n, dr)
        self._values = {
            "condition_max": None,
            "condition_median": None,
            "root_line_distance": root_line_distance,
        }

    def __getitem__(self, key):
        if self._pending is not None and key in ("condition_max", "condition_median"):
            fam, rho, n, dr = self._pending
            conds = np.linalg.cond(fam(rho + 1j * _angular_frequencies(n, dr)))
            self._values["condition_max"] = float(np.max(conds))
            self._values["condition_median"] = float(np.median(conds))
            self._pending = None
        return self._values[key]

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)

    def __repr__(self):
        return repr(dict(self))


def invert_on_line(fam, f, rho):
    """Solve (convolution operator) u = f on the weight line Re(lambda)=rho.

    Returns (u, info); u carries weight rho, and info reports the per-node
    condition statistics in a read-only Mapping (``dict(info)`` copies it)
    whose condition numbers are computed on the first read, so a caller that
    never reads them pays for no matrix decomposition.  u only depends on
    the component of rho in the complement of the singular weight set.  f is
    re-weighted to rho first; a sample that overflows raises InvalidInputError.
    """
    if not fam.is_square:
        raise InvalidInputError("line inversion needs a square family")
    gaps = [abs(r.lam.real - rho) for r in indicial_roots(fam)]
    if gaps and min(gaps) < 1e-12:
        raise InvalidWeightError(f"weight {rho} lies on a root line")
    if gaps and min(gaps) < _NEAR_ROOT_GUARD:
        warnings.warn(
            f"weight {rho} is within {min(gaps):.2e} of a root line; "
            "inversion is ill-conditioned",
            stacklevel=2,
        )
    g = f.with_weight(rho)
    what = g.check_aliasing(_ALIAS_TOL, "invert_on_line data")
    lam = rho + 1j * g.frequencies()
    sol_hat = np.linalg.solve(fam(lam), what[..., None])[..., 0]
    sol = np.fft.ifft(sol_hat, axis=0)
    info = _LineConditioning(fam, rho, lam.size, g.dr, float(min(gaps)) if gaps else None)
    return ModeZeroField(g.r0, g.dr, sol, weight=rho), info


# ---------------------------------------------------------------------------
# asymptotic (exponential-polynomial) elements
# ---------------------------------------------------------------------------


def evaluate_elements(elements, fld_like):
    """Sum asymptotic elements on the grid of a reference field, stored at
    that field's weight."""
    rho = fld_like.weight
    r = fld_like.grid
    total = np.zeros((r.size, elements[0].coefficient_vector.size), dtype=complex)
    for el in elements:
        total += el.evaluate(r)
    return ModeZeroField(fld_like.r0, fld_like.dr, _times_exp(total, r, -rho), weight=rho)


def _finite_transform(f, lam_values):
    """Entire transform \\int e^{-lam r} f(r) dr of a compactly supported
    field, evaluated at the given complex points."""
    vals = f.values()
    mask = np.max(np.abs(vals), axis=1) > 0
    r = f.grid[mask]
    v = vals[mask]
    out = np.empty((len(lam_values), v.shape[1]), dtype=complex)
    for i, lam in enumerate(lam_values):
        out[i] = f.dr * np.sum(np.exp(-lam * r)[:, None] * v, axis=0)
    return out


def cross_root_correction(fam, f, rho_from, rho_to):
    """Difference of line inverses across intervening roots.

    Returns (difference field, residue contributions); the difference of
    the two inversions equals the evaluated sum of the contributions, each
    an exponential-polynomial profile attached to a crossed root.
    """
    u_from, _ = invert_on_line(fam, f, rho_from)
    u_to, _ = invert_on_line(fam, f, rho_to)
    diff = u_to - u_from.with_weight(rho_to)

    sign, crossed = crossed_roots(fam, rho_from, rho_to)
    contributions = []
    minv = meromorphic_inverse(fam)
    for root in crossed:
        p = _principal_part(fam, root)[0]
        phi, lam = _contour_nodes(root.lam, root.radius)
        g = np.einsum("kij,kj->ki", minv(lam), _finite_transform(f, lam))
        for k, gk in _contour_moments(g, root.radius, phi, p).items():
            coeff = sign * gk / math.factorial(k - 1)
            if np.linalg.norm(coeff) < 1e-14 * max(1.0, np.linalg.norm(g)):
                continue
            contributions.append(AsymptoticElement(root.lam, k - 1, coeff))
    return diff, contributions


# ---------------------------------------------------------------------------
# tail rate estimation
# ---------------------------------------------------------------------------


def fit_decay_rate(fld, side):
    """Least-squares slope of log ||u(r)|| over the tail on the side "+"
    (r > 0) or "-" (r < 0).

    The fit window is selected by magnitude: nodes whose norm lies in
    [1e-11, 1e-2] relative to the global maximum, keeping the regression
    inside the true exponential regime and above the transform's roundoff
    floor.
    """
    if side not in ("+", "-"):
        raise InvalidInputError(f"decay side must be '+' or '-', not {side!r}")
    r = fld.grid
    # log ||u(r)|| = log ||samples|| + weight r: no e^{weight r} to overflow
    with np.errstate(divide="ignore"):
        logs = np.log(np.linalg.norm(fld.samples, axis=1)) + fld.weight * r
    r_half = max(abs(r[0]), abs(r[-1]))
    edge = _WINDOW_FLAT * r_half
    peak = np.max(logs)
    if side == "+":
        region = (r > 0) & (r < edge)
    else:
        region = (r < 0) & (r > -edge)
    region &= (logs > np.log(_TAIL_BAND[0]) + peak) & (logs < np.log(_TAIL_BAND[1]) + peak)
    if np.sum(region) < 16 or np.ptp(r[region]) < 2.0:
        raise InvalidInputError("not enough tail samples above the noise floor")
    coef = np.polyfit(r[region], logs[region], 1)
    return float(coef[0])
