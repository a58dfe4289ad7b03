"""Dyadic frequency decomposition and Hoelder-Zygmund norms on the zero mode.

On the zero Fourier mode the dyadic localizers reduce to exact Fourier
multipliers in the cusp variable r, with the bracket sqrt(1 + xi^2) playing
the role of the regularized frequency.  Blocks telescope to an exact
partition of unity on any finite frequency grid, so norms and interaction
estimates can be computed without quadrature error.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidInputError
from .modezero import ModeZeroField, window_profile

# rough fields (finite Hoelder regularity) carry slowly decaying spectra, so
# the aliasing guard here is looser than the line solver's
_ALIAS_TOL = 1e-6
# largest zero-mode distance |r - r'| of the pairs in the Hoelder seminorm
_HOLDER_DISTANCE_CAP = 2.0


# ---------------------------------------------------------------------------
# cutoff profiles
# ---------------------------------------------------------------------------


def smoothstep_poly(t, degree=5):
    """Polynomial smoothstep on [0,1]: 0 -> 1 with vanishing derivatives.

    degree 5 is C^2 at the ends, degree 7 is C^3 (used to probe cutoff
    independence of the norms).
    """
    t = np.clip(t, 0.0, 1.0)
    if degree == 5:
        return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)
    if degree == 7:
        return t**4 * (35.0 - 84.0 * t + 70.0 * t**2 - 20.0 * t**3)
    raise InvalidInputError("supported smoothstep degrees: 5, 7")


@dataclass(frozen=True)
class CutoffProfile:
    """Radial cutoff: 1 on [0, 1], 0 beyond 2, smoothstep in between."""

    degree: int = 5

    def __call__(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        return 1.0 - smoothstep_poly(x - 1.0, self.degree)


DEFAULT_PSI = CutoffProfile(5)
ALT_PSI = CutoffProfile(7)


def bracket(xi):
    """Zero-mode regularized frequency sqrt(1 + xi^2)."""
    return np.sqrt(1.0 + np.asarray(xi, dtype=float) ** 2)


@dataclass(frozen=True)
class DyadicMultiplier:
    """The j-th dyadic localizer psi(2^-j <xi>) - psi(2^-j+1 <xi>)."""

    j: int
    psi: CutoffProfile = DEFAULT_PSI

    def __call__(self, xi):
        br = bracket(xi)
        return self.psi(br * 2.0 ** (-self.j)) - self.psi(br * 2.0 ** (-self.j + 1))


def max_block_index(fld):
    """Largest j whose dyadic ring meets the grid's frequency range."""
    xi_max = np.pi / fld.dr
    return int(np.ceil(np.log2(bracket(xi_max)))) + 1


# ---------------------------------------------------------------------------
# block application and norms
# ---------------------------------------------------------------------------


def lp_block(fld, j, psi=DEFAULT_PSI, check_aliasing=True):
    """Apply the j-th dyadic multiplier to a mode-zero field."""
    if j < 0:
        raise InvalidInputError("block index must be nonnegative")
    if check_aliasing:
        fld.check_aliasing(_ALIAS_TOL, "dyadic block input")
    mult = DyadicMultiplier(j, psi)(fld.frequencies())
    spec = np.fft.fft(fld.samples, axis=0)
    out = np.fft.ifft(spec * mult[:, None], axis=0)
    return ModeZeroField(fld.r0, fld.dr, out, weight=fld.weight)


def lp_blocks(fld, psi=DEFAULT_PSI, j_max=None):
    if j_max is None:
        j_max = max_block_index(fld)
    fld.check_aliasing(_ALIAS_TOL, "dyadic block input")
    return [lp_block(fld, j, psi, check_aliasing=False) for j in range(j_max + 1)]


def sup_norm(fld):
    return float(np.max(np.abs(fld.samples)))


def zygmund_norm(fld, s, psi=DEFAULT_PSI, return_blocks=False):
    """sup over dyadic blocks of 2^{j s} times the block's sup norm."""
    blocks = lp_blocks(fld, psi)
    norms = np.array([sup_norm(b) for b in blocks])
    weighted = norms * 2.0 ** (s * np.arange(len(norms)))
    value = float(np.max(weighted)) if len(weighted) else 0.0
    if return_blocks:
        return value, norms
    return value


def holder_norm(fld, s):
    """sup norm plus the discrete Hoelder seminorm over grid pairs at
    zero-mode distance |r - r'| <= 2."""
    if not (0.0 < s < 1.0):
        raise InvalidInputError("holder_norm needs 0 < s < 1")
    sam = fld.samples
    if np.max(np.abs(sam.imag)) > 1e-12 * max(np.max(np.abs(sam)), 1e-300):
        raise InvalidInputError("holder_norm expects real-valued samples")
    if sam.shape[1] != 1:
        raise InvalidInputError("holder_norm expects a scalar field")
    u = np.ascontiguousarray(sam[:, 0].real)
    max_offset = max(1, min(int(_HOLDER_DISTANCE_CAP / fld.dr), u.shape[0] - 1))
    semi = _kernels.holder_seminorm(u, fld.dr, s, max_offset)
    return float(np.max(np.abs(u)) + semi)


# ---------------------------------------------------------------------------
# interaction decay and reports
# ---------------------------------------------------------------------------


def block_interaction(fld, j, k, psi=DEFAULT_PSI):
    """Sup norm of B_j (window * B_k u): the windowed composition of two
    dyadic blocks.  For |j - k| >= 2 the bare multipliers are disjoint, so
    what remains measures the spectral spreading induced by the cusp window
    (the zero-mode shadow of the off-diagonal block interaction)."""
    w = window_profile(fld.grid)
    bk = lp_block(fld, k, psi)
    mid = ModeZeroField(fld.r0, fld.dr, bk.samples * w[:, None], weight=fld.weight)
    return sup_norm(lp_block(mid, j, psi, check_aliasing=False))


def interaction_decay_exponent(fld, gap=3, psi=DEFAULT_PSI, floor=1e-14):
    """Fitted exponent N with ||B_j W B_k|| ~ 2^{-N max(j,k)} along the
    off-diagonal |j - k| = gap."""
    j_max = max_block_index(fld)
    scale = sup_norm(fld)
    points = []
    for k in range(0, j_max - gap + 1):
        j = k + gap
        val = block_interaction(fld, j, k, psi)
        if val > floor * scale:
            points.append((max(j, k), np.log2(val)))
    if len(points) < 3:
        raise InvalidInputError("not enough interaction points above the floor")
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(-slope), points


def block_decay_exponent(norms, j_start=3, floor=1e-14):
    """Fitted N with ||B_j u|| <= C 2^{-jN} from per-block sup norms."""
    norms = np.asarray(norms, dtype=float)
    scale = max(norms.max(), 1e-300)
    js = np.arange(len(norms))
    keep = (js >= j_start) & (norms > floor * scale)
    if np.sum(keep) < 2:
        raise InvalidInputError("not enough decaying blocks to fit")
    slope = np.polyfit(js[keep], np.log2(norms[keep]), 1)[0]
    return float(-slope)


def norm_equivalence_report(fields, s, psi=DEFAULT_PSI, alt_psi=None):
    """Ratio statistics between the dyadic-block norm and the classical
    modulus-of-continuity norm across a family of fields.

    The comparison constant is reported, never asserted against a closed
    form; stability of the reported interval under family enlargement is
    the meaningful check.
    """
    if not fields:
        raise InvalidInputError("empty test family")
    rows = []
    for fld in fields:
        zn = zygmund_norm(fld, s, psi)
        hn = holder_norm(fld, s)
        row = {"zygmund": zn, "holder": hn, "ratio": zn / hn}
        if alt_psi is not None:
            zn2 = zygmund_norm(fld, s, alt_psi)
            row["zygmund_alt"] = zn2
            row["cutoff_ratio"] = zn2 / zn if zn > 0 else np.nan
        rows.append(row)
    ratios = np.array([r["ratio"] for r in rows])
    report = {
        "s": s,
        "count": len(rows),
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "fields": rows,
    }
    if alt_psi is not None:
        cr = np.array([r["cutoff_ratio"] for r in rows])
        report["cutoff_ratio_min"] = float(np.nanmin(cr))
        report["cutoff_ratio_max"] = float(np.nanmax(cr))
    return report


def random_band_limited_family(count, seed=0, r_half=48.0, n=4096, modes=12):
    """Windowed random trigonometric fields for norm experiments."""
    from .modezero import line_grid

    rng = np.random.default_rng(seed)
    r0, dr = line_grid(r_half, n)
    r = r0 + dr * np.arange(n)
    w = window_profile(r)
    out = []
    for _ in range(count):
        freqs = np.exp(rng.uniform(np.log(0.2), np.log(30.0), size=modes))
        amps = rng.normal(size=modes) / np.sqrt(modes)
        phases = rng.uniform(0, 2 * np.pi, size=modes)
        u = np.sum(
            amps[None, :] * np.cos(np.outer(r, freqs) + phases[None, :]), axis=1
        )
        out.append(ModeZeroField(r0, dr, (u * w)[:, None]))
    return out
