"""Dyadic frequency decomposition and Hoelder-Zygmund norms on the zero mode.

On the zero Fourier mode the dyadic localizers reduce to exact Fourier
multipliers in the cusp variable r, with the bracket sqrt(1 + xi^2) playing
the role of the regularized frequency.  Blocks telescope to an exact
partition of unity on any finite frequency grid, so norms and interaction
estimates can be computed without quadrature error.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .modezero import ModeZeroField, line_grid, window_profile

# rough fields (finite Hoelder regularity) carry slowly decaying spectra, so
# the aliasing guard here is looser than the line solver's
_ALIAS_TOL = 1e-6
# largest zero-mode distance |r - r'| of the pairs in the Hoelder seminorm
_HOLDER_DISTANCE_CAP = 2.0
# block offset j - k of the interaction pairs (B_j, B_k)
_INTERACTION_GAP = 3
# relative floor below which a block or interaction norm is roundoff and is
# left out of the decay fits
_FIT_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# cutoff profiles
# ---------------------------------------------------------------------------


def smoothstep_poly(t, degree):
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

    degree: int

    def __call__(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        # the smoothstep's clipped ends are exact, so only the ramp 1 < x < 2
        # (and any nan) is evaluated
        out = np.where(x <= 1.0, 1.0, 0.0)
        ramp = ~((x <= 1.0) | (x >= 2.0))
        out[ramp] = 1.0 - smoothstep_poly(x[ramp] - 1.0, self.degree)
        return out


DEFAULT_PSI = CutoffProfile(5)
ALT_PSI = CutoffProfile(7)


def bracket(xi):
    """Zero-mode regularized frequency sqrt(1 + xi^2)."""
    return np.sqrt(1.0 + np.asarray(xi, dtype=float) ** 2)


def dyadic_multipliers(xi, j_max, psi):
    """Dyadic localizers 0..j_max at the frequencies xi, one row each.

    Row j is P_j - P_{j-1} with P_j = psi(2^-j <xi>); P_{-1} vanishes since
    <xi> >= 1, so the rows telescope to P_{j_max}.
    """
    p = psi(bracket(xi)[None, :] * 2.0 ** -np.arange(-1, j_max + 1)[:, None])
    return p[1:] - p[:-1]


def max_block_index(fld):
    """Largest j whose dyadic ring meets the grid's frequency range."""
    xi_max = np.pi / fld.dr
    return int(np.ceil(np.log2(bracket(xi_max)))) + 1


def _field_multipliers(fld, psi):
    """The multiplier table of the field's grid: rows 0..max_block_index."""
    return dyadic_multipliers(fld.frequencies(), max_block_index(fld), psi)


# ---------------------------------------------------------------------------
# block application and norms
# ---------------------------------------------------------------------------


def _apply(spec, table):
    """Samples of the blocks of the spectrum spec (n, ncomp) under each
    multiplier row of table (rows, n): one batched inverse FFT, giving an
    array of shape (rows, n, ncomp)."""
    return np.fft.ifft(table[:, :, None] * spec[None], axis=1)


def _block_norms(spec, table):
    """Sup norm of each block of the spectrum spec, one per table row."""
    return np.max(np.abs(_apply(spec, table)), axis=(1, 2))


def _weighted_sup(norms, s):
    """sup over blocks of 2^{j s} times the block norm."""
    return float(np.max(norms * 2.0 ** (s * np.arange(len(norms)))))


def lp_block(fld, j):
    """Apply the j-th dyadic multiplier (cutoff DEFAULT_PSI) to a mode-zero
    field."""
    if j < 0:
        raise InvalidInputError("block index must be nonnegative")
    spec = fld.check_aliasing(_ALIAS_TOL, "dyadic block input")
    row = dyadic_multipliers(fld.frequencies(), j, DEFAULT_PSI)[j:]
    return ModeZeroField(fld.r0, fld.dr, _apply(spec, row)[0], weight=fld.weight)


def sup_norm(fld):
    return float(np.max(np.abs(fld.samples)))


def zygmund_norm(fld, s):
    """sup over dyadic blocks (cutoff DEFAULT_PSI) of 2^{j s} times the
    block's sup norm, with the block sup norms: (value, norms)."""
    spec = fld.check_aliasing(_ALIAS_TOL, "dyadic block input")
    norms = _block_norms(spec, _field_multipliers(fld, DEFAULT_PSI))
    return _weighted_sup(norms, s), norms


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
    u = sam[:, 0].real
    n = u.shape[0]
    max_offset = max(1, min(int(_HOLDER_DISTANCE_CAP / fld.dr), n - 1))
    # pair supremum of |u(r) - u(r')| / |r - r'|^s, one grid offset at a time.
    # Rounding is monotone, so fl|u_i - u_j| <= fl(max u - min u) and an
    # offset whose bound osc / (k dr)^s cannot beat the running supremum is
    # skipped without changing a bit of the result
    osc = np.max(u) - np.min(u)
    semi = 0.0
    for k in range(1, max_offset + 1):
        dist_s = (k * fld.dr) ** s
        if osc / dist_s <= semi:
            continue
        val = np.max(np.abs(u[k:] - u[: n - k])) / dist_s
        if val > semi:
            semi = val
    return float(np.max(np.abs(u)) + semi)


# ---------------------------------------------------------------------------
# interaction decay and reports
# ---------------------------------------------------------------------------


def interaction_decay_exponent(fld):
    """Fitted exponent N with ||B_j W B_k u|| ~ 2^{-N max(j,k)} along the
    off-diagonal j = k + _INTERACTION_GAP, where W is the cusp window.  The
    bare multipliers of those pairs are disjoint, so what remains measures
    the spectral spreading induced by the window (the zero-mode shadow of
    the off-diagonal block interaction)."""
    gap = _INTERACTION_GAP
    j_max = max_block_index(fld)
    scale = sup_norm(fld)
    table = _field_multipliers(fld, DEFAULT_PSI)
    spec = fld.check_aliasing(_ALIAS_TOL, "dyadic block input")
    # W B_k u for k = 0..j_max - gap, then B_{k + gap} of each
    mid = _apply(spec, table[: max(j_max - gap + 1, 0)]) * window_profile(fld.grid)[:, None]
    pairs = np.fft.ifft(table[gap:, :, None] * np.fft.fft(mid, axis=1), axis=1)
    peaks = np.max(np.abs(pairs), axis=(1, 2))
    points = [(k + gap, np.log2(val)) for k, val in enumerate(peaks) if val > _FIT_FLOOR * scale]
    if len(points) < 3:
        raise InvalidInputError("not enough interaction points above the floor")
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(-slope), points


def block_decay_exponent(norms):
    """Fitted N with ||B_j u|| <= C 2^{-jN} from the per-block sup norms of
    blocks 3 and up."""
    norms = np.asarray(norms, dtype=float)
    scale = max(norms.max(), 1e-300)
    js = np.arange(len(norms))
    keep = (js >= 3) & (norms > _FIT_FLOOR * scale)
    if np.sum(keep) < 2:
        raise InvalidInputError("not enough decaying blocks to fit")
    slope = np.polyfit(js[keep], np.log2(norms[keep]), 1)[0]
    return float(-slope)


def norm_equivalence_report(fields, s, alt_psi=None):
    """Ratio statistics between the dyadic-block norm and the classical
    modulus-of-continuity norm across a family of fields; each field's row
    also holds its block sup norms ("blocks").

    The comparison constant is reported, never asserted against a closed
    form; stability of the reported interval under family enlargement is
    the meaningful check.
    """
    if not fields:
        raise InvalidInputError("empty test family")
    # one multiplier table per (grid, cutoff) for the whole family
    tables = {}

    def norms(fld, spec, cutoff):
        key = (fld.samples.shape[0], fld.dr, cutoff)
        if key not in tables:
            tables[key] = _field_multipliers(fld, cutoff)
        return _block_norms(spec, tables[key])

    rows = []
    for index, fld in enumerate(fields):
        spec = fld.check_aliasing(_ALIAS_TOL, "dyadic block input")
        blocks = norms(fld, spec, DEFAULT_PSI)
        zn = _weighted_sup(blocks, s)
        hn = holder_norm(fld, s)
        if hn == 0.0:
            raise InvalidInputError(
                f"field {index} of the family is zero: its norm ratio is undefined",
                diagnostics={"field": index},
            )
        row = {"zygmund": zn, "holder": hn, "ratio": zn / hn, "blocks": blocks}
        if alt_psi is not None:
            zn2 = _weighted_sup(norms(fld, spec, alt_psi), s)
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


def random_band_limited_family(count, seed, r_half, n):
    """Windowed random trigonometric fields for norm experiments: 12 cosine
    modes each, frequencies log-uniform in [0.2, 30]."""
    modes = 12
    rng = np.random.default_rng(seed)
    r0, dr = line_grid(r_half, n)
    r = r0 + dr * np.arange(n)
    w = window_profile(r)
    # r = r0 + dr (b q + j): each mode's phase factor over the grid is the
    # outer product of b factors in j and ceil(n / b) factors in q, so a
    # field costs 2 sqrt(n) complex exponentials per mode instead of n cosines
    b = math.isqrt(n - 1) + 1
    q = dr * b * np.arange(-(-n // b))
    j = dr * np.arange(b)
    out = []
    for _ in range(count):
        freqs = np.exp(rng.uniform(np.log(0.2), np.log(30.0), size=modes))
        amps = rng.normal(size=modes) / np.sqrt(modes)
        phases = rng.uniform(0, 2 * np.pi, size=modes)
        z = amps * np.exp(1j * (phases + freqs * r0))
        u = np.einsum(
            "qm,jm->qj", np.exp(1j * np.outer(q, freqs)) * z, np.exp(1j * np.outer(j, freqs))
        )
        out.append(ModeZeroField(r0, dr, (u.real.reshape(-1)[:n] * w)[:, None]))
    return out
