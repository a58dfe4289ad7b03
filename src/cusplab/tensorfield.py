"""Symmetric tensor fields on the cusp chart and their natural operators.

Components live in the invariant orthonormal coframe {dy/y, dtheta/y}:
order 1 stores (a, b), order 2 stores (s, t, x) with x the coefficient on
the symmetrized mixed product (Gram weight 2).  With e_1 = d/dr and
e_2 = e^r d/dtheta, the connection gives

    D(a, b)      = (da/dr,  e^r db/dtheta - a,  (db/dr + e^r da/dtheta + b)/2)
    D*(s, t, x)  = (ds/dr + e^r dx/dtheta - s + t,
                    dx/dr + e^r dt/dtheta - 2 x)

and the symmetric Laplacian is their composition.  D is written once, in
``_frame_sym_derivative``, which fills one (3, ...) array in place:
``sym_derivative`` applies it to grid samples, and the solenoidal
projection reads its per-theta-mode matrices off it by comb probes; scipy
serves only that projection's sparse products and banded solves.  On
theta-independent y^lam profiles, D and the Laplacian act by the indicial
families of ``operators.sym_derivative_spec`` and
``sym_laplacian_spec``, the closed forms criterion 7 checks the grid
operators against.  Differentiation is spectral in theta and, by default
("fd"), second-order centered finite differences in r closed at the two
radial edges by the summation-by-parts rows [-1, 1]/dr, the closure the
solenoidal projection solves with.  "fd4" is a fourth-order interior
stencil with second-order one-sided edge rows, kept as the independent
check of that projection; "spectral" switches the r-derivative to the
transform side, valid for fields supported away from the radial
boundary.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .chart import ChartGrid
from .errors import CoverageError, InvalidInputError, NumericFailureError

_GRAM = {0: [1.0], 1: [1.0, 1.0], 2: [1.0, 1.0, 2.0]}


# Points per pass of SymTensorField.interpolate: a call's temporaries (the
# (ncomp, 6, 6, m) gather above all) scale with this, not with the call.
_CHUNK = 2048
_OFFSETS = np.arange(6)
# _DENOM[i, j] = i - j, the denominator of weight i's factor (s - j)/(i - j);
# the diagonal, which no weight reads, is 1 so that it stays finite
_DENOM = (np.subtract.outer(_OFFSETS, _OFFSETS) + np.eye(6))[:, :, None]
_OFF_DIAGONAL = ~np.eye(6, dtype=bool)[:, :, None]


def _lagrange_weights(s):
    """6-point stencil weights at offsets 0..5 for local coordinates s in
    [2, 3]: a (6, n) array whose row i is the product of the five factors
    (s - j)/(i - j), j != i, multiplied left to right into ones."""
    f = (s - _OFFSETS[:, None]) / _DENOM
    return np.multiply.reduce(f, axis=1, initial=1.0, where=_OFF_DIAGONAL)


@dataclass(frozen=True)
class SymTensorField:
    """Grid samples of a symmetric m-tensor (m in {0, 1, 2}): m + 1 components."""

    grid: ChartGrid
    comps: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.comps, dtype=float)
        shape = (self.grid.n_r, self.grid.n_theta)
        if c.ndim != 3 or not 1 <= len(c) <= 3 or c.shape[1:] != shape:
            raise InvalidInputError(f"component array must have shape (1, 2 or 3, *{shape})")
        object.__setattr__(self, "comps", c)

    @property
    def order(self):
        return len(self.comps) - 1

    @classmethod
    def sample(cls, grid, order, *funcs):
        """Samples of elementwise callables f(r, theta), one per component,
        each called once on the axes r (n_r, 1) and theta (1, n_theta)."""
        if len(funcs) != order + 1:
            raise InvalidInputError("one sampling function per component")
        r, t = grid.r[:, None], grid.theta[None, :]
        comps = np.empty((order + 1, grid.n_r, grid.n_theta))
        for k, f in enumerate(funcs):
            comps[k] = f(r, t)
        return cls(grid, comps)

    @classmethod
    def metric(cls, grid):
        """The metric tensor: unit diagonal components in the orthonormal
        coframe."""
        c = np.zeros((3, grid.n_r, grid.n_theta))
        c[:2] = 1.0
        return cls(grid, c)

    def __sub__(self, other):
        self._compat(other)
        return replace(self, comps=self.comps - other.comps)

    def _compat(self, other):
        if self.order != other.order or self.grid != other.grid:
            raise InvalidInputError("tensor fields live on different grids/orders")

    def sup_norm(self):
        """Largest |component|, reduced as max(max c, -min c) so that no
        copy |c| is made; np.maximum, unlike Python's max, keeps a NaN from
        either side, and a zero norm may read -0.0."""
        return float(np.maximum(np.max(self.comps), -np.min(self.comps)))

    @cached_property
    def _radial_profile(self):
        """Largest |component| on each radial row, reduced as in ``sup_norm``."""
        axes = (0, 2)
        return np.maximum(np.max(self.comps, axis=axes), -np.min(self.comps, axis=axes))

    def support_margin(self):
        """Number of radial boundary cells on each side where the field is
        numerically zero (below 1e-12 of its largest finite value); a cell
        holding a non-finite value counts as support."""
        prof = self._radial_profile
        finite = prof[np.isfinite(prof)]
        floor = 1e-12 * max(finite.max(initial=0.0), 1e-300)
        nz = np.nonzero(~(prof <= floor))[0]
        if nz.size == 0:
            return self.grid.n_r
        return int(min(nz[0], self.grid.n_r - 1 - nz[-1]))

    def interpolate(self, r_pts, t_pts):
        """Component values at scattered chart points: quintic (6-point)
        separable Lagrange interpolation, periodic in theta with period 1,
        zero outside the radial range (fields are compactly supported inside
        the chart).

        Returns (ncomp, npts).  Each chunk of points gathers its 6 x 6
        stencils in one pass, scales them by the theta weights and sums over
        the theta offsets, then scales those rows by the r weights and sums
        over the r offsets.  Both sums start from 0 and add in offset order,
        so a point's value does not depend on the chunking.
        """
        r_pts = np.asarray(r_pts, dtype=np.float64)
        t_pts = np.asarray(t_pts, dtype=np.float64)
        if np.isnan(r_pts).any() or not np.isfinite(t_pts).all():
            raise InvalidInputError("interpolation points need a non-NaN r and a finite theta")
        ncomp, rn, tn = self.comps.shape
        flat = self.comps.reshape(ncomp, rn * tn)
        out = np.zeros((ncomp, r_pts.shape[0]))
        for start in range(0, r_pts.shape[0], _CHUNK):
            x = (r_pts[start : start + _CHUNK] - self.grid.r_min) / self.grid.dr
            inside = np.nonzero((x >= -0.5) & (x <= rn - 0.5))[0]
            x = x[inside]
            i0 = np.clip(np.floor(x).astype(np.int64) - 2, 0, rn - 6)
            y = (t_pts[start + inside] % 1.0) / (1.0 / tn)
            j0 = np.floor(y).astype(np.int64) - 2
            # idx[i, j]: flat index of grid row i0 + i, column (j0 + j) mod tn
            idx = ((i0 + _OFFSETS[:, None]) * tn)[:, None] + (j0 + _OFFSETS[:, None]) % tn
            vals = np.take(flat, idx, axis=1)
            vals *= _lagrange_weights(y - j0)
            rows = np.add.reduce(vals, axis=2, initial=0.0)
            rows *= _lagrange_weights(x - i0)
            out[:, start + inside] = np.add.reduce(rows, axis=1, initial=0.0)
        return out

    @cached_property
    def _edge_activity(self):
        """Whether the field is active (above 1e-8 of its largest value) in
        the 6 radial cells next to the lower and the upper chart edge."""
        prof = self._radial_profile
        floor = 1e-8 * max(prof.max(), 1e-300)
        return prof[:6].max() > floor, prof[-6:].max() > floor

    def pullback(self, r, t, p_hat, q_hat):
        """pi_m^* of the field at chart points (r, t) along unit directions
        with orthonormal-frame components (vertical p_hat, slice q_hat): the
        order-m tensor evaluated on the m-fold direction.

        Raises CoverageError when a point leaves the chart's radial range on
        a side where the field is active: interpolation would read zero
        there instead of the field."""
        lo_active, hi_active = self._edge_activity
        if lo_active and np.any(r < self.grid.r_min):
            raise CoverageError(
                "geodesic exits the chart below the base height inside the "
                "tensor support"
            )
        if hi_active and np.any(r > self.grid.r_max):
            raise CoverageError(
                "geodesic exits the chart above the truncation inside the "
                "tensor support"
            )
        return _contract(self.interpolate(r, t), p_hat, q_hat)


def _contract(comps, p_hat, q_hat):
    """The order-m tensor with coframe components ``comps`` ((f,), (a, b) or
    (s, t, x)) on the m-fold direction with frame components (p_hat, q_hat)."""
    if len(comps) == 3:
        return comps[0] * p_hat**2 + comps[1] * q_hat**2 + 2.0 * comps[2] * p_hat * q_hat
    return comps[0] if len(comps) == 1 else comps[0] * p_hat + comps[1] * q_hat


def l2_inner(f, g):
    """Hyperbolic L2 pairing: trapezoid-in-r area weights, fiberwise Gram weights."""
    f._compat(g)
    w = f.grid.radial_weights()[:, None] * f.grid.dtheta
    gw = _GRAM[f.order]
    return float(sum(gw[i] * np.sum(w * f.comps[i] * g.comps[i]) for i in range(len(gw))))


def l2_norm(f):
    return float(np.sqrt(max(l2_inner(f, f), 0.0)))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def _dr_fd(arr, dr):
    # centered interior, summation-by-parts edge rows: with the trapezoid
    # norm H this derivative satisfies D^T H = -H D + edge terms
    out = np.empty_like(arr)
    out[..., 1:-1, :] = (arr[..., 2:, :] - arr[..., :-2, :]) / (2.0 * dr)
    out[..., 0, :] = (arr[..., 1, :] - arr[..., 0, :]) / dr
    out[..., -1, :] = (arr[..., -1, :] - arr[..., -2, :]) / dr
    return out


def _dr_fd4(arr, dr):
    # fourth-order interior stencil, second-order centered next to the edges
    # and one-sided on them; used by the independent verification route
    out = _dr_fd(arr, dr)
    out[..., 2:-2, :] = (
        arr[..., :-4, :] - 8 * arr[..., 1:-1, :][..., :-2, :]
        + 8 * arr[..., 2:, :][..., 1:-1, :] - arr[..., 4:, :]
    ) / (12.0 * dr)
    out[..., 0, :] = (
        -1.5 * arr[..., 0, :] + 2.0 * arr[..., 1, :] - 0.5 * arr[..., 2, :]
    ) / dr
    out[..., -1, :] = (
        1.5 * arr[..., -1, :] - 2.0 * arr[..., -2, :] + 0.5 * arr[..., -3, :]
    ) / dr
    return out


# A line that is 0 everywhere transforms to exactly +0, so the spectral
# derivatives transform only the lines that hold a nonzero (NaN and inf
# count as nonzero) and leave the others 0.


def _dr_spectral(arr, grid):
    n = grid.n_r - 1
    xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=grid.dr)
    head = arr[..., :-1, :]
    cols = np.flatnonzero(np.any(head != 0, axis=tuple(range(head.ndim - 1))))
    # irfft drops the Nyquist bin's imaginary part: that mode differentiates to 0
    spec = np.fft.rfft(head[..., cols], axis=-2) * (1j * xi)[:, None]
    out = np.zeros_like(arr)
    out[..., :-1, cols] = np.fft.irfft(spec, n=n, axis=-2)
    out[..., -1, :] = out[..., 0, :]
    return out


def _dtheta(arr, grid):
    # one view of the rows from the first holding a nonzero to the last;
    # a dense field's block is the whole array, returned as transformed
    rows = np.flatnonzero(np.any(arr != 0, axis=-1).reshape(-1, arr.shape[-2]).any(axis=0))
    if rows.size == 0:
        return np.zeros(arr.shape)
    block = slice(rows[0], rows[-1] + 1)
    spec = np.fft.rfft(arr[..., block, :], axis=-1) * (1j * grid.theta_frequencies())
    d_block = np.fft.irfft(spec, n=grid.n_theta, axis=-1)
    if d_block.shape == arr.shape:
        return d_block
    out = np.zeros(arr.shape)
    out[..., block, :] = d_block
    return out


def _dr(arr, grid, method):
    if method == "fd":
        return _dr_fd(arr, grid.dr)
    if method == "fd4":
        return _dr_fd4(arr, grid.dr)
    if method == "spectral":
        return _dr_spectral(arr, grid)
    raise InvalidInputError(f"unknown differentiation method {method!r}")


def _frame_sym_derivative(a, b, d_r, d_t, er):
    """The symmetric derivative of the 1-form (a, b) by the module's D
    formula: one (3, ...) array holding s, t and x, with er = e^r shaped to
    broadcast against a and b.  d_r(i) and d_t(i) give the r- and
    theta-partials of component i (0: a, 1: b), each taken only when the
    formula reaches it and written into its row at once, so at most one
    partial is held.  The operands are grid samples, the projection's comb
    probes or closed-form jet values, and may be 0-d (hence the ``k, ...``
    row views)."""
    out = np.empty((3, *np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(er))))
    s, t, x = out[0, ...], out[1, ...], out[2, ...]
    s[...] = d_r(0)
    np.multiply(er, d_t(1), out=t)
    t -= a
    # 0.5 * (d_r(1) + er * d_t(0) + b); swapping the first sum's terms
    # keeps every bit, as IEEE addition commutes
    np.multiply(er, d_t(0), out=x)
    x += d_r(1)
    x += b
    x *= 0.5
    return out


def sym_derivative(p, method="fd"):
    """Symmetrized covariant derivative of a 1-form field."""
    if p.order != 1:
        raise InvalidInputError("sym_derivative acts on 1-forms")
    grid = p.grid
    c = p.comps
    d_r, d_t = (lambda i: _dr(c[i], grid, method)), (lambda i: _dtheta(c[i], grid))
    return SymTensorField(grid, _frame_sym_derivative(c[0], c[1], d_r, d_t, grid.exp_r[:, None]))


def divergence(f, method="fd"):
    """Divergence (trace of the covariant derivative) of a symmetric
    2-tensor field: a 1-form field."""
    if f.order != 2:
        raise InvalidInputError("divergence acts on 2-tensors")
    grid = f.grid
    er = grid.exp_r[:, None]
    s, t, x = f.comps
    out_a = _dr(s, grid, method) + er * _dtheta(x, grid) - s + t
    out_b = _dr(x, grid, method) + er * _dtheta(t, grid) - 2.0 * x
    return SymTensorField(grid, np.stack([out_a, out_b]))


def sym_laplacian(u):
    """divergence o sym_derivative on 1-forms, both with the ``fd`` radial
    derivative."""
    return divergence(sym_derivative(u))


# ---------------------------------------------------------------------------
# solenoidal projection
# ---------------------------------------------------------------------------

# The projection is the only user of scipy, so its helpers import it on
# first use: imported at module level, scipy made a fresh-interpreter
# `import cusplab.cli` take 0.74 s instead of 0.33 s (medians of 4, 2-vCPU
# x86-64 VM), a cost every subcommand paid.


def _mode_derivative(grid):
    """Per-theta-mode symmetric derivative from the interior radial unknowns,
    interleaved as (a_j, b_j) pairs, to the stacked (s, t, x) profiles, as
    the real pair (D0, D1) with D(xi) = D0 + i xi D1.

    Both are read off ``_frame_sym_derivative`` by six comb probes (Curtis,
    Powell & Reid 1974): probe 3c + k sets component c to 1 on the interior
    nodes j = k mod 3.  D0 takes the probes' ``fd`` r-partials and theta-
    partials 0; D1 takes the probes as theta-partials, all else 0.  Node j
    reaches only rows j - 1 .. j + 1, so no two nodes of a probe share a row."""
    import scipy.sparse as sp

    n = grid.n_r
    c, j = np.arange(2)[:, None], np.arange(1, n - 1)
    probes = np.zeros((2, n, 6))
    probes[c, j, 3 * c + j % 3] = 1.0
    er, zero = grid.exp_r[:, None], np.zeros((n, 6))
    mats = []
    for y in (
        _frame_sym_derivative(*probes, lambda i: _dr_fd(probes[i], grid.dr), lambda i: 0.0, er),
        _frame_sym_derivative(zero, zero, lambda i: zero, lambda i: probes[i], er),
    ):
        q, i, p = np.nonzero(y)  # a row no probe node reaches reads exactly 0
        node = i + (p % 3 - i + 1) % 3 - 1  # the one of i - 1, i, i + 1 that is p mod 3
        cols = 2 * node - 2 + p // 3
        mats.append(sp.csr_matrix((y[q, i, p], (q * n + i, cols)), shape=(3 * n, 2 * n - 4)))
    return tuple(mats)


# Half-bandwidth of the per-mode normal equations once the unknowns are
# interleaved as (a_i, b_i) pairs: D^H W D couples a with a and b with b two
# nodes apart (offset 4), and a with b one node apart (offset 3).
_HALF_BAND = 4


def _band_storage(m):
    """LAPACK band storage ab[_HALF_BAND + i - j, j] = m[i, j] of a square
    sparse matrix, read off its diagonal (DIA) layout; raises if a nonzero
    diagonal lies outside the band."""
    import scipy.sparse as sp

    half = _HALF_BAND
    dia = sp.dia_matrix(m)
    used = np.any(dia.data != 0, axis=1)
    offsets, data = dia.offsets[used], dia.data[used, : m.shape[1]]
    width = int(np.max(np.abs(offsets), initial=0))
    if width > half:
        raise ValueError(f"an entry {width} diagonals off is outside half-bandwidth {half}")
    ab = np.zeros((2 * half + 1, m.shape[1]), dtype=dia.dtype)
    ab[half - offsets, : data.shape[1]] = data  # DIA: m[j - offset, j] in column j
    return ab


def _solve_banded_modes(parts, rhs, xis):
    """Solve (B0 + i xi B1 - xi^2 B2) u = rhs[:, k] for each theta mode k
    with LAPACK's banded gbsv, fetched once: each mode fills one reused band
    buffer and solves its right-hand side as a contiguous row.  ``parts``
    are the band-stored B0, B1, B2.  A mode whose matrix or right-hand side
    is not finite, or whose matrix is singular, raises with its number.
    Returns the solutions, column k for mode k."""
    from scipy.linalg import get_lapack_funcs

    (gbsv,) = get_lapack_funcs(("gbsv",), dtype=complex)
    b0, b1, b2 = parts
    half = _HALF_BAND
    # Fortran order, so gbsv factors the buffer in place; it reads the band
    # from rows half.. and writes the LU fill-in in the rows above
    band = np.zeros((3 * half + 1, rhs.shape[0]), dtype=complex, order="F")
    sol = rhs.T.copy()  # row k: mode k's right-hand side, then its solution
    for k, xi in enumerate(xis):
        band[half:] = b0 + (1j * xi) * b1 - (xi * xi) * b2
        finite = np.isfinite(band[half:]).all() and np.isfinite(sol[k]).all()
        if finite:
            _, _, x, info = gbsv(half, half, band, sol[k], overwrite_ab=True, overwrite_b=True)
        if not finite or info != 0:
            raise NumericFailureError(f"banded solve failed on theta mode {k}", {"mode": k})
        sol[k] = x
    return sol.T


def _solve_modes_least_squares(f, grid):
    """The potential (zero at both radial ends) from the weighted normal
    equations of the discrete derivative, its derivative by the same mode
    matrices, and the largest relative solve residual."""
    import scipy.sparse as sp

    n = grid.n_r
    wvec = grid.radial_weights()
    weight = sp.diags(np.concatenate([g * wvec for g in _GRAM[2]]))
    d0, d1 = _mode_derivative(grid)
    m = d0.shape[1]
    # D(xi)^H W D(xi) = N0 + i xi N1 - xi^2 N2 with D(xi) = D0 + i xi D1
    a0, a1 = d0.T @ weight, d1.T @ weight
    systems = [a0 @ d0, a0 @ d1 - a1 @ d0, -(a1 @ d1)]
    # f is real, so mode -xi is the conjugate of mode xi: every mode xi >= 0
    # takes its right-hand side D(xi)^H W f_hat from one sparse product
    xis = grid.theta_frequencies()
    if grid.n_theta % 2 == 0:
        xis[-1] = 0.0  # the theta-derivative of a real field drops its Nyquist mode
    both = sp.vstack([a0, a1]) @ np.fft.rfft(f.comps, axis=2).reshape(3 * n, -1)
    rhs = both[:m] - 1j * xis * both[m:]
    sol = _solve_banded_modes([_band_storage(s) for s in systems], rhs, xis)
    # every mode's residual from one product of each system with all modes
    misfit = systems[0] @ sol + 1j * xis * (systems[1] @ sol) - xis * xis * (systems[2] @ sol)
    misfit = np.linalg.norm(misfit - rhs, axis=0)
    residual = np.max(misfit / np.maximum(np.linalg.norm(rhs, axis=0), 1e-300))
    u = np.zeros((2, n, grid.n_theta))
    u[:, 1:-1] = np.fft.irfft(sol.reshape(n - 2, 2, -1).transpose(1, 0, 2), n=grid.n_theta, axis=2)
    # D u from the modes of u's samples, the grid derivative's own input
    u_hat = np.fft.rfft(u[:, 1:-1], axis=2).transpose(1, 0, 2).reshape(m, -1)
    du_hat = d1 @ u_hat
    du_hat *= 1j * xis
    du_hat += d0 @ u_hat
    du = np.fft.irfft(du_hat.reshape(3, n, -1), n=grid.n_theta, axis=2)
    return SymTensorField(grid, u), SymTensorField(grid, du), residual


def solenoidal_project(f, support_margin=5, adjoint="exact"):
    """Splitting f = f_s + D u with D* f_s small.

    The potential u vanishes at the radial truncation and minimizes
    ||f - D u|| in the hyperbolic pairing: theta modes decouple, and each
    solves the weighted normal equations D(xi)^H W D(xi) u = D(xi)^H W f_hat,
    with D(xi) the per-mode matrix of ``sym_derivative`` and W the trapezoid
    weights times the Gram weights.  Since f_s = f - sym_derivative(u) uses
    that same D, f_s is W-orthogonal to every discrete potential at solver
    precision, on any grid.  The summation-by-parts edge rows of D make these
    equations a consistent discrete D* f_s = 0 up to the boundary, so the
    divergence of f_s decays at second order.

    f is real, so only the modes xi >= 0 are solved.  The mode frequency xi
    enters only through i xi e^r, so every mode's system is B0 + i xi B1 -
    xi^2 B2 with real, mode-independent parts, assembled once per call with
    the unknowns interleaved as (a_i, b_i) pairs (half-bandwidth 4) and
    stored in LAPACK band form; each mode then takes one call of LAPACK's
    ``gbsv`` on a reused band buffer, and one product of each part with all
    modes gives the residuals.
    ``adjoint`` names this route and accepts only "exact"; it remains for
    callers that still pass it.

    Returns (f_s, u, info); info reports the solve residual, the divergence
    of f_s measured with an independently discretized operator (the
    fourth-order "fd4" r-derivative), the decomposition residual
    ||f - f_s - D u|| / ||f|| with D u taken by the solve's own mode
    matrices (so it measures the grid derivative against them), and the
    orthogonality defect under the hyperbolic pairing.
    """
    if adjoint != "exact":
        raise InvalidInputError("adjoint must be 'exact'")
    if f.order != 2:
        raise InvalidInputError("solenoidal projection acts on 2-tensors")
    if f.support_margin() < support_margin:
        raise InvalidInputError(
            f"field support must keep {support_margin} cells away from the "
            "radial truncation"
        )
    grid = f.grid
    u_field, du_modes, residual = _solve_modes_least_squares(f, grid)
    du = sym_derivative(u_field, method="fd")
    f_s = f - du
    norm_f = l2_norm(f)
    decomposition = l2_norm(f - f_s - du_modes) / norm_f if norm_f else 0.0
    del du_modes  # held through the fd4 divergence below, it would raise the memory peak
    div_check = divergence(f_s, method="fd4")
    denom = max(l2_norm(f_s) * l2_norm(du), 1e-300)
    info = {
        "solve_residual": float(residual),
        "divergence_residual": l2_norm(div_check) / norm_f if norm_f else 0.0,
        "decomposition_residual": decomposition,
        "orthogonality": abs(l2_inner(f_s, du)) / denom,
    }
    if info["solve_residual"] > 1e-8:
        raise NumericFailureError("mode solves did not converge", info)
    return f_s, u_field, info
