"""Symmetric tensor fields on the cusp chart and their natural operators.

Components live in the invariant orthonormal coframe {dy/y, dtheta/y}:
order 1 stores (a, b), order 2 stores (s, t, x) with x the coefficient on
the symmetrized mixed product (Gram weight 2).  With e_1 = d/dr and
e_2 = e^r d/dtheta, the connection gives

    D(a, b)      = (da/dr,  e^r db/dtheta - a,  (db/dr + e^r da/dtheta + b)/2)
    D*(s, t, x)  = (ds/dr + e^r dx/dtheta - s + t,
                    dx/dr + e^r dt/dtheta - 2 x)

and the symmetric Laplacian is their composition.  Differentiation is
spectral in theta and, by default ("fd"), second-order centered finite
differences in r closed at the two radial edges by the summation-by-parts
rows [-1, 1]/dr, the closure the solenoidal projection solves with.  "fd4"
is a fourth-order interior stencil with second-order one-sided edge rows,
kept as the independent check of that projection; "spectral" switches the
r-derivative to the transform side, valid for fields supported away from
the radial boundary.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .chart import ChartGrid
from .errors import CoverageError, InvalidInputError, NumericFailureError

_NCOMP = {0: 1, 1: 2, 2: 3}
_GRAM = {0: [1.0], 1: [1.0, 1.0], 2: [1.0, 1.0, 2.0]}


def _lagrange_weights(s):
    # 6-point stencil at offsets 0..5, local coordinates s in [2, 3]
    w = []
    for i in range(6):
        p = np.ones_like(s)
        for j in range(6):
            if j != i:
                p *= (s - j) / (i - j)
        w.append(p)
    return w


@dataclass(frozen=True)
class SymTensorField:
    """Grid samples of a symmetric m-tensor (m in {0, 1, 2})."""

    grid: ChartGrid
    order: int
    comps: np.ndarray

    def __post_init__(self):
        if self.order not in _NCOMP:
            raise InvalidInputError("tensor order must be 0, 1 or 2")
        c = np.asarray(self.comps, dtype=float)
        want = (_NCOMP[self.order], self.grid.n_r, self.grid.n_theta)
        if c.shape != want:
            raise InvalidInputError(f"component array must have shape {want}")
        object.__setattr__(self, "comps", c)

    @classmethod
    def zeros(cls, grid, order):
        return cls(grid, order, np.zeros((_NCOMP[order], grid.n_r, grid.n_theta)))

    @classmethod
    def sample(cls, grid, order, *funcs):
        """Samples of elementwise callables f(r, theta), one per component,
        each called once on the axes r (n_r, 1) and theta (1, n_theta)."""
        if len(funcs) != _NCOMP[order]:
            raise InvalidInputError("one sampling function per component")
        r, t = grid.r[:, None], grid.theta[None, :]
        shape = (grid.n_r, grid.n_theta)
        comps = np.stack([np.broadcast_to(np.asarray(f(r, t), dtype=float), shape) for f in funcs])
        return cls(grid, order, comps)

    @classmethod
    def metric(cls, grid):
        """The metric tensor: unit diagonal components in the orthonormal
        coframe."""
        c = np.zeros((3, grid.n_r, grid.n_theta))
        c[0] = 1.0
        c[1] = 1.0
        return cls(grid, 2, c)

    def __add__(self, other):
        self._compat(other)
        return replace(self, comps=self.comps + other.comps)

    def __sub__(self, other):
        self._compat(other)
        return replace(self, comps=self.comps - other.comps)

    def __mul__(self, a):
        return replace(self, comps=self.comps * float(a))

    __rmul__ = __mul__

    def _compat(self, other):
        if self.order != other.order or self.grid != other.grid:
            raise InvalidInputError("tensor fields live on different grids/orders")

    def sup_norm(self):
        return float(np.max(np.abs(self.comps)))

    @cached_property
    def _radial_profile(self):
        """Largest |component| on each radial row."""
        return np.max(np.abs(self.comps), axis=(0, 2))

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

        Returns (ncomp, npts).  Each point's value is the sum over r offsets
        of the theta-interpolated grid rows, in the operation order of a
        scalar loop over the points.
        """
        r_pts = np.asarray(r_pts, dtype=np.float64)
        t_pts = np.asarray(t_pts, dtype=np.float64)
        ncomp, rn, tn = self.comps.shape
        out = np.zeros((ncomp, r_pts.shape[0]))
        x = (r_pts - self.grid.r_min) / self.grid.dr
        if np.isnan(x).any() or not np.isfinite(t_pts).all():
            raise ValueError("interpolation points need a non-NaN r and a finite theta")
        inside = np.nonzero((x >= -0.5) & (x <= rn - 0.5))[0]
        x = x[inside]
        i0 = np.clip(np.floor(x).astype(np.int64) - 2, 0, rn - 6)
        dt = 1.0 / tn
        y = (t_pts[inside] % 1.0) / dt
        j0 = np.floor(y).astype(np.int64) - 2
        wr = _lagrange_weights(x - i0)
        wt = _lagrange_weights(y - j0)
        cols = [(j0 + j) % tn for j in range(6)]
        flat = self.comps.reshape(ncomp, rn * tn)
        acc = np.zeros((ncomp, inside.size))
        for i in range(6):
            base = (i0 + i) * tn
            row = np.zeros((ncomp, inside.size))
            for j in range(6):
                row += wt[j] * flat[:, base + cols[j]]
            acc += wr[i] * row
        out[:, inside] = acc
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


def _dr_spectral(arr, grid):
    n = grid.n_r - 1
    xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=grid.dr)
    # irfft drops the Nyquist bin's imaginary part: that mode differentiates to 0
    spec = np.fft.rfft(arr[..., :-1, :], axis=-2) * (1j * xi)[:, None]
    out = np.empty_like(arr)
    out[..., :-1, :] = np.fft.irfft(spec, n=n, axis=-2)
    out[..., -1, :] = out[..., 0, :]
    return out


def _dtheta(arr, grid):
    spec = np.fft.rfft(arr, axis=-1) * (1j * grid.theta_frequencies())
    return np.fft.irfft(spec, n=grid.n_theta, axis=-1)


def _dr(arr, grid, method):
    if method == "fd":
        return _dr_fd(arr, grid.dr)
    if method == "fd4":
        return _dr_fd4(arr, grid.dr)
    if method == "spectral":
        return _dr_spectral(arr, grid)
    raise InvalidInputError(f"unknown differentiation method {method!r}")


def _frame_sym_derivative(a, b, d_r, d_t, er):
    """Components (s, t, x) of the symmetric derivative of the 1-form (a, b)
    by the module's D formula, with er = e^r; d_r(i) and d_t(i) give the r-
    and theta-partials of component i (0: a, 1: b), each taken only when
    the formula reaches it, so at most two partials are held at once."""
    s = d_r(0)
    t = er * d_t(1) - a
    return s, t, 0.5 * (d_r(1) + er * d_t(0) + b)


def sym_derivative(p, method="fd"):
    """Symmetrized covariant derivative of a 1-form field."""
    if p.order != 1:
        raise InvalidInputError("sym_derivative acts on 1-forms")
    if p.grid.n_r < 3:
        raise InvalidInputError("grid too coarse for differentiation")
    grid = p.grid
    c = p.comps
    d_r, d_t = (lambda i: _dr(c[i], grid, method)), (lambda i: _dtheta(c[i], grid))
    comps = _frame_sym_derivative(c[0], c[1], d_r, d_t, grid.exp_r[:, None])
    return SymTensorField(grid, 2, np.stack(comps))


def divergence(f, method="fd"):
    """Divergence (trace of the covariant derivative) lowering the order by
    one; defined for orders 1 and 2."""
    grid = f.grid
    er = grid.exp_r[:, None]
    if f.order == 2:
        s, t, x = f.comps
        out_a = _dr(s, grid, method) + er * _dtheta(x, grid) - s + t
        out_b = _dr(x, grid, method) + er * _dtheta(t, grid) - 2.0 * x
        return SymTensorField(grid, 1, np.stack([out_a, out_b]))
    if f.order == 1:
        a, b = f.comps
        out = _dr(a, grid, method) + er * _dtheta(b, grid) - a
        return SymTensorField(grid, 0, out[None])
    raise InvalidInputError("divergence needs a tensor of order 1 or 2")


def sym_laplacian(u):
    """divergence o sym_derivative on 1-forms, both with the ``fd`` radial
    derivative."""
    if u.order != 1:
        raise InvalidInputError("sym_laplacian acts on 1-forms")
    return divergence(sym_derivative(u))


# ---------------------------------------------------------------------------
# model family (separable exponential profiles) and closed-form actions
# ---------------------------------------------------------------------------


def model_one_form(grid, lam, a0, b0):
    er = np.exp(lam * grid.r)[:, None] * np.ones(grid.n_theta)
    return SymTensorField(grid, 1, np.stack([a0 * er, b0 * er]))


def model_derivative_image(grid, lam, a0, b0):
    """Closed form of D applied to the exponential model 1-form."""
    er = np.exp(lam * grid.r)[:, None] * np.ones(grid.n_theta)
    s = lam * a0 * er
    t = -a0 * er
    x = 0.5 * (lam + 1.0) * b0 * er
    return SymTensorField(grid, 2, np.stack([s, t, x]))


def model_laplacian_image(grid, lam, a0, b0):
    """Closed form of the symmetric Laplacian applied to the exponential
    model 1-form (the surface case, d = 1)."""
    er = np.exp(lam * grid.r)[:, None] * np.ones(grid.n_theta)
    ca = (lam**2 - lam - 1) * a0
    cb = 0.5 * (lam + 1.0) * (lam - 2.0) * b0
    return SymTensorField(grid, 1, np.stack([ca * er, cb * er]))


# ---------------------------------------------------------------------------
# solenoidal projection
# ---------------------------------------------------------------------------

# The projection is the only user of scipy, so its helpers import it on
# first use: imported at module level, scipy made a fresh-interpreter
# `import cusplab.cli` take 0.74 s instead of 0.33 s (medians of 4, 2-vCPU
# x86-64 VM), a cost every subcommand paid.


def _dr_matrix(n, dr):
    """The matrix of the ``fd`` radial derivative, read off its stencil."""
    import scipy.sparse as sp

    return sp.csr_matrix(_dr_fd(np.eye(n), dr))


def _mode_derivative(grid):
    """Per-theta-mode symmetric derivative (a, b) -> (s, t, x) on stacked
    radial profiles, as the real pair (M0, M1) with M(xi) = M0 + i xi M1."""
    import scipy.sparse as sp

    n = grid.n_r
    dr_m = _dr_matrix(n, grid.dr)
    eye = sp.identity(n, format="csr")
    e_mul = sp.diags(grid.exp_r)
    m0 = sp.bmat([[dr_m, None], [-eye, None], [None, 0.5 * (dr_m + eye)]], format="csr")
    m1 = sp.bmat([[None, sp.csr_matrix((n, n))], [None, e_mul], [0.5 * e_mul, None]], format="csr")
    return m0, m1


# Half-bandwidth of the per-mode normal equations once the unknowns are
# interleaved as (a_i, b_i) pairs: D^H W D couples a with a and b with b two
# nodes apart (offset 4), and a with b one node apart (offset 3).
_HALF_BAND = 4


def _band_storage(m):
    """LAPACK band storage ab[_HALF_BAND + i - j, j] = m[i, j] of a square
    sparse matrix; raises if an entry lies outside the band."""
    import scipy.sparse as sp

    half = _HALF_BAND
    m = sp.coo_matrix(m)
    m.sum_duplicates()
    m.eliminate_zeros()
    offset = m.row - m.col
    if offset.size and np.max(np.abs(offset)) > half:
        raise ValueError(
            f"matrix has an entry {int(np.max(np.abs(offset)))} diagonals off the "
            f"main one, outside half-bandwidth {half}"
        )
    ab = np.zeros((2 * half + 1, m.shape[1]), dtype=m.dtype)
    ab[half + offset, m.col] = m.data
    return ab


def _solve_banded_modes(parts, rhs, xis):
    """Solve (B0 + i xi B1 - xi^2 B2) u = rhs[:, k] for each theta mode k,
    one banded LAPACK solve per mode; ``parts`` are the band-stored B0, B1,
    B2.  Returns the solutions, column k for mode k."""
    from scipy.linalg import solve_banded

    b0, b1, b2 = parts
    sol = np.empty(rhs.shape, dtype=complex)
    for k, xi in enumerate(xis):
        ab = b0 + (1j * xi) * b1 - (xi * xi) * b2
        try:
            sol[:, k] = solve_banded((_HALF_BAND, _HALF_BAND), ab, rhs[:, k])
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NumericFailureError(
                f"banded solve failed on theta mode {k}", {"mode": k}
            ) from exc
    return sol


def _solve_modes_least_squares(f, grid):
    """The rfft modes of the potential (zero at both radial ends) from the
    weighted normal equations of the discrete derivative, and the largest
    relative solve residual."""
    import scipy.sparse as sp

    n = grid.n_r
    wvec = grid.radial_weights()
    weight = sp.diags(np.concatenate([wvec, wvec, 2.0 * wvec]))
    # interleaved interior unknowns (a_i, b_i) -> stacked (a, b) profiles
    nodes = np.arange(1, n - 1)
    rows = np.stack([nodes, n + nodes], axis=1).ravel()
    m = rows.size
    inject = sp.csr_matrix((np.ones(m), (rows, np.arange(m))), shape=(2 * n, m))
    d0, d1 = (part @ inject for part in _mode_derivative(grid))
    # D(xi)^H W D(xi) = N0 + i xi N1 - xi^2 N2 with D(xi) = D0 + i xi D1
    a0, a1 = d0.T @ weight, d1.T @ weight
    systems = [a0 @ d0, a0 @ d1 - a1 @ d0, -(a1 @ d1)]
    # f is real, so mode -xi is the conjugate of mode xi: every mode xi >= 0
    # takes its right-hand side D(xi)^H W f_hat from one sparse product
    f_hat = np.fft.rfft(f.comps, axis=2).reshape(3 * n, -1)
    xis = grid.theta_frequencies()
    if grid.n_theta % 2 == 0:
        xis[-1] = 0.0  # the theta-derivative of a real field drops its Nyquist mode
    both = sp.vstack([a0, a1]) @ f_hat
    rhs = both[:m] - 1j * xis * both[m:]
    sol = _solve_banded_modes([_band_storage(s) for s in systems], rhs, xis)
    # every mode's residual from one product of each system with all modes
    n0, n1, n2 = (s @ sol for s in systems)
    misfit = np.linalg.norm(n0 + 1j * xis * n1 - xis * xis * n2 - rhs, axis=0)
    residual = np.max(misfit / np.maximum(np.linalg.norm(rhs, axis=0), 1e-300))
    sol_hat = np.zeros((2, n, xis.size), dtype=complex)
    sol_hat[:, 1:-1, :] = sol.reshape(n - 2, 2, xis.size).transpose(1, 0, 2)
    return sol_hat, residual


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
    stored in LAPACK band form; each mode then takes one ``solve_banded``
    call, and one product of each part with all modes gives the residuals.
    ``adjoint`` names this route and accepts only "exact"; it remains for
    callers that still pass it.

    Returns (f_s, u, info); info reports the solve residual, the divergence
    of f_s measured with an independently discretized operator (the
    fourth-order "fd4" r-derivative), and the orthogonality defect under the
    hyperbolic pairing.
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
    sol_hat, residual = _solve_modes_least_squares(f, grid)
    u_field = SymTensorField(grid, 1, np.fft.irfft(sol_hat, n=grid.n_theta, axis=2))
    du = sym_derivative(u_field, method="fd")
    f_s = f - du
    norm_f = l2_norm(f)
    div_check = divergence(f_s, method="fd4")
    denom = max(l2_norm(f_s) * l2_norm(du), 1e-300)
    info = {
        "solve_residual": float(residual),
        "divergence_residual": l2_norm(div_check) / norm_f if norm_f else 0.0,
        "decomposition_residual": l2_norm(f - f_s - du) / norm_f if norm_f else 0.0,
        "orthogonality": abs(l2_inner(f_s, du)) / denom,
    }
    if info["solve_residual"] > 1e-8:
        raise NumericFailureError("mode solves did not converge", info)
    return f_s, u_field, info
