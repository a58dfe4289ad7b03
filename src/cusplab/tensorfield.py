"""Symmetric tensor fields on the cusp chart and their natural operators.

Components live in the invariant orthonormal coframe {dy/y, dtheta/y}:
order 1 stores (a, b), order 2 stores (s, t, x) with x the coefficient on
the symmetrized mixed product (Gram weight 2).  With e_1 = d/dr and
e_2 = e^r d/dtheta, the connection gives

    D(a, b)      = (da/dr,  e^r db/dtheta - a,  (db/dr + e^r da/dtheta + b)/2)
    D*(s, t, x)  = (ds/dr + e^r dx/dtheta - s + t,
                    dx/dr + e^r dt/dtheta - 2 x)

and the symmetric Laplacian is their composition.  Differentiation is
spectral in theta and, by default, second-order centered finite differences
in r ("spectral" switches the r-derivative to the transform side, valid for
fields supported away from the radial boundary).
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded

from . import _kernels
from .chart import ChartGrid
from .errors import InvalidInputError, NumericFailureError

_NCOMP = {0: 1, 1: 2, 2: 3}


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
        if len(funcs) != _NCOMP[order]:
            raise InvalidInputError("one sampling function per component")
        rr, tt = grid.mesh
        comps = np.stack([np.asarray(f(rr, tt), dtype=float) for f in funcs])
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

    def gram_weights(self):
        return {0: [1.0], 1: [1.0, 1.0], 2: [1.0, 1.0, 2.0]}[self.order]

    def sup_norm(self):
        return float(np.max(np.abs(self.comps)))

    def support_margin(self):
        """Number of radial boundary cells on each side where the field is
        numerically zero (below 1e-12 of its largest finite value); a cell
        holding a non-finite value counts as support."""
        prof = np.max(np.abs(self.comps), axis=(0, 2))
        finite = prof[np.isfinite(prof)]
        floor = 1e-12 * max(finite.max(initial=0.0), 1e-300)
        nz = np.nonzero(~(prof <= floor))[0]
        if nz.size == 0:
            return self.grid.n_r
        return int(min(nz[0], self.grid.n_r - 1 - nz[-1]))

    def interpolate(self, r_pts, t_pts):
        """Component values at scattered chart points (quintic Lagrange in r,
        periodic in theta; zero outside the radial range)."""
        return _kernels.interp2d(
            self.comps, self.grid.r_min, self.grid.dr, r_pts, t_pts
        )

    def pullback(self, r, t, p_hat, q_hat):
        """pi_m^* of the field at chart points (r, t) along unit directions
        with orthonormal-frame components (vertical p_hat, slice q_hat): the
        order-m tensor evaluated on the m-fold direction."""
        vals = self.interpolate(r, t)
        if self.order == 0:
            return vals[0]
        if self.order == 1:
            return vals[0] * p_hat + vals[1] * q_hat
        return vals[0] * p_hat**2 + vals[1] * q_hat**2 + 2.0 * vals[2] * p_hat * q_hat


def l2_inner(f, g):
    """Hyperbolic L2 pairing with the fiberwise Gram weights."""
    f._compat(g)
    w = f.grid.quadrature_weights()
    gw = f.gram_weights()
    return float(sum(gw[i] * np.sum(w * f.comps[i] * g.comps[i]) for i in range(len(gw))))


def l2_norm(f):
    return float(np.sqrt(max(l2_inner(f, f), 0.0)))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def _dr_fd(arr, dr):
    out = np.empty_like(arr)
    out[..., 1:-1, :] = (arr[..., 2:, :] - arr[..., :-2, :]) / (2.0 * dr)
    out[..., 0, :] = (
        -1.5 * arr[..., 0, :] + 2.0 * arr[..., 1, :] - 0.5 * arr[..., 2, :]
    ) / dr
    out[..., -1, :] = (
        1.5 * arr[..., -1, :] - 2.0 * arr[..., -2, :] + 0.5 * arr[..., -3, :]
    ) / dr
    return out


def _dr_fd4(arr, dr):
    # fourth-order interior stencil, second-order one-sided near the edges;
    # used by the independent verification route
    out = _dr_fd(arr, dr)
    out[..., 2:-2, :] = (
        arr[..., :-4, :] - 8 * arr[..., 1:-1, :][..., :-2, :]
        + 8 * arr[..., 2:, :][..., 1:-1, :] - arr[..., 4:, :]
    ) / (12.0 * dr)
    return out


def _dr_spectral(arr, grid):
    n = grid.n_r - 1
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dr)
    spec = np.fft.fft(arr[..., :-1, :], axis=-2) * (1j * xi)[:, None]
    out = np.empty_like(arr)
    out[..., :-1, :] = np.fft.ifft(spec, axis=-2).real
    out[..., -1, :] = out[..., 0, :]
    return out


def _dtheta(arr, grid):
    xi = grid.theta_frequencies()
    spec = np.fft.fft(arr, axis=-1) * (1j * xi)
    return np.fft.ifft(spec, axis=-1).real


def _dr(arr, grid, method):
    if method == "fd":
        return _dr_fd(arr, grid.dr)
    if method == "fd4":
        return _dr_fd4(arr, grid.dr)
    if method == "spectral":
        return _dr_spectral(arr, grid)
    raise InvalidInputError(f"unknown differentiation method {method!r}")


def sym_derivative(p, method="fd"):
    """Symmetrized covariant derivative of a 1-form field."""
    if p.order != 1:
        raise InvalidInputError("sym_derivative acts on 1-forms")
    if p.grid.n_r < 3:
        raise InvalidInputError("grid too coarse for differentiation")
    grid = p.grid
    er = grid.exp_r[:, None]
    a, b = p.comps
    s = _dr(a, grid, method)
    t = er * _dtheta(b, grid) - a
    x = 0.5 * (_dr(b, grid, method) + er * _dtheta(a, grid) + b)
    return SymTensorField(grid, 2, np.stack([s, t, x]))


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


def sym_laplacian(u, method="fd"):
    """divergence o sym_derivative on 1-forms."""
    if u.order != 1:
        raise InvalidInputError("sym_laplacian acts on 1-forms")
    return divergence(sym_derivative(u, method), method)


# ---------------------------------------------------------------------------
# model family (separable exponential profiles) and closed-form actions
# ---------------------------------------------------------------------------


def model_one_form(grid, lam, a0, b0):
    er = np.exp(lam * grid.r)[:, None]
    ones = np.ones((grid.n_r, grid.n_theta))
    return SymTensorField(grid, 1, np.stack([a0 * er * ones, b0 * er * ones]))


def model_derivative_image(grid, lam, a0, b0):
    """Closed form of D applied to the exponential model 1-form."""
    er = np.exp(lam * grid.r)[:, None]
    ones = np.ones((grid.n_r, grid.n_theta))
    s = lam * a0 * er * ones
    t = -a0 * er * ones
    x = 0.5 * (lam + 1.0) * b0 * er * ones
    return SymTensorField(grid, 2, np.stack([s, t, x]))


def model_laplacian_image(grid, lam, a0, b0, d=1):
    er = np.exp(lam * grid.r)[:, None]
    ones = np.ones((grid.n_r, grid.n_theta))
    ca = (lam**2 - lam * d - d) * a0
    cb = 0.5 * (lam + 1.0) * (lam - (d + 1.0)) * b0
    return SymTensorField(grid, 1, np.stack([ca * er * ones, cb * er * ones]))


# ---------------------------------------------------------------------------
# solenoidal projection
# ---------------------------------------------------------------------------


def _dr_matrix(n, dr):
    main = np.zeros(n)
    upper = np.full(n - 1, 0.5 / dr)
    lower = np.full(n - 1, -0.5 / dr)
    m = sp.diags([lower, main, upper], [-1, 0, 1], format="lil")
    m[0, :3] = np.array([-1.5, 2.0, -0.5]) / dr
    m[-1, -3:] = np.array([0.5, -2.0, 1.5]) / dr
    return m.tocsr()


def _mode_derivative(grid):
    """Per-theta-mode symmetric derivative (a, b) -> (s, t, x) on stacked
    radial profiles, as the real pair (M0, M1) with M(xi) = M0 + i xi M1."""
    n = grid.n_r
    dr_m = _dr_matrix(n, grid.dr)
    eye = sp.identity(n, format="csr")
    e_mul = sp.diags(grid.exp_r)
    m0 = sp.bmat([[dr_m, None], [-eye, None], [None, 0.5 * (dr_m + eye)]], format="csr")
    m1 = sp.bmat([[None, sp.csr_matrix((n, n))], [None, e_mul], [0.5 * e_mul, None]], format="csr")
    return m0, m1


def _mode_divergence(grid):
    """Per-theta-mode divergence (s, t, x) -> (a, b), as the real pair
    (M0, M1) with M(xi) = M0 + i xi M1."""
    n = grid.n_r
    dr_m = _dr_matrix(n, grid.dr)
    eye = sp.identity(n, format="csr")
    e_mul = sp.diags(grid.exp_r)
    m0 = sp.bmat([[dr_m - eye, eye, None], [None, None, dr_m - 2.0 * eye]], format="csr")
    m1 = sp.bmat([[sp.csr_matrix((n, n)), None, e_mul], [None, e_mul, None]], format="csr")
    return m0, m1


# Half-bandwidth of both per-mode systems once the unknowns are interleaved
# as (a_i, b_i) pairs: the composed radial stencils reach two nodes, and the
# Dirichlet rows are identity rows.
_HALF_BAND = 4


def _pairs(n, nodes):
    """Sparse map from interleaved unknowns (a_i, b_i), i in ``nodes``, to
    stacked (a, b) radial profiles of length 2n."""
    m = nodes.size
    rows = np.stack([nodes, n + nodes], axis=1).ravel()
    return sp.csr_matrix((np.ones(2 * m), (rows, np.arange(2 * m))), shape=(2 * n, 2 * m))


def _band_storage(m):
    """LAPACK band storage ab[_HALF_BAND + i - j, j] = m[i, j] of a square
    sparse matrix; raises if an entry lies outside the band."""
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


def _band_matvec(ab, x):
    """Product of a band-stored square matrix with a vector."""
    half = _HALF_BAND
    n = x.size
    y = np.zeros(n, dtype=np.result_type(ab, x))
    for k in range(2 * half + 1):
        d = k - half  # the row index minus the column index
        lo, hi = max(0, -d), min(n, n - d)
        y[lo + d : hi + d] += ab[k, lo:hi] * x[lo:hi]
    return y


def _solve_banded_modes(parts, rhs, xis):
    """Solve (B0 + i xi B1 - xi^2 B2) u = rhs[:, k] for each theta mode k,
    one banded LAPACK solve per mode; ``parts`` are the band-stored B0, B1,
    B2.  Returns the solutions (column k for mode k) and the largest
    relative residual over the modes."""
    b0, b1, b2 = parts
    sol = np.empty(rhs.shape, dtype=complex)
    residual = 0.0
    for k, xi in enumerate(xis):
        ab = b0 + (1j * xi) * b1 - (xi * xi) * b2
        rhs_k = rhs[:, k]
        try:
            u = solve_banded((_HALF_BAND, _HALF_BAND), ab, rhs_k)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NumericFailureError(
                f"banded solve failed on theta mode {k}", {"mode": k}
            ) from exc
        residual = max(
            residual,
            np.linalg.norm(_band_matvec(ab, u) - rhs_k) / max(np.linalg.norm(rhs_k), 1e-300),
        )
        sol[:, k] = u
    return sol, residual


def _solve_modes_collocation(f, grid):
    """Potential from the composed system (divergence o derivative) u =
    divergence f, Dirichlet rows replaced; second-order accurate up to the
    boundary."""
    n = grid.n_r
    d0, d1 = _mode_derivative(grid)
    v0, v1 = _mode_divergence(grid)
    pairs = _pairs(n, np.arange(n))
    # V(xi) D(xi) = P0 + i xi P1 - xi^2 P2, rows and columns interleaved
    systems = [v0 @ d0, v0 @ d1 + v1 @ d0, v1 @ d1]
    keep = np.ones(2 * n)
    keep[[0, 1, -2, -1]] = 0.0  # a and b at both radial ends
    rows = sp.diags(keep)
    systems = [rows @ (pairs.T @ m @ pairs) for m in systems]
    systems[0] = systems[0] + sp.diags(1.0 - keep)
    rhs_hat = np.fft.fft(divergence(f, method="fd").comps, axis=2)
    rhs = rhs_hat.transpose(1, 0, 2).reshape(2 * n, grid.n_theta)
    rhs[keep == 0.0] = 0.0
    sol, residual = _solve_banded_modes(
        [_band_storage(m) for m in systems], rhs, grid.theta_frequencies()
    )
    return sol.reshape(n, 2, grid.n_theta).transpose(1, 0, 2), residual


def _solve_modes_least_squares(f, grid):
    """Potential from the weighted normal equations of the discrete
    derivative: the residual is orthogonal to potentials at solver
    precision (at the cost of first-order accuracy in a boundary layer)."""
    n = grid.n_r
    wvec = grid.radial_weights()
    weight = sp.diags(np.concatenate([wvec, wvec, 2.0 * wvec]))
    inject = _pairs(n, np.arange(1, n - 1))
    d0, d1 = (m @ inject for m in _mode_derivative(grid))
    # D(xi)^H W D(xi) = N0 + i xi N1 - xi^2 N2 with D(xi) = D0 + i xi D1
    a0, a1 = d0.T @ weight, d1.T @ weight
    systems = [a0 @ d0, a0 @ d1 - a1 @ d0, -(a1 @ d1)]
    # every mode's right-hand side D(xi)^H W f_hat from one sparse product
    f_hat = np.fft.fft(f.comps, axis=2).reshape(3 * n, grid.n_theta)
    xis = grid.theta_frequencies()
    m = 2 * (n - 2)
    both = sp.vstack([a0, a1]) @ f_hat
    rhs = both[:m] - 1j * xis * both[m:]
    sol, residual = _solve_banded_modes([_band_storage(s) for s in systems], rhs, xis)
    sol_hat = np.zeros((2, n, grid.n_theta), dtype=complex)
    sol_hat[:, 1:-1, :] = sol.reshape(n - 2, 2, grid.n_theta).transpose(1, 0, 2)
    return sol_hat, residual


def solenoidal_project(f, support_margin=5, adjoint="fd"):
    """Splitting f = f_s + D u with D* f_s small.

    Theta modes decouple and each radial problem is a banded solve with
    Dirichlet conditions at the truncation.  The mode frequency xi enters
    only through i xi e^r, so every mode's system is B0 + i xi B1 - xi^2 B2
    with real, mode-independent parts, assembled once per call with the
    unknowns interleaved as (a_i, b_i) pairs (half-bandwidth 4) and stored
    in LAPACK band form; each mode then takes one ``solve_banded`` call and
    a band mat-vec for its residual.  ``adjoint="fd"`` (default)
    solves the composed collocation system (divergence o derivative) u =
    divergence f: the potential is second-order accurate up to the boundary
    and re-projection returns exactly zero.  ``adjoint="exact"`` solves the
    weighted normal equations instead, making the residual orthogonal to
    potentials at machine precision (its potential loses an order of
    accuracy in a boundary layer).

    Returns (f_s, u, info); info reports the solve residual, the divergence
    of f_s measured with an independently discretized operator (the
    fourth-order "fd4" r-derivative), and the orthogonality defect under the
    hyperbolic pairing.
    """
    if f.order != 2:
        raise InvalidInputError("solenoidal projection acts on 2-tensors")
    if f.support_margin() < support_margin:
        raise InvalidInputError(
            f"field support must keep {support_margin} cells away from the "
            "radial truncation"
        )
    grid = f.grid
    if adjoint == "fd":
        sol_hat, residual = _solve_modes_collocation(f, grid)
    elif adjoint == "exact":
        sol_hat, residual = _solve_modes_least_squares(f, grid)
    else:
        raise InvalidInputError("adjoint must be 'fd' or 'exact'")
    u_field = SymTensorField(grid, 1, np.fft.ifft(sol_hat, axis=2).real)
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
