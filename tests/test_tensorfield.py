import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cusplab.chart import ChartGrid
from cusplab.errors import InvalidInputError, NumericFailureError
from cusplab.fields import AnalyticOneForm, Scalar2D, random_bump_one_form
from cusplab.halfplane import BoundaryGeodesic
from cusplab.tensorfield import (
    SymTensorField,
    _band_matvec,
    _band_storage,
    _dr_matrix,
    _solve_modes_collocation,
    _solve_modes_least_squares,
    divergence,
    l2_inner,
    l2_norm,
    model_derivative_image,
    model_laplacian_image,
    model_one_form,
    solenoidal_project,
    sym_derivative,
    sym_laplacian,
)

GRID = ChartGrid(0.0, 3.0, 193, 64)
INTERIOR = slice(2, -2)  # composed stencils are one-sided within 2 cells


def interior_sup(field_a, field_b):
    return float(np.max(np.abs(field_a.comps[:, INTERIOR, :] - field_b.comps[:, INTERIOR, :])))


# ---------------------------------------------------------------------------
# model-family exactness (closed-form actions on y^lambda profiles)
# ---------------------------------------------------------------------------


def test_derivative_of_vertical_coframe_is_minus_slice_square():
    # lambda = 0, a = 1, b = 0: the derivative is -1 on the slice square
    p = model_one_form(GRID, 0.0, 1.0, 0.0)
    got = sym_derivative(p)
    want = model_derivative_image(GRID, 0.0, 1.0, 0.0)
    assert np.allclose(want.comps[0], 0.0)
    assert np.allclose(want.comps[1], -1.0)
    assert np.allclose(want.comps[2], 0.0)
    assert interior_sup(got, want) < 1e-11


def test_derivative_of_growing_slice_form_hits_cross_term():
    # lambda = 1, b = 1: cross coefficient (lambda+1)/2 in the half-sum
    # symmetrization convention
    p = model_one_form(GRID, 1.0, 0.0, 1.0)
    got = sym_derivative(p)
    want = model_derivative_image(GRID, 1.0, 0.0, 1.0)
    assert np.allclose(want.comps[2][0], 1.0)
    err = interior_sup(got, want)
    assert err <= 5.0 * GRID.dr**2


def test_derivative_of_zero_is_zero():
    p = SymTensorField.zeros(GRID, 1)
    assert sym_derivative(p).sup_norm() == 0.0


@pytest.mark.parametrize("lam,a0,b0", [(0.7, 1.0, 0.0), (1.3, 0.0, 1.0), (-0.4, 0.6, -1.1)])
def test_model_exactness_second_order(lam, a0, b0):
    errs = []
    grids = [GRID, GRID.refine(2), GRID.refine(4)]
    for g in grids:
        p = model_one_form(g, lam, a0, b0)
        d_err = interior_sup(sym_derivative(p), model_derivative_image(g, lam, a0, b0))
        l_err = interior_sup(sym_laplacian(p), model_laplacian_image(g, lam, a0, b0))
        errs.append(max(d_err, l_err) / max(abs(a0), abs(b0)))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 >= 1.9
    assert order2 >= 1.9


def test_laplacian_matches_divergence_of_derivative():
    p = model_one_form(GRID, 0.8, 1.0, 0.5)
    a = sym_laplacian(p)
    b = divergence(sym_derivative(p))
    assert interior_sup(a, b) == 0.0


def test_grid_too_coarse_rejected():
    with pytest.raises(InvalidInputError):
        ChartGrid(0.0, 3.0, 4, 64)


# ---------------------------------------------------------------------------
# adjointness of derivative and divergence
# ---------------------------------------------------------------------------


def _bump_pair(grid, seed):
    rng = np.random.default_rng(seed)
    mid = 0.5 * (grid.r_min + grid.r_max)
    p = AnalyticOneForm(
        a=Scalar2D.bump(mid - 0.3, 0.3, 0.8, 0.2) * rng.normal(),
        b=Scalar2D.bump(mid + 0.2, 0.55, 0.7, 0.18) * rng.normal(),
    ).sample(grid)
    sf = Scalar2D.bump(mid, 0.4, 0.9, 0.22)
    f = SymTensorField.sample(
        grid,
        2,
        lambda r, t: sf(r, t),
        lambda r, t: 0.4 * sf(r, t + 0.07),
        lambda r, t: -0.8 * sf(r - 0.1, t),
    )
    return p, f


def test_adjointness_residual_second_order():
    residuals = []
    for g in [GRID, GRID.refine(2), GRID.refine(4)]:
        p, f = _bump_pair(g, 7)
        lhs = l2_inner(sym_derivative(p), f)
        rhs = -l2_inner(p, divergence(f))
        residuals.append(abs(lhs - rhs) / (l2_norm(p) * l2_norm(f)))
    order = np.log2(residuals[0] / residuals[1])
    order2 = np.log2(residuals[1] / residuals[2])
    assert order >= 1.9
    assert order2 >= 1.9


def test_divergence_of_zero_and_bad_order():
    z = SymTensorField.zeros(GRID, 2)
    assert divergence(z).sup_norm() == 0.0
    with pytest.raises(InvalidInputError):
        divergence(SymTensorField.zeros(GRID, 0))


def test_divergence_model_closed_form():
    # D*(y^lam (s0, t0, x0)) = y^lam ((lam-1) s0 + t0, (lam-2) x0) for d=1
    lam, s0, t0, x0 = 0.6, 1.0, -0.7, 0.4
    er = np.exp(lam * GRID.r)[:, None]
    ones = np.ones((GRID.n_r, GRID.n_theta))
    f = SymTensorField(GRID, 2, np.stack([s0 * er * ones, t0 * er * ones, x0 * er * ones]))
    got = divergence(f)
    want_a = ((lam - 1.0) * s0 + t0) * er * ones
    want_b = (lam - 2.0) * x0 * er * ones
    err = np.max(np.abs(got.comps[0][INTERIOR] - want_a[INTERIOR])) + np.max(
        np.abs(got.comps[1][INTERIOR] - want_b[INTERIOR])
    )
    assert err <= 10.0 * GRID.dr**2 * np.exp(lam * GRID.r_max)


# ---------------------------------------------------------------------------
# solenoidal projection
# ---------------------------------------------------------------------------


def test_projection_of_potential_recovers_potential():
    grid = ChartGrid(0.0, 3.0, 257, 64)
    p, _ = _bump_pair(grid, 3)
    f = sym_derivative(p)
    f_s, u, info = solenoidal_project(f)
    assert info["decomposition_residual"] <= 1e-12
    assert l2_norm(f_s) <= 2e-4 * l2_norm(f)
    assert l2_norm(u - p) <= 1e-3 * l2_norm(p)


def test_projection_idempotent():
    grid = ChartGrid(0.0, 3.0, 257, 64)
    _, f = _bump_pair(grid, 11)
    f_s, u, info = solenoidal_project(f)
    f_s2, u2, _ = solenoidal_project(f_s, support_margin=0)
    assert l2_norm(u2) <= 1e-6 * l2_norm(f_s)
    assert l2_norm(f_s2 - f_s) <= 1e-6 * l2_norm(f_s)


def test_projection_orthogonality():
    # the default collocation route is orthogonal to potentials up to
    # discretization (meets 1e-6 at the 513-node resolution); the exact-
    # adjoint variant is orthogonal at solver precision on any grid
    grid = ChartGrid(0.0, 3.0, 257, 64)
    _, f = _bump_pair(grid, 11)
    _, _, info = solenoidal_project(f, adjoint="exact")
    assert info["orthogonality"] <= 1e-10
    fine = ChartGrid(0.0, 3.0, 513, 128)
    _, f2 = _bump_pair(fine, 11)
    _, _, info2 = solenoidal_project(f2)
    assert info2["orthogonality"] <= 1e-6


def test_projection_divergence_residual_decays_order_two():
    vals = []
    for g in [ChartGrid(0.0, 3.0, 129, 32), ChartGrid(0.0, 3.0, 257, 64), ChartGrid(0.0, 3.0, 513, 128)]:
        _, f = _bump_pair(g, 11)
        _, _, info = solenoidal_project(f)
        vals.append(info["divergence_residual"])
    order1 = np.log2(vals[0] / vals[1])
    order2 = np.log2(vals[1] / vals[2])
    assert order1 >= 1.9
    assert order2 >= 1.9


def test_projection_requires_support_margin():
    g = ChartGrid(0.0, 3.0, 129, 32)
    f = SymTensorField.metric(g)
    with pytest.raises(InvalidInputError):
        solenoidal_project(f)


# Reference: the per-mode sparse assembly and SuperLU solve, one system
# assembled anew for every theta mode, in the stacked (a, b) ordering.


def _sparse_mode_derivative(grid, xi):
    n = grid.n_r
    dr_m = _dr_matrix(n, grid.dr)
    eye = sp.identity(n, format="csr")
    e_mul = sp.diags(grid.exp_r)
    zer = sp.csr_matrix((n, n))
    ik = 1j * xi
    return sp.bmat(
        [[dr_m, zer], [-eye, ik * e_mul], [0.5 * ik * e_mul, 0.5 * (dr_m + eye)]],
        format="csr",
        dtype=complex,
    )


def _sparse_mode_divergence(grid, xi):
    n = grid.n_r
    dr_m = _dr_matrix(n, grid.dr)
    eye = sp.identity(n, format="csr")
    e_mul = sp.diags(grid.exp_r)
    zer = sp.csr_matrix((n, n))
    ik = 1j * xi
    return sp.bmat(
        [[dr_m - eye, eye, ik * e_mul], [zer, ik * e_mul, dr_m - 2.0 * eye]],
        format="csr",
        dtype=complex,
    )


def _sparse_collocation(f, grid):
    n = grid.n_r
    rhs_hat = np.fft.fft(divergence(f, method="fd").comps, axis=2)
    sol_hat = np.zeros((2, n, grid.n_theta), dtype=complex)
    for k, xi in enumerate(grid.theta_frequencies()):
        lap = (_sparse_mode_divergence(grid, xi) @ _sparse_mode_derivative(grid, xi)).tolil()
        b = np.concatenate([rhs_hat[0, :, k], rhs_hat[1, :, k]])
        for row in (0, n - 1, n, 2 * n - 1):
            lap.rows[row] = [row]
            lap.data[row] = [1.0]
            b[row] = 0.0
        u = spla.spsolve(lap.tocsc(), b)
        sol_hat[0, :, k] = u[:n]
        sol_hat[1, :, k] = u[n:]
    return sol_hat


def _sparse_least_squares(f, grid):
    n = grid.n_r
    wr = np.full(n, grid.dr)
    wr[0] *= 0.5
    wr[-1] *= 0.5
    wvec = wr * np.exp(-grid.r)
    weight = sp.diags(np.concatenate([wvec, wvec, 2.0 * wvec]))
    interior = np.arange(1, n - 1)
    inject = sp.csr_matrix(
        (
            np.ones(2 * (n - 2)),
            (np.concatenate([interior, n + interior]), np.arange(2 * (n - 2))),
        ),
        shape=(2 * n, 2 * (n - 2)),
    )
    f_hat = np.fft.fft(f.comps, axis=2)
    sol_hat = np.zeros((2, n, grid.n_theta), dtype=complex)
    for k, xi in enumerate(grid.theta_frequencies()):
        d_m = _sparse_mode_derivative(grid, xi) @ inject
        lap = (d_m.conj().T @ weight @ d_m).tocsc()
        rhs = d_m.conj().T @ (
            weight @ np.concatenate([f_hat[0, :, k], f_hat[1, :, k], f_hat[2, :, k]])
        )
        u = spla.spsolve(lap, rhs)
        sol_hat[0, 1:-1, k] = u[: n - 2]
        sol_hat[1, 1:-1, k] = u[n - 2 :]
    return sol_hat


@pytest.mark.parametrize("shape", [(129, 64), (257, 128)])
@pytest.mark.parametrize(
    "banded,sparse",
    [
        (_solve_modes_collocation, _sparse_collocation),
        (_solve_modes_least_squares, _sparse_least_squares),
    ],
    ids=["collocation", "least_squares"],
)
def test_banded_mode_solves_match_sparse_reference(shape, banded, sparse):
    grid = ChartGrid(0.0, 3.0, *shape)
    _, f = _bump_pair(grid, 11)
    sol_hat, residual = banded(f, grid)
    want = sparse(f, grid)
    assert residual <= 1e-12
    assert np.linalg.norm(sol_hat - want) <= 1e-10 * np.linalg.norm(want)


def test_band_storage_round_trip_and_width_check():
    rng = np.random.default_rng(4)
    offsets = range(-4, 5)
    m = sp.diags([rng.normal(size=40 - abs(d)) for d in offsets], list(offsets))
    x = rng.normal(size=40) + 1j * rng.normal(size=40)
    assert np.allclose(_band_matvec(_band_storage(m), x), m @ x, rtol=0, atol=1e-13)
    wide = m + sp.coo_matrix(([1.0], ([0], [5])), shape=(40, 40))
    with pytest.raises(ValueError, match="outside half-bandwidth"):
        _band_storage(wide)
    with pytest.raises(ValueError, match="outside half-bandwidth"):
        _band_storage(wide.T)


@pytest.mark.parametrize("adjoint", ["fd", "exact"])
def test_projection_of_non_finite_field_fails_with_mode(adjoint):
    grid = ChartGrid(0.0, 3.0, 65, 16)
    _, f = _bump_pair(grid, 11)
    comps = f.comps.copy()
    comps[0, 30, 3] = np.nan
    with pytest.raises(NumericFailureError) as err:
        solenoidal_project(SymTensorField(grid, 2, comps), adjoint=adjoint)
    assert err.value.diagnostics == {"mode": 0}


@pytest.mark.parametrize("cell, margin", [(0, 0), (30, 12), (62, 2)])
def test_support_margin_counts_non_finite_cells_as_support(cell, margin):
    grid = ChartGrid(0.0, 3.0, 65, 16)
    _, f = _bump_pair(grid, 11)
    assert f.support_margin() == 12
    comps = f.comps.copy()
    comps[0, cell, 3] = np.nan
    assert SymTensorField(grid, 2, comps).support_margin() == margin


@pytest.mark.parametrize("cell", [0, 62])
def test_projection_rejects_non_finite_value_near_the_boundary(cell):
    grid = ChartGrid(0.0, 3.0, 65, 16)
    _, f = _bump_pair(grid, 11)
    comps = f.comps.copy()
    comps[0, cell, 3] = np.nan
    with pytest.raises(InvalidInputError):
        solenoidal_project(SymTensorField(grid, 2, comps))


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------


def test_pullback_of_metric_is_one():
    g = SymTensorField.metric(GRID)
    rng = np.random.default_rng(0)
    r = rng.uniform(0.5, 2.5, 50)
    t = rng.uniform(0, 1, 50)
    ang = rng.uniform(0, 2 * np.pi, 50)
    vals = g.pullback(r, t, np.cos(ang), np.sin(ang))
    assert np.max(np.abs(vals - 1.0)) < 1e-9


def test_pullback_vertical_square_on_horizontal_vanishes():
    c = np.zeros((3, GRID.n_r, GRID.n_theta))
    c[0] = 1.0  # the vertical-coframe square
    f = SymTensorField(GRID, 2, c)
    vals = f.pullback(np.array([1.5]), np.array([0.3]), np.array([0.0]), np.array([1.0]))
    assert abs(vals[0]) < 1e-12


def test_flow_derivative_identity_pullback():
    # d/dt [pi_1^* p (gamma, gamma')] = pi_2^*(D p)(gamma, gamma') along any
    # chart geodesic, with p and D p in closed form; finite differences in t
    p = random_bump_one_form(5, center=(1.5, 0.45), r_width=0.5, t_width=0.15)
    dp = p.sym_derivative()
    axis = BoundaryGeodesic(0.2, 0.9)  # stays around the bump's chart patch
    ts = np.linspace(-0.4, 0.4, 21)
    h = 1e-5

    def pull1(t):
        z = axis.point(t)
        v = axis.tangent(t)
        u = v / z.imag
        return p.pullback(np.log(z.imag), z.real % 1.0, u.imag, u.real)

    for t in ts:
        z = axis.point(t)
        v = axis.tangent(t)
        u = v / z.imag
        lhs = (pull1(t + h) - pull1(t - h)) / (2 * h)
        rhs = dp.pullback(np.log(z.imag), z.real % 1.0, u.imag, u.real)
        assert abs(lhs - rhs) <= 5e-8


def test_linearity_of_interpolation_and_norms():
    _, f = _bump_pair(GRID, 2)
    g = 2.5 * f
    assert abs(l2_norm(g) - 2.5 * l2_norm(f)) < 1e-12 * l2_norm(g)
    r = np.array([1.2, 1.7])
    t = np.array([0.42, 0.61])
    va = f.interpolate(r, t)
    vb = g.interpolate(r, t)
    assert np.allclose(vb, 2.5 * va, atol=1e-13)
