import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cusplab import fields
from cusplab.acceptance import _projection_test_field
from cusplab.chart import ChartGrid
from cusplab.errors import InvalidInputError, NumericFailureError
from cusplab.fields import AnalyticOneForm, Scalar2D, random_bump_one_form
from cusplab.halfplane import BoundaryGeodesic
from cusplab.operators import indicial_family, sym_derivative_spec, sym_laplacian_spec
from cusplab.tensorfield import (
    SymTensorField,
    _band_storage,
    _dr_fd,
    _dr_spectral,
    _dtheta,
    _mode_derivative,
    _solve_banded_modes,
    _solve_modes_least_squares,
    divergence,
    l2_inner,
    l2_norm,
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

FAM_D = indicial_family(sym_derivative_spec(1))
FAM_L = indicial_family(sym_laplacian_spec(1))


def model_one_form(grid, lam, a0, b0):
    return SymTensorField.sample(
        grid, 1, lambda r, t: a0 * np.exp(lam * r), lambda r, t: b0 * np.exp(lam * r)
    )


def model_image(fam, grid, lam, a0, b0):
    """The indicial family's action on the model 1-form e^{lam r} (a0, b0)."""
    coef = (fam(lam) @ (a0, b0)).real
    funcs = [lambda r, t, c=c: c * np.exp(lam * r) for c in coef]
    return SymTensorField.sample(grid, len(coef) - 1, *funcs)


def test_derivative_of_vertical_coframe_is_minus_slice_square():
    # lambda = 0, a = 1, b = 0: the derivative is -1 on the slice square
    p = model_one_form(GRID, 0.0, 1.0, 0.0)
    got = sym_derivative(p)
    want = model_image(FAM_D, GRID, 0.0, 1.0, 0.0)
    assert np.allclose(want.comps[0], 0.0)
    assert np.allclose(want.comps[1], -1.0)
    assert np.allclose(want.comps[2], 0.0)
    assert interior_sup(got, want) < 1e-11


def test_derivative_of_growing_slice_form_hits_cross_term():
    # lambda = 1, b = 1: cross coefficient (lambda+1)/2 in the half-sum
    # symmetrization convention
    p = model_one_form(GRID, 1.0, 0.0, 1.0)
    got = sym_derivative(p)
    want = model_image(FAM_D, GRID, 1.0, 0.0, 1.0)
    assert np.allclose(want.comps[2][0], 1.0)
    err = interior_sup(got, want)
    assert err <= 5.0 * GRID.dr**2


def test_derivative_of_zero_is_zero():
    p = SymTensorField(GRID, np.zeros((2, GRID.n_r, GRID.n_theta)))
    assert sym_derivative(p).sup_norm() == 0.0


@pytest.mark.parametrize("lam,a0,b0", [(0.7, 1.0, 0.0), (1.3, 0.0, 1.0), (-0.4, 0.6, -1.1)])
def test_model_exactness_second_order(lam, a0, b0):
    errs = []
    grids = [GRID, GRID.refine(2), GRID.refine(4)]
    for g in grids:
        p = model_one_form(g, lam, a0, b0)
        d_err = interior_sup(sym_derivative(p), model_image(FAM_D, g, lam, a0, b0))
        l_err = interior_sup(sym_laplacian(p), model_image(FAM_L, g, lam, a0, b0))
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


def test_order_is_read_off_the_components():
    for ncomp in (1, 2, 3):
        assert SymTensorField(GRID, np.zeros((ncomp, GRID.n_r, GRID.n_theta))).order == ncomp - 1
    n_r, n_t = GRID.n_r, GRID.n_theta
    for shape in [(0, n_r, n_t), (4, n_r, n_t), (3, n_r, n_t + 1), (n_r, n_t)]:
        with pytest.raises(InvalidInputError, match="component array"):
            SymTensorField(GRID, np.zeros(shape))


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
    z = SymTensorField(GRID, np.zeros((3, GRID.n_r, GRID.n_theta)))
    assert divergence(z).sup_norm() == 0.0
    for order in (0, 1):
        with pytest.raises(InvalidInputError, match="2-tensors"):
            divergence(SymTensorField(GRID, np.zeros((order + 1, GRID.n_r, GRID.n_theta))))


def test_divergence_model_closed_form():
    # D*(y^lam (s0, t0, x0)) = y^lam ((lam-1) s0 + t0, (lam-2) x0) for d=1
    lam, s0, t0, x0 = 0.6, 1.0, -0.7, 0.4
    er = np.exp(lam * GRID.r)[:, None]
    ones = np.ones((GRID.n_r, GRID.n_theta))
    f = SymTensorField(GRID, np.stack([s0 * er * ones, t0 * er * ones, x0 * er * ones]))
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
    grid = ChartGrid(0.0, 3.0, 257, 64)
    _, f = _bump_pair(grid, 11)
    _, _, info = solenoidal_project(f)
    assert info["orthogonality"] <= 1e-12


def test_decomposition_residual_reads_the_solves_own_matrices(monkeypatch):
    # D1 scaled by 1.001 leaves the normal equations consistent, so the solve
    # converges; only the grid derivative now disagrees with its matrices
    from cusplab import tensorfield

    grid = ChartGrid(0.0, 3.0, 129, 64)
    _, _, info = solenoidal_project(_projection_test_field(grid))
    assert info["decomposition_residual"] <= 1e-14
    d0, d1 = _mode_derivative(grid)
    monkeypatch.setattr(tensorfield, "_mode_derivative", lambda g: (d0, 1.001 * d1))
    _, _, info = solenoidal_project(_projection_test_field(grid))
    assert info["solve_residual"] <= 1e-12
    assert info["decomposition_residual"] > 1e-4


def test_projection_divergence_residual_decays_order_two():
    ladders = [
        ([(129, 32), (257, 64), (513, 128)], lambda g: _bump_pair(g, 11)[1], {}),
        # criterion 8's ladder, through the keyword its benchmark passes
        ([(129, 64), (257, 128), (513, 256)], _projection_test_field, {"adjoint": "exact"}),
    ]
    for shapes, field, kwargs in ladders:
        vals = []
        for shape in shapes:
            _, _, info = solenoidal_project(field(ChartGrid(0.0, 3.0, *shape)), **kwargs)
            assert info["orthogonality"] <= 1e-12
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
    _, f = _bump_pair(g, 11)
    with pytest.raises(InvalidInputError, match="adjoint"):
        solenoidal_project(f, adjoint="fd")


def _interleaved_interior(prof):
    """Stacked (a, b) radial profiles (2, n, ...) -> the solve's unknowns
    (a_1, b_1, ..., a_{n-2}, b_{n-2}) on the interior nodes."""
    return prof[:, 1:-1].swapaxes(0, 1).reshape(-1, *prof.shape[2:])


def test_one_radial_closure_for_solve_and_derivative():
    # dr = 2^-5 makes the sparse product round like the stencil: D0's s rows
    # are the fd stencil of a, its t rows -a, on profiles zero at both ends
    grid = ChartGrid(0.0, 2.0, 65, 16)
    ab = np.zeros((2, grid.n_r))
    ab[:, 1:-1] = np.random.default_rng(1).normal(size=(2, grid.n_r - 2))
    d0, _ = _mode_derivative(grid)
    s, t, _ = (d0 @ _interleaved_interior(ab)).reshape(3, grid.n_r)
    assert s.tobytes() == _dr_fd(ab[0][:, None], grid.dr)[:, 0].tobytes()
    assert np.array_equal(t, -ab[0])
    grid = ChartGrid(0.0, 3.0, 129, 64)
    _, f = _bump_pair(grid, 11)
    f_s, u, _ = solenoidal_project(f)
    assert l2_norm(f - f_s - sym_derivative(u)) <= 1e-14 * l2_norm(f)


@pytest.mark.parametrize("shape", [(65, 16), (40, 9)])
def test_mode_matrices_apply_the_grid_derivative(shape):
    # (D0 + i xi D1) on each rfft mode of a 1-form zero at both radial ends,
    # with the interior unknowns interleaved and Nyquist xi dropped as in the
    # solve
    grid = ChartGrid(0.0, 3.0, *shape)
    comps = np.random.default_rng(5).normal(size=(2, *shape))
    comps[:, [0, -1]] = 0.0
    u = SymTensorField(grid, comps)
    d0, d1 = _mode_derivative(grid)
    assert d0.shape == d1.shape == (3 * grid.n_r, 2 * (grid.n_r - 2))
    xis = grid.theta_frequencies()
    if grid.n_theta % 2 == 0:
        xis[-1] = 0.0
    u_hat = _interleaved_interior(np.fft.rfft(u.comps, axis=2))
    du_hat = d0 @ u_hat + 1j * xis * (d1 @ u_hat)
    got = np.fft.irfft(du_hat.reshape(3, grid.n_r, -1), n=grid.n_theta, axis=2)
    want = sym_derivative(u).comps
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(8, 4), (40, 9), (129, 64)])
def test_comb_read_off_equals_the_written_out_blocks(shape):
    # D(xi = 1) of the reference assembly: real part D0, imaginary part D1,
    # entry for entry and with no stored zeros
    grid = ChartGrid(0.0, 3.0, *shape)
    columns = _interleaved_interior(np.arange(2 * grid.n_r).reshape(2, -1))
    ref = _sparse_mode_derivative(grid, 1.0)[:, columns]
    for got, want in zip(_mode_derivative(grid), (ref.real, ref.imag)):
        want.eliminate_zeros()
        assert got.nnz == want.nnz
        assert np.array_equal(got.toarray(), want.toarray())


def test_mode_matrices_assemble_in_linear_memory():
    # six O(n) probes; a dense n x n read-off would trace about 100 MB here
    _mode_derivative(ChartGrid(0.0, 3.0, 8, 4))  # scipy's first-use imports
    grid = ChartGrid(0.0, 3.0, 2049, 8)
    tracemalloc.start()
    try:
        _mode_derivative(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# Reference: the per-mode sparse assembly and SuperLU solve, one system
# assembled anew for every theta mode, in the stacked (a, b) ordering.


def _fd_matrix(n, dr):
    """The ``fd`` radial derivative written out: centered interior rows and
    the summation-by-parts edge rows [-1, 1]/dr."""
    i = np.arange(1, n - 1)
    rows = np.concatenate([i, i, [0, 0, n - 1, n - 1]])
    cols = np.concatenate([i - 1, i + 1, [0, 1, n - 2, n - 1]])
    half = np.full(n - 2, 0.5 / dr)
    vals = np.concatenate([-half, half, np.array([-1.0, 1.0, -1.0, 1.0]) / dr])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _sparse_mode_derivative(grid, xi):
    n = grid.n_r
    dr_m = _fd_matrix(n, grid.dr)
    eye = sp.identity(n, format="csr")
    e_mul = sp.diags(grid.exp_r)
    zer = sp.csr_matrix((n, n))
    ik = 1j * xi
    return sp.bmat(
        [[dr_m, zer], [-eye, ik * e_mul], [0.5 * ik * e_mul, 0.5 * (dr_m + eye)]],
        format="csr",
        dtype=complex,
    )


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
    xis = 2.0 * np.pi * np.fft.fftfreq(grid.n_theta, d=grid.dtheta)
    xis[grid.n_theta // 2] = 0.0  # a real field's theta-derivative drops this mode
    for k, xi in enumerate(xis):
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
def test_banded_mode_solves_match_sparse_reference(shape):
    grid = ChartGrid(0.0, 3.0, *shape)
    _, f = _bump_pair(grid, 11)
    u, _, residual = _solve_modes_least_squares(f, grid)
    sol_hat = np.fft.rfft(u.comps, axis=2)
    want = _sparse_least_squares(f, grid)[:, :, : grid.n_theta // 2 + 1]
    assert residual <= 1e-12
    assert np.linalg.norm(sol_hat - want) <= 1e-10 * np.linalg.norm(want)


def test_band_storage_round_trip_and_width_check():
    rng = np.random.default_rng(4)
    offsets = range(-4, 5)
    m = sp.diags([rng.normal(size=40 - abs(d)) for d in offsets], list(offsets))
    ab = _band_storage(m)
    dense = m.toarray()
    i, j = np.nonzero(np.abs(np.arange(40)[:, None] - np.arange(40)) <= 4)
    assert np.array_equal(ab[4 + i - j, j], dense[i, j])
    # band cells outside the matrix stay zero
    assert np.count_nonzero(ab) == m.nnz
    wide = m + sp.coo_matrix(([1.0], ([0], [5])), shape=(40, 40))
    with pytest.raises(ValueError, match="outside half-bandwidth"):
        _band_storage(wide)
    with pytest.raises(ValueError, match="outside half-bandwidth"):
        _band_storage(wide.T)


def test_banded_mode_solves_match_solve_banded_whatever_fresh_memory_holds(monkeypatch):
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(8)
    n, xis = 30, np.array([0.0, 1.0, -2.0, 5.0])
    parts = [rng.normal(size=(9, n)) for _ in range(3)]
    parts[0][4] += 20.0  # diagonally dominant for every mode
    rhs = rng.normal(size=(n, xis.size)) + 1j * rng.normal(size=(n, xis.size))
    expected = np.stack(
        [solve_banded((4, 4), parts[0] + 1j * xi * parts[1] - xi * xi * parts[2], rhs[:, k])
         for k, xi in enumerate(xis)],
        axis=1,
    )
    assert np.array_equal(_solve_banded_modes(parts, rhs, xis), expected)
    # memory left behind by earlier arrays (here: NaN) never reaches the
    # per-mode finite check
    monkeypatch.setattr(np, "empty", lambda *a, **k: np.full(*a, np.nan, **k))
    assert np.array_equal(_solve_banded_modes(parts, rhs, xis), expected)


def test_projection_of_non_finite_field_fails_with_mode():
    grid = ChartGrid(0.0, 3.0, 65, 16)
    _, f = _bump_pair(grid, 11)
    comps = f.comps.copy()
    comps[0, 30, 3] = np.nan
    with pytest.raises(NumericFailureError) as err:
        solenoidal_project(SymTensorField(grid, comps))
    assert err.value.diagnostics == {"mode": 0}


@pytest.mark.parametrize("cell, margin", [(0, 0), (30, 12), (62, 2)])
def test_support_margin_counts_non_finite_cells_as_support(cell, margin):
    grid = ChartGrid(0.0, 3.0, 65, 16)
    _, f = _bump_pair(grid, 11)
    assert f.support_margin() == 12
    comps = f.comps.copy()
    comps[0, cell, 3] = np.nan
    assert SymTensorField(grid, comps).support_margin() == margin


@pytest.mark.parametrize("cell", [0, 62])
def test_projection_rejects_non_finite_value_near_the_boundary(cell):
    grid = ChartGrid(0.0, 3.0, 65, 16)
    _, f = _bump_pair(grid, 11)
    comps = f.comps.copy()
    comps[0, cell, 3] = np.nan
    with pytest.raises(InvalidInputError):
        solenoidal_project(SymTensorField(grid, comps))


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
    f = SymTensorField(GRID, c)
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


_BUMP = Scalar2D.bump(1.5, 0.45, 0.5, 0.15)
_TRIG = Scalar2D.trig(1.3, 2, 0.4)


@pytest.mark.parametrize(
    "f",
    [_BUMP, _TRIG, _BUMP + _TRIG, _BUMP * _TRIG, 2.5 * _TRIG],
    ids=["bump", "trig", "sum", "product", "scalar-multiple"],
)
def test_jet_is_the_value_and_its_partials(f):
    # the mesh runs across the bump's support edges in both coordinates
    rr, tt = np.meshgrid(np.linspace(0.9, 2.1, 13), np.linspace(0.25, 0.65, 11), indexing="ij")
    val, d_r, d_t = f.jet(rr, tt)
    assert np.array_equal(val, f.val(rr, tt))
    h = 1e-6
    fd_r = (f.val(rr + h, tt) - f.val(rr - h, tt)) / (2 * h)
    fd_t = (f.val(rr, tt + h) - f.val(rr, tt - h)) / (2 * h)
    assert np.max(np.abs(d_r - fd_r)) <= 1e-8
    assert np.max(np.abs(d_t - fd_t)) <= 1e-8


def test_symbolic_pullback_takes_one_jet_of_each_component(monkeypatch):
    # each component is envelope x trig sum, and its jet evaluates the
    # envelope's bump once per coordinate
    calls = []
    original = fields._bump

    def counted(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(fields, "_bump", counted)
    p = random_bump_one_form(8, center=(1.5, 0.45), r_width=0.5, t_width=0.15)
    one = np.array([1.0])
    p.sym_derivative().pullback(1.5 * one, 0.45 * one, 0.6 * one, 0.8 * one)
    assert len(calls) == 4


def _bump_prime_reference(x):
    # the derivative with its own exponential, as before the jet reused the
    # bump's values
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    y = x[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - y * y)) * (-2.0 * y / (1.0 - y * y) ** 2)
    return out


def test_bump_jet_partials_are_bit_identical_to_two_exponentials():
    r0, t0, r_width, t_width = 1.5, 0.45, 0.5, 0.15
    edge = 1.0 - 1e-9
    s = np.array([-2.0, -1.0, -edge, -0.999, -0.6, -1e-3, 0.0, 0.2, 0.999, edge, 1.0, 1.5])
    rr, tt = np.meshgrid(r0 + r_width * s, t0 + t_width * s, indexing="ij")
    _, d_r, d_t = Scalar2D.bump(r0, t0, r_width, t_width).jet(rr, tt)
    x = (rr - r0) / r_width
    y = fields._wrap(tt - t0) / t_width
    assert np.any(np.abs(x) >= 1.0) and np.any((np.abs(x) < 1.0) & (np.abs(x) > 0.99))
    assert np.array_equal(d_r, _bump_prime_reference(x) / r_width * fields._bump(y))
    assert np.array_equal(d_t, fields._bump(x) * _bump_prime_reference(y) / t_width)
    assert np.any(d_r != 0.0) and np.any(d_t != 0.0)


def _plain_product(f, g):
    # the reference: a product's value and jet with both factors evaluated
    # at every point
    def jet(r, t):
        a, a_r, a_t = f.jet(r, t)
        b, b_r, b_t = g.jet(r, t)
        return a * b, a_r * b + a * b_r, a_t * b + a * b_t

    return Scalar2D(lambda r, t: f.val(r, t) * g.val(r, t), jet)


# vanishes at r = 0 where its r-partial does not: the product's jet must
# evaluate the right factor there
_RAMP = Scalar2D(lambda r, t: r, lambda r, t: (r, 1.0 + 0.0 * r, 0.0 * r))


def test_masked_products_equal_the_plain_formula():
    rng = np.random.default_rng(0)
    env = Scalar2D.bump(-0.916, 0.0, 0.45, 0.14)
    trig = fields._random_trig(rng)
    cases = [(env, trig), (trig, env), (_RAMP, trig), (env, env * trig)]
    on_zero = (np.zeros(64), rng.uniform(0.0, 1.0, 64))
    grid = ChartGrid(-2.8, 0.5, 769, 384)
    samples = [
        np.meshgrid(grid.r, grid.theta, indexing="ij"),
        (grid.r[:, None], grid.theta[None, :]),
        (rng.uniform(-2.8, 0.5, 5000), rng.uniform(-0.5, 1.5, 5000)),
        on_zero,
    ]
    for r, t in samples:
        for f, g in cases:
            masked, plain = f * g, _plain_product(f, g)
            # equal value for value; the sign of a zero is not compared
            assert np.array_equal(masked.val(r, t), plain.val(r, t))
            for got, want in zip(masked.jet(r, t), plain.jet(r, t)):
                assert np.array_equal(got, want)
        plain_bump = fields._bump((r + 0.916) / 0.45) * fields._bump(fields._wrap(t) / 0.14)
        assert np.array_equal(env.val(r, t), plain_bump)
    # on r = 0 the ramp's value vanishes but the product's r-partial does not
    _, d_r, _ = (_RAMP * trig).jet(*on_zero)
    assert np.all(d_r != 0.0)


def test_sampling_evaluates_a_bumps_radial_factor_once_per_row(monkeypatch):
    # each axis factor runs once on its own axis: the radial factor on the
    # n_r radial nodes, the theta factor on the n_theta theta nodes
    grid = ChartGrid(-2.8, 0.5, 769, 384)
    bump = fields._bump
    sizes = []

    def counted(t):
        sizes.append(np.size(t))
        return bump(t)

    monkeypatch.setattr(fields, "_bump", counted)
    SymTensorField.sample(grid, 0, Scalar2D.bump(-0.916, 0.0, 0.45, 0.14))
    assert sizes == [grid.n_r, grid.n_theta]


def test_axis_sampling_equals_the_full_mesh_bit_for_bit(monkeypatch):
    # criterion 8's ladder fields and criterion 9's forms, each component
    # also evaluated on an explicit full mesh
    calls = []
    sample = SymTensorField.sample.__func__

    def spy(cls, grid, order, *funcs):
        field = sample(cls, grid, order, *funcs)
        calls.append((field, funcs))
        return field

    monkeypatch.setattr(SymTensorField, "sample", classmethod(spy))
    for shape in ((129, 64), (257, 128), (513, 256)):
        _projection_test_field(ChartGrid(0.0, 3.0, *shape))
    grid = ChartGrid(-2.8, 0.5, 769, 384)
    for seed in range(10):
        random_bump_one_form(seed, center=(-0.916, 0.0), r_width=0.45, t_width=0.14).sample(grid)
    assert len(calls) == 13
    for field, funcs in calls:
        rr, tt = np.meshgrid(field.grid.r, field.grid.theta, indexing="ij")
        want = np.stack([np.asarray(f(rr, tt), dtype=float) for f in funcs])
        assert field.comps.tobytes() == want.tobytes()


def _dtheta_complex(arr, grid):
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n_theta, d=grid.dtheta)
    return np.fft.ifft(np.fft.fft(arr, axis=-1) * (1j * xi), axis=-1).real


def _dr_spectral_complex(arr, grid):
    n = grid.n_r - 1
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dr)
    out = np.empty_like(arr)
    spec = np.fft.fft(arr[..., :-1, :], axis=-2) * (1j * xi)[:, None]
    out[..., :-1, :] = np.fft.ifft(spec, axis=-2).real
    out[..., -1, :] = out[..., 0, :]
    return out


@pytest.mark.parametrize("shape", [(33, 16), (34, 15), (65, 33), (66, 64)])
def test_real_fft_derivatives_match_the_complex_transform(shape):
    grid = ChartGrid(-1.0, 2.0, *shape)
    arr = np.random.default_rng(sum(shape)).normal(size=(2, *shape))
    for fast, oracle in ((_dtheta, _dtheta_complex), (_dr_spectral, _dr_spectral_complex)):
        want = oracle(arr, grid)
        assert np.max(np.abs(fast(arr, grid) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(33, 16), (65, 64)])
def test_nyquist_modes_differentiate_to_zero(shape):
    # even transform lengths in both directions: n_r - 1 radial, n_theta
    grid = ChartGrid(-1.0, 2.0, *shape)
    along_t = np.ones(shape) * (-1.0) ** np.arange(grid.n_theta)
    along_r = np.ones(shape) * ((-1.0) ** np.arange(grid.n_r))[:, None]
    assert np.max(np.abs(_dtheta(along_t, grid))) <= 1e-12
    assert np.max(np.abs(_dr_spectral(along_r, grid))) <= 1e-12


@pytest.mark.parametrize("shape", [(33, 16), (34, 15), (66, 64)])
def test_spectral_derivatives_of_a_band_limited_trig_are_exact(shape):
    grid = ChartGrid(-1.0, 2.0, *shape)
    # periodic in r over the radial period and in theta over 1
    f = Scalar2D.trig(2.0 * np.pi * 3 / (grid.r_max - grid.r_min), 5, 0.7)
    val, d_r, d_t = f.jet(grid.r[:, None], grid.theta[None, :])
    assert np.max(np.abs(_dtheta(val, grid) - d_t)) <= 1e-10 * np.max(np.abs(d_t))
    assert np.max(np.abs(_dr_spectral(val, grid) - d_r)) <= 1e-10 * np.max(np.abs(d_r))


def _dtheta_full(arr, grid):
    spec = np.fft.rfft(arr, axis=-1) * (1j * grid.theta_frequencies())
    return np.fft.irfft(spec, n=grid.n_theta, axis=-1)


def _dr_spectral_full(arr, grid):
    n = grid.n_r - 1
    xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=grid.dr)
    out = np.empty_like(arr)
    spec = np.fft.rfft(arr[..., :-1, :], axis=-2) * (1j * xi)[:, None]
    out[..., :-1, :] = np.fft.irfft(spec, n=n, axis=-2)
    out[..., -1, :] = out[..., 0, :]
    return out


def _sparse_lines_field(grid):
    """Nonzeros on rows 20-29 and 35-44 (rows 30-34 empty inside the block)
    and on theta columns 0-5 and the last 4, so the empty columns lie
    between the support's two pieces across theta = 0."""
    arr = np.zeros((grid.n_r, grid.n_theta))
    rng = np.random.default_rng(41)
    for rows in (slice(20, 30), slice(35, 45)):
        arr[rows, :6] = rng.normal(size=(10, 6))
        arr[rows, -4:] = rng.normal(size=(10, 4))
    return arr


@pytest.mark.parametrize("shape", [(65, 32), (66, 33)])
def test_spectral_derivatives_on_sparse_lines_match_full_transforms(shape):
    grid = ChartGrid(-1.0, 2.0, *shape)
    sparse = _sparse_lines_field(grid)
    dense = np.random.default_rng(7).normal(size=shape)
    for arr in (sparse, dense, np.zeros(shape), np.stack([sparse, 0.0 * sparse])):
        assert _dtheta(arr, grid).tobytes() == _dtheta_full(arr, grid).tobytes()
        assert _dr_spectral(arr, grid).tobytes() == _dr_spectral_full(arr, grid).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_value_on_an_empty_line_reaches_its_derivative(bad):
    grid = ChartGrid(-1.0, 2.0, 65, 32)
    arr = _sparse_lines_field(grid)
    arr[50, 12] = bad  # row 50 and column 12 hold nothing else
    with np.errstate(invalid="ignore"):  # inf times a zero twiddle part
        d_t, d_r = _dtheta(arr, grid), _dr_spectral(arr, grid)
        want_t, want_r = _dtheta_full(arr, grid), _dr_spectral_full(arr, grid)
    assert np.isnan(d_t[50]).all()
    assert np.isnan(d_r[:, 12]).all()
    assert d_t.tobytes() == want_t.tobytes()
    assert d_r.tobytes() == want_r.tobytes()


def test_linearity_of_interpolation_and_norms():
    _, f = _bump_pair(GRID, 2)
    g = SymTensorField(GRID, 2.5 * f.comps)
    assert abs(l2_norm(g) - 2.5 * l2_norm(f)) < 1e-12 * l2_norm(g)
    r = np.array([1.2, 1.7])
    t = np.array([0.42, 0.61])
    va = f.interpolate(r, t)
    vb = g.interpolate(r, t)
    assert np.allclose(vb, 2.5 * va, atol=1e-13)
