"""The vectorised numeric kernels against per-point oracles.

``surface.reduce_points`` and ``SymTensorField.interpolate`` must agree bit
for bit with the scalar loops below, which step one point at a time in the
same operation order; the Hoelder seminorm inside ``paley.holder_norm`` is
checked against a brute-force pair supremum, and bit for bit against the
offset loop that scans every offset.  The grid tensors' sampling and
symmetric derivative, which fill one array in place, must agree bit for bit
with the stacked component tuples below, and their sup norms and radial
profiles, which reduce max and -min, with the reductions of |comps|.
"""

import tracemalloc

import numpy as np
import pytest

from cusplab import paley, surface, tensorfield
from cusplab.chart import ChartGrid
from cusplab.errors import InvalidInputError, ReductionError
from cusplab.fields import random_bump_one_form
from cusplab.modezero import ModeZeroField, line_grid, window_profile
from cusplab.paley import holder_norm, random_band_limited_family
from cusplab.tensorfield import SymTensorField, _mode_derivative, sym_derivative
from cusplab.xray import ArcSampler

RNG = np.random.default_rng(99)
TORUS = surface.punctured_torus()


def reduce_point_loop(z, moves, max_iter):
    """One point at a time: the greedy rule as a scalar loop."""
    n = z.shape[0]
    zred = z.copy()
    mats = np.zeros((n, 2, 2))
    niter = np.zeros(n, dtype=np.int64)
    for p in range(n):
        w = z[p]
        g00, g01, g10, g11 = 1.0, 0.0, 0.0, 1.0
        it = 0
        while it < max_iter:
            cur = 1.0 + (w.real * w.real + (w.imag - 1.0) ** 2) / (2.0 * w.imag)
            best = cur
            bi = -1
            for m in range(moves.shape[0]):
                a, b = moves[m, 0, 0], moves[m, 0, 1]
                c, d = moves[m, 1, 0], moves[m, 1, 1]
                wn = (a * w + b) / (c * w + d)
                cn = 1.0 + (wn.real * wn.real + (wn.imag - 1.0) ** 2) / (2.0 * wn.imag)
                if cn < best:
                    best = cn
                    bi = m
            if bi < 0 or best >= cur * (1.0 - surface._IMPROVE_RTOL):
                break
            a, b = moves[bi, 0, 0], moves[bi, 0, 1]
            c, d = moves[bi, 1, 0], moves[bi, 1, 1]
            w = (a * w + b) / (c * w + d)
            g00, g01, g10, g11 = (
                a * g00 + b * g10,
                a * g01 + b * g11,
                c * g00 + d * g10,
                c * g01 + d * g11,
            )
            it += 1
        zred[p] = w
        mats[p] = [[g00, g01], [g10, g11]]
        niter[p] = it if it < max_iter else -1
    return zred, mats, niter


def interp_point_loop(grid, r0, dr, pts_r, pts_t):
    """One point at a time: 6x6 Lagrange stencil, theta sums inside r sums."""
    ncomp, rn, tn = grid.shape
    out = np.zeros((ncomp, pts_r.shape[0]))

    def weights(s):
        w = np.empty(6)
        for i in range(6):
            p = 1.0
            for j in range(6):
                if j != i:
                    p *= (s - j) / (i - j)
            w[i] = p
        return w

    for p in range(pts_r.shape[0]):
        x = (pts_r[p] - r0) / dr
        if x < -0.5 or x > rn - 0.5:
            continue
        i0 = min(max(int(np.floor(x)) - 2, 0), rn - 6)
        y = (pts_t[p] % 1.0) / (1.0 / tn)
        j0 = int(np.floor(y)) - 2
        wr, wt = weights(x - i0), weights(y - j0)
        for c in range(ncomp):
            acc = 0.0
            for i in range(6):
                row = 0.0
                for j in range(6):
                    row += wt[j] * grid[c, i0 + i, (j0 + j) % tn]
                acc += wr[i] * row
            out[c, p] = acc
    return out


def random_upper_points(n):
    return RNG.uniform(-2, 2, n) + 1j * np.exp(RNG.uniform(np.log(0.05), np.log(3), n))


def grid_field(comps, r_max):
    """The component grid as a tensor field on the chart [0, r_max] x R/Z."""
    _, rn, tn = comps.shape
    return SymTensorField(ChartGrid(0.0, r_max, rn, tn), comps)


def assert_bitwise(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def assert_cap_diagnostics(zs, niter):
    """The ReductionError of a capped run names the points the loop marks -1."""
    capped = zs[niter == -1]
    assert capped.size > 0
    with pytest.raises(ReductionError) as info:
        surface.reduce_points(TORUS, zs)
    assert info.value.diagnostics["count"] == capped.size
    assert info.value.diagnostics["points"] == capped[:8].tolist()


@pytest.mark.parametrize("max_iter", [10000, 3, 1, 0])
def test_reduce_points_matches_point_loop(max_iter, monkeypatch):
    monkeypatch.setattr(surface, "_MAX_ITER", max_iter)
    zs = random_upper_points(2000)
    zred, mats, niter = reduce_point_loop(zs, TORUS.reduction_moves, max_iter)
    if max_iter == 10000:
        assert np.all(niter >= 0) and np.max(niter) > 3
        assert_bitwise(surface.reduce_points(TORUS, zs), (zred, mats))
    else:
        assert_cap_diagnostics(zs, niter)


def test_reduce_points_cap_on_20k_points_matches_point_loop(monkeypatch):
    monkeypatch.setattr(surface, "_MAX_ITER", 3)
    rng = np.random.default_rng(0)
    zs = rng.uniform(-2, 2, 20000) + 1j * np.exp(rng.uniform(np.log(0.05), np.log(3.0), 20000))
    _, _, niter = reduce_point_loop(zs, TORUS.reduction_moves, 3)
    assert int(np.sum(niter < 0)) == 1216
    assert_cap_diagnostics(zs, niter)


def test_surface_reduction_cap_raises_with_count(monkeypatch):
    monkeypatch.setattr(surface, "_MAX_ITER", 2)
    zs = random_upper_points(500)
    _, _, niter = reduce_point_loop(zs, TORUS.reduction_moves, 2)
    with pytest.raises(ReductionError) as info:
        surface.reduce_points(TORUS, zs)
    assert info.value.diagnostics["count"] == int(np.sum(niter < 0)) > 0
    assert len(info.value.diagnostics["points"]) == 8


def test_reduction_moves_built_once_per_surface():
    moves = TORUS.reduction_moves
    assert moves is TORUS.reduction_moves
    assert moves.shape == (18, 2, 2) and not moves.flags.writeable
    assert np.allclose(moves[:, 0, 0] * moves[:, 1, 1] - moves[:, 0, 1] * moves[:, 1, 0], 1.0)


def test_interp2d_matches_point_loop_inside_and_outside_ranges():
    grid = RNG.normal(size=(3, 64, 48))
    fld = grid_field(grid, 1.0)
    dr = fld.grid.dr
    pts_r = RNG.uniform(-0.1, 1.1, 600)
    pts_t = RNG.uniform(-2.0, 3.0, 600)
    pts_t[:6] = [-1e-20, -0.0, 0.0, 1.0, 1.0 - 1e-17, -3.0]
    pts_r[:2] = [-0.5 * dr, 1.0 + 0.5 * dr]  # both range edges count as inside
    got = fld.interpolate(pts_r, pts_t)
    want = interp_point_loop(grid, 0.0, dr, pts_r, pts_t)
    assert got.tobytes() == want.tobytes()
    outside = (pts_r < -0.5 * dr) | (pts_r > 1.0 + 0.5 * dr)
    assert outside.sum() > 20 and np.all(got[:, outside] == 0.0)
    assert np.all(got[:, ~outside] != 0.0)


def test_interp2d_is_periodic_in_theta():
    grid = RNG.normal(size=(2, 16, 24))
    pts_r = RNG.uniform(0.2, 0.8, 50)
    pts_t = RNG.uniform(0.0, 1.0, 50)
    fld = grid_field(grid, 1.0)
    base = fld.interpolate(pts_r, pts_t)
    for shift in (-2.0, 1.0, 5.0):
        moved = fld.interpolate(pts_r, pts_t + shift)
        assert np.max(np.abs(moved - base)) < 1e-12


def test_interp2d_reproduces_quintic_polynomials():
    # 6-point Lagrange stencils are exact on degree-5 polynomials
    n_r, n_t = 40, 32
    r = np.linspace(0.0, 1.0, n_r)
    t = np.arange(n_t) / n_t
    rr, tt = np.meshgrid(r, t, indexing="ij")
    poly = (
        1.0
        + 2.0 * rr
        - rr**3
        + 0.25 * rr**5
    )
    grid = poly[None]
    pts_r = RNG.uniform(0.1, 0.9, 100)
    pts_t = RNG.uniform(0.0, 1.0, 100)
    vals = grid_field(grid, 1.0).interpolate(pts_r, pts_t)
    want = 1.0 + 2.0 * pts_r - pts_r**3 + 0.25 * pts_r**5
    assert np.max(np.abs(vals[0] - want)) < 1e-12


def test_interp2d_zero_outside_radial_range():
    fld = grid_field(np.ones((1, 16, 8)), 1.5)
    vals = fld.interpolate(np.array([-1.0, 5.0]), np.array([0.2, 0.3]))
    assert np.all(vals == 0.0)


@pytest.mark.parametrize("ncomp", [1, 2, 3])
def test_interp2d_matches_point_loop_across_chunks(ncomp):
    # 5000 points span three chunks of the kernel; the range edges and the
    # theta wrap-arounds sit on both sides of each chunk boundary and every
    # 97th point, and rows 12..23 of zeros give all-zero stencils whose
    # value must be +0.0
    rng = np.random.default_rng(ncomp)
    grid = rng.normal(size=(ncomp, 40, 32))
    grid[:, 12:24] = 0.0
    fld = grid_field(grid, 1.0)
    dr = fld.grid.dr
    n = 5000
    assert n > 2 * tensorfield._CHUNK
    pts_r = rng.uniform(-0.1, 1.1, n)
    pts_t = rng.uniform(-2.0, 3.0, n)
    bounds = [k * tensorfield._CHUNK + d for k in (1, 2) for d in (-2, -1, 0, 1)]
    special = np.r_[np.arange(0, n, 97), bounds]
    edges_t = [-1e-20, -0.0, 0.0, 1.0, 1.0 - 1e-17, -3.0]
    edges_r = [-0.5 * dr, 1.0 + 0.5 * dr, 0.0, 1.0]
    pts_t[special] = np.resize(edges_t, special.size)
    pts_r[special[::2]] = np.resize(edges_r, special[::2].size)
    got = fld.interpolate(pts_r, pts_t)
    want = interp_point_loop(grid, 0.0, dr, pts_r, pts_t)
    assert got.shape == (ncomp, n) and got.tobytes() == want.tobytes()
    outside = (pts_r < -0.5 * dr) | (pts_r > 1.0 + 0.5 * dr)
    assert outside.sum() > 100 and np.all(got[:, outside] == 0.0)
    assert np.any((got == 0.0) & ~outside)


def test_interp2d_all_zero_stencil_reads_positive_zero():
    # on local coordinates in (2, 3) the weights have signs + - + + - +; this
    # stencil of signed zeros makes all 36 products -0.0, so sums begun at
    # their first product would read -0.0, and sums begun at 0 (the loop) +0.0
    grid = np.ones((1, 16, 16))
    pos = np.array([1, -1, 1, 1, -1, 1]) > 0
    grid[0, 5:11, 5:11] = np.where(pos[:, None] & pos, -0.0, 0.0)
    fld = grid_field(grid, 1.0)
    pts_r, pts_t = np.array([7.5 * fld.grid.dr]), np.array([7.5 / 16])
    got = fld.interpolate(pts_r, pts_t)
    want = interp_point_loop(grid, 0.0, fld.grid.dr, pts_r, pts_t)
    assert got.tobytes() == want.tobytes() == np.zeros((1, 1)).tobytes()


def test_interp2d_all_outside_and_empty_calls():
    rng = np.random.default_rng(1)
    fld = grid_field(rng.normal(size=(2, 16, 8)), 1.5)
    n = tensorfield._CHUNK + 5
    far = np.r_[rng.uniform(-3.0, -0.2, n // 2), rng.uniform(1.7, 4.0, n - n // 2)]
    vals = fld.interpolate(far, rng.uniform(0.0, 1.0, n))
    assert vals.shape == (2, n) and vals.tobytes() == np.zeros((2, n)).tobytes()
    assert fld.interpolate(np.empty(0), np.empty(0)).shape == (2, 0)


def test_interp2d_extra_memory_is_bounded_by_a_chunk():
    # besides its output, a call holds one chunk's temporaries (about 3 MB for
    # three components), whatever its number of points; temporaries sized by
    # the call would take about 49 MB here
    rng = np.random.default_rng(0)
    fld = grid_field(rng.normal(size=(3, 64, 48)), 1.0)
    n = 200_000
    pts_r, pts_t = rng.uniform(-0.1, 1.1, n), rng.uniform(-2.0, 3.0, n)
    tracemalloc.start()
    try:
        vals = fld.interpolate(pts_r, pts_t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - vals.nbytes < 8 * 2**20


@pytest.mark.parametrize("r, t", [(np.nan, 0.2), (0.5, np.inf), (0.5, np.nan)])
def test_interp2d_rejects_points_without_a_position(r, t):
    with pytest.raises(InvalidInputError, match="non-NaN r and a finite theta"):
        grid_field(np.ones((1, 16, 8)), 1.5).interpolate(np.array([0.3, r]), np.array([0.1, t]))


def test_holder_matches_bruteforce():
    u = RNG.normal(size=257)
    dr, s, cap = 0.05, 0.5, 40  # holder_norm's offset cap: |r - r'| <= 2
    got = holder_norm(ModeZeroField(0.0, dr, u), s) - np.max(np.abs(u))
    brute = max(
        abs(u[i + k] - u[i]) / (k * dr) ** s
        for k in range(1, cap + 1)
        for i in range(len(u) - k)
    )
    assert abs(got - brute) <= 1e-13 * max(1.0, brute)


def holder_offset_loop(fld, s):
    """holder_norm with every offset up to the cap scanned: the offset
    supremum (pair supremum, offset where it sits) and the norm."""
    u = fld.samples[:, 0].real
    n = u.shape[0]
    max_offset = max(1, min(int(paley._HOLDER_DISTANCE_CAP / fld.dr), n - 1))
    semi, at = 0.0, 0
    for k in range(1, max_offset + 1):
        val = np.max(np.abs(u[k:] - u[: n - k])) / (k * fld.dr) ** s
        if val > semi:
            semi, at = val, k
    return float(np.max(np.abs(u)) + semi), at, max_offset


def test_holder_skip_is_bit_identical_on_criterion_12_family():
    for fld in random_band_limited_family(50, 7, 48.0, 4096):
        for s in (0.1, 0.5, 0.9):
            assert holder_norm(fld, s) == holder_offset_loop(fld, s)[0]


def _line_field(values, r_half, n):
    r0, dr = line_grid(r_half, n)
    return ModeZeroField(r0, dr, values(r0 + dr * np.arange(n))[:, None])


@pytest.mark.parametrize(
    "case, values, r_half, n, where",
    [
        (
            "white noise",
            lambda r: np.random.default_rng(5).uniform(-1, 1, r.size),
            8.0,
            2048,
            "first",
        ),
        ("ramp", lambda r: 0.3 * r, 8.0, 2048, "cap"),
        ("constant", lambda r: np.full_like(r, -1.25), 8.0, 1024, None),
        (
            "half-power cusp",
            lambda r: np.abs(r) ** 0.5 * np.exp(-(r**2) / 2.0) * window_profile(r),
            8.0,
            4096,
            None,
        ),
    ],
)
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_holder_skip_is_bit_identical_to_offset_loop(case, values, r_half, n, where, s):
    fld = _line_field(values, r_half, n)
    want, at, cap = holder_offset_loop(fld, s)
    assert holder_norm(fld, s) == want
    # the supremum sits where the case says: the skip is tried at both ends
    assert {"first": 1, "cap": cap}.get(where, at) == at


# ---------------------------------------------------------------------------
# grid tensors: one array each, against the stacked and |comps| oracles
# ---------------------------------------------------------------------------

# criterion 9's chart grid and forms
XRAY_GRID = ChartGrid(-2.8, 0.5, 769, 384)


def criterion_9_form(seed):
    return random_bump_one_form(seed, center=(-0.916, 0.0), r_width=0.45, t_width=0.14)


def sample_oracle(grid, funcs):
    """Each component broadcast to the grid, then stacked."""
    r, t = grid.r[:, None], grid.theta[None, :]
    shape = (grid.n_r, grid.n_theta)
    return np.stack([np.broadcast_to(np.asarray(f(r, t), dtype=float), shape) for f in funcs])


def frame_oracle(a, b, d_r, d_t, er):
    """The D formula as a tuple (s, t, x) of separately allocated arrays."""
    s = d_r(0)
    t = er * d_t(1) - a
    return s, t, 0.5 * (d_r(1) + er * d_t(0) + b)


def sym_derivative_oracle(p, method):
    c, grid = p.comps, p.grid
    image = frame_oracle(
        c[0],
        c[1],
        lambda i: tensorfield._dr(c[i], grid, method),
        lambda i: tensorfield._dtheta(c[i], grid),
        grid.exp_r[:, None],
    )
    return np.stack(image)


def criterion_7_samplers():
    """Criterion 7's model 1-forms e^{lam r} (a0, b0) as sampler pairs."""
    for lam, a0, b0 in [(0.7, 1.0, 0.0), (1.3, 0.0, 1.0), (-0.4, 0.6, -1.1)]:
        yield (
            lambda r, t, lam=lam, a0=a0: a0 * np.exp(lam * r),
            lambda r, t, lam=lam, b0=b0: b0 * np.exp(lam * r),
        )


CRITERION_7_GRIDS = [ChartGrid(0.0, 3.0, 129, 32).refine(k) for k in (1, 2, 4)]


def sample_cases():
    for grid in CRITERION_7_GRIDS:
        for funcs in criterion_7_samplers():
            yield grid, funcs
    for seed in (0, 7):
        form = criterion_9_form(seed)
        yield XRAY_GRID, (form.a, form.b)
    # samplers that return a row, a column, an int scalar or a full grid
    grid = ChartGrid(0.0, 3.0, 40, 9)
    yield grid, (lambda r, t: 0.0 * r, lambda r, t: np.sin(t), lambda r, t: 2)
    yield grid, (lambda r, t: np.cos(r - t),)


def test_sample_fills_one_array_bit_identical_to_the_stack():
    for grid, funcs in sample_cases():
        got = SymTensorField.sample(grid, len(funcs) - 1, *funcs).comps
        assert_bitwise([got], [sample_oracle(grid, funcs)])


@pytest.mark.parametrize("method", ["fd", "fd4", "spectral"])
def test_sym_derivative_is_bit_identical_to_the_stacked_formula(method):
    for grid, funcs in sample_cases():
        if len(funcs) == 2:
            p = SymTensorField.sample(grid, 1, *funcs)
            assert_bitwise([sym_derivative(p, method).comps], [sym_derivative_oracle(p, method)])


def test_closed_form_pullback_is_bit_identical_to_the_stacked_formula():
    # criterion 9's first 20 classes, of which several cross the forms' support
    classes = surface.enumerate_hyperbolic_classes(TORUS, 6)[:20]
    nonzero = 0
    for seed in (0, 3):
        form = criterion_9_form(seed)
        tensor = form.sym_derivative()
        for geo in classes:
            for level in (0, 2):
                r, t, p_hat, q_hat = ArcSampler.of(TORUS, geo).quadrature(level)[1]
                jets = form.a.jet(r, t), form.b.jet(r, t)
                comps = frame_oracle(
                    jets[0][0], jets[1][0], lambda i: jets[i][1], lambda i: jets[i][2], np.exp(r)
                )
                want = tensorfield._contract(comps, p_hat, q_hat)
                nonzero += np.count_nonzero(want)
                assert_bitwise([tensor.pullback(r, t, p_hat, q_hat)], [want])
    assert nonzero > 100  # the nodes meet the forms' support


@pytest.mark.parametrize("shape", [(8, 4), (40, 9), (129, 64)])
def test_mode_matrices_are_bit_identical_to_the_stacked_formula(shape, monkeypatch):
    grid = ChartGrid(0.0, 3.0, *shape)
    got = _mode_derivative(grid)
    monkeypatch.setattr(tensorfield, "_frame_sym_derivative", lambda *a: np.stack(frame_oracle(*a)))
    for g, w in zip(got, _mode_derivative(grid)):
        assert g.shape == w.shape
        assert_bitwise([g.indptr, g.indices, g.data], [w.indptr, w.indices, w.data])


def norm_fields():
    """2-tensors on a 16 x 8 grid with a NaN cell, +-inf cells, rows of +0
    and of -0.0, and values below the support floor."""
    rng = np.random.default_rng(30)
    grid = ChartGrid(0.0, 1.0, 16, 8)
    base = rng.normal(size=(3, 16, 8))
    cases = {}
    c = base.copy()
    c[1, 5, 3] = np.nan
    cases["nan cell"] = c
    c = base.copy()
    c[0, 2, 1], c[2, 9, 4] = np.inf, -np.inf
    cases["inf cells"] = c
    c = base.copy()
    c[2, 0, 7] = -np.inf
    c[:, 1:3] = 0.0
    cases["-inf in an edge row"] = c
    c = base.copy()
    c[:, :3], c[:, -2:] = 0.0, -0.0
    cases["zero edge rows"] = c
    c = base.copy()
    c[:, :7], c[:, 9:] = -0.0, 1e-14
    c[1, 8, 4] = np.nan
    cases["-0.0 and sub-floor rows around a NaN"] = c
    c = -np.abs(base)
    c[:, 4] = -0.0
    cases["negative with a -0.0 row"] = c
    cases["all zero"] = np.zeros((3, 16, 8))
    cases["all -0.0"] = np.full((3, 16, 8), -0.0)
    for name, comps in cases.items():
        yield name, SymTensorField(grid, comps)


def assert_equal_up_to_zero_sign(got, want):
    """Equal values, NaN exactly where want is NaN; a zero's sign may differ."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)


def test_norms_and_margins_equal_the_abs_oracle():
    for name, fld in norm_fields():
        # the same field with its profile taken from |comps|
        oracle = SymTensorField(fld.grid, fld.comps)
        vars(oracle)["_radial_profile"] = np.max(np.abs(fld.comps), axis=(0, 2))
        assert_equal_up_to_zero_sign(fld.sup_norm(), float(np.max(np.abs(fld.comps))))
        assert_equal_up_to_zero_sign(fld._radial_profile, oracle._radial_profile)
        assert fld.support_margin() == oracle.support_margin(), name
        assert fld._edge_activity == oracle._edge_activity, name


def test_sym_derivative_peaks_below_one_and_three_quarter_outputs():
    # the stacked formula held its three components and their stack, twice
    # the output (14.3 MB here); one array filled in place holds the output,
    # one partial and the spectral transform's temporaries
    p = criterion_9_form(0).sample(XRAY_GRID)
    sym_derivative(p, "spectral")  # FFT set-up outside the trace
    tracemalloc.start()
    try:
        d = sym_derivative(p, "spectral")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * d.comps.nbytes


def test_sup_norm_and_support_margin_allocate_less_than_a_component():
    # reducing |comps| made a copy of all three components (7.1 MB here)
    comps = np.random.default_rng(5).normal(size=(3, XRAY_GRID.n_r, XRAY_GRID.n_theta))
    fld = SymTensorField(XRAY_GRID, comps)
    for measure in (fld.sup_norm, fld.support_margin):
        tracemalloc.start()
        try:
            measure()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < comps[0].nbytes
