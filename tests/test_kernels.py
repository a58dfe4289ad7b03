"""The vectorised numeric kernels against per-point oracles.

``surface.reduce_points`` and ``SymTensorField.interpolate`` must agree bit
for bit with the scalar loops below, which step one point at a time in the
same operation order; the Hoelder seminorm inside ``paley.holder_norm`` is
checked against a brute-force pair supremum.
"""

import tracemalloc

import numpy as np
import pytest

from cusplab import surface, tensorfield
from cusplab.chart import ChartGrid
from cusplab.errors import InvalidInputError, ReductionError
from cusplab.modezero import ModeZeroField
from cusplab.paley import holder_norm
from cusplab.tensorfield import SymTensorField

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
