"""Hot numeric kernels, vectorised with numpy across points.

Each kernel evaluates its per-point rule on whole arrays in the same
operation order as a scalar loop over the points would, so the results are
bitwise those of that loop (``tests/test_kernels.py`` keeps the loop as the
reference).
"""

import numpy as np

# ---------------------------------------------------------------------------
# Fundamental-domain reduction
# ---------------------------------------------------------------------------

_IMPROVE_RTOL = 1e-14


def _cosh_dist_to_i(w):
    # cosh of the hyperbolic distance from w to i
    return 1.0 + (w.real * w.real + (w.imag - 1.0) ** 2) / (2.0 * w.imag)


def reduce_points(z, moves, max_iter=10000):
    """Greedy reduction of upper half-plane points toward the Dirichlet
    domain centered at i.

    Repeatedly applies whichever candidate move decreases the hyperbolic
    distance to i the most (the first one on ties), and stops once the best
    move improves by less than a relative ``_IMPROVE_RTOL``.  All points
    still moving are stepped together.  Returns (reduced points, accumulated
    2x2 matrices, iteration counts); a count of -1 flags the iteration cap.
    """
    zred = np.array(z, dtype=np.complex128)
    moves = np.asarray(moves, dtype=np.float64)
    n = zred.shape[0]
    a, b = moves[:, 0, 0], moves[:, 0, 1]
    c, d = moves[:, 1, 0], moves[:, 1, 1]
    g00, g01 = np.ones(n), np.zeros(n)
    g10, g11 = np.zeros(n), np.ones(n)
    niter = np.full(n, -1, dtype=np.int64)
    live = np.arange(n)
    for it in range(max_iter):
        if live.size == 0:
            break
        w = zred[live][:, None]
        cand = (a * w + b) / (c * w + d)
        cost = _cosh_dist_to_i(cand)
        best = np.argmin(cost, axis=1)
        rows = np.arange(live.size)
        moved = cost[rows, best] < _cosh_dist_to_i(w[:, 0]) * (1.0 - _IMPROVE_RTOL)
        niter[live[~moved]] = it
        live, rows, m = live[moved], rows[moved], best[moved]
        zred[live] = cand[rows, m]
        am, bm, cm, dm = a[m], b[m], c[m], d[m]
        h00, h01, h10, h11 = g00[live], g01[live], g10[live], g11[live]
        g00[live] = am * h00 + bm * h10
        g01[live] = am * h01 + bm * h11
        g10[live] = cm * h00 + dm * h10
        g11[live] = cm * h01 + dm * h11
    mats = np.stack([g00, g01, g10, g11], axis=-1).reshape(n, 2, 2)
    return zred, mats, niter


# ---------------------------------------------------------------------------
# Separable Lagrange interpolation of grid tensor components
# ---------------------------------------------------------------------------


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


def interp2d(grid, r0, dr, pts_r, pts_t):
    """Quintic (6-point) separable Lagrange interpolation on an (r, theta)
    grid, periodic in theta with period 1.  Points outside the r-range
    evaluate to zero (fields are compactly supported inside the chart).

    grid has shape (ncomp, nr, ntheta); returns (ncomp, npts).  Each point's
    value is the sum over r offsets of the theta-interpolated grid rows.
    """
    grid = np.asarray(grid, dtype=np.float64)
    pts_r = np.asarray(pts_r, dtype=np.float64)
    pts_t = np.asarray(pts_t, dtype=np.float64)
    ncomp, rn, tn = grid.shape
    if rn < 6:
        raise ValueError("interpolation needs at least 6 radial nodes")
    out = np.zeros((ncomp, pts_r.shape[0]))
    x = (pts_r - r0) / dr
    if np.isnan(x).any() or not np.isfinite(pts_t).all():
        raise ValueError("interpolation points need a non-NaN r and a finite theta")
    inside = np.nonzero((x >= -0.5) & (x <= rn - 0.5))[0]
    x = x[inside]
    i0 = np.clip(np.floor(x).astype(np.int64) - 2, 0, rn - 6)
    dt = 1.0 / tn
    y = (pts_t[inside] % 1.0) / dt
    j0 = np.floor(y).astype(np.int64) - 2
    wr = _lagrange_weights(x - i0)
    wt = _lagrange_weights(y - j0)
    cols = [(j0 + j) % tn for j in range(6)]
    flat = grid.reshape(ncomp, rn * tn)
    acc = np.zeros((ncomp, inside.size))
    for i in range(6):
        base = (i0 + i) * tn
        row = np.zeros((ncomp, inside.size))
        for j in range(6):
            row += wt[j] * flat[:, base + cols[j]]
        acc += wr[i] * row
    out[:, inside] = acc
    return out


# ---------------------------------------------------------------------------
# Hoelder seminorm pair supremum
# ---------------------------------------------------------------------------


def holder_seminorm(u, dr, s, max_offset):
    """sup over grid pairs within ``max_offset`` steps of
    |u(r) - u(r')| / |r - r'|^s."""
    u = np.asarray(u, dtype=np.float64)
    best = 0.0
    n = u.shape[0]
    for k in range(1, max_offset + 1):
        denom = (k * dr) ** s
        diff = np.max(np.abs(u[k:] - u[: n - k]))
        val = diff / denom
        if val > best:
            best = val
    return best
