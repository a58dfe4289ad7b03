import numpy as np
import pytest

from cusplab import xray
from cusplab.chart import ChartGrid
from cusplab.errors import CoverageError, InvalidInputError
from cusplab.fields import AnalyticOneForm, Scalar2D, random_bump_one_form
from cusplab.surface import (
    ClosedGeodesic,
    enumerate_hyperbolic_classes,
    invert_word,
    punctured_torus,
    reduce_points,
)
from cusplab.tensorfield import (
    SymTensorField,
    solenoidal_project,
    sym_derivative,
)
from cusplab.xray import (
    ArcSampler,
    XRayResult,
    potential_annihilation_suite,
    solenoidal_probe,
    xray_eval,
    xray_suite,
)

TORUS = punctured_torus()
CLASSES = enumerate_hyperbolic_classes(TORUS, 6)
GRID = ChartGrid(-2.8, 0.5, 529, 256)
BUMP_CENTER = (-0.916, 0.0)


def bump_two_tensor(grid=GRID):
    sf = Scalar2D.bump(-0.9, 0.02, 0.4, 0.12)
    return SymTensorField.sample(
        grid,
        2,
        lambda r, t: sf(r, t),
        lambda r, t: -0.6 * sf(r, t + 0.03),
        lambda r, t: 0.3 * sf(r + 0.05, t),
    )


# ---------------------------------------------------------------------------
# basic values
# ---------------------------------------------------------------------------


def test_metric_pulls_back_to_one_on_every_class():
    g = SymTensorField.metric(GRID)
    for geo in CLASSES[:25]:
        res = xray_eval(TORUS, g, geo, tol=1e-10)
        assert abs(res.value - 1.0) <= 1e-10
        assert res.error_estimate <= 1e-10


def test_zero_tensor_gives_zero():
    z = SymTensorField(GRID, np.zeros((3, GRID.n_r, GRID.n_theta)))
    for geo in CLASSES[:5]:
        assert xray_eval(TORUS, z, geo, tol=1e-10).value == 0.0


def test_invalid_tolerance_rejected():
    with pytest.raises(InvalidInputError):
        xray_eval(TORUS, SymTensorField.metric(GRID), CLASSES[0], tol=0.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_non_finite_tolerance_rejected(tol):
    # nan once refined to the deepest level and failed there; inf returned
    # the first level with error estimate 0
    with pytest.raises(InvalidInputError, match="positive and finite"):
        xray_eval(TORUS, SymTensorField.metric(GRID), CLASSES[0], tol=tol)


def test_unconverged_result_is_last_level_against_the_one_below(monkeypatch):
    f = bump_two_tensor()
    geo = next(g for g in CLASSES if g.word == "abaBAb")  # meets the bump
    monkeypatch.setattr(xray, "_MAX_LEVEL", 2)
    res = xray_eval(TORUS, f, geo, tol=1e-15, strict=False)
    sampler = ArcSampler.of(TORUS, geo)  # the nodes xray_eval read
    totals = []
    for level in (1, 2):
        ws, frame = sampler.quadrature(level)
        totals.append(float(np.dot(ws, f.pullback(*frame))) / geo.length)
    assert res.value == totals[1]
    assert res.error_estimate == abs(totals[1] - totals[0]) > 1e-6
    assert res.nodes_used == ws.size


def test_refinement_against_dense_trapezoid_oracle():
    f = bump_two_tensor()
    geo = CLASSES[3]
    res = xray_eval(TORUS, f, geo, tol=1e-9)
    # independent oracle: plain trapezoid at ~10x the adaptive node count
    n = 10 * res.nodes_used
    ts = np.linspace(0.0, geo.length, n, endpoint=False)
    z, v = geo.arc(ts)
    zred, mats = reduce_points(TORUS, z)
    vred = v / (mats[:, 1, 0] * z + mats[:, 1, 1]) ** 2
    u = vred / zred.imag
    vals = f.pullback(np.log(zred.imag), zred.real % 1.0, u.imag, u.real)
    oracle = np.sum(vals) * (geo.length / n) / geo.length
    assert abs(res.value - oracle) <= 1e-8
    assert res.error_estimate <= 1e-9


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------


def test_linearity_at_fixed_quadrature_nodes():
    f = bump_two_tensor()
    g = SymTensorField.metric(GRID)
    combo = SymTensorField(GRID, 2.0 * f.comps + 3.0 * g.comps)
    sampler = ArcSampler(TORUS, CLASSES[2])
    ws, frame = sampler.quadrature(3)
    vf = np.dot(ws, f.pullback(*frame))
    vg = np.dot(ws, g.pullback(*frame))
    vc = np.dot(ws, combo.pullback(*frame))
    assert abs(vc - (2.0 * vf + 3.0 * vg)) <= 1e-12 * max(1.0, abs(vc))


def test_reparametrization_invariance_under_word_rotation():
    geo1 = ClosedGeodesic("aab", TORUS.word_matrix("aab"))
    rotated = ClosedGeodesic("aba", TORUS.word_matrix("aba"))
    f = bump_two_tensor()
    v1 = xray_eval(TORUS, f, geo1, tol=1e-10)
    v2 = xray_eval(TORUS, f, rotated, tol=1e-10)
    assert abs(v1.value - v2.value) <= 1e-9


def test_orientation_parity():
    # abaBAb meets both supports, so the parities compare nonzero values
    geo = ClosedGeodesic("abaBAb", TORUS.word_matrix("abaBAb"))
    inverse = invert_word("abaBAb")
    rev = ClosedGeodesic(inverse, TORUS.word_matrix(inverse))
    one_form = random_bump_one_form(2, center=BUMP_CENTER, r_width=0.45, t_width=0.14)
    f2 = bump_two_tensor()
    v1 = xray_eval(TORUS, one_form, geo, tol=1e-11)
    v1r = xray_eval(TORUS, one_form, rev, tol=1e-11)
    assert v1.value != 0.0
    assert abs(v1.value + v1r.value) <= 1e-9
    v2 = xray_eval(TORUS, f2, geo, tol=1e-11)
    v2r = xray_eval(TORUS, f2, rev, tol=1e-11)
    assert v2.value != 0.0
    assert abs(v2.value - v2r.value) <= 1e-9


@pytest.mark.parametrize("word", ["abaBAb", "abABB", "aabAB"])
def test_grid_one_form_matches_analytic_one_form(word):
    # the order-1 grid pullback (interpolated components) against the
    # closed-form one on a class that meets the form's support
    one_form = random_bump_one_form(2, center=BUMP_CENTER, r_width=0.45, t_width=0.14)
    geo = next(g for g in CLASSES if g.word == word)
    exact = xray_eval(TORUS, one_form, geo, tol=1e-9)
    grid = xray_eval(TORUS, one_form.sample(GRID), geo, tol=1e-9)
    assert exact.value != 0.0
    assert abs(grid.value - exact.value) <= 1e-8 * one_form.sample(GRID).sup_norm()


# ---------------------------------------------------------------------------
# annihilation of derivative tensors
# ---------------------------------------------------------------------------


def test_symbolic_annihilation_small():
    forms = [
        random_bump_one_form(seed, center=BUMP_CENTER, r_width=0.45, t_width=0.14)
        for seed in (0, 1)
    ]
    rep = potential_annihilation_suite(
        TORUS, forms, CLASSES[:20], tol=1e-9, path="symbolic"
    )
    assert rep["max_normalized_value"] <= 1e-8


def test_grid_annihilation_small():
    forms = [random_bump_one_form(5, center=BUMP_CENTER, r_width=0.45, t_width=0.14)]
    rep = potential_annihilation_suite(
        TORUS, forms, CLASSES[:20], tol=1e-7, path="grid", grid=GRID
    )
    assert rep["max_normalized_value"] <= 1e-6


def test_grid_annihilation_samples_each_form_once():
    # the grid path bounds each form by the field it sampled to
    # differentiate, so each component sees the grid's two axes once
    form = random_bump_one_form(5, center=BUMP_CENTER, r_width=0.45, t_width=0.14)
    shapes = []

    def counted(comp):
        def val(r, t):
            shapes.append(np.shape(r))
            return comp.val(r, t)

        return Scalar2D(val, comp.jet)

    rep = potential_annihilation_suite(
        TORUS,
        [AnalyticOneForm(counted(form.a), counted(form.b))],
        CLASSES[:3],
        tol=1e-7,
        path="grid",
        grid=GRID,
    )
    assert shapes == [(GRID.n_r, 1)] * 2
    assert rep["per_form"][0]["sup_norm"] == form.sample(GRID).sup_norm()
    assert [r.class_word for r in rep["results"][0]] == [g.word for g in CLASSES[:3]]


def test_zero_form_annihilation_trivial():
    nothing = Scalar2D.bump(*BUMP_CENTER, 0.45, 0.14) * 0.0
    zero = AnalyticOneForm(a=nothing, b=nothing)
    rep = potential_annihilation_suite(TORUS, [zero], CLASSES[:5], tol=1e-9, path="symbolic")
    assert rep["max_normalized_value"] == 0.0


# ---------------------------------------------------------------------------
# solenoidal probe
# ---------------------------------------------------------------------------


def test_probe_detects_aligned_solenoidal_bump():
    phi = Scalar2D.bump(-1.68, -0.0833, 0.15, 0.05)
    f_raw = SymTensorField.sample(
        GRID, 2, lambda r, t: 0.0 * r, phi, lambda r, t: 0.0 * r
    )
    f_s, _, _ = solenoidal_project(f_raw)
    rep = solenoidal_probe(TORUS, f_s, CLASSES[:20], tol=1e-6)
    assert rep["flag"] == "nonzero-detected"
    assert rep["detection_statistic"] > 1.0
    assert rep["detected_class"] is not None


def test_probe_flags_potential_as_inconclusive():
    p = random_bump_one_form(3, center=BUMP_CENTER, r_width=0.45, t_width=0.14)
    dp = sym_derivative(p.sample(GRID), method="spectral")
    rep = solenoidal_probe(TORUS, dp, CLASSES[:20], tol=1e-6)
    assert rep["flag"] == "inconclusive-potential-like"


def test_probe_zero_field_all_zero():
    z = SymTensorField(GRID, np.zeros((3, GRID.n_r, GRID.n_theta)))
    rep = solenoidal_probe(TORUS, z, CLASSES[:5], tol=1e-8)
    assert all(r.value == 0.0 for r in rep["results"])
    assert rep["flag"] == "inconclusive-potential-like"


# ---------------------------------------------------------------------------
# coverage guard
# ---------------------------------------------------------------------------


def test_coverage_error_when_support_reaches_exit():
    small = ChartGrid(-2.8, -0.5, 129, 64)
    g = SymTensorField.metric(small)  # active right up to the truncation
    tall = [geo for geo in CLASSES if geo.word == "aabAB"][0]
    with pytest.raises(CoverageError):
        xray_eval(TORUS, g, tall, tol=1e-8)
    with pytest.raises(CoverageError):
        xray_suite(TORUS, g, [CLASSES[0], tall], tol=1e-8)


def test_suite_returns_results_in_input_order():
    # a permuted mix of classes the bump meets (abABB, abaBAb, aabAB) and
    # classes it misses, so a reordering changes the values
    f = bump_two_tensor()
    by_word = {g.word: g for g in CLASSES}
    geos = [by_word[w] for w in ("abABB", "a", "abaBAb", "ab", "aabAB", "b")]
    res = xray_suite(TORUS, f, geos, tol=1e-8)
    assert [r.class_word for r in res] == [g.word for g in geos]
    assert sum(r.value != 0.0 for r in res) >= 2
    assert res == [xray_eval(TORUS, f, g, tol=1e-8) for g in geos]


# ---------------------------------------------------------------------------
# one node set per (surface, class)
# ---------------------------------------------------------------------------


def _counting_reductions(monkeypatch):
    """Record the point count of every reduce_points call the X-ray makes."""
    calls = []

    def counted(surface, zs):
        calls.append(np.size(zs))
        return reduce_points(surface, zs)

    monkeypatch.setattr(xray, "reduce_points", counted)
    return calls


def _deepest_level(res, sampler):
    # level L has 8 * base_panels * 2**L nodes
    return int(np.log2(res.nodes_used // (8 * sampler.base_panels)))


def test_grid_symbolic_and_metric_runs_reduce_each_class_level_once(monkeypatch):
    # fresh objects, so no nodes yet: a class the bump misses and three it
    # meets, on which the grid and the symbolic path refine to different depths
    words = ("a", "abaBAb", "abABB", "aabAB")
    geos = [g for g in enumerate_hyperbolic_classes(TORUS, 6) if g.word in words]
    calls = _counting_reductions(monkeypatch)
    forms = [random_bump_one_form(5, center=BUMP_CENTER, r_width=0.45, t_width=0.14)]
    grid_rep = potential_annihilation_suite(TORUS, forms, geos, tol=1e-7, path="grid", grid=GRID)
    sym_rep = potential_annihilation_suite(TORUS, forms, geos, tol=1e-9, path="symbolic")
    metric = [xray_eval(TORUS, SymTensorField.metric(GRID), g, tol=1e-10) for g in geos]
    # each run visits levels 0 .. its deepest, so a class needs its deepest level + 1
    pairs = sum(
        1 + max(_deepest_level(res, ArcSampler.of(TORUS, g)) for res in runs)
        for g, *runs in zip(geos, grid_rep["results"][0], sym_rep["results"][0], metric)
    )
    assert len(calls) == pairs


def test_hand_built_geodesic_and_second_surface_get_their_own_nodes(monkeypatch):
    geo = enumerate_hyperbolic_classes(TORUS, 3)[0]
    twin = ClosedGeodesic(geo.word, geo.matrix)
    other = punctured_torus()
    metric = SymTensorField.metric(GRID)
    calls = _counting_reductions(monkeypatch)
    first = xray_eval(TORUS, metric, geo, tol=1e-10)
    per_run = len(calls)
    assert xray_eval(TORUS, metric, geo, tol=1e-10) == first
    assert len(calls) == per_run  # the same geodesic on the same surface: no new reduction
    for surf, g in ((TORUS, twin), (other, geo)):
        assert xray_eval(surf, metric, g, tol=1e-10) == first
    assert len(calls) == 3 * per_run
    assert ArcSampler.of(other, geo) is not ArcSampler.of(TORUS, geo)
    assert ArcSampler.of(other, geo).surface is other
    assert ArcSampler.of(TORUS, twin) is not ArcSampler.of(TORUS, geo)
