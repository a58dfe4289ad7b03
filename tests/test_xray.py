import numpy as np
import pytest

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
    _Integrand,
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
    z = SymTensorField.zeros(GRID, 2)
    for geo in CLASSES[:5]:
        assert xray_eval(TORUS, z, geo, tol=1e-10).value == 0.0


def test_invalid_tolerance_rejected():
    with pytest.raises(InvalidInputError):
        xray_eval(TORUS, SymTensorField.metric(GRID), CLASSES[0], tol=0.0)


def test_single_level_rejected():
    # the error estimate compares two levels, so at least one refinement
    for strict in (True, False):
        with pytest.raises(InvalidInputError):
            xray_eval(TORUS, SymTensorField.metric(GRID), CLASSES[0], max_level=0, strict=strict)


def test_unconverged_result_is_last_level_against_the_one_below():
    f = bump_two_tensor()
    geo = next(g for g in CLASSES if g.word == "abaBAb")  # meets the bump
    sampler = ArcSampler(TORUS, geo)
    res = xray_eval(TORUS, f, geo, tol=1e-15, max_level=2, sampler=sampler, strict=False)
    integrand = _Integrand(f)
    totals = []
    for level in (1, 2):
        ts, ws, frame = sampler.quadrature(level)
        totals.append(float(np.dot(ws, integrand(*frame))) / geo.length)
    assert res.value == totals[1]
    assert res.error_estimate == abs(totals[1] - totals[0]) > 1e-6
    assert res.nodes_used == ts.size


def test_refinement_against_dense_trapezoid_oracle():
    f = bump_two_tensor()
    geo = CLASSES[3]
    res = xray_eval(TORUS, f, geo, tol=1e-9)
    # independent oracle: plain trapezoid at ~10x the adaptive node count
    n = 10 * res.nodes_used
    ts = np.linspace(0.0, geo.length, n, endpoint=False)
    sampler = ArcSampler(TORUS, geo)
    z, v = geo.arc(ts)
    zred, mats = reduce_points(TORUS, z)
    vred = v / (mats[:, 1, 0] * z + mats[:, 1, 1]) ** 2
    u = vred / zred.imag
    integrand = _Integrand(f)
    vals = integrand(np.log(zred.imag), zred.real % 1.0, u.imag, u.real)
    oracle = np.sum(vals) * (geo.length / n) / geo.length
    assert abs(res.value - oracle) <= 1e-8
    assert res.error_estimate <= 1e-9


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------


def test_linearity_at_fixed_quadrature_nodes():
    f = bump_two_tensor()
    g = SymTensorField.metric(GRID)
    combo = 2.0 * f + 3.0 * g
    sampler = ArcSampler(TORUS, CLASSES[2])
    ts, ws, frame = sampler.quadrature(3)
    vf = np.dot(ws, _Integrand(f)(*frame))
    vg = np.dot(ws, _Integrand(g)(*frame))
    vc = np.dot(ws, _Integrand(combo)(*frame))
    assert abs(vc - (2.0 * vf + 3.0 * vg)) <= 1e-12 * max(1.0, abs(vc))


def test_reparametrization_invariance_under_word_rotation():
    geo1 = ClosedGeodesic.from_word(TORUS, "aab")
    rotated = ClosedGeodesic.from_word(TORUS, "aba")
    f = bump_two_tensor()
    v1 = xray_eval(TORUS, f, geo1, tol=1e-10)
    v2 = xray_eval(TORUS, f, rotated, tol=1e-10)
    assert abs(v1.value - v2.value) <= 1e-9


def test_orientation_parity():
    # abaBAb meets both supports, so the parities compare nonzero values
    geo = ClosedGeodesic.from_word(TORUS, "abaBAb")
    rev = ClosedGeodesic.from_word(TORUS, invert_word("abaBAb"))
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
    assert abs(grid.value - exact.value) <= 1e-8 * one_form.sup_norm_estimate(GRID)


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


def test_zero_form_annihilation_trivial():
    zero = AnalyticOneForm(a=Scalar2D.constant(0.0), b=Scalar2D.constant(0.0))
    rep = potential_annihilation_suite(TORUS, [zero], CLASSES[:5], path="symbolic")
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
    z = SymTensorField.zeros(GRID, 2)
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
