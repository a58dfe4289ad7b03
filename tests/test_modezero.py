from dataclasses import replace

import numpy as np
import pytest

from conftest import jordan_family, scalar_family
from cusplab.errors import InvalidInputError, InvalidWeightError
from cusplab.modezero import (
    ModeZeroField,
    apply_indicial,
    bump,
    cross_root_correction,
    evaluate_elements,
    fit_decay_rate,
    invert_on_line,
    line_grid,
    make_field,
    window_profile,
)
from cusplab.operators import (
    indicial_family,
    sym_derivative_spec,
    sym_laplacian_spec,
)
from cusplab.polymat import IndicialFamily, indicial_roots
from cusplab.residues import kernel_elements, root_report

LAM_PLUS = 0.5 + np.sqrt(1.25)
LAM_MINUS = 0.5 - np.sqrt(1.25)

FAM_LAP1 = indicial_family(sym_laplacian_spec(1))


def gaussian_pair(r):
    g = np.exp(-(r**2))
    return np.stack([g, 0.3 * np.exp(-((r - 0.5) ** 2))], axis=1)


# ---------------------------------------------------------------------------
# high-order finite-difference oracle for operator application
# ---------------------------------------------------------------------------

D1_W = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0, 4 / 5, -1 / 5, 4 / 105, -1 / 280])
D2_W = np.array(
    [-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560]
)


def fd_derivative(u, dr, order):
    w = D1_W / dr if order == 1 else D2_W / dr**2
    out = np.zeros_like(u)
    for s, c in zip(range(-4, 5), w):
        if c != 0.0:
            out += c * np.roll(u, -s, axis=0)
    return out


def fd_apply_laplacian_d1(fld):
    # dy/y block: u'' - u' - u ; dtheta/y block: (u'' - u' - 2u)/2
    u = fld.samples
    du = fd_derivative(u, fld.dr, 1)
    ddu = fd_derivative(u, fld.dr, 2)
    out = np.empty_like(u)
    out[:, 0] = ddu[:, 0] - du[:, 0] - u[:, 0]
    out[:, 1] = 0.5 * (ddu[:, 1] - du[:, 1] - 2 * u[:, 1])
    return ModeZeroField(fld.r0, fld.dr, out, weight=fld.weight)


# ---------------------------------------------------------------------------
# apply_indicial
# ---------------------------------------------------------------------------


def test_apply_identity_family_is_identity():
    fld = make_field(gaussian_pair, r_half=24.0, n=1024)
    out = apply_indicial(IndicialFamily(np.eye(2)[None]), fld)
    assert np.allclose(out.samples, fld.samples, atol=1e-13)


def test_apply_matches_finite_difference_oracle():
    fld = make_field(gaussian_pair, r_half=24.0, n=2048)
    spectral = apply_indicial(FAM_LAP1, fld)
    fd = fd_apply_laplacian_d1(fld)
    err = np.max(np.abs(spectral.samples - fd.samples))
    assert err <= 1e-8


def test_apply_on_windowed_exponential_reproduces_family_action():
    # on e^{lam0 r} psi(r) the operator acts exactly by fam(lam0) wherever
    # psi is flat; the commutator lives only on the window's transition
    lam0 = 0.35
    r0, dr = line_grid(24.0, 2048)
    r = r0 + dr * np.arange(2048)
    psi = window_profile(r)  # 1 on |r| <= 19.2
    samples = np.stack([psi, 0.5 * psi], axis=1).astype(complex)
    fld = ModeZeroField(r0, dr, samples, weight=lam0)
    out = apply_indicial(FAM_LAP1, fld)
    target = samples @ FAM_LAP1(lam0).T
    plateau = np.abs(r) < 10.0
    err = np.max(np.abs(out.samples[plateau] - target[plateau]))
    assert err <= 1e-10
    # off the plateau the commutator terms are allowed but bounded
    assert np.max(np.abs(out.samples - target)) < 10.0


# ---------------------------------------------------------------------------
# inversion on weight lines
# ---------------------------------------------------------------------------


def bump_rhs(r_half=48.0, n=4096):
    def f(r):
        b = bump(r / 4.0)
        return np.stack([b, 0.7 * b], axis=1)

    return make_field(f, r_half=r_half, n=n)


def test_invert_zero_rhs_gives_zero():
    f = bump_rhs()
    zero = ModeZeroField(f.r0, f.dr, np.zeros_like(f.samples))
    u, _ = invert_on_line(FAM_LAP1, zero, 0.0)
    assert np.max(np.abs(u.samples)) == 0.0


def test_invert_then_apply_recovers_rhs():
    f = bump_rhs()
    u, info = invert_on_line(FAM_LAP1, f, 0.0)
    back = apply_indicial(FAM_LAP1, u)
    err = np.max(np.abs(back.samples - f.samples))
    assert err <= 1e-8 * np.max(np.abs(f.samples))
    assert info["condition_max"] < 1e4


def test_apply_then_invert_recovers_interior_data():
    fld = make_field(lambda r: gaussian_pair(r) * window_profile(r)[:, None], 48.0, 4096)
    g = apply_indicial(FAM_LAP1, fld)
    u, _ = invert_on_line(FAM_LAP1, g, 0.0)
    assert np.max(np.abs(u.samples - fld.samples)) <= 1e-8


# imaginary lower-order terms: the family's values at conjugate points are
# no longer conjugate
FAM_COMPLEX = IndicialFamily(
    FAM_LAP1.coeffs + np.array([0.3j, 0.1j, 0.0])[:, None, None] * np.eye(2)
)


@pytest.mark.parametrize(
    "fam, n, rho",
    [(FAM_LAP1, 256, 0.0), (FAM_LAP1, 255, 0.4), (FAM_COMPLEX, 256, 0.2), (FAM_COMPLEX, 255, 0.0)],
    ids=["real-even", "real-odd", "complex-even", "complex-odd"],
)
def test_condition_statistics_match_the_full_decomposition_bitwise(fam, n, rho, monkeypatch):
    f = make_field(gaussian_pair, r_half=12.0, n=n)
    _, info = invert_on_line(fam, f, rho)
    conds = np.linalg.cond(fam(rho + 1j * f.frequencies()))
    median, seen = np.median, []
    monkeypatch.setattr(np, "median", lambda a: seen.append(np.sort(a)) or median(a))
    assert info["condition_max"] == float(np.max(conds))
    assert info["condition_median"] == float(median(conds))
    # the statistics read every frequency's condition number, each once
    np.testing.assert_array_equal(seen[0], np.sort(conds))
    assert sorted(dict(info)) == ["condition_max", "condition_median", "root_line_distance"]
    assert repr(info) == repr(dict(info))


def test_unread_condition_statistics_cost_no_decomposition(monkeypatch):
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda *a, **k: calls.append(1) or cond(*a, **k))
    f = bump_rhs(r_half=64.0)
    _, info = invert_on_line(FAM_LAP1, f, 0.0)
    cross_root_correction(FAM_LAP1, f, 0.0, 1.8)
    assert calls == []
    # the first read decomposes the line; later reads reuse its numbers
    assert info["condition_median"] <= info["condition_max"] == dict(info)["condition_max"]
    assert calls == [1]


def test_invert_rejects_root_line_and_warns_near_root():
    f = bump_rhs()
    with pytest.raises(InvalidWeightError):
        invert_on_line(FAM_LAP1, f, LAM_PLUS)
    with pytest.warns(UserWarning) as record:
        invert_on_line(FAM_LAP1, f, LAM_PLUS - 5e-4)
    # the warning names the caller's line, not the private solve
    assert record[0].filename == __file__


def test_solution_tail_rates_match_neighbor_roots():
    # solution decays like the largest root below rho to the right and the
    # smallest root above rho to the left
    f = bump_rhs()
    u, _ = invert_on_line(FAM_LAP1, f, 0.0)
    rate_right = fit_decay_rate(u, side="+")
    rate_left = fit_decay_rate(u, side="-")
    assert abs(rate_right - LAM_MINUS) <= 2e-2
    assert abs(rate_left - LAM_PLUS) <= 2e-2


@pytest.mark.parametrize("side", ["right", "", "+-", None])
def test_decay_rate_rejects_an_unknown_side(side):
    # a mistyped side must raise, not read the other tail's rate
    u, _ = invert_on_line(FAM_LAP1, bump_rhs(), 0.0)
    with pytest.raises(InvalidInputError, match="side"):
        fit_decay_rate(u, side)


def test_contour_independence_within_component():
    f = bump_rhs()
    u1, _ = invert_on_line(FAM_LAP1, f, 0.0)
    u2, _ = invert_on_line(FAM_LAP1, f, 0.4)
    v1, v2 = u1.values(), u2.values()
    interior = np.abs(u1.grid) <= 20.0
    err = np.max(np.abs(v1[interior] - v2[interior]))
    assert err <= 1e-10 * np.max(np.abs(v1[interior]))


# ---------------------------------------------------------------------------
# kernel elements
# ---------------------------------------------------------------------------


def test_kernel_element_scalar_simple_root():
    fam = scalar_family(-0.5, 1.0)  # lam - 0.5
    els = kernel_elements(fam, 0.5)
    assert len(els) == 1
    assert els[0].k == 0
    assert abs(els[0].lam - 0.5) < 1e-12


def test_kernel_element_double_root_powers():
    fam = scalar_family(0.25, -1.0, 1.0)  # (lam-0.5)^2
    els = kernel_elements(fam, 0.5)
    assert sorted(e.k for e in els) == [0, 1]


def test_kernel_elements_annihilated_in_interior():
    for fam, lam0 in [
        (FAM_LAP1, LAM_MINUS),
        (FAM_LAP1, -1.0),
        (indicial_family(sym_derivative_spec(1)), -1.0),
        (scalar_family(0.25, -1.0, 1.0), 0.5),
    ]:
        for el in kernel_elements(fam, lam0):
            r0, dr = line_grid(24.0, 2048)
            r = r0 + dr * np.arange(2048)
            prof = el.evaluate(r) * np.exp(-el.lam.real * r)[:, None]
            w = window_profile(r)  # flat plateau on |r| <= 19.2
            fld = ModeZeroField(r0, dr, prof * w[:, None], weight=el.lam.real)
            out = apply_indicial(fam, fld)
            interior = np.abs(r) < 10.0
            resid = np.max(np.abs(out.samples[interior]))
            scale = np.max(np.abs(fld.samples))
            assert resid <= 1e-8 * scale


def similar_jordan_pair():
    # J_2(0.3) + J_1(0.3) under a random similarity
    s = np.random.default_rng(7).normal(size=(3, 3))
    j = np.stack([-0.3 * np.eye(3) + np.diag([1.0, 0.0], 1), np.eye(3)])
    return IndicialFamily(np.einsum("ij,kjl,lm->kim", s, j, np.linalg.inv(s)))


def builtin_roots():
    cases = []
    for name, spec in (("sym-laplacian", sym_laplacian_spec), ("sym-derivative", sym_derivative_spec)):
        for d in (1, 2, 3):
            fam = indicial_family(spec(d))
            cases += [(f"{name} d={d} at {r.lam.real:.4f}", fam, r.lam) for r in indicial_roots(fam)]
    return cases


BUILTIN_ROOTS = builtin_roots()
JORDAN_ROOTS = [(f"J{k}", jordan_family(k, 0.3), 0.3) for k in range(1, 8)]
JORDAN_ROOTS.append(("J2+J1 similar", similar_jordan_pair(), 0.3))


def projector_rank(fam, lam0):
    (entry,) = [
        e
        for e in root_report(fam, (lam0.real - 1.0, lam0.real + 1.0))["roots"]
        if abs(complex(*e["lambda"]) - lam0) < 1e-6
    ]
    return entry["projector_rank"]


@pytest.mark.parametrize(
    "fam, lam0",
    [case[1:] for case in JORDAN_ROOTS + BUILTIN_ROOTS],
    ids=[case[0] for case in JORDAN_ROOTS + BUILTIN_ROOTS],
)
def test_kernel_element_count_is_the_projector_rank(fam, lam0):
    assert len(kernel_elements(fam, lam0)) == projector_rank(fam, lam0)


EXACT_ROOTS = JORDAN_ROOTS[:4] + JORDAN_ROOTS[-1:] + BUILTIN_ROOTS


@pytest.mark.parametrize(
    "fam, lam0", [case[1:] for case in EXACT_ROOTS], ids=[case[0] for case in EXACT_ROOTS]
)
def test_kernel_elements_are_exactly_annihilated(fam, lam0, annihilation_residual):
    # the finite-difference window test above cannot see a wrong lower-order
    # term; the Taylor coefficients of P at the root can
    for el in kernel_elements(fam, lam0):
        assert annihilation_residual(fam, el.lam, el.k, el.coefficient_vector, el.tail) <= 1e-8


def test_derivative_kernel_element_is_slice_direction():
    fam = indicial_family(sym_derivative_spec(1))
    els = kernel_elements(fam, -1.0)
    assert len(els) == 1
    el = els[0]
    assert el.k == 0
    assert abs(el.coefficient_vector[0]) < 1e-8
    assert abs(abs(el.coefficient_vector[1]) - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# cross-root corrections
# ---------------------------------------------------------------------------


def test_cross_root_no_root_means_no_correction():
    f = bump_rhs()
    diff, contribs = cross_root_correction(FAM_LAP1, f, 0.0, 0.4)
    assert contribs == []
    interior = np.abs(diff.grid) <= 20.0
    assert np.max(np.abs(diff.samples[interior])) <= 1e-10


def test_cross_root_scalar_closed_form():
    fam = scalar_family(-0.5, 1.0)  # lam - 0.5
    f = make_field(lambda r: bump(r / 3.0), r_half=64.0, n=4096)
    diff, contribs = cross_root_correction(fam, f, 0.0, 1.0)
    assert len(contribs) == 1
    el = contribs[0]
    # analytic residue: e^{0.5 r} * finite transform of f at 0.5, computed
    # with an independent 10x-resolution trapezoid oracle
    rr = np.linspace(-6, 6, 40961)
    fhat = np.trapezoid(bump(rr / 3.0) * np.exp(-0.5 * rr), rr)
    assert abs(el.coefficient_vector[0] - fhat) <= 1e-8 * abs(fhat)
    correction = evaluate_elements(contribs, diff)
    interior = np.abs(diff.grid) <= 12.0
    err = np.max(np.abs(diff.samples[interior] - correction.samples[interior]))
    assert err <= 1e-8 * np.max(np.abs(correction.samples[interior]))


def test_cross_root_laplacian_across_upper_root():
    # wide periodic domain keeps the wraparound of the upper-weight line
    # inversion below the pointwise tolerance
    f = bump_rhs(r_half=64.0, n=4096)
    diff, contribs = cross_root_correction(FAM_LAP1, f, 0.0, 1.8)
    assert {round(c.lam.real, 6) for c in contribs} == {round(LAM_PLUS, 6)}
    correction = evaluate_elements(contribs, diff)
    interior = np.abs(diff.grid) <= 12.0
    err = np.max(np.abs(diff.samples[interior] - correction.samples[interior]))
    assert err <= 1e-8 * np.max(np.abs(correction.samples[interior]))


def test_crossing_no_root_corrects_by_the_zero_field():
    # no Laplacian root lies strictly between the weights 0 and 0.4: the
    # correction is the zero field on the difference's grid and weight
    diff, contribs = cross_root_correction(FAM_LAP1, bump_rhs(), 0.0, 0.4)
    assert contribs == []
    correction = evaluate_elements(contribs, diff)
    assert (correction.r0, correction.dr, correction.weight) == (diff.r0, diff.dr, diff.weight)
    assert correction.samples.shape == diff.samples.shape
    assert not np.any(correction.samples)


def test_field_weight_round_trip():
    f = bump_rhs()
    g = f.with_weight(0.7).with_weight(0.0)
    assert np.allclose(g.samples, f.samples, atol=1e-12)


@pytest.mark.parametrize("rho", [20.0, -20.0])
def test_field_weight_round_trip_where_the_exponential_overflows(rho):
    # e^{20 |r|} overflows at one end of the grid, where criterion 4's bump
    # is exactly 0: the re-weighting made those samples 0 * inf = NaN
    f = bump_rhs()
    g = f.with_weight(rho)
    assert g.weight == rho
    assert np.max(np.abs(g.with_weight(0.0).samples - f.samples)) <= 1e-14


def test_small_grid_rejected():
    with pytest.raises(InvalidInputError):
        ModeZeroField(0.0, 0.1, np.zeros((8, 1)))


@pytest.mark.parametrize(
    "r0, dr",
    [(0.0, 0.0), (0.0, -0.1), (0.0, np.nan), (0.0, np.inf), (np.nan, 0.1), (-np.inf, 0.1)],
)
def test_grid_needs_a_finite_origin_and_a_positive_finite_spacing(r0, dr):
    # a zero spacing used to construct and die in invert_on_line's fftfreq
    with pytest.raises(InvalidInputError, match="positive finite dr"):
        ModeZeroField(r0, dr, np.ones((64, 1)))


@pytest.mark.parametrize("half_width, ncomp", [(24.0, 2), (48.0, 1)])
def test_fields_on_different_grids_or_components_do_not_subtract(half_width, ncomp):
    # the samples broadcast, so the difference used to pair node k of one
    # grid with node k of the other, or one component with both
    f = bump_rhs()
    other = bump_rhs(r_half=half_width)
    other = replace(other, samples=other.samples[:, :ncomp])
    with pytest.raises(InvalidInputError, match="different grids"):
        f - other


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_sample_is_rejected_on_construction(bad):
    f = bump_rhs()
    samples = f.samples.copy()
    samples[100, 1] = bad
    with pytest.raises(InvalidInputError, match="at weight 0.3: 1 non-finite") as err:
        ModeZeroField(f.r0, f.dr, samples, weight=0.3)
    assert err.value.diagnostics["non_finite"] == 1
    with pytest.raises(InvalidInputError) as err:
        replace(f, samples=samples)
    assert err.value.diagnostics["non_finite"] == 1


def test_re_weighting_that_overflows_a_nonzero_sample_is_rejected():
    # samples nonzero everywhere: e^{-20 r} overflows, and the field holding
    # the product would be infinite there
    r0, dr = line_grid(48.0, 4096)
    f = ModeZeroField(r0, dr, np.ones((4096, 2)))
    overflowing = np.count_nonzero(-20.0 * f.grid > np.log(np.finfo(float).max))
    assert overflowing > 0
    with pytest.raises(InvalidInputError, match="at weight 20.0") as err:
        f.with_weight(20.0)
    assert err.value.diagnostics["non_finite"] == 2 * overflowing
