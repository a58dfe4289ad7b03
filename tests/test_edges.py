"""Edge and error-path coverage across modules."""

import numpy as np
import pytest

from cusplab import surface
from cusplab.errors import (
    InvalidInputError,
    ReductionError,
    ResolutionError,
)
from cusplab.fields import random_bump_one_form
from cusplab.modezero import (
    ModeZeroField,
    apply_indicial,
    invert_on_line,
    line_grid,
)
from cusplab.operators import (
    OperatorSpec,
    indicial_family,
    spec_from_terms,
    sym_derivative_spec,
    sym_laplacian_spec,
)
from cusplab.paley import holder_norm, lp_block, zygmund_norm
from cusplab.polymat import indicial_roots
from cusplab.residues import kernel_elements
from cusplab.runio import build_surface, load_config
from cusplab.surface import punctured_torus, reduce_points
from cusplab.halfplane import BoundaryGeodesic

TORUS = punctured_torus()


def test_reduction_iteration_cap_raises_with_diagnostics(monkeypatch):
    monkeypatch.setattr(surface, "_MAX_ITER", 1)
    with pytest.raises(ReductionError) as info:
        reduce_points(TORUS, [0.3 + 1e-4j])
    assert info.value.diagnostics["count"] == 1


def test_kernel_elements_at_non_root_empty():
    fam = indicial_family(sym_laplacian_spec(1))
    assert kernel_elements(fam, 0.3) == []


def test_apply_indicial_aliasing_guard():
    r0, dr = line_grid(12.0, 256)
    r = r0 + dr * np.arange(256)
    nyq = np.pi / dr
    u = np.cos(0.97 * nyq * r) * np.exp(-((r / 8.0) ** 2))
    fld = ModeZeroField(r0, dr, u[:, None])
    fam = indicial_family(OperatorSpec(terms=((1, np.eye(1)),)))
    with pytest.raises(ResolutionError):
        apply_indicial(fam, fld)


def test_lp_block_aliasing_guard():
    r0, dr = line_grid(12.0, 256)
    r = r0 + dr * np.arange(256)
    nyq = np.pi / dr
    u = np.cos(0.97 * nyq * r)
    fld = ModeZeroField(r0, dr, u[:, None])
    with pytest.raises(ResolutionError) as err:
        lp_block(fld, 2)
    assert err.value.diagnostics["tail_fraction"] > 1e-6


def test_aliasing_guard_keeps_each_callers_tolerance():
    # tail fraction 2e-8: above the line solver's 1e-10, below the dyadic
    # blocks' 1e-6
    r0, dr = line_grid(12.0, 256)
    r = r0 + dr * np.arange(256)
    nyq = np.pi / dr
    u = np.exp(-((r / 2.0) ** 2)) + 1e-4 * np.cos(0.97 * nyq * r) * np.exp(-((r / 8.0) ** 2))
    fld = ModeZeroField(r0, dr, u[:, None])
    fam = indicial_family(OperatorSpec(terms=((1, np.eye(1)),)))
    with pytest.raises(ResolutionError) as err:
        apply_indicial(fam, fld)
    assert 1e-10 < err.value.diagnostics["tail_fraction"] < 1e-6
    lp_block(fld, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda fam, fld: invert_on_line(fam, fld, 0.0),
        lambda fam, fld: apply_indicial(fam, fld),
        lambda fam, fld: lp_block(fld, 2),
        lambda fam, fld: zygmund_norm(fld, 0.5),
        lambda fam, fld: holder_norm(fld, 0.5),
    ],
    ids=["invert_on_line", "apply_indicial", "lp_block", "zygmund_norm", "holder_norm"],
)
def test_non_finite_sample_is_rejected_with_its_count(call, bad):
    # a NaN spectrum fails no tail-fraction comparison, so one bad sample
    # would come back as an all-NaN solution or a nan norm; the field that
    # would carry it cannot be built, so no entry point receives it
    r0, dr = line_grid(12.0, 256)
    r = r0 + dr * np.arange(256)
    u = np.exp(-((r / 2.0) ** 2))
    u[100] = bad
    fam = indicial_family(OperatorSpec(terms=((0, np.eye(1)),)))
    with pytest.raises(InvalidInputError) as err:
        call(fam, ModeZeroField(r0, dr, u[:, None]))
    assert err.value.diagnostics["non_finite"] == 1


def test_invert_rejects_non_square_family():
    fam = indicial_family(sym_derivative_spec(1))
    r0, dr = line_grid(12.0, 256)
    f = ModeZeroField(r0, dr, np.zeros((256, 2)))
    with pytest.raises(InvalidInputError):
        invert_on_line(fam, f, 0.0)


def test_custom_operator_from_term_rows():
    # scalar d/dr - c as a custom spec: single root at c
    rows = [["0", "-0.7"], ["1", "1.0"]]
    spec = spec_from_terms(rows, 1, 1)
    roots = indicial_roots(indicial_family(spec))
    assert len(roots) == 1
    assert abs(roots[0].lam - 0.7) < 1e-12


def test_custom_operator_rejects_bad_rows():
    with pytest.raises(InvalidInputError):
        spec_from_terms([["1", "1.0", "2.0"]], 1, 1)
    with pytest.raises(InvalidInputError):
        spec_from_terms([["-1", "1.0"]], 1, 1)


def test_surface_from_explicit_generator_rows(tmp_path):
    a = TORUS.generators["a"].mat
    b = TORUS.generators["b"].mat
    rows = "; ".join(" ".join(format(x, ".17g") for x in m.ravel()) for m in (a, b))
    path = tmp_path / "surface.ini"
    path.write_text(f"[surface]\ngenerators = {rows}\n")
    surf = build_surface(load_config(path))
    comm = surf.word_matrix("abAB")
    assert abs(abs(comm.trace) - 2.0) < 1e-9


def test_flow_derivative_identity_on_random_segments():
    # pullback of the derivative equals the flow derivative of the pullback
    # along 20 random chart geodesic segments
    rng = np.random.default_rng(17)
    p = random_bump_one_form(8, center=(-0.9, 0.3), r_width=0.4, t_width=0.12)
    dp = p.sym_derivative()
    h = 1e-5
    checked = 0
    for _ in range(20):
        u_end = rng.uniform(0.05, 0.45)
        v_end = rng.uniform(0.55, 0.95)
        axis = BoundaryGeodesic(u_end, v_end)
        t0 = rng.uniform(-0.5, 0.5)

        def pull1(t):
            z = axis.point(t)
            v = axis.tangent(t)
            w = v / z.imag
            return p.pullback(np.log(z.imag), z.real % 1.0, w.imag, w.real)

        z = axis.point(t0)
        v = axis.tangent(t0)
        w = v / z.imag
        lhs = (pull1(t0 + h) - pull1(t0 - h)) / (2 * h)
        rhs = dp.pullback(np.log(z.imag), z.real % 1.0, w.imag, w.real)
        assert abs(lhs - rhs) <= 1e-7
        checked += 1
    assert checked == 20
