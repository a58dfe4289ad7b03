"""Acceptance battery: the closed-form targets the implementation must hit.

Each criterion function returns (passed, details); ``run_all`` executes the
full battery and reports one line per criterion.  Tolerances are fixed here
once; the pytest acceptance module and the CLI ``suite`` subcommand both run
exactly this code.
"""

import time

import numpy as np

from .chart import ChartGrid
from .circlefiber import (
    gradient_indicial_roots,
    inverse_conditioning_exponent,
    sphere_fibered_inverse_check,
)
from .fields import Scalar2D, random_bump_one_form
from .modezero import (
    apply_indicial,
    bump,
    cross_root_correction,
    evaluate_elements,
    fit_decay_rate,
    invert_on_line,
    make_field,
)
from .operators import (
    divergence_spec,
    indicial_family,
    laplacian_invertibility_window,
    sym_derivative_spec,
    sym_laplacian_spec,
)
from .paley import (
    ALT_PSI,
    DEFAULT_PSI,
    dyadic_multipliers,
    interaction_decay_exponent,
    max_block_index,
    norm_equivalence_report,
    random_band_limited_family,
)
from .polymat import adjoint_family, indicial_roots
from .residues import crossed_roots, index_jump, residue_rank
from .surface import enumerate_hyperbolic_classes, punctured_torus
from .tensorfield import (
    SymTensorField,
    l2_norm,
    solenoidal_project,
    sym_derivative,
    sym_laplacian,
)
from .xray import potential_annihilation_suite, xray_suite


def _laplacian_roots_target(d):
    return sorted([-1.0, float(d + 1), *laplacian_invertibility_window(d)])


def criterion_1_indicial_roots():
    """Exact root targets for the derivative, the Laplacian and the
    tangent-bundle gradient, d in {1, 2, 3}, to 1e-10."""
    worst = 0.0
    for d in (1, 2, 3):
        roots_d = indicial_roots(indicial_family(sym_derivative_spec(d)))
        if len(roots_d) != 1 or roots_d[0].multiplicity != d:
            return False, {"reason": f"derivative root structure wrong at d={d}"}
        worst = max(worst, abs(roots_d[0].lam - (-1.0)))
        got = sorted(r.lam.real for r in indicial_roots(indicial_family(sym_laplacian_spec(d))))
        want = _laplacian_roots_target(d)
        if len(got) != 4:
            return False, {"reason": f"laplacian root count wrong at d={d}"}
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
        roots_g, certificate = gradient_indicial_roots(d)
        # the derivative part's kernel is the constants: one dimension in
        # each even-degree block, none in the odd ones
        if any(block["kernel_dim"] != 1 - block["degree"] % 2 for block in certificate):
            return False, {"reason": f"gradient kernel is not the constants at d={d}"}
        worst = max(worst, abs(roots_g[0]))
    return worst <= 1e-10, {"max_root_error": worst, "tolerance": 1e-10}


def criterion_2_homomorphism():
    """Composition of divergence and derivative families equals the
    Laplacian family at 100 random parameters, 1e-12 relative."""
    rng = np.random.default_rng(2202)
    worst = 0.0
    for d in (1, 2, 3):
        comp = indicial_family(divergence_spec(d)).compose(
            indicial_family(sym_derivative_spec(d))
        )
        lap = indicial_family(sym_laplacian_spec(d))
        lams = rng.uniform(-10, 10, 100) + 1j * rng.uniform(-10, 10, 100)
        lams *= np.minimum(1.0, 10.0 / np.abs(lams))
        a, b = comp(lams), lap(lams)
        rel = np.linalg.norm(a - b, axis=(-2, -1)) / np.linalg.norm(b, axis=(-2, -1))
        worst = max(worst, float(np.max(rel)))
    return worst <= 1e-12, {"max_relative_error": worst, "tolerance": 1e-12}


def criterion_3_adjoint_symmetry():
    """Adjoint family's roots are the d - lam reflection; the symmetric
    pair of Laplacian roots sums to d, to 1e-12."""
    worst = 0.0
    for d in (1, 2, 3):
        fam = indicial_family(sym_laplacian_spec(d))
        got = [r.lam.real for r in indicial_roots(fam)]
        adj = sorted(d - r.lam.real for r in indicial_roots(adjoint_family(fam, d)))
        worst = max(worst, max(abs(a - b) for a, b in zip(sorted(got), adj)))
        lam_minus, lam_plus = laplacian_invertibility_window(d)
        plus = min(got, key=lambda x: abs(x - lam_plus))
        minus = min(got, key=lambda x: abs(x - lam_minus))
        worst = max(worst, abs((plus + minus) - d))
    return worst <= 1e-12, {"max_error": worst, "tolerance": 1e-12}


def _laplacian_bump_problem(r_half, n):
    fam = indicial_family(sym_laplacian_spec(1))

    def f(r):
        b = bump(r / 4.0)
        return np.stack([b, 0.7 * b], axis=1)

    return fam, make_field(f, r_half=r_half, n=n)


def criterion_4_mode_zero_inversion():
    """Laplacian line inversion at weight 0: round-trip residual 1e-8, tail
    rates match the neighbor roots within 2e-2, weight independence within
    the component to 1e-10."""
    fam, f = _laplacian_bump_problem(48.0, 4096)
    lam_minus, lam_plus = laplacian_invertibility_window(1)
    u, info = invert_on_line(fam, f, 0.0)
    back = apply_indicial(fam, u)
    resid = float(np.max(np.abs(back.samples - f.samples)) / np.max(np.abs(f.samples)))
    rate_right = fit_decay_rate(u, side="+")
    rate_left = fit_decay_rate(u, side="-")
    u2, _ = invert_on_line(fam, f, 0.4)
    interior = np.abs(u.grid) <= 20.0
    v1, v2 = u.values(), u2.values()
    indep = float(
        np.max(np.abs(v1[interior] - v2[interior])) / np.max(np.abs(v1[interior]))
    )
    details = {
        "roundtrip_residual": resid,
        "rate_right": rate_right,
        "rate_right_target": lam_minus,
        "rate_left": rate_left,
        "rate_left_target": lam_plus,
        "weight_independence": indep,
        "condition_max": info["condition_max"],
    }
    ok = (
        resid <= 1e-8
        and abs(rate_right - lam_minus) <= 2e-2
        and abs(rate_left - lam_plus) <= 2e-2
        and indep <= 1e-10
    )
    return ok, details


def criterion_5_cross_root_correction():
    """Difference of line inverses across the upper invertibility root
    equals the residue contribution pointwise to 1e-8 on the interior."""
    fam, f = _laplacian_bump_problem(64.0, 4096)
    diff, contribs = cross_root_correction(fam, f, 0.0, 1.8)
    correction = evaluate_elements(contribs, diff)
    interior = np.abs(diff.grid) <= 12.0
    err = float(
        np.max(np.abs(diff.samples[interior] - correction.samples[interior]))
        / np.max(np.abs(correction.samples[interior]))
    )
    lam_plus = laplacian_invertibility_window(1)[1]
    roots_ok = {round(c.lam.real, 6) for c in contribs} == {round(lam_plus, 6)}
    return err <= 1e-8 and roots_ok, {
        "pointwise_error": err,
        "tolerance": 1e-8,
        "contributing_roots": sorted({c.lam.real for c in contribs}),
    }


def criterion_6_index_jump_consistency():
    """Index jumps equal summed residue ranks (contour quadrature) and the
    determinant multiplicities, for the Laplacian and the derivative."""
    famL = indicial_family(sym_laplacian_spec(1))
    famD = indicial_family(sym_derivative_spec(1))
    checks = []
    for fam, windows in (
        (famL, [(-1.5, 0.0), (0.0, 1.7), (0.0, 2.5), (-1.5, 2.5)]),
        (famD, [(-1.5, 0.0)]),
    ):
        for a, b in windows:
            jump = index_jump(fam, a, b)
            rank_sum = 0
            mult_sum = 0
            for r in crossed_roots(fam, a, b)[1]:
                rank, _ = residue_rank(fam, r.lam)
                rank_sum += rank
                mult_sum += r.multiplicity
            checks.append(
                {"window": [a, b], "jump": jump, "rank_sum": rank_sum, "mult_sum": mult_sum}
            )
    ok = all(c["jump"] == c["rank_sum"] == c["mult_sum"] for c in checks)
    return ok, {"checks": checks}


def criterion_7_model_exactness():
    """Discrete derivative and Laplacian reproduce, at convergence order
    >= 1.9, their indicial families' action on exponential model 1-forms
    e^{lam r} (a0, b0): the families criteria 1-6 use."""
    cases = [(0.7, 1.0, 0.0), (1.3, 0.0, 1.0), (-0.4, 0.6, -1.1)]
    base = ChartGrid(0.0, 3.0, 129, 32)
    grids = [base, base.refine(2), base.refine(4)]
    actions = [
        (sym_derivative, indicial_family(sym_derivative_spec(1))),
        (sym_laplacian, indicial_family(sym_laplacian_spec(1))),
    ]
    orders = []
    sl = slice(2, -2)
    for lam, a0, b0 in cases:
        errs = []
        for g in grids:
            p = SymTensorField.sample(
                g, 1, lambda r, t: a0 * np.exp(lam * r), lambda r, t: b0 * np.exp(lam * r)
            )
            profile = np.exp(lam * g.r[sl])[:, None]
            err = 0.0
            for op, fam in actions:
                want = (fam(lam) @ (a0, b0)).real[:, None, None] * profile
                err = max(err, np.max(np.abs(op(p).comps[:, sl, :] - want)))
            errs.append(err)
        orders.append(min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])))
    worst = float(min(orders))
    return worst >= 1.9, {"min_order": worst, "orders": [float(o) for o in orders]}


def _projection_test_field(grid):
    sf = Scalar2D.bump(1.5, 0.4, 0.9, 0.22)
    return SymTensorField.sample(
        grid,
        2,
        lambda r, t: sf(r, t),
        lambda r, t: 0.4 * sf(r, t + 0.07),
        lambda r, t: -0.8 * sf(r - 0.1, t),
    )


def criterion_8_solenoidal_decomposition():
    """Decomposition exactness 1e-8, divergence residual converging at
    order >= 1.9 under refinement, projector idempotent to 1e-6."""
    grids = [
        ChartGrid(0.0, 3.0, 129, 64),
        ChartGrid(0.0, 3.0, 257, 128),
        ChartGrid(0.0, 3.0, 513, 256),
    ]
    divs = []
    for g in grids:
        f_s, u, info = solenoidal_project(_projection_test_field(g))
        divs.append(info["divergence_residual"])
    # the finest rung's split is the one re-projected below
    decomp = info["decomposition_residual"]
    order = float(min(np.log2(divs[0] / divs[1]), np.log2(divs[1] / divs[2])))
    f_s2, u2, _ = solenoidal_project(f_s, support_margin=0)
    idem = l2_norm(u2) / l2_norm(f_s)
    ok = decomp <= 1e-8 and order >= 1.9 and idem <= 1e-6
    return ok, {
        "decomposition_residual": decomp,
        "divergence_order": order,
        "divergence_residuals": divs,
        "idempotence": idem,
        "orthogonality": info["orthogonality"],
    }


# criterion 9 checks its forms on the first of criterion 10's classes
_N_FORMS = 10
_N_CLASSES = 50


def _xray_setup():
    surface = punctured_torus()
    classes = enumerate_hyperbolic_classes(surface, 6)
    grid = ChartGrid(-2.8, 0.5, 769, 384)
    return surface, classes, grid


def criterion_9_potential_annihilation():
    """X-ray of derivative tensors vanishes: grid pipeline below 1e-6 of
    the form's sup, closed-form route below 1e-8."""
    surface, classes, grid = _xray_setup()
    classes = classes[:_N_CLASSES]
    forms = [
        random_bump_one_form(seed, center=(-0.916, 0.0), r_width=0.45, t_width=0.14)
        for seed in range(_N_FORMS)
    ]
    rep_grid = potential_annihilation_suite(
        surface, forms, classes, tol=1e-7, path="grid", grid=grid
    )
    rep_sym = potential_annihilation_suite(
        surface, forms, classes, tol=1e-9, path="symbolic"
    )
    ok = (
        rep_grid["max_normalized_value"] <= 1e-6
        and rep_sym["max_normalized_value"] <= 1e-8
    )
    return ok, {
        "grid_max": rep_grid["max_normalized_value"],
        "symbolic_max": rep_sym["max_normalized_value"],
        "n_classes": len(classes),
        "n_forms": _N_FORMS,
    }


def criterion_10_xray_normalization():
    """The metric tensor integrates to exactly 1 on every enumerated
    class."""
    surface, classes, grid = _xray_setup()
    results = xray_suite(surface, SymTensorField.metric(grid), classes, tol=1e-10)
    worst = 0.0
    for res in results:
        worst = max(worst, abs(res.value - 1.0))
    return worst <= 1e-10, {"max_error": worst, "n_classes": len(classes)}


def criterion_11_fiber_inverse():
    """Left inverse of the gradient family is exact away from the root and
    its sensitivity grows like 1/|lam| toward it."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        lam = rng.uniform(0.5, 8.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        worst = max(worst, sphere_fibered_inverse_check(lam))
    slope, _ = inverse_conditioning_exponent()
    ok = worst <= 1e-10 and abs(slope + 1.0) <= 0.1
    return ok, {"max_residual": worst, "conditioning_slope": slope}


def criterion_12_littlewood_paley():
    """Partition of unity to 1e-12, off-diagonal block interaction decaying
    with fitted exponent >= 4, Hoelder/Zygmund ratio interval stable within
    10% under family doubling at s = 1/2."""
    fam = random_band_limited_family(50, 7, 48.0, 4096)
    total = sum(dyadic_multipliers(fam[0].frequencies(), max_block_index(fam[0]), DEFAULT_PSI))
    partition_err = float(np.max(np.abs(total - 1.0)))
    fitted, _ = interaction_decay_exponent(fam[0])
    rep_full = norm_equivalence_report(fam, 0.5, alt_psi=ALT_PSI)
    # the half family's interval, from the first 25 of the full family's rows
    half = np.array([row["ratio"] for row in rep_full["fields"][:25]])
    half_min, half_max = float(half.min()), float(half.max())
    stable = (
        rep_full["ratio_max"] <= half_max * 1.10 + 1e-12
        and rep_full["ratio_min"] >= half_min * 0.90 - 1e-12
    )
    ok = partition_err <= 1e-12 and fitted >= 4.0 and stable
    return ok, {
        "partition_error": partition_err,
        "interaction_exponent": fitted,
        "ratio_interval_half": [half_min, half_max],
        "ratio_interval_full": [rep_full["ratio_min"], rep_full["ratio_max"]],
        "cutoff_ratio_bounds": [
            rep_full["cutoff_ratio_min"],
            rep_full["cutoff_ratio_max"],
        ],
    }


CRITERIA = [
    ("1 indicial roots", criterion_1_indicial_roots),
    ("2 homomorphism", criterion_2_homomorphism),
    ("3 adjoint symmetry", criterion_3_adjoint_symmetry),
    ("4 mode-zero inversion", criterion_4_mode_zero_inversion),
    ("5 cross-root correction", criterion_5_cross_root_correction),
    ("6 index-jump consistency", criterion_6_index_jump_consistency),
    ("7 tensor model exactness", criterion_7_model_exactness),
    ("8 solenoidal decomposition", criterion_8_solenoidal_decomposition),
    ("9 x-ray annihilation", criterion_9_potential_annihilation),
    ("10 x-ray normalization", criterion_10_xray_normalization),
    ("11 fiber inverse", criterion_11_fiber_inverse),
    ("12 littlewood-paley", criterion_12_littlewood_paley),
]


def run_all():
    """Run the full battery, printing one line per criterion; returns a list
    of result dicts: the criterion, passed, its details and its wall seconds."""
    results = []
    for name, fn in CRITERIA:
        t0 = time.perf_counter()
        passed, details = fn()
        seconds = time.perf_counter() - t0
        results.append(dict(criterion=name, passed=bool(passed), details=details, seconds=seconds))
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")
    return results
