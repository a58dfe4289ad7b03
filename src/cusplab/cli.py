"""Batch command-line front-end.

Every subcommand reads the filled config (an INI file's values over the
defaults in ``runio._KEYS``, or the defaults alone when no file is given),
writes its outputs under --out, and finishes with a manifest recording the
command, config digest, tool version, produced files and wall time.  Exit
codes: 0 success, 2 invalid input, 3 numeric failure, 64 usage errors.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import run_all
from .errors import InvalidInputError, NumericFailureError
from .fields import Scalar2D, random_bump_one_form
from .modezero import (
    ModeZeroField,
    apply_indicial,
    bump,
    fit_decay_rate,
    invert_on_line,
    kernel_elements,
    make_field,
    window_profile,
)
from .paley import (
    block_decay_exponent,
    interaction_decay_exponent,
    norm_equivalence_report,
    random_band_limited_family,
    zygmund_norm,
)
from .polymat import indicial_roots
from .residues import index_jump, root_report
from .runio import (
    build_chart_grid,
    build_operator,
    build_surface,
    load_config,
    load_tensor,
    save_tensor,
    write_csv,
    write_json,
    write_manifest,
)
from .surface import enumerate_hyperbolic_classes
from .tensorfield import SymTensorField, solenoidal_project
from .xray import potential_annihilation_suite, solenoidal_probe, xray_suite

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(64)


# ---------------------------------------------------------------------------
# subcommand bodies (each returns a list of written paths)
# ---------------------------------------------------------------------------


def cmd_indicial(cfg, out, args):
    fam = build_operator(cfg)
    payload = {
        "name": cfg["operator"]["name"],
        "shape": list(fam.shape),
        "degree": fam.degree,
        "coefficients": [c.real.tolist() for c in fam.coeffs],
        "gram_in": fam.gram_in.tolist(),
        "gram_out": fam.gram_out.tolist(),
    }
    return [write_json(out / "indicial.json", payload)]


def cmd_roots(cfg, out, args):
    tol = cfg["tolerances"]
    report = root_report(build_operator(cfg), (tol["window_lo"], tol["window_hi"]))
    return [write_json(out / "roots.json", report)]


def cmd_index_jump(cfg, out, args):
    a, b = cfg["tolerances"]["weight_from"], cfg["tolerances"]["weight_to"]
    if a is None or b is None:
        raise InvalidInputError("index-jump needs weight_from and weight_to")
    fam = build_operator(cfg)
    jump = index_jump(fam, a, b)
    crossed = [
        {"lambda": [r.lam.real, r.lam.imag], "multiplicity": r.multiplicity}
        for r in indicial_roots(fam, window=(min(a, b), max(a, b)))
        if min(a, b) < r.lam.real < max(a, b)
    ]
    payload = {"weight_from": a, "weight_to": b, "index_jump": jump, "roots_crossed": crossed}
    return [write_json(out / "index_jump.json", payload)]


def cmd_mode0_solve(cfg, out, args):
    fam = build_operator(cfg)
    if not fam.is_square:
        raise InvalidInputError("mode0-solve needs a square operator")
    rho = cfg["tolerances"]["weight"]
    ncomp = fam.shape[0]

    def rhs(r):
        b = bump(r / 4.0)
        return np.stack([b * 0.7**k for k in range(ncomp)], axis=1)

    f = make_field(rhs, cfg["grid"]["r_half"], cfg["grid"]["n"])
    u, info = invert_on_line(fam, f, rho)
    back = apply_indicial(fam, u)
    # u and back carry weight rho: compare with f's weight-rho representative
    want = f.with_weight(rho).samples
    resid = float(np.max(np.abs(back.samples - want)) / np.max(np.abs(want)))
    report = {
        "weight": rho,
        "roundtrip_residual": resid,
        "condition_max": info["condition_max"],
        "condition_median": info["condition_median"],
        "root_line_distance": info["root_line_distance"],
    }
    try:
        report["rate_right"] = fit_decay_rate(u, side="+")
        report["rate_left"] = fit_decay_rate(u, side="-")
    except InvalidInputError:
        report["rate_right"] = report["rate_left"] = None
    header = ["r"] + [f"c{k}_{p}" for k in range(ncomp) for p in ("re", "im")]
    # columns r, then re and im of each component
    parts = np.stack([u.samples.real, u.samples.imag], axis=2).reshape(len(u.grid), -1)
    rows = np.column_stack([u.grid, parts]).tolist()
    return [
        write_csv(out / "mode0_solution.csv", header, rows),
        write_json(out / "mode0_report.json", report),
    ]


def cmd_mode0_kernel(cfg, out, args):
    fam = build_operator(cfg)
    root = cfg["tolerances"]["root"]
    if root is None:
        raise InvalidInputError("mode0-kernel needs a root in [tolerances]")
    lam0 = complex(root, 0.0)
    els = kernel_elements(fam, lam0)
    # one row per (element, power, component): the top power, then the tail's
    rows = []
    for i, el in enumerate(els):
        for power, vec in ((el.k, el.coefficient_vector), *el.tail):
            for j, c in enumerate(vec):
                rows.append([i, el.lam.real, el.lam.imag, power, j, float(c.real), float(c.imag)])
    payload = {
        "root": [lam0.real, lam0.imag],
        "count": len(els),
        "powers": sorted(int(el.k) for el in els),
    }
    return [
        write_csv(
            out / "kernel_elements.csv",
            ["element", "lambda_re", "lambda_im", "power", "component", "re", "im"],
            rows,
        ),
        write_json(out / "kernel_report.json", payload),
    ]


def cmd_lp_norm(cfg, out, args):
    s = cfg["tolerances"]["s"]
    grid = cfg["grid"]
    fam = random_band_limited_family(16, args.seed, grid["r_half"], grid["n"])
    fld = fam[0]
    equivalence = norm_equivalence_report(fam, s)
    first = equivalence["fields"][0]
    value, block_norms = first["zygmund"], first["blocks"]
    exponent, points = interaction_decay_exponent(fld)
    const = ModeZeroField(fld.r0, fld.dr, window_profile(fld.grid)[:, None])
    _, const_blocks = zygmund_norm(const, 0.0)
    report = {
        "s": s,
        "zygmund_norm": value,
        "interaction_exponent": exponent,
        "constant_block_decay_exponent": block_decay_exponent(const_blocks),
        "equivalence": {k: v for k, v in equivalence.items() if k != "fields"},
    }
    rows = [[j, float(b)] for j, b in enumerate(block_norms)]
    return [
        write_csv(out / "lp_blocks.csv", ["j", "sup_norm"], rows),
        write_json(out / "lp_report.json", report),
    ]


def cmd_geodesics(cfg, out, args):
    geos = enumerate_hyperbolic_classes(build_surface(cfg), cfg["surface"]["max_word_len"])
    rows = [
        [
            g.word,
            float(g.matrix.trace),
            float(g.length),
            float(g.axis_endpoints[0]),
            float(g.axis_endpoints[1]),
        ]
        for g in geos
    ]
    return [
        write_csv(
            out / "geodesics.csv",
            ["word", "trace", "length", "axis_repelling", "axis_attracting"],
            rows,
        )
    ]


def cmd_xray(cfg, out, args):
    surface = build_surface(cfg)
    grid = build_chart_grid(cfg)
    sec = cfg["xray"]
    mode = sec["mode"]
    tol = cfg["tolerances"]["xray"]
    classes = enumerate_hyperbolic_classes(surface, cfg["surface"]["max_word_len"])
    classes = classes[: sec["class_cap"]]
    # potential and probe modes raise the tolerance to their floors
    tol = {"potential": max(tol, 1e-7), "probe": max(tol, 1e-6)}.get(mode, tol)
    summary = {"mode": mode, "n_classes": len(classes), "tolerance": tol}
    if mode == "metric":
        tensor = SymTensorField.metric(grid)
        results = xray_suite(surface, tensor, classes, tol=tol)
    elif mode == "tensor-file":
        if sec["tensor_file"] is None:
            raise InvalidInputError("[xray] tensor_file: mode tensor-file needs a tensor file")
        tensor = load_tensor(Path(sec["tensor_file"]))
        results = xray_suite(surface, tensor, classes, tol=tol, strict=False)
    elif mode == "potential":
        forms = [
            random_bump_one_form(
                args.seed + i, center=(-0.916, 0.0), r_width=0.45, t_width=0.14
            )
            for i in range(sec["forms"])
        ]
        rep = potential_annihilation_suite(
            surface, forms, classes, tol=tol, path="grid", grid=grid
        )
        results = rep.pop("results")[0]
        summary["annihilation"] = rep
    elif mode == "probe":
        phi = Scalar2D.bump(-1.68, -0.0833, 0.15, 0.05)
        f_raw = SymTensorField.sample(
            grid, 2, lambda r, t: 0.0 * r, phi, lambda r, t: 0.0 * r
        )
        f_s, _, info = solenoidal_project(f_raw)
        rep = solenoidal_probe(surface, f_s, classes, tol=tol)
        summary["projection"] = info
        summary["probe"] = {
            "flag": rep["flag"],
            "detection_statistic": rep["detection_statistic"],
            "detected_class": rep["detected_class"],
        }
        results = rep["results"]
    else:
        raise InvalidInputError(f"unknown xray mode {mode!r}")
    rows = [
        [r.class_word, float(r.length), float(r.value), float(r.error_estimate), r.nodes_used]
        for r in results
    ]
    return [
        write_csv(out / "xray.csv", ["word", "length", "value", "error", "nodes"], rows),
        write_json(out / "xray_summary.json", summary),
    ]


def cmd_decompose(cfg, out, args):
    grid = build_chart_grid(cfg)
    tensor_file = cfg["xray"]["tensor_file"]
    if tensor_file is not None:
        f = load_tensor(Path(tensor_file))
    else:
        mid = 0.5 * (grid.r_min + grid.r_max)
        sf = Scalar2D.bump(mid, 0.4, 0.3 * (grid.r_max - grid.r_min), 0.2)
        f = SymTensorField.sample(
            grid,
            2,
            lambda r, t: sf(r, t),
            lambda r, t: 0.4 * sf(r, t + 0.07),
            lambda r, t: -0.8 * sf(r, t),
        )
    f_s, u, info = solenoidal_project(f)
    paths = []
    for name, field in (("solenoidal_part", f_s), ("potential", u)):
        data, header = save_tensor(out / name, field)
        paths += [data, header]
    paths.append(write_json(out / "decompose_report.json", info))
    return paths


def cmd_suite(cfg, out, args):
    results = run_all()
    payload = {
        "all_passed": all(r["passed"] for r in results),
        "results": [
            {"criterion": r["criterion"], "passed": r["passed"]} for r in results
        ],
    }
    path = write_json(out / "suite_results.json", payload)
    if not payload["all_passed"]:
        raise NumericFailureError("acceptance suite reported failures")
    return [path]


_DISPATCH = {
    "indicial": cmd_indicial,
    "roots": cmd_roots,
    "index-jump": cmd_index_jump,
    "mode0-solve": cmd_mode0_solve,
    "mode0-kernel": cmd_mode0_kernel,
    "lp-norm": cmd_lp_norm,
    "geodesics": cmd_geodesics,
    "xray": cmd_xray,
    "decompose": cmd_decompose,
    "suite": cmd_suite,
}


def build_parser():
    parser = _Parser(prog="cusplab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=list(_DISPATCH))
    parser.add_argument("config", nargs="?", default=None, help="INI config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    parser = build_parser()
    # intermixed, so the config path may also follow --out or --seed
    args = parser.parse_intermixed_args(argv)
    out = Path(args.out)
    try:
        cfg = load_config(args.config)
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        paths = _DISPATCH[args.command](cfg, out, args)
        write_manifest(out, args.command, cfg, paths, t0)
        return 0
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        failure = {
            "error": type(exc).__name__,
            "message": str(exc),
            "diagnostics": exc.diagnostics,
        }
        path = write_json(out / "failure.json", failure)
        print(f"diagnostics written to {path}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
