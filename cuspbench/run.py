"""cusplab benchmark entry point.

    python3 cuspbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/cusplab`` next to this
directory).  Each unit of work is one fresh interpreter (``worker.py``),
so every unit pays the cold caches a command-line user pays, and units run
one at a time until the next would end after S seconds.  The inputs of unit
i are drawn from (seed, i) only.

With ``--trace 0`` the last line reports the end-to-end metrics:
``wall_cal``, the median over units of the unit's wall time divided by the
time of a fixed calibration job run in the same process just before and
after it (on a shared host a core's throughput can swing by half over tens
of seconds, and the ratio cancels much of that); ``setup_s``, the median
time from a fresh interpreter to ready; and ``peak_rss_mb``, the median
peak resident memory of a unit's process.  The plain unit wall times
(median, the highest percentile with ten units beyond it, unit count) go
to the result file.

With ``--trace 1`` units run in pairs on the same inputs, untraced then
traced; the last line reports the per-layer metrics of the traced units
and ``trace.overhead_s``, and each pair's checked outputs must agree bit
for bit.  Everything else (per-unit records, failures with their
diagnostics, the environment) goes to ``cuspbench/out/``; failures are
also printed.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOADS = ("xray-annihilation", "xray-probe", "decompose", "indicial")
# a unit that runs this long is hung; the whole run must end within 180 s
UNIT_TIMEOUT_S = 120.0

END_TO_END = {"wall_cal": "cal", "setup_s": "s", "peak_rss_mb": "MB"}

# (metric, span name, field, unit, how units are combined)
PER_LAYER = [
    ("surface.reduce_points.calls", "surface.reduce_points", "calls", "count", "median"),
    ("surface.reduce_points.points", "surface.reduce_points", "points", "count", "median"),
    ("surface.reduce_points.self_s", "surface.reduce_points", "self_s", "s", "median"),
    ("surface.ClosedGeodesic.arc.points", "surface.ClosedGeodesic.arc", "points", "count", "median"),
    ("surface.ClosedGeodesic.arc.self_s", "surface.ClosedGeodesic.arc", "self_s", "s", "median"),
    (
        "surface.enumerate_hyperbolic_classes.self_s",
        "surface.enumerate_hyperbolic_classes",
        "self_s",
        "s",
        "median",
    ),
    ("tensorfield.interpolate.points", "tensorfield.interpolate", "points", "count", "median"),
    ("tensorfield.interpolate.self_s", "tensorfield.interpolate", "self_s", "s", "median"),
    (
        "tensorfield.interpolate.flops_computed",
        "tensorfield.interpolate",
        "flops_computed",
        "flop",
        "median",
    ),
    (
        "tensorfield.interpolate.bytes_computed",
        "tensorfield.interpolate",
        "bytes_computed",
        "B",
        "median",
    ),
    ("tensorfield.solenoidal_project.calls", "tensorfield.solenoidal_project", "calls", "count", "median"),
    ("tensorfield.solenoidal_project.modes", "tensorfield.solenoidal_project", "modes", "count", "median"),
    ("tensorfield.solenoidal_project.self_s", "tensorfield.solenoidal_project", "self_s", "s", "median"),
    (
        "tensorfield.solenoidal_project.solve_residual_max",
        "tensorfield.solenoidal_project",
        "solve_residual_max",
        "rel",
        "max",
    ),
    ("tensorfield.sym_derivative.self_s", "tensorfield.sym_derivative", "self_s", "s", "median"),
    ("tensorfield.divergence.self_s", "tensorfield.divergence", "self_s", "s", "median"),
    ("xray.xray_eval.calls", "xray.xray_eval", "calls", "count", "median"),
    ("xray.xray_eval.self_s", "xray.xray_eval", "self_s", "s", "median"),
    ("xray.xray_eval.nodes", "xray.xray_eval", "nodes", "count", "median"),
    ("xray.xray_eval.nodes_max", "xray.xray_eval", "nodes_max", "count", "max"),
    ("xray.xray_eval.useful_share", "xray.xray_eval", ("useful", "calls"), "ratio", "share"),
    ("xray.xray_eval.unconverged", "xray.xray_eval", "unconverged", "count", "median"),
    ("xray.ArcSampler.quadrature.calls", "xray.ArcSampler.quadrature", "calls", "count", "median"),
    (
        "xray.ArcSampler.quadrature.hit_share",
        "xray.ArcSampler.quadrature",
        ("distinct", "calls"),
        "ratio",
        "miss-share",
    ),
    ("xray.ArcSampler.quadrature.self_s", "xray.ArcSampler.quadrature", "self_s", "s", "median"),
    ("modezero.invert_on_line.self_s", "modezero.invert_on_line", "self_s", "s", "median"),
    ("modezero.invert_on_line.condition_max", "modezero.invert_on_line", "condition_max", "cond", "max"),
    ("modezero.apply_indicial.self_s", "modezero.apply_indicial", "self_s", "s", "median"),
    ("modezero.cross_root_correction.self_s", "modezero.cross_root_correction", "self_s", "s", "median"),
    ("modezero.fit_decay_rate.self_s", "modezero.fit_decay_rate", "self_s", "s", "median"),
    ("polymat.indicial_roots.calls", "polymat.indicial_roots", "calls", "count", "median"),
    ("polymat.indicial_roots.self_s", "polymat.indicial_roots", "self_s", "s", "median"),
    ("polymat.IndicialFamily.determinant.calls", "polymat.IndicialFamily.determinant", "calls", "count", "median"),
    ("polymat.IndicialFamily.determinant.self_s", "polymat.IndicialFamily.determinant", "self_s", "s", "median"),
    ("residues.laurent_coefficients.calls", "residues.laurent_coefficients", "calls", "count", "median"),
    ("residues.laurent_coefficients.self_s", "residues.laurent_coefficients", "self_s", "s", "median"),
    ("residues.index_jump.self_s", "residues.index_jump", "self_s", "s", "median"),
    ("residues.residue_rank.self_s", "residues.residue_rank", "self_s", "s", "median"),
    ("paley.zygmund_norm.self_s", "paley.zygmund_norm", "self_s", "s", "median"),
    ("paley.holder_norm.self_s", "paley.holder_norm", "self_s", "s", "median"),
    ("paley.lp_block.calls", "paley.lp_block", "calls", "count", "median"),
    (
        "circlefiber.gradient_indicial_roots.self_s",
        "circlefiber.gradient_indicial_roots",
        "self_s",
        "s",
        "median",
    ),
    ("cli.main.calls", "cli.main", "calls", "count", "median"),
    ("cli.main.self_s", "cli.main", "self_s", "s", "median"),
    ("runio.write_csv.bytes", "runio.write_csv", "bytes", "B", "median"),
    ("runio.write_csv.self_s", "runio.write_csv", "self_s", "s", "median"),
    ("runio.save_tensor.bytes", "runio.save_tensor", "bytes", "B", "median"),
    ("runio.save_tensor.self_s", "runio.save_tensor", "self_s", "s", "median"),
]


class WorkerError(RuntimeError):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def environment():
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu": cpu,
    }


def run_unit(workload, seed, unit, trace, scratch):
    """One fresh worker process; returns its record with set-up time and
    peak resident memory added."""
    threads = str(nproc())
    env = dict(
        os.environ,
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    cmd = [sys.executable, str(WORKER), workload, str(seed), str(unit), str(int(trace)), str(scratch)]
    stderr_path = scratch.with_suffix(".stderr")
    with open(stderr_path, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env, text=True)
        killer = threading.Timer(UNIT_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            proc.stdout.close()
            if proc.returncode is None:  # interrupted: leave no worker behind
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read()
    stderr_path.unlink()
    shutil.rmtree(scratch, ignore_errors=True)
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise WorkerError(
            f"{workload} unit {unit} (trace={int(trace)}) exited {proc.returncode}:\n{stderr}"
        )
    rec = json.loads(lines[-1])
    rec["setup_s"] = setup_s
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    rec["stderr"] = stderr
    return rec


def tail(values):
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}


def layer_metrics(units):
    out = {}
    for metric, span, field, unit, how in PER_LAYER:
        rows = [u["layers"].get(span, {}) for u in units]
        if how in ("share", "miss-share"):
            part = sum(r.get(field[0], 0) for r in rows)
            base = sum(r.get(field[1], 0) for r in rows)
            value = 0.0 if base == 0 else (part / base if how == "share" else 1.0 - part / base)
        elif how == "max":
            value = max(r.get(field, 0) for r in rows)
        else:
            value = statistics.median(r.get(field, 0) for r in rows)
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cusplab" / "__init__.py").is_file():
        sys.exit(f"no cusplab sources under {ROOT / 'src'}: run from a source checkout")

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    plain, traced = [], []
    start = time.perf_counter()
    unit = 0
    try:
        while True:
            scratch = OUT / f"work-{tag}-{unit}"
            plain.append(run_unit(args.workload, args.seed, unit, False, scratch))
            if args.trace:
                traced.append(run_unit(args.workload, args.seed, unit, True, scratch))
            unit += 1
            elapsed = time.perf_counter() - start
            if elapsed * (unit + 1) / unit > args.seconds:
                break
    except WorkerError as exc:
        sys.exit(str(exc))

    units = plain + traced
    checks = [c for u in units for c in u["checks"]]
    failures = [f for u in units for f in u["failures"]]
    mismatched = [i for i, (p, t) in enumerate(zip(plain, traced)) if p["digest"] != t["digest"]]
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    checks_failed = sum(not c["passed"] for c in checks) + len(mismatched)
    walls = [u["wall_s"] for u in plain]
    cals = [u["wall_s"] / statistics.mean(u["calibration_s"]) for u in plain]
    summary = {
        "wall_s": {"median": statistics.median(walls), "tail": tail(walls), "runs": len(walls)},
        "wall_cal": {"median": statistics.median(cals), "tail": tail(cals), "runs": len(cals)},
        "ops_failed_share": failed / attempted if attempted else 0.0,
        "checks_failed": checks_failed,
        "traced_outputs_mismatched": mismatched,
    }
    if args.trace:
        metrics = layer_metrics(traced)
        overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "wall_cal": statistics.median(cals),
            "setup_s": statistics.median(u["setup_s"] for u in plain),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": dict(environment(), blas_threads=plain[0]["blas_threads"]),
        "summary": summary,
        "metrics": metrics,
        "units": [{k: v for k, v in u.items() if k != "spans"} for u in units],
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(traced[0]["spans"]) + "\n")

    for f in failures:
        print("failure:", json.dumps(f))
    for c in checks:
        if not c["passed"]:
            print("check failed:", json.dumps(c))
    for i in mismatched:
        print(f"check failed: traced outputs of unit {i} differ from untraced")
    print(
        f"{args.workload}: {len(walls)} runs, wall_s median {summary['wall_s']['median']:.4f}, "
        f"wall_cal median {summary['wall_cal']['median']:.3f}, "
        f"ops_failed_share {summary['ops_failed_share']}, checks_failed {checks_failed}"
    )
    print(
        json.dumps(
            {
                "correct": checks_failed == 0 and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
