"""One fresh benchmark process: set up, run one workload unit, report.

    python3 cuspbench/worker.py WORKLOAD SEED UNIT TRACE SCRATCH_DIR

Imports cusplab from the ``src`` directory next to this benchmark, builds
the set-up state, prints ``ready``, runs the workload once on the inputs
drawn from (SEED, UNIT) between two timings of a fixed calibration job, and
prints one JSON line: wall time, calibration times, call and failure
counts, checks, an output digest, the BLAS thread count and, with TRACE = 1,
the span summary.
"""

import ctypes
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def blas_threads():
    """Thread count of each OpenBLAS loaded in this process, by library."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def calibration_s():
    """Time of a fixed job owned by the benchmark, in three kinds of work
    the workloads do: complex arithmetic in interpreted Python, FFTs along
    chart rows and sparse banded solves.  It moves with the machine's
    momentary speed and never with the program, and its arrays stay small
    so that it does not set the process's peak memory."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    rows = np.cos(np.arange(3 * 65 * 256, dtype=float)).reshape(3, 65, 256)
    n = 1058
    band = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.1), np.full(n - 1, -1.0)], [-1, 0, 1])
    band = band.tocsc().astype(complex)
    rhs = np.ones(n, dtype=complex)
    t0 = time.perf_counter()
    w, acc = 0.3 + 1.2j, 0.0
    for _ in range(60000):
        w = (0.9 * w + 0.1) / (0.05 * w + 1.0)
        acc += w.real * w.imag
    for _ in range(32):
        rows[0] += 1e-12 * np.fft.ifft(np.fft.fft(rows, axis=-1), axis=-1).real[1]
    for _ in range(40):
        spla.spsolve(band, rhs)
    return time.perf_counter() - t0


def main(argv):
    workload, seed, unit, trace, scratch = argv
    sys.path.insert(0, str(SRC))
    import cusplab.cli  # the CLI entry point, which imports every module

    if not Path(cusplab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"cusplab imported from {cusplab.__file__}, not from {SRC}")
    import numpy as np

    import workloads
    from spans import Tracer

    tracer = Tracer().install() if trace == "1" else None
    ops = workloads.Ops()
    workloads.capture_cli_errors(ops)
    Path(scratch).mkdir(parents=True, exist_ok=True)
    ctx = workloads.setup(workload, scratch)
    print("ready", flush=True)

    ctx.update(seed=int(seed), unit=int(unit))
    rng = np.random.default_rng([int(seed), int(unit)])
    cal_before = calibration_s()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            workloads.WORKLOADS[workload](ctx, rng, ops)
        else:
            with tracer.span("workload"):
                workloads.WORKLOADS[workload](ctx, rng, ops)
    except workloads.OpFailed:
        ops.skip("unit aborted by a failed call")
    wall = time.perf_counter() - t0
    cal_after = calibration_s()

    result = {
        "wall_s": wall,
        "calibration_s": [cal_before, cal_after],
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "checks": ops.checks,
        "digest": ops.digest,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = tracer.spans
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
