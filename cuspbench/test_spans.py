"""Tests of the benchmark's tracer and of BENCHMARK.json's metric lists.

    python3 -m pytest cuspbench/test_spans.py
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cusplab import modezero, paley, polymat, surface, tensorfield, xray  # noqa: E402
from cusplab.chart import ChartGrid  # noqa: E402
from cusplab.fields import Scalar2D  # noqa: E402
from cusplab.operators import indicial_family, sym_laplacian_spec  # noqa: E402

import run  # noqa: E402
from spans import Tracer  # noqa: E402

TORUS = surface.punctured_torus()
CLASSES = surface.enumerate_hyperbolic_classes(TORUS, 6)


def _tensor(grid):
    sf = Scalar2D.bump(-0.9, 0.02, 0.4, 0.12)
    return tensorfield.SymTensorField.sample(
        grid, 2, sf, lambda r, t: -0.6 * sf(r, t + 0.03), lambda r, t: 0.3 * sf(r + 0.05, t)
    )


def _calls():
    """Results of one call into each kernel the traced run times, through
    the module attributes the program itself looks up."""
    chart = ChartGrid(-2.8, 0.5, 129, 64)
    geo = [g for g in CLASSES if g.word == "aabAB"][0]
    res = xray.xray_eval(TORUS, _tensor(chart), geo, tol=1e-6)
    rng = np.random.default_rng(0)
    z = rng.uniform(-0.5, 0.5, 200) + 1j * rng.uniform(0.05, 2.0, 200)
    zred, mats = surface.reduce_points(TORUS, z)
    box = ChartGrid(0.0, 3.0, 65, 32)
    f_s, u, info = tensorfield.solenoidal_project(
        tensorfield.SymTensorField.sample(box, 2, *(Scalar2D.bump(1.5, 0.4, 0.9, 0.22),) * 3)
    )
    roots = modezero.indicial_roots(indicial_family(sym_laplacian_spec(2)))
    fld = modezero.make_field(lambda r: modezero.bump(r / 4.0), r_half=48.0, n=1024)
    return {
        "xray": (res.value, res.error_estimate, res.nodes_used),
        "reduce": (zred, mats),
        "project": (f_s.comps, u.comps, info["solve_residual"]),
        "roots": [(r.lam, r.multiplicity) for r in roots],
        "holder": paley.holder_norm(fld, 0.5),
    }


def _assert_identical(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _assert_identical(a[k], b[k])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_identical(x, y)
    else:
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_traced_calls_are_bit_identical():
    plain = _calls()
    with Tracer() as tracer:
        traced = _calls()
    _assert_identical(plain, traced)
    layers = tracer.summary()
    assert layers["xray.xray_eval"]["calls"] == 1
    assert layers["tensorfield.interpolate"]["points"] > 0
    assert layers["surface.reduce_points"]["points"] >= 200


def test_rebinds_every_lookup_site_and_restores():
    originals = (surface.reduce_points, xray.reduce_points, polymat.indicial_roots)
    assert xray.reduce_points is surface.reduce_points
    with Tracer():
        # modules that imported the name directly see the wrapper too
        assert xray.reduce_points is surface.reduce_points
        assert xray.reduce_points is not originals[0]
        assert modezero.indicial_roots is polymat.indicial_roots is not originals[2]
        assert tensorfield.SymTensorField.interpolate.__wrapped__ is not None
    assert (surface.reduce_points, xray.reduce_points, polymat.indicial_roots) == originals
    assert not hasattr(tensorfield.SymTensorField.interpolate, "__wrapped__")


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.05)
    layers = tracer.summary()
    outer, inner = layers["outer"], layers["inner"]
    assert outer["total_s"] >= inner["total_s"] >= 0.05
    assert abs(outer["self_s"] - (outer["total_s"] - inner["total_s"])) < 1e-12
    assert inner["self_s"] == inner["total_s"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {name: unit for name, _, _, unit, _ in run.PER_LAYER}
    reported["trace.overhead_s"] = "s"
    assert per_layer == reported
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    t = run.tail([float(i) for i in range(40)])
    assert t["value"] == 29.0 and sum(v > t["value"] for v in range(40)) == 10
