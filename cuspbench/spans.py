"""Span tracing of cusplab's public functions, installed from outside the
package.

``Tracer.install()`` replaces each traced function with a wrapper that
records a span (name, start, end, parent) and updates the function's
counters, then returns the wrapped function's own result unchanged.
Modules import names directly (``from .surface import reduce_points``), so
a function is rebound at every module attribute that holds it, not only in
its defining module; methods are patched on their class.  ``uninstall()``
puts every original back.

Self time of a span is its duration minus the durations of its direct
children: calls are nested and single-threaded, so children never overlap.
"""

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
import weakref

import numpy as np

# Work one interpolated point costs in the quintic (6-point) separable
# Lagrange kernel: two sets of six weights, each a product of five
# (subtract, divide, multiply) factors, then per component 36 row
# multiply-adds and 6 column multiply-adds.
_WEIGHT_FLOPS = 2 * 6 * 5 * 3
_STENCIL_FLOPS_PER_COMP = 2 * 36 + 2 * 6
# Bytes the kernel touches per point: two coordinates read, a 6x6 stencil
# read per component, one value written per component (float64).
_COORD_BYTES = 2 * 8
_STENCIL_BYTES_PER_COMP = 36 * 8 + 8


def _count_reduce_points(c, a, r):
    c["points"] += int(np.size(a["zs"]))


def _count_arc(c, a, r):
    c["points"] += int(np.size(a["t"]))


def _count_interpolate(c, a, r):
    field = a["self"]
    grid = field.grid
    x = (np.asarray(a["r_pts"], dtype=float) - grid.r_min) / grid.dr
    inside = int(np.count_nonzero((x >= -0.5) & (x <= grid.n_r - 0.5)))
    ncomp = field.comps.shape[0]
    c["points"] += inside
    c["flops_computed"] += inside * (_WEIGHT_FLOPS + _STENCIL_FLOPS_PER_COMP * ncomp)
    c["bytes_computed"] += inside * (_COORD_BYTES + _STENCIL_BYTES_PER_COMP * ncomp)


def _count_project(c, a, r):
    _, _, info = r
    c["modes"] += a["f"].grid.n_theta
    c["solve_residual_max"] = max(c["solve_residual_max"], info["solve_residual"])


def _count_xray_eval(c, a, r):
    c["nodes"] += r.nodes_used
    c["nodes_max"] = max(c["nodes_max"], r.nodes_used)
    # a value and error estimate that are both exactly 0 mean the geodesic
    # never met the integrand's support: the evaluation tested nothing
    if not (r.value == 0.0 and r.error_estimate == 0.0):
        c["useful"] += 1
    if not a["strict"] and r.error_estimate > a["tol"] / 2.0:
        c["unconverged"] += 1


def _count_quadrature(c, a, r):
    # distinct (sampler, level) pairs; a weak map, so tracing keeps no
    # sampler (and its node cache) alive
    seen = c.setdefault("_levels", weakref.WeakKeyDictionary())
    levels = seen.setdefault(a["self"], set())
    if a["level"] not in levels:
        levels.add(a["level"])
        c["distinct"] += 1


def _count_invert(c, a, r):
    _, info = r
    c["condition_max"] = max(c["condition_max"], info["condition_max"])


def _count_write_csv(c, a, r):
    c["bytes"] += os.path.getsize(r)


def _count_save_tensor(c, a, r):
    c["bytes"] += sum(os.path.getsize(p) for p in r)


# (span name, module, attribute path, counter update, counter names)
TARGETS = [
    ("surface.reduce_points", "surface", "reduce_points", _count_reduce_points, ("points",)),
    ("surface.ClosedGeodesic.arc", "surface", "ClosedGeodesic.arc", _count_arc, ("points",)),
    ("surface.enumerate_hyperbolic_classes", "surface", "enumerate_hyperbolic_classes", None, ()),
    (
        "tensorfield.interpolate",
        "tensorfield",
        "SymTensorField.interpolate",
        _count_interpolate,
        ("points", "flops_computed", "bytes_computed"),
    ),
    (
        "tensorfield.solenoidal_project",
        "tensorfield",
        "solenoidal_project",
        _count_project,
        ("modes", "solve_residual_max"),
    ),
    ("tensorfield.sym_derivative", "tensorfield", "sym_derivative", None, ()),
    ("tensorfield.divergence", "tensorfield", "divergence", None, ()),
    (
        "xray.xray_eval",
        "xray",
        "xray_eval",
        _count_xray_eval,
        ("nodes", "nodes_max", "useful", "unconverged"),
    ),
    (
        "xray.ArcSampler.quadrature",
        "xray",
        "ArcSampler.quadrature",
        _count_quadrature,
        ("distinct",),
    ),
    ("modezero.invert_on_line", "modezero", "invert_on_line", _count_invert, ("condition_max",)),
    ("modezero.apply_indicial", "modezero", "apply_indicial", None, ()),
    ("modezero.cross_root_correction", "modezero", "cross_root_correction", None, ()),
    ("modezero.fit_decay_rate", "modezero", "fit_decay_rate", None, ()),
    ("polymat.indicial_roots", "polymat", "indicial_roots", None, ()),
    ("polymat.IndicialFamily.determinant", "polymat", "IndicialFamily.determinant", None, ()),
    ("residues.laurent_coefficients", "residues", "laurent_coefficients", None, ()),
    ("residues.index_jump", "residues", "index_jump", None, ()),
    ("residues.residue_rank", "residues", "residue_rank", None, ()),
    ("paley.zygmund_norm", "paley", "zygmund_norm", None, ()),
    ("paley.holder_norm", "paley", "holder_norm", None, ()),
    ("paley.lp_block", "paley", "lp_block", None, ()),
    ("circlefiber.gradient_indicial_roots", "circlefiber", "gradient_indicial_roots", None, ()),
    ("cli.main", "cli", "main", None, ()),
    ("runio.write_csv", "runio", "write_csv", _count_write_csv, ("bytes",)),
    ("runio.save_tensor", "runio", "save_tensor", _count_save_tensor, ("bytes",)),
]


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counters = {}
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the caller's block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- installation ---------------------------------------------------------

    def install(self):
        owners = {t[1]: importlib.import_module(f"cusplab.{t[1]}") for t in TARGETS}
        modules = [
            m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "cusplab"
        ]
        for span_name, mod_name, attr, counter, counter_names in TARGETS:
            owner = owners[mod_name]
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self.counters[span_name] = {k: 0 for k in counter_names}
            wrapper = self._wrap(span_name, original, counter)
            if cls_path:
                self._rebind(owner, leaf, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _rebind(self, owner, key, original, wrapper):
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, counter):
        signature = inspect.signature(fn)
        counters = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(counters, bound.arguments, result)
            return result

        return wrapper

    # -- summaries ------------------------------------------------------------

    def summary(self):
        """Per span name: calls, total seconds, self seconds and the
        name's counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[i]
        for name, counts in self.counters.items():
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row.update({k: v for k, v in counts.items() if not k.startswith("_")})
        return out

