"""Geodesic X-ray transform on a cusped hyperbolic surface.

Closed geodesics are integrated by adaptive composite Gauss-Legendre
quadrature; each node is reduced to the Dirichlet fundamental domain, its
unit tangent pushed along the reducing deck map, and the tensor's pullback
evaluated there.  Each tensor type supplies ``pullback(r, theta, p_hat,
q_hat)``: grid fields by quintic interpolation, analytic fields in closed
form.  Values are normalized by the class length.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InvalidInputError, NumericFailureError
from .fields import AnalyticOneForm, AnalyticSymTensor
from .surface import reduce_points
from .tensorfield import SymTensorField, sym_derivative

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class XRayResult:
    """Length-normalized integral of a tensor over one closed geodesic."""

    class_word: str
    length: float
    value: float
    error_estimate: float
    nodes_used: int


class ArcSampler:
    """Caches reduced quadrature nodes along a closed geodesic.

    Level L splits [0, length] into panels of roughly unit hyperbolic
    length, halved L times, with 8-point Gauss-Legendre nodes per panel.
    """

    def __init__(self, surface, geodesic):
        self.surface = surface
        self.geodesic = geodesic
        self.base_panels = max(4, int(np.ceil(geodesic.length / 0.75)))
        self._cache = {}

    def quadrature(self, level):
        if level in self._cache:
            return self._cache[level]
        n_panels = self.base_panels * 2**level
        edges = np.linspace(0.0, self.geodesic.length, n_panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        ts = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        ws = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        z, v = self.geodesic.arc(ts)
        zred, mats = reduce_points(self.surface, z)
        c, d = mats[:, 1, 0], mats[:, 1, 1]
        vred = v / (c * z + d) ** 2
        u = vred / zred.imag
        frame = (
            np.log(zred.imag),
            zred.real % 1.0,
            u.imag,  # vertical-frame component
            u.real,  # slice-frame component
        )
        self._cache[level] = (ts, ws, frame)
        return self._cache[level]


class _Integrand:
    """Pullback samples (r, theta, p_hat, q_hat) -> values of one tensor.

    Built once per tensor and shared across classes: for a grid field the
    coverage guard's edge activity comes from a single radial profile.
    """

    def __init__(self, tensor):
        if isinstance(tensor, SymTensorField):
            prof = np.max(np.abs(tensor.comps), axis=(0, 2))
            floor = 1e-8 * max(prof.max(), 1e-300)
            self._lo_active = prof[:6].max() > floor
            self._hi_active = prof[-6:].max() > floor
        elif not isinstance(tensor, (AnalyticSymTensor, AnalyticOneForm)):
            raise InvalidInputError(f"unsupported tensor type {type(tensor).__name__}")
        self.tensor = tensor

    def __call__(self, r, th, p, q):
        tensor = self.tensor
        if isinstance(tensor, SymTensorField):
            grid = tensor.grid
            if self._lo_active and np.any(r < grid.r_min):
                raise CoverageError(
                    "geodesic exits the chart below the base height inside the "
                    "tensor support"
                )
            if self._hi_active and np.any(r > grid.r_max):
                raise CoverageError(
                    "geodesic exits the chart above the truncation inside the "
                    "tensor support"
                )
        return tensor.pullback(r, th, p, q)


def xray_eval(surface, tensor, geodesic, tol=1e-9, max_level=9, sampler=None, strict=True):
    """Normalized X-ray transform of a tensor over one closed geodesic.

    Refines the composite quadrature until two consecutive levels differ by
    at most tol/2; the reported error estimate is that difference.  Without
    ``strict``, an unconverged run returns the ``max_level`` value with the
    difference from the level below as its error estimate.  ``tensor`` may
    also be an integrand already built from one, as the suites pass it.
    """
    if tol <= 0:
        raise InvalidInputError("tolerance must be positive")
    if max_level < 1:
        raise InvalidInputError("max_level must be >= 1: the error estimate needs two levels")
    sampler = sampler or ArcSampler(surface, geodesic)
    integrand = tensor if isinstance(tensor, _Integrand) else _Integrand(tensor)
    prev = None
    for level in range(max_level + 1):
        ts, ws, frame = sampler.quadrature(level)
        vals = integrand(*frame)
        total = float(np.dot(ws, vals)) / geodesic.length
        if prev is not None:
            diff = abs(total - prev)
            if diff <= tol / 2.0:
                return XRayResult(geodesic.word, geodesic.length, total, diff, ts.size)
        prev = total
    if strict:
        raise NumericFailureError(
            f"quadrature did not reach tol={tol} on class {geodesic.word!r}",
            {"last_value": total, "nodes": ts.size},
        )
    return XRayResult(geodesic.word, geodesic.length, total, diff, ts.size)


def xray_suite(surface, tensor, geodesics, tol=1e-9, strict=True):
    """Evaluate one tensor across many classes (deterministic order)."""
    integrand = _Integrand(tensor)
    return [xray_eval(surface, integrand, geo, tol=tol, strict=strict) for geo in geodesics]


def potential_annihilation_suite(
    surface, one_forms, geodesics, tol=1e-9, path="symbolic", grid=None
):
    """X-ray of symmetrized derivatives of compactly supported 1-forms.

    The transform annihilates derivative tensors, so every value is a pure
    error measurement.  ``path="symbolic"`` differentiates the closed-form
    1-forms exactly (quadrature is the only error); ``path="grid"`` samples
    each form on the chart grid, differentiates spectrally, and evaluates by
    interpolation, exercising the full discrete pipeline.

    Returns a report with the worst normalized value over all forms and
    classes.
    """
    if not one_forms:
        raise InvalidInputError("need at least one 1-form")
    samplers = {g.word: ArcSampler(surface, g) for g in geodesics}
    per_form = []
    worst = 0.0
    for p in one_forms:
        if path == "symbolic":
            dp = p.sym_derivative()
        elif path == "grid":
            if grid is None:
                raise InvalidInputError("grid path needs a chart grid")
            dp = sym_derivative(p.sample(grid), method="spectral")
        else:
            raise InvalidInputError("path must be 'symbolic' or 'grid'")
        sup_p = _sup_norm_estimate(p, grid)
        integrand = _Integrand(dp)
        values = [
            xray_eval(surface, integrand, geo, tol=tol, sampler=samplers[geo.word], strict=True)
            for geo in geodesics
        ]
        m = max(abs(r.value) for r in values) / sup_p
        worst = max(worst, m)
        per_form.append(
            {
                "max_normalized_value": m,
                "sup_norm": sup_p,
                "classes": len(values),
            }
        )
    return {
        "path": path,
        "max_normalized_value": worst,
        "per_form": per_form,
        "n_classes": len(geodesics),
        "n_forms": len(one_forms),
    }


def _sup_norm_estimate(p, grid):
    if grid is not None:
        return max(p.sup_norm_estimate(grid), 1e-300)
    rr = np.linspace(-4.0, 3.0, 400)
    tt = np.linspace(0.0, 1.0, 160, endpoint=False)
    mesh_r, mesh_t = np.meshgrid(rr, tt, indexing="ij")
    comps = p.components(mesh_r, mesh_t)
    return max(float(np.max(np.abs(comps))), 1e-300)


def solenoidal_probe(surface, f_s, geodesics, tol=1e-8):
    """X-ray of a (numerically) solenoidal tensor across classes.

    Reports per-class values with error estimates and a detection
    statistic: the largest |value| relative to ten times its quadrature
    error.  A statistic above 1 flags a nonzero transform (evidence toward
    solenoidal injectivity); below 1 the run is inconclusive (finitely many
    classes can never certify injectivity) and, for inputs built as pure
    derivatives, consistent with the annihilation identity.
    """
    results = xray_suite(surface, f_s, geodesics, tol=tol, strict=False)
    stats = [
        abs(r.value) / (10.0 * max(r.error_estimate, tol)) for r in results
    ]
    best = int(np.argmax(stats))
    detected = stats[best] > 1.0
    return {
        "results": results,
        "detection_statistic": float(stats[best]),
        "detected_class": results[best].class_word if detected else None,
        "flag": "nonzero-detected" if detected else "inconclusive-potential-like",
    }
