"""Geodesic X-ray transform on a cusped hyperbolic surface.

Closed geodesics are integrated by adaptive composite Gauss-Legendre
quadrature; each node is reduced to the Dirichlet fundamental domain, its
unit tangent pushed along the reducing deck map, and the tensor's pullback
evaluated there.  The reduced nodes depend only on the class and the
surface, so each geodesic keeps one ``ArcSampler`` per surface and every
transform of that class (grid, closed-form, metric) reads the same nodes.
Each tensor type supplies ``pullback(r, theta, p_hat, q_hat)``: grid
fields by quintic interpolation behind their coverage guard, analytic
fields in closed form.  Values are normalized by the class length.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericFailureError
from .fields import AnalyticOneForm, AnalyticSymTensor
from .surface import reduce_points
from .tensorfield import SymTensorField, sym_derivative

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
# the deepest refinement level xray_eval tries
_MAX_LEVEL = 9


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
    length, halved L times, with 8-point Gauss-Legendre nodes per panel; a
    level keeps the weights and the reduced chart frame a pullback reads.
    ``ArcSampler.of`` gives the geodesic's one sampler on a surface, so a
    level is reduced once per (surface, geodesic) object and its nodes live
    as long as that geodesic.
    """

    def __init__(self, surface, geodesic):
        self.surface = surface
        self.geodesic = geodesic
        self.base_panels = max(4, int(np.ceil(geodesic.length / 0.75)))
        self._cache = {}

    @classmethod
    def of(cls, surface, geodesic):
        """The sampler kept with ``geodesic`` for ``surface``, made on first
        use.  The samplers sit in the geodesic's own attribute dict, as a
        cached property's value would, so they live and die with that object;
        each is keyed by the surface's id and holds the surface, so the id
        cannot pass to another surface while the entry lives."""
        samplers = vars(geodesic).setdefault("_arc_samplers", {})
        if id(surface) not in samplers:
            samplers[id(surface)] = cls(surface, geodesic)
        return samplers[id(surface)]

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
        self._cache[level] = (ws, frame)
        return self._cache[level]


def xray_eval(surface, tensor, geodesic, tol, strict=True):
    """Normalized X-ray transform of a tensor over one closed geodesic.

    Refines the composite quadrature, on the nodes the geodesic keeps for
    this surface (``ArcSampler.of``), until two consecutive levels differ by
    at most tol/2; the reported error estimate is that difference.  Without
    ``strict``, an unconverged run returns the ``_MAX_LEVEL`` value with the
    difference from the level below as its error estimate.
    """
    if not 0 < tol < np.inf:
        raise InvalidInputError(f"tolerance must be positive and finite, got {tol}")
    if not isinstance(tensor, (SymTensorField, AnalyticSymTensor, AnalyticOneForm)):
        raise InvalidInputError(f"unsupported tensor type {type(tensor).__name__}")
    sampler = ArcSampler.of(surface, geodesic)
    prev = None
    for level in range(_MAX_LEVEL + 1):
        ws, frame = sampler.quadrature(level)
        vals = tensor.pullback(*frame)
        total = float(np.dot(ws, vals)) / geodesic.length
        if prev is not None:
            diff = abs(total - prev)
            if diff <= tol / 2.0:
                return XRayResult(geodesic.word, geodesic.length, total, diff, ws.size)
        prev = total
    if strict:
        raise NumericFailureError(
            f"quadrature did not reach tol={tol} on class {geodesic.word!r}",
            {"last_value": total, "nodes": ws.size},
        )
    return XRayResult(geodesic.word, geodesic.length, total, diff, ws.size)


def xray_suite(surface, tensor, geodesics, tol, strict=True):
    """Evaluate one tensor across one or more classes (deterministic order)."""
    if not geodesics:
        raise InvalidInputError("need at least one closed geodesic")
    return [xray_eval(surface, tensor, geo, tol=tol, strict=strict) for geo in geodesics]


def potential_annihilation_suite(surface, one_forms, geodesics, tol, path, grid=None):
    """X-ray of symmetrized derivatives of compactly supported 1-forms.

    The transform annihilates derivative tensors, so every value is a pure
    error measurement.  ``path="symbolic"`` differentiates the closed-form
    1-forms exactly (quadrature is the only error); ``path="grid"`` samples
    each form on the chart grid, differentiates spectrally, and evaluates by
    interpolation, exercising the full discrete pipeline.

    Returns a report with the worst normalized value over all forms and
    classes, and under ``"results"`` each form's list of ``XRayResult``.
    """
    if not one_forms or not geodesics:
        raise InvalidInputError("need at least one 1-form and one closed geodesic")
    per_form, results = [], []
    for p in one_forms:
        if path == "symbolic":
            dp = p.sym_derivative()
            sup_p = _sup_norm_estimate(p)
        elif path == "grid":
            if grid is None:
                raise InvalidInputError("grid path needs a chart grid")
            sampled = p.sample(grid)
            dp = sym_derivative(sampled, method="spectral")
            sup_p = max(sampled.sup_norm(), 1e-300)
            del sampled  # held through the X-ray loop, it would raise the memory peak
        else:
            raise InvalidInputError("path must be 'symbolic' or 'grid'")
        values = xray_suite(surface, dp, geodesics, tol=tol)
        del dp  # held through the next form's sampling and D, likewise
        m = max(abs(r.value) for r in values) / sup_p
        results.append(values)
        per_form.append({"max_normalized_value": m, "sup_norm": sup_p, "classes": len(values)})
    return {
        "path": path,
        "max_normalized_value": max(f["max_normalized_value"] for f in per_form),
        "per_form": per_form,
        "n_classes": len(geodesics),
        "n_forms": len(one_forms),
        "results": results,
    }


def _sup_norm_estimate(p):
    """Sup of the closed-form components on a 400 x 160 mesh of the chart,
    evaluated on its axes."""
    r = np.linspace(-4.0, 3.0, 400)[:, None]
    t = np.linspace(0.0, 1.0, 160, endpoint=False)[None, :]
    return max(float(np.max(np.abs(p.a(r, t)))), float(np.max(np.abs(p.b(r, t)))), 1e-300)


def solenoidal_probe(surface, f_s, geodesics, tol):
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
