"""Acceptance battery: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion; the same code backs the ``cusplab suite`` subcommand.
"""

import gc
import weakref

import numpy as np
import pytest

from cusplab import circlefiber, xray
from cusplab.acceptance import (
    CRITERIA,
    criterion_1_indicial_roots,
    criterion_3_adjoint_symmetry,
    criterion_4_mode_zero_inversion,
    criterion_5_cross_root_correction,
    criterion_6_index_jump_consistency,
    criterion_10_xray_normalization,
)


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[c[0].replace(" ", "-") for c in CRITERIA])
def test_criterion(name, fn):
    passed, details = fn()
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {name}: {details}"
    print(line)
    assert passed, line


@pytest.mark.parametrize(
    "fn, calls",
    [
        (criterion_3_adjoint_symmetry, 6),
        (criterion_4_mode_zero_inversion, 1),
        (criterion_5_cross_root_correction, 1),
        (criterion_6_index_jump_consistency, 2),
    ],
    ids=["criterion-3", "criterion-4", "criterion-5", "criterion-6"],
)
def test_criterion_takes_each_familys_roots_once(determinant_calls, fn, calls):
    # criterion 3: one determinant per family and adjoint for d = 1..3;
    # criterion 4: both line inversions share the family's roots;
    # criterion 5: one root search serves both line inversions and the
    # crossed root's principal part; criterion 6: index jumps and residue
    # ranks of the Laplacian and the derivative take their family's roots
    assert fn()[0]
    assert len(determinant_calls) == calls


def test_criterion_1_fails_when_the_gradient_kernel_is_not_the_constants(monkeypatch):
    # without the rotation pairs (i, j) of the generators L_ij the derivative
    # form is 0 and every block is kernel; the gradient's root is the literal
    # 0 either way
    monkeypatch.setattr(circlefiber, "combinations", lambda iterable, r: iter(()))
    passed, details = criterion_1_indicial_roots()
    assert not passed
    assert details == {"reason": "gradient kernel is not the constants at d=1"}


def test_criterion_10_keeps_no_quadrature_nodes(monkeypatch):
    # each geodesic keeps its reduced nodes in its ArcSampler; a cached
    # set of criteria 9 and 10's classes held 21 MB of them for the rest of
    # the process
    made = []
    make = xray.ArcSampler.of.__func__

    def recording(cls, surface, geodesic):
        sampler = make(cls, surface, geodesic)
        made.append(weakref.ref(sampler))
        return sampler

    monkeypatch.setattr(xray.ArcSampler, "of", classmethod(recording))
    assert criterion_10_xray_normalization()[0]
    gc.collect()
    assert made and not [ref for ref in made if ref() is not None]
