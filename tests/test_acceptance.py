"""Acceptance battery: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion; the same code backs the ``cusplab suite`` subcommand.
"""

import numpy as np
import pytest

from cusplab import circlefiber
from cusplab.acceptance import (
    CRITERIA,
    criterion_1_indicial_roots,
    criterion_3_adjoint_symmetry,
    criterion_4_mode_zero_inversion,
    criterion_5_cross_root_correction,
    criterion_6_index_jump_consistency,
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
    # without the ambient-gradient pairing every block of degree >= 1 gains
    # kernel directions; the gradient's root is the literal 0 either way.
    # The block's integral table holds the Gram pairs first and the lowered
    # pairs of the ambient pairing after them: zero the latter
    integrals = circlefiber._sphere_integrals

    def gram_only(alpha):
        out = integrals(alpha)
        out[1:] = 0.0
        return out

    monkeypatch.setattr(circlefiber, "_sphere_integrals", gram_only)
    passed, details = criterion_1_indicial_roots()
    assert not passed
    assert details == {"reason": "gradient kernel is not the constants at d=1"}
