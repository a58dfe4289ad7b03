"""Acceptance battery: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion; the same code backs the ``cusplab suite`` subcommand.
"""

import pytest

from cusplab.acceptance import (
    CRITERIA,
    criterion_3_adjoint_symmetry,
    criterion_5_cross_root_correction,
)


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[c[0].replace(" ", "-") for c in CRITERIA])
def test_criterion(name, fn):
    passed, details = fn()
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {name}: {details}"
    print(line)
    assert passed, line


@pytest.mark.parametrize(
    "fn, calls",
    [(criterion_3_adjoint_symmetry, 6), (criterion_5_cross_root_correction, 1)],
    ids=["criterion-3", "criterion-5"],
)
def test_criterion_takes_each_familys_roots_once(determinant_calls, fn, calls):
    # criterion 3: one determinant per family and adjoint for d = 1..3;
    # criterion 5: one root search serves both line inversions and the
    # crossed root's principal part
    assert fn()[0]
    assert len(determinant_calls) == calls
