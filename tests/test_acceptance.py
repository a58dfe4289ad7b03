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
from cusplab.polymat import IndicialFamily


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[c[0].replace(" ", "-") for c in CRITERIA])
def test_criterion(name, fn):
    passed, details = fn()
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {name}: {details}"
    print(line)
    assert passed, line


@pytest.mark.parametrize(
    "fn, calls",
    [(criterion_3_adjoint_symmetry, 6), (criterion_5_cross_root_correction, 4)],
    ids=["criterion-3", "criterion-5"],
)
def test_criterion_takes_each_familys_roots_once(monkeypatch, fn, calls):
    # criterion 3: one determinant per family and adjoint for d = 1..3;
    # criterion 5: two line inversions, the crossed-root search and one
    # principal part
    counted = []
    original = IndicialFamily.determinant

    def determinant(self):
        counted.append(self)
        return original(self)

    monkeypatch.setattr(IndicialFamily, "determinant", determinant)
    assert fn()[0]
    assert len(counted) == calls
