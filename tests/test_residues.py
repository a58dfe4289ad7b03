from dataclasses import replace

import numpy as np
import pytest

from conftest import jordan_family, scalar_family
from cusplab.errors import InvalidInputError, NumericFailureError
from cusplab.operators import (
    divergence_spec,
    indicial_family,
    sym_derivative_spec,
    sym_laplacian_spec,
)
from cusplab import residues
from cusplab.polymat import IndicialFamily, indicial_roots
from cusplab.residues import (
    crossed_roots,
    index_jump,
    kernel_elements,
    laurent_coefficients,
    residue_rank,
    root_report,
)

LAM_PLUS_1 = 0.5 + np.sqrt(1.25)
LAM_MINUS_1 = 0.5 - np.sqrt(1.25)


def s_diag_t_family():
    # S diag(lam - 1/2, (lam - 1/2)(lam + 1)) T with fixed non-orthogonal S, T:
    # a double zero of the determinant at 1/2 carrying a simple pole
    s = np.array([[1.0, 0.4], [-0.3, 1.2]])
    t = np.array([[0.8, 0.5], [0.2, 1.1]])
    diag = np.stack([np.diag([-0.5, -0.5]), np.diag([1.0, 0.5]), np.diag([0.0, 1.0])])
    return IndicialFamily(np.einsum("ij,kjl,lm->kim", s, diag, t))


def root_entry(fam, lam0):
    """The ``root_report`` entry of the family's root at lam0."""
    (entry,) = [
        e
        for e in root_report(fam, (lam0 - 1.0, lam0 + 1.0))["roots"]
        if abs(complex(*e["lambda"]) - lam0) < 1e-6
    ]
    return entry


def test_simple_scalar_pole():
    fam = scalar_family(-0.7, 1.0)  # lam - 0.7
    rank, p = residue_rank(fam, 0.7)
    assert (rank, p) == (1, 1)
    res = laurent_coefficients(fam, 0.7, 1, 1e-2)[1]
    assert abs(res[0, 0] - 1.0) < 1e-12


def test_double_scalar_pole_and_profiles(annihilation_residual):
    fam = scalar_family(0.25, -1.0, 1.0)  # (lam - 0.5)^2
    rank, p = residue_rank(fam, 0.5)
    assert p == 2
    assert rank == 0  # the first Laurent coefficient vanishes
    assert root_entry(fam, 0.5)["projector_rank"] == 2
    elements = kernel_elements(fam, 0.5)
    powers = sorted(el.k for el in elements)
    assert powers == [0, 1]
    for el in elements:
        assert annihilation_residual(fam, 0.5, el.k, el.coefficient_vector, el.tail) <= 1e-8


def test_jordan_block_pole_versus_contour_oracle():
    fam = jordan_family(2, 0.3)
    # contour oracle: Laurent coefficients computed at two radii agree and
    # reveal a second-order pole with vanishing third coefficient
    l_small = laurent_coefficients(fam, 0.3, 3, radius=5e-3)
    l_large = laurent_coefficients(fam, 0.3, 3, radius=2e-2)
    for k in (1, 2, 3):
        assert np.allclose(l_small[k], l_large[k], atol=1e-10)
    assert np.linalg.norm(l_small[3]) < 1e-10
    assert np.linalg.norm(l_small[2]) > 0.5
    assert residue_rank(fam, 0.3)[1] == 2
    # analytic inverse: [[1/(lam-c), -1/(lam-c)^2], [0, 1/(lam-c)]]
    assert np.allclose(l_small[1], np.eye(2), atol=1e-10)
    assert np.allclose(l_small[2], [[0.0, -1.0], [0.0, 0.0]], atol=1e-10)
    # operator rank of the residue projector is 2 (kernel dimension of the
    # corresponding first-order system), not the naive per-power count 3
    assert root_entry(fam, 0.3)["projector_rank"] == 2


def test_laplacian_residues_d1():
    fam = indicial_family(sym_laplacian_spec(1))
    # at -1 only the dtheta block degenerates; analytic residue -2/3 there
    rank, p = residue_rank(fam, -1.0)
    assert (rank, p) == (1, 1)
    res = laurent_coefficients(fam, -1.0, 1, 1e-2)[1]
    assert abs(res[0, 0]) < 1e-10
    assert abs(res[1, 1] - (-2.0 / 3.0)) < 1e-10
    for lam in (2.0, LAM_PLUS_1, LAM_MINUS_1):
        rank, p = residue_rank(fam, lam)
        assert (rank, p) == (1, 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_derivative_residue_via_left_inverse(d):
    fam = indicial_family(sym_derivative_spec(d))
    rank, p = residue_rank(fam, -1.0)
    assert (rank, p) == (d, 1)
    elements = kernel_elements(fam, -1.0)
    assert len(elements) == d
    for el in elements:
        assert el.k == 0
        assert not el.tail
        # the range lives in the slice components of the 1-form
        assert abs(el.coefficient_vector[0]) < 1e-8


def test_residue_rank_rejects_non_root():
    fam = indicial_family(sym_laplacian_spec(1))
    with pytest.raises(InvalidInputError):
        residue_rank(fam, 0.3)


def test_crossed_roots_lie_strictly_between_the_lines():
    fam = indicial_family(sym_laplacian_spec(1))
    sign, roots = crossed_roots(fam, 2.5, -1.0)
    assert sign == -1 and type(sign) is int
    # the root at -1 sits on the line moved to: not crossed
    assert [r.lam.real for r in roots] == pytest.approx([LAM_MINUS_1, LAM_PLUS_1, 2.0])
    assert crossed_roots(fam, 0.0, 0.0) == (1, [])


def test_index_jump_empty_window_is_zero():
    fam = indicial_family(sym_laplacian_spec(1))
    assert index_jump(fam, 0.0, 1.0) == 0


def test_index_jump_crossing_single_roots():
    fam = indicial_family(sym_laplacian_spec(1))
    assert index_jump(fam, 0.0, 1.7) == 1  # crosses lam_1^+
    assert index_jump(fam, 0.0, 2.5) == 2  # crosses lam_1^+ and d+1
    assert index_jump(fam, -1.5, 2.5) == 4
    # antisymmetry and additivity
    assert index_jump(fam, 2.5, -1.5) == -4
    assert index_jump(fam, -1.5, 0.0) + index_jump(fam, 0.0, 2.5) == index_jump(
        fam, -1.5, 2.5
    )


def test_index_jump_derivative():
    fam = indicial_family(sym_derivative_spec(1))
    assert index_jump(fam, -1.5, 0.0) == 1


def test_index_jump_endpoint_on_root_rejected():
    fam = indicial_family(sym_laplacian_spec(1))
    with pytest.raises(InvalidInputError):
        index_jump(fam, -1.0, 0.5)


def test_root_report_shape():
    fam = indicial_family(sym_laplacian_spec(1))
    rep = root_report(fam, (-2.0, 3.0))
    assert len(rep["roots"]) == 4
    assert len(rep["singular_weights"]) == 4
    for entry in rep["roots"]:
        assert entry["residue_rank"] == 1
        assert entry["pole_order"] == 1


def test_divergence_times_derivative_jump_consistency():
    # index jumps of the composed operator match the Laplacian's
    famL = indicial_family(sym_laplacian_spec(1))
    famC = indicial_family(divergence_spec(1)).compose(
        indicial_family(sym_derivative_spec(1))
    )
    for a, b in [(-1.5, 0.0), (0.0, 1.7), (-1.5, 2.5)]:
        assert index_jump(famC, a, b) == index_jump(famL, a, b)


# (family, root, root multiplicity, pole order p, residue rank, projector
# rank), pinned to the adjugate route's pole orders
CONTOUR_CASES = [
    ("laplacian d=2", lambda: indicial_family(sym_laplacian_spec(2)), -1.0, 2, 1, 2, 2),
    ("laplacian d=2", lambda: indicial_family(sym_laplacian_spec(2)), 3.0, 2, 1, 2, 2),
    ("laplacian d=3", lambda: indicial_family(sym_laplacian_spec(3)), -1.0, 3, 1, 3, 3),
    ("laplacian d=3", lambda: indicial_family(sym_laplacian_spec(3)), 4.0, 3, 1, 3, 3),
    ("S diag T", s_diag_t_family, 0.5, 2, 1, 2, 2),
    ("jordan 3x3", lambda: jordan_family(3, 0.2), 0.2, 3, 3, 3, 3),
    ("derivative d=1", lambda: indicial_family(sym_derivative_spec(1)), -1.0, 1, 1, 1, 1),
    ("derivative d=2", lambda: indicial_family(sym_derivative_spec(2)), -1.0, 2, 1, 2, 2),
    ("derivative d=3", lambda: indicial_family(sym_derivative_spec(3)), -1.0, 3, 1, 3, 3),
]


@pytest.mark.parametrize(
    "make, lam0, mult, p, rank, prank",
    [case[1:] for case in CONTOUR_CASES],
    ids=[f"{case[0]} at {case[2]}" for case in CONTOUR_CASES],
)
def test_contour_pole_order_rank_and_projector_rank(
    make, lam0, mult, p, rank, prank, annihilation_residual
):
    fam = make()
    entry = root_entry(fam, lam0)
    assert entry["multiplicity"] == mult
    assert (entry["pole_order"], entry["residue_rank"], entry["projector_rank"]) == (p, rank, prank)
    # the same data through the caller's point, which names the root
    assert residue_rank(fam, lam0) == (rank, p)
    elements = kernel_elements(fam, lam0)
    assert len(elements) == prank
    for el in elements:
        vec = el.coefficient_vector
        assert annihilation_residual(fam, lam0, el.k, vec, el.tail) <= 1e-8
        # canonical phase: the largest top-power component is real, positive
        lead = vec[np.argmax(np.abs(vec))]
        assert lead.imag == 0.0 and lead.real > 0.0


OFF_ROOT_CASES = [
    ("derivative d=1", lambda: indicial_family(sym_derivative_spec(1)), 1),
    ("laplacian d=2", lambda: indicial_family(sym_laplacian_spec(2)), 2),
]


@pytest.mark.parametrize(
    "make, rank", [case[1:] for case in OFF_ROOT_CASES], ids=[case[0] for case in OFF_ROOT_CASES]
)
def test_point_near_a_root_reads_the_root_itself(make, rank):
    # -1 + 1e-12 names the simple pole at -1; a contour centred there
    # instead of at the root read a spurious A_-2 and pole order 2
    fam = make()
    assert residue_rank(fam, -1.0 + 1e-12) == (rank, 1)


@pytest.mark.parametrize(
    "make, rank", [case[1:] for case in OFF_ROOT_CASES], ids=[case[0] for case in OFF_ROOT_CASES]
)
def test_pole_order_does_not_hang_on_the_roots_last_bits(monkeypatch, make, rank):
    # the root at -1 as found up to 12 ulp either way: its own position
    # error leaks A_-1 into A_-2, which the floor must absorb
    fam = make()
    (root,) = [r for r in indicial_roots(fam) if abs(r.lam + 1.0) < 1e-6]
    for toward in (-2.0, 0.0):
        lam = -1.0
        for _ in range(12):
            lam = np.nextafter(lam, toward)
            off = replace(root, lam=complex(lam, 0.0))
            monkeypatch.setattr(residues, "indicial_roots", lambda fam: [off])
            assert residue_rank(fam, off.lam) == (rank, 1), off.lam


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_jordan_block_pole_order_is_block_size(k):
    # A_-j = (-N)^(j-1) for j = 1..k, so A_-1 = I: residue rank, pole order
    # and projector rank all equal the block size k
    fam = jordan_family(k, 0.2)
    assert [(r.lam, r.multiplicity) for r in indicial_roots(fam)] == [
        (pytest.approx(0.2, abs=1e-12), k)
    ]
    assert residue_rank(fam, 0.2) == (k, k)
    assert root_entry(fam, 0.2)["projector_rank"] == k


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_scalar_power_pole_has_residue_only_when_simple(k):
    # 1/(lam - 1/2)^k has the single coefficient A_-k = 1
    fam = scalar_family(*np.polynomial.polynomial.polypow([-0.5, 1.0], k))
    assert residue_rank(fam, 0.5) == (int(k == 1), k)
    assert root_entry(fam, 0.5)["projector_rank"] == k


def test_tall_derivative_contour_keeps_full_radius():
    # det(A^T A) has a 6-fold zero at -1 and its other zeros at +-i sqrt(3),
    # so nothing forces the contour below its 1e-2 cap
    fam = indicial_family(sym_derivative_spec(3))
    (root,) = indicial_roots(fam)
    assert (root.multiplicity, root.radius) == (3, 1e-2)


def test_close_roots_shrink_each_others_contour():
    # 0.02 apart: each contour keeps the other root three radii away
    fam = IndicialFamily(np.stack([np.diag([-0.5, -0.52]), np.eye(2)]))
    roots = indicial_roots(fam)
    assert [r.lam for r in roots] == [pytest.approx(0.5), pytest.approx(0.52)]
    assert [r.radius for r in roots] == [pytest.approx(0.02 / 3, rel=1e-12)] * 2


def test_index_jump_takes_one_root_search(determinant_calls):
    fam = indicial_family(sym_laplacian_spec(1))
    assert index_jump(fam, 0.0, 2.5) == 2
    assert len(determinant_calls) == 1


def test_root_report_reads_one_contour_per_root(monkeypatch, determinant_calls):
    fam = indicial_family(sym_laplacian_spec(2))
    calls = []
    original = residues.laurent_coefficients

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(residues, "laurent_coefficients", counted)
    rep = root_report(fam, (-2.0, 4.0))
    assert len(calls) == len(rep["roots"]) == 4
    assert [e["pole_order"] for e in rep["roots"]] == [1, 1, 1, 1]
    assert [e["projector_rank"] for e in rep["roots"]] == [2, 1, 1, 2]
    assert len(determinant_calls) == 1


def test_zero_of_denominator_without_principal_part_fails(monkeypatch):
    # a zero of the denominator is always a pole; Laurent data that says
    # otherwise is a quadrature failure, not pole order 0
    fam = jordan_family(3, 0.2)
    original = residues.laurent_coefficients

    def flattened(*args, **kwargs):
        return {k: 0.0 * a for k, a in original(*args, **kwargs).items()}

    monkeypatch.setattr(residues, "laurent_coefficients", flattened)
    with pytest.raises(NumericFailureError) as info:
        residue_rank(fam, 0.2)
    assert info.value.diagnostics["vanishing_order"] == 3
