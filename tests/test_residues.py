import numpy as np
import pytest

from cusplab.errors import InvalidInputError
from cusplab.operators import (
    divergence_spec,
    indicial_family,
    sym_derivative_spec,
    sym_laplacian_spec,
)
from cusplab.polymat import IndicialFamily
from cusplab.residues import (
    index_jump,
    laurent_coefficients,
    pole_order,
    projector_rank,
    residue_range_profiles,
    residue_rank,
    root_report,
)

LAM_PLUS_1 = 0.5 + np.sqrt(1.25)
LAM_MINUS_1 = 0.5 - np.sqrt(1.25)


def scalar_family(*coeffs):
    return IndicialFamily(np.array(coeffs, dtype=complex).reshape(-1, 1, 1))


def jordan_family(c):
    # [[lam - c, 1], [0, lam - c]]
    c0 = np.array([[-c, 1.0], [0.0, -c]])
    c1 = np.eye(2)
    return IndicialFamily(np.stack([c0, c1]).astype(complex))


def test_simple_scalar_pole():
    fam = scalar_family(-0.7, 1.0)  # lam - 0.7
    rank, p = residue_rank(fam, 0.7)
    assert (rank, p) == (1, 1)
    res = laurent_coefficients(fam, 0.7, 1)[0][1]
    assert abs(res[0, 0] - 1.0) < 1e-12


def test_double_scalar_pole_and_profiles():
    fam = scalar_family(0.25, -1.0, 1.0)  # (lam - 0.5)^2
    rank, p = residue_rank(fam, 0.5)
    assert p == 2
    assert rank == 0  # the first Laurent coefficient vanishes
    assert projector_rank(fam, 0.5) == 2
    profiles = residue_range_profiles(fam, 0.5)
    powers = sorted(k for k, _, _ in profiles)
    assert powers == [0, 1]


def test_jordan_block_pole_versus_contour_oracle():
    fam = jordan_family(0.3)
    # contour oracle: Laurent coefficients computed at two radii agree and
    # reveal a second-order pole with vanishing third coefficient
    l_small, _ = laurent_coefficients(fam, 0.3, 3, radius=5e-3)
    l_large, _ = laurent_coefficients(fam, 0.3, 3, radius=2e-2)
    for k in (1, 2, 3):
        assert np.allclose(l_small[k], l_large[k], atol=1e-10)
    assert np.linalg.norm(l_small[3]) < 1e-10
    assert np.linalg.norm(l_small[2]) > 0.5
    assert pole_order(fam, 0.3) == 2
    # analytic inverse: [[1/(lam-c), -1/(lam-c)^2], [0, 1/(lam-c)]]
    assert np.allclose(l_small[1], np.eye(2), atol=1e-10)
    assert np.allclose(l_small[2], [[0.0, -1.0], [0.0, 0.0]], atol=1e-10)
    # operator rank of the residue projector is 2 (kernel dimension of the
    # corresponding first-order system), not the naive per-power count 3
    assert projector_rank(fam, 0.3) == 2


def test_laplacian_residues_d1():
    fam = indicial_family(sym_laplacian_spec(1))
    # at -1 only the dtheta block degenerates; analytic residue -2/3 there
    rank, p = residue_rank(fam, -1.0)
    assert (rank, p) == (1, 1)
    res = laurent_coefficients(fam, -1.0, 1)[0][1]
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
    profiles = residue_range_profiles(fam, -1.0)
    assert len(profiles) == d
    for k, vec, tail in profiles:
        assert k == 0
        assert not tail
        # the range lives in the slice components of the 1-form
        assert abs(vec[0]) < 1e-8


def test_residue_rank_rejects_non_root():
    fam = indicial_family(sym_laplacian_spec(1))
    with pytest.raises(InvalidInputError):
        residue_rank(fam, 0.3)


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
