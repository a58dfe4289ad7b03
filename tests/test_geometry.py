import math
from collections import Counter

import numpy as np
import pytest

from cusplab.errors import InvalidInputError
from cusplab.halfplane import MobiusMap, hyperbolic_distance
from cusplab.runio import build_surface, load_config
from cusplab.surface import (
    ClosedGeodesic,
    canonical_class_word,
    enumerate_hyperbolic_classes,
    invert_word,
    punctured_torus,
    reduce_points,
)

RNG = np.random.default_rng(42)
TORUS = punctured_torus()


# ---------------------------------------------------------------------------
# Moebius map basics
# ---------------------------------------------------------------------------


def test_classification_examples():
    assert MobiusMap([[1, 1], [0, 1]]).classify() == "parabolic"
    assert MobiusMap([[2, 1], [1, 1]]).classify() == "hyperbolic"
    assert MobiusMap([[0, -1], [1, 0]]).classify() == "elliptic"
    assert MobiusMap([[1, 0], [0, 1]]).classify() == "identity"


def test_is_identity_holds_the_diagonal_to_its_tolerance():
    # the tolerance is 1e-9 on every entry, with no relative slack on the
    # unit diagonal, and -I is the same map as I
    near = MobiusMap(np.diag([1.0 + 5e-6, 1.0 / (1.0 + 5e-6)]))
    assert not near.is_identity()
    assert not MobiusMap(-near.mat).is_identity()
    assert near.classify() != "identity"
    assert not MobiusMap(np.diag([1.0 + 2e-9, 1.0 / (1.0 + 2e-9)])).is_identity()
    assert MobiusMap(-np.diag([1.0 + 5e-10, 1.0 / (1.0 + 5e-10)])).is_identity()
    assert MobiusMap(np.diag([1.0 + 1e-13, 1.0 / (1.0 + 1e-13)])).is_identity()


@pytest.mark.parametrize("delta", [5e-6, 3e-5])
def test_near_unit_diagonal_is_hyperbolic(delta):
    # |tr| - 2 = delta^2 / (1 + delta), far above the trace's roundoff
    assert MobiusMap(np.diag([1.0 + delta, 1.0 / (1.0 + delta)])).classify() == "hyperbolic"


def _is_peripheral(word):
    # conjugates of powers of the commutator abAB: the cyclically reduced
    # core is a power of one of its rotations or of its inverse's
    while len(word) > 1 and word[0] == word[-1].swapcase():
        word = word[1:-1]
    k, rest = divmod(len(word), 4)
    cores = {c[i:] + c[:i] for c in ("abAB", "baBA") for i in range(4)}
    return k > 0 and rest == 0 and any(word == c * k for c in cores)


def test_conjugates_of_commutator_powers_stay_parabolic():
    # every other word up to length 8 is hyperbolic: the class counts by
    # word length are pinned in test_enumeration_counts_hyperbolic_classes_by_word_length
    words = [w for w in TORUS.words(8) if _is_peripheral(w)]
    assert len(words) == 80
    assert all(TORUS.word_matrix(w).classify() == "parabolic" for w in words)


def _typed_generators_config(tmp_path, digits):
    rows = "; ".join(
        " ".join(format(x, f".{digits}g") for x in TORUS.generators[n].mat.ravel())
        for n in ("a", "b")
    )
    path = tmp_path / "surface.ini"
    path.write_text(f"[surface]\ngenerators = {rows}\n")
    return load_config(path)


@pytest.mark.parametrize("digits", [14, 15, 16])
def test_generator_rows_typed_to_14_digits_keep_the_cusp(tmp_path, digits):
    # every conjugate of a commutator power up to length 8 stays parabolic
    surf = build_surface(_typed_generators_config(tmp_path, digits))
    words = [w for w in surf.words(8) if _is_peripheral(w)]
    assert len(words) == 80
    assert all(surf.word_matrix(w).classify() == "parabolic" for w in words)


def test_generator_rows_typed_to_12_digits_name_the_precision(tmp_path):
    # the commutator's |tr| - 2 reads 2.4e-11, above the 1e-12 trace floor
    with pytest.raises(InvalidInputError, match="14 significant digits"):
        build_surface(_typed_generators_config(tmp_path, 12))


def test_generator_rows_typed_to_13_digits_are_ambiguous(tmp_path):
    # abAB reads |tr| - 2 = 2.4e-12, above its roundoff tolerance, while
    # other rotations of the commutator read parabolic
    with pytest.raises(InvalidInputError, match="ambiguous"):
        build_surface(_typed_generators_config(tmp_path, 13))


_C, _S = np.cos(2.2e-6), np.sin(2.2e-6)


@pytest.mark.parametrize(
    "mat",
    [np.diag([1.0 + 2.2e-6, 1.0 / (1.0 + 2.2e-6)]), [[_C, -_S], [_S, _C]]],
    ids=["hyperbolic-side", "elliptic-side"],
)
def test_trace_within_1e_11_of_parabolic_is_ambiguous(mat):
    # |tr| - 2 = +4.8e-12 and -4.8e-12: above the trace's roundoff, below 1e-11
    with pytest.raises(InvalidInputError, match="ambiguous"):
        MobiusMap(mat).classify()


def test_non_positive_determinant_rejected():
    with pytest.raises(InvalidInputError):
        MobiusMap([[1, 2], [2, 1]])  # det = -3


def test_determinant_renormalization():
    m = MobiusMap([[2, 0], [0, 2]])
    det = np.linalg.det(m.mat)
    assert abs(det - 1.0) <= 1e-12


def test_inverse_and_composition():
    m = MobiusMap([[2, 1], [1, 1]])
    z = 0.3 + 1.7j
    assert abs((m @ m.inverse()).apply(z) - z) < 1e-14
    n = MobiusMap([[1, -1], [1, 1]])
    assert abs((m @ n).apply(z) - m.apply(n.apply(z))) < 1e-14


def test_fixed_points_of_hyperbolic():
    m = MobiusMap([[2, 1], [1, 1]])
    rep, att = m.fixed_points()
    for p in (rep, att):
        assert abs(m.apply(p + 0j) - p) < 1e-10
    assert abs(m.derivative(att + 0j)) < 1.0
    assert abs(m.derivative(rep + 0j)) > 1.0


# ---------------------------------------------------------------------------
# punctured torus presentation
# ---------------------------------------------------------------------------


def test_punctured_torus_has_parabolic_commutator():
    a = TORUS.generators["a"]
    b = TORUS.generators["b"]
    comm = a @ b @ a.inverse() @ b.inverse()
    assert abs(abs(comm.trace) - 2.0) < 1e-12
    # normalized to the unit horizontal translation
    assert np.allclose(np.abs(comm.mat), [[1.0, 1.0], [0.0, 1.0]], atol=1e-9)


def test_generators_are_hyperbolic():
    for g in TORUS.generators.values():
        assert g.classify() == "hyperbolic"


def test_word_matrix_respects_case():
    w = TORUS.word_matrix("aA")
    assert w.is_identity()


# ---------------------------------------------------------------------------
# class enumeration
# ---------------------------------------------------------------------------


def test_length_one_classes_match_trace_formula():
    geos = enumerate_hyperbolic_classes(TORUS, 1)
    assert sorted(g.word for g in geos) == ["a", "b"]
    expected = 2.0 * np.arccosh(3.0 / 2.0)
    for g in geos:
        assert abs(g.length - expected) < 1e-12
        # independent oracle: flow the axis numerically between a point and
        # its image and integrate the path length
        t = np.linspace(0.0, g.length, 4001)
        pts = g.arc(t)[0]
        seg = hyperbolic_distance(pts[:-1], pts[1:])
        assert abs(np.sum(seg) - g.length) < 1e-6


def test_classes_sorted_and_deduplicated():
    geos = enumerate_hyperbolic_classes(TORUS, 3)
    lengths = [g.length for g in geos]
    assert lengths == sorted(lengths)
    words = {g.word for g in geos}
    assert len(words) == len(geos)
    for w in words:
        assert canonical_class_word(w) == w


def test_cyclic_rotation_and_inverse_give_single_class():
    w = "aab"
    rotations = [w, "aba", "baa", invert_word(w)]
    canon = {canonical_class_word(x) for x in rotations}
    assert len(canon) == 1


def test_conjugation_invariance_of_length():
    geos = enumerate_hyperbolic_classes(TORUS, 2)
    by_word = {g.word: g for g in geos}
    for word, g in by_word.items():
        for conj in ("a", "B", "ab"):
            m = TORUS.word_matrix(conj) @ g.matrix @ TORUS.word_matrix(invert_word(conj))
            assert abs(abs(m.trace) - abs(g.matrix.trace)) < 1e-9


def test_parabolic_class_excluded():
    # the commutator word is parabolic: not returned as a geodesic
    geos = enumerate_hyperbolic_classes(TORUS, 4)
    assert "abAB" not in {g.word for g in geos}
    with pytest.raises(InvalidInputError):
        ClosedGeodesic("abAB", TORUS.word_matrix("abAB"))


def test_enumeration_count_covers_fifty_classes_at_length_six():
    geos = enumerate_hyperbolic_classes(TORUS, 6)
    assert len(geos) >= 50


def test_enumeration_counts_hyperbolic_classes_by_word_length():
    # conjugacy classes of cyclically reduced words of length n in F_2:
    # N(n) = (1/n) sum_{d | n} phi(n/d) c(d), with c(d) = 3^d + 1 + (1 + (-1)^d)
    # cyclically reduced words of length d; no class is its own inverse, and
    # the commutator's class (length 4) is the cusp
    def phi(k):
        return sum(math.gcd(i, k) == 1 for i in range(1, k + 1))

    def classes(n):
        terms = (phi(n // d) * (3**d + 1 + (1 + (-1) ** d)) for d in range(1, n + 1) if n % d == 0)
        return sum(terms) // n

    want = [classes(n) // 2 - (n % 4 == 0) for n in range(1, 9)]
    assert want == [2, 4, 6, 12, 26, 66, 158, 417]
    lengths = Counter(len(g.word) for g in enumerate_hyperbolic_classes(TORUS, 8))
    assert [lengths[n] for n in range(1, 9)] == want


# ---------------------------------------------------------------------------
# geodesic arcs
# ---------------------------------------------------------------------------


def test_arc_endpoints_and_closedness():
    for g in enumerate_hyperbolic_classes(TORUS, 2):
        z0, v0 = g.arc(0.0)
        # the start point lies on the axis: the semicircle over its endpoints
        rep, att = g.axis_endpoints
        assert abs(abs(z0 - 0.5 * (rep + att)) - 0.5 * abs(att - rep)) < 1e-12
        z1, _ = g.arc(g.length)
        assert abs(g.matrix.apply(z0) - z1) < 1e-10


def test_arc_unit_speed():
    g = enumerate_hyperbolic_classes(TORUS, 1)[0]
    t = np.linspace(0, g.length, 257)
    z, v = g.arc(t)
    speed = np.abs(v) / z.imag
    assert np.max(np.abs(speed - 1.0)) < 1e-12


def test_arc_length_property_between_parameters():
    g = enumerate_hyperbolic_classes(TORUS, 2)[-1]
    t1, t2 = 0.3, 1.1
    z1 = complex(g.arc(t1)[0])
    z2 = complex(g.arc(t2)[0])
    assert abs(hyperbolic_distance(z1, z2) - (t2 - t1)) < 1e-9


def test_arc_against_runge_kutta_geodesic_oracle():
    # integrate the geodesic ODE x'' = 2 x' y'/y, y'' = (y'^2 - x'^2)/y
    # from the base point with the arc's initial tangent
    g = ClosedGeodesic("ab", TORUS.word_matrix("ab"))
    z0, v0 = g.arc(0.0)
    state = np.array([z0.real, z0.imag, v0.real, v0.imag], dtype=float)

    def rhs(s):
        x, y, vx, vy = s
        return np.array([vx, vy, 2 * vx * vy / y, (vy**2 - vx**2) / y])

    t_end = 0.5 * g.length
    n = 20000
    h = t_end / n
    for _ in range(n):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    z_mid = complex(g.arc(t_end)[0])
    assert abs(complex(state[0], state[1]) - z_mid) < 1e-9


def test_public_constructor_gives_the_same_arc():
    # arc needs only the public fields: the axis comes from the matrix
    g = enumerate_hyperbolic_classes(TORUS, 2)[-1]
    ts = np.linspace(0.0, g.length, 33)
    rebuilt = ClosedGeodesic(g.word, g.matrix)
    for got, want in zip(rebuilt.arc(ts), g.arc(ts)):
        assert np.array_equal(got, want)


def test_arc_rejects_out_of_range_parameter():
    g = enumerate_hyperbolic_classes(TORUS, 1)[0]
    with pytest.raises(InvalidInputError):
        g.arc(-0.5)
    with pytest.raises(InvalidInputError):
        g.arc(g.length + 0.5)


# ---------------------------------------------------------------------------
# Dirichlet reduction
# ---------------------------------------------------------------------------


def test_reduction_round_trip():
    zs = RNG.uniform(-3, 3, 100) + 1j * np.exp(RNG.uniform(np.log(0.05), np.log(5), 100))
    zred, mats = reduce_points(TORUS, zs)
    for z, zr, m in zip(zs, zred, mats):
        back = MobiusMap(m).inverse().apply(zr)
        assert abs(back - z) < 1e-12


def test_reduction_idempotent():
    z, _ = reduce_points(TORUS, 0.37 + 0.21j)
    z2, m2 = reduce_points(TORUS, z)
    assert abs(z2[0] - z[0]) < 1e-13
    assert MobiusMap(m2[0]).is_identity()


def test_reduction_invariant_under_deck_words():
    words = [w for w in TORUS.words(4)][:100]
    z = -0.23 + 0.61j
    zstar, _ = reduce_points(TORUS, z)
    for w in words:
        moved = TORUS.word_matrix(w).apply(z)
        zred, _ = reduce_points(TORUS, moved)
        assert abs(zred[0] - zstar[0]) < 1e-10


def test_reduction_by_cusp_parabolic():
    z = 0.2 + 0.9j
    zstar, _ = reduce_points(TORUS, z)
    moved = TORUS.word_matrix("abAB").apply(z)
    zred, _ = reduce_points(TORUS, moved)
    assert abs(zred[0] - zstar[0]) < 1e-12


def test_reduction_decreases_distance_to_center():
    zs = RNG.uniform(-2, 2, 50) + 1j * np.exp(RNG.uniform(np.log(0.05), np.log(3), 50))
    zred, _ = reduce_points(TORUS, zs)
    assert np.all(
        hyperbolic_distance(zred, 1j) <= hyperbolic_distance(zs, 1j) + 1e-12
    )


def test_empty_generitems_rejected():
    from cusplab.surface import FuchsianSurface

    with pytest.raises(InvalidInputError):
        FuchsianSurface(generators={})
