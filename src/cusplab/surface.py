"""Cusped hyperbolic surfaces presented by Fuchsian groups.

Words over the generator alphabet use case for inversion: 'a' is the first
generator, 'A' its inverse.  Free homotopy classes of the (free) fundamental
group are cyclic words; hyperbolic classes carry a unique closed geodesic
whose length comes from the trace of the word matrix.
"""

import string
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, ReductionError
from .halfplane import BoundaryGeodesic, MobiusMap

def invert_word(word):
    return word[::-1].swapcase()


def is_reduced(word):
    return all(map(str.__ne__, word, word[1:].swapcase()))


def is_cyclically_reduced(word):
    if not is_reduced(word):
        return False
    return len(word) < 2 or word[0] != word[-1].swapcase()


# letters to code points 0, 1, 2, 3, ... in the order a < A < b < B < ...,
# so that translated words compare as their class words should
_LETTER_ORDER = {
    ord(ch): 2 * i + ch.isupper()
    for i, low in enumerate(string.ascii_lowercase)
    for ch in (low, low.upper())
}


def canonical_class_word(word):
    """Conjugacy-class representative: the smallest cyclic rotation among
    the word and its inverse (unoriented classes identify a loop with its
    reverse), ordering letters a < A < b < B < ..."""
    if not is_cyclically_reduced(word):
        raise InvalidInputError(f"word {word!r} is not cyclically reduced")
    pair = (word, invert_word(word))
    codes = [w.translate(_LETTER_ORDER) for w in pair]
    # keys[k * len(word) + i] is rotation i of pair[k]
    keys = [c[i:] + c[:i] for c in codes for i in range(len(c))]
    k, i = divmod(keys.index(min(keys)), len(word))
    return pair[k][i:] + pair[k][:i]


@dataclass(frozen=True)
class FuchsianSurface:
    """Finitely generated free Fuchsian group with one cusp at infinity."""

    generators: dict

    def __post_init__(self):
        if not self.generators:
            raise InvalidInputError("surface needs at least one generator")
        gens = {}
        for name, g in self.generators.items():
            if not (len(name) == 1 and name.islower()):
                raise InvalidInputError("generator names are single lowercase letters")
            gens[name] = g if isinstance(g, MobiusMap) else MobiusMap(g)
        object.__setattr__(self, "generators", gens)
        if not self._has_parabolic_word(max_len=4):
            raise InvalidInputError(
                "no parabolic word of length <= 4 (|tr| within 1e-12 of 2): not a cusped"
                " group, or generators given to fewer than 14 significant digits"
            )

    def _has_parabolic_word(self, max_len):
        for w in self.words(max_len):
            if self.word_matrix(w).classify() == "parabolic":
                return True
        return False

    @property
    def alphabet(self):
        letters = sorted(self.generators)
        return letters + [ch.upper() for ch in letters]

    def letter_matrix(self, ch):
        g = self.generators[ch.lower()]
        return g if ch.islower() else g.inverse()

    def word_matrix(self, word):
        m = MobiusMap.identity()
        for ch in word:
            m = m @ self.letter_matrix(ch)
        return m

    def words(self, max_len):
        """All freely reduced nonempty words up to the given length."""
        out = []
        def extend(prefix):
            if len(prefix) >= max_len:
                return
            for ch in self.alphabet:
                if prefix and prefix[-1] == ch.swapcase():
                    continue
                w = prefix + ch
                out.append(w)
                extend(w)
        extend("")
        return out

    @cached_property
    def reduction_moves(self):
        """Candidate deck moves for Dirichlet reduction, stacked as a
        read-only (moves, 2, 2) array: all reduced words of length <= 2 plus
        the commutator words (the cusp parabolic and its inverse for a
        once-punctured torus presentation)."""
        words = self.words(2)
        letters = sorted(self.generators)
        if len(letters) >= 2:
            a, b = letters[0], letters[1]
            comm = a + b + a.upper() + b.upper()
            words += [comm, invert_word(comm)]
        moves = np.stack([self.word_matrix(w).mat for w in words])
        moves.flags.writeable = False
        return moves


def punctured_torus():
    """Once-punctured torus group, normalized so the cusp parabolic is the
    horizontal translation by 1: the chart's cusp width.

    Built from the standard pair of trace-3 hyperbolic matrices whose
    commutator is parabolic, conjugated to put the cusp at infinity.
    """
    a_raw = np.array([[1.0, 1.0], [1.0, 2.0]])
    b_raw = np.array([[1.0, -1.0], [-1.0, 2.0]])
    A, B = MobiusMap(a_raw), MobiusMap(b_raw)
    comm = A @ B @ A.inverse() @ B.inverse()
    # the raw commutator fixes 0; send it to infinity, then rescale so the
    # induced translation has width 1
    inv0 = MobiusMap(np.array([[0.0, -1.0], [1.0, 0.0]]))
    k1 = (inv0 @ comm @ inv0.inverse()).mat
    shift = abs(k1[0, 1] / k1[0, 0])
    s = np.sqrt(1.0 / shift)
    scale = MobiusMap(np.array([[s, 0.0], [0.0, 1.0 / s]]))
    conj = scale @ inv0
    conj_inv = conj.inverse()
    gens = {
        "a": conj @ A @ conj_inv,
        "b": conj @ B @ conj_inv,
    }
    return FuchsianSurface(generators=gens)


# ---------------------------------------------------------------------------
# closed geodesics per hyperbolic class
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedGeodesic:
    """Closed geodesic of a hyperbolic free homotopy class, read off its word's matrix."""

    word: str
    matrix: MobiusMap

    def __post_init__(self):
        self.length, self.axis_endpoints  # evaluated now: a non-hyperbolic matrix raises here

    @cached_property
    def length(self):
        return self.matrix.translation_length()

    @cached_property
    def axis_endpoints(self):
        return self.matrix.fixed_points()  # (repelling, attracting)

    @cached_property
    def _axis(self):
        return BoundaryGeodesic(*self.axis_endpoints)

    def arc(self, t):
        """Position and unit tangent at arc-length parameter t in [0, length]."""
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.length + 1e-12):
            raise InvalidInputError("arc parameter outside [0, length]")
        return self._axis.point_and_tangent(t)


def enumerate_hyperbolic_classes(surface, max_word_len):
    """One closed geodesic per hyperbolic conjugacy class of cyclically
    reduced words up to the given length, deduplicated under cyclic rotation
    and inversion, sorted by (length, word)."""
    if max_word_len < 1:
        raise InvalidInputError("max_word_len must be >= 1")
    letters = {ch: surface.letter_matrix(ch) for ch in surface.alphabet}
    # each word's matrix from its prefix's, in word_matrix's product order
    matrices = {"": MobiusMap.identity()}

    def matrix(word):
        if word not in matrices:
            matrices[word] = matrix(word[:-1]) @ letters[word[-1]]
        return matrices[word]

    geodesics = []
    for word in surface.words(max_word_len):
        # each class is kept once, at the word that is its own canonical form
        if not is_cyclically_reduced(word) or canonical_class_word(word) != word:
            continue
        m = matrix(word)
        if m.classify() == "hyperbolic":
            geodesics.append(ClosedGeodesic(word, m))
    geodesics.sort(key=lambda g: (g.length, g.word))
    return geodesics


# ---------------------------------------------------------------------------
# Dirichlet reduction
# ---------------------------------------------------------------------------


_IMPROVE_RTOL = 1e-14
_MAX_ITER = 10000


def _cosh_dist_to_i(w):
    # cosh of the hyperbolic distance from w to i
    return 1.0 + (w.real * w.real + (w.imag - 1.0) ** 2) / (2.0 * w.imag)


def reduce_points(surface, zs):
    """Batch greedy reduction toward the Dirichlet domain centered at i.

    Repeatedly applies whichever of the surface's reduction moves decreases
    the hyperbolic distance to i the most (the first one on ties), and stops
    once the best move improves by less than a relative ``_IMPROVE_RTOL``.
    All points still moving are stepped together, in the operation order of
    a scalar loop over the points.  Returns (reduced points, deck matrices);
    raises ReductionError after ``_MAX_ITER`` steps.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if np.any(zs.imag <= 0):
        raise InvalidInputError("points must lie in the upper half-plane")
    moves = surface.reduction_moves
    zred = zs.copy()
    n = zred.shape[0]
    a, b = moves[:, 0, 0], moves[:, 0, 1]
    c, d = moves[:, 1, 0], moves[:, 1, 1]
    g00, g01 = np.ones(n), np.zeros(n)
    g10, g11 = np.zeros(n), np.ones(n)
    live = np.arange(n)
    for _ in range(_MAX_ITER):
        if live.size == 0:
            break
        w = zred[live][:, None]
        cand = (a * w + b) / (c * w + d)
        cost = _cosh_dist_to_i(cand)
        best = np.argmin(cost, axis=1)
        rows = np.arange(live.size)
        moved = cost[rows, best] < _cosh_dist_to_i(w[:, 0]) * (1.0 - _IMPROVE_RTOL)
        live, rows, m = live[moved], rows[moved], best[moved]
        zred[live] = cand[rows, m]
        am, bm, cm, dm = a[m], b[m], c[m], d[m]
        h00, h01, h10, h11 = g00[live], g01[live], g10[live], g11[live]
        g00[live] = am * h00 + bm * h10
        g01[live] = am * h01 + bm * h11
        g10[live] = cm * h00 + dm * h10
        g11[live] = cm * h01 + dm * h11
    # the points still live after the loop are exactly those that hit the cap
    if live.size:
        raise ReductionError(
            f"Dirichlet reduction hit the {_MAX_ITER}-step cap",
            diagnostics={"points": zs[live[:8]].tolist(), "count": int(live.size)},
        )
    mats = np.stack([g00, g01, g10, g11], axis=-1).reshape(n, 2, 2)
    return zred, mats
