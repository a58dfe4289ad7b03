"""Cusped hyperbolic surfaces presented by Fuchsian groups.

Words over the generator alphabet use case for inversion: 'a' is the first
generator, 'A' its inverse.  Free homotopy classes of the (free) fundamental
group are cyclic words; hyperbolic classes carry a unique closed geodesic
whose length comes from the trace of the word matrix.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import InvalidInputError, ReductionError
from .halfplane import BoundaryGeodesic, MobiusMap

_CENTER = 1j  # Dirichlet center


def _invert_letter(ch):
    return ch.lower() if ch.isupper() else ch.upper()


def invert_word(word):
    return "".join(_invert_letter(ch) for ch in reversed(word))


def is_reduced(word):
    return all(word[i] != _invert_letter(word[i + 1]) for i in range(len(word) - 1))


def is_cyclically_reduced(word):
    if not is_reduced(word):
        return False
    return len(word) < 2 or word[0] != _invert_letter(word[-1])


def _letter_rank(ch):
    return 2 * (ord(ch.lower()) - ord("a")) + (0 if ch.islower() else 1)


def canonical_class_word(word):
    """Conjugacy-class representative: the smallest cyclic rotation among
    the word and its inverse (unoriented classes identify a loop with its
    reverse), ordering letters a < A < b < B < ..."""
    if not is_cyclically_reduced(word):
        raise InvalidInputError(f"word {word!r} is not cyclically reduced")
    candidates = []
    for w in (word, invert_word(word)):
        candidates.extend(w[i:] + w[:i] for i in range(len(w)))
    return min(candidates, key=lambda w: [_letter_rank(c) for c in w])


@dataclass(frozen=True)
class FuchsianSurface:
    """Finitely generated free Fuchsian group with one cusp at infinity."""

    generators: dict
    cusp_width: float = 1.0

    def __post_init__(self):
        if not self.generators:
            raise InvalidInputError("surface needs at least one generator")
        gens = {}
        for name, g in self.generators.items():
            if not (len(name) == 1 and name.islower()):
                raise InvalidInputError("generator names are single lowercase letters")
            gens[name] = g if isinstance(g, MobiusMap) else MobiusMap(g)
        object.__setattr__(self, "generators", gens)
        if self.cusp_width <= 0:
            raise InvalidInputError("cusp width must be positive")
        if not self._has_parabolic_word(max_len=4):
            raise InvalidInputError("no parabolic word of length <= 4: not a cusped group")

    def _has_parabolic_word(self, max_len):
        for w in self.words(max_len):
            m = self.word_matrix(w)
            if not m.is_identity() and abs(abs(m.trace) - 2.0) < 1e-9:
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
                if prefix and prefix[-1] == _invert_letter(ch):
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


def punctured_torus(width=1.0):
    """Once-punctured torus group, normalized so the cusp parabolic is the
    horizontal translation by ``width`` and the slice has covolume width.

    Built from the standard pair of trace-3 hyperbolic matrices whose
    commutator is parabolic, conjugated to put the cusp at infinity.
    """
    a_raw = np.array([[1.0, 1.0], [1.0, 2.0]])
    b_raw = np.array([[1.0, -1.0], [-1.0, 2.0]])
    A, B = MobiusMap(a_raw), MobiusMap(b_raw)
    comm = A @ B @ A.inverse() @ B.inverse()
    # the raw commutator fixes 0; send it to infinity, then rescale so the
    # induced translation has the requested width
    inv0 = MobiusMap(np.array([[0.0, -1.0], [1.0, 0.0]]))
    k1 = (inv0 @ comm @ inv0.inverse()).mat
    shift = abs(k1[0, 1] / k1[0, 0])
    s = np.sqrt(width / shift)
    scale = MobiusMap(np.array([[s, 0.0], [0.0, 1.0 / s]]))
    conj = scale @ inv0
    conj_inv = conj.inverse()
    gens = {
        "a": conj @ A @ conj_inv,
        "b": conj @ B @ conj_inv,
    }
    return FuchsianSurface(generators=gens, cusp_width=width)


# ---------------------------------------------------------------------------
# closed geodesics per hyperbolic class
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedGeodesic:
    """The geodesic representative of a hyperbolic free homotopy class."""

    word: str
    matrix: MobiusMap
    length: float
    axis_endpoints: tuple
    base_point: complex
    _axis: BoundaryGeodesic = field(repr=False, default=None)

    @classmethod
    def from_word(cls, surface, word):
        m = surface.word_matrix(word)
        if m.classify() != "hyperbolic":
            raise InvalidInputError(f"word {word!r} is not hyperbolic")
        rep, att = m.fixed_points()
        axis = BoundaryGeodesic(rep, att)
        return cls(
            word=word,
            matrix=m,
            length=m.translation_length(),
            axis_endpoints=(rep, att),
            base_point=complex(axis.point(0.0)),
            _axis=axis,
        )

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
    seen = set()
    geodesics = []
    for word in surface.words(max_word_len):
        if not is_cyclically_reduced(word):
            continue
        canon = canonical_class_word(word)
        if canon != word or canon in seen:
            continue
        seen.add(canon)
        m = surface.word_matrix(canon)
        if m.classify() != "hyperbolic":
            continue
        geodesics.append(ClosedGeodesic.from_word(surface, canon))
    geodesics.sort(key=lambda g: (g.length, g.word))
    return geodesics


# ---------------------------------------------------------------------------
# Dirichlet reduction
# ---------------------------------------------------------------------------


def reduce_points(surface, zs, max_iter=10000):
    """Batch greedy reduction toward the Dirichlet domain centered at i.

    Returns (reduced points, deck matrices); raises ReductionError when the
    iteration cap is hit.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if np.any(zs.imag <= 0):
        raise InvalidInputError("points must lie in the upper half-plane")
    zred, mats, iters = _kernels.reduce_points(zs, surface.reduction_moves, max_iter)
    if np.any(iters < 0):
        bad = zs[iters < 0]
        raise ReductionError(
            f"Dirichlet reduction hit the {max_iter}-step cap",
            diagnostics={"points": bad[:8].tolist(), "count": int(np.sum(iters < 0))},
        )
    return zred, mats
