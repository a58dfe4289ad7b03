"""Randomized invariants on words, maps and norms."""

import importlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cusplab.halfplane import MobiusMap, hyperbolic_distance
from cusplab.modezero import ModeZeroField, line_grid
from cusplab.paley import zygmund_norm
from cusplab.surface import (
    canonical_class_word,
    invert_word,
    is_cyclically_reduced,
    punctured_torus,
)

TORUS = punctured_torus()

letters = st.sampled_from("abAB")


def _cyclic_words(min_size=1, max_size=6):
    return (
        st.lists(letters, min_size=min_size, max_size=max_size)
        .map("".join)
        .filter(is_cyclically_reduced)
    )


@given(_cyclic_words())
@settings(max_examples=200, deadline=None)
def test_canonical_word_idempotent_and_rotation_invariant(word):
    canon = canonical_class_word(word)
    assert canonical_class_word(canon) == canon
    for i in range(len(word)):
        rot = word[i:] + word[:i]
        assert canonical_class_word(rot) == canon
    assert canonical_class_word(invert_word(word)) == canon


@given(_cyclic_words(max_size=5))
@settings(max_examples=100, deadline=None)
def test_trace_is_conjugation_invariant(word):
    m = TORUS.word_matrix(word)
    for conj in ("a", "bA"):
        g = TORUS.word_matrix(conj)
        c = g @ m @ g.inverse()
        assert abs(abs(c.trace) - abs(m.trace)) < 1e-9 * max(1.0, abs(m.trace))


@given(
    st.floats(-3, 3),
    st.floats(0.05, 5.0),
    st.floats(-3, 3),
    st.floats(0.05, 5.0),
)
@settings(max_examples=100, deadline=None)
def test_mobius_maps_preserve_distance(x1, y1, x2, y2):
    z, w = complex(x1, y1), complex(x2, y2)
    m = TORUS.word_matrix("ab")
    d0 = hyperbolic_distance(z, w)
    d1 = hyperbolic_distance(m.apply(z), m.apply(w))
    assert abs(d0 - d1) <= 1e-9 * max(1.0, d0)


@given(st.floats(0.05, 0.95), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_zygmund_norm_scaling_property(s, seed):
    rng = np.random.default_rng(seed)
    r0, dr = line_grid(12.0, 256)
    r = r0 + dr * np.arange(256)
    u = np.cos(rng.uniform(0.5, 5.0) * r) * np.exp(-((r / 6.0) ** 2))
    fld = ModeZeroField(r0, dr, u[:, None])
    c = float(rng.uniform(0.1, 10.0))
    a, _ = zygmund_norm(fld, s)
    b, _ = zygmund_norm(ModeZeroField(r0, dr, (c * u)[:, None]), s)
    assert abs(b - c * a) <= 1e-10 * max(1.0, b)


def test_hypothesis_failure_reporter_imports_under_the_session_filters(monkeypatch):
    # Hypothesis imports its patch writer (and with it libcst) only to report
    # a failing example; a warning that import raises under the session's
    # "error" filter aborts the whole run with INTERNALERROR instead
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("libcst is not installed, so Hypothesis writes no patches")
    for name in list(sys.modules):
        if name.split(".")[0] == "libcst" or name == "hypothesis.extra._patching":
            monkeypatch.delitem(sys.modules, name)
    importlib.import_module("hypothesis.extra._patching")
