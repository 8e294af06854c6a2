import dataclasses
import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagmorse.errors import DimensionMismatch, UnsupportedFamily
from flagmorse.rootsys import (
    RootVector,
    add,
    build_root_system,
    inner,
    is_long,
    is_root,
    long_orbit_is_transitive,
    long_roots,
    precedes,
    reflect,
    w_pair_count,
    w_set,
)

from conftest import ALL_SYSTEMS

GOLDEN = pathlib.Path(__file__).parent / "golden"


def rv(*coords):
    """Root from unscaled ambient coordinates."""
    return RootVector(tuple(int(2 * Fraction(c)) for c in coords))


CLOSED_FORM_COUNTS = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
    "E": lambda r: {6: 72, 7: 126, 8: 240}[r],
}


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_root_counts_and_basic_invariants(family, rank):
    sys_ = build_root_system(family, rank)
    assert len(sys_.roots) == CLOSED_FORM_COUNTS[family](rank)
    positives = set(sys_.positives)
    negatives = {-r for r in positives}
    assert positives | negatives == set(sys_.roots)
    assert not positives & negatives
    # every positive root is a nonnegative integer combination of simples
    for r in sys_.positives:
        assert all(c >= 0 for c in sys_.expansions[r])
    # long roots have squared length exactly 2, and nothing is longer
    norms = {inner(sys_, r, r) for r in sys_.roots}
    assert max(norms) == 2
    # scaled coordinates are integers; integral before scaling outside E
    if family != "E":
        assert all(c % 2 == 0 for r in sys_.roots for c in r.coords)
    # closure under reflection through any root (exhaustive for small systems,
    # simple reflections only for the big ones)
    mirrors = sys_.roots if len(sys_.roots) <= 40 else sys_.simples
    for alpha in mirrors:
        for beta in sys_.roots:
            assert sys_.contains(reflect(sys_, beta, alpha))


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_root_index(family, rank):
    sys_ = build_root_system(family, rank)
    roots = sys_.roots
    n = len(roots)
    assert n == CLOSED_FORM_COUNTS[family](rank) == 2 * len(sys_.positives)
    assert sys_.ids == {r: i for i, r in enumerate(roots)}
    # neg is negation, and an involution
    assert [roots[j] for j in sys_.neg] == [-r for r in roots]
    assert np.array_equal(sys_.neg[sys_.neg], np.arange(n))
    # sums agree with addition and membership on every ordered pair:
    # the id of a root sum, -2 for zero and -1 for any other vector
    assert sys_.sums.shape == (n, n) and sys_.sums.dtype == np.int16
    sums = sys_.sums.tolist()
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            s = a + b
            assert sums[i][j] == sys_.ids.get(s, -1 if any(s.coords) else -2), (a, b)
    # every root is the sum of the simple roots over its expansion, whose
    # total is the root's height
    for i, r in enumerate(roots):
        coords = tuple(sum(n_l * s.coords[k] for n_l, s in zip(sys_.expansions[r], sys_.simples))
                       for k in range(sys_.ambient_dim))
        assert coords == r.coords
        assert sys_.heights[i] == sum(sys_.expansions[r]) == sys_.height(r)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_root_hash_is_the_dataclass_value(family, rank):
    # the cached hash keeps the dataclass value, so every set and dict of
    # roots iterates in the order it always had
    sys_ = build_root_system(family, rank)
    for r in sys_.roots:
        copy = RootVector(r.coords)
        assert hash(r) == hash(copy) == hash((r.coords,))
        assert r == copy and r is not copy and not r != copy
        assert r != -r and not r < copy and r <= copy
        assert (r < -r) == (r.coords < (-r).coords)
    assert RootVector((2, -2)).__eq__((2, -2)) is NotImplemented
    with pytest.raises(dataclasses.FrozenInstanceError):
        sys_.roots[0].coords = (0,) * sys_.ambient_dim


def test_unsupported_families():
    with pytest.raises(UnsupportedFamily):
        build_root_system("G", 2)
    with pytest.raises(UnsupportedFamily):
        build_root_system("F", 4)
    with pytest.raises(UnsupportedFamily):
        build_root_system("E", 5)
    with pytest.raises(UnsupportedFamily):
        build_root_system("C", 2)
    with pytest.raises(UnsupportedFamily):
        build_root_system("A", 9)


def test_specific_counts():
    assert len(build_root_system("A", 3).roots) == 12
    assert len(build_root_system("A", 3).positives) == 6
    b2 = build_root_system("B", 2)
    assert set(b2.roots) == {
        rv(1, 1), rv(1, -1), rv(-1, 1), rv(-1, -1),
        rv(1, 0), rv(-1, 0), rv(0, 1), rv(0, -1),
    }
    e8 = build_root_system("E", 8)
    integral = [r for r in e8.roots if all(c % 2 == 0 for c in r.coords)]
    spinor = [r for r in e8.roots if all(c % 2 == 1 for c in r.coords)]
    assert len(integral) == 112 and len(spinor) == 128


def test_inner_examples():
    a2 = build_root_system("A", 2)
    a1, a2_root = a2.simples
    assert inner(a2, a1, a1) == 2
    assert inner(a2, a1, a2_root) == -1
    b3 = build_root_system("B", 3)
    assert inner(b3, rv(1, 0, 0), rv(1, 0, 0)) == 1
    with pytest.raises(DimensionMismatch):
        inner(b3, rv(1, 0), rv(1, 0, 0))


def test_is_long_examples():
    a3 = build_root_system("A", 3)
    assert all(is_long(a3, r) for r in a3.roots)
    b3 = build_root_system("B", 3)
    assert is_long(b3, rv(1, -1, 0))
    assert not is_long(b3, rv(1, 0, 0))
    c3 = build_root_system("C", 3)
    assert is_long(c3, rv(2, 0, 0))
    assert not is_long(c3, rv(1, 1, 0))
    with pytest.raises(DimensionMismatch):
        is_long(b3, rv(1, 0))
    # the integer comparison agrees with the inner product on every root
    for family, rank in ALL_SYSTEMS:
        sys_ = build_root_system(family, rank)
        assert [is_long(sys_, r) for r in sys_.roots] == [inner(sys_, r, r) == 2
                                                          for r in sys_.roots]


def test_add_and_membership():
    a3 = build_root_system("A", 3)
    assert add(a3, rv(1, -1, 0, 0), rv(0, 1, -1, 0)) == rv(1, 0, -1, 0)
    assert add(a3, rv(1, -1, 0, 0), rv(0, 0, 1, -1)) is None
    alpha = rv(1, -1, 0, 0)
    assert add(a3, alpha, -alpha) is None
    assert is_root(a3, alpha)
    assert not is_root(a3, rv(2, -2, 0, 0))


def test_precedes_examples():
    a3 = build_root_system("A", 3)
    assert precedes(a3, rv(1, 0, -1, 0), rv(1, 0, 0, -1))
    assert not precedes(a3, rv(1, -1, 0, 0), rv(1, -1, 0, 0))
    assert not precedes(a3, rv(1, -1, 0, 0), rv(0, 0, 1, -1))


def test_reflect_examples():
    a2 = build_root_system("A", 2)
    a1, a2_root = a2.simples
    assert reflect(a2, a1, a1) == -a1
    assert reflect(a2, a2_root, a1) == a1 + a2_root


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_long_orbit_transitive(family, rank):
    assert long_orbit_is_transitive(build_root_system(family, rank))


def test_w_set_examples():
    for r in range(1, 9):
        ar = build_root_system("A", r)
        delta = ar.simples[0]
        assert len(w_set(ar, delta)) == 2 * r - 2
        assert w_pair_count(ar, delta) == r - 1
    for r in range(4, 9):
        dr = build_root_system("D", r)
        assert len(w_set(dr, dr.simples[0])) == 4 * r - 8
    e8 = build_root_system("E", 8)
    assert len(w_set(e8, rv(1, -1, 0, 0, 0, 0, 0, 0))) == 56


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_positive_inner_is_one_for_long(family, rank):
    # for long delta and any other root alpha, a positive product is exactly 1
    sys_ = build_root_system(family, rank)
    for delta in long_roots(sys_):
        for alpha in sys_.roots:
            if alpha == delta:
                continue
            val = inner(sys_, alpha, delta)
            if val > 0:
                assert val == 1, (family, rank, alpha, delta)


def test_w_count_constant_over_long_roots():
    for family, rank in [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("E", 6)]:
        sys_ = build_root_system(family, rank)
        counts = {len(w_set(sys_, d)) for d in long_roots(sys_)}
        assert len(counts) == 1, (family, rank, counts)


def test_json_golden():
    sys_ = build_root_system("B", 2)
    got = sys_.to_json_dict()
    expected = json.loads((GOLDEN / "roots_B2.json").read_text())
    assert got == expected


_A3 = build_root_system("A", 3)


@given(st.sampled_from(_A3.roots), st.sampled_from(_A3.roots))
@settings(max_examples=200)
def test_reflection_involution(beta, alpha):
    assert reflect(_A3, reflect(_A3, beta, alpha), alpha) == beta


@given(st.sampled_from(_A3.roots), st.sampled_from(_A3.roots))
@settings(max_examples=200)
def test_inner_symmetric_and_add_commutes(x, y):
    assert inner(_A3, x, y) == inner(_A3, y, x)
    assert add(_A3, x, y) == add(_A3, y, x)
