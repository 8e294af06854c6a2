import itertools

import numpy as np
import pytest

from flagmorse.errors import NotInTangent
from flagmorse.parabolic import PaintedDiagram, ParabolicSplit, borel_split, split, verify_m_closure
from flagmorse.index_comb import _e_vector
from flagmorse.rootsys import RootVector, build_root_system

from conftest import END_NODE_FRAMES, SMALL_SYSTEMS
from test_rootsys import rv


def all_subsets(rank):
    for size in range(rank + 1):
        yield from itertools.combinations(range(rank), size)


def test_borel_and_full_painting():
    sys_ = build_root_system("B", 3)
    sp = borel_split(sys_)
    assert sp.v == len(sys_.positives)
    assert not any(sp.in_k(r) for r in sys_.roots)
    full = split(sys_, PaintedDiagram.of(sys_, range(3)))
    assert full.v == 0
    assert all(full.in_k(r) for r in sys_.roots)
    assert len(full.to_json_dict()["delta_k"]) == len(sys_.roots)


def test_projective_space_example():
    sys_ = build_root_system("A", 3)
    sp = split(sys_, PaintedDiagram.of(sys_, (1, 2)))
    assert sp.v == 3
    assert sp.delta_m_pos == {rv(1, -1, 0, 0), rv(1, 0, -1, 0), rv(1, 0, 0, -1)}


def test_painted_validation_and_render():
    sys_ = build_root_system("A", 3)
    with pytest.raises(ValueError):
        PaintedDiagram.of(sys_, (0, 0))
    with pytest.raises(ValueError):
        PaintedDiagram.of(sys_, (7,))
    assert PaintedDiagram.of(sys_, (0, 2)).render() == "xox"
    assert PaintedDiagram.of(sys_, ()).render() == "ooo"


def _check_split_invariants(sys_, sp: ParabolicSplit, pair_sample=None):
    # the painted span is exactly the support-membership set
    delta_k = set()
    for r, row in zip(sys_.roots, sys_.expansion_rows.tolist()):
        in_span = all(c == 0 for i, c in enumerate(row) if i not in sp.sigma_k)
        assert sp.in_k(r) == in_span
        if in_span:
            delta_k.add(r)
    # disjoint partition of the positives
    k_pos = {r for r in delta_k if sys_.is_positive(r)}
    assert sp.delta_m_pos | k_pos == set(sys_.positives)
    assert not sp.delta_m_pos & k_pos
    if pair_sample is None:
        # closed under addition inside the root set, exhaustively
        for a in delta_k:
            for b in delta_k:
                s = a + b
                if sys_.contains(s):
                    assert sp.in_k(s)
        assert verify_m_closure(sp) == []
    else:
        rng, n_pairs = pair_sample
        k_sorted = sorted(delta_k)
        m_sorted = sp.m_pos_sorted
        for _ in range(n_pairs):
            if k_sorted:
                a = k_sorted[rng.integers(len(k_sorted))]
                b = k_sorted[rng.integers(len(k_sorted))]
                s = a + b
                if sys_.contains(s):
                    assert sp.in_k(s)
            if m_sorted:
                a = m_sorted[rng.integers(len(m_sorted))]
                b = m_sorted[rng.integers(len(m_sorted))]
                s = a + b
                if sys_.contains(s):
                    assert not sp.in_k(s)


@pytest.mark.parametrize("family,rank", [(f, r) for f, r in SMALL_SYSTEMS])
def test_split_invariants_exhaustive_small(family, rank):
    sys_ = build_root_system(family, rank)
    for subset in all_subsets(rank):
        _check_split_invariants(sys_, split(sys_, PaintedDiagram.of(sys_, subset)))


@pytest.mark.parametrize("family,rank", [("A", 5), ("B", 5), ("C", 5), ("D", 5)])
def test_split_invariants_exhaustive_rank5(family, rank):
    sys_ = build_root_system(family, rank)
    for subset in all_subsets(rank):
        _check_split_invariants(sys_, split(sys_, PaintedDiagram.of(sys_, subset)))


@pytest.mark.parametrize("family,rank", [("A", 6), ("A", 7), ("A", 8),
                                         ("B", 6), ("B", 7), ("B", 8),
                                         ("C", 6), ("C", 7), ("C", 8),
                                         ("D", 6), ("D", 7), ("D", 8),
                                         ("E", 6), ("E", 7), ("E", 8)])
def test_split_invariants_sampled_large(family, rank):
    sys_ = build_root_system(family, rank)
    rng = np.random.default_rng(abs(hash((family, rank))) % 2**32)
    # a rank-6 diagram has only 64 paintings; exhaust in that case
    target = min(100, 2 ** rank)
    seen = set()
    while len(seen) < target:
        mask = rng.integers(0, 2, rank)
        seen.add(tuple(np.nonzero(mask)[0]))
    for subset in sorted(seen):
        sp = split(sys_, PaintedDiagram.of(sys_, subset))
        _check_split_invariants(sys_, sp, pair_sample=(rng, 40))


def _comprehension_split(sys_, sigma):
    """The span test root by root over the expansion tuples, with the
    painted span and its positive half as root sets."""
    in_k = [all(c == 0 for i, c in enumerate(row) if i not in sigma)
            for row in sys_.expansion_rows.tolist()]
    delta_k = frozenset(r for r, k in zip(sys_.roots, in_k) if k)
    k_pos = frozenset(r for r in delta_k if sys_.is_positive(r))
    m_pos = frozenset(r for r in sys_.positives if r not in delta_k)
    return {
        "part": np.where(in_k, 0, np.sign(sys_.heights)).astype(np.int8).tolist(),
        "delta_k": delta_k,
        "delta_k_pos": k_pos,
        "delta_m_pos": m_pos,
        "m_pos_sorted": tuple(sorted(m_pos, key=lambda r: (sys_.height(r), r.coords))),
        "k_pos_sorted": tuple(sorted(k_pos, key=lambda r: (sys_.height(r), r.coords))),
    }


@pytest.mark.parametrize("family,rank", SMALL_SYSTEMS + [("E", 8)])
def test_split_matches_expansion_comprehension(family, rank):
    # every painting, the full one included: 256 on E8
    sys_ = build_root_system(family, rank)
    for subset in all_subsets(rank):
        sp = split(sys_, PaintedDiagram.of(sys_, subset))
        want = _comprehension_split(sys_, frozenset(subset))
        got = {name: getattr(sp, name) for name in ("delta_m_pos", "m_pos_sorted", "k_pos_sorted")}
        got["part"] = sp.part.tolist()
        got["delta_k"] = frozenset(r for r in sys_.roots if sp.in_k(r))
        got["delta_k_pos"] = frozenset(sp.k_pos_sorted)
        assert sp.part.dtype == np.int8
        assert got == want, subset
        assert sp.to_json_dict()["delta_k"] == [list(r.coords) for r in sorted(want["delta_k"])]


def _non_roots(sys_):
    """Vectors of the system's ambient space that are not roots: zero, twice
    each simple root, and the basis vectors 2 e_i (short roots of B only)."""
    zero = RootVector((0,) * sys_.ambient_dim)
    out = [zero, *(s.scale(2) for s in sys_.simples)]
    if sys_.family in "BC":
        out += [_e_vector(sys_, i) for i in range(sys_.rank)]
    return [x for x in out if not sys_.contains(x)]


@pytest.mark.parametrize("family,rank,painted", END_NODE_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in END_NODE_FRAMES])
def test_in_k_matches_the_span_sets(family, rank, painted):
    # the retired delta_k and delta_k_pos frozensets, by vector arithmetic:
    # the span of the painted simples, closed under sums and negatives
    sys_ = build_root_system(family, rank)
    sp = split(sys_, PaintedDiagram.of(sys_, painted))
    delta_k = {sys_.simples[i] for i in painted} | {-sys_.simples[i] for i in painted}
    grown = True
    while grown:
        new = {a + b for a in delta_k for b in delta_k if sys_.contains(a + b)} - delta_k
        delta_k |= new
        grown = bool(new)
    assert [sp.in_k(r) for r in sys_.roots] == [r in delta_k for r in sys_.roots]
    assert frozenset(sp.k_pos_sorted) == {r for r in delta_k if sys_.is_positive(r)}
    # False for every other vector, such as C's basis vectors 2 e_i
    non_roots = _non_roots(sys_)
    assert non_roots and not any(sp.in_k(x) for x in non_roots)


def test_splits_and_diagrams_compare_by_value_and_hash():
    sys_ = build_root_system("D", 4)
    a = split(sys_, PaintedDiagram.of(sys_, (0, 3)))
    b = split(sys_, PaintedDiagram.of(sys_, (3, 0)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != borel_split(sys_) and len({a, b, borel_split(sys_)}) == 2
    assert PaintedDiagram.of(sys_, (0, 3)) == PaintedDiagram.of(sys_, (3, 0))
    assert hash(PaintedDiagram.of(sys_, (0, 3))) == hash(PaintedDiagram.of(sys_, (3, 0)))
    # the same nodes of another system are another diagram
    d5 = build_root_system("D", 5)
    assert PaintedDiagram.of(d5, (0, 3)) != PaintedDiagram.of(sys_, (0, 3))


def test_require_tangent_names_the_roots_outside_in_root_order():
    sys_ = build_root_system("B", 3)
    sp = split(sys_, PaintedDiagram.of(sys_, (0,)))
    tangent = list(sp.m_pos_sorted)
    for roots in (tangent, [], sp.delta_m_pos):
        sp.require_tangent(roots, "{}")
    # a non-root, a painted-span root and a tangent negative root
    outside = [rv(1, 1, 1), rv(1, -1, 0), -tangent[0]]
    with pytest.raises(NotInTangent) as info:
        sp.require_tangent([*reversed(outside), *tangent], "outside: {}")
    assert str(info.value) == f"outside: {sorted(outside)}"


def test_v_monotone_under_painting_growth():
    sys_ = build_root_system("D", 5)
    rng = np.random.default_rng(5)
    for _ in range(20):
        order = rng.permutation(5)
        previous = split(sys_, PaintedDiagram.of(sys_, ())).v
        for size in range(1, 6):
            v = split(sys_, PaintedDiagram.of(sys_, sorted(order[:size]))).v
            assert v <= previous
            previous = v
