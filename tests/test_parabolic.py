import itertools

import numpy as np
import pytest

from flagmorse.parabolic import PaintedDiagram, ParabolicSplit, borel_split, split, verify_m_closure
from flagmorse.rootsys import build_root_system

from conftest import SMALL_SYSTEMS
from test_rootsys import rv


def all_subsets(rank):
    for size in range(rank + 1):
        yield from itertools.combinations(range(rank), size)


def test_borel_and_full_painting():
    sys_ = build_root_system("B", 3)
    sp = borel_split(sys_)
    assert sp.v == len(sys_.positives)
    assert not sp.delta_k
    full = split(sys_, PaintedDiagram.of(sys_, range(3)))
    assert full.v == 0
    assert full.delta_k == frozenset(sys_.roots)


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
    for r in sys_.roots:
        in_span = all(
            c == 0 for i, c in enumerate(sys_.expansions[r]) if i not in sp.sigma_k
        )
        assert (r in sp.delta_k) == in_span
    # disjoint partition of the positives
    assert sp.delta_m_pos | sp.delta_k_pos == set(sys_.positives)
    assert not sp.delta_m_pos & sp.delta_k_pos
    if pair_sample is None:
        # closed under addition inside the root set, exhaustively
        for a in sp.delta_k:
            for b in sp.delta_k:
                s = a + b
                if sys_.contains(s):
                    assert s in sp.delta_k
        assert verify_m_closure(sp) == []
    else:
        rng, n_pairs = pair_sample
        k_sorted = sorted(sp.delta_k)
        m_sorted = sp.m_pos_sorted
        for _ in range(n_pairs):
            if k_sorted:
                a = k_sorted[rng.integers(len(k_sorted))]
                b = k_sorted[rng.integers(len(k_sorted))]
                s = a + b
                if sys_.contains(s):
                    assert s in sp.delta_k
            if m_sorted:
                a = m_sorted[rng.integers(len(m_sorted))]
                b = m_sorted[rng.integers(len(m_sorted))]
                s = a + b
                if sys_.contains(s):
                    assert s not in sp.delta_k


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
    """The span test root by root over the expansion tuples."""
    in_k = [all(c == 0 for i, c in enumerate(sys_.expansions[r]) if i not in sigma)
            for r in sys_.roots]
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
        got = {name: getattr(sp, name) for name in ("delta_k", "delta_k_pos", "delta_m_pos",
                                                     "m_pos_sorted", "k_pos_sorted")}
        got["part"] = sp.part.tolist()
        assert sp.part.dtype == np.int8
        assert got == _comprehension_split(sys_, frozenset(subset)), subset


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
