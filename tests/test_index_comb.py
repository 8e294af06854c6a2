import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagmorse.errors import (
    FlagmorseError,
    HypothesisViolated,
    NegativeDimension,
    NotInTangent,
    UnsupportedDelta,
    UnsupportedFamily,
)
from flagmorse.index_comb import (
    GammaSet,
    STSets,
    b_case_sets,
    c_case_starred_sets,
    condition1,
    condition2,
    ell_table,
    index_lower_bound,
    min_intersection_dim,
    st_sets,
    superminimal,
)
from flagmorse.parabolic import PaintedDiagram, borel_split, split
from flagmorse.rootsys import build_root_system, is_long, long_roots

from test_rootsys import rv


def borel(family, rank):
    return borel_split(build_root_system(family, rank))


# -- superminimal ------------------------------------------------------------


def test_superminimal_singleton():
    sp = borel("A", 3)
    d = rv(1, 0, 0, -1)
    assert superminimal(sp, GammaSet.singleton(d)) == d


def test_superminimal_two_element_chain():
    sp = borel("A", 3)
    g = GammaSet.of([rv(1, -1, 0, 0), rv(1, 0, -1, 0)])
    assert superminimal(sp, g) == rv(1, -1, 0, 0)


def test_superminimal_b3_short_rule():
    sp = borel("B", 3)
    g = GammaSet.of([rv(0, 1, 0), rv(1, 1, 0)])
    assert superminimal(sp, g) == rv(0, 1, 0)


def test_superminimal_deterministic_tiebreak():
    sp = borel("A", 3)
    g = GammaSet.of([rv(1, -1, 0, 0), rv(0, 0, 1, -1)])
    # both are superminimal; the lexicographically smaller wins
    assert superminimal(sp, g) == min(rv(1, -1, 0, 0), rv(0, 0, 1, -1))


def test_gamma_validation():
    sp = borel("A", 3)
    with pytest.raises(ValueError):
        GammaSet.of([])
    g = GammaSet.singleton(rv(-1, 1, 0, 0))
    with pytest.raises(ValueError):
        superminimal(sp, g)


def test_support_outside_the_tangent_block_is_not_in_tangent():
    sp = split(build_root_system("A", 3), PaintedDiagram.of(build_root_system("A", 3), (0,)))
    for support in ([rv(-1, 1, 0, 0)], [rv(1, -1, 0, 0)], [rv(1, 1, 1, 1)]):
        with pytest.raises(NotInTangent, match="outside the tangent positives"):
            superminimal(sp, GammaSet.of(support))


# -- S/T sets ----------------------------------------------------------------


@pytest.mark.parametrize("rank", range(2, 6))
def test_st_sets_a_family_first_simple(rank):
    sp = borel("A", rank)
    delta = sp.sys.simples[0]
    sets = st_sets(sp, GammaSet.singleton(delta), delta)
    assert sets.s_set == frozenset()
    expected_t = {delta}
    for j in range(2, rank + 1):
        coords = [0] * (rank + 1)
        coords[0], coords[j] = 2, -2
        from flagmorse.rootsys import RootVector

        expected_t.add(RootVector(tuple(coords)))
    assert sets.t_set == expected_t
    assert sets.ell == rank
    assert sets.h == 0


def test_st_sets_d4_and_e8():
    sp = borel("D", 4)
    d = rv(1, -1, 0, 0)
    assert st_sets(sp, GammaSet.singleton(d), d).ell == 5
    sp8 = borel("E", 8)
    d8 = rv(0, -1, 1, 0, 0, 0, 0, 0)  # a simple root of the rank-8 system
    assert d8 in sp8.delta_m_pos
    assert st_sets(sp8, GammaSet.singleton(d8), d8).ell == 29


def test_st_sets_checks_inputs_against_the_split():
    sys_ = build_root_system("A", 3)
    sp = split(sys_, PaintedDiagram.of(sys_, (0,)))
    painted, tangent = rv(1, -1, 0, 0), rv(0, 1, -1, 0)
    assert painted in sp.delta_k and tangent in sp.delta_m_pos
    # a support root in the painted span
    with pytest.raises(ValueError, match="outside the tangent positives"):
        st_sets(sp, GammaSet.of([painted, tangent]), tangent)
    # a delta that is not a root at all
    bogus = rv(2, 0, 0, 0)
    with pytest.raises(ValueError, match=r"outside the tangent positives.*\(4, 0, 0, 0\)"):
        st_sets(sp, GammaSet.singleton(bogus), bogus)
    with pytest.raises(ValueError, match="not in the support set"):
        st_sets(sp, GammaSet.singleton(tangent), rv(0, 0, 1, -1))
    assert st_sets(sp, GammaSet.singleton(tangent), tangent).delta == tangent


def test_st_sets_even_and_delta_member():
    for family, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4)]:
        sp = borel(family, rank)
        for delta in sp.delta_m_pos:
            sets = st_sets(sp, GammaSet.singleton(delta), delta)
            assert len(sets.s_set) % 2 == 0
            assert delta in sets.t_set
            for alpha in sets.s_set:
                assert (delta - alpha) in sets.s_set


def test_counting_identity_at_borel():
    # pairs-of-roots count + 1 equals ell for every positive root at the
    # trivial painting
    from flagmorse.rootsys import w_pair_count

    for family, rank in [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("E", 6)]:
        sp = borel(family, rank)
        for delta in sp.delta_m_pos:
            sets = st_sets(sp, GammaSet.singleton(delta), delta)
            assert w_pair_count(sp.sys, delta) + 1 == sets.ell


# -- conditions ----------------------------------------------------------------


def test_conditions_vacuous_for_singleton_support():
    # with a singleton support both conditions reduce to tautologies
    sp = borel("C", 3)
    d = rv(1, 1, 0)
    g = GammaSet.singleton(d)
    sets = st_sets(sp, g, d)
    assert condition1(sp, g, d, sets.t_set).ok
    assert condition2(sp, g, d, sets.s_set).ok


def test_condition2_fails_for_c3_short_with_witness():
    # enlarging the support exposes the short-root failure in the C family
    sp = borel("C", 3)
    d = rv(1, 1, 0)
    g = GammaSet.of([d, rv(2, 0, 0)])
    assert superminimal(sp, g) == d
    sets = st_sets(sp, g, d)
    result = condition2(sp, g, d, sets.s_set)
    assert not result.ok
    alpha, beta, lam = result.witness
    assert alpha + beta == lam and lam in g.support and lam != d


def _inserted(roots, order):
    """The set of ``roots``, built by inserting them in the given order."""
    return frozenset(r for r in order if r in roots)


def test_condition_witnesses_do_not_depend_on_set_order():
    # each witness is the first in root order, however the caller built the
    # sets; filling them in delta_m_pos order once gave condition 1 on C5 the
    # witness (1,0,0,0,1), (1,0,1,0,0), (0,0,2,0,0)
    c5 = build_root_system("C", 5)
    sp = split(c5, PaintedDiagram.of(c5, (0, 3)))
    delta = rv(0, 0, 1, 0, 1)
    support = {delta, rv(0, 0, 2, 0, 0), rv(1, 0, -1, 0, 0)}
    t_set = st_sets(sp, GammaSet.of(support), delta).t_set
    orders = (sorted(c5.roots), sorted(c5.roots, reverse=True), list(sp.delta_m_pos),
              [*t_set, *c5.roots])
    for order in orders:
        got = condition1(sp, GammaSet(_inserted(support, order)), delta, _inserted(t_set, order))
        assert got == (False, (rv(0, 1, 0, 0, 1), rv(0, 1, 1, 0, 0), rv(0, 0, 2, 0, 0)))
    # condition 2, with delta in the support and without it
    sp = borel("C", 3)
    delta = rv(1, 1, 0)
    support = {delta, rv(2, 0, 0), rv(1, 0, 1), rv(0, 1, 1)}
    s_set = st_sets(sp, GammaSet.of(support), delta).s_set
    roots = sp.sys.roots
    for order in (sorted(roots), sorted(roots, reverse=True), list(sp.delta_m_pos), [*s_set, *roots]):
        s = _inserted(s_set, order)
        got = condition2(sp, GammaSet(_inserted(support, order)), delta, s)
        assert got == (False, (rv(0, 1, 1), rv(1, -1, 0), rv(1, 0, 1)))
        got = condition2(sp, GammaSet(_inserted(support - {delta}, order)), delta, s)
        assert got == (False, (rv(0, 1, -1), rv(1, 0, 1), delta))


def test_conditions_hold_for_long_delta_any_support():
    rng = np.random.default_rng(3)
    for family, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        sp = borel(family, rank)
        m_pos = sorted(sp.delta_m_pos)
        longs = [d for d in m_pos if is_long(sp.sys, d)]
        for delta in longs:
            others = [r for r in m_pos if r != delta]
            for _ in range(20):
                size = rng.integers(0, min(4, len(others)) + 1)
                extra = list(rng.choice(len(others), size=size, replace=False))
                g = GammaSet.of([delta] + [others[i] for i in extra])
                sets = st_sets(sp, g, delta)
                assert condition1(sp, g, delta, sets.t_set).ok
                assert condition2(sp, g, delta, sets.s_set).ok


def test_condition1_vacuous_when_t_small():
    sp = borel("A", 2)
    d = rv(1, 0, -1)  # highest root: T = {delta}
    g = GammaSet.singleton(d)
    sets = st_sets(sp, g, d)
    assert len(sets.t_set) == 1
    assert condition1(sp, g, d, sets.t_set).ok


def test_condition2_b2_short_recorded():
    # short basis root with an enlarged support: exhaustive evaluation
    sp = borel("B", 2)
    d = rv(0, 1)
    g = GammaSet.of([d, rv(1, 0)])
    sets = st_sets(sp, g, d)
    res = condition2(sp, g, d, sets.s_set)
    # brute-force replay of the definition
    expected_ok = True
    for a in sets.s_set:
        for b in sets.s_set:
            s = a + b
            if (s in g.support) != (s == d):
                expected_ok = False
    assert res.ok == expected_ok


# -- numeric bound --------------------------------------------------------------


def test_index_lower_bound_examples():
    assert index_lower_bound(2, 2, 3, 3) == 2
    assert index_lower_bound(0, 0, 7, 3) == 3 - 14 + 1
    assert index_lower_bound(4, 5, 6, 6) == 4 + 5 - 6 + 1


def test_index_bound_rejects_negative_dimensions():
    # a negative m or n is an input error, not a bound: (-1, 2, 6, 3) once gave -7
    assert issubclass(NegativeDimension, FlagmorseError)
    assert issubclass(NegativeDimension, ValueError)
    for m, n in ((-1, 2), (2, -1), (-3, -3)):
        with pytest.raises(NegativeDimension, match="non-negative dimensions"):
            index_lower_bound(m, n, 6, 3)
        with pytest.raises(NegativeDimension):
            min_intersection_dim(m, n, 6, 3, 0)
    assert index_lower_bound(0, 0, 6, 3) == -8
    assert min_intersection_dim(0, 0, 6, 3, 2) == -6


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 60), st.integers(0, 60))
@settings(max_examples=200)
def test_index_lower_bound_arithmetic(m, n, v, ell):
    value = index_lower_bound(m, n, v, ell)
    assert value == m + n - (v - ell) - v + 1
    assert index_lower_bound(m, n, v, v) == m + n - v + 1
    assert min_intersection_dim(m, n, v, ell, 0) == value - 1 + 1 + (0)
    # the intersection count exceeds the bound by exactly h
    for h in (0, 1, 5):
        assert min_intersection_dim(m, n, v, ell, h) == value + h


# -- table ----------------------------------------------------------------------


def test_ell_table_values():
    assert ell_table("A", 5).ell == 5
    assert ell_table("D", 6).ell == 9
    assert ell_table("B", 4).ell == 6
    assert ell_table("B", 4, special=True).ell == 7
    assert ell_table("C", 4).ell == 4
    assert ell_table("C", 4, special=True).ell == 7
    assert ell_table("E", 6).ell == 11
    assert ell_table("E", 7).ell == 17
    assert ell_table("E", 8).ell == 29
    with pytest.raises(UnsupportedFamily):
        ell_table("G", 2)
    with pytest.raises(UnsupportedFamily):
        ell_table("A", 11)


def test_ell_table_matches_computed_borel():
    for family, rank in [("A", 2), ("A", 6), ("B", 3), ("C", 4), ("D", 5), ("E", 7)]:
        sp = borel(family, rank)
        want = ell_table(family, rank).ell
        for delta in long_roots(sp.sys):
            if delta not in sp.delta_m_pos:
                continue
            assert st_sets(sp, GammaSet.singleton(delta), delta).ell == want


# -- B family short-root case -----------------------------------------------------


def test_b_case_borel_example():
    sp = borel("B", 3)
    d = rv(0, 1, 0)
    sets = b_case_sets(sp, GammaSet.singleton(d), d)
    assert sets.t_set == {rv(1, 0, 0), rv(0, 1, 0), rv(1, 1, 0), rv(0, 1, 1)}
    assert sets.s_set == {rv(0, 1, -1), rv(0, 0, 1)}
    assert sets.ell == 5 and sets.h == 1
    # matches the general-definition sets
    general = st_sets(sp, GammaSet.singleton(d), d)
    assert general.t_set == sets.t_set and general.s_set == sets.s_set


def test_b_case_painted_target_root():
    sys_ = build_root_system("B", 3)
    sp = split(sys_, PaintedDiagram.of(sys_, (1,)))  # paints e2 - e3
    d = rv(0, 1, 0)
    sets = b_case_sets(sp, GammaSet.singleton(d), d)
    assert rv(0, 0, 1) in sets.t_set  # e3 enters through the painted span
    general = st_sets(sp, GammaSet.singleton(d), d)
    assert general.t_set == sets.t_set


def test_b_case_hypothesis_violation():
    sys_ = build_root_system("B", 3)
    sp = split(sys_, PaintedDiagram.of(sys_, (2,)))  # paints e3
    d = rv(0, 1, 0)
    with pytest.raises(HypothesisViolated):
        b_case_sets(sp, GammaSet.singleton(d), d)


def test_b_case_validates_delta_choice():
    sp = borel("B", 3)
    with pytest.raises(UnsupportedDelta):
        b_case_sets(sp, GammaSet.singleton(rv(1, -1, 0)), rv(1, -1, 0))
    g = GammaSet.of([rv(0, 1, 0), rv(0, 0, 1)])
    with pytest.raises(ValueError):
        b_case_sets(sp, g, rv(0, 1, 0))  # e3 has the larger index


def test_b_case_wrong_family():
    sp = borel("C", 3)
    with pytest.raises(UnsupportedFamily):
        b_case_sets(sp, GammaSet.singleton(rv(1, 1, 0)), rv(1, 1, 0))


# -- C family starred sets ---------------------------------------------------------


def test_c_case_difference_shape():
    sp = borel("C", 3)
    d = rv(1, -1, 0)
    sets = c_case_starred_sets(sp, GammaSet.singleton(d), d)
    assert sets.starred
    assert sets.t_set == {d, rv(1, 0, -1), rv(2, 0, 0)}
    assert sets.s_set == frozenset()
    assert sets.ell == 3


def test_c_case_sum_shape():
    sp = borel("C", 3)
    d = rv(1, 1, 0)
    sets = c_case_starred_sets(sp, GammaSet.singleton(d), d)
    assert sets.t_set == {d, rv(2, 0, 0)}
    assert sets.s_set == {rv(1, 0, -1), rv(0, 1, 1)}
    assert sets.ell == 3 and sets.h == 1


def test_c_case_starred_ell_equals_table_everywhere():
    for rank in (3, 4, 5):
        sp = borel("C", rank)
        want = ell_table("C", rank).ell
        for i, j in itertools.combinations(range(rank), 2):
            for kind in ("minus", "plus"):
                coords = [0] * rank
                coords[i] = 2
                coords[j] = -2 if kind == "minus" else 2
                from flagmorse.rootsys import RootVector

                d = RootVector(tuple(coords))
                sets = c_case_starred_sets(sp, GammaSet.singleton(d), d)
                assert sets.ell == want, (rank, d)


def test_c_case_rejects_long_delta():
    sp = borel("C", 3)
    with pytest.raises(UnsupportedDelta):
        c_case_starred_sets(sp, GammaSet.singleton(rv(2, 0, 0)), rv(2, 0, 0))


# -- exploratory probes (logged, not asserted) ----------------------------------


def test_exploratory_counting_identity_painted(capsys):
    """Counting identity and ell stability at painted splits.

    At non-trivial paintings neither is part of the contract; violations are
    logged for inspection rather than asserted.
    """
    from flagmorse.rootsys import w_pair_count

    count_mismatches = []
    ell_mismatches = []
    for family, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        sys_ = build_root_system(family, rank)
        borel_values = {}
        sp0 = borel_split(sys_)
        for delta in long_roots(sys_):
            if delta in sp0.delta_m_pos:
                borel_values[delta] = st_sets(
                    sp0, GammaSet.singleton(delta), delta
                ).ell
        for subset in itertools.chain.from_iterable(
            itertools.combinations(range(rank), s) for s in range(1, rank)
        ):
            sp = split(sys_, PaintedDiagram.of(sys_, subset))
            for delta in long_roots(sys_):
                if delta not in sp.delta_m_pos:
                    continue
                sets = st_sets(sp, GammaSet.singleton(delta), delta)
                if w_pair_count(sys_, delta) + 1 != sets.ell:
                    count_mismatches.append((family, rank, subset, delta.coords))
                if delta in borel_values and sets.ell != borel_values[delta]:
                    ell_mismatches.append(
                        (family, rank, subset, delta.coords, sets.ell,
                         borel_values[delta])
                    )
    print(f"\n[exploratory] counting identity off-trivial mismatches: "
          f"{len(count_mismatches)}")
    print(f"[exploratory] ell vs trivial-painting mismatches: "
          f"{len(ell_mismatches)}")
    for row in ell_mismatches[:5]:
        print(f"  {row}")
