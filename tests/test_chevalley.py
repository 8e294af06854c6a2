import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagmorse.chevalley import (
    ComplexElement,
    _pair_floats,
    bracket_c,
    build_chevalley,
    coroot,
    csv_rows,
    n0_constant,
    pairing,
)
from flagmorse.exactnum import CSqrt2, Sqrt2
from flagmorse.rootsys import build_root_system, inner

from conftest import ALL_SYSTEMS
from test_rootsys import rv


def chev(family, rank):
    return build_chevalley(build_root_system(family, rank))


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                         ("C", 3), ("D", 4), ("E", 6)])
def test_symmetry_identities(family, rank):
    data = chev(family, rank)
    for a, b in data.all_pairs():
        d = a + b
        c = data.constant(a, b)
        assert c == -data.constant(b, a)
        assert c == -data.constant(-a, -b)
        assert c == data.constant(b, -d)
        assert c == data.constant(-d, a)
        assert not c.is_zero()


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_classical_magnitude_is_chain_length(family, rank):
    # Independent of the chain walk: in the A/B/C/D/E families the root string
    # b - p a, ..., b has p = 1 exactly when two short roots sum to a long one,
    # and p = 0 otherwise, so |classical_constant| is 2 there and 1 everywhere
    # else.
    data = chev(family, rank)
    sys_ = data.sys
    long_ = {r: inner(sys_, r, r) == 2 for r in sys_.roots}
    for a, b in data.all_pairs():
        two = not long_[a] and not long_[b] and long_[a + b]
        assert abs(data.classical_constant(a, b)) == (2 if two else 1)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_pair_action_is_the_normalized_classical_table(family, rank):
    data = chev(family, rank)
    sys_ = data.sys
    sums = {(a, b) for a in sys_.roots for b in sys_.roots if sys_.contains(a + b)}
    assert set(data.all_pairs()) == sums
    assert len(data.all_pairs()) == len(sums)
    # sorted on coordinate tuples, in RootVector's own order
    assert data.all_pairs() == sorted(sums)
    for a, b in sums:
        half = [inner(sys_, r, r) / 2 for r in (a, b, a + b)]
        ratio = half[0] * half[1] / half[2]
        c, classical = data.constant(a, b), data.classical_constant(a, b)
        assert c * c == ratio * classical * classical
        assert c.sign() == (1 if classical > 0 else -1)
    for a in sys_.roots:
        assert coroot(data, a) == a.unscaled()
        assert data.pair_action[(a, -a)] == (None, coroot(data, a))
    assert set(data.pair_action) == sums | {(a, -a) for a in sys_.roots}
    # keys and sums are the system's own root instances, not copies
    shared = {id(r) for r in sys_.roots}
    assert all(id(r) in shared for (a, b), (s, _) in data.pair_action.items()
               for r in (a, b, s) if r is not None)
    # the floats the frame's plan reads: one per pair, by id pair in the sum
    # table's row-major order
    ids_a, ids_b = np.nonzero(sys_.sums >= 0)
    want = [float(data.constant(sys_.roots[i], sys_.roots[j]))
            for i, j in zip(ids_a.tolist(), ids_b.tolist())]
    got = _pair_floats(data)
    assert got.dtype == np.float64 and np.array_equal(got, want)


def test_a2_magnitudes():
    data = chev("A", 2)
    a1, a2 = data.sys.simples
    assert abs(data.constant(a1, a2)) == Sqrt2.of(1)


def test_b2_magnitudes():
    data = chev("B", 2)
    e1me2, e2, e1 = rv(1, -1), rv(0, 1), rv(1, 0)
    # chain magnitudes live in the classical table
    assert abs(data.classical_constant(e1me2, e2)) == 1
    assert abs(data.classical_constant(e2, e1)) == 2
    # the normalized table trades the chain magnitude for the clean cyclic
    # identity; in the B family every normalized constant is a sign
    assert abs(data.constant(e1me2, e2)) == Sqrt2.of(1)
    assert abs(data.constant(e2, e1)) == Sqrt2.of(1)


def test_c3_has_exact_sqrt2_entries():
    data = chev("C", 3)
    c = data.constant(rv(1, -1, 0), rv(0, 1, -1))
    assert c * c == Sqrt2.of(Fraction(1, 2))


def test_coroot_properties():
    data = chev("A", 2)
    sys_ = data.sys
    for alpha in sys_.roots:
        t = coroot(data, alpha)
        t_neg = coroot(data, -alpha)
        assert all(x == -y for x, y in zip(t, t_neg))
        # alpha evaluated on its own dual equals its squared length
        val = sys_.norm_scale * sum(a * b for a, b in zip(alpha.unscaled(), t))
        assert val == 2
    # bracket of opposite root vectors reproduces the dual exactly
    for alpha in sys_.roots:
        lhs = bracket_c(data, ComplexElement.root_vector(sys_, alpha),
                        ComplexElement.root_vector(sys_, -alpha))
        assert lhs == ComplexElement.cartan(sys_, alpha.unscaled())


def test_bracket_examples():
    data = chev("A", 2)
    sys_ = data.sys
    a1, a2 = sys_.simples
    e1 = ComplexElement.root_vector(sys_, a1)
    assert bracket_c(data, e1, e1).is_zero()
    out = bracket_c(data, e1, ComplexElement.root_vector(sys_, a2))
    assert set(out.coeffs) == {a1 + a2}
    assert abs(out.coeffs[a1 + a2].re) == Sqrt2.of(1)


def _random_element(sys_, rng, support=3):
    out = ComplexElement.zero(sys_)
    roots = rng.sample(list(sys_.roots), support)
    for r in roots:
        out = out + ComplexElement.root_vector(
            sys_, r, CSqrt2.make(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        )
    h = tuple(CSqrt2.make(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
              for _ in range(sys_.ambient_dim))
    return out + ComplexElement.cartan(sys_, h)


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("E", 6)])
def test_jacobi_on_random_triples(family, rank):
    import random

    rng = random.Random(f"{family}{rank}")
    data = chev(family, rank)
    sys_ = data.sys
    for _ in range(60):
        x, y, z = (_random_element(sys_, rng) for _ in range(3))
        total = (
            bracket_c(data, x, bracket_c(data, y, z))
            + bracket_c(data, y, bracket_c(data, z, x))
            + bracket_c(data, z, bracket_c(data, x, y))
        )
        assert total.is_zero()


@pytest.mark.parametrize("family,rank", [("A", 3), ("C", 3)])
def test_pairing_associativity(family, rank):
    import random

    rng = random.Random(42)
    data = chev(family, rank)
    sys_ = data.sys
    for _ in range(40):
        x, y, z = (_random_element(sys_, rng) for _ in range(3))
        lhs = pairing(data, bracket_c(data, x, y), z)
        rhs = pairing(data, x, bracket_c(data, y, z))
        assert lhs == rhs


def test_n0_examples():
    assert n0_constant(chev("A", 3)) == 1.0
    assert n0_constant(chev("D", 4)) == 1.0
    b2 = chev("B", 2)
    pair = [frozenset((rv(1, -1), rv(0, 1)))]
    assert n0_constant(b2, pair) == 1.0
    assert n0_constant(chev("C", 3)) == pytest.approx(2 ** -0.5)


def test_csv_rows_shape():
    data = chev("A", 2)
    rows = csv_rows(data)
    assert len(rows) == len(data.all_pairs())
    alpha, beta, c = rows[0]
    assert alpha.count(",") == 1 and beta.count(",") == 1
    assert c in {"1", "-1"}


_B2 = chev("B", 2)
_B2_PAIRS = _B2.all_pairs()


@given(st.sampled_from(_B2_PAIRS))
@settings(max_examples=100)
def test_cyclic_identity_property(pair):
    a, b = pair
    d = a + b
    c = _B2.constant(a, b)
    assert c == _B2.constant(b, -d) == _B2.constant(-d, a)
