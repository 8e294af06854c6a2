"""Sqrt2 and CSqrt2 against an oracle on plain pairs of Fractions.

The oracle holds a + b*sqrt(2) as (a, b) and does the textbook field
arithmetic; signs come from a 100-digit Decimal evaluation, which no bounded
input here can fool (|p + q sqrt 2| >= 1/(3|q|) for integers p, q != 0).
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagmorse.exactnum import C_ONE, C_ZERO, ONE, ZERO, CSqrt2, Sqrt2

# small and non-dyadic denominators, and integers well past 2**64
rationals = st.one_of(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=60),
    st.sampled_from([Fraction(1, 3), Fraction(5, 7), Fraction(-5, 7), Fraction(2, 9)]),
    st.integers(-(10 ** 30), 10 ** 30).map(Fraction),
)
pairs = st.tuples(rationals, rationals)


def value(ab) -> Sqrt2:
    return Sqrt2(*ab)


def parts(x: Sqrt2) -> tuple[Fraction, Fraction]:
    return x.a, x.b


def check_invariant(x: Sqrt2) -> None:
    assert x.d > 0
    assert math.gcd(math.gcd(x.p, x.q), x.d) == 1


def o_mul(x, y):
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def o_div(x, y):
    norm = y[0] * y[0] - 2 * y[1] * y[1]
    p, q = o_mul(x, (y[0], -y[1]))
    return p / norm, q / norm


def o_sign(x) -> int:
    with localcontext() as ctx:
        ctx.prec = 100
        a, b = (Decimal(f.numerator) / Decimal(f.denominator) for f in x)
        v = a + b * Decimal(2).sqrt()
    return (v > 0) - (v < 0)


def o_repr(x) -> str:
    a, b = x
    if not b:
        return f"{a}"
    if not a:
        return f"{b}*sqrt2"
    return f"{a}+{b}*sqrt2"


@given(pairs, pairs)
@settings(max_examples=400)
def test_field_operations_match_the_fraction_oracle(x, y):
    u, v = value(x), value(y)
    for got, want in ((u + v, (x[0] + y[0], x[1] + y[1])),
                      (u - v, (x[0] - y[0], x[1] - y[1])),
                      (-u, (-x[0], -x[1])),
                      (u * v, o_mul(x, y))):
        check_invariant(got)
        assert parts(got) == want
    if y != (0, 0):
        got = u / v
        check_invariant(got)
        assert parts(got) == o_div(x, y)
        assert got * v == u
    else:
        with pytest.raises(ZeroDivisionError):
            u / v


@given(pairs, rationals)
def test_mixed_operands_are_exact_rationals(x, r):
    u = value(x)
    for got, want in ((u + r, (x[0] + r, x[1])), (r + u, (x[0] + r, x[1])),
                      (u - r, (x[0] - r, x[1])), (r - u, (r - x[0], -x[1])),
                      (u * r, (x[0] * r, x[1] * r)), (r * u, (x[0] * r, x[1] * r))):
        check_invariant(got)
        assert parts(got) == want
    n = r.numerator
    check_invariant(u * n)
    assert parts(u * n) == (x[0] * n, x[1] * n)
    if r:
        assert parts(u / r) == (x[0] / r, x[1] / r)


@given(pairs)
@settings(max_examples=400)
def test_sign_abs_float_and_repr(x):
    u = value(x)
    check_invariant(u)
    assert parts(u) == x
    assert u.sign() == o_sign(x)
    assert u.is_zero() == (x == (0, 0))
    assert parts(abs(u)) == (x if o_sign(x) >= 0 else (-x[0], -x[1]))
    # bit for bit the float of the Fraction-pair formula
    assert float(u) == float(x[0]) + float(x[1]) * math.sqrt(2.0)
    assert repr(u) == o_repr(x)


@given(pairs, pairs)
def test_equality_and_hash(x, y):
    u, v = value(x), value(y)
    assert (u == v) == (x == y)
    # the same value reached by different arithmetic is the same triple
    w = (u + v) - v
    assert w == u and hash(w) == hash(u)
    k = Fraction(7, 3)
    assert (u * k) / k == u and hash((u * k) / k) == hash(u)
    assert (u == x[0]) == (x[1] == 0)
    if x[1] == 0:
        assert u == x[0]
        if x[0].denominator == 1:
            assert u == int(x[0])
    assert u != "text" and u != 0.5


def test_near_cancelling_signs():
    # 99^2 - 2*70^2 = 1 and 1393^2 - 2*985^2 = -1
    assert Sqrt2(99, -70).sign() == 1
    assert Sqrt2(-99, 70).sign() == -1
    assert Sqrt2(1393, -985).sign() == -1
    assert Sqrt2(-1393, 985).sign() == 1
    assert Sqrt2(Fraction(99, 7), Fraction(-70, 7)).sign() == 1


def test_division_by_negative_norm_and_zero():
    u = Sqrt2(1, -1)  # norm 1 - 2 = -1
    inv = ONE / u
    check_invariant(inv)
    assert parts(inv) == (-1, -1)
    assert inv * u == ONE
    third = Sqrt2(Fraction(1, 3), Fraction(5, 7))
    assert (third / u) * u == third
    for zero in (ZERO, Sqrt2(0, 0), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            third / zero


def test_representation_invariant_and_constructor_types():
    x = Sqrt2(Fraction(2, 6), Fraction(4, 6))
    assert (x.p, x.q, x.d) == (1, 2, 3)
    assert (ZERO.p, ZERO.q, ZERO.d) == (0, 0, 1)
    assert (Sqrt2(Fraction(-5, 7)).p, Sqrt2(Fraction(-5, 7)).d) == (-5, 7)
    with pytest.raises(TypeError):
        Sqrt2(0.5)
    with pytest.raises(AttributeError):
        x.a = Fraction(1)


@pytest.mark.parametrize("q,root", [(4, (2, 0)), (Fraction(1, 4), (Fraction(1, 2), 0)),
                                    (2, (0, 1)), (8, (0, 2)), (Fraction(1, 2), (0, Fraction(1, 2))),
                                    (Fraction(1, 8), (0, Fraction(1, 4))), (Fraction(9, 2), (0, Fraction(3, 2)))])
def test_sqrt_of_rational(q, root):
    r = Sqrt2.sqrt_of_rational(q)
    check_invariant(r)
    assert parts(r) == root
    assert r * r == q


@pytest.mark.parametrize("q", [3, Fraction(1, 3), 0, -4])
def test_sqrt_of_rational_rejects(q):
    with pytest.raises(ValueError):
        Sqrt2.sqrt_of_rational(q)


# -- the five-int complex form ------------------------------------------------


def fields(z: CSqrt2) -> tuple[int, int, int, int, int]:
    return z.rp, z.rq, z.ip, z.iq, z.d


def check_canonical(z: CSqrt2) -> None:
    """d > 0 and gcd(rp, rq, ip, iq, d) == 1: one representation per value."""
    assert type(z) is CSqrt2
    assert all(type(n) is int for n in fields(z))
    assert z.d > 0
    assert math.gcd(*fields(z)) == 1
    # the parts are the five ints over d, reduced
    assert parts(z.re) == (Fraction(z.rp, z.d), Fraction(z.rq, z.d))
    assert parts(z.im) == (Fraction(z.ip, z.d), Fraction(z.iq, z.d))
    check_invariant(z.re)
    check_invariant(z.im)


def test_complex_fields_of_known_values():
    # fixed values ahead of the hypothesis tests: under pytest -x a wrong
    # product or a missing reduction fails here at once, before a search
    # shrinks its example
    assert fields(CSqrt2.I) == (0, 0, 1, 0, 1)
    assert fields(C_ONE) == (1, 0, 0, 0, 1)
    z = CSqrt2(Sqrt2(Fraction(1, 2)), Sqrt2(0, Fraction(1, 3)))  # 1/2 + i sqrt2/3
    assert fields(z) == (3, 0, 0, 2, 6)
    assert fields(z * 6) == (3, 0, 0, 2, 1)
    assert fields(z * Sqrt2(0, 1)) == (0, 3, 4, 0, 6)  # sqrt2/2 + i 2/3
    assert fields(z * z) == (1, 0, 0, 12, 36)  # 1/4 - 2/9 + i sqrt2/3
    u, w = CSqrt2.make(Sqrt2(1, 1), 1), CSqrt2.make(1, Sqrt2(0, 1))
    assert fields(u * w) == fields(w * u) == (1, 0, 3, 1, 1)  # 1 + i(3 + sqrt2)
    assert repr(z) == "(1/2)+(1/3*sqrt2)i"
    with pytest.raises(AttributeError):
        z.re = ONE


@given(pairs, pairs, pairs, pairs)
def test_complex_operations(xr, xi, yr, yi):
    z, w = CSqrt2(value(xr), value(xi)), CSqrt2(value(yr), value(yi))
    o_re = (o_mul(xr, yr)[0] - o_mul(xi, yi)[0], o_mul(xr, yr)[1] - o_mul(xi, yi)[1])
    o_im = (o_mul(xr, yi)[0] + o_mul(xi, yr)[0], o_mul(xr, yi)[1] + o_mul(xi, yr)[1])
    for got, want in ((z + w, ((xr[0] + yr[0], xr[1] + yr[1]), (xi[0] + yi[0], xi[1] + yi[1]))),
                      (z - w, ((xr[0] - yr[0], xr[1] - yr[1]), (xi[0] - yi[0], xi[1] - yi[1]))),
                      (-z, ((-xr[0], -xr[1]), (-xi[0], -xi[1]))),
                      (z.conj(), (xr, (-xi[0], -xi[1]))),
                      (z * w, (o_re, o_im))):
        check_invariant(got.re)
        check_invariant(got.im)
        assert (parts(got.re), parts(got.im)) == want
    assert z.is_zero() == (xr == xi == (0, 0))
    assert (z == w) == ((xr, xi) == (yr, yi))
    same = (z + w) - w
    assert same == z and hash(same) == hash(z)
    assert complex(z) == complex(float(value(xr)), float(value(xi)))
    assert repr(z) == f"({o_repr(xr)})+({o_repr(xi)})i"


@given(pairs, pairs, rationals)
def test_complex_times_real_scalars(xr, xi, r):
    z = CSqrt2(value(xr), value(xi))
    for k in (r, r.numerator, value((r, r))):
        got = z * k
        assert got == z * CSqrt2(Sqrt2.of(k))
        check_invariant(got.re)
        check_invariant(got.im)
    assert r * z == z * r and r.numerator * z == z * r.numerator
    with pytest.raises(TypeError):
        z * 0.5
    with pytest.raises(TypeError):
        z * 1j


@given(pairs, pairs, pairs)
def test_real_and_complex_operands_in_both_orders(xr, xi, y):
    # a Sqrt2 on the left defers to the CSqrt2's reflected operation, so the
    # result is the product (sum, difference) of the two as complex values
    z, x = CSqrt2(value(xr), value(xi)), value(y)
    cx = CSqrt2.of(x)
    for got, want in ((x + z, cx + z), (z + x, z + cx), (x - z, cx - z), (z - x, z - cx),
                      (x * z, cx * z), (z * x, z * cx)):
        assert type(got) is CSqrt2 and got == want
        check_canonical(got)
    assert ONE * C_ONE == C_ONE * ONE == C_ONE
    assert ONE + C_ONE == C_ONE + ONE == CSqrt2.make(2)
    assert ONE - C_ONE == C_ONE - ONE == C_ZERO


def test_complex_constants_and_equality_with_reals():
    assert C_ZERO.is_zero() and not C_ONE.is_zero()
    assert CSqrt2.I * CSqrt2.I == -C_ONE
    assert C_ONE == 1 and C_ONE == Fraction(1) and C_ONE == ONE
    assert CSqrt2.make(Fraction(1, 3), 0) == Fraction(1, 3)
    assert CSqrt2.make(0, 1) != 0
    with pytest.raises(TypeError):
        CSqrt2.of(1j)


@given(pairs, pairs, pairs, pairs, rationals)
def test_complex_results_are_canonical(xr, xi, yr, yi, r):
    z, w = CSqrt2(value(xr), value(xi)), CSqrt2(value(yr), value(yi))
    results = [z, w, z + w, z - w, -z, z.conj(), z * w, w * z, z * z.conj(),
               z + r, r + z, z - r, r - z, z * r, r * z, z * r.numerator,
               z * value(yr), z * value(yi),
               z + r.numerator, r.numerator - z, z * 0, z - z,
               CSqrt2.of(r), CSqrt2.of(value(xr)), CSqrt2.of(r.numerator),
               CSqrt2.make(xr[0], xi[0]), CSqrt2.make(r.numerator, r.denominator)]
    for got in results:
        check_canonical(got)
    assert fields(z - z) == fields(z * 0) == fields(C_ZERO) == (0, 0, 0, 0, 1)


@given(pairs, pairs, rationals)
def test_complex_equality_and_hash_agree_across_constructors(xr, xi, r):
    re, im = value(xr), value(xi)
    z = CSqrt2(re, im)
    k = r if r else Fraction(3, 7)
    same = [CSqrt2(re, im), CSqrt2.make(re, im), z + CSqrt2.make(0, 0), (z * k) * (1 / k),
            (z + CSqrt2.make(r, r)) - CSqrt2.make(r, r), CSqrt2.I * (CSqrt2.I * -z),
            z.conj().conj(), CSqrt2.of(re) + CSqrt2.I * im]
    for got in same:
        assert got == z and z == got
        assert fields(got) == fields(z) and hash(got) == hash(z)
    assert len({z, *same}) == 1
    # a real value is one value however it is built
    real = [CSqrt2(re), CSqrt2(re, 0), CSqrt2.make(re), CSqrt2.of(re), CSqrt2.of(re) * 1,
            z - CSqrt2.I * im]
    for got in real:
        assert got == re and fields(got) == fields(real[0]) and hash(got) == hash(real[0])
    if xr[1] == 0:
        assert CSqrt2.of(xr[0]) == real[0] == xr[0]
        assert hash(CSqrt2.of(xr[0])) == hash(real[0])
    # a nonzero imaginary part is never equal to a real
    if not im.is_zero():
        assert z != re and re != z and z != xr[0]
    w = CSqrt2(im, re)
    assert (z == w) == ((xr, xi) == (xi, xr))
    if z == w:
        assert hash(z) == hash(w)


@given(st.integers(-(10 ** 20), 10 ** 20), st.integers(-(10 ** 20), 10 ** 20), pairs, pairs)
def test_int_fast_paths_match_the_fraction_route(a, b, xr, xi):
    fa, fb = Fraction(a), Fraction(b)
    assert fields(CSqrt2.make(a, b)) == fields(CSqrt2.make(fa, fb)) == fields(
        CSqrt2(Sqrt2(fa), Sqrt2(fb)))
    assert fields(CSqrt2.make(a)) == fields(CSqrt2.of(a)) == fields(CSqrt2.of(fa))
    assert hash(CSqrt2.make(a, b)) == hash(CSqrt2.make(fa, fb))
    s = Sqrt2.of(a)
    assert type(s) is Sqrt2 and (s.p, s.q, s.d) == (a, 0, 1) and s == Sqrt2(fa)
    assert hash(s) == hash(Sqrt2(fa))
    z = CSqrt2(value(xr), value(xi))
    for got, want in ((z * a, z * fa), (a * z, fa * z), (z + a, z + fa), (a + z, fa + z),
                      (z - a, z - fa), (a - z, fa - z), (z * a, z * Sqrt2(fa)),
                      (z * a, z * CSqrt2.of(fa))):
        check_canonical(got)
        assert fields(got) == fields(want) and hash(got) == hash(want)
