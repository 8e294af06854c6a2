"""Exact scalars for structure-constant arithmetic.

All structure constants live in the real quadratic field Q(sqrt(2)); only the
C family ever produces a nonzero sqrt(2) part.  Complexified coefficients have
real and imaginary parts in that field.  Keeping these exact lets set-valued
logic and Jacobi checks run with zero residual.

A real value (p + q*sqrt(2))/d is stored as three Python ints p, q, d with
d > 0 and gcd(p, q, d) == 1, and a complex value
(rp + rq*sqrt(2) + i*(ip + iq*sqrt(2)))/d as five ints rp, rq, ip, iq, d with
d > 0 and the gcd of all five 1.  So each value has one representation:
equality and hashing compare the ints, and zero is (0, 0, 1) or
(0, 0, 0, 0, 1).  Each operation is one integer expression that allocates one
object and normalizes it once, skipping the gcd when d == 1, the common case
for integer coefficients.  No Fraction is built by the arithmetic,
comparisons, ``sign``, ``is_zero`` or ``hash``; ``.a`` and ``.b`` give the
rational parts as Fractions, and ``.re`` and ``.im`` the parts of a complex
value as reduced ``Sqrt2``, for display and callers.  Plain __slots__ classes
rather than dataclasses: these sit in the innermost loops of the exhaustive
checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

_SQRT2 = math.sqrt(2.0)
_gcd = math.gcd
_new = object.__new__


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational, as ints."""
    if type(x) is int:
        return x, 1
    if isinstance(x, Rational):
        return int(x.numerator), int(x.denominator)
    raise TypeError(f"not an exact rational: {x!r}")


def _make(p: int, q: int, d: int) -> "Sqrt2":
    """(p + q*sqrt(2))/d for d > 0, reduced by gcd(p, q, d)."""
    if d != 1:
        g = _gcd(_gcd(p, q), d)
        if g != 1:
            p //= g
            q //= g
            d //= g
    x = _new(Sqrt2)
    x.p = p
    x.q = q
    x.d = d
    return x


class Sqrt2:
    """Element (p + q*sqrt(2))/d of Q(sqrt(2)), d > 0 and gcd(p, q, d) == 1."""

    __slots__ = ("p", "q", "d")

    def __init__(self, a, b=0):
        na, da = _ratio(a)
        nb, db = _ratio(b)
        x = _make(na * db, nb * da, da * db)
        self.p, self.q, self.d = x.p, x.q, x.d

    @property
    def a(self) -> Fraction:
        """Rational part."""
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt(2)."""
        return Fraction(self.q, self.d)

    @staticmethod
    def of(x) -> "Sqrt2":
        if type(x) is int:
            return _make(x, 0, 1)
        if isinstance(x, Sqrt2):
            return x
        return Sqrt2(x)

    @staticmethod
    def sqrt_of_rational(q) -> "Sqrt2":
        """Exact square root of a rational of the form r^2 or 2*r^2."""
        num, den = _ratio(q)
        if num <= 0:
            raise ValueError(f"square root of non-positive rational: {Fraction(num, den)}")
        g = _gcd(num, den)
        num, den = num // g, den // g
        # in lowest terms, num/den = r^2 iff num and den are squares, and
        # num/den = 2 r^2 iff r^2 = num/(2 den), reduced, has square terms
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return _make(rn, 0, rd)
        hn, hd = (num // 2, den) if num % 2 == 0 else (num, 2 * den)
        rn, rd = math.isqrt(hn), math.isqrt(hd)
        if rn * rn == hn and rd * rd == hd:
            return _make(0, rn, rd)
        raise ValueError(f"{Fraction(num, den)} is not of the form r^2 or 2 r^2")

    def __add__(self, other):
        if type(other) is not Sqrt2:
            if type(other) is CSqrt2:  # its reflected operation takes a Sqrt2
                return NotImplemented
            other = Sqrt2.of(other)
        d, e = self.d, other.d
        if d == e:
            return _make(self.p + other.p, self.q + other.q, d)
        return _make(self.p * e + other.p * d, self.q * e + other.q * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.p, -self.q, self.d)

    def __sub__(self, other):
        if type(other) is not Sqrt2:
            if type(other) is CSqrt2:
                return NotImplemented
            other = Sqrt2.of(other)
        d, e = self.d, other.d
        if d == e:
            return _make(self.p - other.p, self.q - other.q, d)
        return _make(self.p * e - other.p * d, self.q * e - other.q * d, d * e)

    def __rsub__(self, other):
        return Sqrt2.of(other) - self

    def __mul__(self, other):
        if type(other) is int:
            return _make(self.p * other, self.q * other, self.d)
        if type(other) is not Sqrt2:
            if type(other) is CSqrt2:
                return NotImplemented
            other = Sqrt2.of(other)
        p, q, r, s = self.p, self.q, other.p, other.q
        if not q and not s:
            return _make(p * r, 0, self.d * other.d)
        return _make(p * r + 2 * q * s, p * s + q * r, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Sqrt2.of(other)
        r, s = other.p, other.q
        # 1/(r + s sqrt2) = (r - s sqrt2)/(r^2 - 2 s^2); the norm is never 0
        # for a nonzero value, as sqrt(2) is irrational
        norm = r * r - 2 * s * s
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        p, q = self.p, self.q
        num_p, num_q = (p * r - 2 * q * s) * other.d, (q * r - p * s) * other.d
        den = self.d * norm
        if den < 0:
            num_p, num_q, den = -num_p, -num_q, -den
        return _make(num_p, num_q, den)

    def __eq__(self, other):
        if type(other) is Sqrt2:
            return self.p == other.p and self.q == other.q and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return not self.q and self.p == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def sign(self) -> int:
        """Exact sign of (p + q*sqrt(2))/d: d > 0, so that of p + q*sqrt(2)."""
        p, q = self.p, self.q
        if p >= 0 and q >= 0:
            return 1 if p or q else 0
        if p <= 0 and q <= 0:
            return -1
        # opposite signs: the larger of p^2 and 2 q^2 decides
        return (1 if p > 0 else -1) if p * p > 2 * q * q else (1 if q > 0 else -1)

    def __abs__(self) -> "Sqrt2":
        return self if self.sign() >= 0 else -self

    def __float__(self) -> float:
        # int true division rounds as float(Fraction(p, d)) does
        return self.p / self.d + (self.q / self.d) * _SQRT2

    def __repr__(self) -> str:
        if not self.q:
            return f"{self.a}"
        if not self.p:
            return f"{self.b}*sqrt2"
        return f"{self.a}+{self.b}*sqrt2"


ZERO = Sqrt2(0)
ONE = Sqrt2(1)


def _cmake(rp: int, rq: int, ip: int, iq: int, d: int) -> "CSqrt2":
    """(rp + rq*sqrt(2) + i*(ip + iq*sqrt(2)))/d for d > 0, reduced by the
    gcd of all five."""
    if d != 1:
        g = _gcd(rp, rq, ip, iq, d)
        if g != 1:
            rp //= g
            rq //= g
            ip //= g
            iq //= g
            d //= g
    z = _new(CSqrt2)
    z.rp = rp
    z.rq = rq
    z.ip = ip
    z.iq = iq
    z.d = d
    return z


class CSqrt2:
    """Complex number (rp + rq*sqrt(2) + i*(ip + iq*sqrt(2)))/d with real and
    imaginary parts in Q(sqrt(2)), d > 0 and the gcd of all five ints 1."""

    __slots__ = ("rp", "rq", "ip", "iq", "d")

    def __init__(self, re, im=ZERO):
        re, im = Sqrt2.of(re), Sqrt2.of(im)
        d, e = re.d, im.d
        # over the lcm of two reduced denominators no prime divides all five
        lcm = d // _gcd(d, e) * e
        u, v = lcm // d, lcm // e
        self.rp, self.rq, self.ip, self.iq, self.d = re.p * u, re.q * u, im.p * v, im.q * v, lcm

    @property
    def re(self) -> Sqrt2:
        """Real part."""
        return _make(self.rp, self.rq, self.d)

    @property
    def im(self) -> Sqrt2:
        """Imaginary part."""
        return _make(self.ip, self.iq, self.d)

    @staticmethod
    def of(x) -> "CSqrt2":
        t = type(x)
        if t is CSqrt2:
            return x
        if t is int:
            return _cmake(x, 0, 0, 0, 1)
        if t is Sqrt2:
            return _cmake(x.p, x.q, 0, 0, x.d)
        if isinstance(x, complex):
            raise TypeError("floating complex is not exact; build from rationals")
        n, d = _ratio(x)
        return _cmake(n, 0, 0, 0, d)

    @staticmethod
    def make(re=0, im=0) -> "CSqrt2":
        if type(re) is int and type(im) is int:
            return _cmake(re, 0, im, 0, 1)
        return CSqrt2(re, im)

    def __add__(self, other):
        if type(other) is not CSqrt2:
            other = CSqrt2.of(other)
        d, e = self.d, other.d
        if d == e:
            return _cmake(self.rp + other.rp, self.rq + other.rq,
                          self.ip + other.ip, self.iq + other.iq, d)
        return _cmake(self.rp * e + other.rp * d, self.rq * e + other.rq * d,
                      self.ip * e + other.ip * d, self.iq * e + other.iq * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _cmake(-self.rp, -self.rq, -self.ip, -self.iq, self.d)

    def __sub__(self, other):
        if type(other) is not CSqrt2:
            other = CSqrt2.of(other)
        d, e = self.d, other.d
        if d == e:
            return _cmake(self.rp - other.rp, self.rq - other.rq,
                          self.ip - other.ip, self.iq - other.iq, d)
        return _cmake(self.rp * e - other.rp * d, self.rq * e - other.rq * d,
                      self.ip * e - other.ip * d, self.iq * e - other.iq * d, d * e)

    def __rsub__(self, other):
        return CSqrt2.of(other) - self

    def __mul__(self, other):
        rp, rq, ip, iq = self.rp, self.rq, self.ip, self.iq
        t = type(other)
        if t is CSqrt2:
            sp, sq, tp, tq = other.rp, other.rq, other.ip, other.iq
            # (r + i s)(u + i v) = (ru - sv) + i(rv + su), and sqrt2 * sqrt2 = 2
            return _cmake(rp * sp - ip * tp + 2 * (rq * sq - iq * tq),
                          rp * sq + rq * sp - ip * tq - iq * tp,
                          rp * tp + ip * sp + 2 * (rq * tq + iq * sq),
                          rp * tq + rq * tp + ip * sq + iq * sp, self.d * other.d)
        if t is int:
            return _cmake(rp * other, rq * other, ip * other, iq * other, self.d)
        # a real scalar scales both parts
        if t is Sqrt2:
            sp, sq, e = other.p, other.q, other.d
        elif isinstance(other, complex):
            raise TypeError("floating complex is not exact; build from rationals")
        else:
            sp, e = _ratio(other)
            sq = 0
        return _cmake(rp * sp + 2 * rq * sq, rp * sq + rq * sp,
                      ip * sp + 2 * iq * sq, ip * sq + iq * sp, self.d * e)

    __rmul__ = __mul__

    def conj(self) -> "CSqrt2":
        return _cmake(self.rp, self.rq, -self.ip, -self.iq, self.d)

    def __eq__(self, other):
        t = type(other)
        if t is CSqrt2:
            return (self.rp == other.rp and self.rq == other.rq and self.ip == other.ip
                    and self.iq == other.iq and self.d == other.d)
        if isinstance(other, Sqrt2):
            return (not (self.ip or self.iq) and self.rp == other.p and self.rq == other.q
                    and self.d == other.d)
        if isinstance(other, (int, Fraction)):
            return (not (self.rq or self.ip or self.iq) and self.rp == other.numerator
                    and self.d == other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash((self.rp, self.rq, self.ip, self.iq, self.d))

    def is_zero(self) -> bool:
        return not (self.rp or self.rq or self.ip or self.iq)

    def __complex__(self) -> complex:
        # int true division rounds the exact quotient, so a factor that one
        # part shares with d changes no float: as complex(float(re), float(im))
        d = self.d
        return complex(self.rp / d + (self.rq / d) * _SQRT2,
                       self.ip / d + (self.iq / d) * _SQRT2)

    def __repr__(self) -> str:
        return f"({self.re})+({self.im})i"


CSqrt2.I = CSqrt2(ZERO, ONE)
C_ZERO = CSqrt2(ZERO, ZERO)
C_ONE = CSqrt2(ONE, ZERO)
