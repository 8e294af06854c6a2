"""Structure constants and complexified bracket evaluation.

Two tables are kept per system:

* ``c_classical`` -- integer constants with the textbook chain magnitude
  |c| = p + 1 on every ordered pair with a positive sum, seeded with + signs
  on extraspecial pairs and propagated by antisymmetry, negation symmetry and
  the Jacobi identity.
* ``pair_action`` -- every ordered root pair that brackets to something
  nonzero.  A pair with a root sum holds that sum and its normalized constant:
  the basis rescaled so that [E_a, E_-a] is the metric dual of a (the
  invariant pairing of E_a with E_-a is 1).  In this normalization the cyclic
  identity c_{a,b} = c_{b,-d} = c_{-d,a} holds with no length weights, at the
  cost of sqrt(2)-valued entries in the C family.  A pair (a, -a) holds the
  dual of a.

All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatch
from .exactnum import C_ZERO, CSqrt2, Sqrt2
from .rootsys import RootSystem, RootVector, build_root_system, inner

HVector = tuple[CSqrt2, ...]


@dataclass(frozen=True)
class ChevalleyData:
    """Exact structure constants and coroots for one root system."""

    sys: RootSystem
    # (a, b) -> integer constant, for ordered pairs with a + b a POSITIVE
    # root; the other sign reduces through c(a,b) = -c(-a,-b).
    c_classical: dict[tuple[RootVector, RootVector], Fraction] = field(repr=False)
    # (a, b) -> (a + b, normalized constant) for every ordered pair with a
    # root sum, or (None, dual of a) for b = -a; absent pairs bracket to
    # zero.  The single store of normalized constants and coroots, and the
    # bracket's hot path.
    pair_action: dict = field(repr=False)

    def constant(self, a: RootVector, b: RootVector) -> Sqrt2:
        """Normalized constant c_{a,b} for roots with a + b again a root."""
        s, value = self.pair_action.get((a, b), (None, None))
        if s is None:
            raise KeyError(f"{a} + {b} is not a root")
        return value

    def classical_constant(self, a: RootVector, b: RootVector) -> Fraction:
        key = (a, b)
        if key in self.c_classical:
            return self.c_classical[key]
        key = (-a, -b)
        if key in self.c_classical:
            return -self.c_classical[key]
        raise KeyError(f"{a} + {b} is not a root")

    def all_pairs(self) -> list[tuple[RootVector, RootVector]]:
        """Every ordered root pair whose sum is a root."""
        return sorted(pair for pair, (s, _) in self.pair_action.items() if s is not None)


def _chain_down_length(sys: RootSystem, alpha: RootVector, beta: RootVector) -> int:
    """Largest p with beta - p*alpha still a root."""
    p = 0
    cur = beta - alpha
    while sys.contains(cur):
        p += 1
        cur = cur - alpha
    return p


class _ClassicalBuilder:
    """Fills the integer table by height induction over positive sums."""

    def __init__(self, sys: RootSystem):
        self.sys = sys
        self.table: dict[tuple[RootVector, RootVector], Fraction] = {}

    def _store(self, a: RootVector, b: RootVector, value: Fraction) -> None:
        self.table[(a, b)] = value
        self.table[(b, a)] = -value

    def lookup(self, a: RootVector, b: RootVector) -> Fraction:
        """Constant for any root pair with a + b a root; reduces signs."""
        sys = self.sys
        key = (a, b)
        if key in self.table:
            return self.table[key]
        a_pos, b_pos = sys.is_positive(a), sys.is_positive(b)
        if a_pos and b_pos:
            raise KeyError(f"positive pair {a}, {b} not yet filled")
        if not a_pos and not b_pos:
            return -self.lookup(-a, -b)
        if not a_pos:
            return -self.lookup(b, a)
        c = a + b
        if not sys.is_positive(c):
            return -self.lookup(-a, -b)
        # a > 0 > b with positive sum: reduce to the positive pair (-b, c).
        ratio = inner(sys, c, c) / inner(sys, a, a)
        return -ratio * self.lookup(-b, c)

    def fill(self) -> "_ClassicalBuilder":
        """Store every pair of positive roots with a root sum."""
        sys = self.sys
        by_height = sorted(sys.positives, key=lambda r: (sys.height(r), r.coords))
        for delta in by_height:
            halves = sorted(
                a for a in sys.positives
                if sys.is_positive(delta - a) and sys.contains(delta - a)
            )
            if not halves:
                continue
            alpha = halves[0]
            beta = delta - alpha
            p = _chain_down_length(sys, alpha, beta)
            self._store(alpha, beta, Fraction(p + 1))
            seen = {alpha, beta}
            denom = self.lookup(delta, -alpha)
            for xi in halves[1:]:
                if xi in seen:
                    continue
                eta = delta - xi
                seen.update((xi, eta))
                total = Fraction(0)
                if sys.contains(eta - alpha):
                    total += self.lookup(eta, -alpha) * self.lookup(eta - alpha, xi)
                if sys.contains(xi - alpha):
                    total += self.lookup(-alpha, xi) * self.lookup(xi - alpha, eta)
                self._store(xi, eta, -total / denom)
        return self


@lru_cache(maxsize=None)
def _build_chevalley_cached(family: str, rank: int) -> ChevalleyData:
    sys = build_root_system(family, rank)
    builder = _ClassicalBuilder(sys).fill()
    half = {a: inner(sys, a, a) / 2 for a in sys.roots}
    classical: dict[tuple[RootVector, RootVector], Fraction] = {}
    pair_action: dict = {}
    # one walk over the ordered pairs; the normalized constant rescales the
    # classical one by sqrt(|a|^2 |b|^2 / (2 |a+b|^2))
    for a in sys.roots:
        for b in sys.roots:
            s = a + b
            if not any(s.coords):
                pair_action[(a, b)] = (None, a.unscaled())
            elif sys.contains(s):
                value = builder.lookup(a, b)
                if sys.is_positive(s):
                    classical[(a, b)] = value
                ratio = half[a] * half[b] / half[s]
                pair_action[(a, b)] = (s, Sqrt2.sqrt_of_rational(ratio) * Sqrt2.of(value))
    return ChevalleyData(sys=sys, c_classical=classical, pair_action=pair_action)


def build_chevalley(sys: RootSystem) -> ChevalleyData:
    """Constants and coroots for ``sys`` (cached per family/rank)."""
    return _build_chevalley_cached(sys.family, sys.rank)


def coroot(data: ChevalleyData, alpha: RootVector) -> tuple[Fraction, ...]:
    """Dual vector t_a of a root under the normalized invariant form."""
    return data.pair_action[(alpha, -alpha)][1]


# ---------------------------------------------------------------------------
# complexified elements and bracket


class ComplexElement:
    """Finitely supported element of the complexified algebra."""

    __slots__ = ("ambient_dim", "h_part", "coeffs")

    def __init__(self, ambient_dim: int, h_part: HVector, coeffs=None):
        self.ambient_dim = ambient_dim
        self.h_part = h_part
        self.coeffs: dict[RootVector, CSqrt2] = coeffs if coeffs is not None else {}

    @staticmethod
    def zero(sys: RootSystem) -> "ComplexElement":
        return ComplexElement(sys.ambient_dim, (C_ZERO,) * sys.ambient_dim, {})

    @staticmethod
    def root_vector(sys: RootSystem, alpha: RootVector, coeff=1) -> "ComplexElement":
        if alpha.ambient_dim != sys.ambient_dim:
            raise DimensionMismatch("root does not match the system")
        return ComplexElement(
            sys.ambient_dim, (C_ZERO,) * sys.ambient_dim, {alpha: CSqrt2.of(coeff)}
        )

    @staticmethod
    def cartan(sys: RootSystem, coords) -> "ComplexElement":
        coords = tuple(CSqrt2.of(c) if not isinstance(c, CSqrt2) else c for c in coords)
        if len(coords) != sys.ambient_dim:
            raise DimensionMismatch("Cartan coordinates have the wrong length")
        return ComplexElement(sys.ambient_dim, coords, {})

    def __add__(self, other: "ComplexElement") -> "ComplexElement":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("elements from different systems")
        coeffs = dict(self.coeffs)
        for r, c in other.coeffs.items():
            s = coeffs.get(r, C_ZERO) + c
            if s.is_zero():
                coeffs.pop(r, None)
            else:
                coeffs[r] = s
        if all(h.is_zero() for h in other.h_part):
            h = self.h_part
        elif all(h.is_zero() for h in self.h_part):
            h = other.h_part
        else:
            h = tuple(a + b for a, b in zip(self.h_part, other.h_part))
        return ComplexElement(self.ambient_dim, h, coeffs)

    def __sub__(self, other: "ComplexElement") -> "ComplexElement":
        return self + other.scaled(-1)

    def scaled(self, k) -> "ComplexElement":
        k = CSqrt2.of(k) if not isinstance(k, CSqrt2) else k
        coeffs = {r: k * c for r, c in self.coeffs.items() if not (k * c).is_zero()}
        return ComplexElement(self.ambient_dim, tuple(k * h for h in self.h_part), coeffs)

    def is_zero(self) -> bool:
        return all(h.is_zero() for h in self.h_part) and not any(
            not c.is_zero() for c in self.coeffs.values()
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexElement):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self) -> str:
        parts = [f"{c!r}*E{r.coords}" for r, c in sorted(self.coeffs.items())]
        if any(not h.is_zero() for h in self.h_part):
            parts.insert(0, f"h{tuple(repr(h) for h in self.h_part)}")
        return " + ".join(parts) if parts else "0"


def _root_eval(sys: RootSystem, alpha: RootVector, h: HVector) -> CSqrt2:
    """alpha(h) for h given in unscaled ambient coordinates."""
    total = C_ZERO
    for a_i, h_i in zip(alpha.unscaled(), h):
        if a_i != 0:
            total = total + h_i * a_i
    return total * sys.norm_scale


def bracket_c(data: ChevalleyData, x: ComplexElement, y: ComplexElement) -> ComplexElement:
    """Bilinear bracket of complexified elements."""
    sys = data.sys
    if x.ambient_dim != sys.ambient_dim or y.ambient_dim != sys.ambient_dim:
        raise DimensionMismatch("elements do not match the system")
    out_h = [C_ZERO] * sys.ambient_dim
    out_coeffs: dict[RootVector, CSqrt2] = {}

    def add_root(r: RootVector, c: CSqrt2) -> None:
        s = out_coeffs.get(r, C_ZERO) + c
        if s.is_zero():
            out_coeffs.pop(r, None)
        else:
            out_coeffs[r] = s

    # [h_x, E_b] terms
    if any(not h.is_zero() for h in x.h_part):
        for b, cb in y.coeffs.items():
            add_root(b, _root_eval(sys, b, x.h_part) * cb)
    # [E_a, h_y] terms
    if any(not h.is_zero() for h in y.h_part):
        for a, ca in x.coeffs.items():
            val = _root_eval(sys, a, y.h_part) * ca
            add_root(a, -val)
    # root-root terms
    actions = data.pair_action
    for a, ca in x.coeffs.items():
        for b, cb in y.coeffs.items():
            action = actions.get((a, b))
            if action is None:
                continue
            scale = ca * cb
            if scale.is_zero():
                continue
            s, payload = action
            if s is None:
                for i, t_i in enumerate(payload):
                    if t_i != 0:
                        out_h[i] = out_h[i] + scale * t_i
            else:
                add_root(s, scale * payload)
    return ComplexElement(sys.ambient_dim, tuple(out_h), out_coeffs)


def pairing(data: ChevalleyData, x: ComplexElement, y: ComplexElement) -> CSqrt2:
    """Invariant bilinear pairing with unit value on opposite root vectors."""
    sys = data.sys
    total = C_ZERO
    for a, ca in x.coeffs.items():
        cb = y.coeffs.get(-a)
        if cb is not None:
            total = total + ca * cb
    for hx, hy in zip(x.h_part, y.h_part):
        if not hx.is_zero() and not hy.is_zero():
            total = total + hx * hy * sys.norm_scale
    return total


def n0_constant(data: ChevalleyData, pair_set=()) -> float:
    """Minimum |c| over a set of pairs, or globally when the set is empty."""
    values: list[float] = []
    if pair_set:
        for pair in pair_set:
            a, b = tuple(pair)
            values.append(abs(float(data.constant(a, b))))
    else:
        values = [abs(float(v)) for s, v in data.pair_action.values() if s is not None]
    return min(values)


def csv_rows(data: ChevalleyData) -> list[tuple[str, str, str]]:
    """(alpha, beta, c) rows with roots in simple-root coordinates."""
    sys = data.sys
    rows = []
    for a, b in data.all_pairs():
        ea = ",".join(str(c) for c in sys.expansions[a])
        eb = ",".join(str(c) for c in sys.expansions[b])
        rows.append((ea, eb, repr(data.constant(a, b))))
    return rows
