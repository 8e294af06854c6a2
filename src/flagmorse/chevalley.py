"""Structure constants and complexified bracket evaluation.

The constants live on the system's root index (``rootsys``).  ``_slot`` is an
n x n array aligned with the sum table: at an id pair (a, b) whose sum is a
root it gives the position of c_{a,b} in ``_consts``, a tuple of exact values,
and elsewhere it is -1.  The constants are normalized: the basis is rescaled
so that [E_a, E_-a] is the metric dual of a (the invariant pairing of E_a
with E_-a is 1).  In this normalization the cyclic identity
c_{a,b} = c_{b,-d} = c_{-d,a} holds with no length weights, at the cost of
sqrt(2)-valued entries in the C family.  A pair (a, -a), where the sum table
holds -2, brackets to the dual of a: a's own ambient coordinates.  The
textbook integer constants are derived on demand: sign(c_{a,b}) (p + 1),
where p is the largest integer with b - p a a root (Chevalley's theorem).

One height induction, on root ids and the sum table, fills the slot table.
Each positive root d, in order of height, takes its extraspecial pair (a, b):
a is the first positive root in root order (ids follow the sorted
coordinates) such that b = d - a is positive.  c_{a,b} gets the + sign and
magnitude sqrt(h(a) h(b) / h(d)) (p + 1), h being half the squared length.
Every other decomposition of d follows from the Jacobi identity on (E_xi,
E_eta, E_-a), whose other constants have sums of lower height.  Each
constant is appended to ``_consts`` with its negative, and its 12 images
under the cyclic identity, antisymmetry and c_{-x,-y} = -c_{x,y} point at one
of the two.

All arithmetic is exact.  ``_pair_floats`` rounds each stored constant to
float64 once and gathers the floats by id pair for the numeric frame's plan.
``RootVector`` appears only at the edges: the functions that take roots
resolve them through ``RootSystem.id_of``, and ``ComplexElement`` keys its
coefficients by root id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NotARoot
from .exactnum import C_ZERO, CSqrt2, Sqrt2
from .rootsys import RootSystem, RootVector, _positive_ids, build_root_system, inner

HVector = tuple[CSqrt2, ...]


@dataclass(frozen=True, eq=False)
class ChevalleyData:
    """Exact structure constants and coroots for one root system; compared
    and hashed by identity, as ``build_chevalley`` makes one per system."""

    sys: RootSystem
    # by id pair (a, b), aligned with sys.sums: the position of c_{a,b} in
    # _consts where a + b is a root, else -1
    _slot: np.ndarray = field(repr=False)
    # the normalized constants, (c, -c) per orbit of 12 pairs
    _consts: tuple[Sqrt2, ...] = field(repr=False)

    def constant(self, a: RootVector, b: RootVector) -> Sqrt2:
        """Normalized constant c_{a,b} for roots with a + b again a root;
        ``NotARoot`` when a, b or their sum is not a root."""
        k = self._slot[self.sys.id_of(a), self.sys.id_of(b)]
        if k < 0:
            raise NotARoot(f"{a} + {b} is not a root")
        return self._consts[k]

    def classical_constant(self, a: RootVector, b: RootVector) -> int:
        """Integer constant sign(c_{a,b}) (p + 1) of the classical basis, with p
        the largest integer such that b - p a is a root (Chevalley's theorem)."""
        sign = self.constant(a, b).sign()
        sys = self.sys
        return sign * (_chain_down_length(sys.sums, sys.neg, sys.id_of(a), sys.id_of(b)) + 1)

    def all_pairs(self) -> list[tuple[RootVector, RootVector]]:
        """Every ordered root pair whose sum is a root, sorted: ids follow the
        root order, so the row-major id pairs are in order."""
        roots = self.sys.roots
        a, b = np.nonzero(self.sys.sums >= 0)
        return [(roots[i], roots[j]) for i, j in zip(a.tolist(), b.tolist())]


def _chain_down_length(sums: list, neg: list, a: int, b: int) -> int:
    """Largest p with b - p*a still a root, for root ids and rows of the sum table."""
    p = 0
    cur = sums[b][neg[a]]
    while cur >= 0:
        p += 1
        cur = sums[cur][neg[a]]
    return p


@lru_cache(maxsize=None)
def _build_chevalley_cached(family: str, rank: int) -> ChevalleyData:
    sys = build_root_system(family, rank)
    roots, neg, sums = sys.roots, sys.neg.tolist(), sys.sums.tolist()
    positive = sys.heights > 0
    half = [inner(sys, r, r) / 2 for r in roots]
    slot = np.full(sys.sums.shape, -1, dtype=np.int16)
    consts: list[Sqrt2] = []

    def store(x: int, y: int, z: int, c: Sqrt2) -> None:
        """c_{x,y} for x + y + z = 0 and its 12 images: the cyclic identity,
        antisymmetry and c_{-x,-y} = -c_{x,y}."""
        plus = len(consts)
        consts.extend((c, -c))
        for u, v in ((x, y), (y, z), (z, x)):
            nu, nv = neg[u], neg[v]
            slot[u, v] = slot[nv, nu] = plus
            slot[v, u] = slot[nu, nv] = plus + 1

    # positive ids in order of height, and by coordinates within a height
    by_height = np.flatnonzero(positive)[np.argsort(sys.heights[positive], kind="stable")]
    for delta in by_height.tolist():
        rests = sys.sums[delta, sys.neg]  # by id: delta minus that root
        halves = np.flatnonzero(positive & _positive_ids(sys, rests)).tolist()
        if not halves:
            continue
        # extraspecial pair: + sign, magnitude p + 1 rescaled to the basis
        alpha = halves[0]
        beta = int(rests[alpha])
        p = _chain_down_length(sums, neg, alpha, beta)
        ratio = half[alpha] * half[beta] / half[delta]
        store(alpha, beta, neg[delta], Sqrt2.sqrt_of_rational(ratio) * (p + 1))
        denom = consts[slot[delta, neg[alpha]]]  # an image of the seed
        seen = {alpha, beta}
        for xi in halves[1:]:
            if xi in seen:
                continue
            eta = int(rests[xi])
            seen.update((xi, eta))
            # Jacobi on (E_xi, E_eta, E_-alpha); every other constant has a
            # sum of lower height, so it is stored
            total = Sqrt2(0)
            down = sums[eta][neg[alpha]]
            if down >= 0:
                total += consts[slot[eta, neg[alpha]]] * consts[slot[down, xi]]
            down = sums[xi][neg[alpha]]
            if down >= 0:
                total += consts[slot[neg[alpha], xi]] * consts[slot[down, eta]]
            store(xi, eta, neg[delta], -total / denom)
    return ChevalleyData(sys=sys, _slot=slot, _consts=tuple(consts))


def _pair_floats(data: ChevalleyData) -> np.ndarray:
    """float(c_{a,b}) of every ordered pair of root ids with a root sum, in the
    row-major order of np.nonzero(sys.sums >= 0): one gather through the slot
    table.  Rounding (p + q sqrt2)/d is odd in the value, so float(-c) is
    -float(c), as when the induction stored one float per orbit."""
    floats = np.array([float(c) for c in data._consts], dtype=np.float64)
    return floats[data._slot[data.sys.sums >= 0]]


def build_chevalley(sys: RootSystem) -> ChevalleyData:
    """Constants and coroots for ``sys`` (cached per family/rank)."""
    return _build_chevalley_cached(sys.family, sys.rank)


def coroot(data: ChevalleyData, alpha: RootVector) -> tuple[Fraction, ...]:
    """Dual vector t_a of a root under the normalized invariant form: the
    root's own ambient coordinates.  Raises ``NotARoot`` for a non-root."""
    data.sys.id_of(alpha)
    return alpha.unscaled()


# ---------------------------------------------------------------------------
# complexified elements and bracket


class ComplexElement:
    """Finitely supported element of the complexified algebra of ``sys``: a
    Cartan part in unscaled ambient coordinates and root coefficients keyed by
    root id.  ``+``, ``bracket_c`` and ``pairing`` take elements of one system
    only (E6 and E8 share an ambient space, not their roots)."""

    __slots__ = ("sys", "h_part", "coeffs")

    def __init__(self, sys: RootSystem, h_part: HVector, coeffs=None):
        self.sys = sys
        self.h_part = h_part
        self.coeffs: dict[int, CSqrt2] = coeffs if coeffs is not None else {}

    @staticmethod
    def zero(sys: RootSystem) -> "ComplexElement":
        return ComplexElement(sys, (C_ZERO,) * sys.ambient_dim, {})

    @staticmethod
    def root_vector(sys: RootSystem, alpha: RootVector, coeff=1) -> "ComplexElement":
        return ComplexElement(
            sys, (C_ZERO,) * sys.ambient_dim, {sys.id_of(alpha): CSqrt2.of(coeff)}
        )

    @staticmethod
    def cartan(sys: RootSystem, coords) -> "ComplexElement":
        coords = tuple(CSqrt2.of(c) if not isinstance(c, CSqrt2) else c for c in coords)
        if len(coords) != sys.ambient_dim:
            raise DimensionMismatch("Cartan coordinates have the wrong length")
        return ComplexElement(sys, coords, {})

    def __add__(self, other: "ComplexElement") -> "ComplexElement":
        if self.sys is not other.sys:
            raise DimensionMismatch("elements from different systems")
        coeffs = dict(self.coeffs)
        for r, c in other.coeffs.items():
            old = coeffs.get(r)
            if old is None:
                coeffs[r] = c
                continue
            s = old + c
            if s.is_zero():
                del coeffs[r]
            else:
                coeffs[r] = s
        if _zero_h(other.h_part):
            h = self.h_part
        elif _zero_h(self.h_part):
            h = other.h_part
        else:
            h = tuple(a + b for a, b in zip(self.h_part, other.h_part))
        return ComplexElement(self.sys, h, coeffs)

    def __sub__(self, other: "ComplexElement") -> "ComplexElement":
        return self + other.scaled(-1)

    def scaled(self, k) -> "ComplexElement":
        k = CSqrt2.of(k) if not isinstance(k, CSqrt2) else k
        coeffs = {}
        for r, c in self.coeffs.items():
            kc = k * c
            if not kc.is_zero():
                coeffs[r] = kc
        return ComplexElement(self.sys, tuple(k * h for h in self.h_part), coeffs)

    def is_zero(self) -> bool:
        return _zero_h(self.h_part) and not any(
            not c.is_zero() for c in self.coeffs.values()
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexElement):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self) -> str:
        # ids follow the root order
        parts = [f"{c!r}*E{self.sys.roots[i].coords}" for i, c in sorted(self.coeffs.items())]
        if any(not h.is_zero() for h in self.h_part):
            parts.insert(0, f"h{tuple(repr(h) for h in self.h_part)}")
        return " + ".join(parts) if parts else "0"


def _zero_h(h: HVector) -> bool:
    """Whether every Cartan coordinate is zero.  Most are the shared C_ZERO,
    which ``count`` matches by identity before calling any ``__eq__``."""
    return h.count(C_ZERO) == len(h)


# a root's integer coords are twice its ambient ones
_HALF = Sqrt2(Fraction(1, 2))


def _root_eval(coords: tuple[int, ...], h: HVector, half_scale: Sqrt2) -> CSqrt2:
    """alpha(h) for a root's integer ``coords`` and h given in unscaled
    ambient coordinates; ``half_scale`` is the system's norm_scale / 2,
    applied once to the sum over the integer coords."""
    total = C_ZERO
    for a_i, h_i in zip(coords, h):
        if a_i:
            total = total + h_i * a_i
    return total * half_scale


def bracket_c(data: ChevalleyData, x: ComplexElement, y: ComplexElement) -> ComplexElement:
    """Bilinear bracket of complexified elements."""
    sys = data.sys
    if x.sys is not sys or y.sys is not sys:
        raise DimensionMismatch("elements do not match the system")
    roots = sys.roots
    zero_h = (C_ZERO,) * sys.ambient_dim
    # twice the Cartan part, made on the first pair (a, -a): sums of integer
    # coords, halved once at the end
    twice_h = None
    out_coeffs: dict[int, CSqrt2] = {}

    def add_root(r: int, c: CSqrt2) -> None:
        old = out_coeffs.get(r)
        s = c if old is None else old + c
        if s.is_zero():
            out_coeffs.pop(r, None)
        else:
            out_coeffs[r] = s

    x_cartan = not _zero_h(x.h_part)
    y_cartan = not _zero_h(y.h_part)
    if x_cartan or y_cartan:
        half_scale = _HALF * sys.norm_scale
    # [h_x, E_b] terms
    if x_cartan:
        for b, cb in y.coeffs.items():
            add_root(b, _root_eval(roots[b].coords, x.h_part, half_scale) * cb)
    # [E_a, h_y] = -a(h_y) E_a terms
    if y_cartan:
        minus_half_scale = -half_scale
        for a, ca in x.coeffs.items():
            add_root(a, _root_eval(roots[a].coords, y.h_part, minus_half_scale) * ca)
    # root-root terms, by id: a root sum reads the slot table, and a pair
    # (a, -a) brackets to the dual of a, half a's integer coords
    sums, slot, consts = sys.sums, data._slot, data._consts
    y_terms = list(y.coeffs.items())
    for i, ca in x.coeffs.items():
        for j, cb in y_terms:
            s = sums.item(i, j)
            if s == -1:
                continue
            scale = ca * cb
            if scale.is_zero():
                continue
            if s == -2:
                if twice_h is None:
                    twice_h = list(zero_h)
                for l, c in enumerate(roots[i].coords):
                    if c:
                        twice_h[l] = twice_h[l] + scale * c
            else:
                add_root(s, scale * consts[slot.item(i, j)])
    out_h = zero_h if twice_h is None else tuple(
        t if t is C_ZERO else t * _HALF for t in twice_h)
    return ComplexElement(sys, out_h, out_coeffs)


def pairing(data: ChevalleyData, x: ComplexElement, y: ComplexElement) -> CSqrt2:
    """Invariant bilinear pairing with unit value on opposite root vectors."""
    sys = data.sys
    if x.sys is not sys or y.sys is not sys:
        raise DimensionMismatch("elements do not match the system")
    total = C_ZERO
    for a, ca in x.coeffs.items():
        cb = y.coeffs.get(sys.neg.item(a))
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
        values = [abs(float(c)) for c in data._consts]
    return min(values)


def csv_rows(data: ChevalleyData) -> list[tuple[str, str, str]]:
    """(alpha, beta, c) rows with roots in simple-root coordinates."""
    sys = data.sys
    names = [",".join(map(str, row)) for row in sys.expansion_rows.tolist()]
    a, b = np.nonzero(sys.sums >= 0)
    return [(names[i], names[j], repr(data._consts[k]))
            for i, j, k in zip(a.tolist(), b.tolist(), data._slot[a, b].tolist())]
