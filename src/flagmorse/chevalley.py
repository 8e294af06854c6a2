"""Structure constants and complexified bracket evaluation.

One table is kept per system, ``pair_action``: every ordered root pair
that brackets to something nonzero.  A pair with a root sum holds that sum
and its normalized constant: the basis rescaled so that [E_a, E_-a] is the
metric dual of a (the invariant pairing of E_a with E_-a is 1).  In this
normalization the cyclic identity c_{a,b} = c_{b,-d} = c_{-d,a} holds with
no length weights, at the cost of sqrt(2)-valued entries in the C family.  A
pair (a, -a) holds the dual of a.  The textbook integer constants are derived
from it on demand: sign(c_{a,b}) (p + 1), where p is the largest integer with
b - p a a root (Chevalley's theorem).

One height induction, on root ids and the system's sum table, fills
``pair_action`` in the normalized basis.  Each positive root d, in order of
height, takes its extraspecial pair (a, b) with a + sign and magnitude
sqrt(h(a) h(b) / h(d)) (p + 1), h being half the squared length; every other
decomposition of d follows from the Jacobi identity on (E_xi, E_eta, E_-a),
whose other constants have sums of lower height.  Each constant is written
with its 12 images under the cyclic identity, antisymmetry and
c_{-x,-y} = -c_{x,y}.

All arithmetic is exact.  Each constant the induction stores is also rounded
to float64 once; ``_pair_floats`` lays those floats out over all 12 images,
by id pair, for the numeric frame's plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch
from .exactnum import C_ZERO, CSqrt2, Sqrt2
from .rootsys import RootSystem, RootVector, _positive_ids, build_root_system, inner

HVector = tuple[CSqrt2, ...]


@dataclass(frozen=True)
class ChevalleyData:
    """Exact structure constants and coroots for one root system."""

    sys: RootSystem
    # (a, b) -> (a + b, normalized constant) for every ordered pair with a
    # root sum, or (None, dual of a) for b = -a; absent pairs bracket to
    # zero.  The single store of normalized constants and coroots, and the
    # bracket's hot path.
    pair_action: dict = field(repr=False)
    # each constant the induction stored, one per orbit of 12 images: root ids
    # (x, y, z) with x + y + z = 0, and float(c_{x,y}); _pair_floats spreads
    # them over every pair for the frame's plan
    _seeds: np.ndarray = field(repr=False, compare=False)
    _seed_floats: np.ndarray = field(repr=False, compare=False)

    def constant(self, a: RootVector, b: RootVector) -> Sqrt2:
        """Normalized constant c_{a,b} for roots with a + b again a root."""
        s, value = self.pair_action.get((a, b), (None, None))
        if s is None:
            raise KeyError(f"{a} + {b} is not a root")
        return value

    def classical_constant(self, a: RootVector, b: RootVector) -> int:
        """Integer constant sign(c_{a,b}) (p + 1) of the classical basis, with p
        the largest integer such that b - p a is a root (Chevalley's theorem)."""
        sign = self.constant(a, b).sign()
        sys = self.sys
        return sign * (_chain_down_length(sys.sums, sys.neg, sys.ids[a], sys.ids[b]) + 1)

    def all_pairs(self) -> list[tuple[RootVector, RootVector]]:
        """Every ordered root pair whose sum is a root."""
        # coordinate tuples order as RootVector's dataclass __lt__ does, at C speed
        return sorted((pair for pair, (s, _) in self.pair_action.items() if s is not None),
                      key=lambda pair: (pair[0].coords, pair[1].coords))


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
    # the induction runs on root ids; keys and sums become the instances in
    # sys.roots only at the end, so the tables hold no copies
    roots, neg, sums = sys.roots, sys.neg.tolist(), sys.sums.tolist()
    positive = sys.heights > 0
    half = [inner(sys, r, r) / 2 for r in roots]
    table: dict[tuple[int, int], Sqrt2] = {}
    seeds: list[tuple[int, int, int]] = []
    seed_floats: list[float] = []

    def store(x: int, y: int, z: int, c: Sqrt2) -> None:
        """c_{x,y} for x + y + z = 0 and its 12 images: the cyclic identity,
        antisymmetry and c_{-x,-y} = -c_{x,y}."""
        minus = -c
        for u, v in ((x, y), (y, z), (z, x)):
            nu, nv = neg[u], neg[v]
            table[u, v] = c
            table[v, u] = minus
            table[nu, nv] = minus
            table[nv, nu] = c
        seeds.append((x, y, z))
        seed_floats.append(float(c))

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
        denom = table[delta, neg[alpha]]  # an image of the seed
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
                total += table[eta, neg[alpha]] * table[down, xi]
            down = sums[xi][neg[alpha]]
            if down >= 0:
                total += table[neg[alpha], xi] * table[down, eta]
            store(xi, eta, neg[delta], -total / denom)

    pair_action: dict = {(a, roots[neg[i]]): (None, a.unscaled()) for i, a in enumerate(roots)}
    for (u, v), c in table.items():
        pair_action[roots[u], roots[v]] = (roots[sums[u][v]], c)
    return ChevalleyData(sys=sys, pair_action=pair_action,
                         _seeds=np.array(seeds, dtype=np.intp).reshape(-1, 3),
                         _seed_floats=np.array(seed_floats, dtype=np.float64))


def _pair_floats(data: ChevalleyData) -> np.ndarray:
    """float(c_{a,b}) of every ordered pair of root ids with a root sum, in the
    row-major order of np.nonzero(sys.sums >= 0): each stored constant spread
    over its 12 images.  Rounding (p + q sqrt2)/d is odd in the value, so
    float(-c) is -float(c)."""
    neg, n = data.sys.neg, len(data.sys.neg)
    xyz = data._seeds.T
    u, v = xyz.ravel(), xyz[[1, 2, 0]].ravel()  # (x, y), (y, z), (z, x)
    keys = np.concatenate([u * n + v, v * n + u, neg[u] * n + neg[v], neg[v] * n + neg[u]])
    f = np.tile(data._seed_floats, 3)
    return np.concatenate([f, -f, -f, f])[np.argsort(keys, kind="stable")]


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
        coeffs = {}
        for r, c in self.coeffs.items():
            kc = k * c
            if not kc.is_zero():
                coeffs[r] = kc
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


def _root_eval(alpha: RootVector, h: HVector, half_scale: Sqrt2) -> CSqrt2:
    """alpha(h) for h given in unscaled ambient coordinates; ``half_scale`` is
    the system's norm_scale / 2, as alpha's integer coords are twice its
    ambient ones."""
    total = C_ZERO
    for a_i, h_i in zip(alpha.coords, h):
        if a_i:
            total = total + h_i * a_i
    return total * half_scale


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

    x_cartan = any(not h.is_zero() for h in x.h_part)
    y_cartan = any(not h.is_zero() for h in y.h_part)
    if x_cartan or y_cartan:
        half_scale = Sqrt2(sys.norm_scale) / 2
    # [h_x, E_b] terms
    if x_cartan:
        for b, cb in y.coeffs.items():
            add_root(b, _root_eval(b, x.h_part, half_scale) * cb)
    # [E_a, h_y] terms
    if y_cartan:
        for a, ca in x.coeffs.items():
            val = _root_eval(a, y.h_part, half_scale) * ca
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
