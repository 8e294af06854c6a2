"""Exact construction of the A/B/C/D/E root systems.

Coordinates are ambient Euclidean coordinates scaled by a global factor of 2
and stored as integers, so the half-integer entries of the E series stay
exact.  The normalized bilinear form fixes every long root at squared length
2; for the C family that requires a 1/2 scale on the raw dot product.

The positive roots and their expansions come from a walk up from the simple
roots, adding one simple root at a time while the sum stays in the ambient
enumeration (E8's for E6 and E7, whose roots are the walk's closure).  Each
system carries one integer root index that the exact code shares: a root's
id is its position in ``roots``; ``neg``, ``heights`` and the sum table
``sums`` are indexed by id, and ``sums[i, j]`` is -1 when the sum is not a
root and -2 when it is zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, UnsupportedFamily

SUPPORTED_RANKS = {
    "A": range(1, 9),
    "B": range(2, 9),
    "C": range(3, 9),
    "D": range(4, 9),
    "E": (6, 7, 8),
}


@dataclass(frozen=True, order=True)
class RootVector:
    """A root in scaled integer coordinates (2x the ambient coordinates).

    The hash is computed once per instance and equals the dataclass value
    ``hash((coords,))``, so sets and dicts of roots iterate in the same order.
    """

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.coords,)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    @property
    def ambient_dim(self) -> int:
        return len(self.coords)

    def __add__(self, other: "RootVector") -> "RootVector":
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch("ambient dimensions differ")
        return RootVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "RootVector") -> "RootVector":
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch("ambient dimensions differ")
        return RootVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "RootVector":
        return RootVector(tuple(-a for a in self.coords))

    def scale(self, k: int) -> "RootVector":
        return RootVector(tuple(k * a for a in self.coords))

    def unscaled(self) -> tuple[Fraction, ...]:
        """Ambient coordinates as exact rationals."""
        return tuple(Fraction(c, 2) for c in self.coords)

    def __repr__(self) -> str:
        return f"RootVector({self.coords})"


def _dot_scaled(x: RootVector, y: RootVector) -> int:
    return sum(a * b for a, b in zip(x.coords, y.coords))


@dataclass(frozen=True)
class RootSystem:
    """Finite crystallographic root system with exact arithmetic."""

    family: str
    rank: int
    ambient_dim: int
    norm_scale: Fraction
    roots: tuple[RootVector, ...]
    positives: tuple[RootVector, ...]
    simples: tuple[RootVector, ...]
    # coefficients of each root over the simple roots, by root
    expansions: dict[RootVector, tuple[int, ...]] = field(repr=False)
    # the root index: id of each root, and by id its negative, height and sums
    ids: dict[RootVector, int] = field(repr=False)
    neg: np.ndarray = field(repr=False, compare=False)
    heights: np.ndarray = field(repr=False, compare=False)
    sums: np.ndarray = field(repr=False, compare=False)

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def contains(self, x: RootVector) -> bool:
        return x in self.ids

    def is_positive(self, x: RootVector) -> bool:
        i = self.ids.get(x)
        return i is not None and self.heights[i] > 0

    def height(self, x: RootVector) -> int:
        return sum(self.expansions[x])

    def to_json_dict(self) -> dict:
        scale = self.norm_scale
        return {
            "family": self.family,
            "rank": self.rank,
            "scale": str(scale) if scale.denominator != 1 else str(scale.numerator),
            "simples": [list(s.coords) for s in self.simples],
            "positives": [list(p.coords) for p in self.positives],
        }


def _check_supported(family: str, rank: int) -> None:
    fam = family.upper()
    if fam not in SUPPORTED_RANKS:
        raise UnsupportedFamily(f"family {family!r} is not supported")
    if rank not in SUPPORTED_RANKS[fam]:
        raise UnsupportedFamily(f"{fam}_{rank} is outside the supported range")


def _enumerate_scaled_roots(family: str, rank: int) -> tuple[int, list[RootVector]]:
    """Return (ambient_dim, all roots) in scaled integer coordinates: e_i - e_j
    for A; +-e_i +- e_j for B, C, D and E, with +-e_i for B, +-2 e_i for C and
    the spinors (+-1/2, ..., +-1/2) with an even number of minus signs for E."""
    dim = {"A": rank + 1, "E": 8}.get(family, rank)
    signs = ((2, -2), (-2, 2)) if family == "A" else tuple(itertools.product((2, -2), repeat=2))
    out: list[tuple[int, ...]] = []
    for i, j in itertools.combinations(range(dim), 2):
        for si, sj in signs:
            v = [0] * dim
            v[i], v[j] = si, sj
            out.append(tuple(v))
    if family in ("B", "C"):
        length = 2 if family == "B" else 4
        out += [tuple(s * length * (k == i) for k in range(dim))
                for i in range(dim) for s in (1, -1)]
    if family == "E":
        out += [s for s in itertools.product((1, -1), repeat=8) if s.count(-1) % 2 == 0]
    return dim, [RootVector(v) for v in out]


def _simple_roots(family: str, rank: int, dim: int) -> list[RootVector]:
    def vec(*entries: tuple[int, int]) -> RootVector:
        v = [0] * dim
        for i, c in entries:
            v[i] = c
        return RootVector(tuple(v))

    if family == "E":
        # Standard reference-table ordering in 8 ambient coordinates.
        return ([RootVector((1, -1, -1, -1, -1, -1, -1, 1)), vec((0, 2), (1, 2))]
                + [vec((i, -2), (i + 1, 2)) for i in range(rank - 2)])
    chain = [vec((i, 2), (i + 1, -2)) for i in range(rank if family == "A" else rank - 1)]
    last = {"A": [], "B": [vec((rank - 1, 2))], "C": [vec((rank - 1, 4))],
            "D": [vec((rank - 2, 2), (rank - 1, 2))]}[family]
    return chain + last


def _walk(simples: list[RootVector], ambient: frozenset[RootVector]) -> dict:
    """Positive roots with their expansions, by height: each root of the next
    height is one of this height plus a simple root, inside ``ambient``."""
    rank = len(simples)
    expansions = {s: tuple(int(i == l) for i in range(rank)) for l, s in enumerate(simples)}
    layer = list(simples)
    while layer:
        above = []
        for root in layer:
            for l, s in enumerate(simples):
                up = root + s
                if up in ambient and up not in expansions:
                    expansions[up] = tuple(c + (i == l) for i, c in enumerate(expansions[root]))
                    above.append(up)
        layer = above
    return expansions


def _sum_table(roots: tuple[RootVector, ...]) -> np.ndarray:
    """``sums[i, j]``: id of roots[i] + roots[j], -1 for no root, -2 for zero.

    Found through linear keys: base-17 signed digits hold every scaled
    coordinate of a sum of two roots (at most 8 in size), so two such sums are
    equal exactly when their keys are.  One ``searchsorted`` looks up every
    key sum among the sorted root keys; no root has the key 0.
    """
    keys = np.array([r.coords for r in roots]) @ 17 ** np.arange(len(roots[0].coords))
    order = np.argsort(keys, kind="stable")
    pairs = keys[:, None] + keys
    found = order[np.searchsorted(keys[order], pairs).clip(max=len(keys) - 1)]
    table = np.where(keys[found] == pairs, found, -1).astype(np.int16)
    table[pairs == 0] = -2
    return table


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system for a supported family/rank pair."""
    fam = family.upper()
    _check_supported(fam, rank)
    dim, ambient = _enumerate_scaled_roots(fam, rank)
    simples = _simple_roots(fam, rank, dim)
    walked = _walk(simples, frozenset(ambient))
    if fam == "E" and rank < 8:
        ambient = [r for p in walked for r in (p, -p)]  # the walk's closure
    if 2 * len(walked) != len(ambient):
        raise ValueError(f"the simple-root walk reached {len(walked)} positive roots "
                         f"of {len(ambient)} roots")
    roots = tuple(sorted(ambient))
    expansions = {r: walked[r] if r in walked else tuple(-c for c in walked[-r])
                  for r in roots}
    ids = {r: i for i, r in enumerate(roots)}
    return RootSystem(
        family=fam,
        rank=rank,
        ambient_dim=dim,
        norm_scale=Fraction(1, 2) if fam == "C" else Fraction(1),
        roots=roots,
        # the instances in roots, so lookups by them hit __eq__'s identity test
        positives=tuple(r for r in roots if r in walked),
        simples=tuple(roots[ids[s]] for s in simples),
        expansions=expansions,
        ids=ids,
        neg=np.array([ids[-r] for r in roots]),
        heights=np.array([sum(expansions[r]) for r in roots]),
        sums=_sum_table(roots),
    )


def _minus(sys: RootSystem, x: RootVector, y: RootVector) -> int:
    """Id of x - y for two roots, or a -1/-2 sentinel."""
    return sys.sums[sys.ids[x], sys.neg[sys.ids[y]]]


def _positive_ids(sys: RootSystem, ids) -> np.ndarray:
    """Mask of the entries of an id array that are positive roots (no sentinel is)."""
    ids = np.asarray(ids)
    return (ids >= 0) & (sys.heights[ids] > 0)


def inner(sys: RootSystem, x: RootVector, y: RootVector) -> Fraction:
    """Normalized inner product; long roots have (x, x) = 2."""
    if x.ambient_dim != sys.ambient_dim or y.ambient_dim != sys.ambient_dim:
        raise DimensionMismatch("vector does not match the system's ambient space")
    return sys.norm_scale * Fraction(_dot_scaled(x, y), 4)


def is_root(sys: RootSystem, x: RootVector) -> bool:
    return sys.contains(x)


def add(sys: RootSystem, x: RootVector, y: RootVector) -> Optional[RootVector]:
    """Sum of two roots when it is again a root, else None."""
    s = sys.sums[sys.ids[x], sys.ids[y]]
    return sys.roots[s] if s >= 0 else None


def precedes(sys: RootSystem, alpha: RootVector, delta: RootVector) -> bool:
    """The non-partial ordering: alpha < delta iff delta - alpha is positive."""
    return bool(_positive_ids(sys, _minus(sys, delta, alpha)))


def is_long(sys: RootSystem, alpha: RootVector) -> bool:
    """Whether (alpha, alpha) = 2, compared in ints: norm_scale * |scaled|^2 / 4 = 2."""
    if alpha.ambient_dim != sys.ambient_dim:
        raise DimensionMismatch("vector does not match the system's ambient space")
    scale = sys.norm_scale
    return _dot_scaled(alpha, alpha) * scale.numerator == 8 * scale.denominator


def long_roots(sys: RootSystem) -> tuple[RootVector, ...]:
    return tuple(r for r in sys.roots if is_long(sys, r))


def reflect(sys: RootSystem, beta: RootVector, alpha: RootVector) -> RootVector:
    """Reflection of beta through the hyperplane orthogonal to alpha."""
    num = 2 * inner(sys, beta, alpha) / inner(sys, alpha, alpha)
    if num.denominator != 1:
        raise ValueError("non-integral Cartan coefficient; inputs are not roots")
    result = beta - alpha.scale(int(num))
    if not sys.contains(result):
        raise ValueError(f"reflection left the root set: {result}")
    return result


def long_orbit_is_transitive(sys: RootSystem) -> bool:
    """Whether reflections generate a single orbit on the long roots."""
    longs = set(long_roots(sys))
    start = next(iter(sorted(longs)))
    orbit = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for s in sys.simples:
            image = reflect(sys, current, s)
            if image in longs and image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit == longs


def w_set(sys: RootSystem, delta: RootVector) -> frozenset[RootVector]:
    """All roots alpha such that delta - alpha is again a root."""
    rests = sys.sums[sys.ids[delta], sys.neg]
    return frozenset(sys.roots[a] for a in np.flatnonzero(rests >= 0))


def w_pairs(sys: RootSystem, delta: RootVector) -> frozenset[frozenset[RootVector]]:
    """Unordered root pairs {alpha, beta} with alpha + beta = delta."""
    rests = sys.sums[sys.ids[delta], sys.neg]
    return frozenset(frozenset((sys.roots[a], sys.roots[rests[a]]))
                     for a in np.flatnonzero(rests >= 0))


def w_pair_count(sys: RootSystem, delta: RootVector) -> int:
    return len(w_pairs(sys, delta))
