"""Exact construction of the A/B/C/D/E root systems.

Coordinates are ambient Euclidean coordinates scaled by a global factor of 2
and stored as integers, so the half-integer entries of the E series stay
exact.  The normalized bilinear form fixes every long root at squared length
2; for the C family that requires a 1/2 scale on the raw dot product.

The positive roots and their expansions come from a walk up from the simple
roots, adding one simple root at a time while the sum stays in the ambient
enumeration (E8's for E6 and E7, whose roots are the walk's closure).  The
walk, the negatives and the sum table work on integer keys of the
coordinates (``_keys``), so no step builds a ``RootVector``.  Each
system carries one integer root index that the exact code shares: a root's
id is its position in ``roots``; ``neg``, ``heights``, ``expansion_rows``,
``long`` and the sum table ``sums`` are indexed by id, and ``sums[i, j]`` is
-1 when the sum is not a root and -2 when it is zero.  A root argument
becomes an id only through ``RootSystem.id_of``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NotARoot, UnsupportedFamily

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


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Finite crystallographic root system with exact arithmetic.  Systems
    compare and hash by identity: ``build_root_system`` makes one per family
    and rank."""

    family: str
    rank: int
    ambient_dim: int
    norm_scale: Fraction
    roots: tuple[RootVector, ...]
    positives: tuple[RootVector, ...]
    simples: tuple[RootVector, ...]
    # the root index: id of each root, and by id its negative, height, sums,
    # expansion (int[n, rank]) and whether it is long
    ids: dict[RootVector, int] = field(repr=False)
    neg: np.ndarray = field(repr=False)
    heights: np.ndarray = field(repr=False)
    sums: np.ndarray = field(repr=False)
    expansion_rows: np.ndarray = field(repr=False)
    long: np.ndarray = field(repr=False)

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def contains(self, x: RootVector) -> bool:
        return x in self.ids

    def id_of(self, root: RootVector) -> int:
        """Id of a root of the system, the one way from a root argument to
        the root index: ``DimensionMismatch`` for a vector of another ambient
        space, ``NotARoot`` for any other vector that is not a root."""
        i = self.ids.get(root)
        if i is None:
            if root.ambient_dim != self.ambient_dim:
                raise DimensionMismatch("root does not match the system")
            raise NotARoot(f"{root.coords} is not a root of {self.name}")
        return i

    def is_positive(self, x: RootVector) -> bool:
        """Whether ``x`` is a positive root; False for any other vector."""
        return self.contains(x) and self.heights[self.id_of(x)] > 0

    def height(self, x: RootVector) -> int:
        return int(self.heights[self.id_of(x)])

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


def _keys(coords) -> np.ndarray:
    """Linear keys of integer vectors (rows of ``coords``): base-17 signed
    digits hold every scaled coordinate of a root or of a sum of two roots (at
    most 8 in size), so two such vectors are equal exactly when their keys
    are, and the key of a sum or negative is the sum or negative of keys."""
    coords = np.asarray(coords)
    return coords @ 17 ** np.arange(coords.shape[-1])


def _walk(simples: list[int], ambient) -> dict[int, tuple[int, ...]]:
    """Keys of the positive roots with their expansions, by height: each root
    of the next height is one of this height plus a simple root, with its key
    in ``ambient``."""
    rank = len(simples)
    expansions = {s: tuple(int(i == l) for i in range(rank)) for l, s in enumerate(simples)}
    layer = list(simples)
    while layer:
        above = []
        for key in layer:
            row = expansions[key]
            for l, s in enumerate(simples):
                up = key + s
                if up in ambient and up not in expansions:
                    expansions[up] = (*row[:l], row[l] + 1, *row[l + 1:])
                    above.append(up)
        layer = above
    return expansions


def _sum_table(keys: np.ndarray) -> np.ndarray:
    """``sums[i, j]``: id of roots[i] + roots[j], -1 for no root, -2 for zero,
    from the roots' keys.  One ``searchsorted`` looks up every key sum among
    the sorted root keys; no root has the key 0."""
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
    by_key = dict(zip(_keys([r.coords for r in ambient]).tolist(), ambient))
    simple_keys = _keys([s.coords for s in _simple_roots(fam, rank, dim)]).tolist()
    walked = _walk(simple_keys, by_key)
    if fam == "E" and rank < 8:
        by_key = {k: by_key[k] for p in walked for k in (p, -p)}  # the walk's closure
    if 2 * len(walked) != len(by_key):
        raise ValueError(f"the simple-root walk reached {len(walked)} positive roots "
                         f"of {len(by_key)} roots")
    roots = tuple(sorted(by_key.values(), key=lambda r: r.coords))
    coords = np.array([r.coords for r in roots])
    keys = _keys(coords)
    key_list = keys.tolist()
    id_of = dict(zip(key_list, range(len(roots))))
    neg = np.array([id_of[-k] for k in key_list])
    positive = np.array([k in walked for k in key_list])
    # a negative root's expansion is minus its negative's
    expansion_rows = np.array([walked.get(k) or walked[-k] for k in key_list], dtype=np.int8)
    expansion_rows[~positive] *= -1
    ids = dict(zip(roots, range(len(roots))))
    norm_scale = Fraction(1, 2) if fam == "C" else Fraction(1)
    # (r, r) = norm_scale * |scaled r|^2 / 4 = 2, in ints
    squares = np.square(coords).sum(axis=1)
    return RootSystem(
        family=fam,
        rank=rank,
        ambient_dim=dim,
        norm_scale=norm_scale,
        roots=roots,
        # the instances in roots, so lookups by them hit __eq__'s identity test
        positives=tuple(roots[i] for i in np.flatnonzero(positive).tolist()),
        simples=tuple(roots[id_of[k]] for k in simple_keys),
        ids=ids,
        neg=neg,
        heights=expansion_rows.sum(axis=1),
        sums=_sum_table(keys),
        expansion_rows=expansion_rows,
        long=squares * norm_scale.numerator == 8 * norm_scale.denominator,
    )


def _minus(sys: RootSystem, x: RootVector, y: RootVector) -> int:
    """Id of x - y for two roots, or a -1/-2 sentinel."""
    return sys.sums[sys.id_of(x), sys.neg[sys.id_of(y)]]


def _positive_ids(sys: RootSystem, ids) -> np.ndarray:
    """Mask of the entries of an id array that are positive roots (no sentinel is)."""
    ids = np.asarray(ids)
    return (ids >= 0) & (sys.heights[ids] > 0)


def inner(sys: RootSystem, x: RootVector, y: RootVector) -> Fraction:
    """Normalized inner product; long roots have (x, x) = 2."""
    if x.ambient_dim != sys.ambient_dim or y.ambient_dim != sys.ambient_dim:
        raise DimensionMismatch("vector does not match the system's ambient space")
    return sys.norm_scale * Fraction(sum(a * b for a, b in zip(x.coords, y.coords)), 4)


def add(sys: RootSystem, x: RootVector, y: RootVector) -> Optional[RootVector]:
    """Sum of two roots when it is again a root, else None."""
    s = sys.sums[sys.id_of(x), sys.id_of(y)]
    return sys.roots[s] if s >= 0 else None


def precedes(sys: RootSystem, alpha: RootVector, delta: RootVector) -> bool:
    """The non-partial ordering: alpha < delta iff delta - alpha is positive."""
    return bool(_positive_ids(sys, _minus(sys, delta, alpha)))


def is_long(sys: RootSystem, alpha: RootVector) -> bool:
    """Whether the root alpha has (alpha, alpha) = 2, looked up by id."""
    return bool(sys.long[sys.id_of(alpha)])


def long_roots(sys: RootSystem) -> tuple[RootVector, ...]:
    return tuple(r for r, flag in zip(sys.roots, sys.long) if flag)


def reflect(sys: RootSystem, beta: RootVector, alpha: RootVector) -> RootVector:
    """Reflection of the root beta through the hyperplane orthogonal to the
    root alpha; for two roots the Cartan number is an integer and the image
    is again a root."""
    sys.id_of(beta)
    sys.id_of(alpha)
    num = 2 * inner(sys, beta, alpha) / inner(sys, alpha, alpha)
    return beta - alpha.scale(int(num))


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
    rests = sys.sums[sys.id_of(delta), sys.neg]
    return frozenset(sys.roots[a] for a in np.flatnonzero(rests >= 0))


def w_pair_count(sys: RootSystem, delta: RootVector) -> int:
    """Unordered root pairs {alpha, beta} with alpha + beta = delta: no root
    is twice a root, so each pair puts two distinct roots in ``w_set``."""
    return len(w_set(sys, delta)) // 2
