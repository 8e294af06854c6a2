"""Combinatorics behind the geodesic index bound.

Everything here is finite, exact set logic over one root system: the support
set of an initial velocity, its superminimal element, the S/T decomposition
sets, the two admissibility conditions, the resulting invariant
ell = |S|/2 + |T|, and the short-root case analyses for the B and C families
(with their starred subsets).

The logic runs on root ids, read from ``sums``, ``st_table`` and ``part``;
roots are built only for the returned sets and witnesses.  The S/T sets of
every root of a split are one table, ``ParabolicSplit.st_table``, built once
per split; a set is one row of it.  Condition 1 scans the support without
delta, by the identity beta1 + delta - delta = beta1: that term is never a
second T member.  So both conditions hold at once when delta is the only
support root, as it is for every singleton support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import HypothesisViolated, NegativeDimension, UnsupportedDelta, UnsupportedFamily
from .parabolic import ParabolicSplit
from .rootsys import SUPPORTED_RANKS, RootSystem, RootVector, _positive_ids


@dataclass(frozen=True)
class GammaSet:
    """Root support of an initial velocity."""

    support: frozenset[RootVector]

    def __post_init__(self):
        if not self.support:
            raise ValueError("support must be nonempty")

    @staticmethod
    def of(roots: Iterable[RootVector]) -> "GammaSet":
        return GammaSet(frozenset(roots))

    @staticmethod
    def singleton(delta: RootVector) -> "GammaSet":
        return GammaSet(frozenset((delta,)))

    def validate_against(self, sp: ParabolicSplit) -> None:
        sp.require_tangent(self.support, "support roots outside the tangent positives: {}")


@dataclass(frozen=True)
class STSets:
    """The S/T decomposition sets for one chosen root, starred or not."""

    delta: RootVector
    s_set: frozenset[RootVector]
    t_set: frozenset[RootVector]
    ell: int
    h: int
    starred: bool = False

    @staticmethod
    def make(delta: RootVector, s_set, t_set, starred: bool = False) -> "STSets":
        s_set, t_set = frozenset(s_set), frozenset(t_set)  # no copy of a frozenset
        if len(s_set) % 2:
            raise ValueError(f"odd S set for {delta}: {sorted(s_set)}")
        if delta not in t_set:
            raise ValueError(f"T set for {delta} does not contain it")
        h = len(s_set) // 2
        return STSets(delta, s_set, t_set, h + len(t_set), h, starred)


class ConditionResult(NamedTuple):
    ok: bool
    witness: Optional[tuple]

    def __bool__(self) -> bool:
        return self.ok


def superminimal(sp: ParabolicSplit, gamma: GammaSet) -> RootVector:
    """A minimal support element with no two-step predecessor chain in the support.

    Ties are broken lexicographically on coordinates: the first qualifying
    root in id order.  Some root always qualifies: a support root that
    precedes delta, or precedes a root below delta, is lower than delta, so
    nothing disqualifies the support root of least height.
    """
    gamma.validate_against(sp)
    sys = sp.sys
    ids = sorted([sys.id_of(r) for r in gamma.support])
    # by id: whether a support root precedes the root, and by (d, mu) whether
    # mu is below the support root d
    preceded = _positive_ids(sys, sys.sums[:, sys.neg[ids]]).any(axis=1)
    below = _positive_ids(sys, sys.sums[np.ix_(ids, sys.neg)])
    qualifies = ~preceded[ids] & ~(below & preceded).any(axis=1)
    return sys.roots[ids[qualifies.argmax()]]


def _members(sp: ParabolicSplit, mask: np.ndarray) -> frozenset[RootVector]:
    roots = sp.sys.roots
    return frozenset([roots[x] for x in mask.nonzero()[0].tolist()])


def st_sets(sp: ParabolicSplit, gamma: GammaSet, delta: RootVector) -> STSets:
    """S and T sets of a chosen support element, with ell and h, from one row
    of the split's table: a tangent-positive x with delta - x a root is in S
    when delta - x is tangent-positive too, else in T (delta - x negative, or
    in the painted span); T also holds delta."""
    gamma.validate_against(sp)
    if delta not in gamma.support:
        raise ValueError(f"{delta} is not in the support set")
    row = sp.st_table[sp.sys.id_of(delta)]
    return STSets.make(delta, _members(sp, row == 1), _members(sp, row >= 2))


def _plus_minus(sys: RootSystem, x: int, y: int, z: int) -> int:
    """Id of x + y - z for three root ids, or a negative sentinel.  If it is a
    root, one of x + y, x - z, y - z is a root or zero: else (x, y) >= 0,
    (x, z) <= 0 and (y, z) <= 0, so |x + y - z|^2 >= 3 short^2 > long^2."""
    sums, nz = sys.sums, sys.neg.item(z)
    for first, second, then in ((x, y, nz), (x, nz, y), (y, nz, x)):
        s = sums.item(first, second)
        if s >= 0:
            return sums.item(s, then)
        if s == -2:
            return then
    return -1


def condition1(
    sp: ParabolicSplit, gamma: GammaSet, delta: RootVector, t_set: frozenset[RootVector]
) -> ConditionResult:
    """No two distinct non-delta T members may differ by delta minus a support root.

    The scan skips the support root delta itself, since beta1 + delta - delta
    = beta1 is never a second member; so a support of delta alone holds at
    once.  The witness is the first failing beta1 in root order, then the
    first support root, so it does not depend on how the sets were built.
    Raises ``NotInTangent`` when the support or T leaves the tangent
    positives, and ``NotARoot`` when delta is not a root.
    """
    gamma.validate_against(sp)
    sp.require_tangent(t_set, "T set roots outside the tangent positives: {}")
    rest = gamma.support - {delta}
    if not rest:
        return ConditionResult(True, None)
    sys = sp.sys
    id_of, roots, d = sys.id_of, sys.roots, sys.id_of(delta)
    others = {id_of(r) for r in t_set} - {d}
    support = sorted([id_of(r) for r in rest])
    for beta1 in sorted(others):
        for lam in support:
            beta0 = _plus_minus(sys, beta1, d, lam)
            if beta0 != beta1 and beta0 in others:
                return ConditionResult(False, (roots[beta0], roots[beta1], roots[lam]))
    return ConditionResult(True, None)


def condition2(
    sp: ParabolicSplit, gamma: GammaSet, delta: RootVector, s_set: frozenset[RootVector]
) -> ConditionResult:
    """Sums of two S members meet the support exactly in delta.

    The witness is the first failing S member in root order, then the first
    support root, so it does not depend on how the sets were built.  Raises
    ``NotInTangent`` when the support or S leaves the tangent positives, and
    ``NotARoot`` when delta is not a root.
    """
    gamma.validate_against(sp)
    sp.require_tangent(s_set, "S set roots outside the tangent positives: {}")
    sys = sp.sys
    sys.id_of(delta)  # the root check, before any shortcut
    if s_set and delta not in gamma.support:
        alpha = min(s_set)
        return ConditionResult(False, (alpha, delta - alpha, delta))
    rest = gamma.support - {delta}
    if not rest:  # delta is the only support root
        return ConditionResult(True, None)
    id_of, roots, sums, neg = sys.id_of, sys.roots, sys.sums, sys.neg
    members = {id_of(r) for r in s_set}
    support = sorted([id_of(r) for r in rest])
    for alpha in sorted(members):
        minus = neg.item(alpha)
        for lam in support:
            beta = sums.item(lam, minus)
            if beta in members:
                return ConditionResult(False, (roots[alpha], roots[beta], roots[lam]))
    return ConditionResult(True, None)


def _require_dimensions(m: int, n: int) -> None:
    if m < 0 or n < 0:
        raise NegativeDimension(f"m and n must be non-negative dimensions, got {m} and {n}")


def index_lower_bound(m: int, n: int, v: int, ell: int) -> int:
    """Geodesic index lower bound; may be non-positive (then uninformative)."""
    _require_dimensions(m, n)
    return m + n - (v - ell) - v + 1


def min_intersection_dim(m: int, n: int, v: int, ell: int, h: int) -> int:
    """Dimension-count arithmetic for the admissible variation space."""
    _require_dimensions(m, n)
    return m + ell + h - v + n - v + 1


@dataclass(frozen=True)
class EllRow:
    family: str
    rank: int
    ell: int
    special: bool = False
    note: str = ""


def ell_table(family: str, rank: int, special: bool = False) -> EllRow:
    """Closed-form value of the invariant ell per family, with the two
    documented improvements behind the ``special`` flag."""
    fam = family.upper()
    if fam not in SUPPORTED_RANKS or rank not in SUPPORTED_RANKS[fam]:
        raise UnsupportedFamily(f"{family}_{rank} is not supported")
    if fam == "A":
        return EllRow(fam, rank, rank)
    if fam == "B":
        if special:
            return EllRow(fam, rank, 2 * rank - 1, True, "all long simples painted")
        return EllRow(fam, rank, 2 * rank - 2)
    if fam == "C":
        if special:
            return EllRow(fam, rank, 2 * rank - 1, True,
                          "maximal parabolic over the odd projective space")
        return EllRow(fam, rank, rank)
    if fam == "D":
        return EllRow(fam, rank, 2 * rank - 3)
    return EllRow(fam, rank, {6: 11, 7: 17, 8: 29}[rank])


# ---------------------------------------------------------------------------
# short-root case analyses for the B and C families


def _e_vector(sys: RootSystem, i: int) -> RootVector:
    coords = [0] * sys.ambient_dim
    coords[i] = 2
    return RootVector(tuple(coords))


def _short_b_index(sys: RootSystem, delta: RootVector) -> Optional[int]:
    nz = [(i, c) for i, c in enumerate(delta.coords) if c]
    if len(nz) == 1 and nz[0][1] == 2:
        return nz[0][0]
    return None


def _c_delta_shape(delta: RootVector) -> Optional[tuple[str, int, int]]:
    nz = [(i, c) for i, c in enumerate(delta.coords) if c]
    if len(nz) != 2:
        return None
    (i, ci), (j, cj) = nz
    if ci == 2 and cj == -2:
        return ("minus", i, j)
    if ci == 2 and cj == 2:
        return ("plus", i, j)
    return None


def _verify_conditions(sp, gamma, delta, sets: STSets, context: str) -> None:
    c1 = condition1(sp, gamma, delta, sets.t_set)
    c2 = condition2(sp, gamma, delta, sets.s_set)
    if not c1 or not c2:
        raise RuntimeError(
            f"{context}: conditions failed unexpectedly "
            f"(c1={c1.witness}, c2={c2.witness})"
        )


def b_case_sets(sp: ParabolicSplit, gamma: GammaSet, delta: RootVector) -> STSets:
    """Short-root sets for the B family, valid when no basis short root above
    the chosen index lies in the painted span."""
    sys = sp.sys
    if sys.family != "B":
        raise UnsupportedFamily("short-root case analysis is for the B family")
    gamma.validate_against(sp)
    i = _short_b_index(sys, delta)
    if i is None:
        raise UnsupportedDelta(f"{delta} is not a short basis root")
    if delta not in gamma.support:
        raise ValueError(f"{delta} is not in the support set")
    later = [_e_vector(sys, b) for b in range(i + 1, sys.rank)]
    if any(e in gamma.support for e in later):
        raise ValueError("a later short basis root is in the support; "
                         "the chosen index must be the largest")
    for lam in gamma.support:
        shape = _c_delta_shape(lam)
        if shape and shape[0] == "minus":
            raise ValueError(f"{lam} in the support admits a long superminimal")
        if shape and shape[0] == "plus" and shape[1] > i:
            raise ValueError(f"{lam} in the support admits a long superminimal")
    for ek in later:
        if sp.in_k(ek):
            raise HypothesisViolated(
                f"basis root {ek} lies in the painted span; "
                "perturb the velocity along it and retry"
            )
    d = sys.id_of(delta)
    row = sp.st_table[d]
    t_mask = row == 3  # U: delta, and the tangent roots above it
    # every later e is tangent positive here, and delta - e is a positive root
    later_ids = [sys.id_of(e) for e in later]
    rests = sys.sums[d, sys.neg[later_ids]].tolist()
    t_mask[[e for e, rest in zip(later_ids, rests) if sp.part[rest] == 0]] = True  # V
    s_ids = np.flatnonzero(row == 1).tolist()
    if not {*later_ids, *rests}.issuperset(s_ids):
        bad = [sys.roots[x] for x in s_ids if x not in later_ids + rests]
        raise RuntimeError(f"unexpected S membership: {bad}")
    sets = STSets.make(delta, _members(sp, row == 1), _members(sp, t_mask))
    _verify_conditions(sp, gamma, delta, sets, "B short-root case")
    return sets


def c_case_starred_sets(sp: ParabolicSplit, gamma: GammaSet, delta: RootVector) -> STSets:
    """Starred subsets for the C family's two short superminimal shapes."""
    sys = sp.sys
    if sys.family != "C":
        raise UnsupportedFamily("starred-set case analysis is for the C family")
    gamma.validate_against(sp)
    shape = _c_delta_shape(delta)
    if shape is None:
        raise UnsupportedDelta(f"{delta} is neither of the two short shapes")
    if delta not in gamma.support:
        raise ValueError(f"{delta} is not in the support set")
    kind, i, j = shape
    r = sys.rank
    e = lambda idx: _e_vector(sys, idx)
    if kind == "minus":
        u_set = {e(k) - e(j) for k in range(i)}
        u_set |= {e(i) - e(k) for k in range(j + 1, r)}
        u_set |= {e(i).scale(2), delta}
        v_set = {e(l) - e(j) for l in range(i + 1, j)}
        v_set |= {e(i) - e(l) for l in range(i + 1, j)}
    else:
        for lam in gamma.support:
            sh = _c_delta_shape(lam)
            if sh and sh[0] == "minus":
                raise ValueError(
                    f"{lam} in the support calls for the difference-shape case"
                )
        u_set = {e(k) + e(j) for k in range(i)}
        u_set |= {e(i).scale(2), delta}
        v_set = {e(j) + e(l) for l in range(i + 1, r) if l != j}
        v_set |= {e(i) - e(l) for l in range(i + 1, r) if l != j}
    general = st_sets(sp, gamma, delta)
    t_star = general.t_set & (u_set | v_set)
    s_star = general.s_set & v_set
    sets = STSets.make(delta, s_star, t_star, starred=True)
    _verify_conditions(sp, gamma, delta, sets, "C starred case")
    return sets
