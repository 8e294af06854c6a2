"""Combinatorics behind the geodesic index bound.

Everything here is finite, exact set logic over one root system: the support
set of an initial velocity, its superminimal element, the S/T decomposition
sets, the two admissibility conditions, the resulting invariant
ell = |S|/2 + |T|, and the short-root case analyses for the B and C families
(with their starred subsets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import (
    HypothesisViolated,
    NegativeDimension,
    NotInTangent,
    SuperminimalNotFound,
    UnsupportedDelta,
    UnsupportedFamily,
)
from .parabolic import ParabolicSplit
from .rootsys import SUPPORTED_RANKS, RootSystem, RootVector, _minus, _positive_ids, precedes


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
        bad = [r for r in self.support if not sp.in_m_pos(r)]
        if bad:
            raise NotInTangent(f"support roots outside the tangent positives: {bad}")


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
        s_set, t_set = frozenset(s_set), frozenset(t_set)
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

    Ties are broken lexicographically on coordinates.  Raises
    SuperminimalNotFound when nothing qualifies.
    """
    gamma.validate_against(sp)
    sys = sp.sys
    minus_support = sys.neg[[sys.ids[r] for r in gamma.support]]
    for delta in sorted(gamma.support):
        plus = sys.sums[sys.ids[delta]]  # by id: delta plus that root
        # no support root precedes delta (delta itself leaves zero) ...
        if _positive_ids(sys, plus[minus_support]).any():
            continue
        # ... nor does one precede a root below delta
        below = np.flatnonzero(_positive_ids(sys, plus[sys.neg]))
        if not _positive_ids(sys, sys.sums[np.ix_(below, minus_support)]).any():
            return delta
    raise SuperminimalNotFound(f"no superminimal element in {sorted(gamma.support)}")


def _st(sp: ParabolicSplit, delta: RootVector) -> tuple[set, set]:
    """S and T of a tangent-positive root: a tangent-positive x with delta - x
    a root is in S when delta - x is tangent-positive too, else in T (delta - x
    negative, or in the painted span); T also holds delta."""
    sys = sp.sys
    d = sys.ids[delta]
    m = np.flatnonzero(sp.part == 1)
    rests = sys.sums[d, sys.neg[m]]  # delta - x, for x in delta_m_pos
    root = rests >= 0
    in_s = root & (sp.part[rests] == 1)
    in_t = (root & ~in_s) | (m == d)
    return {sys.roots[x] for x in m[in_s]}, {sys.roots[x] for x in m[in_t]}


def st_sets(sp: ParabolicSplit, gamma: GammaSet, delta: RootVector) -> STSets:
    """S and T sets of a chosen support element, with ell and h."""
    gamma.validate_against(sp)
    if delta not in gamma.support:
        raise ValueError(f"{delta} is not in the support set")
    return STSets.make(delta, *_st(sp, delta))


def _plus_minus(sys: RootSystem, x: RootVector, y: RootVector, z: RootVector) -> int:
    """Id of x + y - z for three roots, or a negative sentinel.  If it is a
    root, one of x + y, x - z, y - z is a root or zero: else (x, y) >= 0,
    (x, z) <= 0 and (y, z) <= 0, so |x + y - z|^2 >= 3 short^2 > long^2."""
    sums, x, y, nz = sys.sums, sys.ids[x], sys.ids[y], sys.neg[sys.ids[z]]
    for first, second, then in ((x, y, nz), (x, nz, y), (y, nz, x)):
        s = sums[first, second]
        if s >= 0:
            return sums[s, then]
        if s == -2:
            return then
    return -1


def condition1(
    sp: ParabolicSplit, gamma: GammaSet, delta: RootVector, t_set: frozenset[RootVector]
) -> ConditionResult:
    """No two distinct non-delta T members may differ by delta minus a support root.

    The witness is the first failing beta1 in root order, then the first
    support root, so it does not depend on how the sets were built.
    """
    sys = sp.sys
    others = set(t_set) - {delta}
    support = sorted(gamma.support)
    for beta1 in sorted(others):
        for lam in support:
            beta0 = _plus_minus(sys, beta1, delta, lam)
            if beta0 >= 0 and sys.roots[beta0] != beta1 and sys.roots[beta0] in others:
                return ConditionResult(False, (sys.roots[beta0], beta1, lam))
    return ConditionResult(True, None)


def condition2(
    sp: ParabolicSplit, gamma: GammaSet, delta: RootVector, s_set: frozenset[RootVector]
) -> ConditionResult:
    """Sums of two S members meet the support exactly in delta.

    The witness is the first failing S member in root order, then the first
    support root, so it does not depend on how the sets were built.
    """
    sys = sp.sys
    if s_set and delta not in gamma.support:
        alpha = min(s_set)
        return ConditionResult(False, (alpha, delta - alpha, delta))
    support = sorted(gamma.support - {delta})
    for alpha in sorted(s_set):
        for lam in support:
            beta = _minus(sys, lam, alpha)
            if beta >= 0 and sys.roots[beta] in s_set:
                return ConditionResult(False, (alpha, sys.roots[beta], lam))
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
    r = sys.rank
    for j in range(i + 1, r):
        if _e_vector(sys, j) in gamma.support:
            raise ValueError("a later short basis root is in the support; "
                             "the chosen index must be the largest")
    for lam in gamma.support:
        shape = _c_delta_shape(lam)
        if shape and shape[0] == "minus":
            raise ValueError(f"{lam} in the support admits a long superminimal")
        if shape and shape[0] == "plus" and shape[1] > i:
            raise ValueError(f"{lam} in the support admits a long superminimal")
    for k in range(i + 1, r):
        ek = _e_vector(sys, k)
        if sp.in_k(ek):
            raise HypothesisViolated(
                f"basis root {ek} lies in the painted span; "
                "perturb the velocity along it and retry"
            )
    u_set = {b for b in sp.delta_m_pos if b == delta or precedes(sys, delta, b)}
    v_set = {
        _e_vector(sys, b) for b in range(i + 1, r)
        if _e_vector(sys, b) in sp.delta_m_pos and (delta - _e_vector(sys, b)) in sp.delta_k_pos
    }
    s_set = _st(sp, delta)[0]
    allowed = {x for l in range(i + 1, r) for x in (delta - _e_vector(sys, l), _e_vector(sys, l))}
    if not s_set <= allowed:
        raise RuntimeError(f"unexpected S membership: {sorted(s_set - allowed)}")
    sets = STSets.make(delta, s_set, u_set | v_set)
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
