"""Painted diagrams and the resulting isotropy/tangent root split.  A split
keeps its root-level facts on the root index: ``part`` and ``st_table`` by
id; ``m_pos_sorted`` and ``k_pos_sorted`` order the frame's root planes."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NotInTangent
from .rootsys import RootSystem, RootVector


@dataclass(frozen=True)
class PaintedDiagram:
    """A subset of simple-root indices (0-based) marked as painted.  Two
    diagrams are equal, and hash alike, when they paint the same nodes of
    the same system."""

    sys: RootSystem
    sigma_k: frozenset[int]

    def __post_init__(self):
        bad = [i for i in self.sigma_k if not 0 <= i < self.sys.rank]
        if bad:
            raise ValueError(f"painted indices out of range: {bad}")

    @staticmethod
    def of(sys: RootSystem, indices) -> "PaintedDiagram":
        indices = tuple(indices)
        if len(indices) != len(set(indices)):
            raise ValueError(f"duplicate painted indices: {indices}")
        return PaintedDiagram(sys, frozenset(indices))

    def render(self) -> str:
        return "".join("x" if i in self.sigma_k else "o" for i in range(self.sys.rank))


@dataclass(frozen=True)
class ParabolicSplit:
    """Roots split into the painted span and its complement.  Splits compare
    and hash by value: system, painted nodes and tangent roots."""

    sys: RootSystem
    sigma_k: frozenset[int]
    delta_m_pos: frozenset[RootVector]
    m_pos_sorted: tuple[RootVector, ...] = field(repr=False)
    k_pos_sorted: tuple[RootVector, ...] = field(repr=False)
    # by root id: 1 tangent positive, -1 tangent negative, 0 painted span
    part: np.ndarray = field(repr=False, compare=False)

    @property
    def v(self) -> int:
        return len(self.delta_m_pos)

    @property
    def painted_nodes(self) -> list[int]:
        """The painted nodes numbered from 1, as ``--painted`` takes them and
        the JSON reports echo them; ``sigma_k`` numbers them from 0."""
        return sorted(i + 1 for i in self.sigma_k)

    @cached_property
    def st_table(self) -> np.ndarray:
        """S/T membership of every tangent-positive x for every root d, by id
        pair (d, x): 1 when d - x is a tangent-positive root (x in S of d), 2
        when it is a positive root in the painted span (x in T), 3 when it is
        a negative root or x is d (x in T, and at or above d), 0 otherwise.
        So S is ``== 1``, T is ``>= 2`` and the roots at or above d are
        ``== 3``.  Built on first use and kept: ``int8[n, n]``, 57,600 bytes
        on E8."""
        sys, part = self.sys, self.part
        m = np.flatnonzero(part == 1)
        # by id of d - x: 1 tangent positive, 2 painted positive, 3 negative;
        # 0 at the two trailing places that the -1 and -2 sentinels read
        code = np.select([part == 1, sys.heights > 0], [1, 2], 3)
        code = np.append(code, [0, 0]).astype(np.int8)
        table = np.zeros(sys.sums.shape, dtype=np.int8)
        table[:, m] = code[sys.sums[:, sys.neg[m]].astype(np.intp)]  # d - x
        table[m, m] = 3  # d itself
        return table

    def in_k(self, root: RootVector) -> bool:
        """Whether ``root`` is a root in the painted span; False for any
        other vector."""
        sys = self.sys
        return sys.contains(root) and self.part.item(sys.id_of(root)) == 0

    def require_tangent(self, roots, message: str) -> None:
        """The tangent check: ``NotInTangent`` unless every root of the
        collection ``roots`` is a tangent-positive root.  The error text is
        ``message`` formatted with the list of the others in root order."""
        if not self.delta_m_pos.issuperset(roots):
            raise NotInTangent(message.format(sorted(set(roots) - self.delta_m_pos)))

    def to_json_dict(self) -> dict:
        return {
            "family": self.sys.family,
            "rank": self.sys.rank,
            "painted": self.painted_nodes,
            "diagram": PaintedDiagram(self.sys, self.sigma_k).render(),
            # ids follow the root order
            "delta_k": [list(self.sys.roots[i].coords) for i in np.flatnonzero(self.part == 0)],
            "delta_m_pos": [list(r.coords) for r in self.m_pos_sorted],
            "v": self.v,
        }


def split(sys: RootSystem, painted: PaintedDiagram) -> ParabolicSplit:
    """Split the roots by span membership over the painted simples."""
    if painted.sys is not sys:
        raise ValueError("painted diagram belongs to a different system")
    sigma = painted.sigma_k
    unpainted = [i for i in range(sys.rank) if i not in sigma]
    in_k = ~sys.expansion_rows[:, unpainted].any(axis=1)
    part = np.where(in_k, 0, np.sign(sys.heights)).astype(np.int8)
    roots = sys.roots
    # roots are sorted by coords, so a stable sort of the ids by height orders
    # them by (height, coords)
    by_height = np.argsort(sys.heights, kind="stable")

    def sorted_roots(mask):
        return tuple(roots[i] for i in by_height[mask[by_height]].tolist())

    k_pos = sorted_roots(in_k & (sys.heights > 0))
    m_pos = sorted_roots(part == 1)
    return ParabolicSplit(
        sys=sys,
        sigma_k=sigma,
        delta_m_pos=frozenset(m_pos),
        m_pos_sorted=m_pos,
        k_pos_sorted=k_pos,
        part=part,
    )


def borel_split(sys: RootSystem) -> ParabolicSplit:
    return split(sys, PaintedDiagram.of(sys, ()))


def verify_m_closure(sp: ParabolicSplit) -> list[tuple[RootVector, RootVector]]:
    """Counterexamples to: sums of tangent-positive roots avoid the painted span.

    Expected empty for every valid split.
    """
    m = [sp.sys.id_of(r) for r in sp.m_pos_sorted]
    s = sp.sys.sums[np.ix_(m, m)]
    bad = np.argwhere((s >= 0) & (sp.part[s] == 0))
    return [(sp.m_pos_sorted[a], sp.m_pos_sorted[b]) for a, b in bad.tolist()]
