"""Numeric geometry of the compact real form.

A frame packages the ordered real basis (Cartan block, isotropy root planes,
tangent root planes, each plane found by root id through ``slot``), its sparse
structure-constant plan and its metric.  The complex structure J, a quarter
turn on each tangent plane, is not stored: every J is ``_apply_j``, a swap of
each plane's two coordinates with one sign flip.  The plan lists the nonzero
constants ``[e_i, e_j] = c e_k`` as index arrays, built as whole arrays over
the root index: the sum table gives the root pairs, and the Chevalley table
the float64 of each exact constant, rounded once.  Every bracket, adjoint
matrix and identity check contracts through that one plan.
Every tensor along a geodesic is reduced to constant coefficients in this
frame, so transport is a single matrix exponential and all the pointwise
identities become finite-dimensional residual checks.  Each frame also builds,
once and on first use, one table of the pair spaces S0(delta) of the
tangent-positive roots, stacked over all pairs in delta order (``PairTable``):
each space is a slice of it, and each pair holds four 4x4 blocks read off the
plan by key, ad(X_delta), ad(Y_delta) and the X_delta and Y_delta parts of
the pair's own brackets.  The quarter-turn map reads a slice instead of full
adjoint matrices; the twomel checks decide their identities on every pair's
4x4 blocks at once: the block identities at three angles (a, b), the pair
bound as the largest eigenvalue of one form per pair, at one drawn (a, b)
per pair space.  It also builds, once and on first use, the tangent brackets
cut into 2x2 blocks over planes (``PlaneBlocks``): J acts inside each plane,
so a bilinear identity on every pair of basis vectors is flips and sign
multiplies of those blocks, and seven identity checks are decided that way.
The curvature quadratic is a sum of squares of brackets, and its check reads
the weights.  Only isotropy-pairing and hessian-chain draw random fields.
The averaged Hessian, the tangent norm and the twist pairing are forms in the
initial fields, built once per velocity (``_Velocity``): each averaged matrix
int_0^1 exp(tA)^T M exp(tA) dt is read off one block exponential (Van Loan),
exactly in t, so no time grid or node count is involved.  A velocity on one
long root plane delta needs no exponential at all: for long delta,
alpha - 2 delta is never a root when alpha - delta is one, so the transport
generator A moves each plane it moves onto a plane it fixes, A^2 = 0 exactly,
exp(tA) = I + tA, and every average is a closed form in A and M.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction
from numbers import Rational
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .chevalley import ChevalleyData, _pair_floats, build_chevalley
from .errors import (DegenerateCoefficients, DimensionMismatch, InvalidSampling,
                     NoTangentBlock, NotInK, NotInTangent, UnknownSuite)
from .parabolic import PaintedDiagram, ParabolicSplit, split as make_split
from .rootsys import RootSystem, RootVector, build_root_system

# ---------------------------------------------------------------------------
# structure-constant plans


class BracketPlan(NamedTuple):
    """Nonzero structure constants of one block of the bracket.

    Entry ``n`` says that ``[e_i[n], e_j[n]]`` has coefficient ``c[n]`` on
    ``e_k[n]``, with inputs indexed in a space of size ``n_in`` and outputs in
    one of size ``n_out``.  Entries are sorted by ``(k, i, j)``; ``heads`` are
    the distinct output indices and ``starts`` where their runs begin.
    """

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    c: np.ndarray
    heads: np.ndarray
    starts: np.ndarray
    n_in: int
    n_out: int


def _make_plan(i, j, k, c, n_in: int, n_out: int) -> BracketPlan:
    order = np.lexsort((j, i, k))
    return _sorted_plan(*(a[order] for a in (i, j, k, c)), n_in, n_out)


def _sorted_plan(i, j, k, c, n_in: int, n_out: int) -> BracketPlan:
    """A plan of entries already sorted by ``(k, i, j)``."""
    first = np.ones(k.size, dtype=bool)
    first[1:] = k[1:] != k[:-1]
    return BracketPlan(i, j, k, c, k[first], np.flatnonzero(first), n_in, n_out)


def _sub_plan(plan: BracketPlan, inputs: np.ndarray, outputs: np.ndarray) -> BracketPlan:
    """The entries with both inputs among ``inputs`` and the output among
    ``outputs``, re-indexed by position in those index arrays.  Both must be
    increasing: the re-indexing then keeps the plan's ``(k, i, j)`` order, so
    nothing is sorted again."""
    at_in = np.full(plan.n_in, -1)
    at_in[inputs] = np.arange(len(inputs))
    at_out = np.full(plan.n_out, -1)
    at_out[outputs] = np.arange(len(outputs))
    i, j, k = at_in[plan.i], at_in[plan.j], at_out[plan.k]
    keep = (i >= 0) & (j >= 0) & (k >= 0)
    return _sorted_plan(i[keep], j[keep], k[keep], plan.c[keep], len(inputs), len(outputs))


# Products per block of rows in ``_contract``: about 256 KB of float64, so the
# gathered terms stay in cache through the two in-place multiplies and the
# reduction.  Blocks hold whole rows, so a plan with more entries than this
# runs one row per block.
_BLOCK_TERMS = 1 << 15


def _contract(plan: BracketPlan, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bracket of coordinate vectors through a plan, batched over leading axes
    (which broadcast): ``out[..., k] = sum x[..., i] * y[..., j] * c``.

    Each block of rows gathers its ``x`` terms with ``np.take`` along the
    coordinate axis (mixed slice-plus-index ``x[rows, plan.i]`` is several
    times slower on E-sized plans) and multiplies by the ``y`` terms and
    ``c`` in place.  Both inputs are first cast to the output type, as
    ``x[:, i] * y[:, j]`` casts them, so every product and every ``reduceat``
    sum over an output's run is the same, bit for bit.
    """
    x, y = np.broadcast_arrays(x, y)
    lead = x.shape[:-1]
    dtype = np.result_type(x, y, plan.c)
    x = x.reshape(-1, plan.n_in).astype(dtype, copy=False)
    y = y.reshape(-1, plan.n_in).astype(dtype, copy=False)
    out = np.zeros((x.shape[0], plan.n_out), dtype=dtype)
    if plan.c.size:
        rows = max(1, _BLOCK_TERMS // plan.c.size)
        for s in range(0, x.shape[0], rows):
            terms = np.take(x[s:s + rows], plan.i, axis=1)
            terms *= np.take(y[s:s + rows], plan.j, axis=1)
            terms *= plan.c
            out[s:s + rows, plan.heads] = np.add.reduceat(terms, plan.starts, axis=1)
    return out.reshape(lead + (plan.n_out,))


def _ad(plan: BracketPlan, w: np.ndarray) -> np.ndarray:
    """Matrix of ``x -> [w, x]`` through a plan, for a real vector ``w``.

    The same triples as ``_contract``, scattered into ``(k, j)`` in O(nnz):
    pushing the identity through the gather would build an ``n_in x nnz``
    product.
    """
    flat = np.bincount(plan.k * plan.n_in + plan.j, weights=w[plan.i] * plan.c,
                       minlength=plan.n_out * plan.n_in)
    return flat.reshape(plan.n_out, plan.n_in)


def _entries(plan: BracketPlan, i, j, k) -> np.ndarray:
    """The coefficient of e_k in [e_i, e_j] at index arrays that broadcast,
    0.0 where the plan has no entry: one search among the plan's (k, i, j)
    keys, which its sort leaves increasing."""
    keys = (plan.k * plan.n_in + plan.i) * plan.n_in + plan.j
    want = (k * plan.n_in + i) * plan.n_in + j
    at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    return np.where(keys[at] == want, plan.c[at], 0.0)


class PairTable(NamedTuple):
    """The pair spaces S0(delta) of the tangent-positive roots, stacked.

    Pair p is the positive pair of root ids ``pairs[p]`` = (alpha, beta),
    alpha < beta, alpha + beta = delta, sorted by delta, then alpha.  Space g
    is delta id ``deltas[g]`` (increasing) with the pairs
    ``starts[g]:starts[g + 1]`` (``starts`` ends with the pair count), and
    ``tangent[g]`` says whether all their roots lie in the tangent block.
    Per pair: ``consts`` c_{alpha,beta}, ``slots`` the full-frame X_alpha,
    Y_alpha, X_beta, Y_beta, and four 4x4 blocks on those four: ``bx``, ``by``
    ad(X_delta) and ad(Y_delta), so ad(a X_delta + b Y_delta) there is
    ``a * bx + b * by``, and ``px``, ``py`` the X_delta and Y_delta
    coefficients of the pair's own brackets, ``px[p, s, t]`` that of
    [e_slots[p, s], e_slots[p, t]].  ``consts`` is ``px[:, 0, 2]``.
    """

    deltas: np.ndarray
    starts: np.ndarray
    tangent: np.ndarray
    pairs: np.ndarray
    consts: np.ndarray
    slots: np.ndarray
    bx: np.ndarray
    by: np.ndarray
    px: np.ndarray
    py: np.ndarray


class PlaneBlocks(NamedTuple):
    """The tangent-input brackets of ``plan_m`` and ``plan_k`` cut into 2x2
    blocks over planes, so that a bilinear identity is read on every pair of
    basis vectors at once.  Tangent plane p holds coordinates 2p and 2p + 1.

    ``m[s, t, u, b]`` is the coefficient of e_{2r+u} in [e_{2p+s}, e_{2q+t}]_m
    with (p, q, r) = ``m_planes[:, b]``, and ``partner[b]`` the block of
    (q, p, r): the plan holds [e_j, e_i] beside every [e_i, e_j], so that
    block exists.  ``k[s, t, b]`` is the coefficient of isotropy
    coordinate o in [e_{2p+s}, e_{2q+t}]_k with (p, q, o) = ``k_planes[:, b]``,
    and ``k_partner[b]`` the block of (q, p, o).
    The block index is the last axis: flips and sign multiplies then run over
    contiguous rows of blocks, about three times faster than over trailing
    2x2x2 blocks.
    """

    m: np.ndarray
    m_planes: np.ndarray
    partner: np.ndarray
    k: np.ndarray
    k_planes: np.ndarray
    k_partner: np.ndarray


def _structure_constants(chev: ChevalleyData, x_slot: np.ndarray):
    """Nonzero constants over the real basis h_l = i s_l, X_a = E_a - E_-a,
    Y_a = i(E_a + E_-a), as index arrays (i, j, k) and the float of each
    exact constant.  ``x_slot`` gives by root id the X coordinate of the
    root's plane, shared by a and -a; Y_a is the next coordinate.

    For positive a, b = eps * beta with beta positive, s = a + b a root of
    sign sigma and N = c_{a,b}: [X_a, X_beta] gets eps*sigma*N on X_|s|,
    [X_a, Y_beta] gets N on Y_|s|, [Y_a, X_beta] gets eps*N on Y_|s| and
    [Y_a, Y_beta] gets -sigma*N on X_|s|.  [X_a, Y_a] = 2i [E_a, E_-a] lands
    in the Cartan block: [E_a, E_-a] is the dual of a, whose coordinates
    over the simple roots are the expansion n_l of a, so [X_a, Y_a] gets
    2 n_l on h_l.  [h_l, X_a] = <a, s_l> Y_a and [h_l, Y_a] = -<a, s_l> X_a.
    Negative a adds nothing new: c_{-a,-b} = -c_{a,b}.

    Every block is built as whole arrays over the root index: the pairs (a, b)
    with a root sum come from the sum table, N from ``_pair_floats`` in the
    same order, <a, s_l> from integer dot products of the scaled coordinates
    times norm_scale / 4 (exact in float64, as are the signs).  Each (i, j, k)
    is written once, so nothing is summed: root-root entries are fixed by
    (a, beta, |s|), Cartan outputs have k < rank and [h_l, .] entries have i
    or j < rank.  ``_make_plan`` sorts the entries, so their order here does
    not matter.
    """
    sys = chev.sys
    positive = sys.heights > 0
    sign = np.sign(sys.heights)
    a, b = np.nonzero(sys.sums >= 0)
    keep = positive[a]
    a, b, n = a[keep], b[keep], _pair_floats(chev)[keep]
    s = sys.sums[a, b]
    eps, sigma = sign[b], sign[s]
    xa, xb, xs = x_slot[a], x_slot[b], x_slot[s]
    i = [xa, xa, xa + 1, xa + 1]
    j = [xb, xb + 1, xb, xb + 1]
    k = [xs, xs + 1, xs + 1, xs]
    c = [eps * sigma * n, n, eps * n, -sigma * n]

    xp = x_slot[positive]  # by position among the positive ids
    expansions = sys.expansion_rows[positive]
    r, l = np.nonzero(expansions)
    two_n = 2.0 * expansions[r, l]
    i += [xp[r], xp[r] + 1]
    j += [xp[r] + 1, xp[r]]
    k += [l, l]
    c += [two_n, -two_n]

    dots = (np.array([root.coords for root in sys.simples])
            @ np.array([root.coords for root in sys.positives]).T)
    l, r = np.nonzero(dots)
    t = dots[l, r] * (float(sys.norm_scale) / 4)
    i += [l, xp[r], l, xp[r] + 1]
    j += [xp[r], l, xp[r] + 1, l]
    k += [xp[r] + 1, xp[r] + 1, xp[r], xp[r]]
    c += [t, -t, -t, t]
    return (*(np.concatenate(v).astype(np.int32) for v in (i, j, k)), np.concatenate(c))


# ---------------------------------------------------------------------------
# frame construction


@dataclass(frozen=True, eq=False)
class RealFormFrame:
    """Constant-coefficient model of the compact form at the base point:
    the Cartan block, then a plane (X_a, Y_a) per positive root a, painted
    span first, in the split's order, found by id through ``slot``; J is not
    stored (``_apply_j``).  Compared and hashed by identity."""

    split: ParabolicSplit
    chev: ChevalleyData = field(repr=False)
    dim: int
    m_start: int
    plan: BracketPlan = field(repr=False)
    plan_m: BracketPlan = field(repr=False)  # tangent x tangent -> tangent
    plan_k: BracketPlan = field(repr=False)  # tangent x tangent -> isotropy
    metric: np.ndarray = field(repr=False)
    # by root id, the X coordinate of the root's plane (shared by a and -a)
    _x_slot: np.ndarray = field(repr=False)

    @property
    def sys(self):
        return self.split.sys

    @property
    def m_pos(self) -> tuple[RootVector, ...]:
        """The tangent-positive roots in the order of their planes."""
        return self.split.m_pos_sorted

    @property
    def m_dim(self) -> int:
        return self.dim - self.m_start

    @property
    def v(self) -> int:
        return len(self.m_pos)

    def describe(self) -> dict:
        return {
            "family": self.sys.family,
            "rank": self.sys.rank,
            "painted": self.split.painted_nodes,
            "dim": self.dim,
            "m_dim": self.m_dim,
        }

    # -- coordinates --------------------------------------------------------

    def embed_m(self, x_m: np.ndarray) -> np.ndarray:
        out = np.zeros(x_m.shape[:-1] + (self.dim,))
        out[..., self.m_start:] = x_m
        return out

    def slot(self, alpha: RootVector) -> tuple[int, int]:
        """Full-frame coordinates (X, Y) of the plane of the root +-alpha;
        ``NotARoot`` for a vector that is not a root."""
        x = self._x_slot.item(self.split.sys.id_of(alpha))
        return x, x + 1

    def m_slot(self, alpha: RootVector) -> tuple[int, int]:
        """Tangent-block coordinates of the plane of the tangent root +-alpha;
        ``NotInTangent`` for a painted-span root, whose plane lies before the
        tangent block."""
        ix = self.slot(alpha)[0] - self.m_start
        if ix < 0:
            raise NotInTangent(f"{alpha} is not a tangent root of {self.sys.name} "
                               f"with painted {sorted(self.split.sigma_k)}")
        return ix, ix + 1

    # -- algebra ------------------------------------------------------------

    def bracket_full(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _contract(self.plan, x, y)

    def ad_matrix(self, w: np.ndarray) -> np.ndarray:
        """Matrix of x -> bracket(w, x) on the full frame."""
        return _ad(self.plan, w)

    def inner(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("...i,ij,...j->...", x, self.metric, y)

    def m_inner(self, x_m: np.ndarray, y_m: np.ndarray) -> np.ndarray:
        # the tangent metric block is exactly 2 * identity
        return 2.0 * np.einsum("...i,...i->...", x_m, y_m)

    def m_norm2(self, x_m: np.ndarray) -> np.ndarray:
        return self.m_inner(x_m, x_m)

    def k_inner(self, x_k: np.ndarray, y_k: np.ndarray) -> np.ndarray:
        g = self.metric[: self.m_start, : self.m_start]
        return np.einsum("...i,ij,...j->...", x_k, g, y_k)

    def random_m(self, rng: np.random.Generator, n: Optional[int] = None) -> np.ndarray:
        shape = (self.m_dim,) if n is None else (n, self.m_dim)
        return rng.standard_normal(shape)

    # -- pair spaces ----------------------------------------------------------

    @cached_property
    def pair_table(self) -> PairTable:
        """The pair space of every tangent-positive root with at least one
        positive pair, in root order; built on first use."""
        return _pair_table(self)

    @cached_property
    def plane_blocks(self) -> PlaneBlocks:
        """The tangent brackets as blocks over planes; built on first use."""
        return _plane_blocks(self)

    @cached_property
    def j_m(self) -> np.ndarray:
        """Dense J on the tangent block, built on first read for callers
        outside the package; nothing in ``src/`` reads it.  ``_apply_j`` on
        the identity is J^T = -J; 0.0 minus it leaves no signed zeros."""
        return 0.0 - _apply_j(np.eye(self.m_dim))


def build_frame(split: ParabolicSplit) -> RealFormFrame:
    """Structure-constant plan and metric over the ordered real basis."""
    if not split.delta_m_pos:
        raise NoTangentBlock("every node is painted; the frame has no tangent block")
    sys = split.sys
    chev = build_chevalley(sys)
    rank = sys.rank
    # painted-span planes, then tangent planes, each by (height, coords)
    planes = [sys.id_of(alpha) for alpha in (*split.k_pos_sorted, *split.m_pos_sorted)]
    dim = rank + 2 * len(planes)
    m_start = dim - 2 * len(split.m_pos_sorted)
    x_slot = np.empty(len(sys.roots), dtype=int)
    x_slot[planes] = x_slot[sys.neg[planes]] = np.arange(rank, dim, 2)

    plan = _make_plan(*_structure_constants(chev, x_slot), dim, dim)

    # (s_i, s_j) on the Cartan block, 2 on the diagonal of every root plane
    metric = np.zeros((dim, dim))
    simples = np.array([root.coords for root in sys.simples])
    metric[:rank, :rank] = simples @ simples.T * (float(sys.norm_scale) / 4)
    metric[np.arange(rank, dim), np.arange(rank, dim)] = 2.0

    return RealFormFrame(
        split=split,
        chev=chev,
        dim=dim,
        m_start=m_start,
        plan=plan,
        plan_m=_sub_plan(plan, np.arange(m_start, dim), np.arange(m_start, dim)),
        plan_k=_sub_plan(plan, np.arange(m_start, dim), np.arange(m_start)),
        metric=metric,
        _x_slot=x_slot,
    )


def _pair_table(frame: RealFormFrame) -> PairTable:
    """Every positive pair summing to a tangent-positive root, grouped by that
    root, in one pass over the root index, and its four blocks read off the
    plan by key.

    ad(X_delta) sends the plane of a pair root alpha only to the planes of its
    partner delta - alpha and of delta + alpha, which is in no pair of delta,
    and two pair roots bracket onto delta's plane only when they sum to
    delta.  So the blocks on each pair's own slots hold every entry that
    pairs delta's plane with pair coordinates of delta.
    """
    sys, part = frame.sys, frame.split.part
    pos = np.flatnonzero(sys.heights > 0)
    s = sys.sums[np.ix_(pos, pos)]
    hit = np.triu(s >= 0, 1)  # ids follow the root order, so alpha < beta
    hit[hit] = part[s[hit]] == 1
    first, second = np.nonzero(hit)
    d, a, b = s[first, second], pos[first], pos[second]
    order = np.lexsort((a, d))
    d, a, b = d[order], a[order], b[order]
    x_slot = frame._x_slot
    slots = np.stack([x_slot[a], x_slot[a] + 1, x_slot[b], x_slot[b] + 1], axis=1)
    new = np.ones(d.size, dtype=bool)
    new[1:] = d[1:] != d[:-1]
    starts = np.flatnonzero(new)
    # bx, by: [delta's X or Y, slot t] on slot s; px, py: [slot s, slot t] on
    # delta's X or Y
    role = np.arange(4)[:, None, None, None]
    plane = x_slot[d][:, None, None] + role % 2
    s_slot, t_slot = slots[:, :, None], slots[:, None, :]
    blocks = _entries(frame.plan, np.where(role < 2, plane, s_slot), t_slot,
                      np.where(role < 2, s_slot, plane))
    blocks.flags.writeable = False  # before its views are taken
    tangent = np.logical_and.reduceat((part[a] == 1) & (part[b] == 1), starts)
    # c_{alpha,beta} is the X_delta coefficient of [X_alpha, X_beta]
    table = PairTable(d[starts], np.append(starts, d.size), tangent, np.stack([a, b], axis=1),
                      blocks[2, :, 0, 2], slots, *blocks)
    for shared in table[:6]:  # every caller reads these, or views of them
        shared.flags.writeable = False
    return table


def _plane_blocks(frame: RealFormFrame) -> PlaneBlocks:
    """One sort of the plane-triple keys of ``plan_m`` and one of the plane
    pairs of ``plan_k``; each plan entry is written into its block once, as
    the plans hold each (i, j, k) once, and each block's partner is found by
    one search among the sorted keys."""
    v, pm, pk = frame.v, frame.plan_m, frame.plan_k
    keys, at = np.unique((pm.i // 2 * v + pm.j // 2) * v + pm.k // 2, return_inverse=True)
    m = np.zeros((2, 2, 2, keys.size))
    m[pm.i % 2, pm.j % 2, pm.k % 2, at] = pm.c
    m_planes = np.stack([keys // (v * v), keys // v % v, keys % v])
    partner = np.searchsorted(keys, (m_planes[1] * v + m_planes[0]) * v + m_planes[2])
    n_k = frame.m_start
    keys, at = np.unique((pk.i // 2 * v + pk.j // 2) * n_k + pk.k, return_inverse=True)
    k = np.zeros((2, 2, keys.size))
    k[pk.i % 2, pk.j % 2, at] = pk.c
    k_planes = np.stack([keys // (v * n_k), keys // n_k % v, keys % n_k])
    k_partner = np.searchsorted(keys, (k_planes[1] * v + k_planes[0]) * n_k + k_planes[2])
    return PlaneBlocks(m, m_planes, partner, k, k_planes, k_partner)


def frame_for(family: str, rank: int, painted: Sequence[int] = ()) -> RealFormFrame:
    """Convenience builder from family/rank/painted indices (cached)."""
    return _cached_frame(family.upper(), rank, tuple(sorted(painted)))


@lru_cache(maxsize=None)
def _cached_frame(family: str, rank: int, painted: tuple) -> RealFormFrame:
    sys = build_root_system(family, rank)
    return build_frame(make_split(sys, PaintedDiagram.of(sys, painted)))


# ---------------------------------------------------------------------------
# core operators


def bracket_m(frame: RealFormFrame, x_m: np.ndarray, y_m: np.ndarray) -> np.ndarray:
    """Tangent-block part of the bracket of two tangent vectors (or batches)."""
    _require_tangent(frame, ndim=None, x_m=x_m, y_m=y_m)
    return _contract(frame.plan_m, x_m, y_m)


def bracket_k(frame: RealFormFrame, x_m: np.ndarray, y_m: np.ndarray) -> np.ndarray:
    """Isotropy-block part of the bracket of two tangent vectors (or batches)."""
    _require_tangent(frame, ndim=None, x_m=x_m, y_m=y_m)
    return _contract(frame.plan_k, x_m, y_m)


def _require_tangent(frame: RealFormFrame, ndim: Optional[int] = 1, **arrays) -> None:
    """``DimensionMismatch``, naming the argument and the shape it needs,
    unless each array has tangent coordinates on its last axis and ``ndim``
    axes in all (any number from one, for ``ndim=None``): ``_ad`` would read
    the first ``m_dim`` entries of a longer velocity, and numpy raise its own
    errors on other shapes."""
    for name, x in arrays.items():
        shape = np.shape(x)
        if (not shape or shape[-1] != frame.m_dim
                or ndim is not None and len(shape) != ndim):
            n = frame.m_dim
            want = {1: f"({n},)", 2: f"(n, {n})"}.get(ndim, f"(..., {n})")
            raise DimensionMismatch(f"{name} has shape {shape}; the tangent block of "
                                    f"{frame.sys.name} needs {want}")


def _apply_j(x: np.ndarray) -> np.ndarray:
    """J on the last axis (``x @ J^T`` on rows), which may be any run of whole
    planes: J X_a = Y_a moves coordinate 2p to 2p + 1 and minus 2p + 1 to 2p,
    the numbers of a product with J, whose entries are one +-1 term each.
    J m is ``_apply_j(m.T).T``, and J^T m J ``_apply_j(_apply_j(m.T).T)``."""
    out = np.empty_like(x)
    out[..., 0::2] = -x[..., 1::2]
    out[..., 1::2] = x[..., 0::2]
    return out


class _Velocity:
    """One velocity on one frame: its shape is checked and ad_m(gdot) scattered
    once, for ``r`` and ``p`` both.  The transport generator ``r``, the
    energy-Hessian integrand ``h``, the pairing matrix ``p`` and the average
    ``h_bar`` along the transport exp(-t r / 2) are built on first read."""

    def __init__(self, frame: RealFormFrame, gdot: np.ndarray):
        _require_tangent(frame, velocity=gdot)
        self.frame, self.gdot = frame, gdot
        self.ad_m = _ad(frame.plan_m, gdot)  # X -> [gdot, X]_m

    @cached_property
    def r(self) -> np.ndarray:
        if not np.any(self.gdot):
            raise DegenerateCoefficients("velocity must be nonzero")
        a2 = _ad(self.frame.plan_m, _apply_j(self.gdot))
        return self.ad_m + _apply_j(a2.T).T

    @cached_property
    def h(self) -> np.ndarray:
        """x.h.x = |r x|^2 + |[x, gdot]_k|^2_g + |[Jx, gdot]_k|^2_g."""
        frame, r = self.frame, self.r
        ad_k = _ad(frame.plan_k, self.gdot)  # X -> [gdot, X]_k ; [X, gdot]_k = -that
        kk = ad_k.T @ frame.metric[: frame.m_start, : frame.m_start] @ ad_k  # g on k
        return r.T @ r + kk + _apply_j(_apply_j(kk.T).T)

    @cached_property
    def p(self) -> np.ndarray:
        """P(x, y) = <[y, x]_m - [Jy, Jx]_m, gdot> = x.p.y.  By ad-invariance
        of the metric <[y, x]_m, gdot> = y.C.x with C = -2 ad_m(gdot), so no
        bracket is evaluated."""
        c = -2.0 * self.ad_m
        return (c - _apply_j(_apply_j(c.T).T)).T

    def _average(self, m: np.ndarray) -> np.ndarray:
        return _averaged(-0.5 * self.r, m)

    @cached_property
    def h_bar(self) -> np.ndarray:
        return self._average(self.h)

    def quadrature(self, x0: np.ndarray, y0: np.ndarray):
        """Averages of the transported fields x0, y0 (one row per
        configuration): e = -int h(x_t) + h(y_t), a = int |x_t|^2 + |y_t|^2
        (no constant: the transport is no isometry for a generic velocity) and
        b = int P(x_t, y_t); the twisted form at rate k is e + 2 k^2 a + 2 k b."""
        e = -(_form(x0, self.h_bar, x0) + _form(y0, self.h_bar, y0))
        g_bar = self._average(2.0 * np.eye(self.frame.m_dim))  # the tangent metric
        a = _form(x0, g_bar, x0) + _form(y0, g_bar, y0)
        return e, a, _form(x0, self._average(self.p), y0)


def r_operator(frame: RealFormFrame, gdot: np.ndarray) -> np.ndarray:
    """Matrix of X -> [gdot, X]_m + J [J gdot, X]_m on the tangent block."""
    return _Velocity(frame, gdot).r


def _square_zero(gen: np.ndarray) -> bool:
    """Whether no coordinate is both an input (a nonzero column) and an output
    (a nonzero row) of ``gen``.  Then every product in ``gen @ gen`` has a zero
    factor, so the square is exactly 0.0 and exp(t gen) = I + t gen exactly."""
    return not (gen.any(axis=0) & gen.any(axis=1)).any()


def hat_transport(frame: RealFormFrame, gdot: np.ndarray, t: float) -> np.ndarray:
    """Transport matrix exp(-t r / 2) at time t (identity at t = 0).

    On a long root plane the generator squares to zero (module docstring),
    and the transport is I - t r / 2 exactly.  ``_square_zero`` tests this on
    the matrix itself; any other generator (a short delta in B or C, a
    velocity off one root plane) takes scipy's ``expm``.
    """
    gen = -0.5 * t * _Velocity(frame, gdot).r
    if _square_zero(gen):
        return np.eye(frame.m_dim) + gen
    from scipy.linalg import expm  # here, so the exact commands never load scipy
    return expm(gen)


def _averaged(gen: np.ndarray, m: np.ndarray) -> np.ndarray:
    """int_0^1 exp(t gen)^T m exp(t gen) dt, exact in t.

    A zero generator gives ``m`` itself: exp(0) = I exactly.  A generator
    that squares to zero (``_square_zero``: every long root plane, see
    ``hat_transport``) has exp(t gen) = I + t gen, and the integral of
    (I + t gen)^T m (I + t gen) over [0, 1] is
    m + (gen^T m + m gen) / 2 + gen^T m gen / 3.  Any other generator takes
    one block exponential: with F = expm([[-gen^T, m], [0, gen]]) the
    integral is F22^T F12 (Van Loan, IEEE TAC 23(3), 1978).
    """
    if not gen.any():
        return m
    if _square_zero(gen):
        m_gen = m @ gen
        return m + 0.5 * (gen.T @ m + m_gen) + (gen.T @ m_gen) / 3.0
    from scipy.linalg import expm
    n = gen.shape[0]
    f = expm(np.block([[-gen.T, m], [np.zeros_like(gen), gen]]))
    return f[n:, n:].T @ f[:n, n:]


def _form(x: np.ndarray, m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise x.m.y."""
    return np.einsum("ni,ni->n", x @ m, y)


def _twisted(e, a, b, k: float):
    return e + 2.0 * k * k * a + 2.0 * k * b


def complex_hessian(frame: RealFormFrame, gdot: np.ndarray, x0: np.ndarray) -> float:
    """Averaged second-variation value on a transport-parallel field."""
    _require_tangent(frame, x0=x0)
    return float(complex_hessian_many(frame, gdot, np.atleast_2d(x0))[0])


def complex_hessian_many(frame: RealFormFrame, gdot: np.ndarray,
                         x0_batch: np.ndarray) -> np.ndarray:
    _require_tangent(frame, ndim=2, x0_batch=x0_batch)
    return -_form(x0_batch, _Velocity(frame, gdot).h_bar, x0_batch)


# ---------------------------------------------------------------------------
# the pair-space operator and the twisted quadratic form


def s0_indices(pair_set) -> tuple[tuple[RootVector, RootVector], ...]:
    """Sorted pair list; each pair as (alpha, beta) with alpha < beta."""
    pairs = []
    for pair in pair_set:
        a, b = sorted(tuple(pair))
        pairs.append((a, b))
    return tuple(sorted(pairs))


def s0_embedding(frame: RealFormFrame, pair_set) -> np.ndarray:
    """Full-frame indices of the pair-space coordinates, pair by pair."""
    idx = []
    for a, b in s0_indices(pair_set):
        idx.extend(frame.slot(a))
        idx.extend(frame.slot(b))
    return np.array(idx, dtype=int)


def tilde_vector(frame: RealFormFrame, delta: RootVector, a: float, b: float) -> np.ndarray:
    """Full-frame vector a*X_delta + b*Y_delta."""
    out = np.zeros(frame.dim)
    ix, iy = frame.slot(delta)
    out[ix], out[iy] = a, b
    return out


def _quarter_blocks(table: PairTable, rows, a, b) -> np.ndarray:
    """The quarter turn on the pairs ``rows`` of the table, one 4x4 block per
    pair: ad(a X_delta + b Y_delta) / (|(a, b)| |c_{alpha,beta}|), with ``a``
    and ``b`` one number for every pair or one per pair."""
    a, b = np.reshape(a, (-1, 1, 1)), np.reshape(b, (-1, 1, 1))
    scale = np.hypot(a, b) * np.abs(table.consts[rows])[:, None, None]
    return (a * table.bx[rows] + b * table.by[rows]) / scale


def map_I(
    frame: RealFormFrame,
    delta: RootVector,
    a: float,
    b: float,
    pair_set,
) -> np.ndarray:
    """Matrix of the quarter-turn operator on the pair space of ``delta``,
    read from the frame's pair-space table.  ``delta`` and every pair root
    must be roots of the system (``NotARoot``), every pair must sum to
    ``delta`` (``ValueError``) and lie in the tangent block
    (``NotInTangent``)."""
    if a == 0 and b == 0:
        raise DegenerateCoefficients("both coefficients vanish")
    sys = frame.sys
    d = sys.id_of(delta)
    pairs = s0_indices(pair_set)
    pair_ids = [(sys.id_of(alpha), sys.id_of(beta)) for alpha, beta in pairs]
    for pair, (i, j) in zip(pairs, pair_ids):
        if sys.sums[i, j] != d:
            raise ValueError(f"pair {pair} does not sum to {delta}")
    # the pair space lives in the tangent block
    frame.split.require_tangent([root for pair in pairs for root in pair],
                                "pair root {0[0]} is not a positive tangent root of "
                                f"{sys.name} with painted {sorted(frame.split.sigma_k)}")
    if not pairs:
        return np.zeros((0, 0))
    table = frame.pair_table
    # the sorted pairs are sorted by alpha id, as delta's rows of the table
    g = np.searchsorted(table.deltas, d)
    lo, hi = table.starts[g], table.starts[g + 1]
    rows = lo + np.searchsorted(table.pairs[lo:hi, 0], [i for i, _ in pair_ids])
    blocks = _quarter_blocks(table, rows, a, b)
    n = len(rows)
    out = np.zeros((4 * n, 4 * n))
    diag = np.arange(n)
    out.reshape(n, 4, n, 4)[diag, :, diag, :] = blocks
    return out


def p_pairing(
    frame: RealFormFrame, x: np.ndarray, y: np.ndarray, gdot: np.ndarray
) -> float:
    """Slice value of the mixed bracket pairing against the velocity."""
    _require_tangent(frame, x=x, y=y)
    return float(x @ _Velocity(frame, gdot).p @ y)


def p_bound(frame: RealFormFrame, gdot: np.ndarray) -> float:
    """Operator-norm bound N with |P(x, y)| <= N |x| |y|."""
    # metric is 2*identity on the block: normalized bound is ||p||_2 / 2
    return float(np.linalg.norm(_Velocity(frame, gdot).p, 2) / 2.0)


def q_form(
    frame: RealFormFrame,
    gdot: np.ndarray,
    x0: np.ndarray,
    y0: np.ndarray,
    k: float,
) -> float:
    """Quaternionic average of the energy Hessian on one (xbar0, ybar0)
    configuration, as ``k_search`` takes them.  A pair-space twist w enters
    as (x0 + w, y0 + I w), with I from ``map_I``."""
    _require_tangent(frame, x0=x0, y0=y0)
    e, a, b = _Velocity(frame, gdot).quadrature(np.atleast_2d(x0), np.atleast_2d(y0))
    return float(_twisted(e, a, b, k)[0])


@dataclass(frozen=True)
class KSearchResult:
    k: float
    margin: float
    q_values: tuple[float, ...]


def k_search(
    frame: RealFormFrame,
    gdot: np.ndarray,
    configs: Sequence[tuple[np.ndarray, np.ndarray]],
) -> KSearchResult:
    """Dyadic twisting rate making the averaged form negative on all supplied
    (xbar0, ybar0) configurations: the first of 1, 1/2, 1/4, ..., 2^-59 that
    does.

    The form is quadratic in the rate, so the per-configuration coefficients
    are integrated once and the bisection runs on the closed forms.
    """
    if len(configs) == 0:
        raise ValueError("k_search needs at least one configuration")
    try:
        x0 = np.array([x for x, _ in configs])
        y0 = np.array([y for _, y in configs])
        _require_tangent(frame, ndim=2, x0=x0, y0=y0)
    except ValueError:  # ragged fields, or a field of the wrong shape
        for x, y in configs:  # name the field at fault, as one configuration has it
            _require_tangent(frame, x0=x, y0=y)
        raise
    e, a, b = _Velocity(frame, gdot).quadrature(x0, y0)
    k = 1.0
    for _ in range(60):
        qs = _twisted(e, a, b, k)
        value = float(np.max(qs))
        if value < 0:
            return KSearchResult(k=k, margin=-value, q_values=tuple(qs))
        k /= 2.0
    raise RuntimeError("no negative twisting rate found; configurations degenerate?")


def adjoint_perturb(
    frame: RealFormFrame,
    gamma_coeffs: np.ndarray,
    root_k: RootVector,
    t: float = 1e-3,
) -> tuple[np.ndarray, frozenset[RootVector]]:
    """Push the velocity by the isotropy flow of one painted-span root plane.

    Returns the perturbed tangent coordinates and their root support above
    1e-9 times the original norm.  ``root_k`` must be a root (``NotARoot``,
    ``DimensionMismatch``) and a positive one in the painted span (``NotInK``).
    """
    _require_tangent(frame, gamma_coeffs=gamma_coeffs)
    i = frame.sys.id_of(root_k)
    if frame.split.part.item(i) != 0 or frame.sys.heights.item(i) < 0:
        raise NotInK(f"{root_k} is not a positive painted-span root")
    from scipy.linalg import expm
    x_full = np.zeros(frame.dim)
    x_full[frame._x_slot.item(i)] = 1.0
    ad = frame.ad_matrix(x_full)
    ad_mm = ad[frame.m_start:, frame.m_start:]
    leak = ad[: frame.m_start, frame.m_start:]
    if np.max(np.abs(leak)) > 1e-12:
        raise RuntimeError("isotropy action leaked outside the tangent block")
    new = expm(t * ad_mm) @ gamma_coeffs
    cutoff = 1e-9 * np.sqrt(frame.m_norm2(gamma_coeffs))
    # tangent plane p holds coordinates 2p and 2p + 1
    norms = np.hypot(new[0::2], new[1::2])
    return new, frozenset([frame.m_pos[p] for p in np.flatnonzero(norms > cutoff).tolist()])


# ---------------------------------------------------------------------------
# identity suites


@dataclass(frozen=True)
class CheckResult:
    name: str
    description: str
    trials: int
    max_residual: float
    tolerance: float
    note: str = ""
    # decided for every input, not on samples; ``trials`` counts the ordered
    # basis pairs, or for the twomel checks the pair blocks, decided
    exhaustive: bool = False

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "description": self.description,
            "trials": self.trials,
            "max_residual": self.max_residual,
            "pass": self.passed,
            "tolerance": self.tolerance,
        }
        if self.note:
            out["note"] = self.note
        if self.exhaustive:
            out["exhaustive"] = True
        return out


@dataclass(frozen=True)
class Report:
    suite: str
    frame_info: dict
    seed: int
    trials: int
    checks: tuple[CheckResult, ...]
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "frame": self.frame_info,
            "seed": self.seed,
            "trials": self.trials,
            "checks": [c.to_json_dict() for c in self.checks],
            "elapsed_ms": self.elapsed_ms,
            "pass": self.passed,
        }


TOL_IDENTITY = 1e-10


def _max_norm(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


class _BlockJ(NamedTuple):
    """J on the axes of stacked plane blocks ``c[s, t(, u), b]``, read off
    ``_apply_j``: per block, the signs of the plane of each axis, shaped to
    broadcast along that axis, with J e_{2p+s} = sign[s] e_{2p+1-s}.  On an
    argument axis the block of [J x, y] is sign[s] times that of [e_{1-s}, y];
    on the output axis (J z)_u = sign[1-u] z_{1-u}.  Every identity is then
    flips and sign multiplies on whole arrays."""

    s1: np.ndarray
    s2: np.ndarray
    s_out: Optional[np.ndarray]

    def first(self, c):
        return self.s1 * c[::-1]

    def second(self, c):
        return self.s2 * c[:, ::-1]

    def out(self, c):
        return (self.s_out * c)[:, :, ::-1]


def _block_j(frame: RealFormFrame, planes: np.ndarray) -> Optional[_BlockJ]:
    """J on blocks over the planes ``planes`` (two argument rows, then the
    output row of tangent blocks, if any), read from ``_apply_j`` on every
    call; None when ``_apply_j`` is not a signed swap inside each plane."""
    rows = _apply_j(np.eye(frame.m_dim))  # row i is J e_i
    n = np.arange(frame.m_dim)
    signs = rows[n, n ^ 1]
    if np.count_nonzero(rows) != frame.m_dim or not np.all(np.abs(signs) == 1.0):
        return None
    # [s, axis, block]; np.take, as fancy indexing is several times slower here
    per_block = np.take(signs.reshape(-1, 2).T, planes, axis=1)
    axes = []
    for a in range(len(planes)):
        shape = [1] * (len(planes) + 1)
        shape[a], shape[-1] = 2, per_block.shape[-1]
        axes.append(per_block[:, a].reshape(shape))
    return _BlockJ(axes[0], axes[1], axes[2] if len(axes) > 2 else None)


def _exhaustive(name: str, description: str, pairs: int, res: Optional[np.ndarray]) -> CheckResult:
    """A check decided on ``pairs`` ordered basis pairs; ``res`` None (J not a
    signed swap) reads as an infinite residual."""
    worst = float("inf") if res is None else _max_norm(res)
    return CheckResult(name, description, pairs, worst, TOL_IDENTITY, exhaustive=True)


def _modulus(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """|re + i im|, as np.abs reads a complex residual (np.hypot is several
    times slower on these arrays)."""
    return np.sqrt(re * re + im * im)


def _tangent_blocks(frame: RealFormFrame):
    blocks = frame.plane_blocks
    return blocks, _block_j(frame, blocks.m_planes)


def _check_integrability(frame: RealFormFrame, rng, trials: int) -> CheckResult:
    """B(x, y) + J B(Jx, y) + J B(x, Jy) - B(Jx, Jy) on every basis pair, with B
    the tangent bracket.  Like every check decided on the plane blocks, it
    takes ``rng`` and ``trials`` only to run in a suite."""
    blocks, j = _tangent_blocks(frame)
    c = blocks.m
    res = None if j is None else (c + j.out(j.first(c)) + j.out(j.second(c))
                                  - j.first(j.second(c)))
    return _exhaustive("integrability-defect", "complex structure against the projected bracket",
                       frame.m_dim ** 2, res)


def _split_10(x_m):
    """(1,0) part in complexified tangent coordinates."""
    return 0.5 * (x_m - 1j * _apply_j(x_m))


def _holomorphic(j: _BlockJ, c: np.ndarray, conj_y: bool = False):
    """Real and imaginary parts of the block of B(x10, y10), or of
    B(x10, conj y10), from that of B(x, y): x10 = (x - iJx) / 2."""
    jy = -j.second(c) if conj_y else j.second(c)
    return 0.25 * (c - j.first(jy)), -0.25 * (j.first(c) + jy)


def _check_holomorphic_closure(frame, rng, trials) -> CheckResult:
    """J z - i z with z = B(x10, y10), as its real and imaginary parts."""
    blocks, j = _tangent_blocks(frame)
    res = None
    if j is not None:
        re, im = _holomorphic(j, blocks.m)
        res = _modulus(j.out(re) + im, j.out(im) - re)
    return _exhaustive("holomorphic-closure",
                       "brackets of (1,0) fields stay of type (1,0) in the tangent block",
                       frame.m_dim ** 2, res)


def _check_r_operator_form(frame, rng, trials) -> CheckResult:
    """[y, x] + J [Jy, x] + 2 Re z with z = w - iJw, w = [x10, conj y10]:
    [y, x] is the partner block with its arguments swapped."""
    blocks, j = _tangent_blocks(frame)
    res = None
    if j is not None:
        t = np.take(blocks.m, blocks.partner, axis=-1).transpose(1, 0, 2, 3)
        re, im = _holomorphic(j, blocks.m, conj_y=True)
        res = t + j.out(j.second(t)) + 2.0 * (re + j.out(im))
    return _exhaustive("r-operator-form",
                       "the transport generator as the defect of a mixed-type bracket",
                       frame.m_dim ** 2, res)


def _check_isotropy_vanishing(frame, rng, trials) -> CheckResult:
    """|[x10, y10]_k| on every basis pair."""
    blocks = frame.plane_blocks
    j = _block_j(frame, blocks.k_planes[:2])
    return _exhaustive("isotropy-vanishing", "brackets of two (1,0) fields have no isotropy part",
                       frame.m_dim ** 2, None if j is None else _modulus(*_holomorphic(j, blocks.k)))


def _check_isotropy_pairing(frame, rng, trials) -> CheckResult:
    """|[x, y]_k|^2 + |[Jx, y]_k|^2 = 4 <w, conj w> with w = [x10, conj y10]_k.

    With u = 2w and g_k symmetric, lhs - rhs is summed as the two differences
    of squares (kxy - Re u) g (kxy + Re u) + (kjxy + Im u) g (kjxy - Im u): its
    rounding then follows the residual, not the size of either side (about
    6,500 on E8 at unnormalized inputs)."""
    x = frame.random_m(rng, trials)
    y = frame.random_m(rng, trials)
    kxy = bracket_k(frame, x, y)
    kjxy = bracket_k(frame, _apply_j(x), y)
    u = 2.0 * bracket_k(frame, _split_10(x), _split_10(y).conj())
    res = (frame.k_inner(kxy - u.real, kxy + u.real)
           + frame.k_inner(kjxy + u.imag, kjxy - u.imag))
    return CheckResult(
        "isotropy-pairing",
        "isotropy bracket norms against the mixed-type pairing",
        trials, _max_norm(res), TOL_IDENTITY,
    )


def _kernel_mask(frame) -> np.ndarray:
    """``bool[v, m_dim]``: row d marks the tangent coordinates whose plane
    brackets the conjugate of the plane of ``m_pos[d]`` back into
    anti-holomorphic directions only (after the tangent projection, which
    drops Cartan and isotropy parts).  The plane of ``m_pos[a]`` is kept
    unless alpha - delta is a tangent-positive root, that is unless delta is
    in S of alpha; it has coordinates 2a and 2a + 1."""
    split = frame.split
    m = [split.sys.id_of(alpha) for alpha in frame.m_pos]
    return np.repeat(split.st_table[np.ix_(m, m)].T != 1, 2, axis=1)


def _conditioned(frame, identity) -> tuple[int, Optional[np.ndarray]]:
    """The basis pairs (y, x) with y in one tangent-positive plane and x on
    that plane's row of ``_kernel_mask`` (read on every call): their count,
    and ``identity(c, j)`` on the blocks of [y, x] with the other pairs
    zeroed."""
    blocks, j = _tangent_blocks(frame)
    mask = _kernel_mask(frame)
    p, q, _ = blocks.m_planes
    allowed = mask[p, 2 * q + np.arange(2)[:, None]][:, None]  # [t, 1, b]
    res = None if j is None else np.where(allowed, identity(blocks.m, j), 0.0)
    return 2 * int(np.count_nonzero(mask)), res


def _check_conditioned_commutation(frame, rng, trials) -> CheckResult:
    """J [y, x] - [Jy, x] on the conditioned basis pairs."""
    pairs, res = _conditioned(frame, lambda c, j: j.out(c) - j.first(c))
    return _exhaustive(
        "conditioned-commutation",
        "complex structure passes through the bracket when the transport "
        "generator annihilates the field",
        pairs, res)


def _check_conditioned_skew(frame, rng, trials) -> CheckResult:
    """J [y, x] + [y, Jx] + 4 Im [y10, x10] on the conditioned basis pairs."""
    pairs, res = _conditioned(
        frame, lambda c, j: j.out(c) + j.second(c) + 4.0 * _holomorphic(j, c)[1])
    return _exhaustive(
        "conditioned-skew",
        "the anti-linear defect of the bracket reduces to holomorphic terms",
        pairs, res)


# (a, b) at which the twomel block identities are read: each, times a^2 + b^2,
# is a binary quadratic form in (a, b) with matrix coefficients, and one that
# vanishes at these three vanishes identically
_ANGLES = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def _tangent_rows(table: PairTable) -> np.ndarray:
    """The pairs of the spaces with all their roots in the tangent block."""
    return np.flatnonzero(np.repeat(table.tangent, np.diff(table.starts)))


def _check_double_bracket(frame, rng, trials) -> CheckResult:
    """blk^2 + (a^2 + b^2) c^2 = 0 with blk = a bx + b by, on every pair of the
    table and for every (a, b), read at ``_ANGLES``; blk^2 x + (a^2 + b^2) c^2 x
    is the twice-projected bracket of x, so this holds for every x too."""
    table = frame.pair_table
    if not table.consts.size:
        return CheckResult("double-bracket", "no decomposable roots in this frame",
                           0, 0.0, TOL_IDENTITY, exhaustive=True)
    a, b = _ANGLES.T[:, :, None, None, None]
    blk = a * table.bx + b * table.by  # [angle, pair, 4, 4]
    res = blk @ blk + ((a * a + b * b) * table.consts[:, None, None] ** 2) * np.eye(4)
    return CheckResult(
        "double-bracket",
        "twice-projected bracketing against a root plane scales by the "
        "squared structure constant",
        table.consts.size, _max_norm(res), TOL_IDENTITY, exhaustive=True,
    )


def _check_quarter_turn(frame, rng, trials) -> CheckResult:
    """I^2 + 1, I^T I - 1 and IJ + JI on every pair of the tangent pair spaces,
    with I from ``_quarter_blocks`` at ``_ANGLES``: times a^2 + b^2 the first
    two are quadratic in (a, b) and, times |(a, b)|, the last is linear, so
    they hold for every (a, b).  The isometry per pair gives it on each
    space."""
    table = frame.pair_table
    rows = _tangent_rows(table)
    if not rows.size:
        return CheckResult("quarter-turn", "no usable pair sets", 0, 0.0, TOL_IDENTITY,
                           exhaustive=True)
    i_blk = _quarter_blocks(table, np.tile(rows, 3), *np.repeat(_ANGLES, rows.size, axis=0).T)
    i_t = i_blk.swapaxes(1, 2)
    # IJ + JI, as J I = (I^T J^T)^T and I J = -I J^T
    worst = max(_max_norm(i_blk @ i_blk + np.eye(4)), _max_norm(i_t @ i_blk - np.eye(4)),
                _max_norm(_apply_j(i_t).swapaxes(1, 2) - _apply_j(i_blk)))
    return CheckResult(
        "quarter-turn",
        "pair-space operator squares to minus identity, anticommutes with "
        "the complex structure, and is an isometry",
        rows.size, worst, TOL_IDENTITY, exhaustive=True,
    )


def _check_pair_bounds(frame, rng, trials) -> CheckResult:
    """Lower bound of the bracket pairing on pair spaces, slice level, for
    every x, at one drawn (a, b) per tangent pair space.

    Two pair roots bracket onto delta's plane only when they sum to delta, so
    the pairing of [Ix, x] with the twist a X_delta + b Y_delta through the
    tangent metric, 2 * identity, is val = sum_p x_p^T I_p^T C_p x_p with
    C_p = 2a px_p + 2b py_p, and that of [JIx, Jx] is val_j, the same with
    J I_p and J x_p.  The bound val <= -n0 |ab| |x|^2 (norms in the tangent
    metric) holds for every x exactly when lambda_max(sym(I_p^T C_p)) +
    2 n0 |ab| <= 0 on every pair, and so does the twisted one, val - val_j <=
    -2 n0 |ab| |x|^2."""
    table = frame.pair_table
    usable = np.flatnonzero(table.tangent)
    if not usable.size:
        return CheckResult("pair-bound", "no usable pair sets", 0, 0.0, 1e-8, exhaustive=True)
    ab = rng.standard_normal((usable.size, 2))
    ab[~ab.any(axis=1), 0] = 1.0
    per_space = np.diff(table.starts)[usable]
    rows = _tangent_rows(table)
    a, b = np.repeat(ab, per_space, axis=0).T[:, :, None, None]
    i_blk = _quarter_blocks(table, rows, a, b)
    c = 2.0 * a * table.px[rows] + 2.0 * b * table.py[rows]
    jcj = _apply_j(_apply_j(c.swapaxes(1, 2)).swapaxes(1, 2))  # J^T C J
    forms = i_blk.swapaxes(1, 2) @ np.stack([c, c - jcj])
    top = np.linalg.eigvalsh(0.5 * (forms + forms.swapaxes(2, 3)))[..., -1]
    n0 = np.minimum.reduceat(np.abs(table.consts), table.starts[:-1])[usable]
    bound = np.repeat(2.0 * n0 * np.hypot(*ab.T), per_space)
    # and the slice-level form of the twisted pairing bound (rate-free)
    worst = float(max(0.0, np.max(top[0] + bound), np.max(top[1] + 2.0 * bound)))
    return CheckResult(
        "pair-bound",
        "bracket pairing against the twist direction is at most minus the "
        "minimal structure constant times the squared norm",
        rows.size, worst, 1e-8,
        note="the rate-free slice-level bound is checked; the literal "
             "rate-weighted display is dimensionally inconsistent at a slice; "
             "(a, b) is drawn once per pair space from this check's seed stream",
        exhaustive=True,
    )


def _curvature_weights(frame: RealFormFrame) -> tuple[float, np.ndarray]:
    """Weights of the sectional curvature quadratic as a sum of squares of
    brackets: 1/4 of the tangent metric (2 * identity) on [x, y]_m, and the
    isotropy block of the metric, read on every call, on [x, y]_k."""
    return 0.25 * 2.0, frame.metric[: frame.m_start, : frame.m_start]


def _curvature_from_brackets(frame: RealFormFrame, bm: np.ndarray, bk: np.ndarray) -> np.ndarray:
    """The curvature quadratic from the brackets [x, y]_m and [x, y]_k."""
    w_m, g_k = _curvature_weights(frame)
    return w_m * np.einsum("...i,...i->...", bm, bm) + np.einsum("...i,ij,...j->...", bk, g_k, bk)


def _check_curvature_nonneg(frame, rng, trials) -> CheckResult:
    """The quadratic is a sum of squares of brackets with the weights of
    ``_curvature_weights``, so it is nonnegative on all of m x m when they
    are positive semidefinite: the residual is max(0, -lambda_min)."""
    w_m, g_k = _curvature_weights(frame)
    lowest = min(w_m, float(np.linalg.eigvalsh(0.5 * (g_k + g_k.T))[0]))
    return CheckResult(
        "curvature-nonnegativity",
        "sectional curvature quadratic is a sum of squares",
        frame.m_dim ** 2, max(0.0, -lowest), TOL_IDENTITY, exhaustive=True,
    )


def _check_curvature_diagonal(frame, rng, trials) -> CheckResult:
    """[x, x] = 0 for every x, so the quadratic vanishes on proportional
    arguments: every tangent and isotropy block plus the transpose of its
    partner, the block of the swapped argument planes, vanishes."""
    blocks = frame.plane_blocks
    worst = max(
        _max_norm(blocks.m + np.take(blocks.m, blocks.partner, axis=-1).transpose(1, 0, 2, 3)),
        _max_norm(blocks.k + np.take(blocks.k, blocks.k_partner, axis=-1).transpose(1, 0, 2)))
    return CheckResult(
        "curvature-diagonal",
        "the quadratic vanishes on proportional arguments",
        frame.m_dim ** 2, worst, TOL_IDENTITY, exhaustive=True,
    )


def curvature_quadratic(frame: RealFormFrame, x_m, y_m) -> np.ndarray:
    """<R(x, y) y, x> = (1/4)|[x, y]_m|^2 + |[x, y]_k|^2, over the leading axes
    of x and y (at least one)."""
    _require_tangent(frame, ndim=None, x_m=x_m, y_m=y_m)
    x2 = np.atleast_2d(x_m)
    y2 = np.atleast_2d(y_m)
    return _curvature_from_brackets(frame, bracket_m(frame, x2, y2), bracket_k(frame, x2, y2))


def _check_hessian_chain(frame, rng, trials) -> CheckResult:
    """Each bracket once: the curvature terms read [g, x] and [g, Jx], and
    [x, g]_k = -[g, x]_k has the same norm."""
    a_f = frame.random_m(rng, trials)
    x = frame.random_m(rng, trials)
    g = frame.random_m(rng, trials)
    jx = _apply_j(x)
    bm, bmj = bracket_m(frame, g, x), bracket_m(frame, g, jx)
    bk, bkj = bracket_k(frame, g, x), bracket_k(frame, g, jx)
    lhs = (
        frame.m_norm2(a_f + 0.5 * bm)
        + frame.m_norm2(_apply_j(a_f) + 0.5 * bmj)
        - _curvature_from_brackets(frame, bm, bk)
        - _curvature_from_brackets(frame, bmj, bkj)
    )
    rhs = (
        2.0 * frame.m_norm2(a_f)
        + frame.m_inner(a_f, bm - _apply_j(bmj))
        - frame.k_inner(bk, bk)
        - frame.k_inner(bkj, bkj)
    )
    return CheckResult(
        "hessian-chain",
        "pointwise reduction of the averaged second variation integrand",
        trials, _max_norm(lhs - rhs), TOL_IDENTITY,
    )


SUITES: dict[str, tuple[Callable, ...]] = {
    "integrability": (_check_integrability,),
    "mel": (
        _check_holomorphic_closure,
        _check_r_operator_form,
        _check_isotropy_vanishing,
        _check_isotropy_pairing,
    ),
    "onemel": (_check_conditioned_commutation, _check_conditioned_skew),
    "twomel": (_check_double_bracket, _check_quarter_turn, _check_pair_bounds),
    "curvature": (_check_curvature_nonneg, _check_curvature_diagonal),
    "ceh-chain": (_check_hessian_chain,),
}

# Each check draws from default_rng([seed, its position in the "all" order]),
# so a check sees the same inputs whichever suite runs it.
_CHECK_STREAMS = {fn: n for n, fn in enumerate(fn for fns in SUITES.values() for fn in fns)}


def identity_suite(
    frame: RealFormFrame, suite_name: str, trials: int = 10_000, seed: int = 0
) -> Report:
    """Run the named pointwise-identity suite on seeded random inputs."""
    if trials < 1 or seed < 0:
        raise InvalidSampling(f"need trials >= 1 and seed >= 0, got {trials} and {seed}")
    if suite_name == "all":
        names = list(SUITES)
    elif suite_name in SUITES:
        names = [suite_name]
    else:
        raise UnknownSuite(f"unknown suite {suite_name!r}; "
                           f"choose from {sorted(SUITES)} or 'all'")
    start = time.perf_counter()
    checks = [fn(frame, np.random.default_rng([seed, _CHECK_STREAMS[fn]]), trials)
              for name in names for fn in SUITES[name]]
    elapsed = (time.perf_counter() - start) * 1000.0
    return Report(
        suite=suite_name,
        frame_info=frame.describe(),
        seed=seed,
        trials=trials,
        checks=tuple(checks),
        elapsed_ms=elapsed,
    )


# ---------------------------------------------------------------------------
# frame invariants and the exact kernel classifier


def validate_frame(frame: RealFormFrame, trials: int = 2000, seed: int = 1) -> dict:
    """Numeric residuals for the structural frame invariants."""
    if trials < 1 or seed < 0:
        raise InvalidSampling(f"need trials >= 1 and seed >= 0, got {trials} and {seed}")
    rng = np.random.default_rng(seed)
    x, y, z = (rng.standard_normal((trials, frame.dim)) for _ in range(3))
    bxy = frame.bracket_full(x, y)
    byz = frame.bracket_full(y, z)
    assoc = frame.inner(x, byz) - frame.inner(bxy, z)
    jac = (
        frame.bracket_full(x, byz)
        + frame.bracket_full(y, frame.bracket_full(z, x))
        + frame.bracket_full(z, bxy)
    )
    xm = frame.random_m(rng, trials)
    ym = frame.random_m(rng, trials)
    herm = frame.m_inner(_apply_j(xm), _apply_j(ym)) - frame.m_inner(xm, ym)
    eye = np.eye(frame.m_dim)
    return {
        "associativity": _max_norm(assoc),
        "jacobi": _max_norm(jac),
        "j_squared": _max_norm(_apply_j(_apply_j(eye)) + eye),
        "hermitian": _max_norm(herm),
        "metric_blocks": _max_norm(frame.metric[frame.m_start:, frame.m_start:] - 2.0 * eye),
    }


def holomorphic_kernel_classification(
    frame: RealFormFrame,
    gamma_coeffs: dict[RootVector, tuple[Fraction, Fraction]],
    field_coeffs: dict[RootVector, tuple[Fraction, Fraction]],
) -> bool:
    """Exact test: does the (1,0) part of the field bracket the (0,1) part of
    the velocity into anti-holomorphic tangent directions only?

    Returns True when it does (degenerate averaged Hessian), False otherwise.
    Coefficients must be exact rationals, and every key a root of the frame's
    system.

    The test runs on root ids.  A field root a and a velocity root l with
    nonzero coefficients give the term (x_a + i y_a)(a_l - i b_l) [E_a, E_-l],
    whose direction ``sums[a, neg[l]]`` is a root, the Cartan block (-2) or
    nothing (-1).  A tangent-negative root direction passes whatever its
    coefficient.  Any other direction reached by one term fails with no
    arithmetic: that term is a nonzero constant of the Chevalley slot table,
    or a coroot, times two nonzero coefficients.  Only a direction reached by
    two or more terms sums them exactly (``_terms_cancel``), as when several
    velocity roots meet one root sum, or the coroots of several a = l pairs
    meet in the Cartan block.
    """
    sys = frame.sys
    field_terms = _nonzero_terms(sys, field_coeffs)
    velocity_terms = _nonzero_terms(sys, gamma_coeffs)
    sums, neg, part = sys.sums, sys.neg, frame.split.part
    failing: dict[int, list] = {}
    for a, x in field_terms:
        row = sums[a]
        for l, g in velocity_terms:
            s = int(row[neg[l]])
            if s == -2 or (s >= 0 and part[s] != -1):
                failing.setdefault(s, []).append((a, l, x, g))
    return all(len(terms) > 1 and _terms_cancel(frame.chev, terms)
               for terms in failing.values())


_EXACT = (int, Fraction)


def _nonzero_terms(sys: RootSystem, coeffs: dict) -> list[tuple[int, tuple]]:
    """(root id, coefficient pair) for each entry of ``coeffs`` with a nonzero
    pair; raises on a key that is not a root of ``sys``."""
    out = []
    for root, (re, im) in coeffs.items():
        i = sys.id_of(root)
        # int and Fraction by type first: isinstance against an ABC is slow here
        if not (type(re) in _EXACT and type(im) in _EXACT
                or isinstance(re, Rational) and isinstance(im, Rational)):
            raise TypeError(f"not an exact rational pair: {(re, im)!r}")
        if re or im:
            out.append((i, (re, im)))
    return out


def _terms_cancel(chev: ChevalleyData, terms: list) -> bool:
    """Whether the bracket terms of one direction sum to zero, exactly in
    Q(sqrt 2): each is (x + i y)(a - i b) times the constant of (field root,
    -velocity root), read through the slot table by id, or the field root's
    coroot (its own ambient coordinates) in the Cartan block.  The real part
    x a + y b and the imaginary part y a - x b are summed apart."""
    sys = chev.sys
    total = None
    for a, l, (x, y), (ga, gb) in terms:
        b = sys.neg[l]
        if sys.sums[a, b] == -2:
            value = sys.roots[a].unscaled()
        else:
            value = (chev._consts[chev._slot[a, b]],)
        re, im = x * ga + y * gb, y * ga - x * gb
        vec = [v * part for v in value for part in (re, im)]
        total = vec if total is None else [t + v for t, v in zip(total, vec)]
    return all(t == 0 for t in total)
