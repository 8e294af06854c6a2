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
each space is a slice of it, and one plan brackets all pair coordinates onto
all tangent delta planes.  The quarter-turn map reads a slice instead of full
adjoint matrices; the twomel checks run on the whole arrays at once, with
per-space sums by ``reduceat`` and one contraction.  It also builds, once and
on first use, the tangent brackets cut into 2x2 blocks over planes
(``PlaneBlocks``): J acts inside each plane, so a bilinear identity on every
pair of basis vectors is flips and sign multiplies of those blocks, and six
identity checks are decided that way, with no random draw.  The averaged
Hessian, the tangent norm and the twist pairing are forms in the initial fields: each
averaged matrix int_0^1 exp(tA)^T M exp(tA) dt is read off one block
exponential (Van Loan), exactly in t, so no time grid or node count is
involved.  A velocity on one long root plane delta needs no
exponential at all: for long delta, alpha - 2 delta is never a root when
alpha - delta is one, so the transport generator A moves each plane it moves
onto a plane it fixes, A^2 = 0 exactly, exp(tA) = I + tA, and every average
is a closed form in A and M.
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


class PairTable(NamedTuple):
    """The pair spaces S0(delta) of the tangent-positive roots, stacked.

    Pair p is the positive pair of root ids ``pairs[p]`` = (alpha, beta),
    alpha < beta, alpha + beta = delta, sorted by delta, then alpha.  Space g
    is delta id ``deltas[g]`` (increasing) with the pairs
    ``starts[g]:starts[g + 1]`` (``starts`` ends with the pair count), and
    ``tangent[g]`` says whether all their roots lie in the tangent block.
    Per pair: ``consts`` c_{alpha,beta}, ``slots`` the full-frame X_alpha,
    Y_alpha, X_beta, Y_beta, and ``bx``, ``by`` ad(X_delta) and ad(Y_delta) on
    those four, so ad(a X_delta + b Y_delta) there is ``a * bx + b * by``.
    ``plane`` brackets the pair coordinates (pair p's at 4p to 4p + 3) onto
    the tangent spaces' planes (space g's X_delta, Y_delta at 2g, 2g + 1): a
    space's entries are the run with ``k // 2 == g``, none if not tangent.
    """

    deltas: np.ndarray
    starts: np.ndarray
    tangent: np.ndarray
    pairs: np.ndarray
    consts: np.ndarray
    slots: np.ndarray
    bx: np.ndarray
    by: np.ndarray
    plane: BracketPlan


class PlaneBlocks(NamedTuple):
    """The tangent-input brackets of ``plan_m`` and ``plan_k`` cut into 2x2
    blocks over planes, so that a bilinear identity is read on every pair of
    basis vectors at once.  Tangent plane p holds coordinates 2p and 2p + 1.

    ``m[s, t, u, b]`` is the coefficient of e_{2r+u} in [e_{2p+s}, e_{2q+t}]_m
    with (p, q, r) = ``m_planes[:, b]``, and ``partner[b]`` the block of
    (q, p, r): the plan holds [e_j, e_i] beside every [e_i, e_j], so that
    block exists.  ``k[s, t, b]`` is the coefficient of isotropy
    coordinate o in [e_{2p+s}, e_{2q+t}]_k with (p, q, o) = ``k_planes[:, b]``.
    The block index is the last axis: flips and sign multiplies then run over
    contiguous rows of blocks, about three times faster than over trailing
    2x2x2 blocks.
    """

    m: np.ndarray
    m_planes: np.ndarray
    partner: np.ndarray
    k: np.ndarray
    k_planes: np.ndarray


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
    root, in one pass over the root index and two over the plan.

    Bracketing with delta's plane sends the plane of a pair root alpha to the
    planes of delta - alpha, its partner, and of delta + alpha, which is in no
    pair of delta; two pair roots bracket onto delta's plane only when they
    sum to delta.  So a plan entry whose third slot is in delta's plane and
    whose other two are pair coordinates of delta stays within one pair: the
    blocks keep those with delta's plane as input, the plane plan those with
    it as output.
    """
    sys, part, plan = frame.sys, frame.split.part, frame.plan
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
    deltas = d[starts]
    # by delta row and full-frame slot: 4 * pair + offset, over all pairs
    at = np.full((deltas.size, frame.dim), -1)
    at[np.cumsum(new)[:, None] - 1, slots] = np.arange(slots.size).reshape(slots.shape)
    row = np.full(frame.dim, -1)
    row[x_slot[deltas]] = row[x_slot[deltas] + 1] = np.arange(deltas.size)

    def entries(third, first_in, second_in):
        """Plan entries whose ``third`` slot is in a delta plane and whose other
        two are pair coordinates of that delta: (entry, row, the two positions)."""
        r = row[third]
        n = np.flatnonzero(r >= 0)
        r = r[n]
        u, v = at[r, first_in[n]], at[r, second_in[n]]
        keep = (u >= 0) & (v >= 0)
        return n[keep], r[keep], u[keep], v[keep]

    n, r, j, k = entries(plan.i, plan.j, plan.k)
    blocks = np.zeros((2, d.size, 4, 4))
    blocks[plan.i[n] - x_slot[deltas[r]], j // 4, k % 4, j % 4] = plan.c[n]

    n, r, i, j = entries(plan.k, plan.i, plan.j)
    k = plan.k[n] - x_slot[deltas[r]]
    # c_{alpha,beta} is the X_delta coefficient of [X_alpha, X_beta]
    consts = np.zeros(d.size)
    own = (k == 0) & (i % 4 == 0) & (j == i + 2)
    consts[i[own] // 4] = plan.c[n[own]]
    tangent = np.logical_and.reduceat((part[a] == 1) & (part[b] == 1), starts)
    keep = tangent[r]
    plane = _make_plan(i[keep], j[keep], 2 * r[keep] + k[keep], plan.c[n[keep]],
                       slots.size, 2 * deltas.size)
    blocks.flags.writeable = False  # before its views bx and by are taken
    table = PairTable(deltas, np.append(starts, d.size), tangent, np.stack([a, b], axis=1),
                      consts, slots, *blocks, plane)
    for shared in table[:6]:  # every caller reads these, or views of them
        shared.flags.writeable = False
    return table


def _plane_blocks(frame: RealFormFrame) -> PlaneBlocks:
    """One sort of the plane-triple keys of ``plan_m`` and one of the plane
    pairs of ``plan_k``; each plan entry is written into its block once, as
    the plans hold each (i, j, k) once."""
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
    return PlaneBlocks(m, m_planes, partner, k, k_planes)


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


def r_operator(frame: RealFormFrame, gdot: np.ndarray) -> np.ndarray:
    """Matrix of X -> [gdot, X]_m + J [J gdot, X]_m on the tangent block."""
    _require_tangent(frame, velocity=gdot)
    if not np.any(gdot):
        raise ValueError("velocity must be nonzero")
    a1 = _ad(frame.plan_m, gdot)
    a2 = _ad(frame.plan_m, _apply_j(gdot))
    return a1 + _apply_j(a2.T).T


def _square_zero(gen: np.ndarray) -> bool:
    """Whether no coordinate is both an input (a nonzero column) and an output
    (a nonzero row) of ``gen``.  Then every product in ``gen @ gen`` has a zero
    factor, so the square is exactly 0.0 and exp(t gen) = I + t gen exactly."""
    return not (gen.any(axis=0) & gen.any(axis=1)).any()


def hat_transport(frame: RealFormFrame, gdot: np.ndarray, t: float) -> np.ndarray:
    """Transport matrix exp(-t r / 2) at time t (identity at t = 0).

    On a long root plane delta the generator squares to zero, and the
    transport is I - t r / 2 exactly: r sends the plane of alpha only to
    that of alpha - delta, and alpha - 2 delta is never a root when
    alpha - delta is one (a delta-string through alpha != +-delta has length
    at most 2 for long delta), so no plane is both moved and reached.
    ``_square_zero`` tests this on the matrix itself; any other generator
    (a short delta in B or C, a velocity off one root plane) takes scipy's
    ``expm``.
    """
    gen = -0.5 * t * r_operator(frame, gdot)
    if _square_zero(gen):
        return np.eye(frame.m_dim) + gen
    from scipy.linalg import expm  # here, so the exact commands never load scipy
    return expm(gen)


def _pairing_matrix(frame: RealFormFrame, gdot: np.ndarray) -> np.ndarray:
    """Matrix p of the bracket pairing, P(x, y) = <[y, x]_m - [Jy, Jx]_m, gdot>
    = x.p.y.  By ad-invariance of the metric <[y, x]_m, gdot> = y.C.x with
    C = -2 ad_m(gdot), so no bracket is evaluated."""
    _require_tangent(frame, velocity=gdot)
    c = -2.0 * _ad(frame.plan_m, gdot)
    return (c - _apply_j(_apply_j(c.T).T)).T


def _forms(frame: RealFormFrame, gdot: np.ndarray):
    """Transport generator r and the energy-Hessian integrand h of one
    velocity: x.h.x = |r x|^2 + |[x, gdot]_k|^2_g + |[Jx, gdot]_k|^2_g."""
    r = r_operator(frame, gdot)
    ad_k = _ad(frame.plan_k, gdot)  # X -> [gdot, X]_k ; [X, gdot]_k = -that
    g_k = frame.metric[: frame.m_start, : frame.m_start]
    kk = ad_k.T @ g_k @ ad_k
    h = r.T @ r + kk + _apply_j(_apply_j(kk.T).T)
    return r, h


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


def _quadrature(frame: RealFormFrame, gdot: np.ndarray, x0: np.ndarray, y0: np.ndarray):
    """Averages over [0, 1] of the fields x0, y0 (one row per configuration)
    transported by exp(-t r / 2): e = -int h(x_t) + h(y_t),
    a = int |x_t|^2 + |y_t|^2 in the tangent metric, and b = int P(x_t, y_t).

    Each is a form in the initial fields whose matrix ``_averaged`` integrates
    exactly, so no time grid is involved.  The twisted form at rate k is
    e + 2 k^2 a + 2 k b.  ``a`` stays an integral: for a generic velocity the
    transport is not an isometry.
    """
    r, h = _forms(frame, gdot)
    h_bar, g_bar, p_bar = (_averaged(-0.5 * r, m)
                           for m in (h, 2.0 * np.eye(frame.m_dim), _pairing_matrix(frame, gdot)))
    e = -(_form(x0, h_bar, x0) + _form(y0, h_bar, y0))
    a = _form(x0, g_bar, x0) + _form(y0, g_bar, y0)
    return e, a, _form(x0, p_bar, y0)


def _twisted(e, a, b, k: float):
    return e + 2.0 * k * k * a + 2.0 * k * b


def complex_hessian(frame: RealFormFrame, gdot: np.ndarray, x0: np.ndarray) -> float:
    """Averaged second-variation value on a transport-parallel field."""
    _require_tangent(frame, x0=x0)
    return float(complex_hessian_many(frame, gdot, np.atleast_2d(x0))[0])


def complex_hessian_many(frame: RealFormFrame, gdot: np.ndarray,
                         x0_batch: np.ndarray) -> np.ndarray:
    # the e part of _quadrature alone: one block exponential, not three, and
    # none when r is exactly zero
    _require_tangent(frame, ndim=2, x0_batch=x0_batch)
    r, h = _forms(frame, gdot)
    return -_form(x0_batch, _averaged(-0.5 * r, h), x0_batch)


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
    return float(x @ _pairing_matrix(frame, gdot) @ y)


def p_bound(frame: RealFormFrame, gdot: np.ndarray) -> float:
    """Operator-norm bound N with |P(x, y)| <= N |x| |y|."""
    # metric is 2*identity on the block: normalized bound is ||p||_2 / 2
    return float(np.linalg.norm(_pairing_matrix(frame, gdot), 2) / 2.0)


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
    e, a, b = _quadrature(frame, gdot, np.atleast_2d(x0), np.atleast_2d(y0))
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
    for x0, y0 in configs:
        _require_tangent(frame, x0=x0, y0=y0)
    e, a, b = _quadrature(frame, gdot, np.array([c[0] for c in configs]),
                          np.array([c[1] for c in configs]))
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
    # decided on every ordered basis pair; ``trials`` counts the pairs
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


def _check_double_bracket(frame, rng, trials) -> CheckResult:
    table = frame.pair_table
    bx, by, consts = table.bx, table.by, table.consts
    if not consts.size:
        return CheckResult("double-bracket", "no decomposable roots in this frame",
                           0, 0.0, TOL_IDENTITY)
    combos = consts.size
    per = -(-trials // combos)
    # per pair, in pair order: a and b, then its ``per`` rows of x
    draws = rng.standard_normal((combos, 2 + 4 * per))
    a, b = draws[:, 0, None, None], draws[:, 1, None, None]
    x = draws[:, 2:].reshape(combos, per, 4)
    # bracketing with a X_delta + b Y_delta, projected back to the pair's
    # root planes
    blk = a * bx + b * by
    twice = x @ (blk @ blk).transpose(0, 2, 1)
    res = twice + (a * a + b * b) * (consts ** 2)[:, None, None] * x
    worst, total = _max_norm(res), per * combos
    return CheckResult(
        "double-bracket",
        "twice-projected bracketing against a root plane scales by the "
        "squared structure constant",
        total, worst, TOL_IDENTITY,
    )


def _quarter_turn_draws(frame, rng, trials):
    """Inputs of the quarter-turn and pair-bound checks: (usable, rows, ab,
    I, x), or None.  Each pair space with all its roots in the tangent
    block (``usable``), in root order, draws (a, b) (a row of ``ab``), with
    a = 1 if both vanish, then ceil(trials / spaces) rows of x on its pairs
    (``rows``).  Per pair of the table: the quarter-turn block I, and x as
    ``(rows per space, pairs, 4)``, both zero on the other spaces' pairs.  A
    pair's four coordinates are two planes, so J there is ``_apply_j``."""
    table = frame.pair_table
    usable = np.flatnonzero(table.tangent)
    if not usable.size:
        return None
    per = -(-trials // usable.size)
    lo, hi = table.starts[usable], table.starts[usable + 1]
    ab = np.empty((usable.size, 2))
    x = np.zeros((per, table.consts.size, 4))
    for g, (start, end) in enumerate(zip(lo.tolist(), hi.tolist())):
        ab[g] = rng.standard_normal(2)
        x[:, start:end] = rng.standard_normal((per, 4 * (end - start))).reshape(per, -1, 4)
    ab[~ab.any(axis=1), 0] = 1.0
    rows = np.flatnonzero(np.repeat(table.tangent, np.diff(table.starts)))
    i_blk = np.zeros((table.consts.size, 4, 4))
    i_blk[rows] = _quarter_blocks(table, rows, *np.repeat(ab, hi - lo, axis=0).T)
    return usable, rows, ab, i_blk, x


def _per_pair(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each pair's block applied to its four coordinates, on every row of x."""
    return np.einsum("pij,rpj->rpi", blocks, x, optimize=True)


def _space_norm2(table: PairTable, x: np.ndarray) -> np.ndarray:
    """Squared norm of every row of x on each pair space: per-pair sums,
    added over each space's run of pairs."""
    return np.add.reduceat(np.einsum("rpi,rpi->rp", x, x), table.starts[:-1], axis=1)


def _check_quarter_turn(frame, rng, trials) -> CheckResult:
    """Involution, anticommutation and isometry of the pair-space operator,
    block by block; the isometry sums each space's pairs."""
    draws = _quarter_turn_draws(frame, rng, trials)
    if draws is None:
        return CheckResult("quarter-turn", "no usable pair sets", 0, 0.0, TOL_IDENTITY)
    usable, rows, _, i_all, x = draws
    i_blk = i_all[rows]
    norm2 = [_space_norm2(frame.pair_table, v)[:, usable] for v in (_per_pair(i_all, x), x)]
    # IJ + JI, as J I = (I^T J^T)^T and I J = -I J^T
    worst = max(_max_norm(i_blk @ i_blk + np.eye(4)),
                _max_norm(_apply_j(i_blk.swapaxes(1, 2)).swapaxes(1, 2) - _apply_j(i_blk)),
                _max_norm(norm2[0] - norm2[1]))
    return CheckResult(
        "quarter-turn",
        "pair-space operator squares to minus identity, anticommutes with "
        "the complex structure, and is an isometry",
        x.shape[0] * usable.size, worst, TOL_IDENTITY,
    )


def _check_pair_bounds(frame, rng, trials) -> CheckResult:
    """Lower bound of the bracket pairing on pair spaces, slice level.

    The metric pairing with the twist direction reads only the bracket onto
    delta's plane, so both brackets, [Ix, x] and [JIx, Jx], of every space
    come from one contraction through the table's plane plan."""
    draws = _quarter_turn_draws(frame, rng, trials)
    if draws is None:
        return CheckResult("pair-bound", "no usable pair sets", 0, 0.0, 1e-8)
    usable, _, ab, i_blk, x = draws
    table, per = frame.pair_table, x.shape[0]
    ix = _per_pair(i_blk, x)
    ins = np.stack([ix, _apply_j(ix), x, _apply_j(x)]).reshape(4, per, -1)
    br = _contract(table.plane, ins[:2], ins[2:]).reshape(2, per, -1, 2)[:, :, usable]
    # pairs with a*X_delta + b*Y_delta through the tangent metric, 2 * identity
    val, val_j = np.einsum("nrsk,sk->nrs", br, 2.0 * ab)
    n0 = np.minimum.reduceat(np.abs(table.consts), table.starts[:-1])[usable]
    bound = n0 * np.hypot(*ab.T) * 2.0 * _space_norm2(table, x)[:, usable]
    # and the slice-level form of the twisted pairing bound (rate-free)
    worst = float(max(0.0, np.max(val + bound), np.max(val - val_j + 2.0 * bound)))
    return CheckResult(
        "pair-bound",
        "bracket pairing against the twist direction is at most minus the "
        "minimal structure constant times the squared norm",
        per * usable.size, worst, 1e-8,
        note="the rate-free slice-level bound is checked; the literal "
             "rate-weighted display is dimensionally inconsistent at a slice",
    )


def _check_curvature_nonneg(frame, rng, trials) -> CheckResult:
    x = frame.random_m(rng, trials)
    y = frame.random_m(rng, trials)
    vals = curvature_quadratic(frame, x, y)
    worst = float(np.max(np.maximum(-vals, 0.0)))
    return CheckResult(
        "curvature-nonnegativity",
        "sectional curvature quadratic is a sum of squares",
        trials, worst, TOL_IDENTITY,
    )


def _check_curvature_diagonal(frame, rng, trials) -> CheckResult:
    x = frame.random_m(rng, trials)
    lam = rng.standard_normal((trials, 1))
    vals = curvature_quadratic(frame, x, lam * x)
    return CheckResult(
        "curvature-diagonal",
        "the quadratic vanishes on proportional arguments",
        trials, _max_norm(vals), TOL_IDENTITY,
    )


def curvature_quadratic(frame: RealFormFrame, x_m, y_m) -> np.ndarray:
    """<R(x, y) y, x> = (1/4)|[x, y]_m|^2 + |[x, y]_k|^2, over the leading axes
    of x and y (at least one)."""
    _require_tangent(frame, ndim=None, x_m=x_m, y_m=y_m)
    x2 = np.atleast_2d(x_m)
    y2 = np.atleast_2d(y_m)
    bm = bracket_m(frame, x2, y2)
    bk = bracket_k(frame, x2, y2)
    return 0.25 * 2.0 * np.einsum("...i,...i->...", bm, bm) + frame.k_inner(bk, bk)


def _check_hessian_chain(frame, rng, trials) -> CheckResult:
    a_f = frame.random_m(rng, trials)
    x = frame.random_m(rng, trials)
    g = frame.random_m(rng, trials)
    jx = _apply_j(x)
    bm = bracket_m(frame, g, x)
    bmj = bracket_m(frame, g, jx)
    lhs = (
        frame.m_norm2(a_f + 0.5 * bm)
        + frame.m_norm2(_apply_j(a_f) + 0.5 * bmj)
        - curvature_quadratic(frame, g, x)
        - curvature_quadratic(frame, g, jx)
    )
    kx = bracket_k(frame, x, g)
    kjx = bracket_k(frame, jx, g)
    rhs = (
        2.0 * frame.m_norm2(a_f)
        + frame.m_inner(a_f, bm - _apply_j(bmj))
        - frame.k_inner(kx, kx)
        - frame.k_inner(kjx, kjx)
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
    rng = np.random.default_rng(seed)
    x, y, z = (rng.standard_normal((trials, frame.dim)) for _ in range(3))
    bxy = frame.bracket_full(x, y)
    byz = frame.bracket_full(y, z)
    assoc = np.einsum("ni,ij,nj->n", x, frame.metric, byz) - np.einsum(
        "ni,ij,nj->n", bxy, frame.metric, z
    )
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
