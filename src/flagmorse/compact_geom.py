"""Numeric geometry of the compact real form.

A frame packages the ordered real basis (Cartan block, isotropy root planes,
tangent root planes, each plane found by root id through ``slot``), its sparse
structure-constant plan, metric, and complex structure.  The plan lists the
nonzero constants ``[e_i, e_j] = c e_k`` as index arrays, built as whole
arrays over the root index: the sum table gives the root pairs, and the
Chevalley table the float64 of each exact constant, rounded once.  Every
bracket, adjoint matrix and identity check contracts through that one plan.
Every tensor along a geodesic is reduced to constant coefficients in this
frame, so transport is a single matrix exponential and all the pointwise
identities become finite-dimensional residual checks.  Each frame also builds,
once and on first use, a table of the pair spaces S0(delta) of the
tangent-positive roots: their pairs, constants and slots, the 4x4 blocks of
ad(X_delta) and ad(Y_delta) on each pair, and the bracket onto delta's plane.
The quarter-turn map and the twomel suite read it instead of full adjoint
matrices.  The averaged Hessian, the tangent norm and the twist pairing are
forms in the initial fields: each averaged matrix int_0^1 exp(tA)^T M exp(tA)
dt is read off one block exponential (Van Loan), exactly in t, so no time grid
or node count is involved.  A velocity on one long root plane delta needs no
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


class PairSpace(NamedTuple):
    """The pair space S0(delta) of one tangent-positive root delta.

    ``pairs`` are the positive pairs (alpha, beta), alpha < beta, with
    alpha + beta = delta, sorted; ``consts`` their constants c_{alpha,beta}
    as floats, and ``slots`` their full-frame coordinates X_alpha, Y_alpha,
    X_beta, Y_beta.  ``bx[p]`` and ``by[p]`` are ad(X_delta) and ad(Y_delta)
    on pair p's own four coordinates, so ad(a X_delta + b Y_delta) there is
    ``a * bx[p] + b * by[p]``.  ``tangent`` says whether every pair root lies
    in the tangent block; only then is ``plane`` set: the plan of the bracket
    from the pair coordinates (by position in ``slots.ravel()``) onto delta's
    plane (X_delta, Y_delta).
    """

    pairs: tuple[tuple[RootVector, RootVector], ...]
    consts: np.ndarray
    slots: np.ndarray
    bx: np.ndarray
    by: np.ndarray
    tangent: bool
    plane: Optional[BracketPlan]


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
    span first, in the split's order, found by id through ``slot``.
    Compared and hashed by identity."""

    split: ParabolicSplit
    chev: ChevalleyData = field(repr=False)
    dim: int
    m_start: int
    plan: BracketPlan = field(repr=False)
    plan_m: BracketPlan = field(repr=False)  # tangent x tangent -> tangent
    plan_k: BracketPlan = field(repr=False)  # tangent x tangent -> isotropy
    metric: np.ndarray = field(repr=False)
    j_m: np.ndarray = field(repr=False)
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
    def pair_spaces(self) -> dict[RootVector, PairSpace]:
        """The pair space of every tangent-positive root with at least one
        positive pair, in root order; built on first use."""
        return _pair_spaces(self)


def build_frame(split: ParabolicSplit) -> RealFormFrame:
    """Structure-constant plan, metric and complex structure over the ordered
    real basis."""
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
    # J X_a = Y_a on each tangent plane
    j_m = np.zeros((dim - m_start, dim - m_start))
    x = np.arange(0, dim - m_start, 2)
    j_m[x + 1, x] = 1.0
    j_m[x, x + 1] = -1.0

    return RealFormFrame(
        split=split,
        chev=chev,
        dim=dim,
        m_start=m_start,
        plan=plan,
        plan_m=_sub_plan(plan, np.arange(m_start, dim), np.arange(m_start, dim)),
        plan_k=_sub_plan(plan, np.arange(m_start, dim), np.arange(m_start)),
        metric=metric,
        j_m=j_m,
        _x_slot=x_slot,
    )


def _pair_spaces(frame: RealFormFrame) -> dict[RootVector, PairSpace]:
    """Every positive pair summing to a tangent-positive root, grouped by that
    root, in one pass over the root index and two over the plan.

    Bracketing with delta's plane sends the plane of a pair root alpha to the
    planes of delta - alpha, its partner, and of delta + alpha, which is in no
    pair of delta; two pair roots bracket onto delta's plane only when they
    sum to delta.  So a plan entry whose third slot is in delta's plane and
    whose other two are pair coordinates of delta stays within one pair: the
    blocks keep those with delta's plane as input, the sub-plans those with
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
    if not d.size:
        return {}
    x_slot = frame._x_slot
    slots = np.stack([x_slot[a], x_slot[a] + 1, x_slot[b], x_slot[b] + 1], axis=1)
    new = np.ones(d.size, dtype=bool)
    new[1:] = d[1:] != d[:-1]
    starts = np.flatnonzero(new)
    deltas, ends = d[starts], np.append(starts[1:], d.size)
    # by delta row and full-frame slot: 4 * pair + offset among delta's pairs
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
    by_row = np.argsort(r, kind="stable")
    n, r, i, j, k = n[by_row], r[by_row], i[by_row], j[by_row], k[by_row]
    cuts = np.searchsorted(r, np.arange(deltas.size + 1))
    i, j = i - 4 * starts[r], j - 4 * starts[r]

    tangent = np.logical_and.reduceat((part[a] == 1) & (part[b] == 1), starts)
    roots = sys.roots
    pairs = [(roots[x], roots[y]) for x, y in zip(a.tolist(), b.tolist())]
    for shared in (consts, slots, blocks):  # every caller gets views of these
        shared.flags.writeable = False
    out = {}
    for g, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
        plane = None
        if tangent[g]:
            e = slice(cuts[g], cuts[g + 1])
            plane = _make_plan(i[e], j[e], k[e], plan.c[n[e]], 4 * (hi - lo), 2)
        out[roots[deltas[g]]] = PairSpace(tuple(pairs[lo:hi]), consts[lo:hi], slots[lo:hi],
                                          blocks[0, lo:hi], blocks[1, lo:hi],
                                          bool(tangent[g]), plane)
    return out


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
    """Tangent-block part of the bracket of two tangent vectors."""
    return _contract(frame.plan_m, x_m, y_m)


def bracket_k(frame: RealFormFrame, x_m: np.ndarray, y_m: np.ndarray) -> np.ndarray:
    """Isotropy-block part of the bracket of two tangent vectors."""
    return _contract(frame.plan_k, x_m, y_m)


def _require_velocity(frame: RealFormFrame, gdot: np.ndarray) -> None:
    """``DimensionMismatch`` unless ``gdot`` is one vector of tangent
    coordinates: ``_ad`` would read the first ``m_dim`` entries of a longer
    one, and index out of a shorter or 2-D one."""
    shape = np.shape(gdot)
    if shape != (frame.m_dim,):
        raise DimensionMismatch(f"velocity has shape {shape}; the tangent block of "
                                f"{frame.sys.name} needs ({frame.m_dim},)")


def r_operator(frame: RealFormFrame, gdot: np.ndarray) -> np.ndarray:
    """Matrix of X -> [gdot, X]_m + J [J gdot, X]_m on the tangent block."""
    _require_velocity(frame, gdot)
    if not np.any(gdot):
        raise ValueError("velocity must be nonzero")
    a1 = _ad(frame.plan_m, gdot)
    a2 = _ad(frame.plan_m, frame.j_m @ gdot)
    return a1 + frame.j_m @ a2


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
    _require_velocity(frame, gdot)
    c = -2.0 * _ad(frame.plan_m, gdot)
    j = frame.j_m
    return (c - j.T @ c @ j).T


def _forms(frame: RealFormFrame, gdot: np.ndarray):
    """Transport generator r and the energy-Hessian integrand h of one
    velocity: x.h.x = |r x|^2 + |[x, gdot]_k|^2_g + |[Jx, gdot]_k|^2_g."""
    r = r_operator(frame, gdot)
    ad_k = _ad(frame.plan_k, gdot)  # X -> [gdot, X]_k ; [X, gdot]_k = -that
    g_k = frame.metric[: frame.m_start, : frame.m_start]
    kk = ad_k.T @ g_k @ ad_k
    j = frame.j_m
    h = r.T @ r + kk + j.T @ kk @ j
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
    return float(complex_hessian_many(frame, gdot, np.atleast_2d(x0))[0])


def complex_hessian_many(frame: RealFormFrame, gdot: np.ndarray,
                         x0_batch: np.ndarray) -> np.ndarray:
    # the e part of _quadrature alone: one block exponential, not three, and
    # none when r is exactly zero
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


def _quarter_turn(space: PairSpace, a: float, b: float, rows=slice(None)) -> np.ndarray:
    """Quarter-turn operator on the pairs ``rows`` of a pair space (all of
    them by default): on each pair, ad(a X_delta + b Y_delta) / (|(a, b)|
    |c_{alpha,beta}|)."""
    scale = float(np.hypot(a, b)) * np.abs(space.consts[rows])
    blocks = (a * space.bx[rows] + b * space.by[rows]) / scale[:, None, None]
    n = blocks.shape[0]
    out = np.zeros((4 * n, 4 * n))
    diag = np.arange(n)
    out.reshape(n, 4, n, 4)[diag, :, diag, :] = blocks
    return out


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
    space = frame.pair_spaces[delta]
    index = {pair: p for p, pair in enumerate(space.pairs)}
    return _quarter_turn(space, a, b, [index[pair] for pair in pairs])


def p_pairing(
    frame: RealFormFrame, x: np.ndarray, y: np.ndarray, gdot: np.ndarray
) -> float:
    """Slice value of the mixed bracket pairing against the velocity."""
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


def _check_integrability(frame: RealFormFrame, rng, trials: int) -> CheckResult:
    j = frame.j_m
    x = frame.random_m(rng, trials)
    y = frame.random_m(rng, trials)
    res = (
        bracket_m(frame, x, y)
        + bracket_m(frame, x @ j.T, y) @ j.T
        + bracket_m(frame, x, y @ j.T) @ j.T
        - bracket_m(frame, x @ j.T, y @ j.T)
    )
    return CheckResult(
        "integrability-defect",
        "complex structure against the projected bracket",
        trials, _max_norm(res), TOL_IDENTITY,
    )


def _split_10(frame, x_m):
    """(1,0) part in complexified tangent coordinates."""
    return 0.5 * (x_m - 1j * (x_m @ frame.j_m.T))


def _check_holomorphic_closure(frame, rng, trials) -> CheckResult:
    x10 = _split_10(frame, frame.random_m(rng, trials))
    y10 = _split_10(frame, frame.random_m(rng, trials))
    z = bracket_m(frame, x10, y10)
    res = z @ frame.j_m.T - 1j * z
    return CheckResult(
        "holomorphic-closure",
        "brackets of (1,0) fields stay of type (1,0) in the tangent block",
        trials, _max_norm(res), TOL_IDENTITY,
    )


def _check_r_operator_form(frame, rng, trials) -> CheckResult:
    j = frame.j_m
    x = frame.random_m(rng, trials)
    y = frame.random_m(rng, trials)
    r_val = bracket_m(frame, y, x) + bracket_m(frame, y @ j.T, x) @ j.T
    w = bracket_m(frame, _split_10(frame, x), _split_10(frame, y).conj())
    z = w - 1j * (w @ j.T)
    res = r_val + (z + z.conj()).real
    return CheckResult(
        "r-operator-form",
        "the transport generator as the defect of a mixed-type bracket",
        trials, _max_norm(res), TOL_IDENTITY,
    )


def _check_isotropy_vanishing(frame, rng, trials) -> CheckResult:
    x10 = _split_10(frame, frame.random_m(rng, trials))
    y10 = _split_10(frame, frame.random_m(rng, trials))
    res = bracket_k(frame, x10, y10)
    return CheckResult(
        "isotropy-vanishing",
        "brackets of two (1,0) fields have no isotropy part",
        trials, _max_norm(res), TOL_IDENTITY,
    )


def _check_isotropy_pairing(frame, rng, trials) -> CheckResult:
    """|[x, y]_k|^2 + |[Jx, y]_k|^2 = 4 <w, conj w> with w = [x10, conj y10]_k.

    With u = 2w and g_k symmetric, lhs - rhs is summed as the two differences
    of squares (kxy - Re u) g (kxy + Re u) + (kjxy + Im u) g (kjxy - Im u): its
    rounding then follows the residual, not the size of either side (about
    6,500 on E8 at unnormalized inputs)."""
    j = frame.j_m
    x = frame.random_m(rng, trials)
    y = frame.random_m(rng, trials)
    kxy = bracket_k(frame, x, y)
    kjxy = bracket_k(frame, x @ j.T, y)
    u = 2.0 * bracket_k(frame, _split_10(frame, x), _split_10(frame, y).conj())
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


def _conditioned_batch(frame, rng, trials):
    """Random (x, y) rows with y in one uniformly drawn tangent-positive plane
    and x standard normal on that plane's kernel mask row, so that the
    mixed-type bracket stays anti-holomorphic in the tangent block."""
    pick = rng.integers(frame.v, size=trials)
    y = np.zeros((trials, frame.v, 2))
    y[np.arange(trials), pick] = rng.standard_normal((trials, 2))
    x = rng.standard_normal((trials, frame.m_dim)) * _kernel_mask(frame)[pick]
    return x, y.reshape(trials, frame.m_dim)


def _check_conditioned_commutation(frame, rng, trials) -> CheckResult:
    j = frame.j_m
    x, y = _conditioned_batch(frame, rng, trials)
    res = bracket_m(frame, y, x) @ j.T - bracket_m(frame, y @ j.T, x)
    return CheckResult(
        "conditioned-commutation",
        "complex structure passes through the bracket when the transport "
        "generator annihilates the field",
        trials, _max_norm(res), TOL_IDENTITY,
    )


def _check_conditioned_skew(frame, rng, trials) -> CheckResult:
    j = frame.j_m
    x, y = _conditioned_batch(frame, rng, trials)
    z = bracket_m(frame, _split_10(frame, y), _split_10(frame, x))
    res = bracket_m(frame, y, x) @ j.T + bracket_m(frame, y, x @ j.T) + 4.0 * z.imag
    return CheckResult(
        "conditioned-skew",
        "the anti-linear defect of the bracket reduces to holomorphic terms",
        trials, _max_norm(res), TOL_IDENTITY,
    )


def _check_double_bracket(frame, rng, trials) -> CheckResult:
    spaces = frame.pair_spaces.values()
    if not spaces:
        return CheckResult("double-bracket", "no decomposable roots in this frame",
                           0, 0.0, TOL_IDENTITY)
    bx, by, consts = (np.concatenate([getattr(space, name) for space in spaces])
                      for name in ("bx", "by", "consts"))
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


def _quarter_turn_draws(frame, rng, trials) -> list:
    """Per pair space whose roots all lie in the tangent block, in root order:
    (delta, space, a, b, I, J, x).  Each draws (a, b), with a = 1 if both
    vanish, then ceil(trials / spaces) rows of x on the pair coordinates; I is
    the quarter turn at (a, b) and J the complex structure there."""
    usable = [(delta, space) for delta, space in frame.pair_spaces.items() if space.tangent]
    out = []
    for delta, space in usable:
        a, b = rng.standard_normal(2)
        if a == 0 and b == 0:
            a = 1.0
        i_mat = _quarter_turn(space, a, b)
        emb = space.slots.ravel() - frame.m_start
        j_s0 = frame.j_m[np.ix_(emb, emb)]
        x = rng.standard_normal((-(-trials // len(usable)), i_mat.shape[0]))
        out.append((delta, space, a, b, i_mat, j_s0, x))
    return out


def _check_quarter_turn(frame, rng, trials) -> CheckResult:
    """Involution, anticommutation and isometry of the pair-space operator."""
    draws = _quarter_turn_draws(frame, rng, trials)
    if not draws:
        return CheckResult("quarter-turn", "no usable pair sets", 0, 0.0, TOL_IDENTITY)
    worst = 0.0
    total = 0
    for _, _, _, _, i_mat, j_s0, x in draws:
        worst = max(worst, _max_norm(i_mat @ i_mat + np.eye(i_mat.shape[0])))
        worst = max(worst, _max_norm(i_mat @ j_s0 + j_s0 @ i_mat))
        worst = max(
            worst,
            _max_norm(np.einsum("ni,ni->n", x @ i_mat.T, x @ i_mat.T)
                      - np.einsum("ni,ni->n", x, x)),
        )
        total += x.shape[0]
    return CheckResult(
        "quarter-turn",
        "pair-space operator squares to minus identity, anticommutes with "
        "the complex structure, and is an isometry",
        total, worst, TOL_IDENTITY,
    )


def _check_pair_bounds(frame, rng, trials) -> CheckResult:
    """Lower bound of the bracket pairing on pair spaces, slice level."""
    draws = _quarter_turn_draws(frame, rng, trials)
    if not draws:
        return CheckResult("pair-bound", "no usable pair sets", 0, 0.0, 1e-8)
    worst = 0.0
    total = 0
    for delta, space, a, b, i_mat, j_s0, x in draws:
        n0 = float(np.min(np.abs(space.consts)))
        # the bracket from the pair coordinates onto delta's plane, which is
        # all the metric pairing with the twist direction reads
        sub = space.plane
        plane = np.array(frame.slot(delta))
        twist = frame.metric[np.ix_(plane, plane)] @ (a, b)  # pairs with a*X_delta + b*Y_delta
        ix = x @ i_mat.T
        br = _contract(sub, ix, x)
        val = br @ twist
        norms = 2.0 * np.einsum("ni,ni->n", x, x)
        excess = val + n0 * np.hypot(a, b) * norms
        worst = max(worst, float(np.max(np.maximum(excess, 0.0))))
        # slice-level form of the twisted pairing bound (rate-free)
        p_val = (br - _contract(sub, ix @ j_s0.T, x @ j_s0.T)) @ twist
        excess2 = p_val + 2.0 * n0 * np.hypot(a, b) * norms
        worst = max(worst, float(np.max(np.maximum(excess2, 0.0))))
        total += x.shape[0]
    return CheckResult(
        "pair-bound",
        "bracket pairing against the twist direction is at most minus the "
        "minimal structure constant times the squared norm",
        total, worst, 1e-8,
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
    """<R(x, y) y, x> = (1/4)|[x, y]_m|^2 + |[x, y]_k|^2."""
    x2 = np.atleast_2d(x_m)
    y2 = np.atleast_2d(y_m)
    bm = bracket_m(frame, x2, y2)
    bk = bracket_k(frame, x2, y2)
    return 0.25 * 2.0 * np.einsum("ni,ni->n", bm, bm) + frame.k_inner(bk, bk)


def _check_hessian_chain(frame, rng, trials) -> CheckResult:
    j = frame.j_m
    a_f = frame.random_m(rng, trials)
    x = frame.random_m(rng, trials)
    g = frame.random_m(rng, trials)
    bm = bracket_m(frame, g, x)
    bmj = bracket_m(frame, g, x @ j.T)
    lhs = (
        frame.m_norm2(a_f + 0.5 * bm)
        + frame.m_norm2(a_f @ j.T + 0.5 * bmj)
        - curvature_quadratic(frame, g, x)
        - curvature_quadratic(frame, g, x @ j.T)
    )
    kx = bracket_k(frame, x, g)
    kjx = bracket_k(frame, x @ j.T, g)
    rhs = (
        2.0 * frame.m_norm2(a_f)
        + frame.m_inner(a_f, bm - bmj @ j.T)
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
    d = frame.dim
    x = rng.standard_normal((trials, d))
    y = rng.standard_normal((trials, d))
    z = rng.standard_normal((trials, d))
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
    j = frame.j_m
    herm = frame.m_inner(xm @ j.T, ym @ j.T) - frame.m_inner(xm, ym)
    return {
        "associativity": _max_norm(assoc),
        "jacobi": _max_norm(jac),
        "j_squared": _max_norm(j @ j + np.eye(frame.m_dim)),
        "hermitian": _max_norm(herm),
        "metric_blocks": _max_norm(
            frame.metric[frame.m_start:, frame.m_start:] - 2.0 * np.eye(frame.m_dim)
        ),
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
