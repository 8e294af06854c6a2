"""Numeric geometry of the compact real form.

A frame packages the ordered real basis (Cartan block, isotropy root planes,
tangent root planes), its sparse structure-constant plan, metric, and complex
structure.  The plan lists the nonzero constants ``[e_i, e_j] = c e_k`` as
index arrays; each constant is summed exactly from the Chevalley pair action
and frozen into float64 once.  Every bracket, adjoint matrix and identity
check contracts through that one plan.  Every tensor along a geodesic is
reduced to constant coefficients in this frame, so transport is a single
matrix exponential and all the pointwise identities become
finite-dimensional residual checks.  The averaged Hessian, the tangent norm
and the twist pairing are forms in the initial fields: each averaged matrix
int_0^1 exp(tA)^T M exp(tA) dt is read off one block exponential (Van Loan),
exactly in t, so no time grid or node count is involved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.linalg import expm

from .chevalley import ChevalleyData, build_chevalley
from .errors import DegenerateCoefficients, DimensionMismatch, NotARoot, NotInK, UnknownSuite
from .exactnum import CSqrt2
from .parabolic import ParabolicSplit
from .rootsys import RootSystem, RootVector, _minus, build_root_system, inner

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
    i, j, k, c = (a[order] for a in (i, j, k, c))
    first = np.ones(k.size, dtype=bool)
    first[1:] = k[1:] != k[:-1]
    return BracketPlan(i, j, k, c, k[first], np.flatnonzero(first), n_in, n_out)


def _sub_plan(plan: BracketPlan, inputs: np.ndarray, outputs: np.ndarray) -> BracketPlan:
    """The entries with both inputs among ``inputs`` and the output among
    ``outputs``, re-indexed by position in those index arrays."""
    at_in = np.full(plan.n_in, -1)
    at_in[inputs] = np.arange(len(inputs))
    at_out = np.full(plan.n_out, -1)
    at_out[outputs] = np.arange(len(outputs))
    i, j, k = at_in[plan.i], at_in[plan.j], at_out[plan.k]
    keep = (i >= 0) & (j >= 0) & (k >= 0)
    return _make_plan(i[keep], j[keep], k[keep], plan.c[keep], len(inputs), len(outputs))


# Products per block of rows in ``_contract``: about 256 KB of float64, so the
# gathered terms stay in cache between the multiply and the reduction.
_BLOCK_TERMS = 1 << 15


def _contract(plan: BracketPlan, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bracket of coordinate vectors through a plan, batched over leading axes
    (which broadcast): ``out[..., k] = sum x[..., i] * y[..., j] * c``."""
    x, y = np.broadcast_arrays(x, y)
    lead = x.shape[:-1]
    x = x.reshape(-1, plan.n_in)
    y = y.reshape(-1, plan.n_in)
    out = np.zeros((x.shape[0], plan.n_out), dtype=np.result_type(x, y, plan.c))
    if plan.c.size:
        rows = max(1, _BLOCK_TERMS // plan.c.size)
        for s in range(0, x.shape[0], rows):
            terms = x[s:s + rows, plan.i] * y[s:s + rows, plan.j]
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


def _structure_constants(chev: ChevalleyData, slots: dict) -> dict[tuple[int, int, int], object]:
    """Exact constants over the real basis h_l = i s_l, X_a = E_a - E_-a,
    Y_a = i(E_a + E_-a), keyed by (i, j, k), from the pair action alone.

    For positive a, b = eps * beta with beta positive, s = a + b a root of
    sign sigma and N = c_{a,b}: [X_a, X_beta] gets eps*sigma*N on X_|s|,
    [X_a, Y_beta] gets N on Y_|s|, [Y_a, X_beta] gets eps*N on Y_|s| and
    [Y_a, Y_beta] gets -sigma*N on X_|s|.  [X_a, Y_a] = 2i [E_a, E_-a] lands
    in the Cartan block: [E_a, E_-a] is the dual of a, whose coordinates
    over the simple roots are the expansion n_l of a, so [X_a, Y_a] gets
    2 n_l on h_l.  [h_l, X_a] = <a, s_l> Y_a and [h_l, Y_a] = -<a, s_l> X_a.
    Negative a adds nothing new: c_{-a,-b} = -c_{a,b}.
    """
    sys = chev.sys
    acc: dict[tuple[int, int, int], object] = {}

    def add(i: int, j: int, k: int, value) -> None:
        key = (i, j, k)
        acc[key] = acc[key] + value if key in acc else value

    def signed_slot(r: RootVector):
        slot = slots.get(r)
        return (slot, 1) if slot is not None else (slots[-r], -1)

    for (a, b), (s, value) in chev.pair_action.items():
        slot_a = slots.get(a)
        if slot_a is None:
            continue
        xa, ya = slot_a
        if s is None:
            for l, n_l in enumerate(sys.expansions[a]):
                if n_l:
                    add(xa, ya, l, 2 * n_l)
                    add(ya, xa, l, -2 * n_l)
            continue
        (xb, yb), eps = signed_slot(b)
        (xs, ys), sigma = signed_slot(s)
        add(xa, xb, xs, value if eps * sigma > 0 else -value)
        add(xa, yb, ys, value)
        add(ya, xb, ys, value if eps > 0 else -value)
        add(ya, yb, xs, -value if sigma > 0 else value)
    for l, simple in enumerate(sys.simples):
        for alpha, (xa, ya) in slots.items():
            t = inner(sys, simple, alpha)
            if t:
                add(l, xa, ya, t)
                add(xa, l, ya, -t)
                add(l, ya, xa, -t)
                add(ya, l, xa, t)
    return acc


# ---------------------------------------------------------------------------
# frame construction


@dataclass(frozen=True)
class RealFormFrame:
    """Constant-coefficient model of the compact form at the base point."""

    split: ParabolicSplit
    chev: ChevalleyData = field(repr=False)
    labels: tuple = field(repr=False)
    dim: int
    m_start: int
    m_pos: tuple[RootVector, ...]
    k_pos: tuple[RootVector, ...]
    plan: BracketPlan = field(repr=False)
    plan_m: BracketPlan = field(repr=False)  # tangent x tangent -> tangent
    plan_k: BracketPlan = field(repr=False)  # tangent x tangent -> isotropy
    metric: np.ndarray = field(repr=False)
    j_m: np.ndarray = field(repr=False)
    slots: dict[RootVector, tuple[int, int]] = field(repr=False)

    @property
    def sys(self):
        return self.split.sys

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
            "painted": sorted(self.split.sigma_k),
            "dim": self.dim,
            "m_dim": self.m_dim,
        }

    # -- coordinates --------------------------------------------------------

    def embed_m(self, x_m: np.ndarray) -> np.ndarray:
        out = np.zeros(x_m.shape[:-1] + (self.dim,))
        out[..., self.m_start:] = x_m
        return out

    def m_slot(self, alpha: RootVector) -> tuple[int, int]:
        ix, iy = self.slots[alpha]
        return ix - self.m_start, iy - self.m_start

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


def build_frame(split: ParabolicSplit, chev: Optional[ChevalleyData] = None) -> RealFormFrame:
    """Structure-constant plan, metric and complex structure over the ordered
    real basis."""
    if not split.delta_m_pos:
        raise ValueError("every node is painted; the frame has no tangent block")
    sys = split.sys
    if chev is None:
        chev = build_chevalley(sys)
    rank = sys.rank
    k_pos = split.k_pos_sorted
    m_pos = split.m_pos_sorted
    labels: list = [("h", j) for j in range(rank)]
    slots: dict[RootVector, tuple[int, int]] = {}
    for alpha in (*k_pos, *m_pos):
        slots[alpha] = (len(labels), len(labels) + 1)
        labels.append(("X", alpha))
        labels.append(("Y", alpha))
    dim = len(labels)
    m_start = rank + 2 * len(k_pos)

    exact = _structure_constants(chev, slots)
    ijk = np.array(list(exact), dtype=np.int32).reshape(-1, 3)
    c = np.array([float(value) for value in exact.values()], dtype=np.float64)
    nonzero = c != 0.0  # an exact constant is zero iff its float is
    plan = _make_plan(*ijk[nonzero].T, c[nonzero], dim, dim)

    metric = np.zeros((dim, dim))
    for i, si in enumerate(sys.simples):
        for j, sj in enumerate(sys.simples):
            metric[i, j] = float(inner(sys, si, sj))
    for alpha in (*k_pos, *m_pos):
        ix, iy = slots[alpha]
        metric[ix, ix] = 2.0
        metric[iy, iy] = 2.0

    m_dim = dim - m_start
    j_m = np.zeros((m_dim, m_dim))
    for alpha in m_pos:
        ix, iy = slots[alpha]
        ix, iy = ix - m_start, iy - m_start
        j_m[iy, ix] = 1.0
        j_m[ix, iy] = -1.0

    return RealFormFrame(
        split=split,
        chev=chev,
        labels=tuple(labels),
        dim=dim,
        m_start=m_start,
        m_pos=m_pos,
        k_pos=k_pos,
        plan=plan,
        plan_m=_sub_plan(plan, np.arange(m_start, dim), np.arange(m_start, dim)),
        plan_k=_sub_plan(plan, np.arange(m_start, dim), np.arange(m_start)),
        metric=metric,
        j_m=j_m,
        slots=slots,
    )


def frame_for(family: str, rank: int, painted: Sequence[int] = ()) -> RealFormFrame:
    """Convenience builder from family/rank/painted indices (cached)."""
    return _frame_cached(family.upper(), rank, tuple(sorted(painted)))


_FRAME_CACHE: dict = {}


def _frame_cached(family: str, rank: int, painted: tuple) -> RealFormFrame:
    key = (family, rank, painted)
    if key not in _FRAME_CACHE:
        from .parabolic import PaintedDiagram, split as make_split

        sys = build_root_system(family, rank)
        sp = make_split(sys, PaintedDiagram.of(sys, painted))
        _FRAME_CACHE[key] = build_frame(sp)
    return _FRAME_CACHE[key]


# ---------------------------------------------------------------------------
# core operators


def bracket_m(frame: RealFormFrame, x_m: np.ndarray, y_m: np.ndarray) -> np.ndarray:
    """Tangent-block part of the bracket of two tangent vectors."""
    return _contract(frame.plan_m, x_m, y_m)


def bracket_k(frame: RealFormFrame, x_m: np.ndarray, y_m: np.ndarray) -> np.ndarray:
    """Isotropy-block part of the bracket of two tangent vectors."""
    return _contract(frame.plan_k, x_m, y_m)


def r_operator(frame: RealFormFrame, gdot: np.ndarray) -> np.ndarray:
    """Matrix of X -> [gdot, X]_m + J [J gdot, X]_m on the tangent block."""
    if not np.any(gdot):
        raise ValueError("velocity must be nonzero")
    a1 = _ad(frame.plan_m, gdot)
    a2 = _ad(frame.plan_m, frame.j_m @ gdot)
    return a1 + frame.j_m @ a2


def hat_transport(frame: RealFormFrame, gdot: np.ndarray, t: float) -> np.ndarray:
    """Transport matrix at time t (identity at t = 0)."""
    return expm(-0.5 * t * r_operator(frame, gdot))


def _pairing_matrix(frame: RealFormFrame, gdot: np.ndarray) -> np.ndarray:
    """Matrix p of the bracket pairing, P(x, y) = <[y, x]_m - [Jy, Jx]_m, gdot>
    = x.p.y.  By ad-invariance of the metric <[y, x]_m, gdot> = y.C.x with
    C = -2 ad_m(gdot), so no bracket is evaluated."""
    c = -2.0 * _ad(frame.plan_m, gdot)
    j = frame.j_m
    return (c - j.T @ c @ j).T


def _forms(frame: RealFormFrame, gdot: np.ndarray):
    """Transport generator r and the two quadratic integrands of one velocity:
    x.h.x = |r x|^2 + |[x, gdot]_k|^2_g + |[Jx, gdot]_k|^2_g (the energy
    Hessian) and the pairing matrix p."""
    r = r_operator(frame, gdot)
    ad_k = _ad(frame.plan_k, gdot)  # X -> [gdot, X]_k ; [X, gdot]_k = -that
    g_k = frame.metric[: frame.m_start, : frame.m_start]
    kk = ad_k.T @ g_k @ ad_k
    j = frame.j_m
    h = r.T @ r + kk + j.T @ kk @ j
    return r, h, _pairing_matrix(frame, gdot)


def _averaged(gen: np.ndarray, m: np.ndarray) -> np.ndarray:
    """int_0^1 exp(t gen)^T m exp(t gen) dt, exact in t: with
    F = expm([[-gen^T, m], [0, gen]]) it is F22^T F12 (Van Loan, IEEE TAC
    23(3), 1978)."""
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
    r, h, p = _forms(frame, gdot)
    h_bar, g_bar, p_bar = (_averaged(-0.5 * r, m) for m in (h, 2.0 * np.eye(frame.m_dim), p))
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
    # the e part of _quadrature alone: one block exponential, not three
    r, h, _ = _forms(frame, gdot)
    return -_form(x0_batch, _averaged(-0.5 * r, h), x0_batch)


# ---------------------------------------------------------------------------
# the pair-space operator and the twisted quadratic form


def s0_indices(frame: RealFormFrame, pair_set) -> tuple[tuple[RootVector, RootVector], ...]:
    """Sorted pair list; each pair as (alpha, beta) with alpha < beta."""
    pairs = []
    for pair in pair_set:
        a, b = sorted(tuple(pair))
        pairs.append((a, b))
    return tuple(sorted(pairs))


def s0_embedding(frame: RealFormFrame, pair_set) -> np.ndarray:
    """Full-frame indices of the pair-space coordinates, pair by pair."""
    idx = []
    for a, b in s0_indices(frame, pair_set):
        idx.extend(frame.slots[a])
        idx.extend(frame.slots[b])
    return np.array(idx, dtype=int)


def tilde_vector(frame: RealFormFrame, delta: RootVector, a: float, b: float) -> np.ndarray:
    """Full-frame vector a*X_delta + b*Y_delta."""
    out = np.zeros(frame.dim)
    ix, iy = frame.slots[delta]
    out[ix], out[iy] = a, b
    return out


def map_I(
    frame: RealFormFrame,
    delta: RootVector,
    a: float,
    b: float,
    pair_set,
) -> np.ndarray:
    """Matrix of the quarter-turn operator on the pair space of ``delta``."""
    if a == 0 and b == 0:
        raise DegenerateCoefficients("both coefficients vanish")
    pairs = s0_indices(frame, pair_set)
    ids = frame.sys.ids
    for alpha, beta in pairs:
        if frame.sys.sums[ids[alpha], ids[beta]] != ids.get(delta):
            raise ValueError(f"pair {(alpha, beta)} does not sum to {delta}")
    ad = frame.ad_matrix(tilde_vector(frame, delta, a, b))
    scale = float(np.hypot(a, b))
    n = 4 * len(pairs)
    out = np.zeros((n, n))
    for p, (alpha, beta) in enumerate(pairs):
        idx = [*frame.slots[alpha], *frame.slots[beta]]
        c = abs(float(frame.chev.constant(alpha, beta)))
        out[4 * p: 4 * p + 4, 4 * p: 4 * p + 4] = ad[np.ix_(idx, idx)] / (scale * c)
    return out


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
    w0: np.ndarray,
    k: float,
    *,
    i_map: Optional[np.ndarray] = None,
    pair_set=None,
) -> float:
    """Quaternionic average of the energy Hessian on a twisted field."""
    if np.any(w0):
        if i_map is None or pair_set is None:
            raise ValueError("a pair-space operator is required for a nonzero w0")
        emb = s0_embedding(frame, pair_set) - frame.m_start
        w_s0 = w0[emb]
        iw0 = np.zeros_like(w0)
        iw0[emb] = i_map @ w_s0
    else:
        iw0 = np.zeros_like(w0)
    e, a, b = _quadrature(frame, gdot, np.atleast_2d(x0 + w0), np.atleast_2d(y0 + iw0))
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
    *,
    k_start: float = 1.0,
    max_halvings: int = 60,
) -> KSearchResult:
    """Smallest-dyadic twisting rate making the averaged form negative on all
    supplied (xbar0, ybar0) configurations.

    The form is quadratic in the rate, so the per-configuration coefficients
    are integrated once and the bisection runs on the closed forms.
    """
    if len(configs) == 0:
        raise ValueError("k_search needs at least one configuration")
    e, a, b = _quadrature(frame, gdot, np.array([c[0] for c in configs]),
                          np.array([c[1] for c in configs]))
    k = k_start
    for _ in range(max_halvings):
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
    support_threshold: float = 1e-9,
) -> tuple[np.ndarray, frozenset[RootVector]]:
    """Push the velocity by the isotropy flow of one painted-span root plane.

    Returns the perturbed tangent coordinates and their root support above
    ``support_threshold`` times the original norm.
    """
    if root_k not in frame.split.delta_k_pos:
        raise NotInK(f"{root_k} is not a positive painted-span root")
    x_full = np.zeros(frame.dim)
    x_full[frame.slots[root_k][0]] = 1.0
    ad = frame.ad_matrix(x_full)
    ad_mm = ad[frame.m_start:, frame.m_start:]
    leak = ad[: frame.m_start, frame.m_start:]
    if np.max(np.abs(leak)) > 1e-12:
        raise RuntimeError("isotropy action leaked outside the tangent block")
    new = expm(t * ad_mm) @ gamma_coeffs
    cutoff = support_threshold * np.sqrt(frame.m_norm2(gamma_coeffs))
    support = set()
    for alpha in frame.m_pos:
        ix, iy = frame.m_slot(alpha)
        if np.hypot(new[ix], new[iy]) > cutoff:
            support.add(alpha)
    return new, frozenset(support)


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
    j = frame.j_m
    g_k = frame.metric[: frame.m_start, : frame.m_start]
    x = frame.random_m(rng, trials)
    y = frame.random_m(rng, trials)
    kxy = bracket_k(frame, x, y)
    kjxy = bracket_k(frame, x @ j.T, y)
    lhs = (
        np.einsum("ni,ij,nj->n", kxy, g_k, kxy)
        + np.einsum("ni,ij,nj->n", kjxy, g_k, kjxy)
    )
    w = bracket_k(frame, _split_10(frame, x), _split_10(frame, y).conj())
    rhs = 4.0 * np.einsum("ni,ij,nj->n", w, g_k, w.conj()).real
    return CheckResult(
        "isotropy-pairing",
        "isotropy bracket norms against the mixed-type pairing",
        trials, _max_norm(lhs - rhs), TOL_IDENTITY,
    )


def _kernel_supports(frame, delta):
    """Tangent-positive roots whose plane brackets the conjugate of the
    delta-plane back into anti-holomorphic directions only (after the tangent
    projection, which drops Cartan and isotropy parts)."""
    rests = [_minus(frame.sys, alpha, delta) for alpha in frame.m_pos]
    return [alpha for alpha, r in zip(frame.m_pos, rests) if r < 0 or frame.split.part[r] != 1]


def _conditioned_batch(frame, rng, trials):
    """Random (x, y) rows with y in one root plane and x supported so that the
    mixed-type bracket stays anti-holomorphic in the tangent block."""
    deltas = frame.m_pos
    x = np.zeros((trials, frame.m_dim))
    y = np.zeros((trials, frame.m_dim))
    support: dict[int, list[int]] = {}
    for n in range(trials):
        pick = int(rng.integers(len(deltas)))
        y[n, list(frame.m_slot(deltas[pick]))] = rng.standard_normal(2)
        if pick not in support:
            support[pick] = [s for alpha in _kernel_supports(frame, deltas[pick])
                             for s in frame.m_slot(alpha)]
        x[n, support[pick]] = rng.standard_normal(len(support[pick]))
    return x, y


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


def _pair_sets(frame):
    """All unordered positive pairs summing to each tangent-positive root, read
    from the pair action, which stores the sum of every pair."""
    sys = frame.sys
    m_pos = frame.split.delta_m_pos
    found: dict[RootVector, list] = {}
    for (alpha, beta), (s, _) in frame.chev.pair_action.items():
        if s in m_pos and alpha < beta and sys.is_positive(alpha) and sys.is_positive(beta):
            found.setdefault(s, []).append((alpha, beta))
    return {delta: tuple(sorted(found[delta])) for delta in frame.m_pos if delta in found}


def _usable_pair_sets(frame):
    """The pair sets whose roots all lie in the tangent block."""
    m_pos = frame.split.delta_m_pos
    return {d: p for d, p in _pair_sets(frame).items()
            if all(x in m_pos and y in m_pos for x, y in p)}


def _check_double_bracket(frame, rng, trials) -> CheckResult:
    pair_sets = _pair_sets(frame)
    if not pair_sets:
        return CheckResult("double-bracket", "no decomposable roots in this frame",
                           0, 0.0, TOL_IDENTITY)
    deltas = sorted(pair_sets)
    worst = 0.0
    combos = sum(len(pair_sets[d]) for d in deltas)
    per = -(-trials // combos)
    total = 0
    for delta in deltas:
        for alpha, beta in pair_sets[delta]:
            a, b = rng.standard_normal(2)
            tilde = tilde_vector(frame, delta, a, b)
            idx = [*frame.slots[alpha], *frame.slots[beta]]
            c2 = float(frame.chev.constant(alpha, beta)) ** 2
            x = rng.standard_normal((per, 4))
            # bracketing with tilde, projected back to the pair's root planes
            blk = frame.ad_matrix(tilde)[np.ix_(idx, idx)]
            twice = x @ (blk @ blk).T
            res = twice + (a * a + b * b) * c2 * x
            worst = max(worst, _max_norm(res))
            total += per
    return CheckResult(
        "double-bracket",
        "twice-projected bracketing against a root plane scales by the "
        "squared structure constant",
        total, worst, TOL_IDENTITY,
    )


def _check_quarter_turn(frame, rng, trials) -> CheckResult:
    """Involution, anticommutation and isometry of the pair-space operator."""
    usable = _usable_pair_sets(frame)
    if not usable:
        return CheckResult("quarter-turn", "no usable pair sets", 0, 0.0, TOL_IDENTITY)
    worst = 0.0
    total = 0
    for delta in sorted(usable):
        a, b = rng.standard_normal(2)
        if a == 0 and b == 0:
            a = 1.0
        i_mat = map_I(frame, delta, a, b, usable[delta])
        n = i_mat.shape[0]
        worst = max(worst, _max_norm(i_mat @ i_mat + np.eye(n)))
        emb = s0_embedding(frame, usable[delta]) - frame.m_start
        j_s0 = frame.j_m[np.ix_(emb, emb)]
        worst = max(worst, _max_norm(i_mat @ j_s0 + j_s0 @ i_mat))
        x = rng.standard_normal((-(-trials // len(usable)), n))
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
    from .chevalley import n0_constant

    usable = _usable_pair_sets(frame)
    if not usable:
        return CheckResult("pair-bound", "no usable pair sets", 0, 0.0, 1e-8)
    worst = 0.0
    total = 0
    for delta in sorted(usable):
        pairs = usable[delta]
        a, b = rng.standard_normal(2)
        if a == 0 and b == 0:
            a = 1.0
        n0 = n0_constant(frame.chev, [frozenset(p) for p in pairs])
        i_mat = map_I(frame, delta, a, b, pairs)
        # the bracket from the pair coordinates onto delta's plane, which is
        # all the metric pairing with the twist direction reads
        emb = s0_embedding(frame, pairs)
        plane = np.array(frame.slots[delta])
        sub = _sub_plan(frame.plan, emb, plane)
        twist = frame.metric[np.ix_(plane, plane)] @ (a, b)  # pairs with a*X_delta + b*Y_delta
        j_s0 = frame.j_m[np.ix_(emb - frame.m_start, emb - frame.m_start)]
        per = -(-trials // len(usable))
        x = rng.standard_normal((per, i_mat.shape[0]))
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
        total += per
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
    g_k = frame.metric[: frame.m_start, : frame.m_start]
    return 0.25 * 2.0 * np.einsum("ni,ni->n", bm, bm) + np.einsum(
        "ni,ij,nj->n", bk, g_k, bk
    )


def _check_hessian_chain(frame, rng, trials) -> CheckResult:
    j = frame.j_m
    g_k = frame.metric[: frame.m_start, : frame.m_start]
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
        - np.einsum("ni,ij,nj->n", kx, g_k, kx)
        - np.einsum("ni,ij,nj->n", kjx, g_k, kjx)
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
    assoc = np.einsum("ni,ij,nj->n", x, frame.metric, frame.bracket_full(y, z)) - np.einsum(
        "ni,ij,nj->n", bxy, frame.metric, z
    )
    jac = (
        frame.bracket_full(x, frame.bracket_full(y, z))
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
    arithmetic: that term is a nonzero ``pair_action`` constant or coroot
    times two nonzero coefficients.  Only a direction reached by two or more
    terms sums them exactly (``_terms_cancel``), as when several velocity
    roots meet one root sum, or the coroots of several a = l pairs meet in
    the Cartan block.
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
    ids = sys.ids
    out = []
    for root, (re, im) in coeffs.items():
        i = ids.get(root)
        if i is None:
            if root.ambient_dim != sys.ambient_dim:
                raise DimensionMismatch("root does not match the system")
            raise NotARoot(f"{root.coords} is not a root of {sys.name}")
        # int and Fraction by type first: isinstance against an ABC is slow here
        if not (type(re) in _EXACT and type(im) in _EXACT
                or isinstance(re, Rational) and isinstance(im, Rational)):
            raise TypeError(f"not an exact rational pair: {(re, im)!r}")
        if re or im:
            out.append((i, (re, im)))
    return out


def _terms_cancel(chev: ChevalleyData, terms: list) -> bool:
    """Whether the bracket terms of one direction sum to zero, exactly in
    Q(sqrt 2): each is (x + i y)(a - i b) times the ``pair_action`` constant
    of (field root, -velocity root), or its coroot in the Cartan block."""
    roots, neg = chev.sys.roots, chev.sys.neg
    total = None
    for a, l, (x, y), (ga, gb) in terms:
        s, value = chev.pair_action[roots[a], roots[neg[l]]]
        scale = CSqrt2.make(x, y) * CSqrt2.make(ga, -gb)
        vec = [scale * v for v in (value if s is None else (value,))]
        total = vec if total is None else [t + v for t, v in zip(total, vec)]
    return all(t.is_zero() for t in total)
