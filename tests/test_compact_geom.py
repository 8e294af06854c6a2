import itertools
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from flagmorse import compact_geom
from flagmorse.chevalley import ComplexElement, bracket_c, n0_constant
from flagmorse.compact_geom import (
    _CHECK_STREAMS,
    SUITES,
    CheckResult,
    adjoint_perturb,
    bracket_k,
    bracket_m,
    build_frame,
    complex_hessian,
    complex_hessian_many,
    curvature_quadratic,
    frame_for,
    hat_transport,
    holomorphic_kernel_classification,
    identity_suite,
    k_search,
    map_I,
    p_bound,
    p_pairing,
    q_form,
    r_operator,
    s0_embedding,
    tilde_vector,
    validate_frame,
)
from flagmorse.errors import (
    DegenerateCoefficients,
    DimensionMismatch,
    FlagmorseError,
    InvalidSampling,
    NotARoot,
    NotInK,
    NotInTangent,
    UnknownSuite,
)
from flagmorse.exactnum import CSqrt2, Sqrt2
from flagmorse.index_comb import GammaSet, st_sets
from flagmorse.parabolic import PaintedDiagram, borel_split, split
from flagmorse.rootsys import RootVector, build_root_system, inner, is_long

from conftest import (ACCEPTANCE_FRAMES, ALL_SYSTEMS, CURVATURE_WEIGHT_CONTROLS, END_NODE_FRAMES,
                      PARTIAL_TWOMEL_CONTROLS, SMALL_SYSTEMS, doubled_upper_plan_m, fresh_frame,
                      negated_cartan_metric, reversed_on_theta, twomel_control, with_pair_table,
                      without_sign, wrong_curvature_weights)
from test_rootsys import rv

TOL = 1e-10


def _unit(frame, x):
    return x / np.sqrt(frame.m_norm2(x))


def _plane_vector(frame, alpha, a=1.0, b=0.0):
    out = np.zeros(frame.m_dim)
    ix, iy = frame.m_slot(alpha)
    out[ix], out[iy] = a, b
    return out


def _delta_and_gdot(frame, a=1.1, b=-0.7, long_only=True):
    sys_ = frame.sys
    candidates = [r for r in frame.m_pos if not long_only or is_long(sys_, r)]
    delta = max(candidates, key=lambda r: (sys_.height(r), r.coords))
    return delta, _plane_vector(frame, delta, a, b)


# -- the structure-constant plan against the exact bracket ----------------------


def _exact_basis(frame):
    """The real basis as complexified elements: h_j = i * simple_j,
    X_a = E_a - E_-a and Y_a = i (E_a + E_-a), each at the coordinate that
    ``frame.slot`` gives; every coordinate is filled exactly once."""
    sys_ = frame.sys
    i1 = CSqrt2.make(0, 1)
    out = [ComplexElement.cartan(sys_, tuple(CSqrt2.make(0, c) for c in simple.unscaled()))
           for simple in sys_.simples] + [None] * (frame.dim - sys_.rank)
    for alpha in sys_.positives:
        ix, iy = frame.slot(alpha)
        assert out[ix] is None and out[iy] is None
        out[ix] = (ComplexElement.root_vector(sys_, alpha)
                   - ComplexElement.root_vector(sys_, -alpha))
        out[iy] = (ComplexElement.root_vector(sys_, alpha, i1)
                   + ComplexElement.root_vector(sys_, -alpha, i1))
    assert None not in out
    return out


def _inverse(m):
    """Exact inverse of a square Fraction matrix, by Gauss-Jordan elimination."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _simples_inv(sys_):
    """Exact left inverse of the simple roots in unscaled ambient coordinates."""
    rank = sys_.rank
    cols = [s.unscaled() for s in sys_.simples]
    gram = [[sum(a * b for a, b in zip(cols[i], cols[j])) for j in range(rank)]
            for i in range(rank)]
    gram_inv = _inverse(gram)
    return [[sum(gram_inv[i][k] * cols[k][j] for k in range(rank))
             for j in range(sys_.ambient_dim)] for i in range(rank)]


def _project_exact(frame, simples_inv, z):
    """Real frame coordinates of an exact bracket result, each one exact
    until a single float conversion; raises if z leaves the real form."""
    coords = np.zeros(frame.dim)
    half = Fraction(1, 2)
    zero = CSqrt2.of(0)
    for mu in frame.sys.positives:
        ix, iy = frame.slot(mu)
        c_plus = z.coeffs.get(frame.sys.id_of(mu), zero)
        c_minus = z.coeffs.get(frame.sys.id_of(-mu), zero)
        x = (c_plus - c_minus) * half
        y = (c_plus + c_minus) * CSqrt2.make(0, -half)
        if not x.im.is_zero() or not y.im.is_zero():
            raise ValueError(f"bracket left the real form at {mu}")
        coords[ix] = float(x.re)
        coords[iy] = float(y.re)
    if any(not h.re.is_zero() for h in z.h_part):
        raise ValueError("bracket left the real form in the Cartan block")
    w = [h.im for h in z.h_part]
    for i in range(frame.sys.rank):
        coords[i] = float(sum((simples_inv[i][j] * w_j for j, w_j in enumerate(w)),
                              Sqrt2.of(0)))
    return coords


ORACLE_FRAMES = [(f, r, ()) for f, r in SMALL_SYSTEMS] + [("B", 3, (1,)), ("D", 4, (0, 3))]


@pytest.mark.parametrize("family,rank,painted", ORACLE_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in ORACLE_FRAMES])
def test_plan_matches_exact_bracket(family, rank, painted):
    # every plan entry is the float of the exact projected bracket, bit for bit
    frame = frame_for(family, rank, painted)
    plan = frame.plan
    triples = set(zip(plan.i.tolist(), plan.j.tolist(), plan.k.tolist()))
    assert len(triples) == plan.c.size and np.all(plan.c != 0.0)
    assert np.all(np.diff(plan.k) >= 0)
    dense = np.zeros((frame.dim,) * 3)
    dense[plan.i, plan.j, plan.k] = plan.c
    basis = _exact_basis(frame)
    simples_inv = _simples_inv(frame.sys)
    for i, j in itertools.product(range(frame.dim), repeat=2):
        want = _project_exact(frame, simples_inv, bracket_c(frame.chev, basis[i], basis[j]))
        assert np.array_equal(dense[i, j], want), (i, j)
    # the tangent sub-plans are the matching blocks of the same triples
    m = frame.m_start
    assert np.array_equal(dense[m:, m:, m:], _densify(frame.plan_m))
    assert np.array_equal(dense[m:, m:, :m], _densify(frame.plan_k))


PLAN_FRAMES = [(f, r, ()) for f, r in ALL_SYSTEMS] + [("B", 3, (1,)), ("D", 4, (0, 3)),
                                                     ("E", 7, (0, 2))]


@pytest.mark.parametrize("family,rank,painted", PLAN_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in PLAN_FRAMES])
def test_plan_triples_are_unique_and_nonzero(family, rank, painted):
    # the plan is built without summing, and the pair-space blocks assign its
    # entries: a repeated (i, j, k) would survive as two entries
    frame = frame_for(family, rank, painted)
    for plan in (frame.plan, frame.plan_m, frame.plan_k):
        triples = np.stack([plan.i, plan.j, plan.k], axis=1)
        assert len(np.unique(triples, axis=0)) == plan.c.size
        assert np.all(plan.c != 0.0)
        assert np.all(np.diff(plan.k) >= 0)
        assert np.array_equal(plan.heads, np.unique(plan.k))
        assert np.array_equal(plan.k[plan.starts], plan.heads)
    # the sub-plans keep the plan's order: they equal the sorted construction,
    # values and dtypes
    m = np.arange(frame.m_start, frame.dim)
    for sub, outputs in ((frame.plan_m, m), (frame.plan_k, np.arange(frame.m_start))):
        want = _sorted_sub_plan(frame.plan, m, outputs)
        for name in ("i", "j", "k", "c", "heads", "starts"):
            a, b = getattr(sub, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (sub.n_in, sub.n_out) == (want.n_in, want.n_out)


def _sorted_sub_plan(plan, inputs, outputs):
    """The entries of ``plan`` with both inputs among ``inputs`` and the output
    among ``outputs``, re-indexed by position there and sorted again by
    ``(k, i, j)``: for index arrays in any order."""
    at_in = np.full(plan.n_in, -1)
    at_in[inputs] = np.arange(len(inputs))
    at_out = np.full(plan.n_out, -1)
    at_out[outputs] = np.arange(len(outputs))
    i, j, k = at_in[plan.i], at_in[plan.j], at_out[plan.k]
    keep = (i >= 0) & (j >= 0) & (k >= 0)
    return compact_geom._make_plan(i[keep], j[keep], k[keep], plan.c[keep],
                                   len(inputs), len(outputs))


def _structure_constants_oracle(frame):
    """The plan's entries built one pair at a time, as ``(n, 3)`` int32 (i, j, k)
    and float64 constants: one loop over the pairs with a root sum and one
    over the opposite pairs (a, -a), with ``slots`` mapping each positive root
    to its (X, Y) coordinates from ``frame.slot``."""
    chev = frame.chev
    sys_ = chev.sys
    slots = {alpha: frame.slot(alpha) for alpha in sys_.positives}
    ijk, c = [], []

    def add(i, j, k, value):
        ijk.append((i, j, k))
        c.append(float(value))

    def signed_slot(r):
        slot = slots.get(r)
        return (slot, 1) if slot is not None else (slots[-r], -1)

    for a, (xa, ya) in slots.items():
        # [E_a, E_-a] is the dual of a
        for l, n_l in enumerate(sys_.expansion_rows[sys_.ids[a]].tolist()):
            if n_l:
                add(xa, ya, l, 2 * n_l)
                add(ya, xa, l, -2 * n_l)
    for a, b in chev.all_pairs():
        slot_a = slots.get(a)
        if slot_a is None:
            continue
        xa, ya = slot_a
        s, value = a + b, chev.constant(a, b)
        (xb, yb), eps = signed_slot(b)
        (xs, ys), sigma = signed_slot(s)
        add(xa, xb, xs, value if eps * sigma > 0 else -value)
        add(xa, yb, ys, value)
        add(ya, xb, ys, value if eps > 0 else -value)
        add(ya, yb, xs, -value if sigma > 0 else value)
    for l, simple in enumerate(sys_.simples):
        for alpha, (xa, ya) in slots.items():
            t = inner(sys_, simple, alpha)
            if t:
                add(l, xa, ya, t)
                add(xa, l, ya, -t)
                add(l, ya, xa, -t)
                add(ya, l, xa, t)
    return np.array(ijk, dtype=np.int32).reshape(-1, 3), np.array(c, dtype=np.float64)


# two paintings of every system with a tangent block left: the first node, and
# every second node from the second on
ORACLE_PAINTINGS = [(f, r, p) for f, r in ALL_SYSTEMS if r > 1
                    for p in ((0,), tuple(range(1, r, 2)))]
PLAN_ORACLE_FRAMES = PLAN_FRAMES + [f for f in ORACLE_PAINTINGS if f not in PLAN_FRAMES]


@pytest.mark.parametrize("family,rank,painted", PLAN_ORACLE_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in PLAN_ORACLE_FRAMES])
def test_plan_matches_per_pair_oracle(family, rank, painted):
    # the array-built plan and its tangent sub-plans equal, bit for bit and in
    # dtype, the plans of the per-pair loop
    frame = frame_for(family, rank, painted)
    ijk, c = _structure_constants_oracle(frame)
    plan = compact_geom._make_plan(*ijk.T, c, frame.dim, frame.dim)
    m = np.arange(frame.m_start, frame.dim)
    want = (plan, _sorted_sub_plan(plan, m, m),
            _sorted_sub_plan(plan, m, np.arange(frame.m_start)))
    for got, expected in zip((frame.plan, frame.plan_m, frame.plan_k), want):
        for name in ("i", "j", "k", "c", "heads", "starts"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (got.n_in, got.n_out) == (expected.n_in, expected.n_out)


def _contract_oracle(plan, x, y):
    """The bracket kernel written as one gather over all rows: the terms
    ``x[:, i] * y[:, j] * c``, then ``reduceat`` over each output's run."""
    x, y = np.broadcast_arrays(x, y)
    lead = x.shape[:-1]
    x = x.reshape(-1, plan.n_in)
    y = y.reshape(-1, plan.n_in)
    out = np.zeros((x.shape[0], plan.n_out), dtype=np.result_type(x, y, plan.c))
    if plan.c.size:
        terms = x[:, plan.i] * y[:, plan.j] * plan.c
        out[:, plan.heads] = np.add.reduceat(terms, plan.starts, axis=1)
    return out.reshape(lead + (plan.n_out,))


@pytest.mark.parametrize("family,rank,painted", PLAN_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in PLAN_FRAMES])
def test_contract_matches_one_gather_oracle(family, rank, painted):
    # the blocked np.take kernel gives the oracle's bits: same products, same
    # reduceat segments, for real, complex and mixed inputs
    frame = frame_for(family, rank, painted)
    rng = np.random.default_rng(7)
    for plan in (frame.plan, frame.plan_m, frame.plan_k):
        d = plan.n_in
        # enough rows for three blocks and a partial fourth
        rows = 3 * max(1, compact_geom._BLOCK_TERMS // max(1, plan.c.size)) + 2
        x, y = rng.standard_normal((2, rows, d))
        zx, zy = x + 1j * rng.standard_normal((rows, d)), y + 1j * rng.standard_normal((rows, d))
        for a, b in ((x, y), (zx, zy), (x, zy), (zx, y)):
            assert np.array_equal(compact_geom._contract(plan, a, b), _contract_oracle(plan, a, b))
        # leading axes that broadcast: (3, 1, d) against (1, 2, d), and one vector
        a, b = x[:3, None], zy[None, :2]
        got = compact_geom._contract(plan, a, b)
        assert got.shape == (3, 2, plan.n_out)
        assert np.array_equal(got, _contract_oracle(plan, a, b))
        assert np.array_equal(compact_geom._contract(plan, x[0], y[0]),
                              _contract_oracle(plan, x[0], y[0]))


def test_contract_on_an_empty_plan():
    none = np.array([], dtype=int)
    plan = compact_geom._make_plan(none, none, none, np.array([]), 3, 2)
    x = np.ones((4, 3))
    for a in (x, x + 1j):
        got = compact_geom._contract(plan, a, x)
        assert got.shape == (4, 2) and got.dtype == a.dtype and not got.any()
        assert np.array_equal(got, _contract_oracle(plan, a, x))


def _densify(plan):
    out = np.zeros((plan.n_in, plan.n_in, plan.n_out))
    out[plan.i, plan.j, plan.k] = plan.c
    return out


def _array_bytes(obj):
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v) for v in obj)
    return 0


def test_e8_borel_frame():
    # the 248-dimensional frame builds, satisfies its invariants, and stays small
    frame = build_frame(borel_split(build_root_system("E", 8)))
    assert frame.dim == 248
    res = validate_frame(frame, trials=32)
    assert all(v < 1e-10 for v in res.values()), res
    assert _array_bytes(vars(frame)) < 5 * 2**20


# -- frame invariants ---------------------------------------------------------


def test_frame_invariants(borel_frame):
    res = validate_frame(borel_frame)
    assert all(v < 1e-12 for v in res.values()), res


def test_frame_invariants_non_borel():
    sys_ = build_root_system("B", 3)
    frame = build_frame(split(sys_, PaintedDiagram.of(sys_, (0,))))
    res = validate_frame(frame)
    assert all(v < 1e-12 for v in res.values()), res


ISOTROPY_FRAMES = ([(f, r, p) for f, r in (("B", 3), ("D", 4)) for k in range(r)
                    for p in itertools.combinations(range(r), k)]
                   + [("E", 6, (0,)), ("E", 7, (0, 2))])


@pytest.mark.parametrize("family,rank,painted", ISOTROPY_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in ISOTROPY_FRAMES])
def test_isotropy_planes_in_height_order(family, rank, painted):
    # the painted-span planes follow the split's k_pos_sorted: the positive
    # painted roots by (height, coords)
    frame = frame_for(family, rank, painted)
    sys_ = frame.sys
    want = sorted((r for r in sys_.positives if frame.split.in_k(r)),
                  key=lambda r: (sys_.height(r), r.coords))
    assert [frame.slot(alpha) for alpha in want] == [
        (x, x + 1) for x in range(rank, frame.m_start, 2)]


def _retired_layout(split):
    """The frame layout as it was built before the frame read it by id: the
    ``labels`` list (Cartan labels, then X and Y per painted-span positive
    root, then per tangent-positive root, each by (height, coords)), the
    ``slots`` dict from each positive root to its plane, and the metric and
    complex structure filled entry by entry over that dict."""
    sys_ = split.sys
    rank = sys_.rank
    order = sorted(sys_.positives,
                   key=lambda r: (not split.in_k(r), sys_.height(r), r.coords))
    labels = [("h", j) for j in range(rank)]
    slots = {}
    for alpha in order:
        slots[alpha] = (len(labels), len(labels) + 1)
        labels.append(("X", alpha))
        labels.append(("Y", alpha))
    dim = len(labels)
    m_start = rank + 2 * sum(split.in_k(r) for r in order)
    metric = np.zeros((dim, dim))
    for i, si in enumerate(sys_.simples):
        for j, sj in enumerate(sys_.simples):
            metric[i, j] = float(inner(sys_, si, sj))
    for ix, iy in slots.values():
        metric[ix, ix] = 2.0
        metric[iy, iy] = 2.0
    j_m = np.zeros((dim - m_start, dim - m_start))
    for alpha in order[(m_start - rank) // 2:]:
        ix, iy = slots[alpha]
        ix, iy = ix - m_start, iy - m_start
        j_m[iy, ix] = 1.0
        j_m[ix, iy] = -1.0
    return labels, slots, m_start, metric, j_m


def _sums_mask(frame):
    """The kernel mask from the sum table: row d keeps the plane of alpha
    unless alpha - m_pos[d] is a tangent-positive root."""
    sys_ = frame.sys
    m = np.array([sys_.ids[alpha] for alpha in frame.m_pos])
    rests = sys_.sums[np.ix_(sys_.neg[m], m)]  # alpha - delta, by (d, a)
    keep = (rests < 0) | (frame.split.part[rests] != 1)
    return np.repeat(keep, 2, axis=1)


@pytest.mark.parametrize("family,rank,painted", END_NODE_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in END_NODE_FRAMES])
def test_frame_layout_matches_the_retired_tables(family, rank, painted):
    frame = frame_for(family, rank, painted)
    sys_ = frame.sys
    labels, slots, m_start, metric, j_m = _retired_layout(frame.split)
    assert (frame.dim, frame.m_start) == (len(labels), m_start)
    # slot reads the plane of a root and of its negative, as Python ints
    for alpha, plane in slots.items():
        assert frame.slot(alpha) == frame.slot(-alpha) == plane
        assert all(type(x) is int for x in frame.slot(alpha))
        assert labels[plane[0]] == ("X", alpha) and labels[plane[1]] == ("Y", alpha)
        if frame.split.in_k(alpha):
            assert plane[1] < m_start
            with pytest.raises(NotInTangent):
                frame.m_slot(alpha)
        else:
            assert frame.m_slot(alpha) == frame.m_slot(-alpha) == (plane[0] - m_start,
                                                                   plane[1] - m_start)
    assert frame.m_pos == tuple(alpha for kind, alpha in labels[m_start::2])
    assert frame.m_pos is frame.split.m_pos_sorted
    # the whole-array metric and complex structure, bit for bit
    for got, want in ((frame.metric, metric), (frame.j_m, j_m)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # the mask from the S/T table against the one from the sum table
    assert np.array_equal(compact_geom._kernel_mask(frame), _sums_mask(frame))
    with pytest.raises(NotARoot):
        frame.slot(RootVector((0,) * sys_.ambient_dim))


def test_slots_reject_non_roots_and_m_slot_rejects_painted_roots():
    # a painted-span plane lies before the tangent block: m_slot once gave
    # (-2, -1) here, which numpy wraps onto the last tangent plane
    frame = frame_for("B", 3, (0,))
    painted = RootVector((2, -2, 0))
    assert frame.split.in_k(painted) and frame.slot(painted)[1] < frame.m_start
    for root in (painted, -painted):
        with pytest.raises(NotInTangent, match=re.escape(f"{root} is not a tangent root of B3")):
            frame.m_slot(root)
    # a vector that is not a root once raised a bare KeyError
    a3 = frame_for("A", 3)
    for call in (a3.slot, a3.m_slot, lambda root: tilde_vector(a3, root, 1.0, 0.0)):
        with pytest.raises(NotARoot, match=r"\(2, 2, 0, 0\) is not a root of A3"):
            call(RootVector((2, 2, 0, 0)))
        with pytest.raises(DimensionMismatch):
            call(rv(1, -1, 0))


def test_frames_compare_and_hash_by_identity():
    frame = frame_for("A", 3)
    rebuilt = build_frame(frame.split)
    assert frame == frame and frame != rebuilt
    assert hash(frame) == object.__hash__(frame) and hash(rebuilt) != hash(frame)
    assert {frame: 1}.get(rebuilt) is None
    # the split keeps value equality
    assert rebuilt.split == frame.split and hash(rebuilt.split) == hash(frame.split)


def test_frame_needs_a_tangent_block():
    # painting every node leaves no tangent root
    with pytest.raises(ValueError, match="every node is painted"):
        frame_for("B", 2, (0, 1))


def test_rank_one_frame_sanity():
    # smallest possible frame: one Cartan direction and one root plane
    frame = frame_for("A", 1)
    assert frame.dim == 3 and frame.m_dim == 2
    res = validate_frame(frame, trials=500)
    assert all(v < 1e-12 for v in res.values()), res
    alpha = frame.m_pos[0]
    x_full = np.zeros(frame.dim)
    y_full = np.zeros(frame.dim)
    x_full[frame.slot(alpha)[0]] = 1.0
    y_full[frame.slot(alpha)[1]] = 1.0
    out = frame.bracket_full(x_full, y_full)
    assert np.max(np.abs(out[1:])) < 1e-14  # lands in the Cartan block
    assert abs(out[0] * float(frame.sys.simples[0].unscaled()[0]) - 2.0 * float(alpha.unscaled()[0])) < 1e-12


def test_metric_blocks_and_plane_pairing():
    frame = frame_for("A", 2)
    # each root plane carries the diagonal (2, 2) block
    for alpha in frame.m_pos:
        ix, iy = frame.slot(alpha)
        assert frame.metric[ix, ix] == 2.0
        assert frame.metric[iy, iy] == 2.0
        assert frame.metric[ix, iy] == 0.0


def test_plane_bracket_lands_in_cartan_direction():
    # [X_a, Y_a] is twice the dual of a, an isotropy(-block) element
    frame = frame_for("A", 2)
    alpha = frame.m_pos[0]
    x_full = np.zeros(frame.dim)
    y_full = np.zeros(frame.dim)
    ix, iy = frame.slot(alpha)
    x_full[ix] = 1.0
    y_full[iy] = 1.0
    out = frame.bracket_full(x_full, y_full)
    rank = frame.sys.rank
    assert np.max(np.abs(out[rank:])) < 1e-14
    # reconstruct the ambient vector sum u_j * simple_j = 2 * alpha
    recon = np.zeros(frame.sys.ambient_dim)
    for j in range(rank):
        recon += out[j] * np.array([float(c) for c in frame.sys.simples[j].unscaled()])
    expected = 2.0 * np.array([float(c) for c in alpha.unscaled()])
    assert np.max(np.abs(recon - expected)) < 1e-12


def test_bracket_m_antisymmetry_and_associativity(borel_frame, rng):
    frame = borel_frame
    x = frame.random_m(rng)
    y = frame.random_m(rng)
    z = frame.random_m(rng)
    assert np.max(np.abs(bracket_m(frame, x, x))) < 1e-14
    total = frame.m_inner(x, bracket_m(frame, y, z)) + frame.k_inner(
        np.zeros(frame.m_start), bracket_k(frame, y, z)
    )
    full = frame.bracket_full(frame.embed_m(y), frame.embed_m(z))
    lhs = frame.inner(frame.embed_m(x), full)
    rhs = frame.inner(frame.bracket_full(frame.embed_m(x), frame.embed_m(y)),
                      frame.embed_m(z))
    assert abs(lhs - rhs) < 1e-10
    assert abs(lhs - total) < 1e-10


# -- transport ------------------------------------------------------------------


def test_r_operator_properties(borel_frame, rng):
    frame = borel_frame
    delta, gdot = _delta_and_gdot(frame)
    r = r_operator(frame, gdot)
    assert np.max(np.abs(r @ frame.j_m - frame.j_m @ r)) < TOL
    # planes whose root pairs with delta inside the tangent positives are
    # annihilated; planes lying above delta are moved
    sets = st_sets(borel_split(frame.sys), GammaSet.singleton(delta), delta)
    for alpha in sets.s_set:
        x = _plane_vector(frame, alpha, 1.0, 0.3)
        assert np.max(np.abs(r @ x)) < 1e-12


def test_r_operator_moves_ascending_planes(borel_frame):
    frame = borel_frame
    sys_ = frame.sys
    # smallest long tangent root, so that something lies above it
    delta = min(r for r in frame.m_pos if is_long(sys_, r))
    gdot = _plane_vector(frame, delta, 1.1, -0.7)
    r = r_operator(frame, gdot)
    ascending = [a for a in frame.m_pos if (a - delta) in frame.split.delta_m_pos]
    assert ascending, "frame too small for the ascending case"
    for alpha in ascending:
        x = _plane_vector(frame, alpha, 1.0, 0.3)
        assert np.linalg.norm(r @ x) > 1e-8


def test_hat_transport_contract(borel_frame, rng):
    frame = borel_frame
    delta, gdot = _delta_and_gdot(frame)
    def tau(t):
        return hat_transport(frame, gdot, t)

    assert np.max(np.abs(tau(0.0) - np.eye(frame.m_dim))) < 1e-14
    assert np.max(np.abs(tau(0.3) @ tau(0.45) - tau(0.75))) < 1e-10
    for _ in range(100):
        x = frame.random_m(rng)
        t = rng.uniform(0, 1)
        drift = frame.m_inner(tau(t) @ x, gdot) - frame.m_inner(x, gdot)
        assert abs(drift) < 1e-10 * max(1.0, np.sqrt(frame.m_norm2(x)))
    # J-commutation of the transport itself
    t = 0.77
    assert np.max(np.abs(tau(t) @ frame.j_m - frame.j_m @ tau(t))) < 1e-10


def test_hat_transport_kernel_fixed_points(borel_frame):
    frame = borel_frame
    delta, gdot = _delta_and_gdot(frame)
    r = r_operator(frame, gdot)
    sets = st_sets(borel_split(frame.sys), GammaSet.singleton(delta), delta)
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = np.zeros(frame.m_dim)
        for alpha in sets.s_set:
            ix, iy = frame.m_slot(alpha)
            x[ix], x[iy] = rng.standard_normal(2)
        if not np.any(x):
            continue
        assert np.max(np.abs(r @ x)) < 1e-12
        for t in (0.2, 0.9):
            moved = hat_transport(frame, gdot, t) @ x
            assert np.max(np.abs(moved - x)) < 1e-10


# -- averaged second variation ---------------------------------------------------


def test_complex_hessian_dichotomy(borel_frame):
    frame = borel_frame
    delta, gdot = _delta_and_gdot(frame)
    sets = st_sets(borel_split(frame.sys), GammaSet.singleton(delta), delta)
    rng = np.random.default_rng(17)
    # kernel branch: fields supported on the paired decomposition set
    if sets.s_set:
        x0 = np.zeros(frame.m_dim)
        for alpha in sets.s_set:
            ix, iy = frame.m_slot(alpha)
            x0[ix], x0[iy] = rng.standard_normal(2)
        val = complex_hessian(frame, gdot, _unit(frame, x0))
        assert abs(val) < 1e-10
    # negative branch: fields meeting the obstruction set
    beta = sorted(sets.t_set)[0]
    x1 = _unit(frame, _plane_vector(frame, beta, 0.8, -0.6))
    val = complex_hessian(frame, gdot, x1)
    assert val < -1e-8


def test_complex_hessian_nonpositive(borel_frame, rng):
    frame = borel_frame
    _, gdot = _delta_and_gdot(frame)
    batch = frame.random_m(rng, 50)
    vals = complex_hessian_many(frame, gdot, batch)
    assert np.all(vals <= 1e-12)


def test_exact_classifier_agrees_with_numeric(borel_frame):
    frame = borel_frame
    delta, _ = _delta_and_gdot(frame)
    a, b = Fraction(11, 10), Fraction(-7, 10)
    gdot = _plane_vector(frame, delta, float(a), float(b))
    gamma_exact = {delta: (a, b)}
    rng = np.random.default_rng(29)
    hits = {True: 0, False: 0}
    for _ in range(60):
        support = [
            alpha for alpha in frame.m_pos if rng.uniform() < 0.3
        ] or [frame.m_pos[0]]
        field_exact = {}
        x0 = np.zeros(frame.m_dim)
        for alpha in support:
            ca = Fraction(int(rng.integers(-6, 7)), 4)
            cb = Fraction(int(rng.integers(-6, 7)), 4)
            if ca == 0 and cb == 0:
                ca = Fraction(1)
            field_exact[alpha] = (ca, cb)
            ix, iy = frame.m_slot(alpha)
            x0[ix], x0[iy] = float(ca), float(cb)
        degenerate = holomorphic_kernel_classification(frame, gamma_exact, field_exact)
        val = complex_hessian(frame, gdot, _unit(frame, x0))
        hits[degenerate] += 1
        if degenerate:
            assert abs(val) < 1e-8
        else:
            assert val < -1e-8
    assert hits[False] > 0  # both branches exercised


def _reference_classification(frame, gamma_coeffs, field_coeffs):
    """The classifier through the exact bracket: X^{1,0} and the (0,1) part of
    the velocity as ComplexElements, bracketed by ``bracket_c``; degenerate
    when nothing lands outside the anti-holomorphic tangent directions."""
    sys_ = frame.sys
    x10 = ComplexElement.zero(sys_)
    for alpha, (xa, ya) in field_coeffs.items():
        x10 = x10 + ComplexElement.root_vector(sys_, alpha, CSqrt2.make(xa, ya))
    g01 = ComplexElement.zero(sys_)
    for lam, (a, b) in gamma_coeffs.items():
        g01 = g01 + ComplexElement.root_vector(sys_, -lam, CSqrt2.make(a, -b))
    result = bracket_c(frame.chev, x10, g01)
    if any(not h.is_zero() for h in result.h_part):
        return False
    return all(coeff.is_zero()
               or (sys_.is_positive(-sys_.roots[i]) and -sys_.roots[i] in frame.split.delta_m_pos)
               for i, coeff in result.coeffs.items())


@pytest.fixture
def cancel_outcomes(monkeypatch):
    """Records the result of every multi-term exact sum the classifier makes."""
    outcomes = []
    inner_sum = compact_geom._terms_cancel

    def recording(chev, terms):
        outcomes.append(inner_sum(chev, terms))
        return outcomes[-1]

    monkeypatch.setattr(compact_geom, "_terms_cancel", recording)
    return outcomes


def _exact_pair(rng):
    """A coefficient pair: parts in {-1, 0, 1} half the time, so that exact
    sums cancel often, else k/4 or k/3; either part may be zero."""
    if rng.uniform() < 0.5:
        return tuple(Fraction(int(v)) for v in rng.integers(-1, 2, size=2))
    den = int(rng.choice((3, 4)))
    return tuple(Fraction(int(v), den) for v in rng.integers(-6, 7, size=2))


def _cancelling_input(frame, pool, rng):
    """Velocity {l1, l2} and field {a1, a2} with a1 - l1 = a2 - l2 a root off
    the anti-holomorphic tangent directions, or zero with l2 = -l1, and a2's
    coefficient chosen so the two terms there cancel; None when no such
    quadruple turns up."""
    sys_, chev = frame.sys, frame.chev
    for _ in range(50):
        l1, l2, a1 = (pool[k] for k in rng.choice(len(pool), 3))
        s = sys_.sums[sys_.ids[a1], sys_.neg[sys_.ids[l1]]]
        if s == -2:
            # the coroots of l1 and -l1 cancel
            l2, a2, ratio = -l1, -l1, Sqrt2(-1)
        elif s >= 0 and frame.split.part[s] != -1:
            a2 = sys_.roots[s] + l2
            if a2 == a1 or not sys_.contains(a2):
                continue
            ratio = chev.constant(a1, -l1) / chev.constant(a2, -l2)
            if ratio.b != 0:
                continue
        else:
            continue
        g1, g2, x1 = _exact_pair(rng), _exact_pair(rng), _exact_pair(rng)
        if not any(g1) or not any(g2) or not any(x1):
            continue
        # x2 conj(g2) c2 = -x1 conj(g1) c1
        x2 = _cdiv(_cmul(x1, (-ratio.a * g1[0], ratio.a * g1[1])), (g2[0], -g2[1]))
        return {l1: g1, l2: g2}, {a1: x1, a2: x2}
    return None


def _cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _cdiv(u, v):
    n = v[0] * v[0] + v[1] * v[1]
    return ((u[0] * v[0] + u[1] * v[1]) / n, (u[1] * v[0] - u[0] * v[1]) / n)


CLASSIFIER_FRAMES = ORACLE_FRAMES + [("E", 6, ()), ("E", 7, (1, 3))]


@pytest.mark.parametrize("family,rank,painted", CLASSIFIER_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in CLASSIFIER_FRAMES])
def test_classifier_matches_exact_bracket(family, rank, painted, cancel_outcomes):
    frame = frame_for(family, rank, painted)
    rng = np.random.default_rng(97)
    tangent, every = list(frame.m_pos), list(frame.sys.roots)
    seen = {True: 0, False: 0}
    for trial in range(400):
        # tangent positive roots as in use; every fourth input draws from all
        # roots, painted and negative ones included
        pool = every if trial % 4 == 3 else tangent
        n_gamma = min(len(pool), 1 + trial % 3)
        n_field = min(len(pool), int(rng.integers(1, 7)))
        gamma = {pool[k]: _exact_pair(rng)
                 for k in rng.choice(len(pool), n_gamma, replace=False)}
        field = {pool[k]: _exact_pair(rng)
                 for k in rng.choice(len(pool), n_field, replace=False)}
        if trial % 2 == 0:
            # share roots with the velocity, for Cartan terms
            field.update((lam, _exact_pair(rng)) for lam in gamma if rng.uniform() < 0.5)
        if trial % 8 == 7:
            gamma, field = _cancelling_input(frame, every, rng) or (gamma, field)
        got = holomorphic_kernel_classification(frame, gamma, field)
        assert got == _reference_classification(frame, gamma, field), (gamma, field)
        seen[got] += 1
    assert seen[True] > 0 and seen[False] > 0
    assert True in cancel_outcomes and False in cancel_outcomes


def test_classifier_multi_term_cancellation(cancel_outcomes):
    # in A3, [E_{e1-e3}, E_{-(e2-e3)}] and [E_{e1-e4}, E_{-(e2-e4)}] both land on
    # the positive root e1-e2, each with constant -1; no other pair brackets
    frame = frame_for("A", 3)
    a13, a14, a23, a24 = rv(1, 0, -1, 0), rv(1, 0, 0, -1), rv(0, 1, -1, 0), rv(0, 1, 0, -1)
    assert frame.chev.constant(a13, -a23) == frame.chev.constant(a14, -a24) == -1
    one = Fraction(1)
    gamma = {a23: (one, 0), a24: (one, 0)}
    for sign, degenerate in ((1, False), (-1, True)):
        field = {a13: (one, 0), a14: (sign * one, 0)}
        assert holomorphic_kernel_classification(frame, gamma, field) is degenerate
        assert _reference_classification(frame, gamma, field) is degenerate
    assert cancel_outcomes == [False, True]


def test_classifier_rejects_keys_that_are_not_roots():
    frame = frame_for("A", 3)
    delta = rv(1, 0, 0, -1)
    non_root = RootVector((2, 2, 0, 0))
    for gamma, field in (({delta: (1, 0)}, {non_root: (1, 0)}),
                         ({non_root: (1, 0)}, {delta: (1, 0)}),
                         ({delta: (1, 0)}, {delta: (1, 0), non_root: (0, 0)})):
        with pytest.raises(NotARoot, match=r"\(2, 2, 0, 0\) is not a root of A3"):
            holomorphic_kernel_classification(frame, gamma, field)
    assert issubclass(NotARoot, FlagmorseError) and issubclass(NotARoot, ValueError)
    for gamma, field in (({delta: (1, 0)}, {rv(1, -1, 0): (1, 0)}),
                         ({rv(1, -1, 0): (1, 0)}, {delta: (1, 0)})):
        with pytest.raises(DimensionMismatch):
            holomorphic_kernel_classification(frame, gamma, field)
    with pytest.raises(TypeError, match="not an exact rational"):
        holomorphic_kernel_classification(frame, {delta: (1.0, 0)}, {delta: (1, 0)})


# -- pair-space operator -----------------------------------------------------------


def _table_spaces(frame):
    """The frame's pair table by delta, in table order: per space its pairs
    as root pairs, its ``tangent`` flag, and its slices of the per-pair
    arrays."""
    table, roots = frame.pair_table, frame.sys.roots
    out = {}
    for g, d in enumerate(table.deltas.tolist()):
        rows = slice(table.starts[g], table.starts[g + 1])
        pairs = tuple((roots[a], roots[b]) for a, b in table.pairs[rows].tolist())
        out[roots[d]] = SimpleNamespace(
            pairs=pairs, tangent=bool(table.tangent[g]),
            **{name: getattr(table, name)[rows]
               for name in ("consts", "slots", "bx", "by", "px", "py")})
    return out


def _s_pairs(frame, delta):
    sys_ = frame.sys
    pairs = set()
    for alpha in frame.m_pos:
        beta = delta - alpha
        if sys_.is_positive(beta) and beta in frame.split.delta_m_pos:
            pairs.add(frozenset((alpha, beta)))
    return pairs


def test_map_i_contract(borel_frame):
    frame = borel_frame
    delta, _ = _delta_and_gdot(frame)
    pairs = _s_pairs(frame, delta)
    if not pairs:
        pytest.skip("no decomposition pairs in this frame")
    a, b = 0.6, 1.7
    i_mat = map_I(frame, delta, a, b, pairs)
    n = i_mat.shape[0]
    assert np.max(np.abs(i_mat @ i_mat + np.eye(n))) < 1e-12
    emb = s0_embedding(frame, pairs) - frame.m_start
    j_s0 = frame.j_m[np.ix_(emb, emb)]
    assert np.max(np.abs(i_mat @ j_s0 + j_s0 @ i_mat)) < 1e-12
    rng = np.random.default_rng(31)
    x = rng.standard_normal(n)
    assert abs(np.linalg.norm(i_mat @ x) - np.linalg.norm(x)) < 1e-12
    # pairing bound against the twist direction
    n0 = n0_constant(frame.chev, pairs)
    tilde = tilde_vector(frame, delta, a, b)
    for _ in range(50):
        x = rng.standard_normal(n)
        full = np.zeros(frame.dim)
        full[emb + frame.m_start] = x
        ifull = np.zeros(frame.dim)
        ifull[emb + frame.m_start] = i_mat @ x
        val = frame.inner(frame.bracket_full(ifull, full), tilde)
        norm2 = 2.0 * float(x @ x)
        assert val <= -n0 * np.hypot(a, b) * norm2 + 1e-10


def test_map_i_and_q_form_reject_pair_roots_outside_the_tangent_block():
    # delta's pairs include painted-span roots, whose slots lie before the
    # tangent block: a tangent-block index for them would be negative
    frame = frame_for("E", 7, (0, 2))
    delta = RootVector((-2, 0, 2, 0, 0, 0, 0, 0))
    spaces = _table_spaces(frame)
    space = spaces[delta]
    assert not space.tangent
    pairs = {frozenset(pair) for pair in space.pairs}
    assert s0_embedding(frame, pairs).min() < frame.m_start
    painted = [r for pair in space.pairs for r in pair if r not in frame.split.delta_m_pos]
    message = re.escape(f"pair root {painted[0]} is not a positive tangent root of E7")
    with pytest.raises(NotInTangent, match=message):
        map_I(frame, delta, 0.9, -0.5, pairs)
    assert issubclass(NotInTangent, FlagmorseError) and issubclass(NotInTangent, ValueError)
    # the tangent pairs of a root with painted pairs still give an operator
    mixed, s_pairs = next((d, _s_pairs(frame, d)) for d, sp in spaces.items()
                          if not sp.tangent and _s_pairs(frame, d))
    assert len(s_pairs) < len(spaces[mixed].pairs)
    i_mat = map_I(frame, mixed, 0.9, -0.5, s_pairs)
    assert np.max(np.abs(i_mat @ i_mat + np.eye(i_mat.shape[0]))) < 1e-12
    # a pair of another root is still a plain ValueError
    other = next(d for d, sp in spaces.items() if d != delta and sp.tangent)
    with pytest.raises(ValueError, match="does not sum to") as info:
        map_I(frame, delta, 0.9, -0.5, [spaces[other].pairs[0]])
    assert not isinstance(info.value, NotInTangent)


def test_map_i_rejects_pair_vectors_that_are_not_roots():
    # checked before the sum, as the kernel classifier checks its keys
    frame = frame_for("A", 3)
    delta = rv(1, 0, 0, -1)
    with pytest.raises(NotARoot, match=r"\(2, 2, 0, 0\) is not a root of A3"):
        map_I(frame, delta, 1.0, 0.0, [(RootVector((2, 2, 0, 0)), frame.m_pos[0])])
    with pytest.raises(DimensionMismatch):
        map_I(frame, delta, 1.0, 0.0, [(rv(1, -1, 0), frame.m_pos[0])])
    # delta too, even with no pairs to check it against
    with pytest.raises(NotARoot, match=r"\(2, 2, 0, 0\) is not a root of A3"):
        map_I(frame, RootVector((2, 2, 0, 0)), 1.0, 0.0, [])


def test_map_i_degenerate_coefficients():
    frame = frame_for("A", 2)
    delta, _ = _delta_and_gdot(frame)
    pairs = _s_pairs(frame, delta)
    with pytest.raises(DegenerateCoefficients):
        map_I(frame, delta, 0.0, 0.0, pairs)


# -- twisted quadratic form --------------------------------------------------------


def test_q_form_zero_inputs():
    frame = frame_for("A", 3)
    _, gdot = _delta_and_gdot(frame)
    zero = np.zeros(frame.m_dim)
    assert q_form(frame, gdot, zero, zero, 0.5) == 0.0


def test_q_form_pure_pair_threshold():
    # with no transported part the twisted form changes sign exactly at the
    # minimal-constant threshold rate
    frame = frame_for("A", 3)
    delta, gdot = _delta_and_gdot(frame, a=0.9, b=-0.5)
    pairs = _s_pairs(frame, delta)
    i_mat = map_I(frame, delta, 0.9, -0.5, pairs)
    emb = s0_embedding(frame, pairs) - frame.m_start
    rng = np.random.default_rng(3)
    w0 = np.zeros(frame.m_dim)
    w0[emb] = rng.standard_normal(len(emb))
    iw0 = np.zeros(frame.m_dim)
    iw0[emb] = i_mat @ w0[emb]
    k_star = n0_constant(frame.chev, pairs) * np.hypot(0.9, 0.5)
    lo = q_form(frame, gdot, w0, iw0, 0.9 * k_star)
    hi = q_form(frame, gdot, w0, iw0, 1.1 * k_star)
    assert lo < 0 < hi


def test_k_search_mixed_configurations(borel_frame):
    frame = borel_frame
    delta, gdot = _delta_and_gdot(frame, a=0.9, b=-0.5)
    sets = st_sets(borel_split(frame.sys), GammaSet.singleton(delta), delta)
    pairs = _s_pairs(frame, delta)
    i_mat = map_I(frame, delta, 0.9, -0.5, pairs) if pairs else None
    emb = s0_embedding(frame, pairs) - frame.m_start if pairs else None
    rng = np.random.default_rng(11)
    configs = []
    for _ in range(30):
        x0 = np.zeros(frame.m_dim)
        y0 = np.zeros(frame.m_dim)
        for beta in sets.t_set:
            ix, iy = frame.m_slot(beta)
            x0[ix], x0[iy] = rng.standard_normal(2)
            y0[ix], y0[iy] = rng.standard_normal(2)
        w0 = np.zeros(frame.m_dim)
        iw0 = np.zeros(frame.m_dim)
        if pairs:
            w0[emb] = rng.standard_normal(len(emb))
            iw0[emb] = i_mat @ w0[emb]
        configs.append((x0 + w0, y0 + iw0))
    result = k_search(frame, gdot, configs)
    assert result.k > 0
    assert result.margin > 0
    assert max(result.q_values) < 0
    # spot check one configuration through the public evaluator
    x0, y0 = configs[0]
    direct = q_form(frame, gdot, x0, y0, result.k)
    assert direct == pytest.approx(result.q_values[0], abs=1e-8)


NON_BOREL_PAINTINGS = {
    ("A", 2): (0,), ("A", 3): (1,), ("B", 2): (0,),
    ("B", 3): (1,), ("C", 3): (0,), ("D", 4): (2,),
}


@pytest.mark.parametrize("family,rank", sorted(NON_BOREL_PAINTINGS))
def test_k_search_non_borel(family, rank):
    # the twisted form stays negative away from the trivial painting too
    painted = NON_BOREL_PAINTINGS[(family, rank)]
    frame = frame_for(family, rank, painted)
    sys_ = frame.sys
    longs = [r for r in frame.m_pos if is_long(sys_, r)]
    delta = max(longs, key=lambda r: (sys_.height(r), r.coords))
    gdot = _plane_vector(frame, delta, 0.9, -0.5)
    gamma = GammaSet.singleton(delta)
    sets = st_sets(frame.split, gamma, delta)
    pairs = {frozenset((a, delta - a)) for a in sets.s_set}
    i_mat = map_I(frame, delta, 0.9, -0.5, pairs) if pairs else None
    emb = s0_embedding(frame, pairs) - frame.m_start if pairs else None
    rng = np.random.default_rng(123)
    configs = []
    for trial in range(100):
        x0 = np.zeros(frame.m_dim)
        y0 = np.zeros(frame.m_dim)
        w0 = np.zeros(frame.m_dim)
        iw0 = np.zeros(frame.m_dim)
        if trial % 3 != 1:
            for beta in sets.t_set:
                ix, iy = frame.m_slot(beta)
                x0[ix], x0[iy] = rng.standard_normal(2)
                y0[ix], y0[iy] = rng.standard_normal(2)
        if trial % 3 != 0 and pairs:
            w0[emb] = rng.standard_normal(len(emb))
            iw0[emb] = i_mat @ w0[emb]
        if not np.any(x0 + w0) and not np.any(y0 + iw0):
            ix, iy = frame.m_slot(delta)
            x0[ix] = 1.0
        configs.append((x0 + w0, y0 + iw0))
    result = k_search(frame, gdot, configs)
    assert result.k > 0 and max(result.q_values) < 0


def test_k_search_needs_a_configuration():
    frame = frame_for("A", 3)
    _, gdot = _delta_and_gdot(frame)
    with pytest.raises(InvalidSampling, match="^k_search needs at least one configuration$"):
        k_search(frame, gdot, [])
    assert issubclass(InvalidSampling, ValueError)
    # a fourth positional argument (once a node count) is refused
    x = np.ones(frame.m_dim)
    with pytest.raises(TypeError):
        k_search(frame, gdot, [(x, x)], 64)


def _reference_parts(frame, gdot, x0, y0, nodes=64):
    """Node by node with brackets: e = -int h(x_t) + h(y_t), a = int |x_t|^2 +
    |y_t|^2 and b = int P(x_t, y_t), the fields moved by ``hat_transport``."""
    j = frame.j_m

    def hessian_integrand(x):
        rx = bracket_m(frame, gdot, x) + bracket_m(frame, j @ gdot, x) @ j.T
        kx = bracket_k(frame, x, gdot)
        kjx = bracket_k(frame, x @ j.T, gdot)
        return 0.5 * frame.m_norm2(rx) + frame.k_inner(kx, kx) + frame.k_inner(kjx, kjx)

    e = a = b = 0.0
    points, weights = np.polynomial.legendre.leggauss(nodes)  # Gauss-Legendre on [-1, 1]
    for t, w in zip((points + 1.0) / 2.0, weights / 2.0):
        tau = hat_transport(frame, gdot, t)
        xt, yt = x0 @ tau.T, y0 @ tau.T
        e = e - w * (hessian_integrand(xt) + hessian_integrand(yt))
        a = a + w * (frame.m_norm2(xt) + frame.m_norm2(yt))
        pairing = bracket_m(frame, yt, xt) - bracket_m(frame, yt @ j.T, xt @ j.T)
        b = b + w * frame.m_inner(pairing, gdot)
    return e, a, b


def _assert_relative(got, want, scale, rel=1e-12):
    assert np.max(np.abs(np.asarray(got) - want)) <= rel * np.max(scale)


def _assert_q_values(result, e, a, b):
    # a k_search result against the parts of its twisted form at the found k
    k = result.k
    _assert_relative(result.q_values, e + 2 * k * k * a + 2 * k * b,
                     np.abs(e) + 2 * k * k * np.abs(a) + 2 * k * np.abs(b))


# frames whose highest long root's plane has r exactly zero; their lowest long
# root's plane does not
ZERO_R_FRAMES = [("A", 3, ()), ("E", 7, (0, 2))]


@pytest.mark.parametrize("family,rank,painted,velocity,speed", [
    pytest.param(f, r, p, "generic", speed, id=f"{f}{r}{list(p)}{suffix}")
    for speed, suffix in ((1.0, ""), (5.0, "-speed5")) for f, r, p in ORACLE_FRAMES
] + [
    pytest.param(f, r, p, "lowest-root", 1.0, id=f"{f}{r}{list(p)}-lowest-root")
    for f, r, p in ZERO_R_FRAMES
] + [
    pytest.param("B", 2, (), "short-root", 1.0, id="B2[]-short-root"),
])
def test_quadrature_matches_per_node_brackets(family, rank, painted, velocity, speed):
    frame = frame_for(family, rank, painted)
    rng = np.random.default_rng(41)
    if velocity == "generic":
        gdot = speed * _unit(frame, frame.random_m(rng))  # not one root plane
    elif velocity == "lowest-root":
        # the lowest long root's plane moves the transport, and its generator
        # squares to zero: the forms take the closed form in r
        lowest = min((r for r in frame.m_pos if is_long(frame.sys, r)),
                     key=lambda r: (frame.sys.height(r), r.coords))
        gdot = speed * _plane_vector(frame, lowest, 0.9, -0.5)
        r = r_operator(frame, gdot)
        assert r.any() and compact_geom._square_zero(r)
    else:
        # the short simple root e2 of B2 (doubled coordinates): its string
        # through e1 + e2 has length 3, so r @ r is not zero and the forms
        # take the block exponential
        gdot = speed * _plane_vector(frame, RootVector((0, 2)), 0.9, -0.5)
        r = r_operator(frame, gdot)
        assert (r @ r).any() and not compact_geom._square_zero(r)
    fields = frame.random_m(rng, 6)
    e, _, _ = _reference_parts(frame, gdot, fields, np.zeros_like(fields))
    _assert_relative(complex_hessian_many(frame, gdot, fields), e, np.abs(e))

    xs, ys = frame.random_m(rng, 4), frame.random_m(rng, 4)
    _assert_q_values(k_search(frame, gdot, list(zip(xs, ys))),
                     *_reference_parts(frame, gdot, xs, ys))

    # q_form on the configuration (x0 + w0, y0 + I w0), I the quarter turn on
    # the pair space of the highest tangent root
    x0, y0 = xs[0], ys[0]
    delta = max(frame.m_pos, key=lambda r: (frame.sys.height(r), r.coords))
    pairs = _s_pairs(frame, delta)
    assert pairs or rank == 1
    w0 = np.zeros(frame.m_dim)
    iw0 = np.zeros(frame.m_dim)
    if pairs:
        i_mat = map_I(frame, delta, 0.9, -0.5, pairs)
        emb = s0_embedding(frame, pairs) - frame.m_start
        w0[emb] = rng.standard_normal(len(emb))
        iw0[emb] = i_mat @ w0[emb]
    k = 0.3
    e, a, b = _reference_parts(frame, gdot, (x0 + w0)[None], (y0 + iw0)[None])
    got = q_form(frame, gdot, x0 + w0, y0 + iw0, k)
    _assert_relative(got, e + 2 * k * k * a + 2 * k * b,
                     np.abs(e) + 2 * k * k * np.abs(a) + 2 * k * np.abs(b))

    if velocity != "generic":
        return  # on one root's plane the pairing is zero up to rounding: no scale
    j = frame.j_m
    want = frame.m_inner(bracket_m(frame, y0, x0) - bracket_m(frame, j @ y0, j @ x0), gdot)
    _assert_relative(p_pairing(frame, x0, y0, gdot), want, abs(want))

    basis = np.eye(frame.m_dim)
    tiles = np.array([[p_pairing(frame, ep, eq, gdot) for eq in basis] for ep in basis])
    bound = np.linalg.norm(tiles, 2) / 2.0
    _assert_relative(p_bound(frame, gdot), bound, bound)


def _van_loan(gen, m):
    """int_0^1 exp(t gen)^T m exp(t gen) dt as F22^T F12 of one block
    exponential, whatever the generator."""
    n = gen.shape[0]
    f = scipy_expm(np.block([[-gen.T, m], [np.zeros_like(gen), gen]]))
    return f[n:, n:].T @ f[:n, n:]


@pytest.mark.parametrize("family,rank,painted", ZERO_R_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in ZERO_R_FRAMES])
def test_zero_generator_forms_match_van_loan(family, rank, painted):
    # on the highest long root's plane r vanishes: the transport is the
    # identity and each average is its integrand, as the block exponential says
    frame = frame_for(family, rank, painted)
    _, gdot = _delta_and_gdot(frame, 0.9, -0.5)
    r = r_operator(frame, gdot)
    assert not r.any()
    for t in (0.0, 0.37, 1.0):
        assert np.array_equal(hat_transport(frame, gdot, t), np.eye(frame.m_dim))
    velocity = compact_geom._Velocity(frame, gdot)
    gen = -0.5 * r
    h_bar = _van_loan(gen, velocity.h)
    g_bar = _van_loan(gen, 2.0 * np.eye(frame.m_dim))
    p_bar = _van_loan(gen, velocity.p)

    def form(x, m, y):
        return np.einsum("ni,ij,nj->n", x, m, y)

    rng = np.random.default_rng(13)
    fields = frame.random_m(rng, 6)
    want = -form(fields, h_bar, fields)
    _assert_relative(complex_hessian_many(frame, gdot, fields), want, np.abs(want))

    xs, ys = frame.random_m(rng, 4), frame.random_m(rng, 4)
    _assert_q_values(k_search(frame, gdot, list(zip(xs, ys))),
                     -(form(xs, h_bar, xs) + form(ys, h_bar, ys)),
                     form(xs, g_bar, xs) + form(ys, g_bar, ys), form(xs, p_bar, ys))


# every painting with a tangent block of the rank <= 4 systems, and the Borel,
# node-1 and node-r paintings (0-based here) of each larger system
SQUARE_ZERO_FRAMES = [
    (f, r, p) for f, r in ALL_SYSTEMS
    for p in (itertools.chain.from_iterable(itertools.combinations(range(r), n) for n in range(r))
              if r <= 4 else ((), (0,), (r - 1,)))
]


def _long_roots_by_height(frame):
    return sorted((r for r in frame.m_pos if is_long(frame.sys, r)),
                  key=lambda r: (frame.sys.height(r), r.coords))


def test_long_root_generators_square_to_zero():
    # for long delta, alpha - 2 delta is never a root when alpha - delta is one:
    # no plane is both moved and reached, so r @ r is exactly zero
    planes = 0
    for family, rank, painted in SQUARE_ZERO_FRAMES:
        frame = frame_for(family, rank, painted)
        for delta in _long_roots_by_height(frame):
            r = r_operator(frame, _plane_vector(frame, delta, 0.9, -0.5))
            assert compact_geom._square_zero(r), (family, rank, painted, delta)
            assert not (r @ r).any()
            planes += 1
    assert (len(SQUARE_ZERO_FRAMES), planes) == (145, 2435)


@pytest.mark.parametrize("family,rank,painted", SQUARE_ZERO_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in SQUARE_ZERO_FRAMES])
def test_square_zero_closed_forms_match_expm_and_van_loan(family, rank, painted):
    # the lowest, middle and highest long root; the highest often has r = 0,
    # which the zero shortcut takes first
    frame = frame_for(family, rank, painted)
    longs = _long_roots_by_height(frame)
    for delta in dict.fromkeys((longs[0], longs[len(longs) // 2], longs[-1])):
        gdot = _plane_vector(frame, delta, 0.9, -0.5)
        velocity = compact_geom._Velocity(frame, gdot)
        r = velocity.r
        for t in (0.37, 1.0):
            want = scipy_expm(-0.5 * t * r)
            _assert_relative(hat_transport(frame, gdot, t), want, np.abs(want))
        gen = -0.5 * r
        for m in (velocity.h, 2.0 * np.eye(frame.m_dim), velocity.p):
            want = _van_loan(gen, m)
            _assert_relative(velocity._average(m), want, np.abs(want))


# -- slice pairing -----------------------------------------------------------------


def test_p_pairing_properties(borel_frame, rng):
    frame = borel_frame
    delta, gdot = _delta_and_gdot(frame)
    x = frame.random_m(rng)
    assert p_pairing(frame, x, np.zeros(frame.m_dim), gdot) == 0.0
    bound = p_bound(frame, gdot)
    for _ in range(200):
        a = frame.random_m(rng)
        b = frame.random_m(rng)
        val = p_pairing(frame, a, b, gdot)
        limit = bound * np.sqrt(frame.m_norm2(a) * frame.m_norm2(b))
        assert abs(val) <= limit * (1 + 1e-9)


def test_p_pairing_pair_space_bound(borel_frame):
    frame = borel_frame
    delta, gdot = _delta_and_gdot(frame, a=0.9, b=-0.5)
    pairs = _s_pairs(frame, delta)
    if not pairs:
        pytest.skip("no decomposition pairs in this frame")
    i_mat = map_I(frame, delta, 0.9, -0.5, pairs)
    emb = s0_embedding(frame, pairs) - frame.m_start
    n0 = n0_constant(frame.chev, pairs)
    rng = np.random.default_rng(13)
    for _ in range(50):
        w = np.zeros(frame.m_dim)
        w[emb] = rng.standard_normal(len(emb))
        iw = np.zeros(frame.m_dim)
        iw[emb] = i_mat @ w[emb]
        val = p_pairing(frame, w, iw, gdot)
        limit = -2.0 * n0 * np.hypot(0.9, 0.5) * frame.m_norm2(w)
        assert val <= limit * (1 - 1e-8)


# -- perturbation ------------------------------------------------------------------


def test_adjoint_perturb():
    sys_ = build_root_system("B", 3)
    frame = build_frame(split(sys_, PaintedDiagram.of(sys_, (2,))))
    e2, e3 = rv(0, 1, 0), rv(0, 0, 1)
    v = _plane_vector(frame, e2, 1.0, 0.0)
    same, supp0 = adjoint_perturb(frame, v, e3, t=0.0)
    assert np.array_equal(same, v)
    assert supp0 == {e2}
    new, supp = adjoint_perturb(frame, v, e3, t=1e-3)
    assert rv(0, 1, -1) in supp  # a long root enters the support
    # growth bound from the exponential series
    x_full = np.zeros(frame.dim)
    x_full[frame.slot(e3)[0]] = 1.0
    ad_norm = np.linalg.norm(
        frame.ad_matrix(x_full)[frame.m_start:, frame.m_start:], 2
    )
    t = 1e-3
    assert np.linalg.norm(new - v) <= t * ad_norm * np.linalg.norm(v) * np.exp(t * ad_norm)
    with pytest.raises(NotInK):
        adjoint_perturb(frame, v, rv(1, -1, 0), t=1e-3)


# -- suites ------------------------------------------------------------------------


def test_identity_suite_unknown():
    frame = frame_for("A", 2)
    with pytest.raises(UnknownSuite):
        identity_suite(frame, "bogus")


@pytest.mark.parametrize("trials,seed", [(0, 0), (-5, 0), (1, -1)])
def test_identity_suite_rejects_bad_sampling(trials, seed):
    with pytest.raises(InvalidSampling):
        identity_suite(frame_for("A", 2), "mel", trials=trials, seed=seed)


def test_identity_suite_deterministic():
    frame = frame_for("A", 2)
    r1 = identity_suite(frame, "mel", trials=500, seed=9)
    r2 = identity_suite(frame, "mel", trials=500, seed=9)
    d1, d2 = r1.to_json_dict(), r2.to_json_dict()
    d1.pop("elapsed_ms")
    d2.pop("elapsed_ms")
    assert d1 == d2


def test_identity_suite_single_matches_all():
    # each check draws from its own stream, whichever suite asked for it
    frame = frame_for("A", 3)
    full = {c.name: c for c in identity_suite(frame, "all", trials=300, seed=5).checks}
    for name in SUITES:
        for check in identity_suite(frame, name, trials=300, seed=5).checks:
            assert check == full[check.name], (name, check.name)


# painted frames matter for the mask: dropping the roots with alpha - delta in
# the painted span only narrows the support, which no identity check can see
MASK_FRAMES = [(f, r, ()) for f, r in ALL_SYSTEMS] + [("B", 3, (0,)), ("D", 4, (0, 3)),
                                                      ("E", 7, (0, 2))]


def _allowed_coordinates(frame):
    """bool[v, m_dim] by root arithmetic: row d marks the coordinates of every
    tangent-positive alpha with alpha - m_pos[d] not a tangent-positive root."""
    allowed = np.zeros((frame.v, frame.m_dim), dtype=bool)
    for d, delta in enumerate(frame.m_pos):
        for alpha in frame.m_pos:
            if alpha - delta not in frame.split.delta_m_pos:
                allowed[d, list(frame.m_slot(alpha))] = True
    return allowed


@pytest.mark.parametrize("family,rank,painted", MASK_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in MASK_FRAMES])
def test_kernel_mask_matches_root_arithmetic(family, rank, painted):
    frame = frame_for(family, rank, painted)
    assert np.array_equal(compact_geom._kernel_mask(frame), _allowed_coordinates(frame))


@pytest.mark.parametrize("family,rank,painted", [("A", 3, ()), ("D", 4, ()), ("E", 7, (0, 2))])
def test_conditioned_batch_draws_one_plane_and_a_masked_field(family, rank, painted):
    frame = frame_for(family, rank, painted)
    trials = 10_000
    x, y = _conditioned_batch(frame, np.random.default_rng(11), trials)
    assert x.shape == y.shape == (trials, frame.m_dim)
    slots = np.array([frame.m_slot(alpha) for alpha in frame.m_pos])
    in_plane = (y[:, slots] != 0).all(axis=2)
    assert (in_plane.sum(axis=1) == 1).all()
    assert np.count_nonzero(y) == 2 * trials
    pick = in_plane.argmax(axis=1)
    assert np.array_equal(x != 0, _allowed_coordinates(frame)[pick])
    if family == "A":
        assert np.array_equal(np.unique(pick), np.arange(frame.v))


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_conditioned_checks_fail_off_the_kernel_mask(family, rank, monkeypatch):
    frame = frame_for(family, rank)
    monkeypatch.setattr(compact_geom, "_kernel_mask",
                        lambda frame: np.ones((frame.v, frame.m_dim), dtype=bool))
    for check in SUITES["onemel"]:
        result = check(frame, np.random.default_rng(3), 200)
        assert result.max_residual > 1e-10, check.__name__


PAIR_SET_FRAMES = ORACLE_FRAMES + [("E", 6, ())]


@pytest.mark.parametrize("family,rank,painted", PAIR_SET_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in PAIR_SET_FRAMES])
def test_pair_sets_list_each_decomposition_once(family, rank, painted):
    frame = frame_for(family, rank, painted)
    sys_ = frame.sys
    pair_sets = {delta: space.pairs for delta, space in _table_spaces(frame).items()}
    for delta in frame.m_pos:
        want = {frozenset((alpha, delta - alpha)) for alpha in sys_.positives
                if sys_.is_positive(delta - alpha)}
        got = pair_sets.get(delta, ())
        assert len(got) == len(want), delta
        assert {frozenset(p) for p in got} == want, delta
        assert all(alpha < beta for alpha, beta in got)
    assert set(pair_sets) <= set(frame.m_pos)


def _reference_pair_sets(frame):
    """All positive pairs summing to each tangent-positive root, by a scan of
    the pairs with a root sum, in root order."""
    sys_, m_pos = frame.sys, frame.split.delta_m_pos
    found = {}
    for alpha, beta in frame.chev.all_pairs():
        s = alpha + beta
        if s in m_pos and alpha < beta and sys_.is_positive(alpha) and sys_.is_positive(beta):
            found.setdefault(s, []).append((alpha, beta))
    return {delta: tuple(sorted(found[delta])) for delta in sorted(found)}


def _reference_blocks(frame, delta, pairs, a, b):
    """ad(a X_delta + b Y_delta) on each pair's four coordinates, cut from the
    full adjoint matrix."""
    ad = frame.ad_matrix(tilde_vector(frame, delta, a, b))
    return np.array([ad[np.ix_(idx, idx)]
                     for idx in ([*frame.slot(x), *frame.slot(y)] for x, y in pairs)])


def _reference_map_i(frame, delta, a, b, pair_set):
    pairs = sorted(tuple(sorted(pair)) for pair in pair_set)
    scale = float(np.hypot(a, b))
    out = np.zeros((4 * len(pairs), 4 * len(pairs)))
    for p, (blk, (x, y)) in enumerate(zip(_reference_blocks(frame, delta, pairs, a, b), pairs)):
        c = abs(float(frame.chev.constant(x, y)))
        out[4 * p: 4 * p + 4, 4 * p: 4 * p + 4] = blk / (scale * c)
    return out


TABLE_FRAMES = PAIR_SET_FRAMES + [("E", 7, (0, 2)), ("E", 8, ())]


@pytest.mark.parametrize("family,rank,painted", TABLE_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in TABLE_FRAMES])
def test_pair_space_table_matches_reference(family, rank, painted):
    frame = frame_for(family, rank, painted)
    reference = _reference_pair_sets(frame)
    spaces = _table_spaces(frame)
    assert list(spaces) == list(reference)
    table = frame.pair_table
    assert all(getattr(table, name).shape == (table.consts.size, 4, 4)
               for name in ("bx", "by", "px", "py"))
    m_pos = frame.split.delta_m_pos
    a, b = 0.6, -1.7
    tangent = subsets = 0
    for delta, space in spaces.items():
        pairs = reference[delta]
        assert space.pairs == pairs
        assert np.array_equal(space.slots.ravel(), s0_embedding(frame, pairs))
        assert np.array_equal(space.consts, [float(frame.chev.constant(x, y)) for x, y in pairs])
        assert np.array_equal(space.bx, _reference_blocks(frame, delta, pairs, 1.0, 0.0))
        assert np.array_equal(space.by, _reference_blocks(frame, delta, pairs, 0.0, 1.0))
        assert space.tangent == all(r in m_pos for pair in pairs for r in pair)
        # px and py on every space, tangent or mixed: delta's plane
        # coordinates of the bracket of each pair's basis vectors
        basis = np.eye(frame.dim)[space.slots]
        own = frame.bracket_full(basis[:, :, None], basis[:, None, :])[..., list(frame.slot(delta))]
        assert own.any()
        assert np.array_equal(space.px, own[..., 0]) and np.array_equal(space.py, own[..., 1])
        if space.tangent:
            tangent += 1
            assert np.array_equal(map_I(frame, delta, a, b, pairs),
                                  _reference_map_i(frame, delta, a, b, pairs))
        # the S-set pairs: every pair of tangent roots, all of them or a subset
        s_set = st_sets(frame.split, GammaSet.singleton(delta), delta).s_set
        s_pairs = {frozenset((x, delta - x)) for x in s_set}
        if s_pairs and not space.tangent:
            subsets += 1
            assert np.array_equal(map_I(frame, delta, b, a, s_pairs),
                                  _reference_map_i(frame, delta, b, a, s_pairs))
    assert tangent > 0 or rank == 1
    assert subsets > 0 or not painted


@pytest.mark.parametrize("family,rank,painted", TABLE_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in TABLE_FRAMES])
def test_j_sign_and_swap_matches_dense_products(family, rank, painted):
    # J is a signed permutation, so swapping the coordinates of each tangent
    # plane with one sign flip gives the dense products with J bit for bit;
    # the dense J is the one filled entry by entry in the retired layout
    frame = frame_for(family, rank, painted)
    j = _retired_layout(frame.split)[-1]
    rng = np.random.default_rng(11)
    # a batch of tangent rows: x @ J^T
    x = rng.standard_normal((40, frame.m_dim))
    assert np.array_equal(compact_geom._apply_j(x), x @ j.T)
    # pair coordinates (rows, pairs, 4) of the tangent pair spaces: each
    # pair's 4x4 block of J at its slots
    table = frame.pair_table
    emb = table.slots[np.repeat(table.tangent, np.diff(table.starts))] - frame.m_start
    x = rng.standard_normal((6, len(emb), 4))
    j_blk = j[emb[:, :, None], emb[:, None, :]]
    assert np.array_equal(compact_geom._apply_j(x), np.einsum("pij,rpj->rpi", j_blk, x))
    # nothing in the package reads the dense J: a fresh frame runs every
    # suite and its invariants without building it
    fresh = build_frame(frame.split)
    identity_suite(fresh, "all", trials=8)
    validate_frame(fresh, trials=8)
    assert "j_m" not in vars(fresh)
    assert fresh.j_m is fresh.j_m and "j_m" in vars(fresh)
    longs = [alpha for alpha in frame.m_pos if is_long(frame.sys, alpha)]
    for delta in (longs[0], longs[-1]):  # the lowest and the highest
        gdot = _plane_vector(frame, delta, 0.8, -0.6)
        a1 = compact_geom._ad(frame.plan_m, gdot)
        r = a1 + j @ compact_geom._ad(frame.plan_m, j @ gdot)
        assert np.array_equal(r_operator(frame, gdot), r)
        ad_k = compact_geom._ad(frame.plan_k, gdot)
        kk = ad_k.T @ frame.metric[:frame.m_start, :frame.m_start] @ ad_k
        velocity = compact_geom._Velocity(frame, gdot)
        assert np.array_equal(velocity.h, r.T @ r + kk + j.T @ kk @ j)
        c = -2.0 * a1
        assert np.array_equal(velocity.p, (c - j.T @ c @ j).T)


def _reference_twomel_spaces(frame):
    """Per pair space with every pair root in the tangent block, from the scan
    of the pairs with a root sum: delta, the blocks of ad(X_delta) and
    ad(Y_delta) cut from full adjoint matrices, |c| of each pair, the
    tangent-block coordinates of the pairs, the sorted sub-plan onto delta's
    plane and the metric there."""
    m_pos, out = frame.split.delta_m_pos, []
    for delta, pairs in _reference_pair_sets(frame).items():
        if all(r in m_pos for pair in pairs for r in pair):
            plane = np.array(frame.slot(delta))
            out.append((_reference_blocks(frame, delta, pairs, 1.0, 0.0),
                        _reference_blocks(frame, delta, pairs, 0.0, 1.0),
                        np.array([abs(float(frame.chev.constant(x, y))) for x, y in pairs]),
                        s0_embedding(frame, pairs) - frame.m_start,
                        _sorted_sub_plan(frame.plan, s0_embedding(frame, pairs), plane),
                        frame.metric[np.ix_(plane, plane)]))
    return out


def _reference_twomel_draws(frame, spaces, rng, trials):
    """The quarter-turn and pair-bound inputs as the per-space loop drew them:
    per space, (a, b) (a = 1 if both vanish), then ceil(trials / spaces) rows
    of x; with the dense operator I and the complex structure J there."""
    for bx, by, consts, emb, sub, metric in spaces:
        a, b = rng.standard_normal(2)
        if a == 0 and b == 0:
            a = 1.0
        n = len(consts)
        i_mat = np.zeros((4 * n, 4 * n))
        for p in range(n):
            i_mat[4 * p:4 * p + 4, 4 * p:4 * p + 4] = ((a * bx[p] + b * by[p])
                                                       / (np.hypot(a, b) * consts[p]))
        x = rng.standard_normal((-(-trials // len(spaces)), 4 * n))
        yield a, b, i_mat, frame.j_m[np.ix_(emb, emb)], x, consts.min(), sub, metric


def _reference_quarter_turn(frame, spaces, rng, trials):
    worst, total = 0.0, 0
    for _, _, i_mat, j_s0, x, _, _, _ in _reference_twomel_draws(frame, spaces, rng, trials):
        ix = x @ i_mat.T
        worst = max(worst, np.max(np.abs(i_mat @ i_mat + np.eye(len(i_mat)))),
                    np.max(np.abs(i_mat @ j_s0 + j_s0 @ i_mat)),
                    np.max(np.abs(np.einsum("ni,ni->n", ix, ix) - np.einsum("ni,ni->n", x, x))))
        total += len(x)
    return total, worst


def _reference_pair_bounds(frame, spaces, rng, trials):
    worst, total = 0.0, 0
    for a, b, i_mat, j_s0, x, n0, sub, metric in _reference_twomel_draws(frame, spaces, rng,
                                                                         trials):
        twist = metric @ (a, b)
        ix = x @ i_mat.T
        br = _contract_oracle(sub, ix, x)
        norms = 2.0 * np.einsum("ni,ni->n", x, x)
        p_val = (br - _contract_oracle(sub, ix @ j_s0.T, x @ j_s0.T)) @ twist
        worst = max(worst, np.max(br @ twist + n0 * np.hypot(a, b) * norms),
                    np.max(p_val + 2.0 * n0 * np.hypot(a, b) * norms), 0.0)
        total += len(x)
    return total, worst


@pytest.mark.parametrize("family,rank,painted", TABLE_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in TABLE_FRAMES])
def test_stacked_twomel_checks_match_per_space_loops(family, rank, painted):
    # the whole-array sampled checks (the oracles of the exhaustive ones below)
    # against the per-space loops they replaced, on the same draws: same
    # trials, residuals within 1e-12, both below tolerance
    frame = frame_for(family, rank, painted)
    spaces = _reference_twomel_spaces(frame)
    checks = ((_check_quarter_turn, _reference_quarter_turn),
              (_check_pair_bounds, _reference_pair_bounds))
    for (check, reference), seed, trials in itertools.product(checks, (5, 23), (8, 500)):
        got = check(frame, np.random.default_rng([seed, 1]), trials)
        if not spaces:
            assert (got.trials, got.max_residual) == (0, 0.0)
            continue
        total, worst = reference(frame, spaces, np.random.default_rng([seed, 1]), trials)
        assert got.trials == total >= trials
        assert abs(got.max_residual - worst) <= 1e-12, (check.__name__, seed, trials)
        assert got.passed and worst < got.tolerance


# the twomel checks by function name, for the wrong inputs of conftest's
# TWOMEL_CONTROLS
TWOMEL_CHECKS = {"_check_double_bracket": "double-bracket", "_check_quarter_turn": "quarter-turn",
                 "_check_pair_bounds": "pair-bound"}


@pytest.mark.parametrize("check", list(TWOMEL_CHECKS))
@pytest.mark.parametrize("family,rank", [("C", 3), ("C", 4)])
def test_twomel_checks_fail_on_wrong_inputs(family, rank, check):
    frame = frame_for(family, rank)
    wrong = twomel_control(frame, TWOMEL_CHECKS[check])
    for run in (getattr(compact_geom, check), globals()[check]):  # exhaustive, then sampled
        assert run(frame, np.random.default_rng(3), 200).passed
        result = run(wrong, np.random.default_rng(3), 200)
        failed = result.trials > 0 and result.max_residual > result.tolerance
        assert failed, (run.__module__, result)


# each check with the one of conftest's PARTIAL_TWOMEL_CONTROLS it must fail
PARTIAL_CONTROLS = [("_check_double_bracket", "Y block read as X"),
                    ("_check_quarter_turn", "Y block read as X"),
                    ("_check_pair_bounds", "X_alpha brackets dropped")]


@pytest.mark.parametrize("check,control", PARTIAL_CONTROLS,
                         ids=[f"{c}-{d}" for c, d in PARTIAL_CONTROLS])
@pytest.mark.parametrize("family,rank", [("C", 3), ("C", 4)])
def test_twomel_checks_see_defects_on_part_of_the_form(family, rank, check, control):
    frame = frame_for(family, rank)
    wrong = with_pair_table(frame, **PARTIAL_TWOMEL_CONTROLS[control](frame.pair_table))
    for run in (getattr(compact_geom, check), globals()[check]):
        result = run(wrong, np.random.default_rng(3), 200)
        failed = result.trials > 0 and result.max_residual > result.tolerance
        assert failed, (run.__module__, result)


# -- sampled oracles of the exhaustive checks ------------------------------------
#
# The six bilinear identity checks as they ran before they were decided on
# every basis pair: seeded random fields pushed through the bracket.  J, the
# (1,0) split and the kernel mask are read through the module, so a patched
# ``_apply_j`` or ``_kernel_mask`` reaches both forms.


def _check_integrability(frame, rng, trials: int) -> CheckResult:
    x = frame.random_m(rng, trials)
    y = frame.random_m(rng, trials)
    jx, jy = compact_geom._apply_j(x), compact_geom._apply_j(y)
    res = (
        bracket_m(frame, x, y)
        + compact_geom._apply_j(bracket_m(frame, jx, y))
        + compact_geom._apply_j(bracket_m(frame, x, jy))
        - bracket_m(frame, jx, jy)
    )
    return CheckResult(
        "integrability-defect",
        "complex structure against the projected bracket",
        trials, compact_geom._max_norm(res), compact_geom.TOL_IDENTITY,
    )


def _check_holomorphic_closure(frame, rng, trials) -> CheckResult:
    x10 = compact_geom._split_10(frame.random_m(rng, trials))
    y10 = compact_geom._split_10(frame.random_m(rng, trials))
    z = bracket_m(frame, x10, y10)
    res = compact_geom._apply_j(z) - 1j * z
    return CheckResult(
        "holomorphic-closure",
        "brackets of (1,0) fields stay of type (1,0) in the tangent block",
        trials, compact_geom._max_norm(res), compact_geom.TOL_IDENTITY,
    )


def _check_r_operator_form(frame, rng, trials) -> CheckResult:
    x = frame.random_m(rng, trials)
    y = frame.random_m(rng, trials)
    r_val = bracket_m(frame, y, x) + compact_geom._apply_j(
        bracket_m(frame, compact_geom._apply_j(y), x))
    w = bracket_m(frame, compact_geom._split_10(x), compact_geom._split_10(y).conj())
    z = w - 1j * compact_geom._apply_j(w)
    res = r_val + (z + z.conj()).real
    return CheckResult(
        "r-operator-form",
        "the transport generator as the defect of a mixed-type bracket",
        trials, compact_geom._max_norm(res), compact_geom.TOL_IDENTITY,
    )


def _check_isotropy_vanishing(frame, rng, trials) -> CheckResult:
    x10 = compact_geom._split_10(frame.random_m(rng, trials))
    y10 = compact_geom._split_10(frame.random_m(rng, trials))
    res = bracket_k(frame, x10, y10)
    return CheckResult(
        "isotropy-vanishing",
        "brackets of two (1,0) fields have no isotropy part",
        trials, compact_geom._max_norm(res), compact_geom.TOL_IDENTITY,
    )


def _conditioned_batch(frame, rng, trials):
    """Random (x, y) rows with y in one uniformly drawn tangent-positive plane
    and x standard normal on that plane's kernel mask row, so that the
    mixed-type bracket stays anti-holomorphic in the tangent block."""
    pick = rng.integers(frame.v, size=trials)
    y = np.zeros((trials, frame.v, 2))
    y[np.arange(trials), pick] = rng.standard_normal((trials, 2))
    x = rng.standard_normal((trials, frame.m_dim)) * compact_geom._kernel_mask(frame)[pick]
    return x, y.reshape(trials, frame.m_dim)


def _check_conditioned_commutation(frame, rng, trials) -> CheckResult:
    x, y = _conditioned_batch(frame, rng, trials)
    res = (compact_geom._apply_j(bracket_m(frame, y, x))
           - bracket_m(frame, compact_geom._apply_j(y), x))
    return CheckResult(
        "conditioned-commutation",
        "complex structure passes through the bracket when the transport "
        "generator annihilates the field",
        trials, compact_geom._max_norm(res), compact_geom.TOL_IDENTITY,
    )


def _check_conditioned_skew(frame, rng, trials) -> CheckResult:
    x, y = _conditioned_batch(frame, rng, trials)
    z = bracket_m(frame, compact_geom._split_10(y), compact_geom._split_10(x))
    res = (compact_geom._apply_j(bracket_m(frame, y, x))
           + bracket_m(frame, y, compact_geom._apply_j(x)) + 4.0 * z.imag)
    return CheckResult(
        "conditioned-skew",
        "the anti-linear defect of the bracket reduces to holomorphic terms",
        trials, compact_geom._max_norm(res), compact_geom.TOL_IDENTITY,
    )


# hessian-chain as it ran before it was decided on its coefficients: seeded
# fields, the curvature terms through the public ``curvature_quadratic``, so
# the quadratic's value stays tied to the chain, and [x, g]_k = -[g, x]_k
# having the norm of [g, x]_k


def _check_hessian_chain(frame, rng, trials) -> CheckResult:
    a_f = frame.random_m(rng, trials)
    x = frame.random_m(rng, trials)
    g = frame.random_m(rng, trials)
    jx = compact_geom._apply_j(x)
    bm, bmj = bracket_m(frame, g, x), bracket_m(frame, g, jx)
    bk, bkj = bracket_k(frame, g, x), bracket_k(frame, g, jx)
    lhs = (
        frame.m_norm2(a_f + 0.5 * bm)
        + frame.m_norm2(compact_geom._apply_j(a_f) + 0.5 * bmj)
        - curvature_quadratic(frame, g, x)
        - curvature_quadratic(frame, g, jx)
    )
    rhs = (
        2.0 * frame.m_norm2(a_f)
        + frame.m_inner(a_f, bm - compact_geom._apply_j(bmj))
        - frame.k_inner(bk, bk)
        - frame.k_inner(bkj, bkj)
    )
    return CheckResult(
        "hessian-chain",
        "pointwise reduction of the averaged second variation integrand",
        trials, compact_geom._max_norm(lhs - rhs), compact_geom.TOL_IDENTITY,
    )


# the checks decided on the plane blocks, which read J through _block_j
PLANE_ORACLES = (_check_integrability, _check_holomorphic_closure, _check_r_operator_form,
                 _check_isotropy_vanishing, _check_conditioned_commutation,
                 _check_conditioned_skew)
SAMPLED_ORACLES = PLANE_ORACLES + (_check_hessian_chain,)


# The twomel and curvature checks as they ran before they were decided on
# every pair block, basis pair or weight: seeded random fields and pair
# coordinates.  J, the quarter-turn blocks and the contraction are read
# through the module, so a patched ``_apply_j`` reaches both forms.


def _check_double_bracket(frame, rng, trials) -> CheckResult:
    table = frame.pair_table
    bx, by, consts = table.bx, table.by, table.consts
    if not consts.size:
        return CheckResult("double-bracket", "no decomposable roots in this frame",
                           0, 0.0, compact_geom.TOL_IDENTITY)
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
    worst, total = compact_geom._max_norm(res), per * combos
    return CheckResult(
        "double-bracket",
        "twice-projected bracketing against a root plane scales by the "
        "squared structure constant",
        total, worst, compact_geom.TOL_IDENTITY,
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
    i_blk[rows] = compact_geom._quarter_blocks(table, rows, *np.repeat(ab, hi - lo, axis=0).T)
    return usable, rows, ab, i_blk, x


def _per_pair(blocks, x):
    """Each pair's block applied to its four coordinates, on every row of x."""
    return np.einsum("pij,rpj->rpi", blocks, x, optimize=True)


def _space_norm2(table, x):
    """Squared norm of every row of x on each pair space: per-pair sums,
    added over each space's run of pairs."""
    return np.add.reduceat(np.einsum("rpi,rpi->rp", x, x), table.starts[:-1], axis=1)


def _check_quarter_turn(frame, rng, trials) -> CheckResult:
    """Involution, anticommutation and isometry of the pair-space operator,
    block by block; the isometry sums each space's pairs."""
    draws = _quarter_turn_draws(frame, rng, trials)
    if draws is None:
        return CheckResult("quarter-turn", "no usable pair sets", 0, 0.0,
                           compact_geom.TOL_IDENTITY)
    usable, rows, _, i_all, x = draws
    i_blk = i_all[rows]
    norm2 = [_space_norm2(frame.pair_table, v)[:, usable] for v in (_per_pair(i_all, x), x)]
    # IJ + JI, as J I = (I^T J^T)^T and I J = -I J^T
    worst = max(compact_geom._max_norm(i_blk @ i_blk + np.eye(4)),
                compact_geom._max_norm(compact_geom._apply_j(i_blk.swapaxes(1, 2)).swapaxes(1, 2)
                                       - compact_geom._apply_j(i_blk)),
                compact_geom._max_norm(norm2[0] - norm2[1]))
    return CheckResult(
        "quarter-turn",
        "pair-space operator squares to minus identity, anticommutes with "
        "the complex structure, and is an isometry",
        x.shape[0] * usable.size, worst, compact_geom.TOL_IDENTITY,
    )


def _check_pair_bounds(frame, rng, trials) -> CheckResult:
    """Lower bound of the bracket pairing on pair spaces, slice level.

    The metric pairing with the twist direction reads only the bracket onto
    delta's plane, so both brackets, [Ix, x] and [JIx, Jx], of every pair
    come from one contraction with the table's px and py, added over each
    space's pairs."""
    draws = _quarter_turn_draws(frame, rng, trials)
    if draws is None:
        return CheckResult("pair-bound", "no usable pair sets", 0, 0.0, 1e-8)
    usable, _, ab, i_blk, x = draws
    table, per = frame.pair_table, x.shape[0]
    ix = _per_pair(i_blk, x)
    ins = np.stack([ix, compact_geom._apply_j(ix), x, compact_geom._apply_j(x)])
    per_pair = np.einsum("nrps,nrpt,kpst->nrpk", ins[:2], ins[2:], np.stack([table.px, table.py]),
                         optimize=True)
    br = np.add.reduceat(per_pair, table.starts[:-1], axis=2)[:, :, usable]
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
        trials, worst, compact_geom.TOL_IDENTITY,
    )


def _check_curvature_diagonal(frame, rng, trials) -> CheckResult:
    x = frame.random_m(rng, trials)
    lam = rng.standard_normal((trials, 1))
    vals = curvature_quadratic(frame, x, lam * x)
    return CheckResult(
        "curvature-diagonal",
        "the quadratic vanishes on proportional arguments",
        trials, compact_geom._max_norm(vals), compact_geom.TOL_IDENTITY,
    )


BLOCK_ORACLES = (_check_double_bracket, _check_quarter_turn, _check_pair_bounds,
                 _check_curvature_nonneg, _check_curvature_diagonal)


def _block_entries(blocks, planes):
    """(i, j, k, c) of the nonzero block entries, sorted by (k, i, j) as a
    plan's: coordinates 2p + s, 2q + t and 2r + u, or the isotropy output o."""
    *offsets, b = np.nonzero(blocks)
    coords = [2 * plane[b] + s for plane, s in zip(planes, offsets)]
    if len(coords) < 3:
        coords.append(planes[2][b])
    i, j, k = coords
    order = np.lexsort((j, i, k))
    return i[order], j[order], k[order], blocks[(*offsets, b)][order]


def test_plane_blocks_hold_the_plan_entries():
    # every entry of plan_m and plan_k, each once in its block, and each
    # block's partner is the block of the swapped argument planes
    for family, rank, painted in TABLE_FRAMES:
        frame = frame_for(family, rank, painted)
        blocks = frame.plane_blocks
        for got, plan in ((_block_entries(blocks.m, blocks.m_planes), frame.plan_m),
                          (_block_entries(blocks.k, blocks.k_planes), frame.plan_k)):
            assert all(np.array_equal(a, b) for a, b in zip(got, plan[:4])), (family, rank)
        for planes, partner in ((blocks.m_planes, blocks.partner),
                                (blocks.k_planes, blocks.k_partner)):
            assert np.array_equal(planes[:, partner], planes[[1, 0, 2]])
            assert np.unique(planes, axis=1).shape == planes.shape  # one block per triple


def _basis_pairs(frame, oracle):
    """What an exhaustive check decides: all ordered basis pairs (the
    curvature checks and hessian-chain, decided on weights, count them too),
    or for onemel y in one tangent-positive plane and x on its allowed
    planes; for twomel the pair blocks, found by the scan of the pairs with a
    root sum: every pair, or for the quarter turn and the pair bound those of
    the spaces with every pair root in the tangent block."""
    if oracle in (_check_conditioned_commutation, _check_conditioned_skew):
        return 2 * int(_allowed_coordinates(frame).sum())
    if oracle in (_check_double_bracket, _check_quarter_turn, _check_pair_bounds):
        m_pos, spaces = frame.split.delta_m_pos, _reference_pair_sets(frame).values()
        if oracle is not _check_double_bracket:
            spaces = [pairs for pairs in spaces if all(r in m_pos for pair in pairs for r in pair)]
        return sum(map(len, spaces))
    return frame.m_dim ** 2


@pytest.mark.parametrize("family,rank,painted", TABLE_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in TABLE_FRAMES])
def test_exhaustive_checks_match_sampled_oracles(family, rank, painted):
    # each exhaustive check sits in the suite where its sampled form was, and
    # decides the same identity: both pass at every seed and trial count, and
    # the exhaustive residual is at rounding level (the pair bound's, attained
    # on the pairs with |c| = n0, at 1e-14).  The twomel oracles draw
    # ceil(trials / pairs) or ceil(trials / spaces) inputs for each, none on a
    # frame without pairs
    frame = frame_for(family, rank, painted)
    for oracle in SAMPLED_ORACLES + BLOCK_ORACLES:
        check = getattr(compact_geom, oracle.__name__)
        assert check in _CHECK_STREAMS
        limit = 1e-14 if oracle is _check_pair_bounds else 1e-12
        for seed, trials in itertools.product((5, 23), (8, 500)):
            rng = np.random.default_rng([seed, _CHECK_STREAMS[check]])
            got = check(frame, rng, trials)
            assert got.exhaustive and got.to_json_dict()["exhaustive"] is True
            assert got.trials == _basis_pairs(frame, oracle), oracle.__name__
            want = oracle(frame, np.random.default_rng([seed, _CHECK_STREAMS[check]]), trials)
            assert (want.name, want.description) == (got.name, got.description)
            if oracle in BLOCK_ORACLES[:3]:
                assert want.trials >= trials or want.trials == got.trials == 0
            else:
                assert want.trials == trials
            assert want.passed and not want.exhaustive, (oracle.__name__, seed, trials)
            assert got.passed and got.max_residual <= limit, (oracle.__name__, got.max_residual)
    # the layout is the one new cache: a fresh frame builds no dense J
    fresh = build_frame(frame.split)
    identity_suite(fresh, "all", trials=8)
    assert "j_m" not in vars(fresh) and "plane_blocks" in vars(fresh)


# the controls, fixed before they were run: J reversed on theta's plane, which
# the isotropy check sees only where a painted node meets theta (node 1 of A3,
# node 2 of D4), and the kernel mask widened to every plane
SAMPLED_CONTROLS = [(oracle, (f, r, ()), "reversed J")
                    for oracle in PLANE_ORACLES if oracle is not _check_isotropy_vanishing
                    for f, r in (("A", 3), ("D", 4))]
SAMPLED_CONTROLS += [(_check_isotropy_vanishing, frame, "reversed J")
                     for frame in (("A", 3, (0,)), ("D", 4, (1,)))]
SAMPLED_CONTROLS += [(oracle, (f, r, ()), "widened mask")
                     for oracle in (_check_conditioned_commutation, _check_conditioned_skew)
                     for f, r in (("A", 3), ("D", 4))]
# and those of the curvature and ceh-chain suites, on the four acceptance
# frames: the Cartan block of the metric negated, the plan_m entries with
# i < j doubled, J without its sign (J^2 = +I), and the curvature weights
# with the isotropy one negated or the tangent one doubled
SAMPLED_CONTROLS += [(oracle, (f, r, ()), control)
                     for oracle, control in ((_check_curvature_nonneg, "negated Cartan metric"),
                                             (_check_curvature_diagonal, "doubled upper plan_m"),
                                             (_check_hessian_chain, "J squared +I"),
                                             *((_check_hessian_chain, control)
                                               for control in CURVATURE_WEIGHT_CONTROLS))
                     for f, r in ACCEPTANCE_FRAMES]


@pytest.mark.parametrize("oracle,frame_in,control", SAMPLED_CONTROLS,
                         ids=[f"{o.__name__}-{f}{r}{list(p)}-{c}"
                              for o, (f, r, p), c in SAMPLED_CONTROLS])
def test_both_forms_fail_under_each_control(oracle, frame_in, control, monkeypatch):
    frame = fresh_frame(*frame_in)
    if control == "reversed J":
        monkeypatch.setattr(compact_geom, "_apply_j", reversed_on_theta(compact_geom._apply_j))
    elif control == "J squared +I":
        monkeypatch.setattr(compact_geom, "_apply_j", without_sign(compact_geom._apply_j))
    elif control == "widened mask":
        monkeypatch.setattr(compact_geom, "_kernel_mask",
                            lambda frame: np.ones((frame.v, frame.m_dim), dtype=bool))
    elif control == "negated Cartan metric":
        frame = negated_cartan_metric(frame)
    elif control in CURVATURE_WEIGHT_CONTROLS:
        monkeypatch.setattr(compact_geom, "_curvature_weights",
                            wrong_curvature_weights(compact_geom._curvature_weights, control))
    else:
        frame = doubled_upper_plan_m(frame)
    check = getattr(compact_geom, oracle.__name__)
    for run in (oracle, check):
        result = run(frame, np.random.default_rng([42, _CHECK_STREAMS[check]]), 200)
        assert result.max_residual > 1e-10, (run.__module__, result)


def test_reversed_j_reaches_the_isotropy_block_only_through_a_painted_root(monkeypatch):
    # why the reversed-J control of isotropy-vanishing fails on few frames:
    # under it the (1,0) fields hold E_-theta in place of E_theta, two other
    # (1,0) root vectors bracket to a root of tangent degree 2 or more, and
    # [E_-theta, E_alpha] has an isotropy part only for alpha = theta - kappa,
    # kappa a painted positive root.  So the check fails exactly where some
    # painted positive kappa has theta - kappa a root
    monkeypatch.setattr(compact_geom, "_apply_j", reversed_on_theta(compact_geom._apply_j))
    reached = 0
    for family, rank, painted in END_NODE_FRAMES:
        frame = frame_for(family, rank, painted)
        theta = frame.m_pos[-1]
        below = any(frame.sys.contains(theta - kappa) for kappa in frame.split.k_pos_sorted)
        result = compact_geom._check_isotropy_vanishing(frame, None, 1)
        assert (result.max_residual > 1e-10) == below, (family, rank, painted, result)
        reached += below
    assert 0 < reached < len(END_NODE_FRAMES)


def test_exhaustive_checks_read_inf_when_j_is_no_plane_swap(monkeypatch):
    # J read off _apply_j must be a signed swap inside each plane.
    # hessian-chain reads J as a matrix: J = 2I gives J^T J - I = 3I and
    # J^T + J = 4I
    frame = fresh_frame("A", 3)
    monkeypatch.setattr(compact_geom, "_apply_j", lambda x: 2.0 * x)
    for oracle in PLANE_ORACLES:
        result = getattr(compact_geom, oracle.__name__)(frame, None, 1)
        assert result.max_residual == float("inf") and not result.passed
    assert compact_geom._check_hessian_chain(frame, None, 1).max_residual == 4.0


@pytest.mark.parametrize("family,rank,painted", TABLE_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in TABLE_FRAMES])
def test_hessian_chain_reads_each_bracket_once(family, rank, painted, monkeypatch):
    # decided on its coefficients, it reads no bracket at all: no contraction
    # and no draw, and the same residual, exactly 0.0, at every seed and trial
    # count
    frame = frame_for(family, rank, painted)
    check = compact_geom._check_hessian_chain
    plans = []
    contract = compact_geom._contract
    monkeypatch.setattr(compact_geom, "_contract",
                        lambda plan, x, y: plans.append(plan) or contract(plan, x, y))
    for seed, trials in itertools.product((5, 23), (8, 500)):
        rng = np.random.default_rng([seed, _CHECK_STREAMS[check]])
        state = rng.bit_generator.state
        got = check(frame, rng, trials)
        assert rng.bit_generator.state == state
        assert (got.max_residual, got.trials, got.exhaustive) == (0.0, frame.m_dim ** 2, True)
    assert plans == []


@pytest.mark.parametrize("family,rank,painted", TABLE_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in TABLE_FRAMES])
def test_isotropy_pairing_reduces_to_the_vanishing_blocks(family, rank, painted, monkeypatch):
    # with A = [x, y]_k, B = [Jx, y]_k, P = A - [Jx, Jy]_k and Q = B + [x, Jy]_k
    # the residual is <A, P> + <B, Q> - (|P|^2 + |Q|^2)/4 in k_inner, for any J
    # and any symmetric metric, and [x10, y10]_k = (P - iQ)/4: it vanishes
    # with isotropy-vanishing's blocks.  Checked on the drawn fields, within
    # 1e-12 of the largest compared term, with J as it is and without its sign
    frame = frame_for(family, rank, painted)
    check = compact_geom._check_isotropy_pairing
    for control in ("J", "J without its sign"):
        if control != "J":
            monkeypatch.setattr(compact_geom, "_apply_j", without_sign(compact_geom._apply_j))
        apply_j = compact_geom._apply_j
        got = check(frame, np.random.default_rng([7, _CHECK_STREAMS[check]]), 200)
        rng = np.random.default_rng([7, _CHECK_STREAMS[check]])
        x, y = frame.random_m(rng, 200), frame.random_m(rng, 200)
        a, b = bracket_k(frame, x, y), bracket_k(frame, apply_j(x), y)
        p = a - bracket_k(frame, apply_j(x), apply_j(y))
        q = b + bracket_k(frame, x, apply_j(y))
        want = (frame.k_inner(a, p) + frame.k_inner(b, q)
                - 0.25 * (frame.k_inner(p, p) + frame.k_inner(q, q)))
        scale = np.max(frame.k_inner(a, a) + frame.k_inner(b, b))
        assert abs(got.max_residual - np.max(np.abs(want))) <= 1e-12 * scale, (control, got)
        assert got.passed == (control == "J"), (control, got)


@pytest.mark.parametrize("family,rank,painted,pairs", [("E", 7, (0, 2), 335), ("E", 8, (), 1120)],
                         ids=["E7[0, 2]", "E8[]"])
def test_identity_suite_all_on_e7_and_e8(family, rank, painted, pairs):
    frame = frame_for(family, rank, painted)
    report = identity_suite(frame, "all", trials=8, seed=17)
    assert report.passed
    checks = {check.name: check for check in report.checks}
    assert len(checks) == sum(map(len, SUITES.values()))
    assert all(check.passed and check.trials > 0 for check in checks.values())
    # double-bracket visits every decomposition pair once
    assert checks["double-bracket"].trials == pairs
    assert pairs == frame.pair_table.consts.size


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS, ids=[f"{f}{r}" for f, r in ALL_SYSTEMS])
def test_suites_and_frame_invariants_on_every_borel_frame(family, rank):
    frame = frame_for(family, rank)
    report = identity_suite(frame, "all", trials=100)
    assert report.passed, [check for check in report.checks if not check.passed]
    residuals = validate_frame(frame, trials=64)
    assert max(residuals.values()) < 1e-10, residuals


def test_isotropy_pairing_on_e8_at_full_trials():
    # the inputs of `flagmorse check --suite mel --family E --rank 8
    # --trials 10000 --seed 9`: the compared terms reach about 6,500, where
    # 1e-10 is a relative error of 1.6e-14
    frame = frame_for("E", 8)
    check = compact_geom._check_isotropy_pairing
    rng = np.random.default_rng([9, compact_geom._CHECK_STREAMS[check]])
    result = check(frame, rng, 10_000)
    assert result.trials == 10_000
    assert result.passed, result.max_residual


def test_curvature_quadratic_nonnegative(borel_frame, rng):
    frame = borel_frame
    x = frame.random_m(rng, 200)
    y = frame.random_m(rng, 200)
    assert np.all(curvature_quadratic(frame, x, y) >= 0.0)


@pytest.mark.parametrize("family,rank,painted", TABLE_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in TABLE_FRAMES])
def test_curvature_quadratic_is_its_weighted_brackets(family, rank, painted):
    # <R(x, y) y, x> = (1/4)|[x, y]_m|^2 + |[x, y]_k|^2 in the metric, read
    # through m_norm2 and k_inner, not through the curvature weights
    frame = frame_for(family, rank, painted)
    rng = np.random.default_rng(11)
    x, y = frame.random_m(rng, 50), frame.random_m(rng, 50)
    bm, bk = bracket_m(frame, x, y), bracket_k(frame, x, y)
    want = 0.25 * frame.m_norm2(bm) + frame.k_inner(bk, bk)
    np.testing.assert_allclose(curvature_quadratic(frame, x, y), want, rtol=1e-12, atol=1e-12)


# -- one object per velocity against the per-call path --------------------------
#
# Each public velocity function once rebuilt what it read: the shape check and
# ad_m(gdot) for r and again for p, and r, h and their averages per call.  The
# bodies below are that per-call path, kept as the oracle of
# ``compact_geom._Velocity``, which builds each of them once.


def _per_call_r(frame, gdot):
    compact_geom._require_tangent(frame, velocity=gdot)
    if not np.any(gdot):
        raise ValueError("velocity must be nonzero")
    a1 = compact_geom._ad(frame.plan_m, gdot)
    a2 = compact_geom._ad(frame.plan_m, compact_geom._apply_j(gdot))
    return a1 + compact_geom._apply_j(a2.T).T


def _per_call_transport(frame, gdot, t):
    gen = -0.5 * t * _per_call_r(frame, gdot)
    if compact_geom._square_zero(gen):
        return np.eye(frame.m_dim) + gen
    return scipy_expm(gen)


def _per_call_pairing(frame, gdot):
    compact_geom._require_tangent(frame, velocity=gdot)
    c = -2.0 * compact_geom._ad(frame.plan_m, gdot)
    return (c - compact_geom._apply_j(compact_geom._apply_j(c.T).T)).T


def _per_call_forms(frame, gdot):
    r = _per_call_r(frame, gdot)
    ad_k = compact_geom._ad(frame.plan_k, gdot)
    g_k = frame.metric[: frame.m_start, : frame.m_start]
    kk = ad_k.T @ g_k @ ad_k
    h = r.T @ r + kk + compact_geom._apply_j(compact_geom._apply_j(kk.T).T)
    return r, h


def _per_call_quadrature(frame, gdot, x0, y0):
    form = compact_geom._form
    r, h = _per_call_forms(frame, gdot)
    h_bar, g_bar, p_bar = (compact_geom._averaged(-0.5 * r, m)
                           for m in (h, 2.0 * np.eye(frame.m_dim), _per_call_pairing(frame, gdot)))
    e = -(form(x0, h_bar, x0) + form(y0, h_bar, y0))
    a = form(x0, g_bar, x0) + form(y0, g_bar, y0)
    return e, a, form(x0, p_bar, y0)


def _per_call_hessian_many(frame, gdot, x0_batch):
    r, h = _per_call_forms(frame, gdot)
    return -compact_geom._form(x0_batch, compact_geom._averaged(-0.5 * r, h), x0_batch)


def _per_call_k_search(frame, gdot, x0, y0):
    """(k, margin, q_values) of the first dyadic rate that makes every form
    negative, or None where there is none."""
    e, a, b = _per_call_quadrature(frame, gdot, x0, y0)
    k = 1.0
    for _ in range(60):
        qs = compact_geom._twisted(e, a, b, k)
        value = float(np.max(qs))
        if value < 0:
            return k, -value, tuple(qs)
        k /= 2.0
    return None


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _assert_velocity_functions_match_per_call_path(frame, gdot, rng):
    x, y = frame.random_m(rng, 4), frame.random_m(rng, 4)
    pairs = [
        ("r_operator", r_operator(frame, gdot), _per_call_r(frame, gdot)),
        *((f"hat_transport t={t}", hat_transport(frame, gdot, t),
           _per_call_transport(frame, gdot, t)) for t in (0.0, 0.37, 1.0)),
        ("complex_hessian_many", complex_hessian_many(frame, gdot, x),
         _per_call_hessian_many(frame, gdot, x)),
        ("complex_hessian", complex_hessian(frame, gdot, x[0]),
         float(_per_call_hessian_many(frame, gdot, x[:1])[0])),
        ("q_form", q_form(frame, gdot, x[0], y[0], 0.3),
         float(compact_geom._twisted(*_per_call_quadrature(frame, gdot, x[:1], y[:1]), 0.3)[0])),
        ("p_pairing", p_pairing(frame, x[0], y[0], gdot),
         float(x[0] @ _per_call_pairing(frame, gdot) @ y[0])),
        ("p_bound", p_bound(frame, gdot),
         float(np.linalg.norm(_per_call_pairing(frame, gdot), 2) / 2.0)),
    ]
    for name, got, want in pairs:
        assert _same_bytes(got, want), name
    want = _per_call_k_search(frame, gdot, x, y)
    if want is None:
        with pytest.raises(RuntimeError, match="no negative twisting rate"):
            k_search(frame, gdot, list(zip(x, y)))
    else:
        got = k_search(frame, gdot, list(zip(x, y)))
        assert _same_bytes(got.k, want[0]) and _same_bytes(got.margin, want[1])
        assert _same_bytes(got.q_values, want[2])


@pytest.mark.parametrize("family,rank,painted", END_NODE_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in END_NODE_FRAMES])
def test_velocity_functions_match_the_per_call_path_on_root_planes(family, rank, painted):
    # the lowest and the highest long root's plane (r = 0 on many of the
    # latter), and the lowest short root's plane where the frame has one,
    # whose generator takes the exponential
    frame = frame_for(family, rank, painted)
    longs = _long_roots_by_height(frame)
    shorts = [r for r in frame.m_pos if not is_long(frame.sys, r)]
    rng = np.random.default_rng(29)
    for delta in dict.fromkeys((longs[0], longs[-1], *shorts[:1])):
        _assert_velocity_functions_match_per_call_path(
            frame, _plane_vector(frame, delta, 0.8, -0.6), rng)


@pytest.mark.parametrize("family,rank,painted", TABLE_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in TABLE_FRAMES])
def test_velocity_functions_match_the_per_call_path_off_root_planes(family, rank, painted):
    frame = frame_for(family, rank, painted)
    rng = np.random.default_rng(31)
    _assert_velocity_functions_match_per_call_path(frame, _unit(frame, frame.random_m(rng)), rng)


def test_each_velocity_function_scatters_each_adjoint_once(monkeypatch):
    # ad_m(gdot) is shared by r and p, ad_m(J gdot) is read by r alone and
    # ad_k(gdot) by h alone; the per-call path scattered ad_m(gdot) twice in
    # k_search, once for r and once for p
    frame = frame_for("D", 4)
    rng = np.random.default_rng(7)
    gdot = _unit(frame, frame.random_m(rng))
    x, y = frame.random_m(rng, 3), frame.random_m(rng, 3)
    plans = []
    ad = compact_geom._ad
    monkeypatch.setattr(compact_geom, "_ad", lambda plan, w: plans.append(plan) or ad(plan, w))
    for call, m_scatters, k_scatters in (
            (lambda: k_search(frame, gdot, list(zip(x, y))), 2, 1),
            (lambda: complex_hessian_many(frame, gdot, x), 2, 1),
            (lambda: hat_transport(frame, gdot, 0.37), 2, 0),
            (lambda: p_bound(frame, gdot), 1, 0)):
        plans.clear()
        call()
        assert len(plans) == m_scatters + k_scatters
        assert sum(p is frame.plan_m for p in plans) == m_scatters
        assert sum(p is frame.plan_k for p in plans) == k_scatters
