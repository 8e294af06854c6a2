import itertools
from fractions import Fraction

import numpy as np
import pytest

from flagmorse import compact_geom
from flagmorse.chevalley import ComplexElement, bracket_c, n0_constant
from flagmorse.compact_geom import (
    SUITES,
    CheckResult,
    _pair_sets,
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
    NotARoot,
    NotInK,
    UnknownSuite,
)
from flagmorse.exactnum import CSqrt2, Sqrt2
from flagmorse.index_comb import GammaSet, st_sets
from flagmorse.parabolic import PaintedDiagram, borel_split, split
from flagmorse.rootsys import RootVector, build_root_system, is_long

from conftest import SMALL_SYSTEMS
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
    X_a = E_a - E_-a and Y_a = i (E_a + E_-a)."""
    sys_ = frame.sys
    i1 = CSqrt2.make(0, 1)
    out = []
    for kind, payload in frame.labels:
        if kind == "h":
            coords = tuple(CSqrt2.make(0, c) for c in sys_.simples[payload].unscaled())
            out.append(ComplexElement.cartan(sys_, coords))
        elif kind == "X":
            out.append(ComplexElement.root_vector(sys_, payload)
                       - ComplexElement.root_vector(sys_, -payload))
        else:
            out.append(ComplexElement.root_vector(sys_, payload, i1)
                       + ComplexElement.root_vector(sys_, -payload, i1))
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
    for mu, (ix, iy) in frame.slots.items():
        c_plus = z.coeffs.get(mu, zero)
        c_minus = z.coeffs.get(-mu, zero)
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
    x_full[frame.slots[alpha][0]] = 1.0
    y_full[frame.slots[alpha][1]] = 1.0
    out = frame.bracket_full(x_full, y_full)
    assert np.max(np.abs(out[1:])) < 1e-14  # lands in the Cartan block
    assert abs(out[0] * float(frame.sys.simples[0].unscaled()[0]) - 2.0 * float(alpha.unscaled()[0])) < 1e-12


def test_metric_blocks_and_plane_pairing():
    frame = frame_for("A", 2)
    # each root plane carries the diagonal (2, 2) block
    for alpha in frame.m_pos:
        ix, iy = frame.slots[alpha]
        assert frame.metric[ix, ix] == 2.0
        assert frame.metric[iy, iy] == 2.0
        assert frame.metric[ix, iy] == 0.0


def test_plane_bracket_lands_in_cartan_direction():
    # [X_a, Y_a] is twice the dual of a, an isotropy(-block) element
    frame = frame_for("A", 2)
    alpha = frame.m_pos[0]
    x_full = np.zeros(frame.dim)
    y_full = np.zeros(frame.dim)
    ix, iy = frame.slots[alpha]
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
               or (sys_.is_positive(-root) and -root in frame.split.delta_m_pos)
               for root, coeff in result.coeffs.items())


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
    assert q_form(frame, gdot, zero, zero, zero, 0.5) == 0.0


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
    zero = np.zeros(frame.m_dim)
    k_star = n0_constant(frame.chev, pairs) * np.hypot(0.9, 0.5)
    lo = q_form(frame, gdot, zero, zero, w0, 0.9 * k_star, i_map=i_mat, pair_set=pairs)
    hi = q_form(frame, gdot, zero, zero, w0, 1.1 * k_star, i_map=i_mat, pair_set=pairs)
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
    direct = q_form(frame, gdot, x0, y0, np.zeros(frame.m_dim), result.k)
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
    gamma = GammaSet.singleton(delta, 0.9, -0.5)
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
    with pytest.raises(ValueError, match="at least one configuration"):
        k_search(frame, gdot, [])
    # a fourth positional argument (once a node count) is not taken as k_start
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


@pytest.mark.parametrize("family,rank,painted,speed", [
    pytest.param(f, r, p, speed, id=f"{f}{r}{list(p)}{suffix}")
    for speed, suffix in ((1.0, ""), (5.0, "-speed5")) for f, r, p in ORACLE_FRAMES
])
def test_quadrature_matches_per_node_brackets(family, rank, painted, speed):
    frame = frame_for(family, rank, painted)
    rng = np.random.default_rng(41)
    gdot = speed * _unit(frame, frame.random_m(rng))  # generic, not one root plane
    fields = frame.random_m(rng, 6)
    e, _, _ = _reference_parts(frame, gdot, fields, np.zeros_like(fields))
    _assert_relative(complex_hessian_many(frame, gdot, fields), e, np.abs(e))

    xs, ys = frame.random_m(rng, 4), frame.random_m(rng, 4)
    result = k_search(frame, gdot, list(zip(xs, ys)))
    e, a, b = _reference_parts(frame, gdot, xs, ys)
    k = result.k
    _assert_relative(result.q_values, e + 2 * k * k * a + 2 * k * b,
                     np.abs(e) + 2 * k * k * np.abs(a) + 2 * k * np.abs(b))

    # q_form through the pair-space operator of the highest tangent root
    x0, y0 = xs[0], ys[0]
    delta = max(frame.m_pos, key=lambda r: (frame.sys.height(r), r.coords))
    pairs = _s_pairs(frame, delta)
    assert pairs or rank == 1
    w0 = np.zeros(frame.m_dim)
    iw0 = np.zeros(frame.m_dim)
    i_mat = None
    if pairs:
        i_mat = map_I(frame, delta, 0.9, -0.5, pairs)
        emb = s0_embedding(frame, pairs) - frame.m_start
        w0[emb] = rng.standard_normal(len(emb))
        iw0[emb] = i_mat @ w0[emb]
    k = 0.3
    e, a, b = _reference_parts(frame, gdot, (x0 + w0)[None], (y0 + iw0)[None])
    got = q_form(frame, gdot, x0, y0, w0, k, i_map=i_mat, pair_set=pairs)
    _assert_relative(got, e + 2 * k * k * a + 2 * k * b,
                     np.abs(e) + 2 * k * k * np.abs(a) + 2 * k * np.abs(b))

    j = frame.j_m
    want = frame.m_inner(bracket_m(frame, y0, x0) - bracket_m(frame, j @ y0, j @ x0), gdot)
    _assert_relative(p_pairing(frame, x0, y0, gdot), want, abs(want))

    basis = np.eye(frame.m_dim)
    tiles = np.array([[p_pairing(frame, ep, eq, gdot) for eq in basis] for ep in basis])
    bound = np.linalg.norm(tiles, 2) / 2.0
    _assert_relative(p_bound(frame, gdot), bound, bound)


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
    x_full[frame.slots[e3][0]] = 1.0
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


PAIR_SET_FRAMES = ORACLE_FRAMES + [("E", 6, ())]


@pytest.mark.parametrize("family,rank,painted", PAIR_SET_FRAMES,
                         ids=[f"{f}{r}{list(p)}" for f, r, p in PAIR_SET_FRAMES])
def test_pair_sets_list_each_decomposition_once(family, rank, painted):
    frame = frame_for(family, rank, painted)
    sys_ = frame.sys
    pair_sets = _pair_sets(frame)
    for delta in frame.m_pos:
        want = {frozenset((alpha, delta - alpha)) for alpha in sys_.positives
                if sys_.is_positive(delta - alpha)}
        got = pair_sets.get(delta, ())
        assert len(got) == len(want), delta
        assert {frozenset(p) for p in got} == want, delta
        assert all(alpha < beta for alpha, beta in got)
    assert set(pair_sets) <= set(frame.m_pos)


def test_curvature_quadratic_nonnegative(borel_frame, rng):
    frame = borel_frame
    x = frame.random_m(rng, 200)
    y = frame.random_m(rng, 200)
    assert np.all(curvature_quadratic(frame, x, y) >= 0.0)
