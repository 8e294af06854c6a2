"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported search parameters.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from flagmorse import compact_geom
from flagmorse.chevalley import ComplexElement, bracket_c, build_chevalley
from flagmorse.compact_geom import (
    complex_hessian_many,
    frame_for,
    hat_transport,
    holomorphic_kernel_classification,
    identity_suite,
    k_search,
    map_I,
    r_operator,
    s0_embedding,
    validate_frame,
)
from flagmorse.errors import HypothesisViolated
from flagmorse.index_comb import (
    GammaSet,
    b_case_sets,
    c_case_starred_sets,
    condition1,
    condition2,
    index_lower_bound,
    st_sets,
    superminimal,
)
from flagmorse.compact_geom import adjoint_perturb
from flagmorse.parabolic import PaintedDiagram, borel_split, split
from flagmorse.rootsys import (
    RootVector,
    build_root_system,
    is_long,
    long_roots,
    w_set,
)

from conftest import (ALL_SYSTEMS, END_NODE_FRAMES, PARTIAL_TWOMEL_CONTROLS,
                      doubled_upper_plan_m, fresh_frame, negated_cartan_metric, reversed_on_theta,
                      twomel_control, with_pair_table, without_sign, wrong_curvature_weights)


def _report(number, text):
    print(f"PASS criterion {number}: {text}")


def _paintings(rank, rng, target=100):
    if 2 ** rank <= target:
        yield from (tuple(s) for size in range(rank + 1)
                    for s in itertools.combinations(range(rank), size))
        return
    seen = set()
    while len(seen) < target:
        mask = rng.integers(0, 2, rank)
        seen.add(tuple(int(i) for i in np.nonzero(mask)[0]))
    yield from sorted(seen)


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_ell_values():
    start = time.time()
    expected = {("A", r): r for r in range(1, 9)}
    expected.update({("D", r): 2 * r - 3 for r in range(4, 9)})
    expected.update({("E", 6): 11, ("E", 7): 17, ("E", 8): 29})
    for (family, rank), want in sorted(expected.items()):
        sp = borel_split(build_root_system(family, rank))
        for delta in sp.delta_m_pos:
            if not is_long(sp.sys, delta):
                continue
            sets = st_sets(sp, GammaSet.singleton(delta), delta)
            assert sets.ell == want, (family, rank, delta, sets.ell, want)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(1, f"half|S|+|T| equals r / 2r-3 / 11,17,29 for every long root "
               f"(A1-8, D4-8, E6-8 exhaustive; {elapsed:.1f}s)")


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_w_counts():
    for r in range(1, 9):
        sys_ = build_root_system("A", r)
        for delta in long_roots(sys_):
            assert len(w_set(sys_, delta)) == 2 * r - 2
    for r in range(4, 9):
        sys_ = build_root_system("D", r)
        for delta in long_roots(sys_):
            assert len(w_set(sys_, delta)) == 4 * r - 8
    sys_ = build_root_system("E", 8)
    for delta in sys_.roots:
        assert len(w_set(sys_, delta)) == 56
    _report(2, "|W| = 2r-2 (A), 4r-8 (D), 56 (E8), exhaustive over long roots")


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_chevalley_identities():
    for family, rank in ALL_SYSTEMS:
        data = build_chevalley(build_root_system(family, rank))
        for a, b in data.all_pairs():
            d = a + b
            c = data.constant(a, b)
            assert c == -data.constant(b, a), (family, rank, a, b)
            assert c == -data.constant(-a, -b), (family, rank, a, b)
            assert c == data.constant(b, -d), (family, rank, a, b)
            assert c == data.constant(-d, a), (family, rank, a, b)
    _report(3, "antisymmetry, negation and cyclic identities hold for 100% of "
               "constants in all 29 systems of rank <= 8")


def test_criterion_3_jacobi_exact():
    small = [(f, r) for f, r in ALL_SYSTEMS if r <= 4]
    for family, rank in small:
        sys_ = build_root_system(family, rank)
        data = build_chevalley(sys_)
        basis = [ComplexElement.root_vector(sys_, r) for r in sys_.roots]
        basis += [ComplexElement.cartan(sys_, s.unscaled()) for s in sys_.simples]
        # the Jacobi expression is alternating, so unordered triples with
        # repetition cover all ordered triples
        for x, y, z in itertools.combinations_with_replacement(basis, 3):
            total = (
                bracket_c(data, x, bracket_c(data, y, z))
                + bracket_c(data, y, bracket_c(data, z, x))
                + bracket_c(data, z, bracket_c(data, x, y))
            )
            assert total.is_zero(), (family, rank)
    _report(3, "Jacobi residual exactly zero on exhaustive basis triples, "
               "all systems of rank <= 4 (exact arithmetic)")


def _integer_chevalley(family, rank):
    """The classical Chevalley basis as int64 arrays over root ids: the root
    vectors e_a and the simple coroots h_i, with [e_a, e_b] = N[a, b] e_{a+b},
    [e_a, e_-a] = h_a = sum_i cor[a, i] h_i and [h_i, e_b] = K[b, i] e_b."""
    sys_ = build_root_system(family, rank)
    data = build_chevalley(sys_)
    roots, ids = sys_.roots, sys_.ids
    n = len(roots)
    table = np.zeros((n, n + 1), dtype=np.int64)  # column n: "no root sum"
    for a, b in data.all_pairs():
        table[ids[a], ids[b]] = int(data.classical_constant(a, b))
    coords = np.array([r.coords for r in roots], dtype=np.int64)
    gram = coords @ coords.T  # the form up to a positive scale, which cancels
    sq = np.diag(gram)
    assert np.all(2 * gram % sq == 0)
    cartan = 2 * gram // sq  # cartan[x, y] = <x, y^vee>
    simple = [ids[s] for s in sys_.simples]
    # coroot of a over the simple coroots: n_i |s_i|^2 / |a|^2
    exp = sys_.expansion_rows.astype(np.int64)
    assert np.all(exp * sq[simple] % sq[:, None] == 0)
    cor = exp * sq[simple] // sq[:, None]
    sums = sys_.sums.astype(np.int64)
    return {"N": table, "S": np.where(sums >= 0, sums, n), "zero": sums == -2,
            "K": cartan, "Ks": cartan[:, simple], "cor": cor, "neg": sys_.neg}


def _jacobi_violations(t):
    """Basis triples whose Jacobi sum is not zero, counted per target entry.

    Jacobi is trilinear and alternating, so checking every ordered triple of
    basis elements proves it on the whole algebra.
    """
    N, S, zero, K, Ks, cor, neg = (t[k] for k in ("N", "S", "zero", "K", "Ks", "cor", "neg"))
    n = len(neg)
    bad = 0
    for a in range(n):
        # (e_a, e_b, e_c): every nonzero term is a multiple of e_{a+b+c}, and
        # a pair summing to zero brackets to a coroot: [e_z, h_x] = -K[z, x] e_z
        t1 = N[:, :n] * N[a, S] - zero * K[a][:, None]           # [e_a, [e_b, e_c]]
        t2 = N[:, S[:, a]] * N[:, a][None, :]                      # [e_b, [e_c, e_a]]
        t2[:, neg[a]] -= K[:, neg[a]]
        t3 = N[:, S[a, :n]].T * N[a, :n][:, None]                 # [e_c, [e_a, e_b]]
        t3[neg[a], :] -= K[:, a]
        bad += np.count_nonzero(t1 + t2 + t3)
        # a + b + c = 0: N(b,c) h_a + N(c,a) h_b + N(a,b) h_c on the coroots
        b = np.flatnonzero(S[a, :n] < n)
        c = neg[S[a, b]]
        cartan = N[b, c][:, None] * cor[a] + N[c, a][:, None] * cor[b] + N[a, b][:, None] * cor[c]
        bad += np.count_nonzero(cartan)
    # (h_i, e_b, e_c): N(b,c) (<b+c, s_i^vee> - <b, s_i^vee> - <c, s_i^vee>) on
    # e_{b+c}, and (-<-b, s_i^vee> - <b, s_i^vee>) h_b for c = -b
    b, c = np.nonzero(S[:, :n] < n)
    bad += np.count_nonzero(N[b, c][:, None] * (Ks[S[b, c]] - Ks[b] - Ks[c]))
    bad += np.count_nonzero(Ks[neg] + Ks)
    # (h_i, h_j, e_c) and (h_i, h_j, h_k) vanish identically: the Cartan
    # block is abelian and acts diagonally on the root vectors
    return bad


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_criterion_3_jacobi_integer_basis(family, rank):
    # The classical table is integral (Chevalley), so this int64 check over
    # every basis triple is exact.  pair_action is the same table in the basis
    # E_a = sqrt(h(a)) e_a (test_pair_action_is_the_normalized_classical_table),
    # where [E_a, E_-a] is the metric dual of a, and Jacobi does not depend on
    # the basis.
    assert _jacobi_violations(_integer_chevalley(family, rank)) == 0
    _report(3, f"Jacobi exactly zero on every triple of the integer Chevalley "
               f"basis of {family}{rank}, Cartan elements and Cartan-valued targets included")


@pytest.mark.parametrize("family,rank", [("B", 4), ("C", 3), ("E", 6)])
def test_integer_jacobi_catches_one_flipped_constant(family, rank):
    t = _integer_chevalley(family, rank)
    i, j = np.argwhere(t["N"][:, :-1] != 0)[0]
    t["N"][i, j] = -t["N"][i, j]
    assert _jacobi_violations(t) > 0


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_pair_sum_dichotomy():
    for family, rank in ALL_SYSTEMS:
        sys_ = build_root_system(family, rank)
        for delta in long_roots(sys_):
            members = sorted(w_set(sys_, delta))
            for eta1 in members:
                for eta2 in members:
                    s = eta1 + eta2
                    if sys_.contains(s):
                        assert s == delta, (family, rank, delta, eta1, eta2)
                    else:
                        assert s != delta
    _report(4, "for long roots, sums of two decomposition members are roots "
               "exactly when they give the root back (all systems, exhaustive)")


# -- criterion 5 ---------------------------------------------------------------


def _conditions_hold(sp, gamma, delta):
    sets = st_sets(sp, gamma, delta)
    return (condition1(sp, gamma, delta, sets.t_set).ok
            and condition2(sp, gamma, delta, sets.s_set).ok)


def test_criterion_5_long_root_conditions():
    rng = np.random.default_rng(20240518)
    small = [(f, r) for f, r in ALL_SYSTEMS if r <= 4]
    large = [(f, r) for f, r in ALL_SYSTEMS if r >= 5]
    checked = 0
    for family, rank in small:
        sys_ = build_root_system(family, rank)
        for painted in _paintings(rank, rng, target=2 ** rank):
            sp = split(sys_, PaintedDiagram.of(sys_, painted))
            m_sorted = sorted(sp.delta_m_pos)
            for delta in m_sorted:
                if not is_long(sys_, delta):
                    continue
                assert _conditions_hold(sp, GammaSet.singleton(delta), delta)
                # the guarantee needs no constraint on the rest of the support
                extra = [r for r in m_sorted if r != delta]
                if extra:
                    picks = rng.choice(len(extra), size=min(3, len(extra)),
                                       replace=False)
                    gamma = GammaSet.of([delta] + [extra[i] for i in picks])
                    assert _conditions_hold(sp, gamma, delta)
                checked += 1
    for family, rank in large:
        sys_ = build_root_system(family, rank)
        for painted in _paintings(rank, rng, target=100):
            sp = split(sys_, PaintedDiagram.of(sys_, painted))
            for delta in sorted(sp.delta_m_pos):
                if not is_long(sys_, delta):
                    continue
                assert _conditions_hold(sp, GammaSet.singleton(delta), delta)
                checked += 1
    _report(5, f"both conditions hold for every long root ({checked} "
               "(painting, root) cases; rank <= 4 exhaustive, higher ranks "
               "sampled at >= 100 paintings or fully when fewer exist)")


# the first failing case of each condition, as (delta, *witness), and the
# failure counts of the negative control below
SHORT_DELTA_FAILURES = {
    ("B", "condition1"): ((0, 0, 1), (0, 1, 1), (1, 0, 0), (1, -1, 0)),
    ("B", "condition2"): ((1, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)),
    ("C", "condition1"): ((0, 1, -1), (0, 2, 0), (1, 1, 0), (1, 0, -1)),
    ("C", "condition2"): ((1, 0, 1), (0, 1, 1), (1, 0, -1), (1, 1, 0)),
}
SHORT_DELTA_COUNTS = {"B": {"cases": 300, "condition1": 41, "condition2": 24},
                      "C": {"cases": 600, "condition1": 223, "condition2": 101}}


def test_criterion_5_negative_control_short_delta():
    # the control the paper motivates: at a short delta in B and C the plain
    # S/T sets fail the conditions, which is why the criterion-10 case
    # analyses exist.  Drawn as the rank <= 4 half of criterion 5 draws, with
    # a fixed seed: each short tangent delta of the B3 and C3 Borel splits
    # with 1-3 other tangent roots, 100 times
    rng = np.random.default_rng(51)
    counts, first = {}, {}
    for family in ("B", "C"):
        sp = borel_split(build_root_system(family, 3))
        m = sp.m_pos_sorted
        counts[family] = {"cases": 0, "condition1": 0, "condition2": 0}
        for delta in m:
            if is_long(sp.sys, delta):
                continue
            others = [r for r in m if r != delta]
            for _ in range(100):
                picks = rng.choice(len(others), size=int(rng.integers(1, 4)), replace=False)
                gamma = GammaSet.of([delta, *(others[i] for i in picks)])
                sets = st_sets(sp, gamma, delta)
                counts[family]["cases"] += 1
                for name, result in (("condition1", condition1(sp, gamma, delta, sets.t_set)),
                                     ("condition2", condition2(sp, gamma, delta, sets.s_set))):
                    if result.ok:
                        continue
                    counts[family][name] += 1
                    first.setdefault((family, name), (delta, *result.witness))
                    # each witness is a violation, by vector arithmetic
                    if name == "condition1":
                        beta0, beta1, lam = result.witness
                        assert beta0 - beta1 == delta - lam and beta0 != beta1
                        assert {beta0, beta1} <= sets.t_set - {delta}
                    else:
                        alpha, beta, lam = result.witness
                        assert alpha + beta == lam and {alpha, beta} <= sets.s_set
                    assert lam in gamma.support and lam != delta
    for row in counts.values():
        assert row["condition1"] > 0 and row["condition2"] > 0, counts
    assert {key: tuple(tuple(Fraction(c, 2) for c in r.coords) for r in roots)
            for key, roots in first.items()} == SHORT_DELTA_FAILURES
    assert counts == SHORT_DELTA_COUNTS
    _report(5, f"negative control: at a short delta the plain sets fail both "
               f"conditions ({counts})")


# -- criterion 6 ---------------------------------------------------------------


ACCEPTANCE_FRAMES = (("A", 3), ("B", 3), ("C", 3), ("D", 4))


TWOMEL_CHECKS = ("double-bracket", "quarter-turn", "pair-bound")


def _basis_pairs(frame, name):
    """What an exhaustive check decides, by root arithmetic.  Ordered basis
    pairs: every pair, or for the conditioned checks y in the plane of one
    tangent-positive delta and x in the plane of a tangent-positive alpha
    with alpha - delta not a tangent-positive root.  Or for twomel pair
    blocks: every pair of positive roots summing to a tangent-positive delta,
    or for the quarter turn and the pair bound those of the deltas whose
    pair roots all lie in the tangent block."""
    m_pos = frame.split.delta_m_pos
    if name.startswith("conditioned-"):
        return 4 * sum(alpha - delta not in m_pos for delta in frame.m_pos for alpha in frame.m_pos)
    if name in TWOMEL_CHECKS:
        sys_ = frame.sys
        # each pair twice, as alpha and as delta - alpha
        spaces = [[alpha for alpha in sys_.positives if sys_.is_positive(delta - alpha)]
                  for delta in frame.m_pos]
        if name != "double-bracket":
            spaces = [roots for roots in spaces if all(alpha in m_pos for alpha in roots)]
        return sum(map(len, spaces)) // 2
    return frame.m_dim ** 2


EXHAUSTIVE_CHECKS = ("integrability-defect", "holomorphic-closure", "r-operator-form",
                     "isotropy-vanishing", "conditioned-commutation", "conditioned-skew",
                     *TWOMEL_CHECKS, "curvature-nonnegativity", "curvature-diagonal",
                     "hessian-chain")


def test_criterion_6_identity_suites():
    # the sampled check, isotropy-pairing, over >= 10^4 seeded trials; the
    # others are decided on every ordered basis pair, pair block or weight,
    # whatever the trial count
    start = time.time()
    for family, rank in ACCEPTANCE_FRAMES:
        frame = frame_for(family, rank)
        report = identity_suite(frame, "all", trials=10_000, seed=42)
        assert tuple(c.name for c in report.checks if c.exhaustive) == EXHAUSTIVE_CHECKS
        for check in report.checks:
            if check.exhaustive:
                assert check.trials == _basis_pairs(frame, check.name), check.name
            else:
                assert check.trials >= 10_000, check.name
            assert check.max_residual < 1e-10, (family, rank, check.name,
                                                check.max_residual)
    elapsed = time.time() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(6, f"all pointwise identity suites below 1e-10 on A3/B3/C3/D4: the sampled "
               f"check over >= 10^4 seeded trials, the exhaustive ones on every basis "
               f"pair, pair block or weight ({elapsed:.1f}s)")


def test_criterion_6_exhaustive_on_every_end_node_frame():
    # the twelve exhaustive checks on every END_NODE_FRAMES frame, E6-E8 and
    # the painted frames included; hessian-chain reads exactly 0.0
    start = time.time()
    worst = dict.fromkeys(EXHAUSTIVE_CHECKS, 0.0)
    for family, rank, painted in END_NODE_FRAMES:
        frame = frame_for(family, rank, painted)
        checks = [c for suite in ("integrability", "mel", "onemel", "twomel", "curvature",
                                  "ceh-chain")
                  for c in identity_suite(frame, suite, trials=1, seed=42).checks if c.exhaustive]
        assert tuple(c.name for c in checks) == EXHAUSTIVE_CHECKS
        for check in checks:
            assert check.trials == _basis_pairs(frame, check.name), check.name
            assert check.max_residual < 1e-10, (family, rank, painted, check.name,
                                                check.max_residual)
            worst[check.name] = max(worst[check.name], check.max_residual)
    assert len(END_NODE_FRAMES) == 111 and worst["hessian-chain"] == 0.0
    elapsed = time.time() - start
    _report(6, f"the {len(EXHAUSTIVE_CHECKS)} exhaustive checks on all "
               f"{len(END_NODE_FRAMES)} end-node frames, worst residual per check "
               + ", ".join(f"{name} {value:.3g}" for name, value in worst.items())
               + f" ({elapsed:.1f}s)")


def test_criterion_6_negative_control_reversed_j_on_theta(monkeypatch):
    # the control the paper motivates for integrability, mel and onemel: J
    # with its quarter turn reversed on the last tangent plane, that of the
    # highest root theta.  theta has an S pair on every Borel frame of rank
    # >= 2, so [E_-theta, E_alpha] lands in a (0,1) direction under the
    # reversed J and the checks must exceed tolerance; the conditioned ones
    # see J pass through [y, x] with the wrong sign for y on theta's plane.
    # The reversed J is still a complex structure and an isometry, so the
    # frame invariants cannot see it.  Fresh frames, so no cached frame meets
    # the wrong J.
    monkeypatch.setattr(compact_geom, "_apply_j", reversed_on_theta(compact_geom._apply_j))
    worst = {}
    for family, rank in ACCEPTANCE_FRAMES:
        frame = fresh_frame(family, rank)
        for suite, name in (("integrability", "integrability-defect"),
                            ("mel", "holomorphic-closure"), ("mel", "r-operator-form"),
                            ("onemel", "conditioned-commutation"),
                            ("onemel", "conditioned-skew")):
            check = {c.name: c for c in identity_suite(frame, suite, trials=200,
                                                       seed=42).checks}[name]
            assert check.max_residual > 1e-10, (family, rank, name, check.max_residual)
            worst[family, rank, name] = check.max_residual
        invariants = validate_frame(frame)
        assert invariants["j_squared"] == invariants["hermitian"] == 0.0, invariants
    _report(6, f"negative control: J reversed on the plane of theta fails integrability, "
               f"holomorphic closure, the r-operator form and both conditioned checks "
               f"(least residual {min(worst.values()):.3g}); j_squared and hermitian read 0.0")


def test_criterion_6_negative_control_reversed_j_reaches_the_isotropy_block(monkeypatch):
    # the isotropy half of mel: under J reversed on theta's plane the (1,0)
    # fields hold E_-theta, and [E_-theta, E_alpha] has an isotropy part only
    # for alpha = theta - kappa with kappa a painted positive root.  A painted
    # node 1 of A3 and node 2 of D4 give one, and both checks must fail.
    monkeypatch.setattr(compact_geom, "_apply_j", reversed_on_theta(compact_geom._apply_j))
    worst = {}
    for family, rank, painted in (("A", 3, (0,)), ("D", 4, (1,))):
        frame = fresh_frame(family, rank, painted)
        checks = {c.name: c for c in identity_suite(frame, "mel", trials=200, seed=42).checks}
        for name in ("isotropy-vanishing", "isotropy-pairing"):
            assert checks[name].max_residual > 1e-10, (family, rank, name, checks[name])
            worst[family, rank, name] = checks[name].max_residual
    _report(6, f"negative control: J reversed on the plane of theta fails isotropy "
               f"vanishing and pairing on A3 and D4 with node 1 and node 2 painted "
               f"(least residual {min(worst.values()):.3g})")


def test_criterion_6_negative_control_widened_kernel_mask(monkeypatch):
    # the conditioned checks with the kernel mask keeping every plane: x may
    # then sit on a plane that [y, .] moves into holomorphic directions
    monkeypatch.setattr(compact_geom, "_kernel_mask",
                        lambda frame: np.ones((frame.v, frame.m_dim), dtype=bool))
    worst = {}
    for family, rank in ACCEPTANCE_FRAMES:
        frame = fresh_frame(family, rank)
        for check in identity_suite(frame, "onemel", trials=200, seed=42).checks:
            assert check.max_residual > 1e-10, (family, rank, check.name, check.max_residual)
            worst[family, rank, check.name] = check.max_residual
    _report(6, f"negative control: the kernel mask widened to every plane fails both "
               f"conditioned checks (least residual {min(worst.values()):.3g})")


def _fails_on_acceptance_frames(name, suite, frame_of):
    """The least residual of check ``name`` on fresh A3/B3/C3/D4 Borel frames
    passed through ``frame_of``, each of which must fail it."""
    worst = {}
    for family, rank in ACCEPTANCE_FRAMES:
        frame = frame_of(fresh_frame(family, rank))
        check = {c.name: c for c in identity_suite(frame, suite, trials=200, seed=42).checks}[name]
        assert check.max_residual > check.tolerance, (family, rank, name, check.max_residual)
        worst[family, rank] = check.max_residual
    return min(worst.values())


def test_criterion_6_negative_control_negated_cartan_metric():
    # the isotropy weight of the sum of squares, the Cartan block of the
    # metric on a Borel frame, negated: the curvature quadratic is then
    # negative on fields whose bracket has a Cartan part
    least = _fails_on_acceptance_frames("curvature-nonnegativity", "curvature",
                                        negated_cartan_metric)
    _report(6, f"negative control: the Cartan block of the metric negated fails "
               f"curvature nonnegativity (least residual {least:.3g})")


def test_criterion_6_negative_control_doubled_upper_plan():
    # the tangent brackets with every plan_m entry with i < j doubled: [x, x]
    # no longer vanishes
    least = _fails_on_acceptance_frames("curvature-diagonal", "curvature", doubled_upper_plan_m)
    _report(6, f"negative control: the plan_m entries with i < j doubled fail "
               f"curvature-diagonal (least residual {least:.3g})")


def test_criterion_6_negative_control_j_squared_plus_one(monkeypatch):
    # J as a symmetric swap of each plane, J^2 = +I: still an isometry, but
    # the chain's J-terms no longer reduce
    monkeypatch.setattr(compact_geom, "_apply_j", without_sign(compact_geom._apply_j))
    least = _fails_on_acceptance_frames("hessian-chain", "ceh-chain", lambda frame: frame)
    _report(6, f"negative control: J without its sign (J^2 = +I) fails hessian-chain "
               f"(least residual {least:.3g})")


def test_criterion_6_negative_control_negated_isotropy_weight(monkeypatch):
    # the isotropy weight of the curvature sum of squares negated: the chain's
    # isotropy terms no longer cancel those of the curvature quadratic
    monkeypatch.setattr(compact_geom, "_curvature_weights", wrong_curvature_weights(
        compact_geom._curvature_weights, "negated isotropy weight"))
    least = _fails_on_acceptance_frames("hessian-chain", "ceh-chain", lambda frame: frame)
    _report(6, f"negative control: the isotropy curvature weight negated fails "
               f"hessian-chain (least residual {least:.3g})")


def test_criterion_6_negative_control_doubled_tangent_weight(monkeypatch):
    # the tangent weight of the curvature sum of squares doubled, 1 in place of
    # mu/4 = 1/2: the chain's tangent bracket terms no longer cancel
    monkeypatch.setattr(compact_geom, "_curvature_weights", wrong_curvature_weights(
        compact_geom._curvature_weights, "doubled tangent weight"))
    least = _fails_on_acceptance_frames("hessian-chain", "ceh-chain", lambda frame: frame)
    _report(6, f"negative control: the tangent curvature weight doubled fails "
               f"hessian-chain (least residual {least:.3g})")


def test_criterion_6_negative_control_twomel_wrong_inputs():
    # one wrong pair table per twomel check on C3 and C4, where some |c| is
    # 1/sqrt 2: the constants doubled, the quarter turn without its 1/|c|
    # scale, and the quarter turn negated
    worst = {}
    for family, rank in (("C", 3), ("C", 4)):
        frame = frame_for(family, rank)
        for name in TWOMEL_CHECKS:
            report = identity_suite(twomel_control(frame, name), "twomel", trials=200, seed=42)
            check = {c.name: c for c in report.checks}[name]
            assert check.trials > 0 and check.max_residual > check.tolerance, (family, rank, check)
            worst[family, rank, name] = check.max_residual
    _report(6, f"negative control: one wrong pair table per twomel check fails it on C3 "
               f"and C4 (least residual {min(worst.values()):.3g})")


def test_criterion_6_negative_control_twomel_partial_defects():
    # defects that only part of a twomel form can see, on fresh C3 and C4
    # Borel frames: the twist's Y block read as its X block, seen only at
    # (a, b) = (1, 1), must fail double-bracket and quarter-turn; each pair's
    # X_alpha brackets onto delta dropped, which leaves every pair form
    # indefinite, must fail pair-bound
    worst = {}
    for family, rank in (("C", 3), ("C", 4)):
        frame = fresh_frame(family, rank)
        for control, names in (("Y block read as X", ("double-bracket", "quarter-turn")),
                               ("X_alpha brackets dropped", ("pair-bound",))):
            wrong = with_pair_table(frame, **PARTIAL_TWOMEL_CONTROLS[control](frame.pair_table))
            checks = {c.name: c for c in identity_suite(wrong, "twomel", trials=200,
                                                        seed=42).checks}
            for name in names:
                check = checks[name]
                assert check.trials > 0 and check.max_residual > check.tolerance, (
                    family, rank, control, check)
                worst[family, rank, name] = check.max_residual
    _report(6, f"negative control: the twist's Y block read as its X block fails "
               f"double-bracket and quarter-turn, and each pair's X_alpha brackets onto "
               f"delta dropped fail pair-bound, on C3 and C4 "
               f"(least residual {min(worst.values()):.3g})")


# -- criterion 7 ---------------------------------------------------------------


def _long_tangent_roots(frame):
    """Long tangent-positive roots, highest first (by height, then coordinates)."""
    sys_ = frame.sys
    return sorted((r for r in frame.m_pos if is_long(sys_, r)),
                  key=lambda r: (sys_.height(r), r.coords), reverse=True)


def _plane_gdot(frame, delta, a, b):
    gdot = np.zeros(frame.m_dim)
    ix, iy = frame.m_slot(delta)
    gdot[ix], gdot[iy] = a, b
    return gdot


def _check_transport_contract(frame, delta, gdot):
    r = r_operator(frame, gdot)
    rng = np.random.default_rng(77)
    sets = st_sets(borel_split(frame.sys), GammaSet.singleton(delta), delta)
    kernel_roots = sorted(sets.s_set)
    for _ in range(100):
        t = float(rng.uniform(0, 1))
        tau = hat_transport(frame, gdot, t)
        x = frame.random_m(rng)
        x /= np.sqrt(frame.m_norm2(x))
        assert abs(frame.m_inner(tau @ x, gdot) - frame.m_inner(x, gdot)) < 1e-10
        assert np.max(np.abs(tau @ frame.j_m - frame.j_m @ tau)) < 1e-10
        if kernel_roots:
            w = np.zeros(frame.m_dim)
            for alpha in kernel_roots:
                ix, iy = frame.m_slot(alpha)
                w[ix], w[iy] = rng.standard_normal(2)
            w /= np.sqrt(frame.m_norm2(w))
            assert np.max(np.abs(r @ w)) < 1e-12
            assert np.max(np.abs(tau @ w - w)) < 1e-10
    if r.any():
        # the group law of a one-parameter transport, which only a transport
        # that reads its time can keep where it moves
        for s, t in ((0.3, 0.45), (0.5, 0.5), (0.2, 0.8)):
            product = hat_transport(frame, gdot, s) @ hat_transport(frame, gdot, t)
            assert np.max(np.abs(product - hat_transport(frame, gdot, s + t))) < 1e-10
    return r.any()


def test_criterion_7_transport_contract():
    # every long tangent root: r vanishes at the highest one, so only the
    # lower ones move the transport
    roots = 0
    for family, rank in ACCEPTANCE_FRAMES:
        frame = frame_for(family, rank)
        moving = [_check_transport_contract(frame, delta, _plane_gdot(frame, delta, 1.1, -0.7))
                  for delta in _long_tangent_roots(frame)]
        assert any(moving), f"{family}{rank}: r_operator vanishes at every long root"
        roots += len(moving)
    assert roots == 27
    _report(7, "transport preserves velocity pairing, commutes with the "
               "complex structure, fixes annihilated planes, and keeps the group "
               "law where it moves "
               f"(100 configurations per long root, {roots} roots, < 1e-10)")


# -- criterion 8 ---------------------------------------------------------------


def _check_hessian_dichotomy(frame, delta):
    a, b = Fraction(11, 10), Fraction(-7, 10)
    gdot = _plane_gdot(frame, delta, float(a), float(b))
    gamma_exact = {delta: (a, b)}
    kernel_set = [alpha for alpha in frame.m_pos
                  if alpha != delta
                  and (alpha - delta) not in frame.split.delta_m_pos
                  and (not frame.sys.contains(alpha - delta)
                       or frame.sys.is_positive(delta - alpha))
                  and not frame.split.in_k(delta - alpha)]
    rng = np.random.default_rng(88)
    samples = []
    classes = []
    for trial in range(500):
        if trial % 2 == 0 and kernel_set:
            support = [alpha for alpha in kernel_set if rng.uniform() < 0.5]
            support = support or [kernel_set[0]]
        else:
            support = [alpha for alpha in frame.m_pos if rng.uniform() < 0.3]
            support = support or [frame.m_pos[0]]
        field_exact = {}
        x0 = np.zeros(frame.m_dim)
        for alpha in support:
            ca = Fraction(int(rng.integers(-8, 9)), 4)
            cb = Fraction(int(rng.integers(-8, 9)), 4)
            if ca == 0 and cb == 0:
                ca = Fraction(1)
            field_exact[alpha] = (ca, cb)
            jx, jy = frame.m_slot(alpha)
            x0[jx], x0[jy] = float(ca), float(cb)
        x0 /= np.sqrt(frame.m_norm2(x0))
        samples.append(x0)
        classes.append(
            holomorphic_kernel_classification(frame, gamma_exact, field_exact)
        )
    values = complex_hessian_many(frame, gdot, np.array(samples))
    n_deg = sum(classes)
    assert n_deg > 50 and 500 - n_deg > 50, "both classes must be sampled"
    for degenerate, value in zip(classes, values):
        if degenerate:
            assert abs(value) < 1e-8
        else:
            assert value < -1e-8
    return bool(r_operator(frame, gdot).any())


def test_criterion_8_hessian_dichotomy():
    roots = 0
    for family, rank in ACCEPTANCE_FRAMES:
        frame = frame_for(family, rank)
        moving = [_check_hessian_dichotomy(frame, delta) for delta in _long_tangent_roots(frame)]
        assert any(moving), f"{family}{rank}: r_operator vanishes at every long root"
        roots += len(moving)
    assert roots == 27
    _report(8, "bracket classification agrees with the numeric sign on 500 "
               f"samples per long root, {roots} roots (degenerate within 1e-8, "
               "rest below -1e-8)")


# -- criterion 9 ---------------------------------------------------------------


K_SEARCH_FRAMES = (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4))


def _check_twisted_form(frame, delta, gdot):
    sets = st_sets(borel_split(frame.sys), GammaSet.singleton(delta), delta)
    pairs = {frozenset((alpha, delta - alpha)) for alpha in sets.s_set}
    i_mat = map_I(frame, delta, 0.9, -0.5, pairs) if pairs else None
    emb = s0_embedding(frame, pairs) - frame.m_start if pairs else None
    rng = np.random.default_rng(99)
    configs = []
    for trial in range(100):
        x0 = np.zeros(frame.m_dim)
        y0 = np.zeros(frame.m_dim)
        w0 = np.zeros(frame.m_dim)
        iw0 = np.zeros(frame.m_dim)
        style = trial % 3
        if style in (0, 2):
            for beta in sets.t_set:
                ix, iy = frame.m_slot(beta)
                x0[ix], x0[iy] = rng.standard_normal(2)
                y0[ix], y0[iy] = rng.standard_normal(2)
        if style in (1, 2) and pairs:
            w0[emb] = rng.standard_normal(len(emb))
            iw0[emb] = i_mat @ w0[emb]
        if not np.any(x0 + w0) and not np.any(y0 + iw0):
            ix, iy = frame.m_slot(delta)
            x0[ix] = 1.0
        configs.append((x0 + w0, y0 + iw0))
    result = k_search(frame, gdot, configs)
    assert result.k > 0
    assert max(result.q_values) < 0
    return result


def test_criterion_9_twisted_form_negative():
    # every long tangent root, as criteria 7 and 8; the highest comes first
    # and keeps its old inputs
    lines = []
    roots = 0
    for family, rank in K_SEARCH_FRAMES:
        frame = frame_for(family, rank)
        moving = []
        for delta in _long_tangent_roots(frame):
            gdot = _plane_gdot(frame, delta, 0.9, -0.5)
            result = _check_twisted_form(frame, delta, gdot)
            moving.append(r_operator(frame, gdot).any())
            if len(moving) == 1:
                lines.append(f"{family}{rank}: k={result.k:g} margin={result.margin:.3e}")
        assert any(moving), f"{family}{rank}: r_operator vanishes at every long root"
        roots += len(moving)
    assert roots == 32
    _report(9, "twisting rate found with the averaged form negative on 100 "
               f"configurations per long root, {roots} roots; at the highest: "
               + "; ".join(lines))


# -- criterion 10 ----------------------------------------------------------------


def _short_b_roots(sp):
    sys_ = sp.sys
    out = []
    for i in range(sys_.rank):
        coords = [0] * sys_.rank
        coords[i] = 2
        root = RootVector(tuple(coords))
        if root in sp.delta_m_pos:
            out.append((i, root))
    return out


def test_criterion_10_b_family_cases():
    tested = violated = 0
    for rank in (2, 3):
        sys_ = build_root_system("B", rank)
        for size in range(rank + 1):
            for painted in itertools.combinations(range(rank), size):
                sp = split(sys_, PaintedDiagram.of(sys_, painted))
                for i, delta in _short_b_roots(sp):
                    gammas = [GammaSet.singleton(delta)]
                    # add one sum-shaped companion consistent with the case
                    for a in range(i):
                        extra = [0] * rank
                        extra[a] = 2
                        extra[i] = 2
                        companion = RootVector(tuple(extra))
                        if companion in sp.delta_m_pos:
                            gammas.append(GammaSet.of([delta, companion]))
                    for gamma in gammas:
                        tested += 1
                        try:
                            sets = b_case_sets(sp, gamma, delta)
                        except HypothesisViolated:
                            violated += 1
                            frame = frame_for("B", rank, painted)
                            offender = next(
                                RootVector(tuple(2 if j == kk else 0
                                                 for j in range(rank)))
                                for kk in range(i + 1, rank)
                                if sp.in_k(RootVector(tuple(2 if j == kk else 0
                                                            for j in range(rank))))
                            )
                            v = np.zeros(frame.m_dim)
                            ix, iy = frame.m_slot(delta)
                            v[ix] = 1.0
                            _, support = adjoint_perturb(frame, v, offender)
                            assert any(is_long(sys_, r) for r in support)
                            new_gamma = GammaSet.of(support)
                            new_delta = superminimal(sp, new_gamma)
                            assert is_long(sys_, new_delta)
                            continue
                        # conditions verified inside; confirm once more here
                        assert condition1(sp, gamma, delta, sets.t_set).ok
                        assert condition2(sp, gamma, delta, sets.s_set).ok
    assert violated > 0, "no perturbation path exercised"
    _report(10, f"B family short-root cases: {tested} configurations over all "
                f"paintings of B2/B3; {violated} hypothesis violations all "
                "recovered a long support root by perturbation")


def test_criterion_10_c_family_cases():
    sys_ = build_root_system("C", 3)
    tested = 0
    for size in range(4):
        for painted in itertools.combinations(range(3), size):
            sp = split(sys_, PaintedDiagram.of(sys_, painted))
            for i, j in itertools.combinations(range(3), 2):
                for kind in ("minus", "plus"):
                    coords = [0, 0, 0]
                    coords[i] = 2
                    coords[j] = -2 if kind == "minus" else 2
                    delta = RootVector(tuple(coords))
                    if delta not in sp.delta_m_pos:
                        continue
                    gammas = [GammaSet.singleton(delta)]
                    if kind == "plus":
                        # companions must avoid the difference shape
                        for l in range(3):
                            cc = [0, 0, 0]
                            cc[l] = 4
                            companion = RootVector(tuple(cc))
                            if companion in sp.delta_m_pos and companion != delta:
                                gammas.append(GammaSet.of([delta, companion]))
                    for gamma in gammas:
                        sets = c_case_starred_sets(sp, gamma, delta)
                        assert condition1(sp, gamma, delta, sets.t_set).ok
                        assert condition2(sp, gamma, delta, sets.s_set).ok
                        assert delta in sets.t_set
                        tested += 1
    assert tested >= 20
    _report(10, f"C family starred sets: conditions verified on {tested} "
                "short-root configurations over all paintings of C3")


# -- closing arithmetic criterion -------------------------------------------------


HAND_CASES = [
    # (m, n, v, ell) -> expected m + n - (v - ell) - v + 1, worked by hand
    ((2, 2, 3, 3), 2),
    ((0, 0, 1, 1), 0),
    ((1, 1, 1, 1), 2),
    ((2, 3, 6, 3), -3),
    ((5, 5, 6, 6), 5),
    ((4, 2, 7, 5), -2),
    ((10, 10, 12, 9), 6),
    ((0, 0, 3, 3), -2),
    ((7, 6, 10, 5), -1),
    ((3, 3, 3, 3), 4),
    ((8, 9, 11, 11), 7),
    ((2, 2, 4, 2), -1),
    ((6, 4, 9, 7), 0),
    ((12, 11, 15, 9), 3),
    ((1, 0, 2, 1), -1),
    ((9, 9, 10, 10), 9),
    ((4, 4, 5, 4), 3),
    ((3, 2, 6, 5), -1),
    ((20, 18, 28, 29), 12),
    ((5, 0, 6, 3), -3),
]


def test_index_bound_hand_cases():
    for (m, n, v, ell), expected in HAND_CASES:
        assert index_lower_bound(m, n, v, ell) == expected
    _report("arith", "index bound matches hand computation on 20 fixed cases")
