"""Every public function that takes a root resolves it through
``RootSystem.id_of``: a vector that is not a root raises ``NotARoot``, one of
another ambient dimension raises ``DimensionMismatch``, and the three
predicates say False for both.  Exact elements of two systems never mix.
Every public function that takes a velocity or a field raises
``DimensionMismatch`` for one that is not a vector (or, for a batch, rows) of
the frame's tangent coordinates, naming the argument."""

import re

import numpy as np
import pytest

from flagmorse import cli
from flagmorse.chevalley import (
    ComplexElement,
    bracket_c,
    build_chevalley,
    coroot,
    n0_constant,
    pairing,
)
from flagmorse.compact_geom import (
    adjoint_perturb,
    bracket_k,
    bracket_m,
    complex_hessian,
    complex_hessian_many,
    curvature_quadratic,
    frame_for,
    hat_transport,
    holomorphic_kernel_classification,
    k_search,
    map_I,
    p_bound,
    p_pairing,
    q_form,
    r_operator,
    tilde_vector,
)
from flagmorse.errors import (
    DimensionMismatch,
    FlagmorseError,
    NoTangentBlock,
    NotARoot,
    NotInK,
)
from flagmorse.index_comb import GammaSet, condition1, condition2, st_sets
from flagmorse.parabolic import PaintedDiagram, borel_split, split
from flagmorse.rootsys import (
    RootVector,
    add,
    build_root_system,
    is_long,
    precedes,
    reflect,
    w_pair_count,
    w_set,
)

A3 = build_root_system("A", 3)
ALPHA = A3.simples[0]  # (2, -2, 0, 0)
NOT_A_ROOT = RootVector((2, 2, 0, 0))
OTHER_DIM = RootVector((2, -2, 0))


def _chev():
    return build_chevalley(A3)


def _frame():
    return frame_for("A", 3)


def _condition(condition, delta):
    """A condition on a two-root support with the S/T sets of its top root,
    asked about ``delta``."""
    sp = borel_split(A3)
    gamma = GammaSet.of(sp.m_pos_sorted[-2:])
    sets = st_sets(sp, gamma, sp.m_pos_sorted[-1])
    return condition(sp, gamma, delta, sets.t_set if condition is condition1 else sets.s_set)


# each call puts its argument in one root position and valid roots elsewhere
TAKES_A_ROOT = {
    "RootSystem.height": lambda r: A3.height(r),
    "add": lambda r: add(A3, r, ALPHA),
    "add (second)": lambda r: add(A3, ALPHA, r),
    "precedes": lambda r: precedes(A3, r, ALPHA),
    "precedes (second)": lambda r: precedes(A3, ALPHA, r),
    "w_set": lambda r: w_set(A3, r),
    "w_pair_count": lambda r: w_pair_count(A3, r),
    "reflect": lambda r: reflect(A3, r, ALPHA),
    "reflect (through)": lambda r: reflect(A3, ALPHA, r),
    "is_long": lambda r: is_long(A3, r),
    "ChevalleyData.constant": lambda r: _chev().constant(r, ALPHA),
    "ChevalleyData.constant (second)": lambda r: _chev().constant(ALPHA, r),
    "ChevalleyData.classical_constant": lambda r: _chev().classical_constant(r, ALPHA),
    "coroot": lambda r: coroot(_chev(), r),
    "n0_constant": lambda r: n0_constant(_chev(), [(r, ALPHA)]),
    "ComplexElement.root_vector": lambda r: ComplexElement.root_vector(A3, r),
    "RealFormFrame.slot": lambda r: _frame().slot(r),
    "RealFormFrame.m_slot": lambda r: _frame().m_slot(r),
    "tilde_vector": lambda r: tilde_vector(_frame(), r, 1.0, 0.0),
    "map_I (delta)": lambda r: map_I(_frame(), r, 1.0, 0.0, []),
    "map_I (pair)": lambda r: map_I(_frame(), ALPHA, 1.0, 0.0, [(r, ALPHA)]),
    "adjoint_perturb": lambda r: adjoint_perturb(_frame(), np.zeros(_frame().m_dim), r),
    "condition1 (delta)": lambda r: _condition(condition1, r),
    "condition2 (delta)": lambda r: _condition(condition2, r),
    "kernel classifier (velocity)":
        lambda r: holomorphic_kernel_classification(_frame(), {r: (1, 0)}, {ALPHA: (1, 0)}),
    "kernel classifier (field)":
        lambda r: holomorphic_kernel_classification(_frame(), {ALPHA: (1, 0)}, {r: (1, 0)}),
}


@pytest.mark.parametrize("name", sorted(TAKES_A_ROOT))
def test_a_root_argument_resolves_through_id_of(name):
    call = TAKES_A_ROOT[name]
    with pytest.raises(NotARoot, match=re.escape("(2, 2, 0, 0) is not a root of A3")):
        call(NOT_A_ROOT)
    with pytest.raises(DimensionMismatch):
        call(OTHER_DIM)


def test_a_pair_whose_sum_is_not_a_root():
    a1, _, a3 = A3.simples
    assert add(A3, a1, a3) is None
    for call in (_chev().constant, _chev().classical_constant,
                 lambda a, b: n0_constant(_chev(), [(a, b)])):
        with pytest.raises(NotARoot, match="is not a root"):
            call(a1, a3)


@pytest.mark.parametrize("vector", [NOT_A_ROOT, OTHER_DIM], ids=["not-a-root", "other-dim"])
def test_predicates_say_false(vector):
    painted = split(A3, PaintedDiagram.of(A3, (0,)))
    for sp in (borel_split(A3), painted):
        assert not sp.in_k(vector)
    assert not A3.contains(vector)
    assert not A3.is_positive(vector)
    # and True where they should
    assert A3.contains(ALPHA) and A3.is_positive(ALPHA) and painted.in_k(ALPHA)


def test_elements_of_two_systems_do_not_mix():
    # E6 and E8 share their ambient dimension, 8, but not their roots
    e6, e8 = build_root_system("E", 6), build_root_system("E", 8)
    assert e6.ambient_dim == e8.ambient_dim
    only_e8 = next(r for r in e8.roots if not e6.contains(r))
    with pytest.raises(NotARoot, match="is not a root of E6"):
        ComplexElement.root_vector(e6, only_e8)
    shared = e6.simples[0]
    x6 = ComplexElement.root_vector(e6, shared)
    y6 = ComplexElement.root_vector(e6, -shared)
    x8 = ComplexElement.root_vector(e8, -shared)
    for left, right in ((x6, x8), (x8, x6)):
        with pytest.raises(DimensionMismatch):
            left + right
    for data in (build_chevalley(e6), build_chevalley(e8)):
        for left, right in ((x6, x8), (x8, x6)):
            with pytest.raises(DimensionMismatch):
                bracket_c(data, left, right)
            with pytest.raises(DimensionMismatch):
                pairing(data, left, right)
    # within one system the same calls work
    data6 = build_chevalley(e6)
    assert pairing(data6, x6, y6) == 1
    assert not bracket_c(data6, x6, y6).is_zero()
    assert (x6 + y6 - y6) == x6


def test_adjoint_perturb_takes_positive_painted_roots_only():
    frame = frame_for("B", 3, (2,))
    e3 = RootVector((0, 0, 2))
    rng = np.random.default_rng(0)
    v = frame.random_m(rng)
    new, support = adjoint_perturb(frame, v, e3)
    # the whole-array support against one plane at a time
    cutoff = 1e-9 * np.sqrt(frame.m_norm2(v))
    assert support == {alpha for alpha in frame.m_pos
                       if np.hypot(*new[list(frame.m_slot(alpha))]) > cutoff}
    # a negative painted root, and tangent roots of either sign
    tangent = frame.m_pos[0]
    for root in (-e3, tangent, -tangent):
        with pytest.raises(NotInK):
            adjoint_perturb(frame, v, root)


def test_a_frame_needs_a_tangent_block(capsys):
    with pytest.raises(NoTangentBlock, match="every node is painted") as info:
        frame_for("B", 2, (0, 1))
    assert isinstance(info.value, FlagmorseError) and isinstance(info.value, ValueError)
    # the CLI reports it as an input error, exit 2
    for argv in (["check", "--family", "B", "--rank", "2", "--painted", "1,2"],
                 ["hessian", "--family", "B", "--rank", "2", "--painted", "1,2",
                  "--gamma", "1,0:1,0", "--field", "0,1:1,0"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == ("error: NoTangentBlock: every node is painted; "
                                           "the frame has no tangent block\n")


# each call puts its argument in the velocity position; A3's tangent block has
# 12 coordinates
M_DIM = 12
ONES = np.ones(M_DIM)
TAKES_A_VELOCITY = {
    "r_operator": lambda g: r_operator(_frame(), g),
    "hat_transport": lambda g: hat_transport(_frame(), g, 0.5),
    "complex_hessian": lambda g: complex_hessian(_frame(), g, ONES),
    "complex_hessian_many": lambda g: complex_hessian_many(_frame(), g, np.eye(M_DIM)),
    "p_pairing": lambda g: p_pairing(_frame(), ONES, ONES, g),
    "p_bound": lambda g: p_bound(_frame(), g),
    "q_form": lambda g: q_form(_frame(), g, ONES, ONES, 0.5),
    "k_search": lambda g: k_search(_frame(), g, [(ONES, ONES)]),
}


@pytest.mark.parametrize("name", sorted(TAKES_A_VELOCITY))
def test_a_velocity_must_be_one_tangent_vector(name):
    call = TAKES_A_VELOCITY[name]
    assert _frame().m_dim == M_DIM
    # too long (once read as its first 12 entries), too short, 2-D, a scalar
    for shape in ((M_DIM + 2,), (M_DIM - 1,), (1, M_DIM), ()):
        with pytest.raises(DimensionMismatch, match=re.escape(f"velocity has shape {shape}")):
            call(np.ones(shape))
    call(ONES)  # the right shape goes through
    if name not in ("p_pairing", "p_bound"):  # these two read no transport
        with pytest.raises(ValueError, match="velocity must be nonzero"):
            call(np.zeros(M_DIM))


def _painted_frame():
    """B3 with its third node painted: e3 spans the isotropy roots."""
    return frame_for("B", 3, (2,))


# each call puts its argument in one field position of the frame named beside
# it, with the right shapes elsewhere
GDOT = np.arange(1.0, M_DIM + 1)
TAKES_A_FIELD = {
    "complex_hessian": ("x0", _frame, lambda f, x: complex_hessian(f, GDOT, x)),
    "complex_hessian_many": ("x0_batch", _frame,
                             lambda f, x: complex_hessian_many(f, GDOT, x)),
    "p_pairing (x)": ("x", _frame, lambda f, x: p_pairing(f, x, ONES, GDOT)),
    "p_pairing (y)": ("y", _frame, lambda f, x: p_pairing(f, ONES, x, GDOT)),
    "q_form (x0)": ("x0", _frame, lambda f, x: q_form(f, GDOT, x, ONES, 0.5)),
    "q_form (y0)": ("y0", _frame, lambda f, x: q_form(f, GDOT, ONES, x, 0.5)),
    "k_search (x0)": ("x0", _frame, lambda f, x: k_search(f, GDOT, [(ONES, ONES), (x, ONES)])),
    "k_search (y0)": ("y0", _frame, lambda f, x: k_search(f, GDOT, [(ONES, ONES), (ONES, x)])),
    "adjoint_perturb": ("gamma_coeffs", _painted_frame,
                        lambda f, x: adjoint_perturb(f, x, RootVector((0, 0, 2)))),
    # fields or batches of them, with any leading shape
    "bracket_m (x)": ("x_m", _frame, lambda f, x: bracket_m(f, x, ONES)),
    "bracket_m (y)": ("y_m", _frame, lambda f, x: bracket_m(f, ONES, x)),
    "bracket_k (x)": ("x_m", _painted_frame, lambda f, x: bracket_k(f, x, np.ones(f.m_dim))),
    "bracket_k (y)": ("y_m", _painted_frame, lambda f, x: bracket_k(f, np.ones(f.m_dim), x)),
    "curvature_quadratic (x)": ("x_m", _frame, lambda f, x: curvature_quadratic(f, x, ONES)),
    "curvature_quadratic (y)": ("y_m", _frame, lambda f, x: curvature_quadratic(f, ONES, x)),
}


@pytest.mark.parametrize("name", sorted(TAKES_A_FIELD))
def test_a_field_must_have_the_tangent_width(name):
    field, frame_of, call = TAKES_A_FIELD[name]
    frame = frame_of()
    n = frame.m_dim
    if field == "x0_batch":
        # rows too long, too short, one vector, a stack of batches
        shapes, want = ((2, n + 2), (2, n - 1), (n,), (2, 2, n)), f"(n, {n})"
        call(frame, np.ones((3, n)))  # the right shape goes through
    elif field in ("x_m", "y_m"):
        # too long, too short, a scalar, rows of a batch too long
        shapes, want = ((n + 2,), (n - 1,), (), (2, n + 2)), f"(..., {n})"
        for shape in ((n,), (3, n), (2, 3, n)):  # the right widths go through
            call(frame, np.ones(shape))
    else:
        # too long, too short, 2-D, a scalar
        shapes, want = ((n + 2,), (n - 1,), (1, n), ()), f"({n},)"
        call(frame, np.ones(n))
    for shape in shapes:
        message = f"{field} has shape {shape}; the tangent block of {frame.sys.name} needs {want}"
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            call(frame, np.ones(shape))
