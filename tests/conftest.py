import dataclasses

import numpy as np
import pytest

from flagmorse.compact_geom import build_frame, frame_for
from flagmorse.parabolic import PaintedDiagram, borel_split, split
from flagmorse.rootsys import build_root_system

ALL_SYSTEMS = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(3, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", r) for r in (6, 7, 8)]
)

SMALL_SYSTEMS = [(f, r) for f, r in ALL_SYSTEMS if r <= 4]

ACCEPTANCE_FRAMES = [("A", 3), ("B", 3), ("C", 3), ("D", 4)]

# every system, Borel and with node 1, node r, and nodes 1 and r painted
# (0-based here), where a tangent block is left: 111 frames
END_NODE_FRAMES = [(f, r, p) for f, r in ALL_SYSTEMS
                   for p in sorted({(), (0,), (r - 1,), tuple(sorted({0, r - 1}))})
                   if len(p) < r]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240517)


@pytest.fixture(scope="session", params=ACCEPTANCE_FRAMES, ids=lambda p: f"{p[0]}{p[1]}")
def borel_frame(request):
    family, rank = request.param
    return frame_for(family, rank)


def system(family, rank):
    return build_root_system(family, rank)


def borel(family, rank):
    return borel_split(build_root_system(family, rank))


def fresh_frame(family, rank, painted=()):
    """A frame built anew, outside ``frame_for``'s cache, so that a patched
    J or kernel mask meets nothing cached; its last tangent plane is that of
    the highest root theta."""
    sys_ = build_root_system(family, rank)
    frame = build_frame(split(sys_, PaintedDiagram.of(sys_, painted)))
    assert frame.sys.height(frame.m_pos[-1]) == max(map(frame.sys.height, frame.m_pos))
    return frame


def reversed_on_theta(apply_j):
    """J with its quarter turn reversed on the last tangent plane, that of the
    highest root theta: still a complex structure and an isometry."""
    def reversed_j(x):
        out = apply_j(x)
        out[..., -2:] *= -1.0
        return out
    return reversed_j


def without_sign(apply_j):
    """J as a symmetric swap of each tangent plane, J^2 = +I: still a
    signed swap inside each plane, and an isometry."""
    def symmetric_j(x):
        out = apply_j(x)
        out[..., 0::2] *= -1.0
        return out
    return symmetric_j


def negated_cartan_metric(frame):
    """A copy of the frame with the Cartan block of its metric negated, so
    that the isotropy weight of the curvature quadratic is indefinite."""
    metric = frame.metric.copy()
    rank = frame.sys.rank
    metric[:rank, :rank] *= -1.0
    return dataclasses.replace(frame, metric=metric)


def doubled_upper_plan_m(frame):
    """A copy of the frame with every ``plan_m`` entry with i < j doubled, so
    that [x, x]_m no longer vanishes; its plane blocks are built anew."""
    plan = frame.plan_m
    doubled = np.where(plan.i < plan.j, 2.0, 1.0) * plan.c
    return dataclasses.replace(frame, plan_m=plan._replace(c=doubled))


# wrong weights of the curvature sum of squares, fixed before hessian-chain
# was decided on its coefficients: the isotropy weight negated, and the
# tangent weight w_m doubled.  Each leaves one term of the chain's reduction,
# (g_i - g_c) or (mu/4 - w_m), nonzero
CURVATURE_WEIGHT_CONTROLS = {
    "negated isotropy weight": lambda w_m, g_k: (w_m, -g_k),
    "doubled tangent weight": lambda w_m, g_k: (2.0 * w_m, g_k),
}


def wrong_curvature_weights(curvature_weights, control):
    """``curvature_weights`` with the wrong weights of ``control``."""
    def wrong(frame):
        return CURVATURE_WEIGHT_CONTROLS[control](*curvature_weights(frame))
    return wrong


def with_pair_table(frame, **fields):
    """A copy of the frame whose pair table has ``fields`` replaced."""
    copy = dataclasses.replace(frame)
    copy.__dict__["pair_table"] = frame.pair_table._replace(**fields)
    return copy


# one wrong input per twomel check, fixed before the run: the constants
# doubled, the quarter turn without its 1/|c| scale (which matters only where
# some |c| != 1, as the 1/sqrt 2 of C), and the quarter turn negated: both
# brackets the pair bound pairs with the twist direction, [Ix, x] and
# [JIx, Jx], are linear in I, so this flips the sign of both pairings, as
# negating the direction would
TWOMEL_CONTROLS = {
    "double-bracket": lambda table: {"consts": 2.0 * table.consts},
    "quarter-turn": lambda table: {"consts": np.sign(table.consts)},
    "pair-bound": lambda table: {"bx": -table.bx, "by": -table.by},
}


def twomel_control(frame, name):
    """A copy of the frame with the wrong pair table of the twomel check
    ``name``."""
    return with_pair_table(frame, **TWOMEL_CONTROLS[name](frame.pair_table))


def _x_alpha_dropped(table):
    """``px`` and ``py`` with each pair's row of X_alpha as the first
    argument zeroed."""
    fields = {name: getattr(table, name).copy() for name in ("px", "py")}
    for block in fields.values():
        block[:, 0] = 0.0
    return fields


# defects that only part of an exhaustive twomel form can see, fixed before
# they were run: the twist's Y block read as its X block, which every block
# identity survives at (a, b) = (1, 0) and (0, 1) and fails at (1, 1); and
# each pair's brackets of X_alpha onto delta's plane dropped, which leaves
# each pair's form of the pair bound indefinite, so that its largest
# eigenvalue exceeds the bound and its smallest stays below it
PARTIAL_TWOMEL_CONTROLS = {
    "Y block read as X": lambda table: {"by": table.bx},
    "X_alpha brackets dropped": _x_alpha_dropped,
}
