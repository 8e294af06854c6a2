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
