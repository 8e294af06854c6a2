import numpy as np
import pytest

from flagmorse.compact_geom import frame_for
from flagmorse.parabolic import borel_split
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
