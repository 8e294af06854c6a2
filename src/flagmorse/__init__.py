"""Exact root-system combinatorics and numeric compact-group geometry for
geodesic index bounds on generalized flag manifolds."""

from .rootsys import (
    RootSystem,
    RootVector,
    add,
    build_root_system,
    inner,
    is_long,
    long_orbit_is_transitive,
    precedes,
    reflect,
    w_pair_count,
    w_set,
)
from .chevalley import (
    ChevalleyData,
    ComplexElement,
    bracket_c,
    build_chevalley,
    coroot,
    n0_constant,
    pairing,
)
from .parabolic import PaintedDiagram, ParabolicSplit, borel_split, split, verify_m_closure
from .index_comb import (
    GammaSet,
    STSets,
    b_case_sets,
    c_case_starred_sets,
    condition1,
    condition2,
    ell_table,
    index_lower_bound,
    min_intersection_dim,
    st_sets,
    superminimal,
)
from .compact_geom import (
    RealFormFrame,
    adjoint_perturb,
    bracket_k,
    bracket_m,
    build_frame,
    complex_hessian,
    frame_for,
    hat_transport,
    identity_suite,
    k_search,
    map_I,
    p_bound,
    p_pairing,
    q_form,
    r_operator,
)

__version__ = "0.1.0"
