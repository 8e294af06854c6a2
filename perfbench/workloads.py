"""The three workloads: seeded inputs, timed jobs and their correctness gates.

Everything is called through the package's public names, resolved at call
time (``cg.k_search``, not a name bound at import), so the tracer's wrappers
see every call.  All randomness is drawn in ``make_inputs`` from the workload
seed; the jobs only map those draws onto roots and slots of the structures
they build.

A job raises ``GateFailed`` when an output is wrong.  ``Gates`` also keeps,
per check, the worst residual seen and its tolerance, as information.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np

from flagmorse import chevalley as chv
from flagmorse import cli
from flagmorse import compact_geom as cg
from flagmorse import index_comb as ic
from flagmorse import parabolic as pb
from flagmorse import rootsys as rs
from flagmorse.exactnum import CSqrt2

ALL_SYSTEMS = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(3, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", r) for r in (6, 7, 8)]
)
ROOT_COUNTS = {"A": lambda r: r * (r + 1), "B": lambda r: 2 * r * r,
               "C": lambda r: 2 * r * r, "D": lambda r: 2 * r * (r - 1)}
E_ROOT_COUNTS = {6: 72, 7: 126, 8: 240}
MAX_POS = 120          # positive roots of the largest system, E8
MAX_M = 2 * MAX_POS    # tangent coordinates of the largest frame

# Borel acceptance frames and their number of long tangent roots: one
# geodesic job per long root
ACCEPTANCE_FRAMES = {("A", 3): 6, ("B", 3): 6, ("C", 3): 3, ("D", 4): 12}
# E6 Borel, and E7 with nodes 1 and 3 painted: an A2 isotropy block, so the
# m x m -> k bracket is non-trivial, and not Hermitian symmetric (that needs
# six painted nodes).  The paintings are fixed, not seeded, because the frame
# size sets the cost of every job on it.
EXCEPTIONAL_FRAMES = {("E", 6): (), ("E", 7): (0, 2)}
JACOBI_SYSTEMS = (("E", 6), ("E", 7), ("E", 8), ("B", 8), ("C", 8))

TOL_IDENTITY = 1e-10   # identity suites, transport contract
TOL_ANNIHILATED = 1e-12
TOL_SIGN = 1e-8        # Hessian sign dichotomy
# validate_frame invariants.  The unit tests hold rank <= 4 frames to 1e-12;
# an E7 entry sums 133 products, so the E frames get the identity tolerance.
TOL_FRAME = 1e-10

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report-schema.json"

# Work per pass.  "full" is what the benchmark measures; "tiny" is the smoke
# test's.  Counts are fixed per workload, so times compare across seeds.
SIZES = {
    "full": {
        "acceptance_trials": 500, "transport": 12, "fields": 80, "configs": 24,
        "exceptional_trials": 8, "exceptional_fields": 16, "exceptional_configs": 4,
        "validate_trials": 64, "paintings_above_4": 3, "supports": 2,
        "jacobi_triples": 300,
    },
    "tiny": {
        "acceptance_trials": 20, "transport": 2, "fields": 6, "configs": 3,
        "exceptional_trials": 1, "exceptional_fields": 4, "exceptional_configs": 2,
        "validate_trials": 4, "paintings_above_4": 1, "supports": 1,
        "jacobi_triples": 4,
    },
}


class GateFailed(Exception):
    """An output of the program is wrong."""


class Gates:
    """Worst value seen per check, against its threshold (pass iff below)."""

    def __init__(self):
        self.worst: dict[str, list[float]] = {}

    def below(self, name: str, value: float, threshold: float, context: str = "") -> None:
        row = self.worst.setdefault(name, [-math.inf, threshold])
        row[0] = max(row[0], float(value))
        if not value < threshold:
            raise GateFailed(f"{name}: {value!r} not below {threshold!r} {context}".rstrip())

    def require(self, name: str, ok: bool, context: str = "") -> None:
        self.below(name, 0.0 if ok else 1.0, 0.5, context)

    def report(self) -> dict:
        out = {}
        for name, (worst, threshold) in sorted(self.worst.items()):
            row = {"worst": worst, "threshold": threshold}
            if worst > 0 and threshold > 0:
                row["headroom_x"] = threshold / worst
            out[name] = row
        return out


@dataclass
class Job:
    kind: str       # check_all, validate, geodesic, exact_build, ell_table, conditions, jacobi
    label: str
    via_cli: bool
    run: Callable[[Gates], dict]    # returns the job's counts


# ---------------------------------------------------------------------------
# seeded inputs


def _geodesic_draws(rng, n_transport, n_fields, n_configs) -> dict:
    # velocity coefficients on the rational unit circle: the cost of each
    # expm grows with the velocity's norm, so a unit velocity keeps the work
    # independent of the seed
    p, q = (int(v) for v in rng.integers(1, 10, size=2))
    sa, sb = (int(v) for v in rng.choice([-1, 1], size=2))
    n = p * p + q * q
    return {
        "a": Fraction(sa * (q * q - p * p), n), "b": Fraction(sb * 2 * p * q, n),
        "t": rng.uniform(0.0, 1.0, n_transport),
        "x": rng.standard_normal((n_transport, MAX_M)),
        "w": rng.standard_normal((n_transport, MAX_M)),
        "mask": rng.uniform(size=(n_fields, MAX_POS)),
        "coeffs": rng.integers(-8, 9, size=(n_fields, MAX_POS, 2)),
        "x0": rng.standard_normal((n_configs, MAX_M)),
        "y0": rng.standard_normal((n_configs, MAX_M)),
        "w0": rng.standard_normal((n_configs, 4 * MAX_POS)),
    }


def _bracket_batch(rng) -> tuple:
    return rng.standard_normal((64, MAX_M)), rng.standard_normal((64, MAX_M))


def make_inputs(workload: str, seed: int, size: str) -> dict:
    sz = SIZES[size]
    rng = np.random.default_rng([seed, sorted(SIZES).index(size)])
    if workload == "acceptance-frames":
        return {"sz": sz, "frames": [
            {"family": f, "rank": r, "painted": (),
             "suite_seed": int(rng.integers(0, 2**31)),
             "geodesic": [_geodesic_draws(rng, sz["transport"], sz["fields"], sz["configs"])
                          for _ in range(n_long)],
             "bracket_batch": _bracket_batch(rng)}
            for (f, r), n_long in ACCEPTANCE_FRAMES.items()]}
    if workload == "exceptional-frames":
        frames = []
        for (family, rank), painted in EXCEPTIONAL_FRAMES.items():
            frames.append({
                "family": family, "rank": rank, "painted": painted,
                "suite_seed": int(rng.integers(0, 2**31)),
                "validate_seed": int(rng.integers(0, 2**31)),
                "geodesic": _geodesic_draws(rng, sz["transport"], sz["exceptional_fields"],
                                            sz["exceptional_configs"]),
                "bracket_batch": _bracket_batch(rng),
            })
        return {"sz": sz, "frames": frames}
    if workload == "exact-sweep":
        return {
            "sz": sz,
            # above rank 4: the Borel split, then seeded paintings of one,
            # two, ... nodes, so that the seed moves which nodes, not how many
            "paintings": {(f, r): [tuple(sorted(int(i) for i in rng.permutation(r)[:k]))
                                   for k in range(sz["paintings_above_4"])]
                          for f, r in ALL_SYSTEMS if r > 4},
            # per system and painting (at most 15 per system)
            "support_u": rng.uniform(size=(len(ALL_SYSTEMS), 16, sz["supports"], MAX_POS)),
            "jacobi": {sys_: {
                "roots": rng.uniform(size=(sz["jacobi_triples"], 3, 2)),
                "coeffs": rng.integers(-3, 4, size=(sz["jacobi_triples"], 3, 2, 2)),
                "cartan": rng.integers(-2, 3, size=(sz["jacobi_triples"], 8)),
            } for sys_ in JACOBI_SYSTEMS},
        }
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# CLI jobs


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def check_all_job(frame_in: dict, trials: int, schema: dict):
    def run(gates: Gates) -> dict:
        argv = ["check", "--family", frame_in["family"], "--rank", str(frame_in["rank"]),
                "--painted", ",".join(str(i + 1) for i in frame_in["painted"]), "--suite", "all",
                "--trials", str(trials), "--seed", str(frame_in["suite_seed"]), "--json"]
        code, text = run_cli(argv)
        report = json.loads(text)
        try:
            jsonschema.validate(report, schema)
        except jsonschema.ValidationError as exc:
            raise GateFailed(f"report does not match the schema: {exc.message}") from None
        frame_name = f"{frame_in['family']}{frame_in['rank']}"
        for check in report["checks"]:
            gates.below(f"suite.{check['name']}", check["max_residual"], check["tolerance"],
                        frame_name)
            gates.require("suite.tolerance_at_most_1e-8", check["tolerance"] <= TOL_SIGN,
                          f"{frame_name} {check['name']}")
        gates.require("cli.check_exit_0", code == 0 and report["pass"], frame_name)
        return {"json_bytes": len(text),
                "suite_trials": sum(check["trials"] for check in report["checks"])}

    return run


def ell_table_job():
    def run(gates: Gates) -> dict:
        code, text = run_cli(["ell-table", "--json"])
        rows = json.loads(text)["rows"]
        for row in rows:
            gates.require("ell_table.row_matches", row["match"] and row["lookup"] == row["computed"],
                          f"{row['family']}{row['rank']}")
        gates.require("cli.ell_table_exit_0", code == 0 and len(rows) == 7)
        return {"json_bytes": len(text)}

    return run


# ---------------------------------------------------------------------------
# numeric jobs


def validate_job(frame_in: dict, trials: int):
    def run(gates: Gates) -> dict:
        frame = cg.frame_for(frame_in["family"], frame_in["rank"], frame_in["painted"])
        res = cg.validate_frame(frame, trials=trials, seed=frame_in["validate_seed"])
        for name, value in res.items():
            gates.below(f"frame.{name}", value, TOL_FRAME, frame.sys.name)
        if frame_in["painted"]:
            m = frame.m_pos
            gates.require("frame.tangent_block_non_abelian",
                          any(frame.sys.contains(a + b) for a, b in itertools.combinations(m, 2)),
                          frame.sys.name)
        return {}

    return run


def geodesic_job(frame_in: dict, root_index: int, draws: dict, n_long: int | None = None):
    """Transport contract, Hessian sign dichotomy and twisted-form negativity
    along the geodesic whose velocity lies in one long tangent root plane.

    ``root_index`` indexes the long tangent roots, sorted by height (-1 is
    the highest); ``n_long``, when given, is how many the frame must have.
    """

    def run(gates: Gates) -> dict:
        frame = cg.frame_for(frame_in["family"], frame_in["rank"], frame_in["painted"])
        sys_, split_, m = frame.sys, frame.split, frame.m_dim
        longs = [r for r in frame.m_pos if rs.is_long(sys_, r)]
        if n_long is not None:
            gates.require("frame.long_tangent_roots", len(longs) == n_long, sys_.name)
        delta = longs[root_index]
        where = f"{sys_.name} painted {sorted(split_.sigma_k)} delta {delta.coords}"
        a, b = draws["a"], draws["b"]
        gdot = np.zeros(m)
        ix, iy = frame.m_slot(delta)
        gdot[ix], gdot[iy] = float(a), float(b)
        sets = ic.st_sets(split_, ic.GammaSet.singleton(delta), delta)

        # transport contract
        r_mat = cg.r_operator(frame, gdot)
        kernel_roots = sorted(sets.s_set)
        for t, x, w_draw in zip(draws["t"], draws["x"], draws["w"]):
            tau = cg.hat_transport(frame, gdot, float(t))
            x = x[:m] / np.sqrt(frame.m_norm2(x[:m]))
            gates.below("transport.pairing",
                        abs(frame.m_inner(tau @ x, gdot) - frame.m_inner(x, gdot)),
                        TOL_IDENTITY, where)
            gates.below("transport.commutes_with_J",
                        np.max(np.abs(tau @ frame.j_m - frame.j_m @ tau)), TOL_IDENTITY, where)
            if kernel_roots:
                w = np.zeros(m)
                for k, alpha in enumerate(kernel_roots):
                    jx, jy = frame.m_slot(alpha)
                    w[jx], w[jy] = w_draw[2 * k], w_draw[2 * k + 1]
                w /= np.sqrt(frame.m_norm2(w))
                gates.below("transport.annihilated", np.max(np.abs(r_mat @ w)),
                            TOL_ANNIHILATED, where)
                gates.below("transport.fixed", np.max(np.abs(tau @ w - w)), TOL_IDENTITY, where)

        # Hessian sign dichotomy against the exact classification
        kernel_set = [al for al in frame.m_pos
                      if al != delta and (al - delta) not in split_.delta_m_pos
                      and (not sys_.contains(al - delta) or sys_.is_positive(delta - al))
                      and not split_.in_k(delta - al)]
        samples, classes = [], []
        for n, (mask, coeffs) in enumerate(zip(draws["mask"], draws["coeffs"])):
            if n % 2 == 0 and kernel_set:
                support = [al for k, al in enumerate(kernel_set) if mask[k] < 0.5]
                support = support or [kernel_set[0]]
            else:
                support = [al for k, al in enumerate(frame.m_pos) if mask[k] < 0.3]
                support = support or [frame.m_pos[0]]
            field_exact = {}
            x0 = np.zeros(m)
            for k, al in enumerate(support):
                ca, cb = (Fraction(int(c), 4) for c in coeffs[k])
                if ca == 0 and cb == 0:
                    ca = Fraction(1)
                field_exact[al] = (ca, cb)
                jx, jy = frame.m_slot(al)
                x0[jx], x0[jy] = float(ca), float(cb)
            samples.append(x0 / np.sqrt(frame.m_norm2(x0)))
            classes.append(cg.holomorphic_kernel_classification(frame, {delta: (a, b)},
                                                                  field_exact))
        values = cg.complex_hessian_many(frame, gdot, np.array(samples))
        for degenerate, value in zip(classes, values):
            if degenerate:
                gates.below("hessian.degenerate_abs", abs(value), TOL_SIGN, where)
            else:
                gates.below("hessian.negative_max", value, -TOL_SIGN, where)

        # twisted form: a dyadic rate making the averaged form negative
        pairs = {frozenset((al, delta - al)) for al in sets.s_set}
        i_mat = cg.map_I(frame, delta, float(a), float(b), pairs) if pairs else None
        emb = cg.s0_embedding(frame, pairs) - frame.m_start if pairs else None
        configs = []
        for n, (xd, yd, wd) in enumerate(zip(draws["x0"], draws["y0"], draws["w0"])):
            x0, y0, w0, iw0 = (np.zeros(m) for _ in range(4))
            style = n % 3
            if style in (0, 2):
                for k, beta in enumerate(sorted(sets.t_set)):
                    jx, jy = frame.m_slot(beta)
                    x0[jx], x0[jy] = xd[2 * k], xd[2 * k + 1]
                    y0[jx], y0[jy] = yd[2 * k], yd[2 * k + 1]
            if style in (1, 2) and pairs:
                w0[emb] = wd[: len(emb)]
                iw0[emb] = i_mat @ w0[emb]
            if not np.any(x0 + w0) and not np.any(y0 + iw0):
                x0[ix] = 1.0
            configs.append((x0 + w0, y0 + iw0))
        result = cg.k_search(frame, gdot, configs)
        gates.require("k_search.positive_rate", result.k > 0, where)
        gates.below("k_search.form_max", max(result.q_values), 0.0, where)
        return {"halvings": round(math.log2(1.0 / result.k)),
                "degenerate": sum(classes), "fields": len(classes)}

    return run


def acceptance_jobs(inputs: dict, schema: dict) -> list[Job]:
    sz = inputs["sz"]
    jobs = []
    for fr in inputs["frames"]:
        name = f"{fr['family']}{fr['rank']}"
        jobs.append(Job("check_all", name, True,
                        check_all_job(fr, sz["acceptance_trials"], schema)))
        n_long = len(fr["geodesic"])
        for k, draws in enumerate(fr["geodesic"]):
            jobs.append(Job("geodesic", f"{name}#{k}", False,
                            geodesic_job(fr, k, draws, n_long)))
    return jobs


def exceptional_jobs(inputs: dict, schema: dict) -> list[Job]:
    sz = inputs["sz"]
    jobs = []
    for fr in inputs["frames"]:
        name = f"{fr['family']}{fr['rank']}{list(fr['painted'])}"
        jobs.append(Job("check_all", name, True,
                        check_all_job(fr, sz["exceptional_trials"], schema)))
        jobs.append(Job("validate", name, False, validate_job(fr, sz["validate_trials"])))
        jobs.append(Job("geodesic", name, False,
                        geodesic_job(fr, -1, fr["geodesic"])))
    return jobs


# ---------------------------------------------------------------------------
# exact jobs


def exact_build_job(family: str, rank: int):
    def run(gates: Gates) -> dict:
        sys_ = rs.build_root_system(family, rank)
        data = chv.build_chevalley(sys_)
        want = E_ROOT_COUNTS[rank] if family == "E" else ROOT_COUNTS[family](rank)
        gates.require("build.root_count", len(sys_.roots) == want == 2 * len(sys_.positives),
                      sys_.name)
        gates.require("build.constants_antisymmetric",
                      all(data.constant(a, b) == -data.constant(b, a)
                          for a, b in itertools.islice(data.all_pairs(), 0, None, 7)),
                      sys_.name)
        return {}

    return run


def _paintings(family: str, rank: int, inputs: dict) -> list[tuple]:
    if rank <= 4:
        return [p for size in range(rank)
                for p in itertools.combinations(range(rank), size)]
    return inputs["paintings"][(family, rank)]


def _b_short_roots(sp) -> list:
    """Short basis roots of a B split whose case-analysis hypothesis holds."""
    sys_, out = sp.sys, []
    basis = [rs.RootVector(tuple(2 if j == i else 0 for j in range(sys_.rank)))
             for i in range(sys_.rank)]
    for i, root in enumerate(basis):
        if root in sp.delta_m_pos and not any(sp.in_k(e) for e in basis[i + 1:]):
            out.append(root)
    return out


def _c_short_roots(sp) -> list:
    """C roots of the two short shapes (e_i - e_j and e_i + e_j)."""
    sys_, out = sp.sys, []
    for i, j in itertools.combinations(range(sys_.rank), 2):
        for sign in (-2, 2):
            coords = [0] * sys_.rank
            coords[i], coords[j] = 2, sign
            root = rs.RootVector(tuple(coords))
            if root in sp.delta_m_pos:
                out.append(root)
    return out


def conditions_job(family: str, rank: int, painted: tuple, support_u):
    """Split, superminimal on seeded supports, S/T sets and both conditions
    on every long tangent root, and the B/C short-root case analyses."""

    def run(gates: Gates) -> dict:
        sys_ = rs.build_root_system(family, rank)
        sp = pb.split(sys_, pb.PaintedDiagram.of(sys_, painted))
        where = f"{sys_.name} painted {list(painted)}"
        m = sp.m_pos_sorted
        cases = 0

        def conditions(gamma, delta, sets, what):
            c1 = ic.condition1(sp, gamma, delta, sets.t_set)
            c2 = ic.condition2(sp, gamma, delta, sets.s_set)
            gates.require(f"conditions.{what}", c1.ok and c2.ok, f"{where} delta {delta.coords}")

        for u in support_u:
            # about three support roots, whatever the size of the split
            gamma = ic.GammaSet.of([al for k, al in enumerate(m) if u[k] * len(m) < 3]
                                   or [m[-1]])
            delta = ic.superminimal(sp, gamma)
            gates.require("superminimal.in_support", delta in gamma.support, where)
            if rs.is_long(sys_, delta):
                conditions(gamma, delta, ic.st_sets(sp, gamma, delta), "superminimal_long")
            cases += 1
        for delta in m:
            if rs.is_long(sys_, delta):
                gamma = ic.GammaSet.singleton(delta)
                sets = ic.st_sets(sp, gamma, delta)
                gates.require("st_sets.ell_is_half_s_plus_t",
                              sets.ell == len(sets.s_set) // 2 + len(sets.t_set), where)
                conditions(gamma, delta, sets, "long_root")
                cases += 1
        if family == "B":
            for delta in _b_short_roots(sp):
                gamma = ic.GammaSet.singleton(delta)
                conditions(gamma, delta, ic.b_case_sets(sp, gamma, delta), "b_case")
                cases += 1
        if family == "C":
            for delta in _c_short_roots(sp):
                gamma = ic.GammaSet.singleton(delta)
                sets = ic.c_case_starred_sets(sp, gamma, delta)
                gates.require("c_case.delta_in_t", delta in sets.t_set, where)
                conditions(gamma, delta, sets, "c_case")
                cases += 1
        return {"cases": cases}

    return run


def _element(sys_, roots, coeffs, cartan=None):
    e = chv.ComplexElement.zero(sys_)
    for root, (re, im) in zip(roots, coeffs):
        e = e + chv.ComplexElement.root_vector(sys_, root, CSqrt2.make(int(re), int(im)))
    if cartan is not None:
        e = e + chv.ComplexElement.cartan(
            sys_, tuple(CSqrt2.make(int(c), 0) for c in cartan[: sys_.ambient_dim]))
    return e


def jacobi_job(family: str, rank: int, draws: dict):
    """Exact Jacobi identity on seeded random triples through ``bracket_c``."""

    def run(gates: Gates) -> dict:
        sys_ = rs.build_root_system(family, rank)
        data = chv.build_chevalley(sys_)
        roots = sys_.roots
        nontrivial = 0
        for n, (ru, co, ca) in enumerate(zip(draws["roots"], draws["coeffs"], draws["cartan"])):
            x, y, z = (
                _element(sys_, [roots[int(u * len(roots))] for u in ru[j]], co[j],
                         ca if j == 0 and n % 3 == 0 else None)
                for j in range(3))
            yz, zx, xy = (chv.bracket_c(data, y, z), chv.bracket_c(data, z, x),
                          chv.bracket_c(data, x, y))
            nontrivial += not (yz.is_zero() and zx.is_zero() and xy.is_zero())
            total = (chv.bracket_c(data, x, yz) + chv.bracket_c(data, y, zx)
                     + chv.bracket_c(data, z, xy))
            gates.require("jacobi.exactly_zero", total.is_zero(), sys_.name)
        return {"triples": len(draws["roots"]), "nontrivial": nontrivial}

    return run


def exact_jobs(inputs: dict) -> list[Job]:
    jobs = [Job("exact_build", f"{f}{r}", False, exact_build_job(f, r)) for f, r in ALL_SYSTEMS]
    jobs.append(Job("ell_table", "ell-table", True, ell_table_job()))
    for n, (f, r) in enumerate(ALL_SYSTEMS):
        for k, painted in enumerate(_paintings(f, r, inputs)):
            jobs.append(Job("conditions", f"{f}{r}{list(painted)}", False,
                            conditions_job(f, r, painted, inputs["support_u"][n, k])))
    for f, r in JACOBI_SYSTEMS:
        jobs.append(Job("jacobi", f"{f}{r}", False, jacobi_job(f, r, inputs["jacobi"][(f, r)])))
    return jobs


def build_jobs(workload: str, inputs: dict) -> list[Job]:
    schema = json.loads(SCHEMA_PATH.read_text())
    if workload == "acceptance-frames":
        return acceptance_jobs(inputs, schema)
    if workload == "exceptional-frames":
        return exceptional_jobs(inputs, schema)
    return exact_jobs(inputs)


WORKLOADS = ("acceptance-frames", "exceptional-frames", "exact-sweep")

# Gates every pass must reach; a pass that misses one fails, so that no
# correctness check silently stops running.
_GEODESIC_GATES = {
    "cli.check_exit_0", "transport.pairing", "transport.commutes_with_J",
    "transport.annihilated", "transport.fixed", "hessian.degenerate_abs",
    "hessian.negative_max", "k_search.positive_rate", "k_search.form_max",
}
REQUIRED_GATES = {
    "acceptance-frames": _GEODESIC_GATES,
    "exceptional-frames": _GEODESIC_GATES | {
        "frame.associativity", "frame.jacobi", "frame.j_squared", "frame.hermitian",
        "frame.metric_blocks", "frame.tangent_block_non_abelian"},
    "exact-sweep": {
        "build.root_count", "build.constants_antisymmetric", "cli.ell_table_exit_0",
        "ell_table.row_matches", "superminimal.in_support", "conditions.superminimal_long",
        "st_sets.ell_is_half_s_plus_t", "conditions.long_root", "conditions.b_case",
        "conditions.c_case", "c_case.delta_in_t", "jacobi.exactly_zero"},
}


# ---------------------------------------------------------------------------
# probes of the traced run, after the timed job list


def _array_bytes(obj) -> int:
    """``nbytes`` of every numpy array an object holds, found generically."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v) for v in obj)
    return 0


def probes(workload: str, inputs: dict, tracer) -> dict:
    """Per-suite times, a fixed bracket batch, and frame memory, per frame."""
    if workload == "exact-sweep":
        return {}
    sz = inputs["sz"]
    trials = sz["acceptance_trials" if workload == "acceptance-frames" else "exceptional_trials"]
    peak = frame_bytes = 0
    for fr in inputs["frames"]:
        frame = cg.frame_for(fr["family"], fr["rank"], fr["painted"])
        for name in cg.SUITES:
            with tracer.span(f"probe.suite.{name}"):
                cg.identity_suite(frame, name, trials=trials, seed=fr["suite_seed"])
        x, y = (batch[:, : frame.m_dim] for batch in fr["bracket_batch"])
        with tracer.span("probe.bracket"):
            cg.bracket_m(frame, x, y)
            cg.bracket_k(frame, x, y)
        frame_bytes += _array_bytes(vars(frame))
        tracemalloc.start()
        try:
            cg.build_frame(frame.split)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return {"build_frame_peak_mb": peak / 2**20, "frame_bytes": frame_bytes}
