"""Command-line front end.

One binary with subcommands; all randomized suites take an explicit seed
(default 0) which is echoed in the output, and identical configurations
reproduce identical output (timing fields aside).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback
from fractions import Fraction

import numpy as np

from . import compact_geom as geom
from . import index_comb as comb
from .chevalley import build_chevalley, csv_rows, n0_constant
from .errors import FlagmorseError
from .parabolic import PaintedDiagram, borel_split, split as make_split
from .rootsys import RootVector, build_root_system, is_long

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
# the reader of stdout went away (a closed pipe): 128 + SIGPIPE, as a shell
# reports a process that SIGPIPE ended
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    pass


def _parse_root(text: str) -> RootVector:
    """Root from comma-joined ambient coordinates (rationals allowed)."""
    try:
        parts = [Fraction(p.strip()) for p in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad root coordinates {text!r}: {exc}") from None
    scaled = []
    for p in parts:
        q = 2 * p
        if q.denominator != 1:
            raise UsageError(f"coordinate {p} is not a half-integer")
        scaled.append(int(q))
    return RootVector(tuple(scaled))


def _parse_gamma(text: str) -> dict[RootVector, tuple[Fraction, Fraction]]:
    """'coords:a,b;coords:a,b' -> exact coefficient map."""
    out = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            coords, pair = chunk.rsplit(":", 1)
            try:
                a_s, b_s = pair.split(",")
                a, b = Fraction(a_s), Fraction(b_s)
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"bad coefficient pair in {chunk!r}: {exc}") from None
        else:
            coords, (a, b) = chunk, (Fraction(1), Fraction(0))
        root = _parse_root(coords)
        if a == 0 and b == 0:
            raise UsageError(f"zero coefficient pair for {coords}")
        out[root] = (a, b)
    if not out:
        raise UsageError("empty root/coefficient specification")
    return out


def _parse_painted(text: str) -> tuple[int, ...]:
    text = (text or "").strip()
    if not text:
        return ()
    try:
        one_based = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad painted list {text!r}: {exc}") from None
    if any(i < 1 for i in one_based):
        raise UsageError("painted node numbers start at 1")
    repeated = sorted({i for i in one_based if one_based.count(i) > 1})
    if repeated:
        raise UsageError(f"painted node listed more than once: {repeated}")
    return tuple(sorted(i - 1 for i in one_based))


def _build_split(args):
    sys_ = build_root_system(args.family, args.rank)
    painted = _parse_painted(getattr(args, "painted", "") or "")
    if any(i >= sys_.rank for i in painted):
        raise UsageError(f"painted node out of range for rank {sys_.rank}")
    return make_split(sys_, PaintedDiagram.of(sys_, painted))


def _build_frame(args):
    """Frame of a validated split."""
    sp = _build_split(args)
    return geom.frame_for(sp.sys.family, sp.sys.rank, sp.sigma_k)


def _render_root(root: RootVector) -> str:
    return ",".join(str(Fraction(c, 2)) for c in root.coords)


def _require_tangent_roots(sp, roots) -> None:
    """User-given roots must be tangent positives; names the others as typed."""
    bad = [r for r in dict.fromkeys(roots) if r not in sp.delta_m_pos]
    if bad:
        raise UsageError("support roots outside the tangent positives: "
                         + "; ".join(_render_root(r) for r in bad))


def _emit(args, payload: dict, plain: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(plain)


# -- subcommands -------------------------------------------------------------


def cmd_roots(args) -> int:
    sys_ = build_root_system(args.family, args.rank)
    payload = sys_.to_json_dict()
    lines = [
        f"{sys_.name}: {len(sys_.roots)} roots, {len(sys_.positives)} positive, "
        f"ambient dim {sys_.ambient_dim}, scale {payload['scale']}",
        "simple roots:",
    ]
    for i, s in enumerate(sys_.simples, 1):
        lines.append(f"  a{i}: {_render_root(s)}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_chevalley(args) -> int:
    sys_ = build_root_system(args.family, args.rank)
    data = build_chevalley(sys_)
    rows = csv_rows(data)
    if args.csv:
        try:
            with open(args.csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("alpha", "beta", "c"))
                writer.writerows(rows)
        except OSError as exc:
            raise UsageError(f"cannot write {args.csv}: {exc.strerror}") from None
    payload = {
        "family": sys_.family,
        "rank": sys_.rank,
        "pairs": len(rows),
        # A1 has no pair with a root sum, so no minimal constant
        "n0": n0_constant(data) if rows else None,
        "csv": args.csv or None,
    }
    summary = (f"{len(rows)} bracket pairs, minimal |c| = {payload['n0']}"
               if rows else "no bracket pairs")
    plain = f"{sys_.name}: {summary}" + (f"\nwrote {args.csv}" if args.csv else "")
    _emit(args, payload, plain)
    return EXIT_OK


def cmd_parabolic(args) -> int:
    sp = _build_split(args)
    payload = sp.to_json_dict()
    plain = (
        f"{sp.sys.name} painted diagram: {payload['diagram']}\n"
        f"isotropy roots: {int(np.count_nonzero(sp.part == 0))}  tangent positives v = {sp.v}"
    )
    _emit(args, payload, plain)
    return EXIT_OK


def cmd_ell(args) -> int:
    sp = _build_split(args)
    gamma_exact = _parse_gamma(args.gamma) if args.gamma else {}
    delta = _parse_root(args.delta) if args.delta and args.delta != "auto" else None
    _require_tangent_roots(sp, [*gamma_exact, *([] if delta is None else [delta])])
    if gamma_exact:
        gamma = comb.GammaSet.of(gamma_exact)
    elif delta is None:
        raise UsageError("provide --gamma, --delta coordinates, or both")
    else:
        gamma = comb.GammaSet.singleton(delta)
    if delta is None:
        delta = comb.superminimal(sp, gamma)
    elif delta not in gamma.support:
        raise UsageError("--delta must belong to the support of --gamma")
    sets = comb.st_sets(sp, gamma, delta)
    c1 = comb.condition1(sp, gamma, delta, sets.t_set)
    c2 = comb.condition2(sp, gamma, delta, sets.s_set)
    payload = {
        "family": sp.sys.family,
        "rank": sp.sys.rank,
        "painted": sp.painted_nodes,
        "gamma": [_render_root(r) for r in sorted(gamma.support)],
        "delta": _render_root(delta),
        "delta_long": is_long(sp.sys, delta),
        "s_set": [_render_root(r) for r in sorted(sets.s_set)],
        "t_set": [_render_root(r) for r in sorted(sets.t_set)],
        "ell": sets.ell,
        "h": sets.h,
        "condition1": {"ok": c1.ok,
                       "witness": [_render_root(r) for r in c1.witness] if c1.witness else None},
        "condition2": {"ok": c2.ok,
                       "witness": [_render_root(r) for r in c2.witness] if c2.witness else None},
    }
    plain = "\n".join([
        f"{sp.sys.name} painted {payload['painted']}  delta = {payload['delta']}"
        f" ({'long' if payload['delta_long'] else 'short'})",
        f"S ({len(sets.s_set)}): {payload['s_set']}",
        f"T ({len(sets.t_set)}): {payload['t_set']}",
        f"ell = {sets.ell}  h = {sets.h}",
        f"condition 1: {'pass' if c1.ok else 'FAIL ' + str(payload['condition1']['witness'])}",
        f"condition 2: {'pass' if c2.ok else 'FAIL ' + str(payload['condition2']['witness'])}",
    ])
    _emit(args, payload, plain)
    return EXIT_OK


_TABLE_SAMPLES = (("A", 3), ("B", 3), ("C", 3), ("D", 4), ("E", 6), ("E", 7), ("E", 8))
_TABLE_FORMULAS = {
    "A": "r", "B": "2r-2", "C": "r", "D": "2r-3", "E": "11/17/29",
}


def _computed_ell(family: str, rank: int) -> int:
    sys_ = build_root_system(family, rank)
    sp = borel_split(sys_)
    values = set()
    for delta in sp.m_pos_sorted:
        if is_long(sys_, delta):
            values.add(comb.st_sets(sp, comb.GammaSet.singleton(delta), delta).ell)
    if len(values) != 1:
        raise RuntimeError(f"non-constant ell over long roots: {values}")
    return values.pop()


def cmd_ell_table(args) -> int:
    rows = []
    for family, rank in _TABLE_SAMPLES:
        lookup = comb.ell_table(family, rank).ell
        computed = _computed_ell(family, rank)
        rows.append({
            "family": family,
            "rank": rank,
            "formula": _TABLE_FORMULAS[family],
            "lookup": lookup,
            "computed": computed,
            "match": lookup == computed,
        })
    improvements = [
        {"family": "B", "condition": "all long simple nodes painted", "ell": "2r-1"},
        {"family": "C", "condition": "maximal parabolic over the odd projective space",
         "ell": "2r-1"},
    ]
    payload = {"rows": rows, "improvements": improvements}
    lines = [f"{'family':<8}{'formula':<10}{'rank':<6}{'lookup':<8}{'computed':<10}match"]
    for r in rows:
        lines.append(
            f"{r['family']:<8}{r['formula']:<10}{r['rank']:<6}{r['lookup']:<8}"
            f"{r['computed']:<10}{'yes' if r['match'] else 'NO'}"
        )
    lines.append("")
    for imp in improvements:
        lines.append(f"improvement: {imp['family']} with {imp['condition']}: "
                     f"ell = {imp['ell']}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if all(r["match"] for r in rows) else EXIT_FAILED_CHECK


def cmd_index_bound(args) -> int:
    if args.m < 0 or args.n < 0:
        raise UsageError(f"--m and --n must be non-negative dimensions, got {args.m} and {args.n}")
    sp = _build_split(args)
    row = comb.ell_table(args.family, args.rank, special=args.special)
    v = sp.v
    bound = comb.index_lower_bound(args.m, args.n, v, row.ell)
    lam0 = bound - 1
    payload = {
        "family": sp.sys.family,
        "rank": sp.sys.rank,
        "painted": sp.painted_nodes,
        "m": args.m,
        "n": args.n,
        "v": v,
        "ell": row.ell,
        "special": row.special,
        "lambda0": lam0,
        "index_bound": bound,
    }
    plain = (
        f"{sp.sys.name} painted {payload['painted']}: v = {v}, ell = {row.ell}"
        f"{' (improved)' if row.special else ''}\n"
        f"lambda_0 = {lam0}   index bound I = {bound}"
        + ("\n(non-positive bound: uninformative)" if bound <= 0 else "")
    )
    _emit(args, payload, plain)
    return EXIT_OK


def cmd_check(args) -> int:
    frame = _build_frame(args)
    report = geom.identity_suite(frame, args.suite, trials=args.trials, seed=args.seed)
    payload = report.to_json_dict()
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"suite {report.suite} on {frame.sys.name} "
              f"painted {frame.split.painted_nodes}  seed {report.seed}")
        for c in report.checks:
            status = "pass" if c.passed else "FAIL"
            counted = "pairs " if c.exhaustive else "trials"  # basis pairs, or random inputs
            print(f"  {c.name:<26} {counted} {c.trials:>7}  "
                  f"max residual {c.max_residual:.3e}  {status}")
            if c.note:
                print(f"      note: {c.note}")
        print(f"overall: {'pass' if report.passed else 'FAIL'} "
              f"({report.elapsed_ms:.0f} ms)")
    return EXIT_OK if report.passed else EXIT_FAILED_CHECK


def cmd_hessian(args) -> int:
    frame = _build_frame(args)
    gamma_exact = _parse_gamma(args.gamma)
    field_exact = _parse_gamma(args.field)
    _require_tangent_roots(frame.split, [*gamma_exact, *field_exact])
    gdot, x0 = np.zeros(frame.m_dim), np.zeros(frame.m_dim)
    for vector, exact in ((gdot, gamma_exact), (x0, field_exact)):
        for root, (a, b) in exact.items():
            ix, iy = frame.m_slot(root)
            vector[ix], vector[iy] = float(a), float(b)
    norm = np.sqrt(frame.m_norm2(x0))
    if norm == 0:
        raise UsageError("zero variation field")
    value = geom.complex_hessian(frame, gdot, x0 / norm)
    degenerate = geom.holomorphic_kernel_classification(frame, gamma_exact, field_exact)
    numeric_degenerate = abs(value) < 1e-8
    agree = degenerate == numeric_degenerate
    payload = {
        "family": frame.sys.family,
        "rank": frame.sys.rank,
        "painted": frame.split.painted_nodes,
        "hessian": value,
        "classification": "degenerate" if degenerate else "negative",
        "numeric_matches_classification": agree,
    }
    plain = (
        f"averaged second variation (unit field): {value:.12e}\n"
        f"bracket classification: {payload['classification']}\n"
        f"numeric agreement: {'yes' if agree else 'NO'}"
    )
    _emit(args, payload, plain)
    return EXIT_OK if agree else EXIT_FAILED_CHECK


# -- parser ------------------------------------------------------------------


def _add_system_args(p, painted=True):
    p.add_argument("--family", required=True, choices=list("ABCDE"),
                   type=lambda s: s.upper())
    p.add_argument("--rank", required=True, type=int)
    if painted:
        p.add_argument("--painted", default="",
                       help="comma-separated painted node numbers (1-based)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagmorse",
        description="Exact root combinatorics and numeric verification for "
                    "geodesic index bounds on generalized flag manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="build and print a root system")
    _add_system_args(p, painted=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("chevalley", help="structure constants summary / CSV dump")
    _add_system_args(p, painted=False)
    p.add_argument("--csv", help="write the constants table to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_chevalley)

    p = sub.add_parser("parabolic", help="painted diagram and root split")
    _add_system_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_parabolic)

    p = sub.add_parser("ell", help="S/T sets, ell, and the two conditions")
    _add_system_args(p)
    p.add_argument("--gamma", help="support list root:a,b;root:a,b "
                                   "(ambient coordinates)")
    p.add_argument("--delta", default="auto",
                   help="'auto' (superminimal) or ambient coordinates")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ell)

    p = sub.add_parser("ell-table", help="closed-form table with computed column")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ell_table)

    p = sub.add_parser("index-bound", help="index lower bound from dimensions")
    _add_system_args(p)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--special", action="store_true",
                   help="apply the documented family-specific improvement")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_index_bound)

    p = sub.add_parser("check", help="run a numeric identity suite")
    _add_system_args(p)
    p.add_argument("--suite", default="all",
                   choices=sorted(geom.SUITES) + ["all"])
    p.add_argument("--trials", type=int, default=10_000,
                   help="random inputs of the one sampled check, "
                        "isotropy-pairing; every other check is exhaustive: it "
                        "decides its identity on every ordered basis pair, or "
                        "twomel's on every pair block, and reports that count "
                        "as its trials (pairs in the text report, exhaustive: "
                        "true in the JSON); pair-bound draws one angle (a, b) "
                        "per pair space from --seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("hessian", help="averaged second variation of one field")
    _add_system_args(p)
    p.add_argument("--gamma", required=True,
                   help="velocity list root:a,b;... (ambient coordinates)")
    p.add_argument("--field", required=True,
                   help="variation field list root:a,b;...")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hessian)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a closed pipe shows on the last write, which for a short output is
        # this flush, not the interpreter's at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at devnull so that the flush at exit finds no pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FlagmorseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        print("internal error (a failed invariant or a bug, not bad input):", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
