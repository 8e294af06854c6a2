"""Mutation matrix for the flagmorse checks.

    python tools/mutants.py                   # every mutant against its test files
    python tools/mutants.py --only NAME[,NAME]  # the named mutants only
    python tools/mutants.py --check           # only that each replacement matches once

Each mutant is one named replacement in one source file.  Its text must
occur exactly once in that file, so a refactor that moves or rewrites the
line makes ``--check`` fail instead of silently dropping the mutant.  A run
copies ``src/``, ``tests/``, ``docs/``, ``pyproject.toml`` and ``README.md``
(the CLI tests run its examples) to a temporary directory per mutant, applies
the replacement there, runs pytest (``-x``) on each of the mutant's test
files with that copy's ``src`` first on the path, and prints a mutant x
test-file matrix: ``K`` where the file's tests failed (the mutant was
killed), ``.`` where they all passed.  First the same test files run on an
unmutated copy: a file that fails there would mark every mutant killed, so
the run stops with status 2.  The exit status is 1 when a mutant survives
every file: a survivor is a finding, to be killed by a test or shown
equivalent.  The repository itself is never modified.

Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "docs", "pyproject.toml", "README.md")
PYTEST_TIMEOUT_S = 900

COMB_TESTS = ("tests/test_index_comb.py", "tests/test_acceptance.py", "tests/test_cli.py")
GEOM_TESTS = ("tests/test_acceptance.py", "tests/test_compact_geom.py")
EXACT_TESTS = ("tests/test_exactnum.py",)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str       # relative to the repository root
    old: str        # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("t-set-without-delta", "src/flagmorse/parabolic.py",
           "table[m, m] = 3  # d itself", "table[m, m] = 0  # d itself", COMB_TESTS),
    Mutant("u-set-without-delta", "src/flagmorse/parabolic.py",
           "table[m, m] = 3  # d itself", "table[m, m] = 2  # d itself", COMB_TESTS),
    Mutant("s-set-from-part-ge-0", "src/flagmorse/parabolic.py",
           "np.select([part == 1, sys.heights > 0], [1, 2], 3)",
           "np.select([part >= 0, sys.heights > 0], [1, 2], 3)", COMB_TESTS),
    Mutant("condition1-early-when-delta-in-support", "src/flagmorse/index_comb.py",
           "    rest = gamma.support - {delta}\n    if not rest:\n",
           "    rest = gamma.support - {delta}\n    if delta in gamma.support:\n", COMB_TESTS),
    # the lexicographic minimum qualifies on every A-D support, and on only
    # some E supports
    Mutant("superminimal-returns-lex-min", "src/flagmorse/index_comb.py",
           "return sys.roots[ids[qualifies.argmax()]]", "return sys.roots[ids[0]]",
           ("tests/test_index_comb.py",)),
    Mutant("slot-transposed", "src/flagmorse/chevalley.py",
           "ChevalleyData(sys=sys, _slot=slot,", "ChevalleyData(sys=sys, _slot=slot.T,",
           ("tests/test_chevalley.py", "tests/test_acceptance.py",
            "tests/test_compact_geom.py")),
    # keeps alpha when alpha - delta is tangent positive (and drops it when
    # negative): the onemel identities fail
    Mutant("onemel-mask-widened", "src/flagmorse/compact_geom.py",
           "split.st_table[np.ix_(m, m)].T != 1, 2", "split.st_table[np.ix_(m, m)].T != 3, 2",
           GEOM_TESTS),
    # drops alpha when alpha - delta is a painted-span positive root: only
    # narrows the support, and only on painted frames
    Mutant("onemel-mask-narrowed-on-painted", "src/flagmorse/compact_geom.py",
           "split.st_table[np.ix_(m, m)].T != 1, 2", "split.st_table[np.ix_(m, m)].T % 3 == 0, 2",
           GEOM_TESTS),
    # the frame layout and the painted span, read by id
    Mutant("slot-x-and-y-swapped", "src/flagmorse/compact_geom.py",
           "        return x, x + 1", "        return x + 1, x", GEOM_TESTS),
    # a painted-span root's tangent coordinates are negative, and numpy wraps
    # them onto the last tangent planes
    Mutant("m-slot-without-painted-check", "src/flagmorse/compact_geom.py",
           "        if ix < 0:", "        if False:", GEOM_TESTS),
    Mutant("in-k-with-tangent-negatives", "src/flagmorse/parabolic.py",
           "self.part.item(sys.id_of(root)) == 0", "self.part.item(sys.id_of(root)) != 1",
           ("tests/test_parabolic.py", *COMB_TESTS)),
    # the transport, the averaging and the twisted form
    Mutant("twisted-pairing-sign-flipped", "src/flagmorse/compact_geom.py",
           "return e + 2.0 * k * k * a + 2.0 * k * b", "return e + 2.0 * k * k * a - 2.0 * k * b",
           GEOM_TESTS),
    Mutant("pairing-matrix-transposed", "src/flagmorse/compact_geom.py",
           "return (c - _apply_j(_apply_j(c.T).T)).T", "return (c - _apply_j(_apply_j(c.T).T))",
           GEOM_TESTS),
    Mutant("r-operator-j-term-sign-flipped", "src/flagmorse/compact_geom.py",
           "return self.ad_m + _apply_j(a2.T).T", "return self.ad_m - _apply_j(a2.T).T",
           GEOM_TESTS),
    # J as a symmetric swap of each tangent plane, J^2 = +I: every J in the
    # package goes through this one function
    Mutant("apply-j-without-sign", "src/flagmorse/compact_geom.py",
           "out[..., 0::2] = -x[..., 1::2]", "out[..., 0::2] = x[..., 1::2]", GEOM_TESTS),
    # both branches of the transport read this generator; criterion 7's group
    # law kills it in acceptance
    Mutant("hat-transport-ignores-t", "src/flagmorse/compact_geom.py",
           "gen = -0.5 * t * _Velocity(frame, gdot).r",
           "gen = -0.5 * _Velocity(frame, gdot).r", GEOM_TESTS),
    # the closed forms of a generator that squares to zero (every long root
    # plane): the group law holds with either sign, so only a comparison with
    # the exponential or the per-node oracle can kill these
    Mutant("square-zero-transport-sign-flipped", "src/flagmorse/compact_geom.py",
           "return np.eye(frame.m_dim) + gen", "return np.eye(frame.m_dim) - gen", GEOM_TESTS),
    Mutant("square-zero-average-without-third-term", "src/flagmorse/compact_geom.py",
           "return m + 0.5 * (gen.T @ m + m_gen) + (gen.T @ m_gen) / 3.0",
           "return m + 0.5 * (gen.T @ m + m_gen)", GEOM_TESTS),
    Mutant("quadrature-generator-sign-flipped", "src/flagmorse/compact_geom.py",
           "return _averaged(-0.5 * self.r, m)", "return _averaged(0.5 * self.r, m)", GEOM_TESTS),
    Mutant("averaged-without-f22", "src/flagmorse/compact_geom.py",
           "return f[n:, n:].T @ f[:n, n:]", "return f[:n, n:]", GEOM_TESTS),
    Mutant("tangent-metric-i-not-2i", "src/flagmorse/compact_geom.py",
           "self._average(2.0 * np.eye(self.frame.m_dim))",
           "self._average(np.eye(self.frame.m_dim))", GEOM_TESTS),
    Mutant("forms-without-j-conjugate-k-term", "src/flagmorse/compact_geom.py",
           "return r.T @ r + kk + _apply_j(_apply_j(kk.T).T)", "return r.T @ r + kk", GEOM_TESTS),
    Mutant("p-bound-factor-1", "src/flagmorse/compact_geom.py",
           "_Velocity(frame, gdot).p, 2) / 2.0)", "_Velocity(frame, gdot).p, 2) / 1.0)",
           GEOM_TESTS),
    Mutant("k-search-two-rates", "src/flagmorse/compact_geom.py",
           "    for _ in range(60):", "    for _ in range(2):", GEOM_TESTS),
    # the plan, the metric, the kernel and the averages at r = 0
    Mutant("plan-without-eps", "src/flagmorse/compact_geom.py",
           "c = [eps * sigma * n, n, eps * n, -sigma * n]",
           "c = [sigma * n, n, eps * n, -sigma * n]", GEOM_TESTS),
    Mutant("plan-cartan-scale-halved", "src/flagmorse/compact_geom.py",
           "t = dots[l, r] * (float(sys.norm_scale) / 4)",
           "t = dots[l, r] * (float(sys.norm_scale) / 2)", GEOM_TESTS),
    Mutant("metric-cartan-scale-halved", "src/flagmorse/compact_geom.py",
           "simples @ simples.T * (float(sys.norm_scale) / 4)",
           "simples @ simples.T * (float(sys.norm_scale) / 2)", GEOM_TESTS),
    Mutant("pair-floats-column-order", "src/flagmorse/chevalley.py",
           "return floats[data._slot[data.sys.sums >= 0]]",
           "return floats[data._slot.T[data.sys.sums.T >= 0]]",
           ("tests/test_chevalley.py", *GEOM_TESTS)),
    Mutant("contract-c-before-y", "src/flagmorse/compact_geom.py",
           "            terms *= np.take(y[s:s + rows], plan.j, axis=1)\n            terms *= plan.c",
           "            terms *= plan.c\n            terms *= np.take(y[s:s + rows], plan.j, axis=1)",
           GEOM_TESTS),
    Mutant("averaged-scaled-at-r-zero", "src/flagmorse/compact_geom.py",
           "    if not gen.any():\n        return m", "    if not gen.any():\n        return 1.000001 * m",
           GEOM_TESTS),
    Mutant("terms-cancel-imaginary-sum", "src/flagmorse/compact_geom.py",
           "re, im = x * ga + y * gb, y * ga - x * gb", "re, im = x * ga + y * gb, y * ga + x * gb",
           GEOM_TESTS),
    Mutant("condition2-scans-delta", "src/flagmorse/index_comb.py",
           "rest = gamma.support - {delta}\n    if not rest:  # delta is the only support root",
           "rest = gamma.support\n    if not rest:  # delta is the only support root", COMB_TESTS),
    # always-pass decisions: each says yes after its input checks, so only a
    # case where the decision goes the other way can kill it
    Mutant("condition1-always-holds", "src/flagmorse/index_comb.py",
           '    sp.require_tangent(t_set, "T set roots outside the tangent positives: {}")\n',
           '    sp.require_tangent(t_set, "T set roots outside the tangent positives: {}")\n'
           "    return ConditionResult(True, None)\n", COMB_TESTS),
    # acceptance alone: criterion 5's short-delta negative control pins the
    # condition-2 failures
    Mutant("condition2-always-holds", "src/flagmorse/index_comb.py",
           "    sys.id_of(delta)  # the root check, before any shortcut\n",
           "    sys.id_of(delta)  # the root check, before any shortcut\n"
           "    return ConditionResult(True, None)\n",
           ("tests/test_acceptance.py",)),
    Mutant("validate-against-does-nothing", "src/flagmorse/index_comb.py",
           'sp.require_tangent(self.support, "support roots outside the tangent positives: {}")',
           "pass", COMB_TESTS),
    # the stacked pair-space table and the twomel checks on it: each space's
    # least constant n0 read from its last pair on (only the pair bound reads
    # n0), the quarter turn scaled by the signed constant (still an isometric
    # involution: only the sign of the pairing shows it), delta's X and Y
    # outputs swapped in the pair bound's form (px and py exchanged there;
    # at the table build it would move consts too), the table's lookup
    # taking the nearest key's constant whether or not the key matches, the
    # double bracket read at (1, 0) and (0, 1) only (blind to the cross term
    # bx by + by bx), and the pair bound reading the smallest eigenvalue of
    # each pair's form in place of the largest (the same on a pair form that
    # is a multiple of the identity, as every correct one is)
    Mutant("pair-space-n0-shifted-starts", "src/flagmorse/compact_geom.py",
           "n0 = np.minimum.reduceat(np.abs(table.consts), table.starts[:-1])[usable]",
           "n0 = np.minimum.reduceat(np.abs(table.consts), table.starts[1:] - 1)[usable]",
           GEOM_TESTS),
    Mutant("quarter-turn-scaled-by-signed-consts", "src/flagmorse/compact_geom.py",
           "scale = np.hypot(a, b) * np.abs(table.consts[rows])[:, None, None]",
           "scale = np.hypot(a, b) * table.consts[rows][:, None, None]", GEOM_TESTS),
    Mutant("pair-plane-x-and-y-swapped", "src/flagmorse/compact_geom.py",
           "c = 2.0 * a * table.px[rows] + 2.0 * b * table.py[rows]",
           "c = 2.0 * a * table.py[rows] + 2.0 * b * table.px[rows]", GEOM_TESTS),
    Mutant("pair-entries-without-key-match", "src/flagmorse/compact_geom.py",
           "return np.where(keys[at] == want, plan.c[at], 0.0)", "return plan.c[at]",
           GEOM_TESTS),
    Mutant("double-bracket-two-angles", "src/flagmorse/compact_geom.py",
           "a, b = _ANGLES.T[:, :, None, None, None]",
           "a, b = _ANGLES[:2].T[:, :, None, None, None]", GEOM_TESTS),
    Mutant("pair-bound-lambda-min", "src/flagmorse/compact_geom.py",
           "top = np.linalg.eigvalsh(0.5 * (forms + forms.swapaxes(2, 3)))[..., -1]",
           "top = np.linalg.eigvalsh(0.5 * (forms + forms.swapaxes(2, 3)))[..., 0]", GEOM_TESTS),
    # the isotropy weight of the curvature sum of squares negated in the one
    # helper that curvature_quadratic and curvature-nonnegativity read
    Mutant("curvature-k-weight-sign-flipped", "src/flagmorse/compact_geom.py",
           "return 0.25 * 2.0, frame.metric[: frame.m_start, : frame.m_start]",
           "return 0.25 * 2.0, -frame.metric[: frame.m_start, : frame.m_start]", GEOM_TESTS),
    # the plane blocks the exhaustive identity checks read: J left off the
    # output axis of one term of integrability, the r-operator form reading
    # [x, y] from its own block instead of [y, x] from the partner block, and
    # the output coordinate's X and Y swapped in the layout
    Mutant("integrability-j-off-the-output-axis", "src/flagmorse/compact_geom.py",
           "res = None if j is None else (c + j.out(j.first(c)) + j.out(j.second(c))",
           "res = None if j is None else (c + j.first(c) + j.out(j.second(c))", GEOM_TESTS),
    Mutant("r-operator-form-own-block", "src/flagmorse/compact_geom.py",
           "t = np.take(blocks.m, blocks.partner, axis=-1).transpose(1, 0, 2, 3)",
           "t = blocks.m.transpose(1, 0, 2, 3)", GEOM_TESTS),
    Mutant("plane-blocks-output-bit-flipped", "src/flagmorse/compact_geom.py",
           "m[pm.i % 2, pm.j % 2, pm.k % 2, at] = pm.c",
           "m[pm.i % 2, pm.j % 2, 1 - pm.k % 2, at] = pm.c", GEOM_TESTS),
    # every identity residual reads 0
    Mutant("max-norm-reads-zero", "src/flagmorse/compact_geom.py",
           "return float(np.max(np.abs(arr))) if arr.size else 0.0", "return 0.0", GEOM_TESTS),
    # accepts a tangent-positive root as the isotropy direction
    Mutant("adjoint-perturb-accepts-tangent-roots", "src/flagmorse/compact_geom.py",
           "if frame.split.part.item(i) != 0 or", "if frame.split.part.item(i) < 0 or",
           ("tests/test_boundary.py", *GEOM_TESTS)),
    # the five-int complex product: sqrt2 * sqrt2 taken as 1 in the real
    # part, a flipped imaginary cross term, and results left unreduced
    Mutant("complex-product-real-sqrt2-without-2", "src/flagmorse/exactnum.py",
           "rp * sp - ip * tp + 2 * (rq * sq - iq * tq),",
           "rp * sp - ip * tp + (rq * sq - iq * tq),", EXACT_TESTS),
    Mutant("complex-product-imag-cross-sign", "src/flagmorse/exactnum.py",
           "rp * tp + ip * sp + 2 * (rq * tq + iq * sq),",
           "rp * tp - ip * sp + 2 * (rq * tq + iq * sq),", EXACT_TESTS),
    Mutant("complex-unreduced", "src/flagmorse/exactnum.py",
           "g = _gcd(rp, rq, ip, iq, d)", "g = 1", EXACT_TESTS),
)


def check() -> list[str]:
    """One problem per mutant whose text does not occur exactly once."""
    problems = []
    names = [m.name for m in MUTANTS]
    for name in {n for n in names if names.count(n) > 1}:
        problems.append(f"{name}: duplicate mutant name")
    for m in MUTANTS:
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            problems.append(f"{m.name}: {m.old!r} occurs {found} times in {m.path}")
        if m.old == m.new:
            problems.append(f"{m.name}: the replacement changes nothing")
        for test in m.tests:
            if not (ROOT / test).is_file():
                problems.append(f"{m.name}: no test file {test}")
    return problems


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, dest / name)


def _env(copy: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"),
                                                      env.get("PYTHONPATH")]))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env.setdefault("OMP_NUM_THREADS", "1")
    env.setdefault("MKL_NUM_THREADS", "1")
    return env


def run_mutant(m: Mutant, workdir: Path) -> dict[str, bool]:
    """Test file -> whether its tests killed the mutant."""
    copy = Path(tempfile.mkdtemp(prefix=f"{m.name}-", dir=workdir))
    try:
        _copy_tree(copy)
        target = copy / m.path
        target.write_text(target.read_text().replace(m.old, m.new))
        env = _env(copy)
        where = subprocess.run([sys.executable, "-c", "import flagmorse; print(flagmorse.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True, check=True)
        if not Path(where.stdout.strip()).is_relative_to(copy):
            raise RuntimeError(f"the copy imports flagmorse from {where.stdout.strip()}")
        killed = {}
        for test in m.tests:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
                cwd=copy, env=env, capture_output=True, text=True, timeout=PYTEST_TIMEOUT_S)
            if proc.returncode not in (0, 1):
                tail = "\n".join(proc.stdout.splitlines()[-5:])
                raise RuntimeError(f"{m.name}: pytest on {test} exited {proc.returncode}\n{tail}")
            killed[test] = proc.returncode == 1
        return killed
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def print_matrix(results: dict[str, dict[str, bool]]) -> None:
    files = sorted({t for row in results.values() for t in row})
    short = [Path(t).stem.removeprefix("test_") for t in files]
    width = max(len(n) for n in results)
    print(" " * width + "  " + "  ".join(short))
    for name, row in results.items():
        cells = ("K" if row.get(t) else "." if t in row else " " for t in files)
        print(name.ljust(width) + "  " + "  ".join(c.center(len(s)) for c, s in zip(cells, short)))
    alive = [n for n, row in results.items() if not any(row.values())]
    print(f"killed {len(results) - len(alive)} of {len(results)} mutants"
          + (f"; survivors: {', '.join(alive)}" if alive else ""))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="only verify that every replacement matches exactly once")
    parser.add_argument("--only", type=lambda text: text.split(","), default=None,
                        metavar="NAME[,NAME]", help="run only the named mutants")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the per-mutant copies go (default: the system temp dir)")
    args = parser.parse_args()

    problems = check()
    unknown = sorted(set(args.only or ()) - {m.name for m in MUTANTS})
    if unknown:
        problems.append(f"no mutant named {', '.join(unknown)}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    if args.check:
        print(f"{len(MUTANTS)} mutants, each replacement matches exactly once")
        return 0
    chosen = [m for m in MUTANTS if args.only is None or m.name in args.only]
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    # an empty replacement leaves the copy as it is
    control = run_mutant(Mutant("unmutated", chosen[0].path, "", "", tests), args.workdir)
    failing = [t for t, failed in control.items() if failed]
    if failing:
        print(f"failing with no mutant applied: {', '.join(failing)}", file=sys.stderr)
        return 2
    results = {}
    for m in chosen:
        results[m.name] = run_mutant(m, args.workdir)
        print(f"{m.name}: killed by {[t for t, k in results[m.name].items() if k] or 'nothing'}",
              flush=True)
    print_matrix(results)
    return 0 if all(any(row.values()) for row in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
