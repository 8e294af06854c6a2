import json
import os
import pathlib
import shlex
import subprocess
import sys
from typing import NamedTuple

import jsonschema
import pytest

from flagmorse import cli

ROOT = pathlib.Path(__file__).parents[1]
SCHEMA = json.loads((ROOT / "docs" / "report-schema.json").read_text())


class Run(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def run_cli(capsys):
    """``cli.main`` in this process, with its exit code and captured output;
    argparse's own errors leave through ``SystemExit``."""
    def run(*args):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return Run(code, out.out, out.err)
    return run


def test_ell_table_plain(run_cli):
    result = run_cli("ell-table")
    assert result.returncode == 0
    lines = [l for l in result.stdout.splitlines() if l.strip() and not l.startswith("improvement")]
    assert len(lines) == 8  # header plus the seven family rows
    assert "E       11/17/29  8     29      29        yes" in result.stdout


def test_ell_table_json(run_cli):
    result = run_cli("ell-table", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    got = {(r["family"], r["rank"]): r["lookup"] for r in payload["rows"]}
    assert got == {("A", 3): 3, ("B", 3): 4, ("C", 3): 3, ("D", 4): 5,
                   ("E", 6): 11, ("E", 7): 17, ("E", 8): 29}
    assert all(r["match"] for r in payload["rows"])


def test_index_bound_example(run_cli):
    result = run_cli("index-bound", "--m", "2", "--n", "2",
                     "--family", "A", "--rank", "3", "--painted", "2,3", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["v"] == 3
    assert payload["ell"] == 3
    assert payload["lambda0"] == 1
    assert payload["index_bound"] == 2


def test_roots_json_matches_library(run_cli):
    from flagmorse.rootsys import build_root_system

    result = run_cli("roots", "--family", "C", "--rank", "3", "--json")
    assert result.returncode == 0
    assert json.loads(result.stdout) == build_root_system("C", 3).to_json_dict()
    assert json.loads(result.stdout)["scale"] == "1/2"


def test_parabolic_render():
    # through the module entry point, in a fresh interpreter
    result = subprocess.run([sys.executable, "-m", "flagmorse", "parabolic", "--family", "A",
                             "--rank", "3", "--painted", "2,3"],
                            capture_output=True, text=True, env=_this_tree_env())
    assert result.returncode == 0
    assert "oxx" in result.stdout
    assert "v = 3" in result.stdout


# the exact commands, each with its usual inputs: none needs a matrix
# exponential, so none should pay for importing scipy
EXACT_COMMANDS = [
    ["roots", "--family", "E", "--rank", "7", "--json"],
    ["chevalley", "--family", "B", "--rank", "3"],
    ["parabolic", "--family", "A", "--rank", "3", "--painted", "2"],
    ["ell", "--family", "B", "--rank", "3", "--gamma", "0,1,0:1,0;1,1,0:0,1", "--delta", "auto"],
    ["ell-table"],
    ["index-bound", "--family", "D", "--rank", "4", "--m", "6", "--n", "2"],
]


def test_exact_commands_load_no_scipy():
    script = ("import contextlib, io, sys\n"
              "from flagmorse import cli\n"
              f"for args in {EXACT_COMMANDS!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main(args) == 0, args\n"
              "    assert 'scipy' not in sys.modules, args\n"
              # a velocity with a nonzero transport generator needs expm
              "cli.main(['hessian', '--family', 'A', '--rank', '3', '--gamma',\n"
              "          '1,-1,0,0:1,0;0,1,-1,0:1,2', '--field', '1,0,-1,0:1,1'])\n"
              "assert 'scipy.linalg' in sys.modules\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=_this_tree_env())
    assert result.returncode == 0, result.stderr


def test_ell_command_auto_delta(run_cli):
    result = run_cli("ell", "--family", "B", "--rank", "3",
                     "--gamma", "0,1,0:1,0;1,1,0:0,1", "--delta", "auto", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["delta"] == "0,1,0"
    assert payload["condition1"]["ok"] and payload["condition2"]["ok"]


def test_check_json_deterministic_and_schema(run_cli):
    args = ("check", "--suite", "integrability", "--family", "A", "--rank", "2",
            "--painted", "", "--trials", "500", "--seed", "7", "--json")
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == 0 and second.returncode == 0
    p1, p2 = json.loads(first.stdout), json.loads(second.stdout)
    for payload in (p1, p2):
        assert set(payload) == {"suite", "frame", "seed", "trials", "checks",
                                "elapsed_ms", "pass"}
        for check in payload["checks"]:
            assert {"name", "description", "trials", "max_residual", "pass",
                    "tolerance"} <= set(check)
    jsonschema.validate(p1, SCHEMA)
    p1.pop("elapsed_ms")
    p2.pop("elapsed_ms")
    assert p1 == p2
    assert p1["pass"] is True
    assert p1["seed"] == 7


def test_check_all_suites_small(run_cli):
    result = run_cli("check", "--suite", "all", "--family", "A", "--rank", "2",
                     "--trials", "400", "--seed", "1")
    assert result.returncode == 0
    assert "overall: pass" in result.stdout


def test_hessian_agreement(run_cli):
    # the first velocity lies on A3's highest root plane, where r = 0
    result = run_cli("hessian", "--family", "A", "--rank", "3",
                     "--gamma", "1,0,0,-1:1,0", "--field", "1,-1,0,0:1,1", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["classification"] == "degenerate"
    assert abs(payload["hessian"]) < 1e-8
    negative = run_cli("hessian", "--family", "A", "--rank", "3",
                       "--gamma", "1,-1,0,0:1,0", "--field", "1,0,-1,0:1,0", "--json")
    assert negative.returncode == 0
    np_payload = json.loads(negative.stdout)
    assert np_payload["classification"] == "negative"
    assert np_payload["hessian"] < -1e-8


def test_usage_errors_exit_2(run_cli):
    assert run_cli("roots", "--family", "Q", "--rank", "3").returncode == 2
    assert run_cli("ell", "--family", "A", "--rank", "3").returncode == 2
    assert run_cli("roots", "--family", "A", "--rank", "99").returncode == 2
    result = run_cli("hessian", "--family", "A", "--rank", "2",
                     "--gamma", "1,-1,0:1,0", "--field", "0,0,0:1,0")
    assert result.returncode == 2
    # painted lists are checked by check and hessian as by the other commands
    result = run_cli("check", "--family", "A", "--rank", "2", "--painted", "5")
    assert result.returncode == 2
    assert "painted node out of range for rank 2" in result.stderr
    result = run_cli("check", "--family", "B", "--rank", "2", "--painted", "1,2")
    assert result.returncode == 2
    assert "every node is painted" in result.stderr
    result = run_cli("hessian", "--family", "B", "--rank", "2", "--painted", "1,2",
                     "--gamma", "1,0:1,0", "--field", "0,1:1,0")
    assert result.returncode == 2
    assert "every node is painted" in result.stderr
    # the averages are exact in time, so there is no node count to set
    result = run_cli("hessian", "--family", "A", "--rank", "3", "--gamma", "1,0,0,-1:1,0",
                     "--field", "1,-1,0,0:1,1", "--nodes", "64")
    assert result.returncode == 2
    assert "--nodes" in result.stderr
    # ell checks a given delta and support against the split, as auto does
    gamma = "1,-1,0,0:1,0;0,1,-1,0:1,0"
    for delta in ("0,1,-1,0", "auto"):
        result = run_cli("ell", "--family", "A", "--rank", "3", "--painted", "1",
                         "--gamma", gamma, "--delta", delta)
        assert result.returncode == 2
        assert "support roots outside the tangent positives" in result.stderr
        assert "1,-1,0,0" in result.stderr
    result = run_cli("ell", "--family", "A", "--rank", "3", "--delta", "2,0,0,0")
    assert result.returncode == 2
    assert "outside the tangent positives: 2,0,0,0" in result.stderr
    assert "does not contain it" not in result.stderr
    # a zero denominator in a coefficient is bad input, as in a root coordinate
    result = run_cli("hessian", "--family", "A", "--rank", "3", "--gamma", "1,0,0,-1:1/0,0",
                     "--field", "1,-1,0,0:1,1")
    assert result.returncode == 2
    assert "bad coefficient pair in '1,0,0,-1:1/0,0'" in result.stderr
    assert "Traceback" not in result.stderr
    result = run_cli("ell", "--family", "A", "--rank", "3", "--gamma", "1,0,0,-1:0,1/0")
    assert result.returncode == 2
    assert "bad coefficient pair in '1,0,0,-1:0,1/0'" in result.stderr
    assert "Traceback" not in result.stderr
    result = run_cli("ell", "--family", "A", "--rank", "3", "--gamma", "1,-1,0,0:0,0")
    assert result.returncode == 2
    assert "zero coefficient pair" in result.stderr
    # the sampling and the painted list are checked before any work, and named
    # as given
    for trials in ("0", "-5"):
        result = run_cli("check", "--family", "A", "--rank", "3", "--trials", trials)
        assert result.returncode == 2
        assert f"need trials >= 1 and seed >= 0, got {trials} and 0" in result.stderr
    result = run_cli("check", "--family", "A", "--rank", "3", "--trials", "2", "--seed", "-1")
    assert result.returncode == 2
    assert "need trials >= 1 and seed >= 0, got 2 and -1" in result.stderr
    result = run_cli("check", "--family", "A", "--rank", "3", "--painted", "1,1")
    assert result.returncode == 2
    assert "painted node listed more than once: [1]" in result.stderr
    result = run_cli("chevalley", "--family", "A", "--rank", "2",
                     "--csv", str(ROOT / "no-such-dir" / "c.csv"))
    assert result.returncode == 2
    assert "cannot write" in result.stderr
    # dimensions are non-negative
    for dims in (("--m", "-1", "--n", "2"), ("--m", "1", "--n", "-5")):
        result = run_cli("index-bound", "--family", "A", "--rank", "3", *dims)
        assert result.returncode == 2
        assert "--m and --n must be non-negative dimensions" in result.stderr


def test_internal_errors_exit_3(run_cli, monkeypatch):
    # a bare ValueError from the library is a failed invariant, not bad input
    def broken(*args, **kwargs):
        raise ValueError("invariant broken")

    monkeypatch.setattr(cli.geom, "identity_suite", broken)
    result = run_cli("check", "--family", "A", "--rank", "2", "--trials", "1")
    assert result.returncode == 3
    assert result.stderr.startswith("internal error")
    assert "Traceback" in result.stderr
    assert "ValueError: invariant broken" in result.stderr


# a large output (the E8 root list, about 11 KB) and a short report
CLOSED_STDOUT_ARGS = [("roots", "--family", "E", "--rank", "8", "--json"),
                      ("check", "--family", "A", "--rank", "3", "--suite", "integrability",
                       "--trials", "10", "--json")]


@pytest.mark.parametrize("args", CLOSED_STDOUT_ARGS, ids=["roots-E8", "check-A3"])
def test_closed_stdout_exits_141(args):
    # the reader of stdout is gone before the first write: one exit code for
    # every output size, and no traceback
    proc = subprocess.Popen([sys.executable, "-m", "flagmorse", *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_this_tree_env())
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli.EXIT_BROKEN_PIPE == 141
    assert stderr == b""


PAINTED_COMMANDS = [
    ("check", "--suite", "integrability", "--trials", "20"),
    ("ell", "--delta", "1,0,0,-1"),
    ("index-bound", "--m", "2", "--n", "2"),
    ("hessian", "--gamma", "1,0,0,-1:1,0", "--field", "1,0,-1,0:1,1"),
    ("parabolic",),
]


@pytest.mark.parametrize("command", PAINTED_COMMANDS, ids=[c[0] for c in PAINTED_COMMANDS])
def test_reports_echo_painted_nodes_one_based(run_cli, command):
    # every JSON report names the painted nodes as --painted numbers them
    for painted, want in (("2", [2]), ("3,1", [1, 3]), ("", [])):
        result = run_cli(*command, "--family", "A", "--rank", "3", "--painted", painted, "--json")
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert (payload["frame"] if command[0] == "check" else payload)["painted"] == want


def test_check_report_painted_replays(run_cli):
    # a report's painted list fed back to --painted builds the same space
    args = ("check", "--family", "D", "--rank", "4", "--suite", "integrability",
            "--trials", "20", "--json")

    def frame(painted):
        result = run_cli(*args, "--painted", painted)
        assert result.returncode == 0
        report = json.loads(result.stdout)
        jsonschema.validate(report, SCHEMA)
        return report["frame"]

    first = frame("2,4")
    assert first["painted"] == [2, 4]
    assert frame(",".join(map(str, first["painted"]))) == first
    # read 0-based, the same list would paint other nodes and build another space
    other = frame("1,3")
    assert (other["dim"], other["m_dim"]) != (first["dim"], first["m_dim"])


def _this_tree_env():
    """The environment with this tree's ``src`` first on the import path."""
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                         os.environ.get("PYTHONPATH")]))}


def test_readme_cli_examples_run(tmp_path):
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("flagmorse ")]
    assert len(lines) == 8
    # run from a temporary directory (one example writes a file), importing this tree
    env = _this_tree_env()
    for line in lines:
        result = subprocess.run([sys.executable, "-m", "flagmorse", *shlex.split(line)[1:]],
                                capture_output=True, text=True, cwd=tmp_path, env=env)
        assert result.returncode == 0, (line, result.stderr)


def test_readme_library_sketch_runs(tmp_path):
    section = (ROOT / "README.md").read_text().split("## Library sketch", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    result = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                            cwd=tmp_path, env=_this_tree_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["5"]  # the printed ell, as its comment says


def test_chevalley_csv(run_cli, tmp_path):
    out = tmp_path / "c.csv"
    result = run_cli("chevalley", "--family", "B", "--rank", "2", "--csv", str(out))
    assert result.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,beta,c"
    assert len(lines) == 1 + 24


def test_chevalley_a1_has_no_bracket_pairs(run_cli):
    result = run_cli("chevalley", "--family", "A", "--rank", "1", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["pairs"] == 0
    assert payload["n0"] is None
    plain = run_cli("chevalley", "--family", "A", "--rank", "1")
    assert plain.returncode == 0
    assert plain.stdout.strip() == "A1: no bracket pairs"
