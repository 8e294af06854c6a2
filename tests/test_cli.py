import json
import pathlib
import subprocess
import sys

import jsonschema

SCHEMA = json.loads(
    (pathlib.Path(__file__).parents[1] / "docs" / "report-schema.json").read_text()
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "flagmorse", *args],
        capture_output=True,
        text=True,
    )


def test_ell_table_plain():
    result = run_cli("ell-table")
    assert result.returncode == 0
    lines = [l for l in result.stdout.splitlines() if l.strip() and not l.startswith("improvement")]
    assert len(lines) == 8  # header plus the seven family rows
    assert "E       11/17/29  8     29      29        yes" in result.stdout


def test_ell_table_json():
    result = run_cli("ell-table", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    got = {(r["family"], r["rank"]): r["lookup"] for r in payload["rows"]}
    assert got == {("A", 3): 3, ("B", 3): 4, ("C", 3): 3, ("D", 4): 5,
                   ("E", 6): 11, ("E", 7): 17, ("E", 8): 29}
    assert all(r["match"] for r in payload["rows"])


def test_index_bound_example():
    result = run_cli("index-bound", "--m", "2", "--n", "2",
                     "--family", "A", "--rank", "3", "--painted", "2,3", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["v"] == 3
    assert payload["ell"] == 3
    assert payload["lambda0"] == 1
    assert payload["index_bound"] == 2


def test_roots_json_matches_library():
    from flagmorse.rootsys import build_root_system

    result = run_cli("roots", "--family", "C", "--rank", "3", "--json")
    assert result.returncode == 0
    assert json.loads(result.stdout) == build_root_system("C", 3).to_json_dict()
    assert json.loads(result.stdout)["scale"] == "1/2"


def test_parabolic_render():
    result = run_cli("parabolic", "--family", "A", "--rank", "3", "--painted", "2,3")
    assert result.returncode == 0
    assert "oxx" in result.stdout
    assert "v = 3" in result.stdout


def test_ell_command_auto_delta():
    result = run_cli("ell", "--family", "B", "--rank", "3",
                     "--gamma", "0,1,0:1,0;1,1,0:0,1", "--delta", "auto", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["delta"] == "0,1,0"
    assert payload["condition1"]["ok"] and payload["condition2"]["ok"]


def test_check_json_deterministic_and_schema():
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


def test_check_all_suites_small():
    result = run_cli("check", "--suite", "all", "--family", "A", "--rank", "2",
                     "--trials", "400", "--seed", "1")
    assert result.returncode == 0
    assert "overall: pass" in result.stdout


def test_hessian_agreement():
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


def test_usage_errors_exit_2():
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


def test_chevalley_csv(tmp_path):
    out = tmp_path / "c.csv"
    result = run_cli("chevalley", "--family", "B", "--rank", "2", "--csv", str(out))
    assert result.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,beta,c"
    assert len(lines) == 1 + 24


def test_chevalley_a1_has_no_bracket_pairs():
    result = run_cli("chevalley", "--family", "A", "--rank", "1", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["pairs"] == 0
    assert payload["n0"] is None
    plain = run_cli("chevalley", "--family", "A", "--rank", "1")
    assert plain.returncode == 0
    assert plain.stdout.strip() == "A1: no bracket pairs"
