"""Smoke test of the benchmark: every workload at tiny sizes, both modes.

    python3 perfbench/smoke.py

Checks that each run exits 0 with a correct result line, that every metric
``BENCHMARK.json`` names is there with its unit, that the job-level figures
of each workload are printed with their units, and that exact-sweep never
reaches the numeric layer.  Exits 1 on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOB_FIGURES = {
    "acceptance-frames": {"check_all_s": "s", "geodesic_jobs_per_s": "jobs/s"},
    "exceptional-frames": {"check_all_s": "s", "geodesic_jobs_per_s": "jobs/s"},
    "exact-sweep": {"exact_build_s": "s", "condition_cases_per_s": "cases/s",
                    "jacobi_triples_per_s": "triples/s", "ell_table_s": "s"},
}


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [*spec["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                fail(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{where}: {result['failed']} of {result['attempted']} jobs failed")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: row["unit"] for name, row in result["metrics"].items()}
            if got != want:
                fail(f"{where}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(got.items()) ^ set(want.items()))}")
            if trace == 0:
                zero = [n for n, row in result["metrics"].items() if not row["value"] > 0]
                if zero:
                    fail(f"{where}: end-to-end metrics not above 0: {zero}")
                printed = {**JOB_FIGURES[workload], "fail_ratio": "ratio", "wall_s": "s"}
                for name, unit in printed.items():
                    if not any(line.startswith(f"# {workload} {name} ")
                               and line.endswith(f" {unit}") for line in lines):
                        fail(f"{where}: job figure {name} ({unit}) not printed")
            elif workload == "exact-sweep":
                numeric = [n for n, row in result["metrics"].items()
                           if n.startswith("compact_geom.") and row["value"]]
                if numeric:
                    fail(f"{where}: the numeric layer was reached: {numeric}")
            print(f"ok {where}: {result['attempted']} jobs, {len(got)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
