"""flagmorse benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload, one after another (a closed loop with one
caller), each in a fresh single-threaded worker process with BLAS pinned to
one thread, until the next pass would end after ``--seconds``; at least one
pass always runs.  With ``--trace 1`` untraced and traced passes alternate.

Times are CPU seconds of the worker, at a reference speed.  The worker is
single-threaded, so on a core of its own its CPU time equals its wall time;
on a shared virtual machine CPU time leaves out the time the host ran
something else.  The host also slows the core itself for minutes at a time,
so each pass times a fixed calibration kernel (``worker.calibrate``) before
and after its jobs, and its times are scaled by ``REFERENCE_CALIBRATION_S``
over the kernel's time.  Each job's time is its median over the passes; a
metric over several jobs is the sum of their medians.  Raw CPU and wall
times are kept as figures.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` (jobs, over every pass) and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it record the machine, the versions, the
thread settings, the seed, wall times and the job-level figures with their
units, and each correctness check's worst value against its threshold.  The
full record goes to ``perfbench/results/``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
RESULTS = HERE / "results"
WORKLOADS = ("acceptance-frames", "exceptional-frames", "exact-sweep")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "FLAGMORSE_THREADS": "1"}
PASS_TIMEOUT_S = 150
# CPU seconds of the two calibration runs of a pass at the reference speed:
# about what they take on the 2-core machine the benchmark was tuned on
REFERENCE_CALIBRATION_S = 0.5

# Job-level figures, printed on the workloads that run those jobs, not gated:
# name -> (unit, job kind, None for seconds or what to count per second).
JOB_FIGURES = {
    "check_all_s": ("s", "check_all", None),
    "geodesic_jobs_per_s": ("jobs/s", "geodesic", "jobs"),
    "exact_build_s": ("s", "exact_build", None),
    "condition_cases_per_s": ("cases/s", "conditions", "cases"),
    "jacobi_triples_per_s": ("triples/s", "jacobi", "triples"),
    "ell_table_s": ("s", "ell_table", None),
}


def speed(rec: dict) -> float:
    """Factor taking a pass's CPU seconds to the reference speed."""
    return REFERENCE_CALIBRATION_S / rec["calibration_s"]


def job_medians(passes: list[dict]) -> list[tuple[dict, float]]:
    """Each job of the list, with its median scaled CPU seconds over the passes."""
    runs: dict[tuple, list[tuple[dict, float]]] = {}
    for rec in passes:
        for job in rec["jobs"]:
            runs.setdefault((job["kind"], job["label"]), []).append((job, job["cpu_s"] * speed(rec)))
    return [(same[0][0], statistics.median(t for _, t in same)) for same in runs.values()]


def median_of(rows, name: str) -> float:
    return statistics.median(row[name] for row in rows)


def figures(passes: list[dict]) -> dict:
    """End-to-end metrics and job-level figures over the untraced passes."""
    jobs = job_medians(passes)
    all_jobs = [j for rec in passes for j in rec["jobs"]]
    out = {
        "setup_s": statistics.median(r["setup_cpu_s"] * speed(r) for r in passes),
        "busy_s": sum(t for _, t in jobs),
        "cli_s": sum(t for j, t in jobs if j["via_cli"]),
        "api_s": sum(t for j, t in jobs if not j["via_cli"]),
        "peak_rss_mb": median_of(passes, "peak_rss_mb"),
        "verified_ratio": sum(j["ok"] for j in all_jobs) / len(all_jobs),
        "wall_s": median_of(passes, "wall_s"),
        "cpu_s": median_of(passes, "cpu_s"),
        "calibration_s": median_of(passes, "calibration_s"),
        "setup_wall_s": median_of(passes, "setup_s"),
        "fail_ratio": sum(not j["ok"] for j in all_jobs) / len(all_jobs),
    }
    for name, (_, kind, key) in JOB_FIGURES.items():
        mine = [(j, t) for j, t in jobs if j["kind"] == kind]
        if mine:
            seconds = sum(t for _, t in mine)
            done = len(mine) if key == "jobs" else sum(j["counts"].get(key, 0) for j, _ in mine)
            out[name] = seconds if key is None else done / seconds
    return out


def environment(seed: int) -> dict:
    import importlib.metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return None

    # importing what the workers import also fills the page cache before the
    # first pass, as for any user who runs the tool twice
    probe = ("import json, numpy, scipy.linalg, jsonschema; d = numpy.show_config(mode='dicts')"
             "['Build Dependencies']['blas']; print(json.dumps([d.get('name'), d.get('version')]))")
    blas = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, **PINNED}, timeout=60)
    return {
        "machine": platform.machine(), "processor": platform.processor(),
        "node": platform.node(), "system": platform.platform(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "jsonschema": version("jsonschema"),
        "blas": json.loads(blas.stdout) if blas.returncode == 0 else None,
        "threads": PINNED, "seed": seed,
    }


def run_pass(workload: str, seed: int, size: str, trace_out: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--size", size]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    launched = time.monotonic()
    proc = subprocess.run([*cmd, "--launched", repr(launched)], capture_output=True, text=True,
                          env={**os.environ, **PINNED}, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker pass failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge_gates(records: list[dict]) -> dict:
    out = {}
    for rec in records:
        for name, row in rec["gates"].items():
            if name not in out or row["worst"] > out[name]["worst"]:
                out[name] = row
    return dict(sorted(out.items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny is for the smoke test")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec = json.loads(SPEC.read_text())

    env = environment(args.seed)
    deadline = time.monotonic() + args.seconds
    plain, traced, longest = [], [], {False: 0.0, True: 0.0}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    while True:
        tracing = bool(args.trace) and len(traced) < len(plain)
        t0 = time.monotonic()
        trace_out = RESULTS / f"{tag}-pass{len(traced)}.spans.json" if tracing else None
        (traced if tracing else plain).append(run_pass(args.workload, args.seed, args.size,
                                                       trace_out))
        longest[tracing] = max(longest[tracing], time.monotonic() - t0)
        if args.trace and not traced:
            continue
        following = bool(args.trace) and len(traced) < len(plain)
        if time.monotonic() + longest[following] > deadline:
            break

    records = plain + traced
    attempted = sum(len(r["jobs"]) for r in records)
    failed = sum(not j["ok"] for r in records for j in r["jobs"])
    found = figures(plain)
    gated = {m["name"] for m in spec["end_to_end"]}
    if args.trace:
        overhead = figures(traced)["busy_s"] / found["busy_s"]
        layers = [r["layers"] for r in traced]
        metrics = {m["name"]: {"value": overhead if m["name"] == "trace.overhead_ratio"
                               else median_of(layers, m["name"]), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    units = {name: unit for name, (unit, _, _) in JOB_FIGURES.items()}
    units.update(wall_s="s", cpu_s="s", calibration_s="s", setup_wall_s="s", fail_ratio="ratio")
    info = {name: {"value": value, "unit": units[name]}
            for name, value in found.items() if name not in gated}

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": env,
              "passes": {"untraced": len(plain), "traced": len(traced)},
              "metrics": metrics, "figures": info,
              "checks": merge_gates(records),
              "failures": [f"{j['kind']}:{j['label']}: {j['error']}"
                           for r in records for j in r["jobs"] if not j["ok"]],
              "per_pass": [{k: r[k] for k in ("setup_s", "setup_cpu_s", "calibration_s", "wall_s",
                                              "cpu_s", "peak_rss_mb")} for r in records]}
    out_path = RESULTS / f"{tag}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"# environment {json.dumps(env)}")
    print(f"# passes untraced={len(plain)} traced={len(traced)}")
    for name, row in info.items():
        print(f"# {args.workload} {name} {row['value']:.6g} {row['unit']}")
    for name, row in record["checks"].items():
        print(f"# check {name} worst {row['worst']:.3e} threshold {row['threshold']:.1e}")
    for line in record["failures"]:
        print(f"# FAILED {line.strip().splitlines()[-1]}")
    print(f"# full record: {out_path.relative_to(HERE.parent)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
