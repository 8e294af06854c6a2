"""One pass of a workload in a fresh process: set up, run the job list, report.

Started by ``run.py`` once per pass, so every pass pays its own cold
root-system, Chevalley and frame builds, as a ``flagmorse`` CLI invocation
does.  Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload W --seed N --size full \\
        --launched <time.monotonic() at launch> [--trace-out FILE]
"""

import os

# Pinned before numpy is imported: one BLAS thread and no suite pool.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "FLAGMORSE_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.linalg import expm  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import flagmorse  # noqa: E402

if SRC not in Path(flagmorse.__file__).resolve().parents:
    sys.exit(f"flagmorse was imported from {flagmorse.__file__}, not from {SRC}")

import spans  # noqa: E402
import workloads  # noqa: E402

SUITE_NAMES = ("integrability", "mel", "onemel", "twomel", "curvature", "ceh-chain")


def calibrate() -> float:
    """CPU seconds of a fixed kernel that runs no package code: exact
    rational arithmetic over a dict, as in the exact layer, and a dense
    contraction with matrix exponentials, as in the numeric layer.

    The host of a shared virtual machine slows every process on a core for
    minutes at a time; this kernel slows with it.
    """
    start = time.process_time()
    acc, table = Fraction(0), {}
    for i in range(1, 20000):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        key = (i % 97, i % 89, -(i % 83))
        table[key] = table.get(key, 0) + 1
    rng = np.random.default_rng(0)
    tensor = rng.standard_normal((64, 64, 64))
    x = rng.standard_normal((100, 64))
    m = 0.1 * rng.standard_normal((96, 96))
    for _ in range(3):
        np.einsum("ni,nj,ijk->nk", x, x, tensor, optimize=True)
    for _ in range(6):
        expm(m)
    return time.process_time() - start


def run_jobs(jobs, gates, tracer) -> list[dict]:
    """Run the jobs in order; each record has its wall and CPU seconds."""
    records = []
    for job in jobs:
        start, cpu_start = time.perf_counter(), time.process_time()
        error = None
        counts = {}
        try:
            if tracer is None:
                counts = job.run(gates)
            else:
                with tracer.job(job.kind):
                    counts = job.run(gates)
        except workloads.GateFailed as exc:
            error = str(exc)
        except Exception:  # a crash in one job fails that job, not the pass
            error = traceback.format_exc()
        records.append({"kind": job.kind, "label": job.label, "via_cli": job.via_cli,
                        "seconds": time.perf_counter() - start,
                        "cpu_s": time.process_time() - cpu_start, "ok": error is None,
                        "error": error, "counts": counts})
    return records


def layer_metrics(tracer, n_timed: int, records: list[dict], probed: dict) -> dict:
    """Per-layer metrics: summed self time or counts at the layer boundaries."""
    by_name = spans.summarize(tracer.spans, 0, n_timed)
    probe = spans.summarize(tracer.spans, n_timed)

    def self_s(*names):
        return sum(by_name[n]["self_s"] for n in names if n in by_name)

    def total_s(table, name):
        return table[name]["total_s"] if name in table else 0.0

    def count(key, kind=None):
        return sum(r["counts"].get(key, 0) for r in records if kind in (None, r["kind"]))

    systems = {(s.family, s.rank): s for s in tracer.results["rootsys.build_root_system"]}
    chevs = {(d.sys.family, d.sys.rank): d for d in tracer.results["chevalley.build_chevalley"]}
    triples = count("triples", "jacobi")
    out = {
        "rootsys.build_s": self_s("rootsys.build_root_system"),
        "rootsys.systems": len(systems),
        "chevalley.build_s": self_s("chevalley.build_chevalley"),
        "chevalley.constants": sum(len(d.all_pairs()) for d in chevs.values()),
        "chevalley.bracket_c_s": self_s("chevalley.bracket_c"),
        "chevalley.bracket_c_calls": by_name.get("chevalley.bracket_c", {}).get("calls", 0),
        "chevalley.jacobi_s": total_s(by_name, "job.jacobi"),
        "chevalley.jacobi_nontrivial_ratio": count("nontrivial", "jacobi") / triples if triples else 0.0,
        "parabolic.split_s": self_s("parabolic.split", "parabolic.borel_split"),
        "parabolic.splits": by_name.get("parabolic.split", {}).get("calls", 0),
        "index_comb.superminimal_s": self_s("index_comb.superminimal"),
        "index_comb.st_sets_s": self_s("index_comb.st_sets"),
        "index_comb.conditions_s": self_s("index_comb.condition1", "index_comb.condition2"),
        "index_comb.case_analysis_s": self_s("index_comb.b_case_sets",
                                             "index_comb.c_case_starred_sets"),
        "index_comb.cases": sum(by_name[n]["entries"] for n in
                                ("index_comb.st_sets", "index_comb.b_case_sets",
                                 "index_comb.c_case_starred_sets") if n in by_name),
        "compact_geom.build_frame_s": self_s("compact_geom.build_frame"),
        "compact_geom.build_frame_peak_mb": probed.get("build_frame_peak_mb", 0.0),
        "compact_geom.frame_bytes": probed.get("frame_bytes", 0),
        "compact_geom.validate_frame_s": self_s("compact_geom.validate_frame"),
        "compact_geom.suite_trials": count("suite_trials", "check_all"),
        "compact_geom.bracket_s": total_s(probe, "probe.bracket"),
        "compact_geom.transport_s": self_s("compact_geom.hat_transport",
                                           "compact_geom.r_operator"),
        "compact_geom.hessian_s": self_s("compact_geom.complex_hessian_many",
                                         "compact_geom.complex_hessian"),
        "compact_geom.map_I_s": self_s("compact_geom.map_I"),
        "compact_geom.k_search_s": self_s("compact_geom.k_search"),
        "compact_geom.k_search_halvings": count("halvings", "geodesic"),
        # inclusive: the exact bracket_c work inside the numeric job
        "compact_geom.classify_s": total_s(by_name,
                                           "compact_geom.holomorphic_kernel_classification"),
        "cli.self_s": sum(row["self_s"] for name, row in by_name.items()
                          if spans.layer_of(name) == "cli"),
        "cli.json_bytes": count("json_bytes"),
    }
    for suite in SUITE_NAMES:
        out[f"compact_geom.suite.{suite}_s"] = total_s(probe, f"probe.suite.{suite}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--launched", required=True, type=float)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    tracer = None
    if args.trace_out:
        tracer = spans.Tracer()
        tracer.install(flagmorse)
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    jobs = workloads.build_jobs(args.workload, inputs)
    gates = workloads.Gates()

    # CPU seconds since the process started: interpreter start, imports and
    # input generation
    setup_cpu_s = time.process_time()
    setup_s = time.monotonic() - args.launched
    calibration_s = calibrate()
    start, cpu_start = time.monotonic(), time.process_time()
    records = run_jobs(jobs, gates, tracer)
    wall_s = time.monotonic() - start
    cpu_s = time.process_time() - cpu_start
    calibration_s += calibrate()
    missing = sorted(workloads.REQUIRED_GATES[args.workload] - set(gates.worst))
    if missing:
        records.append({"kind": "coverage", "label": "required gates", "via_cli": False,
                        "seconds": 0.0, "cpu_s": 0.0, "ok": False, "counts": {},
                        "error": f"gates never reached: {missing}"})

    result = {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s, "calibration_s": calibration_s,
              "wall_s": wall_s, "cpu_s": cpu_s, "jobs": records, "gates": gates.report()}
    if tracer is not None:
        n_timed = len(tracer.spans)
        probed = workloads.probes(args.workload, inputs, tracer)
        result["layers"] = layer_metrics(tracer, n_timed, records, probed)
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(json.dumps({
            "fields": ["id", "name", "start", "end", "parent", "job"],
            "timed_spans": n_timed,
            "job_labels": [f"{r['kind']}:{r['label']}" for r in records],
            "spans": tracer.spans,
        }))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
