"""capmink benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ``src/``.
Each run starts ``SETUP_ONLY`` (four) processes that only set up (imports, grid,
density, operators) and then one process that sets up and repeats the
timed phase for ``--seconds``.  Every process is closed-loop
and single-threaded (BLAS and OpenMP pinned to one thread).

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` untraced and traced repetitions alternate and it reports
the per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; a readable summary comes
before it, and the full record (environment, every repetition, self-time
table) is written to ``.perfbench_out/results/``.  The exit code is 0 only
when every correctness gate passed, and 2 when no program is found.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("manufactured-128", "sweep-branch-i")

SETUP_ONLY = 4
# a run must end within 180 s, the first one in a checkout included
HARD_LIMIT_S = 170.0
PR_SET_PDEATHSIG = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # harness checks only (perfbench/smoke.py): shrink the grid, inject failure
    ap.add_argument("--grid", default=None, help="NxM grid override")
    ap.add_argument("--max-newton", type=int, default=None)
    return ap.parse_args(argv)


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "capmink")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # every process compiles the package the same way, the first one included
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _die_with_parent():
    """Have the kernel kill the worker if this process dies first (Linux)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass


def spawn(req, env, timeout):
    """Run one worker process to completion; return its record."""
    t_spawn = time.monotonic()
    try:
        # on timeout subprocess.run kills the worker and waits for it
        proc = subprocess.run([sys.executable, WORKER, json.dumps(req)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=max(timeout, 1.0),
                              preexec_fn=_die_with_parent)
    except subprocess.TimeoutExpired:
        return {"mode": req["mode"], "reps": [], "crash": "timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rec = {"mode": req["mode"], "reps": []}
    if proc.returncode != 0 or "t_timed" not in rec:
        rec["crash"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    else:
        rec["setup_s"] = rec["t_timed"] - t_spawn
    return rec


def median(values):
    return statistics.median(values) if values else float("nan")


def per_solve_medians(reps):
    """Median time of each top-level solve of a repetition, over the repetitions.

    Every repetition makes the same solves in the same order, so the k-th
    sample of each one times the same problem.
    """
    counts = {len(rep["solve_s"]) for rep in reps}
    if len(counts) != 1:
        return []
    return [median(times) for times in zip(*(rep["solve_s"] for rep in reps))]


def aggregate(records, trace):
    """Metrics of one run, the attempted/failed operation counts, the self-time table."""
    full = [r for r in records if r["mode"] == "full"]
    reps = [rep for r in full for rep in r["reps"]]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(len(rep["failed"]) for rep in reps)
    # a process that crashed or failed to set up is one failed operation
    for r in records:
        if "crash" in r or "setup_error" in r:
            attempted += 1
            failed += 1
    untraced = [rep for rep in reps if not rep["traced"] and rep["wall_s"] is not None]
    traced = [rep for rep in reps if rep["traced"] and "layers" in rep]
    metrics = {
        "wall_s": median([rep["wall_s"] for rep in untraced]),
        "solve_s.p50": median(per_solve_medians(untraced)),
        "setup_s": median([r["setup_s"] for r in records if "setup_s" in r]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in full if "peak_rss_mb" in r]),
        "err_sup": median([rep["err_sup"] for rep in reps if rep["err_sup"] is not None]),
    }
    table = {}
    if trace and traced:
        for name in traced[-1]["layers"]:
            metrics[name] = median([rep["layers"][name] for rep in traced])
        for layer in traced[-1]["self_times"]:
            table[layer] = median([rep["self_times"].get(layer, 0.0) for rep in traced])
        metrics["trace.overhead_s"] = (median([rep["wall_s"] for rep in traced])
                                       - metrics["wall_s"])
    samples = {"wall_s": len(untraced),
               "solve_s.p50": len(per_solve_medians(untraced)),
               "setup_s": sum(1 for r in records if "setup_s" in r),
               "traced_reps": len(traced)}
    return metrics, samples, attempted, failed, table


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "capmink", "__init__.py")):
        print(f"error: no capmink sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    grid = None
    if args.grid:
        a, b = args.grid.lower().split("x")
        grid = [int(a), int(b)]

    start = time.monotonic()
    env = worker_env()
    digest = source_digest()
    base = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "grid": grid, "max_newton": args.max_newton, "src_digest": digest,
            "out_root": OUT_ROOT}
    records = []
    for _ in range(SETUP_ONLY):
        records.append(spawn(dict(base, mode="setup"), env,
                             start + HARD_LIMIT_S - time.monotonic()))
    records.append(spawn(dict(base, mode="full", seconds=args.seconds), env,
                         start + HARD_LIMIT_S - time.monotonic()))

    metrics, samples, attempted, failed, table = aggregate(records, args.trace)
    missing = [m["name"] for m in wanted
               if not math.isfinite(metrics.get(m["name"], math.nan))]
    correct = failed == 0 and not missing
    env_record = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        **next((r["versions"] for r in records if "versions" in r), {}),
        "git_commit": git_commit(),
        "src_digest": digest,
        "seed": args.seed,
        "threads": {var: env[var] for var in THREAD_VARS},
    }
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] not in missing},
    }
    detail = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "elapsed_s": time.monotonic() - start, "env": env_record,
              "failed_frac": result["failed"] / result["attempted"], "samples": samples,
              "missing_metrics": missing, "all_metrics": metrics, "self_time_table": table,
              "result": result, "processes": records}
    os.makedirs(os.path.join(OUT_ROOT, "results"), exist_ok=True)
    with open(os.path.join(OUT_ROOT, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True, default=str)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env_record.items() if k != "threads"))
    for m in wanted:
        if m["name"] not in missing:
            print(f"# {m['name']:32s} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"# samples {samples}  failed_frac={detail['failed_frac']:.3g}")
    if table:
        total = sum(table.values())
        print("# self time by layer (traced repetition, median)")
        for layer, s in sorted(table.items(), key=lambda kv: -kv[1]):
            print(f"#   {layer:12s} {s:9.4f} s  {100 * s / total:5.1f}%")
    for r in records:
        for problem in [r.get("crash"), r.get("setup_error")] + [
                rep.get("error") for rep in r["reps"]]:
            if problem:
                print(problem, file=sys.stderr)
        for rep in r["reps"]:
            if rep["failed"]:
                print(f"failed gates: {rep['failed']}", file=sys.stderr)
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
