"""One benchmark process: set up a workload, time repetitions, report.

Started by ``perfbench/run.py`` with one JSON argument (the request); the
last line of standard output is a JSON record.  Mode ``setup`` stops after
set-up; mode ``full`` then repeats the timed phase for the requested
seconds, starting another repetition only while one as long as the last
still fits (and at least ``MIN_REPS`` times).  With tracing on, untraced and traced
repetitions alternate, starting untraced.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import tracing
import workloads

MIN_REPS = 2
MAX_REPS = 200


def _rep(wl, state, ctx, traced, run_id):
    gates = workloads.Gates(wl.gate_names)
    rep = {"traced": traced, "wall_s": None, "solve_s": [], "err_sup": None}
    tracer = tracing.Tracer(run_id) if traced else None
    try:
        if not traced:
            left = tracing.installed_wrappers()
            if left:
                raise RuntimeError(f"trace wrappers left before untraced timing: {left}")
        if tracer is not None:
            tracer.install()
        try:
            c0 = time.process_time()
            t0 = time.perf_counter()
            if tracer is not None:
                (out, solves), _ = tracer.call("bench", "bench.rep", wl.run, (state, ctx), {})
            else:
                out, solves = wl.run(state, ctx)
            rep["wall_s"] = time.perf_counter() - t0
            rep["cpu_s"] = time.process_time() - c0
        finally:
            if tracer is not None:
                tracer.uninstall()
        rep["solve_s"] = solves
        rep["err_sup"] = wl.check(state, out, ctx, gates)
    except Exception:
        rep["error"] = traceback.format_exc(limit=4)
    rep["attempted"] = gates.attempted
    rep["failed"] = gates.failed
    if tracer is not None and rep["wall_s"] is not None:
        rep["layers"] = tracing.layer_metrics(tracer.spans)
        rep["self_times"] = tracing.self_times(tracer.spans)
        tracer.write(ctx["spans_path"])
    return rep


def main(argv) -> int:
    req = json.loads(argv[1])
    wl = workloads.WORKLOADS[req["workload"]]
    inp = wl.inputs(req["seed"], req.get("grid"))
    out_root = req["out_root"]
    work_dir = os.path.join(out_root, "work", wl.name)
    os.makedirs(work_dir, exist_ok=True)
    ctx = {"inputs": inp, "src_digest": req["src_digest"], "out_root": out_root,
           "work_dir": work_dir, "rep_dir": os.path.join(work_dir, "rep"),
           "max_newton": req.get("max_newton"),
           "spans_path": os.path.join(out_root, "spans", f"{wl.name}-seed{req['seed']}.jsonl")}
    rec = {"mode": req["mode"], "reps": [], "inputs": inp}
    try:
        state = wl.setup(inp, ctx)
    except Exception:
        rec["setup_error"] = traceback.format_exc(limit=4)
        print(json.dumps(rec))
        return 0
    rec["t_timed"] = time.monotonic()
    import numpy
    import scipy

    rec["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if req["mode"] == "full":
        deadline = rec["t_timed"] + req["seconds"]
        while len(rec["reps"]) < MAX_REPS:
            k = len(rec["reps"])
            traced = bool(req["trace"]) and k % 2 == 1
            t0 = time.monotonic()
            rep = _rep(wl, state, ctx, traced,
                       f"{wl.name}-seed{req['seed']}-rep{k}{'-traced' if traced else ''}")
            rec["reps"].append(rep)
            last = time.monotonic() - t0
            if rep["failed"] or len(rec["reps"]) >= MIN_REPS and (
                    time.monotonic() + last > deadline):
                break
        if hasattr(wl, "close"):
            wl.close(state)
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
