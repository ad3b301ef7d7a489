"""Smoke test of the benchmark harness on 8x16 grids (about a minute).

    python3 perfbench/smoke.py

Checks that

1. every workload emits every end-to-end metric named in BENCHMARK.json
   with ``--trace 0`` and every per-layer metric with ``--trace 1``;
2. an injected failure (``--max-newton 1``) is counted in ``failed``, marks
   the run incorrect and gives a non-zero exit code;
3. the trace wrappers are removed before untraced timing: after a traced
   repetition every patched attribute holds its original object again, and
   an untraced repetition refuses to run while a wrapper is installed;
4. without the program's sources the harness exits non-zero and prints no
   result.

Exit code 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("manufactured-128", "sweep-branch-i")
FAILURES = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def run(args, cwd=ROOT, run_py=RUN):
    proc = subprocess.run([sys.executable, run_py, "--seed", "1", "--seconds", "1",
                           "--grid", "8x16", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result


def metrics_emitted(bench):
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(["--workload", workload, "--trace", str(trace)])
            names = {m["name"] for m in bench[key]}
            got = set(result["metrics"]) if result else set()
            check(code == 0 and result["correct"] and names == got,
                  f"{workload} trace={trace}: exit {code}, missing {sorted(names - got)}")


def failure_counted():
    # not the sweep: with one Newton step per solve its continuation creeps
    # forward in tiny steps and takes minutes before it gives up
    workload = "manufactured-128"
    code, result = run(["--workload", workload, "--trace", "0", "--max-newton", "1"])
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] > 0,
          f"{workload} max_newton=1: exit {code}, "
          f"failed {result and result['failed']} of {result and result['attempted']}")


def wrappers_removed():
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import scipy.sparse.linalg as spla

    import tracing
    import worker
    import workloads

    out_root = os.path.join(ROOT, ".perfbench_out", "smoke")
    wl = workloads.WORKLOADS["sweep-branch-i"]
    inp = wl.inputs(1, (8, 16))
    os.makedirs(out_root, exist_ok=True)
    ctx = {"inputs": inp, "src_digest": "smoke", "out_root": out_root, "work_dir": out_root,
           "rep_dir": os.path.join(out_root, "rep"), "max_newton": None,
           "spans_path": os.path.join(out_root, "spans.jsonl")}
    state = wl.setup(inp, ctx)
    modules = tracing._capmink_modules() + [spla]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}

    rep = worker._rep(wl, state, ctx, True, "smoke-traced")
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    changed = [k for k in before if after.get(k) is not before[k]]
    check(not rep["failed"] and rep["layers"]["lu.calls"] > 0,
          f"traced repetition ran and recorded spans ({rep.get('error')})")
    check(not changed and not tracing.installed_wrappers(),
          f"every patched attribute restored after tracing (changed: {changed[:5]})")

    tracer = tracing.Tracer("smoke-leak")
    tracer.install()
    try:
        rep = worker._rep(wl, state, ctx, False, "smoke-untraced")
    finally:
        tracer.uninstall()
    check(rep["wall_s"] is None and "trace wrappers left" in rep.get("error", "")
          and len(rep["failed"]) == rep["attempted"],
          "untraced repetition refuses to run with a wrapper installed")
    wl.close(state)


def no_program():
    bare = os.path.join(ROOT, ".perfbench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result = run(["--workload", "sweep-branch-i", "--trace", "0"], cwd=bare,
                       run_py=os.path.join(bare, "perfbench", "run.py"))
    check(code != 0 and result is None, f"no sources: exit {code}, no result printed")
    shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics_emitted(bench)
    failure_counted()
    wrappers_removed()
    no_program()
    print("smoke: " + ("PASS" if not FAILURES else f"FAIL ({len(FAILURES)})"))
    return 0 if not FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
