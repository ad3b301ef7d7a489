"""Command-line front end.

Subcommands: solve, sandwich, monitors, sweep, selftest, plotdata.
Exit codes: 0 success, 2 nonconvergence / failed check, 3 invalid config/usage.
Outputs are deterministic for identical configs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import fields
from types import SimpleNamespace

import numpy as np

from .errors import CapminkError, ConfigError, DomainError, UsageError
from .grid import (
    ScalarField,
    build_grid,
    bump_profile,
    curvature_tensor,
    ell_field,
    embed_body,
    field_from_csv,
    field_to_csv,
)
from .ellipsoid import cap_from_RH, make_cap
from .john import john_construct, verify_sandwich
from .monitors import (
    c0_bound_check,
    gradient_quotient,
    noncollapse_check,
    phi_monitor,
    q_monitor,
)
from .problem_io import (
    PROBLEM_KEYS,
    _flag,
    _known_keys,
    _number,
    _numbers,
    density_from_config,
    grid_size,
    load_problem,
    provenance_comment,
    read_config,
    resolved_config,
    solver_config,
    write_json_report,
    write_solve_artifacts,
)
from .solver import ProblemSpec, continuation_solve, pq_limit_solve

EXIT_OK = 0
EXIT_NONCONVERGED = 2
EXIT_CONFIG = 3


def _grid_arg(text: str) -> tuple[int, int]:
    """The --grid value NxM as (Nphi, Npsi)."""
    try:
        Nphi, Npsi = text.lower().split("x")
        return int(Nphi), int(Npsi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects NxM, got {text!r}") from None


# the top-level config keys each subcommand reads; any other one exits 3
_CONFIG_KEYS = {
    "solve": PROBLEM_KEYS,
    "sandwich": PROBLEM_KEYS + ("h_csv",),
    "monitors": PROBLEM_KEYS + ("gamma",),
    "sweep": ("p_values", "q_values", "theta_values")
             + tuple(k for k in PROBLEM_KEYS if k not in ("theta", "p", "q")),
}


def _load(args):
    doc = read_config(args.config)
    _known_keys(doc, _CONFIG_KEYS[args.command], "top-level config")
    return (doc, *load_problem(doc, args.grid))


def _solve(geom, spec, cfg):
    """(SolveResult, PqLimitResult or None); the one place that routes p == q.

    p != q calls this module's ``continuation_solve``, which perfbench times.
    """
    if spec.p == spec.q:
        pq = pq_limit_solve(spec, geom, cfg)
        return pq.solution, pq
    return continuation_solve(spec, geom, cfg), None


def cmd_solve(args) -> int:
    doc, geom, spec, cfg = _load(args)
    result, pq = _solve(geom, spec, cfg)
    config = resolved_config(doc, geom, cfg)
    write_solve_artifacts(args.out, result, config)
    if pq is not None:  # every field but the solution, whose residual it adds
        doc = {f.name: getattr(pq, f.name) for f in fields(pq) if f.name != "solution"}
        doc["residual_sup"] = result.residual_sup
        write_json_report(os.path.join(args.out, "pq_limit.json"), doc, config)
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def cmd_sandwich(args) -> int:
    doc, geom, spec, cfg = _load(args)
    if "h_csv" in doc:
        path = doc["h_csv"]
        # open() would read an integer as a file descriptor, and close it
        if not isinstance(path, str) or not path:
            raise ConfigError(f"h_csv must be a non-empty path string, got {path!r}")
        h = field_from_csv(path, geom.theta)
        geom = h.geometry
    else:
        result, _ = _solve(geom, spec, cfg)
        if not result.converged:
            return EXIT_NONCONVERGED
        h = result.h
    body = embed_body(geom, h)
    cap, factor = john_construct(body.extents, geom.theta)
    report = verify_sandwich(geom, h, cap, factor)
    config = resolved_config(doc, geom, cfg)  # the grid of the field certified
    os.makedirs(args.out, exist_ok=True)
    write_json_report(os.path.join(args.out, "sandwich.json"), report, config)
    field_to_csv(ScalarField(geom, report.ratio), os.path.join(args.out, "sandwich_ratio.csv"),
                 provenance_comment(config))
    return EXIT_OK if report.passed else EXIT_NONCONVERGED


def cmd_monitors(args) -> int:
    doc, geom, spec, cfg = _load(args)
    gamma = _number(doc, "gamma", 1.0)
    if not 0.0 < gamma < 2.0:  # checked before the solve, not after it
        raise ConfigError(f"gamma must lie in (0, 2), got {gamma}")
    config = resolved_config(doc, geom, cfg)
    result, _ = _solve(geom, spec, cfg)
    if not result.converged:
        return EXIT_NONCONVERGED
    h = result.h
    gq = gradient_quotient(geom, h, gamma)
    body = embed_body(geom, h)
    payload = {"gamma": gamma, "gradient_quotient": gq}  # each block a monitor's record
    try:
        cap, factor = john_construct(body.extents, geom.theta)
        nc = noncollapse_check(geom, h, gamma, max(gq.N_observed, 1e-12), factor)
        payload["noncollapse"], ok = nc, nc.passed
    except CapminkError as exc:
        payload["noncollapse"], ok = {"error": str(exc)}, True
    payload["phi_monitor"] = phi_monitor(geom, result.u, gamma)
    payload["q_monitor"] = q_monitor(geom, h, spec.q)
    if spec.p != spec.q:
        lo, hi, payload["c0_bound"] = c0_bound_check(geom, h, spec, cfg)
        ok = ok and lo and hi
    os.makedirs(args.out, exist_ok=True)
    write_json_report(os.path.join(args.out, "monitors.json"), payload, config)
    return EXIT_OK if ok else EXIT_NONCONVERGED


@functools.lru_cache(maxsize=None)
def _sweep_grid(theta: float, Nphi: int, Npsi: int):
    """The sweep's grid for one theta, built once per sweep.

    Every sweep cell with this theta shares the geometry and with it the
    operators cached on it, all of which depend on the geometry alone.
    ``cmd_sweep`` clears the memo when it starts and when it ends, so one
    ``capmink sweep`` builds one grid per distinct theta and nothing outlives
    it; each ``--jobs`` worker keeps its own memo.
    """
    return build_grid(theta, Nphi, Npsi)


def _sweep_entry(task):
    """One sweep cell (runs in a worker): (plain row dict, config error flag).

    Every error is written to the row; the flag marks a cell whose problem
    could not be built from its configuration, which makes the sweep exit
    with EXIT_CONFIG.
    """
    (p, q, theta, fcfg, Nphi, Npsi, cfg) = task
    row = {"p": p, "q": q, "theta": theta, "converged": 0,
           "ratio": "", "lambda_min": "", "sigma1_max": "", "error": ""}
    config_error = True
    try:
        geom = _sweep_grid(theta, Nphi, Npsi)
        f = density_from_config(geom, fcfg, p, q)
        spec = ProblemSpec(p=p, q=q, theta=theta, f=f, even=True)
        config_error = False
        result, _ = _solve(geom, spec, cfg)
        h = result.h
        cd = curvature_tensor(geom, h)
        row.update(
            converged=int(result.converged),
            ratio=f"{float(np.max(h.values) / np.min(h.values)):.12g}",
            lambda_min=f"{cd.lambda_min:.12g}",
            sigma1_max=f"{float(np.max(cd.sigma1)):.12g}",
        )
    except CapminkError as exc:
        row["error"] = str(exc)
        return row, config_error
    return row, False


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    doc = read_config(args.config)
    _known_keys(doc, _CONFIG_KEYS["sweep"], "top-level sweep config")
    ps, qs, thetas = (_numbers(doc, k) for k in ("p_values", "q_values", "theta_values"))
    if not _flag(doc, "even", True) or _flag(doc, "allow_unsupported"):  # as _sweep_entry
        raise ConfigError("sweep takes only even: true, allow_unsupported: false")
    fcfg = doc.get("f", {"kind": "constant"})
    grid = grid_size(doc.get("grid", {}), (24, 48))  # read even when --grid overrides it
    Nphi, Npsi = args.grid or grid
    cfg = solver_config(doc.get("solver", {}))
    tasks = [
        (p, q, th, fcfg, Nphi, Npsi, cfg)
        for p, q, th in itertools.product(ps, qs, thetas)
    ]
    # the pool forks all of its workers up front: no more than there are cells
    workers = min(args.jobs, len(tasks))
    _sweep_grid.cache_clear()
    try:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                cells = list(pool.map(_sweep_entry, tasks))
        else:
            cells = [_sweep_entry(t) for t in tasks]
    finally:
        _sweep_grid.cache_clear()
    rows = [row for row, _ in cells]
    os.makedirs(args.out, exist_ok=True)
    config = resolved_config(doc, SimpleNamespace(Nphi=Nphi, Npsi=Npsi), cfg)
    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w", newline="") as fh:
        fh.write(f"# {provenance_comment(config)}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    if any(config_error for _, config_error in cells):
        return EXIT_CONFIG
    return EXIT_OK if all(r["converged"] for r in rows) else EXIT_NONCONVERGED


def cmd_selftest(args) -> int:
    """Identity, round-trip, and boundary suites on a small grid."""
    t0 = time.time()
    Nphi, Npsi = args.grid or (32, 64)
    if Npsi == 4:  # cos(2 psi) has no tangential gradient at psi = j pi/2
        raise ConfigError("selftest needs Npsi >= 6: on 4 azimuths the boundary identity "
                          "field has no tangential gradient")
    rng = np.random.default_rng(args.seed)
    failures = []

    # ell identity: b(ell) = I to second order
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        geom = build_grid(theta, Nphi, Npsi)
        cd = curvature_tensor(geom, ell_field(geom))
        defect = max(
            float(np.max(np.abs(cd.b11 - 1.0))),
            float(np.max(np.abs(cd.b22 - 1.0))),
            float(np.max(np.abs(cd.b12))),
        )
        if defect > 5.0 * geom.grid_eps():
            failures.append(f"ell identity at theta={theta:.4f}: defect {defect:.3g}")

    # ellipsoid cap round trip; ranges keep the inverse map's condition
    # number (1 + lam) / (1 - lam) small enough for the 1e-12 tolerance
    for _ in range(2000):
        a = float(rng.uniform(0.4, 2.5))
        b = float(rng.uniform(0.4, 2.5))
        theta = float(rng.uniform(0.35, math.pi / 2))
        cap = make_cap(a, b, theta)
        back = cap_from_RH(cap.R, cap.H, theta)
        if abs(back.a - a) > 1e-12 * a or abs(back.b - b) > 1e-12 * b:
            failures.append(f"round trip failed at (a,b,theta)=({a},{b},{theta})")
            break

    # boundary identity of the log-gradient monitor on Neumann fields
    for theta in (math.pi / 4, math.pi / 3):
        geom = build_grid(theta, Nphi, Npsi)
        phi = geom.phi_nodes[:, None]
        psi = geom.psi_nodes[None, :]
        u = ScalarField(
            geom, 1.0 + 0.1 * np.cos(2 * psi) * bump_profile(phi, theta)
        )
        for gamma in (0.5, 1.0):
            rep = phi_monitor(geom, u, gamma)
            # the range spans only the nodes where the identity holds
            err = max(abs(v - rep.target) for v in rep.boundary_derivative_range)
            if err > 50.0 * math.sqrt(geom.grid_eps()):
                failures.append(
                    f"boundary identity theta={theta:.4f} gamma={gamma}: err {err:.3g}"
                )

    # CSV writer: a field tiled from Npsi/2 cells is written from its period,
    # and 0.0 against -0.0 across the half turn breaks that period; both are
    # written byte for byte as csv.writer writes them
    geom = build_grid(math.pi / 3, Nphi, Npsi)
    half = Npsi // 2
    vals = np.tile(rng.uniform(-2.0, 2.0, (Nphi, half)), (1, 2))
    vals[1, [0, half]] = -0.0
    with tempfile.TemporaryDirectory() as tmp:
        for broken in (False, True):
            vals[2, [1, 1 + half]] = (0.0, -0.0) if broken else (-0.0, -0.0)
            path = os.path.join(tmp, "field.csv")
            field_to_csv(ScalarField(geom, vals), path)
            ref = io.StringIO(newline="")
            writer = csv.writer(ref)
            writer.writerow(["i", "j", "phi", "psi", "value"])
            for (i, j), v in np.ndenumerate(vals):
                writer.writerow([i + 1, j, f"{geom.phi_nodes[i]:.17g}",
                                 f"{geom.psi_nodes[j]:.17g}", f"{v:.17g}"])
            with open(path, "rb") as fh:
                if fh.read() != ref.getvalue().encode():
                    failures.append(f"CSV bytes differ from csv.writer (period broken: {broken})")

    elapsed = time.time() - t0
    for line in failures:
        print(f"FAIL: {line}")
    print(f"selftest: {'PASS' if not failures else 'FAIL'} ({elapsed:.2f}s)")
    return EXIT_OK if not failures else EXIT_NONCONVERGED


def cmd_plotdata(args) -> int:
    """Convert result artifacts into plot-ready long-format CSV tables."""
    src = args.artifacts
    if not os.path.isdir(src):
        raise ConfigError(f"artifact directory {src!r} does not exist")
    os.makedirs(args.out, exist_ok=True)
    wrote = []
    result_path = os.path.join(src, "result.json")
    solution_path = os.path.join(src, "solution.csv")
    if os.path.exists(result_path) and os.path.exists(solution_path):
        theta = _number(read_config(result_path)["config"], "theta")
        try:
            h = field_from_csv(solution_path, theta)
        except DomainError as exc:  # theta outside (0, pi/2], as load_problem refuses it
            raise ConfigError(f"{result_path}: {exc}") from exc
        path = os.path.join(args.out, "h_profile.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["phi", "h"])
            for i in range(h.geometry.Nphi):
                writer.writerow(
                    [f"{h.geometry.phi_nodes[i]:.17g}", f"{h.values[i, 0]:.17g}"]
                )
        wrote.append(path)
    trace_path = os.path.join(src, "newton_trace.csv")
    if os.path.exists(trace_path):
        out = os.path.join(args.out, "trace.csv")
        with open(trace_path) as fin, open(out, "w") as fout:
            for line in fin:
                if not line.startswith("#"):
                    fout.write(line)
        wrote.append(out)
    ratio_path = os.path.join(src, "sandwich_ratio.csv")
    if os.path.exists(ratio_path):
        out = os.path.join(args.out, "sandwich_field.csv")
        with open(ratio_path) as fin, open(out, "w") as fout:
            fout.write("phi,psi,ratio\n")
            reader = csv.DictReader(
                line for line in fin if not line.startswith("#")
            )
            for row in reader:
                fout.write(f"{row['phi']},{row['psi']},{row['value']}\n")
        wrote.append(out)
    if not wrote:
        raise ConfigError(f"no recognized artifacts under {src!r}")
    for path in wrote:
        print(path)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 3 (EXIT_CONFIG), not 2
        raise ConfigError(f"{self.prog}: {message}")


_FLAGS = {
    "--config": dict(required=True, help="problem JSON file"),
    "--out": dict(default="out", help="output directory"),
    "--grid": dict(type=_grid_arg, help="grid override, NxM"),
    "--jobs": dict(type=int, default=1, help="worker processes, at least 1"),
    "--seed": dict(type=int, default=0, help="RNG seed"),
    "--artifacts": dict(required=True, help="directory with solve/sandwich artifacts"),
}
_PROBLEM_FLAGS = ("--config", "--out", "--grid")
# each subcommand registers only the flags it reads
_COMMANDS = (
    ("solve", cmd_solve, "solve a problem file and write artifacts", _PROBLEM_FLAGS),
    ("sandwich", cmd_sandwich, "solve and verify the John-type sandwich", _PROBLEM_FLAGS),
    ("monitors", cmd_monitors, "solve and evaluate all estimate monitors", _PROBLEM_FLAGS),
    ("sweep", cmd_sweep, "run a (p, q, theta) sweep to CSV", _PROBLEM_FLAGS + ("--jobs",)),
    ("selftest", cmd_selftest, "run identity/round-trip/boundary suites", ("--grid", "--seed")),
    ("plotdata", cmd_plotdata, "emit plot-ready tables from artifacts", ("--artifacts", "--out")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="capmink",
        description="Capillary L_p dual Minkowski problem: solver and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_, flags in _COMMANDS:
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ConfigError, UsageError, OSError, json.JSONDecodeError, KeyError,
            MemoryError) as exc:  # MemoryError: a grid too large for this machine
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapminkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
