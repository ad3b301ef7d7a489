"""Command-line front end.

Subcommands: solve, sandwich, monitors, sweep, selftest, plotdata.
Exit codes: 0 success, 2 nonconvergence / failed check, 3 invalid config.
Outputs are deterministic for identical configs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from .errors import CapminkError, ConfigError, UsageError
from .grid import (
    ScalarField,
    build_grid,
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
    density_from_config,
    grid_size,
    load_problem,
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


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError as exc:
        raise ConfigError(f"--grid expects NxM, got {text!r}") from exc


def _load(args):
    if args.config is None:
        raise ConfigError("--config is required for this command")
    override = _parse_grid(args.grid) if args.grid else None
    doc = read_config(args.config)
    return (doc, *load_problem(doc, override))


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
    if pq is not None:
        write_json_report(
            os.path.join(args.out, "pq_limit.json"),
            {
                "C_star": pq.C_star,
                "C_eps": pq.C_eps,
                "eps_schedule": pq.eps_schedule,
                "diffs": pq.diffs,
                "residual_sup": pq.residual_sup,
            },
            config,
        )
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def cmd_sandwich(args) -> int:
    doc, geom, spec, cfg = _load(args)
    config = resolved_config(doc, geom, cfg)
    if doc.get("h_csv"):
        h = field_from_csv(doc["h_csv"], geom.theta)
        geom = h.geometry
    else:
        result, _ = _solve(geom, spec, cfg)
        if not result.converged:
            return EXIT_NONCONVERGED
        h = result.h
    body = embed_body(geom, h)
    cap, factor = john_construct(body.extents, geom.theta)
    report = verify_sandwich(geom, h, cap, factor)
    os.makedirs(args.out, exist_ok=True)
    write_json_report(
        os.path.join(args.out, "sandwich.json"), report.to_json_dict(), config
    )
    from .ellipsoid import cap_support

    ratio = ScalarField(geom, h.values / cap_support(geom, cap).values)
    field_to_csv(ratio, os.path.join(args.out, "sandwich_ratio.csv"))
    return EXIT_OK if report.passed else EXIT_NONCONVERGED


def cmd_monitors(args) -> int:
    doc, geom, spec, cfg = _load(args)
    config = resolved_config(doc, geom, cfg)
    result, _ = _solve(geom, spec, cfg)
    if not result.converged:
        return EXIT_NONCONVERGED
    h = result.h
    gamma = float(doc.get("gamma", 1.0))
    gq = gradient_quotient(geom, h, gamma)
    body = embed_body(geom, h)
    payload = {
        "gamma": gamma,
        "gradient_quotient": {
            "N_observed": gq.N_observed,
            "argmax_phi": gq.argmax_phi,
            "argmax_psi": gq.argmax_psi,
        },
    }
    try:
        cap, factor = john_construct(body.extents, geom.theta)
        nc = noncollapse_check(geom, h, gamma, max(gq.N_observed, 1e-12), factor)
        payload["noncollapse"] = {
            "ratio": nc.ratio,
            "bound_case1": nc.bound_case1,
            "bound_case2": nc.bound_case2,
            "pass": nc.passed,
        }
    except CapminkError as exc:
        payload["noncollapse"] = {"error": str(exc)}
    pm = phi_monitor(geom, result.u, gamma)
    payload["phi_monitor"] = {
        "interior_max": pm.interior_max,
        "degenerate": pm.degenerate,
        "boundary_derivative_range": [
            float(np.nanmin(pm.boundary_derivative))
            if np.any(np.isfinite(pm.boundary_derivative))
            else None,
            float(np.nanmax(pm.boundary_derivative))
            if np.any(np.isfinite(pm.boundary_derivative))
            else None,
        ],
        "target": -gamma * geom.cot_theta,
    }
    qc, qfield, qloc = q_monitor(geom, h, spec.q)
    payload["q_monitor"] = {
        "A": qc.A,
        "B": qc.B,
        "max": float(np.max(qfield.values)),
        "argmax": list(qloc),
    }
    if spec.p != spec.q:
        lo, hi, det = c0_bound_check(geom, h, spec)
        payload["c0_bound"] = {"lower_pass": lo, "upper_pass": hi, **det}
    os.makedirs(args.out, exist_ok=True)
    write_json_report(os.path.join(args.out, "monitors.json"), payload, config)
    ok = payload.get("noncollapse", {}).get("pass", True)
    if spec.p != spec.q:
        ok = ok and payload["c0_bound"]["lower_pass"] and payload["c0_bound"]["upper_pass"]
    return EXIT_OK if ok else EXIT_NONCONVERGED


def _sweep_entry(task):
    """One sweep cell; returns a plain row dict (runs in a worker)."""
    (p, q, theta, fcfg, Nphi, Npsi, cfg) = task
    row = {"p": p, "q": q, "theta": theta, "converged": 0,
           "ratio": "", "lambda_min": "", "sigma1_max": "", "error": ""}
    try:
        geom = build_grid(theta, Nphi, Npsi)
        f = density_from_config(geom, fcfg, p, q)
        spec = ProblemSpec(p=p, q=q, theta=theta, f=f, even=True)
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
    return row


def cmd_sweep(args) -> int:
    if args.config is None:
        raise ConfigError("--config is required for sweep")
    doc = read_config(args.config)
    try:
        ps = [float(v) for v in doc["p_values"]]
        qs = [float(v) for v in doc["q_values"]]
        thetas = [float(v) for v in doc["theta_values"]]
    except KeyError as exc:
        raise ConfigError(f"sweep config missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sweep values must be lists of numbers: {exc}") from exc
    fcfg = doc.get("f", {"kind": "constant"})
    Nphi, Npsi = _parse_grid(args.grid) if args.grid else grid_size(
        doc.get("grid", {}), (24, 48))
    cfg = solver_config(doc.get("solver", {}))
    tasks = [
        (p, q, th, fcfg, Nphi, Npsi, cfg)
        for p, q, th in itertools.product(ps, qs, thetas)
    ]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_entry, tasks))
    else:
        rows = [_sweep_entry(t) for t in tasks]
    os.makedirs(args.out, exist_ok=True)
    config = dict(doc)
    config["grid"] = {"Nphi": Nphi, "Npsi": Npsi}
    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w", newline="") as fh:
        fh.write("# config=" + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.DictWriter(
            fh,
            fieldnames=["p", "q", "theta", "converged", "ratio",
                        "lambda_min", "sigma1_max", "error"],
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    all_ok = all(r["converged"] for r in rows)
    return EXIT_OK if all_ok else EXIT_NONCONVERGED


def cmd_selftest(args) -> int:
    """Identity, round-trip, and boundary suites on a small grid."""
    t0 = time.time()
    Nphi, Npsi = _parse_grid(args.grid) if args.grid else (32, 64)
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
        from .grid import bump_profile

        phi = geom.phi_nodes[:, None]
        psi = geom.psi_nodes[None, :]
        u = ScalarField(
            geom, 1.0 + 0.1 * np.cos(2 * psi) * bump_profile(phi, theta)
        )
        for gamma in (0.5, 1.0):
            rep = phi_monitor(geom, u, gamma)
            target = -gamma * geom.cot_theta
            der = rep.boundary_derivative
            # exclude nodes near the zero set of the tangential gradient,
            # where the log-derivative identity degenerates
            mask = rep.boundary_gradient > 0.5 * float(np.max(rep.boundary_gradient))
            err = float(np.nanmax(np.abs(der[mask] - target)))
            if err > 50.0 * math.sqrt(geom.grid_eps()):
                failures.append(
                    f"boundary identity theta={theta:.4f} gamma={gamma}: err {err:.3g}"
                )

    elapsed = time.time() - t0
    for line in failures:
        print(f"FAIL: {line}")
    print(f"selftest: {'PASS' if not failures else 'FAIL'} ({elapsed:.2f}s)")
    return EXIT_OK if not failures else EXIT_NONCONVERGED


def cmd_plotdata(args) -> int:
    """Convert result artifacts into plot-ready long-format CSV tables."""
    src = args.artifacts
    if src is None or not os.path.isdir(src):
        raise ConfigError(f"artifact directory {src!r} does not exist")
    os.makedirs(args.out, exist_ok=True)
    wrote = []
    result_path = os.path.join(src, "result.json")
    solution_path = os.path.join(src, "solution.csv")
    if os.path.exists(result_path) and os.path.exists(solution_path):
        with open(result_path) as fh:
            doc = json.load(fh)
        theta = float(doc["config"]["theta"])
        h = field_from_csv(solution_path, theta)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capmink",
        description="Capillary L_p dual Minkowski problem: solver and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_ in (
        ("solve", cmd_solve, "solve a problem file and write artifacts"),
        ("sandwich", cmd_sandwich, "solve and verify the John-type sandwich"),
        ("monitors", cmd_monitors, "solve and evaluate all estimate monitors"),
        ("sweep", cmd_sweep, "run a (p, q, theta) sweep to CSV"),
        ("selftest", cmd_selftest, "run identity/round-trip/boundary suites"),
        ("plotdata", cmd_plotdata, "emit plot-ready tables from artifacts"),
    ):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn)
        sp.add_argument("--config", default=None, help="problem JSON file")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--grid", default=None, help="grid override, NxM")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed")
        sp.add_argument("--jobs", type=int, default=1, help="worker processes")
        if name == "plotdata":
            sp.add_argument("--artifacts", default=None,
                            help="directory with solve/sandwich artifacts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, UsageError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapminkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
