"""Problem-file parsing and artifact emission.

A problem file is JSON:

    {
      "theta": 1.0471975511965976,
      "p": 2.0, "q": 3.0, "even": true,
      "f": {"kind": "ell_power", "c": 1.0, "alpha": -1.0, "beta": 0.0},
      "grid": {"Nphi": 64, "Npsi": 128},
      "solver": {"newton_tol": 1e-10}
    }

Density kinds: "constant" (value), "ell_power" (c * ell^alpha *
(ell^2+|grad ell|^2)^beta), "grid" (inline row-major values), and
"manufactured" (density induced by a supplied h* table for the given p, q).
Artifacts embed the fully resolved configuration as a provenance header.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict

import numpy as np

from .errors import CapminkError, ConfigError
from .grid import (
    CapGeometry,
    ScalarField,
    build_grid,
    ell_field,
    ell_grad_sq,
    field_to_csv,
)
from .solver import ProblemSpec, SolverConfig, SolveResult, manufactured_f

_F_KINDS = ("constant", "ell_power", "grid", "manufactured")


def density_from_config(geom: CapGeometry, fcfg: dict, p: float, q: float) -> ScalarField:
    """Materialize the density f on the grid from its JSON description."""
    if not isinstance(fcfg, dict) or "kind" not in fcfg:
        raise ConfigError("f must be an object with a 'kind' entry")
    kind = fcfg["kind"]
    try:
        if kind == "constant":
            value = _finite(fcfg, "value", 1.0)
            if value <= 0.0:
                raise ConfigError("constant density must be positive")
            return ScalarField(geom, np.full(geom.shape, value))
        if kind == "ell_power":
            c = _finite(fcfg, "c", 1.0)
            alpha = _finite(fcfg, "alpha", 0.0)
            beta = _finite(fcfg, "beta", 0.0)
            if c <= 0.0:
                raise ConfigError("ell_power coefficient c must be positive")
            ell = ell_field(geom).values
            vals = c * ell**alpha * (ell**2 + ell_grad_sq(geom)) ** beta
            return ScalarField(geom, vals)
        if kind == "grid":
            vals = np.asarray(fcfg["values"], dtype=float).reshape(geom.shape)
            if not np.all(np.isfinite(vals)):
                raise ConfigError("grid density must be finite everywhere")
            if np.any(vals <= 0.0):
                raise ConfigError("grid density must be positive everywhere")
            return ScalarField(geom, vals)
        if kind == "manufactured":
            hvals = np.asarray(fcfg["h_star"], dtype=float).reshape(geom.shape)
            return manufactured_f(geom, ScalarField(geom, hvals), p, q)
    except CapminkError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {kind!r} density: {exc}") from exc
    raise ConfigError(f"unknown density kind {kind!r}; expected one of {_F_KINDS}")


def _finite(fcfg: dict, key: str, default: float) -> float:
    """The density parameter fcfg[key] as a finite float (1e400 parses to inf)."""
    value = float(fcfg.get(key, default))
    if not math.isfinite(value):
        raise ConfigError(f"density parameter {key!r} must be finite, got {value}")
    return value


def load_problem(doc: dict, grid_override: tuple[int, int] | None = None):
    """Parse a problem document into (geom, ProblemSpec, SolverConfig)."""
    try:
        theta = float(doc["theta"])
        p = float(doc["p"])
        q = float(doc["q"])
    except KeyError as exc:
        raise ConfigError(f"problem file missing required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"theta, p and q must be numbers: {exc}") from exc
    even = _flag(doc, "even")
    allow_unsupported = _flag(doc, "allow_unsupported")
    Nphi, Npsi = grid_override or grid_size(doc.get("grid", {}), (32, 64))
    geom = build_grid(theta, Nphi, Npsi)
    f = density_from_config(geom, doc.get("f", {"kind": "constant"}), p, q)
    spec = ProblemSpec(
        p=p,
        q=q,
        theta=theta,
        f=f,
        even=even,
        allow_unsupported=allow_unsupported,
    )
    return geom, spec, solver_config(doc.get("solver", {}))


def _flag(doc: dict, key: str) -> bool:
    """The JSON boolean doc[key] (default false); a string such as "false" is refused."""
    value = doc.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def grid_size(gcfg, default: tuple[int, int]) -> tuple[int, int]:
    """(Nphi, Npsi) of a "grid" object, each falling back to its default."""
    try:
        return int(gcfg.get("Nphi", default[0])), int(gcfg.get("Npsi", default[1]))
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"grid must be an object with integer Nphi, Npsi: {exc}") from exc


def solver_config(scfg) -> SolverConfig:
    """SolverConfig of a "solver" object; each value is cast to its field's type."""
    if not isinstance(scfg, dict):
        raise ConfigError("solver must be an object")
    defaults = SolverConfig()
    unknown = set(scfg) - set(SolverConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown solver options {sorted(unknown)}")
    try:
        values = {k: type(getattr(defaults, k))(v) for k, v in scfg.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed solver option: {exc}") from exc
    return SolverConfig(**values)


def read_config(path) -> dict:
    """The JSON object in a config file; OSError and JSONDecodeError propagate."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return doc


def resolved_config(doc: dict, geom: CapGeometry, cfg: SolverConfig) -> dict:
    """The fully resolved configuration embedded in every artifact."""
    out = dict(doc)
    out["grid"] = {"Nphi": geom.Nphi, "Npsi": geom.Npsi}
    out["solver"] = asdict(cfg)
    return out


def provenance_comment(config: dict) -> str:
    return "config=" + json.dumps(_json_safe(config), sort_keys=True, allow_nan=False)


def _json_safe(obj):
    """obj with numpy values as Python ones and every non-finite float as None.

    JSON has no Infinity or NaN; a non-converged solve reports an infinite
    residual, which is written as null.
    """
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _write_json(path, doc: dict):
    with open(path, "w") as fh:
        json.dump(_json_safe(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_solve_artifacts(outdir, result: SolveResult, config: dict):
    """SolveResult JSON + solution CSV + Newton trace CSV under outdir."""
    import os

    os.makedirs(outdir, exist_ok=True)
    doc = result.to_json_dict()
    doc["config"] = config
    _write_json(os.path.join(outdir, "result.json"), doc)
    field_to_csv(
        result.h, os.path.join(outdir, "solution.csv"), provenance_comment(config)
    )
    with open(os.path.join(outdir, "newton_trace.csv"), "w", newline="") as fh:
        fh.write(f"# {provenance_comment(config)}\n")
        writer = csv.writer(fh)
        writer.writerow(["s", "iter", "residual"])
        for t in result.newton_trace:
            for i, r in enumerate(t.residuals):
                writer.writerow([f"{t.s:.17g}", i, f"{r:.17g}"])
    return outdir


def write_json_report(path, payload: dict, config: dict):
    _write_json(path, {**payload, "config": config})
