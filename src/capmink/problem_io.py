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
(ell^2+|grad ell|^2)^beta), "grid" (values: a flat row-major list of
Nphi * Npsi numbers), and "manufactured" (density induced by an h_star table
of the same form, for the given p, q).  Every number is read by ``_number``
or ``_numbers``: it must be a finite JSON number, integral where an integer
is needed; anything else is a ConfigError.  The grid, f and solver objects
hold only the keys they read, and the CLI holds the document to
``PROBLEM_KEYS`` plus its subcommand's own keys: a misspelled key is a
ConfigError, never a default.  Artifacts embed the fully resolved
configuration as a provenance header.
"""

from __future__ import annotations

import csv
import json
import math
import os
import reprlib
from dataclasses import asdict, fields, is_dataclass

import numpy as np

from .errors import CapminkError, ConfigError
from .grid import (
    CapGeometry,
    ScalarField,
    _ell,
    build_grid,
    ell_grad_sq,
    field_to_csv,
)
from .solver import ProblemSpec, SolverConfig, SolveResult, manufactured_f

# the keys each density kind reads, besides "kind"
_F_KEYS = {"constant": ("value",), "ell_power": ("c", "alpha", "beta"), "grid": ("values",),
           "manufactured": ("h_star",)}


def density_from_config(geom: CapGeometry, fcfg: dict, p: float, q: float) -> ScalarField:
    """Materialize the density f on the grid from its JSON description."""
    if not isinstance(fcfg, dict) or "kind" not in fcfg:
        raise ConfigError("f must be an object with a 'kind' entry")
    kind = fcfg["kind"]
    if not isinstance(kind, str) or kind not in _F_KEYS:  # a list kind is unhashable
        raise ConfigError(f"unknown density kind {kind!r}; expected one of {tuple(_F_KEYS)}")
    _known_keys(fcfg, ("kind",) + _F_KEYS[kind], f"{kind} density")
    if kind == "constant":
        value = _number(fcfg, "value", 1.0)
        if value <= 0.0:
            raise ConfigError("constant density must be positive")
        return ScalarField(geom, np.full(geom.shape, value))
    if kind == "ell_power":
        c = _number(fcfg, "c", 1.0)
        alpha = _number(fcfg, "alpha", 0.0)
        beta = _number(fcfg, "beta", 0.0)
        if c <= 0.0:
            raise ConfigError("ell_power coefficient c must be positive")
        ell = _ell(geom)
        vals = c * ell**alpha * (ell**2 + ell_grad_sq(geom)) ** beta
        return ScalarField(geom, vals)
    if kind == "grid":
        vals = np.reshape(_numbers(fcfg, "values", geom.size), geom.shape)
        if np.any(vals <= 0.0):
            raise ConfigError("grid density must be positive everywhere")
        return ScalarField(geom, vals)
    hvals = np.reshape(_numbers(fcfg, "h_star", geom.size), geom.shape)
    return manufactured_f(geom, ScalarField(geom, hvals), p, q)


# the top-level keys of a problem document that load_problem reads
PROBLEM_KEYS = ("theta", "p", "q", "even", "allow_unsupported", "f", "grid", "solver")


def load_problem(doc: dict, grid_override: tuple[int, int] | None = None):
    """Parse a problem document into (geom, ProblemSpec, SolverConfig)."""
    theta, p, q = (_number(doc, key) for key in ("theta", "p", "q"))
    even = _flag(doc, "even")
    allow_unsupported = _flag(doc, "allow_unsupported")
    grid = grid_size(doc.get("grid", {}), (32, 64))  # checked even when overridden
    Nphi, Npsi = grid_override or grid
    try:
        geom = build_grid(theta, Nphi, Npsi)
        f = density_from_config(geom, doc.get("f", {"kind": "constant"}), p, q)
        spec = ProblemSpec(p=p, q=q, theta=theta, f=f, even=even,
                           allow_unsupported=allow_unsupported)
    except CapminkError as exc:  # theta outside (0, pi/2], a density that is not positive
        raise ConfigError(str(exc)) from exc
    return geom, spec, solver_config(doc.get("solver", {}))


def _flag(doc: dict, key: str, default: bool = False) -> bool:
    """The JSON boolean doc[key]; a string such as "false" is refused."""
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _number(doc: dict, key: str, default=None, kind=float):
    """The finite JSON number doc[key] as a kind (required when default is None)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"expected an object holding {key!r}, got {reprlib.repr(doc)}")
    if key not in doc:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    return _as_number(doc[key], key, kind)


def _as_number(value, name: str, kind=float):
    """value as a kind if it is a finite JSON number; a bool, string, null, list,
    object or (with kind=int) a fraction such as 8.9 is refused, never cast."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the double range
            number = math.inf
        if math.isfinite(number) and (kind is float or number.is_integer()):
            return kind(number)
    raise ConfigError(f"{name} must be a finite {'integer' if kind is int else 'number'}, "
                      f"got {reprlib.repr(value)}")


def _numbers(doc: dict, key: str, size: int | None = None) -> list[float]:
    """The required doc[key] as floats: a non-empty JSON list of finite numbers,
    with exactly size entries when size is given; each entry is read by _as_number."""
    values = doc.get(key)
    if not isinstance(values, list) or not values or size not in (None, len(values)):
        raise ConfigError(f"{key} must be a list of {size or 'one or more'} finite "
                          f"numbers, got {reprlib.repr(values)}")
    return [_as_number(value, f"{key}[{i}]") for i, value in enumerate(values)]


def _known_keys(obj, allowed, name: str):
    """Refuse a config object that is not an object or holds a key outside allowed."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be an object, got {reprlib.repr(obj)}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {name} options {sorted(unknown)}")


def grid_size(gcfg, default: tuple[int, int]) -> tuple[int, int]:
    """(Nphi, Npsi) of a "grid" object, each falling back to its default."""
    _known_keys(gcfg, ("Nphi", "Npsi"), "grid")
    return _number(gcfg, "Nphi", default[0], int), _number(gcfg, "Npsi", default[1], int)


def solver_config(scfg) -> SolverConfig:
    """SolverConfig of a "solver" object; each value is read as its field's type."""
    kinds = {f.name: type(f.default) for f in fields(SolverConfig)}
    _known_keys(scfg, kinds, "solver")
    return SolverConfig(**{key: _number(scfg, key, kind=kinds[key]) for key in scfg})


def read_config(path) -> dict:
    """The JSON object in a UTF-8 config file; OSError and JSONDecodeError propagate."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
        raise ConfigError(f"config file {path} is not readable JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return doc


def resolved_config(doc: dict, geom: CapGeometry, cfg: SolverConfig) -> dict:
    """The fully resolved configuration embedded in every artifact: geom is its grid, or
    for a sweep anything that holds the Nphi and Npsi that its cells' grids share."""
    return {**doc, "grid": {"Nphi": geom.Nphi, "Npsi": geom.Npsi}, "solver": asdict(cfg)}


def provenance_comment(config: dict) -> str:
    return "config=" + json.dumps(_json_safe(config), sort_keys=True, allow_nan=False)


# the JSON name of each record field that is written under another name
_JSON_NAMES = {"passed": "pass", "lam": "lambda"}


def _json_safe(obj):
    """obj with numpy values as Python ones, every non-finite float as None, a record
    as its fields less those that hold per-node data (a ScalarField or an array,
    which the CSVs carry or no artifact does), and each key named by _JSON_NAMES.

    JSON has no Infinity or NaN; a non-converged solve reports an infinite
    residual, which is written as null.
    """
    if is_dataclass(obj):
        obj = {f.name: value for f in fields(obj)
               if not isinstance(value := getattr(obj, f.name), (ScalarField, np.ndarray))}
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {_JSON_NAMES.get(k, k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _write_json(path, payload, config: dict):
    """payload (a dict or a record) as JSON at path, with config beside its fields."""
    with open(path, "w") as fh:
        json.dump({**_json_safe(payload), "config": _json_safe(config)}, fh, indent=2,
                  sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_solve_artifacts(outdir, result: SolveResult, config: dict):
    """SolveResult JSON + solution CSV + Newton trace CSV under outdir."""
    os.makedirs(outdir, exist_ok=True)
    _write_json(os.path.join(outdir, "result.json"), result, config)
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


def write_json_report(path, payload, config: dict):  # payload: a dict or a record
    _write_json(path, payload, config)
