"""Batch front end.

Commands:
    vortexlab run <config>                 execute a configured task
    vortexlab certify <catalog> <params>   certify a catalog configuration
    vortexlab version

Config files are INI-style sections of key = value lines; the schema is
documented in docs/config.md.  Exit codes: 0 success, 2 unreadable or
invalid config, 3 violated precondition, 4 no convergence, 5 collision
or boundary event.  Diagnostics go to stderr as `level=... task=...
msg=...` lines; all artifacts land in the configured output directory
under stable names.  Identical config and seed give byte-identical JSON
(no timestamps are written).
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys

import numpy as np

from . import __version__
from .domains import make_domain
from .dynamics import IntegratorSettings, integrate
from .equilibria import (RelativeEquilibrium, certify, from_catalog,
                         make_trivial, normalize)
from .errors import (BoundaryEventError, CollisionError,
                     ConstraintViolationError, ConvergenceError,
                     DomainViolationError, NotEquilibriumError,
                     ScaleTooLargeError, VortexError, ZeroTotalStrengthError)
from .periodic import SuperpositionSpec, continue_in_r, scan_phases, shoot
from .stationary import (GRADIENT_TOL, MAX_ITERATIONS, evaluate_point,
                         find_critical_point)
from .systems import VortexSystem

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_NO_CONVERGENCE = 4
EXIT_EVENT = 5

_PRECONDITION_ERRORS = (ConstraintViolationError, ZeroTotalStrengthError,
                        NotEquilibriumError, ScaleTooLargeError)


class ConfigError(Exception):
    """Malformed or incomplete configuration."""


def _log(level: str, task: str, msg: str):
    flat = " ".join(str(msg).split())
    print(f"level={level} task={task} msg={flat}", file=sys.stderr)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _parse_floats(text: str):
    parts = text.replace(",", " ").split()
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"expected numbers, got {text!r}") from exc


def _parse_points(text: str) -> np.ndarray:
    """Semicolon-separated planar points: 'x1 y1; x2 y2; ...'."""
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vals = _parse_floats(chunk)
        if len(vals) != 2:
            raise ConfigError(f"point {chunk!r} is not an x y pair")
        points.append(vals)
    if not points:
        raise ConfigError("empty point list")
    return np.array(points)


class _Config:
    """Typed access to a parsed INI config with error bookkeeping."""

    def __init__(self, path: str):
        parser = configparser.ConfigParser(
            inline_comment_prefixes=("#", ";"), interpolation=None)
        parser.optionxform = str
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
        self._cp = parser
        self.path = path

    def sections(self) -> dict:
        return {s: dict(self._cp.items(s)) for s in self._cp.sections()}

    def has(self, section: str, key: str = None) -> bool:
        if key is None:
            return self._cp.has_section(section)
        return self._cp.has_option(section, key)

    def get(self, section: str, key: str, default=None, required: bool = False):
        if self._cp.has_option(section, key):
            return self._cp.get(section, key).strip()
        if required:
            raise ConfigError(f"missing [{section}] {key}")
        return default

    def get_float(self, section, key, default=None, required=False):
        raw = self.get(section, key, None, required)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc

    def get_int(self, section, key, default=None, required=False):
        raw = self.get(section, key, None, required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from exc

    def get_bool(self, section, key, default=False):
        raw = self.get(section, key, None)
        if raw is None:
            return default
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a boolean")

    def get_floats(self, section, key, required=False):
        raw = self.get(section, key, None, required)
        return None if raw is None else _parse_floats(raw)

    def get_points(self, section, key, required=False):
        raw = self.get(section, key, None, required)
        return None if raw is None else _parse_points(raw)


TASKS = ("simulate", "stationary", "certify", "periodic", "sweep", "scan")
CATALOGS = ("pair", "equilateral", "thomson", "hermite", "custom", "trivial")


def _dump_json(obj: dict, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _domain_from(cfg: _Config):
    kind = cfg.get("domain", "kind", required=True)
    kwargs = {}
    if kind.strip().lower() in ("perturbed-disc", "perturbed-disk"):
        eps = cfg.get_float("domain", "epsilon", None)
        if eps is not None:
            kwargs["epsilon"] = eps
    try:
        return make_domain(kind, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _settings_from(cfg: _Config, section: str) -> IntegratorSettings:
    kwargs = {}
    for key in ("rtol", "atol", "max_step", "collision_tol", "boundary_margin"):
        val = cfg.get_float(section, key, None)
        if val is not None:
            kwargs[key] = val
    if cfg.get_bool(section, "energy_projection", False):
        kwargs["energy_projection"] = True
    return IntegratorSettings(**kwargs)


def _cluster_from(cfg: _Config, section: str, anchor_strength: float
                  ) -> RelativeEquilibrium:
    catalog = cfg.get(section, "catalog", required=True).strip().lower()
    if catalog not in CATALOGS:
        raise ConfigError(
            f"[{section}] unknown catalog {catalog!r}; choose from {CATALOGS}")
    if catalog == "trivial":
        return make_trivial(anchor_strength)
    if catalog == "custom":
        strengths = cfg.get_floats(section, "strengths", required=True)
        positions = cfg.get_points(section, "positions", required=True)
        omega = cfg.get_float(section, "omega", required=True)
        perm_raw = cfg.get(section, "permutation", None)
        if perm_raw is None:
            perm = tuple(range(len(strengths)))
        else:
            perm = tuple(int(v) for v in _parse_floats(perm_raw))
        return RelativeEquilibrium(tuple(strengths), positions, omega, perm)
    params = cfg.get_floats(section, "params", required=True)
    eq = from_catalog(catalog, *params)
    target = cfg.get_float(section, "normalize_omega", None)
    if target is not None:
        eq = normalize(eq, target)
    return eq


def _anchors_from(cfg: _Config, domain, rng, task: str):
    strengths = cfg.get_floats("anchors", "strengths", required=True)
    positions = cfg.get_points("anchors", "positions")
    if positions is None:
        guess = cfg.get_points("anchors", "guess", required=True)
        jitter = cfg.get_float("anchors", "guess_jitter", 0.0)
        if jitter:
            guess = guess + rng.normal(0.0, jitter, size=guess.shape)
        _log("info", task, "searching for a critical anchor configuration")
        sp = find_critical_point(
            strengths, domain, guess,
            gradient_tol=cfg.get_float("anchors", "gradient_tol", GRADIENT_TOL),
            max_iterations=cfg.get_int("anchors", "max_iterations",
                                       MAX_ITERATIONS))
    else:
        if len(strengths) != positions.shape[0]:
            raise ConfigError("[anchors] strengths/positions length mismatch")
        sp = evaluate_point(strengths, domain, positions)
    return sp


def _spec_from(cfg: _Config, domain, rng, task: str, scale: float,
               phases) -> SuperpositionSpec:
    sp = _anchors_from(cfg, domain, rng, task)
    clusters = []
    for k, gam in enumerate(sp.strengths):
        section = f"cluster.{k + 1}"
        if not cfg.has(section):
            raise ConfigError(f"missing [{section}] for anchor {k + 1}")
        clusters.append(_cluster_from(cfg, section, gam))
    nontrivial = sum(1 for c in clusters if not c.is_trivial)
    if phases is None:
        phases = (0.0,) * nontrivial
    return SuperpositionSpec(sp, tuple(clusters), domain,
                             phases=tuple(phases), scale=scale)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _fmt_r(r: float) -> str:
    return f"{r:g}"


def _write_orbit(orbit, outdir: str, echo: dict):
    tag = _fmt_r(orbit.scale)
    doc = orbit.as_dict()
    doc["config"] = echo
    _dump_json(doc, os.path.join(outdir, f"orbit_r{tag}.json"))
    orbit.physical_trajectory_csv(os.path.join(outdir, f"traj_r{tag}.csv"))
    orbit.trajectory.to_csv(
        os.path.join(outdir, f"traj_r{tag}_rescaled.csv"))


def _task_simulate(cfg: _Config, domain, outdir, rng, echo) -> int:
    strengths = cfg.get_floats("vortices", "strengths", required=True)
    positions = cfg.get_points("vortices", "positions", required=True)
    if len(strengths) != positions.shape[0]:
        raise ConfigError("[vortices] strengths/positions length mismatch")
    t_end = cfg.get_float("simulate", "t_end", required=True)
    settings = _settings_from(cfg, "simulate")
    system = VortexSystem(tuple(strengths), (len(strengths),), domain)
    traj = integrate(system, positions.reshape(-1), (0.0, t_end), settings)
    traj.to_csv(os.path.join(outdir, "trajectory.csv"))
    _dump_json({
        "config": echo,
        "t_end": t_end,
        "steps": int(len(traj.times) - 1),
        "final_state": [float(v) for v in traj.final_state],
        "energy_drift": traj.energy_drift(),
        "min_separation": traj.min_separation,
    }, os.path.join(outdir, "simulation.json"))
    _log("info", "simulate",
         f"integrated to t={t_end:g} in {len(traj.times) - 1} steps")
    return EXIT_OK


def _task_stationary(cfg: _Config, domain, outdir, rng, echo) -> int:
    sp = _anchors_from(cfg, domain, rng, "stationary")
    doc = sp.as_dict()
    doc["config"] = echo
    _dump_json(doc, os.path.join(outdir, "stationary.json"))
    _log("info", "stationary",
         f"classification={sp.classification.value} "
         f"gradient_norm={sp.gradient_norm:.3e}")
    return EXIT_OK


def _task_certify(cfg: _Config, domain, outdir, rng, echo) -> int:
    catalog = cfg.get("certify", "catalog", required=True).strip().lower()
    if catalog == "trivial":
        raise ConfigError("trivial placeholder clusters are not certifiable")
    eq = _cluster_from(cfg, "certify", float("nan"))
    report = certify(eq)
    doc = report.as_dict()
    doc["strengths"] = [float(g) for g in eq.strengths]
    doc["positions"] = eq.positions.tolist()
    doc["permutation"] = list(eq.permutation)
    doc["config"] = echo
    _dump_json(doc, os.path.join(outdir, "certification.json"))
    _log("info", "certify",
         f"nondegenerate={report.nondegenerate} "
         f"sigma_nondegenerate={report.sigma_nondegenerate}")
    return EXIT_OK


def _task_periodic(cfg: _Config, domain, outdir, rng, echo) -> int:
    scale = cfg.get_float("periodic", "r", required=True)
    phases = cfg.get_floats("periodic", "phases")
    spec = _spec_from(cfg, domain, rng, "periodic", scale, phases)
    settings = _settings_from(cfg, "periodic")
    orbit = shoot(spec, None, settings)
    _write_orbit(orbit, outdir, echo)
    _log("info", "periodic",
         f"r={_fmt_r(scale)} residual={orbit.residual:.3e} "
         f"distance_to_m={orbit.distance_to_m:.6g}")
    return EXIT_OK


def _task_sweep(cfg: _Config, domain, outdir, rng, echo) -> int:
    r_values = cfg.get_floats("periodic", "r", required=True)
    phases = cfg.get_floats("periodic", "phases")
    spec = _spec_from(cfg, domain, rng, "sweep", r_values[0], phases)
    settings = _settings_from(cfg, "periodic")
    orbits = continue_in_r(spec, r_values, settings)
    for orbit in orbits:
        _write_orbit(orbit, outdir, echo)
    distances = [orbit.distance_to_m for orbit in orbits]
    _dump_json({
        "config": echo,
        "r_values": [float(r) for r in r_values],
        "distances_to_m": distances,
        "monotone_decreasing": bool(all(a > b for a, b in
                                        zip(distances, distances[1:]))),
        "orbits": [f"orbit_r{_fmt_r(r)}.json" for r in r_values],
    }, os.path.join(outdir, "sweep.json"))
    _log("info", "sweep",
         f"{len(orbits)} orbits, distances_to_m={distances}")
    return EXIT_OK


def _task_scan(cfg: _Config, domain, outdir, rng, echo) -> int:
    scale = cfg.get_float("periodic", "r", required=True)
    grid = cfg.get_int("periodic", "grid", 8)
    spec = _spec_from(cfg, domain, rng, "scan", scale, None)
    settings = _settings_from(cfg, "periodic")
    result = scan_phases(spec, grid, settings)
    _dump_json({
        "config": echo,
        "grid": grid,
        "attempted": result.attempted,
        "distinct_classes": result.distinct_count,
        "failures": [{"phases": list(p), "error": e}
                     for p, e in result.failures],
        "orbits": [orbit.as_dict() for orbit in result.orbits],
    }, os.path.join(outdir, "scan.json"))
    _log("info", "scan",
         f"classes={result.distinct_count} attempted={result.attempted} "
         f"failures={len(result.failures)}")
    return EXIT_OK


_HANDLERS = {
    "simulate": _task_simulate,
    "stationary": _task_stationary,
    "certify": _task_certify,
    "periodic": _task_periodic,
    "sweep": _task_sweep,
    "scan": _task_scan,
}


def run(config_path: str) -> int:
    """Execute the task described by a config file; returns exit code."""
    task = "run"
    try:
        cfg = _Config(config_path)
        task = cfg.get("task", "kind", required=True).strip().lower()
        if task not in TASKS:
            raise ConfigError(f"unknown task {task!r}; choose from {TASKS}")
        outdir = cfg.get("task", "output_dir", "out")
        seed = cfg.get_int("task", "seed", 0)
        domain = _domain_from(cfg)
        echo = {"sections": cfg.sections(), "seed": seed, "task": task}
        rng = np.random.default_rng(seed)
        os.makedirs(outdir, exist_ok=True)
        return _HANDLERS[task](cfg, domain, outdir, rng, echo)
    except (ConfigError, configparser.Error) as exc:
        _log("error", task, f"config error: {exc}")
        return EXIT_CONFIG
    except (CollisionError, BoundaryEventError) as exc:
        _log("error", task, f"event: {exc}")
        return EXIT_EVENT
    except ConvergenceError as exc:
        _log("error", task, f"no convergence: {exc}")
        return EXIT_NO_CONVERGENCE
    except (_PRECONDITION_ERRORS + (DomainViolationError,)) as exc:
        _log("error", task, f"precondition violated: {exc}")
        return EXIT_PRECONDITION
    except VortexError as exc:
        _log("error", task, f"failed: {exc}")
        return EXIT_PRECONDITION


def certify_command(name: str, params) -> int:
    """`vortexlab certify <catalog> <params...>`: print a report."""
    try:
        eq = from_catalog(name, *params)
        report = certify(eq)
    except (KeyError, TypeError, ValueError) as exc:
        _log("error", "certify", f"bad catalog request: {exc}")
        return EXIT_CONFIG
    except _PRECONDITION_ERRORS as exc:
        _log("error", "certify", f"precondition violated: {exc}")
        return EXIT_PRECONDITION
    doc = report.as_dict()
    doc["catalog"] = name
    doc["params"] = [float(p) for p in params]
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vortexlab",
        description="Periodic point-vortex orbits from superposed "
                    "rotating clusters.")
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="execute a config-file task")
    p_run.add_argument("config", help="path to an INI config file")
    p_cert = sub.add_parser("certify",
                            help="certify a catalog configuration")
    p_cert.add_argument("catalog",
                        help="pair | equilateral | thomson | hermite")
    p_cert.add_argument("params", nargs="*", type=float,
                        help="catalog parameters")
    sub.add_parser("version", help="print the package version")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config)
    if args.command == "certify":
        return certify_command(args.catalog, args.params)
    if args.command == "version":
        print(__version__)
        return EXIT_OK
    parser.print_help()
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
