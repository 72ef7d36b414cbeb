"""Batch front end.

Commands:
    vortexlab run <config>                 execute a configured task
    vortexlab certify <catalog> <params>   certify a catalog configuration
    vortexlab version

Config files are INI-style sections of key = value lines; the schema is
documented in docs/config.md.  Exit codes: 0 success, 2 unreadable or
invalid config, 3 violated precondition, 4 no convergence, 5 collision
or boundary event; the table _FAILURES maps each failure to its code
and one `level=error` line.  Diagnostics go to stderr as `level=...
task=... msg=...` lines; all artifacts land in the configured output
directory under stable names.  Identical config and seed give
byte-identical JSON (no timestamps are written).
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
                         make_trivial)
from .errors import (BoundaryEventError, CollisionEventError,
                     ConvergenceError, VortexError)
from .periodic import SuperpositionSpec, continue_in_r, scan_phases, shoot
from .stationary import evaluate_point, find_critical_point
from .systems import VortexSystem

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_NO_CONVERGENCE = 4
EXIT_EVENT = 5


class ConfigError(Exception):
    """Malformed or incomplete configuration."""


#: (exception types, exit code, log label); the first matching row wins
_FAILURES = (
    ((ConfigError,), EXIT_CONFIG, "config error"),
    ((CollisionEventError, BoundaryEventError), EXIT_EVENT, "event"),
    ((ConvergenceError,), EXIT_NO_CONVERGENCE, "no convergence"),
    ((VortexError,), EXIT_PRECONDITION, "precondition violated"),
)
_HANDLED = tuple(t for types, _, _ in _FAILURES for t in types)


def _log(level: str, task: str, msg: str):
    flat = " ".join(str(msg).split())
    print(f"level={level} task={task} msg={flat}", file=sys.stderr)


def _fail(task: str, exc: Exception) -> int:
    """Log exc as one error line and return the exit code of its row."""
    code, label = next((code, label) for types, code, label in _FAILURES
                       if isinstance(exc, types))
    _log("error", task, f"{label}: {exc}")
    return code


# ---------------------------------------------------------------------------
# config parsing: each parser takes the stripped raw text and raises
# ValueError, which _Config.get reports as a ConfigError
# ---------------------------------------------------------------------------

def _nonnegative(text: str) -> float:
    value = float(text)
    if not value >= 0.0:
        raise ValueError("must be >= 0")
    return value


def _choice(options: tuple):
    """Parser of one of options, case-insensitive."""
    def parse(text: str) -> str:
        if text.lower() not in options:
            raise ValueError(f"choose from {options}")
        return text.lower()
    return parse


def _list(text: str, item=float) -> list:
    """Comma- and/or whitespace-separated values, at least one."""
    values = [item(part) for part in text.replace(",", " ").split()]
    if not values:
        raise ValueError("empty list")
    return values


def _points(text: str) -> np.ndarray:
    """Semicolon-separated planar points: 'x1 y1; x2 y2; ...'."""
    points = [_list(chunk) for chunk in text.split(";") if chunk.strip()]
    if not points or any(len(p) != 2 for p in points):
        raise ValueError("expected one or more x y pairs")
    return np.array(points)


_INTEGRATOR_KEYS = ("collision_tol", "boundary_margin")
#: the cluster keys catalog = custom reads; a named catalog reads params
_CUSTOM_KEYS = ("strengths", "positions")
#: the keys each section accepts; [cluster.N] and [certify] read "cluster"
_KEYS = {
    "domain": ("kind",),
    "task": ("kind", "output_dir", "seed"),
    "anchors": ("strengths", "positions", "guess", "guess_jitter"),
    "cluster": ("catalog", "params") + _CUSTOM_KEYS,
    "periodic": ("r", "phases") + _INTEGRATOR_KEYS,
    "simulate": ("t_end",) + _INTEGRATOR_KEYS,
    "vortices": ("strengths", "positions"),
}


class _Config:
    """A parsed INI config of known sections and keys; every value is
    read through get()."""

    def __init__(self, path: str):
        parser = configparser.ConfigParser(
            inline_comment_prefixes=("#", ";"), interpolation=None)
        parser.optionxform = str
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(exc) from exc
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
        for section in parser.sections():
            kind = ("cluster" if section == "certify"
                    or section.startswith("cluster.") else section)
            if kind not in _KEYS:
                raise ConfigError(f"unknown section [{section}]")
            for key in parser.options(section):
                if key not in _KEYS[kind]:
                    raise ConfigError(f"unknown key [{section}] {key}")
        self._cp = parser

    def sections(self) -> dict:
        """{section: {key: raw value}} of the whole file."""
        return {s: dict(self._cp.items(s)) for s in self._cp.sections()}

    def get(self, section: str, key: str, parse=str, default=None,
            required: bool = False):
        """parse(raw value) of [section] key, or default when absent."""
        if not self._cp.has_option(section, key):
            if required:
                raise ConfigError(f"missing [{section}] {key}")
            return default
        raw = self._cp.get(section, key).strip()
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


CATALOGS = ("pair", "equilateral", "thomson", "hermite", "custom", "trivial")


def _catalog(name: str, params) -> RelativeEquilibrium:
    """from_catalog(name, *params), with a bad request as a ConfigError."""
    try:
        return from_catalog(name, *params)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad catalog request {name!r} {list(params)}: "
                          f"{exc}") from exc


def _dump_json(obj: dict, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _domain_from(cfg: _Config):
    try:
        return make_domain(cfg.get("domain", "kind", required=True))
    except ValueError as exc:
        raise ConfigError(f"[domain] {exc}") from exc


def _settings_from(cfg: _Config, section: str) -> IntegratorSettings:
    kwargs = {}
    for key in _INTEGRATOR_KEYS:
        val = cfg.get(section, key, float)
        if val is not None:
            kwargs[key] = val
    return IntegratorSettings(**kwargs)


def _cluster_from(cfg: _Config, section: str, anchor_strength: float
                  ) -> RelativeEquilibrium:
    """The cluster of a [cluster.N] or [certify] section.  A key its
    catalog does not read is a ConfigError (named catalogs read params,
    custom _CUSTOM_KEYS); omega and sigma are derived from the
    positions, not read."""
    catalog = cfg.get(section, "catalog", _choice(CATALOGS), required=True)
    reads = {"trivial": (), "custom": _CUSTOM_KEYS}.get(catalog, ("params",))
    for key in cfg.sections()[section]:
        if key not in ("catalog",) + reads:
            raise ConfigError(f"[{section}] {key} is not read by catalog "
                              f"{catalog!r}")
    if catalog == "trivial":
        return make_trivial(anchor_strength)
    if catalog != "custom":
        return _catalog(catalog,
                        cfg.get(section, "params", _list, required=True))
    strengths = cfg.get(section, "strengths", _list, required=True)
    if len(strengths) == 1:
        raise ConfigError(f"[{section}] a one-vortex custom cluster does "
                          f"not rotate; use catalog = trivial")
    positions = cfg.get(section, "positions", _points, required=True)
    return RelativeEquilibrium(strengths, positions)


def _anchors_from(cfg: _Config, domain, rng, task: str):
    strengths = cfg.get("anchors", "strengths", _list, required=True)
    positions = cfg.get("anchors", "positions", _points)
    if positions is None:
        guess = cfg.get("anchors", "guess", _points, required=True)
        jitter = cfg.get("anchors", "guess_jitter", _nonnegative, 0.0)
        if jitter:
            guess = guess + rng.normal(0.0, jitter, size=guess.shape)
        _log("info", task, "searching for a critical anchor configuration")
        sp = find_critical_point(strengths, domain, guess)
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
        if section not in cfg.sections():
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
    """r as names and logs write it, distinct for distinct scales."""
    return repr(float(r))


def _write_orbit(orbit, outdir: str, echo: dict):
    tag = _fmt_r(orbit.scale)
    doc = orbit.as_dict()
    doc["config"] = echo
    _dump_json(doc, os.path.join(outdir, f"orbit_r{tag}.json"))
    orbit.physical_trajectory_csv(os.path.join(outdir, f"traj_r{tag}.csv"))
    orbit.trajectory.to_csv(
        os.path.join(outdir, f"traj_r{tag}_rescaled.csv"))


def _task_simulate(cfg: _Config, domain, outdir, rng, echo) -> int:
    strengths = cfg.get("vortices", "strengths", _list, required=True)
    positions = cfg.get("vortices", "positions", _points, required=True)
    if len(strengths) != positions.shape[0]:
        raise ConfigError("[vortices] strengths/positions length mismatch")
    t_end = cfg.get("simulate", "t_end", float, required=True)
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
    catalog = cfg.get("certify", "catalog", required=True).lower()
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
    scale = cfg.get("periodic", "r", float, required=True)
    phases = cfg.get("periodic", "phases", _list)
    spec = _spec_from(cfg, domain, rng, "periodic", scale, phases)
    settings = _settings_from(cfg, "periodic")
    orbit = shoot(spec, None, settings)
    _write_orbit(orbit, outdir, echo)
    _log("info", "periodic",
         f"r={_fmt_r(scale)} residual={orbit.residual:.3e} "
         f"distance_to_m={orbit.distance_to_m:.6g}")
    return EXIT_OK


def _task_sweep(cfg: _Config, domain, outdir, rng, echo) -> int:
    r_values = cfg.get("periodic", "r", _list, required=True)
    phases = cfg.get("periodic", "phases", _list)
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
    if cfg.get("periodic", "phases") is not None:
        raise ConfigError("[periodic] phases is not read by task 'scan'")
    scale = cfg.get("periodic", "r", float, required=True)
    spec = _spec_from(cfg, domain, rng, "scan", scale, None)
    settings = _settings_from(cfg, "periodic")
    result = scan_phases(spec, settings)
    _dump_json({
        "config": echo,
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


@np.errstate(all="ignore")  # a non-finite result is checked, not warned
def run(config_path: str) -> int:
    """Execute the task described by a config file; returns exit code."""
    task = "run"
    try:
        cfg = _Config(config_path)
        task = cfg.get("task", "kind", _choice(tuple(_HANDLERS)),
                       required=True)
        outdir = cfg.get("task", "output_dir", default="out")
        seed = cfg.get("task", "seed", int, 0)
        domain = _domain_from(cfg)
        echo = {"sections": cfg.sections(), "seed": seed, "task": task}
        rng = np.random.default_rng(seed)
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"[task] output_dir = {outdir!r}: {exc}") from exc
        return _HANDLERS[task](cfg, domain, outdir, rng, echo)
    except _HANDLED as exc:
        return _fail(task, exc)


@np.errstate(all="ignore")
def certify_command(name: str, params) -> int:
    """`vortexlab certify <catalog> <params...>`: print a report."""
    try:
        report = certify(_catalog(name, params))
    except _HANDLED as exc:
        return _fail("certify", exc)
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
