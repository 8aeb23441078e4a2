"""Command-line front end.

Scenarios are JSON files with a versioned schema; results go to delimited
text files with '#'-prefixed headers plus a machine-readable report.json.
Verbs: simulate, equiv-check, spectrum, g2, waiting-time, trajectories,
describe-map.  Exit status is 0 iff every check in the scenario passed, 1
if a check failed, 2 if the scenario or its input was rejected and 3 on an
internal failure.  Task options: compare_mapped, detect_weights,
normalized, n_traj and dark_threshold (jump times need no step size).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time as _time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .defaults import (
    DEFAULT_DARK_THRESHOLD,
    DEFAULT_N_TRAJ,
    DEFAULT_OMEGA_GRID,
    DEFAULT_TIME_GRID,
    DEFAULT_TOLERANCES,
)
from .equivalence import EquivalenceMap, map_system, verify_equivalence
from .errors import ScenarioError
from .linalg import level_projector
from .observables import (
    bright_dark_stats,
    emission_spectrum,
    g2 as g2_curve,
    mc_trajectories,
    populations,
    waiting_time,
)
from .systems import Config, SystemParams, build_model

log = logging.getLogger("trilevel")

SCHEMA_VERSION = 1

TASKS = ("simulate", "equiv-check", "spectrum", "g2", "waiting-time",
         "trajectories")

_GAMMA_ALIAS = {Config.FIG1A: "gamma23", Config.FIG1B: "gamma23",
                Config.FIG2A: "gamma31", Config.FIG2B: "gamma31"}

_SYSTEM_KEYS = {"config", "gamma21", "gamma23", "gamma31", "gamma23_or_31",
                "omega_a", "omega_b", "delta2", "delta3", "phi"}

_SCENARIO_KEYS = {"schema_version", "task", "system", "target", "time_grid",
                  "omega_grid", "initial_state", "seed", "tolerances",
                  "options"}

_OPTION_KEYS = {"compare_mapped", "detect_weights", "n_traj",
                "dark_threshold", "normalized"}


@dataclass(frozen=True)
class Scenario:
    """A fully validated run description with all defaults applied.

    ``initial_state`` is either a 1-based level index or an explicit 3x3
    density matrix as nested lists (each entry a number or an [re, im]
    pair).
    """

    task: str
    system: SystemParams
    target: SystemParams | None = None
    time_grid: tuple[float, float, int] = DEFAULT_TIME_GRID
    omega_grid: tuple[float, float, int] = DEFAULT_OMEGA_GRID
    initial_state: int | tuple = 1
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION


def _system_from_dict(raw: dict, where: str) -> SystemParams:
    if not isinstance(raw, dict):
        raise ScenarioError(where, "must be an object")
    unknown = set(raw) - _SYSTEM_KEYS
    if unknown:
        raise ScenarioError(f"{where}.{sorted(unknown)[0]}", "unknown field")
    if "config" not in raw:
        raise ScenarioError(f"{where}.config", "missing")
    try:
        config = Config(raw["config"])
    except ValueError:
        raise ScenarioError(f"{where}.config",
                            f"unknown configuration {raw['config']!r}") from None
    alias = _GAMMA_ALIAS[config]
    second = raw.get("gamma23_or_31", raw.get(alias))
    wrong = "gamma31" if alias == "gamma23" else "gamma23"
    if wrong in raw:
        raise ScenarioError(f"{where}.{wrong}",
                            f"config {config.value} expects '{alias}'")
    if second is None:
        raise ScenarioError(f"{where}.{alias}", "missing")
    kwargs = {
        "config": config,
        "gamma21": raw.get("gamma21"),
        "gamma23_or_31": second,
        "omega_a": raw.get("omega_a", 0.0),
        "omega_b": raw.get("omega_b", 0.0),
        "delta2": raw.get("delta2", 0.0),
        "delta3": raw.get("delta3", 0.0),
        "phi": raw.get("phi"),
    }
    if kwargs["gamma21"] is None:
        raise ScenarioError(f"{where}.gamma21", "missing")
    try:
        return SystemParams(**kwargs)
    except ScenarioError as err:
        raise ScenarioError(f"{where}.{err.field}", err.message) from None


def _grid_from(raw, where: str, default: tuple) -> tuple[float, float, int]:
    if raw is None:
        return default
    try:
        start, stop, count = float(raw[0]), float(raw[1]), int(raw[2])
    except (TypeError, ValueError, IndexError, OverflowError):
        raise ScenarioError(where, "must be [start, stop, count]") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ScenarioError(where, f"bounds must be finite, got ({start}, "
                                   f"{stop})")
    if count < 1 or stop < start or (count == 1 and stop != start):
        raise ScenarioError(where, f"invalid grid ({start}, {stop}, {count})")
    return (start, stop, count)


def _tolerance(where: str, raw) -> float:
    try:
        tol = float(raw)
    except (TypeError, ValueError):
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise ScenarioError(where, f"must be a finite number > 0, got {raw!r}")
    return tol


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file, applying defaults."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"scenario file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise ScenarioError("<file>", f"not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ScenarioError("<file>", "top level must be an object")
    unknown = set(raw) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioError(sorted(unknown)[0], "unknown field")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioError("schema_version",
                            f"unsupported version {version} (expected "
                            f"{SCHEMA_VERSION})")
    task = raw.get("task")
    if task not in TASKS:
        raise ScenarioError("task", f"must be one of {TASKS}, got {task!r}")
    system = _system_from_dict(raw.get("system"), "system")
    target = None
    if raw.get("target") is not None:
        target = _system_from_dict(raw["target"], "target")
    initial = raw.get("initial_state", 1)
    if isinstance(initial, int):
        if not (1 <= initial <= 3):
            raise ScenarioError("initial_state", "level index must be 1..3")
    elif isinstance(initial, list):
        try:
            _matrix_from_spec(initial)
        except ValueError as err:
            raise ScenarioError("initial_state", str(err)) from None
        initial = tuple(tuple(tuple(e) if isinstance(e, list) else e
                              for e in row) for row in initial)
    else:
        raise ScenarioError("initial_state",
                            "must be a level index 1..3 or a 3x3 matrix")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ScenarioError("seed", "must be a non-negative integer")
    tolerances = dict(DEFAULT_TOLERANCES)
    for key, val in (raw.get("tolerances") or {}).items():
        if key not in DEFAULT_TOLERANCES:
            raise ScenarioError(f"tolerances.{key}", "unknown tolerance")
        tolerances[key] = _tolerance(f"tolerances.{key}", val)
    options = dict(raw.get("options") or {})
    unknown = set(options) - _OPTION_KEYS
    if unknown:
        raise ScenarioError(f"options.{sorted(unknown)[0]}", "unknown option")
    return Scenario(
        task=task,
        system=system,
        target=target,
        time_grid=_grid_from(raw.get("time_grid"), "time_grid",
                             DEFAULT_TIME_GRID),
        omega_grid=_grid_from(raw.get("omega_grid"), "omega_grid",
                              DEFAULT_OMEGA_GRID),
        initial_state=initial,
        seed=seed,
        tolerances=tolerances,
        options=options,
        schema_version=SCHEMA_VERSION,
    )


def _system_to_dict(p: SystemParams) -> dict:
    out = {
        "config": p.config.value,
        "gamma21": p.gamma21,
        _GAMMA_ALIAS[p.config]: p.gamma23_or_31,
        "omega_a": p.omega_a,
        "omega_b": p.omega_b,
        "delta2": p.delta2,
        "delta3": p.delta3,
    }
    if p.phi is not None:
        out["phi"] = p.phi
    return out


def serialize_scenario(s: Scenario) -> dict:
    """Canonical JSON-ready form; parse(serialize(s)) == s."""
    out = {
        "schema_version": s.schema_version,
        "task": s.task,
        "system": _system_to_dict(s.system),
        "time_grid": list(s.time_grid),
        "omega_grid": list(s.omega_grid),
        "initial_state": s.initial_state,
        "seed": s.seed,
        "tolerances": dict(s.tolerances),
        "options": dict(s.options),
    }
    if s.target is not None:
        out["target"] = _system_to_dict(s.target)
    return out


@dataclass
class RunReport:
    scenario: dict
    task: str
    checks: list[dict]
    outputs: list[str]
    equivalence_map: dict | None = None
    extras: dict = field(default_factory=dict)
    duration_seconds: float = 0.0
    version: str = __version__

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _emap_to_dict(emap: EquivalenceMap) -> dict:
    return dataclasses.asdict(emap) | {"unitary": emap.unitary.tolist()}


def describe_map(p: SystemParams) -> str:
    """Human-readable dressed-basis map for a fig1a/fig2a system."""
    target, emap = map_system(p)
    lines = [
        f"source configuration : {p.config.value}",
        f"mixing angle theta   : {emap.theta:.12g} rad",
        f"dressed eigenvalues  : lambda1 = {emap.lambda1:.12g}, "
        f"lambda2 = {emap.lambda2:.12g}  [Gamma_ref]",
        f"mapped rates         : gamma'_21 = {emap.gamma_p21:.12g}, "
        f"gamma'_{'23' if emap.family == 'fig1' else '31'} = "
        f"{emap.gamma_p23_or_31:.12g}, cross = {emap.gamma_cross:.12g}"
        "  [Gamma_ref]",
        f"dipole angle phi     : {emap.phi:.12g} rad",
        f"mapped Rabi drives   : ({emap.mapped_rabis[0]:.12g}, "
        f"{emap.mapped_rabis[1]:.12g})  [Gamma_ref]",
        f"target detunings     : delta2 = {target.delta2:.12g}, "
        f"delta3 = {target.delta3:.12g}  [Gamma_ref]",
        f"target configuration : {target.config.value}",
    ]
    return "\n".join(lines)


def _matrix_from_spec(rows) -> np.ndarray:
    """3x3 density matrix from nested lists; entries are numbers or
    [re, im] pairs."""
    if not (isinstance(rows, (list, tuple)) and len(rows) == 3):
        raise ValueError("matrix must have 3 rows")
    out = np.zeros((3, 3), dtype=complex)
    for i, row in enumerate(rows):
        if not (isinstance(row, (list, tuple)) and len(row) == 3):
            raise ValueError("matrix rows must have 3 entries")
        for j, entry in enumerate(row):
            if isinstance(entry, (list, tuple)):
                if len(entry) != 2:
                    raise ValueError("complex entries are [re, im] pairs")
                out[i, j] = complex(entry[0], entry[1])
            else:
                out[i, j] = complex(entry)
    from .linalg import check_density_matrix
    check_density_matrix(out, herm_tol=1e-9, trace_tol=1e-9)
    return out


def _grid_array(grid: tuple[float, float, int]) -> np.ndarray:
    start, stop, count = grid
    return np.linspace(start, stop, count)


def _initial_rho(s: Scenario) -> np.ndarray:
    if isinstance(s.initial_state, int):
        return level_projector(s.initial_state - 1)
    return _matrix_from_spec(s.initial_state)


def _write_columns(path: Path, header_lines: list[str],
                   columns: list[np.ndarray]) -> None:
    data = np.column_stack(columns)
    header = "\n".join(header_lines)
    np.savetxt(path, data, fmt="%.12e", header=header)


def _detect_pair(model_a, model_b, emap, weights=None):
    # polarization-aligned detection: bare 2->1 dipole of the (a) system and
    # the (cos, sin)-weighted combination on the (b) side
    if weights is None:
        weights = (math.cos(emap.theta), math.sin(emap.theta))
    det_a = model_a.collapse_ops[0]
    det_b = (weights[0] * model_b.collapse_ops[0]
             + weights[1] * model_b.collapse_ops[1])
    return det_a, det_b


def run(s: Scenario, out_dir: str | Path) -> RunReport:
    """Execute a scenario, writing data files and report.json."""
    t0 = _time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checks: list[dict] = []
    outputs: list[str] = []
    extras: dict = {}
    emap_dict = None

    times = _grid_array(s.time_grid)
    model = build_model(s.system)

    if s.task == "simulate":
        pops = populations(model, _initial_rho(s), times)
        path = out_dir / "populations.dat"
        _write_columns(
            path,
            [f"trilevel simulate ({s.system.config.value})",
             "time [1/Gamma_ref], pop_level1, pop_level2, pop_level3 [1]"],
            [times] + [p.values for p in pops],
        )
        outputs.append(path.name)

    elif s.task == "equiv-check":
        if s.target is None:
            target, emap = map_system(s.system)
        else:
            _, emap = map_system(s.system)
            target = s.target
        emap_dict = _emap_to_dict(emap)
        tol = s.tolerances["equivalence"]
        report = verify_equivalence(model, build_model(target), emap.unitary,
                                    _initial_rho(s), times, tol=tol)
        checks.append({"name": "equivalence_max_frobenius_distance",
                       "value": float(report.max_dist), "tol": tol,
                       "passed": bool(report.passed)})
        checks.append({"name": "trace_error",
                       "value": float(report.max_trace_error),
                       "tol": s.tolerances["trace"],
                       "passed": bool(report.max_trace_error
                                      < s.tolerances["trace"])})
        path = out_dir / "equivalence.dat"
        _write_columns(
            path,
            ["trilevel equiv-check (rotated-frame trajectory distance)",
             "time [1/Gamma_ref], frobenius_distance [1]"],
            [report.times, report.distances],
        )
        outputs.append(path.name)

    elif s.task in ("g2", "waiting-time"):
        curve_fn = g2_curve if s.task == "g2" else waiting_time
        fname = "g2.dat" if s.task == "g2" else "waiting_time.dat"
        kwargs = {}
        if s.task == "g2" and s.options.get("normalized"):
            kwargs["normalized"] = True
        unit = "[1]" if kwargs else "[Gamma_ref]"
        curve = curve_fn(model, times, **kwargs)
        cols = [times, curve.values]
        head = [f"trilevel {s.task} ({s.system.config.value})",
                f"tau [1/Gamma_ref], value {unit}"]
        if s.options.get("compare_mapped"):
            target, emap = map_system(s.system)
            emap_dict = _emap_to_dict(emap)
            # the twin's detection reset is the rotated ground state
            u = emap.unitary
            other = curve_fn(build_model(target), times,
                             reset_state=u @ level_projector(0) @ u.conj().T,
                             **kwargs)
            diff = float(np.max(np.abs(curve.values - other.values)))
            tol = s.tolerances["photon_statistics"]
            checks.append({"name": f"{s.task}_mapped_pair_max_diff",
                           "value": diff, "tol": tol, "passed": diff < tol})
            cols.append(other.values)
            head[1] += f", mapped value {unit}"
        path = out_dir / fname
        _write_columns(path, head, cols)
        outputs.append(path.name)

    elif s.task == "spectrum":
        omegas = _grid_array(s.omega_grid)
        if s.options.get("compare_mapped"):
            target, emap = map_system(s.system)
            emap_dict = _emap_to_dict(emap)
            model_b = build_model(target)
            det_a, det_b = _detect_pair(model, model_b, emap)
            spec_a = emission_spectrum(model, det_a, omegas)
            spec_b = emission_spectrum(model_b, det_b, omegas)
            scale = max(float(np.max(np.abs(spec_a.values))), 1e-300)
            diff = float(np.max(np.abs(spec_a.values - spec_b.values))) / scale
            tol = s.tolerances["spectrum_rel"]
            checks.append({"name": "spectrum_mapped_pair_rel_diff",
                           "value": diff, "tol": tol, "passed": diff < tol})
            path = out_dir / "spectrum.dat"
            _write_columns(
                path,
                ["trilevel spectrum (mapped pair)",
                 "omega [Gamma_ref], S_a [1/Gamma_ref], S_b [1/Gamma_ref]"],
                [omegas, spec_a.values, spec_b.values],
            )
            outputs.append(path.name)
        else:
            weights = s.options.get("detect_weights", [1.0, 0.0])
            try:
                w0, w1 = float(weights[0]), float(weights[1])
            except (TypeError, ValueError, IndexError):
                raise ScenarioError("options.detect_weights",
                                    "must be a pair of numbers") from None
            detect = w0 * model.collapse_ops[0] + w1 * model.collapse_ops[1]
            spec = emission_spectrum(model, detect, omegas)
            path = out_dir / "spectrum.dat"
            _write_columns(
                path,
                [f"trilevel spectrum ({s.system.config.value}), "
                 f"coherent_weight = {spec.meta['coherent_weight']:.12e}",
                 "omega [Gamma_ref], S [1/Gamma_ref]"],
                [omegas, spec.values],
            )
            outputs.append(path.name)

    elif s.task == "trajectories":
        if not isinstance(s.initial_state, int):
            raise ScenarioError("initial_state",
                                "trajectories start from a pure state; "
                                "use a level index")
        n_traj = int(s.options.get("n_traj", DEFAULT_N_TRAJ))
        threshold = float(s.options.get("dark_threshold",
                                        DEFAULT_DARK_THRESHOLD))
        run_mc = mc_trajectories(model, n_traj, float(times[-1]), s.seed,
                                 initial_state=np.eye(3)[s.initial_state - 1])
        rows_traj, rows_t, rows_ch = [], [], []
        for rec in run_mc.records:
            rows_traj.extend([rec.trajectory] * rec.times.size)
            rows_t.extend(rec.times.tolist())
            rows_ch.extend(rec.channels.tolist())
        path = out_dir / "jumps.dat"
        _write_columns(
            path,
            [f"trilevel trajectories ({s.system.config.value}), "
             f"seed = {s.seed}, n_traj = {n_traj}",
             "trajectory [1], jump_time [1/Gamma_ref], channel [1]"],
            [np.array(rows_traj, dtype=float), np.array(rows_t),
             np.array(rows_ch, dtype=float)],
        )
        outputs.append(path.name)
        stats = bright_dark_stats(run_mc.records, threshold)
        extras["bright_dark"] = {
            "threshold": threshold,
            "mean_bright": stats.mean_bright,
            "mean_dark": stats.mean_dark,
            "n_dark_periods": stats.n_dark_periods,
            "n_gaps": stats.n_gaps,
        }

    else:  # pragma: no cover - parse_scenario already rejects this
        raise ScenarioError("task", f"unhandled task {s.task}")

    report = RunReport(
        scenario=serialize_scenario(s),
        task=s.task,
        checks=checks,
        outputs=outputs,
        equivalence_map=emap_dict,
        extras=extras,
        duration_seconds=_time.perf_counter() - t0,
    )
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(report) | {"passed": report.all_passed},
                  fh, indent=2)
        fh.write("\n")
    for name, passed in [(c["name"], c["passed"]) for c in checks]:
        log.info("check %s: %s", name, "pass" if passed else "FAIL")
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trilevel",
        description="Three-level master equations, dressed-basis equivalence "
                    "maps, photon statistics and spectra.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in TASKS + ("describe-map",):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="scenario JSON file")
        if verb != "describe-map":
            p.add_argument("--out", default=".", help="output directory")
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario seed")
            p.add_argument("--tol", type=float, default=None,
                           help="override the task's main tolerance")
    return parser


_MAIN_TOL = {"equiv-check": "equivalence", "g2": "photon_statistics",
             "waiting-time": "photon_statistics", "spectrum": "spectrum_rel"}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("TRILEVEL_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = _build_parser().parse_args(argv)
    try:
        scenario = parse_scenario(args.config)
        if args.verb == "describe-map":
            print(describe_map(scenario.system))
            return 0
        if scenario.task != args.verb:
            raise ScenarioError(
                "task", f"scenario declares {scenario.task!r} but the "
                f"{args.verb!r} verb was invoked")
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
        if args.tol is not None and args.verb in _MAIN_TOL:
            tols = dict(scenario.tolerances)
            tols[_MAIN_TOL[args.verb]] = _tolerance("--tol", args.tol)
            scenario = dataclasses.replace(scenario, tolerances=tols)
        report = run(scenario, args.out)
    except (ValueError, TypeError, OSError) as err:  # rejected input
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # internal, e.g. NonUniqueSteadyStateError
        log.debug("internal failure", exc_info=True)
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    for check in report.checks:
        status = "pass" if check["passed"] else "FAIL"
        print(f"{check['name']}: {check['value']:.6e} "
              f"(tol {check['tol']:.1e}) {status}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
