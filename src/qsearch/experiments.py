"""Configuration-driven experiment runner.

Parses strict JSON configs, runs single trajectories or parameter
sweeps, fits power laws, and emits CSV/JSON artifacts stamped with
the config hash. CSV bodies are deterministic for a fixed config;
the timestamp lives on its own comment line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bath import BathSpec, correlation_finite_T, correlation_zero_T, validate_approximations
from .errors import ConfigError, InvalidParameterError, NoEstimateError
from .model import (
    DENSE_LIMIT,
    DisorderField,
    GraphSpec,
    build_complete_graph,
    build_custom_graph,
    build_search_hamiltonian,
    gamma_policy,
    sample_disorder,
)
from .redfield import (
    assemble_redfield,
    damping_rate,
    extract_relaxation_time,
    integrate_master,
    secular_populations,
    secular_rates,
    solution_population,
    steady_state,
)
from .spectral import (
    TwoLevelSystem,
    coupling_coefficients,
    eigendecompose,
    reduce_two_level,
    secular_spectrum,
)
from .unitary import evolve_closed, reduced_peak, regime_classify, success_probability_reduced
from .version import __version__

MODES = ("unitary", "redfield", "secular", "correlation", "sweep", "validate", "spectrum")
SWEEP_PARAMETERS = ("n", "sigma", "beta", "g", "omega_c")
# the other modes read only the complete-graph two-level reduction
_CUSTOM_GRAPH_MODES = ("unitary", "spectrum")

_TOP_KEYS = {"mode", "system", "bath", "grid", "sweep", "output"}
_SYSTEM_KEYS = {"n", "sigma", "seed", "w", "gamma_policy", "distribution", "kind", "adjacency"}
_BATH_KEYS = {"beta", "g", "omega_c", "eta", "d"}
_GRID_KEYS = {"t_max", "points"}
_SWEEP_KEYS = {"parameter", "values", "seeds", "fit"}
_OUTPUT_KEYS = {"stem"}


@dataclass(frozen=True)
class SystemConfig:
    n: int
    sigma: float = 0.0
    seed: int = 0
    w: int = 0
    gamma_policy: str = "plain"
    distribution: str = "uniform"
    kind: str = "complete"
    adjacency: Optional[list] = None


@dataclass(frozen=True)
class GridConfig:
    t_max: Optional[float] = None
    points: int = 2000


@dataclass(frozen=True)
class SweepConfig:
    parameter: str
    values: Tuple[float, ...]
    seeds: int = 8
    fit: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    system: Optional[SystemConfig]
    bath: Optional[BathSpec]
    grid: GridConfig
    sweep: Optional[SweepConfig]
    stem: str
    config_hash: str


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


def _number(value, where: str, integer: bool = False):
    """A finite JSON number from a config; an int when integer is set."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if integer and isinstance(value, int):
        return value
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x) or (integer and not x.is_integer()):
        kind = "integer" if integer else "number"
        raise ConfigError(f"{where} must be a finite {kind}, got {value!r}")
    return int(x) if integer else x


def _parse_system(doc: dict) -> SystemConfig:
    _reject_unknown(doc, _SYSTEM_KEYS, "system")
    n = _number(_require(doc, "n", "system"), "system.n", integer=True)
    if n < 2:
        raise ConfigError(f"system.n must be an integer >= 2, got {n!r}")
    sys_cfg = SystemConfig(
        n=n,
        sigma=_number(doc.get("sigma", 0.0), "system.sigma"),
        seed=_number(doc.get("seed", 0), "system.seed", integer=True),
        w=_number(doc.get("w", 0), "system.w", integer=True),
        gamma_policy=str(doc.get("gamma_policy", "plain")),
        distribution=str(doc.get("distribution", "uniform")),
        kind=str(doc.get("kind", "complete")),
        adjacency=doc.get("adjacency"),
    )
    if sys_cfg.sigma < 0:
        raise ConfigError(f"system.sigma must be nonnegative, got {sys_cfg.sigma}")
    if sys_cfg.seed < 0:
        raise ConfigError(f"system.seed must be nonnegative, got {sys_cfg.seed}")
    if not (0 <= sys_cfg.w < sys_cfg.n):
        raise ConfigError(f"system.w must be in [0, {sys_cfg.n}), got {sys_cfg.w}")
    if sys_cfg.gamma_policy not in ("plain", "shifted"):
        raise ConfigError(f"unknown gamma_policy {sys_cfg.gamma_policy!r}")
    if sys_cfg.distribution == "gaussian-truncated":
        # 3-sigma tails put |eps_w| > sigma for about a third of seeds,
        # which the two-level reduction every mode runs refuses
        raise ConfigError(
            "distribution 'gaussian-truncated' is not supported by the runner: "
            "the two-level reduction needs |eps_w| <= sigma, which its 3-sigma tails break"
        )
    if sys_cfg.distribution != "uniform":
        raise ConfigError(f"unknown distribution {sys_cfg.distribution!r}")
    if sys_cfg.kind not in ("complete", "custom"):
        raise ConfigError(f"unknown graph kind {sys_cfg.kind!r}")
    if sys_cfg.kind == "custom":
        if n > DENSE_LIMIT:
            raise ConfigError(f"custom graphs are limited to n <= {DENSE_LIMIT}, got {n}")
        rows = sys_cfg.adjacency
        if not (isinstance(rows, list) and len(rows) == n
                and all(isinstance(row, list) and len(row) == n for row in rows)):
            raise ConfigError(f"kind=custom requires system.adjacency as {n} rows of {n} numbers")
        for row in rows:
            for x in row:
                _number(x, "system.adjacency")
    return sys_cfg


def _parse_bath(doc: dict) -> BathSpec:
    _reject_unknown(doc, _BATH_KEYS, "bath")
    beta_raw = doc.get("beta", "inf")
    if isinstance(beta_raw, str):
        if beta_raw not in ("inf", "Infinity"):
            raise ConfigError(f"bath.beta must be a number or \"inf\", got {beta_raw!r}")
        beta = math.inf
    else:
        beta = math.inf if beta_raw == math.inf else _number(beta_raw, "bath.beta")
    try:
        return BathSpec(
            g=_number(_require(doc, "g", "bath"), "bath.g"),
            beta=beta,
            omega_c=_number(doc.get("omega_c", 2.0), "bath.omega_c"),
            eta=_number(doc.get("eta", 1.0), "bath.eta"),
            d=_number(doc.get("d", 1.0), "bath.d"),
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_grid(doc: dict) -> GridConfig:
    _reject_unknown(doc, _GRID_KEYS, "grid")
    t_max = doc.get("t_max")
    if t_max is not None:
        t_max = _number(t_max, "grid.t_max")
        if t_max <= 0:
            raise ConfigError(f"grid.t_max must be positive and finite, got {t_max}")
    points = _number(doc.get("points", 2000), "grid.points", integer=True)
    if points < 2:
        raise ConfigError(f"grid.points must be >= 2, got {points}")
    return GridConfig(t_max=t_max, points=points)


def _parse_sweep(doc: dict) -> SweepConfig:
    _reject_unknown(doc, _SWEEP_KEYS, "sweep")
    parameter = _require(doc, "parameter", "sweep")
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"sweep.parameter must be one of {SWEEP_PARAMETERS}, got {parameter!r}")
    values = _require(doc, "values", "sweep")
    if not isinstance(values, (list, tuple)) or len(values) == 0:
        raise ConfigError("sweep.values must be a nonempty list")
    vals = [_number(v, "sweep.values") for v in values]
    seeds = _number(doc.get("seeds", 8), "sweep.seeds", integer=True)
    if seeds < 1:
        raise ConfigError(f"sweep.seeds must be >= 1, got {seeds}")
    fit = doc.get("fit", True)
    if not isinstance(fit, bool):
        raise ConfigError(f"sweep.fit must be true or false, got {fit!r}")
    if fit and min(vals) <= 0:
        # refused before any point runs: the log-log fit cannot take them
        raise ConfigError(f"sweep.fit needs positive values, got {min(vals)}")
    return SweepConfig(parameter=parameter, values=tuple(vals), seeds=seeds, fit=fit)


def config_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def parse_config(doc: dict) -> ExperimentConfig:
    """Strict-schema parse of a config document."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")
    mode = _require(doc, "mode", "config")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    system = _parse_system(doc["system"]) if "system" in doc else None
    bath = _parse_bath(doc["bath"]) if "bath" in doc else None
    grid = _parse_grid(doc.get("grid", {}))
    sweep_cfg = _parse_sweep(doc["sweep"]) if "sweep" in doc else None
    output = doc.get("output", {})
    _reject_unknown(output, _OUTPUT_KEYS, "output")
    stem = str(output.get("stem", mode))

    needs_system = {"unitary", "redfield", "secular", "sweep", "validate", "spectrum"}
    needs_bath = {"redfield", "secular", "correlation", "sweep", "validate"}
    if mode in needs_system and system is None:
        raise ConfigError(f"mode {mode!r} requires a system section")
    if system is not None and system.kind == "custom" and mode not in _CUSTOM_GRAPH_MODES:
        raise ConfigError(
            f"system.kind 'custom' is honoured only by modes {_CUSTOM_GRAPH_MODES}; "
            f"mode {mode!r} reads the complete-graph two-level reduction"
        )
    if mode in needs_bath and bath is None:
        raise ConfigError(f"mode {mode!r} requires a bath section")
    if mode == "sweep" and sweep_cfg is None:
        raise ConfigError("mode 'sweep' requires a sweep section")
    if mode == "spectrum" and system.n > DENSE_LIMIT:
        raise ConfigError(f"spectrum mode needs n <= {DENSE_LIMIT}, got {system.n}")
    points = [(system, bath)]
    if mode == "sweep":
        # every swept point is built and checked here, before any of them runs
        try:
            points = [_apply_sweep_value(system, bath, sweep_cfg.parameter, v)
                      for v in sweep_cfg.values]
        except InvalidParameterError as exc:  # a swept bath value that BathSpec refuses
            raise ConfigError(f"sweep.values: {exc}") from exc
        for point, _ in points:
            if point.n < 2 or point.n <= point.w:
                raise ConfigError(f"swept n must be >= 2 and exceed system.w = {point.w}, got {point.n}")
            if point.sigma < 0:
                raise ConfigError(f"swept sigma must be nonnegative, got {point.sigma}")
    if mode in ("redfield", "secular", "sweep"):
        g_min = min(point_bath.g for _, point_bath in points)
        if g_min <= 0:
            # nothing relaxes at g = 0: the rates vanish and the default window is 6/gamma
            raise ConfigError(f"mode {mode!r} needs g > 0, got {g_min}")
    if mode in ("correlation", "redfield", "secular") and grid.t_max is None:
        raise ConfigError(f"mode {mode!r} requires grid.t_max")
    return ExperimentConfig(
        mode=mode, system=system, bath=bath, grid=grid,
        sweep=sweep_cfg, stem=stem, config_hash=config_hash(doc),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(doc)


def _write_csv(path: str, cfg_hash: str, header: Sequence[str], rows, formats=None) -> None:
    """Comment block, header, then each row tuple in one printf format per column ("%.12g")."""
    line = ",".join(formats or ["%.12g"] * len(header)) + "\n"
    with open(path, "w") as f:
        f.write(f"# config {cfg_hash}\n")
        f.write(f"# version {__version__}\n")
        f.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        f.write(",".join(header) + "\n")
        f.writelines(line % row for row in rows)


def _write_json(path: str, cfg_hash: str, payload: dict) -> None:
    doc = {"config_hash": cfg_hash, "version": __version__}
    doc.update(payload)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _disorder(sys_cfg: SystemConfig) -> DisorderField:
    return sample_disorder(sys_cfg.n, sys_cfg.sigma, sys_cfg.distribution, sys_cfg.seed)


def _graph(sys_cfg: SystemConfig) -> GraphSpec:
    if sys_cfg.kind == "custom":
        return build_custom_graph(np.asarray(sys_cfg.adjacency, dtype=float))
    return build_complete_graph(sys_cfg.n)


def _reduced_system(sys_cfg: SystemConfig) -> Tuple[TwoLevelSystem, float]:
    """Two-level reduction of the configured system; returns (tl, eps_w).

    eps_w is the last site of a (w+1)-site draw, which sample_disorder
    guarantees is site w of the n-site field.
    """
    prefix = sample_disorder(sys_cfg.w + 1, sys_cfg.sigma, sys_cfg.distribution, sys_cfg.seed)
    eps_w = float(prefix.epsilons[-1])
    sigma_arg = sys_cfg.sigma if (sys_cfg.sigma > 0 or sys_cfg.gamma_policy == "shifted") else None
    tl = reduce_two_level(sys_cfg.n, eps_w, sigma=sigma_arg, policy=sys_cfg.gamma_policy)
    return tl, eps_w


def _projected_initial_state(tl: TwoLevelSystem) -> Tuple[np.ndarray, float]:
    """Uniform state projected onto the retained pair; returns (rho0, defect)."""
    s1, s2 = tl.s_overlap(1), tl.s_overlap(2)
    weight = s1 * s1 + s2 * s2
    psi = np.array([s1, s2]) / math.sqrt(weight)
    rho0 = np.outer(psi, psi).astype(complex)
    return rho0, 1.0 - weight


def _times(grid: GridConfig, t_max: float) -> np.ndarray:
    return np.linspace(0.0, grid.t_max if grid.t_max is not None else t_max, grid.points)


def _gibbs_p_suc(beta: float, delta: float) -> float:
    if math.isinf(beta):
        return 1.0
    return 1.0 / (1.0 + math.exp(-beta * delta))


def _run_unitary(cfg: ExperimentConfig, out_dir: str) -> Tuple[List[str], dict]:
    sys_cfg = cfg.system
    tl, eps_w = _reduced_system(sys_cfg)
    times = _times(cfg.grid, 3.0 * math.pi / tl.delta)
    if sys_cfg.n <= DENSE_LIMIT:
        gamma = gamma_policy(sys_cfg.n, sys_cfg.sigma, sys_cfg.gamma_policy)
        h = build_search_hamiltonian(_graph(sys_cfg), sys_cfg.w, gamma, _disorder(sys_cfg))
        result = evolve_closed(h, times)
        p_w = result.p_w
        summary = result.summary()
        summary["method"] = "exact"
    else:
        p_w = success_probability_reduced(tl, times)
        t_peak, p_peak = reduced_peak(tl)
        summary = {
            "t_peak": t_peak,
            "p_peak": p_peak,
            "repetitions": 1.0 / p_peak,
            "t_expected": t_peak / p_peak,
            "method": "reduced",
        }
    summary["regime"] = regime_classify(sys_cfg.n, sys_cfg.sigma)
    summary["eps_w"] = eps_w
    summary["delta"] = tl.delta
    csv_path = os.path.join(out_dir, f"{cfg.stem}.csv")
    json_path = os.path.join(out_dir, f"{cfg.stem}_summary.json")
    _write_csv(csv_path, cfg.config_hash, ["t", "p_w"], zip(times, p_w))
    _write_json(json_path, cfg.config_hash, summary)
    return [csv_path, json_path], summary


def _relax(
    system: SystemConfig, bath: BathSpec, grid: GridConfig, force: bool, secular: bool
) -> Tuple[TwoLevelSystem, np.ndarray, Tuple[np.ndarray, ...], dict]:
    """Relax the projected uniform state of the reduced pair and fit t_rel.

    The secular path propagates the populations on transfer rates (default
    window 6 t_rel, zero coherence); the tensor path integrates the full
    two-level Redfield tensor (default window 6/gamma). Returns (tl, times,
    columns, summary): the columns are p_w, rho11, rho22, re_rho12 and
    im_rho12; the summary carries the scalar results, with t_rel_fit None
    and the reason in fit_note when no decay time can be fitted.
    """
    tl, eps_w = _reduced_system(system)
    coeffs = coupling_coefficients(tl, retained=2)
    rho0, defect = _projected_initial_state(tl)
    if secular:
        rates = secular_rates(coeffs, bath, tl.delta, force=force)
        times = _times(grid, 6.0 * rates.t_rel)
        rho11 = secular_populations(rates, times, float(np.real(rho0[0, 0])))
        rho22 = 1.0 - rho11
        zeros = np.zeros_like(times)
        columns = (tl.a1**2 * rho11 + tl.a2**2 * rho22, rho11, rho22, zeros, zeros)
        p_suc = rates.p_suc
        p_w_steady = tl.a1**2 * p_suc + tl.a2**2 * (1.0 - p_suc)
        summary = {"rates": rates.to_dict(), "t_rel_formula": rates.t_rel}
    else:
        tensor = assemble_redfield(coeffs, tl, bath, force=force)
        gamma = damping_rate(coeffs, bath, tl.delta)
        if gamma == 0.0:  # g > 0 whose square underflows
            raise InvalidParameterError(f"the damping rate at g = {bath.g} is zero; nothing relaxes")
        times = _times(grid, 6.0 / gamma)
        traj = integrate_master(tensor, rho0, times)
        series = solution_population(traj, tl)
        rhos = traj.rhos
        columns = (
            series.values, np.real(rhos[:, 0, 0]), np.real(rhos[:, 1, 1]),
            np.real(rhos[:, 0, 1]), np.imag(rhos[:, 0, 1]),
        )
        p_suc = _gibbs_p_suc(bath.beta, tl.delta)
        wrow = np.array([tl.a1, tl.a2])
        p_w_steady = float(np.real(wrow @ steady_state(tensor) @ wrow))
        summary = {
            "gamma_damping": gamma,
            "regime": "underdamped" if gamma < tl.delta else "overdamped",
            "t_rel_formula": 1.0 / (2.0 * gamma),
            "truncation_bound": series.truncation_bound,
        }
    report = validate_approximations(bath, tl.delta, tl.n)
    try:
        t_rel_fit = extract_relaxation_time(times, columns[0], p_w_steady)
        fit_note = ""
    except NoEstimateError as exc:
        t_rel_fit = None
        fit_note = str(exc)
    summary.update({
        "delta": tl.delta,
        "eps_w": eps_w,
        "p_suc": p_suc,
        "p_w_steady": p_w_steady,
        "t_rel_fit": t_rel_fit,
        "fit_note": fit_note,
        "projection_defect": defect,
        "validity": report.to_dict(),
    })
    return tl, times, columns, summary


def _run_relaxation(cfg: ExperimentConfig, out_dir: str, force: bool) -> Tuple[List[str], dict]:
    _, times, columns, summary = _relax(
        cfg.system, cfg.bath, cfg.grid, force, secular=cfg.mode == "secular"
    )
    csv_path = os.path.join(out_dir, f"{cfg.stem}.csv")
    json_path = os.path.join(out_dir, f"{cfg.stem}_summary.json")
    header = ["t", "p_w", "rho11", "rho22", "re_rho12", "im_rho12"]
    _write_csv(csv_path, cfg.config_hash, header, zip(times, *columns))
    _write_json(json_path, cfg.config_hash, summary)
    return [csv_path, json_path], summary


def _run_correlation(cfg: ExperimentConfig, out_dir: str) -> Tuple[List[str], dict]:
    times = np.linspace(0.0, cfg.grid.t_max, cfg.grid.points)
    if cfg.bath.is_zero_temperature:
        f_vals = correlation_zero_T(times, cfg.bath)
    else:
        f_vals = correlation_finite_T(times, cfg.bath)
    rows = zip(times, np.real(f_vals), np.imag(f_vals), np.abs(f_vals))
    csv_path = os.path.join(out_dir, f"{cfg.stem}.csv")
    _write_csv(csv_path, cfg.config_hash, ["t", "re_f", "im_f", "abs_f"], rows)
    files = [csv_path]
    summary: dict = {"temperature_mode": cfg.bath.temperature_mode}
    if cfg.system is not None:
        tl, _ = _reduced_system(cfg.system)
        report = validate_approximations(cfg.bath, tl.delta, cfg.system.n)
        summary["validity"] = report.to_dict()
        json_path = os.path.join(out_dir, f"{cfg.stem}_validity.json")
        _write_json(json_path, cfg.config_hash, summary)
        files.append(json_path)
    return files, summary


def _run_validate(cfg: ExperimentConfig, out_dir: str) -> Tuple[List[str], dict]:
    tl, eps_w = _reduced_system(cfg.system)
    report = validate_approximations(cfg.bath, tl.delta, cfg.system.n)
    summary = {"delta": tl.delta, "eps_w": eps_w, "validity": report.to_dict()}
    json_path = os.path.join(out_dir, f"{cfg.stem}_validity.json")
    _write_json(json_path, cfg.config_hash, summary)
    return [json_path], summary


def _run_spectrum(cfg: ExperimentConfig, out_dir: str) -> Tuple[List[str], dict]:
    sys_cfg = cfg.system
    graph = _graph(sys_cfg)
    gamma = gamma_policy(sys_cfg.n, sys_cfg.sigma, sys_cfg.gamma_policy)
    h = build_search_hamiltonian(graph, sys_cfg.w, gamma, _disorder(sys_cfg))
    if graph.kind == "complete":
        spectrum = secular_spectrum(h)
        ground_w = spectrum.w_overlaps[0]
    else:
        spectrum = eigendecompose(h)
        ground_w = spectrum.eigenvectors[sys_cfg.w, 0]
    tl, eps_w = _reduced_system(sys_cfg)
    summary = {
        "gap": spectrum.gap,
        "gap2": spectrum.gap2,
        "eigenvalues": [float(x) for x in spectrum.eigenvalues],
        "ground_w_overlap_sq": float(ground_w**2),
        "reduced": tl.to_dict(),
        "eps_w": eps_w,
    }
    json_path = os.path.join(out_dir, f"{cfg.stem}_spectrum.json")
    _write_json(json_path, cfg.config_hash, summary)
    return [json_path], summary


@dataclass(frozen=True)
class SweepResult:
    """Per-(value, seed) rows plus the optional log-log fit."""

    parameter: str
    rows: List[dict] = field(default_factory=list)
    per_value: List[dict] = field(default_factory=list)
    fit: Optional[dict] = None


def fit_power_law(xs, ys) -> Dict[str, float]:
    """Least-squares power-law fit on log-log axes."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 3:
        raise InvalidParameterError("need at least 3 (x, y) pairs")
    if np.any(x <= 0) or np.any(y <= 0) or not np.all(np.isfinite(x) & np.isfinite(y)):
        raise InvalidParameterError("power-law fit needs positive finite data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(residual**2)) / ss_tot if ss_tot > 0 else 1.0
    return {"exponent": float(slope), "intercept": float(intercept), "r2": r2}


def _apply_sweep_value(
    system: SystemConfig, bath: BathSpec, parameter: str, value: float
) -> Tuple[SystemConfig, BathSpec]:
    """The (system, bath) at one swept value; replace reruns BathSpec's checks."""
    if parameter == "n":
        return replace(system, n=int(round(value))), bath
    if parameter == "sigma":
        return replace(system, sigma=float(value)), bath
    return system, replace(bath, **{parameter: float(value)})


def _sweep_point(
    system: SystemConfig, bath: BathSpec, grid: GridConfig, force: bool
) -> dict:
    # disordered points relax on secular population rates, disorder-free
    # points on the full two-level tensor
    tl, _, _, summary = _relax(system, bath, grid, force, secular=system.sigma > 0)
    validity = summary["validity"]
    return {
        "seed": system.seed,
        "eps_w": summary["eps_w"],
        "delta": tl.delta,
        "t_rel_fit": math.nan if summary["t_rel_fit"] is None else summary["t_rel_fit"],
        "t_rel_formula": summary["t_rel_formula"],
        "p_suc": summary["p_suc"],
        "p_peak": reduced_peak(tl)[1],
        "markov_status": validity["markov_status"],
        "secular_status": validity["secular_status"],
        "two_level_ok": validity["two_level_ok"],
        "note": summary["fit_note"],
    }


def sweep(cfg: ExperimentConfig, force: bool = False, workers: int = 1) -> SweepResult:
    """Run all (value, seed) points, concurrently up to the worker count.

    Rows are keyed and sorted by (value index, seed), so results are
    independent of scheduling order and worker count.
    """
    sw = cfg.sweep
    tasks = []
    for vi, value in enumerate(sw.values):
        system, bath = _apply_sweep_value(cfg.system, cfg.bath, sw.parameter, value)
        for seed in range(sw.seeds):
            tasks.append((vi, value, seed, replace(system, seed=seed), bath))

    def run_task(task):
        vi, value, seed, system, bath = task
        row = _sweep_point(system, bath, cfg.grid, force)
        row["value"] = value
        row["value_index"] = vi
        return row

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_task, tasks))
    else:
        rows = [run_task(t) for t in tasks]
    rows.sort(key=lambda r: (r["value_index"], r["seed"]))

    per_value = []
    for vi, value in enumerate(sw.values):
        fits = np.array([r["t_rel_fit"] for r in rows if r["value_index"] == vi])
        finite = fits[np.isfinite(fits)]
        if finite.size:
            q25, q50, q75 = np.percentile(finite, [25, 50, 75])
        else:
            q25 = q50 = q75 = math.nan
        per_value.append({
            "value": value,
            "median_t_rel_fit": float(q50),
            "iqr_t_rel_fit": float(q75 - q25),
            "points": int(finite.size),
        })

    fit = None
    medians = [pv["median_t_rel_fit"] for pv in per_value]
    distinct = len(set(sw.values))
    if sw.fit:
        if distinct < 3:
            warnings.warn(
                f"power-law fit needs at least 3 distinct values, got {distinct}; fit omitted",
                stacklevel=2,
            )
        elif not all(math.isfinite(m) and m > 0 for m in medians):
            warnings.warn(
                "some per-value medians are not finite and positive; fit omitted",
                stacklevel=2,
            )
        else:
            xs = [pv["value"] for pv in per_value]
            fit = fit_power_law(xs, medians)
    return SweepResult(parameter=sw.parameter, rows=rows, per_value=per_value, fit=fit)


_SWEEP_COLUMNS = (
    "value", "seed", "eps_w", "delta", "t_rel_fit", "t_rel_formula",
    "p_suc", "p_peak", "markov_status", "secular_status", "two_level_ok", "note",
)
# printf format of each column above; the bool two_level_ok is written as true/false
_SWEEP_FORMATS = ("%.12g", "%d") + ("%.12g",) * 6 + ("%s",) * 4


def _run_sweep(cfg: ExperimentConfig, out_dir: str, force: bool, workers: int) -> Tuple[List[str], dict]:
    result = sweep(cfg, force=force, workers=workers)
    csv_path = os.path.join(out_dir, f"{cfg.stem}.csv")
    json_path = os.path.join(out_dir, f"{cfg.stem}_summary.json")
    rows = (tuple(str(r[c]).lower() if c == "two_level_ok" else r[c] for c in _SWEEP_COLUMNS)
            for r in result.rows)
    _write_csv(csv_path, cfg.config_hash, _SWEEP_COLUMNS, rows, _SWEEP_FORMATS)
    summary = {"parameter": result.parameter, "per_value": result.per_value, "fit": result.fit}
    _write_json(json_path, cfg.config_hash, summary)
    return [csv_path, json_path], summary


def run(
    cfg: ExperimentConfig,
    out_dir: str = ".",
    force: bool = False,
    workers: int = 1,
) -> Tuple[List[str], dict]:
    """Run one configured experiment; returns (written files, summary)."""
    os.makedirs(out_dir, exist_ok=True)
    if cfg.mode == "unitary":
        return _run_unitary(cfg, out_dir)
    if cfg.mode in ("redfield", "secular"):
        return _run_relaxation(cfg, out_dir, force)
    if cfg.mode == "correlation":
        return _run_correlation(cfg, out_dir)
    if cfg.mode == "validate":
        return _run_validate(cfg, out_dir)
    if cfg.mode == "spectrum":
        return _run_spectrum(cfg, out_dir)
    return _run_sweep(cfg, out_dir, force, workers)
