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
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bath import BathSpec, correlation_finite_T, correlation_zero_T, validate_approximations
from .errors import ConfigError, InvalidParameterError, ValidityError
from .model import (
    DENSE_LIMIT,
    SearchHamiltonian,
    build_complete_graph,
    build_custom_graph,
    build_search_hamiltonian,
    gamma_policy,
    require_memory,
    sample_disorder,
    uniform_site,
)
from .redfield import (
    SecularRates,
    _decay_times,
    assemble_redfield,
    damping_rate,
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
# points x grid points per relaxation stack in a sweep: bounds its arrays
_STACK_BLOCK = 1 << 16
# bytes a sweep holds per (value, seed) row until it writes its table:
# tracemalloc gave 600-850 per row over 4000-16000 rows
_SWEEP_ROW_BYTES = 1024
# bytes each mode holds per grid point at its peak: tracemalloc gave 24 (unitary,
# reduced) and 32 (exact), 208 (redfield), 53 (secular), 32 (correlation at
# finite temperature) and 40 (zero), and a sweep 53 on rates and 208 on the
# tensor, each from 10^5 to 2 10^5 points
_GRID_POINT_BYTES = {"unitary": 40, "redfield": 256, "secular": 64, "correlation": 48, "sweep": 256}


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
    if not 0 <= sys_cfg.sigma < 1:
        raise ConfigError(f"system.sigma must be nonnegative and below 1, got {sys_cfg.sigma}")
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
    # a grid of up to _STACK_BLOCK points takes at most 16 MiB, which is left
    # out like the interpreter's own memory
    if grid.points > _STACK_BLOCK:
        require_memory(
            grid.points * float(_GRID_POINT_BYTES.get(mode, 0)),
            f"grid.points = {grid.points} in mode {mode!r}",
        )
    points = [(system, bath)]
    if mode == "sweep":
        # every swept point is built and checked here, before any of them runs
        if sweep_cfg.parameter == "n":
            for value in sweep_cfg.values:
                if not value.is_integer():
                    raise ConfigError(f"swept n must be an integer, got {value}")
        try:
            points = [_apply_sweep_value(system, bath, sweep_cfg.parameter, v)
                      for v in sweep_cfg.values]
        except InvalidParameterError as exc:  # a swept bath value that BathSpec refuses
            raise ConfigError(f"sweep.values: {exc}") from exc
        for point, _ in points:
            if point.n < 2 or point.n <= point.w:
                raise ConfigError(f"swept n must be >= 2 and exceed system.w = {point.w}, got {point.n}")
            if not 0 <= point.sigma < 1:
                raise ConfigError(f"swept sigma must be nonnegative and below 1, got {point.sigma}")
        # the rows are all held until the table is written
        rows = len(sweep_cfg.values) * sweep_cfg.seeds
        require_memory(
            rows * float(_SWEEP_ROW_BYTES),
            f"sweep.seeds = {sweep_cfg.seeds} over {len(sweep_cfg.values)} values, a table of {rows} rows,",
        )
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


# what a mode returns: its CSV table (header, rows[, formats]) or None, the
# suffix of its JSON file or None, and its summary, which that file holds
_Output = Tuple[Optional[tuple], Optional[str], dict]


def _hamiltonian(sys_cfg: SystemConfig) -> SearchHamiltonian:
    """The configured Hamiltonian, with the full n-site disorder field."""
    if sys_cfg.kind == "custom":
        graph = build_custom_graph(np.asarray(sys_cfg.adjacency, dtype=float))
    else:
        graph = build_complete_graph(sys_cfg.n)
    gamma = gamma_policy(sys_cfg.n, sys_cfg.sigma, sys_cfg.gamma_policy)
    disorder = sample_disorder(sys_cfg.n, sys_cfg.sigma, sys_cfg.distribution, sys_cfg.seed)
    return build_search_hamiltonian(graph, sys_cfg.w, gamma, disorder)


def _two_level(sys_cfg: SystemConfig, eps_w: float) -> TwoLevelSystem:
    """Complete-graph two-level reduction at the marked-site energy eps_w."""
    sigma_arg = sys_cfg.sigma if (sys_cfg.sigma > 0 or sys_cfg.gamma_policy == "shifted") else None
    return reduce_two_level(sys_cfg.n, eps_w, sigma=sigma_arg, policy=sys_cfg.gamma_policy)


def _reduced_system(sys_cfg: SystemConfig) -> Tuple[TwoLevelSystem, float]:
    """Two-level reduction of the configured system at its eps_w, drawn alone; returns (tl, eps_w)."""
    eps_w = uniform_site(sys_cfg.w, sys_cfg.sigma, sys_cfg.seed)
    return _two_level(sys_cfg, eps_w), eps_w


def _projected_initial_state(tl: TwoLevelSystem) -> Tuple[np.ndarray, float]:
    """Uniform state projected onto the retained pair; returns (rho0, defect)."""
    s1, s2 = tl.s_overlap(1), tl.s_overlap(2)
    weight = s1 * s1 + s2 * s2
    psi = np.array([s1, s2]) / math.sqrt(weight)
    rho0 = np.outer(psi, psi).astype(complex)
    return rho0, 1.0 - weight


def _times(grid: GridConfig, t_max) -> np.ndarray:
    """The time grid of a default window t_max; an array of P windows gives P rows.

    Each row is bitwise the grid of its window alone. The rows are
    contiguous (linspace lays a stack out by columns), so that whatever is
    computed from them is too.
    """
    stop = t_max if grid.t_max is None else np.broadcast_to(grid.t_max, np.shape(t_max))
    return np.ascontiguousarray(np.linspace(0.0, stop, grid.points, axis=-1))


def _gibbs_p_suc(beta: float, delta: float) -> float:
    if math.isinf(beta):
        return 1.0
    return 1.0 / (1.0 + math.exp(-beta * delta))


def _run_unitary(cfg: ExperimentConfig, force: bool) -> _Output:
    sys_cfg = cfg.system
    h = _hamiltonian(sys_cfg) if sys_cfg.n <= DENSE_LIMIT else None
    if sys_cfg.kind == "custom":
        # delta and the default window come from the graph's own spectrum, which
        # the propagation reuses; the sigma vs 1/sqrt(n) regime belongs to the
        # complete graph and is left out
        spectrum = eigendecompose(h)
        delta, eps_w = spectrum.gap, h.disorder.eps_at(sys_cfg.w)
        if delta <= 0 and cfg.grid.t_max is None:
            raise InvalidParameterError("the ground state is degenerate (gap 0); set grid.t_max")
        summary = {}
    else:
        spectrum = None
        tl, eps_w = _reduced_system(sys_cfg)
        delta = tl.delta
        summary = {"regime": regime_classify(sys_cfg.n, sys_cfg.sigma)}
    times = _times(cfg.grid, 3.0 * math.pi / delta)
    if h is not None:
        result = evolve_closed(h, times, spectrum)
        p_w = result.p_w
        summary.update(result.summary(), method="exact")
    else:
        p_w = success_probability_reduced(tl, times)
        t_peak, p_peak = reduced_peak(tl)
        summary.update(
            t_peak=t_peak, p_peak=p_peak, repetitions=1.0 / p_peak,
            t_expected=t_peak / p_peak, method="reduced",
        )
    summary.update(eps_w=eps_w, delta=delta)
    return (["t", "p_w"], zip(times, p_w)), "summary", summary


def _relax(
    tls: Sequence[TwoLevelSystem],
    eps_ws: Sequence[float],
    bath: BathSpec,
    grid: GridConfig,
    force: bool,
    secular: bool,
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...], List[dict]]:
    """Relax the projected uniform state of each reduced pair in tls and fit t_rel.

    The pairs are one stack along a leading points axis. The secular path
    propagates their populations on transfer rates (default window
    6 t_rel, zero coherence): one rate call and one population array for
    the whole stack. The tensor path integrates the full two-level Redfield
    tensor of its one pair (default window 6/gamma). Unless forced, the
    first pair whose validity report fails its path's margin (secular:
    coarse graining; tensor: memoryless bath) raises ValidityError before
    anything is propagated. eps_ws are reported in the summaries only.
    Returns (times, columns, summaries): times and the columns p_w, rho11,
    rho22, re_rho12 and im_rho12 have one row per pair, and each summary
    holds its pair's scalar results and report, with t_rel_fit None and the
    reason in fit_note when no decay time can be fitted.
    """
    coeffs = [coupling_coefficients(tl, retained=2) for tl in tls]
    starts = [_projected_initial_state(tl) for tl in tls]
    # squared by Python's float pow, pair by pair: numpy squares by x*x,
    # which differs from pow in the last bit for about 1 value in 1200
    a1sq = np.array([[tl.a1**2] for tl in tls])
    a2sq = np.array([[tl.a2**2] for tl in tls])
    # the refusal reads the reports that the summaries hold, so the two agree
    reports = [validate_approximations(bath, tl.delta, tl.n) for tl in tls]
    broken = next((r for r in reports if not (r.secular_ok if secular else r.markov_ok)), None)
    if broken is not None and not force:
        what, margin = (
            ("coarse-graining margin g*sqrt(delta_t/delta)", broken.secular_margin) if secular
            else ("bath memory margin g*delta_t", broken.markov_margin)
        )
        raise ValidityError(f"{what} = {margin:.3g} >= 1; pass force=True to override")
    if secular:
        rates = secular_rates(coeffs, bath, np.array([[tl.delta] for tl in tls]))
        times = _times(grid, 6.0 * rates.t_rel[:, 0])
        rho11 = secular_populations(rates, times, np.array([[np.real(rho0[0, 0])] for rho0, _ in starts]))
        rho22 = 1.0 - rho11
        zeros = np.broadcast_to(0.0, times.shape)
        p_w = a1sq * rho11
        p_w += a2sq * rho22  # in place: one (P, N) temporary fewer at the stack's peak
        columns = (p_w, rho11, rho22, zeros, zeros)
        p_suc = rates.p_suc[:, 0]
        p_w_steady = (a1sq * rates.p_suc + a2sq * (1.0 - rates.p_suc))[:, 0]
        per_pair = zip(*(x[:, 0].tolist() for x in vars(rates).values()))
        records = [SecularRates(*row).to_dict() for row in per_pair]
        extras = [{"rates": record, "t_rel_formula": record["t_rel"]} for record in records]
    else:
        # the tensor path relaxes one pair: every seed of a sigma = 0 value is the same point
        (tl,), (c,), ((rho0, _),) = tls, coeffs, starts
        tensor = assemble_redfield(c, tl, bath)
        gamma = damping_rate(c, bath, tl.delta)
        if gamma == 0.0:  # g > 0 whose square underflows
            raise InvalidParameterError(f"the damping rate at g = {bath.g} is zero; nothing relaxes")
        times = _times(grid, 6.0 / gamma)[None]
        traj = integrate_master(tensor, rho0, times[0])
        series = solution_population(traj, tl)
        rhos = traj.rhos
        columns = tuple(col[None] for col in (
            series.values, np.real(rhos[:, 0, 0]), np.real(rhos[:, 1, 1]),
            np.real(rhos[:, 0, 1]), np.imag(rhos[:, 0, 1]),
        ))
        p_suc = np.array([_gibbs_p_suc(bath.beta, tl.delta)])
        wrow = np.array([tl.a1, tl.a2])
        p_w_steady = np.array([np.real(wrow @ steady_state(tensor) @ wrow)])
        extras = [{
            "gamma_damping": gamma,
            "regime": "underdamped" if gamma < tl.delta else "overdamped",
            "t_rel_formula": 1.0 / (2.0 * gamma),
            "truncation_bound": series.truncation_bound,
        }]
    fits, notes = _decay_times(times, columns[0], p_w_steady)
    summaries = []
    for tl, eps_w, (_, defect), extra, p, steady, t_rel_fit, note, report in zip(
        tls, eps_ws, starts, extras, p_suc.tolist(), p_w_steady.tolist(), fits.tolist(), notes, reports
    ):
        summaries.append(dict(
            extra,
            delta=tl.delta,
            eps_w=eps_w,
            p_suc=p,
            p_w_steady=steady,
            t_rel_fit=None if note else t_rel_fit,
            fit_note=note,
            projection_defect=defect,
            validity=report.to_dict(),
        ))
    return times, columns, summaries


def _run_relaxation(cfg: ExperimentConfig, force: bool) -> _Output:
    tl, eps_w = _reduced_system(cfg.system)
    times, columns, (summary,) = _relax(
        [tl], [eps_w], cfg.bath, cfg.grid, force, secular=cfg.mode == "secular"
    )
    header = ["t", "p_w", "rho11", "rho22", "re_rho12", "im_rho12"]
    return (header, zip(times[0], *(col[0] for col in columns))), "summary", summary


def _run_correlation(cfg: ExperimentConfig, force: bool) -> _Output:
    times = np.linspace(0.0, cfg.grid.t_max, cfg.grid.points)
    f_vals = (correlation_zero_T if cfg.bath.is_zero_temperature else correlation_finite_T)(times, cfg.bath)
    table = (["t", "re_f", "im_f", "abs_f"], zip(times, np.real(f_vals), np.imag(f_vals), np.abs(f_vals)))
    summary: dict = {"temperature_mode": cfg.bath.temperature_mode}
    if cfg.system is None:
        return table, None, summary
    tl, _ = _reduced_system(cfg.system)
    summary["validity"] = validate_approximations(cfg.bath, tl.delta, cfg.system.n).to_dict()
    return table, "validity", summary


def _run_validate(cfg: ExperimentConfig, force: bool) -> _Output:
    tl, eps_w = _reduced_system(cfg.system)
    report = validate_approximations(cfg.bath, tl.delta, cfg.system.n)
    return None, "validity", {"delta": tl.delta, "eps_w": eps_w, "validity": report.to_dict()}


def _run_spectrum(cfg: ExperimentConfig, force: bool) -> _Output:
    sys_cfg = cfg.system
    h = _hamiltonian(sys_cfg)
    eps_w = h.disorder.eps_at(sys_cfg.w)
    if sys_cfg.kind == "complete":
        spectrum = secular_spectrum(h)
        ground_w = spectrum.w_overlaps[0]
        summary = {"reduced": _two_level(sys_cfg, eps_w).to_dict()}
    else:
        # the two-level reduction belongs to the complete graph and is left out
        spectrum = eigendecompose(h)
        ground_w = spectrum.eigenvectors[sys_cfg.w, 0]
        summary = {}
    summary.update(
        gap=spectrum.gap,
        gap2=spectrum.gap2,
        eigenvalues=[float(x) for x in spectrum.eigenvalues],
        ground_w_overlap_sq=float(ground_w**2),
        eps_w=eps_w,
    )
    return None, "spectrum", summary


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
        return replace(system, n=int(value)), bath
    if parameter == "sigma":
        return replace(system, sigma=float(value)), bath
    return system, replace(bath, **{parameter: float(value)})


def _sweep_points(
    system: SystemConfig, eps_ws: Sequence[float], bath: BathSpec, grid: GridConfig, force: bool
) -> List[dict]:
    """The rows of the points at marked-site energies eps_ws, less their value and seed.

    Disordered points relax as one stack on secular population rates; a
    disorder-free point relaxes on the full two-level tensor.
    """
    tls = [_two_level(system, eps_w) for eps_w in eps_ws]
    _, _, summaries = _relax(tls, eps_ws, bath, grid, force, secular=system.sigma > 0)
    return [
        {
            "eps_w": eps_w,
            "delta": tl.delta,
            "t_rel_fit": math.nan if summary["t_rel_fit"] is None else summary["t_rel_fit"],
            "t_rel_formula": summary["t_rel_formula"],
            "p_suc": summary["p_suc"],
            "p_peak": reduced_peak(tl)[1],
            "markov_status": summary["validity"]["markov_status"],
            "secular_status": summary["validity"]["secular_status"],
            "two_level_ok": summary["validity"]["two_level_ok"],
            "note": summary["fit_note"],
        }
        for tl, eps_w, summary in zip(tls, eps_ws, summaries)
    ]


def sweep(cfg: ExperimentConfig, force: bool = False) -> SweepResult:
    """Run all (value, seed) points in order, in the calling thread.

    Within one value a point depends on its seed only through eps_w, so the
    seeds that draw the same eps_w (every seed of a sigma = 0 value) share
    one run, and each gets its own copy of the row. A value's distinct
    points run as stacks of at most _STACK_BLOCK // grid.points points.
    Rows come out in (value, seed) order.
    """
    sw = cfg.sweep
    stack = max(1, _STACK_BLOCK // cfg.grid.points)
    rows: List[dict] = []
    per_value = []
    for value in sw.values:
        system, bath = _apply_sweep_value(cfg.system, cfg.bath, sw.parameter, value)
        # eps_w by its exact bits, so that -0.0 and 0.0 stay apart; fromhex restores it
        keys = [uniform_site(system.w, system.sigma, seed).hex() for seed in range(sw.seeds)]
        unique = list(dict.fromkeys(keys))
        solved: Dict[str, dict] = {}
        for i in range(0, len(unique), stack):
            part = unique[i : i + stack]
            eps_ws = [float.fromhex(key) for key in part]
            solved.update(zip(part, _sweep_points(system, eps_ws, bath, cfg.grid, force)))
        rows.extend(dict(solved[key], value=value, seed=seed) for seed, key in enumerate(keys))
        fits = np.array([r["t_rel_fit"] for r in rows[-sw.seeds:]])
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


def _run_sweep(cfg: ExperimentConfig, force: bool) -> _Output:
    result = sweep(cfg, force=force)
    rows = (tuple(str(r[c]).lower() if c == "two_level_ok" else r[c] for c in _SWEEP_COLUMNS)
            for r in result.rows)
    summary = {"parameter": result.parameter, "per_value": result.per_value, "fit": result.fit}
    return (_SWEEP_COLUMNS, rows, _SWEEP_FORMATS), "summary", summary


_RUNNERS = {
    "unitary": _run_unitary,
    "redfield": _run_relaxation,
    "secular": _run_relaxation,
    "correlation": _run_correlation,
    "validate": _run_validate,
    "spectrum": _run_spectrum,
    "sweep": _run_sweep,
}


def run(
    cfg: ExperimentConfig,
    out_dir: str = ".",
    force: bool = False,
    workers: int = 1,
) -> Tuple[List[str], dict]:
    """Run one configured experiment; returns (written files, summary).

    Every mode runs in the calling thread; workers is accepted and ignored.
    Writes <stem>.csv when the mode has a table, then <stem>_<suffix>.json
    holding the summary when it has a JSON suffix.
    """
    os.makedirs(out_dir, exist_ok=True)
    table, suffix, summary = _RUNNERS[cfg.mode](cfg, force)
    files = []
    if table is not None:
        files.append(os.path.join(out_dir, f"{cfg.stem}.csv"))
        _write_csv(files[-1], cfg.config_hash, *table)
    if suffix is not None:
        files.append(os.path.join(out_dir, f"{cfg.stem}_{suffix}.json"))
        _write_json(files[-1], cfg.config_hash, summary)
    return files, summary
