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
import operator
import os
import warnings
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .bath import BathSpec, correlation_finite_T, correlation_zero_T, validate_approximations, validity_row
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
    _transfer_rates,
    assemble_redfield,
    integrate_master,
    secular_populations,
    solution_population,
    steady_state,
)
from .spectral import (
    CouplingCoefficients,
    TwoLevelSystem,
    _pair_coefficients,
    _s_overlaps,
    _squares,
    eigendecompose,
    reduce_two_level,
    secular_spectrum,
)
from .unitary import _reduced_peaks, evolve_closed, regime_classify, success_probability_reduced
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
        if grid.points < 4:
            raise ConfigError(f"mode {mode!r} fits a decay time and needs grid.points >= 4, got {grid.points}")
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


def _numeric_lines(*columns) -> Iterator[str]:
    """One CSV line per row of the columns, each cell in "%.12g"."""
    line = ",".join(["%.12g"] * len(columns)) + "\n"
    return (line % row for row in zip(*columns))


def _write_csv(path: str, cfg_hash: str, header: Sequence[str], lines: Iterable[str]) -> None:
    """Comment block, header, then the table's lines."""
    with open(path, "w") as f:
        f.write(f"# config {cfg_hash}\n")
        f.write(f"# version {__version__}\n")
        f.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        f.write(",".join(header) + "\n")
        f.writelines(lines)


def _finite(doc):
    """doc with each NaN or infinite float, at any depth of dicts and lists, replaced by None."""
    if isinstance(doc, dict):
        return {key: _finite(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(value) for value in doc]
    if isinstance(doc, float) and not math.isfinite(doc):
        return None
    return doc


def _write_json(path: str, cfg_hash: str, payload: dict) -> None:
    """The summary as strict JSON (RFC 8259): a NaN or infinite float is written as null."""
    doc = {"config_hash": cfg_hash, "version": __version__}
    doc.update(payload)
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # a non-finite float; a finite document is encoded once, unwalked
        text = json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as f:
        f.write(text + "\n")


# what a mode returns: its CSV table (header, lines) or None, the suffix of
# its JSON file or None, and its summary, which that file holds
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


def _pairs(sys_cfg: SystemConfig, eps_ws=None) -> TwoLevelSystem:
    """Complete-graph two-level reductions at the marked-site energies eps_ws, as one stack.

    By default the stack of one at the configured site's eps_w, drawn
    alone. A disorder-free plain system is reduced without sigma.
    """
    if eps_ws is None:
        eps_ws = [uniform_site(sys_cfg.w, sys_cfg.sigma, sys_cfg.seed)]
    sigma = sys_cfg.sigma if (sys_cfg.sigma > 0 or sys_cfg.gamma_policy == "shifted") else None
    return reduce_two_level(sys_cfg.n, eps_ws, sigma, sys_cfg.gamma_policy)


def _times(grid: GridConfig, t_max) -> np.ndarray:
    """The time grid of a default window t_max; an array of P windows gives P rows.

    Each row is bitwise the grid of its window alone. The rows are
    contiguous (linspace lays a stack out by columns), so that whatever is
    computed from them is too.
    """
    stop = t_max if grid.t_max is None else np.broadcast_to(grid.t_max, np.shape(t_max))
    return np.ascontiguousarray(np.linspace(0.0, stop, grid.points, axis=-1))


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
        tl = _pairs(sys_cfg)
        delta, eps_w = tl.delta[0].item(), tl.eps_w[0].item()
        summary = {"regime": regime_classify(sys_cfg.n, sys_cfg.sigma)}
    times = _times(cfg.grid, 3.0 * math.pi / delta)
    if h is not None:
        result = evolve_closed(h, times, spectrum)
        p_w = result.p_w
        summary.update(result.summary(), method="exact")
    else:
        p_w = success_probability_reduced(tl, times)[0]
        t_peak, p_peak = (x[0].item() for x in _reduced_peaks(tl))
        summary.update(
            t_peak=t_peak, p_peak=p_peak, repetitions=1.0 / p_peak,
            t_expected=t_peak / p_peak, method="reduced",
        )
    summary.update(eps_w=eps_w, delta=delta)
    return (["t", "p_w"], _numeric_lines(times, p_w)), "summary", summary


def _relax(
    pairs: TwoLevelSystem, bath: BathSpec, grid: GridConfig, force: bool, secular: bool
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...], dict]:
    """Relax the projected uniform state of each reduced pair of a stack and fit t_rel.

    The validity report of every pair is built first: unless forced, the
    first pair whose margin fails its path's bound (secular: coarse
    graining; tensor: memoryless bath) raises ValidityError before
    anything is propagated. Then one _transfer_rates call gives every
    pair's rates from its Lambda_12 and delta, and both paths read them:
    p_suc and t_rel_formula are its p_suc and t_rel. The secular path
    propagates the stack's populations on those rates (default window
    6 t_rel, zero coherence): one population array from the arrays of its
    pairs' rates and rho11(0). The tensor path integrates the full
    two-level Redfield tensor of a stack of one pair, from that pair's row
    of coupling coefficients, eigenvalues and <w|k>; its damping rate is
    gamma = 1/(2 t_rel) and its default window 6/gamma = 12 t_rel.
    Returns (times, columns, fields): times and the columns p_w, rho11,
    rho22, re_rho12 and im_rho12 have one row per pair, and fields holds
    each per-pair result as an array along the stack (fit_note and regime
    as lists): p_suc, p_w_steady, t_rel_fit (NaN where fit_note gives the
    reason no decay time was fitted, "" elsewhere), t_rel_formula,
    projection_defect, validity (the arrays of validate_approximations)
    and, on the secular path, rates (a SecularRates of arrays), on the
    tensor path gamma_damping, regime and truncation_bound.
    """
    validity = validate_approximations(bath, pairs.delta, pairs.n)
    ok = validity["secular_ok" if secular else "markov_ok"]
    if not (force or ok.all()):
        first = int(np.argmin(ok))
        what, margin = (
            ("coarse-graining margin g*sqrt(delta_t/delta)", validity["secular_margin"][first]) if secular
            else ("bath memory margin g*delta_t", validity["markov_margin"][first])
        )
        raise ValidityError(f"{what} = {margin:.3g} >= 1")
    # the uniform state projected onto each retained pair
    s = _s_overlaps(pairs.n, pairs.overlaps)
    weight = s[:, 0] * s[:, 0] + s[:, 1] * s[:, 1]
    psi = s / np.sqrt(weight)[:, None]
    rows, counts, lambda12 = _pair_coefficients(pairs.n, pairs.overlaps)
    rates = _transfer_rates(lambda12[:, None], bath, pairs.delta[:, None])
    t_rel = rates.t_rel[:, 0]
    fields = {"projection_defect": 1.0 - weight, "validity": validity, "t_rel_formula": t_rel}
    if secular:
        wsq = _squares(pairs.overlaps[:, :2])
        a1sq, a2sq = wsq[:, :1], wsq[:, 1:]
        times = _times(grid, 6.0 * t_rel)
        rho11 = secular_populations(rates, times, (psi[:, 0] * psi[:, 0])[:, None])
        rho22 = 1.0 - rho11
        zeros = np.broadcast_to(0.0, times.shape)
        p_w = a1sq * rho11
        p_w += a2sq * rho22  # in place: one (P, N) temporary fewer at the stack's peak
        columns = (p_w, rho11, rho22, zeros, zeros)
        p_w_steady = (a1sq * rates.p_suc + a2sq * (1.0 - rates.p_suc))[:, 0]
        fields.update(rates=SecularRates(*(x[:, 0] for x in vars(rates).values())))
    else:
        # the tensor path relaxes one pair: every seed of a sigma = 0 value is the same point
        (delta,) = pairs.delta.tolist()
        gamma = 0.5 / t_rel
        tensor = assemble_redfield(CouplingCoefficients(rows[0], counts), pairs.eigenvalues[0], bath)
        times = _times(grid, 12.0 * t_rel)
        traj = integrate_master(tensor, np.outer(psi[0], psi[0]).astype(complex), times[0])
        wrow = pairs.overlaps[0, :2]
        rhos = traj.rhos
        columns = tuple(col[None] for col in (
            solution_population(traj, wrow).values, np.real(rhos[:, 0, 0]), np.real(rhos[:, 1, 1]),
            np.real(rhos[:, 0, 1]), np.imag(rhos[:, 0, 1]),
        ))
        p_w_steady = np.array([np.real(wrow @ steady_state(tensor) @ wrow)])
        fields.update(
            gamma_damping=gamma,
            regime=["underdamped" if gamma[0] < delta else "overdamped"],
            truncation_bound=np.array([pairs.truncation_bound]),
        )
    fits, notes = _decay_times(times, columns[0], p_w_steady)
    fields.update(p_suc=rates.p_suc[:, 0], p_w_steady=p_w_steady, t_rel_fit=fits, fit_note=notes)
    return times, columns, fields


def _run_relaxation(cfg: ExperimentConfig, force: bool) -> _Output:
    """A redfield or secular run of the configured pair, as a stack of one.

    Its summary's validity is the report _relax built before it
    propagated, with the pair's notes.
    """
    pairs = _pairs(cfg.system)
    times, columns, fields = _relax(pairs, cfg.bath, cfg.grid, force, secular=cfg.mode == "secular")
    rates = fields.pop("rates", None)
    validity = fields.pop("validity")
    summary = {key: value[0] if isinstance(value, list) else value[0].item() for key, value in fields.items()}
    if rates is not None:
        summary["rates"] = {key: value[0].item() for key, value in vars(rates).items()}
    summary.update(
        delta=pairs.delta[0].item(),
        eps_w=pairs.eps_w[0].item(),
        t_rel_fit=None if summary["fit_note"] else summary["t_rel_fit"],
        validity=validity_row(validity, 0),
    )
    header = ["t", "p_w", "rho11", "rho22", "re_rho12", "im_rho12"]
    return (header, _numeric_lines(times[0], *(col[0] for col in columns))), "summary", summary


def _run_correlation(cfg: ExperimentConfig, force: bool) -> _Output:
    times = np.linspace(0.0, cfg.grid.t_max, cfg.grid.points)
    f_vals = (correlation_zero_T if cfg.bath.is_zero_temperature else correlation_finite_T)(times, cfg.bath)
    table = (["t", "re_f", "im_f", "abs_f"], _numeric_lines(times, np.real(f_vals), np.imag(f_vals), np.abs(f_vals)))
    summary: dict = {"temperature_mode": cfg.bath.temperature_mode}
    if cfg.system is None:
        return table, None, summary
    tl = _pairs(cfg.system)
    summary["validity"] = validity_row(validate_approximations(cfg.bath, tl.delta, tl.n), 0)
    return table, "validity", summary


def _run_validate(cfg: ExperimentConfig, force: bool) -> _Output:
    tl = _pairs(cfg.system)
    validity = validity_row(validate_approximations(cfg.bath, tl.delta, tl.n), 0)
    return None, "validity", {"delta": tl.delta[0].item(), "eps_w": tl.eps_w[0].item(), "validity": validity}


def _run_spectrum(cfg: ExperimentConfig, force: bool) -> _Output:
    sys_cfg = cfg.system
    h = _hamiltonian(sys_cfg)
    eps_w = h.disorder.eps_at(sys_cfg.w)
    if sys_cfg.kind == "complete":
        spectrum = secular_spectrum(h)
        ground_w = spectrum.w_overlaps[0]
        tl = _pairs(sys_cfg, [eps_w])
        summary = {"reduced": {
            "n": tl.n, "eps_w": eps_w, "sigma": tl.sigma, "policy": tl.policy, "delta": tl.delta[0].item(),
            "eigenvalues": tl.eigenvalues[0].tolist(), "overlaps": tl.overlaps[0].tolist(),
        }}
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


# the fields of a sweep row besides its value and seed, in the order _sweep_points gives them
_POINT_KEYS = (
    "eps_w", "delta", "t_rel_fit", "t_rel_formula", "p_suc", "p_peak",
    "markov_status", "secular_status", "two_level_ok", "note",
)


def _sweep_points(
    system: SystemConfig, pairs: TwoLevelSystem, bath: BathSpec, grid: GridConfig, force: bool
) -> List[dict]:
    """The rows of the points of a stack of system's pairs, less their value and seed.

    Disordered points relax on secular population rates, a disorder-free
    point on the full two-level tensor.
    """
    _, _, fields = _relax(pairs, bath, grid, force, secular=system.sigma > 0)
    _, p_peak = _reduced_peaks(pairs)
    validity = fields["validity"]
    columns = (
        pairs.eps_w, pairs.delta, fields["t_rel_fit"], fields["t_rel_formula"], fields["p_suc"], p_peak,
        validity["markov_status"], validity["secular_status"], validity["two_level_ok"],
    )
    return [dict(zip(_POINT_KEYS, row)) for row in zip(*(c.tolist() for c in columns), fields["fit_note"])]


def _quartiles(values: np.ndarray) -> Tuple[float, float, float]:
    """np.percentile(values, [25, 50, 75]) of nonempty values, bit for bit, without its dispatch.

    The values are partitioned at the indices np.percentile partitions at,
    so that equal values of different bits (0.0 and -0.0) land where they
    land there. Then numpy's linear rule: at index i = (n - 1) q, between
    a = v[floor(i)] and b = v[floor(i) + 1] at t = i - floor(i), it takes
    a + (b - a) t, or b - (b - a) (1 - t) when t >= 1/2. A single value v
    gives v - 0.0 = v.
    """
    if values.size == 1:
        return (float(values[0]),) * 3
    index = [(values.size - 1) * q for q in (0.25, 0.5, 0.75)]
    below = [int(i) for i in index]
    ranked = np.partition(values, sorted({0, -1, *below, *(b + 1 for b in below)})).tolist()
    out = []
    for i, k in zip(index, below):
        t = i - k
        a, b = ranked[k], ranked[k + 1]
        out.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
    return out[0], out[1], out[2]


def _seed_points(w: int, sigma: float, seeds: int) -> Tuple[np.ndarray, List[int]]:
    """The distinct eps_w that seeds 0..seeds-1 draw at site w, and each seed's index into them.

    Seed k draws from PCG64(k), so a sweep leaves system.seed unused. The
    distinct values come in the order of the first seed that draws each,
    told apart by their bits, so that -0.0 and 0.0 stay apart.
    """
    index: Dict[str, int] = {}
    point = [index.setdefault(uniform_site(w, sigma, seed).hex(), len(index)) for seed in range(seeds)]
    return np.array([float.fromhex(key) for key in index]), point


def sweep(cfg: ExperimentConfig, force: bool = False) -> SweepResult:
    """Run all (value, seed) points in order, in the calling thread.

    A point depends on its seed only through eps_w, which depends on
    nothing but the seed, w and sigma; so each seed's eps_w is drawn once
    per distinct sigma for the whole sweep, not once per value. Seed k
    draws from PCG64(k), for k = 0..seeds-1: system.seed is left unused.
    Within one value, the seeds that draw the same eps_w (every seed of a sigma = 0
    value) share one run, and each gets its own copy of the row. A value's
    distinct points run as stacks of at most _STACK_BLOCK // grid.points
    points, each one TwoLevelSystem from one reduce_two_level call, made
    once for consecutive values of one system (a sweep of beta, g or
    omega_c). Rows come out in (value, seed) order; the table
    that run writes formats each distinct point's cells once and adds each
    row's seed (_sweep_lines).
    """
    sw = cfg.sweep
    stack = max(1, _STACK_BLOCK // cfg.grid.points)
    draws: Dict[float, Tuple[np.ndarray, List[int]]] = {}
    reduced: Tuple[Optional[SystemConfig], List[TwoLevelSystem]] = (None, [])
    rows: List[dict] = []
    per_value = []
    for value in sw.values:
        system, bath = _apply_sweep_value(cfg.system, cfg.bath, sw.parameter, value)
        if system.sigma not in draws:
            draws[system.sigma] = _seed_points(system.w, system.sigma, sw.seeds)
        eps_ws, point = draws[system.sigma]
        if reduced[0] != system:
            reduced = (system, [_pairs(system, eps_ws[i : i + stack]) for i in range(0, eps_ws.size, stack)])
        points = [row for pairs in reduced[1] for row in _sweep_points(system, pairs, bath, cfg.grid, force)]
        rows.extend(dict(points[k], value=value, seed=seed) for seed, k in enumerate(point))
        fits = np.array([points[k]["t_rel_fit"] for k in point])
        finite = fits[np.isfinite(fits)]
        q25, q50, q75 = _quartiles(finite) if finite.size else (math.nan,) * 3
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


_SWEEP_COLUMNS = ("value", "seed") + _POINT_KEYS
_ROW_POINT = operator.itemgetter(*_POINT_KEYS)
# the cells after a row's seed; two_level_ok is written as true/false
_POINT_CELLS = "," + ",".join(("%.12g",) * 6 + ("%s",) * 4) + "\n"


def _sweep_lines(rows: Iterable[dict]) -> Iterator[str]:
    """The CSV line of each sweep row: value, seed, then the point's cells.

    The cells of each distinct point of a value are formatted once, and
    each row adds only its seed: a sigma = 0 value's rows all come from one
    formatted point. Rows come in value order, so only one value's points
    are held.
    """
    value = head = None
    formatted: Dict[tuple, str] = {}
    for row in rows:
        if row["value"] != value:
            value = row["value"]
            head = "%.12g," % value
            formatted.clear()
        point = _ROW_POINT(row)
        cells = formatted.get(point)
        if cells is None:
            cells = formatted[point] = _POINT_CELLS % (*point[:-2], str(point[-2]).lower(), point[-1])
        yield head + "%d" % row["seed"] + cells


def _run_sweep(cfg: ExperimentConfig, force: bool) -> _Output:
    result = sweep(cfg, force=force)
    summary = {"parameter": result.parameter, "per_value": result.per_value, "fit": result.fit}
    return (_SWEEP_COLUMNS, _sweep_lines(result.rows)), "summary", summary


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
