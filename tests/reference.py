"""Reference forms that the tests compare the package against.

The disorder-free two-level Pauli-basis Bloch matrix and closed-form
damped coherence, the coefficient sums and materialized forms that only
these checks read, the column loop that the vectorised eigenvector
phase convention and the first-peak search replaced, the per-series
np.polyfit form of the relaxation-time fit that the row-wise closed-form
fit replaced, the per-pair eigensolver, coupling sums and peak formulas
that the stacked two-level reduction replaced, the per-point loop of
sweep rows that the stacked sweep replaced, and the per-time exponential
sum that the closed amplitude's complex product replaced. No mode of the
package calls them.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from qsearch import experiments
from qsearch.bath import BathSpec, rate_S, validate_approximations
from qsearch.errors import InvalidParameterError
from qsearch.model import uniform_site
from qsearch.redfield import (
    Trajectory,
    _decay_times,
    assemble_redfield,
    damping_rate,
    integrate_master,
    secular_populations,
    secular_rates,
    solution_population,
    steady_state,
)
from qsearch.spectral import CouplingCoefficients, TwoLevelSystem


def materialized(coeffs: CouplingCoefficients) -> np.ndarray:
    """Materialized n x m coefficient matrix (marked-node row first)."""
    return np.repeat(coeffs.rows, coeffs.counts.astype(int), axis=0)


def quartic_o2_o3(coeffs: CouplingCoefficients) -> Tuple[float, float]:
    """Site sums o2 = sum c1 c2 (c1^2 - c2^2) and o3 = sum (c1^2 - c2^2)^2."""
    rows, counts = coeffs.rows, coeffs.counts
    sq = rows**2
    prod = rows[:, 0] * rows[:, 1]
    diff = sq[:, 0] - sq[:, 1]
    return float(np.dot(counts, prod * diff)), float(np.dot(counts, diff**2))


def traces(traj: Trajectory) -> np.ndarray:
    """tr rho(t) at every time of the trajectory."""
    return np.real(np.trace(traj.rhos, axis1=1, axis2=2))


def fix_phases_by_column(vectors: np.ndarray) -> np.ndarray:
    """Column-by-column form of the eigenvector phase convention.

    Rotates each column so its largest-magnitude entry is real positive;
    ties break toward the lowest index (np.argmax).
    """
    v = vectors.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if pivot != 0:
            v[:, k] = col * (abs(pivot) / pivot)
    if np.isrealobj(vectors):
        return v
    return v.real if np.allclose(v.imag, 0.0, atol=1e-14) else v


def first_peak_index_by_loop(values: np.ndarray) -> int:
    """Scan form of the first local maximum at least half the global one.

    Ties count as maxima (>=); with no interior candidate, np.argmax.
    """
    best = float(values.max())
    for i in range(1, len(values) - 1):
        if values[i] >= values[i - 1] and values[i] >= values[i + 1] and values[i] >= 0.5 * best:
            return i
    return int(np.argmax(values))


def amplitudes_by_time(levels: np.ndarray, weights: np.ndarray, times) -> np.ndarray:
    """A(t) = sum_k weights_k exp(-i levels_k t), one exact exponential sum per time."""
    return np.array([np.exp(-1j * np.outer([t], levels)) @ weights for t in times])[:, 0]


def decay_time_by_polyfit(times, values, target: float) -> Tuple[float, str]:
    """Per-series np.polyfit form of one row of redfield._decay_times: (t_rel, note).

    t_rel is NaN and the note gives the reason where the series has no
    estimate; the note is "" elsewhere.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or t.size < 4:
        raise InvalidParameterError("need matching 1-d series with at least 4 points")
    if target == 0.0:
        raise InvalidParameterError("target must be nonzero to scale the residual check")
    i0 = int(0.4 * t.size)
    tw = t[i0:]
    rw = np.abs(v[i0:] - target)
    if rw[-1] > 0.05 * abs(target):
        return math.nan, f"series is {rw[-1]:.3g} from target at window end (> 5% of {abs(target):.3g})"
    dv = np.diff(v[i0:])
    dv = dv[dv != 0.0]
    sign_changes = int(np.sum(np.sign(dv[1:]) != np.sign(dv[:-1]))) if dv.size > 1 else 0
    if sign_changes >= 3:
        peaks = [
            i
            for i in range(1, rw.size - 1)
            if rw[i] >= rw[i - 1] and rw[i] >= rw[i + 1]
        ]
        if len(peaks) >= 3:
            tw, rw = tw[peaks], rw[peaks]
    keep = rw > 0.0
    tw, rw = tw[keep], rw[keep]
    if tw.size < 2:
        return math.nan, "too few nonzero residuals to fit a decay rate"
    slope = np.polyfit(tw, np.log(rw), 1)[0]
    if slope >= 0:
        return math.nan, f"residual is not decaying (fit slope {slope:.3g})"
    return -1.0 / float(slope), ""


def pauli_two_level_matrix(
    coeffs: CouplingCoefficients, bath: BathSpec, delta: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Affine Bloch dynamics d(n)/dt = M n + b of the reduced open system.

    Basis order (rho_x, rho_y, rho_z). With vanishing o2 and o3 the z
    component decouples and the x-y block closes on itself.
    """
    if coeffs.m != 2:
        raise InvalidParameterError(f"Bloch form needs 2 retained levels, got m={coeffs.m}")
    if delta <= 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    o2, o3 = quartic_o2_o3(coeffs)
    two_pi = 2.0 * math.pi
    s_plus = two_pi * rate_S(delta, bath)
    s_minus = two_pi * rate_S(-delta, bath)
    s_zero = two_pi * rate_S(0.0, bath)
    gamma = 0.5 * coeffs.o1 * (s_plus + s_minus)
    m = np.array([
        [-0.5 * s_zero * o3, delta, s_minus * o2],
        [-delta, -0.5 * s_zero * o3 - 2.0 * gamma, 0.0],
        [s_zero * o2, 0.0, -2.0 * gamma],
    ])
    b = np.array([0.0, 0.0, coeffs.o1 * (s_plus - s_minus)])
    return m, b


def analytic_rho_x(t, gamma_rate: float, delta: float):
    """Closed-form coherence of the disorder-free reduced open system.

    Solves d2(rho_x)/dt2 = -delta^2 rho_x - 2 gamma_rate d(rho_x)/dt with
    rho_x(0) = -1 and d(rho_x)/dt(0) = 0, covering the oscillatory
    (gamma < delta) and monotone (gamma > delta) regimes with a series
    bridge at the crossover. Accepts scalar or array t.
    """
    if gamma_rate < 0 or delta <= 0:
        raise InvalidParameterError("need gamma_rate >= 0 and delta > 0")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0):
        raise InvalidParameterError("time must be nonnegative")
    mu2 = gamma_rate**2 - delta**2
    x = mu2 * t_arr**2
    out = np.empty_like(t_arr)

    small = np.abs(x) < 1e-6
    if np.any(small):
        xs = x[small]
        ts = t_arr[small]
        c = 1.0 + xs / 2.0 + xs**2 / 24.0 + xs**3 / 720.0
        s = 1.0 + xs / 6.0 + xs**2 / 120.0 + xs**3 / 5040.0
        out[small] = -np.exp(-gamma_rate * ts) * (c + gamma_rate * ts * s)

    osc = (~small) & (x < 0)
    if np.any(osc):
        to = t_arr[osc]
        nu = math.sqrt(-mu2)
        out[osc] = -np.exp(-gamma_rate * to) * (
            np.cos(nu * to) + gamma_rate * np.sin(nu * to) / nu
        )

    damp = (~small) & (x > 0)
    if np.any(damp):
        td = t_arr[damp]
        mu = math.sqrt(mu2)
        # exponents combined before exponentiation to avoid overflow
        slow = np.exp((mu - gamma_rate) * td)
        fast = np.exp(-(mu + gamma_rate) * td)
        out[damp] = -(0.5 * (1.0 + gamma_rate / mu) * slow + 0.5 * (1.0 - gamma_rate / mu) * fast)

    return float(out[0]) if np.isscalar(t) else out


def analytic_population(t, gamma_rate: float, delta: float):
    """Solution population (1 + rho_x)/2 of the disorder-free reduced system."""
    return 0.5 * (1.0 + analytic_rho_x(t, gamma_rate, delta))


def eig2_by_pair(d1: float, d2: float, v: float):
    """Per-pair eigenpairs of [[d1, v], [v, d2]], eigenvalues ascending.

    Returns (lam1, lam2, e1, e2), each eigenvector signed so that its
    entry of larger magnitude is positive (ties: the first).
    """
    mean = 0.5 * (d1 + d2)
    half = 0.5 * (d1 - d2)
    r = math.hypot(half, v)
    lam1, lam2 = mean - r, mean + r
    # pick the better-conditioned null-space expression
    if abs(lam1 - d1) >= abs(lam1 - d2):
        e1 = np.array([v, lam1 - d1])
    else:
        e1 = np.array([lam1 - d2, v])
    norm = np.linalg.norm(e1)
    e1 = np.array([1.0, 0.0]) if norm == 0.0 else e1 / norm
    if e1[int(np.argmax(np.abs(e1)))] < 0:
        e1 = -e1
    e2 = np.array([-e1[1], e1[0]])
    if e2[int(np.argmax(np.abs(e2)))] < 0:
        e2 = -e2
    return lam1, lam2, e1, e2


def reduce_by_pair(n: int, eps_w: float, sigma, policy: str) -> TwoLevelSystem:
    """reduce_two_level of one pair by the scalar eigensolver (inputs assumed valid)."""
    c = 1.0 - sigma if policy == "shifted" else 1.0
    v = -c / math.sqrt(n)
    d1, d2 = -1.0 + eps_w, -c
    lam1, lam2, e1, e2 = eig2_by_pair(d1, d2, v)
    return TwoLevelSystem(
        n=int(n), eps_w=float(eps_w), sigma=None if sigma is None else float(sigma), policy=policy,
        delta=float(lam2 - lam1), eigenvalues=np.array([lam1, lam2]),
        overlaps=(float(e1[0]), float(e2[0]), float(e1[1]), float(e2[1])), h_red=np.array([[d1, v], [v, d2]]),
    )


def s_overlaps_by_pair(tl) -> Tuple[float, float]:
    """<lam_1|s> and <lam_2|s> of a reduced pair, in Python floats."""
    root, rest = math.sqrt(tl.n), math.sqrt(1.0 - 1.0 / tl.n)
    return tl.a1 / root + tl.b1 * rest, tl.a2 / root + tl.b2 * rest


def coupling_by_pair(tl) -> CouplingCoefficients:
    """Coupling coefficients of a reduced pair by the 2-D forms: Lambda a GEMM, o1 a dot product."""
    scale = 1.0 / math.sqrt(tl.n - 1)
    rows = np.array([[tl.a1, tl.a2], [tl.b1 * scale, tl.b2 * scale]])
    counts = np.array([1.0, float(tl.n - 1)])
    sq = rows**2
    return CouplingCoefficients(
        n=tl.n, m=2, rows=rows, counts=counts, lambda_kl=(counts[:, None] * sq).T @ sq,
        o1=float(np.dot(counts, (rows[:, 0] * rows[:, 1]) ** 2)),
    )


def reduced_peak_by_pair(tl) -> float:
    """p_peak of the reduced success probability by its scalar formulas."""
    if tl.policy == "plain":
        return 1.0 / (1.0 + tl.n * tl.eps_w**2 / 4.0)
    s1, s2 = s_overlaps_by_pair(tl)
    return (abs(tl.a1 * s1) + abs(tl.a2 * s2)) ** 2


def sweep_rows_by_point(cfg) -> list:
    """Per-(value, seed) loop of experiments.sweep's rows, each point on its own.

    Each point draws its eps_w, is reduced, coupled and projected, and
    gets its peak, by the scalar forms above, and is checked and relaxed
    alone by the one-pair calls: secular rates at sigma > 0, the two-level
    tensor at sigma = 0. The fit is the row-wise fit of a stack of one,
    so that rows compare bit for bit.
    """
    sw = cfg.sweep
    rows = []
    for value in sw.values:
        system, bath = experiments._apply_sweep_value(cfg.system, cfg.bath, sw.parameter, value)
        sigma = system.sigma if (system.sigma > 0 or system.gamma_policy == "shifted") else None
        for seed in range(sw.seeds):
            eps_w = uniform_site(system.w, system.sigma, seed)
            tl = reduce_by_pair(system.n, eps_w, sigma, system.gamma_policy)
            report = validate_approximations(bath, tl.delta, tl.n)
            coeffs = coupling_by_pair(tl)
            s1, s2 = s_overlaps_by_pair(tl)
            psi = np.array([s1, s2]) / math.sqrt(s1 * s1 + s2 * s2)
            if system.sigma > 0:
                rates = secular_rates(coeffs, bath, tl.delta)
                times = experiments._times(cfg.grid, 6.0 * rates.t_rel)
                rho11 = secular_populations(rates, times, psi[0] * psi[0])
                p_w = tl.a1**2 * rho11 + tl.a2**2 * (1.0 - rho11)
                steady = tl.a1**2 * rates.p_suc + tl.a2**2 * (1.0 - rates.p_suc)
                t_rel_formula, p_suc = float(rates.t_rel), float(rates.p_suc)
            else:
                tensor = assemble_redfield(coeffs, tl, bath)
                gamma = damping_rate(coeffs, bath, tl.delta)
                times = experiments._times(cfg.grid, 6.0 / gamma)
                p_w = solution_population(integrate_master(tensor, np.outer(psi, psi).astype(complex), times), tl).values
                wrow = np.array([tl.a1, tl.a2])
                steady = np.real(wrow @ steady_state(tensor) @ wrow)
                t_rel_formula = 1.0 / (2.0 * gamma)
                p_suc = 1.0 if math.isinf(bath.beta) else 1.0 / (1.0 + math.exp(-bath.beta * tl.delta))
            (t_rel_fit,), (note,) = _decay_times(times[None], p_w[None], [steady])
            rows.append({
                "eps_w": eps_w, "delta": tl.delta, "t_rel_fit": float(t_rel_fit),
                "t_rel_formula": t_rel_formula, "p_suc": p_suc, "p_peak": reduced_peak_by_pair(tl),
                "markov_status": report.markov_status, "secular_status": report.secular_status,
                "two_level_ok": report.two_level_ok, "note": note, "value": value, "seed": seed,
            })
    return rows
