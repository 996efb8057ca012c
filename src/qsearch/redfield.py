"""Weak-coupling open dynamics in the system eigenbasis.

Assembles the full relaxation tensor from coupling coefficients and bath
rates, integrates the master equation (spectral propagation of the
constant generator, with an adaptive RK45 fallback), and provides the
two-level Pauli-basis matrix, the closed-form coherence solution, the
secular population rates with their closed-form solution, steady states,
and a relaxation-time estimator.

All rates carry the 2*pi prefactor on top of the bare rate_S; the
combination is pinned by the thermal fixed point and the closed-form
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .bath import BathSpec, correlation_time, rate_S
from .errors import (
    ContractViolationError,
    InvalidParameterError,
    NoEstimateError,
    StiffnessError,
    ValidityError,
)
from .spectral import CouplingCoefficients, Spectrum, TwoLevelSystem

# full-dimension tensors are O(m^4) memory; refuse beyond this
FULL_DIM_LIMIT = 128

_EIG_COND_LIMIT = 1e10
_RK45_RTOL = 1e-8
_RK45_ATOL = 1e-10


@dataclass(frozen=True)
class RedfieldTensor:
    """Relaxation tensor R_abcd with its Bohr-frequency matrix."""

    m: int
    r: np.ndarray
    omegas: np.ndarray
    eigenvalues: np.ndarray

    def generator(self) -> np.ndarray:
        """Flattened generator L of d(rho)/dt = L rho, rho in row-major order."""
        m2 = self.m * self.m
        return self.r.reshape(m2, m2) - 1j * np.diag(self.omegas.reshape(m2))


@dataclass(frozen=True)
class Trajectory:
    """Density matrices rho(t) on a time grid, in the eigenbasis."""

    times: np.ndarray
    rhos: np.ndarray

    @property
    def m(self) -> int:
        return self.rhos.shape[1]

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.diagonal(self.rhos, axis1=1, axis2=2))

    @property
    def traces(self) -> np.ndarray:
        return np.real(np.trace(self.rhos, axis1=1, axis2=2))


def _eigenvalues_of(source: Union[Spectrum, TwoLevelSystem, np.ndarray], m: int) -> np.ndarray:
    if isinstance(source, TwoLevelSystem):
        levels = np.asarray(source.eigenvalues, dtype=float)
    elif isinstance(source, Spectrum):
        levels = np.asarray(source.eigenvalues[:m], dtype=float)
    else:
        levels = np.asarray(source, dtype=float)
    if levels.shape != (m,):
        raise InvalidParameterError(
            f"need {m} level energies to match the coefficients, got shape {levels.shape}"
        )
    return levels


def assemble_redfield(
    coeffs: CouplingCoefficients,
    source: Union[Spectrum, TwoLevelSystem, np.ndarray],
    bath: BathSpec,
    force: bool = False,
) -> RedfieldTensor:
    """Assemble the relaxation tensor for the retained levels.

    Site couplings are identical across nodes, so every element is a
    weighted quartic sum over the distinct coefficient rows. Refuses when
    the bath memory bound is violated hard (g * delta_t > 1) unless
    forced.
    """
    m = coeffs.m
    if m > FULL_DIM_LIMIT:
        raise InvalidParameterError(
            f"tensor is O(m^4) memory; m={m} exceeds the limit {FULL_DIM_LIMIT}"
        )
    margin = bath.g * correlation_time(bath)
    if margin > 1.0 and not force:
        raise ValidityError(
            f"bath memory margin g*delta_t = {margin:.3g} > 1; pass force=True to override"
        )
    levels = _eigenvalues_of(source, m)
    rows = coeffs.rows
    counts = coeffs.counts
    smat = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            smat[i, j] = 2.0 * math.pi * rate_S(levels[i] - levels[j], bath)
    sq = rows**2
    # T[a,c,x] = sum_sites c_a c_c c_x^2 ; U[a,c] = sum_x T S[c,x]
    t3 = np.einsum("j,ja,jc,jx->acx", counts, rows, rows, sq)
    u = np.einsum("acx,cx->ac", t3, smat)
    # Q[a,c,d,b] = sum_sites c_a c_c c_d c_b via one rank-k GEMM
    b2 = (np.sqrt(counts)[:, None, None] * rows[:, :, None] * rows[:, None, :]).reshape(
        rows.shape[0], m * m
    )
    q = (b2.T @ b2).reshape(m, m, m, m)
    eye = np.eye(m)
    term1 = u[:, None, :, None] * eye[None, :, None, :]
    term3 = eye[:, None, :, None] * u[None, :, None, :]
    st = smat.T
    term2 = q.transpose(0, 3, 1, 2) * (st[:, None, :, None] + st[None, :, None, :])
    r = -0.5 * (term1 - term2 + term3)
    omegas = levels[:, None] - levels[None, :]
    r.setflags(write=False)
    omegas.setflags(write=False)
    levels.setflags(write=False)
    return RedfieldTensor(m=m, r=r, omegas=omegas, eigenvalues=levels)


def _validate_rho0(rho0: np.ndarray, m: int) -> np.ndarray:
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (m, m):
        raise ContractViolationError(f"rho0 must be {m}x{m}, got shape {rho.shape}")
    if np.linalg.norm(rho - rho.conj().T) > 1e-10:
        raise ContractViolationError("rho0 is not Hermitian within 1e-10")
    if abs(np.trace(rho).real - 1.0) > 1e-8 or abs(np.trace(rho).imag) > 1e-10:
        raise ContractViolationError(f"rho0 trace is {np.trace(rho)}, expected 1")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -1e-10:
        raise ContractViolationError("rho0 has a negative eigenvalue beyond tolerance")
    return rho


def integrate_master(
    tensor: RedfieldTensor,
    rho0: np.ndarray,
    times,
    method: str = "auto",
) -> Trajectory:
    """Propagate rho0 (the state at t=0) to every requested time.

    The generator is constant, so "eig" diagonalizes it once and evaluates
    all times directly. "rk45" steps adaptively with embedded Runge-Kutta
    instead. "auto" takes "eig" unless the eigenvector basis is
    ill-conditioned (condition number above 1e10, e.g. a defective
    generator), and "rk45" then.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise InvalidParameterError("time grid must be a nonempty 1-d array")
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise InvalidParameterError("time grid must be finite and nonnegative")
    if np.any(np.diff(t) < 0):
        raise InvalidParameterError("time grid must be nondecreasing")
    if method not in ("auto", "eig", "rk45"):
        raise InvalidParameterError(f"unknown method {method!r}")
    m = tensor.m
    rho = _validate_rho0(rho0, m)
    gen = tensor.generator()
    v0 = rho.reshape(m * m)

    if method in ("auto", "eig"):
        w, p = np.linalg.eig(gen)
        cond = np.linalg.cond(p)
        if cond < _EIG_COND_LIMIT or method == "eig":
            coefs = np.linalg.solve(p, v0)
            phases = np.exp(np.outer(t, w))
            vecs = phases * coefs[None, :] @ p.T
            rhos = vecs.reshape(len(t), m, m)
            return Trajectory(times=t, rhos=rhos)

    # imported on use: scipy.integrate costs more than the rest of `import qsearch`
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda _ti, y: gen @ y,
        t_span=(0.0, float(t[-1])) if t[-1] > 0 else (0.0, 1.0),
        y0=v0,
        t_eval=t if t[-1] > 0 else None,
        method="RK45",
        rtol=_RK45_RTOL,
        atol=_RK45_ATOL,
    )
    if sol.status < 0 or not sol.success:
        raise StiffnessError(f"adaptive integration failed: {sol.message}")
    if t[-1] > 0:
        rhos = sol.y.T.reshape(len(t), m, m)
    else:
        rhos = np.broadcast_to(rho, (len(t), m, m)).copy()
    return Trajectory(times=t, rhos=rhos)


def steady_state(tensor: RedfieldTensor) -> np.ndarray:
    """Trace-one kernel element of the generator (least-squares solve)."""
    m = tensor.m
    gen = tensor.generator()
    trace_row = np.zeros(m * m, dtype=complex)
    trace_row[:: m + 1] = 1.0
    a = np.vstack([gen, trace_row[None, :]])
    b = np.zeros(m * m + 1, dtype=complex)
    b[-1] = 1.0
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    rho = x.reshape(m, m)
    return 0.5 * (rho + rho.conj().T)


def damping_rate(coeffs: CouplingCoefficients, bath: BathSpec, delta: float) -> float:
    """Decay rate of the reduced coherence: pi * o1 * (S(delta) + S(-delta)).

    Equals half the total secular population-transfer rate, so the
    relaxation time of the disorder-free pair is 1/(2 * damping_rate).
    """
    if delta <= 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    return math.pi * coeffs.o1 * (rate_S(delta, bath) + rate_S(-delta, bath))


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
    two_pi = 2.0 * math.pi
    s_plus = two_pi * rate_S(delta, bath)
    s_minus = two_pi * rate_S(-delta, bath)
    s_zero = two_pi * rate_S(0.0, bath)
    gamma = 0.5 * coeffs.o1 * (s_plus + s_minus)
    m = np.array([
        [-0.5 * s_zero * coeffs.o3, delta, s_minus * coeffs.o2],
        [-delta, -0.5 * s_zero * coeffs.o3 - 2.0 * gamma, 0.0],
        [s_zero * coeffs.o2, 0.0, -2.0 * gamma],
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


@dataclass(frozen=True)
class SecularRates:
    """Population-transfer rates between the retained pair of levels."""

    w12: float
    w21: float
    t_rel: float
    p_suc: float

    def to_dict(self) -> dict:
        return {"w12": self.w12, "w21": self.w21, "t_rel": self.t_rel, "p_suc": self.p_suc}


def secular_rates(
    coeffs: CouplingCoefficients,
    bath: BathSpec,
    delta: float,
    force: bool = False,
) -> SecularRates:
    """Downward/upward rates 2*pi*Lambda_12*S(+-delta) and their summary.

    w12 feeds the ground state, w21 depletes it; their ratio is the
    thermal detailed-balance factor e^(beta delta), making the fixed
    point p_suc = 1/(1 + e^(-beta delta)). Refused outside the
    coarse-graining validity bound unless forced.
    """
    if delta <= 0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    margin = bath.g * math.sqrt(correlation_time(bath) / delta)
    if margin >= 1.0 and not force:
        raise ValidityError(
            f"coarse-graining margin g*sqrt(delta_t/delta) = {margin:.3g} >= 1; "
            "pass force=True to override"
        )
    lam12 = float(coeffs.lambda_kl[0, 1])
    two_pi = 2.0 * math.pi
    w12 = two_pi * lam12 * rate_S(delta, bath)
    w21 = two_pi * lam12 * rate_S(-delta, bath)
    total = w12 + w21
    if total <= 0:
        raise InvalidParameterError("total transfer rate is zero; no relaxation")
    return SecularRates(w12=w12, w21=w21, t_rel=1.0 / total, p_suc=w12 / total)


def secular_populations(rates: SecularRates, t, rho11_0: float):
    """Ground-level population at time(s) t from initial value rho11_0."""
    if not (0.0 <= rho11_0 <= 1.0):
        raise InvalidParameterError(f"rho11_0 must be in [0, 1], got {rho11_0}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise InvalidParameterError("time must be nonnegative")
    out = rates.p_suc + (rho11_0 - rates.p_suc) * np.exp(-t_arr / rates.t_rel)
    return float(out) if np.isscalar(t) else out


@dataclass(frozen=True)
class PopulationSeries:
    """Solution population with the truncation error bound of the reduction."""

    times: np.ndarray
    values: np.ndarray
    truncation_bound: float


def solution_population(
    traj: Trajectory,
    source: Union[TwoLevelSystem, np.ndarray],
) -> PopulationSeries:
    """Marked-node population w . rho(t) . w from the retained levels.

    The levels outside the trajectory are ignored; the induced error
    bound is reported, never silently dropped: 1/(sigma sqrt(n)) for a
    disordered reduction, 2/n otherwise, and 0 when the trajectory spans
    the full space.
    """
    if isinstance(source, TwoLevelSystem):
        wrow = np.array([source.a1, source.a2])
        if source.sigma and source.sigma > 0:
            bound = 1.0 / (source.sigma * math.sqrt(source.n))
        else:
            bound = 2.0 / source.n
    else:
        wrow = np.asarray(source, dtype=float)
        bound = 0.0
    if wrow.shape != (traj.m,):
        raise InvalidParameterError(
            f"overlap row has shape {wrow.shape}, expected ({traj.m},)"
        )
    values = np.real(np.einsum("tab,a,b->t", traj.rhos, wrow, wrow))
    return PopulationSeries(times=traj.times, values=values, truncation_bound=bound)


def extract_relaxation_time(times, values, target: float) -> float:
    """Exponential-decay time of |values - target| over the final 60% window.

    Oscillatory approaches (three or more slope sign changes in the
    window) are fitted through the local maxima of the residual, i.e.
    the envelope; monotone approaches use every point. Raises when the
    series has not converged to within 5% of the target by the window
    end, or when no decaying fit is possible.
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
        raise NoEstimateError(
            f"series is {rw[-1]:.3g} from target at window end (> 5% of {abs(target):.3g})"
        )
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
        raise NoEstimateError("too few nonzero residuals to fit a decay rate")
    slope = np.polyfit(tw, np.log(rw), 1)[0]
    if slope >= 0:
        raise NoEstimateError(f"residual is not decaying (fit slope {slope:.3g})")
    return -1.0 / float(slope)
