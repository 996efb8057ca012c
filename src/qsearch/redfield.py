"""Weak-coupling open dynamics in the system eigenbasis.

Assembles the full relaxation tensor from coupling coefficients and bath
rates, integrates the master equation (spectral propagation of the
constant generator, with an adaptive RK45 fallback), and provides the
two-level Pauli-basis matrix, the closed-form coherence solution, the
secular population rates with their closed-form solution, steady states,
and a relaxation-time estimator.

Propagation and the steady state work in real Hermitian coordinates:
x holds sqrt2 Im rho_ab and sqrt2 Re rho_ab for a < b, then the
populations rho_aa, an orthonormal basis of the Hermitian matrices. A
real tensor with R_abcd = R_badc (and omega_ab = -omega_ba) maps
Hermitian rho to Hermitian rho, so the generator is a real m^2 x m^2
matrix there, built once per tensor and shared by integrate_master and
steady_state; a tensor that breaks this is refused with
ContractViolationError. RedfieldTensor.generator() keeps the complex
row-major form.

All rates carry the 2*pi prefactor on top of the bare rate_S; the
combination is pinned by the thermal fixed point and the closed-form
cross-checks.
"""

from __future__ import annotations

import functools
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
# bound on |R_abcd - R_badc| relative to max |R|: rounding only
_HERMITIAN_TOL = 1e-12
_SQRT2 = math.sqrt(2.0)
# eigenvalues below this, relative to the largest one, count as stationary modes
_ZERO_MODE_TOL = 1e-12
# a real generator up to this size (m <= 8) stays on its tensor between calls;
# a larger one is rebuilt, an O(m^4) cost beside the O(m^6) eigensolve, rather
# than held for as long as the caller keeps the tensor
_KEEP_GENERATOR_BYTES = 1 << 15
_RK45_RTOL = 1e-8
_RK45_ATOL = 1e-10


class _Coordinates:
    """Index maps between row-major rho (m*m complex) and real x (m*m).

    x holds sqrt2 Im rho_ab over a < b in np.triu_indices order, then
    sqrt2 Re rho_ab in the same order, then the m populations. With the
    populations last, LAPACK's real eigensolver resolves the slow
    population modes about as well as the complex solver on the complex
    generator, several times better than with them first (m = 2..16,
    against scipy.linalg.expm).
    """

    def __init__(self, m: int) -> None:
        ia, ib = np.triu_indices(m, 1)
        p = ia.size
        diag = np.arange(m) * (m + 1)
        upper = ia * m + ib
        lower = ib * m + ia
        sym = np.concatenate((upper, diag))
        self.m = m
        self.pairs = p
        self.upper = upper
        # the rows ab (a <= b) of R against the columns ab, ba and aa, in one gather
        self.rows_of_r = np.ix_(sym, np.concatenate((upper, lower, diag)))
        # flat positions of G[p + k, k] (Re from Im) and G[k, p + k] (Im from Re)
        n2 = m * m
        self.re_from_im = slice(p * n2, p * n2 + p * (n2 + 1), n2 + 1)
        self.im_from_re = slice(p, p + p * (n2 + 1), n2 + 1)
        re, im = p + np.arange(p), np.arange(p)
        # x from the float view of rho: slot 2i is Re rho_i, slot 2i+1 is Im rho_i
        self.gather = np.concatenate((2 * upper + 1, 2 * upper, 2 * diag))
        self.gather_scale = np.concatenate((np.full(2 * p, _SQRT2), np.ones(m)))
        src = np.zeros(2 * m * m, dtype=np.intp)
        scale = np.zeros(2 * m * m)
        src[2 * diag] = 2 * p + np.arange(m)
        scale[2 * diag] = 1.0
        for flat, sign in ((upper, 1.0), (lower, -1.0)):
            src[2 * flat], src[2 * flat + 1] = re, im
            scale[2 * flat], scale[2 * flat + 1] = 1.0 / _SQRT2, sign / _SQRT2
        self.scatter, self.scatter_scale = src, scale
        # fixed unit probe of the eigenbasis condition estimate; varied entries
        # so that no structured direction of the basis is orthogonal to it
        probe = np.sin(1.0 + np.arange(m * m))
        self.probe = probe / np.linalg.norm(probe)

    def to_real(self, rho: np.ndarray) -> np.ndarray:
        """x of one density matrix."""
        return np.ascontiguousarray(rho).view(float).reshape(-1)[self.gather] * self.gather_scale

    def to_rho(self, x: np.ndarray) -> np.ndarray:
        """rho(t) for each row of x, Hermitian to the last bit."""
        parts = np.multiply(x[:, self.scatter], self.scatter_scale, order="C")
        return parts.view(complex).reshape(x.shape[0], self.m, self.m)


@functools.lru_cache(maxsize=None)
def _hermitian_coordinates(m: int) -> _Coordinates:
    return _Coordinates(m)


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

    def _real_generator(self) -> np.ndarray:
        """The generator as a real matrix acting on x (see _Coordinates).

        Its dissipator is block-diagonal: the symmetric (Re) block takes
        R_ab,cd + R_ab,dc and the antisymmetric (Im) block R_ab,cd - R_ab,dc;
        the Hamiltonian part couples each (Re, Im) pair by +-omega_ab.
        Refuses a tensor that does not map Hermitian rho to Hermitian rho.
        A small generator is kept on the tensor for the next call.
        """
        g = self.__dict__.get("_kept_generator")
        if g is None:
            g = self._build_real_generator()
            if g.nbytes <= _KEEP_GENERATOR_BYTES:
                # written past the frozen __setattr__, as functools.cached_property does
                self.__dict__["_kept_generator"] = g
        return g

    def _build_real_generator(self) -> np.ndarray:
        m = self.m
        n2 = m * m
        r, omegas = self.r, self.omegas
        if np.iscomplexobj(r) or np.iscomplexobj(omegas):
            raise ContractViolationError("the relaxation tensor and Bohr frequencies must be real")
        defect = r - r.transpose(1, 0, 3, 2)
        np.abs(defect, out=defect)
        # omega_ab = lambda_a - lambda_b is antisymmetric to the last bit
        if defect.max() > _HERMITIAN_TOL * np.abs(r).max() or (omegas + omegas.T).any():
            raise ContractViolationError(
                "tensor does not preserve Hermiticity: need R_abcd = R_badc and omega_ab = -omega_ba"
            )
        del defect
        c = _hermitian_coordinates(m)
        p = c.pairs
        rf = r.reshape(n2, n2)
        g = np.zeros((n2, n2))
        rows = rf[c.rows_of_r]
        np.subtract(rows[:p, :p], rows[:p, p:2 * p], out=g[:p, :p])
        sym = g[p:, p:]
        np.add(rows[:, :p], rows[:, p:2 * p], out=sym[:, :p])
        sym[:, p:] = rows[:, 2 * p:]
        del rows
        sym[:p, p:] *= _SQRT2
        sym[p:, :p] *= 1.0 / _SQRT2
        w = omegas.reshape(n2)[c.upper]
        flat = g.reshape(n2 * n2)
        flat[c.re_from_im] = w
        flat[c.im_from_re] = -w
        g.setflags(write=False)
        return g


@dataclass(frozen=True)
class Trajectory:
    """Density matrices rho(t) on a time grid, in the eigenbasis."""

    times: np.ndarray
    rhos: np.ndarray

    @property
    def m(self) -> int:
        return self.rhos.shape[1]

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
    # R_abcd = (Q_acdb (S_ca + S_db) - U_ac delta_bd - delta_ac U_bd) / 2, built
    # in place: the two delta terms touch only m^3 entries, through views
    st = smat.T
    r = np.add(st[:, None, :, None], st[None, :, None, :], out=np.empty((m, m, m, m)))
    r *= q.transpose(0, 3, 1, 2)
    del q
    np.einsum("abcb->abc", r)[...] -= u[:, None, :]
    np.einsum("abad->abd", r)[...] -= u[None, :, :]
    r *= 0.5
    omegas = levels[:, None] - levels[None, :]
    r.setflags(write=False)
    omegas.setflags(write=False)
    levels.setflags(write=False)
    return RedfieldTensor(m=m, r=r, omegas=omegas, eigenvalues=levels)


def _validate_rho0(rho0: np.ndarray, m: int) -> np.ndarray:
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (m, m):
        raise ContractViolationError(f"rho0 must be {m}x{m}, got shape {rho.shape}")
    adjoint = rho.conj().T
    if np.linalg.norm(rho - adjoint) > 1e-10:
        raise ContractViolationError("rho0 is not Hermitian within 1e-10")
    trace = rho.trace()
    if abs(trace.real - 1.0) > 1e-8 or abs(trace.imag) > 1e-10:
        raise ContractViolationError(f"rho0 trace is {trace}, expected 1")
    if np.linalg.eigvalsh(0.5 * (rho + adjoint)).min() < -1e-10:
        raise ContractViolationError("rho0 has a negative eigenvalue beyond tolerance")
    return rho


def integrate_master(
    tensor: RedfieldTensor,
    rho0: np.ndarray,
    times,
    method: str = "auto",
) -> Trajectory:
    """Propagate rho0 (the state at t=0) to every requested time.

    The generator is constant and real in the Hermitian coordinates x (see
    the module docstring), so "eig" diagonalizes it once with a real
    eigensolve and evaluates all times directly; each complex-conjugate
    pair of eigenvectors is held as its real and imaginary parts. "rk45"
    steps x adaptively with embedded Runge-Kutta instead. "auto" takes
    "eig" unless the eigenvector basis is ill-conditioned, and "rk45" then.
    The condition number is estimated from the LU that also gives the
    expansion coefficients: sqrt(m^2) * ||P^-1 z|| for a fixed unit probe
    z, against the limit 1e10 (a defective generator exceeds it).
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise InvalidParameterError("time grid must be a nonempty 1-d array")
    if (t < 0).any() or not np.isfinite(t).all():
        raise InvalidParameterError("time grid must be finite and nonnegative")
    if (t[1:] < t[:-1]).any():
        raise InvalidParameterError("time grid must be nondecreasing")
    if method not in ("auto", "eig", "rk45"):
        raise InvalidParameterError(f"unknown method {method!r}")
    m = tensor.m
    n2 = m * m
    rho = _validate_rho0(rho0, m)
    gen = tensor._real_generator()
    coords = _hermitian_coordinates(m)
    x0 = coords.to_real(rho)

    if method in ("auto", "eig"):
        w, p = np.linalg.eig(gen)
        pairs = None
        if np.iscomplexobj(p):
            # LAPACK lists each pair as (v, conj v), positive imaginary part
            # first; keep the real basis (Re v, -Im v) in their columns
            pairs = np.flatnonzero(w.imag > 0)
            p = np.where(w.imag < 0, p.imag, p.real)
        # trace preservation makes the trace row a left eigenvector of the
        # eigenvalue 0, so every mode of a nonzero eigenvalue is traceless;
        # restoring that removes the rounding that would drift tr rho(t)
        rates = np.abs(w)
        moving = rates > _ZERO_MODE_TOL * rates.max()
        populations = p[n2 - m:]
        populations -= populations.sum(axis=0) * (moving / m)
        rhs = np.empty((n2, 2))
        rhs[:, 0] = x0
        rhs[:, 1] = coords.probe
        try:
            sol = np.linalg.solve(p, rhs)
        except np.linalg.LinAlgError:  # an exactly singular basis
            if method == "eig":
                raise
            sol = None
        if sol is not None and (
            method == "eig" or m * math.sqrt(sol[:, 1] @ sol[:, 1]) < _EIG_COND_LIMIT
        ):
            c = sol[:, 0]
            amps = np.exp(t[:, None] * w.real) * c
            if pairs is not None:
                # c_j Re v - c_k Im v = Re((c_j + i c_k) v) evolves into
                # Re(z v) = Re z Re v - Im z Im v, z = (c_j + i c_k) e^(w_j t)
                j, k = pairs, pairs + 1
                z = np.exp(t[:, None] * w[j])
                z *= c[j] + 1j * c[k]
                amps[:, j] = z.real
                amps[:, k] = z.imag
            return Trajectory(times=t, rhos=coords.to_rho(amps @ p.T))

    # imported on use: scipy.integrate costs more than the rest of `import qsearch`
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda _ti, y: gen @ y,
        t_span=(0.0, float(t[-1])) if t[-1] > 0 else (0.0, 1.0),
        y0=x0,
        t_eval=t if t[-1] > 0 else None,
        method="RK45",
        rtol=_RK45_RTOL,
        atol=_RK45_ATOL,
    )
    if sol.status < 0 or not sol.success:
        raise StiffnessError(f"adaptive integration failed: {sol.message}")
    x = sol.y.T if t[-1] > 0 else np.broadcast_to(x0, (len(t), x0.size))
    return Trajectory(times=t, rhos=coords.to_rho(x))


def steady_state(tensor: RedfieldTensor) -> np.ndarray:
    """Trace-one kernel element of the generator.

    Trace preservation gives t^T G = 0 for the trace row t of the real
    generator G, so the state solves the square system
    (G + e_00 t^T) x = e_00. That system is singular exactly when the
    kernel is not one-dimensional (e.g. g = 0, where every population
    vector is stationary); the steady state is then not unique and
    InvalidParameterError is raised.
    """
    m = tensor.m
    n2 = m * m
    # the populations are the last m coordinates; rho_00 is the first of them
    a = tensor._real_generator().copy()
    a[n2 - m, n2 - m:] += 1.0
    e00 = np.zeros(n2)
    e00[n2 - m] = 1.0
    try:
        x = np.linalg.solve(a, e00)
    except np.linalg.LinAlgError as exc:
        raise InvalidParameterError(
            "steady state is not unique: the generator's kernel is not one-dimensional"
        ) from exc
    if not np.isfinite(x).all():
        raise InvalidParameterError("steady state is not unique: the trace-pinned system is singular")
    return _hermitian_coordinates(m).to_rho(x[None, :])[0]


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
