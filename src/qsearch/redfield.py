"""Weak-coupling open dynamics in the system eigenbasis.

Assembles the full relaxation tensor from coupling coefficients and bath
rates, integrates the master equation with the constant generator, and
provides the secular population rates with their closed-form solution,
steady states, and a relaxation-time estimator.

Propagation and the steady state work in real Hermitian coordinates:
x holds sqrt2 Im rho_ab and sqrt2 Re rho_ab for a < b, then the
populations rho_aa, an orthonormal basis of the Hermitian matrices. A
real tensor with R_abcd = R_badc (and omega_ab = -omega_ba) maps
Hermitian rho to Hermitian rho, so the generator G is a real m^2 x m^2
matrix there, which integrate_master and steady_state each build afresh
from the tensor; a tensor that breaks this is refused with
ContractViolationError. RedfieldTensor.generator() keeps the complex
row-major form.

integrate_master propagates by exact steps: for each distinct gap h
between consecutive times it forms E = exp(G h) once, by [13/13] Pade
with scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005),
and steps x_k = E x_(k-1). No eigenbasis is involved, so a defective or
nearly defective G (a nearly absorbing ground state at low temperature)
is propagated as accurately as any other.

All rates carry the 2*pi prefactor on top of the bare rate_S; the
combination is pinned by the thermal fixed point and the closed-form
cross-checks.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .bath import BathSpec, correlation_time, rate_S
from .errors import (
    ContractViolationError,
    DenseLimitError,
    InvalidParameterError,
    NoEstimateError,
    ValidityError,
)
from .spectral import CouplingCoefficients, Spectrum, TwoLevelSystem

# peak memory of assemble_redfield + integrate_master on a uniform grid, in m^4
# doubles: R and at most five m^4 buffers plus a quarter block (the Pade
# polynomial), then R, V +- U, the solve's two copies and E. With a 200-point
# trajectory ru_maxrss rose by 7.08, 6.64, 6.48 and 6.40 such units at m = 30,
# 40, 50 and 60; the trajectory is 0.67 of them at m = 30
_PEAK_M4_DOUBLES = 7

# bound on |R_abcd - R_badc| relative to max |R|: rounding only
_HERMITIAN_TOL = 1e-12
# bound on the column sums of G's population rows relative to their largest
# entry, below which G counts as trace-preserving: rounding only
_TRACE_TOL = 1e-12
_SQRT2 = math.sqrt(2.0)
# [13/13] Pade coefficients of exp and the 1-norm up to which they give it to
# double precision unscaled (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
# grid points off k*h by at most this many ulps of t_max still count as uniform
_UNIFORM_ULPS = 4
# n x n arrays below this many bytes are updated whole, not by quarters: their
# temporaries are small, and at m = 2 the quarters' numpy calls made exp(G h)
# take 150 us instead of 72
_QUARTER_BYTES = 1 << 16


class _Coordinates:
    """Index maps between row-major rho (m*m complex) and real x (m*m).

    x holds sqrt2 Im rho_ab over a < b in np.triu_indices order, then
    sqrt2 Re rho_ab in the same order, then the m populations. With the
    populations last, the trace row t^T is 1 on the last m coordinates and
    0 elsewhere, so pinning it (_pin_trace_row) and the trace condition of
    steady_state each touch one contiguous block.
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
        gen = self.r.reshape(m2, m2).astype(complex)
        np.einsum("ii->i", gen)[...] -= 1j * self.omegas.reshape(m2)
        return gen

    def _real_generator(self) -> np.ndarray:
        """The generator as a real matrix acting on x (see _Coordinates).

        Its dissipator is block-diagonal: the symmetric (Re) block takes
        R_ab,cd + R_ab,dc and the antisymmetric (Im) block R_ab,cd - R_ab,dc;
        the Hamiltonian part couples each (Re, Im) pair by +-omega_ab.
        Refuses a tensor that does not map Hermitian rho to Hermitian rho.
        """
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
        return g


@dataclass(frozen=True)
class Trajectory:
    """Density matrices rho(t) on a time grid, in the eigenbasis."""

    times: np.ndarray
    rhos: np.ndarray

    @property
    def m(self) -> int:
        return self.rhos.shape[1]


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


def _read(path: str) -> bytes:
    """The start of a small kernel file; os.read costs half of open().read()."""
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.read(fd, 1 << 14)
    finally:
        os.close(fd)


def _memory_budget() -> float:
    """Bytes this process can still allocate, from its own view of memory.

    The least of MemAvailable and, for each memory cgroup the process is
    in, its limit less its usage (v2 memory.max - memory.current, v1
    memory.limit_in_bytes - memory.usage_in_bytes). A source that is
    absent or unlimited is skipped, so with none the budget is infinite.
    """
    budget = math.inf
    try:
        meminfo = _read("/proc/meminfo")
        entries = _read("/proc/self/cgroup").decode().splitlines()
    except OSError:  # not Linux
        return budget
    at = meminfo.find(b"MemAvailable:")
    if at >= 0:
        budget = int(meminfo[at + 13:meminfo.index(b"kB", at)]) * 1024
    for entry in entries:
        _, controllers, path = entry.split(":", 2)
        if not controllers:
            files = (f"/sys/fs/cgroup{path}/memory.max", f"/sys/fs/cgroup{path}/memory.current")
        elif "memory" in controllers.split(","):
            root = f"/sys/fs/cgroup/memory{path}"
            files = (f"{root}/memory.limit_in_bytes", f"{root}/memory.usage_in_bytes")
        else:
            continue
        try:
            budget = min(budget, int(_read(files[0])) - int(_read(files[1])))
        except (OSError, ValueError):  # no memory controller there, or a "max" limit
            continue
    return budget


def assemble_redfield(
    coeffs: CouplingCoefficients,
    source: Union[Spectrum, TwoLevelSystem, np.ndarray],
    bath: BathSpec,
    force: bool = False,
) -> RedfieldTensor:
    """Assemble the relaxation tensor for the retained levels.

    Site couplings are identical across nodes, so every element is a
    weighted quartic sum over the distinct coefficient rows. Raises
    DenseLimitError, before allocating, when the O(m^4) arrays of assembly
    and propagation would not fit in the memory the process can still
    allocate, and ValidityError when the bath memory bound is violated
    hard (g * delta_t > 1) unless forced.
    """
    m = coeffs.m
    need = _PEAK_M4_DOUBLES * 8.0 * m**4
    budget = _memory_budget()
    if need > budget:
        raise DenseLimitError(
            f"full Redfield dynamics at m={m} need about {need / 2**30:.3g} GiB, "
            f"more than the {budget / 2**30:.3g} GiB this process can still allocate"
        )
    margin = bath.g * correlation_time(bath)
    if margin > 1.0 and not force:
        raise ValidityError(
            f"bath memory margin g*delta_t = {margin:.3g} > 1; pass force=True to override"
        )
    levels = _eigenvalues_of(source, m)
    rows = coeffs.rows
    counts = coeffs.counts
    omegas = levels[:, None] - levels[None, :]
    smat = 2.0 * math.pi * rate_S(omegas, bath)
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
    r.setflags(write=False)
    omegas.setflags(write=False)
    levels.setflags(write=False)
    return RedfieldTensor(m=m, r=r, omegas=omegas, eigenvalues=levels)


def _validate_rho0(rho0: np.ndarray, m: int) -> np.ndarray:
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (m, m):
        raise ContractViolationError(f"rho0 must be {m}x{m}, got shape {rho.shape}")
    # every comparison below is False for NaN, so a non-finite rho0 would pass them
    if not np.isfinite(rho).all():
        raise ContractViolationError("rho0 must be finite")
    adjoint = rho.conj().T
    if np.linalg.norm(rho - adjoint) > 1e-10:
        raise ContractViolationError("rho0 is not Hermitian within 1e-10")
    trace = rho.trace()
    if abs(trace.real - 1.0) > 1e-8 or abs(trace.imag) > 1e-10:
        raise ContractViolationError(f"rho0 trace is {trace}, expected 1")
    if np.linalg.eigvalsh(0.5 * (rho + adjoint)).min() < -1e-10:
        raise ContractViolationError("rho0 has a negative eigenvalue beyond tolerance")
    return rho


def _grid_step(t: np.ndarray) -> Optional[float]:
    """h when t_k = k h for k = 0..N-1 to a few ulps of t_max, else None."""
    if t.size < 2:
        return None
    h = t[-1] / (t.size - 1)
    if np.abs(t - h * np.arange(t.size)).max() > _UNIFORM_ULPS * np.spacing(t[-1]):
        return None
    return h


def _quarters(n: int) -> list:
    """Four slices that cover range(n), the unit of the in-place updates below.

    One slice when an n x n array is smaller than _QUARTER_BYTES.
    """
    size = -(-n // 4) if 8 * n * n >= _QUARTER_BYTES else n
    return [slice(i, i + size) for i in range(0, n, size)]


def _add_terms(out: np.ndarray, terms, diagonal: float = 0.0) -> None:
    """out += sum of c * a over (c, a) in terms, plus diagonal * I, by row quarters."""
    for rows in _quarters(out.shape[0]):
        for c, a in terms:
            out[rows] += c * a[rows]
    out.reshape(-1)[:: out.shape[0] + 1] += diagonal


def _left_multiply(a: np.ndarray, b: np.ndarray) -> None:
    """b <- a @ b by column quarters, so no second full product is held."""
    for cols in _quarters(b.shape[1]):
        b[:, cols] = a @ b[:, cols]


def _squarings(g: np.ndarray, h: float) -> int:
    """The fewest halvings s that bring ||g h / 2^s||_1 within theta_13."""
    norm = float(np.abs(g).sum(axis=0).max())
    if norm == 0.0 or h == 0.0:
        return 0
    # summed in logarithms, so that no product overflows
    return max(0, math.ceil(math.log2(norm) + math.log2(h / _THETA13)))


def _pin_trace_row(e: np.ndarray, m: int) -> None:
    """Make the last m rows of e (the populations) sum to the trace row t^T.

    e is one matrix or a stack of them along the leading axes.
    """
    populations = e[..., -m:, :]
    # einsum sums a stack of small blocks several times faster than .sum(axis=-2)
    defect = np.einsum("...ij->...j", populations)
    defect[..., -m:] -= 1.0
    populations -= defect[..., None, :] / m


def _expm(g: np.ndarray, h: float, s: int, pinned: int) -> np.ndarray:
    """exp(g h) by [13/13] Pade with s squarings; g is overwritten.

    With A = g h / 2^s: U = A [A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6
    + b5 A4 + b3 A2 + b1 I], V = A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6
    + b4 A4 + b2 A2 + b0 I, and exp(g h) = ((V - U)^-1 (V + U))^(2^s).
    Five m^4 buffers at most are live: A, A2, A4, A6 and U's; V takes A's
    once U is done. When pinned > 0, the trace row over the last pinned
    coordinates is restored after the solve and after every squaring; a
    trace-preserving g keeps it exactly, and rounding there would
    otherwise grow by 2^s (m = 2, beta = 5: 1.7e-10 at s = 23, 5e-15 pinned).
    """
    b = _PADE13
    a = g
    a *= math.ldexp(h, -s)
    # U's buffer comes before the powers, so that once they are freed they
    # lie at the top of the heap and go back to the system before the solve
    u = np.empty_like(a)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    np.multiply(a6, b[13], out=u)
    _add_terms(u, ((b[11], a4), (b[9], a2)))
    _left_multiply(a6, u)
    _add_terms(u, ((b[7], a6), (b[5], a4), (b[3], a2)), b[1])
    _left_multiply(a, u)
    v = a
    np.multiply(a6, b[12], out=v)
    _add_terms(v, ((b[10], a4), (b[8], a2)))
    _left_multiply(a6, v)
    _add_terms(v, ((b[6], a6), (b[4], a4), (b[2], a2)), b[0])
    del a, a2, a4, a6
    v += u
    u *= -2.0
    u += v
    e = np.linalg.solve(u, v)  # (V - U)^-1 (V + U)
    del u, v
    for _ in range(s):
        if pinned:
            _pin_trace_row(e, pinned)
        e = e @ e
    if pinned:
        _pin_trace_row(e, pinned)
    return e


def _powers(e: np.ndarray, count: int, pinned: int) -> np.ndarray:
    """E, E^2, ..., E^count stacked, by doubling: log2(count) products.

    Each doubling is one product of the stacked rows, E^(j + d) = E^j E^d
    for j = 1..d. The trace-row rounding of E^j grows like j ulps, so the
    new powers have their trace row pinned, once all are formed: at m = 2
    and N = 40000 that keeps tr rho(t) within 4.4e-16 (unpinned: 2.7e-12),
    as pinning after every doubling does, in one pass instead of log2(count).
    A single power is E itself, not a copy.
    """
    if count == 1:
        return e[None]
    n2 = e.shape[0]
    stack = np.empty((count, n2, n2))
    stack[0] = e
    done = 1
    while done < count:
        more = stack[done : 2 * done]
        np.dot(stack[: more.shape[0]].reshape(-1, n2), stack[done - 1], out=more.reshape(-1, n2))
        done += more.shape[0]
    if pinned:
        _pin_trace_row(stack[1:], pinned)
    return stack


def integrate_master(tensor: RedfieldTensor, rho0: np.ndarray, times) -> Trajectory:
    """Propagate rho0 (the state at t=0) to every requested time.

    G is constant and real in the Hermitian coordinates x (see the module
    docstring), so every step is exact: x_k = exp(G h_k) x_(k-1) with
    h_k = t_k - t_(k-1) and t_(-1) = 0. E = exp(G h) is formed once per
    distinct h ([13/13] Pade with scaling and squaring; when G preserves
    the trace, the trace row t^T E = t^T is pinned at every squaring), and
    a zero step copies the row before. A uniform grid from 0 (t_k = k h to
    a few ulps of t_max, as np.linspace(0, T, N) gives) takes one E and
    fills B = max(1, N // m^2) rows per product from the stacked powers
    E, ..., E^B, which are thus never larger than the trajectory. Raises
    DenseLimitError, before any exponential is formed, when a grid's
    distinct steps need more exponentials (m^4 doubles each) than fit in
    the memory the process can still allocate.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise InvalidParameterError("time grid must be a nonempty 1-d array")
    if (t < 0).any() or not np.isfinite(t).all():
        raise InvalidParameterError("time grid must be finite and nonnegative")
    if (t[1:] < t[:-1]).any():
        raise InvalidParameterError("time grid must be nondecreasing")
    m = tensor.m
    n2 = m * m
    rho = _validate_rho0(rho0, m)
    h = _grid_step(t)
    if h is None:
        steps = np.diff(t, prepend=0.0)
    else:
        steps = np.full(t.size, h)
        steps[0] = 0.0
    lengths = np.unique(steps[steps > 0])
    # one exponential is part of assemble_redfield's estimate; more are not
    if lengths.size > 1:
        need = lengths.size * 8.0 * n2 * n2
        budget = _memory_budget()
        if need > budget:
            raise DenseLimitError(
                f"{lengths.size} distinct time steps at m={m} need about {need / 2**30:.3g} GiB "
                f"of exponentials, more than the {budget / 2**30:.3g} GiB this process can still allocate"
            )
    gen = tensor._real_generator()
    coords = _hermitian_coordinates(m)

    # a trace-preserving G has t^T G = 0: its population rows sum to zero in
    # every column. E then has the trace row t^T; pinning that removes the
    # rounding that would drift tr rho(t) and the stationary mode
    populations = gen[n2 - m:]
    preserving = bool(np.abs(populations.sum(axis=0)).max() <= _TRACE_TOL * np.abs(populations).max())
    pinned = m if preserving else 0
    del populations

    exps = {}
    for i, step in enumerate(lengths.tolist()):
        squarings = _squarings(gen, step)
        # the last exponential takes G itself, so a single step copies nothing
        exps[step] = _expm(gen if i == lengths.size - 1 else gen.copy(), step, squarings, pinned)
    del gen

    x = np.empty((t.size, n2))
    x0 = coords.to_real(rho)
    x[0] = x0 if steps[0] == 0.0 else exps[steps[0]] @ x0
    if h:
        block = max(1, t.size // n2)
        powers = _powers(exps[h], block, pinned).reshape(-1, n2)
        for k in range(1, t.size, block):
            rows = min(block, t.size - k)
            np.dot(powers[: rows * n2], x[k - 1], out=x[k : k + rows].reshape(-1))
    else:
        for k, step in enumerate(steps.tolist()[1:], start=1):
            if step:
                np.dot(exps[step], x[k - 1], out=x[k])
            else:
                x[k] = x[k - 1]
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
    a = tensor._real_generator()
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
    return math.pi * coeffs.o1 * rate_S([delta, -delta], bath).sum()


@dataclass(frozen=True)
class SecularRates:
    """Population-transfer rates between the retained pair of levels.

    Each field is a float (a numpy scalar) for one pair, or an array with
    one entry per pair of a stack.
    """

    w12: Union[float, np.ndarray]
    w21: Union[float, np.ndarray]
    t_rel: Union[float, np.ndarray]
    p_suc: Union[float, np.ndarray]

    def to_dict(self) -> dict:
        # every field is a scalar or a string, so a shallow copy is the whole record
        return dict(vars(self))


def secular_rates(
    coeffs: Union[CouplingCoefficients, Sequence[CouplingCoefficients]],
    bath: BathSpec,
    delta,
    force: bool = False,
) -> SecularRates:
    """Downward/upward rates 2*pi*Lambda_12*S(+-delta) and their summary.

    w12 feeds the ground state, w21 depletes it; their ratio is the
    thermal detailed-balance factor e^(beta delta), making the fixed
    point p_suc = 1/(1 + e^(-beta delta)). Refused outside the
    coarse-graining validity bound unless forced.

    A sequence of P coefficient sets with an array of their P deltas is
    one stack: one rate_S call on every +-delta, and fields of delta's
    shape. The refusal names the margin of the first pair that breaks it.
    """
    delta = np.asarray(delta, dtype=float)
    pairs = [coeffs] if isinstance(coeffs, CouplingCoefficients) else coeffs
    if len(pairs) != delta.size:
        raise InvalidParameterError(f"need one delta per coefficient set, got {delta.size} for {len(pairs)}")
    lam12 = np.array([c.lambda_kl[0, 1] for c in pairs], dtype=float).reshape(delta.shape)
    if (delta <= 0).any():
        raise InvalidParameterError(f"delta must be positive, got {delta[delta <= 0][0]}")
    margin = bath.g * np.sqrt(correlation_time(bath) / delta)
    broken = margin >= 1.0
    if broken.any() and not force:
        raise ValidityError(
            f"coarse-graining margin g*sqrt(delta_t/delta) = {margin[broken][0]:.3g} >= 1; "
            "pass force=True to override"
        )
    rates = 2.0 * math.pi * lam12[..., None] * rate_S(np.stack([delta, -delta], axis=-1), bath)
    w12, w21 = rates[..., 0], rates[..., 1]
    total = w12 + w21
    if (total <= 0).any():
        raise InvalidParameterError("total transfer rate is zero; no relaxation")
    # [()] makes the fields of one pair numpy scalars (floats) and leaves a stack's arrays
    return SecularRates(w12=w12[()], w21=w21[()], t_rel=(1.0 / total)[()], p_suc=(w12 / total)[()])


def secular_populations(rates: SecularRates, t, rho11_0):
    """Ground-level population at time(s) t from initial value rho11_0.

    Broadcasts: a stack's rates fields and rho11_0 as (P, 1) columns
    against a (P, N) t give one row per pair.
    """
    rho11_0 = np.asarray(rho11_0, dtype=float)
    if not ((rho11_0 >= 0.0) & (rho11_0 <= 1.0)).all():
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


def _sign_changes(series: np.ndarray) -> np.ndarray:
    """Slope sign changes along each row, zero steps skipped.

    The nonzero steps of all rows, in row-major order, are compared with
    their predecessors, and a change counts for its row when both steps
    lie in it.
    """
    sign = np.sign(np.diff(series, axis=1))
    row, col = np.nonzero(sign)
    steps = sign[row, col]
    change = (row[1:] == row[:-1]) & (steps[1:] != steps[:-1])
    return np.bincount(row[1:][change], minlength=series.shape[0])


def _centred(x: np.ndarray, drop: np.ndarray, count: np.ndarray) -> np.ndarray:
    """x less its mean over the entries not dropped, row by row, and 0 where dropped; in place."""
    x[drop] = 0.0
    x -= (x.sum(axis=1) / count)[:, None]
    x[drop] = 0.0
    return x


def _decay_times(times, values, targets) -> Tuple[np.ndarray, List[str]]:
    """Exponential-decay time of |values - target| of each row of a (P, N) stack.

    The rule of extract_relaxation_time, row by row, with the fit in
    closed form: the least-squares slope of log|residual| against t is
    sum(dt dy) / sum(dt^2) over the kept points, dt and dy centred on
    their means. Returns (t_rel, notes): t_rel is NaN and the note gives
    the reason where a row has no estimate, and the note is "" elsewhere.
    A row's result is bitwise that of its stack of one: the series are
    taken row-contiguous, so every row sum is the same pairwise sum (summed
    across a column-major stack, numpy adds the rows' terms in another
    order).
    """
    t = np.ascontiguousarray(times, dtype=float)
    v = np.ascontiguousarray(values, dtype=float)
    target = np.asarray(targets, dtype=float)
    if t.shape != v.shape or t.ndim != 2 or t.shape[1] < 4 or target.shape != t.shape[:1]:
        raise InvalidParameterError("need matching 1-d series with at least 4 points")
    if (target == 0.0).any():
        raise InvalidParameterError("target must be nonzero to scale the residual check")
    i0 = int(0.4 * t.shape[1])
    changes = _sign_changes(v[:, i0:])
    rw = np.subtract(v[:, i0:], target[:, None])
    np.abs(rw, out=rw)
    end = rw[:, -1].copy()
    scale = np.abs(target)
    unconverged = end > 0.05 * scale
    # oscillatory rows with three or more local maxima are fitted through them
    peaks = np.zeros(rw.shape, dtype=bool)
    peaks[:, 1:-1] = (rw[:, 1:-1] >= rw[:, :-2]) & (rw[:, 1:-1] >= rw[:, 2:])
    envelope = (changes >= 3) & (peaks.sum(axis=1) >= 3)
    drop = np.where(envelope[:, None], ~peaks, False) | ~(rw > 0.0)
    count = rw.shape[1] - drop.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # log 0 and the rows with fewer than two points give inf and NaN, all dropped
        dy = _centred(np.log(rw, out=rw), drop, count)
        dt = _centred(t[:, i0:].copy(), drop, count)
        slope = (dt * dy).sum(axis=1) / (dt * dt).sum(axis=1)
        few = count < 2
        fitted = ~unconverged & ~few & (slope < 0)
        t_rel = np.where(fitted, -1.0 / slope, math.nan)
    notes = [""] * t.shape[0]
    for i in np.flatnonzero(~fitted).tolist():
        if unconverged[i]:
            notes[i] = (
                f"series is {end[i]:.3g} from target at window end (> 5% of {scale[i]:.3g})"
            )
        elif few[i]:
            notes[i] = "too few nonzero residuals to fit a decay rate"
        else:
            notes[i] = f"residual is not decaying (fit slope {slope[i]:.3g})"
    return t_rel, notes


def extract_relaxation_time(times, values, target: float) -> float:
    """Exponential-decay time of |values - target| over the final 60% window.

    Oscillatory approaches (three or more slope sign changes in the
    window, zero steps skipped) are fitted through the local maxima of
    the residual, i.e. the envelope, when it has three or more; monotone
    approaches use every point. Zero residuals are dropped, and the decay
    rate is the closed-form least-squares slope of log|residual| against
    t. Raises when the series has not converged to within 5% of the
    target by the window end, or when no decaying fit is possible. One
    row of _decay_times.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    (t_rel,), (note,) = _decay_times(t[None], v[None], np.array([target], dtype=float))
    if note:
        raise NoEstimateError(note)
    return float(t_rel)
