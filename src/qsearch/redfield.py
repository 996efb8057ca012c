"""Weak-coupling open dynamics in the system eigenbasis.

Assembles the Redfield generator from coupling coefficients and bath
rates, integrates the master equation with the constant generator, and
provides the secular population rates with their closed-form solution,
steady states, and the row-wise decay-time fit of a stack of series.

Propagation and the steady state work in real Hermitian coordinates:
x holds sqrt2 Im rho_ab and sqrt2 Re rho_ab for a < b, then the
populations rho_aa, an orthonormal basis of the Hermitian matrices. The
tensor is kept as the real m^2 x m^2 generator G on x, which
assemble_redfield writes once from the site sums; any real G maps
Hermitian rho to Hermitian rho. integrate_master and steady_state each
take one copy of it. RedfieldTensor.generator() rebuilds the complex
row-major form.

integrate_master propagates by exact steps: for each distinct gap h
between consecutive times it forms E = exp(G h) once, by the degree-18
Taylor polynomial in five products with scaling and squaring (Bader,
Blanes & Casas, Mathematics 7, 1174, 2019), and steps x_k = E x_(k-1).
No eigenbasis is involved, so a defective or nearly defective G (a nearly
absorbing ground state at low temperature) is propagated as accurately
as any other.

All rates carry the 2*pi prefactor on top of the bare rate_S; the
combination is pinned by the thermal fixed point and the closed-form
cross-checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .bath import BathSpec, rate_S
from .errors import ContractViolationError, InvalidParameterError
from .model import require_memory
from .spectral import CouplingCoefficients, Spectrum

# peak memory of assemble_redfield + integrate_master on a uniform grid, in m^4
# doubles: the tensor's G and the Taylor polynomial's five m^4 buffers plus a
# row eighth (5.1-5.25 traced besides G). With a 200-point trajectory
# ru_maxrss rose by 6.75, 6.42 and 6.30 such units at m = 30, 40 and 50; the
# trajectory is 0.67 of them at m = 30
_PEAK_M4_DOUBLES = 7

# bound on the column sums of G's population rows relative to their largest
# entry, below which G counts as trace-preserving: rounding only
_TRACE_TOL = 1e-12
# a row's kept log-residuals whose spread about their mean is within this many
# eps of the mean's magnitude are equal but for the rounding of the mean (at
# most 3.4 eps over 2000 constant series of 4-2000 points)
_FLAT_EPS = 16
_SQRT2 = math.sqrt(2.0)
# Bader, Blanes & Casas (Mathematics 7, 1174, 2019): the degree-18 Taylor
# polynomial of exp in five products. Row i holds the coefficients of B_(i+1)
# on I, A, A^2, A^3 and A^6; with them A9 = B1 B5 + B4 and
# T18(A) = B2 + (B3 + A9) A9
_T18 = np.array([
    [0.0, -0.10036558103014462001, -0.00802924648241156960, -0.00089213849804572995, 0.0],
    [0.0, 0.39784974949964507614, 1.36783778460411719922, 0.49828962252538267755,
     -0.00063789819459472330],
    [-10.9676396052962062593, 1.68015813878906197182, 0.05717798464788655127,
     -0.00698210122488052084, 0.00003349750170860705],
    [-0.09043168323908105619, -0.06764045190713819075, 0.06759613017704596460,
     0.02955525704293155274, -0.00001391802575160607],
    [0.0, 0.0, -0.09233646193671185927, -0.01693649390020817171, -0.00001400867981820361],
])
# the 1-norm of A up to which T18(A) gives exp(A) to double precision: the root
# of sum_(k>=19) |c_k| theta^(k-1) = 2^-53, where c_k are the coefficients of
# log(e^-x T18(x)), a bound on the relative backward error
_THETA18 = 1.090863719290036
# grid points off k*h by at most this many ulps of t_max still count as uniform
_UNIFORM_ULPS = 4
# n x n arrays below this many bytes are worked on whole, not by row blocks:
# their temporaries are small, and at m = 2 the blocks' numpy calls made
# exp(G h) take 150 us instead of 72
_WHOLE_BYTES = 1 << 16
# bound on the bytes of the stacked rows from which _expm forms each block of
# B1..B5: from 256 KiB to 1 MiB the pass took 30 ms at m = 40, against 54 ms
# at 64 KiB and 43 ms at 2 MiB
_STACK_BYTES = 1 << 19


class _Coordinates:
    """Index maps between row-major rho (m*m complex) and real x (m*m).

    x holds sqrt2 Im rho_ab over a < b in np.triu_indices order, then
    sqrt2 Re rho_ab in the same order, then the m populations. With the
    populations last, the trace row t^T is 1 on the last m coordinates and
    0 elsewhere, so pinning it (_pin_trace_row) and the trace condition of
    steady_state each touch one contiguous block. (a[k], b[k]) are the
    pairs a <= b of the Re coordinates and the populations, in x's order.
    """

    def __init__(self, m: int) -> None:
        ia, ib = np.triu_indices(m, 1)
        p = ia.size
        diag = np.arange(m) * (m + 1)
        upper = ia * m + ib
        lower = ib * m + ia
        self.m = m
        self.pairs = p
        self.a = np.concatenate((ia, np.arange(m)))
        self.b = np.concatenate((ib, np.arange(m)))
        # flat positions of G[p + k, k] (Re from Im) and G[k, p + k] (Im from Re)
        n2 = m * m
        self.re_from_im = slice(p * n2, p * n2 + p * (n2 + 1), n2 + 1)
        self.im_from_re = slice(p, p + p * (n2 + 1), n2 + 1)
        # assemble_redfield's delta terms U[ur[k], uc[l]] wherever kr[k] == kc[l], as flat
        # positions in G and in U: B+ subtracts all four, B- the first two and adds the others
        a, b = self.a, self.b
        drop, lift = [], []
        for kr, kc, ur, uc, sign in ((b, b, a, a, 1), (a, a, b, b, 1), (b, a, a, b, -1), (a, b, b, a, -1)):
            k, l = np.nonzero(kr[:, None] == kc[None, :])
            u = ur[k] * m + uc[l]
            drop.append(((p + k) * n2 + p + l, u))
            inner = (k < p) & (l < p)
            (drop if sign > 0 else lift).append((k[inner] * n2 + l[inner], u[inner]))
        self.drop_at, self.drop_u = (np.concatenate(x) for x in zip(*drop))
        self.lift_at, self.lift_u = (np.concatenate(x) for x in zip(*lift))
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


# bounded: one map holds about 1.7 m^3 index pairs (2 MB at m = 40); eight
# sizes cover a full-dimension pipeline's m = 8..40 plus the pair's m = 2
@functools.lru_cache(maxsize=8)
def _hermitian_coordinates(m: int) -> _Coordinates:
    return _Coordinates(m)


@dataclass(frozen=True)
class RedfieldTensor:
    """The real m^2 x m^2 generator g of dx/dt = g x on the Hermitian coordinates x of m levels.

    Being real, any g maps Hermitian rho to Hermitian rho; a complex or misshapen g is refused.
    """

    m: int
    g: np.ndarray

    def __post_init__(self) -> None:
        n2 = self.m * self.m
        if np.iscomplexobj(self.g) or np.shape(self.g) != (n2, n2):
            raise ContractViolationError(f"the generator must be a real {n2}x{n2} matrix")

    @property
    def preserves_trace(self) -> bool:
        """t^T g = 0 to rounding: each column of the population rows sums within _TRACE_TOL of their largest entry."""
        populations = self.g[-self.m:]
        return bool(np.abs(populations.sum(axis=0)).max() <= _TRACE_TOL * np.abs(populations).max())

    def generator(self) -> np.ndarray:
        """The complex generator L of d(rho)/dt = L rho, rho in row-major order.

        x = T rho for a unitary T, so L = T^H g T: by row eighths, rows of
        T^H g from the scatter map of _Coordinates.to_rho, times T.
        """
        n2 = self.m * self.m
        c = _hermitian_coordinates(self.m)
        re, im = c.scatter[0::2], c.scatter[1::2]
        alpha, beta = c.scatter_scale[0::2], c.scatter_scale[1::2]
        gen = np.empty((n2, n2), dtype=complex)
        for rows in _row_blocks(n2, -(-n2 // 8) if 8 * n2 * n2 >= _WHOLE_BYTES else n2):
            left_re = self.g[re[rows]] * alpha[rows, None]
            left_im = self.g[im[rows]] * beta[rows, None]
            gen[rows].real = left_re[:, re] * alpha + left_im[:, im] * beta
            gen[rows].imag = left_im[:, re] * alpha - left_re[:, im] * beta
        return gen


@dataclass(frozen=True)
class Trajectory:
    """Density matrices rho(t) on a time grid, in the eigenbasis."""

    times: np.ndarray
    rhos: np.ndarray

    @property
    def m(self) -> int:
        return self.rhos.shape[1]


def assemble_redfield(
    coeffs: CouplingCoefficients,
    source: Union[Spectrum, np.ndarray],
    bath: BathSpec,
) -> RedfieldTensor:
    """Assemble the real generator G of the retained levels' Redfield equation.

    source gives their energies: a Spectrum's lowest m, or an array of m
    (a reduced pair's row of eigenvalues). With S_ca = 2 pi rate_S(lambda_c
    - lambda_a) and the site sums Q_abcd = sum_j c_ja c_jb c_jc c_jd and
    U_ac = sum_x Q_acxx S_cx, the tensor of d(rho_ab)/dt = -i omega_ab rho_ab
    + sum_cd R_abcd rho_cd is R_abcd = (Q_abcd (S_ca + S_db) - delta_bd U_ac
    - delta_ac U_bd) / 2. G is written without it: Q is symmetric in all
    four indices, so one GEMM over the pairs a <= b gives it, and with
    B+- = Q_abcd (S_ca + S_db +- (S_da + S_cb)) - (delta_bd U_ac
    + delta_ac U_bd +- (delta_bc U_ad + delta_ad U_bc)), R_ab,cd +- R_ab,dc
    = B+-/2. The Im block is B-/2; the Re/population block is B+ times 1/2,
    1/(2 sqrt2) where one pair is a population, 1/4 where both are; the
    last population row is minus the sum of the others, as it is exactly;
    +-omega_ab couples each (Re, Im) pair. Raises DenseLimitError, before
    allocating, when the O(m^4) arrays of assembly and propagation would
    not fit in the memory the process can still allocate.
    """
    rows, counts = coeffs.rows, coeffs.counts
    m = rows.shape[1]
    require_memory(_PEAK_M4_DOUBLES * 8.0 * m**4, f"full Redfield dynamics at m={m}")
    levels = np.asarray(source.eigenvalues[:m] if isinstance(source, Spectrum) else source, dtype=float)
    if levels.shape != (m,):
        raise InvalidParameterError(f"need {m} level energies to match the coefficients, got shape {levels.shape}")
    c = _hermitian_coordinates(m)
    a, b, p, n2 = c.a, c.b, c.pairs, m * m
    # st[a, c] = S_ca / 2 (pi, not 2 pi: exactly half), so U and the sums below are halved too
    st = math.pi * rate_S(levels[None, :] - levels[:, None], bath)
    u = (counts[:, None] * rows).T @ (rows * (rows**2 @ st))
    # G before the pair-sized temporaries: allocated after them, it raised open_full's peak RSS
    g = np.zeros((n2, n2))
    bp = np.sqrt(counts)[:, None] * rows[:, a] * rows[:, b]
    q = bp.T @ bp
    im, sym = g[:p, :p], g[p:, p:]
    # (S_ca + S_db) +- (S_da + S_cb) over the pairs, one pair-sized gather at a time
    sym[...] = st[a][:, b]
    sym += st[b][:, a]
    np.negative(sym[:p, :p], out=im)
    for idx in (a, b):
        x = st[idx][:, idx]
        sym += x
        im += x[:p, :p]
        del x
    sym *= q
    im *= q[:p, :p]
    del q
    flat, uf = g.reshape(-1), u.reshape(-1)
    np.subtract.at(flat, c.drop_at, uf[c.drop_u])
    np.add.at(flat, c.lift_at, uf[c.lift_u])
    sym[:p, p:] *= 1.0 / _SQRT2
    sym[p:, :p] *= 1.0 / _SQRT2
    sym[p:, p:] *= 0.5
    # the last population row is minus the others' sum: summed in order, they cancel to the bit
    np.negative(np.sum(g[n2 - m:-1], axis=0), out=g[-1])
    w = levels[a[:p]] - levels[b[:p]]
    flat[c.re_from_im] = w
    flat[c.im_from_re] = -w
    g.setflags(write=False)
    return RedfieldTensor(m=m, g=g)


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


def _row_blocks(n: int, rows: int) -> list:
    """Slices of at most rows consecutive indices that cover range(n)."""
    return [slice(i, i + rows) for i in range(0, n, rows)]


def _right_multiply(b: np.ndarray, a: np.ndarray) -> None:
    """b <- b @ a by row eighths, so no second full product is held.

    Whole when b is smaller than _WHOLE_BYTES.
    """
    n = b.shape[0]
    for rows in _row_blocks(n, -(-n // 8) if 8 * n * n >= _WHOLE_BYTES else n):
        b[rows] = b[rows] @ a


def _squarings(g: np.ndarray, h: float) -> int:
    """The fewest halvings s that bring ||g h / 2^s||_1 within theta_18."""
    norm = float(np.abs(g).sum(axis=0).max())
    if norm == 0.0 or h == 0.0:
        return 0
    # summed in logarithms, so that no product overflows
    return max(0, math.ceil(math.log2(norm) + math.log2(h / _THETA18)))


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
    """exp(g h) by the degree-18 Taylor polynomial with s squarings; g is overwritten.

    With A = g h / 2^s and B1..B5 the combinations of I, A, A2, A3 and A6
    in _T18: A9 = B1 B5 + B4, T18(A) = B2 + (B3 + A9) A9, and
    exp(g h) = T18(A)^(2^s). That is five products and no solve. Five m^4
    buffers at most are live: A, A2, A3, A6 and B5's; one pass over row
    blocks turns the powers into B1..B4 in place, each block from a stacked
    copy of its old rows, and each product overwrites its left factor by
    contiguous row eighths. When pinned > 0, the trace row over the last
    pinned coordinates is restored after the polynomial and after every
    squaring; a trace-preserving g keeps it exactly, and rounding there
    would otherwise grow by 2^s (m = 2, beta = 5: 1.5e-10 at s = 24).
    """
    a = g
    a *= math.ldexp(h, -s)
    # B5's buffer comes before the powers, and the products go by row eighths:
    # over repeated open_full passes ru_maxrss then settled at 189.6 MB,
    # against 196.2 with B5's buffer last and row quarters
    b5 = np.empty_like(a)
    a2 = a @ a
    a3 = a2 @ a
    powers = (a, a2, a3, a3 @ a3)
    bs = powers + (b5,)
    n = a.shape[0]
    # a block's stacked rows are at most an eighth of one power, and whole when small
    block = n
    if 8 * n * n >= _WHOLE_BYTES:
        block = max(1, min(n // 32, _STACK_BYTES // (8 * len(powers) * n)))
    for rows in _row_blocks(n, block):
        old = np.stack([p[rows] for p in powers]).reshape(len(powers), -1)
        for b, coeffs in zip(bs, _T18):
            np.dot(coeffs[1:], old, out=b[rows].reshape(-1))
    for b, coeffs in zip(bs, _T18):
        if coeffs[0]:
            b.reshape(-1)[:: n + 1] += coeffs[0]
    b1, b2, b3, b4 = powers
    del a, a2, a3, powers, bs, old
    _right_multiply(b1, b5)
    b1 += b4  # A9
    del b4, b5
    b3 += b1
    _right_multiply(b3, b1)
    b2 += b3  # T18(A)
    e, spare = b2, b3
    del b1, b2, b3
    for _ in range(s):
        if pinned:
            _pin_trace_row(e, pinned)
        np.matmul(e, e, out=spare)
        e, spare = spare, e
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
    distinct h (the degree-18 Taylor polynomial with scaling and squaring,
    on one copy of tensor.g; when G preserves the trace, the trace row
    t^T E = t^T is pinned at every squaring), and a zero step copies the
    row before. A uniform grid from 0 (t_k = k h to a few ulps of t_max,
    as np.linspace(0, T, N) gives) takes one E and
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
        require_memory(
            lengths.size * 8.0 * n2 * n2,
            f"the exponential of each of {lengths.size} distinct time steps at m={m}",
        )
    gen = tensor.g.copy()
    coords = _hermitian_coordinates(m)
    # E of a trace-preserving G has the trace row t^T; pinning that removes
    # the rounding that would drift tr rho(t) and the stationary mode
    pinned = m if tensor.preserves_trace else 0

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
    (G + e_00 t^T) x = e_00, formed on one copy of tensor.g. A G that does
    not preserve the trace (RedfieldTensor.preserves_trace) has no
    trace-one stationary state and is refused with InvalidParameterError.
    The system is singular exactly when the kernel is not one-dimensional
    (e.g. g = 0, where every population vector is stationary); the steady
    state is then not unique and InvalidParameterError is raised.
    """
    if not tensor.preserves_trace:
        raise InvalidParameterError("steady state needs a generator that preserves the trace")
    m = tensor.m
    n2 = m * m
    # the populations are the last m coordinates; rho_00 is the first of them
    a = tensor.g.copy()
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


@dataclass(frozen=True)
class SecularRates:
    """Population-transfer rates of a stack of retained pairs, each field an array along the stack."""

    w12: np.ndarray
    w21: np.ndarray
    t_rel: np.ndarray
    p_suc: np.ndarray


def _transfer_rates(lam12: np.ndarray, bath: BathSpec, delta: np.ndarray) -> SecularRates:
    """Downward/upward rates 2*pi*Lambda_12*S(+-delta) of pairs given by arrays of one shape.

    This is the one rate formula of the relaxing pair, which both of
    experiments._relax's propagators read. w12 feeds the ground state,
    w21 depletes it; their ratio is the thermal detailed-balance factor
    e^(beta delta), so the fixed point p_suc = w12/(w12 + w21) is the
    Gibbs weight 1/(1 + e^(-beta delta)) (1 at zero temperature), and
    t_rel = 1/(w12 + w21) is the relaxation time of the populations. The
    coherence of a disorder-free pair decays at half their sum,
    1/(2 t_rel). One rate_S call takes every +-delta; the fields have
    delta's shape. Raises InvalidParameterError where delta <= 0, or
    where the rates are zero (a g > 0 whose square underflows).
    """
    if (delta <= 0).any():
        raise InvalidParameterError(f"delta must be positive, got {delta[delta <= 0][0]}")
    rates = 2.0 * math.pi * lam12[..., None] * rate_S(np.stack([delta, -delta], axis=-1), bath)
    w12, w21 = rates[..., 0], rates[..., 1]
    total = w12 + w21
    if (total <= 0).any():
        raise InvalidParameterError(f"the transfer rate at g = {bath.g} is zero; nothing relaxes")
    return SecularRates(w12=w12, w21=w21, t_rel=1.0 / total, p_suc=w12 / total)


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
    """Solution population on the trajectory's time grid."""

    times: np.ndarray
    values: np.ndarray


def solution_population(traj: Trajectory, wrow) -> PopulationSeries:
    """Marked-node population w . rho(t) . w from the retained levels.

    wrow holds <w|k> of each retained level k. The levels outside the
    trajectory are ignored: a reduced pair's bound on what they miss is
    its TwoLevelSystem.truncation_bound.
    """
    wrow = np.asarray(wrow, dtype=float)
    if wrow.shape != (traj.m,):
        raise InvalidParameterError(
            f"overlap row has shape {wrow.shape}, expected ({traj.m},)"
        )
    values = np.real(np.einsum("tab,a,b->t", traj.rhos, wrow, wrow))
    return PopulationSeries(times=traj.times, values=values)


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


def _centred(x: np.ndarray, drop: np.ndarray, count: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """x less its mean over the entries not dropped, row by row, and 0 where dropped; in place.

    Returns x and the row means.
    """
    x[drop] = 0.0
    mean = x.sum(axis=1) / count
    x -= mean[:, None]
    x[drop] = 0.0
    return x, mean


def _decay_times(times, values, targets) -> Tuple[np.ndarray, List[str]]:
    """Exponential-decay time of |values - target| of each row of a (P, N) stack.

    Each row is fitted over its final 60%: through the local maxima of the
    residual (its envelope) when the window has three or more slope sign
    changes (zero steps skipped) and three or more maxima, else through
    every point, zero residuals dropped. The fit is closed-form least
    squares: the slope of log|residual| against t is sum(dt dy) / sum(dt^2),
    dt and dy centred on their means; logs equal but for the rounding of
    their mean (a constant residual) have slope 0. A row ending more than
    5% of its target away, keeping fewer than two points or not decaying
    has no estimate. Returns (t_rel, notes): t_rel is NaN and the note
    gives the reason where a row has no estimate, and "" elsewhere.
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
        dy, level = _centred(np.log(rw, out=rw), drop, count)
        dt, _ = _centred(t[:, i0:].copy(), drop, count)
        slope = (dt * dy).sum(axis=1) / (dt * dt).sum(axis=1)
        # kept logs equal up to the rounding of their mean have slope 0, not
        # the sign that rounding gives it
        slope[np.abs(dy).max(axis=1) <= _FLAT_EPS * np.finfo(float).eps * np.abs(level)] = 0.0
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
