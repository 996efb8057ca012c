"""Exact eigendecomposition and the two-level reduction of the search problem.

The complete-graph Hamiltonian is a diagonal matrix minus a rank-one term,
so its spectrum and the overlaps closed dynamics need come from the
secular equation without building the n x n matrix. The roots are solved
on two levels, as one stack: each sub-block of roots sums its nearest
poles exactly, the rest of its block's window through a power series
formed once per sub-block, and the poles beyond through the block's
series formed once per block. The reduction
projects the problem onto the marked node |w> and the uniform
superposition |s_wbar> over the remaining nodes, at a stack of marked-site
energies. Coupling coefficients derived from either the exact spectrum or
the reduced pairs feed the open-system modules. Large reduced systems are handled without
ever materializing per-site arrays: the unmarked sites share one row of
coefficients, stored once with a multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import ContractViolationError, DenseLimitError, InvalidParameterError, OutOfRegimeError
from .model import DENSE_LIMIT, SearchHamiltonian

_HERMITICITY_TOL = 1e-10

_EPS = np.finfo(float).eps
# roots per secular solver block, and poles on each side of the block's own
# in its window (at least 1); the poles beyond enter by a far-field series
_SECULAR_ROWS = 128
_SECULAR_NEAR = 128
# roots per sub-block, and poles on each side of the sub-block's own that it
# sums exactly (at least 1); the rest of its block's window enters by a
# second series
_SUB_ROWS = 16
_SUB_NEAR = 32
# powers of the series variables formed at a time, per root
_POWER_ROWS = 16
_SECULAR_MAX_ITER = 100


@dataclass(frozen=True)
class Spectrum:
    """Full ascending eigendecomposition with the two lowest gaps."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gap: float
    gap2: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Ties break toward the lowest index (np.argmax); a zero column is kept.
    """
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    factor = np.divide(np.abs(pivots), pivots, out=np.ones_like(pivots), where=pivots != 0)
    v = vectors * factor
    if np.isrealobj(vectors):
        return v
    return v.real if np.allclose(v.imag, 0.0, atol=1e-14) else v


def eigendecompose(h: Union[np.ndarray, SearchHamiltonian]) -> Spectrum:
    """Full dense eigendecomposition with a deterministic phase convention."""
    if isinstance(h, SearchHamiltonian):
        h = h.dense()
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ContractViolationError(f"operator must be square, got shape {h.shape}")
    scale = max(1.0, float(np.linalg.norm(h, ord="fro")))
    if np.linalg.norm(h - h.conj().T, ord="fro") > _HERMITICITY_TOL * scale:
        raise ContractViolationError("operator is not Hermitian within tolerance")
    eigenvalues, eigenvectors = np.linalg.eigh(h)
    eigenvectors = _fix_phases(eigenvectors)
    n = eigenvalues.shape[0]
    gap = float(eigenvalues[1] - eigenvalues[0])
    gap2 = float(eigenvalues[2] - eigenvalues[0]) if n >= 3 else math.nan
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors, gap=gap, gap2=gap2)


@dataclass(frozen=True)
class SecularSpectrum:
    """Spectrum of a complete-graph search Hamiltonian from its secular equation.

    eigenvalues holds all n levels ascending. roots are the levels with a
    nonzero overlap with the uniform state |s>, one per group of tied
    diagonal entries, with w_overlaps = <w|lam> and s_overlaps = <lam|s>.
    The other n - len(roots) levels sit on tied diagonal entries and are
    orthogonal to |s>. roots[0] is the nondegenerate ground state.
    """

    eigenvalues: np.ndarray
    roots: np.ndarray
    w_overlaps: np.ndarray
    s_overlaps: np.ndarray
    gap: float
    gap2: float


def _series_terms(q: float) -> int:
    """Fewest terms that truncate both far-field series below eps/8 at ratio q < 1/2.

    A far pole at distance d from c adds (1/d^2) sum_k (k+1) t^k to psi',
    with t = (mu - c)/d and |t| <= q. Its tail from the P-th power is at
    most q^P ((P+1)(1-q) + q)/(1-q)^2 against a value of at least
    1/(1+q)^2; that bounds the relative tail of psi too.
    """
    terms = np.arange(1, 65)
    tail = q**terms * ((terms + 1) * (1.0 - q) + q) * ((1.0 + q) / (1.0 - q)) ** 2
    return int(terms[np.argmax(tail <= _EPS / 8)])


def _series_coef(y: np.ndarray, side: np.ndarray, rho, terms: int) -> np.ndarray:
    """Far-field coefficients from the scaled poles y (..., P) and their weights side (..., P, 2).

    Column c of side holds the weights of side c (below, above) and zeros
    elsewhere. The moments M_k = sum_j side_jc y_j^(k+1), k = 0..terms, give
    coef (..., terms, 4): the columns of (x^k) @ coef are psi_lo, psi_hi,
    psi'_lo and psi'_hi of those poles at x = (mu - c)/rho.
    """
    powers = np.empty((terms + 1,) + y.shape)  # y^(k+1), a row at a time (np.vander's is slower)
    powers[0] = y
    for i in range(terms):
        np.multiply(powers[i], y, out=powers[i + 1])
    moments = np.moveaxis(powers, 0, -2) @ side
    rho = np.asarray(rho, dtype=float)[..., None, None]
    coef = np.empty(moments.shape[:-2] + (terms, 4))
    coef[..., :2] = moments[..., :-1, :] / rho
    coef[..., 2:] = moments[..., 1:, :] * (np.arange(1, terms + 1)[:, None] / (rho * rho))
    return coef


def _far_field(poles, weights, start: int, stop: int):
    """The poles of the window of roots start..stop-1, and a series for the rest.

    Roots start..stop-1 lie in [poles[start-1], poles[stop-1]], of centre c
    and half-width h. Poles nlo..nhi-1, the block's own and _SECULAR_NEAR
    on each side, form its window. Those below nlo and from nhi on are
    at least rho from c; with y_j = rho/(poles_j - c), their moments
    M_k = sum_j weights_j y_j^(k+1) give, at x = (mu - c)/rho,
    psi = (1/rho) sum_k M_k x^k and psi' = (1/rho^2) sum_k (k+1) M_(k+1) x^k,
    one pair per side (Greengard & Rokhlin 1987). The series converge as
    (h/rho)^k; the ground root's block, and one with h/rho >= 1/2, takes
    every pole into its window. Returns (nlo, nhi, c, rho, coef): the
    columns of (x^k) @ coef are the far parts of psi_lo, psi_hi, psi'_lo,
    psi'_hi.
    """
    k = poles.size
    nlo, nhi = max(start - _SECULAR_NEAR, 0), min(stop + _SECULAR_NEAR, k)
    if start == 0 or (nlo == 0 and nhi == k):
        return 0, k, 0.0, 1.0, np.zeros((0, 4))
    c = 0.5 * (poles[start - 1] + poles[stop - 1])
    rho = min(c - poles[nlo - 1] if nlo else math.inf, poles[nhi] - c if nhi < k else math.inf)
    q = 0.5 * (poles[stop - 1] - poles[start - 1]) / rho
    if q >= 0.5:
        return 0, k, 0.0, 1.0, np.zeros((0, 4))
    y = rho / (np.concatenate([poles[:nlo], poles[nhi:]]) - c)
    side = np.zeros((y.size, 2))
    side[:nlo, 0] = weights[:nlo]
    side[nlo:, 1] = weights[nhi:]
    return nlo, nhi, c, rho, _series_coef(y, side, rho, _series_terms(q))


def _sub_fields(poles, weights, nlo: int, nhi: int, s0: np.ndarray, s1: np.ndarray):
    """The second series of the sub-blocks s0..s1-1 of one block, whose window is nlo..nhi-1.

    Sub-block i sums poles s0_i - _SUB_NEAR .. s0_i + _SUB_ROWS + _SUB_NEAR - 1
    of the window exactly (see _secular_stack). The rest of the window
    enters by a series about the centre c_i of its roots, formed as in
    _far_field with rho_i the distance from c_i to the nearest of those
    poles. A sub-block with h_i/rho_i >= 1/2 is a fallback: it is left to
    the solve that sums every pole. Returns (c, rho, coef, fallback), coef
    (sub-blocks, terms, 4) with as many terms as the block's slowest other
    sub-block needs.
    """
    lo = np.maximum(s0 - _SUB_NEAR, nlo)
    hi = np.minimum(s0 + _SUB_ROWS + _SUB_NEAR, nhi)
    c = 0.5 * (poles[s0 - 1] + poles[s1 - 1])
    below = np.where(lo > nlo, c - poles[lo - 1], math.inf)
    above = np.where(hi < nhi, poles[np.minimum(hi, poles.size - 1)] - c, math.inf)
    rho = np.minimum(below, above)
    q = 0.5 * (poles[s1 - 1] - poles[s0 - 1]) / rho
    fallback = q >= 0.5
    rho[np.isinf(rho)] = 1.0
    index = np.arange(nlo, nhi)
    lower = index < lo[:, None]
    far = (lower | (index >= hi[:, None])) & ~fallback[:, None]
    y = np.divide(rho[:, None], poles[nlo:nhi] - c[:, None], out=np.zeros(far.shape), where=far)
    side = np.zeros(far.shape + (2,))
    side[..., 0] = np.where(far & lower, weights[nlo:nhi], 0.0)
    side[..., 1] = np.where(far & ~lower, weights[nlo:nhi], 0.0)
    terms = _series_terms(float(q[~fallback].max())) if far.any() else 0
    return c, rho, _series_coef(y, side, rho, terms), fallback


def _secular_stack(poles, weights, gamma: float, rows, cols, sqrt_w, below: int, strip: int, series):
    """Roots rows of 1 = gamma * sum_j weights_j / (poles_j - mu), as one stack.

    rows (S, R) holds the root indices of S sub-blocks; root r lies in
    (poles[r-1], poles[r]), root 0 below poles[0]. Sub-block s sums the
    poles cols[s] exactly, at square-root weights sqrt_w[s] (0 pads a
    window): the first `below` lie below each of its roots, the next
    `strip` on either side, the rest above. The other poles come from the
    series in series: each a tuple (c, rho, coef) of (S,), (S,) and
    (S, 4, T) arrays whose product coef @ (x^t), at x = (mu - c)/rho, adds
    the far parts of psi_lo, psi_hi, psi'_lo and psi'_hi. Each root is
    returned as (origin, tau, norm2): the nearer pole's index, the offset
    mu - poles[origin] and sum_j weights_j / (poles_j - mu)^2. Every
    difference poles_j - mu of an exact pole is formed as
    (poles_j - poles[origin]) - tau, without cancellation (LAPACK dlaed4).
    The step solves a model that keeps the two bracketing poles exact and
    fits the remaining terms on each side by one pole with matching value
    and slope (Bunch, Nielsen & Sorensen 1978); a step that leaves the
    bracket is replaced by bisection. Every row is iterated until the last
    converges; a converged row keeps its values.
    """
    lower = rows - 1
    ground = lower < 0
    lo_pole = np.maximum(lower, 0)
    hi_pole = lower + 1
    half = np.where(ground, 0.5 * gamma * weights.sum(), 0.5 * (poles[hi_pole] - poles[lo_pole]))
    # start at the bracket midpoint; the ground root lies in [poles[0] - gamma n, poles[0])
    origin = lo_pole.copy()
    tau = np.where(ground, -half, half)
    lo = np.where(ground, -2.0 * half, 0.0)
    hi = np.where(ground, 0.0, 2.0 * half)
    norm2 = np.zeros(rows.shape)
    near = poles[cols][:, None, :]
    sqrt_col = sqrt_w[:, :, None]
    sqrt_w = sqrt_w[:, None, :]
    split = below + strip
    width = cols.shape[1]
    # the columns go in groups of at most strip: below, the strip, above
    groups = [(a, min(a + strip, below), 0) for a in range(0, below, strip)]
    groups += [(below, split, None)] + [(a, min(a + strip, width), 1) for a in range(split, width, strip)]
    work = np.empty(rows.shape + (strip,))
    strip_hi = np.empty(rows.shape + (strip,))
    table = np.empty((_POWER_ROWS,) + rows.shape)
    active = np.ones(rows.shape, dtype=bool)
    for it in range(_SECULAR_MAX_ITER):
        base = poles[origin]
        d_lo = (poles[lo_pole] - base) - tau
        d_hi = (poles[hi_pole] - base) - tau
        # terms are carried as r_j = sqrt(weights_j) / (poles_j - mu), so that
        # psi = sum_j weights_j / (poles_j - mu) = r . sqrt(weights) and
        # psi' = r . r, one pair per side; in the strip r_j < 0 below mu
        psi = np.zeros((2,) + rows.shape)
        dpsi = np.zeros((2,) + rows.shape)
        for a, b, side in groups:
            r = np.subtract(near[..., a:b], base[..., None], out=work[..., : b - a])
            r -= tau[..., None]
            np.divide(sqrt_w[..., a:b], r, out=r)
            if side is None:
                np.maximum(r, 0.0, out=strip_hi)
                np.minimum(r, 0.0, out=r)
                psi[1] += (strip_hi @ sqrt_col[:, a:b])[..., 0]
                dpsi[1] += np.einsum("srj,srj->sr", strip_hi, strip_hi)
                side = 0
            psi[side] += (r @ sqrt_col[:, a:b])[..., 0]
            dpsi[side] += np.einsum("srj,srj->sr", r, r)
        psi_lo, psi_hi = psi
        dpsi_lo, dpsi_hi = dpsi
        for centre, rho, coef in series:
            x = ((base - centre[:, None]) + tau) / rho[:, None]
            power = np.ones(rows.shape)
            far = np.zeros(coef.shape[:2] + rows.shape[1:])
            for t in range(0, coef.shape[2], _POWER_ROWS):
                piece = table[: min(_POWER_ROWS, coef.shape[2] - t)]
                piece[0] = power
                for i in range(1, piece.shape[0]):
                    np.multiply(piece[i - 1], x, out=piece[i])
                far += coef[:, :, t : t + piece.shape[0]] @ piece.transpose(1, 0, 2)
                power = piece[-1] * x
            psi_lo += far[:, 0]
            psi_hi += far[:, 1]
            dpsi_lo += far[:, 2]
            dpsi_hi += far[:, 3]
        g = 1.0 - gamma * (psi_lo + psi_hi)
        tau_a = tau
        lo_a = np.where(g > 0, tau_a, lo)
        hi_a = np.where(g < 0, tau_a, hi)
        if it == 0:
            # a root in the upper half of its gap is measured from the upper pole
            up = ~ground & (g > 0)
            origin[up] = hi_pole[up]
            tau_a = np.where(up, -half, tau_a)
            lo_a = np.where(up, -half, lo_a)
            hi_a = np.where(up, 0.0, hi_a)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = g + gamma * (np.where(ground, 0.0, d_lo * dpsi_lo) + d_hi * dpsi_hi)
            p = -gamma * d_lo * d_lo * dpsi_lo
            q = -gamma * d_hi * d_hi * dpsi_hi
            # c + p/(d_lo - eta) + q/(d_hi - eta) = 0 as a quadratic in eta
            qb = -(c * (d_lo + d_hi) + p + q)
            qc = d_lo * d_hi * g
            root = np.sqrt(np.maximum(qb * qb - 4.0 * c * qc, 0.0))
            big = -0.5 * (qb + np.copysign(root, qb))
            eta = qc / big
            eta = np.where((eta > d_lo) & (eta < d_hi), eta, big / c)
            eta = np.where(ground, d_hi * g / c, eta)
        step = tau_a + eta
        step = np.where((step > lo_a) & (step < hi_a), step, 0.5 * (lo_a + hi_a))
        # rounding bound on g: the summed terms plus the representation of tau
        noise = _EPS * (
            2.0 + 8.0 * gamma * (psi_hi - psi_lo) + np.abs(tau_a) * gamma * (dpsi_lo + dpsi_hi)
        )
        settled = np.abs(g) <= noise
        done = (
            settled
            | (np.abs(step - tau_a) <= 2.0 * _EPS * np.abs(step))
            | (hi_a - lo_a <= 2.0 * _EPS * np.maximum(np.abs(lo_a), np.abs(hi_a)))
        )
        # a converged step moves tau by ulps, so the norm at this iterate stands
        norm2 = np.where(active, dpsi_lo + dpsi_hi, norm2)
        tau = np.where(active, np.where(settled, tau_a, step), tau)
        lo = np.where(active, lo_a, lo)
        hi = np.where(active, hi_a, hi)
        active &= ~done
        if not active.any():
            return origin, tau, norm2
    raise np.linalg.LinAlgError(
        f"secular iteration left {int(active.sum())} roots unconverged after {_SECULAR_MAX_ITER} steps"
    )


def _stacked(series) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (c, rho, coef) series of many sub-blocks, coef (S, 4, T) zero-padded to the most terms."""
    c, rho, coefs = zip(*series)
    coef = np.zeros((sum(x.shape[0] for x in coefs), 4, max(x.shape[1] for x in coefs)))
    start = 0
    for x in coefs:
        coef[start : start + x.shape[0], :, : x.shape[1]] = x.transpose(0, 2, 1)
        start += x.shape[0]
    return np.concatenate(c), np.concatenate(rho), coef


def _secular_roots(poles, weights, gamma: float):
    """Every root of the secular equation, as (origin, tau, norm2) arrays of _secular_stack.

    The ground pair sums every pole: root 1 lies in the wide gap between
    the marked pole and the band, where a far-field series would not
    converge fast. The other roots come in blocks of _SECULAR_ROWS, each
    with its window and far-field series (_far_field), split into
    sub-blocks of _SUB_ROWS with their second series (_sub_fields). All
    sub-blocks iterate as one stack. A block whose far-field series would
    converge too slowly (its window widened to every pole), and a fallback
    sub-block, join the ground pair in the stacks that sum every pole,
    _SUB_ROWS roots at a time.
    """
    k = poles.size
    bounds = [0, *range(min(2, k), k, _SECULAR_ROWS), k]
    exact, rows, cols, inside, block, sub = [], [], [], [], [], []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        nlo, nhi, c, rho, coef = _far_field(poles, weights, start, stop)
        if start == 0 or nhi - nlo > 2 * _SECULAR_NEAR + _SECULAR_ROWS:
            # the ground pair, or a block whose series would converge too slowly
            exact.append(np.arange(start, stop))
            continue
        s0 = np.arange(start, stop, _SUB_ROWS)
        s1 = np.minimum(s0 + _SUB_ROWS, stop)
        c_s, rho_s, coef_s, fallback = _sub_fields(poles, weights, nlo, nhi, s0, s1)
        exact.extend(np.arange(a, b) for a, b in zip(s0[fallback], s1[fallback]))
        s0, s1 = s0[~fallback], s1[~fallback]
        # a short sub-block repeats its last root
        rows.append(np.minimum(s0[:, None] + np.arange(_SUB_ROWS), s1[:, None] - 1))
        index = s0[:, None] + np.arange(-_SUB_NEAR, _SUB_ROWS + _SUB_NEAR)
        inside.append((index >= nlo) & (index < nhi))
        cols.append(np.clip(index, nlo, nhi - 1))
        block.append((np.full(s0.size, c), np.full(s0.size, rho), np.broadcast_to(coef, s0.shape + coef.shape)))
        sub.append((c_s[~fallback], rho_s[~fallback], coef_s[~fallback]))
    origin = np.empty(k, dtype=np.intp)
    tau = np.empty(k)
    norm2 = np.empty(k)
    exact = np.concatenate(exact)
    every = np.arange(k)[None, :]
    for i in range(0, exact.size, _SUB_ROWS):
        r = exact[None, i : i + _SUB_ROWS]
        out = _secular_stack(poles, weights, gamma, r, every, np.sqrt(weights)[None, :], 0, k, ())
        origin[r], tau[r], norm2[r] = out
    rows = np.concatenate(rows) if rows else np.zeros((0, _SUB_ROWS), dtype=np.intp)
    if rows.size:
        cols = np.concatenate(cols)
        sqrt_w = np.where(np.concatenate(inside), np.sqrt(weights)[cols], 0.0)
        series = (_stacked(block), _stacked(sub))
        out = _secular_stack(poles, weights, gamma, rows, cols, sqrt_w, _SUB_NEAR, _SUB_ROWS, series)
        origin[rows], tau[rows], norm2[rows] = out
    return origin, tau, norm2


def secular_spectrum(h: SearchHamiltonian) -> SecularSpectrum:
    """All levels of a complete-graph Hamiltonian and the overlaps of those |s> reaches.

    H = diag(a) + gamma (I - 11^T), with a the disorder plus the marked
    energy at w. Tied entries of a deflate: a group of k becomes one pole
    of weight k plus k - 1 levels at that entry orthogonal to |s>. Entries
    within 8 eps ||H|| of each other count as tied, a change of H at its
    own rounding level (as in LAPACK dlaed2) that keeps 1/(a_j - mu)^2
    finite. The other levels are lam = mu + gamma over the roots mu of the
    secular equation; their eigenvectors are u_j = 1/(a_j - mu), which gives
    <w|lam> = 1/((a_w - mu)||u||) and <lam|s> = 1/(gamma sqrt(n) ||u||).
    The ground pair sums every pole. The other roots iterate as one stack
    of sub-blocks of _SUB_ROWS roots (_secular_roots): each sums its
    2 _SUB_NEAR + _SUB_ROWS nearest poles exactly, the rest of its block's
    window by its own series and the poles beyond by its block's
    (_far_field), so the work arrays are n roots by 2 _SUB_NEAR + _SUB_ROWS
    poles, never n x n.
    """
    if h.graph.kind != "complete":
        raise InvalidParameterError(f"secular spectrum needs a complete graph, got {h.graph.kind!r}")
    n = h.n
    if n > DENSE_LIMIT:
        raise DenseLimitError(f"n={n} exceeds dense limit {DENSE_LIMIT} for the full spectrum")
    diag = np.zeros(n) if h.disorder is None else np.array(h.disorder.epsilons, dtype=float)
    diag[h.w] += h.marked_energy
    gamma = float(h.gamma)
    order = np.argsort(diag, kind="stable")
    ranked = diag[order]
    tol = 8.0 * _EPS * max(float(np.abs(ranked).max()), gamma * n)
    # bins of width tol, so no chain of close entries merges across a wider span
    first = np.concatenate([[True], np.diff(np.floor((ranked - ranked[0]) / tol)) > 0])
    poles = ranked[first]
    counts = np.diff(np.append(np.flatnonzero(first), n))
    weights = counts.astype(float)
    k = poles.size
    group = np.cumsum(first) - 1  # pole of each ranked entry
    w_pole = poles[group[np.flatnonzero(order == h.w)[0]]]
    origin, tau, norm2 = _secular_roots(poles, weights, gamma)
    base = poles[origin]
    norms = np.sqrt(norm2)
    w_overlaps = 1.0 / (((w_pole - base) - tau) * norms)
    roots = (base + tau) + gamma
    s_overlaps = 1.0 / (gamma * math.sqrt(n) * norms)
    eigenvalues = np.sort(np.concatenate([roots, np.repeat(poles + gamma, counts - 1)]))
    for arr in (eigenvalues, roots, w_overlaps, s_overlaps):
        arr.setflags(write=False)
    return SecularSpectrum(
        eigenvalues=eigenvalues, roots=roots, w_overlaps=w_overlaps, s_overlaps=s_overlaps,
        gap=float(eigenvalues[1] - eigenvalues[0]),
        gap2=float(eigenvalues[2] - eigenvalues[0]) if n >= 3 else math.nan,
    )


@dataclass(frozen=True)
class TwoLevelSystem:
    """Reduced pairs of levels in the {|w>, |s_wbar>} subspace, one per marked-site energy.

    One (n, sigma, policy) at P marked-site energies: each array has a
    leading axis of P points, and a single pair is a stack of one. Row i
    holds eps_w, the splitting delta, the ascending eigenvalues (2,),
    overlaps = (<w|lam1>, <w|lam2>, <s_wbar|lam1>, <s_wbar|lam2>), with the
    same phase convention as eigendecompose.
    """

    n: int
    sigma: Optional[float]
    policy: str
    eps_w: np.ndarray
    delta: np.ndarray
    eigenvalues: np.ndarray
    overlaps: np.ndarray

    @property
    def truncation_bound(self) -> float:
        """Bound on what the two retained levels miss of p_w: 1/(sigma sqrt(n)) with disorder, else 2/n."""
        if self.sigma:
            return 1.0 / (self.sigma * math.sqrt(self.n))
        return 2.0 / self.n


def _s_overlaps(n: int, overlaps: np.ndarray) -> np.ndarray:
    """<lam_1|s> and <lam_2|s> from overlaps (..., 4): a_k/sqrt(n) + b_k sqrt(1 - 1/n)."""
    return overlaps[..., :2] / math.sqrt(n) + overlaps[..., 2:] * math.sqrt(1.0 - 1.0 / n)


def _squares(x: np.ndarray) -> np.ndarray:
    """x**2 by Python's float pow, element by element.

    numpy squares an array by x*x, which differs from pow in the last bit
    for about 1 value in 1200; a numpy scalar squares as Python does.
    """
    return np.array([v**2 for v in x.ravel().tolist()]).reshape(x.shape)


def reduce_two_level(n: int, eps_w, sigma: Optional[float] = None, policy: str = "plain") -> TwoLevelSystem:
    """Reduced 2x2 problems of the complete graph at each marked-site energy of the 1-d array eps_w.

    plain policy: the pair's matrix is [[-1+eps_w, -1/sqrt(n)],
    [-1/sqrt(n), -1]], whose gap is exactly sqrt(eps_w^2 + 4/n). shifted
    policy replaces the off-diagonal and second diagonal by the
    (1-sigma)-scaled hopping, giving gap
    sqrt((sigma-eps_w)^2 + 4(1-sigma)^2/n); it is diagonalized exactly
    rather than to leading order. The pairs are solved as one stack;
    elementwise array operations round as their scalar forms do, and the
    one step whose array form would not, the hypotenuse of each pair's
    eigenvalue split, is taken pair by pair with math.hypot.
    """
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got n={n}")
    if policy not in ("plain", "shifted"):
        raise InvalidParameterError(f"unknown gamma policy {policy!r}")
    eps_w = np.asarray(eps_w, dtype=float)
    if eps_w.ndim != 1:
        raise InvalidParameterError(f"eps_w must be a 1-d array of marked-site energies, got shape {eps_w.shape}")
    if sigma is not None:
        if sigma < 0:
            raise InvalidParameterError(f"sigma must be nonnegative, got {sigma}")
        if sigma >= 1:
            raise OutOfRegimeError(f"sigma={sigma} >= 1 is outside the sigma << 1 regime")
        wide = np.abs(eps_w) > sigma
        if wide.any():
            raise InvalidParameterError(
                f"|eps_w|={abs(float(eps_w[wide][0]))} exceeds the disorder half-width sigma={sigma}"
            )
    if policy == "shifted":
        if sigma is None:
            raise InvalidParameterError("shifted policy requires sigma")
        c = 1.0 - sigma
    else:
        c = 1.0
    points = eps_w.size
    v = -c / math.sqrt(n)
    d1 = -1.0 + eps_w
    d2 = -c
    # eigenpairs of [[d1, v], [v, d2]], eigenvalues ascending
    mean = 0.5 * (d1 + d2)
    half = 0.5 * (d1 - d2)
    r = np.array([math.hypot(x, v) for x in half.tolist()])
    eigenvalues = np.empty((points, 2))
    lam1 = np.subtract(mean, r, out=eigenvalues[:, 0])
    lam2 = np.add(mean, r, out=eigenvalues[:, 1])
    # the better-conditioned null-space expression of each pair
    x1, x2 = lam1 - d1, lam1 - d2
    first = np.abs(x1) >= np.abs(x2)
    e1 = np.empty((points, 2))
    e1[:, 0] = np.where(first, v, x2)
    e1[:, 1] = np.where(first, x1, v)
    # each row's norm is the dot product that np.linalg.norm takes, by
    # matmul's BLAS call per row; a zero row becomes (1, 0)
    norm = np.sqrt(e1[:, None, :] @ e1[:, :, None])[:, 0]
    zero = norm[:, 0] == 0.0
    np.divide(e1, norm, out=e1, where=~zero[:, None])
    e1[zero] = (1.0, 0.0)
    # the eigenvectors are the columns of the (2, P) views, phased as eigendecompose's
    e1 = _fix_phases(e1.T).T
    e2 = np.empty((points, 2))
    np.negative(e1[:, 1], out=e2[:, 0])
    e2[:, 1] = e1[:, 0]
    e2 = _fix_phases(e2.T).T
    overlaps = np.empty((points, 4))
    overlaps[:, 0::2] = e1
    overlaps[:, 1::2] = e2
    delta = eigenvalues[:, 1] - eigenvalues[:, 0]
    for arr in (delta, eigenvalues, overlaps):
        arr.setflags(write=False)
    return TwoLevelSystem(
        n=n, sigma=sigma, policy=policy, eps_w=eps_w, delta=delta, eigenvalues=eigenvalues, overlaps=overlaps,
    )


@dataclass(frozen=True)
class CouplingCoefficients:
    """Node-basis coefficients of the retained eigenvectors, in compact form.

    rows (sites x m levels) holds the distinct coefficient rows, counts their
    site multiplicities; every site-summed product needed downstream is
    an exact weighted sum over the distinct rows, so reduced systems with
    n ~ 1e6 never allocate per-site storage. assemble_redfield forms its
    sums from them; a reduced pair's one transfer-rate sum, Lambda_12,
    comes from _pair_coefficients.
    """

    rows: np.ndarray
    counts: np.ndarray


def _pair_coefficients(n: int, overlaps: np.ndarray):
    """The coupling coefficients of a stack of reduced pairs from their overlaps (P, 4).

    The marked node carries (a1, a2) and each of the n-1 remaining nodes
    (b1, b2)/sqrt(n-1). Returns (rows, counts, lambda12): rows (P, 2, 2)
    and the counts (2,) that every pair shares, row i of rows with counts
    being the fields of pair i's CouplingCoefficients, and lambda12 (P,),
    Lambda_12 = sum_j c_j1^2 c_j2^2, the site sum behind the pair's
    transfer rates (redfield._transfer_rates). It is the off-diagonal
    entry of each pair's 2x2 product of squared rows, by matmul's per-pair
    BLAS calls, so each pair rounds as a stack of one.
    """
    scale = 1.0 / math.sqrt(n - 1)
    rows = np.empty((overlaps.shape[0], 2, 2))
    rows[:, 0] = overlaps[:, :2]
    np.multiply(overlaps[:, 2:], scale, out=rows[:, 1])
    counts = np.array([1.0, float(n - 1)])
    sq = rows**2
    weighted_sq = counts[:, None] * sq
    lambda12 = (np.swapaxes(weighted_sq, 1, 2) @ sq)[:, 0, 1]
    for arr in (rows, counts):
        arr.setflags(write=False)
    return rows, counts, lambda12


def coupling_coefficients(source: Spectrum, retained: int) -> CouplingCoefficients:
    """Coefficients of all n levels of a Spectrum over its n sites: its eigenvectors, each site once.

    retained must be n. A reduced pair's coefficients come from
    _pair_coefficients.
    """
    n = source.n
    if retained != n:
        raise InvalidParameterError(f"retained must be n={n}, got {retained}")
    rows = np.asarray(source.eigenvectors, dtype=float)
    counts = np.ones(n)
    rows.setflags(write=False)
    counts.setflags(write=False)
    return CouplingCoefficients(rows=rows, counts=counts)
