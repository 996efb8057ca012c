"""Exact eigendecomposition and the two-level reduction of the search problem.

The complete-graph Hamiltonian is a diagonal matrix minus a rank-one term,
so its spectrum and the overlaps closed dynamics need come from the
secular equation without building the n x n matrix; each block of roots
sums its nearby poles exactly and the far ones through a power series
formed once per block. The reduction
projects the problem onto the marked node |w> and the uniform
superposition |s_wbar> over the remaining nodes. Coupling
coefficients derived from either the exact spectrum or the reduced pair
feed the open-system modules. Large reduced systems are handled without
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
# that it sums exactly (at least 1); the rest enter by a far-field series
_SECULAR_ROWS = 128
_SECULAR_NEAR = 128
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
    """Fewest terms that truncate both far-field series below eps/8 at ratio q < 1.

    A far pole at distance d from c adds (1/d^2) sum_k (k+1) t^k to psi',
    with t = (mu - c)/d and |t| <= q. Its tail from the P-th power is at
    most q^P ((P+1)(1-q) + q)/(1-q)^2 against a value of at least
    1/(1+q)^2; that bounds the relative tail of psi too.
    """
    terms = 1
    while q**terms * ((terms + 1) * (1.0 - q) + q) * ((1.0 + q) / (1.0 - q)) ** 2 > _EPS / 8:
        terms += 1
    return terms


def _far_field(poles, weights, start: int, stop: int):
    """The poles summed exactly for roots start..stop-1, and a series for the rest.

    Roots start..stop-1 lie in [poles[start-1], poles[stop-1]], of centre c
    and half-width h. Poles nlo..nhi-1, the block's own and _SECULAR_NEAR
    on each side, are summed exactly. Those below nlo and from nhi on are
    at least rho from c; with y_j = rho/(poles_j - c), their moments
    M_k = sum_j weights_j y_j^(k+1) give, at x = (mu - c)/rho,
    psi = (1/rho) sum_k M_k x^k and psi' = (1/rho^2) sum_k (k+1) M_(k+1) x^k,
    one pair per side (Greengard & Rokhlin 1987). The series converge as
    (h/rho)^k; the ground root's block, and one with h/rho >= 1/2, keeps
    every pole near. Returns (nlo, nhi, c, rho, coef): the columns of
    (x^k) @ coef are the far parts of psi_lo, psi_hi, psi'_lo, psi'_hi.
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
    terms = _series_terms(q)
    y = rho / (np.concatenate([poles[:nlo], poles[nhi:]]) - c)
    side = np.zeros((y.size, 2))
    side[:nlo, 0] = weights[:nlo]
    side[nlo:, 1] = weights[nhi:]
    powers = np.empty((terms + 1, y.size))  # y^(k+1), a row at a time (np.vander's is slower)
    powers[0] = y
    for i in range(terms):
        np.multiply(powers[i], y, out=powers[i + 1])
    moments = powers @ side
    coef = np.empty((terms, 4))
    coef[:, :2] = moments[:-1] / rho
    coef[:, 2:] = moments[1:] * (np.arange(1, terms + 1)[:, None] / (rho * rho))
    return nlo, nhi, c, rho, coef


def _secular_block(poles, weights, gamma: float, start: int, stop: int):
    """Roots start..stop-1 of 1 = gamma * sum_j weights_j / (poles_j - mu).

    Root r lies in (poles[r-1], poles[r]), root 0 below poles[0]. Each is
    returned as (origin, tau, norm2): the nearer pole's index, the offset
    mu - poles[origin] and sum_j weights_j / (poles_j - mu)^2. Every
    difference poles_j - mu of a near pole (see _far_field) is formed as
    (poles_j - poles[origin]) - tau, without cancellation (LAPACK dlaed4);
    the far poles add their series. The step solves a model that keeps the
    two bracketing poles exact and fits the remaining terms on each side
    by one pole with matching value and slope (Bunch, Nielsen & Sorensen
    1978); a step that leaves the bracket is replaced by bisection.
    """
    nlo, nhi, centre, rho, coef = _far_field(poles, weights, start, stop)
    lower = np.arange(start, stop) - 1  # pole below each root; -1 for the ground root
    ground = lower < 0
    lo_pole = np.maximum(lower, 0)
    hi_pole = lower + 1
    half = np.where(ground, 0.5 * gamma * weights.sum(), 0.5 * (poles[hi_pole] - poles[lo_pole]))
    # start at the bracket midpoint; the ground root lies in [poles[0] - gamma n, poles[0])
    origin = lo_pole.copy()
    tau = np.where(ground, -half, half)
    lo = np.where(ground, -2.0 * half, 0.0)
    hi = np.where(ground, 0.0, 2.0 * half)
    norm2 = np.empty(stop - start)
    # near poles before start lie below every root of the block, from stop on above
    near = poles[nlo:nhi]
    strip = np.arange(start, stop)
    # terms are carried as r_j = sqrt(weights_j) / (poles_j - mu), so that
    # psi = sum_j weights_j / (poles_j - mu) = r . sqrt(weights) and psi' = r . r
    sqrt_w = np.sqrt(weights[nlo:nhi])
    s0, s1 = start - nlo, stop - nlo
    w_lo, w_strip, w_hi = sqrt_w[:s0], sqrt_w[s0:s1], sqrt_w[s1:]
    work = np.empty((stop - start, nhi - nlo))
    active = np.arange(stop - start)
    for it in range(_SECULAR_MAX_ITER):
        a = active
        rows = np.arange(a.size)
        delta = np.subtract(near, poles[origin[a], None], out=work[: a.size])
        delta -= tau[a, None]
        d_lo = delta[rows, lo_pole[a] - nlo]
        d_hi = delta[rows, hi_pole[a] - nlo]
        r = np.divide(sqrt_w, delta, out=delta)
        r_lo, r_hi = r[:, :s0], r[:, s1:]
        below = strip < lower[a, None] + 1
        strip_lo = np.where(below, r[:, s0:s1], 0.0)
        strip_hi = np.where(below, 0.0, r[:, s0:s1])
        x = ((poles[origin[a]] - centre) + tau[a]) / rho
        far = np.vander(x, coef.shape[0], increasing=True) @ coef
        psi_lo = r_lo @ w_lo + strip_lo @ w_strip + far[:, 0]
        psi_hi = r_hi @ w_hi + strip_hi @ w_strip + far[:, 1]
        dpsi_lo = np.einsum("ij,ij->i", r_lo, r_lo) + np.einsum("ij,ij->i", strip_lo, strip_lo)
        dpsi_hi = np.einsum("ij,ij->i", r_hi, r_hi) + np.einsum("ij,ij->i", strip_hi, strip_hi)
        dpsi_lo += far[:, 2]
        dpsi_hi += far[:, 3]
        g = 1.0 - gamma * (psi_lo + psi_hi)
        tau_a = tau[a]
        lo_a = np.where(g > 0, tau_a, lo[a])
        hi_a = np.where(g < 0, tau_a, hi[a])
        if it == 0:
            # a root in the upper half of its gap is measured from the upper pole
            up = ~ground & (g > 0)
            origin[up] = hi_pole[up]
            tau_a = np.where(up, -half, tau_a)
            lo_a = np.where(up, -half, lo_a)
            hi_a = np.where(up, 0.0, hi_a)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = g + gamma * (np.where(ground[a], 0.0, d_lo * dpsi_lo) + d_hi * dpsi_hi)
            p = -gamma * d_lo * d_lo * dpsi_lo
            q = -gamma * d_hi * d_hi * dpsi_hi
            # c + p/(d_lo - eta) + q/(d_hi - eta) = 0 as a quadratic in eta
            qb = -(c * (d_lo + d_hi) + p + q)
            qc = d_lo * d_hi * g
            root = np.sqrt(np.maximum(qb * qb - 4.0 * c * qc, 0.0))
            big = -0.5 * (qb + np.copysign(root, qb))
            eta = qc / big
            eta = np.where((eta > d_lo) & (eta < d_hi), eta, big / c)
            eta = np.where(ground[a], d_hi * g / c, eta)
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
        norm2[a] = dpsi_lo + dpsi_hi
        tau[a] = np.where(settled, tau_a, step)
        lo[a], hi[a] = lo_a, hi_a
        active = a[~done]
        if active.size == 0:
            return origin, tau, norm2
    raise np.linalg.LinAlgError(
        f"secular iteration left {active.size} roots unconverged after {_SECULAR_MAX_ITER} steps"
    )


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
    Roots are solved _SECULAR_ROWS at a time after the ground pair, which
    is solved on its own. Each iteration sums the poles
    near the block exactly and the rest by their far-field series
    (_far_field), so the work arrays are a block of roots by its near
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
    roots = np.empty(k)
    w_overlaps = np.empty(k)
    norms = np.empty(k)
    # the ground pair is a block of its own: root 1 lies in the wide gap
    # between the marked pole and the band, where the far-field series
    # would not converge fast, so a block holding it sums all n poles
    bounds = [0, *range(min(2, k), k, _SECULAR_ROWS), k]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        origin, tau, norm2 = _secular_block(poles, weights, gamma, start, stop)
        base = poles[origin]
        norms[start:stop] = np.sqrt(norm2)
        w_overlaps[start:stop] = 1.0 / (((w_pole - base) - tau) * norms[start:stop])
        roots[start:stop] = (base + tau) + gamma
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
    """Reduced pair of levels in the {|w>, |s_wbar>} subspace.

    overlaps = (<w|lam1>, <w|lam2>, <s_wbar|lam1>, <s_wbar|lam2>), with the
    same phase convention as eigendecompose.
    """

    n: int
    eps_w: float
    sigma: Optional[float]
    policy: str
    delta: float
    eigenvalues: np.ndarray
    overlaps: Tuple[float, float, float, float]
    h_red: np.ndarray

    @property
    def a1(self) -> float:
        return self.overlaps[0]

    @property
    def a2(self) -> float:
        return self.overlaps[1]

    @property
    def b1(self) -> float:
        return self.overlaps[2]

    @property
    def b2(self) -> float:
        return self.overlaps[3]

    def s_overlap(self, k: int) -> float:
        """Exact overlap <lam_k|s> with the uniform state over all n nodes."""
        if k not in (1, 2):
            raise InvalidParameterError(f"level index must be 1 or 2, got {k}")
        return float(_s_overlaps(self.n, np.array(self.overlaps))[k - 1])

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "eps_w": self.eps_w,
            "sigma": self.sigma,
            "policy": self.policy,
            "delta": self.delta,
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "overlaps": [float(x) for x in self.overlaps],
        }


def _s_overlaps(n: int, overlaps: np.ndarray) -> np.ndarray:
    """<lam_1|s> and <lam_2|s> from overlaps (..., 4): a_k/sqrt(n) + b_k sqrt(1 - 1/n)."""
    return overlaps[..., :2] / math.sqrt(n) + overlaps[..., 2:] * math.sqrt(1.0 - 1.0 / n)


@dataclass(frozen=True)
class _Pairs:
    """The reduced pairs of one (n, sigma, policy) at P marked-site energies.

    Each array has a leading axis of P points; row i holds the fields of
    reduce_two_level(n, eps_w[i], sigma, policy), bit for bit.
    """

    n: int
    sigma: Optional[float]
    policy: str
    eps_w: np.ndarray
    delta: np.ndarray
    eigenvalues: np.ndarray
    overlaps: np.ndarray
    h_red: np.ndarray

    def __len__(self) -> int:
        return self.eps_w.size

    def pair(self, i: int) -> TwoLevelSystem:
        return TwoLevelSystem(
            n=int(self.n),
            eps_w=float(self.eps_w[i]),
            sigma=None if self.sigma is None else float(self.sigma),
            policy=self.policy,
            delta=float(self.delta[i]),
            eigenvalues=self.eigenvalues[i],
            overlaps=tuple(self.overlaps[i].tolist()),
            h_red=self.h_red[i],
        )


def _positive_pivot(e: np.ndarray) -> np.ndarray:
    """Negate, in place, each row of e (P, 2) whose entry of larger magnitude is negative (ties: the first)."""
    a, b = e[:, 0], e[:, 1]
    flip = np.where(np.abs(a) >= np.abs(b), a, b) < 0
    return np.negative(e, out=e, where=flip[:, None])


def _reduce_pairs(n: int, eps_w: np.ndarray, sigma: Optional[float] = None, policy: str = "plain") -> _Pairs:
    """reduce_two_level at each marked-site energy of the array eps_w, as one stack.

    Elementwise array operations round as their scalar forms do; the one
    step whose array form would not, the hypotenuse of each pair's
    eigenvalue split, is taken pair by pair with math.hypot.
    """
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got n={n}")
    if policy not in ("plain", "shifted"):
        raise InvalidParameterError(f"unknown gamma policy {policy!r}")
    eps_w = np.asarray(eps_w, dtype=float)
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
    _positive_pivot(e1)
    e2 = np.empty((points, 2))
    np.negative(e1[:, 1], out=e2[:, 0])
    e2[:, 1] = e1[:, 0]
    _positive_pivot(e2)
    overlaps = np.empty((points, 4))
    overlaps[:, 0::2] = e1
    overlaps[:, 1::2] = e2
    h_red = np.empty((points, 2, 2))
    h_red[:, 0, 0] = d1
    h_red[:, 0, 1] = h_red[:, 1, 0] = v
    h_red[:, 1, 1] = d2
    for arr in (eigenvalues, h_red):
        arr.setflags(write=False)
    return _Pairs(
        n=n, sigma=sigma, policy=policy, eps_w=eps_w, delta=eigenvalues[:, 1] - eigenvalues[:, 0],
        eigenvalues=eigenvalues, overlaps=overlaps, h_red=h_red,
    )


def reduce_two_level(
    n: int,
    eps_w: float,
    sigma: Optional[float] = None,
    policy: str = "plain",
) -> TwoLevelSystem:
    """Reduced 2x2 problem for the complete graph with disorder only at w.

    plain policy: h_red = [[-1+eps_w, -1/sqrt(n)], [-1/sqrt(n), -1]], whose
    gap is exactly sqrt(eps_w^2 + 4/n). shifted policy replaces the
    off-diagonal and second diagonal by the (1-sigma)-scaled hopping,
    giving gap sqrt((sigma-eps_w)^2 + 4(1-sigma)^2/n); it is diagonalized
    exactly rather than to leading order.
    """
    return _reduce_pairs(n, np.array([eps_w], dtype=float), sigma, policy).pair(0)


@dataclass(frozen=True)
class CouplingCoefficients:
    """Node-basis coefficients of the retained eigenvectors, in compact form.

    rows holds the distinct coefficient rows, counts their site
    multiplicities; every site-summed product needed downstream is an
    exact weighted sum over the distinct rows, so reduced systems with
    n ~ 1e6 never allocate per-site storage. lambda_kl = sum_j c_jk^2 c_jl^2
    feeds the secular rates and o1 = sum_j c_j1^2 c_j2^2 the coherence
    damping rate.
    """

    n: int
    m: int
    rows: np.ndarray
    counts: np.ndarray
    lambda_kl: np.ndarray
    o1: float


def _pair_coefficients(n: int, overlaps: np.ndarray):
    """coupling_coefficients of a stack of reduced pairs from their overlaps (P, 4).

    Returns (rows, counts, lambda_kl, o1): rows (P, 2, 2), the counts (2,)
    that every pair shares, lambda_kl (P, 2, 2) and o1 (P,). The site sums
    are matmul's per-pair BLAS calls, so each pair rounds as a stack of one.
    """
    scale = 1.0 / math.sqrt(n - 1)
    rows = np.empty((overlaps.shape[0], 2, 2))
    rows[:, 0] = overlaps[:, :2]
    np.multiply(overlaps[:, 2:], scale, out=rows[:, 1])
    counts = np.array([1.0, float(n - 1)])
    sq = rows**2
    weighted_sq = counts[:, None] * sq
    lambda_kl = np.swapaxes(weighted_sq, 1, 2) @ sq
    o1 = (((rows[:, :, 0] * rows[:, :, 1]) ** 2)[:, None, :] @ counts)[:, 0]
    for arr in (rows, counts, lambda_kl):
        arr.setflags(write=False)
    return rows, counts, lambda_kl, o1


def coupling_coefficients(
    source: Union[Spectrum, TwoLevelSystem],
    retained: int,
) -> CouplingCoefficients:
    """Coefficients of the retained levels over the n sites.

    From a TwoLevelSystem, retained must be 2: the marked node carries
    (a1, a2) and each of the n-1 remaining nodes carries (b1, b2)/sqrt(n-1).
    From a Spectrum, retained may be 2 (two lowest levels) or n (all).
    """
    if isinstance(source, TwoLevelSystem):
        if retained != 2:
            raise InvalidParameterError(
                f"a reduced system provides exactly 2 retained levels, got {retained}"
            )
        rows, counts, lambda_kl, o1 = _pair_coefficients(source.n, np.array([source.overlaps]))
        return CouplingCoefficients(
            n=int(source.n), m=2, rows=rows[0], counts=counts, lambda_kl=lambda_kl[0], o1=float(o1[0]),
        )
    elif isinstance(source, Spectrum):
        n = source.n
        if retained == n:
            rows = np.asarray(source.eigenvectors, dtype=float)
        elif retained == 2:
            rows = np.asarray(source.eigenvectors[:, :2], dtype=float)
        else:
            raise InvalidParameterError(
                f"retained must be 2 or n={n}, got {retained}"
            )
        counts = np.ones(n)
    else:
        raise InvalidParameterError(
            f"source must be a Spectrum or TwoLevelSystem, got {type(source).__name__}"
        )
    sq = rows**2
    weighted_sq = counts[:, None] * sq
    lambda_kl = weighted_sq.T @ sq
    o1 = float(np.dot(counts, (rows[:, 0] * rows[:, 1]) ** 2))
    lambda_kl.setflags(write=False)
    rows.setflags(write=False)
    counts.setflags(write=False)
    return CouplingCoefficients(
        n=int(n), m=int(rows.shape[1]), rows=rows, counts=counts,
        lambda_kl=lambda_kl, o1=o1,
    )
