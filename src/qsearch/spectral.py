"""Exact eigendecomposition and the two-level reduction of the search problem.

The complete-graph Hamiltonian is a diagonal matrix minus a rank-one term,
so its spectrum and the overlaps closed dynamics need come from the
secular equation without building the n x n matrix. The roots are solved
as one stack of leaves: each leaf of roots sums its nearest poles
exactly and every other pole through one power series, which a
one-dimensional multipole tree over the poles forms for all leaves in
O(n). The reduction
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
from typing import Optional, Union

import numpy as np

from .errors import ContractViolationError, DenseLimitError, InvalidParameterError, OutOfRegimeError
from .model import DENSE_LIMIT, SearchHamiltonian

_HERMITICITY_TOL = 1e-10

_EPS = np.finfo(float).eps
# roots per leaf of the multipole tree, and poles on each side of the
# leaf's own that it sums exactly (at least 1); the rest enter by its series
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


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """x^0 .. x^(count-1) of every entry of x, along a new leading axis: (count,) + x.shape."""
    out = np.empty((count,) + x.shape)
    out[0] = 1.0
    for m in range(1, count):
        np.multiply(out[m - 1], x, out=out[m])
    return out


def _power_sums(y: np.ndarray, w: np.ndarray, count: int) -> np.ndarray:
    """sum_j w_j y_j^m over the last axis of y and w (n, P), for m = 0..count-1: (n, count)."""
    return np.einsum("mnp,np->nm", _powers(y, count), w)


def _convert(moments: np.ndarray, r: np.ndarray, h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """M2L: the series of P pole spans from their moments (P, N).

    Span p has radius r_p and centre d_p above the series' centre, and its
    moments are M_m = sum_j weights_j y_j^m at y_j = (poles_j - its
    centre)/r_p. At x = (mu - series' centre)/h_p, sum_j weights_j /
    (poles_j - mu) = (1/d) sum_j weights_j / (1 + a y_j - b x), with
    a = r/d and b = h/d, so the coefficient of x^k is
    (b^k/d) sum_m C(k+m, m) (-a)^m M_m.
    """
    count = moments.shape[1]
    fact = np.concatenate([[1.0], np.cumprod(np.arange(1.0, 2 * count - 1))])
    k = np.arange(count)
    binom = np.round(fact[k[:, None] + k] / np.outer(fact[:count], fact[:count]))  # C(k+m, m)
    a, b = _powers(np.stack([-r / d, h / d]), count).transpose(1, 2, 0)
    # in products of at most 2^18 multiply-adds, which OpenBLAS keeps on one
    # thread: waking a second one costs more than the product
    block = max(1, 2**18 // count**2)
    out = np.concatenate([x @ binom for x in np.split(moments * a, range(block, d.size, block))])
    out *= b / d[:, None]
    return out


def _scatter(rows: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """The rows of values (P, N) summed by their index in rows (P,) into size rows: (size, N)."""
    count = values.shape[1]
    sums = np.bincount((rows[:, None] * count + np.arange(count)).ravel(), values.ravel(), size * count)
    return sums.astype(float, copy=False).reshape(size, count)  # (no rows give integer zeros)


def _substitute(x: np.ndarray, table: np.ndarray, scaled: np.ndarray, fact: np.ndarray, moments: bool) -> np.ndarray:
    """Re-expand the rows x (n, ..., N) of n nodes in a variable u = t v + s.

    table and scaled (n, N) hold s^i/i! and t^i/i!, and fact (N,) i!.
    moments: x holds M_i = sum_j w_j v_j^i, and the result the moments of u,
    m! sum_i (s^(m-i)/(m-i)!) (t^i/i!) M_i (M2M). Otherwise x holds a
    polynomial sum_k x_k u^k, and the result its coefficients in v,
    (t^j/j!) sum_i (s^i/i!) (j+i)! x_(j+i) (L2L). With |s| + |t| <= 1
    neither grows. Both sums run over a sliding window of the zero-padded
    row, so no n x N x N matrix is formed.
    """
    count = x.shape[-1]
    scaled = scaled.reshape(scaled.shape[:1] + (1,) * (x.ndim - 2) + scaled.shape[1:])
    padded = np.zeros(x.shape[:-1] + (2 * count - 1,))
    if moments:
        padded[..., count - 1 :] = x * scaled
        window = np.lib.stride_tricks.sliding_window_view(padded, count, axis=-1)  # [m, i] = x_(m+i-N+1)
        return fact * np.einsum("n...mi,ni->n...m", window, table[:, ::-1])
    padded[..., :count] = x * fact
    window = np.lib.stride_tricks.sliding_window_view(padded, count, axis=-1)  # [j, i] = x_(j+i)
    return scaled * np.einsum("n...ji,ni->n...j", window, table)


def _local_series(poles, weights):
    """One local series per leaf of _SUB_ROWS roots, from a multipole tree over the poles.

    Leaf i holds roots first_i..stop_i-1, which lie in [poles[first_i-1],
    poles[stop_i-1]], of centre c and half-width h, and sums the poles
    first_i - _SUB_NEAR .. stop_i + _SUB_NEAR - 1 exactly (its window; see
    _secular_stack). Every other pole enters, as psi = sum_j weights_j /
    (poles_j - mu) and its derivative, through coef (leaves, 4, terms):
    the columns of coef @ (x^t), at x = (mu - c)/h, are psi_lo, psi_hi,
    psi'_lo and psi'_hi of those poles, one pair per side of the window.
    The series converges as (h/rho)^t, rho the distance from c to the
    nearest of those poles; a leaf with h/rho >= 1/2 is a fallback, left to
    the solve that sums every pole. The others take as many terms as
    _series_terms gives at their worst h/rho.

    The fast multipole method (Greengard & Rokhlin 1987; for the secular
    equation Gu & Eisenstat 1995) forms the series in O(k). The poles from
    2 on are cut into the same leaves, paired up a binary tree. Each node
    holds the moments sum_j weights_j y_j^m of its poles, y_j = (poles_j -
    c_s)/r_s about the centre c_s of their span, shifted up from its
    children (M2M). A node pair (T, S) converts S's moments into a series
    about the centre c_T of T's roots (M2L, _convert). At D = c_s - c_T, its
    truncations in m and k converge as r_s/(|D| - h_T) and h_T/(|D| - r_s);
    the larger is the pair's ratio. A pair is converted
    when S lies wholly outside the windows of T's leaves, on one side of
    all of them, and its ratio is at most the worst leaf's h/rho (so below
    1/2); otherwise it is opened to its children. The series shift down to
    the leaves (L2L). A leaf sums directly, as y_j = h/(poles_j - c) with
    coefficients (1/h) sum_j weights_j y_j^(k+1), the source leaves it
    could not convert, their poles outside a window they overlap, and
    poles 0 and 1: the marked pole sits about 1 below the band and would
    widen any band node it joined. Returns (first, c, h, coef, fallback)
    over the leaves.
    """
    k = poles.size
    first = np.arange(2, k, _SUB_ROWS)
    stop = np.minimum(first + _SUB_ROWS, k)
    leaves = first.size
    # level l of the tree holds nodes off[l]..off[l+1]-1, node i of it leaves i 2^l..(i+1) 2^l - 1
    sizes = [leaves]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    off = np.cumsum([0] + sizes)
    node_first = np.concatenate([first[:: 2**l] for l in range(len(sizes))])
    node_stop = np.concatenate([stop[np.minimum(np.arange(1, m + 1) << l, leaves) - 1] for l, m in enumerate(sizes)])
    # each node's span of poles (centre, radius), of roots (centre, half-width), and window
    src_c = 0.5 * (poles[node_first] + poles[node_stop - 1])
    src_r = 0.5 * (poles[node_stop - 1] - poles[node_first])
    c = 0.5 * (poles[node_first - 1] + poles[node_stop - 1])
    h = 0.5 * (poles[node_stop - 1] - poles[node_first - 1])
    lo = np.maximum(node_first - _SUB_NEAR, 0)
    hi = np.minimum(node_stop + _SUB_NEAR, k)
    below = np.where(lo[:leaves] > 0, c[:leaves] - poles[np.maximum(lo[:leaves] - 1, 0)], math.inf)
    above = np.where(hi[:leaves] < k, poles[np.minimum(hi[:leaves], k - 1)] - c[:leaves], math.inf)
    ratio = h[:leaves] / np.minimum(below, above)
    fallback = ratio >= 0.5
    worst = float(ratio[~fallback].max(initial=0.0))
    terms = _series_terms(worst) if worst > 0 else 0
    if not terms:
        return first, c[:leaves], h[:leaves], np.zeros((leaves, 4, 0)), fallback
    # dual traversal from the root pair: convert, open, or leave to the leaves
    converted = [None] * len(sizes)
    t = s = off[-2:-1]
    for level in reversed(range(len(sizes))):
        up = node_first[s] >= hi[t]
        far = up | (node_stop[s] <= lo[t])
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.maximum(src_r[s], h[t]) / (np.abs(src_c[s] - c[t]) - np.minimum(src_r[s], h[t]))
        ok = far & (q <= worst)
        if not level:
            ok &= ~fallback[t]
        converted[level] = (t[ok], s[ok], up[ok])
        t, s = t[~ok], s[~ok]
        if level:
            t = (off[level - 1] + 2 * (t - off[level])[:, None] + np.array([0, 0, 1, 1])).ravel()
            s = (off[level - 1] + 2 * (s - off[level])[:, None] + np.array([0, 1, 0, 1])).ravel()
            inside = (t < off[level]) & (s < off[level])
            t, s = t[inside], s[inside]
    # moments up the tree
    count = terms + 1
    cols = first[:, None] + np.arange(_SUB_ROWS)
    inside = cols < stop[:, None]
    cols = np.minimum(cols, k - 1)
    r = src_r[:leaves, None]
    y = np.divide(poles[cols] - src_c[:leaves, None], r, out=np.zeros(cols.shape), where=inside & (r > 0))
    moments = np.empty((off[-1], count))
    moments[:leaves] = _power_sums(y, np.where(inside, weights[cols], 0.0), count)
    # every node below the top in its parent's variables: s^i/i! and t^i/i!
    # of its span of poles (the moments) and of roots (the series)
    depth = np.repeat(np.arange(len(sizes) - 1), sizes[:-1])
    parent = off[depth + 1] + (np.arange(off[-2]) - off[depth]) // 2
    r = src_r[parent]
    shifts = np.stack([
        np.divide(src_c[: off[-2]] - src_c[parent], r, out=np.zeros(parent.size), where=r > 0),
        np.divide(src_r[: off[-2]], r, out=np.ones(parent.size), where=r > 0),
        (c[: off[-2]] - c[parent]) / h[parent],
        h[: off[-2]] / h[parent],
    ])
    fact = np.concatenate([[1.0], np.cumprod(np.arange(1.0, count))])
    shifts = (_powers(shifts, count) / fact[:, None, None]).transpose(1, 2, 0)
    # nothing is converted above level top, so no series is shifted from there
    top = max((level for level, pairs in enumerate(converted) if pairs[0].size), default=0)
    for level in range(1, top + 1):
        child = slice(off[level - 1], off[level])
        moved = _substitute(moments[child], shifts[0, child], shifts[1, child], fact, True)
        moments[off[level] : off[level + 1]] = np.add.reduceat(moved, np.arange(0, sizes[level - 1], 2), axis=0)
    # the converted pairs, and what the leaves sum directly: the parts of
    # source leaves outside a window they overlap or could not convert, and
    # poles 0 and 1
    ct, cs, up = (np.concatenate(x) for x in zip(*converted))
    values = _convert(moments[cs], src_r[cs], h[ct], src_c[cs] - c[ct])
    local = _scatter(2 * ct + up, values, 2 * off[-1]).reshape(off[-1], 2, count)
    target = np.concatenate([t, t, np.arange(leaves)])
    begin = np.concatenate([first[s], np.maximum(first[s], hi[t]), np.zeros(leaves, dtype=np.intp)])
    end = np.concatenate([np.minimum(stop[s], lo[t]), stop[s], np.minimum(lo[:leaves], 2)])
    side = np.repeat([0, 1, 0], [t.size, t.size, leaves])
    keep = (begin < end) & ~fallback[target]
    target, begin, end, side = target[keep], begin[keep], end[keep], side[keep]
    cols = begin[:, None] + np.arange(int((end - begin).max(initial=0)))
    inside = cols < end[:, None]
    cols = np.minimum(cols, k - 1)
    y = np.divide(h[target, None], poles[cols] - c[target, None], out=np.zeros(cols.shape), where=inside)
    values = _power_sums(y, np.where(inside, weights[cols], 0.0) * y, count) / h[target, None]
    local[:leaves] += _scatter(2 * target + side, values, 2 * leaves).reshape(leaves, 2, count)
    # the series down the tree
    for level in range(top, 0, -1):
        child = slice(off[level - 1], off[level])
        local[child] += _substitute(local[parent[child]], shifts[2, child], shifts[3, child], fact, False)
    coef = np.empty((leaves, 4, terms))
    coef[:, :2] = local[:leaves, :, :terms]
    coef[:, 2:] = local[:leaves, :, 1 : terms + 1] * (np.arange(1, terms + 1) / h[:leaves, None, None])
    return first, c[:leaves], h[:leaves], coef, fallback


def _secular_stack(poles, weights, gamma: float, rows, cols, sqrt_w, below: int, strip: int, series):
    """Roots rows of 1 = gamma * sum_j weights_j / (poles_j - mu), as one stack.

    rows (S, R) holds the root indices of S leaves; root r lies in
    (poles[r-1], poles[r]), root 0 below poles[0]. Leaf s sums the poles
    cols[s] exactly, at square-root weights sqrt_w[s] (0 pads a window):
    the first `below` lie below each of its roots, the next `strip` on
    either side, the rest above. The other poles come from one series per
    leaf, series = (c, rho, coef) of (S,), (S,) and (S, 4, T) arrays
    whose product coef @ (x^t), at x = (mu - c)/rho, adds the far parts
    of psi_lo, psi_hi, psi'_lo and psi'_hi (_local_series); series is None
    when cols holds every pole. The ground root starts at the lower root
    of a two-pole model, every other root at its bracket's midpoint. Each
    root is returned as (origin, tau, norm2): the nearer pole's index, the offset
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
    if ground.any() and poles.size > 1:
        # the ground root starts instead at the lower root of a two-pole model,
        # pole 0 and the others merged at their weighted mean e above it:
        # tau^2 - b tau = gamma w_0 e
        rest = weights[1:].sum()
        e = float(weights[1:] @ (poles[1:] - poles[0])) / rest
        b = e - gamma * (weights[0] + rest)
        disc = math.hypot(b, 2.0 * math.sqrt(gamma * weights[0] * e))
        tau = np.where(ground, 0.5 * (b - disc) if b <= 0 else -2.0 * gamma * weights[0] * e / (b + disc), tau)
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
        if series is not None:
            centre, rho, coef = series
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


def _secular_roots(poles, weights, gamma: float):
    """Every root of the secular equation, as (origin, tau, norm2) arrays of _secular_stack.

    The ground pair sums every pole: root 1 lies in the wide gap between
    the marked pole and the band, where a series would not converge fast.
    The other roots come in leaves of _SUB_ROWS, each with its window and
    one local series from the multipole tree (_local_series), and all
    leaves iterate as one stack. A fallback leaf joins the ground pair in
    the stacks that sum every pole, _SUB_ROWS roots at a time.
    """
    k = poles.size
    exact = [np.arange(min(2, k))]
    rows = np.zeros((0, _SUB_ROWS), dtype=np.intp)
    if k > 2:
        first, c, h, coef, fallback = _local_series(poles, weights)
        stop = np.minimum(first + _SUB_ROWS, k)
        exact.extend(np.arange(a, b) for a, b in zip(first[fallback], stop[fallback]))
        s0, s1 = first[~fallback], stop[~fallback]
        series = c, h, coef = c[~fallback], h[~fallback], coef[~fallback]
        # a short leaf repeats its last root
        rows = np.minimum(s0[:, None] + np.arange(_SUB_ROWS), s1[:, None] - 1)
    origin = np.empty(k, dtype=np.intp)
    tau = np.empty(k)
    norm2 = np.empty(k)
    exact = np.concatenate(exact)
    every = np.arange(k)[None, :]
    for i in range(0, exact.size, _SUB_ROWS):
        r = exact[None, i : i + _SUB_ROWS]
        out = _secular_stack(poles, weights, gamma, r, every, np.sqrt(weights)[None, :], 0, k, None)
        origin[r], tau[r], norm2[r] = out
    if rows.size:
        index = s0[:, None] + np.arange(-_SUB_NEAR, _SUB_ROWS + _SUB_NEAR)
        cols = np.clip(index, 0, k - 1)
        sqrt_w = np.where((index >= 0) & (index < k), np.sqrt(weights)[cols], 0.0)
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
    of leaves of _SUB_ROWS roots (_secular_roots): each sums its
    2 _SUB_NEAR + _SUB_ROWS nearest poles exactly and the rest by one
    series from the multipole tree (_local_series), so the work arrays
    are n roots by 2 _SUB_NEAR + _SUB_ROWS poles, never n x n, and the
    series take O(n) to form.
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
