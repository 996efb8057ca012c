"""Closed-system search dynamics and running-time accounting.

Exact spectral propagation of the uniform initial state (through the
secular solver on complete graphs, dense eigh otherwise) with its first
peak and repetitions, the reduced two-level success probability and its
peak, and the weak/strong disorder classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import InvalidParameterError
from .model import SearchHamiltonian
from .spectral import Spectrum, TwoLevelSystem, _s_overlaps, eigendecompose, secular_spectrum

# elements per block of phase arrays in evolve_closed
_PHASE_BLOCK = 1 << 18
# on a uniform grid, times between exactly evaluated phases
_PHASE_RESTART = 64
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ClosedRunResult:
    """Solution population on a time grid plus first-peak summary."""

    times: np.ndarray
    p_w: np.ndarray
    t_peak: float
    p_peak: float
    repetitions: float
    t_expected: float

    def summary(self) -> dict:
        return {
            "t_peak": self.t_peak,
            "p_peak": self.p_peak,
            "repetitions": self.repetitions,
            "t_expected": self.t_expected,
        }


def _validate_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise InvalidParameterError("time grid must be a nonempty 1-d array")
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise InvalidParameterError("time grid must be finite and nonnegative")
    return t


def _first_peak(times: np.ndarray, values: np.ndarray) -> Tuple[float, float, int]:
    """First local maximum at least half the global one, parabolically refined."""
    inner = values[1:-1]
    peaks = np.flatnonzero(
        (inner >= values[:-2]) & (inner >= values[2:]) & (inner >= 0.5 * float(values.max()))
    )
    idx = int(peaks[0]) + 1 if peaks.size else int(np.argmax(values))
    if 0 < idx < len(values) - 1:
        y0, y1, y2 = values[idx - 1], values[idx], values[idx + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0:
            # vertex of the parabola through the three points (uniform step)
            shift = float(np.clip(0.5 * (y0 - y2) / denom, -1.0, 1.0))
            step = 0.5 * (times[idx + 1] - times[idx - 1])
            return float(times[idx] + shift * step), float(y1), idx
    return float(times[idx]), float(values[idx]), idx


def _closed_modes(h: SearchHamiltonian, spectrum: Optional[Spectrum]) -> Tuple[np.ndarray, np.ndarray]:
    """Levels lam and weights <w|lam><lam|s> of the amplitude <w|e^{-iHt}|s>."""
    if h.graph.kind == "complete":
        spectrum = secular_spectrum(h)
        return spectrum.roots, spectrum.w_overlaps * spectrum.s_overlaps
    if spectrum is None:
        spectrum = eigendecompose(h)
    n = spectrum.n
    proj = spectrum.eigenvectors.conj().T @ np.full(n, 1.0 / math.sqrt(n))
    return spectrum.eigenvalues, spectrum.eigenvectors[h.w, :] * proj


def _phase_product(levels: np.ndarray, weights: np.ndarray, anchors: np.ndarray, dt: float) -> np.ndarray:
    """A(t_a + j dt) for each anchor t_a and j < _PHASE_RESTART, as one complex product P @ Q.

    Entry (a, j) of P @ Q is A(t_a + j dt): P = exp(-i t_a levels_k) is
    evaluated exactly, and column j of Q is weights_k exp(-i levels_k dt)^j,
    advanced by one multiplication per j, far cheaper than a complex exp;
    the phase error stays within a few _PHASE_RESTART ulps. The levels are
    taken in chunks, so that the two factors hold at most _PHASE_BLOCK
    elements together. Returns the amplitudes in time order.
    """
    out = np.zeros((anchors.size, _PHASE_RESTART), dtype=complex)
    cols = min(levels.size, max(1, _PHASE_BLOCK // (anchors.size + _PHASE_RESTART)))
    phase = np.empty((anchors.size, cols), dtype=complex)
    powers = np.empty((_PHASE_RESTART, cols), dtype=complex)
    for c in range(0, levels.size, cols):
        chunk = levels[c : c + cols]
        p, q = phase[:, : chunk.size], powers[:, : chunk.size]
        np.exp(np.multiply.outer(anchors, -1j * chunk, out=p), out=p)
        advance = np.exp(-1j * dt * chunk)
        q[0] = weights[c : c + cols]
        for j in range(1, _PHASE_RESTART):
            np.multiply(q[j - 1], advance, out=q[j])
        out += p @ q.T
    return out.ravel()


def _amplitudes(levels: np.ndarray, weights: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """A(t) = sum_k weights_k exp(-i levels_k t) at each time.

    A uniform grid of more than _PHASE_RESTART times is anchored at every
    _PHASE_RESTART-th time and taken as one complex GEMM (_phase_product).
    Shorter and other grids take one exp per phase, in blocks of at most
    _PHASE_BLOCK phases.
    """
    m = ts.size
    dt = (ts[-1] - ts[0]) / (m - 1) if m > 1 else 0.0
    drift = np.abs(ts - (ts[0] + dt * np.arange(m))).max()
    if m > _PHASE_RESTART and drift <= 4.0 * _EPS * np.abs(ts).max():
        return _phase_product(levels, weights, ts[::_PHASE_RESTART], dt)[:m]
    out = np.empty(m, dtype=complex)
    rows = max(1, _PHASE_BLOCK // levels.size)
    for i in range(0, m, rows):
        out[i : i + rows] = np.exp(-1j * np.outer(ts[i : i + rows], levels)) @ weights
    return out


def evolve_closed(h: SearchHamiltonian, times, spectrum: Optional[Spectrum] = None) -> ClosedRunResult:
    """Exact unitary evolution of the uniform state |s>, reporting p_w(t).

    Propagates through the eigenbasis, so accuracy is set by the
    eigensolver, not by step size. Complete graphs go through the secular
    solver, which needs no n x n matrix; other graphs use dense eigh, or
    spectrum when the caller already holds eigendecompose(h).
    """
    t = _validate_times(times)
    levels, weights = _closed_modes(h, spectrum)
    # clip the roundoff overshoot above 1 so 0 <= p_w <= 1 holds exactly
    p_w = np.clip(np.abs(_amplitudes(levels, weights, t)) ** 2, 0.0, 1.0)
    t_peak, p_peak, _ = _first_peak(t, p_w)
    # the parabola only locates the peak; the value is recomputed exactly
    p_refined = float(min(np.abs(_amplitudes(levels, weights, np.array([t_peak]))[0]) ** 2, 1.0))
    if p_refined >= p_peak:
        p_peak = p_refined
    repetitions = 1.0 / p_peak if p_peak > 0 else math.inf
    t.setflags(write=False)
    p_w.setflags(write=False)
    return ClosedRunResult(
        times=t, p_w=p_w, t_peak=t_peak, p_peak=p_peak,
        repetitions=repetitions, t_expected=t_peak * repetitions,
    )


def _reduced_amplitude_weights(tl: TwoLevelSystem) -> Tuple[float, float]:
    """Weights alpha_k = <w|lam_k><lam_k|s> of the two-frequency amplitude."""
    return tl.a1 * tl.s_overlap(1), tl.a2 * tl.s_overlap(2)


def success_probability_reduced(tl: TwoLevelSystem, t) -> Union[float, np.ndarray]:
    """Solution population of the reduced model at time(s) t.

    plain policy: sin^2(delta t/2) / (1 + n eps_w^2/4), the leading-order
    closed form (its t=0 value is 0, dropping the 1/n initial overlap).
    shifted policy: exact two-level propagation of the projected uniform
    state, |<w|e^{-i h_red t} P|s>|^2, whose t=0 value is exactly 1/n.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise InvalidParameterError("time must be nonnegative")
    if tl.policy == "plain":
        damp = 1.0 / (1.0 + tl.n * tl.eps_w**2 / 4.0)
        out = damp * np.sin(0.5 * tl.delta * t_arr) ** 2
    else:
        alpha1, alpha2 = _reduced_amplitude_weights(tl)
        amp = alpha1 * np.exp(-1j * tl.eigenvalues[0] * t_arr) + alpha2 * np.exp(
            -1j * tl.eigenvalues[1] * t_arr
        )
        out = np.abs(amp) ** 2
    return float(out) if np.isscalar(t) else out


def _reduced_peaks(n: int, policy: str, eps_w: np.ndarray, delta: np.ndarray, overlaps: np.ndarray):
    """reduced_peak of each pair of a stack, as arrays (t_peak, p_peak).

    The squares are Python's float pow, pair by pair: numpy squares by
    x*x, which differs from pow in the last bit for about 1 value in 1300.
    """
    if policy == "plain":
        sq = np.array([x**2 for x in eps_w.tolist()])
        return math.pi / delta, 1.0 / (1.0 + float(n) * sq / 4.0)
    alpha = overlaps[:, :2] * _s_overlaps(n, overlaps)
    p_peak = np.array([x**2 for x in (np.abs(alpha[:, 0]) + np.abs(alpha[:, 1])).tolist()])
    t_peak = np.where(alpha[:, 0] * alpha[:, 1] <= 0, math.pi / delta, 2.0 * math.pi / delta)
    return t_peak, p_peak


def reduced_peak(tl: TwoLevelSystem) -> Tuple[float, float]:
    """(t_peak, p_peak) of the reduced success probability."""
    t_peak, p_peak = _reduced_peaks(
        tl.n, tl.policy, np.array([tl.eps_w]), np.array([tl.delta]), np.array([tl.overlaps])
    )
    return float(t_peak[0]), float(p_peak[0])


def regime_classify(n: int, sigma: float) -> str:
    """"weak" when sigma <= 1/sqrt(n) (boundary inclusive), else "strong"."""
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got n={n}")
    if sigma < 0:
        raise InvalidParameterError(f"sigma must be nonnegative, got {sigma}")
    return "weak" if sigma <= 1.0 / math.sqrt(n) else "strong"
