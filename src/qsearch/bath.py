"""Thermal bath with an exponential-cutoff power-law spectral density.

Provides the spectral density, one-sided transition rates S(omega), the
bath correlation function (closed forms plus an adaptive-quadrature
oracle), the correlation time, and the weak-coupling validity checks.
The sign convention for rate_S is fixed by detailed balance: the
two-level steady state it induces is thermal. The functions of omega and
t other than the quadrature are elementwise: an array gives an array of
its shape, a scalar a numpy scalar.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, OutOfRegimeError
from .special import trigamma

# thresholds on the dimensionless margins used to grade "much less than"
CHI_MARKOV = 0.1
CHI_SECULAR = 0.5
# points per trigamma call in correlation_finite_T: bounds its temporaries
_CORRELATION_BLOCK = 1 << 12


@dataclass(frozen=True)
class BathSpec:
    """Bath parameters. beta=inf selects the zero-temperature branch."""

    g: float
    beta: float = math.inf
    omega_c: float = 2.0
    eta: float = 1.0
    d: float = 1.0

    def __post_init__(self) -> None:
        if self.g < 0:
            raise InvalidParameterError(f"coupling g must be nonnegative, got {self.g}")
        if not (self.beta > 0):
            raise InvalidParameterError(f"beta must be positive, got {self.beta}")
        if self.omega_c <= 0:
            raise InvalidParameterError(f"omega_c must be positive, got {self.omega_c}")
        if self.eta <= 0:
            raise InvalidParameterError(f"eta must be positive, got {self.eta}")
        if self.d <= 0:
            raise InvalidParameterError(f"exponent d must be positive, got {self.d}")

    @property
    def temperature_mode(self) -> str:
        return "zero" if math.isinf(self.beta) else "finite"

    @property
    def is_zero_temperature(self) -> bool:
        return math.isinf(self.beta)


def spectral_density(omega, bath: BathSpec):
    """J(omega) = eta g^2 omega^d omega_c^(1-d) exp(-omega/omega_c), omega >= 0."""
    omega = np.asarray(omega, dtype=float)
    if (omega < 0).any():
        raise OutOfRegimeError(
            f"spectral density is defined for omega >= 0, got {omega.min()}; use rate_S for signed frequencies"
        )
    # omega^d with d > 0 makes J(0) = 0
    return (
        bath.eta
        * bath.g**2
        * omega**bath.d
        * bath.omega_c ** (1.0 - bath.d)
        * np.exp(-omega / bath.omega_c)
    )[()]


def _occupation(x: np.ndarray) -> np.ndarray:
    """Bose factor 1/(e^x - 1) for x > 0, stable at small x; 0 where e^x overflows."""
    return np.where(x < 1e-6, 1.0 / x - 0.5 + x / 12.0, 1.0 / np.expm1(x))


def rate_S(omega, bath: BathSpec):
    """One-sided bath rate at transition frequency omega (no 2*pi factor).

    omega > 0 is the emission branch J(omega)(N+1): energy omega is
    released into the bath. omega < 0 is the absorption branch
    J(|omega|) N(|omega|). The omega=0 limit is eta g^2 / beta, which both
    branches approach continuously; it vanishes at zero temperature.
    """
    omega = np.asarray(omega, dtype=float)
    a = np.abs(omega)
    j = spectral_density(a, bath)
    if bath.is_zero_temperature:
        return np.where(omega > 0, j, 0.0)[()]
    # emission adds 1 to the occupation; at omega = 0 this is 0 * inf,
    # replaced by its limit
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = j * (_occupation(bath.beta * a) + (omega > 0))
    return np.where(omega == 0.0, bath.eta * bath.g**2 / bath.beta, out)[()]


def correlation_zero_T(t, bath: BathSpec):
    """Zero-temperature correlation eta g^2 omega_c^2 / (1 + i t omega_c)^2.

    Closed form for d=1 only.
    """
    if not bath.is_zero_temperature:
        raise OutOfRegimeError("zero-temperature correlation requested for a finite-beta bath")
    if bath.d != 1.0:
        raise OutOfRegimeError(f"closed form requires d=1, got d={bath.d}")
    t_arr = np.asarray(t, dtype=float)
    out = bath.eta * bath.g**2 * bath.omega_c**2 / (1.0 + 1j * t_arr * bath.omega_c) ** 2
    return out[()]


def correlation_finite_T(t, bath: BathSpec):
    """Finite-temperature correlation via the trigamma closed form (d=1).

    F(t) = (eta g^2/beta^2) [psi'(1/(beta omega_c) + it/beta)
                             + psi'(1 + 1/(beta omega_c) - it/beta)].
    Evaluated in blocks of _CORRELATION_BLOCK points, so the temporaries
    stay a fixed size.
    """
    if bath.is_zero_temperature:
        raise OutOfRegimeError("finite-temperature correlation requested for a zero-T bath")
    if bath.d != 1.0:
        raise OutOfRegimeError(f"closed form requires d=1, got d={bath.d}")
    if bath.beta * bath.omega_c < 5.0:
        warnings.warn(
            f"beta*omega_c = {bath.beta * bath.omega_c:.3g} < 5: "
            "finite-temperature correlation accuracy may degrade",
            stacklevel=2,
        )
    pref = bath.eta * bath.g**2 / bath.beta**2
    a = 1.0 / (bath.beta * bath.omega_c)
    t_arr = np.asarray(t, dtype=float)
    out = np.empty(t_arr.size, dtype=complex)
    for i in range(0, out.size, _CORRELATION_BLOCK):
        iz = 1j * (t_arr.flat[i : i + _CORRELATION_BLOCK] / bath.beta)
        out[i : i + _CORRELATION_BLOCK] = pref * (trigamma(a + iz) + trigamma(1.0 + a - iz))
    return out.reshape(t_arr.shape)[()]


def _coth(x: float) -> float:
    if x < 1e-6:
        return 1.0 / x + x / 3.0
    return 1.0 / math.tanh(x)


def correlation_quadrature(t: float, bath: BathSpec, epsabs: float = 1e-13) -> complex:
    """Adaptive-quadrature oracle for the bath correlation function.

    Integrates J(omega) [coth(beta omega/2) cos(omega t) - i sin(omega t)]
    over [0, 40 omega_c]; at zero temperature the coth weight is 1. Works
    for any exponent d > 0. Oscillatory weights are integrated with the
    dedicated cos/sin rules.
    """
    # imported on use: scipy.integrate costs more than the rest of `import qsearch`
    from scipy.integrate import quad

    t = float(t)
    if t < 0:
        return correlation_quadrature(-t, bath, epsabs=epsabs).conjugate()
    upper = 40.0 * bath.omega_c

    def j_density(omega: float) -> float:
        return spectral_density(omega, bath)

    if bath.is_zero_temperature:
        real_integrand = j_density
    else:

        def real_integrand(omega: float) -> float:
            if omega == 0.0:
                # ohmic-like J ~ omega^d; finite limit only for d=1
                return 2.0 * bath.eta * bath.g**2 / bath.beta if bath.d == 1.0 else 0.0
            return j_density(omega) * _coth(0.5 * bath.beta * omega)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if t == 0.0:
            re, _ = quad(real_integrand, 0.0, upper, epsabs=epsabs, epsrel=1e-12, limit=400)
            return complex(re, 0.0)
        re, _ = quad(
            real_integrand, 0.0, upper,
            weight="cos", wvar=t, epsabs=epsabs, epsrel=1e-12, limit=400,
        )
        im, _ = quad(
            j_density, 0.0, upper,
            weight="sin", wvar=t, epsabs=epsabs, epsrel=1e-12, limit=400,
        )
    return complex(re, -im)


def correlation_time(bath: BathSpec) -> float:
    """Decay width of the correlation function: 1/omega_c, or max(beta, 1/omega_c)."""
    if bath.is_zero_temperature:
        return 1.0 / bath.omega_c
    return max(bath.beta, 1.0 / bath.omega_c)


_GRADES = np.array(["ok", "marginal", "fail"])


def _grade(margin: np.ndarray, chi: float) -> np.ndarray:
    """Each margin graded: "ok" below chi, "marginal" below 1, else "fail" (NaN included)."""
    return _GRADES[np.searchsorted((chi, 1.0), margin, side="right")]


def validate_approximations(bath: BathSpec, delta, n: int) -> dict:
    """Evaluate g*delta_t, g*sqrt(delta_t/delta), and the two-level bound at each delta.

    The memoryless-bath condition needs g << 1/delta_t; the
    population-coherence decoupling needs g << sqrt(delta/delta_t); the
    two-level truncation needs beta above log(n) divided by the spectral
    gap 1 - delta separating the retained pair from the rest (at n = 2
    the pair is the whole space: beta_star is 0 and the check passes). A
    margin is the ratio of the coupling to its bound; the booleans are
    True below 1, with statuses grading "ok" (below the configured
    threshold), "marginal", or "fail". Returns the fields of validity_row
    but notes, each an array of delta's shape. Reports failed margins;
    raises only for delta <= 0 or n < 2.
    """
    delta = np.asarray(delta, dtype=float)
    if (delta <= 0).any():
        raise InvalidParameterError(f"delta must be positive, got {float(delta[delta <= 0][0])}")
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got n={n}")
    dt = correlation_time(bath)
    markov_margin = np.full(delta.shape, bath.g * dt)
    secular_margin = bath.g * np.sqrt(dt / delta)
    rest_gap = 1.0 - delta
    # 0 when the pair is the whole space (n = 2), infinite where it reaches the rest of the spectrum
    if n == 2:
        beta_star = np.zeros(delta.shape)
    else:
        beta_star = np.divide(math.log(n), rest_gap, out=np.full(delta.shape, math.inf), where=rest_gap > 0)
    return {
        "delta_t": np.full(delta.shape, dt),
        "markov_margin": markov_margin,
        "markov_ok": markov_margin < 1.0,
        "markov_status": _grade(markov_margin, CHI_MARKOV),
        "secular_margin": secular_margin,
        "secular_ok": secular_margin < 1.0,
        "secular_status": _grade(secular_margin, CHI_SECULAR),
        "two_level_ok": bath.beta > beta_star,
        "beta_star": beta_star,
    }


def validity_row(validity: dict, i: int) -> dict:
    """Entry i of validate_approximations' arrays as Python scalars, then notes naming each failed check."""
    row = {key: value[i].item() for key, value in validity.items()}
    notes = []
    if row["markov_status"] != "ok":
        notes.append(f"memoryless-bath margin {row['markov_margin']:.3g} is {row['markov_status']}")
    if row["secular_status"] != "ok":
        notes.append(f"coarse-graining margin {row['secular_margin']:.3g} is {row['secular_status']}")
    if not row["two_level_ok"]:
        notes.append(f"two-level truncation needs beta > {row['beta_star']:.3g}")
    row["notes"] = "; ".join(notes)
    return row
