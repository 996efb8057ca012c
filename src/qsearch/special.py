"""Trigamma function for complex arguments.

Recurrence lift away from the origin followed by the asymptotic series;
target accuracy 1e-10 relative for Re(z) > 0. Arguments left of the line
Re(z) = 1/2 are handled by reflection.
"""

from __future__ import annotations

import math

import numpy as np

# Bernoulli numbers B_2..B_20
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
)

_LIFT_RADIUS = 10.0


def trigamma(z):
    """d^2/dz^2 log Gamma(z) for complex z off the nonpositive integers.

    Elementwise: an array gives an array of its shape, a scalar a numpy scalar.
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=complex).reshape(-1)
    # far from the real axis the asymptotic series holds for any Re(z),
    # and sin(pi z) would overflow; reflect only near the axis
    reflect = (z.real < 0.5) & (np.abs(z.imag) <= 100.0)
    w = np.where(reflect, 1.0 - z, z)
    acc = np.zeros_like(w)
    # every lifted point has Re(w) >= 1/2, so this ends within _LIFT_RADIUS rounds
    while (lift := np.abs(w) < _LIFT_RADIUS).any():
        acc += np.where(lift, 1.0 / (w * w), 0.0)
        w += lift
    u = 1.0 / (w * w)
    tail = np.zeros_like(u)
    for b in reversed(_BERNOULLI):
        tail = (tail + b) * u
    out = acc + 1.0 / w + 0.5 * u + tail / w
    s = np.sin(math.pi * z[reflect])
    if not s.all():
        raise ZeroDivisionError(f"trigamma pole at z={z[reflect][s == 0][0]}")
    out[reflect] = -out[reflect] + (math.pi / s) ** 2
    return out.reshape(shape)[()]
