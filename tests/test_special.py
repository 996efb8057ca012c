from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from qsearch.special import trigamma

mpmath.mp.dps = 40

# covers the right half plane, the reflection region, large |Im z|,
# and the small-|z| pole neighbourhood
POINTS = [
    0.5,
    1.0,
    2.0,
    7.5,
    0.01,
    complex(0.0333, 6.6667),
    complex(0.0333, -6.6667),
    complex(1.0, 1.0),
    complex(0.25, 0.0),
    complex(-0.5, 0.3),
    complex(-3.2, 0.0001),
    complex(-11.5, -2.25),
    complex(12.0, 40.0),
    complex(0.0667, 666.67),
    complex(5.0, -1000.0),
]


@pytest.mark.parametrize("z", POINTS)
def test_trigamma_matches_reference(z: complex) -> None:
    got = trigamma(z)
    want = complex(mpmath.polygamma(1, mpmath.mpc(z)))
    assert abs(got - want) <= 5e-14 * abs(want)


def test_trigamma_at_one_is_pi_sq_over_six() -> None:
    assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-15)


@pytest.mark.parametrize("z", [0.3, 2.7, complex(0.4, 3.0), complex(-1.3, 0.8)])
def test_trigamma_recurrence(z: complex) -> None:
    lhs = trigamma(z)
    rhs = trigamma(z + 1) + 1.0 / (complex(z) ** 2)
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_trigamma_reflection_identity() -> None:
    # psi'(z) + psi'(1-z) = pi^2 / sin^2(pi z)
    z = complex(0.3, 0.2)
    total = trigamma(z) + trigamma(1 - z)
    want = (math.pi / complex(mpmath.sin(mpmath.pi * mpmath.mpc(z)))) ** 2
    assert abs(total - want) <= 1e-12 * abs(want)


def test_trigamma_large_imaginary_part_does_not_overflow() -> None:
    # reflection would overflow sin(pi z) here; the lifted series must not
    for z in (complex(0.05, 1e4), complex(-0.2, 1e6), complex(0.5, 1e8)):
        value = trigamma(z)
        assert math.isfinite(value.real) and math.isfinite(value.imag)
        want = complex(mpmath.polygamma(1, mpmath.mpc(z)))
        assert abs(value - want) <= 1e-12 * abs(want)


def test_trigamma_conjugate_symmetry() -> None:
    z = complex(1.7, 2.9)
    assert trigamma(z.conjugate()) == pytest.approx(trigamma(z).conjugate(), rel=1e-14)


def test_trigamma_on_an_array_matches_reference() -> None:
    got = trigamma(np.array(POINTS, dtype=complex))
    assert got.shape == (len(POINTS),)
    for z, value in zip(POINTS, got):
        want = complex(mpmath.polygamma(1, mpmath.mpc(z)))
        assert abs(value - want) <= 5e-14 * abs(want)


def test_trigamma_keeps_the_shape_and_returns_a_scalar_for_a_scalar() -> None:
    grid = np.array(POINTS[:12], dtype=complex).reshape(3, 4)
    assert trigamma(grid).shape == (3, 4)
    value = trigamma(complex(1.0, 1.0))
    assert isinstance(value, complex) and np.ndim(value) == 0


def test_trigamma_raises_at_a_pole_inside_an_array() -> None:
    with pytest.raises(ZeroDivisionError, match="pole"):
        trigamma(np.array([1.0, 0.0, complex(2.0, 3.0)]))
