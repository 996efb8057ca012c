from __future__ import annotations

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qsearch.bath import (
    BathSpec,
    correlation_finite_T,
    correlation_quadrature,
    correlation_time,
    correlation_zero_T,
    rate_S,
    spectral_density,
    validate_approximations,
    validity_row,
)
from qsearch.errors import InvalidParameterError, OutOfRegimeError

FINITE = BathSpec(g=0.02, beta=15.0, omega_c=2.0)
ZERO = BathSpec(g=0.02, beta=math.inf, omega_c=2.0)


def _report(bath: BathSpec, delta: float, n: int) -> dict:
    """The validity report of one pair, as a run writes it."""
    return validity_row(validate_approximations(bath, [delta], n), 0)


def test_spectral_density_values() -> None:
    assert spectral_density(0.0, FINITE) == 0.0
    assert spectral_density(2.0, FINITE) == pytest.approx(8e-4 * math.exp(-1.0), rel=1e-12)
    assert spectral_density(2.0, FINITE) == pytest.approx(2.943e-4, rel=1e-3)


def test_spectral_density_peaks_at_cutoff() -> None:
    grid = np.linspace(0.01, 12.0, 2400)
    vals = [spectral_density(w, FINITE) for w in grid]
    assert grid[int(np.argmax(vals))] == pytest.approx(2.0, abs=0.02)


def test_spectral_density_rejects_negative_frequency() -> None:
    with pytest.raises(OutOfRegimeError):
        spectral_density(-0.1, FINITE)


def test_rate_at_zero_frequency() -> None:
    assert rate_S(0.0, FINITE) == pytest.approx(0.0004 / 15.0, rel=1e-14)
    assert rate_S(0.0, ZERO) == 0.0


def test_rate_continuity_at_zero_frequency() -> None:
    s0 = rate_S(0.0, FINITE)
    assert rate_S(1e-9, FINITE) == pytest.approx(s0, rel=1e-6)
    assert rate_S(-1e-9, FINITE) == pytest.approx(s0, rel=1e-6)


def test_rate_detailed_balance() -> None:
    down, up = rate_S(0.5, FINITE), rate_S(-0.5, FINITE)
    assert up / down == pytest.approx(math.exp(-7.5), rel=1e-12)
    assert down - up == pytest.approx(spectral_density(0.5, FINITE), rel=1e-12)


def test_rate_zero_temperature_has_no_absorption() -> None:
    assert rate_S(-0.5, ZERO) == 0.0
    assert rate_S(0.5, ZERO) == pytest.approx(spectral_density(0.5, ZERO), rel=1e-14)


@pytest.mark.parametrize("omega", [-3.0, -0.2, 0.0, 0.2, 3.0])
def test_rate_is_nonnegative(omega: float) -> None:
    assert rate_S(omega, FINITE) >= 0.0


def test_zero_temperature_correlation_initial_value() -> None:
    assert correlation_zero_T(0.0, ZERO) == pytest.approx(1.6e-3, rel=1e-12)


def test_zero_temperature_correlation_algebraic_tail() -> None:
    # |F| falls off as 1/(1 + omega_c^2 t^2)
    ratio = abs(correlation_zero_T(10.0, ZERO)) / abs(correlation_zero_T(100.0, ZERO))
    assert ratio == pytest.approx(40001.0 / 401.0, rel=1e-2)


def test_zero_temperature_correlation_matches_quadrature() -> None:
    for t in (0.0, 0.1, 1.0, 10.0):
        closed = correlation_zero_T(t, ZERO)
        quad = correlation_quadrature(t, ZERO)
        assert abs(closed - quad) <= 1e-8


def test_finite_temperature_correlation_matches_quadrature() -> None:
    for t in (0.0, 0.1, 1.0, 10.0):
        closed = correlation_finite_T(t, FINITE)
        quad = correlation_quadrature(t, FINITE)
        assert abs(closed - quad) <= 1e-6 * abs(closed)
    t = 100.0
    closed = correlation_finite_T(t, FINITE)
    assert abs(closed - correlation_quadrature(t, FINITE)) <= 1e-9 * abs(closed)


def test_correlation_stationarity() -> None:
    for t in (0.3, 2.0):
        assert correlation_finite_T(-t, FINITE) == np.conj(correlation_finite_T(t, FINITE))
        assert correlation_zero_T(-t, ZERO) == np.conj(correlation_zero_T(t, ZERO))
        qa = correlation_quadrature(-t, FINITE)
        qb = np.conj(correlation_quadrature(t, FINITE))
        assert abs(qa - qb) <= 1e-15


def test_large_beta_approaches_zero_temperature() -> None:
    cold = BathSpec(g=0.02, beta=1e4, omega_c=2.0)
    for t in (0.5, 1.0):
        diff = abs(correlation_finite_T(t, cold) - correlation_zero_T(t, ZERO))
        assert diff < 1e-4


def test_quadrature_self_convergence() -> None:
    for t in (0.5, 5.0):
        tight = correlation_quadrature(t, FINITE, epsabs=1e-13)
        loose = correlation_quadrature(t, FINITE, epsabs=1e-10)
        assert abs(tight - loose) < 1e-9


def test_low_beta_omega_c_product_warns() -> None:
    shallow = BathSpec(g=0.02, beta=1.0, omega_c=2.0)
    with pytest.warns(UserWarning, match="beta"):
        correlation_finite_T(0.5, shallow)


def _envelope_rate(bath: BathSpec, lo: float, hi: float, pts: int = 240) -> float:
    ts = np.linspace(lo, hi, pts)
    vals = np.array([abs(correlation_finite_T(t, bath)) for t in ts])
    return -float(np.polyfit(ts, np.log(vals), 1)[0])


def test_envelope_rate_matches_thermal_prediction_at_large_cutoff() -> None:
    bath = BathSpec(g=0.02, beta=1.0, omega_c=1e15)
    rate = _envelope_rate(bath, 3.0 * bath.beta, 6.0 * bath.beta)
    assert abs(rate - 2.0 * math.pi / bath.beta) <= 0.10 * (2.0 * math.pi / bath.beta)


@pytest.mark.xfail(
    strict=True,
    reason="at beta=15, omega_c=2 the algebraic cutoff tail dominates |F| on "
    "[3 beta, 6 beta]; the fitted rate is 0.0303 vs the thermal 0.419 "
    "(rel 0.93), so the thermal-envelope window needs omega_c beta >> 1e13",
)
def test_envelope_rate_matches_thermal_prediction_at_moderate_cutoff() -> None:
    rate = _envelope_rate(FINITE, 45.0, 90.0)
    assert abs(rate - 2.0 * math.pi / 15.0) <= 0.10 * (2.0 * math.pi / 15.0)


def test_envelope_rate_moderate_cutoff_measured() -> None:
    rate = _envelope_rate(FINITE, 45.0, 90.0)
    assert rate == pytest.approx(0.030315, rel=1e-2)


def test_correlation_time_branches() -> None:
    assert correlation_time(FINITE) == 15.0
    assert correlation_time(ZERO) == 0.5
    assert correlation_time(BathSpec(g=0.1, beta=0.01, omega_c=2.0)) == 0.5


def _efold_time(bath: BathSpec, t_max: float, pts: int = 40000) -> float:
    fn = correlation_zero_T if bath.is_zero_temperature else correlation_finite_T
    target = abs(fn(0.0, bath)) / math.e
    for t in np.linspace(0.0, t_max, pts)[1:]:
        if abs(fn(t, bath)) < target:
            return float(t)
    raise AssertionError("no e-folding found in window")


@pytest.mark.filterwarnings("ignore:beta\\*omega_c")
def test_efold_time_within_factor_three_of_correlation_time() -> None:
    mild = BathSpec(g=0.02, beta=1.0, omega_c=2.0)
    t_e = _efold_time(mild, 3.0)
    assert t_e == pytest.approx(0.5664, rel=1e-2)
    tau = correlation_time(mild)
    assert tau / 3.0 <= t_e <= 3.0 * tau


def test_efold_time_zero_temperature_analytic() -> None:
    t_e = _efold_time(ZERO, 3.0)
    assert t_e == pytest.approx(math.sqrt(math.e - 1.0) / 2.0, rel=1e-3)
    tau = correlation_time(ZERO)
    assert tau / 3.0 <= t_e <= 3.0 * tau


@pytest.mark.xfail(
    strict=True,
    reason="measured e-folding time is 0.65 at beta=15, omega_c=2: the initial "
    "decay is set by 1/omega_c whenever beta omega_c >> 1, not by beta",
)
def test_efold_time_tracks_beta_at_moderate_cutoff() -> None:
    t_e = _efold_time(FINITE, 60.0)
    assert 5.0 <= t_e <= 45.0


def test_validity_report_reference_point() -> None:
    report = _report(FINITE, delta=0.011, n=10**6)
    assert report["markov_margin"] == pytest.approx(0.3, rel=1e-12)
    assert report["markov_status"] == "marginal"
    assert report["secular_margin"] == pytest.approx(0.7385489, rel=1e-6)
    assert report["secular_status"] == "marginal"
    assert report["beta_star"] == pytest.approx(13.969171, rel=1e-6)
    assert report["two_level_ok"] is True


def test_validity_report_strong_coupling_fails() -> None:
    report = _report(
        BathSpec(g=0.5, beta=15.0, omega_c=2.0), delta=0.011, n=10**6
    )
    assert report["markov_margin"] == pytest.approx(7.5, rel=1e-12)
    assert report["markov_status"] == "fail"
    assert report["secular_status"] == "fail"


def test_validity_report_zero_temperature() -> None:
    n = 1000
    delta = 2.0 / math.sqrt(n)
    report = _report(BathSpec(g=0.02, beta=math.inf, omega_c=2.0), delta=delta, n=n)
    assert report["delta_t"] == 0.5
    assert report["markov_margin"] == pytest.approx(0.01, rel=1e-12)
    assert report["markov_status"] == "ok"
    assert report["secular_margin"] == pytest.approx(0.02 * math.sqrt(0.5 / delta), rel=1e-12)
    assert report["secular_status"] == "ok"


def test_bath_spec_validation() -> None:
    with pytest.raises(InvalidParameterError):
        BathSpec(g=-0.1)
    with pytest.raises(InvalidParameterError):
        BathSpec(g=0.1, beta=0.0)
    with pytest.raises(InvalidParameterError):
        BathSpec(g=0.1, omega_c=-2.0)
    with pytest.raises(InvalidParameterError):
        BathSpec(g=0.1, eta=0.0)
    assert BathSpec(g=0.1).temperature_mode == "zero"
    assert BathSpec(g=0.1, beta=3.0).temperature_mode == "finite"


def test_correlation_quadrature_scalar_only() -> None:
    value = correlation_quadrature(0.25, FINITE)
    direct = correlation_finite_T(0.25, FINITE)
    assert abs(value - direct) <= 1e-10 * abs(direct)


def test_rates_keep_the_shape_of_their_input() -> None:
    omegas = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    for bath in (FINITE, ZERO):
        rates = rate_S(omegas, bath)
        assert rates.shape == (3, 4)
        for w, value in zip(omegas.ravel(), rates.ravel()):
            assert value == pytest.approx(rate_S(w, bath), rel=1e-15, abs=0.0)
    density = spectral_density(np.abs(omegas), FINITE)
    assert density.shape == (3, 4)
    times = np.linspace(0.0, 50.0, 12).reshape(4, 3)
    corr = correlation_finite_T(times, FINITE)
    assert corr.shape == (4, 3)
    for t, value in zip(times.ravel(), corr.ravel()):
        assert value == pytest.approx(correlation_finite_T(t, FINITE), rel=1e-14)


def test_scalar_inputs_give_scalars_that_format_and_serialise() -> None:
    values = (
        rate_S(0.5, FINITE),
        rate_S(-0.5, ZERO),
        spectral_density(0.5, FINITE),
        correlation_finite_T(2.0, FINITE).real,
        correlation_zero_T(2.0, ZERO).imag,
    )
    for value in values:
        assert isinstance(value, float) and np.ndim(value) == 0
        assert json.loads(json.dumps(value)) == value
        assert float("%.12g" % value) == pytest.approx(value, rel=1e-11)
    assert isinstance(correlation_finite_T(2.0, FINITE), complex)


def test_spectral_density_refuses_any_negative_entry() -> None:
    with pytest.raises(OutOfRegimeError, match="-0.25"):
        spectral_density(np.array([[0.0, 1.0], [-0.25, 2.0]]), FINITE)


def test_rate_when_the_bose_factor_underflows() -> None:
    # beta * omega = 2500: e^x overflows a double, so absorption is exactly zero
    cold = BathSpec(g=0.02, beta=5000.0, omega_c=2.0)
    assert rate_S(0.5, cold) == spectral_density(0.5, cold)
    assert rate_S(-0.5, cold) == 0.0
    assert rate_S(0.0, cold) == pytest.approx(0.0004 / 5000.0, rel=1e-14)


def test_correlation_peak_memory_is_bounded() -> None:
    # the per-point form (a Python complex per point, then the array) peaked at
    # 5,601,336 traced bytes on these 10^5 points (numpy 2.4); blocking keeps the
    # result plus one block's temporaries, 2,331,056 bytes
    times = np.linspace(0.0, 100.0, 100_000)
    tracemalloc.start()
    try:
        correlation_finite_T(times, FINITE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5_601_336
