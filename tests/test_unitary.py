from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qsearch.unitary as unitary
from qsearch.errors import InvalidParameterError
from qsearch.model import DisorderField, build_complete_graph, build_search_hamiltonian, sample_disorder
from qsearch.spectral import reduce_two_level
from qsearch.unitary import (
    _amplitudes,
    _closed_modes,
    _first_peak,
    _reduced_peaks,
    evolve_closed,
    regime_classify,
    success_probability_reduced,
)
from reference import amplitudes_by_time, first_peak_index_by_loop


def _clean_hamiltonian(n: int, eps_w: float = 0.0):
    graph = build_complete_graph(n)
    disorder = None
    if eps_w != 0.0:
        eps = np.zeros(n)
        eps[0] = eps_w
        disorder = DisorderField(epsilons=eps, sigma=abs(eps_w), seed=0)
    return build_search_hamiltonian(graph, w=0, gamma=1.0 / n, disorder=disorder)


def _pair(n: int, eps_w: float, sigma=None, policy: str = "plain"):
    """The reduced pair at eps_w, as a stack of one, and its delta."""
    tl = reduce_two_level(n, [eps_w], sigma=sigma, policy=policy)
    return tl, float(tl.delta[0])


def _peak(tl):
    """(t_peak, p_peak) of a stack of one pair."""
    t_peak, p_peak = _reduced_peaks(tl)
    return float(t_peak[0]), float(p_peak[0])


def test_closed_evolution_reaches_unity_at_4pi_for_n64() -> None:
    h = _clean_hamiltonian(64)
    result = evolve_closed(h, [0.0, 4.0 * math.pi])
    assert result.p_w[0] == pytest.approx(1.0 / 64, abs=1e-12)
    assert result.p_w[-1] == pytest.approx(1.0, abs=1e-9)


def test_closed_evolution_matches_direct_propagator() -> None:
    n = 16
    h = _clean_hamiltonian(n, eps_w=0.12)
    times = np.linspace(0.0, 30.0, 40)
    result = evolve_closed(h, times)
    dense = h.dense()
    psi0 = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
    for k, t in enumerate(times):
        psi = scipy.linalg.expm(-1j * t * dense) @ psi0
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert result.p_w[k] == pytest.approx(abs(psi[0]) ** 2, abs=1e-11)


def test_closed_evolution_population_bounds_and_period() -> None:
    n = 64
    h = _clean_hamiltonian(n)
    delta = 2.0 / math.sqrt(n)
    times = np.linspace(0.0, 6.0 * math.pi / delta, 4001)
    result = evolve_closed(h, times)
    assert np.all(result.p_w >= 0.0)
    assert np.all(result.p_w <= 1.0)
    # the population is periodic with period 2*pi/delta
    shift = 2.0 * math.pi / delta
    again = evolve_closed(h, times[:100] + shift)
    assert np.max(np.abs(again.p_w - result.p_w[:100])) < 1e-9


def test_closed_evolution_first_peak_summary() -> None:
    h = _clean_hamiltonian(64)
    times = np.linspace(0.0, 6.0 * math.pi / 0.25, 8001)
    result = evolve_closed(h, times)
    assert result.t_peak == pytest.approx(4.0 * math.pi, rel=2e-3)
    assert result.p_peak == pytest.approx(1.0, abs=1e-6)
    assert result.summary()["repetitions"] == pytest.approx(1.0, rel=1e-6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=30))
def test_first_peak_picks_the_index_of_the_scan(levels) -> None:
    # few distinct values, so ties, plateaus and the half-maximum edge all occur
    values = np.array(levels, dtype=float) / 6.0
    times = np.linspace(0.0, 1.0, values.size)
    assert _first_peak(times, values)[2] == first_peak_index_by_loop(values)


def test_reduced_probability_starts_at_zero() -> None:
    # the closed form drops the O(1/n) initial weight
    tl, delta = _pair(10**6, 0.007)
    assert success_probability_reduced(tl, 0.0)[0] == 0.0
    half = success_probability_reduced(tl, math.pi / delta / 2.0)[0]
    full = success_probability_reduced(tl, math.pi / delta)[0]
    assert 0.0 < half < full


def test_reduced_peak_damped_by_marked_site_energy() -> None:
    tl, delta = _pair(10**6, 0.007)
    t_peak, p_peak = _peak(tl)
    assert p_peak == pytest.approx(1.0 / 13.25, rel=1e-12)
    assert t_peak == pytest.approx(math.pi / delta, rel=1e-14)
    assert success_probability_reduced(tl, t_peak)[0] == pytest.approx(p_peak, rel=1e-6)


def _exact_peak_n1024_eps02() -> float:
    _, delta = _pair(1024, 0.2)
    h = _clean_hamiltonian(1024, eps_w=0.2)
    result = evolve_closed(h, np.linspace(0.0, 3.0 * math.pi / delta, 6000))
    return result.p_peak


@pytest.mark.xfail(
    strict=True,
    reason="measured deviation of the exact peak from the first-order estimate "
    "0.0890 is 17.5% at n=1024, eps_w=0.2; n eps_w^2/4 = 10.24 is far outside "
    "the small-damage regime the estimate assumes",
)
def test_exact_peak_near_first_order_estimate_n1024_within_10pct() -> None:
    assert abs(_exact_peak_n1024_eps02() / 0.0890 - 1.0) < 0.10


def test_exact_peak_near_first_order_estimate_n1024_measured() -> None:
    p_exact = _exact_peak_n1024_eps02()
    assert p_exact == pytest.approx(0.073370, rel=2e-3)
    assert 0.10 < abs(p_exact / 0.0890 - 1.0) < 0.25


def test_reduced_peak_shifted_consistent_with_trajectory() -> None:
    tl, delta = _pair(10**5, -0.004, sigma=0.006, policy="shifted")
    t_peak, p_peak = _peak(tl)
    ts = np.linspace(0.0, 2.2 * math.pi / delta, 20001)
    traj = success_probability_reduced(tl, ts)[0]
    assert np.max(traj) == pytest.approx(p_peak, rel=1e-4)
    assert success_probability_reduced(tl, t_peak)[0] == pytest.approx(p_peak, rel=1e-6)


@pytest.mark.parametrize("eps_w", [0.0, 0.1, 0.3])
def test_reduced_matches_exact_evolution(eps_w: float) -> None:
    n = 1024
    h = _clean_hamiltonian(n, eps_w=eps_w)
    tl, delta = _pair(n, eps_w)
    times = np.linspace(0.0, 3.0 * math.pi / delta, 1500)
    exact = evolve_closed(h, times).p_w
    reduced = success_probability_reduced(tl, times)[0]
    assert np.max(np.abs(exact - reduced)) <= 0.05


def test_peak_decreases_with_marked_site_energy() -> None:
    n = 256
    peaks_formula = []
    peaks_exact = []
    for eps_w in (0.0, 0.1, 0.3):
        tl, delta = _pair(n, eps_w)
        peaks_formula.append(_peak(tl)[1])
        h = _clean_hamiltonian(n, eps_w=eps_w)
        result = evolve_closed(h, np.linspace(0.0, 3.0 * math.pi / delta, 4000))
        peaks_exact.append(result.p_peak)
    assert peaks_formula[0] > peaks_formula[1] > peaks_formula[2]
    assert peaks_exact[0] > peaks_exact[1] > peaks_exact[2]


def test_regime_boundary_is_inclusive() -> None:
    assert regime_classify(10**4, 0.0) == "weak"
    assert regime_classify(10**4, 0.01) == "weak"
    assert regime_classify(10**4, 0.0100001) == "strong"
    with pytest.raises(InvalidParameterError):
        regime_classify(1, 0.0)
    with pytest.raises(InvalidParameterError):
        regime_classify(64, -0.1)


def _plain_runtime(n: int, eps_w: float):
    """(t_single, repetitions, t_expected) of the plain pair: t_peak, 1/p_peak and their product."""
    t_peak, p_peak = _peak(_pair(n, eps_w)[0])
    return t_peak, 1.0 / p_peak, t_peak / p_peak


def test_reduced_peak_runtime_clean_case() -> None:
    t_single, repetitions, t_expected = _plain_runtime(10**4, 0.0)
    assert t_single == pytest.approx(math.pi * 50.0, rel=1e-14)
    assert repetitions == pytest.approx(1.0, rel=1e-14)
    assert t_expected == pytest.approx(math.pi * 50.0, rel=1e-14)


def test_reduced_peak_runtime_disordered_case() -> None:
    _, repetitions, t_expected = _plain_runtime(10**6, 0.007)
    assert repetitions == pytest.approx(13.25, rel=1e-12)
    assert t_expected == pytest.approx(5717.78, rel=1e-4)
    # closed form: product equals (pi sqrt(n)/2) sqrt(repetitions)
    ident = 0.5 * math.pi * 1000.0 * math.sqrt(13.25)
    assert t_expected == pytest.approx(ident, rel=1e-12)


def test_reduced_peak_runtime_scaling_with_n() -> None:
    # clean case: quadrupling n doubles the expected time exactly
    c1 = _plain_runtime(10**6, 0.0)[2]
    c2 = _plain_runtime(4 * 10**6, 0.0)[2]
    assert c2 / c1 == pytest.approx(2.0, rel=1e-12)
    # fixed eps_w: repetitions grow linearly in n on top of the sqrt
    r1 = _plain_runtime(10**6, 0.02)[2]
    r2 = _plain_runtime(4 * 10**6, 0.02)[2]
    assert r2 / r1 == pytest.approx(2.0 * math.sqrt(401.0 / 101.0), rel=1e-6)


def test_evolve_closed_rejects_bad_grids() -> None:
    h = _clean_hamiltonian(4)
    with pytest.raises(InvalidParameterError):
        evolve_closed(h, [-1.0, 0.0])
    with pytest.raises(InvalidParameterError):
        evolve_closed(h, [])
    with pytest.raises(InvalidParameterError):
        evolve_closed(h, [0.0, math.inf])


def _disordered_modes(n: int):
    """Levels and amplitude weights of a disordered complete graph, with its gap."""
    field = sample_disorder(n, 0.02, seed=11)
    h = build_search_hamiltonian(build_complete_graph(n), w=0, gamma=1.0 / n, disorder=field)
    levels, weights = _closed_modes(h, None)
    return levels, weights, float(levels[1] - levels[0])


@pytest.mark.parametrize("points", [65, 127, 2000, 4001])
def test_phase_product_matches_the_exponential_sum(points, monkeypatch) -> None:
    levels, weights, gap = _disordered_modes(512)
    times = np.linspace(0.0, 3.0 * math.pi / gap, points)
    taken = []
    product = unitary._phase_product

    def recorded(*args):
        taken.append(args[2].size)
        return product(*args)

    monkeypatch.setattr(unitary, "_phase_product", recorded)
    got = np.abs(_amplitudes(levels, weights, times)) ** 2
    assert taken == [math.ceil(points / unitary._PHASE_RESTART)]  # the anchors
    assert np.max(np.abs(got - np.abs(amplitudes_by_time(levels, weights, times)) ** 2)) <= 1e-13


@pytest.mark.parametrize("grid", ["short", "restart", "scattered", "one"])
def test_short_and_nonuniform_grids_take_the_exponential_path(grid, monkeypatch) -> None:
    def refuse(*_args):
        raise AssertionError("phase product used")

    monkeypatch.setattr(unitary, "_phase_product", refuse)
    levels, weights, gap = _disordered_modes(128)
    stop = 3.0 * math.pi / gap
    times = {
        "short": np.linspace(0.0, stop, 40),
        "restart": np.linspace(0.0, stop, unitary._PHASE_RESTART),
        "scattered": np.sort(np.random.default_rng(2).uniform(0.0, stop, 500)),
        "one": np.array([0.5 * stop]),
    }[grid]
    got = np.abs(_amplitudes(levels, weights, times)) ** 2
    assert np.max(np.abs(got - np.abs(amplitudes_by_time(levels, weights, times)) ** 2)) <= 1e-13


def test_phase_product_memory_is_bounded_by_the_phase_block() -> None:
    # 2^16 times at 4096 levels: one (times x levels) array would take 4 GiB
    rng = np.random.default_rng(4)
    levels = np.sort(rng.uniform(-1.0, 0.0, 4096))
    weights = rng.normal(size=4096) / 4096
    times = np.linspace(0.0, 200.0, 1 << 16)
    tracemalloc.start()
    try:
        _amplitudes(levels, weights, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one phase block, the output and one product of its size, and 1 MiB
    # for the weights' powers and the rest; 6.3 MB measured
    assert peak <= 16 * (unitary._PHASE_BLOCK + 2 * times.size) + (1 << 20)
