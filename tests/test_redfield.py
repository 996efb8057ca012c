from __future__ import annotations

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsearch.bath import BathSpec
from qsearch import model, redfield
from qsearch.errors import (
    ContractViolationError,
    DenseLimitError,
    InvalidParameterError,
    QSearchError,
)
from qsearch.redfield import (
    RedfieldTensor,
    SecularRates,
    _transfer_rates,
    assemble_redfield,
    integrate_master,
    secular_populations,
    solution_population,
    steady_state,
)
from qsearch.spectral import CouplingCoefficients, coupling_coefficients, eigendecompose, reduce_two_level
from reference import (
    analytic_population,
    analytic_rho_x,
    decay_time_by_polyfit,
    pair_coefficients,
    pauli_two_level_matrix,
    redfield_generator,
    site_sums,
    traces,
)

ZERO_T = BathSpec(g=0.02, beta=math.inf, omega_c=2.0)


def _clean_system(n: int):
    tl = reduce_two_level(n, [0.0], policy="plain")
    return tl, pair_coefficients(tl)


def _rates(co: CouplingCoefficients, bath: BathSpec, delta) -> SecularRates:
    """_transfer_rates of one pair, its Lambda_12 and delta as 0-d arrays."""
    return _transfer_rates(np.asarray(site_sums(co)[0][0, 1]), bath, np.asarray(delta, dtype=float))


def _damping(co: CouplingCoefficients, bath: BathSpec, delta) -> float:
    """The pair's coherence damping rate, 1/(2 t_rel) of its transfer rates."""
    return 0.5 / _rates(co, bath, delta).t_rel


def test_generator_preserves_trace() -> None:
    tl, co = _clean_system(10**4)
    tensor = assemble_redfield(co, tl.eigenvalues[0], ZERO_T)
    gen = tensor.generator()
    m = 2
    # column sums of the vectorized generator restricted to basis matrices
    for j in range(m * m):
        e = np.zeros(m * m)
        e[j] = 1.0
        out = (gen @ e).reshape(m, m)
        assert abs(np.trace(out)) < 1e-14


def test_evolution_preserves_hermiticity_and_trace() -> None:
    tl, co = _clean_system(256)
    tensor = assemble_redfield(co, tl.eigenvalues[0], ZERO_T)
    rho0 = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]], dtype=complex)
    times = np.linspace(0.0, 2000.0, 60)
    traj = integrate_master(tensor, rho0, times)
    assert np.max(np.abs(traces(traj) - 1.0)) < 1e-9
    herm = np.max(np.abs(traj.rhos - np.conj(np.transpose(traj.rhos, (0, 2, 1)))))
    assert herm < 1e-9


def test_zero_coupling_reduces_to_phase_evolution() -> None:
    tl, co = _clean_system(256)
    tensor = assemble_redfield(co, tl.eigenvalues[0], BathSpec(g=0.0, beta=math.inf, omega_c=2.0))
    # x = (sqrt2 Im rho_01, sqrt2 Re rho_01, rho_00, rho_11): only omega_01 couples Re and Im
    omega = tl.eigenvalues[0, 0] - tl.eigenvalues[0, 1]
    gen = np.array(tensor.g)
    assert (gen[1, 0], gen[0, 1]) == (omega, -omega)
    gen[1, 0] = gen[0, 1] = 0.0
    assert np.max(np.abs(gen)) == 0.0
    rho0 = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    times = np.linspace(0.0, 50.0, 7)
    traj = integrate_master(tensor, rho0, times)
    phase = rho0[0, 1] * np.exp(-1j * (tl.eigenvalues[0, 0] - tl.eigenvalues[0, 1]) * times)
    assert np.max(np.abs(traj.rhos[:, 0, 1] - phase)) < 1e-12
    assert np.max(np.abs(traj.rhos[:, 0, 0] - 0.7)) < 1e-12


def test_damping_rate_reference_value() -> None:
    tl, co = _clean_system(10**4)
    gamma = _damping(co, ZERO_T, tl.delta[0])
    assert gamma == pytest.approx(6.221289e-6, rel=1e-6)
    # pi * o1 * (S(delta) + S(-delta)), the coherence's own damping sum
    _, o1 = site_sums(co)
    assert gamma == pytest.approx(
        math.pi * o1 * 2.0 * 0.0004 * tl.delta[0] * math.exp(-tl.delta[0] / 2.0) / 2.0,
        rel=1e-12,
    )


def test_trajectory_matches_analytic_two_level_curve() -> None:
    tl, co = _clean_system(10**4)
    gamma = _damping(co, ZERO_T, tl.delta[0])
    tensor = assemble_redfield(co, tl.eigenvalues[0], ZERO_T)
    rho0 = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)
    times = np.linspace(0.0, 5.0 / gamma, 1500)
    traj = integrate_master(tensor, rho0, times)
    pw = solution_population(traj, tl.overlaps[0, :2])
    analytic = 0.5 * (1.0 + analytic_rho_x(times, gamma, tl.delta[0]))
    assert np.max(np.abs(pw.values - analytic)) < 1e-10
    ss = steady_state(tensor)
    a1, a2 = tl.overlaps[0, :2]
    pw_ss = float(
        np.real(
            a1**2 * ss[0, 0] + a2**2 * ss[1, 1] + 2.0 * a1 * a2 * np.real(ss[0, 1])
        )
    )
    assert pw_ss == pytest.approx(0.5, abs=1e-10)


def test_trajectory_follows_the_critically_damped_curve() -> None:
    tl, co = _clean_system(256)
    base = _damping(co, BathSpec(g=1.0, beta=math.inf, omega_c=2.0), tl.delta[0])
    g_needed = math.sqrt(0.5 * tl.delta[0] / base)
    bath = BathSpec(g=g_needed, beta=math.inf, omega_c=2.0)
    gamma = _damping(co, bath, tl.delta[0])
    assert gamma / tl.delta[0] == pytest.approx(0.5, rel=1e-12)
    tensor = assemble_redfield(co, tl.eigenvalues[0], bath)
    rho0 = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)
    times = np.linspace(0.0, 5.0 / gamma, 800)
    analytic = analytic_rho_x(times, gamma, tl.delta[0])
    traj = integrate_master(tensor, rho0, times)
    rho_x = 2.0 * np.real(traj.rhos[:, 0, 1])
    assert np.max(np.abs(rho_x - analytic)) < 1e-8


def test_thermal_fixed_point_random_gaps() -> None:
    rng = np.random.default_rng(42)
    for _ in range(10):
        beta_delta = rng.uniform(0.1, 5.0)
        n = int(rng.integers(64, 4096))
        tl, co = _clean_system(n)
        bath = BathSpec(g=0.05, beta=beta_delta / tl.delta[0], omega_c=2.0)
        gibbs = 1.0 / (1.0 + math.exp(-beta_delta))
        tensor = assemble_redfield(co, tl.eigenvalues[0], bath)
        ss = steady_state(tensor)
        assert float(np.real(ss[0, 0])) == pytest.approx(gibbs, abs=1e-4)
        rates = _rates(co, bath, tl.delta[0])
        assert rates.p_suc == pytest.approx(gibbs, abs=1e-4)
        assert rates.w12 / rates.w21 == pytest.approx(math.exp(beta_delta), rel=1e-10)


def test_three_level_system_thermalizes_to_gibbs() -> None:
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    lam = np.array([-1.1, -0.9, 0.0])
    h3 = q @ np.diag(lam) @ q.T
    spec3 = eigendecompose(h3)
    co3 = coupling_coefficients(spec3, 3)
    bath = BathSpec(g=0.05, beta=15.0, omega_c=2.0)
    tensor = assemble_redfield(co3, spec3, bath)
    gibbs = np.exp(-15.0 * lam)
    gibbs /= gibbs.sum()
    evals = np.linalg.eigvals(tensor.generator())
    slowest = min(-ev.real for ev in evals if ev.real < -1e-14)
    times = np.linspace(0.0, 16.0 / slowest, 400)
    traj = integrate_master(tensor, np.eye(3, dtype=complex) / 3.0, times)
    pops = np.real(np.diagonal(traj.rhos, axis1=1, axis2=2))
    assert np.max(np.abs(pops[-1] - gibbs)) < 1e-4
    assert np.max(np.abs(traces(traj) - 1.0)) < 1e-9
    ss = steady_state(tensor)
    assert np.max(np.abs(np.real(np.diag(ss)) - gibbs)) < 1e-8


def test_pauli_vector_form_structure() -> None:
    tl, co = _clean_system(10**4)
    m, b = pauli_two_level_matrix(co, ZERO_T, tl.delta[0])
    # disorder-free: O2 = O3 = 0, so x couples only to y through the splitting
    assert m[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert m[0, 1] == pytest.approx(tl.delta[0], rel=1e-12)
    assert m[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert m[1, 0] == pytest.approx(-tl.delta[0], rel=1e-12)
    assert b[0] == b[1] == 0.0


def test_pauli_fixed_point_is_thermal() -> None:
    tl, co = _clean_system(10**4)
    bath = BathSpec(g=0.02, beta=20.0, omega_c=2.0)
    m, b = pauli_two_level_matrix(co, bath, tl.delta[0])
    z_star = float(np.linalg.solve(m, -b)[2])
    assert z_star == pytest.approx(math.tanh(10.0 * tl.delta[0]), abs=1e-12)


def test_analytic_curve_limits() -> None:
    times = np.linspace(0.0, 40.0, 300)
    undamped = analytic_rho_x(times, 0.0, 0.5)
    assert np.max(np.abs(undamped + np.cos(0.5 * times))) < 1e-12
    # branch continuity near the critically damped point
    delta = 0.02
    near = analytic_rho_x(times, delta / 2 * (1 + 5e-7), delta)
    at = analytic_rho_x(times, delta / 2, delta)
    assert np.max(np.abs(near - at)) < 1e-5


def test_analytic_population_overdamped_slow_rate() -> None:
    tl, _ = _clean_system(10**4)
    gamma = 5.0 * tl.delta[0]
    slow = tl.delta[0]**2 / (2.0 * gamma)
    times = np.linspace(1.0 / gamma, 40.0 / slow, 2500)
    pw = analytic_population(times, gamma, tl.delta[0])
    assert bool(np.all(np.diff(pw) >= -1e-15))
    approx = 0.5 * (1.0 - np.exp(-times * slow))
    assert np.max(np.abs(pw - approx)) <= 0.01


@pytest.mark.xfail(
    strict=True,
    reason="with the slow rate written as delta^2/gamma the overdamped curve "
    "deviates by 0.126 at gamma = 5 delta; the factor-2 variant above stays "
    "within 0.005, identifying delta^2/(2 gamma) as the correct rate",
)
def test_analytic_population_overdamped_rate_without_factor_two() -> None:
    tl, _ = _clean_system(10**4)
    gamma = 5.0 * tl.delta[0]
    times = np.linspace(1.0 / gamma, 40.0 * gamma / tl.delta[0]**2, 2500)
    pw = analytic_population(times, gamma, tl.delta[0])
    approx = 0.5 * (1.0 - np.exp(-times * tl.delta[0]**2 / gamma))
    assert np.max(np.abs(pw - approx)) <= 0.04


def test_analytic_population_underdamped_oscillates() -> None:
    tl, co = _clean_system(10**4)
    gamma = _damping(co, ZERO_T, tl.delta[0])
    times = np.linspace(0.0, 5.0 / gamma, 4000)
    pw = analytic_population(times, gamma, tl.delta[0])
    d = np.diff(pw)
    sign_changes = int(np.sum(np.abs(np.diff(np.sign(d[np.abs(d) > 1e-16]))) > 0))
    assert sign_changes >= 2


def test_secular_rates_thermal_success_probability() -> None:
    co = pair_coefficients(reduce_two_level(10**6, [0.0], sigma=0.007, policy="plain"))
    rates = _rates(co, BathSpec(g=0.02, beta=40.0, omega_c=2.0), 0.05)
    assert rates.p_suc == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), rel=1e-12)


def test_secular_rates_zero_temperature() -> None:
    co = pair_coefficients(reduce_two_level(10**6, [0.0], sigma=0.007, policy="plain"))
    rates = _rates(co, BathSpec(g=0.02, beta=math.inf, omega_c=2.0), 0.05)
    assert rates.w21 == 0.0
    assert rates.p_suc == 1.0
    assert rates.t_rel == pytest.approx(1.0 / rates.w12, rel=1e-14)


def test_secular_relaxation_time_thermal_speedup() -> None:
    # w12 + w21 scales like coth(beta delta / 2) relative to zero temperature
    co = pair_coefficients(reduce_two_level(10**6, [0.0], sigma=0.007, policy="plain"))
    warm = _rates(co, BathSpec(g=0.02, beta=15.0, omega_c=2.0), 0.011)
    cold = _rates(co, BathSpec(g=0.02, beta=math.inf, omega_c=2.0), 0.011)
    assert warm.t_rel / cold.t_rel == pytest.approx(math.tanh(0.0825), rel=1e-12)


def test_secular_population_curve_value() -> None:
    co = pair_coefficients(reduce_two_level(10**6, [0.0], sigma=0.007, policy="plain"))
    rates = _rates(co, BathSpec(g=0.02, beta=15.0, omega_c=2.0), 0.011)
    p_suc = 1.0 / (1.0 + math.exp(-0.165))
    predicted = p_suc * (1.0 - math.exp(-1.0)) + math.exp(-1.0) * 1e-6
    assert secular_populations(rates, rates.t_rel, 1e-6) == pytest.approx(predicted, rel=1e-6)
    times = np.linspace(0.0, 6.0 * rates.t_rel, 200)
    curve = secular_populations(rates, times, 1e-6)
    assert curve[0] == pytest.approx(1e-6, rel=1e-12)
    assert bool(np.all(np.diff(curve) > 0.0))
    assert curve[-1] == pytest.approx(rates.p_suc, rel=1e-2)


def test_secular_rates_outside_the_coarse_graining_bound_are_computed() -> None:
    # the refusal is the runner's (test_relax_refuses_outside_the_coarse_graining_bound)
    co = pair_coefficients(reduce_two_level(10**6, [0.0], sigma=0.007, policy="plain"))
    bath = BathSpec(g=0.5, beta=15.0, omega_c=2.0)
    rates = _rates(co, bath, 0.011)
    assert rates.w12 > 0.0


def test_secular_rates_of_a_stack_are_each_pair_s_rates() -> None:
    tls = reduce_two_level(10**6, [-0.006, 0.0, 0.005], sigma=0.007, policy="plain")
    coeffs = [pair_coefficients(tls, i) for i in range(3)]
    deltas = np.array([0.02, 0.005, 0.001])
    bath = BathSpec(g=0.02, beta=15.0, omega_c=2.0)
    stack = _transfer_rates(np.array([site_sums(co)[0][0, 1] for co in coeffs]), bath, deltas)
    for i, (co, delta) in enumerate(zip(coeffs, deltas)):
        one = _rates(co, bath, delta)
        assert [x[i] for x in vars(stack).values()] == list(vars(one).values())


def test_assemble_outside_the_memory_bound_builds_the_tensor() -> None:
    # the refusal is the runner's (test_relax_refuses_outside_the_memory_bound)
    tl, co = _clean_system(256)
    bath = BathSpec(g=0.1, beta=15.0, omega_c=2.0)
    tensor = assemble_redfield(co, tl.eigenvalues[0], bath)
    assert tensor.g.shape == (4, 4)


def _decay_time(times, series, target: float):
    """(t_rel, note) of one series: the one row of its _decay_times stack."""
    (t_rel,), (note,) = redfield._decay_times(times[None], series[None], np.array([target]))
    return t_rel, note


def test_decay_time_synthetic_exponential() -> None:
    times = np.linspace(0.0, 400.0, 2000)
    series = 0.6 - 0.5 * np.exp(-0.01 * times)
    assert _decay_time(times, series, 0.6) == (pytest.approx(100.0, rel=0.01), "")


def test_decay_time_secular_curve() -> None:
    co = pair_coefficients(reduce_two_level(10**6, [0.0], sigma=0.007, policy="plain"))
    rates = _rates(co, BathSpec(g=0.02, beta=15.0, omega_c=2.0), 0.011)
    times = np.linspace(0.0, 6.0 * rates.t_rel, 3000)
    series = secular_populations(rates, times, 1e-6)
    assert _decay_time(times, series, rates.p_suc) == (pytest.approx(rates.t_rel, rel=0.02), "")


def test_decay_time_oscillatory_envelope() -> None:
    tl, co = _clean_system(10**4)
    gamma = _damping(co, ZERO_T, tl.delta[0])
    times = np.linspace(0.0, 5.0 / gamma, 4000)
    series = analytic_population(times, gamma, tl.delta[0])
    assert _decay_time(times, series, 0.5) == (pytest.approx(1.0 / gamma, rel=0.10), "")


def test_decay_time_unconverged_series() -> None:
    times = np.linspace(0.0, 10.0, 100)
    series = 0.6 - 0.5 * np.exp(-0.001 * times)
    t_rel, note = _decay_time(times, series, 0.6)
    assert math.isnan(t_rel) and note.startswith("series is ") and "from target at window end" in note


_SERIES_KINDS = ("monotone", "oscillatory", "steps", "zeros", "few", "growing", "unconverged")


def _series(kind: str, times: np.ndarray, target: float, amp: float, frac: float, seed: int) -> np.ndarray:
    """One synthetic approach to target of the given kind on times."""
    rng = np.random.default_rng(seed)
    span = times[-1]
    decay = np.exp(-times / (frac * span))
    if kind == "monotone":
        return target + amp * target * decay
    if kind == "oscillatory":
        turns = 2.0 + 18.0 * rng.random()
        return target + amp * target * decay * np.cos(2.0 * np.pi * turns * times / span + rng.random())
    if kind == "steps":
        # quantised, so that the window holds zero steps and, once the
        # residual rounds to zero, zero residuals
        quantum = 1e-3 * target
        return target + np.round(amp * target * decay / quantum) * quantum
    if kind == "zeros":
        v = target + amp * target * decay
        v[rng.random(times.size) < 0.3] = target
        return v
    if kind == "few":
        v = np.full(times.size, target)
        v[rng.integers(times.size)] += 0.01 * amp * target
        return v
    if kind == "growing":
        return target + 0.04 * amp * target * np.exp((times - span) / (frac * span))
    return target + amp * target * np.exp(-times / (20.0 * span))  # unconverged


@settings(max_examples=200, deadline=None)
@given(
    points=st.integers(4, 300),
    rows=st.lists(
        st.tuples(
            st.sampled_from(_SERIES_KINDS),
            st.floats(1.0, 1e4),
            st.floats(0.1, 0.9),
            st.sampled_from([-1.0, 1.0]).flatmap(lambda sign: st.floats(0.1, 1.0).map(lambda a: sign * a)),
            st.floats(0.03, 0.3),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_row_fit_matches_the_polyfit_reference_row_by_row(points, rows) -> None:
    """Each row of a stack is its one-row call bit for bit, and the per-series polyfit within 1e-10."""
    times = np.array([np.linspace(0.0, span, points) for _, span, *_ in rows])
    targets = np.array([target for _, _, target, *_ in rows])
    values = np.array([
        _series(kind, t, target, amp, frac, seed)
        for t, (kind, _, target, amp, frac, seed) in zip(times, rows)
    ])
    fits, notes = redfield._decay_times(times, values, targets)
    assert fits.shape == (len(rows),) and len(notes) == len(rows)
    for i, (t, v, target) in enumerate(zip(times, values, targets)):
        (alone,), (note,) = redfield._decay_times(t[None], v[None], targets[i : i + 1])
        assert (alone == fits[i] or (math.isnan(alone) and math.isnan(fits[i]))) and note == notes[i]
        residual = np.abs(v[int(0.4 * t.size) :] - target)
        kept = residual[residual > 0.0]
        if residual[-1] <= 0.05 * abs(target) and kept.size >= 2 and (kept == kept[0]).all():
            # a constant residual has slope 0, whatever sign the rounding of
            # its mean gives the polyfit reference's slope
            assert math.isnan(fits[i]) and note.startswith("residual is not decaying")
            continue
        expected, expected_note = decay_time_by_polyfit(t, v, target)
        assert notes[i] == expected_note
        if expected_note:
            assert math.isnan(fits[i])
        else:
            assert fits[i] == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_a_constant_residual_is_not_decaying() -> None:
    """Its slope is 0, not the sign that the rounding of the log-residuals' mean gives it."""
    rng = np.random.default_rng(11)
    for _ in range(2000):
        points = int(rng.integers(4, 2000))
        times = np.linspace(0.0, rng.uniform(1.0, 1e4), points)
        target = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.9)
        values = np.full(points, target + rng.choice([-1.0, 1.0]) * 0.05 * abs(target) * rng.uniform(1e-6, 1.0))
        head = int(0.4 * points)
        values[:head] = target + 0.5 * target * np.exp(-times[:head] / times[-1])
        (fit,), (note,) = redfield._decay_times(times[None], values[None], np.array([target]))
        assert math.isnan(fit) and note == "residual is not decaying (fit slope 0)"


def test_row_fit_does_not_depend_on_the_stack_layout() -> None:
    """A column-major stack, as np.linspace lays one out, gives each row's own bits."""
    rng = np.random.default_rng(7)
    spans = rng.uniform(1.0, 1e3, 64)
    times = np.linspace(0.0, spans, 400, axis=-1)
    assert times.flags.f_contiguous
    targets = rng.uniform(0.2, 0.8, 64)
    values = targets[:, None] * (1.0 - 0.9 * np.exp(-times / (0.1 * spans[:, None])))
    fits, notes = redfield._decay_times(times, values, targets)
    assert notes == [""] * 64
    alone = [redfield._decay_times(t[None], v[None], targets[i : i + 1])[0][0]
             for i, (t, v) in enumerate(zip(times, values))]
    assert fits.tolist() == alone


def test_row_fit_covers_every_branch() -> None:
    """The property test's kinds reach the envelope and each reason for no estimate."""
    times = np.linspace(0.0, 100.0, 200)
    notes = {
        "oscillatory": "",
        "steps": "",
        "few": "too few nonzero residuals to fit a decay rate",
        "growing": "residual is not decaying",
        "unconverged": "from target at window end",
    }
    values = np.array([_series(kind, times, 0.5, 0.8, 0.1, 3) for kind in notes])
    fits, got = redfield._decay_times(np.tile(times, (len(notes), 1)), values, np.full(len(notes), 0.5))
    for fit, note, expected in zip(fits, got, notes.values()):
        assert (expected in note if expected else note == "") and math.isnan(fit) == bool(expected)
    # the oscillatory series is fitted through its envelope, which decays in 10
    assert fits[0] == pytest.approx(10.0, rel=0.05)


def test_solution_population_identities() -> None:
    tl, co = _clean_system(10**4)
    tensor = assemble_redfield(co, tl.eigenvalues[0], ZERO_T)
    rho0 = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)
    times = np.linspace(0.0, 1000.0, 50)
    traj = integrate_master(tensor, rho0, times)
    pw = solution_population(traj, tl.overlaps[0, :2])
    rho_x = 2.0 * np.real(traj.rhos[:, 0, 1])
    a1, a2 = tl.overlaps[0, :2]
    diag_part = a1**2 * np.real(traj.rhos[:, 0, 0]) + a2**2 * np.real(traj.rhos[:, 1, 1])
    expected = diag_part + a1 * a2 * rho_x
    assert np.max(np.abs(pw.values - expected)) < 1e-12
    assert tl.truncation_bound == pytest.approx(2.0 / 10**4, rel=1e-12)


def test_solution_population_maximally_mixed() -> None:
    tl, co = _clean_system(64)
    tensor = assemble_redfield(co, tl.eigenvalues[0], ZERO_T)
    traj = integrate_master(tensor, np.eye(2, dtype=complex) / 2.0, np.array([0.0]))
    pw = solution_population(traj, tl.overlaps[0, :2])
    assert pw.values[0] == pytest.approx(0.5, abs=1e-12)


def test_solution_population_shifted_ground_state() -> None:
    # n (sigma - eps_w)^2 = 64, so the marked weight of the ground state
    # should sit within 1/64 of 1 - 1/64
    n, sigma, eps_w = 10**4, 0.05, -0.03
    tl = reduce_two_level(n, [eps_w], sigma=sigma, policy="shifted")
    co = pair_coefficients(tl)
    tensor = assemble_redfield(co, tl.eigenvalues[0], BathSpec(g=0.02, beta=math.inf, omega_c=2.0))
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[0, 0] = 1.0
    traj = integrate_master(tensor, rho0, np.array([0.0]))
    pw = solution_population(traj, tl.overlaps[0, :2])
    assert pw.values[0] == pytest.approx(tl.overlaps[0, 0] ** 2, abs=1e-12)
    assert pw.values[0] == pytest.approx(0.98646, abs=1e-4)
    assert abs(pw.values[0] - (1.0 - 1.0 / 64.0)) < 1.0 / 64.0
    assert tl.truncation_bound == pytest.approx(1.0 / (sigma * 100.0), rel=1e-12)


def test_integrate_master_input_validation() -> None:
    tl, co = _clean_system(256)
    tensor = assemble_redfield(co, tl.eigenvalues[0], ZERO_T)
    good = np.eye(2, dtype=complex) / 2.0
    times = np.array([0.0, 1.0])
    with pytest.raises(ContractViolationError):
        integrate_master(tensor, np.array([[0.6, 0.4], [0.1, 0.4]], dtype=complex), times)
    with pytest.raises(ContractViolationError):
        integrate_master(tensor, 0.6 * good, times)
    neg = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
    with pytest.raises(ContractViolationError):
        integrate_master(tensor, neg, times)
    # NaN fails every comparison, so only an explicit finiteness check sees it
    with pytest.raises(ContractViolationError, match="finite"):
        integrate_master(tensor, np.array([[np.nan, 0.0], [0.0, 0.5]], dtype=complex), times)
    with pytest.raises(InvalidParameterError):
        integrate_master(tensor, good, np.array([1.0, 0.5]))


def test_integrate_master_takes_only_tensor_rho0_and_times() -> None:
    # one propagator: a route or tolerance knob is a branch every caller must reason about
    assert list(inspect.signature(integrate_master).parameters) == ["tensor", "rho0", "times"]


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; returns the record."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _complex_oracle(tensor: RedfieldTensor, rho0: np.ndarray, times) -> np.ndarray:
    """rho(t) = exp(L t) rho0 for each time, by scipy on the complex generator."""
    from scipy.linalg import expm

    gen = tensor.generator()
    return np.array([expm(gen * t) @ rho0.reshape(-1) for t in times])


def test_steps_follow_a_defective_generator() -> None:
    # one Jordan block: rho11 feeds rho00 at the shared decay rate, so the
    # generator has no eigenvector basis; exp(G h) needs none. In
    # x = (sqrt2 Im rho_01, sqrt2 Re rho_01, rho_00, rho_11)
    gen = -0.5 * np.eye(4)
    gen[2, 3] = 0.3
    tensor = RedfieldTensor(m=2, g=gen)
    assert np.linalg.cond(np.linalg.eig(tensor.generator())[1]) > 1e10
    rho0 = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]], dtype=complex)
    times = np.linspace(0.0, 12.0, 40)
    traj = integrate_master(tensor, rho0, times)
    oracle = _complex_oracle(tensor, rho0, times)
    assert np.max(np.abs(traj.rhos.reshape(len(times), 4) - oracle)) <= 1e-12


def _leaking_tensor() -> RedfieldTensor:
    """rho11 feeds rho00 at less than its own decay rate: trace leaks away.

    In x = (sqrt2 Im rho_01, sqrt2 Re rho_01, rho_00, rho_11).
    """
    gen = np.diag([-0.2, -0.2, -0.5, -0.3])
    gen[2, 3] = 0.1
    return RedfieldTensor(m=2, g=gen)


def test_every_grid_follows_a_generator_that_does_not_preserve_trace() -> None:
    # no trace row may be pinned
    tensor = _leaking_tensor()
    assert not tensor.preserves_trace
    rho0 = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]], dtype=complex)
    grids = (
        np.linspace(0.0, 12.0, 40),
        np.linspace(0.0, 12.0, 4),
        np.concatenate((np.linspace(0.5, 2.0, 5), np.linspace(7.0, 12.0, 5))),
    )
    for times in grids:
        traj = integrate_master(tensor, rho0, times)
        oracle = _complex_oracle(tensor, rho0, times)
        assert np.max(np.abs(traj.rhos.reshape(len(times), 4) - oracle)) <= 1e-12


def test_non_uniform_grids_take_one_exponential_per_distinct_step(monkeypatch) -> None:
    spec, co4, rho4 = _random_levels(4, 7)
    tensor4 = assemble_redfield(co4, spec, BathSpec(g=0.02, beta=15.0, omega_c=2.0))
    # criterion 8's kind of grid: uniform windows with growing gaps between them
    starts = [3.0, 8.0, *np.geomspace(30.0, 300.0, 4)]
    windows = np.concatenate([np.linspace(a, a + 5.0, 16, endpoint=False) for a in starts])
    late = np.linspace(1.0, 2.0, 16)
    repeated = np.array([0.0, 0.0, 0.5, 0.5, 0.5, 2.0, 3.5, 3.5])
    for times in (windows, late, repeated):
        expms = _counting(monkeypatch, redfield, "_expm")
        traj = integrate_master(tensor4, rho4, times)
        steps = np.diff(times, prepend=0.0)
        assert len(expms) == np.unique(steps[steps > 0]).size
        oracle = _complex_oracle(tensor4, rho4, times)
        assert np.max(np.abs(traj.rhos.reshape(len(times), 16) - oracle)) <= 1e-12
        assert np.max(np.abs(traces(traj) - 1.0)) <= 1e-12
        monkeypatch.undo()
    # a zero step copies the row before
    assert np.array_equal(traj.rhos[0], traj.rhos[1]) and np.array_equal(traj.rhos[2], traj.rhos[4])


def test_one_long_step_matches_a_high_precision_exponential() -> None:
    import mpmath

    tl, co = _clean_system(256)
    warm = assemble_redfield(co, tl.eigenvalues[0], BathSpec(g=0.02, beta=5.0, omega_c=2.0))
    mixed = np.array([[0.3, 0.2], [0.2, 0.7]], dtype=complex)
    gen = warm.generator()
    # about 20, 30 and 40 squarings, with no cap and no sub-steps
    assert redfield._squarings(warm.g, 1e14) >= 40
    for t_max in (1e8, 1e11, 1e14):
        traj = integrate_master(warm, mixed, np.array([0.0, t_max]))
        with mpmath.workdps(60):
            e = mpmath.expm(mpmath.matrix(gen.tolist()) * t_max)
            oracle = np.array((e * mpmath.matrix(mixed.reshape(4).tolist())).tolist(), dtype=complex)
        # pinning the trace row keeps rounding from growing by 2^s
        assert np.max(np.abs(traj.rhos[1].reshape(4) - oracle.reshape(4))) <= 1e-13


def _series_product(p: list, q: list, order: int) -> list:
    """Coefficients of p(x) q(x) up to x^order."""
    out = [0] * (order + 1)
    for i, a in enumerate(p[: order + 1]):
        if a:
            for j, b in enumerate(q[: order + 1 - i]):
                out[i + j] += a * b
    return out


def test_t18_coefficients_give_the_degree_18_taylor_polynomial() -> None:
    import mpmath

    with mpmath.workdps(40):
        # I, A, A^2, A^3 and A^6 as polynomials in x, then B1..B5 from their table
        basis = [[mpmath.mpf(int(k == d)) for k in range(19)] for d in (0, 1, 2, 3, 6)]
        b1, b2, b3, b4, b5 = (
            [sum(mpmath.mpf(float(c)) * x[k] for c, x in zip(row, basis)) for k in range(19)]
            for row in redfield._T18
        )
        a9 = [x + y for x, y in zip(_series_product(b1, b5, 18), b4)]
        t18 = [x + y for x, y in zip(b2, _series_product([x + y for x, y in zip(b3, a9)], a9, 18))]
        for k, c in enumerate(t18):
            assert abs(c * mpmath.factorial(k) - 1) <= 2e-15


def test_theta18_bounds_the_backward_error_by_the_unit_roundoff() -> None:
    import mpmath

    order = 80
    with mpmath.workdps(40):
        # q = e^-x T18(x) - 1 starts at x^19, so q^5 and beyond start past x^80
        e_minus = [mpmath.mpf(-1) ** k / mpmath.factorial(k) for k in range(order + 1)]
        taylor = [1 / mpmath.factorial(k) for k in range(19)]
        q = _series_product(e_minus, taylor, order)
        q[0] -= 1
        log = [mpmath.mpf(0)] * (order + 1)
        power = q
        for j in range(1, 5):
            log = [x + (-1) ** (j + 1) * y / j for x, y in zip(log, power)]
            power = _series_product(power, q, order)
        assert all(abs(c) < 1e-30 for c in log[:19])
        theta = mpmath.findroot(
            lambda x: sum(abs(log[k]) * x ** (k - 1) for k in range(19, order + 1)) - mpmath.mpf(2) ** -53,
            1.09,
        )
        assert abs(theta - redfield._THETA18) <= 1e-15


@pytest.mark.parametrize("squarings", [0, 3])
@pytest.mark.parametrize("pinned", [0, 3])
def test_t18_exponential_matches_a_high_precision_one(squarings, pinned) -> None:
    import mpmath

    rng = np.random.default_rng(30 + 10 * squarings + pinned)
    g = rng.normal(size=(6, 6))
    if pinned:
        # the last pinned rows sum to zero in every column, so t^T exp(g h) = t^T
        g[-pinned:] -= g[-pinned:].sum(axis=0) / pinned
    # just inside the norm that takes this many squarings
    h = 0.99 * 2**squarings * redfield._THETA18 / np.abs(g).sum(axis=0).max()
    assert redfield._squarings(g, h) == squarings
    e = redfield._expm(g.copy(), h, squarings, pinned)
    with mpmath.workdps(50):
        oracle = np.array(mpmath.expm(mpmath.matrix(g.tolist()) * h).tolist(), dtype=float)
    assert np.max(np.abs(e - oracle)) <= 1e-14 * np.max(np.abs(oracle))


def test_block_steps_keep_the_trace_within_rounding() -> None:
    # N = 40000 points at m = 2 fill 10000 rows per product from E..E^10000;
    # their trace rows are pinned, without which tr rho drifts by ~1e-12
    tl, co = _clean_system(10**4)
    for beta in (math.inf, 15.0, 5.0):
        tensor = assemble_redfield(co, tl.eigenvalues[0], BathSpec(g=0.02, beta=beta, omega_c=2.0))
        rho0 = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]], dtype=complex)
        traj = integrate_master(tensor, rho0, np.linspace(0.0, 4e5, 40000))
        assert np.max(np.abs(traces(traj) - 1.0)) <= 1e-14


def test_open_full_size_matches_the_exponential() -> None:
    # open_full's size: m = 16 at N = 200 points steps one row at a time
    spec, co16, rho16 = _random_levels(16, 4)
    tensor16 = assemble_redfield(co16, spec, BathSpec(g=0.02, beta=15.0, omega_c=2.0))
    times = np.linspace(0.0, 2000.0, 200)
    traj = integrate_master(tensor16, rho16, times)
    some = np.r_[0:200:20, 199]
    oracle = _complex_oracle(tensor16, rho16, times[some])
    assert np.max(np.abs(traj.rhos[some].reshape(some.size, 256) - oracle)) <= 1e-10


def test_many_distinct_steps_are_refused_before_any_exponential(monkeypatch) -> None:
    spec, co, rho0 = _random_levels(4, 2)
    tensor = assemble_redfield(co, spec, ZERO_T)
    times = np.cumsum(np.arange(1.0, 11.0))  # ten distinct steps
    monkeypatch.setattr(model, "_memory_budget", lambda: 10 * 8 * 4**4 - 1)
    expms = _counting(monkeypatch, redfield, "_expm")
    with pytest.raises(DenseLimitError, match="10 distinct time steps at m=4"):
        integrate_master(tensor, rho0, times)
    assert not expms
    monkeypatch.setattr(model, "_memory_budget", lambda: 10 * 8 * 4**4)
    assert integrate_master(tensor, rho0, times).rhos.shape == (10, 4, 4)
    assert len(expms) == 10


def test_assemble_rejects_oversized_systems(monkeypatch) -> None:
    # the refusal depends on the memory left, so pin it to a 7.7 GB machine's
    monkeypatch.setattr(model, "_memory_budget", lambda: 7.7e9)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(129, 129))
    spec = eigendecompose(0.5 * (a + a.T))
    co = coupling_coefficients(spec, 129)
    with pytest.raises(DenseLimitError, match="m=129"):
        assemble_redfield(co, spec, ZERO_T)


def test_assemble_refuses_what_the_memory_budget_cannot_hold(monkeypatch) -> None:
    spec, co, _ = _random_levels(4, seed=2)
    need = 7 * 8 * 4**4  # the pipeline's peak, seven m^4 arrays of doubles
    monkeypatch.setattr(model, "_memory_budget", lambda: need)
    assert assemble_redfield(co, spec, ZERO_T).m == 4

    def no_rates(*_args):
        raise AssertionError("a rate was computed before the refusal")

    monkeypatch.setattr(model, "_memory_budget", lambda: need - 1)
    monkeypatch.setattr(redfield, "rate_S", no_rates)
    with pytest.raises(DenseLimitError, match="m=4"):
        assemble_redfield(co, spec, ZERO_T)
    # the real budget is read from this process's view of memory
    monkeypatch.undo()
    assert model._memory_budget() > need


def _random_levels(m: int, seed: int):
    """Spectrum, coefficients and a mixed state of a random m-level system.

    Levels are at least 0.05 apart so the generator stays diagonalizable.
    """
    rng = np.random.default_rng(seed)
    levels = -1.0 + np.cumsum(rng.uniform(0.05, 0.6, size=m))
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    spec = eigendecompose(q @ np.diag(levels) @ q.T)
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    rho0 = a @ a.conj().T
    return spec, coupling_coefficients(spec, m), rho0 / np.trace(rho0).real


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    g=st.floats(0.005, 0.2),
    beta=st.one_of(st.just(math.inf), st.floats(0.5, 50.0)),
    omega_c=st.floats(0.5, 5.0),
    t_max=st.floats(1.0, 300.0),
)
# a nearly absorbing ground state (beta = 50), where LAPACK's balancing spoils
# eigenvectors: an eigenvector route missed the oracle here by 1.0e-10
@example(m=4, seed=4096, g=0.19918413700706625, beta=50.0, omega_c=1.75, t_max=5.0)
def test_real_coordinate_path_matches_the_complex_generator(m, seed, g, beta, omega_c, t_max) -> None:
    spec, co, rho0 = _random_levels(m, seed)
    tensor = assemble_redfield(co, spec, BathSpec(g=g, beta=beta, omega_c=omega_c))
    gen = tensor.generator()
    times = np.linspace(0.0, t_max, 9)
    oracle = _complex_oracle(tensor, rho0, times)
    # m = 2 fills two rows per product from E and E^2; m >= 3 steps row by row
    traj = integrate_master(tensor, rho0, times)
    assert np.max(np.abs(traj.rhos.reshape(len(times), m * m) - oracle)) <= 1e-10
    assert np.max(np.abs(traj.rhos - np.conj(np.transpose(traj.rhos, (0, 2, 1))))) == 0.0
    assert np.max(np.abs(traces(traj) - 1.0)) <= 1e-12
    rho_star = steady_state(tensor)
    assert np.linalg.norm(gen @ rho_star.reshape(m * m)) / np.linalg.norm(gen) <= 1e-10
    assert np.trace(rho_star).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho_star - rho_star.conj().T)) == 0.0


def test_complex_or_misshapen_generator_is_refused() -> None:
    # any real 9x9 g maps Hermitian rho to Hermitian rho; nothing else is a generator of m = 3
    spec, co, _ = _random_levels(3, 5)
    tensor = assemble_redfield(co, spec, BathSpec(g=0.05, beta=15.0, omega_c=2.0))
    assert not tensor.g.flags.writeable
    broken = (tensor.g.astype(complex), tensor.g[:8, :8], tensor.g.reshape(3, 3, 9), tensor.g[0])
    for g_bad in broken:
        with pytest.raises(ContractViolationError, match="real 9x9"):
            RedfieldTensor(m=3, g=g_bad)
    assert RedfieldTensor(m=3, g=-np.eye(9)).m == 3


def test_steady_state_refuses_a_generator_that_does_not_preserve_trace() -> None:
    # its trace-pinned system is regular, and solving it would give diag(2, 0)
    # with ||L rho|| = 1
    with pytest.raises(InvalidParameterError, match="preserves the trace"):
        steady_state(_leaking_tensor())


@pytest.mark.parametrize("beta", [math.inf, 15.0])
@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_generator_matches_the_documented_tensor(m, beta) -> None:
    spec, co, _ = _random_levels(m, 11 + m)
    bath = BathSpec(g=0.05, beta=beta, omega_c=2.0)
    reference = redfield_generator(co, spec.eigenvalues[:m], bath)
    gen = assemble_redfield(co, spec, bath).generator()
    assert np.max(np.abs(gen - reference)) <= 1e-14 * np.max(np.abs(reference))


def test_steady_state_without_coupling_is_not_unique() -> None:
    # at g = 0 every population vector is stationary: no single answer exists
    tl, co = _clean_system(256)
    tensor = assemble_redfield(co, tl.eigenvalues[0], BathSpec(g=0.0, beta=math.inf, omega_c=2.0))
    with pytest.raises(QSearchError, match="not unique"):
        steady_state(tensor)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assembly_and_steady_state_peak_below_three_tensors() -> None:
    m = 24
    spec, co, _ = _random_levels(m, 9)
    bath = BathSpec(g=0.02, beta=15.0, omega_c=2.0)
    tensor, assemble_peak = _traced_peak(lambda: assemble_redfield(co, spec, bath))
    _, steady_peak = _traced_peak(lambda: steady_state(tensor))
    assert assemble_peak <= 3 * m**4 * 8
    assert steady_peak <= 3 * m**4 * 8


def test_complex_generator_peak_below_three_tensors() -> None:
    m = 24
    spec, co, _ = _random_levels(m, 9)
    tensor = assemble_redfield(co, spec, BathSpec(g=0.02, beta=15.0, omega_c=2.0))
    _, peak = _traced_peak(tensor.generator)
    # L (two m^4 doubles) and a row eighth's gathers: 2.53 measured
    assert peak <= 3 * m**4 * 8


def test_assembly_holds_g_and_the_pair_sums_and_steady_state_one_copy_of_g() -> None:
    m = 24
    spec, co, _ = _random_levels(m, 9)
    bath = BathSpec(g=0.02, beta=15.0, omega_c=2.0)
    tensor, assemble_peak = _traced_peak(lambda: assemble_redfield(co, spec, bath))
    _, steady_peak = _traced_peak(lambda: steady_state(tensor))
    # G, Q over the pairs a <= b and one pair-sized gather (0.27 m^4 each),
    # and the coordinate maps when this call builds them: 1.64 measured
    # with them cached, 1.82 without
    assert assemble_peak <= 2.14 * m**4 * 8
    # the copy of G that is solved; the solver's own buffer is not traced: 1.01 measured
    assert steady_peak <= 1.1 * m**4 * 8


def test_step_route_peak_at_most_five_and_a_half_tensors() -> None:
    m = 24
    spec, co, rho0 = _random_levels(m, 9)
    tensor = assemble_redfield(co, spec, BathSpec(g=0.02, beta=15.0, omega_c=2.0))
    times = np.linspace(0.0, 2000.0, 200)
    integrate_master(tensor, rho0, times)  # builds the cached coordinate maps
    traj, peak = _traced_peak(lambda: integrate_master(tensor, rho0, times))
    assert traj.rhos.shape == (200, m, m)
    # the Taylor polynomial's five m^4 buffers (B1..B5) plus a row quarter of
    # their first product: 5.25 measured
    assert peak <= 5.5 * m**4 * 8


def test_coordinate_cache_is_bounded() -> None:
    cache = redfield._hermitian_coordinates
    bound = cache.cache_info().maxsize
    assert bound is not None
    # a full-dimension pipeline's sizes and the pair's m = 2 stay held together
    sizes = (2, 8, 16, 24, 32, 40)
    for m in sizes:
        cache(m)
    hits = cache.cache_info().hits
    for m in sizes:
        cache(m)
    assert cache.cache_info().hits == hits + len(sizes)
    for m in range(2, 14):
        cache(m)
    assert cache.cache_info().currsize <= bound
