from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearch.errors import (
    ContractViolationError,
    DenseLimitError,
    InvalidParameterError,
    OutOfRegimeError,
)
from qsearch.model import (
    DisorderField,
    build_complete_graph,
    build_custom_graph,
    build_search_hamiltonian,
    gamma_policy,
    sample_disorder,
    uniform_site,
)
from qsearch.spectral import eigendecompose


def test_complete_graph_large_is_not_materialized() -> None:
    graph = build_complete_graph(10**6)
    assert graph.adjacency is None
    h = build_search_hamiltonian(graph, w=0, gamma=1e-6)
    with pytest.raises(DenseLimitError):
        h.dense()


def test_complete_graph_rejects_single_node() -> None:
    with pytest.raises(InvalidParameterError):
        build_complete_graph(1)


def test_custom_graph_round_trip() -> None:
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
    graph = build_custom_graph(a)
    assert graph.kind == "custom"
    assert np.array_equal(graph.adjacency, a)


def test_custom_graph_rejects_asymmetric() -> None:
    with pytest.raises(ContractViolationError):
        build_custom_graph([[0.0, 1.0], [0.5, 0.0]])


def test_custom_graph_rejects_nonzero_diagonal() -> None:
    with pytest.raises(ContractViolationError):
        build_custom_graph([[0.1, 1.0], [1.0, 0.0]])


def test_disorder_zero_sigma_is_zero_field() -> None:
    field = sample_disorder(8, 0.0, "uniform", seed=1)
    assert np.array_equal(field.epsilons, np.zeros(8))


def test_disorder_is_deterministic_per_seed() -> None:
    first = sample_disorder(8, 0.1, "uniform", seed=7)
    second = sample_disorder(8, 0.1, "uniform", seed=7)
    other = sample_disorder(8, 0.1, "uniform", seed=8)
    assert np.array_equal(first.epsilons, second.epsilons)
    assert not np.array_equal(first.epsilons, other.epsilons)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 5000),
    sigma=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**63),
)
def test_uniform_disorder_prefix_is_the_shorter_draw(data, n, sigma, seed) -> None:
    k = data.draw(st.integers(1, n))
    full = sample_disorder(n, sigma, "uniform", seed).epsilons
    prefix = sample_disorder(k, sigma, "uniform", seed).epsilons
    assert prefix.tobytes() == full[:k].tobytes()


@settings(max_examples=100, deadline=2000)
@given(
    w=st.integers(0, 2 * 10**5 - 1),
    sigma=st.sampled_from([0.0, 1e-300, 1e-3, 0.5, 0.999]),
    seed=st.integers(0, 2**63 - 1),
)
def test_one_site_draw_is_the_fields_site(w, sigma, seed) -> None:
    # the rule the runner relies on to read eps_w without drawing the field
    prefix = sample_disorder(w + 1, sigma, "uniform", seed).epsilons
    assert uniform_site(w, sigma, seed).hex() == float(prefix[-1]).hex()


def test_one_site_draw_at_a_huge_index_is_constant_memory() -> None:
    tracemalloc.start()
    try:
        eps = uniform_site(10**11, 0.02, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(eps) <= 0.02 and peak < 64 * 1024
    with pytest.raises(InvalidParameterError):
        uniform_site(-1, 0.02, 3)
    with pytest.raises(InvalidParameterError):
        uniform_site(0, -0.02, 3)


def test_disorder_uniform_is_bounded_by_sigma() -> None:
    field = sample_disorder(5000, 0.3, "uniform", seed=0)
    assert np.all(np.abs(field.epsilons) <= 0.3)


def test_disorder_uniform_std_matches_moment() -> None:
    field = sample_disorder(10**5, 0.006, "uniform", seed=3)
    expected = 0.006 / math.sqrt(3.0)
    assert abs(field.epsilons.std() / expected - 1.0) < 0.05
    assert abs(field.epsilons.mean()) < 3.0 * expected / math.sqrt(10**5)


def test_disorder_rejects_negative_sigma_and_unknown_distribution() -> None:
    with pytest.raises(InvalidParameterError):
        sample_disorder(8, -0.1, "uniform", seed=0)
    with pytest.raises(InvalidParameterError):
        sample_disorder(8, 0.1, "lognormal", seed=0)


@pytest.mark.parametrize(
    ("n", "sigma", "policy", "expected"),
    [
        (100, 0.0, "plain", 0.01),
        (100, 0.1, "shifted", 0.009),
        (10**6, 0.007, "shifted", 9.93e-7),
    ],
)
def test_gamma_policy_values(n: int, sigma: float, policy: str, expected: float) -> None:
    assert gamma_policy(n, sigma, policy) == pytest.approx(expected, rel=1e-12)


def test_gamma_policy_rejects_sigma_of_order_one() -> None:
    with pytest.raises(OutOfRegimeError):
        gamma_policy(100, 1.0, "shifted")


def test_hamiltonian_entries_complete_n4() -> None:
    h = build_search_hamiltonian(build_complete_graph(4), w=0, gamma=0.25).dense()
    assert np.array_equal(np.diag(h), [-1.0, 0.0, 0.0, 0.0])
    off = h[~np.eye(4, dtype=bool)]
    assert np.all(off == -0.25)
    assert np.array_equal(h, h.T)


def test_hamiltonian_entries_custom_graph() -> None:
    a = np.diag(np.ones(4), 1)
    a = a + a.T
    field = sample_disorder(5, 0.2, "uniform", seed=4)
    h = build_search_hamiltonian(
        build_custom_graph(a), w=2, gamma=0.5, disorder=field, marked_energy=-0.75
    ).dense()
    expected = -0.5 * a + np.diag(field.epsilons)
    expected[2, 2] += -0.75
    assert np.array_equal(h, expected)


def test_dense_build_peaks_at_one_matrix() -> None:
    n = 1024
    graph = build_complete_graph(n)
    field = sample_disorder(n, 0.1, "uniform", seed=2)
    tracemalloc.start()
    try:
        h = build_search_hamiltonian(graph, w=0, gamma=1.0 / n, disorder=field).dense()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.shape == (n, n)
    assert peak <= 1.25 * n * n * 8


def test_hamiltonian_single_site_disorder_entry() -> None:
    eps = np.zeros(64)
    eps[3] = 0.5
    field = DisorderField(epsilons=eps, sigma=0.5, seed=0)
    h = build_search_hamiltonian(
        build_complete_graph(64), w=3, gamma=1.0 / 64, disorder=field
    ).dense()
    assert h[3, 3] == pytest.approx(-1.0 + 0.5)


def test_ground_energy_of_large_complete_graph() -> None:
    h = build_search_hamiltonian(build_complete_graph(1024), w=0, gamma=1.0 / 1024)
    spectrum = eigendecompose(h)
    assert spectrum.eigenvalues[0] == pytest.approx(-1.0 - 1.0 / 32.0, abs=2e-3)


def test_projector_form_shifts_spectrum_by_gamma() -> None:
    # -gamma*A on the complete graph equals -(gamma*n)|s><s| + gamma*I,
    # so the two conventions differ by the constant gamma in every level
    n = 16
    gamma = 1.0 / n
    h_adj = build_search_hamiltonian(build_complete_graph(n), w=0, gamma=gamma).dense()
    s_proj = np.full((n, n), 1.0 / n)
    h_s = -np.eye(n)[:, [0]] @ np.eye(n)[[0], :] - s_proj
    lam_adj = eigendecompose(h_adj).eigenvalues
    lam_s = eigendecompose(h_s).eigenvalues
    assert np.allclose(lam_adj, lam_s + gamma, atol=1e-12)


def test_symbolic_hamiltonian_above_dense_limit() -> None:
    h = build_search_hamiltonian(build_complete_graph(5000), w=0, gamma=1.0 / 5000)
    with pytest.raises(DenseLimitError):
        h.dense()


def test_custom_graph_above_dense_limit_is_refused(monkeypatch) -> None:
    a = np.zeros((8, 8))
    a[0, 1] = a[1, 0] = 1.0
    graph = build_custom_graph(a)
    monkeypatch.setattr("qsearch.model.DENSE_LIMIT", 4)
    with pytest.raises(DenseLimitError):
        build_search_hamiltonian(graph, w=0, gamma=0.1)


def test_hamiltonian_rejects_bad_marked_index_and_mismatched_disorder() -> None:
    graph = build_complete_graph(8)
    with pytest.raises(InvalidParameterError):
        build_search_hamiltonian(graph, w=8, gamma=0.1)
    field = sample_disorder(4, 0.1, "uniform", seed=0)
    with pytest.raises(ContractViolationError):
        build_search_hamiltonian(graph, w=0, gamma=0.1, disorder=field)


def test_hamiltonian_eps_w_accessor() -> None:
    graph = build_complete_graph(8)
    field = sample_disorder(8, 0.2, "uniform", seed=11)
    h = build_search_hamiltonian(graph, w=5, gamma=1.0 / 8, disorder=field)
    assert h.disorder.eps_at(h.w) == field.epsilons[5] == uniform_site(5, 0.2, 11)
    assert uniform_site(5, 0.0, 11) == 0.0
