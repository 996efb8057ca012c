"""The rank-one secular solver of the complete graph against dense eigh."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsearch.spectral as spectral
import qsearch.unitary as unitary
from qsearch.errors import DenseLimitError
from qsearch.experiments import parse_config, run
from qsearch.model import (
    DENSE_LIMIT,
    DisorderField,
    SearchHamiltonian,
    build_complete_graph,
    build_search_hamiltonian,
    gamma_policy,
    sample_disorder,
)
from qsearch.spectral import secular_spectrum
from qsearch.unitary import evolve_closed

TIES = ("none", "exact", "marked", "near")


def _epsilons(n: int, sigma: float, seed: int, ties: str) -> np.ndarray:
    """Disorder with the requested kind of tie among the diagonal entries."""
    eps = np.array(sample_disorder(n, sigma, seed=seed).epsilons)
    rng = np.random.default_rng(seed)
    if ties == "exact" and sigma > 0:
        eps = eps[rng.integers(0, max(1, n // 4), size=n)]
    elif ties == "marked":
        # an unmarked site on exactly the marked site's diagonal entry
        eps[rng.integers(1, n)] = eps[0] + (-1.0)
    elif ties == "near":
        # a chain of entries a few ulps of ||H|| apart; the closest deflate as ties
        start = int(rng.integers(0, n))
        for j in rng.choice(n, size=min(n, 6), replace=False):
            eps[j] = eps[start] + int(rng.integers(1, 40)) * np.spacing(1.0)
            start = j
    return eps


def _hamiltonian(n: int, sigma: float, seed: int, policy: str, ties: str):
    if ties == "exact" and seed % 2 == 0:
        sigma = 0.0
    eps = _epsilons(n, sigma, seed, ties)
    field = DisorderField(epsilons=eps, sigma=sigma, seed=seed)
    gamma = gamma_policy(n, sigma, policy)
    return build_search_hamiltonian(build_complete_graph(n), w=0, gamma=gamma, disorder=field)


def _dense_population(h, times: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(h.dense())
    weights = vectors[h.w, :] * (vectors.T @ np.full(h.n, 1.0 / math.sqrt(h.n)))
    return np.abs(np.exp(-1j * np.outer(times, values)) @ weights) ** 2


def _leaves(monkeypatch) -> list:
    """Records, per solve, how many series terms the leaves of the multipole tree take and which fall back."""
    solves = []
    local_series = spectral._local_series

    def recorded(*args):
        out = local_series(*args)
        solves.append((out[3].shape[2], np.flatnonzero(out[4]).tolist()))
        return out

    monkeypatch.setattr(spectral, "_local_series", recorded)
    return solves


def _uniform_poles(k: int, seed: int, sigma: float = 0.02):
    """The sorted diagonal of a shifted complete-graph search: one marked pole about 1 below k - 1 uniform ones."""
    eps = np.array(sample_disorder(k, sigma, seed=seed).epsilons)
    eps[0] += -1.0
    return np.sort(eps), np.ones(k), gamma_policy(k, sigma, "shifted")


def _check_against_eigh(h) -> None:
    n = h.n
    values, vectors = np.linalg.eigh(h.dense())
    spectrum = secular_spectrum(h)
    assert spectrum.eigenvalues.shape == (n,)
    assert np.max(np.abs(spectrum.eigenvalues - values)) <= 1e-12
    assert spectrum.gap == pytest.approx(values[1] - values[0], abs=1e-12)
    assert spectrum.w_overlaps[0] ** 2 == pytest.approx(vectors[0, 0] ** 2, abs=1e-10)
    # a uniform grid longer than one phase restart interval
    times = np.linspace(0.0, 1.5 * math.pi * math.sqrt(n), 150)
    result = evolve_closed(h, times)
    assert np.max(np.abs(result.p_w - _dense_population(h, times))) <= 1e-11
    assert result.p_w[0] == pytest.approx(1.0 / n, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 256),
    seed=st.integers(0, 2**32 - 1),
    sigma=st.floats(0.0, 0.5, exclude_max=True),
    policy=st.sampled_from(("plain", "shifted")),
    ties=st.sampled_from(TIES),
)
def test_secular_solver_matches_dense_eigh(n, seed, sigma, policy, ties) -> None:
    _check_against_eigh(_hamiltonian(n, sigma, seed, policy, ties))


@pytest.mark.parametrize("ties", TIES)
@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 256),
    seed=st.integers(0, 2**32 - 1),
    sigma=st.floats(0.0, 0.5, exclude_max=True),
    policy=st.sampled_from(("plain", "shifted")),
)
def test_far_field_series_matches_dense_eigh(ties, n, seed, sigma, policy) -> None:
    # leaves of 3 roots with 5 exact poles a side: the tree runs at small n,
    # and every window ends inside a leaf, whose outer part is summed directly
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_SUB_ROWS", 3)
        mp.setattr(spectral, "_SUB_NEAR", 5)
        _check_against_eigh(_hamiltonian(n, sigma, seed, policy, ties))


def test_far_field_series_matches_dense_eigh_at_default_blocks(monkeypatch) -> None:
    solves = _leaves(monkeypatch)
    _check_against_eigh(_hamiltonian(1024, 0.02, 5, "shifted", "none"))
    assert len(solves) == 2
    terms, fallbacks = solves[0]
    assert 0 < terms <= spectral._series_terms(0.5) and fallbacks == []


@pytest.mark.parametrize("ties", TIES)
@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 256),
    seed=st.integers(0, 2**32 - 1),
    sigma=st.floats(0.0, 0.5, exclude_max=True),
    policy=st.sampled_from(("plain", "shifted")),
)
def test_sub_block_series_matches_dense_eigh(ties, n, seed, sigma, policy) -> None:
    # leaves of 2 roots with 2 exact poles a side, whose windows end on leaf
    # boundaries, a tree up to 8 levels deep, and powers 3 at a time
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_SUB_ROWS", 2)
        mp.setattr(spectral, "_SUB_NEAR", 2)
        mp.setattr(spectral, "_POWER_ROWS", 3)
        _check_against_eigh(_hamiltonian(n, sigma, seed, policy, ties))


def test_sub_block_series_runs_at_default_blocks() -> None:
    _check_against_eigh(_hamiltonian(1024, 0.02, 5, "shifted", "none"))
    # each leaf's series against the sum over the poles outside its window,
    # at the ends and the middle of its span
    poles, weights, _ = _uniform_poles(1024, 5)
    first, centre, half, coef, fallback = spectral._local_series(poles, weights)
    assert first.size == 64 and not fallback.any()
    index = np.arange(poles.size)
    for i, start in enumerate(first):
        far = (index < start - spectral._SUB_NEAR) | (index >= start + spectral._SUB_ROWS + spectral._SUB_NEAR)
        lower = far & (index < start)
        for x in (-1.0, -0.3, 0.0, 0.6, 1.0):
            d = poles - (centre[i] + x * half[i])
            exact = [np.sum(weights[m] / d[m] ** p) for p in (1, 2) for m in (lower, far & ~lower)]
            assert coef[i] @ x ** np.arange(coef.shape[2]) == pytest.approx(exact, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "gap, sub_fallbacks, block_terms",
    [
        # leaf 18 (roots 290..305) spans 95 spacings with 32 exact poles a side
        # (h/rho ~ 0.6) and falls back; the leaves beside it sum the source
        # leaf across the gap directly, and keep the terms of evenly spaced poles
        (80, [18], [27]),
        # a wider gap: still only the leaf across it falls back
        (300, [18], [27]),
    ],
)
def test_blocks_whose_series_would_converge_slowly_fall_back(gap, sub_fallbacks, block_terms, monkeypatch) -> None:
    # evenly spaced entries with one gap between poles 299 and 300
    n, sigma = 1024, 0.05
    eps = np.arange(n, dtype=float)
    eps[300:] += gap - 1.0
    eps = sigma * (2.0 * eps / eps[-1] - 1.0)
    field = DisorderField(epsilons=eps, sigma=sigma, seed=0)
    gamma = gamma_policy(n, sigma, "shifted")
    h = build_search_hamiltonian(build_complete_graph(n), w=0, gamma=gamma, disorder=field)
    solves = _leaves(monkeypatch)
    secular_spectrum(h)
    assert [fallback for _, fallback in solves] == [sub_fallbacks]
    assert [terms for terms, _ in solves] == block_terms
    _check_against_eigh(h)


def test_secular_stack_memory_is_linear_in_n() -> None:
    n = 4096
    h = _hamiltonian(n, 0.02, 5, "shifted", "none")
    secular_spectrum(h)
    tracemalloc.start()
    try:
        secular_spectrum(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # four stacks of roots x (_SUB_ROWS + 2 _SUB_NEAR) doubles, 10.5 MB;
    # 7.5 MB measured, where an n x n array would take 134 MB
    assert peak <= 4 * 8 * n * (spectral._SUB_ROWS + 2 * spectral._SUB_NEAR)


@pytest.mark.parametrize("n", [1024, 2048, 4096])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_root_converges_in_six_steps(n, seed, monkeypatch) -> None:
    # the ground root starts from a two-pole model, not its bracket's midpoint
    monkeypatch.setattr(spectral, "_SECULAR_MAX_ITER", 6)
    h = _hamiltonian(n, 0.02, seed, "shifted", "none")
    secular_spectrum(h)


def test_roots_past_the_dense_limit_match_the_all_poles_stack() -> None:
    # 65536 poles, with no n x n matrix and no DENSE_LIMIT on the way
    poles, weights, gamma = _uniform_poles(65536, 3)
    k = poles.size
    tracemalloc.start()
    try:
        origin, tau, _ = spectral._secular_roots(poles, weights, gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # doubles per root, the bound of test_secular_stack_memory_is_linear_in_n
    assert peak <= 4 * 8 * k * (spectral._SUB_ROWS + 2 * spectral._SUB_NEAR)
    # the ground pair and every 97th root, each summing every pole
    check = np.concatenate([[0, 1], np.arange(97, k, 97)])
    every = np.arange(k)[None, :]
    for i in range(0, check.size, spectral._SUB_ROWS):
        r = check[None, i : i + spectral._SUB_ROWS]
        o, t, _ = spectral._secular_stack(poles, weights, gamma, r, every, np.sqrt(weights)[None, :], 0, k, None)
        assert np.array_equal(origin[r], o)
        assert np.max(np.abs(tau[r] - t) / np.abs(t)) <= 1e-13


def test_secular_blocks_do_not_change_results(monkeypatch) -> None:
    h = _hamiltonian(200, 0.05, 7, "shifted", "near")
    uniform = np.linspace(0.0, 60.0, 500)
    scattered = np.sort(np.random.default_rng(1).uniform(0.0, 60.0, 300))
    whole = secular_spectrum(h)
    p_whole = [evolve_closed(h, t).p_w for t in (uniform, scattered)]
    # three roots per leaf with five exact poles a side, so most poles
    # enter by the tree's series, and a few times or levels per phase block
    solves = _leaves(monkeypatch)
    monkeypatch.setattr(spectral, "_SUB_ROWS", 3)
    monkeypatch.setattr(spectral, "_SUB_NEAR", 5)
    monkeypatch.setattr(unitary, "_PHASE_BLOCK", 7 * whole.roots.size)
    blocked = secular_spectrum(h)
    (terms, fallbacks), = solves
    assert terms > 0 and len(fallbacks) < (whole.roots.size - 2) // 3 // 2
    assert np.max(np.abs(blocked.eigenvalues - whole.eigenvalues)) <= 1e-14
    assert np.max(np.abs(blocked.w_overlaps - whole.w_overlaps)) <= 1e-13
    for t, p in zip((uniform, scattered), p_whole):
        assert np.max(np.abs(evolve_closed(h, t).p_w - p)) <= 1e-13


def test_complete_graph_closed_path_never_calls_dense_eigh(monkeypatch) -> None:
    def refuse(*_args, **_kwargs):
        raise AssertionError("dense path used")

    monkeypatch.setattr(unitary, "eigendecompose", refuse)
    n = 64
    h = build_search_hamiltonian(build_complete_graph(n), w=0, gamma=1.0 / n)
    assert evolve_closed(h, [0.0, 4.0 * math.pi]).p_w[-1] == pytest.approx(1.0, abs=1e-9)


def test_experiment_closed_path_builds_no_matrix(monkeypatch, tmp_path) -> None:
    def refuse(*_args, **_kwargs):
        raise AssertionError("n x n matrix requested")

    monkeypatch.setattr(SearchHamiltonian, "dense", refuse)
    monkeypatch.setattr("qsearch.experiments.eigendecompose", refuse)
    monkeypatch.setattr(unitary, "eigendecompose", refuse)
    for mode in ("unitary", "spectrum"):
        doc = {"mode": mode, "system": {"n": 128, "sigma": 0.05, "seed": 3, "gamma_policy": "shifted"}}
        run(parse_config(doc), out_dir=str(tmp_path))


def test_symbolic_hamiltonian_above_dense_limit_is_refused() -> None:
    n = DENSE_LIMIT + 1
    h = build_search_hamiltonian(build_complete_graph(n), w=0, gamma=1.0 / n)
    with pytest.raises(DenseLimitError):
        h.dense()
    with pytest.raises(DenseLimitError):
        evolve_closed(h, [0.0, 1.0])
    with pytest.raises(DenseLimitError):
        secular_spectrum(h)
