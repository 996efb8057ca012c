from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearch.errors import ContractViolationError, InvalidParameterError, OutOfRegimeError
from qsearch.model import DisorderField, build_complete_graph, build_search_hamiltonian, sample_disorder
from qsearch.spectral import (
    _fix_phases,
    _pair_coefficients,
    _s_overlaps,
    coupling_coefficients,
    eigendecompose,
    reduce_two_level,
)
from reference import (
    coupling_by_pair,
    fix_phases_by_column,
    h_red,
    materialized,
    pair_coefficients,
    quartic_o2_o3,
    reduce_by_pair,
    s_overlaps_by_pair,
    site_sums,
)


def test_eigendecompose_reduced_pair_analytic() -> None:
    tl = reduce_two_level(4, [0.0], policy="plain")
    spectrum = eigendecompose(h_red(tl))
    assert np.allclose(spectrum.eigenvalues, [-1.5, -0.5], atol=1e-14)
    assert np.allclose(tl.eigenvalues[0], [-1.5, -0.5], atol=1e-14)


def test_eigendecompose_complete_graph_gap() -> None:
    h = build_search_hamiltonian(build_complete_graph(64), w=0, gamma=1.0 / 64)
    spectrum = eigendecompose(h)
    assert spectrum.gap == pytest.approx(0.25, abs=1.0 / 64)


def test_eigendecompose_residual_and_orthonormality() -> None:
    rng = np.random.default_rng(1)
    a = rng.normal(size=(12, 12))
    h = 0.5 * (a + a.T)
    spectrum = eigendecompose(h)
    scale = np.linalg.norm(h, ord="fro")
    for k in range(12):
        residual = h @ spectrum.eigenvectors[:, k] - spectrum.eigenvalues[k] * spectrum.eigenvectors[:, k]
        assert np.linalg.norm(residual) < 1e-10 * scale
    assert np.allclose(spectrum.eigenvectors.T @ spectrum.eigenvectors, np.eye(12), atol=1e-10)
    assert np.all(np.diff(spectrum.eigenvalues) >= 0)


def test_fix_phases_matches_the_column_loop() -> None:
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 40))
    _, vectors = np.linalg.eigh(a + a.T)
    vectors[:, 5] = 0.0  # a zero column is left as it is
    vectors[:, 7] = 0.0
    vectors[:2, 7] = [-0.5, 0.5]  # a tie breaks toward the lower index
    vectors[:, 9] *= -1.0
    fixed = _fix_phases(vectors)
    reference = fix_phases_by_column(vectors)
    # real input: the same multiplications, so the same bits, signed zeros included
    assert np.array_equal(fixed, reference)
    assert np.array_equal(np.signbit(fixed), np.signbit(reference))
    assert fixed[0, 7] == 0.5 and fixed[1, 7] == -0.5
    c = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    _, complex_vectors = np.linalg.eigh(c + c.conj().T)
    # complex input: array and scalar division may round differently in the last bit
    assert np.allclose(_fix_phases(complex_vectors), fix_phases_by_column(complex_vectors), rtol=0, atol=4e-16)


def test_eigendecompose_shift_invariance() -> None:
    rng = np.random.default_rng(2)
    a = rng.normal(size=(8, 8))
    h = 0.5 * (a + a.T)
    base = eigendecompose(h)
    shifted = eigendecompose(h + 2.5 * np.eye(8))
    assert np.allclose(shifted.eigenvalues, base.eigenvalues + 2.5, atol=1e-12)
    assert np.allclose(shifted.eigenvectors, base.eigenvectors, atol=1e-10)


def test_eigendecompose_rejects_nonhermitian() -> None:
    with pytest.raises(ContractViolationError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_reduced_plain_matrix_and_gap_formula() -> None:
    n, eps_w = 256, 0.1
    tl = reduce_two_level(n, [eps_w], policy="plain")
    # the pair's eigenpairs rebuild the documented matrix
    vectors = tl.overlaps[0].reshape(2, 2)
    assert np.allclose(
        vectors @ np.diag(tl.eigenvalues[0]) @ vectors.T,
        [[-1.0 + eps_w, -1.0 / 16.0], [-1.0 / 16.0, -1.0]],
        atol=1e-15,
    )
    assert tl.delta[0] == pytest.approx(math.sqrt(eps_w**2 + 4.0 / n), rel=1e-14)


@pytest.mark.parametrize("n", [64, 1024, 10**6])
def test_reduced_gap_disorder_free(n: int) -> None:
    assert reduce_two_level(n, [0.0], policy="plain").delta[0] == pytest.approx(
        2.0 / math.sqrt(n), rel=1e-14
    )


def test_reduced_overlap_columns_are_normalized() -> None:
    a1, a2, b1, b2 = reduce_two_level(10**4, [-0.03], sigma=0.05, policy="shifted").overlaps[0]
    assert a1**2 + b1**2 == pytest.approx(1.0, abs=1e-12)
    assert a2**2 + b2**2 == pytest.approx(1.0, abs=1e-12)
    assert a1 * a2 + b1 * b2 == pytest.approx(0.0, abs=1e-12)


def test_reduced_delta_matches_h_red_gap() -> None:
    tl = reduce_two_level(512, [0.04], sigma=0.05, policy="shifted")
    lam = np.linalg.eigvalsh(h_red(tl))
    assert tl.delta[0] == pytest.approx(float(lam[1] - lam[0]), abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="measured formula-vs-exact gap deviation is 5.1% at n=64, eps_w=0.5, "
    "just above the stated 5% bound; the 4/n term is not small at n=64",
)
def test_reduced_gap_cross_check_n64_strong_defect_within_5pct() -> None:
    (delta,) = reduce_two_level(64, [0.5], policy="plain").delta
    eps = np.zeros(64)
    eps[0] = 0.5
    field = DisorderField(epsilons=eps, sigma=0.5, seed=0)
    h = build_search_hamiltonian(build_complete_graph(64), w=0, gamma=1.0 / 64, disorder=field)
    exact_gap = eigendecompose(h).gap
    assert abs(delta / exact_gap - 1.0) < 0.05


def test_reduced_gap_cross_check_n64_strong_defect_measured() -> None:
    # pins the measured deviation the strict-xfail companion documents
    (delta,) = reduce_two_level(64, [0.5], policy="plain").delta
    assert delta == pytest.approx(math.sqrt(0.25 + 0.0625), rel=1e-14)
    eps = np.zeros(64)
    eps[0] = 0.5
    field = DisorderField(epsilons=eps, sigma=0.5, seed=0)
    h = build_search_hamiltonian(build_complete_graph(64), w=0, gamma=1.0 / 64, disorder=field)
    exact_gap = eigendecompose(h).gap
    deviation = abs(delta / exact_gap - 1.0)
    assert 0.05 < deviation < 0.06


def test_reduced_shifted_gap_near_sigma_minus_eps() -> None:
    (delta,) = reduce_two_level(10**6, [-0.004], sigma=0.007, policy="shifted").delta
    exact = math.sqrt(0.011**2 + 4.0 * (1.0 - 0.007) ** 2 / 10**6)
    assert delta == pytest.approx(exact, rel=1e-12)
    assert abs(delta - 0.011) < 2e-4


def test_reduced_rejects_bad_inputs() -> None:
    with pytest.raises(InvalidParameterError):
        reduce_two_level(1, [0.0])
    with pytest.raises(OutOfRegimeError):
        reduce_two_level(64, [0.0], sigma=1.0, policy="shifted")
    with pytest.raises(InvalidParameterError):
        reduce_two_level(64, [0.2], sigma=0.1, policy="shifted")
    with pytest.raises(InvalidParameterError):
        reduce_two_level(64, [0.0], policy="shifted")
    with pytest.raises(InvalidParameterError, match="1-d array"):
        reduce_two_level(64, 0.0)


def test_coupling_disorder_free_quartics() -> None:
    n = 10**4
    coeffs = pair_coefficients(reduce_two_level(n, [0.0], policy="plain"))
    o2, o3 = quartic_o2_o3(coeffs)
    _, o1 = site_sums(coeffs)
    assert abs(o2) < 1e-12
    assert abs(o3) < 1e-12
    assert abs(o1 - 0.25) < 1.0 / n
    c = materialized(coeffs)
    assert o1 == pytest.approx(float(np.sum((c[:, 0] * c[:, 1]) ** 2)), rel=1e-12)


def test_coupling_lambda_symmetric_nonnegative() -> None:
    tl = reduce_two_level(500, [0.02], sigma=0.05, policy="shifted")
    coeffs = pair_coefficients(tl)
    lambda_kl, o1 = site_sums(coeffs)
    assert np.allclose(lambda_kl, lambda_kl.T, atol=1e-15)
    assert np.all(lambda_kl >= 0.0)
    assert o1 >= 0.0
    assert quartic_o2_o3(coeffs)[1] >= 0.0
    # the package's one sum is the matrix's off-diagonal entry
    assert _pair_coefficients(tl.n, tl.overlaps)[2][0] == lambda_kl[0, 1]


def test_coupling_strong_disorder_lambda12_window() -> None:
    n, sigma = 10**4, 0.05
    tl = reduce_two_level(n, [-0.03], sigma=sigma, policy="shifted")
    lam12 = float(_pair_coefficients(tl.n, tl.overlaps)[2][0])
    assert 0.1 / (n * sigma**2) <= lam12 <= 10.0 / (n * sigma**2)


def test_coupling_retained_all_levels_row_sums() -> None:
    h = build_search_hamiltonian(build_complete_graph(8), w=0, gamma=1.0 / 8)
    spectrum = eigendecompose(h)
    lambda_kl, _ = site_sums(coupling_coefficients(spectrum, retained=8))
    assert np.allclose(lambda_kl.sum(axis=1), np.ones(8), atol=1e-12)


def test_coupling_compact_rows_match_materialized_matrix() -> None:
    coeffs = pair_coefficients(reduce_two_level(1000, [0.01], sigma=0.02, policy="shifted"))
    c = materialized(coeffs)
    assert c.shape == (1000, 2)
    assert np.allclose(np.sum(c**2, axis=0), np.ones(2), atol=1e-12)
    assert site_sums(coeffs)[1] == pytest.approx(float(np.sum((c[:, 0] * c[:, 1]) ** 2)), rel=1e-12)


def test_coupling_rejects_bad_retention() -> None:
    spectrum = eigendecompose(h_red(reduce_two_level(64, [0.0], policy="plain")))
    with pytest.raises(InvalidParameterError):
        coupling_coefficients(spectrum, retained=5)


def test_epsbar_robustness_of_gap_formula() -> None:
    # full disorder vectors: the formula ignores the off-marked mean and
    # must stay within 5*sigma/sqrt(n) of the exact gap
    n, sigma = 1024, 0.05
    graph = build_complete_graph(n)
    worst = 0.0
    for seed in range(20):
        field = sample_disorder(n, sigma, "uniform", seed)
        h = build_search_hamiltonian(graph, w=0, gamma=1.0 / n, disorder=field)
        gap = eigendecompose(h).gap
        formula = math.sqrt(field.eps_at(0) ** 2 + 4.0 / n)
        worst = max(worst, abs(gap - formula))
    assert worst < 5.0 * sigma / math.sqrt(n)


def test_shifted_ground_state_orients_to_marked_node() -> None:
    n, sigma = 2048, 0.25
    assert sigma * math.sqrt(n) > 10.0
    graph = build_complete_graph(n)
    for seed in range(4):
        field = sample_disorder(n, sigma, "uniform", seed)
        h = build_search_hamiltonian(graph, w=0, gamma=(1.0 - sigma) / n, disorder=field)
        spectrum = eigendecompose(h)
        assert spectrum.eigenvectors[0, 0] ** 2 > 0.5


def test_sign_flip_structure_of_reduced_ground_state() -> None:
    # n*eps_w^2 >> 1: the ground state localizes on the marked node only
    # when the marked level is pulled below the band
    low, high = reduce_two_level(256, [-0.3, 0.3], policy="plain").overlaps
    assert abs(low[0]) > abs(low[2])
    assert abs(high[0]) < abs(high[2])


def test_s_overlap_completeness() -> None:
    tl = reduce_two_level(400, [0.01], sigma=0.03, policy="shifted")
    s1, s2 = _s_overlaps(tl.n, tl.overlaps)[0]
    assert s1**2 + s2**2 == pytest.approx(1.0, abs=1e-12)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 10**12),
    sigma=st.floats(0.0, 1.0, exclude_max=True),
    fractions=st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, -1.0])), min_size=1, max_size=8),
    policy=st.sampled_from(["plain", "shifted"]),
    with_sigma=st.booleans(),
)
def test_stacked_reduction_is_each_pair_s_reduction_bit_for_bit(n, sigma, fractions, policy, with_sigma) -> None:
    eps_w = [f * sigma for f in fractions]  # in [-sigma, sigma], with +-0.0 when sigma = 0
    sigma_arg = sigma if (with_sigma or policy == "shifted") else None
    pairs = reduce_two_level(n, eps_w, sigma_arg, policy)
    for i, e in enumerate(eps_w):
        one, scalar = reduce_two_level(n, [e], sigma_arg, policy), reduce_by_pair(n, e, sigma_arg, policy)
        row = (pairs.delta[i], pairs.eigenvalues[i], pairs.overlaps[i])
        for fields in (row, (scalar.delta, scalar.eigenvalues, scalar.overlaps)):
            assert [_bits(x) for x in fields] == [
                _bits(x) for x in (one.delta[0], one.eigenvalues[0], one.overlaps[0])
            ]
        # and the coupling rows, Lambda_12 and uniform-state overlaps of the pair, as the scalar forms give them
        ours, by_pair = pair_coefficients(pairs, i), coupling_by_pair(scalar)
        lambda12 = _pair_coefficients(n, pairs.overlaps)[2][i]
        assert [_bits(x) for x in (ours.rows, ours.counts, lambda12)] == [
            _bits(x) for x in (by_pair.rows, by_pair.counts, site_sums(by_pair)[0][0, 1])
        ]
        assert _bits(_s_overlaps(n, pairs.overlaps)[i]) == _bits(s_overlaps_by_pair(scalar))
