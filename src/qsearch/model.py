"""Graphs, static diagonal disorder, and search Hamiltonians held as parameters.

``SearchHamiltonian.dense()`` is the one place that builds an n x n search
matrix, on demand and only up to ``DENSE_LIMIT`` nodes.

Units: hbar = k_B = 1. Energies are measured in units of the marked-node
depth (default -1), times in inverse energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractViolationError, DenseLimitError, InvalidParameterError, OutOfRegimeError

# Above this node count dense n x n storage and O(n^3) eigensolves are
# refused; complete graphs fall back to the two-level reduction.
DENSE_LIMIT = 4096

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class GraphSpec:
    """Search graph: node count, kind tag, and the adjacency of a custom graph.

    A complete graph carries no adjacency; its structure is implied by n.
    """

    n: int
    kind: str
    adjacency: Optional[np.ndarray] = field(default=None, repr=False)


@dataclass(frozen=True)
class DisorderField:
    """One realization of static on-site energies."""

    epsilons: np.ndarray
    sigma: float
    seed: int
    distribution: str

    @property
    def n(self) -> int:
        return self.epsilons.shape[0]

    def eps_at(self, w: int) -> float:
        return float(self.epsilons[w])

    def mean_off_marked(self, w: int) -> float:
        """Mean of the disorder over all sites except the marked one."""
        if self.n == 1:
            return 0.0
        return float((self.epsilons.sum() - self.epsilons[w]) / (self.n - 1))


@dataclass(frozen=True)
class SearchHamiltonian:
    """H = marked_energy |w><w| - gamma A + diag(epsilons), held as its parameters.

    No n x n matrix is stored: the secular solver and the two-level
    reduction read the parameters, and ``dense()`` builds the matrix for
    the dense eigensolver when a caller asks for it.
    """

    graph: GraphSpec
    w: int
    gamma: float
    disorder: Optional[DisorderField] = None
    marked_energy: float = -1.0

    @property
    def n(self) -> int:
        return self.graph.n

    def dense(self) -> np.ndarray:
        """A new n x n matrix of H, built in one allocation; refused above DENSE_LIMIT."""
        n = self.n
        if n > DENSE_LIMIT:
            raise DenseLimitError(f"n={n} Hamiltonian exceeds dense limit {DENSE_LIMIT}")
        if self.graph.kind == "complete":
            h = np.full((n, n), -self.gamma, dtype=float)
            np.fill_diagonal(h, 0.0)
        else:
            h = -self.gamma * self.graph.adjacency
        h[self.w, self.w] += self.marked_energy
        if self.disorder is not None:
            h[np.diag_indices(n)] += self.disorder.epsilons
        return h

    def eps_w(self) -> float:
        if self.disorder is None:
            return 0.0
        return self.disorder.eps_at(self.w)


def build_complete_graph(n: int) -> GraphSpec:
    """Complete graph on n nodes; no adjacency is stored."""
    if n < 2:
        raise InvalidParameterError(f"graph needs at least 2 nodes, got n={n}")
    return GraphSpec(n=int(n), kind="complete", adjacency=None)


def build_custom_graph(adjacency: np.ndarray) -> GraphSpec:
    """Graph from an explicit real symmetric adjacency with zero diagonal."""
    a = np.asarray(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParameterError(f"adjacency must be square, got shape {a.shape}")
    n = a.shape[0]
    if n < 2:
        raise InvalidParameterError(f"graph needs at least 2 nodes, got n={n}")
    if not np.allclose(a, a.T, atol=_SYMMETRY_TOL, rtol=0.0):
        raise ContractViolationError("adjacency is not symmetric")
    if np.any(np.abs(np.diag(a)) > _SYMMETRY_TOL):
        raise ContractViolationError("adjacency has nonzero diagonal entries")
    return GraphSpec(n=n, kind="custom", adjacency=a)


def sample_disorder(
    n: int,
    sigma: float,
    distribution: str = "uniform",
    seed: int = 0,
) -> DisorderField:
    """Draw n i.i.d. mean-zero on-site energies.

    distribution "uniform" is flat on [-sigma, sigma]; "gaussian-truncated"
    is N(0, sigma^2) with draws beyond 3 sigma redrawn. The stream is
    PCG64(seed), which is part of the reproducibility contract.

    A "uniform" field is drawn site by site, so its first k sites are bitwise
    the k-site field of the same sigma and seed. "gaussian-truncated" has no
    such prefix rule: its redraws come after the whole field is filled.
    """
    if sigma < 0:
        raise InvalidParameterError(f"sigma must be nonnegative, got {sigma}")
    if n < 1:
        raise InvalidParameterError(f"need n >= 1 sites, got n={n}")
    if distribution not in ("uniform", "gaussian-truncated"):
        raise InvalidParameterError(f"unknown disorder distribution {distribution!r}")
    if sigma == 0.0:
        eps = np.zeros(n)
        return DisorderField(epsilons=eps, sigma=0.0, seed=int(seed), distribution=distribution)
    rng = np.random.Generator(np.random.PCG64(seed))
    if distribution == "uniform":
        eps = rng.uniform(-sigma, sigma, size=n)
    else:
        eps = rng.normal(0.0, sigma, size=n)
        bad = np.abs(eps) > 3.0 * sigma
        while np.any(bad):
            eps[bad] = rng.normal(0.0, sigma, size=int(bad.sum()))
            bad = np.abs(eps) > 3.0 * sigma
    eps.setflags(write=False)
    return DisorderField(epsilons=eps, sigma=float(sigma), seed=int(seed), distribution=distribution)


def gamma_policy(n: int, sigma: float, policy: str) -> float:
    """Hopping rate: "plain" -> 1/n, "shifted" -> (1-sigma)/n."""
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got n={n}")
    if sigma < 0:
        raise InvalidParameterError(f"sigma must be nonnegative, got {sigma}")
    if sigma >= 1:
        raise OutOfRegimeError(f"sigma={sigma} >= 1 is outside the sigma << 1 regime")
    if policy == "plain":
        return 1.0 / n
    if policy == "shifted":
        return (1.0 - sigma) / n
    raise InvalidParameterError(f"unknown gamma policy {policy!r}")


def build_search_hamiltonian(
    graph: GraphSpec,
    w: int,
    gamma: float,
    disorder: Optional[DisorderField] = None,
    marked_energy: float = -1.0,
) -> SearchHamiltonian:
    """Checked constructor of H = marked_energy |w><w| - gamma A + diag(epsilons).

    A custom graph above DENSE_LIMIT is refused here, since every use of
    it needs the dense matrix; a complete graph of any size is accepted.
    """
    n = graph.n
    if not (0 <= w < n):
        raise InvalidParameterError(f"marked index w={w} outside [0, {n})")
    if gamma <= 0:
        raise InvalidParameterError(f"gamma must be positive, got {gamma}")
    if disorder is not None and disorder.n != n:
        raise ContractViolationError(
            f"disorder field has {disorder.n} sites but the graph has {n}"
        )
    if n > DENSE_LIMIT and graph.kind != "complete":
        raise DenseLimitError(
            f"custom graph with n={n} exceeds dense limit {DENSE_LIMIT}"
        )
    return SearchHamiltonian(graph, w, gamma, disorder, marked_energy)
