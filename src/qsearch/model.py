"""Graphs, static diagonal disorder, and search Hamiltonians held as parameters.

``SearchHamiltonian.dense()`` is the one place that builds an n x n search
matrix, on demand and only up to ``DENSE_LIMIT`` nodes. ``require_memory`` is
the one place that refuses work the process cannot hold.

Units: hbar = k_B = 1. Energies are measured in units of the marked-node
depth (default -1), times in inverse energy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractViolationError, DenseLimitError, InvalidParameterError, OutOfRegimeError

# Above this node count dense n x n storage and O(n^3) eigensolves are
# refused; complete graphs fall back to the two-level reduction.
DENSE_LIMIT = 4096

_SYMMETRY_TOL = 1e-12


def _read(path: str) -> bytes:
    """The start of a small kernel file; os.read costs half of open().read()."""
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.read(fd, 1 << 14)
    finally:
        os.close(fd)


def _memory_budget() -> float:
    """Bytes this process can still allocate, from its own view of memory.

    The least of MemAvailable and, for each memory cgroup the process is
    in, its limit less its usage (v2 memory.max - memory.current, v1
    memory.limit_in_bytes - memory.usage_in_bytes). A source that is
    absent or unlimited is skipped, so with none the budget is infinite.
    """
    budget = math.inf
    try:
        meminfo = _read("/proc/meminfo")
        entries = _read("/proc/self/cgroup").decode().splitlines()
    except OSError:  # not Linux
        return budget
    at = meminfo.find(b"MemAvailable:")
    if at >= 0:
        budget = int(meminfo[at + 13:meminfo.index(b"kB", at)]) * 1024
    for entry in entries:
        _, controllers, path = entry.split(":", 2)
        if not controllers:
            files = (f"/sys/fs/cgroup{path}/memory.max", f"/sys/fs/cgroup{path}/memory.current")
        elif "memory" in controllers.split(","):
            root = f"/sys/fs/cgroup/memory{path}"
            files = (f"{root}/memory.limit_in_bytes", f"{root}/memory.usage_in_bytes")
        else:
            continue
        try:
            budget = min(budget, int(_read(files[0])) - int(_read(files[1])))
        except (OSError, ValueError):  # no memory controller there, or a "max" limit
            continue
    return budget


def require_memory(need: float, what: str) -> None:
    """Refuse need bytes for what, with DenseLimitError, when _memory_budget() is smaller."""
    budget = _memory_budget()
    if need > budget:
        raise DenseLimitError(
            f"{what} needs about {need / 2**30:.3g} GiB, "
            f"more than the {budget / 2**30:.3g} GiB this process can still allocate"
        )


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

    @property
    def n(self) -> int:
        return self.epsilons.shape[0]

    def eps_at(self, w: int) -> float:
        return float(self.epsilons[w])


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
    """Draw n i.i.d. mean-zero on-site energies, flat on [-sigma, sigma].

    distribution "uniform" is the one supported. The stream is PCG64(seed),
    which is part of the reproducibility contract. The field is drawn site
    by site, so its first k sites are bitwise the k-site field of the same
    sigma and seed, and uniform_site draws any one site alone.
    """
    if sigma < 0:
        raise InvalidParameterError(f"sigma must be nonnegative, got {sigma}")
    if n < 1:
        raise InvalidParameterError(f"need n >= 1 sites, got n={n}")
    if distribution != "uniform":
        raise InvalidParameterError(f"unknown disorder distribution {distribution!r}")
    if sigma == 0.0:
        return DisorderField(epsilons=np.zeros(n), sigma=0.0, seed=int(seed))
    eps = np.random.Generator(np.random.PCG64(seed)).uniform(-sigma, sigma, size=n)
    eps.setflags(write=False)
    return DisorderField(epsilons=eps, sigma=float(sigma), seed=int(seed))


def uniform_site(w: int, sigma: float, seed: int) -> float:
    """Site w of the "uniform" field of sample_disorder, in O(1) time and memory.

    Each uniform draw takes one 64-bit output of PCG64(seed), so advancing
    the stream by w outputs and drawing once gives bitwise the field's
    entry w, for any n > w.
    """
    if sigma < 0:
        raise InvalidParameterError(f"sigma must be nonnegative, got {sigma}")
    if w < 0:
        raise InvalidParameterError(f"site index must be nonnegative, got w={w}")
    if sigma == 0.0:
        return 0.0
    bits = np.random.PCG64(seed)
    bits.advance(w)
    return float(np.random.Generator(bits).uniform(-sigma, sigma))


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
