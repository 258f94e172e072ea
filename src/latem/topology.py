"""Deterministic overlay topologies and per-node neighbor lists.

Nodes never discover each other autonomously in an emulated deployment; the
overlay (who peers with whom) is generated up front, seeded, and injected
into each node's configuration. Two generators are provided: a small-world
graph (ring lattice plus random shortcuts, never removing lattice edges, so
connectivity is guaranteed for k >= 2) and a near-regular random graph with
bounded connectivity retries. Generation is backed by networkx; the named
generator and seed are part of the contract so runs reproduce exactly, while
cross-implementation comparisons should rely on structure statistics rather
than identical edge sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .errors import ConfigError, RetryExhausted

if TYPE_CHECKING:
    import networkx as nx

CONNECTIVITY_ATTEMPTS = 20


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on indices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for i, j in self.edges:
            if i == j:
                raise ConfigError(f"self-loop at node {i}")
            if not (0 <= i < j < self.n):
                raise ConfigError(f"edge ({i}, {j}) out of range or unordered")

    def to_edge_list_text(self) -> str:
        lines = [f"{i} {j}" for i, j in sorted(self.edges)]
        return "\n".join(lines) + ("\n" if lines else "")


def _from_nx(g: "nx.Graph", n: int) -> Graph:
    edges = frozenset((min(u, v), max(u, v)) for u, v in g.edges())
    return Graph(n=n, edges=edges)


def nws_graph(n: int, k: int, p: float, seed: int) -> Graph:
    """Small-world graph: ring lattice of degree k plus seeded shortcuts.

    Each node connects to its k nearest ring neighbors; then every lattice
    edge independently spawns, with probability p, a shortcut from its first
    endpoint to a uniformly chosen non-neighbor. Shortcuts are added, never
    rewired, so the p=0 graph (exactly n*k/2 edges) is always a subgraph.
    """
    if k < 2 or k % 2 != 0:
        raise ConfigError(f"k must be even and >= 2, got {k}")
    if n <= k:
        raise ConfigError(f"need n > k, got n={n}, k={k}")
    if not 0 <= p <= 1:
        raise ConfigError(f"p must be a probability, got {p}")
    # Imported on first use: networkx loads about 300 modules, which would
    # slow every `latem` command that builds no graph.
    import networkx as nx

    return _from_nx(nx.newman_watts_strogatz_graph(n, k, float(p), seed=seed), n)


def random_graph(n: int, degree: int, seed: int) -> Graph:
    """Near-regular random graph, retried until connected.

    Each retry derives a fresh generator seed from the caller's seed, so the
    result is still a pure function of (n, degree, seed).
    """
    if degree >= n:
        raise ConfigError(f"degree {degree} must be smaller than n={n}")
    if (n * degree) % 2 != 0:
        raise ConfigError(f"n*degree must be even, got {n}*{degree}")
    import networkx as nx

    for attempt in range(CONNECTIVITY_ATTEMPTS):
        g = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(g):
            return _from_nx(g, n)
    raise RetryExhausted(
        f"no connected graph for n={n}, degree={degree} in "
        f"{CONNECTIVITY_ATTEMPTS} attempts"
    )


def neighbor_lists(g: Graph, ids: Mapping[int, str]) -> dict[str, list[str]]:
    """Adjacency translated to node identifiers, each list sorted."""
    missing = [i for i in range(g.n) if i not in ids]
    if missing:
        raise ConfigError(f"ids missing node indices {missing}")
    out: dict[str, list[str]] = {ids[i]: [] for i in range(g.n)}
    for i, j in g.edges:
        out[ids[i]].append(ids[j])
        out[ids[j]].append(ids[i])
    return {name: sorted(nbrs) for name, nbrs in out.items()}
