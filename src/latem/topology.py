"""Deterministic overlay topologies and per-node neighbor lists.

Nodes never discover each other autonomously in an emulated deployment; the
overlay (who peers with whom) is generated up front, seeded, and injected
into each node's configuration. Two generators are provided: a small-world
graph (ring lattice plus random shortcuts, never removing lattice edges, so
connectivity is guaranteed for k >= 2) and a near-regular random graph with
bounded connectivity retries. Both draw from the standard library's
`random.Random(seed)` in the order networkx 3.x does, so their edges equal
those of `networkx.newman_watts_strogatz_graph(n, k, p, seed=seed)` and
`networkx.random_regular_graph(degree, n, seed=seed + attempt)` for the
same arguments; tests compare the two over many seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import ConfigError, RetryExhausted

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


def nws_faults(n: int, k: int, p: float) -> Iterator[tuple[str, str]]:
    """(parameter, reason) for each rule of `nws_graph` that n, k and p break."""
    if k < 2 or k % 2 != 0:
        yield "k", f"k must be even and >= 2, got {k}"
    if n <= k:
        yield "k", f"need n > k, got n={n}, k={k}"
    if not 0 <= p <= 1:
        yield "p", f"p must be a probability, got {p}"


def random_faults(n: int, degree: int) -> Iterator[tuple[str, str]]:
    """(parameter, reason) for each rule of `random_graph` that n and degree break."""
    if degree < 0:
        yield "degree", f"degree must be >= 0, got {degree}"
    if degree >= n:
        yield "degree", f"degree {degree} must be smaller than n={n}"
    if (n * degree) % 2 != 0:
        yield "degree", f"n*degree must be even, got {n}*{degree}"


def nws_graph(n: int, k: int, p: float, seed: int) -> Graph:
    """Small-world graph: ring lattice of degree k plus seeded shortcuts.

    Each node connects to its k nearest ring neighbors; then every lattice
    edge independently spawns, with probability p, a shortcut from its first
    endpoint to a uniformly chosen non-neighbor. Shortcuts are added, never
    rewired, so the p=0 graph (exactly n*k/2 edges) is always a subgraph.
    """
    for _, reason in nws_faults(n, k, p):
        raise ConfigError(reason)
    p = float(p)  # a Fraction p would compare exactly, unlike networkx's float
    rng = random.Random(seed)
    nodes = range(n)
    adj: list[set[int]] = [set() for _ in nodes]
    for i in nodes:
        for j in range(1, k // 2 + 1):
            adj[i].add((i + j) % n)
            adj[(i + j) % n].add(i)
    # networkx walks the lattice edges node by node, each from its smaller
    # endpoint, and every draw depends only on that endpoint: so each node u
    # draws once per lattice neighbor above it, in ascending u.
    firsts = [u for u in nodes for v in adj[u] if v > u]
    for u in firsts:
        if rng.random() < p:
            w = rng.choice(nodes)
            while w == u or w in adj[u]:
                w = rng.choice(nodes)
                if len(adj[u]) >= n - 1:
                    break  # u already neighbors every node: no shortcut
            else:
                adj[u].add(w)
                adj[w].add(u)
    return Graph(n=n, edges=frozenset((u, v) for u in nodes for v in adj[u] if v > u))


def _suitable(edges: set[tuple[int, int]], potential: dict[int, int]) -> bool:
    """Whether some pair of leftover stubs could still form a new edge.

    A literal port of networkx's helper, down to rebinding `s1` inside the
    inner loop, which decides which pairs are looked at.
    """
    if not potential:
        return True
    for s1 in potential:
        for s2 in potential:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _regular_edges(n: int, degree: int, rng: random.Random) -> set[tuple[int, int]]:
    """Pair shuffled stubs until every node has `degree` distinct neighbors.

    Stubs that would make a self-loop or a repeated edge are shuffled again
    on their own; when no leftover pair can form a new edge, the whole
    attempt starts over with the same generator.
    """
    while True:
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * degree
        while stubs:
            potential: dict[int, int] = {}
            rng.shuffle(stubs)
            it = iter(stubs)
            for s1, s2 in zip(it, it):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    # insertion order makes the next stub list, so the next shuffle
                    potential[s1] = potential.get(s1, 0) + 1
                    potential[s2] = potential.get(s2, 0) + 1
            if not _suitable(edges, potential):
                break
            stubs = [node for node, count in potential.items() for _ in range(count)]
        else:
            return edges


def _is_connected(n: int, edges: set[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def random_graph(n: int, degree: int, seed: int) -> Graph:
    """Near-regular random graph, retried until connected.

    Each retry derives a fresh generator seed from the caller's seed, so the
    result is still a pure function of (n, degree, seed).
    """
    for _, reason in random_faults(n, degree):
        raise ConfigError(reason)
    for attempt in range(CONNECTIVITY_ATTEMPTS):
        edges = _regular_edges(n, degree, random.Random(seed + attempt))
        if _is_connected(n, edges):
            return Graph(n=n, edges=frozenset(edges))
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
