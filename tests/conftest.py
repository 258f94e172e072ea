import errno
import ipaddress
import json
import os
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import settings

from latem import autoarpd
from latem import delay_model as dm

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

GOLDENS = Path(__file__).parent / "goldens"
FIXTURES = Path(__file__).parent / "fixtures"

# Five nodes, three quantized delay levels (20/30/50 ms at quantum 10).
FIVE_NODE_ENTRIES = np.array(
    [
        [0, 18, 33, 52, 49],
        [18, 0, 28, 54, 16],
        [33, 28, 0, 47, 31],
        [52, 54, 47, 0, 22],
        [49, 16, 31, 22, 0],
    ],
    dtype=float,
)
FIVE_NODE_IPS = ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4", "10.0.0.5"]


def five_node_map() -> dm.DelayClassMap:
    quantized = dm.quantize(dm.DelayMatrix(FIVE_NODE_ENTRIES), dm.QUANTUM_MS)
    return dm.build_classes(quantized, FIVE_NODE_IPS)


@pytest.fixture
def five_node_classes() -> dm.DelayClassMap:
    return five_node_map()


def steps_of_kind(plan, kind: str) -> tuple:
    """The plan's steps of one kind, in plan order."""
    return tuple(s for s in plan.steps if s.kind == kind)


def text_of(script) -> str:
    """A script's whole text, its pieces joined."""
    return "".join(script.pieces())


def mismatched_marks(report) -> set[int]:
    """The marks of a verification report's mismatches."""
    return {m.mark for m in report.mismatches if m.mark is not None}


def _nx_graph(graph) -> nx.Graph:
    """A latem Graph's nodes 0..n-1 and edges as a networkx graph."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges)
    return g


def is_connected(graph) -> bool:
    return nx.is_connected(_nx_graph(graph))


def degrees(graph) -> list[int]:
    """networkx's degree of each of a latem Graph's nodes 0..n-1."""
    g = _nx_graph(graph)
    return [g.degree(i) for i in range(graph.n)]


def random_symmetric_matrix(rng: np.random.Generator, n: int, max_ms: float = 300.0):
    upper = np.triu(rng.uniform(0, max_ms, size=(n, n)), k=1)
    return dm.DelayMatrix(upper + upper.T)


def random_class_map(seed: int, max_nodes: int = 50) -> dm.DelayClassMap:
    """Seeded random class map over <= max_nodes IPs.

    Delay levels are multiples of 10 in [10, 2550]; the level-pool size varies
    from a handful up to 200, so class counts range from tiny to near the
    two-level tree's capacity.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes + 1))
    pool = int(rng.integers(1, 201))
    levels = rng.choice(np.arange(1, 256) * 10, size=pool, replace=False)
    q = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            q[i, j] = q[j, i] = int(rng.choice(levels))
    ips = [f"10.0.{idx // 250}.{(idx % 250) + 1}" for idx in range(n)]
    return dm.build_classes(q, ips)


def minimal_manifest_dict(**overrides) -> dict:
    base = {
        "name": "mini",
        "nodes": [
            {
                "name": "node001",
                "ip": "10.1.0.1",
                "image": "latem/node:latest",
                "processes": [
                    {"binary": "nodeproc", "args": ["--peer-file", "/etc/peers"], "start_phase": "start-proc"}
                ],
            },
            {
                "name": "node002",
                "ip": "10.1.0.2",
                "image": "latem/node:latest",
                "roles": ["validator"],
                "processes": [
                    {"binary": "nodeproc", "args": [], "start_phase": "start-proc"}
                ],
            },
        ],
        "phases": [
            {"name": "launch", "action": "launch"},
            {"name": "start-proc", "action": "signal", "signal": "SIGUSR1", "stagger_ms": 500},
        ],
    }
    base.update(overrides)
    return base


def write_manifest(tmp_path: Path, data: dict, name: str = "manifest.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return path


class OverflowOnceTransport:
    """Wraps a transport; its receive number `at` (from 0) fails with ENOBUFS."""

    def __init__(self, inner, at: int):
        self.inner, self.at, self.calls = inner, at, 0

    def receive(self):
        self.calls += 1
        if self.calls - 1 == self.at:
            raise OSError(errno.ENOBUFS, os.strerror(errno.ENOBUFS))
        return self.inner.receive()

    def reply(self, solicitation, entry) -> None:
        self.inner.reply(solicitation, entry)


def phase(manifest, name: str):
    """The manifest's phase called `name`."""
    return next(p for p in manifest.phases if p.name == name)


def required_values(plan) -> dict[str, str]:
    """Each key of a preflight plan with its required value."""
    return {e.key: e.required for e in plan}


def failing_keys(report) -> set[str]:
    """The keys of an audit report's FAIL rows."""
    return {r.key for r in report.rows if r.status == "FAIL"}


def pack_solicitation(ip: str, ifindex: int, seq: int = 0) -> bytes:
    """RTM_GETNEIGH message as the kernel multicasts it to the neighbor daemon."""
    payload = autoarpd._NDMSG.pack(autoarpd.AF_INET, 0, 0, ifindex, 0, 0, 0)
    payload += autoarpd._attr(autoarpd.NDA_DST, ipaddress.IPv4Address(ip).packed)
    header = autoarpd._NLMSGHDR.pack(
        autoarpd._NLMSGHDR.size + len(payload), autoarpd.RTM_GETNEIGH,
        autoarpd.NLM_F_REQUEST, seq, 0,
    )
    return header + payload
