"""Seeded inputs: delay matrices as whitespace text, and deployment manifests.

Delays are drawn in whole tenths of a millisecond and written as `<ms>.<d>`,
so the harness holds the exact integers the program parses and can quantize
them with integer arithmetic of its own.
"""

from __future__ import annotations

import ipaddress
import json
from pathlib import Path

import numpy as np

MAX_TENTHS = 19_000  # 1.9 s cap on the long-tailed matrix


def symmetric(n: int, upper: np.ndarray) -> np.ndarray:
    """n-by-n int64 matrix with zero diagonal from its strict upper triangle."""
    out = np.zeros((n, n), dtype=np.int64)
    out[np.triu_indices(n, 1)] = upper
    return out + out.T


def lognormal_tenths(n: int, seed: int) -> np.ndarray:
    """Internet-like one-way delays: lognormal, median 60 ms, capped at 1.9 s."""
    rng = np.random.default_rng(seed)
    raw = rng.lognormal(np.log(600.0), 1.0, size=n * (n - 1) // 2)
    return symmetric(n, np.clip(np.rint(raw), 1, MAX_TENTHS).astype(np.int64))


def uniform_tenths(n: int, lo_ms: float, hi_ms: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    upper = rng.integers(int(lo_ms * 10), int(hi_ms * 10), size=n * (n - 1) // 2,
                         endpoint=True)
    return symmetric(n, upper)


def write_matrix(path: Path, tenths: np.ndarray) -> None:
    text = [f"{v // 10}.{v % 10}" for v in range(int(tenths.max()) + 1)]
    with open(path, "w") as f:
        for row in tenths.tolist():
            f.write(" ".join([text[v] for v in row]))
            f.write("\n")


def allocate_ips(base: str, count: int) -> list[str]:
    """Sequential addresses skipping .0 and .255, as a deployment would number them."""
    out = []
    addr = int(ipaddress.IPv4Address(base))
    while len(out) < count:
        if addr & 0xFF not in (0, 255):
            out.append(str(ipaddress.IPv4Address(addr)))
        addr += 1
    return out


def node_name(i: int) -> str:
    return f"node{i:04d}"


def manifest(n: int, ip_base: str, seed: int, matrix_path: str, nws_k: int,
             gossip_degree: int, startup: str, steady: str) -> dict:
    """A deployment of the paper's shape: every node runs one agent process.

    Two overlays (small-world and random), one RAM-batched launch with a
    memory snapshot, and three signal phases: all nodes staggered, the
    validator role staggered, then all nodes at once. Timers carry their
    inflation kinds so `--inflate` applies.
    """
    ips = allocate_ips(ip_base, n)
    return {
        "name": f"bench-{n}",
        "runtime": {"adapter": "docker", "bridge": "latbr0", "container_iface": "eth0"},
        "nodes": [
            {
                "name": node_name(i),
                "ip": ips[i],
                "image": "latem/node:bench",
                "roles": ["validator"] if i % 4 == 0 else [],
                "processes": [{
                    "binary": "nodeproc",
                    "args": ["--block-time", "{timer:block_time_s}",
                             "--tx-rate", "{timer:tx_rate_per_s}"],
                    "start_phase": "start-nodes",
                }],
            }
            for i in range(n)
        ],
        "networks": {
            "blocks": {"kind": "nws", "k": nws_k, "p": "1/10", "seed": seed},
            "gossip": {"kind": "random", "degree": gossip_degree, "seed": seed},
        },
        "delay": {"matrix_path": matrix_path, "quantum_ms": 10, "subsample_seed": seed},
        "timers": {
            "block_time_s": {"value": 5, "kind": "duration"},
            "tx_rate_per_s": {"value": 4, "kind": "rate"},
        },
        "phases": [
            {"name": "launch", "action": "launch", "capture_stats": True},
            {"name": "start-nodes", "action": "signal", "signal": "SIGUSR1",
             "stagger_ms": 20},
            {"name": "start-validators", "action": "signal", "signal": "SIGUSR1",
             "target": "role:validator", "stagger_ms": 50},
            {"name": "start-load", "action": "signal", "signal": "SIGUSR2"},
        ],
        "resources": {
            "ram_cap_fraction": "0.8",
            "per_node_startup_fraction": startup,
            "per_node_steady_fraction": steady,
        },
    }


def write_manifest(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n")
