#!/usr/bin/env python3
"""End-to-end dry run on a synthetic deployment.

Generates a seeded symmetric delay matrix and a 12-node manifest (two
overlay networks, four phases, a RAM model), then builds the startup plan
and writes every step's script under ./demo-out. Nothing touches the system.

Usage: python scripts/demo_dry_run.py [out_dir]
"""

import json
import sys
from pathlib import Path

import numpy as np

from latem.delay_model import allocate_ips
from latem.manifest import load_manifest
from latem.orchestrator import build_startup_plan, delay_classes_for_manifest, execute

NODES = 12


def synthetic_matrix(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(5, 180, size=(n, n)), k=1)
    return upper + upper.T


def build_manifest(workdir: Path) -> Path:
    ips = allocate_ips("10.42.0.1", NODES)
    manifest = {
        "name": "demo",
        "runtime": {"bridge": "latbr0"},
        "nodes": [
            {
                "name": f"node{i:03d}",
                "ip": ips[i],
                "image": "latem/node:latest",
                "roles": ["validator"] if i % 3 == 0 else [],
                "processes": [
                    {
                        "binary": "nodeproc",
                        "args": ["--block-time", "{timer:block_time_s}"],
                        "start_phase": "start-nodes",
                    }
                ],
            }
            for i in range(NODES)
        ],
        "networks": {
            "blocks": {"kind": "nws", "k": 4, "p": 0.2, "seed": 7},
            "gossip": {"kind": "random", "degree": 3, "seed": 11},
        },
        "delay": {"matrix_path": "matrix.txt", "quantum_ms": 10, "subsample_seed": 1},
        "timers": {
            "block_time_s": {"value": 5, "kind": "duration"},
            "tx_rate_per_s": {"value": 4, "kind": "rate"},
        },
        "phases": [
            {"name": "launch", "action": "launch"},
            {"name": "start-nodes", "action": "signal", "signal": "SIGUSR1", "stagger_ms": 500},
            {"name": "start-validators", "action": "signal", "signal": "SIGUSR1",
             "target": "role:validator", "stagger_ms": 500},
            {"name": "start-load", "action": "signal", "signal": "SIGUSR2"},
        ],
        "resources": {
            "ram_cap_fraction": "0.80",
            "per_node_startup_fraction": "0.08",
            "per_node_steady_fraction": "0.05",
        },
    }
    np.savetxt(workdir / "matrix.txt", synthetic_matrix(NODES, seed=3), fmt="%.2f")
    path = workdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = build_manifest(out_dir)
    manifest = load_manifest(manifest_path)
    classes, bands = delay_classes_for_manifest(manifest, out_dir)
    print(f"{len(classes)} delay classes, {bands} bands per prio qdisc")
    plan = build_startup_plan(manifest, classes=classes, bands=bands)
    report = execute(plan, "dry-run", out_dir=out_dir / "plan")
    for step in report.steps:
        print(f"  {step.status:8s} {step.detail}")
    print(f"dry-run plan written under {out_dir / 'plan'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
