"""The dry-run plan's bytes at 1000 nodes, pinned by sha256.

The input is the benchmark's deployment shape (two overlays, a batched
launch, three signal phases, a duration and a rate timer) over a 1000-node
matrix of 2.5-200 ms. The matrix is drawn with integer arithmetic only, a
splitmix64 mix of each pair's index, so its bytes depend on no random
generator's version. `latem run --dry-run` plans it at factor 1 and at
`--inflate 2`; each step file is hashed and deleted, and the hashes, with the
input's, must equal `fixtures/plan_pins_1000.json`.

The matrix holds exactly the manifest's nodes, so `load_matrix` makes no
seeded subsample draw, the one step that would read numpy's generator.
A change that alters plan bytes on purpose rewrites that file with
`PYTHONPATH=src python scripts/pin_plan_digests.py` and says which step
files changed and why. Cost: about 0.7 s of tier-1 time on 2 vCPUs, most of
it the two dry runs (about 34 MB of step files each).
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from latem.cli import main

DIGESTS = Path(__file__).parent / "fixtures" / "plan_pins_1000.json"
NODES = 1000
SEED = 41
LO_TENTHS, HI_TENTHS = 25, 2000  # 2.5-200 ms, so 5-400 ms at --inflate 2
FACTORS = ("1", "2")
GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(index: np.ndarray, seed: int) -> np.ndarray:
    """Output `index` of splitmix64 from state `seed`; uint64 array arithmetic wraps."""
    z = (index.astype(np.uint64) + np.uint64(1)) * GOLDEN + np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def matrix_tenths(n: int, seed: int) -> np.ndarray:
    """A symmetric n-by-n matrix of whole tenths of a ms, zero on the diagonal."""
    upper = splitmix64(np.arange(n * (n - 1) // 2), seed) % np.uint64(HI_TENTHS - LO_TENTHS + 1)
    out = np.zeros((n, n), dtype=np.int64)
    out[np.triu_indices(n, 1)] = upper.astype(np.int64) + LO_TENTHS
    return out + out.T


def manifest(n: int, seed: int) -> dict:
    """The benchmark's deployment shape at n nodes (its `dryrun-1000` sizes at 1000)."""
    base = 10 << 24 | 2 << 16  # 10.2.0.0; addresses skip .0 and .255 of each /24
    ips = [a for a in range(base, base + 2 * n) if a & 0xFF not in (0, 255)][:n]
    return {
        "name": f"pin-{n}",
        "runtime": {"bridge": "latbr0", "container_iface": "eth0"},
        "nodes": [
            {
                "name": f"node{i:04d}",
                "ip": ".".join(str(ip >> s & 0xFF) for s in (24, 16, 8, 0)),
                "image": "latem/node:bench",
                "roles": ["validator"] if i % 4 == 0 else [],
                "processes": [{
                    "binary": "nodeproc",
                    "args": ["--block-time", "{timer:block_time_s}",
                             "--tx-rate", "{timer:tx_rate_per_s}"],
                    "start_phase": "start-nodes",
                }],
            }
            for i, ip in enumerate(ips)
        ],
        "networks": {
            "blocks": {"kind": "nws", "k": 8, "p": "1/10", "seed": seed},
            "gossip": {"kind": "random", "degree": 6, "seed": seed},
        },
        "delay": {"matrix_path": "matrix.txt", "quantum_ms": 10, "subsample_seed": seed},
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
            "per_node_startup_fraction": "1/500",
            "per_node_steady_fraction": "1/2000",
        },
    }


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def write_inputs(work: Path) -> dict[str, str]:
    """The matrix and manifest files under work, and their digests."""
    text = [f"{v // 10}.{v % 10}" for v in range(HI_TENTHS + 1)]
    with open(work / "matrix.txt", "w") as f:
        for row in matrix_tenths(NODES, SEED).tolist():
            f.write(" ".join([text[v] for v in row]) + "\n")
    (work / "manifest.json").write_text(json.dumps(manifest(NODES, SEED), indent=2) + "\n")
    return {name: sha256(work / name) for name in ("matrix.txt", "manifest.json")}


def plan_digests(work: Path, factor: str) -> dict[str, str]:
    """Each step file of the dry run at factor, by name: hashed, then deleted."""
    out = work / f"plan-{factor}"
    argv = ["run", "--manifest", str(work / "manifest.json"), "--dry-run", "--out", str(out)]
    with redirect_stdout(io.StringIO()):
        rc = main(argv if factor == "1" else argv + ["--inflate", factor])
    assert rc == 0, f"latem {' '.join(argv)} at factor {factor} exited {rc}"
    digests = {}
    for path in sorted(out.iterdir()):
        digests[path.name] = sha256(path)
        path.unlink()
    out.rmdir()
    return digests


def all_digests(work: Path) -> dict:
    """What `fixtures/plan_pins_1000.json` holds: the input's and each plan's digests."""
    return {"input": write_inputs(work),
            **{f"factor {f}": plan_digests(work, f) for f in FACTORS}}


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("pin")


@pytest.fixture(scope="module")
def input_digests(work) -> dict[str, str]:
    return write_inputs(work)


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DIGESTS.read_text())


def differing(got: dict[str, str], want: dict[str, str]) -> list[str]:
    return sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))


def test_the_input_keeps_its_bytes(input_digests, pinned):
    changed = differing(input_digests, pinned["input"])
    assert not changed, f"the pin's input generator changed: {changed}"


@pytest.mark.parametrize("factor", FACTORS)
def test_the_dry_run_keeps_its_bytes(work, input_digests, pinned, factor):
    changed = differing(plan_digests(work, factor), pinned[f"factor {factor}"])
    assert not changed, f"step files whose bytes changed at factor {factor}: {changed}"


def test_the_mix_is_splitmix64():
    # The reference output of splitmix64 from state 0: its first value.
    assert int(splitmix64(np.arange(1), 0)[0]) == 0xE220A8397B1DCDAF
