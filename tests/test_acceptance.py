"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import os
import struct
import threading
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from latem import delay_model as dm
from latem.autoarpd import (
    NUD_REACHABLE,
    MockSolicitTransport,
    Solicitation,
    pack_neighbor_update,
    serve,
)
from latem.delay_model import compute_bands
from latem.link_layer import emit_fdb_script, mac_for_ip
from latem.manifest import ResourceModel, parse_manifest
from latem.nft_planner import emit_nft_script
from latem.orchestrator import build_startup_plan, execute, plan_batches
from latem.script import CommandScript
from latem.stats import summarize_stats
from latem.sys_preflight import audit, recommend
from latem.tc_planner import (
    MAX_BANDS,
    emit_tc_script,
    leaf_position,
    verify_plan,
)
from latem.time_inflation import BpfRtoConfig, emit_bpf_commands, recommend_rto, render_bpf_source
from latem.topology import nws_graph

from conftest import (
    FIXTURES,
    GOLDENS,
    failing_keys,
    is_connected,
    minimal_manifest_dict,
    mismatched_marks,
    random_class_map,
    required_values,
    text_of,
)
from fake_adapters import RecordingAdapter, ScriptedAdapter


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({name}): PASS")


def test_criterion_01_band_arithmetic():
    with criterion(1, "band arithmetic"):
        start = time.perf_counter()
        assert compute_bands(184) == 14
        for k in range(1, 256):
            brute = next(b for b in range(2, MAX_BANDS + 1) if b * b >= k + 1)
            assert compute_bands(k) == brute
        assert time.perf_counter() - start < 1.0


def test_criterion_02_leaf_layout():
    with criterion(2, "leaf layout"):
        start = time.perf_counter()
        for b in range(2, MAX_BANDS + 1):
            positions = set()
            for mark in range(1, b * b):
                pos = leaf_position(mark, b)
                assert pos != (b, b)
                positions.add(pos)
            assert len(positions) == b * b - 1
        assert time.perf_counter() - start < 1.0


def test_criterion_03_plan_oracle():
    with criterion(3, "plan oracle over random class maps"):
        start = time.perf_counter()
        checked = 0
        for seed in range(200):
            classes = random_class_map(seed)
            if len(classes) == 0:
                continue
            checked += 1
            nft = emit_nft_script(classes)
            b = compute_bands(len(classes))
            tc = emit_tc_script(classes.class_delays(), "veth0", b)
            report = verify_plan(nft, tc, classes)
            assert report.ok, f"seed {seed}: {report.mismatches[:3]}"
            if seed % 10 == 0:
                # fault injection: retarget one mark's root filter
                mark = classes.classes[len(classes) // 2].mark
                tampered_lines = []
                for line in tc:
                    if f"parent 1: prio 10 handle {mark} fw classid 1:" in line:
                        head, band_hex = line.rsplit(":", 1)
                        wrong = format((int(band_hex, 16) % b) + 1, "x")
                        line = f"{head}:{wrong}"
                    tampered_lines.append(line)
                bad = verify_plan(nft, CommandScript(lines=tuple(tampered_lines)), classes)
                assert mismatched_marks(bad) == {mark}
        assert checked >= 150
        assert time.perf_counter() - start < 30.0


def test_criterion_04_golden_scripts(five_node_classes):
    with criterion(4, "golden nft/tc/fdb scripts"):
        k = len(five_node_classes)
        b = compute_bands(k)
        nft = emit_nft_script(five_node_classes)
        tc = emit_tc_script(five_node_classes.class_delays(), "vetha1", b)
        fdb = emit_fdb_script([(f"10.0.0.{i}", f"vetha{i}") for i in range(1, 6)])
        assert text_of(nft) == (GOLDENS / "nft_5node3class.txt").read_text()
        assert text_of(tc) == (GOLDENS / "tc_5node3class.txt").read_text()
        assert text_of(fdb) == (GOLDENS / "fdb_5node.txt").read_text()
        assert len(nft) == 2 + 3 * k
        assert len(tc) == 1 + b + 3 * k + 2
        # byte-identical across repeated emission
        assert text_of(emit_nft_script(five_node_classes)) == text_of(nft)
        tc_again = emit_tc_script(five_node_classes.class_delays(), "vetha1", b)
        assert text_of(tc_again) == text_of(tc)


def test_criterion_05_quantization_class_count_bound():
    with criterion(5, "quantization class-count bound (synthetic)"):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 40))
            upper = np.triu(rng.uniform(0, 2000, size=(n, n)), k=1)
            matrix = dm.DelayMatrix(upper + upper.T)
            quantized = dm.quantize(matrix, dm.QUANTUM_MS)
            ips = [f"10.7.{i // 250}.{i % 250 + 1}" for i in range(n)]
            classes = dm.build_classes(quantized, ips)
            assert len(classes) <= int(matrix.entries.max() // dm.QUANTUM_MS) + 1


MATRIX1_ENV = "LATEM_MATRIX1"


def test_criterion_05_quantization_matrix1_conditional():
    path = os.environ.get(MATRIX1_ENV, "")
    if not path or not Path(path).exists():
        print(
            "[acceptance] criterion  5 (Matrix1 class count): SKIPPED "
            f"(set {MATRIX1_ENV} to the matrix file to enable)"
        )
        pytest.skip("Matrix1 not supplied; report-only")
    with criterion(5, "Matrix1 class count"):
        matrix = dm.load_matrix(path)
        quantized = dm.quantize(matrix, dm.QUANTUM_MS)
        values = np.unique(quantized[np.triu_indices(matrix.n, k=1)])
        count = int(np.count_nonzero(values))
        print(f"[acceptance] Matrix1 distinct nonzero 10ms classes (nearest-half-up): {count}")
        assert count == 184


TABLE_ROWS = [
    # (checkpoint, min, max, avg, expected_total, expected_percent)
    ("agent-only", "23.06", "34.09", "28.9262", "21694.65", "5.51"),
    ("exec-started", "314.3", "347.8", "327.211", "245408.25", "62.38"),
    ("consensus-started", "396.6", "435.2", "412.807", "309605.25", "78.70"),
    ("validator-started", "398.4", "451.4", "420.5", "315375", "80.16"),
    ("after-transactions", "255.1", "342.3", "286.216", "214662", "54.56"),
]


def test_criterion_06_batch_schedule():
    with criterion(6, "batch schedule 243/79 (84 with percent rounding)"):
        resources = ResourceModel(
            ram_cap_fraction=Fraction("0.80"),
            per_node_startup_fraction=Fraction("0.80") / 750,
            per_node_steady_fraction=Fraction("0.54") / 750,
        )
        exact = plan_batches(1100, resources)
        assert exact.batches[0] == 750
        assert exact.batches[1] == 243
        assert exact.batches[2] == 79
        rounded = plan_batches(1100, resources, paper_rounding=True)
        assert rounded.batches[1] == 243
        assert rounded.batches[2] == 84


def test_criterion_07_memory_summary():
    with criterion(7, "memory summary totals and percentages"):
        available = 393216  # 384 GiB in MiB
        samples = {
            name: {f"n{i}": Decimal(avg) for i in range(750)}
            for name, _mn, _mx, avg, _total, _pct in TABLE_ROWS
        }
        by_name = {cp.name: cp for cp in summarize_stats(samples, available)}
        for name, _mn, _mx, avg, total, pct in TABLE_ROWS:
            cp = by_name[name]
            assert cp.total_mib == Decimal(total), name
            assert cp.avg_mib == Decimal(avg), name
            assert abs(cp.percent_of_available - Decimal(pct)) <= Decimal("0.1"), name


def test_criterion_08_rto_and_bpf():
    with criterion(8, "RTO recommendation and BPF override"):
        assert recommend_rto(400) == 1
        assert recommend_rto(500) == 2
        assert recommend_rto(1990) == 4
        reference = (FIXTURES / "tcp-rto-reference.c").read_text()
        rendered = render_bpf_source(BpfRtoConfig(3, 250))
        ref_lines = reference.splitlines()
        new_lines = rendered.splitlines()
        assert len(ref_lines) == len(new_lines)
        differing = {i for i, (a, b) in enumerate(zip(ref_lines, new_lines)) if a != b}
        constant_lines = {
            i for i, line in enumerate(ref_lines)
            if "const int timeout" in line or "const int hz" in line
        }
        assert differing <= constant_lines
        commands = emit_bpf_commands()
        assert "bpftool prog load tcp-rto.o /sys/fs/bpf/tcp-rto" in commands.load.lines


def test_criterion_09_autoarpd_bulk():
    with criterion(9, "neighbor daemon answers 1e5 solicitations"):
        assert mac_for_ip("172.17.0.2") == "02:42:ac:11:00:02"
        rng = np.random.default_rng(2024)
        octets = rng.integers(0, 256, size=(100_000, 4))
        pending = [
            Solicitation(ip=f"{a}.{b}.{c}.{d}", ifindex=2) for a, b, c, d in octets
        ]
        stop = threading.Event()
        transport = MockSolicitTransport(pending=pending, stop_signal=stop)
        stats = serve(transport, stop_signal=stop)
        assert stats.received == stats.replied == 100_000
        assert len(transport.replies) == 100_000
        for solicitation, entry in transport.replies:
            update = pack_neighbor_update(entry, solicitation.ifindex)
            assert struct.unpack_from("=BBHiHBB", update, 16)[4] == NUD_REACHABLE
            assert entry.ip == solicitation.ip
            assert entry.mac == mac_for_ip(solicitation.ip)


def test_criterion_10_topology():
    with criterion(10, "small-world lattice counts and connectivity"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            k = int(rng.integers(1, 5)) * 2
            n = int(rng.integers(k + 1, k + 40))
            seed = int(rng.integers(0, 2**31))
            g = nws_graph(n, k, 0, seed)
            assert len(g.edges) == n * k // 2
            assert is_connected(g)
            assert g == nws_graph(n, k, 0, seed)
        # determinism with shortcuts enabled
        assert nws_graph(50, 4, 0.4, 7) == nws_graph(50, 4, 0.4, 7)


def test_criterion_11_dry_run_purity_and_fault_stop(tmp_path):
    with criterion(11, "dry-run purity; apply stops at fault"):
        data = minimal_manifest_dict()
        manifest = parse_manifest(data)
        plan = build_startup_plan(manifest)

        spy = RecordingAdapter()
        execute(plan, "dry-run", adapter=spy, out_dir=tmp_path / "a")
        execute(plan, "dry-run", adapter=spy, out_dir=tmp_path / "b")
        assert spy.calls == []
        a_files = sorted((tmp_path / "a").iterdir())
        b_files = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in a_files] == [p.name for p in b_files]
        assert all(pa.read_bytes() == pb.read_bytes() for pa, pb in zip(a_files, b_files))
        assert len(a_files) == len(plan.steps)

        adapter = ScriptedAdapter(
            failures={"bridge fdb add": 1},
            responses={
                "ip -o link show": "7: vetha1@if6: x\n9: vetha2@if8: x\n",
                "docker exec node001 cat /sys/class/net/eth0/iflink": "7",
                "docker exec node001 cat /sys/class/net/eth0/address": "02:42:0a:01:00:01",
                "docker exec node002 cat /sys/class/net/eth0/iflink": "9",
                "docker exec node002 cat /sys/class/net/eth0/address": "02:42:0a:01:00:02",
            },
        )
        report = execute(plan, "apply", adapter=adapter)
        statuses = [s.status for s in report.steps]
        fail_at = statuses.index("failed")
        assert report.steps[fail_at].kind == "fdb"
        assert all(s == "ok" for s in statuses[:fail_at])
        assert all(s == "skipped" for s in statuses[fail_at + 1 :])


def test_criterion_12_preflight_audit():
    with criterion(12, "preflight audit against stock defaults"):
        plan = recommend(3500)
        stock = {
            "kernel.pty.max": "4096",
            "net.core.rmem_max": "212992",
            "net.core.rmem_default": "212992",
            "net.core.wmem_max": "212992",
            "net.core.wmem_default": "212992",
            "net.ipv4.tcp_rmem": "4096 131072 6291456",
            "net.ipv4.tcp_wmem": "4096 16384 4194304",
            "net.ipv4.neigh.default.gc_thresh1": "128",
            "net.ipv4.neigh.default.gc_thresh2": "512",
            "net.ipv4.neigh.default.gc_thresh3": "1024",
            "nofile": "1024",
            "nproc": "63139",
        }
        report = audit(plan, stock)
        failing = failing_keys(report)
        assert "kernel.pty.max" in failing
        assert "net.ipv4.tcp_rmem" in failing
        assert "net.ipv4.tcp_wmem" in failing
        assert {
            "net.ipv4.neigh.default.gc_thresh1",
            "net.ipv4.neigh.default.gc_thresh2",
            "net.ipv4.neigh.default.gc_thresh3",
        } <= failing
        assert audit(plan, required_values(plan)).all_pass
