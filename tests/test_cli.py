import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latem
from latem.cli import main
from latem.link_layer import check_bridge_capacity

from conftest import FIVE_NODE_ENTRIES, FIXTURES, minimal_manifest_dict, write_manifest
from fake_adapters import ScriptedAdapter


@pytest.fixture
def matrix_file(tmp_path) -> Path:
    path = tmp_path / "matrix.txt"
    np.savetxt(path, FIVE_NODE_ENTRIES, fmt="%d")
    return path


@pytest.fixture
def classes_file(tmp_path, matrix_file) -> Path:
    out = tmp_path / "classes.json"
    rc = main(
        ["plan-delays", "--matrix", str(matrix_file), "--out", str(out),
         "--ip-base", "10.0.0.1"]
    )
    assert rc == 0
    return out


def test_plan_delays_writes_class_map(classes_file):
    payload = json.loads(classes_file.read_text())
    assert len(payload["classes"]) == 3
    assert payload["quantum_ms"] == 10


def test_plan_delays_matches_golden_bytes(classes_file):
    golden = Path(__file__).parent / "goldens" / "classes_5node3class.json"
    assert classes_file.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize(
    "options",
    [
        ["--keep-zero-class"],
        ["--quantum", "7", "--rounding", "ceil"],
        ["--quantum", "25", "--rounding", "floor", "--keep-zero-class"],
    ],
)
def test_plan_delays_output_is_json_dumps_of_its_class_map(tmp_path, matrix_file, options):
    out = tmp_path / "classes.json"
    # the five addresses from 10.0.0.254 cross into 10.0.1.x
    rc = main(["plan-delays", "--matrix", str(matrix_file), "--out", str(out),
               "--ip-base", "10.0.0.254", *options])
    assert rc == 0
    text = out.read_text()
    payload = json.loads(text)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
    assert "10.0.1.2" in text


def test_plan_delays_with_subsample_and_inflate(tmp_path, matrix_file, capsys):
    rc = main(
        ["plan-delays", "--matrix", str(matrix_file), "--count", "3", "--seed", "7",
         "--inflate", "2", "--ip-base", "10.0.0.1"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classes"]


def test_emit_nft_matches_golden(classes_file, tmp_path, capsys):
    rc = main(["emit-nft", "--classes", str(classes_file)])
    assert rc == 0
    golden = (Path(__file__).parent / "goldens" / "nft_5node3class.txt").read_text()
    assert capsys.readouterr().out == golden


def test_emit_tc_matches_golden(classes_file, capsys):
    rc = main(["emit-tc", "--classes", str(classes_file), "--veth", "vetha1"])
    assert rc == 0
    golden = (Path(__file__).parent / "goldens" / "tc_5node3class.txt").read_text()
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("pair", [[], ["10.0.0.1"], ["10.0.0.1", "10.0.0.2", "10.0.0.3"]])
def test_emit_tc_rejects_a_pair_of_other_than_two_addresses(tmp_path, capsys, pair):
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps({"classes": [{"mark": 3, "delay_ms": 30, "pairs": [pair]}]}))
    rc = main(["emit-tc", "--classes", str(classes), "--veth", "vetha1"])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: class with mark 3: a pair must hold exactly two addresses")


def test_emit_nft_rejects_a_number_or_bool_address(tmp_path, capsys):
    classes = tmp_path / "classes.json"
    classes.write_text('{"classes": [{"mark": 1, "delay_ms": 10, "pairs": [[1, 2], [true, 3]]}]}')
    rc = main(["emit-nft", "--classes", str(classes)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: class with mark 1: address 1 is not a string\n"


def test_emit_fdb_from_nodes_file(tmp_path, capsys):
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("10.0.0.1 vetha1\n10.0.0.2 vetha2\n")
    rc = main(["emit-fdb", "--nodes-file", str(nodes)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "bridge fdb add 02:42:0a:00:00:01 dev vetha1 master static"


def test_emit_fdb_from_manifest(tmp_path, capsys):
    path = write_manifest(tmp_path, minimal_manifest_dict())
    rc = main(["emit-fdb", "--manifest", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dev {veth:node001}" in out


def test_gen_topology_edge_list(capsys):
    rc = main(["gen-topology", "--kind", "nws", "--n", "6", "--k", "2", "--p", "0", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 6  # pure ring


def test_gen_topology_neighbors_json(capsys):
    rc = main(
        ["gen-topology", "--kind", "random", "--n", "6", "--degree", "2",
         "--seed", "3", "--neighbors"]
    )
    assert rc == 0
    lists = json.loads(capsys.readouterr().out)
    assert len(lists) == 6


def test_gen_bpf_source(tmp_path, capsys):
    out = tmp_path / "tcp-rto.c"
    rc = main(["gen-bpf", "--timeout-s", "3", "--hz", "250", "--source-out", str(out)])
    assert rc == 0
    assert out.read_text() == (FIXTURES / "tcp-rto-reference.c").read_text()
    err = capsys.readouterr().err
    assert "bpftool prog load tcp-rto.o /sys/fs/bpf/tcp-rto" in err


def test_plan_batches_prints_schedule(capsys):
    rc = main(
        ["plan-batches", "--total", "1072", "--cap", "0.80",
         "--startup", "0.80/750", "--steady", "0.54/750"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "batch 2: 243 nodes" in out
    assert "batch 3: 79 nodes" in out


def test_plan_batches_paper_rounding(capsys):
    rc = main(
        ["plan-batches", "--total", "1077", "--cap", "0.80",
         "--startup", "0.80/750", "--steady", "0.54/750", "--paper-rounding"]
    )
    assert rc == 0
    assert "batch 3: 84 nodes" in capsys.readouterr().out


def test_plan_batches_reports_unschedulable_remainder(capsys):
    rc = main(
        ["plan-batches", "--total", "5000", "--cap", "0.80",
         "--startup", "0.80/750", "--steady", "0.54/750"]
    )
    assert rc == 1
    assert "unscheduled" in capsys.readouterr().out


def test_preflight_fragments(tmp_path):
    limits = tmp_path / "limits.conf"
    sysctl = tmp_path / "sysctl.conf"
    rc = main(
        ["preflight", "--nodes", "3500", "--limits-out", str(limits),
         "--sysctl-out", str(sysctl)]
    )
    assert rc == 0
    assert "root soft nofile 1574415" in limits.read_text()
    assert "kernel.pty.max=11000" in sysctl.read_text()


def test_preflight_audit_exit_code(tmp_path, capsys):
    readings = tmp_path / "readings.txt"
    readings.write_text("kernel.pty.max = 4096\n")
    rc = main(["preflight", "--nodes", "3500", "--readings", str(readings)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "kernel.pty.max" in out


def test_run_dry_run_tree(tmp_path, matrix_file):
    data = minimal_manifest_dict()
    data["delay"] = {"matrix_path": str(matrix_file), "quantum_ms": 10}
    path = write_manifest(tmp_path, data)
    out_dir = tmp_path / "out"
    rc = main(["run", "--manifest", str(path), "--dry-run", "--out", str(out_dir)])
    assert rc == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert any(n.endswith("-nft.sh") for n in names)
    assert any(n.endswith("-tc.sh") for n in names)
    assert any("launch" in n for n in names)


@pytest.mark.parametrize("n", [1024, 1025])
def test_run_warns_past_the_bridge_port_limit(tmp_path, capsys, n):
    data = minimal_manifest_dict()
    data["nodes"] = [
        {"name": f"n{i:04d}", "ip": f"10.1.{i // 250}.{i % 250 + 1}", "image": "img",
         "processes": []}
        for i in range(n)
    ]
    data["phases"] = [{"name": "launch", "action": "launch"}]
    path = write_manifest(tmp_path, data)
    rc = main(["run", "--manifest", str(path), "--dry-run", "--out", str(tmp_path / "out")])
    assert rc == 0
    warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
    if n > 1024:
        assert warnings == [f"warning: {check_bridge_capacity(n).message}"]
    else:
        assert warnings == []


def test_run_apply_prints_the_failing_line_and_stderr(tmp_path, monkeypatch, capsys):
    path = write_manifest(tmp_path, minimal_manifest_dict())
    monkeypatch.setattr("latem.cli.ShellAdapter",
                        lambda: ScriptedAdapter(failures={"ulimit -Hu": 2}))
    rc = main(["run", "--manifest", str(path), "--apply"])
    assert rc == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "failed   preflight"
    assert out[1].startswith("         exit 2: test \"$(ulimit -Hu)\"")
    assert out[2] == "         | scripted failure for 'ulimit -Hu'"
    assert all(line.startswith("skipped") for line in out[3:])


def test_run_dry_run_with_inflation(tmp_path):
    matrix = tmp_path / "m.txt"
    matrix.write_text("0 30\n30 0\n")
    data = minimal_manifest_dict()
    data["delay"] = {"matrix_path": "m.txt", "quantum_ms": 10}
    data["timers"] = {"block_time_s": {"value": 12, "kind": "duration"}}
    path = write_manifest(tmp_path, data)
    out_dir = tmp_path / "out"
    rc = main(
        ["run", "--manifest", str(path), "--dry-run", "--out", str(out_dir),
         "--inflate", "2"]
    )
    assert rc == 0
    tc_file = next(p for p in out_dir.iterdir() if p.name.endswith("-tc.sh"))
    assert "netem delay 60ms" in tc_file.read_text()


def test_autoarpd_emit_sysctls(capsys):
    rc = main(["autoarpd", "--interface", "eth0", "--emit-sysctls"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "net.ipv4.neigh.eth0.mcast_solicit = 0" in out
    assert "app_solicit = 1" in out
    assert "base_reachable_time_ms = 72000000" in out


def test_autoarpd_apply_sysctls_stops_at_the_failing_line(monkeypatch, capsys):
    adapter = ScriptedAdapter(failures={"app_solicit": 255})
    monkeypatch.setattr("latem.cli.ShellAdapter", lambda: adapter)
    monkeypatch.setattr("latem.autoarpd.NetlinkSolicitTransport",
                        lambda: pytest.fail("the daemon started after a failed sysctl"))
    rc = main(["autoarpd", "--interface", "eth0", "--apply-sysctls"])
    assert rc == 1
    assert adapter.calls == [
        "sysctl -w 'net.ipv4.neigh.eth0.mcast_solicit = 0'",
        "sysctl -w 'net.ipv4.neigh.eth0.app_solicit = 1'",
    ]
    assert capsys.readouterr().err == (
        "error: sysctl -w 'net.ipv4.neigh.eth0.app_solicit = 1' -> exit 255\n"
    )


def test_stats_summary(capsys):
    rc = main(["stats", "--available-mib", "393216", str(FIXTURES / "stats_sample.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stats_sample" in out
    assert "nodes=6" in out


def test_validation_error_maps_to_exit_2(tmp_path, capsys):
    data = minimal_manifest_dict()
    data["nodes"][1]["ip"] = data["nodes"][0]["ip"]
    path = write_manifest(tmp_path, data)
    rc = main(["run", "--manifest", str(path), "--dry-run", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "duplicate IP" in capsys.readouterr().err


def _python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(latem.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return result.stdout.strip()


def test_importing_the_cli_leaves_networkx_and_numpy_unloaded():
    # Only the overlay generators need networkx and only the matrix functions
    # need numpy; every other command starts without them.
    code = "import sys, latem.cli; print('networkx' in sys.modules, 'numpy' in sys.modules)"
    assert _python(code) == "False False"


def test_class_map_commands_never_load_numpy(classes_file, tmp_path):
    code = """
import sys
from pathlib import Path
from latem.cli import main, _load_classes
from latem.script import CommandScript
from latem.tc_planner import verify_plan
classes, nft, tc = sys.argv[1:]
assert main(["emit-nft", "--classes", classes, "--out", nft]) == 0
assert main(["emit-tc", "--classes", classes, "--veth", "veth0", "--out", tc]) == 0
report = verify_plan(
    CommandScript(lines=tuple(Path(nft).read_text().splitlines())),
    CommandScript(lines=tuple(Path(tc).read_text().splitlines())),
    _load_classes(classes),
)
print(report.ok, "numpy" in sys.modules)
"""
    nft, tc = tmp_path / "nft.sh", tmp_path / "tc.sh"
    assert _python(code, str(classes_file), str(nft), str(tc)) == "True False"


def test_demo_dry_run_script_writes_the_plan(tmp_path):
    src = Path(latem.__file__).parents[1]
    demo = Path(__file__).parents[1] / "scripts" / "demo_dry_run.py"
    subprocess.run(
        [sys.executable, str(demo), str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60, check=True,
    )
    names = sorted(p.name for p in (tmp_path / "plan").iterdir())
    assert names[0] == "00-preflight.sh"
    for step in ("gather", "fdb", "nft", "tc"):
        assert any(n.endswith(f"-{step}.sh") for n in names), step
