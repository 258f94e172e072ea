"""ShellAdapter against tiny POSIX-sh stand-ins for tc, nft and docker.

The stubs log each spawn to `spawns`, each batch line they read to
`<tool>.lines` and the line count of each batch they finish to
`<tool>.batches`. A line containing FAIL fails: in a batch with the tool's own
failure message naming the line, elsewhere with exit 3.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import time
from pathlib import Path

import pytest

from latem import adapters
from latem.adapters import ShellAdapter
from latem.link_layer import mac_for_ip
from latem.nft_planner import emit_nft_script
from latem.orchestrator import (
    STEP_NFT, STEP_TC, PhasedPlan, PlanStep, execute, gather_interfaces,
)
from latem.script import CommandScript
from latem.tc_planner import emit_tc_script

STUB = r"""#!/bin/sh
tool=${0##*/}
echo "$tool $*" >> "$STUB_DIR/spawns"
case "$tool $1" in
    "tc -batch" | "nft -f")
        n=0
        while IFS= read -r line; do
            n=$((n + 1))
            printf '%s\n' "$line" >> "$STUB_DIR/$tool.lines"
            case $line in *FAIL*)
                if [ "$tool" = tc ]; then
                    echo "RTNETLINK answers: No such file or directory" >&2
                    echo "Command failed -:$n" >&2
                else
                    echo "/dev/stdin:$n:9-12: Error: Could not process rule: No such file" >&2
                fi
                exit 1 ;;
            esac
        done
        echo "$n" >> "$STUB_DIR/$tool.batches"
        exit 0 ;;
esac
case "$*" in *FAIL*) echo "$tool: cannot $*" >&2; exit 3 ;; esac
echo "$tool did $*"
"""


@pytest.fixture
def stubs(tmp_path, monkeypatch) -> Path:
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for tool in ("tc", "nft", "docker"):
        (bin_dir / tool).write_text(STUB)
        (bin_dir / tool).chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}:{os.environ['PATH']}")
    monkeypatch.setenv("STUB_DIR", str(tmp_path))
    return tmp_path


def logged(stub_dir: Path, name: str) -> list[str]:
    path = stub_dir / name
    return path.read_text().splitlines() if path.exists() else []


def argv_words(lines) -> list[str]:
    return [" ".join(shlex.split(line)[1:]) for line in lines]


def step(index: int, kind: str, lines) -> PlanStep:
    return PlanStep(index, kind, kind, CommandScript(lines=tuple(lines)))


def test_one_spawn_per_interface_and_per_nft_step(stubs, five_node_classes):
    veths = ["veth0", "veth1", "veth2"]
    nft = emit_nft_script(five_node_classes)
    tc = [l for v in veths for l in emit_tc_script(five_node_classes.class_delays(), v, 2)]
    plan = PhasedPlan("x", (step(0, STEP_NFT, nft), step(1, STEP_TC, tc)))
    report = execute(plan, "apply", adapter=ShellAdapter())
    assert report.ok
    assert [len(s.commands) for s in report.steps] == [len(nft), len(tc)]
    assert logged(stubs, "spawns") == ["nft -f -"] + ["tc -batch -"] * 3
    assert logged(stubs, "nft.lines") == argv_words(nft)
    assert logged(stubs, "tc.lines") == argv_words(tc)
    assert logged(stubs, "tc.batches") == [str(len(tc) // 3)] * 3


def test_tc_batch_ends_where_the_device_changes(stubs):
    lines = [
        "tc qdisc add dev a root handle 1: prio bands 2",
        "tc qdisc add dev a parent 1:1 handle 11: prio bands 2",
        "tc qdisc add dev b root handle 1: prio bands 2",
        "tc filter add dev a protocol all parent 1: prio 20 matchall classid 1:2",
    ]
    results = ShellAdapter().run_batch(lines)
    assert [r.exit_code for r in results] == [0] * 4
    assert logged(stubs, "spawns") == ["tc -batch -"] * 3
    assert logged(stubs, "tc.lines") == argv_words(lines)
    assert logged(stubs, "tc.batches") == ["2", "1", "1"]


def test_failing_interface_ends_the_tc_step(stubs):
    tree = [l for l in TC_LINES if "FAIL" not in l]
    tc = [l.replace("dev v0 ", f"dev {v} ") for v in ("v0", "v1", "v2") for l in tree]
    tc[5] += " FAIL"  # the last line of v1's tree
    plan = PhasedPlan("x", (step(0, STEP_TC, tc), step(1, "host-script", ["docker ps"])))
    report = execute(plan, "apply", adapter=ShellAdapter())
    failed, skipped = report.steps
    assert (failed.status, skipped.status) == ("failed", "skipped")
    assert [c.line for c in failed.commands] == tc[:6]
    assert [c.exit_code for c in failed.commands] == [0] * 5 + [1]
    assert "Command failed -:3" in failed.commands[-1].stderr
    assert logged(stubs, "spawns") == ["tc -batch -"] * 2
    assert logged(stubs, "tc.lines") == argv_words(tc[:6])


TC_LINES = [
    "tc qdisc add dev v0 root handle 1: prio bands 2",
    "tc qdisc add dev v0 parent 1:1 handle 11: prio bands 2",
    "tc qdisc add dev v0 parent 11:1 netem delay FAIL",
    "tc filter add dev v0 protocol all parent 1: prio 20 matchall classid 1:2",
]
NFT_LINES = [
    "nft add table ip t",
    "nft add chain t c { type filter hook forward priority 0 \\; }",
    "nft add set t FAIL { type ipv4_addr . ipv4_addr \\; }",
    "nft add rule t c ip saddr . ip daddr @FAIL meta mark set 1",
]
SHELL_LINES = ["docker run a", "docker run 'b c'", "docker run FAIL", "docker run d"]


@pytest.mark.parametrize(
    "kind, lines, exit_code, message",
    [
        (STEP_TC, TC_LINES, 1, "Command failed -:3"),
        (STEP_NFT, NFT_LINES, 1, "/dev/stdin:3:9-12: Error"),
        ("host-script", SHELL_LINES, 3, "docker: cannot run FAIL"),
    ],
)
def test_failing_line_ends_its_step(stubs, kind, lines, exit_code, message):
    plan = PhasedPlan("x", (step(0, kind, lines), step(1, "host-script", ["docker ps"])))
    report = execute(plan, "apply", adapter=ShellAdapter())
    failed, skipped = report.steps
    assert (failed.status, skipped.status) == ("failed", "skipped")
    assert [c.line for c in failed.commands] == lines[:3]
    assert [c.exit_code for c in failed.commands] == [0, 0, exit_code]
    assert message in failed.commands[-1].stderr
    assert "docker ps" not in logged(stubs, "spawns")


def test_missing_batch_tool_fails_the_first_line(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))
    results = ShellAdapter().run_batch(TC_LINES[:2])
    assert [r.exit_code for r in results] == [127]
    assert results[0].stderr.startswith("tc: ")


def test_shell_lines_keep_their_own_output(stubs):
    results = ShellAdapter().run_batch(SHELL_LINES[:2] + ["printf x", "docker run e"])
    assert [r.stdout for r in results] == [
        "docker did run a\n", "docker did run b c\n", "x", "docker did run e\n",
    ]
    assert all(r.ok and r.stderr == "" for r in results)
    assert logged(stubs, "spawns") == ["docker run a", "docker run b c", "docker run e"]


def test_shell_lines_do_not_share_state(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = ["cd /", "pwd", "X=1", 'echo "${X-unset}"', "exit 0", "printf '%s\\n' \"it's\""]
    results = ShellAdapter().run_batch(lines)
    assert [r.exit_code for r in results] == [0] * 6
    assert [r.stdout for r in results] == ["", f"{Path.cwd()}\n", "", "unset\n", "", "it's\n"]


def test_unbalanced_quote_fails_only_its_line():
    results = ShellAdapter().run_batch(["echo ok", "echo 'open", "echo never"])
    assert [r.stdout for r in results] == ["ok\n", ""]
    assert results[-1].exit_code != 0


def test_batch_timeout_scales_with_line_count():
    results = ShellAdapter(timeout_s=0.6).run_batch(["sleep 0.4"] * 3)
    assert [r.exit_code for r in results] == [0, 0, 0]


def test_timeout_kills_the_process_group(tmp_path):
    pidfile = tmp_path / "pid"
    with pytest.raises(subprocess.TimeoutExpired) as exc:
        ShellAdapter(timeout_s=0.3).run_batch([f"sleep 30 & echo $! > {pidfile}; wait"])
    assert exc.value.timeout == pytest.approx(0.3)
    stat = Path(f"/proc/{pidfile.read_text().strip()}/stat")

    def dead() -> bool:
        try:
            return ") Z " in stat.read_text()
        except FileNotFoundError:
            return True

    deadline = time.monotonic() + 5
    while not dead() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert dead()


def test_execute_turns_a_timeout_into_a_failed_step():
    plan = PhasedPlan("x", (
        step(0, "host-script", ["true"]),
        step(1, "host-script", ["sleep 30"]),
        step(2, "host-script", ["true"]),
    ))
    report = execute(plan, "apply", adapter=ShellAdapter(timeout_s=0.3))
    assert [s.status for s in report.steps] == ["ok", "failed", "skipped"]
    assert "timed out after 0.3 seconds" in report.steps[1].detail


def test_gather_runs_in_one_spawn(tmp_path, monkeypatch):
    # docker answers `docker exec <node> cat .../<attr>` from <node>.<attr>;
    # ip answers the host link listing.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "docker").write_text('#!/bin/sh\ncat "$STUB_DIR/$2.${4##*/}"\n')
    (bin_dir / "ip").write_text('#!/bin/sh\ncat "$STUB_DIR/links"\n')
    for tool in ("docker", "ip"):
        (bin_dir / tool).chmod(0o755)
    nodes = [(f"n{i}", f"10.0.0.{i}") for i in range(1, 6)]
    for i, (name, ip) in enumerate(nodes, 1):
        (tmp_path / f"{name}.iflink").write_text(f"{10 + i}\n")
        (tmp_path / f"{name}.address").write_text(mac_for_ip(ip) + "\n")
    (tmp_path / "links").write_text(
        "".join(f"{10 + i}: veth{i}@if2: <BROADCAST,UP> mtu 1500\n" for i in range(1, 6))
    )
    monkeypatch.setenv("PATH", f"{bin_dir}:{os.environ['PATH']}")
    monkeypatch.setenv("STUB_DIR", str(tmp_path))
    spawns = []
    spawn = adapters._spawn

    def counted(argv, *rest):
        spawns.append(argv)
        return spawn(argv, *rest)

    monkeypatch.setattr(adapters, "_spawn", counted)
    inventory = gather_interfaces(ShellAdapter(), nodes)
    assert inventory.veth_of() == {f"n{i}": f"veth{i}" for i in range(1, 6)}
    assert inventory.warnings == ()
    assert spawns == [["/bin/sh", "-s"]]
