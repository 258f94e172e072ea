"""ShellAdapter against tiny POSIX-sh stand-ins for docker, tc, nft, ip,
bridge and sleep.

The stubs log each spawn to `spawns`, its parent's pid to `parents`, each
batch line they read to `<tool>.lines` and the line count of each batch they
finish to `<tool>.batches`. A line containing FAIL fails: in a batch with the
tool's own failure message naming the line, elsewhere with exit 3. The gather
queries are answered from files: `docker exec <node> cat .../<attr>` from
`<node>.<attr>`, `ip -o link show` from `links`. `docker attach` copies its
stdin to stdout.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shlex
import signal
from collections import Counter
import subprocess
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from latem import adapters
from latem.adapters import ShellAdapter
from latem.link_layer import emit_fdb_script, mac_for_ip
from latem.manifest import parse_manifest
from latem.nft_planner import emit_nft_script
from latem.orchestrator import (
    STEP_FDB, STEP_GATHER, STEP_NFT, STEP_TC, GatherScript, PhasedPlan, PlanStep, build_startup_plan,
    execute, gather_interfaces, veth_token,
)
from latem.script import CommandScript, Script
from latem.tc_planner import TreeScript, emit_tc_trees

from conftest import FIVE_NODE_IPS, minimal_manifest_dict
from fake_adapters import RecordingAdapter

STUB = r"""#!/bin/sh
tool=${0##*/}
echo "$tool $*" >> "$STUB_DIR/spawns"
echo "$PPID" >> "$STUB_DIR/parents"
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
    "docker exec")
        [ "$3" = cat ] && exec cat "$STUB_DIR/$2.${4##*/}" ;;
    "ip -o")
        exec cat "$STUB_DIR/links" ;;
    "docker attach")
        exec cat ;;
esac
case "$*" in *FAIL*) echo "$tool: cannot $*" >&2; exit 3 ;; esac
echo "$tool did $*"
"""


def put_on_path(tmp_path, monkeypatch, script: str, tools) -> None:
    """Install `script` as each of `tools` in a directory first on PATH."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for tool in tools:
        (bin_dir / tool).write_text(script)
        (bin_dir / tool).chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}:{os.environ['PATH']}")


@pytest.fixture
def stubs(tmp_path, monkeypatch) -> Path:
    put_on_path(tmp_path, monkeypatch, STUB, ("docker", "tc", "nft", "ip", "bridge", "sleep"))
    monkeypatch.setenv("STUB_DIR", str(tmp_path))
    return tmp_path


def logged(stub_dir: Path, name: str) -> list[str]:
    path = stub_dir / name
    return path.read_text().splitlines() if path.exists() else []


def argv_words(lines) -> list[str]:
    return [" ".join(shlex.split(line)[1:]) for line in lines]


def step(kind: str, lines) -> PlanStep:
    script = lines if isinstance(lines, Script) else CommandScript(lines=tuple(lines))
    return PlanStep(kind, kind, script)


def tree(lines, veths=("v0",)) -> TreeScript:
    """The tree whose lines on device v0 are `lines`, for each of `veths`."""
    parts = (line.partition(" dev v0 ") for line in lines)
    return TreeScript(tuple((head + " dev ", " " + tail) for head, _, tail in parts), veths)


def spawned(monkeypatch) -> list:
    """The argv of every process the adapter starts, from here on."""
    argvs = []
    spawn = adapters._spawn

    def counted(argv, *rest):
        argvs.append(argv)
        return spawn(argv, *rest)

    monkeypatch.setattr(adapters, "_spawn", counted)
    return argvs


def shell_spawns(argvs) -> int:
    """How many batch shells `argvs` holds, once each is known to read its
    script from a file that is gone once the batch ends."""
    for argv in argvs:
        assert argv[0] == "/bin/sh" and len(argv) == 2 and not Path(argv[1]).exists()
    return len(argvs)


def write_inventory(stub_dir: Path, nodes) -> None:
    """The files the stubs answer the gather queries from: the i-th node
    (from 1) has peer ifindex 10 + i, host link `veth<i>` and its pattern MAC."""
    for i, (name, ip) in enumerate(nodes, 1):
        (stub_dir / f"{name}.iflink").write_text(f"{10 + i}\n")
        (stub_dir / f"{name}.address").write_text(mac_for_ip(ip) + "\n")
    (stub_dir / "links").write_text(
        "".join(f"{10 + i}: veth{i}@if2: <BROADCAST,UP> mtu 1500\n"
                for i in range(1, len(nodes) + 1))
    )


def test_one_spawn_per_interface_and_per_nft_step(stubs, five_node_classes):
    veths = ["veth0", "veth1", "veth2"]
    nft = emit_nft_script(five_node_classes)
    tc = emit_tc_trees(five_node_classes.class_delays(), veths, 2)
    plan = PhasedPlan("x", (step(STEP_NFT, nft), step(STEP_TC, tc)))
    report = execute(plan, "apply", adapter=ShellAdapter())
    assert report.ok
    assert [len(s.commands) for s in report.steps] == [len(nft), len(tc)]
    assert logged(stubs, "spawns") == ["nft -f -"] + ["tc -batch -"] * 3
    assert logged(stubs, "nft.lines") == argv_words(nft)
    assert logged(stubs, "tc.lines") == argv_words(tc)
    assert logged(stubs, "tc.batches") == [str(len(tc) // 3)] * 3


def test_apply_spawns_one_docker_run_per_node_and_no_exec_sysctl(stubs, five_node_classes):
    data = minimal_manifest_dict()
    data["nodes"] = [
        dict(data["nodes"][0], name=f"node{i}", ip=ip) for i, ip in enumerate(FIVE_NODE_IPS, 1)
    ]
    data["delay"] = {"matrix_path": "matrix.txt", "quantum_ms": 10}
    manifest = parse_manifest(data)
    plan = build_startup_plan(manifest, classes=five_node_classes)
    write_inventory(stubs, [(n.name, n.ip) for n in manifest.nodes])
    # The preflight step audits this host's own limits, so it is left out.
    assert plan.steps[0].kind == "preflight"
    report = execute(PhasedPlan(plan.experiment, plan.steps[1:]), "apply", adapter=ShellAdapter())
    assert report.ok, [(s.name, s.status, s.detail) for s in report.steps]
    spawns = logged(stubs, "spawns")
    runs = [s for s in spawns if s.startswith("docker run ")]
    assert [r.split()[4] for r in runs] == [f"node{i}" for i in range(1, 6)]
    for run in runs:
        assert run.count(" --sysctl net.ipv4.neigh.eth0.") == 3
    assert not [s for s in spawns if s.startswith("docker exec ") and "sysctl" in s]
    # docker: 5 runs, 10 gather reads, 5 kills; the 3 sysctls per node ride on the runs.
    assert Counter(s.split()[0] for s in spawns) == {
        "docker": 20, "ip": 1, "bridge": 5, "nft": 1, "tc": 5, "sleep": 4,
    }


def test_a_double_spaced_tc_line_reaches_the_tool_as_the_same_words(stubs):
    line = "tc qdisc  add dev v0   root handle 1:  prio bands 2"
    assert [r.exit_code for r in ShellAdapter().run_batch([line], "tc")] == [0]
    assert logged(stubs, "spawns") == ["tc -batch -"]
    (sent,) = logged(stubs, "tc.lines")
    assert sent.split() == shlex.split(line)[1:]


def test_failing_interface_ends_the_tc_step(stubs):
    # Every line of the second interface's tree holds FAIL, so its first fails.
    tc = tree([l for l in TC_LINES if "FAIL" not in l], ("v0", "vFAIL", "v2"))
    lines = list(tc)
    plan = PhasedPlan("x", (step(STEP_TC, tc), step("host-script", ["docker ps"])))
    report = execute(plan, "apply", adapter=ShellAdapter())
    failed, skipped = report.steps
    assert (failed.status, skipped.status) == ("failed", "skipped")
    assert [c.line for c in failed.commands] == lines[:4]
    assert [c.exit_code for c in failed.commands] == [0] * 3 + [1]
    assert "Command failed -:1" in failed.commands[-1].stderr
    assert logged(stubs, "spawns") == ["tc -batch -"] * 2
    assert logged(stubs, "tc.lines") == argv_words(lines[:4])


def test_a_gathered_name_reaches_tc_as_it_is(stubs, five_node_classes):
    # In a shell, `dev v$x` would name the device `v`.
    nodes = (("n1", "10.0.0.1"),)
    write_inventory(stubs, nodes)
    (stubs / "links").write_text("11: v$x@if2: <BROADCAST,UP> mtu 1500\n")
    tc = emit_tc_trees(five_node_classes.class_delays(), [veth_token("n1")], 2)
    gather = GatherScript(nodes, "eth0")
    plan = PhasedPlan("x", (step(STEP_GATHER, gather), step(STEP_TC, tc)))
    report = execute(plan, "apply", adapter=ShellAdapter())
    assert report.ok, [s.detail for s in report.steps]
    assert report.inventory.veths == {"n1": "v$x"}
    sent = [line.replace("{veth:n1}", "v$x") for line in tc]
    assert [c.line for c in report.steps[1].commands] == sent
    assert logged(stubs, "tc.lines") == [line.partition(" ")[2] for line in sent]
    assert logged(stubs, "spawns")[len(gather):] == ["tc -batch -"]


def test_a_gathered_name_reaches_bridge_as_one_word(stubs):
    # Unquoted in the FDB step's shell, `dev v$x` would name the device `v`,
    # and `dev a;b` would also run `b master static`.
    nodes = (("n1", "10.0.0.1"), ("n2", "10.0.0.2"))
    write_inventory(stubs, nodes)
    (stubs / "links").write_text("11: v$x@if2: <BROADCAST,UP> mtu 1500\n"
                                 "12: a;b@if2: <BROADCAST,UP> mtu 1500\n")
    (stubs / "bin" / "bridge").write_text(ARGV_PRINTER)
    fdb = emit_fdb_script([(ip, veth_token(name)) for name, ip in nodes])
    plan = PhasedPlan("x", (step(STEP_GATHER, GatherScript(nodes, "eth0")), step(STEP_FDB, fdb)))
    report = execute(plan, "apply", adapter=ShellAdapter())
    assert report.ok, [s.detail for s in report.steps]
    assert report.inventory.veths == {"n1": "v$x", "n2": "a;b"}
    assert [c.stdout.split("\0")[:-1] for c in report.steps[1].commands] == [
        ["fdb", "add", mac_for_ip(ip), "dev", veth, "master", "static"]
        for (_, ip), veth in zip(nodes, ["v$x", "a;b"])
    ]


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
    "kind, script, exit_code, message",
    [
        (STEP_TC, tree(TC_LINES), 1, "Command failed -:3"),
        (STEP_NFT, NFT_LINES, 1, "/dev/stdin:3:9-12: Error"),
        ("host-script", SHELL_LINES, 3, "docker: cannot run FAIL"),
    ],
)
def test_failing_line_ends_its_step(stubs, kind, script, exit_code, message):
    lines = list(script)
    plan = PhasedPlan("x", (step(kind, script), step("host-script", ["docker ps"])))
    report = execute(plan, "apply", adapter=ShellAdapter())
    failed, skipped = report.steps
    assert (failed.status, skipped.status) == ("failed", "skipped")
    assert [c.line for c in failed.commands] == lines[:3]
    assert [c.exit_code for c in failed.commands] == [0, 0, exit_code]
    assert message in failed.commands[-1].stderr
    assert "docker ps" not in logged(stubs, "spawns")


def test_tc_and_nft_lines_of_a_host_script_run_through_the_shell(stubs, monkeypatch):
    lines = [TC_LINES[0], NFT_LINES[0], TC_LINES[2], NFT_LINES[1]]
    argvs = spawned(monkeypatch)
    plan = PhasedPlan("x", (step("host-script", lines), step("host-script", ["docker ps"])))
    failed, skipped = execute(plan, "apply", adapter=ShellAdapter()).steps
    assert (failed.status, skipped.status) == ("failed", "skipped")
    assert [c.line for c in failed.commands] == lines[:3]
    assert [c.exit_code for c in failed.commands] == [0, 0, 3]
    assert failed.commands[-1].stderr == f"tc: cannot {lines[2][3:]}\n"
    assert shell_spawns(argvs) == 1
    # One tool process per line, none of them a batch.
    assert logged(stubs, "spawns") == lines[:3]


def test_missing_batch_tool_fails_the_first_line(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))
    results = ShellAdapter().run_batch(TC_LINES[:2], "tc")
    assert [r.exit_code for r in results] == [127]
    assert results[0].stderr.startswith("tc: ")


def test_shell_lines_keep_their_own_output(stubs):
    results = ShellAdapter().run_batch(SHELL_LINES[:2] + ["printf x", "docker run e"])
    assert [r.stdout for r in results] == [
        "docker did run a\n", "docker did run b c\n", "x", "docker did run e\n",
    ]
    assert all(r.ok and r.stderr == "" for r in results)
    assert logged(stubs, "spawns") == ["docker run a", "docker run b c", "docker run e"]


# Planner-style lines: a launch line with a single-quoted JSON `--env`, an
# nft-style `\;`, and a quoted span holding what would be shell syntax.
PLANNER_LINES = [
    "docker run -d --name n1 --env LATEM_NODE='{\"name\": \"n1\", \"peers\": [1, 2]}' img",
    "docker exec n1 nft add chain t c { type filter hook forward priority 0 \\; }",
    "ip link set 'veth 1' up",
    "bridge fdb add 02:42:0a:00:00:01 dev veth1 master static",
    "sleep 0",
    "docker kill -s 'SIG$X; cd /' n1",
]


def test_literal_host_tool_lines_run_as_children_of_the_batch_shell(stubs):
    # Lines as the planners write them run as they are, all in the one shell.
    results = ShellAdapter().run_batch(PLANNER_LINES)
    assert [r.exit_code for r in results] == [0] * 6
    assert logged(stubs, "spawns") == [" ".join(shlex.split(l)) for l in PLANNER_LINES]
    assert len(set(logged(stubs, "parents"))) == 1


def test_shell_lines_run_as_children_of_the_batch_shell(stubs):
    # Each line runs as it is written, whatever shell syntax it holds.
    lines = [
        'docker run "a"', "docker run ${X-b}", "docker run c; true", "docker run d 2>&1",
        "nft add rule t c 'ip saddr 10.0.0.1' counter",
    ]
    results = ShellAdapter().run_batch(lines)
    assert [r.exit_code for r in results] == [0] * 5
    assert logged(stubs, "spawns") == [
        "docker run a", "docker run b", "docker run c", "docker run d",
        "nft add rule t c ip saddr 10.0.0.1 counter",
    ]
    assert len(set(logged(stubs, "parents"))) == 1


@pytest.mark.parametrize("line", [
    "docker run \\'x';",  # the escaped quote leaves `';` open
    "docker run 'a' 'b",
    "docker run a;b",
    "docker run a\tb",
    "docker run 'a'$X",
    "sysctl -w 'a = 1'",
])
def test_any_other_line_gets_a_subshell(line):
    # A host-script line goes in its own subshell whatever tool it names and
    # whatever shell syntax it holds, and is reported as written.
    spy = RecordingAdapter()
    (result,) = execute(PhasedPlan("x", (step("host-script", [line, "docker ps"]),)), "apply",
                        adapter=spy).steps
    assert spy.calls == [f"(eval {shlex.quote(line)})", "(eval 'docker ps')"]
    assert [c.line for c in result.commands] == [line, "docker ps"]


def test_host_script_lines_do_not_share_state(stubs, monkeypatch):
    monkeypatch.chdir(stubs)
    lines = ["cd /", "pwd", "X=1", 'echo "${X-unset}"', "exit 0", "printf '%s\\n' \"it's\""]
    lines += [
        "docker run a; cd /", "docker run $(cd /)", "docker run ${X=1}", "docker run b && cd /",
        "docker run c > out", "pwd", 'echo "${X-unset}"',
    ]
    (result,) = execute(PhasedPlan("x", (step("host-script", lines),)), "apply",
                        adapter=ShellAdapter()).steps
    assert [c.line for c in result.commands] == lines
    assert [c.exit_code for c in result.commands] == [0] * 13
    assert [c.stdout for c in result.commands] == [
        "", f"{stubs}\n", "", "unset\n", "", "it's\n",
        "docker did run a\n", "docker did run\n", "docker did run 1\n", "docker did run b\n",
        "", f"{stubs}\n", "unset\n",
    ]
    assert (stubs / "out").read_text() == "docker did run c\n"


def test_unbalanced_quote_fails_only_its_line(stubs):
    for line in ["echo 'open", "docker run 'open", "docker run a 'b' 'c", "docker run \\'x';"]:
        # The next line's quote must not close this one's.
        lines = ["echo ok", line, "docker run b'", "echo never"]
        (result,) = execute(PhasedPlan("x", (step("host-script", lines),)), "apply",
                            adapter=ShellAdapter()).steps
        assert result.status == "failed"
        assert [c.stdout for c in result.commands] == ["ok\n", ""]
        assert result.commands[-1].exit_code != 0
    assert logged(stubs, "spawns") == []


def test_a_tool_reading_stdin_does_not_swallow_the_script(stubs):
    # The long line keeps the rest of the script in the pipe, past what the
    # shell has read ahead when `docker attach` starts.
    lines = ["docker attach n1", "docker run " + "a" * 20_000, "docker run b"]
    results = ShellAdapter().run_batch(lines)
    assert [(r.exit_code, r.stdout) for r in results] == [
        (0, ""), (0, f"docker did {lines[1][7:]}\n"), (0, "docker did run b\n"),
    ]
    assert logged(stubs, "spawns") == lines


# Prints each of its arguments, then NUL.
ARGV_PRINTER = "#!/bin/sh\nfor a; do printf '%s\\0' \"$a\"; done\n"


def test_launch_lines_pass_process_args_to_docker_exactly(tmp_path, monkeypatch):
    put_on_path(tmp_path, monkeypatch, ARGV_PRINTER, ("docker",))
    args = ["it's", 'say "hi"', "$HOME", "a;b", "`id`", "'$(x)'\\"]
    data = minimal_manifest_dict()
    data["nodes"][0]["processes"][0]["args"] = args
    plan = build_startup_plan(parse_manifest(data))
    (launch,) = [s for s in plan.steps if s.kind == "launch"]
    (result,) = execute(PhasedPlan("x", (launch,)), "apply", adapter=ShellAdapter()).steps
    assert result.status == "ok"
    for line, outcome in zip(launch.script, result.commands, strict=True):
        argv = outcome.stdout.split("\0")[:-1]
        assert argv == shlex.split(line)[1:]
        env = argv[argv.index("--env") + 1]
        assert env.startswith("LATEM_NODE_SPEC={")
        spec = json.loads(env.partition("=")[2])
        assert spec["processes"][0]["args"] == (args if spec["name"] == "node001" else [])


LONG_TC_BATCH = [f"tc qdisc add dev v0 parent 1:{i} handle {i}: prio bands 2" for i in range(4000)]


def test_a_long_batch_runs_at_the_default_timeout(stubs):
    # 600 s per line for 4,000 lines is past what poll() can wait.
    results = ShellAdapter().run_batch(LONG_TC_BATCH, "tc")
    assert len(results) == 4000 and all(r.ok for r in results)
    assert logged(stubs, "spawns") == ["tc -batch -"]
    assert logged(stubs, "tc.batches") == ["4000"]


def test_a_long_step_applies_at_the_default_timeout(stubs):
    report = execute(PhasedPlan("x", (step(STEP_TC, tree(LONG_TC_BATCH)),)), "apply",
                     adapter=ShellAdapter())
    assert report.ok, report.steps[0].detail
    assert len(report.steps[0].commands) == 4000
    assert logged(stubs, "spawns") == ["tc -batch -"]


def test_batch_timeout_scales_with_line_count(monkeypatch):
    monkeypatch.setattr(adapters, "LINE_TIMEOUT_S", 0.6)
    results = ShellAdapter().run_batch(["sleep 0.4"] * 3)
    assert [r.exit_code for r in results] == [0, 0, 0]


def test_timeout_kills_the_process_group(tmp_path, monkeypatch):
    monkeypatch.setattr(adapters, "LINE_TIMEOUT_S", 0.3)
    pidfile = tmp_path / "pid"
    with pytest.raises(subprocess.TimeoutExpired) as exc:
        ShellAdapter().run_batch([f"sleep 30 & echo $! > {pidfile}; wait"])
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


def test_each_step_records_its_wall_time():
    plan = PhasedPlan("x", (
        step("host-script", ["sleep 0.2"]),
        step("host-script", ["false"]),
        step("host-script", ["true"]),
    ))
    report = execute(plan, "apply", adapter=ShellAdapter())
    slept, failed, skipped = report.steps
    assert [s.status for s in report.steps] == ["ok", "failed", "skipped"]
    assert slept.wall_s >= 0.2
    assert 0 < failed.wall_s < slept.wall_s
    assert skipped.wall_s == 0


def test_execute_turns_a_timeout_into_a_failed_step(monkeypatch):
    monkeypatch.setattr(adapters, "LINE_TIMEOUT_S", 0.3)
    plan = PhasedPlan("x", (
        step("host-script", ["true"]),
        step("host-script", ["sleep 30"]),
        step("host-script", ["true"]),
    ))
    report = execute(plan, "apply", adapter=ShellAdapter())
    assert [s.status for s in report.steps] == ["ok", "failed", "skipped"]
    assert "timed out after 0.3 seconds" in report.steps[1].detail


def test_a_background_job_does_not_hold_its_step(tmp_path, monkeypatch):
    # The step ends when its shell exits, not when the job's copies of
    # stdout and stderr close.
    monkeypatch.setattr(adapters, "LINE_TIMEOUT_S", 2)
    pidfile = tmp_path / "pid"
    start = time.monotonic()
    try:
        results = ShellAdapter().run_batch([f"sleep 30 & echo $! > {pidfile}"])
        assert [r.exit_code for r in results] == [0]
        assert time.monotonic() - start < 2
    finally:
        with contextlib.suppress(FileNotFoundError, ProcessLookupError):
            os.kill(int(pidfile.read_text()), signal.SIGKILL)


def test_no_wait_sleeps(tmp_path, monkeypatch):
    # Each spawn is one wait on its pidfd. These stubs close their output
    # and linger: a wait that polls waitpid once the pipes close sleeps then.
    put_on_path(tmp_path, monkeypatch,
                f"#!/bin/sh\ncat > /dev/null\necho $0 >> {tmp_path}/spawns\n"
                "exec >&- 2>&-\nexec sleep 0.01\n", ("tc", "docker"))
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    adapter = ShellAdapter()
    results = []
    for i in range(5):
        results += adapter.run_batch([f"tc qdisc add dev v{i} root handle 1: prio bands 2"] * 2,
                                     "tc")
        results += adapter.run_batch([f"docker run n{4 * i + 2}", f"docker run n{4 * i + 3}"])
    assert [r.exit_code for r in results] == [0] * 20
    assert len(logged(tmp_path, "spawns")) == 5 + 10
    assert sleeps == []


def test_tool_stdin_is_streamed(tmp_path, monkeypatch):
    put_on_path(tmp_path, monkeypatch, f"#!/bin/sh\nwc -c > {tmp_path}/bytes\n", ("tc",))
    pad = "a" * 250
    lines = [f"tc qdisc add dev v0 parent 1:{i} handle {i}: netem {pad}" for i in range(100_000)]
    text_bytes = sum(len(line) + 1 for line in lines)
    tracemalloc.start()
    try:
        results = ShellAdapter().run_batch(lines, "tc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == len(lines) and all(r.ok for r in results)
    assert int((tmp_path / "bytes").read_text()) == text_bytes - 3 * len(lines)
    assert peak < text_bytes / 4


# Prints CRLF and CR line ends and non-ASCII UTF-8 on stdout and stderr.
_PRINTS = r"printf 'caf\303\251\r\nx\ry\r\n'; printf '\303\251rr\r\n' >&2"


def test_output_is_decoded_as_text_mode_decodes_a_pipe(tmp_path, monkeypatch):
    put_on_path(tmp_path, monkeypatch, f"#!/bin/sh\ncat > /dev/null\n{_PRINTS}\n", ("tc",))
    (shell,) = ShellAdapter().run_batch([_PRINTS])
    (tool,) = ShellAdapter().run_batch(["tc qdisc show"], "tc")
    for result, argv in ((shell, ["/bin/sh", "-c", _PRINTS]), (tool, ["tc", "-batch", "-"])):
        piped = subprocess.run(argv, input="", capture_output=True, text=True)
        assert "\r" not in piped.stdout + piped.stderr
        assert result == adapters.CommandResult(0, piped.stdout, piped.stderr)


def test_gather_runs_in_one_spawn(stubs, monkeypatch):
    nodes = [(f"n{i}", f"10.0.0.{i}") for i in range(1, 6)]
    write_inventory(stubs, nodes)
    spawns = spawned(monkeypatch)
    inventory = gather_interfaces(ShellAdapter(), GatherScript(tuple(nodes), "eth0"))
    assert inventory.veths == {f"n{i}": f"veth{i}" for i in range(1, 6)}
    assert inventory.warnings == ()
    assert shell_spawns(spawns) == 1


# Lines of plain characters and `\;`, as the planners write tc and nft lines:
# for these, splitting at whitespace gives the words the shell would pass.
_PLAIN_LINE = re.compile(r"(?:[\w.,:/@%+={} -]|\\;)*")


_PLAIN_WORD = st.lists(
    st.one_of(st.text(alphabet=".,:/@%+={}-_aZ9é", min_size=1), st.just("\\;")),
    min_size=1, max_size=3,
).map("".join)
# The rest of a plain line after its tool: words, each after a run of spaces.
_PLAIN_REST = st.lists(
    st.tuples(st.text(" ", min_size=1, max_size=3), _PLAIN_WORD), min_size=1, max_size=6
).map(lambda pairs: "".join(gap + word for gap, word in pairs))


@given(st.sampled_from(["tc", "nft"]), st.lists(_PLAIN_REST, min_size=1, max_size=5))
@example(tool="nft", rests=["  add chain t c { type filter hook forward priority 0 \\; }"])
def test_a_batch_line_splits_into_the_words_the_shell_would_pass(tool, rests):
    lines = [tool + rest for rest in rests]
    assert all(_PLAIN_LINE.fullmatch(line) for line in lines)
    sent = []

    def spawn(argv, stdin, timeout_s):
        assert argv == adapters._BATCH_TOOLS[tool][0]
        sent.extend("".join(stdin).splitlines())
        return adapters.CommandResult(0)

    with mock.patch.object(adapters, "_spawn", spawn):
        results = ShellAdapter().run_batch(lines, tool)
    assert len(results) == len(lines) and all(r.ok for r in results)
    assert [s.split() for s in sent] == [shlex.split(line)[1:] for line in lines]
