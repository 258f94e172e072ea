import io
import json
import shlex
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latem import delay_model as dm
from latem.autoarpd import emit_neigh_sysctls
from latem.errors import ConfigError, InfeasibleError, InventoryError, SizeError
from latem.link_layer import neigh_settings
from latem.manifest import ResourceModel, parse_manifest
from latem.orchestrator import (
    STEP_TC,
    GatherScript,
    PhasedPlan,
    PlanStep,
    build_startup_plan,
    delay_classes_for_manifest,
    execute,
    gather_interfaces,
    plan_batches,
    veth_token,
)
from latem.script import CommandScript
from latem.tc_planner import emit_tc_script, emit_tc_trees

from conftest import (
    FIVE_NODE_ENTRIES,
    minimal_manifest_dict,
    steps_of_kind,
    text_of,
    write_manifest,
)
from fake_adapters import ParentCheckingAdapter, RecordingAdapter, ScriptedAdapter

PAPER_RESOURCES = ResourceModel(
    ram_cap_fraction=Fraction("0.80"),
    per_node_startup_fraction=Fraction("0.80") / 750,
    per_node_steady_fraction=Fraction("0.54") / 750,
)


class TestPlanBatches:
    def test_scale_out_sequence_exact(self):
        schedule = plan_batches(1200, PAPER_RESOURCES)
        assert schedule.batches[0] == 750
        assert schedule.batches[1] == 243
        assert schedule.batches[2] == 79

    def test_scale_out_with_percent_rounding(self):
        schedule = plan_batches(1200, PAPER_RESOURCES, paper_rounding=True)
        assert schedule.batches[1] == 243
        assert schedule.batches[2] == 84

    def test_single_batch_when_cap_ample(self):
        resources = ResourceModel(
            ram_cap_fraction=Fraction("0.8"),
            per_node_startup_fraction=Fraction(1, 1000),
            per_node_steady_fraction=Fraction(1, 2000),
        )
        schedule = plan_batches(10, resources)
        assert schedule.batches == (10,)
        assert schedule.unscheduled == 0

    def test_infeasible_single_node(self):
        resources = ResourceModel(
            ram_cap_fraction=Fraction(1, 10),
            per_node_startup_fraction=Fraction(1, 5),
            per_node_steady_fraction=Fraction(1, 10),
        )
        with pytest.raises(InfeasibleError):
            plan_batches(1, resources)

    def test_startup_below_steady_rejected(self):
        resources = ResourceModel(
            ram_cap_fraction=Fraction(1, 2),
            per_node_startup_fraction=Fraction(1, 100),
            per_node_steady_fraction=Fraction(1, 50),
        )
        with pytest.raises(ConfigError):
            plan_batches(10, resources)

    def test_stops_when_no_headroom(self):
        schedule = plan_batches(100_000, PAPER_RESOURCES)
        assert schedule.unscheduled > 0
        assert schedule.batches[-1] >= 1

    @given(st.integers(1, 5000))
    def test_peaks_never_exceed_cap(self, total):
        schedule = plan_batches(total, PAPER_RESOURCES)
        for peak in schedule.peak_during:
            assert peak <= PAPER_RESOURCES.ram_cap_fraction
        assert schedule.total_scheduled + schedule.unscheduled == total

    def test_final_steady_occupancy(self):
        schedule = plan_batches(993, PAPER_RESOURCES)
        assert schedule.occupancy_after[-1] == 993 * PAPER_RESOURCES.per_node_steady_fraction


def manifest_with_delay(tmp_path: Path):
    matrix_path = tmp_path / "matrix.txt"
    np.savetxt(matrix_path, FIVE_NODE_ENTRIES[:2, :2], fmt="%d")
    data = minimal_manifest_dict()
    data["delay"] = {"matrix_path": "matrix.txt", "quantum_ms": 10}
    path = write_manifest(tmp_path, data)
    return path, parse_manifest(json.loads(path.read_text()))


def launch_sysctls(line: str) -> list[str]:
    """The values of a launch line's `--sysctl` flags, in order."""
    argv = shlex.split(line)
    return [argv[k + 1] for k, word in enumerate(argv) if word == "--sysctl"]


def five_node_plan(classes):
    """A 5-node plan with every step kind: batched launches, stats, marking,
    trees, a staggered signal and a host script."""
    data = minimal_manifest_dict()
    for i in range(3, 6):
        data["nodes"].append(dict(data["nodes"][0], name=f"node00{i}", ip=f"10.1.0.{i}"))
    data["resources"] = {
        "ram_cap_fraction": "0.8",
        "per_node_startup_fraction": "0.2",
        "per_node_steady_fraction": "0.05",
    }
    data["phases"][0]["capture_stats"] = True
    data["phases"].append(
        {"name": "snapshot", "action": "run-host-script", "script": ["docker ps"]}
    )
    data["delay"] = {"matrix_path": "matrix.txt", "quantum_ms": 10}
    return build_startup_plan(parse_manifest(data), classes=classes)


class TestBuildStartupPlan:
    def test_step_order_fixed(self, tmp_path, five_node_classes):
        _, manifest = manifest_with_delay(tmp_path)
        plan = build_startup_plan(manifest, classes=five_node_classes)
        kinds = [s.kind for s in plan.steps]
        assert kinds.index("preflight") == 0
        assert kinds.index("launch") < kinds.index("gather")
        assert kinds.index("gather") < kinds.index("fdb")
        assert kinds.index("fdb") < kinds.index("nft")
        assert "neigh-sysctls" not in kinds
        assert kinds.index("nft") < kinds.index("tc")
        assert kinds.index("tc") < kinds.index("signal")

    def test_tc_step_covers_every_node(self, tmp_path, five_node_classes):
        _, manifest = manifest_with_delay(tmp_path)
        plan = build_startup_plan(manifest, classes=five_node_classes)
        (tc_step,) = steps_of_kind(plan, "tc")
        assert tc_step.script.veths == (veth_token("node001"), veth_token("node002"))
        roots = [l for l in tc_step.script if "root handle 1:" in l]
        assert len(roots) == 2

    def test_tc_step_is_one_tree_per_node(self, five_node_classes):
        data = minimal_manifest_dict()
        for i in range(3, 6):
            node = dict(data["nodes"][0], name=f"node00{i}", ip=f"10.1.0.{i}")
            data["nodes"].append(node)
        data["delay"] = {"matrix_path": "matrix.txt", "quantum_ms": 10}
        manifest = parse_manifest(data)
        plan = build_startup_plan(manifest, classes=five_node_classes, bands=3)
        (tc_step,) = steps_of_kind(plan, "tc")
        veths = [veth_token(f"node00{i}") for i in range(1, 6)]
        assert tc_step.script.veths == tuple(veths)
        assert tc_step.script.tree[0] == ("tc qdisc add dev ", " root handle 1: prio bands 3")
        delays = five_node_classes.class_delays()
        expected = [line for v in veths for line in emit_tc_script(delays, v, 3)]
        assert list(tc_step.script) == expected

    def test_delay_section_without_classes_rejected(self, tmp_path):
        _, manifest = manifest_with_delay(tmp_path)
        with pytest.raises(ConfigError):
            build_startup_plan(manifest)

    def test_no_delay_section_omits_nft_tc(self):
        manifest = parse_manifest(minimal_manifest_dict())
        plan = build_startup_plan(manifest)
        assert steps_of_kind(plan, "nft") == ()
        assert steps_of_kind(plan, "tc") == ()

    def test_signal_step_offsets(self):
        data = minimal_manifest_dict()
        manifest = parse_manifest(data)
        plan = build_startup_plan(manifest)
        (signal_step,) = steps_of_kind(plan, "signal")
        assert list(signal_step.script) == [
            "docker kill -s SIGUSR1 node001",
            "sleep 0.5",
            "docker kill -s SIGUSR1 node002",
        ]

    def test_role_targeted_signal(self):
        data = minimal_manifest_dict()
        data["phases"].append(
            {"name": "start-validators", "action": "signal", "signal": "SIGUSR2",
             "target": "role:validator"}
        )
        data["nodes"][0]["processes"].append(
            {"binary": "validator", "args": [], "start_phase": "start-validators"}
        )
        manifest = parse_manifest(data)
        plan = build_startup_plan(manifest)
        validators = next(s for s in plan.steps if s.name == "signal-start-validators")
        assert list(validators.script) == ["docker kill -s SIGUSR2 node002"]

    def test_launch_batching(self):
        data = minimal_manifest_dict()
        data["nodes"] = [
            {"name": f"node{i:03d}", "ip": f"10.1.0.{i+1}", "image": "img", "processes": []}
            for i in range(10)
        ]
        data["resources"] = {
            "ram_cap_fraction": "0.8",
            "per_node_startup_fraction": "0.2",
            "per_node_steady_fraction": "0.05",
        }
        manifest = parse_manifest(data)
        plan = build_startup_plan(manifest)
        launches = steps_of_kind(plan, "launch")
        # 4 fill the cap; settled footprints leave room for 3, then 2, then 1
        assert [len(s.script) for s in launches] == [4, 3, 2, 1]

    def test_launch_infeasible_overflow(self):
        data = minimal_manifest_dict()
        data["nodes"] = [
            {"name": f"node{i:03d}", "ip": f"10.1.0.{i+1}", "image": "img", "processes": []}
            for i in range(10)
        ]
        data["resources"] = {
            "ram_cap_fraction": "0.4",
            "per_node_startup_fraction": "0.2",
            "per_node_steady_fraction": "0.2",
        }
        with pytest.raises(InfeasibleError):
            build_startup_plan(parse_manifest(data))

    def test_launch_line_contents(self):
        data = minimal_manifest_dict()
        data["timers"] = {"block_time_s": {"value": 12, "kind": "duration"}}
        data["nodes"][0]["processes"][0]["args"] = ["--block-time", "{timer:block_time_s}"]
        manifest = parse_manifest(data)
        plan = build_startup_plan(manifest)
        launch = steps_of_kind(plan, "launch")[0]
        line = launch.script.lines[0]
        assert "--name node001" in line
        assert "--ip 10.1.0.1" in line
        assert "--mac-address 02:42:0a:01:00:01" in line
        assert "--network latbr0" in line
        env_token = next(t for t in shlex.split(line) if t.startswith("LATEM_NODE_SPEC="))
        spec = json.loads(env_token.split("=", 1)[1])
        assert spec["processes"][0]["args"] == ["--block-time", "12"]
        assert spec["signal_phases"] == ["start-proc"]

    def test_signal_phases_follow_targets(self):
        data = minimal_manifest_dict()
        data["phases"][1:1] = [
            {"name": "wake-validators", "action": "signal", "signal": "SIGUSR2",
             "target": "role:validator"},
        ]
        plan = build_startup_plan(parse_manifest(data))
        specs = {}
        for line in steps_of_kind(plan, "launch")[0].script.lines:
            env_token = next(t for t in shlex.split(line) if t.startswith("LATEM_NODE_SPEC="))
            spec = json.loads(env_token.split("=", 1)[1])
            specs[spec["name"]] = spec["signal_phases"]
        assert specs == {
            "node001": ["start-proc"],
            "node002": ["wake-validators", "start-proc"],
        }

    def test_launch_lines_carry_the_neigh_sysctls(self):
        plan = build_startup_plan(parse_manifest(minimal_manifest_dict()))
        launches = [line for s in steps_of_kind(plan, "launch") for line in s.script]
        assert len(launches) == 2
        for line in launches:
            argv = shlex.split(line)
            at = argv.index("NET_ADMIN") + 1
            assert argv[at:at + 6] == [
                "--sysctl", "net.ipv4.neigh.eth0.mcast_solicit=0",
                "--sysctl", "net.ipv4.neigh.eth0.app_solicit=1",
                "--sysctl", "net.ipv4.neigh.eth0.base_reachable_time_ms=72000000",
            ]
        assert not any(
            line.startswith("docker exec") and "sysctl" in line
            for s in plan.steps for line in s.script
        )

    def test_launch_sysctls_and_gather_name_the_container_iface(self):
        data = minimal_manifest_dict(runtime={"container_iface": "ens5"})
        plan = build_startup_plan(parse_manifest(data))
        for line in steps_of_kind(plan, "launch")[0].script:
            assert launch_sysctls(line) == [
                "net.ipv4.neigh.ens5.mcast_solicit=0",
                "net.ipv4.neigh.ens5.app_solicit=1",
                "net.ipv4.neigh.ens5.base_reachable_time_ms=72000000",
            ]
        (gather,) = steps_of_kind(plan, "gather")
        assert all("/sys/class/net/ens5/" in line for line in list(gather.script)[:-1])

    def test_launch_sysctls_and_emit_neigh_sysctls_share_one_table(self):
        data = minimal_manifest_dict(runtime={"container_iface": "ens5"})
        plan = build_startup_plan(parse_manifest(data))
        table = [f"{key}={value}" for key, value in neigh_settings("ens5")]
        emitted = [shlex.split(line)[2].replace(" = ", "=") for line in emit_neigh_sysctls("ens5")]
        assert emitted == table
        for line in steps_of_kind(plan, "launch")[0].script:
            assert launch_sysctls(line) == table

    def test_host_script_phase(self):
        data = minimal_manifest_dict()
        data["phases"].append(
            {"name": "snapshot", "action": "run-host-script",
             "script": ["mkdir -p /tmp/snap", "docker ps > /tmp/snap/ps.txt"]}
        )
        plan = build_startup_plan(parse_manifest(data))
        step = next(s for s in plan.steps if s.name == "host-snapshot")
        assert step.script.lines == ("mkdir -p /tmp/snap", "docker ps > /tmp/snap/ps.txt")

    def test_host_script_line_with_trailing_whitespace_rejected(self):
        data = minimal_manifest_dict()
        data["phases"].append(
            {"name": "snapshot", "action": "run-host-script", "script": ["docker ps "]}
        )
        with pytest.raises(ValueError, match="trailing whitespace"):
            build_startup_plan(parse_manifest(data))

    def test_capture_stats_steps_follow_their_phases(self):
        data = minimal_manifest_dict()
        data["phases"][0]["capture_stats"] = True
        data["phases"][1]["capture_stats"] = True
        plan = build_startup_plan(parse_manifest(data))
        names = [s.name for s in plan.steps]
        assert names.index("stats-launch") == names.index("launch-launch-b01") + 1
        assert names.index("stats-start-proc") == names.index("signal-start-proc") + 1
        stats_step = next(s for s in plan.steps if s.name == "stats-launch")
        assert stats_step.script.lines == (
            "docker stats --no-stream --format '{{.Name}},{{.MemUsage}}'",
        )



def scripted_gather_adapter(fail_on: dict[str, int] | None = None) -> ScriptedAdapter:
    return ScriptedAdapter(
        failures=dict(fail_on or {}),
        responses={
            "ip -o link show": (
                "1: lo: <LOOPBACK,UP,LOWER_UP> mtu 65536\n"
                "7: vetha1@if6: <BROADCAST,MULTICAST,UP> mtu 1500\n"
                "9: vetha2@if8: <BROADCAST,MULTICAST,UP> mtu 1500\n"
            ),
            "docker exec node001 cat /sys/class/net/eth0/iflink": "7\n",
            "docker exec node001 cat /sys/class/net/eth0/address": "02:42:0a:01:00:01\n",
            "docker exec node002 cat /sys/class/net/eth0/iflink": "9\n",
            "docker exec node002 cat /sys/class/net/eth0/address": "02:42:0a:01:00:02\n",
        },
    )


def gather(adapter, nodes):
    return gather_interfaces(adapter, GatherScript(tuple(nodes), "eth0"))


class TestGatherInterfaces:
    NODES = [("node001", "10.1.0.1"), ("node002", "10.1.0.2")]

    def test_fixture_inventory(self):
        inventory = gather(scripted_gather_adapter(), self.NODES)
        assert list(inventory.veths.items()) == [("node001", "vetha1"), ("node002", "vetha2")]
        assert inventory.warnings == ()

    def test_mac_mismatch_warns(self):
        adapter = scripted_gather_adapter()
        adapter.responses["docker exec node002 cat /sys/class/net/eth0/address"] = (
            "02:42:de:ad:be:ef\n"
        )
        inventory = gather(adapter, self.NODES)
        assert len(inventory.warnings) == 1
        assert "node002" in inventory.warnings[0]

    def test_empty_nodes_warns(self):
        inventory = gather(scripted_gather_adapter(), [])
        assert inventory.veths == {}
        assert inventory.warnings == ("no nodes to inventory",)

    def test_undiscoverable_veth_raises(self):
        adapter = scripted_gather_adapter()
        adapter.responses["docker exec node002 cat /sys/class/net/eth0/iflink"] = "404\n"
        with pytest.raises(InventoryError):
            gather(adapter, self.NODES)

    @staticmethod
    def three_node_adapter(fail_on: dict[str, int] | None = None) -> ScriptedAdapter:
        adapter = scripted_gather_adapter(fail_on)
        adapter.responses["ip -o link show"] += "11: vetha3@if10: <BROADCAST> mtu 1500\n"
        adapter.responses["docker exec node003 cat /sys/class/net/eth0/iflink"] = "11\n"
        adapter.responses["docker exec node003 cat /sys/class/net/eth0/address"] = (
            "02:42:0a:01:00:03\n"
        )
        return adapter

    def test_three_nodes_three_veths(self):
        adapter = self.three_node_adapter()
        nodes = self.NODES + [("node003", "10.1.0.3")]
        inventory = gather(adapter, nodes)
        assert len(inventory.veths) == 3
        assert inventory.veths["node003"] == "vetha3"
        assert adapter.calls == list(GatherScript(tuple(nodes), "eth0"))

    def test_script_lines(self):
        script = GatherScript((("n1", "10.0.0.1"), ("n2", "10.0.0.2")), "lan0")
        assert list(script) == [
            "docker exec n1 cat /sys/class/net/lan0/iflink",
            "docker exec n1 cat /sys/class/net/lan0/address",
            "docker exec n2 cat /sys/class/net/lan0/iflink",
            "docker exec n2 cat /sys/class/net/lan0/address",
            "ip -o link show",
        ]
        assert len(script) == 5
        empty = GatherScript((), "eth0")
        assert len(empty) == 0 and text_of(empty) == ""

    def test_script_keeps_the_line_rule(self):
        with pytest.raises(ValueError, match="contains a newline"):
            GatherScript((("n1\nreboot", "10.0.0.1"),), "eth0")

    def test_failed_mac_read_warns_and_gathers_the_rest(self):
        adapter = self.three_node_adapter({"node002 cat /sys/class/net/eth0/address": 1})
        batches = []
        run_batch = adapter.run_batch

        def counted(lines):
            batches.append(len(lines))
            return run_batch(lines)

        adapter.run_batch = counted
        nodes = self.NODES + [("node003", "10.1.0.3")]
        inventory = gather(adapter, nodes)
        assert list(inventory.veths.values()) == ["vetha1", "vetha2", "vetha3"]
        assert inventory.warnings == (
            "node 'node002': MAC ? does not match pattern-derived 02:42:0a:01:00:02",
        )
        assert adapter.calls == list(GatherScript(tuple(nodes), "eth0"))
        # the second batch resumes after the failed read
        assert batches == [7, 3]

    def test_failed_iflink_read_ends_the_gather(self):
        adapter = scripted_gather_adapter(
            {"node001 cat /sys/class/net/eth0/iflink": 1, "ip -o link show": 1}
        )
        with pytest.raises(InventoryError, match="node 'node001': cannot read peer ifindex"):
            gather(adapter, self.NODES)
        assert adapter.calls == ["docker exec node001 cat /sys/class/net/eth0/iflink"]

    def test_failed_host_listing_raises(self):
        adapter = scripted_gather_adapter({"ip -o link show": 1})
        with pytest.raises(InventoryError,
                           match="cannot list host links: scripted failure for 'ip -o link show'"):
            gather(adapter, self.NODES)
        assert adapter.calls == list(GatherScript(tuple(self.NODES), "eth0"))


class TestExecuteDryRun:
    def test_no_adapter_calls_and_files_written(self, tmp_path, five_node_classes):
        _, manifest = manifest_with_delay(tmp_path)
        plan = build_startup_plan(manifest, classes=five_node_classes)
        spy = RecordingAdapter()
        report = execute(plan, "dry-run", adapter=spy, out_dir=tmp_path / "out")
        assert spy.calls == []
        assert report.ok
        files = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert len(files) == len(plan.steps)
        assert files[0].startswith("00-preflight")
        assert all(s.wall_s > 0 for s in report.steps)

    def test_byte_identical_across_runs(self, tmp_path, five_node_classes):
        _, manifest = manifest_with_delay(tmp_path)
        plan = build_startup_plan(manifest, classes=five_node_classes)
        execute(plan, "dry-run", out_dir=tmp_path / "a")
        execute(plan, "dry-run", out_dir=tmp_path / "b")
        a_files = sorted((tmp_path / "a").iterdir())
        b_files = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in a_files] == [p.name for p in b_files]
        for pa, pb in zip(a_files, b_files):
            assert pa.read_bytes() == pb.read_bytes()

    def test_written_scripts_equal_their_text(self, tmp_path, five_node_classes):
        plan = five_node_plan(five_node_classes)
        scripts = [s.script for s in plan.steps]
        scripts += [CommandScript(), emit_tc_trees({1: 10}, [], 2), GatherScript((), "eth0")]
        assert {type(s).__name__ for s in scripts} == {
            "CommandScript", "GatherScript", "NftScript", "TreeScript",
        }
        for script in scripts:
            out = io.StringIO()
            out.writelines(script.pieces())
            assert out.getvalue() == text_of(script)
        execute(plan, "dry-run", out_dir=tmp_path)
        for i, step in enumerate(plan.steps):
            assert (tmp_path / f"{i:02d}-{step.name}.sh").read_text() == text_of(step.script)

    @pytest.mark.parametrize("traced", ["execute", "build and execute"])
    def test_traced_peak_follows_the_piece_not_the_step(self, tmp_path, traced):
        # 300 nodes: a 2 MB nft step and a 3 MB tc step, written piece by piece;
        # the plan holds the nft step as its class map, not as its lines.
        n = 300
        data = minimal_manifest_dict()
        data["nodes"] = [
            {"name": f"n{i:03d}", "ip": f"10.1.{i // 250}.{i % 250 + 1}", "image": "img",
             "processes": []}
            for i in range(n)
        ]
        data["phases"] = [{"name": "launch", "action": "launch"}]
        data["delay"] = {"matrix_path": "matrix.txt", "quantum_ms": 10}
        manifest = parse_manifest(data)
        policy = dm.QuantizationPolicy()
        upper = np.triu(np.random.default_rng(0).uniform(5, 400, size=(n, n)), k=1)
        q = dm.quantize(dm.DelayMatrix(upper + upper.T), policy)
        classes = dm.build_classes(q, [n.ip for n in manifest.nodes], policy)
        plan = build_startup_plan(manifest, classes=classes)
        (nft,) = steps_of_kind(plan, "nft")
        nft_chars = sum(len(line) + 1 for line in nft.script)
        assert nft_chars > 2_000_000
        tracemalloc.start()
        try:
            if traced == "build and execute":
                plan = build_startup_plan(manifest, classes=classes)
            execute(plan, "dry-run", out_dir=tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nft_chars / 4

    def test_requires_out_dir(self):
        plan = build_startup_plan(parse_manifest(minimal_manifest_dict()))
        with pytest.raises(ConfigError):
            execute(plan, "dry-run")

    def test_unknown_mode(self):
        plan = build_startup_plan(parse_manifest(minimal_manifest_dict()))
        with pytest.raises(ConfigError):
            execute(plan, "rehearsal", out_dir="/tmp/x")


class TestExecuteApply:
    def test_full_apply_with_substitution(self):
        manifest = parse_manifest(minimal_manifest_dict())
        plan = build_startup_plan(manifest)
        adapter = scripted_gather_adapter()
        report = execute(plan, "apply", adapter=adapter)
        assert report.ok
        fdb_result = next(s for s in report.steps if s.kind == "fdb")
        assert any("dev vetha1" in c.line for c in fdb_result.commands)
        assert not any("{veth:" in c.line for c in fdb_result.commands)
        assert report.inventory is not None

    def test_gather_expects_the_mac_each_launch_line_sets(self):
        data = minimal_manifest_dict()
        data["nodes"][1]["ip"] = "192.168.200.17"
        plan = build_startup_plan(parse_manifest(data))
        adapter = scripted_gather_adapter()
        for step in steps_of_kind(plan, "launch"):
            for line in step.script:
                words = line.split()
                name = words[words.index("--name") + 1]
                mac = words[words.index("--mac-address") + 1]
                adapter.responses[f"docker exec {name} cat /sys/class/net/eth0/address"] = (
                    mac + "\n"
                )
        report = execute(plan, "apply", adapter=adapter)
        assert report.ok
        assert report.inventory.warnings == ()

    def test_gather_sends_its_dry_run_lines_in_file_order(self, tmp_path):
        plan = build_startup_plan(parse_manifest(minimal_manifest_dict()))
        execute(plan, "dry-run", out_dir=tmp_path)
        at = next(i for i, s in enumerate(plan.steps) if s.kind == "gather")
        written = (tmp_path / f"{at:02d}-gather.sh").read_text().splitlines()
        adapter = scripted_gather_adapter()
        report = execute(plan, "apply", adapter=adapter)
        assert report.ok
        start = sum(len(s.script) for s in plan.steps[:at])
        assert adapter.calls[start : start + len(written)] == written
        assert report.steps[at].commands == ()

    def test_failure_stops_and_skips(self):
        manifest = parse_manifest(minimal_manifest_dict())
        plan = build_startup_plan(manifest)
        # step index 3 is fdb: preflight, launch, gather, fdb, neigh, signal
        adapter = scripted_gather_adapter(fail_on={"bridge fdb add": 1})
        report = execute(plan, "apply", adapter=adapter)
        statuses = [(s.kind, s.status) for s in report.steps]
        assert statuses[0] == ("preflight", "ok")
        assert statuses[1] == ("launch", "ok")
        assert statuses[2] == ("gather", "ok")
        assert statuses[3] == ("fdb", "failed")
        assert all(status == "skipped" for _, status in statuses[4:])
        assert not report.ok

    def test_failed_step_records_exit_code(self):
        manifest = parse_manifest(minimal_manifest_dict())
        plan = build_startup_plan(manifest)
        adapter = scripted_gather_adapter(fail_on={"docker kill": 137})
        report = execute(plan, "apply", adapter=adapter)
        signal_result = next(s for s in report.steps if s.kind == "signal")
        assert signal_result.status == "failed"
        assert signal_result.commands[-1].exit_code == 137

    def test_apply_requires_adapter(self):
        plan = build_startup_plan(parse_manifest(minimal_manifest_dict()))
        with pytest.raises(ConfigError):
            execute(plan, "apply")

    def test_tc_outcomes_follow_the_plan(self, tmp_path, five_node_classes):
        _, manifest = manifest_with_delay(tmp_path)
        plan = build_startup_plan(manifest, classes=five_node_classes)
        adapter = scripted_gather_adapter()
        report = execute(plan, "apply", adapter=adapter)
        tc_result = next(s for s in report.steps if s.kind == "tc")
        tc_step = next(s for s in plan.steps if s.kind == "tc")
        expected = [l.replace("{veth:node001}", "vetha1").replace("{veth:node002}", "vetha2")
                    for l in tc_step.script]
        assert [c.line for c in tc_result.commands] == expected

    @staticmethod
    def placeholder_text_plan(five_node_classes) -> PhasedPlan:
        """A plan whose launch and host-script lines hold `{veth:…}` text of
        their own, besides the FDB and tc placeholders."""
        data = minimal_manifest_dict()
        data["nodes"][0]["processes"][0]["args"] = ["--peer", "{veth:node002}"]
        data["phases"].append(
            {"name": "show", "action": "run-host-script", "script": ["echo {veth:node001}"]}
        )
        data["delay"] = {"matrix_path": "matrix.txt", "quantum_ms": 10}
        return build_startup_plan(parse_manifest(data), classes=five_node_classes)

    def test_only_fdb_and_tc_lines_differ_from_the_dry_run(self, tmp_path, five_node_classes):
        plan = self.placeholder_text_plan(five_node_classes)
        execute(plan, "dry-run", out_dir=tmp_path)
        written = {
            step.name: (tmp_path / f"{i:02d}-{step.name}.sh").read_text().splitlines()
            for i, step in enumerate(plan.steps)
        }
        adapter = scripted_gather_adapter()
        report = execute(plan, "apply", adapter=adapter)
        assert report.ok, [s.detail for s in report.steps]
        gathered = {"{veth:node001}": "vetha1", "{veth:node002}": "vetha2"}
        expected = []
        for step in plan.steps:
            lines = written[step.name]
            if step.kind in ("fdb", "tc"):
                for token, veth in gathered.items():
                    lines = [line.replace(token, veth) for line in lines]
                assert lines != written[step.name]
                assert not any("{veth:" in line for line in lines)
            if step.kind == "host-script":  # each in its own subshell
                lines = [f"(eval {shlex.quote(line)})" for line in lines]
            expected += lines
        assert adapter.calls == expected
        (show,) = steps_of_kind(report, "host-script")
        assert [c.line for c in show.commands] == written["host-show"]
        (launch,) = steps_of_kind(plan, "launch")
        assert "{veth:node002}" in written[launch.name][0]
        assert written["host-show"] == ["echo {veth:node001}"]

    def test_a_token_the_gather_did_not_find_fails_the_fdb_step(self, five_node_classes):
        plan = self.placeholder_text_plan(five_node_classes)
        (gather,) = steps_of_kind(plan, "gather")
        only_first = replace(gather, script=GatherScript(gather.script.nodes[:1], "eth0"))
        steps = tuple(only_first if s is gather else s for s in plan.steps)
        adapter = scripted_gather_adapter()
        report = execute(PhasedPlan(plan.experiment, steps), "apply", adapter=adapter)
        statuses = {s.kind: s.status for s in report.steps}
        assert (statuses["gather"], statuses["fdb"], statuses["tc"]) == ("ok", "failed", "skipped")
        (fdb,) = steps_of_kind(report, "fdb")
        assert fdb.detail == "no gathered veth for node 'node002'"
        assert fdb.commands == ()
        assert not any(call.startswith("bridge fdb") for call in adapter.calls)

    def test_a_token_the_gather_did_not_find_fails_the_tc_step_before_any_tree(
        self, five_node_classes
    ):
        plan = self.placeholder_text_plan(five_node_classes)
        (gather,) = steps_of_kind(plan, "gather")
        only_first = replace(gather, script=GatherScript(gather.script.nodes[:1], "eth0"))
        steps = tuple(only_first if s is gather else s for s in plan.steps if s.kind != "fdb")
        adapter = scripted_gather_adapter()
        report = execute(PhasedPlan(plan.experiment, steps), "apply", adapter=adapter)
        (tc,) = steps_of_kind(report, "tc")
        assert (tc.status, tc.detail, tc.commands) == (
            "failed", "no gathered veth for node 'node002'", ()
        )
        # node001's tree comes first and could run; it must not.
        assert not any(call.startswith("tc ") for call in adapter.calls)

    @staticmethod
    def four_tree_plan() -> tuple[PhasedPlan, list[str]]:
        # 4 interfaces, 19 classes, b=5: 65 lines per tree.
        veths = [f"veth{i}" for i in range(4)]
        delays = {mark: 10 * mark for mark in range(1, 20)}
        script = emit_tc_trees(delays, veths, 5)
        step = PlanStep(STEP_TC, STEP_TC, script)
        return PhasedPlan("tc-only", (step,)), list(script)

    def test_tc_trees_keep_parents_before_children(self):
        plan, lines = self.four_tree_plan()
        report = execute(plan, "apply", adapter=ParentCheckingAdapter())
        (result,) = report.steps
        assert len(result.commands) == 260
        assert [c for c in result.commands if c.exit_code != 0] == []
        assert result.status == "ok"
        assert [c.line for c in result.commands] == lines

    def test_failing_interface_stops_the_tc_step(self):
        plan, lines = self.four_tree_plan()
        adapter = ScriptedAdapter(failures={"dev veth1 parent 1:3 ": 2})
        report = execute(plan, "apply", adapter=adapter)
        (result,) = report.steps
        assert result.status == "failed"
        assert [c.line for c in result.commands] == lines[:65 + 4]
        assert result.commands[-1].exit_code == 2
        assert not any("veth2" in call or "veth3" in call for call in adapter.calls)


class TestStatsCapture:
    def test_apply_collects_checkpoint_samples(self):
        from decimal import Decimal

        from latem.stats import checkpoints_from_report, summarize_stats

        data = minimal_manifest_dict()
        data["phases"][1]["capture_stats"] = True
        plan = build_startup_plan(parse_manifest(data))
        adapter = scripted_gather_adapter()
        adapter.responses["docker stats --no-stream"] = (
            "node001,100MiB / 384GiB\nnode002,300MiB / 384GiB\n"
        )
        report = execute(plan, "apply", adapter=adapter)
        assert report.ok
        samples = checkpoints_from_report(report)
        assert samples == {
            "start-proc": {"node001": Decimal(100), "node002": Decimal(300)}
        }
        summary = summarize_stats(samples, available_mib=1000)
        assert summary.checkpoints[0].total_mib == Decimal(400)


class TestDelayClassesForManifest:
    def test_subsamples_and_builds(self, tmp_path):
        matrix_path = tmp_path / "matrix.txt"
        np.savetxt(matrix_path, FIVE_NODE_ENTRIES, fmt="%.1f")
        data = minimal_manifest_dict()
        data["delay"] = {"matrix_path": "matrix.txt", "quantum_ms": 10, "subsample_seed": 3}
        manifest = parse_manifest(data)
        classes, bands = delay_classes_for_manifest(manifest, tmp_path)
        assert bands == 2
        assert len(classes) >= 1
        assert {p for c in classes for p in c.pairs} <= {("10.1.0.1", "10.1.0.2")}

    def test_matrix_smaller_than_nodes_rejected(self, tmp_path):
        matrix_path = tmp_path / "matrix.txt"
        matrix_path.write_text("0\n")
        data = minimal_manifest_dict()
        data["delay"] = {"matrix_path": "matrix.txt"}
        manifest = parse_manifest(data)
        # the same error as `plan-delays --count` on too small a matrix
        with pytest.raises(SizeError, match=r"^cannot select 2 of 1 nodes$"):
            delay_classes_for_manifest(manifest, tmp_path)

    def test_inflation_factor_applied(self, tmp_path):
        matrix_path = tmp_path / "matrix.txt"
        matrix_path.write_text("0 30\n30 0\n")
        data = minimal_manifest_dict()
        data["delay"] = {"matrix_path": "matrix.txt", "inflation_factor": 2}
        manifest = parse_manifest(data)
        classes, _ = delay_classes_for_manifest(manifest, tmp_path)
        assert classes.class_delays() == {1: 60}
