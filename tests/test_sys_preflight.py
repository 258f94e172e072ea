import resource
import shutil
import subprocess

import pytest

from latem.sys_preflight import (
    FAIL,
    FILES_PER_NODE,
    MISSING,
    PASS,
    PROCS_PER_NODE,
    ParamEntry,
    ParameterPlan,
    audit,
    emit_audit_commands,
    emit_conf,
    parse_readings,
    recommend,
)

from conftest import failing_keys, required_values

# Stock values a freshly installed host reports for the plan's keys.
STOCK_DEFAULTS = {
    "fs.nr_open": "1048576",
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


class TestRecommend:
    def test_pty_for_3500_nodes(self):
        required = required_values(recommend(3500))
        assert required["kernel.pty.max"] == "11000"

    def test_gc_thresholds(self):
        required = required_values(recommend(100))
        for key in ("gc_thresh1", "gc_thresh2", "gc_thresh3"):
            assert required[f"net.ipv4.neigh.default.{key}"] == "200000"

    def test_small_run_keeps_floors(self):
        required = required_values(recommend(1))
        assert int(required["nofile"]) >= 1_574_415
        assert int(required["nproc"]) >= 1_574_415
        assert int(required["kernel.pty.max"]) >= 11_000

    def test_large_run_scales_above_floor(self):
        required = required_values(recommend(30_000))
        assert required["nofile"] == str(30_000 * FILES_PER_NODE)
        assert required["nproc"] == str(30_000 * PROCS_PER_NODE)
        assert int(required["nproc"]) > 1_574_415
        assert required["kernel.pty.max"] == str(30_000 + 1_000)

    @pytest.mark.parametrize("nodes", [1, 3500, 3997, 5000, 20000])
    def test_nr_open_admits_the_nofile_limit(self, nodes):
        # The kernel refuses a hard nofile above fs.nr_open, so the plan
        # raises fs.nr_open first, to the same value.
        plan = recommend(nodes)
        keys = [e.key for e in plan.entries]
        assert keys.index("fs.nr_open") < keys.index("nofile")
        required = required_values(plan)
        assert required["fs.nr_open"] == required["nofile"]
        nr_open = required["fs.nr_open"]
        assert f"fs.nr_open={nr_open}\n" in emit_conf(plan).sysctl_conf
        assert f'test "$(sysctl -n fs.nr_open)" -ge {nr_open}' in emit_audit_commands(plan)

    def test_socket_buffer_values(self):
        required = required_values(recommend(100))
        assert required["net.core.wmem_default"] == "2147483647"
        assert required["net.ipv4.tcp_rmem"] == "10240 87380 16777216"

    def test_duplicate_keys_rejected(self):
        entry = recommend(1).entries[0]
        with pytest.raises(ValueError):
            ParameterPlan(entries=(entry, entry))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            recommend(0)


class TestAudit:
    def test_stock_host_fails_the_right_keys(self):
        plan = recommend(3500)
        report = audit(plan, STOCK_DEFAULTS)
        assert "kernel.pty.max" in failing_keys(report)
        assert "fs.nr_open" in failing_keys(report)
        assert "net.ipv4.tcp_rmem" in failing_keys(report)
        assert "net.ipv4.tcp_wmem" in failing_keys(report)
        assert {"net.ipv4.neigh.default.gc_thresh1",
                "net.ipv4.neigh.default.gc_thresh2",
                "net.ipv4.neigh.default.gc_thresh3"} <= failing_keys(report)

    def test_pty_fail_detail(self):
        plan = recommend(3500)
        report = audit(plan, {"kernel.pty.max": "4096"})
        row = next(r for r in report.rows if r.key == "kernel.pty.max")
        assert row.status == FAIL
        assert "6904" in row.detail  # 11000 - 4096

    def test_exact_value_passes(self):
        plan = recommend(100)
        report = audit(plan, {"net.core.rmem_max": "2147483647"})
        row = next(r for r in report.rows if r.key == "net.core.rmem_max")
        assert row.status == PASS

    def test_higher_value_passes(self):
        plan = recommend(100)
        report = audit(plan, {"kernel.pty.max": "999999"})
        assert next(r for r in report.rows if r.key == "kernel.pty.max").status == PASS

    def test_triple_requires_exact_match(self):
        plan = recommend(100)
        report = audit(plan, {"net.ipv4.tcp_rmem": "4096 131072 6291456"})
        row = next(r for r in report.rows if r.key == "net.ipv4.tcp_rmem")
        assert row.status == FAIL

    def test_triple_whitespace_normalized(self):
        plan = recommend(100)
        report = audit(plan, {"net.ipv4.tcp_rmem": "10240\t87380  16777216"})
        row = next(r for r in report.rows if r.key == "net.ipv4.tcp_rmem")
        assert row.status == PASS

    def test_unread_keys_missing(self):
        plan = recommend(100)
        report = audit(plan, {})
        assert all(r.status == MISSING for r in report.rows)

    def test_plan_against_itself_all_pass(self):
        plan = recommend(750)
        assert audit(plan, required_values(plan)).all_pass


class TestEmitConf:
    def test_limits_lines(self):
        fragments = emit_conf(recommend(1))
        assert "root hard nofile 1574415" in fragments.limits_conf
        assert "root soft nofile 1574415" in fragments.limits_conf
        assert "root hard nproc 1574415" in fragments.limits_conf
        assert "root soft nproc 1574415" in fragments.limits_conf

    def test_sysctl_lines(self):
        fragments = emit_conf(recommend(1))
        assert "net.core.wmem_default=2147483647" in fragments.sysctl_conf
        assert "net.ipv4.tcp_rmem=10240 87380 16777216" in fragments.sysctl_conf

    def test_empty_plan(self):
        fragments = emit_conf(ParameterPlan(entries=()))
        assert fragments.limits_conf == ""
        assert fragments.sysctl_conf == ""

    def test_round_trip_through_parse(self):
        plan = recommend(2000)
        fragments = emit_conf(plan)
        parsed = parse_readings(fragments.sysctl_conf)
        for entry in plan.entries:
            if entry.kind != "ulimit":
                assert parsed[entry.key] == entry.required
        # limits lines carry the ulimit values verbatim
        for entry in plan.entries:
            if entry.kind == "ulimit":
                assert f"root hard {entry.key} {entry.required}" in fragments.limits_conf

    def test_round_trip_audit_passes(self):
        plan = recommend(500)
        readings = parse_readings(emit_conf(plan).sysctl_conf)
        sysctl_rows = [
            r for r in audit(plan, readings).rows if r.key not in ("nofile", "nproc")
        ]
        assert all(r.status == PASS for r in sysctl_rows)


def test_parse_readings_formats():
    text = "a.b = 1\nc.d=2\n# comment\n\ne.f =  3 4 5\n"
    assert parse_readings(text) == {"a.b": "1", "c.d": "2", "e.f": "3 4 5"}


def test_audit_commands_shape():
    lines = emit_audit_commands(recommend(100))
    assert [l for l in lines if "/proc/self/limits" in l] == [
        "awk '/^Max open files / { h = $(NF - 1) } "
        "END { exit !(h == \"unlimited\" || h + 0 >= 1574415) }' /proc/self/limits",
        "awk '/^Max processes / { h = $(NF - 1) } "
        "END { exit !(h == \"unlimited\" || h + 0 >= 1574415) }' /proc/self/limits",
    ]
    assert any("sysctl -n kernel.pty.max" in l for l in lines)
    assert all(l.startswith("test ") for l in lines if "/proc/self/limits" not in l)


SHELLS = ["/bin/sh"] + ([shutil.which("bash")] if shutil.which("bash") else [])
LIMITS = [("nofile", resource.RLIMIT_NOFILE, "Max open files", "files"),
          ("nproc", resource.RLIMIT_NPROC, "Max processes", "processes")]


def _gate(key: str, required: int) -> str:
    entry = ParamEntry(key, str(required), "ulimit", "")
    (line,) = emit_audit_commands(ParameterPlan(entries=(entry,)))
    return line


def _run(shell: str, line: str) -> tuple[int, str]:
    proc = subprocess.run([shell, "-c", line], capture_output=True, text=True, timeout=30)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("shell", SHELLS)
@pytest.mark.parametrize("key, rlimit, row, units", LIMITS)
def test_ulimit_gate_reads_the_shells_hard_limit(shell, key, rlimit, row, units):
    # The shell inherits this process's limits.
    hard = resource.getrlimit(rlimit)[1]
    if hard == resource.RLIM_INFINITY:
        assert _run(shell, _gate(key, 2**62)) == (0, "")
        return
    assert _run(shell, _gate(key, hard - 1)) == (0, "")
    assert _run(shell, _gate(key, hard)) == (0, "")
    assert _run(shell, _gate(key, hard + 1)) == (1, "")


@pytest.mark.parametrize("shell", SHELLS)
@pytest.mark.parametrize("key, rlimit, row, units", LIMITS)
@pytest.mark.parametrize("hard, passes", [("unlimited", True), ("4096", True), ("4095", False)])
def test_ulimit_gate_on_a_limits_table(tmp_path, shell, key, rlimit, row, units, hard, passes):
    limits = tmp_path / "limits"
    limits.write_text(
        f"{'Limit':<26}{'Soft Limit':<21}{'Hard Limit':<21}{'Units':<10}\n"
        f"{'Max cpu time':<26}{'unlimited':<21}{'unlimited':<21}{'seconds':<10}\n"
        f"{row:<26}{'1024':<21}{hard:<21}{units:<10}\n"
    )
    line = _gate(key, 4096).replace("/proc/self/limits", str(limits))
    assert _run(shell, line) == (0 if passes else 1, "")


@pytest.mark.parametrize("key", ["nofile", "nproc"])
def test_ulimit_gate_fails_without_its_row(tmp_path, key):
    limits = tmp_path / "limits"
    limits.write_text("Limit  Soft Limit  Hard Limit  Units\n")
    line = _gate(key, 1).replace("/proc/self/limits", str(limits))
    assert _run("/bin/sh", line) == (1, "")
