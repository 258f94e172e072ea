import argparse
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import latem
from latem import delay_model as dm
from latem.autoarpd import MockSolicitTransport, Solicitation
from latem.cli import build_parser, main
from latem.link_layer import check_bridge_capacity
from latem.script import CommandScript
from latem.tc_planner import verify_plan

from conftest import (
    FIVE_NODE_ENTRIES,
    FIVE_NODE_IPS,
    FIXTURES,
    GOLDENS,
    OverflowOnceTransport,
    minimal_manifest_dict,
    write_manifest,
)
from fake_adapters import ScriptedAdapter, scripted_gather_adapter
from reference_classes import subsample


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
    assert golden.read_text().count("\n") == 1  # one compact line


def test_compact_and_pretty_class_maps_read_the_same(tmp_path):
    # The pretty file holds the bytes earlier versions wrote for this map.
    compact = GOLDENS / "classes_5node3class.json"
    pretty = GOLDENS / "classes_5node3class.pretty.json"
    assert compact.read_bytes() != pretty.read_bytes()
    maps, scripts, reports = [], [], []
    for path in (compact, pretty):
        nft, tc = tmp_path / f"{path.name}.nft", tmp_path / f"{path.name}.tc"
        assert main(["emit-nft", "--classes", str(path), "--out", str(nft)]) == 0
        assert main(["emit-tc", "--classes", str(path), "--veth", "vetha1", "--out", str(tc)]) == 0
        classes = dm.DelayClassMap.from_json_dict(json.loads(path.read_text()))
        assert dm.load_class_map(str(path)) == classes
        maps.append(classes)
        scripts.append((nft.read_text(), tc.read_text()))
        reports.append(verify_plan(
            CommandScript(lines=tuple(scripts[-1][0].splitlines())),
            CommandScript(lines=tuple(scripts[-1][1].splitlines())),
            classes,
        ))
    assert maps[0] == maps[1]
    assert scripts[0] == scripts[1] == (
        (GOLDENS / "nft_5node3class.txt").read_text(), (GOLDENS / "tc_5node3class.txt").read_text()
    )
    assert reports[0] == reports[1]
    assert reports[0].ok


def test_plan_delays_writes_the_class_map_one_class_at_a_time(tmp_path, monkeypatch):
    # 140 nodes over ten delay levels: 9,730 pairs, about 970 to a class.
    rng = np.random.default_rng(5)
    n = 140
    upper = np.triu(rng.integers(1, 11, size=(n, n)) * 10, k=1)
    matrix, out = tmp_path / "matrix.txt", tmp_path / "classes.json"
    np.savetxt(matrix, upper + upper.T, fmt="%d")
    make_pieces = dm.class_map_json
    held = []

    def traced(classes, quantum_ms):
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return make_pieces(classes, quantum_ms)

    monkeypatch.setattr(dm, "class_map_json", traced)
    tracemalloc.start()
    try:
        assert main(["plan-delays", "--matrix", str(matrix), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - held[0]
    finally:
        tracemalloc.stop()
    text = out.read_text()
    largest = max(
        len(json.dumps(c, sort_keys=True, separators=(",", ":")))
        for c in json.loads(text)["classes"]
    )
    assert len(text) > 9 * largest
    # Writing holds one class's text and its pair strings, never the map.
    assert peak < 8 * largest


def _five_node_manifest(tmp_path: Path, matrix_file: Path, delay: dict,
                        ips: list[str] = FIVE_NODE_IPS) -> Path:
    data = minimal_manifest_dict()
    data["nodes"] = [
        {"name": f"n{i}", "ip": ip, "image": "img", "processes": []} for i, ip in enumerate(ips)
    ]
    data["phases"] = [{"name": "launch", "action": "launch"}]
    data["delay"] = {"matrix_path": str(matrix_file), **delay}
    return write_manifest(tmp_path, data)


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"quantum_ms": 7, "rounding": "nearest-half-up"},
        {"quantum_ms": 25},
    ],
)
def test_plan_delays_output_is_json_dumps_of_its_class_map(tmp_path, matrix_file, options):
    out = tmp_path / "classes.json"
    # five addresses from 10.0.0.254 cross into 10.0.1.x
    ips = ["10.0.0.254", "10.0.1.1", "10.0.1.2", "10.0.1.3", "10.0.1.4"]
    manifest = _five_node_manifest(tmp_path, matrix_file, options, ips)
    rc = main(["plan-delays", "--manifest", str(manifest), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    payload = json.loads(text)
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == text
    assert "10.0.1.2" in text
    assert payload["quantum_ms"] == options.get("quantum_ms", 10)


def test_plan_delays_inflates_by_the_exact_factor(tmp_path, capsys):
    # 175 ms at 7/5 is 245 ms exactly, a tie that rounds up; 175 * float(7/5) falls below it
    path = tmp_path / "m.txt"
    path.write_text("0 175\n175 0\n")
    assert main(["plan-delays", "--matrix", str(path), "--inflate", "7/5"]) == 0
    assert [c["delay_ms"] for c in json.loads(capsys.readouterr().out)["classes"]] == [250]


@pytest.mark.parametrize("rounding", ["floor", "ceil"])
def test_manifest_rounding_other_than_half_up_is_refused(tmp_path, matrix_file, capsys,
                                                         rounding):
    manifest = _five_node_manifest(tmp_path, matrix_file, {"rounding": rounding})
    assert main(["run", "--manifest", str(manifest), "--dry-run",
                 "--out", str(tmp_path / "p")]) == 2
    assert capsys.readouterr().err == (
        f"error: [delay.rounding] rounding must be 'nearest-half-up', got {rounding!r}\n"
    )


def test_plan_delays_with_subsample_and_inflate(tmp_path, matrix_file, capsys):
    rc = main(
        ["plan-delays", "--matrix", str(matrix_file), "--count", "3", "--seed", "7",
         "--inflate", "2", "--ip-base", "10.0.0.1"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classes"]


@pytest.mark.parametrize("command", ["run", "plan-delays --manifest", "plan-delays --matrix"])
@pytest.mark.parametrize("factor, message", [
    ("0", "inflation factor must be positive, got 0"),
    ("-2/3", "inflation factor must be positive, got -2/3"),
    ("0.0", "inflation factor must be positive, got 0"),
    ("-1e400", "inflation factor must be positive, got -1e+400"),
    ("", "cannot parse '' as a rational: Invalid literal for Fraction: ''"),
])
def test_inflate_must_be_a_positive_rational(tmp_path, matrix_file, capsys, command, factor,
                                             message):
    manifest = _five_node_manifest(tmp_path, matrix_file, {})
    argv = {
        "run": ["run", "--manifest", str(manifest), "--dry-run", "--out", str(tmp_path / "p")],
        "plan-delays --manifest": ["plan-delays", "--manifest", str(manifest)],
        "plan-delays --matrix": ["plan-delays", "--matrix", str(matrix_file)],
    }[command]
    assert main([*argv, f"--inflate={factor}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["run", "plan-delays --manifest", "plan-delays --matrix"])
def test_a_factor_past_float_range_is_one_error_line(tmp_path, matrix_file, capsys, command):
    # p = 10^400 is past float range; the message gives the factor in short
    manifest = _five_node_manifest(tmp_path, matrix_file, {})
    argv = {
        "run": ["run", "--manifest", str(manifest), "--dry-run"],
        "plan-delays --manifest": ["plan-delays", "--manifest", str(manifest)],
        "plan-delays --matrix": ["plan-delays", "--matrix", str(matrix_file)],
    }[command]
    assert main([*argv, "--inflate", "1e400", "--out", str(tmp_path / "p")]) == 2
    largest = float(FIVE_NODE_ENTRIES.max())
    assert capsys.readouterr() == (
        "", f"error: delay {largest} ms times 1e+400 does not fit int64 steps of 10 ms\n"
    )
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("argv", [["run", "--dry-run"], ["plan-delays"], ["emit-fdb"]],
                         ids=["run", "plan-delays", "emit-fdb"])
def test_a_manifest_inflation_factor_is_refused(tmp_path, matrix_file, capsys, argv):
    manifest = _five_node_manifest(tmp_path, matrix_file, {"inflation_factor": 2})
    assert main([*argv, "--manifest", str(manifest), "--out", str(tmp_path / "p")]) == 2
    assert capsys.readouterr() == ("", "error: [delay.inflation_factor] not a manifest key: "
                                       "`--inflate F` scales the delays, timers and staggers "
                                       "together\n")
    assert not (tmp_path / "p").exists()


def _timed_manifest(tmp_path: Path, matrix_file: Path, timer="5", stagger_ms=20) -> Path:
    """Two nodes, a duration timer `d` one process reads, and a staggered signal phase."""
    data = minimal_manifest_dict(timers={"d": {"value": timer, "kind": "duration"}})
    data["nodes"][0]["processes"][0]["args"] = ["{timer:d}"]
    data["phases"][1]["stagger_ms"] = stagger_ms
    data["delay"] = {"matrix_path": str(matrix_file)}
    return write_manifest(tmp_path, data)


BOUND = "value must be from 0 to 9223372036854775807, got"
NOT_ZERO = "value must be 0 or round to a float above 0, got"


@pytest.mark.parametrize("command", ["run", "plan-delays"])
@pytest.mark.parametrize("timer, stagger_ms, factor, message", [
    ("5", 20, "1e400", f"inflation factor 1e+400 on timer 'd': {BOUND} 5e+400"),
    ("5", 20, "1e400/3", f"inflation factor 3.33333e+399 on timer 'd': {BOUND} 1.66667e+400"),
    ("5", 20, "1e5000", f"inflation factor 1e+5000 on timer 'd': {BOUND} 5e+5000"),
    ("0", 20, "1e400", f"inflation factor 1e+400 on phase 'start-proc''s stagger: {BOUND} 2e+401"),
    # a factor that would write every duration and sleep as 0.0
    ("5", 20, "1e-400", f"inflation factor 1e-400 on timer 'd': {NOT_ZERO} 5e-400"),
    ("0", 20, "1e-400",
     f"inflation factor 1e-400 on phase 'start-proc''s stagger: {NOT_ZERO} 2e-399"),
    ("1e400/3", 20, None, f"[timers.d.value] {BOUND} 3.33333e+399"),
    ("1e5000", 20, None, f"[timers.d.value] {BOUND} 1e+5000"),
    ("1e-400", 20, None, f"[timers.d.value] {NOT_ZERO} 1e-400"),
    ("5", "1e400/3", None, f"[phases[1].stagger_ms] {BOUND} 3.33333e+399"),
    # a stagger whose float is 0 only in seconds, as `sleep` takes it
    ("5", "1e-322", None, f"[phases[1].stagger_ms] in seconds, {NOT_ZERO} 1e-325"),
    ("0", 20, "5e-324",
     f"inflation factor 5e-324 on phase 'start-proc''s stagger: in seconds, {NOT_ZERO} 1e-325"),
])
def test_time_values_a_plan_cannot_write_are_one_error_line(tmp_path, matrix_file, capsys, command,
                                                            timer, stagger_ms, factor, message):
    manifest = _timed_manifest(tmp_path, matrix_file, timer, stagger_ms)
    argv = {
        "run": ["run", "--manifest", str(manifest), "--dry-run", "--out", str(tmp_path / "p")],
        "plan-delays": ["plan-delays", "--manifest", str(manifest)],
    }[command]
    assert main([*argv, *(["--inflate", factor] if factor else [])]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "p").exists()


def test_run_writes_a_timer_exactly(tmp_path, matrix_file):
    manifest = _timed_manifest(tmp_path, matrix_file, timer="33554432.3")
    out = tmp_path / "p"
    assert main(["run", "--manifest", str(manifest), "--dry-run", "--out", str(out)]) == 0
    launches = "".join(p.read_text() for p in sorted(out.glob("*launch*")))
    assert launches.count('"timers":{"d":"33554432.3"}') == 2  # each node's spec
    assert "33554432.29" not in launches


def test_plan_delays_count_writes_the_bytes_of_load_then_subsample(tmp_path, matrix_file):
    out = tmp_path / "classes.json"
    rc = main(["plan-delays", "--matrix", str(matrix_file), "--count", "3", "--seed", "7",
               "--ip-base", "10.0.0.1", "--out", str(out)])
    assert rc == 0
    quantum_ms = dm.QUANTUM_MS
    matrix = subsample(dm.load_matrix(matrix_file), 3, 7)
    classes = dm.build_classes(dm.quantize(matrix, quantum_ms), FIVE_NODE_IPS[:3])
    assert out.read_bytes() == "".join(dm.class_map_json(classes, quantum_ms)).encode()


def test_plan_delays_bytes_that_are_not_utf8_are_one_error_line(tmp_path, capsys):
    matrix = tmp_path / "matrix.txt"
    matrix.write_bytes(b"0 7\n7 \xff0\n")
    rc = main(["plan-delays", "--matrix", str(matrix)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: not UTF-8 text (") and err.count("\n") == 1


@pytest.mark.parametrize("count", ["6", "0"])
def test_plan_delays_count_out_of_range(matrix_file, capsys, count):
    rc = main(["plan-delays", "--matrix", str(matrix_file), "--count", count])
    assert rc == 2
    assert capsys.readouterr().err == f"error: cannot select {count} of 5 nodes\n"


# At --count 5 of 5 rows no draw is made, and a negative seed went unread.
@pytest.mark.parametrize("count", [[], ["--count", "1"], ["--count", "5"]])
def test_plan_delays_refuses_a_negative_seed(tmp_path, matrix_file, capsys, count):
    out = tmp_path / "classes.json"
    rc = main(["plan-delays", "--matrix", str(matrix_file), *count, "--seed", "-1",
               "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --seed must be non-negative, got -1\n")
    assert not out.exists()


def test_run_refuses_a_negative_subsample_seed_at_its_path(tmp_path, matrix_file, capsys):
    manifest = _five_node_manifest(tmp_path, matrix_file, {"subsample_seed": -1})
    out = tmp_path / "plan"
    assert main(["run", "--manifest", str(manifest), "--dry-run", "--out", str(out)]) == 2
    message = "[delay.subsample_seed] subsample seed must be non-negative, got -1"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_run_plans_nothing_over_a_delay_int64_cannot_hold(tmp_path, capsys):
    # cast unchecked, 1e300 would become INT64_MIN and wrap to 0: a plan without that delay
    entries = np.array(FIVE_NODE_ENTRIES, dtype=float)
    entries[0, 4] = entries[4, 0] = 1e300
    matrix, out = tmp_path / "matrix.txt", tmp_path / "plan"
    np.savetxt(matrix, entries)
    manifest = _five_node_manifest(tmp_path, matrix, {})
    assert main(["run", "--manifest", str(manifest), "--dry-run", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    message = "delay 1e+300 ms times 1 does not fit int64 steps of 10 ms"
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


def test_plan_delays_manifest_larger_than_the_matrix(tmp_path, capsys):
    (tmp_path / "matrix.txt").write_text("0\n")
    data = minimal_manifest_dict()
    data["delay"] = {"matrix_path": "matrix.txt"}
    manifest = write_manifest(tmp_path, data)
    rc = main(["plan-delays", "--manifest", str(manifest)])
    assert rc == 2
    assert capsys.readouterr().err == "error: cannot select 2 of 1 nodes\n"


@pytest.mark.parametrize(
    "option", [["--matrix", "m.txt"], ["--count", "3"], ["--seed", "0"], ["--ip-base", "10.0.0.1"]]
)
def test_plan_delays_manifest_takes_no_matrix_option(tmp_path, matrix_file, capsys, option):
    manifest = _five_node_manifest(tmp_path, matrix_file, {})
    rc = main(["plan-delays", "--manifest", str(manifest), *option])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option[0]} is not used with --manifest\n"


def test_plan_delays_manifest_without_a_delay_section(tmp_path, capsys):
    manifest = write_manifest(tmp_path, minimal_manifest_dict())
    assert main(["plan-delays", "--manifest", str(manifest)]) == 2
    assert capsys.readouterr().err == "error: manifest has no delay section\n"


def test_plan_delays_needs_a_matrix_or_a_manifest(capsys):
    assert main(["plan-delays", "--count", "3"]) == 2
    assert capsys.readouterr().err == "error: plan-delays needs --matrix or --manifest\n"


def test_plan_delays_manifest_plans_the_classes_of_run(tmp_path, capsys):
    # Every delay key away from its default, a subsample, and inflation.
    rng = np.random.default_rng(5)
    upper = np.triu(rng.integers(0, 200, size=(10, 10)), 1)
    np.savetxt(tmp_path / "matrix.txt", upper + upper.T, fmt="%d")
    data = minimal_manifest_dict()
    data["nodes"] = [
        {"name": f"n{i}", "ip": f"10.2.0.{i + 1}", "image": "img", "processes": []}
        for i in range(8)
    ]
    data["phases"] = [{"name": "launch", "action": "launch"}]
    data["delay"] = {"matrix_path": "matrix.txt", "quantum_ms": 25, "rounding": "nearest-half-up",
                     "subsample_seed": 4}
    manifest = write_manifest(tmp_path, data)
    plan, class_map = tmp_path / "plan", tmp_path / "classes.json"
    assert main(["run", "--manifest", str(manifest), "--inflate", "6", "--dry-run",
                 "--out", str(plan)]) == 0
    assert main(["plan-delays", "--manifest", str(manifest), "--inflate", "6",
                 "--out", str(class_map)]) == 0
    payload = json.loads(class_map.read_text())
    assert (payload["quantum_ms"], payload["rounding"]) == (25, "nearest-half-up")
    capsys.readouterr()

    def emitted(*argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    (nft_step,) = plan.glob("*-nft.sh")
    (tc_step,) = plan.glob("*-tc.sh")
    assert emitted("emit-nft", "--classes", str(class_map)) == nft_step.read_text()
    assert "".join(
        emitted("emit-tc", "--classes", str(class_map), "--veth", f"{{veth:{node['name']}}}")
        for node in data["nodes"]
    ) == tc_step.read_text()


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


def test_emit_tc_rejects_a_class_without_pairs(tmp_path, capsys):
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps({"classes": [{"mark": 1, "delay_ms": 30, "pairs": []}]}))
    rc = main(["emit-tc", "--classes", str(classes), "--veth", "vetha1"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: class with mark 1 has no pairs"]


def test_emit_nft_rejects_a_number_or_bool_address(tmp_path, capsys):
    classes = tmp_path / "classes.json"
    classes.write_text('{"classes": [{"mark": 1, "delay_ms": 10, "pairs": [[1, 2], [true, 3]]}]}')
    rc = main(["emit-nft", "--classes", str(classes)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: class with mark 1: address 1 is not a string\n"


@pytest.mark.parametrize("command", [["emit-nft"], ["emit-tc", "--veth", "vetha1"]])
@pytest.mark.parametrize("text, message", [
    ('{"quantum_ms": 10}', "the class map has no 'classes'"),
    ('{"classes": [{"mark": 1, "delay_ms": 10}]}', "the class at position 0 has no 'pairs'"),
    ('{"classes": [{"mark": "1", "delay_ms": true, "pairs": [["10.0.0.1", "10.0.0.2"]]}]}',
     'the class at position 0: mark must be a JSON integer, got "1"'),
    ('{"classes": [{"mark": 1, "delay_ms": 10.7, "pairs": [["10.0.0.1", "10.0.0.2"]]}]}',
     "the class at position 0: delay_ms must be a JSON integer, got 10.7"),
])
def test_emit_rejects_a_class_map_missing_a_key_or_integer(tmp_path, capsys, command, text,
                                                          message):
    classes = tmp_path / "classes.json"
    classes.write_text(text)
    rc = main([*command, "--classes", str(classes)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("10.0.0.1 veth1\n10.0.0.1 veth2\n", "duplicate address '10.0.0.1'"),
    ("10.0.0.1 veth1\n\n10.0.0.300 veth2\n",
     "line 3: Octet 300 (> 255) not permitted in '10.0.0.300'"),
])
def test_emit_fdb_refuses_a_repeated_or_malformed_address(tmp_path, capsys, text, message):
    nodes, out = tmp_path / "nodes.txt", tmp_path / "fdb.sh"
    nodes.write_text(text)
    assert main(["emit-fdb", "--nodes-file", str(nodes), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


# plan-delays writes a map without classes when every pair rounds to 0 ms.
@pytest.mark.parametrize("command, message", [
    (["emit-nft"], "cannot emit a marking script for zero classes"),
    (["emit-tc", "--veth", "vetha1"], "cannot emit a queueing tree for zero classes"),
])
def test_emit_refuses_an_empty_class_map(tmp_path, capsys, command, message):
    matrix, classes, out = tmp_path / "matrix.txt", tmp_path / "classes.json", tmp_path / "out"
    matrix.write_text("0 4\n4 0\n")
    assert main(["plan-delays", "--matrix", str(matrix), "--out", str(classes)]) == 0
    assert json.loads(classes.read_text())["classes"] == []
    capsys.readouterr()
    assert main([*command, "--classes", str(classes), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


def test_emit_fdb_from_nodes_file(tmp_path, capsys):
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("10.0.0.1 vetha1\n10.0.0.2 vetha2\n")
    rc = main(["emit-fdb", "--nodes-file", str(nodes)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "bridge fdb add 02:42:0a:00:00:01 dev vetha1 master static"


# Each name goes into the script unquoted: one the shell would split is
# refused, and no script is written.
@pytest.mark.parametrize("name", ["a;touch${IFS}pwned", "$(id)", "x'y", "a|b", "{veth:a;b}"])
def test_emit_fdb_refuses_a_nodes_file_name_the_shell_would_split(tmp_path, capsys, name):
    nodes, out = tmp_path / "nodes.txt", tmp_path / "fdb.sh"
    nodes.write_text(f"10.0.0.1 vetha1\n\n10.0.0.2 {name}\n")
    rc = main(["emit-fdb", "--nodes-file", str(nodes), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 3: interface name {name!r} is not one shell word\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["x;touch${IFS}pwned2", "a b", "`id`", "", "{veth:a b}"])
def test_emit_tc_refuses_a_veth_the_shell_would_split(classes_file, tmp_path, capsys, name):
    out = tmp_path / "tc.sh"
    rc = main(["emit-tc", "--classes", str(classes_file), "--veth", name, "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --veth: interface name {name!r} is not one shell word\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["veth0", "eth0.100", "v@if3", "{veth:node001}"])
def test_emit_tc_takes_a_shell_word_or_a_veth_placeholder(classes_file, capsys, name):
    assert main(["emit-tc", "--classes", str(classes_file), "--veth", name]) == 0
    assert f"dev {name} " in capsys.readouterr().out


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


# Edge lists that networkx's generators make for these arguments.
GEN_TOPOLOGY_GOLDENS = {
    "topology_nws_40_4_0.3_seed7.txt":
        ["--kind", "nws", "--n", "40", "--k", "4", "--p", "0.3", "--seed", "7"],
    "topology_random_30_4_seed3.txt":
        ["--kind", "random", "--n", "30", "--degree", "4", "--seed", "3"],
}


def test_gen_topology_negative_degree_is_a_config_error(capsys):
    rc = main(["gen-topology", "--kind", "random", "--n", "10", "--degree", "-2"])
    assert rc == 2
    assert capsys.readouterr().err == "error: degree must be >= 0, got -2\n"


def _overlay_manifest(tmp_path: Path, degree: int) -> Path:
    """Six nodes with one small-world and one random overlay."""
    data = minimal_manifest_dict()
    data["nodes"] = [
        {"name": f"n{i}", "ip": f"10.1.0.{i + 1}", "image": "img", "processes": []}
        for i in range(6)
    ]
    data["phases"] = [{"name": "launch", "action": "launch"}]
    data["networks"] = {
        "blocks": {"kind": "nws", "k": 2, "p": 0.5, "seed": 3},
        "gossip": {"kind": "random", "degree": degree, "seed": 3},
    }
    return write_manifest(tmp_path, data)


def test_run_negative_overlay_degree_is_a_config_error(tmp_path, capsys):
    path = _overlay_manifest(tmp_path, degree=-2)
    rc = main(["run", "--manifest", str(path), "--dry-run", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: [networks.gossip.degree] network 'gossip': degree must be >= 0, got -2\n"
    )


def test_the_readme_manifest_loads_and_plans(tmp_path, capsys):
    (example,) = re.findall(r"```jsonc\n(.*?)```", _readme_section("Manifest schema"), re.S)
    data = json.loads(re.sub(r"//[^\n]*", "", example))
    rng = np.random.default_rng(3)
    upper = np.triu(rng.integers(1, 200, size=(8, 8)), 1)
    np.savetxt(tmp_path / data["delay"]["matrix_path"], upper + upper.T, fmt="%d")
    manifest = write_manifest(tmp_path, data)
    rc = main(["run", "--manifest", str(manifest), "--dry-run", "--out", str(tmp_path / "plan")])
    assert (rc, capsys.readouterr().err) == (0, "")
    launch = next((tmp_path / "plan").glob("*-launch-*.sh")).read_text()
    assert launch.count('"neighbors":{"blocks":[') == len(data["nodes"]) == 6


def test_overlays_build_with_networkx_blocked(tmp_path):
    # Both gen-topology goldens, then a dry run with both overlay kinds.
    code = """
import sys
sys.modules["networkx"] = None  # any import of networkx now raises ImportError
from latem.cli import main
out, manifest, plan = sys.argv[1:4]
for golden, args in zip(sys.argv[4::2], sys.argv[5::2]):
    assert main(["gen-topology", *args.split(), "--out", f"{out}/{golden}"]) == 0
print(main(["run", "--manifest", manifest, "--dry-run", "--out", plan]))
"""
    manifest = _overlay_manifest(tmp_path, degree=3)
    pairs = [x for g, args in GEN_TOPOLOGY_GOLDENS.items() for x in (g, " ".join(args))]
    out = _python(code, str(tmp_path), str(manifest), str(tmp_path / "plan"), *pairs)
    assert out.splitlines()[-1] == "0"
    for golden in GEN_TOPOLOGY_GOLDENS:
        assert (tmp_path / golden).read_bytes() == (GOLDENS / golden).read_bytes()
    launch = next((tmp_path / "plan").glob("*-launch-*.sh")).read_text()
    assert launch.count('"neighbors":{"blocks":[') == 6
    assert launch.count('"gossip":[') == 6


def test_gen_bpf_source(tmp_path, capsys):
    out = tmp_path / "tcp-rto.c"
    rc = main(["gen-bpf", "--timeout-s", "3", "--hz", "250", "--source-out", str(out)])
    assert rc == 0
    assert out.read_text() == (FIXTURES / "tcp-rto-reference.c").read_text()
    err = capsys.readouterr().err
    assert "bpftool prog load tcp-rto.o /sys/fs/bpf/tcp-rto" in err


def test_gen_bpf_paths_given_on_the_command_line(tmp_path, capsys):
    rc = main(["gen-bpf", "--timeout-s", "3", "--hz", "250", "--source-out",
               str(tmp_path / "rto.c"), "--obj", "rto.o", "--pinned", "/sys/fs/bpf/rto",
               "--cgroup", "/sys/fs/cgroup/bench"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "bpftool prog load rto.o /sys/fs/bpf/rto" in err
    assert "/sys/fs/cgroup/bench" in err


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


def test_plan_batches_paper_rounding_prints_true_peaks(capsys):
    """Batches are sized on whole percents; the third then peaks above its cap."""
    rc = main(["plan-batches", "--total", "1100", "--cap", "0.8",
               "--startup", "0.8/750", "--steady", "0.54/750", "--paper-rounding"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "batch 1: 750 nodes (peak 0.8000, settles at 0.5400)\n"
        "batch 2: 243 nodes (peak 0.7992, settles at 0.7150)\n"
        "batch 3: 84 nodes (peak 0.8046, settles at 0.7754)\n"
        "batch 4: 18 nodes (peak 0.7946, settles at 0.7884)\n"
        "batch 5: 5 nodes (peak 0.7937, settles at 0.7920)\n"
        "total scheduled: 1100\n"
    )


def test_plan_batches_reports_unschedulable_remainder(capsys):
    rc = main(
        ["plan-batches", "--total", "5000", "--cap", "0.80",
         "--startup", "0.80/750", "--steady", "0.54/750"]
    )
    assert rc == 1
    assert "unscheduled" in capsys.readouterr().out


PAPER_FOOTPRINTS = ["--startup", "0.80/750", "--steady", "0.54/750"]


@pytest.mark.parametrize("options, message", [
    (["--total", "1000", "--cap", "1.5", *PAPER_FOOTPRINTS],
     "[resources.ram_cap_fraction] must be in (0, 1], got 3/2"),
    (["--total", "-5", "--cap", "0.80", *PAPER_FOOTPRINTS],
     "total nodes must be non-negative, got -5"),
    (["--total", "1", "--cap", "0.1", "--startup", "0.2", "--steady", "0.1"],
     "[resources.per_node_startup_fraction] must be in (0, ram_cap_fraction 1/10], got 1/5"),
])
def test_plan_batches_refuses_what_a_manifest_refuses(capsys, options, message):
    rc = main(["plan-batches", *options])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


@pytest.mark.parametrize(
    "data, message",
    [
        ({"nodes": [1], "phases": []}, "[nodes[0]] expected an object, got int"),
        ({"runtime": ["x"]}, "[runtime] expected an object, got list"),
    ],
)
def test_run_entry_that_is_not_an_object_is_one_error_line(tmp_path, capsys, data, message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    rc = main(["run", "--manifest", str(path), "--dry-run", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_dry_run_tree(tmp_path, matrix_file, capsys):
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
    # A dry run prints no step times: one line per step, its file in brackets.
    assert capsys.readouterr().out == "".join(
        f"written  {n[3:-3]} ({out_dir / n})\n" for n in names
    )


def signal_manifest(tmp_path, node_count: int, signals: int) -> Path:
    data = minimal_manifest_dict()
    data["nodes"] = [
        {"name": f"n{i}", "ip": f"10.0.0.{i}", "image": "img", "processes": []}
        for i in range(1, node_count + 1)
    ]
    data["phases"] = [{"name": "launch", "action": "launch"}] + [
        {"name": f"go{i}", "action": "signal", "signal": "SIGUSR1"}
        for i in range(1, signals + 1)
    ]
    return write_manifest(tmp_path, data, f"manifest-{node_count}.json")


def test_dry_run_refuses_a_directory_with_another_plans_steps(tmp_path, capsys):
    out = tmp_path / "plan"
    big, small = signal_manifest(tmp_path, 3, 2), signal_manifest(tmp_path, 1, 0)
    assert main(["run", "--manifest", str(big), "--dry-run", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before)[-2:] == ["04-signal-go1.sh", "05-signal-go2.sh"]
    capsys.readouterr()
    assert main(["run", "--manifest", str(small), "--dry-run", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {out} holds 04-signal-go1.sh, a step file this plan does not write; "
        "use a new directory\n"
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_dry_run_writes_the_same_plan_again_over_its_own_files(tmp_path):
    out = tmp_path / "plan"
    path = signal_manifest(tmp_path, 3, 2)
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    assert main(["run", "--manifest", str(path), "--dry-run", "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["run", "--manifest", str(path), "--dry-run", "--out", str(out)]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    assert first["notes.txt"] == b"kept\n"


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
        assert warnings == [f"warning: {check_bridge_capacity(n)}"]
    else:
        assert warnings == []


def test_run_apply_prints_the_failing_line_and_stderr(tmp_path, monkeypatch, capsys):
    path = write_manifest(tmp_path, minimal_manifest_dict())
    monkeypatch.setattr("latem.adapters.ShellAdapter",
                        lambda: ScriptedAdapter(failures={"Max processes": 2}))
    rc = main(["run", "--manifest", str(path), "--apply"])
    assert rc == 1
    out = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"failed    +\d+\.\d{3}s preflight", out[0])
    assert out[1].startswith("         exit 2: awk '/^Max processes / ")
    assert out[2] == "         | scripted failure for 'Max processes'"
    assert all(line.startswith("skipped    0.000s ") for line in out[3:])


STATS_OUTPUT = "node001,100MiB / 384GiB\nnode002,300MiB / 384GiB\n"


def stats_apply(tmp_path, monkeypatch, **failures) -> ScriptedAdapter:
    """An adapter for applying `minimal_manifest_dict` with its signal phase's
    stats captured, answering `docker stats` with STATS_OUTPUT."""
    adapter = scripted_gather_adapter(failures)
    adapter.responses["docker stats --no-stream"] = STATS_OUTPUT
    monkeypatch.setattr("latem.adapters.ShellAdapter", lambda: adapter)
    data = minimal_manifest_dict()
    data["phases"][1]["capture_stats"] = True
    write_manifest(tmp_path, data)
    return adapter


def test_run_apply_writes_each_stats_step_where_stats_reads_it(tmp_path, monkeypatch, capsys):
    stats_apply(tmp_path, monkeypatch)
    out = tmp_path / "samples"
    rc = main(["run", "--manifest", str(tmp_path / "manifest.json"), "--apply", "--out", str(out)])
    assert rc == 0
    assert [p.name for p in out.iterdir()] == ["stats-start-proc.csv"]
    assert (out / "stats-start-proc.csv").read_text() == STATS_OUTPUT
    capsys.readouterr()
    assert main(["stats", "--available-mib", "1000", *map(str, out.glob("stats-*.csv"))]) == 0
    assert capsys.readouterr().out == (
        "stats-start-proc: nodes=2 min=100 max=300 avg=200 total=400 percent=40.00%\n"
    )


def test_run_apply_writes_no_stats_without_out_or_for_a_failed_step(tmp_path, monkeypatch):
    stats_apply(tmp_path, monkeypatch)
    before = sorted(tmp_path.rglob("*"))
    assert main(["run", "--manifest", str(tmp_path / "manifest.json"), "--apply"]) == 0
    assert sorted(tmp_path.rglob("*")) == before
    out = tmp_path / "samples"
    argv = ["run", "--manifest", str(tmp_path / "manifest.json"), "--apply", "--out", str(out)]
    assert main(argv) == 0  # an earlier run's samples, which a failed step takes away
    stats_apply(tmp_path, monkeypatch, **{"docker stats": 1})
    assert main(argv) == 1
    assert list(out.iterdir()) == []


def test_run_apply_refuses_an_out_that_is_no_directory_before_any_step(tmp_path, monkeypatch,
                                                                      capsys):
    adapter = stats_apply(tmp_path, monkeypatch)
    out = tmp_path / "samples"
    out.write_text("")
    rc = main(["run", "--manifest", str(tmp_path / "manifest.json"), "--apply", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: [Errno 17] File exists")
    assert adapter.calls == []


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
    rc = main(["autoarpd", "--emit-sysctls", "eth0"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "sysctl -w 'net.ipv4.neigh.eth0.mcast_solicit = 0'\n"
        "sysctl -w 'net.ipv4.neigh.eth0.app_solicit = 1'\n"
        "sysctl -w 'net.ipv4.neigh.eth0.base_reachable_time_ms = 72000000'\n"
    )


def test_autoarpd_emit_sysctls_refuses_an_interface_that_is_not_one_shell_word(capsys):
    assert main(["autoarpd", "--emit-sysctls", "a'b"]) == 2
    assert capsys.readouterr() == (
        "", "error: --emit-sysctls: interface name \"a'b\" is not one shell word\n"
    )


def test_standalone_commands_emit_the_lines_of_run(tmp_path, matrix_file, capsys):
    from latem.manifest import load_manifest
    from latem.orchestrator import delay_classes_for_manifest

    data = minimal_manifest_dict()
    data["nodes"] = [
        {"name": f"n{i}", "ip": ip, "image": "img", "processes": []}
        for i, ip in enumerate(FIVE_NODE_IPS)
    ]
    data["phases"] = [{"name": "launch", "action": "launch"}]
    data["delay"] = {"matrix_path": str(matrix_file)}
    data["runtime"] = {"container_iface": "eth1"}
    manifest = write_manifest(tmp_path, data)
    classes, _ = delay_classes_for_manifest(load_manifest(manifest))
    class_map = tmp_path / "classes.json"
    class_map.write_text("".join(dm.class_map_json(classes, dm.QUANTUM_MS)))
    plan = tmp_path / "plan"
    assert main(["run", "--manifest", str(manifest), "--dry-run", "--out", str(plan)]) == 0
    capsys.readouterr()

    def emitted(*argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def step(name: str) -> str:
        (path,) = plan.glob(f"*-{name}.sh")
        return path.read_text()

    assert emitted("plan-delays", "--manifest", str(manifest)) == class_map.read_text()
    assert emitted("emit-nft", "--classes", str(class_map)) == step("nft")
    assert emitted("emit-fdb", "--manifest", str(manifest)) == step("fdb")
    # the tc file is each node's tree in turn
    assert "".join(
        emitted("emit-tc", "--classes", str(class_map), "--veth", f"{{veth:{node['name']}}}")
        for node in data["nodes"]
    ) == step("tc")
    sysctls = [
        tuple(shlex.split(line)[-1].split(" = "))
        for line in emitted("autoarpd", "--emit-sysctls", "eth1").splitlines()
    ]
    launches = step("launch-launch-b01").splitlines()
    assert len(launches) == 5
    for line in launches:
        argv = shlex.split(line)
        flags = [argv[k + 1] for k, word in enumerate(argv) if word == "--sysctl"]
        assert [tuple(f.split("=")) for f in flags] == sysctls


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["emit-fdb", "--nodes-file", "n.txt", "--mac-prefix", "06:00"], "--mac-prefix"),
        (["autoarpd", "--mac-prefix", "02:42"], "--mac-prefix"),
        (["autoarpd", "--interface", "eth0"], "--interface"),
        (["emit-nft", "--classes", "c.json", "--table", "emu"], "--table"),
        (["emit-nft", "--classes", "c.json", "--chain", "emu_chain"], "--chain"),
        (["emit-nft", "--classes", "c.json", "--chunk-pairs", "2"], "--chunk-pairs"),
        (["emit-tc", "--classes", "c.json", "--veth", "v", "--bands", "4"], "--bands"),
        (["autoarpd", "--reachable-ms", "5000"], "--reachable-ms"),
        (["autoarpd", "--apply-sysctls"], "--apply-sysctls"),
        (["plan-delays", "--matrix", "m.txt", "--format", "csv"], "--format"),
        (["plan-delays", "--manifest", "m.json", "--quantum", "25"], "--quantum"),
        (["plan-delays", "--matrix", "m.txt", "--rounding", "floor"], "--rounding"),
        (["plan-delays", "--manifest", "m.json", "--keep-zero-class"], "--keep-zero-class"),
        (["preflight", "--nodes", "5000", "--files", "4000"], "--files"),
        (["preflight", "--nodes", "5000", "--procs", "600"], "--procs"),
        (["run", "--manifest", "m.json", "--dry-run", "--paper-rounding"], "--paper-rounding"),
    ],
)
def test_settings_that_run_never_varies_are_not_options(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _readme_section(title: str) -> str:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


# A word opening a code span or following "latem " (a subcommand when the
# parser knows it), or a --flag, which belongs to the subcommand named last
# before it in its paragraph.
_README_TOKEN = re.compile(r"(?:`(?:latem\s+)?|latem\s+)([a-z][a-z-]*)|(--[a-z][a-z0-9-]*)")


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def test_every_subcommand_has_one_row_in_the_cli_table():
    # The table runs from its header rule to the first line that is not a row.
    section = _readme_section("CLI reference")
    rows = section.split("| --- | --- |\n", 1)[1].split("\n\n", 1)[0].splitlines()
    names = [re.match(r"\| `([a-z-]+)` \|", row).group(1) for row in rows]
    assert sorted(names) == sorted(_subcommands())


def test_every_flag_the_readme_names_is_accepted_by_its_subcommand():
    accepted = {name: set(p._option_string_actions) for name, p in _subcommands().items()}
    named = []
    for title in ("Quick start", "CLI reference"):
        for paragraph in re.split(r"\n\s*\n|\n(?=latem |\| )", _readme_section(title)):
            command = None
            for m in _README_TOKEN.finditer(paragraph):
                if m.group(1) in accepted:
                    command = m.group(1)
                elif m.group(2):
                    named.append((command, m.group(2)))
    assert len(named) >= 15
    assert [(c, f) for c, f in named if f not in accepted.get(c, ())] == []


def test_autoarpd_prints_the_overflow_count(monkeypatch, capsys):
    handlers = {}
    monkeypatch.setattr("latem.cli.signal.signal",
                        lambda signum, handler: handlers.setdefault(signum, handler))

    class Terminate:  # the drained transport stops the daemon as SIGTERM would
        def set(self):
            handlers[signal.SIGTERM](signal.SIGTERM, None)

    pending = [Solicitation("10.0.0.1", ifindex=2), Solicitation("10.0.0.2", ifindex=2)]
    transport = OverflowOnceTransport(
        MockSolicitTransport(pending=pending, stop_signal=Terminate()), at=1
    )
    transport.close = lambda: None
    monkeypatch.setattr("latem.autoarpd.NetlinkSolicitTransport", lambda: transport)
    rc = main(["autoarpd"])
    assert rc == 0
    assert capsys.readouterr().out == "received=2 replied=2 overflows=1\n"


def test_stats_summary(capsys):
    rc = main(["stats", "--available-mib", "393216", str(FIXTURES / "stats_sample.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stats_sample" in out
    assert "nodes=6" in out


def test_stats_refuses_a_checkpoint_given_twice(tmp_path, capsys):
    paths = [tmp_path / d / "stats-launch.csv" for d in ("a", "b")]
    for path, mib in zip(paths, (100, 300)):
        path.parent.mkdir()
        path.write_text(f"node001,{mib}MiB / 384GiB\n")
    assert main(["stats", "--available-mib", "1000", *map(str, paths)]) == 2
    assert capsys.readouterr() == (
        "", f"error: checkpoint 'stats-launch' is in two files, {paths[0]} and {paths[1]}\n"
    )


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
    # Only the matrix functions need numpy, so every other command starts
    # without it; nothing at run time needs networkx, and only apply mode
    # and the neighbor daemon need subprocess, socket or logging.
    code = """
import sys, latem.cli
print(*(m in sys.modules for m in ("networkx", "numpy", "subprocess", "socket", "logging")))
"""
    assert _python(code) == "False False False False False"


def test_cli_and_class_map_commands_leave_the_run_modules_unloaded(
    classes_file, matrix_file, tmp_path
):
    # Only `run`, `plan-batches`, `emit-fdb`, `autoarpd`, `preflight`,
    # `gen-topology`, `gen-bpf` and `plan-delays --manifest` need these.
    code = """
import sys
from latem.cli import main
RUN_MODULES = {"orchestrator", "autoarpd", "adapters", "topology", "sys_preflight", "time_inflation"}
def loaded():
    return sorted({f"latem.{m}" for m in RUN_MODULES} & set(sys.modules))
print(loaded())
matrix, classes, out = sys.argv[1:]
assert main(["plan-delays", "--matrix", matrix, "--count", "3", "--out", out]) == 0
assert main(["emit-nft", "--classes", classes, "--out", out]) == 0
assert main(["emit-tc", "--classes", classes, "--veth", "veth0", "--out", out]) == 0
print(loaded())
"""
    out = _python(code, str(matrix_file), str(classes_file), str(tmp_path / "out.sh"))
    assert out == "[]\n[]"


_LOADED_MODULES = """
import json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import latem
else:
    from latem.cli import main
    if argv and main(argv) != 0:
        sys.exit(f"latem {argv[0]} failed")
print(sorted(m.removeprefix("latem.") for m in sys.modules if m.startswith("latem.")))
print(sorted({"logging", "socket", "subprocess"} & set(sys.modules)))
"""

# Every process imports the package and `cli` and `errors`; a command adds
# only the modules it runs. None argv is a bare `import latem`.
_COMMAND_MODULES = {
    "import latem": (None, set()),
    "import latem.cli": ([], set()),
    "preflight": (["preflight", "--nodes", "10"], {"sys_preflight"}),
    "plan-delays --matrix": (
        ["plan-delays", "--matrix", "{matrix}", "--count", "3", "--out", "{out}"],
        {"delay_model"},
    ),
    "emit-nft": (
        ["emit-nft", "--classes", "{classes}", "--out", "{out}"],
        {"delay_model", "nft_planner", "script"},
    ),
    "emit-tc": (
        ["emit-tc", "--classes", "{classes}", "--veth", "veth0", "--out", "{out}"],
        {"delay_model", "script", "tc_planner"},
    ),
    "gen-topology": (
        ["gen-topology", "--kind", "random", "--n", "6", "--degree", "2", "--out", "{out}"],
        {"topology"},
    ),
    "gen-bpf": (
        ["gen-bpf", "--timeout-s", "3", "--hz", "250", "--source-out", "{out}"],
        {"script", "time_inflation"},
    ),
    "stats": (
        ["stats", "--available-mib", "393216", str(FIXTURES / "stats_sample.csv")],
        {"stats"},
    ),
    "run --dry-run": (
        ["run", "--manifest", "{manifest}", "--dry-run", "--out", "{plan}", "--inflate", "2"],
        {"delay_model", "link_layer", "manifest", "nft_planner", "orchestrator", "script",
         "sys_preflight", "tc_planner", "time_inflation", "topology"},
    ),
}


@pytest.mark.parametrize("command", sorted(_COMMAND_MODULES))
def test_each_command_loads_only_its_modules(command, classes_file, matrix_file, tmp_path):
    argv, modules = _COMMAND_MODULES[command]
    data = minimal_manifest_dict()
    data["nodes"] = [
        {"name": f"n{i}", "ip": ip, "image": "img", "processes": []}
        for i, ip in enumerate(FIVE_NODE_IPS)
    ]
    data["phases"] = [{"name": "launch", "action": "launch"}]
    data["delay"] = {"matrix_path": str(matrix_file)}
    data["timers"] = {"block_time_s": {"value": 12, "kind": "duration"}}
    data["networks"] = {
        "blocks": {"kind": "nws", "k": 2, "p": 0.5, "seed": 3},
        "gossip": {"kind": "random", "degree": 2, "seed": 3},
    }
    paths = {
        "matrix": matrix_file, "classes": classes_file, "out": tmp_path / "out",
        "manifest": write_manifest(tmp_path, data), "plan": tmp_path / "plan",
    }
    if argv is not None:
        argv = [arg.format(**paths) for arg in argv]
        modules = modules | {"cli", "errors"}
    out = _python(_LOADED_MODULES, json.dumps(argv)).splitlines()
    assert out[-2:] == [repr(sorted(modules)), "[]"]


def test_class_map_commands_load_numpy_and_no_other_package(classes_file, tmp_path):
    # A class map's columns are numpy arrays, so reading one loads numpy;
    # nothing else outside the standard library comes with it.
    code = """
import sys
def packages():
    return {m.partition(".")[0] for m in sys.modules} - set(sys.stdlib_module_names)
before = packages()
from pathlib import Path
from latem.cli import main
from latem.delay_model import load_class_map
from latem.script import CommandScript
from latem.tc_planner import verify_plan
classes, nft, tc = sys.argv[1:]
assert main(["emit-nft", "--classes", classes, "--out", nft]) == 0
assert main(["emit-tc", "--classes", classes, "--veth", "veth0", "--out", tc]) == 0
report = verify_plan(
    CommandScript(lines=tuple(Path(nft).read_text().splitlines())),
    CommandScript(lines=tuple(Path(tc).read_text().splitlines())),
    load_class_map(classes),
)
print(report.ok, sorted(packages() - before))
"""
    nft, tc = tmp_path / "nft.sh", tmp_path / "tc.sh"
    assert _python(code, str(classes_file), str(nft), str(tc)) == "True ['latem', 'numpy']"


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
