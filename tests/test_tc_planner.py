import pytest

from latem import delay_model as dm
from latem.errors import CapacityError, ConfigError, ParseError
from latem.nft_planner import emit_nft_script
from latem.script import CommandScript
from latem.tc_planner import (
    MAX_BANDS,
    compute_bands,
    emit_tc_script,
    leaf_position,
    plan_tree,
    verify_plan,
)

from conftest import GOLDENS, random_class_map


class TestComputeBands:
    def test_known_band_counts(self):
        assert compute_bands(184) == 14
        assert compute_bands(3) == 2
        assert compute_bands(255) == 16

    def test_capacity_boundary(self):
        with pytest.raises(CapacityError):
            compute_bands(256)

    def test_invalid_count(self):
        with pytest.raises(ConfigError):
            compute_bands(0)

    def test_minimality_exhaustive(self):
        # brute-force oracle: smallest b in 2..16 with b*b >= K+1
        for k in range(1, 256):
            expected = next(b for b in range(2, MAX_BANDS + 1) if b * b >= k + 1)
            assert compute_bands(k) == expected


class TestLeafPosition:
    def test_examples(self):
        assert leaf_position(1, 14) == (1, 1)
        assert leaf_position(14, 14) == (1, 14)
        assert leaf_position(184, 14) == (14, 2)

    def test_mark_out_of_capacity(self):
        with pytest.raises(CapacityError):
            leaf_position(4, 2)

    def test_injective_and_avoids_default_exhaustive(self):
        for b in range(2, MAX_BANDS + 1):
            seen = set()
            for mark in range(1, b * b):
                pos = leaf_position(mark, b)
                assert pos != (b, b)
                assert pos not in seen
                assert 1 <= pos[0] <= b and 1 <= pos[1] <= b
                seen.add(pos)


class TestPlanTree:
    def test_default_slot_free(self):
        plan = plan_tree({1: 20, 2: 30, 3: 50}, "veth0", 2)
        assert plan.default_path == (2, 2)
        assert (2, 2) not in {(f, s) for f, s, _ in plan.leaves.values()}

    def test_too_many_classes_for_bands(self):
        with pytest.raises(CapacityError):
            plan_tree({m: m * 10 for m in range(1, 5)}, "veth0", 2)


class TestEmitTcScript:
    def test_line_count_formula(self, five_node_classes):
        delays = five_node_classes.class_delays()
        b = compute_bands(len(delays))
        script = emit_tc_script(delays, "vetha1", b)
        assert len(script) == 1 + b + 3 * len(delays) + 2

    def test_hex_rendering(self):
        delays = {m: m * 10 for m in range(1, 130)}  # needs 12 bands
        b = compute_bands(len(delays))
        script = emit_tc_script(delays, "veth0", b)
        line = next(l for l in script if "parent 1:a " in l)
        assert "handle 1a:" in line

    def test_marks_decimal_delays_ms(self):
        script = emit_tc_script({12: 120}, "veth0", 4)
        assert any("handle 12 fw" in l for l in script)
        assert any("netem delay 120ms" in l for l in script)

    def test_filter_priorities(self):
        script = emit_tc_script({1: 10}, "veth0", 2)
        fw = [l for l in script if " fw " in l]
        matchall = [l for l in script if "matchall" in l]
        assert all("prio 10" in l for l in fw)
        assert all("prio 20" in l for l in matchall)
        assert len(matchall) == 2

    def test_root_filter_band_matches_second_level_parent(self, five_node_classes):
        delays = five_node_classes.class_delays()
        script = emit_tc_script(delays, "vetha1", 2)
        for mark in delays:
            root = next(l for l in script if f"parent 1: prio 10 handle {mark} fw" in l)
            band = root.rsplit("classid 1:", 1)[1]
            second = next(l for l in script if f"prio 10 handle {mark} fw classid 1{band}:" in l)
            assert f"parent 1{band}:" in second

    def test_deterministic(self, five_node_classes):
        delays = five_node_classes.class_delays()
        assert emit_tc_script(delays, "v", 2).text() == emit_tc_script(delays, "v", 2).text()

    def test_golden_five_node(self, five_node_classes):
        golden = (GOLDENS / "tc_5node3class.txt").read_text()
        b = compute_bands(len(five_node_classes))
        assert emit_tc_script(five_node_classes.class_delays(), "vetha1", b).text() == golden

    def test_bad_veth(self):
        with pytest.raises(ConfigError):
            emit_tc_script({1: 10}, " veth0", 2)


def tamper_root_classid(tc: CommandScript, mark: int, bands: int) -> CommandScript:
    """Point one mark's root filter at the wrong first-level band."""
    lines = []
    for line in tc:
        if f"parent 1: prio 10 handle {mark} fw classid 1:" in line:
            prefix, band_hex = line.rsplit(":", 1)
            wrong = format((int(band_hex, 16) % bands) + 1, "x")
            line = f"{prefix}:{wrong}"
        lines.append(line)
    return CommandScript(lines=tuple(lines))


class TestVerifyPlan:
    def test_valid_plan_clean(self, five_node_classes):
        nft = emit_nft_script(five_node_classes)
        b = compute_bands(len(five_node_classes))
        tc = emit_tc_script(five_node_classes.class_delays(), "vetha1", b)
        report = verify_plan(nft, tc, five_node_classes)
        assert report.ok
        assert report.mismatches == ()
        assert report.pairs_checked == 2 * sum(len(c.pairs) for c in five_node_classes)
        assert report.default_path_ok

    def test_tampered_classid_reported(self, five_node_classes):
        nft = emit_nft_script(five_node_classes)
        b = compute_bands(len(five_node_classes))
        tc = emit_tc_script(five_node_classes.class_delays(), "vetha1", b)
        tampered = tamper_root_classid(tc, 2, b)
        report = verify_plan(nft, tampered, five_node_classes)
        assert not report.ok
        assert report.mismatched_marks() == {2}

    def test_tampered_delay_reported(self, five_node_classes):
        nft = emit_nft_script(five_node_classes)
        b = compute_bands(len(five_node_classes))
        tc = emit_tc_script(five_node_classes.class_delays(), "vetha1", b)
        lines = tuple(
            l.replace("netem delay 30ms", "netem delay 40ms") for l in tc
        )
        report = verify_plan(nft, CommandScript(lines=lines), five_node_classes)
        assert report.mismatched_marks() == {2}
        # one mismatch per directed pair of the class
        assert len(report.mismatches) == 2 * len(five_node_classes.classes[1].pairs)
        assert {m.actual_delay_ms for m in report.mismatches} == {40}

    def test_first_matching_rule_wins(self, five_node_classes):
        nft = emit_nft_script(five_node_classes)
        tc = emit_tc_script(five_node_classes.class_delays(), "vetha1", 2)
        # A class-2 pair also in the earlier set is marked 1; a class-1 pair
        # also in the later set keeps mark 1.
        lines = nft.lines + (
            "nft add element latem nodes_1 { 10.0.0.1 . 10.0.0.3 }",
            "nft add element latem nodes_3 { 10.0.0.2 . 10.0.0.1 }",
        )
        report = verify_plan(CommandScript(lines=lines), tc, five_node_classes)
        assert [(m.pair, m.detail) for m in report.mismatches] == [
            (("10.0.0.1", "10.0.0.3"), "marked 1 instead of 2")
        ]

    def test_empty_classes_default_only(self):
        classes = dm.DelayClassMap(classes=())
        tc = emit_tc_script({}, "veth0", 2)
        report = verify_plan(CommandScript(lines=()), tc, classes)
        assert report.ok
        assert report.pairs_checked == 0
        assert report.default_path_ok

    def test_netem_on_default_slot_flagged(self):
        classes = dm.DelayClassMap(classes=())
        tc = emit_tc_script({}, "veth0", 2)
        lines = tc.lines + ("tc qdisc add dev veth0 parent 12:2 netem delay 10ms",)
        report = verify_plan(CommandScript(lines=()), CommandScript(lines=lines), classes)
        assert not report.default_path_ok

    def test_unparseable_line_raises_with_number(self, five_node_classes):
        nft = emit_nft_script(five_node_classes)
        bad = CommandScript(lines=nft.lines[:2] + ("nft flush ruleset",))
        with pytest.raises(ParseError) as exc:
            verify_plan(bad, emit_tc_script({1: 20}, "v", 2), five_node_classes)
        assert exc.value.line_no == 3

    def test_kept_zero_class_verifies(self):
        import numpy as np

        q = np.array([[0, 0, 20], [0, 0, 20], [20, 20, 0]], dtype=np.int64)
        policy = dm.QuantizationPolicy(drop_zero_class=False)
        classes = dm.build_classes(q, ["10.0.0.1", "10.0.0.2", "10.0.0.3"], policy)
        assert classes.class_delays() == {1: 0, 2: 20}
        nft = emit_nft_script(classes)
        tc = emit_tc_script(classes.class_delays(), "v0", 2)
        assert "netem delay 0ms" in tc.text()
        assert verify_plan(nft, tc, classes).ok

    @pytest.mark.parametrize("seed", range(25))
    def test_random_maps_verify_clean(self, seed):
        classes = random_class_map(seed)
        if len(classes) == 0:
            return
        nft = emit_nft_script(classes)
        b = compute_bands(len(classes))
        tc = emit_tc_script(classes.class_delays(), "veth0", b)
        assert verify_plan(nft, tc, classes).ok
