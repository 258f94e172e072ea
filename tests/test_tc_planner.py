import io
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latem import delay_model as dm
from latem.errors import CapacityError, ConfigError, ParseError
from latem.nft_planner import emit_nft_script
from latem.script import CommandScript, Script
from latem.delay_model import compute_bands
from latem.tc_planner import (
    MAX_BANDS,
    MISMATCHES_PER_CLASS,
    emit_tc_script,
    emit_tc_trees,
    TreeScript,
    _glued,
    leaf_position,
    verify_plan,
)

from conftest import (
    FIVE_NODE_ENTRIES,
    FIVE_NODE_IPS,
    GOLDENS,
    five_node_map,
    mismatched_marks,
    random_class_map,
    text_of,
)
from reference_classes import delay_classes
from reference_verify import verify_plan_per_pair


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
    def test_too_many_classes_for_bands(self):
        with pytest.raises(CapacityError):
            emit_tc_trees({m: m * 10 for m in range(1, 5)}, ["vetha1"], 2)


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
        assert text_of(emit_tc_script(delays, "v", 2)) == text_of(emit_tc_script(delays, "v", 2))

    def test_golden_five_node(self, five_node_classes):
        golden = (GOLDENS / "tc_5node3class.txt").read_text()
        b = compute_bands(len(five_node_classes))
        assert text_of(emit_tc_script(five_node_classes.class_delays(), "vetha1", b)) == golden

    @pytest.mark.parametrize(
        "veth", ["", " veth0", "veth0 ", "veth0\t", "a\nb", "veth0\r", "\nveth0"]
    )
    def test_bad_veth(self, veth):
        with pytest.raises(ConfigError, match="invalid interface name"):
            emit_tc_script({1: 10}, veth, 2)
        with pytest.raises(ConfigError, match="invalid interface name"):
            emit_tc_trees({1: 10}, ["veth0", veth, "veth2"], 2)


class TestEmitTcTrees:
    def test_concatenates_one_tree_per_interface(self, five_node_classes):
        delays = five_node_classes.class_delays()
        veths = ["vetha1", "vethb2", "v3"]
        script = emit_tc_trees(delays, veths, 3)
        assert list(script) == [l for v in veths for l in emit_tc_script(delays, v, 3)]

    def test_len_counts_lines_without_rendering_them(self, five_node_classes):
        delays = five_node_classes.class_delays()
        script = emit_tc_trees(delays, ["vetha1", "vethb2", "v3"], 3)
        assert len(script) == len(list(script)) == 3 * (1 + 3 + 3 * len(delays) + 2)

    def test_writes_each_interface_tree_as_one_piece(self, five_node_classes):
        veths = ["vetha1", "vethb2", "v3", "{veth:node004}"]
        script = emit_tc_trees(five_node_classes.class_delays(), veths, 3)
        trees = ["".join(head + v + tail + "\n" for head, tail in script.tree) for v in veths]
        assert list(script.pieces()) == trees
        out = io.StringIO()
        out.writelines(script.pieces())
        assert out.getvalue() == text_of(script) == "".join(trees)
        assert text_of(script) == "\n".join(script) + "\n"

    def test_tree_without_lines_has_no_text(self):
        script = TreeScript(tree=(), veths=("v0", "v1"))
        assert (len(script), list(script), list(script.pieces())) == (0, [], [])
        assert text_of(script) == ""

    @pytest.mark.parametrize(
        "head, tail",
        [("tc qdisc add dev ", " root\n"), ("tc\rqdisc ", " root"), ("tc ", " root ")],
    )
    def test_tree_lines_keep_the_line_rule(self, head, tail):
        with pytest.raises(ValueError):
            TreeScript(tree=((head, tail),), veths=("v0",))

    def test_a_line_may_end_in_the_interface_name(self):
        assert list(TreeScript(tree=(("ip link show dev ", ""),), veths=("v0",))) == [
            "ip link show dev v0"
        ]

    def test_no_interfaces_still_plans_the_tree(self):
        assert len(emit_tc_trees({1: 10}, [], 2)) == 0
        with pytest.raises(CapacityError):
            emit_tc_trees({4: 10}, [], 2)

    @pytest.mark.parametrize(
        "delays, bands, error",
        [
            ({}, 1, ConfigError),
            ({}, 17, ConfigError),
            ({1: 10}, 1, ConfigError),
            ({1: 10}, 17, ConfigError),
            ({0: 10}, 2, ConfigError),
            ({9: 10, 1: 20}, 3, CapacityError),
        ],
    )
    def test_rejects_bands_and_marks_outside_the_tree(self, delays, bands, error):
        with pytest.raises(error):
            emit_tc_trees(delays, ["v0"], bands)


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


def other_address_case(n: int) -> tuple[Script, Script, dm.DelayClassMap]:
    """The nft script of a map numbered from 10.0.0.1, and a tree and map of
    the same matrix numbered from 10.1.0.1: no pair of the map is marked."""
    upper = np.triu(np.random.default_rng(5).integers(1, 12, size=(n, n)) * 10, k=1)
    planned = dm.build_classes(upper + upper.T, dm.allocate_ips("10.0.0.1", n))
    other = dm.build_classes(upper + upper.T, dm.allocate_ips("10.1.0.1", n))
    tc = emit_tc_script(other.class_delays(), "veth0", compute_bands(len(other)))
    return emit_nft_script(planned), tc, other


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
        assert mismatched_marks(report) == {2}

    def test_tampered_delay_reported(self, five_node_classes):
        nft = emit_nft_script(five_node_classes)
        b = compute_bands(len(five_node_classes))
        tc = emit_tc_script(five_node_classes.class_delays(), "vetha1", b)
        lines = tuple(
            l.replace("netem delay 30ms", "netem delay 40ms") for l in tc
        )
        report = verify_plan(nft, CommandScript(lines=lines), five_node_classes)
        assert mismatched_marks(report) == {2}
        # one mismatch per directed pair of the class
        assert len(report.mismatches) == 2 * len(five_node_classes.classes[1].pairs)
        assert {m.actual_delay_ms for m in report.mismatches} == {40}

    def test_first_matching_rule_wins(self, five_node_classes):
        nft = emit_nft_script(five_node_classes)
        tc = emit_tc_script(five_node_classes.class_delays(), "vetha1", 2)
        # A class-2 pair also in the earlier set is marked 1; a class-1 pair
        # also in the later set keeps mark 1.
        lines = tuple(nft) + (
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
        lines = (*tc, "tc qdisc add dev veth0 parent 12:2 netem delay 10ms")
        report = verify_plan(CommandScript(lines=()), CommandScript(lines=lines), classes)
        assert not report.default_path_ok

    def test_unparseable_line_raises_with_number(self, five_node_classes):
        nft = emit_nft_script(five_node_classes)
        bad = CommandScript(lines=tuple(nft)[:2] + ("nft flush ruleset",))
        with pytest.raises(ParseError) as exc:
            verify_plan(bad, emit_tc_script({1: 20}, "v", 2), five_node_classes)
        assert exc.value.line_no == 3

    def test_kept_zero_class_verifies(self):
        # build_classes never keeps one, but a hand-built or read map may
        classes = dm.DelayClassMap(classes=delay_classes(
            (1, 0, [("10.0.0.1", "10.0.0.2")]),
            (2, 20, [("10.0.0.1", "10.0.0.3"), ("10.0.0.2", "10.0.0.3")]),
        ))
        assert classes.class_delays() == {1: 0, 2: 20}
        nft = emit_nft_script(classes)
        tc = emit_tc_script(classes.class_delays(), "v0", 2)
        assert "netem delay 0ms" in text_of(tc)
        assert verify_plan(nft, tc, classes).ok

    def test_holds_no_string_per_pair(self):
        # A set of element strings costs about 200 bytes per directed pair;
        # the pair codes cost 8 and the first-rule table 1. One element
        # line's strings and numpy's temporaries set the peak.
        n = 300
        upper = np.triu(np.random.default_rng(9).integers(1, 40, size=(n, n)) * 10, k=1)
        ips = [f"10.4.{i // 250}.{i % 250 + 1}" for i in range(n)]
        classes = dm.build_classes(upper + upper.T, ips)
        nft = emit_nft_script(classes)
        tc = emit_tc_script(classes.class_delays(), "veth0", compute_bands(len(classes)))
        assert verify_plan(nft, tc, classes).ok  # first-call allocations stay out of the count
        directed = n * (n - 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = verify_plan(nft, tc, classes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.pairs_checked == directed
        assert (peak - before) / directed < 32

    def test_a_map_of_other_addresses_gets_a_bounded_report(self):
        nft, tc, classes = other_address_case(60)
        report = verify_plan(nft, tc, classes)
        assert not report.ok
        assert report.pairs_checked == 60 * 59
        assert report.failing_pairs == {c.mark: 2 * len(c.lo) for c in classes}
        assert len(report.mismatches) == MISMATCHES_PER_CLASS * len(classes)
        assert {(m.mark, m.detail) for m in report.mismatches} == {
            (c.mark, f"marked None instead of {c.mark}") for c in classes
        }

    def test_a_failing_report_holds_no_record_per_pair(self):
        # One Mismatch with its address strings costs about 260 bytes per
        # directed pair; the bound leaves what the passing check holds.
        n = 300
        nft, tc, classes = other_address_case(n)
        verify_plan(nft, tc, classes)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = verify_plan(nft, tc, classes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(report.failing_pairs.values()) == report.pairs_checked == n * (n - 1)
        assert (peak - before) / report.pairs_checked < 32

    @pytest.mark.parametrize("seed", range(25))
    def test_random_maps_verify_clean(self, seed):
        classes = random_class_map(seed)
        if len(classes) == 0:
            return
        nft = emit_nft_script(classes)
        b = compute_bands(len(classes))
        tc = emit_tc_script(classes.class_delays(), "veth0", b)
        assert verify_plan(nft, tc, classes).ok


def _swap_rule_marks(nft: CommandScript, a: int, b: int) -> CommandScript:
    swap = {f"meta mark set {a}": f"meta mark set {b}", f"meta mark set {b}": f"meta mark set {a}"}
    return CommandScript(lines=tuple(
        next((line.replace(old, new) for old, new in swap.items() if line.endswith(old)), line)
        for line in nft
    ))


def _drop_first_element(nft: CommandScript, set_name: str) -> CommandScript:
    lines = list(nft)
    i = next(i for i, l in enumerate(lines) if f" {set_name} {{ " in l and "add element" in l)
    head, body = lines[i].split(" { ", 1)
    lines[i] = f"{head} {{ {body.split(', ', 1)[1]}"
    return CommandScript(lines=tuple(lines))


def _copy_pair_into(nft: CommandScript, classes, src_mark: int, dst_mark: int) -> CommandScript:
    """Add one directed pair of class src_mark to the set of dst_mark as well."""
    lo, hi = classes.classes[src_mark - 1].pairs[0]
    extra = f"nft add element latem nodes_{dst_mark} {{ {hi} . {lo} }}"
    return CommandScript(lines=tuple(nft) + (extra,))


def _retime(tc: CommandScript, mark: int, classes) -> CommandScript:
    delay = classes.classes[mark - 1].delay_ms
    return CommandScript(lines=tuple(
        l.replace(f"netem delay {delay}ms", f"netem delay {delay + 5}ms") for l in tc
    ))


def _drop_fw_filter(tc: CommandScript, mark: int, level: int) -> CommandScript:
    """Remove mark's root (level 0) or second-level (level 1) fw filter."""
    fw = [i for i, l in enumerate(tc) if f" handle {mark} fw " in l]
    return CommandScript(lines=tuple(l for i, l in enumerate(tc) if i != fw[level]))


# Element text from map addresses, one address outside the map (10.0.0.9),
# "1", "a" and ","; mostly "<part> . <part>", some elements with no or two
# " . ". Parts that end in " ." or "." and start with ". " or "." are what a
# fast split can misread.
_PART = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", ". ", "."]),
    st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.4", "10.0.0.5", "10.0.0.9", "1", "a", ","]),
    st.sampled_from(["", " .", "."]),
)
_ELEMENT = st.tuples(_PART, _PART).map(" . ".join)
ELEMENT_BODY = st.lists(
    st.one_of(_ELEMENT, _ELEMENT, st.lists(_PART, min_size=1, max_size=3).map(" . ".join)),
    min_size=1,
    max_size=3,
).map(", ".join)


def _outcome(verify, nft, tc, classes):
    """The report, or the message and line of the ParseError raised."""
    try:
        return verify(nft, tc, classes)
    except ParseError as exc:
        return str(exc), exc.line_no, exc.line


def _scripts(classes):
    nft = emit_nft_script(classes)
    tc = emit_tc_script(classes.class_delays(), "veth0", compute_bands(len(classes)))
    return nft, tc


TAMPERS = {
    "clean": lambda nft, tc, c: (nft, tc),
    "marks swapped": lambda nft, tc, c: (_swap_rule_marks(nft, 1, len(c)), tc),
    "element missing": lambda nft, tc, c: (_drop_first_element(nft, f"nodes_{len(c)}"), tc),
    "pair in an earlier set": lambda nft, tc, c: (_copy_pair_into(nft, c, len(c), 1), tc),
    "pair in a later set": lambda nft, tc, c: (_copy_pair_into(nft, c, 1, len(c)), tc),
    "netem delay wrong": lambda nft, tc, c: (nft, _retime(tc, len(c), c)),
    "root fw filter missing": lambda nft, tc, c: (nft, _drop_fw_filter(tc, 1, 0)),
    "second fw filter missing": lambda nft, tc, c: (nft, _drop_fw_filter(tc, len(c), 1)),
}


class TestVerifyPlanMatchesPerPairReference:
    """Whole-set verify_plan against the per-pair oracle it replaced."""

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_five_node_reports_equal(self, five_node_classes, tamper):
        nft, tc = TAMPERS[tamper](*_scripts(five_node_classes), five_node_classes)
        report = verify_plan(nft, tc, five_node_classes)
        assert report == verify_plan_per_pair(nft, tc, five_node_classes)
        assert report.ok == (tamper in ("clean", "pair in a later set"))
        assert report.pairs_checked == 2 * sum(len(c.pairs) for c in five_node_classes)

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    @pytest.mark.parametrize("seed", range(6))
    def test_random_maps_report_equal(self, seed, tamper):
        classes = random_class_map(seed)
        assert len(classes) >= 2  # the tampers need two classes
        nft, tc = TAMPERS[tamper](*_scripts(classes), classes)
        assert verify_plan(nft, tc, classes) == verify_plan_per_pair(nft, tc, classes)

    def test_a_map_of_other_addresses_reports_equal(self):
        nft, tc, classes = other_address_case(40)
        report = verify_plan(nft, tc, classes)
        assert report == verify_plan_per_pair(nft, tc, classes)
        assert len(report.mismatches) < sum(report.failing_pairs.values())

    def test_one_set_under_two_rules(self, five_node_classes):
        nft, tc = _scripts(five_node_classes)
        lines = tuple(nft) + (
            "nft add rule latem latem_chain ip saddr . ip daddr @nodes_1 meta mark set 3",
        )
        nft = CommandScript(lines=lines)
        assert verify_plan(nft, tc, five_node_classes) == verify_plan_per_pair(
            nft, tc, five_node_classes
        )

    def test_mark_stamped_by_two_rules(self, five_node_classes):
        # nodes_2 also stamps mark 1, so class 2 is marked 1; class 1 stays whole
        nft, tc = _scripts(five_node_classes)
        nft = _swap_rule_marks(nft, 2, 3)
        nft = CommandScript(lines=tuple(l.replace("mark set 3", "mark set 1") for l in nft))
        report = verify_plan(nft, tc, five_node_classes)
        assert report == verify_plan_per_pair(nft, tc, five_node_classes)
        assert mismatched_marks(report) == {2, 3}

    def test_later_set_overlaps_two_rules_of_one_mark(self, five_node_classes):
        # nodes_1 and nodes_2 both stamp mark 1; nodes_3 also holds a pair of
        # each, which stays marked 1 (first rule wins), so class 2 alone fails
        nft, tc = _scripts(five_node_classes)
        nft = CommandScript(lines=tuple(l.replace("mark set 2", "mark set 1") for l in nft))
        nft = _copy_pair_into(nft, five_node_classes, 1, 3)
        nft = _copy_pair_into(nft, five_node_classes, 2, 3)
        report = verify_plan(nft, tc, five_node_classes)
        assert report == verify_plan_per_pair(nft, tc, five_node_classes)
        assert mismatched_marks(report) == {2}
        assert {m.detail for m in report.mismatches} == {"marked 1 instead of 2"}
        assert len(report.mismatches) == 2 * len(five_node_classes.classes[1].pairs)

    def test_element_that_reads_two_ways(self):
        # "x . . y" would be both ("x", ". y") and ("x .", "y"). An IPv4
        # address holds no space, so no map can hold an address that makes
        # the text "<src> . <dst>" of a pair read two ways.
        with pytest.raises(ValueError, match=re.escape("'x .'")):
            dm.DelayClassMap(classes=delay_classes((1, 20, (("x .", "10.0.0.1"),))))

    @pytest.mark.parametrize(
        "bad_line",
        [
            "nft add element latem nodes_1 { 10.0.0.1 . 10.0.0.2 . 10.0.0.3 }",
            "nft add element latem nodes_1 { 10.0.0.1 . 10.0.0.2, 10.0.0.3 }",
            "nft add element latem nodes_1 { 10.0.0.1 . 10.0.0.2,  }",
            "nft add element latem nodes_1 {  }",
            "nft add element latem nodes_9 { 10.0.0.1 . 10.0.0.2 }",
            "nft add rule latem latem_chain ip saddr . ip daddr @nodes_9 meta mark set 9",
            "nft add element latem nodes_1 10.0.0.1 . 10.0.0.2",
        ],
    )
    def test_same_parse_errors(self, five_node_classes, bad_line):
        nft, tc = _scripts(five_node_classes)
        lines = tuple(nft)
        nft = CommandScript(lines=lines[:4] + (bad_line,) + lines[4:])
        with pytest.raises(ParseError) as got:
            verify_plan(nft, tc, five_node_classes)
        with pytest.raises(ParseError) as want:
            verify_plan_per_pair(nft, tc, five_node_classes)
        assert str(got.value) == str(want.value)
        assert (got.value.line_no, got.value.line) == (5, bad_line)

    @settings(max_examples=300)  # a misreading fast split shows in about 1 in 100
    @given(bodies=st.lists(ELEMENT_BODY, min_size=1, max_size=3))
    # Each element holds one " . ", so both are well formed; they read as
    # ("10.0.0.1", "10.0.0.2 .") and (". 10.0.0.3", "10.0.0.4"), but joined
    # by " . " and split again they would give 10.0.0.1, 10.0.0.2, ... and
    # stamp the class pair (10.0.0.1, 10.0.0.2).
    @example(bodies=["10.0.0.1 . 10.0.0.2 ., . 10.0.0.3 . 10.0.0.4"])
    # Joined and split, these give four parts, as two elements should, and
    # again stamp (10.0.0.1, 10.0.0.2) in place of (10.0.0.4, 10.0.0.5).
    @example(bodies=["10.0.0.1 . 10.0.0.2 ., 10.0.0.4 . 10.0.0.5"])
    # The parts, comma and spaces of two glued elements, but the first
    # element holds two " . " and the second none: malformed.
    @example(bodies=["10.0.0.1 . 10.0.0.2 . 10.0.0.4, 10.0.0.5"])
    def test_elements_read_as_the_reference_reads_them(self, bodies):
        # nodes_1 (mark 1, the first rule) holds only the drawn element text
        classes = five_node_map()
        nft, tc = _scripts(classes)
        lines = [l for l in nft if not l.startswith("nft add element latem nodes_1 ")]
        rule = lines.index(
            "nft add rule latem latem_chain ip saddr . ip daddr @nodes_1 meta mark set 1"
        )
        lines[rule:rule] = [f"nft add element latem nodes_1 {{ {body} }}" for body in bodies]
        nft = CommandScript(lines=tuple(lines))
        assert _outcome(verify_plan, nft, tc, classes) == _outcome(
            verify_plan_per_pair, nft, tc, classes
        )

    def test_glued_text_reads_as_elements_read(self):
        # Every body of up to 10 characters from "a", ".", " " and ",": where it
        # reads as glued parts, they are the parts that splitting at ", " and
        # each element at " . " gives, and each element holds one " . ".
        glued = 0
        for size in range(11):
            for chars in itertools.product("a. ,", repeat=size):
                body = "".join(chars)
                items = body.split(" ")
                if _glued(body, items):
                    glued += 1
                    dsts = [item[:-1] for item in items[2:-1:3]] + items[-1:]
                    elements = body.split(", ")
                    assert [element.count(" . ") for element in elements] == [1] * len(elements)
                    assert [e.split(" . ") for e in elements] == list(map(list, zip(items[0::3], dsts)))
        assert glued > 100

    def test_rule_indices_past_255(self, five_node_classes):
        # A rule on a set with one class-1 pair, then 300 rules on an empty
        # set, put the map's own rules at indices 302-304; a later rule on
        # nodes_1 of another mark loses to them.
        nft, tc = _scripts(five_node_classes)
        lo, hi = five_node_classes.classes[0].pairs[0]
        rule = "nft add rule latem latem_chain ip saddr . ip daddr @{} meta mark set {}"
        early = (
            "nft add set latem early { type ipv4_addr . ipv4_addr \\; }",
            f"nft add element latem early {{ {hi} . {lo} }}",
            rule.format("early", 9),
            "nft add set latem none { type ipv4_addr . ipv4_addr \\; }",
            *[rule.format("none", 7)] * 300,
        )
        lines = tuple(nft)
        nft = CommandScript(lines=lines[:2] + early + lines[2:] + (rule.format("nodes_1", 3),))
        report = verify_plan(nft, tc, five_node_classes)
        assert report == verify_plan_per_pair(nft, tc, five_node_classes)
        assert [(m.pair, m.detail) for m in report.mismatches] == [
            ((hi, lo), "marked 9 instead of 1")
        ]

    def test_table_address_no_element_uses(self, five_node_classes):
        # The map adds 10.0.0.6 in a fourth class the nft script lacks.
        entries = np.zeros((6, 6))
        entries[:5, :5] = FIVE_NODE_ENTRIES
        entries[0, 5] = entries[5, 0] = 61
        classes = dm.build_classes(
            dm.quantize(dm.DelayMatrix(entries), dm.QUANTUM_MS), [*FIVE_NODE_IPS, "10.0.0.6"]
        )
        assert classes.addrs[-1] == "10.0.0.6" and len(classes) == 4
        nft = emit_nft_script(five_node_classes)
        tc = emit_tc_script(classes.class_delays(), "veth0", compute_bands(len(classes)))
        report = verify_plan(nft, tc, classes)
        assert report == verify_plan_per_pair(nft, tc, classes)
        assert [(m.pair, m.detail) for m in report.mismatches] == [
            (("10.0.0.1", "10.0.0.6"), "marked None instead of 4"),
            (("10.0.0.6", "10.0.0.1"), "marked None instead of 4"),
        ]


def _on(dev: str, tc, edit) -> CommandScript:
    """The tc lines, with `edit(line)` applied to the lines of `dev`; None drops a line."""
    lines = (edit(l) if f" dev {dev} " in l else l for l in tc)
    return CommandScript(lines=tuple(l for l in lines if l is not None))


def _break_marks_1_and_2(line: str) -> str | None:
    """Mark 1's leaf delays 999 ms, and mark 2 has no fw filter."""
    if " handle 2 fw " in line:
        return None
    return re.sub(r"(parent 11:1 netem delay )\d+ms$", r"\g<1>999ms", line)


class TestVerifyPlanPerInterface:
    """Each interface's tree is its own; a correct one hides no broken one."""

    @pytest.mark.parametrize("veths, broken", [(["vA", "vB"], "vA"), (["vA", "vB"], "vB"),
                                               (["vA", "vB", "vC"], "vB")])
    def test_broken_interface_seen_beside_correct_ones(self, five_node_classes, veths, broken):
        nft = emit_nft_script(five_node_classes)
        tc = emit_tc_trees(five_node_classes.class_delays(), veths, 2)
        tc = _on(broken, tc, _break_marks_1_and_2)
        report = verify_plan(nft, tc, five_node_classes)
        assert report == verify_plan_per_pair(nft, tc, five_node_classes)
        assert not report.ok
        assert report.default_path_ok
        assert report.pairs_checked == 2 * sum(len(c.pairs) for c in five_node_classes)
        c1, c2 = five_node_classes.classes[:2]
        # one mismatch per directed pair, whatever the interface count
        assert len(report.mismatches) == 2 * (len(c1.pairs) + len(c2.pairs))
        assert {(m.mark, m.actual_delay_ms, m.detail) for m in report.mismatches} == {
            (1, 999, f"{broken}: leaf 11:1"),
            (2, 0, f"{broken}: leaf 12:2"),  # the catch-all takes mark 2 to no delay
        }

    def test_first_failing_interface_named(self, five_node_classes):
        nft = emit_nft_script(five_node_classes)
        tc = emit_tc_trees(five_node_classes.class_delays(), ["vA", "vB", "vC"], 2)
        tc = _on("vC", _on("vB", tc, _break_marks_1_and_2), _break_marks_1_and_2)
        report = verify_plan(nft, tc, five_node_classes)
        assert {m.detail.split(":")[0] for m in report.mismatches} == {"vB"}

    def test_default_path_checked_on_each_interface(self):
        classes = dm.DelayClassMap(classes=())
        tc = emit_tc_trees({}, ["vA", "vB"], 2)
        tc = CommandScript(lines=(*tc, "tc qdisc add dev vB parent 12:2 netem delay 10ms"))
        report = verify_plan(CommandScript(lines=()), tc, classes)
        assert report == verify_plan_per_pair(CommandScript(lines=()), tc, classes)
        assert not report.default_path_ok
        assert report.default_path_detail == "unmarked traffic delayed (vB: leaf 12:2)"

    def test_interface_without_a_root_rejected(self, five_node_classes):
        nft = emit_nft_script(five_node_classes)
        tc = emit_tc_trees(five_node_classes.class_delays(), ["vA", "vB"], 2)
        tc = _on("vB", tc, lambda l: None if " root " in l else l)
        with pytest.raises(ParseError, match="script has no root prio qdisc on vB"):
            verify_plan(nft, tc, five_node_classes)
