import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latem.delay_model import _short
from latem.errors import InflationLintError, ValidationError
from latem.manifest import parse_manifest
from latem.time_inflation import (
    BpfRtoConfig,
    emit_bpf_commands,
    inflate_manifest,
    recommend_rto,
    render_bpf_source,
)

from conftest import FIXTURES, minimal_manifest_dict, phase

# Line numbers (1-based) of the two constant lines in the rendered source.
BPF_CONSTANT_LINES = (11, 12)


def reply_jiffies(source: str) -> int:
    """The hook's reply, `timeout * hz`, from the constants of a rendered source."""
    timeout = int(re.search(r"const int timeout = (\d+);", source).group(1))
    hz = int(re.search(r"const int hz = (\d+);", source).group(1))
    return timeout * hz


class TestRecommendRto:
    def test_vectors(self):
        assert recommend_rto(400) == 1
        assert recommend_rto(500) == 2
        assert recommend_rto(1990) == 4

    def test_zero_delay(self):
        assert recommend_rto(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            recommend_rto(-1)

    @given(st.integers(0, 3000))
    def test_strict_inequality_and_minimality(self, delay):
        s = recommend_rto(delay)
        assert 1000 * s > 2 * delay
        if delay >= 500:
            assert 1000 * (s - 1) <= 2 * delay


class TestBpfSource:
    def test_constants_substituted(self):
        source = render_bpf_source(BpfRtoConfig(3, 250))
        assert "timeout = 3" in source
        assert "hz = 250" in source
        assert reply_jiffies(source) == 750

    def test_kernel_default_equivalent(self):
        # timeout 1 at HZ 250 reproduces the compiled-in 1-second initial RTO
        assert reply_jiffies(render_bpf_source(BpfRtoConfig(1, 250))) == 250

    def test_large_config(self):
        assert reply_jiffies(render_bpf_source(BpfRtoConfig(10, 1000))) == 10_000

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            BpfRtoConfig(timeout_s=2**31, hz=1000)

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            BpfRtoConfig(0, 250)
        with pytest.raises(ValueError):
            BpfRtoConfig(3, 0)

    def test_reference_render_is_byte_identical(self):
        reference = (FIXTURES / "tcp-rto-reference.c").read_text()
        assert render_bpf_source(BpfRtoConfig(3, 250)) == reference

    def test_differs_only_on_constant_lines(self):
        reference = (FIXTURES / "tcp-rto-reference.c").read_text().splitlines()
        rendered = render_bpf_source(BpfRtoConfig(10, 1000)).splitlines()
        assert len(reference) == len(rendered)
        differing = [
            i + 1 for i, (a, b) in enumerate(zip(reference, rendered)) if a != b
        ]
        assert differing == list(BPF_CONSTANT_LINES)

    def test_license_and_section_preserved(self):
        source = render_bpf_source(BpfRtoConfig(7, 100))
        assert '__section("sockops")' in source
        assert 'char _license[] __section("license") = "GPL";' in source


class TestBpfCommands:
    def test_load_sequence(self):
        commands = emit_bpf_commands()
        assert commands.load.lines[0] == "clang -O2 -target bpf -c tcp-rto.c -o tcp-rto.o"
        assert commands.load.lines[1:] == (
            "bpftool prog load tcp-rto.o /sys/fs/bpf/tcp-rto",
            "bpftool cgroup attach /sys/fs/cgroup sock_ops pinned /sys/fs/bpf/tcp-rto",
        )

    def test_unload_sequence(self):
        # Detach names the program by its pin, so the pin goes last.
        commands = emit_bpf_commands()
        assert commands.unload.lines == (
            "bpftool cgroup detach /sys/fs/cgroup sock_ops pinned /sys/fs/bpf/tcp-rto",
            "rm /sys/fs/bpf/tcp-rto",
        )

    def test_custom_paths(self):
        commands = emit_bpf_commands(
            obj_name="rto-x2.o", pinned_path="/sys/fs/bpf/rto-x2", cgroup_path="/sys/fs/cgroup/emul"
        )
        assert "clang -O2 -target bpf -c rto-x2.c -o rto-x2.o" == commands.load.lines[0]
        assert "bpftool prog load rto-x2.o /sys/fs/bpf/rto-x2" == commands.load.lines[1]
        assert commands.load.lines[2] == (
            "bpftool cgroup attach /sys/fs/cgroup/emul sock_ops pinned /sys/fs/bpf/rto-x2"
        )
        assert "rm /sys/fs/bpf/rto-x2" == commands.unload.lines[1]

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError):
            emit_bpf_commands(obj_name="")


def manifest_with_timers():
    data = minimal_manifest_dict()
    data["timers"] = {
        "block_time_s": {"value": 12, "kind": "duration"},
        "tx_rate_per_s": {"value": 4, "kind": "rate"},
    }
    return parse_manifest(data)


class TestInflateManifest:
    def test_block_time_doubles(self):
        inflated = inflate_manifest(manifest_with_timers(), Fraction(2))
        assert inflated.timers["block_time_s"].value == 24

    def test_rate_halves(self):
        inflated = inflate_manifest(manifest_with_timers(), Fraction(2))
        assert inflated.timers["tx_rate_per_s"].value == 2

    def test_stagger_scales(self):
        inflated = inflate_manifest(manifest_with_timers(), Fraction(2))
        assert phase(inflated, "start-proc").stagger_ms == 1000

    def test_identity_factor(self):
        m = manifest_with_timers()
        assert inflate_manifest(m, Fraction(1)) == m

    def test_delay_factor_accumulates(self):
        data = minimal_manifest_dict()
        data["delay"] = {"matrix_path": "m.txt"}
        m = inflate_manifest(parse_manifest(data), Fraction(2))
        inflated = inflate_manifest(m, Fraction(3))
        assert inflated.delay.inflation_factor == 6

    def test_untagged_timer_fails_closed(self):
        data = minimal_manifest_dict()
        data["timers"] = {"mystery_interval": 5}
        m = parse_manifest(data)
        with pytest.raises(InflationLintError) as exc:
            inflate_manifest(m, Fraction(2))
        assert "mystery_interval" in str(exc.value)

    def test_untagged_timer_fails_even_at_identity(self):
        data = minimal_manifest_dict()
        data["timers"] = {"mystery_interval": 5}
        with pytest.raises(InflationLintError):
            inflate_manifest(parse_manifest(data), Fraction(1))

    def test_non_time_fields_untouched(self):
        m = manifest_with_timers()
        inflated = inflate_manifest(m, Fraction(2))
        assert inflated.nodes == m.nodes
        assert inflated.name == m.name

    @given(
        st.fractions(min_value=Fraction(1, 8), max_value=8),
        st.fractions(min_value=Fraction(1, 8), max_value=8),
    )
    def test_composition(self, a, b):
        m = manifest_with_timers()
        twice = inflate_manifest(inflate_manifest(m, a), b)
        once = inflate_manifest(m, a * b)
        assert twice == once

    def test_a_factor_past_the_int64_bound_is_refused_in_short_form(self):
        m = manifest_with_timers()  # block_time_s 12 (duration), tx_rate_per_s 4, stagger 500
        limit = 2**63 - 1
        assert phase(inflate_manifest(m, Fraction(limit, 500)), "start-proc").stagger_ms == limit
        with pytest.raises(ValueError, match=r"^inflation factor 1e\+400 on timer 'block_time_s': "
                                             r"value must be from 0 to 9223372036854775807, "
                                             r"got 1\.2e\+401$"):
            inflate_manifest(m, Fraction(10**400))
        rate_only = replace(m, timers={"tx_rate_per_s": m.timers["tx_rate_per_s"]})
        with pytest.raises(ValueError, match=r"^inflation factor 1e-400 on timer 'tx_rate_per_s': "
                                             r"value must be from 0 to 9223372036854775807, "
                                             r"got 4e\+400$"):
            inflate_manifest(rate_only, Fraction(1, 10**400))
        untimed = replace(m, timers={})
        with pytest.raises(ValueError, match=r"^inflation factor 3\.33333e\+399 on phase "
                                             r"'start-proc''s stagger: value must be from 0 to "
                                             r"9223372036854775807, got 1\.66667e\+402$"):
            inflate_manifest(untimed, Fraction(10**400, 3))

    def test_a_factor_that_zeroes_a_float_is_refused(self):
        m = manifest_with_timers()
        with pytest.raises(ValueError, match=r"^inflation factor 1e-400 on timer 'block_time_s': "
                                             r"value must be 0 or round to a float above 0, "
                                             r"got 1\.2e-399$"):
            inflate_manifest(m, Fraction(1, 10**400))
        with pytest.raises(ValueError, match=r"^inflation factor 1e-400 on phase 'start-proc''s "
                                             r"stagger: value must be 0 or round to a float above "
                                             r"0, got 5e-398$"):
            inflate_manifest(replace(m, timers={}), Fraction(1, 10**400))
        # 500 ms at 2e-325 is 1e-322 ms, whose float is not 0; in seconds, it is
        with pytest.raises(ValueError, match=r"^inflation factor 2e-325 on phase 'start-proc''s "
                                             r"stagger: in seconds, value must be 0 or round to "
                                             r"a float above 0, got 1e-325$"):
            inflate_manifest(replace(m, timers={}), Fraction(1, 5 * 10**324))

    @pytest.mark.parametrize("value", [Fraction(1, 10**400), Fraction(2**63), Fraction(10**400, 3)])
    def test_inflation_refuses_what_load_refuses_by_the_same_rule(self, value):
        """A timer of `value` fails at load as a timer of 1 inflated by `value` does."""
        def timer(v):
            return parse_manifest(minimal_manifest_dict(timers={"bt": {"value": str(v),
                                                                       "kind": "duration"}}))
        with pytest.raises(ValidationError) as at_load:
            timer(value)
        with pytest.raises(ValueError) as inflated:
            inflate_manifest(timer(1), value)
        rule = str(at_load.value).removeprefix("[timers.bt.value] ")
        assert str(inflated.value) == f"inflation factor {_short(value)} on timer 'bt': {rule}"

    def test_nonpositive_factor_rejected(self):
        m = manifest_with_timers()
        with pytest.raises(ValueError, match="inflation factor must be positive, got 0"):
            inflate_manifest(m, Fraction(0))
        with pytest.raises(ValueError, match="inflation factor must be positive, got -2"):
            inflate_manifest(m, Fraction(-2))
        with pytest.raises(ValueError, match=r"^inflation factor must be positive, got -1e\+400$"):
            inflate_manifest(m, Fraction(-10**400))
