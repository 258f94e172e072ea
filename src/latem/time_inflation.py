"""Global time inflation and the TCP initial-RTO override.

Inflating every time-bearing quantity by a factor x stretches the experiment
x-fold while cutting instantaneous CPU load by the same factor. Three things
must scale together: the delay matrix, the tagged manifest timers (durations
multiply, rates divide), and the kernel's TCP retransmission behavior. The
initial retransmission timeout is a compiled-in kernel constant (1 second),
so once one-way delays exceed half of it, connection handshakes retransmit
spuriously; a small sock_ops BPF program loaded with bpftool overrides that
initial value per new connection without rebuilding the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import PurePosixPath
from typing import TYPE_CHECKING

from .errors import InflationLintError
from .script import CommandScript

if TYPE_CHECKING:  # `gen-bpf` needs neither the manifest nor the delay model
    from .manifest import ExperimentManifest

DEFAULT_OBJ_NAME = "tcp-rto.o"
DEFAULT_PINNED_PATH = "/sys/fs/bpf/tcp-rto"
DEFAULT_CGROUP_PATH = "/sys/fs/cgroup"


def inflate_manifest(m: ExperimentManifest, x: Fraction) -> ExperimentManifest:
    """Scale every tagged time-bearing quantity by the positive factor x.

    Durations (block time, intervals, phase stagger) multiply; rates divide;
    the delay section's inflation factor, which only this sets, accumulates,
    and `quantize` scales each matrix entry by it. A factor that takes a
    timer value or a stagger (in ms or in seconds) out of `render_number`'s
    rule, which a manifest's own values keep, is refused. Any untagged timer
    fails the lint: a timer that silently keeps wall-clock speed while
    everything else slows down corrupts the experiment, so this fails closed.
    """
    from .delay_model import _short
    from .manifest import TimerSpec, writable

    def scaled(value: Fraction, what: str, unit: int = 1) -> Fraction:
        try:
            return writable(value, unit)
        except ValueError as exc:
            raise ValueError(f"inflation factor {_short(x)} on {what}: {exc}")

    if x <= 0:
        raise ValueError(f"inflation factor must be positive, got {_short(x)}")
    untagged = sorted(name for name, t in m.timers.items() if t.kind is None)
    if untagged:
        raise InflationLintError(
            f"timers {untagged} carry no inflation kind (duration|rate); "
            "tag them before inflating"
        )
    timers = {
        name: TimerSpec(scaled(t.value * x if t.kind == "duration" else t.value / x,
                               f"timer {name!r}"), t.kind)
        for name, t in m.timers.items()
    }
    phases = tuple(replace(p, stagger_ms=scaled(p.stagger_ms * x, f"phase {p.name!r}'s stagger",
                                                1000)) for p in m.phases)
    delay = m.delay
    if delay is not None:
        delay = replace(delay, inflation_factor=delay.inflation_factor * x)
    return replace(m, timers=timers, phases=phases, delay=delay)


def recommend_rto(max_one_way_delay_ms: int) -> int:
    """Smallest whole-second timeout strictly above one round trip.

    A handshake retransmits spuriously when the initial timeout is not
    strictly greater than twice the one-way delay; at the kernel default of
    one second that happens from 500 ms one-way upward.
    """
    if max_one_way_delay_ms < 0:
        raise ValueError(f"delay must be non-negative, got {max_one_way_delay_ms}")
    return max(1, (2 * max_one_way_delay_ms) // 1000 + 1)


@dataclass(frozen=True)
class BpfRtoConfig:
    """Initial-RTO override: timeout in seconds and the host kernel's HZ.

    HZ must be read from the host (`grep 'CONFIG_HZ=' /boot/config-$(uname -r)`),
    never guessed: the hook's reply is denominated in jiffies.
    """

    timeout_s: int
    hz: int

    def __post_init__(self) -> None:
        if self.timeout_s < 1:
            raise ValueError(f"timeout_s must be >= 1, got {self.timeout_s}")
        if self.hz < 1:
            raise ValueError(f"hz must be >= 1, got {self.hz}")
        if self.timeout_s * self.hz > 0x7FFFFFFF:
            raise ValueError(
                f"timeout_s*hz = {self.timeout_s * self.hz} overflows a 32-bit reply"
            )


_BPF_SOURCE_TEMPLATE = """\
#include <linux/bpf.h>

#ifndef __section
# define __section(NAME)     \\
__attribute__((section(NAME), used))
#endif

__section("sockops")
int set_initial_rto(struct bpf_sock_ops *skops)
{{
	const int timeout = {timeout}; // initial RTO timeout in seconds
	const int hz = {hz}; // this value has to match the HZ value of the system

	int op = (int) skops->op;
	if (op == BPF_SOCK_OPS_TIMEOUT_INIT) {{
		skops->reply = timeout * hz;
		return 1;
	}}

	return 1;
}}

char _license[] __section("license") = "GPL";
"""

def render_bpf_source(config: BpfRtoConfig) -> str:
    """The sock_ops override program with the two constants substituted.

    Everything else, including the section annotations and the GPL license
    string the verifier requires, is fixed text.
    """
    return _BPF_SOURCE_TEMPLATE.format(timeout=config.timeout_s, hz=config.hz)


@dataclass(frozen=True)
class BpfCommandScripts:
    load: CommandScript
    unload: CommandScript


def emit_bpf_commands(
    obj_name: str = DEFAULT_OBJ_NAME,
    pinned_path: str = DEFAULT_PINNED_PATH,
    cgroup_path: str = DEFAULT_CGROUP_PATH,
) -> BpfCommandScripts:
    """Compile/load/attach and detach/remove command sequences.

    Attach and detach name the program by its pin (bpftool-cgroup(8) takes
    `pinned FILE` wherever it takes a program), so no line needs the ID
    the kernel assigns at load. The detach runs while the pin still exists.
    """
    if not obj_name or not pinned_path or not cgroup_path:
        raise ValueError("obj_name, pinned_path, and cgroup_path must be non-empty")
    source_name = str(PurePosixPath(obj_name).with_suffix(".c"))
    load = CommandScript(
        lines=(
            f"clang -O2 -target bpf -c {source_name} -o {obj_name}",
            f"bpftool prog load {obj_name} {pinned_path}",
            f"bpftool cgroup attach {cgroup_path} sock_ops pinned {pinned_path}",
        ),
    )
    unload = CommandScript(
        lines=(
            f"bpftool cgroup detach {cgroup_path} sock_ops pinned {pinned_path}",
            f"rm {pinned_path}",
        ),
    )
    return BpfCommandScripts(load=load, unload=unload)
