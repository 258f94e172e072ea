"""Runtime adapters for tests: a spy, a fault injector and a tc parent model.

Each one runs single lines through `run`; `run_batch` loops over `run` and
stops at the first failing line, which is the contract `ShellAdapter` keeps
with its batch processes. The tool a batch is for (`run_batch`'s `tool`)
changes only which process `ShellAdapter` starts, so these ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from latem.adapters import CommandResult


def run_each(adapter, lines: Sequence[str]) -> list[CommandResult]:
    results = []
    for line in lines:
        results.append(adapter.run(line))
        if not results[-1].ok:
            break
    return results


@dataclass
class RecordingAdapter:
    """Succeeds at everything, remembers every command (a spy)."""

    calls: list[str] = field(default_factory=list)
    stdout_for: Callable[[str], str] | None = None

    def run(self, command: str) -> CommandResult:
        self.calls.append(command)
        out = self.stdout_for(command) if self.stdout_for else ""
        return CommandResult(0, out)

    def run_batch(self, lines: Sequence[str],
                  tool: str | None = None) -> list[CommandResult]:
        return run_each(self, lines)


@dataclass
class ScriptedAdapter:
    """Replays outcomes by predicate; unmatched commands succeed.

    `failures` maps a substring to an exit code: the first command containing
    the substring fails with that code. `responses` maps a substring to
    canned stdout.
    """

    failures: dict[str, int] = field(default_factory=dict)
    responses: dict[str, str] = field(default_factory=dict)
    calls: list[str] = field(default_factory=list)

    def run(self, command: str) -> CommandResult:
        self.calls.append(command)
        for needle, code in self.failures.items():
            if needle in command:
                return CommandResult(code, "", f"scripted failure for {needle!r}")
        for needle, out in self.responses.items():
            if needle in command:
                return CommandResult(0, out)
        return CommandResult(0, "")

    def run_batch(self, lines: Sequence[str],
                  tool: str | None = None) -> list[CommandResult]:
        return run_each(self, lines)


def scripted_gather_adapter(fail_on: dict[str, int] | None = None) -> ScriptedAdapter:
    """A `ScriptedAdapter` answering the gather of `minimal_manifest_dict`'s two nodes."""
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


class ParentCheckingAdapter:
    """A model of the kernel's tc parent rule.

    `tc qdisc add` and `tc filter add` with `parent X:Y` fail unless a qdisc
    with handle `X:` already exists on the same device; a qdisc's `handle`
    (or `root handle`) creates it. Every other line succeeds.
    """

    def __init__(self) -> None:
        self.handles: dict[str, set[str]] = {}

    def run(self, command: str) -> CommandResult:
        words = command.split()
        if words[:1] != ["tc"] or "add" not in words or "dev" not in words:
            return CommandResult(0)
        opts = dict(zip(words, words[1:]))
        dev = opts["dev"]
        existing = self.handles.setdefault(dev, set())
        parent = opts.get("parent")
        if parent is not None and parent.split(":")[0] not in existing:
            return CommandResult(2, "", f"Error: parent {parent} not found on {dev}")
        if words[1] == "qdisc" and "handle" in opts:
            existing.add(opts["handle"].rstrip(":"))
        return CommandResult(0)

    def run_batch(self, lines: Sequence[str],
                  tool: str | None = None) -> list[CommandResult]:
        return run_each(self, lines)
