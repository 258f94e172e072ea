"""The container-runtime adapter: runs plan lines on the host.

An adapter runs a plan step's lines in order (`run_batch`) and reports each
line's outcome. Every apply step goes through it, the interface gather
included. Plan lines are already full `docker ...` / `tc ...` / `nft ...`
commands. Test doubles live with the tests.
"""

from __future__ import annotations

import contextlib
import os
import re
import shlex
import signal
import subprocess
from dataclasses import dataclass
from itertools import groupby
from typing import Protocol, Sequence


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    stdout: str = ""
    stderr: str = ""

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


class RuntimeAdapter(Protocol):
    def run_batch(self, lines: Sequence[str]) -> list[CommandResult]:
        """Run lines in order and stop at the first that fails.

        Returns one result per line run: all of them, or up to and including
        the failing one, which is then the last.
        """
        ...


# Tools whose own batch mode replaces one process per line: the argv that
# reads the batch from stdin, and how the tool names the failing batch line.
_BATCH_TOOLS = {
    "tc": (("tc", "-batch", "-"), re.compile(r"Command failed \S*:(\d+)")),
    "nft": (("nft", "-f", "-"), re.compile(r":(\d+):\d+(?:-\d+)?: Error")),
}
# Lines whose words the shell passes on unchanged: no quotes, expansions,
# globs, redirections or operators, only the `\;` escape of nft lines. For
# these, shell word splitting is whitespace splitting with `\;` read as `;`.
_PLAIN_LINE = re.compile(r"(?:[\w.,:/@%+={} -]|\\;)*")
# A tc batch holds one device's lines, so each interface's tree is one batch.
_TC_DEV = re.compile(r" dev +(\S+)")


def _batch_key(line: str) -> tuple[str, str | None] | None:
    """The tool and, for tc, the device of a batch line; None for shell lines."""
    tool = line.partition(" ")[0]
    if tool not in _BATCH_TOOLS or not _PLAIN_LINE.fullmatch(line):
        return None
    dev = _TC_DEV.search(line) if tool == "tc" else None
    return tool, dev.group(1) if dev else None


def _spawn(argv: Sequence[str], stdin: str | None, timeout_s: float) -> CommandResult:
    """Run argv in its own process group; on timeout or interrupt kill the
    whole group (the tool and anything it started) and re-raise."""
    with subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(stdin, timeout=timeout_s)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    return CommandResult(proc.returncode, out, err)


class ShellAdapter:
    """Executes plan lines on the host. Apply mode only.

    `run_batch` splits a step's lines into runs of the same kind and starts
    one process per run: plain `tc` lines go to `tc -batch -`, one process
    per run of lines on the same `dev`, and plain `nft` lines to `nft -f -`
    (atomic), each line as the argv words the shell would have passed, less
    the tool name; every other line runs in one `/bin/sh`, each in its own
    subshell, so `cd`, variables and `exit` do not carry over to the next
    line. A batch tool's stdout and stderr go with the last line it ran.

    `timeout_s` bounds one line; a batch gets `timeout_s` per line. On expiry
    the process group is killed and `subprocess.TimeoutExpired` propagates.
    """

    def __init__(self, timeout_s: float = 600.0):
        self.timeout_s = timeout_s

    def run(self, command: str) -> CommandResult:
        """Pass one line to `/bin/sh -c`.

        latem itself only calls `run_batch`. This form stays for the
        benchmark: `perfbench/worker.py` runs the preflight lines with it and
        `perfbench/tracer.py` wraps it.
        """
        return _spawn(["/bin/sh", "-c", command], None, self.timeout_s)

    def run_batch(self, lines: Sequence[str]) -> list[CommandResult]:
        results: list[CommandResult] = []
        for key, group in groupby(lines, key=_batch_key):
            group = list(group)
            got = self._tool_batch(key[0], group) if key else self._shell_batch(group)
            results.extend(got)
            if len(got) < len(group) or not got[-1].ok:
                break
        return results

    def _tool_batch(self, tool: str, lines: list[str]) -> list[CommandResult]:
        argv, failed_line = _BATCH_TOOLS[tool]
        text = "".join(" ".join(line.replace("\\;", ";").split()[1:]) + "\n" for line in lines)
        try:
            result = _spawn(argv, text, self.timeout_s * len(lines))
        except FileNotFoundError as exc:
            return [CommandResult(127, "", f"{tool}: {exc.strerror}")]
        if result.ok:
            return [CommandResult(0)] * (len(lines) - 1) + [result]
        # Unlocated failures are charged to the first line: none is known
        # to have been applied.
        located = [int(n) for n in failed_line.findall(result.stderr)]
        k = min((n for n in located if 0 < n <= len(lines)), default=1)
        return [CommandResult(0)] * (k - 1) + [result]

    def _shell_batch(self, lines: list[str]) -> list[CommandResult]:
        # After each line, a marker on both streams splits the output and
        # carries the line's exit status; a failing line ends the script.
        marker = f"latem-{os.urandom(8).hex()}"
        script = (
            f"latem_mark() {{ s=$?; printf '\\n%s\\n' {marker}; "
            f"printf '\\n%s %d\\n' {marker} $s >&2; [ $s -eq 0 ] || exit $s; }}\n"
        ) + "".join(f"(eval {shlex.quote(line)}) </dev/null; latem_mark\n" for line in lines)
        result = _spawn(["/bin/sh", "-s"], script, self.timeout_s * len(lines))
        outs = result.stdout.split(f"\n{marker}\n")
        errs = re.split(rf"\n{marker} (\d+)\n", result.stderr)
        results = [
            CommandResult(int(status), out, err)
            for out, err, status in zip(outs, errs[0::2], errs[1::2])
        ]
        if len(results) < len(lines) and (not results or results[-1].ok):
            # The shell itself died inside a line.
            results.append(CommandResult(result.exit_code or 1, outs[-1], errs[-1]))
        return results
