"""The container-runtime adapter: runs plan lines on the host.

An adapter runs a plan step's lines in order (`run_batch`) and reports each
line's outcome. Every apply step goes through it, the interface gather
included. Plan lines are already full `docker ...` / `tc ...` / `nft ...`
commands. The caller names the tool whose batch mode takes the lines (the
nft and tc steps); any other lines run as they are, in one shell. The
adapter holds no rule about a line's shell syntax: the caller sends each
line in the form it is to run in. Test doubles live with the tests.
"""

from __future__ import annotations

import contextlib
import os
import re
import select
import signal
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    stdout: str = ""
    stderr: str = ""
    line: str = ""  # the plan line, once `execute` reports it

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


class RuntimeAdapter(Protocol):
    def run_batch(self, lines: Sequence[str], tool: str | None = None) -> list[CommandResult]:
        """Run lines in order and stop at the first that fails.

        With a `tool` ("nft" or "tc"), every line is one of that tool's plan
        lines and goes to its batch mode; without one, the lines are shell
        lines. Returns one result per line run: all of them, or up to and
        including the failing one, which is then the last.
        """
        ...


# Tools whose own batch mode replaces one process per line: the argv that
# reads the batch from stdin, and how the tool names the failing batch line.
_BATCH_TOOLS = {
    "tc": (("tc", "-batch", "-"), re.compile(r"Command failed \S*:(\d+)")),
    "nft": (("nft", "-f", "-"), re.compile(r":(\d+):\d+(?:-\d+)?: Error")),
}
# The wait for one line; a batch waits this long per line it holds.
LINE_TIMEOUT_S = 600


def _spawn(argv: Sequence[str], stdin: Iterable[str] | None, timeout_s: float) -> CommandResult:
    """Run argv in its own process group and wait for it to exit.

    stdin is written piece by piece to a temporary file (None: /dev/null);
    stdout and stderr go to temporary files, read once the process exits
    and decoded as `text=True` decodes a pipe: locale encoding, universal
    newlines. No pipe joins latem to the tool, so children the tool leaves
    behind do not hold up the wait. On timeout or interrupt the whole group
    (the tool and anything it started) is killed and reaped, and the
    exception propagates.
    """
    with contextlib.ExitStack() as files:
        source = subprocess.DEVNULL
        if stdin is not None:
            source = files.enter_context(tempfile.TemporaryFile("w+"))
            source.writelines(stdin)
            source.seek(0)
        out = files.enter_context(tempfile.TemporaryFile("w+"))
        err = files.enter_context(tempfile.TemporaryFile("w+"))
        proc = subprocess.Popen(argv, stdin=source, stdout=out, stderr=err,
                                start_new_session=True)
        try:
            # One wake-up when the process exits (pidfd_open: Linux 5.3).
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited = select.select([pidfd], [], [], timeout_s)[0]
            finally:
                os.close(pidfd)
            if not exited:
                raise subprocess.TimeoutExpired(argv, timeout_s)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        proc.wait()
        out.seek(0)
        err.seek(0)
        return CommandResult(proc.returncode, out.read(), err.read())


class ShellAdapter:
    """Executes plan lines on the host. Apply mode only.

    `run_batch` starts one process per call. With a tool, the lines go to
    `tc -batch -` or `nft -f -` (atomic), each as it is, less the tool name
    and with `\\;` read as `;`; the tool splits it at whitespace into the
    argv words the shell would have passed, and its stdout and stderr go
    with the last line it ran. Without one, the lines run as written in one
    `/bin/sh`, which reads them from a temporary file named as its argument,
    stdin `/dev/null`, so no line can read the script. A line that could
    `cd`, set a variable, `exit` or leave a quote open comes in a subshell
    (`execute` wraps each host-script line so).

    A batch ends when its process exits: a background job that a line
    leaves running does not hold up the step, and keeps running after it.

    A batch gets LINE_TIMEOUT_S per line. On expiry the process group is
    killed, background jobs included, and `subprocess.TimeoutExpired`
    propagates.
    """

    def run(self, command: str) -> CommandResult:
        """Pass one line to `/bin/sh -c`.

        latem itself only calls `run_batch`. This form stays for the
        benchmark: `perfbench/worker.py` runs the preflight lines with it and
        `perfbench/tracer.py` wraps it.
        """
        return _spawn(["/bin/sh", "-c", command], None, LINE_TIMEOUT_S)

    def run_batch(self, lines: Sequence[str], tool: str | None = None) -> list[CommandResult]:
        if not lines:
            return []
        return self._tool_batch(tool, lines) if tool else self._shell_batch(lines)

    def _tool_batch(self, tool: str, lines: Sequence[str]) -> list[CommandResult]:
        argv, failed_line = _BATCH_TOOLS[tool]
        batch = (line.partition(" ")[2].replace("\\;", ";") + "\n" for line in lines)
        try:
            result = _spawn(argv, batch, LINE_TIMEOUT_S * len(lines))
        except FileNotFoundError as exc:
            return [CommandResult(127, "", f"{tool}: {exc.strerror}")]
        if result.ok:
            return [CommandResult(0)] * (len(lines) - 1) + [result]
        # Unlocated failures are charged to the first line: none is known
        # to have been applied.
        located = [int(n) for n in failed_line.findall(result.stderr)]
        k = min((n for n in located if 0 < n <= len(lines)), default=1)
        return [CommandResult(0)] * (k - 1) + [result]

    def _shell_batch(self, lines: Sequence[str]) -> list[CommandResult]:
        # After each line, a marker on both streams splits the output and
        # carries the line's exit status; a failing line ends the script.
        marker = f"latem-{os.urandom(8).hex()}"
        with tempfile.NamedTemporaryFile("w", prefix="latem-", suffix=".sh") as script:
            script.write(f"latem_mark() {{ s=$?; printf '\\n%s\\n' {marker}; "
                         f"printf '\\n%s %d\\n' {marker} $s >&2; [ $s -eq 0 ] || exit $s; }}\n")
            script.writelines(f"{line}\nlatem_mark\n" for line in lines)
            script.flush()
            result = _spawn(["/bin/sh", script.name], None, LINE_TIMEOUT_S * len(lines))
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
