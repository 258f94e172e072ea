"""The reference node agent (`scripts/node_agent.py`) run as a process.

Each test starts the agent through `python -c` with its runtime directory
under `tmp_path` and a PATH that holds no `latem`, so it starts no neighbor
daemon. Each phase starts one small Python program that writes a marker
file holding its pid, and a `.term` file when SIGTERM reaches it.
Signals are sent only after the agent's `ready` line, and every wait is
bounded.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
WAIT_S = 10

AGENT = (
    "import pathlib, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import node_agent\n"
    "node_agent.RUNTIME_DIR = pathlib.Path(sys.argv[2])\n"
    "sys.exit(node_agent.main())\n"
)

CHILD = (
    "import os, pathlib, signal, sys, time\n"
    "marker = pathlib.Path(sys.argv[1])\n"
    "def stop(*_):\n"
    "    marker.with_suffix('.term').write_text('')\n"
    "    sys.exit(0)\n"
    "signal.signal(signal.SIGTERM, stop)\n"
    "marker.write_text(str(os.getpid()))\n"
    f"time.sleep({WAIT_S * 3})\n"
)


class Agent:
    """One agent process, its stdout lines and its phase markers."""

    def __init__(self, tmp_path: Path, phases: list[str]):
        self.markers = tmp_path / "markers"
        self.markers.mkdir()
        child = tmp_path / "child.py"
        child.write_text(CHILD)
        spec = {
            "name": "node000",
            "ip": "10.0.0.1",
            "signal_phases": phases,
            "processes": [
                {"binary": sys.executable,
                 "args": [str(child), str(self.markers / f"{phase}.pid")],
                 "start_phase": phase}
                for phase in phases
            ],
            "neighbors": {},
            "timers": {},
        }
        empty = tmp_path / "bin"
        empty.mkdir()
        env = {**os.environ, "LATEM_NODE_SPEC": json.dumps(spec), "PATH": str(empty)}
        self.proc = subprocess.Popen(
            [sys.executable, "-c", AGENT, str(SCRIPTS), str(tmp_path / "run")],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        self.lines: queue.Queue[str] = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.strip())

    def wait_line(self, start: str) -> str:
        """The agent's next log line, which must begin with `start`."""
        line = self.lines.get(timeout=WAIT_S)
        assert line.startswith(f"[node-agent] {start}"), line
        return line

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def wait_marker(self, phase: str) -> None:
        path = self.markers / f"{phase}.pid"
        deadline = time.monotonic() + WAIT_S
        while not (path.exists() and path.read_text()):
            assert self.proc.poll() is None, f"agent exited {self.proc.returncode}"
            assert time.monotonic() < deadline, f"phase {phase} did not start"
            time.sleep(0.02)

    def started(self) -> list[str]:
        return sorted(p.stem for p in self.markers.glob("*.pid"))

    def stop(self) -> int:
        self.signal(signal.SIGTERM)
        return self.proc.wait(timeout=WAIT_S)

    def phases_logged(self) -> list[str]:
        """After the agent and its children are gone: the phases it logged."""
        self.reader.join(timeout=WAIT_S)
        assert not self.reader.is_alive()
        lines = [self.lines.get_nowait() for _ in range(self.lines.qsize())]
        assert lines[-1] == "[node-agent] stopping children", lines
        return [line.split()[-1] for line in lines if line.startswith("[node-agent] phase ")]

    def cleanup(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=WAIT_S)
        for marker in self.markers.glob("*.pid"):
            try:
                os.kill(int(marker.read_text()), signal.SIGKILL)
            except (ValueError, ProcessLookupError):
                pass
        self.reader.join(timeout=WAIT_S)
        self.proc.stdout.close()


@pytest.fixture
def agent(tmp_path):
    started: list[Agent] = []

    def start(phases: list[str]) -> Agent:
        started.append(Agent(tmp_path, phases))
        started[-1].wait_line("latem CLI not found")
        started[-1].wait_line("ready")
        return started[-1]

    yield start
    for a in started:
        a.cleanup()


def test_sigusr1_then_sigusr2_each_start_their_phase(agent):
    a = agent(["start-nodes", "start-load"])
    a.signal(signal.SIGUSR1)
    a.wait_marker("start-nodes")
    assert a.started() == ["start-nodes"]
    a.signal(signal.SIGUSR2)
    a.wait_marker("start-load")
    assert a.stop() == 0
    assert a.phases_logged() == ["start-nodes", "start-load"]


def test_back_to_back_sigusr1_and_sigusr2_start_both_phases(agent):
    a = agent(["start-nodes", "start-load"])
    a.signal(signal.SIGUSR1)
    a.signal(signal.SIGUSR2)
    a.wait_marker("start-nodes")
    a.wait_marker("start-load")
    assert a.stop() == 0
    assert a.phases_logged() == ["start-nodes", "start-load"]


def test_a_signal_after_the_last_phase_starts_nothing(agent):
    a = agent(["start-nodes"])
    a.signal(signal.SIGUSR1)
    a.wait_marker("start-nodes")
    a.signal(signal.SIGUSR2)
    a.signal(signal.SIGUSR1)
    assert a.stop() == 0
    assert a.started() == ["start-nodes"]
    assert a.phases_logged() == ["start-nodes"]


def test_sigterm_terminates_the_children_and_exits_zero(agent):
    a = agent(["start-nodes", "start-load"])
    a.signal(signal.SIGUSR1)
    a.wait_marker("start-nodes")
    assert a.stop() == 0
    assert (a.markers / "start-nodes.term").exists()
    assert a.started() == ["start-nodes"]
    assert a.phases_logged() == ["start-nodes"]
