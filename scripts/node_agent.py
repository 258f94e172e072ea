#!/usr/bin/env python3
"""Reference in-container node agent.

Contract: the orchestrator launches each container with a LATEM_NODE_SPEC
environment variable holding JSON:

    {
      "name": "...", "ip": "...",
      "signal_phases": ["start-exec", "start-consensus", ...],
      "processes": [{"binary": "...", "args": [...], "start_phase": "..."}],
      "neighbors": {"<network-role>": ["peer", ...]},
      "timers": {"<timer>": "<value>"}
    }

The agent starts the neighbor-resolution daemon, then blocks. Each SIGUSR1
or SIGUSR2 advances to the next entry of signal_phases and starts every
process registered for that phase; signals past the last phase are ignored.
Processes whose start_phase is not a signal phase are started immediately at
boot. SIGTERM stops everything.

The neighbor lists and timers are written to /run/latem/node.json so the
node software can pick them up without re-parsing the environment.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

RUNTIME_DIR = Path("/run/latem")


def log(message: str) -> None:
    print(f"[node-agent] {message}", flush=True)


def start_process(spec: dict) -> subprocess.Popen:
    argv = [spec["binary"], *spec.get("args", [])]
    log(f"starting {' '.join(argv)}")
    return subprocess.Popen(argv)


def main() -> int:
    raw = os.environ.get("LATEM_NODE_SPEC")
    if not raw:
        log("LATEM_NODE_SPEC is not set; nothing to do")
        return 1
    spec = json.loads(raw)

    RUNTIME_DIR.mkdir(parents=True, exist_ok=True)
    (RUNTIME_DIR / "node.json").write_text(json.dumps(spec, indent=2, sort_keys=True))

    children: list[subprocess.Popen] = []
    # Resolve neighbors locally instead of ARP; keep going if the CLI is absent.
    try:
        children.append(
            subprocess.Popen(["latem", "autoarpd", "--interface", "eth0"])
        )
    except FileNotFoundError:
        log("latem CLI not found; neighbor daemon not started")

    phases = list(spec.get("signal_phases", []))
    by_phase: dict[str, list[dict]] = {}
    for proc in spec.get("processes", []):
        by_phase.setdefault(proc["start_phase"], []).append(proc)

    # Processes bound to non-signal phases start right away.
    for phase, procs in by_phase.items():
        if phase not in phases:
            children.extend(start_process(p) for p in procs)

    # The handlers do nothing: each delivered signal is one byte, its number,
    # on the wakeup pipe, so one blocking read takes the signals in order.
    wakeup, wakeup_w = os.pipe()
    os.set_blocking(wakeup_w, False)
    signal.set_wakeup_fd(wakeup_w)
    for signum in (signal.SIGUSR1, signal.SIGUSR2, signal.SIGTERM):
        signal.signal(signum, lambda *_: None)

    upcoming = iter(phases)
    log(f"ready; waiting for {len(phases)} phase signal(s)")
    while os.read(wakeup, 1)[0] != signal.SIGTERM:
        phase = next(upcoming, None)
        if phase is not None:
            log(f"phase {phase}")
            children.extend(start_process(p) for p in by_phase.get(phase, []))

    log("stopping children")
    for child in children:
        child.terminate()
    for child in children:
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
    return 0


if __name__ == "__main__":
    sys.exit(main())
