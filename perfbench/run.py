#!/usr/bin/env python3
"""latem benchmark: three seeded workloads through latem's CLI and API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a latem checkout; it imports latem from `src/` there
and fails when that is missing. Inputs are generated from the seed (the
program only sees the generated files), the workload's chain is run and
timed until S seconds have been measured (at least once), and every output
is checked by the harness's own code. The last stdout line is one JSON
object: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the chain runs once
untraced and once with every layer function wrapped (see tracer.py), and the
metrics are per-layer self times and counts plus the tracing overhead.
Process wall times are reported at a reference CPU speed (see Speedometer).

Workloads (see README.md for why each was chosen):
  plan-mesh-750  3997-node long-tailed matrix -> plan-delays --count 750,
                 emit-nft, emit-tc, verify_plan.
  dryrun-1000    latem run --dry-run --inflate 2 on a 1000-node manifest.
  apply-stub-64  build_startup_plan + execute(apply) through ShellAdapter on a
                 64-node manifest, stub tools on PATH, then an autoarpd burst.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
from worker import FIRST_IFINDEX  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
PROC_TIMEOUT_S = 170
SETUP_SAMPLES = 9
# Speed sampling (see Speedometer): the reference loop's length, its time at
# the reference speed by definition, and the pause between samples.
SPEED_LOOP = 30_000
SPEED_NOMINAL_S = 0.002
SPEED_PERIOD_S = 0.04
SYSCTL_QUERY = re.compile(r"sysctl -n ([\w.]+)")
STUB_TOOLS = ("docker", "tc", "nft", "ip", "bridge", "sysctl", "sleep")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "emitted_mib": "MiB",
    "kernel_objects": "count",
    "ok_frac": "ratio",
}

PER_LAYER = {
    **{f"{name}_s": "s" for name in tracer.SPAN_NAMES},
    **{name: "count" for name in tracer.COUNT_NAMES},
    "adapters.run_p50_ms": "ms",
    "adapters.run_p99_ms": "ms",
    "adapters.child_cpu_s": "s",
    "adapters.tool_spawns": "count",
    "preflight.failed_lines": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


# --- processes --------------------------------------------------------------


def reference_loop() -> int:
    total = 0
    for i in range(SPEED_LOOP):
        total += i * i % 7
    return total


class Speedometer:
    """Samples the speed of the CPU the timed processes run on.

    The host's CPUs change speed by 20-35% within seconds and minutes (noisy
    neighbours), and the two CPUs do so independently. So the harness pins
    itself and its children to one CPU, and while a process runs, this thread
    runs a fixed loop every SPEED_PERIOD_S on that CPU and times it with its
    own CPU clock. The mean loop time over the process's life gives the
    CPU's speed over that interval, so `at_reference` turns a wall time into
    the time it would take at the reference speed (the loop taking
    SPEED_NOMINAL_S). The sampler's own CPU time is taken out of the wall
    time first. A change in latem moves the result as it moves the wall time;
    a change in the host's speed largely does not.
    """

    def __enter__(self) -> "Speedometer":
        self.samples: list[float] = []
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._sample, daemon=True)
        self.thread.start()
        return self

    def _sample(self) -> None:
        while True:
            start = time.thread_time()
            reference_loop()
            self.samples.append(time.thread_time() - start)
            if self.stop.wait(SPEED_PERIOD_S):
                return

    def __exit__(self, *exc) -> None:
        self.stop.set()
        self.thread.join()

    def at_reference(self, wall: float) -> float:
        return (wall - sum(self.samples)) * SPEED_NOMINAL_S / statistics.fmean(self.samples)


@dataclass
class Proc:
    exit_code: int
    wall_s: float
    ref_wall_s: float
    maxrss_kib: int
    cpu_s: float
    stderr: str


def python_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def run_proc(argv: list, cwd: Path, env: dict | None = None) -> Proc:
    """Run one process to completion; wall time, also at reference speed, and
    its own peak RSS (wait4)."""
    err_path = cwd / f".stderr-{time.monotonic_ns()}"
    with open(err_path, "w") as err, Speedometer() as speed:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, env=env or python_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        killer = threading.Timer(PROC_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text()
    err_path.unlink()
    return Proc(proc.returncode, wall, speed.at_reference(wall), usage.ru_maxrss,
                usage.ru_utime + usage.ru_stime, stderr)


def latem_cli(args: list, cwd: Path, trace_file: Path | None) -> Proc:
    if trace_file is None:
        return run_proc([sys.executable, "-m", "latem.cli", *args], cwd)
    return run_proc([sys.executable, BENCH / "worker.py", "--trace", trace_file, "cli", *args],
                    cwd)


def worker(args: list, cwd: Path, trace_file: Path | None, env: dict | None = None) -> Proc:
    trace = ["--trace", trace_file] if trace_file is not None else []
    return run_proc([sys.executable, BENCH / "worker.py", *trace, *args], cwd, env)


def measure_setup(cwd: Path) -> list[Proc]:
    """Fresh interpreter start plus `import latem.cli`; the first run warms the caches."""
    argv = [sys.executable, "-c", "import latem.cli"]
    procs = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = run_proc(argv, cwd)
        if proc.exit_code != 0:
            raise SystemExit(f"importing latem.cli failed:\n{proc.stderr}")
        procs.append(proc)
    return procs[1:]


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# --- one timed chain ----------------------------------------------------------


@dataclass
class Iteration:
    wall_s: float
    ref_wall_s: float
    rss_kib: int
    emitted_bytes: int
    kernel_objects: int
    digest: str
    attempted: int
    failed: int
    errors: list[str]
    cpu_s: float = 0.0
    traces: list[dict] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def tally(procs: list[Proc], results: dict[str, list[str]]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed for processes and named checks."""
    errors = [f"process exited {p.exit_code}: {p.stderr.strip()[-300:]}"
              for p in procs if p.exit_code != 0]
    failed_checks = 0
    for name, errs in results.items():
        if errs:
            failed_checks += 1
            errors += [f"{name}: {e}" for e in errs]
    failed = sum(p.exit_code != 0 for p in procs) + failed_checks
    return len(procs) + len(results), failed, errors


def guard(check, *args) -> list[str]:
    """Run one output check; malformed output that makes it raise fails it."""
    try:
        return check(*args)
    except Exception as exc:  # a crash in a check is a failed check, not a lost run
        return [f"check raised {traceback.format_exception_only(exc)[-1].strip()}"]


def load_traces(trace_dir: Path | None) -> list[dict]:
    if trace_dir is None:
        return []
    return [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]


class PlanMesh:
    name = "plan-mesh-750"
    SIZES = {"full": (3997, 750), "toy": (60, 24)}  # matrix nodes, deployment nodes

    def __init__(self, size: str):
        self.matrix_n, self.count = self.SIZES[size]

    def prepare(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.matrix = work / "matrix.txt"
        full = inputs.lognormal_tenths(self.matrix_n, seed)
        inputs.write_matrix(self.matrix, full)
        # latem's subsample: seeded draw without replacement, ascending indices.
        idx = np.sort(np.random.default_rng(seed).choice(self.matrix_n, self.count,
                                                         replace=False))
        self.q = checks.quantize(full[np.ix_(idx, idx)])
        self.ips = inputs.allocate_ips("10.1.0.1", self.count)
        self.delays = checks.class_delays(self.q)

    def chain(self, out: Path, trace_dir: Path | None, check: bool) -> Iteration:
        def tf(k: str) -> Path | None:
            return trace_dir / f"{k}.json" if trace_dir else None

        classes, nft, tc, result = (out / n for n in
                                    ("classes.json", "nft.sh", "tc.sh", "verify.json"))
        start = time.perf_counter()
        procs = [latem_cli(["plan-delays", "--matrix", self.matrix, "--count", self.count,
                            "--seed", self.seed, "--out", classes], out, tf("1-plan"))]
        procs.append(latem_cli(["emit-nft", "--classes", classes, "--out", nft], out,
                               tf("2-nft")))
        procs.append(latem_cli(["emit-tc", "--classes", classes, "--veth", "vethbench0",
                                "--out", tc], out, tf("3-tc")))
        procs.append(worker(["verify", classes, nft, tc, result], out, tf("4-verify")))
        wall = time.perf_counter() - start

        results: dict[str, list[str]] = {}
        verified = json.loads(result.read_text()) if result.exists() else {}
        if check and all(p.exit_code == 0 for p in procs[:3]):
            nft_lines = nft.read_text().splitlines()
            tc_lines = tc.read_text().splitlines()
            results["class map"] = guard(checks.check_class_map,
                                         json.loads(classes.read_text()), self.ips, self.q)
            results["nft"] = guard(checks.check_nft, nft_lines, self.ips, self.q)
            results["tc"] = guard(checks.check_tc, tc_lines, dict(enumerate(self.delays, 1)))
            objects = checks.kernel_objects(nft_lines + tc_lines)
        else:
            objects = 0
        pairs = int(np.count_nonzero(np.triu(self.q, 1)))
        results["verify_plan"] = [] if verified.get("ok") and \
            verified.get("pairs_checked") == 2 * pairs else [f"verify_plan reported {verified}"]
        attempted, failed, errors = tally(procs, results)
        mismatches = verified.get("mismatches", 0)
        outputs = [p for p in (classes, nft, tc) if p.exists()]
        return Iteration(
            wall_s=wall,
            ref_wall_s=sum(p.ref_wall_s for p in procs),
            rss_kib=max(p.maxrss_kib for p in procs),
            emitted_bytes=sum(p.stat().st_size for p in outputs),
            kernel_objects=objects,
            digest=digest(outputs),
            attempted=attempted + verified.get("pairs_checked", 0),
            failed=failed + mismatches,
            errors=errors,
            cpu_s=sum(p.cpu_s for p in procs),
            traces=load_traces(trace_dir),
            extra={"classes": len(self.delays), "pairs": pairs},
        )


class _Deployment:
    """Shared input generation for the two manifest-driven workloads."""

    # size -> nodes, nws ring degree, gossip degree, per-node startup and
    # steady RAM fractions (the batch sizes follow from these)
    SIZES: dict[str, tuple[int, int, int, str, str]] = {}
    lo_ms = hi_ms = 0.0
    ip_base = ""
    inflate = 1

    def __init__(self, size: str):
        self.n, self.nws_k, self.gossip, self.startup, self.steady = self.SIZES[size]

    def prepare(self, work: Path, seed: int) -> None:
        self.seed = seed
        tenths = inputs.uniform_tenths(self.n, self.lo_ms, self.hi_ms, seed)
        inputs.write_matrix(work / "matrix.txt", tenths)
        self.manifest = inputs.manifest(self.n, self.ip_base, seed, "matrix.txt", self.nws_k,
                                        self.gossip, self.startup, self.steady)
        self.manifest_path = work / "manifest.json"
        inputs.write_manifest(self.manifest_path, self.manifest)
        self.ips = [node["ip"] for node in self.manifest["nodes"]]
        self.q = checks.quantize(tenths, inflate=self.inflate)
        self.delays = checks.class_delays(self.q)


class DryRun(_Deployment):
    name = "dryrun-1000"
    SIZES = {"full": (1000, 8, 6, "1/500", "1/2000"), "toy": (40, 4, 4, "1/20", "1/80")}
    lo_ms, hi_ms = 2.5, 200.0  # 5-400 ms after the 2x inflation
    ip_base = "10.2.0.1"
    inflate = 2

    def chain(self, out: Path, trace_dir: Path | None, check: bool) -> Iteration:
        plan_dir = out / "plan"
        start = time.perf_counter()
        proc = latem_cli(["run", "--manifest", self.manifest_path, "--dry-run", "--inflate",
                          self.inflate, "--out", plan_dir], out,
                         trace_dir / "run.json" if trace_dir else None)
        wall = time.perf_counter() - start

        files = sorted(plan_dir.glob("*.sh")) if plan_dir.exists() else []
        by_kind: dict[str, list[str]] = {}
        for f in files:
            kind = f.stem.split("-", 1)[1].split("-")[0]
            by_kind.setdefault(kind, []).extend(f.read_text().splitlines())
        results: dict[str, list[str]] = {}
        if check and proc.exit_code == 0:
            results["nft"] = guard(checks.check_nft, by_kind.get("nft", []), self.ips, self.q)
            results["tc"] = guard(checks.check_tc, by_kind.get("tc", []),
                                  dict(enumerate(self.delays, 1)))
            results["launch"] = guard(checks.check_launches, by_kind.get("launch", []),
                                      self.manifest, self.inflate)
            results["fdb"] = guard(self.check_fdb, by_kind.get("fdb", []))
            results["signal"] = guard(self.check_signals, by_kind.get("signal", []))
        attempted, failed, errors = tally([proc], results)
        all_lines = [line for lines in by_kind.values() for line in lines]
        return Iteration(
            wall_s=wall,
            ref_wall_s=proc.ref_wall_s,
            rss_kib=proc.maxrss_kib,
            emitted_bytes=sum(f.stat().st_size for f in files),
            kernel_objects=checks.kernel_objects(all_lines),
            digest=digest(files),
            attempted=attempted,
            failed=failed,
            errors=errors,
            cpu_s=proc.cpu_s,
            traces=load_traces(trace_dir),
            extra={"classes": len(self.delays), "files": len(files)},
        )

    def check_fdb(self, lines: list[str]) -> list[str]:
        expected = [f"bridge fdb add {checks.mac_for(n['ip'])} dev {{veth:{n['name']}}} "
                    "master static" for n in self.manifest["nodes"]]
        return [] if lines == expected else [f"{len(lines)} FDB lines differ from expected"]

    def check_signals(self, lines: list[str]) -> list[str]:
        n = len(self.manifest["nodes"])
        validators = sum("validator" in node["roles"] for node in self.manifest["nodes"])
        kills = sum(line.startswith("docker kill -s ") for line in lines)
        sleeps = [line for line in lines if line.startswith("sleep ")]
        # start-nodes staggers 20 ms and start-validators 50 ms, both inflated.
        expected_sleeps = ([f"sleep {0.02 * self.inflate:g}"] * (n - 1)
                           + [f"sleep {0.05 * self.inflate:g}"] * (validators - 1))
        if kills != 2 * n + validators or sorted(sleeps) != sorted(expected_sleeps):
            return [f"{kills} kills and {len(sleeps)} sleeps do not match the phases"]
        return []


class ApplyStub(_Deployment):
    name = "apply-stub-64"
    SIZES = {"full": (64, 4, 4, "1/40", "1/160"), "toy": (8, 2, 3, "1/5", "1/20")}
    lo_ms, hi_ms = 5.0, 200.0
    ip_base = "10.3.0.1"

    def prepare(self, work: Path, seed: int) -> None:
        super().prepare(work, seed)
        bin_dir = work / "bin"
        bin_dir.mkdir()
        for tool in STUB_TOOLS:
            shutil.copyfile(BENCH / "stub.sh", bin_dir / tool)
            (bin_dir / tool).chmod(0o755)
        self.data = work / "stub-data"
        self.data.mkdir()
        self.veths = {}
        links = [
            "1: lo: <LOOPBACK,UP,LOWER_UP> mtu 65536 qdisc noqueue state UNKNOWN mode DEFAULT "
            "group default qlen 1000\\    link/loopback 00:00:00:00:00:00 brd 00:00:00:00:00:00",
            "2: eth0: <BROADCAST,MULTICAST,UP,LOWER_UP> mtu 1500 qdisc fq_codel state UP mode "
            "DEFAULT group default qlen 1000\\    link/ether 52:54:00:12:34:56 brd "
            "ff:ff:ff:ff:ff:ff",
            "3: latbr0: <BROADCAST,MULTICAST,UP,LOWER_UP> mtu 1500 qdisc noqueue state UP mode "
            "DEFAULT group default\\    link/ether 02:42:0a:03:00:00 brd ff:ff:ff:ff:ff:ff",
        ]
        for i, node in enumerate(self.manifest["nodes"]):
            ifindex = FIRST_IFINDEX + i
            veth = f"veth{(seed * 7919 + i * 104729) % 0xFFFFFFF:07x}"
            self.veths[node["name"]] = veth
            (self.data / f"{node['name']}.iflink").write_text(f"{ifindex}\n")
            (self.data / f"{node['name']}.address").write_text(checks.mac_for(node["ip"]) + "\n")
            links.append(
                f"{ifindex}: {veth}@if2: <BROADCAST,MULTICAST,UP,LOWER_UP> mtu 1500 qdisc "
                f"noqueue master latbr0 state UP mode DEFAULT group default\\    link/ether "
                f"6a:{i // 256:02x}:{i % 256:02x}:00:00:01 brd ff:ff:ff:ff:ff:ff "
                f"link-netnsid {i}")
        (self.data / "links").write_text("\n".join(links) + "\n")
        # The stub host's sysctls meet the plan, so the preflight gate shows
        # only what this host's own limits and shell decide.
        for key, value in (("kernel.pty.max", "11064"), ("net.core.rmem_max", "2147483647"),
                           ("net.core.rmem_default", "2147483647"),
                           ("net.core.wmem_max", "2147483647"),
                           ("net.core.wmem_default", "2147483647"),
                           ("net.ipv4.tcp_rmem", "10240\t87380\t16777216"),
                           ("net.ipv4.tcp_wmem", "10240\t87380\t16777216"),
                           ("net.ipv4.neigh.default.gc_thresh1", "200000"),
                           ("net.ipv4.neigh.default.gc_thresh2", "200000"),
                           ("net.ipv4.neigh.default.gc_thresh3", "200000")):
            (self.data / f"sysctl.{key}").write_text(value + "\n")
        self.path = f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '/usr/bin:/bin')}"

    def chain(self, out: Path, trace_dir: Path | None, check: bool) -> Iteration:
        log = out / "stub.log"
        log.touch()
        result_path = out / "apply.json"
        env = python_env(PATH=self.path, PERFBENCH_STUB_LOG=str(log),
                         PERFBENCH_STUB_DATA=str(self.data))
        start = time.perf_counter()
        proc = worker(["apply", self.manifest_path, result_path], out,
                      trace_dir / "apply.json" if trace_dir else None, env)
        wall = time.perf_counter() - start

        result = json.loads(result_path.read_text()) if result_path.exists() else {}
        records, spawns = checks.log_records(log.read_text())
        results: dict[str, list[str]] = {}
        if check and result:
            results["report"] = [f"step {s['name']} {s['status']}: {s['detail']}"
                                 for s in result["steps"] if s["status"] != "ok"]
            results["inventory"] = result["warnings"]
            results["stub log"] = guard(checks.check_stub_log, records,
                                        self.expected_steps(result), {"gather"})
            results["tc"] = guard(checks.check_tc,
                                  [r for r in records if r.startswith("tc ")],
                                  dict(enumerate(self.delays, 1)))
            results["nft"] = guard(checks.check_nft,
                                   [r for r in records if r.startswith("nft ")],
                                   self.ips, self.q)
            launches = [line for name, lines in result["plan"] if name.startswith("launch")
                        for line in lines]
            results["launch"] = guard(checks.check_launches, launches, self.manifest,
                                      self.inflate)
            expected_ips = [d for s in self.ips for d in self.ips if d != s]
            results["autoarpd"] = guard(checks.check_replies, result["replies"], expected_ips)
        attempted, failed, errors = tally([proc], results)
        failed += result.get("failed_commands", 0)
        failed += result.get("solicited", 0) - result.get("replied", 0)
        return Iteration(
            wall_s=wall,
            ref_wall_s=proc.ref_wall_s,
            rss_kib=result.get("maxrss_kib", proc.maxrss_kib),
            emitted_bytes=result.get("command_bytes", 0),
            kernel_objects=checks.kernel_objects(records),
            digest=hashlib.sha256(log.read_bytes()).hexdigest(),
            attempted=attempted + result.get("commands", 0) + result.get("solicited", 0),
            failed=failed,
            errors=errors,
            cpu_s=proc.cpu_s,
            traces=load_traces(trace_dir),
            extra={"classes": len(self.delays), "tool_spawns": spawns,
                   "preflight": result.get("preflight", []),
                   "commands": result.get("commands", 0)},
        )

    def expected_steps(self, result: dict) -> list[tuple[str, list[str]]]:
        """Each planned step's lines as its tools receive them, veths resolved."""
        steps = []
        for name, lines in result["plan"]:
            resolved = []
            for line in lines:
                for node, veth in self.veths.items():
                    line = line.replace(f"{{veth:{node}}}", veth)
                if name == "preflight":
                    # Only the sysctl queries reach a tool; ulimit is a shell builtin.
                    resolved += [f"sysctl -n {key}" for key in SYSCTL_QUERY.findall(line)]
                else:
                    resolved.append(checks.normalize(line))
            steps.append((name, resolved))
        return steps


WORKLOADS = {cls.name: cls for cls in (PlanMesh, DryRun, ApplyStub)}


# --- reporting -----------------------------------------------------------------


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def machine() -> dict:
    import networkx

    mem_kib = 0
    try:
        with open("/proc/meminfo") as f:
            mem_kib = int(f.readline().split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return {
        "nproc": os.cpu_count(),
        "mem_gib": round(mem_kib / 2**20, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "networkx": networkx.__version__,
        "sh": os.path.realpath("/bin/sh"),
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every input for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "latem" / "cli.py").is_file():
        print(f"error: no latem sources under {SRC}; run from a latem checkout",
              file=sys.stderr)
        return 2

    # One CPU for the harness and every process it starts: the Speedometer
    # must sample the CPU the timed process runs on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    workload = WORKLOADS[args.workload](args.size)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload.prepare(work, args.seed)
        setup = measure_setup(work)
        iterations: list[Iteration] = []
        traced: Iteration | None = None
        measured = 0.0
        while not iterations or (not args.trace and measured < args.seconds):
            out = work / f"it{len(iterations)}"
            out.mkdir()
            iterations.append(workload.chain(out, None, check=not iterations))
            measured += iterations[-1].wall_s
            shutil.rmtree(out)
        if args.trace:
            os.environ["PERFBENCH_TRACE_ID"] = f"{args.workload}-{args.seed}-{os.getpid()}"
            out = work / "traced"
            trace_dir = work / "spans"
            out.mkdir()
            trace_dir.mkdir()
            traced = workload.chain(out, trace_dir, check=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    chains = iterations + ([traced] if traced else [])
    errors = [e for it in chains for e in it.errors]
    differ = len({it.digest for it in chains}) > 1
    if differ:
        errors.append("outputs differ between runs of the same inputs")
    attempted = sum(it.attempted for it in chains)
    failed = sum(it.failed for it in chains) + differ
    correct = not errors and failed == 0
    walls = [it.ref_wall_s for it in iterations]
    setups = [p.ref_wall_s for p in setup]

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "cpu": cpu,
        "runs": len(walls),
        "wall_s": quartiles(walls),
        "wall_samples_s": walls,
        "raw_wall_samples_s": [it.wall_s for it in iterations],
        "cpu_samples_s": [it.cpu_s for it in iterations],
        "setup_s": quartiles(setups),
        "raw_setup_samples_s": [p.wall_s for p in setup],
        **iterations[0].extra,
        "machine": machine(),
        "errors": errors[:20],
    }
    print(json.dumps(details))

    if traced:
        metrics = tracer.summarize(traced.traces)
        metrics["adapters.tool_spawns"] = traced.extra.get("tool_spawns", 0)
        metrics["preflight.failed_lines"] = sum(
            p["exit"] != 0 for p in traced.extra.get("preflight", []))
        metrics["trace.untraced_wall_s"] = iterations[0].ref_wall_s
        metrics["trace.traced_wall_s"] = traced.ref_wall_s
        metrics["trace.overhead_s"] = traced.ref_wall_s - iterations[0].ref_wall_s
        emit(correct, attempted, failed, metrics, PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mib": max(it.rss_kib for it in iterations) / 1024,
            "emitted_mib": iterations[0].emitted_bytes / 2**20,
            "kernel_objects": iterations[0].kernel_objects,
            "ok_frac": 1 - failed / attempted,
        }
        emit(correct, attempted, failed, metrics, END_TO_END)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
