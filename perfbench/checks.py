"""Independent checks of latem's outputs, written without latem's code.

Each check returns a list of failure messages (empty when it passes). The
expected values come from the harness's own inputs: integer quantization of
the generated delays, MACs derived from the addresses, and a small model of
the tc objects a command sequence creates.
"""

from __future__ import annotations

import json
import re
import shlex
from collections import Counter, defaultdict

import numpy as np

MAX_REPORTED = 5


def quantize(tenths: np.ndarray, quantum_ms: int = 10, inflate: int = 1) -> np.ndarray:
    """Round-half-up to the quantum, in exact integer arithmetic (tenths of ms)."""
    step = quantum_ms * 10
    return (tenths * inflate + step // 2) // step * quantum_ms


def class_delays(q: np.ndarray) -> list[int]:
    """Distinct non-zero delays of the upper triangle, ascending; mark = index + 1."""
    upper = q[np.triu_indices(q.shape[0], 1)]
    return sorted(int(d) for d in np.unique(upper) if d > 0)


def mac_for(ip: str) -> str:
    return "02:42:" + ":".join(f"{int(o):02x}" for o in ip.split("."))


def _first(errors: list[str]) -> list[str]:
    if len(errors) > MAX_REPORTED:
        return errors[:MAX_REPORTED] + [f"... {len(errors) - MAX_REPORTED} more"]
    return errors


def check_class_map(data: dict, ips: list[str], q: np.ndarray) -> list[str]:
    """The class-map JSON assigns every pair the harness's quantized delay."""
    index = {ip: i for i, ip in enumerate(ips)}
    n = len(ips)
    got = np.zeros((n, n), dtype=np.int64)
    seen = np.zeros((n, n), dtype=np.int64)
    errors = []
    delays = class_delays(q)
    classes = data.get("classes", [])
    if [c["delay_ms"] for c in classes] != delays:
        errors.append(f"class delays {[c['delay_ms'] for c in classes][:8]}... "
                      f"!= expected {delays[:8]}...")
    for pos, cls in enumerate(classes, start=1):
        if cls["mark"] != pos:
            errors.append(f"class {pos} has mark {cls['mark']}")
        lo, hi = zip(*cls["pairs"]) if cls["pairs"] else ((), ())
        i = np.array([index[a] for a in lo], dtype=np.int64)
        j = np.array([index[b] for b in hi], dtype=np.int64)
        if np.any(i >= j):
            errors.append(f"class {pos}: pair not in ascending address order")
        got[i, j] = cls["delay_ms"]
        np.add.at(seen, (i, j), 1)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    expected_seen = upper & (q > 0)
    if np.any(seen[expected_seen] != 1) or np.any(seen[~expected_seen] != 0):
        errors.append("pairs missing, repeated or outside the non-zero upper triangle")
    bad = np.argwhere(expected_seen & (got != q))
    errors += [f"pair {ips[a]}-{ips[b]}: delay {got[a, b]} != {q[a, b]}" for a, b in bad]
    return _first(errors)


_ELEMENT = re.compile(r"^nft add element (\w+) nodes_(\d+) \{ (.*) \}$")


def check_nft(lines: list[str], ips: list[str], q: np.ndarray) -> list[str]:
    """Every directed pair sits in exactly the set whose mark has its delay."""
    index = {ip: i for i, ip in enumerate(ips)}
    delays = class_delays(q)
    n = len(ips)
    seen = np.zeros((n, n), dtype=np.int64)
    marked = np.zeros((n, n), dtype=np.int64)
    sets, rules, errors = set(), set(), []
    for line in lines:
        if line.startswith("nft add set "):
            sets.add(line.split()[4])
        elif line.startswith("nft add rule "):
            m = re.search(r"@nodes_(\d+) meta mark set (\d+)$", line)
            if not m or m.group(1) != m.group(2):
                errors.append(f"rule does not mark its own set: {line}")
            else:
                rules.add(int(m.group(1)))
        elif m := _ELEMENT.match(line):
            mark = int(m.group(2))
            if f"nodes_{mark}" not in sets:
                errors.append(f"elements added to undeclared set nodes_{mark}")
            src, dst = [], []
            for element in m.group(3).split(", "):
                a, b = element.split(" . ")
                src.append(index[a])
                dst.append(index[b])
            np.add.at(seen, (np.array(src), np.array(dst)), 1)
            marked[np.array(src), np.array(dst)] = mark
    expected = (q > 0) & ~np.eye(n, dtype=bool)
    if np.any(seen[expected] != 1) or np.any(seen[~expected] != 0):
        errors.append("directed pairs missing or repeated in the nft sets")
    delay_of = np.array([0] + delays, dtype=np.int64)
    bad = np.argwhere(expected & (delay_of[np.minimum(marked, len(delays))] != q))
    errors += [f"{ips[a]} -> {ips[b]} marked {marked[a, b]}, delay {q[a, b]}"
               for a, b in bad]
    if rules != set(range(1, len(delays) + 1)):
        errors.append(f"{len(rules)} mark rules for {len(delays)} classes")
    return _first(errors)


def _handle(text: str) -> tuple[int, int | None]:
    major, _, minor = text.partition(":")
    return int(major, 16), (int(minor, 16) if minor else None)


def check_tc(lines: list[str], delays_by_mark: dict[int, int] | None = None) -> list[str]:
    """Parents exist before use on each interface, and each mark reaches its delay.

    A prio qdisc `handle H: prio bands B` creates classes H:1..H:B; a qdisc
    added at `parent H:C` needs that class free, and a filter at `parent H:`
    needs qdisc H:. When delays_by_mark is given, each interface routes every
    mark through its two fw filters to a netem leaf with the class delay.
    """
    bands: dict[str, dict[int, int]] = defaultdict(dict)  # dev -> qdisc major -> bands
    child: dict[str, dict] = defaultdict(dict)  # dev -> parent class -> qdisc major or "netem"
    fw: dict[str, dict] = defaultdict(dict)  # dev -> (qdisc major, mark) -> class
    netem: dict[str, dict] = defaultdict(dict)  # dev -> class -> delay ms
    errors = []
    for line in lines:
        words = line.split()
        if words[:3] == ["tc", "qdisc", "add"]:
            dev = words[4]
            if words[5] == "root":
                parent, rest = "root", words[6:]
            else:
                parent, rest = _handle(words[6]), words[7:]
                major, minor = parent
                if minor is None or not 1 <= minor <= bands[dev].get(major, 0):
                    errors.append(f"{dev}: qdisc parent {words[6]} not created yet")
            if parent in child[dev]:
                errors.append(f"{dev}: second qdisc at {words[5:7]}")
            if rest[:1] == ["handle"]:
                major = _handle(rest[1])[0]
                if major in bands[dev]:
                    errors.append(f"{dev}: duplicate handle {rest[1]}")
                bands[dev][major] = int(rest[rest.index("bands") + 1]) if "bands" in rest else 0
                child[dev][parent] = major
            else:
                child[dev][parent] = "netem"
                if rest[:2] == ["netem", "delay"]:
                    netem[dev][parent] = int(rest[2].removesuffix("ms"))
        elif words[:3] == ["tc", "filter", "add"]:
            dev = words[4]
            parent = words[words.index("parent") + 1]
            major = _handle(parent)[0]
            if major not in bands[dev]:
                errors.append(f"{dev}: filter parent {parent} not created yet")
            if "fw" in words:
                mark = int(words[words.index("handle") + 1])
                fw[dev][(major, mark)] = _handle(words[words.index("classid") + 1])
        elif words[:1] == ["tc"]:
            errors.append(f"unexpected tc command: {line}")
    if delays_by_mark is not None:
        for dev in bands:
            root = child[dev].get("root")
            for mark, delay in delays_by_mark.items():
                first = fw[dev].get((root, mark))
                second = fw[dev].get((child[dev].get(first), mark))
                if netem[dev].get(second) != delay:
                    errors.append(f"{dev}: mark {mark} does not reach a {delay} ms leaf")
                    break
            if len(netem[dev]) != len(delays_by_mark):
                errors.append(f"{dev}: {len(netem[dev])} leaves for "
                              f"{len(delays_by_mark)} classes")
    return _first(errors)


def kernel_objects(lines) -> int:
    """Objects a command sequence would create: qdiscs, tc filters, nft sets,
    rules and set elements, FDB entries and containers."""
    total = 0
    for line in lines:
        if line.startswith(("tc qdisc add ", "tc filter add ", "nft add set ",
                            "nft add rule ", "bridge fdb add ", "docker run ")):
            total += 1
        elif line.startswith("nft add element "):
            total += line.count(",") + 1
    return total


def normalize(line: str) -> str:
    """A planned shell line as the argv its tool receives, words joined by spaces."""
    return " ".join(word for arg in shlex.split(line) for word in arg.split())


def log_records(text: str) -> tuple[list[str], int]:
    """Stub log to command lines in call order, and the number of tool spawns.

    A batch invocation's own argv record is not a command; its "b" lines are.
    """
    lines, spawns = [], 0
    for raw in text.splitlines():
        kind, tool, *args = raw.split("\t")
        if kind == "S":
            spawns += 1
            if (tool, args[:1]) in (("tc", ["-batch"]), ("tc", ["-b"]),
                                    ("nft", ["-f"]), ("nft", ["--file"])):
                continue
        lines.append(" ".join([tool] + [w for a in args for w in a.split()]))
    return lines, spawns


def check_stub_log(records: list[str], steps: list[tuple[str, list[str]]],
                   unordered: set[str]) -> list[str]:
    """The log holds each step's expected lines, in order within the step;
    steps named in `unordered` (the inventory queries) compare as multisets."""
    errors = []
    pos = 0
    for name, expected in steps:
        got = records[pos:pos + len(expected)]
        pos += len(expected)
        if name in unordered:
            if Counter(got) != Counter(expected):
                errors.append(f"step {name}: logged commands differ as a set")
            continue
        for k, (want, have) in enumerate(zip(expected, got + [None] * len(expected))):
            if want != have:
                errors.append(f"step {name} line {k}: expected {want[:90]!r}, "
                              f"logged {(have or '<nothing>')[:90]!r}")
                break
    if pos != len(records):
        errors.append(f"{len(records)} commands logged, {pos} planned")
    return _first(errors)


def check_replies(replies: list[list[str]], expected_ips: list[str]) -> list[str]:
    errors = [f"reply for {ip} carries MAC {mac}, expected {mac_for(ip)}"
              for ip, mac in replies if mac != mac_for(ip)]
    if Counter(ip for ip, _ in replies) != Counter(expected_ips):
        errors.append("replies do not answer exactly the solicited addresses")
    return _first(errors)


def check_launches(lines: list[str], manifest: dict, inflate: int) -> list[str]:
    """One `docker run` per node with its address, derived MAC and node spec."""
    nodes = {n["name"]: n for n in manifest["nodes"]}
    seen = Counter()
    errors = []
    neighbors: dict[str, dict[str, list[str]]] = {}
    validators = {n for n, spec in nodes.items() if "validator" in spec["roles"]}
    block_time = str(manifest["timers"]["block_time_s"]["value"] * inflate)
    for line in lines:
        argv = shlex.split(line)
        opts = {argv[k]: argv[k + 1] for k in range(2, len(argv) - 1)
                if argv[k].startswith("--") and argv[k] != "--cap-add"}
        name = opts.get("--name")
        node = nodes.get(name)
        if node is None:
            errors.append(f"launch of unknown node {name!r}")
            continue
        seen[name] += 1
        spec = json.loads(opts["--env"].partition("=")[2])
        neighbors[name] = spec["neighbors"]
        phases = ["start-nodes", "start-validators", "start-load"] if name in validators \
            else ["start-nodes", "start-load"]
        if (opts["--ip"] != node["ip"] or opts["--mac-address"] != mac_for(node["ip"])
                or spec["name"] != name or spec["ip"] != node["ip"]
                or spec["signal_phases"] != phases
                or spec["timers"]["block_time_s"] != block_time
                or spec["processes"][0]["args"][1] != block_time):
            errors.append(f"launch line of {name} does not match its node")
    if set(seen) != set(nodes) or any(v != 1 for v in seen.values()):
        errors.append(f"{sum(seen.values())} launches for {len(nodes)} nodes")
    degree = manifest["networks"]["gossip"]["degree"]
    for name, roles in neighbors.items():
        for role, nbrs in roles.items():
            if any(name not in neighbors.get(m, {}).get(role, []) for m in nbrs):
                errors.append(f"{role} overlay is not symmetric at {name}")
        if len(roles.get("gossip", [])) != degree:
            errors.append(f"{name} has {len(roles.get('gossip', []))} gossip neighbors")
    return _first(errors)
