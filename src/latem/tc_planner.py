"""Two-level prio/netem queueing tree: planning, emission, and verification.

Marked packets are sorted twice: a root prio qdisc dispatches on the mark
into one of b bands, and a second-level prio qdisc under each band dispatches
into one of b sub-bands, whose leaf is a netem qdisc applying the class
delay. With at most 16 bands per prio qdisc, two levels give b*b leaves; one
leaf (the rightmost path) is reserved for unmarked traffic and applies no
delay, so up to 255 delay classes fit.

Handles follow the tc syntax: the root is "1:", the second-level qdisc under
band i is "1<hex(i)>:", and bands are "<handle>:<hex(band)>" with lowercase
hex digits. Filter handles carry the decimal mark. The same tree is applied
to every virtual interface; delays act on traffic egressing the bridge
toward each container.

verify_plan is an independent oracle: it re-parses emitted firewall and tc
scripts from text and checks every directed pair of every class: the pair
must be stamped with its class mark (first matching rule wins), and that
mark's root-to-leaf filter route must reach the class delay on every
interface's tree. It reads nft elements as positions in the class map's
address table, keeps one table of the first rule matching each ordered pair
of table addresses (one byte per pair up to 255 rules: 16 MB at 3997
addresses), and makes address strings only for a class that fails.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import add
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .delay_model import MAX_BANDS, DelayClassMap, gc_paused
from .errors import CapacityError, ConfigError, ParseError
from .script import Script, line_fault

if TYPE_CHECKING:  # numpy is imported by verify_plan, which uses it
    import numpy as np

FILTER_PRIO_MARKED = 10
FILTER_PRIO_DEFAULT = 20
# A failing class lists at most this many of its failing directed pairs.
MISMATCHES_PER_CLASS = 10


def _hex(value: int) -> str:
    return format(value, "x")


def leaf_position(mark: int, b: int) -> tuple[int, int]:
    """First- and second-level band (f, s) for a mark; never the default slot."""
    if mark < 1:
        raise ConfigError(f"mark must be positive, got {mark}")
    if not 2 <= b <= MAX_BANDS:
        raise ConfigError(f"bands must be in 2..{MAX_BANDS}, got {b}")
    if mark >= b * b:
        raise CapacityError(f"mark {mark} does not fit a {b}x{b} tree (max {b * b - 1})")
    f = (mark - 1) // b + 1
    s = (mark - 1) % b + 1
    return f, s


@dataclass(frozen=True)
class TreeScript(Script):
    """One tree's lines for each of a list of interfaces, rendered on demand.

    Line i of an interface's tree is `tree[i][0] + veth + tree[i][1]`. The
    tree is also held as the text between the names, `fragments`, so an
    interface's whole tree is `veth.join(fragments)`: one join, and one
    piece of the script's text, per interface. The lines are never held for
    every interface at once. The line rule every script keeps (no newline,
    no trailing whitespace) is checked once, on the heads, the tails and the
    interface names.
    """

    tree: tuple[tuple[str, str], ...]
    veths: tuple[str, ...]
    fragments: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for head, tail in self.tree:
            # A line ends in its tail, or in a non-blank name when the tail is empty.
            if fault := line_fault(f"{head}name{tail}"):
                raise ValueError(f"tree line {head!r}...{tail!r} {fault}")
        for veth in self.veths:
            if not veth or veth != veth.strip() or "\n" in veth or "\r" in veth:
                raise ConfigError(f"invalid interface name {veth!r}")
        heads = [head for head, _ in self.tree]
        tails = [tail + "\n" for _, tail in self.tree]
        fragments = tuple(map(add, ["", *tails], [*heads, ""])) if self.tree else ()
        object.__setattr__(self, "fragments", fragments)

    def __len__(self) -> int:
        return len(self.veths) * len(self.tree)

    def __iter__(self) -> Iterator[str]:
        for tree in self.pieces():
            yield from tree.split("\n")[:-1]

    def pieces(self) -> Iterator[str]:
        """Each interface's whole tree, in order."""
        if self.fragments:
            yield from map(str.join, self.veths, repeat(self.fragments))


def emit_tc_trees(
    class_delays: Mapping[int, int], veths: Sequence[str], b: int
) -> TreeScript:
    """Emit the same tree for each interface, one tree after another.

    The tree is planned once and held as line templates; each interface is
    filled in when the script is iterated or written. Order within a tree:
    root prio, the b second-level prio qdiscs, then per class (ascending
    mark) its netem leaf plus the two fw filters routing the mark
    root-to-leaf, and finally the two catch-all filters steering unmarked
    traffic down the rightmost (no-delay) path. Line count per interface is
    1 + b + 3K + 2.
    """
    # `leaf_position` checks the bands too, but only when there are classes.
    if not 2 <= b <= MAX_BANDS:
        raise ConfigError(f"bands must be in 2..{MAX_BANDS}, got {b}")
    # Each line is a head, the interface name, and a tail.
    qdisc, fltr = "tc qdisc add dev ", "tc filter add dev "
    tree = [(qdisc, f" root handle 1: prio bands {b}")]
    for i in range(1, b + 1):
        tree.append((qdisc, f" parent 1:{_hex(i)} handle 1{_hex(i)}: prio bands {b}"))
    for mark, delay_ms in sorted(class_delays.items()):
        f, s = leaf_position(mark, b)  # never the default slot
        hf, hs = _hex(f), _hex(s)
        tree.append((qdisc, f" parent 1{hf}:{hs} netem delay {delay_ms}ms"))
        tree.append((fltr, f" protocol ip parent 1: "
                           f"prio {FILTER_PRIO_MARKED} handle {mark} fw classid 1:{hf}"))
        tree.append((fltr, f" protocol ip parent 1{hf}: "
                           f"prio {FILTER_PRIO_MARKED} handle {mark} fw classid 1{hf}:{hs}"))
    tree.append((fltr, f" protocol all parent 1: "
                       f"prio {FILTER_PRIO_DEFAULT} matchall classid 1:{_hex(b)}"))
    tree.append((fltr, f" protocol all parent 1{_hex(b)}: "
                       f"prio {FILTER_PRIO_DEFAULT} matchall classid 1{_hex(b)}:{_hex(b)}"))
    return TreeScript(tree=tuple(tree), veths=tuple(veths))


def emit_tc_script(class_delays: Mapping[int, int], veth: str, b: int) -> TreeScript:
    """Emit the tree for one interface (see `emit_tc_trees`)."""
    return emit_tc_trees(class_delays, [veth], b)


# --- offline verification -------------------------------------------------

_NFT_TABLE = re.compile(r"^nft add table ip (\w+)$")
_NFT_CHAIN = re.compile(r"^nft add chain (\w+) (\w+) \{ type filter hook forward priority 0 \\; \}$")
_NFT_SET = re.compile(r"^nft add set (\w+) (\w+) \{ type ipv4_addr \. ipv4_addr \\; \}$")
_NFT_ELEMENT = re.compile(r"^nft add element (\w+) (\w+) \{ (.*) \}$")
_NFT_RULE = re.compile(
    r"^nft add rule (\w+) (\w+) ip saddr \. ip daddr @(\w+) meta mark set (\d+)$"
)
_TC_ROOT = re.compile(r"^tc qdisc add dev (\S+) root handle 1: prio bands (\d+)$")
_TC_SECOND = re.compile(
    r"^tc qdisc add dev (\S+) parent 1:([0-9a-f]+) handle (1[0-9a-f]+): prio bands (\d+)$"
)
_TC_NETEM = re.compile(
    r"^tc qdisc add dev (\S+) parent ([0-9a-f]+):([0-9a-f]+) netem delay (\d+)ms$"
)
_TC_FW_FILTER = re.compile(
    r"^tc filter add dev (\S+) protocol ip parent ([0-9a-f]+): "
    r"prio (\d+) handle (\d+) fw classid ([0-9a-f]+):([0-9a-f]+)$"
)
_TC_MATCHALL = re.compile(
    r"^tc filter add dev (\S+) protocol all parent ([0-9a-f]+): "
    r"prio (\d+) matchall classid ([0-9a-f]+):([0-9a-f]+)$"
)


@dataclass(frozen=True)
class Mismatch:
    mark: int | None
    pair: tuple[str, str] | None
    expected_delay_ms: int | None
    actual_delay_ms: int | None
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    pairs_checked: int
    mismatches: tuple[Mismatch, ...]  # the first MISMATCHES_PER_CLASS of each class
    default_path_ok: bool
    default_path_detail: str
    failing_pairs: dict[int, int]  # each failing class's mark: its failing directed pairs

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.default_path_ok


def _glued(body: str, items: list[str]) -> bool:
    """Whether `body`, whose parts at each space are `items`, is parts glued
    as "p0 . p1, p2 . p3, ..." with no space or comma in any part, so that
    `items` run p0, ".", "p1,", p2, ".", "p3,", ..., p(2n-1).

    Then a comma is only in a glue ", ", so splitting the body at ", " gives
    the elements "p . q"; each has two spaces, both in its glue " . ", so it
    holds exactly one " . " and splits into p and q. An element line the
    planner writes is glued so; any other is read element by element.
    """
    n, rest = divmod(len(items), 3)
    # each of the n - 1 items before a ", " ends in a comma, and no other
    # character of the body is one
    return (
        not rest
        and items[1::3].count(".") == n
        and body.count(",") == n - 1
        and (" ".join(items[2:-1:3]) + " ").count(", ") == n - 1
    )


def _parse_nft(
    script: Script, addrs: Sequence[str]
) -> tuple[dict[str, np.ndarray], list[tuple[str, int]]]:
    """Each set's elements as an `int64` array of codes `src * m + dst`, where
    src and dst are positions in `addrs` and m = len(addrs); and the rules
    as (set name, mark), in order.

    An element passes every check of its line first; one with an address
    outside `addrs` is then dropped, since no class pair can equal it.
    """
    import numpy as np

    m = len(addrs)
    position = {ip: p for p, ip in enumerate(addrs)}.get
    comma_position = {ip + ",": p for p, ip in enumerate(addrs)}.get
    chunks: dict[str, list[np.ndarray]] = {}  # set name -> codes, one array per line
    rules: list[tuple[str, int]] = []
    for line_no, line in enumerate(script, start=1):
        if _NFT_TABLE.match(line) or _NFT_CHAIN.match(line):
            continue
        if match := _NFT_SET.match(line):
            chunks[match.group(2)] = []
            continue
        if match := _NFT_ELEMENT.match(line):
            set_name, body = match.group(2), match.group(3)
            if set_name not in chunks:
                raise ParseError("element insertion into undeclared set", line_no, line)
            items = body.split(" ")
            if _glued(body, items):
                n = len(items) // 3
                src = np.fromiter(map(position, items[0::3], repeat(-1)), np.int64, n)
                dst = np.fromiter(chain(map(comma_position, items[2:-1:3], repeat(-1)),
                                        [position(items[-1], -1)]), np.int64, n)
            else:
                elements = body.split(", ")
                # an element is two addresses joined by exactly one " . "
                if set(map(str.count, elements, repeat(" . "))) != {1}:
                    raise ParseError("malformed set element", line_no, line)
                parts = [part for element in elements for part in element.split(" . ")]
                ends = np.fromiter(map(position, parts, repeat(-1)), np.int64, len(parts))
                src, dst = ends[0::2], ends[1::2]
            known = (src >= 0) & (dst >= 0)
            chunks[set_name].append(src[known] * m + dst[known])
            continue
        if match := _NFT_RULE.match(line):
            if match.group(3) not in chunks:
                raise ParseError("rule references undeclared set", line_no, line)
            rules.append((match.group(3), int(match.group(4))))
            continue
        raise ParseError("unrecognized firewall command", line_no, line)
    codes = {}
    for set_name in list(chunks):  # one set's chunks and its codes are held at once
        codes[set_name] = np.concatenate([np.empty(0, np.int64), *chunks.pop(set_name)])
    return codes, rules


class _TcState:
    def __init__(self) -> None:
        self.bands: int | None = None
        self.child_of_band: dict[tuple[str, str], str] = {}  # (parent, band) -> handle
        self.netem: dict[tuple[str, str], int] = {}  # (qdisc handle, band) -> delay
        self.fw: dict[str, dict[int, tuple[str, str]]] = {}  # parent -> mark -> classid
        self.matchall: dict[str, tuple[str, str]] = {}  # parent -> classid

    def route(self, mark: int | None) -> tuple[int | None, str]:
        """Follow filters from the root; return (delay, detail).

        Unmatched routing returns delay None; a leaf band without a netem
        qdisc is the no-delay plain queue, i.e. delay 0.
        """
        handle = "1"
        for level in ("root", "second"):
            target = None
            if mark is not None:
                target = self.fw.get(handle, {}).get(mark)
            if target is None:
                target = self.matchall.get(handle)
            if target is None:
                return None, f"no filter matched mark {mark} at qdisc {handle}:"
            major, minor = target
            if major != handle:
                return None, (
                    f"filter at qdisc {handle}: targets foreign qdisc {major}:{minor}"
                )
            if level == "root":
                child = self.child_of_band.get((major, minor))
                if child is None:
                    return None, f"no qdisc attached under band {major}:{minor}"
                handle = child
            else:
                delay = self.netem.get((major, minor), 0)
                return delay, f"leaf {major}:{minor}"
        raise AssertionError("unreachable")


def _parse_tc(script: Script) -> dict[str, _TcState]:
    """One tree per interface (`dev`), in the order the interfaces first appear."""
    trees: defaultdict[str, _TcState] = defaultdict(_TcState)
    for line_no, line in enumerate(script, start=1):
        if m := _TC_ROOT.match(line):
            trees[m.group(1)].bands = int(m.group(2))
            continue
        if m := _TC_SECOND.match(line):
            band, handle = m.group(2), m.group(3)
            if handle != "1" + band:
                raise ParseError("second-level handle does not encode its band", line_no, line)
            trees[m.group(1)].child_of_band[("1", band)] = handle
            continue
        if m := _TC_NETEM.match(line):
            trees[m.group(1)].netem[(m.group(2), m.group(3))] = int(m.group(4))
            continue
        if m := _TC_FW_FILTER.match(line):
            parent, mark = m.group(2), int(m.group(4))
            trees[m.group(1)].fw.setdefault(parent, {})[mark] = (m.group(5), m.group(6))
            continue
        if m := _TC_MATCHALL.match(line):
            trees[m.group(1)].matchall[m.group(2)] = (m.group(4), m.group(5))
            continue
        raise ParseError("unrecognized tc command", line_no, line)
    if not trees:
        raise ParseError("script has no root prio qdisc", 0, "")
    for dev, tree in trees.items():
        if tree.bands is None:
            raise ParseError(f"script has no root prio qdisc on {dev}", 0, "")
    return dict(trees)


def _route(trees: Mapping[str, _TcState], mark: int, delay_ms: int) -> tuple[int | None, str]:
    """The mark's route on the first interface where it misses `delay_ms`, as
    (delay, detail) with the interface named; (delay_ms, "") when none does."""
    for dev, tree in trees.items():
        delay, detail = tree.route(mark)
        if delay != delay_ms:
            return delay, f"{dev}: {detail}"
    return delay_ms, ""


def _default_route(trees: Mapping[str, _TcState]) -> tuple[bool, str]:
    """Whether unmarked traffic reaches the no-delay default leaf on every
    interface, and the route of the first interface where it does not."""
    for dev, tree in trees.items():
        delay, detail = tree.route(None)
        if delay != 0:
            return False, f"unmarked traffic delayed ({dev}: {detail})"
        if detail != f"leaf 1{_hex(tree.bands)}:{_hex(tree.bands)}":
            return False, f"{dev}: {detail}"
    return True, detail


@gc_paused()
def verify_plan(
    nft: Script, tc: Script, classes: DelayClassMap
) -> VerificationReport:
    """Check every directed pair of every class against both scripts.

    Each ordered (src, dst) of a class must be stamped with the class mark
    by set membership (first matching rule wins), and that mark's walk
    through the root and second-level filters must reach a leaf whose netem
    delay is the class delay, on the tree of every interface the tc script
    configures. Separately checks that unmarked traffic lands on the
    no-delay default leaf of every tree.

    Pairs are held as positions in the map's address table: one table of
    the first rule matching each ordered pair of table addresses, one byte
    per pair up to 255 rules (16 MB at 3997 addresses), wider past that. A
    class passes as a whole when that table gives, for both directions of
    every pair, a rule stamping its mark, and the mark routes to its delay.
    A failing class is counted pair by pair; only its first
    MISMATCHES_PER_CLASS failing directed pairs become address strings, each
    with the route of the first interface that misses.
    """
    import numpy as np

    codes, rules = _parse_nft(nft, classes.addrs)
    trees = _parse_tc(tc)
    m = len(classes.addrs)
    # first[src * m + dst]: 1 + the index of the first rule whose set holds
    # the pair, or 0 where none does. Filled from the last rule to the first,
    # so an earlier rule overwrites a later one.
    first = np.zeros(m * m, np.min_scalar_type(len(rules)))
    for i in range(len(rules) - 1, -1, -1):
        first[codes[rules[i][0]]] = i + 1
    marks: list[int | None] = [None, *(mark for _, mark in rules)]  # by first[...]
    mismatches: list[Mismatch] = []
    failing: dict[int, int] = {}
    pairs_checked = 0

    for cls in classes:
        # Routing depends on the mark alone, and only packets marked
        # cls.mark are routed here.
        delay, detail = _route(trees, cls.mark, cls.delay_ms)
        lo, hi = cls.lo.astype(np.int64), cls.hi.astype(np.int64)
        pairs_checked += 2 * len(lo)
        forth, back = first[lo * m + hi], first[hi * m + lo]
        stamps = np.array([mark == cls.mark for mark in marks])
        if delay == cls.delay_ms and stamps[forth].all() and stamps[back].all():
            continue
        # Directed pair 2k is pair k, 2k + 1 its reverse.
        rule_of = np.stack([forth, back], axis=1).ravel()
        bad = ~stamps[rule_of] if delay == cls.delay_ms else np.ones(len(rule_of), bool)
        failing[cls.mark] = int(np.count_nonzero(bad))
        for k in np.flatnonzero(bad)[:MISMATCHES_PER_CLASS].tolist():
            pair = (classes.addrs[lo[k // 2]], classes.addrs[hi[k // 2]])
            mark = marks[rule_of[k]]
            unmarked = mark != cls.mark
            mismatches.append(Mismatch(
                mark=cls.mark, pair=pair[::-1] if k % 2 else pair,
                expected_delay_ms=cls.delay_ms,
                actual_delay_ms=None if unmarked else delay,
                detail=f"marked {mark} instead of {cls.mark}" if unmarked else detail,
            ))

    default_ok, default_detail = _default_route(trees)
    return VerificationReport(
        pairs_checked=pairs_checked,
        mismatches=tuple(mismatches),
        default_path_ok=default_ok,
        default_path_detail=default_detail,
        failing_pairs=failing,
    )
