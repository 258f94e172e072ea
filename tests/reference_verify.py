"""Per-pair reference for `tc_planner.verify_plan`.

This is the oracle the whole-set `verify_plan` replaced: it parses every nft
element into an address tuple, builds one directed-pair -> mark dict, and
looks up every directed pair of every class, counting each class's failing
pairs and listing the first MISMATCHES_PER_CLASS of them. Tests require both
to return equal reports, and to raise the same `ParseError`s, on the same
scripts.
The tc half is `verify_plan`'s own: one parsed tree per interface, each
class's mark routed on every tree.
"""

from __future__ import annotations

import re

from latem.delay_model import DelayClassMap
from latem.errors import ParseError
from latem.script import CommandScript
from latem.tc_planner import (
    MISMATCHES_PER_CLASS, Mismatch, VerificationReport, _default_route, _parse_tc, _route,
)

_NFT_TABLE = re.compile(r"^nft add table ip (\w+)$")
_NFT_CHAIN = re.compile(r"^nft add chain (\w+) (\w+) \{ type filter hook forward priority 0 \\; \}$")
_NFT_SET = re.compile(r"^nft add set (\w+) (\w+) \{ type ipv4_addr \. ipv4_addr \\; \}$")
_NFT_ELEMENT = re.compile(r"^nft add element (\w+) (\w+) \{ (.*) \}$")
_NFT_RULE = re.compile(
    r"^nft add rule (\w+) (\w+) ip saddr \. ip daddr @(\w+) meta mark set (\d+)$"
)


class _NftState:
    def __init__(self) -> None:
        self.sets: dict[str, set[tuple[str, str]]] = {}
        self.rules: list[tuple[str, int]] = []  # (set name, mark), in order

    def marks(self) -> dict[tuple[str, str], int]:
        """Directed pair -> the mark a packet of that pair is stamped with."""
        marks: dict[tuple[str, str], int] = {}
        # first matching rule wins: apply the rules last to first, so an
        # earlier rule overwrites a later one
        for set_name, mark in reversed(self.rules):
            marks.update(dict.fromkeys(self.sets.get(set_name, ()), mark))
        return marks


def _parse_nft(script: CommandScript) -> _NftState:
    state = _NftState()
    for line_no, line in enumerate(script, start=1):
        if _NFT_TABLE.match(line) or _NFT_CHAIN.match(line):
            continue
        if m := _NFT_SET.match(line):
            state.sets[m.group(2)] = set()
            continue
        if m := _NFT_ELEMENT.match(line):
            set_name, body = m.group(2), m.group(3)
            if set_name not in state.sets:
                raise ParseError("element insertion into undeclared set", line_no, line)
            for element in body.split(", "):
                parts = element.split(" . ")
                if len(parts) != 2:
                    raise ParseError("malformed set element", line_no, line)
                state.sets[set_name].add((parts[0], parts[1]))
            continue
        if m := _NFT_RULE.match(line):
            if m.group(3) not in state.sets:
                raise ParseError("rule references undeclared set", line_no, line)
            state.rules.append((m.group(3), int(m.group(4))))
            continue
        raise ParseError("unrecognized firewall command", line_no, line)
    return state


def verify_plan_per_pair(
    nft: CommandScript, tc: CommandScript, classes: DelayClassMap
) -> VerificationReport:
    marks = _parse_nft(nft).marks()
    trees = _parse_tc(tc)
    mismatches: list[Mismatch] = []
    failing: dict[int, int] = {}
    pairs_checked = 0

    for cls in classes:
        delay, detail = _route(trees, cls.mark, cls.delay_ms)
        pairs_checked += 2 * len(cls.pairs)
        for lo, hi in cls.pairs:
            for src, dst in ((lo, hi), (hi, lo)):
                mark = marks.get((src, dst))
                if mark != cls.mark:
                    found = Mismatch(
                        mark=cls.mark,
                        pair=(src, dst),
                        expected_delay_ms=cls.delay_ms,
                        actual_delay_ms=None,
                        detail=f"marked {mark} instead of {cls.mark}",
                    )
                elif delay != cls.delay_ms:
                    found = Mismatch(
                        mark=cls.mark,
                        pair=(src, dst),
                        expected_delay_ms=cls.delay_ms,
                        actual_delay_ms=delay,
                        detail=detail,
                    )
                else:
                    continue
                failing[cls.mark] = failing.get(cls.mark, 0) + 1
                if failing[cls.mark] <= MISMATCHES_PER_CLASS:
                    mismatches.append(found)

    default_ok, default_detail = _default_route(trees)
    return VerificationReport(
        pairs_checked=pairs_checked,
        mismatches=tuple(mismatches),
        default_path_ok=default_ok,
        default_path_detail=default_detail,
        failing_pairs=failing,
    )
