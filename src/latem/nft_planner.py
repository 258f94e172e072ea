"""Packet-marking firewall script emission.

For each delay class the script declares an nft set of directed IPv4
address pairs (both orders of every unordered pair), fills it, and adds one
rule that stamps matching packets with the class mark. Marks are kernel-only
tags: they steer the queueing-tree filters and never reach the wire.

The script is held as its class map and rendered chunk by chunk when it is
written or applied: each element line is one gather through the map's
address table, so a writer holds one element line at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .delay_model import DelayClassMap, gathered
from .errors import EmptyPlanError
from .script import Script

TABLE = "latem"
CHAIN = "latem_chain"
# Splitting element insertions keeps single commands under kernel argv limits.
ELEMENT_CHUNK_PAIRS = 1000


@dataclass(frozen=True)
class NftScript(Script):
    """The marking configuration of a class map, rendered on demand.

    Table, forward-hook chain, then per class (ascending mark) a set
    declaration, one element line per `ELEMENT_CHUNK_PAIRS` pairs, and the
    mark rule. The chunk size is read when the script is counted or
    rendered. Each unordered pair contributes both directed orders to its
    class set, so an element line for a chunk of P pairs lists 2P dotted
    address pairs. The map's addresses are IPv4 strings, so every line keeps
    the line rule.
    """

    classes: DelayClassMap

    def __len__(self) -> int:
        chunk = ELEMENT_CHUNK_PAIRS
        return 2 + sum(2 + -(-len(cls.lo) // chunk) for cls in self.classes)

    def __iter__(self) -> Iterator[str]:
        import numpy as np

        chunk = ELEMENT_CHUNK_PAIRS
        yield f"nft add table ip {TABLE}"
        yield (
            f"nft add chain {TABLE} {CHAIN} "
            "{ type filter hook forward priority 0 \\; }"
        )
        # 'lo . hi, hi . lo, ' per pair; the last ', ' gives way to ' }'.
        addrs = self.classes.addrs
        table = np.array([[a + " . " for a in addrs], [a + ", " for a in addrs]], dtype=object)
        for cls in self.classes:
            set_name = f"nodes_{cls.mark}"
            yield f"nft add set {TABLE} {set_name} {{ type ipv4_addr . ipv4_addr \\; }}"
            for start in range(0, len(cls.lo), chunk):
                lo, hi = cls.lo[start : start + chunk], cls.hi[start : start + chunk]
                body = gathered(table, (0, lo), (1, hi), (0, hi), (1, lo))[:-2]
                yield f"nft add element {TABLE} {set_name} {{ {body} }}"
            yield (
                f"nft add rule {TABLE} {CHAIN} "
                f"ip saddr . ip daddr @{set_name} meta mark set {cls.mark}"
            )


def emit_nft_script(classes: DelayClassMap) -> NftScript:
    """Emit the marking configuration of a non-empty class map (see `NftScript`)."""
    if len(classes) == 0:
        raise EmptyPlanError("cannot emit a marking script for zero classes")
    return NftScript(classes)
