"""Packet-marking firewall script emission.

For each delay class the script declares an nft set of directed IPv4
address pairs (both orders of every unordered pair), fills it, and adds one
rule that stamps matching packets with the class mark. Marks are kernel-only
tags: they steer the queueing-tree filters and never reach the wire.
"""

from __future__ import annotations

from .delay_model import DelayClassMap
from .errors import EmptyPlanError
from .script import CommandScript

TABLE = "latem"
CHAIN = "latem_chain"
# Splitting element insertions keeps single commands under kernel argv limits.
ELEMENT_CHUNK_PAIRS = 1000


def emit_nft_script(classes: DelayClassMap) -> CommandScript:
    """Emit the marking configuration: table, forward-hook chain, then per
    class (ascending mark) a set declaration, its elements, and the mark rule.

    Each unordered pair contributes both directed orders to its class set, so
    an element line for a chunk of P pairs lists 2P dotted address pairs.
    """
    if len(classes) == 0:
        raise EmptyPlanError("cannot emit a marking script for zero classes")

    lines = [
        f"nft add table ip {TABLE}",
        f"nft add chain {TABLE} {CHAIN} "
        "{ type filter hook forward priority 0 \\; }",
    ]
    for cls in classes:
        set_name = f"nodes_{cls.mark}"
        lines.append(
            f"nft add set {TABLE} {set_name} "
            "{ type ipv4_addr . ipv4_addr \\; }"
        )
        los, his = cls.addresses()
        elements = [f"{lo} . {hi}, {hi} . {lo}" for lo, hi in zip(los, his)]
        for start in range(0, len(elements), ELEMENT_CHUNK_PAIRS):
            chunk = ", ".join(elements[start : start + ELEMENT_CHUNK_PAIRS])
            lines.append(f"nft add element {TABLE} {set_name} {{ {chunk} }}")
        lines.append(
            f"nft add rule {TABLE} {CHAIN} "
            f"ip saddr . ip daddr @{set_name} meta mark set {cls.mark}"
        )
    return CommandScript(lines=tuple(lines))
