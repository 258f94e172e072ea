"""Packet-marking firewall script emission.

For each delay class the script declares an nft set of directed IPv4
address pairs (both orders of every unordered pair), fills it, and adds one
rule that stamps matching packets with the class mark. Marks are kernel-only
tags: they steer the queueing-tree filters and never reach the wire.
"""

from __future__ import annotations

import re

from .delay_model import DelayClassMap
from .errors import ConfigError, EmptyPlanError
from .script import CommandScript

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

DEFAULT_TABLE = "latem"
DEFAULT_CHAIN = "latem_chain"
# Splitting element insertions keeps single commands under kernel argv limits.
DEFAULT_ELEMENT_CHUNK_PAIRS = 1000


def _check_ident(name: str, what: str) -> None:
    if not _IDENT.match(name):
        raise ConfigError(f"{what} {name!r} is not a valid identifier")


def emit_nft_script(
    classes: DelayClassMap,
    table_name: str = DEFAULT_TABLE,
    chain_name: str = DEFAULT_CHAIN,
    element_chunk_pairs: int = DEFAULT_ELEMENT_CHUNK_PAIRS,
) -> CommandScript:
    """Emit the marking configuration: table, forward-hook chain, then per
    class (ascending mark) a set declaration, its elements, and the mark rule.

    Each unordered pair contributes both directed orders to its class set, so
    an element line for a chunk of P pairs lists 2P dotted address pairs.
    """
    if len(classes) == 0:
        raise EmptyPlanError("cannot emit a marking script for zero classes")
    _check_ident(table_name, "table name")
    _check_ident(chain_name, "chain name")
    if element_chunk_pairs < 1:
        raise ConfigError(f"element_chunk_pairs must be >= 1, got {element_chunk_pairs}")

    lines = [
        f"nft add table ip {table_name}",
        f"nft add chain {table_name} {chain_name} "
        "{ type filter hook forward priority 0 \\; }",
    ]
    for cls in classes:
        set_name = f"nodes_{cls.mark}"
        lines.append(
            f"nft add set {table_name} {set_name} "
            "{ type ipv4_addr . ipv4_addr \\; }"
        )
        for start in range(0, len(cls.lo), element_chunk_pairs):
            end = start + element_chunk_pairs
            chunk = zip(cls.lo[start:end], cls.hi[start:end])
            elements = ", ".join([f"{lo} . {hi}, {hi} . {lo}" for lo, hi in chunk])
            lines.append(f"nft add element {table_name} {set_name} {{ {elements} }}")
        lines.append(
            f"nft add rule {table_name} {chain_name} "
            f"ip saddr . ip daddr @{set_name} meta mark set {cls.mark}"
        )
    return CommandScript(lines=tuple(lines))
