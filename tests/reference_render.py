"""Per-pair references for the nft script and the class-map text.

These are the renderers that `nft_planner.NftScript` and
`delay_model.class_map_json` replaced: one f-string or one join per pair,
over address strings looked up pair by pair. Tests require the same text
from both on the same class maps.
"""

from __future__ import annotations

import json

from latem import nft_planner
from latem.delay_model import ROUNDING, DelayClassMap

TABLE, CHAIN = nft_planner.TABLE, nft_planner.CHAIN


def nft_lines_per_pair(classes: DelayClassMap) -> list[str]:
    """The marking script's lines, `nft_planner.ELEMENT_CHUNK_PAIRS` pairs per element line."""
    lines = [
        f"nft add table ip {TABLE}",
        f"nft add chain {TABLE} {CHAIN} "
        "{ type filter hook forward priority 0 \\; }",
    ]
    chunk = nft_planner.ELEMENT_CHUNK_PAIRS
    for cls in classes:
        set_name = f"nodes_{cls.mark}"
        lines.append(
            f"nft add set {TABLE} {set_name} "
            "{ type ipv4_addr . ipv4_addr \\; }"
        )
        los, his = cls.addresses()
        elements = [f"{lo} . {hi}, {hi} . {lo}" for lo, hi in zip(los, his)]
        for start in range(0, len(elements), chunk):
            body = ", ".join(elements[start : start + chunk])
            lines.append(f"nft add element {TABLE} {set_name} {{ {body} }}")
        lines.append(
            f"nft add rule {TABLE} {CHAIN} "
            f"ip saddr . ip daddr @{set_name} meta mark set {cls.mark}"
        )
    return lines


def class_map_json_per_pair(classes: DelayClassMap, quantum_ms: int) -> str:
    """The class-map file's text, each pair joined as '"lo","hi"'."""
    q = [json.dumps(ip) for ip in classes.addrs].__getitem__
    body = []
    for c in classes:
        pairs = "],[".join(map(",".join, zip(map(q, c.lo.tolist()), map(q, c.hi.tolist()))))
        body.append(
            f'{{"delay_ms":{json.dumps(c.delay_ms)},"mark":{json.dumps(c.mark)},'
            f'"pairs":[[{pairs}]]}}'
        )
    return (
        f'{{"classes":[{",".join(body)}],"quantum_ms":{json.dumps(quantum_ms)},'
        f'"rounding":{json.dumps(ROUNDING)}}}\n'
    )
