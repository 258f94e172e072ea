"""Pair-loop reference for `delay_model.build_classes`, pair helpers, and
the subsample reference for `delay_model.load_matrix(count=)`.

`build_classes_loop` is the plain O(N^2) Python implementation the
vectorized one replaced. Tests require both to return equal class maps on
the same inputs. `delay_classes` and `all_pairs` let tests write and read
classes' address columns as pair tuples. `subsample` draws from a loaded
matrix the nodes `load_matrix(count=, seed=)` keeps while it parses.
"""

from __future__ import annotations

import ipaddress
from typing import Sequence

import numpy as np

from latem import delay_model as dm
from latem.errors import ConfigError


def _ip_key(ip: str) -> int:
    return int(ipaddress.IPv4Address(ip))


def make_pair(a: str, b: str) -> dm.IpPair:
    """Normalize an unordered pair to (lower-IP, higher-IP) numeric order."""
    key_a, key_b = _ip_key(a), _ip_key(b)
    if key_a == key_b:
        raise ConfigError(f"a pair needs two distinct addresses, got {a} twice")
    return (a, b) if key_a < key_b else (b, a)


def delay_classes(*rows) -> tuple[dm.DelayClass, ...]:
    """One class per (mark, delay_ms, pairs) row, each pair (lower, higher) as
    given, as positions in one shared table of the addresses the rows name,
    in the order they are first named."""
    table: dict[str, int] = {}
    for _, _, pairs in rows:
        for pair in pairs:
            for ip in pair:
                table.setdefault(ip, len(table))
    addrs = tuple(table)
    return tuple(
        dm.DelayClass(
            mark, delay_ms, [table[lo] for lo, _ in pairs], [table[hi] for _, hi in pairs], addrs
        )
        for mark, delay_ms, pairs in rows
    )


def all_pairs(classes: dm.DelayClassMap) -> set[dm.IpPair]:
    """Every pair of every class, as (lower, higher) tuples."""
    return {pair for c in classes for pair in c.pairs}


def subsample(m: dm.DelayMatrix, count: int, seed: int) -> dm.DelayMatrix:
    """Principal submatrix on `count` indices drawn seeded without
    replacement, in ascending order."""
    idx = np.sort(np.random.default_rng(seed).choice(m.n, size=count, replace=False))
    return dm.DelayMatrix(m.entries[np.ix_(idx, idx)])


def build_classes_loop(quantized: np.ndarray, ips: Sequence[str]) -> dm.DelayClassMap:
    q = np.asarray(quantized)
    n = q.shape[0]
    ip_list = list(ips)
    if len(ip_list) != n:
        raise ConfigError(f"need {n} addresses, got {len(ip_list)}")
    for ip in ip_list:
        ipaddress.IPv4Address(ip)
    if len(set(ip_list)) != n:
        dupes = sorted({ip for ip in ip_list if ip_list.count(ip) > 1})
        raise ConfigError(f"duplicate node addresses: {dupes}")

    by_delay: dict[int, list[dm.IpPair]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = int(q[i, j])
            if d == 0:
                continue
            by_delay.setdefault(d, []).append(make_pair(ip_list[i], ip_list[j]))

    rows = []
    for mark, delay in enumerate(sorted(by_delay), start=1):
        pairs = sorted(by_delay[delay], key=lambda p: (_ip_key(p[0]), _ip_key(p[1])))
        rows.append((mark, delay, pairs))
    return dm.DelayClassMap(classes=delay_classes(*rows))
