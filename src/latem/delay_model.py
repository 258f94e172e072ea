"""Delay-matrix ingestion and delay-class assignment.

A delay matrix holds one-way delays in milliseconds between every pair of
emulated nodes. The pipeline is: load (or subsample) a matrix, optionally
inflate it by a global factor, quantize entries to multiples of a quantum,
then group unordered node pairs by quantized delay into classes. Each class
receives an integer mark: classes are sorted by delay ascending and the mark
is the 1-based position in that order. Marks later drive both the firewall
marking rules and the queueing-tree filters.

All operations are pure; matrices and class maps are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import gc
import ipaddress
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator, Mapping, Sequence, Union

from .errors import ConfigError, ShapeError, SizeError, SymmetryError

if TYPE_CHECKING:  # numpy is imported by the functions that use it
    import numpy as np

ROUNDING_MODES = ("nearest-half-up", "floor", "ceil")

Factor = Union[int, float, Fraction]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; restore its previous state on exit.

    Building a class map, parsing its JSON or verifying a plan allocates
    millions of containers that hold no reference cycles, and each
    collection pass would re-scan all of them.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _freeze(entries: np.ndarray) -> np.ndarray:
    import numpy as np

    # A read-only float64 array that owns its data (as load_matrix makes)
    # is kept as is; anything else is copied, since freezing a caller's
    # array in place would be a surprise.
    if (
        isinstance(entries, np.ndarray)
        and entries.dtype == np.float64
        and entries.flags.owndata
        and not entries.flags.writeable
    ):
        return entries
    out = np.array(entries, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DelayMatrix:
    """Symmetric n-by-n matrix of one-way delays in milliseconds."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        e = _freeze(self.entries)
        object.__setattr__(self, "entries", e)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValueError("matrix contains NaN or infinite entries")
        if np.any(e < 0):
            raise ValueError("matrix contains negative delays")
        if np.any(np.diag(e) != 0):
            raise ValueError("matrix diagonal must be all zeros")
        if not np.array_equal(e, e.T):
            i, j = np.argwhere(e != e.T)[0]
            raise SymmetryError(
                f"entry [{i}][{j}]={e[i, j]} differs from [{j}][{i}]={e[j, i]}"
            )

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def max_delay_ms(self) -> float:
        return float(self.entries.max()) if self.n else 0.0

    def __eq__(self, other: object) -> bool:
        import numpy as np

        if not isinstance(other, DelayMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)


@dataclass(frozen=True)
class QuantizationPolicy:
    """How raw delays are mapped onto the discrete class grid."""

    quantum_ms: int = 10
    rounding: str = "nearest-half-up"
    drop_zero_class: bool = True

    def __post_init__(self) -> None:
        if self.quantum_ms < 1:
            raise ConfigError(f"quantum_ms must be >= 1, got {self.quantum_ms}")
        if self.rounding not in ROUNDING_MODES:
            raise ConfigError(
                f"unknown rounding mode {self.rounding!r}; expected one of {ROUNDING_MODES}"
            )


# An unordered node pair, stored as IP strings ordered by numeric address.
IpPair = tuple[str, str]


def _ip_key(ip: str) -> int:
    return int(ipaddress.IPv4Address(ip))


def _ordered(a: str, key_a: int, b: str, key_b: int) -> IpPair:
    if key_a == key_b:
        raise ConfigError(f"a pair needs two distinct addresses, got {a} twice")
    return (a, b) if key_a < key_b else (b, a)


def make_pair(a: str, b: str) -> IpPair:
    """Normalize an unordered pair to (lower-IP, higher-IP) numeric order."""
    return _ordered(a, _ip_key(a), b, _ip_key(b))


class _KeyMemo(dict):
    """Address -> integer key; each distinct address is checked and parsed once."""

    mark = 0  # the class being read, for errors

    def __missing__(self, ip: str) -> int:
        # IPv4Address would take a JSON number or boolean as an address.
        if not isinstance(ip, str):
            raise ConfigError(f"class with mark {self.mark}: address {ip!r} is not a string")
        key = self[ip] = _ip_key(ip)
        return key


@dataclass(frozen=True)
class DelayClass:
    """A set of unordered IP pairs sharing one quantized delay."""

    mark: int
    delay_ms: int
    pairs: tuple[IpPair, ...]

    def __post_init__(self) -> None:
        if self.mark < 1:
            raise ConfigError(f"mark must be positive, got {self.mark}")
        if self.delay_ms < 0:
            raise ConfigError(f"delay_ms must be non-negative, got {self.delay_ms}")


def _first_repeat(classes: Sequence[DelayClass]) -> IpPair:
    seen: set[IpPair] = set()
    for cls in classes:
        for pair in cls.pairs:
            if pair in seen:
                return pair
            seen.add(pair)
    raise AssertionError("no pair repeats")


@dataclass(frozen=True)
class DelayClassMap:
    """Ordered delay classes with contiguous marks 1..K and disjoint pair sets."""

    classes: tuple[DelayClass, ...]

    def __post_init__(self) -> None:
        seen: set[IpPair] = set()
        total = 0
        prev_delay = -1
        for i, cls in enumerate(self.classes):
            if cls.mark != i + 1:
                raise ConfigError(
                    f"marks must be contiguous from 1; position {i} has mark {cls.mark}"
                )
            if cls.delay_ms <= prev_delay:
                raise ConfigError(
                    f"class delays must strictly increase with mark; "
                    f"mark {cls.mark} has delay {cls.delay_ms} after {prev_delay}"
                )
            prev_delay = cls.delay_ms
            seen.update(cls.pairs)
            total += len(cls.pairs)
            if len(seen) != total:
                raise ConfigError(
                    f"pair {_first_repeat(self.classes)} appears in more than one class"
                )

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[DelayClass]:
        return iter(self.classes)

    def class_delays(self) -> dict[int, int]:
        """Mark-to-delay map consumed by the queueing-tree planner."""
        return {c.mark: c.delay_ms for c in self.classes}

    def all_pairs(self) -> set[IpPair]:
        return {p for c in self.classes for p in c.pairs}

    def to_json_dict(self) -> dict:
        return {
            "classes": [
                {"mark": c.mark, "delay_ms": c.delay_ms, "pairs": [list(p) for p in c.pairs]}
                for c in self.classes
            ]
        }

    @classmethod
    @gc_paused()
    def from_json_dict(cls, data: Mapping) -> "DelayClassMap":
        keys = _KeyMemo()
        classes = []
        try:
            for c in data["classes"]:
                mark = keys.mark = int(c["mark"])
                try:
                    pairs = tuple(
                        _ordered(lo, keys[lo], hi, keys[hi]) for lo, hi in c["pairs"]
                    )
                except ValueError as exc:
                    # Only the unpacking raises a plain ValueError; an address
                    # error is an AddressValueError and keeps its message.
                    if type(exc) is not ValueError:
                        raise
                    raise ConfigError(
                        f"class with mark {mark}: a pair must hold exactly two "
                        f"addresses ({exc})"
                    ) from None
                classes.append(DelayClass(mark=mark, delay_ms=int(c["delay_ms"]), pairs=pairs))
        except TypeError as exc:  # e.g. a nested list where an address belongs
            raise ConfigError(f"malformed class map ({exc})") from None
        return cls(classes=tuple(classes))


class _Quoted(dict):
    """Address -> its JSON string literal; each distinct address is quoted once."""

    def __missing__(self, ip: str) -> str:
        quoted = self[ip] = json.dumps(ip)
        return quoted


def class_map_json(classes: DelayClassMap, policy: QuantizationPolicy) -> str:
    """The class map plus the policy's quantum and rounding as JSON text.

    Byte-identical to `json.dumps(payload, indent=2, sort_keys=True) + "\n"`
    with payload `classes.to_json_dict()` plus "quantum_ms" and "rounding",
    without building the payload or running json's pure-Python indenting
    encoder over every pair.
    """
    quoted = _Quoted()
    blocks = []
    for c in classes:
        if c.pairs:
            pairs = ",\n".join(
                f"        [\n          {quoted[lo]},\n          {quoted[hi]}\n        ]"
                for lo, hi in c.pairs
            )
            pairs = f"[\n{pairs}\n      ]"
        else:
            pairs = "[]"
        blocks.append(
            f'    {{\n      "delay_ms": {json.dumps(c.delay_ms)},\n'
            f'      "mark": {json.dumps(c.mark)},\n      "pairs": {pairs}\n    }}'
        )
    body = "[\n" + ",\n".join(blocks) + "\n  ]" if blocks else "[]"
    return (
        f'{{\n  "classes": {body},\n  "quantum_ms": {json.dumps(policy.quantum_ms)},\n'
        f'  "rounding": {json.dumps(policy.rounding)}\n}}\n'
    )


# np.loadtxt reports a bad cell by 0-based data row and a ragged row 1-based.
_LOADTXT_BAD_CELL = re.compile(r"could not convert string (.*) at row (\d+), column (\d+)")
_LOADTXT_RAGGED = re.compile(r"number of columns changed from (\d+) to (\d+) at row (\d+)")


def load_matrix(source: Union[str, Path, IO[str]], fmt: str = "auto") -> DelayMatrix:
    """Parse a delay matrix from text, one row per line.

    Cells are decimal milliseconds separated by whitespace or commas; with
    fmt="auto" the delimiter is detected from the first data line. Trailing
    whitespace and blank lines are tolerated.
    """
    import numpy as np

    if fmt not in ("auto", "whitespace", "csv"):
        raise ConfigError(f"unknown matrix format {fmt!r}")
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
    else:
        text = Path(source).read_text()

    line_nos: list[int] = []
    rows: list[str] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            line_nos.append(line_no)
            rows.append(line)
    del text
    if not rows:
        raise ShapeError("matrix source contains no rows")
    if fmt == "auto":
        fmt = "csv" if "," in rows[0] else "whitespace"

    try:
        entries = np.loadtxt(
            rows, delimiter="," if fmt == "csv" else None, comments=None, ndmin=2
        )
    except ValueError as exc:
        if m := _LOADTXT_BAD_CELL.search(str(exc)):
            raise ValueError(
                f"line {line_nos[int(m.group(2))]}: non-numeric cell "
                f"({m.group(1)} in column {m.group(3)})"
            ) from None
        if m := _LOADTXT_RAGGED.search(str(exc)):
            raise ShapeError(
                f"row {int(m.group(3)) - 1} has {m.group(2)} cells, expected {m.group(1)}"
            ) from None
        raise
    del rows
    if entries.shape[0] != entries.shape[1]:
        raise ShapeError(f"matrix is {entries.shape[0]}x{entries.shape[1]}, expected square")
    entries.setflags(write=False)  # nothing else holds it, so DelayMatrix need not copy
    return DelayMatrix(entries)


def subsample(m: DelayMatrix, count: int, seed: int) -> DelayMatrix:
    """Principal submatrix on `count` indices drawn uniformly without replacement.

    The draw is seeded and deterministic; indices are kept in ascending order
    so a full-size subsample reproduces the input exactly.
    """
    import numpy as np

    if count < 1:
        raise SizeError(f"count must be positive, got {count}")
    if count > m.n:
        raise SizeError(f"cannot select {count} of {m.n} nodes")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(m.n, size=count, replace=False))
    return DelayMatrix(m.entries[np.ix_(idx, idx)])


def inflate(m: DelayMatrix, factor: Factor) -> DelayMatrix:
    """Multiply every delay by a positive factor; structure is preserved."""
    if factor <= 0:
        raise ValueError(f"inflation factor must be positive, got {factor}")
    return DelayMatrix(m.entries * float(factor))


def quantize(m: DelayMatrix, policy: QuantizationPolicy) -> np.ndarray:
    """Map each entry to an integer multiple of the quantum.

    nearest-half-up rounds .5 steps away from zero (25ms at quantum 10 gives
    30ms); floor and ceil snap down or up. Idempotent on its own output.
    """
    import numpy as np

    q = policy.quantum_ms
    ratio = m.entries / q
    if policy.rounding == "nearest-half-up":
        steps = np.floor(ratio + 0.5)
    elif policy.rounding == "floor":
        steps = np.floor(ratio)
    else:
        steps = np.ceil(ratio)
    return (steps.astype(np.int64)) * q


def build_classes(
    quantized: np.ndarray,
    ips: Mapping[int, str] | Sequence[str],
    policy: QuantizationPolicy,
) -> DelayClassMap:
    """Group unordered node pairs by quantized delay and assign marks.

    One class per distinct delay value, sorted ascending; the mark is the
    1-based position in that order. Zero-delay pairs are omitted when the
    policy drops the zero class (their traffic takes the default no-delay
    path, which is behaviorally identical).
    """
    import numpy as np

    q = np.asarray(quantized)
    n = q.shape[0]
    if isinstance(ips, Mapping):
        ip_list = [ips.get(i) for i in range(n)]
        if any(v is None for v in ip_list):
            missing = [i for i, v in enumerate(ip_list) if v is None]
            raise ConfigError(f"ips missing node indices {missing}")
    else:
        ip_list = list(ips)
        if len(ip_list) != n:
            raise ConfigError(f"need {n} addresses, got {len(ip_list)}")
    keys = np.array([_ip_key(ip) for ip in ip_list], dtype=np.int64)  # raises on malformed
    if len(set(ip_list)) != n:
        dupes = sorted({ip for ip in ip_list if ip_list.count(ip) > 1})
        raise ConfigError(f"duplicate node addresses: {dupes}")

    i, j = np.triu_indices(n, k=1)
    delay = q[i, j]
    if delay.dtype.kind == "f" and not np.isfinite(delay).all():
        raise ValueError("quantized delays must be finite")
    delay = delay.astype(np.int64)  # truncates toward zero, as int() does
    if policy.drop_zero_class:
        keep = delay != 0
        i, j, delay = i[keep], j[keep], delay[keep]
        del keep
    swap = keys[i] > keys[j]
    lo, hi = np.where(swap, j, i), np.where(swap, i, j)
    del i, j, swap
    # Within a class, pairs run in numeric (lower, higher) address order.
    order = np.lexsort((keys[hi], keys[lo], delay))
    lo, hi, delay = lo[order], hi[order], delay[order]
    del order
    delays, sizes = np.unique(delay, return_counts=True)
    del delay

    # Gathering through an object array reuses the callers' address strings.
    ip_arr = np.array(ip_list, dtype=object)
    pairs = zip(ip_arr[lo].tolist(), ip_arr[hi].tolist())
    del lo, hi
    with gc_paused():
        classes = tuple(
            DelayClass(mark=mark, delay_ms=delay_ms, pairs=tuple(islice(pairs, size)))
            for mark, (delay_ms, size) in enumerate(zip(delays.tolist(), sizes.tolist()), start=1)
        )
        return DelayClassMap(classes=classes)
