"""Delay-matrix ingestion and delay-class assignment.

A delay matrix holds one-way delays in milliseconds between every pair of
emulated nodes. The pipeline is: load (or subsample) a matrix, optionally
inflate it by a global factor, quantize entries to multiples of a quantum,
then group unordered node pairs by quantized delay into classes. Each class
receives an integer mark: classes are sorted by delay ascending and the mark
is the 1-based position in that order. Marks later drive both the firewall
marking rules and the queueing-tree filters.

A class map holds one address table, `addrs`: the distinct addresses its
pairs use, in numeric order. A class keeps its pairs as two integer columns
of positions in it, `lo` and `hi`: at the paper's 3997 nodes, 8M pairs in
32 MB of `uint16`, checked as arrays. Positions become strings again only
where text is made: the class-map file, the nft script, the pairs of a class
that fails `verify_plan`, and `DelayClass.pairs`, which builds the (lo, hi)
tuples on first read.

The module also writes and reads the class-map file (`class_map_json`,
`load_class_map`) and sizes the queueing tree for a class count
(`compute_bands`), so planning a class map from a matrix loads no other
latem module.

All operations are pure; matrices and class maps are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import gc
import ipaddress
import json
import math
import re
from array import array
from collections import defaultdict
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Iterator, Mapping, Sequence, Union

from .errors import CapacityError, ConfigError, ShapeError, SizeError, SymmetryError

if TYPE_CHECKING:  # numpy is imported by the functions that use it
    import numpy as np

ROUNDING_MODES = ("nearest-half-up", "floor", "ceil")

# The queueing tree is two levels of prio qdiscs of at most MAX_BANDS bands
# each; one of its leaves carries unmarked traffic, so it holds MAX_CLASSES.
MAX_BANDS = 16
MAX_CLASSES = MAX_BANDS * MAX_BANDS - 1

Factor = Union[int, float, Fraction]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; restore its previous state on exit.

    Parsing a class map's JSON or verifying a plan allocates millions of
    containers that hold no reference cycles, and each collection pass
    would re-scan all of them.
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


def _check_values(entries: np.ndarray) -> None:
    import numpy as np

    if not entries.size:
        return
    # A NaN makes both extremes NaN, so two reductions check every entry
    # with no matrix-sized mask.
    lowest, highest = entries.min(), entries.max()
    if not (np.isfinite(lowest) and np.isfinite(highest)):
        raise ValueError("matrix contains NaN or infinite entries")
    if lowest < 0:
        raise ValueError("matrix contains negative delays")


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
        _check_values(e)
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


# An unordered node pair, as IP strings ordered by numeric address.
IpPair = tuple[str, str]


def _ip_key(ip: str) -> int:
    return int(ipaddress.IPv4Address(ip))


def allocate_ips(base: str, count: int) -> list[str]:
    """Sequential IPv4 allocation skipping .0 and .255 host octets."""
    out: list[str] = []
    addr = _ip_key(base)
    while len(out) < count:
        if addr & 0xFF not in (0, 255):
            out.append(str(ipaddress.IPv4Address(addr)))
        addr += 1
    return out


def _columns(lo_hi: np.ndarray, table: Sequence[str]) -> np.ndarray:
    """Rows lo and hi of positions in `table`, read-only: `uint16`, or `uint32` past 65,536."""
    import numpy as np

    columns = lo_hi.astype(np.uint16 if len(table) <= 1 << 16 else np.uint32)
    columns.setflags(write=False)
    return columns


@dataclass(frozen=True, eq=False)
class DelayClass:
    """Unordered IP pairs sharing one quantized delay, held as two columns.

    Pair k is `(addrs[lo[k]], addrs[hi[k]])`: the columns hold positions in
    the address table `addrs`, which every class of a map shares. In a
    `DelayClassMap` the table is in numeric order and the columns are
    read-only arrays of `uint16` (`uint32` past 65,536 addresses) with
    lo < hi pair by pair.
    """

    mark: int
    delay_ms: int
    lo: np.ndarray
    hi: np.ndarray
    addrs: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ConfigError(
                f"class with mark {self.mark} has {len(self.lo)} lower and "
                f"{len(self.hi)} higher addresses"
            )

    def __eq__(self, other: object) -> bool:
        import numpy as np

        return isinstance(other, DelayClass) and (
            (self.mark, self.delay_ms, self.addrs) == (other.mark, other.delay_ms, other.addrs)
        ) and np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)

    def addresses(self) -> tuple[list[str], list[str]]:
        """The lower and the higher address of each pair, as two lists."""
        import numpy as np

        table = np.array(self.addrs, dtype=object)
        return table[self.lo].tolist(), table[self.hi].tolist()

    @cached_property
    def pairs(self) -> tuple[IpPair, ...]:
        """The pairs as `(lo, hi)` tuples, built on the first read and kept."""
        return tuple(zip(*self.addresses()))


def _check_repeats(classes: Sequence[DelayClass], addrs: tuple[str, ...]) -> None:
    """Raise, naming the first repeat in class order, if a pair code
    `lo * len(addrs) + hi` repeats among checked classes."""
    import numpy as np

    n = len(addrs)
    dt = np.uint32 if n <= 1 << 16 else np.uint64  # holds the codes, up to n * n - 1
    codes = np.concatenate([np.empty(0, dt), *(c.lo.astype(dt) * dt(n) + c.hi for c in classes)])
    ordered = np.sort(codes)
    if (ordered[1:] == ordered[:-1]).any():
        order = np.argsort(codes, kind="stable")  # a code's first use comes first
        lo, hi = divmod(int(codes[order[1:][ordered[1:] == ordered[:-1]].min()]), n)
        raise ConfigError(f"pair {(addrs[lo], addrs[hi])} appears in more than one class")


@dataclass(frozen=True)
class DelayClassMap:
    """Ordered delay classes with contiguous marks 1..K and disjoint pair sets,
    over one address table `addrs` in numeric order.

    Built in code or read from JSON, a map passes the constructor's checks:
    every class holds one table, each entry parsed once; per class,
    positions in range, IPv4 string addresses, two distinct ones per pair,
    marks 1..K, rising delays, at least one pair; no pair in two classes.
    Errors come in class order, a repeat among earlier classes before a
    later class's own. Each pair is put in numeric order, and the table
    becomes its addresses in numeric order, each once.
    """

    classes: tuple[DelayClass, ...]

    def __post_init__(self) -> None:
        import numpy as np

        table = self.addrs  # the first class's, as given
        keys = np.full(len(table), -1, dtype=np.int64)  # -1: not an IPv4 string
        for p, ip in enumerate(table):
            with suppress(ValueError):  # IPv4Address would take a number as an address
                keys[p] = _ip_key(ip) if isinstance(ip, str) else -1
        distinct, first = np.unique(keys[keys >= 0], return_index=True)
        addrs = tuple(table[p] for p in np.flatnonzero(keys >= 0)[first].tolist())
        position = np.searchsorted(distinct, keys)  # of each entry that is an address
        checked: list[DelayClass] = []
        for i, cls in enumerate(self.classes):
            where = f"class with mark {cls.mark}"
            prev_delay = checked[-1].delay_ms if checked else -1
            try:
                if cls.addrs != table:
                    raise ConfigError(f"{where} holds another address table than the first class")
                both = np.concatenate([cls.lo, cls.hi]).astype(np.int64)  # lo column, then hi
                if ((both < 0) | (both >= len(table))).any():
                    raise ConfigError(f"{where} holds an address position outside the table")
                bad = both[keys[both] < 0]
                if bad.size:
                    ip = table[bad[0]]
                    if not isinstance(ip, str):
                        raise ConfigError(f"{where}: address {ip!r} is not a string")
                    _ip_key(ip)  # raises, naming the address
                lo, hi = np.split(position[both], 2)
                same = lo[lo == hi]
                if same.size:
                    ip = addrs[same[0]]
                    raise ConfigError(f"a pair needs two distinct addresses, got {ip} twice")
                if cls.mark != i + 1:
                    raise ConfigError(
                        f"marks must be contiguous from 1; position {i} has mark {cls.mark}"
                    )
                if cls.delay_ms <= prev_delay:
                    raise ConfigError(
                        f"class delays must strictly increase with mark; "
                        f"mark {cls.mark} has delay {cls.delay_ms} after {prev_delay}"
                    )
                if not lo.size:
                    raise ConfigError(f"{where} has no pairs")
            except (ConfigError, ValueError):
                _check_repeats(checked, addrs)
                raise
            ordered = _columns(np.stack([np.minimum(lo, hi), np.maximum(lo, hi)]), addrs)
            checked.append(DelayClass(cls.mark, cls.delay_ms, *ordered, addrs))
        _check_repeats(checked, addrs)
        object.__setattr__(self, "classes", tuple(checked))

    @property
    def addrs(self) -> tuple[str, ...]:
        """The address table every class holds."""
        return self.classes[0].addrs if self.classes else ()

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[DelayClass]:
        return iter(self.classes)

    def class_delays(self) -> dict[int, int]:
        """Mark-to-delay map consumed by the queueing-tree planner."""
        return {c.mark: c.delay_ms for c in self.classes}

    def to_json_dict(self) -> dict:
        return {
            "classes": [
                {
                    "mark": c.mark,
                    "delay_ms": c.delay_ms,
                    "pairs": [[lo, hi] for lo, hi in zip(*c.addresses())],
                }
                for c in self.classes
            ]
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "DelayClassMap":
        """Read the map `to_json_dict` or `class_map_json` writes.

        Each address gets a position in one table when it is first met; the
        constructor checks the rest. A missing key is named with its class's
        position, and a mark or delay that is not a JSON integer is refused,
        not truncated.
        """
        positions: defaultdict[Any, int] = defaultdict(count().__next__)  # 0, 1, 2, ...
        at = positions.__getitem__
        rows = []
        try:
            for i, c in enumerate(_member(data, "classes", "the class map")):
                where = f"the class at position {i}"
                mark, delay_ms = _json_int(c, "mark", where), _json_int(c, "delay_ms", where)
                pairs = _member(c, "pairs", where)
                try:
                    lo = [a for a, _ in pairs]
                except ValueError as exc:  # only the unpacking raises one here
                    raise ConfigError(
                        f"class with mark {mark}: a pair must hold exactly two "
                        f"addresses ({exc})"
                    ) from None
                hi = [b for _, b in pairs]
                rows.append((mark, delay_ms, array("I", map(at, lo)), array("I", map(at, hi))))
            table = tuple(positions)
            return cls(classes=tuple(DelayClass(*row, table) for row in rows))
        except TypeError as exc:  # e.g. a nested list where an address belongs
            raise ConfigError(f"malformed class map ({exc})") from None


def _member(obj: Mapping, key: str, where: str) -> Any:
    try:
        return obj[key]
    except KeyError:
        raise ConfigError(f"{where} has no {key!r}") from None


def _json_int(obj: Mapping, key: str, where: str) -> int:
    value = _member(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, int):  # JSON true is no number
        raise ConfigError(f"{where}: {key} must be a JSON integer, got {json.dumps(value)}")
    return value


def compute_bands(class_count: int) -> int:
    """Minimal band count b with b*b >= class_count + 1, at least 2."""
    if class_count < 1:
        raise ConfigError(f"class_count must be >= 1, got {class_count}")
    if class_count > MAX_CLASSES:
        raise CapacityError(
            f"{class_count} classes exceed the {MAX_CLASSES} the two-level tree "
            "can hold; use a coarser quantum to reduce the class count"
        )
    b = math.isqrt(class_count + 1)
    if b * b < class_count + 1:
        b += 1
    return max(2, b)


def gathered(table: np.ndarray, *columns: tuple[int, np.ndarray]) -> str:
    """Text of rows of table positions, by one gather and one join, with no
    Python code per row.

    `table` is an object array of strings, one row per form of the address
    table (say, each address with a separator after it). Row k of the text
    is `table[f, col[k]]` for each `(f, col)` of `columns` in turn, and the
    rows follow in order. The columns are cast to `intp` before the offset
    `f * m` is added (m = the table's row length), since `uint16` positions
    plus an offset past 65,535 would wrap.
    """
    import numpy as np

    m = table.shape[1]
    index = np.empty((len(columns[0][1]), len(columns)), dtype=np.intp)
    for j, (f, col) in enumerate(columns):
        index[:, j] = col
        index[:, j] += f * m
    return "".join(table.take(index.ravel()).tolist())


def class_map_json(classes: DelayClassMap, policy: QuantizationPolicy) -> Iterator[str]:
    """The class map plus the policy's quantum and rounding as JSON text, in pieces.

    Joined, the pieces are byte-identical to `json.dumps(payload,
    sort_keys=True, separators=(",", ":")) + "\n"` with payload
    `classes.to_json_dict()` plus "quantum_ms" and "rounding": one compact
    line. They are a head, one piece per class and a tail, each made when
    it is asked for, so a writer holds one class's text at a time and
    never the whole map. Each table address is quoted once, and a class's
    pairs are one `gathered` read of the quoted table.
    """
    import numpy as np

    # '"lo",' and '"hi"],[' per pair; the last '],[' gives way to the list's ']]'.
    quoted = [json.dumps(ip) for ip in classes.addrs]
    table = np.array([[q + "," for q in quoted], [q + "],[" for q in quoted]], dtype=object)
    yield '{"classes":['
    sep = ""
    for c in classes:
        pairs = gathered(table, (0, c.lo), (1, c.hi))[:-3]
        yield (
            f'{sep}{{"delay_ms":{json.dumps(c.delay_ms)},"mark":{json.dumps(c.mark)},'
            f'"pairs":[[{pairs}]]}}'
        )
        sep = ","
    yield (
        f'],"quantum_ms":{json.dumps(policy.quantum_ms)},'
        f'"rounding":{json.dumps(policy.rounding)}}}\n'
    )


def load_class_map(path: str | Path) -> DelayClassMap:
    """Read a class-map file, as `class_map_json` writes it."""
    # One pause covers the parse and the reshaping, and the parsed JSON is
    # dropped inside it, so no collection ever scans its pair lists.
    with gc_paused():
        data = json.loads(Path(path).read_text())
        classes = DelayClassMap.from_json_dict(data)
        del data
    return classes


# np.loadtxt reports a bad cell by 0-based data row and a ragged row 1-based.
_LOADTXT_BAD_CELL = re.compile(r"could not convert string (.*) at row (\d+), column (\d+)")
_LOADTXT_RAGGED = re.compile(r"number of columns changed from (\d+) to (\d+) at row (\d+)")


def _draw(n: int, count: int, seed: int) -> np.ndarray:
    """`count` of the indices 0..n-1, drawn seeded without replacement, ascending."""
    import numpy as np

    if not 1 <= count <= n:
        raise SizeError(f"cannot select {count} of {n} nodes")
    return np.sort(np.random.default_rng(seed).choice(n, size=count, replace=False))


# What bytes.strip removes: a line of only these is blank.
_NON_BLANK = re.compile(rb"[^ \t\n\r\x0b\x0c]")


def _line_bounds(data: bytes) -> Iterator[tuple[int, int]]:
    """Each line's (start, end) offsets in data, its ending left out.

    The lines are those of `data.splitlines()`: each ends at "\n", "\r\n"
    or "\r", or at the end of data. Each byte is searched once for each
    ending, and no line is copied.
    """
    size = len(data)
    pos = 0
    nl = cr = -1  # the next "\n" and "\r" at or after pos, or size
    while pos < size:
        if nl < pos:
            nl = data.find(b"\n", pos) % (size + 1)  # -1 becomes size
        if cr < pos:
            cr = data.find(b"\r", pos) % (size + 1)
        end = min(nl, cr)
        yield pos, end
        pos = end + 2 if end == cr and end + 1 == nl else end + 1


def load_matrix(
    source: Union[str, Path, IO[str], IO[bytes]],
    count: int | None = None,
    seed: int = 0,
) -> DelayMatrix:
    """Parse a delay matrix from UTF-8 text, one row per line.

    Cells are decimal milliseconds separated by whitespace or commas; the
    delimiter is a comma when the first data line holds one. Trailing
    whitespace and blank lines are tolerated. Lines end at "\n", "\r\n" or
    "\r"; a form feed or vertical tab is whitespace inside a row.

    With `count`, the result equals `subsample(load_matrix(source),
    count, seed)`, but the indices are drawn from the row count first and
    only the kept rows are decoded and parsed. Every cell of a kept row is
    checked, in the dropped columns too; a row that is not kept is not
    parsed, so a bad cell, a ragged width or a byte that is not UTF-8 there
    goes unreported.
    """
    import numpy as np

    if hasattr(source, "read"):
        data = source.read()  # type: ignore[union-attr]
        if isinstance(data, str):
            data = data.encode()
    else:
        data = Path(source).read_bytes()

    line_nos: list[int] = []
    bounds: list[tuple[int, int]] = []  # each non-blank line's start and end in data
    for line_no, (start, end) in enumerate(_line_bounds(data), start=1):
        if _NON_BLANK.search(data, start, end):
            line_nos.append(line_no)
            bounds.append((start, end))
    if not bounds:
        raise ShapeError("matrix source contains no rows")
    delimiter = "," if data.find(b",", *bounds[0]) >= 0 else None
    n = len(bounds)
    kept = range(n)  # each parsed row's index among all rows
    if count is not None and count != n:
        kept = _draw(n, count, seed).tolist()
        bounds = [bounds[i] for i in kept]
        line_nos = [line_nos[i] for i in kept]
    rows: list[str] = []
    with memoryview(data) as view:
        for line_no, (start, end) in zip(line_nos, bounds):
            try:
                rows.append(str(view[start:end], "utf-8"))
            except UnicodeDecodeError as exc:
                raise ValueError(f"line {line_no}: not UTF-8 text ({exc})") from None
    del data

    try:
        entries = np.loadtxt(rows, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError as exc:
        if m := _LOADTXT_BAD_CELL.search(str(exc)):
            raise ValueError(
                f"line {line_nos[int(m.group(2))]}: non-numeric cell "
                f"({m.group(1)} in column {m.group(3)})"
            ) from None
        if m := _LOADTXT_RAGGED.search(str(exc)):
            raise ShapeError(
                f"row {kept[int(m.group(3)) - 1]} has {m.group(2)} cells, "
                f"expected {m.group(1)}"
            ) from None
        raise
    del rows
    if entries.shape[1] != n:
        raise ShapeError(f"matrix is {n}x{entries.shape[1]}, expected square")
    if len(kept) < n:
        _check_values(entries)  # the dropped columns' cells were parsed too
        entries = entries[:, kept]
    entries.setflags(write=False)  # nothing else holds it, so DelayMatrix need not copy
    return DelayMatrix(entries)


def subsample(m: DelayMatrix, count: int, seed: int) -> DelayMatrix:
    """Principal submatrix on `count` indices drawn uniformly without replacement.

    The draw is seeded and deterministic; indices are kept in ascending order
    so a full-size subsample reproduces the input exactly.
    """
    import numpy as np

    idx = _draw(m.n, count, seed)
    return DelayMatrix(m.entries[np.ix_(idx, idx)])


def inflate(m: DelayMatrix, factor: Factor) -> DelayMatrix:
    """Multiply every delay by a positive factor; structure is preserved."""
    import numpy as np

    if factor <= 0:
        raise ValueError(f"inflation factor must be positive, got {factor}")
    with np.errstate(over="ignore"):  # DelayMatrix rejects an infinite product
        entries = m.entries * float(factor)
    entries.setflags(write=False)  # nothing else holds it, so DelayMatrix need not copy
    return DelayMatrix(entries)


# Cells quantized per pass: the float steps of one pass stay cache-sized.
_QUANTIZE_CELLS = 1 << 16


def quantize(m: DelayMatrix, policy: QuantizationPolicy) -> np.ndarray:
    """Map each entry to an integer multiple of the quantum.

    nearest-half-up rounds .5 steps away from zero (25ms at quantum 10 gives
    30ms); floor and ceil snap down or up. Idempotent on its own output.
    Each entry is divided by the quantum, rounded to a whole step and
    multiplied back in integers. A block of rows at a time is divided and
    rounded straight into the int64 result, so the result is the only
    matrix-sized array made, and the matrix is not written.
    """
    import numpy as np

    q = policy.quantum_ms
    entries = m.entries
    steps = np.empty(entries.shape, dtype=np.int64)
    round_step = np.ceil if policy.rounding == "ceil" else np.floor
    rows = max(1, _QUANTIZE_CELLS // max(m.n, 1))
    for start in range(0, m.n, rows):
        ratio = entries[start : start + rows] / q
        if policy.rounding == "nearest-half-up":
            ratio += 0.5
        # The rounded steps are whole numbers, so the cast is exact.
        round_step(ratio, out=steps[start : start + rows], casting="unsafe")
    steps *= q
    return steps


def build_classes(
    quantized: np.ndarray,
    ips: Sequence[str],
    policy: QuantizationPolicy,
) -> DelayClassMap:
    """Group unordered node pairs by quantized delay and assign marks.

    One class per distinct delay value, sorted ascending; the mark is the
    1-based position in that order. Zero-delay pairs are omitted when the
    policy drops the zero class (their traffic takes the default no-delay
    path, which is behaviorally identical). Within a class, pairs run in
    numeric (lower, higher) address order.

    Only the strict upper triangle is read, one row at a time. Each pair
    becomes one int64 code, `delay << 2w | rank(lo) << w | rank(hi)`, where
    rank is an address's position in numeric order and w the bit width of
    n - 1. One in-place sort of the codes orders the pairs by delay, then
    lower and higher address; the classes are the runs of equal delay, and
    each column is decoded from its run with a shift, a mask and a lookup of
    the rank's position among the addresses some pair uses (the map's table).
    A delay too large to leave room for the two ranks is rejected.
    """
    import numpy as np

    q = np.asarray(quantized)
    n = q.shape[0]
    ip_list = list(ips)
    if len(ip_list) != n:
        raise ConfigError(f"need {n} addresses, got {len(ip_list)}")
    keys = np.array([_ip_key(ip) for ip in ip_list], dtype=np.int64)  # raises on malformed
    if len(set(ip_list)) != n:
        dupes = sorted({ip for ip in ip_list if ip_list.count(ip) > 1})
        raise ConfigError(f"duplicate node addresses: {dupes}")

    by_addr = np.argsort(keys)  # the node at each rank
    rank = np.empty(n, dtype=np.int64)
    rank[by_addr] = np.arange(n)
    w = max(n - 1, 1).bit_length()
    limit = 1 << (63 - 2 * w)  # delays below this keep a code non-negative
    lowest = highest = 0
    used = np.zeros(n, dtype=bool)  # by rank: whether some pair holds the address
    codes = np.empty(n * (n - 1) // 2, dtype=np.int64)
    size = 0
    for i in range(n - 1):
        row = q[i, i + 1 :]
        if q.dtype.kind == "f" and not np.isfinite(row).all():
            raise ValueError("quantized delays must be finite")
        lowest, highest = min(lowest, row.min()), max(highest, row.max())
        # A delay truncates toward zero, as int() does: -1 < d < 0 is 0.
        if lowest <= -1 or highest >= limit:
            continue  # raised below, once every row is known to be finite
        delay, other = row.astype(np.int64), rank[i + 1 :]
        if policy.drop_zero_class:
            keep = delay != 0
            delay, other = delay[keep], other[keep]
        used[other] = True
        used[rank[i]] |= delay.size > 0
        code = codes[size : size + delay.size]
        np.left_shift(delay, 2 * w, out=code)
        code |= np.minimum(other, rank[i]) << w
        code |= np.maximum(other, rank[i])
        size += delay.size
    if lowest <= -1:
        raise ConfigError(f"quantized delays must be non-negative, got {int(lowest)}")
    if highest >= limit:
        raise ConfigError(
            f"delay {int(highest)} ms is too large to class {n} addresses "
            f"(at most {limit - 1})"
        )
    codes = codes[:size]
    codes.sort()
    delay = codes >> 2 * w
    changes = np.flatnonzero(delay[1:] != delay[:-1]) + 1  # np.diff's nonzeros, as bools
    starts = [0, *changes.tolist()] if size else []
    delays = delay[starts].tolist()
    del delay

    # Gathering through an object array reuses the callers' address strings.
    addrs = tuple(np.array(ip_list, dtype=object)[by_addr[used]].tolist())
    position = np.cumsum(used) - 1  # by rank
    mask = (1 << w) - 1
    classes = []
    for mark, (delay_ms, start, end) in enumerate(zip(delays, starts, [*starts[1:], size]), 1):
        run = codes[start:end]
        columns = _columns(position[np.stack([(run >> w) & mask, run & mask])], addrs)
        classes.append(DelayClass(mark, delay_ms, *columns, addrs))
    # Each unordered pair of distinct addresses is read once, so every rule
    # holds by construction: the map skips the constructor's work per pair.
    cmap = object.__new__(DelayClassMap)
    object.__setattr__(cmap, "classes", tuple(classes))
    return cmap
