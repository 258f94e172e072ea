"""Ordered command-line scripts, the common carrier for every emitted plan."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import add
from typing import Iterator


class Script:
    """An ordered sequence of single-line shell commands.

    A subclass decides how the lines are held and yields them in order. No
    line holds a newline or ends in whitespace. Emission is
    byte-deterministic: equal inputs produce equal scripts.

    The text is also read in pieces, each one or more whole lines with
    their newlines: one line per piece here, larger pieces where a subclass
    renders several lines at once. A writer passes the pieces to
    `writelines` as they are made, so no script's whole text is held at once
    (the nft step alone can pass 400 MB).
    """

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[str]:
        raise NotImplementedError

    def pieces(self) -> Iterator[str]:
        """The text in order, in pieces that each end in a newline."""
        return map(add, self, repeat("\n"))


@dataclass(frozen=True)
class CommandScript(Script):
    """A script held as a tuple of lines, each checked on construction."""

    lines: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        for i, line in enumerate(self.lines):
            if "\n" in line or "\r" in line:
                raise ValueError(f"line {i} contains a newline")
            if line != line.rstrip():
                raise ValueError(f"line {i} has trailing whitespace")

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self) -> Iterator[str]:
        return iter(self.lines)
