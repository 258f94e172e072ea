"""Ordered command-line scripts, the common carrier for every emitted plan."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True)
class CommandScript:
    """An ordered list of single-line shell commands.

    Emission is byte-deterministic: equal inputs produce equal scripts.
    """

    lines: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        for i, line in enumerate(self.lines):
            if "\n" in line or "\r" in line:
                raise ValueError(f"line {i} contains a newline")
            if line != line.rstrip():
                raise ValueError(f"line {i} has trailing whitespace")

    def text(self) -> str:
        """Render as POSIX shell text, one command per line."""
        if not self.lines:
            return ""
        return "\n".join(self.lines) + "\n"

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self) -> Iterator[str]:
        return iter(self.lines)
