"""Exception types shared across the toolkit."""

from __future__ import annotations


class LatemError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(LatemError):
    """Matrix is not square."""


class SymmetryError(LatemError):
    """Matrix entries differ across the diagonal."""


class SizeError(LatemError):
    """Requested selection exceeds the available node count."""


class ConfigError(LatemError):
    """Invalid or inconsistent configuration input."""


class EmptyPlanError(LatemError):
    """A script was requested for an empty plan."""


class CapacityError(LatemError):
    """Class count or mark exceeds what the two-level tree can hold."""


class ParseError(LatemError):
    """A script line did not match the expected grammar."""

    def __init__(self, message: str, line_no: int, line: str):
        super().__init__(f"line {line_no}: {message}: {line!r}")
        self.line_no = line_no
        self.line = line


class ServeError(LatemError):
    """Fatal transport failure in the neighbor-resolution daemon."""


class InflationLintError(LatemError):
    """A manifest timer is not tagged with an inflation kind."""


class ValidationError(LatemError):
    """Manifest content violates an invariant."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = []
        if path:
            loc.append(path)
        if line is not None:
            loc.append(f"line {line}")
        prefix = f"[{', '.join(loc)}] " if loc else ""
        super().__init__(prefix + message)
        self.path = path
        self.line = line


class InfeasibleError(LatemError):
    """The RAM model cannot host a launch phase's N nodes under the cap."""


class InventoryError(LatemError):
    """A container's virtual interface could not be discovered."""


class StatsError(LatemError):
    """Memory statistics input is empty or malformed."""


class RetryExhausted(LatemError):
    """Bounded retries did not produce a connected graph."""
