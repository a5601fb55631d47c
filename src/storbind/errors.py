"""Exception types shared across the control plane and simulator."""

from __future__ import annotations


class StorageError(Exception):
    """Base class for every error raised by this package."""


class ParseError(StorageError):
    """A key-value volume type spec or size literal could not be parsed."""


class LayoutError(StorageError):
    """A layout is invalid or does not fit the disks it was given."""


class ConsistencyError(StorageError):
    """A state report contradicts what the database already knows."""


class ConflictError(StorageError):
    """A request or report contradicts the live state."""


class NotFoundError(StorageError):
    """A referenced volume or implementation does not exist."""


class InvalidStateError(StorageError):
    """An operation is not legal in the object's current lifecycle state."""


class InputError(StorageError):
    """A caller-supplied argument violates an operation's preconditions."""


class ConfigError(StorageError):
    """A control-loop or simulation parameter is out of range."""


class ScenarioError(StorageError):
    """A scenario document failed validation.

    Carries one diagnostic string per violation so a CLI can print them
    all instead of stopping at the first.
    """

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics) or "invalid scenario")
