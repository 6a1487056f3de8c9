"""Exception hierarchy shared by all modules."""


class LogModuliError(Exception):
    """Base class for errors raised by this package."""


class StructuralError(LogModuliError):
    """Malformed input: dangling ids, wrong vector lengths, bad schema."""


class InputError(LogModuliError):
    """Well-formed input that violates an operation's precondition."""


class MissingEtaError(InputError):
    """A required leading coefficient is absent; names (edge, end, i)."""

    def __init__(self, edge_id, end, i):
        self.edge_id = edge_id
        self.end = end
        self.i = i
        super().__init__(
            f"missing eta for edge {edge_id!r}, end {end}, coordinate {i}"
        )


class SizeCapError(InputError):
    """A desk-scale operation was asked to exceed its size threshold."""


class InconsistencyError(LogModuliError):
    """Two routes to the same quantity disagree: a fault of this package,
    not of its input."""
