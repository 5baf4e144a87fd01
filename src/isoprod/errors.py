"""Exception hierarchy shared by all modules.

Exit-code contract for the CLI: 0 success, 1 usage, 2 validation,
3 internal consistency violation.
"""


class IsoprodError(Exception):
    exit_code = 2


class UsageError(IsoprodError):
    """Bad user input at the interface level (flags, spec strings)."""

    exit_code = 1


class ValidationError(IsoprodError):
    """Well-formed input that fails a mathematical precondition."""

    exit_code = 2


class ConsistencyError(IsoprodError):
    """An internal invariant failed; indicates a bug, never user error."""

    exit_code = 3


class GroupSpecError(UsageError):
    pass


class TableError(ValidationError):
    """Cayley table is not a group (non-Latin, non-associative, ...)."""


class SizeError(ValidationError):
    """Group order exceeds the configured cap."""


class DomainError(ValidationError):
    """Argument outside the operation's domain (e.g. non-abelian input)."""


class VectorError(ValidationError):
    """A tuple fails to be a generating vector."""


class RelationError(VectorError):
    pass


class GenerationError(VectorError):
    pass


class BranchOrderError(VectorError):
    pass


class GenusError(VectorError):
    pass


class FreenessError(ValidationError):
    """Diagonal action is not free; carries a witness element."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
