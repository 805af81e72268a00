"""Exception taxonomy shared by all freelip modules.

Three families under FreelipError, one CLI exit code each: ValidationError
(2: bad inputs or violated preconditions), SolverFailure (3: an LP that
should be feasible did not solve cleanly) and ResourceLimit (4: caps on
graph size, geodesic enumeration or group closure).  No caller tells the
checks of one family apart by type, so each check is named by its message
alone.
"""


class FreelipError(Exception):
    """Base class for all library errors."""


class ValidationError(FreelipError):
    """Input violates a documented precondition or invariant."""


class SolverFailure(FreelipError):
    """An LP solve failed although the input should always be feasible."""


class ResourceLimit(FreelipError):
    """A configured size cap was exceeded."""
