"""Exception taxonomy shared by all freelip modules.

Three exit-code families for the CLI: validation errors (bad inputs or
violated preconditions), solver failures (an LP that should be feasible
did not solve cleanly), and resource limits (caps on graph size, geodesic
enumeration, or group closure).
"""


class FreelipError(Exception):
    """Base class for all library errors."""


class ValidationError(FreelipError):
    """Input violates a documented precondition or invariant."""


class AsymmetryError(ValidationError):
    pass


class TriangleViolation(ValidationError):
    def __init__(self, p, q, r, message=None):
        self.triple = (p, q, r)
        super().__init__(message or f"triangle inequality fails on ({p}, {q}, {r})")


class ZeroOffDiagonal(ValidationError):
    pass


class DisconnectedGraph(ValidationError):
    pass


class NotACycle(ValidationError):
    pass


class NotATree(ValidationError):
    pass


class OddGeodesic(ValidationError):
    pass


class TrivialCycleSpace(ValidationError):
    pass


class NoVerticalAutomorphism(ValidationError):
    pass


class NotInvariantSubspace(ValidationError):
    pass


class NotInvariant(ValidationError):
    pass


class EmptyComplement(ValidationError):
    pass


class PTooLarge(ValidationError):
    pass


class ResolutionTooCoarse(ValidationError):
    pass


class SingularGram(ValidationError):
    pass


class SolverFailure(FreelipError):
    """An LP solve failed although the input should always be feasible."""


class ResourceLimit(FreelipError):
    """A configured size cap was exceeded."""


class GroupClosureOverflow(ResourceLimit):
    pass
