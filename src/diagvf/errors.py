"""Exception types shared across the package."""


class DiagVFError(Exception):
    """Base class for all package errors."""


class NotARoot(DiagVFError):
    """A value claimed to be a quartic root has too large a residual."""


class NRootDeficit(DiagVFError):
    """The characteristic quartic has fewer than two distinct real roots."""


class WeightCountMismatch(DiagVFError):
    """Weight vector length differs from the number of distinct real roots."""


class NotAdmissible(DiagVFError):
    """Measure realization requires an accepted admissibility verdict."""


class DomainViolation(DiagVFError):
    """The mixture transform is nonpositive at the requested parameter."""


class NoDominantAtom(DiagVFError):
    """No probe point makes the non-pivot mixture strictly dominated."""


class ConfigError(DiagVFError):
    """Malformed configuration document."""
