"""Exception hierarchy.

Numerical-guard errors (everything below ``NumericalGuardError``) map to CLI
exit code 3; ``ConfigError`` maps to exit code 2.
"""


class CrmatrixError(Exception):
    """Base class for all package errors."""


class ConfigError(CrmatrixError):
    """Invalid or malformed run configuration. Names the offending key."""


class NumericalGuardError(CrmatrixError):
    """A computation refused to proceed because its preconditions failed."""


class DegenerateRibbon(NumericalGuardError):
    """Adjacent bands closer than the gap limit; the coefficient field is
    discontinuous there and band indexing is meaningless."""


class NonHermitianInput(NumericalGuardError):
    """An input matrix field violates Hermiticity beyond tolerance."""


class ZeroOverlap(NumericalGuardError):
    """A consecutive overlap in a phase product is numerically zero."""


class MissingEnergies(NumericalGuardError):
    """Band energies are required but absent from the field."""


class BranchTrackingError(NumericalGuardError):
    """Branch continuation between parameter slices jumped by more than pi."""


class UnderResolvedGrid(NumericalGuardError):
    """A closed loop of fewer than 3 points, or a plaquette invariant
    rounding residue too large; refine the grid."""


class NonFiniteResult(NumericalGuardError):
    """A result left the float range: its inputs are finite, but a product
    of them overflows."""
