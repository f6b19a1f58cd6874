"""Exception types shared across the package."""


class KLStabError(Exception):
    """Base class for all klstab errors."""


class NonConvergence(KLStabError):
    """An iterative solver failed to reach its tolerance within budget."""


class SeparationFailure(KLStabError):
    """Root splitting across the unit circle did not produce (r, p) counts."""


class SelectionFailure(KLStabError):
    """Stable-root selection could not be reconciled to r roots."""


class CauchyViolation(KLStabError):
    """The scheme symbol exceeds modulus 1, violating the whole-line precondition."""


class ShapeMismatch(KLStabError):
    """A matrix argument has incompatible dimensions."""


class SingularYPlus(KLStabError):
    """The interior reconstruction matrix is numerically singular."""


class MultipleRoot(KLStabError):
    """Clustered roots where a pairwise-distinct set is required."""


class OriginOnCurve(KLStabError):
    """A curve sample (or segment) hits the origin; winding is undefined."""


class RefinementExhausted(KLStabError):
    """A curve sample near 0, too large or not finite: no refinement can certify it."""


class EmptyGrid(KLStabError):
    """A sweep grid with no cells."""
