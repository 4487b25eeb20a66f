"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class so the CLI can map them onto exit codes without string matching.
"""


class MonomapError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MonomapError):
    """Bad or missing configuration input (CLI exit code 4)."""


class UnsupportedDomain(MonomapError):
    """Domain geometry outside the supported class (CLI exit code 3)."""


class EmbeddingUnavailable(MonomapError):
    """No order-preserving symmetric embedding exists for this signature."""


class DegenerateCase(MonomapError):
    """Parameter combination with a continuum of artificial fixed points."""


class SectorOrderViolation(MonomapError):
    """Sector fill would break the required cross-sector ordering."""


class NonMonotoneInducedEdge(MonomapError):
    """A fill step induced a non-monotone edge restriction; we refuse to
    guess a fill rule in that situation."""


class NonFiniteValue(MonomapError):
    """A map evaluation produced NaN or infinity (CLI exit code 2)."""


class OutsideRect(MonomapError):
    """Evaluation or embedding state outside the extension rectangle."""


class ChainMonotonicityBroken(MonomapError):
    """A corner iteration stopped being monotone in the embedding order."""


class ContinuumOfFixedPoints(MonomapError):
    """The one-dimensional equilibrium sweep found a degenerate interval."""


class ParamConstraint(MonomapError):
    """Family parameters violate a structural precondition."""
