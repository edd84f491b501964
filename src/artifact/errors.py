"""Exception types shared across the package.

Everything raised on purpose derives from ArtifactError so callers (and the
command line driver) can tell validation failures from genuine bugs.
"""


class ArtifactError(Exception):
    """Base class for all deliberate failures."""


class DivisionByZero(ArtifactError):
    """Inversion of the zero element was requested."""


class ReduciblePolynomial(ArtifactError):
    """An inversion hit a zero divisor: the modulus has a proper factor."""


class NotASubfield(ArtifactError):
    """rel_degree was called on spaces without an inclusion."""


class NonIntegralDegree(ArtifactError):
    """Dimension of the larger space is not a multiple of the smaller one."""


class NotIrreducibleParam(ArtifactError):
    """Parametrization traces a multiple cover (gcd of exponents > 1)."""


class TruncationTooShort(ArtifactError):
    """A finite expansion does not reach far enough for the requested check."""


class GenericCenter(ArtifactError):
    """A computation on a concrete branch met a generic coefficient."""


class SingularMatrix(ArtifactError):
    """Matrix inversion was requested for a singular matrix."""


class BadSemigroupData(ArtifactError):
    """Characteristic gcd sequence does not end at 1."""


class MissingDelta(ArtifactError):
    """Divisorial series requested without a marked divisor value."""


class IndexOutOfRange(ArtifactError):
    """Partial-series index outside 1..s+1."""


class TruncationInconclusive(ArtifactError):
    """Factorization cannot certify closure from finitely many terms."""

    def __init__(self, message, factors=None):
        super().__init__(message)
        self.factors = factors


class ResolutionStuck(ArtifactError):
    """Blow-up loop exceeded its safety cap without reaching a stop point."""


class ParseFailure(ArtifactError):
    """Input file unreadable, malformed, or outside the schema."""


class FormulaMismatch(ArtifactError):
    """Series expansion disagrees with the brute-force oracle."""
