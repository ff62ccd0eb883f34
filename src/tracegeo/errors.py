"""Exception types raised throughout the library, each with its CLI error code."""


class TraceGeoError(Exception):
    """Base class for all tracegeo errors.

    ``code`` is the short machine-readable name the CLI reports on failure.
    """
    code = "error"


class SingularMatrixError(TraceGeoError):
    """A matrix that must be invertible is numerically singular."""
    code = "singular"


class DimensionMismatchError(TraceGeoError):
    """Operands have incompatible orders."""
    code = "dimension-mismatch"


class SpectrumOnCutError(TraceGeoError):
    """An eigenvalue lies on the closed negative real axis."""
    code = "spectrum-on-cut"


class NotSpecialOrthogonalError(TraceGeoError):
    """Input is not in SO(n) within tolerance."""
    code = "not-special-orthogonal"


class DegenerateMetricError(TraceGeoError):
    """A Gram eigenvalue is numerically zero; the metric computation broke down."""
    code = "degenerate-metric"


class NotUnimodularError(TraceGeoError):
    """Determinant is not 1 within tolerance."""
    code = "not-unimodular"


class NonPositiveDeterminantError(TraceGeoError):
    """Determinant is not strictly positive."""
    code = "non-positive-determinant"


class DifferentComponentsError(TraceGeoError):
    """Endpoints lie in different connected components (determinant signs differ)."""
    code = "different-components"


class IllConditionedError(TraceGeoError):
    """The answer is ambiguous at the requested tolerance."""
    code = "ill-conditioned"


class DegenerateSectionError(TraceGeoError):
    """The metric restricted to the 2-plane is numerically degenerate."""
    code = "degenerate-section"


class LinearlyDependentError(TraceGeoError):
    """Vectors expected to span a 2-plane are linearly dependent."""
    code = "linearly-dependent"


class NotTangentError(TraceGeoError):
    """Vector is not tangent to the determinant level set."""
    code = "not-tangent"

