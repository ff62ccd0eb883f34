"""Trace-metric geometry of the real invertible matrices.

The metric g_A(V, W) = tr(A^{-1} V A^{-1} W) makes the invertible n x n
matrices an indefinite (semi-Riemannian) homogeneous space.  This package
computes the metric, its signature and isometries; geodesics K exp(tC) and
the classification and construction of geodesic arcs between two points;
singly broken geodesics; Riemann, sectional, Ricci and scalar curvature with
independent oracles; and the determinant foliation together with the product
splitting of the positive-determinant component.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULES = ("curvature", "errors", "geodesy", "matcore", "metricspace")

# Each exported name and the submodule that defines it.  A name resolves on its first access
# (PEP 562) and imports that submodule alone, so ``import tracegeo`` loads no submodule and a
# ``tracegeo`` command loads only the modules it runs.
_EXPORTS = {name: module for module, names in {
    "curvature": """OrthonormalFrame christoffel_closed christoffel_fd orthonormal_frame ricci
        ricci_trace_oracle riemann_04 riemann_13 scalar_curvature sectional sl_einstein_check""",
    "errors": """DegenerateMetricError DegenerateSectionError DifferentComponentsError
        DimensionMismatchError IllConditionedError LinearlyDependentError
        NonPositiveDeterminantError NotSpecialOrthogonalError NotTangentError
        NotUnimodularError SingularMatrixError SpectrumOnCutError TraceGeoError""",
    "geodesy": """ArcClassification ArcKind BrokenArc Geodesic broken_arc classify_arc
        curve_residual geodesic_from_velocity nabla""",
    "matcore": """EigenCluster SpectralProfile mat_exp polar_decompose real_log_principal
        so_log spectral_profile""",
    "metricspace": """Isometry MetricSignature ProductPoint apply_isometry congruence_by
        conjugate_by gram_matrix inversion leaf_base_point leaf_of left_translate negation
        point_symmetry product_forward product_inverse product_pushforward pushforward
        right_translate signature_at sl_tangent_project standard_basis trace_metric
        transposition""",
}.items() for name in names.split()}

__all__ = [*_SUBMODULES, *_EXPORTS]


def __getattr__(name):
    if name in _SUBMODULES:  # importing a submodule binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
