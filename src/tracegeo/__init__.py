"""Trace-metric geometry of the real invertible matrices.

The metric g_A(V, W) = tr(A^{-1} V A^{-1} W) makes the invertible n x n
matrices an indefinite (semi-Riemannian) homogeneous space.  This package
computes the metric, its signature and isometries; geodesics K exp(tC) and
the classification and construction of geodesic arcs between two points;
singly broken geodesics; Riemann, sectional, Ricci and scalar curvature with
independent oracles; and the determinant foliation together with the product
splitting of the positive-determinant component.
"""

from .curvature import (
    OrthonormalFrame,
    christoffel_closed,
    christoffel_fd,
    orthonormal_frame,
    ricci,
    ricci_trace_oracle,
    riemann_04,
    riemann_13,
    scalar_curvature,
    sectional,
    sl_einstein_check,
)
from .errors import (
    DegenerateMetricError,
    DegenerateSectionError,
    DifferentComponentsError,
    DimensionMismatchError,
    IllConditionedError,
    LinearlyDependentError,
    NonPositiveDeterminantError,
    NotSPDError,
    NotSpecialOrthogonalError,
    NotSymmetricError,
    NotTangentError,
    NotUnimodularError,
    NotUniqueError,
    SingularMatrixError,
    SpectrumNotPositiveError,
    SpectrumOnCutError,
    TraceGeoError,
)
from .geodesy import (
    ArcClassification,
    ArcKind,
    BrokenArc,
    Geodesic,
    broken_arc,
    classify_arc,
    curve_residual,
    geodesic_from_velocity,
    nabla,
    spd_geodesic,
    unique_arc,
)
from .matcore import (
    EigenCluster,
    PolarFactors,
    SpectralProfile,
    cartan_killing,
    fractional_power,
    mat_exp,
    polar_decompose,
    real_log_principal,
    so_log,
    spectral_profile,
)
from .metricspace import (
    Isometry,
    MetricSignature,
    ProductPoint,
    apply_isometry,
    congruence_by,
    conjugate_by,
    gram_matrix,
    inversion,
    leaf_base_point,
    leaf_of,
    left_translate,
    negation,
    point_symmetry,
    product_forward,
    product_inverse,
    product_pushforward,
    pushforward,
    right_translate,
    signature_at,
    sl_tangent_project,
    standard_basis,
    trace_metric,
    transposition,
)

__version__ = "0.1.0"
