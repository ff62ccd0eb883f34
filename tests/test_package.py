"""The package namespace, whose exports resolve on first access, and the contract of its records:
construction, immutability, equality and hashing, repr, pickling and copying; and its error
classes, each raised somewhere and listed in the README."""

import ast
import copy
import importlib
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracegeo
from tracegeo import errors
from tracegeo import (
    ArcClassification,
    ArcKind,
    BrokenArc,
    DimensionMismatchError,
    EigenCluster,
    Geodesic,
    Isometry,
    MetricSignature,
    NotUnimodularError,
    OrthonormalFrame,
    ProductPoint,
    SingularMatrixError,
    SpectralProfile,
)

ROOT = Path(__file__).resolve().parents[1]
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

# the public names dir(tracegeo) shows, by the submodule that defines each
EXPORTS = {
    "curvature": ["OrthonormalFrame", "christoffel_closed", "christoffel_fd", "orthonormal_frame",
                  "ricci", "ricci_trace_oracle", "riemann_04", "riemann_13", "scalar_curvature",
                  "sectional", "sl_einstein_check"],
    "errors": ["DegenerateMetricError", "DegenerateSectionError", "DifferentComponentsError",
               "DimensionMismatchError", "IllConditionedError", "LinearlyDependentError",
               "NonPositiveDeterminantError", "NotSpecialOrthogonalError", "NotTangentError",
               "NotUnimodularError", "SingularMatrixError", "SpectrumOnCutError", "TraceGeoError"],
    "geodesy": ["ArcClassification", "ArcKind", "BrokenArc", "Geodesic", "broken_arc",
                "classify_arc", "curve_residual", "geodesic_from_velocity", "nabla"],
    "matcore": ["EigenCluster", "SpectralProfile", "mat_exp", "polar_decompose",
                "real_log_principal", "so_log", "spectral_profile"],
    "metricspace": ["Isometry", "MetricSignature", "ProductPoint", "apply_isometry",
                    "congruence_by", "conjugate_by", "gram_matrix", "inversion",
                    "leaf_base_point", "leaf_of", "left_translate", "negation", "point_symmetry",
                    "product_forward", "product_inverse", "product_pushforward", "pushforward",
                    "right_translate", "signature_at", "sl_tangent_project", "standard_basis",
                    "trace_metric", "transposition"],
}
PUBLIC = {name for names in EXPORTS.values() for name in names} | set(EXPORTS)
# second spellings of an operation the package computes once, and the errors only they raised
REMOVED = ["unique_arc", "spd_geodesic", "fractional_power", "cartan_killing", "PolarFactors",
           "NotUniqueError", "NotSPDError", "NotSymmetricError", "SpectrumNotPositiveError"]


class TestNamespace:
    def test_a_fresh_package_lists_every_export(self):
        script = "import tracegeo\nprint(' '.join(n for n in dir(tracegeo) if n[0] != '_'))"
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=SUBPROCESS_ENV)
        assert proc.returncode == 0, proc.stderr
        assert len(PUBLIC) == 63 + 5
        assert proc.stdout.split() == sorted(PUBLIC)

    @pytest.mark.parametrize("module", EXPORTS)
    def test_each_export_is_the_object_its_module_defines(self, module):
        defining = importlib.import_module(f"tracegeo.{module}")
        assert getattr(tracegeo, module) is defining
        for name in EXPORTS[module]:
            assert getattr(tracegeo, name) is getattr(defining, name), name

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from tracegeo import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == PUBLIC
        assert all(namespace[name] is getattr(tracegeo, name) for name in PUBLIC)

    def test_an_unknown_name_is_the_standard_attribute_error(self):
        with pytest.raises(AttributeError, match=r"^module 'tracegeo' has no attribute 'bogus'$"):
            tracegeo.bogus  # noqa: B018
        assert not hasattr(tracegeo, "_lapack_kernel")

    @pytest.mark.parametrize("name", REMOVED)
    def test_a_removed_name_resolves_nowhere_and_the_readme_maps_it(self, name):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(tracegeo, name)
        assert not any(hasattr(importlib.import_module(f"tracegeo.{m}"), name) for m in EXPORTS)
        readme = (ROOT / "README.md").read_text()
        table = readme[readme.index("| removed | use instead |"):].split("\n\n")[0]
        removed_column = [row.split("|")[1] for row in table.splitlines()[2:]]
        assert any(f"`{name}" in cell for cell in removed_column)


A = np.array([[2.0, 1.0], [1.0, 3.0]])
C = np.array([[0.0, 1.0], [-1.0, 0.5]])
E = np.eye(2)


def _records():
    """One instance of each of the nine record classes, built by the library."""
    profile = tracegeo.spectral_profile(np.diag([2.0, 2.0, 3.0]))
    return {
        EigenCluster: profile.clusters[0],
        SpectralProfile: profile,
        MetricSignature: tracegeo.signature_at(A),
        Isometry: Isometry("left-translate", A),
        ProductPoint: ProductPoint(E, 0.5),
        Geodesic: Geodesic(A, C),
        ArcClassification: tracegeo.classify_arc(E, A),
        BrokenArc: tracegeo.broken_arc(E, A),
        OrthonormalFrame: tracegeo.orthonormal_frame(E),
    }


# each record class: its fields in order, and the values of one instance
FIELDS = {
    EigenCluster: {"eigenvalue": 2 + 0j, "block_sizes": (1, 1), "members": (0, 1)},
    SpectralProfile: {"clusters": (EigenCluster(2.0, (1,)),), "tolerance": 1e-8},
    MetricSignature: {"positive": 3, "negative": 1},
    Isometry: {"kind": "conjugate", "parameter": A},
    ProductPoint: {"sl_part": E, "line_part": -0.25},
    Geodesic: {"base_point": A, "direction": C},
    ArcClassification: {"verdict": ArcKind.NO_ARC, "witness": None,
                        "profile": SpectralProfile((), 1e-8)},
    BrokenArc: {"first": Geodesic(E, C), "second": Geodesic(A, C), "joint": A},
    OrthonormalFrame: {"base_point": E, "vectors": np.ones((4, 2, 2)), "signs": np.ones(4)},
}
VALUE_CLASSES = (EigenCluster, SpectralProfile, MetricSignature)


def _same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, Geodesic):
        return _same(a.base_point, b.base_point) and _same(a.direction, b.direction)
    return a == b


def _equal_fields(a, b):
    return type(a) is type(b) and vars(a).keys() == vars(b).keys() and all(
        _same(vars(a)[name], vars(b)[name]) for name in vars(a) if name != "_basis")


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
class TestRecords:
    def test_positional_and_keyword_construction_agree(self, cls):
        values = FIELDS[cls]
        by_position, by_keyword = cls(*values.values()), cls(**values)
        assert _equal_fields(by_position, by_keyword)
        assert all(_same(getattr(by_keyword, name), value) for name, value in values.items())

    def test_assignment_and_deletion_raise(self, cls):
        record = _records()[cls]
        name = next(iter(FIELDS[cls]))
        before = getattr(record, name)
        for target in (name, "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{target}'"):
                setattr(record, target, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{target}'"):
                delattr(record, target)
        assert getattr(record, name) is before and "extra" not in vars(record)

    def test_equality_and_hash(self, cls):
        record = _records()[cls]
        twin = copy.copy(record)
        assert record == record and hash(record) == hash(record)
        assert record != object() and record != (*vars(record).values(),)
        if cls in VALUE_CLASSES:
            assert twin == record and hash(twin) == hash(record) and twin is not record
            assert len({record, twin}) == 1
        else:
            assert twin != record
            assert hash(record) == object.__hash__(record)

    def test_repr_names_the_fields(self, cls):
        record = cls(**FIELDS[cls])
        shown = [name for name in FIELDS[cls] if name != "members"]
        expected = ", ".join(f"{name}={getattr(record, name)!r}" for name in shown)
        assert repr(record) == f"{cls.__name__}({expected})"

    def test_pickle_and_deepcopy_round_trip(self, cls):
        record = _records()[cls]
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert _equal_fields(twin, record)
            assert twin is not record
            assert (twin == record) is (cls in VALUE_CLASSES)


class TestRecordDetails:
    def test_eigen_cluster_ignores_members(self):
        a, b = EigenCluster(2.0, (2, 1), (0, 1, 2)), EigenCluster(2.0, (2, 1), (5,))
        assert a == b and hash(a) == hash(b)
        assert a != EigenCluster(2.0, (1, 2)) and a != EigenCluster(3.0, (2, 1))
        assert repr(a) == "EigenCluster(eigenvalue=2.0, block_sizes=(2, 1))"

    def test_value_records_compare_by_value(self):
        assert MetricSignature(3, 1) == MetricSignature(positive=3, negative=1)
        assert MetricSignature(3, 1) != MetricSignature(1, 3)
        assert hash(MetricSignature(3, 1)) == hash((3, 1))
        assert repr(MetricSignature(3, 1)) == "MetricSignature(positive=3, negative=1)"
        cluster, relabelled = EigenCluster(1.0, (1,)), EigenCluster(1.0, (1,), (4,))
        assert SpectralProfile((cluster,), 1e-8) == SpectralProfile((relabelled,), 1e-8)
        assert SpectralProfile((cluster,), 1e-8) != SpectralProfile((cluster,), 1e-6)

    def test_value_records_of_different_classes_are_unequal(self):
        signature, profile = MetricSignature(1, 1), SpectralProfile(1, 1)
        assert signature != profile
        assert MetricSignature.__eq__(signature, profile) is NotImplemented

    def test_defaults(self):
        assert EigenCluster(1.0, (1,)).members == ()
        assert Isometry("inversion").parameter is None
        assert Isometry(kind="negation").parameter is None

    @pytest.mark.parametrize("build, error", [
        (lambda: Isometry("bogus"), ValueError),
        (lambda: Isometry("left-translate"), ValueError),
        (lambda: Isometry("inversion", A), ValueError),
        (lambda: Isometry("conjugate", np.zeros((2, 2))), SingularMatrixError),
        (lambda: ProductPoint(E, float("inf")), ValueError),
        (lambda: ProductPoint(A, 0.0), NotUnimodularError),
        (lambda: ProductPoint(np.ones((2, 3)), 0.0), ValueError),
        (lambda: Geodesic(np.zeros((2, 2)), C), SingularMatrixError),
        (lambda: Geodesic(A, np.ones((3, 3))), DimensionMismatchError),
        (lambda: Geodesic(A, [[np.nan, 0.0], [0.0, 0.0]]), ValueError),
    ], ids=["unknown-kind", "missing-parameter", "extra-parameter", "singular-parameter",
            "infinite-line-part", "not-unimodular", "not-square", "singular-base",
            "order-mismatch", "non-finite-direction"])
    def test_validation_refuses(self, build, error):
        with pytest.raises(error):
            build()

    def test_validated_fields_are_the_checked_arrays(self):
        iso = Isometry("conjugate", [[2, 1], [1, 3]])
        assert iso.parameter.dtype == float and np.array_equal(iso.parameter, A)
        point = ProductPoint([[1, 0], [0, 1]], 1)
        assert point.sl_part.dtype == float and type(point.line_part) is float

    def test_a_copied_geodesic_is_read_only_and_has_no_cached_basis(self):
        geo = Geodesic(A, C)
        geo.point(0.5)
        assert "_basis" in vars(geo)
        for twin in (pickle.loads(pickle.dumps(geo)), copy.deepcopy(geo), copy.copy(geo)):
            assert "_basis" not in vars(twin)
            assert not twin.base_point.flags.writeable and not twin.direction.flags.writeable
            assert np.array_equal(twin.point(0.5), geo.point(0.5))


ERRORS = errors.TraceGeoError.__subclasses__()


def test_every_error_class_is_raised_in_the_library():
    # an error class no code raises is dead: the deletion that removed its last raise removes it
    raised = set()
    for path in (ROOT / "src" / "tracegeo").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    assert ERRORS and {cls.__name__ for cls in ERRORS} <= raised


def test_the_readme_error_table_lists_exactly_the_error_codes():
    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("| code | meaning |"):].split("\n\n")[0]
    listed = re.findall(r"^\| `([a-z-]+)` \|", table, flags=re.MULTILINE)
    assert sorted(listed) == sorted({"parse", errors.TraceGeoError.code,
                                     *(cls.code for cls in ERRORS)})
