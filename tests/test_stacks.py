"""Stacks through the pointwise layer.

The pointwise functions take operands of one shared shape ``(*s, n, n)``.  A stack runs through
the code a single point runs (one validation, one singular cut, one ``solve``, batched products),
so each member's result is bit for bit the one that point gives alone; the verify suites rely on
that to evaluate each identity once on the stack of their cases.
"""

import copy
import json
import pickle
import re
import warnings

import numpy as np
import pytest

from tracegeo import (
    DimensionMismatchError,
    Geodesic,
    NotTangentError,
    ProductPoint,
    SingularMatrixError,
    apply_isometry,
    classify_arc,
    curve_residual,
    leaf_of,
    left_translate,
    nabla,
    product_pushforward,
    pushforward,
    ricci,
    riemann_04,
    riemann_13,
    scalar_curvature,
    sl_einstein_check,
    sl_tangent_project,
    trace_metric,
)
from tracegeo import curvature, geodesy, metricspace, verify
from tracegeo.metricspace import ISOMETRY_KINDS, Isometry
from tracegeo.verify import random_invertible

SHAPES = [(1,), (3,), (2, 2)]
PARAMETRIC = {"left-translate", "right-translate", "conjugate", "congruence", "point-symmetry"}


def _isometry(kind, G):
    return Isometry(kind, G) if kind in PARAMETRIC else Isometry(kind)


def _leaf_check(K, X, Y):
    return np.array(sl_einstein_check(K, X, Y))


# name -> (function, operand count incl. the base point, shape of one point's result)
FUNCTIONS = {
    "trace_metric": (trace_metric, 3, ()),
    "riemann_04": (riemann_04, 5, ()),
    "riemann_13": (riemann_13, 4, None),
    "ricci": (ricci, 3, ()),
    "scalar_curvature": (scalar_curvature, 1, ()),
    "leaf_of": (leaf_of, 1, ()),
    "nabla": (nabla, 4, None),
    "sl_tangent_project": (sl_tangent_project, 2, None),
    "sl_einstein_check": (_leaf_check, 3, (2,)),
}


def _points(rng, shape, n):
    return np.array([random_invertible(rng, n) for _ in range(int(np.prod(shape)))]).reshape(
        shape + (n, n))


def _operands(rng, shape, n, count):
    K = _points(rng, shape, n)
    tangents = [rng.uniform(-1.0, 1.0, shape + (n, n)) for _ in range(count - 1)]
    if count == 3:  # the leaf check needs leaf tangents; every function takes them
        tangents = [sl_tangent_project(K, T) for T in tangents]
    return [K, *tangents]


def _members(operands, shape):
    m = int(np.prod(shape))
    flat = [np.reshape(x, (m,) + np.shape(x)[len(shape):]) for x in operands]
    return [[x[i] for x in flat] for i in range(m)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("name", FUNCTIONS)
def test_a_stack_gives_each_member_the_bits_of_its_point_alone(rng, name, n, shape):
    fn, count, _ = FUNCTIONS[name]
    operands = _operands(rng, shape, n, count)
    stacked = np.asarray(fn(*operands))
    loop = np.array([fn(*member) for member in _members(operands, shape)])
    if name == "sl_einstein_check":  # a pair of arrays of shape s, not an array of pairs
        stacked = np.moveaxis(stacked, 0, -1)
    assert np.array_equal(stacked.reshape(loop.shape), loop)
    assert stacked.shape[:len(shape)] == shape


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("kind", ISOMETRY_KINDS)
def test_an_isometry_of_stacked_parameters_acts_member_by_member(rng, kind, n, shape):
    G, A = _points(rng, shape, n), _points(rng, shape, n)
    V = rng.uniform(-1.0, 1.0, shape + (n, n))
    iso = _isometry(kind, G)
    members = _members([G, A, V], shape)
    for fn, args in ((apply_isometry, (A,)), (pushforward, (A, V))):
        stacked = fn(iso, *args)
        loop = np.array([fn(_isometry(kind, g), *rest[:len(args)]) for g, *rest in members])
        assert np.array_equal(stacked.reshape(loop.shape), loop)
    if kind in PARAMETRIC:  # one parameter matrix applies to every member
        one = _isometry(kind, G.reshape((-1, n, n))[0])
        loop = np.array([pushforward(one, a, v) for _, a, v in members])
        assert np.array_equal(pushforward(one, A, V).reshape(loop.shape), loop)


@pytest.mark.parametrize("n", range(2, 7))
def test_geodesic_points_of_an_array_of_t_are_those_of_each_t(rng, n):
    K = random_invertible(rng, n)
    jordan = np.eye(n) + np.diag(np.ones(n - 1), 1)  # defective: the Pade fallback, once per t
    ts = np.array([-2.0, -0.6, 0.0, 1.3, 2.0])
    for C in (rng.uniform(-1.0, 1.0, (n, n)), jordan):
        geo = Geodesic(K, C)
        points = geo.point(ts)
        assert points.shape == (len(ts), n, n)
        assert np.array_equal(points, np.array([geo.point(t) for t in ts.tolist()]))
        assert np.array_equal(geo.point([0.5]), geo.point(0.5)[None])


@pytest.mark.parametrize("t", [[0.0, np.nan], [np.inf], [[0.0], [np.nan]], ["a"], [1j]], ids=repr)
def test_an_array_of_t_is_real_and_finite(t):
    with pytest.raises(ValueError, match="t must be"):
        Geodesic(np.eye(2), np.eye(2)).point(t)
    with pytest.raises(ValueError, match="t must be"):
        curve_residual(Geodesic(np.eye(2), np.eye(2)).point, t)


def _stacked_geodesic(rng, shape, n):
    return Geodesic(_points(rng, shape, n), rng.uniform(-1.0, 1.0, shape + (n, n)))


def _member_points(geo, t):
    """The points of a stacked geodesic, each from its member's own geodesic at a float t."""
    s, n = geo.direction.shape[:-2], geo.direction.shape[-1]
    shape = np.broadcast_shapes(np.shape(t), s)
    ts = np.broadcast_to(t, shape).reshape(-1, int(np.prod(s)))
    members = [Geodesic(K, C) for K, C in zip(geo.base_point.reshape(-1, n, n),
                                               geo.direction.reshape(-1, n, n))]
    points = [[member.point(x) for member, x in zip(members, row)] for row in ts.tolist()]
    return np.array(points).reshape(shape + (n, n))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("n", range(2, 7))
def test_a_stacked_geodesic_gives_each_member_the_bits_of_its_own(rng, n, shape):
    geo = _stacked_geodesic(rng, shape, n)
    ts = [0.37, np.float64(-1.2), rng.uniform(-2.0, 2.0, shape),
          rng.uniform(-2.0, 2.0, (4,) + (1,) * len(shape))]  # one t each, or 4 on every member
    for t in ts:
        points = geo.point(t)
        assert points.shape == np.broadcast_shapes(np.shape(t), shape) + (n, n)
        assert np.array_equal(points, _member_points(geo, t))


@pytest.mark.parametrize("n", range(2, 7))
def test_one_geodesic_broadcasts_t_of_every_shape(rng, n):
    geo = _stacked_geodesic(rng, (), n)
    for t in (0.5, np.array(0.5), rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, (3, 1))):
        points = geo.point(t)
        assert points.shape == np.shape(t) + (n, n)
        assert np.array_equal(points, _member_points(geo, t))
    assert type(geo.point(0.5)) is np.ndarray and geo.point(0.5).shape == (n, n)


# real spectrum, complex spectrum, and defective: J2(0), whose eigenbasis is nearly singular, and
# J3(0) at n = 3, whose eigenbasis is exactly singular; each takes the route it takes alone
MIXED_DIRECTIONS = {
    2: [[[1.0, 0.5], [0.5, -1.0]], [[0.0, 1.0], [-1.0, 0.2]], [[0.0, 1.0], [0.0, 0.0]]],
    3: [np.diag([0.5, -1.0, 2.0]), [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.3]],
        np.diag([1.0, 1.0], 1)],
}


@pytest.mark.parametrize("n", [2, 3])
def test_a_stack_of_mixed_spectra_takes_each_members_own_route(rng, n):
    C = np.array(MIXED_DIRECTIONS[n], dtype=float)
    geo = Geodesic(_points(rng, (3,), n), C)
    for t in (0.7, rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, (5, 1))):
        assert np.array_equal(geo.point(t), _member_points(geo, t))

    def routes(geo, members):  # the members of each leaf of the split, by the route they take
        if isinstance(geo._basis, list):
            return [r for m, part in geo._basis for r in routes(part, members[m])]
        return [(members.tolist(), None if geo._basis is None else geo._basis[0].dtype.kind)]

    assert sorted(routes(geo, np.arange(3))) == [([0], "f"), ([1], "c"), ([2], None)]


def test_t_that_does_not_broadcast_is_a_value_error(rng):
    geo = _stacked_geodesic(rng, (3,), 2)
    with pytest.raises(ValueError, match="broadcast"):
        geo.point([0.0, 1.0])


@pytest.mark.parametrize("shape", [(), (3,), (2, 2)], ids=str)
@pytest.mark.parametrize("n", [2, 4, 6])
def test_curve_residual_of_an_array_is_that_of_each_t(rng, n, shape):
    geo = _stacked_geodesic(rng, shape, n)
    t = np.array([-1.0, 0.37, 2.0]).reshape((3,) + (1,) * len(shape))
    got = curve_residual(geo.point, t, 1e-4)
    assert got.shape == np.broadcast_shapes(t.shape, shape)
    members = [Geodesic(K, C) for K, C in zip(geo.base_point.reshape(-1, n, n),
                                               geo.direction.reshape(-1, n, n))]
    want = [[curve_residual(member.point, x, 1e-4) for member in members]
            for x in t.ravel().tolist()]
    assert np.array_equal(got.reshape(3, -1), np.array(want))


def test_one_step_that_rounds_away_refuses_the_whole_array():
    geo = Geodesic(np.eye(2), np.diag([0.5, -0.5]))
    assert curve_residual(geo.point, np.array([0.37]), 1e-16).shape == (1,)
    with pytest.raises(ValueError, match="t \\+ h and t - h distinct from t"):
        curve_residual(geo.point, np.array([0.37, 2.0]), 1e-16)


def test_a_stacked_geodesic_is_read_only_and_pickles(rng):
    geo = _stacked_geodesic(rng, (2, 2), 3)
    t = rng.uniform(-2.0, 2.0, (2, 2))
    points = geo.point(t)
    for array in (geo.base_point, geo.direction):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    for twin in (pickle.loads(pickle.dumps(geo)), copy.deepcopy(geo)):
        assert "_basis" not in vars(twin)
        assert not twin.base_point.flags.writeable and not twin.direction.flags.writeable
        assert np.array_equal(twin.point(t), points)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("step", [1e-16, 3e-17])
def test_a_step_that_rounds_away_is_refused_per_t_in_the_geodesic_suite(n, step):
    # t +- h rounds back to t at t = -1 and 2, not at 0.37: each case records the refusal at
    # those two, and at 0.37 the residual its own geodesic gives (a failure unless it is tiny)
    for seed in range(3):
        report = verify.run_suite("geodesic", n, seed, 6, fd_step=step)
        cases = {}
        for failure in report["failures"]:
            if failure["check"] == "ode-residual":
                key = json.dumps(failure["inputs"])
                cases.setdefault(key, []).append(failure["got"])
        assert len(cases) == 6
        for key, got in cases.items():
            K, C = (np.array(doc["data"]) for doc in json.loads(key))
            curve = Geodesic(K, C).point
            for t in (-1.0, 2.0):
                with pytest.raises(ValueError) as refusal:
                    curve_residual(curve, t, step)
            want = curve_residual(curve, 0.37, step)
            assert got == ([str(refusal.value)] * 2 if abs(want) <= verify.RESIDUAL_TOL
                           else [str(refusal.value), want, str(refusal.value)])


@pytest.mark.parametrize("suite", verify.SUITES)
def test_a_suite_of_no_cases_reports_none(suite):
    report = verify.run_suite(suite, 3, 0, 0)
    assert report["failures"] == []


@pytest.mark.parametrize("suite", verify.SUITES)
@pytest.mark.parametrize("cases", [-1, 2.5, verify.MAX_CASES + 1])
def test_a_case_count_outside_zero_to_the_cap_is_refused(suite, cases):
    # stacks of every case at once: a negative count is no stack, and an unbounded one exhausts
    # memory (or, in the product suite's loop, time)
    with pytest.raises(ValueError, match=f"^cases must be an integer from 0 to {verify.MAX_CASES}"):
        verify.run_suite(suite, 3, 0, cases)


@pytest.mark.parametrize("name", FUNCTIONS)
def test_one_point_returns_todays_type(rng, name):
    fn, count, result = FUNCTIONS[name]
    out = (sl_einstein_check if name == "sl_einstein_check" else fn)(*_operands(rng, (), 3, count))
    if result == ():
        assert type(out) is float
    elif name == "sl_einstein_check":
        assert type(out) is tuple and [type(x) for x in out] == [float, float]
    else:
        assert type(out) is np.ndarray and out.shape == (3, 3)


# the name each function gives its base point in a refusal
BASE_NAMES = {"trace_metric": "A", "nabla": "P", "leaf_of": "Q"}


@pytest.mark.parametrize("shape, index, where", [((3,), (1,), "1"), ((2, 2), (1, 0), "(1, 0)")])
@pytest.mark.parametrize("name", FUNCTIONS)
def test_a_singular_member_is_named_by_its_stack_index(rng, name, shape, index, where):
    fn, count, _ = FUNCTIONS[name]
    operands = _operands(rng, shape, 3, count)
    operands[0][index] = np.diag([1.0, 1.0, 0.0])
    message = f"{BASE_NAMES.get(name, 'K')} is numerically singular at stack index {where}"
    with pytest.raises(SingularMatrixError, match=f"^{re.escape(message)}$"):
        fn(*operands)


@pytest.mark.parametrize("kind", sorted(PARAMETRIC) + ["inversion"])
def test_a_singular_parameter_or_point_of_an_isometry_is_named_by_its_index(rng, kind):
    G, A = _points(rng, (3,), 2), _points(rng, (3,), 2)
    if kind in PARAMETRIC:
        G[2] = 0.0
        with pytest.raises(SingularMatrixError, match="^parameter is numerically singular at "
                                                      "stack index 2$"):
            Isometry(kind, G)
        G[2] = np.eye(2)
    nonlinear = kind in ("inversion", "point-symmetry")
    A[1] = [[1.0, 2.0], [2.0, 4.0]]
    for fn, args, name in ((apply_isometry, (A,), "X"), (pushforward, (A, A), "A")):
        if nonlinear:
            with pytest.raises(SingularMatrixError,
                               match=f"^{name} is numerically singular at stack index 1$"):
                fn(_isometry(kind, G), *args)
        else:  # a linear isometry needs no invertible point
            assert fn(_isometry(kind, G), *args).shape == (3, 2, 2)


def test_a_member_off_the_leaf_is_named_by_its_stack_index(rng):
    K = _points(rng, (2, 2), 3)
    X, Y = (sl_tangent_project(K, rng.uniform(-1.0, 1.0, K.shape)) for _ in range(2))
    Y[0, 1] += K[0, 1]
    with pytest.raises(NotTangentError,
                       match=r"^Y is not tangent to the determinant leaf at stack index \(0, 1\)$"):
        sl_einstein_check(K, X, Y)
    with pytest.raises(NotTangentError, match="^Y is not tangent to the determinant leaf$"):
        sl_einstein_check(K[0, 1], X[0, 1], Y[0, 1])


@pytest.mark.parametrize("name", [name for name, (_, count, _) in FUNCTIONS.items() if count > 1])
def test_operands_of_unequal_shapes_are_a_dimension_mismatch(rng, name):
    fn, count, _ = FUNCTIONS[name]
    operands = _operands(rng, (3,), 2, count)
    operands[-1] = operands[-1][:2]
    with pytest.raises(DimensionMismatchError, match="operand shapes differ"):
        fn(*operands)


def test_an_isometry_parameter_of_another_shape_is_a_dimension_mismatch(rng):
    G, A = _points(rng, (3,), 2), _points(rng, (2,), 2)
    for iso in (left_translate(G), left_translate(np.eye(3))):
        with pytest.raises(DimensionMismatchError, match="does not fit operands of shape"):
            apply_isometry(iso, A)
        with pytest.raises(DimensionMismatchError, match="does not fit operands of shape"):
            pushforward(iso, A, A)


def test_a_function_of_one_matrix_refuses_a_stack():
    with pytest.raises(ValueError, match=r"K0 must be square, got shape \(2, 2, 2\)"):
        classify_arc(np.stack([np.eye(2)] * 2), np.stack([np.eye(2)] * 2))


E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
I2 = np.eye(2)
COMPLEX_OPERANDS = {
    "metric-tangent": (lambda: trace_metric(I2, (1 + 5j) * I2, I2), "V"),
    "curvature-tangent": (lambda: riemann_13(I2, 1j * E12, I2, I2), "X"),
    "base-point": (lambda: ricci(I2 + 0j, I2, I2), "K"),
    "stack": (lambda: trace_metric(np.stack([I2, I2]), np.stack([I2, 1j * I2]), np.stack([I2] * 2)),
              "V"),
    "beside-another-order": (lambda: trace_metric(I2, 1j * I2, np.eye(3)), "V"),  # per operand
    "before-a-ragged-operand": (lambda: nabla(I2, 2j * I2, [[1.0, 2.0], [3.0]], I2), "Xp"),
    "isometry-parameter": (lambda: left_translate(1j * I2), "parameter"),
}


@pytest.mark.parametrize("case", COMPLEX_OPERANDS)
def test_a_complex_operand_is_refused_not_cast(case):
    call, name = COMPLEX_OPERANDS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's ComplexWarning of a cast included
        with pytest.raises(TypeError, match=f"^{name} is not a real matrix$"):
            call()


@pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
def test_a_non_finite_line_tangent_is_a_value_error(a):
    with pytest.raises(ValueError, match="^a must be finite$"):
        product_pushforward(ProductPoint(I2, 0.0), np.zeros((2, 2)), a)


@pytest.mark.parametrize("suite", ["geodesic", "foliation"])
def test_a_suite_builds_one_geodesic_per_identity_not_per_case(monkeypatch, suite):
    calls = {}
    for owner, name in [(Geodesic, "__init__"), (geodesy, "curve_residual")]:
        def spy(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(owner, name, spy)
    counts = []
    for cases in (4, 8):
        calls.clear()
        assert verify.run_suite(suite, 3, 0, cases)["failures"] == []
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["__init__"] == {"geodesic": 2, "foliation": 1}[suite]


@pytest.mark.parametrize("suite", ["metric", "curvature", "foliation"])
def test_a_suite_calls_each_identity_once_not_once_per_case(monkeypatch, suite):
    spied = [(metricspace, "trace_metric"), (curvature, "riemann_04"), (metricspace, "pushforward")]
    calls = {}
    for module, name in spied:
        def spy(*args, _fn=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(module, name, spy)
    counts = []
    for cases in (4, 8):
        calls.clear()
        report = verify.run_suite(suite, 3, 0, cases)
        assert report["failures"] == []
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0
