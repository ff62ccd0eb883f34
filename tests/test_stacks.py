"""Stacks through the pointwise layer.

The pointwise functions take operands of one shared shape ``(*s, n, n)``.  A stack runs through
the code a single point runs (one validation, one singular cut, one ``solve``, batched products),
so each member's result is bit for bit the one that point gives alone; the verify suites rely on
that to evaluate each identity once on the stack of their cases.
"""

import copy
import gc
import json
import pickle
import re
import warnings

import numpy as np
import pytest

from tracegeo import (
    ArcClassification,
    DegenerateMetricError,
    DimensionMismatchError,
    Geodesic,
    IllConditionedError,
    MetricSignature,
    NonPositiveDeterminantError,
    NotTangentError,
    NotUnimodularError,
    ProductPoint,
    SingularMatrixError,
    SpectrumOnCutError,
    TraceGeoError,
    apply_isometry,
    broken_arc,
    classify_arc,
    curve_residual,
    leaf_of,
    left_translate,
    nabla,
    product_forward,
    product_inverse,
    product_pushforward,
    pushforward,
    ricci,
    riemann_04,
    riemann_13,
    scalar_curvature,
    signature_at,
    sl_einstein_check,
    sl_tangent_project,
    trace_metric,
)
from tracegeo import _lapack, curvature, geodesy, matcore, metricspace, verify
from tracegeo.metricspace import ISOMETRY_KINDS, Isometry
from tracegeo.verify import random_invertible, random_unimodular

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
    "signature_at": (signature_at, 1, MetricSignature),
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


@pytest.mark.parametrize("n", [2, 3])
def test_a_split_stack_decomposes_its_directions_once(rng, n, monkeypatch):
    # real, complex and real again: two parts, each given its slice of the stack's eig
    real, rotation = MIXED_DIRECTIONS[n][:2]
    C = np.array([real, rotation, 2.0 * np.asarray(real)], dtype=float)
    K = _points(rng, (3,), n)
    want = [_member_points(Geodesic(K, C), t) for t in (0.7, np.array([0.1, -1.2, 2.0]))]
    calls = []

    def eig(a, _eig=_lapack.eig):
        calls.append(a.shape)
        return _eig(a)

    monkeypatch.setattr(_lapack, "eig", eig)
    geo = Geodesic(K, C)
    assert [np.array_equal(geo.point(t), points)
            for t, points in zip((0.7, np.array([0.1, -1.2, 2.0])), want)] == [True, True]
    assert calls == [(3, n, n)]
    assert [(m.tolist(), part._basis[0].dtype.kind) for m, part in geo._basis] == [
        ([True, False, True], "f"), ([False, True, False], "c")]


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
    # memory
    with pytest.raises(ValueError, match=f"^cases must be an integer from 0 to {verify.MAX_CASES}"):
        verify.run_suite(suite, 3, 0, cases)


@pytest.mark.parametrize("name", FUNCTIONS)
def test_one_point_returns_todays_type(rng, name):
    fn, count, result = FUNCTIONS[name]
    out = (sl_einstein_check if name == "sl_einstein_check" else fn)(*_operands(rng, (), 3, count))
    if isinstance(result, type):
        assert type(out) is result
    elif result == ():
        assert type(out) is float
    elif name == "sl_einstein_check":
        assert type(out) is tuple and [type(x) for x in out] == [float, float]
    else:
        assert type(out) is np.ndarray and out.shape == (3, 3)


# the name each function gives its base point in a refusal
BASE_NAMES = {"trace_metric": "A", "nabla": "P", "leaf_of": "Q", "signature_at": "A"}


@pytest.mark.parametrize("shape, index, where", [((3,), (1,), "1"), ((2, 2), (1, 0), "(1, 0)")])
@pytest.mark.parametrize("name", FUNCTIONS)
def test_a_singular_member_is_named_by_its_stack_index(rng, name, shape, index, where):
    fn, count, _ = FUNCTIONS[name]
    operands = _operands(rng, shape, 3, count)
    operands[0][index] = np.diag([1.0, 1.0, 0.0])
    message = f"{BASE_NAMES.get(name, 'K')} is numerically singular at stack index {where}"
    with pytest.raises(SingularMatrixError, match=f"^{re.escape(message)}$"):
        fn(*operands)


def test_a_degenerate_metric_member_is_named_by_its_stack_index(rng):
    A = _points(rng, (3,), 2)
    A[1] = np.diag([1.0, 1e-8])  # invertible, but its Gram spread passes the zero cut
    message = "Gram matrix has a numerically zero eigenvalue at stack index 1"
    with pytest.raises(DegenerateMetricError, match=f"^{message}$"):
        signature_at(A)


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


# M = K0^-1 K1 of each verdict, up to a similarity: positive and simple, a complex pair, a
# semisimple negative pair, an unpaired negative eigenvalue
ARC_SPECTRA = {
    "unique": np.diag([1.0, 2.0, 3.0]),
    "countable": np.array([[1.0, -2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]]),
    "continuum": np.diag([-2.0, -2.0, 3.0]),
    "no-arc": np.diag([-2.0, 3.0, 4.0]),
}


def _arc_pairs(rng, shape):
    """Endpoint stacks whose members cycle through the verdicts of ARC_SPECTRA."""
    K0, S = _points(rng, shape, 3), _points(rng, shape, 3)
    spectra = list(ARC_SPECTRA.values())
    D = np.array([spectra[i % 4] for i in range(int(np.prod(shape)))]).reshape(shape + (3, 3))
    return K0, K0 @ S @ D @ np.linalg.inv(S)


def _same_arc(got, want):
    assert type(got) is ArcClassification
    assert got.verdict is want.verdict and got.profile == want.profile
    if want.witness is None:
        assert got.witness is None
    else:
        for name in ("base_point", "direction"):
            assert np.array_equal(getattr(got.witness, name), getattr(want.witness, name))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_classify_arc_of_a_stack_gives_each_pair_its_own_record(rng, shape):
    K0, K1 = _arc_pairs(rng, shape)
    outcomes = classify_arc(K0, K1)
    assert type(outcomes) is list
    nested = np.empty(shape, object)
    nested[...] = outcomes
    verdicts = set()
    for i in np.ndindex(shape):
        _same_arc(nested[i], classify_arc(K0[i], K1[i]))
        verdicts.add(nested[i].verdict.value)
    assert verdicts == set(list(ARC_SPECTRA)[:int(np.prod(shape))])


def test_classify_arc_of_an_empty_stack_is_an_empty_list_and_of_one_pair_a_record(rng):
    assert classify_arc(np.empty((0, 3, 3)), np.empty((0, 3, 3))) == []
    K0, K1 = _arc_pairs(rng, ())
    assert type(classify_arc(K0, K1)) is ArcClassification


def test_classify_arc_of_a_stack_raises_its_first_refusal(rng):
    K0 = np.stack([np.eye(3)] * 3)
    K1 = np.array([np.diag([1.0, 2.0, 3.0]), np.diag([2.0, 2.0 + 1e-7, 5.0]), np.eye(3)])
    K0[2] = np.diag([1.0, 1.0, 0.0])  # singular, behind an ambiguous verdict
    message = "verdict is ambiguous at tolerance 1e-08 (differs at 1e-07) at stack index 1"
    with pytest.raises(IllConditionedError, match=f"^{re.escape(message)}$"):
        classify_arc(K0, K1)
    K0[1], K0[2] = K0[2], np.eye(3)  # now the singular one comes first
    with pytest.raises(SingularMatrixError, match="^K0 is numerically singular at stack index 1$"):
        classify_arc(K0, K1)
    K0[1], K1[1] = np.eye(3), np.zeros((3, 3))
    with pytest.raises(SingularMatrixError,
                       match=r"^K1 is numerically singular at stack index \(0, 1\)$"):
        classify_arc(K0.reshape(1, 3, 3, 3), K1.reshape(1, 3, 3, 3))
    K0[1], K1[1] = 1e-300 * np.eye(3), 1e300 * np.eye(3)  # K0^-1 K1 overflows
    with pytest.raises(IllConditionedError,
                       match="^K0\\^-1 K1 overflows the float range at stack index 1$"):
        classify_arc(K0, K1)
    K0[1], K1[1] = 0.5 * np.eye(3), np.diag([1.0, 1.0, 0.5e308])  # M is finite, ||M||_2 = 2.5e308
    K1[1, :2, :2] = [[0.75e308, 0.5e308], [0.5e308, 0.75e308]]
    with pytest.raises(IllConditionedError,
                       match="^spectrum overflows the float range at stack index 1$"):
        classify_arc(K0, K1)


# M = K0^-1 K1 of each route of a witness: a real and a complex spectrum through the batched
# eigenbasis logarithm, a semisimple negative cluster with its turn J, a defective positive block
# (inverse scaling and squaring) and paired negative Jordan blocks (their chains); and no arc.
# The defective cores are exact: K0 = 2I, so M is the core to the bit.  The last two send the
# real pairs of a stack member by member; without them each realness takes one batch.
ROUTES = {
    "real": (np.diag([1.0, 2.0, 3.0, 4.0]), True),
    "complex": (np.diag([1.0, 1.0, 3.0, 4.0]) + np.diag([-2.0, 0.0, 0.0], 1)
                + np.diag([2.0, 0.0, 0.0], -1), True),
    "negative": (np.diag([-2.0, -2.0, 3.0, 4.0]), True),
    "logm": (np.diag([2.0, 2.0, 3.0, 4.0]) + np.diag([1.0, 0.0, 0.0], 1), False),
    "chains": (np.kron(np.eye(2), [[-1.0, 1.0], [0.0, -1.0]]), False),
    "no-arc": (np.diag([-2.0, 3.0, 4.0, 5.0]), True),
}

# one pair of each refusal, with what it raises alone
REFUSED = {
    "K0-singular": (np.diag([1.0, 1.0, 1.0, 0.0]), np.eye(4), SingularMatrixError),
    "K1-singular": (np.eye(4), np.diag([1.0, 1.0, 1.0, 0.0]), SingularMatrixError),
    "quotient": (1e-300 * np.eye(4), 1e300 * np.eye(4), IllConditionedError),
    # M is finite, ||M||_2 = 2.5e308
    "spectrum": (0.5 * np.eye(4), np.array([[0.75e308, 0.5e308, 0, 0], [0.5e308, 0.75e308, 0, 0],
                                            [0, 0, 0.5e308, 0], [0, 0, 0, 0.5e308]]),
                 IllConditionedError),
    "ambiguous": (np.eye(4), np.diag([2.0, 2.0 + 1e-7, 5.0, 7.0]), IllConditionedError),
    # eigenvalues +-1e-12 merge into one cluster of mean 0: a unique verdict whose log has none
    "on-the-cut": (np.eye(4), np.diag([-1e-12, 1e-12, 1.0, 2.0]), SpectrumOnCutError),
}


def _route_pairs(rng):
    """One endpoint pair per route, in ROUTES' order, as two (6, 4, 4) stacks."""
    K0, K1 = [], []
    for core, similar in ROUTES.values():
        if similar:
            K, S = random_invertible(rng, 4), random_invertible(rng, 4)
            K0.append(K)
            K1.append(K @ S @ core @ np.linalg.inv(S))
        else:
            K0.append(2.0 * np.eye(4))
            K1.append(2.0 * core)
    return np.array(K0), np.array(K1)


def test_a_stack_of_every_route_gives_each_pair_its_own_record(rng, monkeypatch):
    K0, K1 = _route_pairs(rng)
    calls = {"_logm": 0, "_chains_log": 0}
    for name in calls:
        def spy(*args, _fn=getattr(matcore, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(matcore, name, spy)
    outcomes = classify_arc(K0, K1)
    assert calls["_chains_log"] >= 1 and calls["_logm"] > calls["_chains_log"]  # both fallbacks
    assert [o.verdict.value for o in outcomes] == ["unique", "countable", "continuum", "unique",
                                                  "continuum", "no-arc"]
    batched = [0, 1, 2, 5]
    for k0, k1 in ((K0, K1), (K0.reshape(2, 3, 4, 4), K1.reshape(2, 3, 4, 4)),
                   (K0[batched], K1[batched])):
        nested = np.empty(k0.shape[:-2], object)
        nested[...] = classify_arc(k0, k1)
        for i in np.ndindex(nested.shape):
            _same_arc(nested[i], classify_arc(k0[i], k1[i]))


@pytest.mark.parametrize("kind", REFUSED)
def test_a_refused_pair_among_every_route_raises_its_own_error_with_its_index(rng, kind):
    K0, K1 = _route_pairs(rng)
    bad0, bad1, error = REFUSED[kind]
    with pytest.raises(error) as alone:
        classify_arc(bad0, bad1)
    message = f"{alone.value} at stack index 3"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        classify_arc(np.insert(K0, 3, bad0, 0), np.insert(K1, 3, bad1, 0))


def test_an_endpoint_refusal_comes_before_a_later_ambiguous_verdict(monkeypatch):
    # pair 0 fails its endpoint check in the witness phase, pair 1 its verdict in the first
    K0 = np.stack([np.eye(3)] * 2)
    K1 = np.array([np.diag([1.0, 2.0, 3.0]), np.diag([2.0, 2.0 + 1e-7, 5.0])])
    with pytest.raises(IllConditionedError, match="^verdict is ambiguous .* at stack index 1$"):
        classify_arc(K0, K1)
    monkeypatch.setattr(geodesy, "_real_log",
                        lambda M, eigs, vecs, negatives, tol: [np.zeros((3, 3))] * len(negatives))
    with pytest.raises(IllConditionedError,
                       match=r"^witness endpoint check failed \(relative error .*\) at stack "
                             r"index 0$"):
        classify_arc(K0, K1)


def test_a_refusal_leaves_no_reference_cycle():
    # refusals are kept as (index, type, message) and raised anew: no kept exception holds a frame
    K0 = np.stack([np.eye(4)] * 2)
    K1 = np.array([np.diag([2.0, 2.0 + 1e-7, 5.0, 7.0]), np.diag([-1e-12, 1e-12, 1.0, 2.0])])
    gc.collect()
    gc.disable()
    try:
        for k0, k1 in [(K0, K1), (K0[::-1], K1[::-1]), (K0[0], K1[0]), (K0[1], K1[1])]:
            try:
                classify_arc(k0, k1)
            except TraceGeoError:
                pass
            else:
                pytest.fail("the pair was not refused")
        assert gc.collect() == 0
    finally:
        gc.enable()


def _product_stack(rng, shape, n):
    m = int(np.prod(shape))
    P = np.array([random_unimodular(rng, n) for _ in range(m)]).reshape(shape + (n, n))
    Q = _points(rng, shape, n)
    Q[np.linalg.det(Q) < 0, 0] *= -1.0
    M = sl_tangent_project(P, rng.uniform(-1.0, 1.0, shape + (n, n)))
    return P, rng.uniform(-1.5, 1.5, shape), Q, M, rng.uniform(-1.0, 1.0, shape)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("n", range(2, 7))
def test_the_product_chart_of_a_stack_is_that_of_each_member(rng, n, shape):
    P, x, Q, M, a = _product_stack(rng, shape, n)
    point = ProductPoint(P, x)
    back = product_inverse(Q)
    forward, push = product_forward(point), product_pushforward(point, M, a)
    assert type(point.line_part) is type(back.line_part) is np.ndarray
    assert point.line_part.shape == back.line_part.shape == shape
    for i in np.ndindex(shape):
        one = ProductPoint(P[i], x[i])
        assert np.array_equal(point.sl_part[i], one.sl_part) and point.line_part[i] == one.line_part
        assert np.array_equal(forward[i], product_forward(one))
        assert np.array_equal(push[i], product_pushforward(one, M[i], a[i]))
        alone = product_inverse(Q[i])
        assert np.array_equal(back.sl_part[i], alone.sl_part)
        assert back.line_part[i] == alone.line_part


def test_one_product_point_keeps_a_float_line_part():
    for point in (ProductPoint(np.eye(2), 0.5), ProductPoint(np.eye(2), np.float64(0.5)),
                  product_inverse(2.0 * np.eye(2))):
        assert type(point.line_part) is float


def test_a_stacked_product_point_svds_only_the_members_past_the_det_test(rng, monkeypatch):
    U, V = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2))
    Q = U @ np.diag(np.geomspace(1.0, 1e10, 4)) @ V.T
    Q[0] *= np.sign(np.linalg.det(Q))
    P = np.array([random_unimodular(rng, 4), product_inverse(Q).sl_part, random_unimodular(rng, 4)])
    assert abs(np.linalg.det(P[1]) - 1.0) > 1e-10  # accepted by the second test alone
    shapes = []

    def svd(a, compute_uv=True, _svd=_lapack.svd):
        shapes.append(a.shape)
        return _svd(a, compute_uv)

    monkeypatch.setattr(_lapack, "svd", svd)
    ProductPoint(P, np.zeros(3))
    assert shapes == [(1, 4, 4)]


def test_a_refused_product_chart_member_is_named_by_its_stack_index(rng):
    P, x, Q, M, a = _product_stack(rng, (2, 2), 3)
    P[1, 0] *= 2.0
    with pytest.raises(NotUnimodularError,
                       match=r"^sl_part must have determinant 1 at stack index \(1, 0\)$"):
        ProductPoint(P, x)
    Q[0, 1, 0] *= -1.0
    with pytest.raises(NonPositiveDeterminantError, match=r"^product chart needs a positive "
                                                          r"determinant at stack index \(0, 1\)$"):
        product_inverse(Q)
    x[1, 1] = np.inf
    with pytest.raises(ValueError, match=r"^line_part must be finite at stack index \(1, 1\)$"):
        ProductPoint(P, x)
    P[1, 0] /= 2.0
    x[1, 1] = -2000.0  # e^(-2000 / sqrt 3) is below the normal float range
    point = ProductPoint(P, x)
    for chart in (lambda: product_forward(point), lambda: product_pushforward(point, M, a)):
        with pytest.raises(IllConditionedError, match=r"^product chart underflows the float "
                                                      r"range at stack index \(1, 1\)$"):
            chart()
    with pytest.raises(DimensionMismatchError, match="^line_part of shape \\(2,\\) does not fit"):
        ProductPoint(P, x[0])
    with pytest.raises(DimensionMismatchError, match="^a of shape \\(\\) does not fit"):
        product_pushforward(ProductPoint(P, np.zeros((2, 2))), M, 0.5)


@pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
def test_a_non_finite_line_tangent_of_a_stack_is_a_value_error(rng, a):
    P, x, _, M, tangent = _product_stack(rng, (3,), 2)
    tangent[2] = a
    with pytest.raises(ValueError, match="^a must be finite at stack index 2$"):
        product_pushforward(ProductPoint(P, x), M, tangent)


def test_a_function_of_one_matrix_refuses_a_stack():
    with pytest.raises(ValueError, match=r"K1 must be square, got shape \(2, 2, 2\)"):
        broken_arc(np.stack([np.eye(2)] * 2), np.stack([np.eye(2)] * 2))


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
    # geodesic: the curves of the residuals, their shifted copies, and the witnesses' endpoints
    assert counts[0]["__init__"] == {"geodesic": 3, "foliation": 1}[suite]


def test_the_geodesic_suite_inverts_one_eigenbasis_stack_for_all_its_arcs(monkeypatch):
    # classify_arc's witnesses: one batched inv of the 2 * cases eigenbases, whatever the count
    inverted, inv, classify = [], _lapack.inv, geodesy.classify_arc

    def spy(*args):
        with monkeypatch.context() as patch:
            patch.setattr(_lapack, "inv", lambda a: inverted.append(a.shape) or inv(a))
            return classify(*args)

    monkeypatch.setattr(geodesy, "classify_arc", spy)
    for cases in (4, 8):
        inverted.clear()
        assert verify.run_suite("geodesic", 3, 0, cases)["failures"] == []
        assert inverted == [(2 * cases, 3, 3)]


# what each suite calls once per suite call (geodesic and product: every call they make of it)
ONCE = {"metric": {"signature_at": 1},
        "geodesic": {"classify_arc": 1},
        "product": {"__init__": 1, "product_forward": 2, "product_inverse": 2,
                    "product_pushforward": 2, "trace_metric": 2}}


@pytest.mark.parametrize("suite", ["metric", "geodesic", "curvature", "foliation", "product"])
def test_a_suite_calls_each_identity_once_not_once_per_case(monkeypatch, suite):
    spied = [(metricspace, "trace_metric"), (metricspace, "signature_at"),
             (curvature, "riemann_04"), (metricspace, "pushforward"),
             (geodesy, "classify_arc"), (metricspace, "product_forward"),
             (metricspace, "product_inverse"), (metricspace, "product_pushforward"),
             (ProductPoint, "__init__")]
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
    for name, count in ONCE.get(suite, {}).items():
        assert counts[0][name] == count
