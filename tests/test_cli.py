import argparse
import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracegeo import Geodesic, cli, errors, verify
from tracegeo.cli import main

I2_DOC = '{"n":2,"data":[[1,0],[0,1]]}'
E12_DOC = '{"n":2,"data":[[0,1],[0,0]]}'
E21_DOC = '{"n":2,"data":[[0,0],[1,0]]}'

# a fresh interpreter imports the package from this checkout's src, installed or not
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMetricCommand:
    def test_identity_value(self, capsys):
        code, out, _ = run_cli(capsys, "metric", "--at", I2_DOC, "--x", I2_DOC, "--y", I2_DOC)
        assert code == 0
        assert json.loads(out) == {"value": 2.0}

    def test_null_direction(self, capsys):
        code, out, _ = run_cli(capsys, "metric", "--at", I2_DOC, "--x", E12_DOC, "--y", E12_DOC)
        assert code == 0
        assert json.loads(out) == {"value": 0.0}

    def test_file_inputs(self, capsys, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(I2_DOC)
        code, out, _ = run_cli(capsys, "metric", "--at", str(p), "--x", str(p), "--y", str(p))
        assert code == 0
        assert json.loads(out)["value"] == 2.0

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json at all")
        code, _, err = run_cli(capsys, "metric", "--at", str(p), "--x", I2_DOC, "--y", I2_DOC)
        assert code == 1
        assert json.loads(err)["error"] == "parse"

    def test_wrong_shape(self, capsys):
        code, _, err = run_cli(capsys, "metric", "--at", '{"n":2,"data":[[1,0]]}', "--x", I2_DOC, "--y", I2_DOC)
        assert code == 1
        assert json.loads(err)["error"] == "parse"

    def test_singular_base(self, capsys):
        code, _, err = run_cli(
            capsys, "metric", "--at", '{"n":2,"data":[[1,0],[0,0]]}', "--x", I2_DOC, "--y", I2_DOC
        )
        assert code == 1
        assert json.loads(err)["error"] == "singular"

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(I2_DOC))
        code, out, _ = run_cli(capsys, "metric", "--at", "-", "--x", I2_DOC, "--y", I2_DOC)
        assert code == 0
        assert json.loads(out)["value"] == 2.0


    def test_bool_order_rejected(self, capsys):
        doc = '{"n": true, "data": [[2]]}'
        code, out, err = run_cli(capsys, "metric", "--at", doc, "--x", doc, "--y", doc)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "parse"

    @pytest.mark.parametrize("leaf", ['"1e3"', "true"], ids=["numeric-string", "bool"])
    def test_non_number_entry_is_a_parse_error(self, capsys, leaf):
        doc = '{"n": 1, "data": [[%s]]}' % leaf
        code, out, err = run_cli(capsys, "metric", "--at", doc, "--x", doc, "--y", doc)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "parse"

    def test_overflow_is_an_error_not_infinity(self, capsys):
        big = '{"n":2,"data":[[1e308,0],[0,1e308]]}'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "metric", "--at", I2_DOC, "--x", big, "--y", big)
        assert (code, out) == (1, "")
        doc = json.loads(err)
        assert doc["error"] == "ill-conditioned"
        assert "overflow" in doc["message"]

    def test_deep_nesting_is_a_parse_error(self, capsys):
        depth = 100000
        doc = '{"n": 1, "data": ' + "[" * depth + "]" * depth + "}"
        code, out, err = run_cli(capsys, "metric", "--at", doc, "--x", I2_DOC, "--y", I2_DOC)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "parse"


# JSON values a hostile matrix document may carry; "@BIG@" is spliced in as
# the raw token 1e999, which JSON parsers read as an overflowing float
_hostile_scalars = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(["1+2j", "nan", "1e3", "@BIG@"]),
)
_hostile_data = st.recursive(
    _hostile_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=9,
)
_entries = st.floats(allow_nan=False, allow_infinity=False) | _hostile_scalars
_square_data = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)
)
_hostile_order = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-3, max_value=10**30),
    st.sampled_from(["2", "@BIG@", None]),
)


@st.composite
def _hostile_documents(draw):
    data = draw(_square_data | _hostile_data)
    n = draw(_hostile_order | st.just(len(data) if isinstance(data, list) else 1))
    return json.dumps({"n": n, "data": data}).replace('"@BIG@"', "1e999")


# square documents of finite numbers with one entry a numeric string or a bool
_numberlike_leaves = st.booleans() | st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def _numberlike_documents(draw):
    n = draw(st.integers(1, 3))
    data = draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    data[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_numberlike_leaves)
    return json.dumps({"n": n, "data": data})


# well-formed documents with finite entries of any magnitude, so that some
# examples get past parsing into the computation
_finite_documents = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4
).map(lambda v: json.dumps({"n": 2, "data": [v[:2], v[2:]]}))
_documents = _hostile_documents() | _finite_documents


def _diag_doc(a, b):
    return json.dumps({"n": 2, "data": [[a, 0.0], [0.0, b]]})


def _scaled_identity_doc(c):
    return _diag_doc(c, c)


# every command that reads matrices: its leading arguments, then its matrix options
_FUZZED_COMMANDS = [
    (["signature"], ["--at"]),
    (["classify"], ["--k0", "--k1"]),
    (["arc"], ["--k0", "--k1"]),
    (["geodesic", "--samples", "3"], ["--k", "--c"]),
    (["geodesic", "--samples", "3"], ["--k", "--velocity"]),
    (["broken-arc"], ["--k1", "--k2"]),
    (["curvature", "--kind", "scalar"], ["--at"]),
    (["curvature", "--kind", "sectional"], ["--at", "--x", "--y"]),
    (["curvature", "--kind", "ricci"], ["--at", "--x", "--y"]),
    (["curvature", "--kind", "riemann04"], ["--at", "--x", "--y", "--z", "--w"]),
]


@st.composite
def _command_lines(draw):
    head, options = draw(st.sampled_from(_FUZZED_COMMANDS))
    argv = list(head)
    for option in options:
        argv += [option, draw(_documents)]
    return argv


# text for a numeric flag that is unreadable or out of range for at least one flag
_HOSTILE_NUMBERS = ["nan", "inf", "-1", "0", "abc", "1e999"]
_MATRICES = [I2_DOC, E12_DOC, _diag_doc(-1, -1), _diag_doc(2, 0.5)]
_TOLS = ["1e-8", "0.25", *_HOSTILE_NUMBERS]
_TIMES = ["-1", "0.5", "2", "1e308", "-1e308", *_HOSTILE_NUMBERS]
_GEODESIC_OPTIONS = {"--t-from": _TIMES, "--t-to": _TIMES,
                     "--samples": ["1", "3", *_HOSTILE_NUMBERS]}

# every command: its fixed head, its required options, and its optional ones, each with the
# values drawn for it; verify's head keeps --cases small unless a drawn --cases overrides it.
# geodesic takes exactly one of --c and --velocity, so each has its own row; a 1e-30 assertion
# tolerance and a 1e-20 step make verify report failed checks (exit 1, report on stdout)
_ARGUMENT_COMMANDS = [
    (["metric"], {"--at": _MATRICES, "--x": _MATRICES, "--y": _MATRICES}, {}),
    (["signature"], {"--at": _MATRICES}, {}),
    (["classify"], {"--k0": _MATRICES, "--k1": _MATRICES}, {"--tol": _TOLS}),
    (["arc"], {"--k0": _MATRICES, "--k1": _MATRICES}, {"--tol": _TOLS}),
    (["broken-arc"], {"--k1": _MATRICES, "--k2": _MATRICES}, {}),
    (["geodesic"], {"--k": _MATRICES, "--c": _MATRICES}, _GEODESIC_OPTIONS),
    (["geodesic"], {"--k": _MATRICES, "--velocity": _MATRICES}, _GEODESIC_OPTIONS),
    (["curvature"], {"--at": _MATRICES, "--kind": ["scalar", "sectional", "ricci", "riemann04", "bogus"]},
     {"--x": _MATRICES, "--y": _MATRICES, "--z": _MATRICES, "--w": _MATRICES}),
    (["verify", "--cases", "1"], {"--suite": [*verify.SUITES, "all", "bogus"]},
     {"--n": ["2", "3", *_HOSTILE_NUMBERS], "--seed": ["0", "42", *_HOSTILE_NUMBERS],
      "--cases": ["0", "3", "100000000000000", *_HOSTILE_NUMBERS],
      "--tol-assert": ["1e-30", *_TOLS],
      "--tol-cluster": _TOLS, "--fd-step": ["1e-4", "1e-20", *_HOSTILE_NUMBERS]}),
]


def test_the_argument_table_draws_every_flag_of_the_parser():
    # a flag the parser drops must leave the table, and a flag it gains must enter it
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    drawn = {}
    for head, required, optional in _ARGUMENT_COMMANDS:
        drawn.setdefault(head[0], set()).update(required, optional)
    parsed = {name: {flag for action in parser._actions for flag in action.option_strings
                     if flag not in ("-h", "--help")} for name, parser in commands.items()}
    assert drawn == parsed


@st.composite
def _argument_lists(draw):
    """A command with drawn option values, then maybe broken: a required option dropped, an
    unknown option inserted, or the subcommand replaced by an unknown one."""
    head, required, optional = draw(st.sampled_from(_ARGUMENT_COMMANDS))
    pairs = [(flag, draw(st.sampled_from(values))) for flag, values in required.items()]
    pairs += [(flag, draw(st.sampled_from(values))) for flag, values in optional.items()
              if draw(st.booleans())]
    breakage = draw(st.sampled_from(["none", "drop", "unknown-option", "unknown-command"]))
    if breakage == "drop":
        del pairs[draw(st.integers(0, len(required) - 1))]
    argv = list(head)
    for flag, value in draw(st.permutations(pairs)):
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if breakage == "unknown-option":
        argv.insert(draw(st.integers(1, len(argv))), "--bogus")
    if breakage == "unknown-command":
        argv[0] = draw(st.sampled_from(["bogus", "Metric", ""]))
    return argv


def _run(argv):
    """(exit code, stdout, stderr) of one in-process run, with every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_answers_in_json(argv):
    """Exit 0 with one JSON document on stdout, exit 2 with a no-arc verdict on stdout, exit 1
    with a verify report of failed checks on stdout, or exit 1 with one JSON error on stderr."""
    code, out, err = _run(argv)
    if code == 1 and out == "":
        assert isinstance(json.loads(err)["error"], str)
        return
    assert err == ""
    doc = json.loads(out)
    if code == 2:
        assert doc["verdict"] == "no-arc"
    elif code == 1:
        assert argv[0] == "verify" and doc["failures"]
    else:
        assert code == 0


class TestHostileInput:
    @settings(max_examples=60, deadline=None)
    @given(at=_documents, x=_documents, y=_documents)
    def test_metric_answers_in_json(self, at, x, y):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["metric", "--at", at, "--x", x, "--y", y])
        if code == 0:
            assert math.isfinite(json.loads(out.getvalue())["value"])
        else:
            assert code == 1 and out.getvalue() == ""
            assert isinstance(json.loads(err.getvalue())["error"], str)

    @settings(max_examples=40, deadline=None)
    @given(doc=_numberlike_documents())
    def test_numberlike_entries_are_parse_errors(self, doc):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["metric", "--at", doc, "--x", doc, "--y", doc])
        assert (code, out.getvalue()) == (1, "")
        assert json.loads(err.getvalue())["error"] == "parse"

    # overflow past the float range, each of which once leaked a RuntimeWarning
    @example(argv=["curvature", "--kind", "ricci", "--at", I2_DOC,
                   "--x", _diag_doc(0, 1.35e154), "--y", _diag_doc(0, 1.35e154)])
    @example(argv=["curvature", "--kind", "riemann04", "--at", I2_DOC,
                   "--x", _diag_doc(0, 1.19e174), "--y", E21_DOC,
                   "--z", _diag_doc(0, 1.19e174), "--w", E21_DOC])
    @example(argv=["curvature", "--kind", "sectional", "--at", I2_DOC,
                   "--x", _diag_doc(1e200, 0), "--y", _diag_doc(0, 1e200)])
    @example(argv=["classify", "--k0", _scaled_identity_doc(1.34e154),
                   "--k1", _scaled_identity_doc(1.34e154)])
    @example(argv=["arc", "--k0", _scaled_identity_doc(1.34e154),
                   "--k1", _scaled_identity_doc(1.34e154)])
    @example(argv=["broken-arc", "--k1", _scaled_identity_doc(1e200),
                   "--k2", _scaled_identity_doc(1e200)])
    @example(argv=["classify", "--k0", I2_DOC, "--k1", '{"n":2,"data":[[1e200,1e200],[0,1e200]]}'])
    @example(argv=["geodesic", "--k", _scaled_identity_doc(1.35e154), "--c", _diag_doc(0, 0)])
    @example(argv=["geodesic", "--k", _diag_doc(1e-12, 1), "--velocity", _diag_doc(1e300, 0)])
    # K0^-1 K1 at scale 1e-272 .. 1e304, far out in the float range: a typed answer or refusal,
    # and no warning, from the logarithm
    @example(argv=["classify", "--k0", _diag_doc(-7.820940878317247e+284, -8.28563366221217e+271),
                   "--k1", '{"n":2,"data":[[1,1],[-2,0]]}'])
    @example(argv=["classify", "--k0", _diag_doc(-1.294434894540508e+278, -8.285633662216671e+271),
                   "--k1", '{"n":2,"data":[[1,0.03125],[-2,0]]}'])
    @example(argv=["classify", "--k0", '{"n":2,"data":[[1e-06,1e-06],[-1.1,0]]}',
                   "--k1", _diag_doc(-3.395170794223354e+298, -1.1905450675048749e+292)])
    @settings(max_examples=300, deadline=None)
    @given(argv=_command_lines())
    def test_every_matrix_command_answers_in_json(self, argv):
        _assert_answers_in_json(argv)

    @example(argv=[])
    @example(argv=["verify", "--suite", "all", "--cases", "3", "--n", "3", "--seed", "42"])
    @example(argv=["verify", "--cases", "1", "--suite", "metric", "--tol-assert", "1e-30"])
    @example(argv=["geodesic", "--k", I2_DOC, "--c", _diag_doc(2, 0.5),
                   "--t-from=-1e308", "--t-to", "1e308"])
    @settings(max_examples=200, deadline=None)
    @given(argv=_argument_lists())
    def test_every_argument_list_answers_in_json(self, argv):
        _assert_answers_in_json(argv)


class TestSignatureCommand:
    def test_identity(self, capsys):
        code, out, _ = run_cli(capsys, "signature", "--at", '{"n":3,"data":[[1,0,0],[0,1,0],[0,0,1]]}')
        assert code == 0
        assert json.loads(out) == {"positive": 6, "negative": 3}


class TestClassifyCommand:
    def test_unique(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--k0", I2_DOC, "--k1", '{"n":2,"data":[[1,0],[0,2]]}')
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "unique"
        assert "witness" in doc
        assert doc["profile"]["clusters"][0]["block_sizes"] == [1]

    def test_no_arc_exit_two(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--k0", I2_DOC, "--k1", '{"n":2,"data":[[-1,0],[0,2]]}')
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "no-arc"
        assert "witness" not in doc

    def test_continuum_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--k0", I2_DOC, "--k1", '{"n":2,"data":[[-1,0],[0,-1]]}')
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "continuum"
        c = np.array(doc["witness"]["c"]["data"])
        assert np.allclose(c, [[0.0, -np.pi], [np.pi, 0.0]])


@pytest.mark.parametrize("command", ["classify", "arc"])
def test_an_overflowing_quotient_is_ill_conditioned(command, capfd):
    # valid endpoints whose K0^-1 K1 overflows: the library's own error, and nothing else reaches
    # the stderr file descriptor (no LAPACK message)
    code = main([command, "--k0", _scaled_identity_doc(1e-300), "--k1", _scaled_identity_doc(1e300)])
    out, err = capfd.readouterr()
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ill-conditioned",
                               "message": "K0^-1 K1 overflows the float range"}


@pytest.mark.parametrize("c", [9e307, 1e308])
def test_a_cluster_whose_eigenvalues_sum_past_the_float_range_is_classified(c, capfd):
    # c J2(1): finite endpoints, quotient and eigenvalues; only the sum of the two overflows
    code = main(["classify", "--k0", I2_DOC, "--k1", json.dumps({"n": 2, "data": [[c, c], [0, c]]})])
    out, err = capfd.readouterr()
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["verdict"] == "unique"
    assert doc["profile"]["clusters"] == [{"eigenvalue": {"re": c, "im": 0.0}, "block_sizes": [2]}]


@pytest.mark.parametrize("command", ["classify", "arc"])
def test_a_spectrum_past_the_float_range_is_ill_conditioned(command, capfd):
    # K0^-1 K1 is finite, but its spectral norm is 2.5e308: the library's own error, alone on stderr
    k1 = json.dumps({"n": 2, "data": [[0.75e308, 0.5e308], [0.5e308, 0.75e308]]})
    code = main([command, "--k0", _scaled_identity_doc(0.5), "--k1", k1])
    out, err = capfd.readouterr()
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ill-conditioned",
                               "message": "spectrum overflows the float range"}


class TestArcCommand:
    def test_arc_payload(self, capsys):
        code, out, _ = run_cli(capsys, "arc", "--k0", I2_DOC, "--k1", '{"n":2,"data":[[1,0],[0,4]]}')
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "unique"
        assert np.allclose(np.array(doc["c"]["data"]), np.diag([0.0, np.log(4.0)]))

    def test_arc_no_arc(self, capsys):
        code, out, _ = run_cli(capsys, "arc", "--k0", I2_DOC, "--k1", '{"n":2,"data":[[-1,0],[0,2]]}')
        assert code == 2
        assert json.loads(out) == {"verdict": "no-arc"}


class TestGeodesicCommand:
    def test_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "geodesic", "--k", I2_DOC, "--c", '{"n":2,"data":[[0,0],[0,0]]}', "--samples", "3"
        )
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 3
        for d in docs:
            assert np.allclose(np.array(d["data"]), np.eye(2))

    def test_diagonal_endpoint_and_unimodular_track(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "geodesic",
            "--k", I2_DOC,
            "--c", '{"n":2,"data":[[1,0],[0,-1]]}',
            "--t-from", "0", "--t-to", "1", "--samples", "5",
        )
        assert code == 0
        docs = json.loads(out)
        last = np.array(docs[-1]["data"])
        assert np.allclose(last, np.diag([np.e, 1.0 / np.e]))
        for d in docs:
            assert d["det"] == pytest.approx(1.0, abs=1e-8)

    def test_overflowing_sample_is_an_error_not_a_nan_token(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "geodesic", "--k", I2_DOC,
                                     "--c", '{"n":2,"data":[[800,0],[0,1]]}', "--samples", "2")
        assert (code, out, caught) == (1, "", [])
        assert json.loads(err)["error"] == "ill-conditioned"

    def test_overflowing_determinant_is_an_error_without_a_warning(self, capsys):
        # every sample is finite, but det(1.35e154 I) = 1.8e308 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "geodesic", "--k", _scaled_identity_doc(1.35e154),
                                     "--c", _diag_doc(0, 0), "--samples", "2")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ill-conditioned",
                                   "message": "determinant overflows the float range"}

    def test_samples_past_the_entry_cap_are_a_parse_error_before_any_sample(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linspace reached past the --samples cap")

        monkeypatch.setattr(np, "linspace", refuse)
        code, out, err = _run(["geodesic", "--k", I2_DOC, "--c", I2_DOC, "--samples", "1000000000"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "parse",
            "message": "argument --samples: 1000000000 samples of 4 entries exceed "
                       "the 1000000 one call may emit",
        }

    @pytest.mark.parametrize("n, samples, code", [(2, 3, 0), (2, 4, 1), (3, 1, 0), (3, 2, 1)])
    def test_the_cap_counts_samples_times_n_squared(self, monkeypatch, n, samples, code):
        monkeypatch.setattr(cli, "_MAX_SAMPLE_ENTRIES", 12)
        doc = json.dumps({"n": n, "data": np.eye(n).tolist()})
        got, out, err = _run(["geodesic", "--k", doc, "--c", doc, "--samples", str(samples)])
        assert got == code
        if code == 0:
            assert len(json.loads(out)) == samples
        else:
            assert json.loads(err)["error"] == "parse"

    def test_output_is_the_json_dumps_of_every_sample(self, capsys, rng):
        K, C = rng.uniform(-1, 1, (3, 3)) + 3 * np.eye(3), rng.uniform(-1, 1, (3, 3))
        code, out, _ = run_cli(capsys, "geodesic", "--k", json.dumps(verify.matrix_document(K)),
                               "--c", json.dumps(verify.matrix_document(C)),
                               "--t-from=-2", "--t-to", "3", "--samples", "7")
        geo = Geodesic(K, C)
        docs = []
        for t in np.linspace(-2.0, 3.0, 7):
            P = geo.point(float(t))
            docs.append({**verify.matrix_document(P), "t": float(t), "det": float(np.linalg.det(P))})
        assert (code, out) == (0, json.dumps(docs) + "\n")

    def test_documents_are_made_one_at_a_time_as_they_are_written(self, monkeypatch):
        made, writes, document = [], [], cli.matrix_document
        monkeypatch.setattr(cli, "matrix_document", lambda P: made.append(P) or document(P))

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(len(made))  # documents made by the time of each write
                return super().write(text)

        with contextlib.redirect_stdout(Recorder()):
            code = main(["geodesic", "--k", I2_DOC, "--c", _diag_doc(1, -1), "--samples", "5"])
        assert code == 0
        assert writes == [0, 1, 2, 3, 4, 5, 5, 5]  # "[", one per document, "]", the newline

    def test_velocity_input(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "geodesic",
            "--k", '{"n":2,"data":[[4,0],[0,1]]}',
            "--velocity", json.dumps({"n": 2, "data": [[4 * np.log(4.0), 0.0], [0.0, 0.0]]}),
            "--t-from", "1", "--t-to", "1", "--samples", "1",
        )
        assert code == 0
        doc = json.loads(out)[0]
        assert np.allclose(np.array(doc["data"]), np.diag([16.0, 1.0]))


class TestBrokenArcCommand:
    def test_half_turn(self, capsys):
        code, out, _ = run_cli(
            capsys, "broken-arc", "--k1", I2_DOC, "--k2", '{"n":2,"data":[[-1,0],[0,-1]]}'
        )
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(np.array(doc["joint"]["data"]), np.eye(2))
        assert np.allclose(np.array(doc["second"]["c"]["data"]), [[0.0, -np.pi], [np.pi, 0.0]])

    def test_component_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "broken-arc", "--k1", I2_DOC, "--k2", '{"n":2,"data":[[-1,0],[0,1]]}'
        )
        assert code == 1
        assert json.loads(err)["error"] == "different-components"


class TestCurvatureCommand:
    def test_scalar(self, capsys):
        code, out, _ = run_cli(
            capsys, "curvature", "--at", '{"n":3,"data":[[2,0,0],[0,1,1],[0,0,3]]}', "--kind", "scalar"
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(-12.0, abs=1e-9)

    def test_sectional(self, capsys):
        s12 = json.dumps({"n": 2, "data": [[0.0, 2**-0.5], [2**-0.5, 0.0]]})
        a12 = json.dumps({"n": 2, "data": [[0.0, 2**-0.5], [-(2**-0.5), 0.0]]})
        code, out, _ = run_cli(capsys, "curvature", "--at", I2_DOC, "--kind", "sectional", "--x", s12, "--y", a12)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(-0.5, abs=1e-12)

    def test_linearly_dependent(self, capsys):
        code, _, err = run_cli(capsys, "curvature", "--at", I2_DOC, "--kind", "sectional", "--x", E12_DOC, "--y", E12_DOC)
        assert code == 1
        assert json.loads(err)["error"] == "linearly-dependent"

    def test_riemann04_arity(self, capsys):
        code, _, err = run_cli(capsys, "curvature", "--at", I2_DOC, "--kind", "riemann04", "--x", E12_DOC, "--y", E12_DOC)
        assert code == 1
        assert json.loads(err)["error"] == "parse"

    @pytest.mark.parametrize("kind, given, stray", [
        ("scalar", ["--x"], "--x"),
        ("scalar", ["--w", "--y"], "--y --w"),
        ("sectional", ["--x", "--y", "--z"], "--z"),
        ("ricci", ["--x", "--y", "--z", "--w"], "--z --w"),
    ])
    def test_a_tangent_the_kind_does_not_take_is_a_parse_error(self, capsys, kind, given, stray):
        argv = ["curvature", "--at", I2_DOC, "--kind", kind]
        for option in given:
            argv += [option, E12_DOC if option == "--x" else E21_DOC]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "parse", "message": f"--kind {kind} takes no {stray}"}

    def test_a_missing_tangent_is_named_before_a_stray_one(self, capsys):
        code, _, err = run_cli(capsys, "curvature", "--at", I2_DOC, "--kind", "ricci",
                               "--x", E12_DOC, "--z", E21_DOC)
        assert code == 1
        assert json.loads(err) == {"error": "parse", "message": "--kind ricci needs --x --y"}


class TestVerifyCommand:
    def test_each_suite_passes(self, capsys):
        for suite in ("metric", "geodesic", "curvature", "foliation", "product"):
            code, out, _ = run_cli(
                capsys, "verify", "--suite", suite, "--n", "2", "--seed", "42", "--cases", "8"
            )
            assert code == 0, f"{suite} failed: {out}"
            report = json.loads(out)
            assert report["failures"] == []
            assert report["seed"] == 42

    def test_all_lists_every_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--n", "2", "--seed", "1", "--cases", "4")
        assert code == 0
        report = json.loads(out)
        assert report["suites"] == ["metric", "geodesic", "curvature", "foliation", "product"]

    @pytest.mark.parametrize("suite", [*verify.SUITES, "all"])
    def test_a_case_count_past_the_cap_is_a_prompt_parse_error(self, capsys, suite):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--cases", "100000000000000")
        assert time.perf_counter() - start < 5.0  # refused before a case is drawn
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "parse", "message": "cases must be an integer from 0 "
                                   f"to {verify.MAX_CASES}, got 100000000000000"}

    def test_deterministic_output(self, capsys):
        args = ("verify", "--suite", "product", "--n", "3", "--seed", "7", "--cases", "6")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("TRACEGEO_TOL", "1e-6")
        code, out, _ = run_cli(capsys, "verify", "--suite", "metric", "--n", "2", "--seed", "3", "--cases", "4")
        assert code == 0
        assert json.loads(out)["tolerances"]["assert"] == 1e-6

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TRACEGEO_TOL", "1e-6")
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "metric", "--n", "2", "--seed", "3", "--cases", "4",
            "--tol-assert", "1e-9",
        )
        assert code == 0
        assert json.loads(out)["tolerances"]["assert"] == 1e-9


    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_assert_tolerance_reaches_every_suite(self, capsys, suite):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--n", "3", "--seed", "0",
                               "--cases", "2", "--tol-assert", "1e-30")
        assert code == 1
        assert json.loads(out)["failures"]

    @pytest.mark.parametrize("n, refused", [
        ("2", {"geodesic:ode-residual": 6, "curvature:christoffel-closed-vs-fd": 2}),
        ("4", {"geodesic:ode-residual": 6}),  # the finite-difference Christoffel check runs at n <= 3
    ], ids=["n2", "n4"])
    def test_a_step_that_rounds_away_fails_its_checks_and_the_report_stands(self, capsys, n,
                                                                           refused):
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n", n, "--seed", "42",
                                 "--cases", "2", "--fd-step", "1e-20")
        assert (code, err) == (1, "")
        report = json.loads(out)
        failed = [f["check"] for f in report["failures"]]
        assert {check: failed.count(check) for check in failed} == refused
        assert all(f["expected"] == 0.0 and f["got"].startswith("step h must")
                   for f in report["failures"])
        _, default_out, _ = run_cli(capsys, "verify", "--suite", "all", "--n", n, "--seed", "42",
                                    "--cases", "2")
        assert report["cases"] == json.loads(default_out)["cases"]


class TestToleranceFlags:
    """Non-finite or non-positive tolerances are parse errors, never a verdict."""

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--tol", ("classify", "--k0", I2_DOC, "--k1", I2_DOC, "--tol", "-1")),
            ("--tol", ("classify", "--k0", I2_DOC, "--k1", I2_DOC, "--tol", "nan")),
            ("--tol", ("arc", "--k0", I2_DOC, "--k1", I2_DOC, "--tol", "0")),
            ("unrecognized arguments: --tol", ("broken-arc", "--k1", I2_DOC, "--k2", I2_DOC,
                                               "--tol", "inf")),
            ("--tol-cluster", ("verify", "--suite", "geodesic", "--cases", "1", "--tol-cluster=-1e-8")),
            ("--tol-assert", ("verify", "--suite", "metric", "--cases", "1", "--tol-assert", "nan")),
            ("--fd-step", ("verify", "--suite", "geodesic", "--cases", "1", "--fd-step", "nan")),
        ],
        ids=["classify-negative", "classify-nan", "arc-zero", "broken-arc-inf",
             "tol-cluster-negative", "tol-assert-nan", "fd-step-nan"],
    )
    def test_rejected(self, capsys, flag, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        doc = json.loads(err)
        assert doc["error"] == "parse"
        assert flag in doc["message"]

    def test_environment_tolerance_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("TRACEGEO_TOL", "-1")
        code, out, err = run_cli(capsys, "verify", "--suite", "metric", "--cases", "1")
        assert (code, out) == (1, "")
        doc = json.loads(err)
        assert doc["error"] == "parse"
        assert "TRACEGEO_TOL" in doc["message"]


class TestArgumentErrors:
    """Every malformed argument list is one JSON parse error on stderr with exit 1, never
    argparse's usage text with exit 2, which reads as "no arc"."""

    @pytest.mark.parametrize("argv, named", [
        (["classify", "--k0", I2_DOC], ["--k1"]),
        (["classify", "--k0", I2_DOC, "--k1", I2_DOC, "--tol", "abc"], ["--tol"]),
        (["geodesic", "--k", I2_DOC, "--c", I2_DOC, "--t-to", "inf"], ["--t-to"]),
        (["geodesic", "--k", I2_DOC, "--c", I2_DOC, "--t-from", "nan"], ["--t-from"]),
        (["geodesic", "--k", I2_DOC, "--c", I2_DOC, "--t-from=-1e308", "--t-to", "1e308"],
         ["--t-from", "--t-to"]),
        (["geodesic", "--k", I2_DOC, "--c", I2_DOC, "--samples", "0"], ["--samples"]),
        (["geodesic", "--k", I2_DOC, "--c", I2_DOC, "--velocity", I2_DOC], ["--velocity"]),
        (["verify", "--suite", "metric", "--cases", "-3"], ["--cases"]),
        (["verify", "--suite", "metric", "--cases", "1", "--seed", "-1"], ["--seed"]),
        (["verify", "--suite", "metric", "--cases", "1", "--n", "9"], ["--n"]),
        (["verify", "--suite", "bogus"], ["--suite"]),
        (["curvature", "--at", I2_DOC, "--kind", "bogus"], ["--kind"]),
        (["metric", "--at", "no-such-file.json", "--x", I2_DOC, "--y", I2_DOC], ["--at"]),
        (["signature", "--at", I2_DOC, "--bogus"], ["--bogus"]),
        (["bogus"], ["bogus"]),
        ([], ["command"]),
    ], ids=["missing-k1", "tol-abc", "t-to-inf", "t-from-nan", "span-overflows", "samples-zero",
            "c-and-velocity", "cases-negative", "seed-negative", "n-out-of-range", "unknown-suite",
            "unknown-kind", "missing-file", "unknown-option", "unknown-command", "no-command"])
    def test_is_one_json_parse_error_naming_the_argument(self, argv, named):
        code, out, err = _run(argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert doc["error"] == "parse"
        assert all(word in doc["message"] for word in named)


class TestErrorCodes:
    WIRE = {
        errors.SingularMatrixError: "singular",
        errors.DimensionMismatchError: "dimension-mismatch",
        errors.SpectrumOnCutError: "spectrum-on-cut",
        errors.NotSpecialOrthogonalError: "not-special-orthogonal",
        errors.DegenerateMetricError: "degenerate-metric",
        errors.NotUnimodularError: "not-unimodular",
        errors.NonPositiveDeterminantError: "non-positive-determinant",
        errors.DifferentComponentsError: "different-components",
        errors.IllConditionedError: "ill-conditioned",
        errors.DegenerateSectionError: "degenerate-section",
        errors.LinearlyDependentError: "linearly-dependent",
        errors.NotTangentError: "not-tangent",
    }

    def test_every_subclass_keeps_its_wire_code(self):
        assert errors.TraceGeoError.code == "error"
        assert {cls: cls.code for cls in errors.TraceGeoError.__subclasses__()} == self.WIRE

    def test_codes_are_distinct(self):
        codes = [errors.TraceGeoError.code, *self.WIRE.values()]
        assert len(set(codes)) == len(codes)


# Every command in one fresh process whose importer refuses scipy, so that any import of it fails
# the run: the arcs build witnesses (SPD, paired negative, complex pair, the defective [[1, 1],
# [0, 1]] through the logarithm's inverse scaling and squaring) and check them with the Pade
# exponential; broken-arc -I2 is a half turn.
_SCIPY_BLOCKED = """
import contextlib, importlib.abc, io, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
import tracegeo
from tracegeo.cli import main
I2 = '{"n":2,"data":[[1,0],[0,1]]}'
runs = [
    ["metric", "--at", I2, "--x", I2, "--y", I2],
    ["signature", "--at", I2],
    ["classify", "--k0", I2, "--k1", '{"n":2,"data":[[-1,0],[0,2]]}'],
    ["classify", "--k0", I2, "--k1", '{"n":2,"data":[[2,1],[-1,3]]}'],
    ["broken-arc", "--k1", I2, "--k2", '{"n":2,"data":[[2,1],[-1,3]]}'],
    ["broken-arc", "--k1", I2, "--k2", '{"n":2,"data":[[-1,0],[0,-1]]}'],
    ["curvature", "--at", I2, "--kind", "sectional",
     "--x", '{"n":2,"data":[[1,0],[0,0]]}', "--y", '{"n":2,"data":[[0,0],[0,1]]}'],
    ["curvature", "--at", I2, "--kind", "ricci", "--x", I2, "--y", I2],
    ["curvature", "--at", I2, "--kind", "scalar"],
    ["geodesic", "--k", I2, "--c", '{"n":2,"data":[[0.3,-1],[2,0.1]]}', "--samples", "4"],
    ["geodesic", "--k", I2, "--c", '{"n":2,"data":[[0,1],[0,0]]}', "--samples", "4"],
    ["arc", "--k0", I2, "--k1", '{"n":2,"data":[[2,1],[1,3]]}'],
    ["arc", "--k0", I2, "--k1", '{"n":2,"data":[[-2,0],[0,-2]]}'],
    ["arc", "--k0", I2, "--k1", '{"n":2,"data":[[1,1],[0,1]]}'],
    ["verify", "--suite", "all", "--n", "3", "--cases", "5"],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
tracegeo.real_log_principal([[2.0, 1.0], [1.0, 3.0]])
tracegeo.real_log_principal([[2.0, 1.0], [0.0, 2.0]])
tracegeo.geodesic_from_velocity([[2.0, 1.0], [1.0, 3.0]], [[0.0, 1.0], [1.0, 0.5]]).point(0.7)
tracegeo.mat_exp([[0.0, -1.0], [1.0, 0.0]])
tracegeo.so_log([[-1.0, 0.0], [0.0, -1.0]])
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


# One command in a fresh process: its exit code and the tracegeo modules (and dataclasses, which
# numpy, argparse and json do not import) loaded once it has run.
_LOADED_MODULES = """
import contextlib, io, json, sys
from tracegeo.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = [m for m in sys.modules if m.split(".")[0] in ("tracegeo", "dataclasses")]
print(json.dumps([code, sorted(loaded)]))
"""
_CLI_CORE = ["tracegeo", "tracegeo._lapack", "tracegeo.cli", "tracegeo.errors", "tracegeo.matcore"]
_METRICSPACE, _GEODESY = [*_CLI_CORE, "tracegeo.metricspace"], [*_CLI_CORE, "tracegeo.geodesy"]
_ALL_MODULES = sorted({*_METRICSPACE, *_GEODESY, "tracegeo.curvature", "tracegeo.verify"})


class TestColdStart:
    @pytest.mark.parametrize("argv, code, modules", [
        (["metric", "--at", I2_DOC, "--x", I2_DOC, "--y", E12_DOC], 0, _METRICSPACE),
        (["signature", "--at", I2_DOC], 0, _METRICSPACE),
        (["classify", "--k0", I2_DOC, "--k1", '{"n":2,"data":[[-1,0],[0,2]]}'], 2, _GEODESY),
        (["arc", "--k0", I2_DOC, "--k1", '{"n":2,"data":[[2,1],[1,3]]}'], 0, _GEODESY),
        (["broken-arc", "--k1", I2_DOC, "--k2", '{"n":2,"data":[[2,1],[-1,3]]}'], 0, _GEODESY),
        (["geodesic", "--k", I2_DOC, "--c", E12_DOC, "--samples", "3"], 0, _GEODESY),
        (["curvature", "--at", I2_DOC, "--kind", "ricci", "--x", I2_DOC, "--y", E12_DOC], 0,
         [*_METRICSPACE, "tracegeo.curvature"]),
        (["verify", "--suite", "metric", "--n", "2", "--cases", "1"], 0, _ALL_MODULES),
    ], ids=["metric", "signature", "classify", "arc", "broken-arc", "geodesic", "curvature",
            "verify"])
    def test_a_command_loads_only_the_modules_it_runs(self, argv, code, modules):
        proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *argv],
                              capture_output=True, text=True, env=SUBPROCESS_ENV)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [code, sorted(modules)]

    def test_a_bare_package_import_loads_no_submodule(self):
        script = ("import json, sys, tracegeo\n"
                  "print(json.dumps(sorted(m for m in sys.modules if 'tracegeo' in m)))")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=SUBPROCESS_ENV)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["tracegeo"]

    def test_every_command_runs_with_scipy_blocked(self):
        proc = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED],
                              capture_output=True, text=True, env=SUBPROCESS_ENV)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"codes": [0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                                           "scipy": []}

    def test_only_the_verify_command_imports_the_verify_suites(self):
        # one fresh process runs the other seven commands, then verify
        script = """
import contextlib, io, json, sys
from tracegeo.cli import main
I2, C = '{"n":2,"data":[[1,0],[0,1]]}', '{"n":2,"data":[[0,1],[0,0]]}'
runs = [
    ["metric", "--at", I2, "--x", I2, "--y", I2],
    ["signature", "--at", I2],
    ["classify", "--k0", I2, "--k1", '{"n":2,"data":[[2,1],[-1,3]]}'],
    ["arc", "--k0", I2, "--k1", '{"n":2,"data":[[2,1],[1,3]]}'],
    ["geodesic", "--k", I2, "--c", C, "--samples", "3"],
    ["broken-arc", "--k1", I2, "--k2", '{"n":2,"data":[[2,1],[-1,3]]}'],
    ["curvature", "--at", I2, "--kind", "sectional", "--x", C, "--y", I2],
    ["verify", "--suite", "metric", "--n", "2", "--cases", "1"],
]
loaded = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    loaded.append("tracegeo.verify" in sys.modules)
print(json.dumps(loaded))
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=SUBPROCESS_ENV)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False] * 7 + [True]


_NO_ARC = ("classify", "--k0", I2_DOC, "--k1", '{"n":2,"data":[[-1,0],[0,2]]}')
_OTHER_COMPONENT = ("broken-arc", "--k1", I2_DOC, "--k2", '{"n":2,"data":[[-1,0],[0,1]]}')


class TestInstalledEntryPoint:
    def test_subprocess_roundtrip(self):
        code, out, _ = self._module_run("metric", "--at", I2_DOC, "--x", I2_DOC, "--y", I2_DOC)
        assert code == 0
        assert json.loads(out) == {"value": 2.0}

    @pytest.mark.parametrize("argv, want", [(_NO_ARC, 2), (_OTHER_COMPONENT, 1)],
                             ids=["no-arc", "different-components"])
    def test_process_prints_and_exits_as_main_returns(self, capsys, argv, want):
        in_process = run_cli(capsys, *argv)
        assert in_process[0] == want
        assert self._module_run(*argv) == in_process

    def test_module_run_freezes_after_main_and_still_runs_atexit(self):
        script = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            f"sys.argv = ['tracegeo', 'metric', '--at', {I2_DOC!r}, '--x', {I2_DOC!r}, '--y', {I2_DOC!r}]\n"
            "runpy.run_module('tracegeo.cli', run_name='__main__')\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=SUBPROCESS_ENV)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{"value": 2.0}\nfrozen True\n', "")

    def test_console_script_is_the_process_entry(self):
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^\[project\.scripts\]\ntracegeo = "tracegeo\.cli:run"\n\n', text, re.M)

    @staticmethod
    def _module_run(*argv):
        proc = subprocess.run([sys.executable, "-m", "tracegeo.cli", *argv],
                              capture_output=True, text=True, env=SUBPROCESS_ENV)
        return proc.returncode, proc.stdout, proc.stderr


class TestProcessEntry:
    @pytest.mark.parametrize("argv, want", [
        (("metric", "--at", I2_DOC, "--x", I2_DOC, "--y", I2_DOC), 0),
        (_OTHER_COMPONENT, 1),
        (_NO_ARC, 2),
    ], ids=["ok", "error", "no-arc"])
    def test_main_never_freezes(self, capsys, argv, want):
        frozen = gc.get_freeze_count()
        assert run_cli(capsys, *argv)[0] == want
        assert gc.get_freeze_count() == frozen

    def test_entry_freezes_once_after_main_and_returns_its_code(self, monkeypatch):
        events = []
        monkeypatch.setattr(cli, "main", lambda argv=None: events.append("main") or 2)
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        assert cli.run() == 2
        assert events == ["main", "freeze"]

    def test_system_exit_out_of_main_is_not_frozen(self, monkeypatch):
        def help_exit(argv=None):
            raise SystemExit(0)

        monkeypatch.setattr(cli, "main", help_exit)
        monkeypatch.setattr(gc, "freeze", lambda: pytest.fail("froze on the way out of a SystemExit"))
        with pytest.raises(SystemExit):
            cli.run()
