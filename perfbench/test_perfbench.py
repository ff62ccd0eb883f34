"""Tests of the benchmark itself.

Run from the repository root or from this directory:

    python3 -m pytest perfbench        # or, inside perfbench/: python3 -m pytest
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
try:
    import tracegeo  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
import workloads as wl  # noqa: E402


def _inputs(ops):
    return [(op.label, op.inputs) for op in ops]


def _same_inputs(a, b):
    if len(a) != len(b):
        return False
    for (la, xa), (lb, xb) in zip(a, b):
        if la != lb or len(xa) != len(xb):
            return False
        for u, v in zip(xa, xb):
            if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
                if not np.array_equal(u, v):
                    return False
            elif u != v:
                return False
    return True


@pytest.mark.parametrize("build", [wl.build_arcs, wl.build_fields, wl.build_verify])
def test_generator_is_deterministic_per_seed(build):
    first, again, other = _inputs(build(5)), _inputs(build(5)), _inputs(build(6))
    assert _same_inputs(first, again)
    assert not _same_inputs(first, other)


def test_cli_inputs_are_deterministic_per_seed(tmp_path):
    runner = wl.CliRunner({})
    argv = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        ops = wl.build_cli(3, tmp_path / name, runner)
        argv.append([[Path(x).read_text() if x.startswith(str(tmp_path)) else x
                      for x in op.inputs] for op in ops])
    assert argv[0] == argv[1]
    assert {op.label for op in ops} == {"metric", "signature", "classify", "arc", "broken-arc",
                                        "geodesic", "curvature", "verify"}


@pytest.mark.parametrize("cls", wl.ARC_CLASSES)
def test_each_spectral_class_gets_its_verdict_at_unit_scale(cls):
    rng = np.random.default_rng(11)
    for n in wl.ARC_ORDERS:
        for _ in range(3):
            op = wl.arc_op(rng, cls, n, 1.0)
            assert op.check(op.call()) <= 1.0, (cls, n)


def test_checks_reject_a_wrong_verdict():
    op = wl.arc_op(np.random.default_rng(12), "nonsym-pos", 3, 1.0)
    K0, K1 = op.inputs
    assert wl._check_classify(K0, K1, "continuum")(op.call()) == float("inf")


def test_nan_output_fails_and_counts_as_wrong():
    op = wl.arc_op(np.random.default_rng(13), "nonsym-pos", 3, 1.0)
    K0, K1 = op.inputs
    out = op.call()
    nan = np.full_like(out.witness.direction, np.nan)
    bad = SimpleNamespace(verdict=out.verdict,
                          witness=SimpleNamespace(base_point=out.witness.base_point, direction=nan))
    ratio = wl._check_classify(K0, K1, "unique")(bad)
    assert not ratio <= 1.0
    tally = worker.Tally(2)
    tally.record(0, 1000, 0.5)
    tally.record(1, 1000, math.nan)
    assert (tally.failed, tally.incorrect, tally.worst_ratio) == (1, 1, 0.5)
    assert [slot for slot, _ in tally.slots()] == [0]


def test_outcomes_count_pool_slots_not_repeats():
    """Two runs of one seed that make different numbers of rounds report the same counts."""
    tallies = []
    for rounds in (3, 7):
        tally = worker.Tally(3)
        for _ in range(rounds):
            tally.record(0, 1000, 0.5)
            tally.record(1, 1000, None)
            tally.record(2, 1000, math.inf)
        tallies.append((tally.attempted, tally.failed, tally.incorrect))
    assert tallies == [(3, 2, 1), (3, 2, 1)]


def test_closed_loop_finishes_its_last_round():
    calls = []
    ops = [wl.Op(str(i), lambda i=i: calls.append(i), lambda out: 0.0) for i in range(5)]
    tally = worker.closed_loop(ops, 1e-9, worker.Reference(lambda: None, 1.0))
    assert tally.attempted == 5 and tally.runs % 5 == 0 and calls[:5] == [0, 1, 2, 3, 4]


def test_unreadable_output_is_a_wrong_output():
    op = wl.Op("product_forward", lambda: "not a matrix", lambda out: np.linalg.det(out), ())
    assert worker.run_one(op)[1] == math.inf


def test_scale_range_is_not_narrowed():
    """The arcs pool spans c in 1e-6..1e6, where the seed's absolute threshold floors bite."""
    scales = [np.linalg.norm(K1) / np.linalg.norm(K0) for K0, K1 in
              (op.inputs for op in wl.build_arcs(1))]
    assert min(scales) < 1e-5 and max(scales) > 1e5


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_output_has_every_named_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fields", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    named = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "arcs", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
