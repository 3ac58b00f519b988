"""Tests of the benchmark's own checks and tracer.

Run with `python3 -m pytest perfbench` from the repository root.
"""

import contextlib
import csv
import io
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def small_tensor_run(tmp_path_factory):
    """A 27-dof tensor-3d-full run (n=2, p=2) and its Kronecker spectra."""
    from softfem import cli

    work = tmp_path_factory.mktemp("tensor")
    saved = workloads.TENSOR_N, workloads.TENSOR_P
    workloads.TENSOR_N, workloads.TENSOR_P = 2, 2
    try:
        case = workloads.tensor_3d_full(7, str(work))
    finally:
        workloads.TENSOR_N, workloads.TENSOR_P = saved
    case.relerr_tol = 1.0  # the 2-cell mesh is coarse
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", case.config_path, "--out", str(out)]) == 0
    return case, out, checks.kronecker_spectra(**case.kronecker)


def _edit_csv(path, row, column, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    k = rows[0].index(column)
    rows[row + 1][k] = edit(rows[row + 1][k])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_exact_values():
    expected = math.pi**2 * np.array([2, 5, 5, 8, 10, 10])
    assert np.allclose(workloads.exact_values(2, 6), expected, rtol=1e-15)
    assert np.allclose(workloads.exact_values(3, 4, 2.0), 2 * math.pi**2 * np.array([3, 6, 6, 6]))


def test_check_passes_on_pipeline_output(small_tensor_run):
    case, out, kron = small_tensor_run
    relerr = checks.check_outputs(case, str(out), kron)
    assert 0 < relerr["relerr_low_soft"] < case.relerr_tol
    assert 0 < relerr["relerr_low_fem"] < case.relerr_tol


@pytest.mark.parametrize(
    "column, row, edit, message",
    [
        ("lambda_soft", 3, lambda v: repr(float(v) * 1.5), "two-sided bound"),
        ("lambda_soft", 20, lambda v: repr(float(v) * 0.3), "two-sided bound"),
        ("lambda_fem", 26, lambda v: repr(float(v) * (1 + 1e-9)), "Kronecker sum"),
        ("lambda_fem", 0, lambda v: "x", "could not convert"),
        ("lambda_fem", 1, lambda v: "", "finite modes"),
    ],
)
def test_perturbed_spectrum_fails(small_tensor_run, tmp_path, column, row, edit, message):
    case, out, kron = small_tensor_run
    copy = tmp_path / "out"
    copy.mkdir()
    for name in os.listdir(out):
        (copy / name).write_bytes((out / name).read_bytes())
    _edit_csv(copy / "spectrum_p2.csv", row, column, edit)
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_outputs(case, str(copy), kron)


def test_missing_output_and_tolerance_fail(small_tensor_run, tmp_path):
    case, out, kron = small_tensor_run
    with pytest.raises(checks.CheckFailed, match="summary.json"):
        checks.check_outputs(case, str(tmp_path), kron)
    tight = workloads.Case(**{**vars(case), "relerr_tol": 1e-6})
    with pytest.raises(checks.CheckFailed, match="relerr_low_fem"):
        checks.check_outputs(tight, str(out), kron)


def test_tracer_wraps_every_binding_and_restores():
    from softfem import assembly, mesh_from_spec, oracle, speclab

    tracer = Tracer()
    before = tracer.bindings()
    bound = {(getattr(o, "__name__", ""), a) for o, a, _ in before}
    # speclab holds its own names for assembly functions; oracle goes through
    # the module: both bindings must be wrapped
    assert ("softfem.speclab", "assemble_mass") in bound
    assert ("softfem.assembly", "assemble_mass") in bound
    assert ("softfem", "assemble_mass") in bound
    with tracer:
        for owner, attr, original in before:
            assert vars(owner)[attr].traced_original is original
        speclab.solve_problem(mesh_from_spec({"type": "uniform", "n": 2, "d": 2}), 2)
        oracle.reference_spectrum(
            {"kappa": "1", "mesh": {"type": "uniform", "n": 2, "d": 2}}, 3,
            degree=2, refine=1, richardson=False,
        )
        assert assembly.element_map.traced_original
    for owner, attr, original in before:
        assert vars(owner)[attr] is original
    parents = {
        tracer.spans[s.parent].name
        for s in tracer.spans
        if s.name == "assembly.assemble_mass" and s.parent is not None
    }
    assert parents == {"speclab.solve_problem", "oracle.reference_spectrum"}
    layers = tracer.metrics(wall=1.0)
    assert layers["gevp.solve_calls"] == 3
    assert layers["assembly.assemble_calls"] == 5
    assert layers["gevp.residual_max"] < 1e-10


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, run.UNITS[name]) for name in run.END_TO_END
    ]
    layer_names = list(Tracer().metrics(wall=1.0)) + ["trace.overhead_s"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_units(name)) for name in layer_names
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
