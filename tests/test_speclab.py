import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from softfem import assembly, cli, gevp, oracle, speclab
from softfem.assembly import (
    assemble_mass,
    assemble_penalty,
    assemble_stiffness,
    build_space,
)
from softfem.coefficient import UNIT, parse_coefficient
from softfem.mesh import InvalidMeshError, Mesh, mesh_from_spec
from softfem.polyref import MAX_DEGREE, ReferenceBasis, cuboid_rule, simplex_rule

from oracles import interpolate
from test_inputs import BAD_INPUTS, SQUARE_MESH, check


@pytest.fixture(scope="module")
def small_bundle():
    mesh = mesh_from_spec({"type": "uniform", "n": 8, "d": 1})
    return speclab.solve_problem(mesh, 2)


def test_eigenvalue_error_curve():
    errs = speclab.eigenvalue_error_curve([1.1, 4.4], [1.0, 4.0, 9.0])
    assert np.allclose(errs, [0.1, 0.1])
    with pytest.raises(ValueError):
        speclab.eigenvalue_error_curve([1.0, 2.0], [1.0])


def test_convergence_rates_synthetic():
    hs = [1 / 4, 1 / 8, 1 / 16, 1 / 32]
    errs = [2.0 * h**3 for h in hs]
    out = speclab.convergence_rates(hs, errs)
    assert abs(out["rate"] - 3.0) < 1e-10
    assert out["dropped_levels"] == []
    noisy = errs[:2] + [1e-15, 1e-16]
    out2 = speclab.convergence_rates(hs, noisy)
    assert out2["dropped_levels"] == [2, 3]
    out3 = speclab.convergence_rates(hs, errs, floor=[0.0, 0.0, 1e-3, 1e-3])
    assert out3["dropped_levels"] == [2, 3]
    assert abs(out3["rate"] - 3.0) < 1e-10


def test_eigenfunction_errors_decrease_with_refinement(small_bundle):
    exact = oracle.exact_laplace_spectrum(1, 8)
    coarse = speclab.solve_problem(mesh_from_spec({"type": "uniform", "n": 4, "d": 1}), 2)
    e_coarse = speclab.eigenfunction_errors(coarse.space, coarse.soft, exact, 0)
    e_fine = speclab.eigenfunction_errors(
        small_bundle.space, small_bundle.soft, exact, 0
    )
    assert e_fine["h1"] < e_coarse["h1"] / 3
    assert e_fine["l2"] < e_coarse["l2"] / 6


def test_eigenfunction_errors_reject_clusters():
    mesh = mesh_from_spec({"type": "uniform", "n": 6, "d": 2})
    bundle = speclab.solve_problem(mesh, 1)
    exact = oracle.exact_laplace_spectrum(2, 6)
    # modes 2 and 3 share the eigenvalue 5 pi^2
    with pytest.raises(speclab.MultiplicityError):
        speclab.eigenfunction_errors(bundle.space, bundle.fem, exact, 1)


def test_jump_energy_ratio_bounds(small_bundle):
    ratios = speclab.jump_energy_ratio(
        small_bundle.soft, small_bundle.eta, small_bundle.K, small_bundle.S
    )
    assert np.all(ratios >= -1e-15)
    eta_max = 1.0 / (2 * 2 * 3)
    assert np.all(ratios <= small_bundle.eta / eta_max + 1e-12)


# -- the energy identity of a softened eigenpair --------------------------


def embed_coefficients(space_lo, coeffs_lo, space_hi):
    """Re-express a low-degree FE function in a higher-degree space on the
    same mesh, by nodal evaluation (exact since the spaces are nested)."""
    if space_lo.mesh is not space_hi.mesh:
        raise ValueError("spaces must share a mesh")
    full_lo = speclab._full_coefficients(space_lo, coeffs_lo)
    V, _ = space_lo.basis.eval(space_hi.basis.nodes)
    full_hi = np.zeros(space_hi.n_full)
    full_hi[space_hi.element_dofs] = full_lo[space_lo.element_dofs] @ V.T
    return full_hi[space_hi.reduced_to_full]


def pythagorean_residual(space, spectrum, exact, j, eta, kappa=UNIT):
    """Residual of the eigenpair energy identity for softFEM mode j.

    The exact eigenfunction is replaced by its degree-(p+4) interpolant on
    the same mesh. Returns {'residual', 'scale'} where scale estimates the
    perturbation introduced by that replacement.
    """
    speclab._require_simple(spectrum.values, j)
    lam = float(exact.values[j])
    lam_soft = float(spectrum.values[j])
    uval, _ = exact.eigenfunction(j)

    space_hi = build_space(space.mesh, space.p + 4)
    K = assemble_stiffness(space_hi, kappa)
    S = assemble_penalty(space_hi, kappa)
    M = assemble_mass(space_hi)

    u_interp = interpolate(space_hi, uval)
    errs, sign = speclab._coefficient_errors(space, spectrum.vector(j), exact, j)

    u_h = sign * embed_coefficients(space, spectrum.vector(j), space_hi)
    e_vec = u_interp - u_h
    lhs = float(e_vec @ (K @ e_vec)) - eta * float(e_vec @ (S @ e_vec))
    rhs = lam * float(e_vec @ (M @ e_vec)) + lam_soft - lam

    # interpolation error of the exact mode in the fine space
    ierr, _ = speclab._coefficient_errors(space_hi, u_interp, exact, j)
    e_energy = errs["h1"] + math.sqrt(lam) * errs["l2"]
    i_energy = ierr["h1"] + math.sqrt(lam) * ierr["l2"]
    scale = i_energy * (i_energy + 2.0 * e_energy) + 1e-14 * lam
    return {"residual": abs(lhs - rhs), "scale": scale}


def test_embed_preserves_energy(small_bundle):
    space_hi = build_space(small_bundle.space.mesh, small_bundle.space.p + 2)
    K_hi = assemble_stiffness(space_hi)
    x = small_bundle.fem.vectors[:, 2]
    y = embed_coefficients(small_bundle.space, x, space_hi)
    e_lo = float(x @ (small_bundle.K @ x))
    e_hi = float(y @ (K_hi @ y))
    assert abs(e_lo - e_hi) < 1e-10 * e_lo


@pytest.mark.parametrize("spec", [{"type": "uniform", "n": 3, "d": 2},
                                  {"type": "unit-square", "n": 2}])
def test_embed_matches_elementwise_interpolation(spec):
    """The one scatter of `embed_coefficients` gives what interpolating
    element by element gives, to rounding."""
    space_lo = build_space(mesh_from_spec(spec), 2)
    space_hi = build_space(space_lo.mesh, 4)
    x = np.random.default_rng(0).standard_normal(space_lo.ndof)
    full_lo = np.zeros(space_lo.n_full)
    full_lo[space_lo.reduced_to_full] = x
    V, _ = space_lo.basis.eval(space_hi.basis.nodes)
    want = np.zeros(space_hi.n_full)
    for e in range(space_lo.mesh.n_elements):
        want[space_hi.element_dofs[e]] = V @ full_lo[space_lo.element_dofs[e]]
    got = embed_coefficients(space_lo, x, space_hi)
    np.testing.assert_allclose(got, want[space_hi.reduced_to_full], rtol=0, atol=1e-13)


def test_pythagorean_residual_small(small_bundle):
    exact = oracle.exact_laplace_spectrum(1, 8)
    for j in [0, 2]:
        out = pythagorean_residual(
            small_bundle.space, small_bundle.soft, exact, j, small_bundle.eta
        )
        assert out["residual"] <= 10.0 * out["scale"]


def test_config_validation_names_fields():
    with pytest.raises(speclab.ConfigError, match="name"):
        speclab.ExperimentConfig.from_dict({"mesh": {"type": "uniform", "n": 2, "d": 1}})
    with pytest.raises(speclab.ConfigError, match="mesh"):
        speclab.ExperimentConfig.from_dict({"name": "x"})
    with pytest.raises(speclab.ConfigError, match="degrees"):
        speclab.ExperimentConfig.from_dict(
            {"name": "x", "mesh": {"type": "uniform", "n": 2, "d": 1}, "degrees": [0]}
        )
    with pytest.raises(speclab.ConfigError, match="eta"):
        speclab.ExperimentConfig.from_dict(
            {"name": "x", "mesh": {"type": "uniform", "n": 2, "d": 1}, "eta": "soft"}
        )
    with pytest.raises(speclab.ConfigError, match="wibble"):
        speclab.ExperimentConfig.from_dict({"name": "x", "wibble": 1})


def test_eta_sweep_assembles_once_and_matches_standalone_runs(tmp_path, monkeypatch):
    base = {
        "name": "sweep",
        "mesh": {"type": "uniform", "n": 10, "d": 1},
        "degrees": [2],
        "reference": "exact",
        "jump_ratio": True,
    }
    etas = [0.0, 1.0 / 48.0, 1.0 / 16.0]
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    stiffness = speclab.assemble_stiffness
    monkeypatch.setattr(speclab, "assemble_stiffness", counted("assemble", stiffness))
    monkeypatch.setattr(gevp, "solve_gmevp", counted("solve", gevp.solve_gmevp))
    summary = speclab.run_experiment({**base, "eta_sweep": etas}, tmp_path / "sweep")
    assert calls.count("assemble") == 1
    assert calls.count("solve") == 1 + 1 + 2  # fem, default eta, the nonzero sweep etas
    monkeypatch.undo()
    for i, eta in enumerate(etas):
        alone = speclab.run_experiment({**base, "eta": eta}, tmp_path / f"eta{i}")
        swept = (tmp_path / "sweep" / f"spectrum_p2_eta{i}.csv").read_bytes()
        assert swept == (tmp_path / f"eta{i}" / "spectrum_p2.csv").read_bytes()
        by_eta = summary["by_degree"]["2"]["eta_sweep"]
        assert by_eta[speclab._fmt(eta)] == alone["by_degree"]["2"]


# -- the Kronecker-sum path -----------------------------------------------


@pytest.mark.parametrize("d,n,p", [(2, 3, 2), (3, 2, 3)])
def test_kronecker_path_forms_no_d_dimensional_matrix(monkeypatch, d, n, p):
    calls, shapes = [], []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def shaped(name):
        original = getattr(speclab, name)

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(speclab, name, wrapper)

    counted(sp, "kron")
    counted(np, "kron")
    for name in ("assemble_stiffness", "assemble_mass", "assemble_penalty"):
        shaped(name)
    mesh = mesh_from_spec({"type": "uniform", "n": n, "d": d})
    bundle = speclab.solve_problem(mesh, p)
    assert bundle.solver == "kronecker"
    assert calls == []
    m = bundle.K.shape[0]
    assert m ** d == bundle.fem.order  # the 1D pencil
    assert shapes == [(m, m)] * 3
    assert bundle.fem.vectors is None and bundle.soft.vectors is None
    sp.kron(bundle.M, bundle.M)
    assert calls  # the counter sees the forming


def test_kronecker_reference_forms_no_d_dimensional_matrix(tmp_path, monkeypatch):
    """A high-order reference on a tensor mesh with constant kappa takes the
    Kronecker path too: no matrix of the refined 2D order is assembled, and
    its values agree with the dense solve of the assembled refined 2D pencil
    to ROUNDING_MULTIPLE * eps * lambda_max."""
    shapes = []

    def shaped(name):
        original = getattr(assembly, name)

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            shapes.append(out.shape)
            return out

        for module in (assembly, speclab):
            monkeypatch.setattr(module, name, wrapper)

    for name in ("assemble_stiffness", "assemble_mass", "assemble_penalty"):
        shaped(name)
    mesh = {"type": "uniform", "n": 4, "d": 2}
    cfg = {"name": "k", "mesh": mesh, "kappa": "2", "degrees": [2],
           "reference": "high-order", "reference_degree": 3, "reference_refine": 2}
    summary = speclab.run_experiment(cfg, str(tmp_path))
    monkeypatch.undo()
    assert summary["solver"] == {"2": "kronecker"}
    # the problem's 1D pencil (7 dofs), then the reference's (8 cells, p = 3)
    assert shapes == [(7, 7)] * 3 + [(23, 23)] * 2

    space = build_space(mesh_from_spec({**mesh, "n": 8}), 3)
    assert space.ndof == 23**2
    kappa = parse_coefficient("2")
    dense = gevp.solve_gmevp(assemble_stiffness(space, kappa), assemble_mass(space))
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
    lambda_ref = np.array([float(row.split(",")[2]) for row in rows])
    assert len(lambda_ref) == 7**2
    error = np.abs(lambda_ref - dense.values[: len(lambda_ref)]).max()
    assert error <= speclab.ROUNDING_MULTIPLE * np.finfo(float).eps * dense.lambda_max

    # the default reference of a 3D n=4 run (p = 7 on 16^3 cells: 111^3 sums)
    # forms only the sums it reports, and its refined mesh no pairwise array
    cfg = {"name": "k3", "mesh": {"type": "uniform", "n": 4, "d": 3}, "kappa": "2",
           "degrees": [2], "reference": "high-order"}
    tracemalloc.start()
    try:
        summary = speclab.run_experiment(cfg, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["solver"] == {"2": "kronecker"}
    assert peak <= 16 * 2**20
    space = build_space(mesh_from_spec({"type": "uniform", "n": 16, "d": 1}), 7)
    mu = gevp.solve_gmevp(assemble_stiffness(space, kappa), assemble_mass(space)).values
    assert len(mu) == 111
    sums = np.sort(np.add.outer(mu, np.add.outer(mu, mu)).ravel(), kind="stable")
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
    lambda_ref = np.array([float(row.split(",")[2]) for row in rows])
    assert lambda_ref.tobytes() == sums[: 7**3].tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_kronecker_lowest_k_is_the_full_sorts_first_k(d):
    """The lowest k modes of a factored spectrum are, bit for bit, the first
    k of the stable sort of all n^d sums, with the same index tuples and
    ties, and lambda_max is the largest sum: for every k, including each
    that splits a cluster of equal sums, and for k above n^d. The integer
    values tie exactly, also with a sum just outside the block."""
    fem = speclab.solve_problem(mesh_from_spec({"type": "uniform", "n": 4, "d": 1}), 2,
                                eta_policy="galerkin").fem
    for spectrum in (fem, gevp.Spectrum(values=np.arange(6.0), vectors=None)):
        mu, n = spectrum.values, spectrum.order
        values = mu
        for _ in range(d - 1):
            values = np.add.outer(mu, values).ravel()
        order = np.argsort(values, kind="stable")
        indices = np.array(np.unravel_index(order, (n,) * d))
        for k in [*range(1, n**d + 1), n**d + 5, None]:
            got = gevp._kronecker_spectrum(spectrum, d, k)
            want = slice(None) if k is None else slice(k)
            assert got.values.tobytes() == values[order][want].tobytes()
            assert np.array_equal(got.indices, indices[:, want])
            assert got.lambda_max == values.max()


@pytest.mark.parametrize("d,efn_modes", [(2, []), (3, []), (2, [1, 2]), (3, [1, 2])])
def test_kronecker_run_builds_the_d_dimensional_space_on_demand(
    tmp_path, monkeypatch, d, efn_modes
):
    built = []

    def spy(mesh, p):
        built.append(mesh.d)
        return build_space(mesh, p)

    monkeypatch.setattr(speclab, "build_space", spy)
    mesh = {"type": "uniform", "n": 3, "d": d}
    cfg = {"name": "k", "mesh": mesh, "degrees": [2], "reference": "exact",
           "eigenfunction_modes": efn_modes}
    summary = speclab.run_experiment(cfg, str(tmp_path))
    assert summary["solver"] == {"2": "kronecker"}
    assert summary["by_degree"]["2"]["n_dofs"] == 5**d
    # the 1D space, and the d-dimensional one only for eigenfunction errors
    assert built == ([1, d] if efn_modes else [1])

    built.clear()
    bundle = speclab.solve_problem(mesh_from_spec(mesh), 2)
    assert built == [1] and bundle.ndof == 5**d
    space, want = bundle.space, build_space(bundle.mesh, 2)
    assert bundle.space is space and built == [1, d]
    assert space.ndof == want.ndof == bundle.ndof
    assert np.array_equal(space.element_dofs, want.element_dofs)


def test_kronecker_spectrum_is_factored_bit_for_bit():
    """Value j is mu[i0] + (mu[i1] + mu[i2]) over the index tuple of mode j,
    and vector(j) is column j of the full Kronecker product matrix (slowest
    axis first), negated where its inner product with the start vector is
    negative."""
    bundle = speclab.solve_problem(mesh_from_spec({"type": "uniform", "n": 3, "d": 3}), 2)
    spectrum = bundle.soft
    mu, X, idx = spectrum.factor.values, spectrum.factor.vectors, spectrum.indices
    assert spectrum.vectors is None and idx.shape == (3, spectrum.order)
    assert np.array_equal(spectrum.values, mu[idx[0]] + (mu[idx[1]] + mu[idx[2]]))
    full = X[:, idx[0]]
    for j in idx[1:]:
        full = (full[:, None, :] * X[:, j][None, :, :]).reshape(-1, spectrum.order)
    full *= np.where(gevp._start_vector(len(full)) @ full < 0, -1.0, 1.0)
    for j in range(spectrum.order):
        assert spectrum.vector(j).tobytes() == full[:, j].tobytes()


def test_kronecker_path_scales_to_3d_n8_p3(tmp_path):
    """12,167 dofs: the spectra stay factored, so no n x n array is formed
    (the eigenvector matrices alone would take 2 x 1.1 GiB)."""
    mesh = {"type": "uniform", "n": 8, "d": 3}
    tracemalloc.start()
    try:
        bundle = speclab.solve_problem(mesh_from_spec(mesh), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bundle.solver == "kronecker" and bundle.fem.order == 12167
    assert peak <= 16 * 2**20
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "n8", "mesh": mesh, "degrees": [3], "reference": "exact"}))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "spectrum.csv").read_text().splitlines()) == 1 + 12167


def test_kronecker_jump_ratio_matches_assembled_pencil(tmp_path):
    cfg = {"name": "jr", "mesh": {"type": "uniform", "n": 3, "d": 2}, "degrees": [2],
           "jump_ratio": True}
    summary = speclab.run_experiment(cfg, str(tmp_path))
    assert summary["solver"] == {"2": "kronecker"}
    rows = (tmp_path / "spectrum.csv").read_text().strip().split("\n")[1:]
    written = np.array([float(row.split(",")[9]) for row in rows])

    mesh = mesh_from_spec(cfg["mesh"])
    bundle = speclab.solve_problem(mesh, 2)
    space = build_space(mesh, 2)
    K, S = assemble_stiffness(space), assemble_penalty(space)
    vectors = [bundle.soft.vector(j) for j in range(bundle.soft.order)]
    want = np.array([bundle.eta * (x @ (S @ x)) / (x @ (K @ x)) for x in vectors])
    # relative to the largest ratio: one mode's ratio is 5e-18, rounding noise
    assert np.max(np.abs(written - want)) <= 1e-12 * np.max(want)


def test_a_run_holds_only_the_eigenvectors_it_reads(tmp_path, monkeypatch):
    """Without `jump_ratio` or `eigenfunction_modes` each spectrum drops its
    eigenvectors as soon as its solve returns, so the Galerkin vectors are
    not held while the softened pencil is solved; with `jump_ratio` both
    spectra reach the report with their vectors, and the CSV is the one a
    bundle with vectors gives."""
    cfg = {"name": "m", "mesh": {"type": "unit-square", "n": 8}, "degrees": [3]}
    dense = 8 * 529**2  # bytes of one dense n x n matrix of the p = 3 pencil
    held, peaks = [], {}
    report = speclab._report

    def recording_report(cfg, bundle, *args):
        held.append((bundle.fem.vectors is not None, bundle.soft.vectors is not None))
        return report(cfg, bundle, *args)

    monkeypatch.setattr(speclab, "_report", recording_report)
    for tag, extra in (("values", {}), ("vectors", {"jump_ratio": True})):
        tracemalloc.start()
        try:
            speclab.run_experiment({**cfg, **extra}, str(tmp_path / tag))
            peaks[tag] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert held == [(False, False), (True, True)]
    assert peaks["values"] <= 4.7 * dense

    bundle = speclab.solve_problem(mesh_from_spec(cfg["mesh"]), 3)
    jump_cfg = speclab.ExperimentConfig.from_dict({**cfg, "jump_ratio": True})
    written = (tmp_path / "vectors" / "spectrum.csv").read_text()
    assert written == speclab._spectrum_rows(jump_cfg, bundle, None)[0]
    # the same values, with the jump_ratio column empty
    values = (tmp_path / "values" / "spectrum.csv").read_text()
    assert [row.rsplit(",", 1) for row in values.splitlines()[1:]] == [
        [row.rsplit(",", 1)[0], ""] for row in written.splitlines()[1:]
    ]


@pytest.mark.parametrize("d,solver", [(1, "dense"), (2, "kronecker")])
def test_a_values_only_spectrum_names_its_missing_eigenvectors(d, solver):
    """Reading an eigenvector of a spectrum solved with vectors=False raises
    a ValueError that says so, on the dense and the Kronecker path alike."""
    mesh = mesh_from_spec({"type": "uniform", "n": 3, "d": d})
    bundle = speclab.solve_problem(mesh, 2, vectors=False)
    assert bundle.solver == solver
    for read in (lambda: bundle.fem.vector(0),
                 lambda: speclab.jump_energy_ratio(bundle.soft, bundle.eta, bundle.K, bundle.S)):
        with pytest.raises(ValueError, match=r"without eigenvectors \(vectors=False\)"):
            read()


@pytest.mark.parametrize(
    "spec,kappa",
    [
        ({"type": "cartesian", "breakpoints": [[0, 0.3, 1], [0, 0.3, 1]]}, "1"),  # graded
        ({"type": "uniform", "n": 3, "d": 2}, "1 + x"),
        ({"type": "uniform", "n": 3, "d": 1}, "1"),
        ({"type": "unit-square", "n": 2}, "1"),
        ({"type": "cartesian", "breakpoints": [[0, 0.5, 1], [0, 1]]}, "1"),  # unequal axes
    ],
)
def test_other_inputs_take_the_dense_path(spec, kappa):
    bundle = speclab.solve_problem(mesh_from_spec(spec), 2, parse_coefficient(kappa))
    assert bundle.solver == "dense"
    assert bundle.fem.order == bundle.K.shape[0]


def test_kronecker_eta_sweep_matches_standalone_runs(tmp_path, monkeypatch):
    base = {
        "name": "sweep2d",
        "kappa": "1.7",
        "mesh": {"type": "uniform", "n": 3, "d": 2},
        "degrees": [2],
    }
    etas = [0.0, 1.0 / 48.0]
    orders = []
    solve = gevp.solve_gmevp

    def counted(A, M, k=None):
        orders.append((A.shape[0], k))
        return solve(A, M, k)

    monkeypatch.setattr(gevp, "solve_gmevp", counted)
    summary = speclab.run_experiment({**base, "eta_sweep": etas}, tmp_path / "sweep")
    # full 1D pencils: fem, default eta, eta = 1/48
    assert orders == [(5, None)] * 3
    assert summary["solver"] == {"2": "kronecker"}
    monkeypatch.undo()
    for i, eta in enumerate(etas):
        alone = speclab.run_experiment({**base, "eta": eta}, tmp_path / f"eta{i}")
        swept = (tmp_path / "sweep" / f"spectrum_p2_eta{i}.csv").read_bytes()
        assert swept == (tmp_path / f"eta{i}" / "spectrum_p2.csv").read_bytes()
        assert summary["by_degree"]["2"]["eta_sweep"][speclab._fmt(eta)] == alone["by_degree"]["2"]


def graded_2d_config(**fields):
    """A graded-2d-kappa-like run: jittered 10 x 10 Cartesian cells,
    variable kappa, p = 3, a high-order reference and an eta sweep."""
    rng = np.random.default_rng(5)
    axes = []
    for _ in range(2):
        b = np.linspace(0.0, 1.0, 11)
        b[1:-1] += rng.uniform(-0.003, 0.003, 9)
        axes.append(b.tolist())
    return {
        "name": "graded",
        "kappa": "1 + 0.495*sin(2.003*pi*x)*cos(2.003*pi*y)",
        "mesh": {"type": "cartesian", "breakpoints": axes},
        "degrees": [3],
        "reference": "high-order",
        "reference_degree": 4,
        "reference_refine": 1,
        "eta_sweep": [1.0 / 80.0],
        **fields,
    }


def test_partial_run_matches_the_full_run(tmp_path, monkeypatch):
    """`modes: 40` solves the lowest 40 modes and a certified lambda_max of
    each pencil; rows and summary agree with the full dense run."""
    orders = []
    largest = gevp.largest_eigenvalue

    def counted(A, M):
        orders.append(A.shape[0])
        return largest(A, M)

    monkeypatch.setattr(gevp, "largest_eigenvalue", counted)
    part = speclab.run_experiment(graded_2d_config(modes=40), tmp_path / "part")
    assert orders == [841] * 3  # fem, default eta and the sweep eta: all partial
    monkeypatch.undo()
    full = speclab.run_experiment(graded_2d_config(), tmp_path / "full")
    for name in ("spectrum_p3.csv", "spectrum_p3_eta0.csv"):
        part_rows = (tmp_path / "part" / name).read_text().splitlines()
        full_rows = (tmp_path / "full" / name).read_text().splitlines()
        assert len(part_rows) == 41 and len(full_rows) == 842
        for pr, fr in zip(part_rows[1:], full_rows[1:]):
            pr, fr = pr.split(","), fr.split(",")
            assert pr[:2] == fr[:2]  # j, frac
            lam, ref = np.array(pr[2:7], float), np.array(fr[2:7], float)
            assert np.all(np.abs(lam[:3] - ref[:3]) <= 1e-10 * ref[:3])  # lambda_*
            # relerr_* are relative errors: they agree to 1e-10 of lambda
            assert np.all(np.abs(lam[3:] - ref[3:]) <= 1e-10)
    by_part, by_full = part["by_degree"]["3"], full["by_degree"]["3"]
    (sweep_part,), (sweep_full,) = by_part["eta_sweep"].values(), by_full["eta_sweep"].values()
    for got, want in ((by_part, by_full), (sweep_part, sweep_full)):
        for key in ("lambda_max_fem", "lambda_max_soft", "sigma", "sigma_soft", "rho",
                    "rho_percent"):
            assert abs(got[key] - want[key]) <= 1e-12 * abs(want[key])
        for key in ("coercivity_margin", "lambda_min_fem", "lambda_min_soft"):
            assert abs(got[key] - want[key]) <= 1e-10 * abs(want[key])
        for key in ("p", "n_dofs", "eta", "eta_max", "gamma_p"):
            assert got[key] == want[key]


def run_tiny(tmp_path, subdir="out"):
    cfg = {
        "name": "tiny",
        "mesh": {"type": "uniform", "n": 8, "d": 1},
        "degrees": [2],
        "eta": "default",
        "reference": "exact",
        "jump_ratio": True,
    }
    out = tmp_path / subdir
    summary = speclab.run_experiment(cfg, str(out))
    return out, summary


def test_run_experiment_outputs(tmp_path):
    out, summary = run_tiny(tmp_path)
    lines = (out / "spectrum.csv").read_text().strip().split("\n")
    assert lines[0] == speclab.CSV_HEADER
    assert len(lines) - 1 == 15  # 2*8 - 1 dofs
    block = summary["by_degree"]["2"]
    assert block["n_dofs"] == 15
    assert 0 < block["eta"] < block["eta_max"]
    assert block["top_decile_relerr_soft"] < block["top_decile_relerr_fem"]
    data = json.loads((out / "summary.json").read_text())
    assert data["by_degree"]["2"]["n_dofs"] == 15


def test_run_experiment_is_deterministic(tmp_path):
    out1, _ = run_tiny(tmp_path, "a")
    out2, _ = run_tiny(tmp_path, "b")
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_blas_thread_count_moves_eigenvalues_only_by_rounding(tmp_path):
    """Bytes are fixed for one BLAS build and thread count: at
    OPENBLAS_NUM_THREADS 1 and 2 the 399-dof dense pencils' eigenvalues
    agree to ROUNDING_MULTIPLE * eps * lambda_max of their pencil, and the
    sizes and softness parameters of the summary are equal."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "threads", "mesh": {"type": "uniform", "n": 200, "d": 1},
                               "degrees": [2], "reference": "exact"}))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "softfem.cli", "run", str(cfg), "--out", str(out)],
                       capture_output=True, env=env, check=True)
        table = np.genfromtxt(out / "spectrum.csv", delimiter=",", names=True)
        runs.append((table, json.loads((out / "summary.json").read_text())["by_degree"]["2"]))
    (one, block), (two, other) = runs
    for kind in ("fem", "soft"):
        bound = speclab.ROUNDING_MULTIPLE * np.finfo(float).eps * block[f"lambda_max_{kind}"]
        assert np.abs(one[f"lambda_{kind}"] - two[f"lambda_{kind}"]).max() <= bound
    for key in ("n_dofs", "eta", "eta_max", "gamma_p"):
        assert block[key] == other[key]


def test_csv_roundtrip(tmp_path):
    out, _ = run_tiny(tmp_path)
    rows = (out / "spectrum.csv").read_text().strip().split("\n")[1:]
    exact = oracle.exact_laplace_spectrum(1, 15).values
    for i, row in enumerate(rows):
        fields = row.split(",")
        assert int(fields[0]) == i + 1
        assert abs(float(fields[2]) - exact[i]) < 1e-12 * exact[i]
        lam_fem, lam_soft = float(fields[3]), float(fields[4])
        assert lam_soft <= lam_fem
        assert float(fields[9]) >= 0.0  # jump ratio


def per_cell_rows(cfg, bundle, reference, exact=None):
    """The CSV text of `speclab._spectrum_rows`, written with one
    `format(float(x), ".17g")` call per cell."""

    def fmt(x):
        return format(float(x), ".17g")

    n, modes = bundle.ndof, bundle.fem.order
    has_soft = bundle.eta != 0.0
    relerr_fem = relerr_soft = None
    if reference is not None:
        relerr_fem = speclab.eigenvalue_error_curve(bundle.fem.values[:modes], reference)
        if has_soft:
            relerr_soft = speclab.eigenvalue_error_curve(bundle.soft.values[:modes], reference)
    ratios = None
    if cfg.jump_ratio and has_soft:
        ratios = speclab.jump_energy_ratio(bundle.soft, bundle.eta, bundle.K, bundle.S)
    efn = {}
    if cfg.eigenfunction_modes and exact is not None:
        target = bundle.soft if has_soft else bundle.fem
        for mode in cfg.eigenfunction_modes:
            if mode <= modes:
                try:
                    efn[mode] = speclab.eigenfunction_errors(bundle.space, target, exact, mode - 1)
                except speclab.MultiplicityError:
                    pass
    lines = [speclab.CSV_HEADER]
    for j in range(modes):
        row = [
            str(j + 1),
            fmt((j + 1) / n),
            fmt(reference[j]) if reference is not None else "",
            fmt(bundle.fem.values[j]),
            fmt(bundle.soft.values[j]) if has_soft else "",
            fmt(relerr_fem[j]) if relerr_fem is not None else "",
            fmt(relerr_soft[j]) if relerr_soft is not None else "",
            fmt(efn[j + 1]["h1"]) if (j + 1) in efn else "",
            fmt(efn[j + 1]["l2"]) if (j + 1) in efn else "",
            fmt(ratios[j]) if ratios is not None else "",
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def assert_rows_match_per_cell(cfg, bundle, reference, exact=None):
    cfg = speclab.ExperimentConfig.from_dict(cfg)
    text = speclab._spectrum_rows(cfg, bundle, reference, exact)[0]
    assert text.encode() == per_cell_rows(cfg, bundle, reference, exact).encode()
    return text


@pytest.mark.parametrize(
    "fields",
    [
        # a 3D Kronecker run
        {"mesh": {"type": "uniform", "n": 3, "d": 3}, "degrees": [2]},
        # eigenfunction errors on some rows only (modes 2 and 3 are a
        # degenerate pair, so only 1 and 4 have them), and the jump ratio
        {"mesh": {"type": "uniform", "n": 4, "d": 2}, "degrees": [2], "jump_ratio": True,
         "eigenfunction_modes": [1, 2, 4], "modes": 9},
        {"mesh": {"type": "unit-square", "n": 2}, "degrees": [2], "jump_ratio": True,
         "eigenfunction_modes": [1, 4], "eta": "galerkin"},
    ],
)
def test_spectrum_rows_match_the_per_cell_writer(monkeypatch, fields):
    monkeypatch.setattr(speclab, "CSV_BLOCK", 7)  # rows span several blocks
    cfg = {"name": "w", "reference": "exact", **fields}
    mesh = mesh_from_spec(cfg["mesh"])
    bundle = speclab.solve_problem(mesh, cfg["degrees"][0], eta_policy=cfg.get("eta", "default"),
                                   modes=cfg.get("modes"))
    modes = cfg.get("modes", bundle.ndof)
    d = 2 if mesh.kind == "simplicial" else mesh.d
    reference = oracle.exact_laplace_spectrum(d, modes).values
    exact = oracle.exact_laplace_spectrum(d, 8)
    text = assert_rows_match_per_cell(cfg, bundle, reference, exact)
    rows = [row.split(",") for row in text.splitlines()[1:]]
    assert len(rows) == modes
    if "eigenfunction_modes" in cfg:
        with_errors = [j for j, row in enumerate(rows, 1) if row[7]]
        assert with_errors == [1, 4]


def test_spectrum_rows_match_the_per_cell_writer_on_special_values(small_bundle):
    special = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e-7]
    values = np.resize(special, small_bundle.ndof)
    bundle = replace(
        small_bundle,
        fem=replace(small_bundle.fem, values=values),
        soft=replace(small_bundle.soft, values=values[::-1].copy()),
    )
    cfg = {"name": "s", "mesh": {"type": "uniform", "n": 8, "d": 1}, "degrees": [2]}
    with np.errstate(all="ignore"):
        text = assert_rows_match_per_cell(cfg, bundle, values[::-1].copy())
        assert_rows_match_per_cell(cfg, bundle, None)
    cells = {cell for row in text.splitlines()[1:] for cell in row.split(",")[3:7]}
    assert {"inf", "-inf", "nan", "-0", "4.9406564584124654e-324"} <= cells


def test_spectrum_rows_match_the_per_cell_writer_on_repeated_values(monkeypatch, small_bundle):
    """Equal values, 0.0 next to -0.0 and two NaNs with different bits each
    get the cells of the per-cell writer, also in a run of equal values that
    crosses the block edge after row 7."""
    monkeypatch.setattr(speclab, "CSV_BLOCK", 7)
    other_nan = np.array([0x7FF8000000000001]).view(float)[0]
    values = np.array(
        [0.0, -0.0, math.nan, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5, other_nan, 0.1, 0.1, -0.0, 0.0, 7.0]
    )
    assert len(values) == small_bundle.ndof
    bundle = replace(
        small_bundle,
        fem=replace(small_bundle.fem, values=values),
        soft=replace(small_bundle.soft, values=values[::-1].copy()),
    )
    cfg = {"name": "r", "mesh": {"type": "uniform", "n": 8, "d": 1}, "degrees": [2]}
    with np.errstate(all="ignore"):
        text = assert_rows_match_per_cell(cfg, bundle, values[::-1].copy())
        assert_rows_match_per_cell(cfg, bundle, None)
    fem = [row.split(",")[3] for row in text.splitlines()[1:]]
    tenth = "0.10000000000000001"
    assert fem == ["0", "-0", "nan"] + ["2.5"] * 6 + ["nan", tenth, tenth, "-0", "0", "7"]


@pytest.fixture
def face_builds(monkeypatch):
    """(d, element count) of every mesh whose face table is built."""
    built = []
    original = Mesh._build_faces

    def spy(self):
        built.append((self.d, self.n_elements))
        return original(self)

    monkeypatch.setattr(Mesh, "_build_faces", spy)
    return built


@pytest.mark.parametrize("d", [2, 3])
def test_kronecker_run_builds_only_the_1d_face_table(tmp_path, face_builds, d):
    cfg = {"name": "k", "mesh": {"type": "uniform", "n": 3, "d": d}, "degrees": [2],
           "reference": "exact"}
    assert speclab.run_experiment(cfg, str(tmp_path))["solver"] == {"2": "kronecker"}
    assert face_builds == [(1, 3)]


def test_high_order_reference_builds_no_face_table(tmp_path, face_builds):
    """The reference pencil is K and M only, so its refined mesh reads no
    face; the run's own 3 x 3 mesh has the penalty's."""
    cfg = {"name": "r", "kappa": "1 + x", "mesh": {"type": "uniform", "n": 3, "d": 2},
           "degrees": [1], "reference": "high-order", "reference_degree": 2,
           "reference_refine": 2}
    speclab.run_experiment(cfg, str(tmp_path))
    assert face_builds == [(2, 9)]


def test_ladder_run(tmp_path):
    cfg = {
        "name": "ladder",
        "eta": "default",
        "ladder": [
            {"degree": 2, "n": [4, 8, 16], "track_modes": [1]},
            {"degree": 3, "n": [4, 8, 16, 32], "track_modes": [1]},
        ],
    }
    summary = speclab.run_experiment(cfg, str(tmp_path / "lad"))
    block = summary["ladder"]["2"]["modes"]["1"]
    assert abs(block["rates"]["relerr"]["rate"] - 4.0) < 0.2
    assert abs(block["rates"]["h1"]["rate"] - 2.0) < 0.1
    assert abs(block["rates"]["l2"]["rate"] - 3.0) < 0.1
    # the p=3 eigenvalue errors at N=16 and 32 are within the rounding floor
    rates = summary["ladder"]["3"]["modes"]["1"]["rates"]["relerr"]
    assert rates["dropped_levels"] == [2, 3]
    assert abs(rates["rate"] - 8.0) < 0.2


def test_ladder_summary_names_its_degrees(tmp_path):
    cfg = {"name": "ladder", "ladder": [{"degree": 3, "n": [4, 8]}, {"degree": 1, "n": [4, 8]}]}
    summary = speclab.run_experiment(cfg, str(tmp_path))
    assert summary["degrees"] == [3, 1]
    assert json.loads((tmp_path / "summary.json").read_text())["degrees"] == [3, 1]


def test_presets_exist():
    for name in [
        "table1",
        "table3",
        "table4",
        "table-nonuniform",
        "fig1",
        "fig-eta-sweep",
        "fig-jump-ratio",
        "fig-2d",
        "fig-3d",
        "fig-simplicial",
        "fig-lshape",
    ]:
        assert name in speclab.PRESETS
        cfg = dict(speclab.PRESETS[name])
        speclab.ExperimentConfig.from_dict(cfg)


# -- command line ---------------------------------------------------------


def test_cli_run_tiny_config(tmp_path, capsys):
    cfg = {
        "name": "clirun",
        "mesh": {"type": "uniform", "n": 6, "d": 1},
        "degrees": [1],
        "eta": "default",
        "reference": "exact",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    assert (out / "summary.json").exists()
    text = capsys.readouterr().out
    assert "p=1" in text


def test_cli_eta_override(tmp_path):
    cfg = {
        "name": "over",
        "mesh": {"type": "uniform", "n": 6, "d": 1},
        "degrees": [1],
        "eta": "default",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "g"
    assert cli.main(["run", str(path), "--out", str(out), "--eta", "galerkin"]) == 0
    rows = (out / "spectrum.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        assert row.split(",")[4] == ""  # no softened column


def test_cli_error_exit_codes(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "x", "mesh": {"type": "uniform", "n": 4, "d": 1}}))

    def boom_solver(*a, **k):
        raise gevp.EigensolveError("did not converge")

    monkeypatch.setattr(speclab, "run_experiment", boom_solver)
    assert cli.main(["run", str(cfg)]) == 3

    def boom_coercivity(*a, **k):
        raise speclab.CoercivityViolation("negative pencil")

    monkeypatch.setattr(speclab, "run_experiment", boom_coercivity)
    assert cli.main(["run", str(cfg)]) == 4


def test_eigenfunction_errors_build_one_element_map_per_space(tmp_path, monkeypatch):
    """Eigenfunction errors read the element map each space caches: one map
    per degree, for every listed mode and eta_sweep value."""
    calls = []
    element_map = assembly.element_map

    def counted(space):
        calls.append(space.p)
        return element_map(space)

    monkeypatch.setattr(assembly, "element_map", counted)
    speclab.run_experiment({
        "name": "efn",
        "mesh": {"type": "uniform", "n": 12, "d": 1},
        "degrees": [1, 2, 3],
        "reference": "exact",
        "eigenfunction_modes": [1, 2, 5],
        "jump_ratio": True,
        "eta_sweep": [0.0, 0.01],
    }, str(tmp_path))
    assert sorted(calls) == [1, 2, 3]


def test_eigenfunction_errors_evaluate_the_basis_once_per_space(tmp_path, monkeypatch):
    """The basis is evaluated at the error quadrature (p + 5 Gauss points on
    the interval) once per degree, for every listed mode and eta_sweep value."""
    calls = []
    evaluate = ReferenceBasis.eval

    def counted(self, xi):
        if len(xi) == self.p + 5:
            calls.append(self.p)
        return evaluate(self, xi)

    monkeypatch.setattr(ReferenceBasis, "eval", counted)
    speclab.run_experiment({
        "name": "efn",
        "mesh": {"type": "uniform", "n": 12, "d": 1},
        "degrees": [1, 2, 3],
        "reference": "exact",
        "eigenfunction_modes": [1, 2, 5],
        "jump_ratio": True,
        "eta_sweep": [0.0, 0.01],
    }, str(tmp_path))
    assert sorted(calls) == [1, 2, 3]


def test_cli_reference_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    """A failed eigensolve of the high-order reference is a solver failure
    like any other, not a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "x", "mesh": {"type": "uniform", "n": 4, "d": 1},
                               "reference": "high-order"}))

    def boom(*a, **k):
        raise gevp.EigensolveError("dense eigensolve failed")

    monkeypatch.setattr(oracle, "reference_spectrum", boom)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "solver failure: dense eigensolve failed\n"


def test_cli_runs_the_highest_degree(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "top", "mesh": {"type": "uniform", "n": 1, "d": 1},
                                "degrees": [MAX_DEGREE]}))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("p", [20, 40, 59])
def test_high_degree_first_eigenvalue_is_accurate(p):
    bundle = speclab.solve_problem(mesh_from_spec({"type": "uniform", "n": 2, "d": 1}), p)
    for spectrum in (bundle.fem, bundle.soft):
        assert abs(spectrum.values[0] / math.pi**2 - 1.0) <= 1e-11


def test_importing_the_package_skips_slow_scipy_modules():
    code = (
        "import sys, softfem; "
        "print(sorted(m for m in ('scipy.special', 'scipy.sparse.linalg') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_cli_reads_utf8_files_under_the_c_locale(tmp_path):
    """Config and mesh files are read as UTF-8, whatever the locale's
    encoding: here ASCII, with locale coercion and UTF-8 mode both off."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "LC_ALL": "C",
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "résumé", "mesh": {"type": "uniform", "n": 2, "d": 1}},
                              ensure_ascii=False), encoding="utf-8")
    mesh = tmp_path / "square.mesh"
    mesh.write_text("# carré unité\n" + SQUARE_MESH, encoding="utf-8")
    for argv in (["run", str(cfg), "--out", str(tmp_path / "out")], ["mesh-info", str(mesh)]):
        done = subprocess.run([sys.executable, "-m", "softfem.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr) == (0, "")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
    assert summary["name"] == "résumé"


def test_cli_run_prints_solver_path(tmp_path, capsys):
    for d, solver in ((1, "dense"), (2, "kronecker")):
        path = tmp_path / f"cfg{d}.json"
        path.write_text(json.dumps({"name": "s", "mesh": {"type": "uniform", "n": 3, "d": d}}))
        assert cli.main(["run", str(path), "--out", str(tmp_path / f"out{d}")]) == 0
        assert f"p=1 ndof={2 ** d} solver={solver} " in capsys.readouterr().out
        assert "solver" not in (tmp_path / f"out{d}" / "summary.json").read_text()


@pytest.mark.parametrize(
    "eta,printed",
    [("default", ["p=2 ndof=361 solver=dense ", "p=3 ndof=841 solver=sparse "]),
     # an indefinite softened pencil: its lowest modes fall back to dense
     ("1.0", ["p=3 ndof=841 solver=sparse,dense "])],
)
def test_cli_run_prints_the_path_each_pencil_took(tmp_path, capsys, eta, printed):
    """With `modes: 40`, the 361-dof p=2 pencils are too small for a partial
    solve to pay, and the 841-dof p=3 ones take the certified sparse solve."""
    cfg = graded_2d_config(modes=40, degrees=[2, 3], reference="none", eta_sweep=None)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out"), "--eta", eta]) == 0
    out = capsys.readouterr().out
    assert all(line in out for line in printed)
    assert "solver" not in (tmp_path / "out" / "summary.json").read_text()


def test_cli_runs_a_long_kappa_sum(tmp_path):
    """A 500-term sine series evaluates in one closure per sum, to numpy's
    left-to-right sum bit for bit."""
    kappa = "1 + " + " + ".join(f"0.001*sin({k}*pi*x)" for k in range(1, 501))
    cfg = {"name": "k", "kappa": kappa, "mesh": {"type": "uniform", "n": 8, "d": 1}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    x = np.linspace(0.0, 1.0, 9)
    want = np.float64(1.0)
    for k in range(1, 501):
        want = want + np.float64(0.001) * np.sin(k * np.pi * x)
    assert parse_coefficient(kappa)(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("kappa,literal", [("1/2", "0.5"), ("2*pi", repr(2 * math.pi))])
@pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
def test_constant_kappa_expressions_take_the_kronecker_path(
    tmp_path, capsys, kappa, literal, d, n
):
    """Any kappa without a variable is constant, however it is written."""
    outputs = []
    for tag, text in (("expr", kappa), ("literal", literal)):
        path = tmp_path / f"{tag}.json"
        cfg = {"name": "c", "kappa": text, "mesh": {"type": "uniform", "n": n, "d": d},
               "degrees": [2]}
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out", str(tmp_path / tag)]) == 0
        assert "solver=kronecker" in capsys.readouterr().out
        outputs.append((tmp_path / tag / "spectrum.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "cfg",
    [
        {"ladder": [{"degree": 2, "n": [4, 8]}]},
        {"mesh": {"type": "uniform", "n": 4, "d": 2}, "degrees": [2], "reference": "exact",
         "eigenfunction_modes": [1, 2]},
    ],
    ids=["ladder", "exact-reference"],
)
def test_unit_kappa_may_be_written_as_any_constant_one(tmp_path, cfg):
    outputs = []
    for tag, kappa in (("one", "1"), ("float", "1.0"), ("expr", "2/2")):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps({"name": "u", "kappa": kappa, **cfg}))
        assert cli.main(["run", str(path), "--out", str(tmp_path / tag)]) == 0
        summary = json.loads((tmp_path / tag / "summary.json").read_text())
        assert summary.pop("kappa") == kappa
        csvs = sorted((f.name, f.read_bytes()) for f in (tmp_path / tag).glob("*.csv"))
        outputs.append((summary, csvs))
    assert outputs[0] == outputs[1] == outputs[2]


# The cases of three rejection tests that predate `BAD_INPUTS` keep their
# ids; each runs the `BAD_INPUTS` row with its config, flags and field.
ETA_AND_MODES_CASES = {
    "fields0-argv0-eta": "eta-flag-negative", "fields1-argv1-eta": "eta-flag-nan",
    "fields2-argv2-eta": "eta-flag-inf", "fields3-argv3-eta": "eta-bool",
    "fields4-argv4-eta": "eta-negative", "fields5-argv5-eta_sweep": "eta-sweep-negative",
    "fields6-argv6-eta_sweep": "eta-sweep-not-a-list", "fields7-argv7-modes": "modes-negative",
    "fields8-argv8-modes": "modes-zero", "fields9-argv9-modes": "modes-fraction",
    "fields10-argv10-modes": "modes-bool", "fields11-argv11-modes": "modes-flag-negative",
}
MESH_SPEC_CASES = {
    "spec0-n": "uniform-without-n", "spec1-n": "l-shape-without-n",
    "spec2-breakpoints": "cartesian-without-breakpoints", "spec3-path": "file-without-path",
    "spec4-n": "uniform-n-not-an-integer", "spec5-n": "uniform-n-zero",
    "spec6-n": "unit-square-n-fraction", "spec7-d": "uniform-d-fraction", "spec8-d": "uniform-d-4",
    "spec9-breakpoints": "cartesian-breakpoint-not-a-number",
    "spec10-path": "file-path-not-a-string", "x-mesh": "mesh-not-an-object",
    "spec12-dim": "uniform-unknown-field-dim", "spec13-d": "unit-square-unknown-field-d",
}
CONFIG_FIELD_CASES = {
    "cfg0-degrees": "degrees-not-a-list", "cfg1-degrees": "degrees-bool",
    "cfg2-degrees": "degrees-empty", "cfg3-reference_degree": "reference-degree-zero",
    "cfg4-reference_refine": "reference-refine-fraction", "cfg5-reference": "reference-misspelt",
    "cfg6-name": "name-not-a-string", "cfg7-kappa": "kappa-not-a-string",
    "cfg8-stiffen": "stiffen-not-recognized", "cfg9-jump_ratio": "jump-ratio-not-a-bool",
    "cfg10-eigenfunction_modes": "eigenfunction-modes-zero",
    "cfg11-ladder": "ladder-block-without-n", "cfg12-ladder": "ladder-degree-not-an-integer",
    "cfg13-ladder": "ladder-block-unknown-key", "cfg14-ladder": "ladder-empty",
    "cfg15-kappa": "ladder-kappa-not-one", "cfg16-mesh": "ladder-with-mesh",
    "cfg17-face_weight": "ladder-with-face-weight", "cfg18-modes": "ladder-with-modes",
    "cfg19-degrees": "degree-70", "cfg20-degrees": "degree-above-max",
    "cfg21-reference_degree": "reference-degree-70", "cfg22-ladder": "ladder-degree-70",
    "cfg23-kappa": "kappa-syntax", "cfg24-kappa": "ladder-kappa-syntax",
    "cfg25-ladder": "ladder-repeated-track-mode", "cfg26-ladder": "ladder-repeated-n",
    "cfg27-ladder": "ladder-repeated-degree",
}


@pytest.mark.parametrize("row", ETA_AND_MODES_CASES.values(), ids=ETA_AND_MODES_CASES.keys())
def test_cli_rejects_bad_eta_and_modes(tmp_path, capsys, row):
    check(BAD_INPUTS[row], tmp_path, capsys)


@pytest.mark.parametrize("row", MESH_SPEC_CASES.values(), ids=MESH_SPEC_CASES.keys())
def test_cli_mesh_spec_missing_field(tmp_path, capsys, row):
    check(BAD_INPUTS[row], tmp_path, capsys)


@pytest.mark.parametrize("row", CONFIG_FIELD_CASES.values(), ids=CONFIG_FIELD_CASES.keys())
def test_cli_rejects_bad_config_fields(tmp_path, capsys, row):
    check(BAD_INPUTS[row], tmp_path, capsys)


def run_exit_code(cfg, argv=()):
    """The exit code of `softfem run` on cfg, and what it wrote to stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["run", path, "--out", os.path.join(tmp, "out"), *argv])
    return code, err.getvalue()


@st.composite
def small_runs(draw):
    """A config and extra arguments for `softfem run` on a 1D or 2D tensor
    mesh of at most 6 cells per axis or a small triangle mesh (the unit
    square with n = 1 or 2, the L-shape with n = 1), with the solve,
    reference and optional column fields varied (`modes` may be out of
    range, a numeric eta may overflow the softened matrix, and
    `eigenfunction_modes` applies only where kappa is 1)."""
    huge_or_small_eta = st.floats(0.0, 0.3) | st.sampled_from([1e300, 1e308])
    d = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["uniform", "cartesian", "triangles"]))
    if kind == "uniform":
        mesh = {"type": "uniform", "n": draw(st.integers(1, 6)), "d": d}
    elif kind == "triangles":
        kind, n = draw(st.sampled_from([("unit-square", 1), ("unit-square", 2), ("l-shape", 1)]))
        mesh = {"type": kind, "n": n}
    else:
        axes = []
        for _ in range(d):
            widths = np.cumsum(draw(st.lists(st.floats(0.2, 1.0), min_size=1, max_size=6)))
            axes.append([0.0] + (widths / widths[-1]).tolist())
        mesh = {"type": "cartesian", "breakpoints": axes}
    cfg = {
        "name": "fuzz",
        "mesh": mesh,
        "kappa": draw(st.sampled_from(["1", "1 + x"])),
        "degrees": draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True)),
        "eta": draw(st.sampled_from(["default", "galerkin"]) | huge_or_small_eta),
        "reference": draw(st.sampled_from(["none", "exact", "high-order"])),
        "reference_degree": draw(st.integers(1, 3)),
        "reference_refine": draw(st.integers(1, 2)),
        "jump_ratio": draw(st.booleans()),
        "eigenfunction_modes": draw(st.lists(st.integers(1, 6), max_size=2)),
        "eta_sweep": draw(st.none() | st.lists(huge_or_small_eta, max_size=2)),
        "face_weight": draw(st.sampled_from(["local", "mean"])),
    }
    modes = draw(st.none() | st.integers(-1, 40))
    argv = []
    if modes is not None and draw(st.booleans()):
        argv = ["--modes", str(modes)]
    elif modes is not None:
        cfg["modes"] = modes
    return cfg, argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_runs())
def test_cli_run_fuzz_exits_cleanly(run):
    """Every small run ends with exit code 0, 2, 3 or 4, never a traceback."""
    code, err = run_exit_code(*run)
    assert code in (0, 2, 3, 4), err


@st.composite
def small_ladders(draw):
    """A ladder config of 1 or 2 blocks (degree <= 3, n <= 16, track_modes
    <= 8), where degrees, levels and tracked modes may repeat and a tracked
    mode may exceed a level's mode count."""
    blocks = []
    for _ in range(draw(st.integers(1, 2))):
        block = {"degree": draw(st.integers(1, 3)),
                 "n": draw(st.lists(st.integers(1, 16), min_size=1, max_size=3))}
        if draw(st.booleans()):
            block["track_modes"] = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
        blocks.append(block)
    return {"name": "fuzz", "eta": draw(st.sampled_from(["default", "galerkin"])),
            "ladder": blocks}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_ladders())
def test_cli_ladder_fuzz_exits_cleanly(cfg):
    """Every small ladder ends with exit code 0, 2, 3 or 4, never a traceback."""
    code, err = run_exit_code(cfg)
    assert code in (0, 2, 3, 4), err


@pytest.mark.parametrize(
    "mesh", [{"type": "uniform", "n": 4, "d": 2}, {"type": "unit-square", "n": 3}]
)
def test_eigenfunction_modes_on_the_unit_domain(tmp_path, mesh):
    cfg = {"name": "e", "mesh": mesh, "degrees": [2], "eigenfunction_modes": [1]}
    speclab.run_experiment(cfg, str(tmp_path))
    rows = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
    h1err, l2err = (float(v) for v in rows[1].split(",")[7:9])
    assert all(row.split(",")[7] == "" for row in rows[2:])
    bundle = speclab.solve_problem(mesh_from_spec(mesh), 2)
    exact = oracle.exact_laplace_spectrum(2, 5)
    errs = speclab.eigenfunction_errors(bundle.space, bundle.soft, exact, 0)
    assert (h1err, l2err) == (errs["h1"], errs["l2"])
    assert l2err < 0.02


def test_rounding_floor_of_a_partial_solve_names_the_missing_lambda_max():
    """A sparse partial solve leaves lambda_max None: rounding_floor raises
    the ValueError of gevp.condition_number instead of dividing None."""
    space = build_space(mesh_from_spec({"type": "uniform", "n": 200, "d": 1}), 2)
    spec = gevp.solve_gmevp(assemble_stiffness(space), assemble_mass(space), 5)
    assert spec.path == "sparse" and spec.lambda_max is None
    with pytest.raises(ValueError, match="lambda_max was not computed.*largest_eigenvalue"):
        speclab.rounding_floor(spec, 0)
    full = gevp.solve_gmevp(assemble_stiffness(space), assemble_mass(space))
    assert speclab.rounding_floor(full, 0) == pytest.approx(
        speclab.ROUNDING_MULTIPLE * np.finfo(float).eps * full.lambda_max / full.values[0]
    )


def test_exact_reference_and_eigenfunction_errors_share_one_exact_spectrum(
    tmp_path, monkeypatch
):
    calls = []
    original = oracle.exact_laplace_spectrum

    def counting(d, count):
        calls.append((d, count))
        return original(d, count)

    monkeypatch.setattr(oracle, "exact_laplace_spectrum", counting)
    cfg = {"name": "e", "mesh": {"type": "uniform", "n": 12, "d": 1}, "degrees": [1, 2],
           "reference": "exact", "eigenfunction_modes": [1, 2, 5, 40]}
    speclab.run_experiment(cfg, str(tmp_path))
    assert calls == [(1, 23 + 4)]  # the 23 modes of p = 2, and 4 more
    rows = [row.split(",") for row in
            (tmp_path / "spectrum_p2.csv").read_text().splitlines()[1:]]
    assert [j for j, row in enumerate(rows, 1) if row[7]] == [1, 2, 5]
    assert [float(row[2]) for row in rows] == original(1, 23).values.tolist()


def test_degree_bound_fits_the_error_quadrature():
    # eigenfunction errors at the largest accepted degree have their rules
    assert cuboid_rule(3, MAX_DEGREE + 5).weights.size == (MAX_DEGREE + 5) ** 3
    assert simplex_rule(2 * MAX_DEGREE + 6).degree == 2 * MAX_DEGREE + 6
    with pytest.raises(ValueError):
        cuboid_rule(1, MAX_DEGREE + 6)
    cfg = {"name": "p", "mesh": {"type": "uniform", "n": 1, "d": 1}}
    speclab.ExperimentConfig.from_dict({**cfg, "degrees": [MAX_DEGREE]})


@pytest.mark.parametrize(
    "p,kind",
    [(p, kind) for p in (1, 2, 3, 4) for kind in ("cuboid", "simplex")]
    + [(p, "interval") for p in (30, 40, MAX_DEGREE)],
)
def test_cli_trace_check_every_degree(capsys, p, kind):
    assert cli.main(["trace-check", "--p", str(p), "--kind", kind]) == 0
    assert "status=ok" in capsys.readouterr().out


def test_cli_trace_check(capsys):
    assert cli.main(["trace-check", "--p", "2", "--kind", "interval"]) == 0
    assert "status=ok" in capsys.readouterr().out
    assert cli.main(["trace-check", "--p", "1", "--kind", "simplex"]) == 0


def _max_ratio(out):
    return float(out.split("max_ratio=")[1].split()[0])


@pytest.mark.parametrize("p", range(1, 9))
def test_cli_trace_check_cuboid_maximum(capsys, p):
    """On the 2x2 cells the exact maximum of x'Sx / x'Kx is 2p^2, the
    fraction p/(p+1) of the bound 1/eta_max = 2p(p+1)."""
    assert cli.main(["trace-check", "--p", str(p), "--kind", "cuboid"]) == 0
    out = capsys.readouterr().out
    assert _max_ratio(out) == pytest.approx(2 * p * p, rel=1e-10)
    assert f"bound={2 * p * (p + 1)} " in out


@pytest.mark.parametrize("kind,factor", [("cuboid", 1.3), ("simplex", 2.6)])
def test_cli_trace_check_catches_a_too_large_eta_max(capsys, monkeypatch, kind, factor):
    """An eta_max above the sharp one lowers the bound below the exact
    maximum (32 on the cuboid, 15.73 on the simplex, at p = 4), which a
    random sample of the ratio does not reach."""
    real = assembly.softness_parameters

    def too_large(*args, **kwargs):
        pars = dict(real(*args, **kwargs))
        pars["eta_max"] *= factor
        return pars

    monkeypatch.setattr(assembly, "softness_parameters", too_large)
    assert cli.main(["trace-check", "--p", "4", "--kind", kind]) == 1
    assert "status=violated" in capsys.readouterr().out


def test_high_order_reference_on_a_mesh_file(tmp_path):
    mesh_path = tmp_path / "square.mesh"
    mesh_path.write_text(SQUARE_MESH)
    spec = {"type": "file", "path": str(mesh_path)}
    cfg = {"name": "r", "mesh": spec, "degrees": [3], "modes": 3,
           "reference": "high-order", "reference_degree": 4, "reference_refine": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "spectrum.csv").read_text().strip().split("\n")[1:]
    expected = oracle.reference_spectrum({"kappa": "1", "mesh": spec}, 3, degree=4, refine=1)
    assert [float(r.split(",")[2]) for r in rows] == expected.tolist()


def test_the_mesh_spec_is_checked_before_the_reference_spec(tmp_path):
    """A high-order reference refines the run's mesh spec; a fault of that
    spec is the mesh's, not the field 'reference_refine's."""
    cfg = {"name": "o", "mesh": {"type": "uniform", "d": 1}, "reference": "high-order"}
    with pytest.raises(InvalidMeshError, match="^mesh spec type 'uniform' needs the field 'n'"):
        speclab.run_experiment(cfg, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_cli_mesh_info(tmp_path, capsys):
    path = tmp_path / "m.mesh"
    path.write_text(SQUARE_MESH)
    assert cli.main(["mesh-info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "elements=2" in out and "interfaces=1" in out

