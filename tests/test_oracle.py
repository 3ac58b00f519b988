import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from softfem import oracle
from softfem.assembly import (
    assemble_mass,
    assemble_penalty,
    assemble_stiffness,
    build_space,
    soften,
    softness_parameters,
)
from softfem.gevp import solve_gmevp
from softfem.mesh import mesh_from_spec
from softfem.polyref import MAX_DEGREE, cuboid_rule

from oracles import (
    branch_roots,
    closed_form_linear_eigenvalue,
    extremal_trace_polynomial,
    full_branch_spectrum,
    linear_eigenvector_pattern,
    linear_stiffness_reduction_ratio,
    sharp_trace_constant,
    stopping_band_values,
    superconvergence_bound,
    trace_ratio_interval,
)


def test_exact_laplace_spectrum_1d():
    spec = oracle.exact_laplace_spectrum(1, 6)
    want = [(j * math.pi) ** 2 for j in range(1, 7)]
    assert np.allclose(spec.values, want, rtol=1e-14)


def test_exact_laplace_spectrum_2d_multiplicities():
    spec = oracle.exact_laplace_spectrum(2, 6)
    pi2 = math.pi**2
    want = [2 * pi2, 5 * pi2, 5 * pi2, 8 * pi2, 10 * pi2, 10 * pi2]
    assert np.allclose(spec.values, want, rtol=1e-13)


def test_exact_laplace_spectrum_3d_first_value():
    spec = oracle.exact_laplace_spectrum(3, 4)
    assert abs(spec.values[0] - 3 * math.pi**2) < 1e-12


def looped_laplace_spectrum(d, count):
    """(values, indices) as `exact_laplace_spectrum` computed them with a
    Python loop over the index tuples."""
    m = max(2, math.ceil(count ** (1.0 / d)) + 1)
    while True:
        tuples = list(itertools.product(range(1, m + 1), repeat=d))
        lam = np.array([sum(k * k for k in ks) * math.pi**2 for ks in tuples])
        order = np.argsort(lam, kind="stable")
        if len(lam) >= count and lam[order[count - 1]] <= (m + 1) ** 2 * math.pi**2:
            return lam[order][:count], [tuples[i] for i in order[:count]]
        m += 2


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 7, 64, 100, 500, 1331, 12167])
def test_exact_laplace_spectrum_matches_the_loop(d, count):
    spec = oracle.exact_laplace_spectrum(d, count)
    values, indices = looped_laplace_spectrum(d, count)
    assert spec.values.tobytes() == values.tobytes()
    # row t of `indices` is axis t; the loop's tuples read the last axis first
    assert (spec.indices[::-1].T + 1).tolist() == [list(ks) for ks in indices]
    assert spec.indices.dtype.kind == "i" and spec.lambda_max is None


def test_eigenfunctions_are_normalized_and_satisfy_pde():
    spec = oracle.exact_laplace_spectrum(2, 5)
    quad = cuboid_rule(2, 24)
    pts = 0.5 * (quad.nodes + 1.0)
    w = quad.weights / 4.0
    for j in [0, 3]:
        val, grad = oracle.laplace_mode(spec.indices[:, j] + 1)
        u = val(pts)
        assert abs(np.sum(w * u * u) - 1.0) < 1e-10
        g = grad(pts)
        assert abs(np.sum(w * (g**2).sum(axis=1)) - spec.values[j]) < 1e-8
        # finite-difference check of the gradient
        eps = 1e-6
        inner = pts[(pts.min(axis=1) > 0.01) & (pts.max(axis=1) < 0.99)][:20]
        for ax in range(2):
            shift = np.zeros(2)
            shift[ax] = eps
            fd = (val(inner + shift) - val(inner - shift)) / (2 * eps)
            assert np.max(np.abs(fd - grad(inner)[:, ax])) < 1e-6


@pytest.mark.parametrize("n,eta", [(4, 0.0), (8, 1.0 / 12.0), (16, 0.05)])
def test_closed_form_linear_eigenvalues_match_assembly(n, eta):
    mesh = mesh_from_spec({"type": "uniform", "n": n, "d": 1})
    space = build_space(mesh, 1)
    K = assemble_stiffness(space)
    M = assemble_mass(space)
    S = assemble_penalty(space)
    fem = solve_gmevp(K, M)
    soft = solve_gmevp(soften(K, S, eta), M)
    for j in range(1, n):
        vals = closed_form_linear_eigenvalue(n, j, eta)
        assert abs(vals["fem"] - fem.values[j - 1]) < 1e-10 * vals["fem"]
        assert abs(vals["soft"] - soft.values[j - 1]) < 1e-10 * vals["soft"]


def test_linear_eigenvector_pattern_is_shared():
    n = 12
    mesh = mesh_from_spec({"type": "uniform", "n": n, "d": 1})
    space = build_space(mesh, 1)
    K = assemble_stiffness(space)
    M = assemble_mass(space)
    S = assemble_penalty(space)
    soft = solve_gmevp(soften(K, S, 1.0 / 12.0), M)
    for j in [1, 5]:
        pattern = linear_eigenvector_pattern(n, j)
        got = soft.vectors[:, j - 1]
        pattern = pattern / np.linalg.norm(pattern)
        got = got / np.linalg.norm(got)
        assert min(np.max(np.abs(got - pattern)), np.max(np.abs(got + pattern))) < 1e-9


def test_linear_stiffness_reduction_ratio_limit():
    # (5 + cos(pi h)) / (5 - cos(pi h)) -> 3/2 as h -> 0
    assert abs(linear_stiffness_reduction_ratio(1e-4) - 1.5) < 1e-6
    h = 0.1
    want = (5 + math.cos(math.pi * h)) / (5 - math.cos(math.pi * h))
    assert abs(linear_stiffness_reduction_ratio(h) - want) < 1e-14


def test_branch_polynomial_p1_reproduces_closed_form():
    n = 10
    h = 1.0 / n
    for j in range(1, n):
        zeta = math.cos(j * math.pi * h)
        roots = branch_roots(1, zeta)
        assert len(roots) == 1
        lam = closed_form_linear_eigenvalue(n, j, 0.0)["fem"]
        assert abs(roots[0] / h**2 - lam) < 1e-9 * lam


def test_stopping_bands():
    h = 0.25
    assert stopping_band_values(1, h).size == 0
    p2 = stopping_band_values(2, h)
    assert p2.shape == (1,)
    assert abs(p2[0] - 10.0 / h**2) < 1e-9 / h**2
    p3 = stopping_band_values(3, h)
    assert p3.shape == (2,)
    assert np.all(p3 > 0)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_full_branch_spectrum_matches_assembly(p):
    n = 12
    mesh = mesh_from_spec({"type": "uniform", "n": n, "d": 1})
    space = build_space(mesh, p)
    fem = solve_gmevp(assemble_stiffness(space), assemble_mass(space))
    pred = full_branch_spectrum(p, n)
    assert len(pred) == fem.order
    assert np.max(np.abs(np.sort(pred) - fem.values) / fem.values) < 1e-9


def test_gamma_p_values():
    """Each constant is its closed form rounded once, and gamma is
    1 - eta_default / eta_max exactly, at every degree."""
    for p in range(1, MAX_DEGREE + 1):
        eta_max, eta_default = Fraction(1, 2 * p * (p + 1)), Fraction(1, 2 * (p + 1) * (p + 2))
        assert 1 - eta_default / eta_max == Fraction(2, p + 2)
        assert softness_parameters(p) == {"eta_max": float(eta_max),
                                          "eta_default": float(eta_default),
                                          "gamma": float(Fraction(2, p + 2))}


def test_superconvergence_bound_formula():
    assert abs(superconvergence_bound(2, 0.1) - (2 * math.pi * 0.1) ** 4 / 360.0) < 1e-15


def test_sharp_trace_constants():
    assert abs(sharp_trace_constant("interval-k", 3) - math.sqrt(20.0)) < 1e-14
    assert abs(sharp_trace_constant("interval-k", 3, k=1) - math.sqrt(12.0)) < 1e-14
    assert (
        abs(sharp_trace_constant("cuboid-grad", 2, geometry=0.5) - math.sqrt(12.0))
        < 1e-14
    )
    assert (
        abs(
            sharp_trace_constant("simplex-grad", 2, geometry=0.5, d=3)
            - math.sqrt(16.0)
        )
        < 1e-14
    )
    c = sharp_trace_constant("cuboid-partial", 2, k=[0, 1], geometry=[0.5, 0.25])
    assert abs(c - math.sqrt(12.0 / 0.5 + 6.0 / 0.25)) < 1e-13
    with pytest.raises(ValueError):
        sharp_trace_constant("interval-k", 2, k=3)
    with pytest.raises(ValueError):
        sharp_trace_constant("warped", 2)


def test_extremal_polynomial_attains_constant():
    for p in range(1, 6):
        coeffs = extremal_trace_polynomial(p)
        ratio = trace_ratio_interval(coeffs)
        want = (p + 1) * (p + 2)
        assert abs(ratio - want) < 1e-9 * want


def test_random_polynomials_respect_trace_bound():
    rng = np.random.default_rng(11)
    for p in [1, 2, 4]:
        bound = (p + 1) * (p + 2)
        for _ in range(200):
            ratio = trace_ratio_interval(rng.standard_normal(p + 1))
            assert ratio <= bound * (1 + 1e-10)


def test_reference_spectrum_matches_exact_for_unit_kappa():
    for d, refine in [(1, 4), (3, 1)]:  # in 3D, the Kronecker path
        values = oracle.reference_spectrum(
            {"kappa": "1", "mesh": {"type": "uniform", "n": 4, "d": d}},
            5,
            degree=6,
            refine=refine,
        )
        exact = oracle.exact_laplace_spectrum(d, 5).values
        assert np.max(np.abs(values - exact) / exact) < 1e-10


def test_oracle_holds_only_what_a_run_reads():
    public = {name for name, obj in vars(oracle).items()
              if callable(obj) and not name.startswith("_")
              and getattr(obj, "__module__", None) == oracle.__name__}
    assert public == {"exact_laplace_spectrum", "laplace_mode", "reference_spectrum"}
