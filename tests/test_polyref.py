import numpy as np
import pytest

from softfem.polyref import (
    NODAL_TOL,
    BasisError,
    ReferenceBasis,
    cuboid_rule,
    gauss_legendre_rule,
    gauss_lobatto_rule,
    simplex_rule,
)


def test_gauss_legendre_small_rules_match_closed_forms():
    r1 = gauss_legendre_rule(1)
    assert np.allclose(r1.nodes, [0.0]) and np.allclose(r1.weights, [2.0])
    r2 = gauss_legendre_rule(2)
    assert np.allclose(r2.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)])
    assert np.allclose(r2.weights, [1.0, 1.0])
    r3 = gauss_legendre_rule(3)
    assert np.allclose(r3.nodes, [-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)])
    assert np.allclose(r3.weights, [5 / 9, 8 / 9, 5 / 9])


@pytest.mark.parametrize("n", [2, 4, 7, 12, 20])
def test_gauss_legendre_exactness_degree(n):
    rule = gauss_legendre_rule(n)
    # exact through degree 2n-1
    for deg in range(2 * n):
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        got = float(np.sum(rule.weights * rule.nodes**deg))
        assert abs(got - exact) < 1e-13
    # and not beyond (the leading error term decays fast, so only check
    # small rules where it is visible)
    if n <= 4:
        deg = 2 * n
        exact = 2.0 / (deg + 1)
        got = float(np.sum(rule.weights * rule.nodes**deg))
        assert abs(got - exact) > 1e-6


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
def test_gauss_lobatto_endpoints_and_weights(n):
    rule = gauss_lobatto_rule(n)
    assert rule.nodes[0] == -1.0 and rule.nodes[-1] == 1.0
    w_end = 2.0 / (n * (n - 1))
    assert abs(rule.weights[0] - w_end) < 1e-14
    assert abs(rule.weights[-1] - w_end) < 1e-14
    # interior weight formula
    for x, w in zip(rule.nodes[1:-1], rule.weights[1:-1]):
        val = np.polynomial.legendre.legval(x, np.eye(n)[n - 1])
        assert abs(w - 2.0 / (n * (n - 1) * val**2)) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_gauss_lobatto_exactness(n):
    rule = gauss_lobatto_rule(n)
    for deg in range(2 * n - 2):
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        got = float(np.sum(rule.weights * rule.nodes**deg))
        assert abs(got - exact) < 1e-13


def test_gauss_lobatto_3_is_simpson():
    rule = gauss_lobatto_rule(3)
    assert np.allclose(rule.nodes, [-1.0, 0.0, 1.0])
    assert np.allclose(rule.weights, [1 / 3, 4 / 3, 1 / 3])


def test_rule_bounds_checked():
    with pytest.raises(ValueError):
        gauss_legendre_rule(0)
    with pytest.raises(ValueError):
        gauss_lobatto_rule(1)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_cuboid_rule_weight_sum(d):
    rule = cuboid_rule(d, 3)
    assert rule.nodes.shape == (3**d, d)
    assert abs(np.sum(rule.weights) - 2.0**d) < 1e-13


def test_cuboid_rule_axis_zero_fastest():
    rule = cuboid_rule(2, 3)
    # first three points share the axis-1 coordinate while axis 0 sweeps
    assert np.allclose(rule.nodes[:3, 1], rule.nodes[0, 1])
    assert not np.allclose(rule.nodes[:3, 0], rule.nodes[0, 0])
    # point by point: point i0 + n i1 + n^2 i2, its weight multiplied in axis order
    n, line = 4, gauss_legendre_rule(4)
    rule = cuboid_rule(3, n)
    points = [(i0, i1, i2) for i2 in range(n) for i1 in range(n) for i0 in range(n)]
    assert np.array_equal(rule.nodes, [[line.nodes[i] for i in ijk] for ijk in points])
    weights = [line.weights[i0] * line.weights[i1] * line.weights[i2] for i0, i1, i2 in points]
    assert np.array_equal(rule.weights, weights)


def test_simplex_rule_integrates_monomials():
    import math

    rule = simplex_rule(6)
    assert abs(np.sum(rule.weights) - 0.5) < 1e-13
    for a in range(4):
        for b in range(4 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            got = float(
                np.sum(rule.weights * rule.nodes[:, 0] ** a * rule.nodes[:, 1] ** b)
            )
            assert abs(got - exact) < 1e-13, (a, b)


def test_lobatto_points_are_sorted_endpoints():
    pts = gauss_lobatto_rule(5).nodes
    assert pts[0] == -1.0 and pts[-1] == 1.0
    assert np.all(np.diff(pts) > 0)


@pytest.mark.parametrize(
    "kind,p,d",
    [
        ("cuboid", 3, 1),
        ("cuboid", 2, 2),
        ("cuboid", 2, 3),
        ("simplex", 3, 2),
        ("cuboid", 59, 1),
    ],
)
def test_basis_partition_of_unity_and_delta(kind, p, d):
    basis = ReferenceBasis(kind, p, d)
    V, G = basis.eval(basis.nodes)
    assert np.allclose(V, np.eye(basis.ndof), atol=1e-10)
    if kind == "simplex":
        quad = simplex_rule(2 * p)
    else:
        quad = cuboid_rule(d, p + 1)
    Vq, Gq = basis.eval(quad.nodes)
    assert np.max(np.abs(Vq.sum(axis=1) - 1.0)) < 1e-10
    assert np.max(np.abs(Gq.sum(axis=1))) < 1e-9


@pytest.mark.parametrize("kind,p,d", [("cuboid", 4, 1), ("cuboid", 3, 2), ("simplex", 2, 2)])
def test_basis_gradient_matches_finite_difference(kind, p, d):
    basis = ReferenceBasis(kind, p, d)
    rng = np.random.default_rng(0)
    if kind == "simplex":
        pts = rng.dirichlet([1, 1, 1], size=5)[:, :2]
    else:
        pts = rng.uniform(-0.9, 0.9, size=(5, d))
    _, G = basis.eval(pts)
    eps = 1e-6
    for ax in range(d):
        shift = np.zeros(d)
        shift[ax] = eps
        Vp, _ = basis.eval(pts + shift)
        Vm, _ = basis.eval(pts - shift)
        assert np.max(np.abs(G[:, :, ax] - (Vp - Vm) / (2 * eps))) < 1e-6


def test_basis_rejects_points_outside_reference_element():
    basis = ReferenceBasis("cuboid", 2, 1)
    with pytest.raises(ValueError):
        basis.eval(np.array([[1.5]]))


def test_basis_is_checked_to_be_nodal():
    """The simplex basis on the equispaced lattice loses nodality above
    p = 13; tensor bases stay nodal up to the degree bound."""
    for p in (1, 8, 13):
        ReferenceBasis("simplex", p, 2)
    for p in (14, 16, 20):
        with pytest.raises(BasisError, match=f"degree-{p} simplex basis is not nodal"):
            ReferenceBasis("simplex", p, 2)
    ReferenceBasis("cuboid", 59, 1)
    ReferenceBasis("cuboid", 10, 3)
    basis = ReferenceBasis("simplex", 13, 2)
    V, G = basis.eval(basis.nodes)
    assert np.abs(V - np.eye(basis.ndof)).max() <= NODAL_TOL
