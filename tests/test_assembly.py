import functools
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from softfem.assembly import (
    AssemblyError,
    FeSpace,
    assemble_mass,
    assemble_penalty,
    assemble_stiffness,
    build_space,
    element_map,
    soften,
    softness_parameters,
)
from softfem.coefficient import parse_coefficient
from softfem.mesh import InvalidMeshError, Mesh, build_cartesian_mesh, mesh_from_spec
from softfem.polyref import ReferenceBasis

from oracles import interpolate


def uniform_1d(n):
    return mesh_from_spec({"type": "uniform", "n": n, "d": 1})


def unreduced(space):
    """A copy of the space with no dof eliminated, so that assembly returns
    the full matrices."""
    every = np.arange(space.n_full)
    return replace(space, full_to_reduced=every, reduced_to_full=every)


# -- spaces ---------------------------------------------------------------


@pytest.mark.parametrize("n,p", [(4, 1), (4, 3), (7, 2)])
def test_1d_dof_count(n, p):
    space = build_space(uniform_1d(n), p)
    assert space.ndof == p * n - 1


@pytest.mark.parametrize("n,p,d", [(3, 2, 2), (2, 3, 3)])
def test_tensor_dof_count(n, p, d):
    space = build_space(mesh_from_spec({"type": "uniform", "n": n, "d": d}), p)
    assert space.ndof == (p * n - 1) ** d


@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 3)])
def test_simplicial_dof_count(n, p):
    space = build_space(mesh_from_spec({"type": "unit-square", "n": n}), p)
    # P_p Lagrange on an n x n criss-cross square, Dirichlet boundary removed
    n_vert_int = (n + 1) ** 2 - 4 * n
    n_edges = 3 * n * n + 2 * n  # interior + boundary edges
    n_bnd_edges = 4 * n
    n_int_edges = n_edges - n_bnd_edges
    ndof = n_vert_int + (p - 1) * n_int_edges + (p - 1) * (p - 2) // 2 * 2 * n * n
    assert space.ndof == ndof


@pytest.mark.parametrize(
    "mesh,p",
    [
        (
            build_cartesian_mesh(
                [[0.0, 0.13, 0.4, 1.0], [0.0, 0.55, 1.0], [0.0, 0.2, 0.35, 0.9, 1.0]]
            ),
            3,
        ),
        (mesh_from_spec({"type": "l-shape", "n": 2}), 3),
    ],
    ids=["graded-3d", "l-shape"],
)
def test_node_coords_are_element_map_images_of_reference_nodes(mesh, p):
    space = build_space(mesh, p)
    image = element_map(space).to_phys(space.basis.nodes)
    assert image.shape == (mesh.n_elements, space.basis.ndof, mesh.d)
    assert np.allclose(space.node_coords[space.element_dofs], image, rtol=0, atol=1e-15)


def test_interpolation_reproduces_polynomials():
    mesh = mesh_from_spec({"type": "uniform", "n": 3, "d": 2})
    space = build_space(mesh, 2)
    # x(1-x)*y(1-y) is in Q_2 and vanishes on the boundary
    f = lambda pts: pts[:, 0] * (1 - pts[:, 0]) * pts[:, 1] * (1 - pts[:, 1])
    coeffs = interpolate(space, f)
    M = assemble_mass(space)
    # compare in the L2 sense against the straightforward quadrature value
    exact_sq = (1.0 / 30.0) ** 2
    assert abs(coeffs @ (M @ coeffs) - exact_sq) < 1e-14


def test_fe_space_holds_only_what_a_run_reads():
    public = {name for name in dir(build_space(uniform_1d(4), 2)) if not name.startswith("_")}
    derived = {"ndof", "element_tables", "error_tables"}
    assert public == {f.name for f in fields(FeSpace)} | derived


# -- golden 1D p=1 matrices ----------------------------------------------


def reference_penalty_1d_p1(n):
    """Direct construction: hat-function slopes are piecewise constant, so
    the normal-jump at node i is (u_{i+1} - 2u_i + u_{i-1})/h and each of
    the n-1 interior interfaces contributes h * (jump x jump^T)."""
    h = 1.0 / n
    size = n + 1
    S = np.zeros((size, size))
    for i in range(1, n):
        g = np.zeros(size)
        g[i - 1], g[i], g[i + 1] = 1.0 / h, -2.0 / h, 1.0 / h
        S += h * np.outer(g, g)
    return S[1:-1, 1:-1]


@pytest.mark.parametrize("n", [2, 3, 8])
def test_golden_stencils_p1(n):
    h = 1.0 / n
    space = build_space(uniform_1d(n), 1)
    K = assemble_stiffness(space).toarray()
    M = assemble_mass(space).toarray()
    S = assemble_penalty(space).toarray()
    size = n - 1
    Kref = (np.diag(2.0 * np.ones(size)) - np.diag(np.ones(size - 1), 1)
            - np.diag(np.ones(size - 1), -1)) / h
    Mref = h * (np.diag(2.0 / 3.0 * np.ones(size))
                + np.diag(np.ones(size - 1) / 6.0, 1)
                + np.diag(np.ones(size - 1) / 6.0, -1))
    assert np.max(np.abs(K - Kref)) < 1e-13 / h
    assert np.max(np.abs(M - Mref)) < 1e-13
    assert np.max(np.abs(S - reference_penalty_1d_p1(n))) < 1e-11


def test_golden_single_interior_dof():
    space = build_space(uniform_1d(2), 1)
    assert np.allclose(assemble_stiffness(space).toarray(), [[4.0]])
    assert np.allclose(assemble_mass(space).toarray(), [[1.0 / 3.0]])
    assert np.allclose(assemble_penalty(space).toarray(), [[8.0]])


# -- invariants -----------------------------------------------------------


@pytest.mark.parametrize(
    "mesh,p",
    [
        (uniform_1d(5), 3),
        (mesh_from_spec({"type": "uniform", "n": 3, "d": 2}), 2),
        (mesh_from_spec({"type": "unit-square", "n": 3}), 2),
    ],
    ids=["1d", "2d-tensor", "2d-simplicial"],
)
def test_mass_total_is_domain_volume(mesh, p):
    space = build_space(mesh, p)
    M = assemble_mass(unreduced(space))
    assert abs(M.toarray().sum() - 1.0) < 1e-12


@pytest.mark.parametrize(
    "mesh,p",
    [
        (uniform_1d(4), 2),
        (mesh_from_spec({"type": "uniform", "n": 2, "d": 2}), 3),
        (mesh_from_spec({"type": "unit-square", "n": 2}), 3),
    ],
    ids=["1d", "2d-tensor", "2d-simplicial"],
)
def test_stiffness_annihilates_constants(mesh, p):
    space = build_space(mesh, p)
    K = assemble_stiffness(unreduced(space))
    ones = np.ones(space.n_full)
    assert np.max(np.abs((K @ ones))) < 1e-11


@pytest.mark.parametrize(
    "mesh,p",
    [
        (uniform_1d(4), 2),
        (mesh_from_spec({"type": "uniform", "n": 3, "d": 2}), 2),
        (mesh_from_spec({"type": "unit-square", "n": 3}), 2),
    ],
    ids=["1d", "2d-tensor", "2d-simplicial"],
)
def test_penalty_annihilates_affine_functions(mesh, p):
    space = build_space(mesh, p)
    S = assemble_penalty(unreduced(space))
    for f in [lambda x: np.ones(len(x)), lambda x: x[:, 0], lambda x: x.sum(axis=1)]:
        vals = f(space.node_coords)
        assert np.max(np.abs((S @ vals))) < 1e-10


@pytest.mark.parametrize(
    "mesh,p,bound",
    [
        (uniform_1d(8), 1, 2 * 1 * 2),
        (uniform_1d(6), 3, 2 * 3 * 4),
        (mesh_from_spec({"type": "uniform", "n": 3, "d": 2}), 2, 2 * 2 * 3),
        (mesh_from_spec({"type": "unit-square", "n": 3}), 2, 2 * 2 * 3),
        (mesh_from_spec({"type": "l-shape", "n": 2}), 3, 2 * 3 * 4),
    ],
    ids=["1d-p1", "1d-p3", "2d-tensor", "2d-simplicial", "l-shape"],
)
def test_penalty_dominated_by_stiffness(mesh, p, bound):
    space = build_space(mesh, p)
    K = assemble_stiffness(space).toarray()
    S = assemble_penalty(space).toarray()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = rng.standard_normal(space.ndof)
        assert x @ S @ x <= bound * (x @ K @ x) * (1 + 1e-10)


CUBES = {"cartesian": build_cartesian_mesh([[0, 0.3, 1], [0, 0.5, 0.7, 1], [0, 0.4, 1]]),
         "uniform": mesh_from_spec({"type": "uniform", "n": 2, "d": 3})}


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", CUBES)
def test_3d_penalty_within_its_coercivity_bound(name, p):
    """lambda_max(S, K) <= 1 / eta_max = 2p(p+1) in 3D, with variable kappa
    (2.24, 7.95 and 16.86 on the Cartesian mesh, 2.00, 8.02 and 18.02 on
    the uniform one)."""
    kappa = parse_coefficient("1 + x*y")
    space = build_space(CUBES[name], p)
    K = assemble_stiffness(space, kappa).toarray()
    S = assemble_penalty(space, kappa).toarray()
    assert scipy.linalg.eigh(S, K, eigvals_only=True)[-1] <= 2 * p * (p + 1) * (1 + 1e-10)


def test_relabelled_tensor_vertices_are_refused():
    """Face quadrature reads a tensor face's lowest- and highest-numbered
    vertices as opposite corners. The uniform cube with its vertex ids
    permuted as here broke that (kappa = 1, p = 2: lambda_max(S, K) = 60.8,
    over the bound 12); `Mesh` refuses tensor arrays and derives them from
    the breakpoints."""
    cube = CUBES["uniform"]
    perm = np.random.default_rng(0).permutation(len(cube.vertices))
    vertices = np.empty_like(cube.vertices)
    vertices[perm] = cube.vertices
    with pytest.raises(InvalidMeshError, match="'axes' alone"):
        Mesh(3, "tensor", vertices, perm[cube.elements], axes=cube.axes)


def test_variable_kappa_scales_linearly():
    space = build_space(uniform_1d(5), 2)
    k1 = assemble_stiffness(space, parse_coefficient("1")).toarray()
    k2 = assemble_stiffness(space, parse_coefficient("2")).toarray()
    assert np.allclose(k2, 2.0 * k1, rtol=1e-14)
    s1 = assemble_penalty(space, parse_coefficient("1")).toarray()
    s2 = assemble_penalty(space, parse_coefficient("2")).toarray()
    assert np.allclose(s2, 2.0 * s1, rtol=1e-14)


def test_nonfinite_kappa_raises_with_element():
    space = build_space(uniform_1d(4), 1)
    with pytest.raises(AssemblyError, match="element"):
        assemble_stiffness(space, parse_coefficient("1/(x - x)"))


def test_penalty_weights_each_face_by_kappa_on_it():
    """In 1D the face weight is kappa(x_F): with one interior face at 0.5,
    kappa = 1 + x scales the penalty by 1.5, not by a value from inside an
    element."""
    space = build_space(uniform_1d(2), 3)
    s1 = assemble_penalty(space, parse_coefficient("1")).toarray()
    s2 = assemble_penalty(space, parse_coefficient("1 + x")).toarray()
    assert np.allclose(s2, 1.5 * s1, rtol=1e-14, atol=0)


def test_nonpositive_face_kappa_raises_with_face():
    # kappa vanishes at the face x = 0.5 only, where no element node lies
    space = build_space(uniform_1d(2), 1)
    kappa = parse_coefficient("(2*x - 1)^2")
    assemble_stiffness(space, kappa)
    with pytest.raises(AssemblyError, match="not positive on face 0"):
        assemble_penalty(space, kappa)


@pytest.mark.parametrize(
    "mesh,p",
    [
        (uniform_1d(5), 3),
        (mesh_from_spec({"type": "uniform", "n": 2, "d": 3}), 2),
        (mesh_from_spec({"type": "l-shape", "n": 2}), 2),
    ],
    ids=["1d", "3d-tensor", "l-shape"],
)
def test_matrices_are_canonical_symmetric_csr(mesh, p):
    space = build_space(mesh, p)
    kappa = parse_coefficient("1 + x*x")
    for space in (space, unreduced(space)):
        for A in (
            assemble_mass(space),
            assemble_stiffness(space, kappa),
            assemble_penalty(space, kappa),
        ):
            assert isinstance(A, sp.csr_matrix) and A.has_canonical_format
            assert np.all(A.data != 0.0)
            assert (A != A.T).nnz == 0


def test_basis_is_evaluated_once_per_assembly(monkeypatch):
    """K and M of one space share one basis evaluation at the element
    quadrature, whichever is assembled first, and come out bit-identical
    either way; the penalty makes its own at the face points."""
    calls = []
    original = ReferenceBasis.eval

    def counting(self, points):
        calls.append(len(points))
        return original(self, points)

    monkeypatch.setattr(ReferenceBasis, "eval", counting)
    for n in (2, 4):
        for mesh in (
            mesh_from_spec({"type": "uniform", "n": n, "d": 3}),
            mesh_from_spec({"type": "unit-square", "n": n}),
        ):
            built = []
            for order in ((assemble_mass, assemble_stiffness),
                          (assemble_stiffness, assemble_mass)):
                space = build_space(mesh, 2)
                calls.clear()
                built.append({assemble: assemble(space) for assemble in order})
                assert len(calls) == 1
                calls.clear()
                assemble_penalty(space)
                assert len(calls) == 1
            for assemble in (assemble_mass, assemble_stiffness):
                first, second = (b[assemble] for b in built)
                for part in ("indptr", "indices", "data"):
                    assert getattr(first, part).tobytes() == getattr(second, part).tobytes()


@pytest.mark.parametrize("d,n,p", [(2, 3, 2), (2, 4, 3), (3, 2, 2), (3, 3, 3)])
def test_tensor_spectra_are_kronecker_sums(d, n, p):
    """On congruent cells with constant kappa, K = sum_a K1 x M1 (x M1),
    S = sum_a S1 x M1 (x M1) and M = M1 x M1 (x M1) to 1e-14 of the largest
    entry, with the local or the mean face length, so every eigenvalue of
    either pencil is a sum of d eigenvalues of the 1D pencil (the Kronecker
    row of tests/test_paths.py compares the sums with the dense solve). This
    checks the face quadrature, normals and h_F of the 2D and 3D penalty."""
    kappa = parse_coefficient("1.7")

    def pencil(mesh, face_length):
        space = build_space(mesh, p)
        return (assemble_stiffness(space, kappa), assemble_mass(space),
                assemble_penalty(space, kappa, face_length=face_length))

    kron = functools.partial(functools.reduce, sp.kron)
    for face_length in (None, 1.0 / n):
        K1, M1, S1 = pencil(uniform_1d(n), face_length)
        sums = [sum(kron([A if b == a else M1 for b in range(d)]) for a in range(d))
                for A in (K1, S1)]
        assembled = pencil(mesh_from_spec({"type": "uniform", "n": n, "d": d}), face_length)
        for mine, want in zip((sums[0], kron([M1] * d), sums[1]), assembled):
            assert abs(mine - want).max() <= 1e-14 * abs(want).max()


def test_assembly_is_deterministic():
    mesh = mesh_from_spec({"type": "unit-square", "n": 3})
    space = build_space(mesh, 3)
    a = assemble_stiffness(space)
    b = assemble_stiffness(build_space(mesh_from_spec({"type": "unit-square", "n": 3}), 3))
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def test_soften_and_parameters():
    space = build_space(uniform_1d(4), 1)
    K = assemble_stiffness(space)
    S = assemble_penalty(space)
    eta = 1.0 / 12.0
    assert np.allclose(soften(K, S, eta).toarray(), K.toarray() - eta * S.toarray())
    pars = softness_parameters(1)
    assert abs(pars["eta_max"] - 1.0 / 4.0) < 1e-15
    assert abs(pars["eta_default"] - 1.0 / 12.0) < 1e-15
    pars = softness_parameters(2)
    assert abs(pars["eta_max"] - 1.0 / (2 * 2 * 3)) < 1e-15


def test_mass_is_spd_and_symmetric():
    for mesh, p in [
        (uniform_1d(6), 4),
        (mesh_from_spec({"type": "unit-square", "n": 2}), 3),
    ]:
        space = build_space(mesh, p)
        M = assemble_mass(space).toarray()
        assert np.allclose(M, M.T)
        np.linalg.cholesky(M)
