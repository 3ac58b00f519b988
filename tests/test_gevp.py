import numpy as np
import pytest
import scipy.sparse as sp

from softfem.assembly import assemble_mass, assemble_stiffness, build_space
from softfem.gevp import (
    IndefinitePencilError,
    MassNotSpdError,
    _fix_signs,
    cluster_eigenvalues,
    condition_number,
    rayleigh_quotient,
    smallest_eigenvalue,
    solve_gmevp,
    stiffness_reduction,
)
from softfem.mesh import mesh_from_spec


def dense_to_sym(a):
    return sp.csr_matrix(a)


def random_pencil(n, seed=0):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = q @ np.diag(rng.uniform(1.0, 10.0, n)) @ q.T
    b = rng.standard_normal((n, n))
    m = b @ b.T + n * np.eye(n)
    return dense_to_sym(a), dense_to_sym(m)


def test_diagonal_pencil():
    a = dense_to_sym(np.diag([3.0, 1.0, 2.0]))
    m = dense_to_sym(np.eye(3))
    spec = solve_gmevp(a, m)
    assert np.allclose(spec.values, [1.0, 2.0, 3.0])
    assert spec.order == 3


def test_m_orthonormal_eigenvectors():
    a, m = random_pencil(12, seed=1)
    spec = solve_gmevp(a, m)
    md = m.toarray()
    gram = spec.vectors.T @ md @ spec.vectors
    assert np.max(np.abs(gram - np.eye(12))) < 1e-10
    ad = a.toarray()
    for j in range(12):
        x = spec.vectors[:, j]
        assert abs(rayleigh_quotient(a, m, x) - spec.values[j]) < 1e-9


def fix_signs_loop(vectors):
    """Column-by-column reference of the sign convention."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        big = np.abs(col).max()
        if big == 0:
            continue
        nz = np.flatnonzero(np.abs(col) > 1e-12 * big)
        if len(nz) and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def test_sign_convention_first_nonzero_positive():
    a, m = random_pencil(9, seed=2)
    spec = solve_gmevp(a, m)
    for j in range(9):
        v = spec.vectors[:, j]
        nz = np.flatnonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))
        assert v[nz[0]] > 0
    raw = np.asfortranarray(np.random.default_rng(5).standard_normal((9, 9)))
    raw[:, 2] = 0.0  # a zero column stays as it is
    raw[:3, 4] = [-1e-13, 0.0, 0.7]  # led by a negative entry under the cut
    raw[:2, 6] = [2e-13, -0.9]  # led by a positive entry under the cut
    for vectors in (spec.vectors, raw, -raw):
        fixed = _fix_signs(vectors)
        expected = fix_signs_loop(vectors)
        assert fixed.tobytes() == expected.tobytes()
        assert fixed.flags.c_contiguous


def test_solve_is_reproducible():
    a, m = random_pencil(10, seed=3)
    s1 = solve_gmevp(a, m)
    s2 = solve_gmevp(a, m)
    assert np.array_equal(s1.values, s2.values)
    assert np.array_equal(s1.vectors, s2.vectors)


def test_mass_must_be_spd():
    a = dense_to_sym(np.eye(3))
    m = dense_to_sym(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(MassNotSpdError):
        solve_gmevp(a, m)


def test_smallest_eigenvalue_matches_full_solve():
    a, m = random_pencil(20, seed=4)
    spec = solve_gmevp(a, m)
    assert abs(smallest_eigenvalue(a, m) - spec.values[0]) < 1e-10


def test_permutation_invariance_of_spectrum():
    mesh = mesh_from_spec({"type": "uniform", "n": 8, "d": 1})
    space = build_space(mesh, 2)
    K = assemble_stiffness(space).toarray()
    M = assemble_mass(space).toarray()
    rng = np.random.default_rng(5)
    perm = rng.permutation(space.ndof)
    s1 = solve_gmevp(dense_to_sym(K), dense_to_sym(M))
    s2 = solve_gmevp(dense_to_sym(K[np.ix_(perm, perm)]), dense_to_sym(M[np.ix_(perm, perm)]))
    assert np.max(np.abs(s1.values - s2.values) / s1.values) < 1e-10


def test_condition_number_and_reduction():
    a = dense_to_sym(np.diag([1.0, 4.0]))
    m = dense_to_sym(np.eye(2))
    fem = solve_gmevp(a, m)
    soft = solve_gmevp(dense_to_sym(np.diag([1.0, 2.0])), m)
    assert abs(condition_number(fem) - 4.0) < 1e-14
    metrics = stiffness_reduction(fem, soft)
    assert abs(metrics.sigma - 4.0) < 1e-14
    assert abs(metrics.sigma_soft - 2.0) < 1e-14
    assert abs(metrics.rho - 2.0) < 1e-14
    assert abs(metrics.rho_percent - 50.0) < 1e-12


def test_condition_number_rejects_indefinite():
    a = dense_to_sym(np.diag([-1.0, 4.0]))
    m = dense_to_sym(np.eye(2))
    spec = solve_gmevp(a, m)
    with pytest.raises(IndefinitePencilError):
        condition_number(spec)


def test_cluster_eigenvalues():
    values = np.array([1.0, 1.0 + 1e-12, 2.0, 3.0, 3.0, 3.0])
    clusters = cluster_eigenvalues(values, rel_tol=1e-8)
    assert clusters == [[0, 1], [2], [3, 4, 5]]
