import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from softfem import gevp, speclab
from softfem.assembly import (
    assemble_mass,
    assemble_penalty,
    assemble_stiffness,
    build_space,
    soften,
    softness_parameters,
)
from softfem.coefficient import parse_coefficient
from softfem.gevp import (
    IndefinitePencilError,
    MassNotSpdError,
    _extreme_value,
    _fix_signs,
    _inertia,
    _lowest_modes,
    _start_vector,
    cluster_eigenvalues,
    condition_number,
    largest_eigenvalue,
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
    # a mass matrix of another order, and a pencil that is not square
    for a_bad, m_bad in [(a, dense_to_sym(np.eye(2))), (a[:2], m[:2])]:
        with pytest.raises(ValueError, match="matrix order mismatch"):
            solve_gmevp(a_bad, m_bad)


def fix_signs_loop(vectors):
    """Column-by-column reference of the sign rule: a column whose inner
    product with the start vector is negative is negated."""
    out = np.array(vectors, order="C")
    start = _start_vector(len(out))
    for j in range(out.shape[1]):
        if start @ out[:, j] < 0:
            out[:, j] = -out[:, j]
    return out


def test_sign_rule_projects_on_the_start_vector():
    a, m = random_pencil(9, seed=2)
    spec = solve_gmevp(a, m)
    assert np.all(_start_vector(9) @ spec.vectors > 0)
    raw = np.asfortranarray(np.random.default_rng(5).standard_normal((9, 9)))
    raw[:, 2] = 0.0  # a zero column stays as it is
    for vectors in (spec.vectors, raw, -raw):
        fixed = _fix_signs(vectors, np.arange(9))
        expected = fix_signs_loop(vectors)
        assert fixed.tobytes() == expected.tobytes()
        assert fixed.flags.c_contiguous
    assert not _fix_signs(raw, np.arange(9))[:, 2].any()
    assert _fix_signs(raw, [4, 1]).tobytes() == fix_signs_loop(raw[:, [4, 1]]).tobytes()
    assert _fix_signs(np.zeros((0, 3)), [0, 2]).shape == (0, 2)  # an empty pencil
    # a leading entry at rounding level does not decide the sign
    noisy = np.repeat(raw[:, [4]], 2, axis=1)
    noisy[0] = [1e-11, -1e-11]
    fixed = _fix_signs(noisy, [0, 1])
    assert np.array_equal(fixed[1:, 0], fixed[1:, 1])


def test_factored_vectors_draw_the_start_vector_once(monkeypatch):
    """The 512 vectors of a 3D n=3 p=3 Kronecker spectrum fix their signs
    against one read-only start vector, to the bytes of a fresh draw each."""
    draws = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: draws.append(seed) or default_rng(seed))
    _start_vector.cache_clear()
    spectrum = speclab.solve_problem(mesh_from_spec({"type": "uniform", "n": 3, "d": 3}), 3).soft
    vectors = [spectrum.vector(j).tobytes() for j in range(spectrum.order)]
    assert draws == [0, 0]  # one per length: the 1D order 8 and the 3D order 512
    assert not _start_vector(512).flags.writeable
    monkeypatch.setattr(gevp, "_start_vector", lambda n: default_rng(0).standard_normal(n))
    assert [spectrum.vector(j).tobytes() for j in range(spectrum.order)] == vectors


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


@pytest.mark.parametrize("factor", [0.95, 1.05])
def test_lowest_eigenvalue_on_a_softened_pencil(factor):
    """Positive (the sparse lowest mode) and indefinite (minus the largest
    eigenvalue of -A) 1D pencils."""
    space = build_space(mesh_from_spec({"type": "uniform", "n": 100}), 2)
    M = assemble_mass(space)
    eta = factor * softness_parameters(2)["eta_max"]
    A = soften(assemble_stiffness(space), assemble_penalty(space), eta)
    dense = solve_gmevp(A, M).values[0]
    assert (_lowest_modes(A, M, 1) is None) == (factor > 1)
    lowest = solve_gmevp(A, M, 1).values[0] if factor < 1 else -largest_eigenvalue(-A, M)
    assert abs(lowest - dense) <= 1e-10 * abs(dense)


def pencil(spec, p, kappa="1"):
    space = build_space(mesh_from_spec(spec), p)
    return space, assemble_stiffness(space, parse_coefficient(kappa)), assemble_mass(space)


def assert_dense_slice(A, M, k):
    """solve_gmevp(A, M, k) is the dense solve's lowest k and lambda_max, bit for bit."""
    dense = solve_gmevp(A, M)
    got = solve_gmevp(A, M, k)
    assert got.lambda_max == dense.lambda_max
    assert got.values.tobytes() == dense.values[:k].tobytes()
    assert got.vectors.tobytes() == np.ascontiguousarray(dense.vectors[:, :k]).tobytes()


def test_indefinite_pencil_takes_the_dense_path():
    space, K, M = pencil({"type": "uniform", "n": 6, "d": 2}, 2)
    eta = 3 * softness_parameters(2)["eta_max"]
    A = soften(K, assemble_penalty(space), eta)
    assert _inertia(A)[1] > 0
    assert _lowest_modes(A, M, 5) is None
    assert_dense_slice(A, M, 5)


def test_row_pivot_voids_the_inertia_count():
    """A zero diagonal forces SuperLU to pivot a row; its pivots then count
    nothing (here all 40 are positive, for 20 negative eigenvalues)."""
    blocks = sp.kron(sp.diags(np.arange(1.0, 21.0)), sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]]))
    A, M = blocks.tocsr(), sp.identity(40, format="csr")
    assert _inertia(A)[1] is None
    assert _lowest_modes(A, M, 3) is None
    assert_dense_slice(A, M, 3)


def test_split_degenerate_cluster_steps_past_the_cluster():
    """lambda_40 = lambda_41 here (the x <-> y symmetry), so no tau separates
    the lowest 40: the count jumps from 39 to 41. The solve for 41 modes is
    certified, and its lowest 40 are returned."""
    _, K, M = pencil({"type": "uniform", "n": 12, "d": 2}, 3)
    values = solve_gmevp(K, M).values
    assert values[40] - values[39] <= 1e-12 * values[40]
    assert _inertia(K - values[39] * (1 - 1e-10) * M)[1] == 39
    assert _inertia(K - values[39] * (1 + 1e-10) * M)[1] == 41
    got = solve_gmevp(K, M, 40)
    assert got.path == "sparse" and got.order == 40
    assert np.max(np.abs(got.values - values[:40]) / values[:40]) <= 1e-12


def test_lowest_modes_need_a_positive_definite_mass():
    """An M with a tiny negative eigenvalue gives the pencil a huge negative
    eigenvalue that neither shift-invert at 0 nor the count at tau sees."""
    _, K, M = pencil({"type": "uniform", "n": 8, "d": 2}, 2)
    shift = 1.0001 * np.linalg.eigvalsh(M.toarray())[0]
    M = (M - shift * sp.eye(M.shape[0])).tocsr()
    with pytest.raises(MassNotSpdError):
        solve_gmevp(K, M, 3)
    with pytest.raises(MassNotSpdError):
        largest_eigenvalue(-K, M)


def test_dense_path_slices_small_pencils():
    """k + 1 > n // 10 keeps the dense path, whose lowest k are returned."""
    a, m = random_pencil(30, seed=6)
    assert_dense_slice(a, m, 3)
    assert_dense_slice(a, m, 40)  # more modes than the order: all of them


def test_largest_eigenvalue_declines_an_inexact_ritz_value(monkeypatch):
    """Lanczos from ones converges 9.2e-6 below lambda_max on this pencil,
    whose top mode is M-orthogonal to ones, so the count at theta (1 +
    EXTREME_RTOL) misses an eigenvalue: the dense value is returned."""
    _, K, M = pencil({"type": "unit-square", "n": 16}, 3)
    n = K.shape[0]
    dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                              subset_by_index=(n - 1, n - 1))[0]
    monkeypatch.setattr(gevp, "_start_vector", np.ones)
    assert _extreme_value(K, M) is None
    assert largest_eigenvalue(K, M) == dense


@pytest.mark.parametrize("top", [True, False])
def test_extreme_value_count_rejects_a_missed_mode(monkeypatch, top):
    """The extreme mode (1, -1, 0, ...) is orthogonal to the Lanczos start
    vector, here ones, so Lanczos converges to the next value; the count at
    theta sees the missed one, and the dense value is returned."""
    monkeypatch.setattr(gevp, "_start_vector", np.ones)
    sign = 1.0 if top else -1.0
    # the 2 x 2 block has sign * 10 on (1, -1) and sign on (1, 1)
    block = sign * np.array([[5.5, -4.5], [-4.5, 5.5]])
    rest = sign * np.linspace(-9.0, 9.0, 38) - sign * 20.0
    A = sp.block_diag([block, sp.diags(rest)], format="csr")
    M = sp.identity(40, format="csr")
    assert _extreme_value(A if top else -A, M) is None
    extreme = largest_eigenvalue(A, M) if top else -largest_eigenvalue(-A, M)
    assert abs(extreme - sign * 10.0) <= 1e-12


@pytest.mark.parametrize("top", [True, False])
def test_extreme_values_need_a_positive_definite_mass(top):
    """With an indefinite M, A - sigma*M can be definite while an eigenvalue
    of an M-negative mode lies beyond sigma: here Lanczos from ones would
    stay off the M-negative mode (1, -1, 0, ...) at lambda = 100 (top) or
    -100, and the count at the Ritz value +-30 would pass. The dense path
    raises."""
    sign = 1.0 if top else -1.0
    # on (1, 1): M = 1 and A = 2 * sign; on (1, -1): M = -0.5 and A = -50 * sign
    Mb = np.array([[0.25, 0.75], [0.75, 0.25]])
    Ab = sign * np.array([[-24.0, 26.0], [26.0, -24.0]])
    A = sp.block_diag([Ab, sp.diags(sign * np.linspace(-5.0, 30.0, 38))], format="csr")
    M = sp.block_diag([Mb, sp.identity(38)], format="csr")
    assert _extreme_value(A if top else -A, M) is None
    with pytest.raises(MassNotSpdError):
        largest_eigenvalue(A, M) if top else -largest_eigenvalue(-A, M)


def traced_peak(call):
    """The peak of the memory traced while call() runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_solves_overwrite_their_dense_copies(monkeypatch):
    """LAPACK works in place on the dense A and M: a full solve holds them
    and xSYGVD's 2n^2 workspace (4n^2 doubles), a one-value solve A and M."""
    _, K, M = pencil({"type": "unit-square", "n": 8}, 3)
    dense = 8 * K.shape[0] ** 2  # bytes of one dense n x n matrix (n = 529)
    assert traced_peak(lambda: solve_gmevp(K, M)) <= 4.5 * dense
    monkeypatch.setattr(gevp, "_extreme_value", lambda A, M: None)
    assert traced_peak(lambda: largest_eigenvalue(K, M)) <= 2.5 * dense


def test_dense_order_over_the_limit_is_refused_before_the_copies(monkeypatch):
    """A full solve and the dense lambda_max fallback of an order over
    MAX_DENSE_ORDER raise, naming the order and `modes`, before any dense
    copy is made."""
    n = gevp.MAX_DENSE_ORDER + 1
    eye = sp.identity(n, format="csr")
    monkeypatch.setattr(gevp, "_extreme_value", lambda A, M: None)

    def refused(solve):
        with pytest.raises(gevp.EigensolveError, match=f"order {n} .*'modes'"):
            solve(eye, eye)

    for solve in (solve_gmevp, largest_eigenvalue):
        assert traced_peak(lambda: refused(solve)) < 2**20


class LiveFactor:
    """A SuperLU factor that counts the live ones."""

    live = 0

    def __init__(self, lu):
        self.lu = lu
        LiveFactor.live += 1

    def __del__(self):
        LiveFactor.live -= 1

    def solve(self, b):  # a LinearOperator over it keeps this proxy alive
        return self.lu.solve(b)

    def __getattr__(self, name):
        return getattr(self.lu, name)


@pytest.mark.parametrize(
    "solve,spec,factors",
    [
        (lambda A, M: _lowest_modes(A, M, 5), {"type": "unit-square", "n": 8}, 3),
        (_extreme_value, {"type": "unit-square", "n": 8}, 2),
        # lambda_40 = lambda_41: the count at 40 fails, and A is factored again for 41
        (lambda A, M: _lowest_modes(A, M, 40), {"type": "uniform", "n": 12, "d": 2}, 5),
    ],
    ids=["lowest-modes", "extreme-value", "lowest-modes-past-a-split-cluster"],
)
def test_shifted_pencil_is_factored_alone(monkeypatch, solve, spec, factors):
    """No two SuperLU factors are ever alive together: M's inertia factor is
    freed before A is factored, the factor that applies A^-1 or M^-1 in
    Lanczos before the shifted pencil is factored for its inertia count, and
    that count's factor before A is factored again past a split cluster."""
    live_at_call = []
    splu = scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        live_at_call.append(LiveFactor.live)
        return LiveFactor(splu(*args, **kwargs))

    monkeypatch.setattr(LiveFactor, "live", 0)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    _, K, M = pencil(spec, 3)
    assert solve(K, M) is not None
    assert live_at_call == [0] * factors
    assert LiveFactor.live == 0


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
    assert abs(metrics["sigma"] - 4.0) < 1e-14
    assert abs(metrics["sigma_soft"] - 2.0) < 1e-14
    assert abs(metrics["rho"] - 2.0) < 1e-14
    assert abs(metrics["rho_percent"] - 50.0) < 1e-12
    with pytest.raises(ValueError, match="spectra have different orders"):
        stiffness_reduction(fem, solve_gmevp(dense_to_sym(np.eye(1)), dense_to_sym(np.eye(1))))


def test_condition_number_rejects_indefinite():
    a = dense_to_sym(np.diag([-1.0, 4.0]))
    m = dense_to_sym(np.eye(2))
    spec = solve_gmevp(a, m)
    with pytest.raises(IndefinitePencilError):
        condition_number(spec)


def test_condition_number_of_a_partial_solve_names_the_missing_lambda_max():
    """A sparse partial solve leaves lambda_max None: condition_number says
    so instead of dividing None."""
    _, K, M = pencil({"type": "uniform", "n": 200, "d": 1}, 2)
    spec = solve_gmevp(K, M, 5)
    assert spec.path == "sparse" and spec.lambda_max is None
    with pytest.raises(ValueError, match="lambda_max was not computed.*largest_eigenvalue"):
        condition_number(spec)


def test_cluster_eigenvalues():
    values = np.array([1.0, 1.0 + 1e-12, 2.0, 3.0, 3.0, 3.0])
    clusters = cluster_eigenvalues(values)
    assert clusters == [[0, 1], [2], [3, 4, 5]]
    # NaN, +-inf, -0.0 and a run of equal values give the clusters of the
    # neighbour test taken pair by pair (Python floats: inf - inf is NaN)
    for case in [
        [np.nan, np.nan, 1.0, np.nan, 1.0],
        [-np.inf, -np.inf, 0.0, 1.0, np.inf, np.inf],
        [-0.0, 0.0, 1e-9, -0.0, 1.0],
        [7.0] * 5,
    ]:
        expected = [[0]]
        for j in range(1, len(case)):
            u, v = case[j], case[j - 1]
            if abs(u - v) <= gevp.CLUSTER_RTOL * max(abs(u), abs(v), 1.0):
                expected[-1].append(j)
            else:
                expected.append([j])
        assert cluster_eigenvalues(np.array(case)) == expected


def test_cluster_eigenvalues_of_no_values_is_empty():
    assert cluster_eigenvalues(np.array([])) == []
    assert cluster_eigenvalues([]) == []
    assert cluster_eigenvalues([2.0]) == [[0]]


def test_eigsh_failures_fall_back_to_dense(monkeypatch):
    """When ARPACK raises, the lowest modes are the dense lowest k and the
    largest eigenvalue is the one-value dense solve."""
    _, K, M = pencil({"type": "uniform", "n": 200, "d": 1}, 2)
    calls = []

    def failing_eigsh(*args, **kwargs):
        calls.append(1)
        raise RuntimeError("ARPACK did not converge")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
    dense = solve_gmevp(K, M)
    spec = solve_gmevp(K, M, 5)
    assert len(calls) == 1 and spec.path == "dense"
    assert np.array_equal(spec.values, dense.values[:5])
    assert np.array_equal(spec.vectors, dense.vectors[:, :5])
    n = K.shape[0]
    top = gevp._dense_eigh(K, M, eigvals_only=True, subset_by_index=(n - 1, n - 1))[0]
    assert largest_eigenvalue(K, M) == top and len(calls) == 2


def test_lowest_modes_count_rejects_a_missed_mode(monkeypatch):
    """A Lanczos run that misses the lowest mode returns the modes above it;
    the inertia count at the midpoint of its top gap then shows one more
    eigenvalue than it found, and the gap is no split cluster, so the
    certified solve gives up after one eigsh call and the dense path runs."""
    _, K, M = pencil({"type": "uniform", "n": 200, "d": 1}, 2)
    real_eigsh, calls = scipy.sparse.linalg.eigsh, []

    def missing_eigsh(A, k, *args, **kwargs):
        calls.append(k)
        vals, vecs = real_eigsh(A, k + 1, *args, **kwargs)
        order = np.argsort(vals, kind="stable")[1:]
        return vals[order], vecs[:, order]

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", missing_eigsh)
    assert _lowest_modes(K, M, 5) is None and calls == [6]
    dense = solve_gmevp(K, M)
    spec = solve_gmevp(K, M, 5)
    assert spec.path == "dense" and len(calls) == 2
    assert np.array_equal(spec.values, dense.values[:5])
    assert np.array_equal(spec.vectors, dense.vectors[:, :5])


@pytest.mark.parametrize("k", [-1, 0, True, False, 2.0])
def test_solve_rejects_a_mode_count_that_is_not_a_positive_integer(k):
    """k = -1 returned all modes but one, and k = 0 an empty spectrum, each
    after a full dense solve."""
    _, K, M = pencil({"type": "uniform", "n": 200, "d": 1}, 2)
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        solve_gmevp(K, M, k)
    assert solve_gmevp(K, M, np.int64(3)).order == 3
