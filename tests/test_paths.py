"""One differential harness for every solver path: `PATHS` maps each path to
a function of (pencil, k), which returns a `gevp.Spectrum` or None where it
declines, and to its bound, c eps lambda_max of the dense solve capped at
`rtol` relative. `PENCILS` lists the cases, each a Galerkin pencil and its
softened pencil at the default eta. `check` runs every check once per
(path, case, k, pencil); a new path is one `PATHS` row, a new pencil one case."""

import functools
import pickle
from collections import namedtuple
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from softfem import gevp, speclab
from softfem.assembly import (assemble_mass, assemble_penalty, assemble_stiffness, build_space,
                              soften, softness_parameters)
from softfem.coefficient import parse_coefficient
from softfem.mesh import Mesh, build_cartesian_mesh, mesh_from_spec, refine_spec

EPS = np.finfo(float).eps
# accepts(case, n, k): where it may not decline (n the pencil order);
# residual: the cap of its vectors' relative residuals, None if it forms
# none; modes: what it returns, 'all', the 'lowest' k or the 'top' one
Path = namedtuple("Path", "solve accepts c rtol residual modes")


# The largest defects over the grid, with one or two OpenBLAS threads on a
# 2-vCPU Xeon, are in the comments; each bound is at least 1.9 times them.
PATHS = {
    # the reference, its second call the same bytes. Residual 3.5e-12; c is
    # its rounding in lambda_j(soft) <= lambda_j(fem): 0.42
    "dense": Path(lambda pencil, k: gevp.solve_gmevp(pencil.A, pencil.M),
                  lambda case, n, k: True, c=2.0, rtol=0.0, residual=1e-10, modes="all"),
    # 2.15 eps lambda_max (2D n=4 p=3, k=7), 8.7e-13 relative; residual 5.9e-13
    "sparse": Path(lambda pencil, k: k and gevp._lowest_modes(pencil.A, pencil.M, k),
                   lambda case, n, k: k is not None and k + 1 <= n // 10,
                   c=4.0, rtol=1e-10, residual=1e-10, modes="lowest"),
    # lambda_max as `largest_eigenvalue` returns it where an inertia count
    # certifies it. 12.3 eps lambda_max (2D n=8 p=3, softened), 2.7e-15 relative
    "largest": Path(lambda pencil, k: (top := gevp._extreme_value(pencil.A, pencil.M))
                    and gevp.Spectrum(np.array([top]), None, top),
                    lambda case, n, k: n >= 20, c=32.0, rtol=1e-12, residual=None, modes="top"),
    # 25.5 eps lambda_max (3D n=3 p=3, softened), 1.3e-13 relative; residual 1.3e-13
    "kronecker": Path(lambda pencil, k: pencil.line and speclab._solve(*pencil.line, k, True,
                                                                       pencil.d),
                      lambda case, n, k: case.kronecker,
                      c=50.0, rtol=1e-12, residual=1e-12, modes="lowest"),
}

# make(): the two pencils; ks: the k asked of the 'lowest' paths; paths:
# those it runs; rtol: the tolerance it was checked to before, if tighter
Case = namedtuple("Case", "name make ks kronecker paths rtol",
                  defaults=((None,), False, tuple(PATHS), 1.0))
# above 600 dofs the dense solve is only the others' reference: a second
# one would take 0.2 to 1.2 s per pencil
LARGE = ("sparse", "largest", "kronecker")


def fe(mesh, p, kappa="1", face_weight="local"):
    """The pencils of degree p on `mesh` (a spec, or a function giving a
    Mesh), with the 1D pencil `line` where `_is_kronecker_sum` holds."""
    m = mesh() if callable(mesh) else mesh_from_spec(mesh)
    kappa = parse_coefficient(kappa)
    h = float(np.mean(m.h0)) if face_weight == "mean" else None
    eta = softness_parameters(p)["eta_default"]

    def pair(space):
        K, M = assemble_stiffness(space, kappa), assemble_mass(space)
        return (K, M), (soften(K, assemble_penalty(space, kappa, face_length=h), eta), M)

    lines = [None, None]
    if speclab._is_kronecker_sum(m, kappa):
        lines = pair(build_space(build_cartesian_mesh(m.axes[:1]), p))
    return [SimpleNamespace(A=A, M=M, line=line, d=m.d)
            for (A, M), line in zip(pair(build_space(m, p)), lines)]


def random_pencils(n, seed):
    """A with eigenvalues in [1, 10] and M = BB' + nI; softened, A - I/2."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = q @ np.diag(rng.uniform(1.0, 10.0, n)) @ q.T
    b = rng.standard_normal((n, n))
    M = sp.csr_matrix(b @ b.T + n * np.eye(n))
    return [SimpleNamespace(A=sp.csr_matrix(A), M=M, line=None) for A in (a, a - np.eye(n) / 2)]


def jittered_square(n):
    """The unit-square triangulation, interior vertices moved up to h/10."""
    base = mesh_from_spec({"type": "unit-square", "n": n})
    v, rng = base.vertices, np.random.default_rng(0)
    v = v + np.all((v > 0) & (v < 1), axis=1)[:, None] * rng.uniform(-0.1 / n, 0.1 / n, v.shape)
    return Mesh(2, "simplicial", v, base.elements)


_rng = np.random.default_rng(7)
# the graded-2d-kappa benchmark mesh and kappa: jittered 10 x 10 cells
GRADED = {"type": "cartesian", "breakpoints": [
    (np.linspace(0.0, 1.0, 11) + np.r_[0.0, _rng.uniform(-0.003, 0.003, 9), 0.0]).tolist()
    for _ in range(2)]}
GRADED_KAPPA = "1 + 0.495*sin(2.003*pi*x)*cos(2.003*pi*y)"
# the symmetries of the square give pairs of equal values; each k of its case splits one
D4_KAPPA = "1 + x*(1-x)*y*(1-y)"
NONUNIFORM = {"type": "cartesian",
              "breakpoints": [[0, 0.1, 0.18, 0.29, 0.41, 0.5, 0.59, 0.66, 0.81, 0.92, 1]]}
PENCILS = [
    Case("random-12", lambda: random_pencils(12, 1)),
    Case("random-20", lambda: random_pencils(20, 4), ks=(None, 1)),
    Case("random-30", lambda: random_pencils(30, 7), ks=(None, 3)),
    Case("1d-uniform-p1", lambda: fe({"type": "uniform", "n": 64}, 1), ks=(None, 5)),
    Case("1d-uniform-p4", lambda: fe({"type": "uniform", "n": 16}, 4), ks=(None, 5)),
    Case("1d-nonuniform-p2-mean", lambda: fe(refine_spec(NONUNIFORM, 4), 2, face_weight="mean"),
         ks=(None, 6)),
    Case("2d-uniform-n8-p1", lambda: fe({"type": "uniform", "n": 8, "d": 2}, 1), ks=(None, 3),
         kronecker=True),
    Case("2d-uniform-n8-p3", lambda: fe({"type": "uniform", "n": 8, "d": 2}, 3), ks=(None, 7),
         kronecker=True),
    *[Case(f"{d}d-uniform-n{n}-p{p}-{w}", functools.partial(
        fe, {"type": "uniform", "n": n, "d": d}, p, "1.7", w), ks=(None, 7), kronecker=True)
      for d, n, p in [(2, 3, 2), (2, 4, 3), (3, 2, 2), (3, 3, 3)] for w in ("local", "mean")],
    Case("jittered-square-n6-p2", lambda: fe(lambda: jittered_square(6), 2), ks=(None, 10)),
    Case("jittered-square-n3-p4", lambda: fe(lambda: jittered_square(3), 4), ks=(None, 10)),
    Case("unit-square-n8-p3", lambda: fe({"type": "unit-square", "n": 8}, 3), ks=(None, 40)),
    Case("l-shape-n6-p3", lambda: fe({"type": "l-shape", "n": 6}, 3), ks=(None, 40), paths=LARGE),
    Case("graded-2d-kappa-p3", lambda: fe(GRADED, 3, GRADED_KAPPA), ks=(None, 40), paths=LARGE),
    Case("graded-2d-kappa-reference", lambda: fe(refine_spec(GRADED, 1), 4, GRADED_KAPPA),
         ks=(None, 40), paths=LARGE),
    Case("d4-kappa-n12-p3", lambda: fe({"type": "uniform", "n": 12, "d": 2}, 3, D4_KAPPA),
         ks=(None, 2, 7, 14, 40), paths=LARGE, rtol=1e-12),
]
SIDES = ("galerkin", "softened")
GRID = [(name, case, k, side) for case in PENCILS for name, path in PATHS.items()
        if name in case.paths for k in (case.ks if path.modes == "lowest" else (None,))
        for side in SIDES]


@functools.lru_cache(maxsize=1)  # the grid runs case by case: hold one case's dense vectors
def pencils(case):
    """The two pencils, each with `dense`, the dense path's first call."""
    pair = case.make()
    for pencil in pair:
        pencil.dense = PATHS["dense"].solve(pencil, None)
    return pair


@functools.lru_cache(maxsize=1)  # the two pencils of a (path, case, k) are adjacent in the grid
def first_calls(path, case, k):
    """The path's first call on each of the case's two pencils."""
    return [path.solve(pencil, k) for pencil in pencils(case)]


def check(path, case, k, side):
    """Every check of a path on one of a case's two pencils at k."""
    pair, spectra = pencils(case), first_calls(path, case, k)
    pencil, got = pair[SIDES.index(side)], spectra[SIDES.index(side)]
    if not path.accepts(case, pair[0].A.shape[0], k):
        assert got is None
        return
    dense, n = pencil.dense, pencil.A.shape[0]
    modes = np.array([n - 1]) if path.modes == "top" else np.arange(n)[:k]
    assert got.order == len(modes)
    want, rtol, top = dense.values[modes], min(path.rtol, case.rtol), dense.lambda_max
    assert np.all(np.abs(got.values - want) <= np.minimum(path.c * EPS * top, rtol * want))
    if got.lambda_max is not None:
        assert abs(got.lambda_max - top) <= min(path.c * EPS, rtol) * top
        assert modes[-1] < n - 1 or got.lambda_max == got.values[-1]
    if path.residual is not None:
        X = np.column_stack([got.vector(j) for j in range(got.order)])
        MX = pencil.M @ X
        assert np.abs(X.T @ MX - np.eye(got.order)).max() <= 1e-12
        residual = np.linalg.norm(pencil.A @ X - MX * got.values, axis=0)
        assert np.all(residual <= path.residual * got.values * np.linalg.norm(MX, axis=0))
        # simple modes, more than 1e-6 relative from both neighbours
        gaps = np.diff(dense.values) / dense.values[1:]
        gaps = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])[modes]
        simple = gaps > 1e-6
        error = np.abs(X[:, simple] - dense.vectors[:, modes[simple]]).max(axis=0, initial=0)
        assert np.all(error <= 1e-11 / gaps[simple])
    # tau across the widest relative gap between dense values within two
    # modes of the returned ones: never inside a pair that k splits
    lo = max(modes[0] - 2, 0)
    window = dense.values[lo:modes[-1] + 3]
    i = lo + np.argmax(np.diff(window) / window[1:])
    tau = 0.5 * (dense.values[i] + dense.values[i + 1])
    below = i + 1 - np.count_nonzero(modes <= i) + np.count_nonzero(got.values < tau)
    assert gevp._inertia(pencil.A - tau * pencil.M)[1] == below
    # a second call; the dense path's first is `dense`
    again = pencil.dense if path is PATHS["dense"] else path.solve(pencil, k)
    assert pickle.dumps(again) == pickle.dumps(got)
    if side == "softened":
        fem = spectra[0]
        assert np.all(got.values <= fem.values + path.c * EPS * pair[0].dense.lambda_max)
        assert got.values[0] > 0


@pytest.mark.parametrize("name,case,k,side", [
    pytest.param(name, case, k, side, id=f"{name}-{case.name}-k{k or 'all'}-{side}")
    for name, case, k, side in GRID])
def test_path_agrees_with_dense(name, case, k, side):
    check(PATHS[name], case, k, side)


def test_the_d4_cuts_split_pairs():  # the last case of the grid: still in the cache
    values = pencils(PENCILS[-1])[0].dense.values
    assert all(values[k] - values[k - 1] <= gevp.CLUSTER_RTOL * values[k] for k in (2, 7, 14, 40))


@pytest.mark.parametrize("wrong", [
    lambda s, pencil: replace(s, values=s.values + 100 * EPS * pencil.dense.lambda_max),
    lambda s, pencil: replace(s, values=s.values[:-1], **{f: getattr(s, f)[:, :-1] for f in (
        "vectors", "indices") if getattr(s, f) is not None}),
], ids=["shifted", "dropped"])
@pytest.mark.parametrize("name", PATHS)
def test_checks_catch_a_wrong_path(name, wrong):
    """A path shifted by 100 eps lambda_max, or with a mode dropped, fails on
    both pencils of the first case and k of the grid that it accepts."""
    path = PATHS[name]
    case, k = next((case, k) for row, case, k, _ in GRID
                   if row == name and path.accepts(case, pencils(case)[0].A.shape[0], k))
    path = path._replace(solve=lambda pencil, k: wrong(PATHS[name].solve(pencil, k), pencil))
    for side in SIDES:
        with pytest.raises(AssertionError):
            check(path, case, k, side)


def l_shape(vertices=lambda v: v, relabel=False):
    """The l-shape n=4 triangulation as explicit triangles, its vertices
    moved by `vertices`, and with `relabel` its vertices and its elements
    renumbered at random."""
    base = mesh_from_spec({"type": "l-shape", "n": 4})
    v, elements = base.vertices, base.elements
    if relabel:
        rng = np.random.default_rng(5)
        new = rng.permutation(len(v))  # the new id of each vertex
        v, elements = v[np.argsort(new)], new[elements][rng.permutation(len(elements))]
    return Mesh(2, "simplicial", vertices(v), elements)


ROTATION = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
# (mesh, kappa, the factor that takes its values to those of the l-shape
# with kappa = 1)
RELATIONS = {
    "rotation-and-translation": (lambda: l_shape(lambda v: v @ ROTATION.T + [0.3, -1.2]), "1", 1.0),
    "relabelling": (lambda: l_shape(relabel=True), "1", 1.0),
    "reflection": (lambda: l_shape(lambda v: v[:, ::-1]), "1", 1.0),
    "dilation": (lambda: l_shape(lambda v: 3.0 * v), "1", 9.0),
    "kappa-scaling": (l_shape, "2.5", 1 / 2.5),
}


@functools.lru_cache(maxsize=1)
def l_shape_spectra():
    return [gevp.solve_gmevp(pencil.A, pencil.M) for pencil in fe(l_shape, 3)]


@pytest.mark.parametrize("relation", RELATIONS)
def test_metamorphic_relation(relation):
    """A rigid motion, a relabelling or a reflection of the mesh leaves both
    pencils' spectra (385 dofs, dense) as they are, a dilation by 3 divides
    them by 9, and kappa = 2.5 multiplies them by 2.5: to 16 eps lambda_max
    of the untransformed pencil."""
    make, kappa, factor = RELATIONS[relation]
    for want, pencil in zip(l_shape_spectra(), fe(make, 3, kappa)):
        got = gevp.solve_gmevp(pencil.A, pencil.M)
        assert got.order == want.order == 385
        assert np.abs(factor * got.values - want.values).max() <= 16 * EPS * want.lambda_max


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tensor_dilation(d):
    """A tensor mesh dilated by 1e-15 multiplies both pencils' spectra by
    1e30, to 16 eps lambda_max as in `test_metamorphic_relation`: face
    measures far below 1 are measures like any other."""
    axes, s = [[0.0, 0.3, 1.0], [0.0, 0.5, 1.0], [0.0, 0.4, 1.0]][:d], 1e-15
    unscaled = fe(lambda: build_cartesian_mesh(axes), 2)
    scaled = fe(lambda: build_cartesian_mesh([np.multiply(s, b) for b in axes]), 2)
    for want, pencil in zip(unscaled, scaled):
        want, got = gevp.solve_gmevp(want.A, want.M), gevp.solve_gmevp(pencil.A, pencil.M)
        assert np.abs(s**2 * got.values - want.values).max() <= 16 * EPS * want.lambda_max
