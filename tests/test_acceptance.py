"""Acceptance suite.

Each test covers one numbered criterion and prints a single
"[criterion N] PASS/FAIL" line (visible with pytest -s or on failure).
"""

import json
import math
import sys

import numpy as np
import pytest

from softfem import oracle, speclab
from softfem.assembly import (
    assemble_mass,
    assemble_penalty,
    assemble_stiffness,
    build_space,
    soften,
    softness_parameters,
)
from softfem.gevp import largest_eigenvalue, solve_gmevp, stiffness_reduction
from softfem.mesh import mesh_from_spec

from oracles import (
    closed_form_linear_eigenvalue,
    extremal_trace_polynomial,
    full_branch_spectrum,
    sharp_trace_constant,
    superconvergence_bound,
    trace_ratio_interval,
)


def report(num, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    print(line)
    # also bypass pytest's capture so the verdict line is always visible
    print(line, file=sys.__stdout__)
    assert ok, f"criterion {num}: {detail}"


def uniform_1d(n):
    return mesh_from_spec({"type": "uniform", "n": n, "d": 1})


# -- shared heavy computations -------------------------------------------


@pytest.fixture(scope="module")
def bundles_1d_200():
    return {p: speclab.solve_problem(uniform_1d(200), p) for p in range(1, 6)}


PRESET_NAMES = [
    "fig1",
    "fig-eta-sweep",
    "fig-jump-ratio",
    "fig-2d",
    "fig-3d",
    "fig-3d-p4",
    "fig-simplicial",
    "fig-lshape",
    "table4",
    "table-nonuniform",
]


@pytest.fixture(scope="module")
def preset_runs(tmp_path_factory):
    runs = {}
    for name in PRESET_NAMES:
        out = tmp_path_factory.mktemp(name.replace("-", "_"))
        runs[name] = (out, speclab.run_experiment(speclab.PRESETS[name], str(out)))
    return runs


def read_spectrum_csv(path):
    rows = path.read_text().strip().split("\n")
    assert rows[0] == speclab.CSV_HEADER
    out = []
    for row in rows[1:]:
        f = row.split(",")
        out.append(
            {
                "j": int(f[0]),
                "lambda_ref": float(f[2]) if f[2] else None,
                "lambda_fem": float(f[3]),
                "lambda_soft": float(f[4]) if f[4] else None,
            }
        )
    return out


# -- criterion 1: golden stencils ----------------------------------------


def test_criterion_1_golden_stencils():
    worst = 0.0
    for n in [2, 5, 16]:
        h = 1.0 / n
        space = build_space(uniform_1d(n), 1)
        K = assemble_stiffness(space).toarray()
        M = assemble_mass(space).toarray()
        S = assemble_penalty(space).toarray()
        size = n - 1
        Kref = np.zeros((size, size))
        Mref = np.zeros((size, size))
        for i in range(size):
            Kref[i, i] = 2.0 / h
            Mref[i, i] = 2.0 * h / 3.0
            if i + 1 < size:
                Kref[i, i + 1] = Kref[i + 1, i] = -1.0 / h
                Mref[i, i + 1] = Mref[i + 1, i] = h / 6.0
        Sref = np.zeros((n + 1, n + 1))
        for i in range(1, n):
            g = np.zeros(n + 1)
            g[i - 1 : i + 2] = np.array([1.0, -2.0, 1.0]) / h
            Sref += h * np.outer(g, g)
        Sref = Sref[1:-1, 1:-1]
        for got, ref in [(K, Kref), (M, Mref), (S, Sref)]:
            scale = np.max(np.abs(ref))
            worst = max(worst, np.max(np.abs(got - ref)) / scale)
    report(1, worst < 1e-13, f"max relative stencil deviation {worst:.2e}")


# -- criterion 2: closed-form equivalence --------------------------------


def test_criterion_2_closed_form_equivalence():
    worst = 0.0
    for n in [2, 4, 8, 16, 32, 64]:
        mesh = uniform_1d(n)
        space = build_space(mesh, 1)
        K = assemble_stiffness(space)
        M = assemble_mass(space)
        S = assemble_penalty(space)
        for eta in [0.0, 1.0 / 12.0]:
            spec = solve_gmevp(soften(K, S, eta), M)
            for j in range(1, n):
                want = closed_form_linear_eigenvalue(n, j, eta)
                want = want["fem"] if eta == 0.0 else want["soft"]
                worst = max(worst, abs(spec.values[j - 1] - want) / want)
    report(2, worst < 1e-10, f"max relative deviation {worst:.2e}")


# -- criterion 3: Table 3 ------------------------------------------------


TABLE3 = {
    1: (9.8698, 4.7991e5, 3.1995e5, 4.8624e4, 3.2417e4, 1.5000, 33.33),
    2: (9.8696, 2.3998e6, 1.2000e6, 2.4315e5, 1.2158e5, 1.9999, 50.00),
    3: (9.8696, 6.8046e6, 2.7255e6, 6.8945e5, 2.7615e5, 2.4967, 59.95),
    4: (9.8696, 1.5209e7, 5.1587e6, 1.5410e6, 5.2269e5, 2.9482, 66.08),
    5: (9.8696, 2.9555e7, 9.1006e6, 2.9946e6, 9.2208e5, 3.2476, 69.21),
}

# TABLE4 and NONUNIFORM, like TABLE3, give sigma_soft as the softened
# maximum over the *Galerkin* minimum, lambda_max_soft / lambda_min, and rho
# and rho% from that ratio; every row satisfies it (nonuniform p=1:
# 809.85 / 9.9653 = 81.267). The program reports the condition number of the
# softened pencil, lambda_max_soft / lambda_min_soft, which is larger where
# the softened minimum lies below the Galerkin one (by 0.84% at p=1 on the
# 10-element nonuniform mesh).
TABLE4 = {
    1: (8.2832, 6.3326e5, 4.2263e5, 7.6451e4, 5.1023e4, 1.4984, 33.26),
    2: (8.2829, 3.1795e6, 1.5936e6, 3.8386e5, 1.9240e5, 1.9951, 49.88),
    3: (8.2829, 9.0280e6, 3.6298e6, 1.0900e6, 4.3823e5, 2.4872, 59.79),
    4: (8.2829, 2.0194e7, 6.8865e6, 2.4380e6, 8.3141e5, 2.9323, 65.90),
    5: (8.2829, 3.9263e7, 1.2129e7, 4.7402e6, 1.4643e6, 3.2371, 69.11),
}

NONUNIFORM = {
    1: (9.9653, 1.2631e3, 8.0985e2, 1.2675e2, 8.1267e1, 1.5597, 35.88),
    2: (9.8698, 7.2767e3, 3.2585e3, 7.3727e2, 3.3014e2, 2.2332, 55.22),
    3: (9.8696, 2.1782e4, 7.6596e3, 2.2070e3, 7.7608e2, 2.8438, 64.84),
    4: (9.8696, 5.0056e4, 1.5948e4, 5.0717e3, 1.6159e3, 3.1387, 68.14),
    5: (9.8696, 9.9119e4, 2.9618e4, 1.0043e4, 3.0009e3, 3.3466, 70.12),
}


def tabulated_row(lambda_min, lambda_max, lambda_max_soft, sigma):
    """A row of TABLE3, TABLE4 or NONUNIFORM, under their sigma_soft =
    lambda_max_soft / lambda_min convention."""
    sigma_soft = lambda_max_soft / lambda_min
    rho = sigma / sigma_soft
    return (
        lambda_min,
        lambda_max,
        lambda_max_soft,
        sigma,
        sigma_soft,
        rho,
        100.0 * (1.0 - 1.0 / rho),
    )


def metric_tuple(bundle):
    fem, soft = bundle.fem.values, bundle.soft.values
    sigma = stiffness_reduction(bundle.fem, bundle.soft)["sigma"]
    return tabulated_row(float(fem[0]), float(fem[-1]), float(soft[-1]), sigma)


def test_criterion_3_table3(bundles_1d_200):
    worst = 0.0
    for p, want in TABLE3.items():
        got = metric_tuple(bundles_1d_200[p])
        for g, w in zip(got, want):
            worst = max(worst, abs(g - w) / abs(w))
    report(3, worst < 5e-4, f"max relative deviation {worst:.2e} (4 significant digits)")


# -- criterion 4: Table 1 ------------------------------------------------


# The p=3 lam1 cells at N=16 and 32 and the p=4 lam1 cell at N=16 are
# rounding noise of the original dense solve. In 60-digit arithmetic (mpmath:
# exact element matrices of the same space, the same S and eta = 1/40 or 1/60,
# the smallest eigenpair refined by Rayleigh quotient iteration) the true
# errors are 1.741e-12 and 6.80e-15 (p=3) and 8.57e-14 (p=4), while the
# coarser p=3 levels reproduce the table (1.159e-7, 4.473e-10).
TABLE1 = {
    1: {
        "n": [8, 16, 32, 64],
        "lam1": [6.54e-5, 4.12e-6, 2.58e-7, 1.61e-8],
        "h1_1": [3.58e-1, 1.78e-1, 8.91e-2, 4.45e-2],
        "l2_1": [5.85e-3, 1.44e-3, 3.60e-4, 8.98e-5],
        "lam6": [2.10e-2, 4.80e-3, 3.27e-4, 2.08e-5],
        "h1_6": [1.40e1, 6.63e0, 3.23e0, 1.61e0],
        "l2_6": [3.56e-1, 6.06e-2, 1.35e-2, 3.27e-3],
        "rates": [4.00, 1.00, 2.01, 3.38, 1.04, 2.25],
    },
    2: {
        "n": [4, 8, 16, 32, 64],
        "lam1": [4.38e-4, 3.15e-5, 2.04e-6, 1.29e-7, 8.06e-9],
        "h1_1": [7.57e-2, 1.84e-2, 4.53e-3, 1.13e-3, 2.82e-4],
        "l2_1": [2.54e-3, 3.40e-4, 4.33e-5, 5.43e-6, 6.80e-7],
        "lam6": [3.08e-2, 1.11e-2, 1.80e-3, 1.50e-4, 1.02e-5],
        "h1_6": [1.37e1, 3.95e0, 1.04e0, 2.52e-1, 6.15e-2],
        "l2_6": [2.82e-1, 4.47e-2, 7.78e-3, 1.11e-3, 1.45e-4],
        "rates": [3.94, 2.02, 2.97, 2.93, 1.96, 2.72],
    },
    3: {
        "n": [4, 8, 16, 32],
        "lam1": [1.16e-7, 4.47e-10, 2.08e-12, 4.04e-13],
        "h1_1": [5.82e-3, 7.19e-4, 8.96e-5, 1.12e-5],
        "l2_1": [8.08e-5, 4.80e-6, 2.96e-7, 1.85e-8],
        "lam6": [4.32e-2, 7.64e-4, 3.02e-6, 1.15e-8],
        "h1_6": [5.24e0, 9.12e-1, 1.20e-1, 1.46e-2],
        "l2_6": [1.04e-1, 9.29e-3, 4.41e-4, 2.48e-5],
        "rates": [6.21, 3.01, 4.03, 7.35, 2.84, 4.05],
    },
    4: {
        "n": [4, 8, 16],
        "lam1": [4.55e-9, 2.09e-11, 1.25e-13],
        "h1_1": [2.71e-4, 1.55e-5, 9.38e-7],
        "l2_1": [4.54e-6, 1.47e-7, 4.65e-9],
        "lam6": [2.29e-4, 6.70e-6, 9.01e-8],
        "h1_6": [2.12e0, 1.38e-1, 8.72e-3],
        "l2_6": [2.39e-2, 7.88e-4, 3.24e-5],
        "rates": [7.58, 4.09, 4.97, 5.65, 3.96, 4.77],
    },
}


# An eigenvalue cell is compared only where both the table and this run lie
# above RESOLVED_MULTIPLE times the rounding bound eps * lam_max / lam_mode of
# the solved pencil; a dense symmetric eigensolver has absolute eigenvalue
# error of about eps * lam_max (Parlett 1998), and below a small multiple of
# that the digits move with the LAPACK driver and the dof order.
RESOLVED_MULTIPLE = 10.0

TABLE1_QUANTITIES = ("lam1", "h1_1", "l2_1", "lam6", "h1_6", "l2_6")


def test_criterion_4_table1():
    exact = oracle.exact_laplace_spectrum(1, 8)
    eps = np.finfo(float).eps
    failures = []
    for p, block in TABLE1.items():
        levels = len(block["n"])
        ours = {q: [] for q in TABLE1_QUANTITIES}
        # eigenfunction errors lie far above any rounding bound
        floors = {q: np.zeros(levels) for q in TABLE1_QUANTITIES}
        for lvl, n in enumerate(block["n"]):
            bundle = speclab.solve_problem(uniform_1d(n), p)
            soft = bundle.soft.values
            for mode, tag in [(1, "1"), (6, "6")]:
                lam = exact.values[mode - 1]
                ours[f"lam{mode}"].append(abs(soft[mode - 1] - lam) / lam)
                floors[f"lam{mode}"][lvl] = (
                    RESOLVED_MULTIPLE * eps * soft[-1] / soft[mode - 1]
                )
                errs = speclab.eigenfunction_errors(bundle, exact, mode - 1)
                ours[f"h1_{tag}"].append(errs["h1"])
                ours[f"l2_{tag}"].append(errs["l2"])
        hs = np.array([1.0 / n for n in block["n"]])
        for qi, q in enumerate(TABLE1_QUANTITIES):
            got = np.array(ours[q])
            want = np.array(block[q])
            floor = floors[q]
            resolved = (got > floor) & (want > floor)
            for lvl in range(levels):
                cell = (
                    f"p={p} {q} N={block['n'][lvl]}: "
                    f"got {got[lvl]:.3e} want {want[lvl]:.3e}"
                )
                if resolved[lvl]:
                    if abs(got[lvl] - want[lvl]) / want[lvl] > 0.02:
                        failures.append(cell)
                elif got[lvl] > floor[lvl] or want[lvl] > floor[lvl]:
                    failures.append(f"{cell}, only one above {floor[lvl]:.1e}")
            if resolved.sum() < 2:
                failures.append(f"p={p} {q}: fewer than two resolved levels")
                continue
            rate = speclab.convergence_rates(
                hs[resolved], got[resolved], floor=0.0
            )["rate"]
            # the rates column is the least-squares fit through the frozen
            # cells of all levels; with levels dropped, refit them
            want_rate = block["rates"][qi]
            if not resolved.all():
                want_rate = speclab.convergence_rates(
                    hs[resolved], want[resolved], floor=0.0
                )["rate"]
            if abs(rate - want_rate) > 0.2:
                failures.append(f"p={p} {q} rate: got {rate:.2f} want {want_rate:.2f}")
    report(4, not failures, "; ".join(failures) if failures else "all cells and rates")


# -- criterion 5: superconvergence ---------------------------------------


def test_criterion_5_superconvergence():
    violations = 0
    for n in [8, 16, 32, 64]:
        h = 1.0 / n
        for j in range(1, n):
            vals = closed_form_linear_eigenvalue(n, j, 1.0 / 12.0)
            lam = (j * math.pi) ** 2
            rel = abs(vals["soft"] - lam) / lam
            if not rel < superconvergence_bound(j, h):
                violations += 1
        # and the assembled spectrum agrees with the closed form (criterion 2),
        # so checking the closed form checks the assembled softened pencil too
        bundle = speclab.solve_problem(uniform_1d(n), 1, eta_policy=1.0 / 12.0)
        for j in range(1, n):
            lam = (j * math.pi) ** 2
            rel = abs(bundle.soft.values[j - 1] - lam) / lam
            if not rel < superconvergence_bound(j, h):
                violations += 1
    report(5, violations == 0, f"{violations} violations")


# -- criterion 6: coercivity sharpness -----------------------------------


def test_criterion_6_coercivity_sharpness():
    details = []
    ok = True
    mesh = uniform_1d(1000)
    for p in [1, 2, 3]:
        space = build_space(mesh, p)
        K = assemble_stiffness(space)
        M = assemble_mass(space)
        S = assemble_penalty(space)
        eta_max = softness_parameters(p)["eta_max"]
        lo = solve_gmevp(soften(K, S, 0.95 * eta_max), M, 1).values[0]
        hi = -largest_eigenvalue(-soften(K, S, 1.05 * eta_max), M)
        details.append(f"p={p}: margin(0.95)={lo:.3e} margin(1.05)={hi:.3e}")
        ok = ok and lo > 0 and hi <= 0
    report(6, ok, "; ".join(details))


# -- criterion 7: two-sided bounds ---------------------------------------


def check_bounds(lam_fem, lam_soft, gamma):
    lam_fem = np.asarray(lam_fem)
    lam_soft = np.asarray(lam_soft)
    lower = np.all(lam_soft >= gamma * lam_fem * (1 - 1e-12))
    # The upper bound is strict in exact arithmetic (up to jump-free modes,
    # where equality holds); allow eigensolver round-off at the lam_max scale.
    upper = np.all(lam_soft <= lam_fem + 1e-12 * lam_fem.max())
    return lower and upper


def test_criterion_7_two_sided_bounds(bundles_1d_200, preset_runs):
    checks = []
    for p in range(1, 6):
        gamma = softness_parameters(p)["gamma"]
        b200 = bundles_1d_200[p]
        checks.append(check_bounds(b200.fem.values, b200.soft.values, gamma))
        b50 = speclab.solve_problem(uniform_1d(50), p)
        checks.append(check_bounds(b50.fem.values, b50.soft.values, gamma))
    for name in ["fig-2d", "fig-3d", "fig-simplicial", "fig-lshape"]:
        out, summary = preset_runs[name]
        for p_str in summary["by_degree"]:
            p = int(p_str)
            gamma = softness_parameters(p)["gamma"]
            rows = read_spectrum_csv(out / f"spectrum_p{p}.csv")
            fem = [r["lambda_fem"] for r in rows]
            soft = [r["lambda_soft"] for r in rows]
            checks.append(check_bounds(fem, soft, gamma))
    ok = all(checks)
    report(7, ok, f"{sum(checks)}/{len(checks)} mesh/degree combinations within bounds")


def test_galerkin_values_lie_above_every_preset_reference(bundles_1d_200, preset_runs):
    """The min-max lower bound lambda_fem >= lambda_ref, to 8 eps
    lambda_max_fem of the degree, on every preset CSV with a reference: the
    exact values, or those of a high-order space that contains the
    problem's. The table3 pencils are those of `bundles_1d_200`."""
    eps = np.finfo(float).eps
    exact = oracle.exact_laplace_spectrum(1, 1000).values
    margins = {f"table3 p={p}": (b.fem.values, exact[: b.fem.order], b.fem.lambda_max)
               for p, b in bundles_1d_200.items()}
    for name, (out, summary) in preset_runs.items():
        for path in sorted(out.glob("*.csv")):
            rows = read_spectrum_csv(path)
            if rows[0]["lambda_ref"] is None:
                continue
            # spectrum.csv repeats the CSV of a run's only degree
            p = path.stem.split("_")[1][1:] if "_" in path.stem else str(summary["degrees"][0])
            margins[f"{name} {path.name}"] = (
                [r["lambda_fem"] for r in rows], [r["lambda_ref"] for r in rows],
                summary["by_degree"][p]["lambda_max_fem"],
            )
    assert len(margins) == 40
    worst = {key: float(np.max(np.subtract(ref, fem))) / (eps * top)
             for key, (fem, ref, top) in margins.items()}
    key = max(worst, key=worst.get)
    assert worst[key] <= 8.0, f"{key}: lambda_ref - lambda_fem = {worst[key]:.2f} eps lambda_max"


# -- criterion 8: trace constants ----------------------------------------


def sample_interval(rng, p, k, samples=1000):
    bound = (p - k + 1) * (p - k + 2)
    worst = -np.inf
    for _ in range(samples):
        ratio = trace_ratio_interval(rng.standard_normal(p + 1), k=k)
        worst = max(worst, ratio - bound)
    return worst / bound


def grad_boundary_ratio_cuboid(rng, p, edges, samples):
    """||grad v . n||^2_boundary / ||grad v||^2 on a box with given edges."""
    from softfem.polyref import ReferenceBasis, cuboid_rule, gauss_legendre_rule

    basis = ReferenceBasis("cuboid", p, 2)
    quad = cuboid_rule(2, p + 3)
    line = gauss_legendre_rule(p + 3)
    a, b = edges
    sx, sy = 2.0 / a, 2.0 / b
    _, G = basis.eval(quad.nodes)
    worst = -np.inf
    sides = []
    for sgn in (-1.0, 1.0):
        pts = np.column_stack([np.full(len(line.nodes), sgn), line.nodes])
        _, Gb = basis.eval(pts)
        sides.append((Gb[:, :, 0], sx, b / 2.0))
        pts = np.column_stack([line.nodes, np.full(len(line.nodes), sgn)])
        _, Gb = basis.eval(pts)
        sides.append((Gb[:, :, 1], sy, a / 2.0))
    for _ in range(samples):
        c = rng.standard_normal(basis.ndof)
        gx = G[:, :, 0] @ c * sx
        gy = G[:, :, 1] @ c * sy
        vol = np.sum(quad.weights * (a * b / 4.0) * (gx**2 + gy**2))
        bnd = 0.0
        for Gside, scale, meas in sides:
            g = Gside @ c * scale
            bnd += np.sum(line.weights * meas * g**2)
        worst = max(worst, bnd / vol)
    return worst


def boundary_value_ratio_cuboid(rng, p, edges, samples):
    from softfem.polyref import ReferenceBasis, cuboid_rule, gauss_legendre_rule

    basis = ReferenceBasis("cuboid", p, 2)
    quad = cuboid_rule(2, p + 3)
    line = gauss_legendre_rule(p + 3)
    a, b = edges
    V, _ = basis.eval(quad.nodes)
    sides = []
    for sgn in (-1.0, 1.0):
        pts = np.column_stack([np.full(len(line.nodes), sgn), line.nodes])
        sides.append((basis.eval(pts)[0], b / 2.0))
        pts = np.column_stack([line.nodes, np.full(len(line.nodes), sgn)])
        sides.append((basis.eval(pts)[0], a / 2.0))
    worst = -np.inf
    for _ in range(samples):
        c = rng.standard_normal(basis.ndof)
        vol = np.sum(quad.weights * (a * b / 4.0) * (V @ c) ** 2)
        bnd = sum(np.sum(line.weights * meas * (Vs @ c) ** 2) for Vs, meas in sides)
        worst = max(worst, bnd / vol)
    return worst


def grad_boundary_ratio_simplex(rng, p, verts, samples):
    from softfem.polyref import ReferenceBasis, gauss_legendre_rule, simplex_rule

    basis = ReferenceBasis("simplex", p, 2)
    quad = simplex_rule(2 * p + 2)
    line = gauss_legendre_rule(p + 3)
    v0, v1, v2 = [np.asarray(v, float) for v in verts]
    J = np.column_stack([v1 - v0, v2 - v0])
    Jinv = np.linalg.inv(J)
    detj = abs(np.linalg.det(J))
    _, G = basis.eval(quad.nodes)
    refedges = [
        (np.array([0.0, 0.0]), np.array([1.0, 0.0])),
        (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        (np.array([0.0, 1.0]), np.array([0.0, 0.0])),
    ]
    physedges = [(v0, v1), (v1, v2), (v2, v0)]
    t = (line.nodes + 1.0) / 2.0
    edge_data = []
    for (ra, rb), (pa, pb) in zip(refedges, physedges):
        refpts = ra[None, :] + t[:, None] * (rb - ra)[None, :]
        _, Gb = basis.eval(refpts)
        tang = pb - pa
        length = float(np.hypot(tang[0], tang[1]))
        nrm = np.array([tang[1], -tang[0]]) / length
        edge_data.append((Gb, nrm, length))
    worst = -np.inf
    for _ in range(samples):
        c = rng.standard_normal(basis.ndof)
        g = np.einsum("qld,l->qd", G, c) @ Jinv
        vol = np.sum(quad.weights * detj * (g**2).sum(axis=1))
        bnd = 0.0
        for Gb, nrm, length in edge_data:
            gb = np.einsum("qld,l->qd", Gb, c) @ Jinv
            bnd += np.sum(line.weights * (length / 2.0) * (gb @ nrm) ** 2)
        worst = max(worst, bnd / vol)
    return worst


def test_criterion_8_trace_constants():
    rng = np.random.default_rng(2024)
    slack_floor = -1e-10
    ok = True
    details = []

    # interval constants C1(k, p)^2, never exceeded
    worst_slack = -np.inf
    for p in range(1, 5):
        for k in range(0, p + 1):
            worst_slack = max(worst_slack, sample_interval(rng, p, k))
    ok = ok and worst_slack <= 1e-10
    details.append(f"interval max slack {worst_slack:.1e}")

    # cuboid gradient constant p(p+1)/h0 and full boundary-value constant
    edges = (0.7, 0.4)
    for p in [1, 2, 3]:
        ratio = grad_boundary_ratio_cuboid(rng, p, edges, 1000)
        bound = p * (p + 1) / min(edges)
        ok = ok and (ratio - bound) / bound <= 1e-10
        c2 = sharp_trace_constant(
            "cuboid-partial", p, k=[0, 0], geometry=list(edges)
        ) ** 2
        ratio_v = boundary_value_ratio_cuboid(rng, p, edges, 1000)
        ok = ok and (ratio_v - c2) / c2 <= 1e-10

    # simplex gradient constant p(p+d-1)/h0
    verts = [(0.0, 0.0), (0.9, 0.1), (0.3, 0.8)]
    v = [np.asarray(x) for x in verts]
    area = 0.5 * abs(
        (v[1][0] - v[0][0]) * (v[2][1] - v[0][1])
        - (v[1][1] - v[0][1]) * (v[2][0] - v[0][0])
    )
    per = sum(np.linalg.norm(v[i] - v[(i + 1) % 3]) for i in range(3))
    h0 = 2.0 * area / per
    for p in [1, 2, 3]:
        ratio = grad_boundary_ratio_simplex(rng, p, verts, 1000)
        bound = p * (p + 1) / h0
        ok = ok and (ratio - bound) / bound <= 1e-10

    # extremal constructions attain their constants
    worst_attain = 0.0
    for p in range(1, 6):
        want = (p + 1) * (p + 2)
        got = trace_ratio_interval(extremal_trace_polynomial(p))
        worst_attain = max(worst_attain, abs(got - want) / want)
    # cuboid gradient: a polynomial varying along the smallest edge whose
    # derivative is the degree p-1 extremal attains p(p+1)/h0 exactly
    for p in [2, 3, 4]:
        got = trace_ratio_interval(extremal_trace_polynomial(p - 1))
        want = p * (p + 1)
        worst_attain = max(worst_attain, abs(got / min(edges) - want / min(edges)) / (want / min(edges)))
    details.append(f"extremal attainment deviation {worst_attain:.1e}")
    ok = ok and worst_attain < 1e-9
    report(8, ok, "; ".join(details))


# -- criterion 9: branch polynomials -------------------------------------


def test_criterion_9_branch_polynomials():
    worst = 0.0
    n = 40
    mesh = uniform_1d(n)
    for p in [1, 2, 3]:
        space = build_space(mesh, p)
        fem = solve_gmevp(assemble_stiffness(space), assemble_mass(space))
        pred = np.sort(full_branch_spectrum(p, n))
        assert len(pred) == fem.order
        worst = max(worst, float(np.max(np.abs(pred - fem.values) / fem.values)))
    report(9, worst < 1e-9, f"max multiset deviation {worst:.2e}")


# -- criterion 10: qualitative figure properties -------------------------


def table_from_summary(summary):
    return {
        int(p_str): tabulated_row(
            b["lambda_min_fem"], b["lambda_max_fem"], b["lambda_max_soft"], b["sigma"]
        )
        for p_str, b in summary["by_degree"].items()
    }


def test_criterion_10_figures_and_tables(bundles_1d_200, preset_runs):
    ok = True
    details = []

    # softFEM top-decile improvement on every preset with a reference
    for name in PRESET_NAMES:
        _, summary = preset_runs[name]
        for p_str, block in summary["by_degree"].items():
            fem = block.get("top_decile_relerr_fem")
            soft = block.get("top_decile_relerr_soft")
            if fem is None or soft is None:
                ok = False
                details.append(f"{name} p={p_str}: missing error metrics")
            elif not soft < fem:
                ok = False
                details.append(f"{name} p={p_str}: soft {soft:.3e} !< fem {fem:.3e}")
    # same property for the table3 configuration, against the exact spectrum
    exact = oracle.exact_laplace_spectrum(1, 1000).values
    for p, bundle in bundles_1d_200.items():
        n = bundle.fem.order
        ref = exact[:n]
        fem_err = np.abs(bundle.fem.values - ref) / ref
        soft_err = np.abs(bundle.soft.values - ref) / ref
        k = max(1, n // 10)
        if not np.mean(np.sort(soft_err)[-k:]) < np.mean(np.sort(fem_err)[-k:]):
            ok = False
            details.append(f"table3 p={p}: no top-decile improvement")

    # digit reproduction of the variable-coefficient and nonuniform tables
    for name, table in [("table4", TABLE4), ("table-nonuniform", NONUNIFORM)]:
        summary = preset_runs[name][1]
        # the reported metrics are those of the softened pencil itself
        for p_str, b in summary["by_degree"].items():
            if not (
                b["sigma_soft"] == b["lambda_max_soft"] / b["lambda_min_soft"]
                and b["rho"] == b["sigma"] / b["sigma_soft"]
                and b["rho_percent"] == 100.0 * (1.0 - 1.0 / b["rho"])
            ):
                ok = False
                details.append(f"{name} p={p_str}: inconsistent sigma_soft/rho")
        got = table_from_summary(summary)
        worst = 0.0
        for p, want in table.items():
            for g, w in zip(got[p], want):
                worst = max(worst, abs(g - w) / abs(w))
        details.append(f"{name} max deviation {worst:.2e}")
        ok = ok and worst < 5e-3

    report(10, ok, "; ".join(details))
