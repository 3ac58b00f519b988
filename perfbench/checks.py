"""Checks on the files one pipeline run writes.

A run passes when
- `summary.json` and every expected spectrum CSV exist and parse;
- every reported mode satisfies gamma_p * lam_fem <= lam_soft <= lam_fem
  (tensor meshes, default eta: gamma_p = 2 / (p + 2)), with the tolerances of
  `check_bounds` in tests/test_acceptance.py;
- relerr_low_* (max relative error of the lowest LOW_MODES eigenvalues against
  the workload's reference) stays under the workload's fixed tolerance;
- on a Kronecker workload, both full spectra equal the sorted sums of 1D
  spectra (see `kronecker_spectra`).
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from workloads import LOW_MODES, exact_values

COLUMNS = (
    "j", "frac", "lambda_ref", "lambda_fem", "lambda_soft",
    "relerr_fem", "relerr_soft", "h1err", "l2err", "jump_ratio",
)
KRONECKER_RTOL = 1e-12


class CheckFailed(Exception):
    pass


def read_spectrum_csv(path):
    """Columns of a spectrum CSV as float arrays; empty fields read as NaN."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != COLUMNS:
        raise CheckFailed(f"{os.path.basename(path)}: unexpected header")
    try:
        data = np.array([[float(x) if x else np.nan for x in r] for r in rows[1:]], dtype=float)
    except ValueError as err:
        raise CheckFailed(f"{os.path.basename(path)}: {err}") from None
    if data.ndim != 2 or data.shape[1] != len(COLUMNS):
        raise CheckFailed(f"{os.path.basename(path)}: malformed rows")
    return {name: data[:, k] for k, name in enumerate(COLUMNS)}


def default_eta(p):
    return 1.0 / (2 * (p + 1) * (p + 2))


def check_bounds(lam_fem, lam_soft, gamma):
    """gamma * lam_fem <= lam_soft <= lam_fem up to eigensolver round-off."""
    lower = np.all(lam_soft >= gamma * lam_fem * (1 - 1e-12))
    upper = np.all(lam_soft <= lam_fem + 1e-12 * lam_fem.max())
    return bool(lower and upper)


def check_outputs(case, out_dir, kronecker=None):
    """Check one run's output directory; returns {'relerr_low_fem', 'relerr_low_soft'}.

    Raises CheckFailed naming the first problem found. `kronecker` holds the
    expected full spectra {'fem', 'soft'} on a Kronecker workload.
    """
    config = case.config
    try:
        with open(os.path.join(out_dir, "summary.json")) as fh:
            by_degree = json.load(fh)["by_degree"]
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise CheckFailed(f"summary.json: {err!r}") from None
    relerr = {"fem": 0.0, "soft": 0.0}
    for p in config["degrees"]:
        name = f"spectrum_p{p}.csv"
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            raise CheckFailed(f"{name}: missing")
        cols = read_spectrum_csv(path)
        fem, soft = cols["lambda_fem"], cols["lambda_soft"]
        ndof = by_degree[str(p)]["n_dofs"]
        modes = min(config.get("modes") or ndof, ndof)
        if len(fem) != modes or not (np.all(np.isfinite(fem)) and np.all(np.isfinite(soft))):
            raise CheckFailed(f"{name}: expected {modes} finite modes")
        gamma = 2.0 / (p + 2)
        if not check_bounds(fem, soft, gamma):
            raise CheckFailed(f"{name}: two-sided bound violated (gamma={gamma:.6g})")
        low = min(LOW_MODES, modes)
        if case.exact_d is not None:
            ref = exact_values(case.exact_d, low, case.kappa)
        else:
            ref = cols["lambda_ref"][:low]
        for key, lam in (("fem", fem), ("soft", soft)):
            err = float(np.max(np.abs(lam[:low] - ref) / ref))
            if not err < case.relerr_tol:  # also catches NaN
                raise CheckFailed(f"{name}: relerr_low_{key}={err:.3g} >= {case.relerr_tol}")
            relerr[key] = max(relerr[key], err)
        if kronecker is not None:
            for key, lam in (("fem", fem), ("soft", soft)):
                ref = kronecker[key]
                dev = float(np.max(np.abs(lam - ref) / np.abs(ref))) if len(ref) == len(lam) else np.inf
                if not dev <= KRONECKER_RTOL:
                    raise CheckFailed(f"{name}: lambda_{key} differs from the Kronecker sum by {dev:.3g}")
    return {"relerr_low_fem": relerr["fem"], "relerr_low_soft": relerr["soft"]}


def kronecker_spectra(n, p, kappa):
    """Full Galerkin and softened spectra of the uniform n^3 cube mesh, as
    sorted sums of 1D spectra.

    On congruent cells with constant kappa, K = sum_a K1 x M1 x M1,
    S = sum_a S1 x M1 x M1 and M = M1 x M1 x M1, so every eigenvalue is a sum
    of three eigenvalues of the 1D pencils (K1, M1) and (K1 - eta S1, M1). The
    1D pencils come from softfem's own 1D path on the same breakpoints and
    kappa.
    """
    from softfem import assembly, gevp, mesh, parse_coefficient

    space = assembly.build_space(mesh.mesh_from_spec({"type": "uniform", "n": n, "d": 1}), p)
    kap = parse_coefficient(repr(float(kappa)))
    K = assembly.assemble_stiffness(space, kap)
    M = assembly.assemble_mass(space)
    S = assembly.assemble_penalty(space, kap)
    out = {}
    for key, A in (("fem", K), ("soft", assembly.soften(K, S, default_eta(p)))):
        mu = gevp.solve_gmevp(A, M).values
        out[key] = np.sort(np.add.outer(np.add.outer(mu, mu), mu).ravel())
    return out
