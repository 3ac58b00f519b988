"""Dense generalized symmetric eigenvalue solves and conditioning metrics.

Pencils are scipy sparse matrices, as assembled; the solvers densify them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class MassNotSpdError(RuntimeError):
    """The mass matrix is not symmetric positive definite."""


class IndefinitePencilError(RuntimeError):
    """A condition number was requested for a pencil with lambda_min <= 0."""


@dataclass
class Spectrum:
    """Ascending eigenvalues with M-orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def order(self):
        return len(self.values)


@dataclass
class StiffnessMetrics:
    """Condition numbers and stiffness-reduction quantities."""

    sigma: float
    sigma_soft: float
    rho: float
    rho_percent: float
    lambda_min: float
    lambda_max: float
    lambda_min_soft: float
    lambda_max_soft: float


def _fix_signs(vectors):
    """Make the first nonzero component of each eigenvector positive.

    Components of at most 1e-12 times the largest magnitude in their column
    count as zero; a zero column is left as it is.
    """
    # a C-ordered copy: later dot products over a column round by its stride
    out = vectors.copy()
    if out.size:
        cut = 1e-12 * np.maximum(out.max(axis=0), -out.min(axis=0))
        lead = np.argmax((out > cut) | (out < -cut), axis=0)
        np.negative(out, out=out, where=out[lead, np.arange(out.shape[1])] < 0)
    return out


def solve_gmevp(A, M):
    """Full spectrum of A U = lambda M U with M-orthonormal eigenvectors.

    Dense path: Cholesky-reduce with M, solve the symmetric problem, and
    back-transform. Eigenvalues may be negative; coercivity violations are
    observable.
    """
    a = A.toarray()
    m = M.toarray()
    if a.shape != m.shape or a.shape[0] != a.shape[1]:
        raise ValueError("matrix order mismatch")
    try:
        vals, vecs = scipy.linalg.eigh(a, m)
    except np.linalg.LinAlgError as err:
        raise MassNotSpdError("mass matrix is not SPD") from err
    order = np.argsort(vals, kind="stable")
    return Spectrum(values=vals[order], vectors=_fix_signs(vecs[:, order]))


def smallest_eigenvalue(A, M):
    """The smallest pencil eigenvalue only (cheaper than a full solve)."""
    a = A.toarray()
    m = M.toarray()
    try:
        vals = scipy.linalg.eigh(a, m, eigvals_only=True, subset_by_index=(0, 0))
    except np.linalg.LinAlgError as err:
        raise MassNotSpdError("mass matrix is not SPD") from err
    return float(vals[0])


def rayleigh_quotient(A, M, x):
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        raise ValueError("zero vector")
    return float(x @ (A @ x)) / float(x @ (M @ x))


def condition_number(spectrum):
    """lambda_max / lambda_min; raises if the pencil is not positive."""
    lam_min = float(spectrum.values[0])
    lam_max = float(spectrum.values[-1])
    if lam_min <= 0:
        raise IndefinitePencilError(
            f"smallest eigenvalue {lam_min} is not positive"
        )
    return lam_max / lam_min


def stiffness_reduction(fem, soft):
    """Stiffness-reduction metrics of a softFEM spectrum vs a Galerkin one."""
    if fem.order != soft.order:
        raise ValueError("spectra have different orders")
    sigma = condition_number(fem)
    sigma_soft = condition_number(soft)
    rho = sigma / sigma_soft
    return StiffnessMetrics(
        sigma=sigma,
        sigma_soft=sigma_soft,
        rho=rho,
        rho_percent=100.0 * (1.0 - 1.0 / rho),
        lambda_min=float(fem.values[0]),
        lambda_max=float(fem.values[-1]),
        lambda_min_soft=float(soft.values[0]),
        lambda_max_soft=float(soft.values[-1]),
    )


def cluster_eigenvalues(values, rel_tol=1e-8):
    """Group near-degenerate eigenvalues; returns a list of index lists."""
    clusters = []
    current = [0]
    for j in range(1, len(values)):
        if abs(values[j] - values[j - 1]) <= rel_tol * max(
            abs(values[j]), abs(values[j - 1]), 1.0
        ):
            current.append(j)
        else:
            clusters.append(current)
            current = [j]
    clusters.append(current)
    return clusters
