"""The references a run compares against.

Exact Laplace spectra on the unit interval/square/cube, and high-order FEM
reference spectra, solved by the Galerkin half of every run. The paper's 1D
closed forms, which only the tests read, are in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gevp
from .coefficient import parse_coefficient
from .mesh import mesh_from_spec, refine_spec


@dataclass
class ExactSpectrum:
    """Sorted exact Laplace eigenvalues with index tuples and evaluators."""

    d: int
    values: np.ndarray
    indices: list

    def eigenfunction(self, j):
        """L2-normalized eigenfunction (value, gradient) closures for mode j."""
        ks = self.indices[j]
        scale = math.sqrt(2.0) ** self.d

        def value(points):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            out = np.full(pts.shape[0], scale)
            for ax, k in enumerate(ks):
                out = out * np.sin(k * math.pi * pts[:, ax])
            return out

        def gradient(points):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            grads = np.empty((pts.shape[0], self.d))
            for gx in range(self.d):
                comp = np.full(pts.shape[0], scale)
                for ax, k in enumerate(ks):
                    t = k * math.pi * pts[:, ax]
                    comp = comp * (k * math.pi * np.cos(t) if ax == gx else np.sin(t))
                grads[:, gx] = comp
            return grads

        return value, gradient


def exact_laplace_spectrum(d, count):
    """First `count` Dirichlet Laplace eigenvalues on the unit d-cube."""
    if d not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2, or 3")
    if count < 1:
        raise ValueError("count must be >= 1")
    # pi^2 (k_1^2 + ... + k_d^2) is the d-fold Kronecker sum of the 1D
    # spectrum pi^2 k^2; the squares sum exactly and are scaled once
    squares = gevp.Spectrum(values=np.arange(1.0, count + 1) ** 2, vectors=None)
    sums = gevp._kronecker_spectrum(squares, d, count)
    indices = list(map(tuple, (sums.indices.T + 1).tolist()))
    return ExactSpectrum(d=d, values=sums.values * math.pi**2, indices=indices)


def reference_spectrum(problem, count, degree, refine, richardson=False):
    """High-order FEM reference eigenvalues for a problem without closed form.

    problem: {'kappa': expression string, 'mesh': mesh spec dict}. Solves on
    the `refine`-times refined mesh with the given degree by the Galerkin
    half of every run, `speclab._galerkin` (so on the Kronecker path where
    it holds), for the lowest `count` modes only (all of them, if the space
    has fewer). `richardson` is ignored: no error estimate is computed, and
    the flag stays only for callers that still pass it.
    """
    from .speclab import _galerkin  # here: speclab imports this module
    kappa = parse_coefficient(problem.get("kappa", "1"))
    mesh = mesh_from_spec(refine_spec(problem["mesh"], refine))
    return _galerkin(mesh, degree, kappa, count, vectors=False)[-1].values[:count]
