"""The references a run compares against.

Exact Laplace spectra on the unit interval/square/cube, and high-order FEM
reference spectra, solved by the Galerkin half of every run. The paper's 1D
closed forms, which only the tests read, are in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    # a little fewer than V r^d index tuples in {1, 2, ...}^d have |k| <= r,
    # V the volume of the positive orthant of the unit ball; the added d
    # covers the shortfall at the coordinate planes, and the check below
    # stays the guard
    orthant = {1: 1.0, 2: math.pi / 4, 3: math.pi / 6}[d]
    m = max(2, math.ceil((count / orthant) ** (1.0 / d)) + d)
    while True:
        # every index tuple in {1..m}^d, the last axis fastest
        tuples = np.indices((m,) * d).reshape(d, -1).T + 1
        lam = (tuples * tuples).sum(axis=1) * math.pi**2
        order = np.argsort(lam, kind="stable")
        # valid while the cutoff is below the smallest omitted eigenvalue
        if len(lam) >= count and lam[order[count - 1]] <= (m + 1) ** 2 * math.pi**2:
            values = lam[order][:count]
            indices = list(map(tuple, tuples[order[:count]].tolist()))
            return ExactSpectrum(d=d, values=values, indices=indices)
        m += 2


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
