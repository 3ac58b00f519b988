"""Reference-element polynomials and quadrature.

Legendre polynomials, Gauss-Legendre and Gauss-Lobatto rules, and nodal
Lagrange bases on the interval [-1,1], the cuboid [-1,1]^d, and the unit
simplex {x >= 0, sum(x) <= 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NumericError(RuntimeError):
    """Raised when an iterative numeric procedure fails to converge."""


def legendre_eval(n, x):
    """Evaluate the Legendre polynomial L_n and its derivative at x.

    Uses the three-term recurrence. Normalization L_n(1) = 1.
    Accepts scalars or arrays; returns (value, derivative).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.ones_like(x), np.zeros_like(x)
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, n):
        p_next = ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        p_prev, p = p, p_next
    # (1-x^2) L_n' = n (L_{n-1} - x L_n); at x = +-1 use the closed form
    with np.errstate(divide="ignore", invalid="ignore"):
        dp = n * (p_prev - x * p) / (1.0 - x * x)
    endpoint = np.isclose(np.abs(x), 1.0)
    if np.any(endpoint):
        sign = np.where(x > 0, 1.0, (-1.0) ** (n - 1))
        dp = np.where(endpoint, sign * n * (n + 1) / 2.0, dp)
    return p, dp


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes, weights, and polynomial exactness degree of a quadrature rule.

    For the interval, nodes have shape (n,); for cuboids (n, d); for the
    simplex (n, d) in reference coordinates on the unit triangle.
    """

    nodes: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


_MAX_NEWTON_ITERS = 100

# the most points `gauss_legendre_rule` gives
MAX_POINTS = 64
# the highest polynomial degree a run accepts: eigenfunction errors
# integrate a degree-p space with p + 5 points per axis
MAX_DEGREE = MAX_POINTS - 5


def gauss_legendre_rule(n):
    """Gauss-Legendre rule with n points on [-1,1], exact to degree 2n-1.

    Nodes are roots of L_n located by Newton iteration from Chebyshev
    initial guesses; tolerance 1e-15 on the update.
    """
    if not 1 <= n <= MAX_POINTS:
        raise ValueError(f"point count must be in [1, {MAX_POINTS}]")
    if n == 1:
        return QuadratureRule(np.array([0.0]), np.array([2.0]), 1)
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for it in range(_MAX_NEWTON_ITERS):
        p, dp = legendre_eval(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise NumericError("Gauss-Legendre Newton iteration did not converge")
    x = np.sort(x)
    _, dp = legendre_eval(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return QuadratureRule(x, w, 2 * n - 1)


def gauss_lobatto_rule(n):
    """Gauss-Lobatto rule with n points on [-1,1], exact to degree 2n-3.

    Endpoints +-1 are always nodes; the interior nodes are the roots of
    L_{n-1}'. Weights are 2 / (n(n-1) L_{n-1}(x)^2).
    """
    if n < 2:
        raise ValueError("Lobatto rule needs at least 2 points")
    if n == 2:
        return QuadratureRule(np.array([-1.0, 1.0]), np.array([1.0, 1.0]), 1)
    m = n - 2  # interior point count
    # interior roots of L_{n-1}' interlace the Gauss nodes of L_{n-1}
    x = np.cos(np.pi * (np.arange(1, m + 1)) / (n - 1))
    for it in range(_MAX_NEWTON_ITERS):
        p, dp = legendre_eval(n - 1, x)
        # d/dx L'_{n-1} from (1-x^2) L'' = 2x L' - k(k+1) L with k = n-1
        ddp = (2.0 * x * dp - (n - 1) * n * p) / (1.0 - x * x)
        dx = dp / ddp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise NumericError("Gauss-Lobatto Newton iteration did not converge")
    nodes = np.concatenate(([-1.0], np.sort(x), [1.0]))
    lval, _ = legendre_eval(n - 1, nodes)
    w = 2.0 / (n * (n - 1) * lval * lval)
    return QuadratureRule(nodes, w, 2 * n - 3)


def cuboid_rule(d, points_per_axis):
    """Tensor-product Gauss-Legendre rule on [-1,1]^d."""
    line = gauss_legendre_rule(points_per_axis)
    if d == 1:
        return QuadratureRule(line.nodes.reshape(-1, 1), line.weights, line.degree)
    grids = np.meshgrid(*([line.nodes] * d), indexing="ij")
    # axis 0 fastest to match the local dof ordering
    pts = np.stack([g.reshape(-1, order="F") for g in grids], axis=1)
    wgrids = np.meshgrid(*([line.weights] * d), indexing="ij")
    w = np.ones(pts.shape[0])
    for g in wgrids:
        w = w * g.reshape(-1, order="F")
    return QuadratureRule(pts, w, line.degree)


def simplex_rule(degree):
    """Quadrature on the unit triangle exact for total degree <= degree.

    Built by collapsing a tensor Gauss-Legendre rule through the Duffy map
    x = a(1-b), y = b with Jacobian (1-b).
    """
    m = (degree + 3) // 2 + 1
    line = gauss_legendre_rule(m)
    a = 0.5 * (line.nodes + 1.0)
    wa = 0.5 * line.weights
    A, B = np.meshgrid(a, a, indexing="ij")
    WA, WB = np.meshgrid(wa, wa, indexing="ij")
    x = (A * (1.0 - B)).ravel()
    y = B.ravel()
    w = (WA * WB * (1.0 - B)).ravel()
    return QuadratureRule(np.stack([x, y], axis=1), w, degree)


def lobatto_points(p):
    """The p+1 Gauss-Lobatto interpolation points on [-1,1]."""
    return gauss_lobatto_rule(p + 1).nodes


def _lagrange_polys(nodes):
    """1D Lagrange basis polynomials for the given nodes (numpy Polynomial)."""
    polys = []
    for i, xi in enumerate(nodes):
        roots = np.delete(nodes, i)
        c = np.polynomial.polynomial.polyfromroots(roots)
        c = c / np.polynomial.polynomial.polyval(xi, c)
        polys.append(np.polynomial.Polynomial(c))
    return polys


def _simplex_lattice(p):
    """Principal lattice multi-indices (i, j) with i + j <= p on the triangle."""
    return [(i, j) for j in range(p + 1) for i in range(p + 1 - j)]


class ReferenceBasis:
    """Nodal Lagrange basis on a reference cell.

    kind is one of 'interval', 'cuboid', 'simplex'. The interpolation nodes
    are Gauss-Lobatto tensor points on intervals/cuboids and the principal
    lattice on the simplex. Evaluators are pure and reusable.
    """

    def __init__(self, kind, p, d=None):
        if p < 1:
            raise ValueError("degree must be >= 1")
        self.kind = kind
        self.p = p
        if kind == "interval":
            self.d = 1
        elif kind == "cuboid":
            if d not in (1, 2, 3):
                raise ValueError("cuboid dimension must be 1, 2, or 3")
            self.d = d
        elif kind == "simplex":
            if d != 2:
                raise ValueError("only 2D simplices are supported")
            self.d = 2
        else:
            raise ValueError(f"unknown cell kind {kind!r}")

        if kind in ("interval", "cuboid"):
            pts1 = lobatto_points(p)
            self._polys = _lagrange_polys(pts1)
            self._dpolys = [q.deriv() for q in self._polys]
            if self.d == 1:
                self.nodes = pts1.reshape(-1, 1)
            else:
                grids = np.meshgrid(*([pts1] * self.d), indexing="ij")
                self.nodes = np.stack(
                    [g.reshape(-1, order="F") for g in grids], axis=1
                )
            self.ndof = (p + 1) ** self.d
        else:
            lattice = _simplex_lattice(p)
            pts = np.array([(i / p, j / p) for i, j in lattice])
            self.nodes = pts
            self.ndof = len(lattice)
            # monomial (total degree <= p) coefficients of the Lagrange basis
            self._mono = [(a, b) for b in range(p + 1) for a in range(p + 1 - b)]
            V = np.array(
                [[x**a * y**b for a, b in self._mono] for x, y in pts]
            )
            self._coeff = np.linalg.solve(V, np.eye(self.ndof))
        self.nodes.setflags(write=False)

    def eval(self, points):
        """Values and gradients of all basis functions at reference points.

        points: array (nq, d) (or (nq,) for the interval). Returns
        (values (nq, ndof), gradients (nq, ndof, d)). Points outside the
        reference cell (tolerance 1e-12) raise ValueError.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.d:
            raise ValueError("point dimension mismatch")
        self._check_inside(pts)
        if self.kind == "simplex":
            return self._eval_simplex(pts)
        return self._eval_tensor(pts)

    def _check_inside(self, pts):
        tol = 1e-12
        if self.kind == "simplex":
            ok = (pts >= -tol).all() and (pts.sum(axis=1) <= 1.0 + tol).all()
        else:
            ok = (np.abs(pts) <= 1.0 + tol).all()
        if not ok:
            raise ValueError("point outside the reference cell")

    def _eval_tensor(self, pts):
        nq = pts.shape[0]
        p1 = self.p + 1
        vals1 = np.empty((self.d, nq, p1))
        ders1 = np.empty((self.d, nq, p1))
        for ax in range(self.d):
            for i in range(p1):
                vals1[ax, :, i] = self._polys[i](pts[:, ax])
                ders1[ax, :, i] = self._dpolys[i](pts[:, ax])
        values = np.ones((nq, self.ndof))
        grads = np.ones((nq, self.ndof, self.d))
        for m in range(self.ndof):
            idx = m
            comp_val = np.ones(nq)
            comp_der = [np.ones(nq) for _ in range(self.d)]
            for ax in range(self.d):
                i = idx % p1
                idx //= p1
                v = vals1[ax, :, i]
                dv = ders1[ax, :, i]
                comp_val = comp_val * v
                for gx in range(self.d):
                    comp_der[gx] = comp_der[gx] * (dv if gx == ax else v)
            values[:, m] = comp_val
            for gx in range(self.d):
                grads[:, m, gx] = comp_der[gx]
        return values, grads

    def _eval_simplex(self, pts):
        x, y = pts[:, 0], pts[:, 1]
        nmono = len(self._mono)
        mv = np.empty((pts.shape[0], nmono))
        mdx = np.empty_like(mv)
        mdy = np.empty_like(mv)
        for k, (a, b) in enumerate(self._mono):
            mv[:, k] = x**a * y**b
            mdx[:, k] = a * x ** max(a - 1, 0) * y**b if a else 0.0
            mdy[:, k] = b * x**a * y ** max(b - 1, 0) if b else 0.0
        values = mv @ self._coeff
        grads = np.stack([mdx @ self._coeff, mdy @ self._coeff], axis=2)
        return values, grads
