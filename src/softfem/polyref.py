"""Reference-element polynomials and quadrature.

Gauss-Legendre and Gauss-Lobatto rules, and nodal Lagrange bases on the
cuboid [-1,1]^d (d = 1, 2, 3; the interval is d = 1) and the unit simplex
{x >= 0, sum(x) <= 1}. Every basis is a Legendre-Vandermonde inverse
(`numpy.polynomial.legendre`), which stays well conditioned at high degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre


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


class BasisError(ValueError):
    """A Lagrange basis that is not nodal in double precision."""


# the most points `gauss_legendre_rule` gives
MAX_POINTS = 64
# the highest polynomial degree a run accepts: eigenfunction errors
# integrate a degree-p space with p + 5 points per axis
MAX_DEGREE = MAX_POINTS - 5


def gauss_legendre_rule(n):
    """Gauss-Legendre rule with n points on [-1,1], exact to degree 2n-1."""
    if not 1 <= n <= MAX_POINTS:
        raise ValueError(f"point count must be in [1, {MAX_POINTS}]")
    return QuadratureRule(*legendre.leggauss(n), 2 * n - 1)


def gauss_lobatto_rule(n):
    """Gauss-Lobatto rule with n points on [-1,1], exact to degree 2n-3.

    Endpoints +-1 are always nodes; the interior nodes are the roots of
    L_{n-1}', the eigenvalues of the Jacobi matrix of the weight 1 - x^2
    (Golub-Welsch). Weights are 2 / (n(n-1) L_{n-1}(x)^2).
    """
    if n < 2:
        raise ValueError("Lobatto rule needs at least 2 points")
    interior = np.empty(0)
    if n > 2:
        k = np.arange(1, n - 2)
        beta = np.sqrt(k * (k + 2) / ((2 * k + 1) * (2 * k + 3)))
        interior = np.linalg.eigvalsh(np.diag(beta, 1) + np.diag(beta, -1))
        interior = 0.5 * (interior - interior[::-1])
    nodes = np.concatenate(([-1.0], interior, [1.0]))
    lval = legendre.legval(nodes, np.eye(n)[n - 1])
    return QuadratureRule(nodes, 2.0 / (n * (n - 1) * lval * lval), 2 * n - 3)


def cuboid_rule(d, points_per_axis):
    """Tensor-product Gauss-Legendre rule on [-1,1]^d; d = 0 is the one-point
    rule of weight 1."""
    line, n = gauss_legendre_rule(points_per_axis), points_per_axis
    # index[i, a]: point i on axis a, axis 0 fastest as the local dofs; C order
    index = np.indices((n,) * d)[::-1].reshape(d, n**d).T.copy()
    return QuadratureRule(line.nodes[index], line.weights[index].prod(axis=1), line.degree)


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


# The largest defect a nodal basis may show: |phi_j(x_i) - delta_ij| at its
# nodes, and |sum_j grad phi_j| there relative to the largest |grad phi_j|.
# The simplex basis on the equispaced lattice shows 4.4e-7 at p = 13 and
# 3.3e-6 at p = 14, where its lambda_1 error on the unit square (n = 2) jumps
# from 4.2e-8 to 2.3e-6; the 1D cuboid basis stays below 1.2e-15 up to p = 59.
NODAL_TOL = 1e-6


def _check_nodal(kind, p, V, G):
    """Raise BasisError unless the values V (n, n) and gradients G (n, n, d)
    of a basis at its own nodes pass NODAL_TOL."""
    defect = max(np.abs(V - np.eye(len(V))).max(), np.abs(G.sum(axis=1)).max() / np.abs(G).max())
    if not defect <= NODAL_TOL:
        raise BasisError(
            f"the degree-{p} {kind} basis is not nodal in double precision "
            f"(defect {defect:.1e} > {NODAL_TOL:g})"
        )


def _legendre_tables(x, p):
    """Values and derivatives of L_0 .. L_p at the points x, each (len(x), p+1)."""
    derivatives = legendre.legvander(x, p - 1) @ legendre.legder(np.eye(p + 1))
    return legendre.legvander(x, p), derivatives


class ReferenceBasis:
    """Nodal Lagrange basis on a reference cell.

    kind is 'cuboid' (d = 1, 2 or 3) or 'simplex' (d = 2). Nodes are Gauss-
    Lobatto tensor points on cuboids, and on the simplex the principal
    lattice, whose integer points (i, j) it holds as `lattice`. Evaluators
    are pure; construction raises BasisError unless nodal to NODAL_TOL.
    """

    def __init__(self, kind, p, d=None):
        if p < 1:
            raise ValueError("degree must be >= 1")
        self.kind = kind
        self.p = p
        if kind == "cuboid":
            if d not in (1, 2, 3):
                raise ValueError("cuboid dimension must be 1, 2, or 3")
            self.d = d
            pts1 = gauss_lobatto_rule(p + 1).nodes
            # Legendre coefficients of the 1D Lagrange basis
            self._coeff = np.linalg.inv(legendre.legvander(pts1, p))
            # the 1D basis index of each local dof per axis, axis 0 fastest
            self._digits = np.indices((p + 1,) * self.d)[::-1].reshape(self.d, -1)
            self.nodes = pts1[self._digits.T]
            # a tensor basis is nodal where its 1D factor is
            V, D = (T @ self._coeff for T in _legendre_tables(pts1, p))
            _check_nodal(kind, p, V, D[:, :, None])
        elif kind == "simplex":
            if d != 2:
                raise ValueError("only 2D simplices are supported")
            self.d = 2
            # the principal lattice (i, j), i + j <= p, of the nodes (i, j)/p; the
            # same (a, b) index the products L_a(2x-1) L_b(2y-1), which span P_p
            self.lattice = np.array([(i, j) for j in range(p + 1) for i in range(p + 1 - j)])
            self.lattice.setflags(write=False)
            self.nodes = self.lattice / p
            self._coeff = np.linalg.inv(self._legendre_products(self.nodes)[0])
            _check_nodal(kind, p, *self._eval_simplex(self.nodes))
        else:
            raise ValueError(f"unknown cell kind {kind!r}")
        self.ndof = len(self.nodes)
        self.nodes.setflags(write=False)

    def eval(self, points):
        """Values and gradients of all basis functions at reference points.

        points: array (nq, d). Returns (values (nq, ndof), gradients
        (nq, ndof, d)). Points outside the reference cell (tolerance 1e-12)
        raise ValueError.
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
        vals, ders = [], []
        for ax, digits in enumerate(self._digits):
            V, D = _legendre_tables(pts[:, ax], self.p)
            vals.append((V @ self._coeff)[:, digits])
            ders.append((D @ self._coeff)[:, digits])
        grads = [np.prod(vals[:ax] + [ders[ax]] + vals[ax + 1:], axis=0)
                 for ax in range(self.d)]
        return np.prod(vals, axis=0), np.stack(grads, axis=2)

    def _eval_simplex(self, pts):
        C = self._coeff
        values, dx, dy = self._legendre_products(pts)
        return values @ C, np.stack([dx @ C, dy @ C], axis=2)

    def _legendre_products(self, pts):
        """Values, x- and y-derivatives of L_a(2x-1) L_b(2y-1) at the points."""
        a, b = self.lattice.T
        Vx, Dx = _legendre_tables(2.0 * pts[:, 0] - 1.0, self.p)
        Vy, Dy = _legendre_tables(2.0 * pts[:, 1] - 1.0, self.p)
        return Vx[:, a] * Vy[:, b], 2.0 * Dx[:, a] * Vy[:, b], 2.0 * Vx[:, a] * Dy[:, b]
