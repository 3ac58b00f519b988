"""The paper's 1D closed forms, the ground truth the tests check against.

Analytical linear FEM/softFEM eigenvalues on uniform 1D meshes, branch
characteristic polynomials of the discrete 1D spectrum with its stopping
bands, the quartic superconvergence bound, and sharp discrete trace
constants with extremal polynomials, and the nodal interpolant of a function
in a finite element space. No run reads them; the run-time references (exact
Laplace spectra and high-order reference spectra) are in `softfem.oracle`.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from softfem.polyref import ReferenceBasis, gauss_legendre_rule


def closed_form_linear_eigenvalue(N, j, eta):
    """Analytical p=1 eigenvalues on the uniform 1D mesh with N elements.

    Returns {'fem', 'soft'}. The softFEM value uses the numerator
    1 - 3*eta - (1-4*eta) cos(t) - eta cos(2t), which matches the assembled
    pencil K - eta*S (the classical FEM value has numerator 1 - cos t).
    """
    if not 1 <= j <= N - 1:
        raise ValueError("mode index out of range")
    if not 0 <= eta < 1.0 / 6.0:
        raise ValueError("eta must lie in [0, 1/6)")
    h = 1.0 / N
    t = j * math.pi * h
    denom = 2.0 + math.cos(t)
    fem = 6.0 / h**2 * (1.0 - math.cos(t)) / denom
    soft_num = 1.0 - 3.0 * eta - (1.0 - 4.0 * eta) * math.cos(t) - eta * math.cos(2 * t)
    soft = 6.0 / h**2 * soft_num / denom
    return {"fem": fem, "soft": soft}


def linear_eigenvector_pattern(N, j):
    """The shared FEM/softFEM eigenvector pattern sin(k t_j), unnormalized."""
    t = j * math.pi / N
    return np.sin(np.arange(1, N) * t)


def linear_stiffness_reduction_ratio(h):
    """Closed-form p=1 stiffness reduction ratio (5+cos(pi h))/(5-cos(pi h))."""
    return (5.0 + math.cos(math.pi * h)) / (5.0 - math.cos(math.pi * h))


def branch_polynomials(p, zeta):
    """Coefficients (highest power first) of the branch polynomial in
    Lambda = lambda * h^2 for the 1D uniform Galerkin spectrum."""
    if abs(zeta) > 1.0 + 1e-12:
        raise ValueError("zeta must lie in [-1, 1]")
    if p == 1:
        return np.array([2.0 + zeta, -6.0 * (1.0 - zeta)])
    if p == 2:
        return np.array(
            [2.0 * (3.0 - zeta), -16.0 * (13.0 + 2.0 * zeta), 480.0 * (1.0 - zeta)]
        )
    if p == 3:
        return np.array(
            [
                4.0 + zeta,
                -30.0 * (18.0 - zeta),
                360.0 * (32.0 + 3.0 * zeta),
                -25200.0 * (1.0 - zeta),
            ]
        )
    raise ValueError("branch polynomials are tabulated for p in {1, 2, 3}")


def branch_roots(p, zeta):
    """Ascending real roots in Lambda of the branch polynomial."""
    coeffs = branch_polynomials(p, zeta)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def _element_matrices_1d(p, h):
    """Exact stiffness/mass matrices of one degree-p element of length h."""
    quad = gauss_legendre_rule(p + 2)
    V, G = ReferenceBasis("cuboid", p, d=1).eval(quad.nodes[:, None])
    D = G[:, :, 0]
    wv = quad.weights * (h / 2.0)
    wk = quad.weights * (2.0 / h)
    M = (V * wv[:, None]).T @ V
    K = (D * wk[:, None]).T @ D
    return K, M


def stopping_band_values(p, h):
    """Eigenvalues of bubble-only modes for the uniform 1D Galerkin spectrum.

    These are the eigenvalues of the interior-node block of the single-element
    pencil; bubbles in different elements do not overlap, so the values are
    mesh-size dependent only through the 1/h^2 scaling. p=1 has none; p=2 has
    one (equal to 10/h^2); p=3 has two.
    """
    if p == 1:
        return np.array([])
    K, M = _element_matrices_1d(p, h)
    interior = list(range(1, p))
    Kb = K[np.ix_(interior, interior)]
    Mb = M[np.ix_(interior, interior)]
    return np.sort(scipy.linalg.eigh(Kb, Mb, eigvals_only=True))


def full_branch_spectrum(p, N):
    """The complete uniform 1D Galerkin spectrum predicted by the branch
    polynomials plus stopping bands, as a sorted array of eigenvalues."""
    h = 1.0 / N
    lam = []
    for j in range(1, N):
        zeta = math.cos(j * math.pi * h)
        lam.extend((branch_roots(p, zeta) / h**2).tolist())
    lam.extend(stopping_band_values(p, h).tolist())
    return np.sort(np.array(lam))


def superconvergence_bound(j, h):
    """Quartic relative eigenvalue error bound (j*pi*h)^4 / 360 for p=1."""
    if j * h >= 1:
        raise ValueError("mode index out of range for this mesh")
    return (j * math.pi * h) ** 4 / 360.0


def sharp_trace_constant(kind, p, k=0, geometry=None, d=None):
    """Sharp discrete trace constants.

    kind 'interval-k': C1(k,p) = sqrt((p-k+1)(p-k+2)) (pair with a factor
    h^-1/2). kind 'cuboid-grad': sqrt(p(p+1)/h0) with geometry = h0.
    kind 'simplex-grad': sqrt(p(p+d-1)/h0) with geometry = h0. kind
    'cuboid-partial': C_d(k, p, tau) with k a multi-index and geometry the
    list of edge lengths.
    """
    if kind == "interval-k":
        if not 0 <= k <= p:
            raise ValueError("need 0 <= k <= p")
        return math.sqrt((p - k + 1) * (p - k + 2))
    if kind == "cuboid-grad":
        h0 = float(geometry)
        return math.sqrt(p * (p + 1) / h0)
    if kind == "simplex-grad":
        if d is None or d < 2:
            raise ValueError("simplex constant needs d >= 2")
        h0 = float(geometry)
        return math.sqrt(p * (p + d - 1) / h0)
    if kind == "cuboid-partial":
        edges = np.asarray(geometry, dtype=float)
        ks = np.asarray(k, dtype=int)
        if ks.shape != edges.shape:
            raise ValueError("multi-index and edge list must have equal length")
        if np.any(ks < 0) or np.any(ks > p):
            raise ValueError("need 0 <= k_j <= p")
        return math.sqrt(
            float(np.sum((p - ks + 1) * (p - ks + 2) / edges))
        )
    raise ValueError(f"unknown trace constant kind {kind!r}")


def extremal_trace_polynomial(p):
    """A degree-p polynomial on [-1,1] attaining the C1(0,p) trace bound.

    It is L_{p+1}', which vanishes at the interior Gauss-Lobatto nodes of
    the (p+2)-point rule, so its squared boundary-to-volume ratio equals
    (p+1)(p+2)/h with h = 2. Returns its Legendre-series coefficients.
    """
    if p < 1:
        raise ValueError("degree must be >= 1")
    return np.polynomial.legendre.legder(np.eye(p + 2)[p + 1])


def trace_ratio_interval(coeffs, k=0, a=-1.0, b=1.0):
    """h * ||v^(k)||^2_boundary / ||v^(k)||^2_element for a Legendre series."""
    poly = np.polynomial.Legendre(coeffs).deriv(k)
    quad = gauss_legendre_rule(poly.degree() + 2)
    x = a + 0.5 * (quad.nodes + 1.0) * (b - a)
    vol = float(np.sum(quad.weights * (b - a) / 2.0 * poly(x) ** 2))
    bnd = float(poly(a) ** 2 + poly(b) ** 2)
    return (b - a) * bnd / vol


def interpolate(space, f):
    """Reduced coefficient vector of the nodal interpolant of f in space."""
    vals = f(space.node_coords)
    return np.asarray(vals, dtype=float)[space.reduced_to_full]
