"""C0 finite element spaces and matrix assembly.

Builds the degree-p space with homogeneous Dirichlet elimination and
assembles the mass matrix M, the stiffness matrix K, the gradient-jump
penalty S, and the softened matrix K - eta*S. Each matrix is one batched
product of local matrices over all elements (or faces) and one scatter into
a canonical scipy CSR matrix, following Cuvelier, Japhet & Scarella, "An
efficient way to assemble finite element matrices in vector languages",
BIT 56 (2016). Assembly is deterministic, so repeated builds are
bit-identical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .coefficient import UNIT
from .mesh import Mesh, _tensor_grid
from .polyref import ReferenceBasis, cuboid_rule, simplex_rule


class AssemblyError(RuntimeError):
    """Raised when a coefficient is not finite and positive on an element or
    a face."""


@dataclass
class FeSpace:
    """Degree-p C0 space on a mesh with Dirichlet dofs eliminated.

    element_dofs maps local dofs to the full (pre-elimination) numbering;
    full_to_reduced is -1 on eliminated boundary dofs. node_coords holds
    the interpolation node of every full dof.
    """

    mesh: Mesh
    p: int
    basis: ReferenceBasis
    element_dofs: np.ndarray
    n_full: int
    full_to_reduced: np.ndarray
    reduced_to_full: np.ndarray
    node_coords: np.ndarray

    @property
    def ndof(self):
        return len(self.reduced_to_full)

    @functools.cached_property
    def element_tables(self):
        """(quadrature rule, basis values V and gradients G at its nodes,
        ElementMap) of the element integrals, built on first use; K and M
        share them, and S its ElementMap."""
        return (*self._tables(self.p + 2, 2 * self.p + 2), element_map(self))

    @functools.cached_property
    def error_tables(self):
        """(quadrature rule of degree >= 2p+6, basis values V and gradients
        G at its nodes) of eigenfunction errors, built on first use."""
        return self._tables(self.p + 5, 2 * self.p + 6)

    def _tables(self, points, degree):
        """(rule, V, G): the Gauss rule of `points` points per axis on a
        tensor cell, or of degree `degree` on a triangle, with the basis
        values and gradients at its nodes."""
        mesh = self.mesh
        quad = cuboid_rule(mesh.d, points) if mesh.kind == "tensor" else simplex_rule(degree)
        return (quad, *self.basis.eval(quad.nodes))


def build_space(mesh, p):
    """Build the C0 nodal space of degree p on a mesh."""
    if p < 1:
        raise ValueError("degree must be >= 1")
    if mesh.kind == "tensor":
        return _build_tensor_space(mesh, p)
    return _build_simplicial_space(mesh, p)


def _build_tensor_space(mesh, p):
    basis = ReferenceBasis("cuboid", p, d=mesh.d)
    ref1 = np.unique(basis.nodes[:, 0])
    axis_nodes = [
        np.append(
            (b[:-1, None] + 0.5 * (ref1[:-1] + 1.0) * np.diff(b)[:, None]).ravel(), b[-1]
        )
        for b in mesh.axes
    ]
    # numbered as the mesh's vertices and elements, and the reference basis
    node_coords, grid, element_dofs = _tensor_grid(axis_nodes, p)
    boundary = np.any([(i == 0) | (i == len(a) - 1) for i, a in zip(grid, axis_nodes)], axis=0)
    return _finish_space(mesh, p, basis, element_dofs, len(node_coords), boundary, node_coords)


def _build_simplicial_space(mesh, p):
    basis = ReferenceBasis("simplex", p, d=2)
    nv, ne, el = len(mesh.vertices), mesh.n_elements, mesh.elements
    lattice = [(i, j) for j in range(p + 1) for i in range(p + 1 - j)]
    slot = {ij: m for m, ij in enumerate(lattice)}
    element_dofs = np.empty((ne, basis.ndof), dtype=np.int64)

    # vertex dofs at the corners of the lattice
    corners = np.array([[0, 0], [p, 0], [0, p]])
    for k, ij in enumerate(corners):
        element_dofs[:, slot[tuple(ij)]] = el[:, k]
    # edge dofs: mesh face k holds dofs nv + k (p - 1) + 0 .. p - 2, counted
    # from its lower-numbered vertex; local face (a, b) runs from corner a to b
    for f, (a, b) in enumerate(mesh.local_faces):
        forward = el[:, a] < el[:, b]
        for t in range(1, p):
            ij = (corners[a] * (p - t) + corners[b] * t) // p
            element_dofs[:, slot[tuple(ij)]] = (
                nv + mesh.face_ids[:, f] * (p - 1) + np.where(forward, t - 1, p - 1 - t)
            )
    # interior dofs last, element by element
    interior = [m for m, (i, j) in enumerate(lattice) if i > 0 and j > 0 and i + j < p]
    interior_base = nv + len(mesh.faces) * (p - 1)
    n_full = interior_base + ne * len(interior)
    element_dofs[:, interior] = np.arange(interior_base, n_full).reshape(ne, len(interior))

    # nodes shared by several elements take the coordinates computed in the
    # last of them
    i, j = np.array(lattice, dtype=float).T[:, :, None] / p
    v = mesh.vertices[el][:, :, None, :]
    node_coords = np.empty((n_full, 2))
    node_coords[element_dofs] = v[:, 0] + i * (v[:, 1] - v[:, 0]) + j * (v[:, 2] - v[:, 0])

    boundary = np.zeros(n_full, dtype=bool)
    outer = np.flatnonzero(mesh.on_boundary)
    boundary[mesh.faces[outer]] = True
    boundary[nv + outer[:, None] * (p - 1) + np.arange(p - 1)] = True
    return _finish_space(mesh, p, basis, element_dofs, n_full, boundary, node_coords)


def _finish_space(mesh, p, basis, element_dofs, n_full, boundary, node_coords):
    full_to_reduced = np.full(n_full, -1, dtype=np.int64)
    reduced_to_full = np.flatnonzero(~boundary)
    full_to_reduced[reduced_to_full] = np.arange(len(reduced_to_full))
    return FeSpace(
        mesh=mesh,
        p=p,
        basis=basis,
        element_dofs=element_dofs,
        n_full=n_full,
        full_to_reduced=full_to_reduced,
        reduced_to_full=reduced_to_full,
        node_coords=node_coords,
    )


# -- element geometry ------------------------------------------------------


class ElementMap(NamedTuple):
    """Affine maps x = v + J (xi - xi_v) of all elements of a mesh.

    Each map is anchored at a vertex v (ne, d) of its element, whose
    reference coordinates xi_v (d,) are -1 on tensor cells and 0 on
    simplices. J and Jinv are (ne, d, d) and detj is (ne,). A reference
    gradient g (a row vector) maps to the physical gradient g @ Jinv.

    A vertex anchor keeps the maps exact at that vertex and the reference
    coordinates of face points accurate to rounding in the element size; an
    anchor at the cell centre c would cost eps * |c| / h there.
    """

    v: np.ndarray
    xi_v: np.ndarray
    J: np.ndarray
    Jinv: np.ndarray
    detj: np.ndarray

    def to_phys(self, xi):
        """Images (ne, nq, d) of the reference points xi (nq, d) in every element."""
        return self.v[:, None, :] + (xi - self.xi_v) @ self.J.transpose(0, 2, 1)

    def to_ref(self, x, elements):
        """Reference coordinates of physical points x (..., nq, d) in the
        elements of the same leading shape (...)."""
        dx = x - self.v[elements][..., None, :]
        return self.xi_v + dx @ np.swapaxes(self.Jinv[elements], -1, -2)


def element_map(space):
    """The affine maps of every element of the space's mesh.

    Tensor cells map [-1,1]^d from their lowest corner with J = diag(span/2);
    triangles map the unit simplex from v0 with the edge vectors v1 - v0 and
    v2 - v0 as the columns of J.
    """
    mesh = space.mesh
    verts = mesh.vertices[mesh.elements]
    if mesh.kind == "tensor":
        lo = verts.min(axis=1)
        half = 0.5 * (verts.max(axis=1) - lo)
        J, Jinv = half[:, :, None] * np.eye(mesh.d), (1.0 / half)[:, :, None] * np.eye(mesh.d)
        return ElementMap(lo, -np.ones(mesh.d), J, Jinv, half.prod(axis=1))
    v0 = verts[:, 0]
    B = np.stack([verts[:, 1] - v0, verts[:, 2] - v0], axis=2)
    return ElementMap(v0, np.zeros(2), B, np.linalg.inv(B), np.linalg.det(B))


def _kappa_values(kappa, pts, where="element"):
    """kappa at the physical points (n, nq, d) of every element (or face); it
    must be finite and positive at every point."""
    vals = np.asarray(kappa(pts.reshape(-1, pts.shape[-1])), dtype=float)
    vals = vals.reshape(pts.shape[:2])
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
    if len(bad):
        raise AssemblyError(f"coefficient kappa is not finite on {where} {bad[0]}")
    bad = np.flatnonzero((vals <= 0).any(axis=1))
    if len(bad):
        raise AssemblyError(f"coefficient kappa is not positive on {where} {bad[0]}")
    return vals


def _scatter(space, local, dofs):
    """Sum the local matrices (nb, nl, nl) on the full dofs (nb, nl) into a
    canonical CSR matrix, leaving out eliminated dofs.

    The result is made exactly symmetric by averaging it with its transpose.
    Callers pass `local` as a temporary, so that it is freed before the CSR
    conversion copies the kept entries.
    """
    g = space.full_to_reduced[dofs].astype(np.int32)  # scipy keeps int32 indices as given
    rows = np.broadcast_to(g[:, :, None], local.shape)
    cols = np.broadcast_to(g[:, None, :], local.shape)
    keep = (rows >= 0) & (cols >= 0)
    vals = local[keep]
    del local
    A = sp.csr_matrix((vals, (rows[keep], cols[keep])), shape=(space.ndof, space.ndof))
    A = 0.5 * (A + A.T)
    A.eliminate_zeros()
    return A


def assemble_mass(space):
    """Mass matrix of the L2 inner product."""
    quad, V, _, emap = space.element_tables
    Vw = V * (quad.weights * emap.detj[:, None])[:, :, None]
    return _scatter(space, Vw.transpose(0, 2, 1) @ V, space.element_dofs)


def assemble_stiffness(space, kappa=UNIT):
    """Stiffness matrix of (kappa grad v, grad w)."""
    quad, _, G, emap = space.element_tables
    w = quad.weights * emap.detj[:, None] * _kappa_values(kappa, emap.to_phys(quad.nodes))
    # physical gradients (ne, nloc, nq * d): the local matrix is one product
    # over the (quadrature point, axis) pairs
    ne, nq, nloc, d = len(w), *G.shape
    gp = np.moveaxis(G @ emap.Jinv[:, None], 2, 1).reshape(ne, nloc, nq * d)
    gw = gp * np.repeat(w, d, axis=1)[:, None, :]
    return _scatter(space, gw @ gp.transpose(0, 2, 1), space.element_dofs)


def _face_quadrature(space):
    """Physical quadrature points (nf, nqf, d) and weights (nf, nqf) on every
    interior face."""
    mesh, d = space.mesh, space.mesh.d
    faces = mesh.interfaces
    a, b = mesh.vertices[faces.vertex_ids[:, 0]], mesh.vertices[faces.vertex_ids[:, -1]]
    span = b - a
    rule = cuboid_rule(d - 1, space.p + 1)  # in 1D the point rule of weight 1
    if d == 2:  # a segment, axis-aligned or not
        edges = span[:, None, :]
    else:  # a point or an axis-aligned rectangle: one edge per axis it spans
        tangent = np.argsort(span == 0.0, axis=1, kind="stable")[:, : d - 1]
        edges = np.eye(d)[tangent] * span[:, None, :]
    pts = a[:, None, :] + 0.5 * (rule.nodes + 1.0) @ edges
    return pts, rule.weights * (faces.measure / 2 ** (d - 1))[:, None]


def assemble_penalty(space, kappa=UNIT, face_length=None):
    """Gradient-jump penalty matrix over interior interfaces.

    Each face contributes h_F * int_F kappa [[grad v . n]] [[grad w . n]],
    with kappa evaluated at the face quadrature points (in 1D, at the face
    point x_F); kappa is continuous, so it has one value there. face_length,
    if given, replaces h_F by a constant for every face (some published 1D
    results use the mean element size instead of the local h_F).
    """
    faces = space.mesh.interfaces
    elems = faces.elements
    h_f = faces.h_f[:, None] if face_length is None else float(face_length)
    pts, w = _face_quadrature(space)
    kappa_h = _kappa_values(kappa, pts, "face") * h_f
    jump = _face_jumps(space, pts, elems, faces.normal)
    jw = jump * w[:, :, None] * kappa_h[:, :, None]
    dofs = space.element_dofs[elems].reshape(len(elems), 2 * space.basis.ndof)
    return _scatter(space, jw.transpose(0, 2, 1) @ jump, dofs)


def _face_jumps(space, pts, elems, normals):
    """Jumps [[grad phi . n]] (nf, nqf, 2 nloc) of the basis functions of
    both elements of every face, at the face points pts (nf, nqf, d)."""
    d, nloc = space.mesh.d, space.basis.ndof
    emap = space.element_tables[3]
    # the face points seen from both sides: (nf, 2, nqf, d)
    ref = emap.to_ref(pts[:, None], elems)
    G = space.basis.eval(ref.reshape(-1, d))[1].reshape(ref.shape[:3] + (nloc, d))
    # normal derivative g @ Jinv @ n, with the sign of the second side flipped
    dn = np.einsum("fsde,fe->fsd", emap.Jinv[elems], normals) * np.array([[1.0], [-1.0]])
    return np.einsum("fsqld,fsd->fqsl", G, dn).reshape(pts.shape[:2] + (2 * nloc,))


def soften(K, S, eta):
    """The softened stiffness matrix K - eta * S."""
    if eta < 0:
        raise ValueError("softness parameter must be nonnegative")
    return K - eta * S


def softness_parameters(p, mesh_kind, d=None):
    """The softness constants of degree p on a mesh kind: the coercivity
    limit `eta_max`, the default value `eta_default`, and `gamma`, the
    constant of gamma * lambda_j <= lambda_soft_j at the default. gamma is
    1 - eta_default / eta_max, kept in the closed form that rounds once."""
    if p < 1:
        raise ValueError("degree must be >= 1")
    if mesh_kind == "tensor":
        eta_max, gamma = 1.0 / (2 * p * (p + 1)), 2.0 / (p + 2)
    elif mesh_kind == "simplicial":
        if d not in (2, 3):
            raise ValueError("simplicial meshes require d in {2, 3}")
        eta_max, gamma = 1.0 / (2 * p * (p + d - 1)), (4.0 - d) / (p + 4.0 - d)
    else:
        raise ValueError(f"unknown mesh kind {mesh_kind!r}")
    return {"eta_max": eta_max, "eta_default": 1.0 / (2 * (p + 1) * (p + 2)), "gamma": gamma}
