"""Interval, tensor-product, and simplicial meshes with interface data.

Meshes are immutable after construction. Interfaces carry the geometric
quantities needed by the gradient-jump penalty: face measure, unit normal
oriented from the lower-numbered element to the higher one, and the face
length scale h_F = min of the adjacent elements' h_tau^0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class InvalidMeshError(ValueError):
    """Raised for malformed mesh input (non-ascending breakpoints, etc.)."""


@dataclass(frozen=True)
class Interface:
    """An interior face shared by exactly two elements."""

    face_id: int
    elements: tuple  # (tau1, tau2), tau1 < tau2
    vertex_ids: tuple  # sorted vertex ids spanning the face
    measure: float
    normal: np.ndarray  # unit, oriented from tau1 to tau2
    h_f: float


class Mesh:
    """Geometric partition of the domain.

    kind is 'tensor' (elements are intervals/cuboids with 2^d vertices in
    lexicographic order, axis 0 fastest) or 'simplicial' (CCW triangles).
    """

    def __init__(self, d, kind, vertices, elements, axes=None):
        self.d = d
        self.kind = kind
        self.vertices = np.asarray(vertices, dtype=float).reshape(len(vertices), d)
        self.elements = np.asarray(elements, dtype=int)
        self.axes = axes  # per-axis breakpoints for tensor meshes
        nv = len(self.vertices)
        expected = 2**d if kind == "tensor" else d + 1
        if self.elements.ndim != 2 or self.elements.shape[1] != expected:
            raise InvalidMeshError(
                f"{kind} elements in {d}D need {expected} vertices each"
            )
        if self.elements.min(initial=0) < 0 or self.elements.max(initial=-1) >= nv:
            raise InvalidMeshError("element references an invalid vertex")
        for elem in self.elements:
            if len(set(elem.tolist())) != len(elem):
                raise InvalidMeshError("repeated vertex in element")
        self._build_geometry()
        self._build_interfaces()
        self._mark_boundary_vertices()
        self.vertices.setflags(write=False)
        self.elements.setflags(write=False)

    @property
    def n_elements(self):
        return len(self.elements)

    # -- geometry ---------------------------------------------------------

    def _build_geometry(self):
        ne = self.n_elements
        self.volumes = np.empty(ne)
        self.surfaces = np.empty(ne)
        self.h = np.empty(ne)
        self.h0 = np.empty(ne)
        for e in range(ne):
            verts = self.vertices[self.elements[e]]
            diffs = verts[:, None, :] - verts[None, :, :]
            self.h[e] = np.sqrt((diffs**2).sum(axis=2)).max()
            if self.kind == "tensor":
                lo, hi = verts.min(axis=0), verts.max(axis=0)
                edges = hi - lo
                if np.any(edges <= 0):
                    raise InvalidMeshError(f"degenerate cuboid element {e}")
                self.volumes[e] = float(np.prod(edges))
                self.surfaces[e] = 2.0 * sum(
                    self.volumes[e] / edges[ax] for ax in range(self.d)
                ) if self.d > 1 else 2.0
                self.h0[e] = float(edges.min())
            else:
                a, b, c = verts
                area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
                if area2 <= 0:
                    raise InvalidMeshError(
                        f"degenerate or clockwise triangle element {e}"
                    )
                self.volumes[e] = 0.5 * area2
                per = (
                    np.linalg.norm(b - a)
                    + np.linalg.norm(c - b)
                    + np.linalg.norm(a - c)
                )
                self.surfaces[e] = per
                self.h0[e] = self.d * self.volumes[e] / per
        for arr in (self.volumes, self.surfaces, self.h, self.h0):
            arr.setflags(write=False)

    def element_faces(self, e):
        """Faces of element e as tuples of vertex ids (unsorted)."""
        elem = self.elements[e]
        if self.kind == "simplicial":
            return [
                (elem[0], elem[1]),
                (elem[1], elem[2]),
                (elem[2], elem[0]),
            ]
        if self.d == 1:
            return [(elem[0],), (elem[1],)]
        faces = []
        for ax in range(self.d):
            for side in (0, 1):
                ids = [
                    elem[m]
                    for m in range(2**self.d)
                    if (m >> ax) & 1 == side
                ]
                faces.append(tuple(ids))
        return faces

    def _face_geometry(self, vertex_ids):
        verts = self.vertices[list(vertex_ids)]
        if self.d == 1:
            return 1.0
        if len(vertex_ids) == 2:
            return float(np.linalg.norm(verts[1] - verts[0]))
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        span = hi - lo
        return float(np.prod(span[span > 1e-14]))

    def _build_interfaces(self):
        by_key = {}
        for e in range(self.n_elements):
            for face in self.element_faces(e):
                key = tuple(sorted(int(v) for v in face))
                by_key.setdefault(key, []).append(e)
        self._face_elements = by_key
        interfaces = []
        centers = np.array(
            [self.vertices[el].mean(axis=0) for el in self.elements]
        )
        for fid, key in enumerate(sorted(k for k, v in by_key.items() if len(v) == 2)):
            e1, e2 = sorted(by_key[key])
            if e1 == e2:
                raise InvalidMeshError("face adjacent to one element twice")
            verts = self.vertices[list(key)]
            if self.d == 1:
                normal = np.array([1.0])
            elif len(key) == 2:
                t = verts[1] - verts[0]
                normal = np.array([t[1], -t[0]]) / np.linalg.norm(t)
            else:
                span = verts.max(axis=0) - verts.min(axis=0)
                ax = int(np.argmin(np.abs(span)))
                normal = np.zeros(self.d)
                normal[ax] = 1.0
            if normal @ (centers[e2] - centers[e1]) < 0:
                normal = -normal
            normal.setflags(write=False)
            interfaces.append(
                Interface(
                    face_id=fid,
                    elements=(e1, e2),
                    vertex_ids=key,
                    measure=self._face_geometry(key),
                    normal=normal,
                    h_f=min(self.h0[e1], self.h0[e2]),
                )
            )
        self.interfaces = tuple(interfaces)

    def _mark_boundary_vertices(self):
        flags = np.zeros(len(self.vertices), dtype=bool)
        for key, elems in self._face_elements.items():
            if len(elems) == 1:
                for v in key:
                    flags[v] = True
        flags.setflags(write=False)
        self.boundary_vertex = flags

    def boundary_faces(self):
        """Vertex-id keys of faces adjacent to exactly one element."""
        return sorted(k for k, v in self._face_elements.items() if len(v) == 1)


def characteristic_lengths(mesh, element_id):
    """Return {'h': diameter, 'h0': small length scale, 'volume', 'surface'}."""
    if not 0 <= element_id < mesh.n_elements:
        raise IndexError("invalid element id")
    return {
        "h": float(mesh.h[element_id]),
        "h0": float(mesh.h0[element_id]),
        "volume": float(mesh.volumes[element_id]),
        "surface": float(mesh.surfaces[element_id]),
    }


def interfaces(mesh):
    """The interior interfaces of a mesh, deterministically ordered."""
    return list(mesh.interfaces)


def build_cartesian_mesh(breakpoints_per_axis):
    """Tensor-product mesh of intervals/cuboids from per-axis breakpoints.

    Elements are numbered lexicographically with axis 0 fastest, matching
    the vertex ordering within each element.
    """
    axes = [np.asarray(b, dtype=float) for b in breakpoints_per_axis]
    d = len(axes)
    if not 1 <= d <= 3:
        raise InvalidMeshError("dimension must be between 1 and 3")
    for b in axes:
        if len(b) < 2 or np.any(np.diff(b) <= 0):
            raise InvalidMeshError("breakpoints must be strictly ascending")
    counts = [len(b) for b in axes]
    # vertex (i0, i1, ...) -> flat id with axis 0 fastest
    strides = [1]
    for c in counts[:-1]:
        strides.append(strides[-1] * c)

    def vid(idx):
        return sum(i * s for i, s in zip(idx, strides))

    vertices = np.empty((int(np.prod(counts)), d))
    for idx in itertools.product(*(range(c) for c in counts)):
        vertices[vid(idx)] = [axes[ax][idx[ax]] for ax in range(d)]

    cells = [c - 1 for c in counts]
    elements = []
    for cell in itertools.product(*(range(c) for c in reversed(cells))):
        cell = tuple(reversed(cell))  # axis 0 fastest
        corner = []
        for m in range(2**d):
            idx = tuple(cell[ax] + ((m >> ax) & 1) for ax in range(d))
            corner.append(vid(idx))
        elements.append(corner)
    return Mesh(d, "tensor", vertices, elements, axes=axes)


def _split_cells(nodes_x, nodes_y, keep):
    """Diagonal-split triangulation of the kept cells of a structured grid."""
    nx, ny = len(nodes_x), len(nodes_y)

    def vid(i, j):
        return i + nx * j

    vertices = [(nodes_x[i], nodes_y[j]) for j in range(ny) for i in range(nx)]
    elements = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            if not keep(i, j):
                continue
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            # (low,low)-(high,high) diagonal, both triangles CCW
            elements.append((v00, v10, v11))
            elements.append((v00, v11, v01))
    vertices = np.array(vertices)
    used = sorted({v for el in elements for v in el})
    remap = {v: k for k, v in enumerate(used)}
    vertices = vertices[used]
    elements = [[remap[v] for v in el] for el in elements]
    return Mesh(2, "simplicial", vertices, elements)


def build_simplicial_mesh(kind, n=None, nodes=None, elements=None):
    """Build a deterministic 2D triangulation.

    kind 'unit-square': n x n cells on (0,1)^2, each split along the
    (low,low)-(high,high) diagonal. kind 'l-shape': the unit square minus
    the upper-right quadrant [1/2,1)x(1/2,1], with n cells per half-axis
    (grid 2n x 2n). kind 'explicit': user-provided nodes/elements.
    """
    if kind == "unit-square":
        if n is None or n < 1:
            raise InvalidMeshError("unit-square mesh needs n >= 1")
        pts = np.linspace(0.0, 1.0, n + 1)
        return _split_cells(pts, pts, lambda i, j: True)
    if kind == "l-shape":
        if n is None or n < 1:
            raise InvalidMeshError("l-shape mesh needs n >= 1")
        pts = np.linspace(0.0, 1.0, 2 * n + 1)
        return _split_cells(pts, pts, lambda i, j: not (i >= n and j >= n))
    if kind == "explicit":
        if nodes is None or elements is None:
            raise InvalidMeshError("explicit mesh needs nodes and elements")
        nodes = np.asarray(nodes, dtype=float)
        fixed = []
        for el in elements:
            if any(not 0 <= v < len(nodes) for v in el):
                raise InvalidMeshError("element references an invalid vertex")
            a, b, c = (nodes[v] for v in el)
            area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if area2 == 0:
                raise InvalidMeshError("zero-area triangle in explicit mesh")
            fixed.append(list(el) if area2 > 0 else [el[0], el[2], el[1]])
        return Mesh(2, "simplicial", nodes, fixed)
    raise InvalidMeshError(f"unknown simplicial mesh kind {kind!r}")


def parse_mesh_text(text):
    """Parse the plain-text simplicial mesh format.

    Format: a line ``nodes <count>`` followed by ``x y`` lines, then
    ``elements <count>`` followed by three 0-based vertex indices per line.
    ``#`` starts a comment.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    it = iter(lines)
    try:
        head = next(it).split()
        if head[0] != "nodes":
            raise InvalidMeshError("expected 'nodes <count>' header")
        n_nodes = int(head[1])
        nodes = [tuple(map(float, next(it).split())) for _ in range(n_nodes)]
        head = next(it).split()
        if head[0] != "elements":
            raise InvalidMeshError("expected 'elements <count>' header")
        n_el = int(head[1])
        elements = [tuple(map(int, next(it).split())) for _ in range(n_el)]
    except StopIteration:
        raise InvalidMeshError("truncated mesh file") from None
    for el in elements:
        if len(el) != 3:
            raise InvalidMeshError("each element line needs three vertex indices")
    for nd in nodes:
        if len(nd) != 2:
            raise InvalidMeshError("each node line needs two coordinates")
    return build_simplicial_mesh("explicit", nodes=nodes, elements=elements)


def load_mesh(path):
    with open(path) as fh:
        return parse_mesh_text(fh.read())


def mesh_from_spec(spec):
    """Build a mesh from a declarative spec dict.

    Supported types: 'cartesian' {breakpoints: [[...], ...]},
    'uniform' {n, d} on the unit cube, 'unit-square' {n} (simplicial),
    'l-shape' {n} (simplicial), 'file' {path}.
    """
    kind = spec.get("type")

    def field(name):
        if name not in spec:
            raise InvalidMeshError(f"mesh spec type {kind!r} needs the field {name!r}")
        return spec[name]

    if kind == "cartesian":
        return build_cartesian_mesh(field("breakpoints"))
    if kind == "uniform":
        n, d = int(field("n")), int(spec.get("d", 1))
        pts = np.linspace(0.0, 1.0, n + 1)
        return build_cartesian_mesh([pts] * d)
    if kind == "unit-square":
        return build_simplicial_mesh("unit-square", n=int(field("n")))
    if kind == "l-shape":
        return build_simplicial_mesh("l-shape", n=int(field("n")))
    if kind == "file":
        return load_mesh(field("path"))
    raise InvalidMeshError(f"unknown mesh spec type {kind!r}")


def refine_spec(spec, factor):
    """A spec for the same domain with each cell split `factor` times."""
    kind = spec.get("type")
    if kind == "cartesian":
        new_axes = []
        for axis in spec["breakpoints"]:
            axis = np.asarray(axis, dtype=float)
            pts = [axis[0]]
            for a, b in zip(axis[:-1], axis[1:]):
                pts.extend(a + (b - a) * np.arange(1, factor + 1) / factor)
            new_axes.append(list(map(float, pts)))
        return {"type": "cartesian", "breakpoints": new_axes}
    if kind == "uniform":
        return {**spec, "n": int(spec["n"]) * factor}
    if kind in ("unit-square", "l-shape"):
        return {**spec, "n": int(spec["n"]) * factor}
    raise InvalidMeshError(f"cannot refine mesh spec type {kind!r}")
