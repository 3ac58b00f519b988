"""Interval, tensor-product, and simplicial meshes with their face tables.

Meshes are immutable after construction. Their topology is stored as arrays,
built on one code path for every cell kind: the faces of all elements, each
element's faces in that list, which faces lie on the boundary, and a table of
the interior faces with the geometric quantities needed by the gradient-jump
penalty: face measure, unit normal oriented from the lower-numbered element
to the higher one, and the face length scale h_F = min of the adjacent
elements' h_tau^0.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import NamedTuple

import numpy as np


class InvalidMeshError(ValueError):
    """Raised for malformed mesh input (non-ascending breakpoints, etc.)."""


class Mesh:
    """Geometric partition of the domain.

    kind is 'tensor' (elements are intervals/cuboids with 2^d vertices in
    lexicographic order, axis 0 fastest) or 'simplicial' (CCW triangles).

    Topology, as read-only arrays:
      faces       (nF, k) sorted vertex ids of every face, lexicographic;
      face_ids    (ne, nfl) the row in `faces` of each face of each element,
                  in the order of `local_faces`;
      on_boundary (nF,) whether a face belongs to one element only;
      interfaces  record array with one row per interior face, in the order
                  of `faces`, with fields `elements` (e1 < e2), `vertex_ids`,
                  `measure`, `normal` (unit, pointing from e1 to e2) and `h_f`.

    Construction checks that there are elements, each a tuple of 2^d (tensor)
    or d + 1 (simplicial) vertex ids, that the ids are integers in range,
    distinct in each element and cover every vertex, and that the
    coordinates are finite, and turns clockwise triangles counterclockwise.
    A simplicial mesh builds its topology then too, which checks it. A
    tensor mesh builds it on first read: its breakpoints, checked by
    `build_cartesian_mesh`, always give well-formed faces, and a run on the
    Kronecker path or a reference solve of K and M reads none of it.
    """

    def __init__(self, d, kind, vertices, elements, axes=None):
        self.d = d
        self.kind = kind
        self.vertices = np.asarray(vertices, dtype=float).reshape(len(vertices), d)
        expected = 2**d if kind == "tensor" else d + 1
        try:
            ids = np.asarray(elements)
        except ValueError:  # a ragged list
            ids = None
        if ids is not None and not ids.size:
            raise InvalidMeshError("mesh has no element")
        if ids is None or ids.ndim != 2 or ids.shape[1] != expected:
            bad = next((i for i, el in enumerate(elements) if np.shape(el) != (expected,)), 0)
            tuple_name = "triple" if expected == 3 else f"{expected}-tuple"
            raise InvalidMeshError(f"element {bad} {elements[bad]!r} is not a vertex {tuple_name}")
        if ids.dtype.kind not in "iuf":
            raise InvalidMeshError("vertex ids must be integers")
        with np.errstate(invalid="ignore"):  # nan and inf ids fail the test below
            self.elements = ids.astype(int)  # a copy: triangles may be turned
        self.axes = axes  # per-axis breakpoints for tensor meshes
        nv = len(self.vertices)
        bad = np.flatnonzero((self.elements != ids).any(axis=1))
        if len(bad):
            raise InvalidMeshError(f"element {bad[0]} has a vertex id that is not an integer")
        bad = np.flatnonzero(((self.elements < 0) | (self.elements >= nv)).any(axis=1))
        if len(bad):
            raise InvalidMeshError(f"element {bad[0]} references an invalid vertex")
        ids = np.sort(self.elements, axis=1)
        bad = np.flatnonzero((ids[:, 1:] == ids[:, :-1]).any(axis=1))
        if len(bad):
            raise InvalidMeshError(f"element {bad[0]} repeats a vertex")
        if not np.isfinite(self.vertices).all():
            raise InvalidMeshError("vertex coordinates must be finite")
        unused = np.flatnonzero(np.bincount(self.elements.ravel(), minlength=nv) == 0)
        if len(unused):
            raise InvalidMeshError(f"vertex {unused[0]} belongs to no element")
        self._build_geometry()
        for arr in (self.vertices, self.elements, self.volumes, self.h, self.h0):
            arr.setflags(write=False)
        if kind == "simplicial":
            self._topology  # built now, so that a malformed mesh raises here

    @functools.cached_property
    def _topology(self):
        """(faces, face_ids, on_boundary, interfaces), read-only."""
        topology = self._build_faces()
        for arr in topology:
            arr.setflags(write=False)
        return topology

    faces = property(lambda self: self._topology[0])
    face_ids = property(lambda self: self._topology[1])
    on_boundary = property(lambda self: self._topology[2])
    interfaces = property(lambda self: self._topology[3])

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def local_faces(self):
        """Local vertex indices (nfl, k) of the faces of an element: the edges
        (0,1), (1,2), (2,0) of a triangle; the low and the high side along
        each axis of a tensor cell."""
        if self.kind == "simplicial":
            return np.array([[0, 1], [1, 2], [2, 0]])
        m = np.arange(2**self.d)
        return np.array(
            [m[(m >> ax) & 1 == side] for ax in range(self.d) for side in (0, 1)]
        )

    # -- geometry ---------------------------------------------------------

    def _build_geometry(self):
        verts = self.vertices[self.elements]
        if self.kind == "tensor":
            edges = verts.max(axis=1) - verts.min(axis=1)
            bad = np.flatnonzero((edges <= 0).any(axis=1))
            if len(bad):
                raise InvalidMeshError(f"degenerate cuboid element {bad[0]}")
            self.h = np.sqrt((edges**2).sum(axis=1))  # the diagonal
            self.volumes = edges.prod(axis=1)
            self.h0 = edges.min(axis=1)
        else:
            diffs = verts[:, :, None, :] - verts[:, None, :, :]
            self.h = np.sqrt((diffs**2).sum(axis=3)).max(axis=(1, 2))
            area2 = _area2(verts)
            bad = np.flatnonzero((area2 == 0) | ~np.isfinite(area2))
            if len(bad):
                raise InvalidMeshError(f"triangle element {bad[0]} has zero or non-finite area")
            cw = area2 < 0
            self.elements[cw] = self.elements[cw][:, [0, 2, 1]]
            self.volumes = 0.5 * np.abs(area2)
            a, b, c = self.vertices[self.elements].transpose(1, 0, 2)  # as turned
            perimeter = _norms(b - a) + _norms(c - b) + _norms(a - c)
            self.h0 = self.d * self.volumes / perimeter

    # -- faces ------------------------------------------------------------

    def _build_faces(self):
        """The topology arrays, checked: each face has one or two elements."""
        local = self.local_faces
        keys = np.sort(self.elements[:, local], axis=2).reshape(-1, local.shape[1])
        faces, index, counts = np.unique(
            keys, axis=0, return_inverse=True, return_counts=True
        )
        if np.any(counts > 2):
            raise InvalidMeshError("face shared by more than two elements")

        # the elements of every face, grouped by face and ascending in each group
        owner = np.argsort(index.ravel(), kind="stable") // len(local)
        first = (np.cumsum(counts) - counts)[counts == 2]
        e1, e2 = owner[first], owner[first + 1]
        vertex_ids = faces[counts == 2]
        verts = self.vertices[vertex_ids]
        if self.d == 1:
            measure, normal = np.ones(len(e1)), np.ones((len(e1), 1))
        elif self.d == 2:  # a segment
            t = verts[:, 1] - verts[:, 0]
            measure = _norms(t)
            normal = np.stack([t[:, 1], -t[:, 0]], axis=1) / measure[:, None]
        else:  # an axis-aligned rectangle
            span = verts.max(axis=1) - verts.min(axis=1)
            measure = np.where(span > 1e-14, span, 1.0).prod(axis=1)
            normal = np.eye(self.d)[np.argmin(np.abs(span), axis=1)]
        # the signed distances of both element centres from the face: of
        # opposite signs unless the two elements fold over each other
        centers = self.vertices[self.elements].mean(axis=1)
        side1, side2 = (((centers[e] - verts[:, 0]) * normal).sum(axis=1) for e in (e1, e2))
        folded = np.flatnonzero(side1 * side2 >= 0)
        if len(folded):
            f = folded[0]
            raise InvalidMeshError(
                f"elements {e1[f]} and {e2[f]} lie on the same side of their shared "
                f"face {tuple(vertex_ids[f].tolist())}"
            )
        normal = np.where((side2 < 0)[:, None], -normal, normal)  # from e1 to e2
        interfaces = np.rec.fromarrays(
            [np.stack([e1, e2], axis=1), vertex_ids, measure, normal,
             np.minimum(self.h0[e1], self.h0[e2])],
            dtype=[
                ("elements", np.int64, (2,)),
                ("vertex_ids", np.int64, (local.shape[1],)),
                ("measure", float),
                ("normal", float, (self.d,)),
                ("h_f", float),
            ],
        )
        return faces, index.reshape(self.n_elements, len(local)), counts == 1, interfaces


def _area2(verts):
    """Twice the signed areas of the triangles verts (n, 3, 2), positive
    where a triangle is counterclockwise."""
    a, b, c = verts[:, 0], verts[:, 1], verts[:, 2]
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])


def _norms(v):
    """Euclidean norms of the rows of v (n, d), each a dot product as
    np.linalg.norm takes for a single vector; norm(v, axis=1) sums the
    squares in another order and can differ in the last bit."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0, 0]


def build_cartesian_mesh(breakpoints_per_axis):
    """Tensor-product mesh of intervals/cuboids from per-axis breakpoints.

    Elements are numbered lexicographically with axis 0 fastest, matching
    the vertex ordering within each element.
    """
    axes = [np.asarray(b, dtype=float) for b in breakpoints_per_axis]
    d = len(axes)
    if not 1 <= d <= 3:
        raise InvalidMeshError("dimension must be between 1 and 3")
    _check_axes(axes)
    vertices, _, elements = _tensor_grid(axes, 1)
    return Mesh(d, "tensor", vertices, elements, axes=axes)


def _tensor_grid(axes, p):
    """The grid of the points on `axes` (one ascending array of
    coordinates per axis) in cells of p + 1 points along each axis:
    (coordinates (N, d) of every point, the index of each point along each
    axis, the point ids (cells, (p + 1)^d) of every cell). Points, cells
    and the points of a cell are all numbered with axis 0 fastest, so the
    grid of a mesh's breakpoints at p = 1 gives its vertices and elements."""
    counts = tuple(len(a) for a in axes)
    grid = np.unravel_index(np.arange(math.prod(counts)), counts, order="F")
    points = np.stack([a[i] for a, i in zip(axes, grid)], axis=1)
    cells = tuple((c - 1) // p for c in counts)
    cell = np.unravel_index(np.arange(math.prod(cells)), cells, order="F")
    local = np.unravel_index(np.arange((p + 1) ** len(axes)), (p + 1,) * len(axes), order="F")
    ids = tuple(c[:, None] * p + i for c, i in zip(cell, local))
    return points, grid, np.ravel_multi_index(ids, counts, order="F")


def _check_axes(axes):
    """InvalidMeshError unless each array of `axes` is a list of at least two
    finite, strictly ascending breakpoints."""
    for b in axes:
        if b.ndim != 1 or len(b) < 2 or not (np.isfinite(b).all() and np.all(np.diff(b) > 0)):
            raise InvalidMeshError("breakpoints must be finite and strictly ascending")


def _split_cells(nodes, keep):
    """Diagonal-split triangulation of the cells (i, j) of the grid on
    nodes x nodes with keep[j, i] set."""
    n = len(nodes)
    j, i = np.nonzero(keep)
    v00 = i + n * j
    v10, v01, v11 = v00 + 1, v00 + n, v00 + n + 1
    # (low,low)-(high,high) diagonal, both triangles CCW
    elements = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    x, y = np.meshgrid(nodes, nodes)
    vertices = np.stack([x.ravel(), y.ravel()], axis=1)
    used, elements = np.unique(elements, return_inverse=True)
    return Mesh(2, "simplicial", vertices[used], elements.reshape(-1, 3))


def parse_mesh_text(text):
    """Parse the plain-text simplicial mesh format.

    Format: a line ``nodes <count>`` followed by ``x y`` lines, then
    ``elements <count>`` followed by three 0-based vertex indices per line,
    and nothing after them. ``#`` starts a comment.
    """
    rows = [row for row in (line.split("#", 1)[0].split() for line in text.splitlines()) if row]
    arrays, start = [], 0
    for name, dtype, width, what in (
        ("nodes", float, 2, "two numbers"),
        ("elements", int, 3, "three integer vertex indices"),
    ):
        head = rows[start] if start < len(rows) else []
        if len(head) != 2 or head[0] != name or not head[1].isdecimal():
            raise InvalidMeshError(f"expected '{name} <count>' header")
        count = int(head[1])
        section = rows[start + 1 : start + 1 + count]
        start += 1 + count
        if len(section) < count:
            raise InvalidMeshError(f"truncated mesh file: '{name}' needs {count} lines")
        try:
            arrays.append(np.array(section, dtype=dtype).reshape(count, width))
        except (ValueError, OverflowError):
            raise InvalidMeshError(f"each line of '{name}' needs {what}") from None
    if start < len(rows):
        raise InvalidMeshError("text after the last element")
    return Mesh(2, "simplicial", arrays[0], arrays[1])


def load_mesh(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise InvalidMeshError(f"cannot read mesh file {path!r}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise InvalidMeshError(f"cannot read mesh file {path!r}: {err}") from None
    return parse_mesh_text(text)


# the fields each mesh spec type reads, besides 'type'
SPEC_FIELDS = {"cartesian": ("breakpoints",), "uniform": ("n", "d"), "unit-square": ("n",),
               "l-shape": ("n",), "file": ("path",)}

# The size rule: no mesh or space is built whose element matrices would hold
# more than this many entries (128 MiB of float64); a mesh counts as its
# degree-1 space.
MAX_ENTRIES = 2**24


def _check_entries(kind, d, cells, p, what):
    """InvalidMeshError naming `what` unless the degree-p space on `cells`
    cells of a kind passes the size rule. Its element matrices hold
    cells * m^2 entries: m = (p + 1)^d local dofs on a tensor cell in d
    dimensions, (p + 1)(p + 2)/2 on a triangle."""
    m = (p + 1) ** d if kind == "tensor" else (p + 1) * (p + 2) // 2
    if cells * m * m > MAX_ENTRIES:
        raise InvalidMeshError(
            f"{what}: the degree-{p} space on {cells} cells is over the size limit "
            f"({cells * m * m} > {MAX_ENTRIES} element-matrix entries)"
        )


class MeshOutline(NamedTuple):
    """A mesh as its spec gives it, before it is built: the attributes of a
    Mesh that the size rule and the Kronecker test read (`axes` None on a
    triangulation)."""

    kind: str
    d: int
    n_elements: int
    axes: list | None


def _spec_outline(spec, refine=None):
    """The outline of the mesh that `spec` builds, or with `refine` of the
    mesh of refine_spec(spec, refine); None for a 'file' spec, whose mesh is
    known once read.

    The spec is checked first, and then the size rule (MAX_ENTRIES) on the
    cell count alone, so no array of the mesh's size is formed unless it
    passes. InvalidMeshError names the spec field at fault.
    """
    if not isinstance(spec, dict):
        raise InvalidMeshError("config field 'mesh' must be an object with a 'type'")
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in SPEC_FIELDS:
        raise InvalidMeshError(f"unknown mesh spec type {kind!r}")
    for name in spec:
        if name != "type" and name not in SPEC_FIELDS[kind]:
            raise InvalidMeshError(f"mesh spec type {kind!r} does not read the field {name!r}")

    def field(name):
        if name not in spec:
            raise InvalidMeshError(f"mesh spec type {kind!r} needs the field {name!r}")
        return spec[name]

    def count(name, value, top=None):
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Integral)
            or value < 1
            or (top is not None and value > top)
        ):
            bound = f"from 1 to {top}" if top else ">= 1"
            raise InvalidMeshError(f"mesh spec field {name!r} must be an integer {bound}")
        return int(value)

    if kind == "file":
        if not isinstance(field("path"), str):
            raise InvalidMeshError("mesh spec field 'path' must be a string")
        if refine is not None:
            refine_spec(spec, refine)  # raises unless by 1
        return None
    if kind == "cartesian":
        name = "breakpoints"
        try:
            axes = [np.asarray(b, dtype=float) for b in field(name)]
        except (TypeError, ValueError):
            axes = None
        if axes is None or not 1 <= len(axes) <= 3:
            raise InvalidMeshError(
                "mesh spec field 'breakpoints' must hold one list of numbers per axis, "
                "for 1 to 3 axes"
            )
        _check_axes(axes)
        cell_kind, d, cells = "tensor", len(axes), math.prod(len(b) - 1 for b in axes)
    elif kind == "uniform":
        name = "n"
        n, d = count("n", field("n")), count("d", spec.get("d", 1), top=3)
        cell_kind, cells = "tensor", n**d
    else:  # two triangles per grid cell: n x n cells, or three quadrants of 2n x 2n
        name = "n"
        n = count("n", field("n"))
        cell_kind, d, cells = "simplicial", 2, 2 * n * n * (1 if kind == "unit-square" else 3)
    cells *= (refine or 1) ** d
    _check_entries(cell_kind, d, cells, 1, f"mesh spec field {name!r}")
    if refine is not None:
        spec = refine_spec(spec, refine)
    if kind == "cartesian":
        axes = [np.asarray(b, dtype=float) for b in spec["breakpoints"]]
        _check_axes(axes)  # a refined cell can round to nothing
    elif kind == "uniform":
        axes = [np.linspace(0.0, 1.0, int(spec["n"]) + 1)] * d
    else:
        axes = None
    return MeshOutline(cell_kind, d, cells, axes)


def mesh_from_spec(spec):
    """Build a mesh from a declarative spec dict.

    Supported types: 'cartesian' {breakpoints: [[...], ...]},
    'uniform' {n, d} on the unit cube, 'file' {path}, and two
    triangulations: 'unit-square' {n}, n x n cells on (0,1)^2 each split
    along the (low,low)-(high,high) diagonal, and 'l-shape' {n}, the same on
    the unit square minus the upper-right quadrant [1/2,1)x(1/2,1] with n
    cells per half-axis (grid 2n x 2n). The spec is checked by
    `_spec_outline` before anything is built.
    """
    outline = _spec_outline(spec)
    if outline is None:
        return load_mesh(spec["path"])
    if outline.kind == "tensor":
        return build_cartesian_mesh(outline.axes)
    n = int(spec["n"])
    m = n if spec["type"] == "unit-square" else 2 * n
    upper = np.arange(m) >= n  # empty for the unit square
    return _split_cells(np.linspace(0.0, 1.0, m + 1), ~(upper[:, None] & upper[None, :]))


def refine_spec(spec, factor):
    """A spec for the same domain with each cell split `factor` times. A
    file spec refines only by 1, to itself."""
    kind = spec.get("type")
    if kind == "cartesian":
        new_axes = []
        for axis in spec["breakpoints"]:
            axis = np.asarray(axis, dtype=float)
            cells = axis[:-1, None] + np.diff(axis)[:, None] * np.arange(1, factor + 1) / factor
            new_axes.append([float(axis[0])] + cells.ravel().tolist())
        return {"type": "cartesian", "breakpoints": new_axes}
    if kind in ("uniform", "unit-square", "l-shape"):
        return {**spec, "n": int(spec["n"]) * factor}
    if factor == 1:
        return spec
    raise InvalidMeshError(f"cannot refine mesh spec type {kind!r} by {factor}, only by 1")
