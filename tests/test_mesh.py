import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softfem.assembly import assemble_penalty, build_space, element_map
from softfem.mesh import (
    InvalidMeshError,
    Mesh,
    build_cartesian_mesh,
    load_mesh,
    mesh_from_spec,
    parse_mesh_text,
    refine_spec,
)

from test_inputs import SQUARE_MESH


def test_cartesian_1d_counts_and_lengths():
    mesh = build_cartesian_mesh([[0.0, 0.25, 0.5, 1.0]])
    assert mesh.d == 1 and mesh.kind == "tensor"
    assert mesh.n_elements == 3
    assert np.allclose(mesh.h, [0.25, 0.25, 0.5])
    faces = mesh.interfaces
    assert len(faces) == 2
    assert faces.normal.shape == (2, 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tensor_cell_h_is_the_largest_vertex_distance(d):
    """A cuboid's h, its diagonal, is bit for bit the largest distance
    between two of its vertices; its volume, h0, element map and the
    measure and normal of each interior face, read from the first and the
    last vertex, are bit for bit those of the min/max over all its
    vertices."""
    rng = np.random.default_rng(d)
    axes = [np.sort(np.r_[0.0, rng.uniform(0.0, 3.0, 5), 3.0]) for _ in range(d)]
    mesh = build_cartesian_mesh(axes)
    verts = mesh.vertices[mesh.elements]
    diffs = verts[:, :, None, :] - verts[:, None, :, :]
    assert mesh.h.tobytes() == np.sqrt((diffs**2).sum(axis=3)).max(axis=(1, 2)).tobytes()
    lo, edges = verts.min(axis=1), verts.max(axis=1) - verts.min(axis=1)
    assert mesh.volumes.tobytes() == edges.prod(axis=1).tobytes()
    assert mesh.h0.tobytes() == edges.min(axis=1).tobytes()
    half = 0.5 * edges
    emap = element_map(build_space(mesh, 1))
    assert emap.v.tobytes() == lo.tobytes()
    assert emap.J.tobytes() == (half[:, :, None] * np.eye(d)).tobytes()
    assert emap.Jinv.tobytes() == ((1.0 / half)[:, :, None] * np.eye(d)).tobytes()
    assert emap.detj.tobytes() == half.prod(axis=1).tobytes()
    faces = mesh.interfaces
    fverts = mesh.vertices[faces.vertex_ids]
    span = fverts.max(axis=1) - fverts.min(axis=1)
    assert faces.measure.tobytes() == np.where(span > 0, span, 1.0).prod(axis=1).tobytes()
    assert np.abs(faces.normal).tobytes() == np.eye(d)[np.argmin(span, axis=1)].tobytes()


def test_cartesian_2d_interface_count_and_normals():
    n = 4
    pts = np.linspace(0.0, 1.0, n + 1)
    mesh = build_cartesian_mesh([pts, pts])
    assert mesh.n_elements == n * n
    faces = mesh.interfaces
    assert len(faces) == 2 * n * (n - 1)
    assert np.all(np.abs(np.linalg.norm(faces.normal, axis=1) - 1.0) < 1e-14)
    assert np.all(np.abs(faces.measure - 0.25) < 1e-14)


def test_cartesian_3d_interface_count():
    pts = np.linspace(0.0, 1.0, 4)
    mesh = build_cartesian_mesh([pts, pts, pts])
    assert mesh.n_elements == 27
    assert len(mesh.interfaces) == 3 * 9 * 2


def test_h0_is_smallest_edge_for_cuboids():
    mesh = build_cartesian_mesh([[0.0, 0.5], [0.0, 0.2], [0.0, 1.0]])
    assert abs(mesh.h0[0] - 0.2) < 1e-14
    assert abs(mesh.volumes[0] - 0.1) < 1e-14


def test_breakpoints_must_increase():
    with pytest.raises(InvalidMeshError):
        build_cartesian_mesh([[0.0, 0.5, 0.5, 1.0]])
    with pytest.raises(InvalidMeshError):
        build_cartesian_mesh([[1.0, 0.0]])
    for bad in ([0.0, np.nan, 1.0], [0.0, np.inf], 0.5):
        with pytest.raises(InvalidMeshError):
            build_cartesian_mesh([bad])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unit_square_simplicial_counts(n):
    mesh = mesh_from_spec({"type": "unit-square", "n": n})
    assert mesh.n_elements == 2 * n * n
    assert len(mesh.interfaces) == 3 * n * n - 2 * n
    assert len(mesh.volumes) == mesh.n_elements
    assert abs(sum(mesh.volumes) - 1.0) < 1e-13


def test_triangles_are_counterclockwise():
    mesh = mesh_from_spec({"type": "unit-square", "n": 3})
    for el in mesh.elements:
        a, b, c = (mesh.vertices[v] for v in el)
        area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        assert area2 > 0


@pytest.mark.parametrize("n", [2, 4])
def test_l_shape_counts_and_area(n):
    mesh = mesh_from_spec({"type": "l-shape", "n": n})
    assert mesh.n_elements == 6 * n * n
    assert len(mesh.volumes) == mesh.n_elements
    assert abs(sum(mesh.volumes) - 0.75) < 1e-13


def test_simplex_h0_matches_inradius_formula():
    mesh = Mesh(2, "simplicial", [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    area = 0.5
    per = 2.0 + np.sqrt(2.0)
    assert abs(mesh.h0[0] - 2 * area / per) < 1e-14


def test_explicit_mesh_fixes_orientation_and_rejects_degenerate():
    mesh = Mesh(2, "simplicial", [(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])
    a, b, c = (mesh.vertices[v] for v in mesh.elements[0])
    assert (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) > 0
    with pytest.raises(InvalidMeshError):
        Mesh(2, "simplicial", [(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])
    with pytest.raises(InvalidMeshError, match="element 0 references"):
        Mesh(2, "simplicial", [(0, 0), (1, 0), (0, 1)], [(0, 1, 5)])


@pytest.mark.parametrize("bad", [(0, 1), (0, 1, 2, 3), 2])
def test_explicit_mesh_element_must_be_a_vertex_triple(bad):
    nodes = [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(InvalidMeshError, match=r"element 1 .* not a vertex triple"):
        Mesh(2, "simplicial", nodes, [(0, 1, 2), bad])


def test_interface_normals_point_from_first_to_second_element():
    mesh = build_cartesian_mesh([[0.0, 0.5, 1.0]])
    (face,) = mesh.interfaces
    e1, e2 = face.elements
    c1 = np.mean(mesh.vertices[mesh.elements[e1]], axis=0)
    c2 = np.mean(mesh.vertices[mesh.elements[e2]], axis=0)
    assert float((c2 - c1) @ face.normal) > 0


def test_interface_h_f_is_min_of_adjacent_h0():
    mesh = build_cartesian_mesh([[0.0, 0.1, 1.0]])
    (face,) = mesh.interfaces
    assert abs(face.h_f - 0.1) < 1e-14


def test_interfaces_are_deterministic():
    a = mesh_from_spec({"type": "unit-square", "n": 3})
    b = mesh_from_spec({"type": "unit-square", "n": 3})
    fa, fb = a.interfaces, b.interfaces
    assert len(fa) == len(fb)
    assert np.array_equal(fa.elements, fb.elements)
    assert np.array_equal(fa.vertex_ids, fb.vertex_ids)
    assert np.array_equal(fa.normal, fb.normal)


def test_parse_mesh_text_roundtrip_and_errors(tmp_path):
    text = """
    # a split unit square
    nodes 4
    0 0
    1 0
    1 1
    0 1
    elements 2
    0 1 2
    0 2 3
    """
    mesh = parse_mesh_text(text)
    assert mesh.n_elements == 2
    path = tmp_path / "square.mesh"
    path.write_text(text)
    mesh2 = load_mesh(str(path))
    assert np.array_equal(mesh.vertices, mesh2.vertices)
    with pytest.raises(InvalidMeshError):
        parse_mesh_text("nodes 2\n0 0\n1 1\n")
    with pytest.raises(InvalidMeshError):
        parse_mesh_text("nodes 1\n0 0\nelements 1\n0 1\n")


def test_mesh_from_spec_types(tmp_path):
    m1 = mesh_from_spec({"type": "uniform", "n": 4, "d": 2})
    assert m1.n_elements == 16
    m2 = mesh_from_spec({"type": "cartesian", "breakpoints": [[0, 0.5, 1]]})
    assert m2.n_elements == 2
    m3 = mesh_from_spec({"type": "unit-square", "n": 2})
    assert m3.n_elements == 8
    m4 = mesh_from_spec({"type": "l-shape", "n": 2})
    assert m4.n_elements == 24
    path = tmp_path / "m.mesh"
    path.write_text("nodes 3\n0 0\n1 0\n0 1\nelements 1\n0 1 2\n")
    m5 = mesh_from_spec({"type": "file", "path": str(path)})
    assert m5.n_elements == 1
    with pytest.raises(InvalidMeshError):
        mesh_from_spec({"type": "torus"})


def test_refine_spec_doubles_resolution():
    spec = refine_spec({"type": "uniform", "n": 4, "d": 1}, 2)
    assert mesh_from_spec(spec).n_elements == 8
    spec2 = refine_spec({"type": "cartesian", "breakpoints": [[0.0, 0.4, 1.0]]}, 2)
    mesh = mesh_from_spec(spec2)
    assert mesh.n_elements == 4
    assert np.allclose(np.sort(mesh.h), [0.2, 0.2, 0.3, 0.3])
    # cell by cell: a + (b - a) * k / f for k = 1 .. f
    axes = [[0.0, 0.1, 0.35, 1.0], [-1.0, 0.3, 2.0]]
    expected = [[axis[0]] + [a + (b - a) * k / 3 for a, b in zip(axis, axis[1:]) for k in (1, 2, 3)]
                for axis in axes]
    assert refine_spec({"type": "cartesian", "breakpoints": axes}, 3)["breakpoints"] == expected


def test_refine_spec_by_one_keeps_any_spec():
    spec = {"type": "file", "path": "square.mesh"}
    assert refine_spec(spec, 1) == spec
    with pytest.raises(InvalidMeshError, match="'file' by 2"):
        refine_spec(spec, 2)


@pytest.mark.parametrize(
    "nodes,elements",
    [
        ([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (0, 2, 1)]),  # one triangle twice
        ([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (0, 1, 3)]),  # folded over edge 0-1
    ],
    ids=["duplicated", "folded"],
)
def test_overlapping_triangles_are_rejected(nodes, elements):
    with pytest.raises(InvalidMeshError, match=r"elements 0 and 1 lie on the same side .* \(0, 1\)"):
        Mesh(2, "simplicial", nodes, elements)


@pytest.mark.parametrize(
    "elements,bad",
    [([(0, 1, 2.7)], 0), ([(0, 1, 2), (1, 3, np.nan)], 1), ([(0, 1, 2), (1, 3, 2.5)], 1)],
)
def test_non_integer_vertex_ids_are_rejected(elements, bad):
    nodes = [(0, 0), (1, 0), (0, 1), (1, 1)]
    with pytest.raises(InvalidMeshError, match=f"element {bad} has a vertex id that is not an integer"):
        Mesh(2, "simplicial", nodes, elements)
    # whole numbers of any numeric type are ids
    mesh = Mesh(2, "simplicial", nodes[:3], [(0.0, 1.0, 2.0)])
    assert mesh.elements.tolist() == [[0, 1, 2]]


SQUARE = build_cartesian_mesh([[0.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "args,axes,says",
    [
        ((2, "tensor", SQUARE.vertices, SQUARE.elements), SQUARE.axes, "'axes' alone"),
        ((2, "tensor", SQUARE.vertices, SQUARE.elements), None, "'axes' alone"),
        ((2, "tensor"), [[0.0, 1.0]], "'axes' alone"),
        ((4, "tensor"), [[0.0, 1.0]] * 4, "'axes' alone"),
        ((1, "simplicial", [(0,), (1,)], [(0, 1)]), None, "not 'simplicial' with d = 1"),
        ((3, "simplicial", np.eye(4, 3), [(0, 1, 2, 3)]), None, "not 'simplicial' with d = 3"),
        ((2, "quad", SQUARE.vertices, SQUARE.elements), None, "not 'quad' with d = 2"),
    ],
    ids=["tensor-arrays", "tensor-without-axes", "tensor-axes-not-d", "tensor-four-axes",
         "simplicial-1d", "simplicial-3d", "unknown-kind"],
)
def test_mesh_is_a_tensor_grid_or_2d_triangles(args, axes, says):
    """A tensor mesh is its breakpoints alone, numbered as `_tensor_grid`
    numbers them; explicit arrays are 2D triangles. Anything else is refused
    at construction."""
    with pytest.raises(InvalidMeshError, match=says):
        Mesh(*args, axes=axes)


def test_mesh_rejects_mismatched_dimension():
    with pytest.raises(InvalidMeshError):
        Mesh(2, "simplicial", np.zeros((3, 2)), [[0, 1]])


def test_face_shared_by_three_triangles_is_rejected():
    nodes = [(0, 0), (1, 0), (0, 1), (0.5, -1), (1, 1)]
    with pytest.raises(InvalidMeshError, match="more than two"):
        Mesh(2, "simplicial", nodes, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def test_tensor_topology_is_built_on_first_read(monkeypatch):
    """A tensor mesh builds its face table when one of its topology arrays is
    first read, a simplicial mesh at construction; either way the arrays are
    those of an eager build, and read-only."""
    built = []
    original = Mesh._build_faces

    def spy(self):
        built.append(self)
        return original(self)

    monkeypatch.setattr(Mesh, "_build_faces", spy)
    axes = [[0.0, 0.3, 1.0], [0.0, 0.5, 0.7, 1.0], [-1.0, 1.0]]
    for d in (1, 2, 3):
        built.clear()
        mesh = build_cartesian_mesh(axes[:d])
        assert built == []
        eager = original(mesh)
        for name, expected in zip(("faces", "face_ids", "on_boundary", "interfaces"), eager):
            arr = getattr(mesh, name)
            assert arr.dtype == expected.dtype and arr.shape == expected.shape
            assert arr.tobytes() == expected.tobytes()
            assert not arr.flags.writeable
        assert built == [mesh]
    built.clear()
    mesh = mesh_from_spec({"type": "unit-square", "n": 2})
    assert built == [mesh]
    mesh.interfaces
    assert built == [mesh]


def check_face_table(mesh):
    """Properties every face table holds, checked against the vertex
    coordinates and element vertex lists."""
    faces = mesh.interfaces
    e1, e2 = faces.elements.T
    assert np.all(e1 < e2)
    # each face's vertices belong to both of its elements
    for e in (e1, e2):
        assert np.all((faces.vertex_ids[:, :, None] == mesh.elements[e][:, None, :]).any(axis=2))
    # the table lists the interior faces, lexicographically in sorted vertex ids
    ids = faces.vertex_ids
    assert np.all(np.diff(ids, axis=1) > 0)
    assert [tuple(r) for r in ids] == sorted(tuple(r) for r in ids)
    assert np.array_equal(ids, mesh.faces[~mesh.on_boundary])
    assert np.array_equal(
        mesh.faces[mesh.face_ids], np.sort(mesh.elements[:, mesh.local_faces], axis=2)
    )
    # a unit normal, orthogonal to the face, pointing from e1 to e2
    assert np.all(np.abs(np.linalg.norm(faces.normal, axis=1) - 1.0) < 1e-14)
    verts = mesh.vertices[ids]
    tangents = verts[:, 1:] - verts[:, :1]
    assert np.all(np.abs(np.einsum("fkd,fd->fk", tangents, faces.normal)) < 1e-13)
    centers = mesh.vertices[mesh.elements].mean(axis=1)
    assert np.all(((centers[e2] - centers[e1]) * faces.normal).sum(axis=1) > 0)
    # the measure is the face's length or area (a point in 1D)
    if mesh.d == 1:
        expected = np.ones(len(faces))
    elif mesh.d == 2:
        expected = np.hypot(tangents[:, 0, 0], tangents[:, 0, 1])
    else:  # rectangles whose lowest vertex id is a corner next to the second and third
        expected = np.linalg.norm(np.cross(tangents[:, 0], tangents[:, 1]), axis=1)
    assert np.allclose(faces.measure, expected, rtol=1e-13, atol=0)
    assert np.array_equal(faces.h_f, np.minimum(mesh.h0[e1], mesh.h0[e2]))
    # every element face is interior (seen twice) or on the boundary (once)
    assert 2 * len(faces) + mesh.on_boundary.sum() == mesh.n_elements * len(mesh.local_faces)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4), min_size=1, max_size=3),
    st.floats(-2.0, 2.0),
)
def test_cartesian_face_table(widths, origin):
    mesh = build_cartesian_mesh([origin + np.cumsum([0.0] + w) for w in widths])
    cells = [len(w) for w in widths]
    assert len(mesh.interfaces) == sum((c - 1) * np.prod(cells) // c for c in cells)
    check_face_table(mesh)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["unit-square", "l-shape"]), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_jittered_triangulation_face_table(kind, n, seed):
    """Triangulations with jittered vertices and elements listed in random
    vertex order, which `Mesh` turns counterclockwise."""
    base = mesh_from_spec({"type": kind, "n": n})
    rng = np.random.default_rng(seed)
    h = 1.0 / (n if kind == "unit-square" else 2 * n)
    nodes = base.vertices + rng.uniform(-0.1 * h, 0.1 * h, base.vertices.shape)
    order = np.argsort(rng.random(base.elements.shape), axis=1)
    elements = np.take_along_axis(base.elements, order, axis=1)
    mesh = Mesh(2, "simplicial", nodes, elements.tolist())
    interior = 3 * n * n - 2 * n if kind == "unit-square" else 9 * n * n - 4 * n
    assert len(mesh.interfaces) == interior
    check_face_table(mesh)


def row_wise_topology(mesh):
    """The topology arrays by the row-wise algorithm: np.unique over the rows
    of sorted face vertex ids, the elements of each face regrouped by a
    stable argsort of the inverse, a 2D face taken as a segment, and every
    normal turned from e1 to e2 by the signed distances of the element
    centres."""
    local = mesh.local_faces
    keys = np.sort(mesh.elements[:, local], axis=2).reshape(-1, local.shape[1])
    faces, index, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    owner = np.argsort(index.ravel(), kind="stable") // len(local)
    first = (np.cumsum(counts) - counts)[counts == 2]
    e1, e2 = owner[first], owner[first + 1]
    ids = faces[counts == 2]
    verts = mesh.vertices[ids]
    if mesh.d == 2:
        t = verts[:, 1] - verts[:, 0]
        measure = np.sqrt(np.matmul(t[:, None, :], t[:, :, None]))[:, 0, 0]
        normal = np.stack([t[:, 1], -t[:, 0]], axis=1) / measure[:, None]
    else:
        span = verts[:, -1] - verts[:, 0]
        measure, normal = np.where(span == 0, 1.0, span).prod(axis=1), (span == 0) * 1.0
    centers = mesh.vertices[mesh.elements].mean(axis=1)
    side2 = ((centers[e2] - verts[:, 0]) * normal).sum(axis=1)
    normal = np.where((side2 < 0)[:, None], -normal, normal)
    interfaces = np.rec.fromarrays(
        [np.stack([e1, e2], axis=1), ids, measure, normal, np.minimum(mesh.h0[e1], mesh.h0[e2])],
        dtype=mesh.interfaces.dtype,
    )
    return faces, index.reshape(mesh.n_elements, len(local)), counts == 1, interfaces


def jittered_file_mesh(tmp_path):
    """The unit-square n = 4 triangulation with its interior vertices moved up
    to h/5 and its triangles listed clockwise, read from a mesh file."""
    base = mesh_from_spec({"type": "unit-square", "n": 4})
    v, rng = base.vertices, np.random.default_rng(3)
    v = v + np.all((v > 0) & (v < 1), axis=1)[:, None] * rng.uniform(-0.05, 0.05, v.shape)
    lines = [f"nodes {len(v)}", *(f"{x!r} {y!r}" for x, y in v.tolist()),
             f"elements {base.n_elements}", *(f"{a} {c} {b}" for a, b, c in base.elements)]
    (tmp_path / "jittered.mesh").write_text("\n".join(lines) + "\n")
    return load_mesh(tmp_path / "jittered.mesh")


def random_tensor_mesh(d):
    """A tensor mesh on [0, 2]^d with 4 + d cells of random widths per axis."""
    rng = np.random.default_rng(10 + d)
    return build_cartesian_mesh(
        [np.sort(np.r_[0.0, rng.uniform(0.0, 2.0, 3 + d), 2.0]) for _ in range(d)])


FACE_TABLE_MESHES = {
    **{f"tensor-{d}d": (lambda d=d: random_tensor_mesh(d)) for d in (1, 2, 3)},
    "unit-square": lambda: mesh_from_spec({"type": "unit-square", "n": 3}),
    "l-shape": lambda: mesh_from_spec({"type": "l-shape", "n": 2}),
}


@pytest.mark.parametrize("name", [*FACE_TABLE_MESHES, "jittered-file"])
def test_face_tables_match_the_row_wise_algorithm(name, tmp_path):
    """The face tables are byte for byte those of the row-wise algorithm,
    but for the sign of a zero in a normal (a 2D grid's normals were once
    turned by the element centres), and so is the penalty matrix built on
    them for p = 1 to 3."""
    build = FACE_TABLE_MESHES.get(name, lambda: jittered_file_mesh(tmp_path))
    mesh = build()
    expected = row_wise_topology(mesh)
    for arr, want in zip((mesh.faces, mesh.face_ids, mesh.on_boundary), expected):
        assert arr.dtype == want.dtype and arr.shape == want.shape
        assert arr.tobytes() == want.tobytes()
    faces, want = mesh.interfaces, expected[3]
    assert faces.dtype == want.dtype and faces.shape == want.shape
    for field in ("elements", "vertex_ids", "measure", "h_f"):
        assert faces[field].tobytes() == want[field].tobytes()
    assert np.array_equal(faces.normal, want.normal)
    reference = build()
    reference.__dict__["_topology"] = expected  # the cached topology, replaced
    for p in (1, 2, 3):
        S, R = (assemble_penalty(build_space(m, p)) for m in (mesh, reference))
        assert S.shape == R.shape
        for part in ("data", "indices", "indptr"):
            assert getattr(S, part).tobytes() == getattr(R, part).tobytes()


@st.composite
def mutated_mesh_texts(draw):
    """SQUARE_MESH with one to three lines dropped, duplicated or swapped,
    or one token replaced by a bad number, a word or nothing."""
    lines = SQUARE_MESH.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "token"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from(["nan", "inf", "-1", "2.5", "x", ""])
            )
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_mesh_texts())
def test_parse_mesh_text_returns_a_mesh_or_rejects_it(text):
    try:
        mesh = parse_mesh_text(text)
    except InvalidMeshError:
        return
    assert isinstance(mesh, Mesh)
