"""The bad-input contract of the command line as one table: `BAD_INPUTS`
maps a name to each malformed input of `softfem run`, `trace-check` and
`mesh-info`, with its exit code and what its error line must say.
`test_bad_input` runs every row through `cli.main` with the same checks; a
new rejection is one row. `test_every_field_has_a_rejected_value` requires,
for every config field and every field of each mesh spec type, a row that
gives it a value its rule rejects."""

import json
import os
import re
import tracemalloc
from collections import namedtuple

import pytest

from softfem import assembly, cli, speclab
from softfem.mesh import SPEC_FIELDS, Mesh
from softfem.polyref import MAX_DEGREE

# argv: the command line, with $TMP for the test's directory; says: the
# substrings of the error line ($TMP again); files: {name: content} written
# to $TMP first, a dict as JSON; leaves: None where no --out directory is
# made (the config rule rejects the run first), else the files left in it
Row = namedtuple("Row", "argv code says files leaves", defaults=({}, None))
PREFIX = {2: "error: ", 3: "solver failure: ", 4: "coercivity violation: "}


def run(config, *says, flags=(), code=2, files=None, leaves=None, out="$TMP/out"):
    """A row of `softfem run` on `config`: a preset name or a path, or the
    content of $TMP/cfg.json."""
    target = config if isinstance(config, str) else "$TMP/cfg.json"
    files = {**({} if isinstance(config, str) else {"cfg.json": config}), **(files or {})}
    return Row(["run", target, "--out", out, *flags], code, says, files, leaves)


def trace_check(p, kind, *says):
    return Row(["trace-check", "--p", str(p), "--kind", kind], 2, says)


MESHED = {"name": "bad", "mesh": {"type": "uniform", "n": 4, "d": 1}}
LADDER = {"name": "bad", "ladder": [{"degree": 1, "n": [4, 8]}]}
FILE_MESH = {"name": "f", "mesh": {"type": "file", "path": "$TMP/bad.mesh"}}
SQUARE_MESH = "nodes 4\n0 0\n1 0\n1 1\n0 1\nelements 2\n0 1 2\n0 2 3\n"
# the unit square in 2 x 2 cells, 8 triangles
SQUARE_MESH_8 = ("nodes 9\n0 0\n.5 0\n1 0\n0 .5\n.5 .5\n1 .5\n0 1\n.5 1\n1 1\nelements 8\n"
                 "0 1 4\n0 4 3\n1 2 5\n1 5 4\n3 4 7\n3 7 6\n4 5 8\n4 8 7\n")
NOT_AN_OBJECT = "config: expected a non-empty JSON object"
OVERRIDES = ("--modes", "3", "--eta", "0.1")


def mesh(spec, *says, code=2, leaves=None, **fields):
    """A row of `softfem run` on the mesh `spec` and the config `fields`."""
    return run({"name": "m", "mesh": spec, **fields}, *says, code=code, leaves=leaves)


def ladder(*blocks):
    return run({"name": "bad", "ladder": list(blocks)}, "field 'ladder'")


# name: (text, what its error line says); each is a `mesh-info` row and a
# row of `softfem run` on the file, which builds the mesh in the directory
MESH_FILES = {
    "count-not-a-number": ("nodes x\n0 0\n", "expected 'nodes <count>' header"),
    "no-count": ("nodes\n0 0\n", "expected 'nodes <count>' header"),
    "truncated": ("nodes 1\n0 0\n", "expected 'elements <count>' header"),
    "node-not-a-number": ("nodes 3\n0 a\n1 0\n0 1\nelements 1\n0 1 2\n",
                          "each line of 'nodes' needs two numbers"),
    "element-not-an-integer": ("nodes 3\n0 0\n1 0\n0 1\nelements 1\n0 1 2.5\n",
                               "each line of 'elements' needs three integer vertex indices"),
    "node-not-finite": ("nodes 3\nnan 1\n1 0\n0 1\nelements 1\n0 1 2\n",
                        "vertex coordinates must be finite"),
    "line-after-the-last-element": (SQUARE_MESH.replace("elements 2", "elements 1"),
                                    "text after the last element"),
    "unused-node": ("nodes 5\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\nelements 2\n0 1 2\n0 2 3\n",
                    "vertex 4 belongs to no element"),
    "no-element": ("nodes 0\nelements 0\n", "mesh has no element"),
    "not-utf-8": (b"\xff\xfe\x00bad", "cannot read mesh file '$TMP/bad.mesh'"),
    # two copies of one triangle: area 0.5 counted twice, three interior faces
    "folded": ("nodes 3\n0 0\n1 0\n0 1\nelements 2\n0 1 2\n0 2 1\n",
               "lie on the same side of their shared face"),
    "repeated-vertex": ("nodes 3\n0 0\n1 0\n0 1\nelements 1\n0 0 1\n",
                        "element 0 repeats a vertex"),
}
KAPPAS = {"minus-one": "-1", "exp-overflow": "exp(1000*x)", "one-over-zero": "1/0",
          "zero-to-minus-one": "0^-1", "root-of-minus-two": "(-2)^0.5", "ten-to-400": "10^400"}

BAD_INPUTS = {
    # the config file and the output directory
    "config-missing": run("$TMP/missing.json",
                          "config '$TMP/missing.json': no such preset or file"),
    "config-not-json": run(b"not json", "config '$TMP/cfg.json': invalid JSON"),
    "config-is-a-directory": run("$TMP", "config '$TMP': cannot read the file"),
    "config-utf-16-bom": run(b"\xff\xfe", "config '$TMP/cfg.json': cannot read the file"),
    "out-is-a-file": run(MESHED, "--out '$TMP/file': cannot make the output directory",
                         files={"file": ""}, out="$TMP/file"),
    "out-under-a-file": run(MESHED, "--out '$TMP/file/sub': cannot make the output directory",
                            files={"file": ""}, out="$TMP/file/sub"),
    "config-list": run(b"[]", NOT_AN_OBJECT),
    "config-string": run(b'"x"', NOT_AN_OBJECT),
    "config-number": run(b"3", NOT_AN_OBJECT),
    "config-empty-object": run(b"{}", NOT_AN_OBJECT),
    "config-list-with-overrides": run(b"[]", NOT_AN_OBJECT, flags=OVERRIDES),
    "config-string-with-overrides": run(b'"x"', NOT_AN_OBJECT, flags=OVERRIDES),
    # config fields: a repeat would be solved twice and reported once
    "degrees-repeated": run({**MESHED, "degrees": [2, 2]}, "field 'degrees'", "distinct"),
    "degrees-repeated-apart": run({**MESHED, "degrees": [1, 3, 1]}, "field 'degrees'",
                                  "distinct"),
    "eta-sweep-repeated": run({**MESHED, "eta_sweep": [0.01, 0.01]}, "field 'eta_sweep'",
                              "distinct"),
    "eta-sweep-signed-zeros": run({**MESHED, "eta_sweep": [0.0, -0.0]}, "field 'eta_sweep'",
                                  "distinct"),
    "eta-sweep-int-and-float": run({**MESHED, "eta_sweep": [1, 1.0]}, "field 'eta_sweep'",
                                   "distinct"),
    "eta-flag-negative": run(MESHED, "field 'eta'", flags=["--eta", "-1"]),
    "eta-flag-nan": run(MESHED, "field 'eta'", flags=["--eta", "nan"]),
    "eta-flag-inf": run(MESHED, "field 'eta'", flags=["--eta", "inf"]),
    "eta-flag-not-a-number": run(MESHED, "field 'eta'", flags=["--eta", "soon"]),
    "eta-bool": run({**MESHED, "eta": True}, "field 'eta'"),
    "eta-negative": run({**MESHED, "eta": -0.5}, "field 'eta'"),
    "eta-sweep-negative": run({**MESHED, "eta_sweep": [0.01, -1.0]}, "field 'eta_sweep'"),
    "eta-sweep-not-a-list": run({**MESHED, "eta_sweep": 0.01}, "field 'eta_sweep'"),
    "modes-negative": run({**MESHED, "modes": -3}, "field 'modes'"),
    "modes-zero": run({**MESHED, "modes": 0}, "field 'modes'"),
    "modes-fraction": run({**MESHED, "modes": 2.5}, "field 'modes'"),
    "modes-bool": run({**MESHED, "modes": True}, "field 'modes'"),
    "modes-flag-negative": run(MESHED, "field 'modes'", flags=["--modes", "-3"]),
    "degrees-zero": run({**MESHED, "degrees": [0]}, "field 'degrees'"),
    "degrees-not-a-list": run({**MESHED, "degrees": 2}, "field 'degrees'"),
    "degrees-bool": run({**MESHED, "degrees": [True]}, "field 'degrees'"),
    "degrees-empty": run({**MESHED, "degrees": []}, "field 'degrees'"),
    "degree-70": run({**MESHED, "degrees": [70]}, "field 'degrees'"),
    "degree-above-max": run({**MESHED, "degrees": [2, MAX_DEGREE + 1]}, "field 'degrees'"),
    "reference-degree-zero": run({**MESHED, "reference_degree": 0}, "field 'reference_degree'"),
    "reference-degree-70": run({**MESHED, "reference_degree": 70}, "field 'reference_degree'"),
    "reference-refine-fraction": run({**MESHED, "reference_refine": 1.5},
                                     "field 'reference_refine'"),
    "reference-misspelt": run({**MESHED, "reference": "exakt"}, "field 'reference'"),
    "name-not-a-string": run({**MESHED, "name": 3}, "field 'name'"),
    "kappa-not-a-string": run({**MESHED, "kappa": 4}, "field 'kappa'"),
    "kappa-syntax": run({**MESHED, "kappa": "1 +"}, "field 'kappa'"),
    "kappa-unexpected-character": run({**MESHED, "kappa": "1 $ x"}, "field 'kappa'",
                                      "unexpected character '$' (at position 2)"),
    "kappa-malformed-number": run({**MESHED, "kappa": "1.2.3"}, "field 'kappa'",
                                  "malformed number (at position 0)"),
    "kappa-function-without-parenthesis": run({**MESHED, "kappa": "sin x"}, "field 'kappa'",
                                              "expected '(' (at position 4)"),
    "kappa-nested-parentheses": run({**MESHED, "kappa": "(" * 200 + "1" + ")" * 200},
                                    "field 'kappa'", "nested deeper"),
    "kappa-nested-minuses": run({**MESHED, "kappa": "-" * 1000 + "1"}, "field 'kappa'",
                                "nested deeper"),
    "stiffen-not-recognized": run({**MESHED, "stiffen": True}, "field 'stiffen'"),
    "jump-ratio-not-a-bool": run({**MESHED, "jump_ratio": 1}, "field 'jump_ratio'"),
    "eigenfunction-modes-zero": run({**MESHED, "eigenfunction_modes": [0]},
                                    "field 'eigenfunction_modes'"),
    # no degree reports a mode above `modes`, so none would carry its errors
    "eigenfunction-mode-above-modes": run(
        {**MESHED, "degrees": [2], "eigenfunction_modes": [1, 5], "modes": 4},
        "fields 'eigenfunction_modes' and 'modes'", "mode 5"),
    "eigenfunction-mode-above-modes-flag": run(
        {**MESHED, "degrees": [2], "eigenfunction_modes": [1, 5]},
        "fields 'eigenfunction_modes' and 'modes'", "mode 5", flags=["--modes", "4"]),
    "face-weight-median": run({**MESHED, "face_weight": "median"}, "field 'face_weight'"),
    "ladder-block-without-n": ladder({"degree": 2}),
    "ladder-degree-not-an-integer": ladder({"degree": "x", "n": [4]}),
    "ladder-block-unknown-key": ladder({"degree": 1, "n": [4], "modes": 2}),
    "ladder-empty": ladder(),
    "ladder-degree-70": ladder({"degree": 70, "n": [4]}),
    "ladder-repeated-track-mode": ladder({"degree": 1, "n": [8, 16], "track_modes": [1, 1]}),
    "ladder-repeated-n": ladder({"degree": 1, "n": [8, 8, 16]}),
    "ladder-repeated-degree": ladder({"degree": 1, "n": [8, 16]}, {"degree": 1, "n": [32, 64]}),
    "ladder-kappa-not-one": run({**LADDER, "kappa": "4"}, "field 'kappa'"),
    "ladder-kappa-syntax": run({**LADDER, "kappa": "(1"}, "field 'kappa'"),
    "ladder-with-mesh": run({**LADDER, "mesh": {"type": "uniform", "n": 4}}, "field 'mesh'"),
    "ladder-with-face-weight": run({**LADDER, "face_weight": "mean"}, "field 'face_weight'"),
    "ladder-with-modes": run({**LADDER, "modes": 3}, "field 'modes'"),
    "ladder-one-cell-no-dof": ladder({"degree": 1, "n": [1, 2]}),
    "ladder-track-mode-above-the-modes": ladder({"degree": 1, "n": [2, 4], "track_modes": [5]}),
    # mesh specs
    "mesh-not-an-object": mesh("x", "field 'mesh'"),
    "uniform-without-n": mesh({"type": "uniform", "d": 1}, "field 'n'"),
    "l-shape-without-n": mesh({"type": "l-shape"}, "field 'n'"),
    "cartesian-without-breakpoints": mesh({"type": "cartesian"}, "field 'breakpoints'"),
    "file-without-path": mesh({"type": "file"}, "field 'path'"),
    "uniform-n-not-an-integer": mesh({"type": "uniform", "n": "x"}, "field 'n'"),
    "uniform-n-zero": mesh({"type": "uniform", "n": 0}, "field 'n'"),
    "unit-square-n-fraction": mesh({"type": "unit-square", "n": 2.5}, "field 'n'"),
    "l-shape-n-negative": mesh({"type": "l-shape", "n": -2}, "field 'n'"),
    "uniform-d-fraction": mesh({"type": "uniform", "n": 4, "d": 1.5}, "field 'd'"),
    "uniform-d-4": mesh({"type": "uniform", "n": 4, "d": 4}, "field 'd'"),
    "cartesian-breakpoint-not-a-number": mesh({"type": "cartesian", "breakpoints": [[0, "x"]]},
                                              "field 'breakpoints'"),
    "cartesian-no-axis": mesh({"type": "cartesian", "breakpoints": []}, "field 'breakpoints'"),
    "cartesian-four-axes": mesh({"type": "cartesian", "breakpoints": [[0, 1]] * 4},
                                "field 'breakpoints'"),
    "file-path-not-a-string": mesh({"type": "file", "path": 0}, "field 'path'"),
    "uniform-unknown-field-dim": mesh({"type": "uniform", "n": 4, "dim": 2}, "field 'dim'"),
    "unit-square-unknown-field-d": mesh({"type": "unit-square", "n": 2, "d": 3}, "field 'd'"),
    "reference-refine-on-a-mesh-file": run(
        {**FILE_MESH, "degrees": [3], "reference": "high-order", "reference_refine": 2},
        "field 'reference_refine'", files={"bad.mesh": SQUARE_MESH}),
    # a cell two ulps wide, split in four, rounds to nothing
    "reference-refine-rounds-breakpoints-together": mesh(
        {"type": "cartesian", "breakpoints": [[0, 1, 1 + 2**-51]]}, "field 'reference_refine'",
        "strictly ascending", reference="high-order", reference_refine=4),
    # the size rule, from the config before anything is built
    "uniform-n-oversized": mesh({"type": "uniform", "n": 10**30, "d": 1}, "field 'n'"),
    "unit-square-n-oversized": mesh({"type": "unit-square", "n": 10**12}, "field 'n'"),
    "ladder-n-oversized": ladder({"degree": 1, "n": [10**21]}),
    "ladder-track-mode-oversized": ladder({"degree": 1, "n": [4], "track_modes": [10**23]}),
    "reference-refine-oversized": run({**MESHED, "reference": "high-order",
                                       "reference_refine": 10**24}, "field 'reference_refine'"),
    # on the Kronecker path the run builds the 3D space only to read eigenfunctions
    "kronecker-eigenfunctions-oversized": mesh({"type": "uniform", "n": 64, "d": 3},
                                               "fields 'mesh' and 'degrees'", degrees=[3],
                                               eigenfunction_modes=[1]),
    # 1.37M dofs, and element matrices of 8.6 GB
    "default-reference-3d-oversized": mesh(
        {"type": "uniform", "n": 4, "d": 3}, "fields 'reference_degree' and 'reference_refine'",
        "over the size limit", kappa="1 + x", degrees=[2], reference="high-order"),
    # rejected after the output directory is made; a mesh file is counted once read
    "mesh-file-over-the-size-rule": run({**FILE_MESH, "degrees": [59]},
                                        "fields 'mesh' and 'degrees'", "over the size limit",
                                        files={"bad.mesh": SQUARE_MESH_8}, leaves=()),
    "mesh-file-reference-over-the-size-rule": run(
        {**FILE_MESH, "reference": "high-order", "reference_degree": 59, "reference_refine": 1},
        "fields 'reference_degree' and 'reference_refine'", "over the size limit",
        files={"bad.mesh": SQUARE_MESH_8}, leaves=()),
    **{f"kappa-{name}-{d}d": mesh({"type": "uniform", "n": 3, "d": d}, "kappa is not",
                                  kappa=kappa, leaves=())
       for name, kappa in KAPPAS.items() for d in (1, 2)},
    "eta-overflow-ladder": run("table1", "field 'eta'", "1e+308", flags=["--eta", "1e308"],
                               leaves=()),
    "eta-overflow-unit-square": mesh({"type": "unit-square", "n": 3}, "field 'eta'", "1e+308",
                                     eta=1e308, leaves=()),
    "eta-overflow-modes": mesh({"type": "unit-square", "n": 3}, "field 'eta'", "1e+308",
                               eta=1e308, modes=2, leaves=()),
    "eta-overflow-eta-sweep": mesh(
        {"type": "cartesian", "breakpoints": [[0, 0.3, 0.5, 1], [0, 0.2, 0.7, 1]]},
        "field 'eta_sweep'", "1e+308", eta_sweep=[1e308], leaves=("spectrum.csv", "spectrum_p1.csv")),
    # a reference space of 3 modes for 11 reported ones
    "reference-with-too-few-modes": run(
        {**MESHED, "degrees": [3], "reference": "high-order", "reference_degree": 1,
         "reference_refine": 1}, "fields 'reference_degree' and 'reference_refine'", leaves=()),
    "one-cell-no-dof": mesh({"type": "uniform", "n": 1, "d": 1},
                            "fields 'mesh' and 'degrees'", leaves=()),
    "kronecker-reference-no-dof": mesh(
        {"type": "uniform", "n": 1, "d": 2}, "fields 'reference_degree' and 'reference_refine'",
        degrees=[2], reference="high-order", reference_degree=1, reference_refine=1, leaves=()),
    "exact-reference-l-shape": mesh({"type": "l-shape", "n": 2}, "field 'reference'",
                                    reference="exact", leaves=()),
    "exact-reference-interval-0-3": mesh({"type": "cartesian", "breakpoints": [[0, 1, 2, 3]]},
                                         "field 'reference'", reference="exact", leaves=()),
    **{f"eigenfunction-modes-{name}": mesh(spec, "field 'eigenfunction_modes'", kappa=kappa,
                                           degrees=[2], eigenfunction_modes=[1, 2], leaves=())
       for name, kappa, spec in [
           ("l-shape-variable-kappa", "1 + 0.9*sin(3*x)", {"type": "l-shape", "n": 3}),
           ("l-shape", "1", {"type": "l-shape", "n": 3}),
           ("square-variable-kappa", "1 + x", {"type": "uniform", "n": 3, "d": 2}),
           ("triangles-variable-kappa", "1 + x", {"type": "unit-square", "n": 2})]},
    # at p = 20 the simplex basis is far from nodal (lambda_1 on this mesh
    # would be 13.85, below 2 pi^2 = 19.74)
    "degree-20-not-nodal": mesh({"type": "unit-square", "n": 2}, "field 'degrees'",
                                "is not nodal", degrees=[20], reference="exact", leaves=()),
    "reference-degree-16-not-nodal": mesh(
        {"type": "unit-square", "n": 2}, "field 'reference_degree'", "is not nodal",
        degrees=[2], reference="high-order", reference_degree=16, reference_refine=1, leaves=()),
    **{f"run-on-mesh-file-{name}": run(FILE_MESH, says, files={"bad.mesh": text}, leaves=())
       for name, (text, says) in MESH_FILES.items()},
    # with the mean h_F the faces of the two small cells are overweighted and
    # the softened pencil is indefinite at the default eta = 1/12
    "coercivity-violation": mesh({"type": "cartesian", "breakpoints": [[0, 0.01, 0.02, 0.5, 1]]},
                                 "indefinite at default eta", code=4, degrees=[1, 2],
                                 face_weight="mean", leaves=()),
    # M is SPD; the huge eta makes the dense eigensolve itself fail, which
    # is not the "mass matrix is not SPD" failure
    "dense-eigensolve-failure": mesh({"type": "uniform", "n": 3, "d": 3},
                                     "dense eigensolve failed", code=3, degrees=[2], eta=1e306,
                                     leaves=()),
    # 9,801 dofs without `modes`: a full dense solve over gevp.MAX_DENSE_ORDER,
    # refused before the dense copies are made
    "dense-order-over-limit": mesh({"type": "unit-square", "n": 100}, "order 9801", "'modes'",
                                   code=3, degrees=[1], leaves=()),
    # the other commands
    **{f"mesh-info-{name}": Row(["mesh-info", "$TMP/bad.mesh"], 2, (says,), {"bad.mesh": text})
       for name, (text, says) in MESH_FILES.items()},
    "mesh-info-missing-file": Row(["mesh-info", "$TMP/missing.mesh"], 2,
                                  ("cannot read mesh file '$TMP/missing.mesh'",)),
    "trace-check-p0": trace_check(0, "interval", "--p"),
    "trace-check-p70": trace_check(70, "interval", "--p"),
    "trace-check-above-max": trace_check(MAX_DEGREE + 1, "cuboid", "--p"),
    "trace-check-negative-p": trace_check(-1, "simplex", "--p"),
    "trace-check-simplex-p20-not-nodal": trace_check(20, "simplex", "--p 20", "is not nodal"),
}
OVERSIZED = [name for name in BAD_INPUTS if name.endswith("-oversized")]


def check(row, tmp_path, capsys):
    """Run the row and check its exit code, its one error line and what it
    says, and the --out directory of a run."""
    for name, content in row.files.items():
        if isinstance(content, dict):
            content = json.dumps(content)
        if isinstance(content, str):
            content = content.replace("$TMP", str(tmp_path)).encode()
        (tmp_path / name).write_bytes(content)
    argv = [arg.replace("$TMP", str(tmp_path)) for arg in row.argv]
    assert cli.main(argv) == row.code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    assert err.startswith(PREFIX[row.code]), err
    for text in row.says:
        assert text.replace("$TMP", str(tmp_path)) in err, err
    if argv[0] == "run":
        out = argv[argv.index("--out") + 1]
        if row.leaves is None:
            assert not os.path.isdir(out)
        else:
            assert sorted(os.listdir(out)) == sorted(row.leaves)


@pytest.mark.parametrize("row", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input(tmp_path, capsys, row):
    check(row, tmp_path, capsys)


def covered(row):
    """The config fields and (spec type, field) pairs of mesh specs that the
    row gives a value its rule rejects, naming them: a config field whose
    value fails its `_FIELDS` test, or a field of the spec that is named."""
    config, says = row.files.get("cfg.json"), " ".join(row.says)
    if row.code != 2 or not isinstance(config, dict):
        return set()
    named = set(re.findall(r"field '(\w+)'", says))
    out = {key for key, value in config.items()
           if key in named and key in speclab._FIELDS and not speclab._FIELDS[key][1](value)}
    spec = config.get("mesh")
    if isinstance(spec, dict) and spec.get("type") in SPEC_FIELDS:
        out |= {(spec["type"], name) for name in SPEC_FIELDS[spec["type"]]
                if name in spec and name in named}
    return out


def test_every_field_has_a_rejected_value():
    fields = set(speclab._FIELDS) | {(kind, name) for kind, names in SPEC_FIELDS.items()
                                     for name in names}
    found = set().union(*map(covered, BAD_INPUTS.values()))
    assert fields - found == set()


@pytest.mark.parametrize("name", OVERSIZED)
def test_oversized_inputs_build_no_mesh_or_space(tmp_path, capsys, monkeypatch, name):
    """Each is rejected from the config alone: no mesh or FE space is built,
    and less than 1 MiB is allocated."""
    def built(*args, **kwargs):
        raise AssertionError("built a mesh or a space")

    monkeypatch.setattr(Mesh, "__init__", built)
    monkeypatch.setattr(assembly, "_finish_space", built)
    tracemalloc.start()
    try:
        check(BAD_INPUTS[name], tmp_path, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
