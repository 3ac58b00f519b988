"""Command-line front end.

softfem run <config.json|preset> [--out DIR] [--modes K] [--eta ...]
softfem trace-check --p P --kind {interval,cuboid,simplex}
softfem mesh-info <meshfile>

Exit codes: 0 success, 1 trace-check status=violated, 2 bad configuration,
3 solver failure (a failed eigensolve, or a dense one over
gevp.MAX_DENSE_ORDER), 4 coercivity violation under the default softness
parameter.
"""

import argparse
import json
import sys

import numpy as np
from numpy.polynomial.legendre import legvander
from scipy.sparse import csr_matrix, diags

from . import assembly, speclab
from .assembly import AssemblyError
from .coefficient import CoefficientParseError
from .gevp import EigensolveError, largest_eigenvalue
from .mesh import InvalidMeshError, load_mesh, mesh_from_spec
from .polyref import MAX_DEGREE, BasisError
from .speclab import CoercivityViolation, ConfigError


def _load_config(target):
    if target in speclab.PRESETS:
        return dict(speclab.PRESETS[target])
    try:
        with open(target, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config {target!r}: no such preset or file")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"config {target!r}: cannot read the file ({err})")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {target!r}: invalid JSON ({err})")
    return data


def cmd_run(args):
    cfg = _load_config(args.target)
    if isinstance(cfg, dict):  # the config rule rejects anything else as it is
        if args.modes is not None:
            cfg["modes"] = args.modes
        if args.eta is not None:  # a number, or text; the config rule checks either
            try:
                cfg["eta"] = float(args.eta)
            except ValueError:
                cfg["eta"] = args.eta
    summary = speclab.run_experiment(cfg, args.out)
    if "by_degree" in summary:
        for p, block in sorted(summary["by_degree"].items(), key=lambda kv: int(kv[0])):
            line = (
                f"p={p} ndof={block['n_dofs']} solver={summary['solver'][p]} "
                f"eta={block['eta']:.6g} lam_max={block['lambda_max_fem']:.5g}"
            )
            if block.get("rho") is not None:
                line += f" soft_lam_max={block['lambda_max_soft']:.5g} rho={block['rho']:.4f}"
            print(line)
    else:
        for p, block in sorted(summary["ladder"].items(), key=lambda kv: int(kv[0])):
            for mode, data in sorted(block["modes"].items(), key=lambda kv: int(kv[0])):
                rates = {q: data["rates"][q]["rate"] for q in ("relerr", "h1", "l2")}
                print(f"p={p} mode={mode} rates={rates}")
    print(f"wrote {args.out}/summary.json")
    return 0


def cmd_trace_check(args):
    """The exact maximum of the trace ratio, the largest eigenvalue of one
    pencil, against its bound: x'Sx / x'Kx <= 1/eta_max on a small mesh, or
    on the interval the end-value form of a degree-p Legendre series
    against its Gram matrix, whose maximum is C1(0,p)^2 exactly."""
    p = args.p
    if not 1 <= p <= MAX_DEGREE:
        raise ConfigError(f"--p must be an integer in [1, {MAX_DEGREE}]")
    if args.kind == "interval":  # h = 2: the pencil (2 E'E, diag 2/(2k+1))
        E = legvander(np.array([-1.0, 1.0]), p)
        A, B = csr_matrix(2.0 * E.T @ E), diags(2.0 / (2 * np.arange(p + 1) + 1)).tocsr()
        bound = (p + 1) * (p + 2)  # C1(0,p)^2
    else:
        if args.kind == "cuboid":  # 2x2 cells: an interior dof at every p
            mesh = mesh_from_spec({"type": "uniform", "n": 2, "d": 2})
        else:
            mesh = mesh_from_spec({"type": "unit-square", "n": 2})
        bound = 1.0 / assembly.softness_parameters(p)["eta_max"]
        try:
            space = assembly.build_space(mesh, p)
        except BasisError as err:
            raise ConfigError(f"--p {p}: {err}") from None
        A, B = assembly.assemble_penalty(space), assembly.assemble_stiffness(space)
    worst = largest_eigenvalue(A, B)
    print(f"kind={args.kind} p={p} bound={bound:.12g} max_ratio={worst:.12g}")
    ok = worst <= bound * (1 + 1e-10)
    if args.kind == "interval":  # the bound is also attained
        ok = ok and worst >= bound * (1 - 1e-10)
    print("status=ok" if ok else "status=violated")
    return 0 if ok else 1


def cmd_mesh_info(args):
    mesh = load_mesh(args.meshfile)
    print(f"kind={mesh.kind} d={mesh.d}")
    print(
        f"vertices={len(mesh.vertices)} elements={mesh.n_elements} "
        f"interfaces={len(mesh.interfaces)}"
    )
    print(f"h_max={mesh.h.max():.12g} h_min={mesh.h.min():.12g} h0_min={mesh.h0.min():.12g}")
    print(f"volume={mesh.volumes.sum():.12g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="softfem",
        description="Spectral laboratory for Galerkin and softened FEM pencils.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config or preset")
    run.add_argument("target", help="JSON config path or preset name")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--modes", type=int, default=None, help="limit reported modes")
    run.add_argument("--eta", default=None, help="number, 'default', or 'galerkin'")
    run.set_defaults(func=cmd_run)

    tc = sub.add_parser("trace-check", help="verify a discrete trace constant")
    tc.add_argument("--p", type=int, required=True)
    tc.add_argument("--kind", required=True, choices=["interval", "cuboid", "simplex"])
    tc.set_defaults(func=cmd_trace_check)

    mi = sub.add_parser("mesh-info", help="print statistics for a mesh file")
    mi.add_argument("meshfile")
    mi.set_defaults(func=cmd_mesh_info)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CoefficientParseError, InvalidMeshError, AssemblyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except EigensolveError as err:  # MassNotSpdError is one too
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    except CoercivityViolation as err:
        print(f"coercivity violation: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
