"""Error metrics, convergence studies, and the experiment runner.

Reproduces the paper-style tables and figures as CSV/JSON reports. The CSV
schema is fixed as
j,frac,lambda_ref,lambda_fem,lambda_soft,relerr_fem,relerr_soft,h1err,l2err,jump_ratio
with empty fields for unrequested columns.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import gevp, oracle
from .assembly import (
    assemble_mass,
    assemble_penalty,
    assemble_stiffness,
    build_space,
    soften,
    softness_parameters,
)
from .coefficient import UNIT, CoefficientParseError, parse_coefficient
from .mesh import (
    InvalidMeshError,
    MeshOutline,
    _check_entries,
    _spec_outline,
    build_cartesian_mesh,
    mesh_from_spec,
)
from .polyref import MAX_DEGREE, BasisError


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


class CoercivityViolation(RuntimeError):
    """Negative softened pencil eigenvalue under the default eta policy."""


class MultiplicityError(RuntimeError):
    """Eigenfunction comparison requested inside a degenerate cluster."""


CSV_HEADER = (
    "j,frac,lambda_ref,lambda_fem,lambda_soft,"
    "relerr_fem,relerr_soft,h1err,l2err,jump_ratio"
)


# -- per-mode metrics ------------------------------------------------------


def eigenvalue_error_curve(values, reference):
    """Mode-sorted relative eigenvalue errors |lam_h - lam| / lam."""
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if len(reference) < len(values):
        raise ValueError("reference spectrum has fewer modes than the discrete one")
    ref = reference[: len(values)]
    return np.abs(values - ref) / ref


def _full_coefficients(space, reduced):
    full = np.zeros(space.n_full)
    full[space.reduced_to_full] = reduced
    return full


def _require_simple(values, j):
    clusters = gevp.cluster_eigenvalues(values)
    for cluster in clusters:
        if j in cluster and len(cluster) > 1:
            raise MultiplicityError(
                f"eigenvalue {j} lies in a degenerate cluster of size {len(cluster)}"
            )


def eigenfunction_errors(space, spectrum, exact, j):
    """H1-seminorm and L2 errors of discrete mode j against the exact one.

    Modes are 0-based here. The discrete eigenfunction is sign-aligned with
    the exact one through their L2 inner product.
    """
    _require_simple(spectrum.values, j)
    _require_simple(exact.values, j)
    return _coefficient_errors(space, spectrum.vector(j), exact, j)[0]


def _coefficient_errors(space, coeffs, exact, j):
    """({'h1', 'l2'}, sign): errors of the FE function with reduced
    coefficients `coeffs` against exact mode j, after multiplying it by the
    sign that makes its L2 inner product with the mode nonnegative."""
    uval, ugrad = exact.eigenfunction(j)
    quad, V, G = space.error_tables
    emap = space.element_tables[3]
    pts = emap.to_phys(quad.nodes).reshape(-1, space.mesh.d)
    w = (quad.weights * emap.detj[:, None]).ravel()
    loc = _full_coefficients(space, coeffs)[space.element_dofs]
    vh = (loc @ V.T).ravel()
    gh = (np.einsum("el,qld->eqd", loc, G) @ emap.Jinv).reshape(pts.shape)
    ue, ge = uval(pts), ugrad(pts)
    sign = 1.0 if np.sum(w * vh * ue) >= 0 else -1.0
    l2_sq = np.sum(w * (sign * vh - ue) ** 2)
    h1_sq = np.sum(w * ((sign * gh - ge) ** 2).sum(axis=1))
    return {"h1": math.sqrt(h1_sq), "l2": math.sqrt(l2_sq)}, sign


def jump_energy_ratio(spectrum, eta, K, S):
    """Per-mode ratio eta * (x'Sx) / (x'Kx) for all eigenvectors x.

    For a factored spectrum, K and S are the 1D K1 and S1 of its factor:
    with M1-orthonormal 1D vectors x_a, x'Kx = sum_a x_a'K1x_a, and likewise
    for S, so each mode costs O(d n1).
    """
    X = spectrum.checked_vectors()
    energy = np.array([[x @ (A @ x) for x in X.T] for A in (K, S)])
    if spectrum.factor is not None:
        energy = energy[:, spectrum.indices].sum(axis=1)
    kx, sx = energy
    if np.any(kx <= 0):
        raise ValueError("nonpositive stiffness energy")
    return eta * sx / kx


def convergence_rates(h_values, errors, floor=1e-13):
    """Least-squares slope of log(error) vs log(h).

    Levels with error at or below `floor` are dropped from the fit; the
    dropped levels are reported. `floor` is a scalar or one value per level,
    such as the per-level `rounding_floor` of an eigenvalue error.
    """
    h_values = np.asarray(h_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > floor
    dropped = [int(i) for i in np.flatnonzero(~keep)]
    if keep.sum() < 2:
        return {"rate": float("nan"), "dropped_levels": dropped}
    slope = np.polyfit(np.log(h_values[keep]), np.log(errors[keep]), 1)[0]
    return {"rate": float(slope), "dropped_levels": dropped}


# Relative eigenvalue errors within this factor of eps * lambda_max / lambda_j
# are rounding noise: they move with the LAPACK driver and the dof order.
ROUNDING_MULTIPLE = 10.0


def rounding_floor(spectrum, j):
    """Smallest relative error of eigenvalue j (0-based) that a dense solve
    resolves.

    A dense symmetric eigensolver has absolute eigenvalue error of about
    eps * lambda_max (Parlett, The Symmetric Eigenvalue Problem, 1998), so a
    relative error of mode j under ROUNDING_MULTIPLE times
    eps * lambda_max / lambda_j is not resolved. ValueError if the spectrum
    has no lambda_max (a sparse partial solve).
    """
    return ROUNDING_MULTIPLE * np.finfo(float).eps * float(
        spectrum.checked_lambda_max() / spectrum.values[j]
    )


# -- experiment runner -----------------------------------------------------


class ExperimentConfig(SimpleNamespace):
    """Declarative description of a spectral experiment: one attribute per
    entry of `_FIELDS`, with `kappa` parsed into a CoefficientField."""

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict) or not data:
            raise ConfigError("config: expected a non-empty JSON object")
        for key in data:
            if key not in _FIELDS:
                raise ConfigError(f"config field {key!r} is not recognized")
        if "name" not in data:
            raise ConfigError("config field 'name' is required")
        for key, value in data.items():
            _, valid, expected = _FIELDS[key]
            if not valid(value):
                raise ConfigError(f"config field {key!r} must be {expected}")
        cfg = cls(**{key: data.get(key, default) for key, (default, _, _) in _FIELDS.items()})
        try:
            cfg.kappa = parse_coefficient(cfg.kappa)
        except CoefficientParseError as err:
            raise ConfigError(f"config field 'kappa': {err}") from None
        if cfg.ladder is None:
            if cfg.mesh is None:
                raise ConfigError("config field 'mesh' (or 'ladder') is required")
            top = max(cfg.eigenfunction_modes, default=0)
            if cfg.modes is not None and top > cfg.modes:
                raise ConfigError("config fields 'eigenfunction_modes' and 'modes': "
                                  f"mode {top} is above the {cfg.modes} modes reported")
            return cfg
        # a ladder refines uniform 1D meshes and scores them against the
        # exact kappa = 1 spectrum
        for key in data:
            if key not in ("name", "kappa", "eta", "ladder"):
                raise ConfigError(f"config field {key!r} does not apply to a ladder")
        if cfg.kappa.constant != 1.0:
            raise ConfigError("config field 'kappa' must be 1 in a ladder")
        return cfg


def _is_count(value):
    """An integer >= 1 (bool is not one)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _is_degree(value):
    """A polynomial degree in [1, MAX_DEGREE]."""
    return _is_count(value) and value <= MAX_DEGREE


def _is_counts(value, item=_is_count):
    """A non-empty list of values that pass `item` (integers >= 1 by default)."""
    return isinstance(value, list) and len(value) > 0 and all(item(v) for v in value)


def _is_eta(value):
    """A numeric softness parameter: a finite number >= 0 (bool is not one)."""
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    return numeric and 0 <= value < math.inf


def _is_distinct(values):
    """No two of the numbers compare equal (so 0.0 and -0.0 repeat)."""
    return len(set(values)) == len(values)


def _is_ladder(blocks):
    """A non-empty list of {'degree', 'n', 'track_modes'} blocks of distinct
    degrees, each with distinct `n` and `track_modes` entries."""
    return isinstance(blocks, list) and len(blocks) > 0 and all(
        isinstance(b, dict)
        and set(b) <= {"degree", "n", "track_modes"}
        and _is_degree(b.get("degree"))
        and all(_is_counts(v) and _is_distinct(v) for v in (b.get("n"), b.get("track_modes", [1])))
        for b in blocks
    ) and _is_distinct([b["degree"] for b in blocks])


# every config field: (default, validity test of a given value, what it must be)
_FIELDS = {
    "name": (None, lambda v: isinstance(v, str), "a string"),
    "kappa": ("1", lambda v: isinstance(v, str), "a string"),
    "mesh": (None, lambda v: v is None or isinstance(v, dict), "an object with a 'type'"),
    "degrees": ((1,), lambda v: _is_counts(v, _is_degree) and _is_distinct(v),
                f"a non-empty list of distinct integers in [1, {MAX_DEGREE}]"),
    "eta": ("default", lambda v: v in ("galerkin", "default") or _is_eta(v),
            "'galerkin', 'default', or a finite number >= 0"),
    "modes": (None, lambda v: v is None or _is_count(v), "an integer >= 1 or null"),
    "reference": ("none", lambda v: v in ("exact", "high-order", "none"),
                  "exact, high-order, or none"),
    "reference_degree": (7, _is_degree, f"an integer in [1, {MAX_DEGREE}]"),
    "reference_refine": (4, _is_count, "an integer >= 1"),
    "jump_ratio": (False, lambda v: isinstance(v, bool), "true or false"),
    "eigenfunction_modes": ((), lambda v: v == [] or _is_counts(v), "a list of integers >= 1"),
    # 'local' h_F, or 'mean' element size
    "face_weight": ("local", lambda v: v in ("local", "mean"), "'local' or 'mean'"),
    # extra explicit eta values to rerun with
    "eta_sweep": (None, lambda v: v is None or (
        isinstance(v, list) and all(_is_eta(e) for e in v) and _is_distinct(v)
    ), "a list of distinct finite numbers >= 0"),
    "ladder": (  # blocks of a mesh-refinement study
        None, lambda v: v is None or _is_ladder(v),
        "a list of blocks {'degree': p, 'n': [...], 'track_modes': [...]} "
        f"of integers >= 1, with distinct degrees p <= {MAX_DEGREE} and no entry "
        "repeated in a list ('track_modes' is optional)",
    ),
}


@dataclass
class SolveBundle:
    """Both spectra of a problem on the degree-`p` space of `mesh`, and the
    pencil K, M, S as assembled on the space `base`.

    `factors` is d on the Kronecker path: `base` is the 1D space on
    `mesh.axes[0]`, both spectra are factored over its spectra, and the
    d-dimensional space is built when `space` is first read. Otherwise
    `factors` is 1 and `base` is the space.
    """

    mesh: object
    p: int
    base: object
    factors: int
    K: object
    M: object
    S: object
    fem: object
    soft: object
    eta: float
    built_space: object = field(default=None, repr=False)

    @property
    def ndof(self):
        return self.base.ndof ** self.factors

    @property
    def space(self):
        """The degree-p FE space on the mesh."""
        if self.factors == 1:
            return self.base
        if self.built_space is None:
            self.built_space = build_space(self.mesh, self.p)
        return self.built_space

    @property
    def solver(self):
        """The path of the two spectra: one name, or 'fem,soft' if they differ."""
        fem, soft = self.fem.path, self.soft.path
        return fem if fem == soft else f"{fem},{soft}"


# Cell widths that agree to this relative tolerance count as congruent on
# the Kronecker path; h_F then moves the penalty by at most as much.
CONGRUENT_RTOL = 1e-12


def _is_kronecker_sum(mesh, kappa):
    """Whether the pencils of `mesh` and the coefficient `kappa` are
    Kronecker sums of the 1D pencils on `mesh.axes[0]`.

    On a tensor mesh in d >= 2 with the same breakpoints on every axis,
    congruent cells and constant kappa, K = sum_a K1 x M1 x M1,
    S = sum_a S1 x M1 x M1 (the face rule is exact for the tangential mass,
    and h_F = h) and M = M1 x M1 x M1, axis 0 fastest. Every eigenpair is
    then a sum of d 1D eigenvalues with the Kronecker product of their
    eigenvectors: the fast diagonalization of Lynch, Rice & Thomas, Numer.
    Math. 6 (1964).
    """
    if mesh.kind != "tensor" or mesh.d < 2 or kappa.constant is None:
        return False
    axis = mesh.axes[0]
    if any(not np.array_equal(b, axis) for b in mesh.axes[1:]):
        return False
    widths = np.diff(axis)
    return bool(np.ptp(widths) <= CONGRUENT_RTOL * widths.max())


def _check_sizes(cfg, mesh=None):
    """Check every space of the run against the size rule (see
    mesh.MAX_ENTRIES), and that each ladder level has its track modes. From
    the config alone, so before anything is built, unless `mesh` is given:
    a file mesh, whose spaces are known once it is read."""
    spaces = []  # (outline, degree, the fields it names, whether the d-dimensional space is read)
    if cfg.ladder is not None:
        for block in cfg.ladder:
            p, track = block["degree"], max(block.get("track_modes", [1]))
            for n in block["n"]:  # a uniform 1D mesh of n cells: n p - 1 dofs
                if track > n * p - 1:
                    raise ConfigError(
                        f"config field 'ladder': track mode {track} is above the "
                        f"mode count {n * p - 1} of degree {p} at n={n}"
                    )
                spaces.append((MeshOutline("tensor", 1, n, None), p, "config field 'ladder'",
                               False))
    else:
        outline = _spec_outline(cfg.mesh) if mesh is None else mesh
        spaces = [(outline, p, "config fields 'mesh' and 'degrees'", bool(cfg.eigenfunction_modes))
                  for p in cfg.degrees]
        if cfg.reference == "high-order":
            try:
                reference = _spec_outline(cfg.mesh, cfg.reference_refine) if mesh is None else mesh
            except InvalidMeshError as err:
                raise ConfigError(f"config field 'reference_refine': {err}") from None
            spaces.append((reference, cfg.reference_degree,
                           "config fields 'reference_degree' and 'reference_refine'", False))
    for outline, p, fields, dimensional in spaces:
        if outline is None:  # a file spec, checked once read
            continue
        # a solve on the Kronecker path builds the 1D space of axis 0
        if _is_kronecker_sum(outline, cfg.kappa) and not dimensional:
            outline = MeshOutline("tensor", 1, len(outline.axes[0]) - 1, None)
        try:
            _check_entries(outline.kind, outline.d, outline.n_elements, p, fields)
        except InvalidMeshError as err:
            raise ConfigError(str(err)) from None


def _galerkin(mesh, p, kappa, modes, vectors):
    """(base, factors, K, M, fem): the Galerkin half of `solve_problem`, with
    `base` the 1D space and `factors` d where `_is_kronecker_sum` holds (else
    the space and 1), and lambda_max not certified. A BasisError
    propagates, so that each caller names its own config field."""
    factors = mesh.d if _is_kronecker_sum(mesh, kappa) else 1
    base = build_space(build_cartesian_mesh(mesh.axes[:1]) if factors > 1 else mesh, p)
    K = assemble_stiffness(base, kappa)
    M = assemble_mass(base)
    return base, factors, K, M, _solve(K, M, modes, vectors, factors)


def solve_problem(mesh, p, kappa=UNIT, *, eta_policy="default", face_weight="local",
                  modes=None, vectors=True):
    """Assemble and solve both the Galerkin and softened pencils of the
    coefficient field `kappa`.

    face_weight='mean' replaces every h_F by the mesh-average element length
    scale (the convention behind some published 1D non-uniform tables).
    Where `_is_kronecker_sum` holds, only the 1D space is built and only
    the 1D pencil is assembled and solved; the bundle holds it, and both
    spectra are factored over its full 1D spectra. Both spectra hold the
    lowest `modes` modes (all if None) and each pencil's certified
    lambda_max. With `vectors` False, neither spectrum keeps its
    eigenvectors (see `_solve`).
    """
    try:
        base, factors, K, M, fem = _galerkin(mesh, p, kappa, modes, vectors)
    except BasisError as err:
        raise ConfigError(f"config field 'degrees' (or 'ladder'): {err}") from None
    if base.ndof == 0:
        raise ConfigError(
            f"config fields 'mesh' and 'degrees' (or 'ladder'): the degree-{p} space "
            "on this mesh has no interior degree of freedom"
        )
    fem = _certified(fem, K, M)
    face_length = float(np.mean(mesh.h0)) if face_weight == "mean" else None
    S = assemble_penalty(base, kappa, face_length=face_length)
    if eta_policy == "galerkin":
        eta = 0.0
    elif eta_policy == "default":
        eta = softness_parameters(p, mesh.kind, d=mesh.d)["eta_default"]
    else:
        eta = float(eta_policy)
    bundle = SolveBundle(mesh, p, base, factors, K, M, S, fem=fem, soft=fem, eta=0.0)
    bundle = _with_eta(bundle, eta, vectors=vectors)
    if eta_policy == "default" and bundle.soft.values[0] <= 0:
        raise CoercivityViolation(
            f"softened pencil indefinite at default eta={eta}"
        )
    return bundle


def _with_eta(bundle, eta, name="eta", vectors=True):
    """The bundle with its softened pencil solved again at eta, for as many
    modes as the Galerkin spectrum holds, keeping its eigenvectors only if
    `vectors`; K, M, S and the Galerkin spectrum are reused. `name` is the
    config field that gave eta."""
    if eta == 0.0:
        return replace(bundle, soft=bundle.fem, eta=eta)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        A = soften(bundle.K, bundle.S, eta)
    if not np.isfinite(A.data).all():
        raise ConfigError(
            f"config field {name!r}: eta = {eta!r} overflows the softened matrix"
        )
    soft = _certified(_solve(A, bundle.M, bundle.fem.order, vectors, bundle.factors), A, bundle.M)
    return replace(bundle, soft=soft, eta=eta)


def _solve(A, M, k, vectors, factors):
    """The lowest k modes of the pencil (all if k is None); without
    `vectors`, the eigenvectors are dropped as soon as the solve returns, so
    none is held while the next pencil is solved. With `factors` d > 1, the
    1D pencil is solved in full instead, and the result is the factored
    spectrum of the lowest k modes of its d-fold Kronecker sum."""
    if factors > 1:
        return gevp._kronecker_spectrum(_solve(A, M, None, vectors, 1), factors, k)
    spectrum = gevp.solve_gmevp(A, M, k)
    return spectrum if vectors else replace(spectrum, vectors=None)


def _certified(spectrum, A, M):
    """The spectrum of (A, M), with a lambda_max the solve left unset certified."""
    if spectrum.lambda_max is None:
        spectrum = replace(spectrum, lambda_max=gevp.largest_eigenvalue(A, M))
    return spectrum


def _fmt(x):
    return format(float(x), ".17g")


def _reference_values(cfg, exact, count):
    """The lowest `count` reference eigenvalues of the run, or None."""
    if cfg.reference == "exact":
        return exact.values[:count]
    if cfg.reference == "high-order":
        try:
            values = oracle.reference_spectrum(
                {"kappa": cfg.kappa.text, "mesh": cfg.mesh},
                count,
                degree=cfg.reference_degree,
                refine=cfg.reference_refine,
            )
        except BasisError as err:
            raise ConfigError(f"config field 'reference_degree': {err}") from None
        if len(values) < count:
            raise ConfigError(
                "config fields 'reference_degree' and 'reference_refine': the "
                f"reference space has {len(values)} modes, fewer than the {count} reported"
            )
        return values


def _check_exact_modes(cfg, mesh, name):
    """A ConfigError naming config field `name`, which compares with the
    exact kappa = 1 Laplace modes on the unit domain, unless kappa is 1 and
    the mesh covers [0, 1]^d to 1e-12: its bounding box is the unit cube and
    its cells fill it."""
    if cfg.kappa.constant != 1.0:
        raise ConfigError(f"config field {name!r}: exact modes need kappa = 1")
    box = np.array([mesh.vertices.min(axis=0), mesh.vertices.max(axis=0) - 1.0])
    if not (np.abs(box).max() <= 1e-12 and abs(mesh.volumes.sum() - 1.0) <= 1e-12):
        raise ConfigError(
            f"config field {name!r}: exact modes need the unit interval, square or cube"
        )


CSV_BLOCK = 4096


def _format_floats(values):
    """The text of every float in values, as a list: "%.17g" % x, which has
    the bytes of format(x, ".17g"). Each distinct bit pattern is formatted
    once, so 0.0 and -0.0 stay apart; a Kronecker spectrum repeats most of
    its values."""
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64),
                              return_inverse=True)
    text = np.array(["%.17g" % x for x in bits.view(float).tolist()], dtype=object)
    return text[inverse].tolist()


def _spectrum_rows(cfg, bundle, reference, exact=None):
    n, modes = bundle.ndof, bundle.fem.order
    has_soft = bundle.eta != 0.0
    relerr_fem = relerr_soft = None
    if reference is not None:
        relerr_fem = eigenvalue_error_curve(bundle.fem.values[:modes], reference)
        if has_soft:
            relerr_soft = eigenvalue_error_curve(bundle.soft.values[:modes], reference)
    ratios = None
    if cfg.jump_ratio and has_soft:
        ratios = jump_energy_ratio(bundle.soft, bundle.eta, bundle.K, bundle.S)
    h1 = l2 = None
    if cfg.eigenfunction_modes:  # only the rows of the listed simple modes have these
        h1, l2 = [""] * modes, [""] * modes
        target = bundle.soft if has_soft else bundle.fem
        for mode in cfg.eigenfunction_modes:
            if mode <= modes:
                try:
                    errs = eigenfunction_errors(bundle.space, target, exact, mode - 1)
                except MultiplicityError:
                    continue
                h1[mode - 1], l2[mode - 1] = _fmt(errs["h1"]), _fmt(errs["l2"])
    # one "%" per row, with every float column formatted by _format_floats
    number = np.arange(1, modes + 1)
    columns = [
        number / n,
        reference,
        bundle.fem.values,
        bundle.soft.values if has_soft else None,
        relerr_fem,
        relerr_soft,
        h1,
        l2,
        ratios,
    ]
    row = ",".join(["%d"] + ["" if column is None else "%s" for column in columns])
    lines = [CSV_HEADER]
    # a block of rows at a time, so that few cells are Python objects at once
    for start in range(0, modes, CSV_BLOCK):
        rows = slice(start, min(start + CSV_BLOCK, modes))
        cells = [number[rows].tolist()] + [
            column[rows] if isinstance(column, list) else _format_floats(column[rows])
            for column in columns
            if column is not None
        ]
        lines.extend(row % values for values in zip(*cells))
    return "\n".join(lines) + "\n", relerr_fem, relerr_soft


def _top_decile_mean(relerr):
    k = max(1, len(relerr) // 10)
    return float(np.mean(np.sort(relerr)[-k:]))


def _degree_summary(bundle, relerr_fem, relerr_soft):
    mesh = bundle.mesh
    pars = softness_parameters(bundle.p, mesh.kind, d=mesh.d)
    out = {
        "p": bundle.p,
        "n_dofs": bundle.ndof,
        "eta": bundle.eta,
        "eta_max": pars["eta_max"],
        "gamma_p": pars["gamma"],
        "lambda_min_fem": float(bundle.fem.values[0]),
        "lambda_max_fem": bundle.fem.lambda_max,
        "lambda_min_soft": float(bundle.soft.values[0]),
        "lambda_max_soft": bundle.soft.lambda_max,
        "coercivity_margin": float(bundle.soft.values[0]),
    }
    try:
        out.update(gevp.stiffness_reduction(bundle.fem, bundle.soft))
    except gevp.IndefinitePencilError:
        out.update(sigma=None, sigma_soft=None, rho=None, rho_percent=None)
    if relerr_fem is not None:
        out["top_decile_relerr_fem"] = _top_decile_mean(relerr_fem)
        if relerr_soft is not None:
            out["top_decile_relerr_soft"] = _top_decile_mean(relerr_soft)
    return out


def _report(cfg, bundle, reference, exact, out_dir, names):
    """Write the CSV of a bundle under each file name in `names`, and return
    its summary."""
    csv_text, relerr_fem, relerr_soft = _spectrum_rows(cfg, bundle, reference, exact)
    for name in names:
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(csv_text)
    return _degree_summary(bundle, relerr_fem, relerr_soft)


def _run_single(cfg, out_dir):
    mesh = mesh_from_spec(cfg.mesh)
    if cfg.mesh["type"] == "file":  # a file spec refines only to itself
        _check_sizes(cfg, mesh)
    degrees = list(cfg.degrees)
    vectors = cfg.jump_ratio or bool(cfg.eigenfunction_modes)  # the only readers
    summaries = {}
    compares_exact = bool(cfg.eigenfunction_modes) or cfg.reference == "exact"
    if compares_exact:
        name = "eigenfunction_modes" if cfg.eigenfunction_modes else "reference"
        _check_exact_modes(cfg, mesh, name)
    bundles = {
        p: solve_problem(
            mesh, p, cfg.kappa, eta_policy=cfg.eta, face_weight=cfg.face_weight,
            modes=cfg.modes, vectors=vectors,
        )
        for p in degrees
    }
    max_count = max(b.fem.order for b in bundles.values())
    exact = None
    if compares_exact:  # one spectrum for the reference and the eigenfunction errors
        count = max_count if cfg.reference == "exact" else max(cfg.eigenfunction_modes)
        exact = oracle.exact_laplace_spectrum(mesh.d, count + 4)
    full_reference = _reference_values(cfg, exact, max_count)

    for p in degrees:
        bundle = bundles[p]
        reference = None if full_reference is None else full_reference[: bundle.fem.order]
        names = [f"spectrum_p{p}.csv"] + (["spectrum.csv"] if len(degrees) == 1 else [])
        summaries[str(p)] = _report(cfg, bundle, reference, exact, out_dir, names)
        if cfg.eta_sweep:
            summaries[str(p)]["eta_sweep"] = {
                _fmt(eta): _report(
                    cfg, _with_eta(bundle, float(eta), "eta_sweep", vectors),
                    reference, exact, out_dir, [f"spectrum_p{p}_eta{i}.csv"],
                )
                for i, eta in enumerate(cfg.eta_sweep)
            }
    return summaries, {str(p): bundles[p].solver for p in degrees}


def _run_ladder(cfg):
    """Mesh-refinement study tracking eigenpair errors and their rates."""
    results = {}
    for block in cfg.ladder:
        p, ns, track = block["degree"], block["n"], block.get("track_modes", [1])
        exact = oracle.exact_laplace_spectrum(1, max(track) + 2)
        modes = {str(m): {"relerr": [], "h1": [], "l2": []} for m in track}
        floors = {key: [] for key in modes}
        for n in ns:
            mesh = mesh_from_spec({"type": "uniform", "n": n, "d": 1})
            bundle = solve_problem(mesh, p, cfg.kappa, eta_policy=cfg.eta)
            for m in track:
                out, lam = modes[str(m)], exact.values[m - 1]
                out["relerr"].append(abs(float(bundle.soft.values[m - 1]) - lam) / lam)
                floors[str(m)].append(rounding_floor(bundle.soft, m - 1))
                errs = eigenfunction_errors(bundle.space, bundle.soft, exact, m - 1)
                out["h1"].append(errs["h1"])
                out["l2"].append(errs["l2"])
        hs = [1.0 / n for n in ns]
        for key, out in modes.items():
            out["rates"] = {
                "relerr": convergence_rates(hs, out["relerr"], floors[key]),
                "h1": convergence_rates(hs, out["h1"]),
                "l2": convergence_rates(hs, out["l2"]),
            }
        results[str(p)] = {"n": ns, "modes": modes}
    return results


def run_experiment(config, out_dir):
    """Run a config dict (such as a value of PRESETS) and write spectrum CSVs
    and summary.json into out_dir. Returns the summary dict, which also names
    the solver path of each degree under 'solver' (not written to the file)."""
    cfg = ExperimentConfig.from_dict(config)
    _check_sizes(cfg)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out {out_dir!r}: cannot make the output directory ({err})")
    degrees = cfg.degrees if cfg.ladder is None else [block["degree"] for block in cfg.ladder]
    summary = {
        "name": cfg.name,
        "kappa": cfg.kappa.text,
        "eta_policy": cfg.eta if isinstance(cfg.eta, str) else float(cfg.eta),
        "degrees": list(degrees),
        "mesh": cfg.mesh,
    }
    if cfg.ladder is not None:
        summary["ladder"] = _run_ladder(cfg)
    else:
        summary["by_degree"], solvers = _run_single(cfg, out_dir)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if cfg.ladder is None:
        summary["solver"] = solvers
    return summary


PRESETS = {
    "table1": {
        "name": "table1",
        "ladder": [
            {"degree": 1, "n": [8, 16, 32, 64], "track_modes": [1, 6]},
            {"degree": 2, "n": [4, 8, 16, 32, 64], "track_modes": [1, 6]},
            {"degree": 3, "n": [4, 8, 16, 32], "track_modes": [1, 6]},
            {"degree": 4, "n": [4, 8, 16], "track_modes": [1, 6]},
        ],
    },
    "table3": {
        "name": "table3",
        "mesh": {"type": "uniform", "n": 200, "d": 1},
        "degrees": [1, 2, 3, 4, 5],
        "reference": "exact",
    },
    "table4": {
        "name": "table4",
        "kappa": "exp(x*sin(2*pi*x))",
        "mesh": {"type": "uniform", "n": 200, "d": 1},
        "degrees": [1, 2, 3, 4, 5],
        "reference": "high-order",
        "reference_refine": 2,
    },
    "table-nonuniform": {
        "name": "table-nonuniform",
        "mesh": {
            "type": "cartesian",
            "breakpoints": [
                [0, 0.1, 0.18, 0.29, 0.41, 0.5, 0.59, 0.66, 0.81, 0.92, 1]
            ],
        },
        "degrees": [1, 2, 3, 4, 5],
        "face_weight": "mean",
        "reference": "high-order",
        "reference_refine": 8,
    },
    "fig1": {
        "name": "fig1",
        "mesh": {"type": "uniform", "n": 100, "d": 1},
        "degrees": [1, 2, 3],
        "reference": "exact",
    },
    "fig-eta-sweep": {
        "name": "fig-eta-sweep",
        "mesh": {"type": "uniform", "n": 250, "d": 1},
        "degrees": [2],
        "reference": "exact",
        "eta_sweep": [1.0 / 48.0, 1.0 / 24.0, 1.0 / 16.0, 1.0 / 12.0],
    },
    "fig-jump-ratio": {
        "name": "fig-jump-ratio",
        "mesh": {"type": "uniform", "n": 240, "d": 1},
        "degrees": [1, 2, 3, 4],
        "reference": "exact",
        "jump_ratio": True,
    },
    "fig-2d": {
        "name": "fig-2d",
        "mesh": {"type": "uniform", "n": 20, "d": 2},
        "degrees": [2, 3],
        "reference": "exact",
    },
    "fig-3d": {
        "name": "fig-3d",
        "mesh": {"type": "uniform", "n": 6, "d": 3},
        "degrees": [2, 3],
        "reference": "exact",
    },
    "fig-3d-p4": {
        "name": "fig-3d-p4",
        "mesh": {"type": "uniform", "n": 4, "d": 3},
        "degrees": [4],
        "reference": "exact",
    },
    "fig-simplicial": {
        "name": "fig-simplicial",
        "mesh": {"type": "unit-square", "n": 16},
        "degrees": [1, 2, 3],
        "reference": "exact",
    },
    "fig-lshape": {
        "name": "fig-lshape",
        "mesh": {"type": "l-shape", "n": 8},
        "degrees": [1, 2, 3],
        "reference": "high-order",
        "reference_degree": 4,
        "reference_refine": 1,
    },
}
