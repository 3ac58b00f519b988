"""Spans around softfem's public functions, recorded from outside the package.

The tracer replaces every binding of each public function of the layer
modules: the module attribute itself and every other name a softfem module
(or the package) holds for it, since `speclab` imports assembly functions
by name while `oracle` calls them through the module. Two methods are
wrapped on their classes: `ReferenceBasis.eval` and `CoefficientField.__call__`.
`uninstall` puts every original back.

Each span records its name, layer, start, end and parent. Work the tracer
does itself after a call returns (fingerprints, eigen-residuals) is taken off
the tracer's clock, so spans and the traced wall time exclude it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import threading
import time

import numpy as np
import scipy.sparse as sp

PACKAGE = "softfem"
LAYERS = ("cli", "speclab", "oracle", "gevp", "assembly", "coefficient", "polyref", "mesh")
# the CLI and experiment layer orchestrate; the rest compute
COMPUTE_LAYERS = ("oracle", "gevp", "assembly", "coefficient", "polyref", "mesh")
METHODS = {
    "polyref": [("ReferenceBasis", "eval")],
    "coefficient": [("CoefficientField", "__call__")],
}
ASSEMBLERS = ("assembly.assemble_mass", "assembly.assemble_stiffness", "assembly.assemble_penalty")
BASIS_EVAL = "polyref.ReferenceBasis.eval"
KAPPA_EVAL = "coefficient.CoefficientField.__call__"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent")

    def __init__(self, name, layer, start, parent):
        self.name, self.layer, self.start, self.end, self.parent = name, layer, start, None, parent


def as_matrix(m):
    """A scipy CSR (or dense array) view of an assembled matrix.

    softfem's SymMatrix is read through its COO triplets, so the tracer never
    fills the matrix's own CSR cache and changes no later work. scipy and
    dense matrices are accepted too, so that the benchmark keeps working when
    assembly moves off SymMatrix.
    """
    if sp.issparse(m):
        return m.tocsr()
    if all(hasattr(m, a) for a in ("rows", "cols", "vals", "n")):
        return sp.csr_matrix((m.vals, (m.rows, m.cols)), shape=(m.n, m.n))
    return np.asarray(m, dtype=float)


def fingerprint(*mats):
    h = hashlib.blake2b(digest_size=16)
    for m in mats:
        m = as_matrix(m)
        parts = (m.indptr, m.indices, m.data) if sp.issparse(m) else (m,)
        for part in parts:
            h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def eigen_health(A, M, values, vectors):
    """(max ||Ax - lam Mx|| / (|lam| ||Mx||), max |U'MU - I|) of a solve."""
    A, M = as_matrix(A), as_matrix(M)
    MU = M @ vectors
    R = A @ vectors - MU * values
    residual = np.linalg.norm(R, axis=0) / (np.abs(values) * np.linalg.norm(MU, axis=0))
    gram = vectors.T @ MU
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(residual.max()), float(np.abs(gram).max())


class Tracer:
    """Install with `with Tracer() as tracer:`; read `metrics(wall)` after."""

    def __init__(self):
        self.spans = []
        self.solves = []  # (order, pencil fingerprint, under reference_spectrum)
        self.assembled = []  # (name, fingerprint, nnz)
        self.ndof_max = 0
        self.mesh_elements = 0
        self.mesh_interfaces = 0
        self.residual_max = 0.0
        self.m_orth_defect = 0.0
        self._excluded = 0.0
        self._local = threading.local()
        self._patches = []

    def clock(self):
        return time.perf_counter() - self._excluded

    # -- installing ------------------------------------------------------

    def public_functions(self):
        """{original: span name} for every public function of the layer
        modules and for the wrapped methods."""
        found = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    found[obj] = f"{layer}.{attr}"
            for cls_name, meth in METHODS.get(layer, ()):
                found[vars(getattr(mod, cls_name))[meth]] = f"{layer}.{cls_name}.{meth}"
        return found

    def bindings(self):
        """(owner, attribute, original) for every name of a wrapped callable:
        attributes of every loaded module of the package, and the methods."""
        originals = self.public_functions()
        out = []
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    out.append((mod, attr, obj))
        for layer, methods in METHODS.items():
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for cls_name, meth in methods:
                cls = getattr(mod, cls_name)
                out.append((cls, meth, vars(cls)[meth]))
        return out

    def install(self):
        wrappers = {fn: self._wrap(name, fn) for fn, name in self.public_functions().items()}
        for owner, attr, obj in self.bindings():
            self._patches.append((owner, attr, obj))
            setattr(owner, attr, wrappers[obj])
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, obj = self._patches.pop()
            setattr(owner, attr, obj)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        tracer = self
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, layer, fn, args, kwargs)

        traced.traced_original = fn
        return traced

    # -- recording -------------------------------------------------------

    def _call(self, name, layer, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span = Span(name, layer, self.clock(), parent)
        index = len(self.spans)
        self.spans.append(span)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            stack.pop()
        t0 = time.perf_counter()
        self._observe(index, args, result)
        self._excluded += time.perf_counter() - t0
        return result

    def _outermost_in_layer(self, index):
        span = self.spans[index]
        return span.parent is None or self.spans[span.parent].layer != span.layer

    def _has_ancestor(self, index, test):
        parent = self.spans[index].parent
        while parent is not None:
            if test(self.spans[parent]):
                return True
            parent = self.spans[parent].parent
        return False

    def _under(self, index, name):
        return self._has_ancestor(index, lambda s: s.name == name)

    def _observe(self, index, args, result):
        span = self.spans[index]
        if span.layer == "gevp" and hasattr(result, "vectors") and self._outermost_in_layer(index):
            A, M = args[0], args[1]
            order = as_matrix(A).shape[0]
            self.solves.append(
                (order, fingerprint(A, M), self._under(index, "oracle.reference_spectrum"))
            )
            res, orth = eigen_health(A, M, result.values, result.vectors)
            self.residual_max = max(self.residual_max, res)
            self.m_orth_defect = max(self.m_orth_defect, orth)
        elif span.name in ASSEMBLERS and not self._under(index, span.name):
            self.assembled.append((span.name, fingerprint(result), as_matrix(result).nnz))
        elif span.name == "assembly.build_space":
            self.ndof_max = max(self.ndof_max, result.ndof)
        elif span.layer == "mesh" and hasattr(result, "n_elements") and self._outermost_in_layer(index):
            self.mesh_elements += result.n_elements
            self.mesh_interfaces += len(result.interfaces)

    # -- metrics ---------------------------------------------------------

    def metrics(self, wall):
        """Per-layer metrics of everything traced, with `wall` the traced
        run's wall time on the tracer's clock."""
        n = len(self.spans)
        dur = [s.end - s.start for s in self.spans]
        child = [0.0] * n
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                child[s.parent] += dur[i]
        layer_time = dict.fromkeys(LAYERS, 0.0)
        self_time = dict.fromkeys(LAYERS, 0.0)
        name_time, name_calls = {}, {}
        covered = 0.0
        for i, s in enumerate(self.spans):
            self_time[s.layer] += dur[i] - child[i]
            name_calls[s.name] = name_calls.get(s.name, 0) + 1
            if self._outermost_in_layer(i):
                layer_time[s.layer] += dur[i]
            if not self._under(i, s.name):
                name_time[s.name] = name_time.get(s.name, 0.0) + dur[i]
            if s.layer in COMPUTE_LAYERS and not self._has_ancestor(
                i, lambda a: a.layer in COMPUTE_LAYERS
            ):
                covered += dur[i]

        def t(name):
            return name_time.get(name, 0.0)

        def calls(name):
            return name_calls.get(name, 0)

        orders = [o for o, _, _ in self.solves]
        solves = len(self.solves)
        assembles = len(self.assembled)

        def max_nnz(name):
            return max((z for nm, _, z in self.assembled if nm == name), default=0)

        return {
            "gevp.solve_s": layer_time["gevp"],
            "gevp.solve_calls": solves,
            "gevp.order_max": max(orders, default=0),
            "gevp.order_cubed_sum": float(sum(float(o) ** 3 for o in orders)),
            # A, M and the eigenvectors as dense float64 n x n arrays
            "gevp.dense_mb": max((3 * 8 * o * o / 2**20 for o in orders), default=0.0),
            "gevp.distinct_ratio": len({f for _, f, _ in self.solves}) / solves if solves else 0.0,
            "gevp.residual_max": self.residual_max,
            "gevp.m_orth_defect": self.m_orth_defect,
            # every oracle function computes a reference value or spectrum
            "oracle.reference_s": layer_time["oracle"],
            "oracle.reference_order": max((o for o, _, ref in self.solves if ref), default=0),
            "assembly.penalty_s": t("assembly.assemble_penalty"),
            "assembly.stiffness_s": t("assembly.assemble_stiffness"),
            "assembly.mass_s": t("assembly.assemble_mass"),
            "assembly.space_s": t("assembly.build_space"),
            "assembly.soften_s": t("assembly.soften"),
            "assembly.assemble_calls": assembles,
            "assembly.distinct_ratio": (
                len({(nm, f) for nm, f, _ in self.assembled}) / assembles if assembles else 0.0
            ),
            "assembly.element_map_calls": calls("assembly.element_map"),
            "assembly.ndof_max": self.ndof_max,
            "assembly.nnz_stiffness": max_nnz("assembly.assemble_stiffness"),
            "assembly.nnz_penalty": max_nnz("assembly.assemble_penalty"),
            "polyref.eval_calls": calls(BASIS_EVAL),
            "polyref.eval_s": t(BASIS_EVAL),
            "coefficient.eval_calls": calls(KAPPA_EVAL),
            "coefficient.eval_s": t(KAPPA_EVAL),
            "mesh.build_s": layer_time["mesh"],
            "mesh.elements": self.mesh_elements,
            "mesh.interfaces": self.mesh_interfaces,
            "speclab.solve_problem_calls": calls("speclab.solve_problem"),
            "speclab.solve_problem_s": t("speclab.solve_problem"),
            "speclab.self_s": self_time["speclab"],
            "cli.self_s": self_time["cli"],
            "trace.coverage": covered / wall if wall > 0 else 0.0,
        }
