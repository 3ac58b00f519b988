"""Generalized symmetric eigenvalue solves and conditioning metrics.

Pencils are scipy sparse matrices, as assembled. Full spectra are dense
solves. A few lowest modes of a large pencil are a sparse shift-invert
solve, and the largest eigenvalue a Lanczos Ritz value; an inertia count
certifies each, and the dense solve is the fallback whenever a count does
not. The lowest sums of d sorted 1D spectra, a Kronecker-sum pencil's or
the exact Laplace one's, are a factored spectrum (`_kronecker_spectrum`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class EigensolveError(RuntimeError):
    """A dense eigensolve failed."""


class MassNotSpdError(EigensolveError):
    """The mass matrix is not symmetric positive definite."""


class IndefinitePencilError(RuntimeError):
    """A condition number was requested for a pencil with lambda_min <= 0."""


@dataclass
class Spectrum:
    """Ascending eigenvalues with M-orthonormal eigenvectors, the pencil's
    largest eigenvalue `lambda_max`, and the `path` that solved it ('dense',
    'sparse' or 'kronecker'): all modes, or the lowest few.

    A dense solve sets `lambda_max` from the full spectrum it computed; a
    sparse partial solve leaves it None (see `largest_eigenvalue`). A
    factored spectrum (the Kronecker path) has no `vectors`: eigenvector j
    is the Kronecker product of the columns `indices[:, j]` of its 1D
    spectrum `factor`, slowest axis first, formed by `vector(j)`. A spectrum
    solved without eigenvectors holds neither, and reading one raises.
    """

    values: np.ndarray
    vectors: np.ndarray | None
    lambda_max: float | None = None
    path: str = "dense"
    indices: np.ndarray | None = None
    factor: Spectrum | None = None

    @property
    def order(self):
        return len(self.values)

    def checked_lambda_max(self):
        """lambda_max; ValueError if the solve left it unset (a sparse
        partial solve)."""
        if self.lambda_max is None:
            raise ValueError(
                "lambda_max was not computed by this partial solve; "
                "set it from largest_eigenvalue(A, M)"
            )
        return self.lambda_max

    def checked_vectors(self):
        """The eigenvector matrix the spectrum holds: its own `vectors`, or
        its factor's; ValueError if the solve dropped them (vectors=False)."""
        X = self.vectors if self.factor is None else self.factor.vectors
        if X is None:
            raise ValueError("this spectrum was solved without eigenvectors (vectors=False)")
        return X

    def vector(self, j):
        """Eigenvector j; a factored one with its sign fixed as `_fix_signs`
        fixes a column."""
        X = self.checked_vectors()
        if self.factor is None:
            return X[:, j]
        out = X[:, self.indices[0, j]]
        for i in self.indices[1:, j]:
            out = np.multiply.outer(out, X[:, i]).ravel()
        return _fix_signs(out[:, None], [0])[:, 0]


def _kronecker_sums(parts):
    """mu0[i0] + (mu1[i1] + (... + mu_last[i_last])) over the index tuples of
    the 1D value arrays `parts`, raveled with the first axis slowest."""
    values = parts[-1]
    for mu in parts[-2::-1]:
        values = np.add.outer(mu, values).ravel()
    return values


def _kronecker_spectrum(spectrum, d, k=None):
    """The factored spectrum of the lowest k modes (all if k is None) of the
    d-fold Kronecker sum of a 1D pencil: the stably sorted sums of d 1D
    eigenvalues, with the index tuple of each (slowest axis first) into the
    sign-fixed 1D `spectrum`.

    Only the sums over the first m 1D modes are formed, m doubling until
    every sum outside that block lies strictly above the k-th one found. The
    least such sum puts mu[m] in one place and mu[0] in the others (IEEE
    addition is monotone). The block's ravel order is the full grid's
    restricted to it, so the stable sort gives the full one's first k and
    ties; lambda_max, mu[-1] summed d times, is the full maximum."""
    mu = spectrum.values
    n = len(mu)
    k = n**d if k is None else min(k, n**d)
    m = min(n, math.ceil(k ** (1 / d)))  # the least m with m^d >= k, up to rounding
    while True:
        values = _kronecker_sums([mu[:m]] * d)
        order = np.argsort(values, kind="stable")[:k]
        if m == n or (len(order) == k and
                      _kronecker_sums([mu[[0, m]]] * d)[1:].min() > values[order[-1]]):
            break
        m = min(2 * m, n)
    return Spectrum(
        values=values[order],
        vectors=None,
        # -inf for an empty pencil
        lambda_max=float(_kronecker_sums([mu[-1:]] * d).max(initial=-np.inf)),
        path="kronecker",
        indices=np.array(np.unravel_index(order, (m,) * d)),
        factor=spectrum,
    )


def _fix_signs(vectors, columns):
    """The given columns of `vectors`, in that order, as one C-ordered copy in
    which each column has a nonnegative inner product with `_start_vector`,
    so no rounding-level entry decides a sign; a zero column stays as it is.
    """
    # C order: later dot products over a column round by its stride
    out = np.empty((vectors.shape[0], len(columns)), dtype=vectors.dtype)
    np.take(vectors, columns, axis=1, out=out, mode="clip")  # "raise" would buffer out
    np.negative(out, out=out, where=_start_vector(len(out)) @ out < 0)
    return out


def _inertia(A):
    """A SuperLU factor of the sparse matrix A with a symmetric fill-reducing
    ordering and no row pivoting, and its number of negative pivots.

    Without row pivoting the factor is an LDL^T of a symmetric permutation of
    A, so by Sylvester's law of inertia the count is the number of negative
    eigenvalues of A. The count is None when SuperLU pivoted a row anyway.
    """
    from scipy.sparse.linalg import splu

    lu = splu(
        A.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0,
        options={"SymmetricMode": True},
    )
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return lu, None
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0))


def _pays(k, n):
    """Whether a sparse solve for k modes pays against a dense one of order n."""
    return 1 <= k and k + 1 <= n // 10


@functools.lru_cache(maxsize=8)
def _start_vector(n):
    """The fixed Lanczos start vector of both certified solves, and the sign
    reference of `_fix_signs`, drawn once per length and read-only. A random
    one: the extreme mode of a symmetric mesh can be M-orthogonal to `ones`."""
    v = np.random.default_rng(0).standard_normal(n)
    v.setflags(write=False)
    return v


def _lowest_modes(A, M, k):
    """The lowest k modes of A U = lambda M U by shift-invert Lanczos at 0
    from `_start_vector`, or None unless inertia counts certify them.

    The factors of M and of A must show no negative pivot, so the pencil is
    positive definite (an indefinite M would hide a negative eigenvalue from
    the counts of A - tau*M); M is counted and its factor freed first, and
    the factor of A then applies A^-1 in the Lanczos iteration. The factor of
    A - tau*M, with tau halfway between the m-th and (m+1)-th values found,
    must show exactly m negative pivots, so no eigenvalue below tau was
    missed. m starts at k; a degenerate cluster split at m fails the count,
    and the solve then runs again for m + 1 modes, whose lowest k are
    returned. Runs only while m + 1 <= n // 10, where a partial solve pays.
    """
    n = A.shape[0]
    if not _pays(k, n):
        return None
    # imported here: scipy.sparse.linalg adds 15-25 ms to `import softfem`
    from scipy.sparse.linalg import LinearOperator, eigsh

    try:
        if _inertia(M)[1] != 0:  # its factor is freed here, before A's is made
            return None
        m = k
        while _pays(m, n):
            lu, negative = _inertia(A)
            if negative != 0:
                return None
            inverse = LinearOperator((n, n), matvec=lu.solve, dtype=float)
            vals, vecs = eigsh(A, m + 1, M, sigma=0.0, OPinv=inverse, v0=_start_vector(n))
            del lu, inverse  # one factor alive at a time
            order = np.argsort(vals, kind="stable")
            vals = vals[order]
            # [1]: its factor is freed before A is factored again
            below = _inertia(A - 0.5 * (vals[m - 1] + vals[m]) * M)[1]
            if below == m:
                return Spectrum(values=vals[:k], vectors=_fix_signs(vecs, order[:k]),
                                path="sparse")
            if vals[m] - vals[m - 1] > CLUSTER_RTOL * vals[m]:
                break  # a missed eigenvalue, not a split cluster
            m += 1
    except RuntimeError:  # a singular factor, or ARPACK did not converge
        pass
    return None


# Relative width of the interval an inertia count certifies an extreme
# eigenvalue in. On the 1D, 2D and 3D pencils where Lanczos converges, the
# Ritz value agrees with the dense lambda_max to 1.2e-15 and the count
# flips within 1e-14 above it; 1e-12 leaves a margin of 100 over that, and
# is of the order of the dense solver's own error bound, n * eps.
EXTREME_RTOL = 1e-12


def _extreme_value(A, M):
    """The largest eigenvalue of A x = lambda M x by Lanczos, or None unless
    an inertia count certifies it.

    Lanczos in the M inner product (the factor of M, which must show no
    negative pivot, applies M^-1) gives a Ritz value theta <= lambda_max.
    The factor of A - sigma*M, sigma = theta + EXTREME_RTOL * |theta|, must
    then show n negative pivots (every eigenvalue below sigma), which proves
    lambda_max lies within EXTREME_RTOL * |theta| of theta.
    """
    n = A.shape[0]
    if not _pays(1, n):
        return None
    from scipy.sparse.linalg import LinearOperator, eigsh

    try:
        lu, negative = _inertia(M)
        if negative != 0:
            return None
        inverse = LinearOperator((n, n), matvec=lu.solve, dtype=float)
        theta = float(eigsh(A, 1, M, which="LA", Minv=inverse, v0=_start_vector(n),
                            return_eigenvectors=False)[0])
        del lu, inverse  # one factor alive at a time
        _, below = _inertia(A - (theta + EXTREME_RTOL * abs(theta)) * M)
    except RuntimeError:  # a singular factor, or ARPACK did not converge
        return None
    return theta if below == n else None


# A dense solve of order n takes about 36 n^2 bytes and O(n^3) time: at
# this order, about 2.4 GB and 2 minutes.
MAX_DENSE_ORDER = 2**13


def _dense_eigh(A, M, **kwargs):
    """scipy.linalg.eigh on Fortran-ordered dense copies of A and M, which
    LAPACK overwrites in place (the eigenvectors, if asked for, replace A).
    An order over MAX_DENSE_ORDER raises EigensolveError before any copy."""
    n = A.shape[0]
    if n > MAX_DENSE_ORDER:
        raise EigensolveError(
            f"a dense eigensolve of order {n} is over the limit {MAX_DENSE_ORDER}; "
            "set 'modes' to solve for the lowest modes only"
        )
    try:
        return scipy.linalg.eigh(A.toarray(order="F"), M.toarray(order="F"),
                                 overwrite_a=True, overwrite_b=True, **kwargs)
    except np.linalg.LinAlgError as err:
        try:
            np.linalg.cholesky(M.toarray())
        except np.linalg.LinAlgError:
            raise MassNotSpdError("mass matrix is not SPD") from err
        raise EigensolveError(f"dense eigensolve failed: {err}") from err


def solve_gmevp(A, M, k=None):
    """The lowest k modes (all if k is None) of A U = lambda M U, with
    M-orthonormal, sign-fixed eigenvectors.

    The certified sparse solve `_lowest_modes` runs first when k is given.
    Otherwise, or when it declines, the dense path runs: Cholesky-reduce
    with M, solve the symmetric problem, and back-transform. Eigenvalues may
    be negative; coercivity violations are observable. The sparse solve
    leaves `lambda_max` None; the dense one sets it. Any k other than None
    or an integer >= 1 is a ValueError.
    """
    if A.shape != M.shape or A.shape[0] != A.shape[1]:
        raise ValueError("matrix order mismatch")
    if k is not None and (isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1):
        raise ValueError(f"k must be an integer >= 1 or None, not {k!r}")
    spectrum = None if k is None else _lowest_modes(A, M, k)
    if spectrum is not None:
        return spectrum
    vals, vecs = _dense_eigh(A, M)
    order = np.argsort(vals, kind="stable")[:k]
    lambda_max = float(vals.max(initial=-np.inf))  # -inf for an empty pencil
    return Spectrum(values=vals[order], vectors=_fix_signs(vecs, order), lambda_max=lambda_max)


def largest_eigenvalue(A, M):
    """The largest pencil eigenvalue only: the certified Lanczos value, else
    a dense solve for that value."""
    value = _extreme_value(A, M)
    if value is not None:
        return value
    n = A.shape[0]
    return float(_dense_eigh(A, M, eigvals_only=True, subset_by_index=(n - 1, n - 1))[0])


def condition_number(spectrum):
    """lambda_max / lambda_min; raises if the pencil is not positive, and
    ValueError if the spectrum has no lambda_max (a sparse partial solve)."""
    lam_min = float(spectrum.values[0])
    if lam_min <= 0:
        raise IndefinitePencilError(
            f"smallest eigenvalue {lam_min} is not positive"
        )
    return spectrum.checked_lambda_max() / lam_min


def stiffness_reduction(fem, soft):
    """The condition numbers `sigma` and `sigma_soft` of a Galerkin and a
    softFEM spectrum, and the reduction `rho` = sigma / sigma_soft, also as
    `rho_percent` = 100 (1 - 1/rho), as a dict."""
    if fem.order != soft.order:
        raise ValueError("spectra have different orders")
    sigma = condition_number(fem)
    sigma_soft = condition_number(soft)
    rho = sigma / sigma_soft
    return {"sigma": sigma, "sigma_soft": sigma_soft, "rho": rho,
            "rho_percent": 100.0 * (1.0 - 1.0 / rho)}


# neighbours closer than this, relative to the larger or to 1, form a cluster
CLUSTER_RTOL = 1e-8


def cluster_eigenvalues(values):
    """Group near-degenerate eigenvalues; returns a list of index lists
    (none for no values)."""
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return []
    a, b = values[1:], values[:-1]
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, near nothing
        near = np.abs(a - b) <= CLUSTER_RTOL * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return [c.tolist() for c in np.split(np.arange(len(values)), np.flatnonzero(~near) + 1)]
