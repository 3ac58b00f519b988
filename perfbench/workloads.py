"""Workload inputs generated from a seed.

Each workload writes the config that `softfem run` reads, and says how its
outputs are scored. The program sees only that file.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Sizes are chosen so that one pipeline run takes a few seconds on a 2-core
# machine with one BLAS thread, and the intended layer still leads.
TENSOR_N, TENSOR_P = 4, 3
GRADED_N, GRADED_DEGREES = 10, [2, 3]
LOW_MODES = 10  # relerr_low_* covers this many of the lowest modes


@dataclass
class Case:
    """One generated input set and how to score the pipeline's outputs."""

    config_path: str
    config: dict
    exact_d: int | None  # dimension of the exact Laplace reference, if any
    kappa: float  # constant kappa scaling the exact reference
    relerr_tol: float  # fixed tolerance on relerr_low_*
    kronecker: dict | None  # {'n', 'p', 'kappa'} when the Kronecker check applies


def exact_values(d, count, kappa=1.0):
    """Lowest `count` values of kappa * pi^2 |k|^2 over k in {1, 2, ...}^d."""
    # (1, ..., 1, j) for j <= count gives count values below any |k|^2 with
    # some k_i > count, so k_i <= count loses none of the lowest values
    ks = itertools.product(range(1, count + 1), repeat=d)
    lam = sorted(sum(k * k for k in kk) for kk in ks)
    return kappa * math.pi**2 * np.array(lam[:count], dtype=float)


def _write_config(workdir, config):
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=1)
    return path


def tensor_3d_full(seed, workdir):
    """The paper's 3D experiment: full spectrum of a uniform p=3 cube mesh."""
    rng = np.random.default_rng([seed, 1])
    kappa = float(rng.uniform(0.5, 2.0))
    config = {
        "name": "tensor-3d-full",
        "kappa": repr(kappa),
        "mesh": {"type": "uniform", "n": TENSOR_N, "d": 3},
        "degrees": [TENSOR_P],
        "eta": "default",
        "reference": "none",
    }
    path = _write_config(workdir, config)
    return Case(
        path, config, exact_d=3, kappa=kappa,
        relerr_tol=3e-3,
        kronecker={"n": TENSOR_N, "p": TENSOR_P, "kappa": kappa},
    )


def graded_2d_kappa(seed, workdir):
    """Jittered 2D Cartesian mesh, smooth variable kappa, high-order reference."""
    rng = np.random.default_rng([seed, 2])
    axes = []
    for _ in range(2):
        b = np.linspace(0.0, 1.0, GRADED_N + 1)
        b[1:-1] += rng.uniform(-0.03, 0.03, GRADED_N - 1) / GRADED_N
        axes.append([float(x) for x in b])
    amp = float(rng.uniform(0.49, 0.5))
    freq = float(rng.uniform(1.99, 2.01))
    config = {
        "name": "graded-2d-kappa",
        "kappa": f"1 + {amp!r}*sin({freq!r}*pi*x)*cos({freq!r}*pi*y)",
        "mesh": {"type": "cartesian", "breakpoints": axes},
        "degrees": list(GRADED_DEGREES),
        "eta": "default",
        "modes": 40,
        "reference": "high-order",
        "reference_degree": 4,
        "reference_refine": 1,
    }
    path = _write_config(workdir, config)
    return Case(
        path, config, exact_d=None, kappa=1.0,
        relerr_tol=0.01, kronecker=None,
    )


WORKLOADS = {
    "tensor-3d-full": tensor_3d_full,
    "graded-2d-kappa": graded_2d_kappa,
}
