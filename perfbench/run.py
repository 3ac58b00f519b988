"""softfem pipeline benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a softfem checkout. Inputs are generated from the seed
into `.perfbench_work/`; each sample is one `softfem.cli.main(["run", ...])`
call in a fresh child process. Samples run one after another until
--seconds have passed. Every sample's output files are checked.

--trace 0 reports the end-to-end metrics (medians over the samples; lower
quartile for peak RSS).
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics (medians over the traced samples).

The last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
line before it is a record of the machine and the run, also written to
`.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150
# BLAS and softfem threads for every child: one each, for steady timings.
THREADS = "1"
END_TO_END = ("run_s", "setup_s", "peak_rss_mb", "relerr_low_soft", "relerr_low_fem")
UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
         "relerr_low_soft": "ratio", "relerr_low_fem": "ratio"}


def layer_units(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(("_ratio", "coverage", "residual_max", "defect")):
        return "ratio"
    return "count"


def child_env(src):
    env = dict(os.environ)
    env.update(
        PYTHONPATH=src,
        OPENBLAS_NUM_THREADS=THREADS,
        OMP_NUM_THREADS=THREADS,
        MKL_NUM_THREADS=THREADS,
        SOFTFEM_THREADS=THREADS,
    )
    return env


def git_commit(root):
    """HEAD of the checkout read from .git, or None outside a git repository."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return None


def machine_record(env):
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "child_env": {k: env[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SOFTFEM_THREADS")},
    }


def run_sample(case, work, index, env, trace, kronecker):
    """One child run; returns (sample dict, None) or (None, failure reason)."""
    import checks

    out_dir = os.path.join(work, f"out{index}")
    result_path = os.path.join(work, f"result{index}.json")
    cmd = [sys.executable, CHILD, "--config", case.config_path, "--out", out_dir,
           "--result", result_path] + (["--trace"] if trace else [])
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    try:
        if proc.returncode != 0 or "Traceback" in proc.stderr:
            return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
        try:
            with open(result_path) as fh:
                res = json.load(fh)
        except (OSError, ValueError) as err:
            return None, f"no result: {err!r}"
        try:
            accuracy = checks.check_outputs(case, out_dir, kronecker)
        except checks.CheckFailed as err:
            return None, f"output check: {err}"
        sample = {"run_s": res["run_s"], "setup_s": res["ready"] - start,
                  "peak_rss_mb": res["peak_rss_mb"], **accuracy}
        if trace:
            sample["layers"] = res["layers"]
        return sample, None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if os.path.exists(result_path):
            os.remove(result_path)


def problem_sizes(case):
    """ndof and nnz(K), nnz(S) per degree, assembled once outside any sample."""
    from softfem import assembly, mesh, parse_coefficient
    from tracer import as_matrix

    m = mesh.mesh_from_spec(case.config["mesh"])
    kappa = parse_coefficient(case.config.get("kappa", "1"))
    sizes = {}
    for p in case.config["degrees"]:
        space = assembly.build_space(m, p)
        sizes[str(p)] = {
            "ndof": space.ndof,
            "nnz_stiffness": as_matrix(assembly.assemble_stiffness(space, kappa)).nnz,
            "nnz_penalty": as_matrix(assembly.assemble_penalty(space, kappa)).nnz,
        }
    return sizes


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "softfem", "__init__.py")):
        print(f"error: no softfem sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        case = workloads.WORKLOADS[args.workload](args.seed, work)
        env = child_env(src)
        kron = case.kronecker and checks.kronecker_spectra(**case.kronecker)
        samples, traced, failures = [], [], []
        deadline = time.monotonic() + args.seconds
        index = 0
        while index < 1 + args.trace or time.monotonic() < deadline:
            trace = bool(args.trace) and index % 2 == 1
            sample, reason = run_sample(case, work, index, env, trace, kron)
            index += 1
            if sample is None:
                failures.append(reason)
            else:
                (traced if trace else samples).append(sample)
        sizes = problem_sizes(case)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # End-to-end: medians over the samples that passed, except peak RSS, which
    # has a second mode one dense matrix higher in some samples of the same
    # inputs (see README.md); its lower quartile is the program's own need.
    # Per layer: medians over traced samples. Any failure makes the run
    # incorrect.
    metrics = {}
    if samples and not args.trace:
        for name in END_TO_END:
            values = [s[name] for s in samples]
            value = quartiles(values)[0] if name == "peak_rss_mb" else statistics.median(values)
            metrics[name] = {"value": value, "unit": UNITS[name]}
    elif samples and traced:
        for name in traced[0]["layers"]:
            metrics[name] = {"value": statistics.median(s["layers"][name] for s in traced),
                             "unit": layer_units(name)}
        overhead = (statistics.median(s["run_s"] for s in traced)
                    - statistics.median(s["run_s"] for s in samples))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "machine": machine_record(env),
        "sizes": sizes,
        "samples": len(samples),
        "traced_samples": len(traced),
        "quartiles": {k: quartiles([s[k] for s in samples])
                      for k in ("run_s", "setup_s", "peak_rss_mb")},
        "sample_values": {k: [s[k] for s in samples] for k in ("run_s", "setup_s")},
        "failures": failures,
    }
    result = {
        "correct": not failures and bool(metrics),
        "attempted": index,
        "failed": len(failures),
        "metrics": metrics,
    }
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
