"""Bench the presets: run each in a fresh child and record what it cost and
what it wrote.

    python bench_presets.py [TARGET ...] [--out FILE]
    python bench_presets.py --compare A.json B.json

Each TARGET is a preset name or a config file (default: every preset). It
runs as `python -m softfem.cli run TARGET --out DIR` in a fresh child, with
this checkout's `src/` first on PYTHONPATH and OPENBLAS_NUM_THREADS=1, in a
temporary directory that is removed afterwards. The record (JSON, written to
FILE, default BENCH_<short commit>[-dirty].json) holds, per target:

  wall_s       the child's wall time;
  cpu_s        its user + system time, from its own os.wait4 rusage;
  peak_rss_mb  its peak resident set, in MiB, from the same rusage;
  exit         its exit code;
  degrees      {p: {"ndof", "solver"}} from the `p=... ndof=... solver=...`
               lines of its stdout (none for a ladder);
  dense_ndof3  sum of ndof^3 over the degrees whose solver is `dense`: a
               count of dense work that does not drift with host speed;
  files        {name: sha256} of every file the run wrote;

and the machine: core count, platform, Python, numpy and scipy versions,
the BLAS entry of numpy's build config (without its install directories),
the *_NUM_THREADS variables of the child and the git commit, with `dirty`
set when tracked files differ from it and `diff` the sha256 of
`git diff HEAD` then (null on a clean tree), so that a dirty record still
names the tree it measured.

--compare prints, per target, the files whose sha256 differs between two
records (or "identical") and the wall-time ratio B/A, and exits 1 if any
file differs or a target is in one record only.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.abspath(__file__))
DEGREE_LINE = re.compile(r"^p=(\d+) ndof=(\d+) solver=(\S+)", re.MULTILINE)
NOTE = ("dense_ndof3 counts only the degrees a run prints: its reference and "
        "eta_sweep solves are not on stdout and are not counted")


def _git(*args):
    """The stdout bytes of `git *args` in this checkout, or None if it fails."""
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def child_env():
    """The environment of every child: this checkout's src/ first on the
    path, one OpenBLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def machine(env):
    status = _git("status", "--porcelain", "--untracked-files=no")
    commit = _git("rev-parse", "HEAD")
    diff = _git("diff", "HEAD") if status else None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: v for k, v in blas.items() if "directory" not in k},
        "threads": {k: v for k, v in sorted(env.items()) if k.endswith("_NUM_THREADS")},
        "commit": None if commit is None else commit.decode().strip(),
        "dirty": None if status is None else bool(status),
        "diff": None if diff is None else hashlib.sha256(diff).hexdigest(),
    }


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_target(target, env):
    """The record of one run of `target` in a fresh child."""
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out")
        with open(os.path.join(work, "stdout"), "w+") as stdout:
            start = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-m", "softfem.cli", "run", target, "--out", out],
                env=env, stdout=stdout, stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
            stdout.seek(0)
            text = stdout.read()
        degrees = {p: {"ndof": int(n), "solver": solver}
                   for p, n, solver in DEGREE_LINE.findall(text)}
        files = {}
        if os.path.isdir(out):
            files = {name: sha256(os.path.join(out, name)) for name in sorted(os.listdir(out))}
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
        "exit": child.returncode,
        "degrees": degrees,
        "dense_ndof3": sum(d["ndof"] ** 3 for d in degrees.values() if d["solver"] == "dense"),
        "files": files,
    }


def sweep(targets):
    env = child_env()
    return {"machine": machine(env), "note": NOTE,
            "presets": {target: run_target(target, env) for target in targets}}


def compare(a, b):
    """Lines, one per target, of what differs between the records a and b,
    and whether everything is identical."""
    lines, same = [], True
    for name in list(a["presets"]) + [n for n in b["presets"] if n not in a["presets"]]:
        ra, rb = a["presets"].get(name), b["presets"].get(name)
        if ra is None or rb is None:
            lines.append(f"{name}: only in {'B' if ra is None else 'A'}")
            same = False
            continue
        fa, fb = ra["files"], rb["files"]
        differ = sorted(f for f in set(fa) | set(fb) if fa.get(f) != fb.get(f))
        same = same and not differ
        ratio = rb["wall_s"] / ra["wall_s"] if ra["wall_s"] > 0 else float("nan")
        lines.append(f"{name}: {', '.join(differ) if differ else 'identical'}; "
                     f"wall {ra['wall_s']:.3f} s -> {rb['wall_s']:.3f} s ({ratio:.3f}x)")
    return lines, same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="*", help="preset names or config files")
    parser.add_argument("--out", help="record file (default BENCH_<short commit>[-dirty].json)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two records")
    args = parser.parse_args(argv)
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            lines, same = compare(json.load(fa), json.load(fb))
        print("\n".join(lines))
        return 0 if same else 1
    targets = args.targets
    if not targets:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from softfem.speclab import PRESETS
        targets = list(PRESETS)
    record = sweep(targets)
    commit, dirty = record["machine"]["commit"], record["machine"]["dirty"]
    out = args.out or f"BENCH_{(commit or 'unknown')[:7]}{'-dirty' if dirty else ''}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, r in record["presets"].items():
        print(f"{name}: exit {r['exit']}, {r['wall_s']:.3f} s wall, {r['cpu_s']:.3f} s cpu, "
              f"{r['peak_rss_mb']:.1f} MiB, {len(r['files'])} files")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
