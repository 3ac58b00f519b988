"""`bench_presets.py` on two tiny configs, a dense 1D one and a Kronecker 2D
one: every field of its record, the sha256 of every file a run writes,
`--compare` of a record with itself and with an altered copy, and the
machine entry of a clean and a dirty tree."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

from softfem import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_presets",
                                               os.path.join(ROOT, "bench_presets.py"))
bench_presets = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_presets)
CONFIGS = {
    "dense-1d": ({"name": "dense-1d", "mesh": {"type": "uniform", "n": 4, "d": 1},
                  "degrees": [1, 2]},
                 {"1": {"ndof": 3, "solver": "dense"}, "2": {"ndof": 7, "solver": "dense"}}),
    "kronecker-2d": ({"name": "kronecker-2d", "mesh": {"type": "uniform", "n": 3, "d": 2},
                      "degrees": [2]},
                     {"2": {"ndof": 25, "solver": "kronecker"}}),
}


def bench(*args):
    return subprocess.run([sys.executable, os.path.join(ROOT, "bench_presets.py"), *args],
                          capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    """(the record of both configs, its path, the config paths)."""
    tmp = tmp_path_factory.mktemp("bench")
    paths = []
    for name, (config, _) in CONFIGS.items():
        paths.append(str(tmp / f"{name}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(config, fh)
    out = str(tmp / "BENCH_test.json")
    done = bench(*paths, "--out", out)
    assert done.returncode == 0, done.stderr
    with open(out) as fh:
        return json.load(fh), out, paths


def test_the_record_has_every_field(record, tmp_path, capsys):
    data, _, paths = record
    machine = data["machine"]
    assert set(machine) == {"cores", "platform", "python", "numpy", "scipy", "blas", "threads",
                            "commit", "dirty", "diff"}
    assert machine["cores"] >= 1 and machine["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert all(name.endswith("_NUM_THREADS") for name in machine["threads"])
    assert isinstance(machine["blas"], dict)
    if os.path.isdir(os.path.join(ROOT, ".git")):
        assert re.fullmatch("[0-9a-f]{40}", machine["commit"])
        assert isinstance(machine["dirty"], bool)
        assert (machine["diff"] is None) == (not machine["dirty"])
    assert "not counted" in data["note"]
    assert list(data["presets"]) == paths
    for path, (config, degrees) in zip(paths, CONFIGS.values()):
        run = data["presets"][path]
        assert set(run) == {"wall_s", "cpu_s", "peak_rss_mb", "exit", "degrees", "dense_ndof3",
                            "files"}
        assert run["exit"] == 0 and run["wall_s"] > 0 and run["cpu_s"] > 0
        assert run["peak_rss_mb"] > 1
        assert run["degrees"] == degrees
        assert run["dense_ndof3"] == sum(d["ndof"] ** 3 for d in degrees.values()
                                         if d["solver"] == "dense")
        # the same run here writes the same bytes
        out = tmp_path / config["name"]
        assert cli.main(["run", path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert run["files"] == {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                                for name in sorted(os.listdir(out))}
    assert data["presets"][paths[0]]["dense_ndof3"] == 3**3 + 7**3


def test_compare(record, tmp_path):
    data, out, paths = record
    same = bench("--compare", out, out)
    assert same.returncode == 0, same.stderr
    lines = same.stdout.splitlines()
    assert [line.split(": ")[0] for line in lines] == paths
    assert all("identical; wall" in line and "(1.000x)" in line for line in lines)
    data = json.loads(json.dumps(data))  # a copy: the record is shared
    data["presets"][paths[1]]["files"]["summary.json"] = "0" * 64
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps(data))
    differ = bench("--compare", out, str(altered))
    assert differ.returncode == 1
    assert differ.stdout.splitlines()[1].startswith(f"{paths[1]}: summary.json; wall")


@pytest.mark.parametrize("diff", [b"", b"diff --git a/x b/x\n-old\n+new\n"])
def test_the_machine_names_a_dirty_tree_by_the_hash_of_its_diff(monkeypatch, diff):
    """A clean tree is its commit alone; a dirty one adds the sha256 of the
    bytes of `git diff HEAD`, so two dirty trees on one commit differ."""
    out = {("status", "--porcelain", "--untracked-files=no"): b" M x\n" if diff else b"",
           ("rev-parse", "HEAD"): b"0123456789abcdef0123456789abcdef01234567\n",
           ("diff", "HEAD"): diff}
    calls = []

    def git(*args):
        calls.append(args)
        return out[args]

    monkeypatch.setattr(bench_presets, "_git", git)
    machine = bench_presets.machine({})
    assert machine["commit"] == "0123456789abcdef0123456789abcdef01234567"
    assert machine["dirty"] is bool(diff)
    assert machine["diff"] == (hashlib.sha256(diff).hexdigest() if diff else None)
    assert (("diff", "HEAD") in calls) is bool(diff)
