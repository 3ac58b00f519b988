"""`bench_presets.py` on two tiny configs, a dense 1D one and a Kronecker 2D
one: every field of its record, the sha256 of every file a run writes, and
`--compare` of a record with itself and with an altered copy."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from softfem import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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
                            "commit", "dirty"}
    assert machine["cores"] >= 1 and machine["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert all(name.endswith("_NUM_THREADS") for name in machine["threads"])
    assert isinstance(machine["blas"], dict)
    if os.path.isdir(os.path.join(ROOT, ".git")):
        assert re.fullmatch("[0-9a-f]{40}", machine["commit"])
        assert isinstance(machine["dirty"], bool)
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
