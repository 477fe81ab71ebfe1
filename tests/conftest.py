import json
import subprocess
import sys

import numpy as np
import pytest

import carnotdim as cd


def run_cli(args, env=None):
    """Run the CLI in a subprocess; returns (returncode, stdout_bytes, stderr_bytes)."""
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run([sys.executable, "-m", "carnotdim.cli"] + list(args),
                          capture_output=True, env=full_env)
    return proc.returncode, proc.stdout, proc.stderr


MORAN4 = {
    "spec_version": 1,
    "kind": "moran",
    "group": {"kind": "heis_c", "n": 1},
    "maps": [
        {"translate": [0.0, 0.0, 0.0], "scale": 0.5},
        {"translate": [1.0, 0.0, 0.0], "scale": 0.5},
        {"translate": [0.0, 1.0, 0.0], "scale": 0.5},
        {"translate": [1.0, 1.0, 0.0], "scale": 0.5},
    ],
}

# 2-map similarity system on the golden-mean shift A = [[1,1],[1,0]]
FIB2 = {
    "spec_version": 1,
    "kind": "moran",
    "group": {"kind": "heis_c", "n": 1},
    "maps": [
        {"translate": [0.0, 0.0, 0.0], "scale": 0.5},
        {"translate": [1.0, 0.0, 0.0], "scale": 1.0 / 3.0},
    ],
    "incidence": [[1, 1], [1, 0]],
}

GDMS2 = {
    "spec_version": 1,
    "kind": "gdms",
    "group": {"kind": "heis_c", "n": 1},
    "vertices": [{"id": "X", "center": [0.0, 0.0, 0.0], "radius": 2.01}],
    "edges": [
        {"id": "a", "src": "X", "dst": "X",
         "chain": [{"translate": [0.0, 0.0, 0.0]}, {"dilate": 0.5}]},
        {"id": "b", "src": "X", "dst": "X",
         "chain": [{"translate": [1.0, 0.0, 0.0]}, {"dilate": 0.5}]},
    ],
}


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def moran4_path(tmp_path):
    return write_spec(tmp_path, "moran4.json", MORAN4)


@pytest.fixture
def fib2_path(tmp_path):
    return write_spec(tmp_path, "fib2.json", FIB2)


@pytest.fixture
def gdms2_path(tmp_path):
    return write_spec(tmp_path, "gdms2.json", GDMS2)


def fib2_system():
    g = cd.heisenberg(1)
    return cd.build_self_similar(
        g,
        [(cd.gpoint([0.0, 0.0], [0.0]), 0.5),
         (cd.gpoint([1.0, 0.0], [0.0]), 1.0 / 3.0)],
        incidence=np.array([[1, 1], [1, 0]], bool))


def separated_fib2_system():
    """Golden-mean shift on two maps of ratio 0.1 whose images are far
    apart, so its hat system (maximalize) has disjoint vertex balls."""
    g = cd.heisenberg(1)
    return cd.build_self_similar(
        g,
        [(cd.gpoint([-2.0, 0.0], [0.0]), 0.1),
         (cd.gpoint([2.0, 0.0], [0.0]), 0.1)],
        incidence=np.array([[1, 1], [1, 0]], bool))


def moran_system(scales, seed=0):
    """Maximal similarity IFS with the given contraction ratios."""
    g = cd.heisenberg(1)
    rng = np.random.default_rng(seed)
    maps = []
    for s in scales:
        z = rng.uniform(-1, 1, size=2)
        t = rng.uniform(-1, 1, size=1)
        maps.append((cd.gpoint(z, t), float(s)))
    return cd.build_self_similar(g, maps)
