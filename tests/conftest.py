import json
import subprocess
import sys

import numpy as np
import pytest

import carnotdim as cd
from carnotdim import groups as G


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


def sample_box(g, k, rng, scale=1.0):
    """k points uniform in the coordinate box [-scale, scale]^{m1} x [-scale^2, scale^2]^{m2}."""
    Z = rng.uniform(-scale, scale, size=(k, g.m1))
    T = rng.uniform(-scale * scale, scale * scale, size=(k, g.m2))
    return Z, T


def sample_vertex(g, v, k, rng):
    """k points of the vertex set v (its ball, or its annulus if it has an
    inner radius): unit-box draws kept when their gauge norm lies in
    [inner_radius / radius, 1], then dilated and translated onto v."""
    out_Z = np.empty((0, g.m1)); out_T = np.empty((0, g.m2))
    while out_Z.shape[0] < k:
        m = max(2 * (k - out_Z.shape[0]), 64)
        Z, T = sample_box(g, m, rng)
        norms = G.norm_many(g, Z, T)
        keep = (norms <= 1.0) & (norms >= v.inner_radius / v.radius)
        out_Z = np.concatenate([out_Z, Z[keep]]); out_T = np.concatenate([out_T, T[keep]])
    Z, T = G.dilate_many(g, v.radius, out_Z[:k], out_T[:k])
    return G.mul_many(g, v.center.z, v.center.t, Z, T)
