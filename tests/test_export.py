"""Limit-set exports: byte-identical to a per-row f"{v:.17g}" writer."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import carnotdim as cd
from carnotdim import gdms

from conftest import moran_system


def reference_csv(cloud) -> str:
    lines = [",".join(cloud.header())]
    for k in range(len(cloud)):
        row = [f"{v:.17g}" for v in cloud.Z[k]] + \
              [f"{v:.17g}" for v in cloud.T[k]] + [f"{cloud.err[k]:.17g}"]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def reference_ply(cloud) -> str:
    coords = np.concatenate([cloud.Z, cloud.T], axis=1)
    if coords.shape[1] < 3:
        coords = np.pad(coords, ((0, 0), (0, 3 - coords.shape[1])))
    out = ["ply\nformat ascii 1.0\n", f"element vertex {len(cloud)}\n",
           "property double x\nproperty double y\nproperty double z\n", "end_header\n"]
    out += [" ".join(f"{v:.17g}" for v in coords[k, :3]) + "\n" for k in range(len(cloud))]
    return "".join(out)


def assert_exports_match(cloud, tmp_path):
    csv, ply = tmp_path / "c.csv", tmp_path / "c.ply"
    cloud.to_csv(csv)
    cloud.to_ply(ply)
    want = reference_csv(cloud)
    assert csv.read_bytes() == want.encode()
    assert ply.read_bytes() == reference_ply(cloud).encode()
    buf = io.StringIO()
    cloud.write_csv(buf)
    assert buf.getvalue() == want


SPECIAL = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, np.inf, -np.inf, np.nan,
           0.1, 1 / 3, 1e16, 123456789012345678.0, 2.0 ** -1074 * 3]


def test_special_values(tmp_path):
    g = cd.heisenberg(1)
    v = np.array(SPECIAL)
    Z = np.stack([v, v[::-1]], axis=1)
    T = np.roll(v, 3)[:, None]
    cloud = gdms.PointCloud(g, Z, T, np.abs(np.roll(v, 5)))
    assert_exports_match(cloud, tmp_path)
    text = (tmp_path / "c.csv").read_text()
    for v in (-0.0, 1e-300, 1e300):
        assert f"{v:.17g}" in text


def test_cloud_of_several_blocks(tmp_path):
    rng = np.random.default_rng(5)
    n = gdms.EXPORT_BLOCK_ROWS + 3
    g = cd.heisenberg(1)
    Z = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
    T = rng.standard_normal((n, 1))
    cloud = gdms.PointCloud(g, Z, T, np.full(n, 0.25))
    assert_exports_match(cloud, tmp_path)


def test_limit_sets_heis1_and_heis2(tmp_path):
    assert_exports_match(moran_system([0.5, 0.3, 0.2]).limit_set_cloud(depth=4), tmp_path)
    g = cd.heisenberg(2)
    maps = [(cd.gpoint([float(i & 1), 0.0, float(i >> 1), 0.0], [0.0]), 0.4)
            for i in range(4)]
    cloud = cd.build_self_similar(g, maps).limit_set_cloud(depth=3)
    assert cloud.Z.shape[1] == 4 and len(cloud) == 64
    assert_exports_match(cloud, tmp_path)
    chaos = cd.build_self_similar(g, maps).limit_set_cloud(depth=5, mode="chaos",
                                                            samples=100, seed=2)
    assert_exports_match(chaos, tmp_path)


def test_empty_cloud(tmp_path):
    g = cd.heisenberg(1)
    cloud = gdms.PointCloud(g, np.empty((0, 2)), np.empty((0, 1)), np.empty(0))
    assert_exports_match(cloud, tmp_path)


floats = st.floats(allow_nan=True, allow_infinity=True, width=64)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 9), st.just(3)), elements=floats),
       st.integers(1, 4))
def test_block_boundaries(arr, block_rows):
    """Any values, and blocks small enough that clouds span several."""
    g = cd.heisenberg(1)
    cloud = gdms.PointCloud(g, arr[:, :2], arr[:, 2:], arr[:, 0] * 0.5)
    saved = gdms.EXPORT_BLOCK_ROWS
    gdms.EXPORT_BLOCK_ROWS = block_rows
    try:
        buf = io.StringIO()
        cloud.write_csv(buf)
    finally:
        gdms.EXPORT_BLOCK_ROWS = saved
    assert buf.getvalue() == reference_csv(cloud)
