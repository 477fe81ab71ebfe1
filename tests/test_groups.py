import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import carnotdim as cd
from carnotdim import groups as G
from carnotdim.errors import BudgetError, ValidationError
from conftest import sample_box, sample_vertex


@pytest.fixture(scope="module")
def h1():
    return cd.heisenberg(1)


@pytest.fixture(scope="module")
def hq():
    return cd.quaternionic_heisenberg(1)


def test_group_dimensions(h1, hq):
    assert (h1.m1, h1.m2, h1.N, h1.Q) == (2, 1, 3, 4)
    assert (hq.m1, hq.m2, hq.N, hq.Q) == (4, 3, 7, 10)
    assert h1.is_iwasawa and hq.is_iwasawa


def test_gauge_norm_examples(h1):
    assert cd.gauge_norm(h1, cd.gpoint([3.0, 4.0], [0.0])) == 5.0
    # pure-vertical point: norm = |t|^(1/2)
    assert cd.gauge_norm(h1, cd.gpoint([0.0, 0.0], [4.0])) == 2.0
    assert cd.gauge_norm(h1, cd.origin(h1)) == 0.0


def test_norms_past_the_quartic_range(h1, hq):
    """|z|^4 overflows from |z| ~ 1e77 on, |t|^2 from |t| ~ 1e154: those rows
    are rescaled without a RuntimeWarning, every finite row keeps the plain
    formula's bits, and rows with a coordinate that is not finite stay so."""
    rng = np.random.default_rng(0)
    for g in (h1, hq):
        Z = rng.normal(size=(8, g.m1)) * 10.0 ** rng.integers(-3, 4, (8, 1))
        T = rng.normal(size=(8, g.m2))
        Z[:3] *= [[1e200], [1e77], [1e-10]]
        T[2:4] *= [[1e300], [1e200]]
        Z[5, 0], T[6, 0] = np.inf, np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = G.norm_many(g, Z, T)
            # broadcast rows, and a single point
            assert np.array_equal(G.norm_many(g, Z[:, None], T[None, :4]).diagonal()[:4],
                                  norms[:4])
            assert G.gauge_norm(g, cd.GPoint(Z[0], T[0])) == norms[0]
        for k in range(8):
            want = mpmath.sqrt(mpmath.sqrt(
                mpmath.fsum(mpmath.mpf(x) ** 2 for x in Z[k]) ** 2
                + mpmath.fsum(mpmath.mpf(x) ** 2 for x in T[k])))
            if k == 5:
                assert norms[k] == math.inf
            elif k == 6:
                assert math.isnan(norms[k])
            else:
                assert abs(norms[k] / float(want) - 1) <= 4e-16
        with np.errstate(over="ignore"):
            z2, t2 = (Z[3:] ** 2).sum(axis=1), (T[3:] ** 2).sum(axis=1)
        plain = (z2 * z2 + t2) ** 0.25
        finite = np.isfinite(plain)
        assert finite[[1, 4]].all() and np.array_equal(norms[3:][finite], plain[finite])


def test_norms_below_the_quartic_range(h1, hq):
    """|z|^4 + |t|^2 underflows for |z| below ~1e-77: those rows are rescaled
    as the overflowing ones are, within 4e-16 of mpmath, the origin stays 0,
    and every row at or above NORM_TINY keeps the plain formula's bits."""
    rng = np.random.default_rng(1)
    for g in (h1, hq):
        Z = rng.normal(size=(6, g.m1))
        T = rng.normal(size=(6, g.m2))
        Z[:3] *= [[1e-100], [1e-160], [1e-300]]
        T[:3] *= [[1e-200], [0.0], [1e-310]]
        Z[3], T[3] = 0.0, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = G.norm_many(g, Z, T)
        assert norms[3] == 0.0
        for k in (0, 1, 2, 4, 5):
            want = mpmath.root(mpmath.fsum(mpmath.mpf(x) ** 2 for x in Z[k]) ** 2
                               + mpmath.fsum(mpmath.mpf(x) ** 2 for x in T[k]), 4)
            assert abs(norms[k] / float(want) - 1) <= 4e-16
        z2, t2 = (Z[4:] ** 2).sum(axis=1), (T[4:] ** 2).sum(axis=1)
        assert np.array_equal(norms[4:], (z2 * z2 + t2) ** 0.25)
        assert (norms[4:] >= G.NORM_TINY).all()


def test_group_law_heisenberg(h1):
    # (z,t)*(w,s) = (z+w, t+s+2(y w_x - x w_y)) in the chosen normalization
    p = cd.gpoint([1.0, 2.0], [0.5])
    q = cd.gpoint([3.0, -1.0], [0.25])
    r = cd.group_mul(h1, p, q)
    cross = 2.0 * (2.0 * 3.0 - 1.0 * (-1.0))
    assert np.allclose(r.z, [4.0, 1.0])
    assert np.allclose(r.t, [0.75 + cross])


def test_group_axioms(h1, hq):
    rng = np.random.default_rng(0)
    for g in (h1, hq):
        pts = [cd.gpoint(rng.normal(size=g.m1), rng.normal(size=g.m2))
               for _ in range(3)]
        p, q, r = pts
        lhs = cd.group_mul(g, cd.group_mul(g, p, q), r)
        rhs = cd.group_mul(g, p, cd.group_mul(g, q, r))
        assert np.allclose(lhs.z, rhs.z) and np.allclose(lhs.t, rhs.t)
        e = cd.group_mul(g, p, cd.group_inv(g, p))
        assert np.allclose(e.z, 0) and np.allclose(e.t, 0)
        o = cd.origin(g)
        pe = cd.group_mul(g, p, o)
        assert np.allclose(pe.z, p.z) and np.allclose(pe.t, p.t)


def test_dilation_homogeneity(h1, hq):
    rng = np.random.default_rng(1)
    for g in (h1, hq):
        p = cd.gpoint(rng.normal(size=g.m1), rng.normal(size=g.m2))
        q = cd.gpoint(rng.normal(size=g.m1), rng.normal(size=g.m2))
        for r in (0.3, 2.5):
            dp, dq = cd.dilate(g, r, p), cd.dilate(g, r, q)
            assert np.isclose(cd.gauge_norm(g, dp), r * cd.gauge_norm(g, p))
            # dilations are automorphisms
            m1 = cd.dilate(g, r, cd.group_mul(g, p, q))
            m2 = cd.group_mul(g, dp, dq)
            assert np.allclose(m1.z, m2.z) and np.allclose(m1.t, m2.t)
            assert np.isclose(cd.gauge_dist(g, dp, dq),
                              r * cd.gauge_dist(g, p, q))


def test_left_invariance(h1, hq):
    rng = np.random.default_rng(2)
    for g in (h1, hq):
        a, p, q = (cd.gpoint(rng.normal(size=g.m1), rng.normal(size=g.m2))
                   for _ in range(3))
        d0 = cd.gauge_dist(g, p, q)
        d1 = cd.gauge_dist(g, cd.group_mul(g, a, p), cd.group_mul(g, a, q))
        assert np.isclose(d0, d1)


def test_vectorized_matches_scalar(h1):
    rng = np.random.default_rng(3)
    Z1, T1 = sample_box(h1, 50, rng)
    Z2, T2 = sample_box(h1, 50, rng)
    Zm, Tm = G.mul_many(h1, Z1, T1, Z2, T2)
    D = G.dist_many(h1, Z1, T1, Z2, T2)
    for k in range(0, 50, 7):
        p, q = cd.gpoint(Z1[k], T1[k]), cd.gpoint(Z2[k], T2[k])
        m = cd.group_mul(h1, p, q)
        assert np.allclose(m.z, Zm[k]) and np.allclose(m.t, Tm[k])
        assert np.isclose(cd.gauge_dist(h1, p, q), D[k])


def test_step2_requires_skew():
    with pytest.raises(ValidationError):
        cd.step2(np.array([[[1.0, 0.0], [0.0, 1.0]]]))


def test_quaternionic_bracket_skew(hq):
    # each layer-2 component is generated by a skew form
    for B in hq.B:
        assert np.allclose(B, -B.T)


def test_lattice_round_example_and_constants(h1):
    lp = cd.lattice_round(h1, cd.gpoint([0.4, 0.6], [0.2]))
    assert list(lp.z) == [0, 1] and list(lp.t) == [-1]
    assert cd.lattice_A1(h1) == 1.0
    assert np.isclose(cd.lattice_A2(h1), (2 ** 2 / 16 + 1 / 4) ** 0.25)


def test_lattice_round_vs_brute_force(h1):
    """The covering bound holds and the brute-force optimum never beats it."""
    rng = np.random.default_rng(4)
    A2 = cd.lattice_A2(h1)
    # all lattice points in a local window around the rounded base point
    dz = np.arange(-2, 3)
    dt = np.arange(-6, 7)
    ZZ, YY, TT = np.meshgrid(dz, dz, dt, indexing="ij")
    offs_z = np.stack([ZZ.ravel(), YY.ravel()], axis=1).astype(float)
    offs_t = TT.ravel()[:, None].astype(float)
    for _ in range(50):
        p = cd.gpoint(rng.uniform(-3, 3, 2), rng.uniform(-9, 9, 1))
        q = cd.lattice_round(h1, p).to_gpoint()
        d = cd.gauge_dist(h1, p, q)
        assert d <= A2 + 1e-12
        base_z = np.round(p.z)
        base_t = np.round(p.t)
        cand_z = base_z[None, :] + offs_z
        cand_t = base_t[None, :] + offs_t
        D = G.dist_many(h1, np.tile(p.z, (cand_z.shape[0], 1)),
                        np.tile(p.t, (cand_z.shape[0], 1)), cand_z, cand_t)
        assert D.min() <= d + 1e-12


def test_lattice_shell_counts(h1):
    # norm-1 lattice points: (+-1,0;0),(0,+-1;0),(0,0;+-1)
    Z, T = cd.lattice_shell_array(h1, 1.0, np.nextafter(1.0, 2.0))
    assert Z.shape[0] == 6
    # no lattice point has gauge norm strictly between 0 and 1
    Z, T = cd.lattice_shell_array(h1, 0.1, np.nextafter(1.0, 0.0))
    assert Z.shape[0] == 0


def test_lattice_shell_iterator_agrees(h1):
    Z, T = cd.lattice_shell_array(h1, 1.0, 3.0)
    pts = {(*map(int, z), *map(int, t))
           for z, t in zip(Z, T)}
    it_pts = set()
    for lp in cd.lattice_shell(h1, 1.0, 3.0):
        it_pts.add((*map(int, lp.z), *map(int, lp.t)))
    assert pts == it_pts
    norms = G.norm_many(h1, Z.astype(float), T.astype(float))
    assert (norms >= 1.0 - 1e-12).all() and (norms <= 3.0 + 1e-12).all()


def test_lattice_histogram_totals(h1):
    edges, counts = G.lattice_norm_histogram(h1, 1.0, 8.0, bins=64)
    Z, _ = cd.lattice_shell_array(h1, 1.0, 8.0)
    assert counts.sum() == Z.shape[0]
    assert edges.shape[0] == counts.shape[0] + 1


# Brute force for the lattice tests: every point of the box |z_j| < r_hi,
# |t_j| < r_hi^2 whose key |z|^4 + |t|^2 lies in [r_lo^4, r_hi^4).

def _box(m, b):
    axes = np.meshgrid(*([np.arange(-b, b + 1)] * m), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def brute_shell(g, r_lo, r_hi):
    """Shell points in lexicographic (z, t) order, from the full box."""
    Zs = _box(g.m1, math.ceil(r_hi) - 1)
    Ts = _box(g.m2, math.ceil(r_hi * r_hi) - 1)
    z2 = (Zs.astype(float) ** 2).sum(axis=1)
    key = (z2 * z2)[:, None] + (Ts.astype(float) ** 2).sum(axis=1)[None, :]
    iz, it = np.nonzero((key >= r_lo ** 4) & (key < r_hi ** 4))
    return Zs[iz], Ts[it]


def brute_histogram(g, r_lo, r_hi, bins):
    Z, T = brute_shell(g, r_lo, r_hi)
    edges = np.geomspace(max(r_lo, 1.0 - 1e-12), r_hi, bins + 1)
    counts, _ = np.histogram(G.norm_many(g, Z.astype(float), T.astype(float)), bins=edges)
    return edges, counts


# (group, largest r_hi the brute force box can afford)
BRUTE_GROUPS = [(cd.heisenberg(1), 10.0), (cd.heisenberg(2), 6.0),
                (cd.quaternionic_heisenberg(1), 3.0)]
BRUTE_IDS = ["heis1", "heis2", "quat1"]
LATTICE_SETTINGS = settings(max_examples=60, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("g,r_max", BRUTE_GROUPS, ids=BRUTE_IDS)
@LATTICE_SETTINGS
@given(data=st.data(), bins=st.integers(1, 700))
@example(data=None, bins=64)
@example(data=None, bins=3)
def test_lattice_histogram_matches_brute_force(g, r_max, data, bins):
    if data is None:  # the edge cases: a unit shell, an empty shell, r_lo = 0
        cases = [(0.0, float(np.nextafter(1.0, 2.0))), (1.0, float(np.nextafter(1.0, 2.0))),
                 (1.01, 1.02), (0.0, r_max), (0.5, 2.0),
                 # key 4 has norm sqrt(2) = r_hi but sqrt(2)**4 > 4: it is in the
                 # shell and lands in the closed last bin
                 (1.0, math.sqrt(2.0)),
                 # a range a few ulps wide: np.geomspace gives edges that do
                 # not increase, and np.histogram rejects them
                 (6.5970781141690065, 6.597078114169008)]
    else:
        r_hi = data.draw(st.floats(1.0, r_max), label="r_hi")
        r_lo = data.draw(st.one_of(st.just(0.0), st.floats(0.0, r_hi, exclude_max=True)),
                         label="r_lo")
        assume(r_lo < r_hi)
        cases = [(r_lo, r_hi)]
    for r_lo, r_hi in cases:
        want_edges = np.geomspace(max(r_lo, 1.0 - 1e-12), r_hi, bins + 1)
        if not (np.diff(want_edges) > 0).all():
            with pytest.raises(ValidationError):
                G.lattice_norm_histogram(g, r_lo, r_hi, bins=bins)
            continue
        edges, counts = G.lattice_norm_histogram(g, r_lo, r_hi, bins=bins)
        want_edges, want_counts = brute_histogram(g, r_lo, r_hi, bins)
        assert np.array_equal(edges, want_edges)
        assert counts.dtype == np.int64 and np.array_equal(counts, want_counts), (r_lo, r_hi)


def test_lattice_histogram_empty_shell(h1):
    # no key |z|^4 + |t|^2 lies in [1.01^4, 1.02^4) = [1.04.., 1.08..)
    edges, counts = G.lattice_norm_histogram(h1, 1.01, 1.02, bins=8)
    assert edges.shape == (9,) and not counts.any()


def test_lattice_histogram_rejects_bad_ranges(h1):
    for r_lo, r_hi in [(0.0, 0.5), (2.0, 2.0), (-1.0, 3.0)]:
        with pytest.raises(ValidationError):
            G.lattice_norm_histogram(h1, r_lo, r_hi, bins=4)
    with pytest.raises(ValidationError):
        G.lattice_norm_histogram(h1, 1.0, 3.0, bins=0)
    # 600 rows of |z|^2 times 4097 edges
    with pytest.raises(BudgetError):
        G.lattice_norm_histogram(h1, 1.0, 24.5, bins=4096, budget=1_000_000)


@pytest.mark.parametrize("g,r_max", BRUTE_GROUPS, ids=BRUTE_IDS)
@LATTICE_SETTINGS
@given(data=st.data())
def test_lattice_shell_array_matches_brute_force(g, r_max, data):
    r_hi = data.draw(st.floats(0.01, r_max), label="r_hi")
    r_lo = data.draw(st.one_of(st.just(0.0), st.floats(0.0, r_hi, exclude_max=True)),
                     label="r_lo")
    assume(r_lo < r_hi)
    Z, T = cd.lattice_shell_array(g, r_lo, r_hi)
    want_Z, want_T = brute_shell(g, r_lo, r_hi)
    assert Z.dtype == T.dtype == np.int32
    assert Z.flags.c_contiguous and T.flags.c_contiguous
    assert Z.flags.writeable and T.flags.writeable
    assert np.array_equal(Z, want_Z) and np.array_equal(T, want_T)


@pytest.mark.parametrize("block", [1, 2, 7])
@pytest.mark.parametrize("g,r_lo,r_hi", [
    (cd.heisenberg(1), 2.3, 4.1), (cd.heisenberg(1), 0.0, 3.7),
    (cd.heisenberg(2), 1.9, 3.2), (cd.quaternionic_heisenberg(1), 1.3, 2.6),
], ids=["heis1-gapped", "heis1-ball", "heis2-gapped", "quat1-gapped"])
def test_lattice_blocks_of_any_size_match_brute_force(monkeypatch, block, g, r_lo, r_hi):
    """Blocks of 1, 2 and 7 points end at every row boundary, and rows
    longer than a block fill a block each."""
    monkeypatch.setattr(G, "LATTICE_BLOCK", block)
    Z, T = cd.lattice_shell_array(g, r_lo, r_hi)
    want_Z, want_T = brute_shell(g, r_lo, r_hi)
    assert np.array_equal(Z, want_Z) and np.array_equal(T, want_T)
    if r_lo > 0:  # some z row skips the t of small |t| (the origin's row does)
        same_row = (np.diff(Z, axis=0) == 0).all(axis=1)
        assert (np.abs(np.diff(T, axis=0)).max(axis=1)[same_row] > 1).any()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM (Linux)")
def test_lattice_shell_memory_is_the_output():
    """The R = 30 shell on Heis^1 (4.0M points, 46 MiB of int32 output) raises
    the peak RSS by its output and O(block) temporaries, at most 8 MiB.

    A child process reads its own high-water mark, VmHWM: its ru_maxrss
    would start at the peak of the pytest process it was spawned from."""
    code = ("import carnotdim as cd\n"
            "def status(key):\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(line.split()[1]) * 1024 for line in f\n"
            "                    if line.startswith(key + ':'))\n"
            "g = cd.heisenberg(1)\n"
            "cd.lattice_shell_array(g, 0.0, 2.0)\n"
            "before = status('VmRSS')\n"
            "Z, T = cd.lattice_shell_array(g, 0.0, 30.0)\n"
            "print(status('VmHWM') - before, Z.nbytes + T.nbytes)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)
    grown, output = map(int, proc.stdout.split())
    assert output == 3_993_695 * 3 * 4
    assert grown <= output + 8 * 2 ** 20, (grown, output)


def test_lattice_coordinates_past_int32_are_refused_before_any_array(monkeypatch, h1, hq):
    """t up to ceil(r_hi^2) - 1 must fit int32: r_hi = 46341 (t bound
    2,147,488,280 >= 2^31) is a ValidationError at any budget, before a box
    or an output array is made; r_hi = 46340 (2,147,395,599) is not."""
    def no_array(*args):
        raise AssertionError("an array was built")
    monkeypatch.setattr(G, "_int_box", no_array)
    monkeypatch.setattr(G, "_mapped_zeros", no_array)
    for g in (h1, hq):
        with pytest.raises(ValidationError, match="32-bit"):
            G.check_lattice_scan(g, 46341.0, 10 ** 40)
        with pytest.raises(ValidationError, match="32-bit"):
            cd.lattice_shell_array(g, 0.0, 46341.0, budget=10 ** 40)
    assert G.check_lattice_scan(h1, 46340.0, 10 ** 40) == (46339, 2_147_395_599)


def test_quaternionic_scan_charges_boxes_and_points(h1, hq):
    """For m2 > 1 the scan is charged the z box, the t box and the points
    of the ball below r_hi, which it visits; the charge is exact against the
    points enumerated, and nondecreasing in r_hi.  The Heis^1 charge is
    still the box product."""
    Z, T = cd.lattice_shell_array(hq, 0.0, 3.5)
    z2 = (Z.astype(np.int64) ** 2).sum(axis=1)
    key = z2 * z2 + (T.astype(np.int64) ** 2).sum(axis=1)
    charges = []
    for r in np.concatenate([np.arange(0.25, 3.5, 0.25), [1.0 + 1e-9, math.sqrt(2.0), 3.5]]):
        zmax, tmax = math.ceil(r) - 1, math.ceil(r * r) - 1
        want = (2 * zmax + 1) ** 4 + (2 * tmax + 1) ** 3 + int((key < math.ceil(r ** 4)).sum())
        assert G.check_lattice_scan(hq, r, want) == (zmax, tmax)
        with pytest.raises(BudgetError) as exc:
            G.check_lattice_scan(hq, r, want - 1)
        assert exc.value.estimate == want
        charges.append((r, want))
    charges.sort()
    assert all(a[1] <= b[1] for a, b in zip(charges, charges[1:]))
    assert int((key < 3.5 ** 4).sum()) == Z.shape[0]
    # the ball of radius 4.5 holds 2.8e7 points, within the default budget
    assert G.check_lattice_scan(hq, 4.5, G.DEFAULT_LATTICE_BUDGET) == (4, 20)
    with pytest.raises(BudgetError) as exc:
        G.check_lattice_scan(h1, 2.6, 0)
    assert exc.value.estimate == 5 ** 2 * 13


def test_isqrt_exact_near_squares():
    # float roots round up to an integer near k = 2^26 and k = sqrt(2^53);
    # below n = 2^50 (k < 2^25) they cannot, and the correction is skipped
    k = np.concatenate([np.arange(0, 3000), np.arange(2 ** 25 - 3000, 2 ** 25 + 3000),
                        np.arange(2 ** 26 - 3000, 2 ** 26 + 3000),
                        np.arange(94_903_000, 94_906_266)])
    n = np.concatenate([k * k - 1, k * k, k * k + 1])
    n = n[(n >= 0) & (n < 2 ** 53)]
    want = np.array([math.isqrt(int(v)) for v in n])
    assert np.array_equal(G._isqrt(n), want)
    for part in (n < 2 ** 50, n >= 2 ** 50, (n >= 2 ** 49) & (n < 2 ** 51)):
        assert np.array_equal(G._isqrt(n[part]), want[part])


def test_sampling_shapes_and_support(h1):
    rng = np.random.default_rng(5)
    c = cd.gpoint([1.0, 0.0], [0.0])
    Z, T = sample_vertex(h1, cd.VertexSet("X", c, 0.5), 200, rng)
    D = G.dist_many(h1, Z, T, np.tile(c.z, (200, 1)), np.tile(c.t, (200, 1)))
    assert (D <= 0.5 + 1e-9).all()


def test_cross_ratio_basic(h1):
    rng = np.random.default_rng(6)
    pts = [cd.gpoint(rng.normal(size=2), rng.normal(size=1)) for _ in range(4)]
    cr = cd.cross_ratio(h1, *pts)
    assert cr > 0
    # invariance under left translation and dilation
    a = cd.gpoint([0.3, -0.2], [0.7])
    moved = [cd.group_mul(h1, a, p) for p in pts]
    assert np.isclose(cd.cross_ratio(h1, *moved), cr)
    scaled = [cd.dilate(h1, 1.7, p) for p in pts]
    assert np.isclose(cd.cross_ratio(h1, *scaled), cr)


def test_infinity_handling(h1):
    assert cd.is_infinity(cd.INFINITY)
    J = cd.ConformalChain(h1, [cd.Invert()])
    from carnotdim.errors import PoleError
    with pytest.raises(PoleError):
        J.apply(cd.origin(h1))
    back = J.apply(cd.INFINITY)
    assert np.allclose(back.z, 0) and np.allclose(back.t, 0)


def dense_step2(seed: int = 7, m1: int = 5, m2: int = 3) -> G.GroupSpec:
    """A step-2 group whose structure matrices have every off-diagonal entry nonzero."""
    A = np.random.default_rng(seed).normal(size=(m2, m1, m1))
    return cd.step2(A - A.transpose(0, 2, 1))


MUL_GROUPS = {"heis_c1": cd.heisenberg(1), "heis_c3": cd.heisenberg(3),
              "heis_q2": cd.quaternionic_heisenberg(2), "dense_step2": dense_step2()}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MUL_GROUPS)),
       shapes=st.sampled_from([((), ()), ((), (9,)), ((9,), ()), ((4, 9), (9,)),
                               ((1, 9), (4, 1)), ((5920,), (5920,))]),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_mul_many_equals_the_einsum_bit_for_bit(name, shapes, seed, scale):
    """The bilinear term from the nonzero structure constants, added in index
    order, is the three-operand einsum's sum to the bit, with broadcasting."""
    g = MUL_GROUPS[name]
    rng = np.random.default_rng(seed)
    (s1, s2) = shapes
    Z1, Z2 = scale * rng.normal(size=s1 + (g.m1,)), rng.normal(size=s2 + (g.m1,))
    T1, T2 = rng.normal(size=s1 + (g.m2,)), rng.normal(size=s2 + (g.m2,))
    Z, T = G.mul_many(g, Z1, T1, Z2, T2)
    want = T1 + T2 + np.einsum("iab,...b,...a->...i", g.B, Z1, Z2)
    assert T.shape == want.shape and T.tobytes() == want.tobytes()
    assert Z.tobytes() == (Z1 + Z2).tobytes()


def test_structure_terms_are_the_nonzero_constants():
    g = cd.heisenberg(1)
    assert g.B_terms == ((0, 0, 1, 2.0), (0, 1, 0, -2.0))
    assert len(cd.quaternionic_heisenberg(2).B_terms) == 3 * 4 * 2
    assert len(MUL_GROUPS["dense_step2"].B_terms) == 3 * 5 * 4
