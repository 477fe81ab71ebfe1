"""Acceptance gate: one test per release criterion, one PASS/FAIL line each."""

import contextlib
import json
import sys
import time

import numpy as np
import pytest

import carnotdim as cd
from carnotdim import thermo

from conftest import (FIB2, GDMS2, MORAN4, fib2_system, moran_system, run_cli,
                      sample_box, write_spec)


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {num}] {label}: FAIL", flush=True)
        raise
    print(f"[ACCEPTANCE {num}] {label}: PASS", flush=True)


# ---------------------------------------------------------------------------
# 1. Moran oracle
# ---------------------------------------------------------------------------

def _moran_root_bisect(ratios, tol=1e-12):
    """Independent scalar bisection for sum r^h = 1 (no package code)."""
    def f(h):
        return sum(r ** h for r in ratios) - 1.0
    lo, hi = 0.0, 1.0
    while f(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_moran_oracle():
    with criterion(1, "Moran oracle, 10 random similarity IFS"):
        rng = np.random.default_rng(11)
        for trial in range(10):
            k = int(rng.integers(2, 9))
            ratios = rng.uniform(0.1, 0.8, size=k)
            sys_ = moran_system(ratios, seed=trial)
            start = time.monotonic()
            db = cd.bowen_dim(sys_, tol=1e-6)
            elapsed = time.monotonic() - start
            root = _moran_root_bisect(ratios)
            assert db.h_hi - db.h_lo <= 1e-6 + 1e-12
            assert db.h_lo - 1e-12 <= root <= db.h_hi + 1e-12
            assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. Spectral oracle
# ---------------------------------------------------------------------------

def _perron_local(M, iters=20000, tol=1e-14):
    """Independent power iteration (aperiodic nonnegative M assumed)."""
    v = np.ones(M.shape[0])
    lam = 1.0
    for _ in range(iters):
        w = M @ v
        lam = w.max()
        w = w / lam
        if np.abs(w - v).max() < tol:
            break
        v = w
    return lam


def _spectral_root(A, ratios, tol=1e-12):
    def f(t):
        return np.log(_perron_local(A * ratios[None, :] ** t))
    lo, hi = 0.0, 1.0
    while f(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _random_irreducible(rng, k):
    A = (rng.random((k, k)) < 0.4).astype(float)
    for i in range(k):
        A[i, (i + 1) % k] = 1.0   # a full cycle makes it irreducible
    A[0, 0] = 1.0                 # a loop makes it aperiodic
    return A


def test_criterion_2_spectral_oracle():
    with criterion(2, "spectral oracle, 10 random finite GDMS"):
        g = cd.heisenberg(1)
        rng = np.random.default_rng(7)
        for trial in range(10):
            k = int(rng.integers(2, 7))
            ratios = rng.uniform(0.1, 0.8, size=k)
            A = _random_irreducible(rng, k)
            maps = [(cd.gpoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1)),
                     float(s)) for s in ratios]
            sys_ = cd.build_self_similar(g, maps, incidence=A.astype(bool))
            db = cd.bowen_dim(sys_, tol=1e-6)
            root = _spectral_root(A, ratios)
            assert db.h_lo - 1e-6 <= root <= db.h_hi + 1e-6
            assert db.h_hi - db.h_lo <= 1e-6 + 1e-12


# ---------------------------------------------------------------------------
# 3. Metric / Moebius suite
# ---------------------------------------------------------------------------

def _check_inequalities(g, n, rng, slack=1e-12):
    P = [sample_box(g, n, rng) for _ in range(4)]
    d = lambda a, b: cd.groups.dist_many(g, P[a][0], P[a][1], P[b][0], P[b][1])
    d01, d02, d12 = d(0, 1), d(0, 2), d(1, 2)
    tri = d02 - (d01 + d12)
    assert tri.max() <= slack * (1.0 + (d01 + d12).max())
    d03, d13, d23 = d(0, 3), d(1, 3), d(2, 3)
    ptol = d02 * d13 - (d01 * d23 + d03 * d12)
    assert ptol.max() <= slack * (1.0 + (d01 * d23 + d03 * d12).max())


def test_criterion_3_metric_moebius_suite():
    with criterion(3, "metric + Moebius identity suite"):
        start = time.monotonic()
        rng = np.random.default_rng(5)
        h1 = cd.heisenberg(1)
        hq = cd.quaternionic_heisenberg(1)
        _check_inequalities(h1, 100_000, rng)
        _check_inequalities(hq, 100_000, rng)

        # Moebius identities on the complex Heisenberg group
        g = h1
        n = 10_000
        Z, T = sample_box(g, 4 * n, rng)
        norms = cd.groups.norm_many(g, Z, T)
        keep = norms > 0.2
        Z, T, norms = Z[keep][:n], T[keep][:n], norms[keep][:n]
        W, S = sample_box(g, 4 * n, rng)
        nw = cd.groups.norm_many(g, W, S)
        keep = nw > 0.2
        W, S, nw = W[keep][:n], S[keep][:n], nw[keep][:n]
        J = cd.ConformalChain(g, [cd.Invert()])

        JZ, JT = J.apply_many(Z, T)
        Z2, T2 = J.apply_many(JZ, JT)
        assert np.abs(Z2 - Z).max() <= 1e-8 * (1 + np.abs(Z).max())
        assert np.abs(T2 - T).max() <= 1e-8 * (1 + np.abs(T).max())

        JW, JS = J.apply_many(W, S)
        lhs = cd.groups.dist_many(g, JZ, JT, JW, JS)
        rhs = cd.groups.dist_many(g, Z, T, W, S) / (norms * nw)
        ok = rhs > 1e-6
        assert np.abs(lhs[ok] / rhs[ok] - 1.0).max() <= 1e-8

        deriv = J.deriv_norm_many(Z, T)
        assert np.abs(deriv * norms ** 2 - 1.0).max() <= 1e-8

        # chain rule ||D(f o h)|| = ||Df(h(p))|| * ||Dh(p)||
        f = cd.ConformalChain(g, [cd.Invert(),
                                  cd.Translate(cd.gpoint([2.0, 1.0], [0.5]))])
        h = cd.ConformalChain(g, [cd.Dilate(0.7),
                                  cd.Translate(cd.gpoint([-0.3, 0.4], [0.2]))])
        c = cd.compose(f, h)
        hZ, hT = h.apply_many(Z, T)
        prod = f.deriv_norm_many(hZ, hT) * h.deriv_norm_many(Z, T)
        assert np.abs(c.deriv_norm_many(Z, T) / prod - 1.0).max() <= 1e-8

        # cross-ratio invariance under a Moebius map, vectorized
        m = cd.ConformalChain(g, [cd.Invert(),
                                  cd.Translate(cd.gpoint([3.0, 0.0], [0.0])),
                                  cd.Dilate(0.6)])
        P = [sample_box(g, n, rng) for _ in range(4)]
        def ratio(pts):
            d = lambda a, b: cd.groups.dist_many(g, pts[a][0], pts[a][1],
                                                 pts[b][0], pts[b][1])
            return (d(0, 2) * d(1, 3)) / (d(0, 3) * d(1, 2))
        r1 = ratio(P)
        r2 = ratio([m.apply_many(*p) for p in P])
        assert np.abs(r2 / r1 - 1.0).max() <= 1e-8

        # scalar cross_ratio agrees and is invariant (spot check)
        for k in range(32):
            pts = [cd.gpoint(P[j][0][k], P[j][1][k]) for j in range(4)]
            c1 = cd.cross_ratio(g, *pts)
            c2 = cd.cross_ratio(g, *[m.apply(p) for p in pts])
            assert abs(c2 / c1 - 1.0) <= 1e-8

        assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 4. Gibbs property on the golden-mean shift
# ---------------------------------------------------------------------------

def test_criterion_4_gibbs_spread():
    with criterion(4, "Gibbs spread <= 1.01 at t = h, depth <= 8"):
        sys_ = fib2_system()
        h = cd.bowen_dim(sys_, tol=1e-9).mid
        meas = cd.transfer_eigenmeasure(sys_, h, depth=8)
        lo, hi = cd.gibbs_check(meas, sys_, h)
        assert lo > 0
        assert hi / lo <= 1.01


# ---------------------------------------------------------------------------
# 5. Continued-fraction theta
# ---------------------------------------------------------------------------

def test_criterion_5_cf_theta():
    with criterion(5, "CF theta bracket contains 2, width <= 0.4"):
        g = cd.heisenberg(1)
        fam = cd.cf_shell_family(g, epsilon=0.5, r_max=60.0, n_shells=8)
        est = cd.theta_estimate(fam)
        assert est.lo <= 2.0 <= est.hi
        assert est.hi - est.lo <= 0.4


# ---------------------------------------------------------------------------
# 6. Continued-fraction dimension bounds
# ---------------------------------------------------------------------------

def test_criterion_6_cf_dimension_bounds():
    with criterion(6, "CF dim lower bounds nondecreasing in R, upper < 4"):
        g = cd.heisenberg(1)
        start = time.monotonic()
        lowers = []
        for R in (5.0, 8.0, 12.0):
            sys_ = cd.build_cf_system(g, cd.CfSystemParams(0.5, R))
            db = cd.bowen_dim(sys_, tol=1e-3)
            assert db.h_hi < 4.0
            lowers.append(db.h_lo)
        assert lowers == sorted(lowers)
        assert time.monotonic() - start <= 600.0


# ---------------------------------------------------------------------------
# 7. Dimension comparison functions
# ---------------------------------------------------------------------------

def test_criterion_7_dimension_comparison():
    with criterion(7, "beta bounds exact on Heis^1"):
        m = [2, 1]
        alpha = np.linspace(0.0, 3.0, 301)
        assert np.array_equal(cd.beta_minus(alpha, m),
                              np.maximum(alpha, 2 * alpha - 2))
        assert np.array_equal(cd.beta_plus(alpha, m),
                              np.minimum(2 * alpha, alpha + 1))
        assert np.array_equal(cd.beta_plus(3.0 - alpha, m),
                              4.0 - cd.beta_minus(alpha, m))
        assert cd.beta_plus_inv(2.0, m) == 1.0


# ---------------------------------------------------------------------------
# 8. Volume lemma
# ---------------------------------------------------------------------------

def test_criterion_8_volume_lemma():
    with criterion(8, "Bernoulli(1/2,1/2) dimension = 1 = Bowen midpoint"):
        sys_ = moran_system([0.5, 0.5], seed=3)
        mu = thermo.InvariantMeasureSpec.bernoulli([0.5, 0.5])
        dim = cd.measure_dimension(sys_, mu)
        assert abs(dim - 1.0) <= 1e-6
        db = cd.bowen_dim(sys_, tol=1e-9)
        assert abs(dim - db.mid) <= 1e-6


# ---------------------------------------------------------------------------
# 9. Lattice geometry
# ---------------------------------------------------------------------------

def test_criterion_9_lattice_geometry():
    with criterion(9, "shell-count exponent ~ 4; rounding within A2"):
        g = cd.heisenberg(1)
        radii = np.array([10.0, 14.0, 18.0, 22.0, 26.0, 30.0])
        counts = []
        for R in radii:
            Z, _ = cd.lattice_shell_array(g, 0.0, R)
            counts.append(Z.shape[0])
        x = np.log(radii)
        y = np.log(np.asarray(counts, float))
        slope = np.polyfit(x, y, 1)[0]
        assert abs(slope - 4.0) <= 0.05 * 4.0

        rng = np.random.default_rng(17)
        A2 = cd.lattice_A2(g)
        Z, T = sample_box(g, 10_000, rng, scale=5.0)
        for k in range(Z.shape[0]):
            p = cd.gpoint(Z[k], T[k])
            q = cd.lattice_round(g, p).to_gpoint()
            assert cd.gauge_dist(g, p, q) <= A2 + 1e-12


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical CLI output across runs and threads"):
        moran = write_spec(tmp_path, "moran4.json", MORAN4)
        fib = write_spec(tmp_path, "fib2.json", FIB2)
        gdms = write_spec(tmp_path, "gdms2.json", GDMS2)
        import os
        nthreads = str(os.cpu_count() or 1)
        matrix = [
            ["pressure", "--spec", moran, "--t", "0.5"],
            ["pressure", "--spec", gdms, "--t-grid", "0.2:1.0:0.2",
             "--format", "csv"],
            ["dim", "--spec", fib],
            ["theta", "--system", "cf", "--radius", "12", "--shells", "5"],
            ["measure", "--spec", fib, "--t", "0.8", "--depth", "4"],
            ["limitset", "--spec", moran, "--depth", "3"],
            ["compare-dim", "--h", "2.0"],
            ["measure-dim", "--spec", moran,
             "--bernoulli", "0.25,0.25,0.25,0.25"],
            ["subsystem", "--target", "0.6"],
        ]
        for args in matrix:
            outs = set()
            for threads in ("1", nthreads):
                for _ in range(2):
                    rc, out, err = run_cli(args + ["--threads", threads])
                    assert rc == 0, (args, err.decode())
                    assert out, args
                    outs.add(out)
            assert len(outs) == 1, f"nondeterministic output for {args[0]}"
