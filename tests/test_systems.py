import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import carnotdim as cd
from carnotdim import groups as G
from carnotdim import systems, thermo
from carnotdim.errors import ValidationError

from conftest import moran_system


@pytest.fixture(scope="module")
def g():
    return cd.heisenberg(1)


# ---------------------------------------------------------------------------
# Continued-fraction systems
# ---------------------------------------------------------------------------

def test_cf_alphabet_matches_lattice_shell(g):
    params = cd.CfSystemParams(0.5, 6.0)
    Z, T, norms = systems.cf_alphabet(g, params)
    Zs, Ts = cd.lattice_shell_array(g, 3.0, np.nextafter(6.0, np.inf))
    assert Z.shape[0] == Zs.shape[0]
    got = {(int(z[0]), int(z[1]), int(t[0])) for z, t in zip(Z, T)}
    want = {(int(z[0]), int(z[1]), int(t[0])) for z, t in zip(Zs, Ts)}
    assert got == want
    assert (norms >= 3.0 - 1e-12).all() and (norms <= 6.0 + 1e-12).all()
    # deterministic ordering: norms nondecreasing
    assert (np.diff(norms) >= -1e-12).all()


@pytest.mark.parametrize("n, R", [(1, 4.0), (1, 5.0), (1, 6.0), (1, 8.0), (2, 3.6)])
def test_cf_weight_table_is_computed_from_the_normal_form(n, R):
    """No builder attaches a table; the computed one has d = ||gamma|| exactly,
    so it is the closed form [(||gamma|| + 1/2)^-2, (||gamma|| - 1/2)^-2]."""
    g = cd.heisenberg(n)
    params = cd.CfSystemParams(0.5, R)
    sys_ = cd.build_cf_system(g, params)
    assert sys_.weights is None
    norms = systems.cf_alphabet(g, params)[2]
    d, gap = sys_.pole_gaps
    assert np.array_equal(d, norms) and np.array_equal(gap, norms - 0.5)
    table = thermo.ensure_weights(sys_)
    assert np.array_equal(table.w_lo, 1.0 / (norms + 0.5) ** 2)
    assert np.array_equal(table.w_up, 1.0 / (norms - 0.5) ** 2)
    assert table.distortion == 1.0 and not table.exact


def test_similarity_weight_table_is_computed_from_the_normal_form():
    scales = [0.5, 0.25, 0.3, 0.125]
    sys_ = moran_system(scales)
    assert sys_.weights is None and np.array_equal(sys_.pole_gaps[1], np.ones(4))
    table = thermo.ensure_weights(sys_)
    assert np.array_equal(table.w_lo, scales) and np.array_equal(table.w_up, scales)
    assert table.exact


def test_cf_weights_are_pointwise_derivative_bounds(g):
    sys_ = cd.build_cf_system(g, cd.CfSystemParams(0.5, 5.0))
    table = thermo.ensure_weights(sys_)
    rng = np.random.default_rng(0)
    v = sys_.vertices[0]
    Z, T = v.sample(g, 64, rng)
    for k in range(0, sys_.n_edges, 5):
        chain = sys_.edges[k].chain
        deriv = chain.deriv_norm_many(Z, T)
        # phi_gamma(p) = J(gamma * p): the derivative norm is d(gamma*p, o)^-2
        gz = chain.primitives[1].point  # the Translate(gamma) primitive
        MZ, MT = G.mul_many(g, np.tile(gz.z, (64, 1)), np.tile(gz.t, (64, 1)),
                            Z, T)
        oracle = G.norm_many(g, MZ, MT) ** -2.0
        assert np.abs(deriv / oracle - 1.0).max() < 1e-12
        assert (deriv >= table.w_lo[k] * (1 - 1e-12)).all()
        assert (deriv <= table.w_up[k] * (1 + 1e-12)).all()


def test_cf_images_contained_in_domain(g):
    sys_ = cd.build_cf_system(g, cd.CfSystemParams(0.5, 5.0))
    rng = np.random.default_rng(1)
    v = sys_.vertices[0]
    Z, T = v.sample(g, 256, rng)
    for e in sys_.edges[::7]:
        IZ, IT = e.chain.apply_many(Z, T)
        norms = G.norm_many(g, IZ, IT)
        # images land in B(o, 1/(delta - 1/2)) strictly inside B(o, 1/2)
        assert norms.max() <= 1.0 / 2.5 + 1e-12


def test_cf_shell_family_theta(g):
    fam = cd.cf_shell_family(g, 0.5, 30.0, n_shells=6)
    assert fam.tail == "geometric"
    est = cd.theta_estimate(fam)
    # at this truncation the bracket is loose but must already contain Q/2
    assert est.lo <= 2.0 <= est.hi


def test_cf_shell_family_r60_pinned(g):
    # counted in closed form; the values are those of enumerating and binning
    # the 63,939,688 lattice points one by one
    fam = cd.cf_shell_family(g, 0.5, 60.0, n_shells=8)
    assert sum(int(c.sum()) for c in fam.counts) == 63_939_688
    est = cd.theta_estimate(fam)
    assert (est.lo, est.hi) == (1.9798602337983926, 2.007336301090619)


def test_cf_shell_family_theta_heis2():
    # theta = Q/2 = 3 on Heis^2; the r_max = 60 family has ~3.1e11 points
    fam = cd.cf_shell_family(cd.heisenberg(2), 0.5, 60.0, n_shells=8)
    est = cd.theta_estimate(fam)
    assert est.lo <= 3.0 <= est.hi
    assert est.hi - est.lo <= 0.4


def test_cf_empty_alphabet_rejected(g):
    with pytest.raises(ValidationError):
        cd.build_cf_system(g, cd.CfSystemParams(0.5, 2.9))


def test_cf_requires_complex_heisenberg():
    hq = cd.quaternionic_heisenberg(1)
    with pytest.raises(ValidationError):
        systems.cf_alphabet(hq, cd.CfSystemParams(0.5, 5.0))


# ---------------------------------------------------------------------------
# Sphere packing
# ---------------------------------------------------------------------------

def test_sphere_packing_separation_and_maximality(g):
    radius, sep = 1.0, 0.25
    Z, T = cd.sphere_packing(g, radius, sep, seed=0, oversample=64)
    assert Z.shape[0] > 10
    # all points on the sphere
    norms = G.norm_many(g, Z, T)
    assert np.abs(norms - radius).max() < 1e-6
    # pairwise separation via brute force
    D = systems._cross_dist(g, Z, T, Z, T)
    np.fill_diagonal(D, np.inf)
    assert D.min() >= sep * (1 - 1e-9)
    # greedy insertion over a dense candidate set is near-maximal
    frac = systems.packing_maximality(g, Z, T, radius, sep, trials=2000)
    assert frac > 0.95


def test_sphere_packing_count_scales_like_Q_minus_1(g):
    """Doubling the radius at fixed separation multiplies counts by ~2^(Q-1)."""
    sep = 0.3
    n1 = cd.sphere_packing(g, 1.0, sep, seed=2)[0].shape[0]
    n2 = cd.sphere_packing(g, 2.0, sep, seed=2)[0].shape[0]
    rate = math.log2(n2 / n1)
    assert abs(rate - (g.Q - 1)) < 0.45


def test_sphere_packing_validation(g):
    with pytest.raises(ValidationError):
        cd.sphere_packing(g, 1.0, 3.0, seed=0)   # separation >= diameter


def loop_packing(g, radius, separation, seed, oversample=16, max_points=2_000_000):
    """The sequential greedy loop that sphere_packing replaces: one candidate
    at a time, checked against the accepted points of its 3^(m1+m2) cells."""
    rng = np.random.default_rng(seed)
    area = (radius / separation) ** (g.Q - 1)
    n_cand = int(min(max(oversample * area, 1024), max_points))
    Z, T = G.sample_sphere(g, G.origin(g), radius, n_cand, rng)
    bnorm = max(float(np.linalg.norm(Bi, 2)) for Bi in g.B)
    h_t = separation ** 2 + bnorm * radius * separation
    keys = np.concatenate([np.floor(Z / separation), np.floor(T / h_t)],
                          axis=1).astype(np.int64)
    dims = g.m1 + g.m2
    deltas = np.stack(np.meshgrid(*([[-1, 0, 1]] * dims), indexing="ij"),
                      axis=-1).reshape(-1, dims)
    B = [[list(row) for row in Bi] for Bi in g.B]
    sep4 = separation ** 4
    cell = {}
    accepted = []
    Zl, Tl = Z.tolist(), T.tolist()
    keyl = [tuple(k) for k in keys.tolist()]
    deltal = [tuple(d) for d in deltas.tolist()]
    m1, m2 = g.m1, g.m2
    for i in range(n_cand):
        key = keyl[i]
        zi, ti = Zl[i], Tl[i]
        ok = True
        for dk in deltal:
            bucket = cell.get(tuple(a + b for a, b in zip(key, dk)))
            if not bucket:
                continue
            for j in bucket:
                zj, tj = Zl[j], Tl[j]
                z2 = 0.0
                for a in range(m1):
                    v = zj[a] - zi[a]
                    z2 += v * v
                t2 = 0.0
                for s in range(m2):
                    tau = tj[s] - ti[s]
                    Bs = B[s]
                    for a in range(m1):
                        row = Bs[a]
                        zja = zj[a]
                        for b in range(m1):
                            tau -= row[b] * zi[b] * zja
                    t2 += tau * tau
                if z2 * z2 + t2 < sep4:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            cell.setdefault(key, []).append(i)
            accepted.append(i)
    idx = np.asarray(accepted)
    return Z[idx], T[idx]


PACKING_GROUPS = [cd.heisenberg(1), cd.heisenberg(2), cd.quaternionic_heisenberg(1)]


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gk=st.integers(0, 2), shell=st.integers(1, 4), scale=st.sampled_from([1.0, 8.0]),
       seed=st.integers(0, 2 ** 16), max_points=st.integers(1, 2500),
       block=st.sampled_from([256, systems.PACKING_BLOCK]))
def test_sphere_packing_matches_sequential_loop(gk, shell, scale, seed, max_points, block):
    """The blocked packing accepts exactly the points of the sequential loop,
    at the Cantor shells' radii and separations (separation_scale 1 and 8);
    up to 2,500 candidates cross the block boundaries 64, 192, 448, 960, 1984,
    and blocks capped at 256 reach their full size.  The loop is slow in the
    7-dimensional cells of quaternionic_heisenberg(1), so it gets at most
    1,000 candidates."""
    g = PACKING_GROUPS[gk]
    max_points = min(max_points, [2500, 2500, 1000][gk])
    radius = float(np.sum(np.arange(1, shell + 1, dtype=float) ** -2.0))
    sep = scale * (shell + 2.0) ** -2.0
    with mock.patch.object(systems, "PACKING_BLOCK", block):
        Z, T = cd.sphere_packing(g, radius, sep, seed, max_points=max_points)
    Zo, To = loop_packing(g, radius, sep, seed, max_points=max_points)
    assert np.array_equal(Z, Zo) and np.array_equal(T, To)


@pytest.mark.parametrize("gk, sep, n", [(0, 1e-7, 1500), (2, 1e-3, 300)])
def test_sphere_packing_wrapped_cell_codes(monkeypatch, gk, sep, n):
    """A key box with more than 2^64 cells wraps the cell codes; the packing
    still equals the loop's."""
    g = PACKING_GROUPS[gk]
    exact = []
    cell_codes = systems._cell_codes
    monkeypatch.setattr(systems, "_cell_codes",
                        lambda keys: exact.append(cell_codes(keys)[2]) or cell_codes(keys))
    Z, T = cd.sphere_packing(g, 1.0, sep, seed=3, max_points=n)
    assert exact == [False]
    Zo, To = loop_packing(g, 1.0, sep, seed=3, max_points=n)
    assert np.array_equal(Z, Zo) and np.array_equal(T, To)


# ---------------------------------------------------------------------------
# Cantor systems
# ---------------------------------------------------------------------------

def lower_moran_root(w_lo):
    """Root of sum w_lo^t = 1 by bisection in 40-digit arithmetic."""
    w, counts = np.unique(w_lo, return_counts=True)
    with mpmath.workdps(40):
        terms = [(mpmath.log(mpmath.mpf(float(x))), int(c)) for x, c in zip(w, counts)]
        lo, hi = mpmath.mpf(0), mpmath.mpf(4)
        for _ in range(60):
            mid = (lo + hi) / 2
            if mpmath.fsum(c * mpmath.exp(mid * lx) for lx, c in terms) >= 1:
                lo = mid
            else:
                hi = mid
        return float(lo)


def assert_lower_root(db, weights):
    """Without a distortion constant, P_lo(t) = log sum w_lo^t exactly, so h_lo
    is the Moran root of w_lo up to the bisection tolerance."""
    assert weights.distortion == 1.0
    root = lower_moran_root(weights.w_lo)
    assert db.h_lo <= root < db.h_lo + db.tol


# h_lo pins of the closed-form brackets.  The parametrize tuples keep the
# former h_lo, whose lower pressure bound was discounted by a sampled
# distortion constant (K = 1.857 here); the new h_lo may only be larger.
CF_H_LO = {4.0: 2.4443359375, 5.0: 2.62353515625, 6.0: 2.70556640625}


@pytest.mark.parametrize("R, h_lo_sampled_k, h_hi", [
    (4.0, 2.376953125, 3.13427734375),
    (5.0, 2.5556640625, 3.25830078125),
    (6.0, 2.63818359375, 3.29931640625),
])
def test_cf_dimension_brackets_pinned(g, R, h_lo_sampled_k, h_hi):
    """Brackets of the per-letter chain construction, reproduced by the rows."""
    sys_ = cd.build_cf_system(g, cd.CfSystemParams(0.5, R), distortion_seed=7)
    db = cd.bowen_dim(sys_, tol=1e-3)
    assert (db.h_lo, db.h_hi) == (CF_H_LO[R], h_hi)
    assert db.h_lo >= h_lo_sampled_k
    assert_lower_root(db, thermo.ensure_weights(sys_))


def test_cantor_dimension_bracket_pinned(g):
    params = cd.CantorSystemParams(epsilon=2.0, shells=3, separation_scale=8.0)
    sys_ = cd.build_cantor_system(g, params, seed=0)
    assert np.bincount(sys_.cantor_shells).tolist() == [0, 14, 118, 417]
    db = cd.bowen_dim(sys_, tol=1e-3)
    assert (db.h_lo, db.h_hi) == (1.3046875, 1.638671875)
    assert db.h_lo >= 1.2705078125  # h_lo with the former sampled distortion constant
    assert_lower_root(db, thermo.ensure_weights(sys_))
    # closed-form Lipschitz bound max r_e / inner^2 = 0.04 / 0.81; the former
    # sampled ratio times 1.05 was smaller, so it was not a bound
    assert sys_.contraction == 0.04938271604938271
    assert sys_.contraction >= 0.045897858727804636


def chain_balls(sys_, e):
    """Every ball that the closed forms put around phi_e(X_t(e)), from the
    chain of edge e: B(phi(c), r_f R) for a similarity on B(c, R); for a map
    with pole a at d = d(c, a), with gap = max(d - R, R_in - d),
    B(phi(infinity), r_f / gap) and, if d > 0, B(phi(c), r_f R / (gap d))."""
    v, chain = sys_.vertices[sys_.vertex_index[e.dst]], e.chain
    if chain.pole is None:
        return [(chain.apply(v.center), chain.r_f * v.radius)]
    d = cd.gauge_dist(sys_.group, v.center, chain.pole)
    gap = max(d - v.radius, v.inner_radius - d)
    balls = [(chain.apply(cd.INFINITY), chain.r_f / gap)]
    if d > 0:
        balls.append((chain.apply(v.center), chain.r_f * v.radius / (gap * d)))
    return balls


def image_balls(sys_):
    """(center Z, T, radius) of the smallest chain ball of each edge."""
    out = [min(chain_balls(sys_, e), key=lambda b: b[1]) for e in sys_.edges]
    return (np.stack([c.z for c, _ in out]), np.stack([c.t for c, _ in out]),
            np.array([r for _, r in out]))


def check_certificate(sys_, n_points=200, seed=0):
    """The system's image balls are the smallest chain balls; sampled domain
    points land in every chain ball and in the image vertex, and pair ratios
    d(phi x, phi y) / d(x, y) stay below the certified contraction."""
    g = sys_.group
    for got, want in zip(sys_.image_balls, image_balls(sys_)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    rng = np.random.default_rng(seed)
    for k, e in enumerate(sys_.edges):
        v_dom = sys_.vertices[sys_.vertex_index[e.dst]]
        v_img = sys_.vertices[sys_.vertex_index[e.src]]
        XZ, XT = v_dom.sample(g, 2 * n_points, rng)
        FZ, FT = sys_.table.apply([k], XZ, XT)
        FZ, FT = FZ[0], FT[0]
        for c, rho in chain_balls(sys_, e):
            assert (G.dist_many(g, c.z, c.t, FZ, FT) <= rho * (1 + 1e-12)).all()
        assert v_img.contains(g, FZ, FT, pad=1e-12).all()
        dxy = G.dist_many(g, XZ[:n_points], XT[:n_points], XZ[n_points:], XT[n_points:])
        dF = G.dist_many(g, FZ[:n_points], FT[:n_points], FZ[n_points:], FT[n_points:])
        assert (dF <= sys_.contraction * dxy * (1 + 1e-12)).all()


def test_cf_certificate_holds_at_samples(g):
    sys_ = cd.build_cf_system(g, cd.CfSystemParams(0.5, 4.0))
    assert sys_.contraction == float(thermo.ensure_weights(sys_).w_up.max())
    check_certificate(sys_, n_points=50)


def test_cantor_shell_certificate_holds_at_samples(g):
    params = cd.CantorSystemParams(epsilon=2.0, shells=3, separation_scale=8.0)
    sys_ = cd.build_cantor_system(g, params, seed=0)
    inner = sys_.vertices[0].inner_radius
    assert sys_.contraction == sys_.table.r_f.max() / inner ** 2
    check_certificate(sys_, n_points=50)


@settings(max_examples=20, deadline=None)
@given(anchors=st.lists(st.tuples(st.floats(2.2, 3.8), st.floats(-0.3, 0.3),
                                  st.floats(-0.3, 0.3)), min_size=1, max_size=4),
       r=st.floats(1e-3, 0.2))
def test_cantor_explicit_certificate_holds_at_samples(anchors, r):
    g = cd.heisenberg(1)
    pts = [cd.gpoint(a[:2], a[2:]) for a in anchors]
    center = cd.gpoint([3.0, 0.0], [0.0])
    params = cd.CantorSystemParams(points=pts, radii=[r] * len(pts),
                                   domain_center=center, domain_radius=1.0)
    # the ball B(p, r (R + d(c, p)) / ((||c|| - R) ||p||)) around the anchor
    # also holds each image; where it lies in B(c, R) so must the smaller ball
    P = np.array([a for a in anchors])
    dc_p = G.dist_many(g, center.z, center.t, P[:, :2], P[:, 2:])
    anchor_ok = dc_p + r * (1.0 + dc_p) / (2.0 * G.norm_many(g, P[:, :2], P[:, 2:])) <= 1.0
    try:
        sys_ = cd.build_cantor_system(g, params)
    except ValidationError as exc:  # then some certified ball leaves the domain
        assert not anchor_ok.all()
        PZ, PT, rho = image_balls(cd.build_cantor_system(g, params, validate="none"))
        dc = G.dist_many(g, center.z, center.t, PZ, PT)
        k = int(np.flatnonzero(dc + rho > 1.0)[0])
        assert f"'c{k}'" in str(exc)
        return
    assert sys_.contraction == pytest.approx(r / 4.0, rel=1e-15)
    check_certificate(sys_, n_points=100)


def test_spec_chain_certificate_holds_at_samples(g):
    """Chains with one to three inversions and a similarity, on two vertices;
    J o J o delta o J o tau sends infinity to o through both swaps."""
    X = cd.VertexSet(id="X", center=cd.origin(g), radius=0.5)
    Y = cd.VertexSet(id="Y", center=cd.gpoint([4.0, 0.0], [0.0]), radius=0.5,
                     inner_radius=0.1)
    chains = {
        "a": ("X", "X", [cd.Invert(), cd.Translate(cd.gpoint([3.0, 0.0], [1.0]))]),
        "b": ("X", "X", [cd.Rotate(theta=0.7), cd.Invert(),
                         cd.Translate(cd.gpoint([2.0, 2.0], [-1.0])), cd.Dilate(0.9)]),
        "c": ("X", "Y", [cd.Invert(), cd.Invert(), cd.Dilate(0.5), cd.Invert(),
                         cd.Translate(cd.gpoint([-1.0, 0.0], [0.0]))]),
        "d": ("Y", "X", [cd.Translate(cd.gpoint([4.3, 0.0], [0.0])), cd.Dilate(0.3)]),
        "e": ("X", "Y", [cd.Translate(cd.gpoint([0.1, 0.0], [0.0])), cd.Dilate(0.4),
                         cd.Translate(cd.gpoint([-4.0, 0.0], [0.0]))]),
    }
    edges = [cd.EdgeMap(id=k, src=s, dst=d, chain=cd.ConformalChain(g, p))
             for k, (s, d, p) in chains.items()]
    sys_ = cd.GdmsSpec(g, [X, Y], edges)
    assert sys_.table.has_pole.tolist() == [True, True, True, False, False]
    check_certificate(sys_)


def test_cantor_containment_failures_raise(g):
    # shell mode: at separation_scale 10 and seed 2 the image ball of the
    # first shell-1 map reaches into the hole of radius inner = 0.9
    with pytest.raises(ValidationError, match="'c0'.*escapes"):
        cd.build_cantor_system(g, cd.CantorSystemParams(
            epsilon=2.0, shells=2, separation_scale=10.0), seed=2)
    # explicit mode: an anchor near the boundary of B(c, 1) with a large ratio
    pts = [cd.gpoint([3.0, 0.0], [0.0]), cd.gpoint([3.9, 0.0], [0.0])]
    params = cd.CantorSystemParams(points=pts, radii=[0.05, 0.5],
                                   domain_center=cd.gpoint([3.0, 0.0], [0.0]),
                                   domain_radius=1.0)
    with pytest.raises(ValidationError, match="'c1'.*escapes"):
        cd.build_cantor_system(g, params)
    sys_ = cd.build_cantor_system(g, params, validate="none")
    assert sys_.contraction == 0.5 / 4.0
    with pytest.raises(ValidationError, match="unknown validation mode"):
        cd.build_cantor_system(g, params, validate="sampled")


def test_cantor_explicit_anchor_off_center_certifies(g):
    """p = (3, 0; 0.49) is 0.7 from the center of B((3, 0; 0), 1); with r = 0.9
    the image lies within 0.955 of the center by the anchor ball, beyond 1 by
    B(phi(infinity), r / gap), and the certificate takes the ball around phi(c)."""
    params = cd.CantorSystemParams(points=[cd.gpoint([3.0, 0.0], [0.49])], radii=[0.9],
                                   domain_center=cd.gpoint([3.0, 0.0], [0.0]),
                                   domain_radius=1.0)
    sys_ = cd.build_cantor_system(g, params)
    assert sys_.image_balls[2][0] == pytest.approx(0.9 / 6.0, rel=1e-12)
    check_certificate(sys_, n_points=100)


def test_maximalize_pole_system(g):
    """Hat vertices of an explicit Cantor system are its image balls
    B(phi_e(c), r R / (gap d)), disjoint here; the balls B(phi_e(infinity), r /
    gap), three times as wide, would overlap.  Pressure brackets of the hat
    system and of the system overlap."""
    c = cd.gpoint([3.0, 0.0], [0.0])
    pts = [c, cd.gpoint([3.04, 0.0], [0.0]), cd.gpoint([3.5, 0.0], [0.0])]
    sys_ = cd.build_cantor_system(g, cd.CantorSystemParams(
        points=pts, radii=[0.05] * 3, domain_center=c, domain_radius=1.0))
    hat = sys_.maximalize()
    Z, T, rho = sys_.image_balls
    assert rho.tolist() == pytest.approx([0.05 / 6.0] * 3, rel=1e-12)
    for a, v in enumerate(hat.vertices):
        assert (v.center.z.tolist(), v.center.t.tolist(), v.radius) == (
            Z[a].tolist(), T[a].tolist(), rho[a])
    assert G.gauge_dist(g, hat.vertices[0].center, hat.vertices[1].center) < 2 * 0.05 / 2.0
    rng = np.random.default_rng(0)
    XZ, XT = sys_.vertices[0].sample(g, 100, rng)
    FZ, FT = sys_.table.apply(np.arange(3), XZ, XT)
    for a, v in enumerate(hat.vertices):
        assert v.contains(g, FZ[a], FT[a], pad=1e-12).all()
    assert hat.count_words(3) == sys_.count_words(4)
    for t in (0.1, 0.5):
        p, q = cd.pressure_bracket(sys_, t), cd.pressure_bracket(hat, t)
        assert p.lower <= q.upper and q.lower <= p.upper


def test_cantor_generic_two_points(g):
    # anchors on the x-axis: no twist term, so gauge distances stay small
    pts = [cd.gpoint([3.0, 0.0], [0.0]), cd.gpoint([3.5, 0.0], [0.0])]
    params = cd.CantorSystemParams(points=pts, radii=[0.03, 0.03],
                                   domain_center=cd.gpoint([3.25, 0.0], [0.0]),
                                   domain_radius=1.0)
    sys_ = cd.build_cantor_system(g, params, seed=0)
    assert sys_.n_edges == 2
    # each map fixes its anchor point
    for e, p in zip(sys_.edges, pts):
        q = e.chain.apply(p)
        assert cd.gauge_dist(g, q, p) < 1e-9
    # images are contained and disjoint
    rng = np.random.default_rng(3)
    v = sys_.vertices[0]
    Z, T = v.sample(g, 400, rng)
    images = [e.chain.apply_many(Z, T) for e in sys_.edges]
    for IZ, IT in images:
        assert v.contains(g, IZ, IT, pad=1e-9).all()
    D = systems._cross_dist(g, images[0][0], images[0][1],
                            images[1][0], images[1][1])
    assert D.min() > 0
    db = cd.bowen_dim(sys_)
    assert 0 < db.h_hi < g.Q


def test_cantor_domain_must_avoid_pole(g):
    pts = [cd.gpoint([0.5, 0.0], [0.0])]
    params = cd.CantorSystemParams(points=pts, radii=[0.05],
                                   domain_center=cd.origin(g),
                                   domain_radius=1.0)
    with pytest.raises(ValidationError):
        cd.build_cantor_system(g, params)


def test_cantor_params_validation():
    with pytest.raises(ValidationError):
        cd.CantorSystemParams().mode
    with pytest.raises(ValidationError):
        cd.CantorSystemParams(epsilon=0.9, shells=3).mode
    with pytest.raises(ValidationError):
        cd.CantorSystemParams(epsilon=2.0, shells=0).mode


def test_cantor_shell_mode_structure(g):
    params = cd.CantorSystemParams(epsilon=2.0, shells=3, separation_scale=8.0)
    sys_ = cd.build_cantor_system(g, params, seed=0)
    shells = sys_.cantor_shells
    assert set(shells) == {1, 2, 3}
    # later shells carry more points (larger spheres, finer separation)
    counts = [int((shells == n).sum()) for n in (1, 2, 3)]
    assert counts[0] < counts[1] < counts[2]
    v = sys_.vertices[0]
    assert v.inner_radius > 0
    # map images of sampled annulus points stay inside the annulus
    rng = np.random.default_rng(5)
    Z, T = v.sample(g, 100, rng)
    for k in range(0, sys_.n_edges, 50):
        IZ, IT = sys_.edges[k].chain.apply_many(Z, T)
        assert v.contains(g, IZ, IT, pad=1e-9).all()
    fam = cd.cantor_shell_family(sys_)
    assert fam.tail == "power"
    assert fam.n_shells == 3


def test_cantor_theta_bracket(g):
    """Shell construction with epsilon = 2: theta bracket straddles Q - 1/2."""
    params = cd.CantorSystemParams(epsilon=2.0, shells=6, separation_scale=8.0)
    sys_ = cd.build_cantor_system(g, params, seed=0)
    fam = cd.cantor_shell_family(sys_)
    est = cd.theta_estimate(fam)
    assert est.lo <= 3.5 <= est.hi


def test_cantor_shell_family_requires_shell_mode(g):
    pts = [cd.gpoint([3.0, 0.0], [0.0])]
    params = cd.CantorSystemParams(points=pts, radii=[0.05],
                                   domain_center=cd.gpoint([3.0, 0.0], [0.0]),
                                   domain_radius=1.0)
    sys_ = cd.build_cantor_system(g, params)
    with pytest.raises(ValidationError):
        cd.cantor_shell_family(sys_)


# ---------------------------------------------------------------------------
# Self-similar systems
# ---------------------------------------------------------------------------

def test_build_self_similar_fixed_point_radius(g):
    maps = [(cd.gpoint([1.0, 0.0], [0.0]), 0.5),
            (cd.gpoint([0.0, 1.0], [0.0]), 0.25)]
    sys_ = cd.build_self_similar(g, maps)
    R = sys_.vertices[0].radius
    # R is (just above) the fixed point of R -> max(||p|| + s R)
    assert R >= max(1.0 + 0.5 * R * (1 - 1e-6), 1.0 + 0.25 * R * (1 - 1e-6))
    # images of the vertex ball stay inside it
    rng = np.random.default_rng(4)
    v = sys_.vertices[0]
    Z, T = v.sample(g, 500, rng)
    for e in sys_.edges:
        IZ, IT = e.chain.apply_many(Z, T)
        assert v.contains(g, IZ, IT, pad=1e-6).all()


@settings(max_examples=40, deadline=None)
@given(maps=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                               st.floats(-2.0, 2.0), st.floats(0.01, 0.95)),
                     min_size=1, max_size=5))
def test_build_self_similar_radius_holds_every_image(maps):
    """||p_e|| + s_e R <= R for every map, so each image ball B(p_e, s_e R)
    lies in the vertex ball B(o, R), also for ratios near 1."""
    g = cd.heisenberg(1)
    sys_ = cd.build_self_similar(g, [(cd.gpoint(m[:2], m[2:3]), m[3]) for m in maps])
    R = sys_.vertices[0].radius
    P = np.array([m[:3] for m in maps])
    s = np.array([m[3] for m in maps])
    assert (G.norm_many(g, P[:, :2], P[:, 2:]) + s * R <= R).all()


def test_build_self_similar_rejects_expanding():
    g = cd.heisenberg(1)
    with pytest.raises(ValidationError):
        cd.build_self_similar(g, [(cd.origin(g), 1.2)])


def test_similarity_shell_family_and_theta():
    # shell k: 3^k maps of scale 3^-k  =>  threshold t = 1
    fam = cd.similarity_shell_family(
        [[3.0 ** -k] for k in range(1, 9)])
    fam = thermo.ShellFamily(log_weights=fam.log_weights,
                             counts=[np.array([3.0 ** k]) for k in range(1, 9)],
                             tail="geometric")
    est = cd.theta_estimate(fam)
    assert abs(est.estimate - 1.0) < 1e-6
    with pytest.raises(ValidationError):
        cd.similarity_shell_family([[1.5]])


def test_power_law_weights_stream():
    gen = cd.power_law_weights(0.5, 2.0)
    w = [next(gen) for _ in range(5)]
    assert np.allclose(w, [0.5 * k ** -2.0 for k in range(1, 6)])
    assert all(0 < x < 1 for x in w)
    with pytest.raises(ValidationError):
        next(cd.power_law_weights(0.5, -1.0))


def test_cf_shell_family_checks_every_shell_before_counting(g, monkeypatch):
    """An over-budget last shell fails before any shell is counted."""
    def no_counting(*args):
        raise AssertionError("a shell was counted")
    monkeypatch.setattr(G, "_count_keys_below", no_counting)
    with pytest.raises(cd.BudgetError, match=r"would cost ~4\.01e\+08 \(budget 2\.00e\+08\)"):
        systems.cf_shell_family(g, 0.5, 600.0, n_shells=8)
