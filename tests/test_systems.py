import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carnotdim as cd
from carnotdim import groups as G
from carnotdim import systems, thermo
from carnotdim.errors import ValidationError

from conftest import moran_system, sample_vertex


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
    Z, T = sample_vertex(g, v, 64, rng)
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
    Z, T = sample_vertex(g, v, 256, rng)
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
    assert (est.lo, est.hi) == (1.9798602338502438, 2.007336301080019)


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
    assert np.bincount(sys_.cantor_shells).tolist() == [0, 8, 32, 160]
    db = cd.bowen_dim(sys_, tol=1e-3)
    assert (db.h_lo, db.h_hi) == (1.09326171875, 1.3720703125)
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
        XZ, XT = sample_vertex(g, v_dom, 2 * n_points, rng)
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
    # shell mode: at separation_scale 9.44 the one shell has s = 1.0489 and
    # holds the six lattice points of norm 1; the image ball of the vertical
    # anchor c2 = (0; -s^2), of radius s / 20 = 0.0524 around a point at
    # norm 1.0499, reaches past the outer radius 1.1
    with pytest.raises(ValidationError, match="'c2'.*escapes"):
        cd.build_cantor_system(g, cd.CantorSystemParams(
            epsilon=2.0, shells=1, separation_scale=9.44))
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
    XZ, XT = sample_vertex(g, sys_.vertices[0], 100, rng)
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
    Z, T = sample_vertex(g, v, 400, rng)
    images = [e.chain.apply_many(Z, T) for e in sys_.edges]
    for IZ, IT in images:
        assert v.contains(g, IZ, IT, pad=1e-9).all()
    D = cross_dist(g, images[0][0], images[0][1], images[1][0], images[1][1])
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
    Z, T = sample_vertex(g, v, 100, rng)
    for k in range(0, sys_.n_edges, 50):
        IZ, IT = sys_.edges[k].chain.apply_many(Z, T)
        assert v.contains(g, IZ, IT, pad=1e-9).all()
    fam = cd.cantor_shell_family(sys_)
    assert fam.tail == "power"
    assert fam.n_shells == 3


def shell_layers(eps, n_shells, scale):
    """Radii d_n, separations s_n, layers theta_n and the annulus of the
    shell construction, from its definition."""
    n = np.arange(1, n_shells + 1, dtype=float)
    d = np.cumsum(n ** -eps)
    inner, outer = d[0] - 0.1, d[-1] + 0.1
    s = scale * (n + 2.0) ** -eps
    theta = 0.5 * np.minimum.reduce([s, (n + 1.0) ** -eps, outer - d])
    return d, s, theta, inner, outer


def key_count(m1, r_lo, r_hi):
    """#{(z, t) in Z^m1 x Z : r_lo <= (|z|^4 + t^2)^(1/4) < r_hi}, compared
    as integer keys ceil(r_lo^4) <= |z|^4 + t^2 < ceil(r_hi^4)."""
    L, H = math.ceil(r_lo ** 4), math.ceil(r_hi ** 4)
    below = lambda n: 2 * math.isqrt(n) + 1 if n >= 0 else 0  # #{t : t^2 <= n}
    zmax = math.isqrt(math.isqrt(H)) + 1
    count = 0
    for z in itertools.product(range(-zmax, zmax + 1), repeat=m1):
        z4 = sum(x * x for x in z) ** 2
        count += below(H - 1 - z4) - below(L - 1 - z4)
    return count


def cross_dist(g, Z1, T1, Z2, T2):
    """Pairwise gauge distances, shape (len(Z1), len(Z2))."""
    Z, T = G.mul_many(g, -Z1[:, None, :], -T1[:, None, :], Z2[None, :, :], T2[None, :, :])
    return G.norm_many(g, Z, T)


def min_pair_gap(g, Z, T, rho, block=512):
    """min over pairs i != j of d(c_i, c_j) - rho_i - rho_j, by brute force."""
    best = np.inf
    for lo in range(0, len(Z), block):
        D = cross_dist(g, Z[lo:lo + block], T[lo:lo + block], Z, T)
        D -= rho[lo:lo + block, None] + rho[None, :]
        k = np.arange(D.shape[0])
        D[k, lo + k] = np.inf
        best = min(best, float(D.min()))
    return best


SHELL_CASES = [(cd.heisenberg(1), 3, 8.0), (cd.heisenberg(1), 6, 8.0),
               (cd.heisenberg(2), 3, 8.0)]
SHELL_IDS = ["heis1-3", "heis1-6", "heis2-3"]


@pytest.mark.parametrize("grp, n_shells, scale", SHELL_CASES, ids=SHELL_IDS)
def test_cantor_shells_are_separated(grp, n_shells, scale):
    """Anchors of shell n are s_n apart and lie in [d_n, d_n + theta_n),
    inside the annulus, and each edge's map fixes its anchor; the certified
    image balls are pairwise disjoint.  The anchors are the dilated lattice
    points delta_{s_n}(gamma) with d_n <= s_n ||gamma|| < d_n + theta_n."""
    sys_ = cd.build_cantor_system(grp, cd.CantorSystemParams(
        epsilon=2.0, shells=n_shells, separation_scale=scale))
    d, s, theta, inner, outer = shell_layers(2.0, n_shells, scale)
    assert sys_.vertices[0].inner_radius == inner and sys_.vertices[0].radius == outer
    assert (d + theta <= outer).all() and d[0] >= inner
    layers = [G.dilate_many(grp, s[k], *G.lattice_shell_array(grp, d[k] / s[k],
                                                              (d[k] + theta[k]) / s[k]))
              for k in range(n_shells)]
    anchors = np.concatenate([Z for Z, _ in layers]), np.concatenate([T for _, T in layers])
    assert len(anchors[0]) == sys_.n_edges
    FZ, FT = sys_.table.apply(np.arange(sys_.n_edges), anchors[0][:, None], anchors[1][:, None])
    np.testing.assert_allclose(FZ[:, 0], anchors[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(FT[:, 0], anchors[1], rtol=1e-12, atol=1e-12)
    norms = G.norm_many(grp, *anchors)
    for n in range(1, n_shells + 1):
        on = sys_.cantor_shells == n
        Z, T = anchors[0][on], anchors[1][on]
        assert min_pair_gap(grp, Z, T, np.zeros(on.sum())) >= s[n - 1] * (1 - 1e-12)
        assert (norms[on] >= d[n - 1] * (1 - 1e-12)).all()
        assert (norms[on] < (d[n - 1] + theta[n - 1]) * (1 + 1e-12)).all()
        np.testing.assert_allclose(sys_.table.r_f[on], s[n - 1] * inner / 20.0, rtol=1e-15)
    assert min_pair_gap(grp, *sys_.image_balls) > 0


@pytest.mark.parametrize("grp, n_shells, scale", SHELL_CASES + [(cd.heisenberg(1), 2, 1.0)],
                         ids=SHELL_IDS + ["heis1-2-scale1"])
def test_cantor_shell_counts_match_integer_keys(grp, n_shells, scale):
    """Shell n holds the lattice points with d_n / s_n <= ||gamma|| <
    (d_n + theta_n) / s_n, counted here over integer keys |z|^4 + t^2."""
    sys_ = cd.build_cantor_system(grp, cd.CantorSystemParams(
        epsilon=2.0, shells=n_shells, separation_scale=scale))
    d, s, theta, _, _ = shell_layers(2.0, n_shells, scale)
    want = [key_count(grp.m1, d[k] / s[k], (d[k] + theta[k]) / s[k]) for k in range(n_shells)]
    assert np.bincount(sys_.cantor_shells)[1:].tolist() == want


def test_cantor_shells_ignore_the_seed(g):
    params = cd.CantorSystemParams(epsilon=2.0, shells=3, separation_scale=8.0)
    a, b = (cd.build_cantor_system(g, params, seed=seed) for seed in (0, 5))
    for name in ("ids", "pole_z", "pole_t", "r_f", "base_z", "base_t", "image_z", "image_t"):
        assert np.array_equal(getattr(a.table, name), getattr(b.table, name))
    assert np.array_equal(a.cantor_shells, b.cantor_shells)


def test_cantor_shell_errors(g, monkeypatch):
    params = cd.CantorSystemParams(epsilon=2.0, shells=2, separation_scale=8.0)
    # the lattice scan of shell 2, norms below 2.6, visits 5^2 * 13 = 325
    # candidates, and it is checked before shell 1 (27 candidates) is scanned
    def no_scan(*args):
        raise AssertionError("a lattice was scanned")
    with monkeypatch.context() as m:
        m.setattr(G, "_lattice_points", no_scan)
        with pytest.raises(cd.BudgetError, match="3.25e\\+02"):
            cd.build_cantor_system(g, params, budget=324)
    # at scale 1e3 shell 1 asks for norms in [0.009, 0.0101): no lattice point
    with pytest.raises(ValidationError, match="shell 1 .* no dilated lattice point"):
        cd.build_cantor_system(g, cd.CantorSystemParams(
            epsilon=2.0, shells=2, separation_scale=1e3))
    with pytest.raises(ValidationError, match="separation_scale"):
        cd.build_cantor_system(g, cd.CantorSystemParams(
            epsilon=2.0, shells=2, separation_scale=0.5))


@pytest.mark.parametrize("params", [
    cd.CantorSystemParams(epsilon=2.0, shells=1),
    cd.CantorSystemParams(points=[cd.gpoint([3.0, 0, 0, 0], [0.0, 0.0, 0.0])], radii=[0.05],
                          domain_center=cd.gpoint([3.0, 0, 0, 0], [0.0, 0.0, 0.0]),
                          domain_radius=1.0),
], ids=["shell", "explicit"])
def test_cantor_requires_an_inversion(params, monkeypatch):
    """Heis^1_H has no inversion here: both modes raise UnsupportedError
    before any lattice or table work."""
    def no_scan(*args):
        raise AssertionError("a lattice was scanned")
    monkeypatch.setattr(G, "lattice_shell_array", no_scan)
    with pytest.raises(cd.UnsupportedError):
        cd.build_cantor_system(cd.quaternionic_heisenberg(1), params)


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
    Z, T = sample_vertex(g, v, 500, rng)
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
