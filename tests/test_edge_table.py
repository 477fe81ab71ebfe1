"""Edge tables: the closed-form rows of the builders against ConformalChain."""

import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import carnotdim as cd
from carnotdim import groups as G
from carnotdim.errors import ValidationError
from carnotdim.gdms import _edge_ids
from conftest import sample_box, sample_vertex, separated_fib2_system

G1 = cd.heisenberg(1)
SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

coord = st.floats(-2.0, 2.0, allow_nan=False)
point = st.tuples(coord, coord, coord).map(lambda c: cd.gpoint(c[:2], c[2:]))


def check_rows(sys_, rows, chains, seed=0):
    """Row normal form and batched apply against chains that the test builds
    from the builder's inputs, compared by coordinates."""
    table = sys_.table
    rng = np.random.default_rng(seed)
    Z, T = sample_vertex(G1, sys_.vertices[0], 16, rng)
    FZ, FT = table.apply(rows, Z, T)
    for j, (k, chain) in enumerate(zip(rows, chains)):
        assert table.has_pole[k] == (chain.pole is not None)
        assert table.r_f[k] == pytest.approx(chain.r_f, rel=1e-12)
        if chain.pole is not None:
            np.testing.assert_allclose(table.pole_z[k], chain.pole.z, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(table.pole_t[k], chain.pole.t, rtol=1e-12, atol=1e-12)
        CZ, CT = chain.apply_many(Z, T)
        np.testing.assert_allclose(FZ[j], CZ, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(FT[j], CT, rtol=1e-12, atol=1e-12)


@SETTINGS
@given(eps=st.floats(0.0, 0.6), extra=st.floats(0.6, 1.5),
       picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6))
def test_cf_rows_match_chains(eps, extra, picks):
    params = cd.CfSystemParams(eps, 2.5 + eps + extra)
    sys_ = cd.build_cf_system(G1, params)
    Z, T, _ = cd.systems.cf_alphabet(G1, params)
    rows = sorted({k % sys_.n_edges for k in picks})
    check_rows(sys_, rows, [cd.ConformalChain(G1, [cd.Invert(), cd.Translate(
        cd.gpoint(Z[k], T[k]))]) for k in rows])


@SETTINGS
@given(anchors=st.lists(st.tuples(st.floats(2.0, 4.0), st.floats(-1.0, 1.0),
                                  st.floats(-1.0, 1.0)), min_size=1, max_size=5),
       radii=st.lists(st.floats(1e-3, 0.9), min_size=5, max_size=5))
def test_cantor_rows_match_chains(anchors, radii):
    pts = [cd.gpoint(a[:2], a[2:]) for a in anchors]
    params = cd.CantorSystemParams(points=pts, radii=radii[:len(pts)],
                                   domain_center=cd.gpoint([3.0, 0.0], [0.0]),
                                   domain_radius=1.0)
    sys_ = cd.build_cantor_system(G1, params, validate="none")
    J = cd.ConformalChain(G1, [cd.Invert()])
    check_rows(sys_, list(range(sys_.n_edges)), [cd.ConformalChain(G1, [
        cd.Translate(p), cd.Dilate(r), cd.Translate(G.group_inv(G1, J.apply(p))), cd.Invert()])
        for p, r in zip(pts, radii)])


@SETTINGS
@given(maps=st.lists(st.tuples(point, st.floats(0.05, 0.95),
                               st.one_of(st.none(), st.floats(-3.0, 3.0))),
                     min_size=1, max_size=5))
def test_similarity_rows_match_chains(maps):
    sys_ = cd.build_self_similar(
        G1, [(p, s) if theta is None else (p, s, theta) for p, s, theta in maps])
    check_rows(sys_, list(range(sys_.n_edges)), [cd.ConformalChain(G1, [cd.Translate(p)] + (
        [] if theta is None else [cd.Rotate(theta=theta)]) + [cd.Dilate(s)])
        for p, s, theta in maps])
    assert not sys_.table.has_pole.any()
    np.testing.assert_array_equal(sys_.table.r_f, [s for _, s, _ in maps])


def _similarity_prims(g=G1, max_size=2):
    """Translations in [-2, 2], dilations in [0.3, 3] and unitary rotations
    (an angle on Heis^1, a complex QR factor on Heis^n)."""
    coords = st.lists(coord, min_size=g.N, max_size=g.N)
    entries = st.lists(st.floats(-1.0, 1.0), min_size=2 * g.n * g.n, max_size=2 * g.n * g.n)
    rotate = (st.floats(-3.0, 3.0).map(lambda th: cd.Rotate(theta=th)) if g.n == 1 else
              entries.map(lambda e: cd.Rotate(matrix=_unitary(g, e))))
    return st.lists(st.one_of(coords.map(lambda c: cd.Translate(cd.gpoint(c[:g.m1], c[g.m1:]))),
                              st.floats(0.3, 3.0).map(cd.Dilate), rotate),
                    max_size=max_size)


def _unitary(g, entries):
    """The unitary factor of a QR decomposition, as a real m1 x m1 matrix."""
    n = g.n
    M = np.reshape(entries[:n * n], (n, n)) + 1j * np.reshape(entries[n * n:], (n, n))
    Q, R = np.linalg.qr(M + 2 * np.eye(n))  # diagonally dominant: invertible
    Q = Q * np.sign(np.diag(R).real)
    return np.block([[Q.real, -Q.imag], [Q.imag, Q.real]])


@st.composite
def spec_chain(draw):
    """Primitive lists with 1-3 inversions separated by similarity parts."""
    n_inv = draw(st.integers(1, 3))
    prims = draw(_similarity_prims())
    for _ in range(n_inv):
        prims += [cd.Invert()] + draw(_similarity_prims())
    return prims


@st.composite
def short_chain(draw, g):
    """Primitive lists of 1-7 primitives, 1-3 of them inversions."""
    n_inv = draw(st.integers(1, 3))
    prims = draw(_similarity_prims(g, 7 - n_inv))
    for k in sorted(draw(st.lists(st.integers(0, len(prims)), min_size=n_inv,
                                  max_size=n_inv)), reverse=True):
        prims.insert(k, cd.Invert())
    return prims


def well_conditioned(chain, Z, T):
    """Points whose orbit meets every inversion at a gauge norm in [0.2, 20]."""
    g = chain.group
    ok = np.ones(Z.shape[0], bool)
    for prim in reversed(chain.primitives):
        if prim.is_inversion:
            norm = G.norm_many(g, Z, T)
            ok &= (norm >= 0.2) & (norm <= 20.0)
        Z, T = prim.apply_many(g, Z, T)
    return ok


# -- a 50-digit oracle: the primitive walk in mpmath --------------------------

MP_DPS = 50


def _mp_prim(g, prim, x):
    """One primitive at 50 digits on x = (z, t) (lists of mpf), or None for
    infinity."""
    if prim.is_inversion:
        if x is None:
            return [mpmath.mpf(0)] * g.m1, [mpmath.mpf(0)]
        z, t = x
        n = g.n
        zc = [mpmath.mpc(z[k], z[n + k]) for k in range(n)]
        A = mpmath.fsum(v * v for v in z) - 1j * t[0]
        if A == 0:
            return None
        w = [v / A for v in zc]
        return [v.real for v in w] + [v.imag for v in w], [-t[0] / abs(A) ** 2]
    if x is None:
        return None
    z, t = x
    if isinstance(prim, cd.Translate):
        cz = [mpmath.mpf(float(v)) for v in prim.point.z]
        ct = [mpmath.mpf(float(v)) for v in prim.point.t]
        t = [ct[i] + t[i] for i in range(g.m2)]
        for i, a, b, v in g.B_terms:
            t[i] += v * cz[b] * z[a]
        return [cz[k] + z[k] for k in range(g.m1)], t
    if isinstance(prim, cd.Dilate):
        r = mpmath.mpf(prim.r)
        return [r * v for v in z], [r * r * v for v in t]
    M = prim._matrix_for(g)
    return ([mpmath.fsum(mpmath.mpf(float(M[a, b])) * z[b] for b in range(g.m1))
             for a in range(g.m1)], t)


def _mp_point(z, t):
    return [mpmath.mpf(float(v)) for v in z], [mpmath.mpf(float(v)) for v in t]


def _mp_norm(x):
    z, t = x
    return mpmath.root(mpmath.fsum(v * v for v in z) ** 2 + mpmath.fsum(v * v for v in t), 4)


def _mp_walk(g, prims, x):
    for prim in reversed(prims):
        x = _mp_prim(g, prim, x)
    return x


def mp_oracle(g, prims, Z, T):
    """(pole or None, r_f, phi(infinity) or None, [phi(x_k)]) at 50 digits:
    the pole pulled back from infinity, r_f = ||D phi(x)|| d(x, a)^2 at the
    first point by the chain rule, and the primitive walk."""
    with mpmath.workdps(MP_DPS):
        pole = _mp_walk(g, [p.inverse() for p in reversed(prims)], None)
        x, deriv = _mp_point(Z[0], T[0]), mpmath.mpf(1)
        for prim in reversed(prims):
            if prim.is_inversion:
                deriv /= _mp_norm(x) ** 2
            elif isinstance(prim, cd.Dilate):
                deriv *= prim.r
            x = _mp_prim(g, prim, x)
        if pole is not None:  # d(x, a) = ||a^-1 x||
            az, at = pole
            x0 = _mp_point(Z[0], T[0])
            t = [x0[1][i] - at[i] for i in range(g.m2)]
            for i, a, b, v in g.B_terms:
                t[i] += v * (-az[b]) * x0[0][a]
            deriv *= _mp_norm(([x0[0][k] - az[k] for k in range(g.m1)], t)) ** 2
        images = [_mp_walk(g, prims, _mp_point(Z[k], T[k])) for k in range(len(Z))]
        return pole, deriv, _mp_walk(g, prims, None), images


def assert_close_coords(g, got_z, got_t, want, rel=1e-12):
    """|dz| <= rel s and |dt| <= rel s^2 for s = max(||want||, 1): relative
    in coordinates, on the gauge scale of the point."""
    with mpmath.workdps(MP_DPS):
        s = max(float(_mp_norm(want)), 1.0)
        dz = max(abs(float(mpmath.mpf(float(a)) - b)) for a, b in zip(got_z, want[0]))
        dt = max(abs(float(mpmath.mpf(float(a)) - b)) for a, b in zip(got_t, want[1]))
    assert dz <= rel * s and dt <= rel * s * s, (dz / s, dt / s / s)


def check_normal_form(g, prims, Z, T, oracle, rel=1e-12):
    """r_f, pole, phi(infinity) and the base-point apply of the table row of
    the chain (vertex B(o, 1), base point o) against the 50-digit oracle."""
    chain = cd.ConformalChain(g, prims)
    v = cd.VertexSet(id="X", center=cd.origin(g), radius=1.0)
    table = cd.GdmsSpec(g, [v], [cd.EdgeMap("e", "X", "X", chain)], contraction=0.5,
                        validate="none").table
    pole, r_f, at_inf, images = oracle
    assert table.has_pole[0] == (pole is not None)
    assert table.r_f[0] == pytest.approx(float(r_f), rel=rel)
    BZ, BT = table.image_of_infinity([0])
    if pole is None:
        assert np.isinf(BZ).all() and np.isinf(BT).all()
    else:
        assert_close_coords(g, table.pole_z[0], table.pole_t[0], pole, rel)
        assert_close_coords(g, BZ[0], BT[0], at_inf, rel)
    FZ, FT = table.apply([0], Z, T)
    for k, want in enumerate(images):
        assert_close_coords(g, FZ[0, k], FT[0, k], want, rel)


@SETTINGS
@given(chains=st.lists(spec_chain(), min_size=1, max_size=4),
       probe=st.lists(point, min_size=4, max_size=4))
@example(chains=[[cd.Invert(), cd.Translate(cd.gpoint([0.0, 0.0], [1.893e-143])),
                  cd.Invert()]],
         probe=[cd.gpoint([1.0, 0.0], [0.0]), cd.gpoint([0.0, -1.0], [0.5]),
                cd.gpoint([0.5, 0.5], [-0.5]), cd.gpoint([-1.5, 0.2], [1.0])])
@example(chains=[[cd.Invert(), cd.Translate(cd.gpoint([0.0, 3.03e-81], [0.0])),
                  cd.Invert()]],  # pole at |z| ~ 3.3e80, past the range of |z|^4
         probe=[cd.gpoint([1.0, 0.0], [0.0]), cd.gpoint([0.0, -1.0], [0.5]),
                cd.gpoint([0.5, 0.5], [-0.5]), cd.gpoint([-1.5, 0.2], [1.0])])
@example(chains=[[cd.Invert(), cd.Translate(cd.gpoint([0.0, 1e-100], [0.0])),
                  cd.Invert()]],  # pole at |z| = 1e100, where |z|^4 of 1e-100 underflows
         probe=[cd.gpoint([1.0, 0.0], [0.0]), cd.gpoint([0.0, -1.0], [0.5]),
                cd.gpoint([0.5, 0.5], [-0.5]), cd.gpoint([-1.5, 0.2], [1.0])])
def test_spec_chain_rows_and_normal_form(chains, probe):
    """JSON chains: the row against the primitive walk at the sample points
    whose orbit is well conditioned, and against the 50-digit walk at the
    others, where the float walk loses digits near an intermediate pole."""
    chains = [cd.ConformalChain(G1, p) for p in chains]
    edges = [cd.EdgeMap(id=f"e{k}", src="X", dst="X", chain=c) for k, c in enumerate(chains)]
    v = cd.VertexSet(id="X", center=cd.origin(G1), radius=1.0)
    sys_ = cd.GdmsSpec(G1, [v], edges, contraction=0.5, validate="none")
    table = sys_.table
    Z, T = sample_vertex(G1, v, 16, np.random.default_rng(0))
    with np.errstate(all="ignore"):  # samples may sit on intermediate poles
        FZ, FT = table.apply(np.arange(len(chains)), Z, T)
        for k, chain in enumerate(chains):
            ok = well_conditioned(chain, Z, T)
            CZ, CT = chain.apply_many(Z[ok], T[ok])
            np.testing.assert_allclose(FZ[k, ok], CZ, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(FT[k, ok], CT, rtol=1e-12, atol=1e-12)
            far = ~ok & (G.dist_many(G1, table.pole_z[k], table.pole_t[k], Z, T) >= 0.2
                         if table.has_pole[k] else ~ok)
            images = mp_oracle(G1, chain.primitives, Z[far], T[far])[3] if far.any() else []
            for j, want in zip(np.flatnonzero(far), images):
                assert_close_coords(G1, FZ[k, j], FT[k, j], want)
    # ||D phi(p)|| = r_f / d(p, a)^2 whatever the number of inversions
    Z = np.stack([p.z for p in probe]); T = np.stack([p.t for p in probe])
    for k in range(sys_.n_edges):
        chain = chains[k]
        with np.errstate(all="ignore"):
            ok = well_conditioned(chain, Z, T)
        assume(ok.any())
        deriv = chain.deriv_norm_many(Z[ok], T[ok])
        if table.has_pole[k]:
            d = G.dist_many(G1, table.pole_z[k], table.pole_t[k], Z[ok], T[ok])
            np.testing.assert_allclose(deriv, table.r_f[k] / d ** 2, rtol=1e-9)
        else:
            np.testing.assert_allclose(deriv, table.r_f[k], rtol=1e-9)


G2 = cd.heisenberg(2)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), g=st.sampled_from([G1, G2]))
def test_normal_form_against_mpmath(data, g):
    """The fold (r_f, U), the pole, phi(infinity) and the base-point apply of
    chains of 1-7 primitives with 1-3 inversions on Heis^1 and Heis^2,
    within 1e-12 of a 50-digit walk, at 8 points of B(o, 1) at gauge
    distance >= 0.2 from the pole (nearer, any float evaluation loses
    digits), for chains whose orbit of o (the base point) is well
    conditioned and whose pole and r_f lie well inside the float range."""
    prims = data.draw(short_chain(g))
    chain = cd.ConformalChain(g, prims)
    with np.errstate(all="ignore"):
        assume(well_conditioned(chain, np.zeros((1, g.m1)), np.zeros((1, g.m2)))[0]
               or chain.pole is None)
    Z, T = sample_vertex(g, cd.VertexSet(id="X", center=cd.origin(g), radius=1.0), 64,
                         np.random.default_rng(data.draw(st.integers(0, 2 ** 16))))
    if chain.pole is not None:
        keep = G.dist_many(g, chain.pole.z, chain.pole.t, Z, T) >= 0.2
        Z, T = Z[keep], T[keep]
    assume(len(Z) >= 8)
    oracle = mp_oracle(g, prims, Z[:8], T[:8])
    pole, r_f = oracle[:2]
    assume(1e-300 < r_f < 1e300 and (pole is None or _mp_norm(pole) < 1e150))
    check_normal_form(g, prims, Z[:8], T[:8], oracle)


@pytest.mark.parametrize("t0", [1e-3, 1e-6, 1e-12, 1.893e-143])
def test_far_pole_normal_form_against_mpmath(t0):
    """J o tau_(0,0;t0) o J o delta_0.7 has its pole at (0; 1/(0.49 t0)): the
    direct form b delta_r U J(a^-1 x) cancels there (its t is off by 5e-10,
    3e-5 and 0.3 at t0 = 1e-6, 1e-12, 1.893e-143), the base-point form keeps
    every digit."""
    prims = [cd.Invert(), cd.Translate(cd.gpoint([0.0, 0.0], [t0])), cd.Invert(),
             cd.Dilate(0.7)]
    Z, T = sample_vertex(G1, cd.VertexSet(id="X", center=cd.origin(G1), radius=1.0), 8,
                         np.random.default_rng(7))
    check_normal_form(G1, prims, Z, T, mp_oracle(G1, prims, Z, T))


@SETTINGS
@given(chains=st.lists(spec_chain(), min_size=1, max_size=4))
@example(chains=[[cd.Invert(), cd.Invert(), cd.Dilate(2.0), cd.Invert(),
                  cd.Rotate(theta=0.5)]])
def test_image_of_infinity_matches_chains(chains):
    """phi(infinity) of each row against ConformalChain.apply(INFINITY);
    J o J o delta o J o R sends infinity to o, then infinity, then o."""
    chains = [cd.ConformalChain(G1, p) for p in chains]
    edges = [cd.EdgeMap(id=f"e{k}", src="X", dst="X", chain=c) for k, c in enumerate(chains)]
    with np.errstate(all="ignore"):
        table = cd.EdgeTable.from_maps(G1, edges, [cd.VertexSet("X", cd.origin(G1), 1.0)])
        Z, T = table.image_of_infinity(np.arange(len(chains)))
        want = [c.apply(cd.INFINITY) for c in chains]
    for k, p in enumerate(want):
        if cd.is_infinity(p):
            assert np.isinf(Z[k]).all() and np.isinf(T[k]).all()
        else:
            np.testing.assert_allclose(Z[k], p.z, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(T[k], p.t, rtol=1e-12, atol=1e-12)


def test_edges_are_lazy_views():
    sys_ = cd.build_cf_system(G1, cd.CfSystemParams(0.5, 4.0))
    table = sys_.table
    built = len(table._chains)
    e = sys_.edges[-1]
    assert e.id.startswith("g") and e.src == e.dst == "X"
    assert len(table._chains) == built  # ids read without building a chain
    assert e.chain is sys_.edges[-1].chain  # built once, then cached
    assert [x.id for x in sys_.edges[:3]] == list(table.ids[:3])
    # another system over the same edges shares the table
    weights = cd.ensure_weights(sys_)
    sub = cd.GdmsSpec(G1, sys_.vertices, sys_.edges, contraction=sys_.contraction,
                      weights=weights, validate="none")
    assert sub.table is table and sub.weights is weights


@SETTINGS
@given(prefix=st.sampled_from("gcs"),
       rows=st.integers(1, 4).flatmap(lambda k: st.lists(
           st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=k, max_size=k), max_size=40)
           .map(lambda r, k=k: np.array(r, dtype=np.int64).reshape(-1, k))),
       as_float=st.booleans())
@example(prefix="g", rows=np.zeros((0, 3), dtype=np.int64), as_float=True)
@example(prefix="c", rows=np.array([[0], [-1], [17]]), as_float=False)
def test_edge_ids_match_fstrings(prefix, rows, as_float):
    """One `%` pass gives prefix + comma-joined integers, as an f-string would;
    the builders pass float lattice coordinates and integer counters."""
    ids = _edge_ids(prefix, rows.astype(float) if as_float else rows)
    want = [f"{prefix}{','.join(f'{int(v)}' for v in row)}" for row in rows]
    assert isinstance(ids, np.ndarray) and ids.shape == (len(want),)
    assert ids.tolist() == want


def _per_edge_system():
    """Three vertex balls and an edge for every (i(e), t(e)) pair: a similarity
    B(c_t, 1) -> B(c_i, 0.2), with a rotation on every other edge, so src, dst
    and U vary from row to row."""
    centers = {"A": ([0.0, 0.0], [0.0]), "B": ([3.0, 0.0], [0.0]), "C": ([0.0, 3.0], [0.5])}
    vertices = [cd.VertexSet(id=v, center=cd.gpoint(*c), radius=1.0) for v, c in centers.items()]
    edges = []
    for k, (src, dst) in enumerate(itertools.product(centers, repeat=2)):
        back = G.group_inv(G1, cd.gpoint(*centers[dst]))
        rot = [cd.Rotate(theta=0.3 * k)] if k % 2 else []
        prims = [cd.Translate(cd.gpoint(*centers[src]))] + rot + [cd.Dilate(0.2),
                                                                   cd.Translate(back)]
        edges.append(cd.EdgeMap(id=f"{src}{dst}{k}", src=src, dst=dst,
                                chain=cd.ConformalChain(G1, prims)))
    return vertices, edges


def test_gdms_spec_per_edge_vertices_and_rotations():
    vertices, edges = _per_edge_system()
    sys_ = cd.GdmsSpec(G1, vertices, edges)
    table = sys_.table
    # the identity and the four distinct rotations of the odd edges
    assert len(table.rotations) == 5 and len(set(table.src.tolist())) == 3
    np.testing.assert_array_equal(table.rotation > 0, np.arange(9) % 2 == 1)
    index = {v.id: k for k, v in enumerate(vertices)}
    np.testing.assert_array_equal(sys_.src_idx, [index[e.src] for e in edges])
    np.testing.assert_array_equal(sys_.dst_idx, [index[e.dst] for e in edges])
    # rows out of order, with a repeat, with and without a rotation
    rows = [5, 0, 8, 3, 3, 1, 6]
    rng = np.random.default_rng(4)
    Z, T = sample_box(G1, 12, rng, scale=2.0)
    FZ, FT = table.apply(rows, Z, T)
    for j, k in enumerate(rows):
        chain = edges[k].chain
        for s in range(Z.shape[0]):
            p = chain.apply(cd.gpoint(Z[s], T[s]))
            np.testing.assert_allclose(FZ[j, s], p.z, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(FT[j, s], p.t, rtol=1e-12, atol=1e-12)


def test_gdms_spec_unknown_vertex_is_named():
    vertices, edges = _per_edge_system()
    stray = edges[4]
    edges[4] = cd.EdgeMap(id=stray.id, src=stray.src, dst="W", chain=stray.chain)
    with pytest.raises(ValidationError, match=f"edge '{stray.id}' references unknown"):
        cd.GdmsSpec(G1, vertices, edges)
    # a column with one value that names no vertex
    lone = [cd.EdgeMap(id=e.id, src="W", dst="W", chain=e.chain) for e in edges[:2]]
    with pytest.raises(ValidationError, match=f"edge '{edges[0].id}' references unknown"):
        cd.GdmsSpec(G1, vertices, lone)


def test_builder_and_hat_ids_follow_the_documented_formats():
    """g<x>,<y>,<t> (the translation gamma), s<k>, and the hat system's
    v[<id>] vertices and <a>|<b> edges, as README states."""
    cf_params = cd.CfSystemParams(0.5, 4.0)
    cf = cd.build_cf_system(G1, cf_params)
    Z, T, _ = cd.systems.cf_alphabet(G1, cf_params)
    coords = [[int(v) for v in e[1:].split(",")] for e in cf.table.ids.tolist()]
    np.testing.assert_array_equal(coords, np.concatenate([Z, T], axis=1))
    assert all(e.startswith("g") for e in cf.table.ids.tolist())
    fib = separated_fib2_system()
    assert fib.table.ids.tolist() == ["s0", "s1"]
    hat = fib.maximalize()
    assert [v.id for v in hat.vertices] == ["v[s0]", "v[s1]"]
    assert hat.table.ids.tolist() == ["s0|s0", "s0|s1", "s1|s0"]
    assert [e.src for e in hat.edges] == ["v[s0]", "v[s0]", "v[s1]"]
    assert [e.dst for e in hat.edges] == ["v[s0]", "v[s1]", "v[s0]"]
    np.testing.assert_array_equal(hat.src_idx, [0, 0, 1])
    np.testing.assert_array_equal(hat.dst_idx, [0, 1, 0])


def _builder_systems():
    """(system, prefix, integer id columns) of each builder: CF at R = 5
    (the coordinates of gamma), a shell-mode Cantor system and a self-similar
    system (build order)."""
    cf_params = cd.CfSystemParams(0.5, 5.0)
    Z, T, _ = cd.systems.cf_alphabet(G1, cf_params)
    cantor = cd.build_cantor_system(G1, cd.CantorSystemParams(epsilon=2.0, shells=3,
                                                              separation_scale=8.0))
    fib = separated_fib2_system()
    return [(cd.build_cf_system(G1, cf_params), "g", np.concatenate([Z, T], axis=1)),
            (cantor, "c", np.arange(cantor.n_edges)[:, None]),
            (fib, "s", np.arange(fib.n_edges)[:, None])]


def test_builder_ids_are_formatted_on_first_read():
    """The lazily formatted ids are the strings and dtype of an eager call."""
    for sys_, prefix, columns in _builder_systems():
        table = sys_.table
        assert table._ids is None and table.id_rows.prefix == prefix
        want = _edge_ids(prefix, columns)
        got = table.ids
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert table.ids is got  # formatted once, then kept


def test_build_and_bowen_dim_format_no_id():
    sys_ = cd.build_cf_system(G1, cd.CfSystemParams(0.5, 5.0))
    cd.bowen_dim(sys_, tol=1e-3)
    cd.pressure_bracket(sys_, 2.5)
    assert sys_.table._ids is None


def test_edge_views_and_maximalize_format_the_ids():
    sys_ = cd.build_cf_system(G1, cd.CfSystemParams(0.5, 4.0))
    assert sys_.table._ids is None
    assert sys_.edges[5].id == str(sys_.table._ids[5])
    fib = separated_fib2_system()
    assert fib.table._ids is None
    hat = fib.maximalize()
    assert fib.table._ids.tolist() == ["s0", "s1"]
    assert hat.table._ids is None and hat.table.id_rows.sep == "|"  # a|b ids on first read
    assert hat.edges[1].id == "s0|s1"
    assert hat.table._ids.tolist() == ["s0|s0", "s0|s1", "s1|s0"]


def test_hat_and_bowen_dim_format_no_hat_id():
    hat = separated_fib2_system().maximalize()
    cd.bowen_dim(hat, tol=1e-3)
    assert hat.table._ids is None


def test_hat_ids_with_unequal_pipes_are_checked():
    """Old ids x|y, z, x, y|z hold one or no |: the hat's ids are formatted
    by maximalize and checked, and x|y|z is both x|y + z and x + y|z."""
    line = cd.build_self_similar(G1, [(cd.gpoint([4.0 * a, 0.0], [0.0]), 0.01)
                                      for a in range(4)])
    edges = [cd.EdgeMap(e, x.src, x.dst, x.chain)
             for e, x in zip(["x|y", "z", "x", "y|z"], line.edges)]
    sys_ = cd.GdmsSpec(G1, line.vertices, edges)
    with pytest.raises(ValidationError, match="duplicate edge ids"):
        sys_.maximalize()


def test_explicit_duplicate_ids_raise():
    vertices, edges = _per_edge_system()
    dup = [edges[0], cd.EdgeMap(id=edges[0].id, src=edges[1].src, dst=edges[1].dst,
                                chain=edges[1].chain)]
    with pytest.raises(ValidationError, match="duplicate edge ids"):
        cd.GdmsSpec(G1, vertices, dup)
    # the same rows twice under one id, through take
    table = cd.GdmsSpec(G1, vertices, edges).table
    with pytest.raises(ValidationError, match="duplicate edge ids"):
        cd.GdmsSpec(G1, vertices, table.take([0, 1], ["x", "x"], table.src[[0, 1]],
                                             table.dst[[0, 1]]))
