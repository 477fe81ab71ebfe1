"""Edge tables: the closed-form rows of the builders against ConformalChain."""

import itertools

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


def check_rows(sys_, rows, seed=0):
    """Row normal form and batched apply against the materialised chains."""
    table = sys_.table
    rng = np.random.default_rng(seed)
    Z, T = sample_vertex(G1, sys_.vertices[0], 16, rng)
    FZ, FT = table.apply(rows, Z, T)
    for j, k in enumerate(rows):
        chain = sys_.edges[k].chain
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
    sys_ = cd.build_cf_system(G1, cd.CfSystemParams(eps, 2.5 + eps + extra))
    check_rows(sys_, sorted({k % sys_.n_edges for k in picks}))


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
    check_rows(sys_, list(range(sys_.n_edges)))


@SETTINGS
@given(maps=st.lists(st.tuples(point, st.floats(0.05, 0.95),
                               st.one_of(st.none(), st.floats(-3.0, 3.0))),
                     min_size=1, max_size=5))
def test_similarity_rows_match_chains(maps):
    sys_ = cd.build_self_similar(
        G1, [(p, s) if theta is None else (p, s, theta) for p, s, theta in maps])
    check_rows(sys_, list(range(sys_.n_edges)))
    assert not sys_.table.has_pole.any()
    np.testing.assert_array_equal(sys_.table.r_f, [s for _, s, _ in maps])


def _similarity_prims():
    return st.lists(st.one_of(point.map(cd.Translate),
                              st.floats(0.3, 3.0).map(cd.Dilate),
                              st.floats(-3.0, 3.0).map(lambda th: cd.Rotate(theta=th))),
                    max_size=2)


@st.composite
def spec_chain(draw):
    """Primitive lists with 1-3 inversions separated by similarity parts."""
    n_inv = draw(st.integers(1, 3))
    prims = draw(_similarity_prims())
    for _ in range(n_inv):
        prims += [cd.Invert()] + draw(_similarity_prims())
    return prims


def well_conditioned(chain, Z, T):
    """Points whose orbit meets every inversion at a gauge norm in [0.2, 20]."""
    ok = np.ones(Z.shape[0], bool)
    for prim in reversed(chain.primitives):
        if prim.is_inversion:
            norm = G.norm_many(G1, Z, T)
            ok &= (norm >= 0.2) & (norm <= 20.0)
        Z, T = prim.apply_many(G1, Z, T)
    return ok


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
def test_spec_chain_rows_and_normal_form(chains, probe):
    edges = [cd.EdgeMap(id=f"e{k}", src="X", dst="X", chain=cd.ConformalChain(G1, p))
             for k, p in enumerate(chains)]
    v = cd.VertexSet(id="X", center=cd.origin(G1), radius=1.0)
    sys_ = cd.GdmsSpec(G1, [v], edges, contraction=0.5, validate="none")
    with np.errstate(all="ignore"):  # samples may sit on intermediate poles
        check_rows(sys_, list(range(sys_.n_edges)))
    # ||D phi(p)|| = r_f / d(p, a)^2 whatever the number of inversions
    table = sys_.table
    Z = np.stack([p.z for p in probe]); T = np.stack([p.t for p in probe])
    for k in range(sys_.n_edges):
        chain = sys_.edges[k].chain
        with np.errstate(all="ignore"):
            ok = well_conditioned(chain, Z, T)
        assume(ok.any())
        deriv = chain.deriv_norm_many(Z[ok], T[ok])
        if table.has_pole[k]:
            d = G.dist_many(G1, table.pole_z[k], table.pole_t[k], Z[ok], T[ok])
            np.testing.assert_allclose(deriv, table.r_f[k] / d ** 2, rtol=1e-9)
        else:
            np.testing.assert_allclose(deriv, table.r_f[k], rtol=1e-9)


@SETTINGS
@given(chains=st.lists(spec_chain(), min_size=1, max_size=4))
@example(chains=[[cd.Invert(), cd.Invert(), cd.Dilate(2.0), cd.Invert(),
                  cd.Rotate(theta=0.5)]])
def test_image_of_infinity_matches_chains(chains):
    """phi(infinity) of each row against ConformalChain.apply(INFINITY);
    J o J o delta o J o R sends infinity to o, then infinity, then o."""
    chains = [cd.ConformalChain(G1, p) for p in chains]
    edges = [cd.EdgeMap(id=f"e{k}", src="X", dst="X", chain=c) for k, c in enumerate(chains)]
    table = cd.EdgeTable.from_maps(G1, edges)
    with np.errstate(all="ignore"):
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
    and template vary from row to row."""
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


def test_gdms_spec_per_edge_vertices_and_templates():
    vertices, edges = _per_edge_system()
    sys_ = cd.GdmsSpec(G1, vertices, edges)
    table = sys_.table
    assert len(table.templates) == 2 and len(set(table.src.tolist())) == 3
    index = {v.id: k for k, v in enumerate(vertices)}
    np.testing.assert_array_equal(sys_.src_idx, [index[e.src] for e in edges])
    np.testing.assert_array_equal(sys_.dst_idx, [index[e.dst] for e in edges])
    # rows out of order, with a repeat, mixing both templates
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
    cf = cd.build_cf_system(G1, cd.CfSystemParams(0.5, 4.0))
    coords = [[int(v) for v in e[1:].split(",")] for e in cf.table.ids.tolist()]
    np.testing.assert_array_equal(coords, cf.table.params)
    assert all(e.startswith("g") for e in cf.table.ids.tolist())
    fib = separated_fib2_system()
    assert fib.table.ids.tolist() == ["s0", "s1"]
    hat = fib.maximalize()
    assert [v.id for v in hat.vertices] == ["v[s0]", "v[s1]"]
    assert hat.table.ids.tolist() == ["s0|s0", "s0|s1", "s1|s0"]
    assert hat.table.src.tolist() == ["v[s0]", "v[s0]", "v[s1]"]
    assert hat.table.dst.tolist() == ["v[s0]", "v[s1]", "v[s0]"]
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
    assert hat.table.id_rows is None  # a|b ids are explicit


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
