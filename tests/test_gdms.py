import itertools
import math
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import carnotdim as cd
from carnotdim.errors import BudgetError, ValidationError

from conftest import fib2_system, moran_system, separated_fib2_system


def test_word_counts_fibonacci():
    sys_ = fib2_system()
    # golden-mean shift: |E_A^n| follows the Fibonacci recursion
    counts = [sys_.count_words(n) for n in range(1, 8)]
    assert counts[0] == 2 and counts[1] == 3
    for a, b, c in zip(counts, counts[1:], counts[2:]):
        assert c == a + b
    words = list(sys_.admissible_words(4))
    assert len(words) == sys_.count_words(4)
    # edge 1 (scale 1/3) cannot follow itself
    assert all((1, 1) not in zip(w, w[1:]) for w in words)


def test_word_budget_enforced():
    sys_ = moran_system([0.5, 0.5, 0.5, 0.5])
    with pytest.raises(BudgetError):
        list(sys_.admissible_words(12, budget=1000))


def test_inadmissible_word_rejected():
    sys_ = fib2_system()
    with pytest.raises(ValidationError):
        sys_.word_map((1, 1))


def test_word_map_composition():
    sys_ = moran_system([0.5, 0.25])
    w = (0, 1, 0)
    chain = sys_.word_map(w)
    p = cd.origin(sys_.group)
    expected = p
    # apply innermost edge first
    for a in reversed(w):
        expected = sys_.edges[a].chain.apply(expected)
    got = chain.apply(p)
    assert np.allclose(got.z, expected.z) and np.allclose(got.t, expected.t)


def test_coding_point_error_bound_decays():
    sys_ = moran_system([0.5, 0.4])
    p1, b1 = sys_.coding_point((0,))
    p5, b5 = sys_.coding_point((0, 1, 0, 1, 0))
    assert b5 < b1
    assert np.isclose(b5 / b1, sys_.contraction ** 4)
    # the coding point of w is inside the image phi_{w_1}(X)
    v = sys_.vertices[0]
    assert cd.gauge_dist(sys_.group, p1, v.center) <= v.radius * (1 + 1e-9)


def test_limit_set_cloud_deterministic_counts_and_containment():
    sys_ = moran_system([0.5, 0.5, 0.5, 0.5])
    cloud = sys_.limit_set_cloud(depth=8)
    assert len(cloud) == 4 ** 8
    v = sys_.vertices[0]
    inside = v.contains(sys_.group, cloud.Z, cloud.T, pad=1e-6)
    assert inside.all()
    assert np.allclose(cloud.err, sys_.contraction ** 8 * 2 * v.radius)


def test_limit_set_chaos_close_to_deterministic():
    sys_ = moran_system([0.5, 0.5])
    det = sys_.limit_set_cloud(depth=10)
    chaos = sys_.limit_set_cloud(depth=10, mode="chaos", samples=2000, seed=1)
    g = sys_.group
    # every chaos point is near some deterministic point (one-sided Hausdorff)
    for k in range(0, len(chaos), 100):
        D = cd.groups.dist_many(g, det.Z, det.T,
                                np.tile(chaos.Z[k], (len(det), 1)),
                                np.tile(chaos.T[k], (len(det), 1)))
        assert D.min() <= 2 * chaos.err[0] + 1e-9


def per_letter_chaos(sys_, depth, samples, seed):
    """Chaos cloud with one edge-table apply per distinct letter and position."""
    words = sys_._sample_words(depth, samples, np.random.default_rng(seed), None)
    CZ, CT, _, _ = sys_.vertex_arrays()
    Z, T = CZ[sys_.dst_idx[words[:, -1]]], CT[sys_.dst_idx[words[:, -1]]]
    for j in range(depth - 1, -1, -1):
        for a in np.unique(words[:, j]):
            mask = words[:, j] == a
            FZ, FT = sys_.table.apply([a], Z[mask], T[mask])
            Z[mask], T[mask] = FZ[0], FT[0]
    return Z, T


@pytest.mark.parametrize("kind", ["moran4", "cf", "cantor"])
def test_chaos_cloud_matches_per_letter_apply(kind):
    g = cd.heisenberg(1)
    sys_ = {
        "moran4": lambda: moran_system([0.5] * 4),
        "cf": lambda: cd.build_cf_system(g, cd.CfSystemParams(0.5, 6.0)),
        # explicit mode: the center of a shell-mode annulus is the inversion pole
        "cantor": lambda: cd.build_cantor_system(g, cd.CantorSystemParams(
            points=[cd.gpoint([2.75 + 0.05 * k, 0.01 * k], [0.02 * k - 0.1])
                    for k in range(10)],
            radii=[0.02] * 10, domain_center=cd.gpoint([3.0, 0.0], [0.0]),
            domain_radius=1.0)),
    }[kind]()
    depth, samples = (8, 4096) if kind == "moran4" else (4, 1000)
    cloud = sys_.limit_set_cloud(depth, mode="chaos", samples=samples, seed=2)
    Z, T = per_letter_chaos(sys_, depth, samples, seed=2)
    if kind == "cantor":  # batched inversions may differ in the last bits
        scale = np.abs(np.concatenate([Z, T], axis=1)).max()
        assert np.abs(cloud.Z - Z).max() <= 1e-12 * scale
        assert np.abs(cloud.T - T).max() <= 1e-12 * scale
    else:
        assert np.array_equal(cloud.Z, Z) and np.array_equal(cloud.T, T)


def test_finite_irreducibility():
    sys_ = fib2_system()
    kind, phi = sys_.finite_irreducibility()
    assert kind == "irreducible"
    # every pair (i, j) is connected by some witness word
    for i in range(sys_.n_edges):
        for j in range(sys_.n_edges):
            assert any(all(sys_.admissible_pair(a, b)
                           for a, b in zip((i,) + w + (j,), w + (j,)))
                       for w in phi)
    # maximal single-vertex systems are trivially irreducible with Phi = {()}
    kind2, phi2 = moran_system([0.5, 0.5]).finite_irreducibility()
    assert kind2 == "irreducible" and phi2 == ((),)


def test_reducible_detected():
    g = cd.heisenberg(1)
    maps = [(cd.gpoint([0.0, 0.0], [0.0]), 0.5),
            (cd.gpoint([1.0, 0.0], [0.0]), 0.5)]
    A = np.array([[1, 1], [0, 1]], bool)  # edge 1 can never reach edge 0
    sys_ = cd.build_self_similar(g, maps, incidence=A)
    kind, witness = sys_.finite_irreducibility()
    assert kind == "reducible"


def test_maximalize_preserves_words():
    sys_ = separated_fib2_system()
    hat = sys_.maximalize()
    assert hat.incidence is None  # maximal
    assert len(hat.vertices) == sys_.n_edges
    # hat edges = admissible pairs of the original system
    e = np.arange(sys_.n_edges)
    assert hat.n_edges == int(sys_.admissible_pair(e[:, None], e[None, :]).sum())
    # admissible word counts agree one level down
    assert hat.count_words(3) == sys_.count_words(4)


@pytest.mark.parametrize("prims, radius, contraction, message", [
    # translate by 5 with scale 0.5 maps B(o,1) far outside itself
    ([cd.Translate(cd.gpoint([5.0, 0.0], [0.0])), cd.Dilate(0.5)], 1.0, None, "escapes"),
    # the inversion's pole o is the domain's center
    ([cd.Invert()], 1e-200, None, "blows up"),
    # ratio 0.5 against a declared bound of 0.3
    ([cd.Translate(cd.gpoint([0.1, 0.0], [0.0])), cd.Dilate(0.5)], 1.0, 0.3,
     "declared contraction"),
], ids=["escape", "blow-up", "contraction"])
def test_validation_catches_escaping_images(prims, radius, contraction, message):
    g = cd.heisenberg(1)
    v = cd.VertexSet(id="X", center=cd.origin(g), radius=radius)
    good = cd.EdgeMap(id="good", src="X", dst="X",
                      chain=cd.ConformalChain(g, [cd.Dilate(0.25)]))
    edge = cd.EdgeMap(id="bad", src="X", dst="X", chain=cd.ConformalChain(g, prims))
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match=message) as exc:
        cd.GdmsSpec(g, [v], [good, edge], contraction=contraction)
    assert "'bad'" in str(exc.value)


def test_point_cloud_io(tmp_path):
    sys_ = moran_system([0.5, 0.5])
    cloud = sys_.limit_set_cloud(depth=3)
    csv = tmp_path / "cloud.csv"
    cloud.to_csv(csv)
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "z1,z2,t1,err"
    assert len(lines) == len(cloud) + 1
    ply = tmp_path / "cloud.ply"
    cloud.to_ply(ply)
    text = ply.read_text()
    assert text.startswith("ply\nformat ascii 1.0\n")
    assert f"element vertex {len(cloud)}" in text


def test_finite_irreducibility_is_computed_once(monkeypatch):
    sys_ = fib2_system()
    first = sys_.finite_irreducibility()
    calls = []
    monkeypatch.setattr(cd.GdmsSpec, "_witness_search",
                        lambda self: calls.append(1) or ("reducible", ()))
    assert sys_.finite_irreducibility() is first
    for t in (0.3, 0.9):
        cd.pressure_bracket(sys_, t)
    assert calls == []
    assert fib2_system().finite_irreducibility() == ("reducible", ())  # a new system searches
    # the cached result cannot go stale: the incidence is read-only
    with pytest.raises(ValueError):
        sys_.incidence[0, 0] = False
    # the budget still applies to a cached result
    with pytest.raises(BudgetError):
        sys_.finite_irreducibility(max_pairs=3)


@pytest.mark.parametrize("block", [1, 2, 3, 1024])
def test_admissible_words_match_filtered_product(monkeypatch, block):
    """Word blocks against the filtered product of the alphabet, on random
    incidences with edges that nothing may follow."""
    monkeypatch.setattr(cd.gdms, "WORD_BLOCK", block)
    g = cd.heisenberg(1)
    rng = np.random.default_rng(block)
    for k in (1, 3, 5):
        maps = [(cd.gpoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1)), 0.2)
                for _ in range(k)]
        A = rng.random((k, k)) < 0.5
        sys_ = cd.build_self_similar(g, maps, incidence=A)
        for n in range(5):
            want = [w for w in itertools.product(range(k), repeat=n)
                    if all(A[a, b] for a, b in zip(w, w[1:]))]
            assert list(sys_.admissible_words(n)) == want
            assert sys_.count_words(n) == len(want)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4), density=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(0, 5), block=st.sampled_from([1, 2, 3, 1024]))
def test_word_blocks_match_filtered_product(k, density, seed, n, block):
    """Words from the stack of per-length block generators against the
    filtered product of the alphabet, on random incidences."""
    A = np.random.default_rng(seed).random((k, k)) < density
    sys_ = cd.build_self_similar(cd.heisenberg(1), line_maps(k, 0.01), incidence=A)
    with mock.patch.object(cd.gdms, "WORD_BLOCK", block):
        words = list(sys_.admissible_words(n))
    assert words == [w for w in itertools.product(range(k), repeat=n)
                     if all(A[a, b] for a, b in zip(w, w[1:]))]


def test_word_blocks_go_past_the_recursion_limit():
    """One map: one block per length, at a depth past the interpreter's
    recursion limit, where a recursive generator per letter failed."""
    one = cd.build_self_similar(cd.heisenberg(1), line_maps(1, 0.5))
    depth = sys.getrecursionlimit() + 500
    blocks = list(one.word_blocks(depth))
    assert [k for k, _, _ in blocks] == list(range(1, depth + 1))
    assert all(p.tolist() == [0] and last.tolist() == [0] for _, p, last in blocks)
    assert next(one.admissible_words(depth)) == (0,) * depth
    # a level leaves the stack with its last block, so the chain keeps one
    tracemalloc.start()
    for _ in one.word_blocks(4 * depth):
        pass
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2 ** 20
    # one level per letter: a length past the budget is refused before counting
    with pytest.raises(BudgetError, match="length 11"):
        next(one.word_blocks(11, budget=10))


def pairwise_disjointness(g, vertices):
    """The message of the first pair a < b of vertex balls that touch, by
    one gauge_dist per pair in (a, b) order, else None."""
    for a, va in enumerate(vertices):
        for vb in vertices[a + 1:]:
            if cd.gauge_dist(g, va.center, vb.center) <= va.radius + vb.radius:
                return f"vertex sets {va.id!r} and {vb.id!r} are not disjoint"
    return None


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), quaternionic=st.booleans(),
       touching=st.integers(0, 3), overlapping=st.booleans())
def test_disjointness_check_matches_the_pairs(seed, n, quaternionic, touching, overlapping):
    """The array check raises on the pair that the per-pair loop raises on,
    with its message, on random balls with some pairs placed to touch
    (c_b = c_a (R_a + R_b, 0; 0)) or to overlap."""
    g = cd.quaternionic_heisenberg(1) if quaternionic else cd.heisenberg(1)
    rng = np.random.default_rng(seed)
    Z, T = rng.uniform(-40, 40, (n, g.m1)), rng.uniform(-40, 40, (n, g.m2))
    R = rng.uniform(0.05, 1.5, n)
    for _ in range(touching if n > 1 else 0):
        a, b = rng.choice(n, 2, replace=False)
        e = np.zeros(g.m1)
        e[0] = R[a] + R[b]
        Z[b], T[b] = cd.groups.mul_many(g, Z[a], T[a], e, np.zeros(g.m2))
    if overlapping and n > 1:
        a, b = rng.choice(n, 2, replace=False)
        Z[b], T[b] = Z[a] + 0.5 * R[a], T[a]
    vertices = [cd.VertexSet(f"v{k}", cd.GPoint(Z[k], T[k]), float(R[k])) for k in range(n)]
    edge = cd.EdgeMap("e", "v0", "v0", cd.ConformalChain(g, [cd.Dilate(0.5)]))
    want = pairwise_disjointness(g, vertices)
    if want is None:
        cd.GdmsSpec(g, vertices, [edge], contraction=0.5, validate="none")
    else:
        with pytest.raises(ValidationError) as err:
            cd.GdmsSpec(g, vertices, [edge], contraction=0.5, validate="none")
        assert str(err.value) == want


def test_disjointness_ties_follow_gauge_dist():
    """Balls that touch to the last bit: the array power of dist_many and the
    scalar one of gauge_dist can round a distance apart by an ulp, and the
    scalar one decides, both where it reads touching and where it does not."""
    g = cd.heisenberg(1)
    rng = np.random.default_rng(0)
    Z, T = rng.uniform(-3, 3, (4096, g.m1)), rng.uniform(-3, 3, (4096, g.m2))
    batch = cd.groups.norm_many(g, Z, T)
    scalar = np.array([cd.gauge_norm(g, cd.GPoint(z, t)) for z, t in zip(Z, T)])
    edge = cd.EdgeMap("e", "a", "a", cd.ConformalChain(g, [cd.Dilate(0.5)]))
    for apart in (batch < scalar, batch > scalar):
        k = int(np.flatnonzero(apart)[0])
        r = scalar[k] / 2  # R_a + R_b is the scalar distance, exactly
        vertices = [cd.VertexSet("a", cd.origin(g), r), cd.VertexSet("b", cd.GPoint(Z[k], T[k]), r)]
        assert pairwise_disjointness(g, vertices) is not None
        with pytest.raises(ValidationError, match="not disjoint"):
            cd.GdmsSpec(g, vertices, [edge], contraction=0.5, validate="none")
        # R_a + R_b one ulp below it, exactly
        vertices[1] = cd.VertexSet("b", cd.GPoint(Z[k], T[k]), np.nextafter(scalar[k], 0) - r)
        assert pairwise_disjointness(g, vertices) is None
        cd.GdmsSpec(g, vertices, [edge], contraction=0.5, validate="none")


def test_hat_edges_are_the_admissible_pairs():
    """The hat's edges are the words of length 2 in lexicographic order, on
    an explicit incidence, with an edge that nothing may follow, and on a
    maximal multi-vertex system."""
    g = cd.heisenberg(1)
    inc = cd.build_self_similar(g, line_maps(4, 0.01),
                                incidence=np.array([[1, 1, 0, 1], [0, 0, 0, 0],
                                                    [1, 0, 1, 1], [0, 1, 1, 0]], bool))
    for sys_ in (separated_fib2_system(), inc, inc.maximalize()):
        hat = sys_.maximalize()
        pairs = list(sys_.admissible_words(2))
        ids = sys_.table.ids
        assert hat.table.ids.tolist() == [f"{ids[a]}|{ids[b]}" for a, b in pairs]
        assert hat.table.src.tolist() == [f"v[{ids[a]}]" for a, _ in pairs]
        assert hat.table.dst.tolist() == [f"v[{ids[b]}]" for _, b in pairs]
        assert [v.id for v in hat.vertices] == [f"v[{e}]" for e in ids]


def test_stationary_laws_of_periodic_chains():
    """The direct solve holds where iterating pi P cycles: a chain of period
    2, and one with a transient state feeding a 2-cycle."""
    for P, pi in [([[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]], [0.25, 0.5, 0.25]),
                  ([[0.9, 0.1, 0], [0, 0, 1], [0, 1, 0]], [0.0, 0.5, 0.5])]:
        got = cd.gdms.stationary_distribution(np.array(P))
        np.testing.assert_allclose(got, pi, rtol=0, atol=1e-14)
        assert np.abs(got @ np.array(P) - got).max() < 1e-14


def test_stationary_laws_of_rows_stochastic_to_a_rounding_and_slow_chains():
    """Rows that sum to 1 - 1e-9 (or thirds typed as 0.333333333) give the
    law of the exact chain, also to a chaos cloud, and a chain that mixes at
    rate 1 - 3e-6 per step gets its law without iterating."""
    for P, pi in [([[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]], [0.25, 0.5, 0.25]),
                  ([[0.5, 0.5], [1.0, 0.0]], [2 / 3, 1 / 3])]:
        got = cd.gdms.stationary_distribution(np.array(P) * (1 - 1e-9))
        np.testing.assert_allclose(got, pi, rtol=0, atol=1e-14)
    np.testing.assert_allclose(cd.gdms.stationary_distribution(np.full((3, 3), 0.333333333)),
                               [1 / 3] * 3, rtol=0, atol=1e-14)
    got = cd.gdms.stationary_distribution(np.array([[1 - 1e-6, 1e-6], [2e-6, 1 - 2e-6]]))
    np.testing.assert_allclose(got, [2 / 3, 1 / 3], rtol=0, atol=1e-9)
    # a Markov chaos cloud from such rows is the cloud of the exact rows
    sys_ = separated_fib2_system()
    P = np.array([[0.5, 0.5], [1.0, 0.0]])
    want = sys_.limit_set_cloud(6, mode="chaos", samples=50, seed=2, markov=P)
    got = sys_.limit_set_cloud(6, mode="chaos", samples=50, seed=2, markov=P * (1 - 1e-9))
    assert got.Z.tobytes() == want.Z.tobytes() and got.T.tobytes() == want.T.tobytes()


def test_maximal_and_explicit_twins_agree(monkeypatch):
    """A maximal system and a copy of it with its adjacency as an explicit
    incidence: the vertex-index paths and the edge-index paths agree."""
    monkeypatch.setattr(cd.gdms, "WORD_BLOCK", 3)  # words come in several blocks
    hat = separated_fib2_system().maximalize()
    e = np.arange(hat.n_edges)
    twin = cd.GdmsSpec(hat.group, hat.vertices, hat.edges,
                       incidence=hat.admissible_pair(e[:, None], e[None, :]),
                       contraction=hat.contraction, validate="none")
    for a in range(hat.n_edges):
        assert hat.successors(a).tolist() == twin.successors(a).tolist()
    words = list(hat.admissible_words(4))
    assert words == list(twin.admissible_words(4))
    assert words == [w for w in itertools.product(range(hat.n_edges), repeat=4)
                     if all(hat.admissible_pair(a, b) for a, b in zip(w, w[1:]))]
    assert [hat.count_words(n) for n in range(1, 7)] == [twin.count_words(n)
                                                        for n in range(1, 7)]
    for t in (0.0, 0.3, 0.8, 2.0):
        p, q = cd.pressure_bracket(hat, t), cd.pressure_bracket(twin, t)
        assert np.allclose([p.lower, p.upper], [q.lower, q.upper], rtol=1e-12, atol=0)
    m, n = cd.transfer_eigenmeasure(hat, 0.6, 5), cd.transfer_eigenmeasure(twin, 0.6, 5)
    assert list(m.words) == list(n.words) == list(hat.admissible_words(5))
    assert m.words[0] == (0,) * 5 and m.words[-1] == (2, 1, 2, 1, 2)
    assert np.allclose(m.masses, n.masses, rtol=1e-12, atol=0)


def test_maximal_system_builds_no_edge_pair_arrays():
    """On CF R=6 (5.9k edges) an |E| x |E| array would take 35 MB as bool and
    280 MB as float; word counts, the eigenmeasure and chaos sampling read
    the successor index and the vertex matrix instead."""
    sys_ = cd.build_cf_system(cd.heisenberg(1), cd.CfSystemParams(0.5, 6.0))
    assert sys_.n_edges > 5000
    calls = {
        "count_words": lambda: (sys_.count_words(1), sys_.count_words(3)),
        "eigenmeasure": lambda: cd.transfer_eigenmeasure(sys_, 3.0, 1),
        "chaos": lambda: sys_.limit_set_cloud(4, mode="chaos", samples=1000, seed=0),
    }
    tracemalloc.start()
    try:
        for name, call in calls.items():
            tracemalloc.reset_peak()
            call()
            peak = tracemalloc.get_traced_memory()[1]
            assert peak < 64 * 2 ** 20, (name, peak)
    finally:
        tracemalloc.stop()


def edge_bfs_witnesses(sys_):
    """Reference witness search, edge by edge: one BFS over the edges that
    may follow each edge i, and the parent chain of each edge j as the
    witness of i w j."""
    nE = sys_.n_edges
    phi = set()
    for i in range(nE):
        parent = dict.fromkeys(sys_.successors(i).tolist())
        order = list(parent)
        for x in order:  # `order` grows while it is read
            for y in sys_.successors(x).tolist():
                if y not in parent:
                    parent[y] = x
                    order.append(y)
        if len(parent) < nE:
            j = min(set(range(nE)) - parent.keys())
            return ("reducible", (sys_.edges[i].id, sys_.edges[j].id))
        for j in range(nE):
            path, x = [], j
            while parent[x] is not None:
                x = parent[x]
                path.append(x)
            phi.add(tuple(reversed(path)))
    return ("irreducible", tuple(sorted(phi)))


def line_maps(k, scale):
    """k similarities of one ratio, translations 4 apart on the x axis."""
    return [(cd.gpoint([4.0 * a, 0.0], [0.0]), scale) for a in range(k)]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(k=st.integers(1, 6), density=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       hat=st.booleans())
def test_witness_search_matches_edge_bfs(k, density, seed, hat):
    """Row-by-row witnesses equal the edge-by-edge BFS's, on random explicit
    incidences (reducible ones and edges with no successors included) and on
    their hat systems, whose index rows are vertices, with the hat edges
    shuffled so that row order and edge order differ."""
    rng = np.random.default_rng(seed)
    A = rng.random((k, k)) < density
    sys_ = cd.build_self_similar(cd.heisenberg(1), line_maps(k, 0.01), incidence=A)
    if hat:
        if not A.any():
            return  # no admissible pair, so no hat edge
        sys_ = sys_.maximalize()
        t, p = sys_.table, rng.permutation(sys_.n_edges)
        sys_ = cd.GdmsSpec(t.group, sys_.vertices, t.take(p, t.ids[p], t.src[p], t.dst[p]),
                           validate="none")
    rows = len(sys_.vertices) if hat else k
    assert sys_.finite_irreducibility() == edge_bfs_witnesses(sys_)
    with pytest.raises(BudgetError):
        sys_.finite_irreducibility(max_pairs=rows ** 2 - 1)


def test_witnesses_of_a_large_hat_system():
    """The hat of a 60-map Moran IFS (60 vertices, 3,600 edges): one BFS per
    vertex instead of per edge, within the default budget of index-row pairs."""
    g = cd.heisenberg(1)
    maps = [(cd.gpoint([float(a % 8), float(a // 8)], [0.0]), 0.01) for a in range(60)]
    hat = cd.build_self_similar(g, maps).maximalize()
    assert (len(hat.vertices), hat.n_edges) == (60, 3600)
    kind, phi = hat.finite_irreducibility()
    assert kind == "irreducible"
    rng = np.random.default_rng(0)
    for i, j in rng.integers(0, hat.n_edges, size=(50, 2)).tolist():
        assert any(all(hat.admissible_pair(a, b) for a, b in zip((i,) + w, w + (j,)))
                   for w in phi)
    m = cd.transfer_eigenmeasure(hat, 1.0, 1)
    assert m.masses.size == 3600 and abs(m.masses.sum() - 1.0) < 1e-12
    # a single vertex: the empty word connects every pair
    assert cd.build_self_similar(g, maps).finite_irreducibility() == ("irreducible", ((),))


def test_word_counts_past_the_float_range():
    sys_ = moran_system([0.5] * 4)
    assert sys_.count_words(26) == 4 ** 26  # below 2^53: exact
    assert sys_.count_words(600) == math.inf
    with pytest.raises(BudgetError):
        sys_.limit_set_cloud(600)
    with pytest.raises(BudgetError):
        cd.transfer_eigenmeasure(sys_, 1.0, 600)


def test_deterministic_cloud_charges_letters():
    """The budget counts words x depth, as in chaos mode, and a depth past
    the budget is refused before the words are counted (a one-map system
    has one word of every length, and counting it takes depth - 1 steps)."""
    sys_ = moran_system([0.5] * 4)
    assert len(sys_.limit_set_cloud(3, budget=4 ** 3 * 3)) == 4 ** 3
    with pytest.raises(BudgetError, match="64 words of 3 letters"):
        sys_.limit_set_cloud(3, budget=4 ** 3 * 3 - 1)
    one = moran_system([0.5])
    assert len(one.limit_set_cloud(1000)) == 1
    t0 = time.perf_counter()
    with pytest.raises(BudgetError):
        one.limit_set_cloud(3_000_000)
    assert time.perf_counter() - t0 < 2.0
