import functools
import itertools
import math
import re
import tracemalloc
import types
import warnings

import mpmath

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import carnotdim as cd
from carnotdim import thermo
from carnotdim.errors import BudgetError, NonConvergenceError, ValidationError

from conftest import fib2_system, moran_system, sample_vertex, separated_fib2_system


def test_weight_table_mid_and_sides():
    wt = thermo.WeightTable(np.array([0.25]), np.array([0.36]), distortion=1.5)
    assert np.isclose(wt.w_mid[0], 0.3)
    assert wt.w_lo[0] == 0.25
    assert wt.w_up[0] == 0.36
    with pytest.raises(ValidationError):
        thermo.WeightTable(np.array([0.5]), np.array([0.4]), distortion=1.0)


def test_exact_weights_for_similarities():
    sys_ = moran_system([0.5, 0.25, 0.125])
    wt = thermo.ensure_weights(sys_)
    assert wt.exact
    assert np.allclose(wt.w_lo, [0.5, 0.25, 0.125])
    assert np.allclose(wt.w_up, wt.w_lo)
    assert wt.distortion == 1.0


def test_weight_table_exact_only_when_tight():
    w = np.array([0.5, 0.25])
    assert thermo.WeightTable(w, w.copy()).exact
    assert not thermo.WeightTable(w, w.copy(), distortion=1.5).exact
    assert not thermo.WeightTable(w * 0.9, w).exact


@functools.lru_cache(maxsize=None)
def bracketed_system(kind):
    g = cd.heisenberg(1)
    if kind == "cf":
        return cd.build_cf_system(g, cd.CfSystemParams(0.5, 4.0))
    return cd.build_cantor_system(
        g, cd.CantorSystemParams(epsilon=2.0, shells=3, separation_scale=8.0), seed=0)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(["cf", "cantor"]),
       letters=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_word_derivative_within_weight_products(kind, letters, seed):
    """Chain rule with pointwise per-edge brackets: prod w_lo <= ||D phi_w(p)||
    <= prod w_up at every domain point p, which is why the pressure bracket
    needs no distortion constant."""
    sys_ = bracketed_system(kind)
    weights = thermo.ensure_weights(sys_)
    assert weights.distortion == 1.0
    word = tuple(k % sys_.n_edges for k in letters)
    v = sys_.vertices[sys_.dst_idx[word[-1]]]
    Z, T = sample_vertex(sys_.group, v, 32, np.random.default_rng(seed))
    deriv = sys_.word_map(word).deriv_norm_many(Z, T)
    lo = math.prod(weights.w_lo[a] for a in word)
    up = math.prod(weights.w_up[a] for a in word)
    assert (deriv >= lo * (1 - 1e-12)).all()
    assert (deriv <= up * (1 + 1e-12)).all()


def test_partition_sum_closed_forms():
    # Z_n(t) grows like exp(n P(t)): Z_n(1) = (4 * 1/4)^n = 1, so P(1) = 0
    pb = thermo.pressure_bracket(moran_system([0.25, 0.25, 0.25, 0.25]), 1.0)
    assert pb.lower == pb.upper and abs(pb.upper) <= 1e-15
    # Z_n(0) counts the golden-mean words (Fibonacci numbers): P(0) = log phi
    fib = fib2_system()
    pb = thermo.pressure_bracket(fib, 0.0)
    golden = math.log((1 + math.sqrt(5)) / 2)
    assert np.isclose(pb.lower, golden, rtol=1e-12) and np.isclose(pb.upper, golden, rtol=1e-12)
    assert fib.count_words(5) == 13


def test_pressure_monotone_and_convex():
    sys_ = moran_system([0.5, 0.3, 0.2])
    ts = np.linspace(0.0, 2.0, 9)
    vals = [thermo.pressure_bracket(sys_, t).upper for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))          # decreasing
    second = np.diff(vals, 2)
    assert (second >= -1e-9).all()                              # convex
    # P(0) = log(number of maps) for a maximal system
    assert np.isclose(vals[0], math.log(3))


def test_pressure_exact_path_is_tight():
    sys_ = moran_system([0.5, 0.3])
    pb = thermo.pressure_bracket(sys_, 0.7)
    assert pb.lower == pb.upper
    assert pb.method == "exact"


def test_spectral_pressure_on_a_large_alphabet():
    """The spectral bracket needs no irreducibility witness, whose search over
    |E|^2 pairs is over budget here."""
    g = cd.heisenberg(1)
    base = cd.build_cf_system(g, cd.CfSystemParams(0.5, 5.0))
    rng = np.random.default_rng(0)
    A = rng.random((base.n_edges, base.n_edges)) < 0.3
    sys_ = cd.GdmsSpec(g, base.vertices, base.edges, incidence=A,
                       contraction=base.contraction, weights=cd.ensure_weights(base),
                       validate="none")
    assert sys_.n_edges == 2586
    with pytest.raises(BudgetError):
        sys_.finite_irreducibility()
    sys_._index  # the successor index, then one evaluation: two |E| x |E| floats at peak
    tracemalloc.start()
    try:
        pb = thermo.pressure_bracket(sys_, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.05 * 8 * sys_.n_edges ** 2
    assert pb.method == "spectral"
    assert math.isfinite(pb.lower) and pb.lower < pb.upper


def test_bowen_dim_moran_oracle():
    # 2^-h + 4^-h = 1  =>  h = log2(golden ratio) = 0.694241...
    sys_ = moran_system([0.5, 0.25])
    db = cd.bowen_dim(sys_, tol=1e-9)
    root = math.log2((1 + math.sqrt(5)) / 2)
    assert db.h_lo - 1e-9 <= root <= db.h_hi + 1e-9
    assert db.h_hi - db.h_lo <= 1e-9 + 1e-15


def test_bowen_dim_single_map_is_zero():
    sys_ = moran_system([0.5])
    db = cd.bowen_dim(sys_)
    assert db.h_hi <= 1e-6


def test_similarity_dimension_matches_bowen():
    ratios = [0.4, 0.3, 0.2]
    assert np.isclose(thermo.similarity_dimension(ratios),
                      cd.bowen_dim(moran_system(ratios), tol=1e-10).mid,
                      atol=1e-8)


moran_weights = st.lists(st.floats(1e-3, 0.99), min_size=2, max_size=20)


def mp_moran_root(w):
    """The root of sum w^t = 1 at 50 digits."""
    with mpmath.workdps(50):
        ws = [mpmath.mpf(x) for x in w]
        f = lambda t: mpmath.fsum(x ** t for x in ws) - 1
        hi = mpmath.mpf(1)
        while f(hi) > 0:
            hi *= 2
        return mpmath.findroot(f, (mpmath.mpf(0), hi), solver="anderson")


@settings(max_examples=100, deadline=None)
@given(w=moran_weights, tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-2]))
@example(w=[1 - 1e-9, 0.5], tol=1e-12)  # the log1p form keeps f exact near its root
@example(w=[0.99] * 20, tol=1e-12)      # root near 298
def test_similarity_dimension_agrees_with_mpmath(w, tol):
    h = thermo.similarity_dimension(w, tol=tol)
    assert abs(h - mp_moran_root(w)) <= tol


def test_similarity_dimension_of_one_map_or_none_is_zero():
    assert thermo.similarity_dimension([0.5]) == 0.0
    assert thermo.similarity_dimension([]) == 0.0
    for bad in ([0.5, 1.0], [0.5, 0.0], [0.5, math.nan]):
        with pytest.raises(ValidationError):
            thermo.similarity_dimension(bad)
    with pytest.raises(ValidationError):
        thermo.similarity_dimension([0.5, 0.5], tol=0.0)


def test_shell_family_geometric_theta():
    # one map of scale 2^-k in shell k: Z_1(t) = sum 2^-kt, threshold t = 0
    fam = thermo.ShellFamily(
        log_weights=[np.array([-k * math.log(2.0)]) for k in range(1, 9)],
        counts=None, tail="geometric")
    est = cd.theta_estimate(fam)
    assert est.lo <= 0.0 + 1e-9
    assert est.hi <= 0.5
    # 4^k maps of scale 2^-k per shell: sum 4^k 2^-kt finite iff t > 2
    fam2 = thermo.ShellFamily(
        log_weights=[np.array([-k * math.log(2.0)]) for k in range(1, 9)],
        counts=[np.array([4.0 ** k]) for k in range(1, 9)],
        tail="geometric")
    est2 = cd.theta_estimate(fam2)
    assert est2.lo <= 2.0 <= est2.hi
    assert abs(est2.estimate - 2.0) < 1e-6


def test_shell_family_power_theta():
    # shell k holds k^3 maps of weight k^-2: sum k^3 k^-2t ~ finite iff t > 2,
    # and log S_k = 3 log k - 2t log k crosses slope -1 at t = 2
    fam = thermo.ShellFamily(
        log_weights=[np.array([-2.0 * math.log(k)]) for k in range(1, 11)],
        counts=[np.array([float(k ** 3)]) for k in range(1, 11)],
        tail="power")
    est = cd.theta_estimate(fam)
    assert est.lo <= 2.0 <= est.hi
    assert abs(est.estimate - 2.0) < 1e-6


@pytest.mark.parametrize("log_weights, counts", [
    ([np.array([-1.0]), np.array([])], None),
    ([np.array([-1.0]), np.array([])], [np.array([1.0]), np.array([])]),
    ([np.array([-1.0])], [np.array([0.0])]),
    ([np.array([-1.0])], [np.array([1.0, 2.0])]),
    ([np.array([-1.0])], [np.array([1.0])] * 2),
    ([np.array([math.nan])], None),
], ids=["empty", "empty-counted", "zero-count", "count-shape", "shell-count", "nan"])
def test_shell_family_rejects_empty_or_malformed_shells(log_weights, counts):
    with pytest.raises(ValidationError):
        thermo.ShellFamily(log_weights=log_weights, counts=counts)


def test_shell_family_holds_counts():
    fam = thermo.ShellFamily(log_weights=[np.array([-1.0, -2.0])])
    assert np.array_equal(fam.counts[0], [1.0, 1.0])
    assert fam.log_shell_sum(0, 2.0) == thermo._log_transfer(np.array([-1.0, -2.0]),
                                                             np.ones(2), 2.0)


def test_theta_needs_enough_shells():
    fam = thermo.ShellFamily(log_weights=[np.array([-1.0])] * 3,
                             counts=None, tail="geometric")
    with pytest.raises(ValidationError):
        cd.theta_estimate(fam)


def scaled_weights(log_w, t):
    """Per-edge x = exp(t (log w - top)), top = max log w, and top."""
    top = log_w.max()
    return np.exp(t * (log_w - top)), top


def log_mid_per_edge(sys_):
    """Per-edge log w_mid, as the mean of the logs of the two sides."""
    wt = thermo.ensure_weights(sys_)
    return 0.5 * (np.log(wt.w_lo) + np.log(wt.w_up))


def test_eigenmeasure_children_sum_to_parent():
    sys_ = fib2_system()
    t = 0.8
    m = cd.transfer_eigenmeasure(sys_, t, depth=5)
    assert np.isclose(m.masses.sum(), 1.0)
    # consistency: mass([w]) = sum of masses of admissible extensions
    m4 = cd.transfer_eigenmeasure(sys_, t, depth=4)
    for w in sys_.admissible_words(4):
        children = sum(m.mass(w + (b,)) for b in sys_.successors(w[-1]))
        assert np.isclose(m4.mass(w), children, rtol=1e-12)
    # every mass is the per-word product formula, to the bit, against a
    # dense A diag(x) in the scaled arithmetic: x = w_mid^t / w_max^t, and
    # lam^-|w| taken letter by letter, so that long words do not underflow
    x, top = scaled_weights(log_mid_per_edge(sys_), t)
    lam, v = thermo.perron_eigenvalue(sys_.incidence * x[None, :])
    y = x / lam
    Zc = float((y * v).sum())
    assert (m.eigenvector.tolist(), m.norm_const) == (v.tolist(), Zc)
    assert m.eigenvalue == math.exp(np.log(lam) + t * top)
    assert m.masses.tolist() == [math.prod(y[a] for a in w) * v[w[-1]] / Zc
                                 for w in m.words]


def test_gibbs_exact_for_similarities():
    sys_ = fib2_system()
    m = cd.transfer_eigenmeasure(sys_, 0.7, depth=6)
    lo, hi = cd.gibbs_check(m, sys_, 0.7)
    assert hi / lo <= 1.0 + 1e-9


def test_eigenmeasure_rejects_negative_t_and_gibbs_skips_underflow_silently():
    """A negative t is refused as in pressure_bracket; at t = 613 the depth-6
    masses of fib2 underflow to 0, and the Gibbs ratios, a closed form of
    the weights, are still 1, without a RuntimeWarning."""
    sys_ = fib2_system()
    with pytest.raises(ValidationError):
        cd.transfer_eigenmeasure(sys_, -1.0, depth=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = cd.transfer_eigenmeasure(sys_, 613.0, depth=6)
        assert cd.gibbs_check(m, sys_, 613.0) == (1.0, 1.0)


def gibbs_by_words(sys_, t, depth, side):
    """(min, max) of the Gibbs ratios by enumeration, as gibbs_check once
    computed them: each word of length 1..depth carries its mass, the
    product of w_mid^t along it, and its prediction, the product of w_side^t
    (the factors v, lam and Z that both share are left out), here as sums
    of logs so that no product underflows; the ratio is mass / prediction."""
    wt = thermo.ensure_weights(sys_)
    log_lo, log_up = np.log(wt.w_lo), np.log(wt.w_up)
    log_mid = 0.5 * (log_lo + log_up)
    log_side = {"lower": log_lo, "mid": log_mid, "upper": log_up}[side]
    cols = t * np.column_stack([log_mid, log_side])
    sums = [np.zeros((1, 2))] + [None] * depth
    lo, hi = math.inf, -math.inf
    for k, parent, last in sys_.word_blocks(depth):
        sums[k] = sums[k - 1][parent] + cols[last]
        r = sums[k][:, 0] - sums[k][:, 1]
        lo, hi = min(lo, r.min()), max(hi, r.max())
    with np.errstate(over="ignore"):
        return float(np.exp(lo)), float(np.exp(hi))


def random_inexact_system(seed, dead_end=False):
    """2-5 similarities on a seeded random irreducible incidence, with a
    weight table w_lo < w_up in place of their exact ratios; with
    `dead_end`, a random edge may be followed by none."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    A = rng.random((k, k)) < 0.4
    A[np.arange(k), (np.arange(k) + 1) % k] = True
    A[rng.integers(k)] &= not dead_end
    w_up = rng.uniform(0.1, 0.6, k)
    sys_ = cd.build_self_similar(cd.heisenberg(1), [(cd.gpoint([3.0 * j, 0.0], [0.0]), 0.5)
                                                    for j in range(k)], incidence=A)
    sys_.weights = thermo.WeightTable(w_up * rng.uniform(0.3, 0.99, k), w_up)
    return sys_


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(1, 7),
       side=st.sampled_from(["lower", "mid", "upper"]),
       t=st.one_of(st.floats(0.0, 3.0), st.just(613.0)), dead_end=st.booleans())
def test_gibbs_recursion_matches_the_words(seed, depth, side, t, dead_end):
    """The max-plus steps over the successor index give the extremes that
    enumerating every word gives, with no RuntimeWarning (at t = 613 the
    ratios of long words pass the float range: inf or 0 on both), also when
    an edge ends every word it is in."""
    sys_ = random_inexact_system(seed, dead_end)
    # gibbs_check reads only the measure's depth: a system with a dead end
    # has no eigenmeasure, and the Perron vector of such an incidence need
    # not converge at t = 613, where the power shift sits far above rho
    if dead_end:
        m = types.SimpleNamespace(depth=depth)
    else:
        m = cd.transfer_eigenmeasure(sys_, min(t, 3.0), depth)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cd.gibbs_check(m, sys_, t, side=side)
    want = gibbs_by_words(sys_, t, depth, side)
    np.testing.assert_allclose(got, want, rtol=1e-14 * (1 + t) * depth, atol=1e-300)
    if side == "mid":
        assert got == (1.0, 1.0)
    elif side == "lower":  # w_mid >= w_lo
        assert got[0] >= 1.0
    else:
        assert got[1] <= 1.0


def test_gibbs_recursion_matches_the_words_on_cf():
    """CF R = 4 (848 edges) at depth 2, both weight sides."""
    sys_ = bracketed_system("cf")
    m = cd.transfer_eigenmeasure(sys_, 2.0, 2)
    for side in ("lower", "upper"):
        np.testing.assert_allclose(cd.gibbs_check(m, sys_, 2.0, side=side),
                                   gibbs_by_words(sys_, 2.0, 2, side), rtol=1e-14)


def test_measure_enumerates_its_words_once(monkeypatch):
    """transfer_eigenmeasure walks the words; gibbs_check reads only the
    weight table and the successor index."""
    sys_ = random_inexact_system(3)
    calls = []
    blocks = cd.GdmsSpec.word_blocks
    monkeypatch.setattr(cd.GdmsSpec, "word_blocks",
                        lambda self, *a: calls.append(a) or blocks(self, *a))
    m = cd.transfer_eigenmeasure(sys_, 1.0, 5)
    for side in ("lower", "mid", "upper"):
        cd.gibbs_check(m, sys_, 1.0, side=side)
    assert len(calls) == 1


def test_gibbs_ratio_past_the_float_range_is_inf():
    sys_ = random_inexact_system(5)
    m = cd.transfer_eigenmeasure(sys_, 1.0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cd.gibbs_check(m, sys_, 1e6, side="lower")[1] == math.inf
        assert cd.gibbs_check(m, sys_, 1e6, side="upper")[0] == 0.0


def test_measure_dimension_bernoulli():
    sys_ = moran_system([0.5, 0.5])
    # uniform: h = log 2, chi = log 2 -> dimension 1
    mu = thermo.InvariantMeasureSpec.bernoulli([0.5, 0.5])
    assert np.isclose(cd.measure_dimension(sys_, mu), 1.0)
    # biased: (0.9, 0.1) -> h/chi = H(0.9)/log 2
    mu2 = thermo.InvariantMeasureSpec.bernoulli([0.9, 0.1])
    H = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    assert np.isclose(cd.measure_dimension(sys_, mu2), H / math.log(2.0))


def test_measure_dimension_markov():
    sys_ = fib2_system()
    P = np.array([[0.5, 0.5], [1.0, 0.0]])
    mu = thermo.InvariantMeasureSpec.markov(P)
    pi = mu.pi
    assert np.allclose(pi @ P, pi)
    h = -(pi[0] * (0.5 * math.log(0.5) * 2))
    chi = -(pi[0] * math.log(0.5) + pi[1] * math.log(1.0 / 3.0))
    assert np.isclose(cd.measure_dimension(sys_, mu), h / chi)


def test_measure_dimension_rejects_bad_support():
    sys_ = fib2_system()
    # Bernoulli with mass on edge 1 needs the (1,1) transition, which A forbids
    mu = thermo.InvariantMeasureSpec.bernoulli([0.5, 0.5])
    with pytest.raises(ValidationError):
        cd.measure_dimension(sys_, mu)
    # maximal hat system: edge 0 is a loop at v[0], edge 1 goes on to v[1]
    hat = separated_fib2_system().maximalize()
    assert cd.measure_dimension(hat, thermo.InvariantMeasureSpec.bernoulli([1, 0, 0])) == 0.0
    with pytest.raises(ValidationError, match="inadmissible"):
        cd.measure_dimension(hat, thermo.InvariantMeasureSpec.bernoulli([0.5, 0.5, 0]))


def test_measure_dimension_rejects_a_weight_that_underflows():
    """w_mid = sqrt(w_lo w_up) underflows to 0 at scale 1e-320: its log would
    make the Lyapunov exponent infinite, and no warning is issued."""
    sys_ = moran_system([1e-320, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="Lyapunov exponent"):
            cd.measure_dimension(sys_, thermo.InvariantMeasureSpec.bernoulli([0.5, 0.5]))


def test_dirac_measure_has_dimension_zero():
    sys_ = moran_system([0.5, 0.5])
    mu = thermo.InvariantMeasureSpec.bernoulli([1.0, 0.0])
    assert cd.measure_dimension(sys_, mu) == 0.0


def test_subsystem_with_dimension_converges():
    gen = cd.power_law_weights(0.5, 2.0)
    res = cd.subsystem_with_dimension(gen, 0.6, tol=1e-4, budget=100_000)
    assert not res.exhausted
    assert res.dim.h_hi <= 0.6 + 1e-12
    assert res.dim.h_lo >= 0.6 - 1e-4 - 1e-12
    # the dimension trace is nondecreasing as edges are added
    hs = [h for _, h in res.trace]
    assert all(a <= b + 1e-12 for a, b in zip(hs, hs[1:]))


def test_subsystem_trace_is_logarithmic_in_the_budget():
    # every candidate is accepted (sum_k (0.5 k^-2)^1.3 < 1): the trace holds
    # the first 64 accepted counts, the powers of two above, and the end
    gen = cd.power_law_weights(0.5, 2.0)
    res = cd.subsystem_with_dimension(gen, 1.3, tol=1e-4, budget=200_000)
    assert res.exhausted and len(res.indices) == 200_000
    assert len(res.trace) == 64 + 11 + 1
    assert res.trace[-1] == (199_999, res.dim.h_lo)
    hs = [h for _, h in res.trace]
    assert all(a <= b + 1e-12 for a, b in zip(hs, hs[1:]))


def test_subsystem_unreachable_target_flags_exhaustion():
    # sum_k 0.5 k^-2 = pi^2/12 < 1, so dimension 1 is unreachable
    gen = cd.power_law_weights(0.5, 2.0)
    res = cd.subsystem_with_dimension(gen, 1.0, tol=1e-4, budget=5000)
    assert res.exhausted
    assert res.dim.h_hi < 1.0


def test_perron_eigenvalue_known_matrix():
    M = np.array([[1.0, 1.0], [1.0, 0.0]])
    lam, v = thermo.perron_eigenvalue(M)
    assert np.isclose(lam, (1 + math.sqrt(5)) / 2, atol=1e-10)
    assert np.allclose(M @ v, lam * v, atol=1e-9)
    # reducible: a row of smaller growth, a row without successors, and two
    # chained classes of one growth (a Jordan block, whose gap closes only
    # like 1/n) give the root of their classes, with no warning from the
    # entries of v that decay to 0; a nilpotent matrix has no root
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M, root in [([[1.0, 1.0], [0.0, 0.5]], 1.0), ([[3.0, 2.0], [0.0, 0.0]], 3.0),
                        ([[1.0, 1.0], [0.0, 1.0]], 1.0)]:
            assert thermo.perron_eigenvalue(np.array(M))[0] == root
        with pytest.raises(NonConvergenceError):
            thermo.perron_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_row_transfer_matrix_is_the_edge_and_vertex_matrix():
    """The transfer matrix built row by row from the successor index gives,
    bit for bit, the pressures of A * diag(x) for an explicit incidence and
    of the vertex matrix M_uv = sum of x over the edges u -> v for a maximal
    system, in the scaled arithmetic: x = exp(t (log w - top)), top the
    largest log weight, and P = log rho(x) + t top."""
    g = cd.heisenberg(1)
    base = cd.build_cf_system(g, cd.CfSystemParams(0.5, 3.15))
    rng = np.random.default_rng(5)
    A = rng.random((base.n_edges, base.n_edges)) < 0.3
    explicit = cd.GdmsSpec(g, base.vertices, base.edges, incidence=A,
                           contraction=base.contraction, validate="none")
    hat = separated_fib2_system().maximalize()
    nV = len(hat.vertices)
    for t in (0.0, 0.5, 1.0, 2.0, 3.0):
        pb = thermo.pressure_bracket(explicit, t)
        wt = thermo.ensure_weights(explicit)
        for side, w in (("lower", wt.w_lo), ("upper", wt.w_up)):
            x, top = scaled_weights(np.log(w), t)
            assert getattr(pb, side) == (np.log(thermo.perron_eigenvalue(A * x[None, :])[0])
                                         + t * top)
        x, top = scaled_weights(np.log(thermo.ensure_weights(hat).w_up), t)
        M = np.bincount(hat.src_idx * nV + hat.dst_idx, weights=x, minlength=nV * nV)
        assert (thermo.pressure_bracket(hat, t).upper
                == np.log(thermo.perron_eigenvalue(M.reshape(nV, nV))[0]) + t * top)


def test_one_row_index_takes_the_subadditive_path():
    """A one-edge explicit system has one index row, like a single-vertex
    maximal one: rho is its weight.  With no admissible pair there is no
    pressure."""
    g = cd.heisenberg(1)
    base = moran_system([0.5])
    table = thermo.WeightTable([0.4], [0.5])
    one = cd.GdmsSpec(g, base.vertices, base.edges, incidence=[[True]], weights=table)
    pb = thermo.pressure_bracket(one, 2.0)
    assert pb.method == "subadditive"
    assert (pb.lower, pb.upper) == (2 * math.log(0.4), 2 * math.log(0.5))
    dead = cd.GdmsSpec(g, base.vertices, base.edges, incidence=[[False]], weights=table)
    with pytest.raises(ValidationError):
        thermo.pressure_bracket(dead, 1.0)
    fib = fib2_system()
    two_dead = cd.GdmsSpec(g, fib.vertices, fib.edges, incidence=np.zeros((2, 2), bool))
    with pytest.raises(ValidationError):
        thermo.pressure_bracket(two_dead, 1.0)


def test_bernoulli_support_check_is_linear_in_the_index():
    """On CF R=8 (19.6k edges) a support x support array would take 384 MB;
    the check counts the support among each index row's successors."""
    sys_ = cd.build_cf_system(cd.heisenberg(1), cd.CfSystemParams(0.5, 8.0))
    nE = sys_.n_edges
    thermo.ensure_weights(sys_)
    mu = thermo.InvariantMeasureSpec.bernoulli(np.full(nE, 1 / nE))
    tracemalloc.start()
    try:
        dim = cd.measure_dimension(sys_, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nE > 19_000 and 0 < dim < 4 and peak < 8 * 2 ** 20


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_subsystem_rejects_a_nonpositive_tol(tol):
    with pytest.raises(ValidationError, match="tol"):
        cd.subsystem_with_dimension(cd.power_law_weights(0.5, 2.0), 0.6, tol=tol)


def test_power_law_stream_starts_at_its_first_weight_below_one():
    """The stream of the former k-by-k scan, found by bisection; a stream
    with no weight below 1 in float range is rejected instead of scanned."""
    def scan(c, exponent, start=1):
        k = start
        while True:
            w = c * float(k) ** -exponent
            if w < 1.0:
                yield w
            k += 1

    for c, exponent, start in [(0.5, 2.0, 1), (2.0, 2.0, 1), (9.0, 2.0, 1), (1.0, 1.0, 1),
                               (5.0, 0.5, 3), (100.0, 0.7, 2), (1.0, 2.0, 5)]:
        want = list(itertools.islice(scan(c, exponent, start), 40))
        assert list(itertools.islice(cd.power_law_weights(c, exponent, start), 40)) == want
    assert next(cd.power_law_weights(5.0, 0.01)) < 1.0  # first k ~ 5^100
    with pytest.raises(ValidationError, match="stay >= 1"):
        next(cd.power_law_weights(5.0, 1e-5))


# The whole result, to the last bit: the dyadic endpoints of a tol-1e-3
# bisection move only when a pressure crosses zero, but the pressures at
# the endpoints carry every bit of the log-sum-exp behind them.
SINGLE_VERTEX_PINS = {
    ("cf", 4.0): "DimBracket(h_lo=2.4443359375, h_hi=3.13427734375, iterations=26, tol=0.001, "
                 "p_lower_at_h_lo=7.135297681148955e-05, "
                 "p_upper_at_h_hi=-0.0009032816652672082, slack=0.68894140625, "
                 "note='pressure bracket width dominates (slack 0.689)')",
    ("cf", 5.0): "DimBracket(h_lo=2.62353515625, h_hi=3.25830078125, iterations=26, tol=0.001, "
                 "p_lower_at_h_lo=0.0006368311007083349, "
                 "p_upper_at_h_hi=-0.0007539634721442923, slack=0.633765625, "
                 "note='pressure bracket width dominates (slack 0.634)')",
    ("cf", 6.0): "DimBracket(h_lo=2.70556640625, h_hi=3.29931640625, iterations=26, tol=0.001, "
                 "p_lower_at_h_lo=0.0004122338797003522, "
                 "p_upper_at_h_hi=-0.000531958686741163, slack=0.59275, "
                 "note='pressure bracket width dominates (slack 0.593)')",
    ("cantor", 3): "DimBracket(h_lo=1.09326171875, h_hi=1.3720703125, iterations=26, tol=0.001, "
                   "p_lower_at_h_lo=0.0011093008445461905, "
                   "p_upper_at_h_hi=-0.0016112768190721383, slack=0.27780859375, "
                   "note='pressure bracket width dominates (slack 0.278)')",
}


def single_vertex_system(kind, size):
    g = cd.heisenberg(1)
    if kind == "cf":
        return cd.build_cf_system(g, cd.CfSystemParams(0.5, size))
    return cd.build_cantor_system(g, cd.CantorSystemParams(
        epsilon=2.0, shells=size, separation_scale=8.0))


@pytest.mark.parametrize("kind, size", sorted(SINGLE_VERTEX_PINS))
def test_single_vertex_brackets_are_pinned_bit_for_bit(kind, size):
    sys_ = single_vertex_system(kind, size)
    assert repr(cd.bowen_dim(sys_, tol=1e-3)) == SINGLE_VERTEX_PINS[kind, size]


def mp_log_sum_pow(weights, t, counts=None):
    """log sum count * w^t at 50 digits, each float weight taken exactly."""
    counts = np.ones(len(weights)) if counts is None else counts
    with mpmath.workdps(50):
        return mpmath.log(mpmath.fsum(int(c) * mpmath.mpf(float(w)) ** mpmath.mpf(t)
                                      for w, c in zip(weights, counts)))


def assert_near_mp(value, exact, t, log_w, eps=1e-15):
    """|value - exact| <= eps (1 + t max |log w|): the rounding of t log w."""
    err = abs(mpmath.mpf(value) - exact)
    assert err <= eps * (1 + t * float(np.abs(log_w).max())), (value, float(exact), float(err))


@pytest.mark.parametrize("kind, size", sorted(SINGLE_VERTEX_PINS))
def test_pinned_endpoint_pressures_agree_with_mpmath(kind, size):
    """Both pinned endpoint pressures against log sum w^t at 50 digits, over
    the distinct weights of the table and their multiplicities (K = 1)."""
    pin = dict(re.findall(r"(h_lo|h_hi|p_lower_at_h_lo|p_upper_at_h_hi)=([-0-9.e]+)",
                          SINGLE_VERTEX_PINS[kind, size]))
    wt = thermo.ensure_weights(single_vertex_system(kind, size))
    assert wt.distortion == 1.0
    for t, p, w in [(pin["h_lo"], pin["p_lower_at_h_lo"], wt.w_lo),
                    (pin["h_hi"], pin["p_upper_at_h_hi"], wt.w_up)]:
        distinct, counts = np.unique(w, return_counts=True)
        assert_near_mp(float(p), mp_log_sum_pow(distinct, float(t), counts), float(t),
                       np.log(distinct).max(keepdims=True))


def test_cf_theta_is_pinned_bit_for_bit():
    est = cd.theta_estimate(cd.cf_shell_family(cd.heisenberg(1), 0.5, 60, n_shells=8))
    assert repr((est.lo, est.hi, est.estimate)) == (
        "(1.9798602338502438, 2.007336301080019, 1.9977123625867534)")


def test_weight_table_keeps_its_logs_and_exactness():
    """The table keeps the logs of its distinct weight pairs, with counts: one
    row per integer norm key on CF R = 4 (53 for 848 edges)."""
    sys_ = cd.build_cf_system(cd.heisenberg(1), cd.CfSystemParams(0.5, 4.0))
    cd.bowen_dim(sys_, tol=1e-3)
    wt = thermo.ensure_weights(sys_)
    assert wt.rows is wt.rows  # computed once
    log_lo, log_up, count, _ = wt.rows
    pairs, counts = np.unique(np.column_stack([wt.w_up, wt.w_lo]), axis=0, return_counts=True)
    assert (len(count), count.sum()) == (53, sys_.n_edges) == (len(pairs), 848)
    assert np.array_equal(log_up, np.log(pairs[:, 0]))
    assert np.array_equal(log_lo, np.log(pairs[:, 1]))
    assert np.array_equal(count, counts)
    assert not wt.exact and "exact" in vars(wt)


def test_bowen_dim_never_inverts_the_bracket():
    """w_lo above w_up by the 1e-12 that validation allows puts the lower
    side's root past the upper one's; on a grid finer than their gap the
    h_lo bisection, capped by the upper side where that is known, still
    stops at or below h_hi."""
    sys_ = moran_system([0.3, 0.3, 0.4])
    w = thermo.ensure_weights(sys_).w_up
    sys_.weights = thermo.WeightTable(w * (1 + 1e-12), w)
    res = cd.bowen_dim(sys_, tol=1e-14)
    assert res.h_lo <= res.h_hi and res.p_lower_at_h_lo >= 0 >= res.p_upper_at_h_hi


@st.composite
def weight_rows(draw):
    """Per-edge weights with repeats: a few distinct w_up values (the largest
    one repeated, so that the maximum ties), each with one or more w_lo."""
    ups = draw(st.lists(st.floats(1e-8, 4.0), min_size=1, max_size=5))
    ups.append(max(ups))
    w_lo, w_up = [], []
    for u in ups:
        for f in draw(st.lists(st.sampled_from([1.0, 0.5, 1e-3]) | st.floats(1e-6, 1.0),
                               min_size=1, max_size=3)):
            n = draw(st.integers(1, 40))
            w_lo += [u * f] * n
            w_up += [u] * n
    perm = draw(st.permutations(range(len(w_up))))
    return np.array(w_lo)[perm], np.array(w_up)[perm]


@settings(max_examples=150, deadline=None)
@given(w=weight_rows(), t=st.just(0.0) | st.floats(0.0, 64.0))
def test_row_kernel_agrees_with_mpmath(w, t):
    """log sum w^t over the table's distinct rows and counts, on each side,
    against the 50-digit sum over every edge."""
    wt = thermo.WeightTable(*w)
    log_lo, log_up, count, _ = wt.rows
    assert count.sum() == w[0].size
    for log_w, per_edge in [(log_lo, wt.w_lo), (log_up, wt.w_up)]:
        assert_near_mp(thermo._log_transfer(log_w, count, t), mp_log_sum_pow(per_edge, t),
                       t, log_w)


@st.composite
def long_rows(draw):
    """(log w, count): 500-3,000 rows, where numpy's pairwise summation
    splits the sum into blocks (past 128), so the order of the terms
    matters: log weights spread over `scale` with tied maxima, and counts
    all 1 or spread over [1, 1e6]."""
    n = draw(st.integers(500, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    log_w = rng.uniform(-1.0, 1.0, n) * draw(st.sampled_from([1.0, 10.0, 300.0, 1e4]))
    log_w[rng.choice(n, draw(st.integers(1, 5)), replace=False)] = log_w.max()
    count = np.ones(n) if draw(st.booleans()) else rng.uniform(1.0, 1e6, n)
    return log_w, count


@settings(max_examples=100, deadline=None)
@given(rows=long_rows(), t=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 4.0))
def test_row_kernel_agrees_with_mpmath_on_long_rows(rows, t):
    """The same kernel on long, wide-spread rows, against the 50-digit sum;
    the tolerance is ten times wider for the pairwise sum of up to 3,000
    terms."""
    log_w, count = rows
    with mpmath.workdps(50):
        exact = mpmath.log(mpmath.fsum(
            mpmath.mpf(float(c)) * mpmath.exp(mpmath.mpf(t) * mpmath.mpf(float(lw)))
            for lw, c in zip(log_w, count)))
    assert_near_mp(thermo._log_transfer(log_w, count, t), exact, t, log_w, eps=1e-14)


def replay_bisection(calls, hi, tol):
    """The dyadic bisection of [0, hi] that the recorded (t, value) calls
    drive, one midpoint per call; returns its final (a, b)."""
    a, b = 0.0, hi
    for t, value in calls:
        assert b - a > tol and t == 0.5 * (a + b)
        a, b = (t, b) if value >= 0 else (a, t)
    assert b - a <= tol
    return a, b


def test_bowen_dim_evaluates_each_side_at_its_own_roots_points(monkeypatch):
    """CF R = 5: the upper side is evaluated at the interval checks, at 0 and
    at the h_hi bisection's midpoints, the lower side at 0 and at the h_lo
    bisection's midpoints, each point once: 29 evaluations, where both sides
    at each of the 26 distinct points took 52."""
    sys_ = cd.build_cf_system(cd.heisenberg(1), cd.CfSystemParams(0.5, 5.0))
    calls = {"upper": [], "lower": []}
    inner = thermo._log_transfer
    log_up = thermo.ensure_weights(sys_).rows[1]

    def spy(log_w, count, t, *index):
        value = inner(log_w, count, t, *index)
        calls["upper" if log_w is log_up else "lower"].append((t, value))
        return value

    monkeypatch.setattr(thermo, "_log_transfer", spy)
    res = cd.bowen_dim(sys_, tol=1e-3)
    up, lo = calls["upper"], calls["lower"]
    assert [t for t, _ in up[:2]] == [4.0, 0.0] and up[0][1] <= 0 < up[1][1]
    assert lo[0][0] == 0.0 and lo[0][1] > 0
    assert replay_bisection(up[2:], 4.0, 5e-4)[1] == res.h_hi
    assert replay_bisection(lo[1:], 4.0, 5e-4)[0] == res.h_lo
    assert len(up) + len(lo) == res.iterations + 3 == 29
    for side in calls:
        assert len({t for t, _ in calls[side]}) == len(calls[side])
    assert (res.p_upper_at_h_hi, res.p_lower_at_h_lo) == (dict(up)[res.h_hi], dict(lo)[res.h_lo])


def test_bowen_dim_of_an_exact_table_evaluates_one_side(monkeypatch):
    sys_ = moran_system([0.3, 0.3, 0.4])
    sides = []
    inner = thermo._log_transfer
    log_up = thermo.ensure_weights(sys_).rows[1]
    monkeypatch.setattr(thermo, "_log_transfer", lambda log_w, count, t, *index: sides.append(
        "upper" if log_w is log_up else "lower") or inner(log_w, count, t, *index))
    res = cd.bowen_dim(sys_, tol=1e-9)
    assert set(sides) == {"upper"} and len(sides) == res.iterations / 2 + 2
    assert res.h_lo < res.h_hi and res.p_lower_at_h_lo >= 0 >= res.p_upper_at_h_hi


def two_map_cycle():
    """Maps of scale 0.9 and 0.1 that must alternate: rho = sqrt(0.9^t 0.1^t),
    a period-2 matrix far below its largest entry 0.9^t."""
    g = cd.heisenberg(1)
    return cd.build_self_similar(g, [(cd.gpoint([0.0, 0.0], [0.0]), 0.9),
                                     (cd.gpoint([3.0, 0.0], [0.0]), 0.1)],
                                 incidence=np.array([[0, 1], [1, 0]], bool))


def test_perron_stops_on_its_collatz_wielandt_gap():
    """The iteration on the two-map cycle converges slowly (rate about
    1 - 2 rho / sigma), so a stop on successive differences with an absolute
    floor returned P 1.6e-10 above (t/2) log 0.09 at t = 5 and 8.7e-6 above
    at t = 10.  The Collatz-Wielandt gap holds both to 1e-12 relative, and
    at t = 20, where the gap cannot close in POWER_MAX_ITER steps, there is
    no answer."""
    sys_ = two_map_cycle()
    for t in (5.0, 10.0):
        exact = 0.5 * t * math.log(0.09)
        assert abs(thermo.pressure_bracket(sys_, t).upper - exact) <= 1e-12 * abs(exact)
    with pytest.raises(NonConvergenceError):
        thermo.pressure_bracket(sys_, 20.0)


def reducible_system(ratios, incidence):
    """Similarities of the given ratios, 3 apart on the x axis, whose
    incidence leaves some edges outside the class of the largest growth."""
    g = cd.heisenberg(1)
    return cd.build_self_similar(g, [(cd.gpoint([3.0 * k, 0.0], [0.0]), r)
                                     for k, r in enumerate(ratios)],
                                 incidence=np.array(incidence, bool))


@pytest.mark.parametrize("ratios, incidence, log_rho", [
    ([0.5, 1 / 3], [[1, 1], [0, 0]], lambda t: t * math.log(0.5)),
    ([0.5, 1 / 3], [[1, 1], [0, 1]], lambda t: t * math.log(0.5)),
    ([0.5, 0.5, 1 / 3], [[1, 1, 1], [1, 1, 1], [0, 0, 1]],
     lambda t: math.log(2) + t * math.log(0.5)),
], ids=["edge-without-successor", "smaller-class", "two-classes"])
def test_reducible_incidence_takes_its_largest_class(ratios, incidence, log_rho):
    """Rows that reach no class of the largest growth keep the Collatz-Wielandt
    gap open over all rows, so the root is the largest among the strongly
    connected classes: 0.5^t from edge 0's loop (2 * 0.5^t from edges 0 and
    1), not the 3^-t of the last edge nor the 0 of an edge that ends every
    word.  At t = 0 the smaller class has equal growth (a Jordan block).
    Pressures and the Bowen bracket follow."""
    sys_ = reducible_system(ratios, incidence)
    for t in (0.0, 0.5, 1.0, 3.0, 50.0, 2000.0):
        pb = thermo.pressure_bracket(sys_, t)
        assert abs(pb.upper - log_rho(t)) <= 1e-15 * (1 + abs(log_rho(t)))
    res = cd.bowen_dim(sys_, tol=1e-9)
    root = -log_rho(0.0) / math.log(0.5) if log_rho(0.0) else 0.0
    assert res.h_lo <= root <= res.h_hi and res.h_hi - res.h_lo <= 1e-9


def random_five_edge_system():
    """Five similarities with ratios in [0.1, 0.6] on a seeded random
    incidence of density 0.4 that contains the cycle 0 -> 1 -> ... -> 0."""
    rng = np.random.default_rng(0)
    ratios = rng.uniform(0.1, 0.6, 5)
    A = rng.random((5, 5)) < 0.4
    A[np.arange(5), (np.arange(5) + 1) % 5] = True
    g = cd.heisenberg(1)
    return cd.build_self_similar(g, [(cd.gpoint([3.0 * k, 0.0], [0.0]), float(r))
                                     for k, r in enumerate(ratios)], incidence=A)


def mp_perron_log(M):
    """log rho of a nonnegative mpmath matrix: the closed form for 2 x 2,
    else the largest modulus among mp.eig's eigenvalues."""
    if M.rows == 2:
        tr, det = M[0, 0] + M[1, 1], M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        return mpmath.log((tr + mpmath.sqrt(tr * tr - 4 * det)) / 2)
    return mpmath.log(max(abs(e) for e in mpmath.eig(M, left=False, right=False)))


def mp_transfer_matrix(sys_, t):
    """The index-row transfer matrix at 50 digits, each float weight taken
    exactly: A_ab w_b^t for an explicit incidence, else the vertex matrix
    M_uv = sum of w^t over the edges u -> v."""
    w = [mpmath.mpf(float(x)) ** mpmath.mpf(t) for x in thermo.ensure_weights(sys_).w_up]
    if sys_.incidence is not None:
        n = sys_.n_edges
        return mpmath.matrix([[w[b] if sys_.incidence[a, b] else 0 for b in range(n)]
                              for a in range(n)])
    n = len(sys_.vertices)
    M = mpmath.zeros(n, n)
    for e in range(sys_.n_edges):
        M[int(sys_.src_idx[e]), int(sys_.dst_idx[e])] += w[e]
    return M


# (system, t) pairs with no answer: the largest weight lies on no cycle of
# the matrix's growth, so sigma = 0.05 max M is far above rho and the rate
# 1 - rho / sigma is too slow (t = 50), or every cycle's scaled weight
# exp(t (log w - log w_max)) underflows to 0 (t = 1100, 2000)
NO_PERRON_ANSWER = {("cycle", 50), ("cycle", 1100), ("cycle", 2000),
                    ("random5", 50), ("random5", 1100), ("random5", 2000)}


@pytest.mark.parametrize("t", [0, 0.5, 3, 50, 1100, 2000])
@pytest.mark.parametrize("name", ["fib2", "cycle", "hat", "random5"])
def test_multi_row_kernel_agrees_with_mpmath(name, t):
    """Several index rows: the scaled kernel against 50-digit Perron roots,
    to 1e-14 (1 + t |log w_max|), the rounding of t log w_max."""
    with mpmath.workdps(50):
        sys_ = {"fib2": fib2_system, "cycle": two_map_cycle, "random5": random_five_edge_system,
                "hat": lambda: separated_fib2_system().maximalize()}[name]()
        assert sys_._index[2].size > 2
        if (name, t) in NO_PERRON_ANSWER:
            with pytest.raises(NonConvergenceError):
                thermo.pressure_bracket(sys_, float(t))
            return
        P = thermo.pressure_bracket(sys_, float(t)).upper
        exact = mp_perron_log(mp_transfer_matrix(sys_, t))
        log_top = abs(math.log(thermo.ensure_weights(sys_).w_up.max()))
        assert abs(mpmath.mpf(P) - exact) <= 1e-14 * (1 + t * log_top), (P, float(exact))
