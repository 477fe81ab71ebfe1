"""The package's own logsumexp and Brent root finder (carnotdim.thermo).

Each is checked two ways: bit for bit against the library routines whose
arithmetic it follows (only where scipy is installed), and against an
mpmath oracle at 50 digits (always).
"""

import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carnotdim.errors import NonConvergenceError, ValidationError
from carnotdim import thermo
from carnotdim.thermo import _brentq as brentq, _logsumexp as logsumexp

mpmath.mp.dps = 50

finite = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@st.composite
def lse_inputs(draw):
    """(a, b): 1-40 values with repeated maxima, b None or >= 0 with zeros;
    one draw in four is long_lse_inputs instead."""
    if draw(st.integers(0, 3)) == 0:
        return draw(long_lse_inputs())
    a = draw(st.lists(finite, min_size=1, max_size=40))
    ties = draw(st.integers(0, 3))
    a = a + [max(a)] * ties
    a = draw(st.permutations(a))
    if draw(st.booleans()):
        return np.array(a), None
    b = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
                      min_size=len(a), max_size=len(a)))
    return np.array(a), np.array(b)


@st.composite
def long_lse_inputs(draw):
    """(a, b): 500-3,000 values, where numpy's pairwise summation splits the
    sum into blocks (past 128), so the order of the terms matters: values
    spread over `scale`, with tied maxima, some -inf entries, and b None or
    >= 0 with zeros (also at a maximum)."""
    n = draw(st.integers(500, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.uniform(-1.0, 1.0, n) * draw(st.sampled_from([1.0, 10.0, 300.0, 1e4]))
    a[rng.choice(n, draw(st.integers(1, 5)), replace=False)] = a.max()
    a[rng.choice(n, draw(st.integers(0, 50)), replace=False)] = -np.inf
    if draw(st.booleans()):
        return a, None
    b = rng.uniform(1e-6, 1e6, n)
    b[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    if draw(st.booleans()):
        b[np.argmax(a)] = 0.0
    return a, b


def _same_bits(x: float, y: float) -> bool:
    return repr(float(x)) == repr(float(y))


def _lse_oracle(a, b):
    b = np.ones_like(a) if b is None else b
    total = mpmath.fsum(mpmath.mpf(float(bk)) * mpmath.exp(mpmath.mpf(float(ak)))
                        for ak, bk in zip(a, b))
    return -math.inf if total == 0 else float(mpmath.log(total))


@settings(max_examples=300, deadline=None)
@given(lse_inputs())
def test_logsumexp_matches_library_bits(ab):
    special = pytest.importorskip("scipy.special")
    a, b = ab
    got = logsumexp(a, b)
    with np.errstate(all="ignore"):
        ref = special.logsumexp(a, b=b)
    if math.isnan(ref):
        # the library's direct sum takes 0 * exp(710) = NaN for b == 0
        assert got == _lse_oracle(a, b) == -math.inf
    else:
        assert _same_bits(got, ref)


@settings(max_examples=300, deadline=None)
@given(lse_inputs())
def test_logsumexp_matches_mpmath(ab):
    a, b = ab
    got, want = logsumexp(a, b), _lse_oracle(a, b)
    if math.isinf(want):
        assert got == want
    else:
        assert abs(got - want) <= 1e-14 * max(abs(want), 1.0)


@pytest.mark.parametrize("a, b", [
    ([3.5], None),
    ([-2.0], [0.25]),
    ([1.0, 1.0, 1.0], None),                      # all tied
    ([5.0, 0.0, 5.0], [1.0, 2.0, 3.0]),           # tied maxima with weights
    ([9.0, 1.0, 2.0], [0.0, 1.0, 1.0]),           # the max is switched off by b = 0
    ([1.0, 2.0], [0.0, 0.0]),                     # every b zero: log 0
    ([710.0, 1.0], [0.0, 0.0]),                   # ... and exp(a) overflows
    ([-np.inf, -np.inf], None),
    ([np.inf, 1.0], None),
    ([800.0, 799.0, -800.0], None),               # exp(a) overflows
    ([-800.0, -801.0], None),                     # exp(a) underflows
    ([], None),
], ids=["single", "single-b", "tied", "tied-b", "max-b-zero", "all-b-zero",
        "all-b-zero-overflow", "all-neginf", "posinf", "overflow", "underflow", "empty"])
def test_logsumexp_edge_cases(a, b):
    a = np.array(a, float)
    b = None if b is None else np.array(b, float)
    got = logsumexp(a, b)
    if a.size and np.isfinite(a).all():
        want = _lse_oracle(a, b)
        assert got == want or abs(got - want) <= 1e-14 * max(abs(want), 1.0)
    try:
        from scipy.special import logsumexp as ref
    except ImportError:
        return
    with np.errstate(all="ignore"):
        want = ref(a, b=b)
    if math.isnan(want):  # the library's 0 * exp(710)
        assert got == -math.inf
    else:
        assert _same_bits(got, want)


# ---------------------------------------------------------------------------
# Brent's method
# ---------------------------------------------------------------------------

moran_weights = st.lists(st.floats(1e-3, 0.99), min_size=2, max_size=20)


def _moran(w):
    logw = np.log(np.array(w))
    return lambda t: float(np.log(np.sum(np.exp(t * logw))))


def _moran_oracle(w):
    ws = [mpmath.mpf(x) for x in w]
    f = lambda t: mpmath.fsum(x ** t for x in ws) - 1
    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    while f(hi) > 0:
        hi *= 2
    return float(mpmath.findroot(f, (lo, hi), solver="anderson"))


def _moran_bracket(w):
    hi = 1.0
    while _moran(w)(hi) > 0:
        hi *= 2.0
    return hi


@settings(max_examples=200, deadline=None)
@given(moran_weights, st.sampled_from([1e-15, 1e-12, 1e-10, 1e-6, 1e-2]))
def test_brentq_moran_matches_library_bits(w, xtol):
    optimize = pytest.importorskip("scipy.optimize")
    f, hi = _moran(w), _moran_bracket(w)
    got = brentq(f, 0.0, hi, xtol=xtol)
    assert _same_bits(got, optimize.brentq(f, 0.0, hi, xtol=xtol))


@settings(max_examples=100, deadline=None)
@given(moran_weights)
def test_brentq_moran_matches_mpmath(w):
    f, hi = _moran(w), _moran_bracket(w)
    got, want = brentq(f, 0.0, hi, xtol=1e-15), _moran_oracle(w)
    assert abs(got - want) <= 1e-14 * max(abs(want), 1.0)


def _wavy(r, k):
    """Non-monotone, one sign change at r: (x - r)(1.5 + sin kx)."""
    return lambda x: (x - r) * (1.5 + math.sin(k * x))


@settings(max_examples=200, deadline=None)
@given(st.floats(-50, 50), st.floats(1, 40), st.floats(0.1, 20), st.floats(0.1, 20),
       st.sampled_from([1e-15, 1e-12, 1e-8]))
def test_brentq_non_monotone_matches_library_bits(r, k, left, right, xtol):
    optimize = pytest.importorskip("scipy.optimize")
    f = _wavy(r, k)
    got = brentq(f, r - left, r + right, xtol=xtol)
    assert _same_bits(got, optimize.brentq(f, r - left, r + right, xtol=xtol))


@settings(max_examples=200, deadline=None)
@given(st.floats(-50, 50), st.floats(1, 40), st.floats(0.1, 20), st.floats(0.1, 20))
def test_brentq_non_monotone_matches_mpmath(r, k, left, right):
    f = _wavy(r, k)
    got = brentq(f, r - left, r + right, xtol=1e-15)
    # the exact root is r; mpmath confirms f changes sign across the answer
    assert abs(got - r) <= 1e-14 * max(abs(r), 1.0)
    step = mpmath.mpf(1e-14) * max(abs(r), 1.0)
    fm = lambda x: (x - mpmath.mpf(r)) * (mpmath.mpf(1.5) + mpmath.sin(mpmath.mpf(k) * x))
    assert fm(mpmath.mpf(got) - step) < 0 < fm(mpmath.mpf(got) + step)


def test_brentq_several_roots_matches_library():
    f = lambda x: (x - 1.0) * (x - 2.0) * (x - 3.0)
    got = brentq(f, 0.0, 3.7, xtol=1e-14)
    assert min(abs(got - r) for r in (1.0, 2.0, 3.0)) <= 1e-13
    try:
        from scipy.optimize import brentq as ref
    except ImportError:
        return
    assert _same_bits(got, ref(f, 0.0, 3.7, xtol=1e-14))


@pytest.mark.parametrize("scale", [1e-300, 1e-310, 1e-320])
@pytest.mark.parametrize("shape, root", [
    (lambda x: (x - 3.0) ** 3, 3.0),
    (lambda x: x ** 5 - 7.0, 7.0 ** 0.2),
], ids=["cubic", "quintic"])
def test_brentq_underflowing_extrapolation(scale, shape, root):
    """Tiny values over a wide bracket: the extrapolation denominator
    underflows to 0, and the step falls back to bisection."""
    f = lambda x: scale * shape(x)
    got = brentq(f, -1e6, 1e7, xtol=1e-12)
    # f underflows to exactly 0 near the root; the answer lies there or
    # within the tolerance of the root
    assert f(got) == 0 or abs(got - root) <= 1e-11 * root
    try:
        from scipy.optimize import brentq as ref
    except ImportError:
        return
    assert _same_bits(got, ref(f, -1e6, 1e7, xtol=1e-12))


def test_brentq_endpoints_and_errors(monkeypatch):
    assert brentq(lambda x: x, 0.0, 1.0, xtol=1e-12) == 0.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-12) == 1.0
    with pytest.raises(ValidationError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)
    with pytest.raises(ValidationError, match="xtol"):
        brentq(lambda x: x, -1.0, 1.0, xtol=0.0)
    monkeypatch.setattr(thermo, "BRENT_MAX_ITER", 3)
    with pytest.raises(NonConvergenceError, match="3 iterations"):
        brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0, xtol=1e-300)
    with pytest.raises(NonConvergenceError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.3 else x - 0.5, 0.0, 1.0, xtol=1e-12)


def test_cli_import_leaves_scipy_out():
    code = "import sys, carnotdim.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)
    assert proc.stdout.strip() == b"False"
