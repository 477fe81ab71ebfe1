import warnings

import numpy as np
import pytest

import carnotdim as cd
from carnotdim import groups as G
from carnotdim.errors import PoleError, UnsupportedError, ValidationError


@pytest.fixture(scope="module")
def g():
    return cd.heisenberg(1)


def test_inversion_examples(g):
    J = cd.ConformalChain(g, [cd.Invert()])
    p = J.apply(cd.gpoint([2.0, 0.0], [0.0]))
    assert np.allclose(p.z, [0.5, 0.0]) and np.allclose(p.t, [0.0])
    q = J.apply(cd.gpoint([0.0, 0.0], [1.0]))
    assert np.allclose(q.z, 0.0) and np.allclose(q.t, [-1.0])


def test_inversion_involution_and_norm(g):
    rng = np.random.default_rng(0)
    J = cd.ConformalChain(g, [cd.Invert()])
    for _ in range(50):
        p = cd.gpoint(rng.normal(size=2), rng.normal(size=1))
        if cd.gauge_norm(g, p) < 0.1:
            continue
        Jp = J.apply(p)
        assert np.isclose(cd.gauge_norm(g, Jp), 1.0 / cd.gauge_norm(g, p))
        back = J.apply(Jp)
        assert np.allclose(back.z, p.z) and np.allclose(back.t, p.t)


def test_inversion_unsupported_on_quaternionic():
    hq = cd.quaternionic_heisenberg(1)
    with pytest.raises(UnsupportedError):
        cd.ConformalChain(hq, [cd.Invert()])


def test_similarity_chain_has_no_pole(g):
    c = cd.ConformalChain(g, [cd.Translate(cd.gpoint([1.0, 0.0], [0.0])),
                              cd.Dilate(0.5)])
    assert c.is_similarity
    assert c.pole is None
    assert c.n_inversions == 0
    p = cd.gpoint([0.2, 0.4], [0.1])
    assert np.isclose(c.deriv_norm_at(p), 0.5)


def test_chain_composition_order(g):
    """Primitives are listed outermost-first: chain = prims[0] o prims[1] o ..."""
    a = cd.gpoint([1.0, 0.0], [0.0])
    c = cd.ConformalChain(g, [cd.Translate(a), cd.Dilate(2.0)])
    p = cd.gpoint([0.5, 0.5], [0.0])
    expected = cd.group_mul(g, a, cd.dilate(g, 2.0, p))
    got = c.apply(p)
    assert np.allclose(got.z, expected.z) and np.allclose(got.t, expected.t)


def test_pole_and_rf_of_anchored_inversion(g):
    gamma = cd.gpoint([2.0, 1.0], [0.5])
    f = cd.ConformalChain(g, [cd.Invert(), cd.Translate(gamma)])
    # f(p) = J(gamma * p) blows up at gamma^{-1}
    pole = cd.group_inv(g, gamma)
    assert np.allclose(f.pole.z, pole.z) and np.allclose(f.pole.t, pole.t)
    assert f.n_inversions == 1
    with pytest.raises(PoleError):
        f.apply(f.pole)


def test_deriv_norm_matches_finite_differences(g):
    rng = np.random.default_rng(1)
    f = cd.ConformalChain(g, [cd.Invert(),
                              cd.Translate(cd.gpoint([2.0, 1.0], [0.5])),
                              cd.Dilate(0.8)])
    for _ in range(20):
        p = cd.gpoint(rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.5, 0.5, 1))
        want = f.deriv_norm_at(p)
        eps = 1e-6
        q = cd.group_mul(g, p, cd.gpoint([eps, 0.0], [0.0]))
        fd = cd.gauge_dist(g, f.apply(p), f.apply(q)) / cd.gauge_dist(g, p, q)
        assert abs(fd / want - 1.0) < 1e-3


@pytest.mark.parametrize("t0", [1e-3, 1e-40, 1e-80, 1.893e-143])
def test_r_f_of_nearly_cancelling_inversions(g, t0):
    """J o tau_(0,0,t0) o J has its pole at (0; 1/t0) and r_f = 1/t0: the fold
    reads r_f = 1 / ||tau(o)||^2 without evaluating the map, which cancels
    catastrophically next to that far pole."""
    c = cd.ConformalChain(g, [cd.Invert(), cd.Translate(cd.gpoint([0.0, 0.0], [t0])),
                              cd.Invert()])
    assert c.pole.t[0] * t0 == pytest.approx(1.0, rel=1e-12)
    assert c.r_f * t0 == pytest.approx(1.0, rel=1e-12)
    p = cd.gpoint([0.3, -0.2], [0.1])
    assert c.deriv_norm_at(p) == pytest.approx(
        c.r_f / cd.gauge_dist(g, p, c.pole) ** 2, rel=1e-12)


def test_r_f_of_a_pole_past_the_quartic_range(g):
    """J o tau_(0,z0;0) o J with z0 = 3.03e-81 has its pole at |z| = 1/z0
    ~ 3.3e80, where |z|^4 overflows: the gauge norm is rescaled there, so
    r_f = 1/z0^2 is found, and ||D phi(p)|| = r_f / d(p, a)^2 holds."""
    z0 = 3.03e-81
    c = cd.ConformalChain(g, [cd.Invert(), cd.Translate(cd.gpoint([0.0, z0], [0.0])),
                              cd.Invert()])
    assert c.r_f == pytest.approx(1.0892178326743561e161, rel=1e-12)
    assert c.r_f * z0 * z0 == pytest.approx(1.0, rel=1e-12)
    for p in (cd.gpoint([1.0, 0.0], [0.0]), cd.gpoint([0.3, -0.2], [0.1])):
        assert c.deriv_norm_at(p) == pytest.approx(
            c.r_f / cd.gauge_dist(g, p, c.pole) ** 2, rel=1e-12)


def test_r_f_of_a_pole_past_the_quartic_underflow(g):
    """J o tau_(0,1e-100;0) o J: ||x||^4 of the translation underflows, so the
    gauge norm is rescaled there and J divides t by |A| = hypot(|z|^2, t)
    twice: the pole lies at |z| = 1e100 and r_f = 1e200, with no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = cd.ConformalChain(g, [cd.Invert(), cd.Translate(cd.gpoint([0.0, 1e-100], [0.0])),
                                  cd.Invert()])
        assert c.pole is not None
        assert np.abs(c.pole.z).max() == pytest.approx(1e100, rel=1e-12)
        assert c.pole.t[0] == 0.0
        assert c.r_f == pytest.approx(1e200, rel=1e-12)
        p = cd.gpoint([0.3, -0.2], [0.1])
        assert c.deriv_norm_at(p) == pytest.approx(
            c.r_f / cd.gauge_dist(g, p, c.pole) ** 2, rel=1e-12)


def test_rotate_validation(g):
    # non-symplectic matrix must be rejected
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        cd.ConformalChain(g, [cd.Rotate(matrix=M)])
    c = cd.ConformalChain(g, [cd.Rotate(theta=0.3)])
    p = cd.gpoint([1.0, 0.0], [0.5])
    q = c.apply(p)
    assert np.isclose(cd.gauge_norm(g, q), cd.gauge_norm(g, p))
    assert np.allclose(q.t, p.t)


def test_invert_chain_roundtrip(g):
    f = cd.ConformalChain(g, [cd.Translate(cd.gpoint([0.5, -0.2], [0.1])),
                              cd.Dilate(0.6), cd.Rotate(theta=1.1)])
    finv = cd.invert_chain(f)
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = cd.gpoint(rng.normal(size=2), rng.normal(size=1))
        q = finv.apply(f.apply(p))
        assert np.allclose(q.z, p.z) and np.allclose(q.t, p.t)


def test_compose_matches_sequential_application(g):
    f = cd.ConformalChain(g, [cd.Invert(),
                              cd.Translate(cd.gpoint([2.0, 0.0], [0.0]))])
    h = cd.ConformalChain(g, [cd.Dilate(0.4)])
    c = cd.compose(f, h)
    p = cd.gpoint([0.3, 0.3], [0.2])
    want = f.apply(h.apply(p))
    got = c.apply(p)
    assert np.allclose(got.z, want.z) and np.allclose(got.t, want.t)
    many = cd.compose_all([f, h, h])
    want2 = f.apply(h.apply(h.apply(p)))
    got2 = many.apply(p)
    assert np.allclose(got2.z, want2.z) and np.allclose(got2.t, want2.t)


def test_chain_json_roundtrip(g):
    f = cd.ConformalChain(g, [cd.Invert(),
                              cd.Translate(cd.gpoint([1.0, 2.0], [3.0])),
                              cd.Dilate(0.25), cd.Rotate(theta=0.5)])
    obj = cd.chain_to_json(f)
    f2 = cd.chain_from_json(g, obj)
    p = cd.gpoint([0.1, -0.3], [0.2])
    a, b = f.apply(p), f2.apply(p)
    assert np.allclose(a.z, b.z) and np.allclose(a.t, b.t)
    # round-trip again through JSON text
    import json
    f3 = cd.chain_from_json(g, json.loads(json.dumps(obj)))
    c = f3.apply(p)
    assert np.allclose(a.z, c.z) and np.allclose(a.t, c.t)


def test_deriv_norm_many_strict_raises_near_pole(g):
    f = cd.ConformalChain(g, [cd.Invert()])
    Z = np.array([[0.0, 0.0], [1.0, 0.0]])
    T = np.array([[0.0], [0.0]])
    with pytest.raises(PoleError):
        f.deriv_norm_many(Z, T, strict=True)
