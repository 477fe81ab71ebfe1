"""Limit-set clouds in bounded memory: blocked chaos evaluation and grouped
word sampling against the one-shot and mask-loop forms they replace, and
the working set of the clouds and their exports."""

import os
import tracemalloc

import numpy as np
import pytest

import carnotdim as cd
from carnotdim import gdms
from carnotdim.cli import system_from_json

from conftest import MORAN4, fib2_system, moran_system, separated_fib2_system

GOLDEN_MARKOV = np.array([[0.3, 0.7], [1.0, 0.0]])


def mask_loop_words(sys_, depth, samples, rng, markov):
    """Chaos words drawn with one full-length `prev == a` mask per letter."""
    nE = sys_.n_edges
    words = np.empty((samples, depth), dtype=np.int64)
    if markov is None:
        words[:, 0] = rng.integers(0, nE, size=samples)
    else:
        words[:, 0] = rng.choice(nE, size=samples, p=gdms.stationary_distribution(markov))
    for j in range(1, depth):
        prev = words[:, j - 1]
        for a in np.flatnonzero(np.bincount(prev, minlength=nE)):
            mask = prev == a
            if markov is None:
                words[mask, j] = rng.choice(sys_.successors(a), size=int(mask.sum()))
            else:
                words[mask, j] = rng.choice(nE, size=int(mask.sum()), p=markov[int(a)])
    return words


def one_shot_chaos(sys_, words):
    """phi_w(anchor) of every word with one edge-table apply per position."""
    anchors = [v.anchor(sys_.group) for v in sys_.vertices]
    AZ, AT = np.stack([p.z for p in anchors]), np.stack([p.t for p in anchors])
    Z, T = AZ[sys_.dst_idx[words[:, -1]]], AT[sys_.dst_idx[words[:, -1]]]
    for j in range(words.shape[1] - 1, -1, -1):
        Z, T = sys_.table.apply(words[:, j], Z[:, None], T[:, None])
        Z, T = Z[:, 0], T[:, 0]
    return Z, T


CASES = {
    # CF templates include the Koranyi inversion
    "cf": (lambda: cd.build_cf_system(cd.heisenberg(1), cd.CfSystemParams(0.5, 4.0)), 4, None),
    "golden": (fib2_system, 10, None),
    "golden_markov": (fib2_system, 10, GOLDEN_MARKOV),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_chaos_cloud_matches_mask_loop_and_one_shot(kind):
    build, depth, markov = CASES[kind]
    sys_ = build()
    samples = gdms.EXPORT_BLOCK_ROWS + 3  # one full block and a partial one
    words = sys_._sample_words(depth, samples, np.random.default_rng(4), markov)
    want = mask_loop_words(sys_, depth, samples, np.random.default_rng(4), markov)
    assert words.dtype == np.int32 and np.array_equal(words, want)
    cloud = sys_.limit_set_cloud(depth, mode="chaos", samples=samples, seed=4, markov=markov)
    Z, T = one_shot_chaos(sys_, want)
    assert np.array_equal(cloud.Z, Z) and np.array_equal(cloud.T, T)
    assert len(cloud) == samples and (cloud.err == cloud.err[0]).all()


@pytest.mark.parametrize("block_rows", [1, 7, 4096])
def test_chaos_cloud_is_independent_of_the_block_size(block_rows, monkeypatch):
    sys_ = fib2_system()
    want = sys_.limit_set_cloud(9, mode="chaos", samples=1000, seed=8)
    monkeypatch.setattr(gdms, "EXPORT_BLOCK_ROWS", block_rows)
    cloud = sys_.limit_set_cloud(9, mode="chaos", samples=1000, seed=8)
    assert np.array_equal(cloud.Z, want.Z) and np.array_equal(cloud.T, want.T)


def test_deterministic_cloud_is_the_words_in_order():
    """Level by level with the last level written in place: the points are
    phi_w(anchor) of the admissible words in lexicographic order.  Successors
    are concatenated once per index row and level: an edge each on fib2's
    explicit incidence, one row on a Moran IFS, a row per vertex on a hat
    system, whose edges of one row are not adjacent."""
    for sys_ in (fib2_system(), moran_system([0.5, 0.3, 0.2]),
                 separated_fib2_system().maximalize()):
        for depth in (1, 2, 7):
            words = np.array(list(sys_.admissible_words(depth)))
            cloud = sys_.limit_set_cloud(depth)
            Z, T = one_shot_chaos(sys_, words)
            assert np.array_equal(cloud.Z, Z) and np.array_equal(cloud.T, T)


def test_deterministic_cloud_skips_an_edge_nothing_may_follow():
    """Edge 1 has an empty incidence row, so it ends no word longer than one
    letter; the cloud once failed to concatenate its empty block."""
    g = cd.heisenberg(1)
    sys_ = cd.build_self_similar(g, [(cd.gpoint([0.0, 0.0], [0.0]), 0.5),
                                     (cd.gpoint([1.0, 0.0], [0.0]), 1.0 / 3.0)],
                                 incidence=np.array([[1, 1], [0, 0]], bool))
    for depth in (1, 2, 4):
        words = np.array(list(sys_.admissible_words(depth)))
        cloud = sys_.limit_set_cloud(depth)
        Z, T = one_shot_chaos(sys_, words)
        assert np.array_equal(cloud.Z, Z) and np.array_equal(cloud.T, T)


def test_chaos_cloud_of_no_samples():
    cloud = fib2_system().limit_set_cloud(5, mode="chaos", samples=0)
    assert cloud.Z.shape == (0, 2) and cloud.T.shape == (0, 1) and len(cloud.err) == 0


@pytest.mark.parametrize("kwargs, error", [
    ({"samples": -5}, cd.ValidationError),
    ({"seed": -1}, cd.ValidationError),
    ({"samples": 3_000_000_000}, cd.BudgetError),
    ({"samples": 11, "budget": 10}, cd.BudgetError),
])
def test_chaos_cloud_rejects_bad_sizes_before_drawing(kwargs, error):
    with pytest.raises(error):
        fib2_system().limit_set_cloud(5, mode="chaos", **kwargs)


def traced_peak(call):
    """Peak traced bytes of call() above what was traced when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_working_set_is_the_cloud_plus_one_block(tmp_path):
    """moran4 at depth 8 (65,536 points): the writers hold one block of
    rows, not a stacked copy of the cloud (≈16 MB for the CSV), and a chaos
    cloud holds its 2 MB of coordinates and err and 2 MB of int32 words."""
    sys_ = system_from_json(MORAN4)
    cloud = sys_.limit_set_cloud(8)
    assert len(cloud) == 65536

    def csv():
        with open(os.devnull, "w") as fh:
            cloud.write_csv(fh)
    assert traced_peak(csv) <= 2 * 2 ** 20
    assert traced_peak(lambda: cloud.to_ply(tmp_path / "c.ply")) <= 2 * 2 ** 20
    chaos = lambda: sys_.limit_set_cloud(8, mode="chaos", samples=65536, seed=3)
    assert traced_peak(chaos) <= 6 * 2 ** 20
