"""Dimension comparison between the gauge metric and the Euclidean metric.

A graded nilpotent group of step iota with layer dimensions m_1, ..., m_iota
(total topological dimension N, homogeneous dimension Q = sum j*m_j) admits
sharp piecewise-linear comparison functions beta_-, beta_+ such that any set
of gauge Hausdorff dimension alpha has Euclidean dimension in
[beta_-^{-1}..], more precisely

    beta_-(dim_E) <= dim_gauge and dim_gauge <= beta_+(dim_E)

is inverted here as: dim_E in [beta_+^{-1}(alpha), beta_-^{-1}(alpha)] and
conversely dim_gauge in [beta_-(alpha_E), beta_+(alpha_E)].

Both functions are continuous, piecewise linear with integer breakpoints in
the cumulative layer dimensions, strictly increasing, and satisfy the
duality beta_+(N - alpha) = Q - beta_-(alpha).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .errors import ValidationError


def _layers(m: Sequence[int]) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 1 or m.size == 0 or (m <= 0).any() or (m != np.round(m)).any():
        raise ValidationError("layer dimensions must be positive integers")
    return m


def homogeneous_dim(m: Sequence[int]) -> float:
    m = _layers(m)
    return float((np.arange(1, m.size + 1) * m).sum())


def topological_dim(m: Sequence[int]) -> float:
    return float(_layers(m).sum())


def beta_minus(alpha, m: Sequence[int]):
    """Lower comparison function: fills layers from the first (slope j grows).

    beta_-(alpha) = sum_{j<=l} j*m_j + (l+1)(alpha - sum_{j<=l} m_j) on the
    piece where the cumulative layer count sum_{j<=l} m_j < alpha <=
    sum_{j<=l+1} m_j.
    """
    m = _layers(m)
    alpha = np.asarray(alpha, float)
    N = m.sum()
    if (alpha < -1e-12).any() or (alpha > N + 1e-12).any():
        raise ValidationError(f"alpha must lie in [0, {N:g}]")
    alpha = np.clip(alpha, 0.0, N)
    cum = np.concatenate([[0.0], np.cumsum(m)])          # cum[l] = sum_{j<=l} m_j
    wcum = np.concatenate([[0.0], np.cumsum(np.arange(1, m.size + 1) * m)])
    # piece index l: largest l with cum[l] < alpha (l = 0 when alpha == 0)
    l = np.clip(np.searchsorted(cum, alpha, side="left") - 1, 0, m.size - 1)
    out = wcum[l] + (l + 1) * (alpha - cum[l])
    return out if out.ndim else float(out)


def beta_plus(alpha, m: Sequence[int]):
    """Upper comparison function: fills layers from the last (slope shrinks).

    beta_+ is dual to beta_-: beta_+(alpha) = Q - beta_-(N - alpha).  It is
    evaluated directly (layers consumed from the top, slope iota - l on the
    piece where the last l layers are full) so the closed forms are exact in
    floating point rather than exact up to a reflection round-off.
    """
    m = _layers(m)
    iota = m.size
    N = m.sum()
    alpha = np.asarray(alpha, float)
    if (alpha < -1e-12).any() or (alpha > N + 1e-12).any():
        raise ValidationError(f"alpha must lie in [0, {N:g}]")
    alpha = np.clip(alpha, 0.0, N)
    mr = m[::-1]
    rcum = np.concatenate([[0.0], np.cumsum(mr)])      # dims of the top l layers
    rwcum = np.concatenate([[0.0], np.cumsum(np.arange(iota, 0, -1) * mr)])
    l = np.clip(np.searchsorted(rcum, alpha, side="left") - 1, 0, iota - 1)
    out = rwcum[l] + (iota - l) * (alpha - rcum[l])
    return out if out.ndim else float(out)


def _piecewise_inverse(beta, y, m) -> np.ndarray:
    """Invert a strictly increasing piecewise-linear comparison function."""
    m = _layers(m)
    N = m.sum()
    y = np.asarray(y, float)
    Q = homogeneous_dim(m)
    if (y < -1e-12).any() or (y > Q + 1e-12).any():
        raise ValidationError(f"value must lie in [0, {Q:g}]")
    y = np.clip(y, 0.0, Q)
    # beta_- breaks at the cumulative layer dimensions, beta_+ at their
    # reflections N - cum; the union covers both piecewise-linear functions
    cum = np.concatenate([[0.0], np.cumsum(m)])
    xs = np.array(sorted(set(cum.tolist() + (N - cum).tolist())))
    ys = np.asarray(beta(xs, m), float)
    return np.interp(y, ys, xs)


def beta_minus_inv(y, m: Sequence[int]):
    out = _piecewise_inverse(beta_minus, y, m)
    return out if out.ndim else float(out)


def beta_plus_inv(y, m: Sequence[int]):
    out = _piecewise_inverse(beta_plus, y, m)
    return out if out.ndim else float(out)


def euclidean_dim_bounds(alpha_gauge, m: Sequence[int]) -> Tuple:
    """[beta_+^{-1}(alpha), beta_-^{-1}(alpha)]: Euclidean-dimension bracket of a
    set with gauge dimension alpha_gauge."""
    lo = beta_plus_inv(alpha_gauge, m)
    hi = beta_minus_inv(alpha_gauge, m)
    return lo, hi


def gauge_dim_bounds(alpha_euclid, m: Sequence[int]) -> Tuple:
    """[beta_-(alpha), beta_+(alpha)]: gauge-dimension bracket of a set with
    Euclidean dimension alpha_euclid."""
    return beta_minus(alpha_euclid, m), beta_plus(alpha_euclid, m)
