"""Reference answers computed without any carnotdim code.

Everything here uses only the standard library and numpy, so a defect in the
package cannot hide in its own oracle.  Conventions follow the package's
documented geometry: the first Heisenberg group is R^2 x R with gauge norm
||(z, t)|| = (|z|^4 + t^2)^(1/4), its integer lattice is Z^2 x Z, and the
Koranyi inversion J has ||DJ(x)|| = ||x||^-2.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np


# ---------------------------------------------------------------------------
# Roots of decreasing functions
# ---------------------------------------------------------------------------

def bisect_decreasing(f, tol: float = 1e-12, hi: float = 1.0) -> float:
    """Root of a decreasing f on [0, inf) with f(0) > 0, to width tol."""
    lo = 0.0
    while f(hi) > 0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            raise ArithmeticError("no sign change below 1e6")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log_sum_pow(log_w: np.ndarray, t: float, log_counts=None) -> float:
    """log sum_k c_k * w_k^t, evaluated stably."""
    x = t * np.asarray(log_w, float)
    if log_counts is not None:
        x = x + log_counts
    m = float(x.max())
    return m + math.log(float(np.exp(x - m).sum()))


def moran_root(log_w: np.ndarray, tol: float = 1e-12) -> float:
    """Root h of sum_e w_e^h = 1 (weights given as logs, all < 0)."""
    return bisect_decreasing(lambda t: log_sum_pow(log_w, t), tol)


def perron_root(M: np.ndarray, rtol: float = 1e-13, max_iter: int = 200_000) -> float:
    """Spectral radius of a nonnegative irreducible aperiodic matrix.

    Power iteration on M + I, stopped when the Collatz-Wielandt bounds
    min_i (Mv)_i / v_i <= rho <= max_i (Mv)_i / v_i agree to rtol.
    """
    M = np.asarray(M, float)
    v = np.ones(M.shape[0])
    for _ in range(max_iter):
        w = M @ v
        ratio = w / v
        lo, hi = float(ratio.min()), float(ratio.max())
        if hi - lo <= rtol * hi:
            return 0.5 * (lo + hi)
        v = w + v
        v /= v.max()
    raise ArithmeticError("power iteration did not converge")


def spectral_root(adj: np.ndarray, log_w: np.ndarray, tol: float = 1e-10) -> float:
    """Root h of rho(A diag(w^h)) = 1."""
    A = np.asarray(adj, float)
    return bisect_decreasing(
        lambda t: math.log(perron_root(A * np.exp(t * np.asarray(log_w))[None, :])),
        tol)


# ---------------------------------------------------------------------------
# Heisenberg lattice
# ---------------------------------------------------------------------------

def _t_count_below(cap: np.ndarray, strict: bool) -> np.ndarray:
    """Number of integers t with t^2 < cap (strict) or t^2 <= cap."""
    cap = np.asarray(cap, np.int64)
    r = np.floor(np.sqrt(np.maximum(cap, 0).astype(float))).astype(np.int64)
    # exact integer correction of the float square root
    r = np.where(r * r > cap, r - 1, r)
    r = np.where((r + 1) * (r + 1) <= cap, r + 1, r)
    if strict:
        r = np.where(r * r == cap, r - 1, r)
    out = 2 * r + 1
    return np.where(cap < (1 if strict else 0), 0, out)


def _z_norms4(r_max: float) -> np.ndarray:
    """|z|^4 for every z in Z^2 with |z| <= r_max."""
    k = int(math.ceil(r_max))
    x = np.arange(-k, k + 1, dtype=np.int64)
    z2 = (x[:, None] ** 2 + x[None, :] ** 2).ravel()
    return z2 * z2


def lattice_count_below(r: float) -> int:
    """#{gamma in Z^2 x Z : ||gamma|| < r}, exact for integer r."""
    r4 = r ** 4
    z4 = _z_norms4(r)
    if float(r4).is_integer():
        return int(_t_count_below(int(r4) - z4, strict=True).sum())
    # non-integer r^4: ||gamma||^4 < r4 iff N4 <= floor(r4)
    return int(_t_count_below(int(math.floor(r4)) - z4, strict=False).sum())


def lattice_norms(r_lo: float, r_hi: float) -> np.ndarray:
    """Sorted gauge norms of all lattice points with r_lo <= ||gamma|| <= r_hi."""
    k = int(math.ceil(r_hi))
    x = np.arange(-k, k + 1, dtype=np.int64)
    tmax = int(math.ceil(r_hi * r_hi))
    t = np.arange(-tmax, tmax + 1, dtype=np.int64)
    z2 = (x[:, None] ** 2 + x[None, :] ** 2).ravel()
    n4 = (z2[:, None] ** 2 + t[None, :] ** 2).ravel()
    keep = (n4 >= r_lo ** 4) & (n4 <= r_hi ** 4)
    return np.sort(n4[keep].astype(float) ** 0.25)


def cf_log_weights(norms: np.ndarray):
    """Certified per-letter derivative bounds of the continued-fraction maps
    x -> J(gamma * x) on B(o, 1/2): (||gamma|| +- 1/2)^-2, as logs (lo, up)."""
    return -2.0 * np.log(norms + 0.5), -2.0 * np.log(norms - 0.5)


def loglog_slope(x, y) -> float:
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    lx = lx - lx.mean()
    return float((lx * (ly - ly.mean())).sum() / (lx * lx).sum())


# ---------------------------------------------------------------------------
# Golden-mean shift
# ---------------------------------------------------------------------------

def golden_root() -> float:
    """Dimension of the golden-mean system: ratios 1/2 and 1/3 on A = [[1, 1], [1, 0]]."""
    return spectral_root(np.array([[1, 1], [1, 0]]), np.log([0.5, 1 / 3]), tol=1e-13)


def golden_words(n: int) -> int:
    """Number of words of length n in the shift with A = [[1, 1], [1, 0]]."""
    a, b = 1, 1  # F(1), F(2)
    for _ in range(n):
        a, b = b, a + b
    return b  # F(n + 2)


# ---------------------------------------------------------------------------
# CLI output formats
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(data: bytes) -> dict:
    """Parse JSON that must not contain NaN or Infinity."""
    return json.loads(data.decode(), parse_constant=_reject_constant)


def csv_rows(data: bytes):
    """(header, float rows) of a numeric CSV; every value must be finite."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    header, body = rows[0], rows[1:]
    if any(len(r) != len(header) for r in body):
        raise ValueError("ragged CSV")
    vals = np.array([[float(v) for v in r] for r in body], float)
    if vals.size and not np.isfinite(vals).all():
        raise ValueError("non-finite CSV value")
    return header, vals


def count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def ply_vertices(path) -> int:
    """Vertex count declared in an ASCII PLY header, checked against the body."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    declared = None
    for k, line in enumerate(lines):
        if line.startswith(b"element vertex "):
            declared = int(line.split()[-1])
        if line == b"end_header":
            body = [ln for ln in lines[k + 1:] if ln]
            if declared is None or any(len(ln.split()) != 3 for ln in body):
                raise ValueError("malformed PLY body")
            if len(body) != declared:
                raise ValueError(f"PLY declares {declared} vertices, has {len(body)}")
            return declared
    raise ValueError("PLY has no end_header")
