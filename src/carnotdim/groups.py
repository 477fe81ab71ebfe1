"""Step-2 Carnot group arithmetic, gauge metric, and integer-lattice operations.

A step-2 Carnot group is coordinatized as R^{m1} x R^{m2} with product

    (z, t) * (w, s) = (z + w, t + s + ((B^i z) . w)_{i=1..m2})

for skew-symmetric structure matrices B^1..B^{m2}.  The complex and
quaternionic Heisenberg groups are the special cases carrying the gauge
metric d(p, q) = ||p^{-1} * q|| with ||(z; t)|| = (|z|^4 + |t|^2)^{1/4},
which is a genuine metric there (Iwasawa groups); on other step-2 groups
the same expression is only a quasi-norm and metric axioms are not assumed.
"""

from __future__ import annotations

import itertools
import math
import mmap
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np

from .errors import BudgetError, UnsupportedError, ValidationError

DEFAULT_LATTICE_BUDGET = 200_000_000
# largest Heisenberg rank n: Heis^n_H's structure matrices hold 3 (4n)^2
# floats, 1.5 MB at n = 64, and no lattice scan reaches dimensions this high
MAX_HEISENBERG_RANK = 64


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """Immutable description of a step-2 Carnot group."""

    m1: int
    m2: int
    B: np.ndarray  # shape (m2, m1, m1), each slice skew-symmetric
    iwasawa_kind: Optional[str] = None  # None | "heis_c" | "heis_q"
    n: Optional[int] = None  # Heisenberg rank when iwasawa_kind is set
    integer_structure: bool = False
    # (i, a, b, B[i, a, b]) over the nonzero structure constants, in index order
    B_terms: Tuple[Tuple[int, int, int, float], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.m1 < 1 or self.m2 < 1:
            raise ValidationError("m1 and m2 must be >= 1")
        B = np.asarray(self.B, dtype=np.float64)
        if B.shape != (self.m2, self.m1, self.m1):
            raise ValidationError(
                f"structure matrices must have shape ({self.m2},{self.m1},{self.m1}), "
                f"got {B.shape}")
        if not np.isfinite(B).all():
            raise ValidationError("structure matrices must be finite")
        for i in range(self.m2):
            if not np.array_equal(B[i].T, -B[i]):
                raise ValidationError(f"structure matrix B^{i+1} is not skew-symmetric")
        object.__setattr__(self, "B", _readonly(B))
        nz = np.nonzero(B)
        object.__setattr__(self, "B_terms", tuple(zip(*(a.tolist() for a in nz),
                                                      B[nz].tolist())))
        object.__setattr__(self, "integer_structure",
                           bool(np.array_equal(B, np.round(B))))
        if self.iwasawa_kind == "heis_c":
            if self.n is None or self.m1 != 2 * self.n or self.m2 != 1:
                raise ValidationError("complex Heisenberg requires m1=2n, m2=1")
        elif self.iwasawa_kind == "heis_q":
            if self.n is None or self.m1 != 4 * self.n or self.m2 != 3:
                raise ValidationError("quaternionic Heisenberg requires m1=4n, m2=3")
        elif self.iwasawa_kind is not None:
            raise ValidationError(f"unknown iwasawa_kind {self.iwasawa_kind!r}")

    @property
    def Q(self) -> int:
        """Homogeneous dimension m1 + 2*m2."""
        return self.m1 + 2 * self.m2

    @property
    def N(self) -> int:
        """Topological dimension m1 + m2."""
        return self.m1 + self.m2

    @property
    def is_iwasawa(self) -> bool:
        return self.iwasawa_kind is not None

    def __repr__(self):
        kind = self.iwasawa_kind or "step2"
        return f"GroupSpec({kind}, m1={self.m1}, m2={self.m2})"


def _check_rank(n: int):
    if not 1 <= n <= MAX_HEISENBERG_RANK:
        raise ValidationError(f"Heisenberg rank n must be in [1, {MAX_HEISENBERG_RANK}], got {n}")


def heisenberg(n: int = 1) -> GroupSpec:
    """Complex Heisenberg group Heis^n in real coordinates (x_1..x_n, y_1..y_n; t)."""
    _check_rank(n)
    eye = np.eye(n)
    B = np.zeros((1, 2 * n, 2 * n))
    B[0, :n, n:] = 2 * eye
    B[0, n:, :n] = -2 * eye
    return GroupSpec(m1=2 * n, m2=1, B=B, iwasawa_kind="heis_c", n=n)


def quaternionic_heisenberg(n: int = 1) -> GroupSpec:
    """Quaternionic Heisenberg group Heis^n_H, coordinates (x, y, z, w; t, u, v)."""
    _check_rank(n)
    eye = np.eye(n)
    B = np.zeros((3, 4 * n, 4 * n))

    def put(i, row, col, sign):
        B[i, row * n:(row + 1) * n, col * n:(col + 1) * n] = 2 * sign * eye

    # t'' = t + t' + 2(x'.y - x.y' + w'.z - w.z')  =>  B^1 p = (2y, -2x, -2w, 2z)
    put(0, 0, 1, +1); put(0, 1, 0, -1); put(0, 2, 3, -1); put(0, 3, 2, +1)
    # u'' = u + u' + 2(x'.z - x.z' + y'.w - y.w')  =>  B^2 p = (2z, 2w, -2x, -2y)
    put(1, 0, 2, +1); put(1, 1, 3, +1); put(1, 2, 0, -1); put(1, 3, 1, -1)
    # v'' = v + v' + 2(x'.w - x.w' + z'.y - z.y')  =>  B^3 p = (2w, -2z, 2y, -2x)
    put(2, 0, 3, +1); put(2, 1, 2, -1); put(2, 2, 1, +1); put(2, 3, 0, -1)
    return GroupSpec(m1=4 * n, m2=3, B=B, iwasawa_kind="heis_q", n=n)


def step2(B_list) -> GroupSpec:
    """Generic step-2 group from a list of m2 skew-symmetric m1 x m1 matrices."""
    B = np.asarray(B_list, dtype=np.float64)
    if B.ndim == 2:
        B = B[None, :, :]
    if B.ndim != 3:
        raise ValidationError("B must be a matrix or a list of matrices")
    return GroupSpec(m1=B.shape[1], m2=B.shape[0], B=B)


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

class _Infinity:
    """Tagged point at infinity.  Valid only in cross ratios and pole contexts."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "GPoint(infinity)"


INFINITY = _Infinity()


def is_infinity(p) -> bool:
    return p is INFINITY or isinstance(p, _Infinity)


@dataclass(frozen=True, eq=False)
class GPoint:
    """A group element: horizontal part z (length m1) and vertical part t (length m2)."""

    z: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=np.float64))
        t = np.atleast_1d(np.asarray(self.t, dtype=np.float64))
        if z.ndim != 1 or t.ndim != 1:
            raise ValidationError("GPoint coordinates must be 1-d")
        if not (np.isfinite(z).all() and np.isfinite(t).all()):
            raise ValidationError("GPoint coordinates must be finite")
        object.__setattr__(self, "z", _readonly(z))
        object.__setattr__(self, "t", _readonly(t))

    def __repr__(self):
        zs = ",".join(f"{v:g}" for v in self.z)
        ts = ",".join(f"{v:g}" for v in self.t)
        return f"GPoint({zs};{ts})"


def gpoint(z, t) -> GPoint:
    return GPoint(np.atleast_1d(np.asarray(z, float)), np.atleast_1d(np.asarray(t, float)))


def origin(g: GroupSpec) -> GPoint:
    return GPoint(np.zeros(g.m1), np.zeros(g.m2))


@dataclass(frozen=True, eq=False)
class LatticePoint:
    """An integer-lattice element; only meaningful when integer_structure holds."""

    z: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z))
        t = np.atleast_1d(np.asarray(self.t))
        if not (np.issubdtype(z.dtype, np.integer) and np.issubdtype(t.dtype, np.integer)):
            raise ValidationError("LatticePoint coordinates must be integers")
        z = z.astype(np.int64); t = t.astype(np.int64)
        z.setflags(write=False); t.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", t)

    def to_gpoint(self) -> GPoint:
        return GPoint(self.z.astype(float), self.t.astype(float))

    def __repr__(self):
        zs = ",".join(str(int(v)) for v in self.z)
        ts = ",".join(str(int(v)) for v in self.t)
        return f"LatticePoint({zs};{ts})"


def _check_point(g: GroupSpec, p: GPoint, name="point"):
    if is_infinity(p):
        raise ValidationError(f"{name} may not be the point at infinity here")
    if p.z.shape != (g.m1,) or p.t.shape != (g.m2,):
        raise ValidationError(
            f"{name} has shape ({p.z.shape[0]},{p.t.shape[0]}), "
            f"group expects ({g.m1},{g.m2})")


# ---------------------------------------------------------------------------
# Batched core (arrays Z of shape (..., m1), T of shape (..., m2))
# ---------------------------------------------------------------------------

def mul_many(g: GroupSpec, Z1, T1, Z2, T2):
    """Batched group product; broadcasts over leading axes."""
    Z1 = np.asarray(Z1, float); Z2 = np.asarray(Z2, float)
    T1 = np.asarray(T1, float); T2 = np.asarray(T2, float)
    Z = Z1 + Z2
    # (B^i z) . w = sum_{a,b} B[i,a,b] z_b w_a over the nonzero B[i,a,b] only,
    # added term by term in index order: a three-operand einsum's sums, to the bit
    bil = np.zeros(Z.shape[:-1] + (g.m2,))
    for i, a, b, v in g.B_terms:
        bil[..., i] += v * Z1[..., b] * Z2[..., a]
    T = T1 + T2 + bil
    return Z, T


def dilate_many(g: GroupSpec, r, Z, T):
    Z = np.asarray(Z, float); T = np.asarray(T, float)
    r = np.asarray(r, float)
    if r.ndim:
        return r[..., None] * Z, (r * r)[..., None] * T
    return r * Z, (r * r) * T


NORM_TINY = 2.0 ** -255  # from here on |z|^4 + |t|^2 >= 2^-1020 is a normal float


def norm_many(g: GroupSpec, Z, T):
    """Gauge norms (|z|^4 + |t|^2)^{1/4}.  Where that overflows (|z| > ~1e77)
    or falls below NORM_TINY (|z|^4 + |t|^2 subnormal or 0, |z| < ~1e-77) on
    finite coordinates, not all zero, s ||(z / s; t / s^2)||, s = max(|z_i|,
    sqrt |t_j|), so that every result in [NORM_TINY, inf) is the plain
    formula's, to the bit."""
    Z = np.asarray(Z, float); T = np.asarray(T, float)
    with np.errstate(over="ignore"):
        z2 = np.einsum("...i,...i->...", Z, Z)
        norm = (z2 * z2 + np.einsum("...i,...i->...", T, T)) ** 0.25
    bad = ~((NORM_TINY <= norm) & (norm < np.inf))  # NaN is bad too
    if not bad.any():
        return norm[()]
    norm = np.array(norm)
    Zb, Tb = (np.broadcast_to(X, norm.shape + X.shape[-1:])[bad] for X in (Z, T))
    s = np.maximum(np.abs(Zb).max(axis=-1), np.sqrt(np.abs(Tb).max(axis=-1)))
    ok = np.isfinite(s) & (s > 0)  # inf, NaN or zero coordinates keep their norm
    vals, s = norm[bad], s[ok, None]
    with np.errstate(over="ignore"):
        vals[ok] = s[:, 0] * norm_many(g, Zb[ok] / s, Tb[ok] / s / s)
    norm[bad] = vals
    return norm[()]


def inverse_square(r, d):
    """r / d^2 (a derivative bound r_f / d(p, pole)^2) without a RuntimeWarning:
    0 where d^2 passes the float range, as a finite norm_many may, inf at 0."""
    with np.errstate(over="ignore", divide="ignore"):
        return r / (d * d)


def dist_many(g: GroupSpec, Z1, T1, Z2, T2):
    Zi, Ti = mul_many(g, -np.asarray(Z1, float), -np.asarray(T1, float), Z2, T2)
    return norm_many(g, Zi, Ti)


# ---------------------------------------------------------------------------
# Point-level operations
# ---------------------------------------------------------------------------

def group_mul(g: GroupSpec, p: GPoint, q: GPoint) -> GPoint:
    """Group product p * q."""
    _check_point(g, p, "p"); _check_point(g, q, "q")
    Z, T = mul_many(g, p.z, p.t, q.z, q.t)
    return GPoint(Z, T)


def group_inv(g: GroupSpec, p: GPoint) -> GPoint:
    """Group inverse, the Euclidean negative."""
    _check_point(g, p, "p")
    return GPoint(-p.z, -p.t)


def dilate(g: GroupSpec, r: float, p: GPoint) -> GPoint:
    """Group dilation delta_r(z; t) = (r z; r^2 t)."""
    if not (np.isfinite(r) and r > 0):
        raise ValidationError(f"dilation factor must be positive and finite, got {r}")
    _check_point(g, p, "p")
    return GPoint(r * p.z, r * r * p.t)


def gauge_norm(g: GroupSpec, p: GPoint) -> float:
    """Gauge (Koranyi) norm (|z|^4 + |t|^2)^{1/4}."""
    _check_point(g, p, "p")
    return float(norm_many(g, p.z, p.t))


def gauge_dist(g: GroupSpec, p: GPoint, q: GPoint) -> float:
    """Gauge distance ||p^{-1} * q||; a metric on Iwasawa groups."""
    _check_point(g, p, "p"); _check_point(g, q, "q")
    return float(dist_many(g, p.z, p.t, q.z, q.t))


def cross_ratio(g: GroupSpec, p1, p2, p3, p4) -> float:
    """Cross ratio [p1:p2:p3:p4] = d(p1,p3) d(p2,p4) / (d(p1,p4) d(p2,p3)).

    Any one argument may be the tagged point at infinity; distances
    involving it are deleted from the formula.  Conventions: a/0 = +inf,
    a/+inf = 0.  More than two coincident points is an error.
    """
    pts = [p1, p2, p3, p4]
    n_inf = sum(is_infinity(p) for p in pts)
    if n_inf > 1:
        raise ValidationError("at most one cross-ratio argument may be infinity")
    for p in pts:
        if not is_infinity(p):
            _check_point(g, p)

    def d(a, b):
        if is_infinity(a) or is_infinity(b):
            return None  # deleted factor
        return gauge_dist(g, a, b)

    # Reject configurations with three or more coincident finite points.
    finite = [p for p in pts if not is_infinity(p)]
    for i in range(len(finite)):
        coincident = 1
        for j in range(len(finite)):
            if j != i and gauge_dist(g, finite[i], finite[j]) == 0.0:
                coincident += 1
        if coincident > 2:
            raise ValidationError("more than two coincident points in cross ratio")

    num_terms = [d(p1, p3), d(p2, p4)]
    den_terms = [d(p1, p4), d(p2, p3)]
    num = math.prod(v for v in num_terms if v is not None)
    den = math.prod(v for v in den_terms if v is not None)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


# ---------------------------------------------------------------------------
# Integer lattice
# ---------------------------------------------------------------------------

def lattice_A2(g: GroupSpec) -> float:
    """Max gauge norm over the unit coordinate box K0 = [-1/2, 1/2]^{m1+m2}.

    The gauge norm is monotone in |z| and |t| separately, so the maximum
    over the box is attained at a corner; corner enumeration is exact.
    """
    z2 = g.m1 * 0.25
    t2 = g.m2 * 0.25
    return (z2 * z2 + t2) ** 0.25


def lattice_A1(g: GroupSpec) -> float:
    """Minimum nonzero gauge norm on the integer lattice (1 for Iwasawa groups)."""
    if not g.integer_structure:
        raise UnsupportedError("group has no integer structure")
    Z, T = _lattice_points(g, 0.0, np.nextafter(1.0, 2.0), DEFAULT_LATTICE_BUDGET)
    norms = norm_many(g, Z.astype(float), T.astype(float))
    nz = norms[norms > 0]
    return float(nz.min()) if nz.size else 1.0


def _round_half_toward_zero(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, float)
    return np.where(x >= 0, np.ceil(x - 0.5), np.floor(x + 0.5))


def lattice_round(g: GroupSpec, p: GPoint) -> LatticePoint:
    """Nearest lattice point in the tiling sense: p lies in gamma * K0.

    Rounds z componentwise (ties toward zero), then picks each t-component
    so that |t_i - (B^i gamma_z).(z - gamma_z) - gamma_t_i| <= 1/2.
    Guarantees gauge_dist(p, gamma) <= A2.
    """
    if not g.integer_structure:
        raise UnsupportedError("lattice_round requires integral structure matrices")
    _check_point(g, p, "p")
    gz = _round_half_toward_zero(p.z)
    w = p.z - gz
    shift = np.einsum("iab,b,a->i", g.B, gz, w)
    gt = _round_half_toward_zero(p.t - shift)
    return LatticePoint(gz.astype(np.int64), gt.astype(np.int64))


def _int_box(m: int, b: int) -> np.ndarray:
    """All int32 vectors x in Z^m with |x_j| <= b < 2^31, in lexicographic order."""
    rng = np.arange(-b, b + 1, dtype=np.int32)
    grids = np.meshgrid(*([rng] * m), indexing="ij")
    return np.stack([grid.ravel() for grid in grids], axis=-1)


def _mapped_zeros(n: int, m: int) -> np.ndarray:
    """An (n, m) int32 array of zeros in its own private anonymous memory map.

    Lattice point arrays run to hundreds of MB and live for one call.  Had
    they come from malloc, glibc would raise its mmap threshold after each
    release and put the next ones on its heap, where a freed array stays
    resident; the peak memory of a call would then depend on the sizes of
    the calls before it.  A map of its own goes back to the system when the
    array is released, and starts zeroed.  Like numpy's own large arrays it
    asks for huge pages, which makes first touch several times cheaper.
    """
    if n * m == 0:
        return np.zeros((n, m), dtype=np.int32)
    buf = mmap.mmap(-1, 4 * n * m, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):  # Linux only
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=np.int32).reshape(n, m)


def _isqrt(n) -> np.ndarray:
    """floor(sqrt(n)) elementwise for an integer array 0 <= n < 2**53.

    n converts to float64 exactly and sqrt rounds correctly, hence
    monotonically, so the float root of n is never below k = floor(sqrt(n)),
    a double no larger than sqrt(n), and at most k + 1; the correction
    s -= s*s > n removes the k + 1.  It is needed only from n = 2**50 on.
    For n < 2**50, k + 1 <= 2**25, and since n <= (k + 1)**2 - 1,

        (k + 1) - sqrt(n) >= 1 / (k + 1 + sqrt((k + 1)**2 - 1))
                           > 1 / (2 (k + 1)) >= 2**-26,

    while sqrt(n) < 2**25, where doubles are at most 2**-28 apart, so
    rounding moves it by at most 2**-29 and the float root stays below
    k + 1.  The pass is skipped when the largest n is below 2**50.
    """
    n = np.asarray(n, dtype=np.int64)
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    if n.max(initial=0) >= 1 << 50:
        s -= s * s > n
    return s


def _key_range(r_lo: float, r_hi: float):
    """Integer keys [L, H) of the shell r_lo <= norm < r_hi.

    A lattice point belongs to the shell exactly when its key
    N = |z|^4 + |t|^2 satisfies r_lo^4 <= N < r_hi^4 in floating point; N is
    an integer below 2^53, so this is L <= N < H with L, H the ceilings.
    """
    if r_lo < 0 or r_hi <= r_lo:
        raise ValidationError("need 0 <= r_lo < r_hi")
    lo4 = r_lo ** 4
    hi4 = r_hi ** 4
    if hi4 >= 2.0 ** 53:
        raise ValidationError(f"r_hi = {r_hi:g} is too large for exact integer norm keys")
    return math.ceil(lo4), math.ceil(hi4)


def check_lattice_scan(g: GroupSpec, r_hi: float, budget: int):
    """Raise the error of a lattice scan of norms below r_hi before it
    starts; return the half-widths (zmax, tmax) of its bounding box
    |z_j| <= zmax, |t_j| <= tmax.

    A tmax of 2^31 or more is a ValidationError at any budget: the points
    are stored in int32.  The cost, monotone in r_hi, is the size of the
    box when m2 == 1.  When m2 > 1 the scan visits only the z box, the t
    box and the points themselves, so it is their sum; the points of the
    ball are counted in closed form (_count_keys_below), and only once the
    two boxes fit the budget, which bounds the work of the count.
    """
    zmax = max(int(math.ceil(r_hi)) - 1, 0)
    tmax = max(int(math.ceil(r_hi * r_hi)) - 1, 0)
    if tmax >= 1 << 31:
        raise ValidationError(f"r_hi = {r_hi:g} is too large for 32-bit lattice coordinates")
    zbox, tbox = (2 * zmax + 1) ** g.m1, (2 * tmax + 1) ** g.m2
    if g.m2 == 1:
        cost = zbox * tbox
    else:
        cost = zbox + tbox
        if cost <= budget:
            cost += int(_count_keys_below(g, np.array([_key_range(0.0, r_hi)[1]]))[0])
    if cost > budget:
        raise BudgetError(
            f"lattice scan would visit ~{cost:.2e} candidates (budget {budget:.2e})",
            estimate=cost, budget=budget)
    return zmax, tmax


# Points per block of whole z rows in _lattice_points.  A block's temporaries,
# its int64 run offsets and its int32 z rows (128 KB each on Heis^1), stay in
# the L2 cache and small enough for malloc to reuse from block to block;
# larger ones are handed back to the system and faulted in again, block
# after block.
LATTICE_BLOCK = 1 << 14


def _lattice_points(g: GroupSpec, r_lo: float, r_hi: float, budget: int):
    """int32 arrays (Z, T) of the lattice points with r_lo <= norm < r_hi.

    Points come in lexicographic order over (z, t) from the bounding box
    |z_j| <= r_hi, |t_j| <= r_hi^2.  The row of z holds, in ascending order,
    the t with L <= |z|^4 + |t|^2 < H (L, H from _key_range), and is made of
    runs: output position i of a run that starts at position p holds the
    value (m2 == 1) or the index (m2 > 1) i + off, off = (first entry) - p.

    - m2 == 1: a row is one run of integers, [-tcap, tcap], or two,
      [-tcap, -tlow] and [tlow, tcap], when it has a gap; tcap and tlow are
      integer square roots.
    - m2 > 1: the t-box is sorted once by |t|^2, so a row's t-set is the
      stretch between one searchsorted pair in that order.  Rows with the
      same |z|^2 share it, so each distinct set is sorted back into
      lexicographic order once, into `lex`, and a row is one run of `lex`.

    The rows are filled in blocks of whole rows of about LATTICE_BLOCK
    points (or one row, if it is longer): Z from one repeat of the block's
    z rows, T from one repeat of the run offsets plus a ramp 0, 1, 2, ...
    shared by all blocks.  Every output element is written once.
    The temporaries are O(block), besides `lex`, which holds the t-set of
    one row per distinct |z|^2 and so is never longer than the output.
    The z and t boxes are int32, as the output is (check_lattice_scan keeps
    every coordinate below 2^31); keys, counts and offsets are int64.
    """
    if r_lo < 0 or r_hi <= r_lo:
        raise ValidationError("need 0 <= r_lo < r_hi")
    zmax, tmax = check_lattice_scan(g, r_hi, budget)
    L, H = _key_range(r_lo, r_hi)
    Zs = _int_box(g.m1, zmax)
    z2 = np.einsum("ki,ki->k", Zs, Zs, dtype=np.int64)
    z4 = z2 * z2
    keep = z4 < H
    Zs = Zs[keep]; z2 = z2[keep]; z4 = z4[keep]

    if g.m2 == 1:
        tcap = _isqrt(H - 1 - z4)
        low = L - z4
        tlow = np.where(low > 0, _isqrt(np.maximum(low - 1, 0)) + 1, 0)
        half = np.maximum(tcap - tlow + 1, 0)
        counts = 2 * half - ((tlow == 0) & (half > 0))
        start = np.cumsum(counts) - counts
        gapped = tlow > 0
        nseg = 1 + gapped
        seg = np.concatenate([[0], np.cumsum(nseg)])  # row k's runs: seg[k]:seg[k + 1]
        run_len = np.repeat(np.where(gapped, half, counts), nseg)
        run_off = np.repeat(-tcap - start, nseg)
        run_off[seg[1:][gapped] - 1] = (tlow - start - half)[gapped]
    else:
        Ts = _int_box(g.m2, tmax)
        t2 = np.einsum("ki,ki->k", Ts, Ts, dtype=np.int64)
        order = np.argsort(t2)
        t2 = t2[order]
        u = np.flatnonzero(np.bincount(z2))  # the distinct |z|^2, ascending
        inv = np.searchsorted(u, z2)
        first = np.searchsorted(t2, L - u * u)
        size = np.searchsorted(t2, H - u * u) - first
        lex = np.concatenate([np.sort(order[f:f + c]) for f, c in zip(first, size)])
        counts = size[inv]
        start = np.cumsum(counts) - counts
        seg = np.arange(counts.size + 1)
        run_len, run_off = counts, (np.cumsum(size) - size)[inv] - start

    ends = start + counts  # the origin's row is always kept, so ends is not empty
    n = int(ends[-1])
    Z, T = _mapped_zeros(n, g.m1), _mapped_zeros(n, g.m2)
    ramp = np.arange(min(n, max(LATTICE_BLOCK, int(counts.max()))))  # i - a over a block a:b
    r0 = 0
    while r0 < counts.size:
        a = int(start[r0])
        r1 = max(int(np.searchsorted(ends, a + LATTICE_BLOCK, "right")), r0 + 1)
        b = int(ends[r1 - 1])
        Z[a:b] = np.repeat(Zs[r0:r1], counts[r0:r1], axis=0)
        s0, s1 = seg[r0], seg[r1]
        off = np.repeat(run_off[s0:s1] + a, run_len[s0:s1])
        if g.m2 == 1:
            np.add(ramp[:b - a], off, out=T[a:b, 0])
        else:
            off += ramp[:b - a]
            np.take(Ts, lex[off], axis=0, out=T[a:b])
        r0 = r1
    return Z, T


def lattice_shell_array(g: GroupSpec, r_lo: float, r_hi: float,
                        budget: int = DEFAULT_LATTICE_BUDGET):
    """All lattice points with r_lo <= gauge norm < r_hi as int32 arrays (Z, T),
    in lexicographic (z, t) order: 4 (m1 + m2) bytes a point, 12 on Heis^1."""
    if not g.integer_structure:
        raise UnsupportedError("lattice enumeration requires integral structure matrices")
    return _lattice_points(g, r_lo, r_hi, budget)


def lattice_shell(g: GroupSpec, r_lo: float, r_hi: float,
                  budget: int = DEFAULT_LATTICE_BUDGET) -> Iterator[LatticePoint]:
    """Iterate lattice points with r_lo <= gauge norm < r_hi (deterministic order)."""
    Z, T = lattice_shell_array(g, r_lo, r_hi, budget)
    for k in range(Z.shape[0]):
        yield LatticePoint(Z[k], T[k])


def _square_counts(n: int, m: int) -> np.ndarray:
    """#{x in Z^m : |x|^2 = v} for v = 0..n-1: the 1-D square counts convolved m times."""
    one = np.zeros(n, dtype=np.int64)
    one[np.arange(math.isqrt(n - 1) + 1) ** 2] = 2
    one[0] = 1
    out = one
    for _ in range(m - 1):
        twice, out = 2 * out, out.copy()
        for x in range(1, math.isqrt(n - 1) + 1):
            out[x * x:] += twice[:n - x * x]
    return out


def _square_counts_work(n: int, m: int) -> int:
    """Array elements touched by _square_counts(n, m)."""
    return n + (m - 1) * n * math.isqrt(n - 1)


def _norm_key_cuts(x: np.ndarray, strict: bool) -> np.ndarray:
    """Smallest integer key N with f(N) >= x (> x if strict), elementwise.

    f(N) = float(N) ** 0.25 is the gauge norm exactly as norm_many evaluates
    it for a lattice point of key N; it is nondecreasing in N.  The start
    floor(x^4) is corrected in steps of one with the same float expression.
    """
    def reached(c):
        v = c.astype(np.float64) ** 0.25
        return v > x if strict else v >= x

    c = np.maximum(np.floor(x ** 4), 0.0).astype(np.int64)
    while (down := (c > 0) & reached(np.maximum(c - 1, 0))).any():
        c -= down
    while (up := ~reached(c)).any():
        c += up
    return c


def _count_keys_below(g: GroupSpec, cuts: np.ndarray) -> np.ndarray:
    """#{lattice points with |z|^4 + |t|^2 < c} for each integer cut c.

    Sums mult(u) * C_t(c - 1 - u^2) over the values u = |z|^2 that occur,
    where mult(u) counts the z with |z|^2 = u and C_t(n) the t with
    |t|^2 <= n: 2 isqrt(n) + 1 when m2 == 1, a prefix table otherwise.
    """
    totals = np.zeros(cuts.shape, dtype=np.int64)
    top = int(cuts.max(initial=0))
    if top <= 0:
        return totals
    mult = _square_counts(math.isqrt(top - 1) + 1, g.m1)
    u = np.flatnonzero(mult)
    w, u2 = mult[u], u * u
    if g.m2 > 1:
        # C_t(n) = prefix[n + 1], with prefix[0] = 0 standing for n = -1
        prefix = np.concatenate([[0], np.cumsum(_square_counts(top, g.m2))])
    # row blocks of 2^14 keys: their temporaries stay in cache, and malloc
    # reuses them rather than returning them to the system after each block
    step = max(1, (1 << 14) // cuts.size)
    for a in range(0, u.size, step):
        n = cuts[None, :] - 1 - u2[a:a + step, None]
        if g.m2 == 1:
            inside = n >= 0
            c = 2 * _isqrt(np.maximum(n, 0)) + inside
        else:
            c = prefix[np.maximum(n, -1) + 1]
        totals += w[a:a + step] @ c
    return totals


def check_norm_histogram(g: GroupSpec, r_lo: float, r_hi: float, bins: int,
                         budget: int) -> np.ndarray:
    """Raise what lattice_norm_histogram(g, r_lo, r_hi, bins, budget) raises
    before it counts anything; return its bin edges.

    The edges are logarithmically spaced from max(r_lo, 1 - 1e-12) to r_hi
    and must increase strictly: a range only a few ulps wide makes
    np.geomspace round them into a flat or decreasing run, which is rejected.

    The budget bounds the work: the number of |z|^2 rows times the number of
    edges, plus the elements touched while building the square-count tables
    (of length about r_hi^2 over z and, when m2 > 1, r_hi^4 over t).
    """
    if not g.integer_structure:
        raise UnsupportedError("lattice enumeration requires integral structure matrices")
    if bins < 1:
        raise ValidationError("need bins >= 1")
    lo = max(r_lo, 1.0 - 1e-12)  # minimum nonzero lattice norm is >= 1 here
    if r_hi <= lo:
        raise ValidationError("the histogram needs r_hi > 1 - 1e-12 "
                              "(no nonzero lattice norm is smaller)")
    n_keys = math.ceil(r_hi ** 4)  # H of _key_range, which checks it after the budget
    rows = math.isqrt(n_keys - 1) + 1
    cost = rows * (bins + 1) + _square_counts_work(rows, g.m1)
    if g.m2 > 1:
        cost += _square_counts_work(n_keys, g.m2)
    if cost > budget:
        raise BudgetError(
            f"lattice histogram would cost ~{cost:.2e} (budget {budget:.2e})",
            estimate=cost, budget=budget)
    edges = np.geomspace(lo, r_hi, bins + 1)
    if not (np.diff(edges) > 0).all():
        raise ValidationError(f"histogram range [{lo!r}, {r_hi!r}] is too narrow "
                              f"for {bins} bins: the bin edges do not increase")
    return edges


def lattice_norm_histogram(g: GroupSpec, r_lo: float, r_hi: float, bins: int = 4096,
                           budget: int = DEFAULT_LATTICE_BUDGET):
    """Histogram of gauge norms of lattice points in [r_lo, r_hi).

    Returns (edges, counts) with logarithmically spaced bin edges from
    max(r_lo, 1 - 1e-12) to r_hi; bins are half-open except the last, which
    is closed, as in np.histogram.  Used to compress very large shells into
    weight histograms for partition sums.

    The points are counted, not enumerated.  A point's norm and its shell
    membership depend only on its integer key N = |z|^4 + |t|^2, so each
    bin edge becomes an integer cut on N, and the number of points below a
    cut is a sum over the values of |z|^2 (see _count_keys_below).  The
    counts equal those of binning the points of lattice_shell_array with
    norm_many and np.histogram.  check_norm_histogram states the budget.
    """
    edges = check_norm_histogram(g, r_lo, r_hi, bins, budget)
    L, H = _key_range(r_lo, r_hi)
    cuts = np.concatenate([_norm_key_cuts(edges[:-1], strict=False),
                           _norm_key_cuts(edges[-1:], strict=True)])
    return edges, np.diff(_count_keys_below(g, np.clip(cuts, L, H)))
