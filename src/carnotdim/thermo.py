"""Bracketed pressure, Bowen parameter, theta-number, transfer-operator
eigenmeasures, Gibbs checks, and invariant-measure dimension.

All weight-based quantities work on two-sided per-edge bounds
w_lo(e) <= ||D phi_e|| <= w_up(e) (closed forms that hold at every point of
the domain, so K = 1, unless a given table declares a distortion constant
K > 1), and report brackets, never bare point estimates.  One kernel,
_log_transfer, gives log rho(A * diag(w^t)) over the successor index's rows
(vertices if maximal, else edges) from the table's distinct weights, each
taken as exp(t (log w - log w_max)) so that any t >= 0 neither overflows
nor underflows the largest: a sum when the index has one row, else a Perron
root of the bincount row matrix.  Pressures, Bowen parameters,
eigenmeasures and theta's shell sums all go through it; Gibbs checks are a
closed form of the weights, taken by max-plus steps over the same index.
Every root is bracketed: Bowen parameters and theta fits by bisection,
Moran roots by tangent steps on the convex log sum w^t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NonConvergenceError, ValidationError
from .gdms import (DEFAULT_WORD_BUDGET, GdmsSpec, Word, WordList,
                   stationary_distribution)
from .groups import inverse_square

BISECTION_TOL = 1e-6
BISECTION_MAX_ITER = 200
POWER_TOL = 1e-12
POWER_ULPS = 64 * np.finfo(float).eps
POWER_MAX_ITER = 100_000
POWER_SLOW_ITER = 1_000
THETA_XTOL = 1e-10
THETA_T_MAX = 64.0


# ---------------------------------------------------------------------------
# Weight tables
# ---------------------------------------------------------------------------

@dataclass
class WeightTable:
    """Per-edge bounds w_lo(e) <= ||D phi_e|| <= w_up(e) and a distortion
    constant K >= 1.

    The closed-form tables of compute_weight_table bound ||D phi_e(p)|| at
    every point p of the domain, so by the chain rule the products along a
    word bound ||D phi_w(p)|| at every point too, and K = 1.  K > 1 comes
    only from a given table (a spec's `weights`) whose w_lo bounds just the
    sup norm ||D phi_e||_inf: then the lower pressure bound is discounted
    by t log K.  A table is exact when w_lo == w_up and K == 1.  `exact`
    and `rows` are computed on first use and kept, so the arrays are not to
    be changed after construction.
    """

    w_lo: np.ndarray
    w_up: np.ndarray
    distortion: float = 1.0

    def __post_init__(self):
        self.w_lo = np.asarray(self.w_lo, float)
        self.w_up = np.asarray(self.w_up, float)
        if self.w_lo.ndim != 1 or self.w_lo.shape != self.w_up.shape:
            raise ValidationError(f"w_lo and w_up must be lists of one length, got shapes "
                                  f"{self.w_lo.shape} and {self.w_up.shape}")
        if not (np.isfinite(self.w_lo).all() and np.isfinite(self.w_up).all()):
            raise ValidationError("weights must be finite")
        if (self.w_lo <= 0).any() or (self.w_up <= 0).any():
            raise ValidationError("weights must be positive")
        if (self.w_lo > self.w_up * (1 + 1e-12)).any():
            raise ValidationError("need w_lo <= w_up")
        if not 1.0 <= self.distortion < math.inf:
            raise ValidationError(f"distortion constant must be finite and >= 1, "
                                  f"got {self.distortion}")

    @cached_property
    def exact(self) -> bool:
        return bool(np.array_equal(self.w_lo, self.w_up) and self.distortion == 1.0)

    @cached_property
    def rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(log w_lo, log w_up, count, pair) over the distinct (w_lo, w_up)
        pairs, in increasing order of w_up, then w_lo, with pair[e] the row
        of edge e: all that the transfer kernel reads.  A CF table has one
        row per integer norm key."""
        order = np.lexsort((self.w_lo, self.w_up))
        lo, up = self.w_lo[order], self.w_up[order]
        new = np.ones(order.size, bool)
        new[1:] = (lo[1:] != lo[:-1]) | (up[1:] != up[:-1])
        start = np.flatnonzero(new)
        count = np.diff(np.append(start, order.size)).astype(float)
        pair = np.empty(order.size, np.intp)
        pair[order] = np.cumsum(new) - 1
        return np.log(lo[start]), np.log(up[start]), count, pair

    @property
    def w_mid(self) -> np.ndarray:
        return np.sqrt(self.w_lo * self.w_up)


def compute_weight_table(sys: GdmsSpec) -> WeightTable:
    """Per-edge bounds w_lo <= ||D phi_e(p)|| <= w_up at every p of its domain
    vertex set; no distortion constant (K = 1).

    Similarities have the exact weight r_f.  A map with pole a has
    ||D phi_e(p)|| = r_f / d(p, a)^2, so with d from sys.pole_gaps,
    w_lo = r_f / (d + R)^2, and w_up = sys.w_up = r_f / gap^2.
    """
    table = sys.table
    d = sys.pole_gaps[0]
    R = sys.vertex_arrays()[2][sys.dst_idx]
    # w_lo = 0 past the float range is refused by WeightTable
    return WeightTable(np.where(table.has_pole, inverse_square(table.r_f, d + R), table.r_f),
                       sys.w_up)


def ensure_weights(sys: GdmsSpec) -> WeightTable:
    """The system's weight table, computed and kept on first use when the
    system was built without one."""
    if sys.weights is None:
        sys.weights = compute_weight_table(sys)
    return sys.weights


# ---------------------------------------------------------------------------
# Transfer operator and pressure
# ---------------------------------------------------------------------------

def _cyclic_classes(M: np.ndarray) -> List[np.ndarray]:
    """The strongly connected classes of the pattern M > 0 that hold a cycle.

    C_ij = [a path of positive length leads from i to j], closed under
    squaring; i lies on a cycle iff C_ii, and i, j share a class iff each
    reaches the other."""
    C = M > 0
    while True:
        D = C | ((C.astype(float) @ C.astype(float)) > 0)
        if (D == C).all():
            break
        C = D
    cyc = np.flatnonzero(C.diagonal())
    label = (C & C.T)[cyc].argmax(axis=1)
    return [cyc[label == k] for k in np.unique(label)]


def perron_eigenvalue(M: np.ndarray):
    """Perron root and right eigenvector (largest entry 1) of M >= 0.

    Power iteration on Ms = M + sigma I, sigma = 0.05 max M (the shift
    removes periodicity).  Once max(Ms v) changes by at most POWER_ULPS of
    itself, or after POWER_SLOW_ITER steps, each step takes the
    Collatz-Wielandt bounds min <= rho <= max of (Mv)_i / v_i and returns
    their midpoint once their gap is at most POWER_ULPS of it, or at most
    POWER_TOL of it and no longer closing (rounding level).  Rows that reach
    no class of the largest growth, or chained classes of it, keep the gap
    open: a gap that stalls above that, or a run of POWER_SLOW_ITER steps,
    splits M once into its strongly connected classes, and with several,
    rho is the largest of their roots and v the last iterate.  No cycle of
    nonzero weight: NonConvergenceError.
    """
    M = np.asarray(M, float)
    if (M < 0).any():
        raise ValidationError("matrix must be nonnegative")
    sigma = 0.05 * float(M.max())
    if sigma == 0:
        raise ValidationError("zero matrix has no Perron data")
    Ms = M.copy()
    Ms.flat[::M.shape[0] + 1] += sigma
    v, lam, last, split = np.ones(M.shape[0]), 0.0, math.inf, False
    with np.errstate(divide="ignore", invalid="ignore"):  # entries of v that underflow
        for step in range(POWER_MAX_ITER):
            w = Ms @ v
            lam_new = float(w.max())
            stalled = False
            # the bounds cost as much as a step on a small M: only once it settles
            if abs(lam_new - lam) <= POWER_ULPS * lam_new or step >= POWER_SLOW_ITER:
                r = (M @ v) / v
                lo, hi = float(r.min()), float(r.max())
                root, gap = 0.5 * (lo + hi), hi - lo
                if gap <= POWER_ULPS * root or (gap <= POWER_TOL * root and gap >= last):
                    return root, v
                stalled, last = not gap < last, gap  # also on a NaN gap
            if not split and (stalled or step == POWER_SLOW_ITER):
                classes, split = _cyclic_classes(M), True
                if not classes:
                    raise NonConvergenceError("no cycle of nonzero weight: no Perron root "
                                              "in the float range")
                if classes[0].size < M.shape[0]:
                    return max(perron_eigenvalue(M[np.ix_(c, c)])[0] for c in classes), v
            v, lam = w / lam_new, lam_new
    raise NonConvergenceError("power iteration did not converge")


@dataclass
class PressureBracket:
    t: float
    lower: float
    upper: float
    method: str
    distortion: float = 1.0

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValidationError("pressure bracket inverted")

    def to_json(self):
        return {"t": self.t, "P_lo": self.lower, "P_hi": self.upper,
                "method": self.method, "distortion": self.distortion}


def _log_transfer(log_w: np.ndarray, count: np.ndarray, t: float,
                  pair: Optional[np.ndarray] = None, index=None, vector: bool = False):
    """log rho of the transfer operator with letter weights w^t over weight
    rows (distinct log weights, counts) and, for a system, each edge's row
    `pair` and the successor index (succ, row, ptr, cell).

    Each weight enters as x = exp(t (log w - top)), top = max log w, so the
    largest is 1 and log rho = log rho(x) + t top.  With no index, or one
    index row that has successors, rho(x) = sum count * x.  Else it is the
    Perron root of M_rs = sum of x over the successors b of row r with
    row(b) = s, one bincount over the cells: A diag(x) = S T with S_ar =
    [row(a) = r], T_rb = [b follows row r] x(b), and M = T S has the same
    eigenvalue, with eigenvector u, v_a = u[row(a)].  With `vector`,
    (log rho, v, y): v per edge and y = x[pair] / rho(x) = w^t / rho.
    """
    top = log_w.max()
    x = np.exp(t * (log_w - top))
    if index is None or (index[2].size == 2 and index[0].size):
        lam, u = (count * x).sum(), None  # u = [1]
    else:
        succ, row, ptr, cell = index
        n = ptr.size - 1
        lam, u = perron_eigenvalue(
            np.bincount(cell, weights=x[pair][succ], minlength=n * n).reshape(n, n))
    log_rho = float(np.log(lam)) + float(t) * float(top)  # inf past the range, no warning
    if not vector:
        return log_rho
    return log_rho, np.ones(pair.size) if u is None else u[index[1]], x[pair] / lam


def pressure_bracket(sys: GdmsSpec, t: float) -> PressureBracket:
    """Two-sided bounds on the topological pressure P(t).

    log rho(w_lo^t) - t log K <= P(t) <= log rho(w_up^t), with rho the
    spectral radius of the weighted transfer matrix: the products of the
    per-edge bounds bound ||D phi_w|| along every admissible word, and the
    partition sums over words of length n grow like rho^n.  `method` names
    the path: "exact" (exact table, one rho), "subadditive" (one index
    row: every edge has the same successors, rho = their sum of w^t) or
    "spectral" (Perron eigenvalues).
    """
    if t < 0:
        raise ValidationError("t must be >= 0")
    table = ensure_weights(sys)
    log_lo, log_up, count, pair = table.rows
    upper = _log_transfer(log_up, count, t, pair, sys._index)
    if table.exact:
        return PressureBracket(t, upper, upper, "exact")
    lower = _log_transfer(log_lo, count, t, pair, sys._index) - t * math.log(table.distortion)
    method = "subadditive" if sys._index[2].size == 2 else "spectral"  # one index row
    return PressureBracket(t, min(lower, upper), upper, method, table.distortion)


# ---------------------------------------------------------------------------
# Bowen parameter
# ---------------------------------------------------------------------------

@dataclass
class DimBracket:
    h_lo: float
    h_hi: float
    iterations: int
    tol: float
    p_lower_at_h_lo: float
    p_upper_at_h_hi: float
    slack: float = 0.0
    note: str = ""

    def __post_init__(self):
        if self.h_lo > self.h_hi + 1e-12:
            raise ValidationError("dimension bracket inverted")

    @property
    def mid(self) -> float:
        return 0.5 * (self.h_lo + self.h_hi)

    def to_json(self):
        return {"h_lo": self.h_lo, "h_hi": self.h_hi, "iterations": self.iterations,
                "tol": self.tol, "slack": self.slack, "note": self.note}


def _bisect_root(f: Callable[[float], float], lo: float, hi: float, tol: float):
    """Largest t with f >= 0 and smallest t with f <= 0, to endpoint gap tol.

    f must be decreasing with f(lo) >= 0 >= f(hi).  Returns (a, b, iters)
    with a <= root <= b and b - a <= tol.
    """
    a, b = lo, hi
    iters = 0
    while b - a > tol and iters < BISECTION_MAX_ITER:
        m = 0.5 * (a + b)
        if f(m) >= 0:
            a = m
        else:
            b = m
        iters += 1
    return a, b, iters


def bowen_dim(sys: GdmsSpec, tol: float = BISECTION_TOL) -> DimBracket:
    """Bracket [h_lo, h_hi] for the Bowen parameter inf{t : P(t) <= 0}.

    Certified by the final pressure evaluations: P_lower(h_lo) >= 0 and
    P_upper(h_hi) <= 0.  Each root is bisected on its own side of the
    pressure bracket (pressure_bracket), which is evaluated only there; an
    exact table has one side.  When the pressure bracket is wider than tol
    the extra width is reported as slack, never hidden.
    """
    if not tol > 0:
        raise ValidationError(f"tol must be > 0, got {tol}")
    table = ensure_weights(sys)
    log_lo, log_up, count, pair = table.rows
    log_k = math.log(table.distortion)
    upper = {}
    lower = upper if table.exact else {}

    def f_up(t: float) -> float:
        if t not in upper:
            upper[t] = _log_transfer(log_up, count, t, pair, sys._index)
        return upper[t]

    def f_lo(t: float) -> float:
        if t not in lower:
            # capped by the upper side where that is known, as in pressure_bracket:
            # both bisections start at [0, hi], so no rounding of the two sides
            # can send the lower one past the upper one
            lower[t] = min(_log_transfer(log_lo, count, t, pair, sys._index) - t * log_k,
                           upper.get(t, math.inf))
        return lower[t]

    Q = sys.group.Q
    iters = 0
    note = ""

    hi = float(Q)
    expansions = 0
    while f_up(hi) > 0:
        hi *= 2.0
        expansions += 1
        if expansions > 60:
            raise NonConvergenceError("upper pressure never becomes nonpositive")
    if expansions:
        note = f"search interval expanded to [0,{hi:g}]; "

    if f_up(0.0) <= 0:
        h_hi = 0.0
    else:
        _, h_hi, it = _bisect_root(f_up, 0.0, hi, tol / 2)
        iters += it
    if f_lo(0.0) <= 0:
        h_lo = 0.0
    else:
        h_lo, _, it = _bisect_root(f_lo, 0.0, hi, tol / 2)
        iters += it
    slack = max(h_hi - h_lo - tol, 0.0)
    if slack > 0:
        note += f"pressure bracket width dominates (slack {slack:.3g})"
    return DimBracket(h_lo=h_lo, h_hi=h_hi, iterations=iters, tol=tol,
                      p_lower_at_h_lo=f_lo(h_lo), p_upper_at_h_hi=f_up(h_hi),
                      slack=slack, note=note.strip())


# ---------------------------------------------------------------------------
# Theta number from shell sums
# ---------------------------------------------------------------------------

@dataclass
class ShellFamily:
    """Shell decomposition of an infinite alphabet: per-shell edge weights.

    tail = "geometric": shells at geometrically growing scales; the tail of
    sum_k S_k(t) is geometric and converges iff the fitted log S_k slope in
    k is negative.  tail = "power": shells at polynomially growing scales;
    the tail behaves like sum_k k^a and converges iff the fitted slope of
    log S_k against log k is < -1.  Shell k holds the weight rows
    log_weights[k] with positive multiplicities counts[k] (ones when no
    counts are given); no shell is empty.
    """

    log_weights: List[np.ndarray]
    counts: Optional[List[np.ndarray]] = None
    tail: str = "geometric"
    labels: Optional[np.ndarray] = None  # regression x per shell; default 1..K

    def __post_init__(self):
        if self.tail not in ("geometric", "power"):
            raise ValidationError(f"unknown tail type {self.tail!r}")
        self.log_weights = [np.asarray(lw, float) for lw in self.log_weights]
        if self.counts is None:
            self.counts = [np.ones(lw.shape) for lw in self.log_weights]
        self.counts = [np.asarray(c, float) for c in self.counts]
        if [c.shape for c in self.counts] != [lw.shape for lw in self.log_weights]:
            raise ValidationError("counts/log_weights length mismatch")
        for k, (lw, c) in enumerate(zip(self.log_weights, self.counts)):
            if lw.ndim != 1 or lw.size == 0:
                raise ValidationError(f"shell {k} is empty or not a list")
            if not (np.isfinite(lw).all() and np.isfinite(c).all() and (c > 0).all()):
                raise ValidationError(f"shell {k}: log weights must be finite and "
                                      f"counts positive")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, float)
            if self.labels.shape != (len(self.log_weights),):
                raise ValidationError("labels/log_weights length mismatch")

    @property
    def n_shells(self) -> int:
        return len(self.log_weights)

    def log_shell_sum(self, k: int, t: float) -> float:
        return _log_transfer(self.log_weights[k], self.counts[k], t)


@dataclass
class ThetaEstimate:
    lo: float
    hi: float
    estimate: float
    previous: float
    stderr: float
    shells: int

    def to_json(self):
        return {"theta_lo": self.lo, "theta_hi": self.hi,
                "theta_hat": self.estimate, "theta_prev": self.previous,
                "stderr": self.stderr, "shells": self.shells}


def _tail_slope(family: ShellFamily, t: float, n_shells: int, start: int = 0):
    """OLS slope of log S_k(t) against the tail coordinate, plus its stderr."""
    if family.labels is not None:
        x = family.labels[start:n_shells]
    else:
        ks = np.arange(1, n_shells + 1, dtype=float)[start:]
        x = ks if family.tail == "geometric" else np.log(ks)
    y = np.array([family.log_shell_sum(k, t) for k in range(start, n_shells)])
    xm, ym = x.mean(), y.mean()
    sxx = ((x - xm) ** 2).sum()
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    resid = y - (ym + slope * (x - xm))
    dof = max(len(x) - 2, 1)
    se = float(math.sqrt((resid ** 2).sum() / dof / sxx))
    return slope, se


def theta_estimate(family: ShellFamily) -> ThetaEstimate:
    """Finiteness threshold of Z_1(t) fitted from shell sums.

    Solves slope(t) = target (0 for geometric tails, -1 for power tails) by
    bisection to THETA_XTOL, within t <= THETA_T_MAX.  The earliest shell
    carries the largest finite-size bias, so with >= 6 shells the point
    estimate drops it (burn-in of one shell).  The bracket is the hull of the
    bisection brackets of three estimator variants (with/without burn-in,
    last vs previous truncation) widened on both sides by the spread of their
    midpoints plus twice the regression standard error: the spread is a
    proxy for the still-unconverged truncation bias (whose sign is not known
    a priori), the 2-sigma term covers shell-sum fluctuations.
    """
    K = family.n_shells
    if K < 4:
        raise ValidationError(f"theta estimation needs >= 4 shells, got {K}")
    target = 0.0 if family.tail == "geometric" else -1.0
    burn = 1 if K >= 6 else 0

    def solve(start: int, n_shells: int) -> Tuple[float, float, float]:
        """(a, b, stderr): a bisection bracket of the root, and the standard
        error of the root at its midpoint."""
        def g(t):
            return _tail_slope(family, t, n_shells, start)[0] - target
        if g(0.0) <= 0:
            return 0.0, 0.0, _tail_slope(family, 0.0, n_shells, start)[1]
        hi = 1.0
        while g(hi) > 0:
            hi *= 2.0
            if hi > THETA_T_MAX:
                raise NonConvergenceError("shell sums do not decay within the t range")
        a, b, _ = _bisect_root(g, hi / 2 if g(hi / 2) > 0 else 0.0, hi, THETA_XTOL)
        root = 0.5 * (a + b)
        slope_se = _tail_slope(family, root, n_shells, start)[1]
        dg = (g(root + 1e-4) - g(root - 1e-4)) / 2e-4
        t_se = abs(slope_se / dg) if dg != 0 else slope_se
        return a, b, t_se

    variants = [solve(burn, K), solve(burn, K - 1)]
    if burn:
        variants.append(solve(0, K))
    mids = [0.5 * (a + b) for a, b, _ in variants]
    se = variants[0][2]
    spread = max(mids) - min(mids)
    lo = max(min(a for a, _, _ in variants) - spread - 2 * se, 0.0)
    hi = max(b for _, b, _ in variants) + spread + 2 * se
    return ThetaEstimate(lo=lo, hi=hi, estimate=mids[0], previous=mids[1],
                         stderr=se, shells=K)


# ---------------------------------------------------------------------------
# Transfer-operator eigenmeasure and Gibbs property
# ---------------------------------------------------------------------------

@dataclass
class CylinderMeasure:
    """Eigenmeasure of the dual transfer operator, discretized on cylinders.

    Masses follow m([w]) = w_mid(w)^t * v(w_n) * lam^-|w| / Z with v the
    (right) Perron eigenvector of M_ab = A_ab w_mid(b)^t; this choice makes
    children masses sum exactly to the parent mass.  masses[k] is the mass
    of words[k], the depth-n words in lexicographic order, taken from
    w_mid^t / lam letter by letter: lam may underflow to 0, the masses do
    not.
    """

    depth: int
    words: WordList
    masses: np.ndarray
    eigenvalue: float
    t: float
    eigenvector: np.ndarray
    norm_const: float

    def mass(self, word: Word) -> float:
        try:
            idx = self._index[word]
        except AttributeError:
            self._index = {w: k for k, w in enumerate(self.words)}
            idx = self._index[word]
        return float(self.masses[idx])


def transfer_eigenmeasure(sys: GdmsSpec, t: float, depth: int,
                          budget: int = DEFAULT_WORD_BUDGET) -> CylinderMeasure:
    if t < 0:
        raise ValidationError("t must be >= 0")
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    kind, _ = sys.finite_irreducibility()
    if kind != "irreducible":
        raise ValidationError("transfer eigenmeasure requires an irreducible system")
    log_lo, log_up, count, pair = ensure_weights(sys).rows
    log_mid = 0.5 * (log_lo + log_up)
    log_rho, v, y = _log_transfer(log_mid, count, t, pair, sys._index, vector=True)
    Zc = float((y * v).sum())  # depth-independent normalization
    prod = [np.ones(1)] + [None] * depth  # per length: products along the latest block
    masses = []
    for k, parent, last in sys.word_blocks(depth, budget):
        prod[k] = prod[k - 1][parent] * y[last]  # left to right along each word
        if k == depth:
            masses.append(prod[k] * v[last] / Zc)
    masses = np.concatenate(masses)
    total = masses.sum()
    if abs(total - 1.0) > 1e-9:
        masses = masses / total
    return CylinderMeasure(depth=depth, words=WordList(sys, depth), masses=masses,
                           eigenvalue=math.exp(log_rho), t=t, eigenvector=v, norm_const=Zc)


def gibbs_check(measure: CylinderMeasure, sys: GdmsSpec, t: float, side: str = "mid"):
    """(min, max) of the Gibbs ratios over all cylinders of depth <= measure.depth.

    A cylinder's mass w_mid(w)^t v(w_n) lam^-|w| / Z over its prediction with
    w_side for w_mid is exp(sum_k phi[w_k]), phi = -half t (log w_up - log w_lo),
    half = -1/2, 0, 1/2 for lower, mid, upper: it reads the weight bracket,
    not the measure.  Its extremes come from depth - 1 max-plus steps over
    the successor index (on phi and -phi), with no word enumerated; an exp
    past the float range is inf."""
    half = {"lower": -0.5, "mid": 0.0, "upper": 0.5}
    if side not in half:
        raise ValidationError(f"unknown weight side {side!r}")
    if side == "mid":
        return 1.0, 1.0
    log_lo, log_up, _, pair = ensure_weights(sys).rows
    succ, row, ptr, _ = sys._index
    with np.errstate(over="ignore"):
        phi = (-half[side] * t * (log_up - log_lo))[pair, None] * [1.0, -1.0]
        best, top = phi, phi.max(axis=0)
        for _ in range(measure.depth - 1):
            # a row with no successor starts no longer word: -inf, also past the last
            ext = np.maximum.reduceat(np.append(best[succ], [[-np.inf] * 2], axis=0), ptr[:-1])
            ext[ptr[:-1] == ptr[1:]] = -np.inf
            best = phi + ext[row]
            top = np.maximum(top, best.max(axis=0))
        return float(np.exp(-top[1])), float(np.exp(top[0]))


# ---------------------------------------------------------------------------
# Invariant-measure dimension
# ---------------------------------------------------------------------------

@dataclass
class InvariantMeasureSpec:
    kind: str  # "bernoulli" | "markov"
    probs: Optional[np.ndarray] = None
    P: Optional[np.ndarray] = None
    pi: Optional[np.ndarray] = None

    @staticmethod
    def bernoulli(probs) -> "InvariantMeasureSpec":
        p = np.asarray(probs, float)
        if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
            raise ValidationError("Bernoulli probabilities must be a distribution")
        return InvariantMeasureSpec("bernoulli", probs=p)

    @staticmethod
    def markov(P, pi=None) -> "InvariantMeasureSpec":
        P = np.asarray(P, float)
        if (P.ndim != 2 or P.shape[0] != P.shape[1] or (P < 0).any()
                or not np.allclose(P.sum(axis=1), 1.0, atol=1e-9)):
            raise ValidationError("a Markov matrix must be square with stochastic rows")
        if pi is None:
            pi = stationary_distribution(P)
        return InvariantMeasureSpec("markov", P=P, pi=np.asarray(pi, float))


def measure_dimension(sys: GdmsSpec, mu: InvariantMeasureSpec) -> float:
    """h_mu / chi_mu: entropy over Lyapunov exponent of the shift-invariant
    measure projected to the limit set.

    The Lyapunov exponent of the cylinders of any depth n,
    -sum_{|w|=n} mu([w]) (1/n) log w_mid(w), telescopes (the word weights
    are per-edge products and mu is shift-invariant) to
    -sum_e freq_mu(e) log w_mid(e), which is what is evaluated.
    """
    table = ensure_weights(sys)
    nE = sys.n_edges
    if mu.kind == "bernoulli":
        p = mu.probs
        if p.shape != (nE,):
            raise ValidationError(f"need {nE} Bernoulli probabilities")
        support = np.flatnonzero(p > 0)
        # every pair admissible iff each support edge's index row holds the
        # whole support: count the support among each row's successors
        succ, row, ptr, _ = sys._index
        held = np.concatenate(([0], np.cumsum(p[succ] > 0)))
        if (held[ptr[row[support] + 1]] - held[ptr[row[support]]] < support.size).any():
            raise ValidationError("Bernoulli support contains an inadmissible transition")
        h = float(-(p[support] * np.log(p[support])).sum())
        freq = p
    elif mu.kind == "markov":
        P, pi = mu.P, mu.pi
        if P.shape != (nE, nE):
            raise ValidationError(f"Markov matrix must be {nE} x {nE}")
        if not sys.admissible_pair(*np.nonzero(P > 0)).all():
            raise ValidationError("Markov support contains an inadmissible transition")
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(P > 0, P * np.log(P), 0.0)
        h = float(-(pi[:, None] * plogp).sum())
        freq = pi
    else:
        raise ValidationError(f"unknown measure kind {mu.kind!r}")
    # a weight that underflows to 0 gives chi = inf, or NaN at frequency 0
    with np.errstate(divide="ignore", invalid="ignore"):
        chi = float(-(freq * np.log(table.w_mid)).sum())
    if not 0 < chi < math.inf:
        raise ValidationError(f"Lyapunov exponent {chi:g} is not positive and finite")
    if h == 0.0:
        return 0.0
    return h / chi


# ---------------------------------------------------------------------------
# Dimension spectrum: greedy subsystems
# ---------------------------------------------------------------------------

def similarity_dimension(weights: Sequence[float], tol: float = 1e-12) -> float:
    """Root of sum w^t = 1 (Moran equation); 0 for a single map or none.

    f(t) = log sum w^t is convex and decreasing, so tangent steps from t = 0
    stay below the root and reach it quadratically.  Once a step is at most
    tol / 2, a + tol is tried as the upper end; a tangent point that rounding
    puts past the root serves as one too.  The result lies in a pair
    f(a) >= 0 >= f(b) with b - a <= tol (or 4 ulp of a, if that is more).
    f is log1p of the sum minus 1, with w^t - 1 at the largest weight taken
    by expm1, so that it keeps its relative precision near the root even for
    weights close to 1.
    """
    w = np.asarray(weights, float)
    if not ((w > 0) & (w < 1)).all():
        raise ValidationError("similarity weights must lie in (0,1)")
    if not tol > 0:
        raise ValidationError(f"tol must be > 0, got {tol}")
    if w.size < 2:
        return 0.0
    logw = np.log(w)
    top = int(np.argmax(logw))
    a, b, x = 0.0, math.inf, 0.0
    for _ in range(BISECTION_MAX_ITER):
        p = np.exp(x * logw)
        p[top] = math.expm1(x * logw[top])
        s1 = float(p.sum())  # sum w^x - 1
        fx = math.log1p(s1)
        if fx >= 0:
            a, step = x, fx * (1 + s1) / -(float(p @ logw) + logw[top])
        else:
            b = x
        gap = max(tol, 4 * math.ulp(a))
        if b - a <= gap:
            return min(a + step, b)
        x = a + step if step > gap / 2 else a + gap
        if x >= b:  # rounding put a tangent point past the root
            x = max(b - gap, 0.5 * (a + b))
    raise NonConvergenceError("Moran equation: no root bracket within the step limit")


@dataclass
class SubsystemResult:
    indices: List[int]
    weights: List[float]
    dim: DimBracket
    trace: List[Tuple[int, float]]
    exhausted: bool  # budget/generator ran out before reaching the target tol


def subsystem_with_dimension(weight_gen, t_target: float, tol: float = 1e-4,
                             budget: int = 100_000,
                             trace_points: int = 64) -> SubsystemResult:
    """Greedy subsystem of an infinite similarity IFS with dimension ~ t_target.

    weight_gen yields per-edge similarity ratios in decreasing order.  Edges
    are added in index order whenever the resulting Moran dimension stays
    below t_target; since the Moran sum f_S(t) = sum w^t is decreasing in t,
    "dimension < t_target after adding w" is exactly f_S(t_target) + w^t < 1
    and "dimension >= t_target - tol" is f_S(t_target - tol) >= 1, so the
    scan is O(1) per candidate.  Exact dimensions (scalar Moran roots) are
    evaluated only for the trace (after each of the first trace_points
    accepted edges, then at power-of-two counts, so the whole run stays
    O(n log n)) and the final bracket.
    """
    if not (t_target > 0 and tol > 0):
        raise ValidationError(f"target dimension and tol must be > 0, got {t_target}, {tol}")
    chosen: List[int] = []
    weights: List[float] = []
    trace: List[Tuple[int, float]] = []
    s_target = 0.0   # sum w^t_target over accepted edges
    s_stop = 0.0     # sum w^(t_target - tol)
    t_stop = max(t_target - tol, 0.0)
    reached = False
    for idx, w in enumerate(weight_gen):
        if idx >= budget:
            break
        w = float(w)
        if not (0 < w < 1):
            raise ValidationError("similarity weights must lie in (0,1)")
        if s_target + w ** t_target < 1.0:
            chosen.append(idx)
            weights.append(w)
            s_target += w ** t_target
            s_stop += w ** t_stop
            n = len(chosen)
            if n <= trace_points or n & (n - 1) == 0:  # then at powers of two
                trace.append((idx, similarity_dimension(weights)))
            if s_stop >= 1.0:
                reached = True
                break
    h = similarity_dimension(weights) if weights else 0.0
    if not trace or trace[-1][0] != (chosen[-1] if chosen else -1):
        if chosen:
            trace.append((chosen[-1], h))
    dim = DimBracket(h_lo=h, h_hi=h, iterations=0, tol=tol,
                     p_lower_at_h_lo=0.0, p_upper_at_h_hi=0.0)
    return SubsystemResult(indices=chosen, weights=weights, dim=dim,
                           trace=trace, exhausted=not reached)
