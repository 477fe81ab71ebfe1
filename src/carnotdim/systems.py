"""Builders for concrete conformal systems.

* Continued fractions on the complex Heisenberg group: inversion composed
  with translation by a deep lattice point, acting on the closed ball of
  radius 1/2 around the identity.
* Conformal Cantor systems: inversion-conjugated similarities anchored at a
  prescribed (or shell-packed) point configuration away from the identity;
  shell points come from a greedy sphere packing settled in array blocks.
* Self-similar iterated function systems built from translations, rotations
  and dilations, with exact weights.

Each builder fills the system's EdgeTable in closed form, one array
operation for the whole alphabet: continued fractions have pole gamma^{-1}
and r_f = 1, Cantor maps have pole o and r_f = r, similarities have no pole
and r_f = the product of their dilations.  GdmsSpec certifies containment
and contraction of every system from these normal forms (image balls from
the Koranyi-Reimann identity), so no builder has a certificate of its own,
and thermo.compute_weight_table derives every system's weight brackets
from the same normal forms on first use (no builder attaches a table).
Shell-mode Cantor systems carry the shell number of each edge
(`cantor_shells`); infinite-alphabet families have a ShellFamily for theta
estimation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetError, ValidationError
from . import groups as G
from .groups import DEFAULT_LATTICE_BUDGET, GPoint, GroupSpec
from .conformal import Dilate, Invert, Rotate, Translate
from .gdms import EdgeTable, GdmsSpec, VertexSet
from .thermo import ShellFamily, ensure_weights


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CfSystemParams:
    """Truncated continued-fraction alphabet: lattice points gamma with
    Delta = 5/2 + epsilon <= ||gamma|| <= radius."""

    epsilon: float
    radius: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValidationError("epsilon must be >= 0")
        if self.radius <= self.delta:
            raise ValidationError(
                f"truncation radius must exceed {self.delta:g} = 5/2 + epsilon")

    @property
    def delta(self) -> float:
        return 2.5 + self.epsilon


def cf_alphabet(g: GroupSpec, params: CfSystemParams,
                budget: int = DEFAULT_LATTICE_BUDGET):
    """Lattice alphabet as float arrays (Z, T, norms), sorted by (norm, coords)."""
    if g.iwasawa_kind != "heis_c":
        raise ValidationError("continued fractions require a complex Heisenberg group")
    Z, T = G.lattice_shell_array(g, params.delta,
                                 np.nextafter(params.radius, np.inf), budget)
    if Z.shape[0] == 0:
        raise ValidationError("empty continued-fraction alphabet")
    Zf, Tf = Z.astype(float), T.astype(float)
    norms = G.norm_many(g, Zf, Tf)
    coords = np.concatenate([Z, T], axis=1)
    order = np.lexsort(np.concatenate([coords.T[::-1], norms[None, :]], axis=0))
    return Zf[order], Tf[order], norms[order]


def _edge_ids(prefix: str, columns: np.ndarray) -> np.ndarray:
    """Ids prefix + comma-joined integer columns, e.g. 'g1,-2,3' or 'c17',
    formatted by a single `%` over a repeated row template."""
    cols = np.rint(columns).astype(np.int64)
    n, k = cols.shape
    row = prefix + ",".join(["%d"] * k) + "\n"
    return np.array((row * n % tuple(cols.ravel().tolist())).split("\n")[:-1], dtype=str)


def build_cf_system(g: GroupSpec, params: CfSystemParams,
                    budget: int = DEFAULT_LATTICE_BUDGET,
                    distortion_seed: int = 0) -> GdmsSpec:
    """Maximal IFS of maps (inversion o translation-by-gamma) on B(o, 1/2).

    Edge g<coords of gamma> has pole gamma^{-1} at distance ||gamma|| >= 5/2
    from the center and r_f = 1, so ||D phi(p)|| lies in
    [w_lo, w_up] = [(||gamma|| + 1/2)^-2, (||gamma|| - 1/2)^-2] at every p of
    the domain (distortion 1; thermo.compute_weight_table).  phi(infinity) = o,
    so GdmsSpec's certificate puts each image in B(o, 1/(||gamma|| - 1/2)),
    inside the domain ball since ||gamma|| >= 5/2.  `distortion_seed` is
    ignored; it is kept so that existing callers still run.
    """
    Z, T, _ = cf_alphabet(g, params, budget)
    n = Z.shape[0]
    vertex = VertexSet(id="X", center=G.origin(g), radius=0.5)
    coords = np.concatenate([Z, T], axis=1)
    table = EdgeTable(g, _edge_ids("g", coords), "X", "X", [(Invert, Translate)], 0,
                      coords, -Z, -T, True, np.ones(n))
    return GdmsSpec(g, [vertex], table)


def cf_shell_family(g: GroupSpec, epsilon: float, r_max: float,
                    n_shells: int = 8, bins: int = 512,
                    budget: int = DEFAULT_LATTICE_BUDGET) -> ShellFamily:
    """Shell decomposition of the full (untruncated) alphabet up to r_max.

    Shell boundaries are geometric between Delta and r_max; within a shell
    the mid weights (||gamma||^2 - 1/4)^-1 are compressed into a log-binned
    norm histogram.  lattice_norm_histogram counts each bin in closed form
    (integer square roots over the values of |z|^2), so no lattice point is
    built: r_max = 60 takes about 0.1 s and r_max = 300 under a second, and
    `budget` bounds the work of every shell; all shells are checked against
    it before the first is counted.
    """
    params = CfSystemParams(epsilon, r_max)
    if n_shells < 2:
        raise ValidationError("need at least 2 shells")
    radii = np.geomspace(params.delta, r_max, n_shells + 1)
    radii[-1] = np.nextafter(radii[-1], np.inf)  # the last shell includes r_max
    for k in range(n_shells):  # every shell within budget before any is counted
        G.check_norm_histogram(g, radii[k], radii[k + 1], bins, budget)
    log_weights: List[np.ndarray] = []
    counts: List[np.ndarray] = []
    for k in range(n_shells):
        edges_k, counts_k = G.lattice_norm_histogram(g, radii[k], radii[k + 1], bins=bins,
                                                     budget=budget)
        keep = counts_k > 0
        if not keep.any():
            raise ValidationError(f"shell {k} of the lattice alphabet is empty")
        centers = np.sqrt(edges_k[:-1] * edges_k[1:])[keep]
        log_weights.append(-np.log(centers ** 2 - 0.25))
        counts.append(counts_k[keep])
    return ShellFamily(log_weights=log_weights, counts=counts, tail="geometric")


# ---------------------------------------------------------------------------
# Conformal Cantor systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CantorSystemParams:
    """Either an explicit configuration (points + radii + domain ball) or a
    shell construction (epsilon > 1, number of shells)."""

    points: Optional[Sequence[GPoint]] = None
    radii: Optional[Sequence[float]] = None
    domain_center: Optional[GPoint] = None
    domain_radius: Optional[float] = None
    epsilon: Optional[float] = None
    shells: Optional[int] = None
    # scales the canonical shell separation (n+2)^-epsilon; > 1 thins the
    # packing uniformly across shells, preserving the count growth exponent
    separation_scale: float = 1.0

    @property
    def mode(self) -> str:
        generic = self.points is not None
        shell = self.epsilon is not None
        if generic == shell:
            raise ValidationError(
                "specify either explicit points/radii or epsilon/shells, not both")
        if generic:
            if self.radii is None or self.domain_center is None or self.domain_radius is None:
                raise ValidationError("explicit mode needs points, radii and a domain ball")
            if len(self.points) != len(self.radii):
                raise ValidationError("points/radii length mismatch")
            return "generic"
        if self.epsilon <= 1:
            raise ValidationError("shell construction needs epsilon > 1")
        if self.shells is None or self.shells < 1:
            raise ValidationError("shell construction needs >= 1 shells")
        return "shell"


# candidates settled per block of sphere_packing: the first block is small,
# and each later one twice the size of the one before, up to PACKING_BLOCK
PACKING_FIRST_BLOCK, PACKING_BLOCK = 64, 4096
# neighbour-cell lookups per searchsorted call of _near_pairs
_LOOKUP_CHUNK = 1 << 18


def sphere_packing(g: GroupSpec, radius: float, separation: float, seed: int,
                   oversample: int = 16, max_points: int = 2_000_000):
    """Greedy packing of the gauge sphere of the given radius at the given
    gauge separation.

    Candidates are seeded sphere samples, taken in index order: a candidate
    is accepted when its gauge distance to every earlier accepted point is
    >= separation.  A grid on (z / sep, t / h_t) limits the distance checks
    to the 3^(m1+m2) cells around each candidate, since |z(p) - z(q)| <=
    d(p, q) and conflicting pairs have |t(p) - t(q)| <= h_t.

    The candidates are settled in blocks of PACKING_FIRST_BLOCK, twice that,
    and so on up to PACKING_BLOCK: a block is first tested against the points
    accepted so far, and its survivors then settle their own conflicts in
    index order, by one pass over the survivors in which each accepted one
    rejects its later conflicts.  Every pair gets the same floating-point
    operations in the same order as in a one-candidate-at-a-time loop, so
    the result is that loop's, whatever the block sizes.
    """
    if not (0 < separation < 2 * radius):
        raise ValidationError("separation must be in (0, 2*radius)")
    rng = np.random.default_rng(seed)
    area = (radius / separation) ** (g.Q - 1)
    n_cand = int(min(max(oversample * area, 1024), max_points))
    Z, T = G.sample_sphere(g, G.origin(g), radius, n_cand, rng)
    # gauge distance dominates |z1 - z2| componentwise; conflicting pairs also
    # satisfy |t1 - t2| <= sep^2 + 2 * radius * sep (twist bound), so a grid on
    # (z / sep, t / (sep^2 + 2 R sep)) confines conflicts to the 3^(m1+m2) block
    bnorm = max(float(np.linalg.norm(Bi, 2)) for Bi in g.B)
    h_t = separation ** 2 + bnorm * radius * separation
    keys = np.concatenate([np.floor(Z / separation), np.floor(T / h_t)],
                          axis=1).astype(np.int64)
    codes, offsets, exact = _cell_codes(keys)
    conflicts = _ConflictTest(g, Z, T, separation ** 4, None if exact else keys)
    acc_codes = np.empty(0, np.uint64)   # accepted points by cell code
    acc_rows = np.empty(0, np.int64)
    lo, size = 0, PACKING_FIRST_BLOCK
    while lo < n_cand:
        block = np.arange(lo, min(lo + size, n_cand))
        lo, size = block[-1] + 1, min(2 * size, PACKING_BLOCK)
        # 1. against the points accepted in earlier blocks
        q, j = _near_pairs(codes[block], offsets, acc_codes, acc_rows)
        hit = q[conflicts(block[q], j)]
        surv = np.delete(block, hit)
        # 2. among the survivors, in index order
        order = np.argsort(codes[surv], kind="stable")
        q, j = _near_pairs(codes[surv], offsets, codes[surv][order], order)
        q, j = q[j < q], j[j < q]
        hit = conflicts(surv[q], surv[j])
        later, earlier = q[hit], j[hit]
        by = np.argsort(earlier, kind="stable")
        later = later[by]
        ptr = np.searchsorted(earlier[by], np.arange(surv.size + 1))
        ok = np.ones(surv.size, dtype=bool)
        for k in range(surv.size):
            if ok[k]:
                ok[later[ptr[k]:ptr[k + 1]]] = False
        new = surv[ok]
        # 3. merge the block's accepted points into the sorted lookup
        order = np.argsort(codes[new], kind="stable")
        at = np.searchsorted(acc_codes, codes[new][order], side="right")
        acc_codes = np.insert(acc_codes, at, codes[new][order])
        acc_rows = np.insert(acc_rows, at, new[order])
    if not acc_rows.size:
        raise ValidationError("packing produced no points")
    idx = np.sort(acc_rows)
    return Z[idx], T[idx]


def _cell_codes(keys: np.ndarray):
    """One uint64 code per grid cell of the integer keys (n, d), and the code
    offsets that reach its 3^d neighbourhood as 3^(d-1) runs of three
    consecutive codes.

    The code is k_0 + 2^s * h, with k_0 the first key shifted into
    [1, 2^s - 2] (so the cells k_0 - 1, k_0, k_0 + 1 are consecutive codes)
    and h the mixed-radix number of the other keys over their box padded by
    one cell, taken modulo 2^(64 - s).  Returns (codes, offsets, exact): the
    run of a neighbourhood offset starts at codes - 1 + offset.  When the
    box is too large for 64 bits h wraps, neighbours still map to
    neighbours, but distinct cells may share a code, and `exact` is False.
    """
    kmin = keys.min(axis=0) - 1
    span = keys.max(axis=0) - kmin + 2
    k = (keys - kmin).astype(np.uint64)
    shift = np.uint64(int(span[0]).bit_length())
    stride = np.cumprod(np.concatenate([[1], span[1:-1]]).astype(np.uint64))
    exact = math.prod(int(s) for s in span[1:]) <= 2 ** (64 - int(shift))
    codes = ((k[:, 1:] * stride).sum(axis=1, dtype=np.uint64) << shift) | k[:, 0]
    d = keys.shape[1] - 1
    deltas = np.stack(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij"), axis=-1).reshape(-1, d)
    offsets = (deltas.astype(np.uint64) * stride).sum(axis=1, dtype=np.uint64) << shift
    return codes, offsets, exact


def _near_pairs(qcodes, offsets, sorted_codes, sorted_rows):
    """All (q, row): q indexes qcodes, and row = sorted_rows[k] for every k
    with sorted_codes[k] in a neighbourhood run qcodes[q] - 1 + offsets[i]
    + {0, 1, 2} (see _cell_codes)."""
    qs, rows = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    step = max(_LOOKUP_CHUNK // offsets.size, 1)
    for s in range(0, qcodes.size, step):
        start = ((qcodes[s:s + step] - np.uint64(1))[:, None] + offsets[None, :]).ravel()
        lo = np.searchsorted(sorted_codes, start)
        n = np.searchsorted(sorted_codes, start + np.uint64(3)) - lo
        total = int(n.sum())
        if not total:
            continue
        first = np.cumsum(n) - n
        pos = np.repeat(lo - first, n) + np.arange(total)
        qs.append(s + np.repeat(np.arange(start.size) // offsets.size, n))
        rows.append(sorted_rows[pos])
    return np.concatenate(qs), np.concatenate(rows)


class _ConflictTest:
    """The packing's conflict test d(q, p)^4 < sep^4 between candidates i and
    earlier points j, vectorized over pairs: z2 = sum_a (z_j - z_i)_a^2 and
    t2 = sum_s tau_s^2 with tau_s = t_j,s - t_i,s - sum_{a,b} B[s,a,b] z_i,b
    z_j,a, accumulated term by term in that order; zero entries of B are
    skipped, which leaves every sum unchanged.  With `keys` given (cell
    codes that may collide), pairs outside neighbouring cells never conflict.
    """

    def __init__(self, g: GroupSpec, Z, T, sep4: float, keys: Optional[np.ndarray]):
        self.Z, self.T, self.sep4, self.keys = Z, T, sep4, keys
        self.terms = [[(a, b, g.B[s][a, b]) for a in range(g.m1) for b in range(g.m1)
                       if g.B[s][a, b] != 0] for s in range(g.m2)]

    def __call__(self, i, j) -> np.ndarray:
        Z, T = self.Z, self.T
        z2 = np.zeros(i.size)
        for a in range(Z.shape[1]):
            v = Z[j, a] - Z[i, a]
            z2 += v * v
        z4 = z2 * z2
        # t2 >= 0 and rounding is monotone, so z4 + t2 rounds to >= z4: pairs
        # with z4 >= sep^4 cannot conflict and skip the t terms
        near = np.flatnonzero(z4 < self.sep4)
        i, j = i[near], j[near]
        t2 = np.zeros(near.size)
        for s, terms in enumerate(self.terms):
            tau = T[j, s] - T[i, s]
            for a, b, c in terms:
                tau -= c * Z[i, b] * Z[j, a]
            t2 += tau * tau
        hit = np.zeros(z2.size, dtype=bool)
        hit[near] = z4[near] + t2 < self.sep4
        if self.keys is not None:
            hit[near] &= (np.abs(self.keys[i] - self.keys[j]) <= 1).all(axis=1)
        return hit


def packing_maximality(g: GroupSpec, Z: np.ndarray, T: np.ndarray, radius: float,
                       separation: float, trials: int = 10_000, seed: int = 1):
    """Fraction of fresh sphere samples within `separation` of a packed point."""
    rng = np.random.default_rng(seed)
    QZ, QT = G.sample_sphere(g, G.origin(g), radius, trials, rng)
    covered = 0
    block = 256
    for s in range(0, trials, block):
        qz, qt = QZ[s:s + block], QT[s:s + block]
        dmin = np.full(qz.shape[0], np.inf)
        for c in range(0, Z.shape[0], 4096):
            cz, ct = Z[c:c + 4096], T[c:c + 4096]
            d = _cross_dist(g, qz, qt, cz, ct)
            dmin = np.minimum(dmin, d.min(axis=1))
        covered += int((dmin < separation).sum())
    return covered / trials


def _cross_dist(g: GroupSpec, Z1, T1, Z2, T2):
    """Pairwise gauge distances, shape (len(Z1), len(Z2))."""
    Z, T = G.mul_many(g, -Z1[:, None, :], -T1[:, None, :], Z2[None, :, :], T2[None, :, :])
    return G.norm_many(g, Z, T)


def build_cantor_system(g: GroupSpec, params: CantorSystemParams,
                        seed: int = 0, validate: str = "closed_form") -> GdmsSpec:
    """Cantor-type maximal IFS of inversion-anchored similarities
    phi_e = tau_p delta_r tau_{J(p)^-1} J, which fix their anchor p.

    Explicit mode takes the point/radius configuration and the domain ball
    B(c, R) (with ||c|| > R) as given.  Shell mode places the points by
    greedy packing of the gauge spheres of radii d_n = sum_{j<=n} j^-epsilon
    at separation (n+2)^-epsilon, with map radii separation_n / (10 d0)
    where d0 = 2 / inner bounds the diameter of the inverted domain; the
    domain is the annulus inner <= ||x|| <= outer around the shells, which
    keeps the inversion pole (the identity) outside.

    GdmsSpec certifies the system (`validate` is passed on): each map has
    pole o and r_f = r, so its image lies in B(phi_e(infinity), r / m) in
    shell mode and in B(phi_e(c), r R / (m ||c||)) in explicit mode, and the
    contraction bound is max r / m^2, with m = inner, resp. ||c|| - R, the
    least norm on the domain.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if params.mode == "generic":
        vertex = VertexSet(id="X", center=params.domain_center,
                           radius=params.domain_radius)
        if not params.points:
            raise ValidationError("explicit mode needs at least one point")
        for p in params.points:
            G._check_point(g, p, "anchor point")
        Z = np.stack([p.z for p in params.points])
        T = np.stack([p.t for p in params.points])
        radii = np.asarray(params.radii, float)
        shell_of = None
    else:
        eps, n_shells = float(params.epsilon), int(params.shells)
        d = np.cumsum(np.arange(1, n_shells + 1, dtype=float) ** -eps)
        inner = d[0] - 0.1
        outer = d[-1] + 0.1
        vertex = VertexSet(id="X", center=G.origin(g), radius=outer,
                           inner_radius=inner)
        d0 = 2.0 / inner  # diam J(X) <= 2 / inner for the annulus around o
        if params.separation_scale < 1.0:
            raise ValidationError("separation_scale must be >= 1")
        Zs, Ts, radii, shell_of = [], [], [], []
        for n in range(1, n_shells + 1):
            sep = params.separation_scale * (n + 2.0) ** -eps
            Zp, Tp = sphere_packing(g, float(d[n - 1]), sep, seed=seed + n)
            Zs.append(Zp); Ts.append(Tp)
            radii.append(np.full(Zp.shape[0], sep / (10.0 * d0)))
            shell_of.append(np.full(Zp.shape[0], n))
        Z, T = np.concatenate(Zs), np.concatenate(Ts)
        radii, shell_of = np.concatenate(radii), np.concatenate(shell_of)
    bad = ~((radii > 0) & (radii < 1))
    if bad.any():
        raise ValidationError(f"map radius {radii[bad][0]:g} out of (0,1)")
    if (G.norm_many(g, Z, T) == 0).any():
        raise ValidationError("anchor points must avoid the identity (inversion pole)")
    # translate(p) o dilate(r) o translate(J(p)^{-1}) o J fixes p; pole o, r_f = r
    JZ, JT = Invert().apply_many(g, Z, T)
    n = Z.shape[0]
    table = EdgeTable(g, _edge_ids("c", np.arange(n)[:, None]), "X", "X",
                      [(Translate, Dilate, Translate, Invert)], 0,
                      np.concatenate([Z, T, radii[:, None], -JZ, -JT], axis=1),
                      np.zeros((n, g.m1)), np.zeros((n, g.m2)), True, radii)
    return GdmsSpec(g, [vertex], table, validate=validate, cantor_shells=shell_of)


def cantor_shell_family(sys: GdmsSpec) -> ShellFamily:
    """Per-shell mid-weight compression of a shell-mode Cantor system."""
    shells = sys.cantor_shells
    if shells is None:
        raise ValidationError("system was not built in shell mode")
    table = ensure_weights(sys)
    logw = np.log(table.w_mid)
    ns = np.flatnonzero(np.bincount(shells))
    log_weights = [logw[shells == n] for n in ns]
    return ShellFamily(log_weights=log_weights, counts=None, tail="power",
                       labels=np.log(ns + 2.0))


# ---------------------------------------------------------------------------
# Self-similar systems
# ---------------------------------------------------------------------------

def build_self_similar(g: GroupSpec, maps: Sequence[Tuple],
                       incidence: Optional[np.ndarray] = None) -> GdmsSpec:
    """Maximal (or explicitly restricted) similarity IFS from
    (translation point, scale[, rotation]) triples, with exact weights.

    The single vertex ball around the identity has radius (1 + 1e-9) times
    max_e ||p_e|| / (1 - s_e), the fixed point of R -> max_e (||p_e|| + s_e R),
    so that every image ball B(p_e, s_e R) lies inside it.
    """
    if not maps:
        raise ValidationError("need at least one map")
    prim_lists = []
    for spec in maps:
        if len(spec) == 2:
            p, s = spec
            theta = None
        elif len(spec) == 3:
            p, s, theta = spec
        else:
            raise ValidationError("map spec must be (point, scale[, rotation])")
        if not (0 < s < 1):
            raise ValidationError(f"scale {s:g} is not contractive")
        prims = [Translate(p)]
        if theta is not None:
            prims.append(Rotate(theta=float(theta)) if np.isscalar(theta)
                         else Rotate(matrix=theta))
        prims.append(Dilate(float(s)))
        for prim in prims:
            prim.validate(g)
        prim_lists.append(prims)
    scales = np.array([prims[-1].r for prims in prim_lists])
    Zp = np.stack([prims[0].point.z for prims in prim_lists])
    Tp = np.stack([prims[0].point.t for prims in prim_lists])
    R = max(float((G.norm_many(g, Zp, Tp) / (1 - scales)).max()) * (1 + 1e-9), 1e-6)
    vertex = VertexSet(id="X", center=G.origin(g), radius=R)
    n = len(prim_lists)
    table = EdgeTable.from_primitives(
        g, _edge_ids("s", np.arange(n)[:, None]), "X", "X", prim_lists,
        np.zeros((n, g.m1)), np.zeros((n, g.m2)), False, scales)
    return GdmsSpec(g, [vertex], table, incidence=incidence)


def similarity_shell_family(scales_by_shell: Sequence[Sequence[float]],
                            tail: str = "geometric") -> ShellFamily:
    """ShellFamily for an infinite similarity generator listed shell by shell."""
    log_weights = []
    for shell in scales_by_shell:
        s = np.asarray(shell, float)
        if (s <= 0).any() or (s >= 1).any():
            raise ValidationError("similarity scales must lie in (0,1)")
        log_weights.append(np.log(s))
    return ShellFamily(log_weights=log_weights, counts=None, tail=tail)


def power_law_weights(c: float, exponent: float, start: int = 1):
    """Infinite decreasing weight stream w_k = c * k^-exponent (clipped below 1),
    from the first k >= start with w_k < 1, found by bisection; none below
    k = 2^1000 is a ValidationError."""
    if exponent <= 0 or c <= 0:
        raise ValidationError("need positive c and exponent")
    w = lambda k: c * float(k) ** -exponent
    lo, hi = start - 1, 2 ** 1000  # w(k) >= 1 for start <= k <= lo, w(hi) < 1
    if w(hi) >= 1.0:
        raise ValidationError(f"weights {c:g} k^-{exponent:g} stay >= 1 up to k = 2^1000")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if w(mid) >= 1.0 else (lo, mid)
    yield from map(w, itertools.count(hi))
