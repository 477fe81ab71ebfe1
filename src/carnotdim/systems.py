"""Builders for concrete conformal systems.

* Continued fractions on the complex Heisenberg group: inversion composed
  with translation by a deep lattice point, acting on the closed ball of
  radius 1/2 around the identity.
* Conformal Cantor systems: inversion-conjugated similarities anchored at a
  prescribed (or shell-packed) point configuration away from the identity.
* Self-similar iterated function systems built from translations, rotations
  and dilations, with exact weights.

Each builder fills the system's EdgeTable in closed form, one array
operation for the whole alphabet: continued fractions have pole gamma^{-1}
and r_f = 1, Cantor maps have pole o and r_f = r, similarities have no pole
and r_f = the product of their dilations.  CF and self-similar systems get
their WeightTable (closed-form pointwise brackets, distortion 1) as a
constructor field, Cantor systems the same brackets on first use;
shell-mode Cantor systems carry the shell number of each edge
(`cantor_shells`); infinite-alphabet families have a ShellFamily for theta
estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetError, ValidationError
from . import groups as G
from .groups import DEFAULT_LATTICE_BUDGET, GPoint, GroupSpec
from .conformal import Dilate, Invert, Rotate, Translate
from .gdms import EdgeTable, GdmsSpec, VertexSet
from .thermo import ShellFamily, WeightTable


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
    """Ids prefix + comma-joined integer columns, e.g. 'g1,-2,3' or 'c17'."""
    cols = np.rint(columns).astype(np.int64).astype(str)
    ids = cols[:, 0]
    for j in range(1, cols.shape[1]):
        ids = np.char.add(np.char.add(ids, ","), cols[:, j])
    return np.char.add(prefix, ids)


def build_cf_system(g: GroupSpec, params: CfSystemParams,
                    budget: int = DEFAULT_LATTICE_BUDGET,
                    distortion_seed: int = 0) -> GdmsSpec:
    """Maximal IFS of maps (inversion o translation-by-gamma) on B(o, 1/2).

    Edge g<coords of gamma> has pole gamma^{-1} at distance ||gamma|| >= 5/2
    from the center and r_f = 1, so ||D phi(p)|| lies in
    [w_lo, w_up] = [(||gamma|| + 1/2)^-2, (||gamma|| - 1/2)^-2] at every p of
    the domain (distortion 1).  Containment in the domain ball holds exactly
    (images lie within 1/(2 + epsilon) of the center), so no sampled
    validation is needed.  `distortion_seed` is ignored; it is kept so that
    existing callers still run.
    """
    Z, T, norms = cf_alphabet(g, params, budget)
    n = Z.shape[0]
    vertex = VertexSet(id="X", center=G.origin(g), radius=0.5)
    coords = np.concatenate([Z, T], axis=1)
    table = EdgeTable(g, _edge_ids("g", coords), "X", "X", [(Invert, Translate)], 0,
                      coords, -Z, -T, True, np.ones(n))
    weights = WeightTable(1.0 / (norms + 0.5) ** 2, 1.0 / (norms - 0.5) ** 2)
    return GdmsSpec(g, [vertex], table, contraction=float(weights.w_up.max()),
                    weights=weights, validate="none")


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


def sphere_packing(g: GroupSpec, radius: float, separation: float, seed: int,
                   oversample: int = 16, max_points: int = 2_000_000):
    """Greedy packing of the gauge sphere of the given radius at the given
    gauge separation.

    Candidates are seeded sphere samples inserted in order whenever they
    keep all pairwise gauge distances >= separation; a horizontal-coordinate
    grid (cell size = separation) limits each insertion to a constant number
    of exact distance checks, since |z(p) - z(q)| <= d(p, q).
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
    dims = g.m1 + g.m2
    deltas = np.stack(np.meshgrid(*([[-1, 0, 1]] * dims), indexing="ij"),
                      axis=-1).reshape(-1, dims)
    B = [[list(row) for row in Bi] for Bi in g.B]  # python floats: fast scalar math
    sep4 = separation ** 4
    cell = {}
    accepted: List[int] = []
    Zl, Tl = Z.tolist(), T.tolist()
    keyl = [tuple(k) for k in keys.tolist()]
    deltal = [tuple(d) for d in deltas.tolist()]
    m1, m2 = g.m1, g.m2
    for i in range(n_cand):
        key = keyl[i]
        zi, ti = Zl[i], Tl[i]
        ok = True
        for dk in deltal:
            bucket = cell.get(tuple(a + b for a, b in zip(key, dk)))
            if not bucket:
                continue
            for j in bucket:
                zj, tj = Zl[j], Tl[j]
                z2 = 0.0
                for a in range(m1):
                    v = zj[a] - zi[a]
                    z2 += v * v
                t2 = 0.0
                for s in range(m2):
                    tau = tj[s] - ti[s]
                    Bs = B[s]
                    for a in range(m1):
                        row = Bs[a]
                        zja = zj[a]
                        for b in range(m1):
                            tau -= row[b] * zi[b] * zja
                    t2 += tau * tau
                if z2 * z2 + t2 < sep4:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            cell.setdefault(key, []).append(i)
            accepted.append(i)
    if not accepted:
        raise ValidationError("packing produced no points")
    idx = np.asarray(accepted)
    return Z[idx], T[idx]


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
                        seed: int = 0, validate: str = "sampled",
                        samples: int = 1000) -> GdmsSpec:
    """Cantor-type maximal IFS of inversion-anchored similarities.

    Explicit mode takes the point/radius configuration as given (sampled
    validation catches escapes).  Shell mode places the points by greedy
    packing of the gauge spheres of radii d_n = sum_{j<=n} j^-epsilon at
    separation (n+2)^-epsilon, with map radii separation_n / (10 d0) where
    d0 bounds the diameter of the inverted domain; the domain is the
    annulus around the shells, which keeps the inversion pole (the
    identity) outside.
    """
    mode = params.mode
    if mode == "generic":
        center, radius = params.domain_center, params.domain_radius
        vertex = VertexSet(id="X", center=center, radius=radius)
        if G.gauge_norm(g, center) <= radius:
            raise ValidationError("domain must not contain the identity (inversion pole)")
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
    return GdmsSpec(g, [vertex], table, incidence=None, validate=validate,
                    samples=samples, seed=seed,
                    contraction=None if validate == "sampled" else 0.9,
                    cantor_shells=shell_of)


def cantor_shell_family(sys: GdmsSpec) -> ShellFamily:
    """Per-shell mid-weight compression of a shell-mode Cantor system."""
    shells = sys.cantor_shells
    if shells is None:
        raise ValidationError("system was not built in shell mode")
    from .thermo import ensure_weights
    table = ensure_weights(sys)
    logw = np.log(table.w_mid)
    ns = np.unique(shells)
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

    The single vertex ball around the identity is auto-fitted: the radius is
    the fixed point of R -> max_e (||p_e|| + s_e R), found by <= 50
    inflation steps.
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
    offsets = G.norm_many(g, Zp, Tp)
    R = float(offsets.max())
    for _ in range(50):
        R_new = float((offsets + scales * R).max())
        if R_new <= R * (1 + 1e-12):
            break
        R = R_new
    R = max(R * (1 + 1e-9), 1e-6)
    vertex = VertexSet(id="X", center=G.origin(g), radius=R)
    n = len(prim_lists)
    table = EdgeTable.from_primitives(
        g, _edge_ids("s", np.arange(n)[:, None]), "X", "X", prim_lists,
        np.zeros((n, g.m1)), np.zeros((n, g.m2)), False, scales)
    return GdmsSpec(g, [vertex], table, incidence=incidence,
                    contraction=float(scales.max()), validate="none",
                    weights=WeightTable(scales.copy(), scales.copy()))


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
    """Infinite decreasing weight stream w_k = c * k^-exponent (clipped below 1)."""
    if exponent <= 0 or c <= 0:
        raise ValidationError("need positive c and exponent")
    k = start
    while True:
        w = c * float(k) ** -exponent
        if w < 1.0:
            yield w
        k += 1
