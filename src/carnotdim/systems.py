"""Builders for concrete conformal systems.

* Continued fractions on the complex Heisenberg group: inversion composed
  with translation by a deep lattice point, acting on the closed ball of
  radius 1/2 around the identity.
* Conformal Cantor systems: inversion-conjugated similarities anchored at a
  prescribed point configuration away from the identity, or on gauge shells
  of radii d_n = sum_{j<=n} j^-epsilon, where shell n's anchors are the
  points of a dilated integer lattice in a thin annulus [d_n, d_n + theta_n),
  which are exactly separated.
* Self-similar iterated function systems built from translations, rotations
  and dilations, with exact weights.

Each builder fills the system's EdgeTable in normal form, one array
operation for the whole alphabet: continued fractions have pole gamma^{-1},
r_f = 1 and base point o with image J(gamma); Cantor maps have pole o,
r_f = r and the image of the domain anchor; similarities have no pole,
r_f = their dilation, U = their rotation and image p of the base point o.
GdmsSpec certifies containment and contraction of every system from these
normal forms (image balls from the Koranyi-Reimann identity), and
thermo.compute_weight_table derives every system's weight brackets from them
on first use, so no builder has a certificate or weight table of its own.
Shell-mode Cantor systems carry the shell number of each edge
(`cantor_shells`); infinite-alphabet families have a ShellFamily for theta
estimation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetError, ValidationError
from . import groups as G
from .groups import DEFAULT_LATTICE_BUDGET, GPoint, GroupSpec
from .conformal import Dilate, Invert, Rotate, Translate
from .gdms import EdgeTable, GdmsSpec, IdRows, VertexSet, unique_rotations
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
    # the scan lists points in lexicographic (z, t) order, which a stable
    # sort keeps among equal norms
    order = np.argsort(norms, kind="stable")
    return Zf[order], Tf[order], norms[order]


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
    o_z, o_t = np.zeros((n, g.m1)), np.zeros((n, g.m2))
    table = EdgeTable(g, IdRows("g", np.concatenate([Z, T], axis=1)), "X", "X", -Z, -T,
                      True, np.ones(n), o_z, o_t, *Invert().apply_many(g, Z, T))
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
    it before the first is counted.  Before any array is built, more shells
    than integer norm keys in range (some shell would be empty) is a
    ValidationError, and more than budget / (bins + 1) a BudgetError, since
    counting a shell costs at least bins + 1.
    """
    params = CfSystemParams(epsilon, r_max)
    if n_shells < 2:
        raise ValidationError("need at least 2 shells")
    # keys N = |z|^4 + |t|^2 in [Delta^4, r_max^4]; the cap at radius 2^14
    # (2^56 keys) only avoids a float overflow of r_max^4
    n_keys = math.floor(min(r_max, 2.0 ** 14) ** 4) - math.ceil(params.delta ** 4) + 1
    if n_shells > n_keys:
        raise ValidationError(f"{n_shells} shells, but the alphabet has only {n_keys} "
                              f"integer norm keys: some shell would be empty")
    if n_shells * (bins + 1) > budget:
        raise BudgetError(f"{n_shells} shells of {bins} bins would cost "
                          f"~{n_shells * (bins + 1):.2e} (budget {budget:.2e})",
                          estimate=n_shells * (bins + 1), budget=budget)
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
    # anchors uniformly across shells, preserving the count growth exponent
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


def build_cantor_system(g: GroupSpec, params: CantorSystemParams,
                        seed: int = 0, validate: str = "closed_form",
                        budget: int = DEFAULT_LATTICE_BUDGET) -> GdmsSpec:
    """Cantor-type maximal IFS of inversion-anchored similarities
    phi_e = tau_p delta_r tau_{J(p)^-1} J, which fix their anchor p.

    Explicit mode takes the point/radius configuration and the domain ball
    B(c, R) (with ||c|| > R) as given.  Shell mode anchors shell n on the
    dilated lattice delta_s(Gamma), s = separation_scale (n+2)^-epsilon:
    the points delta_s(gamma) with d_n <= s ||gamma|| < d_n + theta_n, where
    d_n = sum_{j<=n} j^-epsilon and the layer theta_n = min(s, (n+1)^-epsilon,
    outer - d_n) / 2 is half the gap to the next shell and to the outer
    radius.  They are s-separated, since d(delta_s gamma,
    delta_s gamma') = s ||gamma^-1 gamma'|| >= s (every nonzero lattice norm
    is >= 1).  The map radii are s / (10 d0), where d0 = 2 / inner bounds
    the diameter of the inverted domain; the domain is the annulus
    inner = d_1 - 0.1 <= ||x|| <= outer = d_N + 0.1 around the shells, which
    keeps the inversion pole (the identity) outside.  `budget` bounds each
    shell's lattice scan, checked for all shells before the first is
    scanned, and an empty shell is a ValidationError.  `seed` is validated
    but unused: no construction here is random.

    GdmsSpec certifies the system (`validate` is passed on): each map has
    pole o and r_f = r, so its image lies in B(phi_e(infinity), r / m) in
    shell mode and in B(phi_e(c), r R / (m ||c||)) in explicit mode, and the
    contraction bound is max r / m^2, with m = inner, resp. ||c|| - R, the
    least norm on the domain.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    Invert().validate(g)
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
        if params.separation_scale < 1.0:
            raise ValidationError("separation_scale must be >= 1")
        n = np.arange(1, n_shells + 1, dtype=float)
        d = np.cumsum(n ** -eps)
        inner, outer = d[0] - 0.1, d[-1] + 0.1
        vertex = VertexSet(id="X", center=G.origin(g), radius=outer,
                           inner_radius=inner)
        d0 = 2.0 / inner  # diam J(X) <= 2 / inner for the annulus around o
        sep = params.separation_scale * (n + 2.0) ** -eps
        layer = 0.5 * np.minimum(np.minimum(sep, (n + 1.0) ** -eps), outer - d)
        lo, hi = d / sep, (d + layer) / sep
        G.check_lattice_scan(g, hi.max(), budget)  # every shell before any is scanned
        shells = [G.lattice_shell_array(g, lo[k], hi[k], budget) for k in range(n_shells)]
        sizes = np.array([Zk.shape[0] for Zk, _ in shells])
        if not sizes.all():
            raise ValidationError(f"shell {int(np.argmin(sizes)) + 1} of the Cantor "
                                  f"system holds no dilated lattice point")
        s = np.repeat(sep, sizes)[:, None]
        Z = np.concatenate([Zk for Zk, _ in shells]) * s
        T = np.concatenate([Tk for _, Tk in shells]) * (s * s)
        radii = s[:, 0] / (10.0 * d0)
        shell_of = np.repeat(np.arange(1, n_shells + 1), sizes)
    bad = ~((radii > 0) & (radii < 1))
    if bad.any():
        raise ValidationError(f"map radius {radii[bad][0]:g} out of (0,1)")
    if (G.norm_many(g, Z, T) == 0).any():
        raise ValidationError("anchor points must avoid the identity (inversion pole)")
    # phi = translate(p) o dilate(r) o translate(J(p)^{-1}) o J fixes p; pole o,
    # r_f = r, and y0 = phi(x0) = p delta_r(J(p)^-1 J(x0)) at the domain anchor x0
    J, x0 = Invert(), vertex.anchor(g)
    JZ, JT = J.apply_many(g, Z, T)
    VZ, VT = G.dilate_many(g, radii, *G.mul_many(g, -JZ, -JT,
                                                *J.apply_many(g, x0.z, x0.t)))
    n = Z.shape[0]
    table = EdgeTable(g, IdRows("c", np.arange(n)[:, None]), "X", "X",
                      np.zeros((n, g.m1)), np.zeros((n, g.m2)), True, radii,
                      np.tile(x0.z, (n, 1)), np.tile(x0.t, (n, 1)), *G.mul_many(g, Z, T, VZ, VT))
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
    points, scales, rotations = [], [], []
    for spec in maps:
        if len(spec) not in (2, 3):
            raise ValidationError("map spec must be (point, scale[, rotation])")
        p, s, theta = (tuple(spec) + (None,))[:3]
        if not (0 < s < 1):
            raise ValidationError(f"scale {s:g} is not contractive")
        prims = [Translate(p), Dilate(float(s))] + ([] if theta is None else [
            Rotate(theta=float(theta)) if np.isscalar(theta) else Rotate(matrix=theta)])
        for prim in prims:
            prim.validate(g)
        points.append(p); scales.append(float(s))
        rotations.append(prims[-1]._matrix_for(g) if theta is not None else np.eye(g.m1))
    scales = np.array(scales)
    Zp = np.stack([p.z for p in points])
    Tp = np.stack([p.t for p in points])
    # in Python floats, a radius past the float range is inf, refused by VertexSet
    R = max(max(n / (1 - s) for n, s in zip(G.norm_many(g, Zp, Tp).tolist(),
                                            scales.tolist())) * (1 + 1e-9), 1e-6)
    vertex = VertexSet(id="X", center=G.origin(g), radius=R)
    n = len(points)
    o_z, o_t = np.zeros((n, g.m1)), np.zeros((n, g.m2))
    table = EdgeTable(g, IdRows("s", np.arange(n)[:, None]), "X", "X", o_z, o_t, False,
                      scales, o_z, o_t, Zp, Tp, *unique_rotations(g, rotations))
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
