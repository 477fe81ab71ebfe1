"""Conformal self-maps of Iwasawa groups as chains of primitives.

A map is an ordered list of primitives (applied right-to-left):
left translations, dilations, horizontal rotations (complex Heisenberg
only), and the inversion J(z; t) = (z / (|z|^2 - i t); -t / ||(z,t)||^4)
(complex Heisenberg only).  Pointwise derivative norms come from the chain
rule with per-primitive factors {translate -> 1, rotate -> 1, dilate -> r,
invert at x -> 1/d(x,o)^2}; for a chain with a pole a = F^{-1}(infinity)
the norm has the closed form r_f / d(p, a)^2.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import PoleError, UnsupportedError, ValidationError
from . import groups as G
from .groups import (GPoint, GroupSpec, INFINITY, is_infinity, origin)

EPS_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

class Primitive:
    """Base class; concrete primitives implement the hooks below.

    A primitive is fixed by a row of floats (`params`, `n_params` of them),
    and `apply_rows` applies it for parameter rows P of shape (..., n_params)
    that broadcast against the points (Z, T): one row per point batch, or a
    stack of rows for many edges at once.
    """

    @staticmethod
    def n_params(g: GroupSpec) -> int:
        return 0

    def params(self, g: GroupSpec) -> np.ndarray:
        return np.empty(0)

    @classmethod
    def from_params(cls, g: GroupSpec, row) -> "Primitive":
        return cls()

    @staticmethod
    def apply_rows(g: GroupSpec, P, Z, T):
        raise NotImplementedError

    def validate(self, g: GroupSpec) -> None:
        pass

    def inverse(self) -> "Primitive":
        raise NotImplementedError

    def apply_many(self, g: GroupSpec, Z, T):
        return self.apply_rows(g, self.params(g), Z, T)

    def apply_infinity(self, g: GroupSpec):
        """Image of the point at infinity (a GPoint or INFINITY)."""
        return INFINITY

    def norm_factor_many(self, g: GroupSpec, Z, T):
        """Pointwise derivative-norm factor at (Z, T) (before applying the map)."""
        return np.ones(np.asarray(Z).shape[:-1])

    @property
    def is_inversion(self) -> bool:
        return False

    def scale(self) -> float:
        """Similarity scaling contributed by this primitive (1 except Dilate)."""
        return 1.0


class Translate(Primitive):
    def __init__(self, point: GPoint):
        if is_infinity(point):
            raise ValidationError("cannot translate by infinity")
        self.point = point

    @staticmethod
    def n_params(g):
        return g.m1 + g.m2

    def params(self, g):
        return np.concatenate([self.point.z, self.point.t])

    @classmethod
    def from_params(cls, g, row):
        return cls(GPoint(row[:g.m1], row[g.m1:]))

    @staticmethod
    def apply_rows(g, P, Z, T):
        return G.mul_many(g, P[..., :g.m1], P[..., g.m1:], Z, T)

    def validate(self, g):
        G._check_point(g, self.point, "translation")

    def inverse(self):
        return Translate(GPoint(-self.point.z, -self.point.t))

    def __repr__(self):
        return f"Translate({self.point!r})"


class Dilate(Primitive):
    def __init__(self, r: float):
        if not (np.isfinite(r) and r > 0):
            raise ValidationError(f"dilation factor must be positive, got {r}")
        self.r = float(r)

    @staticmethod
    def n_params(g):
        return 1

    def params(self, g):
        return np.array([self.r])

    @classmethod
    def from_params(cls, g, row):
        return cls(row[0])

    @staticmethod
    def apply_rows(g, P, Z, T):
        return G.dilate_many(g, P[..., 0], Z, T)

    def inverse(self):
        return Dilate(1.0 / self.r)

    def norm_factor_many(self, g, Z, T):
        return np.full(np.asarray(Z).shape[:-1], self.r)

    def scale(self):
        return self.r

    def __repr__(self):
        return f"Dilate({self.r:g})"


class Rotate(Primitive):
    """Horizontal rotation (z; t) -> (A z; t), A unitary on C^n (complex Heisenberg)."""

    def __init__(self, matrix=None, theta: Optional[float] = None):
        if (matrix is None) == (theta is None):
            raise ValidationError("Rotate takes exactly one of matrix or theta")
        self.theta = None if theta is None else float(theta)
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValidationError(f"rotation angle must be finite, got {self.theta}")
        self.matrix = None if matrix is None else np.asarray(matrix, float)

    @staticmethod
    def n_params(g):
        return g.m1 * g.m1

    def params(self, g):
        return self._matrix_for(g).ravel()

    @classmethod
    def from_params(cls, g, row):
        return cls(matrix=np.reshape(row, (g.m1, g.m1)))

    @staticmethod
    def apply_rows(g, P, Z, T):
        A = np.reshape(P, np.shape(P)[:-1] + (g.m1, g.m1))
        return np.einsum("...ab,...b->...a", A, Z), np.array(T, float)

    def _matrix_for(self, g: GroupSpec) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]])

    def validate(self, g):
        if g.iwasawa_kind != "heis_c":
            raise UnsupportedError("rotations are supported only on complex Heisenberg groups")
        A = self._matrix_for(g)
        if self.theta is not None and g.n != 1:
            raise ValidationError("angle form of Rotate is only for Heis^1; pass a matrix")
        if A.shape != (g.m1, g.m1):
            raise ValidationError(f"rotation matrix must be {g.m1}x{g.m1}")
        if not np.allclose(A.T @ A, np.eye(g.m1), atol=1e-10):
            raise ValidationError("rotation matrix is not orthogonal")
        n = g.n
        J = np.zeros((g.m1, g.m1))
        J[:n, n:] = -np.eye(n)
        J[n:, :n] = np.eye(n)
        if not np.allclose(A @ J, J @ A, atol=1e-10):
            raise ValidationError("rotation matrix is not complex-linear")

    def inverse(self):
        if self.theta is not None:
            return Rotate(theta=-self.theta)
        return Rotate(matrix=self.matrix.T)

    def __repr__(self):
        if self.theta is not None:
            return f"Rotate(theta={self.theta:g})"
        return "Rotate(matrix)"


class Invert(Primitive):
    """The inversion J; an involution with pole at the origin."""

    def validate(self, g):
        if g.iwasawa_kind != "heis_c":
            raise UnsupportedError("inversion is supported only on complex Heisenberg groups")

    def inverse(self):
        return Invert()

    @staticmethod
    def apply_rows(g, P, Z, T):
        Z = np.asarray(Z, float); T = np.asarray(T, float)
        n = g.n
        zc = Z[..., :n] + 1j * Z[..., n:]
        z2 = np.einsum("...i,...i->...", Z, Z)
        t = T[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = zc / (z2 - 1j * t)[..., None]
            norm4 = z2 * z2 + t * t
            t_new = -t / norm4
        Z_new = np.concatenate([w.real, w.imag], axis=-1)
        return Z_new, t_new[..., None]

    def apply_infinity(self, g):
        return origin(g)

    def norm_factor_many(self, g, Z, T):
        return G.inverse_square(1.0, G.norm_many(g, Z, T))

    @property
    def is_inversion(self):
        return True

    def __repr__(self):
        return "Invert()"


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------

def _apply_primitive_point(g: GroupSpec, prim: Primitive, p):
    """Apply one primitive to a point that may be INFINITY; exact infinity handling."""
    if is_infinity(p):
        return prim.apply_infinity(g)
    if prim.is_inversion and G.norm_many(g, p.z, p.t) == 0.0:
        return INFINITY
    Z, T = prim.apply_many(g, p.z, p.t)
    return GPoint(Z, T)


class ConformalChain:
    """An immutable conformal map with cached pole and scaling factor r_f."""

    def __init__(self, group: GroupSpec, primitives: Sequence[Primitive]):
        if not group.is_iwasawa:
            raise UnsupportedError("conformal chains require an Iwasawa group")
        self.group = group
        self.primitives: Tuple[Primitive, ...] = tuple(primitives)
        for prim in self.primitives:
            prim.validate(group)
        self.n_inversions = sum(1 for p in self.primitives if p.is_inversion)
        self.pole = self._compute_pole()
        self.r_f = self._compute_r_f()

    # -- structure ---------------------------------------------------------

    @property
    def is_similarity(self) -> bool:
        return self.pole is None

    def _compute_pole(self):
        """F^{-1}(infinity): pull infinity back through the inverse primitives."""
        x = INFINITY
        for prim in self.primitives:
            x = _apply_primitive_point(self.group, prim.inverse(), x)
        return None if is_infinity(x) else x

    def _compute_r_f(self) -> float:
        if self.n_inversions == 0:
            r = 1.0
            for prim in self.primitives:
                r *= prim.scale()
            return r
        # r_f = ||DF(p)|| d(p, pole)^2 at every p off the pole, and inversions
        # that cancel (J o dilate(r) o J = dilate(1/r)) leave a similarity with
        # ||DF|| = r_f everywhere.  Probe the unit points +-e_j, farthest from
        # the pole first: F cancels catastrophically near a far-away pole.
        g = self.group
        probes = []
        for j in range(g.m1):
            for sign in (1.0, -1.0):
                e = np.zeros(g.m1); e[j] = sign
                probes.append(GPoint(e, np.zeros(g.m2)))
        dist = [1.0 if self.pole is None else G.gauge_dist(g, p, self.pole) for p in probes]
        dist2 = [d * d for d in dist]  # a float product is inf past the range, not an error
        for k in sorted(range(len(probes)), key=lambda k: -dist2[k]):
            try:
                val = self.deriv_norm_at(probes[k]) * dist2[k]
            except PoleError:
                continue
            if np.isfinite(val) and val > 0:
                return float(val)
        raise PoleError("could not determine the scaling factor r_f")

    # -- evaluation --------------------------------------------------------

    def apply(self, p, tol: float = EPS_FLOOR):
        """Apply the chain to a point (GPoint or INFINITY)."""
        if not is_infinity(p):
            G._check_point(self.group, p, "p")
            if self.pole is not None:
                d = G.gauge_dist(self.group, p, self.pole)
                if d <= tol:
                    raise PoleError(f"point at distance {d:g} from the pole", distance=d)
        x = p
        for prim in reversed(self.primitives):
            x = _apply_primitive_point(self.group, prim, x)
        return x

    def apply_many(self, Z, T):
        """Vectorized application; no pole checks (caller keeps the domain safe)."""
        Z = np.asarray(Z, float); T = np.asarray(T, float)
        for prim in reversed(self.primitives):
            Z, T = prim.apply_many(self.group, Z, T)
        return Z, T

    def deriv_norm_at(self, p: GPoint) -> float:
        """Pointwise derivative norm ||DF(p)|| via the chain rule."""
        G._check_point(self.group, p, "p")
        vals = self.deriv_norm_many(p.z[None, :], p.t[None, :], strict=True)
        return float(vals[0])

    def deriv_norm_many(self, Z, T, strict: bool = False):
        """Vectorized ||DF|| along the forward orbit; inf/nan mark pole hits."""
        g = self.group
        Z = np.asarray(Z, float); T = np.asarray(T, float)
        acc = np.ones(Z.shape[:-1])
        for prim in reversed(self.primitives):
            factor = prim.norm_factor_many(g, Z, T)
            if strict and not np.isfinite(factor).all():
                raise PoleError("forward orbit hits a pole")
            acc = acc * factor
            Z, T = prim.apply_many(g, Z, T)
        if strict and not np.isfinite(acc).all():
            raise PoleError("forward orbit hits a pole")
        return acc

    # -- algebra -----------------------------------------------------------

    def __repr__(self):
        return f"ConformalChain({list(self.primitives)!r})"


def template_offsets(g: GroupSpec, template: Sequence[type]) -> np.ndarray:
    """Start of each primitive's parameters in a template row, plus the row width."""
    return np.cumsum([0] + [cls.n_params(g) for cls in template])


def apply_template(g: GroupSpec, template: Sequence[type], P, Z, T):
    """Apply the chain template (outermost first) with parameter rows P."""
    off = template_offsets(g, template)
    for j in range(len(template) - 1, -1, -1):
        Z, T = template[j].apply_rows(g, P[..., off[j]:off[j + 1]], Z, T)
    return Z, T


def identity_chain(g: GroupSpec) -> ConformalChain:
    return ConformalChain(g, [])


def compose(c1: ConformalChain, c2: ConformalChain) -> ConformalChain:
    """Composition c1 o c2 (c2 applied first)."""
    if c1.group is not c2.group and (c1.group.m1 != c2.group.m1 or c1.group.m2 != c2.group.m2):
        raise ValidationError("cannot compose chains over different groups")
    return ConformalChain(c1.group, c1.primitives + c2.primitives)


def compose_all(chains: Iterable[ConformalChain]) -> ConformalChain:
    chains = list(chains)
    if not chains:
        raise ValidationError("compose_all needs at least one chain")
    prims: List[Primitive] = []
    for c in chains:
        prims.extend(c.primitives)
    return ConformalChain(chains[0].group, prims)


def invert_chain(c: ConformalChain) -> ConformalChain:
    return ConformalChain(c.group, [p.inverse() for p in reversed(c.primitives)])


# ---------------------------------------------------------------------------
# JSON representation
# ---------------------------------------------------------------------------

def primitive_to_json(prim: Primitive):
    if isinstance(prim, Translate):
        return {"translate": list(prim.point.z) + list(prim.point.t)}
    if isinstance(prim, Dilate):
        return {"dilate": prim.r}
    if isinstance(prim, Rotate):
        if prim.theta is not None:
            return {"rotate_theta": prim.theta}
        return {"rotate_matrix": prim.matrix.tolist()}
    if isinstance(prim, Invert):
        return {"invert": True}
    raise ValidationError(f"cannot serialize primitive {prim!r}")


def primitive_from_json(g: GroupSpec, obj) -> Primitive:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValidationError(f"bad primitive fragment {obj!r}")
    (key, value), = obj.items()
    if key == "translate":
        coords = np.asarray(value, float)
        if coords.shape != (g.m1 + g.m2,):
            raise ValidationError(
                f"translate needs {g.m1 + g.m2} coordinates, got {coords.shape}")
        return Translate(GPoint(coords[:g.m1], coords[g.m1:]))
    if key == "dilate":
        return Dilate(float(value))
    if key == "rotate_theta":
        return Rotate(theta=float(value))
    if key == "rotate_matrix":
        return Rotate(matrix=np.asarray(value, float))
    if key == "invert":
        if value is not True:
            raise ValidationError('the "invert" primitive takes the value true')
        return Invert()
    raise ValidationError(f"unknown primitive {key!r}")


def chain_to_json(c: ConformalChain):
    return {"chain": [primitive_to_json(p) for p in c.primitives]}


def chain_from_json(g: GroupSpec, obj) -> ConformalChain:
    if isinstance(obj, dict):
        obj = obj.get("chain")
    if not isinstance(obj, list):
        raise ValidationError("chain fragment must be a list of primitives")
    return ConformalChain(g, [primitive_from_json(g, frag) for frag in obj])
