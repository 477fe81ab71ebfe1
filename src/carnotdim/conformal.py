"""Conformal self-maps of Iwasawa groups: chains of primitives and their normal form.

A chain is an ordered list of primitives (applied right-to-left): left
translations, dilations, horizontal rotations and the inversion
J(z; t) = (z / (|z|^2 - i t); -t / ||(z,t)||^4) (both complex Heisenberg only).
Each is a similarity tau_b delta_r U or, with one pole a, tau_b delta_r U J
tau_{a^-1} (Koranyi-Reimann; U unitary, ||D phi(p)|| = r / d(p, a)^2).
ConformalChain pulls infinity back to the pole and folds r and U in closed
form; gdms.EdgeTable keeps only this normal form and evaluates a pole map
through a base point x0 of its domain (`inverted_offset_many`).
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
    """Base class; concrete primitives implement `apply_many` on points
    (Z, T) of any leading shape."""

    def validate(self, g: GroupSpec) -> None:
        pass

    def inverse(self) -> "Primitive":
        raise NotImplementedError

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

    def apply_many(self, g, Z, T):
        return G.mul_many(g, self.point.z, self.point.t, Z, T)

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

    def apply_many(self, g, Z, T):
        return G.dilate_many(g, self.r, Z, T)

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

    def apply_many(self, g, Z, T):
        return np.einsum("...ab,...b->...a", self._matrix_for(g), Z), np.array(T, float)

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

    def apply_many(self, g, Z, T):
        """(z / A; -(t / |A|) / |A|) with A = |z|^2 - i t: |A| = hypot(|z|^2, t)
        neither underflows nor overflows where ||x||^4 would.  A point within
        the float resolution of o gives inf or NaN."""
        Z = np.asarray(Z, float); T = np.asarray(T, float)
        z2 = np.einsum("...i,...i->...", Z, Z)
        t = T[..., 0]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            A = np.hypot(z2, t)
            return _real(_complex(g, Z) / (z2 - 1j * t)[..., None]), (-(t / A) / A)[..., None]

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
# Normal form
# ---------------------------------------------------------------------------

def _complex(g: GroupSpec, Z):
    """Horizontal coordinates (x_1..x_n, y_1..y_n) as complex z_k = x_k + i y_k."""
    return Z[..., :g.n] + 1j * Z[..., g.n:]


def _real(W):
    return np.concatenate([W.real, W.imag], axis=-1)


def inversion_rotation(g: GroupSpec, b: GPoint) -> np.ndarray:
    """U_b of J o tau_b o J = tau_{J(b)} delta_{1/||b||^2} U_b J tau_{J(b^-1)^-1} as a
    real m1 x m1 matrix: ||b||^2 DJ_b = conj(A) I - 2 conj(A)^2 z z* for
    (z; t) = delta_{1/||b||} b, A = |z|^2 - i t."""
    nb = float(G.norm_many(g, b.z, b.t))
    z = _complex(g, b.z / nb)
    A = np.vdot(z, z).real - 1j * (b.t[0] / nb / nb)
    C = np.conj(A) * np.eye(g.n) - 2 * np.conj(A) ** 2 * np.outer(z, np.conj(z))
    return np.block([[C.real, -C.imag], [C.imag, C.real]])


def inverted_offset_many(g: GroupSpec, PZ, PT, UZ, UT, r):
    """delta_r(J(p)^-1 J(p u)) on complex Heisenberg, broadcast: with A(z; t) =
    |z|^2 - i t, h = sum_k conj(z_p,k) z_u,k and A_q = A_p + A_u + 2h = A(p u),
    (z_u - z_p ((A_u + 2h) / A_p)) (r / A_q) and -Im(A_u (r / conj(A_p)) (r / A_q)).
    No point p u or J(p) is formed (they cancel when p is far from o), and r
    enters each quotient, so a far pole's r^2 and A_p A_q stay in range."""
    PZ, PT, UZ, UT = (np.asarray(X, float) for X in (PZ, PT, UZ, UT))
    zp, zu = _complex(g, PZ), _complex(g, UZ)
    Ap = np.einsum("...i,...i->...", PZ, PZ) - 1j * PT[..., 0]
    Au = np.einsum("...i,...i->...", UZ, UZ) - 1j * UT[..., 0]
    h2 = 2 * np.einsum("...i,...i->...", np.conj(zp), zu)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = r / (Ap + Au + h2)
        z = (zu - zp * ((Au + h2) / Ap)[..., None]) * s[..., None]
        t = -(Au * (r / np.conj(Ap)) * s).imag
    return _real(z), t[..., None]


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------

def _apply_primitive_point(g: GroupSpec, prim: Primitive, p):
    """Apply one primitive to a point that may be INFINITY; exact infinity
    handling, and J of a point within the float resolution of o (o itself,
    or an image past the float range) is INFINITY."""
    if is_infinity(p):
        return prim.apply_infinity(g)
    Z, T = prim.apply_many(g, p.z, p.t)
    if prim.is_inversion and not (np.isfinite(Z).all() and np.isfinite(T).all()):
        return INFINITY
    return GPoint(Z, T)


class ConformalChain:
    """An immutable conformal map with cached pole, scaling factor r_f and
    unitary part `rotation` (a real m1 x m1 matrix) of its normal form."""

    def __init__(self, group: GroupSpec, primitives: Sequence[Primitive]):
        if not group.is_iwasawa:
            raise UnsupportedError("conformal chains require an Iwasawa group")
        self.group = group
        self.primitives: Tuple[Primitive, ...] = tuple(primitives)
        for prim in self.primitives:
            prim.validate(group)
        self.n_inversions = sum(1 for p in self.primitives if p.is_inversion)
        self.pole = self._compute_pole()
        self.r_f, self.rotation = self._fold()

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

    def _fold(self):
        """(r_f, U), folded from the innermost primitive outward with the image
        b of infinity so far: a similarity multiplies r by its ratio and U by
        its rotation; J turns r into 1/r where b is infinity or o, and else
        into r / ||b||^2 = d(a', a)^2 / r (Koranyi-Reimann, a and a' the poles
        before and after J) and U into U_b U (`inversion_rotation`)."""
        g = self.group
        b, r, U = INFINITY, 1.0, np.eye(g.m1)
        for prim in reversed(self.primitives):
            image = _apply_primitive_point(g, prim, b)
            if prim.is_inversion and (is_infinity(b) or is_infinity(image)):
                r = 1.0 / r
            elif prim.is_inversion:
                nb = float(G.norm_many(g, b.z, b.t))
                r, U = r / nb / nb, inversion_rotation(g, b) @ U
            elif isinstance(prim, Rotate):
                U = prim._matrix_for(g) @ U
            else:
                r *= prim.scale()
            b = image
        return r, U

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


def identity_chain(g: GroupSpec) -> ConformalChain:
    return ConformalChain(g, [])


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
