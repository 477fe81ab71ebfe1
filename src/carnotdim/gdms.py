"""Graph directed Markov systems: alphabets, words, coding map, limit sets.

A system is a directed multigraph whose vertices carry compact gauge balls
(optionally with a concentric open hole removed, i.e. an annulus) and whose
edges carry contracting conformal maps sending the target-vertex set into
the source-vertex set.  An incidence matrix restricts which edges may
follow which; "maximal" incidence allows every composable pair.

Every system is certified in closed form when it is built: from the normal
form of each map, its image ball (GdmsSpec.image_balls) holds phi_e(X_t(e)),
and max_e r_f / gap_e^2 (GdmsSpec.w_up) is a uniform contraction bound.

One successor index holds admissibility: edge a is followed by the edges
of vertex t(a) in a maximal system (edges stably sorted by source vertex),
by its incidence row otherwise, so a maximal system builds no |E| x |E| array.
Its rows (vertices if maximal, else edges) are the unit of every reader: word
counts and blocks, chaos sampling, irreducibility witnesses (one BFS per row)
and thermo's transfer matrix; no code outside this module reads `incidence`.

Edges live in an EdgeTable, one struct of arrays that holds each map only
in normal form: a pole a with phi = tau_b delta_r U J tau_{a^-1} and
||D phi(p)|| = r_f / d(p, a)^2, or a similarity tau_b U delta_r of ratio r_f,
with b given through a base point x0 of the domain and its image phi(x0).
ConformalChain objects are built only where a chain is needed (word maps
and coding points).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import BudgetError, ValidationError
from . import groups as G
from .groups import GPoint, GroupSpec
from .conformal import (EPS_FLOOR, ConformalChain, Dilate, Invert, Rotate, Translate,
                        compose_all, inverted_offset_many)

Word = Tuple[int, ...]  # edge indices; () is the empty word

DEFAULT_WORD_BUDGET = 1_000_000
# words per block of word_blocks: bounds the working memory of word loops
WORD_BLOCK = 1 << 10


@dataclass(frozen=True)
class VertexSet:
    """Closed gauge ball (center, radius), minus the open concentric ball of
    inner_radius when inner_radius > 0 (an annulus)."""

    id: str
    center: GPoint
    radius: float
    inner_radius: float = 0.0

    def __post_init__(self):
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValidationError(f"vertex {self.id!r}: radius must be positive")
        if not (0 <= self.inner_radius < self.radius):
            raise ValidationError(f"vertex {self.id!r}: need 0 <= inner_radius < radius")

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, g: GroupSpec, Z, T, pad: float = 1e-9) -> np.ndarray:
        d = G.dist_many(g, self.center.z, self.center.t, Z, T)
        ok = d <= self.radius + pad
        if self.inner_radius > 0:
            ok &= d >= self.inner_radius - pad
        return ok

    def anchor(self, g: GroupSpec) -> GPoint:
        """A point of the set: the center of a ball, c * (delta e_1; 0) with
        delta = (inner_radius + radius) / 2 for an annulus."""
        if self.inner_radius == 0:
            return self.center
        e = np.zeros(g.m1)
        e[0] = (self.inner_radius + self.radius) / 2
        return G.group_mul(g, self.center, GPoint(e, np.zeros(g.m2)))


class EdgeMap:
    """An edge e with i(e) = src (the vertex the image lands in), t(e) = dst
    (the domain vertex) and its conformal chain phi_e.

    Edges read from a system are views of a row of its EdgeTable; their
    chain is built on first access and cached by the table.
    """

    __slots__ = ("id", "src", "dst", "_chain", "_table", "_row")

    def __init__(self, id: str, src: str, dst: str, chain: ConformalChain):
        self.id, self.src, self.dst = id, src, dst
        self._chain, self._table, self._row = chain, None, -1

    @classmethod
    def _view(cls, table: "EdgeTable", k: int) -> "EdgeMap":
        e = cls.__new__(cls)
        e.id, e.src, e.dst = str(table.ids[k]), str(table.src[k]), str(table.dst[k])
        e._chain, e._table, e._row = None, table, k
        return e

    @property
    def chain(self) -> ConformalChain:
        if self._table is not None:
            return self._table.chain(self._row)
        return self._chain

    def __repr__(self):
        return f"EdgeMap({self.id!r}, {self.src!r} <- {self.dst!r})"


def _edge_ids(prefix: str, columns: np.ndarray) -> np.ndarray:
    """Ids prefix + comma-joined integer columns, e.g. 'g1,-2,3' or 'c17',
    formatted by a single `%` over a repeated row template."""
    cols = np.rint(columns).astype(np.int64)
    n, k = cols.shape
    row = prefix + ",".join(["%d"] * k) + "\n"
    return np.array((row * n % tuple(cols.ravel().tolist())).split("\n")[:-1], dtype=str)


class IdRows(NamedTuple):
    """Edge ids given as data: id k is `prefix` followed by the comma-joined
    integers of row k of `columns` (`_edge_ids`).  The rows must be distinct;
    the ids then are too, since the prefix and the commas fix where each
    integer starts."""

    prefix: str
    columns: np.ndarray


def unique_rotations(g: GroupSpec, mats):
    """(index of each matrix, stack of the distinct ones), entry 0 the identity."""
    keys = {np.eye(g.m1).tobytes(): 0}
    index = [keys.setdefault(np.asarray(M, float).tobytes(), len(keys)) for M in mats]
    return index, np.array([np.frombuffer(k).reshape(g.m1, g.m1) for k in keys])


class EdgeTable:
    """The edges of a system as one struct of arrays.

    Row k holds the edge id, i(e) and t(e) as vertex ids, and phi_e in
    normal form: tau_b delta_r U J tau_{a^-1} with pole a and ||D phi_e(p)|| =
    r_f / d(p, a)^2 (`has_pole`, `pole_z`, `pole_t`, `r_f`), or a similarity
    tau_b U delta_r.  U is `rotations[rotation[k]]` (entry 0 is I), and b is
    held as a base point x0 of the domain (`base_z`, `base_t`; o for a
    similarity) and y0 = phi_e(x0) (`image_z`, `image_t`).  A ConformalChain
    is built only when `chain(k)` asks for one, once per row.

    `ids` is an array of id strings, or an IdRows (the builders' ids): those
    are formatted by `_edge_ids` when `ids` is first read and kept, the same
    strings and dtype as an eager call, so a build that never reads an id
    formats none, and GdmsSpec does not check them for duplicates.
    """

    def __init__(self, group: GroupSpec, ids, src, dst, pole_z, pole_t, has_pole, r_f,
                 base_z, base_t, image_z, image_t, rotation=0, rotations=None,
                 chains: Optional[Dict[int, ConformalChain]] = None):
        self.group = group
        self.id_rows = ids if isinstance(ids, IdRows) else None
        self._ids = None if self.id_rows is not None else np.asarray(ids, dtype=str)
        self._n = n = len(ids.columns) if self._ids is None else len(self._ids)
        self.src = np.broadcast_to(np.asarray(src, dtype=str), (n,))
        self.dst = np.broadcast_to(np.asarray(dst, dtype=str), (n,))
        (self.pole_z, self.base_z, self.image_z), (self.pole_t, self.base_t, self.image_t) = (
            [np.asarray(X, float).reshape(n, m) for X in cols]
            for cols, m in (((pole_z, base_z, image_z), group.m1),
                            ((pole_t, base_t, image_t), group.m2)))
        self.has_pole = np.broadcast_to(np.asarray(has_pole, dtype=bool), (n,))
        self.r_f = np.broadcast_to(np.asarray(r_f, float), (n,))
        self.rotation = np.broadcast_to(np.asarray(rotation, dtype=np.int64), (n,))
        self.rotations = (np.eye(group.m1)[None] if rotations is None
                          else np.asarray(rotations, float))
        self._chains: Dict[int, ConformalChain] = dict(chains or {})

    @classmethod
    def from_maps(cls, group: GroupSpec, edges: Sequence[EdgeMap], anchors) -> "EdgeTable":
        """Table of explicit edges, whose chains supply the normal form; y0 is
        the chain's value at x0, a pole map's domain anchor (anchors[k]) or,
        where phi expands by more than 4 there (d(x0, a)^2 < r_f / 4, never on
        a contraction's domain), a point of its isometric sphere."""
        g, o = group, G.origin(group)
        chains = [e.chain for e in edges]
        base, image = [], []
        for c, x in zip(chains, anchors):
            if c.pole is None:
                x = o
            elif (d := G.gauge_dist(g, x, c.pole)) * d < c.r_f / 4:
                e1 = np.eye(g.m1)[0] * math.sqrt(c.r_f)
                x = G.group_mul(g, c.pole, GPoint(e1, np.zeros(g.m2)))
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    y = c.apply(x)
                    image.append((y.z, y.t))
                except ValidationError:  # past the float range: no certificate holds
                    image.append((np.full(g.m1, np.nan), np.full(g.m2, np.nan)))
            base.append(x)
        poles = [o if c.pole is None else c.pole for c in chains]
        return cls(group, [e.id for e in edges], [e.src for e in edges], [e.dst for e in edges],
                   [p.z for p in poles], [p.t for p in poles], [c.pole is not None for c in chains],
                   [c.r_f for c in chains], [p.z for p in base], [p.t for p in base],
                   [y[0] for y in image], [y[1] for y in image],
                   *unique_rotations(g, [c.rotation for c in chains]),
                   chains=dict(enumerate(chains)))

    @property
    def ids(self) -> np.ndarray:
        """The edge ids, formatted from `id_rows` on first read."""
        if self._ids is None:
            self._ids = _edge_ids(*self.id_rows)
        return self._ids

    def __len__(self) -> int:
        return self._n

    def take(self, rows, ids, src, dst) -> "EdgeTable":
        """A table of the given rows (repeats allowed) under new ids and vertices."""
        rows = np.asarray(rows, dtype=np.int64)
        cached = np.flatnonzero(np.isin(rows, list(self._chains)))
        return EdgeTable(self.group, ids, src, dst, self.pole_z[rows], self.pole_t[rows],
                         self.has_pole[rows], self.r_f[rows], self.base_z[rows],
                         self.base_t[rows], self.image_z[rows], self.image_t[rows],
                         self.rotation[rows], self.rotations,
                         chains={int(k): self._chains[int(rows[k])] for k in cached})

    def chain(self, k: int) -> ConformalChain:
        """The ConformalChain of row k, built on first use from the normal
        form: tau_b delta_r U J tau_{a^-1} with b = phi(infinity), or
        tau_{y0} U delta_r, leaving out translations by o, delta_1 and U = I."""
        def tau(z, t):
            return [Translate(GPoint(np.ravel(z), np.ravel(t)))] if np.any(z) or np.any(t) else []

        k = int(k)
        if k not in self._chains:
            U = [Rotate(matrix=self.rotations[self.rotation[k]])] if self.rotation[k] else []
            r = [Dilate(self.r_f[k])] if self.r_f[k] != 1.0 else []
            if self.has_pole[k]:
                prims = (tau(*self.image_of_infinity([k])) + r + U + [Invert()]
                         + tau(-self.pole_z[k], -self.pole_t[k]))
            else:
                prims = tau(self.image_z[k], self.image_t[k]) + U + r
            self._chains[k] = ConformalChain(self.group, prims)
        return self._chains[k]

    def _from_offsets(self, rows, VZ, VT):
        """y0 * U v for offsets v = (VZ, VT) of shape (rows, ...)."""
        turn = np.flatnonzero(self.rotation[rows])
        pad = (slice(None),) + (None,) * (VZ.ndim - 2)
        if turn.size:
            VZ[turn] = np.einsum("...ab,...b->...a",
                                 self.rotations[self.rotation[rows[turn]]][pad], VZ[turn])
        return G.mul_many(self.group, self.image_z[rows][pad], self.image_t[rows][pad], VZ, VT)

    def apply(self, rows, Z, T):
        """phi_e of each given row at points (Z, T) broadcastable to (rows, S, .);
        returns arrays of shape (rows, S, m1) and (rows, S, m2).  No pole checks.

        phi_e(x) = y0 * U v: v = delta_r(x) for a similarity, and for a pole
        map v = delta_r(J(p)^-1 J(p u)) with p = a^-1 x0 and u = x0^-1 x, in
        closed form (`inverted_offset_many`)."""
        g = self.group
        rows = np.asarray(rows, dtype=np.int64)
        shape = (rows.size, np.shape(Z)[-2])
        Z = np.broadcast_to(Z, shape + (g.m1,))
        T = np.broadcast_to(T, shape + (g.m2,))
        r = self.r_f[rows][:, None]
        pole = np.flatnonzero(self.has_pole[rows])
        VZ, VT = (G.dilate_many(g, r, Z, T) if pole.size < rows.size else
                  (np.empty(shape + (g.m1,)), np.empty(shape + (g.m2,))))
        if pole.size:
            k = rows[pole][:, None]
            VZ[pole], VT[pole] = inverted_offset_many(
                g, *G.mul_many(g, -self.pole_z[k], -self.pole_t[k], self.base_z[k], self.base_t[k]),
                *G.mul_many(g, -self.base_z[k], -self.base_t[k], Z[pole], T[pole]), r[pole])
        return self._from_offsets(rows, VZ, VT)

    def image_of_infinity(self, rows):
        """phi_e(infinity) of each given row as arrays (rows, m1) and (rows, m2):
        y0 * U delta_r(J(p)^-1) with p = a^-1 x0 for a pole map, inf for a
        similarity (which fixes infinity)."""
        g, rows = self.group, np.asarray(rows, dtype=np.int64)
        Z, T = np.full((rows.size, g.m1), np.inf), np.full((rows.size, g.m2), np.inf)
        sel = np.flatnonzero(self.has_pole[rows])
        k, r = rows[sel], self.r_f[rows[sel]][:, None]
        JZ, JT = Invert().apply_many(g, *G.mul_many(g, -self.pole_z[k], -self.pole_t[k],
                                                    self.base_z[k], self.base_t[k]))
        Z[sel], T[sel] = self._from_offsets(k, -r * JZ, -(r * (r * JT)))
        return Z, T


class EdgeList(Sequence):
    """Read-only sequence of EdgeMap views over an EdgeTable."""

    def __init__(self, table: EdgeTable):
        self.table = table

    def __len__(self):
        return len(self.table)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [EdgeMap._view(self.table, i) for i in range(*k.indices(len(self)))]
        if not -len(self) <= k < len(self):
            raise IndexError("edge index out of range")
        return EdgeMap._view(self.table, k % len(self))


class WordList(Sequence):
    """The words of E_A^n in lexicographic edge order, read-only, enumerated
    again (GdmsSpec.admissible_words) on each pass instead of held."""

    def __init__(self, sys: "GdmsSpec", n: int):
        self.sys, self.n, self._len = sys, n, sys.count_words(n)

    def __len__(self):
        return self._len

    def __iter__(self):
        return self.sys.admissible_words(self.n, math.inf)

    def __getitem__(self, k):
        return list(self)[k]


def _extensions(succ: np.ndarray, lo: np.ndarray, deg: np.ndarray):
    """(parent, last): for each i in turn, the successors succ[lo[i]:lo[i] + deg[i]]
    as last, each with parent i."""
    parent = np.repeat(np.arange(deg.size), deg)
    return parent, succ[np.arange(parent.size) + np.repeat(lo - np.cumsum(deg) + deg, deg)]


class GdmsSpec:
    """Immutable graph directed Markov system.

    `edges` is a sequence of EdgeMap (each with its chain), the `edges` of
    another system, or an EdgeTable.  The system stores its edges as one
    EdgeTable (`table`); `edges[k]` is a view whose chain is built on first
    access.  The certificate, weight brackets and maximalization work on
    the table's rows without building chains.  `weights` (a thermo
    WeightTable, computed on first use by thermo.ensure_weights when None)
    and `cantor_shells` (the shell number of each edge of a shell-mode
    Cantor system) are constructor fields.

    The contraction bound is certified from the normal forms: max_e r_f /
    gap_e^2 (`w_up`), which bounds ||D phi_e|| on X_t(e).  A declared
    `contraction` below it raises ValidationError.  validate="closed_form"
    (the default) also checks that each image ball (`image_balls`) lies in
    X_i(e).  validate="none" skips the containment test and takes a declared
    `contraction` as given (systems built from a certified one, such as the
    hat system of `maximalize`).
    """

    def __init__(self, group: GroupSpec, vertices: Sequence[VertexSet],
                 edges, incidence: Optional[np.ndarray] = None,
                 contraction: Optional[float] = None, weights=None,
                 validate: str = "closed_form",
                 cantor_shells: Optional[np.ndarray] = None):
        self.group = group
        self.vertices: Tuple[VertexSet, ...] = tuple(vertices)
        if isinstance(edges, EdgeList):
            edges = edges.table
        elif not isinstance(edges, EdgeTable):
            edges = list(edges)
            anchor = {v.id: v.anchor(group) for v in self.vertices}
            edges = EdgeTable.from_maps(group, edges, [anchor.get(e.dst, G.origin(group))
                                                       for e in edges]) if edges else None
        if not self.vertices or edges is None or len(edges) == 0:
            raise ValidationError("a system needs at least one vertex and one edge")
        self.table: EdgeTable = edges
        self.edges = EdgeList(edges)
        self.vertex_index: Dict[str, int] = {v.id: k for k, v in enumerate(self.vertices)}
        if len(self.vertex_index) != len(self.vertices):
            raise ValidationError("duplicate vertex ids")
        # IdRows ids are distinct by construction; np.unique sorts long strings slowly
        if edges.id_rows is None and len(set(edges.ids.tolist())) != len(edges):
            raise ValidationError("duplicate edge ids")
        self.src_idx = self._vertex_rows(edges.src)
        self.dst_idx = self._vertex_rows(edges.dst)

        if incidence is not None:
            A = np.asarray(incidence)
            if A.shape != (self.n_edges, self.n_edges):
                raise ValidationError("incidence matrix must be |E| x |E|")
            A = A.astype(bool)
            bad = A & (self.dst_idx[:, None] != self.src_idx[None, :])
            if bad.any():
                a, b = np.argwhere(bad)[0]
                raise ValidationError(
                    f"incidence allows {self.edges[a].id!r}->{self.edges[b].id!r} "
                    "but t(a) != i(b)")
            A.setflags(write=False)  # finite_irreducibility caches its result
            self.incidence = A
        else:
            self.incidence = None  # maximal: admissible iff t(a) == i(b)

        if weights is not None and weights.w_lo.shape != (self.n_edges,):
            raise ValidationError(f"the weight table has {weights.w_lo.size} rows for "
                                  f"{self.n_edges} edges")
        self.weights = weights  # optional thermo.WeightTable
        self.cantor_shells = None if cantor_shells is None else np.asarray(cantor_shells)
        self.max_diam = max(v.diameter for v in self.vertices)
        self._irreducibility = None  # finite_irreducibility() result, once computed

        self._validate_geometry()
        if validate == "closed_form":
            self._check_containment()
        elif validate != "none":
            raise ValidationError(f"unknown validation mode {validate!r}")
        self.contraction = contraction
        if validate == "closed_form" or contraction is None:
            k = int(np.argmax(self.w_up))
            if contraction is None:
                self.contraction = float(self.w_up[k])
            elif contraction < self.w_up[k]:
                raise ValidationError(
                    f"declared contraction bound {contraction:g} is below the certified "
                    f"bound {self.w_up[k]:g} of edge {str(edges.ids[k])!r}")
        if not (0 < self.contraction < 1):
            raise ValidationError(
                f"contraction bound must be in (0,1), got {self.contraction:g}")

    def _vertex_rows(self, names: np.ndarray) -> np.ndarray:
        """Vertex index of each edge's vertex id: one lookup for a column
        with one value (every builder's "X"), else one per edge."""
        index = self.vertex_index
        if (names == names[0]).all():
            rows = np.full(names.size, index.get(str(names[0]), -1))
        else:
            rows = np.fromiter((index.get(s, -1) for s in names.tolist()), np.int64, names.size)
        if (rows < 0).any():
            k = int(np.flatnonzero(rows < 0)[0])
            raise ValidationError(f"edge {str(self.table.ids[k])!r} references unknown vertices")
        return rows

    def vertex_arrays(self):
        """Per-vertex (center z, center t, radius, inner radius) arrays."""
        V = self.vertices
        return (np.stack([v.center.z for v in V]), np.stack([v.center.t for v in V]),
                np.array([v.radius for v in V]), np.array([v.inner_radius for v in V]))

    # -- validation --------------------------------------------------------

    def _validate_geometry(self):
        """d(c_a, c_b) > R_a + R_b for a < b: one dist_many pass per row a finds
        the pairs within 1e-12 of touching, and gauge_dist decides them in
        order (the array power may round the last bit the other way)."""
        g, V = self.group, self.vertices
        cz, ct, R, _ = self.vertex_arrays()
        for a in range(len(V) - 1):
            with np.errstate(over="ignore", invalid="ignore"):
                d = G.dist_many(g, cz[a], ct[a], cz[a + 1:], ct[a + 1:])
            for b in (np.flatnonzero(d <= (R[a] + R[a + 1:]) * (1 + 1e-12)) + a + 1).tolist():
                if G.gauge_dist(g, V[a].center, V[b].center) <= R[a] + R[b]:
                    raise ValidationError(
                        f"vertex sets {V[a].id!r} and {V[b].id!r} are not disjoint")

    @cached_property
    def pole_gaps(self) -> Tuple[np.ndarray, np.ndarray]:
        """(d, gap) per edge.  For a map with pole a, d = d(a, c) to the center
        c of X_t(e) = B(c, R) minus the open ball of radius R_in, and gap =
        max(d - R, R_in - d) is the least distance from a to X_t(e), so that
        r_f / (d + R)^2 <= ||D phi_e|| <= r_f / gap^2 there; gap is 1 for a
        similarity.  Raises ValidationError when a pole touches its domain.
        Coordinates near the float range give a non-finite d, which no
        certificate accepts, so its overflow is not reported here or in
        image_balls and _check_containment."""
        table = self.table
        cz, ct, R, inner = self.vertex_arrays()
        v = self.dst_idx
        with np.errstate(over="ignore", invalid="ignore"):
            d = G.dist_many(self.group, table.pole_z, table.pole_t, cz[v], ct[v])
            gap = np.where(table.has_pole, np.maximum(d - R[v], inner[v] - d), 1.0)
        if (gap <= EPS_FLOOR).any():
            k = int(np.flatnonzero(gap <= EPS_FLOOR)[0])
            raise ValidationError(f"edge {str(table.ids[k])!r}: map blows up at its pole, "
                                  "which touches its domain")
        return d, gap

    @cached_property
    def w_up(self) -> np.ndarray:
        """r_f / gap^2 per edge, the sup of ||D phi_e|| over X_t(e)."""
        return G.inverse_square(self.table.r_f, self.pole_gaps[1])

    @cached_property
    def image_balls(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(center z, center t, radius) per edge of a ball that holds phi_e(X_t(e)).

        A similarity of ratio r_f maps B(c, R) onto B(phi_e(c), r_f R).  A map
        with pole a is S o J o tau_{a^-1} with S a similarity of ratio r_f, so
        the Koranyi-Reimann identity d(Jx, Jy) = d(x, y) / (||x|| ||y||) gives
        d(phi_e x, phi_e c) = r_f d(x, c) / (d(a, x) d) with d = d(a, c), and
        d(phi_e x, phi_e(infinity)) = r_f / d(a, x), where d(a, x) >= gap on
        X_t(e).  Of B(phi_e(c), r_f R / (gap d)) and B(phi_e(infinity), r_f / gap)
        the first is smaller iff d > R, i.e. iff the pole is outside the ball.
        phi_e(c) is the row's y0 where c is its base point, as every builder's is."""
        table, g = self.table, self.group
        cz, ct, R, _ = self.vertex_arrays()
        v = self.dst_idx
        d, gap = self.pole_gaps
        at_c = ~table.has_pole | (d > R[v])
        at_x0 = at_c & (table.base_z == cz[v]).all(axis=1) & (table.base_t == ct[v]).all(axis=1)
        c_rows, inf_rows = np.flatnonzero(at_c & ~at_x0), np.flatnonzero(~at_c)
        Z, T = table.image_z.copy(), table.image_t.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            if c_rows.size:
                FZ, FT = table.apply(c_rows, cz[v[c_rows], None], ct[v[c_rows], None])
                Z[c_rows], T[c_rows] = FZ[:, 0], FT[:, 0]
            if inf_rows.size:
                Z[inf_rows], T[inf_rows] = table.image_of_infinity(inf_rows)
            return Z, T, table.r_f / gap * np.where(
                at_c, R[v] / np.where(at_c & table.has_pole, d, 1.0), 1.0)

    def _check_containment(self):
        """phi_e(X_t(e)) in X_i(e): each image ball lies in X_i(e)'s ball, outside its hole."""
        Z, T, rho = self.image_balls
        cz, ct, R, inner = self.vertex_arrays()
        s = self.src_idx
        with np.errstate(over="ignore", invalid="ignore"):
            d = G.dist_many(self.group, cz[s], ct[s], Z, T)
            ok = (d + rho <= R[s] * (1 + 1e-12)) & ((d - rho >= inner[s] * (1 - 1e-12))
                                                    | (inner[s] == 0))
        if not ok.all():
            k = int(np.flatnonzero(~ok)[0])
            v = self.vertices[s[k]]
            dist = f"{d[k]:g}" if np.isfinite(d[k]) else "a distance that is not finite"
            raise ValidationError(
                f"edge {str(self.table.ids[k])!r}: image ball (radius {rho[k]:g}, "
                f"{dist} from the center of X_{v.id!r}) escapes X_{v.id!r} "
                f"(radii {v.inner_radius:g} to {v.radius:g})")

    # -- basic structure ---------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def admissible_pair(self, a, b):
        """Whether b may follow a; elementwise for arrays of edge indices."""
        if self.incidence is None:
            return self.dst_idx[a] == self.src_idx[b]
        return self.incidence[a, b]

    @cached_property
    def _index(self):
        """The successor index (succ, row, ptr, cell), built on first use: the
        edges that may follow edge a are succ[ptr[r]:ptr[r + 1]], r = row[a],
        ascending; cell[k] = r * n + row[succ[k]] (n rows) places succ[k] of
        row r in the row-by-row transfer matrix."""
        if self.incidence is None:  # rows t(a): the edges stably sorted by i(e)
            succ = np.argsort(self.src_idx, kind="stable")
            ptr = np.searchsorted(self.src_idx[succ], np.arange(len(self.vertices) + 1))
            row = self.dst_idx
        else:  # rows a: the incidence row by row
            succ = np.flatnonzero(self.incidence) % self.n_edges
            ptr = np.concatenate(([0], np.cumsum(self.incidence.sum(axis=1))))
            row = np.arange(self.n_edges)
        succ.setflags(write=False)  # successors() hands out views of it
        n = ptr.size - 1
        cell = np.repeat(np.arange(n) * n, np.diff(ptr)) + row[succ]
        return succ, row, ptr, cell

    def successors(self, a: int) -> np.ndarray:
        """The edges that may follow a, ascending (a read-only view of the index)."""
        succ, row, ptr, _ = self._index
        return succ[ptr[row[a]]:ptr[row[a] + 1]]

    # -- words -------------------------------------------------------------

    def count_words(self, n: int):
        """|E_A^n|, or math.inf past the float range.  c[r] counts the words of
        length k that may follow an edge of index row r: c = N^k 1 if maximal,
        N the |V| x |V| edge-count matrix."""
        if n == 0:
            return 1
        succ, row, ptr, _ = self._index
        rows = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
        c = np.ones(ptr.size - 1)
        for _ in range(n - 1):
            c = np.bincount(rows, weights=c[row[succ]], minlength=c.size)
        total = float(c[row].sum())
        return int(round(total)) if math.isfinite(total) else math.inf

    def word_blocks(self, n: int, budget: int = DEFAULT_WORD_BUDGET
                    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """The words of lengths 1..n in depth-first blocks of at most WORD_BLOCK
        words (or of one word's successors): (k, parent, last) holds words of
        length k, word i being word parent[i] of the latest block of length
        k - 1 (the empty word if k = 1) followed by edge last[i].  The blocks of
        each length list E_A^k in lexicographic edge order.  BudgetError when
        n or |E_A^n| exceeds budget."""
        if n < 0:
            raise ValidationError("word length must be >= 0")
        # one level of blocks per letter: a length past the budget is refused
        # before count_words takes its n - 1 steps
        if n > budget:
            raise BudgetError(f"words of length {n} take {n} block levels (budget {budget})",
                              estimate=n, budget=budget)
        count = self.count_words(n)
        if count > budget:
            raise BudgetError(f"E_A^{n} has ~{count} words (budget {budget})",
                              estimate=count, budget=budget)
        if n == 0:
            return
        succ_all, row, ptr, _ = self._index

        def extend(k, lo, deg, succ):
            """Nonempty blocks of the extensions by succ[lo[i]:lo[i] + deg[i]] of
            the words i of length k, each paired with whether words of length
            k remain after its run."""
            cum = np.concatenate(([0], np.cumsum(deg)))
            p0 = 0
            while p0 < lo.size:
                # the next run of words with at most WORD_BLOCK extensions in all
                p1 = max(int(np.searchsorted(cum, cum[p0] + WORD_BLOCK, "right")) - 1, p0 + 1)
                parent, last = _extensions(succ, lo[p0:p1], deg[p0:p1])
                if last.size:
                    yield (k + 1, parent + p0, last), p1 < lo.size
                p0 = p1

        # one generator per word length on an explicit stack, so that each
        # block is followed by its own extensions at any depth; a generator
        # leaves the stack with its last block, so that a chain of one-block
        # lengths keeps the stack one deep: the empty word is followed by
        # every edge
        stack = [extend(0, np.zeros(1, dtype=np.int64), np.array([self.n_edges]),
                        np.arange(self.n_edges))]
        while stack:
            item = next(stack[-1], None)
            if item is None:
                stack.pop()
                continue
            block, more = item
            if not more:
                stack.pop()
            yield block
            k, _, last = block
            if k < n:
                r = row[last]
                stack.append(extend(k, ptr[r], ptr[r + 1] - ptr[r], succ_all))

    def admissible_words(self, n: int, budget: int = DEFAULT_WORD_BUDGET) -> Iterator[Word]:
        """Words of E_A^n in lexicographic edge order."""
        blocks = [None] * (n + 1)
        for k, parent, last in self.word_blocks(n, budget):
            blocks[k] = parent, last
            if k == n:  # read the block back through the latest block of each length
                idx, letters = np.arange(last.size), []
                for up, letter in blocks[n:0:-1]:
                    letters.append(letter[idx].tolist())
                    idx = up[idx]
                yield from zip(*letters[::-1])
        if n == 0:
            yield ()

    def check_word(self, word: Word):
        for a, b in zip(word, word[1:]):
            if not self.admissible_pair(a, b):
                raise ValidationError(
                    f"word is not admissible at {self.edges[a].id!r}->{self.edges[b].id!r}")

    def word_map(self, word: Word) -> ConformalChain:
        """The composed chain phi_w = phi_{w1} o ... o phi_{wn}."""
        if not word:
            raise ValidationError("word_map needs a nonempty word")
        self.check_word(word)
        return compose_all([self.edges[a].chain for a in word])

    def coding_point(self, word: Word, anchor: Optional[GPoint] = None):
        """(phi_w(anchor), error bound) with the bound s^n * max diam(X_v); the
        anchor defaults to VertexSet.anchor of the domain vertex."""
        if not word:
            raise ValidationError("coding_point needs a nonempty word")
        self.check_word(word)
        v_dom = self.vertices[self.dst_idx[word[-1]]]
        if anchor is None:
            anchor = v_dom.anchor(self.group)
        else:
            ok = v_dom.contains(self.group, anchor.z[None, :], anchor.t[None, :])
            if not ok[0]:
                raise ValidationError("anchor lies outside the domain vertex set")
        point = self.word_map(word).apply(anchor)
        bound = self.contraction ** len(word) * self.max_diam
        return point, bound

    # -- limit set ---------------------------------------------------------

    def limit_set_cloud(self, depth: int, mode: str = "deterministic",
                        samples: int = 10000, seed: int = 0,
                        markov: Optional[np.ndarray] = None,
                        budget: int = DEFAULT_WORD_BUDGET) -> "PointCloud":
        """phi_w(anchor) for every word w of E_A^depth ("deterministic", in
        lexicographic order) or for `samples` random words ("chaos": the first
        letter uniform or stationary, each next one a uniform successor or a
        `markov` step).  The working set is the cloud's arrays, the chaos
        words (int32), and one block of EXPORT_BLOCK_ROWS points.  `budget`
        bounds the letters of the words: word count x depth, deterministic,
        or samples x depth, chaos."""
        if depth < 0:
            raise ValidationError("depth must be >= 0")
        if mode not in ("deterministic", "chaos"):
            raise ValidationError(f"unknown limit-set mode {mode!r}")
        g = self.group
        anchors = [v.anchor(g) for v in self.vertices]  # words start at these points
        AZ, AT = np.stack([p.z for p in anchors]), np.stack([p.t for p in anchors])
        if depth == 0:
            return PointCloud(g, AZ, AT, np.full(len(self.vertices), self.max_diam))
        bound = self.contraction ** depth * self.max_diam
        if mode == "deterministic":
            # each word has depth letters: a depth past the budget is refused
            # before count_words takes its depth - 1 steps
            if depth > budget:
                raise BudgetError(f"deterministic cloud of depth {depth} needs at least "
                                  f"{depth} letters (budget {budget} letters)",
                                  estimate=depth, budget=budget)
            count = self.count_words(depth)
            if count * depth > budget:
                raise BudgetError(f"deterministic cloud needs {count} words of {depth} letters "
                                  f"(budget {budget} letters)",
                                  estimate=count * depth, budget=budget)

            succ, row, ptr, _ = self._index

            def level(edges, blocks):
                """Level-k blocks {phi_w(anchor) : w in E_A^k, w_1 = a} of the
                edges: phi_a of the anchor of t(a) (k = 1) or of the level-(k - 1)
                blocks of a's successors, concatenated once per run of edges
                of one index row (t(a) if maximal, a if not)."""
                last = None
                for a in edges:
                    if row[a] != last:
                        P, last = None, row[a]  # free the last row's points first
                        if blocks is None:
                            P = AZ[[self.dst_idx[a]]], AT[[self.dst_idx[a]]]
                        else:
                            s = succ[ptr[last]:ptr[last + 1]]  # none for a dead end
                            P = (np.concatenate([blocks[b][0] for b in s] + [np.empty((0, g.m1))]),
                                 np.concatenate([blocks[b][1] for b in s] + [np.empty((0, g.m2))]))
                    # bind no name: the consumer frees each block before the next
                    yield tuple(X[0] for X in self.table.apply([a], *P))

            blocks, order = None, np.argsort(row, kind="stable").tolist()
            for _ in range(depth - 1):
                blocks = dict(zip(order, level(order, blocks)))
            # the last level goes straight into the cloud, one edge at a time
            Z, T = np.empty((count, g.m1)), np.empty((count, g.m2))
            end = 0
            for FZ, FT in level(range(self.n_edges), blocks):
                Z[end:end + len(FZ)], T[end:end + len(FZ)] = FZ, FT
                end += len(FZ)
                del FZ, FT  # before the next edge's block is computed
            return PointCloud(g, Z, T, np.full(count, bound))
        if samples < 0:
            raise ValidationError(f"samples must be >= 0, got {samples}")
        if seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}")
        # the sampler steps through every position, also for no samples
        letters = max(samples, 1) * depth
        if letters > budget:
            raise BudgetError(f"chaos cloud needs {samples} words of {depth} letters "
                              f"(budget {budget} letters)", estimate=letters, budget=budget)
        words = self._sample_words(depth, samples, np.random.default_rng(seed), markov)
        Z, T = np.empty((samples, g.m1)), np.empty((samples, g.m2))
        for start in range(0, samples, EXPORT_BLOCK_ROWS):
            rows = slice(start, start + EXPORT_BLOCK_ROWS)
            w = words[rows]
            # phi_w(anchor) by applying edges from the innermost position out
            dst_last = self.dst_idx[w[:, -1]]
            z, t = AZ[dst_last], AT[dst_last]
            for j in range(depth - 1, -1, -1):
                z, t = self.table.apply(w[:, j], z[:, None], t[:, None])
                z, t = z[:, 0], t[:, 0]
            Z[rows], T[rows] = z, t
        return PointCloud(g, Z, T, np.full(samples, bound))

    def _sample_words(self, depth: int, samples: int, rng: np.random.Generator,
                      markov: Optional[np.ndarray]) -> np.ndarray:
        """(samples, depth) int32 words.  Position j takes one draw per letter
        a at position j - 1, in ascending a, sized by the samples holding a
        and assigned to them in ascending sample order."""
        nE = self.n_edges
        words = np.empty((samples, depth), dtype=np.int32)
        if markov is None:
            _, row, ptr, _ = self._index
            dead = np.flatnonzero(np.diff(ptr)[row] == 0)
            if dead.size:
                raise ValidationError(f"edge {self.edges[dead[0]].id!r} has no successors")
            words[:, 0] = rng.integers(0, nE, size=samples)
            draw = lambda a, n: rng.choice(self.successors(a), size=n)
        else:
            P = np.asarray(markov, float)
            if P.shape != (nE, nE):
                raise ValidationError("Markov matrix must be |E| x |E|")
            if not np.allclose(P.sum(axis=1), 1.0, atol=1e-9):
                raise ValidationError("Markov matrix rows must be stochastic")
            if not self.admissible_pair(*np.nonzero(P > 0)).all():
                raise ValidationError("Markov matrix support violates the incidence")
            pi = stationary_distribution(P)
            words[:, 0] = rng.choice(nE, size=samples, p=pi)
            draw = lambda a, n: rng.choice(nE, size=n, p=P[a])
        for j in range(1, depth):
            prev = words[:, j - 1]
            # samples grouped by previous letter, each group in ascending sample order
            order = np.argsort(prev, kind="stable")
            counts = np.bincount(prev, minlength=nE)
            ends = np.cumsum(counts)
            for a in np.flatnonzero(counts):
                group = order[ends[a] - counts[a]:ends[a]]
                words[group, j] = draw(int(a), group.size)
        return words

    # -- irreducibility and maximalization ---------------------------------

    def finite_irreducibility(self, max_pairs: int = 4_000_000):
        """Strong-connectivity test with a BFS witness set Phi.

        Returns ("irreducible", Phi) where Phi is a tuple of words such that
        for all edges i, j some w in Phi makes i w j admissible, or
        ("reducible", (i, j)) exhibiting an unconnectable edge pair.
        `max_pairs` bounds the pairs of successor-index rows (vertices if
        maximal, edges if not).  The result is kept on the system (its
        incidence array is read-only).
        """
        n = self._index[2].size - 1
        if n * n > max_pairs:
            raise BudgetError(f"irreducibility witness over {n}^2 index-row pairs exceeds "
                              "budget", estimate=n * n, budget=max_pairs)
        if self._irreducibility is None:
            self._irreducibility = self._witness_search()
        return self._irreducibility

    def _witness_search(self):
        """One BFS per index row, from its first edge i.  Each row records the
        word w that first reached it, the witness of i w j for the edges j it
        reaches first: the words of an edge-by-edge BFS, row by row."""
        succ, row, ptr, _ = self._index
        phi = set()
        for i in np.sort(np.unique(row, return_index=True)[1]).tolist():
            reached, seen = np.zeros(self.n_edges, dtype=bool), np.zeros(ptr.size - 1, dtype=bool)
            seen[row[i]] = True
            queue = [(row[i], ())]  # rows in BFS order: grows while it is read
            for r, word in queue:
                s = succ[ptr[r]:ptr[r + 1]]
                new = s[~reached[s]]
                reached[new] = True
                if new.size:
                    phi.add(word)
                for x in new[np.sort(np.unique(row[new], return_index=True)[1])].tolist():
                    if not seen[row[x]]:  # x is the first new edge of its row
                        seen[row[x]] = True
                        queue.append((row[x], word + (x,)))
            if not reached.all():
                return ("reducible", (self.edges[i].id, self.edges[int(np.argmin(reached))].id))
        return ("irreducible", tuple(sorted(phi)))

    def maximalize(self) -> "GdmsSpec":
        """Hat construction: vertices = old edges, edges = admissible pairs.

        The vertex of edge e is its image ball (`image_balls`), which holds
        phi_e(X_t(e)).
        """
        table = self.table
        Z, T, rho = self.image_balls
        old = table.ids.tolist()
        names = np.array([f"v[{e}]" for e in old], dtype=str)
        new_vertices = [VertexSet(id=str(names[a]), center=GPoint(Z[a], T[a]),
                                  radius=float(rho[a]))
                        for a in range(self.n_edges)]
        # the admissible pairs (a, b) in lexicographic order, from the successor index
        succ, row, ptr, _ = self._index
        a, b = _extensions(succ, ptr[row], np.diff(ptr)[row])
        new_table = table.take(a, [f"{old[i]}|{old[j]}" for i, j in zip(a.tolist(), b.tolist())],
                               names[a], names[b])
        return GdmsSpec(self.group, new_vertices, new_table, incidence=None,
                        contraction=self.contraction, validate="none")

    def __repr__(self):
        inc = "maximal" if self.incidence is None else "explicit"
        return (f"GdmsSpec({len(self.vertices)} vertices, {self.n_edges} edges, "
                f"{inc}, s={self.contraction:g})")


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary law of a row-stochastic P, solved directly: pi (P - I) = 0
    and sum pi = 1 by least squares, on P's rows scaled to sum 1 (rows that
    are stochastic to a rounding give the exact chain's law).  It is the
    law of P's one closed class, periodic or not; of several, the least-norm
    mixture.  Entries that round below 0 are 0."""
    P = np.asarray(P, float)
    n = P.shape[0]
    A = np.vstack([(P / P.sum(axis=1, keepdims=True)).T - np.eye(n), np.ones(n)])
    pi = np.maximum(np.linalg.lstsq(A, np.eye(n + 1)[n], rcond=None)[0], 0.0)
    return pi / pi.sum()


# rows per block of the text exports and of the chaos-cloud evaluation
EXPORT_BLOCK_ROWS = 1 << 12


def _write_rows(fh, columns: List[np.ndarray], sep: str):
    """Rows of equal-length 1-D columns as `%.17g` fields joined by sep, one
    line each.

    Each block of EXPORT_BLOCK_ROWS rows is stacked from slices of the
    columns and formatted by a single `%` over a repeated row template,
    which gives the same text as formatting every value with f"{v:.17g}".
    """
    row = sep.join(["%.17g"] * len(columns)) + "\n"
    n = columns[0].shape[0]
    for start in range(0, n, EXPORT_BLOCK_ROWS):
        block = np.column_stack([c[start:start + EXPORT_BLOCK_ROWS] for c in columns])
        fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


@dataclass
class PointCloud:
    """Limit-set sample: coordinates plus per-point error bounds."""

    group: GroupSpec
    Z: np.ndarray
    T: np.ndarray
    err: np.ndarray

    def __len__(self):
        return self.Z.shape[0]

    def header(self) -> List[str]:
        g = self.group
        return ([f"z{j+1}" for j in range(g.m1)] +
                [f"t{j+1}" for j in range(g.m2)] + ["err"])

    def write_csv(self, fh):
        """Header and one `%.17g` row per point (z, t, err) to a text file."""
        fh.write(",".join(self.header()) + "\n")
        _write_rows(fh, list(self.Z.T) + list(self.T.T) + [self.err], ",")

    def to_csv(self, path):
        with open(path, "w") as fh:
            self.write_csv(fh)

    def to_ply(self, path):
        """ASCII PLY of the first three coordinates (zero-padded)."""
        coords = (list(self.Z.T) + list(self.T.T))[:3]
        coords += [np.broadcast_to(0.0, (len(self),))] * (3 - len(coords))
        with open(path, "w") as fh:
            fh.write("ply\nformat ascii 1.0\n")
            fh.write(f"element vertex {len(self)}\n")
            fh.write("property double x\nproperty double y\nproperty double z\n")
            fh.write("end_header\n")
            _write_rows(fh, coords, " ")
