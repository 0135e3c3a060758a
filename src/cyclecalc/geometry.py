"""Embedded geometry: spaces, closed sets, morphisms.

A Space is an ordered list of affine and projective blocks with globally
distinct variable names.  Closed sets are multihomogeneous ideals, kept
saturated with respect to every irrelevant ideal so that equality of closed
sets is equality of ideals.  Morphisms are polynomial coordinate tuples,
homogeneous of one multidegree on each projective target block.

The properness policy lives here: a projection is certified proper on Z when
every eliminated block is projective, or when each eliminated affine variable
admits a monic eliminant along Z.  Nothing else is ever silently assumed;
uncertifiable questions raise PolicyReject.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .errors import EngineError, PolicyReject, RingMismatch
from .fields import field_of_characteristic
from .groebner import (
    Ideal,
    eliminate,
    groebner,
    ideal_intersect,
    is_unit_ideal,
    krull_dim,
    monic_eliminant,
    radical_member,
    saturate,
)
from .orders import block_order
from .poly import Frozen, Poly, Ring


class Block(Frozen):
    _fields = ("kind", "names")  # kind: 'affine' | 'proj'

    def __init__(self, kind: str, names: tuple):
        if kind not in ("affine", "proj"):
            raise EngineError(f"unknown block kind {kind}")
        if kind == "proj" and len(names) < 2:
            raise EngineError("projective block needs at least 2 coordinates")
        super().__init__(kind, names)

    @property
    def dim(self) -> int:
        return len(self.names) - (1 if self.kind == "proj" else 0)


def affine(*names: str) -> Block:
    return Block("affine", tuple(names))


def proj(*names: str) -> Block:
    return Block("proj", tuple(names))


class Space:
    """Product of affine and projective blocks over one characteristic."""

    __slots__ = ("blocks", "characteristic", "ring", "_block_index", "_hash")

    def __init__(self, blocks: Sequence[Block], characteristic: int = 0):
        self.blocks = tuple(blocks)
        self.characteristic = characteristic
        names = [n for b in self.blocks for n in b.names]
        self.ring = Ring(names, field_of_characteristic(characteristic))
        self._block_index = []
        pos = 0
        for b in self.blocks:
            self._block_index.append(tuple(range(pos, pos + len(b.names))))
            pos += len(b.names)
        self._hash = hash((self.blocks, characteristic))

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @property
    def n_proj_blocks(self) -> int:
        return sum(1 for b in self.blocks if b.kind == "proj")

    def block_var_indices(self, k: int) -> tuple:
        return self._block_index[k]

    def proj_block_indices(self) -> list:
        return [self._block_index[k] for k, b in enumerate(self.blocks) if b.kind == "proj"]

    def irrelevant_ideals(self) -> list:
        return [Ideal(self.ring, [self.ring.var(i) for i in idx]) for idx in self.proj_block_indices()]

    def multidegree(self, p: Poly) -> tuple | None:
        """Per-projective-block degree when p is multihomogeneous, else None."""
        degs = []
        for idx in self.proj_block_indices():
            block_degs = {sum(e[i] for i in idx) for e in p.terms}
            if len(block_degs) > 1:
                return None
            degs.append(block_degs.pop() if block_degs else 0)
        return tuple(degs)

    def __eq__(self, other):
        return (
            isinstance(other, Space)
            and self.blocks == other.blocks
            and self.characteristic == other.characteristic
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        bits = []
        for b in self.blocks:
            tag = "A" if b.kind == "affine" else "P"
            bits.append(f"{tag}({','.join(b.names)})")
        return " x ".join(bits) if bits else "point"


class ProductStructure:
    """A product space plus the variable embeddings of its factors."""

    def __init__(self, space: Space, factors: tuple, embeddings: tuple):
        self.space = space
        self.factors = factors
        self.embeddings = embeddings  # per factor: dict factor var index -> product var index

    def factor_var_indices(self, k: int) -> set:
        return set(self.embeddings[k].values())

    def inject_ideal(self, k: int, I: Ideal) -> Ideal:
        emb = self.embeddings[k]
        return Ideal(
            self.space.ring,
            [g.inject(self.space.ring, emb) for g in I.gens],
        )

    def product(self, a: ClosedSet, b: ClosedSet) -> ClosedSet:
        """a x b, for a on the first factor and b on the second."""
        gens = self.inject_ideal(0, a.ideal).gens + self.inject_ideal(1, b.ideal).gens
        return ClosedSet(self.space, Ideal(self.space.ring, gens))

    def project(self, cs: ClosedSet, k: int) -> ClosedSet:
        """Closure of the projection of `cs` (in the product) to factor k."""
        ring = self.space.ring
        keep = self.factor_var_indices(k)
        J = eliminate(cs.ideal, [ring.vars[i] for i in range(ring.nvars) if i not in keep])
        back = {J.ring.index(ring.vars[i]): local for local, i in self.embeddings[k].items()}
        factor = self.factors[k]
        return ClosedSet(factor, Ideal(factor.ring, [g.inject(factor.ring, back) for g in J.gens]))


def product_space(
    spaces: Sequence[Space], tags: Sequence[str] | None = None, force_tags: bool = False
) -> ProductStructure:
    """Concatenate block lists; colliding variable names get factor tags."""
    chars = {s.characteristic for s in spaces}
    if len(chars) != 1:
        raise EngineError("product across characteristics")
    if tags is None:
        tags = [str(k + 1) for k in range(len(spaces))]
    all_names = [n for s in spaces for b in s.blocks for n in b.names]
    collide = force_tags or len(set(all_names)) != len(all_names)
    blocks = []
    embeddings = []
    pos = 0
    for k, s in enumerate(spaces):
        emb = {}
        for b in s.blocks:
            names = tuple(f"{n}@{tags[k]}" if collide else n for n in b.names)
            blocks.append(Block(b.kind, names))
            for j in range(len(names)):
                emb[len(emb)] = pos
                pos += 1
        embeddings.append(emb)
    space = Space(blocks, spaces[0].characteristic)
    return ProductStructure(space, tuple(spaces), tuple(embeddings))


class ClosedSet:
    """A saturated multihomogeneous ideal in a Space."""

    __slots__ = ("space", "ideal", "_dim", "_gb", "_hash")

    def __init__(self, space: Space, I: Ideal):
        if I.ring != space.ring:
            raise RingMismatch("ideal not in the space's coordinate ring")
        for g in I.gens:
            if space.multidegree(g) is None:
                raise EngineError(
                    f"generator not multihomogeneous in projective blocks: {g}"
                )
        for irr in space.irrelevant_ideals():
            I = saturate(I, irr)
        self.space = space
        self.ideal = I
        self._dim = None
        self._gb = None
        self._hash = None

    # -- basics -------------------------------------------------------------

    def gb(self):
        if self._gb is None:
            self._gb = groebner(self.ideal)
        return self._gb

    def is_empty(self) -> bool:
        return self.gb().is_unit()

    def is_whole_space(self) -> bool:
        return not [g for g in self.ideal.gens if not g.is_zero()]

    @property
    def dim(self) -> int:
        """Geometric dimension (cone dimension minus one per projective block)."""
        if self._dim is None:
            if self.is_empty():
                self._dim = -1
            else:
                self._dim = krull_dim(self.ideal) - self.space.n_proj_blocks
        return self._dim

    @property
    def codim(self) -> int:
        return self.space.dim - self.dim

    def cone_codim(self) -> int:
        if self.is_empty():
            raise EngineError("codimension of the empty set")
        return self.space.ring.nvars - krull_dim(self.ideal)

    # -- set operations -------------------------------------------------------

    def intersect(self, other: "ClosedSet") -> "ClosedSet":
        self._same_space(other)
        return ClosedSet(self.space, Ideal(self.space.ring, self.ideal.gens + other.ideal.gens))

    def union(self, other: "ClosedSet") -> "ClosedSet":
        self._same_space(other)
        return ClosedSet(self.space, ideal_intersect(self.ideal, other.ideal))

    def contains(self, other: "ClosedSet") -> bool:
        """Set-theoretic containment: other ⊆ self."""
        self._same_space(other)
        if other.is_empty():
            return True
        return all(
            radical_member(g, other.ideal) for g in self.ideal.gens
        )

    def same_locus(self, other: "ClosedSet") -> bool:
        return self.contains(other) and other.contains(self)

    def _same_space(self, other: "ClosedSet"):
        if self.space != other.space:
            raise RingMismatch("closed sets in different spaces")

    def __eq__(self, other):
        if not isinstance(other, ClosedSet):
            return NotImplemented
        return self.space == other.space and self.gb().basis == other.gb().basis

    def __hash__(self):
        # hash by reduced GB so equal closed sets collide
        if self._hash is None:
            self._hash = hash((self.space, tuple(self.gb().basis)))
        return self._hash

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.ideal.gens) or "0"
        return f"V({gens})"


def closed_set(space: Space, *gens: Poly) -> ClosedSet:
    return ClosedSet(space, Ideal(space.ring, list(gens)))


def whole_space(space: Space) -> ClosedSet:
    return ClosedSet(space, Ideal(space.ring, []))


def empty_set(space: Space) -> ClosedSet:
    return ClosedSet(space, Ideal(space.ring, [space.ring.one()]))


def union_of(space: Space, sets: Iterable[ClosedSet]) -> ClosedSet:
    """The union of closed sets of `space`, folded left to right from the
    first; `empty_set(space)` when there are none."""
    out = None
    for cs in sets:
        out = cs if out is None else out.union(cs)
    return empty_set(space) if out is None else out


def point_set(space: Space, coords: Mapping[str, object]) -> ClosedSet:
    """The reduced point with the given affine coordinates (affine blocks only)."""
    gens = []
    ring = space.ring
    for b, idxs in zip(space.blocks, [space.block_var_indices(k) for k in range(len(space.blocks))]):
        if b.kind != "affine":
            raise EngineError("point_set supports affine blocks only; use ideals for projective points")
        for i in idxs:
            gens.append(ring.var(i) - ring.const(coords[ring.vars[i]]))
    return ClosedSet(space, Ideal(ring, gens))


class Morphism:
    """A polynomial map between spaces.

    `coords` holds one tuple of source-ring polynomials per target block; on
    projective target blocks the tuple must be multihomogeneous of one shared
    multidegree.  `domain` optionally restricts the source.  The base locus
    (common zeros of a projective block's tuple) is computed; morphisms with
    nonempty base locus act as rational maps and are accepted only by the
    graph/closure operations.
    """

    __slots__ = ("source", "target", "coords", "domain", "_base_locus")

    def __init__(
        self,
        source: Space,
        target: Space,
        coords: Sequence[Sequence[Poly]],
        domain: ClosedSet | None = None,
    ):
        self.source = source
        self.target = target
        if len(coords) != len(target.blocks):
            raise EngineError("one coordinate tuple per target block required")
        coords = tuple(tuple(c) for c in coords)
        for block, tup in zip(target.blocks, coords):
            if len(tup) != len(block.names):
                raise EngineError(f"coordinate tuple arity mismatch for block {block}")
            degs = set()
            for p in tup:
                if p.ring != source.ring:
                    raise RingMismatch("coordinate polynomial not in source ring")
                deg = source.multidegree(p)
                if deg is None:
                    raise EngineError(f"coordinate not multihomogeneous: {p}")
                if not p.is_zero():
                    degs.add(deg)
            if block.kind == "proj" and len(degs) != 1:
                raise EngineError("projective coordinates must share one multidegree")
        self.coords = coords
        if domain is not None and domain.space != source:
            raise RingMismatch("domain restriction lives in the wrong space")
        self.domain = domain
        self._base_locus = None

    # -- derived data --------------------------------------------------------

    def base_locus(self) -> ClosedSet:
        """Locus (within the domain) where some projective tuple vanishes."""
        if self._base_locus is None:
            extra = list(self.domain.ideal.gens) if self.domain is not None else []
            self._base_locus = union_of(self.source, (
                ClosedSet(self.source, Ideal(self.source.ring, list(tup) + extra))
                for block, tup in zip(self.target.blocks, self.coords)
                if block.kind == "proj"
            ))
        return self._base_locus

    def is_regular(self) -> bool:
        return self.base_locus().is_empty()

    def coordinate_images(self) -> dict:
        """Target ring var index -> Poly in source ring (all blocks)."""
        return {
            i: p for k, tup in enumerate(self.coords) for i, p in zip(self.target.block_var_indices(k), tup)
        }

    def compose(self, other: "Morphism") -> "Morphism":
        """self ∘ other (apply other first).

        The outer morphism must be total; a domain restriction or base locus
        on `other` carries over to the composite.
        """
        if other.target != self.source:
            raise RingMismatch("composition type mismatch")
        images = other.coordinate_images()
        new_coords = []
        for tup in self.coords:
            new_coords.append(
                tuple(p.substitute(images, other.source.ring) for p in tup)
            )
        return Morphism(other.source, self.target, new_coords, other.domain)

    def __repr__(self):
        bits = []
        for tup in self.coords:
            bits.append("(" + ", ".join(map(str, tup)) + ")")
        return f"Morphism[{' ,'.join(bits)}]"


def identity_morphism(space: Space) -> Morphism:
    coords = [tuple(map(space.ring.var, space.block_var_indices(k))) for k in range(len(space.blocks))]
    return Morphism(space, space, coords)


# ---------------------------------------------------------------------------
# graphs, images, preimages

def graph_relations(f: Morphism, prod: ProductStructure) -> list:
    """Graph equations of f inside prod = source x target."""
    ring = prod.space.ring
    src_emb, tgt_emb = prod.embeddings[0], prod.embeddings[1]
    gens = []
    for k, (block, tup) in enumerate(zip(f.target.blocks, f.coords)):
        fs = [p.inject(ring, src_emb) for p in tup]
        ys = [ring.var(tgt_emb[i]) for i in f.target.block_var_indices(k)]
        if block.kind == "affine":
            gens += [y - fp for y, fp in zip(ys, fs)]
        else:
            for i in range(len(ys)):
                for j in range(i + 1, len(ys)):
                    gens.append(ys[i] * fs[j] - ys[j] * fs[i])
    return gens


def graph_closure(
    f: Morphism,
    over: ClosedSet | None = None,
    prod: ProductStructure | None = None,
    target: ClosedSet | None = None,
):
    """Closure of the graph of f over `over` (default: the whole source),
    cut by `target` in the target (default: none).

    Components over the base locus / outside the domain are saturated away, so
    this is the right construction for rational maps as well.

    Returns (ClosedSet in the product space, ProductStructure).  A product
    structure for [source, target] may be supplied to control naming.
    """
    if prod is None:
        prod = product_space([f.source, f.target], tags=("src", "tgt"))
    ring = prod.space.ring
    gens = list(graph_relations(f, prod))
    src_emb = prod.embeddings[0]
    if over is not None:
        if over.space != f.source:
            raise RingMismatch("`over` must live in the source")
        gens += [g.inject(ring, src_emb) for g in over.ideal.gens]
    if f.domain is not None:
        gens += [g.inject(ring, src_emb) for g in f.domain.ideal.gens]
    if target is not None:
        gens += [g.inject(ring, prod.embeddings[1]) for g in target.ideal.gens]
    I = Ideal(ring, gens)
    bl = f.base_locus()
    if not bl.is_empty():
        I = saturate(I, prod.inject_ideal(0, bl.ideal))
    cs = ClosedSet(prod.space, I)
    if cs.is_empty():
        raise EngineError("graph closure is empty (restriction misses the domain)")
    return cs, prod


def image_closure(f: Morphism, Z: ClosedSet, graph: tuple | None = None) -> ClosedSet:
    """Zariski closure of f(Z).

    `graph` is graph_closure(f, over=Z) when the caller has already built it.
    """
    if Z.space != f.source:
        raise RingMismatch("Z not in the source of f")
    graph, prod = graph or graph_closure(f, over=Z)
    return prod.project(graph, 1)


def pullback_form(f: Morphism, w):
    """Pull a differential form on the target back along f.

    Coordinates substitute as polynomials and d commutes with the
    substitution, so d(f*g) = f*(dg) holds by construction.
    """
    if w.ring != f.target.ring:
        raise RingMismatch("form does not live on the target of f")
    return w.pullback(f.coordinate_images(), f.source.ring)


def preimage(f: Morphism, W: ClosedSet) -> ClosedSet:
    """Scheme-theoretic preimage ideal (then ambient saturation)."""
    if W.space != f.target:
        raise RingMismatch("W not in the target of f")
    images = f.coordinate_images()
    gens = [g.substitute(images, f.source.ring) for g in W.ideal.gens]
    if f.domain is not None:
        gens += list(f.domain.ideal.gens)
    return ClosedSet(f.source, Ideal(f.source.ring, gens))


# ---------------------------------------------------------------------------
# properness policy

def _projection_finiteness_gap(I: Ideal, drop_affine_idx: Sequence[int]) -> list:
    """Dropped affine variables lacking a monic eliminant (empty = finite)."""
    if not drop_affine_idx:
        return []
    ring = I.ring
    keep = [i for i in range(ring.nvars) if i not in set(drop_affine_idx)]
    order = block_order(list(drop_affine_idx), keep)
    gb = groebner(I, order)
    return [i for i in drop_affine_idx if monic_eliminant(gb, i) is None]


def projection_proper_certificate(Z: ClosedSet, keep_factor: set, prod: ProductStructure) -> bool:
    """Certify that projecting Z onto the given factors is proper.

    keep_factor: indices of prod factors retained by the projection.  The
    eliminated projective blocks are universally proper; eliminated affine
    variables must be integral along Z (after eliminating the projective
    directions).  The empty set is proper.  Returns True when certified;
    raises PolicyReject otherwise.
    """
    if Z.is_empty():
        return True
    space = Z.space
    keep_vars: set = set()
    for k in keep_factor:
        keep_vars |= prod.factor_var_indices(k)
    drop_proj: list = []
    drop_affine: list = []
    for k, b in enumerate(space.blocks):
        idxs = space.block_var_indices(k)
        if set(idxs) <= keep_vars:
            continue
        if set(idxs) & keep_vars:
            raise EngineError("projection must drop whole blocks")
        if b.kind == "proj":
            drop_proj += list(idxs)
        else:
            drop_affine += list(idxs)

    names = space.ring.vars
    J = eliminate(Z.ideal, [names[i] for i in drop_proj])
    missing = _projection_finiteness_gap(J, [J.ring.index(names[i]) for i in drop_affine])
    if missing:
        raise PolicyReject(
            "no monic eliminant for eliminated affine variable(s): "
            + ", ".join(J.ring.vars[i] for i in missing)
        )
    return True


def is_finite_over(Z: ClosedSet, f: Morphism) -> bool:
    """Is Z finite over the target along f (monic-eliminant certificate)?

    Returns True/False for affine sources; projective source blocks cannot be
    certified finite by this test and raise PolicyReject.
    """
    if Z.space != f.source:
        raise RingMismatch("Z not in the source of f")
    if any(b.kind == "proj" for b in f.source.blocks):
        raise PolicyReject("finiteness test requires an affine source")
    graph, prod = graph_closure(f, over=Z)
    drop = sorted(prod.factor_var_indices(0))
    missing = _projection_finiteness_gap(graph.ideal, drop)
    return not missing


# ---------------------------------------------------------------------------
# witnesses

def jacobian_rank(gens: Sequence[Poly], point_by_index: Mapping[int, object], ring: Ring) -> int:
    """Rank of the Jacobian matrix of `gens` at a point of `ring`, given by variable index."""
    mat = [[g.derivative(i).eval_point(point_by_index) for i in range(ring.nvars)] for g in gens]
    return matrix_rank(mat, ring.field)


def matrix_rank(rows, field) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != field.zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != field.zero:
                factor = rows[i][c]
                rows[i] = [
                    field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])
                ]
        r += 1
        if r == len(rows):
            break
    return r


def point_by_name_to_index(ring: Ring, point: Mapping[str, object]) -> dict:
    return {ring.index(name): ring.field.coerce(v) for name, v in point.items()}


def lies_on(cs: ClosedSet, point: Mapping[str, object]) -> bool:
    pt = point_by_name_to_index(cs.space.ring, point)
    return all(g.eval_point(pt) == cs.space.ring.field.zero for g in cs.ideal.gens)


def smooth_at(cs: ClosedSet, point: Mapping[str, object]) -> bool:
    """Jacobian-rank smoothness certificate at a declared rational point."""
    ring = cs.space.ring
    if not lies_on(cs, point):
        raise EngineError("witness point does not lie on the closed set")
    pt = point_by_name_to_index(ring, point)
    return jacobian_rank(cs.ideal.gens, pt, ring) == cs.cone_codim()


# ---------------------------------------------------------------------------
# declared-prime components

class PrimeComponent:
    """A closed set declared irreducible, with a documented sanity screen.

    The screen is not a primality proof: it rejects the unit ideal, dimension
    mismatches, and principal generators that are visibly non-reduced (the
    singular locus fails to drop dimension).  Scenario authors own the
    declaration; the engine owns these checks.
    """

    __slots__ = ("closed_set", "label")

    def __init__(self, closed_set_: ClosedSet, label: str = "", screen: bool = True):
        self.closed_set = closed_set_
        self.label = label or repr(closed_set_)
        if screen:
            self.sanity_screen()

    @property
    def space(self) -> Space:
        return self.closed_set.space

    @property
    def dim(self) -> int:
        return self.closed_set.dim

    def sanity_screen(self):
        cs = self.closed_set
        if cs.is_empty():
            raise EngineError(f"declared-prime component {self.label} is empty")
        gens = [g for g in cs.ideal.gens if not g.is_zero()]
        if len(gens) == 1:
            g = gens[0]
            ring = cs.space.ring
            derivs = [g.derivative(i) for i in range(ring.nvars)]
            sing = Ideal(ring, [g] + derivs)
            if not is_unit_ideal(sing):
                if krull_dim(sing) >= krull_dim(cs.ideal):
                    raise EngineError(
                        f"declared-prime component {self.label} fails the screen: "
                        "singular locus does not drop dimension (non-reduced?)"
                    )

    def __eq__(self, other):
        return isinstance(other, PrimeComponent) and self.closed_set == other.closed_set

    def __hash__(self):
        return hash(self.closed_set)

    def __repr__(self):
        return f"[{self.label}]"
