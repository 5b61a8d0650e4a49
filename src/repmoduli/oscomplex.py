"""Orbit graphs of the fixed-point-free acyclic complexes, the induced
group presentations and dimension identities.

Graphs come in two flavours sharing one data type: symbolic graphs carry
only stabilizer specs (enough for the dimension and restriction identities
at any q), while concrete graphs over a matrix model also carry
explicit stabilizer subgroups and connecting elements g_e, found by
deterministic scans, and support presentations and word evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from .chars import (
    CharacterTable, centralizer_dim, fusion_for, rho0_character,
)
from .groups import (
    IDENTITY, GroupModel, NotFound, SubgroupSpec, build_subgroup, first,
    symbolic_subgroup,
)


class InvalidGraph(ValueError):
    """A concrete orbit graph or edge path breaks a stabilizer containment
    that its construction guarantees."""


@dataclass
class VertexOrbit:
    name: str
    sub: SubgroupSpec


@dataclass
class EdgeOrbit:
    name: str
    sub: SubgroupSpec
    s: int                      # source vertex-orbit index
    w: int                      # target representative vertex-orbit index
    in_tree: bool
    free: bool = False
    g: Optional[tuple] = None   # connecting element; identity on tree edges


@dataclass
class OrbitGraph:
    family: str
    q: int
    k: int
    vertices: list
    edges: list
    model: Optional[GroupModel] = None
    root: int = 0

    @property
    def concrete(self):
        return self.model is not None and self.model.spec is not None

    def tree_path(self, v):
        """Edge-orbit indices of the unique tree path root -> v."""
        parent = {self.root: None}
        order = [self.root]
        while order:
            u = order.pop()
            for i, e in enumerate(self.edges):
                if e.in_tree and e.s == u and e.w not in parent:
                    parent[e.w] = (u, i)
                    order.append(e.w)
        if v not in parent:
            raise NotFound(f"vertex {v} not reached by the tree")
        path = []
        while parent[v] is not None:
            u, i = parent[v]
            path.append(i)
            v = u
        return list(reversed(path))

    @cached_property
    def word_symbols(self):
        """(rows, places): the row of every word symbol, and the place of
        every row.  First x_e for every edge e, at (-1, e); then (v, g) for
        every vertex v and the i-th element g of G_v, at (v, i); then the
        same symbols with exponent -1, their places those of the rows
        len(places) before.  Built once per graph."""
        places = [(-1, i) for i in range(len(self.edges))] + [
            (vi, i) for vi, v in enumerate(self.vertices)
            for i in range(len(v.sub.elements))]
        symbols = [("x", i) if vi < 0 else
                   ("v", vi, self.vertices[vi].sub.elements[i])
                   for vi, i in places]
        rows = {sym + (exp,): row + (exp < 0) * len(places)
                for exp in (1, -1) for row, sym in enumerate(symbols)}
        return rows, np.array(places, dtype=np.intp)

    @cached_property
    def vertex_sets(self):
        """The element set of every vertex stabilizer, once per graph."""
        return [frozenset(v.sub.elements) for v in self.vertices]

    @cached_property
    def walk_steps(self):
        """For each vertex v and twist t in G_v, the moves (e, eps, t,
        t g_e^eps, next vertex) of random_closed_path: along the edges
        leaving v, then against those entering it.  Built on first use."""
        mul, edges = self.model.mul, list(enumerate(self.edges))
        options = [[(i, 1, e.g, e.w) for i, e in edges if e.s == v] +
                   [(i, -1, self.model.inv(e.g), e.s) for i, e in edges
                    if e.w == v] for v in range(len(self.vertices))]
        return [[[(i, eps, t, mul(t, f), nxt) for i, eps, f, nxt in moves]
                 for t in vertex.sub.elements]
                for vertex, moves in zip(self.vertices, options)]


def _stabilizer_plan(family, q):
    """(vertex tags, edge specs) per family; edge spec = (tag, param, s, w,
    in_tree). The closing edge's target depends on the congruence class."""
    if family == "psl2_even":
        vertices = [("borel", 0), ("dihedral_split", 0),
                    ("dihedral_nonsplit", 0)]
        edges = [("cyclic", q - 1, 0, 1, True),
                 ("cyclic", 2, 1, 2, True),
                 ("cyclic", 2, 2, 0, False)]
    elif family == "psl2_odd":
        vertices = [("borel", 0), ("dihedral_split", 0),
                    ("dihedral_nonsplit", 0), ("a4", 0)]
        closing_w = 2 if q % 24 == 11 else 0
        edges = [("cyclic", (q - 1) // 2, 0, 1, True),
                 ("cyclic", 2, 1, 2, True),
                 ("klein4", 0, 2, 3, True),
                 ("cyclic", 3, 3, closing_w, False)]
    elif family == "sz":
        vertices = [("borel", 0), ("dihedral_split", 0),
                    ("torus_normalizer", 1), ("torus_normalizer", -1)]
        edges = [("cyclic", q - 1, 0, 1, True),
                 ("cyclic", 2, 1, 2, True),
                 ("c4", 0, 2, 3, True),
                 ("c4", 0, 3, 0, False)]
    else:
        raise ValueError(f"no orbit graph for family {family!r}")
    return vertices, edges


def build_orbit_graph(family, q, k=0, model=None) -> OrbitGraph:
    """The orbit graph with k extra free edge orbits attached at the root.

    With a matrix `model`, stabilizers and connecting elements are
    concrete.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    vtags, especs = _stabilizer_plan(family, q)
    if model is None:
        vertices = [VertexOrbit(f"v{i}", symbolic_subgroup(family, q, t, p))
                    for i, (t, p) in enumerate(vtags)]
        edges = [EdgeOrbit(f"eta{i}", symbolic_subgroup(family, q, t, p),
                           s, w, tree)
                 for i, (t, p, s, w, tree) in enumerate(especs)]
        for i in range(k):
            edges.append(EdgeOrbit(f"eta'{i + 1}",
                                   symbolic_subgroup(family, q, "trivial"),
                                   0, 0, False, free=True))
        return OrbitGraph(family, q, k, vertices, edges)
    return _build_concrete(family, q, k, model)


def _build_concrete(family, q, k, model):
    """The graph of _stabilizer_plan with the stabilizers of build_subgroup;
    the connecting element of a closing edge is the first that conjugates
    the edge group's generators into the target vertex group."""
    if model.family != family or model.q != q:
        raise ValueError("model does not match the requested family/q")
    vtags, especs = _stabilizer_plan(family, q)
    vertices = [VertexOrbit(f"v{i}", build_subgroup(model, t, p))
                for i, (t, p) in enumerate(vtags)]
    edges = []
    for i, (t, p, s, w, tree) in enumerate(especs):
        sub = build_subgroup(model, t, p)
        g = IDENTITY
        if not tree:
            target = set(vertices[w].sub.elements)
            g = first(model.scan(), lambda h: all(
                model.conjugate(x, model.inv(h)) in target
                for x in sub.gens))
        edges.append(EdgeOrbit(f"eta{i}", sub, s, w, tree, g=g))
    root = set(vertices[0].sub.elements)
    free = (g for g in model.scan() if g not in root)
    trivial = build_subgroup(model, "trivial")
    for i in range(k):
        edges.append(EdgeOrbit(f"eta'{i + 1}", trivial, 0, 0, False,
                               free=True, g=next(free)))
    graph = OrbitGraph(family, q, k, vertices, edges, model)
    validate_graph(graph)
    return graph


def validate_graph(graph: OrbitGraph):
    """Edge-stabilizer containments and tree shape, on concrete graphs.
    Returns True or raises InvalidGraph (NotFound if the tree does not
    span)."""
    model = graph.model
    n_tree = sum(1 for e in graph.edges if e.in_tree)
    if n_tree != len(graph.vertices) - 1:
        raise InvalidGraph(f"{n_tree} tree edges for "
                           f"{len(graph.vertices)} vertices")
    for v in range(len(graph.vertices)):
        graph.tree_path(v)      # raises if the tree does not span
    if not graph.concrete:
        return True
    for e in graph.edges:
        sv, wv = graph.vertex_sets[e.s], graph.vertex_sets[e.w]
        if not sv.issuperset(e.sub.elements):
            raise InvalidGraph(f"{e.name}: G_e not in source")
        if e.in_tree and e.g != IDENTITY:
            raise InvalidGraph(f"{e.name}: tree edge with g != 1")
        gi = model.inv(e.g)
        if any(model.mul(model.mul(gi, x), e.g) not in wv
               for x in e.sub.elements):
            raise InvalidGraph(f"{e.name}: conjugated stabilizer leaves target")
    return True


# -- dimension identities --------------------------------------------------------

@dataclass
class ModuliDimensionReport:
    family: str
    q: int
    k: int
    degree: int
    edge_dims: list
    vertex_dims: list
    dim_moduli: int
    dim_gauge: int
    dim_quotient: int
    dim_target: int
    equal: bool

    def to_json(self):
        return {"family": self.family, "q": self.q, "k": self.k,
                "degree": self.degree, "edge_dims": self.edge_dims,
                "vertex_dims": self.vertex_dims,
                "dim_moduli": self.dim_moduli, "dim_gauge": self.dim_gauge,
                "dim_quotient": self.dim_quotient,
                "dim_target": self.dim_target, "equal": self.equal}


def moduli_dimension_report(graph: OrbitGraph,
                            table: CharacterTable) -> ModuliDimensionReport:
    """Compare dim of the gauge quotient with dim of the target group power."""
    rho0 = rho0_character(table)
    m = rho0.degree
    edge_dims = [centralizer_dim(rho0, fusion_for(table, e.sub))
                 for e in graph.edges]
    vertex_dims = [centralizer_dim(rho0, fusion_for(table, v.sub))
                   for i, v in enumerate(graph.vertices) if i != graph.root]
    dim_m = sum(edge_dims)
    dim_h = sum(vertex_dims)
    target = (graph.k + 1) * m * m
    return ModuliDimensionReport(
        graph.family, graph.q, graph.k, m, edge_dims, vertex_dims,
        dim_m, dim_h, dim_m - dim_h, target, dim_m - dim_h == target)


def euler_identity(graph: OrbitGraph, table: CharacterTable):
    """Character-level Euler relation for an acyclic complex built on the
    graph plus one free 2-cell orbit, as its two class-weight vectors
    (lhs, rhs), one Fraction per column of the table.  lhs sums the class
    weights of G and of every edge stabilizer, rhs those of every vertex
    stabilizer plus the free 2-cell, which weighs the identity class
    (column 0) to give d d^T.  Each side of the relation for a pair of
    irreducibles (phi, psi) is sum_x w_x phi(x) conj(psi(x)), linear in the
    weights; the irreducibles are a basis of the class functions, so the
    relation holds for every pair exactly when lhs == rhs."""
    lhs = [Fraction(s, table.order) for s in table.sizes]
    rhs = [Fraction(1)] + [Fraction(0)] * (len(lhs) - 1)
    for cells, weights in ((graph.edges, lhs), (graph.vertices, rhs)):
        for cell in cells:
            fusion = fusion_for(table, cell.sub)
            counts = [fusion.get(lab, 0) for lab in table.labels]
            size = sum(counts)
            weights[:] = [w + Fraction(c, size)
                          for w, c in zip(weights, counts)]
    return lhs, rhs


# -- Brown presentation -----------------------------------------------------------

@dataclass
class BrownPresentation:
    graph: OrbitGraph
    model: GroupModel

    def __post_init__(self):
        if not self.graph.concrete:
            raise ValueError("a presentation needs a concrete graph")

    # words are tuples of symbols ('x', edge_index, +-1) and
    # ('v', vertex_index, element, +-1)

    def x(self, e, exp=1):
        return ("x", e, exp)

    def v(self, vidx, g, exp=1):
        return ("v", vidx, g, exp)

    def phi(self, word):
        """The quotient morphism: x_e -> g_e, i_v(g) -> g."""
        model = self.model
        acc = IDENTITY
        for sym in word:
            if sym[0] == "x":
                _, e, exp = sym
                f = self.graph.edges[e].g
            else:
                _, _, f, exp = sym
            acc = model.mul(acc, f if exp == 1 else model.inv(f))
        return acc

    def relations(self):
        """Type (i) tree relations and type (ii) conjugation relations,
        as (lhs_word, rhs_word) pairs."""
        rels = []
        for ei, e in enumerate(self.graph.edges):
            if e.in_tree:
                rels.append(((self.x(ei),), ()))
            for g in e.sub.elements:
                conj = self.model.mul(
                    self.model.mul(self.model.inv(e.g), g), e.g)
                lhs = (self.x(ei, -1), self.v(e.s, g), self.x(ei))
                rhs = (self.v(e.w, conj),)
                rels.append((lhs, rhs))
        return rels

    def verify(self):
        """The relations are sound: validate_graph raises InvalidGraph unless
        g_e^-1 G_e g_e lies in G_w for every edge, which makes every type (ii)
        rhs a vertex-group element.  phi itself kills every relation by
        construction: a type (i) relation is x_e = 1 with g_e = 1 on tree
        edges, and relations() builds the type (ii) rhs as the very product
        g_e^-1 g g_e that phi reads off the lhs."""
        return validate_graph(self.graph)


def brown_presentation(graph: OrbitGraph, model: GroupModel) -> BrownPresentation:
    pres = BrownPresentation(graph, model)
    if not pres.verify():
        raise NotFound("the presentation relations do not verify")
    return pres


# -- closed edge paths and kernel words --------------------------------------------

def random_closed_path(graph: OrbitGraph, rng):
    """A closed edge path (a_i, e_i, eps_i) of 4 to 14 legs, based at the
    root vertex.

    Each step draws a twist t in G_v, then an edge; a walk not closed in the
    root group within 14 steps is drawn again.  The root group is the
    Borel subgroup, which holds the prefix c exactly when the bottom row
    (r, s) of c has r = 0, so the walk carries only that row.  A leg along
    e has a = c t, formed with the prefixes once the walk is accepted."""
    model, steps = graph.model, graph.walk_steps
    add, mul = model.spec.add_table, model.spec.mul_table
    while True:
        r, s, vidx, walk = 0, 1, graph.root, []
        for _ in range(14):
            walk.append(rng.choice(rng.choice(steps[vidx])))
            _, _, _, (a, b, c, d), vidx = walk[-1]
            r, s = add[mul[r][a]][mul[s][c]], add[mul[r][b]][mul[s][d]]
            if vidx == graph.root and len(walk) >= 4 and r == 0:
                break
        else:
            continue
        legs, c = [], IDENTITY
        for ei, eps, t, step, _ in walk:
            prev, c = c, model.mul(c, step)
            legs.append((model.mul(prev, t) if eps == 1 else c, ei, eps))
        if c not in graph.vertex_sets[graph.root]:
            raise InvalidGraph("closed walk leaves the root group")
        return legs


def path_to_word(pres: BrownPresentation, legs):
    """The kernel word of a closed edge path, with stabilizer memberships
    checked along the way."""
    graph, model = pres.graph, pres.model
    word = []
    prefix = IDENTITY
    for a, ei, eps in legs:
        e = graph.edges[ei]
        if eps == 1:
            h = model.mul(model.inv(prefix), a)
            vidx = e.s
            step = model.mul(h, e.g)
        else:
            h = model.mul(model.mul(model.inv(prefix), a), e.g)
            vidx = e.w
            step = model.mul(h, model.inv(e.g))
        if h not in graph.vertex_sets[vidx]:
            raise InvalidGraph("path legs do not line up")
        word.append(pres.v(vidx, h))
        word.append(pres.x(ei, eps))
        prefix = model.mul(prefix, step)
    if prefix not in graph.vertex_sets[graph.root]:
        raise InvalidGraph("closed path does not return to the root group")
    word.append(pres.v(graph.root, prefix, -1))
    if pres.phi(tuple(word)) != IDENTITY:
        raise InvalidGraph("path word does not map to 1")
    return tuple(word)


def word_inverse(word):
    return tuple((s[0], s[1], s[2], -s[3]) if s[0] == "v"
                 else (s[0], s[1], -s[2]) for s in reversed(word))


def random_word(pres: BrownPresentation, rng, length=8):
    """A random word in the presentation generators (not generally in the
    kernel)."""
    graph = pres.graph
    out = []
    for _ in range(length):
        if rng.random() < 0.5:
            ei = rng.randrange(len(graph.edges))
            out.append(pres.x(ei, rng.choice((1, -1))))
        else:
            vi = rng.randrange(len(graph.vertices))
            g = rng.choice(graph.vertices[vi].sub.elements)
            out.append(pres.v(vi, g, rng.choice((1, -1))))
    return tuple(out)


def random_kernel_word(pres: BrownPresentation, rng):
    """A random element of ker(phi): conjugated closed-path words and
    commutators of such."""
    base = path_to_word(pres, random_closed_path(pres.graph, rng))
    style = rng.randrange(3)
    if style == 0:
        return base
    if style == 1:
        u = random_word(pres, rng, rng.randrange(1, 5))
        return u + base + word_inverse(u)
    other = path_to_word(pres, random_closed_path(pres.graph, rng))
    return base + other + word_inverse(base) + word_inverse(other)
