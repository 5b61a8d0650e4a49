"""Orbit graphs of the fixed-point-free acyclic complexes, the induced
group presentations and dimension identities.

Graphs come in two flavours sharing one data type: symbolic graphs carry
only stabilizer specs (enough for the dimension and restriction identities
at any q), while concrete graphs over a matrix model also carry
explicit stabilizer subgroups and connecting elements g_e, found by
deterministic scans, and support presentations and word evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from fractions import Fraction
from itertools import repeat
from typing import Optional

import numpy as np

from .chars import (
    CharacterTable, centralizer_dim, fusion_for, rho0_character,
)
from .draws import choice, integers, uniform
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
        return self.model is not None

    @cached_property
    def tree_paths(self):
        """The edge-orbit indices of the unique tree path root -> v, for
        every vertex v in order; NotFound if the tree does not span.  Built
        once per graph."""
        paths = {self.root: []}
        order = [self.root]
        while order:
            u = order.pop()
            for i, e in enumerate(self.edges):
                if e.in_tree and e.s == u and e.w not in paths:
                    paths[e.w] = paths[u] + [i]
                    order.append(e.w)
        for v in range(len(self.vertices)):
            if v not in paths:
                raise NotFound(f"vertex {v} not reached by the tree")
        return [paths[v] for v in range(len(self.vertices))]

    @cached_property
    def word_symbols(self):
        """The place of every word symbol row, as an (n, 2) array: first
        x_e for every edge e, at (-1, e); then i_v(g) for every vertex v
        and the i-th element g of G_v, at (v, i).  Rows n to 2n - 1 are the
        same symbols with exponent -1, in the same order.  Built once per
        graph."""
        return np.array([(-1, i) for i in range(len(self.edges))] + [
            (vi, i) for vi, v in enumerate(self.vertices)
            for i in range(len(v.sub.elements))], dtype=np.intp)

    def vertex_row(self, v):
        """The row of i_v(g) for the first element g of G_v; the element
        at place i of G_v is i rows on.  vertex_row(len(vertices)) is the
        number of rows at exponent 1."""
        return len(self.edges) + sum(len(u.sub.elements)
                                     for u in self.vertices[:v])

    @cached_property
    def walk_steps(self):
        """The moves of the closed walks, as arrays (first, count, moves).
        The moves from vertex v are the columns first[v] + range(count[v])
        of `moves`, one for each twist t in G_v (major) and edge option:
        along the edges leaving v, then against those entering it.  A
        column holds the word rows of i_v(t) and of x_e^eps, the next
        vertex, and the entries (a, b, c, d) of t g_e^eps, all products
        from one mul_many call.  Built on first use."""
        model, half = self.model, len(self.word_symbols)
        edges, moves, first = list(enumerate(self.edges)), [], []
        for v, vertex in enumerate(self.vertices):
            # the rows of x_e and of x_e^-1, the next vertex, g_e^+-1
            options = [(i, e.g, e.w) for i, e in edges if e.s == v] + \
                [(i + half, model.inv(e.g), e.s) for i, e in edges
                 if e.w == v]
            first.append(len(moves))
            moves += [(row, x, nxt, *t, *f)
                      for row, t in enumerate(vertex.sub.elements,
                                              self.vertex_row(v))
                      for x, f, nxt in options]
        first = np.array(first + [len(moves)], dtype=np.intp)
        moves = np.array(moves, dtype=np.intp)
        return (first[:-1], np.diff(first), np.vstack(
            [moves[:, :3].T, model.mul_many(moves[:, 3:7], moves[:, 7:]).T]))


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
    """The orbit graph of _stabilizer_plan with k extra free edge orbits
    attached at the root.

    Without a matrix `model` the stabilizers are symbolic.  With one they
    are those of build_subgroup, and every edge has its connecting element:
    1 on a tree edge, on the closing edge the first element that conjugates
    the edge group's generators into the target vertex group, and on the
    free edges the first elements outside the root group, all in index
    order.  A concrete graph is validated.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if model is not None and (model.family != family or model.q != q):
        raise ValueError("model does not match the requested family/q")
    vtags, especs = _stabilizer_plan(family, q)
    subgroup = partial(symbolic_subgroup, family, q) if model is None \
        else partial(build_subgroup, model)
    vertices = [VertexOrbit(f"v{i}", subgroup(t, p))
                for i, (t, p) in enumerate(vtags)]
    edges = []
    for i, (t, p, s, w, tree) in enumerate(especs):
        sub, g = subgroup(t, p), None
        if model is not None:
            target = vertices[w].sub.index
            g = IDENTITY if tree else first(model.scan(), lambda h: all(
                model.conjugate(x, model.inv(h)) in target
                for x in sub.gens))
        edges.append(EdgeOrbit(f"eta{i}", sub, s, w, tree, g=g))
    root = vertices[0].sub.index
    free = repeat(None) if model is None else \
        (g for g in model.scan() if g not in root)
    for i in range(k):
        edges.append(EdgeOrbit(f"eta'{i + 1}", subgroup("trivial"), 0, 0,
                               False, free=True, g=next(free)))
    graph = OrbitGraph(family, q, k, vertices, edges, model)
    if model is not None:
        validate_graph(graph)
    return graph


def validate_graph(graph: OrbitGraph):
    """Edge-stabilizer containments and tree shape of a concrete graph.
    Returns True or raises InvalidGraph (NotFound if the tree does not
    span)."""
    model = graph.model
    n_tree = sum(1 for e in graph.edges if e.in_tree)
    if n_tree != len(graph.vertices) - 1:
        raise InvalidGraph(f"{n_tree} tree edges for "
                           f"{len(graph.vertices)} vertices")
    graph.tree_paths            # raises if the tree does not span
    for e in graph.edges:
        source, target = (graph.vertices[i].sub.index for i in (e.s, e.w))
        if any(x not in source for x in e.sub.elements):
            raise InvalidGraph(f"{e.name}: G_e not in source")
        if e.in_tree and e.g != IDENTITY:
            raise InvalidGraph(f"{e.name}: tree edge with g != 1")
        gi = model.inv(e.g)
        if any(model.conjugate(x, gi) not in target for x in e.sub.elements):
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
    model: GroupModel = field(init=False, repr=False)     # the graph's

    def __post_init__(self):
        if not self.graph.concrete:
            raise ValueError("a presentation needs a concrete graph")
        self.model = self.graph.model

    # a word is a sequence of rows of graph.word_symbols

    def x(self, e, exp=1):
        """The row of x_e^exp."""
        return self._row(("x", e, exp),
                         e if e in range(len(self.graph.edges)) else None)

    def v(self, vidx, g, exp=1):
        """The row of i_v(g)^exp."""
        graph, row = self.graph, None
        if vidx in range(len(graph.vertices)):
            i = graph.vertices[vidx].sub.index.get(g)
            row = None if i is None else graph.vertex_row(vidx) + i
        return self._row(("v", vidx, g, exp), row)

    def _row(self, sym, row):
        """The row of sym from the row of its symbol at exponent 1, which
        is None for a symbol that the graph lacks."""
        if row is None or sym[-1] not in (1, -1):
            raise ValueError(f"unknown word symbol {sym!r}")
        graph = self.graph
        return row + (sym[-1] < 0) * graph.vertex_row(len(graph.vertices))

    @cached_property
    def elements(self):
        """The image under phi of every word symbol row: g_e for x_e, g for
        i_v(g), and their inverses for exponent -1."""
        graph = self.graph
        direct = [graph.edges[i].g if vi < 0 else
                  graph.vertices[vi].sub.elements[i]
                  for vi, i in graph.word_symbols.tolist()]
        return direct + [self.model.inv(g) for g in direct]

    def phi(self, word):
        """The quotient morphism: x_e -> g_e, i_v(g) -> g."""
        mul, elements = self.model.mul, self.elements
        acc = IDENTITY
        for row in np.asarray(word, dtype=np.intp).tolist():
            acc = mul(acc, elements[row])
        return acc

    def relations(self):
        """Type (i) tree relations and type (ii) conjugation relations,
        as (lhs_word, rhs_word) pairs."""
        rels = []
        for ei, e in enumerate(self.graph.edges):
            if e.in_tree:
                rels.append(((self.x(ei),), ()))
            gi = self.model.inv(e.g)
            for g in e.sub.elements:
                conj = self.model.conjugate(g, gi)
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


def brown_presentation(graph: OrbitGraph) -> BrownPresentation:
    pres = BrownPresentation(graph)
    if not pres.verify():
        raise NotFound("the presentation relations do not verify")
    return pres


# -- random words, closed edge paths and kernel words --------------------------

_WALK_STEPS = 14            # a closed walk has 4 to 14 steps
_WALK_BATCH = 8             # walks drawn per closed walk still missing


def _closed_walks(graph: OrbitGraph, rng, n):
    """n closed walks from the root vertex: the rows of graph.walk_steps
    that each walk takes, and its closing prefix.

    A round walks _WALK_BATCH walks for every walk still missing, in
    lockstep, from a (14, walks) array of uniforms u: step j of a walk at
    vertex v takes its move floor(u[j] count[v]), a uniform twist t in G_v
    and a uniform edge option.  A walk is cut at its first step from the
    4th on that ends at the root vertex with the prefix in the root group;
    a walk with no such step is dropped.  The first n walks to close, in
    order, have the law of a walk drawn again until it closes within 14
    steps.  The prefixes of a round are one (walks, 4) array of matrices,
    stepped by one mul_rows call per step; in PSL2 only the closing
    prefixes are folded to canonical form.  The root group is the Borel
    subgroup, which holds the prefix c exactly when the bottom row (r, s)
    of c has r = 0; InvalidGraph if a closing prefix is not in it."""
    first, count, moves = graph.walk_steps
    root, model = graph.root, graph.model
    walks, ends = [], []
    while len(walks) < n:
        u = uniform(rng, (_WALK_STEPS, _WALK_BATCH * (n - len(walks))))
        at = np.full(u.shape[1], root)
        pre = np.tile(IDENTITY, (u.shape[1], 1))          # the prefixes
        taken = np.empty(u.shape, dtype=np.intp)
        length = np.zeros(u.shape[1], dtype=np.intp)    # 0 while open
        closing = np.empty_like(pre)
        for j, uj in enumerate(u):
            taken[j] = step = first[at] + (uj * count[at]).astype(np.intp)
            at = moves[2, step]
            pre = model.mul_rows(pre, moves[3:, step].T)
            if j >= 3:          # from the 4th step on; c = 0 for either sign
                now = (length == 0) & (at == root) & (pre[:, 2] == 0)
                length[now] = j + 1
                closing[now] = pre[now]
        done = np.flatnonzero(length)[:n - len(walks)]
        walks += [taken[:length[k], k] for k in done]
        ends += map(tuple, model.canonical_many(closing[done]).tolist())
    if any(c not in graph.vertices[root].sub.index for c in ends):
        raise InvalidGraph("closed walk leaves the root group")
    return walks, ends


def random_closed_path(graph: OrbitGraph, rng, n):
    """n closed edge paths (a_i, e_i, eps_i) of 4 to 14 legs, based at the
    root vertex, from the walks of _closed_walks.  A leg along e has
    a = c t, against e a = c t g_e^-1, for the prefix c before the step and
    its twist t."""
    model, places = graph.model, graph.word_symbols.tolist()
    moves, half = graph.walk_steps[2], len(places)
    paths = []
    for walk in _closed_walks(graph, rng, n)[0]:
        legs, c = [], IDENTITY
        for twist, edge, _, *step in moves[:, walk].T.tolist():
            vi, i = places[twist]
            t = graph.vertices[vi].sub.elements[i]
            prev, c = c, model.mul(c, tuple(step))
            if edge < half:
                legs.append((model.mul(prev, t), edge, 1))
            else:
                legs.append((c, edge - half, -1))
        paths.append(legs)
    return paths


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
        if h not in graph.vertices[vidx].sub.index:
            raise InvalidGraph("path legs do not line up")
        word.append(pres.v(vidx, h))
        word.append(pres.x(ei, eps))
        prefix = model.mul(prefix, step)
    if prefix not in graph.vertices[graph.root].sub.index:
        raise InvalidGraph("closed path does not return to the root group")
    word.append(pres.v(graph.root, prefix, -1))
    return _in_kernel(pres, np.array(word, dtype=np.intp))


def _in_kernel(pres: BrownPresentation, word):
    if pres.phi(word) != IDENTITY:
        raise InvalidGraph("path word does not map to 1")
    return word


def word_inverse(pres: BrownPresentation, word):
    """The inverse word: the rows reversed, each with its exponent
    flipped."""
    half = len(pres.graph.word_symbols)
    return (np.asarray(word, dtype=np.intp)[::-1] + half) % (2 * half)


def random_word(pres: BrownPresentation, rng, length, size=()):
    """Random words of `length` symbols (not generally in the kernel), as
    an array of rows of shape size + (length,), one word by default.  Each
    symbol is x_e for a uniform edge e or i_v(g) for a uniform vertex v
    and g in G_v, with equal odds, and either exponent with equal odds."""
    graph = pres.graph
    vertex = graph.word_symbols[:, 0]
    order = np.array([len(v.sub.elements) for v in graph.vertices])
    weight = np.where(vertex < 0, 1 / len(graph.edges),
                      1 / (len(graph.vertices) * order[vertex])) / 4
    return choice(rng, np.tile(weight, 2), (*np.atleast_1d(size), length))


def random_kernel_word(pres: BrownPresentation, rng, n):
    """n random elements of ker(phi), each with equal odds a closed-path
    word w, a conjugate u w u^-1 by a random word u of 1 to 4 symbols, or a
    commutator w v w^-1 v^-1 of two.  A walk's word is written from its
    moves: i_v(t) x_e^eps for each step, with the twist t that path_to_word
    would recover from the legs, then i_root(c)^-1 for the closing prefix
    c; InvalidGraph unless phi maps it to 1."""
    graph = pres.graph
    styles = integers(rng, 0, 3, n).tolist()
    moves = graph.walk_steps[2]
    paths = iter([_in_kernel(pres, np.append(
        moves[:2, walk].T.ravel(), pres.v(graph.root, c, -1)))
        for walk, c in zip(*_closed_walks(
            graph, rng, n + styles.count(2)))])
    conj = iter(zip(random_word(pres, rng, 4, styles.count(1)),
                    integers(rng, 1, 5, styles.count(1)).tolist()))
    out = []
    for style in styles:
        w = next(paths)
        if style == 1:
            u, cut = next(conj)
            w = np.concatenate([u[:cut], w, word_inverse(pres, u[:cut])])
        elif style == 2:
            v = next(paths)
            w = np.concatenate([w, v, word_inverse(pres, w),
                                word_inverse(pres, v)])
        out.append(w)
    return out
