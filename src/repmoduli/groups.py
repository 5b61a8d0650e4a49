"""Explicit models of SL2(q) and PSL2(q) with conjugacy classification,
subgroup construction and class fusion; class data for every family.

`class_data_model(family, q)` is the one source of class labels, class
sizes, element orders and group order, for the matrix groups, Sz(q), and the
dihedral and cyclic groups whose tables the restrictions use.  It returns a
frozen `ClassData` whose sizes and orders are read-only mappings, so a
cached table cannot be altered through its class data.  The sizes and
element orders of Sz(q) come from the closed-form centralizer orders
(Suzuki 1962), never from its table, so the table's orthogonality checks
test them.

A `GroupModel` is a matrix group over a field, built on the `ClassData` of
its family.  It indexes its elements by their 4-tuples of int-encoded field
entries (row major, determinant 1; in PSL2 the smaller of x and -x) in
sorted order, and builds the i-th one in closed form, so the group is never
listed.  An element's conjugacy class is read off its trace, and its order
is the order of that class; the orbit-graph stabilizers are built from
generators.  Every search scans in index order, so that every derived choice
is reproducible.

Sz(q) is deliberately modelled by its class data only: every Suzuki
computation downstream is a class function, and fusion comes from stored
tables rather than counts over elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, isqrt
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .cyclo import factorize
from .gf import FieldSpec, gf_make


class NotFound(RuntimeError):
    """A structurally guaranteed subgroup search failed (a bug)."""


def first(candidates, pred):
    """The first candidate that satisfies pred; NotFound if there is none."""
    for x in candidates:
        if pred(x):
            return x
    raise NotFound("no candidate has the required property")


class ClassDataError(ValueError):
    """Class labels or sizes contradict the group they describe."""


def _check_class_sizes(model):
    """Raise ClassDataError unless the class sizes add up to |G|."""
    if sum(model.class_sizes.values()) != model.order:
        raise ClassDataError(f"class sizes do not add up to |G| = "
                             f"{model.order}")


class ClassLabel(NamedTuple):
    kind: str
    index: int = 0

    def __str__(self):
        return self.kind if self.index == 0 else f"{self.kind}^{self.index}"


ID = ClassLabel("id")


IDENTITY = (1, 0, 0, 1)


@dataclass(frozen=True)
class SubgroupSpec:
    """A subgroup selection: tag, optional parameter, and (in a matrix
    model) the explicit element tuple, the generators it was built from
    and the read-only map `index` from each element to its place."""
    tag: str
    param: int = 0
    order: int = 0
    elements: Optional[tuple] = None
    gens: Optional[tuple] = None
    index: Optional[Mapping] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ClassData:
    """The class data of a group: |G|, the class labels in display order,
    and read-only mappings from each label to its class size and to the
    order of its elements."""
    family: str     # psl2_even | sl2_odd | psl2_odd | sz | dihedral | cyclic
    q: int
    order: int
    class_labels: tuple
    class_sizes: Mapping
    class_orders: Mapping


class GroupModel:
    """SL2(q) or PSL2(q) as a matrix group over the field `spec`, with the
    class data `data` of its family; its elements are indexed in closed
    form (`matrix_model`)."""

    def __init__(self, data: ClassData, spec: FieldSpec):
        self.data = data
        self.family, self.q, self.spec = data.family, data.q, spec
        self.class_labels = data.class_labels      # in display order
        self.class_sizes = data.class_sizes
        self.class_reps = {}
        self._fold = self.family == "psl2_odd"     # PSL2 = SL2 / {+-1}
        self._subgroups = {}
        q = spec.q
        # the field's scalar lookup tables, read by the element operations
        self._add, self._mul, self._neg, self._inv = (
            spec.add_table, spec.mul_table, spec.neg_table, spec.inv_table)
        # the nonzero leading entries of the elements, in sorted order
        self._lead = [x for x in range(1, q)
                      if not self._fold or x < self._neg[x]]
        self.order = len(self._lead) * q * (q + 1)

    def element(self, i):
        """The i-th element in sorted order, for leading entries b and a:
        first the (0, b, -1/b, d), then the (a, b, c, (1 + bc)/a)."""
        if not 0 <= i < self.order:
            raise IndexError(f"no element {i} in a group of order "
                             f"{self.order}")
        q, lead, mul = self.q, self._lead, self._mul
        if i < len(lead) * q:
            b = lead[i // q]
            return (0, b, self._neg[self._inv[b]], i % q)
        j, c = divmod(i - len(lead) * q, q)
        a, b = divmod(j, q)
        a = lead[a]
        return (a, b, c, mul[self._inv[a]][self._add[1][mul[b][c]]])

    def scan(self):
        """Every element, lazily, in index order."""
        return map(self.element, range(self.order))

    def class_of(self, x):
        """The conjugacy class of x, by the trace rule of _label_classes."""
        add, neg = self._add, self._neg
        t = add[x[0]][x[3]]
        lab = self._by_trace.get(t)
        if lab is not None:
            return lab
        two = add[1][1]
        if t == two:
            u, central = x, ""
        elif t == neg[two]:
            u, central = tuple(neg[v] for v in x), "" if self._fold else "z"
        else:
            raise NotFound(f"no class has trace {t}")
        if u == IDENTITY:
            return self._named[central or "id"]
        entry = u[2] if u[2] else neg[u[1]]
        return self._named[central + ("c" if entry in self._squares else "d")]

    def element_order(self, x):
        """The order of x: the order of its class."""
        return self.data.class_orders[self.class_of(x)]

    # matrix ops bound to the field of a matrix model
    def mul(self, x, y):
        add, mul = self._add, self._mul
        a, b, c, d = x
        e, g, h, i = y
        ra, rb, rc, rd = mul[a], mul[b], mul[c], mul[d]
        out = (add[ra[e]][rb[h]], add[ra[g]][rb[i]],
               add[rc[e]][rd[h]], add[rc[g]][rd[i]])
        return self.canonical(out)

    def mul_many(self, x, y):
        """The products x[i] y[i] of two (n, 4) arrays of elements, row by
        row, in canonical form; mul is for one product."""
        return self.canonical_many(self.mul_rows(x, y))

    def mul_rows(self, x, y):
        """mul_many before the fold: in PSL2 a row is either sign of its
        product.  It reads the field's arrays, which pays off for many rows."""
        q, add, mul = self.q, self.spec.add.ravel(), self.spec.mul.ravel()
        a, b, c, d = np.asarray(x).T * q
        e, g, h, i = np.asarray(y).T
        return np.stack([add[mul[a + e] * q + mul[b + h]],
                         add[mul[a + g] * q + mul[b + i]],
                         add[mul[c + e] * q + mul[d + h]],
                         add[mul[c + g] * q + mul[d + i]]], axis=1)

    def canonical_many(self, x):
        """`canonical` of every row of an (n, 4) array: in PSL2 the smaller
        of x and -x, which differ first at a, or at b when a = 0."""
        if not self._fold:
            return x
        neg = self.spec.neg
        lead = np.where(x[:, 0], x[:, 0], x[:, 1])
        return np.where((neg[lead] < lead)[:, None], neg[x], x)

    def inv(self, x):
        # determinant is 1 throughout
        neg = self._neg
        a, b, c, d = x
        return self.canonical((d, neg[b], neg[c], a))

    def canonical(self, x):
        """The representative of x in PSL2 = SL2 / {+-1}: the smaller of
        x and -x; x itself in the other families."""
        if self._fold:
            neg = self._neg
            nx = (neg[x[0]], neg[x[1]], neg[x[2]], neg[x[3]])
            return x if x <= nx else nx
        return x

    def conjugate(self, g, by):
        return self.mul(self.mul(by, g), self.inv(by))

    def order_of(self, g):
        """The order of g from at most |G| of its powers (Lagrange), else
        ArithmeticError; element_order reads it off the class."""
        acc = g
        for n in range(1, self.order + 1):
            if acc == IDENTITY:
                return n
            acc = self.mul(acc, g)
        raise ArithmeticError(f"no power of {g} up to |G| is 1")

    def power(self, g, e):
        """g^e for any integer e, taken modulo the order of g, which
        element_order reads off the class."""
        e %= self.element_order(g)
        acc = IDENTITY
        base = g
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc


# -- matrix models -----------------------------------------------------------

def _torus_generator(model):
    """diag(nu, 1/nu): it generates the split torus of the field generator."""
    f = model.spec
    nu = f.generator
    return model.canonical((nu, 0, 0, f.inv_table[nu]))


def _label_classes(model):
    """Fix the class representatives and the trace rule of class_of
    (Fulton-Harris, Representation Theory, section 5.2).

    A class of trace other than +-2 is the class of its trace, and in
    PSL2 = SL2 / {+-1} of its trace up to sign.  An element x != 1 of trace 2
    is unipotent: x - 1 has rank 1, and conjugation multiplies its lower-left
    entry by a square, or, when that entry is 0, minus its upper-right entry.
    The square class of that entry splits c from d.  Trace -2 is z times
    trace 2; in PSL2 the sign is dropped.  The labels, their display order
    and the class sizes are class_data_model's; the representatives must
    carry their labels and the sizes must add up to |G|."""
    f = model.spec
    q = model.q
    a = _torus_generator(model)
    # the nonsplit torus generator: the first element of its order
    n_nonsplit = (q + 1) // 2 if model._fold else q + 1
    b = first(model.scan(), lambda g: model.order_of(g) == n_nonsplit)
    add, neg = f.add_table, f.neg_table
    z = model.canonical((neg[1], 0, 0, neg[1]))
    c = model.canonical((1, 0, 1, 1))
    d = model.canonical((1, 0, f.generator, 1))
    # 1, g, g^2, ... of the torus generators (power needs class_of)
    powers = {"a": closure(model, (a,)), "b": closure(model, (b,))}
    fixed = {"id": IDENTITY, "z": z, "c": c, "d": d,
             "zc": model.mul(z, c), "zd": model.mul(z, d),
             "bq": powers["b"][(q + 1) // 4]}
    reps = {lab: powers[lab.kind][lab.index]
            if lab.kind in powers else fixed[lab.kind]
            for lab in model.class_labels}

    by_trace = {}
    for lab, rep in reps.items():
        if lab.kind in ("a", "b", "bq"):
            tr = add[rep[0]][rep[3]]
            for t in (tr, neg[tr]) if model._fold else (tr,):
                other = by_trace.setdefault(t, lab)
                if other != lab:
                    raise NotFound(f"representatives of {other} and {lab} "
                                   f"are conjugate")
    model._by_trace = by_trace
    model._named = {str(lab): lab for lab in reps}
    model._squares = {f.mul_table[x][x] for x in range(1, q)}
    for lab, rep in reps.items():
        if model.class_of(rep) != lab:
            raise NotFound(f"the representative of {lab} is labelled "
                           f"{model.class_of(rep)}")
    model.class_reps = reps
    _check_class_sizes(model)


def matrix_model(spec: FieldSpec, projective=False) -> GroupModel:
    """SL2(q), or with `projective` PSL2(q) = SL2(q) / {+-1} (for odd
    q = 3 mod 4; for even q the two are one group)."""
    if spec.p == 2:
        family = "psl2_even"
    else:
        family = "psl2_odd" if projective else "sl2_odd"
    model = GroupModel(class_data_model(family, spec.q), spec)
    _label_classes(model)
    return model


@lru_cache(maxsize=1)
def psl2_model(q):
    """PSL2(q) (== SL2(q) in characteristic 2), kept with its subgroup memo
    for the most recent q only.  Callers must not modify it."""
    return matrix_model(gf_make(*_prime_power(q)), projective=True)


def _prime_power(q):
    """(p, n) with q = p^n; ValueError unless q is a prime power."""
    f = factorize(q)
    if len(f) != 1:
        raise ValueError(f"{q} is not a prime power")
    return f[0]


# -- subgroups ---------------------------------------------------------------

def closure(model, gens):
    """The subgroup generated by `gens`, in the order a search from the
    identity reaches its elements; for one generator g that is 1, g, g^2, ..."""
    out = {IDENTITY: None}
    queue = [IDENTITY]
    while queue:
        x = queue.pop()
        for g in gens:
            y = model.mul(x, g)
            if y not in out:
                out[y] = None
                queue.append(y)
    return tuple(out)


def _of_traces(model, traces):
    """The elements with a trace in `traces`, in index order: (0, b, -1/b, t)
    first, then (a, b, c, t - a) with bc = a(t - a) - 1."""
    add, mul, neg, inv = model._add, model._mul, model._neg, model._inv
    for b in model._lead:
        for t in sorted(traces):
            yield (0, b, neg[inv[b]], t)
    for a in model._lead:
        for b in range(model.q):
            row = []
            for t in traces:
                d = add[t][neg[a]]
                r = add[mul[a][d]][neg[1]]
                if b:
                    row.append((mul[r][inv[b]], d))
                elif r == 0:
                    row += [(c, d) for c in range(model.q)]
            for c, d in sorted(row):
                yield (a, b, c, d)


def build_subgroup(model: GroupModel, tag, param=0) -> SubgroupSpec:
    """A stabilizer of the orbit graphs in a matrix model, built once
    from generators and shared by the graph, the fusion check and numerics.

    With the split torus generator t and w = [[0, 1], [-1, 0]]:
    dihedral_split = <t, w>; dihedral_nonsplit = <y, w> for the first y of
    nonsplit-torus order that w inverts; klein4 = <y^((q+1)/4), w>; a4 adds
    the first order-3 element that normalizes klein4.  The cyclic groups are
    the split torus <t>, <w> of order 2 and the order-3 group of a4.
    """
    key = (tag, param)
    if key in model._subgroups:
        return model._subgroups[key]
    q = model.q
    fam = model.family
    t = _torus_generator(model)
    w = model.canonical((0, 1, model._neg[1], 0))
    if tag == "borel":
        gens = None     # c = 0: every q-th element after those with a = 0
        els = tuple(map(model.element,
                        range(model.order // (q + 1), model.order, q)))
    elif tag == "trivial":
        gens = ()
    elif tag == "dihedral_split":
        gens = (t, w)
    elif tag == "dihedral_nonsplit":
        n = (q + 1) // 2 if fam == "psl2_odd" else q + 1
        gens = (first(model.scan(), lambda y: model.element_order(y) == n
                      and model.conjugate(y, w) == model.inv(y)), w)
    elif tag == "klein4":
        y = build_subgroup(model, "dihedral_nonsplit").gens[0]
        gens = (model.power(y, (q + 1) // 4), w)
    elif tag == "a4":
        v4 = build_subgroup(model, "klein4")
        # in odd characteristic the elements of order 3 have trace +-1
        gens = v4.gens + (first(
            _of_traces(model, {1, model._neg[1]}),
            lambda g: model.element_order(g) == 3 and all(
                model.conjugate(x, g) in v4.index for x in v4.gens)),)
    elif tag == "cyclic" and param == ((q - 1) // 2 if fam == "psl2_odd"
                                       else q - 1):
        gens = (t,)
    elif tag == "cyclic" and param == 2:
        gens = (w,)
    elif tag == "cyclic" and param == 3 and fam == "psl2_odd":
        gens = build_subgroup(model, "a4").gens[-1:]
    else:
        raise ValueError(f"unsupported subgroup {tag!r} with parameter "
                         f"{param}")
    if gens is not None:
        els = closure(model, gens)

    expected = subgroup_order(fam, q, tag, param)
    if expected and len(els) != expected:
        raise NotFound(f"{tag} subgroup has order {len(els)}, "
                       f"expected {expected}")
    index = MappingProxyType(dict(zip(els, range(len(els)))))
    sub = SubgroupSpec(tag, param, len(els), els, gens, index)
    model._subgroups[key] = sub
    return sub


def subgroup_order(family, q, tag, param=0):
    if tag == "cyclic":
        return param
    if tag == "trivial":
        return 1
    if tag == "klein4":
        return 4
    if tag == "torus_normalizer":
        return 4 * (q + param * isqrt(2 * q) + 1)
    table = {
        "psl2_even": {"borel": q * (q - 1), "dihedral_split": 2 * (q - 1),
                      "dihedral_nonsplit": 2 * (q + 1)},
        "sl2_odd": {"borel": q * (q - 1), "dihedral_split": 2 * (q - 1),
                    "dihedral_nonsplit": 2 * (q + 1)},
        "psl2_odd": {"borel": q * (q - 1) // 2, "dihedral_split": q - 1,
                     "dihedral_nonsplit": q + 1, "a4": 12},
        "sz": {"borel": q * q * (q - 1), "dihedral_split": 2 * (q - 1),
               "c4": 4},
    }
    return table.get(family, {}).get(tag, 0)


def symbolic_subgroup(family, q, tag, param=0) -> SubgroupSpec:
    """Class-data-level subgroup handle (no elements)."""
    return SubgroupSpec(tag, param, subgroup_order(family, q, tag, param))


# -- class fusion -------------------------------------------------------------

def fusion_table(model: GroupModel, sub: SubgroupSpec):
    """|(x) cap L| for every class (x), counted over the elements of a
    subgroup L of a matrix model."""
    counts = {lab: 0 for lab in model.class_labels}
    for g in sub.elements:
        counts[model.class_of(g)] += 1
    return counts


def stored_fusion(family, q, tag, param, labels):
    """The class-fusion rows for the subgroups appearing in the orbit graphs."""
    counts = {lab: 0 for lab in labels}

    def setk(kind, value, index=None):
        for lab in labels:
            if lab.kind == kind and (index is None or lab.index == index):
                counts[lab] = value

    counts[ID] = 1
    if family == "psl2_even":
        if tag == "borel":
            setk("c", q - 1)
            setk("a", 2 * q)
        elif tag == "dihedral_split":
            setk("c", q - 1)
            setk("a", 2)
        elif tag == "dihedral_nonsplit":
            setk("c", q + 1)
            setk("b", 2)
        elif tag == "cyclic" and param == q - 1:
            setk("a", 2)
        elif tag == "cyclic" and param == 2:
            setk("c", 1)
        elif tag == "trivial":
            pass
        else:
            raise ValueError(f"no stored fusion for {family}/{tag}/{param}")
    elif family == "psl2_odd":
        if tag == "borel":
            setk("c", (q - 1) // 2)
            setk("d", (q - 1) // 2)
            setk("a", 2 * q)
        elif tag == "a4":
            setk("bq", 3)
            if q % 3 == 0:
                setk("c", 4)
                setk("d", 4)
            elif q % 3 == 1:
                setk("a", 8, index=(q - 1) // 6)
            else:
                setk("b", 8, index=(q + 1) // 6)
        elif tag == "dihedral_split":
            setk("a", 2)
            setk("bq", (q - 1) // 2)
        elif tag == "dihedral_nonsplit":
            setk("b", 2)
            setk("bq", (q + 3) // 2)
        elif tag == "cyclic" and param == 2:
            setk("bq", 1)
        elif tag == "klein4":
            setk("bq", 3)
        elif tag == "cyclic" and param == (q - 1) // 2:
            setk("a", 2)
        elif tag == "cyclic" and param == 3:
            if q % 3 == 0:
                setk("c", 1)
                setk("d", 1)
            elif q % 3 == 1:
                setk("a", 2, index=(q - 1) // 6)
            else:
                setk("b", 2, index=(q + 1) // 6)
        elif tag == "trivial":
            pass
        else:
            raise ValueError(f"no stored fusion for {family}/{tag}/{param}")
    elif family == "sz":
        r = isqrt(2 * q)
        if tag == "borel":
            setk("sigma", q - 1)
            setk("rho", q * (q - 1) // 2)
            setk("rho_inv", q * (q - 1) // 2)
            setk("pi0", 2 * q * q)
        elif tag == "dihedral_split":
            setk("sigma", q - 1)
            setk("pi0", 2)
        elif tag == "torus_normalizer":
            m = q + param * r + 1
            setk("sigma", m)
            setk("rho", m)
            setk("rho_inv", m)
            setk("pi1" if param > 0 else "pi2", 4)
        elif tag == "cyclic" and param == q - 1:
            setk("pi0", 2)
        elif tag == "c4":
            setk("sigma", 1)
            setk("rho", 1)
            setk("rho_inv", 1)
        elif tag == "cyclic" and param == 2:
            setk("sigma", 1)
        elif tag == "trivial":
            pass
        else:
            raise ValueError(f"no stored fusion for {family}/{tag}/{param}")
    else:
        raise ValueError(f"no stored fusion for family {family!r}")
    return counts


# -- Suzuki class data ---------------------------------------------------------

def twisted_torus_reps(n, q):
    """Minimal representatives of the orbits of <q> on (Z/n)* \\ {0}.

    q^2 = -1 mod n for the Suzuki tori n = q -+ r + 1, so every orbit
    {x, xq, -x, -xq} has size four and there are (n-1)/4 of them.  These
    representatives index both the torus classes and their characters.
    """
    mults = (1, q % n, (-1) % n, (-q) % n)
    if (q * q + 1) % n:
        raise ClassDataError(f"q^2 = -1 fails mod {n}")
    seen = set()
    reps = []
    for x in range(1, n):
        if x in seen:
            continue
        reps.append(x)
        seen.update((x * m) % n for m in mults)
    if len(reps) != (n - 1) // 4:
        raise ClassDataError(f"{len(reps)} orbits of <q> on (Z/{n})*, "
                             f"expected {(n - 1) // 4}")
    return reps


def suzuki_class_labels(q):
    """Class labels of Sz(q) in display order, q = 2^n with odd n >= 3."""
    n = q.bit_length() - 1
    if q != 1 << n or n % 2 == 0 or n < 3:
        raise ValueError("Sz(q) needs q = 2^n with odd n >= 3")
    r = isqrt(2 * q)
    if r * r != 2 * q:
        raise ClassDataError(f"2q = {2 * q} is not a square")
    labels = [ClassLabel("id"), ClassLabel("sigma"), ClassLabel("rho"),
              ClassLabel("rho_inv")]
    labels += [ClassLabel("pi0", a) for a in range(1, (q - 2) // 2 + 1)]
    labels += [ClassLabel("pi1", b) for b in twisted_torus_reps(q + r + 1, q)]
    labels += [ClassLabel("pi2", c) for c in twisted_torus_reps(q - r + 1, q)]
    if len(labels) != q + 3:
        raise ClassDataError(f"Sz({q}) has {len(labels)} class labels, "
                             f"expected {q + 3}")
    return labels


def class_data_model(family, q) -> ClassData:
    """The class data of a group, without elements: its class labels in
    display order, their sizes and element orders, and |G|.  For `dihedral`
    q is the order 2n of D_2n (n odd), for `cyclic` the order n of C_n.  An
    indexed class kind^i of a cyclic subgroup of order n has element order
    n / gcd(n, i).  The Sz(q) centralizer orders are |G|, q^2, 2q, 2q,
    q - 1, q + r + 1, q - r + 1 (r^2 = 2q) for id, sigma, rho, rho_inv, pi0,
    pi1, pi2 (M. Suzuki, Ann. of Math. 75, 1962): the sizes are |G| / |C(x)|,
    and a torus class pi_k^i lies in a cyclic torus of order |C(x)|."""
    sizes, orders = {}, {}

    def add(kind, size, n, indices=None):
        """One class of element order n, or with `indices` the classes
        kind^i of the cyclic group of order n."""
        for i in (0,) if indices is None else indices:
            lab = ClassLabel(kind, i)
            sizes[lab] = size
            orders[lab] = n if indices is None else n // gcd(n, i)

    if family == "psl2_even":
        order = q * (q * q - 1)
        add("id", 1, 1)
        add("c", q * q - 1, 2)
        add("a", q * (q + 1), q - 1, range(1, (q - 2) // 2 + 1))
        add("b", q * (q - 1), q + 1, range(1, q // 2 + 1))
    elif family == "sl2_odd":
        p = _prime_power(q)[0]
        order = q * (q * q - 1)
        add("id", 1, 1)
        add("z", 1, 2)
        for kind, n in (("c", p), ("d", p), ("zc", 2 * p), ("zd", 2 * p)):
            add(kind, (q * q - 1) // 2, n)
        add("a", q * (q + 1), q - 1, range(1, (q - 3) // 2 + 1))
        add("b", q * (q - 1), q + 1, range(1, (q - 1) // 2 + 1))
    elif family == "psl2_odd":
        if q % 4 != 3:
            raise ValueError("PSL2 class data needs q = 3 mod 4")
        p = _prime_power(q)[0]
        order = q * (q * q - 1) // 2
        add("id", 1, 1)
        for kind in ("c", "d"):
            add(kind, (q * q - 1) // 2, p)
        add("a", q * (q + 1), (q - 1) // 2, range(1, (q - 3) // 4 + 1))
        add("b", q * (q - 1), (q + 1) // 2, range(1, (q - 3) // 4 + 1))
        add("bq", q * (q - 1) // 2, 2)
    elif family == "sz":
        labels = suzuki_class_labels(q)
        order = q * q * (q * q + 1) * (q - 1)
        r = isqrt(2 * q)
        cent = {"id": order, "sigma": q * q, "rho": 2 * q, "rho_inv": 2 * q,
                "pi0": q - 1, "pi1": q + r + 1, "pi2": q - r + 1}
        fixed = {"id": 1, "sigma": 2, "rho": 4, "rho_inv": 4}
        for lab in labels:
            n = cent[lab.kind]
            sizes[lab] = order // n
            orders[lab] = fixed[lab.kind] if lab.kind in fixed \
                else n // gcd(n, lab.index)
    elif family == "dihedral":
        n = q // 2
        order = q
        add("id", 1, 1)
        add("r", 2, n, range(1, (n - 1) // 2 + 1))
        add("s", n, 2)
    elif family == "cyclic":
        order = q
        add("g", 1, q, range(q))
    else:
        raise ValueError(family)
    data = ClassData(family, q, order, tuple(sizes), MappingProxyType(sizes),
                     MappingProxyType(orders))
    _check_class_sizes(data)
    return data
