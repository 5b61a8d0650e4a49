"""Exact character tables, inner products, restrictions and centralizer
dimensions for PSL2(q), SL2(q), Sz(q), dihedral and cyclic groups.

All values are elements of cyclotomic fields, all inner products exact
rationals.  A table stores its distinct values once, in a packed integer
form, and an index grid (characters x classes) into them, filled by index
arithmetic: zeta_n^(kl) + zeta_n^(-kl) depends only on k l mod n.  Every
inner product, orthogonality check and centralizer dimension is an entry
of one exact Gram kernel, `_gram`, on a (values, grid) pair per side: it
certifies by integer comparison on the grids that each sigma_t: zeta ->
zeta^t permutes the weighted columns, and sums one rational trace per
column orbit.  A Gram it refuses is a table or fusion fault.  A value's
canonical form comes from the one cyclotomic reduction, on the CRT grid of
Z/m.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod

import numpy as np

from .cyclo import factorize, legendre
from .groups import (
    ID, ClassData, ClassLabel, SubgroupSpec, class_data_model, first,
    stored_fusion, symbolic_subgroup,
)


class NonIntegralDimension(ArithmeticError):
    """A centralizer dimension came out non-integral (table/fusion bug)."""


class TableMismatch(ValueError):
    pass


def pack_terms(order, terms):
    """The sum of c * zeta_order^k over (k, c) terms in the stored form
    (order, exponents, integer numerators, denominator, l1 norm of the
    numerators), with the order deflated by the gcd of the support; None is
    the stored zero.  Equal terms are merged but nothing is canonicalized:
    `_gram` reads any representation."""
    acc = {}
    for k, c in terms:
        k %= order
        acc[k] = acc.get(k, 0) + c
    exps = sorted(k for k, c in acc.items() if c)
    if not exps:
        return None
    g = gcd(order, *exps)
    den = lcm(*(acc[k].denominator for k in exps))
    nums = tuple(int(acc[k] * den) for k in exps)
    return (order // g, tuple(k // g for k in exps), nums, den,
            sum(map(abs, nums)))


def _rat(c):
    return pack_terms(1, ((0, c),))


def _store(values, new):
    """The indices of `new` in the distinct `values`, appending the rest."""
    index = {v: i for i, v in enumerate(values)}
    at = [index.setdefault(v, len(index)) for v in new]
    values += list(index)[len(values):]
    return at


def _orbits(values, n, ks, xs, c=1, units=(1, -1)):
    """The index grid into `values` of the cells (k, x), k in ks (rows) and
    x in xs (columns), whose value is c * sum_u zeta_n^(a u) over the
    `units`, a subgroup of (Z/n)^*, a the least of k x mod n times a unit:
    each such sum that a cell reaches is appended unless already there.  A
    rational sum is stored as its rational, zero as None: a sum over at
    most 4 units, of odd order when 4, is rational only at an order of at
    most 6, where `canonical` tells."""
    x = np.arange(n)
    least = np.minimum.reduce([x * u % n for u in units])[np.outer(ks, xs) % n]
    reps, cell = np.unique(least, return_inverse=True)

    def stored(s):
        form = s and s[0] <= 6 and canonical(s)
        return _rat(sum(v for _, v in form[1])) if form and form[0] == 1 else s

    return np.array(_store(values, [
        stored(pack_terms(n, [(a * u, c) for u in units]))
        for a in reps.tolist()]), dtype=np.intp)[cell].reshape(least.shape)


class Character:
    """A class function with exact cyclotomic values, one per class: row
    `row` of its table's value grid."""

    __slots__ = ("name", "table", "row")

    def __init__(self, name, table, row):
        self.name = name
        self.table = table
        self.row = row

    @property
    def packed(self):
        """The stored values, one per class, read through the grid row."""
        values = self.table.values
        return tuple(values[k] for k in self.table.grid[self.row].tolist())

    @property
    def degree(self):
        """The value at the identity (column 0), which must be a positive
        integer; no other cell is read."""
        order, coeffs = canonical(self._at(0))
        d = coeffs[0][1] if order == 1 and coeffs else 0
        if d.denominator != 1 or d.numerator < 1:
            raise NonIntegralDimension(
                f"{self.name} has degree {value_text(self._at(0))}")
        return d.numerator

    def value_at(self, label):
        return self._at(self.table.index[label])

    def _at(self, x):
        return self.table.values[self.table.grid[self.row, x]]

    def __repr__(self):
        return (f"<character {self.name} of degree "
                f"{value_text(self._at(0))}>")


class CharacterTable:
    """A table stored as `values`, a tuple of distinct stored values, and
    `grid`, a read-only np.intp array (characters x classes) of indices
    into it; the characters are named by `names`, in grid-row order."""

    def __init__(self, family, q, model: ClassData, names, values, grid):
        self.family = family
        self.q = q
        self.model = model
        self.order = model.order
        self.labels = model.class_labels
        self.sizes = [model.class_sizes[lab] for lab in self.labels]
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.values = tuple(values)
        self.grid = np.asarray(grid, dtype=np.intp)
        self.grid.flags.writeable = False
        self.chars = [Character(name, self, i) for i, name in enumerate(names)]
        self.by_name = {c.name: c for c in self.chars}
        if self.grid.shape != (len(self.chars), len(self.labels)) or \
                len(self.chars) != len(self.labels):
            raise TableMismatch(
                f"{len(self.chars)} irreducibles vs {len(self.labels)} "
                f"classes, grid {self.grid.shape}")

    def __repr__(self):
        return (f"<character table {self.family} q={self.q}: "
                f"{len(self.labels)} classes>")

    def to_json(self):
        return {
            "family": self.family,
            "q": self.q,
            "order": self.order,
            "classes": [{"label": str(lab), "size": size}
                        for lab, size in zip(self.labels, self.sizes)],
            "characters": [{"name": c.name, "degree": c.degree,
                            "values": list(map(value_text, c.packed))}
                           for c in self.chars],
        }

    def to_text(self):
        lines = [f"{self.family} q={self.q} order={self.order}"]
        lines.append("class\t" + "\t".join(str(lab) for lab in self.labels))
        lines.append("size\t" + "\t".join(str(s) for s in self.sizes))
        for c in self.chars:
            lines.append(c.name + "\t" +
                         "\t".join(map(value_text, c.packed)))
        return "\n".join(lines)


# -- exact Gram kernel --------------------------------------------------------

_CHUNK = 1 << 14        # entries per temporary array in `_gram`


def _flatten(values, used):
    """The terms of the stored values at the indices `used`, over one
    common denominator: (den, order and l1 norm per value, offset of each
    value's first term and one past its last, exponents, numerators).
    Norms and numerators are int64 unless a scaled l1 norm reaches 2^62,
    and Python ints then."""
    live = [values[k] for k in used]
    den = lcm(*{p[3] for p in live if p is not None})
    orders, counts, norms, exps, nums = [], [0], [], [], []
    for p in live:
        order, ks, ns, d, l1 = p or (1, (), (), den, 0)    # None: no terms
        f = den // d
        orders.append(order)
        counts.append(len(ks))
        norms.append(l1 * f)
        exps += ks
        nums += ns if f == 1 else [n * f for n in ns]
    dtype = np.int64 if max(norms, default=0) < 1 << 62 else object
    return (den, np.array(orders, dtype=np.int64),
            np.array(norms, dtype=dtype), np.cumsum(counts),
            np.array(exps, dtype=np.int64), np.array(nums, dtype=dtype))


def _gram(side_a, side_b, weights):
    """G[i][j] = sum_x w_x a_i(x) conj(b_j(x)), exact, on two sides (values,
    grid), a grid being an index array (rows x columns) into its values, as
    (integer object array, common denominator); `side_b is side_a` is the
    Hermitian case, whose pair table is summed for pairs j >= i and
    mirrored.

    Columns of weight zero are skipped, and so is a column of stored zeros
    on the a-side.  `_certify` proves the kept columns Galois-stable, or
    raises TableMismatch.  As the sigma_t generate the Galois group,
    column orbit O holds sigma(x0's column) for sigma running evenly over
    it (I. M. Isaacs, Character Theory of Finite Groups, ch. 9), so entry
    (i, j) is sum_O |O| w_x0 N(a_i(x0) conj(b_j(x0))), N the normalized
    trace, computed once per value pair that meets in a column x0, from
    its term pairs.  All is int64, scaled by S = lcm of N's denominators,
    while the terms are and sum_O |O| |w_x0| |a(x0)|_1 |b(x0)|_1 S < 2^62,
    and Python ints in object arrays otherwise; temporaries hold about
    _CHUNK term pairs or Gram cells.  The totals are divided by S exactly,
    and a remainder raises ArithmeticError."""
    upper = side_b is side_a
    values_a, grid_a = side_a
    cols = np.array([x for x, w in enumerate(weights) if w], dtype=np.intp)
    wden = lcm(*{weights[x].denominator for x in cols.tolist()})
    zero = np.array([p is None for p in values_a], dtype=bool)
    cols = cols[~zero[grid_a[:, cols]].all(axis=0)]
    sides = [(values, grid[:, cols]) for values, grid in
             ((side_a,) if upper else (side_a, side_b))]
    if not all(g.size for _, g in sides):
        return np.zeros((len(grid_a), len(side_b[1])), dtype=object), wden
    w = np.array([int(weights[x] * wden) for x in cols.tolist()],
                 dtype=object)
    used = [np.bincount(g.ravel(), minlength=len(values)) > 0
            for values, g in sides]
    m = lcm(*{values[k][0] for (values, _), u in zip(sides, used)
              for k in np.flatnonzero(u).tolist() if values[k]})
    reps, sizes = _certify(sides, w, m, cols)
    flat = [_flatten(values, np.flatnonzero(u).tolist())
            for (values, _), u in zip(sides, used)]
    per_side = []   # cells, column norms, which values a column holds, terms
    for (_, g), u, (_, order, norm, starts, exps, nums) in zip(
            sides, used, flat):
        at = (np.cumsum(u) - 1)[g[:, reps]]     # cell -> used value
        in_col = np.zeros((len(order), len(reps)))
        in_col[at, np.arange(len(reps))] = 1
        per_side.append((at, norm[at].max(axis=0).astype(object), in_col,
                         order, starts, exps, nums))
    (a, na, in_a, oa, sa, ea, va), (b, nb, in_b, ob, sb, eb, vb) = \
        per_side[0], per_side[-1]
    weight = sizes * w[reps]
    # the value pairs that meet; a Hermitian Gram reads (u, v) as (v, u)
    pu, pv = np.nonzero(in_a @ in_b.T)
    if upper:
        pu, pv = pu[pu <= pv], pv[pu <= pv]
    cb = np.diff(sb)[pv]
    n_terms = np.diff(sa)[pu] * cb
    L = np.lcm(oa[pu], ob[pv])
    Ls = np.array(sorted(set(L.tolist())))
    li = np.searchsorted(Ls, L)
    tables = [_norm_table(n) for n in Ls.tolist()]
    S = lcm(*(r for _, r in tables))
    dtype = np.int64 if va.dtype == vb.dtype == np.int64 and \
        int((abs(weight) * na * nb).sum()) * S < 1 << 62 else object
    norm = np.concatenate([t.astype(dtype) * (S // r) for t, r in tables])
    va, vb = va.astype(dtype), vb.astype(dtype)
    off, fa, fb = (np.cumsum(Ls) - Ls)[li], Ls[li] // oa[pu], Ls[li] // ob[pv]
    trace, ends = np.zeros(len(pu), dtype=dtype), np.cumsum(n_terms)
    for lo in range(0, int(n_terms.sum()), _CHUNK):
        k = np.arange(lo, min(lo + _CHUNK, int(ends[-1])))
        p = np.searchsorted(ends, k, side="right")
        i, j = np.divmod(k + n_terms[p] - ends[p], cb[p])
        ia, ib = sa[pu[p]] + i, sb[pv[p]] + j
        e = (ea[ia] * fa[p] - eb[ib] * fb[p]) % Ls[li[p]]
        np.add.at(trace, p, va[ia] * vb[ib] * norm[off[p] + e])
    table = np.zeros((len(oa), len(ob)), dtype=dtype)
    table[pu, pv] = trace
    if upper:
        table[pv, pu] = trace
    c = np.where(na * nb != 0, weight, 0).astype(dtype)
    total = np.zeros((len(a), len(b)), dtype=dtype)
    step = max(1, _CHUNK // (len(b) * len(reps)))
    for i in range(0, len(a), step):
        total[i:i + step] = (table[a[i:i + step, None], b] * c).sum(axis=2)
    if (total % S).any():
        raise ArithmeticError(f"a certified Gram is not divisible by {S}")
    return (total // S).astype(object), flat[0][0] * flat[-1][0] * wden


# -- Galois certificates ----------------------------------------------------

@lru_cache(maxsize=64)
def _unit_generators(m):
    """Generators of (Z/m)^*: a primitive root per odd prime-power factor,
    -1 for 4, -1 and 5 for 2^e with e >= 3, each lifted by CRT."""
    gens = []
    for p, e in factorize(m):
        pe, rest, ph = p ** e, m // p ** e, p ** e - p ** (e - 1)
        local = (-1, 5)[:e - 1] if p == 2 else [first(range(2, pe), lambda g:
            g % p and all(pow(g, ph // r, pe) > 1 for r, _ in factorize(ph)))]
        gens += [(1 + (g - 1) * rest * pow(rest, -1, pe)) % m for g in local]
    return tuple(gens)


@lru_cache(maxsize=16)
def _sigma_maps(values, m):
    """Row t = 1 maps each stored value to the first index of its tuple in
    `values`; the row of each generator t of (Z/m)^* maps each value v
    whose order divides m to the first index of sigma_t(v): of the first
    equal stored tuple, else of the first equal canonical form (the rho
    values of Sz need it), else -1.  Grids are compared through row t = 1,
    so a value that sigma_t fixes maps to itself and a tuple stored twice
    reads as one."""
    index = {v: i for i, v in reversed(list(enumerate(values)))}

    def find(v):
        return index[v] if v in index else next(
            (i for i, u in enumerate(values) if u and u[0] == v[0] and
             canonical(u) == canonical(v)), -1)

    def sigma(v, t):
        return v[0], *zip(*sorted(zip([k * t % v[0] for k in v[1]], v[2]))), \
            *v[3:]

    return np.array([[index[v] for v in values]] + [
        [-1 if v and m % v[0] else find(v and sigma(v, t)) for v in values]
        for t in _unit_generators(m)])


def _certify(sides, w, m, cols):
    """The Galois orbits of a Gram's columns as (representatives, sizes).
    For each generator t of (Z/m)^*, m a multiple of every order read, the
    permutation pi_t with grid[:, pi_t(x)] = sigma_t(grid[:, x]) on each
    (values, grid) side and w[pi_t(x)] = w[x] is proposed by a sort of
    column hashes and accepted only by exact comparison, through the first
    index of each stored tuple.  The columns of a correct table and fusion
    are Galois-stable, so a refused t raises TableMismatch naming the first
    cell that differs, in table columns `cols`."""
    if m <= 2:      # every value read is rational: each column is an orbit
        return np.arange(len(w)), np.ones(len(w), dtype=np.int64)
    maps = [_sigma_maps(values, m) for values, _ in sides]
    ids = {}    # weights by equality
    grid = np.vstack([sig[0][g] for sig, (_, g) in zip(maps, sides)] +
                     [[ids.setdefault(v, len(ids)) for v in w.tolist()]])
    mix = np.cumprod(np.full(len(grid), 0x9E3779B97F4A7C15, np.uint64))
    by, pis = np.argsort(mix @ grid.astype(np.uint64)), []
    for k, t in enumerate(_unit_generators(m), 1):
        image = np.vstack([sig[k][g] for sig, (_, g) in zip(maps, sides)] +
                          [grid[-1]])
        pi = np.empty_like(by)
        pi[np.argsort(mix @ image.astype(np.uint64))] = by
        pis.append(pi)
        if (grid[:, pi] != image).any():
            # the first refused cell: in the first column that is no
            # column's image, where it first differs from the image it
            # agrees with most; if every column is an image (at the wrong
            # multiplicity), in the first column that pi pairs wrongly
            have = {c.tobytes() for c in image.T}
            lost = [x for x, c in enumerate(grid.T)
                    if c.tobytes() not in have]
            if lost:
                x = lost[0]
                y = np.argmax((image == grid[:, [x]]).sum(0))
            else:
                y = np.argmax((grid[:, pi] != image).any(0))
                x = pi[y]
            r = int(np.argmax(grid[:, x] != image[:, y]))
            n_a = len(sides[0][1])
            where = f"the weight of column {cols[x]}" if r == len(grid) - 1 \
                else f"cell ({r},{cols[x]}) of the a-side" if r < n_a \
                else f"cell ({r - n_a},{cols[x]}) of the b-side"
            raise TableMismatch(
                f"Gram refused at {where}: sigma_t, t = {t} mod {m}, does "
                f"not permute the columns")
    label, old = np.arange(grid.shape[1]), None
    while old is None or (label != old).any():  # the least of each orbit
        old, label = label, np.minimum.reduce([label] + [
            label[pi] for pi in pis])
        label = label[label]
    reps = np.flatnonzero(label == np.arange(len(label)))
    return reps, np.bincount(label)[reps]


@lru_cache(maxsize=256)
def _norm_table(n):
    """(r N(zeta_n^e) for e < n, r = prod (p - 1) over the primes p of n):
    the normalized trace mu(d) / phi(d), d = n / gcd(e, n), is a product of
    1, -1 / (p - 1) or 0 per prime p of n, as d's power of p is 1, p or
    more."""
    e, out, r = np.arange(n), np.ones(n, dtype=np.int64), 1
    for p, k in factorize(n):
        g = np.gcd(e, p ** k)
        out *= np.where(g == p ** k, p - 1, -1 * (g == p ** (k - 1)))
        r *= p - 1
    return out, r


# -- canonical forms ---------------------------------------------------------

def _fan_reduce(acc, shape, fs):
    """Reduce every row of `acc` (exponents laid out on the CRT grid of
    Z/m) modulo the fan relations sum_c zeta_p^(t + c p^(e-1)) = 0, in
    place; a row then represents a rational number iff only entry 0 is
    nonzero."""
    arr = acc.reshape((len(acc),) + shape)
    for axis, (p, e) in enumerate(fs):
        step = p ** (e - 1)
        pre = len(acc) * prod(shape[:axis])
        view = arr.reshape(pre, p, step, prod(shape[axis + 1:]))
        view[:, :p - 1] -= view[:, p - 1:p]
        view[:, p - 1] = 0


@lru_cache(maxsize=64)
def _dense_data(order):
    """CRT layout of Z/order for vectorized canonical reduction: the grid
    shape over prime-power axes and the exponent -> grid position map."""
    fs = factorize(order)
    ks = np.arange(order, dtype=np.int64)
    coords = [ks * pow(order // p ** e, -1, p ** e) % p ** e for p, e in fs]
    shape = tuple(p ** e for p, e in fs) or (1,)
    return shape, fs, np.ravel_multi_index(tuple(coords) or (ks,), shape)


def canonical(value):
    """The canonical form (order, ((k, Fraction), ...)) of a stored value:
    its terms reduced on the CRT grid of Z/order to the tensor basis of the
    power bases {zeta_{p^v}^j : j < phi(p^v)} of the prime-power factors
    of its order (L. C. Washington, GTM 83, ch. 2), read back by exponent,
    with the order deflated by the gcd of the support.  The form is
    unique: two values are equal iff their forms are; zero is (1, ())."""
    if value is None:
        return 1, ()
    order, exps, nums, den, l1 = value
    if order == 1:      # stored over Q, so already (0, c): see `pack_terms`
        return 1, ((0, Fraction(nums[0], den)),)
    shape, fs, perm = _dense_data(order)
    # an entry at most doubles per fold axis
    acc = np.zeros((1, order), dtype=np.int64 if l1 << len(fs) < 1 << 62
                   else object)
    acc[0, perm[list(exps)]] = nums
    _fan_reduce(acc, shape, fs)
    coeffs = acc[0, perm]
    ks = np.flatnonzero(coeffs).tolist()
    if not ks:
        return 1, ()
    g = gcd(order, *ks)
    return order // g, tuple((k // g, Fraction(int(coeffs[k]), den))
                             for k in ks)


def value_text(value):
    """A stored value as "c0 + c1*z^k + ... (mod N)", in canonical form."""
    order, coeffs = canonical(value)
    if not coeffs:
        return "0 (mod 1)"
    return " + ".join(str(c) if k == 0 else f"{c}*z^{k}"
                      for k, c in coeffs) + f" (mod {order})"


def _sides(chi, psi):
    """The (values, grid) sides of the rows of two characters of one table:
    one side when psi is chi, which `_gram` reads as Hermitian."""
    t = chi.table
    if psi.table is not t:
        raise TableMismatch("characters live in different tables")
    a = t.values, t.grid[[chi.row]]
    return a, a if psi is chi else (t.values, t.grid[[psi.row]])


def inner_product(chi: Character, psi: Character) -> Fraction:
    """(1/|G|) sum over G of chi * conj(psi), exact."""
    g, den = _gram(*_sides(chi, psi), chi.table.sizes)
    return Fraction(g[0, 0], den * chi.table.order)


_REUSED = {}    # restricted inner products by (rows, weights), at most 1,024


def restricted_inner_product(chi, psi, fusion) -> Fraction:
    """Inner product of the restrictions to a subgroup, via fusion counts.
    The result is reused by value: a later call with equal packed rows and
    fusion weights reads it from a bounded cache (the oldest entry goes
    first), which never holds a failure, so a Gram that raises raises for
    every call that asks for it."""
    sides = _sides(chi, psi)
    weights = tuple(fusion.get(lab, 0) for lab in chi.table.labels)
    key = chi.packed, psi.packed, weights
    if key not in _REUSED:
        g, den = _gram(*sides, weights)
        if len(_REUSED) >= 1024:
            del _REUSED[next(iter(_REUSED))]
        _REUSED[key] = Fraction(g[0, 0], den) / sum(weights)
    return _REUSED[key]


def centralizer_dim(chi, fusion) -> int:
    """dim of the unitary commutant of the restricted representation."""
    r = restricted_inner_product(chi, chi, fusion)
    if r.denominator != 1 or r < 0:
        raise NonIntegralDimension(f"<chi,chi> = {r} is not a dimension")
    return int(r)


def fusion_for(table: CharacterTable, sub: SubgroupSpec):
    """The stored class-fusion row of a subgroup of the table's group."""
    return stored_fusion(table.family, table.q, sub.tag, sub.param,
                         table.labels)


# -- orthogonality --------------------------------------------------------------

def check_row_orthogonality(table):
    """<chi_i, chi_j> = delta_ij for all pairs; raises on the first failure."""
    side = table.values, table.grid
    g, den = _gram(side, side, table.sizes)
    expect = np.zeros(g.shape, dtype=object)
    np.fill_diagonal(expect, table.order * den)
    bad = np.argwhere(g != expect)
    if len(bad):
        i, j = bad[0].tolist()
        raise TableMismatch(
            f"<{table.chars[i].name},{table.chars[j].name}> = "
            f"{Fraction(g[i, j], den * table.order)}, expected {int(i == j)}")
    return True


def check_column_orthogonality(table):
    """sum_chi chi(x) conj(chi(y)) = delta_xy |C(x)| for all class pairs."""
    side = table.values, table.grid.T
    g, den = _gram(side, side, [1] * len(table.chars))
    # |x| G[x][y] against delta_xy |G| den, all in integers
    sized = g * np.array(table.sizes, dtype=object)[:, None]
    expect = np.zeros(g.shape, dtype=object)
    np.fill_diagonal(expect, table.order * den)
    bad = np.argwhere(sized != expect)
    if len(bad):
        i, j = bad[0].tolist()
        x, y = table.labels[i], table.labels[j]
        expected = Fraction(table.order, table.sizes[i]) if i == j else 0
        raise TableMismatch(
            f"column pair ({x},{y}): {Fraction(g[i, j], den)} != {expected}")
    return True


# -- table builders --------------------------------------------------------------
# Each builder keeps the tables of its last 4 arguments, not every table of a
# batch: the checks of one q ask a builder for at most two.

def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


@lru_cache(maxsize=4)
def table_psl2_even(q) -> CharacterTable:
    n = q.bit_length() - 1
    _require(q == 1 << n and n >= 2, f"q={q} must be 2^n with n >= 2")
    model = class_data_model("psl2_even", q)
    ls, ms = np.arange(1, q // 2), np.arange(1, q // 2 + 1)
    # values 0..5: 1, 0, q, -1, q + 1, q - 1; then the torus sums.  Columns
    # 1, c, a^l..., b^m...; rows 1, psi, chi_i..., theta_j...
    values = [_rat(v) for v in (1, 0, q, -1, q + 1, q - 1)]
    A, B = slice(2, q // 2 + 1), slice(q // 2 + 1, None)
    grid = np.zeros((q + 1, q + 1), dtype=np.intp)
    grid[1, :2], grid[1, B] = (2, 1), 3
    grid[A, :2], grid[A, B] = (4, 0), 1
    grid[B, :2], grid[B, A] = (5, 3), 1
    grid[A, A] = _orbits(values, q - 1, ls, ls)
    grid[B, B] = _orbits(values, q + 1, ms, ms, -1)
    names = ["1", "psi"] + [f"chi_{i}" for i in ls.tolist()] + \
        [f"theta_{j}" for j in ms.tolist()]
    return CharacterTable("psl2_even", q, model, names, values, grid)


@lru_cache(maxsize=4)
def table_sl2_odd(q) -> CharacterTable:
    from .groups import _prime_power
    p, n = _prime_power(q)
    _require(p % 2 == 1, "q must be odd")
    _require(n % 2 == 1, f"q={q} must be an odd power of {p}")
    model = class_data_model("sl2_odd", q)
    eps = 1 if (q - 1) // 2 % 2 == 0 else -1
    # sqrt(eps q) = p^((n-1)/2) times the quadratic Gauss sum over Z/p
    gauss = [(k, p ** ((n - 1) // 2) * legendre(k, p)) for k in range(1, p)]
    ls, ms = np.arange(1, (q - 1) // 2), np.arange(1, (q + 1) // 2)

    def half(c0, pm, f=1):
        """f (c0 + pm sqrt(eps q)) / 2, stored."""
        return pack_terms(p, [(0, Fraction(f * c0, 2))] +
                          [(k, Fraction(f * pm * c, 2)) for k, c in gauss])

    # values 0..7: 1, -1, q, q + 1, -q - 1, q - 1, 1 - q, 0.  Columns 1, z,
    # c, d, zc, zd, a^l..., b^m...; rows 1, psi, chi_i..., theta_j..., then
    # xi_1, xi_2, eta_1, eta_2, whose first six values are stored after the
    # torus sums, each once
    values = [_rat(v) for v in (1, -1, q, q + 1, -q - 1, q - 1, 1 - q, 0)]
    A, B = slice(6, 6 + len(ls)), slice(6 + len(ls), None)
    chi, theta = slice(2, 2 + len(ls)), slice(2 + len(ls), q)
    grid = np.zeros((q + 4, q + 4), dtype=np.intp)
    grid[1, :6], grid[1, B] = (2, 2, 7, 7, 7, 7), 1
    # on z, zc and zd, chi_i and theta_j take the sign (-1)^i or (-1)^j
    # by which z acts
    grid[chi, :6] = np.array([(3, 3, 0, 0, 0, 0), (3, 4, 0, 0, 1, 1)])[ls % 2]
    grid[theta, :6] = np.array([(5, 5, 1, 1, 1, 1),
                                (5, 6, 1, 1, 0, 0)])[ms % 2]
    grid[chi, B] = grid[theta, A] = 7
    grid[chi, A] = _orbits(values, q - 1, ls, ls)
    grid[theta, B] = _orbits(values, q + 1, ms, ms, -1)
    grid[q:q + 2, A], grid[q:q + 2, B] = ls % 2, 7          # xi: (-1)^l
    grid[q + 2:, A], grid[q + 2:, B] = 7, 1 - ms % 2        # eta: (-1)^(m+1)
    for row, (c0, pm) in enumerate(((1, 1), (1, -1), (-1, 1), (-1, -1)), q):
        f = c0 * eps        # the scalar by which z acts
        grid[row, :6] = _store(values, [
            _rat((q + c0) // 2), _rat(Fraction(f * (q + c0), 2)),
            half(c0, pm), half(c0, -pm), half(c0, pm, f), half(c0, -pm, f)])
    return CharacterTable(
        "sl2_odd", q, model, ["1", "psi"] +
        [f"chi_{i}" for i in ls.tolist()] +
        [f"theta_{j}" for j in ms.tolist()] +
        ["xi_1", "xi_2", "eta_1", "eta_2"], values, grid)


@lru_cache(maxsize=4)
def table_psl2_odd(q) -> CharacterTable:
    """Fold the SL2(q) table through the central quotient, q = 3 mod 4: the
    rows of the characters trivial on z and the columns of the classes of
    PSL2(q) of its grid, over the same values."""
    _require(q % 4 == 3, "the folded table needs q = 3 mod 4")
    sl2 = table_sl2_odd(q)
    model = class_data_model("psl2_odd", q)
    bq = ClassLabel("b", (q + 1) // 4)      # the class of the involutions
    cols = [sl2.index[bq if lab.kind == "bq" else lab]
            for lab in model.class_labels]
    z = ClassLabel("z")
    rows = [c.row for c in sl2.chars
            if canonical(c.value_at(z)) == canonical(c.value_at(ID))]
    return CharacterTable("psl2_odd", q, model,
                          [sl2.chars[i].name for i in rows], sl2.values,
                          sl2.grid[np.ix_(rows, cols)])


@lru_cache(maxsize=4)
def table_suzuki(q) -> CharacterTable:
    model = class_data_model("sz", q)   # rejects q outside Sz's range first
    r = isqrt(2 * q)
    # the torus classes and their characters share the index sets
    As, Bs, Cs = (np.array([lab.index for lab in model.class_labels
                            if lab.kind == k], dtype=np.intp)
                  for k in ("pi0", "pi1", "pi2"))
    a, b = len(As), len(As) + len(Bs)
    half_r = Fraction(r, 2)
    # values 0..12: 1, -1, 0, then the degrees and the values at sigma and
    # rho of the rows X..W_2.  Columns 1, sigma, rho, rho_inv, pi0^a...,
    # pi1^b..., pi2^c...; rows 1, X, X_a..., Y_b..., Z_c..., W_1, W_2
    values = [_rat(v) for v in (
        1, -1, 0, q * q, q * q + 1, (q - 1) * (q - r + 1), r - 1,
        (q - 1) * (q + r + 1), -r - 1, r * (q - 1) // 2, -half_r)] + [
        pack_terms(4, ((1, half_r),)), pack_terms(4, ((1, -half_r),))]
    A, B, C = slice(4, 4 + a), slice(4 + a, 4 + b), slice(4 + b, None)
    X, Y, Z = slice(2, 2 + a), slice(2 + a, 2 + b), slice(2 + b, -2)
    grid = np.zeros((q + 3,) * 2, dtype=np.intp)
    grid[1, :4], grid[1, B], grid[1, C] = (3, 2, 2, 2), 1, 1
    grid[X, 0], grid[X, B], grid[X, C] = 4, 2, 2
    grid[Y, :4], grid[Y, A], grid[Y, C] = (5, 6, 1, 1), 2, 2
    grid[Z, :4], grid[Z, A], grid[Z, B] = (7, 8, 1, 1), 2, 2
    grid[-2:, :4] = (9, 10, 11, 12), (9, 10, 12, 11)
    grid[-2:, A], grid[-2:, C] = 2, 1
    grid[X, A] = _orbits(values, q - 1, As, As)
    # -(zeta_n^x + zeta_n^xq + zeta_n^-x + zeta_n^-xq): q^2 = -1 mod n
    units = (1, q, -1, -q)
    grid[Y, B] = _orbits(values, q + r + 1, Bs, Bs, -1, units)
    grid[Z, C] = _orbits(values, q - r + 1, Cs, Cs, -1, units)
    return CharacterTable(
        "sz", q, model, ["1", "X"] + [f"X_{i}" for i in As.tolist()] +
        [f"Y_{j}" for j in Bs.tolist()] + [f"Z_{k}" for k in Cs.tolist()] +
        ["W_1", "W_2"], values, grid)


@lru_cache(maxsize=4)
def table_dihedral_odd(two_n) -> CharacterTable:
    n = two_n // 2
    _require(two_n == 2 * n and n % 2 == 1 and n >= 3,
             "dihedral table needs order 2n with odd n >= 3")
    model = class_data_model("dihedral", two_n)
    ks = np.arange(1, (n + 1) // 2)
    # values 0..3: 1, -1, 2, 0.  Columns 1, r^k..., s; rows psi_1, psi_2,
    # chi_k...
    values = [_rat(v) for v in (1, -1, 2, 0)]
    grid = np.zeros((len(ks) + 2,) * 2, dtype=np.intp)
    grid[1, -1] = 1
    grid[2:, 0], grid[2:, -1] = 2, 3
    grid[2:, 1:-1] = _orbits(values, n, ks, ks)
    return CharacterTable("dihedral", two_n, model, ["psi_1", "psi_2"] +
                          [f"chi_{i}" for i in ks.tolist()], values, grid)


@lru_cache(maxsize=4)
def table_cyclic(n) -> CharacterTable:
    _require(n >= 1, "n must be positive")
    model = class_data_model("cyclic", n)
    ks = np.arange(n)
    # zeta_n^k in stored form: order n / g, exponent k / g, g = gcd(n, k)
    return CharacterTable("cyclic", n, model, [f"mu_{k}" for k in range(n)],
                          [(n // gcd(n, k), (k // gcd(n, k),), (1,), 1, 1)
                           for k in range(n)],
                          np.outer(ks, ks) % n)


def rho0_character(table: CharacterTable) -> Character:
    """The distinguished irreducible driving the moduli construction."""
    name = {"psl2_even": "theta_1", "psl2_odd": "eta_1", "sz": "W_1"}.get(
        table.family)
    if name is None:
        raise ValueError(f"no distinguished character for {table.family}")
    return table.by_name[name]


def table_for(family, q) -> CharacterTable:
    return {"psl2_even": table_psl2_even, "sl2_odd": table_sl2_odd,
            "psl2_odd": table_psl2_odd, "sz": table_suzuki,
            "dihedral": table_dihedral_odd, "cyclic": table_cyclic}[family](q)


# -- restrictions at subgroup-class resolution ----------------------------------

@dataclass
class Restriction:
    """A subgroup H with its own table and the ambient class of every H-class."""
    ambient: CharacterTable
    subgroup: SubgroupSpec
    table: CharacterTable
    images: tuple            # ambient ClassLabel per H-class column

    def __post_init__(self):
        if len(self.images) != len(self.table.labels):
            raise TableMismatch("restriction image length mismatch")
        # the H-class sizes must add up within each ambient fused class to
        # the stored fusion row; a dihedral ambient group has no stored rows
        if self.ambient.family == "dihedral":
            return
        fused = {}
        for lab, sz in zip(self.images, self.table.sizes):
            fused[lab] = fused.get(lab, 0) + sz
        stored = fusion_for(self.ambient, self.subgroup)
        for lab, count in fused.items():
            if stored.get(lab, 0) != count:
                raise TableMismatch(
                    f"restriction images disagree with fusion at {lab}")

    def multiplicities(self, chis, lams) -> list:
        """<Res chi, lam>_H for each ambient character chi in `chis` (rows)
        and each irreducible lam of H (columns), from one Gram of the
        restricted rows; NonIntegralDimension unless every entry is a
        nonnegative integer."""
        if any(chi.table is not self.ambient for chi in chis) or \
                any(lam.table is not self.table for lam in lams):
            raise TableMismatch("character/table mismatch in restriction")
        cols = [self.ambient.index[lab] for lab in self.images]
        amb, sub = self.ambient, self.table
        g, den = _gram(
            (amb.values, amb.grid[np.ix_([c.row for c in chis], cols)]),
            (sub.values, sub.grid[[lam.row for lam in lams]]), sub.sizes)
        den *= sub.order
        bad = np.argwhere((g % den != 0) | (g < 0))
        if len(bad):
            i, j = bad[0].tolist()
            raise NonIntegralDimension(
                f"<Res {chis[i].name}, {lams[j].name}> = "
                f"{Fraction(g[i, j], den)} is not a nonnegative integer")
        return (g // den).tolist()


def d_theta(restriction: Restriction, chis, thetas) -> list:
    """d(chi, Theta) = sum over lam in Theta of <Res chi, lam>_H lam(1), the
    total dimension of the restriction factors with characters in Theta,
    for each chi in `chis` (rows) and each set Theta of irreducibles of H
    in `thetas` (columns), from one Gram over the union of the sets."""
    lams = list(dict.fromkeys(lam for theta in thetas for lam in theta))
    at = {lam: i for i, lam in enumerate(lams)}
    degrees = np.zeros((len(lams), len(thetas)), dtype=object)
    for j, theta in enumerate(thetas):
        for lam in theta:
            degrees[at[lam], j] += lam.degree
    return (np.array(restriction.multiplicities(chis, lams), dtype=object)
            @ degrees).tolist()


def _normalizer_restriction(table: CharacterTable, tag, param=None):
    """A subgroup of the split-torus normalizer <r, s> = D_2n, odd n, of the
    table's group: the torus <r> (`cyclic`), <s> (`cyclic` with param 2) or
    all of it (`dihedral_split`).  The torus class kind (`a`, `pi0`, or `r`
    in a dihedral group), n = the order of kind^1 and the class of s, the
    one class of involutions, come from the class data.  A subgroup class
    of element order 2 lies in the class of s, and r^j in kind^j, with j
    folded to j <= n/2."""
    data = table.model
    kind = {"sz": "pi0", "dihedral": "r"}.get(table.family, "a")
    n = data.class_orders[ClassLabel(kind, 1)]
    involution = first(table.labels, lambda lab: data.class_orders[lab] == 2)
    if tag == "dihedral_split":
        param, sub_table = 0, table_dihedral_odd(2 * n)
    else:
        param = param or n
        sub_table = table_cyclic(param)

    def image(lab):
        if sub_table.model.class_orders[lab] == 2:
            return involution
        j = min(lab.index, n - lab.index)
        return ClassLabel(kind, j) if j else ID

    return Restriction(table,
                       symbolic_subgroup(table.family, table.q, tag, param),
                       sub_table, tuple(map(image, sub_table.labels)))


def split_torus_restriction(table: CharacterTable) -> Restriction:
    """The cyclic subgroup generated by the split-torus class representative."""
    return _normalizer_restriction(table, "cyclic")


def c2_restriction(table: CharacterTable) -> Restriction:
    return _normalizer_restriction(table, "cyclic", 2)


def split_dihedral_restriction(table: CharacterTable) -> Restriction:
    """The dihedral normalizer of the split torus, with rotations folded."""
    return _normalizer_restriction(table, "dihedral_split")


def dihedral_theta_restrictions(table: CharacterTable):
    """The (C_n, C_2) subgroup pair of an ambient dihedral table D_{2n}."""
    if table.family != "dihedral":
        raise ValueError("theta restrictions live in a dihedral ambient group")
    return split_torus_restriction(table), c2_restriction(table)


def theta_balance(n):
    """The two restriction-dimension identities for D_{2n}, odd n.

    Returns (part1_ok, part2_ok): part 1 states d(rho, Theta1) = d(rho, Theta2)
    for every nontrivial irreducible; part 2 adds mu_0 to Theta1 and holds for
    every irreducible except the nontrivial degree-1 one.
    """
    table = table_dihedral_odd(2 * n)
    h1, h2 = dihedral_theta_restrictions(table)
    mu = h1.table.by_name
    theta1 = [mu[f"mu_{k}"] for k in range(1, (n - 1) // 2 + 1)]
    d1 = d_theta(h1, table.chars, [theta1, [mu["mu_0"]] + theta1])
    d2 = d_theta(h2, table.chars, [[h2.table.by_name["mu_0"]]])
    part1 = all(a == d for c, (a, _), (d,) in zip(table.chars, d1, d2)
                if c.name != "psi_1")
    part2 = all(b == d for c, (_, b), (d,) in zip(table.chars, d1, d2)
                if c.name != "psi_2")
    return part1, part2


def centralizer_checks(table: CharacterTable):
    """Every numbered restriction/centralizer claim for the distinguished
    irreducible of this family, as (part, expected, compute): compute()
    returns the value that must equal `expected`.

    Covers the centralizer dimensions of all orbit-graph stabilizers
    (including the congruence branches), Borel-restriction irreducibility,
    the eigenvalue multiplicities of the fixed edge generators, and the
    multiplicity-zero statements.
    """
    fam, q = table.family, table.q
    chi = rho0_character(table)
    parts = []

    def add(part, expected, compute):
        parts.append((part, expected, compute))

    def dim(tag, param=0):
        return lambda: centralizer_dim(
            chi, fusion_for(table, symbolic_subgroup(fam, q, tag, param)))

    def mults(restriction, names):
        r = restriction(table)
        return r.multiplicities([chi], [r.table.by_name[n] for n in names])[0]

    def spectrum(n0):
        return lambda: mults(split_torus_restriction,
                             [f"mu_{j}" for j in range(n0)])

    def dihedral(name):
        return lambda: mults(split_dihedral_restriction, [name])[0]

    involution = lambda: tuple(mults(c2_restriction, ("mu_0", "mu_1")))
    borel = lambda: restricted_inner_product(
        chi, chi, fusion_for(table, symbolic_subgroup(fam, q, "borel")))

    if fam == "psl2_even":
        n0 = q - 1
        add("split-torus-dim", q - 1, dim("cyclic", q - 1))
        add("split-torus-spectrum", [1] * n0, spectrum(n0))
        add("involution-dim", (q // 2 - 1) ** 2 + (q // 2) ** 2, dim("cyclic", 2))
        add("involution-spectrum", (q // 2 - 1, q // 2), involution)
        add("second-involution-dim", (q // 2 - 1) ** 2 + (q // 2) ** 2,
            dim("cyclic", 2))
        add("borel-irreducible", 1, borel)
        add("split-dihedral-dim", q // 2, dim("dihedral_split"))
        add("nonsplit-dihedral-dim", q // 2, dim("dihedral_nonsplit"))
        add("trivial-multiplicity", 0, dihedral("psi_1"))
    elif fam == "psl2_odd":
        n0 = (q - 1) // 2
        add("split-torus-dim", n0, dim("cyclic", n0))
        add("split-torus-spectrum", [1] * n0, spectrum(n0))
        add("involution-dim", ((q + 1) // 4) ** 2 + ((q - 3) // 4) ** 2,
            dim("cyclic", 2))
        add("involution-spectrum", ((q + 1) // 4, (q - 3) // 4), involution)
        add("klein-dim", ((q + 5) // 8) ** 2 + 3 * ((q - 3) // 8) ** 2,
            dim("klein4"))
        if q % 3 == 0:
            r = isqrt(q // 3)
            if 3 * r * r != q:
                raise ValueError(f"q={q} = 0 mod 3 must be 3^(2k+1)")
            expected = ((q - 3) // 6) ** 2 + ((q + 3 * r) // 6) ** 2 + \
                ((q - 3 * r) // 6) ** 2
        elif q % 3 == 1:
            expected = 3 * ((q - 1) // 6) ** 2
        else:
            expected = ((q - 5) // 6) ** 2 + 2 * ((q + 1) // 6) ** 2
        add("order3-dim", expected, dim("cyclic", 3))
        add("borel-irreducible", 1, borel)
        add("split-dihedral-dim", (q + 1) // 4, dim("dihedral_split"))
        add("nonsplit-dihedral-dim", (q + 1) // 4, dim("dihedral_nonsplit"))
        if q % 3 == 0:
            expected = (q * q + 6 * q + 21) // 48
        elif q % 3 == 1:
            expected = (q * q - 2 * q + 13) // 48
        else:
            expected = (q * q - 2 * q + 45) // 48
        add("a4-dim", expected, dim("a4"))
        add("sign-multiplicity", 0, dihedral("psi_2"))
    elif fam == "sz":
        r = isqrt(2 * q)
        n0 = q - 1
        add("split-torus-dim", q * (q - 1) // 2, dim("cyclic", q - 1))
        add("split-torus-spectrum", [r // 2] * n0, spectrum(n0))
        add("involution-dim", q * (q * q - 2 * q + 2) // 4, dim("cyclic", 2))
        add("involution-spectrum", (r * (q - 2) // 4, r * q // 4), involution)
        add("order4-dim", q * (q * q - 2 * q + 4) // 8, dim("c4"))
        add("borel-irreducible", 1, borel)
        add("split-dihedral-dim", q * q // 4, dim("dihedral_split"))
        add("plus-normalizer-dim", (q * q - q * r + 2 * q + 2 * r) // 8,
            dim("torus_normalizer", 1))
        add("minus-normalizer-dim", (q * q + q * r + 2 * q - 2 * r) // 8,
            dim("torus_normalizer", -1))
        add("trivial-multiplicity", 0, dihedral("psi_1"))
    else:
        raise ValueError(f"no proposition checks for family {fam!r}")
    return parts
