"""Exact character tables, inner products, restrictions and centralizer
dimensions for PSL2(q), SL2(q), Sz(q), dihedral and cyclic groups.

All values are elements of cyclotomic fields, all inner products exact
rationals.  Every inner product, orthogonality check and centralizer
dimension is an entry of one exact Gram kernel, `gram`, over the packed
integer form in which tables store their values, so whole tables are
handled at once without ever leaving exact arithmetic.  Canonical
`Cyclotomic` values are built from the packed form only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod

import numpy as np

from .cyclo import Cyclotomic, factorize, legendre
from .groups import (
    ClassData, ClassLabel, SubgroupSpec, class_data_model, stored_fusion,
    symbolic_subgroup,
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
    `gram` reduces any representation itself."""
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


def _cyclotomic(value):
    """A stored value as a canonical Cyclotomic."""
    if value is None:
        return Cyclotomic.zero()
    order, exps, nums, den, _ = value
    return Cyclotomic(order, tuple(
        (k, Fraction(n, den)) for k, n in zip(exps, nums)))


def _rat(c):
    return pack_terms(1, ((0, c),))


def _pair(n, a, c=1):
    """c (zeta_n^a + zeta_n^-a), stored."""
    return _roots(n, (a % n, -a % n), c)


@lru_cache(maxsize=None)
def _roots(n, exps, c):
    """c times the sum of zeta_n^k over k in exps, stored; one shared value
    per key, since stored values are immutable."""
    return pack_terms(n, [(k, c) for k in exps])


class Character:
    """A class function with exact cyclotomic values, one per class, stored
    only in the packed form `gram` reads; the canonical Cyclotomic of a value
    is built on demand, for display, comparison and numerics."""

    __slots__ = ("name", "table", "packed")

    def __init__(self, name, table, packed):
        self.name = name
        self.table = table
        self.packed = tuple(packed)

    @property
    def values(self):
        return tuple(map(_cyclotomic, self.packed))

    @property
    def degree(self):
        """The value at the identity, which must be a positive integer; it
        is canonicalized only when not stored over Q (order 1)."""
        p = self.packed[0]
        if p is not None and p[0] != 1:
            c = _cyclotomic(p)
            p = _rat(c.to_rational()) if c.order == 1 else None
        if p is None or p[3] != 1 or p[2][0] < 1:
            raise NonIntegralDimension(
                f"{self.name} has degree {_cyclotomic(self.packed[0])}")
        return p[2][0]

    def value_at(self, label):
        return _cyclotomic(self.packed[self.table.index[label]])

    def __repr__(self):
        return f"<character {self.name} of degree {self.degree}>"


class CharacterTable:
    def __init__(self, family, q, model: ClassData, chars):
        self.family = family
        self.q = q
        self.model = model
        self.order = model.order
        self.labels = model.class_labels
        self.sizes = [model.class_sizes[lab] for lab in self.labels]
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.chars = [Character(name, self, row) for name, row in chars]
        self.by_name = {c.name: c for c in self.chars}
        if len(self.chars) != len(self.labels):
            raise TableMismatch(
                f"{len(self.chars)} irreducibles vs {len(self.labels)} classes")

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
                            "values": [v.to_text() for v in c.values]}
                           for c in self.chars],
        }

    def to_text(self):
        lines = [f"{self.family} q={self.q} order={self.order}"]
        lines.append("class\t" + "\t".join(str(lab) for lab in self.labels))
        lines.append("size\t" + "\t".join(str(s) for s in self.sizes))
        for c in self.chars:
            lines.append(c.name + "\t" +
                         "\t".join(v.to_text() for v in c.values))
        return "\n".join(lines)


# -- exact Gram kernel --------------------------------------------------------

_CHUNK = 1 << 14        # entries per temporary array in `gram`


def _flatten(rows, cols):
    """The terms of packed rows on the given columns, over one common
    denominator: (den, conductor per column, largest l1 norm of a value per
    column, (row, column, order, exponent, numerator) arrays).  Each
    distinct stored value object is unpacked once and the cells index it,
    so a value that a table builder shares between cells is unpacked once."""
    cells = [row[x] for row in rows for x in cols]
    ids = list(map(id, cells))
    values = dict(zip(ids, cells))
    where = {k: i for i, k in enumerate(values)}
    den = lcm(*{p[3] for p in values.values() if p is not None})
    orders, counts, norms, exps, nums = [], [], [], [], []
    for p in values.values():
        order, ks, ns, d, l1 = p or (1, (), (), den, 0)    # None: no terms
        f = den // d
        orders.append(order)
        counts.append(len(ks))
        norms.append(l1 * f)
        exps += ks
        nums += ns if f == 1 else [n * f for n in ns]
    v = np.array(list(map(where.__getitem__, ids)), dtype=np.int64)
    order = np.array(orders, dtype=np.int64)[v]
    col = np.tile(np.arange(len(cols)), len(rows))
    cond = [1] * len(cols)
    for c, o in set(zip(col.tolist(), order.tolist())):
        cond[c] = lcm(cond[c], o)
    norm = np.array(norms, dtype=object)[v].reshape(
        len(rows), len(cols)).max(axis=0, initial=0).tolist()
    counts = np.array(counts, dtype=np.int64)
    t = counts[v]
    ends = np.cumsum(t)
    idx = np.repeat((np.cumsum(counts) - counts)[v] - ends + t, t) + \
        np.arange(int(ends[-1]) if len(ends) else 0)
    return den, cond, norm, (
        np.repeat(np.arange(len(rows)), len(cols)).repeat(t),
        col.repeat(t), order.repeat(t),
        np.array(exps, dtype=np.int64)[idx],
        np.array(nums, dtype=object)[idx])


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


def gram(rows_a, rows_b, weights):
    """G[i][j] = sum_x w_x a_i(x) conj(b_j(x)) over packed rows, exact.

    `weights` are rationals, one per column.  Columns where the weight or
    either side is zero are skipped, the rest grouped by the conductor m of
    their values.  For rows of (virtual) characters and weights constant on
    Galois orbits of columns, each group is Galois-stable and its partial
    sum rational, so it is accumulated in Z[Z/m] with integer numpy,
    reduced on the CRT grid of Z/m and read off at exponent 0.  A partial
    that is not rational raises TableMismatch naming the entry.  A group is
    computed in int64 when sum_x |w_x| |a(x)|_1 |b(x)|_1, doubled per fold
    axis, stays below 2^62, and in Python ints otherwise.  When `rows_b is
    rows_a` only the entries j >= i are computed and the rest mirrored:
    G[j][i] = conj(G[i][j]), and a rational partial is its own conjugate.
    Returns a list of rows of Fractions.
    """
    total, den = _gram(rows_a, rows_b, weights)
    values = {v: Fraction(v, den) for v in set(total.flat)}
    return [[values[v] for v in row] for row in total.tolist()]


def _gram(rows_a, rows_b, weights):
    """`gram` as (integer object array, common denominator)."""
    wden = lcm(*(w.denominator for w in weights))
    cols = [x for x, w in enumerate(weights) if w]
    w = np.array([int(weights[x] * wden) for x in cols], dtype=object)
    flat_a = _flatten(rows_a, cols)
    flat_b = flat_a if rows_b is rows_a else _flatten(rows_b, cols)
    upper = flat_b is flat_a
    bounds = abs(w) * np.array(flat_a[2], dtype=object) * \
        np.array(flat_b[2], dtype=object)
    cond = np.array([lcm(p, q) for p, q in zip(flat_a[1], flat_b[1])],
                    dtype=np.int64) * (bounds != 0)
    total = np.zeros((len(rows_a), len(rows_b)), dtype=object)
    for m in sorted(set(cond.tolist()) - {0}):
        in_group = cond == m
        small = bounds[in_group].sum() << len(factorize(m)) < 1 << 62
        a = _group_terms(flat_a[3], in_group, m)
        b = a if flat_b is flat_a else _group_terms(flat_b[3], in_group, m)
        _add_group(total, a, b, np.where(in_group, w, 0).astype(
            np.int64 if small else object), m, upper)
    if upper:
        i, j = np.tril_indices(len(rows_a), -1)
        total[i, j] = total[j, i]
    return total, flat_a[0] * flat_b[0] * wden


def _group_terms(terms, in_group, m):
    """(row, column, exponent mod m, numerator) of the terms on the columns
    of one conductor-m group."""
    sel = in_group[terms[1]]
    r, c, o, k, n = (t[sel] for t in terms)
    return r, c, k * (m // o), n


def _add_group(total, a, b, w, m, upper):
    """Add to `total` the partial Gram over one conductor-m group of terms,
    weighted by the column weights `w`, in chunks of rows of the Gram that
    keep temporaries near _CHUNK.

    The partners of an a-term in row i and column x are the b-terms of
    column x: all of them, or with `upper` those in rows >= i.  The b-side
    is sorted by (column, row) once, so the partners are one contiguous run
    of it.  Every per-term array is prepared once, and a chunk's pairs are
    np.repeat expansions of its contiguous slice of a-terms plus one gather
    from the b-side."""
    ra, ca, ea, na = a
    rb, cb, eb, nb = b
    n_a, n_b = total.shape
    shape, fs, perm = _dense_data(m)
    perm = np.concatenate((perm, perm))     # read at ea - eb + m in [1, 2m)
    by_col = np.argsort(cb, kind="stable")  # terms come in row order
    rb, cb, eb, nb = rb[by_col], cb[by_col], eb[by_col], nb[by_col]
    count_b = np.bincount(cb, minlength=len(w))
    end = np.cumsum(count_b)[ca]
    start = end - count_b[ca]
    if upper:
        start = np.searchsorted(cb * n_a + rb, ca * n_a + ra)
    partners = end - start
    first = np.concatenate(([0], np.cumsum(partners)))  # first pair per term
    # b-side index of a pair = offset[a-term] + pair number
    offset = start - first[:-1]
    wa, nb = na.astype(w.dtype) * w[ca], nb.astype(w.dtype)
    per_row = np.bincount(ra, weights=partners, minlength=n_a)
    step = max(1, _CHUNK // max(n_b * m, int(per_row.max())))
    ea = ea + m
    bounds = np.searchsorted(ra, range(0, n_a + step, step)).tolist()
    for i0, lo, hi in zip(range(0, n_a, step), bounds, bounds[1:]):
        p0, p1 = first[lo], first[hi]
        if p0 == p1:
            continue
        reps = partners[lo:hi]
        ib = np.repeat(offset[lo:hi], reps) + np.arange(p0, p1)
        n_rows = min(step, n_a - i0)
        j0 = i0 if upper else 0     # the chunk's first Gram column
        width = n_b - j0
        slot = np.repeat((ra[lo:hi] - i0) * (width * m), reps) + \
            (rb[ib] - j0) * m
        slot += perm[np.repeat(ea[lo:hi], reps) - eb[ib]]
        acc = np.zeros(n_rows * width * m, dtype=w.dtype)
        np.add.at(acc, slot, np.repeat(wa[lo:hi], reps) * nb[ib])
        acc = acc.reshape(n_rows * width, m)
        _fan_reduce(acc, shape, fs)
        if acc[:, 1:].any():
            i, j = divmod(int(np.flatnonzero(acc[:, 1:].any(axis=1))[0]),
                          width)
            raise TableMismatch(
                f"Gram entry ({i0 + i},{j0 + j}) is not rational: its part "
                f"over the columns of conductor {m} is irrational")
        total[i0:i0 + n_rows, j0:] += \
            acc[:, 0].astype(object).reshape(n_rows, width)


@lru_cache(maxsize=64)
def _dense_data(order):
    """CRT layout of Z/order for vectorized canonical reduction: the grid
    shape over prime-power axes and the exponent -> grid position map."""
    fs = factorize(order)
    ks = np.arange(order, dtype=np.int64)
    coords = [ks * pow(order // p ** e, -1, p ** e) % p ** e for p, e in fs]
    shape = tuple(p ** e for p, e in fs) or (1,)
    return shape, fs, np.ravel_multi_index(tuple(coords) or (ks,), shape)


def inner_product(chi: Character, psi: Character) -> Fraction:
    """(1/|G|) sum over G of chi * conj(psi), exact."""
    t = chi.table
    if psi.table is not t:
        raise TableMismatch("characters live in different tables")
    return gram([chi.packed], [psi.packed], t.sizes)[0][0] / t.order


def restricted_inner_product(chi, psi, fusion) -> Fraction:
    """Inner product of the restrictions to a subgroup, via fusion counts."""
    t = chi.table
    if psi.table is not t:
        raise TableMismatch("characters live in different tables")
    weights = [fusion.get(lab, 0) for lab in t.labels]
    return gram([chi.packed], [psi.packed], weights)[0][0] / sum(weights)


def centralizer_dim(chi, fusion=None) -> int:
    """dim of the unitary commutant of the (restricted) representation."""
    if fusion is None:
        r = inner_product(chi, chi)
    else:
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
    rows = [c.packed for c in table.chars]
    g, den = _gram(rows, rows, table.sizes)
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
    cols = list(zip(*(c.packed for c in table.chars)))
    g, den = _gram(cols, cols, [1] * len(table.chars))
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

def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


@lru_cache(maxsize=None)
def table_psl2_even(q) -> CharacterTable:
    n = q.bit_length() - 1
    _require(q == 1 << n and n >= 2, f"q={q} must be 2^n with n >= 2")
    model = class_data_model("psl2_even", q)
    one = _rat(1)
    ls = range(1, (q - 2) // 2 + 1)
    ms = range(1, q // 2 + 1)
    chars = [("1", [one] * len(model.class_labels))]
    chars.append(("psi", [_rat(q), None] + [one] * len(ls) +
                  [_rat(-1)] * len(ms)))
    for i in ls:
        chars.append((f"chi_{i}",
                      [_rat(q + 1), one] +
                      [_pair(q - 1, i * l) for l in ls] +
                      [None] * len(ms)))
    for j in ms:
        chars.append((f"theta_{j}",
                      [_rat(q - 1), _rat(-1)] + [None] * len(ls) +
                      [_pair(q + 1, j * m, -1) for m in ms]))
    return CharacterTable("psl2_even", q, model, chars)


@lru_cache(maxsize=None)
def table_sl2_odd(q) -> CharacterTable:
    from .groups import _prime_power
    p, n = _prime_power(q)
    _require(p % 2 == 1, "q must be odd")
    _require(n % 2 == 1, f"q={q} must be an odd power of {p}")
    model = class_data_model("sl2_odd", q)
    eps = 1 if (q - 1) // 2 % 2 == 0 else -1
    # sqrt(eps q) = p^((n-1)/2) times the quadratic Gauss sum over Z/p
    gauss = [(k, p ** ((n - 1) // 2) * legendre(k, p)) for k in range(1, p)]
    ls = range(1, (q - 3) // 2 + 1)
    ms = range(1, (q - 1) // 2 + 1)
    one, minus = _rat(1), _rat(-1)

    def half(c0, pm, f=1):
        """f (c0 + pm sqrt(eps q)) / 2, stored."""
        return pack_terms(p, [(0, Fraction(f * c0, 2))] +
                          [(k, Fraction(f * pm * c, 2)) for k, c in gauss])

    def row(deg, at_z, at_c, at_d, at_a, at_b):
        # column order: 1, z, c, d, zc, zd, a^l..., b^m...; at_c and at_d
        # take the scalar f by which the central z acts, at_z / deg, and
        # give f chi(c) and f chi(d)
        f = Fraction(at_z) / deg
        return ([_rat(deg), _rat(at_z), at_c(1), at_d(1), at_c(f), at_d(f)] +
                [at_a(l) for l in ls] + [at_b(m) for m in ms])

    chars = [("1", row(1, 1, _rat, _rat, lambda l: one, lambda m: one))]
    chars.append(("psi", row(q, q, lambda f: None, lambda f: None,
                             lambda l: one, lambda m: minus)))
    for i in ls:
        sign = 1 if i % 2 == 0 else -1
        chars.append((f"chi_{i}", row(
            q + 1, sign * (q + 1), _rat, _rat,
            lambda l, i=i: _pair(q - 1, i * l), lambda m: None)))
    for j in ms:
        sign = 1 if j % 2 == 0 else -1
        chars.append((f"theta_{j}", row(
            q - 1, sign * (q - 1), lambda f: _rat(-f), lambda f: _rat(-f),
            lambda l: None, lambda m, j=j: _pair(q + 1, j * m, -1))))
    for name, pm in (("xi_1", 1), ("xi_2", -1)):
        chars.append((name, row(
            (q + 1) // 2, Fraction(eps * (q + 1), 2),
            lambda f, pm=pm: half(1, pm, f), lambda f, pm=pm: half(1, -pm, f),
            lambda l: _rat((-1) ** l), lambda m: None)))
    for name, pm in (("eta_1", 1), ("eta_2", -1)):
        chars.append((name, row(
            (q - 1) // 2, Fraction(-eps * (q - 1), 2),
            lambda f, pm=pm: half(-1, pm, f),
            lambda f, pm=pm: half(-1, -pm, f),
            lambda l: None, lambda m: _rat((-1) ** (m + 1)))))
    return CharacterTable("sl2_odd", q, model, chars)


@lru_cache(maxsize=None)
def table_psl2_odd(q) -> CharacterTable:
    """Fold the SL2(q) table through the central quotient, q = 3 mod 4."""
    _require(q % 4 == 3, "the folded table needs q = 3 mod 4")
    sl2 = table_sl2_odd(q)
    model = class_data_model("psl2_odd", q)
    bq = ClassLabel("b", (q + 1) // 4)      # the class of the involutions
    cols = [sl2.index[bq if lab.kind == "bq" else lab]
            for lab in model.class_labels]
    chars = []
    for c in sl2.chars:
        if c.value_at(ClassLabel("z")) == c.value_at(ClassLabel("id")):
            chars.append((c.name, [c.packed[j] for j in cols]))
    return CharacterTable("psl2_odd", q, model, chars)


@lru_cache(maxsize=None)
def table_suzuki(q) -> CharacterTable:
    model = class_data_model("sz", q)   # rejects q outside Sz's range first
    r = isqrt(2 * q)
    # the torus classes and their characters share the index sets
    As, Bs, Cs = ([lab.index for lab in model.class_labels if lab.kind == k]
                  for k in ("pi0", "pi1", "pi2"))

    def row(deg, at_sigma, at_rho, at_rho_inv, at_pi0, at_pi1, at_pi2):
        return ([_rat(deg), at_sigma, at_rho, at_rho_inv] +
                [at_pi0(a) for a in As] + [at_pi1(b) for b in Bs] +
                [at_pi2(c) for c in Cs])

    def orbit(n, x):
        """-(zeta_n^x + zeta_n^xq + zeta_n^-x + zeta_n^-xq), stored."""
        return _roots(n, tuple(x * u % n for u in (1, q, -1, -q)), -1)

    one, minus = _rat(1), _rat(-1)
    z0 = lambda a: None
    chars = [("1", row(1, one, one, one, lambda a: one, lambda b: one,
                       lambda c: one))]
    chars.append(("X", row(q * q, None, None, None, lambda a: one,
                           lambda b: minus, lambda c: minus)))
    for i in As:
        chars.append((f"X_{i}", row(
            q * q + 1, one, one, one,
            lambda a, i=i: _pair(q - 1, i * a), z0, z0)))
    for j in Bs:
        chars.append((f"Y_{j}", row(
            (q - 1) * (q - r + 1), _rat(r - 1), minus, minus, z0,
            lambda b, j=j: orbit(q + r + 1, j * b), z0)))
    for k in Cs:
        chars.append((f"Z_{k}", row(
            (q - 1) * (q + r + 1), _rat(-r - 1), minus, minus, z0, z0,
            lambda c, k=k: orbit(q - r + 1, k * c))))
    half_r = Fraction(r, 2)
    for name, pm in (("W_1", 1), ("W_2", -1)):
        chars.append((name, row(
            r * (q - 1) // 2, _rat(-half_r),
            pack_terms(4, ((1, pm * half_r),)),
            pack_terms(4, ((1, -pm * half_r),)), z0, lambda b: one,
            lambda c: minus)))
    return CharacterTable("sz", q, model, chars)


@lru_cache(maxsize=None)
def table_dihedral_odd(two_n) -> CharacterTable:
    n = two_n // 2
    _require(two_n == 2 * n and n % 2 == 1 and n >= 3,
             "dihedral table needs order 2n with odd n >= 3")
    model = class_data_model("dihedral", two_n)
    one = _rat(1)
    ks = range(1, (n - 1) // 2 + 1)
    chars = [("psi_1", [one] * len(model.class_labels)),
             ("psi_2", [one] + [one] * len(ks) + [_rat(-1)])]
    for i in ks:
        chars.append((f"chi_{i}",
                      [_rat(2)] + [_pair(n, i * k) for k in ks] + [None]))
    return CharacterTable("dihedral", two_n, model, chars)


@lru_cache(maxsize=None)
def table_cyclic(n) -> CharacterTable:
    _require(n >= 1, "n must be positive")
    model = class_data_model("cyclic", n)
    roots = [pack_terms(n, ((k, 1),)) for k in range(n)]
    chars = [(f"mu_{k}", [roots[k * j % n] for j in range(n)])
             for k in range(n)]
    return CharacterTable("cyclic", n, model, chars)


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

    def multiplicities(self, chi: Character, lams) -> list:
        """<Res chi, lam>_H for each irreducible lam of H, from one Gram."""
        if chi.table is not self.ambient or \
                any(lam.table is not self.table for lam in lams):
            raise TableMismatch("character/table mismatch in restriction")
        row, = gram([self.restrict(chi)], [lam.packed for lam in lams],
                    self.table.sizes)
        return [x / self.table.order for x in row]

    def restrict(self, chi: Character):
        """The stored values of chi on the H-classes."""
        return [chi.packed[self.ambient.index[lab]] for lab in self.images]


def multiplicity_checks(chi, restriction: Restriction, lams) -> list:
    """The multiplicities of the lams in Res chi, each a checked integer."""
    ms = restriction.multiplicities(chi, lams)
    for m in ms:
        if m.denominator != 1 or m < 0:
            raise NonIntegralDimension(f"multiplicity {m} is not integral")
    return list(map(int, ms))


@dataclass
class ThetaSet:
    """A subset of the irreducibles of a subgroup table, with one Gram from
    which d(chi, Theta') is read for every subset Theta' of it."""
    restriction: Restriction
    names: tuple

    def __post_init__(self):
        for name in self.names:
            if name not in self.restriction.table.by_name:
                raise TableMismatch(f"{name} is not a character of the subgroup")
        # <Res chi, lam>_H |H| den, weighted by the degree lam(1), for every
        # irreducible chi of the ambient group and every lam in the set
        r = self.restriction
        lams = self.characters()
        g, den = _gram([r.restrict(chi) for chi in r.ambient.chars],
                       [lam.packed for lam in lams], r.table.sizes)
        degrees = [lam.degree for lam in lams]
        self._rows = {chi.name: {name: x * d for name, x, d in
                                 zip(self.names, row, degrees)}
                      for chi, row in zip(r.ambient.chars, g.tolist())}
        self._den = den * r.table.order

    def characters(self):
        return [self.restriction.table.by_name[n] for n in self.names]


def d_theta(chi, theta: ThetaSet, names=None) -> int:
    """Total dimension of the restriction factors with characters in Theta,
    or in its subset `names`."""
    if chi.table is not theta.restriction.ambient:
        raise TableMismatch("character/table mismatch in restriction")
    row = theta._rows[chi.name]
    try:
        total = Fraction(sum(row[n] for n in (
            theta.names if names is None else names)), theta._den)
    except KeyError as e:
        raise TableMismatch(f"{e.args[0]} is not in {theta.names}") from None
    if total.denominator != 1 or total < 0:
        raise NonIntegralDimension(f"d(rho, Theta) = {total}")
    return int(total)


def _fold(j, n):
    j %= n
    return min(j, n - j)


def _split_rotation_label(family, l):
    return ClassLabel("pi0" if family == "sz" else "a", l) if l else ClassLabel("id")


def _involution_label(family):
    return {"psl2_even": ClassLabel("c"), "psl2_odd": ClassLabel("bq"),
            "sz": ClassLabel("sigma")}[family]


def split_torus_restriction(table: CharacterTable) -> Restriction:
    """The cyclic subgroup generated by the split-torus class representative."""
    family, q = table.family, table.q
    n = (q - 1) // 2 if family == "psl2_odd" else q - 1
    sub = symbolic_subgroup(family, q, "cyclic", n)
    images = tuple(_split_rotation_label(family, _fold(j, n))
                   for j in range(n))
    return Restriction(table, sub, table_cyclic(n), images)


def c2_restriction(table: CharacterTable) -> Restriction:
    sub = symbolic_subgroup(table.family, table.q, "cyclic", 2)
    images = (ClassLabel("id"), _involution_label(table.family))
    return Restriction(table, sub, table_cyclic(2), images)


def split_dihedral_restriction(table: CharacterTable) -> Restriction:
    """The dihedral normalizer of the split torus, with rotations folded."""
    family, q = table.family, table.q
    n = (q - 1) // 2 if family == "psl2_odd" else q - 1
    sub = symbolic_subgroup(family, q, "dihedral_split")
    images = tuple([ClassLabel("id")] +
                   [_split_rotation_label(family, k)
                    for k in range(1, (n - 1) // 2 + 1)] +
                   [_involution_label(family)])
    return Restriction(table, sub, table_dihedral_odd(2 * n), images)


def dihedral_theta_restrictions(table: CharacterTable):
    """The (C_n, C_2) subgroup pair of an ambient dihedral table D_{2n}."""
    if table.family != "dihedral":
        raise ValueError("theta restrictions live in a dihedral ambient group")
    n = table.q // 2
    images_cn = tuple(ClassLabel("id") if j == 0 else ClassLabel("r", _fold(j, n))
                      for j in range(n))
    sub_cn = SubgroupSpec("cyclic", n, n)
    h1 = Restriction(table, sub_cn, table_cyclic(n), images_cn)
    sub_c2 = SubgroupSpec("cyclic", 2, 2)
    h2 = Restriction(table, sub_c2, table_cyclic(2),
                     (ClassLabel("id"), ClassLabel("s")))
    return h1, h2


def theta_balance(n):
    """The two restriction-dimension identities for D_{2n}, odd n.

    Returns (part1_ok, part2_ok): part 1 states d(rho, Theta1) = d(rho, Theta2)
    for every nontrivial irreducible; part 2 adds mu_0 to Theta1 and holds for
    every irreducible except the nontrivial degree-1 one.
    """
    table = table_dihedral_odd(2 * n)
    h1, h2 = dihedral_theta_restrictions(table)
    theta1 = tuple(f"mu_{k}" for k in range(1, (n - 1) // 2 + 1))
    theta1_full = ThetaSet(h1, ("mu_0",) + theta1)
    theta2 = ThetaSet(h2, ("mu_0",))
    part1 = all(d_theta(c, theta1_full, theta1) == d_theta(c, theta2)
                for c in table.chars if c.name != "psi_1")
    part2 = all(d_theta(c, theta1_full) == d_theta(c, theta2)
                for c in table.chars if c.name != "psi_2")
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
        return multiplicity_checks(chi, r, [r.table.by_name[n] for n in names])

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
