"""Grams for the tests: `gram` runs `chars._gram` on lists of packed rows,
and `group_ring_gram` is the exact reference that `chars._gram` is checked
against.

The group-ring sum groups the columns by the conductor m of their values and
sums each group's partial Gram in Z[Z/m] with integer numpy, reduced on the
CRT grid of Z/m by `chars._fan_reduce` and read off at exponent 0.  Nothing
is certified or folded: every term of a_i(x) meets every term of b_j(x), so
the sum is exact for any table, and a group partial that is not rational
raises TableMismatch naming the entry."""

from fractions import Fraction
from math import lcm

import numpy as np

from repmoduli import chars
from repmoduli.chars import TableMismatch, _dense_data, _fan_reduce
from repmoduli.cyclo import factorize

CHUNK = 1 << 14         # entries per temporary array


def gram(rows_a, rows_b, weights, kernel=None):
    """G[i][j] = sum_x w_x a_i(x) conj(b_j(x)) over lists of packed rows,
    exact, as a list of rows of Fractions: `kernel` (`chars._gram` unless
    given) on the (values, grid) side of each list, Hermitian when
    `rows_b is rows_a`."""
    a = as_side(rows_a)
    total, den = (kernel or chars._gram)(
        a, a if rows_b is rows_a else as_side(rows_b), weights)
    return [[Fraction(v, den) for v in row] for row in total.tolist()]


def as_side(rows):
    """Packed rows as a (values, grid) side: each distinct stored value
    once, and the index of every cell's value."""
    index = {}
    grid = [[index.setdefault(p, len(index)) for p in row] for row in rows]
    return tuple(index), np.array(grid, dtype=np.intp).reshape(
        len(rows), len(rows[0]) if rows else 0)


def group_ring_gram(side_a, side_b, weights):
    """`chars._gram` on two sides (values, grid) as (integer object array,
    common denominator), with the same columns kept and the same
    denominator; `side_b is side_a` is the Hermitian case, of which only
    the entries j >= i are summed, and mirrored."""
    (values_a, grid_a), (values_b, grid_b) = side_a, side_b
    upper = side_b is side_a
    wden = lcm(*(w.denominator for w in weights))
    cols = np.array([x for x, w in enumerate(weights) if w], dtype=np.intp)
    zero = np.array([p is None for p in values_a], dtype=bool)
    cols = cols[~zero[grid_a[:, cols]].all(axis=0)]
    total = np.zeros((len(grid_a), len(grid_b)), dtype=object)
    if not (len(cols) and len(grid_a) and len(grid_b)):
        return total, wden
    w = np.array([int(weights[x] * wden) for x in cols.tolist()],
                 dtype=object)
    flat_a = _flatten(values_a, grid_a[:, cols])
    flat_b = flat_a if upper else _flatten(values_b, grid_b[:, cols])
    bounds = abs(w) * flat_a[2].astype(object) * flat_b[2].astype(object)
    cond = np.lcm(flat_a[1], flat_b[1]) * (bounds != 0)
    for m in sorted(set(cond.tolist()) - {0}):
        in_group = cond == m
        small = bounds[in_group].sum() << len(factorize(m)) < 1 << 62
        a = _group_terms(flat_a[3], in_group, m)
        b = a if upper else _group_terms(flat_b[3], in_group, m)
        _add_group(total, a, b, np.where(in_group, w, 0).astype(
            np.int64 if small else object), m, upper)
    if upper:
        i, j = np.tril_indices(len(total), -1)
        total[i, j] = total[j, i]
    return total, flat_a[0] * flat_b[0] * wden


def _flatten(values, grid):
    """The terms of the cells of an index grid into stored values, over one
    common denominator: (den, conductor per column, largest l1 norm of a
    value per column, (row, column, order, exponent, numerator) arrays).
    Norms and numerators are int64 unless a scaled l1 norm reaches 2^62,
    and Python ints then."""
    used = np.zeros(len(values), dtype=bool)
    used[grid] = True
    live = [values[k] for k in np.flatnonzero(used).tolist()]
    den = lcm(*{p[3] for p in live if p is not None})
    orders, counts, norms, exps, nums = [], [], [], [], []
    for p in live:
        order, ks, ns, d, l1 = p or (1, (), (), den, 0)    # None: no terms
        f = den // d
        orders.append(order)
        counts.append(len(ks))
        norms.append(l1 * f)
        exps += ks
        nums += ns if f == 1 else [n * f for n in ns]
    dtype = np.int64 if max(norms, default=0) < 1 << 62 else object
    v = (np.cumsum(used) - 1)[grid]         # cell -> index into `live`
    order = np.array(orders, dtype=np.int64)[v]
    cond = np.lcm.reduce(order, axis=0, initial=1)
    norm = np.array(norms, dtype=dtype)[v].max(axis=0, initial=0)
    counts = np.array(counts, dtype=np.int64)
    v = v.ravel()
    t = counts[v]
    ends = np.cumsum(t)
    idx = np.repeat((np.cumsum(counts) - counts)[v] - ends + t, t) + \
        np.arange(int(ends[-1]) if len(ends) else 0)
    n_rows, n_cols = grid.shape
    return den, cond, norm, (
        np.repeat(np.arange(n_rows), n_cols).repeat(t),
        np.tile(np.arange(n_cols), n_rows).repeat(t), order.ravel().repeat(t),
        np.array(exps, dtype=np.int64)[idx],
        np.array(nums, dtype=dtype)[idx])


def _group_terms(terms, in_group, m):
    """(row, column, exponent mod m, numerator) of the terms on the columns
    of one conductor-m group."""
    sel = in_group[terms[1]]
    r, c, o, k, n = (t[sel] for t in terms)
    return r, c, k * (m // o), n


def _add_group(total, a, b, w, m, upper):
    """Add to `total` the partial Gram over one conductor-m group of terms,
    weighted by the column weights `w`, in chunks of Gram rows.  The
    partners of an a-term in row i and column x are the b-terms of column
    x: all of them, or with `upper` those in rows >= i, one contiguous run
    of the b-side sorted by (column, row)."""
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
    offset = start - first[:-1]     # b-side index = offset + pair number
    wa, nb = na.astype(w.dtype) * w[ca], nb.astype(w.dtype)
    per_row = np.bincount(ra, weights=partners, minlength=n_a)
    step = max(1, CHUNK // max(n_b * m, int(per_row.max())))
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
