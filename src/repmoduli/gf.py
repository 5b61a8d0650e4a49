"""Finite field arithmetic GF(p^n) with a designated generator.

Elements are encoded as integers in [0, q): the base-p digits are the
coefficients of the polynomial representative.  Field data is deterministic:
the modulus f is the first monic irreducible polynomial of degree n, taken
in encoding order of f - x^n, and the generator is the first element of
multiplicative order q - 1 in encoding order, so every derived table is
reproducible.

Every table is built from integer arrays of base-p digits.  F_p[x]/(f) is a
field exactly when it has no zero divisor (Lidl and Niederreiter, Finite
Fields, ch. 1), so the modulus search multiplies such arrays too.  The
scalar polynomial arithmetic and Rabin's irreducibility test, which check
these tables from outside, are the tests' reference (tests/gf_ref.py).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class FieldError(ValueError):
    pass


_TABLE_LIMIT = 256        # largest field; its dense q x q tables stay small


def _read_only(table):
    out = np.array(table, dtype=np.intp)
    out.flags.writeable = False
    return out


def _times(rows, low, p, add):
    """mul[a, b] for every digit row a of `rows` (k, n) and every encoding
    b, shape (k, p^n), where f = x^n + low.  The product is the field sum
    over i of b_i (a x^i), taken one digit of b at a time through the add
    table; a x^(i+1) is a x^i with its digits moved up one place and its
    top digit times -low added."""
    k, n = rows.shape
    scale, place = np.arange(p)[:, None, None], p ** np.arange(n)
    out = np.zeros((k, 1), np.intp)         # the products with b = 0
    for i in range(n):
        multiples = (scale * rows % p @ place).T[:, :, None]    # d (a x^i)
        out = add[multiples, out[:, None]].reshape(k, p ** (i + 1))
        rows = (np.pad(rows[:, :-1], ((0, 0), (1, 0)))
                - rows[:, -1:] * low) % p
    return out


def _modulus_low(p, n, digits, add):
    """Digits of f - x^n for the first monic f of degree n whose quotient
    ring has no zero divisor.  A reducible f has a factor of some degree
    d with 1 <= d <= n/2, so only the rows of those degrees are tried; for
    n >= 2 an f divisible by x is skipped."""
    for low in digits:
        if n > 1 and low[0] == 0:
            continue
        if _times(digits[p:p ** (n // 2 + 1)], low, p, add)[:, 1:].all():
            return low
    raise FieldError(f"no irreducible modulus found for GF({p}^{n})")


class FieldSpec:
    """GF(p^n) with modulus, generator, and dense arithmetic tables; q is
    at most _TABLE_LIMIT.

    This is the one place that builds field tables, each once per field as
    a read-only np.intp array: add[a, b], mul[a, b], neg[a], inv[a] (0 at
    0) and the absolute trace[a] into the prime field (encoded 0..p-1).
    The scalar lookups of the group layer read the tuple views add_table,
    mul_table, neg_table and inv_table: a tuple lookup is several times
    faster than an array lookup."""

    def __init__(self, p, n):
        if n < 1:
            raise FieldError("n must be a positive integer")
        self.p, self.n = p, n
        self.q = q = p ** n
        if q > _TABLE_LIMIT:
            raise FieldError(f"field size {q} above supported bound")
        if p < 2 or any(p % d == 0 for d in range(2, p)):
            raise FieldError(f"{p} is not prime")
        x, place = np.arange(q), p ** np.arange(n)
        digits = x[:, None] // place % p
        # a + b, less p^(i+1) for each digit i whose sum carries
        self.add = _read_only(x[:, None] + x - (digits[:, None] + digits >= p)
                              @ (p * place))
        self.neg = _read_only(-digits % p @ place)
        low = _modulus_low(p, n, digits, self.add)
        self.modulus = tuple(low.tolist()) + (1,)
        self.mul = _read_only(_times(digits, low, p, self.add))
        self.inv = _read_only(np.argmax(self.mul == 1, axis=1))
        power, hit = x, x == 0      # hit: some power below q - 1 is 1
        for _ in range(q - 2):
            hit |= power == 1
            power = self.mul[power, x]
        self.generator = int(np.argmin(hit))
        trace = conj = x            # the sum of the Frobenius powers a^(p^i)
        for _ in range(n - 1):
            power = conj
            for _ in range(p - 1):
                power = self.mul[power, conj]
            trace, conj = self.add[trace, power], power
        self.trace = _read_only(trace)
        self.add_table, self.mul_table = (tuple(map(tuple, t.tolist()))
                                          for t in (self.add, self.mul))
        self.neg_table, self.inv_table = (tuple(t.tolist())
                                          for t in (self.neg, self.inv))

    def __repr__(self):
        return f"FieldSpec(GF({self.p}^{self.n}), modulus={self.modulus})"


@lru_cache(maxsize=None)
def gf_make(p, n=1):
    return FieldSpec(p, n)
