"""Finite field arithmetic GF(p^n) with a designated generator.

Elements are encoded as integers in [0, q): the base-p digits are the
coefficients of the polynomial representative.  Field data is deterministic:
the modulus is the lexicographically first irreducible monic polynomial of
degree n, and the generator is the first element of multiplicative order
q - 1 in encoding order, so every derived table is reproducible.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cyclo import factorize


class FieldError(ValueError):
    pass


# -- polynomial helpers over GF(p), little-endian coefficient tuples --------

def _pol_trim(a):
    i = len(a)
    while i and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _pol_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _pol_trim(tuple(out))


def _pol_mod(a, f, p):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % p
        if c:
            factor = (c * inv_lead) % p
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - factor * f[j]) % p
    return _pol_trim(tuple(a))


def _pol_powmod(a, e, f, p):
    result = (1,)
    base = _pol_mod(a, f, p)
    while e:
        if e & 1:
            result = _pol_mod(_pol_mul(result, base, p), f, p)
        base = _pol_mod(_pol_mul(base, base, p), f, p)
        e >>= 1
    return result


def _pol_gcd(a, b, p):
    while b:
        a, b = b, _pol_mod(a, b, p)
    return a


def _is_irreducible(f, p):
    # Rabin test: x^(p^n) == x mod f, and x^(p^(n/r)) - x coprime to f for
    # every prime r | n.
    n = len(f) - 1
    x = (0, 1)
    if _pol_powmod(x, p ** n, f, p) != _pol_mod(x, f, p):
        return False
    for r, _ in factorize(n):
        g = _pol_powmod(x, p ** (n // r), f, p)
        diff = list(g) + [0] * max(0, 2 - len(g))
        diff[1] = (diff[1] - 1) % p
        d = _pol_gcd(f, _pol_trim(tuple(diff)), p)
        if len(d) > 1:
            return False
    return True


def _find_modulus(p, n):
    if n == 1:
        return (0, 1)
    for low in range(p ** n):
        coeffs = []
        v = low
        for _ in range(n):
            coeffs.append(v % p)
            v //= p
        f = tuple(coeffs) + (1,)
        if _is_irreducible(f, p):
            return f
    raise FieldError(f"no irreducible modulus found for GF({p}^{n})")


def _is_prime(p):
    return p >= 2 and factorize(p) == ((p, 1),)


_TABLE_LIMIT = 256        # largest field; its dense q x q tables stay small


def _read_only(table):
    out = np.array(table, dtype=np.intp)
    out.flags.writeable = False
    return out


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
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if n < 1:
            raise FieldError("n must be a positive integer")
        self.p, self.n = p, n
        self.q = q = p ** n
        if q > _TABLE_LIMIT:
            raise FieldError(f"field size {q} above supported bound")
        self.modulus = _find_modulus(p, n)
        self.generator = self._find_generator()
        exp = [1]
        for _ in range(q - 2):
            exp.append(self._mul_slow(exp[-1], self.generator))
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = tuple(exp), tuple(log)
        log, exp, unit = np.array(log), np.array(exp), np.arange(q) > 0

        def power(e):       # x^e for every x, 0 at 0
            return np.where(unit, exp[log * e % (q - 1)], 0)

        self.add = _read_only([[self._add_slow(a, b) for b in range(q)]
                               for a in range(q)])
        self.neg = _read_only([self._neg_slow(a) for a in range(q)])
        self.mul = _read_only(np.where(unit[:, None] & unit, exp[
            (log[:, None] + log) % (q - 1)], 0))
        self.inv = _read_only(power(-1))
        trace = 0
        for i in range(n):
            trace = self.add[trace, power(p ** i)]
        self.trace = _read_only(trace)
        self.add_table, self.mul_table = (tuple(map(tuple, t.tolist()))
                                          for t in (self.add, self.mul))
        self.neg_table, self.inv_table = (tuple(t.tolist())
                                          for t in (self.neg, self.inv))

    # -- encoding ------------------------------------------------------------

    def _int_to_pol(self, v):
        out = []
        while v:
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def _pol_to_int(self, a):
        v = 0
        for c in reversed(a):
            v = v * self.p + c
        return v

    # -- raw arithmetic on int encodings --------------------------------------

    def _add_slow(self, a, b):
        if self.p == 2:
            return a ^ b
        out = 0
        mult = 1
        while a or b:
            out += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return out

    def _neg_slow(self, a):
        if self.p == 2:
            return a
        out = 0
        mult = 1
        while a:
            out += (-a % self.p) % self.p * mult
            a //= self.p
            mult *= self.p
        return out

    def _mul_slow(self, a, b):
        prod = _pol_mul(self._int_to_pol(a), self._int_to_pol(b), self.p)
        return self._pol_to_int(_pol_mod(prod, self.modulus, self.p))

    def _find_generator(self):
        target = self.q - 1
        prime_divs = [r for r, _ in factorize(target)] if target > 1 else []
        for g in range(1, self.q):
            if any(self._pow_slow(g, target // r) == 1 for r in prime_divs):
                continue
            if self._pow_slow(g, target) == 1:
                return g
        raise FieldError("no generator found")

    def _pow_slow(self, a, e):
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self._mul_slow(acc, base)
            base = self._mul_slow(base, base)
            e >>= 1
        return acc

    def pow(self, a, e):
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def __repr__(self):
        return f"FieldSpec(GF({self.p}^{self.n}), modulus={self.modulus})"


@lru_cache(maxsize=None)
def gf_make(p, n=1):
    return FieldSpec(p, n)

