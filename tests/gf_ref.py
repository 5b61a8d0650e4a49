"""Scalar arithmetic in GF(p^n): the test reference for `repmoduli.gf`.

An element is encoded as an integer in [0, q) whose base-p digits are the
coefficients of its polynomial representative, as in `repmoduli.gf`.  Here
every operation works on one pair of elements, by polynomial arithmetic
modulo the first irreducible monic polynomial that Rabin's test accepts
(M. O. Rabin, "Probabilistic algorithms in finite fields", SIAM J. Comput.
9 (1980) 273-280).  It shares no code with the digit-array construction of
the program's tables, which the tests compare against it.
"""

from __future__ import annotations

from functools import lru_cache

from repmoduli.cyclo import factorize


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


def is_irreducible(f, p):
    """Rabin's test: x^(p^n) == x mod f, and x^(p^(n/r)) - x coprime to f
    for every prime r | n."""
    n = len(f) - 1
    x = (0, 1)
    if _pol_powmod(x, p ** n, f, p) != _pol_mod(x, f, p):
        return False
    for r, _ in factorize(n):
        g = _pol_powmod(x, p ** (n // r), f, p)
        diff = list(g) + [0] * max(0, 2 - len(g))
        diff[1] = (diff[1] - 1) % p
        if len(_pol_gcd(f, _pol_trim(tuple(diff)), p)) > 1:
            return False
    return True


def first_irreducible(p, n):
    """The first monic irreducible f of degree n, in encoding order of the
    coefficients of f - x^n; x itself for n = 1."""
    if n == 1:
        return (0, 1)
    for low in range(p ** n):
        f = tuple(low // p ** i % p for i in range(n)) + (1,)
        if is_irreducible(f, p):
            return f
    raise ValueError(f"no irreducible modulus for GF({p}^{n})")


class RefField:
    """GF(p^n) modulo first_irreducible(p, n), one element pair at a
    time."""

    def __init__(self, p, n):
        self.p, self.n, self.q = p, n, p ** n
        self.modulus = first_irreducible(p, n)

    def _digits(self, v):
        return [v // self.p ** i % self.p for i in range(self.n)]

    def _int(self, a):
        return sum(c * self.p ** i for i, c in enumerate(a))

    def add(self, a, b):
        return self._int([(x + y) % self.p for x, y in zip(
            self._digits(a), self._digits(b))])

    def neg(self, a):
        return self._int([-c % self.p for c in self._digits(a)])

    def mul(self, a, b):
        prod = _pol_mul(self._digits(a), self._digits(b), self.p)
        return self._int(_pol_mod(prod, self.modulus, self.p))

    def pow(self, a, e):
        """a^e for e >= 0 by square and multiply; 0^0 = 1."""
        acc = 1
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            e >>= 1
        return acc

    def trace(self, a):
        """The absolute trace, the sum of the Frobenius powers a^(p^i)."""
        out = 0
        for i in range(self.n):
            out = self.add(out, self.pow(a, self.p ** i))
        return out

    def first_generator(self):
        """The first element of multiplicative order q - 1."""
        m = self.q - 1
        for g in range(1, self.q):
            if self.pow(g, m) == 1 and all(
                    self.pow(g, m // r) != 1 for r, _ in factorize(m)):
                return g
        raise ValueError("no generator found")


@lru_cache(maxsize=None)
def ref_field(p, n=1):
    return RefField(p, n)
