"""Integer helpers of the cyclotomic side: prime factorization (the CRT
axes on which `chars` reduces cyclotomic values) and Legendre symbols (the
quadratic Gauss sums of the odd-q tables)."""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def factorize(n):
    """Prime factorization of n >= 1 as a tuple of (p, multiplicity)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def legendre(a, p):
    """Legendre symbol (a|p) for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1
