"""Exact arithmetic in cyclotomic fields Q(zeta_N): the test reference.

A value is a finite Q-linear combination of roots of unity.  It is stored in
a canonical form: the support is reduced to the tensor basis assembled from
the power bases {zeta_{p^v}^j : 0 <= j < phi(p^v)} of the prime-power factors
of N, and N itself is deflated by the gcd of the support so that the stored
order is minimal.  The canonical form is unique, so equality and hashing are
structural.  Coefficients are exact `Fraction`s; no floating point is used.

The reduction here rewrites one term at a time, independently of the
program's one reduction (`repmoduli.chars.canonical`, on the CRT grid of the
Gram kernel), which the tests compare against it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from repmoduli.cyclo import factorize


class NotRational(ValueError):
    """The value does not lie in Q."""


@lru_cache(maxsize=None)
def _reduction_data(order):
    # Per prime-power factor p^v of order: the CRT unit u with
    # zeta_order^k = prod_p zeta_{p^v}^{k*u mod p^v}, the idempotent
    # e_p = (order/p^v)*u (== 1 mod p^v, == 0 mod order/p^v), the basis
    # bound phi(p^v) and the rewrite step p^(v-1).
    data = []
    for p, e in factorize(order):
        pv = p ** e
        cof = order // pv
        u = pow(cof, -1, pv)
        idem = (cof * u) % order
        phi = pv - pv // p
        data.append((p, pv, u, idem, phi, pv // p))
    return tuple(data)


def _reduce_terms(order, terms):
    """Rewrite exponent->coefficient terms into the canonical basis mod order.

    Each term violating the basis bound at a prime p is expanded through the
    relation zeta_{p^v}^{phi(p^v)+t} = -sum_i zeta_{p^v}^{t + i*p^(v-1)}; a
    term is expanded at most once per prime, so this terminates.
    """
    data = _reduction_data(order)
    out = {}
    stack = [(k % order, c) for k, c in terms if c]
    while stack:
        k, c = stack.pop()
        for p, pv, u, idem, phi, step in data:
            a = (k * u) % pv
            if a >= phi:
                t = a - phi
                base = k - a * idem
                stack.extend(
                    ((base + (t + i * step) * idem) % order, -c)
                    for i in range(p - 1)
                )
                break
        else:
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out


class Cyclotomic:
    """An exact element of some Q(zeta_N), in canonical form."""

    __slots__ = ("order", "coeffs", "_hash")

    def __init__(self, order, terms, _canonical=False):
        if _canonical:
            self.order = order
            self.coeffs = terms
        else:
            if order < 1:
                raise ValueError("order must be a positive integer")
            reduced = _reduce_terms(order, terms)
            if not reduced:
                order = 1
            else:
                g = order
                for k in reduced:
                    g = gcd(g, k)
                    if g == 1:
                        break
                if g > 1:
                    reduced = {k // g: c for k, c in reduced.items()}
                    order //= g
            self.order = order
            self.coeffs = tuple(sorted(
                (k, Fraction(c)) for k, c in reduced.items()))
        self._hash = hash((self.order, self.coeffs))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return Cyclotomic(1, ())

    @staticmethod
    def one():
        return Cyclotomic(1, ((0, 1),))

    @staticmethod
    def rational(c):
        return Cyclotomic(1, ((0, c),))

    @staticmethod
    def root(n, k=1):
        """The root of unity zeta_n^k."""
        if n < 1:
            raise ValueError("order must be a positive integer")
        return Cyclotomic(n, ((k % n, 1),))

    @staticmethod
    def from_terms(order, terms):
        """Sum of coeff * zeta_order^k over (k, coeff) pairs (or a mapping)."""
        if isinstance(terms, dict):
            terms = terms.items()
        return Cyclotomic(order, tuple(terms))

    @staticmethod
    def from_packed(value):
        """A value in the packed form tables store (None is zero)."""
        if value is None:
            return Cyclotomic.zero()
        order, exps, nums, den, _ = value
        return Cyclotomic(order, tuple(
            (k, Fraction(n, den)) for k, n in zip(exps, nums)))

    # -- predicates and conversions ----------------------------------------

    def is_zero(self):
        return not self.coeffs

    def is_rational(self):
        return self.order == 1

    def to_rational(self):
        """The value as a Fraction, or NotRational if it is not in Q."""
        if self.order != 1:
            raise NotRational(f"not a rational value: {self}")
        return self.coeffs[0][1] if self.coeffs else Fraction(0)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n1, n2 = self.order, other.order
        n = n1 * n2 // gcd(n1, n2)
        f1, f2 = n // n1, n // n2
        terms = {k * f1: c for k, c in self.coeffs}
        for k, c in other.coeffs:
            kk = k * f2
            v = terms.get(kk, 0) + c
            if v:
                terms[kk] = v
            elif kk in terms:
                del terms[kk]
        return Cyclotomic(n, tuple(terms.items()))

    __radd__ = __add__

    def __neg__(self):
        out = Cyclotomic.__new__(Cyclotomic)
        out.order = self.order
        out.coeffs = tuple((k, -c) for k, c in self.coeffs)
        out._hash = hash((out.order, out.coeffs))
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_rational():
            c0 = other.coeffs[0][1] if other.coeffs else 0
            return Cyclotomic(self.order,
                              tuple((k, c * c0) for k, c in self.coeffs))
        if self.is_rational():
            return other * self
        n1, n2 = self.order, other.order
        n = n1 * n2 // gcd(n1, n2)
        f1, f2 = n // n1, n // n2
        terms = {}
        for k1, c1 in self.coeffs:
            kk1 = k1 * f1
            for k2, c2 in other.coeffs:
                kk = (kk1 + k2 * f2) % n
                v = terms.get(kk, 0) + c1 * c2
                if v:
                    terms[kk] = v
                elif kk in terms:
                    del terms[kk]
        return Cyclotomic(n, tuple(terms.items()))

    __rmul__ = __mul__

    def __pow__(self, m):
        if m < 0:
            raise ValueError("negative powers are not supported")
        acc = Cyclotomic.one()
        base = self
        while m:
            if m & 1:
                acc = acc * base
            base = base * base if m > 1 else base
            m >>= 1
        return acc

    def conj(self):
        """Complex conjugation: zeta_N^k -> zeta_N^(N-k)."""
        n = self.order
        return Cyclotomic(n, tuple(((n - k) % n, c) for k, c in self.coeffs))

    # -- comparisons, hashing, display --------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def to_text(self):
        """Serialize as "c0 + c1*z^1 + ... (mod N)"."""
        if not self.coeffs:
            return "0 (mod 1)"
        parts = []
        for k, c in self.coeffs:
            parts.append(str(c) if k == 0 else f"{c}*z^{k}")
        return " + ".join(parts) + f" (mod {self.order})"

    __str__ = to_text

    def __repr__(self):
        return f"Cyclotomic({self.to_text()!r})"

    def to_complex(self):
        """Double-precision complex value."""
        import cmath
        return sum(complex(c) * cmath.exp(2j * cmath.pi * k / self.order)
                   for k, c in self.coeffs)
