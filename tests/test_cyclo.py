import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repmoduli.chars import canonical, pack_terms, value_text
from repmoduli.cyclo import factorize, legendre

from cyclotomic_ref import Cyclotomic, NotRational


def quadratic_gauss_sum(p):
    """sum_k (k|p) zeta_p^k for an odd prime p.

    Its square is (-1)^((p-1)/2) * p, which fixes the classical sign
    convention for square roots of +-p inside Q(zeta_p).
    """
    if p == 2 or p < 3 or factorize(p) != ((p, 1),):
        raise ValueError("p must be an odd prime")
    return Cyclotomic(p, tuple((k, legendre(k, p)) for k in range(1, p)))


def sqrt_eps_q(p, n):
    """Exact square root of (-1)^((q-1)/2) * q for q = p^n, p odd, n odd."""
    if n % 2 == 0:
        raise ValueError("n must be odd")
    return Cyclotomic.rational(p ** ((n - 1) // 2)) * quadratic_gauss_sum(p)


def test_sum_of_primitive_fifth_roots():
    z = Cyclotomic.root(5)
    total = z + z ** 2 + z ** 3 + z ** 4
    assert total.to_rational() == -1


def test_conjugation_on_unit_circle():
    assert Cyclotomic.root(7, 3).conj() == Cyclotomic.root(7, 4)


def test_gauss_sum_square_q3():
    # Expanding directly: (z - z^2)^2 = z^2 - 2z^3 + z^4 = z^2 + z - 2 = -3.
    z = Cyclotomic.root(3)
    assert ((z - z ** 2) ** 2).to_rational() == -3


def test_rescaling_stability():
    for n in (3, 4, 5, 6, 9, 12):
        for k in range(n):
            assert Cyclotomic.root(2 * n, 2 * k) == Cyclotomic.root(n, k)
            assert Cyclotomic.root(3 * n, 3 * k) == Cyclotomic.root(n, k)


def test_minus_one_has_order_one():
    v = Cyclotomic.root(2)
    assert v.is_rational() and v.to_rational() == -1
    assert Cyclotomic.root(4, 2).to_rational() == -1


def test_to_rational_rejects_irrational():
    with pytest.raises(NotRational):
        Cyclotomic.root(5).to_rational()


def test_mixed_order_arithmetic_embeds():
    a = Cyclotomic.root(4)   # i
    b = Cyclotomic.root(3)
    v = a + b
    assert v - b == a
    assert (a * a).to_rational() == -1


def test_root_times_inverse_root():
    for n in (2, 3, 7, 8, 12, 30):
        for k in range(n):
            assert (Cyclotomic.root(n, k) * Cyclotomic.root(n, n - k)
                    == Cyclotomic.one())


def test_serialization_format():
    v = Cyclotomic.from_terms(5, {0: Fraction(1, 2), 2: Fraction(-3)})
    assert v.to_text() == "1/2 + -3*z^2 (mod 5)"
    assert Cyclotomic.zero().to_text() == "0 (mod 1)"


def _random_value(rng, order):
    terms = [(rng.randrange(order), Fraction(rng.randrange(-4, 5),
                                             rng.randrange(1, 4)))
             for _ in range(rng.randrange(0, 5))]
    return Cyclotomic.from_terms(order, terms)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12, 15]))
def test_ring_axioms(seed, order):
    rng = random.Random(seed)
    a, b, c = (_random_value(rng, order) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + Cyclotomic.zero() == a
    assert a * Cyclotomic.one() == a
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([3, 4, 5, 7, 8, 9, 12]))
def test_conj_is_involutive_ring_automorphism(seed, order):
    rng = random.Random(seed)
    a, b = (_random_value(rng, order) for _ in range(2))
    assert a.conj().conj() == a
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


def test_canonical_form_is_unique_across_paths():
    rng = random.Random(7)
    for _ in range(200):
        order = rng.choice([2, 3, 4, 6, 8, 9, 10, 12, 18, 20])
        a = _random_value(rng, order)
        # Rebuild the same abstract number through an inflated ambient order.
        m = a.order * rng.choice([2, 3, 5])
        b = Cyclotomic.from_terms(
            m, [(k * (m // a.order), c) for k, c in a.coeffs])
        assert a == b and hash(a) == hash(b)
        assert a.order == b.order and a.coeffs == b.coeffs


def test_norm_is_positive_rational():
    rng = random.Random(11)
    for _ in range(50):
        a = _random_value(rng, rng.choice([3, 5, 8, 12]))
        nn = a * a.conj()
        # |a|^2 is a nonnegative real; for these small orders we only check
        # that conjugation-symmetric products of a value with itself vanish
        # exactly when the value does.
        assert nn.is_zero() == a.is_zero()


def test_legendre_and_gauss_sum():
    assert [legendre(a, 7) for a in range(1, 7)] == [1, 1, -1, 1, -1, -1]
    for p in (3, 7, 11, 19):
        g = quadratic_gauss_sum(p)
        eps = 1 if p % 4 == 1 else -1
        assert (g * g).to_rational() == eps * p


def test_sqrt_eps_q_prime_power():
    # q = 27 = 3^3: eps*q = -27 and sqrt is 3 * (gauss sum for p=3).
    s = sqrt_eps_q(3, 3)
    assert (s * s).to_rational() == -27
    with pytest.raises(ValueError):
        sqrt_eps_q(3, 2)


def test_conjugation_matches_complex_conjugation():
    rng = random.Random(19)
    for _ in range(60):
        v = _random_value(rng, rng.choice([5, 8, 12, 21, 63]))
        lhs = v.conj().to_complex()
        rhs = v.to_complex().conjugate()
        assert abs(lhs - rhs) < 1e-9


_coeffs = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.integers(-(1 << 70), 1 << 70))      # past int64 once folded


@st.composite
def _terms(draw):
    """(order, terms): exponents out of range and repeated, plus full fans
    sum_i c zeta_p^i zeta^t over a prime p of the order, which cancel."""
    order = draw(st.one_of(
        st.sampled_from([1, 2, 4, 8, 9, 16, 25, 27, 49, 72, 360, 210]),
        st.integers(1, 400)))
    terms = draw(st.lists(st.tuples(st.integers(-3 * order, 3 * order),
                                    _coeffs), max_size=6))
    terms += [draw(st.sampled_from(terms))] if terms else []
    primes = [p for p, _ in factorize(order)]
    fans = draw(st.lists(st.sampled_from(primes), max_size=3)) if primes \
        else []
    for p in fans:
        t, c = draw(st.integers(0, order - 1)), draw(_coeffs)
        terms += [(t + i * (order // p), c) for i in range(p)]
    return order, draw(st.permutations(terms))


@settings(max_examples=300, deadline=None)
@given(_terms())
def test_canonical_matches_reference(case):
    order, terms = case
    ref = Cyclotomic.from_terms(order, terms)
    value = pack_terms(order, terms)
    assert canonical(value) == (ref.order, ref.coeffs)
    assert value_text(value) == ref.to_text()
    if ref.is_zero():
        assert value_text(value) == "0 (mod 1)"


def test_full_fans_cancel_to_zero():
    for order in (8, 9, 27, 72, 360):
        for p, _ in factorize(order):
            fan = [(3 + i * (order // p), Fraction(2, 3)) for i in range(p)]
            value = pack_terms(order, fan)
            assert value is not None
            assert canonical(value) == (1, ())
            assert value_text(value) == "0 (mod 1)"
