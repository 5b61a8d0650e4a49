import pytest

from repmoduli.cyclo import factorize
from repmoduli.gf import FieldError, gf_make
from repmoduli.groups import psl2_model


def test_gf4_generator_order_three():
    f = gf_make(2, 2)
    nu = f.generator
    assert nu != 1
    assert f.pow(nu, 3) == 1
    assert f.pow(nu, 2) != 1


def test_gf9_unique_involution():
    f = gf_make(3, 2)
    nu = f.generator
    assert f.pow(nu, 8) == 1
    assert f.pow(nu, 4) == f.neg[1]


def test_field_axioms_exhaustive_small():
    for p, n in [(2, 2), (3, 1), (2, 3), (5, 1), (3, 2)]:
        f = gf_make(p, n)
        els = list(range(f.q))
        for a in els:
            for b in els:
                assert f.add[a, b] == f.add[b, a]
                assert f.mul[a, b] == f.mul[b, a]
                if b:
                    assert f.mul[f.mul[a, b], f.inv[b]] == a
            if a:
                assert f.mul[a, f.inv[a]] == 1
        for a in els[:6]:
            for b in els[:6]:
                for c in els[:6]:
                    assert f.mul[a, f.add[b, c]] == f.add[f.mul[a, b], f.mul[a, c]]


def test_frobenius_fixes_exactly_prime_field():
    for p, n in [(2, 2), (2, 3), (3, 2)]:
        f = gf_make(p, n)
        fixed = [a for a in range(f.q) if f.pow(a, p) == a]
        # constants are encoded as the integers 0..p-1
        assert sorted(fixed) == list(range(p))


def test_frobenius_is_additive_and_multiplicative():
    f = gf_make(2, 3)
    for a in range(f.q):
        for b in range(f.q):
            assert f.pow(f.add[a, b], 2) == f.add[f.pow(a, 2), f.pow(b, 2)]
            assert f.pow(f.mul[a, b], 2) == f.mul[f.pow(a, 2), f.pow(b, 2)]


def test_generator_exact_order():
    for p, n in [(2, 2), (2, 3), (2, 5), (3, 1), (3, 2), (11, 1), (19, 1)]:
        f = gf_make(p, n)
        m = f.q - 1
        assert f.pow(f.generator, m) == 1
        assert all(f.pow(f.generator, m // r) != 1 for r, _ in factorize(m))


def test_bad_field_arguments():
    with pytest.raises(FieldError):
        gf_make(6, 1)
    with pytest.raises(FieldError):
        gf_make(2, 15)  # 2^15 above the supported bound
    with pytest.raises(FieldError):
        gf_make(257)    # the first prime above the table bound


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3),
                                 (83, 1)])
def test_tables_match_slow_arithmetic(p, n):
    # every table against the slow arithmetic, in its array form and, where
    # the scalar lookups read one, in its tuple view
    f = gf_make(p, n)
    for a in range(f.q):
        assert f.neg_table[a] == f.neg[a] == f._neg_slow(a)
        assert f.add[a, f.neg[a]] == 0
        assert f.inv_table[a] == f.inv[a]
        if a:
            assert f._mul_slow(a, f.inv[a]) == 1
        trace = 0
        for i in range(n):
            trace = f._add_slow(trace, f._pow_slow(a, p ** i))
        assert f.trace[a] == trace and 0 <= trace < p
        for b in range(f.q):
            assert f.mul_table[a][b] == f.mul[a, b] == f._mul_slow(a, b)
            assert f.add_table[a][b] == f.add[a, b] == f._add_slow(a, b)
    assert f.inv[0] == 0


def test_cached_tables_are_read_only():
    # a write into a cached field's table raises, and leaves the products
    # of a group built on the field unchanged
    f = gf_make(2, 2)
    before = [[psl2_model(4).mul(x, y) for y in psl2_model(4).scan()]
              for x in psl2_model(4).scan()]
    for name in ("add", "mul"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(f, name)[1, 1] = 3
        with pytest.raises(TypeError):
            getattr(f, name + "_table")[1][1] = 3
    for name in ("neg", "inv", "trace"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(f, name)[1] = 3
    for name in ("neg_table", "inv_table"):
        with pytest.raises(TypeError):
            getattr(f, name)[1] = 3
    psl2_model.cache_clear()
    m = psl2_model(4)
    assert [[m.mul(x, y) for y in m.scan()] for x in m.scan()] == before
