import random
from collections import Counter
from functools import cache

import pytest

from repmoduli.chars import table_suzuki
from repmoduli.cyclo import factorize
from repmoduli.gf import gf_make
from repmoduli.groups import (
    ID, ClassData, ClassLabel, IDENTITY, _of_traces, _prime_power,
    build_subgroup,
    class_data_model, fusion_table, matrix_model, psl2_model, stored_fusion,
    suzuki_class_labels, symbolic_subgroup,
)


def mat_mul(f, x, y):
    """The 2x2 product over any field object with `add` and `mul`; the
    reference that GroupModel.mul's table lookups are tested against."""
    a, b, c, d = x
    e, g, h, i = y
    return (
        f.add(f.mul(a, e), f.mul(b, h)),
        f.add(f.mul(a, g), f.mul(b, i)),
        f.add(f.mul(c, e), f.mul(d, h)),
        f.add(f.mul(c, g), f.mul(d, i)),
    )


def transvection_generators(f):
    """[[1, 0], [x, 1]] and [[1, x], [0, 1]] for the powers x of the field
    generator below the degree: together they generate SL2(q)."""
    gens = []
    for i in range(f.n):
        lam = f.pow(f.generator, i)
        gens += [(1, 0, lam, 1), (1, lam, 0, 1)]
    return gens


def test_psl2_4_order_and_class_count():
    m = psl2_model(4)
    assert m.order == 60
    assert len(m.class_labels) == 5


def test_sl2_5_order():
    m = matrix_model(gf_make(5))
    assert m.order == 120
    assert len(m.class_labels) == 5 + 4  # q + 4


def test_psl2_11_transvection_class_size():
    m = psl2_model(11)
    assert m.class_sizes[ClassLabel("c")] == (11 * 11 - 1) // 2 == 60


def _classify(model, g):
    return model.class_of(model.canonical(g))


def test_classify_identity_and_transvection():
    m = psl2_model(4)
    assert _classify(m, IDENTITY) == ClassLabel("id")
    assert m.class_sizes[_classify(m, (1, 0, 1, 1))] == 4 * 4 - 1 == 15
    assert _classify(m, (1, 0, 1, 1)) == ClassLabel("c")


def test_psl2_11_involutions_are_bq():
    m = psl2_model(11)
    invs = [g for g in m.scan() if m.element_order(g) == 2]
    assert invs
    assert {_classify(m, g) for g in invs} == {ClassLabel("bq")}


def test_classify_constant_on_conjugacy_orbits():
    rng = random.Random(5)
    for q in (4, 11):
        m = psl2_model(q)
        for _ in range(200):
            g = m.element(rng.randrange(m.order))
            h = m.element(rng.randrange(m.order))
            assert _classify(m, g) == _classify(m, m.conjugate(g, h))


def test_subgroup_orders():
    m4 = psl2_model(4)
    assert build_subgroup(m4, "borel").order == 4 * 3 == 12
    assert build_subgroup(m4, "dihedral_split").order == 6
    assert build_subgroup(m4, "dihedral_nonsplit").order == 10
    m11 = psl2_model(11)
    assert build_subgroup(m11, "dihedral_split").order == 10
    assert build_subgroup(m11, "a4").order == 12
    assert build_subgroup(m11, "klein4").order == 4
    assert build_subgroup(m11, "borel").order == 55


def test_subgroups_are_closed():
    m = psl2_model(11)
    for tag in ("borel", "dihedral_split", "dihedral_nonsplit", "a4"):
        sub = build_subgroup(m, tag)
        els = set(sub.elements)
        for x in sub.elements:
            assert m.inv(x) in els
        for x in list(els)[:12]:
            for y in list(els)[:12]:
                assert m.mul(x, y) in els


def test_fusion_brute_force_examples():
    m4 = psl2_model(4)
    d6 = build_subgroup(m4, "dihedral_split")
    tab = fusion_table(m4, d6)
    assert tab[ClassLabel("c")] == 3

    m11 = psl2_model(11)
    c3 = build_subgroup(m11, "cyclic", 3)
    tab = fusion_table(m11, c3)
    assert tab[ClassLabel("b", 2)] == 2  # (q+1)/6 = 2 for q = 11

    triv = build_subgroup(m11, "trivial")
    tab = fusion_table(m11, triv)
    assert tab[ClassLabel("id")] == 1
    assert sum(tab.values()) == 1


def test_fusion_counts_sum_to_subgroup_order():
    for q, tags in [(4, ["borel", "dihedral_split", "dihedral_nonsplit",
                         ("cyclic", 3), ("cyclic", 2)]),
                    (11, ["borel", "dihedral_split", "dihedral_nonsplit",
                          "a4", "klein4", ("cyclic", 5), ("cyclic", 3),
                          ("cyclic", 2)])]:
        m = psl2_model(q)
        for tag in tags:
            tag, param = tag if isinstance(tag, tuple) else (tag, 0)
            sub = build_subgroup(m, tag, param)
            assert sum(fusion_table(m, sub).values()) == sub.order


def test_enumerated_fusion_matches_stored_tables():
    for q in (4, 8):
        m = psl2_model(q)
        for tag, param in [("borel", 0), ("dihedral_split", 0),
                           ("dihedral_nonsplit", 0), ("cyclic", q - 1),
                           ("cyclic", 2)]:
            sub = build_subgroup(m, tag, param)
            assert fusion_table(m, sub) == stored_fusion(
                m.family, q, tag, param, m.class_labels), (q, tag)
    m = psl2_model(11)
    for tag, param in [("borel", 0), ("a4", 0), ("dihedral_split", 0),
                       ("dihedral_nonsplit", 0), ("cyclic", 2),
                       ("klein4", 0), ("cyclic", 5), ("cyclic", 3)]:
        sub = build_subgroup(m, tag, param)
        assert fusion_table(m, sub) == stored_fusion(
            m.family, 11, tag, param, m.class_labels), tag


def test_suzuki_class_data():
    labels = suzuki_class_labels(8)
    assert len(labels) == 11
    model = class_data_model("sz", 8)
    assert model.order == 29120
    assert isinstance(model, ClassData)
    with pytest.raises(ValueError):
        suzuki_class_labels(16)  # even exponent


def test_suzuki_stored_fusion_sums():
    model = class_data_model("sz", 8)
    for tag, param in [("borel", 0), ("dihedral_split", 0),
                       ("torus_normalizer", 1), ("torus_normalizer", -1),
                       ("cyclic", 7), ("c4", 0), ("cyclic", 2)]:
        sub = symbolic_subgroup("sz", 8, tag, param)
        tab = stored_fusion("sz", 8, tag, param, model.class_labels)
        assert sum(tab.values()) == sub.order, (tag, param)


def test_psl2_even_equals_sl2():
    spec = gf_make(2, 2)
    assert matrix_model(spec, projective=True) is not None
    assert matrix_model(spec).order == 60


def _conjugacy_partition(model):
    """Class ids by breadth-first search under conjugation by the
    transvection generators, and the class sizes: the reference for the
    trace labels."""
    mul, inv = model.mul, model.inv
    inv_gens = [(g, inv(g)) for g in transvection_generators(model.spec)]
    class_of = {}
    sizes = []
    for x in model.scan():
        if x in class_of:
            continue
        cid = len(sizes)
        class_of[x] = cid
        queue = [x]
        count = 1
        while queue:
            y = queue.pop()
            for g, gi in inv_gens:
                z = mul(mul(g, y), gi)
                if z not in class_of:
                    class_of[z] = cid
                    count += 1
                    queue.append(z)
        sizes.append(count)
    return class_of, sizes


def test_label_orders_match_enumeration():
    # trace labels against the labelled conjugacy partition, and orders from
    # the labels against the power walk, on every element; PSL2(27) and
    # SL2(9), SL2(25), SL2(27) are extension fields
    models = [psl2_model(q) for q in (4, 8, 11, 16, 19, 27, 32)] + \
        [matrix_model(gf_make(*_prime_power(q))) for q in (5, 7, 9, 25, 27)]
    for m in models:
        cls, sizes = _conjugacy_partition(m)
        label_of = {cls[rep]: lab for lab, rep in m.class_reps.items()}
        assert len(label_of) == len(sizes) == len(m.class_labels), m.q
        for x in m.scan():
            assert m.class_of(x) == label_of[cls[x]], (m.family, m.q, x)
            assert m.element_order(x) == m.order_of(x), (m.family, m.q, x)
        assert m.class_sizes == {lab: sizes[cid]
                                 for cid, lab in label_of.items()}


@pytest.mark.parametrize("q", [4, 8, 11, 16, 19, 27, 32, 43, 59, 64, 67,
                               83])
def test_indexed_elements_and_class_sizes(q):
    # every in-scope q up to 83: the indexed elements are sorted, distinct,
    # of determinant 1 and canonical, the trace labels counted over them are
    # the class sizes, and the trace scan of the A4 search lists exactly the
    # elements of trace +-1 in index order
    m = psl2_model(q)
    f = m.spec
    els = [m.element(i) for i in range(m.order)]
    assert all(x < y for x, y in zip(els, els[1:]))
    assert all(f.add(f.mul(a, d), f.neg(f.mul(b, c))) == 1
               for a, b, c, d in els)
    assert all(m.canonical(x) == x for x in els)
    assert Counter(map(m.class_of, els)) == m.class_sizes
    if m.family == "psl2_odd":
        traces = {1, f.neg(1)}
        assert list(_of_traces(m, traces)) == [
            x for x in els if f.add(x[0], x[3]) in traces]


def test_suzuki_label_orders():
    orders = class_data_model("sz", 8).class_orders
    assert orders[ClassLabel("sigma")] == 2
    assert orders[ClassLabel("rho")] == 4
    assert orders[ClassLabel("pi1", 1)] == 13
    assert orders[ClassLabel("pi2", 1)] == 5


@pytest.mark.parametrize("family,qs", [
    ("psl2_even", [2 ** n for n in range(2, 9)]),
    ("sl2_odd", [3, 5, 7, 11, 13, 27, 125, 243]),
    ("psl2_odd", [3, 7, 11, 19, 23, 27, 31, 43, 83, 131, 243]),
    ("sz", [8, 32, 128, 512]),
    ("dihedral", [2 * n for n in range(3, 100, 2)]),
    ("cyclic", list(range(1, 50))),
])
def test_class_orders_divide_the_centralizer_orders(family, qs):
    # an element lies in its centralizer, whose order is |G| / |class|;
    # the identity is the one class of order 1
    for q in qs:
        data = class_data_model(family, q)
        assert set(data.class_orders) == set(data.class_labels), (family, q)
        for lab in data.class_labels:
            cent = data.order // data.class_sizes[lab]
            assert cent % data.class_orders[lab] == 0, (family, q, lab)
        assert [lab for lab, n in data.class_orders.items() if n == 1] == \
            [data.class_labels[0]], (family, q)


def test_class_data_is_read_only():
    # the class data of a cached table and of the cached matrix model
    model = psl2_model(11)
    for data in (table_suzuki(8).model, model.data):
        with pytest.raises(TypeError):
            data.class_sizes[ID] = 2
        with pytest.raises(TypeError):
            data.class_orders[ID] = 2
        with pytest.raises(TypeError):
            data.class_labels[0] = ID
    with pytest.raises(TypeError):
        model.class_sizes[ID] = 2


_PRIMES = [p for p in range(2, 600) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("start", range(-5, 600, 100))
def test_prime_power_matches_its_definition(start):
    # q = p^n for a prime p and n >= 1, found by listing every such power
    # below 600; every other q in -5..599 is rejected
    powers = {p ** n: (p, n) for p in _PRIMES for n in range(1, 10)
              if p ** n < 600}
    for q in range(start, min(start + 100, 600)):
        if q in powers:
            assert _prime_power(q) == powers[q] == factorize(q)[0]
        else:
            with pytest.raises(ValueError):
                _prime_power(q)


def test_fusion_psl2_27_zero_mod_three_branch():
    # exercises the q = 0 (mod 3) branches of the stored tables, where the
    # order-3 elements are unipotent
    m = psl2_model(27)
    for tag, param in [("a4", 0), ("cyclic", 3), ("borel", 0),
                       ("dihedral_split", 0), ("dihedral_nonsplit", 0),
                       ("cyclic", 13), ("klein4", 0), ("cyclic", 2)]:
        sub = build_subgroup(m, tag, param)
        assert fusion_table(m, sub) == stored_fusion(
            "psl2_odd", 27, tag, param, m.class_labels), tag


def test_corrupted_class_size_raises():
    from repmoduli.groups import ClassDataError, _label_classes
    m = matrix_model(gf_make(2, 2))
    m.order += 1
    with pytest.raises(ClassDataError, match="add up"):
        _label_classes(m)


class _SlowField:
    """A field's operations from its slow reference code, memoized."""

    def __init__(self, spec):
        self.add = cache(spec._add_slow)
        self.mul = cache(spec._mul_slow)
        self.neg = cache(spec._neg_slow)


def _reference_ops(model):
    """mul, inv and canonical of a matrix model, rebuilt from the
    field's slow arithmetic and the mat_mul reference."""
    f = _SlowField(model.spec)

    def canonical(x):
        if model.family != "psl2_odd":
            return x
        return min(x, tuple(f.neg(v) for v in x))

    def mul(x, y):
        return canonical(mat_mul(f, x, y))

    def inv(x):
        a, b, c, d = x
        return canonical((d, f.neg(b), f.neg(c), a))

    return mul, inv, canonical, f


@pytest.mark.parametrize("q", [4, 8])
def test_table_group_ops_match_reference_all_pairs(q):
    m = psl2_model(q)
    mul, inv, _, _ = _reference_ops(m)
    for x in m.scan():
        assert m.inv(x) == inv(x)
        for y in m.scan():
            assert m.mul(x, y) == mul(x, y)


@pytest.mark.parametrize("q", [11, 27])
def test_table_group_ops_match_reference_random_pairs(q):
    # PSL2(27) is an extension field with the sign fold of PSL2 = SL2/{+-1}
    m = psl2_model(q)
    mul, inv, canonical, f = _reference_ops(m)
    rng = random.Random(q)
    for _ in range(10000):
        x = m.element(rng.randrange(m.order))
        y = m.element(rng.randrange(m.order))
        assert m.mul(x, y) == mul(x, y)
        assert m.inv(x) == inv(x)
        neg_x = tuple(f.neg(v) for v in x)
        assert m.canonical(x) == m.canonical(neg_x) == canonical(neg_x) == x
