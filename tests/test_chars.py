import json
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

import repmoduli.chars as chars
from repmoduli.chars import (
    CharacterTable, NonIntegralDimension, Restriction, TableMismatch,
    c2_restriction, canonical, centralizer_dim,
    check_column_orthogonality, check_row_orthogonality, d_theta,
    dihedral_theta_restrictions, fusion_for, inner_product,
    pack_terms, restricted_inner_product,
    rho0_character, split_dihedral_restriction,
    split_torus_restriction, table_cyclic, table_dihedral_odd, table_for,
    table_psl2_even, table_psl2_odd, table_sl2_odd, table_suzuki,
    theta_balance,
)
from repmoduli.groups import (
    ClassLabel, build_subgroup, closure, psl2_model, symbolic_subgroup,
)

from cyclotomic_ref import Cyclotomic
from gram_ref import as_side, gram, group_ring_gram
from table_edits import repoint


def ref(chi, label):
    """chi's stored value at `label` as a reference Cyclotomic."""
    return Cyclotomic.from_packed(chi.value_at(label))


def ref_values(row):
    return tuple(map(Cyclotomic.from_packed, row))


def restriction_from_enumeration(table, model, sub):
    """The reference restriction data, computed element by element on the
    matrix `model` of the table's group: a cyclic subgroup through the
    powers of a generator, a dihedral one of odd rotation order through
    its rotations and its one class of reflections."""
    order = model.element_order
    k = sub.order
    gens_of_order = [g for g in sub.elements if order(g) == k]
    if gens_of_order:                                   # cyclic subgroup
        images = [model.class_of(x)
                  for x in closure(model, [gens_of_order[0]])]
        return Restriction(table, sub, table_cyclic(k), tuple(images))
    n = k // 2                                          # dihedral, odd n
    powers = closure(model, [next(g for g in sub.elements
                                  if order(g) == n)])
    refl = {model.class_of(g) for g in sub.elements if g not in powers}
    assert len(refl) == 1, "reflections fuse into several classes"
    images = [model.class_of(powers[j]) for j in range((n - 1) // 2 + 1)]
    return Restriction(table, sub, table_dihedral_odd(2 * n),
                       tuple(images) + tuple(refl))


def c4_in_sz_restriction(table):
    """The C4 subgroup of Sz(q), with its classes id, rho, sigma, rho_inv."""
    sub = symbolic_subgroup("sz", table.q, "c4")
    images = (ClassLabel("id"), ClassLabel("rho"), ClassLabel("sigma"),
              ClassLabel("rho_inv"))
    return Restriction(table, sub, table_cyclic(4), images)


def test_restriction_without_a_stored_row_raises():
    # PSL2(8) has no element of order 5, and c has order 2: with no stored
    # fusion row to agree with, the restriction must not pass unchecked
    c = ClassLabel("c")
    with pytest.raises(ValueError, match="no stored fusion"):
        Restriction(table_psl2_even(8),
                    symbolic_subgroup("psl2_even", 8, "cyclic", 5),
                    table_cyclic(5), (ClassLabel("id"), c, c, c, c))


def test_theta1_values_q4():
    t = table_psl2_even(4)
    th = t.by_name["theta_1"]
    assert th.degree == 3
    assert ref(th, ClassLabel("c")).to_rational() == -1
    assert ref(th, ClassLabel("a", 1)).is_zero()


def test_eta1_values_q11():
    t = table_psl2_odd(11)
    e = t.by_name["eta_1"]
    assert e.degree == 5
    assert ref(e, ClassLabel("b", 1)).to_rational() == 1
    assert ref(e, ClassLabel("b", 2)).to_rational() == -1
    # (-1 + sqrt(-11)) / 2 at the transvection class: |value|^2 = 3
    v = ref(e, ClassLabel("c"))
    assert (v * v.conj()).to_rational() == 3


def test_w1_values_sz8():
    t = table_suzuki(8)
    w = t.by_name["W_1"]
    assert w.degree == 14
    assert ref(w, ClassLabel("sigma")).to_rational() == -2
    v = ref(w, ClassLabel("rho"))
    assert v == Cyclotomic.root(4) * 2


def test_inner_product_examples():
    t = table_psl2_even(4)
    one = t.by_name["1"]
    th = t.by_name["theta_1"]
    assert inner_product(one, one) == 1
    assert inner_product(th, th) == 1
    t11 = table_psl2_odd(11)
    assert inner_product(t11.by_name["eta_1"], t11.by_name["psi"]) == 0


def test_inner_product_table_mismatch():
    with pytest.raises(TableMismatch):
        inner_product(table_psl2_even(4).by_name["1"],
                      table_psl2_even(8).by_name["1"])


def test_orthogonality_small_tables():
    for t in (table_psl2_even(4), table_psl2_even(8), table_sl2_odd(11),
              table_psl2_odd(11), table_suzuki(8), table_dihedral_odd(14),
              table_cyclic(12)):
        assert check_row_orthogonality(t)
        assert check_column_orthogonality(t)


def _reference_gram(rows_a, rows_b, weights):
    """sum_x w_x a(x) conj(b(x)) in Cyclotomic arithmetic, pair by pair."""
    out = []
    for a in rows_a:
        out.append([])
        for b in rows_b:
            acc = Cyclotomic.zero()
            for w, x, y in zip(weights, a, b):
                acc = acc + x * y.conj() * w
            out[-1].append(acc.to_rational())
    return out


def _rows(table):
    return [c.packed for c in table.chars]


def _gram_cases():
    """(rows_a, rows_b, weights) as canonical values, for gram's
    reference, and as the packed rows gram reads; where both sides are one
    table, the packed sides are one list, which gram reads as Hermitian."""
    t11 = table_psl2_odd(11)
    a4 = fusion_for(t11, symbolic_subgroup("psl2_odd", 11, "a4"))
    rows11, psi = _rows(t11), t11.by_name["psi"]
    k = (1 << 62) + 1
    huge = [[p and (*p[:2], tuple(n * k for n in p[2]), p[3], p[4] * k)
             for p in row] for row in rows11]
    cases = [(rows, rows, t.sizes) for t, rows in (
        (t, _rows(t)) for t in (
            table_psl2_even(8), t11, table_sl2_odd(11), table_suzuki(8),
            table_dihedral_odd(18), table_cyclic(12)))]
    cases += [
        (rows11, rows11, [a4.get(lab, 0) for lab in t11.labels]),
        # weights past the int64 bound: the Python-int path
        (rows11, rows11, [(s << 64) + 1 for s in t11.sizes]),
        # such weights only where psi vanishes: the int64 path again
        (rows11, [psi.packed], [1 << 70 if ref(psi, lab).is_zero() else s
                                for lab, s in zip(t11.labels, t11.sizes)]),
        # psi is zero on columns where other characters are not: those
        # columns are pruned before either side is unpacked
        ([psi.packed], rows11, t11.sizes),
        # numerators past 2^62: Python-int terms, summed in object arrays
        (huge, huge, t11.sizes),
        (huge, rows11, t11.sizes),
    ]
    cols = list(zip(*_rows(table_suzuki(8))))
    cases.append((cols, cols, [1] * len(cols)))
    return [(list(map(ref_values, a)), list(map(ref_values, b)), weights,
             a, b) for a, b, weights in cases]


def _check_gram_cases():
    for a, b, weights, packed_a, packed_b in _gram_cases():
        want = _reference_gram(a, b, weights)
        # one list on both sides takes the Hermitian path (pairs j >= i,
        # mirrored), a copy of it the path that expands every pair; the
        # group-ring reference sums the same Gram without certificates
        for kernel in (None, group_ring_gram):
            assert gram(packed_a, packed_b, weights, kernel) == want, weights
            assert gram(packed_a, list(packed_b), weights, kernel) == want, \
                weights


def test_gram_matches_cyclotomic_reference():
    _check_gram_cases()


@pytest.mark.parametrize("chunk", [1, 1 << 9])
def test_gram_across_chunk_boundaries(monkeypatch, chunk):
    # a small chunk splits every Gram into many chunks of rows
    monkeypatch.setattr(chars, "_CHUNK", chunk)
    _check_gram_cases()
    # the Hermitian checks pair a row only with the rows from it on, so an
    # irrational cell must fail them in the first row and the last alike:
    # its column has no Galois image, and the certificate refuses the Gram
    t = table_psl2_even(4)
    for name in ("1", "theta_1", "theta_2"):
        bad = _copy_with_value(t, name, ClassLabel("c"), _stored(5))
        for check in (check_row_orthogonality, check_column_orthogonality):
            with pytest.raises(TableMismatch, match="Gram refused at cell"):
                check(bad)


def _fractions(total, den):
    return [[Fraction(v, den) for v in row] for row in total.tolist()]


@pytest.mark.parametrize("family, qs", [
    ("sz", (8, 32, 128)),
    ("psl2_even", (4, 8)),
    ("sl2_odd", (11, 19, 27, 43, 59, 67, 83)),
    ("psl2_odd", (11, 19, 27, 43, 59, 67, 83)),
    ("dihedral", tuple(range(6, 200, 4))),
], ids=["sz", "psl2_even", "sl2_odd", "psl2_odd", "dihedral"])
def test_grid_grams_equal_grams_of_materialized_rows(family, qs):
    # every table of the sz 8,32,128, psl2 4,8,11,19, dihedral 3..99 and
    # psl2 27,43,59,67,83 batches: its row and column Grams and the
    # multiplicities of every restriction its checks take, read through
    # the grid, equal `gram` over the rows of stored values
    for q in qs:
        t = table_for(family, q)
        rows = _rows(t)
        cols = list(zip(*rows))
        side = t.values, t.grid
        assert _fractions(*chars._gram(side, side, t.sizes)) == \
            gram(rows, rows, t.sizes)
        side = t.values, t.grid.T
        assert _fractions(*chars._gram(side, side, [1] * len(rows))) == \
            gram(cols, cols, [1] * len(rows))
        if family == "dihedral":
            restrictions = dihedral_theta_restrictions(t)
        elif family == "sl2_odd":
            restrictions = ()
        else:
            restrictions = [f(t) for f in (
                split_torus_restriction, c2_restriction,
                split_dihedral_restriction)]
        for r in restrictions:
            at = [t.index[lab] for lab in r.images]
            want = gram([[row[x] for x in at] for row in rows],
                        _rows(r.table), r.table.sizes)
            assert r.multiplicities(t.chars, r.table.chars) == \
                [[v / r.table.order for v in row] for row in want]


def test_cached_tables_are_read_only():
    for t in (table_psl2_even(8), table_sl2_odd(11), table_psl2_odd(11),
              table_suzuki(8), table_dihedral_odd(14), table_cyclic(12)):
        assert isinstance(t.values, tuple)
        with pytest.raises(ValueError, match="read-only"):
            t.grid[0, 0] = 1
        with pytest.raises(AttributeError):
            t.chars[1].packed = t.chars[0].packed


def test_zero_columns_of_the_a_side_are_never_unpacked(monkeypatch):
    # W_1 of Sz(8) vanishes off the identity on the split torus C_7, so the
    # spectrum Gram unpacks the values of one column of each side, W_1(1)
    # and the degree 1 of every mu_k, not the 7 roots of the C_7 table
    seen = []
    real = chars._flatten
    monkeypatch.setattr(chars, "_flatten", lambda values, used: seen.append(
        [values[k] for k in used]) or real(values, used))
    ts = table_suzuki(8)
    r = split_torus_restriction(ts)
    assert r.multiplicities([ts.by_name["W_1"]], r.table.chars) == [[2] * 7]
    assert seen == [[ts.by_name["W_1"].value_at(ClassLabel("id"))],
                    [pack_terms(1, ((0, 1),))]]


def test_unit_generators_generate_the_units():
    # the closure of the generators of (Z/m)^* under multiplication has
    # phi(m) elements
    for m in range(1, 1001):
        gens, seen = chars._unit_generators(m), {1 % m}
        todo = list(seen)
        while todo:
            x = todo.pop()
            for y in {x * g % m for g in gens} - seen:
                seen.add(y)
                todo.append(y)
        assert len(seen) == sum(gcd(u, m) == 1 for u in range(m)), m


def test_normalized_traces_match_the_references():
    # row k of zeta_d^(k t) over the columns t of the units mod d, against
    # a row of ones: one certified column orbit, whose entry is
    # phi(d) N(zeta_d^k), the sum of the zeta_d^(k t)
    one = (pack_terms(1, ((0, 1),)),)
    for d in range(2, 201):
        units = np.array([t for t in range(d) if gcd(t, d) == 1])
        zeta = tuple(pack_terms(d, ((k, 1),)) for k in range(d))
        total, den = chars._gram(
            (zeta, np.outer(np.arange(d), units) % d),
            (one, np.zeros((1, len(units)), dtype=np.intp)), [1] * len(units))
        got = [Fraction(v, den * len(units)) for v in total[:, 0].tolist()]
        mean = np.cos(2 * np.pi * np.outer(np.arange(d), units) / d).mean(
            axis=1)
        assert np.abs(np.array(got, dtype=float) - mean).max() < 1e-9, d
        if d <= 40:
            assert got == [sum((Cyclotomic.root(d, k * t) for t in units),
                               Cyclotomic.zero()).to_rational() / len(units)
                           for k in range(d)], d


def test_a_wrong_trace_scale_raises(monkeypatch):
    # the certified totals are divided by their scale exactly: traces over
    # a wrong denominator leave remainders, which raise
    real = chars._norm_table
    monkeypatch.setattr(chars, "_norm_table",
                        lambda n: (real(n)[0], real(n)[1] + 1))
    for t in (table_psl2_even(8), table_suzuki(8), table_dihedral_odd(14)):
        with pytest.raises(ArithmeticError, match="not divisible"):
            check_row_orthogonality(t)


def test_numerators_past_2_62_are_summed_as_python_ints(monkeypatch):
    # PSL2(8)'s row Gram with every numerator scaled past 2^62: its terms
    # are Python ints, and the certified Gram sums them exactly in object
    # arrays, equal to the group-ring reference
    dtypes = []
    real = chars._flatten
    monkeypatch.setattr(chars, "_flatten", lambda *args: dtypes.append(
        real(*args)) or dtypes[-1])
    t = table_psl2_even(8)
    rows = [c.packed for c in t.chars]
    k = (1 << 62) + 1
    huge = [[p and (*p[:2], tuple(n * k for n in p[2]), p[3], p[4] * k)
             for p in row] for row in rows]
    plain = gram(rows, rows, t.sizes)
    assert dtypes and all(f[5].dtype == np.int64 for f in dtypes)
    dtypes.clear()
    want = [[v * k * k for v in row] for row in plain]
    assert gram(huge, huge, t.sizes) == want
    assert dtypes and all(f[5].dtype == object for f in dtypes)
    assert gram(huge, huge, t.sizes, group_ring_gram) == want


def _stored(root_order):
    """The stored zeta_root_order (1 for root order 1)."""
    return pack_terms(root_order, ((1, 1),))


def _copy_with_value(table, name, label, value):
    """A new table equal to `table` but for one stored value."""
    copy = CharacterTable(table.family, table.q, table.model,
                          [c.name for c in table.chars], table.values,
                          table.grid)
    repoint(copy, name, label, value)
    return copy


def test_row_orthogonality_catches_one_flipped_value():
    t = table_psl2_even(4)
    # theta_1 is -1 at the involution class; flip it to +1
    bad = _copy_with_value(t, "theta_1", ClassLabel("c"), _stored(1))
    with pytest.raises(TableMismatch, match=r"<1,theta_1>"):
        check_row_orthogonality(bad)
    # an irrational value has no Galois image among the columns
    bad = _copy_with_value(t, "theta_1", ClassLabel("c"), _stored(5))
    with pytest.raises(TableMismatch, match="Gram refused"):
        check_row_orthogonality(bad)
    assert check_row_orthogonality(t)


def test_refused_grams_name_the_cell_and_the_unit():
    # chi_1 of D_14 at r^1 set to its value at r^2, zeta_7^2 + zeta_7^-2:
    # the edited r^1 column is then the sigma_3 image of no column (3
    # generates (Z/7)^*), so the row Gram, the column Gram and the C_7
    # restriction Gram of the theta balance are each refused, naming the
    # edited cell
    t = _copy_with_value(table_dihedral_odd(14), "chi_1", ClassLabel("r", 1),
                         pack_terms(7, ((2, 1), (-2, 1))))
    refused = "Gram refused at cell ({},{}) of the {}-side: sigma_t, t = 3 " \
        "mod 7, does not permute the columns"
    with pytest.raises(TableMismatch) as row:
        check_row_orthogonality(t)
    with pytest.raises(TableMismatch) as col:
        check_column_orthogonality(t)
    h1 = split_torus_restriction(t)
    with pytest.raises(TableMismatch) as res:
        h1.multiplicities(t.chars, h1.table.chars)
    assert [str(e.value) for e in (row, col, res)] == [
        refused.format(2, 1, "a"), refused.format(1, 2, "a"),
        refused.format(2, 1, "a")]
    # a one-row restricted Gram: theta_1 of PSL2(8) at b^1 (column 5) set
    # to its value at b^2, against itself over the classes of the nonsplit
    # dihedral subgroup
    t8 = table_psl2_even(8)
    t8 = _copy_with_value(t8, "theta_1", ClassLabel("b", 1),
                          t8.by_name["theta_1"].value_at(ClassLabel("b", 2)))
    theta = t8.by_name["theta_1"]
    with pytest.raises(TableMismatch) as one:
        restricted_inner_product(theta, theta, fusion_for(
            t8, symbolic_subgroup("psl2_even", 8, "dihedral_nonsplit")))
    assert str(one.value) == "Gram refused at cell (0,5) of the a-side: " \
        "sigma_t, t = 2 mod 9, does not permute the columns"
    # a row (zeta_3, zeta_3, zeta_3^2): each column's image is a column,
    # but at the wrong multiplicity
    zeta = (pack_terms(3, ((1, 1),)), pack_terms(3, ((2, 1),)))
    side = zeta, np.array([[0, 0, 1]])
    with pytest.raises(TableMismatch, match=r"Gram refused at cell \(0,[01]\)"
                       r" of the a-side: sigma_t, t = 2 mod 3"):
        chars._gram(side, side, [1, 1, 1])


def test_a_tuple_stored_twice_certifies():
    # chi_1 of D_14 at r^1 repointed to a second copy of its own stored
    # tuple: the table is unchanged in value, and its grids are compared
    # through the first index of each equal tuple, so every Gram certifies
    t = table_dihedral_odd(14)
    copy = _copy_with_value(t, "chi_1", ClassLabel("r", 1),
                            t.by_name["chi_1"].value_at(ClassLabel("r", 1)))
    assert len(set(copy.values)) < len(copy.values)
    assert check_row_orthogonality(copy) and \
        check_column_orthogonality(copy)
    assert theta_balance(7) == (True, True)
    (h1, h2), (c1, c2) = map(dihedral_theta_restrictions, (t, copy))
    for h, c in ((h1, c1), (h2, c2)):
        assert c.multiplicities(copy.chars, c.table.chars) == \
            h.multiplicities(t.chars, h.table.chars)


def test_restricted_inner_product_examples():
    t = table_psl2_even(4)
    th = t.by_name["theta_1"]
    f = fusion_for(t, symbolic_subgroup("psl2_even", 4, "dihedral_split"))
    assert restricted_inner_product(th, th, f) == 2  # q/2
    f = fusion_for(t, symbolic_subgroup("psl2_even", 4, "cyclic", 2))
    assert restricted_inner_product(th, th, f) == 5  # (q/2-1)^2 + (q/2)^2
    f = fusion_for(t, symbolic_subgroup("psl2_even", 4, "trivial"))
    assert restricted_inner_product(th, th, f) == 9  # degree^2


def test_centralizer_dims():
    ts = table_suzuki(8)
    f = fusion_for(ts, symbolic_subgroup("sz", 8, "cyclic", 7))
    assert centralizer_dim(ts.by_name["W_1"], f) == 28  # q(q-1)/2
    t11 = table_psl2_odd(11)
    f = fusion_for(t11, symbolic_subgroup("psl2_odd", 11, "a4"))
    assert centralizer_dim(t11.by_name["eta_1"], f) == 3
    whole = dict(zip(t11.labels, t11.sizes))    # the group itself
    for c in t11.chars:
        assert centralizer_dim(c, whole) == 1  # Schur


def test_non_integral_dimension_raises():
    t = table_psl2_even(4)
    th = t.by_name["theta_1"]
    broken = fusion_for(t, symbolic_subgroup("psl2_even", 4, "cyclic", 2))
    broken = dict(broken)
    broken[ClassLabel("a", 1)] = 1  # corrupt one fusion count
    with pytest.raises(NonIntegralDimension):
        centralizer_dim(th, broken)


def test_multiplicity_examples():
    t4 = table_psl2_even(4)
    th = t4.by_name["theta_1"]
    d6 = split_dihedral_restriction(t4)
    assert d6.multiplicities([th], [d6.table.by_name["psi_1"]]) == [[0]]
    # -theta_1 has negative multiplicities, which are no dimensions: a copy
    # of the table whose theta_1 row points at the negated values
    grid = t4.grid.copy()
    grid[th.row] = len(t4.values) + np.arange(len(t4.labels))
    t4_minus = CharacterTable(
        t4.family, t4.q, t4.model,
        ["-" * (c is th) + c.name for c in t4.chars], t4.values + tuple(
            p and p[:2] + (tuple(-n for n in p[2]),) + p[3:]
            for p in th.packed), grid)
    minus = t4_minus.by_name["-theta_1"]
    # a virtual character prints its stored degree, whatever it is
    assert repr(minus) == "<character -theta_1 of degree -3 (mod 1)>"
    # the error names the pair of the first bad entry (psi_1 gives 0)
    d6 = split_dihedral_restriction(t4_minus)
    with pytest.raises(NonIntegralDimension,
                       match=r"<Res -theta_1, psi_2> = -1 is not"):
        d6.multiplicities([minus], d6.table.chars)
    borel_f = fusion_for(t4, symbolic_subgroup("psl2_even", 4, "borel"))
    assert restricted_inner_product(th, th, borel_f) == 1

    t11 = table_psl2_odd(11)
    e1 = t11.by_name["eta_1"]
    d10 = split_dihedral_restriction(t11)
    assert d10.multiplicities([e1], [d10.table.by_name["psi_2"]]) == [[0]]


def test_d_theta_dihedral_examples():
    table = table_dihedral_odd(2 * 7)
    h1, h2 = dihedral_theta_restrictions(table)
    theta1 = [h1.table.by_name[f"mu_{k}"] for k in (1, 2, 3)]
    theta2 = [h2.table.by_name["mu_0"]]
    chi1, psi1 = table.by_name["chi_1"], table.by_name["psi_1"]
    assert d_theta(h1, [chi1], [theta1]) == [[1]]
    assert d_theta(h2, [chi1, psi1], [theta2]) == [[1], [1]]


def test_theta_subsets_read_from_one_gram():
    # d(chi, Theta) read from the Gram over a union of sets equals the value
    # from a Gram of Theta alone and the sum of the multiplicities
    for n in range(3, 22, 2):
        table = table_dihedral_odd(2 * n)
        h1, h2 = dihedral_theta_restrictions(table)
        mu = h1.table.by_name
        theta1 = [mu[f"mu_{k}"] for k in range(1, (n - 1) // 2 + 1)]
        full = [mu["mu_0"]] + theta1
        rows = d_theta(h1, table.chars, [theta1, [mu["mu_0"]], full])
        for chi, (d1, d0, d) in zip(table.chars, rows):
            assert [d1] == d_theta(h1, [chi], [theta1])[0] == [sum(
                h1.multiplicities([chi], theta1)[0])]
            assert [d0] == d_theta(h1, [chi], [[mu["mu_0"]]])[0]
            assert d == d1 + d0
    with pytest.raises(TableMismatch):
        d_theta(h2, table.chars, [[mu["mu_0"]]])


def test_theta_balance_small():
    for n in (3, 5, 9, 21):
        assert theta_balance(n) == (True, True)


def test_rho0_selection():
    assert rho0_character(table_psl2_even(8)).name == "theta_1"
    assert rho0_character(table_psl2_odd(11)).name == "eta_1"
    assert rho0_character(table_suzuki(8)).name == "W_1"
    with pytest.raises(ValueError):
        rho0_character(table_cyclic(5))


def test_table_classes_match_enumeration():
    for q, build in [(4, table_psl2_even), (8, table_psl2_even),
                     (11, table_psl2_odd), (19, table_psl2_odd)]:
        t = build(q)
        m = psl2_model(q)
        assert t.labels == m.class_labels
        assert t.sizes == [m.class_sizes[lab] for lab in m.class_labels]


def test_sl2_odd_table_against_enumeration():
    from repmoduli.gf import gf_make
    from repmoduli.groups import matrix_model
    t = table_sl2_odd(7)
    m = matrix_model(gf_make(7))
    assert t.labels == m.class_labels
    assert t.sizes == [m.class_sizes[lab] for lab in m.class_labels]
    assert check_row_orthogonality(t)


def test_frobenius_reciprocity_spot():
    # <Res chi, Res psi>_H computed from fusion equals <chi, alpha_H psi>_G
    # where alpha_H is the permutation character of G/H.
    t = table_psl2_even(8)
    sub = symbolic_subgroup("psl2_even", 8, "dihedral_split")
    fus = fusion_for(t, sub)
    sub_order = sum(fus.values())
    for chi in (t.by_name["theta_1"], t.by_name["psi"]):
        for psi in (t.by_name["theta_1"], t.by_name["1"]):
            lhs = restricted_inner_product(chi, psi, fus)
            rhs = Fraction(0)
            acc = Cyclotomic.zero()
            for lab, size in zip(t.labels, t.sizes):
                alpha = Fraction(fus[lab] * t.order, sub_order * size)
                acc = acc + ref(chi, lab) * ref(psi, lab).conj() * \
                    (alpha * Fraction(size, t.order))
            assert acc.to_rational() == lhs


def test_restriction_from_enumeration_matches_analytic():
    t = table_psl2_odd(11)
    m = psl2_model(11)
    sub = build_subgroup(m, "dihedral_split")
    enum_r = restriction_from_enumeration(t, m, sub)
    e1 = t.by_name["eta_1"]
    analytic = split_dihedral_restriction(table_psl2_odd(11))
    for name in ("psi_1", "psi_2", "chi_1", "chi_2"):
        got = enum_r.multiplicities([e1], [enum_r.table.by_name[name]])
        want = analytic.multiplicities([table_psl2_odd(11).by_name["eta_1"]],
                                       [analytic.table.by_name[name]])
        assert got == want


def test_c2_and_c4_restrictions():
    t = table_psl2_even(4)
    r = c2_restriction(t)
    th = t.by_name["theta_1"]
    # eigenvalue multiplicities of the involution action: (q/2-1, q/2)
    assert r.multiplicities([th], r.table.chars) == [[1, 2]]
    ts = table_suzuki(8)
    r4 = c4_in_sz_restriction(ts)
    w1 = ts.by_name["W_1"]
    mults, = r4.multiplicities([w1], r4.table.chars)
    assert sum(mults) == 14 and min(mults) >= 0


@pytest.mark.parametrize("build, q", [(table_psl2_even, 8),
                                      (table_psl2_odd, 11),
                                      (table_suzuki, 32)])
def test_batched_multiplicities_match_one_by_one(build, q):
    t = build(q)
    r = split_torus_restriction(t)
    lams = r.table.chars
    chi, psi = rho0_character(t), t.chars[-1]
    for x in (chi, psi):
        row, = r.multiplicities([x], lams)
        assert all(isinstance(m, int) for m in row)
        assert row == [r.multiplicities([x], [lam])[0][0] for lam in lams]
    assert r.multiplicities([chi, psi], lams) == \
        r.multiplicities([chi], lams) + r.multiplicities([psi], lams)


def test_degree_must_be_a_positive_integer():
    t = table_psl2_even(4)
    for bad in (Cyclotomic.rational(Fraction(3, 2)), Cyclotomic.zero(),
                Cyclotomic.rational(-2), Cyclotomic.root(5)):
        chi = _copy_with_value(t, "1", ClassLabel("id"), pack_terms(
            bad.order, bad.coeffs)).by_name["1"]
        with pytest.raises(NonIntegralDimension):
            chi.degree
    # stored over Q(zeta_3), canonically the rational 1
    one = pack_terms(3, ((1, -1), (2, -1)))
    assert _copy_with_value(t, "1", ClassLabel("id"), one).by_name[
        "1"].degree == 1


@pytest.mark.parametrize("q", [8, 32, 128])
def test_suzuki_class_sizes_from_the_gram_diagonal(q):
    t = table_suzuki(q)
    cols = list(zip(*(c.packed for c in t.chars)))
    g = gram(cols, list(cols), [1] * len(t.chars))
    assert all(g[x][x] * s == t.order for x, s in enumerate(t.sizes))


def test_split_torus_restriction_even_multiplicity_free():
    t = table_psl2_even(8)
    r = split_torus_restriction(t)
    th = t.by_name["theta_1"]
    mults, = r.multiplicities([th], [r.table.by_name[f"mu_{k}"]
                                     for k in range(7)])
    assert mults == [1] * 7


def test_table_json_export():
    t = table_psl2_even(4)
    blob = json.dumps(t.to_json())
    data = json.loads(blob)
    assert data["order"] == 60
    assert len(data["characters"]) == 5
    assert data["classes"][0] == {"label": "id", "size": 1}


def test_table_text_export():
    text = table_psl2_even(4).to_text()
    lines = text.splitlines()
    assert lines[0].startswith("psl2_even q=4")
    assert len(lines) == 3 + 5  # header, classes, sizes, five characters


def test_permutation_character_reciprocity():
    # permutation characters of explicit coset actions, computed by fixed
    # point counting in the enumerated group, must decompose with exactly
    # the multiplicities <1, Res chi>_H predicted by the tables + fusion
    for q, build, tags in [(4, table_psl2_even, ["borel", "dihedral_split"]),
                           (11, table_psl2_odd, ["borel", "a4"])]:
        m = psl2_model(q)
        t = build(q)
        for tag in tags:
            sub = build_subgroup(m, tag)
            cosets = []
            seen = set()
            for g in m.scan():
                if g in seen:
                    continue
                coset = frozenset(m.mul(g, h) for h in sub.elements)
                seen |= coset
                cosets.append(coset)
            pi = {}
            for lab, rep in m.class_reps.items():
                pi[lab] = sum(1 for c in cosets
                              if m.mul(rep, next(iter(c))) in c)
            fus = {lab: 0 for lab in t.labels}
            for g in sub.elements:
                fus[m.class_of(g)] += 1
            one = t.by_name["1"]
            for chi in t.chars:
                acc = Cyclotomic.zero()
                for lab, size in zip(t.labels, t.sizes):
                    acc = acc + ref(chi, lab).conj() * (size * pi[lab])
                lhs = (acc * Fraction(1, t.order)).to_rational()
                rhs = restricted_inner_product(chi, one, fus)
                assert lhs == rhs, (q, tag, chi.name)


def test_canonical_matches_reference_on_every_stored_value():
    # the program's one reduction (on the CRT grid of the Gram kernel)
    # against the reference's term-by-term reduction, on every distinct
    # value stored by 156 tables
    odd = [11, 19, 27, 43, 59, 67, 83, 107, 131, 139, 163, 179, 211, 227,
           243, 251]                            # prime powers = 3 mod 8
    tables = [table_psl2_even(1 << n) for n in range(2, 9)]
    tables += [b(q) for q in odd for b in (table_sl2_odd, table_psl2_odd)]
    tables += [table_suzuki(q) for q in (8, 32, 128, 512)]
    tables += [table_dihedral_odd(2 * n) for n in range(3, 100, 2)]
    tables += [table_cyclic(n) for n in range(1, 65)]
    values = {v for t in tables for c in t.chars for v in c.packed}
    assert len(values) > 4000
    for v in values:
        r = Cyclotomic.from_packed(v)
        assert canonical(v) == (r.order, r.coeffs), v


# sha256 of json.dumps(table.to_json()), pinned from the tables as built by
# Cyclotomic arithmetic: the stored form must export the same canonical values
_EXPORT_SHA256 = {
    ("psl2_even", 4): "f7f0d48bea98cc0627983be2939f15a320db7766a141e5480a7f173128426224",
    ("psl2_even", 8): "c09d06bf4e37adcdc6a0a77aa2c4f960a62267099a60ee35f18480156dc240f4",
    ("psl2_even", 16): "a7d5dabddeeca447eca4f7286c4a3715edb7394ff1eb7828c4fd8940b1da21a1",
    ("sl2_odd", 11): "0e86e3bca70cb14f20b8ceba787e9c873fa55092ea206330e7d57f6f43d3d840",
    ("sl2_odd", 27): "0597e06dc07bc70669a71a2cadbe5592ac9a94ed22f0688e05772a95e0c2359b",
    ("psl2_odd", 11): "89f93a5b0821c032d11fcd45af16d7efbbd7c62e7cbba432edfb2f7d3950846b",
    ("psl2_odd", 19): "8f5fddf69303506df2f6cbf2b31fc9009c7c7b39d22edcc507f85ec7894b1921",
    ("psl2_odd", 27): "f85e8ff20b840d24a7247a431da15cc35fb52d19791c4239b1f38e94745416e3",
    ("sz", 8): "5f5f10608dc647b784fe3a0a3bb496224606261a0cac2cf8ed261e6527e16fab",
    ("sz", 32): "2e1b9fa5aeb484d839700834147ace2820a939284800dfcb4e0b46f587f570e2",
    ("dihedral", 6): "b419f788533b3a4d8eb98f1ff399f31fb585aeb671895fa68c57702b8a4dad40",
    ("dihedral", 10): "8ee11de9293c62679b8d5b336bda9e08b93057f724ad3c565db4ad5aaed3893a",
    ("dihedral", 14): "cdf078524b36870b3c9cfbad2b902747ee0203396b403197a0981bf727b47aa6",
    ("dihedral", 18): "b55832aea3cfa474eaa8442c5f0cd414547f4d97887e870001dc58bd4c972675",
    ("dihedral", 22): "fd2ee2356b783fad92905f190dab22ca85c880520c5e55fb518ba6db5b3c3170",
    ("dihedral", 26): "d67892641b4919e38516b9543105630d9c9c4b6504b6574af745fdbadb2f587d",
    ("dihedral", 30): "469c5d3141d49b1bff52127b2df7b66680cc2e7841d7d814c4d81ee145e46eff",
    ("dihedral", 34): "7cba3dc4b41dfaddef9e8c040cc7a0ef0d4332021d6cac6b55334d3fcc8ec02d",
    ("dihedral", 38): "3a3624105e9c24744caff468dcdca60e9c47c6a5be369a02a8d12566dedcd57e",
    ("dihedral", 42): "50194b46ba8c4e888150533d2c3325a883818b8611e36cfdbf2d1f357b917460",
    ("cyclic", 1): "3f7fb9a0aea49855efd070b20fde9b06d7fa8149a2610aa489a5c5d994bb9766",
    ("cyclic", 2): "adb3b8b055a29773349a2a8a8b332a480d6f377d9a9b1021e3badec241e343cb",
    ("cyclic", 3): "e7aada8fd49f6c31cfebed0861ee4fb8b2811c8410dcbe446e3a7e0fdb4ddbfa",
    ("cyclic", 4): "e02ff59791295e2bb78ca2fabd50d0daa624879a484767c9c27922c9114fe51d",
    ("cyclic", 5): "215dbf232b7f8a073cf768a4bcd37cee315a50087e0f8bb8d7836f2565bd50b1",
    ("cyclic", 6): "dd09a8063c5690ab45c9de5907961cd9c3ddea3e3cdcb4c5361c85b0f98e4832",
    ("cyclic", 7): "185865958a51a831a0d72866aa6ad7a0afb0c7673142c94a57dfd5898f058e25",
    ("cyclic", 8): "1b5a0b21f5b28f8b0fa289ea27a1bed426bacf86dfa0473bc7e2e0ffb58e6be0",
    ("cyclic", 9): "be23446fb72c20c8b6f56d07d8f2b82206fb82bb4615c339a10e33c69560a036",
    ("cyclic", 10): "ae62a75203045c46013d4b5b269ddaf00a4bdd122aaaf5d20443db0a8400b4bb",
    ("cyclic", 11): "ea99d529c7a0544db0c83fc4de1815d1f415eb9c1ec77d268ea57f00a6d68ec3",
    ("cyclic", 12): "8383b2b2c61b7c054469f722a6df379e9d52ffd4a7aa3c287f59babececb1d1d",
}


def test_cyclic_values_equal_their_packed_terms():
    for n in range(1, 129):
        assert table_cyclic(n).values == \
            tuple(pack_terms(n, ((k, 1),)) for k in range(n)), n


def test_table_export_is_pinned():
    import hashlib
    from repmoduli.chars import table_for
    for (family, q), digest in _EXPORT_SHA256.items():
        blob = json.dumps(table_for(family, q).to_json()).encode()
        assert hashlib.sha256(blob).hexdigest() == digest, (family, q)
