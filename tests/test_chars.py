import json
from fractions import Fraction

import pytest

from repmoduli.chars import (
    CharacterTable, NonIntegralDimension, Restriction, TableMismatch,
    ThetaSet, c2_restriction, c4_in_sz_restriction, centralizer_dim,
    check_column_orthogonality, check_row_orthogonality, d_theta,
    dihedral_theta_restrictions, fusion_for, gram, inner_product,
    multiplicity_check, restricted_inner_product,
    restriction_from_enumeration, rho0_character, split_dihedral_restriction,
    split_torus_restriction, table_cyclic, table_dihedral_odd,
    table_psl2_even, table_psl2_odd, table_sl2_odd, table_suzuki,
    theta_balance,
)
from repmoduli.cyclo import Cyclotomic
from repmoduli.groups import (
    ClassLabel, build_subgroup, psl2_model, symbolic_subgroup,
)


def test_theta1_values_q4():
    t = table_psl2_even(4)
    th = t.by_name["theta_1"]
    assert th.degree == 3
    assert th.value_at(ClassLabel("c")).to_rational() == -1
    assert th.value_at(ClassLabel("a", 1)).is_zero()


def test_eta1_values_q11():
    t = table_psl2_odd(11)
    e = t.by_name["eta_1"]
    assert e.degree == 5
    assert e.value_at(ClassLabel("b", 1)).to_rational() == 1
    assert e.value_at(ClassLabel("b", 2)).to_rational() == -1
    # (-1 + sqrt(-11)) / 2 at the transvection class: |value|^2 = 3
    v = e.value_at(ClassLabel("c"))
    assert (v * v.conj()).to_rational() == 3


def test_w1_values_sz8():
    t = table_suzuki(8)
    w = t.by_name["W_1"]
    assert w.degree == 14
    assert w.value_at(ClassLabel("sigma")).to_rational() == -2
    v = w.value_at(ClassLabel("rho"))
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


def test_gram_matches_cyclotomic_reference():
    t11 = table_psl2_odd(11)
    a4 = fusion_for(t11, symbolic_subgroup("psl2_odd", 11, "a4"))
    psi = t11.by_name["psi"]
    cases = [(t.chars, t.chars, t.sizes) for t in (
        table_psl2_even(8), t11, table_sl2_odd(11), table_suzuki(8),
        table_dihedral_odd(18), table_cyclic(12))]
    cases += [
        (t11.chars, t11.chars, [a4.get(lab, 0) for lab in t11.labels]),
        # weights past the int64 bound: the Python-int path
        (t11.chars, t11.chars, [(s << 64) + 1 for s in t11.sizes]),
        # such weights only where psi vanishes: the int64 path again
        (t11.chars, [psi], [1 << 70 if psi.value_at(lab).is_zero() else s
                            for lab, s in zip(t11.labels, t11.sizes)]),
    ]
    for a, b, weights in cases:
        assert gram([c.packed for c in a], [c.packed for c in b],
                    weights) == \
            _reference_gram([c.values for c in a], [c.values for c in b],
                            weights), weights
    ts = table_suzuki(8)
    cols = list(zip(*(c.values for c in ts.chars)))
    packed_cols = list(zip(*(c.packed for c in ts.chars)))
    ones = [1] * len(ts.chars)
    assert gram(packed_cols, packed_cols, ones) == \
        _reference_gram(cols, cols, ones)


def _copy_with_value(table, name, label, value):
    chars = [(c.name, list(c.values)) for c in table.chars]
    chars[table.chars.index(table.by_name[name])][1][table.index[label]] = \
        value
    return CharacterTable(table.family, table.q, table.model, chars)


def test_row_orthogonality_catches_one_flipped_value():
    t = table_psl2_even(4)
    # theta_1 is -1 at the involution class; flip it to +1
    bad = _copy_with_value(t, "theta_1", ClassLabel("c"), Cyclotomic.one())
    with pytest.raises(TableMismatch, match=r"<1,theta_1>"):
        check_row_orthogonality(bad)
    # an irrational value leaves a partial sum that is not rational
    bad = _copy_with_value(t, "theta_1", ClassLabel("c"), Cyclotomic.root(5))
    with pytest.raises(TableMismatch, match="not rational"):
        check_row_orthogonality(bad)
    assert check_row_orthogonality(t)


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
    for c in t11.chars:
        assert centralizer_dim(c) == 1  # Schur


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
    assert multiplicity_check(th, d6, d6.table.by_name["psi_1"]) == 0
    borel_f = fusion_for(t4, symbolic_subgroup("psl2_even", 4, "borel"))
    assert restricted_inner_product(th, th, borel_f) == 1

    t11 = table_psl2_odd(11)
    e1 = t11.by_name["eta_1"]
    d10 = split_dihedral_restriction(t11)
    assert multiplicity_check(e1, d10, d10.table.by_name["psi_2"]) == 0


def test_d_theta_dihedral_examples():
    table = table_dihedral_odd(2 * 7)
    h1, h2 = dihedral_theta_restrictions(table)
    theta1 = ThetaSet(h1, ("mu_1", "mu_2", "mu_3"))
    theta2 = ThetaSet(h2, ("mu_0",))
    chi1 = table.by_name["chi_1"]
    assert d_theta(chi1, theta1) == 1
    assert d_theta(chi1, theta2) == 1
    assert d_theta(table.by_name["psi_1"], theta2) == 1


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
    from repmoduli.groups import enumerate_sl2
    t = table_sl2_odd(7)
    m = enumerate_sl2(gf_make(7))
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
                acc = acc + chi.value_at(lab) * psi.value_at(lab).conj() * \
                    (alpha * Fraction(size, t.order))
            assert acc.to_rational() == lhs


def test_restriction_from_enumeration_matches_analytic():
    t = table_psl2_odd(11)
    m = psl2_model(11)
    t.model = m  # attach the enumerated model
    sub = build_subgroup(m, "dihedral_split")
    enum_r = restriction_from_enumeration(t, sub)
    e1 = t.by_name["eta_1"]
    analytic = split_dihedral_restriction(table_psl2_odd(11))
    for name in ("psi_1", "psi_2", "chi_1", "chi_2"):
        got = enum_r.multiplicity(e1, enum_r.table.by_name[name])
        want = analytic.multiplicity(
            table_psl2_odd(11).by_name["eta_1"], analytic.table.by_name[name])
        assert got == want


def test_c2_and_c4_restrictions():
    t = table_psl2_even(4)
    r = c2_restriction(t)
    th = t.by_name["theta_1"]
    # eigenvalue multiplicities of the involution action: (q/2-1, q/2)
    assert multiplicity_check(th, r, r.table.by_name["mu_0"]) == 1
    assert multiplicity_check(th, r, r.table.by_name["mu_1"]) == 2
    ts = table_suzuki(8)
    r4 = c4_in_sz_restriction(ts)
    w1 = ts.by_name["W_1"]
    mults = [multiplicity_check(w1, r4, r4.table.by_name[f"mu_{k}"])
             for k in range(4)]
    assert sum(mults) == 14 and min(mults) >= 0


def test_split_torus_restriction_even_multiplicity_free():
    t = table_psl2_even(8)
    r = split_torus_restriction(t)
    th = t.by_name["theta_1"]
    mults = [multiplicity_check(th, r, r.table.by_name[f"mu_{k}"])
             for k in range(7)]
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
            for g in m.elements:
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
                fus[m.class_of[g]] += 1
            one = t.by_name["1"]
            for chi in t.chars:
                acc = Cyclotomic.zero()
                for lab, size in zip(t.labels, t.sizes):
                    acc = acc + chi.value_at(lab).conj() * (size * pi[lab])
                lhs = (acc * Fraction(1, t.order)).to_rational()
                rhs = restricted_inner_product(chi, one, fus)
                assert lhs == rhs, (q, tag, chi.name)
