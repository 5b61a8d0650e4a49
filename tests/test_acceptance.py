"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All exact checks are bit-exact (no tolerance); the
numerical criteria pin the stated tolerances.
"""

import random
import time

import numpy as np
import pytest

from repmoduli.chars import (
    check_column_orthogonality, check_row_orthogonality, centralizer_dim,
    fusion_for, centralizer_checks, rho0_character, table_cyclic,
    table_dihedral_odd, table_psl2_even, table_psl2_odd, table_sl2_odd,
    table_suzuki, theta_balance,
)
from repmoduli.groups import (
    IDENTITY, build_subgroup, fusion_table, psl2_model, stored_fusion,
)
from repmoduli.numerics import (
    commutant_rank, h_action, identity_moduli_point, random_h_point,
    random_moduli_point, realize_irreducible, rho_tau_eval, spectral_split,
    word_differential_check,
)
from repmoduli.oscomplex import (
    brown_presentation, build_orbit_graph, moduli_dimension_report,
    euler_identity, random_closed_path, random_kernel_word, random_word,
)

from gram_ref import gram

EVEN_QS = [4, 8, 16, 32]
ODD_QS = [11, 19, 27, 43, 59, 67, 83]
SZ_QS = [8, 32, 128]


def _report(num, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail} [{elapsed:.1f}s]")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def realized():
    out = {}
    for q, builder, fam in [(4, table_psl2_even, "psl2_even"),
                            (11, table_psl2_odd, "psl2_odd")]:
        model = psl2_model(q)
        table = builder(q)
        rep = realize_irreducible(model, table, rho0_character(table), seed=1)
        graph = build_orbit_graph(fam, q, k=1, model=model)
        pres = brown_presentation(graph)
        out[q] = (model, table, rep, graph, pres)
    return out


def test_criterion_1_character_table_integrity():
    t0 = time.monotonic()
    tables = [table_psl2_even(q) for q in EVEN_QS]
    for q in ODD_QS:
        tables.append(table_sl2_odd(q))
        tables.append(table_psl2_odd(q))
    tables += [table_suzuki(q) for q in SZ_QS]
    tables += [table_dihedral_odd(2 * n) for n in range(3, 100, 2)]
    tables += [table_cyclic(n) for n in range(1, 65)]
    for t in tables:
        assert check_row_orthogonality(t), t
        assert check_column_orthogonality(t), t
    elapsed = time.monotonic() - t0
    _report(1, elapsed < 30,
            f"{len(tables)} tables, exact row+column orthogonality "
            f"(runtime budget 30s)", elapsed)


def test_criterion_2_fusion_vs_brute_force():
    t0 = time.monotonic()
    total = 0
    for q in (4, 8, 11, 19):
        model = psl2_model(q)
        if model.family == "psl2_even":
            rows = [("borel", 0), ("dihedral_split", 0),
                    ("dihedral_nonsplit", 0), ("cyclic", q - 1),
                    ("cyclic", 2)]
        else:
            rows = [("borel", 0), ("a4", 0), ("dihedral_split", 0),
                    ("dihedral_nonsplit", 0), ("cyclic", 2), ("klein4", 0),
                    ("cyclic", (q - 1) // 2), ("cyclic", 3)]
        for tag, param in rows:
            sub = build_subgroup(model, tag, param)
            assert fusion_table(model, sub) == stored_fusion(
                model.family, q, tag, param, model.class_labels), (q, tag)
            total += 1
    elapsed = time.monotonic() - t0
    _report(2, elapsed < 60,
            f"{total} counted fusion rows equal the stored tables "
            f"entry-by-entry (runtime budget 60s)", elapsed)


def test_criterion_3_proposition_parts():
    t0 = time.monotonic()
    total = 0
    for q in EVEN_QS:
        checks = centralizer_checks(table_psl2_even(q))
        assert all(e == c() for _, e, c in checks), (q, checks)
        total += len(checks)
    for q in ODD_QS:
        checks = centralizer_checks(table_psl2_odd(q))
        assert all(e == c() for _, e, c in checks), (q, checks)
        total += len(checks)
    for q in SZ_QS:
        checks = centralizer_checks(table_suzuki(q))
        assert all(e == c() for _, e, c in checks), (q, checks)
        total += len(checks)
    elapsed = time.monotonic() - t0
    _report(3, True, f"{total} numbered proposition parts verified exactly "
            "(centralizer dims, branch formulas, Borel irreducibility, "
            "multiplicity-zero)", elapsed)


def test_criterion_4_moduli_dimension():
    t0 = time.monotonic()
    spots = {("psl2_even", 4): 9, ("psl2_even", 8): 49,
             ("psl2_odd", 11): 25, ("sz", 8): 196}
    cases = [("psl2_even", q, table_psl2_even(q)) for q in EVEN_QS]
    cases += [("psl2_odd", q, table_psl2_odd(q)) for q in ODD_QS]
    cases += [("sz", q, table_suzuki(q)) for q in SZ_QS]
    count = 0
    for fam, q, table in cases:
        for k in range(4):
            rep = moduli_dimension_report(build_orbit_graph(fam, q, k=k), table)
            assert rep.equal, (fam, q, k)
            if k == 0 and (fam, q) in spots:
                assert rep.dim_quotient == spots[(fam, q)], (fam, q)
            count += 1
    elapsed = time.monotonic() - t0
    _report(4, True, f"dimension identity exact for {count} (family,q,k) "
            "cases; spot values 9/49/25/196 reproduced", elapsed)


def test_criterion_5_euler_identity():
    t0 = time.monotonic()
    cases = [("psl2_even", 4, table_psl2_even(4)),
             ("psl2_even", 8, table_psl2_even(8)),
             ("psl2_odd", 11, table_psl2_odd(11)),
             ("sz", 8, table_suzuki(8))]
    pairs = 0
    for fam, q, table in cases:
        graph = build_orbit_graph(fam, q)
        lhs_w, rhs_w = euler_identity(graph, table)
        rows = [c.packed for c in table.chars]
        lhs, rhs = gram(rows, rows, lhs_w), gram(rows, rows, rhs_w)
        for i, phi in enumerate(table.chars):
            for j, psi in enumerate(table.chars):
                assert lhs[i][j] == rhs[i][j], (fam, q, phi.name, psi.name,
                                                lhs[i][j], rhs[i][j])
                pairs += 1
    elapsed = time.monotonic() - t0
    _report(5, elapsed < 60,
            f"{pairs} ordered character pairs satisfy the identity exactly "
            f"(runtime budget 60s)", elapsed)


def test_criterion_6_theta_balance():
    t0 = time.monotonic()
    for n in range(3, 100, 2):
        assert theta_balance(n) == (True, True), n
    elapsed = time.monotonic() - t0
    _report(6, True, "both restriction-dimension identities exact for all "
            "odd n <= 99", elapsed)


def test_criterion_7_brown_presentation_soundness():
    t0 = time.monotonic()
    counts = []
    for q, fam in [(4, "psl2_even"), (11, "psl2_odd")]:
        model = psl2_model(q)
        graph = build_orbit_graph(fam, q, model=model)
        pres = brown_presentation(graph)
        assert pres.verify()
        counts.append(len(pres.relations()))
    elapsed = time.monotonic() - t0
    _report(7, True, f"all {counts[0]}+{counts[1]} tree/conjugation "
            "relations verified exhaustively over stabilizer elements",
            elapsed)


def test_criterion_8_numerical_realization(realized):
    t0 = time.monotonic()
    details = []
    for q, expected_degree, expected_mults in [(4, 3, (1, 2)),
                                               (11, 5, (3, 2))]:
        model, table, rep, graph, pres = realized[q]
        target = rho0_character(table)
        assert rep.degree == expected_degree
        assert rep.character_defect(target) <= 1e-6
        assert rep.homomorphism_defect(random.Random(0)) <= 1e-8
        ghat1 = next(g for g in graph.edges[1].sub.elements
                     if model.element_order(g) == 2)
        _, mults = spectral_split(rep, ghat1)
        assert (mults.get(0, 0), mults.get(1, 0)) == expected_mults, q
        for node in list(graph.vertices) + \
                [e for e in graph.edges if not e.free]:
            exact = centralizer_dim(target, fusion_for(table, node.sub))
            got = commutant_rank(rep, node.sub.elements, seed=exact)
            assert got == exact, (q, node.sub.tag)
        details.append(f"q={q}: degree {rep.degree}, "
                       f"multiplicities {expected_mults}")
    elapsed = time.monotonic() - t0
    _report(8, elapsed < 120,
            "; ".join(details) + "; character<=1e-6, homomorphism<=1e-8, "
            "all stabilizer commutant ranks exact (budget 120s)", elapsed)


def test_criterion_9_moduli_mechanics(realized):
    t0 = time.monotonic()
    worst_gauge = 0.0
    worst_univ = 0.0
    for q in (4, 11):
        model, table, rep, graph, pres = realized[q]
        rng = random.Random(109)
        nrng = random.Random(9)
        for _ in range(20):
            tau = random_moduli_point(graph, rep, nrng)
            alpha = random_h_point(graph, rep, nrng)
            moved = h_action(graph, rep, tau, alpha)
            for w in random_word(pres, rng, 6, 50):
                d = float(np.max(np.abs(
                    rho_tau_eval(pres, rep, tau, [w])[0] -
                    rho_tau_eval(pres, rep, moved, [w])[0])))
                worst_gauge = max(worst_gauge, d)
        one = identity_moduli_point(graph, rep.degree)
        eye = np.eye(rep.degree)
        for w in random_kernel_word(pres, rng, 100):
            val = rho_tau_eval(pres, rep, one, [w])[0]
            d = float(np.max(np.abs(val - eye)))
            worst_univ = max(worst_univ, d)
    ok = worst_gauge <= 1e-7 and worst_univ <= 1e-8
    elapsed = time.monotonic() - t0
    _report(9, ok, f"gauge invariance defect {worst_gauge:.1e} (<=1e-7) on "
            f"20x50 words; universal-point defect {worst_univ:.1e} (<=1e-8) "
            "on 100 kernel words, both groups", elapsed)


def test_criterion_10_word_differential(realized):
    t0 = time.monotonic()
    model, table, rep, graph, pres = realized[4]
    worst = 0.0
    paths = random_closed_path(graph, random.Random(1), 10)
    for i, legs in enumerate(paths):
        f, fd, err = word_differential_check(pres, rep, legs, seed=i)
        rel = err / (1 + float(np.max(np.abs(f))))
        worst = max(worst, rel)
    ok = worst <= 1e-6
    elapsed = time.monotonic() - t0
    _report(10, ok, f"formula vs central finite differences: worst relative "
            f"error {worst:.1e} (<=1e-6) over 10 closed edge paths", elapsed)
