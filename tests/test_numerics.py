import random

import numpy as np
import pytest

from repmoduli.chars import (
    centralizer_dim, fusion_for, rho0_character, table_psl2_even,
    table_psl2_odd,
)
from repmoduli.draws import integers, normal
from repmoduli.groups import IDENTITY, build_subgroup, psl2_model
from repmoduli.numerics import (
    HPoint, Images, KirillovModel, ModuliPoint, UnitaryRep, WeilModel,
    commutant_rank, expm, h_action, identity_moduli_point, random_h_point,
    random_moduli_point, realize_irreducible, rho_tau_eval, spectral_split,
    word_differential_check, _complex_value,
)
from repmoduli.oscomplex import (
    brown_presentation, build_orbit_graph, random_closed_path,
    random_kernel_word, random_word,
)

from cyclotomic_ref import Cyclotomic
from gf_ref import ref_field


def _dense_images(stack):
    d = stack.shape[-1]
    return Images(np.zeros(len(stack), dtype=bool), np.empty((0, d), int),
                  np.empty((0, d), complex), stack)


class _Dense:
    """A formula whose images are f(elements, base images as one dense
    stack), all dense; degree as given, or the base formula's."""

    def __init__(self, base, f, degree=None):
        self.base, self.f = base, f
        self.degree = base.degree if degree is None else degree

    def __call__(self, elements):
        return _dense_images(self.f(list(elements),
                                    self.base(elements).stack()))


def _altering(base, element, alter):
    """base with the image M of one element replaced by alter(M)."""
    def f(elements, stack):
        for i, g in enumerate(elements):
            if g == element:
                stack[i] = alter(stack[i])
        return stack
    return _Dense(base, f)


@pytest.fixture(scope="module")
def rho4():
    m = psl2_model(4)
    t = table_psl2_even(4)
    return m, t, realize_irreducible(m, t, rho0_character(t), seed=1)


@pytest.fixture(scope="module")
def rho11():
    m = psl2_model(11)
    t = table_psl2_odd(11)
    return m, t, realize_irreducible(m, t, rho0_character(t), seed=1)


@pytest.fixture(scope="module")
def setting4(rho4):
    m, t, rep = rho4
    g = build_orbit_graph("psl2_even", 4, k=1, model=m)
    return m, t, rep, g, brown_presentation(g, m)


def test_realize_psl2_4(rho4):
    m, t, rep = rho4
    target = rho0_character(t)
    assert rep.degree == 3
    assert rep.character_defect(target) < 1e-6
    assert rep.unitarity_defect() < 1e-8
    # trace at the transvection class is exactly -1
    tr = np.trace(rep.mat((1, 0, 1, 1)))
    assert abs(tr - (-1)) < 1e-6


def test_realize_psl2_11(rho11):
    m, t, rep = rho11
    assert rep.degree == 5
    assert rep.character_defect(rho0_character(t)) < 1e-6
    assert rep.homomorphism_defect(random.Random(3)) < 1e-8


def test_realize_trivial_character():
    # only rho0 has an explicit model
    t = table_psl2_even(4)
    with pytest.raises(ValueError, match="no explicit model of 1"):
        realize_irreducible(psl2_model(4), t, t.by_name["1"], seed=0)


def test_spectral_split_involutions(rho4, rho11):
    m4, _, rep4 = rho4
    inv4 = next(g for g in m4.scan() if m4.element_order(g) == 2)
    _, mults = spectral_split(rep4, inv4)
    assert mults == {0: 1, 1: 2}
    m11, _, rep11 = rho11
    inv11 = next(g for g in m11.scan() if m11.element_order(g) == 2)
    _, mults = spectral_split(rep11, inv11)
    assert mults == {0: 3, 1: 2}


def test_spectral_split_identity(rho4):
    _, _, rep = rho4
    _, mults = spectral_split(rep, IDENTITY)
    assert mults == {0: 3}


def test_spectral_split_generator_independent(rho11):
    m, _, rep = rho11
    g = next(x for x in m.scan() if m.element_order(x) == 5)
    other = m.power(g, 2)
    _, m1 = spectral_split(rep, g)
    _, m2 = spectral_split(rep, other)
    assert sorted(m1.values()) == sorted(m2.values()) == [1] * 5


def test_commutant_ranks_match_exact(rho4):
    m, t, rep = rho4
    target = rho0_character(t)
    g = build_orbit_graph("psl2_even", 4, model=m)
    for node in list(g.vertices) + list(g.edges):
        exact = centralizer_dim(target, fusion_for(t, node.sub))
        got = commutant_rank(rep, node.sub.elements, seed=exact)
        assert got == exact


def test_realization_commutant_is_scalar(rho4, rho11):
    # Schur: only the scalars commute with an irreducible rho0 on all of G
    for m, _, rep in (rho4, rho11):
        assert commutant_rank(rep, list(m.scan()), seed=3) == 1


def test_direct_sum_commutant_dimension(rho4):
    m, _, rep = rho4
    double = UnitaryRep(m, _Dense(rep.formula, lambda els, s: np.block(
        [[s, np.zeros_like(s)], [np.zeros_like(s), s]]), 2 * rep.degree))
    assert commutant_rank(double, list(m.scan()), seed=0) == 4


def test_rho_tau_at_identity_point(setting4):
    m, t, rep, g, pres = setting4
    one = identity_moduli_point(g, rep.degree)
    rng = random.Random(1)
    for w in random_word(pres, rng, 6, 20):
        lhs = rho_tau_eval(pres, rep, one, [w])[0]
        assert np.max(np.abs(lhs - rep.mat(pres.phi(w)))) < 1e-8
    # tree edges evaluate to the identity
    for ei, e in enumerate(g.edges):
        if e.in_tree:
            val = rho_tau_eval(pres, rep, one, [(pres.x(ei),)])[0]
            assert np.max(np.abs(val - np.eye(rep.degree))) < 1e-12


def test_rho_tau_multiplicative_and_relations(setting4):
    m, t, rep, g, pres = setting4
    nrng = random.Random(2)
    rng = random.Random(102)
    tau = random_moduli_point(g, rep, nrng)
    for w1, w2 in random_word(pres, rng, 5, (10, 2)):
        lhs = rho_tau_eval(pres, rep, tau, [np.concatenate([w1, w2])])[0]
        rhs = rho_tau_eval(pres, rep, tau, [w1])[0] @ \
            rho_tau_eval(pres, rep, tau, [w2])[0]
        assert np.max(np.abs(lhs - rhs)) < 1e-7
    for lhs_w, rhs_w in pres.relations():
        a = rho_tau_eval(pres, rep, tau, [lhs_w])[0]
        b = rho_tau_eval(pres, rep, tau, [rhs_w])[0] if rhs_w \
            else np.eye(rep.degree)
        assert np.max(np.abs(a - b)) < 1e-8


def test_universal_point_kills_kernel(setting4):
    m, t, rep, g, pres = setting4
    one = identity_moduli_point(g, rep.degree)
    for w in random_kernel_word(pres, random.Random(3), 25):
        val = rho_tau_eval(pres, rep, one, [w])[0]
        assert np.max(np.abs(val - np.eye(rep.degree))) < 1e-8


def test_h_action(setting4):
    m, t, rep, g, pres = setting4
    nrng = random.Random(4)
    rng = random.Random(104)
    tau = random_moduli_point(g, rep, nrng)
    alpha = random_h_point(g, rep, nrng)
    moved = h_action(g, rep, tau, alpha)
    moved.check(rep)
    for w in random_word(pres, rng, 7, 25):
        a = rho_tau_eval(pres, rep, tau, [w])[0]
        b = rho_tau_eval(pres, rep, moved, [w])[0]
        assert np.max(np.abs(a - b)) < 1e-7
    # identity alpha acts trivially
    ident = HPoint(g, {v: np.eye(rep.degree, dtype=complex)[None]
                       for v in range(len(g.vertices))})
    fixed = h_action(g, rep, tau, ident)
    for i in tau.mats:
        assert np.max(np.abs(fixed.mats[i] - tau.mats[i])) < 1e-12


def test_h_action_is_right_action(setting4):
    m, t, rep, g, pres = setting4
    nrng = random.Random(5)
    tau = random_moduli_point(g, rep, nrng)
    alpha = random_h_point(g, rep, nrng)
    beta = random_h_point(g, rep, nrng)
    lhs = h_action(g, rep, h_action(g, rep, tau, alpha), beta)
    prod = HPoint(g, {v: alpha.mats[v] @ beta.mats[v] for v in alpha.mats})
    rhs = h_action(g, rep, tau, prod)
    for i in lhs.mats:
        assert np.max(np.abs(lhs.mats[i] - rhs.mats[i])) < 1e-8


def test_h_action_freeness_probe(setting4):
    # recovering alpha along the tree: if tau.alpha = tau on tree edges
    # then alpha_v = 1 for all v
    m, t, rep, g, pres = setting4
    nrng = random.Random(6)
    tau = random_moduli_point(g, rep, nrng)
    alpha = random_h_point(g, rep, nrng)
    moved = h_action(g, rep, tau, alpha)
    solved = {g.root: np.eye(rep.degree, dtype=complex)}
    changed = True
    while changed:
        changed = False
        for ei, e in enumerate(g.edges):
            if e.in_tree and e.s in solved and e.w not in solved:
                # (tau.alpha)_e = alpha_w^-1 tau_e alpha_s on tree edges
                aw = tau.mats[ei] @ solved[e.s] @ \
                    np.linalg.inv(moved.mats[ei])
                solved[e.w] = aw
                changed = True
    for v, mat in solved.items():
        assert np.max(np.abs(mat - alpha.mats[v])) < 1e-6


def test_word_differential_trivial_cases(setting4):
    m, t, rep, g, pres = setting4
    # constant word i(g) i(g^-1): a two-leg path staying at the root is not
    # expressible; use the tree-edge loop x_e x_e^-1 instead
    ei = next(i for i, e in enumerate(g.edges) if e.in_tree)
    legs = [(IDENTITY, ei, 1), (IDENTITY, ei, -1)]
    f, fd, err = word_differential_check(pres, rep, legs, seed=0)
    assert np.max(np.abs(f)) < 1e-12
    assert np.max(np.abs(fd)) < 1e-6


def test_word_differential_random_paths(setting4):
    m, t, rep, g, pres = setting4
    paths = random_closed_path(g, random.Random(9), 10)
    for i, legs in enumerate(paths):
        f, fd, err = word_differential_check(pres, rep, legs, seed=i)
        assert err <= 1e-6 * (1 + np.max(np.abs(f)))


def test_word_differential_commutator_vanishes(setting4):
    # the commutator of two kernel words has zero differential; check via
    # the concatenated path of w v w^-1 v^-1
    m, t, rep, g, pres = setting4
    legs1, legs2 = random_closed_path(g, random.Random(10), 2)

    def invert(legs):
        model = pres.model
        return [(a, ei, -eps) for a, ei, eps in reversed(legs)]

    comm = legs1 + legs2 + invert(legs1) + invert(legs2)
    f, fd, err = word_differential_check(pres, rep, comm, seed=1)
    assert np.max(np.abs(f)) < 1e-12
    assert np.max(np.abs(fd)) < 1e-5


def test_realize_psl2_8():
    m = psl2_model(8)
    t = table_psl2_even(8)
    rep = realize_irreducible(m, t, rho0_character(t), seed=2)
    assert rep.degree == 7
    assert rep.character_defect(rho0_character(t)) < 1e-6
    inv = next(g for g in m.scan() if m.element_order(g) == 2)
    _, mults = spectral_split(rep, inv)
    assert mults == {0: 3, 1: 4}  # (q/2-1, q/2)


def test_realize_rejects_class_data_model():
    from repmoduli.chars import table_suzuki
    from repmoduli.groups import class_data_model
    t = table_suzuki(8)
    with pytest.raises(ValueError):
        realize_irreducible(class_data_model("sz", 8), t, t.by_name["W_1"])


def test_rho_tau_unknown_symbol(setting4):
    # a word is a sequence of symbol rows: a symbol tuple, a row outside
    # the table and a symbol the graph lacks are all rejected
    m, t, rep, g, pres = setting4
    one = identity_moduli_point(g, rep.degree)
    n_rows = 2 * len(g.word_symbols[1])
    with pytest.raises(ValueError):
        rho_tau_eval(pres, rep, one, [(("y", 0, 1),)])
    for bad in (n_rows, -1):
        with pytest.raises(ValueError):
            rho_tau_eval(pres, rep, one, [(0, bad)])
    assert rho_tau_eval(pres, rep, one, [(0, n_rows - 1)]).shape == \
        (1, rep.degree, rep.degree)
    # one draw index per word, each a draw of the point (which has one)
    for draws in ([0], [0, 0, 0], [0, 1], [0, -1], 1, -1):
        with pytest.raises(ValueError):
            rho_tau_eval(pres, rep, one, [(0,), (1,)], draws)
    assert rho_tau_eval(pres, rep, one, [(0,), (1,)], [0, 0]).shape == \
        (2, rep.degree, rep.degree)
    with pytest.raises(ValueError):
        pres.x(len(g.edges))
    with pytest.raises(ValueError):
        pres.v(g.root, (0, 0, 0, 0))


def test_realize_psl2_19_capability():
    from repmoduli.chars import table_psl2_odd
    m = psl2_model(19)
    t = table_psl2_odd(19)
    rep = realize_irreducible(m, t, rho0_character(t), seed=0)
    assert rep.degree == 9
    assert rep.character_defect(rho0_character(t)) < 1e-6


def test_h_action_rejects_bad_alpha(setting4):
    m, t, rep, g, pres = setting4
    nrng = random.Random(8)
    tau = random_moduli_point(g, rep, nrng)
    bad = HPoint(g, {v: np.eye(rep.degree, dtype=complex)[None]
                     for v in range(len(g.vertices))})
    x = normal(nrng, (rep.degree, rep.degree))
    bad.mats[1] = np.linalg.qr(x)[0][None]  # unitary, not in the commutant
    with pytest.raises(Exception):
        h_action(g, rep, tau, bad)


def test_moduli_and_gauge_checks_read_action_tolerance(setting4):
    from dataclasses import replace
    from repmoduli.numerics import TOL, ToleranceExceeded
    m, t, rep, g, pres = setting4
    nrng = random.Random(8)
    tau = random_moduli_point(g, rep, nrng)
    alpha = random_h_point(g, rep, nrng)
    h_action(g, rep, tau, alpha, TOL)
    tight = replace(TOL, action=1e-30)
    with pytest.raises(ToleranceExceeded):
        random_moduli_point(g, rep, nrng, tol=tight)
    with pytest.raises(ToleranceExceeded):
        tau.check(rep, tight)
    with pytest.raises(ToleranceExceeded):
        h_action(g, rep, tau, alpha, tight)


@pytest.mark.parametrize("q", [4, 8, 11, 16, 19, 27])
def test_explicit_model_reference(q):
    # the closed-form images against the exact character at every class
    # representative, and as a homomorphism on every pair of transvection
    # generators and on 200 seeded random pairs
    m = psl2_model(q)
    t = table_psl2_even(q) if q % 2 == 0 else table_psl2_odd(q)
    target = rho0_character(t)
    rep = UnitaryRep(m, (KirillovModel if q % 2 == 0 else WeilModel)(m))
    assert rep.degree == target.degree
    traces = np.trace(rep.stack_of([m.class_reps[lab] for lab in t.labels]),
                      axis1=1, axis2=2)
    # the complex values character_defect reads, straight from the stored
    # terms, against the reference's canonical form
    exact = np.array([_complex_value(target.value_at(lab))
                      for lab in t.labels])
    reference = [Cyclotomic.from_packed(target.value_at(lab)).to_complex()
                 for lab in t.labels]
    assert np.max(np.abs(exact - reference)) < 1e-12
    assert np.max(np.abs(traces - exact)) < 1e-12
    f = m.spec
    powers = [ref_field(f.p, f.n).pow(f.generator, i) for i in range(f.n)]
    gens = [m.canonical(g) for lam in powers
            for g in ((1, 0, lam, 1), (1, lam, 0, 1))]
    pairs = [(g, h) for g in gens for h in gens]
    lhs = rep.stack_of([g for g, _ in pairs]) @ rep.stack_of(
        [h for _, h in pairs])
    assert np.max(np.abs(lhs - rep.stack_of(
        [m.mul(g, h) for g, h in pairs]))) < 1e-12
    assert rep.homomorphism_defect(random.Random(q), 200) < 1e-12
    assert rep.unitarity_defect(gens) < 1e-12


@pytest.mark.parametrize("q", [8, 11])
def test_monomial_images_match_dense(q):
    # the Borel images stay monomial; their group averages and commutator
    # defects equal those of the same images made dense
    m = psl2_model(q)
    t = table_psl2_even(q) if q % 2 == 0 else table_psl2_odd(q)
    rep = realize_irreducible(m, t, rho0_character(t), seed=0)
    borel = build_subgroup(m, "borel").elements
    images = rep.kept(borel)
    assert images.mono.all()
    dense = _dense_images(images.stack())
    rng = random.Random(q)
    d = rep.degree
    xs = normal(rng, (2, d, d)) + 1j * normal(rng, (2, d, d))
    assert np.allclose(images.sandwich_sum(xs), dense.sandwich_sum(xs),
                       atol=1e-12)
    for t in (xs[0], np.eye(d), rep.mat(borel[1])):
        assert images.commutator_defect(t) == pytest.approx(
            dense.commutator_defect(t), abs=1e-12)
    assert rep.kept(borel) is images


def _reference_tau_v(graph, mats):
    """tau_v of every vertex from one draw's (d, d) edge matrices, a
    product of single matrices along each tree path."""
    d = next(iter(mats.values())).shape[-1]
    out = []
    for path in graph.tree_paths:
        t = np.eye(d, dtype=np.complex128)
        for e in path:
            t = mats[e] @ t
        out.append(t)
    return out


def _stacked(points):
    """One point whose draws are the draws of `points`, in order."""
    return ModuliPoint(points[0].graph, {
        e: np.concatenate([p.mats[e] for p in points])
        for e in points[0].mats})


def _reference_eval(rep, tau, word, draw=0):
    """The word's value at draw `draw` of tau, with every symbol image
    built afresh from that draw's matrices."""
    graph = tau.graph
    mats = {ei: m[draw] for ei, m in tau.mats.items()}
    symbol = {row: sym for sym, row in graph.word_symbols[0].items()}
    tau_v = _reference_tau_v(graph, mats)
    acc = np.eye(rep.degree, dtype=np.complex128)
    for sym in map(symbol.get, np.asarray(word).tolist()):
        if sym[0] == "x":
            _, ei, exp = sym
            e = graph.edges[ei]
            m = tau_v[e.s].conj().T @ mats[ei].conj().T @ \
                rep.mat(e.g) @ tau_v[e.w]
        else:
            _, vi, g, exp = sym
            m = tau_v[vi].conj().T @ rep.mat(g) @ tau_v[vi]
        acc = acc @ (m if exp == 1 else m.conj().T)
    return acc


@pytest.fixture(scope="module")
def setting11(rho11):
    m, t, rep = rho11
    g = build_orbit_graph("psl2_odd", 11, k=1, model=m)
    return m, t, rep, g, brown_presentation(g, m)


def test_cached_word_values_are_bit_identical(setting11):
    m, t, rep, g, pres = setting11
    nrng = random.Random(11)
    rng = random.Random(111)
    tau = random_moduli_point(g, rep, nrng)
    moved = h_action(g, rep, tau, random_h_point(g, rep, nrng))
    for point in (tau, moved):
        for w in random_word(pres, rng, 8, 40):
            ref = _reference_eval(rep, point, w)
            assert np.array_equal(rho_tau_eval(pres, rep, point, [w])[0], ref)
            # a second evaluation reads every image from the cache
            assert np.array_equal(rho_tau_eval(pres, rep, point, [w])[0], ref)


def test_symbol_images_are_kept_per_rep(setting11):
    # seeds 0 and 1 give the same matrices; conjugating the second makes
    # the two reps differ, and one point evaluates each with its own images
    m, t, rep, g, pres = setting11
    r0 = realize_irreducible(m, t, rho0_character(t), seed=0)
    r1 = realize_irreducible(m, t, rho0_character(t), seed=1)
    u = np.linalg.qr(normal(random.Random(5), (r1.degree, r1.degree)))[0]
    r1 = UnitaryRep(m, _Dense(r1.formula, lambda els, s: u @ s @ u.T))
    tau = random_moduli_point(g, r0, random.Random(12))
    for w in random_word(pres, random.Random(112), 6, 10):
        v0 = rho_tau_eval(pres, r0, tau, [w])[0]
        v1 = rho_tau_eval(pres, r1, tau, [w])[0]
        assert np.array_equal(v0, _reference_eval(r0, tau, w))
        assert np.array_equal(v1, _reference_eval(r1, tau, w))
    assert not np.allclose(v0, v1)


def test_stacked_tau_v_equals_each_draw(setting11):
    # tau_v of a point of three draws, as gauge_defect builds them, is
    # every draw's tau_v from its own single matrices bit for bit, and the
    # identity stack at the root
    m, t, rep, g, pres = setting11
    nrng = random.Random(17)
    draws = [random_moduli_point(g, rep, nrng) for _ in range(3)]
    stacked = _stacked(draws)
    d = rep.degree
    assert max(map(len, g.tree_paths)) > 1
    for i, p in enumerate(draws):
        ref = _reference_tau_v(g, {e: mat[0] for e, mat in p.mats.items()})
        for v, tv in enumerate(stacked.tau_v):
            assert tv.shape == (3, d, d)
            assert np.array_equal(tv[i], ref[v])
    assert np.array_equal(stacked.tau_v[g.root],
                          np.broadcast_to(np.eye(d), (3, d, d)))


@pytest.mark.parametrize("budget", [None, 64 * 5 * 5 * 5 * 2])
def test_gauge_defect_evaluates_draws_together(setting11, monkeypatch,
                                               budget):
    # the draws' words at tau and at tau . alpha, draws i and 4 + i of one
    # point, run in one rho_tau_eval call or, patched, two draws a call;
    # each value is bit for bit the word-by-word product at its draw, and
    # the defect their worst
    import repmoduli.numerics as num
    m, t, rep, g, pres = setting11
    if budget is not None:
        monkeypatch.setattr(num, "_CHUNK_BYTES", budget)
    calls = []
    real = num.rho_tau_eval
    monkeypatch.setattr(num, "rho_tau_eval", lambda *a: calls.append(
        (a, real(*a))) or calls[-1][1])
    words = random_word(pres, random.Random(118), 6, (4, 5))
    worst = num.gauge_defect(pres, rep, random.Random(18), words)
    assert len(calls) == (1 if budget is None else 2)
    defects, points, draws = [], set(), set()
    for (_, _, point, batch, at), values in calls:
        assert len(batch) == 2 * 5 * (4 // len(calls))
        for i, w, value in zip(at, batch, values):
            assert np.array_equal(value, _reference_eval(rep, point, w, i))
        half = len(batch) // 2
        assert np.array_equal(at[half:], at[:half] + 4)
        defects.append(np.max(np.abs(values[:half] - values[half:])))
        points.add(id(point))
        draws |= set(at.tolist())
    assert len(points) == 1 and draws == set(range(8))
    assert worst == max(defects) and 0 < worst < 1e-12


def test_expm_rotation_inverse_and_rejection():
    theta = 0.7
    rot = expm(np.array([[0, -theta], [theta, 0]], dtype=complex))
    assert np.allclose(rot, [[np.cos(theta), -np.sin(theta)],
                             [np.sin(theta), np.cos(theta)]], atol=1e-14)
    rng = random.Random(3)
    for d in (3, 9, 41):
        x = normal(rng, (d, d)) + 1j * normal(rng, (d, d))
        a = (x - x.conj().T) / 2
        assert np.max(np.abs(expm(a) @ expm(-a) - np.eye(d))) < 1e-12
        with pytest.raises(ValueError):
            expm(x)
    with pytest.raises(ValueError):
        expm(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        expm(np.full((2, 2), np.nan, dtype=complex))


def test_defects_propagate_nan(rho4):
    # NaN images wherever c != 0, as at the transvection representative
    m, t, rep = rho4

    def nan_where_c(elements, stack):
        stack[[g[2] != 0 for g in elements]] = np.nan
        return stack
    bad = UnitaryRep(m, _Dense(rep.formula, nan_where_c))
    assert np.isnan(bad.unitarity_defect())
    assert np.isnan(bad.character_defect(rho0_character(t)))
    assert np.isnan(bad.homomorphism_defect(random.Random(0)))


def test_nan_matrix_fails_realization(monkeypatch):
    import repmoduli.numerics as num
    real = num.UnitaryRep

    def with_nan(model, formula):
        return real(model, _altering(formula, model.element(model.order - 1),
                                     lambda a: np.full_like(a, np.nan)))

    monkeypatch.setattr(num, "UnitaryRep", with_nan)
    m = psl2_model(4)
    t = table_psl2_even(4)
    with pytest.raises(num.ToleranceExceeded):
        num.realize_irreducible(m, t, rho0_character(t), seed=1)


def test_batched_words_equal_reference(setting11):
    # one batch per draw of a three-draw point, and one at a one-draw
    # point, with words of different lengths: every value equals the
    # word-by-word product bit for bit
    m, t, rep, g, pres = setting11
    nrng = random.Random(13)
    rng = random.Random(113)
    tau = random_moduli_point(g, rep, nrng)
    moved = h_action(g, rep, tau, random_h_point(g, rep, nrng))
    one = identity_moduli_point(g, rep.degree)
    three = _stacked([tau, moved, one])
    words = random_word(pres, rng, 6, 30)
    kernel = random_kernel_word(pres, rng, 20)
    assert len({len(w) for w in kernel}) > 1
    for point, draw, batch in ((three, 0, words), (three, 1, words),
                               (three, 2, words), (three, 2, kernel),
                               (tau, 0, kernel)):
        values = rho_tau_eval(pres, rep, point, batch, draw)
        assert values.shape == (len(batch), rep.degree, rep.degree)
        for w, value in zip(batch, values):
            assert np.array_equal(value,
                                  _reference_eval(rep, point, w, draw))
    assert rho_tau_eval(pres, rep, tau, []).shape == \
        (0, rep.degree, rep.degree)


@pytest.mark.parametrize("budget, cycle", [
    pytest.param(budget, cycle, id=f"{budget}{name}")
    for name, cycle in (("", (0, 1, 2)), ("-reordered", (2, 2, 0, 2, 1, 1)))
    for budget in (None, 16 * 5 * 5 * 8)])
def test_mixed_points_and_lengths_equal_reference(setting11, monkeypatch,
                                                 budget, cycle):
    # words of 1 to 116 symbols at the three draws of one point in one
    # call, the draws in turn or repeated and out of order, in chunks of
    # about 1 MB or, patched, of 8 matrices (many chunks, the longest word
    # alone in one): every value equals the word-by-word product bit for
    # bit, with one batched image build per chunk for all draws
    import repmoduli.numerics as num
    m, t, rep, g, pres = setting11
    if budget is not None:
        monkeypatch.setattr(num, "_CHUNK_BYTES", budget)
    built = []                  # the draws of each image build
    real = num.ModuliPoint.symbol_images
    monkeypatch.setattr(num.ModuliPoint, "symbol_images",
                        lambda *a: built.append(set(a[2].tolist())) or
                        real(*a))
    nrng = random.Random(16)
    rng = random.Random(116)
    tau = random_moduli_point(g, rep, nrng)
    moved = h_action(g, rep, tau, random_h_point(g, rep, nrng))
    point = _stacked([tau, moved, identity_moduli_point(g, rep.degree)])
    words = [random_word(pres, rng, n) for n in
             (1, 116, 2, 3, 1, 7, 40, 5, 13, 89, 1, 21, 60, 4)]
    words += random_kernel_word(pres, rng, 10)
    at = [cycle[i % len(cycle)] for i in range(len(words))]
    values = rho_tau_eval(pres, rep, point, words, at)
    assert values.shape == (len(words), rep.degree, rep.degree)
    for w, i, value in zip(words, at, values):
        assert np.array_equal(value, _reference_eval(rep, point, w, i))
    if budget is None:          # one chunk, one build for the three draws
        assert built == [{0, 1, 2}]
    else:
        assert len(built) > 10


def test_phase_on_one_matrix_fails_realization(monkeypatch):
    import repmoduli.numerics as num
    real = num.UnitaryRep

    def with_phase(model, formula):
        return real(model, _altering(formula, model.element(model.order - 1),
                                     lambda a: a * np.exp(0.3j)))

    monkeypatch.setattr(num, "UnitaryRep", with_phase)
    m = psl2_model(4)
    t = table_psl2_even(4)
    with pytest.raises(num.ToleranceExceeded):
        num.realize_irreducible(m, t, rho0_character(t), seed=1)


def _with_one_element(rep, g, value):
    """rep with the matrix of g replaced by value(old matrix)."""
    return UnitaryRep(rep.model, _altering(rep.formula, g, value))


@pytest.mark.parametrize("bad", ["conjugated", "nan"])
def test_one_bad_stabilizer_element_fails_point_checks(setting11, bad):
    from repmoduli.numerics import ToleranceExceeded
    m, t, rep, g, pres = setting11
    nrng = random.Random(14)
    tau = random_moduli_point(g, rep, nrng)
    alpha = random_h_point(g, rep, nrng)
    u = np.linalg.qr(normal(nrng, (rep.degree, rep.degree)))[0]
    alter = {"conjugated": lambda a: u @ a @ u.T,
             "nan": lambda a: np.full_like(a, np.nan)}[bad]
    edge_sub = g.edges[0].sub
    vi = next(i for i in range(len(g.vertices)) if i != g.root)
    for sub, point in ((edge_sub, tau), (g.vertices[vi].sub, alpha)):
        point.check(rep)
        x = next(x for x in sub.elements if x != IDENTITY)
        with pytest.raises(ToleranceExceeded):
            point.check(_with_one_element(rep, x, alter))


@pytest.mark.parametrize("q,ranks", [
    (4, [1, 2, 2, 3, 5, 5, 9]),
    (11, [1, 3, 3, 3, 5, 13, 7, 9, 25]),
])
def test_commutant_ranks_are_pinned(rho4, rho11, q, ranks):
    m, t, rep = rho4 if q == 4 else rho11
    fam = "psl2_even" if q == 4 else "psl2_odd"
    g = build_orbit_graph(fam, q, k=1, model=m)
    subs = [node.sub for node in list(g.vertices) + list(g.edges)]
    assert [commutant_rank(rep, sub.elements, seed=r)
            for sub, r in zip(subs, ranks)] == ranks


def test_homomorphism_defect_draws_pairs_in_order(rho4):
    # the defect over 300 pairs drawn as one array equals the defect over
    # pairs drawn one scalar at a time, g then h, and leaves the generator
    # in the same state
    m, t, rep = rho4
    rng, ref = random.Random(15), random.Random(15)
    worst = 0.0
    for _ in range(300):
        g = m.element(int(integers(ref, 0, m.order, ())))
        h = m.element(int(integers(ref, 0, m.order, ())))
        worst = max(worst, np.max(np.abs(rep.mat(g) @ rep.mat(h) -
                                         rep.mat(m.mul(g, h)))))
    assert rep.homomorphism_defect(rng) == worst
    assert rng.getstate() == ref.getstate()
