import random

import numpy as np
import pytest

import repmoduli.oscomplex as osc

from repmoduli.chars import (
    rho0_character, table_psl2_even, table_psl2_odd,
    table_suzuki,
)
from repmoduli.draws import uniform
from repmoduli.groups import (
    IDENTITY, ClassLabel, psl2_model,
)
from repmoduli.oscomplex import (
    InvalidGraph, brown_presentation, build_orbit_graph,
    moduli_dimension_report, path_to_word, euler_identity,
    random_closed_path, random_kernel_word, random_word, validate_graph,
    word_inverse,
)

from gram_ref import gram


def test_build_graph_psl2_4():
    g = build_orbit_graph("psl2_even", 4)
    assert [v.sub.tag for v in g.vertices] == [
        "borel", "dihedral_split", "dihedral_nonsplit"]
    assert [(e.sub.tag, e.sub.param) for e in g.edges] == [
        ("cyclic", 3), ("cyclic", 2), ("cyclic", 2)]
    assert [e.in_tree for e in g.edges] == [True, True, False]


def test_build_graph_psl2_11():
    g = build_orbit_graph("psl2_odd", 11)
    assert [v.sub.tag for v in g.vertices] == [
        "borel", "dihedral_split", "dihedral_nonsplit", "a4"]
    # the order-3 edge joins A4 back to the nonsplit dihedral for q = 11 mod 24
    closing = g.edges[3]
    assert closing.sub.tag == "cyclic" and closing.sub.param == 3
    assert g.vertices[closing.s].sub.tag == "a4"
    assert g.vertices[closing.w].sub.tag == "dihedral_nonsplit"


def test_build_graph_sz8_with_free_orbits():
    g = build_orbit_graph("sz", 8, k=2)
    assert len(g.vertices) == 4
    assert len(g.edges) == 6
    assert [e.free for e in g.edges] == [False] * 4 + [True, True]
    assert all(e.sub.order == 1 for e in g.edges if e.free)


def test_unsupported_family():
    with pytest.raises(ValueError):
        build_orbit_graph("cyclic", 5)


def test_moduli_dimension_spot_values():
    expected = {("psl2_even", 4): 9, ("psl2_even", 8): 49,
                ("psl2_odd", 11): 25, ("sz", 8): 196}
    tables = {"psl2_even": table_psl2_even, "psl2_odd": table_psl2_odd,
              "sz": table_suzuki}
    for (fam, q), target in expected.items():
        rep = moduli_dimension_report(build_orbit_graph(fam, q),
                                      tables[fam](q))
        assert rep.equal and rep.dim_quotient == target


def test_moduli_dimension_k_independent():
    for k in range(4):
        rep = moduli_dimension_report(build_orbit_graph("sz", 8, k=k),
                                      table_suzuki(8))
        assert rep.equal
        assert rep.dim_target == (k + 1) * rep.degree ** 2


def _euler_grams(graph, table):
    """Both sides of the Euler relation for every ordered pair of
    irreducibles: the Grams of the two class-weight vectors."""
    lhs_w, rhs_w = euler_identity(graph, table)
    rows = [c.packed for c in table.chars]
    return gram(rows, rows, lhs_w), gram(rows, rows, rhs_w)


def test_euler_identity_specializes_to_euler_characteristic():
    t = table_psl2_even(4)
    g = build_orbit_graph("psl2_even", 4)
    i = t.chars.index(t.by_name["1"])
    lhs, rhs = _euler_grams(g, t)
    assert lhs[i][i] == rhs[i][i] and lhs[i][i] == 1 + len(g.edges) and \
        rhs[i][i] == len(g.vertices) + 1


def test_euler_identity_distinguished_character():
    t = table_psl2_even(4)
    g = build_orbit_graph("psl2_even", 4)
    th = t.chars.index(t.by_name["theta_1"])
    lhs, rhs = _euler_grams(g, t)
    assert lhs[th][th] == 14 and rhs[th][th] == 14
    one = t.chars.index(t.by_name["1"])
    assert lhs[one][th] == rhs[one][th]


def test_euler_identity_all_pairs_psl2_11():
    t = table_psl2_odd(11)
    g = build_orbit_graph("psl2_odd", 11)
    lhs, rhs = _euler_grams(g, t)
    for i in range(len(t.chars)):
        for j in range(len(t.chars)):
            assert lhs[i][j] == rhs[i][j]


def test_euler_identity_fails_on_one_altered_fusion_count(monkeypatch):
    import repmoduli.oscomplex as osc
    real = osc.fusion_for

    def one_more_involution(table, sub):
        fusion = real(table, sub)
        if sub.tag == "dihedral_split":
            fusion = dict(fusion)
            fusion[ClassLabel("c")] += 1
        return fusion

    monkeypatch.setattr(osc, "fusion_for", one_more_involution)
    t = table_psl2_even(4)
    th = t.chars.index(t.by_name["theta_1"])
    g = build_orbit_graph("psl2_even", 4)
    lhs_w, rhs_w = euler_identity(g, t)
    assert lhs_w != rhs_w
    lhs, rhs = _euler_grams(g, t)
    assert lhs[th][th] != rhs[th][th]


def test_concrete_graph_validates():
    m = psl2_model(4)
    g = build_orbit_graph("psl2_even", 4, k=2, model=m)
    assert validate_graph(g)
    m11 = psl2_model(11)
    g11 = build_orbit_graph("psl2_odd", 11, model=m11)
    assert validate_graph(g11)


def test_concrete_graph_matches_symbolic_dimensions():
    m = psl2_model(11)
    t = table_psl2_odd(11)
    sym = moduli_dimension_report(build_orbit_graph("psl2_odd", 11), t)
    conc = moduli_dimension_report(build_orbit_graph("psl2_odd", 11, model=m), t)
    assert sym.edge_dims == conc.edge_dims
    assert sym.vertex_dims == conc.vertex_dims


def test_brown_presentation_sound():
    for q in (4, 11):
        m = psl2_model(q)
        fam = "psl2_even" if q == 4 else "psl2_odd"
        g = build_orbit_graph(fam, q, k=1, model=m)
        pres = brown_presentation(g, m)
        assert pres.verify()
        for ei, e in enumerate(g.edges):
            if e.in_tree:
                assert e.g == IDENTITY
            if e.free:
                # no conjugation relations beyond the trivial element
                assert e.sub.order == 1


def test_ge_choice_does_not_matter():
    # the closing edge's g_e set to the second element that conjugates
    # G_e into G_w, where the construction takes the first
    m = psl2_model(11)
    t = table_psl2_odd(11)
    g0 = build_orbit_graph("psl2_odd", 11, model=m)
    g1 = build_orbit_graph("psl2_odd", 11, model=m)
    e = g1.edges[3]
    target = set(g1.vertices[e.w].sub.elements)
    valid = (g for g in m.scan()
             if all(m.conjugate(x, m.inv(g)) in target for x in e.sub.gens))
    next(valid)
    e.g = next(valid)
    assert g0.edges[3].g != g1.edges[3].g
    assert brown_presentation(g0, m).verify()
    assert brown_presentation(g1, m).verify()
    r0 = moduli_dimension_report(g0, t)
    r1 = moduli_dimension_report(g1, t)
    assert r0 == r1


def test_closed_paths_produce_kernel_words():
    m = psl2_model(4)
    g = build_orbit_graph("psl2_even", 4, k=1, model=m)
    pres = brown_presentation(g, m)
    rng = random.Random(11)
    for legs in random_closed_path(g, rng, 10):
        word = path_to_word(pres, legs)
        assert pres.phi(word) == IDENTITY
    for w in random_kernel_word(pres, rng, 10):
        assert pres.phi(w) == IDENTITY
    w = random_word(pres, rng, 6)
    assert w.shape == (6,)
    assert pres.phi(np.concatenate([w, word_inverse(pres, w)])) == IDENTITY


def _closed_path_reference(graph, rng, n, min_len=4, max_len=14):
    """random_closed_path walked one walk at a time, with the edge options
    listed afresh at each step, on the same draws: rounds of _WALK_BATCH
    walks per path still missing, walk k reading column k of a
    (max_len, walks) array of uniforms.  Returns the paths and the closing
    prefix of each, as products of canonical elements."""
    model = graph.model
    root_set = set(graph.vertices[graph.root].sub.elements)
    paths = []
    while len(paths) < n:
        u = uniform(rng, (max_len, osc._WALK_BATCH * (n - len(paths))))
        for column in u.T.tolist():
            c, vidx = IDENTITY, graph.root
            legs = []
            for x in column:
                twists = graph.vertices[vidx].sub.elements
                options = [(i, +1) for i, e in enumerate(graph.edges)
                           if e.s == vidx]
                options += [(i, -1) for i, e in enumerate(graph.edges)
                            if e.w == vidx]
                k = int(x * (len(twists) * len(options)))
                c = model.mul(c, twists[k // len(options)])
                ei, eps = options[k % len(options)]
                e = graph.edges[ei]
                if eps == 1:
                    legs.append((c, ei, 1))
                    c, vidx = model.mul(c, e.g), e.w
                else:
                    a = model.mul(c, model.inv(e.g))
                    legs.append((a, ei, -1))
                    c, vidx = a, e.s
                if vidx == graph.root and len(legs) >= min_len and \
                        c in root_set:
                    paths.append((legs, c))
                    break
    return [p for p, _ in paths[:n]], [c for _, c in paths[:n]]


@pytest.mark.parametrize("fam,q,k", [
    (fam, q, k) for fam, q in [("psl2_even", 4), ("psl2_even", 8),
                               ("psl2_odd", 11), ("psl2_odd", 19)]
    for k in (0, 1)])
def test_closed_paths_match_reference(fam, q, k):
    # the lockstep walks give the paths and closing prefixes of a
    # walk-by-walk reference on the same draws, and leave the generator in
    # the same state
    g = build_orbit_graph(fam, q, k=k, model=psl2_model(q))
    for seed in (0, 1, 2, 3, 4, 7):
        rng, ref_rng, walk_rng = (random.Random(seed)
                                  for _ in range(3))
        for n in (1, 4, 10):
            paths, ends = _closed_path_reference(g, ref_rng, n)
            assert random_closed_path(g, rng, n) == paths
            assert osc._closed_walks(g, walk_rng, n)[1] == ends
        assert rng.getstate() == ref_rng.getstate()


def test_closed_walk_guards_the_root_group():
    # the walk closes on the bottom row of its prefix, which is right for
    # the Borel root group only; with another root group the guard raises,
    # for closed paths and for kernel words alike
    m = psl2_model(11)
    g = build_orbit_graph("psl2_odd", 11, model=m)
    pres = brown_presentation(g, m)
    g.vertex_sets[g.root] = frozenset([IDENTITY])
    with pytest.raises(InvalidGraph):
        random_closed_path(g, random.Random(0), 1)
    with pytest.raises(InvalidGraph):
        random_kernel_word(pres, random.Random(0), 1)


def test_euler_identity_wider_spot():
    from repmoduli.chars import table_psl2_odd, table_suzuki
    for fam, q, table in [("psl2_odd", 43, table_psl2_odd(43)),
                          ("sz", 32, table_suzuki(32))]:
        g = build_orbit_graph(fam, q)
        chars = table.chars
        picks = [0, 1, len(chars) // 2, len(chars) - 1]
        lhs, rhs = _euler_grams(g, table)
        for i in picks:
            for j in picks:
                assert lhs[i][j] == rhs[i][j], (fam, chars[i].name)

