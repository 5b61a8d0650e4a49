import random

import pytest

from repmoduli.chars import (
    rho0_character, table_psl2_even, table_psl2_odd, table_suzuki,
)
from repmoduli.groups import (
    IDENTITY, ClassLabel, SubgroupSpec, cyclic_group_model, psl2_model,
)
from repmoduli.oscomplex import (
    GroupRingElement, IntChainComplex, brown_presentation, build_orbit_graph,
    moduli_dimension_report, path_to_word, euler_identity,
    random_closed_path, random_kernel_word, random_word, smith_normal_form,
    snf_diagonal, solve_group_ring, validate_graph, word_inverse,
)


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


def test_euler_identity_specializes_to_euler_characteristic():
    t = table_psl2_even(4)
    g = build_orbit_graph("psl2_even", 4)
    i = t.chars.index(t.by_name["1"])
    lhs, rhs, eq = euler_identity(g, t)
    assert eq[i][i] and lhs[i][i] == 1 + len(g.edges) and \
        rhs[i][i] == len(g.vertices) + 1


def test_euler_identity_distinguished_character():
    t = table_psl2_even(4)
    g = build_orbit_graph("psl2_even", 4)
    th = t.chars.index(t.by_name["theta_1"])
    lhs, rhs, eq = euler_identity(g, t)
    assert eq[th][th] and lhs[th][th] == 14 and rhs[th][th] == 14
    one = t.chars.index(t.by_name["1"])
    assert eq[one][th]


def test_euler_identity_all_pairs_psl2_11():
    t = table_psl2_odd(11)
    g = build_orbit_graph("psl2_odd", 11)
    eq = euler_identity(g, t)[2]
    for i in range(len(t.chars)):
        for j in range(len(t.chars)):
            assert eq[i][j]


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
    lhs, rhs, eq = euler_identity(build_orbit_graph("psl2_even", 4), t)
    assert eq[th][th] is False and lhs[th][th] != rhs[th][th]


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
    m = psl2_model(11)
    t = table_psl2_odd(11)
    g0 = build_orbit_graph("psl2_odd", 11, model=m, ge_choice=0)
    g1 = build_orbit_graph("psl2_odd", 11, model=m, ge_choice=1)
    assert g0.edges[3].g != g1.edges[3].g
    assert brown_presentation(g0, m).verify()
    assert brown_presentation(g1, m).verify()
    r0 = moduli_dimension_report(g0, t)
    r1 = moduli_dimension_report(g1, t)
    assert r0.to_json() == r1.to_json()


def test_closed_paths_produce_kernel_words():
    m = psl2_model(4)
    g = build_orbit_graph("psl2_even", 4, k=1, model=m)
    pres = brown_presentation(g, m)
    rng = random.Random(11)
    for _ in range(10):
        legs = random_closed_path(g, rng)
        word = path_to_word(pres, legs)
        assert pres.phi(word) == IDENTITY
    for _ in range(10):
        w = random_kernel_word(pres, rng)
        assert pres.phi(w) == IDENTITY
    w = random_word(pres, rng, 6)
    assert pres.phi(w + word_inverse(w)) == IDENTITY


def _closed_path_reference(graph, rng, min_len=4, max_len=14):
    """random_closed_path with the edge options listed afresh at each step."""
    model = graph.model
    root_set = set(graph.vertices[graph.root].sub.elements)
    while True:
        c, vidx = IDENTITY, graph.root
        legs = []
        for _ in range(max_len):
            c = model.mul(c, rng.choice(graph.vertices[vidx].sub.elements))
            options = [(i, +1) for i, e in enumerate(graph.edges)
                       if e.s == vidx]
            options += [(i, -1) for i, e in enumerate(graph.edges)
                        if e.w == vidx]
            ei, eps = rng.choice(options)
            e = graph.edges[ei]
            if eps == 1:
                legs.append((c, ei, 1))
                c, vidx = model.mul(c, e.g), e.w
            else:
                a = model.mul(c, model.inv(e.g))
                legs.append((a, ei, -1))
                c, vidx = a, e.s
            if vidx == graph.root and len(legs) >= min_len and c in root_set:
                return legs


@pytest.mark.parametrize("fam,q,k", [("psl2_even", 4, 1), ("psl2_odd", 11, 0)])
def test_closed_paths_match_reference(fam, q, k):
    g = build_orbit_graph(fam, q, k=k, model=psl2_model(q))
    for seed in range(5):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert random_closed_path(g, rng) == \
                _closed_path_reference(g, ref_rng)


def test_smith_normal_form_reconstruction():
    rng = random.Random(23)
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 8)
        mat = [[rng.randrange(-9, 10) for _ in range(cols)]
               for _ in range(rows)]
        s, u, v = smith_normal_form(mat)
        prod = [[sum(u[i][k] * s[k][j] for k in range(rows))
                 for j in range(cols)] for i in range(rows)]
        prod = [[sum(prod[i][k] * v[k][j] for k in range(cols))
                 for j in range(cols)] for i in range(rows)]
        assert prod == mat
        diag = [s[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0


def test_snf_zero_matrix():
    s, u, v = smith_normal_form([[0, 0], [0, 0]])
    assert s == [[0, 0], [0, 0]]
    assert snf_diagonal([[0, 0], [0, 0]]) == []


def test_rp2_homology():
    c = IntChainComplex([[2]], [[0]])
    assert c.homology() == {0: (1, []), 1: (0, [2]), 2: (0, [])}


def test_chain_complex_rejects_nonzero_composition():
    with pytest.raises(ValueError):
        IntChainComplex([[1]], [[1]])


def test_group_ring_bar_and_norm():
    m = psl2_model(4)
    rng = random.Random(2)
    for _ in range(20):
        x = GroupRingElement(m, {rng.choice(m.elements): rng.randrange(-3, 4)
                                 for _ in range(3)})
        y = GroupRingElement(m, {rng.choice(m.elements): rng.randrange(-3, 4)
                                 for _ in range(3)})
        assert (x * y).bar() == y.bar() * x.bar()
        assert (x + y).bar() == x.bar() + y.bar()
        assert x.bar().bar() == x
    from repmoduli.groups import build_subgroup
    h = build_subgroup(m, "cyclic", 2)
    n = GroupRingElement.norm(m, h)
    assert n.bar() == n and n.augmentation() == 2


def test_solve_group_ring_examples():
    c2 = cyclic_group_model(2)
    triv = SubgroupSpec("trivial", 0, 1, (0,))
    full = SubgroupSpec("cyclic", 2, 2, (0, 1))
    one = GroupRingElement.unit(c2)

    sol = solve_group_ring(c2, [(one, triv)])
    assert sol[0].coeffs == {0: 1}

    assert solve_group_ring(c2, [(one, full)]) is None  # parity obstruction

    sol = solve_group_ring(c2, [(one, triv), (one, full)])
    assert sol is not None
    total = sol[0] * GroupRingElement.norm(c2, triv) + \
        sol[1] * GroupRingElement.norm(c2, full)
    # solver already asserts correctness; re-check the defining identity
    lhs = (one * GroupRingElement.norm(c2, triv) * sol[0]) + \
        (one * GroupRingElement.norm(c2, full) * sol[1])
    assert lhs == one


def test_solve_group_ring_random_solvable():
    rng = random.Random(7)
    c6 = cyclic_group_model(6)
    triv = SubgroupSpec("trivial", 0, 1, (0,))
    sub3 = SubgroupSpec("cyclic", 3, 3, (0, 2, 4))
    s1 = GroupRingElement(c6, {rng.randrange(6): 1, rng.randrange(6): -2})
    targets = [(s1, triv), (GroupRingElement.unit(c6), sub3)]
    # build a right-hand side that is a known combination
    x1 = GroupRingElement(c6, {1: 3, 5: -1})
    x2 = GroupRingElement(c6, {0: 2})
    rhs = s1 * GroupRingElement.norm(c6, triv) * x1 + \
        GroupRingElement.unit(c6) * GroupRingElement.norm(c6, sub3) * x2
    sol = solve_group_ring(c6, targets, rhs=rhs)
    assert sol is not None  # internal assertion re-verifies the identity


def test_euler_identity_wider_spot():
    from repmoduli.chars import table_psl2_odd, table_suzuki
    for fam, q, table in [("psl2_odd", 43, table_psl2_odd(43)),
                          ("sz", 32, table_suzuki(32))]:
        g = build_orbit_graph(fam, q)
        chars = table.chars
        picks = [0, 1, len(chars) // 2, len(chars) - 1]
        eq = euler_identity(g, table)[2]
        for i in picks:
            for j in picks:
                assert eq[i][j], (fam, chars[i].name)


def _det_int(mat):
    # fraction-free Bareiss determinant over Z
    n = len(mat)
    a = [row[:] for row in mat]
    prev = 1
    sign = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def test_snf_transformations_unimodular():
    rng = random.Random(5)
    for _ in range(15):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        mat = [[rng.randrange(-6, 7) for _ in range(cols)]
               for _ in range(rows)]
        s, u, v = smith_normal_form(mat)
        assert abs(_det_int(u)) == 1
        assert abs(_det_int(v)) == 1
