"""Generalized cluster algebras: tropical semifield, tube seeds, mutation,
exchange graphs, and the substitution onto theta identities."""

from collections import Counter

import pytest

from affcluster import cli
from affcluster.affine import (
    TubeRoot,
    build_affine_data,
    detect_tubes,
    fan,
    maximal_compatible_sets,
)
from affcluster.gca import (
    build_tube_seed,
    enumerate_exchange_graph,
    gca_mutate,
    t_o_check,
    t_o_image,
)
from affcluster.poly import (
    ContextMismatch,
    LaurentPoly,
    NonInvertibleImage,
    from_json_dict,
    to_json_dict,
)
from affcluster.theta import IdentityViolated, ThetaEngine
from reference import exchange_numerator, gca_context, gca_monomial, laurent_exchange_graph
from test_affine import AFFINE_TYPES, _cycle

B_A2T = ((0, 1, 1), (-1, 0, 1), (-1, -1, 0))
B_A3T = ((0, 1, 0, 1), (-1, 0, 1, 0), (0, -1, 0, 1), (-1, 0, -1, 0))
B_A3T22 = ((0, 1, 0, 1), (-1, 0, 1, 0), (0, -1, 0, -1), (-1, 0, 1, 0))
B_A4T = (
    (0, 1, 0, 0, 1),
    (-1, 0, 1, 0, 0),
    (0, -1, 0, 1, 0),
    (0, 0, -1, 0, 1),
    (-1, 0, 0, -1, 0),
)
B_C2T = ((0, 1, 0), (-2, 0, 2), (0, -1, 0))


def zm(zkeys, **kw):
    # the exponent vector over zkeys; keys like z0_1 -> ("z", 0, 1), s -> ("star",)
    exps = {}
    for name, v in kw.items():
        if name == "s":
            exps[("star",)] = v
        else:
            o, t = name[1:].split("_")
            exps[("z", int(o), int(t))] = v
    assert set(exps) <= set(zkeys)
    return tuple(exps.get(key, 0) for key in zkeys)


def laurent_cluster(seed):
    # the initial cluster of seed, as Laurent polynomials, and their variables
    ctx = gca_context(seed)
    return ctx, tuple(LaurentPoly.var(ctx, i) for i in range(seed.rank))


def test_size2_seed_matches_figure_top_row():
    eng = ThetaEngine(B_A2T)
    seed, labels = build_tube_seed(eng.tubes, [TubeRoot(0, 0, 1)])
    assert labels == (TubeRoot(0, 0, 1),)
    assert seed.d == (2,)
    assert seed.b == ((0,),)
    # phi = phi' = 0:  p = (z^beta, z_*, z^beta') for the two orbit elements
    g = seed.zkeys
    assert seed.p[0] == (zm(g, z0_1=1), zm(g, s=1), zm(g, z0_0=1))


def test_size3_seed_matrix_and_coefficients():
    eng = ThetaEngine(B_A3T)
    seed, labels = build_tube_seed(
        eng.tubes, [TubeRoot(0, 1, 1), TubeRoot(0, 1, 2)]
    )
    assert labels == (TubeRoot(0, 1, 1), TubeRoot(0, 1, 2))
    assert seed.d == (1, 2)
    assert seed.b == ((0, 2), (-1, 0))
    g = seed.zkeys
    assert seed.p[0] == (zm(g, z0_2=1), zm(g))
    assert seed.p[1] == (zm(g, z0_0=1), zm(g, s=1), zm(g, z0_1=1, z0_2=1))


def test_halved_columns_skew_symmetric():
    for b in [B_A2T, B_A3T, B_A4T, B_C2T]:
        eng = ThetaEngine(b)
        for tube in eng.tubes:
            for jset in maximal_compatible_sets(tube):
                seed, _ = build_tube_seed(eng.tubes, jset)
                seed.validate()  # includes the halved skew-symmetry check


def test_validate_rejects_a_broken_seed():
    eng = ThetaEngine(B_A3T)
    seed, _ = build_tube_seed(eng.tubes, [TubeRoot(0, 1, 1), TubeRoot(0, 1, 2)])
    g = seed.zkeys
    assert seed.d == (1, 2) and seed.b == ((0, 2), (-1, 0))
    seed.validate()
    for change, match in [
        ({"p": (seed.p[0] + (zm(g),), seed.p[1])}, "length != d[+]1"),
        # p_0 and p_d share z0_2, so their tropical sum is z0_2, not 1
        ({"p": (seed.p[0], (zm(g, z0_0=1, z0_2=1), *seed.p[1][1:]))}, "normalization"),
        ({"b": ((0, 1), (-1, 0))}, "not divisible by its degree"),
        ({"b": ((0, 2), (1, 0))}, "not skew-symmetric"),
    ]:
        with pytest.raises(AssertionError, match=match):
            seed._replace(**change).validate()


def test_mutation_involution():
    eng = ThetaEngine(B_A4T)
    seed, labels = build_tube_seed(eng.tubes, [TubeRoot(0, 1, l) for l in (1, 2, 3)])
    for k in range(seed.rank):
        back = gca_mutate(gca_mutate(seed, k), k)
        assert back.b == seed.b
        assert back.p == seed.p
        assert (back.g, back.c) == (seed.g, seed.c)


def test_top_row_exchange_relation():
    # x_gamma x'_gamma = z^{phi'+beta} x_phi^2 + z_* x_phi x_phi' + z^{phi+beta'} x_phi'^2
    eng = ThetaEngine(B_A4T)
    jset = [TubeRoot(0, 1, l) for l in (1, 2, 3)]
    seed, labels = build_tube_seed(eng.tubes, jset)
    k = labels.index(TubeRoot(0, 1, 3))  # the maximal root
    ctx, x = laurent_cluster(seed)
    num = exchange_numerator(ctx, seed, x, k)
    phi = x[labels.index(TubeRoot(0, 1, 2))]
    # phi' is empty here, so the relation degenerates to
    # z^{phi'+beta} x_phi^2 + z_* x_phi + z^{phi+beta'}
    expected = (
        gca_monomial(ctx, seed.p[k][0]) * phi * phi
        + gca_monomial(ctx, seed.p[k][1]) * phi
        + gca_monomial(ctx, seed.p[k][2])
    )
    assert num == expected


def test_gca_polynomial_json_roundtrip_with_context():
    eng = ThetaEngine(B_A3T)
    seed, _labels = build_tube_seed(eng.tubes, sorted(maximal_compatible_sets(eng.tubes[0]))[0])
    ctx, x = laurent_cluster(seed)
    num = exchange_numerator(ctx, seed, x, 0)
    assert from_json_dict(to_json_dict(num), ctx) == num
    with pytest.raises(ContextMismatch):
        from_json_dict(to_json_dict(num))


def test_mutated_coefficients_match_displayed_computation():
    # k=4 chain, mutate at the maximal root: the new coefficients of the old
    # next-smaller root become (1, z^{piece}) exactly as in the worked proof
    eng = ThetaEngine(B_A4T)
    jset = [TubeRoot(0, 1, l) for l in (1, 2, 3)]
    seed, labels = build_tube_seed(eng.tubes, jset)
    k = labels.index(TubeRoot(0, 1, 3))
    mutated = gca_mutate(seed, k)
    assert mutated.p[k] == tuple(reversed(seed.p[k]))
    j = labels.index(TubeRoot(0, 1, 2))
    assert mutated.p[j] == (zm(seed.zkeys), zm(seed.zkeys, z0_1=1, z0_2=1))


def test_normalization_preserved_along_random_walk(rng):
    eng = ThetaEngine(B_A4T)
    seed, labels = build_tube_seed(eng.tubes, [TubeRoot(0, 1, l) for l in (1, 2, 3)])
    for _ in range(30):
        k = rng.randrange(seed.rank)
        seed = gca_mutate(seed, k)  # validate() runs inside


def test_nonnormalized_ratio_identity():
    # p'_{j;l}/p'_{j;0} = p_{j;l} p_{k;d_k}^{(l/d_j)[-b]+} / (p_{j;0} p_{k;0}^{(l/d_j)[b]+}),
    # the ratio form implied by the normalized mutation rule (the exponents
    # divide by d_j; column divisibility keeps them integral)
    eng = ThetaEngine(B_A4T)
    seed, labels = build_tube_seed(eng.tubes, [TubeRoot(0, 1, l) for l in (1, 2, 3)])
    for k in range(seed.rank):
        new = gca_mutate(seed, k)
        dk = seed.d[k]
        for j in range(seed.rank):
            if j == k:
                continue
            bkj = seed.b[k][j]
            dj = seed.d[j]
            for ell in range(dj + 1):
                # monomials as exponent vectors: a ratio is a difference
                up, down = ell * max(-bkj, 0) // dj, ell * max(bkj, 0) // dj
                lhs = [a - b for a, b in zip(new.p[j][ell], new.p[j][0])]
                rhs = [
                    a + up * c - b - down * e
                    for a, c, b, e in zip(seed.p[j][ell], seed.p[k][dk], seed.p[j][0], seed.p[k][0])
                ]
                assert lhs == rhs


def test_exchange_graph_counts():
    expected = {B_A2T: 2, B_A3T: 6, B_A4T: 20}
    for b, count in expected.items():
        eng = ThetaEngine(b)
        tube = eng.tubes[0]
        jset = sorted(maximal_compatible_sets(tube))[0]
        seed, labels = build_tube_seed(eng.tubes, jset)
        graph = enumerate_exchange_graph(eng.tubes, seed, labels)
        assert len(graph.vertices) == count
        assert len(maximal_compatible_sets(tube)) == count
        # regularity: every vertex has rank-many incident edge slots
        degree = {}
        for a, b2, _ in graph.edges:
            degree[a] = degree.get(a, 0) + 1
        assert all(d == seed.rank for d in degree.values())
        # vertex labels biject with the maximal compatible sets
        assert {frozenset(l) for l in graph.labels} == set(
            maximal_compatible_sets(tube)
        )


def test_block_diagonal_product_of_tubes():
    # two k=2 tubes: the block seed's graph is the product of the tube graphs
    eng = ThetaEngine(B_A3T22)
    assert [t.size for t in eng.tubes] == [2, 2]
    jset = [TubeRoot(0, 0, 1), TubeRoot(1, 0, 1)]
    seed, labels = build_tube_seed(eng.tubes, jset)
    assert seed.b == ((0, 0), (0, 0))
    graph = enumerate_exchange_graph(eng.tubes, seed, labels)
    assert len(graph.vertices) == 4  # 2 x 2
    # two distinct exchange relations, one per tube
    assert t_o_check(eng, graph) == 2


def test_t_o_check_all_fixtures():
    for b in [B_A2T, B_A3T, B_A4T, B_C2T]:
        eng = ThetaEngine(b)
        for tube in eng.tubes:
            jset = sorted(maximal_compatible_sets(tube))[0]
            seed, labels = build_tube_seed(eng.tubes, jset)
            graph = enumerate_exchange_graph(eng.tubes, seed, labels)
            assert t_o_check(eng, graph) > 0


def test_build_rejects_non_maximal():
    from affcluster.affine import NotMaximal

    eng = ThetaEngine(B_A3T)
    with pytest.raises(NotMaximal):
        build_tube_seed(eng.tubes, [TubeRoot(0, 0, 1)])
    with pytest.raises(NotMaximal):
        build_tube_seed(eng.tubes, [TubeRoot(0, 0, 1), TubeRoot(0, 1, 1)])


def test_each_arc_set_is_checked_once_where_it_enters(monkeypatch):
    # the helpers behind build_tube_seed and real_exchange take the checked
    # bitset and do not check it again
    from affcluster import affine, gca, theta

    real = affine.check_maximal
    calls = []

    def counted(tube, j):
        calls.append(tube.index)
        return real(tube, j)

    for module in (affine, gca, theta):
        monkeypatch.setattr(module, "check_maximal", counted)
    eng = ThetaEngine(B_D4T)
    build_tube_seed(eng.tubes, [TubeRoot(t.index, 0, 1) for t in eng.tubes])
    assert calls == [0, 1, 2]
    eng = ThetaEngine(B_A4T)
    jset = [TubeRoot(0, 0, 1), TubeRoot(0, 0, 2), TubeRoot(0, 0, 3)]
    del calls[:]
    build_tube_seed(eng.tubes, jset)
    assert calls == [0]
    del calls[:]
    eng.real_exchange(0, jset, TubeRoot(0, 0, 1))
    assert calls == [0]


def test_kernel_generators_vanish_under_substitution():
    # with two tubes, prod z_beta over either orbit maps to y^delta, so the
    # differences of those products lie in the kernel of the substitution
    eng = ThetaEngine(B_A3T22)
    zkeys = build_tube_seed(eng.tubes, [r for tube in eng.tubes for r in fan(tube)])[0].zkeys
    prods = []
    for tube in eng.tubes:
        m = zm(zkeys, **{f"z{tube.index}_{t}": 1 for t in range(tube.size)})
        prods.append(t_o_image(eng, zkeys, m))
    assert len(prods) == 2
    assert all(eng.same([p], [(1, eng.data.delta, None)]) for p in prods)


def test_t_o_image_is_a_pointed_term():
    eng = ThetaEngine(B_A2T)
    zkeys = build_tube_seed(eng.tubes, fan(eng.tubes[0]))[0].zkeys
    # z_star^2 z_0 -> y^beta_0 theta_delta^2 = y^beta_0 (theta_2delta + 2 y^delta)
    image = t_o_image(eng, zkeys, zm(zkeys, s=2, z0_0=1))
    beta0, delta = eng.tubes[0].orbit[0], eng.data.delta
    assert eng.same([image], [(1, beta0, eng.theta_k_delta(2)), (2, beta0 + delta, None)])
    with pytest.raises(NonInvertibleImage):
        t_o_image(eng, zkeys, zm(zkeys, s=-1))


def test_t_o_image_reads_each_slot_of_the_layout():
    # d4t's block seed over its three tubes: each unit slot goes to its own image
    eng = ThetaEngine(B_D4T)
    seed, _ = build_tube_seed(eng.tubes, [r for tube in eng.tubes for r in fan(tube)])
    zkeys, ctx = seed.zkeys, gca_context(seed)
    assert len(zkeys) == sum(t.size for t in eng.tubes) + 1
    for i, key in enumerate(zkeys):
        m = tuple(int(j == i) for j in range(len(zkeys)))
        image = t_o_image(eng, zkeys, m)
        if key == ("star",):
            assert eng.same([image], [(1, None, eng.theta_delta())])
        else:
            _, t, pos = key
            assert image == (1, eng.tubes[t].orbit[pos], None)
        (exponent,) = gca_monomial(ctx, m).terms
        assert exponent == (0,) * seed.rank + m


def test_t_o_check_rejects_a_wrong_image(monkeypatch):
    # doubling every coefficient image breaks each relation
    from affcluster import gca

    eng = ThetaEngine(B_A3T)
    jset = sorted(maximal_compatible_sets(eng.tubes[0]))[0]
    graph = enumerate_exchange_graph(eng.tubes, *build_tube_seed(eng.tubes, jset))
    image = gca.t_o_image
    monkeypatch.setattr(gca, "t_o_image", lambda e, g, m: (2, *image(e, g, m)[1:]))
    with pytest.raises(IdentityViolated):
        t_o_check(eng, graph)


B_D4T = (
    (0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1),
    (-1, -1, -1, -1, 0),
)


def test_three_tube_star_block_seed():
    # the affine D4 star realizes the maximal case of three tubes; the block
    # seed over all of them has the product exchange graph 2 x 2 x 2
    eng = ThetaEngine(B_D4T)
    assert [t.size for t in eng.tubes] == [2, 2, 2]
    jset = [TubeRoot(o, 0, 1) for o in range(3)]
    seed, labels = build_tube_seed(eng.tubes, jset)
    assert seed.b == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert seed.d == (2, 2, 2)
    graph = enumerate_exchange_graph(eng.tubes, seed, labels)
    assert len(graph.vertices) == 8
    assert t_o_check(eng, graph) == 3


def test_three_tube_exchange_identities():
    eng = ThetaEngine(B_D4T)
    for tube in eng.tubes:
        eng.imaginary_exchange(tube.index, 0, 1)
    # kernel generators: all three orbit products map to y^delta
    zkeys = build_tube_seed(eng.tubes, [r for tube in eng.tubes for r in fan(tube)])[0].zkeys
    images = []
    for tube in eng.tubes:
        m = zm(zkeys, **{f"z{tube.index}_{t}": 1 for t in range(tube.size)})
        images.append(t_o_image(eng, zkeys, m))
    assert len(images) == 3
    assert all(eng.same([p], [(1, eng.data.delta, None)]) for p in images)


@pytest.mark.parametrize("b, match", [(B_A3T, "share a cluster"), (B_A4T, "re-reached seed")])
def test_a_mutation_that_keeps_its_cluster_is_caught(b, match, monkeypatch):
    # the mutant keeps its g-vectors, and its coefficients, degrees and
    # matrix are right, so only the cluster checks can see it; on a3t every
    # re-reached seed has its labels in the stored order, so the injectivity
    # check is the one that fires
    from affcluster import gca

    real = gca.gca_mutate
    monkeypatch.setattr(gca, "gca_mutate", lambda s, k: real(s, k)._replace(g=s.g))
    eng = ThetaEngine(b)
    seed, labels = build_tube_seed(eng.tubes, fan(eng.tubes[0]))
    with pytest.raises(AssertionError, match=match):
        enumerate_exchange_graph(eng.tubes, seed, labels)


def test_a_mutation_with_a_negated_new_g_vector_is_caught(monkeypatch):
    # the mutant's new g-vector is wrong but new to the graph, so the
    # injectivity check cannot see it; the re-reached comparison does
    from affcluster import gca

    real = gca.gca_mutate

    def negated(s, k):
        out = real(s, k)
        return out._replace(g=out.g[:k] + (tuple(-v for v in out.g[k]),) + out.g[k + 1 :])

    monkeypatch.setattr(gca, "gca_mutate", negated)
    eng = ThetaEngine(B_A4T)
    seed, labels = build_tube_seed(eng.tubes, fan(eng.tubes[0]))
    with pytest.raises(AssertionError, match="re-reached seed"):
        enumerate_exchange_graph(eng.tubes, seed, labels)


def _differential_cases():
    # every tube of the fixtures, the d4t block seed over its three tubes,
    # A(p,1) for p = 2..6, D5 and E7
    cases = [(name, cli.load_matrix(name).top()) for name in sorted(cli.BUNDLED)]
    cases += [(f"A({p},1)", _cycle(p)) for p in range(2, 7)]
    cases += [(name, AFFINE_TYPES[name][0]) for name in ("D5", "E7")]
    for name, b in cases:
        tubes = detect_tubes(build_affine_data(b))
        for tube in tubes:
            yield f"{name} tube {tube.index}", tubes, fan(tube)
        if name == "d4t":
            yield "d4t block", tubes, [r for tube in tubes for r in fan(tube)]


def test_integer_graph_matches_the_laurent_graph():
    # the Laurent route checks clusters of Laurent polynomials where the
    # engine checks g-vectors; both accept the same graph, and across it
    # each arc has one g-vector and one cluster variable, injectively
    for case, tubes, jset in _differential_cases():
        seed, labels = build_tube_seed(tubes, jset)
        graph = enumerate_exchange_graph(tubes, seed, labels)
        laurent, clusters = laurent_exchange_graph(tubes, seed, labels)
        assert graph == laurent, case
        g_of, x_of = {}, {}
        for vertex, labs, x in zip(graph.vertices, graph.labels, clusters):
            for arc, g, var in zip(labs, vertex.g, x):
                assert g_of.setdefault(arc, g) == g, case
                assert x_of.setdefault(arc, var) == var, case
        assert len(set(g_of.values())) == len(g_of) == len(set(x_of.values())), case


def test_each_edge_is_mutated_once_and_each_seed_built_once(monkeypatch):
    from affcluster import gca

    calls = Counter()

    def counted(name):
        real = getattr(gca, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(gca, name, wrapper)

    for name in ("gca_mutate", "build_tube_seed", "check_maximal", "exchange_partner"):
        counted(name)
    # the a4t fan, and the d4t block seed over its three size-2 tubes; each
    # vertex's arc set is checked once per tube, and once more where it is built
    for b, expected in [(B_A4T, (20, 30, 20, 20 + 20)), (B_D4T, (8, 12, 8, 24 + 24))]:
        calls.clear()
        eng = ThetaEngine(b)
        jset = [r for tube in eng.tubes for r in fan(tube)]
        graph = enumerate_exchange_graph(eng.tubes, *gca.build_tube_seed(eng.tubes, jset))
        counts = (calls["gca_mutate"], calls["build_tube_seed"], calls["check_maximal"])
        assert (len(graph.vertices), *counts) == expected
    # t_o_check reads each exchange partner off the graph's edges
    calls.clear()
    assert t_o_check(eng, graph) == 3
    assert calls["check_maximal"] == calls["exchange_partner"] == 0
