"""Theta functions: closed forms, recursions, exchange relations, expansion."""

import itertools

import pytest

from affcluster import cli, gca
from affcluster.affine import (
    NotInImaginaryWall,
    TubeRoot,
    all_arcs,
    cluster_expansion_imaginary,
    maximal_compatible_sets,
    tube_root_vector,
)
from affcluster.poly import LaurentPoly, substitute
from affcluster.seeds import (
    RootVec,
    WeightVec,
    initial_seed,
    mutate_rows,
    mutation_map_eta,
    tropical_monomial,
)
from affcluster.theta import PEEL_BUDGET, ThetaEngine
from reference import (
    denominator_vector_of,
    dominance_chain,
    pair_weight_root,
    rewrite_in_mutated_variables,
    weight_in_imaginary_wall,
)

B_KRON = ((0, 2), (-2, 0))
B_41 = ((0, 4), (-1, 0))
B_14 = ((0, 1), (-4, 0))
B_A2T = ((0, 1, 1), (-1, 0, 1), (-1, -1, 0))
B_A3T = ((0, 1, 0, 1), (-1, 0, 1, 0), (0, -1, 0, 1), (-1, 0, -1, 0))
B_C2T = ((0, 1, 0), (-2, 0, 2), (0, -1, 0))

RANK2_VALUES = {
    # exponent order: x1 x2 u1 u2
    B_KRON: {(-1, 1, 0, 0): 1, (-1, -1, 1, 0): 1, (1, -1, 1, 1): 1},
    B_41: {(-2, 1, 0, 0): 1, (-2, 0, 1, 0): 2, (-2, -1, 2, 0): 1, (2, -1, 2, 1): 1},
    B_14: {(-1, 2, 0, 0): 1, (-1, -2, 1, 0): 1, (0, -2, 1, 1): 2, (1, -2, 1, 2): 1},
}


def swap_exponents(terms):
    return {(e[1], e[0], e[3], e[2]): c for e, c in terms.items()}


def test_theta_delta_rank2_closed_forms():
    for b, terms in RANK2_VALUES.items():
        eng = ThetaEngine(b)
        assert eng.theta_delta().poly == LaurentPoly(eng.ctx, terms)


def test_theta_delta_rank2_transposes():
    for b, terms in RANK2_VALUES.items():
        swapped = ((0, b[1][0]), (b[0][1], 0))
        eng = ThetaEngine(swapped)
        assert eng.theta_delta().poly == LaurentPoly(eng.ctx, swap_exponents(terms))


def test_theta_delta_choice_independent():
    for b in [B_A2T, B_A3T, B_C2T]:
        eng = ThetaEngine(b)
        base = None
        for tube in eng.tubes:
            for pos in range(tube.size):
                theta = eng.theta_delta_from(tube.index, pos)
                assert theta.label == eng.data.nu_c(eng.data.delta)
                if base is None:
                    base = theta.poly
                else:
                    assert theta.poly == base


def test_theta_tube_root_labels_and_denominators():
    for b in [B_A2T, B_A3T]:
        eng = ThetaEngine(b)
        for tube in eng.tubes:
            for r in all_arcs(tube):
                vec = tube_root_vector(tube, r)
                theta = eng.theta_tube_root(r)
                assert theta.label == eng.data.nu_c(vec)
                # labels pair to zero with delta
                assert pair_weight_root(eng.data, theta.label, eng.data.delta) == 0
                # Cor: denominator vector equals the root itself
                assert denominator_vector_of(theta.poly) == vec


def test_theta_k_delta_square_identity():
    for b in [B_KRON, B_41, B_14, B_A2T]:
        eng = ThetaEngine(b)
        for k in (1, 2):
            sq = eng.theta_k_delta(k).poly * eng.theta_k_delta(k).poly
            rhs = eng.theta_k_delta(2 * k).poly + tropical_monomial(
                eng.ctx, eng.data.delta.scale(k).coords, 2
            )
            assert sq == rhs


def test_theta_k_delta_product_identity():
    for b in [B_KRON, B_A2T]:
        eng = ThetaEngine(b)
        for k in range(2, 5):
            for l in range(1, k):
                lhs = eng.theta_k_delta(k).poly * eng.theta_k_delta(l).poly
                tail = eng.theta_k_delta(k - l).poly if k > l else eng.one()
                rhs = eng.theta_k_delta(k + l).poly + tropical_monomial(
                    eng.ctx, eng.data.delta.scale(l).coords
                ) * tail
                assert lhs == rhs


def test_chebyshev_specialization():
    # with all tropical variables at 1, theta_{k delta} becomes T_k(theta_delta)
    # for T_0 = 2, T_1 = x, T_k = x T_{k-1} - T_{k-2}
    eng = ThetaEngine(B_KRON)
    ones = {eng.n + i: eng.one() for i in range(eng.n)}
    t1 = substitute(eng.theta_delta().poly, ones)
    two = LaurentPoly.const(eng.ctx, 2)
    cheb = [two, t1]
    for k in range(2, 5):
        cheb.append(t1 * cheb[-1] - cheb[-2])
    for k in range(1, 5):
        assert substitute(eng.theta_k_delta(k).poly, ones) == cheb[k]


def test_theta_imaginary_pointed_and_split():
    eng = ThetaEngine(B_A3T)
    tube = eng.tubes[0]
    gamma = TubeRoot(0, 0, 1)
    phi = eng.data.delta + tube_root_vector(tube, gamma)
    theta = eng.theta_imaginary(phi)
    assert theta.label == eng.data.nu_c(phi)
    assert theta.poly == eng.theta_delta().poly * eng.theta_tube_root(gamma).poly
    with pytest.raises(NotInImaginaryWall):
        eng.theta_imaginary(RootVec((1, 0, 0, 0)))


def test_pointed_form_matches_laurent_products():
    # theta_delta by the boundary identity, theta_2delta by the recursion and
    # thetas over compatible expansions, each rebuilt with LaurentPoly
    # arithmetic from the cluster variables of the g-vector search
    for name in cli.BUNDLED:
        eng = ThetaEngine(cli.load_matrix(name).top())
        if not eng.tubes:
            continue
        tube, one = eng.tubes[0], eng.one()
        k = tube.size

        def y(beta, coeff=1):
            return tropical_monomial(eng.ctx, beta.coords, coeff)

        def arc(start, length):
            if length == 0:
                return one
            return eng.theta_tube_root(TubeRoot(tube.index, start % k, length)).poly

        t1 = (
            arc(0, 1) * arc(1, k - 1)
            - y(tube.orbit[0]) * arc(1, k - 2)
            - y(tube.orbit[1 % k]) * arc(2, k - 2)
        )
        ray = [one, t1, t1 * t1 - y(eng.data.delta, 2)]
        assert eng.theta_k_delta(1).poly == t1
        assert eng.theta_k_delta(2).poly == ray[2]
        for r in all_arcs(tube):
            if r.length > 1:
                continue
            for phi in (
                tube_root_vector(tube, r).scale(2),
                eng.data.delta + tube_root_vector(tube, r),
                eng.data.delta.scale(2) + tube_root_vector(tube, r),
            ):
                m_delta, arcs = cluster_expansion_imaginary(eng.data, eng.tubes, phi)
                want = ray[m_delta]
                for s, mult in arcs.items():
                    want = want * eng.theta_tube_root(s).poly ** mult
                assert eng.theta_imaginary(phi).poly == want


def test_identity_checks_multiply_no_laurent_polynomials(monkeypatch):
    # every identity family and the t_o substitution check run in pointed
    # form once the thetas they read are cached; the seed replay behind those
    # caches multiplies LaurentPolys (the tube graphs are integer throughout)
    eng = ThetaEngine(B_A3T)
    families = ["cheby", "imexch", "realexch", "expansion", "tube-closure"]
    graphs = [cli._tube_graph(eng, tube) for tube in eng.tubes]

    def run_all():
        for name in families:
            assert cli.run_identity(eng, name, kmax=4) == []
        for graph in graphs:
            assert gca.t_o_check(eng, graph) > 0

    run_all()
    calls = []
    mul, power = LaurentPoly.__mul__, LaurentPoly.__pow__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append("mul") or mul(a, b))
    monkeypatch.setattr(LaurentPoly, "__pow__", lambda a, k: calls.append("pow") or power(a, k))
    run_all()
    assert not calls


def _reference_poly_sum(eng, terms):
    """sum c y^gamma theta as a LaurentPoly, built term by term."""
    out = LaurentPoly.zero(eng.ctx)
    for c, gamma, theta in terms:
        piece = tropical_monomial(eng.ctx, (0,) * eng.n if gamma is None else gamma.coords, c)
        out = out + (piece if theta is None else piece * theta.poly)
    return out


def _reference_expand_product(eng, a, b):
    """Greedy peeling of theta_a * theta_b on LaurentPolys: the x-coefficient
    of each peeled label is read off the full product."""
    n = eng.n

    def x_coefficient(p, kappa):
        return LaurentPoly(
            eng.ctx, {(0,) * n + e[n:]: c for e, c in p.terms.items() if e[:n] == kappa.coords}
        )

    remainder = a.poly * b.poly
    combo = {}

    def peel(kappa):
        nonlocal remainder
        coeff = x_coefficient(remainder, kappa)
        if not coeff:
            return
        remainder = remainder - coeff * eng.theta_by_label(kappa).poly
        combo[kappa] = combo.get(kappa, LaurentPoly.zero(eng.ctx)) + coeff

    for kappa in dominance_chain(eng, a.label + b.label):
        if not remainder:
            break
        peel(kappa)
    budget = PEEL_BUDGET
    while remainder:
        assert budget > 0
        budget -= 1
        best = min(remainder.terms, key=lambda e: (sum(e[n:]), tuple(-x for x in e[:n])))
        peel(WeightVec(best[:n]))
    return {k: v for k, v in combo.items() if v}


def _tube_fixture_engines():
    for name in cli.BUNDLED:
        eng = ThetaEngine(cli.load_matrix(name).top())
        if eng.tubes:
            yield name, eng


def _assert_collected_has_no_zero(collected):
    # gca.t_o_check reads an empty collected difference as a proved identity
    assert all(collected.values()), "an empty label map"
    assert all(all(f.values()) for f in collected.values()), "a zero coefficient"


def test_same_and_collect_edge_cases():
    eng = ThetaEngine(cli.load_matrix("a3t").top())
    tube = eng.tubes[0]
    a, b = (eng.theta_tube_root(r) for r in all_arcs(tube)[:2])
    assert a.label != b.label
    delta, root = eng.data.delta, tube.orbit[0]
    cases = [
        # zero coefficients
        ([(0, None, a)], [], True),
        ([(0, delta, a), (1, None, b)], [(1, None, b), (0, None, None)], True),
        # a side whose terms cancel, against an empty side and against zero terms
        ([(2, root, a), (1, None, b), (-2, root, a), (-1, None, b)], [], True),
        ([(1, None, None), (-1, None, None)], [(0, delta, b)], True),
        # a label present on one side only
        ([(1, None, a)], [(1, None, b)], False),
        ([(1, None, a), (1, None, b)], [(1, None, a)], False),
        ([(1, None, a)], [], False),
        # the same label reached through a shift on one side only
        ([(3, root, a), (1, None, b)], [(1, None, b), (1, root, a), (2, root, a)], True),
    ]
    for lhs, rhs, want in cases:
        assert eng.same(lhs, rhs) == want == eng.same(rhs, lhs), (lhs, rhs)
        assert (_reference_poly_sum(eng, lhs) == _reference_poly_sum(eng, rhs)) == want
        for terms in (lhs, rhs, lhs + [(-c, g, t) for c, g, t in rhs]):
            _assert_collected_has_no_zero(eng._collect(terms))
    assert eng._collect([(0, None, a)]) == eng._collect([]) == {}
    collected = eng._collect([(1, None, a)])
    assert collected == {a.label.coords: a.f} and collected[a.label.coords] is not a.f


def test_same_matches_laurent_sums(rng):
    # random sums of c y^gamma theta over thetas at many labels, against
    # LaurentPoly equality; rhs is lhs regrouped (equal), perturbed in one
    # coefficient (different), an exact theta-basis expansion of a product
    # (equal across labels) or unrelated (almost always different)
    outcomes = set()
    for name, eng in _tube_fixture_engines():
        tube = eng.tubes[0]
        arcs = [eng.theta_tube_root(r) for r in all_arcs(tube) if r.length <= 2]
        pool = arcs + [eng.theta_k_delta(1), None]
        pool += [eng.multiply(rng.choice(arcs), rng.choice(arcs)) for _ in range(3)]
        shifts = [None, eng.data.delta] + [root for t in eng.tubes for root in t.orbit]

        def term():
            return (rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice(shifts), rng.choice(pool))

        for trial in range(24):
            lhs = [term() for _ in range(rng.randint(1, 6))]
            kind = trial % 4
            if kind == 0:
                rhs = []
                for c, gamma, theta in lhs:
                    part = rng.randint(-4, 4)
                    rhs += [(part, gamma, theta), (c - part, gamma, theta)]
                rhs.append((5, None, None))
                lhs = lhs + [(2, None, None), (3, None, None)]
                rng.shuffle(rhs)
            elif kind == 1:
                rhs = list(lhs)
                c, gamma, theta = rhs[0]
                rhs[0] = (c + 1, gamma, theta)
            elif kind == 2:
                a, b = rng.choice(arcs), rng.choice(arcs)
                lhs = [(1, None, eng.multiply(a, b))]
                rhs = [
                    (c, RootVec(e[eng.n:]), eng.theta_by_label(kappa))
                    for kappa, coeff in eng.expand_product(a, b).items()
                    for e, c in coeff.terms.items()
                ]
            else:
                rhs = [term() for _ in range(rng.randint(1, 6))]
            want = _reference_poly_sum(eng, lhs) == _reference_poly_sum(eng, rhs)
            assert eng.same(lhs, rhs) == want, (name, kind)
            difference = lhs + [(-c, gamma, theta) for c, gamma, theta in rhs]
            for collected in map(eng._collect, (lhs, rhs, difference)):
                _assert_collected_has_no_zero(collected)
            assert (not eng._collect(difference)) == want, (name, kind)
            labels = {t.label for _, _, t in lhs + rhs if t is not None}
            outcomes.add((kind, want, len(labels) > 1))
    assert {(0, True, True), (1, False, True), (2, True, True), (3, False, True)} <= outcomes


def test_expand_product_matches_laurent_peeling():
    # the expansion and tube-closure pairs of every bundled tube fixture
    for name, eng in _tube_fixture_engines():
        pairs = []
        for tube in eng.tubes:
            for r in all_arcs(tube):
                pairs += [(eng.theta_tube_root(r), eng.theta_k_delta(md)) for md in (1, 2)]
            gens = [eng.theta_tube_root(r) for r in all_arcs(tube) if r.length <= 2]
            pairs += itertools.product(gens, gens)
        for a, b in pairs:
            got = eng.expand_product(a, b)
            want = _reference_expand_product(eng, a, b)
            assert list(got.items()) == list(want.items()), (name, a.label, b.label)


def test_theta_by_label_zero_is_one():
    eng = ThetaEngine(B_KRON)
    assert eng.theta_by_label(WeightVec((0, 0))).poly == eng.one()


def test_expand_product_imag_general():
    for b in [B_KRON, B_41, B_14, B_A2T]:
        eng = ThetaEngine(b)
        nu = eng.data.nu_c(eng.data.delta)
        for k in range(1, 5):
            for l in range(1, k + 1):
                combo = eng.expand_product(eng.theta_k_delta(k), eng.theta_k_delta(l))
                if k == l:
                    assert set(combo) == {nu.scale(2 * k), WeightVec((0,) * eng.n)}
                    assert combo[WeightVec((0,) * eng.n)] == tropical_monomial(
                        eng.ctx, eng.data.delta.scale(k).coords, 2
                    )
                else:
                    assert set(combo) == {nu.scale(k + l), nu.scale(k - l)}
                    assert combo[nu.scale(k - l)] == tropical_monomial(
                        eng.ctx, eng.data.delta.scale(l).coords
                    )
                assert combo[nu.scale(k + l)] == eng.one()


def test_expand_product_boundary_with_delta():
    # theta_p * theta_{k nu(delta)} = theta_{p + k nu(delta)} for boundary p
    for b in [B_A2T, B_A3T]:
        eng = ThetaEngine(b)
        tube = eng.tubes[0]
        for r in all_arcs(tube)[:4]:
            t_arc = eng.theta_tube_root(r)
            for k in (1, 2):
                combo = eng.expand_product(t_arc, eng.theta_k_delta(k))
                lab = t_arc.label + eng.data.nu_c(eng.data.delta).scale(k)
                assert combo == {lab: eng.one()}


def test_expand_product_support_on_dominance_chain():
    # products of thetas lying in a common imaginary cone (compatible arcs,
    # possibly with delta) expand along {lam - 2a nu(delta)}
    from affcluster.affine import cluster_expansion_imaginary, compatible

    eng = ThetaEngine(B_A3T)
    tube = eng.tubes[0]
    gens = [eng.theta_tube_root(r) for r in all_arcs(tube) if r.length <= 2]
    gens += [eng.theta_k_delta(1), eng.theta_k_delta(2)]
    checked = 0
    for a, b in itertools.combinations_with_replacement(gens, 2):
        _, arcs_a = cluster_expansion_imaginary(eng.data, eng.tubes, eng.data.nu_c_inv(a.label))
        _, arcs_b = cluster_expansion_imaginary(eng.data, eng.tubes, eng.data.nu_c_inv(b.label))
        if not all(
            compatible(eng.tubes, r1, r2) for r1 in arcs_a for r2 in arcs_b
        ):
            continue
        combo = eng.expand_product(a, b)
        chain = dominance_chain(eng, a.label + b.label)
        assert set(combo) <= set(chain)
        checked += 1
    assert checked > 10


def test_expand_product_closure_in_wall():
    # closure: any product of d_infinity thetas expands inside d_infinity
    eng = ThetaEngine(B_A3T)
    tube = eng.tubes[0]
    gens = [eng.theta_tube_root(r) for r in all_arcs(tube)]
    gens.append(eng.theta_k_delta(1))
    for a, b in itertools.combinations(gens, 2):
        combo = eng.expand_product(a, b)
        total = LaurentPoly.zero(eng.ctx)
        for label, coeff in combo.items():
            assert weight_in_imaginary_wall(eng.data, eng.tubes, label)
            total = total + coeff * eng.theta_by_label(label).poly
        assert total == a.poly * b.poly  # exact reconstruction


def test_imaginary_exchange_all_tubes():
    for b in [B_A2T, B_A3T, B_C2T]:
        eng = ThetaEngine(b)
        for tube in eng.tubes:
            for i in range(tube.size):
                for j in range(tube.size):
                    if i != j:
                        rec = eng.imaginary_exchange(tube.index, i, j)
                        assert rec["vacuous"] == (tube.size == 2)


def test_imaginary_exchange_size2_reduces_to_three_terms():
    eng = ThetaEngine(B_A2T)
    tube = eng.tubes[0]
    lhs = (
        eng.theta_tube_root(TubeRoot(0, 1, 1)).poly
        * eng.theta_tube_root(TubeRoot(0, 0, 1)).poly
    )
    rhs = (
        eng.theta_delta().poly
        + tropical_monomial(eng.ctx, tube.orbit[0].coords)
        + tropical_monomial(eng.ctx, tube.orbit[1].coords)
    )
    assert lhs == rhs


def test_real_exchange_all_nonmaximal():
    for b in [B_A3T, ((0, 1, 0, 0, 1), (-1, 0, 1, 0, 0), (0, -1, 0, 1, 0), (0, 0, -1, 0, 1), (-1, 0, 0, -1, 0))]:
        eng = ThetaEngine(b)
        for tube in eng.tubes:
            for jset in maximal_compatible_sets(tube):
                for gamma in jset:
                    if gamma.length == tube.size - 1:
                        continue
                    eng.real_exchange(tube.index, jset, gamma)


def test_identities_survive_coefficient_specialization():
    # substituting u -> 1 keeps a verified identity valid
    eng = ThetaEngine(B_A2T)
    tube = eng.tubes[0]
    lhs = (
        eng.theta_tube_root(TubeRoot(0, 0, 1)).poly
        * eng.theta_tube_root(TubeRoot(0, 1, 1)).poly
    )
    rhs = (
        eng.theta_delta().poly
        + tropical_monomial(eng.ctx, tube.orbit[0].coords)
        + tropical_monomial(eng.ctx, tube.orbit[1].coords)
    )
    assert eng.specialize_coefficient_free(lhs) == eng.specialize_coefficient_free(rhs)


def test_nonnegative_coefficients_everywhere():
    for b in [B_KRON, B_A2T, B_A3T]:
        eng = ThetaEngine(b)
        thetas = [eng.theta_k_delta(k) for k in (1, 2, 3)]
        for tube in eng.tubes:
            thetas += [eng.theta_tube_root(r) for r in all_arcs(tube)]
        for theta in thetas:
            assert all(c > 0 for c in theta.poly.terms.values())


def test_theta_k_delta_rejects_nonpositive():
    eng = ThetaEngine(B_KRON)
    with pytest.raises(ValueError):
        eng.theta_k_delta(0)


def test_theta_gfan_not_found():
    from affcluster.seeds import NotFound

    eng = ThetaEngine(B_KRON)
    with pytest.raises(NotFound):
        eng.theta_gfan(WeightVec((-1, 1)))  # the imaginary ray is not a g-vector


def test_theta_imaginary_runs_once_per_label(monkeypatch):
    # every identity family reads imaginary-wall thetas from the store, so
    # each compatible-expansion product is built once per engine
    calls = []
    theta_imaginary = ThetaEngine.theta_imaginary

    def counted(self, phi):
        calls.append(phi.coords)
        return theta_imaginary(self, phi)

    monkeypatch.setattr(ThetaEngine, "theta_imaginary", counted)
    eng = ThetaEngine(cli.load_matrix("a4t").top())
    for name in cli.IDENTITIES:
        assert cli.run_identity(eng, name, kmax=4) == [], name
    assert calls
    assert len(calls) == len(set(calls))


def test_theta_store_holds_only_the_imaginary_wall():
    from affcluster.seeds import NotFound

    eng = ThetaEngine(B_A2T)
    nu_delta = eng.data.nu_c(eng.data.delta)
    assert eng.theta_by_label(nu_delta) is eng.theta_delta()
    with pytest.raises(NotFound):
        eng.theta_gfan(nu_delta)  # the imaginary ray is still no g-vector
    # x1 is a cluster variable off the wall: theta_gfan builds it, and the
    # store does not take it in
    label = WeightVec((1, 0, 0))
    assert eng.theta_gfan(label).poly == LaurentPoly.var(eng.ctx, 0)
    with pytest.raises(NotInImaginaryWall):
        eng.theta_by_label(label)


def test_expand_product_aborts_loudly_on_non_theta_input():
    from affcluster.theta import IdentityViolated, ThetaFunction

    eng = ThetaEngine(B_KRON)
    # an F-polynomial with a term u^beta, beta not in N^n: not pointed
    bad = ThetaFunction(
        eng.data.nu_c(eng.data.delta),
        {**eng.theta_delta().f, (-1, 0): 1},
        eng.grading,
    )
    with pytest.raises(IdentityViolated):
        eng.expand_product(bad, eng.theta_delta())


def test_expand_product_rejects_a_nonpositive_structure_constant():
    # theta_2delta - y^delta is pointed at 2 nu(delta) but is no theta
    # function.  On the Kronecker quiver B delta = -2 nu(delta), so it peels
    # to theta_2delta minus y^delta theta_0: a structure constant with a
    # negative coefficient, which theta-basis positivity rules out.
    from affcluster.theta import IdentityViolated, ThetaFunction

    eng = ThetaEngine(B_KRON)
    delta = eng.data.delta.coords
    two = eng.theta_k_delta(2)
    one = eng.theta_by_label(WeightVec((0, 0)))
    assert eng.data.b_weight(eng.data.delta) == -eng.data.nu_c(eng.data.delta).scale(2)
    assert eng.expand_product(one, two) == {two.label: eng.one()}
    f = dict(two.f)
    f[delta] = f.get(delta, 0) - 1
    synthetic = ThetaFunction(two.label, {beta: c for beta, c in f.items() if c}, eng.grading)
    with pytest.raises(IdentityViolated, match="nonpositive coefficient"):
        eng.expand_product(one, synthetic)


def test_theta_from_sum_checks_the_label():
    from affcluster.theta import IdentityViolated

    eng = ThetaEngine(B_A2T)
    t1 = eng.theta_delta()
    with pytest.raises(IdentityViolated):
        eng._theta_from_sum(t1.label.scale(2), [(1, None, t1)])
    # theta_delta + 1 sits at two labels
    with pytest.raises(IdentityViolated):
        eng._theta_from_sum(t1.label, [(1, None, t1), (1, None, None)])


def test_expand_product_budget_exhaustion_is_loud(monkeypatch):
    from affcluster.theta import IdentityViolated

    monkeypatch.setattr("affcluster.theta.PEEL_BUDGET", 0)
    eng = ThetaEngine(B_A3T)
    a = eng.theta_tube_root(TubeRoot(0, 1, 1))
    b = eng.theta_tube_root(TubeRoot(0, 2, 1))
    with pytest.raises(IdentityViolated, match="budget"):
        eng.expand_product(a, b)


B_E6T = (
    (0, 1, 0, 0, 0, 0, 0),
    (-1, 0, 1, 0, 0, 0, 0),
    (0, -1, 0, 1, 0, 1, 0),
    (0, 0, -1, 0, 1, 0, 0),
    (0, 0, 0, -1, 0, 0, 0),
    (0, 0, -1, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, -1, 0),
)


def test_affine_e6_cross_tube_consistency():
    # rank 7, tubes of sizes 2, 3, 3: theta_delta built from simples of
    # different tubes must coincide, and the exchange identities must hold
    eng = ThetaEngine(B_E6T)
    assert [t.size for t in eng.tubes] == [2, 3, 3]
    base = eng.theta_delta().poly
    assert eng.theta_delta_from(1, 0).poly == base
    assert eng.theta_delta_from(2, 1).poly == base
    eng.imaginary_exchange(0, 0, 1)
    eng.imaginary_exchange(1, 0, 2)
    eng.imaginary_exchange(2, 1, 2)


def test_imaginary_thetas_are_mutation_invariant():
    # theta functions do not depend on the seed (GHKK): mutating at a sink
    # or source k and rewriting theta_lam in the new cluster variables gives,
    # coefficient-free, the mutated engine's theta at eta_k(lam), for
    # theta_delta, theta_2delta, theta_3delta and theta_{delta+arc} for every arc
    cases = 0
    for name in ("a2t", "a3t", "a3t22", "a4t", "c2t", "d4t"):
        eng = ThetaEngine(cli.load_matrix(name).top())
        b = eng.data.b
        nu_delta = eng.data.nu_c(eng.data.delta)
        labels = [nu_delta, nu_delta.scale(2), nu_delta.scale(3)]
        for tube in eng.tubes:
            arcs = [tube_root_vector(tube, r) for r in all_arcs(tube)]
            labels += [nu_delta + eng.data.nu_c(arc) for arc in arcs]
        seed = initial_seed(eng.matrix, eng.ctx)
        for k in range(eng.n):
            if min(b[k]) < 0 < max(b[k]):
                continue  # neither a sink nor a source
            mutated = ThetaEngine(mutate_rows(b, k))
            for lam in labels:
                moved = rewrite_in_mutated_variables(seed, k, eng.theta_by_label(lam).poly, lam)
                target = mutated.theta_by_label(mutation_map_eta(b, [k], lam)).poly
                want = mutated.specialize_coefficient_free(target)
                assert eng.specialize_coefficient_free(moved) == want, (name, k, lam)
                cases += 1
    assert cases == 127
