"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS line (visible with pytest -s); pytest failure
is the only failure channel.  Runtime limits are asserted where the criteria
state them.
"""

import itertools
import time

from affcluster.affine import (
    all_arcs,
    cluster_expansion_imaginary,
    compatible,
    maximal_compatible_sets,
)
from affcluster.gca import build_tube_seed, enumerate_exchange_graph, t_o_check
from affcluster.poly import LaurentPoly
from affcluster.scatter2 import complete_scattering_rank2, theta_via_broken_lines
from affcluster.seeds import (
    WeightVec,
    initial_seed,
    mutate_rows,
    mutate_seed,
    mutate_seed_word,
    mutation_map_eta,
    principal_extension,
    tropical_monomial,
)
from affcluster.theta import ThetaEngine
from reference import denominator_vector_of, dominance_chain, truncate, weight_in_imaginary_wall

B_KRON = ((0, 2), (-2, 0))
B_41 = ((0, 4), (-1, 0))
B_14 = ((0, 1), (-4, 0))
RANK2 = [B_KRON, B_41, B_14]
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
B_D4T = (
    (0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1),
    (-1, -1, -1, -1, 0),
)
ALL_FIXTURES = RANK2 + [B_A2T, B_A3T, B_A3T22, B_A4T, B_C2T, B_D4T]

# the three rank-2 closed forms, exponent order x1 x2 u1 u2
RANK2_CLOSED_FORMS = {
    B_KRON: {(-1, 1, 0, 0): 1, (-1, -1, 1, 0): 1, (1, -1, 1, 1): 1},
    B_41: {(-2, 1, 0, 0): 1, (-2, 0, 1, 0): 2, (-2, -1, 2, 0): 1, (2, -1, 2, 1): 1},
    B_14: {(-1, 2, 0, 0): 1, (-1, -2, 1, 0): 1, (0, -2, 1, 1): 2, (1, -2, 1, 2): 1},
}


def test_criterion_1_rank2_closed_forms_exact():
    start = time.time()
    for b, terms in RANK2_CLOSED_FORMS.items():
        eng = ThetaEngine(b)
        assert eng.theta_delta().poly == LaurentPoly(eng.ctx, terms)
        swapped = ((0, b[1][0]), (b[0][1], 0))
        eng2 = ThetaEngine(swapped)
        want = {(e[1], e[0], e[3], e[2]): c for e, c in terms.items()}
        assert eng2.theta_delta().poly == LaurentPoly(eng2.ctx, want)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: rank-2 closed forms exact ({elapsed:.2f}s < 1s)")


def test_criterion_2_broken_line_oracle_agreement():
    start = time.time()
    for b in RANK2:
        diagram = complete_scattering_rank2(b, order=8)
        eng = ThetaEngine(b)
        nu = eng.data.nu_c(eng.data.delta)
        assert theta_via_broken_lines(diagram, nu) == truncate(
            diagram, eng.theta_delta().poly
        )
        for k in range(1, 5):
            got = theta_via_broken_lines(diagram, nu.scale(k))
            assert got == truncate(diagram, eng.theta_k_delta(k).poly)
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 PASS: broken-line oracle agrees at order 8 ({elapsed:.2f}s < 60s)")


def test_criterion_3_imaginary_ray_products():
    start = time.time()
    for b in RANK2 + [B_A2T]:
        eng = ThetaEngine(b)
        for k in range(1, 5):
            sq = eng.theta_k_delta(k).poly * eng.theta_k_delta(k).poly
            assert sq == eng.theta_k_delta(2 * k).poly + tropical_monomial(
                eng.ctx, eng.data.delta.scale(k).coords, 2
            )
            for l in range(1, k):
                lhs = eng.theta_k_delta(k).poly * eng.theta_k_delta(l).poly
                rhs = eng.theta_k_delta(k + l).poly + tropical_monomial(
                    eng.ctx, eng.data.delta.scale(l).coords
                ) * eng.theta_k_delta(k - l).poly
                assert lhs == rhs
    print(f"\nACCEPTANCE 3 PASS: ray product identities exact, 1<=l<k<=4 ({time.time()-start:.2f}s)")


def test_criterion_4_theta_delta_choice_independence():
    start = time.time()
    for b in [B_A2T, B_A3T]:
        eng = ThetaEngine(b)
        nu_delta = eng.data.nu_c(eng.data.delta)
        polys = set()
        count = 0
        for tube in eng.tubes:
            for pos in range(tube.size):
                theta = eng.theta_delta_from(tube.index, pos)
                assert theta.label == nu_delta
                from affcluster.poly import pointed_form

                g, _ = pointed_form(theta.poly)
                assert g == nu_delta.coords
                polys.add(theta.poly.canonical_key())
                count += 1
        assert len(polys) == 1 and count >= 2
    print(f"\nACCEPTANCE 4 PASS: theta_delta independent of the chosen simple ({time.time()-start:.2f}s)")


def test_criterion_5_exchange_relations():
    start = time.time()
    pairs = 0
    for b in [B_A2T, B_A3T, B_C2T]:
        eng = ThetaEngine(b)
        for tube in eng.tubes:
            # imaginary exchange: every distinct pair in the orbit
            for i in range(tube.size):
                for j in range(tube.size):
                    if i != j:
                        eng.imaginary_exchange(tube.index, i, j)
                        pairs += 1
            # real exchange: every non-maximal root of every maximal set
            for jset in maximal_compatible_sets(tube):
                for gamma in jset:
                    if gamma.length < tube.size - 1:
                        eng.real_exchange(tube.index, jset, gamma)
                        pairs += 1
    print(f"\nACCEPTANCE 5 PASS: {pairs} exchange relations exact ({time.time()-start:.2f}s)")


def test_criterion_6_denominator_vectors():
    start = time.time()
    cases = 0
    for b in [B_A2T, B_A3T]:
        eng = ThetaEngine(b)
        tube = eng.tubes[0]
        k = tube.size
        for profile in itertools.product(range(3), repeat=k):
            if profile and min(profile) != 0:
                continue
            for m_delta in range(3):
                phi = eng.data.delta.scale(m_delta)
                for i, q in enumerate(profile):
                    phi = phi + tube.orbit[i].scale(q)
                if not any(phi.coords):
                    continue
                theta = eng.theta_imaginary(phi)
                assert denominator_vector_of(theta.poly) == phi
                cases += 1
    print(f"\nACCEPTANCE 6 PASS: denominator vectors equal phi, {cases} cases ({time.time()-start:.2f}s)")


def test_criterion_7_subalgebra_closure():
    start = time.time()
    products = 0
    for b in [B_A2T, B_A3T, B_A3T22, B_C2T]:
        eng = ThetaEngine(b)
        gens = [eng.theta_k_delta(1), eng.theta_k_delta(2)]
        gen_arcs = {gens[0].label: frozenset(), gens[1].label: frozenset()}
        for tube in eng.tubes:
            for r in all_arcs(tube):
                if r.length <= 2:
                    theta = eng.theta_tube_root(r)
                    gens.append(theta)
                    gen_arcs[theta.label] = frozenset([r])
        for a, bth in itertools.combinations_with_replacement(gens, 2):
            combo = eng.expand_product(a, bth)  # terminates, zero remainder
            # reconstruction is exact
            total = LaurentPoly.zero(eng.ctx)
            for label, coeff in combo.items():
                total = total + coeff * eng.theta_by_label(label).poly
            assert total == a.poly * bth.poly
            # labels always stay in d_infinity
            for label in combo:
                assert weight_in_imaginary_wall(eng.data, eng.tubes, label)
            arcs_a, arcs_b = gen_arcs[a.label], gen_arcs[bth.label]
            if all(compatible(eng.tubes, r1, r2) for r1 in arcs_a for r2 in arcs_b):
                # common imaginary cone: support lies on the dominance chain
                chain = set(dominance_chain(eng, a.label + bth.label))
                assert set(combo) <= chain
            tubes_touched = {r.tube for r in arcs_a | arcs_b}
            if len(tubes_touched) == 1 and arcs_a and arcs_b:
                # tube products stay inside the tube span
                (o,) = tubes_touched
                for label in combo:
                    m_delta, arcs = cluster_expansion_imaginary(
                        eng.data, eng.tubes, eng.data.nu_c_inv(label)
                    )
                    assert all(r.tube == o for r in arcs)
            products += 1
    print(f"\nACCEPTANCE 7 PASS: {products} products closed with exact remainders ({time.time()-start:.2f}s)")


def test_criterion_8_gca_correctness():
    start = time.time()
    sizes = {}
    for b, k in [(B_A2T, 2), (B_A3T, 3), (B_A4T, 4)]:
        eng = ThetaEngine(b)
        tube = eng.tubes[0]
        assert tube.size == k
        jset = sorted(maximal_compatible_sets(tube))[0]
        seed, labels = build_tube_seed(eng.tubes, jset)
        # every mutated seed is compared against its rebuilt form
        graph = enumerate_exchange_graph(eng.tubes, seed, labels)
        brute = len(maximal_compatible_sets(tube))
        assert len(graph.vertices) == brute
        # a zero difference stays zero under z -> 1, a ring map, so one
        # check with coefficients covers the coefficient-free relations
        assert t_o_check(eng, graph) > 0
        sizes[k] = brute
    elapsed = time.time() - start
    assert elapsed < 120.0
    assert sizes == {2: 2, 3: 6, 4: 20}
    print(f"\nACCEPTANCE 8 PASS: GCA graphs {sizes}, relations exact, z->1 by the ring map ({elapsed:.2f}s < 120s)")


def test_criterion_9_property_suites(rng):
    start = time.time()
    # matrix mutation involution on random skew-symmetrizable matrices
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-2, 2)
                rows[i][j] = v
                rows[j][i] = -v
        rows = tuple(tuple(r) for r in rows)
        k = rng.randrange(n)
        assert mutate_rows(mutate_rows(rows, k), k) == rows
    # seed mutation involution on fixtures
    for b in ALL_FIXTURES:
        seed = initial_seed(principal_extension(b))
        for k in range(len(b)):
            assert mutate_seed(mutate_seed(seed, k), k).cluster == seed.cluster

    # mu over the source-to-sink order fixes B for all fixture matrices
    from affcluster.affine import source_to_sink_order

    for b in ALL_FIXTURES:
        rows = b
        for k in reversed(source_to_sink_order(b)):
            rows = mutate_rows(rows, k)
        assert rows == b

    # Laurent phenomenon on 500 random words of length <= 10
    words = 0
    while words < 500:
        b = ALL_FIXTURES[words % len(ALL_FIXTURES)]
        seed = initial_seed(principal_extension(b))
        word = [rng.randrange(len(b)) for _ in range(rng.randint(1, 10))]
        mutate_seed_word(seed, word)  # NotDivisible would raise
        words += 1

    # finite/infinite eta-orbit dichotomy, 50 lattice points per fixture
    for b in ALL_FIXTURES:
        eng = ThetaEngine(b)
        n = len(b)
        word = tuple(reversed(eng.data.order))
        period = 1
        for tube in eng.tubes:
            g = period
            period = period * tube.size // __import__("math").gcd(period, tube.size)
        for _ in range(50):
            v = WeightVec(tuple(rng.randint(-3, 3) for _ in range(n)))
            image = v
            for _ in range(period):
                image = mutation_map_eta(b, word, image)
            finite = image == v
            in_wall = weight_in_imaginary_wall(eng.data, eng.tubes, v)
            assert finite == in_wall, (b, v)
            if not finite:
                # forward iterates eventually grow in norm, period by period
                norms = []
                cur = v
                for _ in range(14):
                    for _ in range(period):
                        cur = mutation_map_eta(b, word, cur)
                    norms.append(max(abs(x) for x in cur.coords))
                tail = norms[7:]
                assert all(x < y for x, y in zip(tail, tail[1:])), (b, v, norms)
    print(f"\nACCEPTANCE 9 PASS: involutions, symmetry, Laurent x500, orbit dichotomy ({time.time()-start:.2f}s)")
