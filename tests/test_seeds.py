"""Matrix and seed mutation, mutation maps, g-vectors, variable search."""

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest

from affcluster import cli, seeds
from affcluster.poly import LaurentPoly, default_context, pointed_form, pointed_split
from affcluster.seeds import (
    ExtendedExchangeMatrix,
    NonSkewSymmetrizable,
    NotFound,
    RootVec,
    WeightVec,
    coroot_scalers,
    enumerate_gvector_frontier,
    g_vector_of,
    initial_seed,
    mutate_rows,
    mutate_seed,
    mutate_seed_word,
    mutation_map_eta,
    principal_extension,
)
from affcluster.theta import ThetaEngine
from reference import (
    clear_tropical,
    denominator_vector_of,
    enumerate_seeds,
    rewrite_in_mutated_variables,
)
from test_affine import AFFINE_TYPES

B_KRON = ((0, 2), (-2, 0))
B_A2T = ((0, 1, 1), (-1, 0, 1), (-1, -1, 0))

FIXTURES = [
    B_KRON,
    ((0, 4), (-1, 0)),
    ((0, 1), (-4, 0)),
    B_A2T,
    ((0, 1, 0, 1), (-1, 0, 1, 0), (0, -1, 0, 1), (-1, 0, -1, 0)),
    ((0, 1, 0), (-2, 0, 2), (0, -1, 0)),
]


def test_mutate_matrix_negates_row_column():
    assert mutate_rows(B_KRON, 0) == ((0, -2), (2, 0))


def test_mutate_matrix_three_by_three():
    got = mutate_rows(B_A2T, 1)
    assert got == ((0, -1, 2), (1, 0, -1), (-2, 1, 0))


def test_mutate_matrix_involution_randomized(rng):
    for _ in range(50):
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


def _pos(x):
    return x if x > 0 else 0


def _mutate_entrywise(rows, k):
    """Reference matrix mutation, one entry at a time."""
    return tuple(
        tuple(
            -row[j]
            if i == k or j == k
            else row[j] + _pos(-row[k]) * rows[k][j] + row[k] * _pos(rows[k][j])
            for j in range(len(row))
        )
        for i, row in enumerate(rows)
    )


@pytest.mark.parametrize("shape", ["tall", "square", "wide"])
def test_mutate_rows_matches_entrywise_formula(rng, shape):
    # any integer matrix: not necessarily skew-symmetrizable, many zeros
    entries = (-3, -2, -1, 0, 0, 0, 0, 1, 2, 3)
    for _ in range(150):
        few, many = sorted((rng.randint(1, 6), rng.randint(1, 6)))
        nrows, ncols = {
            "tall": (many + 1, few),
            "square": (few, few),
            "wide": (few, many + 1),
        }[shape]
        rows = tuple(tuple(rng.choice(entries) for _ in range(ncols)) for _ in range(nrows))
        k = rng.randrange(min(nrows, ncols))
        got = mutate_rows(rows, k)
        assert got == _mutate_entrywise(rows, k)
        assert mutate_rows(tuple(zip(*rows)), k) == tuple(zip(*got))
        assert mutate_rows(got, k) == rows
        for i, row in enumerate(rows):
            if i != k and row[k] == 0:
                assert got[i] is row
        for bad in (-1, min(nrows, ncols)):
            with pytest.raises(IndexError):
                mutate_rows(rows, bad)


def _reference_skew_symmetrizers(b):
    """The Fraction graph walk coroot_scalers replaced: positive d with
    d_i b_ij = -d_j b_ji, normalized so the 1/d_i are integers with
    collective gcd 1."""
    n = len(b)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if b[i][j] == 0 and b[j][i] == 0:
                    continue
                if b[i][j] == 0 or b[j][i] == 0 or (b[i][j] > 0) == (b[j][i] > 0):
                    raise NonSkewSymmetrizable("incompatible sign pattern")
                ratio = Fraction(-b[i][j], b[j][i])
                if d[j] is None:
                    d[j] = d[i] * ratio
                    stack.append(j)
                elif d[j] != d[i] * ratio:
                    raise NonSkewSymmetrizable("inconsistent symmetrizer constraints")
    inv = [Fraction(1) / x for x in d]
    scale = reduce(lcm, (f.denominator for f in inv), 1)
    ints = [f * scale for f in inv]
    g = reduce(gcd, (int(x) for x in ints))
    e = tuple(int(x) // g for x in ints)
    return tuple(Fraction(1, ei) for ei in e)


def test_coroot_scalers():
    assert coroot_scalers(B_KRON) == (1, 1)
    assert coroot_scalers(((0, 4), (-1, 0))) == (4, 1)
    # two components, normalised jointly: d = (1, 1, 6), not (1/6, 1, 6)
    assert coroot_scalers(((0, 0, 0), (0, 0, 6), (0, -1, 0))) == (6, 6, 1)
    assert coroot_scalers(((0, 6, 0), (-1, 0, 0), (0, 0, 0))) == (6, 1, 6)
    with pytest.raises(NonSkewSymmetrizable, match="incompatible sign pattern"):
        coroot_scalers(((0, 1), (1, 0)))
    with pytest.raises(NonSkewSymmetrizable, match="incompatible sign pattern"):
        coroot_scalers(((0, 1), (0, 0)))
    cyclic = ((0, 1, -1), (-1, 0, 2), (1, -1, 0))
    with pytest.raises(NonSkewSymmetrizable, match="inconsistent symmetrizer constraints"):
        coroot_scalers(cyclic)


def test_mutation_preserves_symmetrizers():
    for b in FIXTURES:
        e = coroot_scalers(b)
        rows = b
        for k in [0, 1, 0, 1]:
            rows = mutate_rows(rows, k)
            assert coroot_scalers(rows) == e


def test_mutation_skips_the_symmetrizer_check(monkeypatch):
    # mutate builds its result without re-certifying the symmetrizer, which
    # mutation keeps; the constructor still certifies every other matrix
    seed = initial_seed(principal_extension(B_A2T))
    calls = []
    check = seeds.coroot_scalers
    monkeypatch.setattr(seeds, "coroot_scalers", lambda b: calls.append(b) or check(b))
    mutated = mutate_seed_word(seed, [0, 1, 2, 1, 0, 2])
    assert not calls
    assert coroot_scalers(mutated.matrix.top()) == coroot_scalers(B_A2T)
    assert type(mutated.matrix) is ExtendedExchangeMatrix
    with pytest.raises(NonSkewSymmetrizable):
        ExtendedExchangeMatrix(((0, 1), (1, 0), (1, 0), (0, 1)), 2)
    assert len(calls) == 1


def _random_exchange_matrix(rng, kind):
    """A random n x n matrix: skew-symmetrizable (with a random symmetrizer
    and a random, possibly disconnected, support), or such a matrix with one
    entry broken so that it is not skew-symmetrizable."""
    n = rng.randint(1, 6)
    e = [rng.choice([1, 1, 2, 3, 4, 6, 9]) for _ in range(n)]
    density = {"connected": 0.8, "disconnected": 0.25, "broken": 0.6}[kind]
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                k, g = rng.choice([1, -1, 2, -3]), gcd(e[i], e[j])
                # e_j b_ij = -e_i b_ji
                b[i][j], b[j][i] = k * e[i] // g, -k * e[j] // g
    if kind == "broken" and n > 1:
        i, j = rng.sample(range(n), 2)
        b[i][j] = rng.choice([0, -b[i][j], b[i][j] + 1, 2 * b[i][j] or 1])
    return tuple(map(tuple, b))


def _symmetrizer_outcome(fn, b):
    try:
        return fn(b)
    except NonSkewSymmetrizable as exc:
        return f"NonSkewSymmetrizable: {exc}"


def _components(b):
    """The connected components of the support of b, as index lists."""
    n, seen, out = len(b), set(), []
    for start in range(n):
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if (b[i][j] or b[j][i]) and j not in seen:
                    seen.add(j)
                    stack.append(j)
        out.append(comp)
    return out


def test_coroot_scalers_match_the_fraction_walk(rng):
    outcomes = set()
    for trial in range(1200):
        kind = ("connected", "disconnected", "broken")[trial % 3]
        b = _random_exchange_matrix(rng, kind)
        ref = _symmetrizer_outcome(_reference_skew_symmetrizers, b)
        got = _symmetrizer_outcome(coroot_scalers, b)
        if isinstance(ref, str):
            assert got == ref, b
            outcomes.add(ref)
            continue
        assert got == tuple(int(1 / d) for d in ref), b
        comps = _components(b)
        if len(comps) > 1:
            outcomes.add("several components")
            # normalised jointly: some component alone would scale down
            if any(gcd(*(got[i] for i in comp)) > 1 for comp in comps):
                outcomes.add("joint normalisation")
        if len(set(got)) > 1:
            outcomes.add("unequal scalers")
    assert outcomes == {
        "several components",
        "joint normalisation",
        "unequal scalers",
        "NonSkewSymmetrizable: incompatible sign pattern",
        "NonSkewSymmetrizable: inconsistent symmetrizer constraints",
    }


def test_mutate_seed_principal_kronecker():
    seed = initial_seed(principal_extension(B_KRON))
    s1 = mutate_seed(seed, 0)
    ctx = seed.ctx
    expected = LaurentPoly.monomial(ctx, (-1, 2, 0, 0)) + LaurentPoly.monomial(
        ctx, (-1, 0, 1, 0)
    )
    assert s1.cluster[0] == expected
    assert s1.cluster[1] == seed.cluster[1]


def test_mutate_seed_involution():
    for b in FIXTURES:
        seed = initial_seed(principal_extension(b))
        for k in range(len(b)):
            back = mutate_seed(mutate_seed(seed, k), k)
            assert back.cluster == seed.cluster
            assert back.matrix.rows == seed.matrix.rows


def test_mutate_seed_coefficient_free():
    rows = tuple(tuple(r) for r in B_KRON)
    matrix = ExtendedExchangeMatrix(rows, 2)
    ctx = default_context(2, 0)
    seed = initial_seed(matrix, ctx)
    s1 = mutate_seed(seed, 0)
    expected = LaurentPoly.monomial(ctx, (-1, 2)) + LaurentPoly.monomial(ctx, (-1, 0))
    assert s1.cluster[0] == expected


def test_specialization_commutes_with_mutation():
    # mutating with principal coefficients then setting u -> 1 agrees with
    # coefficient-free mutation
    from affcluster.poly import substitute

    word = [0, 1, 0, 1, 0]
    princ = mutate_seed_word(initial_seed(principal_extension(B_KRON)), word)
    free = mutate_seed_word(
        initial_seed(ExtendedExchangeMatrix(B_KRON, 2), default_context(2, 0)), word
    )
    ctx = princ.ctx
    ones = {2: LaurentPoly.const(ctx, 1), 3: LaurentPoly.const(ctx, 1)}
    for i in range(2):
        spec = substitute(princ.cluster[i], ones)
        target = {e[:2]: c for e, c in free.cluster[i].terms.items()}
        assert {e[:2]: c for e, c in spec.terms.items()} == target


def test_mutation_map_eta_examples():
    assert mutation_map_eta(B_KRON, [0], WeightVec((0, 1))) == WeightVec((0, 1))
    assert mutation_map_eta(B_KRON, [0], WeightVec((1, 1))) == WeightVec((-1, 1))


def test_mutation_map_eta_involution(rng):
    for b in FIXTURES:
        n = len(b)
        for _ in range(10):
            v = WeightVec(tuple(rng.randint(-4, 4) for _ in range(n)))
            k = rng.randrange(n)
            assert mutation_map_eta(b, [k, k], v) == v


def test_mutation_symmetry_source_to_sink():
    # mu_{12...n}(B) = B for acyclic fixtures (sink applied first)
    for b in FIXTURES:
        word = tuple(reversed(range(len(b))))
        rows = b
        for k in word:
            rows = mutate_rows(rows, k)
        assert rows == b


def test_g_vectors():
    seed = initial_seed(principal_extension(B_KRON))
    assert g_vector_of(seed, 0) == WeightVec((1, 0))
    assert g_vector_of(seed, 1) == WeightVec((0, 1))
    s1 = mutate_seed(seed, 0)
    assert g_vector_of(s1, 0) == WeightVec((-1, 2))
    s21 = mutate_seed(s1, 1)
    # oracle: brute-force mutation then pointed_form
    g, _ = pointed_form(s21.cluster[1])
    assert g_vector_of(s21, 1).coords == g


def test_denominator_vectors():
    ctx = default_context(2, 2)
    assert denominator_vector_of(LaurentPoly.var(ctx, 0)) == RootVec((-1, 0))
    # theta of nu_c(delta) for Kronecker has denominator x1 x2
    theta = (
        LaurentPoly.monomial(ctx, (-1, 1, 0, 0))
        + LaurentPoly.monomial(ctx, (-1, -1, 1, 0))
        + LaurentPoly.monomial(ctx, (1, -1, 1, 1))
    )
    assert denominator_vector_of(theta) == RootVec((1, 1))
    once = LaurentPoly.monomial(ctx, (-1, 2, 0, 0)) + LaurentPoly.monomial(
        ctx, (-1, 0, 1, 0)
    )
    assert denominator_vector_of(once) == RootVec((1, 0))


def test_theta_gfan_finds_cluster_variable_by_gvector():
    eng = ThetaEngine(B_KRON)
    ctx = default_context(2, 2)
    assert eng.theta_gfan(WeightVec((1, 0))).poly == LaurentPoly.var(ctx, 0)
    want = LaurentPoly.monomial(ctx, (-1, 2, 0, 0)) + LaurentPoly.monomial(
        ctx, (-1, 0, 1, 0)
    )
    assert eng.theta_gfan(WeightVec((-1, 2))).poly == want


def test_theta_gfan_not_found_on_imaginary_ray():
    # nu_c(delta) = (-1, 1) spans the one ray that is not in the g-vector fan
    with pytest.raises(NotFound):
        ThetaEngine(B_KRON).theta_gfan(WeightVec((-1, 1)))


def test_gmatrix_recursion_matches_pointed_form():
    # dual-route check: integer G-matrix recursion vs pointed forms
    for b in [B_KRON, B_A2T]:
        matrix = principal_extension(b)
        seen = 0
        for g_col, word, col in enumerate_gvector_frontier(matrix, 3):
            seed = mutate_seed_word(initial_seed(matrix), word)
            g, _ = pointed_form(seed.cluster[col])
            assert g == g_col
            seen += 1
            if seen > 40:
                break


def _g_mutate(b_top, g, eps, k):
    """Reference G-matrix mutation on G stored by rows."""
    n = len(b_top)
    new_col = [
        -g[i][k] + sum(g[i][j] * _pos(-eps * b_top[j][k]) for j in range(n)) for i in range(n)
    ]
    return tuple(tuple(new_col[i] if j == k else g[i][j] for j in range(n)) for i in range(n))


def _column_set(state):
    """The set of G's columns, the g-vectors of a state (G stored by rows)."""
    return frozenset(zip(*state[1]))


def _reference_search(matrix, depth, key=lambda state: state):
    """The search on untransposed (B-tilde, G) states, every entry rebuilt:
    its yields, and every state it keeps with G stored by rows.  A state is
    kept when its key is new: by default the labeled state itself, with
    key=_column_set the state up to relabeling."""
    n = matrix.n
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    start = (matrix.rows, ident)
    seen, frontier, states = {key(start)}, [(start, ())], [start]
    out = [(ident[j], (), j) for j in range(n)]
    for _ in range(depth):
        new_frontier = []
        for (rows, g), word in frontier:
            for k in range(n):
                eps = 1 if all(rows[n + i][k] >= 0 for i in range(n)) else -1
                state = (_mutate_entrywise(rows, k), _g_mutate(rows[:n], g, eps, k))
                if key(state) not in seen:
                    seen.add(key(state))
                    states.append(state)
                    new_frontier.append((state, word + (k,)))
                    out.append((tuple(r[k] for r in state[1]), word + (k,), k))
        frontier = new_frontier
    return out, states


def _least_depths(found):
    """g-vector -> the length of the shortest word the search found it at."""
    least = {}
    for g, word, _ in found:
        least[g] = min(len(word), least.get(g, len(word)))
    return least


# Dynkin diagrams of finite type, as edges (i, j, x, y) with a_ij = -x and
# a_ji = -y: A1, A3, A4, D4, B3, G2 and F4.
_FINITE_TYPES = [
    (1, []),
    (3, [(0, 1, 1, 1), (1, 2, 1, 1)]),
    (4, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1)]),
    (4, [(0, 2, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1)]),
    (3, [(0, 1, 1, 1), (1, 2, 1, 2)]),
    (2, [(0, 1, 1, 3)]),
    (4, [(0, 1, 1, 1), (1, 2, 1, 2), (2, 3, 1, 1)]),
]


def _oriented(rng, n, edges):
    """An exchange matrix on the diagram, each edge oriented at random."""
    b = [[0] * n for _ in range(n)]
    for i, j, x, y in edges:
        if rng.random() < 0.5:
            i, j, x, y = j, i, y, x
        b[i][j], b[j][i] = x, -y
    return tuple(map(tuple, b))


def _random_principal_input(rng, kind):
    """A principal extension that is not of affine type: finite type (any
    seed of the mutation class), wild rank 3, or a disconnected sum."""
    if kind == "finite":
        b = _oriented(rng, *rng.choice(_FINITE_TYPES))
        for _ in range(rng.randint(0, 3)):
            b = mutate_rows(b, rng.randrange(len(b)))
    elif kind == "wild":
        if rng.random() < 0.5:  # a cyclic or acyclic triangle
            x, y, z = (rng.randint(2, 4) for _ in range(3))
            s = rng.choice([1, -1])
            b = ((0, x, -s * z), (-x, 0, y), (s * z, -y, 0))
        else:  # a path of two wild rank-2 edges
            weights = [(1, 5), (5, 1), (2, 3), (3, 2), (3, 3), (1, 4)]
            b = _oriented(rng, 3, [(0, 1, *rng.choice(weights)), (1, 2, *rng.choice(weights))])
    else:
        blocks = [rng.choice([((0,),), B_KRON, ((0, 1), (-2, 0)), ((0, -1), (1, 0))]) for _ in range(2)]
        n = sum(map(len, blocks))
        perm = rng.sample(range(n), n)
        pos, b = 0, [[0] * n for _ in range(n)]
        for block in blocks:
            for i, row in enumerate(block):
                for j, x in enumerate(row):
                    b[perm[pos + i]][perm[pos + j]] = x
            pos += len(block)
        b = tuple(map(tuple, b))
    return principal_extension(b)


@pytest.mark.parametrize(
    "name, depth",
    [(name, 6 if name == "e6t" else 8) for name in cli.BUNDLED]
    + [(name, 8) for name in ("D5", "B3", "F4", "G2")]
    + [(kind, 5) for kind in ("finite", "wild", "disconnected")],
)
def test_gvector_search_matches_reference(rng, name, depth):
    """The search yields what the entrywise search up to relabeling yields,
    list for list, and reaches the g-vectors of the labeled search, each at
    the same least depth."""
    if name in ("finite", "wild", "disconnected"):
        cases = [(_random_principal_input(rng, name), rng.randint(1, depth)) for _ in range(12)]
    else:
        b = AFFINE_TYPES[name][0] if name in AFFINE_TYPES else cli.load_matrix(name).top()
        cases = [(principal_extension(b), depth)]
    for matrix, d in cases:
        got = list(enumerate_gvector_frontier(matrix, d))
        assert got == _reference_search(matrix, d, key=_column_set)[0], matrix.rows
        assert _least_depths(got) == _least_depths(_reference_search(matrix, d)[0]), matrix.rows


def test_gvector_search_state_counts():
    """States met at depth 8 up to relabeling; the labeled search met 40,406
    on e6t, 8,288 on d4t and 7,738 on a4t."""
    for name, count in [("e6t", 3027), ("d4t", 377), ("a4t", 438)]:
        matrix = principal_extension(cli.load_matrix(name).top())
        assert len(list(enumerate_gvector_frontier(matrix, 8))) == count, name


@pytest.mark.parametrize("name", cli.BUNDLED)
def test_gmatrix_determines_the_state(name):
    """G_t B_t = B_0 C_t (Fomin-Zelevinsky IV, (6.14)) on every state of the
    labeled reference search, so G, which is unimodular, determines B_t and,
    by tropical duality, C_t.  Two states whose G have the same columns have
    B-tilde related by the same permutation, so the set of G's columns
    determines the state up to relabeling: the search may key on it."""
    matrix = principal_extension(cli.load_matrix(name).top())
    n, b0 = matrix.n, matrix.top()
    _, states = _reference_search(matrix, 6)

    def prod(x, y):
        return [[sum(x[i][l] * y[l][j] for l in range(n)) for j in range(n)] for i in range(n)]

    relabeled = {}
    for rows, g in states:
        assert prod(g, rows[:n]) == prod(b0, rows[n:]), (name, rows, g)
        # B-tilde with its columns, and its top rows, put in g-vector order
        cols = list(zip(*g))
        perm = sorted(range(n), key=cols.__getitem__)
        b = tuple(tuple(rows[i][j] for j in perm) for i in perm + list(range(n, 2 * n)))
        assert relabeled.setdefault(frozenset(cols), b) == b, (name, rows, g)
    assert len({g for _, g in states}) == len(states)


@pytest.mark.parametrize("depth", [3, 5])
def test_gvector_search_mutates_only_expanded_states(monkeypatch, depth):
    """B-tilde is built once per expanded state: never for the last level
    and never for the mutation back to the parent."""
    calls = []

    def counting(rows, k):
        calls.append(k)
        return mutate_rows(rows, k)

    monkeypatch.setattr(seeds, "mutate_rows", counting)
    matrix = principal_extension(cli.load_matrix("e6t").top())
    got = list(enumerate_gvector_frontier(matrix, depth))
    assert len(calls) == sum(1 <= len(word) < depth for _, word, _ in got) > 0


def test_gvector_search_requires_principal_coefficients():
    with pytest.raises(ValueError):
        next(enumerate_gvector_frontier(ExtendedExchangeMatrix(B_KRON, 2), 3))


def test_clear_on_principal_is_identity():
    seed = mutate_seed_word(initial_seed(principal_extension(B_A2T)), [0, 1, 2, 0])
    for v in seed.cluster:
        assert clear_tropical(v) == v


def test_clear_forced_shift():
    ctx = default_context(2, 2)
    p = LaurentPoly.monomial(ctx, (1, 0, -1, 0))
    assert clear_tropical(p) == LaurentPoly.var(ctx, 0)


def test_laurent_phenomenon_random_words(rng):
    for b in FIXTURES:
        seed = initial_seed(principal_extension(b))
        for _ in range(12):
            word = [rng.randrange(len(b)) for _ in range(rng.randint(1, 8))]
            mutate_seed_word(seed, word)  # NotDivisible would raise


def test_theta_mutation_rewrite_depth3():
    """Theta-mutation predicate on all depth-3 variables: rewriting a variable
    in the primed variables and correcting by y_k^{-[sgn <lam, ak>]+} gives the
    theta function with label eta_k(lam) for the mutated pattern; its Clear is
    a cluster variable there."""
    matrix = principal_extension(B_A2T)
    s0 = initial_seed(matrix)
    vars_by_g = {}
    for s in enumerate_seeds(s0, 3):
        for i in range(3):
            g, _ = pointed_form(s.cluster[i])
            vars_by_g.setdefault(g, s.cluster[i])
    for k in range(3):
        pat2_vars = set()
        for s in enumerate_seeds(initial_seed(matrix.mutate(k)), 4):
            for i in range(3):
                pat2_vars.add(s.cluster[i].canonical_key())
        for g, v in vars_by_g.items():
            lam = WeightVec(g)
            target = mutation_map_eta(B_A2T, [k], lam)
            w = rewrite_in_mutated_variables(s0, k, v, lam)
            gw, _ = pointed_split(w)
            assert gw == target.coords
            assert clear_tropical(w).canonical_key() in pat2_vars


def test_unsigned_column_raises():
    from affcluster.seeds import UnsignedColumn, column_sign

    rows = (
        (0, 2),
        (-2, 0),
        (1, -1),
        (0, 1),
    )
    matrix = ExtendedExchangeMatrix(rows, 2)
    assert column_sign(matrix, 0) == 1
    with pytest.raises(UnsignedColumn):
        column_sign(matrix, 1)
    seed = initial_seed(matrix)
    with pytest.raises(UnsignedColumn):
        mutate_seed(seed, 1)
