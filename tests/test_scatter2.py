"""Rank-2 scattering diagrams and the broken-line theta oracle."""

from fractions import Fraction
from functools import cmp_to_key

import pytest

from affcluster.poly import LaurentPoly, default_context
from affcluster.scatter2 import (
    DEFAULT_ENDPOINT,
    InconsistentDiagram,
    ScatteringDiagram2,
    _cross,
    _primitive,
    _root,
    complete_scattering_rank2,
    enumerate_broken_lines_rank2,
    theta_via_broken_lines,
)
from affcluster.seeds import WeightVec, coroot_scalers, primitive_coroot
from affcluster.theta import ThetaEngine
from reference import (
    complete_order_by_order,
    consistency_defects,
    mul_truncated,
    pair_structure_constant,
    truncate,
)

B_KRON = ((0, 2), (-2, 0))
B_41 = ((0, 4), (-1, 0))
B_14 = ((0, 1), (-4, 0))
RANK2 = [B_KRON, B_41, B_14]


def test_order_one_keeps_initial_walls_only():
    d = complete_scattering_rank2(B_KRON, order=1)
    assert len(d.walls) == 2
    assert all(w.is_line for w in d.walls)


def test_pentagon():
    # finite A2: exactly one added wall, function 1 + yhat1 yhat2, at any order
    for order in (2, 5, 8):
        d = complete_scattering_rank2(((0, 1), (-1, 0)), order=order)
        added = [w for w in d.walls if not w.is_line]
        assert len(added) == 1
        wall = added[0]
        assert wall.normal == (1, 1)
        assert wall.direction == (-1, 1)
        assert wall.series == LaurentPoly(d.ctx, {(0, 0, 0, 0): 1, d._yhat((1, 1)): 1})


def test_consistency_and_recompletion_idempotent():
    for b in RANK2:
        d = complete_scattering_rank2(b, order=6)
        assert all(not x for x in consistency_defects(d))


def test_kronecker_imaginary_wall_series():
    # computed by consistency, then frozen: (1 - yhat^delta)^{-2} truncated
    d = complete_scattering_rank2(B_KRON, order=8)
    wall = next((w for w in d.walls if w.normal == (1, 1)), None)
    assert wall is not None and not wall.is_line
    assert wall.direction == (-1, 1)
    expected = LaurentPoly.const(d.ctx, 1)
    for j in range(1, 5):
        expected = expected + LaurentPoly.monomial(d.ctx, d._yhat((j, j)), j + 1)
    assert wall.series == expected


def test_nonsymmetric_imaginary_wall_series():
    # for [[0,4],[-1,0]], delta = (2,1): the series produced by consistency
    # completion is 1 + 3 yhat^delta + 5 yhat^{2 delta} + ... (frozen after
    # the broken-line thetas below were checked against the closed forms)
    d = complete_scattering_rank2(B_41, order=8)
    wall = next((w for w in d.walls if w.normal == (2, 1)), None)
    assert wall is not None
    assert wall.direction == (-2, 1)
    expected = LaurentPoly(d.ctx, {(0, 0, 0, 0): 1, d._yhat((2, 1)): 3, d._yhat((4, 2)): 5})
    assert wall.series == expected


def test_real_walls_are_binomials():
    for b in RANK2:
        d = complete_scattering_rank2(b, order=8)
        eng = ThetaEngine(b)
        delta = eng.data.delta.coords
        for w in d.walls:
            if w.is_line or w.normal == delta:
                continue
            assert w.series == LaurentPoly(d.ctx, {(0, 0, 0, 0): 1, d._yhat(w.normal): 1})


def test_broken_line_trivial():
    d = complete_scattering_rank2(B_KRON, order=6)
    lines = enumerate_broken_lines_rank2(d, WeightVec((1, 0)))
    assert len(lines) == 1
    assert lines[0].picks == ()
    assert theta_via_broken_lines(d, WeightVec((1, 0))) == LaurentPoly.monomial(
        d.ctx, (1, 0, 0, 0)
    )


def test_broken_line_matches_one_mutation():
    d = complete_scattering_rank2(B_KRON, order=6)
    got = theta_via_broken_lines(d, WeightVec((-1, 2)))
    expected = LaurentPoly.monomial(d.ctx, (-1, 2, 0, 0)) + LaurentPoly.monomial(
        d.ctx, (-1, 0, 1, 0)
    )
    assert got == expected


def test_theta_zero_is_one():
    d = complete_scattering_rank2(B_KRON, order=4)
    assert theta_via_broken_lines(d, WeightVec((0, 0))) == LaurentPoly.const(d.ctx, 1)


def test_broken_lines_match_rank2_closed_forms():
    for b in RANK2:
        d = complete_scattering_rank2(b, order=8)
        eng = ThetaEngine(b)
        lam = eng.data.nu_c(eng.data.delta)
        got = theta_via_broken_lines(d, lam)
        assert got == truncate(d, eng.theta_delta().poly)


def test_broken_lines_match_chebyshev_multiples():
    for b in RANK2:
        d = complete_scattering_rank2(b, order=8)
        eng = ThetaEngine(b)
        nu = eng.data.nu_c(eng.data.delta)
        for k in (2, 3, 4):
            got = theta_via_broken_lines(d, nu.scale(k))
            assert got == truncate(d, eng.theta_k_delta(k).poly)


def test_broken_lines_off_wall_cluster_variables():
    # deeper g-vectors: compare against seed mutation along words
    from affcluster.seeds import initial_seed, mutate_seed_word, principal_extension
    from affcluster.poly import pointed_form

    for b in RANK2:
        d = complete_scattering_rank2(b, order=8)
        seed = mutate_seed_word(
            initial_seed(principal_extension(b)), [0, 1, 0]
        )
        for i in range(2):
            g, _ = pointed_form(seed.cluster[i])
            got = theta_via_broken_lines(d, WeightVec(g))
            assert got == truncate(d, seed.cluster[i])


def test_structure_constants_near_imaginary_ray():
    d = complete_scattering_rank2(B_KRON, order=8)
    eng = ThetaEngine(B_KRON)
    nu = eng.data.nu_c(eng.data.delta)
    chi = (
        Fraction(-100000) + Fraction(1, 97),
        Fraction(100000) + Fraction(1, 89),
    )
    for k in (1, 2):
        p = nu.scale(k)
        lines = enumerate_broken_lines_rank2(d, p, chi)
        # exactly two periodic-style lines survive near the ray
        assert sorted(bl.tropical for bl in lines) == [(0, 0), (k, k)]
        top = pair_structure_constant(d, p, p, nu.scale(2 * k), chi)
        assert top == LaurentPoly.const(d.ctx, 1)
        zero = pair_structure_constant(d, p, p, WeightVec((0, 0)), chi)
        assert zero == LaurentPoly.monomial(d.ctx, (0, 0, k, k), 2)


def test_endpoint_independence_within_chamber():
    d = complete_scattering_rank2(B_41, order=6)
    eng = ThetaEngine(B_41)
    lam = eng.data.nu_c(eng.data.delta)
    chi2 = (Fraction(17, 5) + Fraction(1, 103), Fraction(3, 7))
    a = theta_via_broken_lines(d, lam)
    b = theta_via_broken_lines(d, lam, endpoint=chi2)
    assert a == b


def test_broken_lines_transposed_sign_patterns():
    # the transposed matrices put every added wall in the opposite quadrant;
    # the oracle must still agree with the symbolic engine there
    for b in [((0, -2), (2, 0)), ((0, -1), (4, 0)), ((0, -4), (1, 0))]:
        d = complete_scattering_rank2(b, order=6)
        eng = ThetaEngine(b)
        nu = eng.data.nu_c(eng.data.delta)
        for k in (1, 2):
            got = theta_via_broken_lines(d, nu.scale(k))
            assert got == truncate(d, eng.theta_k_delta(k).poly)
        for w in d.walls:
            if not w.is_line:
                assert w.direction[0] > 0 and w.direction[1] < 0


# -- the LaurentPoly diagram as a reference ------------------------------------


class _ReferenceWall:
    def __init__(self, normal, direction, is_line, series):
        self.normal = normal
        self.direction = direction
        self.is_line = is_line
        self.series = series
        self.pows = {}


class _ReferenceDiagram:
    """The rank-2 diagram with every wall function, wall-crossing image and
    power a truncated LaurentPoly, completed by the same consistency rule."""

    _BASE = (7, 3)

    def __init__(self, b, order):
        self.b = b
        self.order = order
        self.ctx = default_context(2, 2)
        self.e = coroot_scalers(b)
        self.walls = []
        for normal, direction in (((1, 0), (0, 1)), ((0, 1), (1, 0))):
            f = self._one() + self._yhat_monomial(normal)
            self.walls.append(_ReferenceWall(normal, direction, True, f))
        self._complete()

    def _one(self):
        return LaurentPoly.const(self.ctx, 1)

    def _yhat_monomial(self, m, coeff=1):
        b = self.b
        e = (b[0][0] * m[0] + b[0][1] * m[1], b[1][0] * m[0] + b[1][1] * m[1], m[0], m[1])
        return LaurentPoly.monomial(self.ctx, e, coeff)

    def truncate(self, p):
        return LaurentPoly(self.ctx, {e: c for e, c in p.terms.items() if e[2] + e[3] <= self.order})

    def coroot(self, beta):
        return primitive_coroot(beta, self.e)

    def _power(self, wall, e):
        if e not in wall.pows:
            base = wall.series
            if e < 0:
                g = wall.series - self._one()
                base = powg = self._one()
                for i in range(self.order):
                    powg = self.truncate(powg * g)
                    base = base + powg.scale(-1 if i % 2 == 0 else 1)
            out = self._one()
            for _ in range(abs(e)):
                out = self.truncate(out * base)
            wall.pows[e] = out
        return wall.pows[e]

    def cross(self, p, wall, eps):
        check = self.coroot(wall.normal)
        buckets = {}
        for e, c in p.terms.items():
            buckets.setdefault(eps * (e[0] * check[0] + e[1] * check[1]), {})[e] = c
        out = LaurentPoly.zero(self.ctx)
        for a, terms in buckets.items():
            chunk = LaurentPoly(self.ctx, terms)
            if a:
                chunk = self.truncate(chunk * self._power(wall, a))
            out = out + chunk
        return out

    def _sites(self):
        sites = []
        for w in self.walls:
            sites.append((w.direction, w))
            if w.is_line:
                sites.append(((-w.direction[0], -w.direction[1]), w))
        return sites

    def _eps(self, direction, wall):
        check = self.coroot(wall.normal)
        slope = -direction[1] * check[0] + direction[0] * check[1]
        if slope == 0:
            raise InconsistentDiagram("tangent crossing (degenerate geometry)")
        return 1 if slope < 0 else -1

    def defect(self, generator):
        base = self._BASE

        def compare(a, b):
            ha, hb = (0 if _cross(base, v[0]) > 0 else 1 for v in (a, b))
            if ha != hb:
                return ha - hb
            c = _cross(a[0], b[0])
            return 0 if c == 0 else (-1 if c > 0 else 1)

        start = (1, 0, 0, 0) if generator == 0 else (0, 1, 0, 0)
        p = LaurentPoly.monomial(self.ctx, start)
        for direction, wall in sorted(self._sites(), key=cmp_to_key(compare)):
            p = self.cross(p, wall, self._eps(direction, wall))
        return p.shift(tuple(-x for x in start)) - self._one()

    def consistency_defects(self):
        return self.defect(0), self.defect(1)

    def _complete(self):
        by_normal = {}
        for deg in range(2, self.order + 1):
            needed = {}
            for gen in range(2):
                for e, c in self.defect(gen).terms.items():
                    assert e[2] + e[3] >= deg
                    if e[2] + e[3] == deg:
                        needed.setdefault((e[2], e[3]), {})[gen] = c
            for m in sorted(needed):
                beta = _primitive(m)
                check = self.coroot(beta)
                usable = [g for g in (0, 1) if check[g] != 0 and needed[m].get(g)]
                if not usable:
                    continue
                gen = usable[0]
                wall = by_normal.get(beta)
                if wall is None:
                    b = self.b
                    v = (-(b[0][0] * beta[0] + b[0][1] * beta[1]), -(b[1][0] * beta[0] + b[1][1] * beta[1]))
                    wall = by_normal[beta] = _ReferenceWall(beta, _primitive(v), False, self._one())
                    self.walls.append(wall)
                denom = self._eps(wall.direction, wall) * check[gen]
                assert needed[m][gen] % denom == 0
                wall.series = wall.series + self._yhat_monomial(m, -needed[m][gen] // denom)
                wall.pows = {}
            for gen in range(2):
                assert all(e[2] + e[3] > deg for e in self.defect(gen).terms)


def _reference_theta(ref, lam, endpoint=DEFAULT_ENDPOINT):
    """theta_lam as the sum over broken lines on the reference diagram, bend
    coefficients read from its LaurentPoly wall powers."""
    if lam == (0, 0):
        return LaurentPoly.const(ref.ctx, 1)
    b = ref.b
    total = LaurentPoly.zero(ref.ctx)

    def travel_time(delta, lam_cur):
        for comp in range(2):
            if lam_cur[comp]:
                return -Fraction(delta[comp]) / lam_cur[comp]
        return None

    def ends(path, lam_cur, scale):
        if not path:
            return True
        w_last = path[-1]
        den = Fraction(_cross(w_last, lam_cur)) * scale
        if den == 0:
            return False
        s1 = Fraction(_cross(endpoint, lam_cur)) / den
        if s1 <= 0:
            return False
        c_last = scale * s1
        t = travel_time((endpoint[0] - c_last * w_last[0], endpoint[1] - c_last * w_last[1]), lam_cur)
        return t is not None and t > 0

    def extend(path, lam_cur, m_cur, coeff, scale):
        nonlocal total
        if ends(path, lam_cur, scale):
            total = total + LaurentPoly.monomial(ref.ctx, lam_cur + m_cur, coeff)
        budget = ref.order - sum(m_cur)
        if budget <= 0:
            return
        for direction, wall in ref._sites():
            beta = wall.normal
            check = ref.coroot(beta)
            e = lam_cur[0] * check[0] + lam_cur[1] * check[1]
            if e == 0:
                continue
            new_scale = Fraction(1)
            if path:
                den = _cross(direction, lam_cur)
                if den == 0:
                    continue
                new_scale = scale * Fraction(_cross(path[-1], lam_cur), den)
                if new_scale <= 0:
                    continue
                delta = (new_scale * direction[0] - scale * path[-1][0], new_scale * direction[1] - scale * path[-1][1])
                t = travel_time(delta, lam_cur)
                if t is None or t <= 0:
                    continue
            power = ref._power(wall, abs(e))
            for j in range(1, budget // (beta[0] + beta[1]) + 1):
                m = (j * beta[0], j * beta[1])
                key = (b[0][0] * m[0] + b[0][1] * m[1], b[1][0] * m[0] + b[1][1] * m[1]) + m
                c = power.terms.get(key, 0)
                if c:
                    extend(path + [direction], (lam_cur[0] + key[0], lam_cur[1] + key[1]),
                           (m_cur[0] + m[0], m_cur[1] + m[1]), coeff * c, new_scale)

    extend([], lam, (0, 0), 1, Fraction(1))
    return total


A2, B2, C2, G2 = ((0, 1), (-1, 0)), ((0, 1), (-2, 0)), ((0, 2), (-1, 0)), ((0, 1), (-3, 0))
KRON_T = ((0, -2), (2, 0))
WILD_33 = ((0, 3), (-3, 0))


@pytest.mark.parametrize(
    "b",
    RANK2 + [KRON_T, A2, B2, C2, G2, WILD_33],
    ids=["kron", "41", "14", "kron-t", "A2", "B2", "C2", "G2", "wild33"],
)
def test_term_map_diagram_matches_laurent_reference(b):
    lams = [(-1, 1), (2, -1), (1, 0)]
    if b in RANK2 + [KRON_T]:
        data = ThetaEngine(b).data
        nu = data.nu_c(data.delta)
        lams += [nu.scale(k).coords for k in (1, 2)]
    for order in range(11):
        ref = _ReferenceDiagram(b, order)
        d = complete_scattering_rank2(b, order)
        assert [(w.normal, w.direction, w.is_line, w.series) for w in d.walls] == [
            (w.normal, w.direction, w.is_line, w.series) for w in ref.walls
        ]
        assert all(not x for x in consistency_defects(d))
        for lam in lams:
            assert theta_via_broken_lines(d, WeightVec(lam)) == _reference_theta(ref, lam)


def test_completion_and_broken_lines_multiply_no_laurent_polynomials(monkeypatch):
    # wall functions, their powers and wall-crossing images are coefficient
    # lists and term maps; LaurentPoly is only built for the output
    data = ThetaEngine(B_KRON).data
    nu = data.nu_c(data.delta)
    calls = []
    mul, power = LaurentPoly.__mul__, LaurentPoly.__pow__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append("mul") or mul(a, b))
    monkeypatch.setattr(LaurentPoly, "__pow__", lambda a, k: calls.append("pow") or power(a, k))
    d = complete_scattering_rank2(B_KRON, 12)
    for lam in (nu, nu.scale(3), WeightVec((-1, 2))):
        assert theta_via_broken_lines(d, lam)
    assert not calls


def test_integer_bend_geometry_matches_reference_at_other_endpoints():
    # the bend tests read the endpoint once as integers over a common
    # denominator; Fraction and int endpoints, in several chambers
    endpoints = [
        (Fraction(17, 5) + Fraction(1, 103), Fraction(3, 7)),
        (Fraction(-100000) + Fraction(1, 97), Fraction(100000) + Fraction(1, 89)),
        (3, Fraction(-7, 11)),
        (Fraction(-5, 3), Fraction(-2, 9)),
    ]
    for b in RANK2 + [G2]:
        ref = _ReferenceDiagram(b, 6)
        d = complete_scattering_rank2(b, 6)
        for chi in endpoints:
            for lam in [(1, 0), (-1, 1), (2, -1), (-2, 3), (0, -1)]:
                got = theta_via_broken_lines(d, WeightVec(lam), chi)
                assert got == _reference_theta(ref, lam, chi), (b, chi, lam)


# -- the factorization against the order-by-order completion -------------------

ZERO = ((0, 0), (0, 0))
WILD_51, WILD_51T = ((0, 5), (-1, 0)), ((0, -5), (1, 0))


def _walls(d):
    return [(w.normal, w.direction, w.is_line, w.coeffs) for w in d.walls]


@pytest.mark.parametrize(
    "b",
    RANK2 + [KRON_T, A2, B2, C2, G2, WILD_33, ZERO, WILD_51, WILD_51T],
    ids=["kron", "41", "14", "kron-t", "A2", "B2", "C2", "G2", "wild33", "zero", "wild51", "wild51t"],
)
def test_factorization_matches_order_by_order_completion(b):
    for order in range(17):
        assert _walls(complete_scattering_rank2(b, order)) == _walls(complete_order_by_order(b, order))


def test_zero_matrix_keeps_its_two_initial_lines():
    # no normal has an outgoing direction when B = 0, and none is needed
    for order in range(17):
        d = complete_scattering_rank2(ZERO, order)
        assert _walls(d) == [((1, 0), (0, 1), True, [1, 1]), ((0, 1), (1, 0), True, [1, 1])]
        assert all(not x for x in consistency_defects(d))


def test_power_and_root_match_truncated_multiplication(rng):
    d = complete_scattering_rank2(B_41, 12)
    ref = complete_order_by_order(B_41, 12)
    walls = list(d.walls) + [
        d._wall((1, 1), (-1, 1), False, [1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 7))])
        for _ in range(30)
    ]
    for wall in walls:
        size = d.order // (wall.normal[0] + wall.normal[1]) + 1
        f = (wall.coeffs + [0] * size)[:size]
        one = [1] + [0] * (size - 1)
        ref.powers.clear()
        for a in range(-7, 8):
            power = d._power(wall, a)
            assert power == ref._power(wall, a)
            assert mul_truncated(power, d._power(wall, -a)) == one
            if a:
                assert _root(power, a) == f
    assert d._power(walls[-1], 3) == mul_truncated(mul_truncated(f, f), f)


@pytest.mark.parametrize("h, a", [([1, 1], 2), ([1, 3, 0], -2), ([1, 0, 1], 2), ([1, 2, 3, 5], 3)])
def test_root_refuses_a_series_with_no_integer_root(h, a):
    with pytest.raises(InconsistentDiagram, match="non-integer wall correction"):
        _root(h, a)


def test_completion_checks_both_loop_products(monkeypatch):
    # walls that do not factor the initial crossings fail the final check
    monkeypatch.setattr(ScatteringDiagram2, "_factor", lambda self: None)
    with pytest.raises(InconsistentDiagram, match="defect on generator 0"):
        complete_scattering_rank2(B_KRON, 4)
