"""Laurent polynomial arithmetic: exactness, division, substitution, pointing."""

import random

import pytest

from affcluster import poly
from affcluster.poly import (
    ContextMismatch,
    LaurentPoly,
    NonInvertibleImage,
    NotDivisible,
    NotPointed,
    VarContext,
    clear_tropical,
    default_context,
    exact_div,
    from_json_dict,
    mul_terms,
    pointed_form,
    substitute,
    to_json_dict,
)

CTX = default_context(2, 2)  # x1 x2 u1 u2


def mono(e, c=1, ctx=CTX):
    return LaurentPoly.monomial(ctx, e, c)


def rand_poly(rng, ctx=CTX, terms=4, span=3, coeff=5):
    out = LaurentPoly.zero(ctx)
    for _ in range(terms):
        e = tuple(rng.randint(-span, span) for _ in range(ctx.nvars))
        out = out + mono(e, rng.randint(-coeff, coeff), ctx)
    return out


def test_difference_of_squares():
    x1 = LaurentPoly.var(CTX, 0)
    one = LaurentPoly.const(CTX, 1)
    assert (x1 + one) * (x1 - one) == x1 * x1 - one


def test_mul_identity_and_commutativity(rng):
    one = LaurentPoly.const(CTX, 1)
    for _ in range(25):
        p = rand_poly(rng)
        q = rand_poly(rng)
        assert p * one == p
        assert p * q == q * p


def test_mul_term_by_term_expansion():
    # (x2^2 + y1) * x1^-1 expands term by term
    p = mono((0, 2, 0, 0)) + mono((0, 0, 1, 0))
    q = mono((-1, 0, 0, 0))
    expected = mono((-1, 2, 0, 0)) + mono((-1, 0, 1, 0))
    assert p * q == expected


def test_ring_axioms_randomized(rng):
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_context_mismatch_raises():
    other = default_context(2, 1)
    with pytest.raises(ContextMismatch):
        LaurentPoly.var(CTX, 0) * LaurentPoly.var(other, 0)


def test_exact_div_basic():
    x1 = LaurentPoly.var(CTX, 0)
    one = LaurentPoly.const(CTX, 1)
    assert exact_div(x1 * x1 - one, x1 - one) == x1 + one


def test_exact_div_by_monomial_shifts():
    p = mono((0, 2, 0, 0), 3) + mono((1, 0, 0, 2), -2)
    m = mono((2, -1, 0, 1))
    assert exact_div(p * m, m) == p
    assert exact_div(p, m) == p * mono((-2, 1, 0, -1))


def test_exact_div_not_divisible():
    # (x2^2 + y1) / (x1 + 1) has a nonzero remainder in any variable order
    p = mono((0, 2, 0, 0)) + mono((0, 0, 1, 0))
    q = mono((1, 0, 0, 0)) + LaurentPoly.const(CTX, 1)
    with pytest.raises(NotDivisible):
        exact_div(p, q)


def test_exact_div_roundtrip_randomized(rng):
    for _ in range(30):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if not b:
            continue
        assert exact_div(a * b, b) == a


def test_exact_div_integer_coefficients_only():
    two_x = mono((1, 0, 0, 0), 2)
    three = LaurentPoly.const(CTX, 3)
    with pytest.raises(NotDivisible):
        exact_div(three, two_x)


def test_substitute_specialization_to_one():
    # u -> 1 in (x2^2 + y1)/x1 gives (x2^2 + 1)/x1
    p = mono((-1, 2, 0, 0)) + mono((-1, 0, 1, 0))
    images = {2: LaurentPoly.const(CTX, 1), 3: LaurentPoly.const(CTX, 1)}
    assert substitute(p, images) == mono((-1, 2, 0, 0)) + mono((-1, 0, 0, 0))


def test_substitute_identity():
    rng = random.Random(3)
    p = rand_poly(rng)
    assert substitute(p, {0: LaurentPoly.var(CTX, 0)}) == p


def test_substitute_yhat_column_monomial():
    # For B = [[0,2],[-2,0]] with principal coefficients, yhat_1 = u1 x2^-2:
    # substituting u1 -> yhat_1 into u1 realizes the column monomial.
    yhat1 = mono((0, -2, 1, 0))
    out = substitute(LaurentPoly.var(CTX, 2), {2: yhat1})
    assert out == yhat1


def test_substitute_is_ring_homomorphism():
    rng = random.Random(5)
    images = {0: rand_poly(rng, terms=2), 2: mono((1, 1, 0, 0))}
    for _ in range(15):
        a = rand_poly(rng, span=2)
        b = rand_poly(rng, span=2)
        # only nonnegative powers of substituted variables
        a = a * mono((2, 0, 2, 0))
        b = b * mono((2, 0, 2, 0))
        assert substitute(a * b, images) == substitute(a, images) * substitute(b, images)


def test_substitute_noninvertible_image_raises():
    p = mono((-1, 0, 0, 0))
    with pytest.raises(NonInvertibleImage):
        substitute(p, {0: LaurentPoly.var(CTX, 1) + LaurentPoly.const(CTX, 1)})


def test_pointed_form_initial_variable():
    g, tail = pointed_form(LaurentPoly.var(CTX, 0))
    assert g == (1, 0)
    assert tail == LaurentPoly.const(CTX, 1)


def test_pointed_form_once_mutated_variable():
    # (x2^2 + y1)/x1 points at -rho1 + 2 rho2 with tail 1 + yhat1
    p = mono((-1, 2, 0, 0)) + mono((-1, 0, 1, 0))
    g, tail = pointed_form(p)
    assert g == (-1, 2)
    assert tail == LaurentPoly.const(CTX, 1) + mono((0, -2, 1, 0))


def test_pointed_form_theta_delta_value():
    # closed-form imaginary-ray theta for [[0,2],[-2,0]]:
    # (x2^2 + y1 + y1 y2 x1^2)/(x1 x2)
    p = mono((-1, 1, 0, 0)) + mono((-1, -1, 1, 0)) + mono((1, -1, 1, 1))
    g, tail = pointed_form(p)
    assert g == (-1, 1)
    # tail = 1 + yhat1 + yhat1 yhat2
    assert tail == (
        LaurentPoly.const(CTX, 1) + mono((0, -2, 1, 0)) + mono((2, -2, 1, 1))
    )


def test_pointed_form_rejects_unpointed():
    with pytest.raises(NotPointed):
        pointed_form(LaurentPoly.var(CTX, 0) + LaurentPoly.var(CTX, 1))
    with pytest.raises(NotPointed):
        pointed_form(mono((1, 0, 0, 0), 2))
    with pytest.raises(NotPointed):
        pointed_form(mono((0, 0, 0, 0)) + mono((1, 0, -1, 0)))


def test_clear_tropical():
    p = mono((1, 0, -1, 0)) + mono((0, 1, 0, 2))
    cleared = clear_tropical(p)
    assert cleared == mono((1, 0, 0, 0)) + mono((0, 1, 1, 2))
    assert clear_tropical(cleared) == cleared


def test_json_roundtrip():
    rng = random.Random(17)
    for _ in range(10):
        p = rand_poly(rng)
        blob = to_json_dict(p)
        assert from_json_dict(blob, CTX) == p
    assert to_json_dict(LaurentPoly.zero(CTX))["terms"] == []


def test_json_without_context_needs_default_names():
    p = mono((1, -1, 0, 2), 3) + mono((0, 0, 1, 0))
    back = from_json_dict(to_json_dict(p))
    assert back == p and back.ctx == CTX
    custom = VarContext(2, 1, ("x1", "x2", "xs"))
    with pytest.raises(ContextMismatch):
        from_json_dict(to_json_dict(LaurentPoly.var(custom, 2)))
    with pytest.raises(ContextMismatch):
        from_json_dict({"vars": ["a1", "z0_0", "zs"], "terms": []})


def test_canonical_printing_deterministic():
    p = mono((0, 1, 0, 0)) + mono((1, 0, 0, 0)) + LaurentPoly.const(CTX, -3)
    q = LaurentPoly.const(CTX, -3) + mono((1, 0, 0, 0)) + mono((0, 1, 0, 0))
    assert str(p) == str(q)
    assert str(p) == "x1 + x2 - 3"


def test_power_negative_of_unit():
    m = mono((1, -2, 0, 1), -1)
    assert m ** -3 == mono((-3, 6, 0, -3), -1)
    with pytest.raises(NonInvertibleImage):
        (LaurentPoly.var(CTX, 0) + LaurentPoly.const(CTX, 1)) ** -1


def random_terms(rng, nvars, nterms, lo, hi, coeff):
    return {
        tuple(rng.randint(lo, hi) for _ in range(nvars)):
        rng.choice((-1, 1)) * rng.randint(1, coeff)
        for _ in range(nterms)
    }


def sparse_reference(f, g):
    return {e: c for e, c in poly._sparse_product(f, g).items() if c}


def test_mul_terms_matches_the_sparse_loop(rng, monkeypatch):
    # Both sides of the density rule, squares, signed coefficients in slots
    # of 1 to 2, 3 to 8 and more than 8 bytes, 1 to 7 variables.
    packed = []
    original = poly._packed_product
    monkeypatch.setattr(
        poly, "_packed_product", lambda *args: packed.append(1) or original(*args)
    )
    for nvars in range(1, 8):
        side = max(1, round(150 ** (1 / nvars)) - 1)  # about 150 lattice points
        for coeff in (9, 2**20, 2**70):
            for nf, ng in ((1, 1), (30, 5), (120, 40), (120, 120)):
                f = random_terms(rng, nvars, nf, -side, 0, coeff)
                g = random_terms(rng, nvars, ng, 0, side, coeff)
                far = random_terms(rng, nvars, nf // 4 + 1, -(10**5), 10**5, coeff)
                for a, b in ((f, g), (f, f), (far, g), (far, far)):
                    before = len(packed)
                    got = mul_terms(a, b)
                    assert got == sparse_reference(a, b)
                    assert 0 not in got.values()
                    if b is far:
                        assert len(packed) == before, "a sparse box was packed"
                    if nf == ng == 120 and a is f:
                        assert len(packed) == before + 1, "a dense box was not packed"


def test_mul_terms_cancellation_empty_and_constant(rng):
    for nvars in range(1, 8):
        x = [0] * nvars
        x[rng.randrange(nvars)] = 1
        x = tuple(x)
        zero = (0,) * nvars
        x2 = tuple(2 * v for v in x)
        h = random_terms(rng, nvars, 40, 0, 3, 2**66)
        # h (1 + x) times (1 - x) = h (1 - x^2): the x-terms of the expansion cancel
        f = mul_terms(h, {zero: 1, x: 1})
        got = mul_terms(f, {zero: 1, x: -1})
        assert got == sparse_reference(f, {zero: 1, x: -1}) == mul_terms(h, {zero: 1, x2: -1})
        assert mul_terms({zero: 1, x: 1}, {zero: 1, x: -1}) == {zero: 1, x2: -1}
        assert mul_terms({}, h) == mul_terms(h, {}) == {}
        assert mul_terms({zero: -3}, h) == {e: -3 * c for e, c in h.items()}
        assert mul_terms({zero: 2**65}, {zero: -(2**65)}) == {zero: -(2**130)}
