"""Laurent polynomial arithmetic: exactness, division, substitution, pointing."""

import decimal
import random
from array import array
from itertools import product
from math import isqrt

import pytest

from affcluster import poly
from affcluster.poly import (
    ContextMismatch,
    LaurentPoly,
    NonInvertibleImage,
    NotDivisible,
    NotPointed,
    VarContext,
    default_context,
    exact_div,
    from_json_dict,
    mul_terms,
    pointed_form,
    substitute,
    to_json_dict,
)
from reference import clear_tropical, exact_div_shifted

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


def test_exact_div_matches_shifting_reference(rng):
    """exact_div eliminates on the Laurent exponents in place; the reference
    shifts both operands to ordinary polynomials and the quotient back.
    Divisors have a leading coefficient other than +-1; a stray monomial
    added to a = q*b makes most of the divisions fail."""

    def rand(ctx, count):
        exponents = (tuple(rng.randint(-3, 3) for _ in range(ctx.nvars)) for _ in range(count))
        return LaurentPoly(ctx, {e: rng.choice([-5, -3, -2, -1, 1, 2, 4]) for e in exponents})

    outcomes = set()
    for _ in range(150):
        nvars = rng.randint(1, 5)
        n = rng.randint(1, nvars)
        ctx = default_context(n, nvars - n)
        b = rand(ctx, rng.randint(1, 4))
        lead, _ = b.leading()
        b = LaurentPoly(ctx, {**b.terms, lead: rng.choice([-3, -2, 2, 3, 6])})
        q = rand(ctx, rng.randint(1, 6))
        stray = rand(ctx, 1)
        for a in (q * b, q * b + stray):
            try:
                want = exact_div_shifted(a, b)
            except NotDivisible:
                with pytest.raises(NotDivisible):
                    exact_div(a, b)
                outcomes.add("not divisible")
            else:
                assert exact_div(a, b) == want
                outcomes.add("divisible")
    assert outcomes == {"divisible", "not divisible"}


def test_exact_div_shifts_no_operand(monkeypatch):
    p = mono((0, 2, 0, 0), 3) + mono((1, -1, 0, 2), -2)
    b = mono((2, -1, 0, 1), 2) + mono((-1, 0, 1, 0), -1)
    a = p * b

    def no_shift(self, exponents):
        raise AssertionError("exact_div shifted a polynomial")

    monkeypatch.setattr(LaurentPoly, "shift", no_shift)
    assert exact_div(a, b) == p
    with pytest.raises(NotDivisible):
        exact_div(a + mono((5, 0, 0, 0)), b)


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


@pytest.mark.parametrize(
    "terms, match",
    [
        ([{"c": "1", "e": [0.5, 1]}], "0.5 is not an integer"),
        ([{"c": "1", "e": [1, True]}], "true is not an integer"),
        ([{"c": "1", "e": ["1", 0]}], '"1" is not an integer'),
        ([{"c": "1_0", "e": [1, 0]}], 'coefficient "1_0"'),
        ([{"c": 5, "e": [1, 0]}], "coefficient 5 "),
        ([{"c": "+5", "e": [1, 0]}], 'coefficient "[+]5"'),
        ([{"c": " 5", "e": [1, 0]}], 'coefficient " 5"'),
        ([{"c": "05", "e": [1, 0]}], 'coefficient "05"'),
        ([{"c": "5.0", "e": [1, 0]}], 'coefficient "5.0"'),
        ([{"c": "0", "e": [1, 0]}], 'coefficient "0"'),
        ([{"c": "-0", "e": [1, 0]}], 'coefficient "-0"'),
        ([{"c": "2", "e": [1, 0]}, {"c": "3", "e": [1, 0]}], "exponent \\[1, 0\\] appears twice"),
    ],
    ids=[
        "float-exponent",
        "bool-exponent",
        "string-exponent",
        "underscore-coefficient",
        "int-coefficient",
        "plus-sign",
        "leading-space",
        "leading-zero",
        "decimal-point",
        "zero-coefficient",
        "negative-zero",
        "repeated-exponent",
    ],
)
def test_json_refuses_what_to_json_dict_could_not_have_written(terms, match):
    with pytest.raises(ValueError, match=match) as err:
        from_json_dict({"vars": ["x1", "u1"], "terms": terms})
    assert not isinstance(err.value, ContextMismatch)


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


def _dense_terms(rng, nvars, nterms, side, mag, shift=0):
    """nterms distinct exponents in [shift, shift + side)^nvars, each with a
    signed coefficient of at most mag."""
    points = rng.sample(list(product(range(shift, shift + side), repeat=nvars)), nterms)
    return {e: rng.choice((-1, 1)) * rng.randint(1, mag) for e in points}


def _slot_top(f, g):
    """The largest value a slot of the packed product of f and g can hold:
    bound - 1 for nonnegative operands, else 2 bound - 1 with the bias."""
    bound = isqrt(sum(c * c for c in f.values()) * sum(c * c for c in g.values())) + 1
    return bound - 1 if min(f.values()) > 0 and min(g.values()) > 0 else 2 * bound - 1


def _slot_width(f, g):
    return (_slot_top(f, g).bit_length() + 7) // 8


def _slot_digits(f, g):
    return len(str(_slot_top(f, g)))


def _exact_like(context_class=decimal.Context, prec=None):
    """A context_class with the decimal step's settings and traps, at prec
    digits if given."""
    exact = poly._EXACT
    traps = [signal for signal, on in exact.traps.items() if on]
    return context_class(prec=prec or exact.prec, Emax=exact.Emax, Emin=exact.Emin, traps=traps)


def _spy_decimal_multiply(monkeypatch):
    """Replace the decimal step's context by a copy that counts multiplies."""
    calls = []

    class Counting(decimal.Context):
        def multiply(self, a, b):
            calls.append(1)
            return super().multiply(a, b)

    monkeypatch.setattr(poly, "_EXACT", _exact_like(Counting))
    return calls


def _magnitudes(digits):
    """Coefficient bounds from 1 to 10^digits, rising by a factor of about
    10^(1/8): the products' slot values rise about 10^(1/4) per step, so
    that no digit count is skipped."""
    return sorted({max(1, isqrt(isqrt(isqrt(10**t)))) for t in range(8 * digits + 1)})


def test_packed_product_every_multiply_step_and_slot_width(rng, monkeypatch):
    # dense boxes in 2 or 3 variables, so every product below is packed,
    # with signed coefficients: a smaller operand of 3 and of _SHIFT_TERMS
    # terms (shift and add) at every slot width in bytes that the operand
    # sizes allow, and squares and a smaller operand of _SHIFT_TERMS + 1
    # terms (the decimal multiply) at every slot width in digits that they
    # allow; either way the product's slots are read back at the width in
    # bytes of their largest value
    calls = {"packed": 0, "shift": 0}
    multiplies = _spy_decimal_multiply(monkeypatch)
    covered = {"square": set(), "shift": set(), "full": set()}
    packed, shift_and_add, slot_values = poly._packed_product, poly._shift_and_add, poly._slot_values

    def count(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(poly, "_packed_product", count("packed", packed))
    monkeypatch.setattr(poly, "_shift_and_add", count("shift", shift_and_add))
    seen = []
    monkeypatch.setattr(poly, "_slot_values", lambda data, w: seen.append(w) or slot_values(data, w))
    cut = poly._SHIFT_TERMS
    big = cut + 8
    every_width = (1, 2, 3, 4, 5, 8, 9, 17, 24)
    every_digits = (2, 3, 4, 9, 10, 19, 20, 21, 39, 40, 58)
    rows = [("shift", width) for width in every_width] + [
        (step, digits) for step in ("square", "full") for digits in every_digits
    ]
    for i, (step, size) in enumerate(rows):
        nvars = 2 + i % 2
        side = round((1.2 * big) ** (1 / nvars)) + 1
        small_side = round((2 * cut) ** (1 / nvars)) + 1
        shapes = {
            "square": [(big, side, None, 0), (22, round((1.2 * 22) ** (1 / nvars)) + 1, None, 0)],
            "shift": [(big, side, 3, 2), (big, side, cut, small_side)],
            "full": [(big, side, cut + 1, small_side)],
        }[step]
        for nf, fside, ng, gside in shapes:
            if step == "shift":
                mags = [1 << bits for bits in range(8 * size)]
                measure = _slot_width
            else:
                mags = _magnitudes(size)
                measure = _slot_digits
            for mag in mags:
                f = _dense_terms(rng, nvars, nf, fside, mag, shift=-fside // 2)
                g = f if ng is None else _dense_terms(rng, nvars, ng, gside, mag)
                if measure(f, g) == size:
                    break
            else:
                continue  # too many terms for so narrow a slot
            want = sparse_reference(f, g)
            for a, b in ((f, g), (g, f)) if g is not f else ((f, f),):
                before, before_multiplies = dict(calls), len(multiplies)
                got = mul_terms(a, b)
                assert calls["packed"] == before["packed"] + 1, "a dense box was not packed"
                assert got == want and 0 not in got.values()
                assert list(got) == sorted(got), "not in lattice order"
                assert calls["shift"] == before["shift"] + (step == "shift")
                assert len(multiplies) == before_multiplies + (step != "shift")
                assert seen[-1] == _slot_width(f, g)
            covered[step].add(size)
    # a signed product of two operands over _SHIFT_TERMS terms has a bound
    # over _SHIFT_TERMS, so its slots hold three digits or more
    assert covered == {
        "square": set(every_digits),
        "shift": set(every_width),
        "full": set(every_digits) - {2},
    }


def test_decimal_multiply_matches_the_sparse_loop(rng, monkeypatch):
    # with _SHIFT_TERMS lowered, small dense products take the decimal
    # multiply: squares and full multiplies in 1 to 7 variables, of
    # nonnegative and of signed operands, and (1 + x) a times (1 - x) b,
    # whose x-terms cancel inside the slots, at slot values of 1 digit to
    # past 40, so that the digits are read back into slots of 1, 2, 4 and 8
    # bytes and of two and three 64-bit limbs
    monkeypatch.setattr(poly, "_SHIFT_TERMS", 1)
    multiplies = _spy_decimal_multiply(monkeypatch)
    slot_values = poly._slot_values
    read = []
    monkeypatch.setattr(poly, "_slot_values", lambda data, w: read.append(w) or slot_values(data, w))
    digits_seen, widths_seen = set(), set()
    for nvars in range(1, 8):
        side = next(s for s in range(2, 17) if s**nvars >= 16)
        nterms = 3 * side**nvars // 4
        zero = (0,) * nvars
        x = (1,) + zero[1:]
        x2 = (2,) + zero[1:]
        ones = {(i,) + zero[1:]: 1 for i in range(6)}  # 36 pairs in 11 slots of 1 digit
        # one 1-digit square, then one product of each kind in turn at
        # coefficient bounds rising 10^(1/2) a step
        products = [(ones, ones, None)]
        for i, mag in enumerate(_magnitudes(22)[::4]):
            f = _dense_terms(rng, nvars, nterms, side, mag)
            g = _dense_terms(rng, nvars, nterms, side, mag, shift=-1)
            pf = {e: abs(c) for e, c in f.items()}
            pg = {e: abs(c) for e, c in g.items()}
            if i % 5 < 4:
                a, b = [(f, f), (f, g), (pf, pf), (pf, pg)][i % 5]
                products.append((a, b, None))
            else:
                products.append((
                    mul_terms(pf, {zero: 1, x: 1}),
                    mul_terms(pg, {zero: 1, x: -1}),
                    mul_terms(mul_terms(pf, pg), {zero: 1, x2: -1}),
                ))
        for a, b, cancelled in products:
            before = len(multiplies)
            got = mul_terms(a, b)
            assert len(multiplies) == before + 1, "the decimal multiply did not run"
            assert got == sparse_reference(a, b) and 0 not in got.values()
            assert list(got) == sorted(got), "not in lattice order"
            assert read[-1] == _slot_width(a, b)
            if cancelled is not None:
                assert got == cancelled
            digits_seen.add(_slot_digits(a, b))
            widths_seen.add(read[-1])
    assert set(range(1, 41)) <= digits_seen
    assert {1, 2, 4, 8} <= widths_seen and max(widths_seen) > 16


def test_decimal_multiply_ignores_the_thread_context(rng):
    # the decimal step computes in its own context: a thread context of 28
    # digits that rounds down and traps nothing changes no product, though
    # every packed operand below has thousands of digits
    n = poly._SHIFT_TERMS + 20
    side = isqrt(2 * n)
    f = {e: abs(c) for e, c in _dense_terms(rng, 2, n, side, 10**6).items()}
    g = _dense_terms(rng, 2, n, side, 10**6)
    want = [(a, b, sparse_reference(a, b)) for a, b in ((f, g), (f, f))]
    loose = decimal.Context(prec=28, rounding=decimal.ROUND_FLOOR, traps=[])
    with decimal.localcontext(loose):
        for a, b, product_ab in want:
            assert mul_terms(a, b) == product_ab


def test_decimal_multiply_raises_rather_than_rounds(rng, monkeypatch):
    # with the decimal step's context cut to 20 digits, a product whose
    # packed operands have more raises instead of returning slots
    monkeypatch.setattr(poly, "_EXACT", _exact_like(prec=20))
    n = poly._SHIFT_TERMS + 20
    side = isqrt(2 * n)
    f = _dense_terms(rng, 2, n, side, 10**6)
    for a, b in ((f, f), ({e: abs(c) for e, c in f.items()}, _dense_terms(rng, 2, n, side, 9))):
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            mul_terms(a, b)


def test_packed_product_cancelling_coefficients(rng, monkeypatch):
    # (1 + x) a times (1 - x) b is (1 - x^2) a b: every x-term of the
    # expansion cancels inside a slot, through either multiply step
    steps = []
    shift_and_add = poly._shift_and_add
    monkeypatch.setattr(
        poly, "_shift_and_add", lambda *args: steps.append(1) or shift_and_add(*args)
    )
    cut = poly._SHIFT_TERMS
    side = isqrt(cut) + 4
    zero, x, x2 = (0, 0), (1, 0), (2, 0)
    for mag in (5, 2**40):
        a = {e: abs(c) for e, c in _dense_terms(rng, 2, side * side - 5, side, mag).items()}
        b = {e: abs(c) for e, c in _dense_terms(rng, 2, side * side - 9, side, mag).items()}
        fa = mul_terms(a, {zero: 1, x: 1})
        gb = mul_terms(b, {zero: 1, x: -1})
        assert min(len(fa), len(gb)) > cut
        for f, g, want in (
            (fa, gb, mul_terms(mul_terms(a, b), {zero: 1, x2: -1})),
            (fa, {zero: 1, x: -1}, mul_terms(a, {zero: 1, x2: -1})),
        ):
            before = len(steps)
            got = mul_terms(f, g)
            assert got == want == sparse_reference(f, g)
            assert list(got) == sorted(got)
            assert len(steps) == before + (len(g) <= cut)
    assert steps


def test_cast_codes_by_item_size():
    assert sorted(poly._CAST_CODES) == [1, 2, 4, 8]
    for size, code in poly._CAST_CODES.items():
        assert array(code).itemsize == size
        assert memoryview(bytes(2 * size)).cast(code).itemsize == size


def test_slot_values_reads_every_width(rng, monkeypatch):
    # little-endian slots of 1 to 20 bytes read back as ints; with the host
    # taken for the other byte order, every item of 1, 2, 4 or 8 bytes (each
    # 64-bit limb above 8) is read with its bytes reversed, which is what a
    # native read on a host of that order undoes
    for width in range(1, 21):
        values = [rng.getrandbits(8 * width) for _ in range(50)] + [0, (1 << 8 * width) - 1]
        data = b"".join(v.to_bytes(width, "little") for v in values)
        assert list(poly._slot_values(data, width)) == values
        item = min(8, 1 << (width - 1).bit_length())
        swapped = []
        for v in values:
            raw = v.to_bytes(-(-width // item) * item, "little")
            swapped.append(
                sum(int.from_bytes(raw[j : j + item], "big") << 8 * j for j in range(0, len(raw), item))
            )
        native = poly._LITTLE_ENDIAN
        monkeypatch.setattr(poly, "_LITTLE_ENDIAN", not native)
        assert list(poly._slot_values(data, width)) == swapped
        monkeypatch.setattr(poly, "_LITTLE_ENDIAN", native)


def test_slot_bytes_writes_every_width(rng, monkeypatch):
    # _slot_values' inverse: values of 1 to 20 bytes at random slots, zero
    # elsewhere, become little-endian slots; with the host taken for the
    # other byte order, every item of 1, 2, 4 or 8 bytes (each 64-bit limb
    # above 8) is written with its bytes reversed, which is what a native
    # write on a host of that order undoes
    for width in range(1, 21):
        item = min(8, 1 << (width - 1).bit_length())
        length = 40
        slots = rng.sample(range(length), 25)
        values = [rng.getrandbits(8 * width) for _ in range(23)] + [1, (1 << 8 * width) - 1]
        dense = [0] * length
        for k, v in zip(slots, values):
            dense[k] = v
        data = poly._slot_bytes(slots, values, length, width)
        assert data == b"".join(v.to_bytes(width, "little") for v in dense)
        assert list(poly._slot_values(data, width)) == dense

        def swapped(v):
            raw = v.to_bytes(-(-width // item) * item, "little")
            return b"".join(raw[j : j + item][::-1] for j in range(0, len(raw), item))[:width]

        native = poly._LITTLE_ENDIAN
        monkeypatch.setattr(poly, "_LITTLE_ENDIAN", not native)
        assert poly._slot_bytes(slots, values, length, width) == b"".join(map(swapped, dense))
        monkeypatch.setattr(poly, "_LITTLE_ENDIAN", native)


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
