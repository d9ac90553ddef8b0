"""Exact multivariate Laurent polynomial arithmetic over the integers.

A Laurent polynomial is a dictionary mapping exponent tuples to nonzero
integer coefficients.  Exponents may be negative in every position, so the
representation is exact and identity testing is fully reliable.

  LaurentPoly.terms :  Dict[Tuple[int, ...], int]

Every polynomial belongs to a VarContext naming two groups of variables:
n "cluster" variables followed by m "tropical" variables.  The split only
matters to pointed_split and pointed_form; arithmetic treats all
n+m positions alike.  The zero polynomial is the empty dict.

mul_terms multiplies two such term maps without a context, by one of
three routes chosen from the operand sizes and the product's exponent box.
Few term pairs, or fewer pairs than lattice points in the box, or a box
over 2^20 lattice points, go through the term-by-term loop of
LaurentPoly.__mul__.  A denser box (the F-polynomials of d4t theta
functions fill a third to a half of theirs) is packed by Kronecker
substitution, one slot per lattice point.  When one operand has few terms,
the other becomes one Python int and is shifted and added once per term of
the first.  Otherwise both become Decimals, each slot a run of decimal
digits, and are multiplied once: libmpdec multiplies large numbers with a
number-theoretic transform, where CPython's int multiply is Karatsuba, and
a context that traps every inexact result keeps the multiply integer
arithmetic.  Either way the slots of the result are read back through a
memoryview.
"""

from __future__ import annotations

import decimal
import heapq
import json
import re
import sys
from array import array
from dataclasses import dataclass
from itertools import compress, groupby, product, repeat, tee
from math import isqrt, prod
from operator import add, itemgetter, lshift, lt, mul, neg, not_, sub
from typing import Dict, Iterable, Mapping, Tuple

Exponent = Tuple[int, ...]


class ContextMismatch(ValueError):
    """Operands belong to different VarContexts."""


class NotDivisible(ArithmeticError):
    """exact_div found no Laurent polynomial quotient."""


class NonInvertibleImage(ValueError):
    """substitute mapped a negatively-powered variable to a non-unit."""


class NotPointed(ValueError):
    """pointed_form found no x^g * (1 + tail) decomposition."""


@dataclass(frozen=True)
class VarContext:
    """Fixed, ordered variable set: n cluster variables then m tropical ones."""

    n: int
    m: int
    names: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one cluster variable")
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if len(self.names) != self.n + self.m:
            raise ValueError("names must have length n+m")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")

    @property
    def nvars(self) -> int:
        return self.n + self.m


def _default_names(n: int, m: int) -> Tuple[str, ...]:
    return tuple(f"x{i+1}" for i in range(n)) + tuple(f"u{i+1}" for i in range(m))


def default_context(n: int, m: int) -> VarContext:
    """Context named x1..xn, u1..um."""
    return VarContext(n, m, _default_names(n, m))


def _grlex_key(e: Exponent) -> Tuple[int, Exponent]:
    return (sum(e), e)


def _sparse_product(f: Mapping[Exponent, int], g: Mapping[Exponent, int]) -> Dict[Exponent, int]:
    """Term-by-term product; the result may hold zero coefficients."""
    out: Dict[Exponent, int] = {}
    get = out.get
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return out


# The rule in mul_terms, from the costs measured there: below _BOX_PAIRS
# pairs of terms the term-by-term loop is cheapest, since setting up a box
# costs about 15 us; above, the product is packed when it has at least
# _PAIRS_PER_SLOT pairs per slot of its box (the measured crossover lies
# between 0.9 and 1.4) and the box has at most _MAX_SLOTS slots, since a
# packed product holds several buffers of box * slot width bytes.  A
# packed product whose smaller operand has at most _SHIFT_TERMS terms, and
# which is not a square, is a shift and add per term of it instead of the
# decimal multiply.  Measured on d4t F-polynomials, with theta_delta (22
# terms) or the first 96 to 634 terms of theta_3delta as the smaller
# operand against operands of 634 to 10,194 terms, shift and add takes
# 0.42 to 0.89 times the decimal multiply's time up to 256 terms, 0.81 to
# 1.02 times at 320, and 1.03 to 1.51 times from 384 terms on.
_BOX_PAIRS = 32
_PAIRS_PER_SLOT = 1
_MAX_SLOTS = 1 << 20
_SHIFT_TERMS = 320


# The context of the decimal multiply step.  Its precision and exponent
# range hold any integer the step makes, and every signal that a result was
# not exact is a trap, so the step is integer arithmetic or it raises.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)
# ASCII digits to their values
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def mul_terms(f: Mapping[Exponent, int], g: Mapping[Exponent, int]) -> Dict[Exponent, int]:
    """The product of two term maps {exponent tuple: nonzero int}, with only
    nonzero coefficients kept.  Exponents may be negative.

    A product with few term pairs, or with fewer pairs than lattice points
    in its exponent box lo <= e <= hi, runs the term-by-term loop of
    LaurentPoly.__mul__.  Otherwise it is packed by Kronecker substitution
    (_packed_product) and takes one of two multiply steps.  When the smaller
    operand has at most _SHIFT_TERMS terms and the product is not a square,
    the larger operand, packed as an int, is shifted and added once per
    term of the smaller.  Otherwise both operands are packed as Decimals
    and multiplied once: libmpdec multiplies large numbers with a
    number-theoretic transform, O(n log n), where CPython's int multiply is
    Karatsuba, O(n^1.585).

    Costs measured on CPython 3.11 with 2 to 7 variables: a pair of terms
    costs 0.8 to 1.5 us in the loop.  The steps of two packed products of
    d4t F-polynomials, in a box of 111,537 slots of 4 bytes or 9 digits:

                               1,914-term square   19,826 by 22 terms
      pack the operands        4.0 ms (Decimal)    8.9 ms (int)
      multiply                 22.7 ms (NTT)       5.2 ms (shift and add)
      digits to byte slots     9.9 ms              -
      slots to the term map    9.0 ms              10.2 ms

    CPython's Karatsuba multiply takes 83 to 92 ms to square the first
    product's operand packed as an int; the second product takes about
    twice as long through the decimal multiply as by shift and add."""
    pairs = len(f) * len(g)
    if pairs >= _BOX_PAIRS:
        fcols, gcols = list(zip(*f)), list(zip(*g))
        flo = [min(c) for c in fcols]
        glo = [min(c) for c in gcols]
        dims = [max(a) + max(b) - l1 - l2 + 1 for a, b, l1, l2 in zip(fcols, gcols, flo, glo)]
        if prod(dims) <= _MAX_SLOTS and _PAIRS_PER_SLOT * prod(dims) <= pairs:
            return _packed_product(f, fcols, flo, g, gcols, glo, dims)
    return {e: c for e, c in _sparse_product(f, g).items() if c}


def _packed_product(
    f: Mapping[Exponent, int],
    fcols: list,
    flo: list,
    g: Mapping[Exponent, int],
    gcols: list,
    glo: list,
    dims: list,
) -> Dict[Exponent, int]:
    """The product of f and g, whose exponents have the columns fcols and
    gcols with least entries flo and glo, in the box of dims lattice points
    from flo + glo.

    Lattice point e of the product box gets the slot k(e), the row-major
    index of e - flo - glo, so that k(e1 + e2) = k1(e1) + k2(e2) for the
    operands' indices k1(e1) of e1 - flo and k2(e2) of e2 - glo.  Every
    slot of the product holds a coefficient c with |c| < bound, where
    bound^2 > sum c_f^2 * sum c_g^2 (Cauchy-Schwarz).  When both operands
    are nonnegative so is every c, and a slot holds values up to top =
    bound - 1; otherwise bound is added to every slot, making them all
    nonnegative, and a slot holds values up to top = 2 bound - 1.

    There are two multiply steps.  When the smaller operand has at most
    _SHIFT_TERMS terms and is not the other, the larger one is packed as
    the int  sum_e c_e 2^(8 w k(e))  with w bytes per slot, 256^w > top,
    and the product is the sum of c_e times it shifted by 8 w k(e) bits
    over the smaller one's terms: linear time per term.  Otherwise both
    operands are packed as Decimals  sum_e c_e 10^(d (top_k - k(e)))  with
    d digits per slot, 10^d > top, top_k the operand's last slot, so that
    slot k is the string's k-th run of d digits; libmpdec multiplies them
    with a number-theoretic transform, exactly in _EXACT, and the digits
    of the product are its slots in lattice order.  They are read back,
    one strided slice per digit, into slots of w bytes.  Either way the
    slots are then read from the bytes of one integer (_slot_values).

    No packed number is converted between int, str and Decimal: CPython
    3.11 and later refuse int-str conversions past 4,300 digits, and an
    int-Decimal conversion takes quadratic time.  The decimal step writes
    each coefficient's text on its own, so there a coefficient past that
    limit raises ValueError, as it does in to_json_dict."""
    strides = [1] * len(dims)
    for i in range(len(dims) - 1, 0, -1):
        strides[i - 1] = strides[i] * dims[i]
    box = prod(dims)
    if len(f) < len(g):
        f, fcols, flo, g, gcols, glo = g, gcols, glo, f, fcols, flo
    fvalues, gvalues = list(f.values()), list(g.values())
    bound = isqrt(sum(map(mul, fvalues, fvalues)) * sum(map(mul, gvalues, gvalues))) + 1
    signed = min(fvalues) < 0 or min(gvalues) < 0
    top = 2 * bound - 1 if signed else bound - 1
    width = (top.bit_length() + 7) // 8

    def operand(cols: list, lo: list, values: list, pack, minus):
        """pack(slots, coefficients, length) of an operand's positive
        terms, minus that of its negated negative terms."""
        slots = _slot_indices(cols, lo, strides)
        length = sum(map(mul, map(sub, map(max, cols), lo), strides)) + 1
        if min(values) > 0:
            return pack(slots, values, length)
        positive = list(map(lt, repeat(0), values))
        negative = list(map(not_, positive))
        return minus(
            pack(list(compress(slots, positive)), list(compress(values, positive)), length),
            pack(list(compress(slots, negative)), list(map(neg, compress(values, negative))), length),
        )

    if g is not f and len(g) <= _SHIFT_TERMS:

        def pack_binary(slots: list, values: list, length: int) -> int:
            return int.from_bytes(_slot_bytes(slots, values, length, width), "little")

        packed = _shift_and_add(
            operand(fcols, flo, fvalues, pack_binary, sub),
            _slot_indices(gcols, glo, strides),
            gvalues,
            8 * width,
        )
        if signed:
            packed += int.from_bytes(bound.to_bytes(width, "little") * box, "little")
        data = packed.to_bytes(box * width, "little")
    else:
        digits = len(str(top))

        def pack_decimal(slots: list, values: list, length: int) -> decimal.Decimal:
            out = ["0" * digits] * length
            for k, text in zip(slots, map(str.zfill, map(str, values), repeat(digits))):
                out[k] = text
            return _EXACT.create_decimal("".join(out))

        packed_f = operand(fcols, flo, fvalues, pack_decimal, _EXACT.subtract)
        packed_g = packed_f if g is f else operand(gcols, glo, gvalues, pack_decimal, _EXACT.subtract)
        packed = _EXACT.multiply(packed_f, packed_g)
        if signed:
            packed = _EXACT.add(packed, _EXACT.create_decimal(str(bound).zfill(digits) * box))
        text = str(packed).encode().zfill(box * digits).translate(_DIGIT_VALUES)
        # Horner in lanes of width bytes: after j digits a lane holds its
        # slot's value cut to the first j digits, at most top < 256^width,
        # so no lane carries into the next
        lane = bytearray(box * width)
        lanes = 0
        for j in range(digits):
            lane[::width] = text[j::digits]
            lanes = lanes * 10 + int.from_bytes(lane, "little")
        data = lanes.to_bytes(box * width, "little")
    lattice = product(*(range(a + b, a + b + d) for a, b, d in zip(flo, glo, dims)))
    values = _slot_values(data, width)
    if signed:
        values = map(sub, values, repeat(bound))
    select, values = tee(values)
    return dict(zip(compress(lattice, select), filter(None, values)))


def _slot_indices(cols: list, lo: list, strides: list) -> list:
    """The row-major index of e - lo for each exponent e, from the columns
    of the exponents."""
    slots: Iterable[int] = repeat(-sum(map(mul, lo, strides)))
    for col, stride in zip(cols, strides):
        slots = map(add, slots, map(mul, col, repeat(stride)))
    return list(slots)


def _shift_and_add(packed: int, slots: list, values: list, bits: int) -> int:
    """packed times sum c 2^(bits k) over the slots k and coefficients c:
    one linear-time multiply per distinct c, and one shift and add per
    term (21 of the 22 coefficients of d4t's theta_delta are 1)."""
    total = 0
    for c, terms in groupby(sorted(zip(values, slots)), itemgetter(0)):
        multiple = packed * c
        total += sum(multiple << k * bits for _, k in terms)
    return total


# memoryview cast and array type codes by item size, since the sizes of C's
# int and long differ across platforms; the packed slots are little-endian
_CAST_CODES = {array(code).itemsize: code for code in "QLIHB"}
_LITTLE_ENDIAN = sys.byteorder == "little"
_LIMB = (1 << 64) - 1


def _item_size(width: int) -> int:
    """The item size that reads slots of width bytes: the next of 1, 2, 4
    or 8 bytes, and 8-byte limbs above 8."""
    return 1 << (width - 1).bit_length() if width <= 8 else 8


def _slot_values(data: bytes, width: int) -> Iterable[int]:
    """The unsigned little-endian slots of width bytes in data, in order.

    The slots are copied, one strided slice per byte, into slots of the
    next item size of 1, 2, 4 or 8 bytes (a multiple of 8 above 8), so that
    a memoryview reads them, or their 64-bit limbs, as native ints.  On a
    big-endian host each item's bytes are reversed in the copy."""
    item = _item_size(width)
    wide = -(-width // item) * item
    if wide == width and _LITTLE_ENDIAN:
        buf = data
    else:
        buf = bytearray(len(data) // width * wide)
        for i in range(width):
            at = i if _LITTLE_ENDIAN else i - i % item + item - 1 - i % item
            buf[at::wide] = data[i::width]
    view = memoryview(buf).cast(_CAST_CODES[item])
    if wide == item:
        return view
    limbs = wide // item
    values: Iterable[int] = view[::limbs]
    for j in range(1, limbs):
        values = map(add, values, map(lshift, view[j::limbs], repeat(64 * j)))
    return values


def _slot_bytes(slots: list, values: list, length: int, width: int) -> bytearray:
    """length unsigned little-endian slots of width bytes, holding the
    values at the slots and zero elsewhere: the inverse of _slot_values.

    The values, or each of their 64-bit limbs in turn, are stored as native
    ints in an array of the next item size and copied into the slots, one
    strided slice per byte."""
    item = _item_size(width)
    data = bytearray(length * width)
    for j in range(0, width, item):
        limb = array(_CAST_CODES[item], bytes(length * item))
        for k, c in zip(slots, values if width <= 8 else [c >> 8 * j & _LIMB for c in values]):
            limb[k] = c
        raw = limb.tobytes()
        for i in range(j, min(width, j + item)):
            data[i::width] = raw[i - j if _LITTLE_ENDIAN else j + item - 1 - i :: item]
    return data


class LaurentPoly:
    """Immutable-by-convention Laurent polynomial attached to a VarContext."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: VarContext, terms: Mapping[Exponent, int]) -> None:
        self.ctx = ctx
        self.terms: Dict[Exponent, int] = {
            e: c for e, c in terms.items() if c != 0
        }
        for e in self.terms:
            if len(e) != ctx.nvars:
                raise ValueError("exponent vector has wrong length")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: VarContext) -> "LaurentPoly":
        return LaurentPoly(ctx, {})

    @staticmethod
    def const(ctx: VarContext, c: int) -> "LaurentPoly":
        return LaurentPoly(ctx, {(0,) * ctx.nvars: c})

    @staticmethod
    def monomial(ctx: VarContext, exponents: Iterable[int], c: int = 1) -> "LaurentPoly":
        return LaurentPoly(ctx, {tuple(exponents): c})

    @staticmethod
    def var(ctx: VarContext, index: int) -> "LaurentPoly":
        e = [0] * ctx.nvars
        e[index] = 1
        return LaurentPoly(ctx, {tuple(e): 1})

    # -- basic protocol ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ctx, self.canonical_key()))

    def canonical_key(self) -> Tuple[Tuple[Exponent, int], ...]:
        """Deterministic term list, graded-lex descending."""
        return tuple(
            (e, self.terms[e])
            for e in sorted(self.terms, key=_grlex_key, reverse=True)
        )

    def _check(self, other: "LaurentPoly") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch("operands live in different variable contexts")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(self.ctx, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        return LaurentPoly(self.ctx, _sparse_product(self.terms, other.terms))

    def scale(self, c: int) -> "LaurentPoly":
        return LaurentPoly(self.ctx, {e: c * v for e, v in self.terms.items()})

    def shift(self, exponents: Iterable[int]) -> "LaurentPoly":
        """Multiply by the monomial with the given exponent vector."""
        d = tuple(exponents)
        return LaurentPoly(
            self.ctx, {tuple(a + b for a, b in zip(e, d)): c for e, c in self.terms.items()}
        )

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            if len(self.terms) == 1:
                ((e, c),) = self.terms.items()
                if c in (1, -1):
                    coeff = c if k % 2 else 1
                    return LaurentPoly.monomial(self.ctx, tuple(k * x for x in e), coeff)
            raise NonInvertibleImage("negative power of a non-unit")
        result = LaurentPoly.const(self.ctx, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- structure helpers ---------------------------------------------------

    def min_exponents(self) -> Exponent:
        """Componentwise minimum exponent over all terms (zero poly gives 0s)."""
        if not self.terms:
            return (0,) * self.ctx.nvars
        cols = zip(*self.terms.keys())
        return tuple(min(col) for col in cols)

    def leading(self) -> Tuple[Exponent, int]:
        """Graded-lex leading term."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.canonical_key():
            factors = []
            for name, k in zip(self.ctx.names, e):
                if k == 1:
                    factors.append(name)
                elif k != 0:
                    factors.append(f"{name}^{k}")
            body = "*".join(factors)
            if not body:
                parts.append(f"{c}")
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Return q with q*b == a, exactly, over integer Laurent polynomials.

    Graded-lex leading-term elimination on the Laurent exponents.  Least
    exponents add under multiplication, so every term of q lies at or above
    min(a) - min(b) componentwise, and a quotient term below that floor
    means no quotient exists.  Above it every remainder term stays at or
    above min(a), where graded-lex order is a well-order, so the loop ends.
    This is the elimination of the operands shifted to ordinary polynomials,
    translated back: graded-lex order is translation-invariant.  Raises
    NotDivisible when no quotient exists.
    """
    a._check(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return LaurentPoly.zero(a.ctx)
    floor = tuple(map(sub, a.min_exponents(), b.min_exponents()))
    r = dict(a.terms)
    lead_e, lead_c = b.leading()
    # the remainder's exponents, largest graded-lex first; an entry whose
    # term has since cancelled is skipped when it comes up
    def key(e: Exponent) -> Tuple[int, Exponent]:
        return (-sum(e), tuple(-x for x in e))

    heap = [key(e) for e in r]
    heapq.heapify(heap)
    quotient: Dict[Exponent, int] = {}
    while r:
        _, neg = heapq.heappop(heap)
        re = tuple(-x for x in neg)
        rc = r.get(re)
        if rc is None:
            continue
        qe = tuple(map(sub, re, lead_e))
        if any(map(lt, qe, floor)) or rc % lead_c != 0:
            raise NotDivisible("no exact Laurent quotient")
        qc = rc // lead_c
        quotient[qe] = qc
        for be, bc in b.terms.items():
            e = tuple(map(add, be, qe))
            c = r.get(e, 0) - qc * bc
            if c:
                if e not in r:
                    heapq.heappush(heap, key(e))
                r[e] = c
            else:
                r.pop(e, None)
    return LaurentPoly(a.ctx, quotient)


def substitute(p: LaurentPoly, images: Mapping[int, LaurentPoly]) -> LaurentPoly:
    """Apply the ring homomorphism sending variable i to images[i].

    Variables absent from the map are sent to themselves.  A variable that
    occurs with a negative exponent anywhere in p must map to an invertible
    monomial (single term, coefficient +-1); otherwise NonInvertibleImage.
    """
    ctx = p.ctx
    for i, img in images.items():
        if img.ctx != ctx:
            raise ContextMismatch("substitution image in a different context")
        if not (0 <= i < ctx.nvars):
            raise ValueError(f"no variable with index {i}")
    mins = p.min_exponents()
    for i, img in images.items():
        if mins[i] < 0:
            if len(img.terms) != 1 or abs(next(iter(img.terms.values()))) != 1:
                raise NonInvertibleImage(
                    f"variable {ctx.names[i]} appears with negative exponent "
                    "but its image is not an invertible monomial"
                )
    power_cache: Dict[Tuple[int, int], LaurentPoly] = {}

    def power(i: int, k: int) -> LaurentPoly:
        key = (i, k)
        if key not in power_cache:
            power_cache[key] = images[i] ** k
        return power_cache[key]

    out: Dict[Exponent, int] = {}
    for e, c in p.terms.items():
        passthrough = tuple(0 if i in images else x for i, x in enumerate(e))
        term = LaurentPoly.monomial(ctx, passthrough, c)
        for i in images:
            if e[i] != 0:
                term = term * power(i, e[i])
        for te, tc in term.terms.items():
            out[te] = out.get(te, 0) + tc
    return LaurentPoly(ctx, out)


def pointed_split(p: LaurentPoly) -> Tuple[Tuple[int, ...], LaurentPoly]:
    """Split p as x^g * tail with tail constant term 1, tail signs unchecked.

    The candidate x^g is the unique term free of the tropical variables; its
    coefficient must be 1.  Theta functions for a mutated extended matrix
    split this way although their tails carry mixed tropical signs.  Returns
    (g, tail) where g is the exponent vector on the cluster variables.
    Raises NotPointed.
    """
    ctx = p.ctx
    trop = range(ctx.n, ctx.nvars)
    free = [e for e in p.terms if all(e[i] == 0 for i in trop)]
    if len(free) != 1:
        raise NotPointed(f"expected one tropical-free term, found {len(free)}")
    g_full = free[0]
    if p.terms[g_full] != 1:
        raise NotPointed("tropical-free term has coefficient != 1")
    return g_full[: ctx.n], p.shift(tuple(-x for x in g_full))


def pointed_form(p: LaurentPoly) -> Tuple[Tuple[int, ...], LaurentPoly]:
    """pointed_split, and every tail term must carry only nonnegative
    tropical exponents.  Raises NotPointed."""
    g, tail = pointed_split(p)
    for e in tail.terms:
        if any(x < 0 for x in e[p.ctx.n :]):
            raise NotPointed("tail term with negative tropical exponent")
    return g, tail


def to_json_dict(p: LaurentPoly) -> dict:
    """JSON form: {"vars": [...], "terms": [{"c": "<int>", "e": [...]}]}."""
    return {
        "vars": list(p.ctx.names),
        "terms": [
            {"c": str(c), "e": list(e)} for e, c in p.canonical_key()
        ],
    }


# str(c) of a nonzero int c: the only coefficient text to_json_dict writes
_COEFFICIENT = re.compile(r"-?[1-9][0-9]*")


def json_int(x) -> int:
    """x itself if it is a JSON integer; a bool, float or string is refused."""
    if type(x) is not int:
        raise ValueError(f"{json.dumps(x)} is not an integer")
    return x


def from_json_dict(d: dict, ctx: VarContext | None = None) -> LaurentPoly:
    """Inverse of to_json_dict, refusing what it could not have written:
    every exponent must be a JSON integer, every coefficient the string
    str(c) of a nonzero int c, and no exponent may appear twice; anything
    else raises ValueError.  Without ctx the variables must carry the
    default names x1..xn, u1..um, which alone tell where the cluster
    variables end; any other naming raises ContextMismatch."""
    names = tuple(d["vars"])
    if ctx is None:
        n = sum(1 for s in names if s.startswith("x"))
        if names != _default_names(n, len(names) - n):
            raise ContextMismatch(
                "JSON variables are not named x1..xn, u1..um; pass their VarContext"
            )
        ctx = VarContext(n, len(names) - n, names)
    elif ctx.names != names:
        raise ContextMismatch("JSON variable list does not match context")
    terms: Dict[Exponent, int] = {}
    for t in d["terms"]:
        e = tuple(map(json_int, t["e"]))
        text = t["c"]
        if type(text) is not str or not _COEFFICIENT.fullmatch(text):
            raise ValueError(f"coefficient {json.dumps(text)} is not a nonzero integer string")
        if e in terms:
            raise ValueError(f"exponent {list(e)} appears twice")
        terms[e] = int(text)
    return LaurentPoly(ctx, terms)
