"""Rank-2 cluster scattering diagrams by order-by-order consistency, and
broken-line enumeration as an independent oracle for theta functions.

Everything is exact.  A wall with primitive normal n = (n1, n2) carries its
function as the coefficient list c[0..K] of a power series in t = yhat^n,
with c[0] = 1 and K = order // (n1 + n2), the largest power of t within
tropical degree `order`.  Its powers f^a, a of either sign, are built one
factor at a time from truncated list products and cached on the wall; f^-1
comes from the recursion inv[k] = -sum_{j=1..k} c[j] inv[k-j].

Every monomial of a loop product that starts at x^{e_gen} is
x^{e_gen + B m} u^m, so wall crossing works on pointed term maps m -> c and
stops each inner loop at tropical degree `order` instead of truncating a
full product.  A LaurentPoly is built only at the output edge: Wall2.series
and the broken-line sums.  The scattering term on the imaginary wall is
never assumed; it is produced by consistency completion.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm

from .poly import Exponent, LaurentPoly, VarContext, default_context
from .seeds import Rows, WeightVec, coroot_scalers, primitive_coroot

Vec2 = tuple[int, int]
# a pointed term map: m -> c stands for c x^{start + B m} u^m
Terms = dict[Vec2, int]


class InconsistentDiagram(AssertionError):
    """Completion could not restore consistency (convention or theory bug)."""


def _primitive(v: Sequence[int]) -> Vec2:
    g = gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def _cross(a: Sequence, b: Sequence):
    return a[0] * b[1] - a[1] * b[0]


def _mul_truncated(p: list[int], q: list[int]) -> list[int]:
    """The product of two power series in t, both with len(p) coefficients,
    truncated to that length."""
    return [sum(p[j] * q[k - j] for j in range(k + 1)) for k in range(len(p))]


_CTX: VarContext = default_context(2, 2)


class Wall2:
    """A wall: primitive normal in Q^+, a geometric locus (full line for the
    initial walls, ray from the origin otherwise), and a series in
    t = yhat^normal with constant term 1, stored as the coefficient list
    `coeffs` (coeffs[k] multiplies t^k).

    An initial wall keeps its binomial 1 + t untruncated, so at order 0
    `series` (and `scatter2 --order 0`) still reads 1 + yhat^normal, while
    every power of it is truncated to degree 0.

    Mutable and unhashable; `powers` is a cache, left out of == and repr."""

    __slots__ = ("normal", "direction", "is_line", "coroot", "yhat", "coeffs", "powers")

    def __init__(
        self,
        normal: Vec2,
        direction: Vec2,  # a primitive direction vector; full lines use +-direction
        is_line: bool,
        coroot: Vec2,  # the primitive coroot parallel to normal
        yhat: Exponent,  # exponent of yhat^normal = x^{B normal} u^normal
        coeffs: list[int],
    ) -> None:
        self.normal = normal
        self.direction = direction
        self.is_line = is_line
        self.coroot = coroot
        self.yhat = yhat
        self.coeffs = coeffs
        # f^a by exponent a, truncated at the diagram's order; cleared on change
        self.powers: dict[int, list[int]] = {}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.normal, self.direction, self.is_line, self.coroot, self.yhat, self.coeffs) == (
            other.normal, other.direction, other.is_line, other.coroot, other.yhat, other.coeffs
        )

    def __repr__(self) -> str:
        return (
            f"Wall2(normal={self.normal!r}, direction={self.direction!r}, "
            f"is_line={self.is_line!r}, coroot={self.coroot!r}, yhat={self.yhat!r}, "
            f"coeffs={self.coeffs!r})"
        )

    @property
    def series(self) -> LaurentPoly:
        """The wall function as a LaurentPoly in (x1, x2, u1, u2)."""
        return LaurentPoly(
            _CTX,
            {tuple(k * s for s in self.yhat): c for k, c in enumerate(self.coeffs)},
        )


class ScatteringDiagram2:
    """Walls of Scat^T for a 2x2 exchange matrix with principal coefficients,
    completed order by order up to tropical degree `order`."""

    def __init__(self, b: Rows, order: int = 8):
        if len(b) != 2 or len(b[0]) != 2:
            raise ValueError("rank-2 only")
        self.b = tuple(tuple(r) for r in b)
        self.order = order
        self.ctx: VarContext = _CTX
        self.e = coroot_scalers(self.b)
        self.walls: list[Wall2] = []
        for i in range(2):
            normal = (1, 0) if i == 0 else (0, 1)
            direction = (0, 1) if i == 0 else (1, 0)
            self.walls.append(self._wall(normal, direction, True, [1, 1]))
        self._complete()

    def _wall(self, normal: Vec2, direction: Vec2, is_line: bool, coeffs: list[int]) -> Wall2:
        return Wall2(
            normal, direction, is_line, self.coroot(normal), self._yhat(normal), coeffs
        )

    # -- monomials -------------------------------------------------------------

    def _yhat(self, m: Vec2) -> Exponent:
        """Exponent of yhat^m = u^m x^{B m} in (x1, x2, u1, u2)."""
        return (
            self.b[0][0] * m[0] + self.b[0][1] * m[1],
            self.b[1][0] * m[0] + self.b[1][1] * m[1],
            m[0],
            m[1],
        )

    def coroot(self, beta: Vec2) -> Vec2:
        """Coordinates of the primitive coroot parallel to beta."""
        return primitive_coroot(beta, self.e)

    def outgoing_direction(self, beta: Vec2) -> Vec2:
        """Direction of the added wall with normal beta: the ray of -B beta."""
        bx = self._yhat(beta)
        v = (-bx[0], -bx[1])
        if v == (0, 0):
            raise InconsistentDiagram("normal with vanishing outgoing direction")
        return _primitive(v)

    # -- wall crossing -----------------------------------------------------------

    def _power(self, wall: Wall2, a: int) -> list[int]:
        """Coefficients of f^a in t = yhat^normal, a of either sign, truncated
        to t^K with K = order // (n1 + n2).  f^-1 comes from
        inv[k] = -sum_{j=1..k} c[j] inv[k-j]; every other power is one factor
        f (or f^-1) times the cached power of the same sign nearest to a."""
        pows = wall.powers
        if not pows:
            size = self.order // (wall.normal[0] + wall.normal[1]) + 1
            f = (wall.coeffs + [0] * size)[:size]
            inv = [1] + [0] * (size - 1)
            for k in range(1, size):
                inv[k] = -sum(f[j] * inv[k - j] for j in range(1, k + 1))
            pows[1], pows[-1] = f, inv
        step = 1 if a > 0 else -1
        e = a
        while e not in pows:
            e -= step
        out = pows[e]
        while e != a:
            e += step
            out = pows[e] = _mul_truncated(out, pows[step])
        return out

    def _sign(self, direction: Vec2, wall: Wall2) -> int:
        """The exponent sign of a counterclockwise crossing of the wall's ray
        along `direction`."""
        check = wall.coroot
        slope = direction[0] * check[1] - direction[1] * check[0]
        if slope == 0:
            raise InconsistentDiagram("tangent crossing (degenerate geometry)")
        return 1 if slope < 0 else -1

    def cross(self, p: Terms, start: Vec2, wall: Wall2, eps: int) -> Terms:
        """Apply the wall-crossing automorphism to the term map p pointed at
        x^start: the monomial x^{start + B m} u^m picks up
        f^{eps <start + B m, normal-check>}, truncated at tropical degree
        `order` term by term."""
        check = wall.coroot
        b = self.b
        base = start[0] * check[0] + start[1] * check[1]
        w0 = b[0][0] * check[0] + b[1][0] * check[1]
        w1 = b[0][1] * check[0] + b[1][1] * check[1]
        n0, n1 = wall.normal
        size = n0 + n1
        order = self.order
        out: Terms = {}
        get = out.get
        for m, c in p.items():
            m0, m1 = m
            a = eps * (base + w0 * m0 + w1 * m1)
            if not a:
                out[m] = get(m, 0) + c
                continue
            power = self._power(wall, a)
            for k in range((order - m0 - m1) // size + 1):
                pk = power[k]
                if pk:
                    key = (m0 + k * n0, m1 + k * n1)
                    out[key] = get(key, 0) + c * pk
        return {m: c for m, c in out.items() if c}

    # -- the path-ordered loop product -------------------------------------------

    _BASE = (7, 3)  # interior of the positive chamber, off every wall

    def _sites(self) -> list[tuple[Vec2, Wall2]]:
        """(direction, wall) per ray of every wall; a full line gives two."""
        sites: list[tuple[Vec2, Wall2]] = []
        for w in self.walls:
            sites.append((w.direction, w))
            if w.is_line:
                sites.append(((-w.direction[0], -w.direction[1]), w))
        return sites

    def _crossings(self) -> list[tuple[Vec2, Wall2]]:
        base = self._BASE

        def compare(a: tuple[Vec2, Wall2], b: tuple[Vec2, Wall2]) -> int:
            va, vb = a[0], b[0]
            ha = 0 if _cross(base, va) > 0 else 1
            hb = 0 if _cross(base, vb) > 0 else 1
            if ha != hb:
                return ha - hb
            c = _cross(va, vb)
            return 0 if c == 0 else (-1 if c > 0 else 1)

        return sorted(self._sites(), key=cmp_to_key(compare))

    def loop_product(self, generator: int) -> Terms:
        """Image of x^{rho_generator} under the full counterclockwise loop,
        as the term map m -> c of x^{rho_generator + B m} u^m."""
        start = (1, 0) if generator == 0 else (0, 1)
        p: Terms = {(0, 0): 1}
        for direction, wall in self._crossings():
            p = self.cross(p, start, wall, self._sign(direction, wall))
        return p

    def _defect_terms(self, generator: int) -> Terms:
        """The loop product divided by its start, minus 1, as m -> c of
        c yhat^m."""
        terms = self.loop_product(generator)
        terms[(0, 0)] = terms.get((0, 0), 0) - 1
        if not terms[(0, 0)]:
            del terms[(0, 0)]
        return terms

    # -- completion ------------------------------------------------------------------

    def _complete(self) -> None:
        by_normal: dict[Vec2, Wall2] = {}
        defects: list[Terms] = []
        for deg in range(2, self.order + 1):
            # the walls change only when a degree needs corrections, so the
            # previous degree's recheck already holds this degree's defects
            if not defects:
                defects = [self._defect_terms(gen) for gen in range(2)]
            needed: dict[Vec2, dict[int, int]] = {}
            for gen, terms in enumerate(defects):
                for m, c in terms.items():
                    total = m[0] + m[1]
                    if total < deg:
                        raise InconsistentDiagram(
                            f"defect at degree {total} survived earlier completion"
                        )
                    if total == deg:
                        needed.setdefault(m, {})[gen] = c
            for m in sorted(needed):
                beta = _primitive(m)
                check = self.coroot(beta)
                usable = [g for g in (0, 1) if check[g] != 0 and needed[m].get(g)]
                if not usable:
                    continue  # the degree-deg recheck below fails loudly if real
                gen = usable[0]
                coeff = needed[m][gen]
                wall = by_normal.get(beta)
                if wall is None:
                    top = self.order // (beta[0] + beta[1])
                    wall = self._wall(
                        beta, self.outgoing_direction(beta), False, [1] + [0] * top
                    )
                    by_normal[beta] = wall
                    self.walls.append(wall)
                denom = self._sign(wall.direction, wall) * check[gen]
                if coeff % denom != 0:
                    raise InconsistentDiagram("non-integer wall correction")
                k = m[0] // beta[0] if beta[0] else m[1] // beta[1]
                wall.coeffs[k] += -coeff // denom
                wall.powers.clear()
            if needed:
                defects = [self._defect_terms(gen) for gen in range(2)]
                for terms in defects:
                    if any(m[0] + m[1] <= deg for m in terms):
                        raise InconsistentDiagram(
                            f"completion failed to fix degree {deg}"
                        )


def complete_scattering_rank2(b: Rows, order: int = 8) -> ScatteringDiagram2:
    """Build and consistency-complete the rank-2 diagram (deterministic)."""
    return ScatteringDiagram2(b, order)


# -- broken lines ----------------------------------------------------------------

DEFAULT_ENDPOINT = (Fraction(9974, 9973), Fraction(19803, 9901))  # ~ rho1 + 2 rho2


class BrokenLine2(namedtuple("BrokenLine2", "picks coeff weight tropical")):
    """A realizable bend sequence with its accumulated monomials: picks holds
    (site direction, wall normal, power) per bend, weight is the final
    x-exponent (lambda_s) and tropical the final u-exponent (beta_s)."""

    __slots__ = ()


def enumerate_broken_lines_rank2(
    diagram: ScatteringDiagram2,
    lam: WeightVec,
    endpoint: tuple[Fraction, Fraction] = DEFAULT_ENDPOINT,
) -> list[BrokenLine2]:
    """All broken lines for lam with the given generic endpoint, up to the
    diagram's tropical order.

    The search walks the line from infinity: bend points are positions
    s_i * w_i on the crossing sites; the collinearity chain makes every s_i a
    fixed positive multiple of s_1, so sign conditions prune the tree and the
    endpoint equation finally pins s_1 itself.  A bend at a wall with
    exponent e picks the coefficient of t^j in f^|e|, t = yhat^normal.

    Every sign test is an integer cross product.  The multiple
    s_i / s_1 = cross(w_prev, lam) / cross(w, lam) times the previous one
    must be positive; the travel time to the next bend is
    -s_i cross(w_prev, w) / cross(w, lam), and from the last bend to the
    endpoint chi it is -cross(w_last, chi) / cross(w_last, lam), with
    s_1 > 0 exactly when cross(chi, lam) / cross(w_last, lam) is.  So the
    magnitude of each multiple never matters, and chi enters scaled by the
    common denominator of its coordinates."""
    if lam.coords == (0, 0):
        raise ValueError("lambda must be nonzero")
    sites = diagram._sites()
    q = lcm(endpoint[0].denominator, endpoint[1].denominator)
    chi = tuple(x.numerator * (q // x.denominator) for x in endpoint)
    out: list[BrokenLine2] = []

    def final_check(path, lam_cur) -> bool:
        """Close the line at the endpoint: s_1 and the final travel time to
        chi must be positive."""
        if not path:
            return True  # straight line from infinity always reaches chi
        w_last = path[-1][0]
        side = _cross(w_last, lam_cur)
        return side != 0 and _cross(chi, lam_cur) * side > 0 and _cross(w_last, chi) * side < 0

    def extend(path, lam_cur, m_cur, coeff):
        # try to end here
        if final_check(path, lam_cur):
            out.append(BrokenLine2(tuple(path), coeff, lam_cur, m_cur))
        budget = diagram.order - (m_cur[0] + m_cur[1])
        if budget <= 0:
            return
        for direction, wall in sites:
            check = wall.coroot
            e = lam_cur[0] * check[0] + lam_cur[1] * check[1]
            if e == 0:
                continue
            if path:
                w_prev = path[-1][0]
                side = _cross(direction, lam_cur)
                # a positive next multiple, then travel along -lam_cur
                # (p_next - p_prev = -t lam_cur) for a time t > 0
                if side == 0 or _cross(w_prev, lam_cur) * side <= 0:
                    continue
                if _cross(w_prev, direction) * side >= 0:
                    continue
            # else the unbounded ray travels along -lam_cur and must actually
            # reach the site from its own side; with s_1 free this is always
            # arrangeable except for parallel travel (e == 0).
            power = diagram._power(wall, abs(e))
            beta, step = wall.normal, wall.yhat
            for j in range(1, min(budget // (beta[0] + beta[1]) + 1, len(power))):
                c = power[j]
                if c == 0:
                    continue
                extend(
                    path + [(direction, beta, j)],
                    (lam_cur[0] + j * step[0], lam_cur[1] + j * step[1]),
                    (m_cur[0] + j * beta[0], m_cur[1] + j * beta[1]),
                    coeff * c,
                )

    extend([], lam.coords, (0, 0), 1)
    return out


def _sum_monomials(ctx: VarContext, monomials) -> LaurentPoly:
    """One LaurentPoly from (exponent, coefficient) pairs, like exponents
    added together."""
    total: dict[Exponent, int] = {}
    for e, c in monomials:
        total[e] = total.get(e, 0) + c
    return LaurentPoly(ctx, total)


def theta_via_broken_lines(
    diagram: ScatteringDiagram2,
    lam: WeightVec,
    endpoint: tuple[Fraction, Fraction] = DEFAULT_ENDPOINT,
) -> LaurentPoly:
    """Sum of final monomials over broken lines (truncated theta function)."""
    if lam.coords == (0, 0):
        return LaurentPoly.const(diagram.ctx, 1)
    lines = enumerate_broken_lines_rank2(diagram, lam, endpoint)
    return _sum_monomials(
        diagram.ctx, ((bl.weight + bl.tropical, bl.coeff) for bl in lines)
    )
