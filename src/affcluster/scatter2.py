"""Rank-2 cluster scattering diagrams by one slope-ordered factorization,
and broken-line enumeration as an independent oracle for theta functions.

Everything is exact.  A wall with primitive normal n = (n1, n2) carries its
function as the coefficient list c[0..K] of a power series in t = yhat^n,
with c[0] = 1 and K = order // (n1 + n2), the largest power of t within
tropical degree `order`.  Its power f^a, for any integer a, comes in one
pass from the recurrence k h[k] = sum_{j=1..k} (a j - (k - j)) c[j] h[k-j]
for h = f^a, and the same recurrence solved for c gives the exact a-th
root of a series.

A rank-2 diagram is consistent when its loop product is the identity, so
the outgoing walls are the Kontsevich-Soibelman factorization of the two
initial wall-crossings into a slope-ordered product (Gross-Pandharipande-
Siebert, Quivers, curves, and the tropical vertex, 2010; GHKK, JAMS 2018,
section 1.2).  Completion applies the inverse initial crossings to x^{e_1}
once and reads each outgoing wall off the result as a root, peeling the
walls in slope order (ScatteringDiagram2._complete).

Every monomial of a loop product that starts at x^{e_gen} is
x^{e_gen + B m} u^m, so wall crossing works on pointed term maps m -> c and
stops each inner loop at tropical degree `order` instead of truncating a
full product.  A LaurentPoly is built only at the output edge: Wall2.series
and the broken-line sums.  The scattering term on the imaginary wall is
never assumed; it is produced by the factorization.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
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


def _root(h: list[int], a: int) -> list[int]:
    """The series f with f^a = h (a != 0, h[0] = 1), to the length of h:
    the power recurrence of ScatteringDiagram2._power solved for f[k], whose
    term there is a k f[k].  Raises InconsistentDiagram unless f is
    integral."""
    f = [1] + [0] * (len(h) - 1)
    for k in range(1, len(h)):
        rest = k * h[k] - sum((a * j - (k - j)) * f[j] * h[k - j] for j in range(1, k))
        f[k], remainder = divmod(rest, a * k)
        if remainder:
            raise InconsistentDiagram("non-integer wall correction")
    return f


_CTX: VarContext = default_context(2, 2)


class Wall2:
    """A wall: primitive normal in Q^+, a geometric locus (full line for the
    initial walls, ray from the origin otherwise), and a series in
    t = yhat^normal with constant term 1, stored as the coefficient list
    `coeffs` (coeffs[k] multiplies t^k).

    An initial wall keeps its binomial 1 + t untruncated, so at order 0
    `series` (and `scatter2 --order 0`) still reads 1 + yhat^normal, while
    every power of it is truncated to degree 0.  An outgoing wall's list is
    the exact root that completion reads off the factorization, with
    order // (n1 + n2) + 1 entries.

    Mutable and unhashable."""

    __slots__ = ("normal", "direction", "is_line", "coroot", "yhat", "coeffs")

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
    completed up to tropical degree `order` by factoring the initial
    wall-crossings."""

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
        """Coefficients of f^a in t = yhat^normal for any integer a, truncated
        to t^K with K = order // (n1 + n2), in one pass: t h' f = a t f' h
        for h = f^a gives k h[k] = sum_{j=1..k} (a j - (k - j)) f[j] h[k-j],
        an exact division by k since h is integral.  The sum runs over the
        nonzero f[j] only, so a binomial wall costs one term per k."""
        size = self.order // (wall.normal[0] + wall.normal[1]) + 1
        terms = [(j, c) for j, c in enumerate(wall.coeffs[:size]) if j and c]
        h = [1] + [0] * (size - 1)
        for k in range(1, size):
            h[k] = sum((a * j - (k - j)) * c * h[k - j] for j, c in terms if j <= k) // k
        return h

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
        powers: dict[int, list[int]] = {}
        for m, c in p.items():
            m0, m1 = m
            a = eps * (base + w0 * m0 + w1 * m1)
            if not a:
                out[m] = get(m, 0) + c
                continue
            power = powers.get(a)
            if power is None:
                power = powers[a] = self._power(wall, a)
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
        """Add the outgoing walls by factoring the initial wall-crossings.

        In rank 2 a diagram is consistent when the loop product is the
        identity, so the outgoing block of crossings equals the inverse of
        the initial crossings around it: the Kontsevich-Soibelman
        factorization into a slope-ordered product (Gross-Pandharipande-
        Siebert, Quivers, curves, and the tropical vertex, 2010; GHKK, JAMS
        2018, section 1.2).  Every candidate normal, primitive beta > 0 with
        |beta| <= order, gets a ray at -B beta, and the block's image of
        x^{e_1} is read off the inverse crossings of the initial rays.  The
        block is then peeled from its last crossing back to its first.  The
        normals of the crossings not yet peeled lie strictly on one side of
        the last one's beta, so the terms on multiples of beta come from
        that wall alone: they are f_beta^a with a = eps <e_1, beta-check>,
        and f_beta is their exact a-th root.  A root 1 means no wall.  The
        walls kept are listed in the order of the degree, then the
        exponent, of their first correction, and both loop products are
        checked once at the end."""
        b = self.b
        if b[0][0] or b[0][1] or b[1][0] or b[1][1]:  # B = 0: the initial walls commute
            self._factor()
        for gen in range(2):
            if self._defect_terms(gen):
                raise InconsistentDiagram(f"completion left a defect on generator {gen}")

    def _factor(self) -> None:
        """Set the outgoing walls from the factorization of x^{e_1}."""
        order = self.order
        initial = self.walls
        self.walls = initial + [
            self._wall(beta, self.outgoing_direction(beta), False, [])
            for total in range(2, order + 1)
            for beta in ((i, total - i) for i in range(1, total))
            if gcd(*beta) == 1
        ]
        crossings = self._crossings()
        self.walls = initial
        block = [i for i, (_, w) in enumerate(crossings) if not w.is_line]
        if not block:
            return
        lo, hi = block[0], block[-1] + 1
        start = (1, 0)
        p: Terms = {(0, 0): 1}
        for direction, wall in reversed(crossings[hi:] + crossings[:lo]):
            p = self.cross(p, start, wall, -self._sign(direction, wall))
        kept: list[tuple[tuple[int, Vec2], Wall2]] = []
        for direction, wall in reversed(crossings[lo:hi]):
            eps = self._sign(direction, wall)
            n0, n1 = wall.normal
            f = _root(
                [p.get((k * n0, k * n1), 0) for k in range(order // (n0 + n1) + 1)],
                eps * wall.coroot[0],
            )
            k = next((k for k, c in enumerate(f) if k and c), 0)
            if k:
                wall.coeffs = f
                kept.append(((k * (n0 + n1), (k * n0, k * n1)), wall))
                p = self.cross(p, start, wall, -eps)
        kept.sort(key=lambda item: item[0])
        self.walls = initial + [wall for _, wall in kept]


def complete_scattering_rank2(b: Rows, order: int = 8) -> ScatteringDiagram2:
    """Build and consistency-complete the rank-2 diagram (deterministic)."""
    return ScatteringDiagram2(b, order)


# -- broken lines ----------------------------------------------------------------

# (9974/9973, 19803/9901) ~ rho1 + 2 rho2, times 9973 * 9901: the tests read only its ray
DEFAULT_ENDPOINT = (9974 * 9901, 19803 * 9973)


class BrokenLine2(namedtuple("BrokenLine2", "picks coeff weight tropical")):
    """A realizable bend sequence with its accumulated monomials: picks holds
    (site direction, wall normal, power) per bend, weight is the final
    x-exponent (lambda_s) and tropical the final u-exponent (beta_s)."""

    __slots__ = ()


def enumerate_broken_lines_rank2(
    diagram: ScatteringDiagram2,
    lam: WeightVec,
    endpoint: Vec2 = DEFAULT_ENDPOINT,
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
    magnitude of each multiple never matters, and chi (ints or Fractions)
    enters scaled by the common denominator of its coordinates."""
    if lam.coords == (0, 0):
        raise ValueError("lambda must be nonzero")
    sites = diagram._sites()
    q = lcm(endpoint[0].denominator, endpoint[1].denominator)
    chi = tuple(x.numerator * (q // x.denominator) for x in endpoint)
    out: list[BrokenLine2] = []
    powers: dict[tuple[Vec2, int], list[int]] = {}  # (normal, |e|) -> f^|e|

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
            power = powers.get((wall.normal, abs(e)))
            if power is None:
                power = powers[wall.normal, abs(e)] = diagram._power(wall, abs(e))
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
    endpoint: Vec2 = DEFAULT_ENDPOINT,
) -> LaurentPoly:
    """Sum of final monomials over broken lines (truncated theta function)."""
    if lam.coords == (0, 0):
        return LaurentPoly.const(diagram.ctx, 1)
    lines = enumerate_broken_lines_rank2(diagram, lam, endpoint)
    return _sum_monomials(
        diagram.ctx, ((bl.weight + bl.tropical, bl.coeff) for bl in lines)
    )
