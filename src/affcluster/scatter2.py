"""Rank-2 cluster scattering diagrams by order-by-order consistency, and
broken-line enumeration as an independent oracle for theta functions.

Everything is exact: wall functions are Laurent polynomials truncated by
total tropical degree, geometry runs on integer/Fraction vectors.  The
scattering term on the imaginary wall is never assumed; it is produced by
consistency completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import LaurentPoly, VarContext, default_context
from .seeds import Rows, WeightVec, coroot_scalers, primitive_coroot

Vec2 = Tuple[int, int]


class InconsistentDiagram(AssertionError):
    """Completion could not restore consistency (convention or theory bug)."""


def _primitive(v: Sequence[int]) -> Vec2:
    g = gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def _cross(a: Sequence, b: Sequence):
    return a[0] * b[1] - a[1] * b[0]


@dataclass
class Wall2:
    """A wall: primitive normal in Q^+, a geometric locus (full line for the
    initial walls, ray from the origin otherwise), and a truncated series in
    yhat^normal with constant term 1."""

    normal: Vec2
    direction: Vec2  # a primitive direction vector; full lines use +-direction
    is_line: bool
    series: LaurentPoly


class ScatteringDiagram2:
    """Walls of Scat^T for a 2x2 exchange matrix with principal coefficients,
    completed order by order up to tropical degree `order`."""

    def __init__(self, b: Rows, order: int = 8):
        if len(b) != 2 or len(b[0]) != 2:
            raise ValueError("rank-2 only")
        self.b = tuple(tuple(r) for r in b)
        self.order = order
        self.ctx: VarContext = default_context(2, 2)
        self.e = coroot_scalers(self.b)
        self.walls: List[Wall2] = []
        for i in range(2):
            normal = (1, 0) if i == 0 else (0, 1)
            direction = (0, 1) if i == 0 else (1, 0)
            f = self._one() + self._yhat_monomial((1, 0) if i == 0 else (0, 1))
            self.walls.append(Wall2(normal, direction, True, f))
        self._complete()

    # -- monomials -------------------------------------------------------------

    def _one(self) -> LaurentPoly:
        return LaurentPoly.const(self.ctx, 1)

    def _yhat_monomial(self, m: Vec2, coeff: int = 1) -> LaurentPoly:
        """yhat^m = u^m x^{B m}."""
        bx = (
            self.b[0][0] * m[0] + self.b[0][1] * m[1],
            self.b[1][0] * m[0] + self.b[1][1] * m[1],
        )
        return LaurentPoly.monomial(self.ctx, (bx[0], bx[1], m[0], m[1]), coeff)

    def truncate(self, p: LaurentPoly) -> LaurentPoly:
        return LaurentPoly(
            self.ctx, {e: c for e, c in p.terms.items() if e[2] + e[3] <= self.order}
        )

    def coroot(self, beta: Vec2) -> Vec2:
        """Coordinates of the primitive coroot parallel to beta."""
        return primitive_coroot(beta, self.e)

    def outgoing_direction(self, beta: Vec2) -> Vec2:
        """Direction of the added wall with normal beta: the ray of -B beta."""
        v = (
            -(self.b[0][0] * beta[0] + self.b[0][1] * beta[1]),
            -(self.b[1][0] * beta[0] + self.b[1][1] * beta[1]),
        )
        if v == (0, 0):
            raise InconsistentDiagram("normal with vanishing outgoing direction")
        return _primitive(v)

    # -- wall crossing -----------------------------------------------------------

    def _power(self, wall: Wall2, e: int) -> LaurentPoly:
        cache = getattr(wall, "_pows", None)
        if cache is None:
            cache = {}
            wall._pows = cache  # type: ignore[attr-defined]
        if e not in cache:
            if e >= 0:
                out = self._power_of(wall.series, e)
            else:
                g = wall.series - self._one()
                inv = self._one()
                powg = self._one()
                for _ in range(self.order):
                    powg = self.truncate(powg * g)
                    if not powg:
                        break
                    sign = -1 if _ % 2 == 0 else 1
                    inv = inv + powg.scale(sign)
                out = self._power_of(inv, -e)
            cache[e] = out
        return cache[e]

    def _power_of(self, p: LaurentPoly, e: int) -> LaurentPoly:
        out = self._one()
        for _ in range(e):
            out = self.truncate(out * p)
        return out

    def cross(self, p: LaurentPoly, wall: Wall2, eps: int) -> LaurentPoly:
        """Apply the wall-crossing automorphism: each monomial with weight part
        lambda picks up f^{eps <lambda, normal-check>}."""
        check = self.coroot(wall.normal)
        buckets: Dict[int, Dict[tuple, int]] = {}
        for e, c in p.terms.items():
            a = eps * (e[0] * check[0] + e[1] * check[1])
            buckets.setdefault(a, {})[e] = c
        out = LaurentPoly.zero(self.ctx)
        for a, terms in buckets.items():
            chunk = LaurentPoly(self.ctx, terms)
            if a:
                chunk = self.truncate(chunk * self._power(wall, a))
            out = out + chunk
        return out

    # -- the path-ordered loop product -------------------------------------------

    _BASE = (7, 3)  # interior of the positive chamber, off every wall

    def _sites(self) -> List[Tuple[Vec2, Wall2]]:
        """(direction, wall) per ray of every wall; a full line gives two."""
        sites: List[Tuple[Vec2, Wall2]] = []
        for w in self.walls:
            sites.append((w.direction, w))
            if w.is_line:
                sites.append(((-w.direction[0], -w.direction[1]), w))
        return sites

    def _crossings(self) -> List[Tuple[Vec2, Wall2]]:
        base = self._BASE

        def compare(a: Tuple[Vec2, Wall2], b: Tuple[Vec2, Wall2]) -> int:
            va, vb = a[0], b[0]
            ha = 0 if _cross(base, va) > 0 else 1
            hb = 0 if _cross(base, vb) > 0 else 1
            if ha != hb:
                return ha - hb
            c = _cross(va, vb)
            return 0 if c == 0 else (-1 if c > 0 else 1)

        return sorted(self._sites(), key=cmp_to_key(compare))

    def loop_product(self, generator: int) -> LaurentPoly:
        """Image of x^{rho_generator} under the full counterclockwise loop."""
        start = LaurentPoly.monomial(
            self.ctx, (1, 0, 0, 0) if generator == 0 else (0, 1, 0, 0)
        )
        p = start
        for direction, wall in self._crossings():
            check = self.coroot(wall.normal)
            tangent = (-direction[1], direction[0])
            slope = tangent[0] * check[0] + tangent[1] * check[1]
            if slope == 0:
                raise InconsistentDiagram("tangent crossing (degenerate geometry)")
            eps = 1 if slope < 0 else -1
            p = self.cross(p, wall, eps)
        return p

    def defect(self, generator: int) -> LaurentPoly:
        base = (1, 0, 0, 0) if generator == 0 else (0, 1, 0, 0)
        loop = self.loop_product(generator)
        return loop.shift(tuple(-x for x in base)) - self._one()

    # -- completion ------------------------------------------------------------------

    def _complete(self) -> None:
        by_normal: Dict[Vec2, Wall2] = {}
        for deg in range(2, self.order + 1):
            needed: Dict[Vec2, Dict[int, int]] = {}
            for gen in range(2):
                for e, c in self.defect(gen).terms.items():
                    m = (e[2], e[3])
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
                    wall = Wall2(beta, self.outgoing_direction(beta), False, self._one())
                    by_normal[beta] = wall
                    self.walls.append(wall)
                tangent = (-wall.direction[1], wall.direction[0])
                slope = tangent[0] * check[0] + tangent[1] * check[1]
                eps = 1 if slope < 0 else -1
                denom = eps * check[gen]
                if coeff % denom != 0:
                    raise InconsistentDiagram("non-integer wall correction")
                wall.series = wall.series + self._yhat_monomial(m, -coeff // denom)
                wall._pows = {}  # type: ignore[attr-defined]
            if needed:
                for gen in range(2):
                    if any(
                        e[2] + e[3] <= deg for e in self.defect(gen).terms
                    ):
                        raise InconsistentDiagram(
                            f"completion failed to fix degree {deg}"
                        )

    def consistency_defects(self) -> Tuple[LaurentPoly, LaurentPoly]:
        return self.defect(0), self.defect(1)

    def wall_for_normal(self, beta: Vec2) -> Optional[Wall2]:
        for w in self.walls:
            if w.normal == tuple(beta):
                return w
        return None


def complete_scattering_rank2(b: Rows, order: int = 8) -> ScatteringDiagram2:
    """Build and consistency-complete the rank-2 diagram (deterministic)."""
    return ScatteringDiagram2(b, order)


# -- broken lines ----------------------------------------------------------------

DEFAULT_ENDPOINT = (Fraction(9974, 9973), Fraction(19803, 9901))  # ~ rho1 + 2 rho2


@dataclass(frozen=True)
class BrokenLine2:
    """A realizable bend sequence with its accumulated monomials."""

    picks: Tuple[Tuple[Vec2, Vec2, int], ...]  # (site direction, wall normal, power)
    coeff: int
    weight: Vec2  # final x-exponent (lambda_s)
    tropical: Vec2  # final u-exponent (beta_s)


def enumerate_broken_lines_rank2(
    diagram: ScatteringDiagram2,
    lam: WeightVec,
    endpoint: Tuple[Fraction, Fraction] = DEFAULT_ENDPOINT,
    order: Optional[int] = None,
) -> List[BrokenLine2]:
    """All broken lines for lam with the given generic endpoint, up to the
    diagram's tropical order.

    The search walks the line from infinity: bend points are positions
    s_i * w_i on the crossing sites; the collinearity chain makes every s_i a
    fixed positive multiple of s_1, so sign conditions prune the tree and the
    endpoint equation finally pins s_1 itself."""
    if lam.coords == (0, 0):
        raise ValueError("lambda must be nonzero")
    if order is None:
        order = diagram.order
    sites = diagram._sites()
    out: List[BrokenLine2] = []

    def final_check(path, lam_cur, scale) -> bool:
        """Close the line at the endpoint: solve s_1, recheck positivity."""
        if not path:
            return True  # straight line from infinity always reaches chi
        w_last = path[-1][0]
        den = Fraction(_cross(w_last, lam_cur)) * scale
        if den == 0:
            return False
        s1 = Fraction(_cross(endpoint, lam_cur)) / den
        if s1 <= 0:
            return False
        # positions now absolute; final travel time to chi must be positive
        c_last = scale * s1
        p_last = (c_last * w_last[0], c_last * w_last[1])
        dx = (endpoint[0] - p_last[0], endpoint[1] - p_last[1])
        t = None
        for comp in range(2):
            if lam_cur[comp]:
                t = -Fraction(dx[comp]) / lam_cur[comp]
                break
        return t is not None and t > 0

    def extend(path, lam_cur, m_cur, coeff, scale):
        # try to end here
        if final_check(path, lam_cur, scale):
            out.append(
                BrokenLine2(
                    tuple((p[0], p[1], p[2]) for p in path),
                    coeff,
                    lam_cur,
                    m_cur,
                )
            )
        budget = order - (m_cur[0] + m_cur[1])
        if budget <= 0:
            return
        for direction, wall in sites:
            beta = wall.normal
            check = diagram.coroot(beta)
            e = lam_cur[0] * check[0] + lam_cur[1] * check[1]
            if e == 0:
                continue
            power = diagram._power(wall, abs(e))
            if path:
                w_prev = path[-1][0]
                num = _cross(w_prev, lam_cur)
                den = _cross(direction, lam_cur)
                if den == 0:
                    continue
                new_scale = scale * Fraction(num, den)
                if new_scale <= 0:
                    continue
                # travel direction check: p_next - p_prev = -t lam_cur, t > 0
                delta = (
                    new_scale * direction[0] - scale * w_prev[0],
                    new_scale * direction[1] - scale * w_prev[1],
                )
                t_sign = None
                for comp in range(2):
                    if lam_cur[comp]:
                        t_sign = -delta[comp] / lam_cur[comp]
                        break
                if t_sign is None or t_sign <= 0:
                    continue
            else:
                new_scale = Fraction(1)
                # the unbounded ray travels along -lam_cur and must actually
                # reach the site from its own side; with s_1 free this is
                # always arrangeable except for parallel travel (e == 0).
            for j in range(1, budget // max(1, beta[0] + beta[1]) + 1):
                mvec = (j * beta[0], j * beta[1])
                key = (
                    diagram.b[0][0] * mvec[0] + diagram.b[0][1] * mvec[1],
                    diagram.b[1][0] * mvec[0] + diagram.b[1][1] * mvec[1],
                    mvec[0],
                    mvec[1],
                )
                c = power.terms.get(key, 0)
                if c == 0:
                    continue
                lam_new = (key[0] + lam_cur[0], key[1] + lam_cur[1])
                m_new = (m_cur[0] + mvec[0], m_cur[1] + mvec[1])
                extend(
                    path + [(direction, beta, j)],
                    lam_new,
                    m_new,
                    coeff * c,
                    new_scale,
                )

    extend([], lam.coords, (0, 0), 1, Fraction(1))
    return out


def theta_via_broken_lines(
    diagram: ScatteringDiagram2,
    lam: WeightVec,
    endpoint: Tuple[Fraction, Fraction] = DEFAULT_ENDPOINT,
    order: Optional[int] = None,
) -> LaurentPoly:
    """Sum of final monomials over broken lines (truncated theta function)."""
    if lam.coords == (0, 0):
        return LaurentPoly.const(diagram.ctx, 1)
    lines = enumerate_broken_lines_rank2(diagram, lam, endpoint, order)
    total = LaurentPoly.zero(diagram.ctx)
    for bl in lines:
        total = total + LaurentPoly.monomial(
            diagram.ctx,
            (bl.weight[0], bl.weight[1], bl.tropical[0], bl.tropical[1]),
            bl.coeff,
        )
    return total


def pair_structure_constant(
    diagram: ScatteringDiagram2,
    p1: WeightVec,
    p2: WeightVec,
    lam: WeightVec,
    endpoint: Tuple[Fraction, Fraction],
    order: Optional[int] = None,
) -> LaurentPoly:
    """a_chi(p1, p2, lam): sum of c1 c2 y^{b1+b2} over pairs of broken lines
    with final weights adding to lam, both ending at chi."""
    lines1 = enumerate_broken_lines_rank2(diagram, p1, endpoint, order)
    lines2 = enumerate_broken_lines_rank2(diagram, p2, endpoint, order)
    total = LaurentPoly.zero(diagram.ctx)
    for s1 in lines1:
        for s2 in lines2:
            if (
                s1.weight[0] + s2.weight[0] == lam.coords[0]
                and s1.weight[1] + s2.weight[1] == lam.coords[1]
            ):
                total = total + LaurentPoly.monomial(
                    diagram.ctx,
                    (0, 0, s1.tropical[0] + s2.tropical[0], s1.tropical[1] + s2.tropical[1]),
                    s1.coeff * s2.coeff,
                )
    return total
