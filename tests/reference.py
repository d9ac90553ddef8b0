"""Reference computations the tests compare the engine against.

The package holds only what the CLI and the engine run.  The oracles for the
paper's claims (denominator vectors, the dominance chain, theta mutation by
rewriting in the mutated variables, rank-2 structure constants from broken
lines), the Laurent cluster variables of tube generalized seeds, the forms
in Fraction, the dual Coxeter action on weights and the division by shifting
to ordinary polynomials live here.  A function that was
a method takes its object as its first parameter.

The module name has no test_ prefix, so pytest does not collect it; test
files import it by name, as they import test_affine.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from affcluster.affine import AffineData, Tube, _tube_profiles, check_maximal, exchange_partner
from affcluster.gca import ExchangeGraph, GCASeed, _exchange_exponents, gca_mutate
from affcluster.poly import (
    Exponent,
    LaurentPoly,
    NotDivisible,
    VarContext,
    exact_div,
    substitute,
)
from affcluster.scatter2 import (
    InconsistentDiagram,
    ScatteringDiagram2,
    Terms,
    Vec2,
    Wall2,
    _primitive,
    _sum_monomials,
    enumerate_broken_lines_rank2,
)
from affcluster.seeds import (
    RootVec,
    Rows,
    Seed,
    WeightVec,
    _pos,
    column_sign,
    exchange_rhs,
    mutate_seed,
    tropical_monomial,
)
from affcluster.theta import ThetaEngine

# -- affine: forms in Fraction and the Coxeter action of either sign -----------


def omega_form(data: AffineData, v: RootVec, w: RootVec) -> Fraction:
    """omega_c(v, w) for v, w in V (both in simple-root coordinates)."""
    bw = [sum(data.b[i][j] * w.coords[j] for j in range(data.n)) for i in range(data.n)]
    return sum(Fraction(v.coords[i], data.e[i]) * bw[i] for i in range(data.n))


def pair_weight_root(data: AffineData, w: WeightVec, v: RootVec) -> Fraction:
    return sum(Fraction(w.coords[i] * v.coords[i], data.e[i]) for i in range(data.n))


def reflect_weight(data: AffineData, r: int, w: WeightVec) -> WeightVec:
    lr = w.coords[r]
    return WeightVec(tuple(w.coords[j] - data.cartan[j][r] * lr for j in range(data.n)))


def coxeter_root(data: AffineData, v: RootVec, power: int = 1) -> RootVec:
    """c^power on roots, power of either sign."""
    seq = tuple(reversed(data.order)) if power > 0 else data.order
    for _ in range(abs(power)):
        for r in seq:
            v = data.reflect_root(r, v)
    return v


def coxeter_weight(data: AffineData, w: WeightVec, power: int = 1) -> WeightVec:
    seq = tuple(reversed(data.order)) if power > 0 else data.order
    for _ in range(abs(power)):
        for r in seq:
            w = reflect_weight(data, r, w)
    return w


def weight_in_imaginary_wall(data: AffineData, tubes: Sequence[Tube], w: WeightVec) -> bool:
    """Real-cone membership of a weight in d_infinity."""
    phi = data.nu_c_inv(w)
    res = _tube_profiles(data, tubes, phi)
    return res is not None and res[1] >= 0


# -- seeds: denominator vectors, seed enumeration, theta mutation ---------------


def denominator_vector_of(p: LaurentPoly) -> RootVec:
    """Componentwise maximum of negated cluster-variable exponents."""
    if not p:
        raise ValueError("denominator vector of the zero polynomial")
    n = p.ctx.n
    best = [None] * n  # type: List[Optional[int]]
    for e in p.terms:
        for i in range(n):
            v = -e[i]
            if best[i] is None or v > best[i]:
                best[i] = v
    return RootVec(tuple(int(x) for x in best))  # type: ignore[arg-type]


def seed_key(seed: Seed):
    """Deduplication key: matrix entries plus the unordered cluster."""
    return (
        seed.matrix.rows,
        tuple(sorted(p.canonical_key() for p in seed.cluster)),
    )


def enumerate_seeds(seed: Seed, depth: int) -> List[Seed]:
    """All seeds within the given mutation depth, deduplicated by
    (matrix entries, unordered cluster)."""
    seen = {seed_key(seed)}
    out = [seed]
    frontier = [seed]
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for k in range(s.matrix.n):
                s2 = mutate_seed(s, k)
                if seed_key(s2) not in seen:
                    seen.add(seed_key(s2))
                    out.append(s2)
                    nxt.append(s2)
        frontier = nxt
        if not frontier:
            break
    return out


def rewrite_in_mutated_variables(
    seed: Seed, k: int, v: LaurentPoly, label: WeightVec
) -> LaurentPoly:
    """Rewrite a pointed polynomial v (label = its g-vector for seed.matrix)
    in the variables of the seed mutated at k, including the coefficient
    correction y_k^{-[sgn(y_k) <label, alpha_k_check>]_+}.

    The result is expressed in the same symbols, now read as the primed
    variables.  Exactness of the division is part of the claim being tested."""
    ctx = seed.ctx
    n, m = seed.matrix.n, seed.matrix.m
    s = column_sign(seed.matrix, k)
    p = exchange_rhs(seed, k)  # x_k x'_k as a polynomial
    var_k_inv = LaurentPoly.var(ctx, k) ** -1
    image = p * var_k_inv
    shift_k = max(0, -v.min_exponents()[k])
    shifted = v.shift(tuple(shift_k if i == k else 0 for i in range(ctx.nvars)))
    a = substitute(shifted, {k: image})
    exp = -_pos(s * label.coords[k])
    ycol = [seed.matrix.rows[n + i][k] for i in range(m)]
    mult = tropical_monomial(ctx, [exp * y for y in ycol])
    numer = (a * mult).shift(tuple(shift_k if i == k else 0 for i in range(ctx.nvars)))
    return exact_div(numer, p ** shift_k)


# -- gca: Laurent cluster variables and the exchange graph they give -----------


def gca_context(seed: GCASeed) -> VarContext:
    """The variables of a generalized seed's Laurent cluster: a1..an, then
    one tropical variable per slot of seed.zkeys (z<tube>_<position>, zs)."""
    names = [f"a{i+1}" for i in range(seed.rank)]
    names += ["zs" if key == ("star",) else f"z{key[1]}_{key[2]}" for key in seed.zkeys]
    return VarContext(seed.rank, len(seed.zkeys), tuple(names))


def gca_monomial(ctx: VarContext, m: Tuple[int, ...], coeff: int = 1) -> LaurentPoly:
    """The coefficient m, an exponent vector over the z slots, as a monomial."""
    return LaurentPoly.monomial(ctx, (0,) * ctx.n + m, coeff)


def exchange_numerator(
    ctx: VarContext, seed: GCASeed, x: Sequence[LaurentPoly], k: int
) -> LaurentPoly:
    """sum_l p_{k;l} prod_psi x_psi^{[b_psi_k]_+ - l b_psi_k / d_k}, for the
    cluster x of seed."""
    total = LaurentPoly.zero(ctx)
    for ell, exps in enumerate(_exchange_exponents(seed, k)):
        term = gca_monomial(ctx, seed.p[k][ell])
        for psi, epow in exps.items():
            term = term * x[psi] ** epow
        total = total + term
    return total


def laurent_exchange_graph(
    tubes: Sequence[Tube], seed: GCASeed, labels: Tuple
) -> Tuple[ExchangeGraph, List[Tuple[LaurentPoly, ...]]]:
    """The exchange graph by the Laurent route: enumerate_exchange_graph's
    search with each vertex's cluster carried along, the new variable being
    the exact quotient of the exchange numerator by the old one.  A known arc
    set must be re-reached with the same cluster variable at each arc, and no
    two arc sets may share a cluster.  Returns the graph and the clusters."""
    tube_by_index = {t.index: t for t in tubes}
    ctx = gca_context(seed)
    index = {frozenset(labels): 0}
    graph = ExchangeGraph([seed], [labels], [])
    clusters = [tuple(LaurentPoly.var(ctx, i) for i in range(seed.rank))]
    vid = 0
    while vid < len(graph.vertices):
        s, labs, x = graph.vertices[vid], graph.labels[vid], clusters[vid]
        for k, gamma in enumerate(labs):
            tube = tube_by_index[gamma.tube]
            checked = check_maximal(tube, [r for r in labs if r.tube == gamma.tube])
            labs2 = labs[:k] + (exchange_partner(tube, checked, gamma),) + labs[k + 1 :]
            wid = index.setdefault(frozenset(labs2), len(graph.vertices))
            # mutation is an involution: the way back from a later vertex is known
            if wid > vid:
                new = exact_div(exchange_numerator(ctx, s, x, k), x[k])
                x2 = x[:k] + (new,) + x[k + 1 :]
                if wid == len(graph.vertices):
                    graph.vertices.append(gca_mutate(s, k))
                    graph.labels.append(labs2)
                    clusters.append(x2)
                elif dict(zip(labs2, x2)) != dict(zip(graph.labels[wid], clusters[wid])):
                    raise AssertionError("re-reached seed disagrees with its stored vertex")
            graph.edges.append((vid, wid, k))
        vid += 1
    if len({frozenset(x) for x in clusters}) < len(clusters):
        raise AssertionError("two arc sets share a cluster")
    return graph, clusters


# -- scatter2: truncation, consistency defects, structure constants ------------


def truncate(diagram: ScatteringDiagram2, p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly(
        diagram.ctx, {e: c for e, c in p.terms.items() if e[2] + e[3] <= diagram.order}
    )


def defect(diagram: ScatteringDiagram2, generator: int) -> LaurentPoly:
    return LaurentPoly(
        diagram.ctx,
        {diagram._yhat(m): c for m, c in diagram._defect_terms(generator).items()},
    )


def consistency_defects(diagram: ScatteringDiagram2) -> Tuple[LaurentPoly, LaurentPoly]:
    return defect(diagram, 0), defect(diagram, 1)


def pair_structure_constant(
    diagram: ScatteringDiagram2,
    p1: WeightVec,
    p2: WeightVec,
    lam: WeightVec,
    endpoint: Tuple[Fraction, Fraction],
) -> LaurentPoly:
    """a_chi(p1, p2, lam): sum of c1 c2 y^{b1+b2} over pairs of broken lines
    with final weights adding to lam, both ending at chi."""
    lines1 = enumerate_broken_lines_rank2(diagram, p1, endpoint)
    lines2 = enumerate_broken_lines_rank2(diagram, p2, endpoint)
    return _sum_monomials(
        diagram.ctx,
        (
            ((0, 0, s1.tropical[0] + s2.tropical[0], s1.tropical[1] + s2.tropical[1]),
             s1.coeff * s2.coeff)
            for s1 in lines1
            for s2 in lines2
            if s1.weight[0] + s2.weight[0] == lam.coords[0]
            and s1.weight[1] + s2.weight[1] == lam.coords[1]
        ),
    )


def mul_truncated(p: List[int], q: List[int]) -> List[int]:
    """The product of two power series in t, both with len(p) coefficients,
    truncated to that length."""
    return [sum(p[j] * q[k - j] for j in range(k + 1)) for k in range(len(p))]


class OrderByOrderDiagram(ScatteringDiagram2):
    """The rank-2 diagram completed order by order: after each degree both
    loop products are recomputed and their lowest defect terms become wall
    corrections.  Wall powers are built one truncated factor at a time from
    f and f^-1 and cached per wall until its function changes."""

    def _power(self, wall: Wall2, a: int) -> List[int]:
        pows = self.powers.setdefault(wall.normal, {})
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
            out = pows[e] = mul_truncated(out, pows[step])
        return out

    def _complete(self) -> None:
        self.powers: Dict[Vec2, Dict[int, List[int]]] = {}
        by_normal: Dict[Vec2, Wall2] = {}
        defects: List[Terms] = []
        for deg in range(2, self.order + 1):
            # the walls change only when a degree needs corrections, so the
            # previous degree's recheck already holds this degree's defects
            if not defects:
                defects = [self._defect_terms(gen) for gen in range(2)]
            needed: Dict[Vec2, Dict[int, int]] = {}
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
                self.powers.pop(beta, None)
            if needed:
                defects = [self._defect_terms(gen) for gen in range(2)]
                for terms in defects:
                    if any(m[0] + m[1] <= deg for m in terms):
                        raise InconsistentDiagram(
                            f"completion failed to fix degree {deg}"
                        )


def complete_order_by_order(b: Rows, order: int) -> OrderByOrderDiagram:
    """The rank-2 diagram by the order-by-order completion."""
    return OrderByOrderDiagram(b, order)


# -- theta: the dominance chain -----------------------------------------------


def dominance_chain(eng: ThetaEngine, label: WeightVec) -> List[WeightVec]:
    """{label - 2a nu_c(delta) : a >= 0} intersected with d_infinity."""
    out = []
    a = 0
    while True:
        kappa = label - eng.nu_delta.scale(2 * a)
        if not weight_in_imaginary_wall(eng.data, eng.tubes, kappa):
            break
        out.append(kappa)
        a += 1
    return out


# -- poly: clearing u-denominators, and division by shifting ------------------


def clear_tropical(p: LaurentPoly) -> LaurentPoly:
    """Multiply by the minimal tropical monomial removing negative u-exponents."""
    mins = p.min_exponents()
    shift = [0] * p.ctx.nvars
    for i in range(p.ctx.n, p.ctx.nvars):
        if mins[i] < 0:
            shift[i] = -mins[i]
    return p.shift(shift)


def exact_div_shifted(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Return q with q*b == a, exactly, over integer Laurent polynomials.

    Both operands are shifted to ordinary polynomials (componentwise minimal
    exponent zero), divided by graded-lex leading-term elimination, and the
    quotient is shifted back.  Raises NotDivisible when no quotient exists.
    """
    a._check(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return LaurentPoly.zero(a.ctx)
    ma = a.min_exponents()
    mb = b.min_exponents()
    r = dict(a.shift(tuple(-x for x in ma)).terms)
    bb = b.shift(tuple(-x for x in mb))
    lead_e, lead_c = bb.leading()
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
        qe = tuple(x - y for x, y in zip(re, lead_e))
        if any(x < 0 for x in qe) or rc % lead_c != 0:
            raise NotDivisible("no exact Laurent quotient")
        qc = rc // lead_c
        quotient[qe] = qc
        for be, bc in bb.terms.items():
            e = tuple(map(add, be, qe))
            c = r.get(e, 0) - qc * bc
            if c:
                if e not in r:
                    heapq.heappush(heap, key(e))
                r[e] = c
            else:
                r.pop(e, None)
    q = LaurentPoly(a.ctx, quotient)
    return q.shift(tuple(x - y for x, y in zip(ma, mb)))
