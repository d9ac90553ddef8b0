"""Normalized generalized cluster algebras over a tropical semifield, the
generalized seeds attached to tubes, exchange-graph enumeration, and the
substitution check mapping them onto theta-function identities.

Coefficients live in the tropical semifield on variables {z_beta} + {z_star}.
A coefficient is its exponent vector over the seed's z slots (GCAContext.zkeys,
the tropical slots of the poly.VarContext in which the cluster variables are
Laurent polynomials): the product is the vector sum and the tropical sum the
componentwise minimum.

A tube seed's exchange graph has one vertex per maximal compatible arc set,
and the arc set is the vertex's key.  The search mutates each edge once and
builds each seed once from its arcs; three checks tie the arc sets to the
mutated seeds (see enumerate_exchange_graph), and t_o_check reads each
exchange partner off the graph's edges.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .affine import (
    Tube,
    TubeRoot,
    arc_support,
    check_maximal,
    exchange_partner,
    max_root_data,
    nonmax_root_data,
)
from .poly import LaurentPoly, NonInvertibleImage, VarContext, exact_div
from .seeds import RootVec, mutate_rows

ZKey = tuple  # ("z", tube_index, orbit_position) or ("star",)
ZExp = tuple[int, ...]  # a coefficient: its exponents over GCAContext.zkeys


class GCAContext(namedtuple("GCAContext", "ctx zkeys")):
    """Variable layout for generalized-seed cluster variables: a VarContext
    and a tuple of ZKeys.  A coefficient is a tuple of ints over zkeys: the
    tropical tail of an exponent in ctx."""

    __slots__ = ()

    def monomial(self, m: ZExp, coeff: int = 1) -> LaurentPoly:
        return LaurentPoly.monomial(self.ctx, (0,) * self.ctx.n + m, coeff)


def gca_context(tubes: Sequence[Tube], rank: int) -> GCAContext:
    zkeys: list[ZKey] = []
    names: list[str] = [f"a{i+1}" for i in range(rank)]
    for tube in sorted(tubes, key=lambda t: t.index):
        for t in range(tube.size):
            zkeys.append(("z", tube.index, t))
            names.append(f"z{tube.index}_{t}")
    zkeys.append(("star",))
    names.append("zs")
    ctx = VarContext(rank, len(zkeys), tuple(names))
    return GCAContext(ctx, tuple(zkeys))


class GCASeed(namedtuple("GCASeed", "gctx x p b d")):
    """Normalized generalized seed (x, p, B) with exchange degrees d: x a
    tuple of LaurentPolys, p one tuple of d_i + 1 ZExps per direction, b the
    rows of B."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.x)

    def validate(self) -> None:
        for i in range(self.rank):
            if len(self.p[i]) != self.d[i] + 1:
                raise AssertionError("coefficient tuple length != d+1")
            if any(map(min, self.p[i][0], self.p[i][-1])):
                raise AssertionError("normalization p_0 (+) p_d != 1 violated")
            for j in range(self.rank):
                if self.b[j][i] % self.d[i] != 0:
                    raise AssertionError("column not divisible by its degree d")
        for i in range(self.rank):
            for j in range(self.rank):
                if self.b[i][j] * self.d[i] != -self.b[j][i] * self.d[j]:
                    raise AssertionError("halved matrix is not skew-symmetric")


def _z(gctx: GCAContext, tube: Tube, arc: TubeRoot | None, pos: int) -> ZExp:
    """z^arc z_pos: z_beta over the arc's support (none if None) times the
    z_beta at orbit position pos."""
    e = [0] * len(gctx.zkeys)
    base = gctx.zkeys.index(("z", tube.index, 0))
    for t in (*(arc_support(tube, arc) if arc is not None else ()), pos):
        e[base + t % tube.size] += 1
    return tuple(e)


def _column_entries(
    gctx: GCAContext, tube: Tube, js: int, gamma: TubeRoot
) -> tuple[dict[TubeRoot, int], tuple[ZExp, ...], int]:
    """Column of B indexed by gamma, its coefficient tuple, and its degree;
    js is gamma's tube part of the labels, checked by check_maximal."""
    k = tube.size
    if gamma.length == k - 1:
        info = max_root_data(tube, js, gamma)
        col: dict[TubeRoot, int] = {}
        if info.phi is not None:
            col[info.phi] = 2
        if info.phi_prime is not None:
            col[info.phi_prime] = -2
        p = (
            _z(gctx, tube, info.phi_prime, info.beta_idx),
            tuple(int(key == ("star",)) for key in gctx.zkeys),
            _z(gctx, tube, info.phi, info.beta_prime_idx),
        )
        return col, p, 2
    info2 = nonmax_root_data(tube, js, gamma)
    coeff = _z(gctx, tube, info2.phi2, info2.beta_prime_idx)
    one = (0,) * len(coeff)
    col = {}
    sign = -1 if info2.gamma_owns_beta else 1
    for piece in (info2.phi, info2.phi2):
        if piece is not None:
            col[piece] = sign
    for piece in (info2.phi1, info2.phi3):
        if piece is not None:
            col[piece] = -sign
    if info2.gamma_owns_beta:
        p2 = (coeff, one)
    else:
        p2 = (one, coeff)
    return col, p2, 1


def build_tube_seed(
    tubes: Sequence[Tube], labels: Iterable[TubeRoot]
) -> tuple[GCASeed, tuple[TubeRoot, ...]]:
    """Generalized seed for a maximal compatible set of arcs.

    `labels` may span several tubes (block-diagonal seed); per tube it must be
    a maximal pairwise compatible set.  Returns the seed and the arc labels in
    position order."""
    ordered = tuple(sorted(set(labels)))
    by_tube: dict[int, list[TubeRoot]] = {}
    for r in ordered:
        by_tube.setdefault(r.tube, []).append(r)
    used_tubes = [t for t in tubes if t.index in by_tube]
    checked = {t.index: check_maximal(t, by_tube[t.index]) for t in used_tubes}
    gctx = gca_context(used_tubes, len(ordered))
    x = tuple(LaurentPoly.var(gctx.ctx, i) for i in range(len(ordered)))
    cols: list[dict[TubeRoot, int]] = []
    ps: list[tuple[ZExp, ...]] = []
    ds: list[int] = []
    tube_by_index = {t.index: t for t in tubes}
    for gamma in ordered:
        col, p, deg = _column_entries(gctx, tube_by_index[gamma.tube], checked[gamma.tube], gamma)
        cols.append(col)
        ps.append(p)
        ds.append(deg)
    b = tuple(
        tuple(cols[j].get(ordered[i], 0) for j in range(len(ordered)))
        for i in range(len(ordered))
    )
    seed = GCASeed(gctx, x, tuple(ps), b, tuple(ds))
    seed.validate()
    return seed, ordered


def _exchange_exponents(seed: GCASeed, k: int) -> list[dict[int, int]]:
    """Per l = 0..d_k, the nonzero exponents [b_psi_k]_+ - l b_psi_k / d_k of
    the exchange monomial, keyed by position psi."""
    d = seed.d[k]
    out: list[dict[int, int]] = []
    for ell in range(d + 1):
        exps: dict[int, int] = {}
        for psi in range(seed.rank):
            bpk = seed.b[psi][k]
            if bpk % d != 0:
                raise AssertionError("column divisibility violated")
            epow = max(bpk, 0) - ell * (bpk // d)
            if epow:
                exps[psi] = epow
        out.append(exps)
    return out


def _exchange_numerator(seed: GCASeed, k: int) -> LaurentPoly:
    """sum_l p_{k;l} prod_psi x_psi^{[b_psi_k]_+ - l b_psi_k / d_k}."""
    gctx = seed.gctx
    total = LaurentPoly.zero(gctx.ctx)
    for ell, exps in enumerate(_exchange_exponents(seed, k)):
        term = gctx.monomial(seed.p[k][ell])
        for psi, epow in exps.items():
            term = term * seed.x[psi] ** epow
        total = total + term
    return total


def gca_mutate(seed: GCASeed, k: int) -> GCASeed:
    """Normalized generalized seed mutation in direction k."""
    rank = seed.rank
    new_x = exact_div(_exchange_numerator(seed, k), seed.x[k])
    xs = tuple(new_x if i == k else v for i, v in enumerate(seed.x))
    new_p: list[tuple[ZExp, ...]] = []
    for j in range(rank):
        if j == k:
            new_p.append(tuple(reversed(seed.p[k])))
            continue
        bkj = seed.b[k][j]
        if bkj == 0:
            # the normalization p_0 (+) p_d = 1 leaves the row as it is
            new_p.append(seed.p[j])
            continue
        # vector sums: the product of monomials adds their exponents, and the
        # tropical sum (the denominator) is their componentwise minimum
        dj, pj = seed.d[j], seed.p[j]
        pos, neg = max(bkj, 0), max(-bkj, 0)
        first, last = seed.p[k][0], seed.p[k][seed.d[k]]
        denom = tuple(
            min(a + pos * f, b + neg * g) for a, b, f, g in zip(pj[0], pj[dj], first, last)
        )
        row: list[ZExp] = []
        for ell in range(dj + 1):
            e1, r1 = divmod((dj - ell) * pos, dj)
            e2, r2 = divmod(ell * neg, dj)
            if r1 or r2:
                raise AssertionError("coefficient exponent not integral")
            row.append(
                tuple(a + e1 * f + e2 * g - m for a, f, g, m in zip(pj[ell], first, last, denom))
            )
        new_p.append(tuple(row))
    new_b = mutate_rows(seed.b, k)
    out = GCASeed(seed.gctx, xs, tuple(new_p), new_b, seed.d)
    out.validate()
    return out


class ExchangeGraph:
    """Seeds, their arc labels, and edges (vertex, vertex, direction index),
    grown in place; unhashable, and equal to a graph with equal lists."""

    __slots__ = ("vertices", "labels", "edges")

    def __init__(
        self,
        vertices: list[GCASeed],
        labels: list[tuple[TubeRoot, ...]],
        edges: list[tuple[int, int, int]],
    ) -> None:
        self.vertices = vertices
        self.labels = labels
        self.edges = edges

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.labels, self.edges) == (
            other.vertices, other.labels, other.edges
        )

    def __repr__(self) -> str:
        return (
            f"ExchangeGraph(vertices={self.vertices!r}, labels={self.labels!r}, "
            f"edges={self.edges!r})"
        )


def _relabeled(seed: GCASeed, labels: Sequence[TubeRoot], order: Sequence[TubeRoot]) -> GCASeed:
    """`seed`, whose positions carry `labels`, with its positions put in `order`."""
    perm = [labels.index(r) for r in order]
    return GCASeed(
        seed.gctx,
        tuple(seed.x[q] for q in perm),
        tuple(seed.p[q] for q in perm),
        tuple(tuple(seed.b[q][r] for r in perm) for q in perm),
        tuple(seed.d[q] for q in perm),
    )


def enumerate_exchange_graph(
    tubes: Sequence[Tube],
    seed: GCASeed,
    labels: tuple[TubeRoot, ...],
) -> ExchangeGraph:
    """BFS over generalized seed mutation; a vertex is its arc set.

    A flip's arc set comes from exchange_partner before any mutation.  Each
    edge is mutated once, from the end expanded first: mutation is an
    involution, so the way back from a later vertex needs no work.  Three
    checks keep the arc labels honest: a mutated seed at a new arc set has
    the coefficients, degrees and matrix, keyed by arc label, of the seed
    built from that set; at a known set it equals the stored labelled seed,
    cluster included; and no two vertices share a cluster.  The graph is
    finite: a tube has finitely many arc sets."""
    tube_by_index = {t.index: t for t in tubes}
    index: dict[frozenset[TubeRoot], int] = {frozenset(labels): 0}
    graph = ExchangeGraph([seed], [labels], [])
    vid = 0
    while vid < len(graph.vertices):
        s, labs = graph.vertices[vid], graph.labels[vid]
        checked = {
            t: check_maximal(tube_by_index[t], [r for r in labs if r.tube == t])
            for t in dict.fromkeys(r.tube for r in labs)
        }
        for k, gamma in enumerate(labs):
            partner = exchange_partner(tube_by_index[gamma.tube], checked[gamma.tube], gamma)
            labs2 = labs[:k] + (partner,) + labs[k + 1 :]
            wid = index.setdefault(frozenset(labs2), len(graph.vertices))
            if wid == len(graph.vertices):
                s2 = gca_mutate(s, k)
                built, order = build_tube_seed(tubes, labs2)
                moved = _relabeled(s2, labs2, order)
                # a coefficient vector means nothing without its layout
                if (moved.gctx, moved.p, moved.b, moved.d) != (
                    built.gctx, built.p, built.b, built.d
                ):
                    raise AssertionError("mutated seed disagrees with the seed built from its arcs")
                graph.vertices.append(s2)
                graph.labels.append(labs2)
            elif wid > vid:
                known = graph.labels[wid]
                if _relabeled(gca_mutate(s, k), labs2, known) != graph.vertices[wid]:
                    raise AssertionError("re-reached seed disagrees with its stored vertex")
            graph.edges.append((vid, wid, k))
        vid += 1
    if len({frozenset(v.x) for v in graph.vertices}) < len(graph.vertices):
        raise AssertionError("two arc sets share a cluster")
    return graph


def t_o_image(engine, gctx: GCAContext, m: ZExp):
    """The homomorphism z_beta -> y^beta, z_star -> theta_{nu_c(delta)}, as
    a term (1, gamma, theta) of ThetaEngine.same: y^gamma times the pointed
    product of the z_star powers of theta_{nu_c(delta)}.  m is read in the
    layout gctx.zkeys."""
    gamma, stars = RootVec((0,) * engine.n), 0
    for key, v in zip(gctx.zkeys, m):
        if key == ("star",):
            if v < 0:
                raise NonInvertibleImage("negative power of theta_delta")
            stars = v
        else:
            _, tube_idx, pos = key
            gamma = gamma + engine.tubes[tube_idx].orbit[pos].scale(v)
    return 1, gamma, engine.product([engine.theta_delta()] * stars)


def t_o_check(engine, graph: ExchangeGraph) -> int:
    """Substitute thetas into every exchange relation along the graph and
    verify each becomes an exact Laurent identity, compared in pointed form;
    returns the number of relations checked.  Raises IdentityViolated on any
    failure.  An edge (v, w, k) gives the relation gamma * gamma' with gamma
    the label of v at k and gamma' the one label of w not in v.  Each
    relation is checked once, with principal coefficients: a zero difference
    stays zero under u -> 1, a ring map, so the relations also hold
    coefficient-free."""
    from .theta import IdentityViolated

    checked = 0
    seen_rel = set()
    for vid, wid, k in graph.edges:
        s, labels = graph.vertices[vid], graph.labels[vid]
        gamma = labels[k]
        (gamma2,) = set(graph.labels[wid]) - set(labels)
        relkey = frozenset((gamma, gamma2))
        if relkey in seen_rel:
            continue
        seen_rel.add(relkey)
        lhs = engine.multiply(engine.theta_tube_root(gamma), engine.theta_tube_root(gamma2))
        terms = [(1, None, lhs)]
        for ell, exps in enumerate(_exchange_exponents(s, k)):
            c, shift, theta = t_o_image(engine, s.gctx, s.p[k][ell])
            arcs = [engine.theta_tube_root(labels[psi]) for psi, e in exps.items() for _ in range(e)]
            terms.append((-c, shift, engine.product(t for t in (theta, *arcs) if t)))
        if engine._collect(terms):
            raise IdentityViolated(
                f"t_o substitution failed on relation {gamma} * {gamma2}"
            )
        checked += 1
    return checked
