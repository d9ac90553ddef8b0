"""Normalized generalized cluster algebras over a tropical semifield, the
generalized seeds attached to tubes, exchange-graph enumeration, and the
substitution check mapping them onto theta-function identities.

Coefficients live in the tropical semifield on variables {z_beta} + {z_star}:
Laurent monomials under multiplication, componentwise minimum as addition.
Cluster variables are Laurent polynomials over the semifield group ring,
realized in a poly.VarContext whose tropical slots are the z variables.

A tube seed's exchange graph has one vertex per maximal compatible arc set,
and the arc set is the vertex's key.  The search mutates each edge once and
builds each seed once from its arcs; three checks tie the arc sets to the
mutated seeds (see enumerate_exchange_graph), and t_o_check reads each
exchange partner off the graph's edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

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
from .seeds import RootVec, Rows, mutate_rows

ZKey = Tuple  # ("z", tube_index, orbit_position) or ("star",)


@dataclass(frozen=True)
class TropMonomial:
    """Laurent monomial in tropical variables; exponents keyed by variable."""

    exps: Tuple[Tuple[ZKey, int], ...]

    @staticmethod
    def make(mapping: Mapping[ZKey, int] = ()) -> "TropMonomial":
        items = tuple(sorted((k, v) for k, v in dict(mapping).items() if v != 0))
        return TropMonomial(items)

    @staticmethod
    def one() -> "TropMonomial":
        return TropMonomial(())

    def as_dict(self) -> Dict[ZKey, int]:
        return dict(self.exps)

    def __mul__(self, other: "TropMonomial") -> "TropMonomial":
        out = self.as_dict()
        for k, v in other.exps:
            out[k] = out.get(k, 0) + v
        return TropMonomial.make(out)

    def __truediv__(self, other: "TropMonomial") -> "TropMonomial":
        out = self.as_dict()
        for k, v in other.exps:
            out[k] = out.get(k, 0) - v
        return TropMonomial.make(out)

    def __pow__(self, k: int) -> "TropMonomial":
        return TropMonomial.make({key: k * v for key, v in self.exps})

    def is_one(self) -> bool:
        return not self.exps


def trop_add(a: TropMonomial, b: TropMonomial) -> TropMonomial:
    """Tropical addition: componentwise minimum of exponent vectors."""
    keys = {k for k, _ in a.exps} | {k for k, _ in b.exps}
    da, db = a.as_dict(), b.as_dict()
    return TropMonomial.make({k: min(da.get(k, 0), db.get(k, 0)) for k in keys})


def z_of_arc(tube: Tube, r: Optional[TubeRoot]) -> TropMonomial:
    """z^phi: the product of z_beta over the support of the arc (1 if None)."""
    if r is None:
        return TropMonomial.one()
    return TropMonomial.make({("z", tube.index, t): 1 for t in arc_support(tube, r)})


def z_single(tube: Tube, orbit_pos: int) -> TropMonomial:
    return TropMonomial.make({("z", tube.index, orbit_pos % tube.size): 1})


@dataclass(frozen=True)
class GCAContext:
    """Variable layout for generalized-seed cluster variables."""

    ctx: VarContext
    zkeys: Tuple[ZKey, ...]

    def zpos(self, key: ZKey) -> int:
        return self.ctx.n + self.zkeys.index(key)

    def monomial(self, m: TropMonomial, coeff: int = 1) -> LaurentPoly:
        e = [0] * self.ctx.nvars
        for key, v in m.exps:
            e[self.zpos(key)] = v
        return LaurentPoly.monomial(self.ctx, e, coeff)


def gca_context(tubes: Sequence[Tube], rank: int) -> GCAContext:
    zkeys: List[ZKey] = []
    names: List[str] = [f"a{i+1}" for i in range(rank)]
    for tube in sorted(tubes, key=lambda t: t.index):
        for t in range(tube.size):
            zkeys.append(("z", tube.index, t))
            names.append(f"z{tube.index}_{t}")
    zkeys.append(("star",))
    names.append("zs")
    ctx = VarContext(rank, len(zkeys), tuple(names))
    return GCAContext(ctx, tuple(zkeys))


@dataclass(frozen=True)
class GCASeed:
    """Normalized generalized seed (x, p, B) with exchange degrees d."""

    gctx: GCAContext
    x: Tuple[LaurentPoly, ...]
    p: Tuple[Tuple[TropMonomial, ...], ...]
    b: Rows
    d: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.x)

    def validate(self) -> None:
        for i in range(self.rank):
            if len(self.p[i]) != self.d[i] + 1:
                raise AssertionError("coefficient tuple length != d+1")
            if not trop_add(self.p[i][0], self.p[i][-1]).is_one():
                raise AssertionError("normalization p_0 (+) p_d != 1 violated")
            for j in range(self.rank):
                if self.b[j][i] % self.d[i] != 0:
                    raise AssertionError("column not divisible by its degree d")
        for i in range(self.rank):
            for j in range(self.rank):
                if self.b[i][j] * self.d[i] != -self.b[j][i] * self.d[j]:
                    raise AssertionError("halved matrix is not skew-symmetric")


def _column_entries(
    tube: Tube, js: int, gamma: TubeRoot
) -> Tuple[Dict[TubeRoot, int], Tuple[TropMonomial, ...], int]:
    """Column of B indexed by gamma, its coefficient tuple, and its degree;
    js is gamma's tube part of the labels, checked by check_maximal."""
    k = tube.size
    if gamma.length == k - 1:
        info = max_root_data(tube, js, gamma)
        col: Dict[TubeRoot, int] = {}
        if info.phi is not None:
            col[info.phi] = 2
        if info.phi_prime is not None:
            col[info.phi_prime] = -2
        p = (
            z_of_arc(tube, info.phi_prime) * z_single(tube, info.beta_idx),
            TropMonomial.make({("star",): 1}),
            z_of_arc(tube, info.phi) * z_single(tube, info.beta_prime_idx),
        )
        return col, p, 2
    info2 = nonmax_root_data(tube, js, gamma)
    coeff = z_of_arc(tube, info2.phi2) * z_single(tube, info2.beta_prime_idx)
    col = {}
    sign = -1 if info2.gamma_owns_beta else 1
    for piece in (info2.phi, info2.phi2):
        if piece is not None:
            col[piece] = sign
    for piece in (info2.phi1, info2.phi3):
        if piece is not None:
            col[piece] = -sign
    if info2.gamma_owns_beta:
        p2 = (coeff, TropMonomial.one())
    else:
        p2 = (TropMonomial.one(), coeff)
    return col, p2, 1


def build_tube_seed(
    tubes: Sequence[Tube], labels: Iterable[TubeRoot]
) -> Tuple[GCASeed, Tuple[TubeRoot, ...]]:
    """Generalized seed for a maximal compatible set of arcs.

    `labels` may span several tubes (block-diagonal seed); per tube it must be
    a maximal pairwise compatible set.  Returns the seed and the arc labels in
    position order."""
    ordered = tuple(sorted(set(labels)))
    by_tube: Dict[int, List[TubeRoot]] = {}
    for r in ordered:
        by_tube.setdefault(r.tube, []).append(r)
    used_tubes = [t for t in tubes if t.index in by_tube]
    checked = {t.index: check_maximal(t, by_tube[t.index]) for t in used_tubes}
    gctx = gca_context(used_tubes, len(ordered))
    x = tuple(LaurentPoly.var(gctx.ctx, i) for i in range(len(ordered)))
    cols: List[Dict[TubeRoot, int]] = []
    ps: List[Tuple[TropMonomial, ...]] = []
    ds: List[int] = []
    tube_by_index = {t.index: t for t in tubes}
    for gamma in ordered:
        col, p, deg = _column_entries(tube_by_index[gamma.tube], checked[gamma.tube], gamma)
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


def _exchange_exponents(seed: GCASeed, k: int) -> List[Dict[int, int]]:
    """Per l = 0..d_k, the nonzero exponents [b_psi_k]_+ - l b_psi_k / d_k of
    the exchange monomial, keyed by position psi."""
    d = seed.d[k]
    out: List[Dict[int, int]] = []
    for ell in range(d + 1):
        exps: Dict[int, int] = {}
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
    new_p: List[Tuple[TropMonomial, ...]] = []
    for j in range(rank):
        if j == k:
            new_p.append(tuple(reversed(seed.p[k])))
            continue
        bkj = seed.b[k][j]
        if bkj == 0:
            # the normalization p_0 (+) p_d = 1 leaves the row as it is
            new_p.append(seed.p[j])
            continue
        dj, dk = seed.d[j], seed.d[k]
        denom = trop_add(
            seed.p[j][0] * seed.p[k][0] ** max(bkj, 0),
            seed.p[j][dj] * seed.p[k][dk] ** max(-bkj, 0),
        )
        row: List[TropMonomial] = []
        for ell in range(dj + 1):
            e1 = (dj - ell) * max(bkj, 0)
            e2 = ell * max(-bkj, 0)
            if e1 % dj or e2 % dj:
                raise AssertionError("coefficient exponent not integral")
            num = seed.p[j][ell] * seed.p[k][0] ** (e1 // dj) * seed.p[k][dk] ** (e2 // dj)
            row.append(num / denom)
        new_p.append(tuple(row))
    new_b = mutate_rows(seed.b, k)
    out = GCASeed(seed.gctx, xs, tuple(new_p), new_b, seed.d)
    out.validate()
    return out


@dataclass
class ExchangeGraph:
    vertices: List[GCASeed]
    labels: List[Tuple[TubeRoot, ...]]
    edges: List[Tuple[int, int, int]]  # (vertex, vertex, direction index)


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
    labels: Tuple[TubeRoot, ...],
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
    index: Dict[FrozenSet[TubeRoot], int] = {frozenset(labels): 0}
    graph = ExchangeGraph([seed], [labels], [])
    vid = 0
    while vid < len(graph.vertices):
        s, labs = graph.vertices[vid], graph.labels[vid]
        for k, gamma in enumerate(labs):
            tube = tube_by_index[gamma.tube]
            js = check_maximal(tube, [r for r in labs if r.tube == gamma.tube])
            labs2 = labs[:k] + (exchange_partner(tube, js, gamma),) + labs[k + 1 :]
            wid = index.setdefault(frozenset(labs2), len(graph.vertices))
            if wid == len(graph.vertices):
                s2 = gca_mutate(s, k)
                built, order = build_tube_seed(tubes, labs2)
                moved = _relabeled(s2, labs2, order)
                if (moved.p, moved.b, moved.d) != (built.p, built.b, built.d):
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


def t_o_image(engine, m: TropMonomial):
    """The homomorphism z_beta -> y^beta, z_star -> theta_{nu_c(delta)}, as
    a term (1, gamma, theta) of ThetaEngine.same: y^gamma times the pointed
    product of the z_star powers of theta_{nu_c(delta)}."""
    gamma, stars = RootVec((0,) * engine.n), 0
    for key, v in m.exps:
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
            c, shift, theta = t_o_image(engine, s.p[k][ell])
            arcs = [engine.theta_tube_root(labels[psi]) for psi, e in exps.items() for _ in range(e)]
            terms.append((-c, shift, engine.product(t for t in (theta, *arcs) if t)))
        if engine._collect(terms):
            raise IdentityViolated(
                f"t_o substitution failed on relation {gamma} * {gamma2}"
            )
        checked += 1
    return checked
