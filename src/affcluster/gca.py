"""Normalized generalized cluster algebras over a tropical semifield, the
generalized seeds attached to tubes, exchange-graph enumeration, and the
substitution check mapping them onto theta-function identities.

Coefficients live in the tropical semifield on variables {z_beta} + {z_star}:
Laurent monomials under multiplication, componentwise minimum as addition.
Cluster variables are Laurent polynomials over the semifield group ring,
realized in a poly.VarContext whose tropical slots are the z variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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

    def key(self):
        """Unlabeled-seed identity: unordered cluster with coefficients, plus
        the exchange matrix transported along the sorting permutation."""
        tagged = sorted(
            range(self.rank),
            key=lambda i: (self.x[i].canonical_key(), self.p[i], self.d[i]),
        )
        b = tuple(tuple(self.b[i][j] for j in tagged) for i in tagged)
        return (
            tuple((self.x[i].canonical_key(), self.p[i], self.d[i]) for i in tagged),
            b,
        )


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
    tubes: Sequence[Tube], labels: Iterable[TubeRoot], gctx: Optional[GCAContext] = None
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
    if gctx is None:
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
        dj, dk = seed.d[j], seed.d[k]
        bkj = seed.b[k][j]
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


# Vertices enumerate_exchange_graph may visit before it gives up.
VERTEX_BUDGET = 20000


def enumerate_exchange_graph(
    tubes: Sequence[Tube],
    seed: GCASeed,
    labels: Tuple[TubeRoot, ...],
) -> ExchangeGraph:
    """BFS over generalized seed mutation.

    Arc labels are carried along via exchange_partner; every mutated seed is
    compared against the seed built directly from its arc set, which also
    keeps the labels honest.
    The graph is finite for tube seeds; exceeding VERTEX_BUDGET aborts loudly."""
    tube_by_index = {t.index: t for t in tubes}
    index: Dict[object, int] = {seed.key(): 0}
    graph = ExchangeGraph([seed], [labels], [])
    frontier = [0]
    while frontier:
        nxt: List[int] = []
        for vid in frontier:
            s = graph.vertices[vid]
            labs = graph.labels[vid]
            for k in range(s.rank):
                s2 = gca_mutate(s, k)
                gamma = labs[k]
                tube = tube_by_index[gamma.tube]
                js = check_maximal(tube, [r for r in labs if r.tube == gamma.tube])
                gamma2 = exchange_partner(tube, js, gamma)
                labs2 = tuple(gamma2 if i == k else r for i, r in enumerate(labs))
                built, order = build_tube_seed(tubes, labs2, s.gctx)
                perm = [order.index(r) for r in labs2]
                if tuple(built.d[q] for q in perm) != s2.d:
                    raise AssertionError("mutated degrees disagree with built seed")
                if tuple(built.p[q] for q in perm) != s2.p:
                    raise AssertionError("mutated coefficients disagree with built seed")
                rebuilt_b = tuple(
                    tuple(built.b[perm[i]][perm[j]] for j in range(s2.rank))
                    for i in range(s2.rank)
                )
                if rebuilt_b != s2.b:
                    raise AssertionError("mutated matrix disagrees with built seed")
                key = s2.key()
                if key not in index:
                    if len(graph.vertices) >= VERTEX_BUDGET:
                        raise RuntimeError("exchange graph exceeded its vertex budget")
                    index[key] = len(graph.vertices)
                    graph.vertices.append(s2)
                    graph.labels.append(labs2)
                    nxt.append(index[key])
                graph.edges.append((vid, index[key], k))
        frontier = nxt
    return graph


def exchange_relation_arcs(
    tubes: Sequence[Tube], labels: Tuple[TubeRoot, ...], seed: GCASeed, k: int
) -> Tuple[TubeRoot, TubeRoot, List[Tuple[TropMonomial, Dict[TubeRoot, int]]]]:
    """The exchange relation at position k in arc form:
    gamma * gamma' = sum_l coeff_l * prod(arc^power)."""
    gamma = labels[k]
    tube = next(t for t in tubes if t.index == gamma.tube)
    js = check_maximal(tube, [r for r in labels if r.tube == gamma.tube])
    gamma2 = exchange_partner(tube, js, gamma)
    rhs = [
        (seed.p[k][ell], {labels[psi]: epow for psi, epow in exps.items()})
        for ell, exps in enumerate(_exchange_exponents(seed, k))
    ]
    return gamma, gamma2, rhs


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


def t_o_check(engine, tubes: Sequence[Tube], graph: ExchangeGraph) -> int:
    """Substitute thetas into every exchange relation along the graph and
    verify each becomes an exact Laurent identity, compared in pointed form;
    returns the number of relations checked.  Raises IdentityViolated on any
    failure.  Each relation is checked once, with principal coefficients: a
    zero difference stays zero under u -> 1, a ring map, so the relations
    also hold coefficient-free."""
    from .theta import IdentityViolated

    checked = 0
    seen_rel = set()
    for vid, s in enumerate(graph.vertices):
        labels = graph.labels[vid]
        for k in range(s.rank):
            gamma, gamma2, rhs = exchange_relation_arcs(tubes, labels, s, k)
            relkey = (min(gamma, gamma2), max(gamma, gamma2))
            if relkey in seen_rel:
                continue
            seen_rel.add(relkey)
            lhs = engine.multiply(engine.theta_tube_root(gamma), engine.theta_tube_root(gamma2))
            terms = [(1, None, lhs)]
            for coeff, powers in rhs:
                c, shift, theta = t_o_image(engine, coeff)
                arcs = [engine.theta_tube_root(r) for r, e in powers.items() for _ in range(e)]
                terms.append((-c, shift, engine.product(t for t in (theta, *arcs) if t)))
            if engine._collect(terms):
                raise IdentityViolated(
                    f"t_o substitution failed on relation {gamma} * {gamma2}"
                )
            checked += 1
    return checked
