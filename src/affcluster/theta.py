"""Theta functions attached to lattice points of the imaginary wall.

Everything is computed for the principal-coefficient extension of an acyclic
affine exchange matrix: theta functions on the g-vector fan are cluster
variables (found by g-vector search), the theta function of delta comes from
the rank-2 closed forms or from the boundary identity, multiples of delta
from the Chebyshev-style recursion, and interior points from the product
over a compatible expansion.  Products of thetas are re-expanded in the theta
basis by greedy peeling.

A theta function is fixed by its label, so an engine stores each
imaginary-wall theta (theta_0, tube roots, k*delta, expansion products) under
its label once built; theta_gfan stores nothing, so no label off the wall
ever enters the store.

A theta function is pointed: every term is x^(label + B beta) u^beta with
beta >= 0, so it is stored as its label and its F-polynomial
F: beta -> coefficient (ThetaFunction).  A product of thetas is the sum of
the labels and the product of the F-polynomials, which poly.mul_terms
packs by Kronecker substitution whenever the exponent box is dense enough.
F-polynomials are positive, so their packed products need no bias.  Every
identity is checked in this form (ThetaEngine.same), at any number of
labels, and peeling in the theta basis runs on F-polynomials; a
LaurentPoly is built only when a caller reads ThetaFunction.poly.
Pointedness is checked in full where a LaurentPoly enters (the g-vector
search, the rank-2 table), and every F-polynomial made by subtraction is
checked for F(0) = 1 and positive coefficients; products keep both
properties by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import affine
from .affine import (
    AffineData,
    NotInImaginaryWall,
    Tube,
    TubeRoot,
    check_maximal,
    cluster_expansion_imaginary,
    exchange_partner,
    nonmax_root_data,
    tube_root_vector,
)
from .poly import Exponent, LaurentPoly, VarContext, default_context, mul_terms, substitute
from .seeds import (
    ExtendedExchangeMatrix,
    NotFound,
    RootVec,
    Seed,
    WeightVec,
    enumerate_gvector_frontier,
    initial_seed,
    mutate_seed_word,
    principal_extension,
)


class IdentityViolated(AssertionError):
    """An identity that the engine relies on failed symbolically."""


@dataclass(frozen=True)
class Grading:
    """The pointed grading of a principal-coefficient engine: the term u^beta
    of an F-polynomial at a label is x^(label + B beta) u^beta."""

    ctx: VarContext
    b: Tuple[Tuple[int, ...], ...]

    def x_part(self, label: Exponent, beta: Exponent) -> Exponent:
        return tuple(x + sum(map(mul, row, beta)) for x, row in zip(label, self.b))

    def poly(self, label: Exponent, f: Dict[Exponent, int]) -> LaurentPoly:
        return LaurentPoly(self.ctx, {self.x_part(label, beta) + beta: c for beta, c in f.items()})


class ThetaFunction:
    """A theta function in pointed form x^label F(yhat), yhat^beta = x^(B beta) u^beta.

    ``f`` maps beta in N^n to the coefficient of u^beta; F(0) = 1 and every
    coefficient is positive.  ``poly`` is the LaurentPoly with the terms
    x^(label + B beta) u^beta, built from the grading on first use.
    Products of thetas (ThetaEngine.multiply) share this form; they are
    pointed but in general not theta functions.
    """

    __slots__ = ("label", "f", "_grading", "_poly")

    def __init__(self, label: WeightVec, f: Dict[Exponent, int], grading: Grading) -> None:
        self.label = label
        self.f = f
        self._grading = grading
        self._poly: Optional[LaurentPoly] = None

    @property
    def poly(self) -> LaurentPoly:
        if self._poly is None:
            self._poly = self._grading.poly(self.label.coords, self.f)
        return self._poly

    def __repr__(self) -> str:
        return f"ThetaFunction({self.label}, {self.poly})"


# A term c * y^gamma * theta of a sum; gamma None is y^0, theta None is 1.
Term = Tuple[int, Optional[RootVec], Optional[ThetaFunction]]


def _add_into(target: Dict[Exponent, int], terms: Dict[Exponent, int], sign: int) -> None:
    """target += sign * terms, keeping only nonzero coefficients: a
    coefficient that cancels is dropped at once."""
    get = target.get
    for e, c in terms.items():
        v = get(e, 0) + sign * c
        if v:
            target[e] = v
        else:
            target.pop(e, None)


# The rank-2 closed forms, keyed by (b12, b21).  Exponent order: x1 x2 u1 u2.
_RANK2_DELTA_TABLE = {
    (2, -2): {(-1, 1, 0, 0): 1, (-1, -1, 1, 0): 1, (1, -1, 1, 1): 1},
    (4, -1): {(-2, 1, 0, 0): 1, (-2, 0, 1, 0): 2, (-2, -1, 2, 0): 1, (2, -1, 2, 1): 1},
    (1, -4): {(-1, 2, 0, 0): 1, (-1, -2, 1, 0): 1, (0, -2, 1, 1): 2, (1, -2, 1, 2): 1},
}


# Peels expand_product may make, each of one label, before it gives up.
PEEL_BUDGET = 64

# Mutation depth of the g-vector search.  The search is lazy and stops at its
# target, so the bound costs one full search only on a miss.  Every tube root
# of the bundled fixtures and of B3, D5, E7, E8, F4 and G2 lies within it;
# E8^(1)'s deepest needs all 12.
SEARCH_DEPTH = 12


class ThetaEngine:
    """Theta-function calculator for one acyclic affine exchange matrix.

    Holds the affine data, the detected tubes, the principal-coefficient seed
    machinery and the store of imaginary-wall thetas by label.  It has no
    settings: the g-vector search runs to SEARCH_DEPTH."""

    def __init__(self, b_rows) -> None:
        self.data: AffineData = affine.build_affine_data(b_rows)
        self.tubes: List[Tube] = affine.detect_tubes(self.data)
        self.n = self.data.n
        self.nu_delta: WeightVec = self.data.nu_c(self.data.delta)
        self.matrix: ExtendedExchangeMatrix = principal_extension(self.data.b)
        self.ctx: VarContext = default_context(self.n, self.n)
        self.grading = Grading(self.ctx, self.data.b)
        self._frontier = enumerate_gvector_frontier(self.matrix, SEARCH_DEPTH)
        self._gvec_index: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], int]] = {}
        self._seed_cache: Dict[Tuple[int, ...], Seed] = {(): initial_seed(self.matrix, self.ctx)}
        zero = (0,) * self.n
        self._thetas: Dict[Tuple[int, ...], ThetaFunction] = {
            zero: ThetaFunction(WeightVec(zero), {zero: 1}, self.grading)
        }

    # -- monomial helpers ----------------------------------------------------

    def one(self) -> LaurentPoly:
        return LaurentPoly.const(self.ctx, 1)

    def assert_pointed(self, poly: LaurentPoly, label: WeightVec) -> Dict[Exponent, int]:
        """Pointedness at the label: p = x^label (1 + sum c_beta yhat^beta)
        with beta > 0 and c_beta > 0, i.e. every term is
        x^(label + B beta) u^beta.  Returns the F-polynomial beta -> c_beta."""
        n = self.n
        if any(e[:n] != self.grading.x_part(label.coords, e[n:]) for e in poly.terms):
            raise IdentityViolated("theta term off the pointed grading")
        f = {e[n:]: c for e, c in poly.terms.items()}
        self._check_f(f)
        return f

    def _check_f(self, f: Dict[Exponent, int]) -> None:
        """F(0) = 1, beta >= 0 and every coefficient positive."""
        one = f.get((0,) * self.n)
        if one is None:
            raise IdentityViolated("missing pointed term")
        if one != 1:
            raise IdentityViolated("pointed term has coefficient != 1")
        if min(map(min, f)) < 0:
            raise IdentityViolated("negative tropical exponent in a theta function")
        if min(f.values()) <= 0:
            raise IdentityViolated("nonpositive theta coefficient")

    # -- arithmetic in pointed form ----------------------------------------------

    def multiply(self, a: ThetaFunction, b: ThetaFunction) -> ThetaFunction:
        """theta_a * theta_b in pointed form: the label sum and the F product."""
        return ThetaFunction(a.label + b.label, mul_terms(a.f, b.f), self.grading)

    def product(self, thetas: Iterable[ThetaFunction]) -> Optional[ThetaFunction]:
        """The pointed product of the thetas; None, the constant 1, for none."""
        out = None
        for theta in thetas:
            out = theta if out is None else self.multiply(out, theta)
        return out

    def _collect(self, terms: Iterable[Term]) -> Dict[Exponent, Dict[Exponent, int]]:
        """sum c y^gamma theta as label -> F, nonzero coefficients only.

        y^gamma theta has the term F(beta) at (label - B gamma, beta + gamma),
        and (label, beta) stands for x^(label + B beta) u^beta, a bijection
        onto the monomials: the sum is zero exactly when the map is empty.
        The first map at a label with c = 1 is copied whole; every further
        term is merged by _add_into, and a label whose map cancels is
        dropped, so no map and no coefficient in the result is zero."""
        zero = (0,) * self.n
        out: Dict[Exponent, Dict[Exponent, int]] = {}
        for c, gamma, theta in terms:
            if not c:
                continue
            label = zero if theta is None else theta.label.coords
            f = {zero: 1} if theta is None else theta.f
            if gamma is not None:
                label = tuple(map(sub, label, self.data.b_weight(gamma).coords))
                f = {tuple(map(add, beta, gamma.coords)): v for beta, v in f.items()}
            acc = out.get(label)
            if acc is None:
                out[label] = dict(f) if c == 1 else {beta: c * v for beta, v in f.items()}
            else:
                _add_into(acc, f, c)
                if not acc:
                    del out[label]
        return out

    def same(self, lhs: Sequence[Term], rhs: Sequence[Term]) -> bool:
        """Whether sum lhs == sum rhs exactly, for terms (c, gamma, theta)
        meaning c y^gamma theta: LaurentPoly equality, compared in pointed
        form whatever labels the terms sit at.  Each side is collected
        (_collect) into label -> F with no zero coefficient, so the sums
        are equal exactly when the two maps are; the maps are compared by
        dict equality, with no Python loop over their coefficients."""
        return self._collect(lhs) == self._collect(rhs)

    def _theta_from_sum(self, label: WeightVec, terms: Sequence[Term]) -> ThetaFunction:
        """The theta function sum c y^gamma theta, which must be pointed at
        label with F(0) = 1 and positive coefficients."""
        total = self._collect(terms)
        if any(at != label.coords for at in total):
            raise IdentityViolated("theta term off the pointed grading")
        f = total.get(label.coords, {})
        self._check_f(f)
        return ThetaFunction(label, f, self.grading)

    # -- g-vector fan thetas ---------------------------------------------------

    def _seed_for_word(self, word: Tuple[int, ...]) -> Seed:
        if word in self._seed_cache:
            return self._seed_cache[word]
        seed = mutate_seed_word(self._seed_for_word(word[:-1]), [word[-1]])
        self._seed_cache[word] = seed
        return seed

    def theta_gfan(self, label: WeightVec) -> ThetaFunction:
        """The cluster variable with the given g-vector (ray of the g-fan): the
        lazy search finds a word, the cached seeds replay it and the variable
        must be pointed at the label.  NotFound if no seed within SEARCH_DEPTH
        mutations has it, as for the imaginary ray, which is no g-vector."""
        key = label.coords
        if key not in self._gvec_index:
            for g_col, word, col in self._frontier:
                self._gvec_index.setdefault(g_col, (word, col))
                if g_col == key:
                    break
            else:
                raise NotFound(SEARCH_DEPTH)
        word, col = self._gvec_index[key]
        var = self._seed_for_word(word).cluster[col]
        return ThetaFunction(label, self.assert_pointed(var, label), self.grading)

    def theta_tube_root(self, r: TubeRoot) -> ThetaFunction:
        """Theta of nu_c(arc); a cluster variable by the ray bijection."""
        label = self.data.nu_c(tube_root_vector(self.tubes[r.tube], r))
        theta = self._thetas.get(label.coords)
        if theta is None:
            theta = self._thetas[label.coords] = self.theta_gfan(label)
        return theta

    def _arc_product(self, *arcs: Optional[TubeRoot]) -> Optional[ThetaFunction]:
        """The pointed product of the arcs' thetas, None arcs skipped."""
        return self.product(self.theta_tube_root(r) for r in arcs if r)

    # -- the imaginary ray ------------------------------------------------------

    def _theta_delta_rank2(self) -> ThetaFunction:
        b12, b21 = self.data.b[0][1], self.data.b[1][0]
        label = self.nu_delta
        if (b12, b21) in _RANK2_DELTA_TABLE:
            poly = LaurentPoly(self.ctx, _RANK2_DELTA_TABLE[(b12, b21)])
        else:
            swapped = _RANK2_DELTA_TABLE.get((b21, b12))
            if swapped is None:
                raise NotInImaginaryWall("not an affine 2x2 exchange matrix")
            poly = LaurentPoly(
                self.ctx, {(e[1], e[0], e[3], e[2]): c for e, c in swapped.items()}
            )
        return ThetaFunction(label, self.assert_pointed(poly, label), self.grading)

    def theta_delta_from(self, tube_idx: int, orbit_pos: int) -> ThetaFunction:
        """Theta of nu_c(delta) computed from one chosen tube simple:
        theta_{nu(beta)} theta_{nu(delta-beta)} - y^beta theta_{nu(delta-beta-c^{-1}beta)}
                                               - y^{c beta} theta_{nu(delta-beta-c beta)}."""
        tube = self.tubes[tube_idx]
        k = tube.size
        i = orbit_pos % k
        t_beta = self.theta_tube_root(TubeRoot(tube.index, i, 1))
        t_rest = self.theta_tube_root(TubeRoot(tube.index, (i + 1) % k, k - 1))
        if k == 2:
            tail1 = tail2 = None
        else:
            tail1 = self.theta_tube_root(TubeRoot(tube.index, (i + 1) % k, k - 2))
            tail2 = self.theta_tube_root(TubeRoot(tube.index, (i + 2) % k, k - 2))
        return self._theta_from_sum(
            self.nu_delta,
            [
                (1, None, self.multiply(t_beta, t_rest)),
                (-1, tube.orbit[i], tail1),
                (-1, tube.orbit[(i + 1) % k], tail2),
            ],
        )

    def theta_delta(self) -> ThetaFunction:
        return self.theta_k_delta(1)

    def theta_k_delta(self, k: int) -> ThetaFunction:
        """Theta of k*nu_c(delta): theta_1 from the rank-2 table or a tube,
        then the recursion
        theta_2 = theta_1^2 - 2 y^delta,  theta_k = theta_{k-1} theta_1 - y^delta theta_{k-2}."""
        if k < 1:
            raise ValueError("k must be >= 1")
        delta = self.data.delta
        ray = [self.nu_delta.scale(j).coords for j in range(k + 1)]
        for j in range(1, k + 1):
            if ray[j] in self._thetas:
                continue
            if j > 1:
                t1, prev = self._thetas[ray[1]], self._thetas[ray[j - 1]]
                tail = (-2, delta, None) if j == 2 else (-1, delta, self._thetas[ray[j - 2]])
                terms = [(1, None, self.multiply(prev, t1)), tail]
                theta = self._theta_from_sum(WeightVec(ray[j]), terms)
            elif self.n == 2:
                theta = self._theta_delta_rank2()
            elif self.tubes:
                theta = self.theta_delta_from(0, 0)
            else:
                raise NotInImaginaryWall(
                    "no tube simples detected; theta_delta needs rank 2 or a tube"
                )
            self._thetas[ray[j]] = theta
        return self._thetas[ray[k]]

    # -- general points of the imaginary wall -----------------------------------

    def theta_imaginary(self, phi: RootVec) -> ThetaFunction:
        """Theta of nu_c(phi) for phi in the tube cone, as the product
        theta_{m_delta nu(delta)} * prod theta_{nu(arc)}^mult."""
        m_delta, arcs = cluster_expansion_imaginary(self.data, self.tubes, phi)
        pieces = [self.theta_k_delta(m_delta)] if m_delta else []
        for r in sorted(arcs):
            pieces += [self.theta_tube_root(r)] * arcs[r]
        theta = self.product(pieces) or self._thetas[(0,) * self.n]
        if theta.label != self.data.nu_c(phi):
            raise IdentityViolated("compatible expansion does not sum to phi")
        return theta

    def theta_by_label(self, label: WeightVec) -> ThetaFunction:
        """Theta for a lattice point of the imaginary wall given by its label
        (theta_0 = 1 by convention), built once per engine."""
        theta = self._thetas.get(label.coords)
        if theta is None:
            theta = self._thetas[label.coords] = self.theta_imaginary(self.data.nu_c_inv(label))
        return theta

    # -- products in the theta basis ----------------------------------------------

    def expand_product(
        self, a: ThetaFunction, b: ThetaFunction
    ) -> Dict[WeightVec, LaurentPoly]:
        """Expand theta_a * theta_b as a k[y]-combination of thetas with
        positive coefficients (theta-basis positivity).

        Greedy peeling: each peel takes the remainder's pointed leading term
        (least total u-degree, then graded-lex largest x-part kappa) and
        subtracts theta_kappa times the coefficient of x^kappa.  Thetas form
        a basis, so the expansion does not depend on the peel order; a
        remainder that survives PEEL_BUDGET peels aborts loudly.  The
        remainder is an F-polynomial at lam = label(a) + label(b);
        u^gamma theta_kappa sits at lam exactly when lam + B gamma = kappa,
        so every peel stays there."""
        lam = (a.label + b.label).coords
        x_part = self.grading.x_part
        remainder = mul_terms(a.f, b.f)
        combo: Dict[WeightVec, Dict[Exponent, int]] = {}
        for _ in range(PEEL_BUDGET):
            if not remainder:
                break
            at = {beta: x_part(lam, beta) for beta in remainder}
            best = min(at, key=lambda beta: (sum(beta), tuple(-x for x in at[beta])))
            kappa = WeightVec(at[best])
            coeff = {beta: c for beta, c in remainder.items() if at[beta] == kappa.coords}
            try:
                theta = self.theta_by_label(kappa)
            except NotInImaginaryWall as exc:
                raise IdentityViolated(
                    f"product of imaginary thetas left d_infinity: {exc}"
                ) from exc
            _add_into(remainder, mul_terms(coeff, theta.f), -1)
            _add_into(combo.setdefault(kappa, {}), coeff, 1)
        if remainder:
            raise IdentityViolated("theta-basis peeling exceeded its budget")
        # structure constants lie in k[y] with positive coefficients (GHKK)
        for coeff in combo.values():
            for gamma, c in coeff.items():
                if any(x < 0 for x in gamma):
                    raise IdentityViolated("structure constant not in k[y]")
                if c <= 0:
                    raise IdentityViolated("structure constant has a nonpositive coefficient")
        zero = (0,) * self.n
        return {
            kappa: LaurentPoly(self.ctx, {zero + gamma: c for gamma, c in coeff.items()})
            for kappa, coeff in combo.items()
            if coeff
        }

    # -- exchange identities --------------------------------------------------------

    def imaginary_exchange(self, tube_idx: int, i: int, j: int) -> dict:
        """Verify the three-term imaginary exchange relation for the pair
        (delta - beta_[i], delta - beta_[j]) in one tube orbit.  Raises
        IdentityViolated on failure."""
        tube = self.tubes[tube_idx]
        k = tube.size
        i %= k
        j %= k
        if i == j:
            raise ValueError("need two distinct orbit positions")
        ell = (j - i) % k
        m = k - ell
        phi = TubeRoot(tube.index, (i + 1) % k, ell - 1) if ell > 1 else None
        phi_p = TubeRoot(tube.index, (j + 1) % k, m - 1) if m > 1 else None
        vec_phi = tube_root_vector(tube, phi) if phi else RootVec((0,) * self.n)
        vec_phi_p = tube_root_vector(tube, phi_p) if phi_p else RootVec((0,) * self.n)
        lhs = self._arc_product(
            TubeRoot(tube.index, (i + 1) % k, k - 1), TubeRoot(tube.index, (j + 1) % k, k - 1)
        )
        rhs = [
            (1, None, self.theta_by_label(self.data.nu_c(self.data.delta + vec_phi + vec_phi_p))),
            (1, vec_phi_p + tube.orbit[i], self._arc_product(phi, phi)),
            (1, vec_phi + tube.orbit[j], self._arc_product(phi_p, phi_p)),
        ]
        if not self.same([(1, None, lhs)], rhs):
            raise IdentityViolated(
                f"imaginary exchange failed for tube {tube_idx}, positions {i},{j}"
            )
        return {"vacuous": phi is None and phi_p is None}

    def real_exchange(self, tube_idx: int, j_set, gamma: TubeRoot) -> dict:
        """Verify the two-term exchange relation for a non-maximal gamma in a
        maximal compatible set:  theta_g theta_g' = theta_phi theta_phi2
        + y^{phi2 + beta'} theta_phi1 theta_phi3."""
        tube = self.tubes[tube_idx]
        js = check_maximal(tube, j_set)
        gamma_p = exchange_partner(tube, js, gamma)
        info = nonmax_root_data(tube, js, gamma)
        phi2 = tube_root_vector(tube, info.phi2) if info.phi2 else RootVec((0,) * self.n)
        lhs = [(1, None, self._arc_product(gamma, gamma_p))]
        rhs = [
            (1, None, self._arc_product(info.phi, info.phi2)),
            (1, phi2 + tube.orbit[info.beta_prime_idx], self._arc_product(info.phi1, info.phi3)),
        ]
        if not self.same(lhs, rhs):
            raise IdentityViolated(
                f"real exchange failed for {gamma} in tube {tube_idx}"
            )
        return {"partner": gamma_p}

    # -- coefficient specialization ---------------------------------------------

    def specialize_coefficient_free(self, p: LaurentPoly) -> LaurentPoly:
        """Set every tropical variable to 1 (the coefficient-free engine)."""
        images = {
            self.n + i: LaurentPoly.const(self.ctx, 1) for i in range(self.n)
        }
        return substitute(p, images)
