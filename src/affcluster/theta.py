"""Theta functions attached to lattice points of the imaginary wall.

Everything is computed for the principal-coefficient extension of an acyclic
affine exchange matrix: theta functions on the g-vector fan are cluster
variables (found by g-vector search), the theta function of delta comes from
the rank-2 closed forms or from the boundary identity, multiples of delta
from the Chebyshev-style recursion, and interior points from the product
over a compatible expansion.  Products of thetas are re-expanded in the theta
basis by greedy peeling.

A theta function is pointed: every term is x^(label + B beta) u^beta with
beta >= 0, so it is stored as its label and its F-polynomial
F: beta -> coefficient (ThetaFunction).  A product of thetas is the sum of
the labels and the product of the F-polynomials, which poly.mul_terms
packs into big integers whenever the exponent box is dense enough.  The
recursion, the boundary identity and the products over compatible
expansions run in this form; a LaurentPoly is built only when a caller
reads ThetaFunction.poly.  Pointedness is checked in full where a
LaurentPoly enters (the g-vector search, the rank-2 table), and every
F-polynomial made by subtraction is checked for F(0) = 1 and positive
coefficients; products keep both properties by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Tuple

from . import affine
from .affine import (
    AffineData,
    NotInImaginaryWall,
    Tube,
    TubeRoot,
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
    tropical_monomial,
)


class IdentityViolated(AssertionError):
    """An identity that the engine relies on failed symbolically."""


class NonTerminating(RuntimeError):
    """Theta-basis peeling exceeded its budget; signals a violated identity."""


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
    x^(label + B beta) u^beta, built from the grading on first use unless
    given: a theta from the g-vector search or the rank-2 table keeps the
    LaurentPoly it came from.  Products of thetas (ThetaEngine.multiply)
    share this form; they are pointed but in general not theta functions.
    """

    __slots__ = ("label", "f", "_grading", "_poly")

    def __init__(
        self,
        label: WeightVec,
        f: Dict[Exponent, int],
        grading: Grading,
        poly: Optional[LaurentPoly] = None,
    ) -> None:
        self.label = label
        self.f = f
        self._grading = grading
        self._poly = poly

    @property
    def poly(self) -> LaurentPoly:
        if self._poly is None:
            self._poly = self._grading.poly(self.label.coords, self.f)
        return self._poly

    def __repr__(self) -> str:
        return f"ThetaFunction({self.label}, {self.poly})"


# A term c * y^gamma * theta of a sum; gamma None is y^0, theta None is 1.
Term = Tuple[int, Optional[RootVec], Optional[ThetaFunction]]


# The rank-2 closed forms, keyed by (b12, b21).  Exponent order: x1 x2 u1 u2.
_RANK2_DELTA_TABLE = {
    (2, -2): {(-1, 1, 0, 0): 1, (-1, -1, 1, 0): 1, (1, -1, 1, 1): 1},
    (4, -1): {(-2, 1, 0, 0): 1, (-2, 0, 1, 0): 2, (-2, -1, 2, 0): 1, (2, -1, 2, 1): 1},
    (1, -4): {(-1, 2, 0, 0): 1, (-1, -2, 1, 0): 1, (0, -2, 1, 1): 2, (1, -2, 1, 2): 1},
}


class ThetaEngine:
    """Theta-function calculator for one acyclic affine exchange matrix.

    Holds the affine data, the detected tubes, the principal-coefficient seed
    machinery and caches of computed theta functions."""

    def __init__(
        self,
        b_rows,
        depth: int = 8,
        height_bound: Optional[int] = None,
        peel_budget: int = 64,
    ) -> None:
        self.data: AffineData = affine.build_affine_data(b_rows)
        self.tubes: List[Tube] = affine.detect_tubes(self.data, height_bound)
        self.n = self.data.n
        self.depth = depth
        self.peel_budget = peel_budget
        self.matrix: ExtendedExchangeMatrix = principal_extension(self.data.b)
        self.ctx: VarContext = default_context(self.n, self.n)
        self.grading = Grading(self.ctx, self.data.b)
        self._frontier = enumerate_gvector_frontier(self.matrix, depth)
        self._gvec_index: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], int]] = {}
        self._seed_cache: Dict[Tuple[int, ...], Seed] = {(): initial_seed(self.matrix, self.ctx)}
        self._theta_cache: Dict[Tuple[int, ...], ThetaFunction] = {}
        self._k_delta: List[ThetaFunction] = []

    # -- monomial helpers ----------------------------------------------------

    def y_monomial(self, beta: RootVec, coeff: int = 1) -> LaurentPoly:
        """y^beta: the tropical monomial u^beta (principal coefficients)."""
        return tropical_monomial(self.ctx, beta.coords, coeff)

    def one(self) -> LaurentPoly:
        return LaurentPoly.const(self.ctx, 1)

    def assert_pointed(self, poly: LaurentPoly, label: WeightVec) -> Dict[Exponent, int]:
        """Pointedness at the label: p = x^label (1 + sum c_beta yhat^beta)
        with beta > 0 and c_beta > 0, i.e. every term is
        x^(label + B beta) u^beta.  Returns the F-polynomial beta -> c_beta."""
        n = self.n
        x_part = self.grading.x_part
        f = {}
        for e, c in poly.terms.items():
            beta = e[n:]
            if any(x < 0 for x in beta):
                raise IdentityViolated("negative tropical exponent in a theta function")
            if e[:n] != x_part(label.coords, beta):
                raise IdentityViolated("theta term off the pointed grading")
            f[beta] = c
        self._check_f(f)
        return f

    def _check_f(self, f: Dict[Exponent, int]) -> None:
        """F(0) = 1 and every coefficient positive."""
        one = f.get((0,) * self.n)
        if one is None:
            raise IdentityViolated("missing pointed term")
        if one != 1:
            raise IdentityViolated("pointed term has coefficient != 1")
        if any(c <= 0 for c in f.values()):
            raise IdentityViolated("nonpositive theta coefficient")

    # -- arithmetic in pointed form ----------------------------------------------

    def multiply(self, a: ThetaFunction, b: ThetaFunction) -> ThetaFunction:
        """theta_a * theta_b in pointed form: the label sum and the F product."""
        return ThetaFunction(a.label + b.label, mul_terms(a.f, b.f), self.grading)

    def _f_sum(self, terms: Sequence[Term]) -> Optional[Tuple[WeightVec, Dict[Exponent, int]]]:
        """sum c y^gamma theta as (label, F), using y^gamma (label, F) =
        (label - B gamma, u^gamma F); None when the terms sit at different
        labels."""
        zero = (0,) * self.n
        label = None
        out: Dict[Exponent, int] = {}
        get = out.get
        for c, gamma, theta in terms:
            at = WeightVec(zero) if theta is None else theta.label
            f = {zero: 1} if theta is None else theta.f
            if gamma is not None:
                at = at - self.data.b_weight(gamma)
                shift = gamma.coords
                f = {tuple(map(add, beta, shift)): v for beta, v in f.items()}
            if label is None:
                label = at
            elif at != label:
                return None
            for beta, v in f.items():
                out[beta] = get(beta, 0) + c * v
        return label, {beta: v for beta, v in out.items() if v}

    def _poly_sum(self, terms: Sequence[Term]) -> LaurentPoly:
        out = LaurentPoly.zero(self.ctx)
        for c, gamma, theta in terms:
            piece = self.y_monomial(RootVec((0,) * self.n) if gamma is None else gamma, c)
            out = out + (piece if theta is None else piece * theta.poly)
        return out

    def same(self, lhs: Sequence[Term], rhs: Sequence[Term]) -> bool:
        """Whether sum lhs == sum rhs exactly, for terms (c, gamma, theta)
        meaning c y^gamma theta.  When every term sits at one label this
        compares F-polynomials, which is LaurentPoly equality there;
        otherwise it compares the LaurentPoly sums."""
        diff = self._f_sum(list(lhs) + [(-c, gamma, theta) for c, gamma, theta in rhs])
        if diff is not None:
            return not diff[1]
        return self._poly_sum(lhs) == self._poly_sum(rhs)

    def _theta_from_sum(self, label: WeightVec, terms: Sequence[Term]) -> ThetaFunction:
        """The theta function sum c y^gamma theta, which must be pointed at
        label with F(0) = 1 and positive coefficients."""
        total = self._f_sum(terms)
        if total is None:
            # terms at different labels: check the LaurentPoly sum in full
            poly = self._poly_sum(terms)
            return ThetaFunction(label, self.assert_pointed(poly, label), self.grading, poly)
        at, f = total
        if at != label:
            raise IdentityViolated("theta term off the pointed grading")
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
        """The cluster variable with the given g-vector (ray of the g-fan)."""
        key = label.coords
        if key in self._theta_cache:
            return self._theta_cache[key]
        if key not in self._gvec_index:
            for g_col, word, col in self._frontier:
                self._gvec_index.setdefault(g_col, (word, col))
                if g_col == key:
                    break
            else:
                raise NotFound(self.depth)
        word, col = self._gvec_index[key]
        var = self._seed_for_word(word).cluster[col]
        theta = ThetaFunction(label, self.assert_pointed(var, label), self.grading, var)
        self._theta_cache[key] = theta
        return theta

    def theta_tube_root(self, r: TubeRoot) -> ThetaFunction:
        """Theta of nu_c(arc); a cluster variable by the ray bijection."""
        vec = tube_root_vector(self.tubes[r.tube], r)
        return self.theta_gfan(self.data.nu_c(vec))

    # -- the imaginary ray ------------------------------------------------------

    def _theta_delta_rank2(self) -> ThetaFunction:
        b12, b21 = self.data.b[0][1], self.data.b[1][0]
        label = self.data.nu_c(self.data.delta)
        if (b12, b21) in _RANK2_DELTA_TABLE:
            poly = LaurentPoly(self.ctx, _RANK2_DELTA_TABLE[(b12, b21)])
        else:
            swapped = _RANK2_DELTA_TABLE.get((b21, b12))
            if swapped is None:
                raise NotInImaginaryWall("not an affine 2x2 exchange matrix")
            poly = LaurentPoly(
                self.ctx, {(e[1], e[0], e[3], e[2]): c for e, c in swapped.items()}
            )
        return ThetaFunction(label, self.assert_pointed(poly, label), self.grading, poly)

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
            self.data.nu_c(self.data.delta),
            [
                (1, None, self.multiply(t_beta, t_rest)),
                (-1, tube.orbit[i], tail1),
                (-1, tube.orbit[(i + 1) % k], tail2),
            ],
        )

    def theta_delta(self) -> ThetaFunction:
        if self._k_delta:
            return self._k_delta[0]
        if self.n == 2:
            theta = self._theta_delta_rank2()
        elif not self.tubes:
            raise NotInImaginaryWall(
                "no tube simples detected; theta_delta needs rank 2 or a tube"
            )
        else:
            theta = self.theta_delta_from(0, 0)
        self._k_delta.append(theta)
        return theta

    def theta_k_delta(self, k: int) -> ThetaFunction:
        """Theta of k*nu_c(delta) by the recursion
        theta_2 = theta_1^2 - 2 y^delta,  theta_k = theta_{k-1} theta_1 - y^delta theta_{k-2}."""
        if k < 1:
            raise ValueError("k must be >= 1")
        self.theta_delta()
        delta = self.data.delta
        while len(self._k_delta) < k:
            j = len(self._k_delta) + 1
            t1 = self._k_delta[0]
            if j == 2:
                terms = [(1, None, self.multiply(t1, t1)), (-2, delta, None)]
            else:
                prev, prev2 = self._k_delta[-1], self._k_delta[-2]
                terms = [(1, None, self.multiply(prev, t1)), (-1, delta, prev2)]
            label = self.data.nu_c(delta).scale(j)
            self._k_delta.append(self._theta_from_sum(label, terms))
        return self._k_delta[k - 1]

    # -- general points of the imaginary wall -----------------------------------

    def theta_imaginary(self, phi: RootVec) -> ThetaFunction:
        """Theta of nu_c(phi) for phi in the tube cone, as the product
        theta_{m_delta nu(delta)} * prod theta_{nu(arc)}^mult."""
        m_delta, arcs = cluster_expansion_imaginary(self.data, self.tubes, phi)
        if m_delta == 0:
            theta = self.theta_by_label(WeightVec((0,) * self.n))
        else:
            theta = self.theta_k_delta(m_delta)
        for r in sorted(arcs):
            arc = self.theta_tube_root(r)
            for _ in range(arcs[r]):
                theta = self.multiply(theta, arc)
        if theta.label != self.data.nu_c(phi):
            raise IdentityViolated("compatible expansion does not sum to phi")
        return theta

    def theta_by_label(self, label: WeightVec) -> ThetaFunction:
        """Theta for a lattice point of the imaginary wall given by its label
        (theta_0 = 1 by convention)."""
        if label.is_zero():
            return ThetaFunction(label, {label.coords: 1}, self.grading)
        return self.theta_imaginary(self.data.nu_c_inv(label))

    # -- products in the theta basis ----------------------------------------------

    def _x_coefficient(self, p: LaurentPoly, kappa: WeightVec) -> LaurentPoly:
        """Sum of u-monomials over terms of p whose x-part equals kappa."""
        n = self.n
        out = {}
        for e, c in p.terms.items():
            if e[:n] == kappa.coords:
                out[(0,) * n + e[n:]] = c
        return LaurentPoly(self.ctx, out)

    def dominance_chain(self, label: WeightVec) -> List[WeightVec]:
        """{label - 2a nu_c(delta) : a >= 0} intersected with d_infinity."""
        out = []
        nu_delta = self.data.nu_c(self.data.delta)
        a = 0
        while True:
            kappa = label - nu_delta.scale(2 * a)
            if not affine.weight_in_imaginary_wall(self.data, self.tubes, kappa):
                break
            out.append(kappa)
            a += 1
        return out

    def expand_product(
        self, a: ThetaFunction, b: ThetaFunction
    ) -> Dict[WeightVec, LaurentPoly]:
        """Expand theta_a * theta_b as a k[y]-combination of thetas.

        First peels along the dominance chain of label(a)+label(b) (largest
        label first), then peels any remaining pointed leading terms; aborts
        loudly if the remainder survives the budget."""
        lam = a.label + b.label
        remainder = a.poly * b.poly
        combo: Dict[WeightVec, LaurentPoly] = {}

        def peel(kappa: WeightVec) -> None:
            nonlocal remainder
            coeff = self._x_coefficient(remainder, kappa)
            if not coeff:
                return
            theta = self.theta_by_label(kappa)
            remainder = remainder - coeff * theta.poly
            combo[kappa] = combo.get(kappa, LaurentPoly.zero(self.ctx)) + coeff

        for kappa in self.dominance_chain(lam):
            if not remainder:
                break
            peel(kappa)
        budget = self.peel_budget
        n = self.n
        while remainder:
            if budget == 0:
                raise NonTerminating("theta-basis peeling exceeded its budget")
            budget -= 1
            # pointed leading term: minimal total u-degree, graded-lex max x-part
            best = min(
                remainder.terms,
                key=lambda e: (sum(e[n:]), tuple(-x for x in e[:n])),
            )
            try:
                peel(WeightVec(best[:n]))
            except NotInImaginaryWall as exc:
                raise IdentityViolated(
                    f"product of imaginary thetas left d_infinity: {exc}"
                ) from exc
        for kappa, coeff in combo.items():
            for e in coeff.terms:
                if any(x < 0 for x in e[n:]):
                    raise IdentityViolated("structure constant not in k[y]")
        return {k: v for k, v in combo.items() if v}

    # -- exchange identities --------------------------------------------------------

    def imaginary_exchange(self, tube_idx: int, i: int, j: int) -> dict:
        """Verify the three-term imaginary exchange relation for the pair
        (delta - beta_[i], delta - beta_[j]) in one tube orbit; returns the
        right-hand side pieces.  Raises IdentityViolated on failure."""
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
        lhs = (
            self.theta_tube_root(TubeRoot(tube.index, (i + 1) % k, k - 1)).poly
            * self.theta_tube_root(TubeRoot(tube.index, (j + 1) % k, k - 1)).poly
        )
        t_main = self.theta_imaginary(self.data.delta + vec_phi + vec_phi_p).poly
        sq_phi = self.theta_tube_root(phi).poly ** 2 if phi else self.one()
        sq_phi_p = self.theta_tube_root(phi_p).poly ** 2 if phi_p else self.one()
        term2 = self.y_monomial(vec_phi_p + tube.orbit[i]) * sq_phi
        term3 = self.y_monomial(vec_phi + tube.orbit[j]) * sq_phi_p
        if lhs != t_main + term2 + term3:
            raise IdentityViolated(
                f"imaginary exchange failed for tube {tube_idx}, positions {i},{j}"
            )
        return {
            "vacuous": phi is None and phi_p is None,
            "lhs": lhs,
            "rhs": (t_main, term2, term3),
        }

    def real_exchange(self, tube_idx: int, j_set, gamma: TubeRoot) -> dict:
        """Verify the two-term exchange relation for a non-maximal gamma in a
        maximal compatible set:  theta_g theta_g' = theta_phi theta_phi2
        + y^{phi2 + beta'} theta_phi1 theta_phi3."""
        tube = self.tubes[tube_idx]
        info = nonmax_root_data(tube, j_set, gamma)
        gamma_p = exchange_partner(tube, j_set, gamma)

        def tpoly(r: Optional[TubeRoot]) -> LaurentPoly:
            return self.theta_tube_root(r).poly if r else self.one()

        def vec(r: Optional[TubeRoot]) -> RootVec:
            return tube_root_vector(tube, r) if r else RootVec((0,) * self.n)

        lhs = self.theta_tube_root(gamma).poly * self.theta_tube_root(gamma_p).poly
        first = tpoly(info.phi) * tpoly(info.phi2)
        second = self.y_monomial(
            vec(info.phi2) + tube.orbit[info.beta_prime_idx]
        ) * tpoly(info.phi1) * tpoly(info.phi3)
        if lhs != first + second:
            raise IdentityViolated(
                f"real exchange failed for {gamma} in tube {tube_idx}"
            )
        return {"lhs": lhs, "rhs": (first, second), "partner": gamma_p}

    # -- coefficient specialization ---------------------------------------------

    def specialize_coefficient_free(self, p: LaurentPoly) -> LaurentPoly:
        """Set every tropical variable to 1 (the coefficient-free engine)."""
        images = {
            self.n + i: LaurentPoly.const(self.ctx, 1) for i in range(self.n)
        }
        return substitute(p, images)
