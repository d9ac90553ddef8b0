"""Affine root-system layer: Cartan matrix, delta, bilinear forms, Coxeter
action, tube detection, arc combinatorics and the nu_c map.

Arc i of a size-k tube is TubeRoot(tube, i % k, i // k + 1), the all_arcs
order, and an arc set is an int bitset over arc numbers.  Per tube size one
table, built on first use, holds each arc's support as a k-bit mask and the
bitset of the arcs compatible with it; the arc helpers are bit operations.

Roots are integer vectors in the simple-root basis (RootVec), weights in the
fundamental-weight basis (WeightVec).  All arithmetic is exact.  Set-up and
the imaginary-wall solve run on integers: the one elimination routine, _rref,
is fraction-free and returns integer rows over a common denominator d > 0;
the tube test omega_c(delta, v) = 0 is an integer dot product; and the wall
solve reads numerators over d, testing divisibility and sign.  The
symmetrizer is kept once, as the integer coroot scalers AffineData.e.
Nothing here uses Fraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .seeds import ExtendedExchangeMatrix, RootVec, Rows, WeightVec, coroot_scalers


class NotAcyclic(ValueError):
    """The exchange matrix has a directed cycle."""


class NotAffineType(ValueError):
    """The Cartan counterpart is not of affine type."""


class SimplesMismatch(RuntimeError):
    """The tubes found are not all the tubes.

    The engine identifies the tube simples by the orbit-sum-equals-delta
    criterion.  On some twisted affine Cartan types, and on the transposes
    -B^T of some types, finite orbits of positive real roots sum to a proper
    multiple of delta instead.  So the tube sizes r_i are certified against
    sum(r_i - 1) = n - 2 (Dlab-Ringel), and a tube that the criterion misses
    is reported loudly rather than dropped silently."""


class NotInImaginaryWall(ValueError):
    """The vector is not in the cone spanned by delta and the tube roots."""


class NotMaximal(ValueError):
    """The arc set is not a maximal pairwise compatible set."""


class NotMember(ValueError):
    """The arc does not belong to the given set or tube."""


class NegativeInput(ValueError):
    """nu_c is only implemented on nonnegative root vectors."""


def source_to_sink_order(b: Rows) -> Tuple[int, ...]:
    """Topological order with b[i][j] > 0 forcing i before j."""
    n = len(b)
    succ = {i: [j for j in range(n) if b[i][j] > 0] for i in range(n)}
    indeg = [0] * n
    for i in range(n):
        for j in succ[i]:
            indeg[j] += 1
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    order: List[int] = []
    while ready:
        i = ready.pop(0)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
        ready.sort()
    if len(order) != n:
        raise NotAcyclic("positivity digraph has a cycle")
    return tuple(order)


def cartan_matrix(b: Rows) -> Rows:
    n = len(b)
    return tuple(
        tuple(2 if i == j else -abs(b[i][j]) for j in range(n)) for i in range(n)
    )


def _rref(
    rows: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[int], int, int]:
    """Exact fraction-free (Bareiss) Gauss-Jordan elimination over the integers.

    Returns (R, pivots, d, det): integer rows R = d * rref(A) with the common
    denominator d > 0, the pivot column of each leading row in order, and the
    determinant, which is 0 unless the matrix is square and invertible.  After
    k pivots every entry is a k x k minor of A, so each division by the
    previous pivot is exact and every pivot entry equals the current pivot."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    pivots: List[int] = []
    prev = 1
    sign = 1
    for col in range(ncols):
        row = len(pivots)
        pivot = next((r for r in range(row, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != row:
            m[row], m[pivot] = m[pivot], m[row]
            sign = -sign
        prow = m[row]
        p = prow[col]
        for r in range(nrows):
            if r == row:
                continue
            factor = m[r][col]
            # Cartan-type matrices are sparse: skip the products with zero.
            if factor:
                m[r] = [(p * a - factor * b) // prev for a, b in zip(m[r], prow)]
            elif p != prev:
                m[r] = [p * a // prev if a else 0 for a in m[r]]
        prev = p
        pivots.append(col)
    det = sign * prev if nrows == ncols == len(pivots) else 0
    if prev < 0:
        m = [[-a for a in r] for r in m]
        prev = -prev
    return m, pivots, prev, det


@dataclass(frozen=True)
class AffineData:
    """Everything derived from an acyclic affine exchange matrix."""

    b: Rows
    cartan: Rows
    e: Tuple[int, ...]  # 1/d_i for the skew-symmetrizer d
    order: Tuple[int, ...]  # source-to-sink listing of indices
    delta: RootVec
    e_c: Rows
    e_cinv: Rows

    @property
    def n(self) -> int:
        return len(self.b)

    # -- reflections and the Coxeter element --------------------------------

    def reflect_root(self, r: int, v: RootVec) -> RootVec:
        pairing = sum(self.cartan[r][i] * v.coords[i] for i in range(self.n))
        coords = list(v.coords)
        coords[r] -= pairing
        return RootVec(tuple(coords))

    def coxeter_root(self, v: RootVec) -> RootVec:
        """c(v): one reflection per index, sink to source."""
        for r in reversed(self.order):
            v = self.reflect_root(r, v)
        return v

    @cached_property
    def coxeter_matrix(self) -> Rows:
        """The matrix of c on simple-root coordinates: column j is c(alpha_j)."""
        n = self.n
        cols = [
            self.coxeter_root(RootVec(tuple(int(i == j) for i in range(n)))).coords
            for j in range(n)
        ]
        return tuple(tuple(col[i] for col in cols) for i in range(n))

    # -- the form omega_c ----------------------------------------------------

    def b_weight(self, v: RootVec) -> WeightVec:
        """omega_c(., v) as a weight vector: the matrix product B v."""
        return WeightVec(
            tuple(sum(self.b[i][j] * v.coords[j] for j in range(self.n)) for i in range(self.n))
        )

    # -- nu_c ------------------------------------------------------------------

    def nu_c(self, v: RootVec) -> WeightVec:
        """nu_c on nonnegative root vectors: -E_c(., v)."""
        if any(x < 0 for x in v.coords):
            raise NegativeInput("nu_c implemented only on nonnegative root vectors")
        return WeightVec(
            tuple(
                -sum(self.e_c[i][j] * v.coords[j] for j in range(self.n))
                for i in range(self.n)
            )
        )

    def nu_c_inv(self, w: WeightVec) -> RootVec:
        """Inverse of nu_c as a linear map Q -> P (exact, unimodular)."""
        target = [-x for x in w.coords]
        coords = [0] * self.n
        # E_c is unitriangular with respect to the source-to-sink order.
        for i in self.order:
            acc = target[i] - sum(
                self.e_c[i][j] * coords[j] for j in range(self.n) if j != i
            )
            coords[i] = acc
        root = RootVec(tuple(coords))
        check = tuple(
            -sum(self.e_c[i][j] * root.coords[j] for j in range(self.n))
            for i in range(self.n)
        )
        if check != w.coords:
            raise AssertionError("nu_c_inv failed to invert")
        return root


def build_affine_data(matrix) -> AffineData:
    """Certify acyclicity and affine type, compute delta, forms and c.

    Affine type is Cartan corank 1 with a strictly positive kernel vector:
    such a matrix is indecomposable (a decomposable one would have a kernel
    vector per block), and an indecomposable generalized Cartan matrix with
    a positive null vector is affine (Kac, Infinite-dimensional Lie
    algebras, Cor. 4.3)."""
    if isinstance(matrix, ExtendedExchangeMatrix):
        b = matrix.top()
    else:
        b = tuple(tuple(r) for r in matrix)
    n = len(b)
    e = coroot_scalers(b)
    order = source_to_sink_order(b)
    a = cartan_matrix(b)
    reduced, pivots, denom, det = _rref(a)
    if det != 0:
        raise NotAffineType("Cartan determinant is nonzero")
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise NotAffineType("Cartan corank is not 1")
    # the kernel over the common denominator: denom at the free column
    ints = [0] * n
    ints[free[0]] = denom
    for r, c in enumerate(pivots):
        ints[c] = -reduced[r][free[0]]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    if any(x <= 0 for x in ints):
        raise NotAffineType("kernel vector is not strictly positive")
    delta = RootVec(tuple(ints))

    e_c = tuple(
        tuple(1 if i == j else min(b[i][j], 0) for j in range(n)) for i in range(n)
    )
    e_cinv = tuple(
        tuple(1 if i == j else -max(b[i][j], 0) for j in range(n)) for i in range(n)
    )
    data = AffineData(
        b=b, cartan=a, e=e, order=order, delta=delta, e_c=e_c, e_cinv=e_cinv,
    )
    cox = data.coxeter_matrix
    # Howlett: E_{c^{-1}} * M_c = -E_c, and c fixes delta.
    for i in range(n):
        for j in range(n):
            lhs = sum(e_cinv[i][t] * cox[t][j] for t in range(n))
            if lhs != -e_c[i][j]:
                raise AssertionError("Coxeter matrix fails the E_c identity")
    if data.coxeter_root(delta) != delta:
        raise AssertionError("delta is not fixed by c")
    return data


# -- positive real roots and tubes -------------------------------------------

def positive_real_roots(data: AffineData, bound: Sequence[int]) -> List[RootVec]:
    """All positive real roots v <= bound componentwise, by reflection closure.

    A reflection s_r changes only coordinate r, by minus the pairing of the
    root with the simple coroot r.  Every positive real root falls to a simple
    root by reflections that each lower one coordinate, so the reverse chain
    climbs to it through roots below it: the closure of the simple roots in
    the box under the raising reflections is every root in the box."""
    n = data.n
    # the nonzero entries of each Cartan row
    rows = [[(i, x) for i, x in enumerate(row) if x] for row in data.cartan]
    frontier = [tuple(int(j == i) for j in range(n)) for i in range(n) if bound[i] >= 1]
    seen: Set[Tuple[int, ...]] = set(frontier)
    out = list(frontier)
    while frontier:
        nxt: List[Tuple[int, ...]] = []
        for v in frontier:
            for r in range(n):
                pairing = sum(x * v[i] for i, x in rows[r])
                if pairing >= 0 or v[r] - pairing > bound[r]:
                    continue
                w = v[:r] + (v[r] - pairing,) + v[r + 1 :]
                if w not in seen:
                    seen.add(w)
                    out.append(w)
                    nxt.append(w)
        frontier = nxt
    out.sort(key=lambda v: (sum(v), v))
    return [RootVec(v) for v in out]


@dataclass(frozen=True)
class Tube:
    """One c-orbit of tube simples: orbit[i+1] = c(orbit[i]), sum = delta."""

    index: int
    orbit: Tuple[RootVec, ...]

    @property
    def size(self) -> int:
        return len(self.orbit)


@dataclass(frozen=True, order=True)
class TubeRoot:
    """The arc beta_[start, start+length-1] in tube number `tube`."""

    tube: int
    start: int
    length: int


def detect_tubes(data: AffineData) -> List[Tube]:
    """Find the tube-simples orbits: c-orbits of positive real roots summing
    to delta.  Such an orbit has at least two members, so each lies strictly
    below delta and pairs to zero with it under omega_c; the orbits are
    walked inside that finite set Q.  Returns 0 to 3 tubes, each of size
    >= 2, whose sizes r_i satisfy sum(r_i - 1) = n - 2 (Dlab-Ringel)."""
    n = data.n
    # lcm(e) * omega_c(delta, .) as an integer row vector
    scale = lcm(*data.e)
    weights = [scale // ei * di for ei, di in zip(data.e, data.delta.coords)]
    omega_delta = [sum(w * row[j] for w, row in zip(weights, data.b)) for j in range(n)]
    # the Coxeter matrix, each row as its nonzero entries
    cox = [[(j, x) for j, x in enumerate(row) if x] for row in data.coxeter_matrix]

    def coxeter(v: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(sum(x * v[j] for j, x in row) for row in cox)

    roots = positive_real_roots(data, data.delta.coords)
    qualifying = [v.coords for v in roots if not sum(map(mul, omega_delta, v.coords))]
    in_q = set(qualifying)
    seen: Set[Tuple[int, ...]] = set()
    orbits: List[Tuple[Tuple[int, ...], ...]] = []
    for v in qualifying:
        if v in seen:
            continue
        # c is injective and Q finite, so a walk that stays in Q returns to
        # v; a walk that leaves Q is no tube orbit
        orbit = [v]
        cur = coxeter(v)
        while cur != v and cur in in_q:
            orbit.append(cur)
            cur = coxeter(cur)
        seen.update(orbit)
        if cur == v and tuple(map(sum, zip(*orbit))) == data.delta.coords:
            base = orbit.index(min(orbit))
            orbits.append(tuple(orbit[base:] + orbit[:base]))
    orbits.sort(key=lambda o: (len(o), o[0]))
    tubes = [Tube(index=i, orbit=tuple(map(RootVec, o))) for i, o in enumerate(orbits)]
    sizes = [t.size for t in tubes]
    if sum(sizes) - len(sizes) != n - 2:
        raise SimplesMismatch(
            f"tube sizes {sizes} do not satisfy sum(r_i - 1) = n - 2 = {n - 2}; "
            "the orbit-sum criterion missed a tube"
        )
    if len(tubes) > 3:
        raise AssertionError("more than three tube orbits found")
    if any(t.size < 2 for t in tubes):
        raise AssertionError("tube orbit of size < 2")
    return tubes


# -- arcs ---------------------------------------------------------------------

_ARC_TABLES: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}


def _arc_table(k: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(masks, compat) for tubes of size k: each arc's support as a k-bit
    mask, and per arc the bitset of the arcs compatible with it.  Two arcs
    are compatible when one support contains the other (nested), or when
    one support misses the other grown by a position on each side (spaced)."""
    table = _ARC_TABLES.get(k)
    if table is None:
        masks = tuple(sum(1 << (s + t) % k for t in range(l)) for l in range(1, k) for s in range(k))
        # each support grown by a position on each side, bits past k - 1 kept
        # because every other support clears them
        grown = [m | m << 1 | m >> 1 | m << (k - 1) | m >> (k - 1) for m in masks]
        compat = tuple(
            sum(1 << j for j, b in enumerate(masks) if a & b in (a, b) or not g & b)
            for a, g in zip(masks, grown)
        )
        table = _ARC_TABLES[k] = (masks, compat)
    return table


def _members(bits: int) -> Iterator[int]:
    """The positions of the set bits, in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _arc_number(tube: Tube, r: TubeRoot) -> int:
    k = tube.size
    if r.tube != tube.index:
        raise NotMember("arc belongs to a different tube")
    if not (0 <= r.start < k and 1 <= r.length < k):
        raise NotMember(f"arc {r} is out of range in a tube of size {k}")
    return (r.length - 1) * k + r.start


def _arc(tube: Tube, i: int) -> TubeRoot:
    return TubeRoot(tube.index, i % tube.size, i // tube.size + 1)


def _in(tube: Tube, js: int, r: TubeRoot) -> bool:
    return bool(js >> _arc_number(tube, r) & 1)


def all_arcs(tube: Tube) -> List[TubeRoot]:
    return [_arc(tube, i) for i in range(tube.size * (tube.size - 1))]


def arc_support(tube: Tube, r: TubeRoot) -> FrozenSet[int]:
    return frozenset(_members(_arc_table(tube.size)[0][_arc_number(tube, r)]))


def tube_root_vector(tube: Tube, r: TubeRoot) -> RootVec:
    first, *rest = (tube.orbit[t] for t in arc_support(tube, r))
    return sum(rest, first)


def same_tube_compatible(tube: Tube, r1: TubeRoot, r2: TubeRoot) -> bool:
    compat = _arc_table(tube.size)[1]
    return bool(compat[_arc_number(tube, r1)] >> _arc_number(tube, r2) & 1)


def compatible(tubes: Sequence[Tube], r1: TubeRoot, r2: TubeRoot) -> bool:
    """Nested or spaced (same tube), always true across different tubes."""
    if r1.tube != r2.tube:
        return True
    return same_tube_compatible(tubes[r1.tube], r1, r2)


def check_maximal(tube: Tube, j: Iterable[TubeRoot]) -> int:
    """The bitset of the arc set j, checked to be maximal compatible: k - 1
    arcs, each compatible with all the others.  The helpers below take this
    checked bitset and do not check it again."""
    compat = _arc_table(tube.size)[1]
    js = 0
    for r in j:
        js |= 1 << _arc_number(tube, r)
    if js.bit_count() != tube.size - 1:
        raise NotMaximal(f"expected {tube.size - 1} arcs, got {js.bit_count()}")
    for i in _members(js):
        clash = js & ~compat[i]
        if clash:
            a, b = sorted((_arc(tube, i), _arc(tube, next(_members(clash)))))
            raise NotMaximal(f"arcs {a} and {b} are not compatible")
    return js


def exchange_partner(tube: Tube, js: int, gamma: TubeRoot) -> TubeRoot:
    """The unique arc gamma' != gamma with (J - gamma) + gamma' maximal: the
    one arc outside J compatible with every arc of J - gamma."""
    if not _in(tube, js, gamma):
        raise NotMember("gamma is not in J")
    compat = _arc_table(tube.size)[1]
    left = (1 << len(compat)) - 1
    for j in _members(js ^ 1 << _arc_number(tube, gamma)):
        left &= compat[j]
    left &= ~js
    if not left or left & (left - 1):
        found = [_arc(tube, j) for j in _members(left)]
        raise AssertionError(f"expected a unique exchange partner, found {found}")
    return _arc(tube, left.bit_length() - 1)


def fan(tube: Tube) -> List[TubeRoot]:
    """The maximal compatible set of the arcs that start at position 0; it
    is the least one in the order of maximal_compatible_sets."""
    return [TubeRoot(tube.index, 0, l) for l in range(1, tube.size)]


def maximal_compatible_sets(tube: Tube) -> List[FrozenSet[TubeRoot]]:
    """All maximal compatible arc sets, binom(2k - 2, k - 1) of them in a
    tube of size k (the clusters of type C_{k-1}), found by flips from the
    fan: the flip graph is connected."""
    start = check_maximal(tube, fan(tube))
    seen = {start}
    todo = [start]
    while todo:
        js = todo.pop()
        for i in _members(js):
            partner = exchange_partner(tube, js, _arc(tube, i))
            flipped = js ^ 1 << i | 1 << _arc_number(tube, partner)
            if flipped not in seen:
                seen.add(flipped)
                todo.append(flipped)
    sets = [frozenset(_arc(tube, i) for i in _members(js)) for js in seen]
    return sorted(sets, key=lambda s: sorted((r.start, r.length) for r in s))


def next_larger(tube: Tube, js: int, gamma: TubeRoot) -> Optional[TubeRoot]:
    masks = _arc_table(tube.size)[0]
    g = _arc_number(tube, gamma)
    ups = [i for i in _members(js) if i != g and masks[i] & masks[g] == masks[g]]
    if not ups:
        return None
    # arc numbers grow with length, so ups[0] is a shortest one
    assert sum(1 for i in ups if i // tube.size == ups[0] // tube.size) == 1
    return _arc(tube, ups[0])


def private_element(tube: Tube, js: int, gamma: TubeRoot) -> int:
    """The unique orbit index in Supp(gamma) not covered by any other root
    of J whose support does not contain Supp(gamma)."""
    masks = _arc_table(tube.size)[0]
    g = _arc_number(tube, gamma)
    sg = masks[g]
    covered = 0
    for i in _members(js):
        if i != g and masks[i] & sg != sg:
            covered |= masks[i]
    left = sg & ~covered
    if not left or left & (left - 1):
        raise AssertionError(f"private element not unique: {list(_members(left))}")
    return left.bit_length() - 1


@dataclass(frozen=True)
class MaxRootData:
    """Exchange data for the maximal root gamma = delta - beta of a maximal
    compatible set: beta is the missing simple, beta_prime the private element
    of gamma, phi/phi_prime the (possibly empty) runs strictly between them."""

    beta_idx: int
    beta_prime_idx: int
    phi: Optional[TubeRoot]
    phi_prime: Optional[TubeRoot]


def max_root_data(tube: Tube, js: int, gamma: TubeRoot) -> MaxRootData:
    k = tube.size
    if gamma.length != k - 1 or not _in(tube, js, gamma):
        raise NotMember("gamma is not the maximal root of J")
    beta_idx = (gamma.start - 1) % k
    beta_prime_idx = private_element(tube, js, gamma)
    ell = (beta_prime_idx - beta_idx) % k
    phi = TubeRoot(tube.index, (beta_idx + 1) % k, ell - 1) if ell > 1 else None
    phi_prime = (
        TubeRoot(tube.index, (beta_prime_idx + 1) % k, k - ell - 1)
        if k - ell > 1
        else None
    )
    for piece in (phi, phi_prime):
        if piece is not None and not _in(tube, js, piece):
            raise AssertionError(f"next-smaller piece {piece} missing from J")
    return MaxRootData(beta_idx, beta_prime_idx, phi, phi_prime)


@dataclass(frozen=True)
class NonMaxRootData:
    """Exchange data for a non-maximal gamma: phi is its next larger root,
    beta/beta_prime the two private elements ordered along Supp(phi) in the
    orbit direction, and phi1/phi2/phi3 the runs of Supp(phi) left after
    deleting them (before beta, between, after beta_prime)."""

    phi: TubeRoot
    beta_idx: int
    beta_prime_idx: int
    phi1: Optional[TubeRoot]
    phi2: Optional[TubeRoot]
    phi3: Optional[TubeRoot]
    gamma_owns_beta: bool  # gamma's private element is beta (not beta_prime)


def nonmax_root_data(tube: Tube, js: int, gamma: TubeRoot) -> NonMaxRootData:
    k = tube.size
    phi = next_larger(tube, js, gamma)
    if phi is None:
        raise NotMember("gamma is the maximal root; no next larger root")
    pos = {(phi.start + t) % k: t for t in range(phi.length)}
    b_phi = private_element(tube, js, phi)
    b_gamma = private_element(tube, js, gamma)
    if pos[b_phi] < pos[b_gamma]:
        beta_idx, beta_prime_idx = b_phi, b_gamma
    else:
        beta_idx, beta_prime_idx = b_gamma, b_phi
    p_beta, p_prime = pos[beta_idx], pos[beta_prime_idx]

    def run(a: int, b: int) -> Optional[TubeRoot]:
        if b <= a:
            return None
        return TubeRoot(tube.index, (phi.start + a) % k, b - a)

    phi1 = run(0, p_beta)
    phi2 = run(p_beta + 1, p_prime)
    phi3 = run(p_prime + 1, phi.length)
    for piece in (phi1, phi2, phi3):
        if piece is not None and not _in(tube, js, piece):
            raise AssertionError(f"piece {piece} missing from J")
    owns_beta = b_gamma == beta_idx
    if gamma != (run(0, p_prime) if owns_beta else run(p_beta + 1, phi.length)):
        raise AssertionError("gamma does not match its pieces (orientation bug)")
    return NonMaxRootData(phi, beta_idx, beta_prime_idx, phi1, phi2, phi3, owns_beta)


# -- membership and cluster expansion inside the imaginary wall ---------------

def _tube_profiles(
    data: AffineData, tubes: Sequence[Tube], phi: RootVec
) -> Optional[Tuple[List[List[int]], int, int]]:
    """Solve phi = sum of orbit vectors with per-tube profiles; returns the
    numerators of the min-reduced profiles and of the total delta
    multiplicity over their common denominator d > 0, or None."""
    if not tubes:
        # d_infinity degenerates to the ray of delta.
        dcoords = data.delta.coords
        if any(p * dcoords[0] != phi.coords[0] * q for p, q in zip(phi.coords, dcoords)):
            return None
        return [], phi.coords[0], dcoords[0]
    # Solve the augmented system [orbit vectors | phi]; free unknowns are 0.
    orbits = [v for tube in tubes for v in tube.orbit]
    aug = [[v.coords[i] for v in orbits] + [x] for i, x in enumerate(phi.coords)]
    reduced, pivots, denom, _ = _rref(aug)
    if len(orbits) in pivots:
        return None
    sol = [0] * len(orbits)
    for r, c in enumerate(pivots):
        sol[c] = reduced[r][-1]
    profiles: List[List[int]] = []
    pos = 0
    total = 0
    for tube in tubes:
        chunk = sol[pos : pos + tube.size]
        pos += tube.size
        t = min(chunk)
        total += t
        profiles.append([x - t for x in chunk])
    return profiles, total, denom


def _quotient_text(num: int, den: int) -> str:
    """num/den in lowest terms, written as str(Fraction(num, den)) would."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def cluster_expansion_imaginary(
    data: AffineData, tubes: Sequence[Tube], phi: RootVec
) -> Tuple[int, Dict[TubeRoot, int]]:
    """Decompose phi as m_delta * delta plus a compatible arc combination.

    Per tube the profile of orbit coordinates is reduced by its minimum (the
    delta content), then cut into nested/spaced arcs by slab decomposition.
    Raises NotInImaginaryWall when phi is not in the cone or not integral."""
    res = _tube_profiles(data, tubes, phi)
    if res is None:
        raise NotInImaginaryWall(f"{phi} is not in the span of the tube simples")
    profiles, total, denom = res
    if total < 0 or total % denom:
        raise NotInImaginaryWall(
            f"delta multiplicity {_quotient_text(total, denom)} is not a nonnegative integer"
        )
    m_delta = total // denom
    arcs: Dict[TubeRoot, int] = {}
    for tube, profile in zip(tubes, profiles):
        if any(x < 0 or x % denom for x in profile):
            raise NotInImaginaryWall("tube profile is not nonnegative integral")
        q = [x // denom for x in profile]
        k = tube.size
        zero = q.index(0)
        # Cut the cycle at a zero so every emitted arc is an honest interval.
        line = [(zero + 1 + i) % k for i in range(k - 1)]
        values = [q[p] for p in line]
        while any(values):
            i = 0
            while i < len(values):
                if values[i] == 0:
                    i += 1
                    continue
                jx = i
                while jx < len(values) and values[jx] > 0:
                    jx += 1
                run = range(i, jx)
                mn = min(values[t] for t in run)
                root = TubeRoot(tube.index, line[i], jx - i)
                arcs[root] = arcs.get(root, 0) + mn
                for t in run:
                    values[t] -= mn
                i = jx
    for r1, r2 in itertools.combinations(arcs, 2):
        if not compatible(tubes, r1, r2):
            raise AssertionError("slab decomposition emitted incompatible arcs")
    recon = data.delta.scale(m_delta)
    for r, mult in arcs.items():
        recon = recon + tube_root_vector(tubes[r.tube], r).scale(mult)
    if recon != phi:
        raise AssertionError("cluster expansion failed to reconstruct the input")
    return m_delta, arcs
