"""Exchange matrices, seeds, mutation, mutation maps and g-vector search.

Matrices are tall: n+m rows by n columns, the top n x n block being the
exchange matrix proper and the remaining m rows the coefficient part.
All indices in this module are 0-based; the CLI converts from 1-based.

All arithmetic is integer: the skew-symmetrizer is decided by coroot_scalers,
and every g-vector comes from the G-matrix recursion (mutate_g), stepped
along a word by mutate_principal and over the exchange graph by the g-vector
search.  The Laurent seed (Seed, mutate_seed) is only the source of the
cluster variable that ThetaEngine.theta_gfan builds at a g-vector.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from math import gcd
from operator import neg

from .poly import (
    LaurentPoly,
    VarContext,
    default_context,
    exact_div,
)

Rows = tuple[tuple[int, ...], ...]


class NonSkewSymmetrizable(ValueError):
    """No positive skew-symmetrizing constants exist."""


class UnsignedColumn(ValueError):
    """A coefficient column mixes positive and negative entries."""


class NotFound(LookupError):
    """BFS exhausted its depth without locating the target g-vector."""

    def __init__(self, depth: int):
        super().__init__(f"no cluster variable with the target g-vector within depth {depth}")
        self.depth = depth


class _IntVec:
    """Integer coordinate vector; arithmetic keeps the subclass, and vectors
    of different subclasses (bases) never compare equal.  Immutable, and
    hashed as the tuple (coords,)."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]) -> None:
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.coords,))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(coords={self.coords!r})"

    def __reduce__(self) -> tuple:
        return type(self), (self.coords,)

    def __add__(self, other: _IntVec) -> _IntVec:
        return type(self)(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: _IntVec) -> _IntVec:
        return type(self)(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> _IntVec:
        return type(self)(tuple(-a for a in self.coords))

    def scale(self, k: int) -> _IntVec:
        return type(self)(tuple(k * a for a in self.coords))


class RootVec(_IntVec):
    """Integer vector in the simple-root basis."""

    __slots__ = ()

    def height(self) -> int:
        return sum(self.coords)


class WeightVec(_IntVec):
    """Integer vector in the fundamental-weight basis."""

    __slots__ = ()


def primitive_coroot(v: Sequence[int], e: Sequence[int]) -> tuple[int, ...]:
    """Simple-coroot coordinates of the primitive coroot parallel to the root
    v, given the scalers e_i with alpha_i_check = e_i alpha_i."""
    # smallest k with k*v_i/e_i integral for all i
    k = 1
    for vi, ei in zip(v, e):
        need = ei // gcd(ei, abs(vi)) if vi else 1
        k = k * need // gcd(k, need)
    return tuple(k * vi // ei for vi, ei in zip(v, e))


def _pos(x: int) -> int:
    return x if x > 0 else 0


class ExtendedExchangeMatrix(namedtuple("ExtendedExchangeMatrix", "rows n")):
    """(n+m) x n integer matrix whose top square block is skew-symmetrizable."""

    __slots__ = ()

    def __new__(cls, rows: Rows, n: int) -> ExtendedExchangeMatrix:
        if n < 1:
            raise ValueError("need n >= 1")
        if any(len(r) != n for r in rows):
            raise ValueError("all rows must have length n")
        if len(rows) < n:
            raise ValueError("need at least n rows")
        coroot_scalers(rows[:n])  # raises NonSkewSymmetrizable
        return super().__new__(cls, rows, n)

    @property
    def m(self) -> int:
        return len(self.rows) - self.n

    def top(self) -> Rows:
        return self.rows[: self.n]

    def bottom(self) -> Rows:
        return self.rows[self.n :]

    def mutate(self, k: int) -> "ExtendedExchangeMatrix":
        # mutation keeps the skew-symmetrizer (FZ, Cluster algebras I, 4.3),
        # so the result is built without re-running the constructor's checks
        return self._make((mutate_rows(self.rows, k), self.n))


def mutate_rows(rows: Rows, k: int) -> Rows:
    """Matrix mutation in direction k, applied to every row of an integer
    matrix of any shape (k must index both a row and a column).

    Entry (i, j) becomes b_ij + [-b_ik]_+ b_kj + b_ik [b_kj]_+, or -b_ij
    when i == k or j == k; this holds for any integer matrix, skew-
    symmetrizable or not.  Row by row, with a = b_ik: row i gains
    a * [sgn(a) b_kj]_+ in each column j, entry k becomes -a, and row k is
    negated.  A row with a zero in column k is returned as the same tuple
    object, so callers may share it."""
    if not 0 <= k < min(len(rows), len(rows[0])):
        raise IndexError(f"mutation index {k} out of range")
    pivot = rows[k]
    plus = [x if x > 0 else 0 for x in pivot]
    minus = [-x if x < 0 else 0 for x in pivot]
    out = []
    for i, row in enumerate(rows):
        a = row[k]
        if i == k:
            out.append(tuple(map(neg, row)))
        elif a == 0:
            out.append(row)
        else:
            new = [x + a * p for x, p in zip(row, plus if a > 0 else minus)]
            new[k] = -a
            out.append(tuple(new))
    return tuple(out)


def coroot_scalers(b: Rows) -> tuple[int, ...]:
    """The integers e_i = 1/d_i (alpha_i_check = e_i alpha_i) of the positive
    skew-symmetrizer d: e_j b_ij = -e_i b_ji, with gcd 1.  One integer graph
    walk; each component starts at e_0, the common scale, and the whole
    vector is multiplied by the least factor that keeps a new entry integral,
    so the components are normalised jointly.  Raises NonSkewSymmetrizable."""
    n = len(b)
    e = [0] * n
    for start in range(n):
        if e[start]:
            continue
        e[start] = e[0] or 1
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                bij, bji = b[i][j], b[j][i]
                if bij == 0 and bji == 0:
                    continue
                if bij == 0 or bji == 0 or (bij > 0) == (bji > 0):
                    raise NonSkewSymmetrizable("incompatible sign pattern")
                if not e[j]:
                    num, den = e[i] * abs(bji), abs(bij)
                    scale = den // gcd(num, den)
                    if scale > 1:
                        e = [x * scale for x in e]
                    e[j] = num * scale // den
                    stack.append(j)
                elif e[j] * bij != -e[i] * bji:
                    raise NonSkewSymmetrizable("inconsistent symmetrizer constraints")
    g = gcd(*e)
    return tuple(x // g for x in e)


def principal_extension(b: Rows) -> ExtendedExchangeMatrix:
    """Stack an identity block below the exchange matrix."""
    n = len(b)
    rows = tuple(tuple(r) for r in b) + tuple(
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    )
    return ExtendedExchangeMatrix(rows, n)


def column_sign(matrix: ExtendedExchangeMatrix, k: int) -> int:
    """sgn(y_k): +1 for a nonnegative coefficient column (including all-zero),
    -1 for nonpositive, UnsignedColumn for mixed."""
    col = [matrix.rows[i][k] for i in range(matrix.n, matrix.n + matrix.m)]
    if all(x >= 0 for x in col):
        return 1
    if all(x <= 0 for x in col):
        return -1
    raise UnsignedColumn(f"coefficient column {k} has mixed signs")


class Seed(namedtuple("Seed", "matrix cluster")):
    """An extended exchange matrix together with its cluster variables (a
    tuple of LaurentPolys)."""

    __slots__ = ()

    @property
    def ctx(self) -> VarContext:
        return self.cluster[0].ctx


def initial_seed(matrix: ExtendedExchangeMatrix, ctx: VarContext | None = None) -> Seed:
    n, m = matrix.n, matrix.m
    if ctx is None:
        ctx = default_context(n, m)
    if ctx.n != n or ctx.m != m:
        raise ValueError("context shape does not match the matrix")
    cluster = tuple(LaurentPoly.var(ctx, i) for i in range(n))
    return Seed(matrix, cluster)


def tropical_monomial(ctx: VarContext, exps: Sequence[int], coeff: int = 1) -> LaurentPoly:
    """Monomial u_1^e_1 ... u_m^e_m in the tropical variables."""
    e = [0] * ctx.nvars
    for i, x in enumerate(exps):
        e[ctx.n + i] = x
    return LaurentPoly.monomial(ctx, e, coeff)


def exchange_rhs(seed: Seed, k: int) -> LaurentPoly:
    """Right side of the exchange relation x_k x'_k = (1+y_hat_k) * ...

    Expanded to the two-term polynomial form so no cluster variable is ever
    inverted:  with s = sgn(y_k),
      s=+1:  prod x_i^[-b_ik]_+  +  y_k * prod x_i^[b_ik]_+
      s=-1:  y_k^{-1} * prod x_i^[-b_ik]_+  +  prod x_i^[b_ik]_+
    """
    ctx = seed.ctx
    n, m = seed.matrix.n, seed.matrix.m
    s = column_sign(seed.matrix, k)
    ycol = [seed.matrix.rows[n + i][k] for i in range(m)]

    def xprod(exps: list[int]) -> LaurentPoly:
        out = LaurentPoly.const(ctx, 1)
        for i in range(n):
            if exps[i]:
                out = out * seed.cluster[i] ** exps[i]
        return out

    minus = xprod([_pos(-seed.matrix.rows[i][k]) for i in range(n)])
    plus = xprod([_pos(seed.matrix.rows[i][k]) for i in range(n)])
    if s == 1:
        return minus + tropical_monomial(ctx, ycol) * plus
    return tropical_monomial(ctx, [-y for y in ycol]) * minus + plus


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Seed mutation in direction k; the new variable is exact by Laurentness."""
    rhs = exchange_rhs(seed, k)
    new_var = exact_div(rhs, seed.cluster[k])
    cluster = tuple(
        new_var if i == k else v for i, v in enumerate(seed.cluster)
    )
    return Seed(seed.matrix.mutate(k), cluster)


def mutate_seed_word(seed: Seed, word: Iterable[int]) -> Seed:
    for k in word:
        seed = mutate_seed(seed, k)
    return seed


def mutation_map_eta(b: Rows, word: Sequence[int], v: WeightVec) -> WeightVec:
    """eta_word^{B^T}(v): append v's weight coordinates as an extra row below
    B^T, mutate (word applied left to right), read off the extra row."""
    n = len(b)
    transposed = tuple(tuple(b[j][i] for j in range(n)) for i in range(n))
    rows = transposed + (tuple(v.coords),)
    for k in word:
        rows = mutate_rows(rows, k)
    return WeightVec(rows[n])


# -- g-vector search ---------------------------------------------------------

def mutate_g(g: Rows, k: int, col: Sequence[int], c_vec: Sequence[int]) -> Rows:
    """The G-matrix recursion: the g-vectors g (one per position) after
    mutation in direction k, where col[j] = b_jk is column k of the exchange
    matrix and c_vec is the c-vector k, whose sign eps_k is coherent (GHKK):
    g'_k = -g_k + sum_j [-eps_k b_jk]_+ g_j, every other g-vector kept."""
    if min(c_vec) >= 0:
        eps = 1
    elif max(c_vec) <= 0:
        eps = -1
    else:
        raise UnsignedColumn("sign-coherence violated (bug)")
    g_k = [-x for x in g[k]]
    for j, gj in enumerate(g):
        c = -eps * col[j]
        if c > 0:
            g_k = [x + c * y for x, y in zip(g_k, gj)]
    return g[:k] + (tuple(g_k),) + g[k + 1 :]


def mutate_principal(rows: Rows, g: Rows, k: int) -> tuple[Rows, Rows]:
    """Mutation in direction k of B-tilde's 2n rows (B over C) and of the
    g-vectors g, one per position, by the G-matrix recursion, which reads
    column k of B and of C before they mutate."""
    col = [row[k] for row in rows]
    return mutate_rows(rows, k), mutate_g(g, k, col, col[len(g) :])


def enumerate_gvector_frontier(matrix: ExtendedExchangeMatrix, depth: int):
    """BFS over the seeds of a principal extension up to relabeling, keyed on
    the set of their g-vectors.

    Yields (g_column, mutation word, column index) for every cluster variable
    encountered, initial ones first: every g-vector within the depth, first
    at its least depth.  Integer matrices only; polynomials are reconstructed
    by the caller when needed.

    On every reachable seed G determines B-tilde: tropical duality (Nakanishi-
    Zelevinsky) gives C_t from G_t, and G_t B_t = B_0 C_t (Fomin-Zelevinsky
    IV, (6.14)) with G_t unimodular gives B_t.  Mutation commutes with
    relabeling and the columns of G are distinct, so the set of G's columns
    determines the state up to relabeling: a state whose column set was met
    before is a relabeling of a kept state, and its subtree is the relabeled
    subtree of that state.  Every path of the exchange graph lifts to a
    labeled path, so skipping it loses no g-vector and no least depth; only
    the words and the yield order differ from the search keyed on labeled
    (B-tilde, G).

    A child's g-vector (mutate_g, the G-matrix recursion) needs only column
    k of its parent's B-tilde, so a candidate is looked up before anything
    is mutated.  A kept state is stored as (its parent's B-tilde, k, G,
    word) and its own B-tilde is built only when the state is expanded:
    states at the last depth, and those a lazy consumer never reaches, are
    never mutated.  Mutating back at the last letter of the word returns the
    parent, which is already seen, so that direction is skipped.

    B-tilde is stored transposed: n rows of length n+m, row k being column k
    of B-tilde, whose last m entries are the c-vector that gives the sign
    eps_k.  Mutation commutes with transposition, since the correction
    sgn(b_ik)[b_ik b_kj]_+ is symmetric in its two factors, so mutate_rows
    rebuilds only row k and the rows j with b_kj != 0."""
    n = matrix.n
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    if matrix.bottom() != ident:
        raise ValueError("g-vector search requires principal coefficients")
    seen = {frozenset(ident)}
    frontier = [(tuple(zip(*matrix.rows)), None, ident, ())]
    for j in range(n):
        yield ident[j], (), j
    for _ in range(depth):
        new_frontier = []
        for parent, last, g, word in frontier:
            cols = parent if last is None else mutate_rows(parent, last)
            for k in range(n):
                if k == last:
                    continue
                col = cols[k]
                g2 = mutate_g(g, k, col, col[n:])
                size = len(seen)
                seen.add(frozenset(g2))
                if len(seen) == size:
                    continue
                word2 = word + (k,)
                new_frontier.append((cols, k, g2, word2))
                yield g2[k], word2, k
        frontier = new_frontier
        if not frontier:
            break
