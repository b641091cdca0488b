"""Restrained chromatic polynomial engine.

The central recursion follows edge deletion-contraction: deleting an edge
keeps every forbidden set, while contracting it merges the endpoints and
forbids the union of their sets at the merged vertex.  _rec does both
itself, on the (adj, sets) pair of neighbour bitmasks and forbidden colour
bitmasks, and computes P at one point X = 2^s as a plain int (Kronecker
substitution); restrained_poly reads the coefficients once, as the
balanced base-2^s digits of that value.  Before it branches it settles
what needs no pivot: an edgeless graph gives the product of
(x - |forbidden set|) over the vertices; a pendant vertex, or else a vertex
of degree 2, is eliminated in one step, as the colours left to it once its
neighbours are coloured have a closed form (_eliminate); and components
multiply, an isolated vertex beside an edge being a component of its own.
So a pivot edge is chosen only in connected subproblems of minimum degree
at least 3, never on a graph whose blocks are all edges and cycles, and
always by one rule, _pivot: vertex 0 and its lowest neighbour.  The
identity holds for any edge, so the rule decides only which subproblems
the memo table sees.  The resulting polynomial agrees with the permitted
proper-colouring count for every x at or above the largest forbidden
colour; below that threshold the brute-force counter is the ground truth.

Also includes the closed-form coefficient formulas for the three top
non-trivial coefficients, with the full additive term breakdown for the
x^(n-3) coefficient, and dominance_key, the part of those coefficients that
varies between k-restraints, which ranks restraint classes without their
polynomials.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

from .graphs import CapError, Graph, component_vertices, reach_mask
from .polynomials import IntPolynomial, elementary_symmetric
from .restraints import Restraint, check_fit

ORACLE_WORK_BUDGET = 10_000_000


class MemoCache:
    """Memo table for the recursion: the value at X of each exact labeled
    subproblem, keyed on (adj, sets, X), so queries at two points never mix.

    _rec reads and writes the table and counts hits; each miss stores one
    entry, never dropped, so misses and peak_entries are the table's size.
    Passing one cache to several computations lets them reuse each other's
    subproblems.  It is not synchronised: use it from one thread at a time.
    """

    __slots__ = ("_table", "hits")

    def __init__(self):
        self._table: dict = {}
        self.hits = 0

    @property
    def misses(self) -> int:
        return len(self._table)

    peak_entries = misses

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "peak_entries": self.peak_entries}


def restrained_poly(g: Graph, r: Restraint, cache: MemoCache | None = None) -> IntPolynomial:
    """Restrained chromatic polynomial via deletion-contraction.

    Monic of degree n; exact integer coefficients; valid as a colouring
    count for every x >= the largest forbidden colour.  The result does not
    depend on the edges _pivot picks to branch on.  With the empty
    restraint it is the chromatic polynomial.

    The recursion computes P(X) at X = 2^s, s = m + sum_v bit_length(|r(v)|)
    + 2, and the coefficients are its balanced base-2^s digits, unique while
    every |c_i| < 2^(s-1).  By the subgraph expansion P = sum over A in E of
    (-1)^|A| prod over the components K of (V, A) of (x - |union of r(v),
    v in K|), and as prod (x - a_K) has absolute coefficients summing to
    prod (1 + a_K) <= prod_v (1 + |r(v)|) <= 2^(sum_v bit_length(|r(v)|)),
    every |c_i| <= 2^(s-2).  The cache keys each value on X as well as its
    subproblem; X is the same for every k-restraint on g.

    cache: None for a private memo table, or a shared MemoCache instance.
    """
    check_fit(g, r)
    if cache is None:
        cache = MemoCache()
    elif not isinstance(cache, MemoCache):
        raise TypeError("cache must be None or a MemoCache")
    # P is unchanged by a bijective colour renaming, so colours become bits
    # 0..C-1 in ascending order whatever their size; the map holds each
    # colour's rank, not its bit, which would make it O(C^2) bits in all
    rank = {c: i for i, c in enumerate(sorted(set().union(*r.sets)))}
    sets = tuple(sum(1 << rank[c] for c in s) for s in r.sets)
    s = g.m + sum(len(c).bit_length() for c in r.sets) + 2
    return IntPolynomial._trusted(_digits(_rec(g.adjacency_masks(), sets, 1 << s, cache), s))


def _digits(value: int, s: int) -> tuple[int, ...]:
    """Ascending balanced base-2^s digits of value, each in [-2^(s-1), 2^(s-1)); () for 0."""
    half, mask = 1 << (s - 1), (1 << s) - 1
    out = []
    while value:
        out.append(((value + half) & mask) - half)
        value = (value - out[-1]) >> s
    return tuple(out)


def _drop(adj, v: int) -> tuple:
    """Neighbour masks with vertex v deleted and every vertex above v shifted down."""
    low = (1 << v) - 1
    high = ~low
    return tuple([a & low | a >> 1 & high for a in adj[:v] + adj[v + 1:]])


def _induced(adj: tuple, sets: tuple, verts) -> tuple[tuple, tuple]:
    """(adj, sets) of the subproblem induced on the increasing vertices verts."""
    at = {w: i for i, w in enumerate(verts)}
    return tuple(sum(1 << at[w] for w in verts if adj[a] >> w & 1) for a in verts), tuple(sets[a] for a in verts)


def _rec(adj: tuple, sets: tuple, x: int, memo: MemoCache) -> int:
    """P(x) on the labeled subproblem (adj, sets), memoised on (adj, sets, x).

    adj holds each vertex's neighbour bitmask and sets its forbidden colours
    as a bitmask.  At a miss the first rule that applies decides: with no
    edges P is the product of (x - |s_v|); the first pendant vertex, or else
    the first vertex of degree 2, is eliminated (_eliminate); components
    multiply, an isolated vertex being a component of its own (they are
    listed only when one sweep from vertex 0 misses a vertex); otherwise,
    at minimum degree 3 or more, the pivot edge is deleted and contracted
    (_branch).
    """
    key = (adj, sets, x)
    table = memo._table
    value = table.get(key)
    if value is not None:
        memo.hits += 1
        return value
    if not any(adj):
        value = 1
        for s in sets:
            value *= x - s.bit_count()
    else:
        elim = None
        for v, a in enumerate(adj):
            if a and not a & a - 1:
                elim = v
                break
            if elim is None and a.bit_count() == 2:
                elim = v
        if elim is not None:
            value = _eliminate(adj, sets, elim, x, memo)
        elif reach_mask(adj, 1) == (1 << len(adj)) - 1:
            value = _branch(adj, sets, x, memo)
        else:
            value = 1
            for verts in component_vertices(adj):
                value *= _rec(*_induced(adj, sets, verts), x, memo)
    table[key] = value
    return value


def _eliminate(adj: tuple, sets: tuple, v: int, x: int, memo: MemoCache) -> int:
    """P with vertex v of degree 1 or 2 removed in one step.

    Once v's neighbours w are coloured, v has x - |s_v| - sum_w [c_w not in
    s_v] + [c_a = c_b not in s_v] colours left, the last term for the two
    neighbours a, b of a degree-2 vertex.  Summing over the colourings of
    G - v:  P = (x - |s_v|) P(G - v) - sum_w P(G - v; s_w | s_v at w)
    + P((G - v)/ab; s_a | s_b | s_v at the merged vertex), whose last term
    is 0, and left out, when a and b are adjacent.  A term for w with s_v
    inside s_w is P(G - v) itself, so it only lowers that coefficient.
    """
    rest, rest_sets = _drop(adj, v), sets[:v] + sets[v + 1:]
    sv = sets[v]
    a, b = (adj[v] & -adj[v]).bit_length() - 1, adj[v].bit_length() - 1
    coeff, value, joined = x - sv.bit_count(), 0, rest_sets
    for w in {a, b}:
        w -= w > v
        sw = rest_sets[w]
        if sw & sv == sv:
            coeff -= 1
        else:
            joined = rest_sets[:w] + (sw | sv,) + rest_sets[w + 1:]
            value -= _rec(rest, joined, x, memo)
    value += coeff * _rec(rest, rest_sets, x, memo)
    if a != b and not adj[a] >> b & 1:
        # s_v is in joined at one end, or else inside s_a and s_b already
        value += _rec(*_merge(rest, joined, a - (a > v), b - (b > v)), x, memo)
    return value


def _pivot(adj: tuple) -> tuple[int, int]:
    """The edge (u, v), u < v, that _branch deletes and contracts: vertex 0
    and its lowest neighbour, so equal subproblems branch alike.  _rec
    consults it only on connected subproblems of minimum degree 3 or more."""
    return 0, (adj[0] & -adj[0]).bit_length() - 1


def _merge(adj: tuple, sets: tuple, u: int, v: int) -> tuple[tuple, tuple]:
    """(adj, sets) with vertex v merged into u < v, adjacent or not: u takes
    both neighbourhoods and the union of both forbidden sets."""
    bu, bv = 1 << u, 1 << v
    merged = [a ^ bv | bu if a & bv else a for a in adj]
    merged[u] = (adj[u] | adj[v]) & ~(bu | bv)
    return _drop(merged, v), sets[:u] + (sets[u] | sets[v],) + sets[u + 1:v] + sets[v + 1:]


def _branch(adj: tuple, sets: tuple, x: int, memo: MemoCache) -> int:
    """Delete and contract the edge _pivot(adj), merging its higher end into
    its lower; reached only at minimum degree 3 or more."""
    u, v = _pivot(adj)
    deleted = list(adj)
    deleted[u] ^= 1 << v
    deleted[v] ^= 1 << u
    return _rec(tuple(deleted), sets, x, memo) - _rec(*_merge(adj, sets, u, v), x, memo)


def count_colourings(g: Graph, r: Restraint, x: int) -> int:
    """Brute-force count of proper colourings with colours 1..x avoiding r.

    Exact for every x >= 0, including below the largest forbidden colour
    where the polynomial form is not authoritative.  Backtracks over the
    vertices in index order; refuses any instance with more than
    ORACLE_WORK_BUDGET leaves (x**n), whatever n is.
    """
    check_fit(g, r)
    if x < 0:
        raise ValueError("colour count x must be nonnegative")
    if x ** g.n > ORACLE_WORK_BUDGET:
        raise CapError(f"colouring oracle budget exceeded (n={g.n}, x={x})")
    if g.n == 0:
        return 1
    adj = g.adjacency_masks()
    colours = [0] * g.n

    def count_from(v: int) -> int:
        if v == g.n:
            return 1
        total = 0
        forbidden = r[v]
        for c in range(1, x + 1):
            if c in forbidden:
                continue
            mask = adj[v]
            ok = True
            while mask:
                w = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if w < v and colours[w] == c:
                    ok = False
                    break
            if ok:
                colours[v] = c
                total += count_from(v + 1)
        colours[v] = 0
        return total

    total = count_from(0)
    del count_from  # count_from holds itself, which only the cyclic collector would free
    return total


# -- closed-form coefficients ---------------------------------------------------
#
# Sign convention: with p = restrained_poly(g, r) monic of degree n, the
# value a_i satisfies p.coefficient(i) == (-1)**(n - i) * a_i.


def coeff_n1(g: Graph, r: Restraint) -> int:
    """a_{n-1}: edge count plus the total size of the forbidden sets; requires n >= 1."""
    check_fit(g, r)
    if g.n < 1:
        raise ValueError("coefficient undefined for graphs with no vertices")
    return g.m + sum(len(s) for s in r.sets)


def _edge_intersections(g: Graph, r: Restraint) -> int:
    return sum(len(r[u] & r[v]) for u, v in g.edges)


def coeff_n2(g: Graph, r: Restraint) -> int:
    """a_{n-2} from the census and the pairwise set-size sums; requires n >= 2."""
    check_fit(g, r)
    if g.n < 2:
        raise ValueError("coefficient undefined for graphs on fewer than 2 vertices")
    sizes = r.sizes()
    census = g.census()
    return (
        comb(g.m, 2)
        - census.triangles
        + elementary_symmetric(sizes, 2)
        + g.m * sum(sizes)
        - _edge_intersections(g, r)
    )


@dataclass(frozen=True)
class CoefficientBreakdown:
    """The x^(n-3) coefficient value with its additive terms.

    a_n_3 always equals the sum of the terms.  The terms carrying 1/2 and
    1/6 weights are exact rationals: they are individually half-integral
    whenever the triangle triple-overlap total is odd, and only their sum
    is guaranteed integral (asserted here).
    """

    a_n_3: int
    terms: dict = field(compare=False)


def coeff_n3(g: Graph, r: Restraint) -> CoefficientBreakdown:
    """a_{n-3} via the named additive terms; requires n >= 3.

    A0 depends only on the graph census; A1..A3 and A5 only on set sizes;
    A4, A6, A7', A8 vanish on proper restraints.  A7'' charges every
    unordered pair of vertices once per common neighbour.
    """
    check_fit(g, r)
    if g.n < 3:
        raise ValueError("coefficient undefined for graphs on fewer than 3 vertices")
    sizes = r.sizes()
    total = sum(sizes)
    census = g.census()
    m = g.m
    adj = g.adjacency_masks()

    a0 = comb(m, 3) - (m - 2) * census.triangles - census.induced_c4 + 2 * census.k4
    a1 = elementary_symmetric(sizes, 3)
    a2 = (m - 1) * elementary_symmetric(sizes, 2)
    a3 = sum(
        sizes[i] * sizes[j]
        for i, j in combinations(range(g.n), 2)
        if not adj[i] >> j & 1
    )
    a4 = -sum(len(r[u] & r[v]) * (total - sizes[u] - sizes[v]) for u, v in g.edges)
    a5 = (comb(m, 2) - census.triangles) * total
    a6 = -(m - 1) * _edge_intersections(g, r)
    a7p = sum(bin(adj[u] & adj[v]).count("1") * len(r[u] & r[v]) for u, v in g.edges)
    a7pp = common_neighbor_overlap(g, r)
    a8p = Fraction(0)
    a8pp = Fraction(0)
    for u, v in g.edges:
        both = adj[u] & adj[v]
        either = (adj[u] | adj[v]) & ~(1 << u) & ~(1 << v)
        mask = either
        while mask:
            w = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            a8p += Fraction(len(r[u] & r[v] & r[w]), 2)
        mask = both
        while mask:
            w = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            a8pp += Fraction(len(r[u] & r[v] & r[w]), 6)
    a8 = a8p + a8pp
    if a8.denominator != 1:
        raise AssertionError(f"triple-overlap terms did not sum to an integer: {a8p} + {a8pp}")
    total_n3 = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7p + a7pp + int(a8)
    terms = {
        "A0": a0,
        "A1": a1,
        "A2": a2,
        "A3": a3,
        "A4": a4,
        "A5": a5,
        "A6": a6,
        "A7'": a7p,
        "A7''": a7pp,
        "A8'": a8p,
        "A8''": a8pp,
    }
    return CoefficientBreakdown(a_n_3=total_n3, terms=terms)


def dominance_key(g: Graph, k: int):
    """Key function ranking k-restraints on g by eventual dominance.

    Takes the incidence masks of a k-restraint (one vertex bitmask per
    colour, as in a class canon) and returns (-I2, -6 * V3).  a_{n-1} is the
    same for every k-restraint; a_{n-2} varies only through
    I2 = sum over edges uv of |r(u) & r(v)|, and a_{n-3} only through
    V3 = -(kn - 2k + m - 1) * I2 + A7' + A7'' + A8.  Each of these terms is a
    sum over the colours, so each mask's share is computed once and cached.
    A larger key permits more colourings for all large enough x; two keys
    differ by (c_{n-2} difference, 6 * c_{n-3} difference) of the
    polynomials, and equal keys leave the order to the lower coefficients.
    """
    adj = g.adjacency_masks()
    per_edge = [
        (1 << u | 1 << v, adj[u] & adj[v], (adj[u] | adj[v]) & ~(1 << u | 1 << v))
        for u, v in g.edges
    ]
    i2_weight = 6 * (k * g.n - 2 * k + g.m - 1)

    @functools.cache
    def share(mask: int) -> tuple[int, int]:
        """(edges inside mask, 6 * (A7' + A7'' + A8) restricted to its colour)."""
        inside = six_v3 = 0
        for ends, both, either in per_edge:
            if ends & mask == ends:
                inside += 1
                # A7' counts common neighbours; 6 * A8 counts 3 per neighbour
                # of either end and 1 per common neighbour inside the mask
                six_v3 += 6 * both.bit_count() + 3 * (either & mask).bit_count() + (both & mask).bit_count()
        for nbrs in adj:
            d = (nbrs & mask).bit_count()
            six_v3 -= 3 * d * (d - 1)  # 6 * A7'' = -6 * C(d, 2)
        return inside, six_v3

    def key(masks) -> tuple[int, int]:
        i2 = six_v3 = 0
        for mask in masks:
            a, b = share(mask)
            i2 += a
            six_v3 += b
        return -i2, i2_weight * i2 - six_v3

    return key


def common_neighbor_overlap(g: Graph, r: Restraint) -> int:
    """Negated overlap total over neighbour pairs, the A7'' term.

    Each unordered vertex pair is charged once per common neighbour; the
    minimization of this quantity over proper k-restraints is a necessary
    condition for a class to permit the most colourings.
    """
    check_fit(g, r)
    adj = g.adjacency_masks()
    total = 0
    for v in range(g.n):
        neigh = [w for w in range(g.n) if adj[v] >> w & 1]
        for i, j in combinations(neigh, 2):
            total -= len(r[i] & r[j])
    return total


def shared_pair_overlap(g: Graph, r: Restraint) -> int:
    """Negated overlap total over vertex pairs that share a common neighbour.

    Unlike common_neighbor_overlap, each unordered pair is counted once no
    matter how many common neighbours it has; the two agree exactly on
    graphs where every such pair has a unique common neighbour.
    """
    check_fit(g, r)
    adj = g.adjacency_masks()
    total = 0
    for i, j in combinations(range(g.n), 2):
        if adj[i] & adj[j]:
            total -= len(r[i] & r[j])
    return total
