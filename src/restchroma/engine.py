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
the memo table sees.

The rule reads only the adjacency, so each subproblem is split in two.  Its
plan (_plan), which rule applies and the child adjacencies that rule needs,
is decided once per adjacency per MemoCache; the forbidden-set tuples met
on that adjacency, and the point X, share it.  Only the arithmetic on the
sets (the product, _eliminate, the component product, or deletion minus
contraction) is done once per (adjacency, sets, X), the memo's entry.

The resulting polynomial agrees with the permitted proper-colouring count
for every x at or above the largest forbidden colour; below that threshold
the brute-force counter is the ground truth.

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
    """Memo table for the recursion, in two parts.

    _plans maps each adjacency (a tuple of neighbour bitmasks) to its plan
    (_plan), built once per cache whatever the forbidden sets or the point.
    _tables maps each evaluation point X to a dict from adjacency to the
    pair (plan, values), values mapping a sets tuple to P(X) of that exact
    labeled subproblem, so queries at two points never mix.

    _rec reads and writes the tables and counts hits; each miss stores one
    value, never dropped, so misses and peak_entries are the number of
    values stored.  Passing one cache to several computations lets them
    reuse each other's plans and values.  It is not synchronised: use it
    from one thread at a time.
    """

    __slots__ = ("_plans", "_tables", "hits")

    def __init__(self):
        self._plans: dict = {}
        self._tables: dict = {}
        self.hits = 0

    @property
    def misses(self) -> int:
        return sum(len(values) for table in self._tables.values() for _, values in table.values())

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
    x = 1 << s
    table = cache._tables.setdefault(x, {})
    return IntPolynomial._trusted(_digits(_rec(g.adjacency_masks(), sets, x, cache, table), s))


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


def _induced(adj: tuple, verts) -> tuple:
    """Neighbour masks of the subgraph induced on the increasing vertices verts."""
    at = {w: i for i, w in enumerate(verts)}
    return tuple(sum(1 << at[w] for w in verts if adj[a] >> w & 1) for a in verts)


def _merge(adj: tuple, u: int, v: int) -> tuple:
    """Neighbour masks with vertex v merged into u < v, adjacent or not: u
    takes both neighbourhoods."""
    bu, bv = 1 << u, 1 << v
    merged = [a ^ bv | bu if a & bv else a for a in adj]
    merged[u] = (adj[u] | adj[v]) & ~(bu | bv)
    return _drop(merged, v)


def _pivot(adj: tuple) -> tuple[int, int]:
    """The edge (u, v), u < v, that a branch plan deletes and contracts:
    vertex 0 and its lowest neighbour, so equal adjacencies branch alike.
    _plan consults it only on connected adjacencies of minimum degree 3 or
    more."""
    return 0, (adj[0] & -adj[0]).bit_length() - 1


# the kinds of plan, each plan's first item
_EDGELESS, _ELIMINATE, _SPLIT, _BRANCH = range(4)


def _plan(adj: tuple):
    """What _rec's rule does to the adjacency adj, whatever the forbidden
    sets: decided once per adjacency per MemoCache, with every child
    adjacency it needs.  The first rule that applies decides:

    - (_EDGELESS,): adj has no edges, so P is the product of (x - |s_v|);
    - (_ELIMINATE, v, rest, ws, merged): the first pendant vertex v, or
      else the first vertex of degree 2, is eliminated (_eliminate); rest
      is adj less v, ws the ascending indices of v's neighbours in rest,
      and merged is rest with the two neighbours merged when they are not
      adjacent, else None;
    - (_SPLIT, ((component adjacency, its vertices), ...)): components
      multiply, an isolated vertex being a component of its own (they are
      listed only when one sweep from vertex 0 misses a vertex);
    - (_BRANCH, deleted, merged, u, v): at minimum degree 3 or more the
      edge (u, v) = _pivot(adj) is deleted, and contracted by merging v
      into u.
    """
    if not any(adj):
        return (_EDGELESS,)
    elim = None
    for v, a in enumerate(adj):
        if a and not a & a - 1:
            elim = v
            break
        if elim is None and a.bit_count() == 2:
            elim = v
    if elim is not None:
        v, nbrs = elim, adj[elim]
        rest = _drop(adj, v)
        a, b = (nbrs & -nbrs).bit_length() - 1, nbrs.bit_length() - 1
        ws = (a - (a > v),) if a == b else (a - (a > v), b - (b > v))
        merged = _merge(rest, *ws) if a != b and not adj[a] >> b & 1 else None
        return _ELIMINATE, v, rest, ws, merged
    if reach_mask(adj, 1) == (1 << len(adj)) - 1:
        u, v = _pivot(adj)
        deleted = list(adj)
        deleted[u] ^= 1 << v
        deleted[v] ^= 1 << u
        return _BRANCH, tuple(deleted), _merge(adj, u, v), u, v
    return _SPLIT, tuple((_induced(adj, verts), verts) for verts in component_vertices(adj))


def _rec(adj: tuple, sets: tuple, x: int, memo: MemoCache, table: dict) -> int:
    """P(x) on the labeled subproblem (adj, sets), memoised in table, memo's
    table for the point x.

    adj holds each vertex's neighbour bitmask and sets its forbidden colours
    as a bitmask.  The plan of adj, what the rule does to the graph
    (_plan), is built once per memo and fetched into table the first time
    adj is met at x.  A miss does only the arithmetic on its sets tuple,
    reading the plan: the edgeless product, the elimination (_eliminate),
    the product over components, or the pivot edge's deletion minus its
    contraction.
    """
    entry = table.get(adj)
    if entry is None:
        plan = memo._plans.get(adj)
        if plan is None:
            plan = memo._plans[adj] = _plan(adj)
        entry = table[adj] = (plan, {})
    plan, values = entry
    value = values.get(sets)
    if value is not None:
        memo.hits += 1
        return value
    kind = plan[0]
    if kind == _ELIMINATE:
        value = _eliminate(plan, sets, x, memo, table)
    elif kind == _EDGELESS:
        value = 1
        for s in sets:
            value *= x - s.bit_count()
    elif kind == _BRANCH:
        _, deleted, merged, u, v = plan
        joined = sets[:u] + (sets[u] | sets[v],) + sets[u + 1:v] + sets[v + 1:]
        value = _rec(deleted, sets, x, memo, table) - _rec(merged, joined, x, memo, table)
    else:
        value = 1
        for part, verts in plan[1]:
            value *= _rec(part, tuple([sets[a] for a in verts]), x, memo, table)
    values[sets] = value
    return value


def _eliminate(plan: tuple, sets: tuple, x: int, memo: MemoCache, table: dict) -> int:
    """P with the vertex v of an elimination plan, of degree 1 or 2, removed
    in one step: the arithmetic on one sets tuple.

    Once v's neighbours w are coloured, v has x - |s_v| - sum_w [c_w not in
    s_v] + [c_a = c_b not in s_v] colours left, the last term for the two
    neighbours a, b of a degree-2 vertex.  Summing over the colourings of
    G - v:  P = (x - |s_v|) P(G - v) - sum_w P(G - v; s_w | s_v at w)
    + P((G - v)/ab; s_a | s_b | s_v at the merged vertex), whose last term
    is 0, and left out, when a and b are adjacent.  A term for w with s_v
    inside s_w is P(G - v) itself, so it only lowers that coefficient.
    """
    _, v, rest, ws, merged = plan
    rest_sets, sv = sets[:v] + sets[v + 1:], sets[v]
    coeff, value = x - sv.bit_count(), 0
    for w in ws:
        sw = rest_sets[w]
        if sw & sv == sv:
            coeff -= 1
        else:
            value -= _rec(rest, rest_sets[:w] + (sw | sv,) + rest_sets[w + 1:], x, memo, table)
    value += coeff * _rec(rest, rest_sets, x, memo, table)
    if merged is not None:
        a, b = ws
        joined = rest_sets[:a] + (rest_sets[a] | rest_sets[b] | sv,) + rest_sets[a + 1:b] + rest_sets[b + 1:]
        value += _rec(merged, joined, x, memo, table)
    return value


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
