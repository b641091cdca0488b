"""Restrained chromatic polynomial engine.

The central recursion follows edge deletion-contraction: deleting an edge
keeps every forbidden set, while contracting it merges the endpoints and
forbids the union of their sets at the merged vertex.  _rec does both
itself, on the pair (adj, packed): adj holds each vertex's neighbour
bitmask, and the one int packed holds every forbidden colour bitmask,
vertex i's in bits [i W, (i + 1) W) for the W colours of the restraint,
renamed to bits, so that removing, joining or merging sets is a few shifts
and masks and a subproblem is keyed by one int.  It computes P at one point
X = 2^s as a plain int (Kronecker substitution); restrained_poly reads the
coefficients once, as the balanced base-2^s digits of that value.

Before it branches _rec settles what needs no pivot: an edgeless graph
gives the product of (x - |forbidden set|) over the vertices; a pendant
vertex, or else a vertex of degree 2, is eliminated in one step, as the
colours left to it once its neighbours are coloured have a closed form;
and components multiply, an isolated vertex beside an edge being a
component of its own.
So a pivot edge is chosen only in connected subproblems of minimum degree
at least 3, never on a graph whose blocks are all edges and cycles, and
always by one rule, _pivot: vertex 0 and its lowest neighbour.  The
identity holds for any edge, so the rule decides only which subproblems
the memo table sees.

The rule reads only the adjacency, so each subproblem is split in two.
Each adjacency met in a table (X, W) of a MemoCache has one node there
(_Node), holding its plan and the values of the packed sets met on it.  The
plan (_plan), which rule applies, the children's nodes that rule needs and
the shifts, scaled by W, that move the packed sets, is built once, at the
node's first miss, and the packed sets met on that adjacency share it.
Only the arithmetic on the sets (the product, the elimination, the
component product, or deletion minus contraction) is done once per
(adjacency, packed sets, X, W), the memo's entry.  A caller reads a child's
value as node.values.get(sub) or _rec(...), every value being at least 1
(restrained_poly), so a hit costs a dict lookup, neither a frame nor a hash
of the child's adjacency, and counts nothing (MemoCache derives hits).

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

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .graphs import CapError, Graph, component_vertices, reach_mask
from .polynomials import IntPolynomial, elementary_symmetric
from .restraints import Restraint, check_fit

ORACLE_WORK_BUDGET = 10_000_000


class MemoCache:
    """Memo table for the recursion.

    _tables maps each pair (X, W) of an evaluation point and a colour width
    (restrained_poly) to a _Table: a dict from adjacency (a tuple of
    neighbour bitmasks) to its _Node, which holds the adjacency, its plan
    (_plan), built at the node's first miss whatever the forbidden sets,
    and values, mapping a packed int of forbidden sets to P(X) of that
    exact labeled subproblem.  A packing means one thing only at one W, and
    a value one thing only at one X, so tables never mix.  Every k-restraint
    on a graph has the same X, and those with the same number of colours
    the same W, so the searches, one cache per (graph, k), share plans and
    values between the restraints of one colour count.

    Only a miss enters _rec, and each miss stores one value, never dropped,
    so misses and peak_entries are the number of values stored.  Each
    lookup, one per restrained_poly call (calls, the one counter) and
    _lookups(plan) per miss, finds a value or leads to one stored value:
    so hits = calls + the sum of len(values) (_lookups(plan) - 1) over the
    nodes.  Passing one cache to several computations lets them reuse
    each other's plans and values at a point and width they share.
    It is not synchronised: use it from one thread at a time.
    """

    __slots__ = ("_tables", "calls")

    def __init__(self):
        self._tables: dict = {}
        self.calls = 0

    @property
    def misses(self) -> int:
        return sum(len(node.values) for table in self._tables.values() for node in table.values())

    peak_entries = misses

    @property
    def hits(self) -> int:
        nodes = (node for table in self._tables.values() for node in table.values() if node.values)
        return self.calls + sum(len(node.values) * (_lookups(node.plan) - 1) for node in nodes)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "peak_entries": self.peak_entries}


class _Node:
    """One adjacency's entry in a _Table: adj, its plan (_plan), None until
    the node's first miss builds it, and values, packed sets -> P(X)."""

    __slots__ = ("adj", "plan", "values")

    def __init__(self, adj: tuple):
        self.adj = adj
        self.plan = None
        self.values = {}


class _Table(dict):
    """A MemoCache's table for one (X, W): adjacency -> _Node, the node made
    on the adjacency's first lookup.  Only restrained_poly and a plan being
    built look adjacencies up, so a child adjacency is hashed once per
    parent plan, not once per call."""

    __slots__ = ("width",)

    def __init__(self, width: int):
        super().__init__()
        self.width = width

    def __missing__(self, adj):
        node = self[adj] = _Node(adj)
        return node


def restrained_poly(g: Graph, r: Restraint, cache: MemoCache | None = None) -> IntPolynomial:
    """Restrained chromatic polynomial via deletion-contraction.

    Monic of degree n; exact integer coefficients; valid as a colouring
    count for every x >= the largest forbidden colour.  The result does not
    depend on the edges _pivot picks to branch on.  With the empty
    restraint it is the chromatic polynomial.

    P is unchanged by a bijective colour renaming, so the C distinct colours
    of r become bits 0..C-1 in ascending order whatever their size, and the
    forbidden sets are packed into one int: vertex i's set in bits
    [i W, (i + 1) W), W = max(C, 1).

    The recursion computes P(X) at X = 2^s, s = m + sum_v bit_length(|r(v)|)
    + 2, and the coefficients are its balanced base-2^s digits, unique while
    every |c_i| < 2^(s-1).  By the subgraph expansion P = sum over A in E of
    (-1)^|A| prod over the components K of (V, A) of (x - |union of r(v),
    v in K|), and as prod (x - a_K) has absolute coefficients summing to
    prod (1 + a_K) <= prod_v (1 + |r(v)|) <= 2^(sum_v bit_length(|r(v)|)),
    the |c_i| sum to at most 2^(s-2).  So do every subproblem's: it has at
    most m edges, and its sets are unions of disjoint groups of r's, where
    1 + |A | B| <= (1 + |A|) (1 + |B|); so on n' vertices its value is at
    least X^n' - 2^(s-2) X^(n'-1) >= 1, and _rec reads values with "or".
    The cache keys each value on X and W as well as its subproblem; X is
    the same for every k-restraint on g.

    cache: None for a private memo table, or a shared MemoCache instance.
    """
    check_fit(g, r)
    if cache is None:
        cache = MemoCache()
    elif not isinstance(cache, MemoCache):
        raise TypeError("cache must be None or a MemoCache")
    # the map holds each colour's rank, not its bit, which would make it
    # O(C^2) bits in all; the bits are set in a byte array, as summing
    # them one int at a time is quadratic in n W
    rank = {c: i for i, c in enumerate(sorted(set().union(*r)))}
    w = len(rank) or 1
    bits = bytearray(-(-g.n * w // 8))
    for base, colours in zip(range(0, g.n * w, w), r):
        for c in colours:
            j = rank[c] + base
            bits[j >> 3] |= 1 << (j & 7)
    packed = int.from_bytes(bits, "little")
    s = g.m + sum(len(c).bit_length() for c in r) + 2
    x = 1 << s
    table = cache._tables.get((x, w))
    if table is None:
        table = cache._tables[x, w] = _Table(w)
    node = table[g.adjacency_masks()]
    cache.calls += 1
    return IntPolynomial._trusted(_digits(node.values.get(packed) or _rec(node, packed, x, table), s))


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


def _slot(v: int, w: int) -> tuple[int, int, int]:
    """(shift, above, below) of vertex v's slot at width w: its set is
    packed >> shift & (2^w - 1), and packed & below | packed >> above <<
    shift is packed with v's slot removed and the slots above it moved
    down."""
    shift = v * w
    return shift, shift + w, (1 << shift) - 1


# the kinds of plan, each plan's first item
_EDGELESS, _ELIMINATE, _SPLIT, _BRANCH = range(4)


def _plan(adj: tuple, table: _Table):
    """What _rec's rule does to the adjacency adj, whatever the forbidden
    sets: built once per adjacency per table of a MemoCache, at its node's
    first miss, holding the node in table of every child adjacency it
    needs (a child met for the first time gets a new node, its plan built
    at its own first miss).  The rule reads only adj; w, the table's colour
    width, scales the shifts that read and move the packed sets (_slot).
    The first rule that applies decides:

    - (_EDGELESS, shifts, full): adj has no edges, so P is the product of
      (x - |s_v|), s_v = packed >> shift & full;
    - (_ELIMINATE, slot, full, rest, ws, merged): the first pendant vertex
      v, or else the first vertex of degree 2, is eliminated (_rec); slot
      is v's _slot, rest the node of adj less v, ws the shifts of v's
      neighbours in rest, in ascending order, and merged, when the two
      neighbours are not adjacent, is (the node of rest with them merged,
      the lower one's shift, the higher one's _slot in rest), else None;
    - (_SPLIT, full, ((component node, moves), ...)): components multiply,
      an isolated vertex being a component of its own (they are listed
      only when one sweep from vertex 0 misses a vertex); moves holds the
      (source, target) shifts of each vertex's slot;
    - (_BRANCH, deleted, merged, u shift, v's _slot, full): at minimum
      degree 3 or more the edge (u, v) = _pivot(adj) is deleted, and
      contracted by merging v into u; deleted and merged are nodes.
    """
    w = table.width
    full = (1 << w) - 1
    if not any(adj):
        return _EDGELESS, tuple(range(0, len(adj) * w, w)), full
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
        a, b = a - (a > v), b - (b > v)  # their indices in rest
        if a == b:
            return _ELIMINATE, _slot(v, w), full, table[rest], (a * w,), None
        merged = None if rest[a] >> b & 1 else (table[_merge(rest, a, b)], a * w, _slot(b, w))
        return _ELIMINATE, _slot(v, w), full, table[rest], (a * w, b * w), merged
    if reach_mask(adj, 1) == (1 << len(adj)) - 1:
        u, v = _pivot(adj)
        deleted = list(adj)
        deleted[u] ^= 1 << v
        deleted[v] ^= 1 << u
        return _BRANCH, table[tuple(deleted)], table[_merge(adj, u, v)], u * w, _slot(v, w), full
    parts = [(table[_induced(adj, verts)], tuple((v * w, i * w) for i, v in enumerate(verts)))
             for verts in component_vertices(adj)]
    return _SPLIT, full, tuple(parts)


def _lookups(plan) -> int:
    """The child lookups of a miss on plan, one per term its rule sums or multiplies."""
    kind = plan[0]
    if kind == _ELIMINATE:
        return len(plan[4]) + 1 + (plan[5] is not None)
    return 2 if kind == _BRANCH else len(plan[2]) if kind == _SPLIT else 0


def _rec(node: _Node, packed: int, x: int, table: _Table) -> int:
    """P(x) on the labeled subproblem (node.adj, packed), packed not yet in
    node.values: the miss path, which computes the value, stores it and
    returns it.  table is the MemoCache table for x and packed's width W.

    node.adj holds each vertex's neighbour bitmask, and packed holds vertex
    i's forbidden colours, as a bitmask, in its bits [i W, (i + 1) W).  The
    node's plan, what the rule does to the graph (_plan), is built at its
    first miss and holds the children's nodes.  A miss does only the
    arithmetic on its packed sets, reading the plan's shifts: the edgeless
    product, the elimination, the product over components, or the pivot
    edge's deletion minus its contraction.  A child's value is read as
    values.get(sub) or _rec(child, sub, ...), every value being at least 1
    (restrained_poly), so _rec is entered only on a miss; hits go uncounted.

    An elimination removes the vertex v of degree 1 or 2 in one step.  Once
    v's neighbours w are coloured, v has x - |s_v| - sum_w [c_w not in s_v]
    + [c_a = c_b not in s_v] colours left, the last term for the two
    neighbours a, b of a degree-2 vertex.  Summing over the colourings of
    G - v:  P = (x - |s_v|) P(G - v) - sum_w P(G - v; s_w | s_v at w)
    + P((G - v)/ab; s_a | s_b | s_v at the merged vertex), whose last term
    is 0, and left out, when a and b are adjacent.  A term for w with s_v
    inside s_w is P(G - v) itself, looked up all the same: with the skip,
    480 poly-queries inputs took 41.8-44.8 ms, and without it 40.3-42.2 ms.

    A deletion keeps the sets, and its child is most often a branch plan
    too: on a dense graph that chain is about m - 2n plans long, past
    Python's recursion limit on K50.  So the chain is walked in a loop, not
    recursed into, and each contraction is subtracted on the way back up,
    in the order the recursion would take: the same subproblems are looked
    up, met and stored.
    """
    plan = node.plan
    if plan is None:
        plan = node.plan = _plan(node.adj, table)
    kind = plan[0]
    if kind == _ELIMINATE:
        _, (shift, above, below), full, rest, ws, merged = plan
        sv = packed >> shift & full
        rest_packed = packed & below | packed >> above << shift
        values = rest.values
        value = (x - sv.bit_count()) * (values.get(rest_packed) or _rec(rest, rest_packed, x, table))
        for to in ws:
            sub = rest_packed | sv << to
            value -= values.get(sub) or _rec(rest, sub, x, table)
        if merged is not None:
            merged, to, (shift, above, below) = merged
            joined = rest_packed | (rest_packed >> shift & full | sv) << to
            joined = joined & below | joined >> above << shift
            value += merged.values.get(joined) or _rec(merged, joined, x, table)
    elif kind == _EDGELESS:
        _, shifts, full = plan
        value = 1
        for shift in shifts:
            value *= x - (packed >> shift & full).bit_count()
    elif kind == _BRANCH:
        chain = []  # (node, merged, joined) of each branch plan down the deletions
        while True:
            _, deleted, merged, to, (shift, above, below), full = plan
            joined = packed & below | packed >> above << shift | (packed >> shift & full) << to
            chain.append((node, merged, joined))
            node = deleted
            value = node.values.get(packed)
            if value is not None:
                break
            plan = node.plan
            if plan is None:
                plan = node.plan = _plan(node.adj, table)
            if plan[0] != _BRANCH:
                value = _rec(node, packed, x, table)
                break
        for node, merged, joined in reversed(chain):
            value -= merged.values.get(joined) or _rec(merged, joined, x, table)
            node.values[packed] = value
        return value
    else:
        _, full, parts = plan
        value = 1
        for part, moves in parts:
            sub = 0
            for source, target in moves:
                sub |= (packed >> source & full) << target
            value *= part.values.get(sub) or _rec(part, sub, x, table)
    node.values[packed] = value
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
    return g.m + sum(len(s) for s in r)


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
    # fractions, with the decimal and numbers modules it loads, is imported
    # here, its one use: at module level it added 2-5 ms and 0.4-0.5 MB to
    # the start of every command
    from fractions import Fraction

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
    sum over the colours, so each mask's share is computed once and held
    in a _Memo.
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

    shares = _Memo(share).__getitem__

    def key(masks) -> tuple[int, int]:
        i2 = six_v3 = 0
        for mask in masks:
            a, b = shares(mask)
            i2 += a
            six_v3 += b
        return -i2, i2_weight * i2 - six_v3

    return key


class _Memo(dict):
    """f's values, each computed on its first lookup.  Its __getitem__ is a
    C-level call, where a functools.cache wrapper builds an argument tuple
    per call: keying the classes of the bench's named extremal graphs took
    13-26% less time through it.  Summing two such maps, one per key entry,
    with sum(map(...)) in place of dominance_key's loop took more time than
    either, at 1 to 10 masks a class."""

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, key):
        value = self[key] = self.f(key)
        return value


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
