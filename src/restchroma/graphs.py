"""Labeled simple graphs.

Vertices are 0..n-1; edges are unordered pairs stored as sorted tuples.
Graph values are immutable after construction.  One degree-pruned search
finds isomorphisms, and the automorphism group is built from a stabilizer
chain of its results.  Includes generators for the standard small
families, edge-list and graph6 ingestion, and exhaustive catalogs of
connected and of connected bipartite graphs.  Both are built by one
vertex-extension step that tries one neighbourhood per orbit of the
parent's automorphism group and names a child only when its new vertex
leads its non-cut vertices by a degree rank, each class named by its
smallest-edge-mask labelling: about 2 s for the 12,113 connected graphs up
to n = 8, and 11 s for the 30,614 connected bipartite graphs up to n = 11.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

Edge = tuple[int, int]

AUTOMORPHISM_BUDGET = 50_000
# Graph._sides before bipartition() has run; None is one of its answers
_UNKNOWN = object()


class ParseError(ValueError):
    """Malformed graph or restraint input."""


class CapError(RuntimeError):
    """A work budget (normal forms, automorphisms, oracle leaves) was exceeded."""


QUOTE_CHARS = 40


def quote_input(text: str) -> str:
    """repr(text) for an error message; text longer than QUOTE_CHARS is cut
    to that prefix and followed by its length, so the message stays short."""
    if len(text) <= QUOTE_CHARS:
        return repr(text)
    return f"{text[:QUOTE_CHARS]!r}... ({len(text)} characters)"


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SubgraphCensus:
    """Exact small-subgraph counts used by the coefficient formulas."""

    m: int
    triangles: int
    induced_c4: int
    k4: int


class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj", "_sides", "_chain", "_census")

    def __init__(self, n: int, edges: Iterable = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for e in edges:
            u, v = e
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            norm.add(_norm_edge(u, v))
        self.n = n
        self.edges: frozenset[Edge] = frozenset(norm)
        self._adj: tuple[int, ...] | None = None
        self._sides = _UNKNOWN
        self._chain: tuple[tuple[tuple[int, ...], ...], ...] | None = None
        self._census: SubgraphCensus | None = None

    # -- basics -----------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks (cached)."""
        if self._adj is None:
            adj = [0] * self.n
            for u, v in self.edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            self._adj = tuple(adj)
        return self._adj

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {sorted(self.edges)})"

    # -- connectivity ---------------------------------------------------------

    def is_connected(self) -> bool:
        return len(component_vertices(self.adjacency_masks())) <= 1

    def bipartition(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """BFS 2-colouring of a connected graph (cached).

        Returns the bipartition with vertex 0's side first, or None when an
        odd cycle exists.  Raises on disconnected input (split by components
        first), on every call: only an answer is cached.
        """
        if self._sides is not _UNKNOWN:
            return self._sides
        if self.n == 0:
            self._sides = ((), ())
            return self._sides
        if not self.is_connected():
            raise ValueError("graph is disconnected; bipartition is per-component")
        side = [-1] * self.n
        side[0] = 0
        queue = [0]
        adj = self.adjacency_masks()
        while queue:
            v = queue.pop()
            mask = adj[v]
            while mask:
                w = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    self._sides = None
                    return None
        self._sides = tuple(i for i in range(self.n) if side[i] == 0), tuple(i for i in range(self.n) if side[i] == 1)
        return self._sides

    # -- census -----------------------------------------------------------------

    def census(self) -> SubgraphCensus:
        """Exact triangle / induced-C4 / K4 counts by exhaustive enumeration
        (cached)."""
        if self._census is None:
            adj = self.adjacency_masks()
            ind_c4 = 0
            k4 = 0
            for quad in combinations(range(self.n), 4):
                degs = []
                edge_count = 0
                for x in quad:
                    d = sum(adj[x] >> y & 1 for y in quad)
                    degs.append(d)
                    edge_count += d
                edge_count //= 2
                if edge_count == 6:
                    k4 += 1
                elif edge_count == 4 and all(d == 2 for d in degs):
                    ind_c4 += 1
            self._census = SubgraphCensus(m=self.m, triangles=_triangles(self), induced_c4=ind_c4, k4=k4)
        return self._census

    # -- automorphisms --------------------------------------------------------------

    def stabilizer_chain(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The automorphism group as a stabilizer chain (Sims 1970), one
        level per vertex (cached).

        Level i holds the identity and, for each w > i of i's degree and
        adjacency to 0..i-1, the first automorphism that fixes 0..i-1 and
        maps i to w, if one exists: a transversal of the stabilizer of
        0..i in the stabilizer of 0..i-1.  So every automorphism is
        t_0 o t_1 o ... o t_(n-1), one element t_i of each level, in exactly
        one way (level_products), and |Aut| is the product of the level
        sizes.  Level i holds at most n - i elements, whatever the group's
        order, so the chain has no budget: only automorphisms() lists the
        group.
        """
        if self._chain is None:
            n, adj = self.n, self.adjacency_masks()
            identity = tuple(range(n))
            levels = []
            for i in range(n):
                low = (1 << i) - 1
                same = [w for w in range(i + 1, n)
                        if adj[w].bit_count() == adj[i].bit_count() and adj[w] & low == adj[i] & low]
                found = (_first_isomorphism(self, self, identity[:i] + (w,)) for w in same)
                levels.append(tuple([identity] + [t for t in found if t]))
            self._chain = tuple(levels)
        return self._chain

    def automorphisms(self) -> list[tuple[int, ...]]:
        """Full automorphism group as explicit vertex permutations, sorted:
        the products of the whole stabilizer_chain, which is cached.  A
        group over AUTOMORPHISM_BUDGET raises CapError, with its exact
        order, before any element is formed.  The list itself is not
        cached, and no package code reads it: the catalog (_orbit_least)
        and the class orbits (restraints._orbit_blocks) read the chain."""
        levels = self.stabilizer_chain()
        order = math.prod(map(len, levels))
        if order > AUTOMORPHISM_BUDGET:
            raise CapError(f"automorphism budget exceeded ({order} automorphisms > {AUTOMORPHISM_BUDGET}, n={self.n})")
        return sorted(level_products(levels, self.n))


def level_products(levels, n: int) -> list[tuple[int, ...]]:
    """Every product t_i o t_(i+1) o ... o t_j of one element of each of
    levels, the consecutive levels i..j of a stabilizer chain on n vertices
    (Graph.stabilizer_chain), each as the images of 0..n-1; (t o h)(v) is
    t[h[v]].  The products are distinct, so len is the product of the level
    sizes; the whole chain gives every automorphism once.  The product of
    the levels' first elements comes first: the identity, as every level
    lists it first."""
    group = [tuple(range(n))]
    for level in reversed(levels):  # level i composed with the products of the levels after it
        group = [tuple(map(t.__getitem__, h)) for t in level for h in group]
    return group


def reach_mask(adj, start: int) -> int:
    """Bitmask of the vertices reachable from the vertex bitmask start in the
    graph with neighbour bitmasks adj."""
    comp = frontier = start
    while frontier:
        low = frontier & -frontier
        reach = adj[low.bit_length() - 1] & ~comp
        comp |= reach
        frontier = (frontier ^ low) | reach
    return comp


def component_vertices(adj) -> list[tuple[int, ...]]:
    """Increasing vertex tuples of the connected components of the graph
    with neighbour bitmasks adj, ordered by their smallest vertex."""
    out = []
    left = (1 << len(adj)) - 1
    while left:
        comp = reach_mask(adj, left & -left)
        left &= ~comp
        out.append(tuple(v for v in range(len(adj)) if comp >> v & 1))
    return out


def _triangles(g: Graph) -> int:
    """Triangle count: per edge (a, b), a < b, the common neighbours above b."""
    adj = g.adjacency_masks()
    return sum(bin((adj[a] & adj[b]) >> (b + 1)).count("1") for a, b in g.edges)


def _first_isomorphism(g: Graph, h: Graph, prefix: tuple[int, ...] = ()) -> tuple[int, ...] | None:
    """The lexicographically first isomorphism g -> h (both on n vertices),
    as the images of 0..n-1, that extends the partial isomorphism prefix;
    None if there is none.  Each vertex in turn goes to the smallest unused
    vertex of its degree whose adjacency to the vertices mapped so far
    matches."""
    n, adj_g, adj_h = g.n, g.adjacency_masks(), h.adjacency_masks()
    image = list(prefix)

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        want = sum(1 << image[u] for u in range(v) if adj_g[v] >> u & 1)
        for w in range(n):
            if not used >> w & 1 and adj_h[w] & used == want and adj_h[w].bit_count() == adj_g[v].bit_count():
                image.append(w)
                if extend(v + 1, used | 1 << w):
                    return True
                image.pop()
        return False

    found = extend(len(prefix), sum(1 << w for w in prefix))
    del extend  # extend holds itself, which only the cyclic collector would free
    return tuple(image) if found else None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """n, m and sorted degrees, then one isomorphism search.  No package
    code calls it; it stays because bench/tracing.py rebinds it, and the
    tests use it as the catalog's independent pairwise check."""
    degrees = [sorted(map(int.bit_count, x.adjacency_masks())) for x in (g, h)]
    return (g.n, g.m) == (h.n, h.m) and degrees[0] == degrees[1] and _first_isomorphism(g, h) is not None


# -- generators ---------------------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    """Star with a centre (vertex 0) and the given number of leaves."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


_NAMED_PREFIXES = "CPKSE"


def from_name(name: str) -> Graph:
    """Build a standard graph from a short name: C5, P4, K6, K2,3, S3, E4."""
    name = name.strip()
    if len(name) < 2 or name[0] not in _NAMED_PREFIXES:
        raise ParseError(f"unknown graph name {quote_input(name)}")
    kind, rest = name[0], name[1:]
    try:
        if kind == "K" and "," in rest:
            a, b = (int(t) for t in rest.split(",", 1))
            return complete_bipartite_graph(a, b)
        size = int(rest)
        if kind == "C":
            return cycle_graph(size)
        if kind == "P":
            return path_graph(size)
        if kind == "K":
            return complete_graph(size)
        if kind == "S":
            return star_graph(size)
        if kind == "E":
            return empty_graph(size)
    except ValueError as exc:
        raise ParseError(f"bad graph name {quote_input(name)}: {exc}") from exc


# -- ingestion ------------------------------------------------------------------


def parse_edgelist(text: str) -> Graph:
    """Parse edge-list text: header line 'n <count>' then one 'u v' per line.

    Vertices are 0-based; blank lines and '#' comments are skipped and
    duplicates rejected; what Graph refuses is raised as ParseError.
    """
    lines = [ln.strip() for ln in text.replace(";", "\n").splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "n":
        raise ParseError(f"edge-list header must be 'n <count>', got {quote_input(lines[0])}")
    try:
        n = int(header[1])
    except ValueError as exc:
        raise ParseError(f"bad vertex count {quote_input(header[1])}") from exc
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line {quote_input(ln)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad edge line {quote_input(ln)}") from exc
        e = _norm_edge(u, v)
        if e in seen:
            raise ParseError(f"duplicate edge ({u}, {v})")
        seen.add(e)
        edges.append(e)
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_graph6(line: str) -> Graph:
    """Parse a single graph6 line (n <= 62, no extended sizes)."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 input")
    vals = []
    for ch in s:
        o = ord(ch)
        if not (63 <= o <= 126):
            raise ParseError(f"invalid graph6 character {ch!r}")
        vals.append(o - 63)
    n = vals[0]
    if n > 62:
        raise ParseError("graph6 inputs beyond 62 vertices are not supported")
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(vals) - 1 != need_bytes:
        raise ParseError(f"graph6 body length {len(vals) - 1} does not match n={n}")
    bits = []
    for v in vals[1:]:
        for shift in range(5, -1, -1):
            bits.append(v >> shift & 1)
    if any(bits[need_bits:]):
        raise ParseError("graph6 padding bits must be zero")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    """Encode as a single graph6 line (n <= 62)."""
    if g.n > 62:
        raise ValueError("graph6 output beyond 62 vertices is not supported")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if (i, j) in g.edges else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def read_source(source: str) -> str:
    """The text of the file named source, or source itself when it names
    no file.  A file that os.path.isfile accepts but open refuses (no
    permission, or removed since the check) raises ParseError with the
    quoted path and the OS reason."""
    if not os.path.isfile(source):
        return source
    try:
        with open(source, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"input file {quote_input(source)}: {exc.strerror or exc}") from None


def load_graph(source: str) -> Graph:
    """Load a graph from a file path, a short name, or inline text.

    Inline text that names a family (C7, P4, K5, K2,3, S3, E4) builds it.
    Otherwise the text (or the file's contents) is an edge list when it
    holds whitespace or ';', which a graph6 string never does, else graph6.
    """
    text = read_source(source)
    stripped = text.strip()
    if stripped[:1] in _NAMED_PREFIXES and not os.path.isfile(source):
        try:
            return from_name(stripped)
        except ParseError:
            pass
    if ";" in stripped or any(ch.isspace() for ch in stripped):
        return parse_edgelist(text)
    return parse_graph6(stripped)


# -- exhaustive small-graph catalogs -----------------------------------------------


_CONNECTED_CACHE: dict[int, list[Graph]] = {1: [Graph(1)]}
_BIPARTITE_CACHE: dict[int, list[Graph]] = {1: [Graph(1)]}


def _min_mask_form(n: int, adj: list[int]) -> Graph:
    """The labelling of (n, adj) with the smallest edge mask, bit i standing
    for the i-th pair of combinations(range(n), 2).  Pairs (i, j) with larger
    i are the more significant, so labels go out from n-1 downward, and each
    level keeps the partial labellings whose new row (adjacency to the
    labelled vertices, highest label first) is smallest.

    A partial is a sequence of cells, the labelled vertices from the highest
    labels down, each cell's internal order left open.  Every cell is
    independent or a clique, all of a cell have one adjacency to each
    earlier cell, and each later labelled vertex is adjacent to all of a
    cell or to none of it, so every order of a cell gives one mask so far.
    Reading a candidate's row cell by cell, its non-neighbours in a cell
    first, gives the least row of any order, and taking the candidate keeps
    exactly the orders that give it: each cell splits into its
    non-neighbours, then its neighbours.  A candidate that agrees with a
    vertex l of the last cell on every labelled vertex but l, and on l too
    when the cell is more than l, splits nothing and joins that cell: each
    order of the grown cell gives the same mask, so each is minimal too.
    Equal cell sequences are one partial, so the k! orders of k
    interchangeable vertices are one partial, not k!.

    Two more cuts lose no minimum, since each keeps a partial whose
    completions give the same masks as those of each one it drops:
    - of twins (equal neighbourhoods apart from each other), only the
      first unlabelled one is a candidate: swapping two twins is an
      automorphism that fixes every other vertex;
    - rows stay 0 exactly while the labelled vertices are independent, so
      the partials of the first levels are the largest independent sets,
      each one cell, and they are found at once
      (_largest_independent_sets).  Closed twins (adjacent twins) are
      never both in one, and only the first of each class is offered.
    """
    below = [sum(1 << w for w in range(v) if adj[v] & ~(1 << w) == adj[w] & ~(1 << v)) for v in range(n)]
    lone = sum(1 << v for v in range(n) if not below[v] & adj[v])  # no closed twin below
    first = _largest_independent_sets(adj, lone)
    # cell masks, highest labels first -> labelled mask
    partials = {(s,): s for s in first}
    for _ in range(n - first[0].bit_count()):
        best, kept = None, []
        for cells, done in partials.items():
            sizes = [cell.bit_count() for cell in cells]
            rows = {}  # a candidate's row, by its neighbours among the labelled
            for u in range(n):
                if done >> u & 1 or below[u] & ~done:
                    continue
                a = adj[u] & done
                row = rows.get(a)
                if row is None:
                    row = 0
                    for cell, size in zip(cells, sizes):
                        row = row << size | (1 << (a & cell).bit_count()) - 1
                    rows[a] = row
                if best is None or row < best:
                    best, kept = row, []
                if row == best:
                    kept.append((cells, done, u))
        partials = {}
        for cells, done, u in kept:
            a, last = adj[u], cells[-1]
            l = (last & -last).bit_length() - 1
            rest = done ^ 1 << l
            if a & rest == adj[l] & rest and (rest & last == 0 or a >> l & 1 == (adj[l] & last != 0)):
                cells = cells[:-1] + (last | 1 << u,)
            else:
                cells = tuple(part for cell in cells for part in (cell & ~a, cell & a) if part) + (1 << u,)
            partials[cells] = done | 1 << u
    order = [v for cell in reversed(next(iter(partials))) for v in range(n) if cell >> v & 1]
    return Graph(n, [(i, j) for j in range(n) for i in range(j) if adj[order[i]] >> order[j] & 1])


def _largest_independent_sets(adj, free: int) -> list[int]:
    """The largest independent vertex masks within the mask free of the
    graph with neighbour bitmasks adj ([0] when free is 0): include or
    exclude the lowest free vertex in turn, and drop a branch that cannot
    reach the largest size found."""
    found, size = [], 0
    stack = [(0, free, 0)]
    while stack:
        s, free, k = stack.pop()
        if not free:
            if k > size:
                found, size = [], k
            if k == size:
                found.append(s)
        elif k + free.bit_count() >= size:
            v = free & -free
            stack.append((s, free ^ v, k))
            stack.append((s | v, free & ~adj[v.bit_length() - 1] & ~v, k + 1))
    return found


def _subset_masks(vertices) -> list[int]:
    """Entry s is the bitmask of {vertices[i] : bit i of s is set}."""
    masks = [0]
    for w in vertices:
        masks += [x | 1 << w for x in masks]
    return masks


def _extended(cache: dict[int, list[Graph]], n: int, offers) -> list[Graph]:
    """cache[n], built first if missing: one graph per isomorphism class of
    the children of cache[n - 1] (built the same way), a child being a
    parent plus a vertex n-1 adjacent to a mask in offers(parent).  Each is
    named by its smallest-edge-mask labelling; the list is sorted by
    (m, graph6).

    For each graph G of the family and each non-cut vertex v, G - v must
    lie in cache[n - 1] up to isomorphism and offer v's neighbourhood, and
    offers(parent) must be closed under the parent's automorphisms.  Then
    two cuts from McKay 1998, "Isomorph-free exhaustive generation", lose
    no class: only the smallest mask of each orbit of the parent's group
    is tried (_orbit_least), since one orbit gives isomorphic children,
    and a child is named only when _new_vertex_leads.  Children of
    different parents can still coincide; equal names merge them, with no
    isomorphism test.
    """
    if n not in cache:
        reps = set()
        for g in _extended(cache, n - 1, offers):
            least = _orbit_least(g)
            adj = g.adjacency_masks()
            children = ([a | (s >> v & 1) << (n - 1) for v, a in enumerate(adj)] + [s]
                        for s in offers(g) if least[s] == s)
            reps.update(_min_mask_form(n, child) for child in children if _new_vertex_leads(child))
        cache[n] = sorted(reps, key=lambda g: (g.m, to_graph6(g)))
    return cache[n]


def _orbit_least(g: Graph) -> list[int]:
    """Entry s is the smallest vertex mask in the orbit of the mask s under
    g's automorphism group, the group never listed.  Every automorphism is
    t_0 o ... o t_(n-1), one t_i of each level of g's stabilizer chain, so
    taking least = min(least, least o t) for each t of level 0, then of
    level 1, and so on, leaves after level j the minimum over automorphisms
    that include every t_0 o ... o t_j: one pass, in chain order."""
    least = list(range(1 << g.n))
    for level in g.stabilizer_chain():
        for t in level[1:]:
            least = list(map(min, least, map(least.__getitem__, _subset_masks(t))))
    return least


def _new_vertex_leads(adj: list[int]) -> bool:
    """Whether no non-cut vertex of the connected graph with neighbour masks
    adj ranks above its last vertex by (degree, sum of its neighbours'
    degrees).  The rank is kept by isomorphisms, so each class has a child
    that passes: a graph of the class minus a non-cut vertex of the top
    rank, extended back."""
    n = len(adj)
    degree = [a.bit_count() for a in adj]

    def neighbour_degrees(v: int) -> int:
        return sum(degree[w] for w in range(n) if adj[v] >> w & 1)

    def above(v: int) -> bool:
        return degree[v] > degree[-1] or degree[v] == degree[-1] and neighbour_degrees(v) > neighbour_degrees(n - 1)

    def non_cut(v: int) -> bool:
        return reach_mask([a & ~(1 << v) for a in adj], 1 << (n - 1)) == (1 << n) - 1 ^ 1 << v

    return not any(above(v) and non_cut(v) for v in range(n - 1))


def _one_side_masks(g: Graph) -> list[int]:
    """The nonempty vertex masks inside one side of g's bipartition."""
    return [s for side in g.bipartition() for s in _subset_masks(side)[1:]]


def all_connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n vertices, one per isomorphism class.

    Each is a connected (n-1)-vertex graph plus a non-cut vertex with a
    nonempty neighbourhood, one neighbourhood per orbit of the parent's
    automorphism group, named by its smallest-edge-mask labelling
    (_extended); n = 8, 11,117 graphs, takes about 2 s.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    return list(_extended(_CONNECTED_CACHE, n, lambda g: range(1, 1 << g.n)))


def connected_catalog(n_max: int) -> list[Graph]:
    """Connected graphs with 1..n_max vertices, one per isomorphism class."""
    if n_max < 1:
        raise ValueError("catalog needs n_max >= 1")
    return [g for n in range(1, n_max + 1) for g in all_connected_graphs(n)]


def connected_bipartite_catalog(n_max: int) -> list[Graph]:
    """Connected bipartite graphs with 1..n_max vertices, one per
    isomorphism class: the bipartite graphs of connected_catalog(n_max),
    in the same order and with the same labellings.

    No other graph is built.  A connected bipartite graph minus a non-cut
    vertex is still connected and bipartite, and the removed vertex's
    neighbours lie on one side, so each size extends the one below by
    one-side neighbourhoods only.
    """
    if n_max < 1:
        raise ValueError("catalog needs n_max >= 1")
    return [g for n in range(1, n_max + 1) for g in _extended(_BIPARTITE_CACHE, n, _one_side_masks)]
