import random
from collections import Counter
from itertools import combinations, zip_longest

import pytest

from restchroma import (
    Graph, IntPolynomial, Restraint, RestraintClass, cycle_graph, dominance_key, enumerate_k_restraints, extremal,
    path_graph, to_graph6,
)
from restchroma.graphs import _min_mask_form


@pytest.fixture(autouse=True)
def fresh_search_memo(monkeypatch):
    """Each test starts with an empty theorem-search memo, as a new process
    does, so a search counted or patched in one test is never served from
    another's."""
    monkeypatch.setattr(extremal, "_SEARCHES", {})


@pytest.fixture
def c3():
    return cycle_graph(3)


@pytest.fixture
def c4():
    return cycle_graph(4)


@pytest.fixture
def c7():
    return cycle_graph(7)


@pytest.fixture
def p3():
    return path_graph(3)


@pytest.fixture
def p4():
    return path_graph(4)


def random_graph(rng: random.Random, max_n: int = 6, edge_prob: float = 0.5) -> Graph:
    n = rng.randint(1, max_n)
    edges = [e for e in combinations(range(n), 2) if rng.random() < edge_prob]
    return Graph(n, edges)


def random_restraint(rng: random.Random, n: int, max_colour: int = 6, max_size: int = 3) -> Restraint:
    sets = []
    for _ in range(n):
        size = rng.randint(0, max_size)
        sets.append(rng.sample(range(1, max_colour + 1), min(size, max_colour)))
    return Restraint(sets)


def restraint_classes(g: Graph, k: int) -> list[RestraintClass]:
    """The class of each canon that enumerate_k_restraints(g, k) lists, in
    its order, for the tests that read a class's id or representative."""
    return [RestraintClass(canon, g.n) for canon in enumerate_k_restraints(g, k)]


def restraint_of(masks, n: int) -> Restraint:
    """The restraint forbidding colour j + 1 wherever masks[j] has its bit."""
    return Restraint([[j + 1 for j, m in enumerate(masks) if m >> v & 1] for v in range(n)])


def first_use_forms(n: int, k: int):
    """Yield the incidence masks of every k-restraint on n vertices in
    first-use colour normal form, one tuple per restraint: the unpruned sweep,
    kept as the reference for the package's one-form-per-class walk.

    Scanning vertices 0..n-1, vertex v joins k - t of the colours used so
    far (ORs bit v into their masks) and introduces t fresh colours (appends
    t masks 1 << v), for t = 0..k.  Every k-restraint is colour-equivalent
    to at least one generated tuple, and no tuple is yielded twice.
    """
    masks: list[int] = []

    def rec(v: int):
        if v == n:
            yield tuple(masks)
            return
        bit = 1 << v
        used = len(masks)
        for t in range(k + 1):
            masks.extend([bit] * t)
            for old in combinations(range(used), k - t):
                for j in old:
                    masks[j] |= bit
                yield from rec(v + 1)
                for j in old:
                    masks[j] ^= bit
            del masks[used:]

    yield from rec(0)


def unpruned_connected_catalog(n_max: int) -> list[Graph]:
    """Connected graphs with 1..n_max vertices by the unpruned vertex
    extension, kept as the reference for the catalog's orbit pruning: each
    graph on n - 1 vertices gets a new vertex n-1 adjacent to every nonempty
    subset of its vertices in turn, each child is named by _min_mask_form,
    and each size is sorted by (m, graph6)."""
    levels = [[Graph(1)]]
    for n in range(2, n_max + 1):
        reps = {_min_mask_form(n, [a | (s >> v & 1) << (n - 1) for v, a in enumerate(g.adjacency_masks())] + [s])
                for g in levels[-1] for s in range(1, 1 << (n - 1))}
        levels.append(sorted(reps, key=lambda g: (g.m, to_graph6(g))))
    return [g for level in levels for g in level]


def labelled_graphs(n_max: int):
    """Yield every labelled graph on 0..n_max vertices, one per edge set,
    edgeless and disconnected ones included."""
    for n in range(n_max + 1):
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            yield Graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])


def random_connected_graph(rng: random.Random, n: int, extra_edges: int = 0) -> Graph:
    """A random spanning tree on n vertices plus extra_edges more edges, randomly labelled."""
    label = list(range(n))
    rng.shuffle(label)
    edges = {tuple(sorted((label[v], label[rng.randrange(v)]))) for v in range(1, n)}
    edges |= set(rng.sample([e for e in combinations(range(n), 2) if e not in edges], extra_edges))
    return Graph(n, edges)


def random_pivot(rng: random.Random):
    """A stand-in for engine._pivot that branches on an edge (u, v), u < v,
    of each subproblem drawn at random from rng; its calls attribute counts
    how often it was consulted."""
    def pick(adj):
        pick.calls += 1
        n = len(adj)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if adj[a] >> b & 1]
        return edges[rng.randrange(len(edges))]

    pick.calls = 0
    return pick


def no_search(g, k, **kwargs):
    """A stand-in for extremal.find_extremal or extremal.theorem_search in
    tests that must read the store."""
    raise AssertionError(f"searched {g!r} at k={k} instead of reading the store")


def poly_sum(*terms: IntPolynomial) -> IntPolynomial:
    """Sum of polynomials, added coefficient by coefficient (the package has
    no + on polynomials)."""
    return IntPolynomial(map(sum, zip_longest(*(t.coeffs for t in terms), fillvalue=0)))


def _root(parent: list, v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def subgraph_expansion(g: Graph, r: Restraint) -> tuple[int, ...]:
    """Ascending coefficients of the restrained chromatic polynomial by the
    subgraph expansion, the reference for the engine's whole polynomials:
    P = sum over edge sets A of (-1)^|A| prod over the components K of
    (V, A) of (x - |union of r(v), v in K|), the components found by
    union-find for each of the 2^m edge sets.  Edge sets with the same
    multiset of union sizes are tallied first, so each product is expanded
    once."""
    edges = sorted(g.edges)
    tally = Counter()
    for chosen in range(1 << len(edges)):
        parent = list(range(g.n))
        for i, (u, v) in enumerate(edges):
            if chosen >> i & 1:
                parent[_root(parent, u)] = _root(parent, v)
        unions = {}
        for v in range(g.n):
            unions.setdefault(_root(parent, v), set()).update(r[v])
        tally[tuple(sorted(map(len, unions.values())))] += (-1) ** chosen.bit_count()
    coeffs = [0] * (g.n + 1)
    for sizes, sign in tally.items():
        product = [1]
        for a in sizes:  # times (x - a)
            product = [lo - a * c for lo, c in zip([0] + product, product + [0])]
        for i, c in enumerate(product):
            coeffs[i] += sign * c
    return tuple(coeffs)


def tie_break_mismatches(graphs, k: int) -> tuple[int, list]:
    """(tied sides, mismatches): each side of each graph's k-restraint
    classes on which two or more classes tie the extreme dominance key is
    re-decided from subgraph_expansion, which shares no code with the
    engine.  The winners are the tied canons, in canon order, whose
    expansion is largest (max side) or smallest (min side) compared from
    the top coefficient down.  A mismatch (graph6, what) is a side whose
    find_extremal winners or polynomial differ from that, or a max side
    whose theorem_search winners do."""
    tied_sides, bad = 0, []
    for g in graphs:
        report, found = extremal.find_extremal(g, k), extremal.theorem_search(g, k)
        canons = enumerate_k_restraints(g, k)
        keys = list(map(dominance_key(g, k), canons))
        for side, extreme in (("max", max), ("min", min)):
            target = extreme(keys)
            tied = [c for c, c_key in zip(canons, keys) if c_key == target]
            if len(tied) < 2:
                continue
            tied_sides += 1
            polys = [subgraph_expansion(g, RestraintClass(c, g.n).representative) for c in tied]
            poly = extreme(polys, key=lambda p: p[::-1])
            winners = [c for c, p in zip(tied, polys) if p == poly]
            if [c.canon for c in getattr(report, f"{side}_classes")] != winners:
                bad.append((report.graph_id, f"find_extremal {side} winners"))
            if getattr(report, f"{side}_poly").coeffs != poly:
                bad.append((report.graph_id, f"find_extremal {side} polynomial"))
            if side == "max" and [c.canon for c in found.max_classes] != winners:
                bad.append((report.graph_id, "theorem_search max winners"))
    return tied_sides, bad
