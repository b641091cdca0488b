import hashlib
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restchroma import (
    CapError, Graph, IntPolynomial, MemoCache, Restraint, all_connected_graphs, canonicalize, coeff_n1, coeff_n2,
    coeff_n3, complete_bipartite_graph, complete_graph, connected_catalog, constant_restraint, count_colourings,
    cycle_graph, empty_graph, empty_restraint, from_name, parse_restraint, path_graph, restrained_poly,
    shared_pair_overlap,
)
from restchroma import engine
from restchroma.engine import ORACLE_WORK_BUDGET, _digits
from restchroma.extremal import find_extremal
from conftest import poly_sum, random_graph, random_pivot, random_restraint
from oracles import random_connected_graph, restraint_classes, sparse_queries, subgraph_expansion

R = parse_restraint


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """g1 beside g2, whose vertices follow g1's."""
    return Graph(g1.n + g2.n, list(g1.edges) + [(u + g1.n, v + g1.n) for u, v in g2.edges])


class TestFixedPolynomials:
    def test_triangle_constant(self, c3):
        # (x-1)(x-2)(x-3)
        assert restrained_poly(c3, R("[{1},{1},{1}]")) == IntPolynomial([-6, 11, -6, 1])

    def test_triangle_two_colours(self, c3):
        # (x-2)(x^2-4x+5)
        expected = IntPolynomial([-2, 1]) * IntPolynomial([5, -4, 1])
        assert restrained_poly(c3, R("[{1},{2},{1}]")) == expected

    def test_triangle_rainbow(self, c3):
        # 2(x-2)^2 + (x-2)(x-3) + (x-3)^3
        t2 = IntPolynomial([-2, 1])
        t3 = IntPolynomial([-3, 1])
        expected = poly_sum(IntPolynomial([2]) * t2 * t2, t2 * t3, t3 * t3 * t3)
        assert restrained_poly(c3, R("[{1},{2},{3}]")) == expected
        assert expected == IntPolynomial([-13, 14, -6, 1])

    def test_seven_cycle_pair(self, c7):
        p1 = restrained_poly(c7, R("[{1},{2},{1},{2},{1},{2},{3}]"))
        p2 = restrained_poly(c7, R("[{1},{2},{1},{2},{3},{1},{3}]"))
        assert p1 == IntPolynomial([-581, 1333, -1404, 879, -353, 91, -14, 1])
        assert p2 == IntPolynomial([-600, 1352, -1411, 880, -353, 91, -14, 1])

    def test_path_tie(self, p4):
        expected = IntPolynomial([16, -28, 20, -7, 1])
        assert restrained_poly(p4, R("[{1},{2},{2},{1}]")) == expected
        assert restrained_poly(p4, R("[{1},{2},{3},{3}]")) == expected

    def test_size_mismatch_rejected(self, c3):
        with pytest.raises(ValueError, match="3"):
            restrained_poly(c3, R("[{1},{1}]"))


class TestChromatic:
    """The chromatic polynomial is the empty-restraint case."""

    def test_triangle(self, c3):
        assert restrained_poly(c3, empty_restraint(c3)) == IntPolynomial([0, 2, -3, 1])

    def test_edgeless(self):
        for n in (1, 3, 5):
            g = empty_graph(n)
            assert restrained_poly(g, empty_restraint(g)) == IntPolynomial((0,) * n + (1,))

    def test_four_cycle(self, c4):
        # (x-1)^4 + (x-1), checked by brute force at x=3 below
        t = IntPolynomial([-1, 1])
        expected = poly_sum(t * t * t * t, t)
        assert restrained_poly(c4, empty_restraint(c4)) == expected
        assert count_colourings(c4, empty_restraint(c4), 3) == 18
        assert expected.evaluate(3) == 18

    @pytest.mark.parametrize("n", [50, 62])
    def test_complete_graph_past_the_recursion_limit(self, n):
        # a branch plan's deletion chain on K_n is about m - 2n plans long;
        # the polynomial is the falling factorial x(x - 1)...(x - n + 1)
        g = complete_graph(n)
        expected = IntPolynomial([1])
        for i in range(n):
            expected = expected * IntPolynomial([-i, 1])
        assert restrained_poly(g, empty_restraint(g)) == expected


class TestCountOracle:
    def test_triangle_at_four(self, c3):
        assert count_colourings(c3, R("[{1},{1},{1}]"), 4) == 6

    def test_zero_colours(self, c3):
        assert count_colourings(c3, R("[{1},{1},{1}]"), 0) == 0

    def test_edgeless_product(self):
        g = empty_graph(2)
        assert count_colourings(g, R("[{1},{1,2}]"), 5) == 12

    def test_counts_below_threshold(self, c4):
        # ground truth for every x, including x < max forbidden colour
        r = R("[{1},{2},{1},{2}]")
        assert [count_colourings(c4, r, x) for x in (2, 3, 4, 5)] == [1, 7, 35, 121]

    def test_budget(self):
        g = path_graph(9)
        with pytest.raises(CapError, match="budget"):
            count_colourings(g, empty_restraint(g), 10)
        # small x sneaks under the budget even for n > cap
        assert count_colourings(g, empty_restraint(g), 2) == 2

    def test_budget_at_small_n(self):
        # 40**8 leaves: refused up front even though n is only 8
        g = empty_graph(8)
        with pytest.raises(CapError, match="budget"):
            count_colourings(g, empty_restraint(g), 40)

    def test_negative_x_rejected(self, c3):
        with pytest.raises(ValueError):
            count_colourings(c3, R("[{1},{1},{1}]"), -1)

    def test_wrong_length_restraint_rejected(self, c3):
        with pytest.raises(ValueError, match="2 sets for a graph on 3 vertices"):
            count_colourings(c3, R("[{1},{2}]"), 3)

    def test_empty_graph_has_one_colouring(self):
        # E0 has exactly one colouring, the empty one, at every x
        g = Graph(0)
        assert [count_colourings(g, empty_restraint(g), x) for x in (0, 1, 5)] == [1, 1, 1]


class TestPolynomialMeaning:
    def test_oracle_agreement_small(self):
        # evaluation equals the count from the threshold colour upward
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng, max_n=4)
            r = random_restraint(rng, g.n, max_colour=4)
            p = restrained_poly(g, r)
            m = r.m_value()
            for x in (m, m + 1, m + 2):
                assert p.evaluate(x) == count_colourings(g, r, x)

    def test_equivalent_restraints_equal_polynomials(self):
        # across every class on every connected graph up to 5 vertices, a
        # scrambled class member (automorphism + colour renaming) computes
        # the same polynomial as the canonical representative
        rng = random.Random(17)
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                autos = g.automorphisms()
                for cls in restraint_classes(g, 1):
                    perm = rng.choice(autos)
                    shiftc = rng.randint(0, 3)
                    scrambled = [set() for _ in range(g.n)]
                    for v in range(g.n):
                        scrambled[perm[v]] = {c + shiftc for c in cls.representative[v]}
                    other = Restraint(scrambled)
                    assert canonicalize(g, other).canon == cls.canon
                    assert restrained_poly(g, other) == restrained_poly(g, cls.representative)

    def test_many_colours_take_memory_linear_in_their_count(self):
        # the colours are renamed to bits by rank: a map from each colour to
        # its bit would hold about C^2 / 2 bits, some 109 MB at C = 40,000
        r = Restraint([range(1, 40_001)])
        tracemalloc.start()
        try:
            p = restrained_poly(from_name("K1"), r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.coeffs == (-40_000, 1)
        assert peak < 10_000_000, peak

    def test_component_multiplicativity(self):
        rng = random.Random(23)
        for _ in range(20):
            g1 = random_graph(rng, max_n=3)
            g2 = random_graph(rng, max_n=3)
            g = disjoint_union(g1, g2)
            r1 = random_restraint(rng, g1.n, max_colour=4)
            r2 = random_restraint(rng, g2.n, max_colour=4)
            joint = Restraint(list(r1) + list(r2))
            assert restrained_poly(g, joint) == restrained_poly(g1, r1) * restrained_poly(g2, r2)

    def test_constant_restraint_shifts_chromatic(self):
        rng = random.Random(29)
        for _ in range(15):
            g = random_graph(rng, max_n=5)
            for k in (1, 2):
                # P(g, constant k)(x) = P(g)(x - k), pinned at n + 1 points
                lhs, base = restrained_poly(g, constant_restraint(g, k)), restrained_poly(g, empty_restraint(g))
                assert all(lhs.evaluate(x + k) == base.evaluate(x) for x in range(g.n + 1))

    def test_pivot_independence(self, monkeypatch):
        # graphs of minimum degree 3, as the pivot is consulted on no other:
        # a pendant or degree-2 vertex is eliminated first
        cases = [
            (complete_graph(4), R("[{1},{2},{1},{3}]")),
            (complete_bipartite_graph(3, 3), R("[{1},{2},{1},{2},{1},{3}]")),
            (petersen_graph(), R("[{1},{2},{1},{2},{1},{2},{3},{1},{3},{2}]")),
        ]
        bases = [restrained_poly(g, r) for g, r in cases]
        for (g, r), base in zip(cases, bases):
            for seed in range(6):
                pick = random_pivot(random.Random(seed))
                monkeypatch.setattr(engine, "_pivot", pick)
                assert restrained_poly(g, r) == base
                assert pick.calls > 0

    def test_whole_polynomial_matches_oracle(self):
        # n + 1 consecutive values from m(r) on pin the degree-n polynomial;
        # disjoint unions reach the component split and overlapping sets on
        # an edge make the contraction's union matter
        rng = random.Random(43)
        disconnected = overlapping = 0
        for i in range(40):
            if i % 2:
                g1, g2 = random_graph(rng, max_n=3), random_graph(rng, max_n=3)
                g = disjoint_union(g1, g2)
            else:
                g = random_graph(rng, max_n=6)
            r = random_restraint(rng, g.n, max_colour=3, max_size=2)
            m = r.m_value()
            assert (m + g.n) ** g.n <= ORACLE_WORK_BUDGET
            p = restrained_poly(g, r)
            xs = range(m, m + g.n + 1)
            assert [p.evaluate(x) for x in xs] == [count_colourings(g, r, x) for x in xs]
            disconnected += not g.is_connected()
            overlapping += any(r[u] & r[v] for u, v in g.edges)
        assert disconnected and overlapping

    def test_whole_polynomial_matches_subgraph_expansion(self):
        # K6 with 3-sets, K3,4 at k = 2 and disjoint unions with large sets
        # bring the coefficients nearest the bound that sets the evaluation
        # point; the seeded graphs have at most 15 edges
        rng = random.Random(47)
        cases = [
            (complete_graph(6), R("[{1,2,3},{2,3,4},{3,4,5},{1,4,5},{1,2,5},{2,3,5}]")),
            (complete_graph(6), R("[{1,2,3},{1,2,3},{1,2,3},{1,2,3},{1,2,3},{1,2,3}]")),
            (complete_bipartite_graph(3, 4), R("[{1,2},{1,2},{1,2},{3,4},{3,4},{3,4},{3,4}]")),
            (complete_bipartite_graph(3, 4), R("[{1,2},{2,3},{3,4},{1,3},{2,4},{1,4},{1,2}]")),
            (disjoint_union(complete_graph(4), cycle_graph(5)), Restraint([[1, 2, 3]] * 9)),
        ]
        for _ in range(12):
            g = disjoint_union(random_graph(rng, max_n=4), random_graph(rng, max_n=5, edge_prob=0.6))
            cases.append((g, random_restraint(rng, g.n, max_colour=5, max_size=4)))
        for _ in range(12):
            g = random_connected_graph(rng, 8, extra_edges=rng.randint(0, 8))
            cases.append((g, random_restraint(rng, g.n, max_colour=4)))
        for g, r in cases:
            assert g.m <= 15
            want = subgraph_expansion(g, r)
            assert restrained_poly(g, r).coeffs == want, (g, r)
            # the bound the evaluation point is chosen from
            assert max(map(abs, want)) <= 2 ** g.m * prod(1 + len(s) for s in r)

    def test_shape(self):
        rng = random.Random(37)
        for _ in range(40):
            g = random_graph(rng, max_n=5)
            r = random_restraint(rng, g.n, max_colour=5)
            p = restrained_poly(g, r)
            assert p.degree == g.n
            assert p.leading == 1
            for i in range(g.n + 1):
                c = p.coefficient(g.n - i)
                assert c == 0 or (c > 0) == (i % 2 == 0)
            if g.m + sum(r.sizes()) > 0:
                assert -p.coefficient(g.n - 1) > 0


def petersen_graph() -> Graph:
    """The Petersen graph: outer 5-cycle 0..4, spokes i - i + 5, inner pentagram."""
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                 + [(i + 5, (i + 2) % 5 + 5) for i in range(5)])


def relabel(g: Graph, r: Restraint, perm) -> tuple[Graph, Restraint]:
    """g and r with each vertex v renamed perm[v]."""
    sets = [()] * g.n
    for v, s in enumerate(r):
        sets[perm[v]] = s
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]), Restraint(sets)


def random_cactus(rng: random.Random, blocks: int) -> Graph:
    """A connected graph of the given number of blocks, each an edge or a
    cycle of length 3..6 hung on a random earlier vertex, randomly labelled."""
    n, edges = 1, []
    for _ in range(blocks):
        at, size = rng.randrange(n), rng.choice((2, 3, 4, 5, 6))
        ring = [at, *range(n, n + size - 1)]
        n += size - 1
        edges += list(zip(ring, ring[1:])) + ([(ring[-1], at)] if size > 2 else [])
    label = rng.sample(range(n), n)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


def first_pendant(g: Graph):
    """(v, u) for the lowest vertex v of degree 1 and its neighbour u, or None."""
    adj = g.adjacency_masks()
    return next(((v, a.bit_length() - 1) for v, a in enumerate(adj) if a and not a & a - 1), None)


class TestPeeling:
    """Pendant and degree-2 vertices are eliminated and components split
    before any pivot is consulted."""

    def test_pendant_rule_matches_oracle(self):
        # trees, forests and unicyclic graphs with pendant paths; the first
        # pendant v on u is eliminated first, with s_v inside s_u or not, and
        # some forests keep an isolated vertex beside an edge.  The counter's
        # leaves grow as (m + n)**n, so n = 7 is rare and m small
        rng = random.Random(67)
        inside = outside = isolated = 0
        for i in range(36):
            n = 7 if i % 12 == 5 else rng.randint(3, 6)
            g = random_connected_graph(rng, n, extra_edges=1 if i % 3 == 2 else 0)
            if i % 3 == 1:
                g = Graph(n, rng.sample(sorted(g.edges), rng.randint(1, n - 2)))
            r = random_restraint(rng, n, max_colour={7: 1, 6: 2}.get(n, 3), max_size=2)
            pendant = first_pendant(g)
            if pendant:
                v, u = pendant
                inside += r[v] <= r[u]
                outside += not r[v] <= r[u]
            isolated += g.m > 0 and 0 in g.adjacency_masks()
            m = r.m_value()
            p = restrained_poly(g, r)
            xs = range(m, m + n + 1)
            assert [p.evaluate(x) for x in xs] == [count_colourings(g, r, x) for x in xs], (g, r)
        assert inside and outside and isolated

    def test_degree_two_rule_matches_oracle(self, monkeypatch):
        # cycles with chords, theta graphs and pendant paths: the recursion
        # eliminates degree-2 vertices whose two neighbours are adjacent (a
        # triangle, so no merge term) or not, with s_v inside both
        # neighbours' sets, inside one or inside neither; every such case
        # is reached, and each polynomial matches the counter at n + 1 points
        rec, seen = engine._rec, set()

        def spy(node, packed, x, table):
            # a node's plan is built at its first miss, so it is read after
            # the call.  ws are the shifts of the neighbours' slots in rest,
            # the graph less v; vertex i's set is slot i of packed, at the
            # table's width
            value = rec(node, packed, x, table)
            plan = node.plan
            if plan[0] == engine._ELIMINATE and len(plan[4]) == 2:
                _, (shift, _, _), full, rest, ws, merged = plan
                width = full.bit_length()
                assert width == table.width
                v, (a, b) = shift // width, (to // width for to in ws)
                adjacent = bool(rest.adj[a] >> b & 1)
                assert (merged is None) == adjacent, plan
                sv = packed >> shift & full
                inside = sum(packed >> (w + (w >= v)) * width & sv == sv for w in (a, b))
                seen.add((adjacent, inside))
            return value

        monkeypatch.setattr(engine, "_rec", spy)
        rng = random.Random(79)
        for _ in range(30):
            n = rng.randint(3, 6)
            g = random_connected_graph(rng, n, extra_edges=min(rng.randint(1, 3), (n - 1) * (n - 2) // 2))
            r = random_restraint(rng, n, max_colour=3, max_size=2)
            m = r.m_value()
            p = restrained_poly(g, r)
            xs = range(m, m + n + 1)
            assert [p.evaluate(x) for x in xs] == [count_colourings(g, r, x) for x in xs], (g, r)
        assert seen == {(adjacent, inside) for adjacent in (True, False) for inside in (0, 1, 2)}

    def test_small_cases(self):
        assert restrained_poly(Graph(0), R("[]")) == IntPolynomial([1])
        assert restrained_poly(Graph(1), R("[{4,9}]")) == IntPolynomial([-2, 1])
        # x (x - 3) (x - 1)
        assert restrained_poly(empty_graph(3), R("[{},{1,2,3},{2}]")) == IntPolynomial([0, 3, -4, 1])

    def test_pivot_never_consulted_on_a_forest(self, monkeypatch):
        # nor on any graph whose blocks are all edges and cycles: forests,
        # cycles, unicyclic graphs, two cycles sharing a vertex and random
        # cacti, connected or beside a forest
        def refuse(adj):
            raise AssertionError(f"pivot consulted on {adj}")

        rng = random.Random(71)
        graphs = []
        for _ in range(20):
            n = rng.randint(1, 10)
            g = random_connected_graph(rng, n)
            graphs.append(Graph(n, rng.sample(sorted(g.edges), rng.randint(0, n - 1))))
        graphs += [cycle_graph(n) for n in range(3, 11)]
        graphs += [random_connected_graph(rng, rng.randint(3, 10), extra_edges=1) for _ in range(10)]
        for p, q in [(3, 3), (3, 6), (4, 4), (4, 5), (5, 6)]:
            second = [0, *range(p, p + q - 1)]  # a q-cycle through vertex 0
            graphs.append(Graph(p + q - 1, [*cycle_graph(p).edges, *zip(second, second[1:] + second[:1])]))
        graphs += [random_cactus(rng, rng.randint(1, 5)) for _ in range(10)]
        graphs += [disjoint_union(random_cactus(rng, 3), g) for g in graphs[:5]]
        cases = [(g, random_restraint(rng, g.n, max_colour=4)) for g in graphs]
        expected = [restrained_poly(g, r) for g, r in cases]
        monkeypatch.setattr(engine, "_pivot", refuse)
        assert [restrained_poly(g, r) for g, r in cases] == expected

    def test_colours_renamed_to_bits(self, c7):
        # a colour of 10**9 would be a 10**9-bit mask without the renaming
        memo = MemoCache()
        huge = restrained_poly(c7, R("[{1},{2},{1},{2},{1000000000},{1},{1000000000}]"), cache=memo)
        assert huge == restrained_poly(c7, R("[{1},{2},{1},{2},{3},{1},{3}]"))
        # three colours, so three bits a vertex: every stored packing holds
        # len(adj) slots of 3 bits, and the top colour takes a slot's top bit
        assert {width for _, width in memo._tables} == {3}
        stored = [(len(adj), packed) for table in memo._tables.values() for adj, node in table.items()
                  for packed in node.values]
        assert all(packed >> 3 * n == 0 for n, packed in stored)
        assert max((packed >> 3 * i & 7).bit_length() for n, packed in stored for i in range(n)) == 3

    def test_sparse_queries_pinned(self):
        # digest taken from the edge-list recursion that had no peeling rules
        coeffs = [list(restrained_poly(g, r).coeffs) for g, r in sparse_queries()]
        digest = hashlib.sha256(json.dumps(coeffs).encode()).hexdigest()
        assert digest == "423ef4304dbca0ec05e22039538e48396f7e58df8cbca40beb0867478861ba1a"

    def test_sparse_queries_relabelled(self):
        # the polynomial does not depend on which vertex is eliminated: three
        # seeded vertex permutations of each query give the same one
        rng = random.Random(83)
        for g, r in sparse_queries():
            p = restrained_poly(g, r)
            for _ in range(3):
                assert restrained_poly(*relabel(g, r, rng.sample(range(g.n), g.n))) == p, (g, r)

class TestPacking:
    """_rec holds the forbidden sets as one int, vertex i's set in bits
    [i W, (i + 1) W) for W distinct colours (at least 1)."""

    # a triangle and a path (the counter reaches 130 colours on 3 vertices),
    # two eliminations that merge (C5, C6), branches (K4, the wheel W5, K5)
    # and a split into K4s on 0, 1, 5, 6 and 2, 3, 4, 7 and the isolated
    # vertex 8, whose slots move to other positions
    GRAPHS = [
        cycle_graph(3), path_graph(3), cycle_graph(5), cycle_graph(6), complete_graph(4),
        Graph(6, [*cycle_graph(5).edges, *((v, 5) for v in range(5))]), complete_graph(5),
        Graph(9, [*combinations((0, 1, 5, 6), 2), *combinations((2, 3, 4, 7), 2)]),
    ]

    @pytest.mark.parametrize("colours", [1, 29, 30, 31, 60, 61, 64, 65, 130])
    def test_widths_at_digit_boundaries(self, colours):
        # CPython stores ints in 30-bit digits, so at these widths a slot
        # ends at, just before or just past a digit boundary, or spans
        # several; each colour is on vertex c mod n and on others at random,
        # so every slot's top bits are used.  Checked against the counter at
        # n + 1 points where its budget allows, else the subgraph expansion
        rng = random.Random(colours)
        for g in self.GRAPHS:
            sets = [set() for _ in range(g.n)]
            for c in range(1, colours + 1):
                for v in range(g.n):
                    if v == c % g.n or rng.random() < 0.3:
                        sets[v].add(c)
            r = Restraint(sets)
            memo = MemoCache()
            p = restrained_poly(g, r, cache=memo)
            assert {width for _, width in memo._tables} == {colours}
            xs = range(colours, colours + g.n + 1)
            if xs[-1] ** g.n <= ORACLE_WORK_BUDGET:
                assert [p.evaluate(x) for x in xs] == [count_colourings(g, r, x) for x in xs], (g, colours)
            else:
                assert p.coeffs == subgraph_expansion(g, r), (g, colours)

    def test_no_colours(self):
        # n = 0, an edgeless graph and all-empty sets: W is 1 and every
        # stored packing is 0 where no set holds a colour
        memo = MemoCache()
        assert restrained_poly(Graph(0), R("[]"), cache=memo) == IntPolynomial([1])
        # x (x - 2) (x - 1) x
        assert restrained_poly(empty_graph(4), R("[{},{3,8},{5},{}]")) == IntPolynomial([0, 0, 2, -3, 1])
        for g in [empty_graph(3), path_graph(4), cycle_graph(5), complete_graph(4), Graph(5, [(0, 1), (2, 3)])]:
            r = empty_restraint(g)
            p = restrained_poly(g, r, cache=memo)
            assert p.coeffs == subgraph_expansion(g, r), g
            xs = range(g.n + 1)
            assert [p.evaluate(x) for x in xs] == [count_colourings(g, r, x) for x in xs], g
        assert {width for _, width in memo._tables} == {1}
        assert {packed for table in memo._tables.values() for node in table.values() for packed in node.values} == {0}

    def test_shared_cache_keeps_widths_apart(self):
        # k = 1 restraints on C6 with 1, 2, 3 and 6 colours share X, as
        # every k-restraint on a graph does, and not W: a shared cache
        # gives the private polynomials, and each restraint's values land
        # in its own (X, W) table, as many as a private cache stores
        c6 = cycle_graph(6)
        restraints = [R("[{1},{1},{1},{1},{1},{1}]"), R("[{1},{2},{1},{2},{1},{2}]"),
                      R("[{1},{2},{3},{1},{2},{3}]"), R("[{1},{2},{3},{4},{5},{6}]")]
        shared, private = MemoCache(), []
        for r in restraints:
            memo = MemoCache()
            private.append((restrained_poly(c6, r, cache=memo), memo.misses))
        assert [restrained_poly(c6, r, cache=shared) for r in restraints] == [p for p, _ in private]
        (x,) = {x for x, _ in shared._tables}
        assert list(shared._tables) == [(x, 1), (x, 2), (x, 3), (x, 6)]
        stored = [sum(len(node.values) for node in table.values()) for table in shared._tables.values()]
        assert stored == [misses for _, misses in private]


class TestMemoCache:
    def test_stats_and_reuse(self, c7):
        r = R("[{1},{2},{1},{2},{1},{2},{3}]")
        shared = MemoCache()
        restrained_poly(c7, r, cache=shared)
        assert shared.misses > 0
        assert shared.peak_entries == shared.misses  # each miss stores one entry
        before = shared.hits
        restrained_poly(c7, r, cache=shared)
        assert shared.hits > before  # whole problem answered from cache

    def test_shared_across_graphs_and_restraints(self):
        # one cache across graphs on 0..10 vertices, connected or not, and
        # two restraints per graph, each asked twice: its values are keyed on
        # the exact subproblem and the evaluation point, so no answer leaks
        # between queries
        rng = random.Random(67)
        shared = MemoCache()
        for g in [Graph(0)] + [random_graph(rng, max_n=10, edge_prob=0.4) for _ in range(60)]:
            n = g.n
            for r in [random_restraint(rng, n, max_colour=4) for _ in range(2)] * 2:
                p = restrained_poly(g, r, cache=shared)
                assert p == restrained_poly(g, r), (g, r)
                assert p.degree == n and p.leading == 1, (g, r, p)
                assert IntPolynomial(p.coeffs) == p  # no trailing zero kept
        assert shared.hits > 0
        assert shared.peak_entries == shared.misses

    def test_cache_true_rejected(self, c4):
        with pytest.raises(TypeError, match="MemoCache"):
            restrained_poly(c4, R("[{1},{2},{1},{2}]"), cache=True)

    def test_stats_dict(self):
        cache = MemoCache()
        restrained_poly(path_graph(3), R("[{1},{2},{3}]"), cache=cache)
        stats = cache.stats()
        assert set(stats) == {"hits", "misses", "peak_entries"}

    # stats of the recursion that eliminates a pendant or degree-2 vertex
    # before any component split or pivot
    @pytest.mark.parametrize("name, k, stats", [
        ("C8", 1, {"hits": 59, "misses": 53, "peak_entries": 53}),
        ("P5", 2, {"hits": 10, "misses": 14, "peak_entries": 14}),
        ("K2,3", 2, {"hits": 29, "misses": 21, "peak_entries": 21}),
    ])
    def test_search_stats_pinned(self, name, k, stats):
        cache = MemoCache()
        find_extremal(from_name(name), k, cache=cache)
        assert cache.stats() == stats

    def test_sparse_query_stats_pinned(self):
        total = {"hits": 0, "misses": 0, "peak_entries": 0}
        for g, r in sparse_queries():
            cache = MemoCache()
            restrained_poly(g, r, cache=cache)
            for key, value in cache.stats().items():
                total[key] += value
        assert total == {"hits": 8731, "misses": 5265, "peak_entries": 5265}

    def test_plans_built_once_per_adjacency(self, monkeypatch):
        # one cache across the sparse queries, at several points X, and every
        # class of C8 at k = 1, at several widths W: each adjacency is planned
        # once per table (X, W) it is met in, whatever its sets, and every
        # polynomial is the one a private cache gives
        c8 = cycle_graph(8)
        queries = sparse_queries() + [(c8, cls.representative) for cls in restraint_classes(c8, 1)]
        private = [restrained_poly(g, r) for g, r in queries]
        plan, planned = engine._plan, []

        def spy(adj, width):
            planned.append(adj)
            return plan(adj, width)

        monkeypatch.setattr(engine, "_plan", spy)
        shared = MemoCache()
        assert [restrained_poly(g, r, cache=shared) for g, r in queries] == private
        met = Counter(adj for table in shared._tables.values() for adj in table)
        assert len(shared._tables) > 1 and Counter(planned) == met

    def test_only_misses_enter_the_recursion(self, monkeypatch):
        # every caller looks a child's value up itself, and a hit is derived
        # from the stored values (MemoCache.hits), not counted by the lookup,
        # so each call into _rec is a miss: over one cache shared by the
        # sparse queries and C8's classes at k = 1, no call finds its value
        # stored, and there are as many calls as values stored (no branch
        # plan there has a branch plan as its deletion)
        c8 = cycle_graph(8)
        queries = sparse_queries() + [(c8, cls.representative) for cls in restraint_classes(c8, 1)]
        rec, calls = engine._rec, []

        def spy(node, packed, x, table):
            assert packed not in node.values, (node.adj, packed)
            calls.append(node)
            return rec(node, packed, x, table)

        monkeypatch.setattr(engine, "_rec", spy)
        shared = MemoCache()
        for g, r in queries:
            restrained_poly(g, r, cache=shared)
        assert shared.hits > 0 and len(calls) == shared.misses

    def test_hits_are_the_lookups_that_find_a_value(self, monkeypatch):
        # MemoCache derives its hits; here each node's values count every
        # get that finds a value, the root lookup of restrained_poly and the
        # deletion chain's included.  Over wide and overlapping sets, graphs
        # of several components and K_n, whose deletions chain branch
        # plans, on a private cache per query and one shared by all, each
        # query asked twice
        found = []

        class Counted(dict):
            def get(self, key):
                value = dict.get(self, key)
                if value is not None:
                    found.append(key)
                return value

        class Node(engine._Node):
            __slots__ = ()

            def __init__(self, adj):
                super().__init__(adj)
                self.values = Counted()

        monkeypatch.setattr(engine, "_Node", Node)
        rng = random.Random(97)
        graphs = [random_graph(rng, max_n=9, edge_prob=0.3) for _ in range(30)]
        graphs += [complete_graph(n) for n in range(4, 9)]
        graphs += [disjoint_union(complete_graph(5), cycle_graph(4)), disjoint_union(path_graph(3), empty_graph(2))]
        queries = [(g, random_restraint(rng, g.n, max_colour=size + 1, max_size=size))
                   for g in graphs for size in (2, 5)]
        shared = MemoCache()
        for g, r in queries:
            memo, found[:] = MemoCache(), []
            restrained_poly(g, r, cache=memo)
            assert memo.hits == len(found), (g, r)
        found[:] = []
        for g, r in queries * 2:
            restrained_poly(g, r, cache=shared)
        assert shared.hits == len(found)

    def test_every_stored_value_is_at_least_one(self):
        # each child value is read as values.get(sub) or _rec(...), which a
        # stored 0 would send back into the recursion
        queries = sparse_queries() + [(g, cls.representative) for k in (1, 2) for g in connected_catalog(5)
                                      for cls in restraint_classes(g, k)]
        memo = MemoCache()
        for g, r in queries:
            restrained_poly(g, r, cache=memo)
        assert min(value for table in memo._tables.values() for node in table.values()
                   for value in node.values.values()) >= 1


class TestDigits:
    """_digits reads a polynomial back from its value at 2^s."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 80).flatmap(lambda s: st.tuples(
        st.just(s),
        st.lists(st.integers(1 - 2 ** (s - 1), 2 ** (s - 1) - 1), max_size=14))))
    def test_round_trip(self, case):
        s, coeffs = case
        p = IntPolynomial(coeffs)
        assert _digits(p.evaluate(1 << s), s) == p.coeffs

    @pytest.mark.parametrize("s", [2, 3, 8, 31, 64, 65])
    def test_extreme_digits(self, s):
        top = 2 ** (s - 1) - 1
        for coeffs in [(top,), (-top,), (top, -top, top), (-top, top, -top), (0, 0, -top), (top, 0, 1)]:
            assert _digits(IntPolynomial(coeffs).evaluate(1 << s), s) == coeffs

    def test_zero_and_one(self):
        assert _digits(0, 2) == ()
        assert _digits(1, 2) == (1,)
        # the 0-vertex graph has no edges and no sets, so s = 2 and P = 1
        assert restrained_poly(Graph(0), R("[]")).coeffs == (1,)


class TestCoefficientFormulas:
    def test_top_coefficient_examples(self, c3, c7):
        assert coeff_n1(c3, R("[{1},{1},{1}]")) == 6
        assert coeff_n1(empty_graph(2), R("[{},{}]")) == 0
        assert coeff_n1(c7, R("[{1},{2},{1},{2},{1},{2},{3}]")) == 14

    def test_second_coefficient_examples(self, c3, c7):
        assert coeff_n2(c7, R("[{1},{2},{1},{2},{1},{2},{3}]")) == 91
        assert coeff_n2(empty_graph(2), R("[{1},{1}]")) == 1
        assert coeff_n2(c3, R("[{1},{1},{1}]")) == 11

    def test_first_coefficient_requires_a_vertex(self):
        with pytest.raises(ValueError, match="no vertices"):
            coeff_n1(Graph(0), R("[]"))

    def test_second_coefficient_requires_two_vertices(self):
        with pytest.raises(ValueError, match="fewer than 2"):
            coeff_n2(Graph(1), R("[{1}]"))

    def test_third_coefficient_requires_three_vertices(self):
        with pytest.raises(ValueError, match="undefined"):
            coeff_n3(Graph(2, [(0, 1)]), R("[{1},{2}]"))

    def test_overlap_terms_on_four_cycle(self, c4):
        # per-common-neighbour totals double the once-per-pair totals here
        # because opposite cycle vertices share two neighbours
        values = {}
        pair_values = {}
        for lit in ("[{1},{2},{1},{2}]", "[{1},{2},{1},{3}]", "[{1},{2},{3},{4}]"):
            values[lit] = coeff_n3(c4, R(lit)).terms["A7''"]
            pair_values[lit] = shared_pair_overlap(c4, R(lit))
        assert list(values.values()) == [-4, -2, 0]
        assert list(pair_values.values()) == [-2, -1, 0]

    def test_seven_cycle_third_coefficient(self, c7):
        bd = coeff_n3(c7, R("[{1},{2},{1},{2},{1},{2},{3}]"))
        assert bd.a_n_3 == 353
        assert bd.terms["A7''"] == -4

    def test_triangle_term_breakdown(self):
        # all forbidden sets equal on a triangle: the two triple-overlap
        # terms are individually half-integral, their sum is not
        bd = coeff_n3(complete_graph(3), R("[{1},{1},{1}]"))
        assert bd.terms["A8'"] == Fraction(3, 2)
        assert bd.terms["A8''"] == Fraction(1, 2)
        assert bd.a_n_3 == 6
        non_a8 = sum(v for k, v in bd.terms.items() if not k.startswith("A8"))
        assert non_a8 + bd.terms["A8'"] + bd.terms["A8''"] == 6

    def test_breakdown_sums_to_total(self):
        rng = random.Random(41)
        for _ in range(50):
            g = random_graph(rng, max_n=6)
            if g.n < 3:
                continue
            r = random_restraint(rng, g.n)
            bd = coeff_n3(g, r)
            assert sum(bd.terms.values()) == bd.a_n_3

    def test_formulas_match_recursion(self):
        rng = random.Random(43)
        for _ in range(120):
            g = random_graph(rng, max_n=6)
            k = rng.choice([1, 2])
            r = Restraint([rng.sample(range(1, k * g.n + 1), k) for _ in range(g.n)])
            p = restrained_poly(g, r)
            n = g.n
            assert coeff_n1(g, r) == -p.coefficient(n - 1)
            if n >= 2:
                assert coeff_n2(g, r) == p.coefficient(n - 2)
            if n >= 3:
                bd = coeff_n3(g, r)
                assert bd.a_n_3 == -p.coefficient(n - 3)

    def test_empty_restraint_census_formulas(self):
        # with nothing forbidden the second and third values reduce to the
        # census expressions
        from math import comb

        rng = random.Random(47)
        for _ in range(60):
            g = random_graph(rng, max_n=6)
            if g.n < 3:
                continue
            r = empty_restraint(g)
            c = g.census()
            assert coeff_n2(g, r) == comb(g.m, 2) - c.triangles
            expected = comb(g.m, 3) - (g.m - 2) * c.triangles - c.induced_c4 + 2 * c.k4
            assert coeff_n3(g, r).a_n_3 == expected
