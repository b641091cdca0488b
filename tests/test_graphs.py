import hashlib
import random
import re
import time
from collections import Counter
from itertools import combinations, permutations

import pytest

from restchroma import graphs as graphs_module
from restchroma import (
    CapError, Graph, ParseError, all_connected_graphs, complete_bipartite_graph, complete_graph,
    connected_bipartite_catalog, connected_catalog, cycle_graph, empty_graph, from_name, is_isomorphic,
    parse_edgelist, parse_graph6, path_graph, star_graph, to_graph6,
)
from restchroma.graphs import component_vertices
from conftest import random_graph


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            Graph(-1)

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_generators(self):
        assert path_graph(4).m == 3
        assert cycle_graph(5).m == 5
        assert complete_graph(5).m == 10
        assert complete_bipartite_graph(2, 3).m == 6
        assert star_graph(4).m == 4
        assert empty_graph(3).m == 0

    def test_from_name(self):
        assert from_name("C7") == cycle_graph(7)
        assert from_name("K2,3") == complete_bipartite_graph(2, 3)
        assert from_name("S3") == star_graph(3)
        with pytest.raises(ParseError):
            from_name("Q5")

    @pytest.mark.parametrize("name, reason", [
        ("C2", "cycle needs at least three vertices"),
        ("P0", "path needs at least one vertex"),
        ("K0", "complete graph needs at least one vertex"),
        ("K0,3", "both sides need at least one vertex"),
        ("S0", "star needs at least one leaf"),
    ])
    def test_from_name_refuses_a_size_outside_its_family(self, name, reason):
        with pytest.raises(ParseError, match=re.escape(f"bad graph name '{name}': {reason}")):
            from_name(name)


class TestCensus:
    def test_complete_four(self):
        c = complete_graph(4).census()
        assert (c.m, c.triangles, c.induced_c4, c.k4) == (6, 4, 0, 1)

    def test_four_cycle(self):
        c = cycle_graph(4).census()
        assert (c.m, c.triangles, c.induced_c4, c.k4) == (4, 0, 1, 0)

    def test_seven_cycle(self):
        c = cycle_graph(7).census()
        assert (c.m, c.triangles, c.induced_c4, c.k4) == (7, 0, 0, 0)

    def test_cached(self):
        # the coefficient formulas each read the census, so it is computed once
        for g in (cycle_graph(4), complete_graph(4), cycle_graph(7)):
            assert g.census() is g.census()

    def test_against_independent_counts(self):
        # triangles double-checked from edge common-neighbour sums, K4s from
        # triangle extensions, induced C4s from explicit isomorphism tests;
        # exhaustive through n=4, sampled at n=5 and 6
        rng = random.Random(5)
        graphs = [random_graph(rng, max_n=6) for _ in range(40)]
        graphs += all_connected_graphs(5)
        pairs4 = list(combinations(range(4), 2))
        for mask in range(1 << len(pairs4)):
            graphs.append(Graph(4, [pairs4[i] for i in range(6) if mask >> i & 1]))
        template = cycle_graph(4)
        for g in graphs:
            c = g.census()
            e = g.edges  # sorted pairs, and combinations yield increasing tuples
            tri2 = sum(1 for u, v in e for w in range(g.n) if tuple(sorted((u, w))) in e and tuple(sorted((v, w))) in e)
            assert c.triangles * 3 == tri2
            k4 = 0
            for a, b, cc in combinations(range(g.n), 3):
                if (a, b) in e and (a, cc) in e and (b, cc) in e:
                    k4 += sum(1 for d in range(cc + 1, g.n) if (a, d) in e and (b, d) in e and (cc, d) in e)
            assert c.k4 == k4
            c4 = 0
            for quad in combinations(range(g.n), 4):
                idx = {v: i for i, v in enumerate(quad)}
                sub = Graph(4, [(idx[u], idx[v]) for u, v in g.edges if u in idx and v in idx])
                if is_isomorphic(sub, template):
                    c4 += 1
            assert c.induced_c4 == c4


class TestAutomorphisms:
    def test_counts(self):
        assert len(cycle_graph(4).automorphisms()) == 8
        assert len(complete_graph(3).automorphisms()) == 6
        assert len(path_graph(3).automorphisms()) == 2

    def test_identity_present(self):
        for g in [path_graph(4), cycle_graph(5), star_graph(3)]:
            assert tuple(range(g.n)) in g.automorphisms()

    def test_group_closure_and_inverse(self):
        rng = random.Random(3)
        for _ in range(15):
            g = random_graph(rng, max_n=6)
            autos = set(g.automorphisms())
            for a in autos:
                inverse = tuple(sorted(range(g.n), key=lambda v: a[v]))
                assert inverse in autos
                for b in autos:
                    composed = tuple(a[b[v]] for v in range(g.n))
                    assert composed in autos

    def test_preserves_adjacency(self):
        g = cycle_graph(6)
        for a in g.automorphisms():
            for u, v in g.edges:
                assert tuple(sorted((a[u], a[v]))) in g.edges

    def test_second_call_runs_no_search(self, monkeypatch):
        g = cycle_graph(5)
        autos = g.automorphisms()
        assert len(autos) == 10

        def refuse(*args):
            raise AssertionError("isomorphism search for a cached group")

        monkeypatch.setattr(graphs_module, "_first_isomorphism", refuse)
        assert g.automorphisms() == autos
        assert g.stabilizer_chain() is g.stabilizer_chain()

    def test_cap(self):
        # the group-order budget, not n, decides: P11 has 2 automorphisms;
        # a group over it is refused from the chain's level sizes, before
        # any element is listed, with its exact order
        refused = {"K9": 362_880, "K11": 39_916_800, "E11": 39_916_800, "K5,6": 86_400, "S9": 362_880}
        for name, order in refused.items():
            g = from_name(name)
            start = time.perf_counter()
            with pytest.raises(CapError) as err:
                g.automorphisms()
            assert time.perf_counter() - start < 0.1, name
            assert str(err.value) == f"automorphism budget exceeded ({order} automorphisms > 50000, n={g.n})"
        assert len(path_graph(11).automorphisms()) == 2

    def test_orders_beyond_brute_force(self):
        petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                         + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
        lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
        frucht = Graph(12, [(i, (i + 1) % 12) for i in range(12)] + [(i, (i + d) % 12) for i, d in enumerate(lcf)])
        cube = Graph(8, [(v, v ^ 1 << b) for v in range(8) for b in range(3)])
        assert frucht.m == 18 and petersen.m == 15 and cube.m == 12
        cases = [(petersen, 120), (frucht, 1), (cube, 48), (complete_bipartite_graph(4, 4), 1152),
                 (cycle_graph(12), 24), (complete_graph(8), 40_320)]
        for g, order in cases:
            autos = g.automorphisms()
            assert len(autos) == order
            assert autos == sorted(set(autos))
            assert all({tuple(sorted((a[u], a[v]))) for u, v in g.edges} == g.edges for a in autos)


class TestComponents:
    def test_disjoint_union(self):
        triangle_and_edge = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        assert component_vertices(triangle_and_edge.adjacency_masks()) == [(0, 1, 2), (3, 4)]

    def test_connected_graph_is_single_component(self):
        g = cycle_graph(5)
        assert component_vertices(g.adjacency_masks()) == [(0, 1, 2, 3, 4)]

    def test_empty_graph_splits_into_singletons(self):
        assert component_vertices((0, 0, 0)) == [(0,), (1,), (2,)]

    def test_back_maps_preserve_edges(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_graph(rng, max_n=7, edge_prob=0.25)
            comps = component_vertices(g.adjacency_masks())
            assert sorted(v for verts in comps for v in verts) == list(range(g.n))
            assert all(list(verts) == sorted(verts) for verts in comps)
            assert [verts[0] for verts in comps] == sorted(verts[0] for verts in comps)
            where = {v: i for i, verts in enumerate(comps) for v in verts}
            assert all(where[u] == where[v] for u, v in g.edges)


class TestBipartition:
    def test_four_cycle(self):
        assert cycle_graph(4).bipartition() == ((0, 2), (1, 3))

    def test_odd_cycle_absent(self):
        assert cycle_graph(7).bipartition() is None

    def test_single_edge(self):
        assert Graph(2, [(0, 1)]).bipartition() == ((0,), (1,))

    def test_disconnected_errors(self):
        with pytest.raises(ValueError, match="disconnected"):
            empty_graph(2).bipartition()

    def test_second_call_runs_no_sweep(self, monkeypatch):
        # the sides are cached, an odd cycle's None and the empty graph's too;
        # a disconnected graph is swept and refused on every call
        cases = [cycle_graph(6), cycle_graph(7), Graph(0), star_graph(3)]
        first = [g.bipartition() for g in cases]
        assert first == [((0, 2, 4), (1, 3, 5)), None, ((), ()), ((0,), (1, 2, 3))]

        def refuse(*args):
            raise AssertionError("connectivity sweep or BFS for cached sides")

        monkeypatch.setattr(graphs_module, "component_vertices", refuse)
        monkeypatch.setattr(Graph, "adjacency_masks", refuse)
        assert [g.bipartition() for g in cases] == first
        monkeypatch.undo()
        disconnected = empty_graph(2)
        for _ in range(2):
            with pytest.raises(ValueError, match="disconnected"):
                disconnected.bipartition()

    def test_proper_two_colouring(self):
        for g in all_connected_graphs(5):
            parts = g.bipartition()
            if parts is None:
                continue
            v1 = set(parts[0])
            for u, v in g.edges:
                assert (u in v1) != (v in v1)


class TestGraph6:
    def test_known_encoding(self):
        # hand-packed: cycle 0-1-2-3 has column-order bits 101101 -> chr(45+63)
        assert to_graph6(cycle_graph(4)) == "Cl"
        assert parse_graph6("Cl") == cycle_graph(4)

    def test_round_trip(self):
        rng = random.Random(2)
        graphs = [random_graph(rng, max_n=9) for _ in range(40)]
        graphs += [complete_graph(5), star_graph(6), empty_graph(1)]
        for g in graphs:
            assert parse_graph6(to_graph6(g)) == g

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<Cl") == cycle_graph(4)

    def test_rejects_bad_characters(self):
        with pytest.raises(ParseError):
            parse_graph6("C\x1f")

    def test_rejects_wrong_length(self):
        with pytest.raises(ParseError):
            parse_graph6("C")

    @pytest.mark.parametrize("text, message", [
        ("", "empty graph6 input"),
        ("A!", "invalid graph6 character '!'"),
        ("~??", "graph6 inputs beyond 62 vertices are not supported"),
        ("B~", "graph6 padding bits must be zero"),  # n = 3 uses 3 of the 6 bits of '~'
    ], ids=["empty", "below-63", "n-above-62", "nonzero-padding"])
    def test_refuses(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_graph6(text)

    def test_writes_at_most_62_vertices(self):
        with pytest.raises(ValueError, match="graph6 output beyond 62 vertices is not supported"):
            to_graph6(Graph(63))


class TestEdgeList:
    def test_parse(self):
        g = parse_edgelist("n 4\n0 1\n1 2\n2 3\n3 0\n")
        assert g == cycle_graph(4)

    def test_comments_and_blanks(self):
        g = parse_edgelist("# a square\nn 4\n\n0 1\n1 2\n2 3\n3 0\n")
        assert g == cycle_graph(4)

    def test_semicolon_separated_inline(self):
        assert parse_edgelist("n 3; 0 1; 1 2") == path_graph(3)

    def test_rejects_loop(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_edgelist("n 3\n1 1\n")

    def test_rejects_duplicate(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_edgelist("n 3\n0 1\n1 0\n")

    def test_rejects_out_of_range(self):
        with pytest.raises(ParseError):
            parse_edgelist("n 3\n0 3\n")

    def test_rejects_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_edgelist("0 1\n1 2\n")

    @pytest.mark.parametrize("text, message", [
        ("# a comment\n\n# and another\n", "empty edge-list input"),
        ("n x", "bad vertex count 'x'"),
        ("n -1", "vertex count must be nonnegative"),
        ("n 3\n0 a", "bad edge line '0 a'"),
    ], ids=["comments-only", "count-not-an-int", "negative-count", "endpoint-not-an-int"])
    def test_refuses(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_edgelist(text)


def masks_by_relabelling(g):
    """Edge mask of each labelling of g, g's own first: bit i stands for the
    i-th pair of combinations(range(g.n), 2)."""
    bit = {pair: 1 << i for i, pair in enumerate(combinations(range(g.n), 2))}
    return [sum(bit[tuple(sorted((p[u], p[v])))] for u, v in g.edges) for p in permutations(range(g.n))]


class TestCatalog:
    def test_connected_counts(self):
        # OEIS A001349
        for n, count in enumerate([1, 1, 2, 6, 21, 112, 853], 1):
            assert len(all_connected_graphs(n)) == count

    def test_bipartite_counts(self):
        # OEIS A005142
        sizes = Counter(g.n for g in connected_bipartite_catalog(7))
        assert [sizes[n] for n in range(1, 8)] == [1, 1, 1, 3, 5, 17, 44]

    def test_empty_catalog_rejected(self):
        for catalog in (connected_catalog, connected_bipartite_catalog, all_connected_graphs):
            for n_max in (0, -3):
                with pytest.raises(ValueError):
                    catalog(n_max)

    def test_representatives_have_the_smallest_mask(self):
        # brute force over all n! labellings: each representative carries its
        # class's smallest edge mask, and no two representatives share one
        own = set()
        for g in connected_catalog(6):
            masks = masks_by_relabelling(g)
            assert min(masks) == masks[0]
            own.add((g.n, masks[0]))
        assert len(own) == 143

    def test_catalog_makes_no_isomorphism_test(self, monkeypatch):
        # the parents' automorphism groups search for isomorphisms by design;
        # what the catalog must not do is test two graphs against each other
        def refuse(*args, **kwargs):
            raise AssertionError("pairwise isomorphism test on the catalog path")

        monkeypatch.setattr(graphs_module, "_CONNECTED_CACHE", {1: [Graph(1)]})
        monkeypatch.setattr(graphs_module, "_BIPARTITE_CACHE", {1: [Graph(1)]})
        monkeypatch.setattr(graphs_module, "is_isomorphic", refuse)
        assert len(connected_catalog(6)) == 143
        assert len(connected_bipartite_catalog(6)) == 28

    def test_bipartite_catalog_is_the_bipartite_part(self):
        assert connected_bipartite_catalog(7) == [g for g in connected_catalog(7) if g.bipartition() is not None]

    def test_pruning_names_fewer_children(self, monkeypatch):
        # unpruned, n <= 6 names 651 + 90 + 14 + 3 + 1 = 759 children
        named = Counter()

        def counted(n, adj):
            named[n] += 1
            return min_mask_form(n, adj)

        min_mask_form = graphs_module._min_mask_form
        monkeypatch.setattr(graphs_module, "_CONNECTED_CACHE", {1: [Graph(1)]})
        monkeypatch.setattr(graphs_module, "_min_mask_form", counted)
        assert len(connected_catalog(6)) == 143
        assert sum(named.values()) < 759, named

    def test_offers_of_a_group_over_the_budget(self):
        # K1,9's 362,880 automorphisms are over the budget, so listing them
        # is refused; the catalog reads only the chain's generators, and
        # offers the centre and one leaf set of each size
        star = star_graph(9)
        with pytest.raises(CapError):
            star.automorphisms()
        least = graphs_module._orbit_least(star)
        offered = [s for s in graphs_module._one_side_masks(star) if least[s] == s]
        assert offered == [1] + [(1 << size + 1) - 2 for size in range(1, 10)]
        with pytest.raises(CapError):
            star.stabilizer_chain()

    def test_all_connected_and_nonisomorphic(self):
        graphs = all_connected_graphs(5)
        for g in graphs:
            assert g.is_connected()
        for i, g in enumerate(graphs):
            for h in graphs[i + 1:]:
                assert not is_isomorphic(g, h)

    def test_isomorphic_to_a_relabelling(self):
        rng = random.Random(19)
        for g in connected_catalog(6):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert is_isomorphic(g, Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))

    def test_representatives_pinned(self):
        # the store and the verify records key on these graph6 strings, so
        # the labelled graph standing for each class must not drift
        graph6 = [to_graph6(g) for g in connected_catalog(6)]
        assert len(graph6) == 143
        digest = hashlib.sha256("\n".join(graph6).encode("ascii")).hexdigest()
        assert digest == "31946c914e7866a56694002cd0c45bddb1a9dc113b02abe450bde5b81513f32a"
