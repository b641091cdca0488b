import gc
import inspect
import random
import time
from itertools import permutations

import pytest

import restchroma
from restchroma import (
    CapError,
    Graph,
    ParseError,
    Restraint,
    RestraintClass,
    alternating_restraint,
    canonicalize,
    complete_bipartite_graph,
    complete_graph,
    connected_catalog,
    constant_restraint,
    cycle_graph,
    empty_graph,
    empty_restraint,
    enumerate_k_restraints,
    is_proper,
    parse_restraint,
    path_graph,
    render_restraint,
    star_graph,
    to_graph6,
)
from restchroma.restraints import _normal_form_count, _normal_form_masks, id_masks
from conftest import first_use_forms, labelled_graphs, restraint_classes, restraint_of

R = parse_restraint

# the library entry points that take a graph and a restraint
FIT_CHECKED = [
    "canonicalize", "coeff_n1", "coeff_n2", "coeff_n3", "common_neighbor_overlap", "count_colourings",
    "is_proper", "restrained_poly", "shared_pair_overlap",
]


def class_id_mismatches(g: Graph, k: int) -> list[tuple[str, str]]:
    """(class_id, reference) for each class of g at k whose class_id or
    representative differs from the incidence formula of restraint_of,
    rendered by render_restraint, whose id does not parse back to its
    representative, or whose id does not decode (id_masks) to its canon.
    The formula shares no code with class_id."""
    bad = []
    for cls in restraint_classes(g, k):
        reference = restraint_of(cls.canon, g.n)
        cid = cls.class_id()
        expected = render_restraint(reference)
        decoded = tuple(sorted(id_masks(cid)))
        if not (cid == expected and cls.representative == reference == R(cid) and decoded == cls.canon):
            bad.append((cid, expected))
    return bad


def walk_faults(n: int, k: int) -> tuple[int, list[str]]:
    """(visits, faults) of _normal_form_masks(n, k) against the unpruned
    first_use_forms: faults names each colour class (sorted mask tuple) the
    walk visits twice, misses or invents, each visit with a vertex that is
    not in exactly k masks, and each visit whose masks are not sorted."""
    visited: list[tuple[int, ...]] = []
    _normal_form_masks(n, k, lambda masks: visited.append(tuple(masks)))
    faults = [f"vertex not in {k} masks: {m}" for m in visited if any(sum(x >> v & 1 for x in m) != k for v in range(n))]
    classes = [tuple(sorted(m)) for m in visited]
    faults += [f"not sorted: {m}" for m, c in zip(visited, classes) if m != c][:5]
    reference = {tuple(sorted(m)) for m in first_use_forms(n, k)}
    if len(set(classes)) != len(classes):
        faults.append(f"{len(classes) - len(set(classes))} repeated visits")
    faults += [f"missed {c}" for c in sorted(reference - set(classes))[:5]]
    faults += [f"not a normal form {c}" for c in sorted(set(classes) - reference)[:5]]
    return len(visited), faults


def walk_repeats(n: int, k: int, classes: bool = True) -> tuple[int, int | None]:
    """(visits, repeats) of _normal_form_masks(n, k), where visits counts only
    the visits whose masks are sorted, as the walk hands them over, so an
    unsorted visit makes it fall short of the class count, and repeats
    counts the visits to a colour class (sorted mask tuple) visited before;
    None when classes is False, which keeps no class and so no memory per
    visit."""
    visits = calls = 0
    seen: set[tuple[int, ...]] = set()

    def visit(masks):
        nonlocal visits, calls
        calls += 1
        ordered = tuple(sorted(masks))
        visits += masks == ordered
        if classes:
            seen.add(ordered)

    _normal_form_masks(n, k, visit)
    return visits, calls - len(seen) if classes else None


def filtered_walk_faults(g: Graph, k: int) -> list[str]:
    """The filters of the walk on g at k that list other classes than the
    unfiltered walk and enumerate_k_restraints, kept to the classes with the
    filter's property: zero masks (every class) and avoiding the neighbours
    (is_proper).  Each filter is checked on the colour classes that
    _normal_form_masks visits, each visited once, and on the restraint
    classes that enumerate_k_restraints lists with it; every filtered walk
    must hand over its masks sorted."""
    filters = {
        "zero": ([0] * g.n, lambda r: True),
        "proper": (g.adjacency_masks(), lambda r: is_proper(g, r)),
    }
    every = []
    _normal_form_masks(g.n, k, lambda masks: every.append((tuple(sorted(masks)), restraint_of(masks, g.n))))
    classes = restraint_classes(g, k)
    faults = []
    for name, (avoid, holds) in filters.items():
        visited = []
        _normal_form_masks(g.n, k, visited.append, avoid)
        if any(m != tuple(sorted(m)) for m in visited):
            faults.append(f"{name} unsorted visits")
        if sorted(visited) != sorted(m for m, r in every if holds(r)):
            faults.append(f"{name} colour classes")
        if enumerate_k_restraints(g, k, avoid) != [c.canon for c in classes if holds(c.representative)]:
            faults.append(f"{name} classes")
    return faults


class TestRestraintValue:
    def test_m_value(self):
        assert R("[{1},{2},{3}]").m_value() == 3
        assert R("[{},{},{}]").m_value() == 0
        assert R("[{1,7},{2}]").m_value() == 7

    def test_rejects_nonpositive_colours(self):
        for sets in [[[0]], [[1.5]], [[True]], [["3"]]]:
            with pytest.raises(ValueError):
                Restraint(sets)


class TestLiteralSyntax:
    def test_round_trip(self):
        text = "[{1},{2},{1,3}]"
        assert render_restraint(R(text)) == text

    def test_json_form(self):
        r = R("[[1],[2],[1,3]]")
        assert r == R("[{1},{2},{1,3}]")
        assert r == R("[[1],\n {2}, {1, 3}]")

    def test_empty_sets(self):
        assert R("[{},{}]").sizes() == (0, 0)

    def test_rejects_garbage(self):
        for bad in ["", "nope", "[{1}", "[{a}]", "[1,2]", "[[1.5],[2]]", "[[true],[2]]", '[["3"],[2]]',
                    "[[null],[2]]", "[[[1]],[2]]", "{{1},{2}}", "[{0}]", "[{1} {2}]", "[{1,},{2}]",
                    "[{1},,{2}]", '[""]', "[" * 100_000]:
            with pytest.raises(ParseError):
                R(bad)

    def test_class_ids_round_trip(self):
        # a class id is also a restraint literal of the class's representative
        for n, k in [(5, 1), (4, 2)]:
            for g in connected_catalog(n):
                for cls in restraint_classes(g, k):
                    cid = cls.class_id()
                    r = R(cid)
                    assert r == cls.representative == R(cid.replace("{", "[").replace("}", "]"))
                    assert render_restraint(r) == cid

    def test_class_ids_match_reference(self):
        cases = [(g, 1) for g in connected_catalog(6)] + [(g, 2) for g in connected_catalog(4)]
        cases += [(cycle_graph(4), 3), (path_graph(4), 3), (Graph(0), 1)]
        for g, k in cases:
            assert class_id_mismatches(g, k) == []
        assert [c.class_id() for c in restraint_classes(Graph(0), 1)] == ["[]"]

    def test_id_masks_decode_class_ids(self):
        assert id_masks("[]") == []
        assert sorted(id_masks("[{1},{2},{1},{2}]")) == [0b0101, 0b1010]
        assert sorted(id_masks("[{1,2},{3},{1,3}]")) == [0b001, 0b101, 0b110]
        # the decoder does not check: swapped labels decode to the same masks
        assert sorted(id_masks("[{2},{1},{2},{1}]")) == [0b0101, 0b1010]

    def test_from_id_accepts_exactly_class_ids(self):
        for g, k in [(g, 1) for g in connected_catalog(5)] + [(cycle_graph(4), 2), (Graph(0), 1)]:
            for cls in restraint_classes(g, k):
                assert RestraintClass.from_id(cls.class_id(), g.n).class_id() == cls.class_id()
        # swapped labels, a fifth vertex set, not an id, an id whose masks
        # re-encode to [{1},{2},{1},{2}], and a non-empty id on no vertices
        for cid, n in [("[{2},{1},{2},{1}]", 4), ("[{1},{2},{1},{2},{1}]", 4), ("alternating", 4),
                       ("[{1},{3},{1},{3}]", 4), ("[{1}]", 0)]:
            with pytest.raises(ValueError, match="not the class id"):
                RestraintClass.from_id(cid, n)


class TestConstructions:
    def test_constant(self, c3):
        assert constant_restraint(c3, 1) == R("[{1},{1},{1}]")
        assert constant_restraint(Graph(2, [(0, 1)]), 2) == R("[{1,2},{1,2}]")

    def test_constant_requires_positive_k(self, c3):
        with pytest.raises(ValueError):
            constant_restraint(c3, 0)

    def test_alternating_requires_positive_k(self, c4):
        with pytest.raises(ValueError, match="k must be at least 1"):
            alternating_restraint(c4, 0)

    def test_alternating_four_cycle(self, c4):
        assert alternating_restraint(c4, 1) == R("[{1},{2},{1},{2}]")

    def test_alternating_k2_two_colours_each(self):
        assert alternating_restraint(Graph(2, [(0, 1)]), 2) == R("[{1,2},{3,4}]")

    def test_alternating_rejects_odd_cycle(self, c7):
        with pytest.raises(ValueError, match="not bipartite"):
            alternating_restraint(c7, 1)

    def test_alternating_rejects_disconnected(self):
        with pytest.raises(ValueError, match="disconnected"):
            alternating_restraint(empty_graph(2), 1)

    def test_alternating_is_proper_valid_k_restraint(self):
        for g, k in [(cycle_graph(6), 1), (path_graph(5), 2), (cycle_graph(4), 3)]:
            r = alternating_restraint(g, k)
            assert is_proper(g, r)
            assert r.sizes() == (k,) * g.n and r.m_value() <= k * g.n


class TestProperness:
    def test_examples(self, c4):
        assert is_proper(c4, R("[{1},{2},{1},{2}]"))
        assert not is_proper(c4, R("[{1},{1},{1},{1}]"))

    def test_no_edges_always_proper(self):
        assert is_proper(empty_graph(3), R("[{1},{1},{1}]"))


class TestEquivalence:
    def test_path_pairs(self, p3):
        assert canonicalize(p3, R("[{1},{2},{3}]")).canon == canonicalize(p3, R("[{2},{1},{4}]")).canon
        assert canonicalize(p3, R("[{1},{1},{2}]")).canon == canonicalize(p3, R("[{3},{2},{2}]")).canon
        assert canonicalize(p3, R("[{1},{2},{3}]")).canon != canonicalize(p3, R("[{1},{1},{2}]")).canon

    def test_canonicalize_idempotent(self):
        rng = random.Random(21)
        from conftest import random_graph, random_restraint

        for _ in range(40):
            g = random_graph(rng, max_n=5)
            r = random_restraint(rng, g.n)
            cls = canonicalize(g, r)
            again = canonicalize(g, cls.representative)
            assert again.canon == cls.canon
            assert again.representative == cls.representative

    def test_colour_bijection_with_shared_colours(self, p3):
        # swapping colour names must not split a class even when one set
        # contains several colours
        g = empty_graph(2)
        assert canonicalize(g, Restraint([[1, 2], [2]])).canon == canonicalize(g, Restraint([[1, 2], [1]])).canon

    def test_empty_restraint_canon(self, p3):
        # no colour means no masks, and the orbit of nothing is one empty image
        for g in (Graph(0), Graph(1), p3, complete_graph(4)):
            assert canonicalize(g, empty_restraint(g)).canon == ()

    def test_canonicalize_rejects_wrong_length(self, c3):
        with pytest.raises(ValueError, match="2 sets for a graph on 3 vertices"):
            canonicalize(c3, R("[{1},{2}]"))

    def test_automorphism_needed(self, p3):
        assert canonicalize(p3, R("[{1},{2},{2}]")).canon != canonicalize(p3, R("[{1},{2},{1}]")).canon
        # reversal of the path maps end to end
        assert canonicalize(p3, R("[{1},{2},{3}]")).canon == canonicalize(p3, R("[{3},{2},{1}]")).canon


class TestFit:
    @pytest.mark.parametrize("sets", [3, 5])
    @pytest.mark.parametrize("name", FIT_CHECKED)
    def test_every_entry_point_refuses_a_restraint_that_does_not_fit(self, name, sets):
        # check_fit owns the rule and its message; one set too few or too
        # many once made coeff_n1 return a number and others IndexError
        g = cycle_graph(4)
        extra = (3,) if name == "count_colourings" else ()
        with pytest.raises(ValueError, match=f"^restraint has {sets} sets for a graph on 4 vertices$"):
            getattr(restchroma, name)(g, Restraint([[1]] * sets), *extra)

    def test_fit_checked_names_every_entry_point(self):
        # every public function whose first two parameters are a graph and a
        # restraint: one exported later fails here until FIT_CHECKED names it
        takes = [name for name, f in vars(restchroma).items()
                 if inspect.isfunction(f) and list(inspect.signature(f).parameters)[:2] == ["g", "r"]]
        assert sorted(takes) == sorted(FIT_CHECKED)


class TestEnumeration:
    def test_triangle_three_classes(self, c3):
        assert len(enumerate_k_restraints(c3, 1)) == 3

    def test_four_cycle_seven_classes(self, c4):
        classes = enumerate_k_restraints(c4, 1)
        assert len(classes) == 7
        # the seven reference representatives fall into seven distinct classes
        reference = [
            "[{1},{1},{1},{1}]",
            "[{1},{1},{1},{2}]",
            "[{1},{1},{2},{2}]",
            "[{1},{2},{1},{2}]",
            "[{1},{1},{2},{3}]",
            "[{1},{2},{1},{3}]",
            "[{1},{2},{3},{4}]",
        ]
        canons = {canonicalize(c4, R(lit)).canon for lit in reference}
        assert len(canons) == 7
        assert canons == set(classes)

    def test_k_below_one_rejected(self, c3):
        with pytest.raises(ValueError, match="k must be at least 1"):
            enumerate_k_restraints(c3, 0)

    def test_single_vertex(self):
        assert len(enumerate_k_restraints(Graph(1), 1)) == 1

    def test_classes_are_valid_k_restraints(self, c4):
        for k in (1, 2):
            for cls in restraint_classes(c4, k):
                r = cls.representative
                assert r.sizes() == (k,) * c4.n and r.m_value() <= k * c4.n

    def test_classes_pairwise_nonequivalent(self, c4):
        canons = enumerate_k_restraints(c4, 1)
        assert len(set(canons)) == len(canons)

    def test_completeness_spot_check(self, c4):
        # any random simple restraint lands in an enumerated class
        rng = random.Random(13)
        canons = set(enumerate_k_restraints(c4, 1))
        for _ in range(100):
            r = Restraint([[rng.randint(1, 4)] for _ in range(4)])
            assert canonicalize(c4, r).canon in canons

    def test_completeness_spot_check_k2(self):
        g = path_graph(4)
        rng = random.Random(14)
        canons = set(enumerate_k_restraints(g, 2))
        for _ in range(60):
            r = Restraint([rng.sample(range(1, 9), 2) for _ in range(4)])
            assert canonicalize(g, r).canon in canons

    def test_orbit_sweep_matches_per_candidate_canonicalize(self):
        # the single orbit-marking pass finds exactly the canons that
        # canonicalising every normal-form candidate separately finds, and a
        # relabelled graph (a different candidate order relative to its
        # automorphisms) gives the same class count
        rng = random.Random(5)
        cases = [(g, 1) for g in connected_catalog(5)] + [(g, 2) for g in connected_catalog(4)]
        cases += [(complete_bipartite_graph(2, 5), 1), (complete_graph(5), 2)]
        for g, k in cases:
            classes = enumerate_k_restraints(g, k)
            reference = sorted({
                canonicalize(g, restraint_of(masks, g.n)).canon for masks in first_use_forms(g.n, k)
            })
            assert classes == reference
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabelled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            assert len(enumerate_k_restraints(relabelled, k)) == len(classes)

    def test_canons_match_brute_force_automorphisms(self):
        # a reference that needs neither Graph.automorphisms nor the row
        # cache: the automorphisms are the vertex permutations that preserve
        # the edge set, applied to each mask bit by bit
        cases = [(g, 1) for g in connected_catalog(5)] + [(g, 2) for g in connected_catalog(4)]
        cases += [(complete_graph(6), 1), (star_graph(6), 1), (complete_bipartite_graph(2, 5), 1)]
        # the enumeration skips orbits on a trivial group; below n = 6 only
        # K1, already a case, has one
        cases += [(g, 1) for g in connected_catalog(6) if g.n == 6 and len(g.automorphisms()) == 1]
        for g, k in cases:
            autos = [
                p for p in permutations(range(g.n))
                if {tuple(sorted((p[u], p[v]))) for u, v in g.edges} == g.edges
            ]
            seen: set = set()
            reference = []
            for masks in first_use_forms(g.n, k):
                if tuple(sorted(masks)) in seen:
                    continue
                images = {
                    tuple(sorted(sum(1 << p[v] for v in range(g.n) if m >> v & 1) for m in masks)) for p in autos
                }
                seen |= images
                reference.append(min(images))
                assert canonicalize(g, restraint_of(masks, g.n)).canon == min(images)
            assert enumerate_k_restraints(g, k) == sorted(reference)

    def test_trivial_group_computes_no_orbit(self, monkeypatch):
        # with |Aut| = 1 each colour class is one restraint class: the walk's
        # Bell(6) set partitions at k = 1 and 29,388 colour classes at k = 2
        from restchroma import restraints

        def no_orbit(*args):
            raise AssertionError("orbit rows built for a trivial group")

        g = next(g for g in connected_catalog(6) if g.n == 6 and len(g.automorphisms()) == 1)
        monkeypatch.setattr(restraints, "_orbit_rows", no_orbit)
        for k, count in [(1, 203), (2, 29_388)]:
            canons = enumerate_k_restraints(g, k)
            assert len(canons) == len(set(canons)) == count
            assert canons == sorted(canons)

    def test_normal_forms_at_k1_are_set_partitions(self):
        # first-use normal forms of 1-restraints are the set partitions of
        # the vertices, so there are Bell(n) of them
        bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
        for n in range(9):
            forms = list(first_use_forms(n, 1))
            assert len(forms) == bell[n]
            assert _normal_form_count(n, 1) == len(forms)
            assert len(set(forms)) == len(forms)
            for masks in forms:
                assert all(sum(m >> v & 1 for m in masks) == 1 for v in range(n))

    def test_normal_forms_at_k2_cover_each_vertex_twice(self):
        for n in range(5):
            forms = list(first_use_forms(n, 2))
            assert _normal_form_count(n, 2) == len(forms)
            assert len(set(forms)) == len(forms)
            for masks in forms:
                assert all(sum(m >> v & 1 for m in masks) == 2 for v in range(n))

    def test_walk_visits_each_colour_class_once(self):
        # the pruned walk against the unpruned sweep; CI repeats this at
        # (6, 2), (5, 3) and (4, 4), and counts the visits at four larger
        # (n, k) (walk_repeats)
        visits = {}
        for k, n_max in [(1, 8), (2, 5), (3, 4), (4, 3)]:
            for n in range(n_max + 1):
                visits[n, k], faults = walk_faults(n, k)
                assert faults == [], (n, k)
                assert visits[n, k] <= _normal_form_count(n, k)
        # at k = 1 every class is one set partition, so Bell(8) of them
        assert visits[8, 1] == 4140
        assert visits[5, 2] == 1750
        # two vertices with k colours each share j of them, for j = 0..k, so
        # there are k + 1 colour classes, each visited as its sorted masks:
        # small n admits large k
        for k in range(1, 51):
            visited = []
            _normal_form_masks(2, k, visited.append)
            assert sorted(visited) == sorted(
                tuple(sorted((0b11,) * j + (0b01, 0b10) * (k - j))) for j in range(k + 1)), k

    def test_walk_leaves_no_reference_cycle(self):
        # the recursive walk would hold itself and its visit, and whatever
        # that holds (an enumeration's seen set), until a full collection
        gc.collect()
        gc.disable()
        try:
            for n, k in [(4, 1), (4, 2)]:
                _normal_form_masks(n, k, [].append)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("k", [1, 2])
    def test_filtered_walks_list_the_classes_with_their_property(self, k):
        # every labelled graph on up to 4 vertices, edgeless and disconnected
        # ones included, and at k = 1 the connected 5-vertex graphs, whose
        # groups range from trivial to S_5
        graphs = list(labelled_graphs(4))
        if k == 1:
            graphs += [g for g in connected_catalog(5) if g.n == 5]
        assert [(to_graph6(g), f) for g in graphs for f in filtered_walk_faults(g, k)] == []

    def test_normal_form_counts_past_listing(self):
        # too many forms to list here; each is within FORMS_BUDGET
        assert _normal_form_count(11, 1) == 678_570
        assert _normal_form_count(6, 2) == 97_191
        assert _normal_form_count(7, 2) == 2_406_417
        assert _normal_form_count(5, 3) == 507_622
        assert _normal_form_count(4, 4) == 168_481

    def test_caps(self):
        # the normal-form budget, not n, decides: C13 at k=1 has 27.6M forms,
        # and the count stops within its 12th vertex, on the way to Bell(12)
        # prefixes; C4 at k=6 passes the budget only at its last vertex
        with pytest.raises(CapError) as over:
            enumerate_k_restraints(cycle_graph(13), 1)
        assert str(over.value) == (
            "normal-form budget exceeded (more than 3000000 forms for n=13, k=1;"
            " stopped counting at vertex 12 of 13)")
        with pytest.raises(CapError) as over:
            enumerate_k_restraints(cycle_graph(4), 6)
        assert str(over.value) == (
            "normal-form budget exceeded (more than 3000000 forms for n=4, k=6;"
            " stopped counting at vertex 4 of 4)")
        assert len(enumerate_k_restraints(path_graph(6), 2)) == 14_990

    def test_budget_stops_counting_early(self):
        # C4's two-vertex prefixes number 2^k, one term C(k, t) per count t
        # of fresh colours; the count stops at the term that passes the
        # budget, a few terms in, and the message gives no count, so neither
        # its time nor its length grows with k
        for k in (300, 10**6):
            start = time.perf_counter()
            with pytest.raises(CapError) as over:
                enumerate_k_restraints(cycle_graph(4), k)
            assert time.perf_counter() - start < 0.1
            assert str(over.value) == (
                f"normal-form budget exceeded (more than 3000000 forms for n=4, k={k};"
                " stopped counting at vertex 2 of 4)")

    def test_disconnected_supported(self):
        g = Graph(3, [(0, 1)])  # an edge and an isolated vertex
        classes = enumerate_k_restraints(g, 1)
        # constant everywhere and isolated-vertex-different are distinct
        assert len(classes) >= 2
