"""The oracles that cross-check each fast path over whole catalogs, and RUNS,
the one table of their runs.

Every oracle is oracle(graphs, k), given None for a k it does not read, and
returns one value: a list of mismatches, [] when none; (count, []) from
tie_break_mismatches, walk_faults and proper_count_mismatches; (visits,
repeats) from walk_repeats; the memo totals from catalog_memo_stats.
Each row of RUNS is (oracle, inputs, k, expected, tier), its inputs named
as graphs_named reads them.  test_oracles.py runs the tier-1 rows; CI runs
the CI rows of one oracle per step, named after it:

    PYTHONPATH=src python tests/oracles.py tie_break_mismatches
"""

import contextlib
import random
import sys
import tempfile
import time
from collections import Counter
from functools import partial
from itertools import combinations, permutations, zip_longest
from operator import or_
from typing import Callable, NamedTuple

from restchroma import (
    Graph, MemoCache, Restraint, RestraintClass, all_connected_graphs, alternating_restraint, canonicalize, coeff_n1,
    coeff_n2, coeff_n3, common_neighbor_overlap, connected_bipartite_catalog, connected_catalog, constant_restraint,
    dominance_key, empty_graph, empty_restraint, enumerate_k_restraints, extremal, find_extremal, is_proper,
    load_or_compute_extremal, parse_restraint, render_restraint, restrained_poly, shared_pair_overlap, to_graph6,
)
from restchroma.graphs import _min_mask_form, load_graph
from restchroma.restraints import _normal_form_masks, id_masks, incidence_masks, normal_form_count


def restraint_classes(g: Graph, k: int) -> list[RestraintClass]:
    """The class of each canon enumerate_k_restraints(g, k) lists, in order."""
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


def reference_mask_form(n: int, adj) -> Graph:
    """The labelling of (n, adj) with the smallest edge mask, by listing
    every tied partial labelling: the reference for graphs._min_mask_form,
    which holds interchangeable runs as cells, skips twins and starts from
    the largest independent sets.  Labels go out from n-1 downward, and each
    level keeps every partial whose new row (adjacency to the labelled
    vertices, highest label first) is smallest; a graph ends with one
    partial per automorphism."""
    # (vertices by label up to n-1, the row of each unlabelled vertex)
    partials = [((v,), {w: adj[w] >> v & 1 for w in range(n) if w != v}) for v in range(n)]
    for _ in range(n - 1):
        best = min(min(rows.values()) for _, rows in partials)
        partials = [((w,) + p, {u: r << 1 | adj[u] >> w & 1 for u, r in rows.items() if u != w})
                    for p, rows in partials for w, row in rows.items() if row == best]
    order = partials[0][0]
    return Graph(n, [(i, j) for j in range(n) for i in range(j) if adj[order[i]] >> order[j] & 1])


def unpruned_connected_catalog(n_max: int) -> list[Graph]:
    """Connected graphs with 1..n_max vertices by the unpruned vertex
    extension, the reference for the catalog's orbit pruning: each graph on
    n - 1 vertices gets a new vertex n-1 adjacent to every nonempty subset
    of its vertices in turn, each child is named by reference_mask_form,
    and each size is sorted by (m, graph6)."""
    levels = [[Graph(1)]]
    for n in range(2, n_max + 1):
        reps = {reference_mask_form(n, [a | (s >> v & 1) << (n - 1) for v, a in enumerate(g.adjacency_masks())] + [s])
                for g in levels[-1] for s in range(1, 1 << (n - 1))}
        levels.append(sorted(reps, key=lambda g: (g.m, to_graph6(g))))
    return [g for level in levels for g in level]


def labelled_graphs(n_max: int) -> list[Graph]:
    """Every labelled graph on 0..n_max vertices, one per edge set,
    edgeless and disconnected ones included."""
    pairs = [list(combinations(range(n), 2)) for n in range(n_max + 1)]
    return [Graph(n, [e for i, e in enumerate(pairs[n]) if chosen >> i & 1])
            for n in range(n_max + 1) for chosen in range(1 << len(pairs[n]))]


def random_connected_graph(rng: random.Random, n: int, extra_edges: int = 0) -> Graph:
    """A random spanning tree on n vertices plus extra_edges more edges, randomly labelled."""
    label = list(range(n))
    rng.shuffle(label)
    edges = {tuple(sorted((label[v], label[rng.randrange(v)]))) for v in range(1, n)}
    edges |= set(rng.sample([e for e in combinations(range(n), 2) if e not in edges], extra_edges))
    return Graph(n, edges)


def sparse_queries(m_max: int = 15) -> list:
    """Of 40 (graph, restraint) queries, connected graphs on 9..12 vertices
    with cyclomatic number 4 (m = 12..15), as in the poly-queries benchmark,
    those with at most m_max edges."""
    rng = random.Random(59)
    queries = []
    for i in range(40):
        n, k = 9 + i % 4, 1 + i // 4 % 2
        g = random_connected_graph(rng, n, extra_edges=4)
        queries.append((g, Restraint(rng.sample(range(1, k + 3), k) for _ in range(n))))
    return [(g, r) for g, r in queries if g.m <= m_max]


def relabelled(graphs):
    """Yield each graph relabelled by a permutation drawn from one seeded
    generator, so a check over a catalog does not see its labellings alone."""
    rng = random.Random(53)
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def seeded_restraints(graphs, k: int, seed: int) -> list:
    """(g, r) for one restraint r of each size 1..k on each g in turn, drawn
    from one generator seeded with seed, from colours 1..size + 2 so that
    neighbouring sets overlap."""
    rng = random.Random(seed)
    return [(g, Restraint(rng.sample(range(1, size + 3), size) for _ in range(g.n)))
            for g in graphs for size in range(1, k + 1)]


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


FAMILIES = {
    "connected_catalog": connected_catalog, "connected_bipartite_catalog": connected_bipartite_catalog,
    "all_connected_graphs": all_connected_graphs, "labelled_graphs": labelled_graphs,
    "edgeless_graphs": lambda n: [empty_graph(i) for i in range(n + 1)], "sparse_queries": sparse_queries,
}


def graphs_named(inputs: str) -> list:
    """The inputs a run names, parts joined by " + ": a family of FAMILIES
    with its argument, such as connected_catalog(7), the graphs E0..E6 as
    edgeless_graphs(6), or the queries with at most 13 edges as
    sparse_queries(13); or one graph by name (C11, E6) or graph6 (FPpC?).
    A walk at (n, k) runs on En."""
    out = []
    for name in inputs.split(" + "):
        family, _, arg = name.partition("(")
        out += FAMILIES[family](int(arg[:-1])) if arg else [load_graph(name)]
    return out


def unpruned_catalog_mismatches(graphs, k=None) -> list:
    """(position, graph6 given, graph6 of the reference) wherever graphs,
    a connected catalog, differs from unpruned_connected_catalog of its
    largest n in its graphs, their order or their labelling."""
    reference = unpruned_connected_catalog(max(g.n for g in graphs))
    return [(i, a and to_graph6(a), b and to_graph6(b))
            for i, (a, b) in enumerate(zip_longest(graphs, reference, fillvalue="")) if a != b]


def labelling_mismatches(graphs, k=None) -> list[tuple[str, str]]:
    """(graph6 of the graph, graph6 of the relabelling) for each of three
    seeded relabellings of each of graphs, catalog graphs in the labelling
    that names them, that _min_mask_form does not name as
    reference_mask_form does, or not as that graph."""
    tripled = [g for g in graphs for _ in range(3)]
    return [(to_graph6(g), to_graph6(h)) for g, h in zip(tripled, relabelled(tripled))
            if not g == _min_mask_form(h.n, h.adjacency_masks()) == reference_mask_form(h.n, h.adjacency_masks())]


def automorphism_mismatches(graphs, k=None) -> list[str]:
    """graph6 of each graph whose automorphisms() differs from the vertex
    permutations that preserve its edge set, listed in sorted order."""
    return [to_graph6(g) for g in graphs if g.automorphisms() != [
        p for p in permutations(range(g.n)) if all(tuple(sorted((p[u], p[v]))) in g.edges for u, v in g.edges)]]


def orbit_rows(n: int, autos: list[tuple[int, ...]]):
    """Return orbit(masks), the sorted mask tuples of a restraint's images
    under every element of autos, in no set order (sorting is what renames
    the colours): the reference for the package's orbits, which read the
    stabilizer chain a block at a time and never list the group.  Equal
    unsorted images are merged before sorting.  Each mask's row, its image
    under every element, is its lowest bit's column ORed entrywise onto the
    row of the remaining bits, memoised for the life of orbit."""
    bits = [1 << v for v in range(n)]
    rows = {bits[v]: [bits[p[v]] for p in autos] for v in range(n)}

    def orbit(masks):
        if not masks:
            return [()]
        return map(tuple, map(sorted, set(zip(*[_reference_row(rows, mask) for mask in masks]))))

    return orbit


def _reference_row(rows: dict[int, list[int]], mask: int) -> list[int]:
    """mask's row, cached in rows (orbit_rows)."""
    r = rows.get(mask)
    if r is None:
        low = mask & -mask
        r = rows[mask] = list(map(or_, _reference_row(rows, mask ^ low), rows[low]))
    return r


def orbit_mismatches(graphs, k: int) -> list[tuple[str, str]]:
    """(graph6, what) for each graph whose classes at k differ from those of
    orbit_rows over the listed g.automorphisms(), which
    automorphism_mismatches checks against brute force: the canons
    enumerate_k_restraints lists, against the walk's colour classes with
    each new one's whole reference orbit marked as seen; and canonicalize of
    each reference class's representative, whose masks come unsorted, against
    its orbit minimum."""
    bad = []
    for g in graphs:
        orbit, seen, reference = orbit_rows(g.n, g.automorphisms()), set(), []

        def visit(masks):
            if masks not in seen:
                images = set(orbit(masks))
                seen.update(images)
                reference.append(min(images))

        _normal_form_masks(g.n, k, visit)
        reference.sort()
        if enumerate_k_restraints(g, k) != reference:
            bad.append((to_graph6(g), "classes"))
        for canon in reference:
            representative = RestraintClass(canon, g.n).representative
            if canonicalize(g, representative).canon != min(orbit(incidence_masks(representative))):
                bad.append((to_graph6(g), f"canonicalize {render_restraint(representative)}"))
    return bad


def walk_faults(graphs, k: int) -> tuple[int, list[str]]:
    """(visits, faults) of _normal_form_masks(g.n, k) on each edgeless g
    against the unpruned first_use_forms: the visits summed, and each
    colour class (sorted mask tuple) a walk visits twice, misses or invents,
    each visit with a vertex not in exactly k masks or with unsorted masks,
    and each walk with more visits than normal_form_count(n, k)."""
    total, faults = 0, []
    for n in (g.n for g in graphs):
        visited: list[tuple[int, ...]] = []
        _normal_form_masks(n, k, lambda masks: visited.append(tuple(masks)))
        bad = [f"vertex not in {k} masks: {m}" for m in visited
               if any(sum(x >> v & 1 for x in m) != k for v in range(n))]
        classes = [tuple(sorted(m)) for m in visited]
        bad += [f"not sorted: {m}" for m, c in zip(visited, classes) if m != c][:5]
        reference = {tuple(sorted(m)) for m in first_use_forms(n, k)}
        if len(set(classes)) != len(classes):
            bad.append(f"{len(classes) - len(set(classes))} repeated visits")
        bad += [f"missed {c}" for c in sorted(reference - set(classes))[:5]]
        bad += [f"not a normal form {c}" for c in sorted(set(classes) - reference)[:5]]
        if len(visited) > normal_form_count(n, k):
            bad.append(f"{len(visited)} visits, more than the forms counted")
        total += len(visited)
        faults += [f"n={n}: {fault}" for fault in bad]
    return total, faults


def walk_repeats(graphs, k: int, keep_classes: bool = True) -> tuple[int, int | None]:
    """(visits, repeats) of _normal_form_masks(g.n, k), summed over the
    edgeless g: visits counts only the visits whose masks are sorted, as the
    walk hands them over, and repeats the visits to a colour class (sorted
    mask tuple) its walk visited before; None when keep_classes is False,
    which keeps no memory per visit."""
    visits = calls = classes = 0
    for g in graphs:
        seen: set[tuple[int, ...]] = set()

        def visit(masks):
            nonlocal visits, calls
            calls += 1
            ordered = tuple(sorted(masks))
            visits += masks == ordered
            if keep_classes:
                seen.add(ordered)

        _normal_form_masks(g.n, k, visit)
        classes += len(seen)
    return visits, calls - classes if keep_classes else None


def filtered_walk_faults(graphs, k: int) -> list[tuple[str, str]]:
    """(graph6, fault) for each graph and each filter of the walk at k, zero
    masks (every class) and avoiding the neighbours (is_proper), whose
    filtered walk hands over unsorted masks, or whose colour classes, or
    classes listed by enumerate_k_restraints, are not those of the
    unfiltered walk, or listing, that have the filter's property."""
    faults = []
    for g in graphs:
        filters = {"zero": ([0] * g.n, lambda r: True), "proper": (g.adjacency_masks(), lambda r: is_proper(g, r))}
        every = []
        _normal_form_masks(g.n, k, lambda masks: every.append((tuple(sorted(masks)), restraint_of(masks, g.n))))
        classes = restraint_classes(g, k)
        for name, (avoid, holds) in filters.items():
            visited = []
            _normal_form_masks(g.n, k, visited.append, avoid)
            if any(m != tuple(sorted(m)) for m in visited):
                faults.append((to_graph6(g), f"{name} unsorted visits"))
            if sorted(visited) != sorted(m for m, r in every if holds(r)):
                faults.append((to_graph6(g), f"{name} colour classes"))
            if enumerate_k_restraints(g, k, avoid) != [c.canon for c in classes if holds(c.representative)]:
                faults.append((to_graph6(g), f"{name} classes"))
    return faults


def class_id_mismatches(graphs, k: int) -> list[tuple[str, str, str]]:
    """(graph6, class_id, reference) for each class at k whose class_id or
    representative differs from the incidence formula of restraint_of,
    rendered by render_restraint, which shares no code with class_id, or
    whose id does not parse back to its representative or decode (id_masks)
    to its canon."""
    bad = []
    for g in graphs:
        for cls in restraint_classes(g, k):
            reference, cid = restraint_of(cls.canon, g.n), cls.class_id()
            expected = render_restraint(reference)
            if not (cid == expected and cls.representative == reference == parse_restraint(cid)
                    and tuple(sorted(id_masks(cid))) == cls.canon):
                bad.append((to_graph6(g), cid, expected))
    return bad


def catalog_coefficient_mismatches(graphs, k: int) -> list:
    """(graph6, restraint) pairs of seeded_restraints(graphs, k, 61) whose
    top three coefficients disagree with coeff_n1, coeff_n2 and coeff_n3."""
    bad = []
    for g, r in seeded_restraints(graphs, k, 61):
        p = restrained_poly(g, r)
        formulas = (coeff_n1, coeff_n2, lambda g, r: coeff_n3(g, r).a_n_3)[:g.n]
        if [(-1) ** d * p.coefficient(g.n - d) for d in range(1, len(formulas) + 1)] != [f(g, r) for f in formulas]:
            bad.append((to_graph6(g), r))
    return bad


def sparse_expansion_mismatches(queries, k=None) -> list:
    """(graph6, restraint) for each (graph, restraint) query whose polynomial
    differs from subgraph_expansion's."""
    return [(to_graph6(g), r) for g, r in queries if restrained_poly(g, r).coeffs != subgraph_expansion(g, r)]


def catalog_expansion_mismatches(graphs, k: int) -> list:
    """sparse_expansion_mismatches of seeded_restraints(graphs, k, 73)."""
    return sparse_expansion_mismatches(seeded_restraints(graphs, k, 73))


def dominance_key_mismatches(graphs, k: int) -> list:
    """(graph6, offsets) for each graph, relabelled (relabelled), on which
    dominance_key minus (c_{n-2}, 6 * c_{n-3}) of the whole polynomial is
    not one constant over every k-restraint class.  Where it is one
    constant, key differences are exactly the coefficient differences that
    decide eventual dominance."""
    bad = []
    for g in relabelled(graphs):
        key, memo, offsets = dominance_key(g, k), MemoCache(), set()
        for cls in restraint_classes(g, k):
            p = restrained_poly(g, cls.representative, cache=memo)
            top2, top3 = (p.coefficient(d) if d >= 0 else 0 for d in (g.n - 2, g.n - 3))
            i2, six_v3 = key(cls.canon)
            offsets.add((i2 - top2, six_v3 - 6 * top3))
        if len(offsets) != 1:
            bad.append((to_graph6(g), sorted(offsets)))
    return bad


def catalog_memo_stats(graphs, k: int) -> dict[str, int]:
    """MemoCache stats summed over graphs, relabelled as
    dominance_key_mismatches relabels them, with one cache per graph through
    which every k-restraint class's polynomial is computed: a change that
    alters which subproblems the recursion visits changes them."""
    total = Counter()
    for g in relabelled(graphs):
        memo = MemoCache()
        for cls in restraint_classes(g, k):
            restrained_poly(g, cls.representative, cache=memo)
        total.update(memo.stats())
    return dict(total)


def theorem_search_mismatches(graphs, k: int) -> list:
    """(graph6, what) for each graph whose theorem search differs from
    find_extremal's full search: in its max winners, in order, or their
    polynomials; on a connected graph, in the min record's winner ids, or
    the constant class's polynomial against the min polynomial; in the
    proper classes that the a7 check reads (the search's, or when it holds
    none, the filtered walk's) against the listed classes that is_proper
    accepts, edge by edge; in holding none other than exactly on a connected
    bipartite graph with n >= 2; or in max_tied against the listed canons
    that tie the best dominance key, in canon order."""
    bad = []
    _, min_check = extremal.THEOREMS["min"]
    for g in graphs:
        found, report = extremal.theorem_search(g, k), find_extremal(g, k)
        if found.max_classes != report.max_classes:
            bad.append((report.graph_id, "max_classes"))
        if any(restrained_poly(g, c.representative) != report.max_poly for c in found.max_classes):
            bad.append((report.graph_id, "max polynomial"))
        if g.is_connected():
            if min_check(g, k, found)["min_classes"] != [c.class_id() for c in report.min_classes]:
                bad.append((report.graph_id, "min_classes"))
            if restrained_poly(g, constant_restraint(g, k)) != report.min_poly:
                bad.append((report.graph_id, "min polynomial"))
        classes = restraint_classes(g, k)
        proper = found.proper if found.proper is not None else enumerate_k_restraints(g, k, g.adjacency_masks())
        if sorted(proper) != sorted(c.canon for c in classes if is_proper(g, c.representative)):
            bad.append((report.graph_id, "proper classes"))
        if (found.proper is None) != (g.n >= 2 and g.is_connected() and g.bipartition() is not None):
            bad.append((report.graph_id, "proper classes held"))
        keys = [dominance_key(g, k)(c.canon) for c in classes]
        best = max(keys)
        if found.max_tied != tuple(c.canon for c, c_key in zip(classes, keys) if c_key == best):
            bad.append((report.graph_id, "max tie set"))
    return bad


def key_bound_faults(graphs, k: int) -> list:
    """(graph6, what) for each graph whose proper classes break the bound
    that extremal.theorem_search rests on, B = 3k * sum over v of
    deg(v)(deg(v) - 1), read from every colour class that the walk filtered
    to the proper ones visits (_normal_form_masks avoiding the neighbours,
    which filtered_walk_faults checks against is_proper).  The walk builds
    no automorphism group, and the key is the same on every form of a
    restraint class, so a group over AUTOMORPHISM_BUDGET (K1,9's) is no
    bar.  The faults: a proper form's second key above B; on a connected
    bipartite graph with n >= 2, a best key other than (0, B), or forms
    other than the alternating restraint's sorted masks reaching B; on a
    connected graph with an odd cycle, a form that reaches B."""
    bad = []
    for g in graphs:
        graph_id, key, adj = to_graph6(g), dominance_key(g, k), g.adjacency_masks()
        bound = 3 * k * sum(d * (d - 1) for d in (mask.bit_count() for mask in adj))
        forms = []
        _normal_form_masks(g.n, k, forms.append, adj)
        keys = dict(zip(forms, map(key, forms)))
        if any(form_key[1] > bound for form_key in keys.values()):
            bad.append((graph_id, "a proper class above the bound"))
        reaching = [form for form, form_key in keys.items() if form_key[1] == bound]
        if g.n < 2 or not g.is_connected():
            continue
        if g.bipartition() is None:
            if reaching:
                bad.append((graph_id, "the bound reached with an odd cycle"))
            continue
        if max(keys.values()) != (0, bound):
            bad.append((graph_id, "a best key other than the bound"))
        if reaching != [tuple(sorted(incidence_masks(alternating_restraint(g, k))))]:
            bad.append((graph_id, "the bound reached by forms other than the alternating restraint's"))
    return bad


def bell_numbers(count: int) -> list[int]:
    """Bell(0), ..., Bell(count - 1), read off the Bell triangle."""
    bells, row = [], [1]
    for _ in range(count):
        bells.append(row[0])
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return bells


def proper_count_mismatches(graphs, k: int) -> tuple[int, list[tuple[str, int, int]]]:
    """(graphs checked, (graph6, walk count, Bell count) per mismatch): on
    each graph whose stabilizer chain has only one-element levels (a
    trivial group, so a proper class at k = 1 is a partition of V into
    independent sets), the number of proper classes enumerate_k_restraints
    lists must be sum over j of a_j * Bell(j), over the coefficients a_j of
    the chromatic polynomial (restrained_poly with empty sets): x^j is
    sum over i of S(j, i) * (x)_i, and the coefficient of (x)_i counts the
    partitions into i independent sets.  Shares no code with the walk or
    the orbits.  Defined at k = 1 only (ROADMAP item 19)."""
    if k != 1:
        raise ValueError("the Bell-number count holds at k = 1 only")
    checked, bad = 0, []
    for g in graphs:
        if any(len(level) > 1 for level in g.stabilizer_chain()):
            continue
        checked += 1
        bells = bell_numbers(g.n + 1)
        expected = sum(a * bell for a, bell in zip(restrained_poly(g, empty_restraint(g)).coeffs, bells))
        walked = len(enumerate_k_restraints(g, k, g.adjacency_masks()))
        if walked != expected:
            bad.append((to_graph6(g), walked, expected))
    return checked, bad


def a7_oracle_record(g, report):
    """The a7 verdict built the direct way: every class id of the report
    parsed back to a Restraint, properness tested edge by edge, and both
    overlap terms summed per restraint."""
    max_ids = [c.class_id() for c in report.max_classes]
    parsed = {cid: parse_restraint(cid) for cid in max_ids + list(report.max_witness)}
    proper = {cid: r for cid, r in parsed.items() if is_proper(g, r)}
    terms = {cid: common_neighbor_overlap(g, r) for cid, r in proper.items()}
    pair_terms = {cid: shared_pair_overlap(g, r) for cid, r in proper.items()}
    minimum = min(terms.values())
    attaining = sorted(cid for cid, t in terms.items() if t == minimum)
    return {
        "ok": set(max_ids) <= set(attaining), "proper_class_count": len(proper), "min_term": minimum,
        "attaining": attaining, "unique": len(attaining) == 1,
        "pair_terms": {cid: pair_terms[cid] for cid in attaining}, "pair_term_min": min(pair_terms.values()),
        "max_classes": sorted(max_ids),
    }


def a7_mismatches(graphs, k: int, store: bool = False) -> list:
    """(graph6, what) for each graph whose a7 verdict, read from the theorem
    search, differs from a7_oracle_record of the full report, or on which
    some class's properness (is_proper on its parsed id) disagrees with
    "max winner, or max witness of degree below n - 2" (the best key has
    I2 = 0, so a class is improper exactly when its gap to the best is read
    off I2, at degree n - 2: extremal._gap).  With store, each full search
    is also written to a temporary results store and read back, and the
    report read is checked the same way."""
    bad = []
    with tempfile.TemporaryDirectory() if store else contextlib.nullcontext() as results_dir:
        for g in graphs:
            if results_dir is None:
                reports = [("fresh", find_extremal(g, k))]
            else:
                reports = [(source, load_or_compute_extremal(g, k, results_dir)) for source in ("fresh", "stored")]
            verdict = extremal._a7_check(g, k, extremal.theorem_search(g, k))
            for source, report in reports:
                if verdict != a7_oracle_record(g, report):
                    bad.append((report.graph_id, f"{source} a7 verdict"))
                if not all(is_proper(g, c.representative) for c in report.max_classes):
                    bad.append((report.graph_id, f"{source} improper winner"))
                bad += [(report.graph_id, f"{source} properness of {cid}") for cid, (degree, _) in
                        report.max_witness.items() if is_proper(g, parse_restraint(cid)) != (degree < g.n - 2)]
    return bad


def tie_break_mismatches(graphs, k: int) -> tuple[int, list]:
    """(tied sides, mismatches): each side on which two or more classes tie
    the extreme dominance key is re-decided from subgraph_expansion, which
    shares no code with the engine: the winners are the tied canons, in
    canon order, whose expansion is extreme from the top coefficient down.
    A mismatch (graph6, what) is a side whose find_extremal winners or
    polynomial differ, or a max side whose theorem_search winners do."""
    tied_sides, bad = 0, []
    for g in graphs:
        report, found = find_extremal(g, k), extremal.theorem_search(g, k)
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


TIER1, CI = "tier-1", "CI"


class Run(NamedTuple):
    """One row of RUNS: oracle(graphs_named(inputs), k) must equal expected."""
    oracle: Callable
    inputs: str
    k: int | None
    expected: object
    tier: str

    @property
    def name(self) -> str:
        return getattr(self.oracle, "func", self.oracle).__name__

    def __str__(self) -> str:
        options = "".join(f", {key}={value}" for key, value in getattr(self.oracle, "keywords", {}).items())
        return f"{self.name}({self.inputs}, k={self.k}{options})"

    def result(self):
        return self.oracle(graphs_named(self.inputs), self.k)


RUNS = [
    Run(unpruned_catalog_mismatches, "connected_catalog(6)", None, [], TIER1),
    Run(unpruned_catalog_mismatches, "connected_catalog(7)", None, [], CI),
    Run(labelling_mismatches, "connected_catalog(6)", None, [], TIER1),
    Run(labelling_mismatches, "connected_bipartite_catalog(7)", None, [], TIER1),
    Run(labelling_mismatches, "connected_catalog(8)", None, [], CI),
    Run(labelling_mismatches, "connected_bipartite_catalog(9)", None, [], CI),
    Run(automorphism_mismatches, "connected_catalog(6) + FPpC?", None, [], TIER1),
    Run(automorphism_mismatches, "connected_catalog(7)", None, [], CI),
    # tier-1 has the symmetric workload's graphs; CI has groups of 5,040 to
    # 40,320 elements (K7, K3,7, K8), several blocks at k = 2 (K2,5's 240)
    # and one (C7's 14)
    Run(orbit_mismatches, "connected_catalog(6)", 1, [], TIER1),
    Run(orbit_mismatches, "connected_catalog(5)", 2, [], TIER1),
    Run(orbit_mismatches, "K6 + S6 + K2,5 + K3,4", 1, [], TIER1),
    Run(orbit_mismatches, "K5 + S4", 2, [], TIER1),
    Run(orbit_mismatches, "connected_catalog(7)", 1, [], CI),
    Run(orbit_mismatches, "K3,7 + K8", 1, [], CI),
    Run(orbit_mismatches, "K7 + K2,5 + C7", 2, [], CI),
    # the visits at k = 1 are Bell numbers
    Run(walk_faults, "edgeless_graphs(7)", 1, (1_156, []), TIER1),
    Run(walk_faults, "E8", 1, (4_140, []), TIER1),
    Run(walk_faults, "edgeless_graphs(4)", 2, (160, []), TIER1),
    Run(walk_faults, "E5", 2, (1_750, []), TIER1),
    Run(walk_faults, "edgeless_graphs(4)", 3, (907, []), TIER1),
    Run(walk_faults, "edgeless_graphs(3)", 4, (88, []), TIER1),
    Run(walk_faults, "E6", 2, (29_388, []), CI),
    Run(walk_faults, "E5", 3, (35_775, []), CI),
    Run(walk_faults, "E4", 4, (4_079, []), CI),
    # past what the sweep lists: the Polya-de Bruijn counts (ROADMAP item 5)
    Run(walk_repeats, "E4", 5, (15_791, 0), CI),
    Run(walk_repeats, "E4", 6, (52_450, 0), CI),
    Run(walk_repeats, "E5", 4, (507_549, 0), CI),
    Run(partial(walk_repeats, keep_classes=False), "E6", 3, (2_406_208, None), CI),
    Run(filtered_walk_faults, "labelled_graphs(4) + all_connected_graphs(5)", 1, [], TIER1),
    Run(filtered_walk_faults, "labelled_graphs(4)", 2, [], TIER1),
    # FPpC? and EZq? have trivial groups, so their classes skip the orbit step
    Run(class_id_mismatches, "connected_catalog(6)", 1, [], TIER1),
    Run(class_id_mismatches, "connected_catalog(4)", 2, [], TIER1),
    Run(class_id_mismatches, "C4 + P4", 3, [], TIER1),
    Run(class_id_mismatches, "E0", 1, [], TIER1),
    Run(class_id_mismatches, "C10", 1, [], CI),
    Run(class_id_mismatches, "P5", 3, [], CI),
    Run(class_id_mismatches, "FPpC?", 1, [], CI),
    Run(class_id_mismatches, "EZq?", 2, [], CI),
    Run(catalog_coefficient_mismatches, "connected_catalog(6)", 2, [], TIER1),
    Run(catalog_coefficient_mismatches, "connected_catalog(7)", 2, [], CI),
    Run(catalog_expansion_mismatches, "connected_catalog(5)", 3, [], TIER1),
    Run(catalog_expansion_mismatches, "connected_catalog(6)", 3, [], CI),
    Run(sparse_expansion_mismatches, "sparse_queries(13)", None, [], TIER1),
    Run(sparse_expansion_mismatches, "sparse_queries(15)", None, [], CI),
    Run(dominance_key_mismatches, "connected_catalog(6)", 1, [], TIER1),
    Run(dominance_key_mismatches, "connected_catalog(5)", 2, [], TIER1),
    Run(dominance_key_mismatches, "P8 + C8", 1, [], TIER1),
    Run(dominance_key_mismatches, "connected_catalog(7)", 1, [], CI),
    Run(dominance_key_mismatches, "connected_bipartite_catalog(6)", 2, [], CI),
    # one table per (X, W): restraints with different colour counts share no values
    Run(catalog_memo_stats, "connected_catalog(6)", 1, {"hits": 189_883, "misses": 151_727, "peak_entries": 151_727},
        CI),
    Run(theorem_search_mismatches, "connected_catalog(6)", 1, [], TIER1),
    Run(theorem_search_mismatches, "connected_catalog(5)", 2, [], TIER1),
    Run(theorem_search_mismatches, "connected_catalog(4)", 3, [], TIER1),
    Run(theorem_search_mismatches, "labelled_graphs(4)", 1, [], TIER1),
    Run(theorem_search_mismatches, "labelled_graphs(4)", 2, [], TIER1),
    Run(theorem_search_mismatches, "connected_catalog(7)", 1, [], CI),
    Run(theorem_search_mismatches, "connected_catalog(6)", 2, [], CI),
    Run(theorem_search_mismatches, "connected_bipartite_catalog(8)", 1, [], CI),
    Run(theorem_search_mismatches, "connected_catalog(5)", 3, [], CI),
    # the bound that makes the bipartite theorem search a constant (72 of the
    # 996 graphs of connected_catalog(7) are bipartite, K1 among them); the CI
    # rows cover the graphs that `verify --theorem bipartite` checks in CI up
    # to n = 9 (connected_bipartite_catalog(10) at k = 1 gives [] in 95-100 s
    # on a 2-core box); K1,9's group is over AUTOMORPHISM_BUDGET
    Run(key_bound_faults, "connected_catalog(6)", 1, [], TIER1),
    Run(key_bound_faults, "connected_catalog(5)", 2, [], TIER1),
    Run(key_bound_faults, "K1,9", 1, [], TIER1),
    Run(key_bound_faults, "connected_catalog(7)", 1, [], CI),
    Run(key_bound_faults, "connected_catalog(7)", 2, [], CI),
    Run(key_bound_faults, "connected_bipartite_catalog(9)", 1, [], CI),
    Run(key_bound_faults, "connected_catalog(5)", 3, [], CI),
    # the trivial-group graphs (FPpC? among them), whose proper classes at
    # k = 1 are counted by Bell numbers (ROADMAP item 19)
    Run(proper_count_mismatches, "connected_catalog(7)", 1, (153, []), TIER1),
    Run(proper_count_mismatches, "connected_catalog(8)", 1, (3_705, []), CI),
    # a store row checks the fresh report, as a plain row does, and then the one read back
    Run(partial(a7_mismatches, store=True), "connected_catalog(6)", 1, [], TIER1),
    Run(partial(a7_mismatches, store=True), "connected_catalog(5)", 2, [], TIER1),
    Run(a7_mismatches, "connected_catalog(7)", 1, [], CI),
    Run(a7_mismatches, "connected_bipartite_catalog(6)", 2, [], CI),
    Run(tie_break_mismatches, "connected_catalog(6)", 1, (15, []), TIER1),
    Run(tie_break_mismatches, "connected_catalog(5)", 2, (9, []), TIER1),
    Run(tie_break_mismatches, "C9", 1, (1, []), TIER1),
    Run(tie_break_mismatches, "connected_catalog(7)", 1, (198, []), CI),
    Run(tie_break_mismatches, "connected_catalog(6)", 2, (68, []), CI),
    Run(tie_break_mismatches, "C11", 1, (1, []), CI),
]


def main(names: list[str]) -> int:
    """Run the CI rows of the oracles named, printing each row, its result
    (cut to 300 characters) and its seconds: exit 1 if a result is not the
    expected one, 2 if a name has no CI row."""
    if not names or set(names) - {run.name for run in RUNS if run.tier == CI}:
        print(f"error: no CI rows for some of {names}", file=sys.stderr)
        return 2
    failed = 0
    for run in (run for run in RUNS if run.tier == CI and run.name in names):
        start = time.perf_counter()
        got = run.result()
        verdict = "ok" if got == run.expected else f"FAILED, expected {run.expected!r}"
        print(f"{run}: {repr(got)[:300]} in {time.perf_counter() - start:.1f} s, {verdict}", flush=True)
        failed += got != run.expected
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
