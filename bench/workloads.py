"""The benchmark workloads: seeded inputs, the timed call of each op, its oracle
check and the output record that goes into the digest.

Each workload is a closed loop with one client: the runner starts an op when
the previous one has returned.  The seed relabels the vertices of every graph
handed to the package and draws the random inputs; each pass of a run gets
its own inputs from (seed, pass index).  Every op gets Graph objects of its
own, so no op finds an automorphism group cached by an earlier one.  Calls
look the package functions up on their modules at call time, so the traced
passes see the wrappers that tracing.install() puts there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from restchroma import engine, extremal, graphs
from restchroma.restraints import Restraint, render_restraint

import oracles

# Named graphs of the ROADMAP baseline: many classes on sparse graphs, so the
# polynomial stage and the store dominate.
EXTREMAL_GRAPHS = [("C7", 1), ("C8", 1), ("P8", 1), ("P5", 2), ("C5", 2), ("K2,3", 2)]
# Unnamed graphs at k = 1 (random 8-vertex graphs take 3-30 s): the three
# connected 7-vertex, 7-edge graphs with no nontrivial automorphism, up to
# isomorphism (3 of the 33 unicyclic graphs, OEIS A001429).  Each pass takes
# every one under a seeded relabelling, so that the seed changes labels but
# not which graphs a pass holds.  All have Bell(7) = 877 classes and take
# 0.4-0.7 s: that keeps the class throughput steady, and the op latency
# median falls inside their group instead of on a gap between the named graphs.
RANDOM_N = 7
ASYMMETRIC_7_7 = [
    [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (3, 6)],
    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (3, 6)],
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 5), (5, 6)],
]
# Large automorphism groups: few classes, many candidates x |Aut|, so
# enumeration dominates.
SYMMETRIC_GRAPHS = [("K6", 1), ("S6", 1), ("K2,5", 1), ("K3,4", 1), ("K5", 2), ("S4", 2)]
# (catalog, n_max, k, theorems) in the order `restchroma verify` would be run.
VERIFY_PLAN = [
    ("bipartite", 6, 1, ("bipartite",)),
    ("connected", 5, 1, ("min", "proper", "a7")),
    ("connected", 4, 2, ("min",)),
]
# One restrained_poly query per op on a random connected graph with
# cyclomatic number 4: a median query takes some 25 ms here.  A pass holds
# QUERIES_PER_CELL queries for each n in QUERY_N and k in {1, 2}, in seeded
# order, so the seed changes the graphs but not the mix of sizes; 160
# queries put 16 samples beyond p90 in every pass.
QUERIES_PER_CELL, QUERY_N, QUERY_EXTRA_EDGES = 20, range(9, 13), 4


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    record: Callable[[object], object] | None
    classes: Callable[[object], int] = lambda result: 0  # restraint classes the op decided
    resume: bool = False


def relabelled(g, rng: random.Random) -> tuple[int, list]:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.n, [(perm[u], perm[v]) for u, v in sorted(g.edges)]


def random_connected_edges(rng: random.Random, n: int, m: int) -> list:
    """A random spanning tree plus m - n + 1 random further edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    rest = [e for e in combinations(range(n), 2) if e not in edges]
    return sorted(edges | set(rng.sample(rest, m - n + 1)))


def class_count(report) -> int:
    return report.class_count


def check_report(g, k: int, name: str | None, report) -> list:
    """Class count and winner polynomials; a graph without a name has its
    classes counted by brute force."""
    want = oracles.CLASS_COUNTS[(name, k)] if name else oracles.count_classes(g.n, g.edges, k)
    problems = oracles.check_class_count(want, report.class_count)
    for classes, poly in ((report.min_classes, report.min_poly), (report.max_classes, report.max_poly)):
        for cls in classes:
            problems += oracles.check_poly(
                g, cls.representative, poly,
                engine.coeff_n1, engine.coeff_n2, engine.coeff_n3, engine.count_colourings)
    return problems


def extremal_ops(rng: random.Random, workdir: str):
    inputs = [(name, k, relabelled(graphs.from_name(name), rng)) for name, k in EXTREMAL_GRAPHS]
    inputs += [(None, 1, relabelled(graphs.Graph(RANDOM_N, edges), rng)) for edges in ASYMMETRIC_7_7]
    computed: dict = {}

    def search(i, name, k, n, edges):
        g = graphs.Graph(n, edges)

        def check(report):
            computed[i] = report.to_record()
            return check_report(g, k, name, report)

        return Op(f"{name or graphs.to_graph6(g)} k={k}", lambda: extremal.load_or_compute_extremal(g, k, workdir),
                  check, extremal.ExtremalReport.to_record, class_count)

    def resume(i, name, k, n, edges):
        g = graphs.Graph(n, edges)

        def check(report):
            same = i in computed and report.to_record() == computed[i]
            return [] if same else ["the resumed report differs from the computed one"]

        return Op(f"resume {name or graphs.to_graph6(g)} k={k}",
                  lambda: extremal.load_or_compute_extremal(g, k, workdir), check, None, resume=True)

    for make in (search, resume):
        for i, (name, k, (n, edges)) in enumerate(inputs):
            yield make(i, name, k, n, edges)


def symmetric_ops(rng: random.Random, workdir: str):
    inputs = [(name, k, relabelled(graphs.from_name(name), rng)) for name, k in SYMMETRIC_GRAPHS]
    for name, k, (n, edges) in inputs:
        g = graphs.Graph(n, edges)
        yield Op(f"{name} k={k}", lambda g=g, k=k: extremal.find_extremal(g, k),
                 lambda report, g=g, name=name, k=k: check_report(g, k, name, report),
                 extremal.ExtremalReport.to_record, class_count)


def verify_ops(seed: str):
    verifiers = {
        "bipartite": lambda g, k: extremal.verify_bipartite_max([g], k).records[0],
        "min": lambda g, k: extremal.verify_min_theorem([g], k).records[0],
        "proper": lambda g, k: extremal.verify_properness([g], k).records[0],
        "a7": lambda g, k: extremal.verify_a7_condition(g, k),
    }
    for kind, n_max, k, theorems in VERIFY_PLAN:
        catalog: list = []
        if kind == "bipartite":
            build, sizes = extremal.connected_bipartite_catalog, oracles.CONNECTED_BIPARTITE_COUNTS
        else:
            build, sizes = graphs.connected_catalog, oracles.CONNECTED_COUNTS

        def run(build=build, n_max=n_max, catalog=catalog):
            catalog[:] = build(n_max)
            return catalog

        yield Op(f"{kind} catalog n<={n_max}", run,
                 lambda cat, sizes=sizes, n_max=n_max: oracles.check_catalog_sizes([g.n for g in cat], sizes[:n_max]),
                 lambda cat: [graphs.to_graph6(g) for g in cat],
                 # the classes that the verifier ops below decide over this catalog
                 lambda cat, total=oracles.CATALOG_CLASS_TOTALS[(kind, n_max, k)] * len(theorems): total)
        # The seed relabels each catalog graph the same way in every theorem
        # of the pass, so the searches of one (graph, k) stay recognisable.
        labels = [relabelled(g, random.Random(f"{seed}:{graphs.to_graph6(g)}")) for g in catalog]
        for theorem in theorems:
            for n, edges in labels:
                g = graphs.Graph(n, edges)
                yield Op(f"{theorem} k={k} {graphs.to_graph6(g)}",
                         lambda g=g, f=verifiers[theorem], k=k: f(g, k),
                         lambda rec: [] if rec.get("ok") else [f"violation: {rec}"],
                         lambda rec: rec)


def poly_ops(rng: random.Random, workdir: str):
    inputs = []
    cells = [(n, k) for n in QUERY_N for k in (1, 2)] * QUERIES_PER_CELL
    rng.shuffle(cells)
    for n, k in cells:
        edges = random_connected_edges(rng, n, n - 1 + QUERY_EXTRA_EDGES)
        inputs.append((n, edges, Restraint(rng.sample(range(1, k + 3), k) for _ in range(n))))
    for n, edges, r in inputs:
        g = graphs.Graph(n, edges)

        def record(p, g=g, r=r):
            # the object `restchroma poly --json` prints
            return {
                "graph6": graphs.to_graph6(g), "n": g.n, "m": g.m, "restraint": render_restraint(r),
                "coeffs": [str(c) for c in p.coeffs], "polynomial": str(p), "valid_from": r.m_value(),
            }

        yield Op(f"poly n={n} m={g.m}", lambda g=g, r=r: engine.restrained_poly(g, r),
                 lambda p, g=g, r=r: oracles.check_poly(
                     g, r, p, engine.coeff_n1, engine.coeff_n2, engine.coeff_n3, engine.count_colourings),
                 record, lambda p: 1)


def ops(workload: str, seed: int, pass_index: int, workdir: str):
    """The ops of one pass.  Input generation runs before the first op is yielded."""
    key = f"{seed}:{pass_index}"
    if workload == "verify":
        return verify_ops(key)
    build = {"extremal": extremal_ops, "symmetric": symmetric_ops, "poly-queries": poly_ops}[workload]
    return build(random.Random(key), workdir)

