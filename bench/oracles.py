"""Correctness oracles for benchmark outputs, independent of the code under test.

Every check returns a list of problems (empty when the output is right) and
never raises for a wrong answer, so a failed check marks one operation as
failed without stopping the run.  The checks use only the closed-form
coefficients, the brute-force colouring counter, the brute-force class
counter below and constants that ``test_bench.py`` re-derives with it.
"""

from __future__ import annotations

from itertools import permutations

# Oracle budget for count_colourings, in x**n leaves.  The check is chosen by
# this count rather than by the counter's own vertex cap, so the counter's
# budget gap below n = 9 never decides which outputs get checked.
LEAF_LIMIT = 20_000

# Restraint classes per (graph, k); invariant under vertex relabelling.  The
# ROADMAP values plus the symmetric-workload graphs, all re-derived by
# count_classes in the tests.
CLASS_COUNTS = {
    ("C7", 1): 93,
    ("C8", 1): 354,
    ("P8", 1): 2152,
    ("P5", 2): 938,
    ("C5", 2): 240,
    ("K2,3", 2): 277,
    ("K6", 1): 11,
    ("S6", 1): 30,
    ("K2,5", 1): 47,
    ("K3,4", 1): 57,
    ("K5", 2): 66,
    ("S4", 2): 171,
}

# Connected graphs on n = 1..6 vertices up to isomorphism (OEIS A001349) and
# the connected bipartite ones (OEIS A005142).
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112)
CONNECTED_BIPARTITE_COUNTS = (1, 1, 1, 3, 5, 17)

# Total restraint classes over each verify catalog, as (catalog, n_max, k).
# The verify workload counts these as the classes its verifiers decide.
CATALOG_CLASS_TOTALS = {
    ("connected", 5, 1): 580,
    ("connected", 4, 2): 365,
    ("bipartite", 6, 1): 1492,
}


def check_poly(g, r, p, coeff_n1, coeff_n2, coeff_n3, count_colourings) -> list[str]:
    """Check a restrained polynomial against its shape and the closed forms.

    It must be monic of degree n, alternate in sign, and carry the closed-form
    x^(n-1), x^(n-2) and x^(n-3) coefficients.  Where the leaf count m**n is
    within LEAF_LIMIT, its value at x = m_value must equal the brute-force
    count.  The engine functions are passed in so that this module imports
    nothing from the package.
    """
    n = g.n
    problems = []
    if p.degree != n or p.leading != 1:
        problems.append(f"not monic of degree {n}: degree {p.degree}, leading {p.leading}")
        return problems
    for i in range(n + 1):
        if p.coefficient(i) * (-1) ** (n - i) < 0:
            problems.append(f"coefficient of x^{i} breaks the sign alternation")
            break
    expected = {n - 1: coeff_n1(g, r)}
    if n >= 2:
        expected[n - 2] = coeff_n2(g, r)
    if n >= 3:
        expected[n - 3] = coeff_n3(g, r).a_n_3
    for i, a in expected.items():
        if p.coefficient(i) != (-1) ** (n - i) * a:
            problems.append(f"coefficient of x^{i} is {p.coefficient(i)}, closed form gives {(-1) ** (n - i) * a}")
    m = r.m_value()
    if m ** n <= LEAF_LIMIT:
        count = count_colourings(g, r, m)
        if p.evaluate(m) != count:
            problems.append(f"value {p.evaluate(m)} at x={m} differs from brute-force count {count}")
    return problems


def check_class_count(want: int, got: int) -> list[str]:
    return [] if got == want else [f"{got} classes, expected {want}"]


def check_catalog_sizes(orders, expected) -> list[str]:
    """orders: vertex count of each catalog graph; expected: counts for n = 1, 2, ..."""
    got = tuple(sum(1 for n in orders if n == i + 1) for i in range(len(expected)))
    return [] if got == tuple(expected) else [f"catalog sizes {got}, expected {tuple(expected)}"]


# -- brute-force class counting ----------------------------------------------------


def brute_automorphisms(n: int, edges) -> list[tuple[int, ...]]:
    edge_set = {frozenset(e) for e in edges}
    return [
        p for p in permutations(range(n))
        if all(frozenset((p[u], p[v])) in edge_set for u, v in edge_set)
    ]


def _covers(n: int, k: int):
    """Multisets of nonempty vertex masks (nondecreasing) covering every vertex k times."""
    full = (1 << n) - 1
    chosen: list[int] = []

    def rec(need: list[int], start: int):
        if not any(need):
            yield tuple(chosen)
            return
        open_mask = sum(1 << v for v in range(n) if need[v])
        for mask in range(start, full + 1):
            if mask & ~open_mask:
                continue
            for v in range(n):
                if mask >> v & 1:
                    need[v] -= 1
            chosen.append(mask)
            yield from rec(need, mask)
            chosen.pop()
            for v in range(n):
                if mask >> v & 1:
                    need[v] += 1

    yield from rec([k] * n, 1)


def count_classes(n: int, edges, k: int) -> int:
    """Restraint classes by brute force.

    A k-restraint up to colour renaming is the multiset of its colour
    incidence masks, each vertex lying in exactly k of them; two are
    equivalent when an automorphism maps one multiset onto the other.
    """
    autos = brute_automorphisms(n, edges)
    tables = [[sum(1 << p[v] for v in range(n) if m >> v & 1) for m in range(1 << n)] for p in autos]
    return len({min(tuple(sorted(t[m] for m in cover)) for t in tables) for cover in _covers(n, k)})
