import random
from itertools import combinations, zip_longest

import pytest

from restchroma import Graph, IntPolynomial, Restraint, cycle_graph, extremal, path_graph


@pytest.fixture(autouse=True)
def fresh_search_memo(monkeypatch):
    """Each test starts with an empty theorem-search memo, as a new process
    does, so a search counted or patched in one test is never served from
    another's."""
    monkeypatch.setattr(extremal, "_SEARCHES", extremal._SearchMemo())


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
