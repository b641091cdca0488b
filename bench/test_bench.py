"""Tests of the benchmark's own helpers: python3 -m pytest -q bench"""

import dataclasses
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from restchroma import (  # noqa: E402
    Graph,
    IntPolynomial,
    coeff_n1,
    coeff_n2,
    coeff_n3,
    connected_bipartite_catalog,
    connected_catalog,
    count_colourings,
    find_extremal,
    from_name,
    is_isomorphic,
    parse_restraint,
    restrained_poly,
)

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from stats import TAIL_SAMPLES, tail_percentile  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

ENGINE = (coeff_n1, coeff_n2, coeff_n3, count_colourings)


# -- percentile rule -----------------------------------------------------------


def test_p90_when_enough_samples():
    assert tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert tail_percentile(list(range(1, 1001))) == (90.0, 900)


def test_percentile_lowered_to_keep_ten_samples_beyond():
    percentile, value = tail_percentile(list(range(1, 31)))
    assert value == 20
    assert percentile == pytest.approx(200 / 3)


def test_always_ten_samples_beyond():
    for n in range(TAIL_SAMPLES + 1, 260):
        samples = random.Random(n).sample(range(10 * n), n)
        _, value = tail_percentile(samples)
        assert sum(1 for s in samples if s > value) >= TAIL_SAMPLES, n


def test_too_few_samples_rejected():
    with pytest.raises(ValueError):
        tail_percentile(list(range(TAIL_SAMPLES)))


# -- span self time ------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        ["op", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["b", 5.0, 7.0, 0, 0],
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_store_spans_split_into_write_and_read():
    t = Tracer()
    t.spans = [
        ["op", 0.0, 10.0, None, 0],
        ["extremal.store", 0.0, 10.0, 0, 0],
        ["extremal.search", 1.0, 9.0, 1, 0],
        ["engine.poly", 2.0, 5.0, 2, 0],
        ["op", 10.0, 12.0, None, 1],
        ["extremal.store", 10.0, 11.5, 4, 1],
        ["graphs.automorphisms", 10.5, 11.0, 5, 1],
    ]
    layers = t.layer_metrics()
    assert layers["extremal.store_write_s"] == 2.0
    assert layers["extremal.store_read_s"] == 1.0
    assert layers["extremal.self_s"] == 5.0
    assert layers["engine.poly_s"] == 3.0
    assert layers["graphs.automorphisms_s"] == 0.5


# -- host speed adjustment ----------------------------------------------------


def test_adjusted_scales_by_the_probes_around_the_interval():
    n = hostspeed.PROBE_NOMINAL_S
    # the host runs at half the reference speed: every probe takes 2n
    samples = [(0.0, 2 * n), (10.0, 10 + 2 * n), (20.0, 20 + 2 * n)]
    # the probes inside the interval are not busy time of the op
    assert hostspeed.adjusted(samples, n, 20 + n) == pytest.approx((20 - 4 * n) / 2)
    # between two probes, the nearest one on either side sets the speed
    assert hostspeed.adjusted(samples, 11.0, 12.0) == pytest.approx(0.5)


def test_adjusted_averages_the_speed_over_the_window():
    n = hostspeed.PROBE_NOMINAL_S
    samples = [(0.0, n), (10.0, 10 + 3 * n)]
    assert hostspeed.adjusted(samples, 1.0, 9.0) == pytest.approx(8.0 / 2)
    assert hostspeed.slowness(samples) == pytest.approx(2.0)


# -- oracles -----------------------------------------------------------------------


def test_poly_oracle_accepts_the_engine_and_rejects_a_perturbation():
    g = from_name("C5")
    r = parse_restraint("[{1},{2},{1},{2},{3}]")
    p = restrained_poly(g, r)
    assert oracles.check_poly(g, r, p, *ENGINE) == []
    for i in range(g.n + 1):
        coeffs = list(p.coeffs)
        coeffs[i] += 1
        assert oracles.check_poly(g, r, IntPolynomial(coeffs), *ENGINE), f"x^{i} perturbation accepted"


def test_poly_oracle_counts_where_the_leaf_count_allows():
    g = from_name("P4")
    r = parse_restraint("[{1},{2},{1},{2}]")
    p = restrained_poly(g, r)
    coeffs = list(p.coeffs)
    coeffs[0] += 2
    # same top coefficients, shape and signs: only the brute-force count catches it
    problems = oracles.check_poly(g, r, IntPolynomial(coeffs), *ENGINE)
    assert len(problems) == 1 and "brute-force count" in problems[0]


def test_class_count_oracle_rejects_a_wrong_count():
    c8 = from_name("C8")
    report = find_extremal(c8, 1)
    assert workloads.check_report(c8, 1, "C8", report) == []
    assert workloads.check_report(c8, 1, "C8", dataclasses.replace(report, class_count=353)) != []
    # an unnamed graph is checked against the brute-force count
    tree = Graph(workloads.RANDOM_N, workloads.random_connected_edges(random.Random(0), workloads.RANDOM_N, 6))
    report = find_extremal(tree, 1)
    assert workloads.check_report(tree, 1, None, report) == []
    assert workloads.check_report(tree, 1, None, dataclasses.replace(report, class_count=report.class_count + 1)) != []


def test_asymmetric_7_7_graphs():
    gs = [Graph(workloads.RANDOM_N, edges) for edges in workloads.ASYMMETRIC_7_7]
    for g in gs:
        assert g.is_connected() and g.m == 7 and len(g.automorphisms()) == 1
    assert not any(is_isomorphic(g, h) for i, g in enumerate(gs) for h in gs[i + 1:])


def test_catalog_size_oracle():
    assert oracles.check_catalog_sizes([1, 2, 3, 3], (1, 1, 2)) == []
    assert oracles.check_catalog_sizes([1, 2, 3], (1, 1, 2)) != []


@pytest.mark.parametrize("name,k", list(oracles.CLASS_COUNTS))
def test_class_counts_match_brute_force(name, k):
    g = from_name(name)
    assert oracles.count_classes(g.n, g.edges, k) == oracles.CLASS_COUNTS[(name, k)]


def test_catalog_class_totals_match_brute_force():
    catalogs = {"connected": connected_catalog, "bipartite": connected_bipartite_catalog}
    for (kind, n_max, k), total in oracles.CATALOG_CLASS_TOTALS.items():
        graphs = catalogs[kind](n_max)
        assert sum(oracles.count_classes(g.n, g.edges, k) for g in graphs) == total
