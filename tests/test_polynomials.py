from functools import reduce
from itertools import combinations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restchroma import IntPolynomial, elementary_symmetric
from conftest import poly_sum


def poly(*ascending):
    return IntPolynomial(ascending)


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        assert poly(1, 2, 0, 0).coeffs == (1, 2)

    def test_zero_polynomial(self):
        assert poly(0, 0).coeffs == ()
        assert poly() == IntPolynomial()
        assert poly().degree == -1

    def test_negative_coefficient_index_refused(self):
        with pytest.raises(ValueError, match="coefficient index must be nonnegative"):
            poly(1, 2).coefficient(-1)

    def test_equal_polynomials_hash_equal(self):
        p, q = poly(2, -3, 1, 0), poly(-1, 1) * poly(-2, 1)
        assert p == q and hash(p) == hash(q)
        assert {p: "first", q: "second"} == {p: "second"}


def linear_factors(roots):
    """Product of (x - a) over roots, built with IntPolynomial's product."""
    return reduce(mul, (poly(-a, 1) for a in roots), poly(1))


class TestKernels:
    """The operators on coefficient tuples, against evaluation."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), max_size=5).map(IntPolynomial),
        st.lists(st.integers(-9, 9), max_size=7).map(IntPolynomial),
    )
    def test_kernels_match_evaluation(self, p, q):
        diff, prod = p - q, p * q
        for out in (diff, prod):
            assert not out.coeffs or out.coeffs[-1] != 0
        # eleven points pin down every degree here, the product's 10 included
        for x in range(-5, 6):
            assert diff.evaluate(x) == p.evaluate(x) - q.evaluate(x)
            assert prod.evaluate(x) == p.evaluate(x) * q.evaluate(x)


class TestArithmetic:
    def test_product(self):
        assert poly(-1, 1) * poly(-2, 1) == poly(2, -3, 1)

    def test_self_difference_is_zero(self):
        p = poly(2, -3, 1)
        assert (p - p).coeffs == ()

    def test_multiplicative_identity(self):
        p = poly(2, -3, 1)
        assert p * poly(1) == p

    def test_int_scaling(self):
        assert poly(3) * poly(1, 1) == poly(3, 3)
        assert poly(1, 1) * poly() == poly()


class TestEvaluation:
    def test_cubic_at_four(self):
        # equals (4-1)(4-2)(4-3) from the factored form
        assert poly(-6, 11, -6, 1).evaluate(4) == 6

    def test_at_zero_gives_constant(self):
        assert poly(-6, 11, -6, 1).evaluate(0) == -6

    def test_zero_polynomial_everywhere_zero(self):
        assert poly().evaluate(17) == 0


class TestCompareEventually:
    """p(x) > q(x) for every large enough x exactly when (p - q).leading > 0."""

    def test_equal(self):
        p = poly(2, -3, 1)
        assert (p - p).leading == 0

    def test_cycle_fixture_ordering(self):
        # the three 3-cycle polynomials, built from their factored forms
        r1 = linear_factors([1, 2, 3])
        r2 = poly(-2, 1) * poly(5, -4, 1)
        r3 = poly_sum(poly(2) * poly(-2, 1) * poly(-2, 1), poly(-2, 1) * poly(-3, 1), poly(-3, 1) * poly(-3, 1) * poly(-3, 1))
        assert (r3 - r1).leading > 0
        assert (r2 - r1).leading > 0
        assert (r3 - r2).leading > 0

    def test_seven_cycle_fixture_ordering(self):
        p1 = poly(-581, 1333, -1404, 879, -353, 91, -14, 1)
        p2 = poly(-600, 1352, -1411, 880, -353, 91, -14, 1)
        assert (p2 - p1).leading > 0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-9, 9), max_size=5), st.lists(st.integers(-9, 9), max_size=5))
    def test_consistent_with_sampled_evaluation(self, a, b):
        p, q = IntPolynomial(a), IntPolynomial(b)
        d = p - q
        if p == q:
            assert d.coeffs == ()
            return
        big = max(abs(c) for c in d.coeffs)
        x = 10 * (d.degree + 1) * (1 + big)
        gap = p.evaluate(x) - q.evaluate(x)
        assert gap != 0 and (gap > 0) == (d.leading > 0)


class TestElementarySymmetric:
    def test_first(self):
        assert elementary_symmetric([1, 1, 2], 1) == 4

    def test_zeroth_is_one(self):
        assert elementary_symmetric([5, 7, 9], 0) == 1
        assert elementary_symmetric([], 0) == 1

    def test_second(self):
        # 1*1 + 1*2 + 1*2
        assert elementary_symmetric([1, 1, 2], 2) == 5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            elementary_symmetric([1, 2], 3)
        with pytest.raises(ValueError):
            elementary_symmetric([1, 2], -1)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-6, 6), max_size=7), st.integers(0, 7))
    def test_against_subset_enumeration(self, values, i):
        if i > len(values):
            return
        brute = 0
        for subset in combinations(values, i):
            prod = 1
            for v in subset:
                prod *= v
            brute += prod
        assert elementary_symmetric(values, i) == brute

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 5), max_size=6))
    def test_root_product_expansion(self, sizes):
        # prod (x - a) expands with alternating symmetric-function coefficients
        n = len(sizes)
        p = linear_factors(sizes)
        for i in range(n + 1):
            expected = (-1) ** (n - i) * elementary_symmetric(sizes, n - i)
            assert p.coefficient(i) == expected


class TestRendering:
    def test_human_descending(self):
        assert str(poly(-6, 11, -6, 1)) == "x^3 - 6x^2 + 11x - 6"
        assert str(poly(16, -28, 20, -7, 1)) == "x^4 - 7x^3 + 20x^2 - 28x + 16"
        assert str(poly(0, -3, 0, 1)) == "x^3 - 3x"
        assert str(poly()) == "0"
        assert str(poly(-13,)) == "-13"
        assert str(poly(0, -1)) == "-x"

    def test_repr_evaluates_to_an_equal_polynomial(self):
        p = poly(1, -2, 1)
        assert repr(p) == "IntPolynomial([1, -2, 1])"
        assert eval(repr(p)) == p

    def test_vector_str(self):
        assert poly(-6, 11, -6, 1).vector_str() == "[-6, 11, -6, 1]"
