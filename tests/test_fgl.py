"""Formal group law of geometric cobordisms: univariate series, the
exponential and the addition law. fgl computes on packed exponents; the
reference ring (tests/reference.py) builds the same series by products of
truncated series and checks the law's axioms."""

import pytest

from torigen import fgl
from torigen.fgl import fgl_addition

from reference import (GradedSeries, RingPoly, _univariate, addition_law, apply_series, exp_series, log_series,
                       multi_bracket, substitute_series, xvars)


def texts(coeffs, prefix="a"):
    return [c.canonical_text(prefix) for c in coeffs]


@pytest.mark.parametrize("order", range(1, 11))
def test_exp_series_reverts_log_series(order):
    # g(e(y)) = y and e(g(y)) = y, by products of truncated series
    ar = xvars(1, "y")
    g, e = log_series(order), exp_series(order)
    y = _univariate(ar, order, [0, 1], 0)
    assert apply_series(g, _univariate(ar, order, e, 0)) == y
    assert apply_series(e, _univariate(ar, order, g, 0)) == y


@pytest.mark.parametrize("order", range(1, 13))
def test_packed_series_match_the_reference_ring(order):
    assert [fgl.unpack(c, order) for c in fgl.log_series(order)] == list(log_series(order))
    assert [fgl.unpack(c, order) for c in fgl.exp_series(order)] == list(exp_series(order))


def test_exp_series_values():
    assert fgl.unpack(fgl.exp_series(5)[5], 5).canonical_text("b") == "14*b1^4 - 21*b1^2*b2 + 6*b1*b3 + 3*b2^2 - b4"


@pytest.mark.parametrize("order", range(1, 13))
def test_addition_law_matches_series_products(order):
    # g^{-1}(g(u1) + g(u2)) by products of truncated series in u1, u2
    assert fgl_addition(order) == addition_law(order)


def test_addition_law_low_terms():
    law = GradedSeries(xvars(2, "u"), 3, fgl_addition(3))
    one = RingPoly.const(1)
    assert law.coeff((1, 0)) == one
    assert law.coeff((0, 1)) == one
    assert law.coeff((2, 0)).is_zero()
    assert law.coeff((1, 1)) == RingPoly.gen(1) * -2
    g = RingPoly.gen
    assert law.coeff((2, 1)) == g(1) ** 2 * 4 - g(2) * 3
    assert law.coeff((1, 2)) == law.coeff((2, 1))


def test_power_system_values():
    # [w](u) = g^{-1}(w g(u)), from the reference logarithm and exponential
    ar = xvars(1, "u")
    two = multi_bracket((2,), 3, ar)
    assert texts([two.coeff((m,)) for m in range(4)], "b") == ["0", "2", "-2*b1", "8*b1^2 - 6*b2"]
    one = multi_bracket((1,), 4, ar)
    assert texts([one.coeff((m,)) for m in range(5)], "b") == ["0", "1", "0", "0", "0"]


def test_bracket_inverse_law():
    # F(u, [-1](u)) = 0
    ar = xvars(1, "u")
    order = 5
    law = GradedSeries(xvars(2, "u"), order, fgl_addition(order))
    u = GradedSeries(ar, order, {(1,): RingPoly.const(1)})
    minus = multi_bracket((-1,), order, ar)
    assert substitute_series(law, [u, minus], ar, order).is_zero()
