"""Formal group law of geometric cobordisms: univariate series, the
exponential and the addition law."""

import pytest

from torigen.cobordism import CobordismPoly
from torigen.exactalg import xvars
from torigen.fgl import (
    BadLeadingTerm,
    exp_series,
    fgl_addition,
    log_series,
    reverse_series,
    series_compose,
    series_mul,
)

from reference import GradedSeries, _univariate, apply_series, multi_bracket, substitute_series


def texts(coeffs, prefix="a"):
    return [c.canonical_text(prefix) for c in coeffs]


def _flat(cs):
    return [c.coeff(()) if isinstance(c, CobordismPoly) else c for c in cs]


def test_series_mul_and_compose():
    one = CobordismPoly.const(1)
    # (1 + u)^2 = 1 + 2u + u^2
    assert _flat(series_mul([one, one], [one, one], 2)) == [1, 2, 1]
    # compose u/(1-u) with itself: u/(1-2u)
    geo = [CobordismPoly(), one, one, one, one]
    assert _flat(series_compose(geo, geo, 4)) == [0, 1, 2, 4, 8]


def test_reverse_series_inverts_composition():
    one = CobordismPoly.const(1)
    g = [CobordismPoly(), one, CobordismPoly.gen(1), CobordismPoly.gen(2)]
    rev = reverse_series(g, 3)
    back = series_compose(g, rev, 3)
    assert all(c == 0 for c in _flat(back[2:]))
    assert back[1] == one
    with pytest.raises(BadLeadingTerm):
        reverse_series([one, one], 2)


def test_exp_series_values():
    assert texts(exp_series(5), "b")[5] == "14*b1^4 - 21*b1^2*b2 + 6*b1*b3 + 3*b2^2 - b4"


@pytest.mark.parametrize("order", range(1, 11))
def test_addition_law_matches_series_products(order):
    # g^{-1}(g(u1) + g(u2)) by products of truncated series in u1, u2
    ar = xvars(2, "u")
    g = log_series(order)
    s = _univariate(ar, order, g, 0) + _univariate(ar, order, g, 1)
    assert fgl_addition(order) == apply_series(exp_series(order), s).terms


def test_addition_law_low_terms():
    law = GradedSeries(xvars(2, "u"), 3, fgl_addition(3))
    one = CobordismPoly.const(1)
    assert law.coeff((1, 0)) == one
    assert law.coeff((0, 1)) == one
    assert law.coeff((2, 0)).is_zero()
    assert law.coeff((1, 1)) == CobordismPoly.gen(1) * -2
    g = CobordismPoly.gen
    assert law.coeff((2, 1)) == g(1) ** 2 * 4 - g(2) * 3
    assert law.coeff((1, 2)) == law.coeff((2, 1))


def test_power_system_values():
    # [w](u) = g^{-1}(w g(u)), from the fgl verb's logarithm and exponential
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
    u = GradedSeries(ar, order, {(1,): CobordismPoly.const(1)})
    minus = multi_bracket((-1,), order, ar)
    assert substitute_series(law, [u, minus], ar, order).is_zero()
