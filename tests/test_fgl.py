"""Formal group law of geometric cobordisms: the exponential and the addition law."""

from torigen.exactalg import CobordismPoly, GradedSeries, xvars
from torigen.fgl import exp_series, fgl_addition

from reference import multi_bracket, substitute_series


def texts(coeffs, prefix="a"):
    return [c.canonical_text(prefix) for c in coeffs]


def test_exp_series_values():
    assert texts(exp_series(5), "b")[5] == "14*b1^4 - 21*b1^2*b2 + 6*b1*b3 + 3*b2^2 - b4"


def test_addition_law_low_terms():
    law = fgl_addition(3)
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
    law = fgl_addition(order, xvars(2, "u"))
    u = GradedSeries(ar, order, {(1,): CobordismPoly.const(1)})
    minus = multi_bracket((-1,), order, ar)
    assert substitute_series(law, [u, minus], ar, order).is_zero()
