"""The symbolic kernel of tests/reference.py, the oracle that the point
engine is checked against, and the coefficient ring, with the reference
graded series the formal group law is checked against."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torigen.cobordism import CobordismPoly, render_series

from reference import (
    ArenaMismatch,
    GradedSeries,
    MultiPoly,
    NotDivisible,
    RingPoly,
    cobordism_weights,
    exact_div,
    f_product_sum,
    is_homogeneous,
    permute,
    permute_series,
    substitute,
    xvars,
)


def test_multipoly_basic_arithmetic():
    ar = xvars(2)
    x, y = MultiPoly.variable(ar, 0), MultiPoly.variable(ar, 1)
    p = (x + y) * (x + y)
    assert p.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert p.canonical_text() == "x1^2 + 2*x1*x2 + x2^2"
    assert (p - p).is_zero()
    assert (x * 0).is_zero()
    assert (p * 3).coeff((1, 1)) == 6


def test_multipoly_linear_form():
    ar = xvars(3)
    form = MultiPoly.linear_form(ar, (2, -1, 0))
    assert form.terms == {(1, 0, 0): 2, (0, 1, 0): -1}


def test_reference_permute_moves_exponents():
    ar = xvars(3)
    x1 = MultiPoly.variable(ar, 0)
    x2 = MultiPoly.variable(ar, 1)
    p = x1 * x1 * x2
    # x1 -> x2, x2 -> x3, x3 -> x1
    q = permute(p, (1, 2, 0))
    assert q.terms == {(0, 2, 1): 1}


def test_reference_substitute():
    ar = xvars(2)
    x, y = MultiPoly.variable(ar, 0), MultiPoly.variable(ar, 1)
    p = x * x - y
    q = substitute(p, {0: x + y})
    assert q == x * x + 2 * x * y + y * y - y


def test_multipoly_evaluate():
    ar = xvars(2)
    x, y = MultiPoly.variable(ar, 0), MultiPoly.variable(ar, 1)
    p = x * x * Fraction(1, 2) - 3 * y + 7
    assert p.evaluate((3, 2)) == Fraction(11, 2)
    assert p.evaluate((0, 0)) == 7
    assert MultiPoly(ar).evaluate((5, 5)) == 0


def test_exact_div_and_failure():
    ar = xvars(2)
    x, y = MultiPoly.variable(ar, 0), MultiPoly.variable(ar, 1)
    assert exact_div(x * x - y * y, x - y) == x + y
    assert exact_div((x + y) * (x + y) * x, x + y) == (x + y) * x
    with pytest.raises(NotDivisible):
        exact_div(x * x + y, x - y)


def test_arena_mismatch_rejected():
    a, b = xvars(2), xvars(2, "y")
    with pytest.raises(ArenaMismatch):
        MultiPoly.variable(a, 0) + MultiPoly.variable(b, 0)


def test_cobordism_poly_normalization():
    p = RingPoly({(1, 0, 0): 2, (0, 1): 3})
    assert p.terms == {(1,): 2, (0, 1): 3}
    assert p.coeff((1, 0, 0)) == 2
    assert p.coeff((1,)) == 2
    assert RingPoly.gen(3).terms == {(0, 0, 1): 1}
    assert (p - p).is_zero()


def test_cobordism_poly_weights_and_grading():
    # weight of a^omega is sum (i+1) * omega_i
    p = RingPoly.gen(1) ** 3 + RingPoly.gen(4)
    assert cobordism_weights(p) == {3, 4}
    assert not is_homogeneous(p)
    q = RingPoly.gen(1) * RingPoly.gen(2)
    assert is_homogeneous(q, 3)


def test_cobordism_poly_division_and_integrality():
    p = RingPoly.gen(1) * 6
    half = p / 4
    assert half.terms == {(1,): Fraction(3, 2)}
    assert not half.is_integral()
    assert (p / 2).is_integral()
    assert (p / 2).terms == {(1,): 3}


def test_cobordism_canonical_text():
    g = RingPoly.gen
    p = g(1) ** 3 * 6 + g(1) * g(2) * 6 - g(3) * 6
    assert p.canonical_text() == "6*a1^3 + 6*a1*a2 - 6*a3"
    assert CobordismPoly().canonical_text() == "0"
    assert RingPoly.const(-1).canonical_text() == "-1"


def test_render_series():
    g = RingPoly.gen
    names = ("u1", "u2")
    assert render_series({}, names) == "0"
    # a bare constant first, then ascending grlex, whatever the dict order
    terms = {(1, 1): g(1) * -2, (0, 1): RingPoly.const(1),
             (1, 0): RingPoly.const(Fraction(-3, 2)), (0, 0): RingPoly.const(Fraction(1, 2)),
             (2, 1): g(1) ** 2 * 4 - g(2) * 3}
    assert render_series(terms, names, "b") == \
        "1/2 + (1)*u2 + (-3/2)*u1 + (-2*b1)*u1*u2 + (4*b1^2 - 3*b2)*u1^2*u2"
    assert render_series({(0, 0): g(1)}, names) == "a1"


def test_graded_series_truncation_in_products():
    ar = xvars(1)
    x = MultiPoly.variable(ar, 0)
    s = GradedSeries.from_multipoly(MultiPoly.const(ar, 1) + x, 3)
    cube = s * s * s
    assert cube.coeff((3,)) == RingPoly.const(1)
    assert cube.coeff((2,)) == RingPoly.const(3)
    quart = cube * s
    # order is absolute: degree 4 is dropped, not carried
    assert quart.coeff((4,)).is_zero()


def test_graded_series_permute_and_scalars():
    ar = xvars(2)
    x, y = MultiPoly.variable(ar, 0), MultiPoly.variable(ar, 1)
    s = GradedSeries.from_multipoly(x * x + y, 4)
    t = permute_series(s, (1, 0))
    assert t.coeff((0, 2)) == RingPoly.const(1)
    assert t.coeff((1, 0)) == RingPoly.const(1)
    u = s * RingPoly.gen(2) + 1
    assert u.coeff((2, 0)) == RingPoly.gen(2)
    assert u.coeff((0, 0)) == RingPoly.const(1)


# -- light randomized ring checks ---------------------------------------------

small_poly = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-9, 9),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(small_poly, small_poly, small_poly)
def test_multipoly_ring_axioms(ta, tb, tc):
    ar = xvars(2)
    a = MultiPoly(ar, dict(ta))
    b = MultiPoly(ar, dict(tb))
    c = MultiPoly(ar, dict(tc))
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(small_poly, small_poly)
def test_exact_div_recovers_factor(ta, tb):
    ar = xvars(2)
    a = MultiPoly(ar, dict(ta))
    b = MultiPoly(ar, dict(tb))
    if b.is_zero():
        return
    assert exact_div(a * b, b) == a


summand = st.tuples(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=3),
                    small_poly)


@settings(max_examples=80, deadline=None)
@given(st.lists(summand, min_size=1, max_size=3), st.integers(0, 4))
def test_f_product_sum_matches_products_of_blocks(summands, order):
    # the packed multiply and sum against MultiPoly products of the blocks
    # of each summand
    ar = xvars(2)
    zero = MultiPoly(ar)
    summands = [(weights, MultiPoly(ar, dict(t))) for weights, t in summands]
    want = {}
    for weights, times in summands:
        for om, block in f_product_sum(ar, [(weights, MultiPoly.const(ar, 1))], order).items():
            want[om] = want.get(om, zero) + block * times
    got = f_product_sum(ar, summands, order)
    assert set(got) <= set(want)
    for om, block in want.items():
        assert got.get(om, zero) == block, om


def test_f_product_sum_matches_powers_of_the_forms():
    # roots x_a - x_b, whose +-1 coefficients the kernel unrolls, and forms
    # with other coefficients, against the product of f(<w, x>) =
    # sum_k a_k <w, x>^k made from MultiPoly powers of each form
    ar = xvars(3)
    zero = MultiPoly(ar)
    weights = [(1, -1, 0), (0, -1, 1), (2, 0, -1), (-1, 0, 1), (1, 1, -1)]
    order = 4
    want = {(): MultiPoly.const(ar, 1)}
    for w in weights:
        form = MultiPoly.linear_form(ar, w)
        grown = {}
        for om, block in want.items():
            for k in range(order - sum(i * m for i, m in enumerate(om, 1)) + 1):
                key = list(om) + [0] * (k - len(om))
                if k:
                    key[k - 1] += 1
                grown[tuple(key)] = grown.get(tuple(key), zero) + block * form ** k
        want = grown
    got = f_product_sum(ar, [(weights, MultiPoly.const(ar, 1))], order)
    for om in set(want) | set(got):
        assert got.get(om, zero) == want.get(om, zero), om
