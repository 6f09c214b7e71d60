"""Exact polynomial and graded-series kernel tests."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torigen.exactalg import (
    ArenaMismatch,
    BadLeadingTerm,
    CobordismPoly,
    GradedSeries,
    MultiPoly,
    NotDivisible,
    exact_div,
    f_product_sum,
    reverse_series,
    series_compose,
    series_mul,
    xvars,
)

from reference import permute_series


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


def test_multipoly_permute_moves_exponents():
    ar = xvars(3)
    x1 = MultiPoly.variable(ar, 0)
    x2 = MultiPoly.variable(ar, 1)
    p = x1 * x1 * x2
    # x1 -> x2, x2 -> x3, x3 -> x1
    q = p.permute((1, 2, 0))
    assert q.terms == {(0, 2, 1): 1}


def test_multipoly_substitute():
    ar = xvars(2)
    x, y = MultiPoly.variable(ar, 0), MultiPoly.variable(ar, 1)
    p = x * x - y
    q = p.substitute({0: x + y})
    assert q == x * x + 2 * x * y + y * y - y


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
    p = CobordismPoly({(1, 0, 0): 2, (0, 1): 3})
    assert p.terms == {(1,): 2, (0, 1): 3}
    assert p.coeff((1, 0, 0)) == 2
    assert p.coeff((1,)) == 2
    assert CobordismPoly.gen(3).terms == {(0, 0, 1): 1}
    assert (p - p).is_zero()


def test_cobordism_poly_weights_and_grading():
    # weight of a^omega is sum (i+1) * omega_i
    p = CobordismPoly.gen(1) ** 3 + CobordismPoly.gen(4)
    assert p.weights() == {3, 4}
    assert not p.is_homogeneous()
    q = CobordismPoly.gen(1) * CobordismPoly.gen(2)
    assert q.is_homogeneous(3)


def test_cobordism_poly_division_and_integrality():
    p = CobordismPoly.gen(1) * 6
    half = p / 4
    assert half.terms == {(1,): Fraction(3, 2)}
    assert not half.is_integral()
    assert (p / 2).is_integral()
    assert (p / 2).terms == {(1,): 3}


def test_cobordism_canonical_text():
    g = CobordismPoly.gen
    p = g(1) ** 3 * 6 + g(1) * g(2) * 6 - g(3) * 6
    assert p.canonical_text() == "6*a1^3 + 6*a1*a2 - 6*a3"
    assert CobordismPoly().canonical_text() == "0"
    assert CobordismPoly.const(-1).canonical_text() == "-1"


def test_graded_series_truncation_in_products():
    ar = xvars(1)
    x = MultiPoly.variable(ar, 0)
    s = GradedSeries.from_multipoly(MultiPoly.const(ar, 1) + x, 3)
    cube = s * s * s
    assert cube.coeff((3,)) == CobordismPoly.const(1)
    assert cube.coeff((2,)) == CobordismPoly.const(3)
    quart = cube * s
    # order is absolute: degree 4 is dropped, not carried
    assert quart.coeff((4,)).is_zero()


def test_graded_series_permute_and_scalars():
    ar = xvars(2)
    x, y = MultiPoly.variable(ar, 0), MultiPoly.variable(ar, 1)
    s = GradedSeries.from_multipoly(x * x + y, 4)
    t = permute_series(s, (1, 0))
    assert t.coeff((0, 2)) == CobordismPoly.const(1)
    assert t.coeff((1, 0)) == CobordismPoly.const(1)
    u = s * CobordismPoly.gen(2) + 1
    assert u.coeff((2, 0)) == CobordismPoly.gen(2)
    assert u.coeff((0, 0)) == CobordismPoly.const(1)


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
@given(st.lists(summand, min_size=1, max_size=3), st.integers(1, 4),
       st.none() | st.integers(0, 6), st.booleans())
def test_f_product_sum_matches_products_of_blocks(summands, order, cap, top):
    # the packed multiply, sum, cap and top against MultiPoly products of the
    # blocks of each summand, filtered afterwards
    ar = xvars(2)
    zero = MultiPoly(ar)
    summands = [(weights, MultiPoly(ar, dict(t))) for weights, t in summands]
    want = {}
    for weights, times in summands:
        for om, block in f_product_sum(ar, [(weights, None)], order).items():
            want[om] = want.get(om, zero) + block * times
    got = f_product_sum(ar, summands, order, cap=cap, top=top)
    assert set(got) <= set(want)
    for om, block in want.items():
        if top and sum(k * m for k, m in enumerate(om, 1)) != order:
            assert om not in got
            continue
        if cap is not None:
            block = MultiPoly(ar, {e: c for e, c in block.terms.items() if max(e) <= cap})
        assert got.get(om, zero) == block, om


@pytest.mark.parametrize("odd", [False, True], ids=("even", "odd"))
@pytest.mark.parametrize("cap", [None, 2], ids=("uncapped", "cap2"))
@pytest.mark.parametrize("times", [False, True], ids=("bare", "times"))
def test_f_product_sum_top_keeps_the_top_blocks(odd, cap, times):
    # top drops the lighter blocks at the last factor; the top blocks must be
    # those of the full product, also when the last factor is odd (as in thm8)
    rng = random.Random(14)
    ar = xvars(3)
    for _ in range(12):
        m = rng.randint(2, 5)
        weights = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(m)]
        order = rng.randint(1, 5)
        poly = MultiPoly(ar, {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-3, 3) for _ in range(3)})
        summands = [(weights, poly if times else None)]
        odds = (0, m - 1) if odd else ()
        full = f_product_sum(ar, summands, order, odds, cap=cap)
        want = {om: b for om, b in full.items() if sum(k * e for k, e in enumerate(om, 1)) == order}
        assert f_product_sum(ar, summands, order, odds, cap=cap, top=True) == want


def test_f_product_sum_odd_factors_take_the_odd_part_of_f():
    # f_odd(t) = (f(t) - f(-t)) / 2, so the product with factors 0 and m - 1
    # odd is 1/4 of the signed sum of the four products with those weights
    # negated or not, each made without odd
    rng = random.Random(8)
    ar = xvars(3)
    zero = MultiPoly(ar)
    for _ in range(12):
        m = rng.randint(2, 5)
        weights = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(m)]
        order = rng.randint(1, 5)
        want = {}
        for first, last in product((1, -1), repeat=2):
            flipped = [tuple(first * c for c in weights[0])] + weights[1:-1] + [tuple(last * c for c in weights[-1])]
            for om, b in f_product_sum(ar, [(flipped, None)], order).items():
                want[om] = want.get(om, zero) + b * (first * last)
        got = f_product_sum(ar, [(weights, None)], order, (0, m - 1))
        for om in set(want) | set(got):
            assert got.get(om, zero) * 4 == want.get(om, zero), om


def test_flag_product_traced_peak():
    # the n = 5 flag product that corL reads: blocks updated in place, and
    # only the top weight written at the last factor
    n = 5
    roots = []
    for i, j in combinations(range(n), 2):
        w = [0] * n
        w[i], w[j] = 1, -1
        roots.append(tuple(w))
    tracemalloc.start()
    try:
        blocks = f_product_sum(xvars(n), [(roots, None)], 10, cap=4, top=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) == 40
    assert peak < 4.0e6, peak
