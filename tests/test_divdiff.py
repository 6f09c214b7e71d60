"""The operator L and the operator-L routes to flag and Grassmann classes."""

from itertools import combinations, permutations

import pytest

from torigen.divdiff import (
    _flag_product,
    _grassmann_blocks,
    _signed_delta_sum,
    _thm8_blocks,
    flag_P_polynomials,
    flag_class,
    flag_vanishing_checks,
    grassmann_Q_polynomials,
    grassmann_class,
)
from torigen.exactalg import CobordismPoly, MultiPoly, block_coefficient, f_product_sum, xvars
from torigen.genus import cobordism_class
from torigen.rootdata import build_space, fixed_point_weights

from reference import elementary, operator_L, permute, vandermonde

PDELTA = "a1^3 - a1*a2 - 3*a3"
PDELTA_SWAP = "-a1^3 - 5*a1*a2 - 3*a3"


def test_operator_L_properties():
    ar = xvars(3)
    delta = MultiPoly(ar, {(2, 1, 0): 1})
    assert operator_L(delta) == MultiPoly.const(ar, 1)
    # swapping two variables flips the sign
    p = MultiPoly(ar, {(3, 1, 0): 1})
    assert operator_L(permute(p, (1, 0, 2))) == operator_L(p) * -1
    # symmetric factors pass through
    e2 = elementary(2, 3, ar)
    assert operator_L(e2 * delta) == e2
    # the Vandermonde is alternating, so all 6 summands coincide
    assert operator_L(vandermonde(ar)) == MultiPoly.const(ar, 6)
    with pytest.raises(ValueError):
        operator_L(delta, n=4)


def test_flag_P_delta_orbit():
    vals = {
        (2, 1, 0): PDELTA,
        (2, 0, 1): PDELTA_SWAP,
        (1, 2, 0): "-a1^3 + a1*a2 + 3*a3",
        (1, 0, 2): "a1^3 + 5*a1*a2 + 3*a3",
        (0, 2, 1): PDELTA,
        (0, 1, 2): "-a1^3 + a1*a2 + 3*a3",
    }
    total = CobordismPoly()
    for xi, text in vals.items():
        p = flag_P_polynomials(3, xi)
        assert p.canonical_text() == text
        total = total + p
    assert total.is_zero()


def test_flag_class_routes_agree():
    assert flag_class(2).canonical_text() == "2*a1"
    for n in (2, 3):
        loc = cobordism_class(fixed_point_weights(build_space("U(%d)/T%d" % (n, n))))
        assert flag_class(n, "corL") == loc
        assert flag_class(n, "tchi") == loc
    with pytest.raises(ValueError):
        flag_class(3, "thm8")
    with pytest.raises(ValueError):
        flag_class(1)
    with pytest.raises(ValueError):
        flag_class(3, "nope")


def test_grassmann_routes():
    assert grassmann_class(1, 1).canonical_text() == "2*a1"
    cp2 = cobordism_class(fixed_point_weights(build_space("CP2")))
    assert grassmann_class(1, 2) == cp2
    assert grassmann_class(2, 1) == cp2
    with pytest.raises(ValueError):
        grassmann_class(0, 2)


def test_grassmann_Q_values():
    assert grassmann_Q_polynomials(2, 2, (3, 2, 1, 0)).canonical_text() == \
        "a1^4 - 4*a1*a3 + 4*a2^2"
    assert grassmann_Q_polynomials(2, 2, (2, 1, 3, 0)).canonical_text() == \
        "a1^4 + 4*a1^2*a2 + 6*a1*a3 + a2^2 - 6*a4"
    assert grassmann_Q_polynomials(2, 2, (1, 3, 2, 0)).canonical_text() == \
        "a1^4 + 8*a1^2*a2 + 2*a2^2 - 4*a4"
    with pytest.raises(ValueError):
        grassmann_Q_polynomials(2, 2, (1, 0))


def test_flag_vanishing_reports():
    for n in (2, 3):
        rep = flag_vanishing_checks(n)
        assert rep["ok"]
        assert rep["s_m"]["value"] == {2: 2, 3: -6}[n]
        assert rep["even_chern"]["ok"]
    with pytest.raises(ValueError):
        flag_vanishing_checks(6)


def test_flag_vanishing_reports_n5():
    # s_to_chern at weight 10 needs the 42-row beta matrix
    rep = flag_vanishing_checks(5)
    assert rep["ok"]
    assert rep["m"] == 10
    assert rep["s_m"] == {"value": 0, "expected": 0, "ok": True}
    assert rep["odd_zero"]["applicable"] and rep["odd_zero"]["ok"]
    assert rep["even_chern"]["ok"]


def signed_delta_sum(n, block):
    return _signed_delta_sum(n, lambda e: block.coeff(e))


@pytest.mark.parametrize("n, blocks", [(4, lambda: _thm8_blocks(4)),
                                       (4, lambda: _grassmann_blocks(2, 2, 4, (3,) * 4)),
                                       (5, lambda: _grassmann_blocks(2, 3, 6, (4,) * 5))],
                         ids=("thm8-4", "grassmann-2-2", "grassmann-2-3"))
def test_L_of_top_block_is_signed_delta_sum(n, blocks):
    # a block of degree C(n, 2): antisym(p) = c * Delta_n, and c is the x^delta
    # coefficient of antisym(p)
    tops = blocks()
    assert tops and all(b.degree() == n * (n - 1) // 2 for b in tops.values())
    for block in tops.values():
        assert signed_delta_sum(n, block) == CobordismPoly.const(operator_L(block).as_constant())


def test_capped_reads_match_the_uncapped_kernel():
    # the products keep exponents up to the largest one read, max(xi): a cap
    # fixed at n - 1 would read 0 at x1^3 and at x1^4
    roots = [(1, -1, 0), (1, 0, -1), (0, 1, -1)]
    full = f_product_sum(xvars(3), [(roots, None)], 3)
    want = CobordismPoly({om: b.coeff((3, 0, 0)) for om, b in full.items()})
    assert not want.is_zero()
    assert flag_P_polynomials(3, (3, 0, 0)) == want

    ar = xvars(4)
    base = MultiPoly.linear_form(ar, (1, -1, 0, 0)) * MultiPoly.linear_form(ar, (0, 0, 1, -1))
    weights = [(1, 0, -1, 0), (1, 0, 0, -1), (0, 1, -1, 0), (0, 1, 0, -1)]
    xi = (4, 1, 1, 0)
    want = CobordismPoly({om: (base * b).coeff(xi) for om, b in f_product_sum(ar, [(weights, None)], 4).items()})
    assert not want.is_zero()
    assert grassmann_Q_polynomials(2, 2, xi) == want

    # a degree-C(n, 2) monomial with an exponent >= n is killed by L
    capped, uncapped = _grassmann_blocks(2, 2, 4, (3,) * 4), _grassmann_blocks(2, 2, 4, (6,) * 4)
    assert capped != uncapped
    for om, block in uncapped.items():
        assert operator_L(capped.get(om, MultiPoly(ar))) == operator_L(block)


def flag_roots(n):
    """The weights of x_i - x_j, i < j."""
    return [tuple(1 if k == i else -1 if k == j else 0 for k in range(n)) for i, j in combinations(range(n), 2)]


def capped_flag_class(n, method):
    """flag_class read off products that keep every exponent <= n - 1."""
    pairs = list(combinations(range(n), 2))
    odd = (pairs.index((0, 1)), pairs.index((n - 2, n - 1))) if method == "thm8" else ()
    blocks = f_product_sum(xvars(n), [(flag_roots(n), None)], len(pairs), odd, reads=(n - 1,) * n, top=True)
    return _signed_delta_sum(n, lambda e: block_coefficient(blocks, e))


@pytest.mark.parametrize("n, method", [(n, m) for n in range(2, 6) for m in ("corL", "tchi", "thm8")
                                       if n >= 4 or m != "thm8"], ids=lambda v: str(v))
def test_delta_reads_match_the_cap(n, method):
    # the classes read off products pruned to what delta dominates equal
    # those read off products that keep every exponent <= n - 1
    assert flag_class(n, method) == capped_flag_class(n, method)


@pytest.mark.parametrize("q, l", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_grassmann_delta_reads_match_the_cap(q, l):
    n = q + l
    delta = tuple(range(n - 1, -1, -1))
    pruned, capped = _grassmann_blocks(q, l, q * l, delta), _grassmann_blocks(q, l, q * l, (n - 1,) * n)
    assert _signed_delta_sum(n, lambda e: block_coefficient(pruned, e)) == \
        _signed_delta_sum(n, lambda e: block_coefficient(capped, e))


@pytest.mark.parametrize("n", [4, 5])
def test_delta_reads_leave_only_the_delta_orbit(n):
    # a term delta dominates of degree C(n, 2) sorts to delta itself
    orbit = set(permutations(range(n)))
    delta = tuple(range(n - 1, -1, -1))
    for blocks in (_flag_product(n, n * (n - 1) // 2, delta), _thm8_blocks(n)):
        assert blocks
        for block in blocks.values():
            assert set(block.terms) <= orbit


@pytest.mark.parametrize("xi", [(2, 2, 0, 0), (0, 2, 0, 2), (3, 1, 1, 0)], ids=lambda xi: "".join(map(str, xi)))
def test_P_off_the_delta_orbit_matches_the_unpruned_kernel(xi):
    # reads = xi keeps only what xi dominates, less than delta keeps
    full = f_product_sum(xvars(4), [(flag_roots(4), None)], sum(xi))
    want = CobordismPoly({om: b.coeff(xi) for om, b in full.items()})
    assert not want.is_zero()
    assert flag_P_polynomials(4, xi) == want


def test_grassmann_3_3_matches_localization():
    assert grassmann_class(3, 3) == cobordism_class(fixed_point_weights(build_space("U(6)/U(3)xU(3)")))
