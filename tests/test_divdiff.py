"""The operator L and the operator-L routes to flag and Grassmann classes."""

import hashlib
import random
import tracemalloc
from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torigen.divdiff import (
    _packed_product,
    _read,
    block_class,
    block_polynomial,
    flag_P_polynomials,
    flag_class,
    flag_vanishing_checks,
    grassmann_Q_polynomials,
    grassmann_class,
)
from torigen.cobordism import CobordismPoly
from torigen.genus import cobordism_class
from torigen.rootdata import build_space, fixed_point_weights

from reference import (MultiPoly, RingPoly, as_constant, delta_orbit, elementary, f_product_sum, ring,
                       grassmann_base_blocks, grassmann_class_by_base, grassmann_Q_by_base, operator_L,
                       pair_product_blocks, pair_product_reads, pair_weights, permute, vandermonde, xvars)

PDELTA = "a1^3 - a1*a2 - 3*a3"
PDELTA_SWAP = "-a1^3 - 5*a1*a2 - 3*a3"

# SHA-256 of grassmann_class(q, l).canonical_text() for the (q, l) within the
# grassmann verb's limits that the golden file does not pin
GRASSMANN_DIGESTS = {
    (1, 2): "728382410147e6cbbc3b51fd98e597d22d943d59021d7f8e466022e8f6d6b248",
    (2, 1): "728382410147e6cbbc3b51fd98e597d22d943d59021d7f8e466022e8f6d6b248",
    (3, 1): "1910fa918752a75d49e418e16db92920507a762d378446504ef1824ed08a795c",
    (1, 4): "271ae35a860b5959444bba19d50e80cfa733eaaa3a9e8d71e4574cdecd9c85f5",
    (4, 1): "271ae35a860b5959444bba19d50e80cfa733eaaa3a9e8d71e4574cdecd9c85f5",
    (1, 5): "681871d272a7b4cb9d05f1d8fa59fc5ad70e03758a5cdcb3afef69b4659ae992",
    (5, 1): "681871d272a7b4cb9d05f1d8fa59fc5ad70e03758a5cdcb3afef69b4659ae992",
    (1, 6): "32fa7572718fa2ce2a1ef3800466aafcca354be21c7bf4155eee960a43aa848a",
    (6, 1): "32fa7572718fa2ce2a1ef3800466aafcca354be21c7bf4155eee960a43aa848a",
    (2, 4): "5ab97093c2ddd18b25b9793143c9903df0bdcb2e34841e4b4bfead7e85fe5ea0",
    (4, 2): "5ab97093c2ddd18b25b9793143c9903df0bdcb2e34841e4b4bfead7e85fe5ea0",
}


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
    total = RingPoly()
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
    for sizes in [(3,), (0, 2), ()]:
        with pytest.raises(ValueError, match="need two or more blocks"):
            block_class(sizes)
    with pytest.raises(ValueError, match="need two or more blocks"):
        block_polynomial((2,), (1, 0))


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


def L_of_top_blocks(blocks):
    """sum_omega a^omega * L(block omega), L by antisymmetrizing and dividing."""
    return RingPoly({om: as_constant(operator_L(b)) for om, b in blocks.items()})


def flag_pairs(n):
    return list(combinations(range(n), 2))


@pytest.mark.parametrize("route, by_L", [
    (lambda: flag_class(4, "thm8"), lambda: L_of_top_blocks(pair_product_blocks(4, tuple(flag_pairs(4)), 6, (0, 5)))),
    (lambda: grassmann_class(2, 2), lambda: L_of_top_blocks(grassmann_base_blocks(2, 2, 4)) / 4),
    (lambda: grassmann_class(2, 3), lambda: L_of_top_blocks(grassmann_base_blocks(2, 3, 6)) / 12),
], ids=("thm8-4", "grassmann-2-2", "grassmann-2-3"))
def test_L_of_top_block_is_signed_delta_sum(route, by_L):
    # a block of degree C(n, 2): antisym(p) = c * Delta_n, and c is the x^delta
    # coefficient of antisym(p); the routes read that sum, L divides
    cls = route()
    assert not cls.is_zero()
    assert cls == by_L()


def test_capped_reads_match_the_uncapped_kernel():
    # the products keep exponents up to the largest one read, max(xi): a cap
    # fixed at n - 1 would read 0 at x1^3 and at x1^4
    roots = [(1, -1, 0), (1, 0, -1), (0, 1, -1)]
    full = f_product_sum(xvars(3), [(roots, MultiPoly.const(xvars(3), 1))], 3)
    want = CobordismPoly({om: b.coeff((3, 0, 0)) for om, b in full.items()})
    assert not want.is_zero()
    assert flag_P_polynomials(3, (3, 0, 0)) == want

    ar = xvars(4)
    base = MultiPoly.linear_form(ar, (1, -1, 0, 0)) * MultiPoly.linear_form(ar, (0, 0, 1, -1))
    weights = [(1, 0, -1, 0), (1, 0, 0, -1), (0, 1, -1, 0), (0, 1, 0, -1)]
    xi = (4, 1, 1, 0)
    blocks = f_product_sum(ar, [(weights, MultiPoly.const(ar, 1))], 4)
    want = CobordismPoly({om: (base * b).coeff(xi) for om, b in blocks.items()})
    assert not want.is_zero()
    assert grassmann_Q_polynomials(2, 2, xi) == want


@pytest.mark.parametrize("n, method", [(n, m) for n in range(2, 6) for m in ("corL", "tchi", "thm8")
                                       if n >= 4 or m != "thm8"], ids=lambda v: str(v))
def test_flag_class_matches_the_unpruned_kernel(n, method):
    # L as the signed delta-orbit sum of the kernel's top blocks, with no box
    pairs = flag_pairs(n)
    odd = (0, len(pairs) - 1) if method == "thm8" else ()
    assert flag_class(n, method) == pair_product_reads(n, pairs, len(pairs), delta_orbit(n), odd)


QL_UP_TO_6 = [(q, l) for q in range(1, 7) for l in range(1, 7) if q * l <= 6]


@pytest.mark.parametrize("q, l", QL_UP_TO_6, ids=str)
def test_grassmann_class_matches_the_base_route(q, l):
    assert grassmann_class(q, l) == grassmann_class_by_base(q, l)


@pytest.mark.parametrize("q, l", QL_UP_TO_6, ids=str)
def test_grassmann_Q_matches_the_base_route(q, l):
    # exponents of the top degree, which share the base route's product with
    # the class: on the delta orbit, and random ones, some with an entry
    # beyond n - 1 or below 0; and one degree lower for small spaces
    n = q + l
    rng = random.Random(q * 10 + l)
    top = n * (n - 1) // 2
    orbit = [e for e, _ in delta_orbit(n)]
    xis = orbit[::max(1, len(orbit) // 8)]
    for _ in range(8):
        cut = sorted(rng.randint(0, top) for _ in range(n - 1))
        xi = [b - a for a, b in zip([0] + cut, cut + [top])]
        i, j = rng.sample(range(n), 2)
        xi[i], xi[j] = xi[i] - 1, xi[j] + 1
        xis.append(tuple(xi))
    if n <= 4:
        xis += [tuple(e - (i == 0) for i, e in enumerate(xi)) for xi in xis]
    seen = 0
    for xi in xis:
        want = grassmann_Q_by_base(q, l, xi)
        assert grassmann_Q_polynomials(q, l, xi) == want, xi
        seen += not want.is_zero()
    assert seen


def unpack(order, cap, width, packed):
    """{exponent: coefficient} of a packed int, x_n at order less the others."""
    out = {}
    slots, index = packed, 0
    while slots:
        c = slots & (1 << width) - 1
        if c:
            e, rest = [], index
            for cp in cap:
                e.append(rest % (cp + 2))
                rest //= cp + 2
            assert not rest and all(v <= cp for v, cp in zip(e, cap)), (index, e)
            out[tuple(e) + (order - sum(e),)] = c
        slots >>= width
        index += 1
    return out


@pytest.mark.parametrize("n, cap, odd", [(4, (3, 3, 3), ()), (4, (3, 1, 2), (0, 5)), (5, (2, 4, 3, 1), (3,))],
                         ids=("flag-4", "thm8-4-box", "flag-5-box-odd"))
def test_packed_blocks_are_the_kernel_blocks_in_the_box(n, cap, odd):
    # every slot of P - N sits in the box, and P - N is the kernel's block
    # with the terms outside the box dropped
    pairs = tuple(flag_pairs(n))
    order = len(pairs)
    width, shifts, blocks = _packed_product(n, pairs, order, odd, cap)
    assert shifts[-1] == 0 and blocks
    want = pair_product_blocks(n, pairs, order, odd)
    for om in set(want) | set(blocks):
        block = want.get(om, MultiPoly(xvars(n)))
        kept = {e: c for e, c in block.terms.items() if all(v <= cp for v, cp in zip(e, cap))}
        p, m = (unpack(order, cap, width, v) for v in blocks.get(om, (0, 0)))
        got = {e: p.get(e, 0) - m.get(e, 0) for e in set(p) | set(m)}
        assert {e: c for e, c in got.items() if c} == kept, om


@st.composite
def reader_cases(draw):
    n = draw(st.integers(2, 5))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=5))
    odd = tuple(sorted(draw(st.sets(st.integers(0, len(pairs) - 1), max_size=2))))
    order = draw(st.integers(0, 5))
    # mostly of the block's degree, so that they can read something; some
    # with a negative entry or of another degree, which read 0
    read = st.tuples(st.lists(st.integers(0, order), min_size=n - 1, max_size=n - 1), st.sampled_from((0, 0, 0, 1, -1)))
    reads = [(tuple(head) + (order - sum(head) + off,), s)
             for (head, off), s in draw(st.lists(st.tuples(read, st.integers(-2, 2)), min_size=1, max_size=6))]
    return n, pairs, order, reads, odd


@settings(max_examples=120, deadline=None)
@given(reader_cases())
# the last factor odd, as in thm8, and reads with unequal entries
@example((4, [(0, 1), (0, 2), (2, 3), (1, 3), (2, 3)], 5, [((2, 1, 1, 1), 1), ((1, 0, 2, 2), -1), ((3, 2, 0, 0), 2)],
          (0, 4)))
# x_n as the first variable of a pair, and a read outside the box of the others
@example((3, [(2, 0), (2, 1), (0, 1)], 4, [((0, 1, 3), 1), ((1, 1, 2), 1)], ()))
def test_read_matches_the_unpruned_kernel(case):
    n, pairs, order, reads, odd = case
    assert _read(n, pairs, order, reads, odd) == pair_product_reads(n, pairs, order, reads, odd)


def test_flag_product_traced_peak():
    # the n = 5 flag product that corL reads: two ints per block over the
    # box 6^4, blocks updated in place, and only the top weight written at
    # the last factor; 0.98 MB measured on Python 3.11
    pairs = tuple(flag_pairs(5))
    tracemalloc.start()
    try:
        _, _, blocks = _packed_product(5, pairs, 10, (), (4, 4, 4, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _packed_product.cache_clear()
    assert len(blocks) == 42
    assert peak < 1.2e6, peak


@pytest.mark.parametrize("xi", [(2, 2, 0, 0), (0, 2, 0, 2), (3, 1, 1, 0)], ids=lambda xi: "".join(map(str, xi)))
def test_P_off_the_delta_orbit_matches_the_unpruned_kernel(xi):
    # reads = xi keeps only what xi dominates, less than delta keeps
    full = f_product_sum(xvars(4), [(pair_weights(4, flag_pairs(4)), MultiPoly.const(xvars(4), 1))], sum(xi))
    want = CobordismPoly({om: b.coeff(xi) for om, b in full.items()})
    assert not want.is_zero()
    assert flag_P_polynomials(4, xi) == want


def compositions(n):
    """The ordered block sizes (k_1, ..., k_m) of n with m >= 2."""
    return [c + (k,) for k in range(1, n) for c in compositions(n - k) + [(n - k,)]]


# every type-A block quotient of rank up to 5, and one of rank 6; a single
# block is a point, which localization rejects
BLOCK_SIZES = [c for n in range(2, 6) for c in compositions(n)] + [(2, 2, 2)]


@pytest.mark.parametrize("sizes", BLOCK_SIZES, ids=lambda c: "-".join(map(str, c)))
def test_block_class_matches_localization(sizes):
    space = "U(%d)/%s" % (sum(sizes), "x".join("U(%d)" % k for k in sizes))
    assert block_class(sizes) == cobordism_class(fixed_point_weights(build_space(space)))


@pytest.mark.parametrize("sizes", [(1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 3), (2, 2)], ids=lambda c: "-".join(map(str, c)))
def test_block_polynomial_on_the_delta_orbit_is_the_class(sizes):
    # (1/k_1!...k_m!) L(Delta_k_1 ... Delta_k_m C), L the signed sum of the
    # x^sigma(delta) coefficients, each a block_polynomial
    total = RingPoly()
    for e, s in delta_orbit(sum(sizes)):
        total = total + ring(block_polynomial(sizes, e)) * s
    assert total / prod(map(factorial, sizes)) == block_class(sizes)


def test_grassmann_3_3_matches_localization():
    assert grassmann_class(3, 3) == cobordism_class(fixed_point_weights(build_space("U(6)/U(3)xU(3)")))


@pytest.mark.parametrize("q, l", sorted(GRASSMANN_DIGESTS), ids=lambda v: str(v))
def test_grassmann_class_digests(q, l):
    assert hashlib.sha256(grassmann_class(q, l).canonical_text().encode()).hexdigest() == GRASSMANN_DIGESTS[q, l]


FLAG_P_PINS = {
    # a negative entry reads 0
    (3, 0, -1): "0", (2, 1, -1): "0", (-1, 3, 1): "0",
    # off the delta orbit
    (2, 2, 0, 0): "a1^4 - 2*a1^2*a2 + 8*a2^2 + 6*a4",
    (0, 2, 0, 2): "-3*a1^4 + 4*a1^2*a2 + 6*a1*a3 + 8*a2^2 + 6*a4",
    (3, 1, 1, 0): "a1^5 - 4*a1^3*a2 - 6*a1^2*a3 - 12*a1*a2^2 + 6*a2*a3",
    (4, 0, 1, 1): "3*a1^4*a2 + 16*a1^3*a3 + 7*a1^2*a2^2 + 32*a1^2*a4 + 30*a1*a2*a3 - 2*a2^3 + 20*a1*a5"
                  " + 10*a2*a4 + 9*a3^2",
    (1, 1, 1, 1, 1): "0",
}

GRASSMANN_Q_PINS = {
    # a negative entry reads 0
    (2, 2, (3, 2, -1, 0)): "0",
    # |xi| below the base degree C(q, 2) + C(l, 2) reads 0; at it, the base's coefficient
    (2, 2, (1, 0, 0, 0)): "0", (2, 2, (0, 0, 0, 0)): "0", (2, 2, (1, 0, 1, 0)): "1",
    # off the delta orbit
    (2, 2, (4, 1, 1, 0)): "4*a1^2*a2 + 2*a1*a3 - a2^2 - 2*a4",
    (2, 2, (2, 2, 2, 0)): "0",
    (2, 2, (5, 0, 1, 0)): "2*a1*a3 + a2^2 + 2*a4",
    (2, 3, (3, 2, 1, 1, 0)): "0",
    (2, 3, (4, 0, 3, 1, 0)): "-a1^4 - 10*a1^2*a2 - 11*a1*a3 - 4*a2^2 - 4*a4",
    (1, 3, (2, 2, 1, 0)): "3*a1^2 + 3*a2",
    (3, 1, (2, 2, 1, 0)): "0",
}


@pytest.mark.parametrize("xi", list(FLAG_P_PINS), ids=str)
def test_flag_P_pins(xi):
    assert flag_P_polynomials(len(xi), xi).canonical_text() == FLAG_P_PINS[xi]


@pytest.mark.parametrize("q, l, xi", list(GRASSMANN_Q_PINS), ids=str)
def test_grassmann_Q_pins(q, l, xi):
    assert grassmann_Q_polynomials(q, l, xi).canonical_text() == GRASSMANN_Q_PINS[q, l, xi]
