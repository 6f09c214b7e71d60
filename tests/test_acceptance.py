"""End-to-end value checks for the worked examples, one test per block.

Everything here is exact: integer equality and canonical-form polynomial
equality, no tolerances.
"""

import random
from itertools import product

from torigen.chern import chern_to_s, s_to_chern
from torigen.divdiff import (
    flag_P_polynomials,
    flag_class,
    flag_vanishing_checks,
    grassmann_Q_polynomials,
    grassmann_class,
)
from torigen.character import character_blocks, weyl_invariance_failure
from torigen.fgl import fgl_addition
from torigen.genus import SingularPoint, cobordism_class, s_number_numeric, s_numbers
from torigen.rootdata import (
    M10_DESCRIPTOR,
    build_space,
    fixed_point_weights,
)
from torigen.stablex import (
    SignAssignment,
    check_necessary,
    derived_fixed_point_data,
    enumerate_feasible,
)
from torigen.symmfunc import omega_weight, omegas_of_weight

from reference import (GradedSeries, MultiPoly, RingPoly, block_coefficient, euler_characteristic, multi_bracket,
                       omega_blocks, permute_series, ring, substitute_series, xvars)


def fp_of(text, structure=None):
    return fixed_point_weights(build_space(text, structure=structure))


def g(i):
    return RingPoly.gen(i)


def test_projective_line():
    fp = fp_of("CP1")
    assert cobordism_class(fp).canonical_text() == "2*a1"
    # ch Phi = 2 sum_k a_{2k+1} (x1 - x2)^{2k} through degree 6
    ch = omega_blocks(character_blocks(fp, 7))
    u = MultiPoly.linear_form(xvars(2), (1, -1))
    assert ch == {(0,) * (2 * k) + (1,): (u ** (2 * k) * 2).terms for k in range(4)}


def test_full_flag_of_u3():
    by_localization = cobordism_class(fp_of("U(3)/T3"))
    by_operator = flag_class(3)
    assert by_localization == by_operator
    assert by_localization.canonical_text() == "6*a1^3 + 6*a1*a2 - 6*a3"
    table = s_numbers(fp_of("U(3)/T3"))
    assert table == {(3,): 6, (1, 1): 6, (0, 0, 1): -6}
    chern = s_to_chern(table, 3)
    assert chern == {(0, 0, 1): 6, (1, 1): 24, (3,): 48}


def test_grassmannian_of_planes():
    fp = fp_of("U(4)/U(2)xU(2)")
    cls = cobordism_class(fp)
    assert cls == (g(1) ** 4 * 3 + g(1) ** 2 * g(2) * 12 + g(2) ** 2 * 7
                   + g(1) * g(3) * 2 - g(4) * 10) * 2
    assert s_numbers(fp) == {(4,): 6, (2, 1): 24, (0, 2): 14, (1, 0, 1): 4,
                             (0, 0, 0, 1): -20}
    assert s_to_chern(s_numbers(fp), 4) == {(0, 0, 0, 1): 6, (1, 0, 1): 48,
                                            (0, 2): 98, (2, 1): 224, (4,): 512}
    assert s_number_numeric(fp, (0, 0, 0, 1), (1, 2, 3, 4)) == -20
    assert grassmann_Q_polynomials(2, 2, (3, 2, 1, 0)) == \
        g(1) ** 4 + g(2) ** 2 * 4 - g(1) * g(3) * 4
    assert grassmann_class(2, 2) == cls


def test_su4_flag_quotient_structures():
    classes = {
        "J1": "12*a1^5 + 48*a1^3*a2 - 20*a1^2*a3 + 28*a1*a2^2 - 40*a1*a4 - 8*a2*a3 + 20*a5",
        "J2": "12*a1^5 + 48*a1^3*a2 - 20*a1^2*a3 + 28*a1*a2^2 - 40*a1*a4 + 32*a2*a3 - 20*a5",
        "J3": "12*a1^5 - 48*a1^3*a2 + 60*a1^2*a3 + 28*a1*a2^2 - 40*a1*a4 - 48*a2*a3 + 60*a5",
    }
    chern_rows = {
        "J1": (12, 108, 292, 612, 1028, 2148, 4500),
        "J2": (12, 108, 292, 612, 1068, 2268, 4860),
        "J3": (12, 12, 4, 20, -4, -4, -20),
    }
    keys = [(0, 0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 1), (2, 0, 1), (1, 2), (3, 1), (5,)]
    for name in ("J1", "J2", "J3"):
        fp = fp_of(M10_DESCRIPTOR, structure=name)
        assert cobordism_class(fp).canonical_text() == classes[name]
        chern = s_to_chern(s_numbers(fp), 5)
        # (c5, c1c4, c2c3, c1^2c3, c1c2^2, c1^3c2, c1^5)
        assert tuple(chern[k] for k in keys) == chern_rows[name]


def degree_part(ch, d):
    """{x^e: RingPoly} over the exponents of x-degree d in the blocks of ch."""
    exps = {e for block in ch.values() for e in block if sum(e) == d}
    return {e: ring(block_coefficient(ch, e)) for e in exps}


def _sigma_blocks_of_six_sphere():
    """Rewrite the degree 2, 4, 6 blocks of ch Phi(S^6) in sigma_2, sigma_3."""
    ch = omega_blocks(character_blocks(fp_of("G2/SU(3)"), 9))
    ar = xvars(2)
    x1, x2 = MultiPoly.variable(ar, 0), MultiPoly.variable(ar, 1)
    x3 = -(x1 + x2)
    s2 = x1 * x2 + x1 * x3 + x2 * x3
    s3 = x1 * x2 * x3
    out = {}
    for label, basis in (("s2", s2), ("s2^2", s2 * s2)):
        block = degree_part(ch, basis.degree())
        mono = next(iter(basis.terms))
        coeff = block[mono] / basis.terms[mono]
        # proportionality, not just one matching monomial
        for e, c in basis.terms.items():
            assert block.get(e, RingPoly()) == coeff * c
        assert len(block) == len(basis.terms)
        out[label] = coeff
    block6 = degree_part(ch, 6)
    b1, b2 = (s2 * s2 * s2), (s3 * s3)
    e1, e2 = (6, 0), (4, 2)
    det = b1.coeff(e1) * b2.coeff(e2) - b2.coeff(e1) * b1.coeff(e2)
    v1 = block6.get(e1, RingPoly())
    v2 = block6.get(e2, RingPoly())
    A = (v1 * b2.coeff(e2) - v2 * b2.coeff(e1)) / det
    B = (v2 * b1.coeff(e1) - v1 * b1.coeff(e2)) / det
    # the two coefficients reproduce the whole degree-6 block
    for e in set(b1.terms) | set(b2.terms) | set(block6):
        lhs = block6.get(e, RingPoly())
        assert lhs == A * b1.coeff(e) + B * b2.coeff(e)
    out["s2^3"] = A
    out["s3^2"] = B
    return out


def test_six_sphere():
    fp = fp_of("G2/SU(3)")
    cls = cobordism_class(fp)
    assert cls == (g(1) ** 3 - g(1) * g(2) * 3 + g(3) * 3) * 2
    blocks = _sigma_blocks_of_six_sphere()
    assert blocks["s2"] == (g(1) * g(2) ** 2 - g(1) ** 2 * g(3) * 2 - g(2) * g(3)
                            + g(1) * g(4) * 5 - g(5) * 5) * 2
    assert blocks["s2^2"] == (g(1) * g(3) ** 2 - g(1) * g(2) * g(4) * 2 - g(3) * g(4)
                              + g(1) ** 2 * g(5) * 2 + g(2) * g(5) * 3
                              - g(1) * g(6) * 7 + g(7) * 7) * 2
    assert blocks["s2^3"] == (g(9) * -9 + g(1) * g(8) * 9 - g(2) * g(7) * 5
                              + g(3) * g(6) * 3 - g(4) * g(5) - g(1) ** 2 * g(7) * 2
                              + g(1) * g(2) * g(6) * 2 - g(1) * g(3) * g(5) * 2
                              + g(1) * g(4) ** 2) * 2
    assert blocks["s3^2"] == (g(9) * 3 - g(1) * g(8) * 3 - g(2) * g(7) * 3
                              + g(3) * g(6) * 6 - g(4) * g(5) * 3 + g(1) ** 2 * g(7) * 3
                              - g(1) * g(2) * g(6) * 3 - g(1) * g(3) * g(5) * 3
                              + g(1) * g(4) ** 2 * 3 + g(2) ** 2 * g(5) * 3
                              - g(2) * g(3) * g(4) * 3 + g(3) ** 3) * 2
    spec = build_space("G2/SU(3)")
    sols = enumerate_feasible(spec)
    assert len(sols) == 10
    trivial_tables = {((1, 1, 1), (1, 1, 1)), ((-1, -1, -1), (-1, -1, -1))}
    for sol in sols:
        derived = derived_fixed_point_data(spec, sol)
        if sol.table in trivial_tables:
            assert not cobordism_class(derived).is_zero()
        else:
            assert cobordism_class(derived).is_zero()


def test_flag_series():
    assert flag_class(2).coeff((1,)) == 2
    assert flag_class(3).coeff((0, 0, 1)) == -6
    four = flag_class(4)
    assert four.coeff((0, 0, 0, 0, 0, 1)) == 0
    assert four.coeff((1, 0, 0, 0, 1, 0)) == 80
    for n in (2, 3, 4):
        cls = flag_class(n)
        m = n * (n - 1) // 2
        chern = s_to_chern({om: cls.coeff(om) for om in omegas_of_weight(m)}, m)
        assert all(v % 2 == 0 for v in chern.values())
    report = flag_vanishing_checks(4)
    assert report["ok"]
    assert report["s_m"] == {"value": 0, "expected": 0, "ok": True}
    assert report["cor8"]["ok"] and report["inequality"]["ok"]
    assert report["odd_zero"]["applicable"] and report["odd_zero"]["ok"]
    assert flag_P_polynomials(3, (2, 1, 0)) == g(1) ** 3 - g(1) * g(2) - g(3) * 3
    assert flag_P_polynomials(3, (2, 0, 1)) == \
        (g(1) ** 3 + g(1) * g(2) * 5 + g(3) * 3) * -1
    a = flag_class(4, "corL")
    assert a == flag_class(4, "tchi")
    assert a == flag_class(4, "thm8")
    assert a == cobordism_class(fp_of("U(4)/T4"))


def test_projective_spaces():
    for n in range(1, 6):
        table = s_numbers(fp_of("CP%d" % n))
        assert table[(0,) * (n - 1) + (1,)] == n + 1
    spec = build_space("CP3")
    twisted = SignAssignment(((1, 1, 1), (1, 1, -1), (1, 1, -1), (1, 1, -1)), -1)
    derived = derived_fixed_point_data(spec, twisted)
    assert [pt.sign for pt in derived] == [-1, 1, 1, 1]
    assert s_numbers(derived)[(0, 0, 1)] == -2
    assert check_necessary(spec, twisted).ok
    sols = enumerate_feasible(spec)
    assert len(sols) == 16
    # feasible = constant on the four linked slot classes, free otherwise
    classes = (((0, 0), (1, 0), (2, 0)), ((0, 1), (1, 1), (3, 0)),
               ((0, 2), (2, 1), (3, 1)), ((1, 2), (2, 2), (3, 2)))
    want = set()
    for choice in product((1, -1), repeat=4):
        table = [[0] * 3 for _ in range(4)]
        for cls, s in zip(classes, choice):
            for p, j in cls:
                table[p][j] = s
        want.add(tuple(tuple(r) for r in table))
    assert {sol.table for sol in sols} == want


def test_structural_invariants():
    spaces = [("CP1", None), ("CP2", None), ("CP3", None), ("CP2", "conjugate"),
              ("U(3)/T3", None), ("U(3)/T3", "conjugate"),
              ("U(4)/U(2)xU(2)", None), ("G2/SU(3)", None),
              (M10_DESCRIPTOR, "J1"), (M10_DESCRIPTOR, "J2"), (M10_DESCRIPTOR, "J3")]
    for text, structure in spaces:
        spec = build_space(text, structure=structure)
        fp = fixed_point_weights(spec)
        n = len(fp[0].weights)
        # the blocks exist only where no block has a pole
        ch = character_blocks(fp, n + 2)
        assert weyl_invariance_failure(spec, ch) is None
        for xi, block in ch.items():
            assert all(sum(e) == omega_weight(xi) - n for e in block)
        table = s_numbers(fp)
        assert table[(n,)] == euler_characteristic(spec) * (1 if fp[0].sign == 1 else -1)

    # formal group law axioms to order 6
    order = 6
    ar1 = xvars(1, "u")
    ar2 = xvars(2, "u")
    ar3 = xvars(3, "u")
    law = GradedSeries(ar2, order, fgl_addition(order))
    u = GradedSeries(ar1, order, {(1,): RingPoly.const(1)})
    zero = GradedSeries(ar1, order)
    assert substitute_series(law, [u, zero], ar1, order) == u
    assert permute_series(law, (1, 0)) == law
    u1 = GradedSeries(ar3, order, {(1, 0, 0): RingPoly.const(1)})
    u2 = GradedSeries(ar3, order, {(0, 1, 0): RingPoly.const(1)})
    u3 = GradedSeries(ar3, order, {(0, 0, 1): RingPoly.const(1)})
    f12 = substitute_series(law, [u1, u2], ar3, order)
    f23 = substitute_series(law, [u2, u3], ar3, order)
    assert substitute_series(law, [f12, u3], ar3, order) == \
        substitute_series(law, [u1, f23], ar3, order)
    for k in (2, 3):
        prev = multi_bracket((k - 1,), order, ar1)
        assert multi_bracket((k,), order, ar1) == \
            substitute_series(law, [u, prev], ar1, order)

    # s <-> Chern dictionary round trip
    rng = random.Random(7)
    for n in range(1, 7):
        s = {om: rng.randint(-99, 99) for om in omegas_of_weight(n)}
        assert chern_to_s(s_to_chern(s, n), n) == s

    # numeric and symbolic s_omega agree at 10 nonsingular points per space
    for text in ("CP2", "U(3)/T3", "G2/SU(3)"):
        fp = fixed_point_weights(build_space(text))
        n = len(fp[0].weights)
        table = s_numbers(fp)
        rng = random.Random(sum(text.encode()))
        hits = 0
        while hits < 10:
            point = tuple(rng.randint(-9, 9) for _ in range(len(fp[0].weights[0])))
            try:
                for om in omegas_of_weight(n):
                    assert s_number_numeric(fp, om, point) == table[om]
            except SingularPoint:
                continue
            hits += 1
