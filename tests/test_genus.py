"""Localization pipeline: characters, classes, s_omega, Chern numbers."""

from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torigen import genus
from torigen.chern import chern_to_s, s_to_chern
from torigen.cli import main
from torigen.exactalg import CobordismPoly, MultiPoly, block_coefficient, f_product_sum
from torigen.genus import (
    NonIntegerClass,
    SingularPoint,
    SingularSum,
    _pole_free,
    canonical_line,
    character_numerator,
    chern_character_of_genus,
    chern_numbers,
    cobordism_class,
    default_numeric_point,
    genus_report,
    localization_data,
    point_chern_numbers,
    s_number_numeric,
    s_numbers,
    second_numeric_point,
    symbolic_class,
    weyl_invariance_ok,
)
from torigen.divdiff import flag_class
from torigen.rootdata import FixedPoint, build_space, fixed_point_weights
from torigen.stablex import SignAssignment, derived_fixed_point_data
from torigen.symmfunc import omega_weight, omegas_of_weight

from reference import euler_characteristic, omega_numerator, omegas_up_to

U3T3 = "6*a1^3 + 6*a1*a2 - 6*a3"
G42 = "6*a1^4 + 24*a1^2*a2 + 4*a1*a3 + 14*a2^2 - 20*a4"


def fp_of(text, structure=None):
    return fixed_point_weights(build_space(text, structure=structure))


def test_canonical_line_orientation():
    assert canonical_line((0, 2, -1)) == ((0, 2, -1), 1)
    assert canonical_line((0, -2, 1)) == ((0, 2, -1), -1)
    with pytest.raises(ValueError):
        canonical_line((0, 0))


def test_localization_common_denominator():
    fp = fp_of("U(3)/T3")
    loc = localization_data(fp)
    for idx, pt in enumerate(fp):
        own = MultiPoly.const(loc.arena, 1)
        sign = pt.sign
        for w in pt.weights:
            line, sg = canonical_line(w)
            own = own * MultiPoly.linear_form(loc.arena, line)
            sign *= sg
        assert own * loc.cofactors[idx] == loc.denom
        assert loc.prefactors[idx] == sign


def test_kernel_one_factor():
    # f(x1 - x2) = 1 + a1 (x1 - x2) + a2 (x1 - x2)^2 + ...
    fp = fp_of("CP1")
    loc = localization_data(fp)
    blocks = f_product_sum(loc.arena, [([(1, -1)], None)], 2)
    assert set(blocks) == {(), (1,), (0, 1)}
    assert blocks[()] == MultiPoly.const(loc.arena, 1)
    assert blocks[(1,)].coeff((1, 0)) == 1
    assert blocks[(1,)].coeff((0, 1)) == -1
    assert blocks[(0, 1)].coeff((2, 0)) == 1
    assert blocks[(0, 1)].coeff((1, 1)) == -2


def kernel_numerators(fp, order):
    """sum_p prefactor_p * cofactor_p * (the kernel's blocks of p alone), omega by omega."""
    loc = localization_data(fp)
    num = {}
    for pt, cof, pre in zip(fp, loc.cofactors, loc.prefactors):
        for om, block in f_product_sum(loc.arena, [(pt.weights, None)], order).items():
            num[om] = num.get(om, 0) + block * cof * pre
    return loc, num


def check_kernel_numerators(fp):
    """Every a^omega block, ||omega|| <= n + 1, equals omega_numerator; omegas
    with more than n parts have no block. The character's numerator, which
    the kernel multiplies and sums over the points on packed exponents,
    equals the per-point reference block by block."""
    n = len(fp[0].weights)
    loc, num = kernel_numerators(fp, n + 1)
    _, packed = character_numerator(fp, n + 1)
    zero = MultiPoly(loc.arena)
    for om in omegas_up_to(n + 1):
        assert packed.get(om, zero) == num.get(om, zero), om
        if sum(om) <= n:
            assert num.get(om, zero) == omega_numerator(fp, loc, om), om
        else:
            assert num.get(om, zero).is_zero(), om
    assert set(num) <= set(omegas_up_to(n + 1))
    assert set(packed) <= set(omegas_up_to(n + 1))


def test_cp1_character_blocks():
    fp = fp_of("CP1")
    ch = chern_character_of_genus(fp, 5)
    assert block_coefficient(ch, (0, 0)) == CobordismPoly.gen(1) * 2
    # odd degrees cancel between the two fixed points: block omega has
    # x-degree ||omega|| - 1, so every block left has odd weight
    assert all(omega_weight(om) % 2 == 1 for om in ch)
    assert block_coefficient(ch, (2, 0)) == CobordismPoly.gen(3) * 2
    assert block_coefficient(ch, (1, 1)) == CobordismPoly.gen(3) * -4
    assert block_coefficient(ch, (0, 2)) == CobordismPoly.gen(3) * 2


def test_class_goldens():
    assert cobordism_class(fp_of("U(3)/T3")).canonical_text() == U3T3
    assert cobordism_class(fp_of("U(4)/U(2)xU(2)")).canonical_text() == G42


def test_conjugate_structure_classes():
    # all weights negated: s_omega picks up (-1)^n
    std = cobordism_class(fp_of("G2/SU(3)"))
    conj = cobordism_class(fp_of("G2/SU(3)", structure="conjugate"))
    assert conj == std * -1
    assert cobordism_class(fp_of("CP2", structure="conjugate")) == cobordism_class(fp_of("CP2"))


def test_low_vanishing_reports():
    # building the character raises SingularSum unless the low blocks cancel
    for text in ("CP1", "CP3", "U(3)/T3", "G2/SU(3)"):
        fp = fp_of(text)
        chern_character_of_genus(fp, len(fp[0].weights))


def test_inconsistent_data_fails_cancellation():
    fp = fp_of("CP2")
    broken = [FixedPoint(fp[0].rep, fp[0].weights, -1)] + list(fp[1:])
    n = len(fp[0].weights)
    # the first low block, t^0, is the numerator block of degree D - n
    low = localization_data(broken).denom.degree() - n
    with pytest.raises(SingularSum, match="^degree-%d numerator block does not cancel: " % low):
        chern_character_of_genus(broken, n)
    with pytest.raises(SingularSum):
        cobordism_class(broken)


def test_s_numbers_golden_and_class_match():
    table = s_numbers(fp_of("U(3)/T3"))
    assert table == {(3,): 6, (1, 1): 6, (0, 0, 1): -6}
    cls = cobordism_class(fp_of("U(3)/T3"))
    for om, v in table.items():
        assert cls.coeff(om) == v


def test_numeric_evaluation_matches_symbolic():
    fp = fp_of("U(3)/T3")
    table = s_numbers(fp)
    point = default_numeric_point(fp)
    for om, v in table.items():
        assert s_number_numeric(fp, om, point) == v
    with pytest.raises(SingularPoint):
        s_number_numeric(fp, (3,), (1, 1, 1))


def test_weyl_invariance_of_character():
    for text, structure in (("CP2", None), ("U(3)/T3", None),
                            ("G2/SU(3)", None), ("G2/SU(3)", "conjugate")):
        spec = build_space(text, structure=structure)
        ch = chern_character_of_genus(fixed_point_weights(spec), spec.n + 1)
        assert all(isinstance(block, MultiPoly) for block in ch.values())
        assert weyl_invariance_ok(spec, ch)


def test_weyl_invariance_fails_on_a_moved_term():
    # x1 added to one block: a transposition of U(3) moves it to x2, and it is
    # not fixed by both G2 reflections, as no nonzero linear form is
    for text in ("U(3)/T3", "G2/SU(3)"):
        spec = build_space(text)
        ch = chern_character_of_genus(fixed_point_weights(spec), spec.n + 1)
        om, block = max(ch.items())
        ch[om] = block + MultiPoly.variable(block.arena, 0)
        assert not weyl_invariance_ok(spec, ch)


def test_genus_report_shape():
    rep = genus_report(build_space("CP2"))
    assert rep["space"] == "CP2"
    assert rep["structure"] == "standard"
    assert rep["checks"] == {"vanishing": True, "weyl_invariance": True}
    got = {tuple(row["omega"]): row["value"] for row in rep["s_numbers"]}
    assert got == {(2, 0): 3, (0, 1): 3}
    assert {tuple(r["omega"]): r["coeff"] for r in rep["class"]} == {(2, 0): "3", (0, 1): "3"}


M10 = "SU(4)/S(U(1)xU(1)xU(2))"
# the symbolic route finishes within seconds on these
SYMBOLIC_SPACES = [
    ("CP1", None), ("CP2", None), ("CP3", None), ("CP4", None),
    ("U(3)/T3", None), ("U(4)/T4", None), ("U(4)/U(2)xU(2)", None),
    ("U(4)/U(1)xU(1)xU(2)", None), ("U(5)/U(2)xU(3)", None),
    (M10, "J1"), (M10, "J2"), (M10, "J3"), ("G2/SU(3)", None),
    ("CP1", "conjugate"), ("CP3", "conjugate"), ("CP4", "conjugate"),
    ("U(3)/T3", "conjugate"), ("U(4)/U(2)xU(2)", "conjugate"), ("G2/SU(3)", "conjugate"),
]


# the --signs tables of the golden file; the last two have poles
GOLDEN_SIGNS = [("U(4)/T4", (1, -1, 1, 1, -1, 1)), ("U(4)/T4", (-1, 1, 1, -1, -1, 1)),
                ("U(4)/U(1)xU(1)xU(2)", (1, -1, -1, 1, 1)), ("CP2", (1, -1)),
                ("U(4)/U(1)xU(1)xU(2)", (1, -1, 1, -1, 1))]


@pytest.mark.parametrize("text,structure", SYMBOLIC_SPACES)
def test_kernel_matches_omega_numerator(text, structure):
    check_kernel_numerators(fp_of(text, structure))


@pytest.mark.parametrize("text,signs", GOLDEN_SIGNS)
def test_kernel_matches_omega_numerator_signed(text, signs):
    check_kernel_numerators(fixed_point_weights(build_space(text, signs=signs)))


def character_class(fp):
    """Constant terms of the symbolic character's blocks, with no check on the class."""
    ch = chern_character_of_genus(fp, len(fp[0].weights))
    return block_coefficient(ch, (0,) * len(fp[0].weights[0]))


def evaluated(fp):
    """The s-numbers of the sum at the default point, as beta times its Chern numbers."""
    return chern_to_s(point_chern_numbers(fp, default_numeric_point(fp)), len(fp[0].weights))


@pytest.mark.parametrize("text,structure", SYMBOLIC_SPACES)
def test_evaluator_matches_symbolic_character(text, structure):
    fp = fp_of(text, structure)
    assert _pole_free(fp)
    n = len(fp[0].weights)
    table = evaluated(fp)
    assert set(table) == set(omegas_of_weight(n))
    cls = character_class(fp)
    assert CobordismPoly(table) == cls
    assert cobordism_class(fp) == CobordismPoly(table)
    assert s_numbers(fp) == table
    assert chern_numbers(fp) == s_to_chern({om: cls.coeff(om) for om in omegas_of_weight(n)}, n)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_evaluator_matches_projective_closed_form(n):
    # [CP^n] is the t^n coefficient of f(t)^(n+1): s_omega is a multinomial
    fp = fp_of("CP%d" % n)
    assert _pole_free(fp)
    for om, v in s_numbers(fp).items():
        rest = n + 1 - sum(om)
        assert v == factorial(n + 1) // (factorial(rest) * prod(factorial(m) for m in om))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_chern_numbers_match_projective_closed_form(n):
    # c(CP^n) = (1 + x)^(n+1): c_k = C(n+1, k) x^k, and x^n integrates to 1
    table = chern_numbers(fp_of("CP%d" % n))
    assert set(table) == set(omegas_of_weight(n))
    for xi, v in table.items():
        assert v == prod(comb(n + 1, k) ** m for k, m in enumerate(xi, 1))


def test_evaluator_matches_flag_route():
    fp = fp_of("U(5)/T5")
    assert _pole_free(fp)
    assert cobordism_class(fp) == flag_class(5)


def test_point_values_are_ints_or_exact_fractions():
    # one point with weights x1, x2 at (2, 3): c = (2, 3), e = (5, 6), so
    # c1^2 = 25/6 and c2 = 6/6 over prod c = 6; over two points the sums
    # keep one common denominator
    one = [FixedPoint(0, ((1, 0), (0, 1)), 1)]
    got = point_chern_numbers(one, (2, 3))
    assert got == {(2,): Fraction(25, 6), (0, 1): 1} and type(got[(0, 1)]) is int
    two = one + [FixedPoint(1, ((1, 1), (0, -1)), 1)]
    # second point: c = (5, -3), e = (2, -15), prod c = -15
    assert point_chern_numbers(two, (2, 3)) == {(2,): Fraction(25, 6) + Fraction(4, -15),
                                                  (0, 1): 2}


@pytest.mark.parametrize("text", ["U(5)/U(1)xU(2)xU(2)", "U(6)/U(3)xU(3)"])
def test_evaluator_beyond_symbolic_reach(text):
    # the symbolic route takes minutes here: the sum must be the same at
    # unrelated points, integral, with top number chi
    spec = build_space(text)
    fp = fixed_point_weights(spec)
    assert _pole_free(fp)
    chern = point_chern_numbers(fp, default_numeric_point(fp))
    assert point_chern_numbers(fp, second_numeric_point(fp)) == chern
    assert point_chern_numbers(fp, (3, -1, 4, -15, 9, 26)[:len(fp[0].weights[0])]) == chern
    assert all(isinstance(v, int) for v in chern.values())
    assert chern_numbers(fp) == chern
    table = s_numbers(fp)
    assert table == chern_to_s(chern, spec.n)
    assert table[(spec.n,)] == euler_characteristic(spec)


def test_certificate_rejects_non_primitive_weight():
    fp = fp_of("CP2")
    w0 = fp[0].weights
    doubled = [FixedPoint(fp[0].rep, (tuple(2 * c for c in w0[0]),) + w0[1:], fp[0].sign)]
    assert _pole_free(fp)
    assert not _pole_free(doubled + list(fp[1:]))


def test_certificate_rejects_repeated_line():
    fp = fp_of("CP2")
    w0 = fp[0].weights
    for twin in (w0[0], tuple(-c for c in w0[0])):
        bad = [FixedPoint(fp[0].rep, (w0[0], twin), fp[0].sign)] + list(fp[1:])
        assert not _pole_free(bad)


def test_certificate_rejects_broken_sign():
    fp = fp_of("CP2")
    broken = [FixedPoint(fp[0].rep, fp[0].weights, -1)] + list(fp[1:])
    assert not _pole_free(broken)
    with pytest.raises(SingularSum) as exc:
        s_numbers(broken)
    with pytest.raises(SingularSum) as direct:
        symbolic_class(broken)
    assert str(exc.value) == str(direct.value)


def test_second_point_differs_in_weight_values():
    fp = fp_of("U(3)/T3")
    first, second = default_numeric_point(fp), second_numeric_point(fp)

    def values(point):
        return [sum(c * x for c, x in zip(w, point)) for pt in fp for w in pt.weights]
    assert 0 not in values(second)
    assert values(first) != values(second)
    assert point_chern_numbers(fp, first) == point_chern_numbers(fp, second)


def outcome(fn, fp):
    try:
        return "ok", fn(fp)
    except (SingularSum, NonIntegerClass) as exc:
        return type(exc).__name__, str(exc)


def check_routes(fp):
    """Certified: evaluator = symbolic character. Always: cobordism_class
    returns what symbolic_class returns, class or exception."""
    if _pole_free(fp):
        assert CobordismPoly(evaluated(fp)) == character_class(fp)
    assert outcome(cobordism_class, fp) == outcome(symbolic_class, fp)
    check_kernel_numerators(fp)


ROOTS = {"CP2": 2, "CP3": 3, "U(3)/T3": 3}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ROOTS)), st.data())
def test_random_root_signs_agree_with_symbolic(text, data):
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=ROOTS[text], max_size=ROOTS[text]))
    check_routes(fixed_point_weights(build_space(text, signs=tuple(signs))))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ROOTS)), st.data())
def test_random_sign_tables_agree_with_symbolic(text, data):
    spec = build_space(text)
    base = fixed_point_weights(spec)
    table = tuple(tuple(data.draw(st.sampled_from((1, -1))) for _ in pt.weights) for pt in base)
    epsilon = data.draw(st.sampled_from((1, -1)))
    check_routes(derived_fixed_point_data(spec, SignAssignment(table, epsilon)))


@pytest.mark.parametrize("argv", [("verify", "--space", "CP3"), ("genus", "--space", "CP3"),
                                  ("verify", "--space", "U(3)/T3", "--structure", "conjugate")],
                         ids=" ".join)
def test_one_character_per_run(monkeypatch, capsys, argv):
    orders = []
    build = genus.chern_character_of_genus

    def counted(fp, order):
        orders.append(order)
        return build(fp, order)
    monkeypatch.setattr(genus, "chern_character_of_genus", counted)
    assert main(list(argv)) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(orders) == 1
