"""Localization pipeline: characters, classes, s_omega, fibration data."""

from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torigen.exactalg import CobordismPoly, MultiPoly
from torigen.genus import (
    NonIntegerClass,
    SingularPoint,
    SingularSum,
    TruncationTooLow,
    _pole_free,
    canonical_line,
    chern_character_of_genus,
    cobordism_class,
    default_numeric_point,
    f_of_form,
    genus_fibration_coefficients,
    genus_report,
    localization_data,
    point_s_numbers,
    s_number_numeric,
    s_numbers,
    second_numeric_point,
    symbolic_class,
    verify_low_vanishing,
    weyl_invariance_ok,
)
from torigen.divdiff import flag_class
from torigen.rootdata import FixedPoint, build_space, euler_characteristic, fixed_point_weights
from torigen.stablex import SignAssignment, derived_fixed_point_data
from torigen.symmfunc import omegas_of_weight

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


def test_f_of_form_series():
    fp = fp_of("CP1")
    loc = localization_data(fp)
    s = f_of_form(MultiPoly.linear_form(loc.arena, (1, -1)), 2, loc.arena)
    assert s.coeff((0, 0)) == CobordismPoly.const(1)
    assert s.coeff((1, 0)) == CobordismPoly.gen(1)
    assert s.coeff((0, 1)) == CobordismPoly.gen(1) * -1
    assert s.coeff((2, 0)) == CobordismPoly.gen(2)
    assert s.coeff((1, 1)) == CobordismPoly.gen(2) * -2


def test_cp1_character_blocks():
    fp = fp_of("CP1")
    ch = chern_character_of_genus(fp, 5)
    assert ch.coeff((0, 0)) == CobordismPoly.gen(1) * 2
    # odd blocks cancel between the two fixed points
    assert not ch.homogeneous_part(1)
    assert not ch.homogeneous_part(3)
    assert ch.coeff((2, 0)) == CobordismPoly.gen(3) * 2
    assert ch.coeff((1, 1)) == CobordismPoly.gen(3) * -4
    assert ch.coeff((0, 2)) == CobordismPoly.gen(3) * 2


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
    for text in ("CP1", "CP3", "U(3)/T3", "G2/SU(3)"):
        rep = verify_low_vanishing(fp_of(text))
        assert rep.ok and rep.level is None and rep.residue is None


def test_inconsistent_data_fails_cancellation():
    fp = fp_of("CP2")
    broken = [FixedPoint(fp[0].rep, fp[0].weights, -1)] + list(fp[1:])
    rep = verify_low_vanishing(broken)
    assert not rep.ok
    assert rep.level == 0
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
        assert weyl_invariance_ok(spec, fixed_point_weights(spec))


def test_fibration_coefficients_cp1():
    fp = fp_of("CP1")
    out = genus_fibration_coefficients(fp, 8, 6)
    assert out[(0, 0)] == CobordismPoly.gen(1) * 2
    # antidiagonal sums vanish: the two projections glue to a trivial total space
    for m in range(1, 7):
        acc = CobordismPoly()
        for i in range(m + 1):
            acc = acc + out.get((i, m - i), CobordismPoly())
        assert acc.is_zero()
    # single-generator part of [G_(i,j)], i+j = 2k, is (-1)^i 2 C(2k,i) a_{2k+1}
    for k in (1, 2, 3):
        for i in range(2 * k + 1):
            c = out[(i, 2 * k - i)].coeff((0,) * (2 * k) + (1,))
            assert c == (-1) ** i * 2 * comb(2 * k, i)
    with pytest.raises(TruncationTooLow):
        genus_fibration_coefficients(fp, 4, 6)


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


def character_class(fp):
    """Degree-0 block of the symbolic character, with no check on the class."""
    ch = chern_character_of_genus(fp, len(fp[0].weights))
    return ch.coeff((0,) * ch.arena.arity)


def evaluated(fp):
    return point_s_numbers(fp, default_numeric_point(fp))


@pytest.mark.parametrize("text,structure", SYMBOLIC_SPACES)
def test_evaluator_matches_symbolic_character(text, structure):
    fp = fp_of(text, structure)
    assert _pole_free(fp)
    table = evaluated(fp)
    assert set(table) == set(omegas_of_weight(len(fp[0].weights)))
    assert CobordismPoly(table) == character_class(fp)
    assert cobordism_class(fp) == CobordismPoly(table)
    assert s_numbers(fp) == table


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_evaluator_matches_projective_closed_form(n):
    # [CP^n] is the t^n coefficient of f(t)^(n+1): s_omega is a multinomial
    fp = fp_of("CP%d" % n)
    assert _pole_free(fp)
    for om, v in s_numbers(fp).items():
        rest = n + 1 - sum(om)
        assert v == factorial(n + 1) // (factorial(rest) * prod(factorial(m) for m in om))


def test_evaluator_matches_flag_route():
    fp = fp_of("U(5)/T5")
    assert _pole_free(fp)
    assert cobordism_class(fp) == flag_class(5)


@pytest.mark.parametrize("text", ["U(5)/U(1)xU(2)xU(2)", "U(6)/U(3)xU(3)"])
def test_evaluator_beyond_symbolic_reach(text):
    # the symbolic route takes minutes here: the sum must be the same at
    # unrelated points, integral, with top number chi
    spec = build_space(text)
    fp = fixed_point_weights(spec)
    assert _pole_free(fp)
    table = evaluated(fp)
    assert point_s_numbers(fp, second_numeric_point(fp)) == table
    assert point_s_numbers(fp, (3, -1, 4, -15, 9, 26)[:len(fp[0].weights[0])]) == table
    assert all(isinstance(v, int) for v in table.values())
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
    assert point_s_numbers(fp, first) == point_s_numbers(fp, second)


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
