"""Localization pipeline: characters, classes, s_omega, fibration data."""

from math import comb

import pytest

from torigen.exactalg import CobordismPoly, MultiPoly
from torigen.genus import (
    SingularPoint,
    SingularSum,
    TruncationTooLow,
    canonical_line,
    chern_character_of_genus,
    cobordism_class,
    default_numeric_point,
    f_of_form,
    genus_fibration_coefficients,
    genus_report,
    localization_data,
    s_number_numeric,
    s_numbers,
    verify_low_vanishing,
    weyl_invariance_ok,
)
from torigen.rootdata import FixedPoint, build_space, fixed_point_weights

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
