"""Space parsing, Weyl cosets and fixed-point weight tables."""

import pytest

from torigen.rootdata import (
    M10_DESCRIPTOR,
    ParseError,
    UnsupportedGroup,
    apply_weyl,
    build_space,
    fixed_point_weights,
    g2_subgroup,
    g2_weyl_group,
    weyl_cosets,
)

from reference import euler_characteristic

CP3_WEIGHTS = [
    ((1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1)),
    ((1, 0, -1, 0), (0, 1, -1, 0), (0, 0, -1, 1)),
    ((1, -1, 0, 0), (0, -1, 1, 0), (0, -1, 0, 1)),
    ((-1, 1, 0, 0), (-1, 0, 1, 0), (-1, 0, 0, 1)),
]


def test_descriptor_parsing_and_grammar_errors():
    assert build_space("CP2").descriptor == "CP2"
    assert build_space("U(3)/T3").blocks == ((1,), (2,), (3,))
    assert build_space("U(4)/U(2)xU(2)").blocks == ((1, 2), (3, 4))
    assert build_space(M10_DESCRIPTOR).blocks == ((1, 2), (3,), (4,))
    assert build_space(" U(3) / T3 ").descriptor == "U(3)/T3"
    with pytest.raises(ParseError):
        build_space("")
    with pytest.raises(ParseError):
        build_space("U(4)/U(2)xU(3)")  # blocks exceed the rank
    with pytest.raises(ParseError):
        build_space("hello")
    with pytest.raises(UnsupportedGroup):
        build_space("SO(5)/U(2)")
    with pytest.raises(UnsupportedGroup):
        build_space("Sp(2)/T2")


def test_projective_and_subgroup_grammar_errors():
    with pytest.raises(ParseError, match="CPn needs n >= 1"):
        build_space("CP0")
    with pytest.raises(UnsupportedGroup, match=r"'Sp\(1\)'"):
        build_space("U(3)/U(2)xSp(1)")
    with pytest.raises(UnsupportedGroup, match="'T1'"):
        build_space("U(3)/U(2)xT1")
    with pytest.raises(ParseError, match=r"bad subgroup factor 'V\(1\)'"):
        build_space("U(3)/U(2)xV(1)")


def test_euler_characteristic_counts_cosets():
    for text, chi in (
        ("CP1", 2), ("CP2", 3), ("CP3", 4), ("CP5", 6),
        ("U(3)/T3", 6), ("U(4)/T4", 24),
        ("U(4)/U(2)xU(2)", 6), ("U(5)/U(2)xU(3)", 10),
        (M10_DESCRIPTOR, 12), ("G2/SU(3)", 2),
    ):
        spec = build_space(text)
        assert euler_characteristic(spec) == chi
        assert len(weyl_cosets(spec)) == chi
        assert len(fixed_point_weights(spec)) == chi


def test_complementary_roots_cross_blocks_only():
    spec = build_space("U(4)/U(2)xU(2)")
    assert spec.roots == (
        (1, 0, -1, 0), (1, 0, 0, -1), (0, 1, -1, 0), (0, 1, 0, -1),
    )
    assert build_space("CP2").roots == ((1, 0, -1), (0, 1, -1))


def test_cp3_weight_table():
    fp = fixed_point_weights(build_space("CP3"))
    assert [pt.weights for pt in fp] == [tuple(w) for w in CP3_WEIGHTS]
    assert all(pt.sign == 1 for pt in fp)


def test_g2_space():
    spec = build_space("G2/SU(3)")
    assert len(g2_weyl_group()) == 12
    assert len(g2_subgroup()) == 6
    fp = fixed_point_weights(spec)
    assert fp[0].weights == ((1, 0), (0, 1), (-1, -1))
    assert fp[1].weights == ((-1, 0), (1, 1), (0, -1))
    assert [pt.sign for pt in fp] == [1, 1]


def test_conjugate_structure_flips_weights():
    for text in ("CP2", "CP3", "U(3)/T3", "G2/SU(3)"):
        std = fixed_point_weights(build_space(text))
        conj = fixed_point_weights(build_space(text, structure="conjugate"))
        n = len(std[0].weights)
        for a, b in zip(std, conj):
            assert b.weights == tuple(tuple(-c for c in w) for w in a.weights)
            assert b.sign == a.sign * (-1) ** n


def test_explicit_signs_and_structure_names():
    spec = build_space("U(3)/T3", signs=(1, -1, 1))
    assert spec.structure_name == "custom"
    assert spec.signed_roots()[1] == (-1, 0, 1)
    assert build_space("CP2", signs=(-1, -1)).structure_name == "conjugate"
    with pytest.raises(ParseError):
        build_space("CP2", signs=(1,))
    with pytest.raises(ParseError):
        build_space("CP2", signs=(1, 2))
    with pytest.raises(ParseError):
        build_space("CP2", structure="standard", signs=(1, 1))


def test_j_presets_are_m10_only():
    for name, signs in (("J1", (1, 1, 1, 1, 1)),
                        ("J2", (1, -1, 1, -1, -1)),
                        ("J3", (1, -1, 1, -1, 1))):
        spec = build_space(M10_DESCRIPTOR, structure=name)
        assert spec.signs == signs
        assert spec.structure_name == name
        assert all(pt.sign == 1 for pt in fixed_point_weights(spec))
    with pytest.raises(ParseError):
        build_space("U(3)/T3", structure="J1")
    with pytest.raises(ParseError):
        build_space(M10_DESCRIPTOR, structure="J9")


def test_apply_weyl_permutes_coordinates():
    spec = build_space("U(3)/T3")
    # x_i -> x_{rep(i)}: the coefficient of x_i lands at slot rep(i)
    assert apply_weyl(spec, (1, 2, 0), (1, -1, 0)) == (0, 1, -1)
    g2 = build_space("G2/SU(3)")
    assert apply_weyl(g2, ((0, 1), (1, 0)), (1, 0)) == (0, 1)


def test_coset_representatives_increase_on_blocks():
    spec = build_space("U(4)/U(2)xU(2)")
    reps = weyl_cosets(spec)
    assert len(reps) == 6
    for rep in reps:
        assert rep[0] < rep[1] and rep[2] < rep[3]
    assert reps == sorted(reps)
