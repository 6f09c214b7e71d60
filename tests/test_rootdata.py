"""Space parsing, Weyl cosets and fixed-point weight tables."""

import random
import time
from types import SimpleNamespace

import pytest

from torigen.rootdata import (
    M10_DESCRIPTOR,
    ParseError,
    UnsupportedGroup,
    apply_weyl,
    build_space,
    fixed_point_weights,
    simple_reflections,
    weyl_cosets,
)

from reference import (
    cosets_by_filter,
    euler_characteristic,
    first_of_each_coset,
    g2_closure,
    g2_subgroup,
    g2_weyl_group,
)

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
    fp = fixed_point_weights(spec)
    assert fp[0].weights == ((1, 0), (0, 1), (-1, -1))
    assert fp[1].weights == ((-1, 0), (1, 1), (0, -1))
    assert [pt.sign for pt in fp] == [1, 1]


def test_g2_cosets_are_the_first_of_each_coset():
    group, sub = g2_weyl_group(), g2_subgroup()
    assert len(group) == 12 and len(sub) == 6
    assert weyl_cosets(build_space("G2/SU(3)")) == first_of_each_coset(group, sub)


def test_simple_reflections_act_on_x():
    # W(G2) acts on x by the transposes of its matrices on weights
    g2 = simple_reflections(build_space("G2/SU(3)"))
    assert sorted(g2_closure(g2)) == sorted(tuple(zip(*g)) for g in g2_weyl_group())
    assert simple_reflections(build_space("U(3)/T3")) == [
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((1, 0, 0), (0, 0, 1), (0, 1, 0))]


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


PRESETS = ["CP%d" % n for n in range(1, 7)] + ["U(%d)/T%d" % (n, n) for n in range(2, 7)] + [
    "U(4)/U(2)xU(2)", "U(4)/U(1)xU(1)xU(2)", "U(5)/U(2)xU(3)", "U(5)/U(1)xU(2)xU(2)",
    "U(6)/U(3)xU(3)", "U(7)/U(2)xU(1)xU(4)", M10_DESCRIPTOR]


@pytest.mark.parametrize("text", PRESETS)
def test_cosets_match_the_permutation_filter(text):
    spec = build_space(text)
    assert weyl_cosets(spec) == cosets_by_filter(spec.blocks, spec.rank)


def test_cosets_match_the_filter_on_random_block_shapes():
    # contiguous blocks as the grammar builds them, and scattered ones, on
    # which the walk may dead-end but must still list the same permutations
    rng = random.Random(7)
    for _ in range(60):
        rank = rng.randint(1, 7)
        sizes = []
        while sum(sizes) < rank:
            sizes.append(rng.randint(1, rank - sum(sizes)))
        if len(sizes) > 1:
            spec = build_space("U(%d)/%s" % (rank, "x".join("U(%d)" % k for k in sizes)))
            assert weyl_cosets(spec) == cosets_by_filter(spec.blocks, spec.rank)
        positions = list(range(1, rank + 1))
        rng.shuffle(positions)
        blocks, start = [], 0
        for k in sizes:
            blocks.append(tuple(sorted(positions[start:start + k])))
            start += k
        spec = SimpleNamespace(family="A", rank=rank, blocks=tuple(blocks))
        assert weyl_cosets(spec) == cosets_by_filter(spec.blocks, rank)


def test_projective_cosets_do_not_walk_every_permutation():
    # CP10 has 11! = 39916800 permutations of its rank and 11 representatives;
    # the filter took 53.6 s on CP10 and the direct walk takes well under 1 ms
    spec = build_space("CP10")
    start = time.perf_counter()
    reps = weyl_cosets(spec)
    assert time.perf_counter() - start < 1.0
    assert reps == [tuple(j for j in range(11) if j != i) + (i,) for i in reversed(range(11))]
