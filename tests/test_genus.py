"""Localization pipeline: characters, classes, s_omega, Chern numbers.

The point engine (genus, character) is checked against the symbolic kernel
and character of tests/reference.py, and that oracle against omega_numerator.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torigen import CheckFailure, character, chern, genus, residues
from torigen.character import character_blocks, genus_report, weyl_invariance_failure
from torigen.chern import chern_to_s, s_to_chern
from torigen.cli import main
from torigen.cobordism import CobordismPoly
from torigen.genus import (
    NonIntegerClass,
    SingularPoint,
    SingularSum,
    _pole_free,
    canonical_line,
    check_poles,
    chern_numbers,
    cobordism_class,
    default_numeric_point,
    form_values,
    line_groups,
    line_sums,
    point_chern_numbers,
    point_terms,
    s_number_numeric,
    s_numbers,
)
from torigen.divdiff import flag_class
from torigen.rootdata import FixedPoint, build_space, fixed_point_weights
from torigen.stablex import SignAssignment, derived_fixed_point_data
from torigen.symmfunc import omega_weight, omegas_of_weight

from test_golden_localize import SPACES as GOLDEN_SPACES

from reference import (
    G2_DESCRIPTOR,
    MultiPoly,
    block_coefficient,
    character_numerator,
    chern_character_of_genus,
    degree_zero_point,
    denominator_lines,
    e_monomials,
    euler_characteristic,
    f_product_sum,
    g2_weyl_group,
    kernel_coefficient,
    localization_data,
    omega_numerator,
    omega_blocks,
    omega_numerator_values,
    omegas_up_to,
    RingPoly,
    permute,
    ring,
    substitute,
    symbolic_class,
    unitary_blocks,
    weyl_invariance_by_substitution,
    xvars,
)

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
    blocks = f_product_sum(loc.arena, [([(1, -1)], MultiPoly.const(loc.arena, 1))], 2)
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
        for om, block in f_product_sum(loc.arena, [(pt.weights, MultiPoly.const(loc.arena, 1))], order).items():
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
    ch = omega_blocks(character_blocks(fp, 5))
    assert block_coefficient(ch, (0, 0)) == RingPoly.gen(1) * 2
    # odd degrees cancel between the two fixed points: block omega has
    # x-degree ||omega|| - 1, so every block left has odd weight
    assert all(omega_weight(om) % 2 == 1 for om in ch)
    assert block_coefficient(ch, (2, 0)) == RingPoly.gen(3) * 2
    assert block_coefficient(ch, (1, 1)) == RingPoly.gen(3) * -4
    assert block_coefficient(ch, (0, 2)) == RingPoly.gen(3) * 2


def test_class_goldens():
    assert cobordism_class(fp_of("U(3)/T3")).canonical_text() == U3T3
    assert cobordism_class(fp_of("U(4)/U(2)xU(2)")).canonical_text() == G42


def test_conjugate_structure_classes():
    # all weights negated: s_omega picks up (-1)^n
    std = cobordism_class(fp_of("G2/SU(3)"))
    conj = cobordism_class(fp_of("G2/SU(3)", structure="conjugate"))
    assert conj == ring(std) * -1
    assert cobordism_class(fp_of("CP2", structure="conjugate")) == cobordism_class(fp_of("CP2"))


def test_low_vanishing_reports():
    # the blocks exist only where no block has a pole, so the low blocks vanish
    for text in ("CP1", "CP3", "U(3)/T3", "G2/SU(3)"):
        fp = fp_of(text)
        assert check_poles(fp, len(fp[0].weights) + 1) is None
        character_blocks(fp, len(fp[0].weights))


def test_inconsistent_data_fails_cancellation():
    fp = fp_of("CP2")
    broken = [FixedPoint(fp[0].rep, fp[0].weights, -1)] + list(fp[1:])
    n = len(fp[0].weights)
    # the first low block, t^0, has a pole: the symbolic character's
    # numerator block of degree D - n does not cancel
    low = localization_data(broken).denom.degree() - n
    with pytest.raises(SingularSum, match="^degree-%d numerator block does not cancel: " % low) as oracle:
        chern_character_of_genus(broken, n)
    with pytest.raises(SingularSum, match=r"^block omega=\[0, 0\] has a pole: residue -?\d+(/\d+)? at ") as exc:
        character_blocks(broken, n)
    assert exc.value.omega == oracle.value.omega == ()
    with pytest.raises(SingularSum) as cls:
        cobordism_class(broken)
    assert str(cls.value) == str(exc.value)


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
        ch = character_blocks(fixed_point_weights(spec), spec.n + 1)
        assert all(isinstance(block, dict) for block in ch.values())
        assert weyl_invariance_failure(spec, ch) is None


def _plus_x1(block, power=1):
    """block plus x1^power."""
    e = (power,) + (0,) * (len(next(iter(block))) - 1)
    return {**block, e: block.get(e, 0) + 1}


def _moved_term(ch):
    """ch with x1 added to its largest block."""
    om, block = max(ch.items())
    return {**ch, om: _plus_x1(block)}


def test_weyl_invariance_fails_on_a_moved_term():
    # x1 added to one a^omega block: a transposition of U(3) moves it to x2,
    # and it is not fixed by both G2 reflections, as no nonzero linear form
    # is; the block is the constant 6 on U(3)/T3 and 2 on G2/SU(3). The
    # check takes any blocks, and names the key of the failing one "xi"
    for text, point, values in (("U(3)/T3", [1, 0, 0], ("7", "6")), ("G2/SU(3)", [1, 0], ("3", "1"))):
        spec = build_space(text)
        ch = _moved_term(omega_blocks(character_blocks(fixed_point_weights(spec), spec.n + 1)))
        assert weyl_invariance_failure(spec, ch) == {
            "xi": [3, 0, 0], "reflection": 1, "point": point,
            "block_at_p": values[0], "block_at_sp": values[1]}
    # x1^2 added to a block of degree 2 at order n + 2: a transposition of
    # U(3) moves it to x2^2, and the long reflection of G2 swaps x1 and x2
    for text, reflection in (("U(3)/T3", 1), ("G2/SU(3)", 2)):
        spec = build_space(text)
        ch = omega_blocks(character_blocks(fixed_point_weights(spec), spec.n + 2))
        assert weyl_invariance_failure(spec, ch) is None
        om = max(om for om in ch if omega_weight(om) == spec.n + 2)
        block = ch[om]
        assert max(map(sum, block)) == 2
        ch[om] = _plus_x1(block, 2)
        failure = weyl_invariance_failure(spec, ch)
        assert (failure["xi"], failure["reflection"]) == ([2, 0, 1], reflection)


@pytest.mark.parametrize("verb", ["verify", "genus"])
def test_weyl_invariance_failure_names_its_evidence(verb, monkeypatch, capsys):
    # the verbs read the character with x1 added to its largest block, the
    # equivariant Chern number c1^3, the constant 48 on U(3)/T3
    real = character.character_blocks
    monkeypatch.setattr(character, "character_blocks", lambda *args: _moved_term(real(*args)))
    assert main([verb, "--space", "U(3)/T3"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert failed == ["check weyl_invariance: FAIL at xi=[3, 0, 0], reflection=1, point=[1, 0, 0], "
                      "block_at_p=49, block_at_sp=48"]
    assert main([verb, "--space", "U(3)/T3", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["checks"]["weyl_invariance"] is False
    assert data["evidence"] == {"weyl_invariance": {"xi": [3, 0, 0], "reflection": 1, "point": [1, 0, 0],
                                                    "block_at_p": "49", "block_at_sp": "48"}}


@pytest.mark.parametrize("space", GOLDEN_SPACES, ids=" ".join)
def test_weyl_verdict_on_the_chern_blocks_is_that_on_the_omega_blocks(space):
    # at each weight the a^omega blocks are chern_to_s of the c^xi blocks,
    # an invertible integer combination, so the check reaches one verdict on
    # both: on the character, and with x1 added to its largest block
    spec = golden_spec(space)
    try:
        ch = character_blocks(fixed_point_weights(spec), spec.n + 1)
    except SingularSum:
        return
    verdicts = [weyl_invariance_failure(spec, blocks) is None for blocks in (ch, _moved_term(ch))]
    assert verdicts == [weyl_invariance_failure(spec, omega_blocks(blocks)) is None
                        for blocks in (ch, _moved_term(ch))]
    assert verdicts == [True, False]


def _weyl_group_on_x(spec):
    """Every element of W_G as a map on polynomials in x."""
    if spec.descriptor == G2_DESCRIPTOR:
        return [lambda p, M=M: substitute(p, {i: MultiPoly.linear_form(p.arena, (M[0][i], M[1][i]))
                                              for i in range(2)})
                for M in g2_weyl_group()]
    rank = sum(map(len, unitary_blocks(spec.descriptor)))
    return [lambda p, perm=perm: permute(p, perm) for perm in permutations(range(rank))]


def _random_poly(rng, arena, degree):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = [0] * arena.arity
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(arena.arity)] += 1
        terms[tuple(e)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
    return MultiPoly(arena, terms)


@pytest.mark.parametrize("text", ["U(3)/T3", "U(4)/U(2)xU(2)", "G2/SU(3)"])
def test_weyl_invariance_matches_substitution(text):
    # seeded polynomials of degree <= 4, homogeneous or not: each raw,
    # averaged over W_G, and averaged with a noise term added
    spec = build_space(text)
    group = _weyl_group_on_x(spec)
    arena = xvars(spec.rank)
    rng = random.Random(20)
    verdicts = set()
    for _ in range(20):
        p = _random_poly(rng, arena, 4)
        avg = sum((g(p) for g in group), MultiPoly(arena)) * Fraction(1, len(group))
        for q in (p, avg, avg + _random_poly(rng, arena, 4)):
            expected = weyl_invariance_by_substitution(spec, {(1,): q})
            assert (weyl_invariance_failure(spec, {(1,): q.terms}) is None) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_genus_report_shape():
    rep, cls = genus_report(build_space("CP2"))
    assert cls.canonical_text() == "3*a1^2 + 3*a2"
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


def check_blocks_by_values(fp):
    """The blocks of character_blocks at order n + 1 equal omega_numerator
    over the common denominator: block omega times the denominator and
    omega_numerator are homogeneous of degree D + ||omega|| - n, so they are
    compared by their values, in integers, at the points of N^k whose
    coordinates sum to that degree. Two such polynomials that agree there
    agree on the hyperplane of that sum, and so everywhere. Where the sum has
    poles, character_blocks must raise, naming a low block or a block of
    weight n whose numerator does not vanish there."""
    n, k = len(fp[0].weights), len(fp[0].weights[0])
    D = sum(denominator_lines(fp).values())
    try:
        blocks = omega_blocks(character_blocks(fp, n + 1))
    except SingularSum as exc:
        weight = omega_weight(exc.omega)
        assert weight <= n
        if weight < n:
            point = tuple(range(2, k + 2))
            assert omega_numerator_values(fp, point, weight)[1][exc.omega] != 0
        return
    arena = xvars(k)
    for weight in (n, n + 1):
        for picks in combinations_with_replacement(range(k), D + weight - n):
            point = tuple(picks.count(i) for i in range(k))
            den, values = omega_numerator_values(fp, point, weight)
            for om, value in values.items():
                assert MultiPoly(arena, blocks.get(om, {})).evaluate(point) * den == value, (om, point)


@pytest.mark.parametrize("text,structure", SYMBOLIC_SPACES)
def test_kernel_matches_omega_numerator(text, structure):
    check_blocks_by_values(fp_of(text, structure))


@pytest.mark.parametrize("text,signs", GOLDEN_SIGNS)
def test_kernel_matches_omega_numerator_signed(text, signs):
    check_blocks_by_values(fixed_point_weights(build_space(text, signs=signs)))


@pytest.mark.parametrize("text", ["CP2", "CP3", "U(3)/T3"])
def test_symbolic_kernel_matches_omega_numerator(text):
    # the oracle against itself: the kernel's numerators against the
    # substituted m_lambda, and those against their values in integers
    fp = fp_of(text)
    check_kernel_numerators(fp)
    loc = localization_data(fp)
    n, k = len(fp[0].weights), len(fp[0].weights[0])
    for point in ((1,) + (0,) * (k - 1), tuple(range(2, k + 2)), tuple((-3) ** i for i in range(k))):
        for weight in range(n + 2):
            den, values = omega_numerator_values(fp, point, weight)
            assert den == loc.denom.evaluate(point)
            for om, value in values.items():
                # m_lambda of n numbers vanishes when lambda has more parts
                want = omega_numerator(fp, loc, om).evaluate(point) if sum(om) <= n else 0
                assert value == want, (om, point)


@pytest.mark.parametrize("text,structure,signs,order", [
    ("SU(4)/S(U(1)xU(1)xU(2))", "J2", None, 6), ("CP4", None, None, 5),
    ("U(4)/U(1)xU(1)xU(2)", None, None, 6), ("U(4)/U(1)xU(1)xU(2)", None, (1, -1, -1, 1, 1), 6),
    ("G2/SU(3)", None, None, 9), ("CP3", None, None, 6), ("U(3)/T3", None, None, 5), ("CP1", None, None, 7)])
def test_blocks_match_the_symbolic_character(text, structure, signs, order):
    # coefficient by coefficient, the order-n + 1 blocks and deeper ones
    fp = fixed_point_weights(build_space(text, structure=structure, signs=signs))
    oracle = chern_character_of_genus(fp, order)
    assert omega_blocks(character_blocks(fp, order)) == {om: block.terms for om, block in oracle.items()}


@lru_cache(maxsize=None)
def _blocks_and_lattice(text):
    """(fp, n, the character at order n + 2, the lattice points it read)."""
    fp = fp_of(text)
    n, k = len(fp[0].weights), len(fp[0].weights[0])
    points = genus.lattice([w for pt in fp for w in pt.weights], range(k), k, 2)
    return fp, n, character_blocks(fp, n + 2), {tuple(z) for d in range(3) for z in points(d)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["CP2", "CP3", "U(3)/T3", "G2/SU(3)", "U(4)/U(2)xU(2)"]), st.data())
def test_a_block_read_by_value_is_the_localization_sum_there(text, data):
    # off the determining set the blocks were read on, each block's value at
    # a point where no weight vanishes is the localization sum at that point:
    # the S^6 row of reproduce reads its blocks this way
    fp, n, ch, read = _blocks_and_lattice(text)
    k = len(fp[0].weights[0])
    z = tuple(data.draw(st.lists(st.integers(-30, 30), min_size=k, max_size=k)))
    assume(z not in read and all(sum(a * b for a, b in zip(w, z)) for pt in fp for w in pt.weights))
    for w in range(n, n + 3):
        at = point_chern_numbers(fp, z, w)
        assert {xi: character.block_value(ch.get(xi, {}), z) for xi in omegas_of_weight(w)} == at


def character_class(fp):
    """Constant terms of the symbolic character's blocks, with no check on the class."""
    ch = chern_character_of_genus(fp, len(fp[0].weights))
    return kernel_coefficient(ch, (0,) * len(fp[0].weights[0]))


def evaluated(fp):
    """The s-numbers of the sum at the default point, as beta times its Chern numbers."""
    return chern_to_s(point_chern_numbers(fp, default_numeric_point(fp)), len(fp[0].weights))


@pytest.mark.parametrize("text,structure", SYMBOLIC_SPACES)
def test_evaluator_matches_symbolic_character(text, structure):
    fp = fp_of(text, structure)
    assert _pole_free(line_sums(fp))
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
    assert _pole_free(line_sums(fp))
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
    assert _pole_free(line_sums(fp))
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


def test_point_terms_are_the_product_and_the_e_monomials():
    # the second point above: c = (5, -3), prod c = -15, e = (2, -15); the
    # plan to order 2 lists (), (1,), (0, 1), (2,)
    pt = FixedPoint(1, ((1, 1), (0, -1)), 1)
    cs = form_values(pt.weights, (2, 3))
    assert cs == [5, -3] and prod(cs) == -15
    assert genus.plan(2)[0] == ((), (1,), (0, 1), (2,))
    assert point_terms(cs, 2) == [1, 2, -15, 4]
    with pytest.raises(SingularPoint, match=r"weight \(0, -1\) vanishes at \(2, 0\)"):
        form_values(pt.weights, (2, 0))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)), max_size=7),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)), st.integers(0, 12))
def test_the_plan_gives_the_e_monomials(forms, point, order):
    # one multiplication per xi, parent first, against the product of
    # powers; the plan lists every xi of weight <= order, those with a part
    # above the number of forms too, whose value is 0
    cs = [sum(a * x for a, x in zip(v, point)) for v in forms]
    xis = genus.plan(order)[0]
    assert list(xis) == omegas_up_to(order)
    values = point_terms(cs, order)
    assert values == e_monomials(cs, xis)
    assert all(v == 0 for xi, v in zip(xis, values) if len(xi) > len(cs))


def test_line_groups_key_the_other_weights_modulo_the_line():
    # weights x1 - x2 and x2 - x3 at (1, 2, 3): the first lies on line
    # (1, -1, 0) with orientation 1, the second on (0, 1, -1); modulo the
    # first line, x2 - x3 is 1 * (0, 1, -1) - 0 * (1, -1, 0)
    pt = FixedPoint(0, ((1, -1, 0), (0, -1, 1)), 1)
    assert line_groups(pt) == [(((1, -1, 0), ((0, -1, 1),)), 1), (((0, 1, -1), ((1, 0, -1),)), -1)]
    assert line_groups(FixedPoint(0, ((2, -2, 0), (0, 1, -1)), 1)) is None
    assert line_groups(FixedPoint(0, ((1, -1, 0), (-1, 1, 0)), 1)) is None


def _open_groups(fp):
    """{line: {key: sum}} of the groups of line_groups whose sum is not 0,
    recounted in full over every point."""
    full = {}
    for pt in fp:
        for (line, key), orient in line_groups(pt):
            full.setdefault(line, Counter())[key] += pt.sign * orient
    return {line: {key: c for key, c in groups.items() if c} for line, groups in full.items()}


def _m10_table(seed):
    """A sign table of the SU(4) quotient: for a tuple seed, the invariant
    one with that sign vector (a, b, a, b, c) at every point, one sign per
    isotropy summand; else a random one of that seed."""
    base = fixed_point_weights(build_space(M10))
    if isinstance(seed, tuple):
        return (seed,) * len(base)
    rng = random.Random(seed)
    return tuple(tuple(rng.choice((1, -1)) for _ in pt.weights) for pt in base)


@pytest.mark.parametrize("text, options, certified", [
    *[("CP%d" % n, {}, True) for n in range(1, 9)],
    *[("U(%d)/T%d" % (n, n), {}, True) for n in range(3, 6)],
    ("U(4)/U(2)xU(2)", {}, True), ("U(5)/U(2)xU(3)", {}, True), ("G2/SU(3)", {}, True),
    *[(M10, {"structure": j}, True) for j in ("J1", "J2", "J3")],
    ("CP2", {"signs": (1, -1)}, False), ("U(4)/U(1)xU(1)xU(2)", {"signs": (1, -1, 1, -1, 1)}, False),
    *[(M10, {"table": seed}, isinstance(seed, tuple)) for seed in ((1, -1, 1, -1, 1), (1, 1, 1, 1, -1), 0, 1)],
], ids=str)
def test_the_certificate_holds_exactly_the_open_groups(text, options, certified):
    # line_sums drops a group when its running sum returns to 0: it holds
    # the full recount less its closed groups, every line kept, so a
    # certified table holds no group at all; the sign tables of the SU(4)
    # quotient have lines of 33 groups whose residue rows reach rank 27
    if "table" in options:
        spec = build_space(text)
        fp = derived_fixed_point_data(spec, SignAssignment(_m10_table(options["table"]), 1))
    else:
        fp = fixed_point_weights(build_space(text, **options))
    sums = line_sums(fp)
    assert sums == _open_groups(fp)
    assert _pole_free(sums) == certified == all(groups == {} for groups in sums.values())


@pytest.mark.parametrize("text", ["U(5)/U(1)xU(2)xU(2)", "U(6)/U(3)xU(3)"])
def test_evaluator_beyond_symbolic_reach(text):
    # the symbolic route takes minutes here: the sum must be the same at
    # unrelated points, integral, with top number chi
    spec = build_space(text)
    fp = fixed_point_weights(spec)
    assert _pole_free(line_sums(fp))
    chern = point_chern_numbers(fp, default_numeric_point(fp))
    assert point_chern_numbers(fp, degree_zero_point(fp)) == chern
    assert point_chern_numbers(fp, (3, -1, 4, -15, 9, 26)[:len(fp[0].weights[0])]) == chern
    assert all(isinstance(v, int) for v in chern.values())
    assert chern_numbers(fp) == chern
    table = s_numbers(fp)
    assert table == chern_to_s(chern, spec.n)
    assert table[(spec.n,)] == euler_characteristic(spec)


def test_certificate_rejects_non_primitive_weight():
    fp = fp_of("CP2")
    w0 = fp[0].weights
    doubled = [FixedPoint(fp[0].rep, (tuple(2 * c for c in w0[0]),) + w0[1:], fp[0].sign)] + list(fp[1:])
    assert _pole_free(line_sums(fp))
    assert not _pole_free(line_sums(doubled))
    # no grammar space or --signs structure has such a weight, as every root
    # is primitive; library input that does is refused by the residues (exit 1)
    for engine in (chern_numbers, s_numbers, cobordism_class):
        with pytest.raises(CheckFailure, match="the residues need primitive weights on distinct lines"):
            engine(doubled)


def test_certificate_rejects_repeated_line():
    fp = fp_of("CP2")
    w0 = fp[0].weights
    for twin in (w0[0], tuple(-c for c in w0[0])):
        bad = [FixedPoint(fp[0].rep, (w0[0], twin), fp[0].sign)] + list(fp[1:])
        assert not _pole_free(line_sums(bad))


def test_certificate_rejects_broken_sign():
    fp = fp_of("CP2")
    broken = [FixedPoint(fp[0].rep, fp[0].weights, -1)] + list(fp[1:])
    assert not _pole_free(line_sums(broken))
    with pytest.raises(SingularSum) as exc:
        s_numbers(broken)
    with pytest.raises(SingularSum) as direct:
        symbolic_class(broken)
    assert exc.value.omega == direct.value.omega


def test_second_point_differs_in_weight_values():
    fp = fp_of("U(3)/T3")
    first, second = default_numeric_point(fp), degree_zero_point(fp)

    def values(point):
        return [sum(c * x for c, x in zip(w, point)) for pt in fp for w in pt.weights]
    assert 0 not in values(second)
    assert values(first) != values(second)
    assert point_chern_numbers(fp, first) == point_chern_numbers(fp, second)


def golden_spec(space):
    """The space of one golden SPACES entry: a descriptor, then nothing,
    --structure NAME or --signs=...."""
    text, *options = space
    if not options:
        return build_space(text)
    if options[0] == "--structure":
        return build_space(text, structure=options[1])
    return build_space(text, signs=tuple(int(c) for c in options[0].split("=")[1].split(",")))


@pytest.mark.parametrize("space", GOLDEN_SPACES, ids=" ".join)
def test_both_numeric_points_on_every_golden_space(space):
    # both nonsingular and not proportional: a sum of degree 0 agrees at
    # any two proportional points, so numeric_agreement would check
    # nothing; where the sum has no poles, the same Chern numbers, and the
    # second point's are the character's blocks of degree 0
    fp = fixed_point_weights(golden_spec(space))
    first, second = default_numeric_point(fp), degree_zero_point(fp)
    for point in (first, second):
        assert all(sum(c * x for c, x in zip(w, point)) for pt in fp for w in pt.weights)
    assert any(a * d != b * c for (a, b), (c, d) in combinations(zip(first, second), 2))
    if _pole_free(line_sums(fp)):
        assert point_chern_numbers(fp, first) == point_chern_numbers(fp, second)
        n, zero = len(fp[0].weights), (0,) * len(first)
        blocks = character_blocks(fp, n + 1)
        assert {xi: blocks.get(xi, {}).get(zero, 0) for xi in omegas_of_weight(n)} == point_chern_numbers(fp, second)


def outcome(fn, fp):
    """ok and the class, or the failure's type and the omega it names."""
    try:
        return "ok", fn(fp)
    except (SingularSum, NonIntegerClass) as exc:
        return type(exc).__name__, exc.omega


def check_routes(fp):
    """Certified: evaluator = symbolic character. Always: cobordism_class
    reaches the verdict of symbolic_class, on the same omega, and on a pass
    the same class."""
    if _pole_free(line_sums(fp)):
        assert CobordismPoly(evaluated(fp)) == character_class(fp)
    assert outcome(cobordism_class, fp) == outcome(symbolic_class, fp)


ROOTS = {"CP2": 2, "CP3": 3, "U(3)/T3": 3}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ROOTS)), st.data())
def test_random_root_signs_agree_with_symbolic(text, data):
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=ROOTS[text], max_size=ROOTS[text]))
    fp = fixed_point_weights(build_space(text, signs=tuple(signs)))
    check_routes(fp)
    check_kernel_numerators(fp)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ROOTS)), st.data())
def test_random_sign_tables_agree_with_symbolic(text, data):
    spec = build_space(text)
    base = fixed_point_weights(spec)
    table = tuple(tuple(data.draw(st.sampled_from((1, -1))) for _ in pt.weights) for pt in base)
    epsilon = data.draw(st.sampled_from((1, -1)))
    fp = derived_fixed_point_data(spec, SignAssignment(table, epsilon))
    check_routes(fp)
    check_kernel_numerators(fp)


RESIDUE_SPACES = ["CP3", "U(3)/T3", "U(4)/U(2)xU(2)", M10]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RESIDUE_SPACES), st.data())
def test_residues_agree_with_the_oracle(text, data):
    # sign tables that the certificate mostly does not pass: the residues
    # of check_poles against the symbolic class
    spec = build_space(text)
    base = fixed_point_weights(spec)
    table = tuple(tuple(data.draw(st.sampled_from((1, -1))) for _ in pt.weights) for pt in base)
    check_routes(derived_fixed_point_data(spec, SignAssignment(table, 1)))


def test_a_planted_residue_that_vanishes_at_the_first_points_is_a_pole(monkeypatch):
    # along x1 = 0, groups with keys x2 and x3 and sums 1 and -2 leave the
    # residue 1/x2 - 2/x3 of the block of weight 0: zero on the line x3 = 2 x2,
    # which holds the first of the two points of the determining set, and
    # nowhere else
    planted = {(1, 0, 0): {((0, 1, 0),): 1, ((0, 0, 1),): -2}}
    monkeypatch.setattr(genus, "line_sums", lambda fp: planted)
    keys, weights = zip(*sorted(planted[(1, 0, 0)].items()))
    res = residues._ResidueLine((1, 0, 0), keys, 2, 2)
    first = res.points(0)[0]
    assert len(res.points(0)) == 2
    assert first[2] == 2 * first[1] and first_nonzero(res.rows(0), weights, ()) is not None
    _, rows = residues.residue_rows(keys, first, 2)
    assert sum(c * r for c, r in zip(weights, rows[()])) == 0
    with pytest.raises(SingularSum) as exc:
        check_poles([FixedPoint(None, ((1, 0, 0), (0, 1, 0)), 1)], 2)
    assert exc.value.omega == () and str(exc.value).endswith("on x1 = 0")
    assert "at (0, %d, %d)" % tuple(first[1:]) not in str(exc.value)


@pytest.mark.parametrize("text,signs", [("CP3", (1, 1, -1)), ("U(4)/U(1)xU(1)xU(2)", (1, -1, 1, -1, 1))])
def test_a_residue_line_holds_its_last_free_coordinate_at_the_shift(text, signs):
    # points(w) is the simplex of degree d in the free coordinates but the
    # last, C(len(free) - 1 + d, d) points, shifted by m b with b the powers
    # of one base: the shift comes first, and the last free coordinate and
    # the line's first nonzero one never move
    fp = fixed_point_weights(build_space(text, signs=signs))
    n = len(fp[0].weights)
    for line, groups in sorted(genus.line_sums(fp).items()):
        keys = [key for key, c in sorted(groups.items()) if c]
        if not keys:
            continue
        res = residues._ResidueLine(line, keys, n, n + 1)
        free = [j for j in range(len(line)) if j != res.i]
        shift = res.points(n + 1)[0]
        base = shift[free[1]] // shift[free[0]]
        assert base >= 2 and all(shift[j] == shift[free[0]] * base ** r for r, j in enumerate(free))
        for w in range(n + 2):
            d = w - (n - 1) + res.clear
            points = res.points(w)
            assert len(points) == (comb(len(free) - 1 + d, d) if d >= 0 else 0)
            assert all(z[res.i] == 0 and z[free[-1]] == shift[free[-1]] for z in points)
            assert points[:1] == ([shift] if d >= 0 else [])
            assert len({tuple(z) for z in points}) == len(points)


def test_residue_lines_and_character_blocks_take_their_points_from_the_lattice(monkeypatch):
    # every point that the residues, the character and the default numeric
    # point read is one of genus.lattice's, built once per line, once per
    # character and once for the point; the character reads the blocks of
    # weight n + d at exactly its points(d), and no residue row
    built, lattices, reads, values = [], [], [], []
    lattice, read, evaluate = genus.lattice, residues.residue_rows, genus.point_chern_numbers

    def recorded(vectors, coords, size, top):
        built.append((tuple(coords), top))
        points = lattice(vectors, coords, size, top)
        lattices.append(points)
        return points
    monkeypatch.setattr(genus, "lattice", recorded)
    monkeypatch.setattr(residues, "residue_rows", lambda keys, z, order: reads.append(list(z)) or read(keys, z, order))
    monkeypatch.setattr(genus, "point_chern_numbers",
                        lambda fp, z, weight=None: values.append((list(z), weight)) or evaluate(fp, z, weight))
    fp = fixed_point_weights(build_space("CP3", signs=(1, 1, -1)))
    with pytest.raises(SingularSum):
        check_poles(fp, 4)
    lines = len(built)
    assert lines == len([line for line, groups in genus.line_sums(fp).items() if any(groups.values())])
    assert reads and all(any(z in points(top) for points, (_, top) in zip(lattices, built)) for z in reads)
    del reads[:]
    character_blocks(fixed_point_weights(build_space("CP2")), 4)
    assert built[lines:] == [((0, 1, 2), 2)]
    assert values == [(z, 2 + d) for d in range(3) for z in lattices[-1](d)]
    assert reads == []
    point = default_numeric_point(fp)
    assert built[-1] == ((0, 1, 2, 3), 1) and list(point) in lattices[-1](1)


def test_residues_that_cancel_across_groups_are_no_pole(monkeypatch):
    # along x1 = 0, keys s x2 for s = 1..4 with sums 1, -6, 9, -4: no group
    # cancels, yet the residues of the blocks of weight <= 2, the sums of
    # c_g / (s x2), of c_g and of c_g s x2, all vanish, and check_poles must
    # prove it; with the last sum changed they do not
    planted = {(1, 0, 0): {((0, s, 0),): c for s, c in zip((1, 2, 3, 4), (1, -6, 9, -4))}}
    monkeypatch.setattr(genus, "line_sums", lambda fp: planted)
    fp = [FixedPoint(None, ((1, 0, 0), (0, 1, 0)), 1)]
    assert not _pole_free(genus.line_sums(fp))
    assert check_poles(fp, 2) is None
    planted[(1, 0, 0)][((0, 4, 0),)] = -3
    with pytest.raises(SingularSum):
        check_poles(fp, 2)


def first_nonzero(rows, weights, omega):
    """(point, common, value times common) at the first of rows, as
    _ResidueLine.rows gives them, where sum_g c_g R_g of block omega is not
    0; None when it is 0 at all of them."""
    for point, common, row in rows:
        value = sum(c * r for c, r in zip(weights, row[omega]))
        if value:
            return point, common, value
    return None


def first_nonzero_at_full_order(res, weights, omega, order):
    """What first_nonzero gives when every point of the determining set is
    read to the full order."""
    points = res.points(omega_weight(omega))
    return first_nonzero([(z,) + residues.residue_rows(res.keys, z, order) for z in points], weights, omega)


@pytest.mark.parametrize("text,signs", [("CP2", (1, -1)), ("CP3", (1, 1, -1)), ("CP3", (1, -1, -1)),
                                        ("U(4)/U(1)xU(1)xU(2)", (1, -1, 1, -1, 1))])
def test_residues_by_weight_match_the_full_order(monkeypatch, text, signs):
    # each point read only to the weight of the block asked for gives the
    # point, denominator and value of reading it to order n + 1, whether the
    # weights rise, as in check_residues, or rise and fall; each weight's
    # points are read once, and a lower weight's set is a prefix of a higher's
    fp = fixed_point_weights(build_space(text, signs=signs))
    n = len(fp[0].weights)
    sums = genus.line_sums(fp)
    groups = [(line, [(key, c) for key, c in sorted(sums[line].items()) if c]) for line in sorted(sums)]
    omegas = [om for w in range(n + 2) for om in omegas_of_weight(w)]
    shuffled = random.Random(7).sample(omegas, len(omegas))
    read, reads = residues.residue_rows, []
    monkeypatch.setattr(residues, "residue_rows",
                        lambda keys, z, order: reads.append(order) or read(keys, z, order))
    hits = 0
    for line, kept in groups:
        if not kept:
            continue
        keys, weights = zip(*kept)
        res, seen = residues._ResidueLine(line, keys, n, n + 1), set()
        for om in omegas + shuffled:
            w = omega_weight(om)
            expected = first_nonzero_at_full_order(res, weights, om, n + 1)
            reads.clear()
            assert first_nonzero(res.rows(w), weights, om) == expected
            assert reads == ([] if w in seen else [w] * len(res.points(w)))
            seen.add(w)
            hits += expected is not None
        for w in range(n + 1):
            assert res.points(w + 1)[:len(res.points(w))] == res.points(w)
    assert hits


@pytest.mark.parametrize("text", ["CP2", "U(3)/T3"])
def test_genus_reads_the_character_at_order_n_plus_one(monkeypatch, text):
    orders = []
    build = character.character_blocks

    def recorded(fp, order, sums):
        orders.append(order)
        return build(fp, order, sums)
    monkeypatch.setattr(character, "character_blocks", recorded)
    spec = build_space(text)
    report, _ = genus_report(spec)
    assert orders == [spec.n + 1]
    assert report["checks"]["weyl_invariance"]


@pytest.mark.parametrize("argv", [("verify", "--space", "CP3"), ("genus", "--space", "CP3"),
                                  ("verify", "--space", "U(3)/T3", "--structure", "conjugate")],
                         ids=" ".join)
def test_one_character_per_run(monkeypatch, capsys, argv):
    orders = []
    build = character.character_blocks

    def counted(fp, order, sums):
        orders.append(order)
        return build(fp, order, sums)
    monkeypatch.setattr(character, "character_blocks", counted)
    assert main(list(argv)) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(orders) == 1


@pytest.mark.parametrize("verb", ["verify", "genus"])
@pytest.mark.parametrize("text", ["CP5", "U(4)/T4"])
def test_one_e_to_m_table_per_run(monkeypatch, capsys, verb, text):
    # the character holds the equivariant Chern numbers, so only the class
    # crosses the e -> m basis change, at weight n and never at n + 1
    weights = []
    build = chern.transition_table
    monkeypatch.setattr(chern, "transition_table", lambda w: weights.append(w) or build(w))
    assert main([verb, "--space", text]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert set(weights) == {build_space(text).n}


@pytest.mark.parametrize("text, structure", [("U(4)/T4", None), (M10, "J2")])
def test_verify_reads_the_a_series_once(monkeypatch, capsys, text, structure):
    # class_matches_s keeps a route with no e -> m basis change: verify reads
    # the a-series product once per fixed point, at default_numeric_point
    # and to order n, and the character reads none
    read, reads = character.series_values, []
    monkeypatch.setattr(character, "series_values",
                        lambda cs, order: reads.append((tuple(cs), order)) or read(cs, order))
    assert main(["verify", "--space", text] + (["--structure", structure] if structure else [])) == 0
    assert "FAIL" not in capsys.readouterr().out
    fp = fixed_point_weights(build_space(text, structure=structure))
    n = len(fp[0].weights)
    point = default_numeric_point(fp)
    assert reads == [(tuple(form_values(pt.weights, point)), n) for pt in fp]
    del reads[:]
    character_blocks(fp, n + 1)
    assert reads == []


@pytest.mark.parametrize("argv, code", [(("class", "--space", "CP2", "--signs=1,-1"), 1),
                                        (("stable", "--space", "CP3"), 0)], ids=lambda v: " ".join(v)
                         if isinstance(v, tuple) else str(v))
def test_the_residues_and_the_search_read_the_e_sums(monkeypatch, capsys, argv, code):
    # the pole route and the sign search's rank read their residue rows off
    # genus.point_terms; the a-series product is verify's alone
    series, terms = [], []
    monkeypatch.setattr(character, "series_values", lambda cs, order: series.append(order))
    read = genus.point_terms
    monkeypatch.setattr(genus, "point_terms", lambda cs, order: terms.append(order) or read(cs, order))
    assert main(list(argv)) == code
    assert ("has a pole" in capsys.readouterr().err) == bool(code)
    assert series == [] and terms
    assert not hasattr(residues, "series_values")


@pytest.mark.parametrize("argv, code", [(("verify", "--space", "CP3"), 0), (("genus", "--space", "CP3"), 0),
                                        (("verify", "--space", "U(3)/T3", "--structure", "conjugate"), 0),
                                        (("verify", "--space", "CP2", "--signs=1,-1"), 1),
                                        (("genus", "--space", "CP2", "--signs=1,-1"), 1)],
                         ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_one_certificate_per_run(monkeypatch, capsys, argv, code):
    # the pole checks of the Chern numbers and of the character read one
    # line_sums; a table with a pole stops at the first
    calls = []
    build = genus.line_sums
    monkeypatch.setattr(genus, "line_sums", lambda fp: calls.append(fp) or build(fp))
    assert main(list(argv)) == code
    out, err = capsys.readouterr()
    assert ("has a pole" in err) == bool(code) and "FAIL" not in out
    assert len(calls) == 1
