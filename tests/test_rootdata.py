"""Space parsing, Weyl cosets and fixed-point weight tables."""

import hashlib
import random
import re
from operator import mul
import time

import pytest

from torigen import SpaceGrammarError
from torigen.rootdata import (
    M10_DESCRIPTOR,
    SPACE_N_LIMIT,
    ParseError,
    SpaceSpec,
    UnsupportedGroup,
    build_space,
    fixed_point_weights,
    is_sign,
    reflect,
)

from reference import (
    cosets_by_filter,
    euler_characteristic,
    first_of_each_coset,
    g2_closure,
    g2_subgroup,
    g2_weyl_group,
    unitary_blocks,
)

CP3_WEIGHTS = [
    ((1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1)),
    ((1, 0, -1, 0), (0, 1, -1, 0), (0, 0, -1, 1)),
    ((1, -1, 0, 0), (0, -1, 1, 0), (0, -1, 0, 1)),
    ((-1, 1, 0, 0), (-1, 0, 1, 0), (-1, 0, 0, 1)),
]


def cosets(spec):
    """The coset representatives, in the order of the fixed points."""
    return [pt.rep for pt in fixed_point_weights(spec)]


def one_line(rep):
    """The permutation of a type A representative: w(e_i) = e_{w(i)}."""
    return tuple(image.index(1) for image in rep)


def test_descriptor_parsing_and_grammar_errors():
    assert build_space("CP2").descriptor == "CP2"
    # the simple roots of H are the x_i - x_{i+1} inside a block
    assert build_space("U(3)/T3").h_simple == ()
    assert build_space("U(4)/U(2)xU(2)").h_simple == ((1, -1, 0, 0), (0, 0, 1, -1))
    assert build_space(M10_DESCRIPTOR).h_simple == ((1, -1, 0, 0),)
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


def test_dimension_is_bounded_before_the_datum_is_built():
    # n = (k^2 - sum k_i^2)/2 is read off the block sizes, so a rank of 10^11
    # is refused at once instead of building lists of its length; the error
    # is a usage error of one line, not a grammar error
    for text in ("CP21", "U(7)/T7", "U(7)/U(1)xU(6)", "U(8)/U(1)xU(7)"):
        assert build_space(text).n <= SPACE_N_LIMIT == 21
    big = 99999999999
    for text, n in (("CP22", 22), ("CP40", 40), ("U(8)/T8", 28), ("U(12)/U(6)xU(6)", 36), ("CP%d" % big, big),
                    ("U(%d)/T%d" % (big, big), big * (big - 1) // 2),
                    ("U(%d)/U(%d)xU(1)" % (big, big - 1), big - 1)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape("the dimension of %s must be at most 21, got %d"
                                                       % (text, n))) as exc:
            build_space(text)
        assert time.perf_counter() - start < 1.0
        assert not isinstance(exc.value, SpaceGrammarError)
    # blocks that do not sum to the rank are still a grammar error first
    with pytest.raises(ParseError, match="subgroup blocks sum to 2, expected %d" % big):
        build_space("U(%d)/U(1)xU(1)" % big)


def test_euler_characteristic_counts_cosets():
    for text, chi in (
        ("CP1", 2), ("CP2", 3), ("CP3", 4), ("CP5", 6),
        ("U(3)/T3", 6), ("U(4)/T4", 24),
        ("U(4)/U(2)xU(2)", 6), ("U(5)/U(2)xU(3)", 10),
        (M10_DESCRIPTOR, 12), ("G2/SU(3)", 2),
    ):
        spec = build_space(text)
        assert euler_characteristic(spec) == chi
        assert len(cosets(spec)) == chi
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
    # the reference matrices act on weights, so their columns are the basis images
    reps = first_of_each_coset(group, sub)
    assert cosets(build_space("G2/SU(3)")) == [tuple(zip(*M)) for M in reps]


def matrices(spec, on_x):
    """The simple reflections as integer matrices, column j the image of e_j."""
    basis = [tuple(int(i == j) for j in range(spec.rank)) for i in range(spec.rank)]
    return [tuple(zip(*(reflect(e, coroot, alpha) if on_x else reflect(e, alpha, coroot) for e in basis)))
            for alpha, coroot in spec.simple]


def test_simple_reflections_act_on_x():
    # W(G2) acts on weights by its matrices and on x by their transposes
    g2 = build_space("G2/SU(3)")
    assert sorted(g2_closure(matrices(g2, False))) == sorted(g2_weyl_group())
    assert sorted(g2_closure(matrices(g2, True))) == sorted(tuple(zip(*g)) for g in g2_weyl_group())
    assert matrices(build_space("U(3)/T3"), True) == [
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((1, 0, 0), (0, 0, 1), (0, 1, 0))]
    # <s v, x> = <v, s x>
    rng = random.Random(3)
    for alpha, coroot in g2.simple:
        for _ in range(20):
            v, x = (rng.randint(-5, 5), rng.randint(-5, 5)), (rng.randint(-5, 5), rng.randint(-5, 5))
            assert sum(map(mul, reflect(v, alpha, coroot), x)) == sum(map(mul, v, reflect(x, coroot, alpha)))


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
    # a valid space with a structure it does not take is no grammar error
    with pytest.raises(ValueError, match=r"^need 2 signs from \{\+1,-1\}, got 1$"):
        build_space("CP2", signs=(1,))
    with pytest.raises(ValueError):
        build_space("CP2", signs=(1, 2))
    with pytest.raises(ValueError, match="^give either a structure name or explicit signs, not both$"):
        build_space("CP2", structure="standard", signs=(1, 1))


def test_a_sign_is_the_int_plus_or_minus_one():
    # one rule for --signs and for the tables of stable --assign; a float, a
    # string or a bool is named, not coerced
    assert [is_sign(a) for a in (1, -1, 0, 2, 1.0, -1.0, "1", True, False, None)] == [True] * 2 + [False] * 8
    for signs, bad in (((1.5, 1), "1.5"), (("1", "-1"), "'1'"), ((True, 1), "True"), ((1, -1.0), "-1.0"),
                       ((1, 2), "2")):
        with pytest.raises(ValueError, match=r"^need 2 signs from \{\+1,-1\}, got %s$" % re.escape(bad)):
            build_space("CP2", signs=signs)
    assert build_space("CP2", signs=[1, -1]).signs == (1, -1)
    from torigen import stablex
    assert stablex.is_sign is is_sign


def test_j_presets_are_m10_only():
    for name, signs in (("J1", (1, 1, 1, 1, 1)),
                        ("J2", (1, -1, 1, -1, -1)),
                        ("J3", (1, -1, 1, -1, 1))):
        spec = build_space(M10_DESCRIPTOR, structure=name)
        assert spec.signs == signs
        assert spec.structure_name == name
        assert all(pt.sign == 1 for pt in fixed_point_weights(spec))
    with pytest.raises(ValueError, match=r"^structure J1 is only defined for "):
        build_space("U(3)/T3", structure="J1")
    with pytest.raises(ValueError, match="^unknown structure 'J9'$"):
        build_space(M10_DESCRIPTOR, structure="J9")


def test_representatives_carry_their_weights():
    # the weights at rep are rep applied to the roots: x_i -> x_{w(i)}
    spec = build_space("U(3)/T3")
    for pt in fixed_point_weights(spec):
        w = one_line(pt.rep)
        for root, weight in zip(spec.roots, pt.weights):
            image = [0] * 3
            for i, c in enumerate(root):
                image[w[i]] = c
            assert weight == tuple(image)
    # the short reflection of G2 sends x1 to -x1 and x2 to x1 + x2
    assert [pt.rep for pt in fixed_point_weights(build_space("G2/SU(3)"))] == [
        ((1, 0), (0, 1)), ((-1, 0), (1, 1))]


def test_coset_representatives_increase_on_blocks():
    spec = build_space("U(4)/U(2)xU(2)")
    reps = [one_line(rep) for rep in cosets(spec)]
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
    blocks = unitary_blocks(text)
    assert [one_line(rep) for rep in cosets(spec)] == cosets_by_filter(blocks, sum(map(len, blocks)))


def test_cosets_match_the_filter_on_random_block_shapes():
    # contiguous blocks as the grammar builds them, and scattered ones, whose
    # simple roots of H are not simple roots of G
    rng = random.Random(7)
    for _ in range(60):
        rank = rng.randint(1, 7)
        sizes = []
        while sum(sizes) < rank:
            sizes.append(rng.randint(1, rank - sum(sizes)))
        if len(sizes) > 1:
            text = "U(%d)/%s" % (rank, "x".join("U(%d)" % k for k in sizes))
            reps = [one_line(rep) for rep in cosets(build_space(text))]
            assert reps == cosets_by_filter(unitary_blocks(text), rank)
        positions = list(range(1, rank + 1))
        rng.shuffle(positions)
        blocks, start = [], 0
        for k in sizes:
            blocks.append(tuple(sorted(positions[start:start + k])))
            start += k

        def root(a, b):
            return tuple(int(i == a) - int(i == b) for i in range(1, rank + 1))

        # the root datum of U(rank), with H's simple roots x_a - x_b for
        # neighbours a < b in one block
        owner = {a: b for b, block in enumerate(blocks) for a in block}
        roots = [root(a, b) for a in range(1, rank + 1) for b in range(a + 1, rank + 1) if owner[a] != owner[b]]
        spec = SpaceSpec("scattered", [(root(i, i + 1),) * 2 for i in range(1, rank)], range(rank, 0, -1),
                         [root(a, b) for block in blocks for a, b in zip(block, block[1:])],
                         roots, (1,) * len(roots), "standard")
        assert [one_line(rep) for rep in cosets(spec)] == cosets_by_filter(blocks, rank)


def test_projective_cosets_do_not_walk_every_permutation():
    # CP10 has 11! = 39916800 permutations of its rank and 11 representatives;
    # the filter took 53.6 s on CP10 and the coset walk takes about 1 ms
    spec = build_space("CP10")
    start = time.perf_counter()
    reps = cosets(spec)
    assert time.perf_counter() - start < 1.0
    assert [one_line(rep) for rep in reps] == [tuple(j for j in range(11) if j != i) + (i,)
                                               for i in reversed(range(11))]


# SHA-256 of repr([(weights, sign) for each point]) of fixed_point_weights:
# the weights, the order of the points and their signs, but not the form of
# rep, so every way of enumerating the cosets must give these tables
FIXED_POINT_DIGESTS = {
    ("CP1", None, None):
        "2c4bb15debf3077bd64f1031aa10a1ee21a8fc09d17ef537f2c108ad9ca7a473",
    ("CP2", None, None):
        "a2fe26f3e8a42cfc68765e021f12a7349b89a0cbb4176d96384a33b2b10092d9",
    ("CP3", None, None):
        "2b238d7c4c550f5e8bc0e00a1e747b9be4b882f640e5d70f7136823bc9b80072",
    ("CP4", None, None):
        "54d276639049b3d25c49778d5cbcf0fca85ab077f38380d2028e57bfb3c4ad85",
    ("CP5", None, None):
        "ca1100dcfee81d5656c068358444780495d164da69b1c2aa4fbc28af36b72436",
    ("CP6", None, None):
        "3410c03440f79ae081ca5de89daf39b710e76ab50a069b7175214ce78f51d016",
    ("U(2)/T2", None, None):
        "2c4bb15debf3077bd64f1031aa10a1ee21a8fc09d17ef537f2c108ad9ca7a473",
    ("U(3)/T3", None, None):
        "965f603c45377e182c94bee7ac80e05be13e5e2d9258728578cf579cf709b51b",
    ("U(4)/T4", None, None):
        "f71f15142cfcf7b0e71f2f4157a9ee5061c887c47e6cf164024d48b551d746e5",
    ("U(5)/T5", None, None):
        "006017a5d7bbe1b0f93a854a835ad4464c75fdf3d3031e22c4ee7439a41b9f7a",
    ("U(6)/T6", None, None):
        "c9e61aa543eb2c701e553f11d99f121668d9ce8c18ad23aa58f9408bed115ffa",
    ("U(4)/U(2)xU(2)", None, None):
        "15b5ba39ed0fd5a22049b55688f6d78061eaf327f3486fd1f92b98be0364deeb",
    ("U(4)/U(1)xU(1)xU(2)", None, None):
        "e0f15a190a400589a46022a442fd13e28fbdeaf2d6b4eda3c6e67251d902ca20",
    ("U(5)/U(2)xU(3)", None, None):
        "9ef23fa4aa25608b23d9c19411c978b65ced8057db42e751c3ae8f13a423c182",
    ("U(5)/U(1)xU(2)xU(2)", None, None):
        "6d1056424752609405b4501417bcfbdb966842f94c3e5df5a55a85e935e44dd2",
    ("U(6)/U(3)xU(3)", None, None):
        "5af63220ca3fbd6e9da67b039c678a8423e40b8fb701e4cf77ee8a35f63e3721",
    ("U(7)/U(2)xU(1)xU(4)", None, None):
        "2ba5b87f72d8bc3aa54979b522fa4889767eca1b11ac6e96e825e9a653d162f7",
    (M10_DESCRIPTOR, None, None):
        "c2bee595bfd8dd7385a45d3b68c35e68e9cdd89eaf436e0c447788bbfe1632f6",
    ("G2/SU(3)", None, None):
        "f62d3b05190b6a04fd327d6b202fc280ea72034bee92a3dccbd29212cb6fad79",
    (M10_DESCRIPTOR, "J1", None):
        "c2bee595bfd8dd7385a45d3b68c35e68e9cdd89eaf436e0c447788bbfe1632f6",
    (M10_DESCRIPTOR, "J2", None):
        "1ade5b55188c094d8ff1e2b0330f9548cf135decfe8a053f9a1fefecf67ebedc",
    (M10_DESCRIPTOR, "J3", None):
        "27adc115180957043543c620ad825429cf086191a6e1b16873cd157796bdf0d1",
    ("CP3", "conjugate", None):
        "7754b9527ec69d55a2ff2d60ed3e72490687338ee5113f51a821cd95bc9e596b",
    ("U(3)/T3", "conjugate", None):
        "95997b4544505510f4525a4ca2404814d95f62b6e47ab12534ae405862b54ca8",
    ("G2/SU(3)", "conjugate", None):
        "e805f397c6607b8140a09b0719e263bb86008eab5e5327f24a5397869c069cf7",
    ("U(4)/U(1)xU(1)xU(2)", None, (1, -1, -1, 1, 1)):
        "679502d6b69288368fca86fbb52c348b236818001a32c05fd47e8d21df5e11f7",
}


@pytest.mark.parametrize("text,structure,signs", sorted(FIXED_POINT_DIGESTS, key=repr))
def test_fixed_point_tables_are_pinned(text, structure, signs):
    fp = fixed_point_weights(build_space(text, structure=structure, signs=signs))
    table = repr([(pt.weights, pt.sign) for pt in fp]).encode()
    assert hashlib.sha256(table).hexdigest() == FIXED_POINT_DIGESTS[text, structure, signs]
