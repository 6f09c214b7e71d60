"""Root data for the supported homogeneous spaces G/H of positive Euler
characteristic, H of maximal rank: block quotients of U(n), the SU(4) flag
quotient, and G2/SU(3). Produces Weyl coset representatives and fixed-point
weight tables, the same way for every space.

A space is a root datum in integer coordinates x_1..x_k of the weight
lattice; a new kind of space supplies its four parts:
  * simple: the simple reflections of G, each as a pair (alpha, alpha^vee) of
    a simple root and its coroot. s acts on weights by
    v -> v - <v, alpha^vee> alpha, and on x by x -> x - <alpha, x> alpha^vee,
    the transpose, as <s v, x> = <v, s x>; reflect does both.
  * rho_check: a covector positive on every positive root of G.
  * h_simple: the simple roots of H, positive roots of G.
  * roots: the positive roots of G that are not roots of H; with the
    structure's signs, the weights at the identity coset.
Type A has x_i - x_{i+1} as root and coroot and rho_check = (k-1, ..., 0).
G2 eliminates x_3 = -x_1 - x_2, so its weights live in Z^2.

The fixed points are the cosets W_G/W_H. A Weyl element w is written as its
basis images (w(e_1), ..., w(e_k)), and each coset by its minimal element;
the representatives are listed in descending lexicographic order of those
images (lexicographic order in one-line notation for type A, the identity
and then the short reflection for G2). The weights at w are w applied to the
signed roots.
"""

from collections import namedtuple
from operator import mul
import re

from . import SpaceGrammarError


class ParseError(SpaceGrammarError):
    pass


class UnsupportedGroup(SpaceGrammarError):
    pass


FixedPoint = namedtuple("FixedPoint", "rep weights sign")

M10_DESCRIPTOR = "SU(4)/S(U(1)xU(1)xU(2))"
J_PRESETS = {
    "J1": (1, 1, 1, 1, 1),
    "J2": (1, -1, 1, -1, -1),
    "J3": (1, -1, 1, -1, 1),
}


class SpaceSpec:
    """Parsed homogeneous space: its root datum, complementary roots and signs."""

    __slots__ = ("descriptor", "simple", "rho_check", "h_simple", "roots", "signs", "structure_name")

    def __init__(self, descriptor, simple, rho_check, h_simple, roots, signs, structure_name):
        self.descriptor = descriptor
        self.simple = tuple((tuple(a), tuple(c)) for a, c in simple)
        self.rho_check = tuple(rho_check)
        self.h_simple = tuple(tuple(b) for b in h_simple)
        self.roots = tuple(tuple(r) for r in roots)
        self.signs = tuple(signs)
        self.structure_name = structure_name

    @property
    def rank(self):
        return len(self.rho_check)

    @property
    def n(self):
        return len(self.roots)

    def signed_roots(self):
        return tuple(
            tuple(s * c for c in root) for s, root in zip(self.signs, self.roots)
        )

    def __repr__(self):
        return "SpaceSpec(%s, signs=%s)" % (self.descriptor, ",".join("%+d" % s for s in self.signs))


# class --space CPn, start-up included, on a 2-vCPU VM: 1.4 s at n = 20,
# 1.8 s and 68 MB at 21, 2.6 s at 22, 5.0 s at 23, 9.1 s at 24, 14 s and
# 333 MB at 25, most of it in symmfunc.transition_table(n); U(7)/T7, also
# n = 21, takes 11 s. CP40 did not finish in 20 s.
SPACE_N_LIMIT = 21


def _check_dimension(descriptor, k, squares):
    """ValueError when U(k)/U(k_1)x...xU(k_m), squares = sum k_i^2, has
    complex dimension (k^2 - squares)/2 above SPACE_N_LIMIT; it reads the
    block sizes alone, so nothing of length k is built first."""
    n = (k * k - squares) // 2
    if n > SPACE_N_LIMIT:
        raise ValueError("the dimension of %s must be at most %d, got %d" % (descriptor, SPACE_N_LIMIT, n))


def _unitary(descriptor, sizes):
    """U(k)/U(k_1)x...xU(k_m), the blocks contiguous in x_1..x_k: the simple
    roots x_i - x_{i+1}, each its own coroot; those inside a block are H's,
    and the complementary roots x_i - x_j, i < j in different blocks, come in
    lex order."""
    k = sum(sizes)
    _check_dimension(descriptor, k, sum(s * s for s in sizes))
    owner = [b for b, size in enumerate(sizes) for _ in range(size)]

    def root(i, j):
        v = [0] * k
        v[i], v[j] = 1, -1
        return tuple(v)

    roots = [root(i, j) for i in range(k) for j in range(i + 1, k) if owner[i] != owner[j]]
    return SpaceSpec(descriptor, [(root(i, i + 1),) * 2 for i in range(k - 1)], range(k - 1, -1, -1),
                     [root(i, i + 1) for i in range(k - 1) if owner[i] == owner[i + 1]],
                     roots, (1,) * len(roots), "standard")


_U_QUOTIENT = re.compile(r"^U\((\d+)\)/(.+)$")
_U_BLOCK = re.compile(r"^U\((\d+)\)$")
_CPN = re.compile(r"^CP(\d+)$")
_KNOWN_GROUP = re.compile(r"^(SO|Sp|Spin|SU|E6|E7|E8|F4|G2)")


def build_space(text, structure=None, signs=None):
    """Parse a space descriptor and install structure signs (default all +1).

    Grammar: U(n)/U(k1)x...xU(km) with sum k_i = n; U(n)/Tn; CPn;
    SU(4)/S(U(1)xU(1)xU(2)); G2/SU(3). A space of complex dimension above
    SPACE_N_LIMIT is a ValueError.
    """
    descriptor = text.replace(" ", "")
    if not descriptor:
        raise ParseError("empty space descriptor")

    m = _CPN.match(descriptor)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ParseError("CPn needs n >= 1")
        # big block first keeps the standard structure of projective space
        spec = _unitary(descriptor, (n, 1))
    elif descriptor == "G2/SU(3)":
        # x_3 = -x_1 - x_2 eliminated: the short simple root x_1 with coroot
        # (2, -1) and the long one x_2 - x_1; SU(3) has the long roots, with
        # simple roots x_2 - x_1 and x_1 - x_3
        spec = SpaceSpec(descriptor, [((1, 0), (2, -1)), ((-1, 1), (-1, 1))], (1, 2),
                         [(-1, 1), (2, 1)], [(1, 0), (0, 1), (-1, -1)], (1, 1, 1), "standard")
    elif descriptor == M10_DESCRIPTOR:
        # the U(2) factor sits on x_1, x_2
        spec = _unitary(descriptor, (2, 1, 1))
    else:
        m = _U_QUOTIENT.match(descriptor)
        if not m:
            if _KNOWN_GROUP.match(descriptor):
                raise UnsupportedGroup("unsupported group in %r" % text)
            raise ParseError("cannot parse space descriptor %r" % text)
        rank = int(m.group(1))
        sub = m.group(2)
        if sub == "T%d" % rank:
            _check_dimension(descriptor, rank, rank)
            sizes = [1] * rank
        else:
            sizes = []
            for piece in sub.split("x"):
                bm = _U_BLOCK.match(piece)
                if not bm:
                    if _KNOWN_GROUP.match(piece) or piece.startswith("T"):
                        raise UnsupportedGroup("unsupported subgroup factor %r" % piece)
                    raise ParseError("bad subgroup factor %r" % piece)
                sizes.append(int(bm.group(1)))
        if sum(sizes) != rank:
            raise ParseError("subgroup blocks sum to %d, expected %d" % (sum(sizes), rank))
        spec = _unitary(descriptor, sizes)

    if spec.n == 0:
        raise ParseError("%s is a point: it has no isotropy weights" % text)
    return set_structure(spec, structure=structure, signs=signs)


def is_sign(a):
    """a is a sign: the int +1 or -1, not a float such as 1.0, a string or a
    bool. The one rule for --signs and for the tables of stable --assign."""
    return type(a) is int and a in (1, -1)


def set_structure(spec, structure=None, signs=None):
    """spec with a structure preset or explicit signs installed. A name or
    signs that the space does not take is a ValueError, not a grammar
    error: the descriptor itself parsed."""
    if structure is not None and signs is not None:
        raise ValueError("give either a structure name or explicit signs, not both")
    if structure is None and signs is None:
        return spec
    if signs is not None:
        signs = tuple(signs)
        for s in signs:
            if not is_sign(s):
                raise ValueError("need %d signs from {+1,-1}, got %r" % (spec.n, s))
        if len(signs) != spec.n:
            raise ValueError("need %d signs from {+1,-1}, got %d" % (spec.n, len(signs)))
        name = "standard" if all(s == 1 for s in signs) else (
            "conjugate" if all(s == -1 for s in signs) else "custom")
    elif structure == "standard":
        signs, name = (1,) * spec.n, "standard"
    elif structure == "conjugate":
        signs, name = (-1,) * spec.n, "conjugate"
    elif structure in J_PRESETS:
        if spec.descriptor != M10_DESCRIPTOR:
            raise ValueError("structure %s is only defined for %s" % (structure, M10_DESCRIPTOR))
        signs, name = J_PRESETS[structure], structure
    else:
        raise ValueError("unknown structure %r" % structure)
    return SpaceSpec(spec.descriptor, spec.simple, spec.rho_check, spec.h_simple, spec.roots, signs, name)


def reflect(v, alpha, coroot):
    """v - <v, alpha^vee> alpha: the simple reflection s_alpha on a weight v.
    On x it is reflect(x, coroot, alpha), and v itself comes back when s
    fixes it."""
    c = sum(map(mul, v, coroot))
    return tuple([a - c * b for a, b in zip(v, alpha)]) if c else v


def _walk(spec, tracked):
    """The minimal coset representatives w of W_G/W_H, each as its basis
    images rep = (w(e_1), ..., w(e_k)) with the images of the tracked
    vectors, in descending lexicographic order of rep.

    w is minimal exactly when it maps every simple root beta of H to a root
    on which rho_check is positive. Removing the left letter of a minimal w
    leaves a minimal element, so starting from the identity and keeping s*w
    whenever it is new and minimal reaches every one, with work that grows
    with their number times the rank, not with |W_G|. For minimal w, s*w is
    minimal unless w(beta) = alpha_s for some beta, as s turns only alpha_s
    negative among the positive roots. Elements are keyed by their action on
    rho_check, as on x: rho_check is nonzero on every root, so only the
    identity fixes it."""
    k, h = spec.rank, len(spec.h_simple)
    basis = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    found = {spec.rho_check: spec.h_simple + basis + tuple(tracked)}
    frontier = list(found.items())
    while frontier:
        grown = []
        for key, images in frontier:
            for alpha, coroot in spec.simple:
                if alpha in images[:h]:
                    continue
                key2 = reflect(key, coroot, alpha)
                if key2 not in found:
                    found[key2] = tuple(reflect(v, alpha, coroot) for v in images)
                    grown.append((key2, found[key2]))
        frontier = grown
    return sorted(((images[h:h + k], images[h + k:]) for images in found.values()), reverse=True)


def fixed_point_weights(spec):
    """Weight table (Lambda_j(w))_j at every fixed point.

    Weights at the coset of w are w applied to the signed complementary roots.
    w is an automorphism of the weight lattice, and every root of the
    grammar is primitive and every sign +-1, so the weights are primitive.
    An invariant structure carries its own orientation, so signs are +1; the
    conjugate preset is expressed in the standard structure's orientation,
    where reversing all n weight lines contributes (-1)^n per point.
    """
    signed = spec.signed_roots()
    sign = -1 if spec.structure_name == "conjugate" and spec.n % 2 == 1 else 1
    return [FixedPoint(rep, weights, sign) for rep, weights in _walk(spec, signed)]
