"""Root data for the supported homogeneous spaces G/H of positive Euler
characteristic: block quotients of U(n), the SU(4) flag quotient, and
G2/SU(3). Produces Weyl coset representatives and fixed-point weight tables.

Conventions:
  * A-series coordinates are x_1..x_n; Weyl elements are permutations acting
    by x_i -> x_{w(i)}; coset representatives are minimal length (values
    increasing on every block), sorted lexicographically in one-line notation.
  * G2 weights live in Z^2 with x_3 = -x_1-x_2 eliminated; Weyl elements are
    2x2 integer matrices; representatives come in breadth-first word order.
"""

from collections import namedtuple
from math import gcd
import re

from . import SpaceGrammarError


class ParseError(SpaceGrammarError):
    pass


class UnsupportedGroup(SpaceGrammarError):
    pass


class NonPrimitiveWeight(Exception):
    pass


FixedPoint = namedtuple("FixedPoint", "rep weights sign")

M10_DESCRIPTOR = "SU(4)/S(U(1)xU(1)xU(2))"
J_PRESETS = {
    "J1": (1, 1, 1, 1, 1),
    "J2": (1, -1, 1, -1, -1),
    "J3": (1, -1, 1, -1, 1),
}


class SpaceSpec:
    """Parsed homogeneous space: coordinates, complementary roots, signs."""

    __slots__ = ("descriptor", "family", "rank", "blocks", "roots", "signs", "structure_name")

    def __init__(self, descriptor, family, rank, blocks, roots, signs, structure_name):
        self.descriptor = descriptor
        self.family = family
        self.rank = rank
        self.blocks = blocks
        self.roots = tuple(tuple(r) for r in roots)
        self.signs = tuple(signs)
        self.structure_name = structure_name

    @property
    def n(self):
        return len(self.roots)

    def signed_roots(self):
        return tuple(
            tuple(s * c for c in root) for s, root in zip(self.signs, self.roots)
        )

    def __repr__(self):
        return "SpaceSpec(%s, signs=%s)" % (self.descriptor, ",".join("%+d" % s for s in self.signs))


def _block_roots(blocks, rank):
    """Complementary roots x_i - x_j over cross-block pairs i < j, lex order."""
    owner = {}
    for b, positions in enumerate(blocks):
        for p in positions:
            owner[p] = b
    roots = []
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            if owner[i] != owner[j]:
                v = [0] * rank
                v[i - 1] = 1
                v[j - 1] = -1
                roots.append(tuple(v))
    return roots


_U_QUOTIENT = re.compile(r"^U\((\d+)\)/(.+)$")
_U_BLOCK = re.compile(r"^U\((\d+)\)$")
_CPN = re.compile(r"^CP(\d+)$")
_KNOWN_GROUP = re.compile(r"^(SO|Sp|Spin|SU|E6|E7|E8|F4|G2)")


def build_space(text, structure=None, signs=None):
    """Parse a space descriptor and install structure signs (default all +1).

    Grammar: U(n)/U(k1)x...xU(km) with sum k_i = n; U(n)/Tn; CPn;
    SU(4)/S(U(1)xU(1)xU(2)); G2/SU(3).
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
        blocks = (tuple(range(1, n + 1)), (n + 1,))
        spec = SpaceSpec(descriptor, "A", n + 1, blocks,
                         _block_roots(blocks, n + 1), (1,) * n, "standard")
    elif descriptor == "G2/SU(3)":
        roots = ((1, 0), (0, 1), (-1, -1))
        spec = SpaceSpec(descriptor, "G2", 2, None, roots, (1, 1, 1), "standard")
    elif descriptor == M10_DESCRIPTOR:
        # the U(2) factor sits on x_1, x_2
        blocks = ((1, 2), (3,), (4,))
        spec = SpaceSpec(descriptor, "A", 4, blocks,
                         _block_roots(blocks, 4), (1,) * 5, "standard")
    else:
        m = _U_QUOTIENT.match(descriptor)
        if not m:
            if _KNOWN_GROUP.match(descriptor):
                raise UnsupportedGroup("unsupported group in %r" % text)
            raise ParseError("cannot parse space descriptor %r" % text)
        rank = int(m.group(1))
        sub = m.group(2)
        if sub == "T%d" % rank:
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
        blocks = []
        start = 1
        for k in sizes:
            blocks.append(tuple(range(start, start + k)))
            start += k
        blocks = tuple(blocks)
        spec = SpaceSpec(descriptor, "A", rank, blocks,
                         _block_roots(blocks, rank), (1,) * len(_block_roots(blocks, rank)),
                         "standard")

    if spec.n == 0:
        raise ParseError("%s is a point: it has no isotropy weights" % text)
    return set_structure(spec, structure=structure, signs=signs)


def set_structure(spec, structure=None, signs=None):
    if structure is not None and signs is not None:
        raise ParseError("give either a structure name or explicit signs, not both")
    if structure is None and signs is None:
        return spec
    if signs is not None:
        signs = tuple(int(s) for s in signs)
        if len(signs) != spec.n or any(s not in (1, -1) for s in signs):
            raise ParseError("need %d signs from {+1,-1}" % spec.n)
        name = "standard" if all(s == 1 for s in signs) else (
            "conjugate" if all(s == -1 for s in signs) else "custom")
        return SpaceSpec(spec.descriptor, spec.family, spec.rank, spec.blocks,
                         spec.roots, signs, name)
    if structure == "standard":
        return SpaceSpec(spec.descriptor, spec.family, spec.rank, spec.blocks,
                         spec.roots, (1,) * spec.n, "standard")
    if structure == "conjugate":
        return SpaceSpec(spec.descriptor, spec.family, spec.rank, spec.blocks,
                         spec.roots, (-1,) * spec.n, "conjugate")
    if structure in J_PRESETS:
        if spec.descriptor != M10_DESCRIPTOR:
            raise ParseError("structure %s is only defined for %s" % (structure, M10_DESCRIPTOR))
        return SpaceSpec(spec.descriptor, spec.family, spec.rank, spec.blocks,
                         spec.roots, J_PRESETS[structure], structure)
    raise ParseError("unknown structure %r" % structure)


# Weyl machinery: permutations for the A series, 2x2 matrices for G2.

G2_IDENTITY = ((1, 0), (0, 1))
G2_S_SHORT = ((-1, 1), (0, 1))       # reflection in x1
G2_S_LONG = ((0, 1), (1, 0))         # reflection in x1-x2 (swap)
G2_S_LONG23 = ((1, -1), (0, -1))     # reflection in x2-x3


def _matmul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _matvec(A, v):
    return tuple(sum(A[i][j] * v[j] for j in range(2)) for i in range(2))


def _closure(gens, identity, mul):
    seen = [identity]
    seen_set = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = mul(g, s)
                if h not in seen_set:
                    seen_set.add(h)
                    seen.append(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def g2_weyl_group():
    """All 12 elements of W(G2) in breadth-first word order."""
    return _closure([G2_S_SHORT, G2_S_LONG], G2_IDENTITY, lambda a, b: _matmul(b, a))


def g2_subgroup():
    """W(SU(3)), order 6."""
    return _closure([G2_S_LONG, G2_S_LONG23], G2_IDENTITY, lambda a, b: _matmul(b, a))


def apply_weyl(spec, rep, weight):
    """Image of an integer weight vector under a Weyl element."""
    if spec.family == "G2":
        return _matvec(rep, weight)
    out = [0] * len(weight)
    for i, c in enumerate(weight):
        out[rep[i]] = c
    return tuple(out)


def weyl_cosets(spec):
    """Minimal coset representatives of W_G / W_H, deterministic order."""
    if spec.family == "G2":
        sub = g2_subgroup()
        reps = []
        covered = set()
        for g in g2_weyl_group():
            if g in covered:
                continue
            reps.append(g)
            for h in sub:
                covered.add(_matmul(g, h))
        return reps
    return _increasing_on_blocks(spec.blocks, spec.rank)


def _increasing_on_blocks(blocks, rank):
    """The permutations of range(rank) that increase on every block, in
    lexicographic order. Positions are filled left to right, each trying the
    unused values in ascending order; a position that is not first in its
    block must exceed the previous value there, and a value is too large
    once fewer unused values lie above it than the block has positions
    left. With contiguous blocks no branch then dead-ends, so the work
    grows with the number of representatives, not with rank!."""
    prev = [None] * rank
    left = [0] * rank
    for block in blocks:
        for i, pos in enumerate(block):
            prev[pos - 1] = block[i - 1] - 1 if i else None
            left[pos - 1] = len(block) - 1 - i
    perm = [0] * rank
    used = [False] * rank
    reps = []

    def fill(pos):
        if pos == rank:
            reps.append(tuple(perm))
            return
        low = 0 if prev[pos] is None else perm[prev[pos]] + 1
        for v in range(low, rank):
            if used[v]:
                continue
            if sum(not u for u in used[v + 1:]) < left[pos]:
                break
            perm[pos] = v
            used[v] = True
            fill(pos + 1)
            used[v] = False

    fill(0)
    return reps


def _check_primitive(weight):
    g = 0
    for c in weight:
        g = gcd(g, abs(c))
    if g != 1:
        raise NonPrimitiveWeight("weight %s has common factor %d" % (weight, g))


def fixed_point_weights(spec):
    """Weight table (Lambda_j(w))_j at every fixed point.

    Weights at the coset of w are w applied to the signed complementary roots.
    An invariant structure carries its own orientation, so signs are +1; the
    conjugate preset is expressed in the standard structure's orientation,
    where reversing all n weight lines contributes (-1)^n per point.
    """
    signed = spec.signed_roots()
    sign = -1 if spec.structure_name == "conjugate" and spec.n % 2 == 1 else 1
    out = []
    for rep in weyl_cosets(spec):
        weights = tuple(apply_weyl(spec, rep, r) for r in signed)
        for wgh in weights:
            _check_primitive(wgh)
        out.append(FixedPoint(rep, weights, sign))
    return out
