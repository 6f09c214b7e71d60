"""The character blocks of the genus, and the verify and genus verbs.

ch Phi = sum_p sign(p) prod_j f(<Lambda_j(p), x>) / <Lambda_j(p), x> is read
by point evaluation alone. Once genus.check_poles has shown that its blocks
have no poles, block a^omega is a homogeneous polynomial of degree
d = ||omega|| - n in x, where 2n is the real dimension, and character_blocks
interpolates it exactly from its values on genus.lattice's determining
set, which the a-series product prod_j (1 + sum_i a_i c_j^i) at each fixed
point gives (point_blocks). The blocks are plain {exponent: coefficient}
dicts, and the Weyl check, verify, genus and reproduce read them.
Truncation orders are absolute: an order-N character holds the blocks with
||omega|| = n + d <= N.

verify compares two routes to the class that share no basis change: the
degree-0 blocks, read off the a-series product, and chern_to_s of the
point-evaluated Chern numbers. The symbolic common-denominator character,
which the tests keep in tests/reference.py as an oracle, must agree with
character_blocks block by block.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, lcm, prod

from . import genus, residues
from .chern import chern_to_s
from .cobordism import CobordismPoly
from .rootdata import fixed_point_weights, reflect
from .symmfunc import omega_weight, omegas_of_weight, pad

# verify, one run each, start-up included, on a 2-vCPU Xeon VM, against the cost
# k * chi * n * N(n + 1) of check_cost: 0.28 s at CP12 (7.6e5), 0.36 s at
# U(5)/T5 (1.2e6), 1.3 s at CP15 (3.5e6), 5.5 s at CP18 (1.4e7), 6.3 s at
# U(6)/U(2)xT4 (2.1e7), 15 s at CP20 (3.1e7), 25 s and 100 MB at CP21
# (4.6e7), 21 s and 121 MB at U(6)/T6 (5.9e7), and 37 s and 140 MB at
# U(8)/U(5)xT3 (1.01e8, just past the limit); 0.3-0.55 us per unit, rising
# with n. U(7)/T7 (3.3e9) would take about half an hour.
CHARACTER_COST_LIMIT = 10 ** 8


def _falling(corner, b):
    """The coefficients, lowest first, of prod_{j<b} (z - corner - j)."""
    coeffs = [1]
    for j in range(b):
        coeffs = [(coeffs[e - 1] if e else 0) - (corner + j) * (coeffs[e] if e < len(coeffs) else 0)
                  for e in range(len(coeffs) + 1)]
    return coeffs


def _interpolate(values, corner, d):
    """{e: d! * coefficient} of the polynomial r of degree <= d in
    len(corner) variables whose values at corner + alpha, alpha over
    genus.simplex, are the ints values. Its Newton form on the nodes
    corner_i + j has the coefficients Delta^beta r(corner) / beta!: forward
    differences taken one axis at a time (the system is triangular on the
    simplex, which holds every point below one of its own), scaled to d!
    over beta!, an int, then expanded into monomials one axis at a time."""
    dims = len(corner)
    f = dict(zip(genus.simplex(dims, d), values))
    for i in range(dims):
        for s in range(1, d + 1):
            for alpha in sorted((a for a in f if a[i] >= s), key=lambda a: -a[i]):
                f[alpha] -= f[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]]
    f = {beta: v * (factorial(d) // prod(map(factorial, beta))) for beta, v in f.items() if v}
    for i in range(dims):
        out = {}
        for beta, c in f.items():
            for e, pc in enumerate(_falling(corner[i], beta[i])):
                key = beta[:i] + (e,) + beta[i + 1:]
                out[key] = out.get(key, 0) + c * pc
        f = out
    return f


def point_blocks(fp, point, order):
    """(common, {omega: common * value}), n <= ||omega|| <= order: the
    a^omega coefficients of sum_p sign(p) prod_j f(c_j(p)) / prod_j c_j(p) at
    one nonsingular point, c_j = <Lambda_j(p), point>, with no e -> m basis
    change: the signed sum of residues.residue_rows of the weights."""
    n = len(fp[0].weights)
    common, rows = residues.residue_rows([pt.weights for pt in fp], point, order)
    return common, {om: sum(pt.sign * v for pt, v in zip(fp, row))
                    for om, row in rows.items() if omega_weight(om) >= n}


def character_blocks(fp, order, sums=None):
    """ch Phi truncated at absolute order: {omega: block}, the nonzero
    a^omega blocks with n <= ||omega|| <= order, each {exponent e:
    coefficient}, homogeneous of degree d = ||omega|| - n. genus.check_poles
    (on sums = genus.line_sums(fp), if given) raises SingularSum unless no
    block with ||omega|| <= order has a pole, so the blocks below n vanish
    and these are polynomials.

    Block p is read at genus.lattice's determining set of degree d on
    every coordinate, whose last coordinate is held at s: p(z, s) is a
    polynomial of degree <= d in the other k - 1 coordinates whose z^e'
    coefficient is that of x^(e', d - |e'|) times s^(d - |e'|). It is
    interpolated (_interpolate) from point_blocks there, over one common
    denominator G, and divided back."""
    n = len(fp[0].weights)
    if order < n:
        raise ValueError("order %d below dimension grade %d" % (order, n))
    genus.check_poles(fp, order, sums)
    k = len(fp[0].weights[0])
    points = genus.lattice([w for pt in fp for w in pt.weights], range(k), k, order - n)
    read = [point_blocks(fp, z, order) for z in points(order - n)]
    G = lcm(*(common for common, _ in read))
    *corner, s = points(0)[0]
    blocks = {}
    for om in read[0][1]:
        d = omega_weight(om) - n
        vals = [G // common * at[om] for _, (common, at) in zip(points(d), read)]
        if not any(vals):
            continue
        block = {}
        for e, c in _interpolate(vals, corner, d).items():
            if c:
                c = Fraction(c, factorial(d) * G * s ** (d - sum(e)))
                block[e + (d - sum(e),)] = c.numerator if c.denominator == 1 else c
        blocks[om] = block   # values not all 0 determine a nonzero block
    return blocks


def block_coefficient(blocks, e):
    """sum_omega a^omega * (x^e coefficient of block omega)."""
    return CobordismPoly({om: block.get(tuple(e), 0) for om, block in blocks.items()})


def _value(block, point):
    """A block's value at point."""
    return sum(c * prod(v ** d for v, d in zip(point, e)) for e, c in block.items())


def weyl_invariance_failure(spec, ch):
    """None when every block of the character ch of a space of spec is
    invariant under every simple reflection s of W_G, acting on x by
    x -> x - <alpha, x> alpha^vee; else the first failure found: omega, the
    reflection's index from 1, the point P, and the block's values at P and
    s P.

    A block p of degree d in k variables is compared with p(s x) at the
    points P of N^k whose coordinates sum to at most d. That is exact: a
    polynomial of degree <= d vanishing there vanishes on x_1 = 0 (induction
    on k), so it is x_1 q, and q vanishes on the points of sum <= d - 1
    (induction on d). A reflection that fixes P is skipped, as p(s P) is
    then p(P)."""
    for om in sorted(ch):
        block = ch[om]
        k = spec.rank
        # index k is the slack, so the coordinates sum to at most d
        for picks in combinations_with_replacement(range(k + 1), max(map(sum, block), default=0)):
            point = tuple(picks.count(i) for i in range(k))
            value = _value(block, point)
            for index, (alpha, coroot) in enumerate(spec.simple, 1):
                image = reflect(point, coroot, alpha)
                if image == point:
                    continue
                moved = _value(block, image)
                if moved != value:
                    return {"omega": pad(om, spec.n), "reflection": index,
                            "point": list(point), "block_at_p": str(value), "block_at_sp": str(moved)}
    return None


def _check_lines(checks, evidence):
    """One line per check; a failed one names its evidence as at k=v, ..."""
    lines = []
    for name, ok in sorted(checks.items()):
        lines.append("check %s: %s" % (name, "ok" if ok else "FAIL"))
        if name in evidence:
            lines[-1] += " at " + ", ".join("%s=%s" % kv for kv in evidence[name].items())
    return lines


def check_cost(spec, fp):
    """ValueError when the character at order n + 1, which verify and genus
    read, costs more than CHARACTER_COST_LIMIT: k * chi * n * N(n + 1), as
    character_blocks reads the a-series products of n factors, each over
    the N(n + 1) omegas of weight at most n + 1, at the chi fixed points
    for each of its k points. The fixed points alone give every factor."""
    n = spec.n
    cost = len(fp[0].weights[0]) * len(fp) * n * sum(len(omegas_of_weight(w)) for w in range(n + 2))
    if cost > CHARACTER_COST_LIMIT:
        raise ValueError("the cost k*chi*n*N(n+1) of the character of %s must be at most %d, got %d"
                         % (spec.descriptor, CHARACTER_COST_LIMIT, cost))


def genus_report(spec):
    """Full result bundle for a space: the report (class, s-table and
    consistency checks) and the class as a CobordismPoly. The Weyl check
    reads the character at order n + 1; check_cost bounds it first."""
    fp = fixed_point_weights(spec)
    check_cost(spec, fp)
    n = spec.n
    # one certificate for both checks
    sums = genus.line_sums(fp)
    stable = chern_to_s(genus.chern_numbers(fp, sums), n)
    # the blocks exist only where no block has a pole, so a report exists
    # only if the vanishing check holds
    ch = character_blocks(fp, n + 1, sums)
    rows = genus.s_table(stable, n)
    failure = weyl_invariance_failure(spec, ch)
    report = {
        "space": spec.descriptor,
        "structure": genus.structure_label(spec),
        "class": [{"omega": row["omega"], "coeff": str(row["value"])} for row in rows if row["value"]],
        "s_numbers": rows,
        "checks": {"vanishing": True, "weyl_invariance": failure is None},
    }
    if failure:
        report["evidence"] = {"weyl_invariance": failure}
    return report, CobordismPoly(stable)


def cmd_genus(args):
    from .cli import _build_space, _emit
    report, cls = genus_report(_build_space(args))
    lines = ["space: %s  structure: %s" % (report["space"], report["structure"]),
             "class: %s" % cls.canonical_text()]
    lines += genus.s_lines(report["s_numbers"])
    lines += _check_lines(report["checks"], report.get("evidence", {}))
    _emit(args, "\n".join(lines), report)
    return 0 if all(report["checks"].values()) else 1


def cmd_verify(args):
    from .cli import _build_space, _emit
    spec = _build_space(args)
    fp = fixed_point_weights(spec)
    check_cost(spec, fp)
    n = len(fp[0].weights)
    checks = {}
    # a sum with poles fails here as in class, naming its first such block;
    # one certificate for both checks
    sums = genus.line_sums(fp)
    chern = genus.chern_numbers(fp, sums)
    table = chern_to_s(chern, n)
    # the blocks exist only where no block has a pole, so the low blocks
    # vanish; the degree-0 blocks are the class
    ch = character_blocks(fp, n + 1, sums)
    checks["low_vanishing"] = True
    cls = block_coefficient(ch, (0,) * len(fp[0].weights[0]))
    if not cls.is_integral():
        raise genus.non_integer_class(cls)
    checks["class_integral"] = True
    # two independent routes: the a-series class against the point-evaluated
    # table, which passes through chern_to_s, and that table against the sum
    # at a second point; the evidence key "symbolic" names the a-series class
    # a failed comparison names its first offending omega or xi and both values
    evidence = {}
    bad = [om for om in sorted(table) if cls.coeff(om) != table[om]]
    checks["class_matches_s"] = not bad
    if bad:
        evidence["class_matches_s"] = {"omega": pad(bad[0], n), "symbolic": str(cls.coeff(bad[0])),
                                       "point": str(table[bad[0]])}
    # c_n[M] = sum_p sign(p): -chi for a conjugate structure of odd n
    c_n, signs = table.get((n,), 0), sum(pt.sign for pt in fp)
    checks["euler"] = c_n == signs
    if c_n != signs:
        evidence["euler"] = {"c_n": str(c_n), "sum_signs": str(signs)}
    failure = weyl_invariance_failure(spec, ch)
    checks["weyl_invariance"] = failure is None
    if failure:
        evidence["weyl_invariance"] = failure
    second = genus.point_chern_numbers(fp, genus.second_numeric_point(fp))
    bad = [xi for xi in sorted(set(chern) | set(second)) if chern.get(xi) != second.get(xi)]
    checks["numeric_agreement"] = not bad
    if bad:
        evidence["numeric_agreement"] = {"xi": pad(bad[0], n), "default_point": str(chern.get(bad[0])),
                                         "second_point": str(second.get(bad[0]))}
    ok = all(checks.values())
    lines = _check_lines(checks, evidence)
    data = {"space": spec.descriptor, "structure": genus.structure_label(spec), "checks": checks, "ok": ok}
    if evidence:
        data["evidence"] = evidence
    _emit(args, "\n".join(lines), data)
    return 0 if ok else 1
