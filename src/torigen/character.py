"""The character of the genus as equivariant Chern numbers, and the verify
and genus verbs.

ch Phi = sum_p sign(p) prod_j f(<Lambda_j(p), x>) / <Lambda_j(p), x> is read
by point evaluation alone, in the Chern basis in which the class's engine
reads it: its blocks are the torus-equivariant Chern numbers

    c^xi(x) = sum_p sign(p) e^xi(c_p(x)) / prod_j c_j(p)(x),

c_j(p) = <Lambda_j(p), x>. Once genus.check_poles has shown that the sum has
no poles, c^xi is a homogeneous polynomial of degree d = |xi| - n in x,
where 2n is the real dimension, so the blocks of weight n are the Chern
numbers; character_blocks interpolates each block exactly from
genus.point_chern_numbers at weight |xi| on genus.lattice's determining set
of degree d. The a^omega blocks of a weight are chern_to_s of its c^xi
blocks, a fixed invertible integer combination, as
e^xi = sum_omega T[xi][omega] m_lambda(omega) holds in the n weights of a
point: the Weyl check reaches the same verdict on either, and the one
reader that needs a^omega blocks (reproduce's S^6 row) reads the c^xi
blocks by value at two points (block_value) and converts those values. The
blocks are plain {exponent: coefficient} dicts. Truncation orders are
absolute: an order-N character holds the blocks with |xi| = n + d <= N.

verify and genus share one pipeline (_checked). verify compares two routes
to the class that share no basis change: the a-series product
prod_j (1 + sum_i a_i c_j^i) at one point and to order n (point_blocks, by
series_values, which lives here because nothing else reads the a-series:
the residues and the sign search read genus.point_terms, as the class
does), and chern_to_s of the point-evaluated Chern numbers; and it
compares those Chern numbers with
the character's blocks of degree 0, read at another point. The symbolic
common-denominator character, which the tests keep in tests/reference.py
as an oracle, must agree with character_blocks block by block.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from . import genus
from .chern import chern_to_s
from .cobordism import CobordismPoly, clean
from .rootdata import fixed_point_weights, reflect
from .symmfunc import omega_weight, omegas_of_weight, pad

# verify, two runs each in one sitting, start-up included, on a 2-vCPU Xeon
# VM, against the cost k * chi * n * N(n + 1) of check_cost: 0.19-0.25 s at
# CP12 (7.6e5), 0.22-0.32 s at U(5)/T5 (1.2e6), 0.51-0.58 s at CP15
# (3.5e6), 1.5-1.8 s at CP18 (1.4e7), 2.2-2.4 s and 20 MB at U(6)/U(2)xT4
# (2.1e7), 3.8-4.0 s and 53 MB at CP20 (3.1e7), 4.4-6.9 s and 74 MB at CP21
# (4.6e7), 5.1-6.4 s and 26 MB at U(6)/T6 (5.9e7), and 7.8-9.2 s and 32 MB
# at U(8)/U(5)xT3 (1.01e8, just past the limit). The e-sums of the
# character cost far less than the estimate, which is kept so that every
# refusal stays as it was; the time goes to the e -> m table of weight n,
# to the e-sums of weight n + 1 and to verify's a-series product at each
# fixed point.
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
    genus.simplex, are the exact values `values`, ints or Fractions. Its
    Newton form on the nodes corner_i + j has the coefficients
    Delta^beta r(corner) / beta!: forward differences taken one axis at a
    time (the system is triangular on the simplex, which holds every point
    below one of its own), scaled by d! over beta!, an int, then expanded
    into monomials one axis at a time."""
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


@lru_cache(maxsize=None)
def _series_plan(order):
    """(omegas, steps) for series_values: every omega of weight <= order, by
    weight and then sorted, and per omega, heaviest first, its index and the
    (index, k) of omega + e_k."""
    omegas = [om for w in range(order + 1) for om in omegas_of_weight(w)]
    index = {om: i for i, om in enumerate(omegas)}
    steps = []
    for om in sorted(omegas, key=omega_weight, reverse=True):
        ups = []
        for k in range(1, order - omega_weight(om) + 1):
            up = list(om) + [0] * (k - len(om))
            up[k - 1] += 1
            ups.append((index[tuple(up)], k))
        steps.append((index[om], ups))
    return omegas, steps


def series_values(cs, order):
    """[m_lambda(cs) for omega in _series_plan(order)'s omegas]: the a^omega
    coefficients of prod_j (1 + a_1 c_j + a_2 c_j^2 + ...) at the numbers
    cs, lambda the partition of omega. One pass over the factors, in place:
    factor j adds c_j^k times block omega into block omega + e_k, the
    heaviest blocks first, so each is read before this factor adds into it."""
    omegas, steps = _series_plan(order)
    vals = [1] + [0] * (len(omegas) - 1)
    for c in cs:
        powers = [c ** k for k in range(order + 1)]
        for i, ups in steps:
            v = vals[i]
            if v:
                for j, k in ups:
                    vals[j] += v * powers[k]
    return vals


def point_blocks(fp, point, order):
    """(common, {omega: common * value}), n <= ||omega|| <= order: the
    a^omega coefficients of sum_p sign(p) prod_j f(c_j(p)) / prod_j c_j(p) at
    one nonsingular point, c_j = <Lambda_j(p), point>, with no e -> m basis
    change: the a-series product at each point (series_values), summed as
    genus.signed_sum streams them."""
    omegas = _series_plan(order)[0]
    low = sum(len(omegas_of_weight(w)) for w in range(len(fp[0].weights)))
    common, sums = genus.signed_sum(fp, point, lambda cs: series_values(cs, order)[low:])
    return common, dict(zip(omegas[low:], sums))


def character_blocks(fp, order, sums=None):
    """ch Phi truncated at absolute order, as equivariant Chern numbers:
    {xi: block}, the nonzero blocks of
    sum_p sign(p) e^xi(c_p(x)) / prod_j c_j(p)(x) with n <= |xi| <= order,
    each {exponent e: coefficient}, homogeneous of degree d = |xi| - n.
    genus.check_poles (on sums = genus.line_sums(fp), if given) raises
    SingularSum unless no a^omega block with ||omega|| <= order has a pole,
    so the sums below weight n vanish and these are polynomials.

    The blocks of degree d are read at genus.lattice's determining set of
    degree d on every coordinate, points(d), whose last coordinate is held
    at s: there genus.point_chern_numbers at weight n + d gives the value of
    every block of that weight. p(z, s) is a polynomial of degree <= d in
    the other k - 1 coordinates whose z^e' coefficient is that of
    x^(e', d - |e'|) times s^(d - |e'|); it is interpolated (_interpolate)
    from those exact values and divided back."""
    n = len(fp[0].weights)
    if order < n:
        raise ValueError("order %d below dimension grade %d" % (order, n))
    genus.check_poles(fp, order, sums)
    k = len(fp[0].weights[0])
    points = genus.lattice([w for pt in fp for w in pt.weights], range(k), k, order - n)
    *corner, s = points(0)[0]
    blocks = {}
    for d in range(order - n + 1):
        read = [genus.point_chern_numbers(fp, z, n + d) for z in points(d)]
        for xi in omegas_of_weight(n + d):
            vals = [at[xi] for at in read]
            if not any(vals):
                continue
            # values not all 0 determine a nonzero block
            blocks[xi] = {e + (d - sum(e),): clean(Fraction(c, factorial(d) * s ** (d - sum(e))))
                          for e, c in _interpolate(vals, corner, d).items() if c}
    return blocks


def block_value(block, point):
    """A block's value at point: the localization sum c^xi at point, wherever
    no weight vanishes there (genus.point_chern_numbers), as the block is
    that sum as a polynomial."""
    return sum(c * prod(v ** d for v, d in zip(point, e)) for e, c in block.items())


def weyl_invariance_failure(spec, ch):
    """None when every block of the character ch of a space of spec is
    invariant under every simple reflection s of W_G, acting on x by
    x -> x - <alpha, x> alpha^vee; else the first failure found: xi, the
    reflection's index from 1, the point P, and the block's values at P and
    s P. At each weight the a^omega blocks are an invertible integer
    combination of the c^xi blocks (chern_to_s), so the verdict is theirs.

    A block p of degree d in k variables is compared with p(s x) at the
    points P of N^k whose coordinates sum to at most d. That is exact: a
    polynomial of degree <= d vanishing there vanishes on x_1 = 0 (induction
    on k), so it is x_1 q, and q vanishes on the points of sum <= d - 1
    (induction on d). A reflection that fixes P is skipped, as p(s P) is
    then p(P)."""
    for xi in sorted(ch):
        block = ch[xi]
        for point in sorted(genus.simplex(spec.rank, max(map(sum, block), default=0)), reverse=True):
            value = block_value(block, point)
            for index, (alpha, coroot) in enumerate(spec.simple, 1):
                image = reflect(point, coroot, alpha)
                if image == point:
                    continue
                moved = block_value(block, image)
                if moved != value:
                    return {"xi": pad(xi, spec.n), "reflection": index,
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
    read, costs more than CHARACTER_COST_LIMIT by the estimate
    k * chi * n * N(n + 1): a-series products of n factors, each over the
    N(n + 1) omegas of weight at most n + 1, at the chi fixed points for
    each of k points. character_blocks reads e-sums instead, and verify one
    a-series product to order n, so the estimate over-counts the route; it
    is kept so that every refusal stays as it was. The fixed points alone
    give every factor."""
    n = spec.n
    cost = len(fp[0].weights[0]) * len(fp) * n * sum(len(omegas_of_weight(w)) for w in range(n + 2))
    if cost > CHARACTER_COST_LIMIT:
        raise ValueError("the cost k*chi*n*N(n+1) of the character of %s must be at most %d, got %d"
                         % (spec.descriptor, CHARACTER_COST_LIMIT, cost))


def _checked(spec):
    """(fp, chern, ch, failure), what verify and genus share: the fixed
    points, once check_cost has bounded their character; the Chern numbers
    (genus.chern_numbers); the character ch at order n + 1; and
    weyl_invariance_failure of ch. The two pole checks read one line_sums,
    and the blocks exist only where no block has a pole, so a result means
    that the vanishing check holds."""
    fp = fixed_point_weights(spec)
    check_cost(spec, fp)
    sums = genus.line_sums(fp)
    chern = genus.chern_numbers(fp, sums)
    ch = character_blocks(fp, spec.n + 1, sums)
    return fp, chern, ch, weyl_invariance_failure(spec, ch)


def genus_report(spec):
    """Full result bundle for a space: the report (class, s-table and
    consistency checks) and the class as a CobordismPoly (_checked)."""
    _, chern, _, failure = _checked(spec)
    stable = chern_to_s(chern, spec.n)
    rows = genus.s_table(stable, spec.n)
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


def cmd_genus(args, spec):
    report, cls = genus_report(spec)
    lines = ["space: %s  structure: %s" % (report["space"], report["structure"]),
             "class: %s" % cls.canonical_text()]
    lines += genus.s_lines(report["s_numbers"])
    lines += _check_lines(report["checks"], report.get("evidence", {}))
    return "\n".join(lines), report, 0 if all(report["checks"].values()) else 1


def cmd_verify(args, spec):
    # a sum with poles fails here as in class, naming its first such block
    fp, chern, ch, failure = _checked(spec)
    n = spec.n
    table = chern_to_s(chern, n)
    checks = {"low_vanishing": True}
    # the class off the a-series product at one point, to order n
    common, at = point_blocks(fp, genus.default_numeric_point(fp), n)
    cls = CobordismPoly({om: Fraction(v, common) for om, v in at.items()})
    # two independent routes: the a-series class against the point-evaluated
    # table, which passes through chern_to_s, and that table against the
    # character's blocks of degree 0, read at m b, the lattice's first point
    # (genus.lattice); the evidence key "symbolic" names the a-series class
    # a failed check names its first offending omega or xi and its values
    evidence = {}
    checks["class_integral"] = cls.is_integral()
    if not checks["class_integral"]:
        first = genus.non_integer_class(cls)
        evidence["class_integral"] = {"omega": pad(first.omega, n), "symbolic": first.value}
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
    checks["weyl_invariance"] = failure is None
    if failure:
        evidence["weyl_invariance"] = failure
    second = {xi: ch.get(xi, {}).get((0,) * spec.rank, 0) for xi in chern}
    bad = [xi for xi in sorted(chern) if chern[xi] != second[xi]]
    checks["numeric_agreement"] = not bad
    if bad:
        evidence["numeric_agreement"] = {"xi": pad(bad[0], n), "default_point": str(chern[bad[0]]),
                                         "second_point": str(second[bad[0]])}
    ok = all(checks.values())
    lines = _check_lines(checks, evidence)
    data = {"space": spec.descriptor, "structure": genus.structure_label(spec), "checks": checks, "ok": ok}
    if evidence:
        data["evidence"] = evidence
    return "\n".join(lines), data, 0 if ok else 1
