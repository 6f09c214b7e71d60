"""Torus-equivariant stable complex structures as sign systems.

On G/H with an invariant structure, any equivariant stable complex structure
shows up at the fixed points as the invariant weight vectors rescaled by signs
a_i(w), with point signs epsilon * prod_i a_i(w).  The localization sum then
imposes necessary conditions on the a_i(w): every f_omega sum with
||omega|| <= n-1 must vanish identically and the ||omega|| = n sums must be
integers.  This module derives the rescaled fixed-point data and checks
those conditions for one table on the route of class, one call of
genus.s_numbers.  It enumerates the admissible tables by an exhaustive,
exact search: it reads each table's group sums in the certificate of
genus._pole_free off packed ints and its Chern numbers at one point, and
proves on every line, by the rank of the residue rows that check_poles
reads (residues._ResidueLine), that the group sums decide admissibility.
The Chern numbers and the residue rows are both e-sums of
genus.point_terms.

"Admissible" is deliberate: the conditions are necessary, and which admissible
tables are realized by honest stable complex structures is a separate
geometric question that we do not decide.

The stable verb, which enumerates the tables or checks one given with
--assign, lives here.
"""

import json
from collections import Counter, namedtuple
from itertools import product
from math import prod

from . import CheckFailure
from .genus import FailedBlock, common_scales, default_numeric_point, line_groups, point_terms, s_lines, s_table
from .genus import s_numbers as _genus_s_numbers
from .rootdata import FixedPoint, fixed_point_weights, is_sign
from .symmfunc import omegas_of_weight


class BudgetExceeded(CheckFailure):
    pass


SignAssignment = namedtuple("SignAssignment", "table epsilon")
NecessaryReport = namedtuple("NecessaryReport", "ok omega value")


def _check_shape(assign, base):
    if not is_sign(assign.epsilon):
        raise ValueError("epsilon must be +-1")
    if len(assign.table) != len(base):
        raise ValueError("assignment covers %d points, space has %d" % (len(assign.table), len(base)))
    # a point is named by its coset index, the key of the --assign JSON
    for index, (avec, pt) in enumerate(zip(assign.table, base)):
        if len(avec) != len(pt.weights):
            raise ValueError("point %d needs %d signs" % (index, len(pt.weights)))
        if not all(map(is_sign, avec)):
            raise ValueError("signs must be +-1")


def _signed(pt, avec, epsilon=1):
    """pt with weight j rescaled by avec[j], and its sign by epsilon * prod_j
    avec[j]."""
    weights = tuple(tuple(a * c for c in w) for a, w in zip(avec, pt.weights))
    return FixedPoint(pt.rep, weights, epsilon * pt.sign * prod(avec))


def derived_fixed_point_data(spec, assign):
    """Fixed-point table of the rescaled structure.

    Weights become a_i(w) * Lambda_i(w) and the sign of w becomes
    epsilon * prod_i a_i(w), composed with whatever sign the underlying
    structure already carries.
    """
    base = fixed_point_weights(spec)
    _check_shape(assign, base)
    return [_signed(pt, avec, assign.epsilon) for avec, pt in zip(assign.table, base)]


def check_necessary(spec, assign):
    """Evaluate the localization conditions for one sign table: every sum
    with ||omega|| <= n-1 must vanish identically and every ||omega|| = n
    sum must be an integer.

    One call of genus.s_numbers on the derived table decides them, the route
    that class takes. A table whose blocks have no poles (the certificate
    _pole_free, else the residues of genus.check_poles, block by block in
    order of weight, then of omega) has zero low blocks and its point values
    as top blocks, so one point decides it. Returns ok with the s-numbers as
    value, else the first failing omega and its value as text: the residue
    of its pole with the point and the line, or the non-integral s-number.
    """
    try:
        table = _genus_s_numbers(derived_fixed_point_data(spec, assign))
    except FailedBlock as exc:
        return NecessaryReport(False, exc.omega, exc.value)
    return NecessaryReport(True, None, table)


def _group_ints(rows, chi):
    """(ints, lines): per point and sign vector, sign * orientation in a
    slot of W = (2 chi + 1).bit_length() bits per (line, key) group of
    line_groups, and {line: {key}} over the groups.  A point touches a slot
    at most once, so a table's slot totals are at most chi in size: its sum,
    in balanced base 2^W, is 0 exactly when every group sum is."""
    width = (2 * chi + 1).bit_length()
    slots, lines, ints = {}, {}, []
    for row in rows:
        ints.append([])
        for pt in row:
            groups = line_groups(pt)
            if groups is None:
                raise CheckFailure("the weights %s are not primitive on distinct lines" % (pt.weights,))
            for (line, key), _ in groups:
                lines.setdefault(line, set()).add(key)
            ints[-1].append(sum(pt.sign * orient << width * slots.setdefault(group, len(slots))
                                for group, orient in groups))
    return ints, lines


def _integral(rows, point, n):
    """integral(table): whether a table, one index per point into its row
    of sign vectors, has integral Chern numbers at point. Per point and sign
    vector, sign * e^xi(c) * L / prod c at point (point_terms) for each xi
    with |xi| = n, L the lcm of the |prod c| (common_scales): a table's sums
    are L * c^xi at point, and integral exactly when L divides each."""
    common, scales = common_scales([pt.weights for row in rows for pt in row], point)
    size, at = len(omegas_of_weight(n)), iter(scales)
    values = [[[pt.sign * scale * v for v in point_terms(c, n)[-size:]] for pt, (c, scale) in zip(row, at)]
              for row in rows]

    def integral(table):
        return all(sum(col) % common == 0 for col in zip(*(row[j] for row, j in zip(values, table))))

    return integral


def enumerate_feasible(spec, budget=1 << 20):
    """All sign tables passing check_necessary, in the order of
    product((1, -1), repeat=n*chi).

    The search is exhaustive and exact.  Per point and sign vector, one
    int: its share of the certificate's group sums, in slots of
    (2 chi + 1).bit_length() bits (_group_ints).  A depth-first walk over
    the points adds one group int per step and looks up the last point by
    the value that cancels the rest, 2^(n*(chi-1)) additions and lookups in
    all; past `budget` of them it raises BudgetExceeded before any other
    work.  Of the tables found there, it keeps those whose Chern numbers at
    default_numeric_point, summed per xi over the points, are integers
    (_integral): integral s-numbers (c = T s, T integer unitriangular).
    Each is reported once, with epsilon = +1, as a global sign scales every
    condition.

    Guarantee: a table whose groups cancel is pole-free (genus._pole_free),
    so it passes check_necessary exactly when its point values are
    integral.  A table passing check_necessary has polynomial blocks for
    ||omega|| <= n, whose residues along each weight line, sum_g c_g R_g
    over its groups, vanish; where the R_g have full column rank, every
    group sum c_g is 0.  So the rank is checked on every line first, on the
    rows that check_poles reads, each block's at its own weight's
    determining set (residues._ResidueLine.rank: those of the c^xi, which
    the unimodular e -> m matrix takes to those of the a^omega at each
    weight, so the rank is the same), and where it is not full
    the search raises CheckFailure with the line and the rank.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1, got %d" % budget)
    base = fixed_point_weights(spec)
    n = len(base[0].weights)
    chi = len(base)
    if 2 ** (n * (chi - 1)) > budget:
        raise BudgetExceeded("2^%d additions and lookups exceed budget %d" % (n * (chi - 1), budget))
    signs = list(product((1, -1), repeat=n))
    rows = [[_signed(pt, avec) for avec in signs] for pt in base]
    low, lines = _group_ints(rows, chi)
    from .residues import _ResidueLine   # the search's alone: --assign loads it only for a pole
    for line, keys in lines.items():
        rank = _ResidueLine(line, keys, n, n).rank()
        if rank < len(keys):
            raise CheckFailure("residue rank %d of %d groups on line %s: the search cannot prove "
                               "that it finds every admissible table" % (rank, len(keys), list(line)))
    integral = _integral(rows, default_numeric_point(base), n)
    cancels = {}
    for i, v in enumerate(low[-1]):
        cancels.setdefault(-v, []).append(i)
    found = []

    def walk(p, total, picks):
        if p == chi - 1:
            for i in cancels.get(total, ()):
                table = picks + (i,)
                if integral(table):
                    found.append(SignAssignment(tuple(signs[j] for j in table), 1))
            return
        for i, v in enumerate(low[p]):
            walk(p + 1, total + v, picks + (i,))

    walk(0, 0, ())
    return found


def assignment_from_json(data, spec):
    """SignAssignment from {coset_index: [signs], "epsilon": e}, optionally
    nested under "table", beside which only "epsilon" may stand; ValueError
    for any other shape, for a key that is not read, such as an index of
    chi or more, which names no point, and for "epsilon" given both inside
    "table" and beside it."""
    base = fixed_point_weights(spec)
    src = data.get("table", data) if isinstance(data, dict) else data
    if not isinstance(src, dict):
        raise ValueError("assignment must be a JSON object, got %s" % type(src).__name__)
    keys = {str(i) for i in range(len(base))} | {"epsilon"}
    stray = [key for key in src if key not in keys]
    if src is not data:
        stray += [key for key in data if key not in ("table", "epsilon")]
    if stray:
        raise ValueError('assignment key %s is not read: the keys are the coset indices 0 to %d of %s and '
                         '"epsilon", or "table" holding them'
                         % (json.dumps(stray[0]), len(base) - 1, spec.descriptor))
    if src is not data and "epsilon" in src and "epsilon" in data:
        raise ValueError('assignment key "epsilon" is given both inside "table" and beside it')
    table = []
    for i in range(len(base)):
        key = str(i)
        if key not in src:
            raise ValueError("assignment missing point %s" % key)
        if not isinstance(src[key], list):
            raise ValueError("point %s needs a list of signs" % key)
        table.append(tuple(src[key]))
    epsilon = data.get("epsilon", src.get("epsilon", 1))
    assign = SignAssignment(tuple(table), epsilon)
    _check_shape(assign, base)
    return assign


def _object(pairs, repeated):
    """The JSON object of pairs as a dict; a key given again is added to
    repeated, so that no value silently replaces another."""
    repeated += [key for key, count in Counter(key for key, _ in pairs).items() if count > 1]
    return dict(pairs)


def cmd_stable(args, spec):
    if args.assign is not None:
        repeated = []
        with open(args.assign) as fh:
            try:
                data = json.load(fh, object_pairs_hook=lambda pairs: _object(pairs, repeated))
            except ValueError as exc:
                raise ValueError("--assign %s is not JSON: %s" % (args.assign, exc)) from None
        if repeated:
            raise ValueError("assignment key %s is given twice" % json.dumps(repeated[0]))
        assign = assignment_from_json(data, spec)
        report = check_necessary(spec, assign)
        if report.ok:
            rows = s_table(report.value, spec.n)
            return "\n".join(["PASS"] + s_lines(rows)), {"ok": True, "s_numbers": rows}, 0
        return ("FAIL at omega=%s: %s" % (list(report.omega), report.value),
                {"ok": False, "omega": list(report.omega), "value": report.value}, 1)
    sols = enumerate_feasible(spec, budget=args.budget)
    return _tables_text(args, spec, sols), None, 0


def _tables_text(args, spec, sols):
    """The output of the tables in args.format, as json.dumps would write
    the list of {coset_index: [signs], "epsilon": e}, keys sorted as strings
    ("10" before "2"): U(3)/T3 lists 4372 of them. Each table is joined from
    the JSON texts of the 2^n sign vectors, made once, about 4 times faster
    than json.dumps."""
    compact = args.format == "json"
    item, colon = (",", ":") if compact else (", ", ": ")
    texts = {v: json.dumps(v, separators=(item, colon)) for v in product((1, -1), repeat=spec.n)}
    keys = [(p, '"%d"%s' % (p, colon)) for p in sorted(range(len(sols[0].table) if sols else 0), key=str)]
    end = '%s"epsilon"%s' % (item, colon)
    rows = ["{%s%s%d}" % (item.join([k + texts[sol.table[p]] for p, k in keys]), end, sol.epsilon)
            for sol in sols]
    if compact:
        return '{"assignments":[%s],"count":%d,"space":%s}' % (",".join(rows), len(sols),
                                                              json.dumps(spec.descriptor))
    return "\n".join(["admissible: %d" % len(sols)] + rows)
