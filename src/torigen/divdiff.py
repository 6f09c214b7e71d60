"""Flag and Grassmannian classes by the operator L, with no fixed-point data.

Everything here works directly on the polynomial ring, so the flag and
Grassmannian classes computed below form an independent cross-check against
the localization route in the genus module.

The operator L sends p to (1/Delta_n) sum_sigma sign(sigma) sigma(p); on
monomials x^(lambda+delta) it produces the Schur polynomial Sh_lambda. The
products prod f(x_i - x_j) behind the flag and Grassmann classes are the
top a^omega blocks of exactalg.f_product_sum, and L of a block of degree
C(n, 2) is read off as its signed delta-orbit coefficient sum
(_signed_delta_sum). Each product keeps only the terms that can still reach
a monomial its caller reads, the x^e with e a permutation of `reads`: delta
for L, xi for a P_xi or Q_xi. Every factor raises exponents, so a term can
reach one only if its exponents, sorted descending, stay <= reads sorted
descending (exactalg.f_product_sum). With reads = delta the top blocks hold
only the n! monomials x^sigma(delta): 1,296 of the 3,125 exponent vectors
with every entry <= 4 pass at n = 5, and 16,807 of 46,656 at n = 6.

The flag and grassmann verbs live here, with the --cache store that memoizes
their classes.
"""

import json
import os
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

from .cobordism import CobordismPoly
from .exactalg import MultiPoly, block_coefficient, f_product_sum, xvars
from .symmfunc import omegas_of_weight, perm_sign


def _root(n, i, j):
    """The weight of x_i - x_j."""
    w = [0] * n
    w[i], w[j] = 1, -1
    return tuple(w)


def _delta(n):
    return tuple(range(n - 1, -1, -1))


@lru_cache(maxsize=None)
def _flag_product(n, order, reads):
    """The a^omega blocks of weight order of prod_{i<j} f(x_i - x_j) over n
    variables, exact at x^e for every permutation e of reads (sorted
    descending, so that its permutations share one product)."""
    roots = [_root(n, i, j) for i, j in combinations(range(n), 2)]
    return f_product_sum(xvars(n), [(roots, None)], order, reads=reads, top=True)


@lru_cache(maxsize=None)
def flag_P_polynomials(n, xi):
    """P_xi for the flag manifold: the x^xi coefficient of prod f(x_i - x_j)."""
    xi = tuple(xi)
    if len(xi) != n:
        raise ValueError("exponent length %d does not match n=%d" % (len(xi), n))
    return block_coefficient(_flag_product(n, sum(xi), tuple(sorted(xi, reverse=True))), xi)


def _signed_delta_sum(n, read):
    """sum_sigma sign(sigma) read(e_sigma), e_sigma the exponent sigma(delta).

    With read(e) the x^e coefficient of a polynomial p of degree C(n, 2) this
    is L(p): antisym(p) is alternating of the degree of Delta_n, so it is
    c * Delta_n for a number c, and as Delta_n has x^delta coefficient 1, c is
    the x^delta coefficient of antisym(p), this sum.
    """
    delta = _delta(n)
    total = CobordismPoly()
    for perm in permutations(range(n)):
        e = [0] * n
        for i, d in enumerate(delta):
            e[perm[i]] = d
        total = total + read(tuple(e)) * perm_sign(perm)
    return total


def _thm8_blocks(n):
    """The weight-C(n, 2) blocks of prod_{i<j} f(x_i - x_j) with the (1,2) and
    (n-1,n) factors replaced by the odd part of f, exact on the delta orbit."""
    pairs = list(combinations(range(n), 2))
    odd = (pairs.index((0, 1)), pairs.index((n - 2, n - 1)))
    roots = [_root(n, i, j) for i, j in pairs]
    return f_product_sum(xvars(n), [(roots, None)], len(pairs), odd, reads=_delta(n), top=True)


def flag_class(n, method="corL"):
    """[U(n)/T^n] by one of three equivalent Schubert-calculus routes.

    corL reads the P polynomials on the orbit of delta, tchi reads the
    permuted products at x^delta, thm8 (n >= 4 only) replaces the (1,2) and
    (n-1,n) factors by the odd part of f and takes L of the top blocks.
    corL and tchi coincide, and both read one product p = prod f(x_i - x_j):
    P_sigma(delta) is the x^sigma(delta) coefficient of p, which is also the
    coefficient of the permuted product sigma^-1(p) at x^delta, and
    sigma^-1 has the sign of sigma.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if method in ("corL", "tchi"):
        blocks = _flag_product(n, n * (n - 1) // 2, _delta(n))
    elif method == "thm8":
        if n < 4:
            raise ValueError("thm8 route needs n >= 4")
        blocks = _thm8_blocks(n)
    else:
        raise ValueError("unknown method %r" % (method,))
    return _signed_delta_sum(n, lambda e: block_coefficient(blocks, e))


@lru_cache(maxsize=None)
def _grassmann_blocks(q, l, weight, reads):
    """The a^omega blocks, ||omega|| = weight, of
    Delta_q * Delta_{q+1,q+l} * prod_{i<=q<j} f(x_i - x_j), exact at x^e for
    every permutation e of reads; each has total degree
    weight + C(q,2) + C(l,2)."""
    n = q + l
    arena = xvars(n)
    base = MultiPoly.const(arena, 1)
    for i, j in list(combinations(range(q), 2)) + list(combinations(range(q, n), 2)):
        base = base * MultiPoly.linear_form(arena, _root(n, i, j))
    weights = [_root(n, i, j) for i in range(q) for j in range(q, n)]
    return f_product_sum(arena, [(weights, base)], weight, reads=reads, top=True)


@lru_cache(maxsize=None)
def grassmann_Q_polynomials(q, l, xi):
    """Q_{(q+l,l)xi}: the x^xi coefficient of the weighted Grassmann product."""
    xi = tuple(xi)
    if len(xi) != q + l:
        raise ValueError("exponent length %d does not match q+l=%d" % (len(xi), q + l))
    weight = sum(xi) - q * (q - 1) // 2 - l * (l - 1) // 2
    return block_coefficient(_grassmann_blocks(q, l, weight, tuple(sorted(xi, reverse=True))), xi)


def grassmann_class(q, l):
    """[G_{q+l,l}] = (1/q!l!) L(Delta_q Delta_{q+1,q+l} prod f(x_i - x_j)).

    Only the top blocks, of total degree C(q+l,2) and weight ql, contribute a
    degree-zero result after dividing by the Vandermonde; L of each is its
    signed delta-orbit coefficient sum.
    """
    if q < 1 or l < 1:
        raise ValueError("need q, l >= 1")
    # delta pays only from (2, 3) on: at (2, 2), and wherever q = 1 or l = 1,
    # its set costs more than it saves, 0.4 s and 12 MB at (1, 6) (CHANGES.md)
    n = q + l
    pays = min(q, l) > 1 and q * l > 4
    blocks = _grassmann_blocks(q, l, q * l, _delta(n) if pays else (n - 1,) * n)
    cls = _signed_delta_sum(n, lambda e: block_coefficient(blocks, e)) / (factorial(q) * factorial(l))
    if not cls.is_integral():
        raise ArithmeticError("Grassmann class failed q!l! integrality")
    return cls


def flag_vanishing_checks(n):
    """Check the structural vanishing and parity statements for [U(n)/T^n].

    Covers: the value of s_m (2 for n=2, -6 for n=3, 0 for n > 3); s_omega = 0
    whenever omega meets a generator index above 2n-3; the inequality-based
    vanishing statements (sum q_p < l(2l-1), faithfully enumerated though they
    are empty for n <= 5); the all-even-Chern-numbers statement; and, for
    n = 4q or 4q+1, vanishing of every s_omega supported on even indices.
    """
    if not 2 <= n <= 5:
        raise ValueError("checks are sized for 2 <= n <= 5")
    from .chern import s_to_chern

    cls = flag_class(n)
    m = n * (n - 1) // 2
    s = {om: cls.coeff(om) for om in omegas_of_weight(m)}

    sm_value = s[(0,) * (m - 1) + (1,)]
    sm_expected = {2: 2, 3: -6}.get(n, 0)

    cor8 = [om for om in s if any(om[k] for k in range(2 * n - 3, len(om)))]

    inequality = []
    for om in s:
        ks = [k + 1 for k, mult in enumerate(om) if mult]
        if any(k > 2 * n - 3 for k in ks):
            continue
        ll = len(ks)
        if n >= 2 * ll and sum(2 * (n - 1) - k for k in ks) < ll * (2 * ll - 1):
            inequality.append(om)

    odd_zero_applies = n % 4 in (0, 1)
    odd_zero = []
    if odd_zero_applies:
        odd_zero = [om for om in s if all(om[k] == 0 for k in range(0, len(om), 2))]

    chern = s_to_chern(s, m)

    report = {
        "n": n,
        "m": m,
        "s_m": {"value": sm_value, "expected": sm_expected, "ok": sm_value == sm_expected},
        "cor8": {"count": len(cor8), "ok": all(s[om] == 0 for om in cor8)},
        "inequality": {"count": len(inequality), "ok": all(s[om] == 0 for om in inequality)},
        "odd_zero": {
            "applicable": odd_zero_applies,
            "count": len(odd_zero),
            "ok": all(s[om] == 0 for om in odd_zero),
        },
        "even_chern": {"ok": all(v % 2 == 0 for v in chern.values())},
    }
    report["ok"] = all(
        report[key]["ok"] for key in ("s_m", "cor8", "inequality", "odd_zero", "even_chern")
    )
    return report


CACHE_VERSION = 1


def _cache_load(path):
    """The CobordismPoly stored at path; None if absent, corrupt or of another version."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict) or raw.get("version") != CACHE_VERSION:
            return None
        return CobordismPoly({tuple(t["exponents"]): int(t["coefficient"]) for t in raw["terms"]})
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        return None


def _cache_poly(args, key, compute):
    """Memoize a CobordismPoly as versioned canonical JSON terms under --cache DIR.

    A missing, corrupt or stale entry is recomputed and replaced atomically:
    the entry is written to a temporary file in DIR and renamed over the old one.
    DIR and the temporary file are made before computing, so a cache that
    cannot be written fails at once, not after the work.
    """
    if not args.cache:
        return compute()
    import tempfile
    path = os.path.join(args.cache, key + ".json")
    value = _cache_load(path)
    if value is not None:
        return value
    os.makedirs(args.cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=args.cache, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            value = compute()
            json.dump({"version": CACHE_VERSION,
                       "terms": [{"exponents": list(e), "coefficient": str(c)}
                                 for e, c in sorted(value.terms.items())]}, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return value


# flag --n 6 takes 22-32 s on a 2-vCPU VM and peaks at about 108 MB (90 MB by
# thm8); n + 1 multiplies n more factors, to an order n higher
FLAG_N_LIMIT = 6


def cmd_flag(args):
    from .cli import _emit
    if args.n > FLAG_N_LIMIT:
        raise ValueError("--n must be at most %d, got %d" % (FLAG_N_LIMIT, args.n))
    text = _cache_poly(args, "flag_%d_%s" % (args.n, args.method),
                       lambda: flag_class(args.n, args.method)).canonical_text()
    _emit(args, text, {"n": args.n, "method": args.method, "class": text})
    return 0


# grassmann (3,3) takes 0.8 s, (1,6) 1.1 s and (2,4) 0.4 s; (2,5) takes 17.5 s
# and 300 MB, (1,7) 28 s and 650 MB, and (1,8) and (4,4) run out of a 1.5 GB
# address space. The top blocks have weight q*l, and the base
# Delta_q * Delta_{q+1,q+l} has q! * l! terms, so both are bounded.
GRASSMANN_QL_LIMIT = 9
GRASSMANN_SIDE_LIMIT = 6


def cmd_grassmann(args):
    from .cli import _emit
    if args.q * args.l > GRASSMANN_QL_LIMIT:
        raise ValueError("--q times --l must be at most %d, got %d" % (GRASSMANN_QL_LIMIT, args.q * args.l))
    if max(args.q, args.l) > GRASSMANN_SIDE_LIMIT:
        raise ValueError("--q and --l must be at most %d, got %d"
                         % (GRASSMANN_SIDE_LIMIT, max(args.q, args.l)))
    text = _cache_poly(args, "grassmann_%d_%d" % (args.q, args.l),
                       lambda: grassmann_class(args.q, args.l)).canonical_text()
    _emit(args, text, {"q": args.q, "l": args.l, "class": text})
    return 0
