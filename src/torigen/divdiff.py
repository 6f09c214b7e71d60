"""Flag and Grassmannian classes by the operator L, with no fixed-point data.

Everything here works directly on the polynomial ring, so the flag and
Grassmannian classes computed below form an independent cross-check against
the localization route in the genus module.

The operator L sends p to (1/Delta_n) sum_sigma sign(sigma) sigma(p); on
monomials x^(lambda+delta) it produces the Schur polynomial Sh_lambda. The
products prod f(x_i - x_j) behind the flag and Grassmann classes are the
top a^omega blocks of exactalg.f_product_sum, and L of a block of degree
C(n, 2) is read off as its signed delta-orbit coefficient sum
(_signed_delta_sum). Each product keeps only the terms whose exponents are
at most the largest one its caller reads: n - 1 on the delta orbit, max(xi)
for a P_xi or Q_xi. Every factor raises exponents, so a dropped term never
reaches a read one; and a degree-C(n, 2) monomial with an exponent >= n
repeats an exponent, so L kills it anyway.
"""

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


@lru_cache(maxsize=None)
def _flag_product(n, order, cap):
    """The a^omega blocks of weight order of prod_{i<j} f(x_i - x_j) over n
    variables, keeping only the terms with every exponent <= cap."""
    roots = [_root(n, i, j) for i, j in combinations(range(n), 2)]
    return f_product_sum(xvars(n), [(roots, None)], order, cap=cap, top=True)


@lru_cache(maxsize=None)
def flag_P_polynomials(n, xi):
    """P_xi for the flag manifold: the x^xi coefficient of prod f(x_i - x_j)."""
    xi = tuple(xi)
    if len(xi) != n:
        raise ValueError("exponent length %d does not match n=%d" % (len(xi), n))
    return block_coefficient(_flag_product(n, sum(xi), max(xi)), xi)


def _signed_delta_sum(n, read):
    """sum_sigma sign(sigma) read(e_sigma), e_sigma the exponent sigma(delta).

    With read(e) the x^e coefficient of a polynomial p of degree C(n, 2) this
    is L(p): antisym(p) is alternating of the degree of Delta_n, so it is
    c * Delta_n for a number c, and as Delta_n has x^delta coefficient 1, c is
    the x^delta coefficient of antisym(p), this sum.
    """
    delta = tuple(range(n - 1, -1, -1))
    total = CobordismPoly()
    for perm in permutations(range(n)):
        e = [0] * n
        for i, d in enumerate(delta):
            e[perm[i]] = d
        total = total + read(tuple(e)) * perm_sign(perm)
    return total


def _thm8_blocks(n):
    """The weight-C(n, 2) blocks of prod_{i<j} f(x_i - x_j) with the (1,2) and
    (n-1,n) factors replaced by the odd part of f, on exponents <= n - 1 (all
    that the delta orbit reads)."""
    pairs = list(combinations(range(n), 2))
    odd = (pairs.index((0, 1)), pairs.index((n - 2, n - 1)))
    roots = [_root(n, i, j) for i, j in pairs]
    return f_product_sum(xvars(n), [(roots, None)], len(pairs), odd, cap=n - 1, top=True)


def flag_class(n, method="corL"):
    """[U(n)/T^n] by one of three equivalent Schubert-calculus routes.

    corL reads the P polynomials on the orbit of delta, tchi reads the
    permuted products at x^delta, thm8 (n >= 4 only) replaces the (1,2) and
    (n-1,n) factors by the odd part of f and takes L of the top blocks.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    m = n * (n - 1) // 2
    if method == "corL":
        return _signed_delta_sum(n, lambda e: flag_P_polynomials(n, e))
    if method == "tchi":
        # the permuted product sigma^-1(p) at x^delta is the product at
        # x^sigma(delta), and sigma^-1 has the sign of sigma
        blocks = _flag_product(n, m, n - 1)
        return _signed_delta_sum(n, lambda e: block_coefficient(blocks, e))
    if method == "thm8":
        if n < 4:
            raise ValueError("thm8 route needs n >= 4")
        blocks = _thm8_blocks(n)
        return _signed_delta_sum(n, lambda e: block_coefficient(blocks, e))
    raise ValueError("unknown method %r" % (method,))


@lru_cache(maxsize=None)
def _grassmann_blocks(q, l, weight, cap):
    """The a^omega blocks, ||omega|| = weight, of
    Delta_q * Delta_{q+1,q+l} * prod_{i<=q<j} f(x_i - x_j), on exponents
    <= cap; each has total degree weight + C(q,2) + C(l,2)."""
    n = q + l
    arena = xvars(n)
    base = MultiPoly.const(arena, 1)
    for i, j in list(combinations(range(q), 2)) + list(combinations(range(q, n), 2)):
        base = base * MultiPoly.linear_form(arena, _root(n, i, j))
    weights = [_root(n, i, j) for i in range(q) for j in range(q, n)]
    return f_product_sum(arena, [(weights, base)], weight, cap=cap, top=True)


@lru_cache(maxsize=None)
def grassmann_Q_polynomials(q, l, xi):
    """Q_{(q+l,l)xi}: the x^xi coefficient of the weighted Grassmann product."""
    xi = tuple(xi)
    if len(xi) != q + l:
        raise ValueError("exponent length %d does not match q+l=%d" % (len(xi), q + l))
    weight = sum(xi) - q * (q - 1) // 2 - l * (l - 1) // 2
    return block_coefficient(_grassmann_blocks(q, l, weight, max(xi)), xi)


def grassmann_class(q, l):
    """[G_{q+l,l}] = (1/q!l!) L(Delta_q Delta_{q+1,q+l} prod f(x_i - x_j)).

    Only the top blocks, of total degree C(q+l,2) and weight ql, contribute a
    degree-zero result after dividing by the Vandermonde; L of each is its
    signed delta-orbit coefficient sum.
    """
    if q < 1 or l < 1:
        raise ValueError("need q, l >= 1")
    blocks = _grassmann_blocks(q, l, q * l, q + l - 1)
    cls = _signed_delta_sum(q + l, lambda e: block_coefficient(blocks, e)) / (factorial(q) * factorial(l))
    if not cls.is_integral():
        raise ArithmeticError("Grassmann class failed q!l! integrality")
    return cls


def flag_vanishing_checks(n):
    """Check the structural vanishing and parity statements for [U(n)/T^n].

    Covers: the value of s_m (2 for n=2, -6 for n=3, 0 for n > 3); s_omega = 0
    whenever omega meets a generator index above 2n-3; the inequality-based
    vanishing family (sum q_p < l(2l-1), faithfully enumerated even though it
    is empty for n <= 5); the all-even-Chern-numbers statement; and, for
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
