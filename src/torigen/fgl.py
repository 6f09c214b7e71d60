"""Formal group law of geometric cobordisms, truncated: the addition law
F(u, v) = g^{-1}(g(u) + g(v)) of the logarithm g(u) = u + sum b_i u^{i+1},
b_i = [CP^i]/(i+1), which the fgl verb, defined here, prints.

A polynomial in b_1, b_2, ... is a plain {packed exponent: int} dict: the
exponents of b_1, b_2, ... are the digits, lowest first, of one int in base
order + 1. Every coefficient computed here has weight at most order, b_i
weighing i, so no digit exceeds order and sums of packed exponents never carry:
one sum of products (_dot) does all the arithmetic. A series is the list of
its coefficients (index = power). Only the law itself is unpacked, into
CobordismPoly on the a-slots, which the fgl verb prints as b1, b2, ... One
table of powers (_powers) gives both the exponential e = g^{-1} and the
powers of g that the law reads.
"""

from math import comb

from .cobordism import CobordismPoly, render_series


def _dot(triples):
    """sum scale * p * q over (p, q, scale), on packed polynomials, with the
    zero coefficients dropped."""
    acc = {}
    get = acc.get
    for p, q, scale in triples:
        for k1, c1 in p.items():
            c1 *= scale
            for k2, c2 in q.items():
                acc[k1 + k2] = get(k1 + k2, 0) + c1 * c2
    return {k: c for k, c in acc.items() if c}


def _powers(order, coefficient):
    """P[j][d] = [y^d] s^j for 0 <= j, d <= order, s = y + s_2 y^2 + ...

    The table, order >= 1, is filled one degree d at a time (Knuth, TAOCP
    vol. 2, 4.7). [y^d] s^j for j >= 2 needs only s_1..s_{d-j+1}, so column
    d of those powers comes first, and then s_d = coefficient(d, P) may read it.
    """
    P = [[{} for _ in range(order + 1)] for _ in range(order + 1)]
    P[0][0] = P[1][1] = {0: 1}
    for d in range(2, order + 1):
        for j in range(2, d + 1):
            # s^j = s * s^(j-1)
            P[j][d] = _dot((P[1][k], P[j - 1][d - k], 1) for k in range(1, d - j + 2))
        P[1][d] = coefficient(d, P)
    return P


def log_series(order):
    """g(u) = u + b_1 u^2 + b_2 u^3 + ..., packed in base order + 1."""
    return [{}, {0: 1}] + [{(order + 1) ** (i - 2): 1} for i in range(2, order + 1)]


def exp_series(order):
    """g^{-1}(y), packed in base order + 1: from g(e(y)) = y,
    e_d = -sum_{j=2..d} b_{j-1} [y^d] e^j for d >= 2."""
    g = log_series(order)
    return _powers(order, lambda d, P: _dot((g[j], P[j][d], -1) for j in range(2, d + 1)))[1]


def unpack(p, order):
    """The packed polynomial p, base order + 1, as a CobordismPoly."""
    terms = {}
    for key, c in p.items():
        exp = []
        while key:
            key, digit = divmod(key, order + 1)
            exp.append(digit)
        terms[tuple(exp)] = c
    return CobordismPoly(terms)


def fgl_addition(order):
    """F(u, v) = g^{-1}(g(u) + g(v)) truncated at total degree `order`:
    {(a, b): CobordismPoly}, the nonzero coefficients of u^a v^b.

    With e = exp_series, F = sum_m e_m (g(u) + g(v))^m. Expanding each power
    binomially, [u^a v^b] F = sum_j H_{a,j} [v^b] g^j with
    H_{a,j} = sum_i C(i + j, i) e_{i+j} [u^a] g^i; g^i starts at u^i, so
    i <= a and j <= b. F(u, 0) = u since e reverts g, and F is symmetric, so
    only 1 <= a <= b is computed, each H_{a,j} and each coefficient as one
    packed sum, unpacked last.
    """
    e = exp_series(order)
    g = log_series(order)
    powers = _powers(order, lambda d, P: g[d])
    one = CobordismPoly({(): 1})
    law = {(1, 0): one, (0, 1): one}
    for a in range(1, order // 2 + 1):
        h = [_dot((e[i + j], powers[i][a], comb(i + j, i)) for i in range(1, a + 1))
             for j in range(1, order - a + 1)]
        for b in range(a, order - a + 1):
            c = _dot((h[j - 1], powers[j][b], 1) for j in range(1, b + 1))
            if c:
                law[a, b] = law[b, a] = unpack(c, order)
    return law


# fgl --trunc 24 takes about 1.5 s on a 2-vCPU VM (20: about 0.35 s), a third
# of it rendering the 3 MB it prints; the cost grows about fivefold per four orders
FGL_TRUNC_LIMIT = 24


def cmd_fgl(args, spec):
    order = 4 if args.trunc is None else args.trunc
    if order < 1:
        raise ValueError("--trunc must be at least 1, got %d" % order)
    if order > FGL_TRUNC_LIMIT:
        raise ValueError("--trunc must be at most %d, got %d" % (FGL_TRUNC_LIMIT, order))
    text = render_series(fgl_addition(order), ("u1", "u2"), "b")
    return text, {"order": order, "addition": text}, 0
