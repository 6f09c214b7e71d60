"""Formal group law of geometric cobordisms, truncated: the addition law
F(u, v) = g^{-1}(g(u) + g(v)) of the logarithm g(u) = u + sum b_i u^{i+1},
b_i = [CP^i]/(i+1), which the fgl verb, defined here, prints.

The b_i sit on the a-slots of CobordismPoly, and the fgl verb prints them
as b1, b2, ... A series is the list of its CobordismPoly coefficients
(index = power); the law itself is a {(a, b): CobordismPoly} map. One table
of powers (_powers) gives both the exponential e = g^{-1} and the powers of
g that the law reads.
"""

from functools import lru_cache
from math import comb

from .cobordism import CobordismPoly, render_series


def _powers(order, coefficient):
    """P[j][d] = [y^d] s^j for 0 <= j, d <= order, s = y + s_2 y^2 + ...

    The table, order >= 1, is filled one degree d at a time (Knuth, TAOCP
    vol. 2, 4.7). [y^d] s^j for j >= 2 needs only s_1..s_{d-j+1}, so column
    d of those powers comes first, and then s_d = coefficient(d, P) may read it.
    """
    zero = CobordismPoly()
    P = [[zero] * (order + 1) for _ in range(order + 1)]
    P[0][0] = P[1][1] = CobordismPoly.const(1)
    for d in range(2, order + 1):
        for j in range(2, d + 1):
            # s^j = s * s^(j-1); the k = 1 term is s_1 = 1 times [y^(d-1)] s^(j-1)
            P[j][d] = sum((P[1][k] * P[j - 1][d - k] for k in range(2, d - j + 2)), P[j - 1][d - 1])
        P[1][d] = coefficient(d, P)
    return P


def log_series(order):
    """g(u) = u + b_1 u^2 + b_2 u^3 + ... with b_i on the a-slots."""
    out = [CobordismPoly(), CobordismPoly.const(1)]
    out += [CobordismPoly.gen(i - 1) for i in range(2, order + 1)]
    return out


@lru_cache(maxsize=None)
def exp_series(order):
    """g^{-1}(y) in the b-generators: from g(e(y)) = y,
    e_d = -sum_{j=2..d} b_{j-1} [y^d] e^j for d >= 2."""
    g = log_series(order)
    return tuple(_powers(order, lambda d, P: -sum((g[j] * P[j][d] for j in range(2, d + 1)),
                                                   CobordismPoly()))[1])


def fgl_addition(order):
    """F(u, v) = g^{-1}(g(u) + g(v)) truncated at total degree `order`:
    {(a, b): CobordismPoly}, the nonzero coefficients of u^a v^b.

    With e = exp_series, F = sum_m e_m (g(u) + g(v))^m. Expanding each power
    binomially, [u^a v^b] F = sum_j H_{a,j} [v^b] g^j with
    H_{a,j} = sum_i C(i + j, i) e_{i+j} [u^a] g^i; g^i starts at u^i, so
    i <= a and j <= b. F(u, 0) = u since e reverts g, and F is symmetric, so
    only 1 <= a <= b is computed.
    """
    e = exp_series(order)
    g = log_series(order)
    powers = _powers(order, lambda d, P: g[d])
    law = {(1, 0): CobordismPoly.const(1), (0, 1): CobordismPoly.const(1)}
    for a in range(1, order // 2 + 1):
        h = {j: sum((e[i + j] * comb(i + j, i) * powers[i][a] for i in range(1, a + 1)), CobordismPoly())
             for j in range(1, order - a + 1)}
        for b in range(a, order - a + 1):
            c = sum((h[j] * powers[j][b] for j in range(1, b + 1)), CobordismPoly())
            if not c.is_zero():
                law[a, b] = law[b, a] = c
    return law


# fgl --trunc 24 takes about 10 s on a 2-vCPU VM (20: about 2 s), 2 s of it
# in exp_series, and prints 3 MB; the cost grows about fourfold per four orders
FGL_TRUNC_LIMIT = 24


def cmd_fgl(args):
    from .cli import _emit
    order = 4 if args.trunc is None else args.trunc
    if order < 1:
        raise ValueError("--trunc must be at least 1, got %d" % order)
    if order > FGL_TRUNC_LIMIT:
        raise ValueError("--trunc must be at most %d, got %d" % (FGL_TRUNC_LIMIT, order))
    text = render_series(fgl_addition(order), ("u1", "u2"), "b")
    _emit(args, text, {"order": order, "addition": text})
    return 0
